//! Coach's cluster scheduling policy: time-window-aware vector bin-packing
//! with guaranteed/oversubscribed demand splitting (§3.3).
//!
//! * [`VmDemand`] — Formulas 1–2: a VM's guaranteed (PA) portion and
//!   per-window maximum demand, derived from a
//!   [`coach_predict::DemandPrediction`] under a [`Policy`].
//! * [`ServerState`] — per-server packing state with the W+1-dimensional
//!   feasibility check and the Formula 3/4 memory-pool accounting
//!   (multiplexed VA pool = max over windows of summed VA demand).
//! * [`ClusterScheduler`] — best-fit placement across servers, backed by a
//!   candidate index that orders servers exactly by free guaranteed memory
//!   ([`ScanStrategy::Indexed`]), with the exhaustive scan retained as a
//!   differential-testing reference ([`ScanStrategy::NaiveReference`]).
//!   Restoring a scheduler from a corrupt dump is a [`DumpError`], not a
//!   panic.
//!
//! # Example
//!
//! ```
//! use coach_sched::{ClusterScheduler, PlacementHeuristic, PlacementOutcome, VmDemand};
//! use coach_types::{ResourceVec, ServerId, VmId};
//!
//! let ids = [ServerId::new(0)];
//! let capacity = ResourceVec::new(48.0, 48.0, 40.0, 4096.0);
//! let mut sched = ClusterScheduler::new(&ids, capacity, 1, PlacementHeuristic::BestFit);
//! let demand = VmDemand::unpredicted(VmId::new(1), ResourceVec::new(4.0, 16.0, 1.0, 64.0));
//! assert!(matches!(sched.place(demand), PlacementOutcome::Placed(_)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod demand;
pub mod scheduler;
pub mod server;
pub mod wire;

pub use demand::{Policy, VmDemand};
pub use scheduler::{
    ClusterScheduler, ClusterSchedulerDump, PlacementHeuristic, PlacementOutcome, ScanStrategy,
};
pub use server::{DumpError, ProbeSummary, ServerState, ServerStateDump};
