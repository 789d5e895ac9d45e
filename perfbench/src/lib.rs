//! The Coach serving control plane's benchmark: three workloads, their
//! end-to-end metrics, and a per-layer cost ledger.
//!
//! Every workload is a closed loop driven by this harness on one thread
//! (the sharded workload's shard workers are the controller's own). Each
//! run builds its inputs from the workload seed alone, serves them, and
//! checks the outcome against a reference implementation outside the
//! timed phase. A traced run (`--trace 1`) serves the same inputs again
//! with timing wrappers around the public entry points of each layer and
//! replays the scheduler and the violation accountant on their own, so a
//! layer's cost is measured from outside the program.
//!
//! `README.md` beside this crate lists the workloads, the metrics and
//! which end-to-end metric each layer metric should move.

mod layers;
pub mod metrics;
mod workloads;

/// Every heap byte the benchmark touches is counted, so
/// `peak_bytes_per_vm` reads the high-water mark of the serving phase.
#[global_allocator]
static ALLOCATOR: coach_bench::alloc::TrackingAllocator = coach_bench::alloc::TrackingAllocator;

pub use metrics::{Metric, Report};
pub use workloads::{run, Options, Scale, Workload};
