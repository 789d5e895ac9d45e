//! The cluster scheduler: vector bin-packing with time-window dimensions.
//!
//! Traditional VM schedulers solve bin-packing with heuristics over a
//! per-resource requirement vector (§3.3, citing Protean). Coach extends the
//! vector with one dimension per time window plus one for the guaranteed
//! portion; the placement heuristic itself (best-fit) is unchanged, which is
//! why the overhead is < 1 ms per VM (§4.5).
//!
//! To keep that envelope at million-VM scale the scheduler maintains a
//! **headroom index**: servers ordered exactly by (free guaranteed memory,
//! server index), re-keyed in O(log n) on every place and remove. BestFit
//! walks up from the demand's guaranteed memory and stops at the first
//! feasible server; WorstFit walks down from the top. The original
//! exhaustive scan is retained as [`ScanStrategy::NaiveReference`] for
//! differential testing — both strategies are decision-identical by
//! construction, by proptest and by a bounded-exhaustive check.

use crate::demand::VmDemand;
use crate::server::{DumpError, ServerState};
use coach_types::prelude::*;
use std::collections::{BTreeSet, HashMap};

/// Placement heuristic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementHeuristic {
    /// Pack into the feasible server with the least remaining memory
    /// headroom (maximizes consolidation — the paper reports Coach reduces
    /// required servers by 44 %).
    #[default]
    BestFit,
    /// First feasible server in id order.
    FirstFit,
    /// Feasible server with the most remaining memory headroom (spreading).
    WorstFit,
}

/// How the scheduler searches for a feasible server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScanStrategy {
    /// Headroom-ordered candidate index: BestFit/WorstFit stop at the
    /// first feasible server in (headroom, index) order (default).
    #[default]
    Indexed,
    /// The seed's exhaustive linear scan over all servers, kept as the
    /// reference implementation for differential testing and benchmarking.
    NaiveReference,
}

/// Outcome of a placement attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementOutcome {
    /// Placed on this server.
    Placed(ServerId),
    /// No server can currently host the demand.
    Rejected,
}

/// How far below the demand's guaranteed memory the BestFit walk starts.
/// [`ResourceVec::fits_within`] accepts up to 1e-9 of overshoot, and
/// `capacity - guaranteed_sum` rounds differently from the
/// `guaranteed_sum + demand` sum `can_fit` evaluates; this pad covers both
/// with room to spare, so no server the exact check accepts lies below the
/// walk's first key.
const KEY_PAD: f64 = 1e-6;

/// The order key of a headroom value. Headroom comes from `saturating_sub`,
/// so it is never negative or NaN; adding `+0.0` folds `-0.0` into `+0.0`,
/// after which the bit patterns of non-negative floats sort exactly as the
/// numbers do and equal keys mean equal headroom.
fn headroom_key(headroom: f64) -> u64 {
    (headroom + 0.0).to_bits()
}

/// A server's key: its free guaranteed memory.
fn server_key(server: &ServerState) -> u64 {
    headroom_key(server.free_guaranteed().memory())
}

/// Servers ordered exactly by (free guaranteed memory, server index): the
/// order the naive scan's strict-`<`, first-index-wins BestFit argmin
/// ranks them in, so the first feasible server in this order is its pick.
#[derive(Debug, Clone, PartialEq)]
struct HeadroomIndex {
    order: BTreeSet<(u64, usize)>,
    key_of: Vec<u64>,
}

impl HeadroomIndex {
    /// Build the index in one sorted pass.
    fn build(servers: &[ServerState]) -> Self {
        let key_of: Vec<u64> = servers.iter().map(server_key).collect();
        let order = key_of.iter().enumerate().map(|(i, &k)| (k, i)).collect();
        HeadroomIndex { order, key_of }
    }

    /// Re-key server `i` after its headroom changed.
    fn update(&mut self, i: usize, server: &ServerState) {
        let key = server_key(server);
        let old = std::mem::replace(&mut self.key_of[i], key);
        if old != key {
            self.order.remove(&(old, i));
            self.order.insert((key, i));
        }
    }
}

/// A cluster of servers being packed by one policy.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterScheduler {
    servers: Vec<ServerState>,
    by_id: HashMap<ServerId, usize>,
    vm_to_server: HashMap<VmId, ServerId>,
    heuristic: PlacementHeuristic,
    scan: ScanStrategy,
    index: HeadroomIndex,
    in_use: usize,
    rejected: u64,
    placed: u64,
}

impl ClusterScheduler {
    /// Create a scheduler over homogeneous servers with the default
    /// [`ScanStrategy::Indexed`] candidate search.
    ///
    /// # Panics
    ///
    /// Panics if `server_ids` is empty or contains duplicates, or if
    /// `windows` is zero.
    pub fn new(
        server_ids: &[ServerId],
        capacity: ResourceVec,
        windows: usize,
        heuristic: PlacementHeuristic,
    ) -> Self {
        Self::with_strategy(
            server_ids,
            capacity,
            windows,
            heuristic,
            ScanStrategy::default(),
        )
    }

    /// Create a scheduler with an explicit candidate-search strategy.
    ///
    /// # Panics
    ///
    /// Panics if `server_ids` is empty or contains duplicates, or if
    /// `windows` is zero.
    pub fn with_strategy(
        server_ids: &[ServerId],
        capacity: ResourceVec,
        windows: usize,
        heuristic: PlacementHeuristic,
        scan: ScanStrategy,
    ) -> Self {
        assert!(!server_ids.is_empty(), "need at least one server");
        let servers: Vec<ServerState> = server_ids
            .iter()
            .map(|&id| ServerState::new(id, capacity, windows))
            .collect();
        let by_id: HashMap<ServerId, usize> = server_ids
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, i))
            .collect();
        assert_eq!(by_id.len(), servers.len(), "duplicate server ids");
        let index = HeadroomIndex::build(&servers);
        ClusterScheduler {
            servers,
            by_id,
            vm_to_server: HashMap::new(),
            heuristic,
            scan,
            index,
            in_use: 0,
            rejected: 0,
            placed: 0,
        }
    }

    /// The candidate-search strategy in use.
    pub fn scan_strategy(&self) -> ScanStrategy {
        self.scan
    }

    /// The placement heuristic in use (the probe fill replicates its
    /// candidate choice arithmetically).
    pub fn heuristic(&self) -> PlacementHeuristic {
        self.heuristic
    }

    /// Try to place a VM demand; returns where it landed.
    pub fn place(&mut self, demand: VmDemand) -> PlacementOutcome {
        self.place_excluding(demand, &[])
    }

    /// Place, skipping the servers in `excluded` (used when the runtime
    /// layer refuses a logically-feasible placement and the caller retries
    /// elsewhere).
    pub fn place_excluding(&mut self, demand: VmDemand, excluded: &[ServerId]) -> PlacementOutcome {
        let excluded_idx = self.excluded_indices(excluded);
        let candidate = match self.scan {
            ScanStrategy::Indexed => self.pick_server_indexed(&demand, &excluded_idx),
            ScanStrategy::NaiveReference => self.pick_server_naive(&demand, &excluded_idx),
        };
        match candidate {
            Some(idx) => {
                let id = self.servers[idx].id();
                let vm = demand.vm;
                self.servers[idx]
                    .place(demand)
                    .expect("picked server must fit");
                if self.servers[idx].vm_count() == 1 {
                    self.in_use += 1;
                }
                self.index.update(idx, &self.servers[idx]);
                self.vm_to_server.insert(vm, id);
                self.placed += 1;
                PlacementOutcome::Placed(id)
            }
            None => {
                self.rejected += 1;
                PlacementOutcome::Rejected
            }
        }
    }

    /// Resolve excluded server ids to a sorted index list once, so the scan
    /// pays O(log E) per candidate instead of O(E). Ids not in this cluster
    /// are ignored. Returns an empty vec (no allocation) in the common
    /// nothing-excluded case.
    fn excluded_indices(&self, excluded: &[ServerId]) -> Vec<usize> {
        if excluded.is_empty() {
            return Vec::new();
        }
        let mut idx: Vec<usize> = excluded
            .iter()
            .filter_map(|id| self.by_id.get(id).copied())
            .collect();
        idx.sort_unstable();
        idx
    }

    /// The seed's exhaustive scan: every server, full `can_fit`, running
    /// best. Retained as the differential-testing reference.
    fn pick_server_naive(&self, demand: &VmDemand, excluded: &[usize]) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (i, s) in self.servers.iter().enumerate() {
            if excluded.binary_search(&i).is_ok() || !s.can_fit(demand) {
                continue;
            }
            let headroom = s.free_guaranteed().memory();
            match self.heuristic {
                PlacementHeuristic::FirstFit => return Some(i),
                PlacementHeuristic::BestFit => {
                    if best.is_none_or(|(_, h)| headroom < h) {
                        best = Some((i, headroom));
                    }
                }
                PlacementHeuristic::WorstFit => {
                    if best.is_none_or(|(_, h)| headroom > h) {
                        best = Some((i, headroom));
                    }
                }
            }
        }
        best.map(|(i, _)| i)
    }

    /// Indexed scan. Decision-identical to [`Self::pick_server_naive`]:
    ///
    /// * The index orders servers by (headroom, server index), exactly the
    ///   ranking of the naive scan's strict `<` with first-index-wins ties,
    ///   so BestFit's first feasible server in ascending order is its pick.
    /// * BestFit starts the walk at the demand's guaranteed memory less
    ///   [`KEY_PAD`]: a server with less headroom fails the guaranteed-memory
    ///   check, so skipping it changes nothing.
    /// * WorstFit walks descending to the first feasible key, then returns
    ///   the lowest feasible index with that key, because the descending
    ///   walk meets higher indices first.
    fn pick_server_indexed(&self, demand: &VmDemand, excluded: &[usize]) -> Option<usize> {
        let peak = demand.window_peak();
        let trough = demand.window_trough();
        let feasible = |i: usize| {
            excluded.binary_search(&i).is_err()
                && self.servers[i].can_fit_with_bounds(demand, &peak, &trough)
        };
        let order = &self.index.order;
        match self.heuristic {
            PlacementHeuristic::FirstFit => {
                // Id order is the contract; the index cannot reorder it, but
                // the bounds-checked can_fit still prunes candidates fast.
                (0..self.servers.len()).find(|&i| feasible(i))
            }
            PlacementHeuristic::BestFit => {
                let start = headroom_key((demand.guaranteed.memory() - KEY_PAD).max(0.0));
                order
                    .range((start, 0)..)
                    .map(|&(_, i)| i)
                    .find(|&i| feasible(i))
            }
            PlacementHeuristic::WorstFit => {
                let &(key, last) = order.iter().rev().find(|&&(_, i)| feasible(i))?;
                order
                    .range((key, 0)..(key, last))
                    .map(|&(_, i)| i)
                    .find(|&i| feasible(i))
                    .or(Some(last))
            }
        }
    }

    /// Deallocate a VM (no-op if unknown).
    pub fn remove(&mut self, vm: VmId) -> Option<VmDemand> {
        let server = self.vm_to_server.remove(&vm)?;
        let idx = self.by_id[&server];
        let demand = self.servers[idx].remove(vm);
        if demand.is_some() {
            if self.servers[idx].vm_count() == 0 {
                self.in_use -= 1;
            }
            self.index.update(idx, &self.servers[idx]);
        }
        demand
    }

    /// Bring the scheduler to the state that placing a probe fill and then
    /// removing it leaves, without placing or removing a VM. `fill` lists
    /// the placed probes in order as `(server index, rotation)`, each probe
    /// being `templates[rotation]`; `rejected` counts the fill's rejected
    /// attempts.
    ///
    /// Only arithmetic survives such a round trip: every server's sums gain
    /// each of its probes in fill order, then lose them in fill order under
    /// [`ServerState::remove`]'s clamps, so the float residue and the
    /// `(placed, rejected)` counters are exactly those of the place/remove
    /// loop. `fill` must be a sequence the scheduler itself would have
    /// placed (the probe fill's recorded winners); nothing is checked
    /// against `can_fit`.
    ///
    /// # Panics
    ///
    /// Panics if an index is not a server of this cluster, a rotation is
    /// not an index of `templates`, or a template's window count is neither
    /// 1 nor the servers'.
    pub fn apply_probe_fill(
        &mut self,
        fill: &[(usize, usize)],
        templates: &[VmDemand],
        rejected: u64,
    ) {
        for &(i, rotation) in fill {
            self.servers[i].add_sums(&templates[rotation]);
        }
        for &(i, rotation) in fill {
            self.servers[i].sub_sums(&templates[rotation]);
        }
        let mut touched: Vec<usize> = fill.iter().map(|&(i, _)| i).collect();
        touched.sort_unstable();
        touched.dedup();
        for i in touched {
            self.servers[i].refresh_slack();
            self.index.update(i, &self.servers[i]);
        }
        self.placed += fill.len() as u64;
        self.rejected += rejected;
    }

    /// The server hosting a VM.
    pub fn server_of(&self, vm: VmId) -> Option<ServerId> {
        self.vm_to_server.get(&vm).copied()
    }

    /// All server states.
    pub fn servers(&self) -> &[ServerState] {
        &self.servers
    }

    /// A server state by id.
    pub fn server(&self, id: ServerId) -> Option<&ServerState> {
        self.by_id.get(&id).map(|&i| &self.servers[i])
    }

    /// Number of VMs currently placed.
    pub fn vm_count(&self) -> usize {
        self.vm_to_server.len()
    }

    /// Lifetime counters: (placed, rejected).
    pub fn counters(&self) -> (u64, u64) {
        (self.placed, self.rejected)
    }

    /// Number of servers hosting at least one VM (consolidation metric).
    /// O(1): maintained incrementally on place/remove.
    pub fn servers_in_use(&self) -> usize {
        self.in_use
    }

    /// Serialize the scheduler for snapshot/restore: per-server dumps (with
    /// their floating-point sums verbatim) plus the lifetime counters.
    ///
    /// Derived structures — the id maps, the headroom index, the in-use
    /// count — are *not* emitted: [`ClusterScheduler::from_dump`] rebuilds
    /// them from the server states, and the rebuild is exact (each server's
    /// index key is a pure function of its current headroom).
    pub fn dump(&self) -> ClusterSchedulerDump {
        ClusterSchedulerDump {
            servers: self.servers.iter().map(ServerState::dump).collect(),
            heuristic: self.heuristic,
            scan: self.scan,
            placed: self.placed,
            rejected: self.rejected,
        }
    }

    /// Rebuild a scheduler from a [`ClusterSchedulerDump`], continuing
    /// bit-identically from the dumped decision state.
    ///
    /// # Errors
    ///
    /// [`DumpError::NoServers`] if the dump has no servers,
    /// [`DumpError::DuplicateServer`] or [`DumpError::DuplicateVm`] if a
    /// server id repeats or a VM is hosted twice, and
    /// [`DumpError::WindowLength`] if a server's window vectors disagree
    /// with its window count.
    pub fn from_dump(dump: ClusterSchedulerDump) -> Result<Self, DumpError> {
        if dump.servers.is_empty() {
            return Err(DumpError::NoServers);
        }
        let mut servers = Vec::with_capacity(dump.servers.len());
        for server in dump.servers {
            servers.push(ServerState::from_dump(server)?);
        }
        let mut by_id = HashMap::with_capacity(servers.len());
        let mut vm_to_server = HashMap::new();
        let mut in_use = 0;
        for (i, s) in servers.iter().enumerate() {
            if by_id.insert(s.id(), i).is_some() {
                return Err(DumpError::DuplicateServer(s.id()));
            }
            if s.vm_count() > 0 {
                in_use += 1;
            }
            for vm in s.vm_ids() {
                if vm_to_server.insert(vm, s.id()).is_some() {
                    return Err(DumpError::DuplicateVm(vm));
                }
            }
        }
        let index = HeadroomIndex::build(&servers);
        Ok(ClusterScheduler {
            servers,
            by_id,
            vm_to_server,
            heuristic: dump.heuristic,
            scan: dump.scan,
            index,
            in_use,
            rejected: dump.rejected,
            placed: dump.placed,
        })
    }
}

/// A [`ClusterScheduler`] flattened for snapshot/restore.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSchedulerDump {
    /// Per-server dumps in scheduler (id) order.
    pub servers: Vec<crate::server::ServerStateDump>,
    /// Placement heuristic.
    pub heuristic: PlacementHeuristic,
    /// Candidate-search strategy.
    pub scan: ScanStrategy,
    /// Lifetime accepted-placement counter.
    pub placed: u64,
    /// Lifetime rejection counter.
    pub rejected: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(n: u64) -> Vec<ServerId> {
        (0..n).map(ServerId::new).collect()
    }

    fn cap() -> ResourceVec {
        ResourceVec::new(16.0, 64.0, 10.0, 1024.0)
    }

    fn full_demand(vm: u64, cores: f64, mem: f64) -> VmDemand {
        VmDemand::unpredicted(VmId::new(vm), ResourceVec::new(cores, mem, 0.5, 16.0))
    }

    #[test]
    fn places_until_capacity_then_rejects() {
        let mut s = ClusterScheduler::new(&ids(2), cap(), 1, PlacementHeuristic::FirstFit);
        // Each server fits 4 x (4c, 16GB).
        for i in 0..8 {
            assert!(matches!(
                s.place(full_demand(i, 4.0, 16.0)),
                PlacementOutcome::Placed(_)
            ));
        }
        assert_eq!(
            s.place(full_demand(99, 4.0, 16.0)),
            PlacementOutcome::Rejected
        );
        assert_eq!(s.counters(), (8, 1));
        assert_eq!(s.vm_count(), 8);
    }

    #[test]
    fn best_fit_consolidates_worst_fit_spreads() {
        let mut best = ClusterScheduler::new(&ids(3), cap(), 1, PlacementHeuristic::BestFit);
        let mut worst = ClusterScheduler::new(&ids(3), cap(), 1, PlacementHeuristic::WorstFit);
        for i in 0..3 {
            best.place(full_demand(i, 2.0, 8.0));
            worst.place(full_demand(i, 2.0, 8.0));
        }
        assert_eq!(best.servers_in_use(), 1, "best-fit should stack");
        assert_eq!(worst.servers_in_use(), 3, "worst-fit should spread");
    }

    #[test]
    fn remove_frees_capacity() {
        let mut s = ClusterScheduler::new(&ids(1), cap(), 1, PlacementHeuristic::BestFit);
        for i in 0..4 {
            s.place(full_demand(i, 4.0, 16.0));
        }
        assert_eq!(
            s.place(full_demand(9, 4.0, 16.0)),
            PlacementOutcome::Rejected
        );
        assert!(s.remove(VmId::new(0)).is_some());
        assert!(matches!(
            s.place(full_demand(9, 4.0, 16.0)),
            PlacementOutcome::Placed(_)
        ));
        assert!(s.remove(VmId::new(12345)).is_none());
    }

    #[test]
    fn server_of_tracks_placement() {
        let mut s = ClusterScheduler::new(&ids(2), cap(), 1, PlacementHeuristic::FirstFit);
        s.place(full_demand(7, 2.0, 8.0));
        let srv = s.server_of(VmId::new(7)).unwrap();
        assert_eq!(s.server(srv).unwrap().vm_count(), 1);
        s.remove(VmId::new(7));
        assert!(s.server_of(VmId::new(7)).is_none());
    }

    #[test]
    fn complementary_windows_pack_tighter() {
        // Two VMs that both peak at 48 GB would not fit a 64 GB server if
        // scheduled on lifetime peaks; with complementary windows they do.
        let mk = |vm: u64, peak_w: usize| {
            let mut window_max = vec![ResourceVec::new(2.0, 12.0, 0.5, 16.0); 2];
            window_max[peak_w] = ResourceVec::new(2.0, 44.0, 0.5, 16.0);
            VmDemand {
                vm: VmId::new(vm),
                requested: ResourceVec::new(4.0, 48.0, 0.5, 16.0),
                guaranteed: ResourceVec::new(2.0, 12.0, 0.5, 16.0),
                window_max: window_max.into(),
            }
        };
        let mut s = ClusterScheduler::new(&ids(1), cap(), 2, PlacementHeuristic::BestFit);
        assert!(matches!(s.place(mk(1, 0)), PlacementOutcome::Placed(_)));
        // Peak sum in window 0 would be 88 GB for same-peak VMs: rejected.
        assert_eq!(s.place(mk(2, 0)), PlacementOutcome::Rejected);
        // Complementary peak fits: window sums are {56, 56} <= 64.
        assert!(matches!(s.place(mk(3, 1)), PlacementOutcome::Placed(_)));
    }

    #[test]
    fn excluded_servers_are_skipped() {
        let mut s = ClusterScheduler::new(&ids(3), cap(), 1, PlacementHeuristic::FirstFit);
        let excluded: Vec<ServerId> = vec![ServerId::new(0), ServerId::new(1), ServerId::new(999)];
        match s.place_excluding(full_demand(1, 2.0, 8.0), &excluded) {
            PlacementOutcome::Placed(id) => assert_eq!(id, ServerId::new(2)),
            PlacementOutcome::Rejected => panic!("server 2 was free"),
        }
        // Excluding everything rejects even though capacity exists.
        let all: Vec<ServerId> = ids(3);
        assert_eq!(
            s.place_excluding(full_demand(2, 2.0, 8.0), &all),
            PlacementOutcome::Rejected
        );
    }

    #[test]
    fn strategies_report_themselves() {
        let indexed = ClusterScheduler::new(&ids(1), cap(), 1, PlacementHeuristic::BestFit);
        assert_eq!(indexed.scan_strategy(), ScanStrategy::Indexed);
        let naive = ClusterScheduler::with_strategy(
            &ids(1),
            cap(),
            1,
            PlacementHeuristic::BestFit,
            ScanStrategy::NaiveReference,
        );
        assert_eq!(naive.scan_strategy(), ScanStrategy::NaiveReference);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn empty_cluster_rejected() {
        let _ = ClusterScheduler::new(&[], cap(), 1, PlacementHeuristic::BestFit);
    }

    #[test]
    fn dump_restore_is_exact() {
        let mut s = ClusterScheduler::new(&ids(3), cap(), 1, PlacementHeuristic::BestFit);
        for i in 0..7 {
            s.place(full_demand(i, 2.0 + i as f64 * 0.5, 7.0 + i as f64));
        }
        s.remove(VmId::new(2));
        s.place(full_demand(50, 17.0, 64.0)); // infeasible: bumps the rejected counter
        let restored = ClusterScheduler::from_dump(s.dump()).expect("consistent dump");
        // Full structural equality: servers (all float sums), maps, the
        // rebuilt headroom index, and counters.
        assert_eq!(s, restored);
        // And the restored instance keeps making identical decisions.
        let mut a = s;
        let mut b = restored;
        for i in 100..110 {
            assert_eq!(
                a.place(full_demand(i, 2.0, 8.0)),
                b.place(full_demand(i, 2.0, 8.0))
            );
        }
        assert_eq!(a, b);
    }

    #[test]
    fn dump_with_conflicting_hosting_rejected() {
        let mut s = ClusterScheduler::new(&ids(2), cap(), 1, PlacementHeuristic::WorstFit);
        s.place(full_demand(1, 2.0, 8.0));
        s.place(full_demand(2, 2.0, 8.0));
        let mut dump = s.dump();
        // Claim VM 1 on both servers.
        let stolen = dump.servers[0].vms[0].clone();
        dump.servers[1].vms.push(stolen);
        assert_eq!(
            ClusterScheduler::from_dump(dump),
            Err(DumpError::DuplicateVm(VmId::new(1)))
        );
    }

    #[test]
    fn inconsistent_dumps_are_typed_errors() {
        let mut s = ClusterScheduler::new(&ids(2), cap(), 2, PlacementHeuristic::BestFit);
        s.place(full_demand(1, 2.0, 8.0));
        let dump = s.dump();

        let mut empty = dump.clone();
        empty.servers.clear();
        assert_eq!(
            ClusterScheduler::from_dump(empty),
            Err(DumpError::NoServers)
        );

        let mut twin = dump.clone();
        twin.servers[1].id = twin.servers[0].id;
        assert_eq!(
            ClusterScheduler::from_dump(twin),
            Err(DumpError::DuplicateServer(ServerId::new(0)))
        );

        let mut short = dump.clone();
        short.servers[1].window_sum.pop();
        assert_eq!(
            ClusterScheduler::from_dump(short),
            Err(DumpError::WindowLength(ServerId::new(1)))
        );

        let mut odd_demand = dump;
        odd_demand.servers[0].vms[0].window_max = WindowVec::from_elem(ResourceVec::ZERO, 3);
        assert_eq!(
            ClusterScheduler::from_dump(odd_demand),
            Err(DumpError::WindowLength(ServerId::new(0)))
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Random churn of placements and removals must never overcommit any
    /// server on any dimension, and bookkeeping must stay consistent.
    fn arb_demand(windows: usize) -> impl Strategy<Value = (u64, Vec<f64>, f64)> {
        (
            0u64..200,
            prop::collection::vec(0.05f64..1.0, windows),
            0.05f64..1.0,
        )
    }

    fn demand_from(i: usize, window_fracs: &[f64], guar_frac: f64) -> VmDemand {
        let request = ResourceVec::new(8.0, 32.0, 4.0, 256.0);
        let guaranteed = request * guar_frac;
        let window_max: Vec<ResourceVec> = window_fracs
            .iter()
            .map(|f| (request * *f).max(&guaranteed))
            .collect();
        VmDemand {
            vm: VmId::new(1000 + i as u64),
            requested: request,
            guaranteed,
            window_max: window_max.into(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_never_overcommits(ops in prop::collection::vec(arb_demand(3), 1..80)) {
            let capacity = ResourceVec::new(16.0, 64.0, 10.0, 1024.0);
            let ids: Vec<ServerId> = (0..3).map(ServerId::new).collect();
            let mut sched = ClusterScheduler::new(&ids, capacity, 3, PlacementHeuristic::BestFit);

            for (i, (vm_raw, window_fracs, guar_frac)) in ops.iter().enumerate() {
                if i % 5 == 4 {
                    // Periodically remove an arbitrary placed VM.
                    sched.remove(VmId::new(*vm_raw));
                    continue;
                }
                let demand = demand_from(i, window_fracs, *guar_frac);
                prop_assert!(demand.is_well_formed());
                let _ = sched.place(demand);

                // Invariants after every operation.
                for s in sched.servers() {
                    let commitment = s.peak_commitment();
                    prop_assert!(commitment.max_element() <= 1.0 + 1e-9,
                        "overcommitted: {commitment:?}");
                    prop_assert!(s.free_guaranteed().is_valid());
                }
            }
            let placed_total: usize = sched.servers().iter().map(|s| s.vm_count()).sum();
            prop_assert_eq!(placed_total, sched.vm_count());
            let in_use_scan = sched.servers().iter().filter(|s| s.vm_count() > 0).count();
            prop_assert_eq!(in_use_scan, sched.servers_in_use());
        }

        #[test]
        fn prop_place_remove_roundtrip(fracs in prop::collection::vec(0.05f64..1.0, 6)) {
            let capacity = ResourceVec::new(96.0, 384.0, 40.0, 4096.0);
            let ids = [ServerId::new(0)];
            let mut sched = ClusterScheduler::new(&ids, capacity, 6, PlacementHeuristic::BestFit);
            let request = ResourceVec::new(4.0, 16.0, 1.0, 64.0);
            let guaranteed = request * fracs[0].min(0.9);
            let demand = VmDemand {
                vm: VmId::new(1),
                requested: request,
                guaranteed,
                window_max: fracs.iter().map(|f| (request * *f).max(&guaranteed)).collect(),
            };
            let before = sched.server(ServerId::new(0)).unwrap().clone();
            prop_assert!(matches!(sched.place(demand), PlacementOutcome::Placed(_)));
            sched.remove(VmId::new(1));
            let after = sched.server(ServerId::new(0)).unwrap();
            // State returns to (numerically) where it started.
            prop_assert!(after.free_guaranteed().fits_within(&(before.free_guaranteed() + ResourceVec::splat(1e-6))));
            prop_assert_eq!(after.vm_count(), 0);
        }

        /// The tentpole differential test: under random churn, the indexed
        /// scheduler makes placement-for-placement identical decisions to
        /// the retained naive scan — same accept/reject sequence, same
        /// server ids — for all three heuristics.
        #[test]
        fn prop_indexed_matches_naive(
            ops in prop::collection::vec(arb_demand(3), 1..120),
            heuristic_sel in 0usize..3,
        ) {
            let heuristic = [
                PlacementHeuristic::BestFit,
                PlacementHeuristic::FirstFit,
                PlacementHeuristic::WorstFit,
            ][heuristic_sel];
            let capacity = ResourceVec::new(16.0, 64.0, 10.0, 1024.0);
            let ids: Vec<ServerId> = (0..5).map(ServerId::new).collect();
            let mut indexed = ClusterScheduler::new(&ids, capacity, 3, heuristic);
            let mut naive = ClusterScheduler::with_strategy(
                &ids, capacity, 3, heuristic, ScanStrategy::NaiveReference,
            );

            for (i, (vm_raw, window_fracs, guar_frac)) in ops.iter().enumerate() {
                if i % 4 == 3 {
                    let a = indexed.remove(VmId::new(1000 + (*vm_raw % ops.len() as u64)));
                    let b = naive.remove(VmId::new(1000 + (*vm_raw % ops.len() as u64)));
                    prop_assert_eq!(&a, &b);
                    continue;
                }
                // Periodically exercise the exclusion path too.
                let excluded: Vec<ServerId> = if i % 7 == 6 {
                    vec![ServerId::new(*vm_raw % 5), ServerId::new(4242)]
                } else {
                    Vec::new()
                };
                let demand = demand_from(i, window_fracs, *guar_frac);
                let a = indexed.place_excluding(demand.clone(), &excluded);
                let b = naive.place_excluding(demand, &excluded);
                prop_assert_eq!(a, b);
            }
            prop_assert_eq!(indexed.counters(), naive.counters());
            prop_assert_eq!(indexed.vm_count(), naive.vm_count());
            prop_assert_eq!(indexed.servers_in_use(), naive.servers_in_use());
        }

        /// Ties and exact boundaries. Every fraction of the request is a
        /// multiple of 1/8, so guaranteed memory and server headroom take
        /// few values and ties between servers are the rule; boundary
        /// operations demand exactly a server's headroom, or up to
        /// `FIT_EPS` more, so the walk's start key sits on a feasible
        /// server. Each indexed scheduler is restored from its dump half-way
        /// and must keep deciding as the naive scan does.
        #[test]
        fn prop_ties_and_boundaries_match_naive(
            ops in prop::collection::vec(
                (0u8..10, 0u64..4096, prop::collection::vec(1u8..=8, 3), 1u8..=8),
                1..160,
            ),
            n_servers in 32u64..40,
        ) {
            const FIT_EPS: f64 = 1e-9; // ResourceVec::fits_within's slack
            let capacity = ResourceVec::new(16.0, 64.0, 10.0, 1024.0);
            let ids: Vec<ServerId> = (0..n_servers).map(ServerId::new).collect();
            let eighths = |e: u8| f64::from(e) / 8.0;
            for heuristic in [
                PlacementHeuristic::BestFit,
                PlacementHeuristic::FirstFit,
                PlacementHeuristic::WorstFit,
            ] {
                let mut indexed = ClusterScheduler::new(&ids, capacity, 3, heuristic);
                let mut naive = ClusterScheduler::with_strategy(
                    &ids, capacity, 3, heuristic, ScanStrategy::NaiveReference,
                );
                for (i, (kind, sel, window_eighths, guar_eighths)) in ops.iter().enumerate() {
                    if i == ops.len() / 2 {
                        let restored = ClusterScheduler::from_dump(indexed.dump());
                        prop_assert_eq!(restored.as_ref(), Ok(&indexed));
                        indexed = restored.expect("consistent dump");
                    }
                    let pick = ids[(*sel % n_servers) as usize];
                    let (demand, excluded) = match kind {
                        0..=5 => {
                            let fracs: Vec<f64> =
                                window_eighths.iter().map(|&e| eighths(e)).collect();
                            let excluded = if *kind == 5 {
                                let other = ids[((*sel / n_servers) % n_servers) as usize];
                                vec![pick, other, ServerId::new(4242)]
                            } else {
                                Vec::new()
                            };
                            (demand_from(i, &fracs, eighths(*guar_eighths)), excluded)
                        }
                        6 | 7 => {
                            let server = naive.server(pick).expect("known server");
                            let over = if *kind == 7 {
                                FIT_EPS * eighths(*guar_eighths)
                            } else {
                                0.0
                            };
                            let mem = server.free_guaranteed().memory() + over;
                            let guaranteed = ResourceVec::new(0.5, mem, 0.25, 16.0);
                            let demand = VmDemand {
                                vm: VmId::new(1000 + i as u64),
                                requested: ResourceVec::new(1.0, mem, 0.5, 32.0),
                                guaranteed,
                                window_max: WindowVec::from_elem(guaranteed, 3),
                            };
                            (demand, Vec::new())
                        }
                        _ => {
                            let vm = VmId::new(1000 + *sel % (i as u64 + 1));
                            prop_assert_eq!(indexed.remove(vm), naive.remove(vm));
                            continue;
                        }
                    };
                    let a = indexed.place_excluding(demand.clone(), &excluded);
                    let b = naive.place_excluding(demand, &excluded);
                    prop_assert!(
                        a == b,
                        "{:?} op {} (kind {}): {:?} != {:?}", heuristic, i, kind, a, b
                    );
                }
                prop_assert_eq!(indexed.counters(), naive.counters());
                prop_assert_eq!(indexed.servers_in_use(), naive.servers_in_use());
            }
        }
    }
}

/// Bounded-exhaustive check of the indexed scan: every sequence of up to a
/// fixed number of operations from a small alphabet, over three servers and
/// all three heuristics, must decide exactly as the naive scan at every
/// step. The alphabet packs to exact guaranteed-memory and per-window
/// boundaries, makes every empty server a headroom tie, and includes a
/// CPU-heavy demand that fails on a server whose memory would still fit.
#[cfg(test)]
mod small_scope {
    use super::*;

    /// Place operations, as (guaranteed, window 0 max, window 1 max), GB of
    /// memory over a 64 GB server, plus the guaranteed cores of each.
    const PLACES: [(f64, f64, f64, f64); 5] = [
        (16.0, 16.0, 16.0, 2.0),
        (16.0, 48.0, 16.0, 2.0),
        (16.0, 16.0, 48.0, 2.0),
        (32.0, 32.0, 32.0, 2.0),
        (8.0, 8.0, 8.0, 12.0),
    ];
    /// The two remove operations: the newest and the oldest live VM.
    const OPS: usize = PLACES.len() + 2;

    #[derive(Clone)]
    struct Pair {
        indexed: ClusterScheduler,
        naive: ClusterScheduler,
        live: Vec<VmId>,
        next_vm: u64,
    }

    impl Pair {
        fn new(heuristic: PlacementHeuristic) -> Self {
            let ids: Vec<ServerId> = (0..3).map(ServerId::new).collect();
            let capacity = ResourceVec::new(16.0, 64.0, 10.0, 1024.0);
            Pair {
                indexed: ClusterScheduler::new(&ids, capacity, 2, heuristic),
                naive: ClusterScheduler::with_strategy(
                    &ids,
                    capacity,
                    2,
                    heuristic,
                    ScanStrategy::NaiveReference,
                ),
                live: Vec::new(),
                next_vm: 0,
            }
        }

        fn apply(&mut self, op: usize, path: &[usize]) {
            if let Some(&(guar, w0, w1, cores)) = PLACES.get(op) {
                let vm = VmId::new(self.next_vm);
                self.next_vm += 1;
                let window = |mem| ResourceVec::new(cores, mem, 0.5, 16.0);
                let demand = VmDemand {
                    vm,
                    requested: window(48.0),
                    guaranteed: window(guar),
                    window_max: vec![window(w0), window(w1)].into(),
                };
                let a = self.indexed.place(demand.clone());
                assert_eq!(a, self.naive.place(demand), "diverged after {path:?}");
                if a != PlacementOutcome::Rejected {
                    self.live.push(vm);
                }
            } else if !self.live.is_empty() {
                let at = if op == PLACES.len() {
                    self.live.len() - 1
                } else {
                    0
                };
                let vm = self.live.remove(at);
                assert_eq!(
                    self.indexed.remove(vm),
                    self.naive.remove(vm),
                    "diverged after {path:?}"
                );
            }
        }
    }

    /// Visit every extension of `pair` by up to `depth` operations; returns
    /// the number of sequences visited.
    fn explore(pair: &Pair, depth: usize, path: &mut Vec<usize>) -> u64 {
        if depth == 0 {
            return 0;
        }
        let mut visited = 0;
        for op in 0..OPS {
            path.push(op);
            let mut next = pair.clone();
            next.apply(op, path);
            visited += 1 + explore(&next, depth - 1, path);
            path.pop();
        }
        visited
    }

    fn check_all_sequences(depth: usize) {
        let expected: u64 = (1..=depth as u32).map(|k| (OPS as u64).pow(k)).sum();
        for heuristic in [
            PlacementHeuristic::BestFit,
            PlacementHeuristic::FirstFit,
            PlacementHeuristic::WorstFit,
        ] {
            let visited = explore(&Pair::new(heuristic), depth, &mut Vec::new());
            assert_eq!(visited, expected, "{heuristic:?} skipped sequences");
        }
    }

    #[test]
    fn indexed_matches_naive_on_every_short_sequence() {
        check_all_sequences(5);
    }

    #[test]
    #[ignore = "takes minutes in a debug build; CI runs it in release"]
    fn indexed_matches_naive_on_every_longer_sequence() {
        check_all_sequences(8);
    }
}
