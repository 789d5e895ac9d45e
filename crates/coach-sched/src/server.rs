//! Per-server scheduling state: the W+1-dimensional feasibility vectors and
//! the Formula 3/4 memory-pool accounting.
//!
//! The hot path (`can_fit` → `place`/`remove`) is allocation-free: demands
//! whose window count differs from the server's are broadcast by iteration,
//! never by materializing a normalized vector, and the Formula 3/4 pools are
//! maintained incrementally so queries never re-walk the hosted VMs.

use crate::demand::VmDemand;
use coach_types::prelude::*;
use std::collections::HashMap;
use std::fmt;

/// Margin by which the slack-summary shortcuts of
/// [`ServerState::can_fit_with_bounds`] stay away from the feasibility
/// boundary: far above the rounding error of capacity-scale sums, far below
/// any demand.
const SLACK_PAD: f64 = 1e-6;

/// One server's packing state under time-window scheduling (§3.3).
///
/// Feasibility is the combined vector check the paper describes: for each
/// resource, `Σ window_max[w] ≤ capacity` in every window *and*
/// `Σ guaranteed ≤ capacity` — "the scheduler considers the number of
/// windows plus one for each resource".
#[derive(Debug, Clone, PartialEq)]
pub struct ServerState {
    id: ServerId,
    capacity: ResourceVec,
    windows: usize,
    guaranteed_sum: ResourceVec,
    window_sum: Vec<ResourceVec>,
    /// Elementwise min over windows of `capacity - window_sum[w]`: the
    /// tightest per-resource window slack. A demand whose per-window peak
    /// fits in this is feasible in every window without scanning them.
    min_window_slack: ResourceVec,
    /// Elementwise max over windows of `capacity - window_sum[w]`: the
    /// loosest window slack. A demand whose per-window trough exceeds this
    /// on any resource overflows every window — fast reject.
    max_window_slack: ResourceVec,
    /// Per-window Σ over hosted VMs of VA (oversubscribed) memory GB —
    /// Formula 4's inner sums, maintained incrementally on place/remove.
    va_mem_sum: Vec<f64>,
    /// Σ over hosted VMs of their peak VA memory (the non-multiplexed
    /// ablation), maintained incrementally.
    va_peak_mem_sum: f64,
    vms: HashMap<VmId, VmDemand>,
}

impl ServerState {
    /// Create an empty server with `windows` time windows per day.
    ///
    /// # Panics
    ///
    /// Panics if `windows` is zero or capacity is invalid.
    pub fn new(id: ServerId, capacity: ResourceVec, windows: usize) -> Self {
        assert!(windows > 0, "need at least one window");
        assert!(
            capacity.is_valid() && !capacity.is_zero(),
            "invalid capacity"
        );
        ServerState {
            id,
            capacity,
            windows,
            guaranteed_sum: ResourceVec::ZERO,
            window_sum: vec![ResourceVec::ZERO; windows],
            min_window_slack: capacity,
            max_window_slack: capacity,
            va_mem_sum: vec![0.0; windows],
            va_peak_mem_sum: 0.0,
            vms: HashMap::new(),
        }
    }

    /// Server id.
    pub fn id(&self) -> ServerId {
        self.id
    }

    /// Hardware capacity.
    pub fn capacity(&self) -> ResourceVec {
        self.capacity
    }

    /// Number of hosted VMs.
    pub fn vm_count(&self) -> usize {
        self.vms.len()
    }

    /// Hosted VM ids.
    pub fn vm_ids(&self) -> impl Iterator<Item = VmId> + '_ {
        self.vms.keys().copied()
    }

    /// The demand record of a hosted VM.
    pub fn demand(&self, vm: VmId) -> Option<&VmDemand> {
        self.vms.get(&vm)
    }

    /// Validate the demand's window count against the server's, panicking on
    /// a real mismatch. Returns `true` when the demand must be broadcast
    /// (it has exactly one window, the server more).
    #[inline]
    fn check_windows(&self, d: &VmDemand) -> bool {
        let n = d.window_count();
        if n == self.windows {
            false
        } else if n == 1 {
            true
        } else {
            panic!("demand has {} windows but server packs {}", n, self.windows);
        }
    }

    /// The combined feasibility check (§3.3).
    ///
    /// # Panics
    ///
    /// Panics if the demand's window count is neither 1 nor the server's.
    pub fn can_fit(&self, d: &VmDemand) -> bool {
        self.check_windows(d);
        if !(self.guaranteed_sum + d.guaranteed).fits_within(&self.capacity) {
            return false;
        }
        self.windows_fit_exact(d)
    }

    /// The same check with the demand's precomputed per-window elementwise
    /// peak and trough (see [`VmDemand::window_peak`] /
    /// [`VmDemand::window_trough`]) used against the cached slack summaries
    /// to accept or reject most candidates in O(resources) instead of
    /// O(windows × resources). Exactly equivalent to [`ServerState::can_fit`].
    ///
    /// # Panics
    ///
    /// Panics if the demand's window count is neither 1 nor the server's.
    pub fn can_fit_with_bounds(
        &self,
        d: &VmDemand,
        peak: &ResourceVec,
        trough: &ResourceVec,
    ) -> bool {
        self.check_windows(d);
        if !(self.guaranteed_sum + d.guaranteed).fits_within(&self.capacity) {
            return false;
        }
        // `demand <= capacity - sum` rounds differently from the exact
        // check's `sum + demand <= capacity`, so both shortcuts keep
        // SLACK_PAD clear of the boundary and leave the band to the exact
        // scan.
        let pad = ResourceVec::splat(SLACK_PAD);
        // Quick accept: the worst window demand fits the tightest slack.
        if peak.fits_within(&(self.min_window_slack - pad)) {
            return true;
        }
        // Quick reject: the mildest window demand overflows the loosest
        // slack on some resource, so every window overflows there.
        if !trough.fits_within(&(self.max_window_slack + pad)) {
            return false;
        }
        self.windows_fit_exact(d)
    }

    /// Exact per-window feasibility scan (no allocation).
    #[inline]
    fn windows_fit_exact(&self, d: &VmDemand) -> bool {
        if d.window_count() == self.windows {
            d.window_max
                .iter()
                .zip(&self.window_sum)
                .all(|(w, sum)| (*sum + *w).fits_within(&self.capacity))
        } else {
            let w = d.window_max[0];
            self.window_sum
                .iter()
                .all(|sum| (*sum + w).fits_within(&self.capacity))
        }
    }

    /// Recompute the cached min/max window-slack summaries from `window_sum`.
    pub(crate) fn refresh_slack(&mut self) {
        let mut min = self.capacity - self.window_sum[0];
        let mut max = min;
        for sum in &self.window_sum[1..] {
            let slack = self.capacity - *sum;
            min = min.min(&slack);
            max = max.max(&slack);
        }
        self.min_window_slack = min;
        self.max_window_slack = max;
    }

    /// Place a VM.
    ///
    /// # Errors
    ///
    /// Returns the demand back if it does not fit or the VM is already
    /// hosted. The `Err` variant is the full (now inline-buffered, hence
    /// large) demand by design: boxing it would reintroduce the
    /// per-placement heap allocation the inline `WindowVec` removed from
    /// this hot path, and rejection is the rare branch.
    #[allow(clippy::result_large_err)]
    pub fn place(&mut self, d: VmDemand) -> Result<(), VmDemand> {
        if self.vms.contains_key(&d.vm) || !self.can_fit(&d) {
            return Err(d);
        }
        self.add_sums(&d);
        self.refresh_slack();
        self.vms.insert(d.vm, d);
        Ok(())
    }

    /// Remove a VM, returning its demand record.
    pub fn remove(&mut self, vm: VmId) -> Option<VmDemand> {
        let d = self.vms.remove(&vm)?;
        self.sub_sums(&d);
        self.refresh_slack();
        Some(d)
    }

    /// Add a demand to the commitment sums: the arithmetic of
    /// [`ServerState::place`], without the feasibility check, the hosted-VM
    /// map or the slack refresh.
    pub(crate) fn add_sums(&mut self, d: &VmDemand) {
        self.guaranteed_sum += d.guaranteed;
        let guar_mem = d.guaranteed.memory();
        let mut va_peak = 0.0f64;
        let broadcast = self.check_windows(d);
        for (w, sum) in self.window_sum.iter_mut().enumerate() {
            let wd = if broadcast {
                &d.window_max[0]
            } else {
                &d.window_max[w]
            };
            *sum += *wd;
            let va = (wd.memory() - guar_mem).max(0.0);
            self.va_mem_sum[w] += va;
            va_peak = va_peak.max(va);
        }
        self.va_peak_mem_sum += va_peak;
    }

    /// Subtract a demand from the commitment sums, clamping each at zero:
    /// the arithmetic of [`ServerState::remove`], without the hosted-VM map
    /// or the slack refresh.
    pub(crate) fn sub_sums(&mut self, d: &VmDemand) {
        self.guaranteed_sum -= d.guaranteed;
        let guar_mem = d.guaranteed.memory();
        let mut va_peak = 0.0f64;
        let broadcast = self.check_windows(d);
        for (w, sum) in self.window_sum.iter_mut().enumerate() {
            let wd = if broadcast {
                &d.window_max[0]
            } else {
                &d.window_max[w]
            };
            *sum -= *wd;
            // Clamp floating-point dust.
            *sum = sum.max(&ResourceVec::ZERO);
            let va = (wd.memory() - guar_mem).max(0.0);
            self.va_mem_sum[w] = (self.va_mem_sum[w] - va).max(0.0);
            va_peak = va_peak.max(va);
        }
        self.guaranteed_sum = self.guaranteed_sum.max(&ResourceVec::ZERO);
        self.va_peak_mem_sum = (self.va_peak_mem_sum - va_peak).max(0.0);
    }

    /// Formula (3): total guaranteed memory, GB.
    pub fn guaranteed_memory(&self) -> f64 {
        self.guaranteed_sum.memory()
    }

    /// Formula (4): the multiplexed oversubscribed memory pool —
    /// `max over windows of Σ VA_demand(vm, w)`, GB. O(windows): the
    /// per-window sums are maintained incrementally.
    pub fn oversub_pool_memory(&self) -> f64 {
        self.va_mem_sum.iter().copied().fold(0.0, f64::max)
    }

    /// The non-multiplexed alternative: `Σ over VMs of max_w VA_demand` —
    /// what you'd reserve without exploiting complementary patterns (the
    /// Formula 4 ablation; always ≥ [`ServerState::oversub_pool_memory`]).
    pub fn oversub_pool_memory_summed(&self) -> f64 {
        self.va_peak_mem_sum
    }

    /// Total allocated memory under Coach = guaranteed + multiplexed pool.
    pub fn total_memory_allocation(&self) -> f64 {
        self.guaranteed_memory() + self.oversub_pool_memory()
    }

    /// Remaining guaranteed headroom per resource.
    pub fn free_guaranteed(&self) -> ResourceVec {
        self.capacity.saturating_sub(&self.guaranteed_sum)
    }

    /// The cached tightest per-resource window slack (min over windows of
    /// `capacity - window_sum[w]`).
    pub fn min_window_slack(&self) -> ResourceVec {
        self.min_window_slack
    }

    /// The worst (largest) per-window committed fraction of capacity.
    pub fn peak_commitment(&self) -> ResourceVec {
        self.window_sum
            .iter()
            .fold(ResourceVec::ZERO, |acc, v| acc.max(v))
            .fraction_of(&self.capacity)
    }

    /// The server's probe-headroom summary: a borrowed view of exactly the
    /// commitment vectors [`ServerState::can_fit`] evaluates, maintained
    /// incrementally by [`ServerState::place`] / [`ServerState::remove`].
    ///
    /// This is the scan unit of the probe fill
    /// (`coach_sim::estimate_probe_capacity` and
    /// `coach_sim::measure_probe_capacity`): because the sums here are the
    /// *same floats* `can_fit` adds the candidate demand to, a consumer
    /// that copies them and replays placements arithmetically reproduces
    /// the scheduler's accept/reject decisions bit-for-bit — no probe VM
    /// ever has to be placed into (and unwound from) the real scheduler.
    pub fn probe_summary(&self) -> ProbeSummary<'_> {
        ProbeSummary {
            capacity: self.capacity,
            guaranteed_sum: self.guaranteed_sum,
            window_sums: &self.window_sum,
        }
    }

    /// Serialize the full packing state for snapshot/restore.
    ///
    /// The incrementally maintained floating-point sums are captured *as
    /// they are* — never re-derived from the hosted demands — so a restored
    /// server continues from the scheduler's exact arithmetic state and all
    /// subsequent `can_fit` decisions are bit-identical to the uninterrupted
    /// run. Hosted demands are emitted sorted by [`VmId`] (the map itself is
    /// order-insensitive; sorting makes the encoding canonical).
    pub fn dump(&self) -> ServerStateDump {
        let mut vms: Vec<VmDemand> = self.vms.values().cloned().collect();
        vms.sort_unstable_by_key(|d| d.vm);
        ServerStateDump {
            id: self.id,
            capacity: self.capacity,
            windows: self.windows,
            guaranteed_sum: self.guaranteed_sum,
            window_sum: self.window_sum.clone(),
            va_mem_sum: self.va_mem_sum.clone(),
            va_peak_mem_sum: self.va_peak_mem_sum,
            vms,
        }
    }

    /// Rebuild a server from a [`ServerStateDump`].
    ///
    /// The slack summaries are recomputed with the same pure function the
    /// live path uses (`ServerState::refresh_slack` is deterministic in
    /// `capacity`/`window_sum`), so they match the dumped instance exactly.
    ///
    /// # Errors
    ///
    /// [`DumpError::WindowLength`] if the dump has zero windows, a
    /// per-window sum vector of another length, or a hosted demand with
    /// neither one window nor the server's count;
    /// [`DumpError::DuplicateVm`] if it hosts a VM twice.
    pub fn from_dump(dump: ServerStateDump) -> Result<Self, DumpError> {
        let windows = dump.windows;
        if windows == 0
            || dump.window_sum.len() != windows
            || dump.va_mem_sum.len() != windows
            || dump
                .vms
                .iter()
                .any(|d| d.window_count() != 1 && d.window_count() != windows)
        {
            return Err(DumpError::WindowLength(dump.id));
        }
        let mut vms = HashMap::with_capacity(dump.vms.len());
        for d in dump.vms {
            let id = d.vm;
            if vms.insert(id, d).is_some() {
                return Err(DumpError::DuplicateVm(id));
            }
        }
        let mut server = ServerState {
            id: dump.id,
            capacity: dump.capacity,
            windows: dump.windows,
            guaranteed_sum: dump.guaranteed_sum,
            window_sum: dump.window_sum,
            min_window_slack: dump.capacity,
            max_window_slack: dump.capacity,
            va_mem_sum: dump.va_mem_sum,
            va_peak_mem_sum: dump.va_peak_mem_sum,
            vms,
        };
        server.refresh_slack();
        Ok(server)
    }
}

/// Why a [`ServerStateDump`] or a
/// [`ClusterSchedulerDump`](crate::ClusterSchedulerDump) cannot be
/// restored. No honest dump produces one; a corrupt or hand-edited one can.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DumpError {
    /// The cluster dump lists no servers.
    NoServers,
    /// Two servers share this id.
    DuplicateServer(ServerId),
    /// This VM is hosted twice, on one server or on two.
    DuplicateVm(VmId),
    /// This server's dump has zero windows, or a per-window vector whose
    /// length disagrees with its window count.
    WindowLength(ServerId),
}

impl fmt::Display for DumpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DumpError::NoServers => write!(f, "scheduler dump has no servers"),
            DumpError::DuplicateServer(id) => write!(f, "server {id} appears twice in dump"),
            DumpError::DuplicateVm(vm) => write!(f, "VM {vm} is hosted twice in dump"),
            DumpError::WindowLength(id) => {
                write!(f, "server {id} dump has inconsistent window vectors")
            }
        }
    }
}

impl std::error::Error for DumpError {}

/// A [`ServerState`] flattened for snapshot/restore: the incrementally
/// maintained sums verbatim plus the hosted demands sorted by id.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerStateDump {
    /// Server id.
    pub id: ServerId,
    /// Hardware capacity.
    pub capacity: ResourceVec,
    /// Time windows per day.
    pub windows: usize,
    /// Σ guaranteed over hosted VMs, exactly as maintained.
    pub guaranteed_sum: ResourceVec,
    /// Per-window commitment sums, exactly as maintained.
    pub window_sum: Vec<ResourceVec>,
    /// Per-window VA memory sums (Formula 4), exactly as maintained.
    pub va_mem_sum: Vec<f64>,
    /// Σ of per-VM peak VA memory (the non-multiplexed ablation).
    pub va_peak_mem_sum: f64,
    /// Hosted demands, sorted ascending by [`VmId`].
    pub vms: Vec<VmDemand>,
}

/// A server's spare-capacity summary as seen by the probe estimator: the
/// incrementally maintained commitment sums that fully determine
/// [`ServerState::can_fit`] and the BestFit headroom key.
///
/// Invariant: after any sequence of `place`/`remove` calls,
/// `guaranteed_sum` and `window_sums` equal what a from-scratch re-sum over
/// the hosted demands would produce *in the order they were applied* — so a
/// scratch copy seeded from this summary starts from the scheduler's exact
/// floating-point state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeSummary<'s> {
    /// Hardware capacity (the `can_fit` right-hand side).
    pub capacity: ResourceVec,
    /// Σ over hosted VMs of `guaranteed` (the Formula 3 dimension).
    pub guaranteed_sum: ResourceVec,
    /// Per-window Σ over hosted VMs of `window_max[w]` (broadcast demands
    /// contribute their single window to every slot).
    pub window_sums: &'s [ResourceVec],
}

impl ProbeSummary<'_> {
    /// The BestFit/WorstFit ordering key [`ServerState::free_guaranteed`]
    /// exposes: remaining guaranteed memory headroom, GB.
    pub fn headroom_memory(&self) -> f64 {
        self.capacity.saturating_sub(&self.guaranteed_sum).memory()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demand(vm: u64, guar_mem: f64, win_mem: [f64; 3]) -> VmDemand {
        let g = ResourceVec::new(1.0, guar_mem, 0.1, 1.0);
        VmDemand {
            vm: VmId::new(vm),
            requested: ResourceVec::new(4.0, 32.0, 1.0, 64.0),
            guaranteed: g,
            window_max: win_mem
                .iter()
                .map(|&m| ResourceVec::new(1.0, m.max(guar_mem), 0.1, 1.0))
                .collect(),
        }
    }

    fn server() -> ServerState {
        ServerState::new(
            ServerId::new(0),
            ResourceVec::new(48.0, 48.0, 40.0, 4096.0),
            3,
        )
    }

    #[test]
    fn paper_fig16_example() {
        // Two 32 GB CoachVMs in a 48 GB server with 3 windows (Fig 16).
        // CVM1: PA-demand 16, window max {28, 8, 22} -> VA {12, 0, 6}.
        // CVM2: PA-demand 12, window max {10, 18, 24} -> VA {0, 6, 12}.
        let mut s = server();
        let cvm1 = demand(1, 16.0, [28.0, 8.0, 22.0]);
        let cvm2 = demand(2, 12.0, [10.0, 18.0, 24.0]);
        assert!(s.can_fit(&cvm1));
        s.place(cvm1).unwrap();
        assert!(s.can_fit(&cvm2));
        s.place(cvm2).unwrap();

        // Formula 3: guaranteed = 16 + 12 = 28 GB.
        assert_eq!(s.guaranteed_memory(), 28.0);
        // Formula 4: multiplexed VA = max(12+0, 0+6, 6+12) = 18... the
        // paper's figure maps to a 16 GB VA pool after granularity; our raw
        // formula value is max over windows of summed VA.
        assert_eq!(s.oversub_pool_memory(), 18.0);
        // Non-multiplexed: 12 + 12 = 24 GB > 18 GB.
        assert_eq!(s.oversub_pool_memory_summed(), 24.0);
        // Total allocation = 28 + 18 = 46 <= 48 GB for two 32 GB VMs.
        assert!(s.total_memory_allocation() <= 48.0);
    }

    #[test]
    fn feasibility_is_per_window() {
        let mut s = server();
        // Fills window 0 with 40 GB.
        s.place(demand(1, 8.0, [40.0, 8.0, 8.0])).unwrap();
        // Another 40 GB peak in window 0 cannot fit (80 > 48)...
        assert!(!s.can_fit(&demand(2, 8.0, [40.0, 8.0, 8.0])));
        // ...but a complementary VM peaking in window 1 fits.
        assert!(s.can_fit(&demand(3, 8.0, [8.0, 40.0, 8.0])));
    }

    #[test]
    fn guaranteed_dimension_checked() {
        let mut s = server();
        // Three VMs each guaranteeing 20 GB: windows fine, guaranteed not.
        s.place(demand(1, 20.0, [20.0, 20.0, 20.0])).unwrap();
        s.place(demand(2, 20.0, [20.0, 20.0, 20.0])).unwrap();
        let third = demand(3, 20.0, [20.0, 20.0, 20.0]);
        assert!(!s.can_fit(&third), "3 x 20 GB guaranteed > 48 GB");
    }

    #[test]
    fn place_remove_roundtrip() {
        let mut s = server();
        let d = demand(1, 16.0, [28.0, 8.0, 22.0]);
        s.place(d.clone()).unwrap();
        assert_eq!(s.vm_count(), 1);
        let back = s.remove(VmId::new(1)).unwrap();
        assert_eq!(back, d);
        assert_eq!(s.vm_count(), 0);
        assert_eq!(s.guaranteed_memory(), 0.0);
        assert_eq!(s.oversub_pool_memory(), 0.0);
        assert!(s.remove(VmId::new(1)).is_none());
    }

    #[test]
    fn duplicate_placement_rejected() {
        let mut s = server();
        s.place(demand(1, 8.0, [8.0, 8.0, 8.0])).unwrap();
        assert!(s.place(demand(1, 8.0, [8.0, 8.0, 8.0])).is_err());
    }

    #[test]
    fn single_window_demand_broadcasts() {
        let mut s = server();
        let d = VmDemand::unpredicted(VmId::new(9), ResourceVec::new(4.0, 16.0, 1.0, 64.0));
        assert_eq!(d.window_count(), 1);
        s.place(d).unwrap();
        assert_eq!(s.guaranteed_memory(), 16.0);
        // All three windows carry the same load.
        assert_eq!(s.peak_commitment().memory(), 16.0 / 48.0);
    }

    #[test]
    #[should_panic(expected = "windows")]
    fn mismatched_window_count_panics() {
        let s = server();
        let mut d = demand(1, 8.0, [8.0, 8.0, 8.0]);
        // Truncate to 2 windows vs the server's 3.
        d.window_max = d.window_max.iter().take(2).copied().collect();
        let _ = s.can_fit(&d);
    }

    #[test]
    fn multiplexed_pool_never_exceeds_summed() {
        let mut s = server();
        for i in 0..4 {
            let mut win = [4.0, 4.0, 4.0];
            win[(i % 3) as usize] = 10.0;
            let _ = s.place(demand(i, 2.0, win));
        }
        assert!(s.oversub_pool_memory() <= s.oversub_pool_memory_summed() + 1e-9);
    }

    #[test]
    fn can_fit_with_bounds_matches_can_fit() {
        let mut s = server();
        s.place(demand(1, 8.0, [40.0, 8.0, 8.0])).unwrap();
        for (guar, win) in [
            (8.0, [40.0, 8.0, 8.0]),
            (8.0, [8.0, 40.0, 8.0]),
            (20.0, [20.0, 20.0, 20.0]),
            (1.0, [1.0, 1.0, 1.0]),
            (45.0, [45.0, 45.0, 45.0]),
        ] {
            let d = demand(99, guar, win);
            let peak = d.window_peak();
            let trough = d.window_trough();
            assert_eq!(
                s.can_fit(&d),
                s.can_fit_with_bounds(&d, &peak, &trough),
                "bounds check diverged for guar={guar} win={win:?}"
            );
        }
    }

    #[test]
    fn can_fit_with_bounds_matches_can_fit_at_the_boundary() {
        // Window 0 holds 20 GB plus all of fits_within's 1e-9 slack, so a
        // 28 GB window lands on the boundary, where `28 <= 48 - sum` and
        // `sum + 28 <= 48` round to different verdicts.
        let mut s = server();
        s.place(demand(1, 1.0, [20.0 + 1e-9, 1.0, 1.0])).unwrap();
        let d = demand(2, 1.0, [28.0, 1.0, 1.0]);
        let (peak, trough) = (d.window_peak(), d.window_trough());
        assert!(!s.can_fit(&d));
        assert!(!s.can_fit_with_bounds(&d, &peak, &trough));
    }

    #[test]
    fn probe_summary_tracks_place_remove() {
        let mut s = server();
        let fresh = s.probe_summary();
        assert_eq!(fresh.guaranteed_sum, ResourceVec::ZERO);
        assert_eq!(fresh.headroom_memory(), 48.0);
        assert_eq!(fresh.window_sums.len(), 3);

        s.place(demand(1, 16.0, [28.0, 8.0, 22.0])).unwrap();
        let loaded = s.probe_summary();
        assert_eq!(loaded.guaranteed_sum, ResourceVec::new(1.0, 16.0, 0.1, 1.0));
        assert_eq!(loaded.window_sums[0].memory(), 28.0);
        assert_eq!(loaded.headroom_memory(), 48.0 - 16.0);
        // The summary is the can_fit left-hand side: adding a candidate to
        // the summed vectors reproduces the feasibility verdict.
        let cand = demand(2, 16.0, [28.0, 8.0, 22.0]);
        let guar_ok = (loaded.guaranteed_sum + cand.guaranteed).fits_within(&loaded.capacity);
        let windows_ok = cand
            .window_max
            .iter()
            .zip(loaded.window_sums)
            .all(|(w, sum)| (*sum + *w).fits_within(&loaded.capacity));
        assert_eq!(guar_ok && windows_ok, s.can_fit(&cand));

        s.remove(VmId::new(1)).unwrap();
        assert_eq!(s.probe_summary().headroom_memory(), 48.0);
    }

    #[test]
    fn slack_summaries_track_window_sums() {
        let mut s = server();
        s.place(demand(1, 8.0, [40.0, 8.0, 8.0])).unwrap();
        // Tightest window is w0: 48 - 40 = 8 GB slack.
        assert_eq!(s.min_window_slack().memory(), 8.0);
        s.remove(VmId::new(1)).unwrap();
        assert_eq!(s.min_window_slack().memory(), 48.0);
    }
}
