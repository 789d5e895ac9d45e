//! Timing from outside the program: wrappers around the public entry
//! points of each layer, and shadow replays of the scheduler and the
//! violation accountant.
//!
//! A shadow replay feeds the same demands, in the controller's own event
//! order, through the layer's public API on its own, times those calls,
//! and reports what it computed so the caller can assert that it matches
//! the controller exactly. A timing therefore never comes from a
//! different computation than the one the controller made.

use coach_bench::alloc;
use coach_predict::DemandPrediction;
use coach_sched::{ClusterScheduler, PlacementOutcome, VmDemand};
use coach_serve::{Request, Response, ServeConfig, StreamRequest, ViolationAccountant};
use coach_sim::{
    estimate_probe_capacity, measure_probe_capacity, probe_demand, Predictor, ProbeMode,
};
use coach_trace::{Cluster, VmRecord};
use coach_types::prelude::*;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

fn ns_since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// The derive layer: forwards to an inner predictor and times every call.
pub struct TimedPredictor<'p> {
    inner: &'p dyn Predictor,
    calls: AtomicU64,
    vms: AtomicU64,
    busy_ns: AtomicU64,
    repeats: AtomicU64,
    seen: Mutex<HashSet<(u64, u64)>>,
}

/// What a [`TimedPredictor`] counted.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeriveCounts {
    /// `predict` plus `predict_batch` calls.
    pub calls: u64,
    /// VMs derived (a batch counts each of its VMs).
    pub vms: u64,
    /// Time inside the inner predictor, summed over calling threads.
    pub busy_ns: u64,
    /// VMs whose `(VM, percentile)` key had been asked for before.
    pub repeats: u64,
}

impl<'p> TimedPredictor<'p> {
    /// Wrap `inner`.
    pub fn new(inner: &'p dyn Predictor) -> Self {
        TimedPredictor {
            inner,
            calls: AtomicU64::new(0),
            vms: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            repeats: AtomicU64::new(0),
            seen: Mutex::new(HashSet::new()),
        }
    }

    /// Counts so far.
    pub fn counts(&self) -> DeriveCounts {
        DeriveCounts {
            calls: self.calls.load(Ordering::Relaxed),
            vms: self.vms.load(Ordering::Relaxed),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
            repeats: self.repeats.load(Ordering::Relaxed),
        }
    }

    fn note(&self, vms: &[&VmRecord], percentile: Percentile, ns: u64) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.vms.fetch_add(vms.len() as u64, Ordering::Relaxed);
        self.busy_ns.fetch_add(ns, Ordering::Relaxed);
        let mut seen = self
            .seen
            .lock()
            .expect("no thread panics holding the key set");
        let repeats = vms
            .iter()
            .filter(|vm| !seen.insert((vm.id.raw(), percentile.value().to_bits())))
            .count();
        self.repeats.fetch_add(repeats as u64, Ordering::Relaxed);
    }
}

impl Predictor for TimedPredictor<'_> {
    fn time_windows(&self) -> TimeWindows {
        self.inner.time_windows()
    }

    fn predict(&self, vm: &VmRecord, percentile: Percentile) -> Option<DemandPrediction> {
        let t0 = Instant::now();
        let p = self.inner.predict(vm, percentile);
        self.note(&[vm], percentile, ns_since(t0));
        p
    }

    fn predict_batch(
        &self,
        vms: &[&VmRecord],
        percentile: Percentile,
    ) -> Vec<Option<DemandPrediction>> {
        let t0 = Instant::now();
        let p = self.inner.predict_batch(vms, percentile);
        self.note(vms, percentile, ns_since(t0));
        p
    }
}

/// Predictions derived ahead of serving, looked up by VM id at request
/// time (ids index the trace).
pub struct Prederived {
    tw: TimeWindows,
    by_vm: Vec<Option<DemandPrediction>>,
}

impl Prederived {
    /// Derive every VM's prediction through `predictor`'s batch path in
    /// chunks spread over the machine's threads.
    pub fn derive(vms: &[VmRecord], predictor: &dyn Predictor, percentile: Percentile) -> Self {
        let chunks: Vec<&[VmRecord]> = vms.chunks(4096).collect();
        let by_vm = coach_types::par_map(&chunks, |chunk| {
            let refs: Vec<&VmRecord> = chunk.iter().collect();
            predictor.predict_batch(&refs, percentile)
        })
        .into_iter()
        .flatten()
        .collect();
        Prederived {
            tw: predictor.time_windows(),
            by_vm,
        }
    }
}

impl Predictor for Prederived {
    fn time_windows(&self) -> TimeWindows {
        self.tw
    }

    fn predict(&self, vm: &VmRecord, _percentile: Percentile) -> Option<DemandPrediction> {
        self.by_vm.get(vm.id.raw() as usize).cloned().flatten()
    }
}

/// The ingest layer: times every `next` of a record iterator.
pub struct TimedRecords<I> {
    inner: I,
    /// Records yielded.
    pub records: u64,
    /// Time inside the inner iterator's `next`.
    pub busy_ns: u64,
}

impl<I> TimedRecords<I> {
    /// Wrap `inner`.
    pub fn new(inner: I) -> Self {
        TimedRecords {
            inner,
            records: 0,
            busy_ns: 0,
        }
    }
}

impl<I: Iterator<Item = VmRecord>> Iterator for TimedRecords<I> {
    type Item = VmRecord;

    fn next(&mut self) -> Option<VmRecord> {
        let t0 = Instant::now();
        let rec = self.inner.next();
        self.busy_ns += ns_since(t0);
        self.records += u64::from(rec.is_some());
        rec
    }
}

/// The client side of a streamed run: counts what the dispatcher pulls
/// and times how long it takes to submit each arrival — the gap between
/// handing an arrival over and being asked for the next request, which
/// covers routing, segment shipping and stalls on a full worker ring.
pub struct SubmitClock<I> {
    inner: I,
    handed_arrival_at: Option<Instant>,
    /// Per-arrival submit times in nanoseconds.
    pub submit_ns: Vec<u64>,
    /// Requests pulled.
    pub requests: u64,
    /// Broadcast requests pulled (probe, stats, depart, tick).
    pub broadcasts: u64,
    /// Explicit departures pulled.
    pub departs: u64,
}

impl<I> SubmitClock<I> {
    /// Wrap `inner`, with room for `expected` samples reserved up front
    /// so that recording never allocates while serving.
    pub fn new(inner: I, expected: usize) -> Self {
        SubmitClock {
            inner,
            handed_arrival_at: None,
            submit_ns: Vec::with_capacity(expected),
            requests: 0,
            broadcasts: 0,
            departs: 0,
        }
    }
}

impl<I: Iterator<Item = StreamRequest>> Iterator for SubmitClock<I> {
    type Item = StreamRequest;

    fn next(&mut self) -> Option<StreamRequest> {
        if let Some(t) = self.handed_arrival_at.take() {
            self.submit_ns.push(ns_since(t));
        }
        let req = self.inner.next()?;
        self.requests += 1;
        match req {
            StreamRequest::Arrive(_) => self.handed_arrival_at = Some(Instant::now()),
            StreamRequest::Depart { .. } => {
                self.departs += 1;
                self.broadcasts += 1;
            }
            _ => self.broadcasts += 1,
        }
        Some(req)
    }
}

/// One request's outcome, as the controller answered it or a shadow
/// replay reproduced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// An arrival placed on a server.
    Placed(ServerId),
    /// An arrival rejected.
    Rejected,
    /// An explicit departure; whether the VM was resident.
    Departed(bool),
    /// A probe and its measured capacity.
    Probe(u64),
    /// Any other request.
    Other,
}

impl Step {
    /// The step a controller response records.
    pub fn of(response: &Response) -> Step {
        match response {
            Response::Admission {
                outcome: PlacementOutcome::Placed(server),
                ..
            } => Step::Placed(*server),
            Response::Admission { .. } => Step::Rejected,
            Response::Departed { found, .. } => Step::Departed(*found),
            Response::ProbeCapacity(count) => Step::Probe(*count),
            Response::Ticked | Response::Stats(_) => Step::Other,
        }
    }
}

/// The demand a controller admits for `rec` under `config`'s policy.
pub fn demand_of(predictor: &dyn Predictor, config: &ServeConfig, rec: &VmRecord) -> VmDemand {
    let prediction = predictor.predict(rec, config.policy.percentile);
    VmDemand::from_prediction(
        rec.id,
        rec.demand(),
        config.policy.policy,
        prediction.as_ref(),
    )
}

/// What the scheduler shadow replay computed and what it cost.
#[derive(Debug, Clone, Default)]
pub struct SchedShadow {
    /// One step per request, plus the placement's server capacity.
    pub steps: Vec<(Step, ResourceVec)>,
    /// `ClusterScheduler::place` calls and their total time.
    pub place_calls: u64,
    /// Time inside `place`.
    pub place_ns: u64,
    /// Time inside `remove`.
    pub remove_ns: u64,
    /// Arrivals placed.
    pub accepted: u64,
    /// Arrivals rejected.
    pub rejected: u64,
    /// Peak of servers in use summed over clusters.
    pub peak_in_use: usize,
    /// Mean servers built per cluster.
    pub servers_per_cluster: f64,
}

impl SchedShadow {
    /// Mean probe count over the replay's probes (0 without probes), as
    /// `StatsReport::probe_capacity` computes it.
    pub fn probe_capacity(&self) -> f64 {
        let counts: Vec<u64> = self
            .steps
            .iter()
            .filter_map(|(s, _)| match s {
                Step::Probe(count) => Some(*count),
                _ => None,
            })
            .collect();
        if counts.is_empty() {
            0.0
        } else {
            counts.iter().sum::<u64>() as f64 / counts.len() as f64
        }
    }
}

/// One cluster's scheduler in a replay.
struct ReplayCluster {
    id: ClusterId,
    capacity: ResourceVec,
    sched: ClusterScheduler,
}

/// The controller's event loop around the schedulers, rebuilt outside
/// the program: a departure heap keyed like the controller's, and the
/// live placement of every resident VM.
struct ScheduleReplay {
    clusters: Vec<ReplayCluster>,
    /// Scheduled departures: `(time, arrival sequence, VM)`.
    heap: BinaryHeap<Reverse<(Timestamp, u64, VmId)>>,
    /// Arrival sequence and cluster index of each resident VM, so a
    /// scheduled departure already taken explicitly is skipped.
    resident: HashMap<VmId, (u64, usize)>,
    seq: u64,
    in_use: usize,
    out: SchedShadow,
}

impl ScheduleReplay {
    fn remove(&mut self, ci: usize, vm: VmId) {
        let sched = &mut self.clusters[ci].sched;
        let before = sched.servers_in_use();
        let t0 = Instant::now();
        let removed = sched.remove(vm);
        self.out.remove_ns += ns_since(t0);
        assert!(removed.is_some(), "the replay removes only resident VMs");
        self.in_use = self.in_use + sched.servers_in_use() - before;
    }

    /// Retire scheduled departures up to `t` (inclusive when `inclusive`).
    fn drain(&mut self, t: Timestamp, inclusive: bool) {
        while let Some(&Reverse((when, seq, vm))) = self.heap.peek() {
            if when > t || (!inclusive && when == t) {
                break;
            }
            self.heap.pop();
            if self.resident.get(&vm).is_some_and(|&(s, _)| s == seq) {
                let (_, ci) = self.resident.remove(&vm).expect("checked above");
                self.remove(ci, vm);
            }
        }
    }

    fn arrive(&mut self, rec: &VmRecord, demand: VmDemand) -> (Step, ResourceVec) {
        self.drain(rec.arrival, true);
        let seq = self.seq;
        self.seq += 1;
        let ci = self
            .clusters
            .binary_search_by_key(&rec.cluster, |c| c.id)
            .expect("arrival for a known cluster");
        let cluster = &mut self.clusters[ci];
        let before = cluster.sched.servers_in_use();
        let t0 = Instant::now();
        let outcome = cluster.sched.place(demand);
        self.out.place_ns += ns_since(t0);
        self.out.place_calls += 1;
        self.in_use = self.in_use + cluster.sched.servers_in_use() - before;
        self.out.peak_in_use = self.out.peak_in_use.max(self.in_use);
        match outcome {
            PlacementOutcome::Placed(server) => {
                self.out.accepted += 1;
                self.resident.insert(rec.id, (seq, ci));
                // A zero-length VM never departs, as in the controller.
                if rec.departure > rec.arrival {
                    self.heap.push(Reverse((rec.departure, seq, rec.id)));
                }
                (Step::Placed(server), cluster.capacity)
            }
            PlacementOutcome::Rejected => {
                self.out.rejected += 1;
                (Step::Rejected, ResourceVec::ZERO)
            }
        }
    }
}

/// Replay `requests` through one [`ClusterScheduler`] per cluster in the
/// controller's event order: scheduled departures retire before an
/// arrival, tick or explicit departure at the same time and strictly
/// before a probe or stats query, in `(time, arrival sequence)` order.
/// Probes are measured as `config.probe_mode` asks (untimed here), since
/// the exhaustive fill leaves floating-point state behind that later
/// placements see.
pub fn replay_schedule(
    clusters: &[Cluster],
    config: &ServeConfig,
    windows: usize,
    requests: &[Request<'_>],
    demand: &dyn Fn(&VmRecord) -> VmDemand,
) -> SchedShadow {
    let mut built: Vec<ReplayCluster> = clusters
        .iter()
        .map(|c| {
            let n = ((c.servers.len() as f64 * config.server_fraction).ceil() as usize).max(1);
            let ids: Vec<ServerId> = c.servers.iter().copied().take(n).collect();
            ReplayCluster {
                id: c.id,
                capacity: c.hardware.capacity,
                sched: ClusterScheduler::with_strategy(
                    &ids,
                    c.hardware.capacity,
                    windows,
                    config.heuristic,
                    config.scan,
                ),
            }
        })
        .collect();
    built.sort_by_key(|c| c.id);
    let templates: Vec<VmDemand> = (0..windows)
        .map(|rotation| {
            probe_demand(
                0,
                config.policy.policy,
                config.policy.percentile,
                windows,
                rotation,
            )
        })
        .collect();
    let servers: usize = built.iter().map(|c| c.sched.servers().len()).sum();
    let mut replay = ScheduleReplay {
        out: SchedShadow {
            servers_per_cluster: servers as f64 / built.len() as f64,
            ..SchedShadow::default()
        },
        clusters: built,
        heap: BinaryHeap::new(),
        resident: HashMap::new(),
        seq: 0,
        in_use: 0,
    };

    for &request in requests {
        let step = match request {
            Request::Arrive(rec) => replay.arrive(rec, demand(rec)),
            Request::Depart { vm, now } => {
                replay.drain(now, true);
                let found = match replay.resident.remove(&vm) {
                    Some((_, ci)) => {
                        replay.remove(ci, vm);
                        true
                    }
                    None => false,
                };
                (Step::Departed(found), ResourceVec::ZERO)
            }
            Request::Tick { now } => {
                replay.drain(now, true);
                (Step::Other, ResourceVec::ZERO)
            }
            Request::Stats { now } => {
                replay.drain(now, false);
                (Step::Other, ResourceVec::ZERO)
            }
            Request::Probe { now } => {
                replay.drain(now, false);
                let scheds = replay.clusters.iter_mut().map(|c| &mut c.sched);
                let count = match config.probe_mode {
                    ProbeMode::Estimated => {
                        estimate_probe_capacity(scheds.map(|s| &*s), &templates)
                    }
                    ProbeMode::Exhaustive | ProbeMode::Differential => {
                        measure_probe_capacity(scheds, &templates)
                    }
                };
                (Step::Probe(count), ResourceVec::ZERO)
            }
        };
        replay.out.steps.push(step);
    }
    replay.drain(Timestamp::from_ticks(u64::MAX), true);
    replay.out
}

/// What the accountant shadow replay computed and what it cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct AccountShadow {
    /// `on_placed` calls.
    pub placed: u64,
    /// Time inside `on_placed`.
    pub on_placed_ns: u64,
    /// Time inside `on_early_departure`.
    pub early_ns: u64,
    /// Time inside `advance` and `finish` (the flushes).
    pub flush_ns: u64,
    /// `ViolationAccountant::totals()` after `finish`.
    pub totals: (u64, u64, u64),
    /// Heap high-water mark over the replay, above its starting point.
    pub peak_bytes: u64,
}

impl AccountShadow {
    /// All time inside the accountant.
    pub fn busy_ns(&self) -> u64 {
        self.on_placed_ns + self.early_ns + self.flush_ns
    }
}

/// Replay the controller's accountant calls: `on_placed` for every
/// placement, `on_early_departure` for every explicit departure of a
/// resident VM, `advance` on ticks and stats queries, and `finish`.
/// `steps` are the outcomes the scheduler produced for `requests`.
pub fn replay_account(
    config: &ServeConfig,
    requests: &[Request<'_>],
    steps: &[(Step, ResourceVec)],
    demand: &dyn Fn(&VmRecord) -> VmDemand,
) -> AccountShadow {
    // Where each explicitly departing VM was placed, looked up before the
    // measured region so the lookup table stays out of its memory peak.
    let departing: HashSet<VmId> = requests
        .iter()
        .filter_map(|r| match r {
            Request::Depart { vm, .. } => Some(*vm),
            _ => None,
        })
        .collect();
    let server_of: HashMap<VmId, ServerId> = requests
        .iter()
        .zip(steps)
        .filter_map(|(r, (step, _))| match (r, step) {
            (Request::Arrive(rec), Step::Placed(server)) if departing.contains(&rec.id) => {
                Some((rec.id, *server))
            }
            _ => None,
        })
        .collect();

    let mut out = AccountShadow::default();
    let base = alloc::current_bytes();
    alloc::reset_peak();
    let mut accountant = ViolationAccountant::new(config.sample_every, config.horizon);
    for (&request, &(step, capacity)) in requests.iter().zip(steps) {
        match (request, step) {
            (Request::Arrive(rec), Step::Placed(server)) => {
                let d = demand(rec);
                let t0 = Instant::now();
                accountant.on_placed(server, capacity, rec, &d);
                out.on_placed_ns += ns_since(t0);
                out.placed += 1;
            }
            (Request::Depart { vm, now }, Step::Departed(true)) => {
                let server = server_of[&vm];
                let t0 = Instant::now();
                accountant.on_early_departure(server, vm, now);
                out.early_ns += ns_since(t0);
            }
            (Request::Tick { now } | Request::Stats { now }, _) => {
                let t0 = Instant::now();
                accountant.advance(now);
                out.flush_ns += ns_since(t0);
            }
            _ => {}
        }
    }
    let t0 = Instant::now();
    accountant.finish();
    out.flush_ns += ns_since(t0);
    out.totals = accountant.totals();
    out.peak_bytes = alloc::peak_bytes().saturating_sub(base);
    out
}
