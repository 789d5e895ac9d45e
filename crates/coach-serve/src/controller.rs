//! The single-shard event-driven cluster controller.

use crate::account::{AccountantDump, ViolationAccountant};
use crate::request::{LatencyHistogram, Request, Response, StatsReport};
use crate::store::{Handle, ResidentStore, StoreDump};
use crate::telemetry::ControllerTelemetry;
use crate::wire::Snapshot;
use coach_predict::DemandPrediction;
use coach_sched::{
    ClusterScheduler, ClusterSchedulerDump, PlacementHeuristic, PlacementOutcome, ScanStrategy,
    VmDemand,
};
use coach_sim::{
    estimate_probe_capacity, measure_probe_capacity, probe_demand, PackingResult, PolicyConfig,
    Predictor, ProbeMode, VIOLATION_SAMPLE_EVERY,
};
use coach_telemetry::{Registry, RegistrySnapshot, SpanRing, TelemetryConfig};
use coach_trace::{Cluster, Trace, VmRecord};
use coach_types::prelude::*;
use coach_wire::WireError;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Controller configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// The oversubscription policy this controller admits under.
    pub policy: PolicyConfig,
    /// Fraction of each cluster's servers to build (mirrors the batch
    /// experiment's reduced server budget). Must be in `(0, 1]`.
    pub server_fraction: f64,
    /// Placement heuristic (the paper packs BestFit).
    pub heuristic: PlacementHeuristic,
    /// Candidate-search strategy.
    pub scan: ScanStrategy,
    /// End of the violation-sampling range.
    pub horizon: Timestamp,
    /// Violation-sampling cadence (the batch sweep's two hours by default).
    pub sample_every: SimDuration,
    /// Record admission latency for every `latency_stride`-th arrival (the
    /// clock reads would otherwise bias sub-microsecond placements).
    pub latency_stride: usize,
    /// Record an occupancy-delta timeline so a sharded deployment can
    /// reconstruct the exact global `peak_servers_in_use` (the running peak
    /// of a *sum* across shards is not the sum of per-shard peaks).
    pub occupancy_timeline: bool,
    /// How [`Request::Probe`] measurements are produced: the exhaustive
    /// pack/unpack fill (the batch replay's exact float trajectory), the
    /// read-only incremental estimator over cached per-server summaries, or
    /// both with an equality assertion
    /// ([`ProbeMode::Differential`]).
    pub probe_mode: ProbeMode,
    /// SPSC lane implementation for the sharded worker runtime: the
    /// lock-free ring (default) or the mutex reference lane. Lane choice
    /// never changes decisions — only the cost of moving them.
    pub lanes: LaneKind,
    /// Where a sharded deployment's workers execute: in-process threads
    /// (default) or supervised child processes speaking `coach-wire`
    /// frames over pipes ([`coach_types::runtime::ProcessPool`]). A
    /// single-shard [`Controller`] ignores this. The process backend
    /// re-derives predictions inside each child from an
    /// [`coach_sim::Oracle`] over the same window partition, so it
    /// requires an Oracle-equivalent predictor (the prederived cache is
    /// bit-identical by construction).
    pub backend: WorkerBackend,
    /// How much telemetry the deployment records
    /// ([`coach_telemetry::TelemetryConfig`], PR 9): `Off` (default)
    /// compiles instrumented call sites down to a `None` check,
    /// `CountersOnly` arms the registry, `Full` adds span tracing.
    /// Decisions are bit-identical across all three. A pure runtime knob:
    /// it never crosses the wire (snapshots restore with telemetry Off and
    /// the deployment re-arms).
    pub telemetry: TelemetryConfig,
}

impl ServeConfig {
    /// The configuration matching [`coach_sim::packing_experiment`]'s
    /// semantics for a given policy, budget, and horizon.
    pub fn replaying(policy: PolicyConfig, server_fraction: f64, horizon: Timestamp) -> Self {
        ServeConfig {
            policy,
            server_fraction,
            heuristic: PlacementHeuristic::BestFit,
            scan: ScanStrategy::Indexed,
            horizon,
            sample_every: VIOLATION_SAMPLE_EVERY,
            latency_stride: 8,
            occupancy_timeline: false,
            // Exhaustive keeps even the probe fill's add/remove float dust
            // identical to the batch experiment; a deployment that doesn't
            // need batch bit-identity should switch to `Estimated`.
            probe_mode: ProbeMode::Exhaustive,
            lanes: LaneKind::Ring,
            backend: WorkerBackend::Thread,
            telemetry: TelemetryConfig::Off,
        }
    }
}

/// One cluster as the controller runs it.
#[derive(Debug)]
struct ClusterState {
    id: ClusterId,
    capacity: ResourceVec,
    sched: ClusterScheduler,
}

/// An occupancy delta: `(time, kind, seq)` is the batch replay's exact
/// event-sort key (departures before arrivals at equal times, then arrival
/// sequence), so merging shard timelines reconstructs the global order.
pub(crate) type OccDelta = (u64, u8, u64, i32);

/// Aggregate counters (see [`StatsReport`] for the documented view).
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    accepted: u64,
    rejected: u64,
    departed: u64,
    ticks: u64,
    accepted_core_hours: f64,
    accepted_gb_hours: f64,
}

/// An online, event-driven cluster controller over the indexed
/// [`ClusterScheduler`] and a [`Predictor`].
///
/// Feed it a time-ordered stream of [`Request`]s; departures are managed
/// internally in a binary min-heap keyed by the batch replay's event-sort
/// key, so every event costs O(log resident) — no pre-sorted batch exists
/// anywhere. Driven by [`crate::RequestSource::replaying`], its admission
/// decisions, probe measurements, occupancy peak, and violation rates are
/// **identical** to [`coach_sim::packing_experiment`] on the same workload
/// — bit-exact, floating-point sums included — enforced by differential
/// tests across seeds, policies, and random interleavings.
///
/// The `'a` lifetime ties the controller to its *predictor* only. Request
/// records are copied into the controller's own state where needed (the
/// accountant owns its records since PR 10), so arrivals may borrow from
/// transient buffers — the streaming ingestion path feeds bounded chunks
/// that are dropped as soon as each segment is handled.
pub struct Controller<'a> {
    config: ServeConfig,
    predictor: &'a dyn Predictor,
    tw: TimeWindows,
    /// Sorted by cluster id; arrivals resolve their cluster by binary
    /// search instead of a hash probe.
    clusters: Vec<ClusterState>,
    /// Resident VMs in an arena of struct-of-arrays columns. Generational
    /// handles make the heap's lazy cancellation an integer comparison.
    residents: ResidentStore,
    /// Scheduled departures: `Reverse((time, seq, handle))` pops in the
    /// batch replay's exact departure order (`seq` is unique, so packing a
    /// store handle in the third slot never reorders anything).
    departures: BinaryHeap<Reverse<(Timestamp, u64, u64)>>,
    /// Arrival sequence number (the batch replay's trace index).
    seq: u64,
    probe_templates: Vec<VmDemand>,
    probe_counts: Vec<u64>,
    accountant: ViolationAccountant,
    latency: LatencyHistogram,
    counters: Counters,
    in_use: usize,
    peak_in_use: usize,
    timeline: Vec<OccDelta>,
    /// Armed telemetry, or `None` under [`TelemetryConfig::Off`] — the
    /// guarded fast path every instrumented site branches on.
    telemetry: Option<Box<ControllerTelemetry>>,
}

impl<'a> Controller<'a> {
    /// A controller over explicit clusters. `server_fraction` of each
    /// cluster's servers are built, exactly as the batch experiment does.
    ///
    /// # Panics
    ///
    /// Panics if `clusters` is empty or `server_fraction` is not in
    /// `(0, 1]`.
    pub fn new(clusters: &[Cluster], predictor: &'a dyn Predictor, config: ServeConfig) -> Self {
        assert!(!clusters.is_empty(), "need at least one cluster");
        assert!(
            config.server_fraction > 0.0 && config.server_fraction <= 1.0,
            "server fraction in (0, 1]"
        );
        let tw = predictor.time_windows();
        let mut states: Vec<ClusterState> = clusters
            .iter()
            .map(|cluster| {
                let n = ((cluster.servers.len() as f64 * config.server_fraction).ceil() as usize)
                    .max(1);
                let ids: Vec<ServerId> = cluster.servers.iter().copied().take(n).collect();
                ClusterState {
                    id: cluster.id,
                    capacity: cluster.hardware.capacity,
                    sched: ClusterScheduler::with_strategy(
                        &ids,
                        cluster.hardware.capacity,
                        tw.count(),
                        config.heuristic,
                        config.scan,
                    ),
                }
            })
            .collect();
        states.sort_by_key(|c| c.id);
        let probe_templates = (0..tw.count())
            .map(|rotation| {
                probe_demand(
                    0,
                    config.policy.policy,
                    config.policy.percentile,
                    tw.count(),
                    rotation,
                )
            })
            .collect();
        let mut controller = Controller {
            accountant: ViolationAccountant::new(config.sample_every, config.horizon),
            config,
            predictor,
            tw,
            clusters: states,
            residents: ResidentStore::new(),
            departures: BinaryHeap::new(),
            seq: 0,
            probe_templates,
            probe_counts: Vec::new(),
            latency: LatencyHistogram::new(),
            counters: Counters::default(),
            in_use: 0,
            peak_in_use: 0,
            timeline: Vec::new(),
            telemetry: None,
        };
        if !config.telemetry.is_off() {
            // Standalone arming with a fresh registry; a sharded deployment
            // re-arms each shard onto its shared registry right after
            // construction (`enable_telemetry`), before any events flow.
            controller.enable_telemetry(
                config.telemetry,
                std::sync::Arc::new(Registry::new()),
                0,
                Instant::now(),
            );
        }
        controller
    }

    /// A controller over a trace's clusters, configured to replay it with
    /// the batch experiment's semantics.
    pub fn replaying(
        trace: &Trace,
        predictor: &'a dyn Predictor,
        policy: PolicyConfig,
        server_fraction: f64,
    ) -> Self {
        Controller::new(
            &trace.clusters,
            predictor,
            ServeConfig::replaying(policy, server_fraction, trace.horizon),
        )
    }

    /// The window partition in use.
    pub fn time_windows(&self) -> TimeWindows {
        self.tw
    }

    /// Handle one request. Requests must arrive in non-decreasing time
    /// order.
    pub fn handle(&mut self, request: Request<'_>) -> Response {
        // Broadcast tokens get a span each (they are rare relative to
        // arrivals); arrival spans ride the latency-stride sampling inside
        // `admit`, where the clock reads are already paid.
        let span = match &self.telemetry {
            Some(t) if t.spans_armed() && !matches!(request, Request::Arrive(_)) => {
                let name = match request {
                    Request::Arrive(_) => unreachable!("excluded above"),
                    Request::Depart { .. } => "serve.depart",
                    Request::Tick { .. } => "serve.tick",
                    Request::Probe { .. } => "serve.probe",
                    Request::Stats { .. } => "serve.stats",
                };
                Some((name, SpanRing::begin()))
            }
            _ => None,
        };
        let response = self.dispatch(request);
        if let Some((name, start)) = span {
            if let Some(t) = self.telemetry.as_deref_mut() {
                t.end_span(name, start);
            }
        }
        response
    }

    /// The un-instrumented event loop body.
    fn dispatch(&mut self, request: Request<'_>) -> Response {
        match request {
            Request::Arrive(rec) => self.handle_arrival(rec),
            Request::Depart { vm, now } => self.handle_departure(vm, now),
            Request::Tick { now } => {
                self.drain_departures(now, true);
                self.accountant.advance(now);
                self.counters.ticks += 1;
                if let Some(t) = &self.telemetry {
                    t.ticks.inc();
                }
                Response::Ticked
            }
            Request::Probe { now } => {
                // Batch semantics: a probe at `now` observes every event
                // strictly before it (a departure at exactly `now` is the
                // crossing event, applied after the measurement).
                self.drain_departures(now, false);
                let count = match self.config.probe_mode {
                    ProbeMode::Exhaustive => measure_probe_capacity(
                        self.clusters.iter_mut().map(|c| &mut c.sched),
                        &self.probe_templates,
                    ),
                    ProbeMode::Estimated => estimate_probe_capacity(
                        self.clusters.iter().map(|c| &c.sched),
                        &self.probe_templates,
                    ),
                    ProbeMode::Differential => {
                        let estimated = estimate_probe_capacity(
                            self.clusters.iter().map(|c| &c.sched),
                            &self.probe_templates,
                        );
                        let exhaustive = measure_probe_capacity(
                            self.clusters.iter_mut().map(|c| &mut c.sched),
                            &self.probe_templates,
                        );
                        assert_eq!(
                            estimated, exhaustive,
                            "probe estimator diverged from the exhaustive fill at {now:?}"
                        );
                        exhaustive
                    }
                };
                self.probe_counts.push(count);
                if let Some(t) = &self.telemetry {
                    t.probes.inc();
                    t.probe_capacity.add(count);
                }
                Response::ProbeCapacity(count)
            }
            Request::Stats { now } => {
                self.drain_departures(now, false);
                self.accountant.advance(now);
                Response::Stats(self.stats(now))
            }
        }
    }

    fn handle_arrival(&mut self, rec: &VmRecord) -> Response {
        let prediction = self.predictor.predict(rec, self.config.policy.percentile);
        self.admit(rec, prediction)
    }

    /// Admit a segment of arrivals, deriving every demand prediction
    /// through the predictor's batch entry point
    /// ([`Predictor::predict_batch`]) before the first placement — the
    /// sharded dispatcher's cold path, one call per routed segment.
    /// Responses come back in input order.
    ///
    /// Decision-identical to feeding each arrival through
    /// [`Controller::handle`]: predictions depend only on the VM record
    /// (and `predict_batch` must equal the per-item loop), so deriving them
    /// ahead of the interleaved departure drains changes nothing.
    pub fn handle_arrivals(&mut self, recs: &[&VmRecord]) -> Vec<Response> {
        let predictions = self
            .predictor
            .predict_batch(recs, self.config.policy.percentile);
        recs.iter()
            .zip(predictions)
            .map(|(rec, prediction)| self.admit(rec, prediction))
            .collect()
    }

    fn admit(&mut self, rec: &VmRecord, prediction: Option<DemandPrediction>) -> Response {
        let t = rec.arrival;
        // Departures sort before arrivals at equal timestamps (free before
        // alloc), exactly as the batch replay orders its events.
        self.drain_departures(t, true);
        let seq = self.seq;
        self.seq += 1;

        let ci = self
            .clusters
            .binary_search_by_key(&rec.cluster, |c| c.id)
            .expect("arrival for a cluster this controller owns");
        let demand = VmDemand::from_prediction(
            rec.id,
            rec.demand(),
            self.config.policy.policy,
            prediction.as_ref(),
        );

        let sample_latency = self.config.latency_stride > 0
            && (seq as usize).is_multiple_of(self.config.latency_stride);
        let cluster = &mut self.clusters[ci];
        let in_use_before = cluster.sched.servers_in_use();
        let (outcome, elapsed_ns, t0_sampled) = if sample_latency {
            let t0 = Instant::now();
            let outcome = cluster.sched.place(demand.clone());
            (outcome, Some(t0.elapsed().as_nanos() as u64), Some(t0))
        } else {
            (cluster.sched.place(demand.clone()), None, None)
        };
        match outcome {
            PlacementOutcome::Placed(server) => {
                self.counters.accepted += 1;
                let rh = rec.resource_hours();
                self.counters.accepted_core_hours += rh.cpu();
                self.counters.accepted_gb_hours += rh.memory();
                let handle = self.residents.insert(rec.id, ci as u32, server, &demand);
                // A zero-length VM's departure event precedes its arrival
                // in the batch sort and no-ops there; never scheduling it
                // preserves that behavior.
                if rec.departure > rec.arrival {
                    self.departures
                        .push(Reverse((rec.departure, seq, handle.to_raw())));
                }
                self.accountant
                    .on_placed(server, cluster.capacity, rec, &demand);
            }
            PlacementOutcome::Rejected => self.counters.rejected += 1,
        }
        if let Some(ns) = elapsed_ns {
            self.latency.record_ns(ns);
        }
        if let Some(tel) = self.telemetry.as_deref_mut() {
            match outcome {
                PlacementOutcome::Placed(_) => tel.accepted.inc(),
                PlacementOutcome::Rejected => tel.rejected.inc(),
            }
            if let Some(ns) = elapsed_ns {
                tel.admission.record_ns(ns);
                tel.admit_span(t0_sampled.expect("timed when sampled"), ns);
            }
        }
        self.note_occupancy(ci, in_use_before, t.ticks(), 1, seq);
        Response::Admission {
            vm: rec.id,
            outcome,
        }
    }

    fn handle_departure(&mut self, vm: VmId, now: Timestamp) -> Response {
        self.drain_departures(now, true);
        let found = match self.residents.remove_by_id(vm) {
            Some(row) => {
                let ci = row.cluster as usize;
                // The store remembers where the VM landed, so the early
                // departure needs no scheduler lookup.
                self.accountant.on_early_departure(row.server, vm, now);
                let before = self.clusters[ci].sched.servers_in_use();
                self.clusters[ci].sched.remove(vm);
                self.counters.departed += 1;
                if let Some(t) = &self.telemetry {
                    t.departed.inc();
                }
                self.note_occupancy(ci, before, now.ticks(), 0, u64::MAX);
                true
            }
            None => false,
        };
        Response::Departed { vm, found }
    }

    /// Pop and apply scheduled departures up to `t` (inclusive when
    /// `inclusive`), in the batch replay's `(time, seq)` order.
    fn drain_departures(&mut self, t: Timestamp, inclusive: bool) {
        while let Some(&Reverse((when, seq, handle_raw))) = self.departures.peek() {
            if when > t || (!inclusive && when == t) {
                break;
            }
            self.departures.pop();
            // Lazily cancelled (stale generation) if an explicit departure
            // already removed it.
            if let Some(row) = self.residents.remove(Handle::from_raw(handle_raw)) {
                let ci = row.cluster as usize;
                let before = self.clusters[ci].sched.servers_in_use();
                self.clusters[ci].sched.remove(row.vm);
                self.counters.departed += 1;
                if let Some(t) = &self.telemetry {
                    t.departed.inc();
                }
                self.note_occupancy(ci, before, when.ticks(), 0, seq);
            }
        }
    }

    /// Fold one cluster's occupancy change into the running total, the
    /// peak, and (if enabled) the delta timeline.
    fn note_occupancy(&mut self, ci: usize, before: usize, ticks: u64, kind: u8, seq: u64) {
        let after = self.clusters[ci].sched.servers_in_use();
        if after == before {
            return;
        }
        self.in_use = self.in_use + after - before;
        self.peak_in_use = self.peak_in_use.max(self.in_use);
        if self.config.occupancy_timeline {
            self.timeline
                .push((ticks, kind, seq, after as i32 - before as i32));
        }
    }

    /// Snapshot the controller's counters (the [`Request::Stats`] payload).
    pub fn stats(&self, now: Timestamp) -> StatsReport {
        let (samples, cpu, mem) = self.accountant.totals();
        StatsReport {
            now,
            accepted: self.counters.accepted,
            rejected: self.counters.rejected,
            departed: self.counters.departed,
            resident_vms: self.residents.len(),
            servers_in_use: self.in_use,
            peak_servers_in_use: self.peak_in_use,
            accepted_core_hours: self.counters.accepted_core_hours,
            accepted_gb_hours: self.counters.accepted_gb_hours,
            probe_measurements: self.probe_counts.len() as u64,
            probe_capacity_total: self.probe_counts.iter().sum(),
            violation_samples: samples,
            cpu_violations: cpu,
            mem_violations: mem,
            ticks: self.counters.ticks,
            admission_p50_us: self.latency.quantile_us(0.50),
            admission_p99_us: self.latency.quantile_us(0.99),
            // A single controller has no worker lanes; the sharded
            // dispatcher overwrites these at merge time.
            ..StatsReport::default()
        }
    }

    /// The admission-latency histogram.
    pub fn latency(&self) -> &LatencyHistogram {
        &self.latency
    }

    /// Arm (or re-arm) telemetry: register this controller's series on
    /// `registry` under `(policy, shard)` labels, and allocate the span
    /// ring in [`TelemetryConfig::Full`] mode. `Off` disarms. A sharded
    /// deployment calls this per shard with its shared registry and
    /// timeline origin; child process workers arm on a
    /// `WireCmd::Telemetry` frame with a private registry.
    pub fn enable_telemetry(
        &mut self,
        mode: TelemetryConfig,
        registry: std::sync::Arc<Registry>,
        shard: u32,
        origin: Instant,
    ) {
        self.config.telemetry = mode;
        self.telemetry = if mode.is_off() {
            None
        } else {
            Some(ControllerTelemetry::new(
                mode,
                registry,
                self.config.policy.label,
                shard,
                origin,
            ))
        };
    }

    /// The registry this controller records into, if telemetry is armed.
    pub fn telemetry_registry(&self) -> Option<std::sync::Arc<Registry>> {
        self.telemetry
            .as_ref()
            .map(|t| std::sync::Arc::clone(&t.registry))
    }

    /// The controller's span ring (armed and in `Full` mode only).
    pub fn telemetry_spans(&self) -> Option<&SpanRing> {
        self.telemetry.as_ref().and_then(|t| t.spans.as_ref())
    }

    /// Mirror span-ring overflow drops into their counter (called at
    /// export barriers so drops are visible in the registry).
    pub fn sync_telemetry(&mut self) {
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.sync_span_drops();
        }
    }

    /// Drain the registry delta accumulated since the last drain — what a
    /// child shard worker ships back for a `WireCmd::Telemetry` barrier.
    /// `None` when telemetry is off.
    pub(crate) fn drain_telemetry(&mut self) -> Option<RegistrySnapshot> {
        self.telemetry
            .as_deref_mut()
            .map(ControllerTelemetry::drain)
    }

    /// Retire every remaining scheduled departure, flush the accountant to
    /// the horizon, and assemble the batch experiment's result struct.
    ///
    /// Idempotent; a sharded deployment calls it per shard and merges.
    pub fn finalize(&mut self) -> PackingResult {
        self.drain_departures(Timestamp::from_ticks(u64::MAX), true);
        self.accountant.finish();
        self.stats(self.config.horizon)
            .to_packing_result(self.config.policy.label)
    }

    /// The configuration this controller runs under.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Switch how subsequent [`Request::Probe`]s are measured — a live
    /// reconfiguration (e.g. flip an exhaustive-probing controller to the
    /// read-only estimator once its differential window ends).
    pub fn set_probe_mode(&mut self, mode: ProbeMode) {
        self.config.probe_mode = mode;
    }

    /// Per-measurement probe counts (a sharded deployment sums these
    /// elementwise across shards).
    pub(crate) fn probe_counts(&self) -> &[u64] {
        &self.probe_counts
    }

    /// Drain the occupancy-delta timeline recorded since the last call
    /// (empty unless [`ServeConfig::occupancy_timeline`] was set). The
    /// sharded dispatcher accumulates these drains per shard, so each
    /// snapshot ships only the deltas since the previous synchronization.
    pub(crate) fn take_timeline(&mut self) -> Vec<OccDelta> {
        std::mem::take(&mut self.timeline)
    }

    /// The cluster ids this controller owns, in sorted order.
    pub fn cluster_ids(&self) -> impl Iterator<Item = ClusterId> + '_ {
        self.clusters.iter().map(|c| c.id)
    }

    /// The summed guaranteed portion across every resident VM's admitted
    /// demand — an O(residents) fold over one contiguous resident-store
    /// column, without touching the schedulers.
    pub fn resident_guaranteed(&self) -> ResourceVec {
        self.residents.guaranteed_total()
    }

    /// Serialize the full decision-bearing state into a versioned
    /// [`Snapshot`] frame — schedulers, resident store, departure heap,
    /// accountant, counters, latency histogram, and the undrained
    /// occupancy timeline, plus an embedded table of every [`VmRecord`]
    /// the accountant still references (so the snapshot restores without
    /// the original trace in hand).
    ///
    /// Non-destructive: the controller keeps serving, and snapshotting
    /// twice at the same point yields identical bytes. Every accumulated
    /// `f64` travels as raw IEEE-754 bits, so a restored controller's
    /// future decisions are bit-identical to this one's.
    pub fn snapshot(&self) -> Snapshot {
        // BinaryHeap iteration order is unspecified; the sorted vector is
        // the canonical wire form (and `BinaryHeap::from` on restore pops
        // it in the identical order — entries are unique).
        let mut departures: Vec<(Timestamp, u64, u64)> = self
            .departures
            .iter()
            .map(|Reverse(entry)| *entry)
            .collect();
        departures.sort_unstable();
        let (buckets, latency_count, latency_sum_ns) = self.latency.parts();
        let dump = ControllerDump {
            config: self.config,
            windows_per_day: self.tw.count() as u32,
            clusters: self
                .clusters
                .iter()
                .map(|c| (c.id, c.capacity, c.sched.dump()))
                .collect(),
            store: self.residents.dump(),
            departures,
            seq: self.seq,
            probe_counts: self.probe_counts.clone(),
            accountant: self.accountant.dump(),
            latency_buckets: *buckets,
            latency_count,
            latency_sum_ns,
            accepted: self.counters.accepted,
            rejected: self.counters.rejected,
            departed: self.counters.departed,
            ticks: self.counters.ticks,
            accepted_core_hours: self.counters.accepted_core_hours,
            accepted_gb_hours: self.counters.accepted_gb_hours,
            in_use: self.in_use,
            peak_in_use: self.peak_in_use,
            timeline: self.timeline.clone(),
            records: self
                .accountant
                .referenced_records()
                .into_iter()
                .cloned()
                .collect(),
        };
        if let Some(t) = &self.telemetry {
            let t0 = Instant::now();
            let snapshot = Snapshot::seal(&dump);
            let secs = t0.elapsed().as_secs_f64();
            if secs > 0.0 {
                t.encode_bps.set(snapshot.len() as f64 / secs);
            }
            return snapshot;
        }
        Snapshot::seal(&dump)
    }

    /// Rebuild a controller from a [`Snapshot`], resuming service exactly
    /// where [`Controller::snapshot`] left off. Each accountant entry's
    /// record reference is re-resolved through `resolve` — a trace lookup
    /// on the parent side, or the snapshot's own leaked
    /// [`Snapshot::records`] table inside a process worker.
    ///
    /// Structural problems in the bytes (truncation, bad tags, a window
    /// partition that disagrees with `predictor`, an out-of-range server
    /// fraction, a zero violation-sampling cadence, a scheduler dump with
    /// no servers, a repeated server or VM, or mismatched window vectors)
    /// surface as `Err(WireError)`.
    ///
    /// # Panics
    ///
    /// Panics if a structurally valid dump is semantically inconsistent:
    /// `resolve` cannot produce a referenced record, a VM occupies two
    /// resident slots, or the accountant names a server twice.
    pub fn restore<'r>(
        predictor: &'a dyn Predictor,
        snapshot: &Snapshot,
        resolve: impl Fn(VmId) -> Option<&'r VmRecord>,
    ) -> Result<Controller<'a>, WireError> {
        let dump: ControllerDump = coach_wire::open_frame(snapshot.bytes())?;
        let tw = predictor.time_windows();
        if dump.windows_per_day as usize != tw.count() {
            return Err(WireError::Invalid {
                context: "snapshot window partition",
            });
        }
        if !(dump.config.server_fraction > 0.0 && dump.config.server_fraction <= 1.0) {
            return Err(WireError::Invalid {
                context: "snapshot server fraction",
            });
        }
        if dump.config.sample_every.ticks() == 0 {
            return Err(WireError::Invalid {
                context: "snapshot sample cadence",
            });
        }
        if dump.clusters.is_empty() || dump.clusters.windows(2).any(|w| w[0].0 >= w[1].0) {
            return Err(WireError::Invalid {
                context: "snapshot cluster set",
            });
        }
        let config = dump.config;
        let probe_templates = (0..tw.count())
            .map(|rotation| {
                probe_demand(
                    0,
                    config.policy.policy,
                    config.policy.percentile,
                    tw.count(),
                    rotation,
                )
            })
            .collect();
        // Restore the accountant before the schedulers: its dump is then
        // freed before they are built, which keeps restore's peak memory down.
        let accountant = ViolationAccountant::from_dump(
            config.sample_every,
            config.horizon,
            dump.accountant,
            &resolve,
        );
        let clusters = dump
            .clusters
            .into_iter()
            .map(|(id, capacity, sched)| {
                Ok(ClusterState {
                    id,
                    capacity,
                    sched: ClusterScheduler::from_dump(sched).map_err(|_| WireError::Invalid {
                        context: "snapshot scheduler",
                    })?,
                })
            })
            .collect::<Result<Vec<_>, WireError>>()?;
        Ok(Controller {
            accountant,
            config,
            predictor,
            tw,
            clusters,
            residents: ResidentStore::from_dump(dump.store),
            departures: BinaryHeap::from(
                dump.departures.into_iter().map(Reverse).collect::<Vec<_>>(),
            ),
            seq: dump.seq,
            probe_templates,
            probe_counts: dump.probe_counts,
            latency: LatencyHistogram::from_parts(
                dump.latency_buckets,
                dump.latency_count,
                dump.latency_sum_ns,
            ),
            counters: Counters {
                accepted: dump.accepted,
                rejected: dump.rejected,
                departed: dump.departed,
                ticks: dump.ticks,
                accepted_core_hours: dump.accepted_core_hours,
                accepted_gb_hours: dump.accepted_gb_hours,
            },
            in_use: dump.in_use,
            peak_in_use: dump.peak_in_use,
            timeline: dump.timeline,
            // Telemetry never crosses the wire (the decoded config is Off);
            // the restoring deployment re-arms via `enable_telemetry`.
            telemetry: None,
        })
    }
}

/// The controller's wire image: everything [`Controller::snapshot`]
/// serializes, in one flat struct the codec walks field by field.
/// `probe_templates` is deliberately absent — it is a pure function of the
/// config and window partition, rebuilt on restore.
#[derive(Debug, Clone)]
pub(crate) struct ControllerDump {
    pub config: ServeConfig,
    /// The predictor's window partition, pinned so a restore under a
    /// mismatched predictor fails instead of silently re-bucketing.
    pub windows_per_day: u32,
    /// `(id, hardware capacity, scheduler state)` per cluster, in the
    /// controller's sorted-by-id order.
    pub clusters: Vec<(ClusterId, ResourceVec, ClusterSchedulerDump)>,
    pub store: StoreDump,
    /// The departure heap's entries, sorted ascending (the canonical
    /// form; the heap rebuilds losslessly because pop order is total).
    pub departures: Vec<(Timestamp, u64, u64)>,
    pub seq: u64,
    pub probe_counts: Vec<u64>,
    pub accountant: AccountantDump,
    pub latency_buckets: [u64; 64],
    pub latency_count: u64,
    pub latency_sum_ns: u64,
    pub accepted: u64,
    pub rejected: u64,
    pub departed: u64,
    pub ticks: u64,
    pub accepted_core_hours: f64,
    pub accepted_gb_hours: f64,
    pub in_use: usize,
    pub peak_in_use: usize,
    pub timeline: Vec<OccDelta>,
    /// Every record the accountant references, deduplicated — the
    /// self-contained table a process worker leaks and resolves against.
    pub records: Vec<VmRecord>,
}

impl std::fmt::Debug for Controller<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Controller")
            .field("clusters", &self.clusters.len())
            .field("resident_vms", &self.residents.len())
            .field("accepted", &self.counters.accepted)
            .field("rejected", &self.counters.rejected)
            .finish_non_exhaustive()
    }
}

/// Replay a trace through a single-shard [`Controller`] — the online
/// drop-in for [`coach_sim::packing_experiment`], producing an identical
/// [`PackingResult`].
pub fn serve_trace(
    trace: &Trace,
    predictor: &dyn Predictor,
    policy: PolicyConfig,
    server_fraction: f64,
) -> PackingResult {
    let mut controller = Controller::replaying(trace, predictor, policy, server_fraction);
    for request in crate::RequestSource::replaying(trace) {
        controller.handle(request);
    }
    controller.finalize()
}
