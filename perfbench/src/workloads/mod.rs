//! The three workloads and what they share: options, the iteration
//! budget, the closed serving loop, and the per-layer ledger.

mod churn_stream;
mod large_cluster;
mod paper_cadence;

use crate::layers::{AccountShadow, DeriveCounts, SchedShadow, Step};
use crate::metrics::{median, metric, quantile, ratio, Metric, Report};
use coach_bench::alloc;
use coach_serve::{Controller, Request, RequestSource, Response, Snapshot, StatsReport};
use coach_sim::{PackingResult, PolicyConfig, Predictor};
use coach_trace::{Cluster, Trace};
use coach_types::runtime::LaneStats;
use std::time::Instant;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop at the paper's serving configuration.
    PaperCadence,
    /// Closed loop over one cluster of more than 10k servers.
    LargeCluster,
    /// Sharded streaming run over a trace that is never materialized.
    ChurnStream,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperCadence,
        Workload::LargeCluster,
        Workload::ChurnStream,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperCadence => "paper-cadence",
            Workload::LargeCluster => "large-cluster",
            Workload::ChurnStream => "churn-stream",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Setup plus serving time of one iteration at full scale on a
    /// 2-core container, which turns `--seconds` into a trace count.
    fn nominal_iteration_s(self) -> f64 {
        match self {
            Workload::PaperCadence => 3.0,
            Workload::LargeCluster => 8.5,
            Workload::ChurnStream => 3.4,
        }
    }

    /// Traces a run of `seconds` serves: a fixed count, so that every run
    /// of a seed measures the same work, and never fewer than
    /// [`MIN_ITERATIONS`].
    pub fn iterations(self, seconds: f64) -> usize {
        let wanted = (seconds / self.nominal_iteration_s()).ceil() as usize;
        wanted.clamp(MIN_ITERATIONS, MAX_ITERATIONS)
    }
}

/// Input size: the benchmark's own, or a tiny one for the smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` measures.
    Full,
    /// A few thousand VMs: exercises every path in well under a second.
    Tiny,
}

/// One run's options.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// About how long setup plus serving should take (see
    /// [`Workload::iterations`]).
    pub seconds: f64,
    /// Per-layer run instead of the end-to-end one.
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
}

/// Every run sets up and serves at least this many independent inputs,
/// so `setup_s` is a median and throughput pools several traces.
pub const MIN_ITERATIONS: usize = 3;
const MAX_ITERATIONS: usize = 64;

/// Fraction of each cluster's servers the controller builds (the batch
/// experiment's reduced server budget, which makes rejections possible).
pub const SERVER_FRACTION: f64 = 0.8;

/// The policy every workload admits under: Coach at P95.
pub fn coach_policy() -> PolicyConfig {
    PolicyConfig::paper_set()
        .into_iter()
        .find(|p| p.label == "Coach")
        .expect("the paper set has Coach")
}

/// The seed of iteration `i`'s input: a SplitMix64 step, so iterations
/// (and neighbouring run seeds) get unrelated traces.
pub fn iteration_seed(seed: u64, i: usize) -> u64 {
    let mut z = seed
        .wrapping_mul(0x100_0000_01B3)
        .wrapping_add((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Run one workload and report its metrics.
pub fn run(opts: &Options) -> Report {
    let mut acc = Accumulator::default();
    for i in 0..opts.workload.iterations(opts.seconds) {
        let seed = iteration_seed(opts.seed, i);
        let outcome = match opts.workload {
            Workload::PaperCadence => paper_cadence::iteration(seed, opts, &mut acc),
            Workload::LargeCluster => large_cluster::iteration(seed, opts, &mut acc),
            Workload::ChurnStream => churn_stream::iteration(seed, opts, &mut acc),
        };
        acc.finish_iteration(outcome);
    }
    acc.report(opts)
}

/// What one iteration's reference checks and shadow replays found.
pub type Checks = Vec<(&'static str, Result<(), String>)>;

/// `Ok` when `a == b`, else the two values.
pub fn same<T: PartialEq + std::fmt::Debug>(a: T, b: T) -> Result<(), String> {
    if a == b {
        Ok(())
    } else {
        Err(format!("{a:?} != {b:?}"))
    }
}

/// Everything one run measured, summed over its iterations.
#[derive(Debug, Default)]
pub struct Accumulator {
    /// Per-iteration setup seconds.
    pub setup_s: Vec<f64>,
    /// Untraced serving seconds, summed.
    pub serve_s: f64,
    /// Untraced placements, summed.
    pub accepted: u64,
    /// Untraced arrivals, summed.
    pub arrivals: u64,
    /// Per-arrival latency samples, nanoseconds (untraced).
    pub latency_ns: Vec<u64>,
    /// Per-iteration serving heap high-water mark ÷ VMs.
    pub peak_per_vm: Vec<f64>,
    /// Per-iteration mean probe capacity (pushed by each workload).
    pub probe_capacity: Vec<f64>,
    /// Per-iteration CPU and memory violation rates (untraced).
    pub violation_rates: Vec<(f64, f64)>,
    /// Requests submitted in this iteration (all serving passes).
    pub iteration_requests: u64,
    /// Requests submitted over the whole run.
    pub attempted: u64,
    /// Requests of failed iterations.
    pub failed: u64,
    /// Named check outcomes over all iterations (first failure kept).
    pub checks: Vec<(&'static str, Result<(), String>)>,
    /// VMs per iteration, servers per cluster, clusters, shards.
    pub shape: Shape,
    /// The per-layer ledger (traced runs).
    pub ledger: Ledger,
    /// Layers a workload cannot measure from outside, with the reason.
    pub unmeasured: Vec<(&'static str, &'static str)>,
}

/// The size of a workload's inputs, for the diagnostics.
#[derive(Debug, Default, Clone, Copy)]
pub struct Shape {
    /// VMs in the last iteration's trace.
    pub vms: usize,
    /// Mean servers per cluster in the last iteration's trace.
    pub servers_per_cluster: f64,
    /// Clusters.
    pub clusters: usize,
    /// Shard workers.
    pub shards: usize,
}

impl Shape {
    /// The shape of `clusters` holding `vms` VMs, served by `shards`.
    pub fn of(clusters: &[Cluster], vms: usize, shards: usize) -> Shape {
        Shape {
            vms,
            servers_per_cluster: clusters.iter().map(|c| c.servers.len()).sum::<usize>() as f64
                / clusters.len().max(1) as f64,
            clusters: clusters.len(),
            shards,
        }
    }
}

impl Accumulator {
    /// Record a finished untraced serving pass.
    pub fn serving(
        &mut self,
        setup_s: f64,
        serve_s: f64,
        result: &PackingResult,
        peak: u64,
        vms: usize,
    ) {
        self.setup_s.push(setup_s);
        self.serve_s += serve_s;
        self.accepted += result.accepted;
        self.arrivals += result.accepted + result.rejected;
        self.peak_per_vm.push(peak as f64 / vms.max(1) as f64);
        self.violation_rates
            .push((result.cpu_violation_rate, result.mem_violation_rate));
    }

    fn finish_iteration(&mut self, checks: Checks) {
        self.attempted += self.iteration_requests;
        if checks.iter().any(|(_, r)| r.is_err()) {
            self.failed += self.iteration_requests;
        }
        self.iteration_requests = 0;
        for (name, outcome) in checks {
            match self.checks.iter_mut().find(|(n, _)| *n == name) {
                Some((_, kept)) => {
                    if kept.is_ok() {
                        *kept = outcome;
                    }
                }
                None => self.checks.push((name, outcome)),
            }
        }
    }

    fn report(mut self, opts: &Options) -> Report {
        self.latency_ns.sort_unstable();
        let lat = |q: f64| {
            if self.latency_ns.is_empty() {
                0.0
            } else {
                quantile(&self.latency_ns, q) as f64 / 1000.0
            }
        };
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        let cpu: Vec<f64> = self.violation_rates.iter().map(|r| r.0).collect();
        let mem: Vec<f64> = self.violation_rates.iter().map(|r| r.1).collect();
        let metrics = if opts.trace {
            self.ledger.metrics()
        } else {
            vec![
                metric(
                    "placed_per_s",
                    ratio(self.accepted as f64, self.serve_s),
                    "VMs/s",
                ),
                metric("admit_p50_us", lat(0.50), "us"),
                metric("admit_p99_us", lat(0.99), "us"),
                metric("setup_s", median(&self.setup_s), "s"),
                metric("peak_bytes_per_vm", median(&self.peak_per_vm), "B/VM"),
                metric(
                    "accepted_share",
                    ratio(self.accepted as f64, self.arrivals as f64),
                    "ratio",
                ),
                metric("probe_capacity", mean(&self.probe_capacity), "VMs"),
            ]
        };
        let mut diagnostics = vec![
            metric("iterations", self.setup_s.len() as f64, "count"),
            metric("vms_per_iteration", self.shape.vms as f64, "count"),
            metric("clusters", self.shape.clusters as f64, "count"),
            metric(
                "servers_per_cluster",
                self.shape.servers_per_cluster,
                "count",
            ),
            metric("shards", self.shape.shards as f64, "count"),
        ];
        if !opts.trace {
            diagnostics.extend([
                metric("serve_s", self.serve_s, "s"),
                metric("admit_p999_us", lat(0.999), "us"),
                metric("admit_samples", self.latency_ns.len() as f64, "count"),
                metric("cpu_violation_rate", mean(&cpu), "ratio"),
                metric("mem_violation_rate", mean(&mem), "ratio"),
            ]);
        }
        Report {
            attempted: self.attempted,
            failed: self.failed,
            checks: self
                .checks
                .into_iter()
                .map(|(n, r)| (n.to_string(), r))
                .collect(),
            metrics,
            diagnostics,
            unmeasured: if opts.trace {
                self.unmeasured
            } else {
                Vec::new()
            },
        }
    }
}

/// Per-layer costs summed over a traced run's iterations.
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    /// Records (or requests) the ingest layer produced.
    pub ingest_records: u64,
    /// Time producing them.
    pub ingest_ns: u64,
    /// Trace generation or streaming-generator construction time.
    pub build_ns: u64,
    /// Derive-layer counts.
    pub derive: DeriveCounts,
    /// Derive time spent while serving (the rest ran in setup).
    pub derive_serving_ns: u64,
    /// `Oracle::envelope_counters` (hits, misses).
    pub envelope: (u64, u64),
    /// Harness spans around `Controller::handle` and `finalize`.
    pub spans: Spans,
    /// `ClusterScheduler::place` calls in the scheduler replay.
    pub place_calls: u64,
    /// Time inside `ClusterScheduler::place`.
    pub place_ns: u64,
    /// Time inside `ClusterScheduler::remove`.
    pub remove_ns: u64,
    /// Rejected placements.
    pub rejected: u64,
    /// Servers per cluster.
    pub servers_per_cluster: f64,
    /// Accountant shadow totals.
    pub account: AccountShadow,
    /// Dispatcher time not spent ingesting.
    pub route_ns: u64,
    /// Broadcast tokens sent to shard lanes.
    pub tokens: u64,
    /// Lane counters.
    pub lanes: LaneStats,
    /// Snapshot bytes, encode and restore time.
    pub snapshot: SnapshotCost,
    /// Traced placements and wall nanoseconds.
    pub traced: (u64, u64),
    /// Untraced placements and wall nanoseconds.
    pub untraced: (u64, u64),
}

impl Ledger {
    /// Fold a derive wrapper's counts and its Oracle's envelope counters
    /// in; `serving` when the derivation ran inside the serving phase
    /// rather than in setup.
    pub fn derived(&mut self, counts: DeriveCounts, envelope: (u64, u64), serving: bool) {
        self.derive.calls += counts.calls;
        self.derive.vms += counts.vms;
        self.derive.busy_ns += counts.busy_ns;
        self.derive.repeats += counts.repeats;
        if serving {
            self.derive_serving_ns += counts.busy_ns;
        }
        self.envelope.0 += envelope.0;
        self.envelope.1 += envelope.1;
    }

    /// Fold a scheduler and an accountant shadow replay in.
    pub fn shadows(&mut self, sched: &SchedShadow, account: &AccountShadow) {
        self.place_calls += sched.place_calls;
        self.place_ns += sched.place_ns;
        self.remove_ns += sched.remove_ns;
        self.rejected += sched.rejected;
        self.servers_per_cluster = sched.servers_per_cluster;
        self.account.placed += account.placed;
        self.account.on_placed_ns += account.on_placed_ns;
        self.account.early_ns += account.early_ns;
        self.account.flush_ns += account.flush_ns;
        self.account.peak_bytes += account.peak_bytes;
        let (s, c, m) = account.totals;
        self.account.totals.0 += s;
        self.account.totals.1 += c;
        self.account.totals.2 += m;
    }

    /// Every per-layer metric, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<Metric> {
        let s = |ns: u64| ns as f64 / 1e9;
        let per = |ns: u64, n: u64| ratio(ns as f64, n as f64);
        let d = &self.derive;
        let sp = &self.spans;
        let a = &self.account;
        let (samples, cpu, mem) = a.totals;
        let covered = self.ingest_ns
            + self.derive_serving_ns
            + self.place_ns
            + self.remove_ns
            + a.busy_ns()
            + sp.probe_ns
            + self.snapshot.encode_ns
            + self.snapshot.restore_ns;
        let rate = |(placed, ns): (u64, u64)| ratio(placed as f64, ns as f64);
        vec![
            metric("ingest.records", self.ingest_records as f64, "count"),
            metric("ingest.busy_s", s(self.ingest_ns), "s"),
            metric(
                "ingest.ns_per_record",
                per(self.ingest_ns, self.ingest_records),
                "ns",
            ),
            metric("ingest.build_s", s(self.build_ns), "s"),
            metric("derive.calls", d.calls as f64, "count"),
            metric("derive.vms", d.vms as f64, "count"),
            metric("derive.busy_s", s(d.busy_ns), "s"),
            metric("derive.ns_per_vm", per(d.busy_ns, d.vms), "ns"),
            metric(
                "derive.repeat_share",
                ratio(d.repeats as f64, d.vms as f64),
                "ratio",
            ),
            metric(
                "derive.envelope_hit_share",
                ratio(
                    self.envelope.0 as f64,
                    (self.envelope.0 + self.envelope.1) as f64,
                ),
                "ratio",
            ),
            metric("serve.arrive.calls", sp.arrive_calls as f64, "count"),
            metric("serve.arrive.busy_s", s(sp.arrive_ns), "s"),
            metric(
                "serve.arrive.self_s",
                s(sp.arrive_ns.saturating_sub(self.derive_serving_ns)),
                "s",
            ),
            metric("serve.probe.calls", sp.probe_calls as f64, "count"),
            metric("serve.probe.busy_s", s(sp.probe_ns), "s"),
            metric("serve.stats.calls", sp.stats_calls as f64, "count"),
            metric("serve.stats.busy_s", s(sp.stats_ns), "s"),
            metric("serve.depart.calls", sp.depart_calls as f64, "count"),
            metric("serve.depart.busy_s", s(sp.depart_ns), "s"),
            metric("serve.finalize_s", s(sp.finalize_ns), "s"),
            metric("schedule.place_calls", self.place_calls as f64, "count"),
            metric(
                "schedule.ns_per_place",
                per(self.place_ns, self.place_calls),
                "ns",
            ),
            metric("schedule.remove_busy_s", s(self.remove_ns), "s"),
            metric(
                "schedule.reject_share",
                ratio(self.rejected as f64, self.place_calls as f64),
                "ratio",
            ),
            metric(
                "schedule.servers_per_cluster",
                self.servers_per_cluster,
                "count",
            ),
            metric("account.busy_s", s(a.busy_ns()), "s"),
            metric("account.on_placed_ns", per(a.on_placed_ns, a.placed), "ns"),
            metric("account.flush_s", s(a.flush_ns), "s"),
            metric("account.samples", samples as f64, "count"),
            metric("account.ns_per_sample", per(a.busy_ns(), samples), "ns"),
            metric(
                "account.peak_bytes_per_vm",
                ratio(a.peak_bytes as f64, a.placed as f64),
                "B/VM",
            ),
            metric(
                "account.cpu_violation_rate",
                ratio(cpu as f64, samples as f64),
                "ratio",
            ),
            metric(
                "account.mem_violation_rate",
                ratio(mem as f64, samples as f64),
                "ratio",
            ),
            metric("probe.calls", sp.probe_calls as f64, "count"),
            metric("probe.ns_per_call", per(sp.probe_ns, sp.probe_calls), "ns"),
            metric("dispatch.route_s", s(self.route_ns), "s"),
            metric("dispatch.tokens", self.tokens as f64, "count"),
            metric("lane.sends", self.lanes.sends as f64, "count"),
            metric(
                "lane.batched_sends",
                self.lanes.batched_sends as f64,
                "count",
            ),
            metric("lane.wakeups", self.lanes.wakeups as f64, "count"),
            metric("lane.full_stalls", self.lanes.full_stalls as f64, "count"),
            metric(
                "lane.wakeups_per_send",
                ratio(self.lanes.wakeups as f64, self.lanes.sends as f64),
                "ratio",
            ),
            metric("snapshot.bytes", self.snapshot.bytes as f64, "B"),
            metric("snapshot.encode_s", s(self.snapshot.encode_ns), "s"),
            metric("snapshot.restore_s", s(self.snapshot.restore_ns), "s"),
            metric(
                "trace.coverage_share",
                ratio(covered as f64, self.traced.1 as f64),
                "ratio",
            ),
            metric(
                "trace.overhead",
                ratio(rate(self.traced), rate(self.untraced)),
                "ratio",
            ),
        ]
    }
}

/// Harness spans around controller calls, by request kind.
#[derive(Debug, Default, Clone, Copy)]
pub struct Spans {
    /// `handle(Arrive)` calls.
    pub arrive_calls: u64,
    /// Time in `handle(Arrive)`.
    pub arrive_ns: u64,
    /// `handle(Probe)` calls.
    pub probe_calls: u64,
    /// Time in `handle(Probe)`.
    pub probe_ns: u64,
    /// `handle(Stats)` calls.
    pub stats_calls: u64,
    /// Time in `handle(Stats)`.
    pub stats_ns: u64,
    /// `handle(Depart)` calls.
    pub depart_calls: u64,
    /// Time in `handle(Depart)`.
    pub depart_ns: u64,
    /// Time in `finalize`.
    pub finalize_ns: u64,
}

impl Spans {
    fn add(&mut self, other: &Spans) {
        self.arrive_calls += other.arrive_calls;
        self.arrive_ns += other.arrive_ns;
        self.probe_calls += other.probe_calls;
        self.probe_ns += other.probe_ns;
        self.stats_calls += other.stats_calls;
        self.stats_ns += other.stats_ns;
        self.depart_calls += other.depart_calls;
        self.depart_ns += other.depart_ns;
        self.finalize_ns += other.finalize_ns;
    }
}

/// What the mid-stream snapshot and restore cost.
#[derive(Debug, Default, Clone, Copy)]
pub struct SnapshotCost {
    /// Encoded snapshot size.
    pub bytes: u64,
    /// `Controller::snapshot` time.
    pub encode_ns: u64,
    /// `Controller::restore` time.
    pub restore_ns: u64,
}

/// One closed-loop serving pass over a materialized trace.
pub struct ClosedLoop {
    /// The finalized result.
    pub result: PackingResult,
    /// Counters after `finalize`.
    pub stats: StatsReport,
    /// First request through `finalize`.
    pub wall_ns: u64,
    /// Heap high-water mark over serving, above its starting point.
    pub peak_bytes: u64,
    /// Requests handled.
    pub requests: u64,
    /// Per-request outcomes.
    pub steps: Vec<Step>,
    /// Time inside `RequestSource::next` (traced passes only).
    pub ingest_ns: u64,
    /// Spans by request kind (traced passes only).
    pub spans: Spans,
    /// Snapshot cost, when one was taken.
    pub snapshot: SnapshotCost,
}

/// Serve `source` (over `trace`) through `controller`, one `handle` call at a time,
/// timing every arrival into `latency_ns` and recording every outcome.
/// With `snapshot_at_probe = Some(k)` the controller is snapshotted after
/// its `k`-th probe and the stream finishes on the restored copy. `traced`
/// adds the time spent producing requests and reports the per-kind spans.
pub fn serve_closed_loop<'p>(
    trace: &Trace,
    mut source: RequestSource<'_>,
    predictor: &'p dyn Predictor,
    mut controller: Controller<'p>,
    snapshot_at_probe: Option<usize>,
    latency_ns: &mut Vec<u64>,
    traced: bool,
) -> Result<ClosedLoop, String> {
    let mut steps = Vec::with_capacity(trace.vms.len() + 8);
    latency_ns.reserve(trace.vms.len());
    let mut spans = Spans::default();
    let mut snapshot = SnapshotCost::default();
    let mut ingest_ns = 0u64;
    let mut probes = 0usize;
    let mut requests = 0u64;

    let base = alloc::current_bytes();
    alloc::reset_peak();
    let start = Instant::now();
    loop {
        let request = if traced {
            let t0 = Instant::now();
            let r = source.next();
            ingest_ns += t0.elapsed().as_nanos() as u64;
            r
        } else {
            source.next()
        };
        let Some(request) = request else { break };
        requests += 1;
        let t0 = Instant::now();
        let response = controller.handle(request);
        let ns = t0.elapsed().as_nanos() as u64;
        match request {
            Request::Arrive(_) => {
                latency_ns.push(ns);
                spans.arrive_calls += 1;
                spans.arrive_ns += ns;
            }
            Request::Probe { .. } => {
                spans.probe_calls += 1;
                spans.probe_ns += ns;
            }
            Request::Stats { .. } => {
                spans.stats_calls += 1;
                spans.stats_ns += ns;
            }
            Request::Depart { .. } => {
                spans.depart_calls += 1;
                spans.depart_ns += ns;
            }
            Request::Tick { .. } => {}
        }
        steps.push(Step::of(&response));
        if let Response::ProbeCapacity(_) = response {
            probes += 1;
            if snapshot_at_probe == Some(probes) {
                let t0 = Instant::now();
                let snap: Snapshot = controller.snapshot();
                let t1 = Instant::now();
                controller =
                    Controller::restore(predictor, &snap, |id| trace.vms.get(id.raw() as usize))
                        .map_err(|e| format!("restore failed: {e:?}"))?;
                snapshot = SnapshotCost {
                    bytes: snap.len() as u64,
                    encode_ns: (t1 - t0).as_nanos() as u64,
                    restore_ns: t1.elapsed().as_nanos() as u64,
                };
            }
        }
    }
    let t0 = Instant::now();
    let result = controller.finalize();
    spans.finalize_ns = t0.elapsed().as_nanos() as u64;
    let wall_ns = start.elapsed().as_nanos() as u64;
    let peak_bytes = alloc::peak_bytes().saturating_sub(base);
    if snapshot_at_probe.is_some_and(|k| probes < k) {
        return Err(format!("stream had {probes} probes, no snapshot point"));
    }
    Ok(ClosedLoop {
        stats: controller.stats(trace.horizon),
        result,
        wall_ns,
        peak_bytes,
        requests,
        steps,
        ingest_ns,
        spans: if traced { spans } else { Spans::default() },
        snapshot,
    })
}

/// Fold a traced closed-loop pass into the ledger.
pub fn ledger_closed_loop(ledger: &mut Ledger, traced: &ClosedLoop, untraced: &ClosedLoop) {
    ledger.ingest_records += traced.requests;
    ledger.ingest_ns += traced.ingest_ns;
    ledger.spans.add(&traced.spans);
    ledger.snapshot.bytes += traced.snapshot.bytes;
    ledger.snapshot.encode_ns += traced.snapshot.encode_ns;
    ledger.snapshot.restore_ns += traced.snapshot.restore_ns;
    ledger.traced.0 += traced.result.accepted;
    ledger.traced.1 += traced.wall_ns;
    ledger.untraced.0 += untraced.result.accepted;
    ledger.untraced.1 += untraced.wall_ns;
}

/// The scheduler replay's agreement with a closed-loop pass: every
/// admission and departure outcome, the accepted, rejected and
/// peak-server counts, and every probe count the pass measured.
pub fn schedule_checks(run: &ClosedLoop, sched: &SchedShadow) -> Checks {
    let replayed: Vec<Step> = sched.steps.iter().map(|(s, _)| *s).collect();
    let decisions = |steps: &[Step]| -> Vec<Step> {
        steps
            .iter()
            .copied()
            .filter(|s| matches!(s, Step::Placed(_) | Step::Rejected | Step::Departed(_)))
            .collect()
    };
    let probes = |steps: &[Step]| -> Vec<u64> {
        steps
            .iter()
            .filter_map(|s| match s {
                Step::Probe(count) => Some(*count),
                _ => None,
            })
            .collect()
    };
    let (ours, theirs) = (decisions(&replayed), decisions(&run.steps));
    let outcomes = match ours.iter().zip(&theirs).position(|(a, b)| a != b) {
        Some(i) => Err(format!(
            "decision {i}: replay {:?}, controller {:?}",
            ours[i], theirs[i]
        )),
        None => same(ours.len(), theirs.len()),
    };
    let mut checks = vec![
        ("schedule_replay_outcomes", outcomes),
        (
            "schedule_replay_totals",
            same(
                (sched.accepted, sched.rejected, sched.peak_in_use),
                (
                    run.result.accepted,
                    run.result.rejected,
                    run.result.peak_servers_in_use,
                ),
            ),
        ),
    ];
    let served = probes(&run.steps);
    if !served.is_empty() {
        checks.push(("schedule_replay_probes", same(probes(&replayed), served)));
    }
    checks
}

/// The accountant replay's agreement with a closed-loop pass.
pub fn account_check(
    run: &ClosedLoop,
    account: &AccountShadow,
) -> (&'static str, Result<(), String>) {
    (
        "account_replay_totals",
        same(
            account.totals,
            (
                run.stats.violation_samples,
                run.stats.cpu_violations,
                run.stats.mem_violations,
            ),
        ),
    )
}
