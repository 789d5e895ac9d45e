//! The sharded controller: one [`Controller`] per cluster group, each owned
//! by a **persistent worker thread** for the duration of a session.
//!
//! The PR 4 implementation forked one thread per shard per event *segment*
//! (every broadcast request was a fork-join boundary), so on multi-core
//! hardware the dispatch overhead was paid thousands of times per replay.
//! This version keeps the workers alive: at session start each shard's
//! controller moves into a long-lived thread
//! ([`coach_types::with_shard_workers_configured`]); the dispatcher then
//! streams commands to it over a bounded lock-free SPSC ring lane (or the
//! mutex reference lane, per [`ServeConfig::lanes`]) — routed-request
//! segments interleaved with broadcast/barrier tokens — and collects FIFO
//! replies. Workers chew on segment *k* while the dispatcher routes
//! segment *k + 1*; a barrier hands each shard its staged segment *and*
//! the token in one `send_batch` burst, so it costs at most one worker
//! wakeup per lane instead of a join + respawn. Every lane exports
//! telemetry (sends, batched handoffs, wakeups, full-ring stalls) through
//! [`StatsReport`] and [`ShardedController::lane_totals`].
//!
//! Ordering and exactness are unchanged from the fork-join version:
//!
//! * within a shard, channel FIFO preserves the stream order around every
//!   token, so each shard is decision-identical to a single-shard
//!   controller over its clusters;
//! * placements, rejections, probe counts, violation counters, and the
//!   occupancy peak (reconstructed by merging the shards' delta timelines
//!   in the global event order) are **bit-identical** to the single-shard
//!   controller — and therefore to the batch experiment;
//! * the accepted core/GB-hour sums are accumulated per shard and added at
//!   merge time, so they can differ from the single-shard sums in the last
//!   ulp (floating-point addition is not associative).

use crate::controller::{Controller, OccDelta, ServeConfig};
use crate::request::{LatencyHistogram, Request, Response, StatsReport, StreamRequest};
use crate::telemetry::{metric, ShardTelemetry, WireTelemetry};
use crate::wire::{PredictorSpec, Snapshot, TokenCmd, WireCmd, WireReply};
use coach_sim::{Oracle, PackingResult, PolicyConfig, Predictor};
use coach_telemetry::{
    LabelValue, Registry, RegistrySnapshot, SpanRing, SpanStart, TelemetryConfig,
};
use coach_trace::{Cluster, Trace, VmRecord};
use coach_types::prelude::*;
use coach_wire::{open_frame, seal_frame, WireError};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Environment variable that re-routes an embedding binary into the shard
/// worker loop (see [`maybe_run_shard_worker`]). The value is the shard
/// index, for diagnostics only — state arrives via `WireCmd::Init`.
pub const SHARD_WORKER_ENV: &str = "COACH_SHARD_WORKER";

/// Routed requests per channel command: large enough to amortize a channel
/// hop over many events (and to give [`Controller::handle_arrivals`] a
/// whole segment of cold derivations per predictor batch), small enough
/// that workers start while the dispatcher is still routing the rest of
/// the stream.
const SEGMENT: usize = 1024;

/// One command on a shard worker's SPSC lane.
enum ShardCmd<'a> {
    /// A segment of shard-routed requests with their stream positions; the
    /// worker answers each (a [`Self::handle_batch`] session collects the
    /// per-request responses).
    Batch(Vec<(usize, Request<'a>)>),
    /// A segment whose per-request responses nobody will read
    /// ([`Self::run`]): the worker processes and drops them, replying with
    /// a bare acknowledgement — reply-lane memory stays O(segments), not
    /// O(requests), over a million-VM stream.
    Run(Vec<Request<'a>>),
    /// [`Self::Run`]'s owning form ([`Self::run_stream`]): the records
    /// moved in from a streaming source, so nothing borrows the (possibly
    /// never-materialized) trace. The segment is dropped worker-side after
    /// admission — the controller copies what it keeps — so in-flight
    /// memory is O(segments in the ring), the lanes' backpressure bound.
    RunOwned(Vec<VmRecord>),
    /// A broadcast/barrier token: every worker receives it at the same
    /// stream position (channel FIFO orders it against that shard's
    /// segments — no stop-the-world join).
    Token(Request<'a>),
    /// Retire remaining departures, flush accounting, report the final
    /// result and snapshot.
    Finalize,
}

/// One reply per command, in command order.
enum ShardReply {
    Answers(Vec<(usize, Response)>),
    /// A [`ShardCmd::Run`] segment was processed.
    Ran,
    Token(Response),
    Stats(Box<ShardSnapshot>),
    Finalized(Box<(PackingResult, ShardSnapshot)>),
}

/// A shard's contribution to a merged stats report — the state the
/// dispatcher can no longer read directly once the controller lives inside
/// a worker thread (or a child process, where it additionally crosses the
/// pipe as part of a [`WireReply`]).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ShardSnapshot {
    pub(crate) stats: StatsReport,
    pub(crate) latency: LatencyHistogram,
    pub(crate) probe_counts: Vec<u64>,
    /// Occupancy deltas recorded since the previous snapshot (the
    /// dispatcher accumulates them per shard).
    pub(crate) timeline_delta: Vec<OccDelta>,
}

/// The worker loop body: apply one command to the owned controller.
fn worker_step<'a>(
    _shard: usize,
    controller: &mut Controller<'a>,
    cmd: ShardCmd<'a>,
) -> ShardReply {
    match cmd {
        ShardCmd::Batch(batch) => {
            let (idxs, recs): (Vec<usize>, Vec<&VmRecord>) = batch
                .into_iter()
                .map(|(idx, req)| (idx, arrival(req)))
                .unzip();
            let responses = controller.handle_arrivals(&recs);
            ShardReply::Answers(idxs.into_iter().zip(responses).collect())
        }
        ShardCmd::Run(batch) => {
            let recs: Vec<&VmRecord> = batch.into_iter().map(arrival).collect();
            controller.handle_arrivals(&recs);
            ShardReply::Ran
        }
        ShardCmd::RunOwned(batch) => {
            let recs: Vec<&VmRecord> = batch.iter().collect();
            controller.handle_arrivals(&recs);
            ShardReply::Ran
        }
        ShardCmd::Token(req) => match req {
            Request::Stats { .. } => {
                let Response::Stats(stats) = controller.handle(req) else {
                    unreachable!("stats request answered with stats");
                };
                ShardReply::Stats(Box::new(snapshot_of(controller, stats)))
            }
            _ => ShardReply::Token(controller.handle(req)),
        },
        ShardCmd::Finalize => {
            let result = controller.finalize();
            let stats = controller.stats(controller.config().horizon);
            ShardReply::Finalized(Box::new((result, snapshot_of(controller, stats))))
        }
    }
}

/// Routed segments carry only arrivals (broadcasts travel as tokens).
fn arrival<'a>(req: Request<'a>) -> &'a VmRecord {
    let Request::Arrive(rec) = req else {
        unreachable!("routed segments carry only arrivals")
    };
    rec
}

fn snapshot_of(controller: &mut Controller<'_>, stats: StatsReport) -> ShardSnapshot {
    ShardSnapshot {
        stats,
        latency: controller.latency().clone(),
        probe_counts: controller.probe_counts().to_vec(),
        timeline_delta: controller.take_timeline(),
    }
}

/// A cluster controller sharded by cluster group.
///
/// Clusters are assigned to shards round-robin in sorted-id order, so
/// routing is deterministic: an arrival for cluster *c* always lands on
/// the same shard, and two runs of the same stream produce identical
/// decisions. Processing happens inside worker *sessions*: each public
/// entry point ([`Self::handle_batch`], [`Self::run`], [`Self::finalize`])
/// opens one session, so the per-shard worker threads persist across every
/// segment and barrier of that call.
pub struct ShardedController<'a> {
    shards: Vec<Controller<'a>>,
    /// The shared prediction source — kept for restores and the process
    /// backend's `Init` frames.
    predictor: &'a dyn Predictor,
    /// Where worker sessions execute (threads or supervised processes).
    backend: WorkerBackend,
    /// The process backend's supervised children, spawned lazily at the
    /// first session (or restore) and kept alive across sessions so their
    /// controllers persist exactly like the thread backend's do between
    /// calls. `None` under [`WorkerBackend::Thread`].
    process: Option<ProcessPool>,
    /// Cluster → shard routing table, sorted by cluster id (arrivals
    /// resolve their shard by binary search).
    route: Vec<(ClusterId, u32)>,
    label: &'static str,
    horizon: Timestamp,
    /// Per-shard accumulated occupancy-delta timelines (extended by each
    /// snapshot's drain; spans sessions).
    timelines: Vec<Vec<OccDelta>>,
    /// Streaming k-way-merge state over `timelines` (spans sessions), so a
    /// stats cadence pays O(new deltas) per query instead of re-merging
    /// from t = 0.
    peak: PeakMerge,
    /// Command-lane implementation for worker sessions.
    lanes: LaneKind,
    /// Lane telemetry accumulated from completed sessions (the open
    /// session's live counters are added on top at merge time).
    lane_base: LaneStats,
    /// Deployment-wide metrics registry + dispatcher span ring, `None`
    /// when [`ServeConfig::telemetry`] is `Off`. Thread-backed shards
    /// share its registry; process-backed shards ship drained deltas
    /// into it at session barriers.
    telemetry: Option<Box<ShardTelemetry>>,
}

impl<'a> ShardedController<'a> {
    /// Shard `clusters` round-robin (sorted by id) into `shard_count`
    /// controllers.
    ///
    /// # Panics
    ///
    /// Panics if `shard_count` is zero, `clusters` is empty, or the config
    /// rejects (see [`Controller::new`]).
    pub fn new(
        clusters: &[Cluster],
        predictor: &'a dyn Predictor,
        config: ServeConfig,
        shard_count: usize,
    ) -> Self {
        assert!(shard_count > 0, "need at least one shard");
        assert!(!clusters.is_empty(), "need at least one cluster");
        let shard_count = shard_count.min(clusters.len());
        let mut sorted: Vec<&Cluster> = clusters.iter().collect();
        sorted.sort_by_key(|c| c.id);

        let mut groups: Vec<Vec<Cluster>> = vec![Vec::new(); shard_count];
        // Pushed in sorted-id order, so the routing table is born sorted.
        let mut route = Vec::with_capacity(sorted.len());
        for (i, cluster) in sorted.iter().enumerate() {
            groups[i % shard_count].push((*cluster).clone());
            route.push((cluster.id, (i % shard_count) as u32));
        }
        let config = ServeConfig {
            // Shard-local peaks cannot be summed; the delta timelines are
            // merged instead.
            occupancy_timeline: true,
            ..config
        };
        // Constructed un-armed, then re-armed below onto the deployment's
        // shared registry (so per-shard construction never registers a
        // private registry that would immediately be thrown away).
        let shard_config = ServeConfig {
            telemetry: TelemetryConfig::Off,
            ..config
        };
        let mut shards: Vec<Controller<'a>> = groups
            .into_iter()
            .map(|group| Controller::new(&group, predictor, shard_config))
            .collect();
        let telemetry = (!config.telemetry.is_off()).then(|| {
            let origin = Instant::now();
            let t = ShardTelemetry::new(config.telemetry, shards.len(), config.lanes, origin);
            for (shard, controller) in shards.iter_mut().enumerate() {
                controller.enable_telemetry(
                    config.telemetry,
                    Arc::clone(&t.registry),
                    shard as u32,
                    origin,
                );
            }
            t
        });
        ShardedController {
            timelines: vec![Vec::new(); shards.len()],
            peak: PeakMerge::new(shards.len()),
            lanes: config.lanes,
            lane_base: LaneStats::default(),
            telemetry,
            predictor,
            backend: config.backend,
            process: None,
            shards,
            route,
            label: config.policy.label,
            horizon: config.horizon,
        }
    }

    /// A sharded controller replaying a trace with the batch experiment's
    /// semantics.
    pub fn replaying(
        trace: &Trace,
        predictor: &'a dyn Predictor,
        policy: PolicyConfig,
        server_fraction: f64,
        shard_count: usize,
    ) -> Self {
        ShardedController::new(
            &trace.clusters,
            predictor,
            ServeConfig::replaying(policy, server_fraction, trace.horizon),
            shard_count,
        )
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Open one worker session and drive it through a [`Dispatcher`].
    /// `collect` decides whether routed segments carry per-request
    /// responses back. Under the thread backend the controllers move into
    /// persistent worker threads and back; under the process backend the
    /// same command stream is encoded into `coach-wire` frames and routed
    /// through the supervised child processes instead.
    fn with_session<R>(
        &mut self,
        collect: bool,
        body: impl FnOnce(&mut Dispatcher<'_, '_, 'a>) -> R,
    ) -> R {
        match self.backend {
            WorkerBackend::Thread => self.with_thread_session(collect, body),
            WorkerBackend::Process => self.with_process_session(collect, body),
        }
    }

    fn with_thread_session<R>(
        &mut self,
        collect: bool,
        body: impl FnOnce(&mut Dispatcher<'_, '_, 'a>) -> R,
    ) -> R {
        let ShardedController {
            shards,
            route,
            label,
            horizon,
            timelines,
            peak,
            lanes,
            lane_base,
            telemetry,
            ..
        } = self;
        let n = shards.len();
        let owned = std::mem::take(shards);
        let session_base = *lane_base;
        let spans = telemetry.as_deref_mut().and_then(|t| t.spans.as_mut());
        let (owned, (out, session_lanes)) =
            with_shard_workers_configured(*lanes, owned, worker_step, |workers| {
                let mut dispatcher = Dispatcher {
                    link: Link::Threads(workers),
                    route,
                    timelines,
                    peak,
                    pending: (0..n).map(|_| Vec::new()).collect(),
                    pending_owned: (0..n).map(|_| Vec::new()).collect(),
                    stream_records: 0,
                    stream_segments: 0,
                    log: Vec::new(),
                    next_idx: 0,
                    collect,
                    label,
                    horizon: *horizon,
                    lane_base: session_base,
                    spans,
                };
                let out = body(&mut dispatcher);
                (out, dispatcher.link.lane_stats())
            });
        *shards = owned;
        lane_base.merge(&session_lanes);
        self.sync_session_telemetry();
        out
    }

    fn with_process_session<R>(
        &mut self,
        collect: bool,
        body: impl FnOnce(&mut Dispatcher<'_, '_, 'a>) -> R,
    ) -> R {
        self.ensure_process_pool();
        // Arm the children before the session's commands flow (idempotent
        // after the first session; the arm frame rides the journal, so a
        // mid-session crash replays it before the replayed commands and
        // the recovered child recounts exactly what the dead one had).
        self.exchange_process_telemetry();
        let out = {
            let ShardedController {
                route,
                label,
                horizon,
                timelines,
                peak,
                lane_base,
                process,
                telemetry,
                ..
            } = self;
            let pool = process.as_mut().expect("process pool spawned above");
            let n = pool.len();
            let session_base = *lane_base;
            let (spans, wire) = match telemetry.as_deref_mut() {
                Some(t) => (t.spans.as_mut(), Some(t.wire.clone())),
                None => (None, None),
            };
            let mut dispatcher = Dispatcher {
                link: Link::Process(pool, wire),
                route,
                timelines,
                peak,
                pending: (0..n).map(|_| Vec::new()).collect(),
                pending_owned: (0..n).map(|_| Vec::new()).collect(),
                stream_records: 0,
                stream_segments: 0,
                log: Vec::new(),
                next_idx: 0,
                collect,
                label,
                horizon: *horizon,
                lane_base: session_base,
                spans,
            };
            body(&mut dispatcher)
        };
        // Fold the session into each child's checkpoint: export the
        // child's (unchanged) state and re-anchor recovery there, so a
        // crash replays at most one session's journal, not the lifetime's.
        self.refresh_process_checkpoints();
        // Telemetry barrier: drain each child's registry delta into the
        // parent's, then mirror pool-level recovery totals.
        self.exchange_process_telemetry();
        self.sync_session_telemetry();
        out
    }

    /// Send each child a `WireCmd::Telemetry` frame — arming it on first
    /// contact — and merge the drained registry delta it replies with.
    /// No-op when telemetry is off.
    fn exchange_process_telemetry(&mut self) {
        let Some(t) = self.telemetry.as_deref() else {
            return;
        };
        let Some(pool) = self.process.as_mut() else {
            return;
        };
        for shard in 0..pool.len() {
            let frame = seal_frame(&WireCmd::Telemetry { mode: t.mode });
            t.wire.sent(frame.len());
            pool.send(shard, frame);
            let reply = pool.recv(shard);
            t.wire.received(reply.len());
            let reply: WireReply = open_frame(&reply).expect("decode shard telemetry reply");
            let WireReply::Telemetry(delta) = reply else {
                unreachable!("telemetry frame answered with a delta, got {reply:?}");
            };
            t.registry.merge(&delta);
        }
    }

    /// Mirror the parent-side cumulative totals (lane stats, process-pool
    /// restarts and replay time, dispatcher span drops) into the registry
    /// as deltas. Called at the end of every session.
    fn sync_session_telemetry(&mut self) {
        let lanes = self.lane_base;
        let (restarts, replay_ns) = self
            .process
            .as_ref()
            .map_or((0, 0), |pool| (pool.restarts(), pool.replay_ns()));
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.sync_session(&lanes, restarts, replay_ns);
        }
        // Thread-backed shard rings overflow silently between barriers;
        // fold their drop counts in here too.
        for shard in &mut self.shards {
            shard.sync_telemetry();
        }
    }

    /// The process backend's predictor recipe (see [`PredictorSpec`]).
    fn predictor_spec(&self) -> PredictorSpec {
        PredictorSpec::Oracle {
            windows_per_day: self.predictor.time_windows().count() as u32,
        }
    }

    /// Spawn the supervised children on first use and install each
    /// shard's current controller state as its checkpoint.
    fn ensure_process_pool(&mut self) {
        if self.process.is_some() {
            return;
        }
        let exe = std::env::current_exe().expect("resolve current executable for shard workers");
        let pool = ProcessPool::spawn(self.shards.len(), move |shard| {
            let mut cmd = std::process::Command::new(&exe);
            cmd.env(SHARD_WORKER_ENV, shard.to_string());
            cmd
        })
        .expect("spawn shard worker processes");
        self.process = Some(pool);
        let spec = self.predictor_spec();
        for shard in 0..self.shards.len() {
            let frame = seal_frame(&WireCmd::Init {
                spec,
                snapshot: self.shards[shard].snapshot().into_bytes(),
            });
            self.process
                .as_mut()
                .expect("pool just spawned")
                .install_checkpoint(shard, frame);
        }
    }

    /// Export every child's state and record it as the new checkpoint
    /// (without touching the child — its live state already equals the
    /// export), bounding journal replay to one session.
    fn refresh_process_checkpoints(&mut self) {
        let spec = self.predictor_spec();
        let wire = self.telemetry.as_deref().map(|t| &t.wire);
        let pool = self.process.as_mut().expect("process session open");
        for shard in 0..pool.len() {
            let frame = seal_frame(&WireCmd::Export);
            if let Some(w) = wire {
                w.sent(frame.len());
            }
            pool.send(shard, frame);
            let reply = pool.recv(shard);
            if let Some(w) = wire {
                w.received(reply.len());
            }
            let reply: WireReply = open_frame(&reply).expect("decode shard worker export reply");
            let WireReply::Exported(snapshot) = reply else {
                unreachable!("export answered with a snapshot, got {reply:?}");
            };
            pool.refresh_checkpoint(shard, seal_frame(&WireCmd::Init { spec, snapshot }));
        }
    }

    /// Process a batch of time-ordered requests, returning responses in
    /// request order. The shard workers persist across the whole batch:
    /// routed spans stream to them in pipelined segments, and broadcast
    /// requests (tick / probe / stats / depart) are ordering tokens on
    /// every lane rather than fork-join barriers.
    pub fn handle_batch(&mut self, requests: &[Request<'a>]) -> Vec<Response> {
        self.with_session(true, |dispatcher| {
            for request in requests {
                dispatcher.submit(*request);
            }
            let (responses, _) = dispatcher.drain();
            responses
                .into_iter()
                .map(|r| r.expect("every request answered"))
                .collect()
        })
    }

    /// Stream an entire request sequence and finalize, all in a single
    /// worker session — the scale-out serving loop. Per-request responses
    /// are never materialized (workers acknowledge whole segments), so
    /// memory stays O(segments) over a million-VM stream; the merged final
    /// [`PackingResult`] is returned.
    pub fn run(&mut self, requests: impl IntoIterator<Item = Request<'a>>) -> PackingResult {
        self.with_session(false, |dispatcher| {
            for request in requests {
                dispatcher.submit(request);
            }
            dispatcher.send_finalize();
            let (_, result) = dispatcher.drain();
            result.expect("finalize merged")
        })
    }

    /// [`Self::run`] for *owning* request streams: drive the controller
    /// from any `Iterator<Item = StreamRequest>` — e.g. a
    /// [`StreamSource`](crate::StreamSource) over
    /// [`coach_trace::StreamingTrace::records`], or a
    /// [`crate::scenario`] combinator chain — with no materialized trace
    /// behind it. Records move into routed segments and are dropped
    /// worker-side after admission; the bounded ring lanes provide
    /// backpressure (a producer stalls when a worker falls a full ring
    /// behind), so in-flight memory is O(shards × segment) regardless of
    /// stream length. Decisions are bit-identical to [`Self::run`] over
    /// the materialized equivalent of the same stream.
    ///
    /// Two `serve.stream_*` counters land in the telemetry registry per
    /// call (when armed): `stream_records` (owned arrivals submitted) and
    /// `stream_segments` (owned segments shipped).
    pub fn run_stream(
        &mut self,
        requests: impl IntoIterator<Item = StreamRequest>,
    ) -> PackingResult {
        let (result, records, segments) = self.with_session(false, |dispatcher| {
            for request in requests {
                dispatcher.submit_owned(request);
            }
            dispatcher.send_finalize();
            let counts = (dispatcher.stream_records, dispatcher.stream_segments);
            let (_, result) = dispatcher.drain();
            (result.expect("finalize merged"), counts.0, counts.1)
        });
        if let Some(t) = self.telemetry.as_deref() {
            t.registry.counter(metric::STREAM_RECORDS, &[]).add(records);
            t.registry
                .counter(metric::STREAM_SEGMENTS, &[])
                .add(segments);
        }
        result
    }

    /// Finalize every shard and merge into the batch experiment's result
    /// struct. Idempotent; [`Self::run`] already finalizes inline.
    pub fn finalize(&mut self) -> PackingResult {
        self.with_session(false, |dispatcher| {
            dispatcher.send_finalize();
            let (_, result) = dispatcher.drain();
            result.expect("finalize merged")
        })
    }

    /// Cumulative worker-lane telemetry (commands + replies) across every
    /// completed session. Zero for single-shard controllers, whose inline
    /// pool has no lanes.
    pub fn lane_totals(&self) -> LaneStats {
        self.lane_base
    }

    /// Checkpoint-recovery respawns the process backend has performed so
    /// far (always zero under [`WorkerBackend::Thread`]). Also surfaced as
    /// [`StatsReport::worker_restarts`] on every merged report.
    pub fn worker_restarts(&self) -> u64 {
        self.process.as_ref().map_or(0, |pool| pool.restarts())
    }

    /// OS process id of shard `shard`'s current child worker, if the
    /// process backend is active and its pool has been spawned. Changes
    /// after a recovery respawn; `None` under the thread backend.
    pub fn worker_pid(&self, shard: usize) -> Option<u32> {
        self.process.as_ref().map(|pool| pool.pid(shard))
    }

    /// The deployment-wide metrics registry, when
    /// [`ServeConfig::telemetry`] is not `Off`. Thread-backed shards
    /// record into it directly; process-backed shards' deltas are merged
    /// into it at every session barrier, so a snapshot taken between
    /// public calls is complete for both backends.
    pub fn telemetry_registry(&self) -> Option<Arc<Registry>> {
        self.telemetry.as_deref().map(|t| Arc::clone(&t.registry))
    }

    /// Every span ring this deployment recorded into (`Full` mode only):
    /// one per thread-backed shard controller plus the dispatcher's
    /// barrier ring (tid = shard count). Feed them to
    /// [`coach_telemetry::chrome_trace`]. Process-backed shards keep
    /// their rings child-side (spans never cross the wire), so only the
    /// dispatcher ring appears under that backend.
    pub fn telemetry_span_rings(&self) -> Vec<&SpanRing> {
        let mut rings: Vec<&SpanRing> = self
            .shards
            .iter()
            .filter_map(Controller::telemetry_spans)
            .collect();
        if let Some(ring) = self.telemetry.as_deref().and_then(|t| t.spans.as_ref()) {
            rings.push(ring);
        }
        rings
    }

    /// Serialize one shard's full decision-bearing state into a
    /// [`Snapshot`] — the drain half of live servicing. Valid between
    /// sessions (i.e. between public entry-point calls); the shard keeps
    /// serving afterwards. Under the process backend the snapshot is
    /// exported by the live child over its pipe.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn drain_shard(&mut self, shard: usize) -> Snapshot {
        assert!(shard < self.shards.len(), "shard {shard} out of range");
        match self.backend {
            WorkerBackend::Thread => self.shards[shard].snapshot(),
            WorkerBackend::Process => {
                self.ensure_process_pool();
                let t0 = Instant::now();
                let wire = self.telemetry.as_deref().map(|t| &t.wire);
                let pool = self.process.as_mut().expect("process pool spawned above");
                let frame = seal_frame(&WireCmd::Export);
                if let Some(w) = wire {
                    w.sent(frame.len());
                }
                pool.send(shard, frame);
                let reply = pool.recv(shard);
                if let Some(w) = wire {
                    w.received(reply.len());
                }
                let reply: WireReply =
                    open_frame(&reply).expect("decode shard worker export reply");
                let WireReply::Exported(bytes) = reply else {
                    unreachable!("export answered with a snapshot, got {reply:?}");
                };
                let snapshot = Snapshot::from_bytes(bytes);
                if let Some(t) = self.telemetry.as_deref() {
                    // Includes the pipe round trip: the observable cost of
                    // draining a live child.
                    let secs = t0.elapsed().as_secs_f64();
                    if secs > 0.0 {
                        t.registry
                            .gauge(
                                metric::SNAPSHOT_ENCODE_BPS,
                                &[("shard", LabelValue::U64(shard as u64))],
                            )
                            .set(snapshot.bytes().len() as f64 / secs);
                    }
                }
                snapshot
            }
        }
    }

    /// Replace one shard's state with a restored [`Snapshot`] — the resume
    /// half of live servicing (e.g. into a freshly constructed controller
    /// after an upgrade, or to roll a shard back). `resolve` re-resolves
    /// the accounting state's record references, exactly as in
    /// [`Controller::restore`]. Under the process backend the snapshot is
    /// additionally installed as the child's checkpoint, replacing its
    /// live state.
    ///
    /// The restored shard must cover the same clusters the slot covered
    /// (routing is deterministic, so snapshots from the same shard index
    /// of an identically configured deployment always do).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range, or on a semantically
    /// inconsistent dump (see [`Controller::restore`]).
    pub fn resume_shard(
        &mut self,
        shard: usize,
        snapshot: &Snapshot,
        resolve: impl Fn(VmId) -> Option<&'a VmRecord>,
    ) -> Result<(), WireError> {
        assert!(shard < self.shards.len(), "shard {shard} out of range");
        // Restoring parent-side first validates the bytes (and keeps the
        // parent copy authoritative for the next pool spawn).
        let t0 = Instant::now();
        self.shards[shard] = Controller::restore(self.predictor, snapshot, resolve)?;
        if let Some(t) = self.telemetry.as_deref() {
            let secs = t0.elapsed().as_secs_f64();
            if secs > 0.0 {
                t.registry
                    .gauge(
                        metric::SNAPSHOT_RESTORE_BPS,
                        &[("shard", LabelValue::U64(shard as u64))],
                    )
                    .set(snapshot.bytes().len() as f64 / secs);
            }
            // A restored controller comes back un-armed; re-arm it onto
            // the deployment registry under its old shard label.
            self.shards[shard].enable_telemetry(
                t.mode,
                Arc::clone(&t.registry),
                shard as u32,
                t.origin,
            );
        }
        if self.backend == WorkerBackend::Process {
            if let Some(pool) = self.process.as_mut() {
                let frame = seal_frame(&WireCmd::Init {
                    spec: PredictorSpec::Oracle {
                        windows_per_day: self.predictor.time_windows().count() as u32,
                    },
                    snapshot: snapshot.bytes().to_vec(),
                });
                pool.install_checkpoint(shard, frame);
            }
            // No pool yet: the next session's `ensure_process_pool` seeds
            // the child from the just-restored parent controller.
        }
        Ok(())
    }
}

/// Re-route this binary into the shard worker loop if
/// [`SHARD_WORKER_ENV`] is set, never returning in that case. Binaries
/// that embed a process-backed [`ShardedController`] **must** call this
/// first thing in `main` — the pool re-execs `current_exe()`, and without
/// this check each child would run the embedding program instead of a
/// worker.
///
/// The worker speaks the frame protocol on stdin/stdout
/// ([`coach_types::runtime::serve_child_frames`]): an `WireCmd::Init`
/// frame builds its controller from a [`Snapshot`] (leaking the embedded
/// record table and an [`Oracle`] — a worker process serves exactly one
/// controller for its lifetime, so the leaks are bounded and deliberate),
/// then segments, tokens, finalize, and export frames each produce exactly
/// one reply. Clean stdin EOF exits 0.
pub fn maybe_run_shard_worker() {
    let Some(value) = std::env::var_os(SHARD_WORKER_ENV) else {
        return;
    };
    // The env value is the shard index — the label the child's telemetry
    // series carry so the parent-side merge lines them up with the thread
    // backend's.
    let shard: u32 = value.to_string_lossy().parse().unwrap_or(0);
    let mut state: Option<Controller<'static>> = None;
    serve_child_frames(|frame| {
        let cmd: WireCmd = open_frame(&frame).expect("decode shard worker command frame");
        seal_frame(&child_step(shard, &mut state, cmd))
    });
    std::process::exit(0);
}

/// Apply one command frame to the worker's controller.
fn child_step(shard: u32, state: &mut Option<Controller<'static>>, cmd: WireCmd) -> WireReply {
    if let WireCmd::Init { spec, snapshot } = cmd {
        let PredictorSpec::Oracle { windows_per_day } = spec;
        let predictor: &'static Oracle =
            Box::leak(Box::new(Oracle::new(TimeWindows::new(windows_per_day))));
        let snapshot = Snapshot::from_bytes(snapshot);
        let records: &'static [VmRecord] =
            Vec::leak(snapshot.records().expect("decode checkpoint record table"));
        let table: HashMap<VmId, &'static VmRecord> =
            records.iter().map(|rec| (rec.id, rec)).collect();
        let controller = Controller::restore(predictor, &snapshot, |vm| table.get(&vm).copied())
            .expect("restore controller from checkpoint frame");
        *state = Some(controller);
        return WireReply::InitOk;
    }
    let controller = state
        .as_mut()
        .expect("Init frame precedes every other command");
    match cmd {
        WireCmd::Batch(batch) => {
            let batch: Vec<(usize, Request<'static>)> = batch
                .into_iter()
                .map(|(idx, rec)| {
                    let rec: &'static VmRecord = Box::leak(Box::new(rec));
                    (idx as usize, Request::Arrive(rec))
                })
                .collect();
            reply_frame(worker_step(0, controller, ShardCmd::Batch(batch)))
        }
        WireCmd::Run(recs) => {
            let batch: Vec<Request<'static>> = recs
                .into_iter()
                .map(|rec| {
                    let rec: &'static VmRecord = Box::leak(Box::new(rec));
                    Request::Arrive(rec)
                })
                .collect();
            reply_frame(worker_step(0, controller, ShardCmd::Run(batch)))
        }
        WireCmd::Token(token) => {
            let request = match token {
                TokenCmd::Depart { vm, now } => Request::Depart { vm, now },
                TokenCmd::Tick { now } => Request::Tick { now },
                TokenCmd::Probe { now } => Request::Probe { now },
                TokenCmd::Stats { now } => Request::Stats { now },
            };
            reply_frame(worker_step(0, controller, ShardCmd::Token(request)))
        }
        WireCmd::Finalize => reply_frame(worker_step(0, controller, ShardCmd::Finalize)),
        WireCmd::Export => WireReply::Exported(controller.snapshot().into_bytes()),
        WireCmd::Telemetry { mode } => {
            // Arm on first contact (a restored controller is un-armed) and
            // drain the delta accumulated since the previous barrier. The
            // child keeps a private registry; only deltas cross the pipe.
            if mode.is_off() {
                controller.enable_telemetry(
                    TelemetryConfig::Off,
                    Arc::new(Registry::new()),
                    shard,
                    Instant::now(),
                );
            } else if controller.telemetry_registry().is_none()
                || controller.config().telemetry != mode
            {
                controller.enable_telemetry(mode, Arc::new(Registry::new()), shard, Instant::now());
            }
            WireReply::Telemetry(controller.drain_telemetry().unwrap_or(RegistrySnapshot {
                entries: Vec::new(),
            }))
        }
        WireCmd::Init { .. } => unreachable!("handled above"),
    }
}

/// Lift a thread-backend reply into its wire form.
fn reply_frame(reply: ShardReply) -> WireReply {
    match reply {
        ShardReply::Answers(answers) => WireReply::Answers(
            answers
                .into_iter()
                .map(|(idx, response)| (idx as u64, response))
                .collect(),
        ),
        ShardReply::Ran => WireReply::Ran,
        ShardReply::Token(response) => WireReply::Token(response),
        ShardReply::Stats(snapshot) => WireReply::Stats(*snapshot),
        ShardReply::Finalized(boxed) => {
            let (result, snapshot) = *boxed;
            WireReply::Finalized(result, snapshot)
        }
    }
}

impl std::fmt::Debug for ShardedController<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedController")
            .field("shards", &self.shards.len())
            .field("clusters", &self.route.len())
            .finish_non_exhaustive()
    }
}

/// What the dispatcher has sent and not yet collected, in global order.
enum Sent<'a> {
    /// One [`ShardReply::Answers`] expected from `shard`.
    Batch { shard: usize },
    /// One token reply expected from *every* shard; `idx` is the
    /// broadcast's stream position, `request` drives the merge.
    Token { idx: usize, request: Request<'a> },
    /// One [`ShardReply::Finalized`] expected from every shard.
    Finalize,
}

/// The dispatcher's transport: in-process worker lanes, or the process
/// backend's frame pipes. Both are per-shard FIFO command/reply channels,
/// so the session/barrier protocol above is backend-agnostic; the process
/// arm pays an encode (cloning each routed record into its frame) and a
/// decode per hop.
enum Link<'s, 'pool, 'a> {
    Threads(&'s mut ShardWorkers<'pool, ShardCmd<'a>, ShardReply>),
    /// The pool plus (when telemetry is armed) the parent-side frame
    /// byte/count instruments, so every pipe hop is weighed.
    Process(&'s mut ProcessPool, Option<WireTelemetry>),
}

impl<'a> Link<'_, '_, 'a> {
    fn len(&self) -> usize {
        match self {
            Link::Threads(workers) => workers.len(),
            Link::Process(pool, _) => pool.len(),
        }
    }

    fn send(&mut self, shard: usize, cmd: ShardCmd<'a>) {
        match self {
            Link::Threads(workers) => workers.send(shard, cmd),
            Link::Process(pool, wire) => {
                let frame = cmd_frame(&cmd);
                if let Some(w) = wire {
                    w.sent(frame.len());
                }
                pool.send(shard, frame);
            }
        }
    }

    fn send_batch(&mut self, shard: usize, cmds: Vec<ShardCmd<'a>>) {
        match self {
            Link::Threads(workers) => workers.send_batch(shard, cmds),
            Link::Process(pool, wire) => {
                // The pipe has no burst primitive; the kernel buffer plays
                // the ring's role and the frames stay one journal entry
                // each for recovery replay.
                for cmd in &cmds {
                    let frame = cmd_frame(cmd);
                    if let Some(w) = wire {
                        w.sent(frame.len());
                    }
                    pool.send(shard, frame);
                }
            }
        }
    }

    fn recv(&mut self, shard: usize) -> ShardReply {
        match self {
            Link::Threads(workers) => workers.recv(shard),
            Link::Process(pool, wire) => {
                let bytes = pool.recv(shard);
                if let Some(w) = wire {
                    w.received(bytes.len());
                }
                let reply: WireReply = open_frame(&bytes).expect("decode shard worker reply frame");
                match reply {
                    WireReply::Answers(answers) => ShardReply::Answers(
                        answers
                            .into_iter()
                            .map(|(idx, response)| (idx as usize, response))
                            .collect(),
                    ),
                    WireReply::Ran => ShardReply::Ran,
                    WireReply::Token(response) => ShardReply::Token(response),
                    WireReply::Stats(snapshot) => ShardReply::Stats(Box::new(snapshot)),
                    WireReply::Finalized(result, snapshot) => {
                        ShardReply::Finalized(Box::new((result, snapshot)))
                    }
                    WireReply::InitOk | WireReply::Exported(_) | WireReply::Telemetry(_) => {
                        unreachable!("supervision reply inside a dispatch session")
                    }
                }
            }
        }
    }

    fn lane_stats(&self) -> LaneStats {
        match self {
            Link::Threads(workers) => workers.lane_stats(),
            Link::Process(..) => LaneStats::default(),
        }
    }

    fn restarts(&self) -> u64 {
        match self {
            Link::Threads(_) => 0,
            Link::Process(pool, _) => pool.restarts(),
        }
    }
}

/// Encode one thread-backend command as its process-backend frame.
/// Arrivals lose their borrow here: each routed record is cloned into the
/// frame (the child leaks its copy to serve `Request<'static>`s).
fn cmd_frame(cmd: &ShardCmd<'_>) -> Vec<u8> {
    let wire = match cmd {
        ShardCmd::Batch(batch) => WireCmd::Batch(
            batch
                .iter()
                .map(|(idx, req)| (*idx as u64, arrival(*req).clone()))
                .collect(),
        ),
        ShardCmd::Run(batch) => {
            WireCmd::Run(batch.iter().map(|req| arrival(*req).clone()).collect())
        }
        // Owned segments reuse the `Run` frame: the wire protocol already
        // carries records by value, so streaming needs no protocol change.
        ShardCmd::RunOwned(batch) => WireCmd::Run(batch.clone()),
        ShardCmd::Token(req) => WireCmd::Token(match *req {
            Request::Depart { vm, now } => TokenCmd::Depart { vm, now },
            Request::Tick { now } => TokenCmd::Tick { now },
            Request::Probe { now } => TokenCmd::Probe { now },
            Request::Stats { now } => TokenCmd::Stats { now },
            Request::Arrive(_) => unreachable!("arrivals travel in routed segments"),
        }),
        ShardCmd::Finalize => WireCmd::Finalize,
    };
    seal_frame(&wire)
}

/// The session-scoped request router: queues shard-routed requests into
/// per-shard segments, turns broadcasts into per-lane tokens, and merges
/// the FIFO replies.
struct Dispatcher<'s, 'pool, 'a> {
    link: Link<'s, 'pool, 'a>,
    route: &'s [(ClusterId, u32)],
    timelines: &'s mut Vec<Vec<OccDelta>>,
    peak: &'s mut PeakMerge,
    pending: Vec<Vec<(usize, Request<'a>)>>,
    /// Owned-arrival staging for streaming sessions ([`Self::submit_owned`]);
    /// a session uses either this or `pending`, never both.
    pending_owned: Vec<Vec<VmRecord>>,
    /// Owned records submitted this session (`serve.stream_records`).
    stream_records: u64,
    /// Owned segments shipped this session (`serve.stream_segments`).
    stream_segments: u64,
    log: Vec<Sent<'a>>,
    next_idx: usize,
    /// Whether routed segments carry per-request responses back.
    collect: bool,
    label: &'static str,
    horizon: Timestamp,
    /// Lane telemetry from sessions before this one; a stats merge adds
    /// the live pool's counters on top.
    lane_base: LaneStats,
    /// Barrier spans (`TelemetryConfig::Full` only): staging, drains, and
    /// merges record into the deployment's dispatcher ring.
    spans: Option<&'s mut SpanRing>,
}

impl<'a> Dispatcher<'_, '_, 'a> {
    /// Open a barrier span, if the dispatcher ring is armed.
    #[inline]
    fn begin_span(&self) -> Option<SpanStart> {
        self.spans.is_some().then(SpanRing::begin)
    }

    /// Close a barrier span opened by [`Self::begin_span`].
    #[inline]
    fn end_span(&mut self, name: &'static str, start: Option<SpanStart>) {
        if let (Some(ring), Some(start)) = (self.spans.as_mut(), start) {
            ring.end(name, start);
        }
    }
    /// Feed one request into the session (requests must be submitted in
    /// stream order).
    fn submit(&mut self, request: Request<'a>) {
        let idx = self.next_idx;
        self.next_idx += 1;
        if request.is_broadcast() {
            let span = self.begin_span();
            // Hand each shard its staged segment *and* the token in one
            // batched lane handoff — the segment still lands before the
            // token (same stream position as a flush-then-send), but the
            // lane wakes the worker at most once per barrier instead of
            // once per command.
            for shard in 0..self.link.len() {
                let mut burst = Vec::with_capacity(2);
                if let Some(cmd) = self.take_segment(shard) {
                    burst.push(cmd);
                    self.log.push(Sent::Batch { shard });
                }
                burst.push(ShardCmd::Token(request));
                self.link.send_batch(shard, burst);
            }
            self.log.push(Sent::Token { idx, request });
            self.end_span("dispatch.stage", span);
        } else {
            let Request::Arrive(rec) = request else {
                unreachable!("non-broadcast requests are arrivals")
            };
            let at = self
                .route
                .binary_search_by_key(&rec.cluster, |&(id, _)| id)
                .expect("arrival for a cluster this controller owns");
            let shard = self.route[at].1 as usize;
            self.pending[shard].push((idx, request));
            if self.pending[shard].len() >= SEGMENT {
                self.flush(shard);
            }
        }
    }

    /// Feed one owning request into the session (same stream-order
    /// contract as [`Self::submit`]). Owned arrivals stage into per-shard
    /// owned segments and ship as [`ShardCmd::RunOwned`]; broadcasts reuse
    /// the borrowed token path (no broadcast variant carries a record).
    /// Only valid in non-collecting sessions — per-request responses are
    /// never materialized for streams.
    fn submit_owned(&mut self, request: StreamRequest) {
        debug_assert!(!self.collect, "streams never collect responses");
        match request {
            StreamRequest::Arrive(rec) => {
                self.next_idx += 1;
                self.stream_records += 1;
                let at = self
                    .route
                    .binary_search_by_key(&rec.cluster, |&(id, _)| id)
                    .expect("arrival for a cluster this controller owns");
                let shard = self.route[at].1 as usize;
                self.pending_owned[shard].push(rec);
                if self.pending_owned[shard].len() >= SEGMENT {
                    self.flush(shard);
                }
            }
            StreamRequest::Depart { vm, now } => self.submit(Request::Depart { vm, now }),
            StreamRequest::Tick { now } => self.submit(Request::Tick { now }),
            StreamRequest::Probe { now } => self.submit(Request::Probe { now }),
            StreamRequest::Stats { now } => self.submit(Request::Stats { now }),
        }
    }

    /// Take `shard`'s staged segment as a ready-to-send command, if any.
    fn take_segment(&mut self, shard: usize) -> Option<ShardCmd<'a>> {
        if !self.pending_owned[shard].is_empty() {
            self.stream_segments += 1;
            return Some(ShardCmd::RunOwned(std::mem::take(
                &mut self.pending_owned[shard],
            )));
        }
        if self.pending[shard].is_empty() {
            return None;
        }
        let segment = std::mem::take(&mut self.pending[shard]);
        Some(if self.collect {
            ShardCmd::Batch(segment)
        } else {
            ShardCmd::Run(segment.into_iter().map(|(_, req)| req).collect())
        })
    }

    fn flush(&mut self, shard: usize) {
        if let Some(cmd) = self.take_segment(shard) {
            self.link.send(shard, cmd);
            self.log.push(Sent::Batch { shard });
        }
    }

    fn flush_all(&mut self) {
        for shard in 0..self.pending.len() {
            self.flush(shard);
        }
    }

    fn send_finalize(&mut self) {
        let span = self.begin_span();
        // Same batched handoff as a broadcast: segment + finalize arrive
        // in one burst per shard.
        for shard in 0..self.link.len() {
            let mut burst = Vec::with_capacity(2);
            if let Some(cmd) = self.take_segment(shard) {
                burst.push(cmd);
                self.log.push(Sent::Batch { shard });
            }
            burst.push(ShardCmd::Finalize);
            self.link.send_batch(shard, burst);
        }
        self.log.push(Sent::Finalize);
        self.end_span("dispatch.finalize", span);
    }

    /// Collect every outstanding reply in send order. In a collecting
    /// session the per-request responses come back positioned by stream
    /// index; otherwise only segment acknowledgements arrive (the merges
    /// that feed later state — timelines, the final result — still
    /// happen).
    fn drain(&mut self) -> (Vec<Option<Response>>, Option<PackingResult>) {
        let span = self.begin_span();
        self.flush_all();
        let mut responses: Vec<Option<Response>> = if self.collect {
            (0..self.next_idx).map(|_| None).collect()
        } else {
            Vec::new()
        };
        let mut final_result = None;
        for sent in std::mem::take(&mut self.log) {
            match sent {
                Sent::Batch { shard } => match self.link.recv(shard) {
                    ShardReply::Answers(answers) => {
                        if self.collect {
                            for (idx, response) in answers {
                                responses[idx] = Some(response);
                            }
                        }
                    }
                    ShardReply::Ran => {}
                    _ => unreachable!("segment answered with answers or an ack"),
                },
                Sent::Token { idx, request } => {
                    let merged = self.merge_token(request);
                    if self.collect {
                        responses[idx] = Some(merged);
                    }
                }
                Sent::Finalize => {
                    final_result = Some(self.merge_finalize());
                }
            }
        }
        self.end_span("dispatch.drain", span);
        (responses, final_result)
    }

    /// Collect one token reply per shard and merge by request kind.
    fn merge_token(&mut self, request: Request<'a>) -> Response {
        match request {
            Request::Stats { now } => {
                let snapshots: Vec<ShardSnapshot> = (0..self.link.len())
                    .map(|shard| {
                        let ShardReply::Stats(snapshot) = self.link.recv(shard) else {
                            unreachable!("stats token answered with a snapshot");
                        };
                        *snapshot
                    })
                    .collect();
                Response::Stats(self.merge_snapshots(now, &snapshots))
            }
            _ => {
                let answers: Vec<Response> = (0..self.link.len())
                    .map(|shard| {
                        let ShardReply::Token(response) = self.link.recv(shard) else {
                            unreachable!("token answered with a token response");
                        };
                        response
                    })
                    .collect();
                match request {
                    Request::Probe { .. } => {
                        let total = answers
                            .iter()
                            .map(|a| match a {
                                Response::ProbeCapacity(n) => *n,
                                other => unreachable!("probe answered with {other:?}"),
                            })
                            .sum();
                        Response::ProbeCapacity(total)
                    }
                    Request::Depart { vm, .. } => {
                        let found = answers
                            .iter()
                            .any(|a| matches!(a, Response::Departed { found: true, .. }));
                        Response::Departed { vm, found }
                    }
                    Request::Tick { .. } => Response::Ticked,
                    Request::Stats { .. } | Request::Arrive(_) => {
                        unreachable!("handled above / shard-routed")
                    }
                }
            }
        }
    }

    /// Collect the per-shard final results and merge them exactly as the
    /// fork-join implementation did.
    fn merge_finalize(&mut self) -> PackingResult {
        let mut snapshots = Vec::with_capacity(self.link.len());
        let mut partial_accepted = 0u64;
        for shard in 0..self.link.len() {
            let ShardReply::Finalized(boxed) = self.link.recv(shard) else {
                unreachable!("finalize answered with a final result");
            };
            let (partial, snapshot) = *boxed;
            partial_accepted += partial.accepted;
            snapshots.push(snapshot);
        }
        let merged = self.merge_snapshots(self.horizon, &snapshots);
        debug_assert_eq!(partial_accepted, merged.accepted);
        merged.to_packing_result(self.label)
    }

    /// Merge per-shard snapshots into a cluster-wide report. Integer
    /// counters add exactly; the peak comes from the merged timelines.
    fn merge_snapshots(&mut self, now: Timestamp, snapshots: &[ShardSnapshot]) -> StatsReport {
        let span = self.begin_span();
        let mut merged = StatsReport {
            now,
            ..StatsReport::default()
        };
        let mut latency = LatencyHistogram::new();
        for (shard, snapshot) in snapshots.iter().enumerate() {
            self.timelines[shard].extend_from_slice(&snapshot.timeline_delta);
            let s = &snapshot.stats;
            merged.accepted += s.accepted;
            merged.rejected += s.rejected;
            merged.departed += s.departed;
            merged.resident_vms += s.resident_vms;
            merged.servers_in_use += s.servers_in_use;
            merged.accepted_core_hours += s.accepted_core_hours;
            merged.accepted_gb_hours += s.accepted_gb_hours;
            merged.violation_samples += s.violation_samples;
            merged.cpu_violations += s.cpu_violations;
            merged.mem_violations += s.mem_violations;
            merged.ticks = merged.ticks.max(s.ticks);
            latency.merge(&snapshot.latency);
        }
        // Probe counts are per-measurement: the k-th measurement's global
        // capacity is the sum of every shard's k-th count.
        merged.probe_measurements = snapshots
            .iter()
            .map(|s| s.probe_counts.len())
            .max()
            .unwrap_or(0) as u64;
        merged.probe_capacity_total = snapshots.iter().flat_map(|s| s.probe_counts.iter()).sum();
        // Consume timeline entries strictly before `now` into the
        // persistent merge (every shard has reported all of them by this
        // barrier — a departure at exactly `now` may still be drained by a
        // later event, so same-time entries stay in the tail), then fold
        // the small tail in non-destructively for this report's peak.
        self.peak.advance(self.timelines, now.ticks());
        merged.peak_servers_in_use = self.peak.peak_with_tail(self.timelines);
        merged.admission_p50_us = latency.quantile_us(0.50);
        merged.admission_p99_us = latency.quantile_us(0.99);
        // Lane telemetry: completed sessions plus the live pool. Pure
        // observability — never part of the bit-identity contract (wakeup
        // counts depend on scheduling).
        let mut lanes = self.lane_base;
        lanes.merge(&self.link.lane_stats());
        merged.lane_sends = lanes.sends;
        merged.lane_batched_sends = lanes.batched_sends;
        merged.lane_wakeups = lanes.wakeups;
        merged.lane_full_stalls = lanes.full_stalls;
        // Checkpoint-recovery respawns (process backend only). Telemetry:
        // recovery is exact, so this never changes a decision.
        merged.worker_restarts = self.link.restarts();
        self.end_span("dispatch.merge", span);
        merged
    }
}

/// Streaming reconstruction of the global occupancy peak: a k-way merge of
/// the shards' sorted delta timelines in the batch replay's
/// `(time, kind, seq)` event order, taking the running-sum maximum — with
/// the cursors, running sum, and peak persisted across stats queries so a
/// cadence of Q queries over N deltas costs O(N + Q·tail) total instead of
/// O(Q·N).
#[derive(Debug)]
struct PeakMerge {
    cursors: Vec<usize>,
    running: i64,
    peak: i64,
}

impl PeakMerge {
    fn new(shards: usize) -> Self {
        PeakMerge {
            cursors: vec![0; shards],
            running: 0,
            peak: 0,
        }
    }

    /// Pop the next entry in global `(time, kind, seq)` order among the
    /// timelines' un-consumed suffixes, if its time is below `boundary`.
    fn next_below(
        cursors: &mut [usize],
        timelines: &[Vec<OccDelta>],
        boundary: u64,
    ) -> Option<OccDelta> {
        let mut best: Option<(usize, OccDelta)> = None;
        for (si, timeline) in timelines.iter().enumerate() {
            if let Some(&entry) = timeline.get(cursors[si]) {
                let key = (entry.0, entry.1, entry.2);
                if entry.0 < boundary && best.is_none_or(|(_, b)| key < (b.0, b.1, b.2)) {
                    best = Some((si, entry));
                }
            }
        }
        let (si, entry) = best?;
        cursors[si] += 1;
        Some(entry)
    }

    /// Destructively consume entries with time strictly below `boundary`.
    /// Safe because at a barrier at `boundary` every shard has already
    /// reported all its strictly-earlier deltas (the barrier drains
    /// strictly-earlier departures), so nothing below the boundary can
    /// arrive later and be mis-ordered against the consumed prefix.
    fn advance(&mut self, timelines: &[Vec<OccDelta>], boundary: u64) {
        while let Some(entry) = Self::next_below(&mut self.cursors, timelines, boundary) {
            self.running += i64::from(entry.3);
            self.peak = self.peak.max(self.running);
        }
    }

    /// The peak including the not-yet-consumed tail (entries at the
    /// barrier time itself), merged non-destructively on scratch cursors.
    fn peak_with_tail(&self, timelines: &[Vec<OccDelta>]) -> usize {
        let mut cursors = self.cursors.clone();
        let mut running = self.running;
        let mut peak = self.peak;
        while let Some(entry) = Self::next_below(&mut cursors, timelines, u64::MAX) {
            running += i64::from(entry.3);
            peak = peak.max(running);
        }
        peak.max(0) as usize
    }
}

/// Replay a trace through a [`ShardedController`] — the scale-out
/// equivalent of [`crate::serve_trace`] — streaming the lazily derived
/// request sequence through one persistent worker session.
pub fn serve_trace_sharded(
    trace: &Trace,
    predictor: &dyn Predictor,
    policy: PolicyConfig,
    server_fraction: f64,
    shard_count: usize,
) -> PackingResult {
    let mut controller =
        ShardedController::replaying(trace, predictor, policy, server_fraction, shard_count);
    controller.run(crate::RequestSource::replaying(trace))
}
