//! `churn-stream`: sharded streaming with churn.
//!
//! `ShardedController::run_stream` consumes a `StreamingTrace` that is
//! never materialized, through a `StreamSource` with the paper's probe
//! times (read-only estimated probes) and a stats barrier cadence,
//! composed with a correlated `GroupFailure` and a cluster `Evacuate`.
//! Each pass gets a fresh `Oracle`, so derivation is cold and batched
//! (`predict_batch` per routed segment), and accounting runs at the
//! two-hour cadence on up to two shard workers (never more than the
//! machine has cores). This is the only workload that exercises streaming
//! ingest, the dispatcher and its lanes, batched derivation, and the
//! explicit-departure write paths beside read-only probes and stats.
//!
//! Its latency metrics are the client's: the time the dispatcher takes to
//! accept each arrival (routing, shipping segments, stalling on a full
//! ring), since requests complete inside the shard workers.

use super::{coach_policy, same, Accumulator, Checks, Options, Scale, Shape, SERVER_FRACTION};
use crate::layers::{
    demand_of, replay_account, replay_schedule, SubmitClock, TimedPredictor, TimedRecords,
};
use coach_bench::alloc;
use coach_serve::scenario::{Evacuate, GroupFailure};
use coach_serve::{Request, ServeConfig, ShardedController, StreamRequest, StreamSource};
use coach_sim::{paper_probe_times, Oracle, PackingResult, ProbeMode};
use coach_trace::{StreamingTrace, TraceConfig, VmRecord};
use coach_types::prelude::*;
use std::time::Instant;

/// Stats barriers every six simulated hours.
const STATS_EVERY: SimDuration = SimDuration::from_hours(6);
/// Re-arrival ids of the failed group start here, above every trace id.
const FAILURE_ID_BASE: u64 = 1 << 40;
const MAX_SHARDS: usize = 2;

fn trace_config(seed: u64, scale: Scale) -> TraceConfig {
    let (vm_count, cluster_count) = match scale {
        Scale::Full => (200_000, 8),
        Scale::Tiny => (3_000, 3),
    };
    TraceConfig {
        seed,
        vm_count,
        horizon: Timestamp::from_days(14),
        cluster_count,
        subscription_count: vm_count / 50,
        initial_fraction: 0.45,
    }
}

fn serve_config(horizon: Timestamp) -> ServeConfig {
    ServeConfig {
        probe_mode: ProbeMode::Estimated,
        ..ServeConfig::replaying(coach_policy(), SERVER_FRACTION, horizon)
    }
}

fn shard_count() -> usize {
    coach_types::available_threads().clamp(1, MAX_SHARDS)
}

/// The request stream: records with probes and stats barriers, one
/// subscription failing at a third of the horizon, and the first cluster
/// evacuated onto the second at half of it.
fn requests<I: Iterator<Item = VmRecord>>(
    records: I,
    streaming: &StreamingTrace,
    failing: SubscriptionId,
) -> impl Iterator<Item = StreamRequest> {
    let horizon = streaming.horizon();
    let clusters = streaming.clusters();
    let source =
        StreamSource::new(records, paper_probe_times(horizon)).with_stats_every(STATS_EVERY);
    let failed = GroupFailure::new(
        source,
        failing,
        Timestamp::from_ticks(horizon.ticks() / 3),
        FAILURE_ID_BASE,
    );
    Evacuate::new(
        failed,
        clusters[0].id,
        Timestamp::from_ticks(horizon.ticks() / 2),
        clusters[1].id,
    )
}

/// `Ok` when a sharded result equals the one-shard reference: every
/// decision and count exactly, and the accepted core- and GB-hours to
/// 1e-9 relative, since shards sum them separately and the merge adds
/// the partial sums in another order.
fn same_across_shards(sharded: &PackingResult, one: &PackingResult) -> Result<(), String> {
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs());
    let hours_close = close(sharded.accepted_core_hours, one.accepted_core_hours)
        && close(sharded.accepted_gb_hours, one.accepted_gb_hours);
    let exact = |r: &PackingResult| PackingResult {
        accepted_core_hours: 0.0,
        accepted_gb_hours: 0.0,
        ..r.clone()
    };
    if hours_close && exact(sharded) == exact(one) {
        Ok(())
    } else {
        Err(format!("{sharded:?} != {one:?}"))
    }
}

/// One iteration: set up (streaming generator, predictor, sharded
/// controller), stream, check against a one-shard replay of the
/// materialized stream and, in a traced run, stream again with timing
/// wrappers and replay the scheduler and the accountant.
pub fn iteration(seed: u64, opts: &Options, acc: &mut Accumulator) -> Checks {
    let tw = TimeWindows::paper_default();
    let shards = shard_count();
    let cfg = trace_config(seed, opts.scale);
    let failing = SubscriptionId::new(seed % cfg.subscription_count as u64);

    let t0 = Instant::now();
    let streaming = StreamingTrace::new(&cfg);
    let build_ns = t0.elapsed().as_nanos() as u64;
    let oracle = Oracle::new(tw);
    let config = serve_config(streaming.horizon());
    let mut sharded = ShardedController::new(streaming.clusters(), &oracle, config, shards);
    let setup_s = t0.elapsed().as_secs_f64();

    // Room for every arrival's sample, the failed group's re-arrivals
    // included, so recording never allocates while serving.
    let expected = streaming.len() + streaming.len() / 4;
    let mut clock = SubmitClock::new(requests(streaming.records(), &streaming, failing), expected);
    let base = alloc::current_bytes();
    alloc::reset_peak();
    let start = Instant::now();
    let result = sharded.run_stream(&mut clock);
    let wall_ns = start.elapsed().as_nanos() as u64;
    let peak = alloc::peak_bytes().saturating_sub(base);
    acc.iteration_requests += clock.requests;
    acc.serving(
        setup_s,
        wall_ns as f64 / 1e9,
        &result,
        peak,
        streaming.len(),
    );
    acc.probe_capacity.push(result.probe_capacity);
    acc.latency_ns.extend_from_slice(&clock.submit_ns);
    acc.shape = Shape::of(streaming.clusters(), streaming.len(), shards);
    drop(clock);

    let materialized: Vec<StreamRequest> =
        requests(streaming.records(), &streaming, failing).collect();
    let reference_oracle = Oracle::new(tw);
    let reference = ShardedController::new(streaming.clusters(), &reference_oracle, config, 1)
        .run(materialized.iter().map(StreamRequest::as_request));
    let mut checks: Checks = vec![(
        "one_shard_materialized_equal",
        same_across_shards(&result, &reference),
    )];

    if opts.trace {
        let cold = Oracle::new(tw);
        let timed = TimedPredictor::new(&cold);
        let mut traced_ctl = ShardedController::new(streaming.clusters(), &timed, config, shards);
        let mut records = TimedRecords::new(streaming.records());
        let mut clock = SubmitClock::new(requests(&mut records, &streaming, failing), expected);
        let start = Instant::now();
        let traced = traced_ctl.run_stream(&mut clock);
        let traced_ns = start.elapsed().as_nanos() as u64;
        let (pulled, broadcasts) = (clock.requests, clock.broadcasts);
        drop(clock);
        acc.iteration_requests += pulled;
        checks.push(("traced_equal_untraced", same(&traced, &result)));

        let ledger = &mut acc.ledger;
        ledger.build_ns += build_ns;
        ledger.ingest_records += records.records;
        ledger.ingest_ns += records.busy_ns;
        ledger.route_ns += traced_ns.saturating_sub(records.busy_ns);
        ledger.tokens += broadcasts * shards as u64;
        let lanes = traced_ctl.lane_totals();
        ledger.lanes.merge(&lanes);
        ledger.derived(timed.counts(), cold.envelope_counters(), true);
        ledger.traced.0 += traced.accepted;
        ledger.traced.1 += traced_ns;
        ledger.untraced.0 += result.accepted;
        ledger.untraced.1 += wall_ns;

        // run_stream answers with the merged result only, so the shadows
        // are held to its aggregates: the decisions, and the violation
        // rates computed from the accountant's totals.
        let requests: Vec<Request<'_>> =
            materialized.iter().map(StreamRequest::as_request).collect();
        let shadow_oracle = Oracle::new(tw);
        let demand = |rec: &VmRecord| demand_of(&shadow_oracle, &config, rec);
        let sched = replay_schedule(
            streaming.clusters(),
            &config,
            tw.count(),
            &requests,
            &demand,
        );
        let account = replay_account(&config, &requests, &sched.steps, &demand);
        let (samples, cpu, mem) = account.totals;
        let rate = |n: u64| {
            if samples == 0 {
                0.0
            } else {
                n as f64 / samples as f64
            }
        };
        checks.push((
            "schedule_replay_totals",
            same(
                (sched.accepted, sched.rejected, sched.peak_in_use),
                (traced.accepted, traced.rejected, traced.peak_servers_in_use),
            ),
        ));
        checks.push((
            "account_replay_rates",
            same(
                (rate(cpu), rate(mem)),
                (traced.cpu_violation_rate, traced.mem_violation_rate),
            ),
        ));
        acc.ledger.shadows(&sched, &account);
        if acc.unmeasured.is_empty() {
            acc.unmeasured = vec![
                (
                    "serve.*",
                    "shard workers handle requests inside run_stream; no handle call to time",
                ),
                (
                    "probe.*",
                    "probes run inside the shard workers; no call to time from outside",
                ),
            ];
        }
    }
    checks
}
