//! `paper-cadence`: the paper's serving configuration in a closed loop.
//!
//! A materialized 8-cluster trace is served one `Controller::handle`
//! call at a time with `ServeConfig::replaying` defaults: violation
//! accounting every two hours, exhaustive probes at the three paper probe
//! times, and a fresh `Oracle` per pass, so every prediction is derived
//! cold inside `handle`. After the middle probe the controller is
//! snapshotted and restored, and the stream finishes on the restored
//! copy. Derivation and accounting do most of the work here; scheduling
//! on ~500-server clusters is cheap.

use super::{
    account_check, coach_policy, ledger_closed_loop, same, schedule_checks, serve_closed_loop,
    Accumulator, Checks, Options, Scale, Shape, SERVER_FRACTION,
};
use crate::layers::{demand_of, replay_account, replay_schedule, TimedPredictor};
use coach_serve::{Controller, Request, RequestSource, ServeConfig};
use coach_sim::{packing_experiment, Oracle};
use coach_trace::{generate, Trace, TraceConfig};
use coach_types::prelude::*;
use std::time::Instant;

/// The snapshot is taken after this probe (the middle of the three).
const SNAPSHOT_AT_PROBE: usize = 2;

fn trace_config(seed: u64, scale: Scale) -> TraceConfig {
    let (vm_count, cluster_count) = match scale {
        Scale::Full => (100_000, 8),
        Scale::Tiny => (2_000, 3),
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

fn serve_config(trace: &Trace) -> ServeConfig {
    ServeConfig::replaying(coach_policy(), SERVER_FRACTION, trace.horizon)
}

/// One iteration: set up, serve, check against the batch replay and, in
/// a traced run, serve again with timing wrappers and replay the
/// scheduler and the accountant.
pub fn iteration(seed: u64, opts: &Options, acc: &mut Accumulator) -> Checks {
    let tw = TimeWindows::paper_default();
    let t0 = Instant::now();
    let trace = generate(&trace_config(seed, opts.scale));
    let build_ns = t0.elapsed().as_nanos() as u64;
    let oracle = Oracle::new(tw);
    let config = serve_config(&trace);
    let controller = Controller::new(&trace.clusters, &oracle, config);
    let setup_s = t0.elapsed().as_secs_f64();

    let run = match serve_closed_loop(
        &trace,
        RequestSource::replaying(&trace),
        &oracle,
        controller,
        Some(SNAPSHOT_AT_PROBE),
        &mut acc.latency_ns,
        false,
    ) {
        Ok(run) => run,
        Err(why) => return vec![("serve", Err(why))],
    };
    acc.iteration_requests += run.requests;
    acc.serving(
        setup_s,
        run.wall_ns as f64 / 1e9,
        &run.result,
        run.peak_bytes,
        trace.vms.len(),
    );
    acc.probe_capacity.push(run.result.probe_capacity);
    acc.shape = Shape::of(&trace.clusters, trace.vms.len(), 1);

    let reference = packing_experiment(&trace, &Oracle::new(tw), coach_policy(), SERVER_FRACTION);
    let mut checks: Checks = vec![("batch_replay_equal", same(&run.result, &reference))];

    if opts.trace {
        let cold = Oracle::new(tw);
        let timed = TimedPredictor::new(&cold);
        let controller = Controller::new(&trace.clusters, &timed, config);
        let mut traced_latency = Vec::new();
        let traced = match serve_closed_loop(
            &trace,
            RequestSource::replaying(&trace),
            &timed,
            controller,
            Some(SNAPSHOT_AT_PROBE),
            &mut traced_latency,
            true,
        ) {
            Ok(traced) => traced,
            Err(why) => return vec![("traced_serve", Err(why))],
        };
        acc.iteration_requests += traced.requests;
        checks.push(("traced_equal_untraced", same(&traced.result, &run.result)));

        let ledger = &mut acc.ledger;
        ledger.build_ns += build_ns;
        ledger_closed_loop(ledger, &traced, &run);
        ledger.derived(timed.counts(), cold.envelope_counters(), true);

        let requests: Vec<Request<'_>> = RequestSource::replaying(&trace).collect();
        let shadow_oracle = Oracle::new(tw);
        let demand = |rec: &coach_trace::VmRecord| demand_of(&shadow_oracle, &config, rec);
        let sched = replay_schedule(&trace.clusters, &config, tw.count(), &requests, &demand);
        let account = replay_account(&config, &requests, &sched.steps, &demand);
        checks.extend(schedule_checks(&run, &sched));
        checks.push(account_check(&run, &account));
        acc.ledger.shadows(&sched, &account);
    }
    checks
}
