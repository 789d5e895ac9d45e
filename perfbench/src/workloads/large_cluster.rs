//! `large-cluster`: scheduling at scale in a closed loop.
//!
//! One cluster of more than 10k servers is served one
//! `Controller::handle` call at a time. Predictions are derived ahead
//! into a table during setup, and violation accounting runs
//! scheduler-only (`sample_every = horizon`), so the scheduler's headroom
//! index and its linear search inside each bucket do the work while
//! derivation and accounting do almost none. The served stream carries
//! no probes: at this size one estimated probe fills ~200k probe VMs and
//! takes longer than a third of the pass, so probe capacity is measured
//! once, at the middle paper probe time of the run's first trace, on the
//! reference replay. At this cadence the accountant keeps every placed VM
//! until the end, so its memory shows in `peak_bytes_per_vm`.

use super::{
    account_check, coach_policy, ledger_closed_loop, same, schedule_checks, serve_closed_loop,
    Accumulator, Checks, Options, Scale, Shape,
};
use crate::layers::{demand_of, replay_account, replay_schedule, Prederived, TimedPredictor};
use coach_serve::{Controller, Request, RequestSource, ServeConfig};
use coach_sim::{paper_probe_times, Oracle, Predictor, ProbeMode};
use coach_trace::{generate, Trace, TraceConfig};
use coach_types::prelude::*;
use std::time::Instant;

fn trace_config(seed: u64, scale: Scale) -> TraceConfig {
    // With nine in ten VMs running from the start, the generator sizes the
    // cluster to ~6 servers per 100 VMs: 180k VMs give 10k+ servers.
    let vm_count = match scale {
        Scale::Full => 180_000,
        Scale::Tiny => 3_000,
    };
    TraceConfig {
        seed,
        vm_count,
        horizon: Timestamp::from_days(14),
        cluster_count: 1,
        subscription_count: vm_count / 50,
        initial_fraction: 0.9,
    }
}

/// Every server is built, so the scheduler itself searches 10k+ servers.
const SERVER_FRACTION: f64 = 1.0;

fn serve_config(trace: &Trace) -> ServeConfig {
    ServeConfig {
        sample_every: trace.horizon.since(Timestamp::ZERO),
        probe_mode: ProbeMode::Estimated,
        ..ServeConfig::replaying(coach_policy(), SERVER_FRACTION, trace.horizon)
    }
}

/// One iteration: set up (generate, derive ahead, build), serve, check
/// every decision against a replay through the scheduler and, in a
/// traced run, serve again with spans and replay the accountant.
pub fn iteration(seed: u64, opts: &Options, acc: &mut Accumulator) -> Checks {
    let tw = TimeWindows::paper_default();
    let t0 = Instant::now();
    let trace = generate(&trace_config(seed, opts.scale));
    let build_ns = t0.elapsed().as_nanos() as u64;
    let oracle = Oracle::new(tw);
    // A traced run derives through the timing wrapper; its setup time is
    // not reported.
    let timed = TimedPredictor::new(&oracle);
    let deriver: &dyn Predictor = if opts.trace { &timed } else { &oracle };
    let table = Prederived::derive(&trace.vms, deriver, coach_policy().percentile);
    let config = serve_config(&trace);
    let controller = Controller::new(&trace.clusters, &table, config);
    let setup_s = t0.elapsed().as_secs_f64();

    let served = || RequestSource::new(&trace.vms, Vec::new());
    let run = match serve_closed_loop(
        &trace,
        served(),
        &table,
        controller,
        None,
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
    acc.shape = Shape::of(&trace.clusters, trace.vms.len(), 1);

    // The reference replays the same demands in the controller's event
    // order through the scheduler alone (the batch replay would add a
    // two-hourly violation sweep over every server, several times the
    // serving cost at this size). It doubles as the traced run's
    // scheduler shadow. On the run's first trace it also measures probe
    // capacity at the middle paper probe time, with the read-only
    // estimator, on state asserted equal to the controller's.
    let first = acc.probe_capacity.is_empty();
    let probes = if first {
        vec![paper_probe_times(trace.horizon)[1]]
    } else {
        Vec::new()
    };
    let source = RequestSource::new(&trace.vms, probes);
    let requests: Vec<Request<'_>> = source.collect();
    let demand = |rec: &coach_trace::VmRecord| demand_of(&table, &config, rec);
    let sched = replay_schedule(&trace.clusters, &config, tw.count(), &requests, &demand);
    if first {
        acc.probe_capacity.push(sched.probe_capacity());
    }
    let mut checks = schedule_checks(&run, &sched);

    if opts.trace {
        let controller = Controller::new(&trace.clusters, &table, config);
        let mut traced_latency = Vec::new();
        let traced = match serve_closed_loop(
            &trace,
            served(),
            &table,
            controller,
            None,
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
        ledger.derived(timed.counts(), oracle.envelope_counters(), false);
        let account = replay_account(&config, &requests, &sched.steps, &demand);
        checks.push(account_check(&run, &account));
        acc.ledger.shadows(&sched, &account);
    }
    checks
}
