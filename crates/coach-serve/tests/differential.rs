//! Differential tests: the online controller must reproduce the batch
//! replay exactly — same placements, same rejection count, same probe
//! capacity, same occupancy peak, same violation rates — across seeds,
//! policies, trace scales, shard counts, and random arrival/departure
//! interleavings.

use coach_serve::{
    serve_trace, serve_trace_sharded, Controller, Request, RequestSource, Response, ServeConfig,
    ShardedController,
};
use coach_sim::{packing_experiment, Oracle, PolicyConfig, ProbeMode};
use coach_trace::{generate, BehaviorTemplate, Cluster, Trace, TraceConfig, VmRecord};
use coach_types::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Full-strict equality of every `PackingResult` field, with a precise
/// failure message.
fn assert_results_equal(
    label: &str,
    online: &coach_sim::PackingResult,
    batch: &coach_sim::PackingResult,
) {
    assert_eq!(online, batch, "{label}: online != batch");
}

/// Small traces: every policy × several seeds, bit-exact.
#[test]
fn online_matches_batch_small_all_policies() {
    for seed in [101u64, 202, 303] {
        let trace = generate(&TraceConfig::small(seed));
        for policy in PolicyConfig::paper_set() {
            let online = serve_trace(
                &trace,
                &Oracle::new(TimeWindows::paper_default()),
                policy,
                0.6,
            );
            let batch = packing_experiment(
                &trace,
                &Oracle::new(TimeWindows::paper_default()),
                policy,
                0.6,
            );
            assert_results_equal(
                &format!("seed {seed} policy {}", policy.label),
                &online,
                &batch,
            );
        }
    }
}

/// A medium-trace slice (denser clusters, real rejections) stays bit-exact.
#[test]
fn online_matches_batch_medium_slice() {
    let mut trace = generate(&TraceConfig::medium(7));
    trace.vms.truncate(8_000);
    for policy in [
        PolicyConfig::paper_set().remove(2), // Coach
        PolicyConfig::paper_set().remove(0), // None
    ] {
        let online = serve_trace(
            &trace,
            &Oracle::new(TimeWindows::paper_default()),
            policy,
            0.9,
        );
        let batch = packing_experiment(
            &trace,
            &Oracle::new(TimeWindows::paper_default()),
            policy,
            0.9,
        );
        assert_results_equal(
            &format!("medium slice policy {}", policy.label),
            &online,
            &batch,
        );
    }
}

/// Sharded replay on the persistent worker runtime: integer-exact
/// everywhere, ulp-tolerant only on the cross-shard floating-point
/// capacity sums.
#[test]
fn sharded_matches_batch() {
    // Four clusters so every shard count in 1..=4 is genuinely distinct.
    let trace = generate(&TraceConfig {
        cluster_count: 4,
        ..TraceConfig::small(404)
    });
    let coach = PolicyConfig::paper_set().remove(2);
    let batch = packing_experiment(
        &trace,
        &Oracle::new(TimeWindows::paper_default()),
        coach,
        0.7,
    );
    for shards in [1, 2, 3, 4] {
        let online = serve_trace_sharded(
            &trace,
            &Oracle::new(TimeWindows::paper_default()),
            coach,
            0.7,
            shards,
        );
        assert_eq!(online.accepted, batch.accepted, "{shards} shards");
        assert_eq!(online.rejected, batch.rejected, "{shards} shards");
        assert_eq!(
            online.probe_capacity, batch.probe_capacity,
            "{shards} shards"
        );
        assert_eq!(
            online.peak_servers_in_use, batch.peak_servers_in_use,
            "{shards} shards: merged-timeline peak"
        );
        assert_eq!(
            online.cpu_violation_rate, batch.cpu_violation_rate,
            "{shards} shards"
        );
        assert_eq!(
            online.mem_violation_rate, batch.mem_violation_rate,
            "{shards} shards"
        );
        let rel = (online.accepted_core_hours - batch.accepted_core_hours).abs()
            / batch.accepted_core_hours.max(1.0);
        assert!(rel < 1e-9, "{shards} shards: core-hours rel err {rel}");
        let rel = (online.accepted_gb_hours - batch.accepted_gb_hours).abs()
            / batch.accepted_gb_hours.max(1.0);
        assert!(rel < 1e-9, "{shards} shards: gb-hours rel err {rel}");
    }
}

/// `handle_batch` + `finalize` (two worker sessions) and `run` (one
/// session, responses discarded) produce the same merged result — and both
/// match the batch experiment.
#[test]
fn batch_and_streaming_sessions_agree() {
    let trace = generate(&TraceConfig {
        cluster_count: 4,
        ..TraceConfig::small(505)
    });
    let oracle = Oracle::new(TimeWindows::paper_default());
    let coach = PolicyConfig::paper_set().remove(2);
    let batch = packing_experiment(&trace, &oracle, coach, 0.7);
    for shards in [2, 4] {
        let mut batched = ShardedController::replaying(&trace, &oracle, coach, 0.7, shards);
        let requests: Vec<Request> = RequestSource::replaying(&trace).collect();
        let responses = batched.handle_batch(&requests);
        assert_eq!(responses.len(), requests.len());
        let batched_result = batched.finalize();

        let mut streamed = ShardedController::replaying(&trace, &oracle, coach, 0.7, shards);
        let streamed_result = streamed.run(RequestSource::replaying(&trace));

        assert_eq!(batched_result, streamed_result, "{shards} shards");
        assert_eq!(streamed_result.accepted, batch.accepted, "{shards} shards");
        assert_eq!(streamed_result.rejected, batch.rejected, "{shards} shards");
        assert_eq!(
            streamed_result.peak_servers_in_use, batch.peak_servers_in_use,
            "{shards} shards"
        );
        assert_eq!(
            streamed_result.probe_capacity, batch.probe_capacity,
            "{shards} shards"
        );
    }
}

/// The probe estimator agrees with the exhaustive fill at every
/// measurement of the differential replay (`ProbeMode::Differential`
/// asserts equality inside the controller), and the replay stays
/// bit-identical to the batch experiment.
#[test]
fn probe_estimator_matches_exhaustive_in_replay() {
    let oracle = Oracle::new(TimeWindows::paper_default());
    for seed in [101u64, 202] {
        let trace = generate(&TraceConfig::small(seed));
        for policy in PolicyConfig::paper_set() {
            let mut config = ServeConfig::replaying(policy, 0.6, trace.horizon);
            config.probe_mode = ProbeMode::Differential;
            let mut controller = Controller::new(&trace.clusters, &oracle, config);
            for request in RequestSource::replaying(&trace) {
                controller.handle(request);
            }
            let online = controller.finalize();
            let batch = packing_experiment(&trace, &oracle, policy, 0.6);
            assert_results_equal(
                &format!("differential probes, seed {seed} policy {}", policy.label),
                &online,
                &batch,
            );
        }
    }
}

/// Estimated-mode probes (read-only, no fill) report the same capacities
/// as the exhaustive batch measurement.
#[test]
fn estimated_probes_report_batch_capacities() {
    let trace = generate(&TraceConfig::small(707));
    let oracle = Oracle::new(TimeWindows::paper_default());
    let coach = PolicyConfig::paper_set().remove(2);
    let batch = packing_experiment(&trace, &oracle, coach, 0.6);
    let mut config = ServeConfig::replaying(coach, 0.6, trace.horizon);
    config.probe_mode = ProbeMode::Estimated;
    let mut controller = Controller::new(&trace.clusters, &oracle, config);
    let mut capacities = Vec::new();
    for request in RequestSource::replaying(&trace) {
        if let Response::ProbeCapacity(n) = controller.handle(request) {
            capacities.push(n);
        }
    }
    let online = controller.finalize();
    assert_eq!(capacities.len(), 3);
    assert_eq!(online.probe_capacity, batch.probe_capacity);
}

/// Mid-stream stats barriers through the worker runtime: merged reports
/// reconcile monotonically and the final result is unchanged by the extra
/// broadcasts.
#[test]
fn midstream_stats_merge_reconciles() {
    let trace = generate(&TraceConfig {
        cluster_count: 4,
        ..TraceConfig::small(606)
    });
    let oracle = Oracle::new(TimeWindows::paper_default());
    let coach = PolicyConfig::paper_set().remove(2);
    let batch = packing_experiment(&trace, &oracle, coach, 0.7);

    let mut sharded = ShardedController::replaying(&trace, &oracle, coach, 0.7, 3);
    let requests: Vec<Request> = RequestSource::replaying(&trace)
        .with_stats_every(SimDuration::from_hours(12))
        .collect();
    let responses = sharded.handle_batch(&requests);
    let stats: Vec<_> = responses
        .iter()
        .filter_map(|r| match r {
            Response::Stats(s) => Some(s.clone()),
            _ => None,
        })
        .collect();
    assert!(stats.len() > 3, "cadence produced merged reports");
    for pair in stats.windows(2) {
        assert!(pair[0].now < pair[1].now, "reports advance in time");
        assert!(
            pair[0].accepted + pair[0].rejected <= pair[1].accepted + pair[1].rejected,
            "admission totals are monotone"
        );
        assert!(
            pair[0].peak_servers_in_use <= pair[1].peak_servers_in_use,
            "merged peak is monotone"
        );
    }
    let result = sharded.finalize();
    assert_eq!(result.accepted, batch.accepted);
    assert_eq!(result.rejected, batch.rejected);
    assert_eq!(result.peak_servers_in_use, batch.peak_servers_in_use);
    assert_eq!(result.probe_capacity, batch.probe_capacity);
}

/// Lane choice is pure mechanics: ring lanes and the mutex reference lane
/// produce the identical merged result on the same stream.
#[test]
fn lane_kind_does_not_change_decisions() {
    let trace = generate(&TraceConfig {
        cluster_count: 4,
        ..TraceConfig::small(808)
    });
    let oracle = Oracle::new(TimeWindows::paper_default());
    let coach = PolicyConfig::paper_set().remove(2);
    let base = ServeConfig::replaying(coach, 0.7, trace.horizon);
    for shards in [2, 4] {
        let mut results = Vec::new();
        for lanes in [LaneKind::Ring, LaneKind::MutexRef] {
            let config = ServeConfig { lanes, ..base };
            let mut controller = ShardedController::new(&trace.clusters, &oracle, config, shards);
            let result = controller.run(RequestSource::replaying(&trace));
            let totals = controller.lane_totals();
            assert!(
                totals.sends > 0,
                "{shards} shards {lanes:?}: lanes carried traffic"
            );
            assert!(
                totals.batched_sends > 0,
                "{shards} shards {lanes:?}: dispatcher batched handoffs"
            );
            results.push(result);
        }
        for pair in results.windows(2) {
            assert_eq!(pair[0], pair[1], "{shards} shards: variants agree");
        }
    }
}

/// Lane telemetry survives the sharded stats merge: the merged reports
/// carry non-zero, monotone lane counters, with batched handoffs bounded
/// by total sends, and reconcile with the controller's cumulative totals.
#[test]
fn lane_telemetry_survives_sharded_merge() {
    let trace = generate(&TraceConfig {
        cluster_count: 4,
        ..TraceConfig::small(909)
    });
    let oracle = Oracle::new(TimeWindows::paper_default());
    let coach = PolicyConfig::paper_set().remove(2);
    let mut sharded = ShardedController::replaying(&trace, &oracle, coach, 0.7, 3);
    let requests: Vec<Request> = RequestSource::replaying(&trace)
        .with_stats_every(SimDuration::from_hours(12))
        .collect();
    let responses = sharded.handle_batch(&requests);
    let stats: Vec<_> = responses
        .iter()
        .filter_map(|r| match r {
            Response::Stats(s) => Some(s.clone()),
            _ => None,
        })
        .collect();
    assert!(stats.len() > 3, "cadence produced merged reports");
    for report in &stats {
        assert!(
            report.lane_batched_sends <= report.lane_sends,
            "a batched handoff carries at least one item"
        );
    }
    let last = stats.last().expect("at least one report");
    assert!(last.lane_sends > 0, "merged report carries lane traffic");
    assert!(
        last.lane_batched_sends > 0,
        "merged report saw batched handoffs"
    );
    for pair in stats.windows(2) {
        assert!(
            pair[0].lane_sends <= pair[1].lane_sends,
            "lane sends are monotone across merges"
        );
        assert!(
            pair[0].lane_batched_sends <= pair[1].lane_batched_sends,
            "batched handoffs are monotone across merges"
        );
        assert!(
            pair[0].lane_wakeups <= pair[1].lane_wakeups,
            "wakeups are monotone across merges"
        );
    }
    sharded.finalize();
    let totals = sharded.lane_totals();
    assert!(
        totals.sends >= last.lane_sends,
        "cumulative totals cover every merged report"
    );

    // A single-shard controller runs inline: no lanes, all-zero telemetry.
    let mut single = ShardedController::replaying(&trace, &oracle, coach, 0.7, 1);
    single.run(RequestSource::replaying(&trace));
    assert_eq!(single.lane_totals(), LaneStats::default());
}

/// Streaming responses agree with the final counters: every arrival gets an
/// admission answer and the accept/reject tally reconciles.
#[test]
fn per_request_responses_reconcile() {
    let trace = generate(&TraceConfig::small(55));
    let oracle = Oracle::new(TimeWindows::paper_default());
    let coach = PolicyConfig::paper_set().remove(2);
    let mut controller = Controller::replaying(&trace, &oracle, coach, 0.6);
    let mut accepted = 0u64;
    let mut rejected = 0u64;
    let mut probes = 0u64;
    for req in RequestSource::replaying(&trace) {
        match controller.handle(req) {
            Response::Admission { outcome, .. } => match outcome {
                coach_sched::PlacementOutcome::Placed(_) => accepted += 1,
                coach_sched::PlacementOutcome::Rejected => rejected += 1,
            },
            Response::ProbeCapacity(_) => probes += 1,
            other => panic!("unexpected response {other:?}"),
        }
    }
    let result = controller.finalize();
    assert_eq!(result.accepted, accepted);
    assert_eq!(result.rejected, rejected);
    assert_eq!(probes, 3);
    assert_eq!(accepted + rejected, trace.vms.len() as u64);
}

/// Build a synthetic trace from raw (arrival, lifetime, size) triples: the
/// proptest harness for heap-driven event ordering, including simultaneous
/// arrivals/departures and zero-length VMs.
fn trace_from_spans(spans: &[(u64, u64, u32)], horizon_days: u64) -> Trace {
    let horizon = Timestamp::from_days(horizon_days);
    let clusters: Vec<Cluster> = (0..2)
        .map(|c| Cluster {
            id: ClusterId::new(c),
            hardware: HardwareConfig::general_purpose_gen4(),
            servers: (c * 4..c * 4 + 4).map(ServerId::new).collect(),
        })
        .collect();
    let mut vms: Vec<VmRecord> = spans
        .iter()
        .enumerate()
        .map(|(i, &(arrival_h, lifetime_h, cores_sel))| {
            let mut rng = SmallRng::seed_from_u64(900 + i as u64);
            let profile = BehaviorTemplate::sample(&mut rng).instantiate(i as u64);
            let arrival = Timestamp::from_hours(arrival_h % (horizon_days * 24));
            VmRecord {
                id: VmId::new(i as u64),
                subscription: SubscriptionId::new(i as u64 % 7),
                subscription_type: SubscriptionType::External,
                offering: Offering::Iaas,
                config: VmConfig::general_purpose(1 + cores_sel % 8),
                cluster: ClusterId::new(i as u64 % 2),
                server: ServerId::new(0),
                arrival,
                departure: arrival + SimDuration::from_hours(lifetime_h),
                profile,
            }
        })
        .collect();
    // The online stream contract: arrival-sorted records (ties keep index
    // order, matching the batch sort's tie-break).
    vms.sort_by_key(|vm| vm.arrival);
    for (i, vm) in vms.iter_mut().enumerate() {
        vm.id = VmId::new(i as u64);
    }
    Trace {
        clusters,
        vms,
        horizon,
    }
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// Random arrival/departure interleavings — including equal-time
        /// arrival+departure collisions and zero-length VMs — replay
        /// identically through the heap-driven online controller and the
        /// pre-sorted batch experiment.
        #[test]
        fn prop_heap_event_order_matches_batch(
            spans in prop::collection::vec((0u64..96, 0u64..200, 0u32..8), 1..60),
            policy_sel in 0usize..4,
            fraction_sel in 0usize..2,
        ) {
            let trace = trace_from_spans(&spans, 6);
            let policy = PolicyConfig::paper_set()[policy_sel];
            let fraction = [0.5, 1.0][fraction_sel];
            let online = serve_trace(
                &trace,
                &Oracle::new(TimeWindows::paper_default()),
                policy,
                fraction,
            );
            let batch = packing_experiment(
                &trace,
                &Oracle::new(TimeWindows::paper_default()),
                policy,
                fraction,
            );
            prop_assert_eq!(online, batch);
        }

        /// The worker runtime stays integer-exact against the batch replay
        /// for every shard count in 1..=4 under random interleavings.
        #[test]
        fn prop_sharded_runtime_matches_batch(
            spans in prop::collection::vec((0u64..96, 0u64..200, 0u32..8), 1..40),
            policy_sel in 0usize..4,
            shards in 1usize..=4,
        ) {
            let trace = trace_from_spans(&spans, 6);
            let policy = PolicyConfig::paper_set()[policy_sel];
            let sharded = serve_trace_sharded(
                &trace,
                &Oracle::new(TimeWindows::paper_default()),
                policy,
                0.7,
                shards,
            );
            let batch = packing_experiment(
                &trace,
                &Oracle::new(TimeWindows::paper_default()),
                policy,
                0.7,
            );
            prop_assert_eq!(sharded.accepted, batch.accepted);
            prop_assert_eq!(sharded.rejected, batch.rejected);
            prop_assert_eq!(sharded.probe_capacity, batch.probe_capacity);
            prop_assert_eq!(sharded.peak_servers_in_use, batch.peak_servers_in_use);
            prop_assert_eq!(sharded.cpu_violation_rate, batch.cpu_violation_rate);
            prop_assert_eq!(sharded.mem_violation_rate, batch.mem_violation_rate);
        }
    }
}
