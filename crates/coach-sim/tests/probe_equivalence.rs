//! The probe fill against the place-then-remove loop it replaced.
//!
//! [`reference_fill`] is the original measurement: place probe VMs into the
//! live scheduler until every rotation is rejected, then remove them all.
//! Every check here runs it on a clone of the scheduler and asserts that
//! `measure_probe_capacity` (the scratch fill plus
//! `ClusterScheduler::apply_probe_fill`) returns the same count and leaves
//! the scheduler equal to the reference's — same structure, same counters,
//! the same snapshot bytes — and that `estimate_probe_capacity` agrees on
//! the count without touching the scheduler.

use coach_sched::{
    ClusterScheduler, PlacementHeuristic, PlacementOutcome, Policy, ScanStrategy, VmDemand,
};
use coach_sim::{
    estimate_probe_capacity, measure_probe_capacity, paper_probe_times, probe_demand, Oracle,
    PolicyConfig, Predictor,
};
use coach_trace::{generate, TraceConfig};
use coach_types::prelude::*;
use coach_wire::seal_frame;

const HEURISTICS: [PlacementHeuristic; 3] = [
    PlacementHeuristic::BestFit,
    PlacementHeuristic::FirstFit,
    PlacementHeuristic::WorstFit,
];

const SCANS: [ScanStrategy; 2] = [ScanStrategy::Indexed, ScanStrategy::NaiveReference];

/// The place-then-remove probe fill: greedily place rotating probes into
/// each scheduler until `windows` consecutive rejections, count them, and
/// remove them again.
fn reference_fill<'a>(
    schedulers: impl Iterator<Item = &'a mut ClusterScheduler>,
    templates: &[VmDemand],
) -> u64 {
    let windows = templates.len();
    let mut placed_ids: Vec<u64> = Vec::new();
    let mut count = 0u64;
    let mut next_id = 1u64 << 40;
    for sched in schedulers {
        let mut consecutive_rejections = 0usize;
        let mut rotation = 0usize;
        while consecutive_rejections < windows {
            let mut demand = templates[rotation].clone();
            demand.vm = VmId::new(next_id);
            match sched.place(demand) {
                PlacementOutcome::Placed(_) => {
                    placed_ids.push(next_id);
                    count += 1;
                    consecutive_rejections = 0;
                }
                PlacementOutcome::Rejected => consecutive_rejections += 1,
            }
            next_id += 1;
            rotation = (rotation + 1) % windows;
        }
        for &id in &placed_ids {
            sched.remove(VmId::new(id));
        }
        placed_ids.clear();
    }
    count
}

fn templates(policy: Policy, percentile: Percentile) -> Vec<VmDemand> {
    let windows = TimeWindows::paper_default().count();
    (0..windows)
        .map(|rotation| probe_demand(0, policy, percentile, windows, rotation))
        .collect()
}

/// Coach P95, Coach P50 and `Policy::None` (1-window probes broadcast over
/// the servers' windows).
fn template_sets() -> [Vec<VmDemand>; 3] {
    [
        templates(Policy::Coach, Percentile::P95),
        templates(Policy::Coach, Percentile::P50),
        templates(Policy::None, Percentile::P95),
    ]
}

fn assert_same_state(a: &ClusterScheduler, b: &ClusterScheduler, label: &str) {
    assert_eq!(a.counters(), b.counters(), "{label}: counters");
    assert_eq!(a.vm_count(), b.vm_count(), "{label}: VM count");
    assert_eq!(a.servers_in_use(), b.servers_in_use(), "{label}: in use");
    assert!(a == b, "{label}: scheduler state differs");
    assert_eq!(a.dump(), b.dump(), "{label}: dump");
    assert_eq!(
        seal_frame(&a.dump()),
        seal_frame(&b.dump()),
        "{label}: dump bytes"
    );
}

/// Measure `scheds` with the fill and a clone of them with the reference
/// loop; assert equal counts and equal resulting states. Returns the count.
fn check_against_reference(
    scheds: &mut [ClusterScheduler],
    templates: &[VmDemand],
    label: &str,
) -> u64 {
    let mut reference = scheds.to_vec();
    let expected = reference_fill(reference.iter_mut(), templates);
    let estimated = estimate_probe_capacity(scheds.iter(), templates);
    let measured = measure_probe_capacity(scheds.iter_mut(), templates);
    assert_eq!(estimated, expected, "{label}: estimated count");
    assert_eq!(measured, expected, "{label}: measured count");
    for (c, (a, b)) in scheds.iter().zip(&reference).enumerate() {
        assert_same_state(a, b, &format!("{label}, cluster {c}"));
    }
    expected
}

fn capacity() -> ResourceVec {
    ResourceVec::new(16.0, 64.0, 10.0, 1024.0)
}

fn cluster(servers: u64, heuristic: PlacementHeuristic, scan: ScanStrategy) -> ClusterScheduler {
    let ids: Vec<ServerId> = (0..servers).map(ServerId::new).collect();
    ClusterScheduler::with_strategy(
        &ids,
        capacity(),
        TimeWindows::paper_default().count(),
        heuristic,
        scan,
    )
}

fn best_fit(servers: u64) -> ClusterScheduler {
    cluster(servers, PlacementHeuristic::BestFit, ScanStrategy::Indexed)
}

#[test]
fn empty_cluster_matches_reference() {
    for set in template_sets() {
        let mut scheds = [best_fit(4)];
        let count = check_against_reference(&mut scheds, &set, "empty cluster");
        assert!(count > 0, "empty servers host probes");
    }
}

#[test]
fn full_server_hosts_nothing() {
    let mut scheds = [best_fit(1)];
    let full = VmDemand::unpredicted(VmId::new(1), capacity());
    assert!(matches!(scheds[0].place(full), PlacementOutcome::Placed(_)));
    for set in template_sets() {
        assert_eq!(
            check_against_reference(&mut scheds, &set, "full server"),
            0,
            "no slack, no probes"
        );
    }
}

/// One probe's guaranteed share left free, then just less: feasibility sits
/// on the `fits_within` epsilon, where any float difference would show.
#[test]
fn exact_occupancy_crossing_matches_reference() {
    let templates = templates(Policy::Coach, Percentile::P95);
    let filler = capacity().saturating_sub(&templates[0].guaranteed);
    for (label, load) in [
        ("exact crossing", filler),
        (
            "just past the crossing",
            (filler + ResourceVec::splat(1e-7)).min(&capacity()),
        ),
    ] {
        let mut scheds = [best_fit(1)];
        assert!(matches!(
            scheds[0].place(VmDemand::unpredicted(VmId::new(1), load)),
            PlacementOutcome::Placed(_)
        ));
        check_against_reference(&mut scheds, &templates, label);
    }
}

#[test]
fn every_heuristic_and_scan_matches_reference() {
    for heuristic in HEURISTICS {
        for scan in SCANS {
            for set in template_sets() {
                let mut scheds = [cluster(5, heuristic, scan)];
                // Uneven pre-load so the headroom order matters.
                for (i, frac) in [0.7, 0.2, 0.5, 0.0, 0.35].iter().enumerate() {
                    if *frac > 0.0 {
                        let demand =
                            VmDemand::unpredicted(VmId::new(100 + i as u64), capacity() * *frac);
                        let _ = scheds[0].place(demand);
                    }
                }
                check_against_reference(&mut scheds, &set, &format!("{heuristic:?}/{scan:?}"));
            }
        }
    }
}

#[test]
fn multi_cluster_totals_match_reference() {
    let mut scheds: Vec<ClusterScheduler> = (0..3).map(|c| best_fit(2 + c)).collect();
    check_against_reference(
        &mut scheds,
        &templates(Policy::Coach, Percentile::P95),
        "three clusters",
    );
}

/// Repeated probes on one state: the second measures on top of the
/// first's residue, as the controller's later probes do.
#[test]
fn repeated_probes_match_reference() {
    let mut scheds = [best_fit(3)];
    let _ = scheds[0].place(VmDemand::unpredicted(
        VmId::new(1),
        ResourceVec::new(3.3, 13.7, 0.9, 77.7),
    ));
    let templates = templates(Policy::Coach, Percentile::P50);
    for round in 0..4 {
        check_against_reference(&mut scheds, &templates, &format!("round {round}"));
    }
}

fn churn_demand(vm: u64, fracs: &[f64], guar_frac: f64) -> VmDemand {
    let request = ResourceVec::new(8.0, 32.0, 4.0, 256.0);
    let guaranteed = request * guar_frac;
    VmDemand {
        vm: VmId::new(vm),
        requested: request,
        guaranteed,
        window_max: fracs
            .iter()
            .map(|f| (request * *f).max(&guaranteed))
            .collect(),
    }
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Random place/remove churn with a probe half-way and one at the
        /// end: every heuristic, both scans and all three template sets.
        /// Later placements run on top of the first probe's residue, on the
        /// fill's state and the reference's alike.
        #[test]
        fn prop_fill_matches_reference_under_churn(
            ops in prop::collection::vec(
                (0u64..60, prop::collection::vec(0.05f64..1.0, 6), 0.05f64..0.9),
                1..60,
            ),
            heuristic_sel in 0usize..3,
            scan_sel in 0usize..2,
            set_sel in 0usize..3,
        ) {
            let set = &template_sets()[set_sel];
            let mut scheds = [cluster(4, HEURISTICS[heuristic_sel], SCANS[scan_sel])];
            for (i, (vm_raw, fracs, guar_frac)) in ops.iter().enumerate() {
                if i == ops.len() / 2 {
                    check_against_reference(&mut scheds, set, "half-way probe");
                }
                if i % 4 == 3 {
                    scheds[0].remove(VmId::new(1000 + *vm_raw));
                    continue;
                }
                let _ = scheds[0].place(churn_demand(1000 + (i as u64 % 60), fracs, *guar_frac));
            }
            check_against_reference(&mut scheds, set, "final probe");
        }
    }
}

/// Bounded-exhaustive check: every sequence of up to a fixed number of
/// operations over three servers — places from a small alphabet, removes
/// of the newest and oldest VM, and a probe with each template set — for
/// every heuristic and both scans. The reference loop runs on a twin
/// scheduler; the two must decide alike and be equal after every step, so
/// places after a probe run on its residue on both sides.
mod small_scope {
    use super::*;

    /// Place operations: (guaranteed cores, guaranteed GB, per-window GB).
    /// Odd decimals leave float residue after a probe round trip; the
    /// complementary peaks and the broadcast demand exercise the windows.
    const PLACES: [(f64, f64, [f64; 6]); 4] = [
        (2.3, 9.7, [9.7; 6]),
        (1.7, 6.1, [30.3, 30.3, 30.3, 6.1, 6.1, 6.1]),
        (1.7, 6.1, [6.1, 6.1, 6.1, 30.3, 30.3, 30.3]),
        (11.9, 5.3, [5.3; 6]),
    ];
    /// Index of the 1-window (broadcast) place operation.
    const BROADCAST: usize = PLACES.len();
    /// Index of the first remove (newest, then oldest).
    const REMOVES: usize = BROADCAST + 1;
    /// Index of the first probe (one per template set).
    const PROBES: usize = REMOVES + 2;
    const OPS: usize = PROBES + 3;

    #[derive(Clone)]
    struct Pair {
        fill: ClusterScheduler,
        reference: ClusterScheduler,
        live: Vec<VmId>,
        next_vm: u64,
    }

    impl Pair {
        fn new(heuristic: PlacementHeuristic, scan: ScanStrategy) -> Self {
            let sched = cluster(3, heuristic, scan);
            Pair {
                fill: sched.clone(),
                reference: sched,
                live: Vec::new(),
                next_vm: 0,
            }
        }

        fn demand(&mut self, op: usize) -> VmDemand {
            let vm = VmId::new(self.next_vm);
            self.next_vm += 1;
            let Some(&(cores, guar, windows)) = PLACES.get(op) else {
                return VmDemand::unpredicted(vm, ResourceVec::new(3.1, 13.3, 1.1, 99.9));
            };
            let at = |mem: f64| ResourceVec::new(cores, mem, 0.7, 31.0);
            VmDemand {
                vm,
                requested: at(32.0),
                guaranteed: at(guar),
                window_max: windows.iter().map(|&m| at(m)).collect(),
            }
        }

        fn apply(&mut self, op: usize, sets: &[Vec<VmDemand>; 3], path: &[usize]) {
            let label = format!("after {path:?}");
            if op < REMOVES {
                let demand = self.demand(op);
                let vm = demand.vm;
                let a = self.fill.place(demand.clone());
                assert_eq!(a, self.reference.place(demand), "{label}");
                if a != PlacementOutcome::Rejected {
                    self.live.push(vm);
                }
            } else if op < PROBES {
                if self.live.is_empty() {
                    return;
                }
                let at = if op == REMOVES {
                    self.live.len() - 1
                } else {
                    0
                };
                let vm = self.live.remove(at);
                assert_eq!(self.fill.remove(vm), self.reference.remove(vm), "{label}");
            } else {
                let templates = &sets[op - PROBES];
                let expected = reference_fill(std::iter::once(&mut self.reference), templates);
                let estimated = estimate_probe_capacity(std::iter::once(&self.fill), templates);
                let measured = measure_probe_capacity(std::iter::once(&mut self.fill), templates);
                assert_eq!((estimated, measured), (expected, expected), "{label}");
            }
            assert_same_state(&self.fill, &self.reference, &label);
        }
    }

    /// Visit every extension of `pair` by up to `depth` operations; returns
    /// the number of sequences visited.
    fn explore(pair: &Pair, depth: usize, sets: &[Vec<VmDemand>; 3], path: &mut Vec<usize>) -> u64 {
        if depth == 0 {
            return 0;
        }
        let mut visited = 0;
        for op in 0..OPS {
            path.push(op);
            let mut next = pair.clone();
            next.apply(op, sets, path);
            visited += 1 + explore(&next, depth - 1, sets, path);
            path.pop();
        }
        visited
    }

    fn check_all_sequences(depth: usize) {
        let sets = template_sets();
        let expected: u64 = (1..=depth as u32).map(|k| (OPS as u64).pow(k)).sum();
        for heuristic in HEURISTICS {
            for scan in SCANS {
                let visited = explore(&Pair::new(heuristic, scan), depth, &sets, &mut Vec::new());
                assert_eq!(
                    visited, expected,
                    "{heuristic:?}/{scan:?} skipped sequences"
                );
            }
        }
    }

    #[test]
    fn fill_matches_reference_on_every_short_sequence() {
        check_all_sequences(4);
    }

    #[test]
    #[ignore = "takes minutes in a debug build; CI runs it in release"]
    fn fill_matches_reference_on_every_longer_sequence() {
        check_all_sequences(5);
    }
}

/// Replay a small trace the way the batch experiment does (one BestFit
/// scheduler per cluster, departures before arrivals at equal times) and
/// check the fill against the reference at each of the three paper probe
/// times, for every paper policy. The replay continues on the fill's
/// state, so each probe after the first sees the earlier probes' residue.
#[test]
fn trace_replay_matches_reference_at_paper_probe_times() {
    for seed in [37, 5] {
        let trace = generate(&TraceConfig::small(seed));
        let oracle = Oracle::new(TimeWindows::paper_default());
        let windows = oracle.time_windows().count();
        for config in PolicyConfig::paper_set() {
            let mut clusters: Vec<&coach_trace::Cluster> = trace.clusters.iter().collect();
            clusters.sort_by_key(|c| c.id);
            let mut scheds: Vec<ClusterScheduler> = clusters
                .iter()
                .map(|c| {
                    let n = ((c.servers.len() as f64 * 0.6).ceil() as usize).max(1);
                    let ids: Vec<ServerId> = c.servers.iter().copied().take(n).collect();
                    ClusterScheduler::new(
                        &ids,
                        c.hardware.capacity,
                        windows,
                        PlacementHeuristic::BestFit,
                    )
                })
                .collect();
            let index_of = |id: ClusterId| {
                clusters
                    .binary_search_by_key(&id, |c| c.id)
                    .expect("known cluster")
            };
            let set = templates(config.policy, config.percentile);

            // (time, is arrival, trace index): departures sort first.
            let mut events: Vec<(Timestamp, bool, usize)> = Vec::new();
            for (i, vm) in trace.vms.iter().enumerate() {
                events.push((vm.arrival, true, i));
                events.push((vm.departure, false, i));
            }
            events.sort();
            let mut placed = vec![false; trace.vms.len()];
            let probe_times = paper_probe_times(trace.horizon);
            let mut next_probe = 0;
            let mut counts = Vec::new();
            for (time, arrival, i) in events {
                while next_probe < probe_times.len() && time >= probe_times[next_probe] {
                    let label = format!("seed {seed}, {}, probe {next_probe}", config.label);
                    counts.push(check_against_reference(&mut scheds, &set, &label));
                    next_probe += 1;
                }
                let vm = &trace.vms[i];
                let sched = &mut scheds[index_of(vm.cluster)];
                if arrival {
                    let prediction = oracle.predict(vm, config.percentile);
                    let demand = VmDemand::from_prediction(
                        vm.id,
                        vm.demand(),
                        config.policy,
                        prediction.as_ref(),
                    );
                    placed[i] = matches!(sched.place(demand), PlacementOutcome::Placed(_));
                } else if placed[i] {
                    sched.remove(vm.id);
                }
            }
            assert_eq!(counts.len(), 3, "every paper probe time crossed");
            assert!(counts.iter().any(|&c| c > 0), "probes fit somewhere");
        }
    }
}
