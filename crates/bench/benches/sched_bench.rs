//! Scheduling-overhead benchmarks (§4.5: the six extra bin-packing
//! dimensions add <1 ms per VM), the window-count ablation, and the
//! headroom-index scaling matrix (servers × windows × occupancy).

use coach_sched::{
    ClusterScheduler, PlacementHeuristic, PlacementOutcome, ScanStrategy, ServerState, VmDemand,
};
use coach_types::prelude::*;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn demand(i: u64, windows: usize) -> VmDemand {
    let requested = VmConfig::general_purpose(4).demand();
    let guaranteed = requested * 0.5;
    let window_max = (0..windows)
        .map(|w| {
            let f = 0.5 + 0.4 * ((w + i as usize) % windows) as f64 / windows as f64;
            requested * f
        })
        .collect();
    VmDemand {
        vm: VmId::new(i),
        requested,
        guaranteed,
        window_max,
    }
}

fn bench_placement(c: &mut Criterion) {
    let mut group = c.benchmark_group("vm_placement");
    for windows in [1usize, 6, 24] {
        group.bench_with_input(
            BenchmarkId::new("place", format!("{windows}w")),
            &windows,
            |b, &windows| {
                let servers: Vec<ServerId> = (0..200).map(ServerId::new).collect();
                b.iter_batched(
                    || {
                        ClusterScheduler::new(
                            &servers,
                            HardwareConfig::general_purpose_gen4().capacity,
                            windows,
                            PlacementHeuristic::BestFit,
                        )
                    },
                    |mut sched| {
                        for i in 0..100u64 {
                            let _ = sched.place(demand(i, windows));
                        }
                        sched
                    },
                    criterion::BatchSize::SmallInput,
                );
            },
        );
    }
    group.finish();
}

/// Build a scheduler pre-filled to roughly `occupancy` of its guaranteed
/// memory. The identical demands fill servers until network binds, so every
/// full server keeps the same memory headroom and a placement walks past
/// all of them. The fill always runs indexed (the naive scan would take
/// minutes at 16k servers) and the filled state is then restored under
/// `scan`; both scans decide identically, so the state is the same either
/// way.
fn filled_scheduler(
    servers: usize,
    windows: usize,
    occupancy: f64,
    scan: ScanStrategy,
) -> ClusterScheduler {
    let ids: Vec<ServerId> = (0..servers as u64).map(ServerId::new).collect();
    let capacity = HardwareConfig::general_purpose_gen4().capacity;
    let mut sched = ClusterScheduler::new(&ids, capacity, windows, PlacementHeuristic::BestFit);
    // Each demand guarantees 8 GB against the 384 GB gen4 server; high
    // occupancy targets may saturate per-window feasibility first, in which
    // case the surplus placements are simply rejected.
    let per_server = ((capacity.memory() * occupancy) / 8.0).round() as u64;
    for i in 0..per_server * servers as u64 {
        let _ = sched.place(demand(i, windows));
    }
    let mut dump = sched.dump();
    dump.scan = scan;
    ClusterScheduler::from_dump(dump).expect("a live scheduler's dump restores")
}

/// The scaling matrix for the headroom index: one placement against
/// clusters of 64 to 16,384 servers, window count, and occupancy, for both
/// the indexed and the naive reference scan. The 16,384-server rows sit
/// above the `large-cluster` benchmark workload's 10,796 servers.
fn bench_index_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("index_scaling");
    for &(scan, tag) in &[
        (ScanStrategy::Indexed, "indexed"),
        (ScanStrategy::NaiveReference, "naive"),
    ] {
        for servers in [64usize, 512, 2048, 16_384] {
            for windows in [1usize, 6] {
                for occupancy in [0.3f64, 0.9] {
                    let id = format!("{tag}/{servers}s_{windows}w_{occupancy}o");
                    group.bench_with_input(
                        BenchmarkId::new("place_remove", id),
                        &(servers, windows, occupancy),
                        |b, &(servers, windows, occupancy)| {
                            // One persistent scheduler; each iteration places
                            // a fresh demand and removes it again, so state
                            // (and the headroom order) stays put.
                            let mut sched = filled_scheduler(servers, windows, occupancy, scan);
                            let mut i = 1u64 << 32;
                            b.iter(|| {
                                i += 1;
                                let d = demand(i, windows);
                                let vm = d.vm;
                                if let PlacementOutcome::Placed(_) =
                                    std::hint::black_box(sched.place(d))
                                {
                                    sched.remove(vm);
                                }
                            });
                        },
                    );
                }
            }
        }
    }
    group.finish();
}

/// The allocation-free feasibility check, on its own: the W+1-dimensional
/// exact scan and the bounds-assisted variant the index uses.
fn bench_can_fit(c: &mut Criterion) {
    let mut group = c.benchmark_group("can_fit");
    for windows in [1usize, 6, 24] {
        let mut state = ServerState::new(
            ServerId::new(0),
            HardwareConfig::general_purpose_gen4().capacity,
            windows,
        );
        for i in 0..12u64 {
            let _ = state.place(demand(i, windows));
        }
        let probe = demand(999, windows);
        let peak = probe.window_peak();
        let trough = probe.window_trough();
        group.bench_with_input(
            BenchmarkId::new("exact", format!("{windows}w")),
            &windows,
            |b, _| b.iter(|| std::hint::black_box(state.can_fit(&probe))),
        );
        group.bench_with_input(
            BenchmarkId::new("bounds", format!("{windows}w")),
            &windows,
            |b, _| {
                b.iter(|| std::hint::black_box(state.can_fit_with_bounds(&probe, &peak, &trough)))
            },
        );
    }
    group.finish();
}

fn bench_formula4_ablation(c: &mut Criterion) {
    // Multiplexed (Formula 4) vs. summed VA pool accounting.
    let mut state = coach_sched::ServerState::new(
        ServerId::new(0),
        HardwareConfig::general_purpose_gen4().capacity,
        6,
    );
    for i in 0..20u64 {
        let _ = state.place(demand(i, 6));
    }
    c.bench_function("pool_multiplexed_formula4", |b| {
        b.iter(|| std::hint::black_box(state.oversub_pool_memory()))
    });
    c.bench_function("pool_summed_baseline", |b| {
        b.iter(|| std::hint::black_box(state.oversub_pool_memory_summed()))
    });
}

criterion_group!(
    benches,
    bench_placement,
    bench_index_scaling,
    bench_can_fit,
    bench_formula4_ablation
);
criterion_main!(benches);
