//! Spare-capacity probing: the Fig 20a "additional sellable capacity"
//! measurement, shared by the batch replay and the online `coach-serve`
//! controller.
//!
//! One greedy fill produces every measurement. It copies each server's
//! [`ProbeSummary`](coach_sched::ProbeSummary) (the commitment sums the
//! scheduler already maintains on every place/remove) into a scratch arena
//! and packs probe VMs into the copies. Because the scratch holds the
//! scheduler's exact floats, applies its exact `can_fit` predicate and
//! follows its candidate order, the fill elects exactly the servers that
//! placing the probes into the live scheduler would, in the same order.
//! Monotonicity of the fill (slack only shrinks) lets it cache
//! per-(server, rotation) infeasibility, so each server is fully checked
//! against each rotation at most once after its last successful probe.
//!
//! Two entry points use it:
//!
//! * [`estimate_probe_capacity`] — a pure read (`&ClusterScheduler`):
//!   returns the count and leaves the schedulers untouched.
//! * [`measure_probe_capacity`] — the count plus the state a place-then-
//!   remove round trip of every probe leaves behind. The fill records its
//!   winners, and [`ClusterScheduler::apply_probe_fill`] writes back only
//!   what such a round trip changes: the float residue in each touched
//!   server's sums and the `placed`/`rejected` counters. This keeps the
//!   online controller bit-identical to the batch replay, whose later
//!   placements see that residue, without placing or removing a VM.
//!
//! The place/remove loop itself lives on only as a reference in
//! `tests/probe_equivalence.rs`, which checks both entry points against it
//! on edge cases, random churn, every short operation sequence over three
//! servers and a trace replay at the paper's probe times.

use coach_sched::{ClusterScheduler, PlacementHeuristic, Policy, VmDemand};
use coach_types::prelude::*;

/// How a serving-path probe measurement is produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProbeMode {
    /// [`measure_probe_capacity`]: the fill plus a write-back of the float
    /// residue and counters a place/remove round trip would leave, so the
    /// state trajectory matches the batch replay's exactly (the
    /// bit-identity differential tests rely on it). Costs the fill plus a
    /// few additions per placed probe.
    #[default]
    Exhaustive,
    /// [`estimate_probe_capacity`]: the same fill as a pure read. Produces
    /// the same count; the schedulers are untouched, so later placements
    /// see sums without the round trip's residue and can, at a
    /// feasibility boundary, decide differently from the batch replay.
    Estimated,
    /// Run both, assert the counts agree, and keep the exhaustive result
    /// (including its state trajectory). The two share one fill routine,
    /// so this checks the entry points, not two independent algorithms.
    Differential,
}

/// The paper's probe schedule: three spare-capacity measurements spread
/// across the horizon (at 30 %, 55 %, and 80 % of it).
pub fn paper_probe_times(horizon: Timestamp) -> Vec<Timestamp> {
    [0.3, 0.55, 0.8]
        .iter()
        .map(|f| Timestamp::from_ticks((horizon.ticks() as f64 * f) as u64))
        .collect()
}

/// A typical general-purpose probe VM (4 cores / 16 GB), with a diurnal
/// prediction whose peak window rotates with `rotation` so that probes have
/// complementary patterns (as real tenants do, §2.3). The PX (guaranteed)
/// level follows the policy's percentile: P50 guarantees much less than
/// P95, which is where AggrCoach's extra capacity comes from.
///
/// Shared by the batch replay and the online `coach-serve` controller so
/// both measure spare capacity with byte-identical probe streams.
pub fn probe_demand(
    id: u64,
    policy: Policy,
    percentile: Percentile,
    windows: usize,
    rotation: usize,
) -> VmDemand {
    let requested = VmConfig::general_purpose(4).demand();
    if policy == Policy::None {
        return VmDemand::unpredicted(VmId::new(id), requested);
    }
    // Map the percentile to the PX/Pmax ratio of a typical diurnal VM:
    // P95 ≈ 0.85 of the window max, P50 ≈ 0.6.
    let px_ratio = 0.6 + 0.25 * ((percentile.value() - 50.0) / 45.0).clamp(0.0, 1.0);
    let mut pmax = WindowVec::new();
    let mut px = WindowVec::new();
    for w in 0..windows {
        // A raised bump centred on the rotated peak window.
        let d = (w + windows - rotation) % windows;
        let dist = d.min(windows - d) as f64 / (windows as f64 / 2.0);
        let peak = bucket_up(0.35 + 0.45 * (1.0 - dist));
        pmax.push(ResourceVec::splat(peak).clamp(0.0, 1.0));
        px.push(ResourceVec::splat(bucket_up(peak * px_ratio)).clamp(0.0, 1.0));
    }
    let prediction = coach_predict::DemandPrediction {
        tw: TimeWindows::paper_default(),
        pmax,
        px,
    };
    VmDemand::from_prediction(VmId::new(id), requested, policy, Some(&prediction))
}

/// Fill every cluster's spare room with probe VMs (rotating peak windows,
/// the memoized per-rotation templates), count them, and leave each
/// scheduler exactly as placing and then removing those probes would.
///
/// The fill runs over scratch copies of the servers' sums (the routine
/// [`estimate_probe_capacity`] uses) and records its winners; the
/// scheduler then replays only the arithmetic a place-then-remove round
/// trip leaves behind ([`ClusterScheduler::apply_probe_fill`]): the float
/// residue in each touched server's sums and the `placed`/`rejected`
/// counters. No probe VM enters the scheduler's maps or its index.
///
/// The per-cluster probe sequence is deterministic and clusters are
/// independent, so the total is the same whatever order the schedulers are
/// visited in — batch replay passes a `HashMap` iterator, the online
/// controller its sorted shard-local list.
pub fn measure_probe_capacity<'a>(
    schedulers: impl Iterator<Item = &'a mut ClusterScheduler>,
    templates: &[VmDemand],
) -> u64 {
    let mut winners = Vec::new();
    let mut count = 0u64;
    for sched in schedulers {
        winners.clear();
        let fill = fill_cluster(sched, templates, Some(&mut winners));
        sched.apply_probe_fill(&winners, templates, fill.attempts - fill.placed);
        count += fill.placed;
    }
    count
}

/// One server's scratch commitment state inside the fill: a copy of its
/// [`ProbeSummary`](coach_sched::ProbeSummary) floats that probe placements
/// are applied to.
struct Scratch {
    capacity: ResourceVec,
    guaranteed_sum: ResourceVec,
    /// Flat per-window sums (stride = the server's window count).
    window_sums: Vec<ResourceVec>,
}

impl Scratch {
    /// `ServerState::can_fit`, verbatim over the scratch floats: the same
    /// additions against the same capacity with the same epsilon, including
    /// the 1-window broadcast rule.
    fn can_fit(&self, d: &VmDemand) -> bool {
        if !(self.guaranteed_sum + d.guaranteed).fits_within(&self.capacity) {
            return false;
        }
        if d.window_count() == self.window_sums.len() {
            d.window_max
                .iter()
                .zip(&self.window_sums)
                .all(|(w, sum)| (*sum + *w).fits_within(&self.capacity))
        } else {
            let w = d.window_max[0];
            self.window_sums
                .iter()
                .all(|sum| (*sum + w).fits_within(&self.capacity))
        }
    }

    /// `ServerState::place`'s commitment updates, verbatim.
    fn place(&mut self, d: &VmDemand) {
        self.guaranteed_sum += d.guaranteed;
        let broadcast = d.window_count() != self.window_sums.len();
        for (w, sum) in self.window_sums.iter_mut().enumerate() {
            *sum += if broadcast {
                d.window_max[0]
            } else {
                d.window_max[w]
            };
        }
    }

    /// `ServerState::free_guaranteed().memory()` — the BestFit/WorstFit
    /// ordering key.
    fn headroom_memory(&self) -> f64 {
        self.capacity.saturating_sub(&self.guaranteed_sum).memory()
    }
}

/// Count spare probe capacity without touching the schedulers: run the
/// greedy fill over scratch copies of the per-server
/// [`ProbeSummary`](coach_sched::ProbeSummary)s.
///
/// Equal to [`measure_probe_capacity`] on the same scheduler state (the
/// same fill, without the write-back), and `&ClusterScheduler`, so
/// concurrent readers could measure while the scheduler keeps serving.
pub fn estimate_probe_capacity<'a>(
    schedulers: impl Iterator<Item = &'a ClusterScheduler>,
    templates: &[VmDemand],
) -> u64 {
    schedulers
        .map(|sched| fill_cluster(sched, templates, None).placed)
        .sum()
}

/// Comparator defining the heuristic's candidate priority: the *first*
/// feasible server in this order is exactly the server the scheduler's
/// exhaustive scan elects — min (BestFit) / max (WorstFit) headroom with
/// the strict-comparison first-by-index tie-break, or plain id order
/// (FirstFit). Headrooms are finite and non-negative, so `total_cmp`
/// agrees with the scan's `<`/`>`.
fn candidate_order(
    heuristic: PlacementHeuristic,
    headroom: &[f64],
    a: usize,
    b: usize,
) -> std::cmp::Ordering {
    match heuristic {
        PlacementHeuristic::FirstFit => a.cmp(&b),
        PlacementHeuristic::BestFit => headroom[a].total_cmp(&headroom[b]).then(a.cmp(&b)),
        PlacementHeuristic::WorstFit => headroom[b].total_cmp(&headroom[a]).then(a.cmp(&b)),
    }
}

/// What one cluster's greedy fill did.
struct Fill {
    /// Probes placed.
    placed: u64,
    /// Placement attempts, rejections included.
    attempts: u64,
}

/// Run one cluster's greedy fill over scratch copies of its servers'
/// [`ProbeSummary`](coach_sched::ProbeSummary)s, appending each winner to
/// `winners` as `(server index, rotation)` in fill order when asked.
///
/// The winner sequence is exactly the one the place/remove loop elects on
/// the live scheduler, whatever its heuristic: the scratch holds the
/// scheduler's floats, applies its `can_fit` predicate and adds a placed
/// probe with its arithmetic, and the candidate order below is its
/// candidate order.
fn fill_cluster(
    sched: &ClusterScheduler,
    templates: &[VmDemand],
    mut winners: Option<&mut Vec<(usize, usize)>>,
) -> Fill {
    let windows = templates.len();
    let mut fill = Fill {
        placed: 0,
        attempts: 0,
    };
    if windows == 0 {
        return fill;
    }
    let heuristic = sched.heuristic();
    let mut servers: Vec<Scratch> = sched
        .servers()
        .iter()
        .map(|s| {
            let summary = s.probe_summary();
            Scratch {
                capacity: summary.capacity,
                guaranteed_sum: summary.guaranteed_sum,
                window_sums: summary.window_sums.to_vec(),
            }
        })
        .collect();
    let mut headroom: Vec<f64> = servers.iter().map(Scratch::headroom_memory).collect();
    // Server indices in candidate-priority order; kept sorted as
    // placements move servers toward the front (BestFit) / back (WorstFit).
    let mut order: Vec<usize> = (0..servers.len()).collect();
    order.sort_unstable_by(|&a, &b| candidate_order(heuristic, &headroom, a, b));
    // The fill only commits capacity, so once (server, rotation) rejects it
    // rejects forever within this measurement: cache and skip re-checks.
    let mut infeasible = vec![false; servers.len() * windows];
    // Likewise, once a rotation finds no feasible server at all, it never
    // will again — later attempts are rejections without a walk.
    let mut dead_rotation = vec![false; windows];

    let mut consecutive_rejections = 0usize;
    let mut rotation = 0usize;
    while consecutive_rejections < windows {
        fill.attempts += 1;
        // First feasible in priority order is the scheduler's choice; every
        // failed check is cached, so the walk amortizes to O(1) per
        // position plus one `can_fit` per (server, rotation) infeasibility
        // transition.
        let template = &templates[rotation];
        let winner = if dead_rotation[rotation] {
            None
        } else {
            order.iter().position(|&i| {
                let cache = &mut infeasible[i * windows + rotation];
                if *cache {
                    return false;
                }
                if servers[i].can_fit(template) {
                    true
                } else {
                    *cache = true;
                    false
                }
            })
        };
        match winner {
            Some(pos) => {
                let idx = order.remove(pos);
                servers[idx].place(template);
                headroom[idx] = servers[idx].headroom_memory();
                let dest = order
                    .binary_search_by(|&j| candidate_order(heuristic, &headroom, j, idx))
                    .expect_err("unique (headroom, index) key");
                order.insert(dest, idx);
                // The placement shrank this server's slack: its cached
                // rejections stay valid (monotone), no invalidation needed.
                if let Some(winners) = winners.as_deref_mut() {
                    winners.push((idx, rotation));
                }
                fill.placed += 1;
                consecutive_rejections = 0;
            }
            None => {
                dead_rotation[rotation] = true;
                consecutive_rejections += 1;
            }
        }
        rotation = (rotation + 1) % windows;
    }
    fill
}
