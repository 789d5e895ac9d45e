//! Synthetic Azure-like trace generator.
//!
//! Substitutes for the paper's proprietary two-week trace of >1M opaque VMs
//! (§2 methodology). Every marginal the paper reports is a calibration
//! target; see `DESIGN.md` §1 for the full substitution argument. The
//! generator is fully deterministic in the seed.

use crate::model::{Cluster, Trace, VmRecord};
use crate::profile::BehaviorTemplate;
use coach_types::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{BinaryHeap, HashMap};

/// Generator parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceConfig {
    /// RNG seed; identical seeds yield identical traces.
    pub seed: u64,
    /// Number of VM allocations to generate.
    pub vm_count: usize,
    /// Observation horizon (paper: two weeks).
    pub horizon: Timestamp,
    /// Number of clusters (paper: ten).
    pub cluster_count: usize,
    /// Approximate number of customer subscriptions.
    pub subscription_count: usize,
    /// Fraction of VMs already running at trace start.
    pub initial_fraction: f64,
}

impl TraceConfig {
    /// A small trace for unit tests (~200 VMs, 3 clusters, 1 week).
    pub fn small(seed: u64) -> Self {
        TraceConfig {
            seed,
            vm_count: 200,
            horizon: Timestamp::from_days(7),
            cluster_count: 3,
            subscription_count: 24,
            initial_fraction: 0.45,
        }
    }

    /// A mid-size trace for performance benchmarking (100k VMs over four
    /// dense ~1000-server clusters, 2 weeks) — the scale `bench_pipeline`
    /// replays end-to-end on the way to million-VM traces.
    pub fn medium(seed: u64) -> Self {
        TraceConfig {
            seed,
            vm_count: 100_000,
            horizon: Timestamp::from_days(14),
            cluster_count: 4,
            subscription_count: 2000,
            initial_fraction: 0.45,
        }
    }

    /// The default evaluation-scale trace (~8000 VMs, 10 clusters, 2 weeks).
    pub fn paper_scale(seed: u64) -> Self {
        TraceConfig {
            seed,
            vm_count: 8000,
            horizon: Timestamp::from_days(14),
            cluster_count: 10,
            subscription_count: 400,
            initial_fraction: 0.45,
        }
    }

    /// The million-VM trace (paper scale: >1M VMs over two weeks) — the
    /// ROADMAP north-star workload. Only runnable end-to-end with the
    /// indexed generator first-fit and the lazy demand derivation;
    /// `bench_pipeline --large` replays it.
    pub fn large(seed: u64) -> Self {
        TraceConfig {
            seed,
            vm_count: 1_000_000,
            horizon: Timestamp::from_days(14),
            cluster_count: 10,
            subscription_count: 20_000,
            initial_fraction: 0.45,
        }
    }

    /// The ten-million-VM trace. Deliberately *not* materializable in
    /// sensible memory as a `Vec<VmRecord>` — this is the scale the
    /// streaming generator ([`crate::StreamingTrace`]) exists for;
    /// `bench_serve --large` streams it end-to-end.
    pub fn huge(seed: u64) -> Self {
        TraceConfig {
            seed,
            vm_count: 10_000_000,
            horizon: Timestamp::from_days(14),
            cluster_count: 10,
            subscription_count: 200_000,
            initial_fraction: 0.45,
        }
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig::paper_scale(0)
    }
}

/// Per-subscription generator state.
#[derive(Debug, Clone)]
pub(crate) struct Subscription {
    pub(crate) id: SubscriptionId,
    pub(crate) sub_type: SubscriptionType,
    pub(crate) offering: Offering,
    pub(crate) home_cluster: usize,
    /// The small set of VM sizes this customer deploys.
    pub(crate) preferred_configs: Vec<VmConfig>,
}

/// A VM before placement: when it runs, how big it is, who owns it.
#[derive(Debug, Clone)]
pub(crate) struct Skeleton {
    pub(crate) arrival: Timestamp,
    pub(crate) departure: Timestamp,
    pub(crate) sub_idx: usize,
    pub(crate) config: VmConfig,
}

/// The cluster skeleton shared by the materialized and streaming
/// generators: heterogeneous hardware, empty server lists (servers grow
/// on demand during placement).
pub(crate) fn build_clusters(cluster_count: usize) -> Vec<Cluster> {
    let hardware_mix = [
        HardwareConfig::general_purpose_gen4(),
        HardwareConfig::general_purpose_gen5(),
        HardwareConfig::memory_lean(),
        HardwareConfig::memory_rich(),
    ];
    (0..cluster_count)
        .map(|i| Cluster {
            id: ClusterId::new(i as u64),
            hardware: hardware_mix[i % hardware_mix.len()].clone(),
            servers: Vec::new(),
        })
        .collect()
}

/// Draw the subscription table. Consumes exactly the draw sequence the
/// materialized generator uses, so a streaming pass that clones the RNG
/// *after* this call replays the identical skeleton stream.
pub(crate) fn draw_subscriptions(rng: &mut SmallRng, config: &TraceConfig) -> Vec<Subscription> {
    (0..config.subscription_count.max(1))
        .map(|i| {
            let n_cfg = rng.gen_range(1..=3);
            let preferred_configs = (0..n_cfg).map(|_| sample_config(rng)).collect();
            Subscription {
                id: SubscriptionId::new(i as u64),
                sub_type: match rng.gen_range(0..10) {
                    0..=1 => SubscriptionType::InternalProduction,
                    2 => SubscriptionType::InternalTest,
                    _ => SubscriptionType::External,
                },
                offering: if rng.gen_bool(0.7) {
                    Offering::Iaas
                } else {
                    Offering::Paas
                },
                home_cluster: rng.gen_range(0..config.cluster_count),
                preferred_configs,
            }
        })
        .collect()
}

/// Draw one VM skeleton — the loop body both generators share. Every RNG
/// call happens in a fixed order, so skeleton `i` is a pure function of
/// the post-subscription RNG state and `i`.
pub(crate) fn draw_skeleton(
    rng: &mut SmallRng,
    subscriptions: &[Subscription],
    config: &TraceConfig,
    horizon_ticks: u64,
) -> Skeleton {
    // Zipf-ish subscription popularity: square a uniform draw.
    let u: f64 = rng.gen::<f64>();
    let sub_idx = (((u * u) * subscriptions.len() as f64) as usize).min(subscriptions.len() - 1);
    let sub = &subscriptions[sub_idx];
    let vm_config = sub.preferred_configs[rng.gen_range(0..sub.preferred_configs.len())];

    let arrival = if rng.gen_bool(config.initial_fraction) {
        Timestamp::ZERO
    } else {
        Timestamp::from_ticks(rng.gen_range(0..horizon_ticks))
    };
    let lifetime = sample_lifetime(rng, vm_config);
    let departure_ticks = (arrival.ticks() + lifetime.ticks()).min(horizon_ticks);
    Skeleton {
        arrival,
        departure: Timestamp::from_ticks(departure_ticks.max(arrival.ticks() + 1)),
        sub_idx,
        config: vm_config,
    }
}

/// The deterministic behavior-template seed for a `(subscription, config)`
/// group — a pure function of the trace seed and the group key, so both
/// generators materialize identical templates regardless of the order
/// groups are first seen in.
pub(crate) fn template_seed_for(seed: u64, group_key: (u64, u64)) -> u64 {
    seed.wrapping_mul(0x5851_F42D_4C95_7F2D)
        .wrapping_add(group_key.0.wrapping_mul(31))
        .wrapping_add(group_key.1)
}

/// The first-fit placement state machine shared by both generators: per
/// cluster, the free vectors, the leftmost-fit index, and the departure
/// heap. Skeletons must be fed in the global `(arrival, draw index)`
/// order; servers grow on demand with globally sequential ids.
pub(crate) struct PlacementMachine {
    indexed: bool,
    places: Vec<Placement>,
    next_server_id: u64,
}

struct Placement {
    free: Vec<ResourceVec>,
    /// Leftmost-fit index mirroring `free` (maintained when indexed).
    index: FreeIndex,
    /// Min-heap of (departure tick, server index, demand as f64 bits).
    departures: BinaryHeap<std::cmp::Reverse<(u64, usize, [u64; 4])>>,
}

impl PlacementMachine {
    pub(crate) fn new(cluster_count: usize, scan: GenScan) -> Self {
        PlacementMachine {
            indexed: scan == GenScan::Indexed,
            places: (0..cluster_count)
                .map(|_| Placement {
                    free: Vec::new(),
                    index: FreeIndex::new(),
                    departures: BinaryHeap::new(),
                })
                .collect(),
            next_server_id: 0,
        }
    }

    /// Place one skeleton into `cluster_idx` (its subscription's home
    /// cluster): release departed VMs, first-fit, grow on miss. Returns the
    /// server *slot* within the cluster and, when the cluster grew, the id
    /// of the newly provisioned server.
    pub(crate) fn place(
        &mut self,
        cluster_idx: usize,
        hw_capacity: ResourceVec,
        sk: &Skeleton,
    ) -> (usize, Option<ServerId>) {
        let place = &mut self.places[cluster_idx];

        // Release VMs that departed before this arrival.
        while let Some(std::cmp::Reverse((dep, srv, bits))) = place.departures.peek().copied() {
            if dep > sk.arrival.ticks() {
                break;
            }
            place.departures.pop();
            let demand = ResourceVec([
                f64::from_bits(bits[0]),
                f64::from_bits(bits[1]),
                f64::from_bits(bits[2]),
                f64::from_bits(bits[3]),
            ]);
            place.free[srv] += demand;
            place.free[srv] = place.free[srv].min(&hw_capacity);
            if self.indexed {
                place.index.set(srv, place.free[srv]);
            }
        }

        // First-fit into an existing server; grow the cluster if none fits.
        let demand = sk.config.demand();
        let found = if self.indexed {
            place.index.first_fit(&demand)
        } else {
            place.free.iter().position(|f| demand.fits_within(f))
        };
        let (srv_idx, grew) = match found {
            Some(idx) => (idx, None),
            None => {
                place.free.push(hw_capacity);
                if self.indexed {
                    place.index.push(hw_capacity);
                }
                let id = ServerId::new(self.next_server_id);
                self.next_server_id += 1;
                (place.free.len() - 1, Some(id))
            }
        };
        place.free[srv_idx] -= demand;
        if self.indexed {
            place.index.set(srv_idx, place.free[srv_idx]);
        }
        place.departures.push(std::cmp::Reverse((
            sk.departure.ticks(),
            srv_idx,
            [
                demand.0[0].to_bits(),
                demand.0[1].to_bits(),
                demand.0[2].to_bits(),
                demand.0[3].to_bits(),
            ],
        )));
        (srv_idx, grew)
    }
}

/// How [`generate`] searches a cluster's servers for the first fit.
///
/// Mirrors `coach_sched::ScanStrategy`: the default indexed search is
/// decision-identical to the exhaustive scan (asserted by
/// `indexed_first_fit_matches_naive_scan`), which is retained for
/// differential testing.
///
/// Measured honestly: on the shipped trace configs the linear scan is
/// competitive (its churn keeps low-index servers feasible, so first-fit
/// usually hits within a few probes — ~3.1 s vs ~5.4 s of placement work
/// for the 1M-VM `large` config). The index stays the default because its
/// worst case is O(log servers) per placement instead of O(servers):
/// denser configurations (higher initial fraction, capacity-capped
/// clusters) push first-fit toward deep scans, and an 8 % cost on the
/// current million-VM run buys immunity to that quadratic cliff.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GenScan {
    /// Leftmost-fit free-headroom index: a segment tree over per-server
    /// free vectors whose nodes hold the elementwise max of their subtree,
    /// so full prefixes of the cluster (the common case under first-fit)
    /// are skipped in O(log servers) (default).
    #[default]
    Indexed,
    /// The seed's exhaustive linear scan, O(servers) per VM — the reference
    /// implementation.
    NaiveReference,
}

/// Leftmost-first-fit index over per-server free resource vectors.
///
/// A binary segment tree: leaf `i` holds server `i`'s free vector, and each
/// internal node the *elementwise max* of its children. A subtree can host a
/// demand only if the demand fits the node's elementwise max (a sound
/// pruning bound — the max overestimates any single server), so the search
/// descends left-first and backtracks, returning the lowest-index feasible
/// server. Feasibility uses the same [`ResourceVec::fits_within`] on the
/// same free values as the naive scan, so decisions are identical.
struct FreeIndex {
    n: usize,
    cap: usize,
    /// `2 * cap` nodes; leaves live at `cap..cap + n`, unused leaves ZERO.
    tree: Vec<ResourceVec>,
}

impl FreeIndex {
    fn new() -> Self {
        FreeIndex {
            n: 0,
            cap: 1,
            tree: vec![ResourceVec::ZERO; 2],
        }
    }

    fn leaf(&self, i: usize) -> ResourceVec {
        self.tree[self.cap + i]
    }

    fn bubble_up(&mut self, mut node: usize) {
        node /= 2;
        while node >= 1 {
            let combined = self.tree[2 * node].max(&self.tree[2 * node + 1]);
            if combined == self.tree[node] {
                // Ancestors already reflect this max — most updates touch a
                // leaf that doesn't dominate its subtree, so they stop here.
                return;
            }
            self.tree[node] = combined;
            node /= 2;
        }
    }

    /// Append a server with free vector `v`.
    fn push(&mut self, v: ResourceVec) {
        if self.n == self.cap {
            // Double the leaf capacity and rebuild bottom-up (amortized O(1)
            // per push).
            let new_cap = self.cap * 2;
            let mut tree = vec![ResourceVec::ZERO; 2 * new_cap];
            for i in 0..self.n {
                tree[new_cap + i] = self.leaf(i);
            }
            for node in (1..new_cap).rev() {
                tree[node] = tree[2 * node].max(&tree[2 * node + 1]);
            }
            self.cap = new_cap;
            self.tree = tree;
        }
        self.tree[self.cap + self.n] = v;
        self.n += 1;
        self.bubble_up(self.cap + self.n - 1);
    }

    /// Overwrite server `i`'s free vector.
    fn set(&mut self, i: usize, v: ResourceVec) {
        self.tree[self.cap + i] = v;
        self.bubble_up(self.cap + i);
    }

    /// Lowest-index server whose free vector fits `demand`, or `None`.
    fn first_fit(&self, demand: &ResourceVec) -> Option<usize> {
        if self.n == 0 {
            return None;
        }
        let leaf = self.search(demand)?;
        let i = leaf - self.cap;
        debug_assert!(i < self.n, "padding leaves are ZERO and cannot fit");
        Some(i)
    }

    /// Left-first depth-first search with bound pruning. The elementwise-max
    /// bound can pass at a node whose children both fail (CPU headroom from
    /// one child, memory from the other), so the search backtracks; pruning
    /// keeps it near O(log servers) when a prefix of the cluster is full.
    ///
    /// Iterative over the implicit tree: a passing node descends to its
    /// left child; a failing node moves to its right sibling, first
    /// climbing out of every subtree it is the right child of. That visits
    /// the nodes of a recursive left-first search in the same order. Being
    /// a loop, it inlines into [`PlacementMachine::place`]; as a separate
    /// recursive function its speed swung by ~25% with its code alignment.
    fn search(&self, demand: &ResourceVec) -> Option<usize> {
        let mut node = 1;
        loop {
            if demand.fits_within(&self.tree[node]) {
                if node >= self.cap {
                    return Some(node);
                }
                node *= 2;
                continue;
            }
            while node % 2 == 1 {
                node /= 2;
                if node == 0 {
                    return None;
                }
            }
            node += 1;
        }
    }
}

/// Generate a complete trace from the configuration.
///
/// # Example
///
/// ```
/// use coach_trace::{generate, TraceConfig};
/// let trace = generate(&TraceConfig::small(1));
/// assert_eq!(trace.vms.len(), 200);
/// assert_eq!(trace.clusters.len(), 3);
/// ```
///
/// # Panics
///
/// Panics if `vm_count` or `cluster_count` is zero.
pub fn generate(config: &TraceConfig) -> Trace {
    generate_with(config, GenScan::Indexed)
}

/// [`generate`] with an explicit first-fit scan strategy — the naive scan is
/// retained for differential testing against the free-headroom index.
pub fn generate_with(config: &TraceConfig, scan: GenScan) -> Trace {
    assert!(config.vm_count > 0 && config.cluster_count > 0);
    let mut rng = SmallRng::seed_from_u64(config.seed);

    // --- Clusters: heterogeneous hardware so that different clusters have
    // different bottleneck resources (Fig 5: C1 CPU-bound, C4 memory-bound).
    let mut clusters = build_clusters(config.cluster_count);

    // --- Subscriptions with stable behavior and preferred configurations.
    let subscriptions = draw_subscriptions(&mut rng, config);

    // --- Draw VM skeletons (arrival, lifetime, size, subscription).
    let horizon_ticks = config.horizon.ticks();
    let skeletons: Vec<Skeleton> = (0..config.vm_count)
        .map(|_| draw_skeleton(&mut rng, &subscriptions, config, horizon_ticks))
        .collect();

    // --- Place in arrival order with first-fit; clusters grow on demand.
    // The sort is stable, so equal arrivals keep draw order — the invariant
    // the streaming generator's bucketed re-draw relies on.
    let mut order: Vec<usize> = (0..skeletons.len()).collect();
    order.sort_by_key(|&i| skeletons[i].arrival);

    let mut machine = PlacementMachine::new(config.cluster_count, scan);

    // Behavior templates are per subscription × configuration group, created
    // lazily — this is what makes group history predictive (Fig 12).
    let mut templates: HashMap<(u64, u64), BehaviorTemplate> = HashMap::new();

    let mut vms = Vec::with_capacity(skeletons.len());

    for (vm_idx, &i) in order.iter().enumerate() {
        let sk = &skeletons[i];
        let sub = &subscriptions[sk.sub_idx];
        let cluster_idx = sub.home_cluster;
        let hw_capacity = clusters[cluster_idx].hardware.capacity;
        let (srv_idx, grew) = machine.place(cluster_idx, hw_capacity, sk);
        if let Some(id) = grew {
            clusters[cluster_idx].servers.push(id);
        }

        // Behavior: group template + per-VM jitter.
        let group_key = (sub.id.raw(), sk.config.config_key());
        let template = templates.entry(group_key).or_insert_with(|| {
            let mut trng = SmallRng::seed_from_u64(template_seed_for(config.seed, group_key));
            BehaviorTemplate::sample(&mut trng)
        });
        let profile = template.instantiate(config.seed ^ ((vm_idx as u64) << 1));

        vms.push(VmRecord {
            id: VmId::new(vm_idx as u64),
            subscription: sub.id,
            subscription_type: sub.sub_type,
            offering: sub.offering,
            config: sk.config,
            cluster: clusters[cluster_idx].id,
            server: clusters[cluster_idx].servers[srv_idx],
            arrival: sk.arrival,
            departure: sk.departure,
            profile,
        });
    }

    vms.sort_by_key(|vm| (vm.arrival, vm.id));

    Trace {
        clusters,
        vms,
        horizon: config.horizon,
    }
}

/// VM size catalog draw. Calibration targets (§2.1, Fig 3): median 4 cores /
/// < 16 GB; ~20 % of VMs ≥ 32 GB holding ~60 % of GB-hours.
fn sample_config(rng: &mut SmallRng) -> VmConfig {
    let cores = *weighted_choice(
        rng,
        &[
            (1u32, 22),
            (2, 26),
            (4, 30),
            (8, 12),
            (16, 6),
            (32, 3),
            (40, 1),
        ],
    );
    let gb_per_core = *weighted_choice(rng, &[(2.0f64, 20), (4.0, 60), (8.0, 12), (16.0, 8)]);
    // 0.25 Gbps and 16 GB of local SSD per core: network is plentiful but
    // can bind once CPU+memory are oversubscribed (Fig 5); SSD almost never
    // binds (<1% of the time in the paper) and strands the most (Fig 4).
    VmConfig::new(
        cores,
        f64::from(cores) * gb_per_core,
        f64::from(cores) * 0.25,
        f64::from(cores) * 16.0,
    )
}

/// Lifetime draw. Calibration targets (§2.1, Fig 2): ~28 % of VMs last
/// > 1 day but hold ~96 % of core-hours. Larger VMs skew longer, which pushes
/// > the GB-hour share of big VMs up (Fig 3).
fn sample_lifetime(rng: &mut SmallRng, config: VmConfig) -> SimDuration {
    let long_prob = if config.memory_gb >= 32.0 { 0.45 } else { 0.26 };
    if rng.gen_bool(long_prob) {
        // Long-running: log-uniform between 1 and 14 days.
        let log_min = (TICKS_PER_DAY as f64).ln();
        let log_max = (14.0 * TICKS_PER_DAY as f64).ln();
        let ticks = (rng.gen_range(log_min..log_max)).exp() as u64;
        SimDuration::from_ticks(ticks.max(TICKS_PER_DAY + 1))
    } else {
        // Short: log-uniform between 5 minutes and 1 day.
        let log_max = (TICKS_PER_DAY as f64).ln();
        let ticks = (rng.gen_range(0.0..log_max)).exp() as u64;
        SimDuration::from_ticks(ticks.max(1))
    }
}

fn weighted_choice<'a, T>(rng: &mut SmallRng, items: &'a [(T, u32)]) -> &'a T {
    let total: u32 = items.iter().map(|(_, w)| w).sum();
    let mut draw = rng.gen_range(0..total);
    for (item, w) in items {
        if draw < *w {
            return item;
        }
        draw -= w;
    }
    &items[items.len() - 1].0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_in_seed() {
        let a = generate(&TraceConfig::small(5));
        let b = generate(&TraceConfig::small(5));
        assert_eq!(a, b);
        let c = generate(&TraceConfig::small(6));
        assert_ne!(a, c);
    }

    #[test]
    fn indexed_first_fit_matches_naive_scan() {
        // The free-headroom index must place every VM on the same server as
        // the exhaustive scan — whole-trace equality covers placement,
        // server growth order, and ids. A denser single-cluster config
        // exercises deep backtracking (many near-full servers).
        for config in [
            TraceConfig::small(3),
            TraceConfig::small(77),
            TraceConfig {
                vm_count: 3000,
                cluster_count: 1,
                subscription_count: 40,
                ..TraceConfig::small(8)
            },
        ] {
            let indexed = generate_with(&config, GenScan::Indexed);
            let naive = generate_with(&config, GenScan::NaiveReference);
            assert_eq!(indexed, naive, "scan strategies diverged");
        }
    }

    #[test]
    fn free_index_finds_leftmost_and_handles_growth() {
        let mut idx = FreeIndex::new();
        assert_eq!(idx.first_fit(&ResourceVec::splat(1.0)), None);
        // Grow past several capacity doublings.
        for i in 0..9 {
            idx.push(ResourceVec::new(8.0, 32.0, 10.0, 100.0));
            assert_eq!(idx.leaf(i).cpu(), 8.0);
        }
        // Fill server 0's memory and server 1's cpu: a demand needing both
        // must skip to server 2 even though the root bound passes.
        idx.set(0, ResourceVec::new(8.0, 0.0, 10.0, 100.0));
        idx.set(1, ResourceVec::new(0.0, 32.0, 10.0, 100.0));
        let demand = ResourceVec::new(2.0, 4.0, 1.0, 16.0);
        assert_eq!(idx.first_fit(&demand), Some(2));
        // Leftmost wins once feasible again.
        idx.set(0, ResourceVec::new(8.0, 32.0, 10.0, 100.0));
        assert_eq!(idx.first_fit(&demand), Some(0));
        // Infeasible everywhere.
        assert_eq!(idx.first_fit(&ResourceVec::splat(1e6)), None);
    }

    #[test]
    fn large_config_is_million_vms() {
        let c = TraceConfig::large(1);
        assert_eq!(c.vm_count, 1_000_000);
        assert_eq!(c.horizon, Timestamp::from_days(14));
        assert!(c.cluster_count >= 10);
    }

    #[test]
    fn vms_sorted_and_within_horizon() {
        let t = generate(&TraceConfig::small(1));
        for w in t.vms.windows(2) {
            assert!(w[0].arrival <= w[1].arrival);
        }
        for vm in &t.vms {
            assert!(vm.departure <= t.horizon);
            assert!(vm.arrival < vm.departure);
        }
    }

    #[test]
    fn placement_never_overcommits_allocation() {
        let t = generate(&TraceConfig::small(2));
        for probe_h in [0u64, 24, 72, 120] {
            let probe = Timestamp::from_hours(probe_h);
            let mut per_server: HashMap<ServerId, ResourceVec> = HashMap::new();
            for vm in t.alive_at(probe) {
                *per_server.entry(vm.server).or_insert(ResourceVec::ZERO) += vm.demand();
            }
            for (srv, alloc) in per_server {
                let cluster = t
                    .clusters
                    .iter()
                    .find(|c| c.servers.contains(&srv))
                    .expect("server belongs to a cluster");
                assert!(
                    alloc.fits_within(&cluster.hardware.capacity),
                    "server {srv} overcommitted: {alloc} > {}",
                    cluster.hardware.capacity
                );
            }
        }
    }

    #[test]
    fn lifetime_marginals_match_paper() {
        let t = generate(&TraceConfig::paper_scale(3));
        let n = t.vms.len() as f64;
        let long: Vec<_> = t.vms.iter().filter(|v| v.is_long_running()).collect();
        let long_frac = long.len() as f64 / n;
        // Paper: 28% of VMs last > 1 day. Generator clips lifetimes at the
        // 2-week horizon so late arrivals can't be long; accept 15-45%.
        assert!(
            (0.15..0.45).contains(&long_frac),
            "long-running fraction {long_frac}"
        );

        let total_core_hours: f64 = t.vms.iter().map(|v| v.resource_hours().cpu()).sum();
        let long_core_hours: f64 = long.iter().map(|v| v.resource_hours().cpu()).sum();
        let share = long_core_hours / total_core_hours;
        // Paper: ~96%. Accept > 85%.
        assert!(share > 0.85, "long-running core-hour share {share}");
    }

    #[test]
    fn size_marginals_match_paper() {
        let t = generate(&TraceConfig::paper_scale(4));
        let n = t.vms.len() as f64;
        let big = t.vms.iter().filter(|v| v.config.memory_gb >= 32.0);
        let big_frac = big.clone().count() as f64 / n;
        // Paper: ~20% of VMs are >= 32 GB. Accept 10-40%.
        assert!(
            (0.10..0.40).contains(&big_frac),
            "big VM fraction {big_frac}"
        );

        let total_gb_hours: f64 = t.vms.iter().map(|v| v.resource_hours().memory()).sum();
        let big_gb_hours: f64 = big.map(|v| v.resource_hours().memory()).sum();
        let share = big_gb_hours / total_gb_hours;
        // Paper: >60% of GB-hours. Accept > 0.45.
        assert!(share > 0.45, "big VM GB-hour share {share}");

        let mut cores: Vec<u32> = t.vms.iter().map(|v| v.config.cores).collect();
        cores.sort_unstable();
        assert!(cores[cores.len() / 2] <= 4, "median cores too large");
    }

    #[test]
    fn subscriptions_reuse_configs_and_clusters() {
        let t = generate(&TraceConfig::small(7));
        let mut per_sub: HashMap<SubscriptionId, (Vec<u64>, Vec<ClusterId>)> = HashMap::new();
        for vm in &t.vms {
            let e = per_sub.entry(vm.subscription).or_default();
            e.0.push(vm.config.config_key());
            e.1.push(vm.cluster);
        }
        for (_, (configs, clusters_of_sub)) in per_sub {
            let uniq_cfg: std::collections::HashSet<_> = configs.iter().collect();
            assert!(uniq_cfg.len() <= 3, "subscription uses too many configs");
            let uniq_cl: std::collections::HashSet<_> = clusters_of_sub.iter().collect();
            assert_eq!(uniq_cl.len(), 1, "subscription spans clusters");
        }
    }

    #[test]
    fn clusters_have_diverse_ratios() {
        let t = generate(&TraceConfig::paper_scale(8));
        let ratios: Vec<f64> = t
            .clusters
            .iter()
            .map(|c| c.hardware.gb_per_core())
            .collect();
        let min = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = ratios.iter().cloned().fold(0.0, f64::max);
        assert!(max / min > 2.0, "cluster ratios not diverse: {ratios:?}");
    }

    #[test]
    fn same_group_uses_same_template() {
        // Two VMs of the same subscription+config must share temporal shape:
        // their peak hours should be within jitter of each other.
        let t = generate(&TraceConfig::small(9));
        let mut by_group: HashMap<u64, Vec<&VmRecord>> = HashMap::new();
        for vm in &t.vms {
            by_group
                .entry(vm.group_by_subscription_and_config())
                .or_default()
                .push(vm);
        }
        let mut checked = 0;
        for (_, vms) in by_group {
            if vms.len() < 2 {
                continue;
            }
            let a = &vms[0].profile.per_resource[0];
            let b = &vms[1].profile.per_resource[0];
            let mut d = (a.peak_hour - b.peak_hour).abs();
            if d > 12.0 {
                d = 24.0 - d;
            }
            assert!(
                d < 2.0,
                "same-group peak hours differ: {} vs {}",
                a.peak_hour,
                b.peak_hour
            );
            checked += 1;
        }
        assert!(checked > 5, "too few multi-VM groups: {checked}");
    }
}
