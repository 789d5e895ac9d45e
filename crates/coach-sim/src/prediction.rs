//! Prediction sources for the cluster simulations, behind the object-safe
//! [`Predictor`] trait.
//!
//! The experiments (`packing_experiment`, `policy_sweep`,
//! `predictor_accuracy`) take `&dyn Predictor`, so adding a new prediction
//! source is implementing one trait — no enum to extend, no experiment code
//! to touch. Three sources ship:
//!
//! * [`Oracle`] — percentiles of each VM's own utilization, derived
//!   *lazily* from the behavior profile's closed form
//!   ([`VmRecord::window_stats`]) and cached per `(VM, percentile)` so the
//!   parallel four-policy sweep derives each VM once;
//! * [`Model`] — the trained long-term random forest (§3.3);
//! * [`NaiveReference`] — the old eager path (materialize the 5-minute
//!   series, walk its samples), retained purely for differential testing
//!   against [`Oracle`].

use coach_predict::{DemandPrediction, UtilizationModel};
use coach_trace::VmRecord;
use coach_types::prelude::*;
use std::collections::HashMap;
use std::sync::Mutex;

/// Where per-VM demand predictions come from.
///
/// Object-safe and `Sync` (experiments fan policies out across threads and
/// share one predictor). Implementations must be deterministic in
/// `(vm, percentile)` — replays assert decision identity across runs.
pub trait Predictor: Sync {
    /// The window partition predictions are expressed over.
    fn time_windows(&self) -> TimeWindows;

    /// Predict per-window demand fractions for a VM, or `None` for the
    /// conservative no-oversubscription fallback.
    ///
    /// `percentile` selects the PX of the guaranteed portion where the
    /// source supports it; model-backed sources use the percentile they
    /// were trained with (the model *is* the artifact under test).
    fn predict(&self, vm: &VmRecord, percentile: Percentile) -> Option<DemandPrediction>;

    /// Predict a whole batch of VMs at once, returning one slot per input
    /// VM **in input order**.
    ///
    /// The default forwards each VM to [`Predictor::predict`]. Sources may
    /// override it — [`Oracle`] derives the batch without touching its
    /// per-VM memo — but every override must return exactly what the
    /// per-item loop would:
    /// `predict_batch` is a throughput entry point, never a semantic one
    /// (the `predict_batch_matches_per_item_loop` differential test holds
    /// all shipped sources to this).
    fn predict_batch(
        &self,
        vms: &[&VmRecord],
        percentile: Percentile,
    ) -> Vec<Option<DemandPrediction>> {
        vms.iter().map(|vm| self.predict(vm, percentile)).collect()
    }
}

/// Conservative 5 % bucket rounding, as the platform applies to every
/// oracle-derived fraction.
fn bucket_prediction(p: &mut DemandPrediction) {
    for v in p.pmax.iter_mut().chain(p.px.iter_mut()) {
        for kind in ResourceKind::ALL {
            v[kind] = bucket_up(v[kind]);
        }
    }
}

/// Short VMs (< 1 day) have no usable history and are never oversubscribed.
fn too_short(vm: &VmRecord) -> bool {
    vm.lifetime() < SimDuration::from_days(1)
}

/// Oracle percentiles computed from each VM's own future utilization — the
/// "ideal allocation" reference of Fig 19 and an upper bound for the
/// packing experiments.
///
/// Derivations go through the lazy analytic [`VmRecord::window_stats`] path
/// and are memoized: `policy_sweep` replays the same trace under four
/// policies concurrently, and the cache collapses those four derivations
/// into one. Single-pass consumers (one prediction per VM, e.g. a batch
/// derive) gain nothing from the memo — it is bounded and correct either
/// way, but a fresh `Oracle` per pass keeps its footprint transient.
#[derive(Debug)]
pub struct Oracle {
    tw: TimeWindows,
    cache: Mutex<HashMap<(VmId, u64, u64), DemandPrediction>>,
}

impl Oracle {
    /// Derivations cached before the memo stops growing. Deliberately below
    /// million-VM scale: the memo exists for multi-policy reuse on
    /// evaluation-sized traces, not to mirror a whole million-VM replay in
    /// memory. A memoized prediction for the shipped 6-window partition
    /// stays inline (no spill past [`WindowVec::INLINE`]), so an entry is
    /// the key plus `size_of::<DemandPrediction>()` ≈ 0.5 kB of table
    /// payload — `memo_entries_for_paper_windows_stay_inline_and_small`
    /// pins the exact figure — and the cap holds the memo near ~128 MB.
    const MAX_CACHED: usize = 1 << 18;

    /// An oracle over the given window partition.
    pub fn new(tw: TimeWindows) -> Self {
        Oracle {
            tw,
            cache: Mutex::new(HashMap::new()),
        }
    }

    /// Always `(0, 0)`. The envelope-table cache these counters measured
    /// never recorded a hit and is gone; the method is kept only so the
    /// `perfbench` harness, which reports `derive.envelope_hit_share`,
    /// compiles unchanged.
    pub fn envelope_counters(&self) -> (u64, u64) {
        (0, 0)
    }

    /// Cache discriminator beyond the VM id: ids restart at 0 in every
    /// generated trace, so an `Oracle` shared across traces must not serve
    /// trace A's derivation for trace B's VM. Folding the lifetime and the
    /// full behavior profile (the only inputs of the derivation) into the
    /// key makes a stale hit require an identical derivation anyway.
    fn vm_fingerprint(vm: &VmRecord) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a style fold
        let mut mix = |v: u64| {
            h = (h ^ v).wrapping_mul(0x0000_0100_0000_01B3);
        };
        mix(vm.arrival.ticks());
        mix(vm.departure.ticks());
        mix(vm.profile.noise_seed);
        mix(vm.profile.kind as u64);
        for p in &vm.profile.per_resource {
            for v in [
                p.base,
                p.amplitude,
                p.peak_hour,
                p.peak_width_hours,
                p.noise,
                p.weekend_factor,
                p.daily_drift,
            ] {
                mix(v.to_bits());
            }
        }
        h
    }
}

impl Predictor for Oracle {
    fn time_windows(&self) -> TimeWindows {
        self.tw
    }

    fn predict(&self, vm: &VmRecord, percentile: Percentile) -> Option<DemandPrediction> {
        if too_short(vm) {
            return None;
        }
        let key = (
            vm.id,
            percentile.value().to_bits(),
            Self::vm_fingerprint(vm),
        );
        if let Some(hit) = self.cache.lock().expect("oracle cache").get(&key) {
            return Some(hit.clone());
        }
        let mut p = UtilizationModel::oracle(vm, self.tw, percentile);
        bucket_prediction(&mut p);
        let mut cache = self.cache.lock().expect("oracle cache");
        if cache.len() < Self::MAX_CACHED {
            cache.insert(key, p.clone());
        }
        Some(p)
    }

    /// The cold-path batch derivation: a plain map over the batch that
    /// bypasses the `(VM, percentile)` memo in both directions. A batch
    /// derives each VM exactly once, so fingerprinting and locking per VM
    /// buys nothing, and a large replay must not leave a memo of up to
    /// 2^18 entries (about 0.5 kB each) behind. Skipping the memo cannot
    /// change results: it only stores what [`UtilizationModel::oracle`]
    /// derives.
    fn predict_batch(
        &self,
        vms: &[&VmRecord],
        percentile: Percentile,
    ) -> Vec<Option<DemandPrediction>> {
        vms.iter()
            .map(|vm| {
                if too_short(vm) {
                    return None;
                }
                let mut p = UtilizationModel::oracle(vm, self.tw, percentile);
                bucket_prediction(&mut p);
                Some(p)
            })
            .collect()
    }
}

/// The trained long-term utilization model (§3.3); VMs without group
/// history get `None` (conservatively not oversubscribed).
#[derive(Debug)]
pub struct Model<'a> {
    model: &'a UtilizationModel,
}

impl<'a> Model<'a> {
    /// Wrap a trained model.
    pub fn new(model: &'a UtilizationModel) -> Self {
        Model { model }
    }
}

impl Predictor for Model<'_> {
    fn time_windows(&self) -> TimeWindows {
        self.model.config().tw
    }

    /// The percentile argument is ignored: the model predicts at the
    /// percentile it was trained with (re-deriving from the oracle would
    /// bypass the artifact under test).
    fn predict(&self, vm: &VmRecord, _percentile: Percentile) -> Option<DemandPrediction> {
        self.model.predict(vm)
    }
}

/// The pre-redesign eager oracle: materialize each VM's full 5-minute
/// series and walk its samples. Functionally identical to [`Oracle`] (the
/// differential test `lazy_oracle_matches_eager_reference` holds them
/// equal) but orders of magnitude more expensive — exists only as the
/// reference end of that comparison.
#[derive(Debug, Clone, Copy)]
pub struct NaiveReference {
    tw: TimeWindows,
}

impl NaiveReference {
    /// An eager reference oracle over the given window partition.
    pub fn new(tw: TimeWindows) -> Self {
        NaiveReference { tw }
    }
}

impl Predictor for NaiveReference {
    fn time_windows(&self) -> TimeWindows {
        self.tw
    }

    fn predict(&self, vm: &VmRecord, percentile: Percentile) -> Option<DemandPrediction> {
        if too_short(vm) {
            return None;
        }
        let mut p = UtilizationModel::oracle_eager(vm, self.tw, percentile);
        bucket_prediction(&mut p);
        Some(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coach_trace::{generate, TraceConfig};

    #[test]
    fn oracle_skips_short_vms_and_buckets_long_ones() {
        let trace = generate(&TraceConfig::small(95));
        let src = Oracle::new(TimeWindows::paper_default());
        let short = trace
            .vms
            .iter()
            .find(|v| v.lifetime() < SimDuration::from_days(1))
            .expect("a short vm");
        assert!(src.predict(short, Percentile::P95).is_none());

        let long = trace.long_running().next().expect("a long vm");
        let p = src.predict(long, Percentile::P95).expect("prediction");
        for v in p.pmax.iter().chain(p.px.iter()) {
            for kind in ResourceKind::ALL {
                let x = v[kind];
                assert!(
                    (x * 20.0 - (x * 20.0).round()).abs() < 1e-6,
                    "{x} not bucketed"
                );
            }
        }
        // Cached result is identical.
        let again = src.predict(long, Percentile::P95).expect("cached");
        assert_eq!(p, again);
    }

    #[test]
    fn lower_percentile_means_lower_pa() {
        let trace = generate(&TraceConfig::small(96));
        let src = Oracle::new(TimeWindows::paper_default());
        let vm = trace.long_running().next().unwrap();
        let p95 = src.predict(vm, Percentile::P95).unwrap();
        let p50 = src.predict(vm, Percentile::P50).unwrap();
        for kind in ResourceKind::ALL {
            assert!(
                p50.pa_fraction()[kind] <= p95.pa_fraction()[kind] + 1e-9,
                "{kind}: p50 pa > p95 pa"
            );
        }
    }

    /// The tentpole acceptance: lazy `WindowStats`-based oracle predictions
    /// equal the eager materialized path for every long-running VM across
    /// several seeds and percentiles.
    #[test]
    fn lazy_oracle_matches_eager_reference() {
        let tw = TimeWindows::paper_default();
        for seed in [31u64, 32, 33] {
            let trace = generate(&TraceConfig::small(seed));
            let lazy = Oracle::new(tw);
            let eager = NaiveReference::new(tw);
            let mut compared = 0usize;
            for vm in &trace.vms {
                for percentile in [Percentile::P95, Percentile::P50] {
                    match (lazy.predict(vm, percentile), eager.predict(vm, percentile)) {
                        (None, None) => {}
                        (Some(a), Some(b)) => {
                            compared += 1;
                            for w in tw.indices() {
                                for kind in ResourceKind::ALL {
                                    assert!(
                                        (a.pmax[w][kind] - b.pmax[w][kind]).abs() <= 1e-12,
                                        "seed {seed} vm {} {kind} w{w} pmax: lazy {} eager {}",
                                        vm.id,
                                        a.pmax[w][kind],
                                        b.pmax[w][kind]
                                    );
                                    assert!(
                                        (a.px[w][kind] - b.px[w][kind]).abs() <= 1e-12,
                                        "seed {seed} vm {} {kind} w{w} px: lazy {} eager {}",
                                        vm.id,
                                        a.px[w][kind],
                                        b.px[w][kind]
                                    );
                                }
                            }
                        }
                        (a, b) => panic!(
                            "seed {seed} vm {}: lazy {:?} vs eager {:?}",
                            vm.id,
                            a.is_some(),
                            b.is_some()
                        ),
                    }
                }
            }
            assert!(compared > 50, "seed {seed}: only {compared} comparisons");
        }
    }

    #[test]
    fn oracle_cache_distinguishes_traces_with_colliding_vm_ids() {
        // VM ids restart at 0 in every generated trace; an Oracle reused
        // across traces must key on more than the id.
        let tw = TimeWindows::paper_default();
        let a = generate(&TraceConfig::small(41));
        let b = generate(&TraceConfig::small(42));
        let oracle = Oracle::new(tw);
        let reference = NaiveReference::new(tw);
        let mut checked = 0;
        for (va, vb) in a.vms.iter().zip(&b.vms) {
            assert_eq!(va.id, vb.id, "trace vm ids are expected to collide");
            let first = oracle.predict(va, Percentile::P95);
            let second = oracle.predict(vb, Percentile::P95);
            assert_eq!(second, reference.predict(vb, Percentile::P95));
            if let (Some(x), Some(y)) = (first, second) {
                checked += usize::from(x != y);
            }
        }
        assert!(checked > 5, "colliding ids never diverged: {checked}");
    }

    /// `predict_batch` is a throughput entry point, never a semantic one:
    /// for every shipped source it must equal the per-item loop exactly.
    /// `Oracle` overrides it (memo bypassed), so this differentially pins
    /// the override; `Model` and `NaiveReference` exercise the default
    /// loop.
    #[test]
    fn predict_batch_matches_per_item_loop() {
        use coach_predict::{ForestParams, ModelConfig};

        let tw = TimeWindows::paper_default();
        let trace = generate(&TraceConfig::small(97));
        let vms: Vec<&VmRecord> = trace.vms.iter().collect();

        let model = UtilizationModel::train(
            &vms,
            ModelConfig {
                tw,
                percentile: Percentile::P95,
                forest: ForestParams {
                    n_trees: 4,
                    ..ForestParams::default()
                },
            },
        );

        let oracle = Oracle::new(tw);
        let trained = Model::new(&model);
        let reference = NaiveReference::new(tw);
        let sources: Vec<(&str, &dyn Predictor)> = vec![
            ("oracle", &oracle),
            ("model", &trained),
            ("naive", &reference),
        ];
        for (name, src) in sources {
            for percentile in [Percentile::P95, Percentile::P50] {
                let batch = src.predict_batch(&vms, percentile);
                assert_eq!(batch.len(), vms.len(), "{name}: batch length");
                for (vm, got) in vms.iter().zip(&batch) {
                    let want = src.predict(vm, percentile);
                    assert_eq!(*got, want, "{name} vm {}: batch != per-item", vm.id);
                }
            }
        }
    }

    /// The memo bypass is the `Oracle::predict_batch` override's only reason
    /// to exist: a batch derive must leave the `(VM, percentile)` memo
    /// empty, while the per-item path still fills it.
    #[test]
    fn predict_batch_leaves_the_memo_empty() {
        let trace = generate(&TraceConfig::small(99));
        let vms: Vec<&VmRecord> = trace.vms.iter().collect();
        let oracle = Oracle::new(TimeWindows::paper_default());
        let memo_len = || oracle.cache.lock().expect("oracle cache").len();

        let batch = oracle.predict_batch(&vms, Percentile::P95);
        assert!(batch.iter().any(Option::is_some), "batch derived nothing");
        assert_eq!(memo_len(), 0, "predict_batch filled the memo");

        let long = trace.long_running().next().expect("a long vm");
        oracle.predict(long, Percentile::P95).expect("prediction");
        assert_eq!(memo_len(), 1, "per-item predict no longer memoizes");
    }

    /// Pins the memo sizing arithmetic that justifies [`Oracle::MAX_CACHED`]:
    /// a prediction for the shipped 6-window partition stays inline (no
    /// [`WindowVec`] spill), and the per-entry estimate the cap comment
    /// cites — key + inline prediction — stays a hair under 0.5 kB, keeping
    /// the full memo near ~128 MB.
    #[test]
    fn memo_entries_for_paper_windows_stay_inline_and_small() {
        use std::mem::size_of;

        let trace = generate(&TraceConfig::small(98));
        let oracle = Oracle::new(TimeWindows::paper_default());
        let vm = trace.long_running().next().expect("a long vm");
        let p = oracle.predict(vm, Percentile::P95).expect("prediction");
        assert!(
            !p.pmax.spilled() && !p.px.spilled(),
            "6-window predictions must stay inline"
        );

        let entry = size_of::<(VmId, u64, u64)>() + size_of::<DemandPrediction>();
        assert!(
            (256..=512).contains(&entry),
            "memo entry estimate drifted from ~0.5 kB: {entry} B"
        );
        let total_mb = (Oracle::MAX_CACHED * entry) >> 20;
        assert!(
            (64..=160).contains(&total_mb),
            "capped memo no longer ~128 MB: {total_mb} MB"
        );
    }

    #[test]
    fn predictors_are_object_safe() {
        let oracle = Oracle::new(TimeWindows::paper_default());
        let reference = NaiveReference::new(TimeWindows::paper_default());
        let sources: Vec<&dyn Predictor> = vec![&oracle, &reference];
        for s in sources {
            assert_eq!(s.time_windows().count(), 6);
        }
    }
}
