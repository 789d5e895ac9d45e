//! The cluster-level, long-term utilization model (§3.3).
//!
//! A random forest predicts, for each new VM, the **maximum** and the **PX
//! percentile** (default P95) utilization of every resource in every time
//! window, in 5 % buckets. Features are exactly the paper's: VM-specific
//! (configuration, weekday of allocation, offering) and customer-specific
//! (subscription type, history of previous VMs in the same subscription ×
//! configuration group). All inputs come from platform telemetry — no user
//! input.
//!
//! VMs whose group has no history are *not* oversubscribed (the model
//! returns `None`), the paper's conservative fallback.

use crate::forest::{ForestParams, RandomForest};
use coach_trace::VmRecord;
use coach_types::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Number of features fed to the forest.
pub const FEATURE_COUNT: usize = 12;

/// What a forest predicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TargetKind {
    /// The maximum utilization in the window (`Pmax_t` of Formula 2).
    WindowMax,
    /// The PX percentile of the window's per-day maxima (`PX_t` of
    /// Formula 1).
    WindowPercentile,
}

/// Model configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelConfig {
    /// Window partition (paper default: 6×4 h).
    pub tw: TimeWindows,
    /// Prediction percentile for the guaranteed portion (paper: P95).
    pub percentile: Percentile,
    /// Forest hyperparameters.
    pub forest: ForestParams,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig {
            tw: TimeWindows::paper_default(),
            percentile: Percentile::P95,
            forest: ForestParams::default(),
        }
    }
}

/// Predicted per-window demand fractions for one VM.
///
/// The per-window vectors live in inline-capable [`WindowVec`]s: for every
/// shipped partition (≤ 6 windows) a prediction is a single flat value with
/// no heap allocation, which is what lets million-VM demand derivation run
/// allocation-free per VM.
#[derive(Debug, Clone, PartialEq)]
pub struct DemandPrediction {
    /// Window partition the predictions are made for.
    pub tw: TimeWindows,
    /// Predicted maximum utilization per window (bucketed up).
    pub pmax: WindowVec,
    /// Predicted PX utilization per window (bucketed up).
    pub px: WindowVec,
}

impl DemandPrediction {
    /// Formula (1): the guaranteed (PA) fraction per resource = the max of
    /// the PX predictions across windows.
    pub fn pa_fraction(&self) -> ResourceVec {
        self.px.iter().fold(ResourceVec::ZERO, |acc, v| acc.max(v))
    }

    /// Formula (2): per-window oversubscribed (VA) fraction per resource.
    pub fn va_fraction(&self, window: usize) -> ResourceVec {
        self.pmax[window].saturating_sub(&self.pa_fraction())
    }
}

/// Per-group (subscription × configuration) historical statistics.
#[derive(Debug, Clone, PartialEq, Default)]
struct GroupStats {
    /// Number of historical VMs.
    count: usize,
    /// Mean per-day window max, per resource × window.
    mean: Vec<ResourceVec>,
    /// Mean lifetime peak per resource.
    mean_peak: ResourceVec,
}

/// The trained model: group history + one forest per (resource, target).
#[derive(Debug, Clone)]
pub struct UtilizationModel {
    config: ModelConfig,
    groups: HashMap<u64, GroupStats>,
    forests: HashMap<(ResourceKind, TargetKind), RandomForest>,
    training_rows: usize,
}

impl UtilizationModel {
    /// Train on historical VM records (the paper trains daily, offline, on
    /// aggregated telemetry; §4.5). Only VMs with ≥ 1 full day of data
    /// contribute targets.
    ///
    /// # Panics
    ///
    /// Panics if `history` contains no usable (≥ 1 day) VM.
    pub fn train(history: &[&VmRecord], config: ModelConfig) -> Self {
        // Pass 1: group statistics (these are also features). Window
        // statistics are derived lazily from each VM's profile — training
        // never materializes a utilization series.
        let mut groups: HashMap<u64, GroupStats> = HashMap::new();
        let usable: Vec<(&&VmRecord, ResourceWindowStats)> = history
            .iter()
            .filter(|vm| vm.lifetime() >= SimDuration::from_days(1))
            .map(|vm| (vm, vm.window_stats(config.tw)))
            .collect();
        assert!(!usable.is_empty(), "no usable training VMs (need >= 1 day)");

        for (vm, stats) in &usable {
            let key = vm.group_by_subscription_and_config();
            let entry = groups.entry(key).or_insert_with(|| GroupStats {
                count: 0,
                mean: vec![ResourceVec::ZERO; config.tw.count()],
                mean_peak: ResourceVec::ZERO,
            });
            // Per-VM mean of per-day window maxima; peak across all.
            let mut vm_mean = vec![ResourceVec::ZERO; config.tw.count()];
            let mut vm_peak = ResourceVec::ZERO;
            let days = stats.days().max(1) as f64;
            for d in 0..stats.days() {
                for (w, slot) in vm_mean.iter_mut().enumerate() {
                    let v = stats.day_window_max(d, w);
                    *slot += v / days;
                    vm_peak = vm_peak.max(&v);
                }
            }
            // Incremental mean over VMs.
            let n = entry.count as f64;
            for (mean, vm) in entry.mean.iter_mut().zip(&vm_mean) {
                *mean = (*mean * n + *vm) / (n + 1.0);
            }
            entry.mean_peak = (entry.mean_peak * n + vm_peak) / (n + 1.0);
            entry.count += 1;
        }

        // Pass 2: training rows. Features must only use *other* VMs'
        // history in principle; using the full-pass group means is a
        // standard simplification that keeps training O(n).
        let mut xs: HashMap<(ResourceKind, TargetKind), Vec<Vec<f64>>> = HashMap::new();
        let mut ys: HashMap<(ResourceKind, TargetKind), Vec<f64>> = HashMap::new();
        let mut rows = 0usize;

        for (vm, window_stats) in &usable {
            let key = vm.group_by_subscription_and_config();
            let stats = &groups[&key];
            let meta = VmMeta::from(**vm);
            for kind in ResourceKind::ALL {
                let ws = window_stats.get(kind);
                for w in config.tw.indices() {
                    let feats = features(&meta, kind, w, Some(stats));
                    // Targets straight from the windowed statistics.
                    let t_max = f64::from(ws.lifetime_max(w));
                    let t_px = f64::from(ws.maxima_percentile(w, config.percentile));
                    for (target, y) in [
                        (TargetKind::WindowMax, t_max),
                        (TargetKind::WindowPercentile, t_px),
                    ] {
                        xs.entry((kind, target)).or_default().push(feats.clone());
                        ys.entry((kind, target)).or_default().push(y);
                        rows += 1;
                    }
                }
            }
        }

        let forests = xs
            .into_iter()
            .map(|(k, x)| {
                let y = &ys[&k];
                (k, RandomForest::fit(&x, y, config.forest))
            })
            .collect();

        UtilizationModel {
            config,
            groups,
            forests,
            training_rows: rows,
        }
    }

    /// Predict per-window demand for a new VM, or `None` if its group has no
    /// history (the conservative no-oversubscription fallback).
    pub fn predict(&self, vm: &VmRecord) -> Option<DemandPrediction> {
        self.predict_meta(&VmMeta::from(vm))
    }

    /// Predict from request-time metadata alone (no observed series needed)
    /// — what the cluster manager calls when a VM creation request arrives.
    pub fn predict_meta(&self, vm: &VmMeta) -> Option<DemandPrediction> {
        let stats = self.groups.get(&vm.group_key())?;
        let tw = self.config.tw;
        let mut pmax = WindowVec::new();
        let mut px = WindowVec::new();
        for w in tw.indices() {
            let mut vmax = ResourceVec::ZERO;
            let mut vpx = ResourceVec::ZERO;
            for kind in ResourceKind::ALL {
                let feats = features(vm, kind, w, Some(stats));
                vmax[kind] = self.forests[&(kind, TargetKind::WindowMax)]
                    .predict_bucketed(&feats)
                    .fraction();
                vpx[kind] = self.forests[&(kind, TargetKind::WindowPercentile)]
                    .predict_bucketed(&feats)
                    .fraction();
            }
            // Invariant: the max prediction dominates the percentile.
            vmax = vmax.max(&vpx);
            pmax.push(vmax);
            px.push(vpx);
        }
        Some(DemandPrediction { tw, pmax, px })
    }

    /// The *oracle* prediction computed from a VM's own utilization — the
    /// "ideal allocation" baseline of the Fig 19 accuracy experiment.
    ///
    /// Derived lazily via [`VmRecord::window_stats`]: the per-window maxima
    /// and percentile come straight from the profile's closed form, without
    /// materializing the 5-minute series. [`UtilizationModel::oracle_eager`]
    /// is the retained materializing path for differential testing.
    pub fn oracle(vm: &VmRecord, tw: TimeWindows, percentile: Percentile) -> DemandPrediction {
        Self::oracle_from_stats(&vm.window_stats(tw), percentile)
    }

    /// [`UtilizationModel::oracle`] through the pre-redesign eager pipeline,
    /// ported verbatim: materialize the full 5-minute series, build nested
    /// per-day `Option` grids per resource, collect a maxima vector per
    /// `(window, resource)`, and take its fold/percentile. Kept only as the
    /// reference the lazy path is differentially tested against (and as the
    /// baseline the derivation-speedup floor measures).
    pub fn oracle_eager(
        vm: &VmRecord,
        tw: TimeWindows,
        percentile: Percentile,
    ) -> DemandPrediction {
        // The old `UtilSeries::window_max_per_day`, preserved here after
        // its replacement by the flat one-pass `WindowStats`.
        fn window_max_per_day(s: &UtilSeries, tw: TimeWindows) -> Vec<Vec<Option<f32>>> {
            if s.is_empty() {
                return Vec::new();
            }
            let first_day = s.start().day();
            let last_day = Timestamp::from_ticks(s.end().ticks().saturating_sub(1)).day();
            let days = (last_day - first_day + 1) as usize;
            let mut out = vec![vec![None; tw.count()]; days];
            for (i, &v) in s.samples().iter().enumerate() {
                let t = Timestamp::from_ticks(s.start().ticks() + i as u64);
                let d = (t.day() - first_day) as usize;
                let w = tw.window_of(t);
                let slot = &mut out[d][w];
                *slot = Some(slot.map_or(v, |prev: f32| prev.max(v)));
            }
            out
        }

        // The old `window_maxima`: per-(day, window) `ResourceVec` grid,
        // uncovered windows as zero.
        let series = vm.materialized();
        let mut per_day: Vec<Vec<ResourceVec>> = Vec::new();
        for kind in ResourceKind::ALL {
            let grid = window_max_per_day(series.get(kind), tw);
            if per_day.is_empty() {
                per_day = vec![vec![ResourceVec::ZERO; tw.count()]; grid.len()];
            }
            for (d, day) in grid.iter().enumerate() {
                for (w, v) in day.iter().enumerate() {
                    per_day[d][w][kind] = f64::from(v.unwrap_or(0.0));
                }
            }
        }

        let mut pmax = WindowVec::new();
        let mut px = WindowVec::new();
        for w in tw.indices() {
            let mut vmax = ResourceVec::ZERO;
            let mut vpx = ResourceVec::ZERO;
            for kind in ResourceKind::ALL {
                let maxima: Vec<f32> = per_day.iter().map(|d| d[w][kind] as f32).collect();
                vmax[kind] = f64::from(maxima.iter().copied().fold(0.0f32, f32::max));
                vpx[kind] = f64::from(coach_types::series::percentile_of(&maxima, percentile));
            }
            pmax.push(vmax);
            px.push(vpx);
        }
        DemandPrediction { tw, pmax, px }
    }

    /// Build the oracle prediction from precomputed window statistics —
    /// `Pmax_t` is the lifetime window max, `PX_t` the percentile of the
    /// per-day window maxima (Formulas 1–2).
    pub fn oracle_from_stats(
        stats: &ResourceWindowStats,
        percentile: Percentile,
    ) -> DemandPrediction {
        let tw = stats.tw();
        let mut pmax = WindowVec::new();
        let mut px = WindowVec::new();
        for w in tw.indices() {
            pmax.push(stats.lifetime_window_max(w));
            px.push(stats.maxima_percentile(w, percentile));
        }
        DemandPrediction { tw, pmax, px }
    }

    /// Model configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// Number of (feature row, target) pairs used in training.
    pub fn training_rows(&self) -> usize {
        self.training_rows
    }

    /// Approximate model memory (forests + group table), §4.5.
    pub fn approx_size_bytes(&self) -> usize {
        let forest_bytes: usize = self.forests.values().map(|f| f.approx_size_bytes()).sum();
        let group_bytes = self.groups.len()
            * (std::mem::size_of::<u64>()
                + std::mem::size_of::<GroupStats>()
                + self.config.tw.count() * std::mem::size_of::<ResourceVec>());
        forest_bytes + group_bytes
    }

    /// Number of groups with history.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }
}

/// Request-time metadata of a VM: everything the prediction model may use
/// (§3.3 — "the existing platform telemetry already collects all these
/// inputs in the background, requiring no user input").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VmMeta {
    /// Requested size.
    pub config: VmConfig,
    /// Customer subscription.
    pub subscription: SubscriptionId,
    /// Subscription type.
    pub subscription_type: SubscriptionType,
    /// Offering (IaaS/PaaS).
    pub offering: Offering,
    /// Allocation time (weekday features).
    pub arrival: Timestamp,
}

impl VmMeta {
    /// The subscription × configuration grouping key (Fig 12's grouping 3).
    pub fn group_key(&self) -> u64 {
        self.subscription
            .raw()
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(self.config.config_key())
    }
}

impl From<&VmRecord> for VmMeta {
    fn from(vm: &VmRecord) -> VmMeta {
        VmMeta {
            config: vm.config,
            subscription: vm.subscription,
            subscription_type: vm.subscription_type,
            offering: vm.offering,
            arrival: vm.arrival,
        }
    }
}

/// Build the feature row for (VM, resource, window).
fn features(
    vm: &VmMeta,
    kind: ResourceKind,
    window: usize,
    group: Option<&GroupStats>,
) -> Vec<f64> {
    let weekday = vm.arrival.weekday();
    let (g_count, g_mean, g_peak) = match group {
        Some(g) => (
            (1.0 + g.count as f64).ln(),
            g.mean[window][kind],
            g.mean_peak[kind],
        ),
        None => (0.0, 0.0, 0.0),
    };
    vec![
        f64::from(vm.config.cores).ln(),
        vm.config.memory_gb.ln(),
        vm.config.gb_per_core(),
        weekday.index() as f64,
        if vm.arrival.is_weekend() { 1.0 } else { 0.0 },
        match vm.offering {
            Offering::Iaas => 1.0,
            Offering::Paas => 0.0,
        },
        match vm.subscription_type {
            SubscriptionType::InternalProduction => 0.0,
            SubscriptionType::InternalTest => 1.0,
            SubscriptionType::External => 2.0,
        },
        window as f64,
        kind.index() as f64,
        g_count,
        g_mean,
        g_peak,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use coach_trace::{generate, TraceConfig};

    fn trained() -> (coach_trace::Trace, UtilizationModel) {
        let trace = generate(&TraceConfig::small(81));
        let (train, _) = trace.split_by_arrival(Timestamp::from_days(4));
        let model = UtilizationModel::train(
            &train,
            ModelConfig {
                forest: ForestParams {
                    n_trees: 12,
                    ..ForestParams::default()
                },
                ..ModelConfig::default()
            },
        );
        (trace, model)
    }

    #[test]
    fn feature_row_has_declared_count() {
        let trace = generate(&TraceConfig::small(82));
        let vm = &trace.vms[0];
        assert_eq!(
            features(&VmMeta::from(vm), ResourceKind::Cpu, 0, None).len(),
            FEATURE_COUNT
        );
    }

    #[test]
    fn predictions_are_bucketed_and_consistent() {
        let (trace, model) = trained();
        let mut predicted = 0;
        for vm in trace.vms.iter().rev().take(50) {
            let Some(p) = model.predict(vm) else { continue };
            predicted += 1;
            assert_eq!(p.pmax.len(), 6);
            for w in 0..6 {
                for kind in ResourceKind::ALL {
                    let m = p.pmax[w][kind];
                    let x = p.px[w][kind];
                    assert!((0.0..=1.0).contains(&m));
                    assert!(m >= x - 1e-9, "max {m} < px {x}");
                    // 5% bucket grid.
                    assert!((m * 20.0 - (m * 20.0).round()).abs() < 1e-6);
                }
            }
            // Formula 1/2 invariants.
            let pa = p.pa_fraction();
            for w in 0..6 {
                assert!(p.px[w].fits_within(&pa));
                assert!(p.va_fraction(w).is_valid());
            }
        }
        assert!(predicted > 5, "model predicted only {predicted} VMs");
    }

    #[test]
    fn unknown_group_returns_none() {
        let (trace, model) = trained();
        let mut vm = trace.vms[0].clone();
        vm.subscription = SubscriptionId::new(9_999_999);
        assert!(model.predict(&vm).is_none());
    }

    #[test]
    fn oracle_invariants() {
        let trace = generate(&TraceConfig::small(83));
        let vm = trace.long_running().next().unwrap();
        let o = UtilizationModel::oracle(vm, TimeWindows::paper_default(), Percentile::P95);
        for w in 0..6 {
            for kind in ResourceKind::ALL {
                assert!(o.pmax[w][kind] >= o.px[w][kind] - 1e-6);
            }
        }
    }

    #[test]
    fn predictions_track_oracle_for_memory() {
        // The model must beat a naive 100%-allocation guess: mean absolute
        // error vs the oracle PA fraction should be well under 0.5.
        let (trace, model) = trained();
        let tw = TimeWindows::paper_default();
        let mut err_sum = 0.0;
        let mut n = 0usize;
        for vm in trace.long_running() {
            if vm.arrival < Timestamp::from_days(4) {
                continue; // training half
            }
            let Some(p) = model.predict(vm) else { continue };
            let o = UtilizationModel::oracle(vm, tw, Percentile::P95);
            err_sum += (p.pa_fraction()[ResourceKind::Memory]
                - o.pa_fraction()[ResourceKind::Memory])
                .abs();
            n += 1;
        }
        assert!(n > 3, "too few test VMs: {n}");
        let mae = err_sum / n as f64;
        assert!(mae < 0.25, "memory PA MAE too high: {mae}");
    }

    #[test]
    fn model_size_and_rows_reported() {
        let (_, model) = trained();
        assert!(model.training_rows() > 0);
        assert!(model.approx_size_bytes() > 0);
        assert!(model.group_count() > 0);
    }

    #[test]
    #[should_panic(expected = "usable")]
    fn training_needs_long_vms() {
        let _ = UtilizationModel::train(&[], ModelConfig::default());
    }
}
