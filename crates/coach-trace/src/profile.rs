//! Per-VM temporal behavior profiles.
//!
//! The paper's §2.3 characterization found that VM utilization is driven by
//! stable, subscription-specific temporal patterns: daily peaks/valleys in
//! consistent 4-hour windows, narrow memory ranges, wide CPU ranges, and
//! strong similarity between VMs of the same subscription × configuration
//! group (Fig 12). We encode that structure as a [`VmProfile`]: a compact set
//! of parameters from which the full 5-minute utilization series is
//! *deterministically* materialized on demand (storing 2 weeks × 4 resources
//! of samples for a million VMs would be ~1 TB; parameters are ~100 bytes).
//!
//! Profiles are sampled per *subscription behavior* (shared across a
//! subscription's VMs, with small per-VM jitter), which is exactly what makes
//! group-history features predictive (§3.3).

use coach_types::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::f64::consts::TAU;

/// High-level temporal pattern class (prior work's taxonomy cited in §2.3:
/// periodic, constant, or unpredictable).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PatternKind {
    /// Clear diurnal cycle with a consistent peak window.
    Periodic,
    /// Flat utilization with only noise.
    Constant,
    /// Large, weakly-structured fluctuations.
    Unpredictable,
}

/// Per-resource pattern parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResourceProfile {
    /// Baseline utilization fraction.
    pub base: f64,
    /// Diurnal amplitude added on top of `base` at the peak.
    pub amplitude: f64,
    /// Hour of day (fractional) at which the diurnal bump peaks.
    pub peak_hour: f64,
    /// Width of the diurnal bump (hours of full-width half-maximum-ish).
    pub peak_width_hours: f64,
    /// Per-sample noise magnitude.
    pub noise: f64,
    /// Multiplier applied on weekends (most workloads quiet down).
    pub weekend_factor: f64,
    /// Magnitude of day-to-day drift of the peak amplitude.
    pub daily_drift: f64,
}

impl ResourceProfile {
    /// A completely idle resource.
    pub fn idle() -> Self {
        ResourceProfile {
            base: 0.0,
            amplitude: 0.0,
            peak_hour: 0.0,
            peak_width_hours: 4.0,
            noise: 0.0,
            weekend_factor: 1.0,
            daily_drift: 0.0,
        }
    }

    /// The deterministic "shape" component at hour-of-day `h` (no noise):
    /// a smooth bump centered on `peak_hour`, in `[0, 1]`.
    fn diurnal_shape(&self, hour: f64) -> f64 {
        // Circular distance in hours to the peak. `fmod 24` is the identity
        // for distances already below 24 (the common case: both operands
        // live in [0, 24)), so the slow fmod only runs off that fast path.
        let mut d = (hour - self.peak_hour).abs();
        if d >= 24.0 {
            d %= 24.0;
        }
        if d > 12.0 {
            d = 24.0 - d;
        }
        self.shape_at_distance(d)
    }

    /// The raised-cosine bump as a function of the circular distance `d`
    /// (hours) to the peak; beyond the width the shape is 0 (the valley).
    /// Monotone non-increasing in `d` — the analytic window scan leans on
    /// this to bound whole segments by their distance-minimal edge.
    fn shape_at_distance(&self, d: f64) -> f64 {
        let half = self.peak_width_hours.max(0.5);
        if d >= half {
            0.0
        } else {
            0.5 * (1.0 + (TAU / 2.0 * d / half).cos())
        }
    }
}

/// Envelope screening granularity: the day splits into `SEG_TICKS`-tick
/// segments screened by a cosine-free envelope bound at their
/// distance-minimal edge, so whole off-peak runs are pruned (or
/// integer-max-reduced when flat) without touching their cells.
const SEG_TICKS: u64 = 8;

/// Soundness pad for the cosine-free envelope screens. The screens bound a
/// cell's envelope by a polynomial majorant of the raised cosine at the
/// segment's distance-minimal edge; the bound's float evaluation, the
/// tick→hour conversions on both sides, and libm's ≤1-ulp `cos` can each
/// be off by at most ~1e-14 absolute (values live in [0, 2]). Adding 1e-12
/// on top makes the screen bound provably ≥ the evaluated envelope of
/// every screened cell, while loosening the screens by an amount that is
/// negligible against the ≥1e-2-scale noise terms they compare against.
const ENV_PAD: f64 = 1e-12;

/// The deterministic diurnal envelope *geometry* of one
/// [`ResourceProfile`], derived once per scan.
///
/// Holds the exact off-bump level, the bump center, and the day's bump
/// intervals, which the scan uses to split every window into exactly-flat
/// spans (one integer hash-max each) and bump spans (segment-screened cell
/// checks). Envelope *values* are deliberately not tabulated: the screens
/// are cosine-free (a padded polynomial majorant of the raised cosine) and
/// the few cells that survive them resolve through the scan's own per-tick-of-day
/// memo, so a cosine is paid once per distinct surviving cell rather than
/// once per tabulated cell. That keeps construction down to a handful of
/// arithmetic ops.
struct EnvelopeTable {
    /// Exact off-bump level `base + amplitude · 0`.
    flat: f64,
    /// Bump center in (fractional) ticks-of-day.
    center: f64,
    /// Inclusive tick-of-day intervals covering the (conservatively
    /// widened) bump; every other cell sits at exactly `flat`. One circular
    /// interval folds into at most two linear runs over the day.
    bump_spans: [(u32, u32); 2],
    nspans: u8,
}

impl EnvelopeTable {
    /// Derive the envelope geometry for `p`. Outside the raised-cosine bump
    /// the shape is exactly 0, so those cells sit at the exact constant
    /// `base + amplitude · 0`; the (conservatively widened) bump range is
    /// derived by interval arithmetic, not by scanning the 288 cells.
    fn new(p: &ResourceProfile) -> Self {
        let flat = p.base + p.amplitude * 0.0;
        let half_ticks = p.peak_width_hours.max(0.5) * TICKS_PER_HOUR as f64;
        let center = p.peak_hour.rem_euclid(24.0) * TICKS_PER_HOUR as f64;
        let (bump_lo, bump_hi) = if 2.0 * half_ticks + 3.0 >= TICKS_PER_DAY as f64 {
            (0i64, TICKS_PER_DAY as i64 - 1)
        } else {
            // ±1 tick of margin swallows every rounding edge.
            (
                (center - half_ticks - 1.0).floor() as i64,
                (center + half_ticks + 1.0).ceil() as i64,
            )
        };

        // The bump cells form one circular interval, i.e. at most two
        // linear runs over the day.
        let last = TICKS_PER_DAY as u32 - 1;
        let (bump_spans, nspans) = if bump_hi - bump_lo + 1 >= TICKS_PER_DAY as i64 {
            ([(0u32, last), (0, 0)], 1u8)
        } else {
            let lo = bump_lo.rem_euclid(TICKS_PER_DAY as i64) as u32;
            let hi = bump_hi.rem_euclid(TICKS_PER_DAY as i64) as u32;
            if lo <= hi {
                ([(lo, hi), (0, 0)], 1)
            } else {
                ([(0, hi), (lo, last)], 2)
            }
        };

        EnvelopeTable {
            flat,
            center,
            bump_spans,
            nspans,
        }
    }
}

/// The full temporal behavior of one VM: one [`ResourceProfile`] per
/// resource plus the pattern class and the RNG stream for noise.
///
/// Materialization is deterministic: the same profile always yields the same
/// series, which keeps every experiment reproducible.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VmProfile {
    /// Pattern class (affects noise structure).
    pub kind: PatternKind,
    /// Per-resource parameters in canonical resource order.
    pub per_resource: [ResourceProfile; ResourceKind::COUNT],
    /// Seed for the noise stream (derived from VM id).
    pub noise_seed: u64,
}

impl VmProfile {
    /// Utilization fraction of `kind` at absolute time `t`, deterministic in
    /// `(profile, t)`.
    ///
    /// The construction mirrors §2.3's findings:
    /// * a raised-cosine diurnal bump at a subscription-specific peak window;
    /// * weekday/weekend modulation;
    /// * slowly-drifting daily amplitude (AR-style, bounded — Fig 9);
    /// * high-frequency noise whose magnitude depends on the pattern class.
    pub fn util_at(&self, resource: ResourceKind, t: Timestamp) -> f64 {
        let p = &self.per_resource[resource.index()];
        let hour = t.tick_of_day() as f64 / TICKS_PER_HOUR as f64;
        let day = t.day();

        let mut level = p.base + p.amplitude * p.diurnal_shape(hour);
        if t.is_weekend() {
            level *= p.weekend_factor;
        }

        // Day-to-day drift: deterministic pseudo-random walk bounded by
        // daily_drift. Uses a hash of (seed, resource, day) so that the same
        // day always drifts identically.
        let drift_u = hash_unit(self.noise_seed, resource.index() as u64, day, 0);
        level += p.daily_drift * (2.0 * drift_u - 1.0);

        // Per-tick noise. Unpredictable VMs get slow random-walk-ish noise
        // (correlated across 1 hour) on top of white noise.
        let tick = t.ticks();
        let white = 2.0 * hash_unit(self.noise_seed, resource.index() as u64, tick, 1) - 1.0;
        level += p.noise * white;
        if self.kind == PatternKind::Unpredictable {
            let hour_block = tick / TICKS_PER_HOUR;
            let walk =
                2.0 * hash_unit(self.noise_seed, resource.index() as u64, hour_block, 2) - 1.0;
            level += 3.0 * p.noise * walk;
        }

        level.clamp(0.0, 1.0)
    }

    /// All four resources at `t`, as utilization fractions.
    pub fn util_vec_at(&self, t: Timestamp) -> ResourceVec {
        let mut v = ResourceVec::ZERO;
        for kind in ResourceKind::ALL {
            v[kind] = self.util_at(kind, t);
        }
        v
    }

    /// Materialize the series for the VM's lifetime `[start, end)`.
    ///
    /// This is the explicit *eager* path: it allocates `4 × lifetime_ticks`
    /// floats. Consumers that only need windowed statistics should call
    /// [`VmProfile::window_stats`] instead, which derives them analytically
    /// from the closed-form profile without building the series.
    pub fn materialize(&self, start: Timestamp, end: Timestamp) -> ResourceSeries {
        let mut rs = ResourceSeries::empty(start);
        let mut t = start;
        while t < end {
            rs.push(self.util_vec_at(t));
            t += SimDuration::from_ticks(1);
        }
        rs
    }

    /// Windowed statistics of one resource over `[start, end)`, derived
    /// analytically — **exactly** equal to
    /// `WindowStats::from_series(materialize(start, end).get(resource), tw)`
    /// (proven by `prop_analytic_window_stats_match_reference`) but far
    /// cheaper:
    ///
    /// * the deterministic diurnal envelope `base + amplitude · shape(hour)`
    ///   is periodic per day, so it is tabulated once into an
    ///   per-scan envelope table instead of recomputed per tick per day;
    /// * weekend factor and day drift are per-day constants, the
    ///   unpredictable-pattern walk a per-hour-block constant — hashed once
    ///   per day/block instead of per tick;
    /// * the per-tick noise hash is *skipped* whenever even maximal noise
    ///   (`level + noise`, an upper bound that floating-point monotonicity
    ///   makes safe) cannot beat the window's running maximum — for diurnal
    ///   VMs that prunes most off-peak ticks;
    /// * nothing is materialized: maxima accumulate into the flat
    ///   [`WindowStats`] buffer directly.
    pub fn window_stats_for(
        &self,
        resource: ResourceKind,
        tw: TimeWindows,
        start: Timestamp,
        end: Timestamp,
    ) -> WindowStats {
        if start >= end {
            return WindowStats::empty(tw, start.day());
        }
        let p = &self.per_resource[resource.index()];
        if Self::needs_eager_fallback(p) {
            return self.eager_window_stats(resource, tw, start, end);
        }
        let table = EnvelopeTable::new(p);
        let r = resource.index() as u64;
        let wcount = tw.count();
        let wticks = tw.window_ticks();
        let unpredictable = self.kind == PatternKind::Unpredictable;
        let noise = p.noise;
        // The (seed, resource, channel) prefixes of the noise hashes are
        // loop constants — hoisted via `hash_prefix` (bit-identical to
        // `hash_unit`, see its doc).
        let white_pre = hash_prefix(self.noise_seed, r, 1);
        let walk_pre = hash_prefix(self.noise_seed, r, 2);
        let drift_pre = hash_prefix(self.noise_seed, r, 0);

        let flat = table.flat;
        let center = table.center;

        // Per-scan envelope memo: a cell's envelope value resolves on first
        // touch with exactly `util_at`'s arithmetic (off the bump the shape
        // is exactly 0, so the uniform expression reproduces `flat`
        // bit-for-bit there too) and is reused across every later day and
        // window of the scan — a cosine is paid once per *distinct*
        // tick-of-day that survives the screens, not once per day it is
        // inspected.
        let mut env_seen = [false; TICKS_PER_DAY as usize];
        let mut env_val = [0.0f64; TICKS_PER_DAY as usize];
        macro_rules! env_at {
            ($tod:expr) => {{
                let tod: usize = $tod;
                if !env_seen[tod] {
                    let hour = tod as f64 / TICKS_PER_HOUR as f64;
                    env_val[tod] = p.base + p.amplitude * p.diurnal_shape(hour);
                    env_seen[tod] = true;
                }
                env_val[tod]
            }};
        }

        // Cosine-free envelope upper bound for the cells at circular
        // distance ≥ `d_min_ticks` from the bump center: the degree-4
        // Taylor majorant `cos x ≤ 1 − x²/2 + x⁴/24` (tight near the peak)
        // intersected with the reflection bound `cos x ≤ (π−x)²/2 − 1`,
        // i.e. `cos(π−x) ≥ 1 − (π−x)²/2` (tight toward the valley). Each
        // dominates the real cosine for every `x ≥ 0`, so their min does
        // too, and both are monotone bounds in `d`. The argument uses a
        // precomputed radians-per-tick factor and folded reciprocals
        // rather than `shape_at_distance`'s exact expression — every
        // rounding discrepancy that opens (≈1e-15 absolute at worst,
        // including the tick→hour conversion and libm's ≤1-ulp cosine on
        // the resolved side) is swallowed by `ENV_PAD`, which only ever
        // *loosens* the screen.
        let half_ticks_f = p.peak_width_hours.max(0.5) * TICKS_PER_HOUR as f64;
        let rad_per_tick = TAU / 2.0 / half_ticks_f;
        let amp = p.amplitude;
        let env_ub_at = |d_min_ticks: f64| {
            if d_min_ticks >= half_ticks_f {
                flat + ENV_PAD
            } else {
                let x = d_min_ticks * rad_per_tick;
                let x2 = x * x;
                let taylor = 1.0 - x2 * 0.5 + x2 * x2 * (1.0 / 24.0);
                let y = TAU / 2.0 - x;
                let refl = y * y * 0.5 - 1.0;
                (flat + amp * (0.5 * (1.0 + taylor.min(refl)))) + ENV_PAD
            }
        };

        let circ = |a: f64, b: f64| {
            let d = (a - b).abs();
            d.min(TICKS_PER_DAY as f64 - d)
        };

        // Seed tick of each window: the in-window tod circularly closest to
        // the bump center maximizes the shape (raised cosine decreases with
        // distance), so evaluating it first drives the running max near the
        // top before the scan. Any choice is correct; this one prunes best.
        let seed_of = |w: u64| {
            let (a, b) = (w * wticks, (w + 1) * wticks - 1);
            if center >= a as f64 && center <= b as f64 {
                (center.round() as u64).clamp(a, b)
            } else if circ(a as f64, center) <= circ(b as f64, center) {
                a
            } else {
                b
            }
        };

        let first_day = start.day();
        let last_day = Timestamp::from_ticks(end.ticks() - 1).day();
        let days = (last_day - first_day + 1) as usize;
        let mut per_day_max = vec![WindowStats::UNCOVERED; days * wcount];

        for day in first_day..=last_day {
            let day_start = day * TICKS_PER_DAY;
            let lo = start.ticks().max(day_start);
            let hi = end.ticks().min(day_start + TICKS_PER_DAY);
            // Multiplying by 1.0 on weekdays is exact, so the weekend branch
            // hoists out of the tick loop.
            let wf_day = if Timestamp::from_ticks(day_start).is_weekend() {
                p.weekend_factor
            } else {
                1.0
            };
            let drift_u = hash_unit_pre(drift_pre, day);
            let drift = p.daily_drift * (2.0 * drift_u - 1.0);
            let row = (day - first_day) as usize * wcount;

            let w_lo = ((lo - day_start) / wticks) as usize;
            let w_hi = ((hi - 1 - day_start) / wticks) as usize;
            for w in w_lo..=w_hi {
                let wstart = day_start + w as u64 * wticks;
                let t_lo = lo.max(wstart);
                let t_hi = hi.min(wstart + wticks);
                // Running max, shadowed in f64 for the per-tick bound
                // compare. Starts at −1 (UNCOVERED) so the first candidate
                // tick always evaluates — coverage is never skipped.
                let mut m = per_day_max[row + w];
                let mut m64 = f64::from(m);

                // Evaluate a tick: the same term order as `util_at` (white
                // noise, then the unpredictable walk).
                macro_rules! eval_tick {
                    ($t:expr, $level:expr, $extra:expr) => {{
                        let white = 2.0 * hash_unit_pre(white_pre, $t) - 1.0;
                        let value = (($level + noise * white) + $extra).clamp(0.0, 1.0) as f32;
                        if value > m {
                            m = value;
                            m64 = f64::from(m);
                        }
                    }};
                }

                // Day-constant levels/bounds for the exact off-bump cells
                // and the unresolved-bump upper bound (identical arithmetic
                // to the per-tick expressions, so hoisting is exact).
                let flat_level = flat * wf_day + drift;
                let flat_bound = flat_level + noise;

                if unpredictable {
                    // The hourly walk is constant within each block, so the
                    // scan advances block by block, and each block splits by
                    // the table's bump intervals: a flat run (constant level
                    // + constant walk) reduces to one integer hash max —
                    // monotone in the white draw, identical to per-tick
                    // evaluation — while a bump run is screened first by its
                    // envelope bound and then by the bound with the run's
                    // *actual* maximal white draw before any cell evaluates
                    // (the same two-screen structure as the periodic arm).
                    //
                    // Coverage is guaranteed by evaluating the first tick
                    // unconditionally (its later re-evaluation inside the
                    // scan yields the same value and cannot change the max):
                    // with pathological hand-built parameters the pruning
                    // bounds could otherwise sit at or below the −1
                    // UNCOVERED sentinel and skip a window entirely.
                    {
                        let block = t_lo / TICKS_PER_HOUR;
                        let walk = 2.0 * hash_unit_pre(walk_pre, block) - 1.0;
                        let walk_term = 3.0 * noise * walk;
                        let level = env_at!((t_lo - day_start) as usize) * wf_day + drift;
                        eval_tick!(t_lo, level, walk_term);
                    }
                    let spans = table.bump_spans;
                    let nspans = table.nspans as usize;
                    let mut t = t_lo;
                    while t < t_hi {
                        let block = t / TICKS_PER_HOUR;
                        let block_end = ((block + 1) * TICKS_PER_HOUR).min(t_hi);
                        let walk = 2.0 * hash_unit_pre(walk_pre, block) - 1.0;
                        let walk_term = 3.0 * noise * walk;
                        let c0 = (t - day_start) as u32;
                        let d0 = (block_end - day_start) as u32;
                        macro_rules! flat_run {
                            ($s:expr, $e:expr) => {{
                                let (s, e): (u32, u32) = ($s, $e);
                                if s < e && flat_bound + walk_term > m64 {
                                    let best = max_hash_in(
                                        white_pre,
                                        day_start + u64::from(s),
                                        day_start + u64::from(e),
                                    );
                                    let white = 2.0 * unit_from_hash(best) - 1.0;
                                    let value = ((flat_level + noise * white) + walk_term)
                                        .clamp(0.0, 1.0) as f32;
                                    if value > m {
                                        m = value;
                                        m64 = f64::from(m);
                                    }
                                }
                            }};
                        }
                        let mut cursor = c0;
                        for (ls, hs) in spans[..nspans].iter().copied() {
                            let bs = ls.max(c0);
                            let be = (hs + 1).min(d0);
                            if be <= bs {
                                continue;
                            }
                            flat_run!(cursor, bs);
                            cursor = be;
                            // Bump run [bs, be): bounded by the cosine-free
                            // envelope majorant at the run's
                            // distance-minimal cell, then screened again
                            // with the run's actual maximal white draw, then
                            // cell by cell with each cell's own draw — a
                            // cosine only resolves for a cell whose draw
                            // could beat the running max. Bounds reuse the
                            // value's own association, `(level +
                            // noise·white) + walk_term`, so each comparison
                            // step is a monotone IEEE op — reassociating
                            // here could dip an ulp below the evaluated
                            // value and unsoundly skip.
                            let (ra, rb) = (day_start + u64::from(bs), day_start + u64::from(be));
                            let (sa, sb) = (f64::from(bs), f64::from(be - 1));
                            let d_min = if center >= sa && center <= sb {
                                0.0
                            } else {
                                circ(sa, center).min(circ(sb, center))
                            };
                            let run_env = env_ub_at(d_min) * wf_day + drift;
                            if (run_env + noise) + walk_term <= m64 {
                                continue;
                            }
                            let white_max =
                                2.0 * unit_from_hash(max_hash_in(white_pre, ra, rb)) - 1.0;
                            if (run_env + noise * white_max) + walk_term <= m64 {
                                continue;
                            }
                            for t2 in ra..rb {
                                let white = 2.0 * hash_unit_pre(white_pre, t2) - 1.0;
                                if (run_env + noise * white) + walk_term > m64 {
                                    let level = env_at!((t2 - day_start) as usize) * wf_day + drift;
                                    eval_tick!(t2, level, walk_term);
                                }
                            }
                        }
                        flat_run!(cursor, d0);
                        t = block_end;
                    }
                } else {
                    // Seed the running max from the covered cell nearest the
                    // bump center (the clamp keeps partial edge windows
                    // seeded too): with `m` already near the top, the bounds
                    // prune the white-noise hash (and the cosine resolution)
                    // for every clearly sub-peak tick.
                    let t0 = (day_start + seed_of(w as u64)).clamp(t_lo, t_hi - 1);
                    let level0 = env_at!((t0 - day_start) as usize) * wf_day + drift;
                    eval_tick!(t0, level0, 0.0);

                    // Split the window's tick-of-day range into exactly-flat
                    // spans (the complement of the table's bump intervals)
                    // and bump spans. A flat span's maximum value is the
                    // value at its maximum noise draw — `unit_from_hash` is
                    // monotone in the mixed hash, so one pure integer max
                    // over the *whole span*, converted once, matches
                    // per-tick evaluation exactly (`flat_bound` is constant
                    // and `m64` only grows, so one check prunes the span).
                    // This is the cold-path workhorse: an off-peak window is
                    // one branch plus one long `max_hash_in`, with no
                    // per-8-tick segmentation overhead.
                    let a0 = (t_lo - day_start) as u32;
                    let b0 = (t_hi - day_start) as u32;
                    macro_rules! flat_span {
                        ($s:expr, $e:expr) => {{
                            let (s, e): (u32, u32) = ($s, $e);
                            // The seed's hash may re-enter the max (window
                            // misses the bump): harmless, the max cannot
                            // change.
                            if s < e && flat_bound > m64 {
                                let best = max_hash_in(
                                    white_pre,
                                    day_start + u64::from(s),
                                    day_start + u64::from(e),
                                );
                                let white = 2.0 * unit_from_hash(best) - 1.0;
                                let value =
                                    ((flat_level + noise * white) + 0.0).clamp(0.0, 1.0) as f32;
                                if value > m {
                                    m = value;
                                    m64 = f64::from(m);
                                }
                            }
                        }};
                    }

                    // Pass 1 — every flat span first: cheap, ILP-friendly
                    // integer hashing drives the running max to (or near)
                    // its final value before any bump cell is touched.
                    // Evaluation order within a window cannot change its
                    // max, so the reorder is bit-exact; it exists purely so
                    // the bump screens below face the strongest possible
                    // `m64`.
                    let spans = table.bump_spans;
                    {
                        let mut cursor = a0;
                        for (ls, hs) in spans[..table.nspans as usize].iter().copied() {
                            let bs = ls.max(a0);
                            let be = (hs + 1).min(b0);
                            if be <= bs {
                                continue;
                            }
                            flat_span!(cursor, bs);
                            cursor = be;
                        }
                        flat_span!(cursor, b0);
                    }

                    // Pass 2 — bump spans, 8-tick segment by segment,
                    // behind two screens: first the cosine-free envelope
                    // majorant
                    // at the segment's distance-minimal cell (a few flops),
                    // then the same bound with the segment's *actual*
                    // maximal white draw (one short `max_hash_in`) in place
                    // of the worst-case +1 — `unit_from_hash` is monotone
                    // in the mixed hash and all factors are non-negative,
                    // so the product bounds every cell's value. A surviving
                    // segment is then screened cell by cell with each
                    // cell's own draw, so a cosine only ever resolves for a
                    // cell whose draw could actually beat the running max.
                    for (ls, hs) in spans[..table.nspans as usize].iter().copied() {
                        let bs = ls.max(a0);
                        let be = (hs + 1).min(b0);
                        if be <= bs {
                            continue;
                        }
                        let seg_lo = bs as usize / SEG_TICKS as usize;
                        let seg_hi = (be as usize - 1) / SEG_TICKS as usize;
                        for seg in seg_lo..=seg_hi {
                            let sa = u64::from(bs).max(seg as u64 * SEG_TICKS);
                            let sb = u64::from(be).min((seg as u64 + 1) * SEG_TICKS);
                            let (a, b) = (day_start + sa, day_start + sb);
                            let d_min = if center >= sa as f64 && center <= (sb - 1) as f64 {
                                0.0
                            } else {
                                circ(sa as f64, center).min(circ((sb - 1) as f64, center))
                            };
                            let seg_env = env_ub_at(d_min) * wf_day + drift;
                            if seg_env + noise > m64 {
                                // One hashing pass fills the segment's
                                // mixed draws; their max drives the
                                // white-max screen, bit-identical to
                                // `max_hash_in` over the same range.
                                let mut hbuf = [0u64; SEG_TICKS as usize];
                                let n = (b - a) as usize;
                                let mut best = 0u64;
                                for (i, slot) in hbuf[..n].iter_mut().enumerate() {
                                    let h = hash_mix(white_pre, a + i as u64);
                                    *slot = h;
                                    best = best.max(h);
                                }
                                let white_max = 2.0 * unit_from_hash(best) - 1.0;
                                if seg_env + noise * white_max <= m64 {
                                    continue;
                                }
                                // Per-cell screening in *integer hash
                                // space*: the float screen `seg_env +
                                // noise·white > m64` is monotone in the
                                // cell's mixed hash, so a conservative
                                // threshold on the hash's 53-bit payload
                                // rejects sub-threshold cells with one
                                // integer compare. The threshold white
                                // `(m64 − seg_env)/noise` is lowered by
                                // 1e-6 before converting — for noise >
                                // 1e-6 that slack exceeds every rounding
                                // term in the conversion by three orders
                                // of magnitude (each term is ≤ ~2e-15),
                                // so no cell the float screen would pass
                                // is ever rejected; survivors re-run the
                                // exact float screen, keeping the result
                                // bit-identical. The float→u64 cast
                                // saturates (NaN→0), so degenerate
                                // thresholds fall back to screening every
                                // cell. A skipped cell provably cannot
                                // exceed `m64` (≥ 0 after the
                                // unconditional seed, so the clamp cannot
                                // resurrect it).
                                let h_thresh = if noise > 1e-6 {
                                    let w_lo = (m64 - seg_env) / noise - 1e-6;
                                    ((w_lo + 1.0) * (0.5 * (1u64 << 53) as f64)) as u64
                                } else {
                                    0
                                };
                                for (i, &h) in hbuf[..n].iter().enumerate() {
                                    if (h >> 11) > h_thresh {
                                        let white = 2.0 * unit_from_hash(h) - 1.0;
                                        if seg_env + noise * white > m64 {
                                            let t = a + i as u64;
                                            let level =
                                                env_at!((t - day_start) as usize) * wf_day + drift;
                                            eval_tick!(t, level, 0.0);
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
                per_day_max[row + w] = m;
            }
        }
        WindowStats::from_parts(tw, first_day, days, per_day_max)
    }

    /// Every pruning bound and the integer hash-max reduction in the
    /// analytic scan rely on `noise`, `amplitude`, and `weekend_factor`
    /// being non-negative (the monotonicity arguments flip sign otherwise).
    /// Generated profiles always satisfy that, but the fields are pub and
    /// unvalidated — degenerate hand-built parameters take a plain per-tick
    /// eager walk instead, keeping the exactness contract unconditional.
    /// (`!(x >= 0)` also catches NaN.)
    fn needs_eager_fallback(p: &ResourceProfile) -> bool {
        !(p.noise >= 0.0 && p.amplitude >= 0.0 && p.weekend_factor >= 0.0)
    }

    fn eager_window_stats(
        &self,
        resource: ResourceKind,
        tw: TimeWindows,
        start: Timestamp,
        end: Timestamp,
    ) -> WindowStats {
        let ticks = (end.ticks() - start.ticks()) as usize;
        let mut samples = Vec::with_capacity(ticks);
        let mut t = start;
        while t < end {
            samples.push(self.util_at(resource, t) as f32);
            t += SimDuration::from_ticks(1);
        }
        WindowStats::from_samples(tw, start, &samples)
    }

    /// Analytic windowed statistics for all four resources over
    /// `[start, end)` — the lazy replacement for
    /// `materialize(start, end)` + per-resource sample walks.
    pub fn window_stats(
        &self,
        tw: TimeWindows,
        start: Timestamp,
        end: Timestamp,
    ) -> ResourceWindowStats {
        ResourceWindowStats::new(
            ResourceKind::ALL.map(|kind| self.window_stats_for(kind, tw, start, end)),
        )
    }
}

impl UtilizationSource for VmProfile {
    fn util_at(&self, t: Timestamp) -> ResourceVec {
        self.util_vec_at(t)
    }

    fn window_stats(
        &self,
        tw: TimeWindows,
        start: Timestamp,
        end: Timestamp,
    ) -> ResourceWindowStats {
        VmProfile::window_stats(self, tw, start, end)
    }
}

/// Deterministic hash → uniform `[0, 1)`. SplitMix64-style mixing over the
/// tuple `(seed, a, b, c)`. This is the reference form `util_at` (and hence
/// the eager materializing path) uses; the analytic scan uses the
/// bit-identical split [`hash_prefix`] + [`hash_unit_pre`] pair (asserted
/// equal by `hash_split_is_bit_identical`).
fn hash_unit(seed: u64, a: u64, b: u64, c: u64) -> f64 {
    let mut x = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(a.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(b.wrapping_mul(0x94D0_49BB_1331_11EB))
        .wrapping_add(c.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// The `(seed, a, c)` part of [`hash_unit`]'s input combination — a loop
/// constant in the analytic window-statistics scan, where only `b` (the
/// tick/day/block) varies. Wrapping addition is associative and commutative
/// mod 2^64, so splitting the sum is bit-identical.
#[inline]
fn hash_prefix(seed: u64, a: u64, c: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(a.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(c.wrapping_mul(0xD6E8_FEB8_6659_FD93))
}

/// Finish [`hash_unit`] from a precomputed prefix — mix, then convert.
#[inline]
fn hash_unit_pre(pre: u64, b: u64) -> f64 {
    unit_from_hash(hash_mix(pre, b))
}

/// The integer mixing stage of [`hash_unit`]. Exposed separately because
/// [`unit_from_hash`] is monotone in this value, so a *maximum over mixed
/// hashes* (a pure integer reduction) yields the maximum noise draw of a
/// run without converting every tick.
#[inline]
fn hash_mix(pre: u64, b: u64) -> u64 {
    let mut x = pre.wrapping_add(b.wrapping_mul(0x94D0_49BB_1331_11EB));
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// Convert a mixed hash to uniform `[0, 1)`. Multiplies by 2⁻⁵³ instead of
/// dividing by 2⁵³: both are exact power-of-two exponent shifts on a 53-bit
/// integer, so the result is bit-identical to [`hash_unit`]'s divide while
/// skipping the hardware divider.
#[inline]
fn unit_from_hash(x: u64) -> f64 {
    const SCALE: f64 = 1.0 / (1u64 << 53) as f64;
    (x >> 11) as f64 * SCALE
}

/// Maximum mixed hash over ticks `[a, b)` — the integer reduction behind
/// the constant-level fast paths, 4-way unrolled so the independent mixing
/// chains pipeline instead of serializing behind one accumulator.
#[inline]
fn max_hash_in(pre: u64, a: u64, b: u64) -> u64 {
    let (mut b0, mut b1, mut b2, mut b3) = (0u64, 0u64, 0u64, 0u64);
    let mut t = a;
    while t + 4 <= b {
        b0 = b0.max(hash_mix(pre, t));
        b1 = b1.max(hash_mix(pre, t + 1));
        b2 = b2.max(hash_mix(pre, t + 2));
        b3 = b3.max(hash_mix(pre, t + 3));
        t += 4;
    }
    let mut best = b0.max(b1).max(b2.max(b3));
    while t < b {
        best = best.max(hash_mix(pre, t));
        t += 1;
    }
    best
}

/// The behavior shared by all VMs of one subscription × configuration group.
///
/// Group members draw their [`VmProfile`]s from this template with small
/// jitter, so their peak utilizations cluster (Fig 12: sub+config groups have
/// the smallest range).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BehaviorTemplate {
    /// Pattern class for the group.
    pub kind: PatternKind,
    /// Template per-resource profiles.
    pub per_resource: [ResourceProfile; ResourceKind::COUNT],
    /// Jitter fraction applied to base/amplitude per VM.
    pub jitter: f64,
}

impl BehaviorTemplate {
    /// Sample the template for a subscription+config group.
    ///
    /// Calibration targets (all from §2.3):
    /// * most VMs' mean CPU < 50 %, CPU P95-P5 range often up to 60 %;
    /// * memory base diverse but range < 30 % (half of VMs < 10 %);
    /// * CPU peaks/valleys spread uniformly over the day; < 10 % of VMs
    ///   pattern-free; ~70 % of VMs have memory peaks ≥ 5 %;
    /// * network behaves like CPU on average but with a narrow range;
    ///   SSD resembles memory.
    pub fn sample(rng: &mut SmallRng) -> Self {
        let kind = match rng.gen_range(0..100) {
            0..=69 => PatternKind::Periodic,
            70..=89 => PatternKind::Constant,
            _ => PatternKind::Unpredictable,
        };

        let peak_hour = rng.gen_range(0.0..24.0);
        let weekend_factor = rng.gen_range(0.35..1.0);

        // CPU: low base, wide diurnal swing.
        let cpu_base = rng.gen_range(0.03..0.35);
        let cpu_amp = match kind {
            PatternKind::Periodic => rng.gen_range(0.15..0.55),
            PatternKind::Constant => rng.gen_range(0.0..0.04),
            PatternKind::Unpredictable => rng.gen_range(0.05..0.30),
        };
        let cpu = ResourceProfile {
            base: cpu_base,
            amplitude: cpu_amp,
            peak_hour,
            peak_width_hours: rng.gen_range(3.0..8.0),
            noise: match kind {
                PatternKind::Unpredictable => rng.gen_range(0.04..0.10),
                _ => rng.gen_range(0.01..0.04),
            },
            weekend_factor,
            daily_drift: rng.gen_range(0.01..0.06),
        };

        // Memory: diverse base, narrow swing, tiny noise/drift.
        let mem_base = rng.gen_range(0.10..0.85);
        let mem_has_peak = rng.gen_bool(0.72);
        let mem = ResourceProfile {
            base: mem_base,
            amplitude: if mem_has_peak {
                rng.gen_range(0.05..0.16)
            } else {
                rng.gen_range(0.0..0.035)
            },
            peak_hour: peak_hour + rng.gen_range(-2.0..2.0),
            peak_width_hours: rng.gen_range(4.0..10.0),
            noise: rng.gen_range(0.004..0.018),
            weekend_factor: 1.0 - (1.0 - weekend_factor) * 0.2,
            daily_drift: rng.gen_range(0.005..0.035),
        };

        // Network: average tracks CPU, range narrow like memory.
        let net = ResourceProfile {
            base: (cpu_base * rng.gen_range(0.6..1.1)).min(0.9),
            amplitude: cpu_amp * rng.gen_range(0.2..0.45),
            peak_hour,
            peak_width_hours: cpu.peak_width_hours,
            noise: rng.gen_range(0.005..0.02),
            weekend_factor,
            daily_drift: rng.gen_range(0.005..0.02),
        };

        // SSD space: slow-moving like memory, generally lower.
        let ssd = ResourceProfile {
            base: rng.gen_range(0.05..0.6),
            amplitude: rng.gen_range(0.0..0.08),
            peak_hour: rng.gen_range(0.0..24.0),
            peak_width_hours: rng.gen_range(4.0..12.0),
            noise: rng.gen_range(0.001..0.008),
            weekend_factor: 1.0,
            daily_drift: rng.gen_range(0.001..0.01),
        };

        BehaviorTemplate {
            kind,
            per_resource: [cpu, mem, net, ssd],
            jitter: rng.gen_range(0.02..0.10),
        }
    }

    /// Instantiate a per-VM profile with the group's jitter.
    pub fn instantiate(&self, vm_seed: u64) -> VmProfile {
        let mut rng = SmallRng::seed_from_u64(vm_seed ^ 0xC0AC_4A11);
        let mut per_resource = self.per_resource;
        for p in per_resource.iter_mut() {
            let j = |rng: &mut SmallRng| 1.0 + rng.gen_range(-self.jitter..=self.jitter);
            p.base = (p.base * j(&mut rng)).clamp(0.0, 1.0);
            p.amplitude = (p.amplitude * j(&mut rng)).clamp(0.0, 1.0);
            p.peak_hour = (p.peak_hour + rng.gen_range(-0.5..0.5)).rem_euclid(24.0);
        }
        VmProfile {
            kind: self.kind,
            per_resource,
            noise_seed: vm_seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_profile(seed: u64) -> VmProfile {
        let mut rng = SmallRng::seed_from_u64(seed);
        BehaviorTemplate::sample(&mut rng).instantiate(seed)
    }

    #[test]
    fn util_is_deterministic() {
        let p = sample_profile(7);
        let t = Timestamp::from_hours(31);
        assert_eq!(
            p.util_at(ResourceKind::Cpu, t),
            p.util_at(ResourceKind::Cpu, t)
        );
        let q = sample_profile(7);
        assert_eq!(
            p.util_at(ResourceKind::Memory, t),
            q.util_at(ResourceKind::Memory, t)
        );
    }

    #[test]
    fn util_always_in_unit_range() {
        for seed in 0..50 {
            let p = sample_profile(seed);
            for h in 0..48 {
                let v = p.util_vec_at(Timestamp::from_hours(h));
                assert!(v.is_valid());
                assert!(v.max_element() <= 1.0);
            }
        }
    }

    #[test]
    fn materialize_covers_lifetime() {
        let p = sample_profile(3);
        let s = p.materialize(Timestamp::from_hours(1), Timestamp::from_hours(3));
        assert_eq!(s.len(), 2 * TICKS_PER_HOUR as usize);
        assert_eq!(s.start(), Timestamp::from_hours(1));
    }

    #[test]
    fn periodic_vms_have_diurnal_peak() {
        // A periodic template must put its daily max near peak_hour.
        let mut found = 0;
        for seed in 0..200u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let t = BehaviorTemplate::sample(&mut rng);
            if t.kind != PatternKind::Periodic {
                continue;
            }
            let p = t.instantiate(seed);
            let cpu = &p.per_resource[0];
            if cpu.amplitude < 0.2 {
                continue;
            }
            // Scan day 2 (Wednesday) hourly.
            let mut best_h = 0f64;
            let mut best_v = -1f64;
            for hh in 0..24 {
                let v = p.util_at(
                    ResourceKind::Cpu,
                    Timestamp::from_days(2) + SimDuration::from_hours(hh),
                );
                if v > best_v {
                    best_v = v;
                    best_h = hh as f64;
                }
            }
            let mut d = (best_h - cpu.peak_hour).abs();
            if d > 12.0 {
                d = 24.0 - d;
            }
            assert!(
                d <= 3.0,
                "peak at {best_h} but expected near {}",
                cpu.peak_hour
            );
            found += 1;
        }
        assert!(found > 20, "not enough periodic templates sampled: {found}");
    }

    #[test]
    fn memory_range_is_narrow_cpu_wide() {
        // §2.3: memory range < 30% for most VMs; CPU range can reach 60%.
        let mut mem_ranges = Vec::new();
        let mut cpu_ranges = Vec::new();
        for seed in 0..60u64 {
            let p = sample_profile(seed);
            let s = p.materialize(Timestamp::ZERO, Timestamp::from_days(3));
            mem_ranges.push(s.get(ResourceKind::Memory).range_p95_p5());
            cpu_ranges.push(s.get(ResourceKind::Cpu).range_p95_p5());
        }
        let med = |v: &mut Vec<f32>| {
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            v[v.len() / 2]
        };
        let mem_med = med(&mut mem_ranges);
        let cpu_med = med(&mut cpu_ranges);
        assert!(mem_med < 0.30, "median memory range too wide: {mem_med}");
        assert!(cpu_med > mem_med, "CPU should fluctuate more than memory");
    }

    #[test]
    fn same_group_vms_cluster() {
        // Two instantiations of the same template have close lifetime peaks;
        // two different templates usually differ more.
        let mut rng = SmallRng::seed_from_u64(42);
        let t1 = BehaviorTemplate::sample(&mut rng);
        let a = t1.instantiate(100);
        let b = t1.instantiate(101);
        let end = Timestamp::from_days(2);
        let pa = a
            .materialize(Timestamp::ZERO, end)
            .get(ResourceKind::Memory)
            .max();
        let pb = b
            .materialize(Timestamp::ZERO, end)
            .get(ResourceKind::Memory)
            .max();
        assert!(
            (pa - pb).abs() < 0.25,
            "same-group peaks too far: {pa} vs {pb}"
        );
    }

    #[test]
    fn weekend_is_quieter_for_low_weekend_factor() {
        let mut p = sample_profile(11);
        p.per_resource[0].weekend_factor = 0.4;
        p.per_resource[0].noise = 0.0;
        p.per_resource[0].daily_drift = 0.0;
        p.kind = PatternKind::Periodic;
        let weekday_peak = p.util_at(
            ResourceKind::Cpu,
            Timestamp::from_days(2)
                + SimDuration::from_ticks((p.per_resource[0].peak_hour * 12.0) as u64),
        );
        let weekend_peak = p.util_at(
            ResourceKind::Cpu,
            Timestamp::from_days(5)
                + SimDuration::from_ticks((p.per_resource[0].peak_hour * 12.0) as u64),
        );
        assert!(weekend_peak < weekday_peak);
    }

    #[test]
    fn hash_split_is_bit_identical() {
        let mut rng = SmallRng::seed_from_u64(99);
        for _ in 0..2000 {
            let (s, a, b, c) = (
                rng.gen::<u64>(),
                rng.gen_range(0..4u64),
                rng.gen::<u64>(),
                rng.gen_range(0..3u64),
            );
            assert_eq!(
                hash_unit(s, a, b, c).to_bits(),
                hash_unit_pre(hash_prefix(s, a, c), b).to_bits()
            );
        }
    }

    #[test]
    fn hash_unit_is_uniformish() {
        let n = 10_000;
        let mean: f64 = (0..n).map(|i| hash_unit(9, 1, i, 3)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "hash_unit mean {mean}");
    }

    /// Eager reference for the analytic path: materialize and walk samples.
    fn reference_stats(
        p: &VmProfile,
        tw: TimeWindows,
        start: Timestamp,
        end: Timestamp,
    ) -> ResourceWindowStats {
        ResourceWindowStats::from_series(&p.materialize(start, end), tw)
    }

    fn assert_stats_equal(analytic: &ResourceWindowStats, reference: &ResourceWindowStats) {
        assert_eq!(analytic.days(), reference.days());
        assert_eq!(analytic.first_day(), reference.first_day());
        for kind in ResourceKind::ALL {
            let (a, e) = (analytic.get(kind), reference.get(kind));
            for w in a.tw().indices() {
                assert_eq!(a.lifetime_max(w), e.lifetime_max(w), "{kind} window {w}");
                assert_eq!(
                    a.maxima_percentile(w, Percentile::P95),
                    e.maxima_percentile(w, Percentile::P95),
                    "{kind} window {w} percentile"
                );
                for d in 0..a.days() {
                    assert_eq!(
                        a.day_max(d, w),
                        e.day_max(d, w),
                        "{kind} day {d} window {w}"
                    );
                }
            }
        }
    }

    #[test]
    fn analytic_stats_match_reference_for_unpredictable_weekend_span() {
        // Force the noisiest pattern class across a weekend boundary, where
        // the walk-block cache, weekend factor, and partial days all engage.
        let mut p = sample_profile(17);
        p.kind = PatternKind::Unpredictable;
        p.per_resource[0].noise = 0.09;
        let start = Timestamp::from_days(4) + SimDuration::from_hours(13);
        let end = Timestamp::from_days(7) + SimDuration::from_ticks(5);
        for tw in [
            TimeWindows::single(),
            TimeWindows::paper_default(),
            TimeWindows::ideal(),
        ] {
            assert_stats_equal(
                &p.window_stats(tw, start, end),
                &reference_stats(&p, tw, start, end),
            );
        }
    }

    #[test]
    fn pathological_profiles_stay_covered_and_exact() {
        // Adversarial hand-built parameters (the fields are pub and
        // unvalidated) must not break the analytic == materialized
        // contract — in particular window *coverage* when the level sinks
        // far below zero (clamped to 0.0 by the reference), where lazy
        // pruning bounds could otherwise dip under the −1 UNCOVERED
        // sentinel.
        let tw = TimeWindows::paper_default();
        let start = Timestamp::ZERO;
        let end = Timestamp::from_days(10);
        for kind in [
            PatternKind::Unpredictable,
            PatternKind::Periodic,
            PatternKind::Constant,
        ] {
            let mut p = sample_profile(3);
            p.kind = kind;
            for r in p.per_resource.iter_mut() {
                r.base = 0.0;
                r.amplitude = 0.0;
                r.noise = 0.0;
                r.daily_drift = 2.0; // drift draws in [-2, 2]: deep negatives
            }
            assert_stats_equal(
                &p.window_stats(tw, start, end),
                &reference_stats(&p, tw, start, end),
            );
            // Negative noise/amplitude/weekend factor invert the pruning
            // monotonicity — those parameters must route through the eager
            // fallback and still match exactly.
            let mut q = sample_profile(5);
            q.kind = kind;
            q.per_resource[0].noise = -0.05;
            q.per_resource[1].amplitude = -0.3;
            q.per_resource[2].weekend_factor = -0.5;
            assert_stats_equal(
                &q.window_stats(tw, start, end),
                &reference_stats(&q, tw, start, end),
            );
        }
    }

    #[test]
    fn analytic_stats_empty_range() {
        let p = sample_profile(5);
        let t = Timestamp::from_hours(30);
        let stats = p.window_stats(TimeWindows::paper_default(), t, t);
        assert_eq!(stats.days(), 0);
        assert_eq!(stats.lifetime_window_max(0), ResourceVec::ZERO);
    }

    proptest! {
        /// The tentpole equivalence: analytic window statistics are
        /// *exactly* the statistics of the materialized series, across
        /// random templates, per-VM seeds, lifetimes, and partitions.
        #[test]
        fn prop_analytic_window_stats_match_reference(
            seed in 0u64..10_000,
            start_ticks in 0u64..(3 * TICKS_PER_DAY),
            len in 1u64..(4 * TICKS_PER_DAY),
            wpd_idx in 0usize..5,
        ) {
            let tw = TimeWindows::new([1u32, 2, 6, 24, 288][wpd_idx]);
            let p = sample_profile(seed);
            let start = Timestamp::from_ticks(start_ticks);
            let end = Timestamp::from_ticks(start_ticks + len);
            assert_stats_equal(&p.window_stats(tw, start, end), &reference_stats(&p, tw, start, end));
        }

        #[test]
        fn prop_shape_bounded(h in 0.0f64..24.0, peak in 0.0f64..24.0, w in 0.5f64..12.0) {
            let p = ResourceProfile {
                peak_hour: peak,
                peak_width_hours: w,
                ..ResourceProfile::idle()
            };
            let s = p.diurnal_shape(h);
            prop_assert!((0.0..=1.0).contains(&s));
        }

        #[test]
        fn prop_shape_peaks_at_peak_hour(peak in 0.0f64..24.0, w in 1.0f64..12.0) {
            let p = ResourceProfile {
                peak_hour: peak,
                peak_width_hours: w,
                ..ResourceProfile::idle()
            };
            prop_assert!(p.diurnal_shape(peak) > 0.99);
        }
    }
}
