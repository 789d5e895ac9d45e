//! Named metrics, summary statistics and the result line.

use std::fmt::Write as _;

/// One measured value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The metric's name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one run measured and checked.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Requests submitted to the system under test in timed phases.
    pub attempted: u64,
    /// Requests of iterations whose outcome disagreed with a reference.
    pub failed: u64,
    /// Named reference checks and shadow replays with their outcome and,
    /// for a failure, what disagreed.
    pub checks: Vec<(String, Result<(), String>)>,
    /// The metrics the result line carries: every end-to-end metric, or
    /// with `--trace 1` every per-layer metric.
    pub metrics: Vec<Metric>,
    /// Diagnostics printed above the result line only.
    pub diagnostics: Vec<Metric>,
    /// Per-layer metrics this workload cannot measure, with the reason.
    /// They are still emitted (as 0) so every workload carries one schema.
    pub unmeasured: Vec<(&'static str, &'static str)>,
}

impl Report {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, outcome)| outcome.is_ok())
    }

    /// The value of a result-line metric, if present.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The human-readable lines printed above the result line.
    pub fn text_lines(&self) -> Vec<String> {
        let mut lines = Vec::new();
        for (name, outcome) in &self.checks {
            lines.push(match outcome {
                Ok(()) => format!("check {name} ok"),
                Err(why) => format!("check {name} FAILED: {why}"),
            });
        }
        for m in self.metrics.iter().chain(&self.diagnostics) {
            lines.push(format!("metric {} {} {}", m.name, m.value, m.unit));
        }
        for (name, why) in &self.unmeasured {
            lines.push(format!("unmeasured {name}: {why}"));
        }
        lines
    }

    /// The single-line JSON result object.
    pub fn json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            // `{:?}` prints the shortest representation that round-trips,
            // with a decimal point, so every digit measured survives.
            write!(
                out,
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        out
    }
}

/// The `q`-quantile of ascending `sorted` samples by nearest rank.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values` (the mean of the middle two for an even count).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_by_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50);
        assert_eq!(quantile(&v, 0.99), 99);
        assert_eq!(quantile(&v, 1.0), 100);
        assert_eq!(quantile(&[7], 0.99), 7);
    }

    #[test]
    fn json_line_keeps_every_digit() {
        let report = Report {
            attempted: 3,
            metrics: vec![metric("setup_s", 0.812_734_5, "s")],
            ..Report::default()
        };
        assert_eq!(
            report.json_line(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127345, \"unit\": \"s\"}}}"
        );
    }
}
