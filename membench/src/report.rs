//! Result accounting shared by every workload: named metrics with units,
//! the tail-percentile rule, request tallies, correctness checks, and the
//! one-line JSON result.

use std::fmt::Write as _;

/// Whether `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else { return false };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Named metrics in insertion order, each with its unit.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Sets `name` to `value` (replacing an earlier value).
    ///
    /// # Panics
    ///
    /// On an invalid name or a non-finite value: both are bugs in the
    /// benchmark, never in the measured program.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(valid_metric_name(name), "invalid metric name `{name}`");
        assert!(value.is_finite(), "metric `{name}` is not finite: {value}");
        match self.entries.iter_mut().find(|(n, ..)| n == name) {
            Some(entry) => *entry = (name.to_string(), value, unit),
            None => self.entries.push((name.to_string(), value, unit)),
        }
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries.iter().find(|(n, ..)| n == name).map(|&(_, v, _)| v)
    }

    /// `(name, value, unit)` in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64, &str)> {
        self.entries.iter().map(|(n, v, u)| (n.as_str(), *v, *u))
    }

    /// One `name = value unit` line per metric.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.entries {
            let _ = writeln!(out, "  {name} = {value} {unit}");
        }
        out
    }

    fn to_json(&self) -> String {
        let body: Vec<String> = self
            .entries
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// The quantile the tail metric reports for `n` samples: the highest one
/// with at least 10 samples beyond it, capped at 0.99 and floored at the
/// median (below 20 samples no tail quantile has 10 samples beyond it
/// and still lies above the median).
pub fn tail_quantile(n: usize) -> f64 {
    if n < 20 {
        return 0.5;
    }
    ((n - 10) as f64 / n as f64).min(0.99)
}

/// Nearest-rank quantile of ascending `sorted` samples (0 when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median and tail of a latency sample, with the count they rest on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentiles {
    /// Samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The quantile [`tail_quantile`] picks for `n`.
    pub tail_q: f64,
    /// The value at `tail_q`.
    pub tail: f64,
}

impl Percentiles {
    /// Summarizes `samples` (reordered in place).
    pub fn of(samples: &mut [f64]) -> Percentiles {
        samples.sort_by(f64::total_cmp);
        let tail_q = tail_quantile(samples.len());
        Percentiles {
            n: samples.len(),
            p50: quantile(samples, 0.5),
            tail_q,
            tail: quantile(samples, tail_q),
        }
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

/// Operations sent, and how each ended.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub sent: u64,
    /// Operations that completed with a result.
    pub succeeded: u64,
    /// Operations rejected, expired or failed with an error.
    pub failed: u64,
}

impl Tally {
    /// Records one operation's outcome.
    pub fn record(&mut self, ok: bool) {
        self.sent += 1;
        if ok {
            self.succeeded += 1;
        } else {
            self.failed += 1;
        }
    }

    /// Failed over attempted (0 when nothing was attempted).
    pub fn fail_frac(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            self.failed as f64 / self.sent as f64
        }
    }

    /// Whether every operation ended exactly once.
    pub fn balanced(&self) -> bool {
        self.succeeded + self.failed == self.sent
    }
}

/// Correctness checks of one run; any failed check fails the run.
#[derive(Debug, Default)]
pub struct Checks {
    failures: Vec<String>,
}

impl Checks {
    /// Records a failure described by `what` unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let what = what();
            if self.failures.len() < 20 {
                self.failures.push(what);
            }
        }
    }

    /// The failures recorded so far.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// Whether every check passed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_json(correct: bool, tally: Tally, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.sent,
        tally.failed,
        metrics.to_json()
    )
}

/// Peak resident set size of this process in MB (`VmHWM`), if the
/// platform reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_follow_the_charset() {
        for good in ["setup_s", "serve.queue_wait_us.p99", "a-b", "9lives", "x"] {
            assert!(valid_metric_name(good), "{good}");
        }
        let long = "a".repeat(65);
        for bad in ["", ".lead", "_lead", "has space", "slash/y", "uni\u{e9}", "q\"", long.as_str()]
        {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        assert!(valid_metric_name(&"a".repeat(64)));
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn setting_an_invalid_name_panics() {
        Metrics::default().set("bad name", 1.0, "count");
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // Under 20 samples the rule has no quantile above the median.
        assert_eq!(tail_quantile(0), 0.5);
        assert_eq!(tail_quantile(19), 0.5);
        assert_eq!(tail_quantile(20), 0.5);
        assert_eq!(tail_quantile(100), 0.9);
        assert_eq!(tail_quantile(1000), 0.99);
        assert_eq!(tail_quantile(5000), 0.99);
        for n in [20usize, 37, 100, 250, 999, 1000, 4321] {
            let mut samples: Vec<f64> = (1..=n).map(|v| v as f64).collect();
            let p = Percentiles::of(&mut samples);
            assert_eq!(p.n, n);
            let beyond = samples.iter().filter(|&&v| v > p.tail).count();
            assert!(beyond >= 10, "n={n}: only {beyond} samples beyond the tail");
            assert!(p.tail >= p.p50);
        }
        let mut samples: Vec<f64> = (1..=1000).rev().map(|v| v as f64).collect();
        let p = Percentiles::of(&mut samples);
        assert_eq!((p.p50, p.tail, p.tail_q), (500.0, 990.0, 0.99));
    }

    #[test]
    fn quantile_of_empty_and_single_samples() {
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn fail_frac_counts_failures_against_attempts() {
        let mut tally = Tally::default();
        assert_eq!(tally.fail_frac(), 0.0);
        for ok in [true, true, false, true] {
            tally.record(ok);
        }
        assert_eq!((tally.sent, tally.succeeded, tally.failed), (4, 3, 1));
        assert_eq!(tally.fail_frac(), 0.25);
        assert!(tally.balanced());
        assert_eq!(Tally { sent: 10, succeeded: 9, failed: 1 }.fail_frac(), 0.1);
        assert!(!Tally { sent: 3, succeeded: 1, failed: 1 }.balanced());
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut metrics = Metrics::default();
        metrics.set("latency_ms", 1.25, "ms");
        metrics.set("count", 3.0, "count");
        metrics.set("latency_ms", 1.5, "ms");
        let line = result_json(true, Tally { sent: 5, succeeded: 4, failed: 1 }, &metrics);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 5, \"failed\": 1, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, \
             \"count\": {\"value\": 3, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn failed_checks_fail_the_run() {
        let mut checks = Checks::default();
        checks.check(true, || unreachable!());
        assert!(checks.passed());
        checks.check(false, || "broken".into());
        assert_eq!(checks.failures(), ["broken".to_string()]);
    }
}
