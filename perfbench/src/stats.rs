//! Harness arithmetic: medians and percentiles with their sample counts,
//! failure accounting, the work-counter repeat check, digests, and the
//! process readings from `/proc`.

use std::collections::{BTreeMap, BTreeSet};
use turbosyn_json::Json;

/// Samples of one measured quantity.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, value: f64) {
        self.0.push(value);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        sorted
    }

    /// The middle sample, or the mean of the two middle samples of an
    /// even count; `None` without samples.
    pub fn median(&self) -> Option<f64> {
        let sorted = self.sorted();
        let n = sorted.len();
        match n {
            0 => None,
            _ if n % 2 == 1 => Some(sorted[n / 2]),
            _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
        }
    }

    /// The smallest sample: contention from elsewhere on the machine
    /// only ever adds time, so the minimum is a timing's steadiest
    /// estimate. `None` without samples.
    pub fn min(&self) -> Option<f64> {
        self.0.iter().copied().reduce(f64::min)
    }

    /// Nearest-rank percentile: the smallest sample with at least
    /// `percent` of all samples at or below it; `None` without samples.
    pub fn percentile(&self, percent: usize) -> Option<f64> {
        let rank = nearest_rank(percent, self.len())?;
        Some(self.sorted()[rank - 1])
    }
}

fn nearest_rank(percent: usize, n: usize) -> Option<usize> {
    (n > 0).then(|| (percent * n).div_ceil(100).clamp(1, n))
}

/// The geometric mean; `None` for no values or a non-positive one.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0) {
        return None;
    }
    Some((values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp())
}

/// Attempted operations and the reason each failed one failed.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    attempted: u64,
    failures: Vec<String>,
}

impl Tally {
    /// Counts one attempt; `Err` says why it failed.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failures.push(why);
        }
    }

    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// Failed over attempted; 0 when nothing was attempted.
    pub fn share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }
}

/// Deterministic work counters by name: two runs of the same code on
/// the same inputs must produce them exactly.
pub type Counters = BTreeMap<String, u64>;

/// Adds the integer fields of a counter object from one of the library's
/// JSON encoders (`label_stats_to_json`, `cache_stats_to_json`) under
/// `prefix`. A key the encoder does not emit stays absent here, so a
/// counter deleted from the library never breaks the benchmark.
pub fn add_counters(into: &mut Counters, prefix: &str, object: &Json) {
    for (key, value) in object.as_obj().unwrap_or_default() {
        if let Some(v) = value.as_u64() {
            *into.entry(format!("{prefix}{key}")).or_default() += v;
        }
    }
}

/// Adds every counter of `from` into `into`.
pub fn merge(into: &mut Counters, from: &Counters) {
    for (key, v) in from {
        *into.entry(key.clone()).or_default() += v;
    }
}

/// Every counter that differs between two readings that must repeat
/// exactly, a counter present in only one of them included.
pub fn repeat_mismatches(expected: &Counters, got: &Counters) -> Vec<String> {
    let keys: BTreeSet<&String> = expected.keys().chain(got.keys()).collect();
    let show = |v: Option<&u64>| v.map_or("absent".to_string(), u64::to_string);
    keys.into_iter()
        .filter(|key| expected.get(*key) != got.get(*key))
        .map(|key| {
            format!(
                "{key}: {} then {}",
                show(expected.get(key)),
                show(got.get(key))
            )
        })
        .collect()
}

/// The FNV-1a offset basis, where every digest starts.
pub const FNV_START: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a of `bytes`, continuing from `state`.
pub fn fnv(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A digest of a counter set, continuing from `state`.
pub fn counters_digest(state: u64, counters: &Counters) -> u64 {
    counters.iter().fold(state, |h, (key, v)| {
        fnv(fnv(h, key.as_bytes()), &v.to_le_bytes())
    })
}

/// User plus system CPU seconds of this process, all threads, from
/// `/proc/self/stat`; NaN where `/proc` is missing.
pub fn cpu_seconds() -> f64 {
    cpu_seconds_in("/proc/self/stat")
}

/// User plus system CPU seconds of the calling thread, from
/// `/proc/thread-self/stat`; NaN where `/proc` is missing.
pub fn thread_cpu_seconds() -> f64 {
    cpu_seconds_in("/proc/thread-self/stat")
}

/// Fields 14 and 15 of a `stat` file (USER_HZ ticks, 100 a second on
/// Linux), in seconds.
fn cpu_seconds_in(path: &str) -> f64 {
    let stat = std::fs::read_to_string(path).unwrap_or_default();
    // Field 2, the command name, is parenthesised and may hold spaces;
    // field 3 is the first one after the closing parenthesis.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let field = |n: usize| {
        rest.split_whitespace()
            .nth(n - 3)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(f64::NAN)
    };
    (field(14) + field(15)) / 100.0
}

/// Peak resident set size of this process (`VmHWM`), in MiB; NaN where
/// `/proc` is missing.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use turbosyn::{cache_stats_to_json, label_stats_to_json, CacheStats, LabelStats};

    fn samples(values: &[f64]) -> Samples {
        let mut s = Samples::default();
        for &v in values {
            s.push(v);
        }
        s
    }

    #[test]
    fn percentiles_use_nearest_rank_and_count_samples() {
        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let s = samples(&hundred);
        assert_eq!(s.len(), 100);
        assert_eq!(s.percentile(50), Some(50.0));
        assert_eq!(s.percentile(99), Some(99.0));
        assert_eq!(s.percentile(100), Some(100.0));
        assert_eq!(s.percentile(0), Some(1.0));
        assert_eq!(s.median(), Some(50.5));
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.sum(), 5050.0);

        let few = samples(&[3.0, 1.0, 2.0]);
        assert_eq!(
            few.percentile(99),
            Some(3.0),
            "p99 of few samples is the maximum"
        );
        assert_eq!(few.median(), Some(2.0));

        let empty = Samples::default();
        assert_eq!(
            (empty.median(), empty.percentile(50), empty.min()),
            (None, None, None)
        );
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]).unwrap() - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.share(), 0.0);
        t.record(Ok(()));
        t.record(Err("refused (busy)".into()));
        t.record(Ok(()));
        t.record(Err("degraded report".into()));
        assert_eq!((t.attempted(), t.failed()), (4, 2));
        assert_eq!(t.share(), 0.5);
        assert_eq!(t.failures(), ["refused (busy)", "degraded report"]);
    }

    #[test]
    fn counters_come_from_the_encoders_and_skip_absent_keys() {
        let mut c = Counters::new();
        let label = LabelStats {
            sweeps: 3,
            cut_tests: 7,
            ..LabelStats::default()
        };
        add_counters(&mut c, "label.", &label_stats_to_json(&label));
        add_counters(&mut c, "label.", &label_stats_to_json(&label));
        add_counters(
            &mut c,
            "cache.",
            &cache_stats_to_json(&CacheStats::default()),
        );
        assert_eq!(c["label.sweeps"], 6);
        assert_eq!(c["label.cut_tests"], 14);
        assert_eq!(c["cache.decomposition_hits"], 0);
        // An encoder that no longer emits a key leaves it absent.
        let trimmed = Json::obj(vec![("sweeps", Json::from(1u64))]);
        let mut d = Counters::new();
        add_counters(&mut d, "label.", &trimmed);
        assert_eq!(d.len(), 1);
        assert!(!d.contains_key("label.cut_tests"));
    }

    #[test]
    fn repeat_check_flags_changed_missing_and_extra_counters() {
        let a: Counters = [("x".to_string(), 1), ("y".to_string(), 2)].into();
        assert!(repeat_mismatches(&a, &a.clone()).is_empty());
        let mut b = a.clone();
        b.insert("x".into(), 5);
        b.remove("y");
        b.insert("z".into(), 0);
        assert_eq!(
            repeat_mismatches(&a, &b),
            ["x: 1 then 5", "y: 2 then absent", "z: absent then 0"]
        );
        assert_ne!(
            counters_digest(FNV_START, &a),
            counters_digest(FNV_START, &b)
        );
        let mut merged = a.clone();
        merge(&mut merged, &a);
        assert_eq!(merged["y"], 4);
    }

    #[test]
    fn process_readings_are_positive() {
        assert!(cpu_seconds() >= 0.0);
        assert!(thread_cpu_seconds() >= 0.0);
        assert!(thread_cpu_seconds() <= cpu_seconds());
        assert!(peak_rss_mb() > 0.0);
    }
}
