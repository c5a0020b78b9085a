//! The named metrics: how each end-to-end number is derived from a leg, and
//! how a run is printed and stored.

use crate::stats;
use crate::workload::{Leg, Round};
use datagen::QueryKind;
use std::fmt::Write as _;
use std::path::Path;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples (or operations) behind the value; 0 where that is no count.
    pub samples: u64,
    /// Anything a reader must know to interpret the value, e.g. that a
    /// short run could only support p97 where p99 was asked for.
    pub note: String,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            samples: 0,
            note: String::new(),
        }
    }

    fn of(mut self, samples: u64) -> Metric {
        self.samples = samples;
        self
    }
}

/// Name and unit of every end-to-end metric, as `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 14] = [
    ("setup_s", "s"),
    ("queries_per_s", "queries/s"),
    ("subset_p50_us", "us"),
    ("equality_p50_us", "us"),
    ("superset_p50_us", "us"),
    ("subset_p99_us", "us"),
    ("equality_p99_us", "us"),
    ("superset_p99_us", "us"),
    ("inserts_per_s", "records/s"),
    ("insert_p50_us", "us"),
    ("insert_p99_us", "us"),
    ("write_amp", "B/B"),
    ("space_amp", "B/B"),
    ("peak_rss_mb", "MiB"),
];

/// `<prefix>_p50_us`: each round's median, then the median round — a
/// disturbance that slows one round does not move it.
///
/// `<prefix>_p99_us`: query rounds draw from one distribution (same
/// service, same pool), so their samples are pooled (`pool_tail`) — the
/// tail is a few heavy queries, and the more of them the steadier. Insert
/// rounds do not: each works on longer lists and a busier disk than the
/// last, so there the round is the unit, as for the median, as long as
/// every round has ten samples beyond its p99. Where even the pool is too
/// short, the highest percentile with ten samples beyond it is reported
/// and the note says which.
fn latency_pair(prefix: &str, rounds: &[&[f64]], pool_tail: bool) -> [Metric; 2] {
    let sorted = |samples: &[f64]| {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        v
    };
    let rounds: Vec<Vec<f64>> = rounds
        .iter()
        .filter(|r| !r.is_empty())
        .map(|r| sorted(r))
        .collect();
    let n: usize = rounds.iter().map(Vec::len).sum();
    let per_round =
        |p: f64| -> Vec<f64> { rounds.iter().map(|r| stats::nearest_rank(r, p)).collect() };
    let p50 = Metric::new(
        format!("{prefix}_p50_us"),
        stats::median(&per_round(50.0)),
        "us",
    );
    let mut p99 = Metric::new(format!("{prefix}_p99_us"), f64::NAN, "us");
    if !pool_tail
        && rounds
            .iter()
            .all(|r| stats::supported_percentile(r.len(), 99) == 99)
    {
        p99.value = stats::median(&per_round(99.0));
    } else {
        let pooled = sorted(&rounds.concat());
        let tail = stats::supported_percentile(n, 99);
        p99.value = stats::nearest_rank(&pooled, tail as f64);
        p99.note = if tail == 99 {
            "pooled over rounds".to_string()
        } else {
            format!("p{tail}: too few samples for p99")
        };
    }
    [p50.of(n as u64), p99.of(n as u64)]
}

/// `VmHWM` of this process in MiB: the most memory it ever held.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The end-to-end metrics of an untraced leg, in `END_TO_END` order.
pub fn end_to_end(leg: &Leg, setup_s: &[f64]) -> Vec<Metric> {
    // The median round's rate, over the rounds that have one.
    let rate = |name: &str, unit, of: fn(&Round) -> Option<f64>| {
        let rates: Vec<f64> = leg.rounds.iter().filter_map(of).collect();
        Metric::new(name, stats::median(&rates), unit).of(rates.len() as u64)
    };
    let mut out = vec![
        Metric::new("setup_s", stats::median(setup_s), "s").of(setup_s.len() as u64),
        rate("queries_per_s", "queries/s", |r| r.queries_per_s),
    ];
    let mut tails = Vec::new();
    for (slot, kind) in QueryKind::ALL.iter().enumerate() {
        let rounds: Vec<&[f64]> = leg.rounds.iter().map(|r| &r.query_us[slot][..]).collect();
        let [p50, p99] = latency_pair(kind.name(), &rounds, true);
        out.push(p50);
        tails.push(p99);
    }
    out.extend(tails);
    out.push(rate("inserts_per_s", "records/s", |r| r.inserts_per_s));
    let rounds: Vec<&[f64]> = leg.rounds.iter().map(|r| &r.insert_us[..]).collect();
    out.extend(latency_pair("insert", &rounds, false));
    let written = leg.io.writes * pagestore::PAGE_SIZE as u64 + leg.io.wal_bytes;
    out.push(
        Metric::new(
            "write_amp",
            written as f64 / leg.inserted_user_bytes as f64,
            "B/B",
        )
        .of(leg.measured_inserts as u64),
    );
    out.push(Metric::new(
        "space_amp",
        leg.dir_bytes_at_persist as f64 / leg.user_bytes_at_persist as f64,
        "B/B",
    ));
    out.push(Metric::new("peak_rss_mb", peak_rss_mb(), "MiB"));
    debug_assert!(out
        .iter()
        .map(|m| m.name.as_str())
        .eq(END_TO_END.iter().map(|e| e.0)));
    out
}

/// A finished run: what the driver reads, and what `compare` reads back.
pub struct RunReport {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub scale: usize,
    pub traced: bool,
    pub stages: Vec<String>,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

fn number(v: f64) -> String {
    // JSON has no NaN or infinity; a metric that could not be computed is
    // written as null and fails the run.
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

impl RunReport {
    /// The line the driver parses: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Every metric by name with its unit, for a person.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = write!(out, "{:<44} {:>16.4} {:<10}", m.name, m.value, m.unit);
            if m.samples > 0 {
                let _ = write!(out, " n={}", m.samples);
            }
            if !m.note.is_empty() {
                let _ = write!(out, " ({})", m.note);
            }
            out.push('\n');
        }
        out
    }

    /// The stored form: the result line's fields plus what identifies the
    /// run and the sample count behind each value.
    pub fn to_json(&self) -> String {
        let stages: Vec<String> = self.stages.iter().map(|p| format!("\"{p}\"")).collect();
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{{\"metric\":\"{}\",\"value\":{},\"unit\":\"{}\",\"samples\":{},\"note\":\"{}\"}}",
                    m.name,
                    number(m.value),
                    m.unit,
                    m.samples,
                    m.note
                )
            })
            .collect();
        format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"git_rev\":\"{}\",\"seconds\":{},\"scale\":{},\
             \"traced\":{},\"op_counts\":[{}],\"correct\":{},\"attempted\":{},\"failed\":{},\
             \"metrics\":[\n{}\n]}}",
            self.workload,
            self.seed,
            git_rev(),
            self.seconds,
            self.scale,
            self.traced,
            stages.join(","),
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",\n")
        )
    }

    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json() + "\n")
    }
}

/// The commit the numbers belong to; "unknown" outside a git checkout.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_samples_report_a_lower_tail_and_say_so() {
        // Two rounds of 100: medians 50 and 150, so the median round is 100.
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        let [p50, tail] = latency_pair("insert", &[&samples[..100], &samples[100..], &[]], false);
        assert_eq!((p50.name.as_str(), p50.value), ("insert_p50_us", 100.0));
        // 200 samples: ten beyond the rank only up to p95.
        assert_eq!(tail.name, "insert_p99_us");
        assert_eq!(tail.value, 190.0);
        assert!(tail.note.starts_with("p95"));
        let many: Vec<f64> = (1..=2000).map(f64::from).collect();
        let [_, p99] = latency_pair("insert", &[&many], false);
        assert_eq!(p99.value, 1980.0);
        assert!(p99.note.is_empty());
        // Two rounds of 1000 support p99 each: 990 and 1990, median 1490.
        let halves: [&[f64]; 2] = [&many[..1000], &many[1000..]];
        let [_, p99] = latency_pair("insert", &halves, false);
        assert_eq!(p99.value, 1490.0);
        // … unless the caller says the rounds are one distribution.
        let [_, p99] = latency_pair("subset", &halves, true);
        assert_eq!(p99.value, 1980.0);
        // Rounds of 500 do not; the pool of 2000 does.
        let quarters: Vec<&[f64]> = many.chunks(500).collect();
        let [_, p99] = latency_pair("insert", &quarters, false);
        assert_eq!(
            (p99.value, p99.note.as_str()),
            (1980.0, "pooled over rounds")
        );
    }
}
