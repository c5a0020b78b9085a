//! `all` — every workload, untraced and traced, each in a process of its
//! own (so `peak_rss_mb` is that workload's), gathered into one results
//! file; and `compare` — two results files judged by the bounds in
//! `BENCHMARK.json`.

use crate::fixture;
use crate::json::{self, Value};
use crate::stats;
use crate::workload::{self, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::Command;

fn benchmark_json() -> PathBuf {
    let out = fixture::out_dir();
    let repo = out
        .parent()
        .and_then(Path::parent)
        .expect("out/ sits two levels below the repository root");
    repo.join("BENCHMARK.json")
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `all [--seed n] [--seconds s] [--runs n] [--smoke]`: `runs` untraced
/// runs per workload on seeds `seed, seed+1, …`, then one traced run.
/// Writes `out/results.json`; true when every run was correct.
pub fn run_all(args: &[String]) -> Result<bool, String> {
    let mut seed = 1u64;
    let mut seconds = workload::REF_SECONDS.to_string();
    let mut runs = 1u64;
    let mut smoke = false;
    for (flag, value) in crate::flag_pairs(args)? {
        match flag {
            "--smoke" => smoke = true,
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--runs" => runs = value.parse().map_err(|e| format!("--runs: {e}"))?,
            "--seconds" => seconds = value.to_string(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let out = fixture::out_dir();
    let mut stored = Vec::new();
    let mut all_correct = true;
    for w in &WORKLOADS {
        for r in 0..runs + 1 {
            let traced = r == runs;
            let run_seed = if traced { seed } else { seed + r };
            let mut cmd = Command::new(&exe);
            cmd.args(["run", "--workload", w.name, "--seconds", &seconds]);
            cmd.args(["--seed", &run_seed.to_string()]);
            cmd.args(["--trace", if traced { "1" } else { "0" }]);
            if smoke {
                cmd.arg("--smoke");
            }
            println!("== {} seed {run_seed} trace {}", w.name, traced as u8);
            // Inherited stdout: the child's table is this command's output.
            let status = cmd
                .status()
                .map_err(|e| format!("starting the {} run: {e}", w.name))?;
            all_correct &= status.success();
            let file = if traced {
                format!("{}.trace-metrics.json", w.name)
            } else {
                format!("{}.json", w.name)
            };
            let text = std::fs::read_to_string(out.join(&file))
                .map_err(|e| format!("the {} run left no {file}: {e}", w.name))?;
            stored.push(text.trim_end().to_string());
        }
    }
    let results = out.join("results.json");
    std::fs::write(
        &results,
        format!("{{\"runs\":[\n{}\n]}}\n", stored.join(",\n")),
    )
    .map_err(|e| format!("writing {}: {e}", results.display()))?;
    println!("wrote {}", results.display());
    Ok(all_correct)
}

/// The untraced runs of a results file: `{"runs":[…]}` or one bare run.
fn untraced_runs(doc: &Value) -> Vec<&Value> {
    let runs = match doc.get("runs").and_then(Value::as_array) {
        Some(runs) => runs.iter().collect(),
        None => vec![doc],
    };
    runs.into_iter()
        .filter(|r| r.get("traced") != Some(&Value::Bool(true)))
        .collect()
}

fn values_of(runs: &[&Value], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.get("workload").and_then(Value::as_str) == Some(workload))
        .filter_map(|r| r.get("metrics")?.as_array())
        .flatten()
        .filter(|m| m.get("metric").and_then(Value::as_str) == Some(metric))
        .filter_map(|m| m.get("value")?.as_f64())
        .collect()
}

#[derive(Debug, PartialEq)]
enum Verdict {
    Ok,
    Worse,
    /// The runs spread wider than the bound, so a difference of the
    /// medians within it says nothing either way.
    Unresolved,
}

/// Judge `b` against `a` (the base): worse when `b`'s median is worse than
/// `a`'s by more than `bound`. When either side's own runs spread wider
/// than the bound, the medians settle nothing unless every run of one side
/// beats every run of the other.
fn judge(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> (f64, Verdict) {
    let (ma, mb) = (stats::median(a), stats::median(b));
    let ratio = mb / ma;
    let worse_by = if lower_is_better {
        ratio - 1.0
    } else {
        1.0 - ratio
    };
    let spread = |v: &[f64]| {
        if v.len() < 2 {
            return 0.0;
        }
        let (q1, q3) = stats::quartiles(v);
        (q3 - q1) / stats::median(v)
    };
    let noisy = spread(a) > bound || spread(b) > bound;
    let ((a_lo, a_hi), (b_lo, b_hi)) = (min_max(a), min_max(b));
    let b_always_better = if lower_is_better {
        b_hi < a_lo
    } else {
        b_lo > a_hi
    };
    let verdict = if noisy && !b_always_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (ratio, verdict)
}

fn min_max(v: &[f64]) -> (f64, f64) {
    v.iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        })
}

/// `compare <a.json> <b.json>`: one row per workload × end-to-end metric.
/// True when no row is worse.
pub fn compare_files(args: &[String]) -> Result<bool, String> {
    let [a_path, b_path] = args else {
        return Err("compare takes two results files".into());
    };
    let spec = read_json(&benchmark_json())?;
    let (a_doc, b_doc) = (read_json(Path::new(a_path))?, read_json(Path::new(b_path))?);
    let (a_runs, b_runs) = (untraced_runs(&a_doc), untraced_runs(&b_doc));
    let metrics = spec
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    println!(
        "{:<15} {:<16} {:>14} {:>14} {:>8}  {:<6} verdict",
        "workload", "metric", "a (base)", "b", "b/a", "bound"
    );
    let mut none_worse = true;
    for w in &WORKLOADS {
        for m in metrics {
            let field = |k: &str| m.get(k).and_then(Value::as_str);
            let (Some(name), Some(better), Some(bound)) = (
                field("name"),
                field("better"),
                m.get("bound").and_then(Value::as_f64),
            ) else {
                return Err(
                    "BENCHMARK.json: an end_to_end entry lacks name, better or bound".into(),
                );
            };
            let (a, b) = (
                values_of(&a_runs, w.name, name),
                values_of(&b_runs, w.name, name),
            );
            if a.is_empty() || b.is_empty() {
                println!("{:<15} {:<16} missing from one side", w.name, name);
                continue;
            }
            let (ratio, verdict) = judge(&a, &b, better == "lower", bound);
            none_worse &= verdict != Verdict::Worse;
            println!(
                "{:<15} {:<16} {:>14.4} {:>14.4} {:>8.4}  {:<6} {}",
                w.name,
                name,
                stats::median(&a),
                stats::median(&b),
                ratio,
                bound,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(none_worse)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::PER_LAYER;
    use crate::report::END_TO_END;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        // Lower is better, bound 10 %.
        assert_eq!(judge(&[100.0], &[105.0], true, 0.1).1, Verdict::Ok);
        assert_eq!(judge(&[100.0], &[115.0], true, 0.1).1, Verdict::Worse);
        // Higher is better: 85 against 100 is 15 % worse.
        assert_eq!(judge(&[100.0], &[85.0], false, 0.1).1, Verdict::Worse);
        assert_eq!(judge(&[100.0], &[120.0], false, 0.1).1, Verdict::Ok);
        // The base's own runs spread 40 %: nothing can be said …
        let noisy = [80.0, 90.0, 100.0, 120.0, 130.0];
        assert_eq!(
            judge(&noisy, &[95.0, 100.0, 105.0], true, 0.1).1,
            Verdict::Unresolved
        );
        // … unless every run of b beats every run of a.
        assert_eq!(judge(&noisy, &[60.0, 70.0], true, 0.1).1, Verdict::Ok);
        let (ratio, _) = judge(&[200.0], &[100.0], true, 0.1);
        assert_eq!(ratio, 0.5);
    }

    /// `BENCHMARK.json` is the contract; the program must print exactly
    /// the workloads and metrics it lists.
    #[test]
    fn benchmark_json_lists_what_the_program_prints() {
        let spec = read_json(&benchmark_json()).unwrap();
        let names = |key: &str, unit: bool| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(Value::as_array)
                .unwrap()
                .iter()
                .map(|e| {
                    let s = |k: &str| e.get(k).and_then(Value::as_str).unwrap_or("").to_string();
                    (s("name"), if unit { s("unit") } else { s("why") })
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end", true), own(&END_TO_END));
        assert_eq!(names("per_layer", true), own(&PER_LAYER));
        let workloads: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(names("workloads", false), own(&workloads));
    }
}
