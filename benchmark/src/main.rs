//! End-to-end benchmark of the sharded containment-query service on real
//! `FileStorage` + WAL. See `benchmark/README.md`.
//!
//! ```text
//! oif-benchmark run --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! oif-benchmark all [--seed <n>] [--seconds <s>] [--runs <n>] [--smoke]
//! oif-benchmark compare <a.json> <b.json>
//! ```

mod compare;
mod fixture;
mod json;
mod layers;
mod probes;
mod report;
mod stats;
mod trace;
mod workload;

use fixture::DataDir;
use report::RunReport;
use std::process::ExitCode;
use std::time::Instant;
use workload::{Stage, Workload};

/// `SyntheticSpec::paper_default(SCALE)`: 200 k records, |I| = 2000,
/// Zipf 0.8, lengths 2–20.
const SCALE: usize = 50;
/// `--smoke`: 20 k records and a hundredth of the operations.
const SMOKE_SCALE: usize = 500;
const SMOKE_OPS: f64 = 0.01;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;

pub struct RunArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

impl RunArgs {
    fn scale(&self) -> usize {
        if self.smoke {
            SMOKE_SCALE
        } else {
            SCALE
        }
    }

    /// The workload's stages at this run's length. A traced run spends its
    /// time on two legs, one untraced for reference, so each gets half.
    fn stages(&self) -> Vec<Stage> {
        let mut factor = self.seconds / workload::REF_SECONDS;
        if self.smoke {
            factor *= SMOKE_OPS;
        }
        if self.trace {
            factor /= 2.0;
        }
        self.workload.scaled_stages(factor)
    }
}

fn usage() -> String {
    let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage:\n  run --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--smoke]\n  \
         all [--seed <n>] [--seconds <s>] [--runs <n>] [--smoke]\n  compare <a.json> <b.json>",
        names.join("|")
    )
}

/// `--flag value` pairs; the bare `--smoke` comes back with an empty value.
pub fn flag_pairs(args: &[String]) -> Result<Vec<(&str, &str)>, String> {
    let mut pairs = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = match flag.as_str() {
            "--smoke" => "",
            _ => it
                .next()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?,
        };
        pairs.push((flag.as_str(), value));
    }
    Ok(pairs)
}

/// The driver's arguments, checked where they enter.
fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = workload::REF_SECONDS;
    let mut trace = false;
    let mut smoke = false;
    for (flag, value) in flag_pairs(args)? {
        match flag {
            "--smoke" => smoke = true,
            "--workload" => {
                workload =
                    Some(workload::find(value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {seconds} is outside (0, 600]"));
                }
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or_else(|| format!("--workload is required\n{}", usage()))?,
        seed,
        seconds,
        trace,
        smoke,
    })
}

/// One untraced run: set up `SETUPS` times (the last one is driven), run
/// the stages, check, report the end-to-end metrics.
fn run_untraced(args: &RunArgs) -> Result<RunReport, String> {
    let stages = args.stages();
    let (per_cell, inserts) = workload::input_sizes(&stages);
    let data = DataDir::create("run").map_err(|e| format!("creating the data directory: {e}"))?;
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut last = None;
    for k in 0..SETUPS {
        let dir = data.join(&format!("svc-{k}"));
        let t0 = Instant::now();
        let inputs = fixture::generate(args.seed, args.scale(), per_cell, inserts);
        let svc = fixture::build_service(&dir, &inputs.dataset, args.workload.cache_bytes, None)?;
        if args.workload.prewarm {
            fixture::prewarm(&svc);
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        if k + 1 < SETUPS {
            drop(svc);
            std::fs::remove_dir_all(&dir)
                .map_err(|e| format!("removing {}: {e}", dir.display()))?;
        } else {
            last = Some((inputs, svc, dir));
        }
    }
    let (inputs, svc, dir) = last.expect("SETUPS is at least 1");
    let leg = workload::run_leg(svc, &dir, &inputs, args.workload, &stages, args.seed, None);
    print_leg(&stages, &leg);
    let metrics = report::end_to_end(&leg, &setup_s);
    let computed = metrics.iter().all(|m| m.value.is_finite() && m.value > 0.0);
    Ok(RunReport {
        workload: args.workload.name.to_string(),
        seed: args.seed,
        seconds: args.seconds,
        scale: args.scale(),
        traced: false,
        stages: stages.iter().map(Stage::label).collect(),
        correct: leg.failed == 0 && computed,
        attempted: leg.attempted,
        failed: leg.failed,
        metrics,
    })
}

fn print_leg(stages: &[Stage], leg: &workload::Leg) {
    let mut rounds = leg.rounds.iter();
    for stage in stages {
        let walls: Vec<String> = rounds
            .by_ref()
            .take(stage.rounds)
            .map(|r| format!("{:.3}", r.wall_s))
            .collect();
        println!("stage: {}: {} s", stage.label(), walls.join(" "));
    }
    println!(
        "checks: {} responses against the brute-force oracle; {} acknowledged, un-checkpointed \
         inserts re-read after dropping and reopening the service (a process drop: this \
         exercises WAL replay, not power loss); {} of {} operations failed",
        leg.oracle_checked, leg.durability_checked, leg.failed, leg.attempted
    );
    for f in &leg.failures {
        println!("FAILED: {f}");
    }
}

fn run(args: &RunArgs) -> Result<RunReport, String> {
    let report = if args.trace {
        layers::run_traced(args)?
    } else {
        run_untraced(args)?
    };
    print!("{}", report.table());
    let out = fixture::out_dir();
    let name = if args.trace {
        format!("{}.trace-metrics.json", report.workload)
    } else {
        format!("{}.json", report.workload)
    };
    report
        .write(&out.join(name))
        .map_err(|e| format!("writing the result file: {e}"))?;
    Ok(report)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..]).and_then(|a| run(&a)).map(|report| {
            println!("{}", report.result_line());
            report.correct
        }),
        Some("all") => compare::run_all(&args[1..]),
        Some("compare") => compare::compare_files(&args[1..]),
        _ => Err(usage()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
