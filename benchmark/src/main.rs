//! The repo's benchmark. Three ways in:
//!
//! * `--workload <name> --seed <n> --seconds <s> --trace <0|1>` — one run of
//!   one workload; the last line of standard output is the result object.
//!   This is what `BENCHMARK.json`'s command resolves to.
//! * `set [--seed n] [--seconds s] [--smoke]` — what a person runs: three
//!   runs of every workload, interleaved `A B C D A B C D A B C D`, each in
//!   a fresh process, then one traced run each; prints every metric by name
//!   with its unit.
//! * `repeat [--sets n]` — `n` (default 2) full sets of the same build and,
//!   per metric and workload, the values, their spread and the bound.
//!
//! `manifest` prints `BENCHMARK.json`.

mod ladder;
mod oracle;
mod pace;
mod report;
mod rng;
mod round;
mod run;
mod stats;
mod trace;
mod world;

use report::{environment_line, RunReport, END_TO_END, PER_LAYER, RUN_SECONDS};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use world::Workload;

#[derive(Debug, Clone)]
struct Options {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    out: PathBuf,
    smoke: bool,
    sets: usize,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        seed: 2012,
        seconds: None,
        trace: false,
        out: PathBuf::from("benchmark/out"),
        smoke: false,
        sets: 2,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                options.workload =
                    Some(Workload::from_name(name).ok_or_else(|| format!("no workload {name}"))?);
            }
            "--seed" => options.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.5..=60.0).contains(&seconds) {
                    return Err("--seconds must be between 0.5 and 60".into());
                }
                options.seconds = Some(seconds);
            }
            "--trace" => options.trace = value()? == "1",
            "--out" => options.out = PathBuf::from(value()?),
            "--sets" => options.sets = value()?.parse().map_err(|e| format!("--sets: {e}"))?,
            "--smoke" => options.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(options)
}

/// One run in this process; prints the table to standard error and the
/// result object as the last line of standard output.
fn single_run(options: &Options) -> Result<bool, String> {
    let workload = options.workload.ok_or("--workload is required")?;
    let seconds = options.seconds.unwrap_or(RUN_SECONDS as f64);
    std::fs::create_dir_all(&options.out)
        .map_err(|e| format!("create {}: {e}", options.out.display()))?;
    eprintln!("{}", environment_line());
    let world = run::generate_world(workload, options.seed)?;
    let report = if options.trace {
        run::run_traced(&world, seconds, &options.out)?
    } else {
        run::run_untraced(&world, seconds, &options.out)?
    };
    eprintln!("{} seed {} ({seconds} s measured):", workload.name(), options.seed);
    eprint!("{}", report.table(options.trace));
    println!("{}", report.result_line(options.trace));
    Ok(report.correct())
}

/// Pull one metric's value back out of a child's result line.
fn value_in(line: &str, name: &str) -> Option<f64> {
    let rest = &line[line.find(&format!("\"{name}\": {{\"value\": "))?..];
    let rest = &rest[rest.find("\"value\": ")? + 9..];
    rest[..rest.find([',', '}'])?].trim().parse().ok()
}

fn count_in(line: &str, key: &str) -> Option<u64> {
    let rest = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
    rest[..rest.find([',', '}'])?].trim().parse().ok()
}

/// Run one workload once in a fresh child process and read its result.
fn child_run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: &Path,
) -> Result<RunReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate this program: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload.name(), "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out)
        .stderr(Stdio::null())
        .output()
        .map_err(|e| format!("start a round: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or_else(|| {
        format!("{} printed no result (exit {:?})", workload.name(), output.status.code())
    })?;
    let names: Vec<&'static str> = if trace {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|(m, _)| m.name).collect()
    };
    let metrics = names
        .into_iter()
        .map(|name| value_in(line, name).map(|v| (name, v)).ok_or(format!("{name} missing")))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(RunReport {
        attempted: count_in(line, "attempted").ok_or("attempted missing")?,
        failed: count_in(line, "failed").ok_or("failed missing")?,
        metrics,
    })
}

/// One set: `runs` untraced runs per workload, interleaved, then a traced
/// run per workload.
struct Set {
    untraced: Vec<(Workload, Vec<RunReport>)>,
    traced: Vec<(Workload, RunReport)>,
}

impl Set {
    fn values(&self, workload: Workload, metric: &str) -> Vec<f64> {
        let runs = &self.untraced.iter().find(|(w, _)| *w == workload).expect("workload ran").1;
        runs.iter().filter_map(|r| r.value(metric)).collect()
    }

    fn median(&self, workload: Workload, metric: &str) -> f64 {
        stats::median(&self.values(workload, metric))
    }

    fn failed(&self) -> u64 {
        self.untraced.iter().flat_map(|(_, runs)| runs).map(|r| r.failed).sum::<u64>()
            + self.traced.iter().map(|(_, r)| r.failed).sum::<u64>()
    }
}

fn run_set(options: &Options) -> Result<Set, String> {
    let seed = options.seed;
    let (runs, seconds, traced_seconds) = if options.smoke {
        (1, 1.0, 2.0)
    } else {
        let seconds = options.seconds.unwrap_or(10.0);
        (3, seconds, seconds)
    };
    let mut untraced: Vec<(Workload, Vec<RunReport>)> =
        Workload::ALL.iter().map(|w| (*w, Vec::new())).collect();
    for run in 0..runs {
        for (workload, reports) in &mut untraced {
            eprintln!("  run {} of {runs}: {}", run + 1, workload.name());
            reports.push(child_run(*workload, seed, seconds, false, &options.out)?);
        }
    }
    let mut traced = Vec::new();
    for workload in Workload::ALL {
        eprintln!("  traced run: {}", workload.name());
        traced.push((workload, child_run(workload, seed, traced_seconds, true, &options.out)?));
    }
    Ok(Set { untraced, traced })
}

fn print_set(set: &Set) {
    for (workload, runs) in &set.untraced {
        println!("\n{} — {}", workload.name(), workload.why());
        for (m, bound) in &END_TO_END {
            let values: Vec<f64> = runs.iter().filter_map(|r| r.value(m.name)).collect();
            let each = values.iter().map(|v| format!("{v:.4}")).collect::<Vec<_>>().join(" ");
            println!(
                "  {:<46} {:>16.4} {:<5} (runs: {each}; bound {:.0} %)",
                m.name,
                stats::median(&values),
                m.unit,
                bound * 100.0
            );
        }
        let attempted: u64 = runs.iter().map(|r| r.attempted).sum();
        let failed: u64 = runs.iter().map(|r| r.failed).sum();
        println!("  {:<46} {failed:>16} of {attempted}", "failed operations");
        if let Some((_, traced)) = set.traced.iter().find(|(w, _)| w == workload) {
            print!("{}", traced.table(true));
        }
    }
}

fn set_command(options: &Options) -> Result<bool, String> {
    println!("{}", environment_line());
    let set = run_set(options)?;
    print_set(&set);
    Ok(set.failed() == 0)
}

/// Several sets of the same build: per metric and workload every set's
/// median, the widest relative difference between two sets, the spread of
/// all runs (interquartile range over median, as the driver computes it),
/// and whether the difference stays within the metric's bound.
fn repeat_command(options: &Options) -> Result<bool, String> {
    println!("{}", environment_line());
    let count = options.sets.max(2);
    let mut sets = Vec::new();
    for n in 0..count {
        eprintln!("set {} of {count}", n + 1);
        sets.push(run_set(options)?);
    }
    let mut within = true;
    println!(
        "\n{:<18} {:<26} {:>10} {:>7} {:>7}  medians per set",
        "workload", "metric", "difference", "spread", "bound"
    );
    for workload in Workload::ALL {
        for (m, bound) in &END_TO_END {
            let medians: Vec<f64> = sets.iter().map(|s| s.median(workload, m.name)).collect();
            let low = medians.iter().copied().fold(f64::INFINITY, f64::min);
            let high = medians.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let difference = if low > 0.0 { (high - low) / low } else { 0.0 };
            let runs: Vec<f64> = sets.iter().flat_map(|s| s.values(workload, m.name)).collect();
            let ok = difference <= *bound;
            within &= ok;
            println!(
                "{:<18} {:<26} {:>9.2}% {:>6.2}% {:>6.0}%  {}{}",
                workload.name(),
                m.name,
                difference * 100.0,
                stats::relative_spread(&runs) * 100.0,
                bound * 100.0,
                medians.iter().map(|v| format!("{v:.4}")).collect::<Vec<_>>().join(" "),
                if ok { "" } else { "   <-- outside the bound" }
            );
        }
    }
    let failed: u64 = sets.iter().map(Set::failed).sum();
    println!(
        "\n{count} sets agree within the bounds on every end-to-end metric: {}; \
         failed operations: {failed}",
        if within { "yes" } else { "NO" }
    );
    Ok(within && failed == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(name @ ("set" | "repeat" | "manifest")) => (name, &args[1..]),
        _ => ("run", &args[..]),
    };
    let outcome = parse(rest).and_then(|options| match command {
        "manifest" => {
            print!("{}", report::manifest_json());
            Ok(true)
        }
        "set" => set_command(&options),
        "repeat" => repeat_command(&options),
        _ => single_run(&options),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("the oracle found failed operations: the run is not correct");
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_come_back_out_of_a_result_line() {
        let report = RunReport {
            attempted: 42,
            failed: 3,
            metrics: END_TO_END
                .iter()
                .enumerate()
                .map(|(i, (m, _))| (m.name, 1.25 + i as f64))
                .collect(),
        };
        let line = report.result_line(false);
        assert_eq!(value_in(&line, "ingest_tuples_per_s"), Some(1.25));
        assert_eq!(value_in(&line, "setup_s"), Some(5.25));
        assert_eq!(value_in(&line, "nope"), None);
        assert_eq!(count_in(&line, "attempted"), Some(42));
        assert_eq!(count_in(&line, "failed"), Some(3));
    }

    #[test]
    fn arguments_parse_and_reject() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let o = parse(&args("--workload city_ingest --seed 7 --seconds 20 --trace 1")).unwrap();
        assert_eq!(
            (o.workload, o.seed, o.seconds, o.trace),
            (Some(Workload::CityIngest), 7, Some(20.0), true)
        );
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--seconds 0")).is_err());
        assert!(parse(&args("--bogus")).is_err());
        assert_eq!(parse(&[]).unwrap().seed, 2012);
    }
}
