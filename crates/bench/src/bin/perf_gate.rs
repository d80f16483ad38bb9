//! CI perf-regression gate: compare a fresh `engine_throughput` report
//! against the committed baseline and fail on significant regressions.
//!
//! CI runners differ wildly from the reference machine, so absolute
//! tuples/sec numbers cannot be compared across machines. What *is*
//! machine-portable are the **relative speedups** the architecture buys —
//! sharded+batched vs. global-lock ingest at each thread count, and
//! indexed vs. linear-scan PDP — because both sides of each ratio
//! run on the same machine in the same process. The gate therefore compares
//! those ratios: a real regression in the concurrent hot path (a new lock,
//! a lost batch path, an index that stopped narrowing) collapses the ratio
//! on every machine.
//!
//! ```text
//! cargo run --release -p exacml-bench --bin perf_gate -- \
//!     --baseline BENCH_pr2_throughput.json --current current.json \
//!     [--tolerance 0.25] [--diff perf_gate_diff.json]
//! ```
//!
//! Exit status is non-zero when any metric fell more than `tolerance`
//! (fractional, default 0.25 = 25%) below the baseline. The diff JSON is
//! written either way so CI can upload it as an artifact.

use exacml_bench::report::write_json;
use serde::Serialize;
use serde_json::Value;
use std::path::PathBuf;
use std::process::ExitCode;

#[derive(Debug, Clone, Serialize)]
struct MetricDiff {
    metric: String,
    baseline: f64,
    current: f64,
    /// `current / baseline`; below `1 - tolerance` fails the gate.
    ratio: f64,
    pass: bool,
}

#[derive(Debug, Clone, Serialize)]
struct GateReport {
    tolerance: f64,
    pass: bool,
    metrics: Vec<MetricDiff>,
}

struct GateOptions {
    baseline: PathBuf,
    current: PathBuf,
    tolerance: f64,
    diff: Option<PathBuf>,
}

fn parse_args() -> GateOptions {
    let mut options = GateOptions {
        baseline: PathBuf::from("BENCH_pr2_throughput.json"),
        current: PathBuf::from("BENCH_pr2_throughput.ci.json"),
        tolerance: 0.25,
        diff: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--baseline" => options.baseline = args.next().expect("--baseline PATH").into(),
            "--current" => options.current = args.next().expect("--current PATH").into(),
            "--tolerance" => {
                options.tolerance =
                    args.next().and_then(|v| v.parse().ok()).expect("--tolerance FRACTION");
            }
            "--diff" => options.diff = args.next().map(Into::into),
            other => panic!("unknown flag {other}"),
        }
    }
    options
}

fn load(path: &PathBuf) -> Value {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("cannot parse {}: {e}", path.display()))
}

/// The ratio metrics of an `engine_throughput` report, by stable name.
fn speedup_metrics(report: &Value) -> Vec<(String, f64)> {
    let mut metrics = Vec::new();
    if let Some(rows) = report.get("ingest_speedup_at_threads").and_then(Value::as_array) {
        for row in rows {
            // Each row is a `(threads, speedup)` tuple, serialized as a
            // two-element array.
            let Some([threads, speedup]) = row.as_array() else { continue };
            if let (Some(threads), Some(speedup)) = (threads.as_f64(), speedup.as_f64()) {
                metrics.push((format!("ingest_speedup_{threads}_threads"), speedup));
            }
        }
    }
    if let Some(value) =
        report.get("pdp").and_then(|p| p.get("indexed_speedup")).and_then(Value::as_f64)
    {
        metrics.push(("pdp_indexed_speedup".to_string(), value));
    }
    // The unified-backend overhead ratio (PR 4): `&dyn Backend` ingest vs.
    // concrete `DataServer` calls on the same workload. Baseline ~1.0; a
    // collapse means the abstraction layer grew a real cost.
    if let Some(value) = report
        .get("backend_abstraction")
        .and_then(|a| a.get("dyn_vs_direct"))
        .and_then(Value::as_f64)
    {
        metrics.push(("backend_dyn_vs_direct".to_string(), value));
    }
    // The WAL-on ingest ratio (PR 5): `DurableServer` journaled ingest vs.
    // plain `DataServer` ingest. Also held to an absolute floor below.
    if let Some(value) =
        report.get("durability").and_then(|d| d.get("durable_vs_direct")).and_then(Value::as_f64)
    {
        metrics.push(("ingest_durable_vs_direct".to_string(), value));
    }
    // The observability overhead ratio (PR 9): instrumented vs. telemetry-
    // disabled `DataServer` ingest on the same workload. Also held to the
    // absolute 0.95 floor below — per-batch spans and sharded counters must
    // stay in the noise on the hot path.
    if let Some(value) =
        report.get("telemetry").and_then(|t| t.get("telemetry_overhead")).and_then(Value::as_f64)
    {
        metrics.push(("telemetry_overhead".to_string(), value));
    }
    // The shared-plan scaling ratios (PR 6), present when the report is a
    // `merge_scale` one — the gate runs once per report pair and each
    // extractor only finds its own keys. `merged_retention_at_100` is also
    // held to the absolute 1/3 floor below (the "100 overlapping
    // subscribers cost ≤ 3× one subscriber" acceptance pin).
    for key in ["merged_retention_at_100", "merged_vs_unmerged_at_100"] {
        if let Some(value) = report.get(key).and_then(Value::as_f64) {
            metrics.push((key.to_string(), value));
        }
    }
    // The fault-tolerance metrics (PR 7), present when the report is a
    // `failover_scale` one. `failover_recovery` is also held to the
    // absolute 1.0 floor below — the zero-acknowledged-grant-loss pin —
    // and `replicated_ingest_vs_durable` to the 0.63 one.
    for key in ["failover_recovery", "replicated_ingest_vs_durable"] {
        if let Some(value) = report.get(key).and_then(Value::as_f64) {
            metrics.push((key.to_string(), value));
        }
    }
    // The batched-routing scaling ratios (PR 8), present when the report is
    // a `fabric_scale` one: the worst virtual-time throughput ratio when
    // the node count doubles (min over topologies × {ingest, requests}).
    // Virtual-time readings are deterministic per seed and machine-
    // independent, so each ratio is also held to the absolute 1.0 floor
    // below — doubling the fabric must never lose throughput.
    for key in ["fabric_monotonic_1_2", "fabric_monotonic_2_4", "fabric_monotonic_4_8"] {
        if let Some(value) = report.get(key).and_then(Value::as_f64) {
            metrics.push((key.to_string(), value));
        }
    }
    // The scenario-pack retention metrics (PR 10), present when the report
    // is a `scenario_packs` one: per-pack fan-out retention (F subscribers
    // sharing the open policy's merged plan vs. one) and the worst pack's
    // retention relative to the smart-city baseline. The latter is also
    // held to the absolute 0.5 floor below — no pack's merged plan may
    // degrade out of family with the original scenario.
    if let Some(rows) = report.get("pack_retention").and_then(Value::as_array) {
        for row in rows {
            let Some([name, retention]) = row.as_array() else { continue };
            if let (Some(name), Some(retention)) = (name.as_str(), retention.as_f64()) {
                metrics.push((format!("pack_retention_{name}"), retention));
            }
        }
    }
    if let Some(value) = report.get("pack_retention_vs_smart_city_min").and_then(Value::as_f64) {
        metrics.push(("pack_retention_vs_smart_city_min".to_string(), value));
    }
    metrics
}

/// Absolute floors: ratios that must hold on *every* machine, not merely
/// stay close to the committed baseline. WAL-on ingest must keep at least
/// half of direct ingest throughput (the "≤ 2× durability overhead" pin),
/// a merged plan serving 100 overlapping subscribers must keep at least a
/// third of single-subscriber throughput (the "≤ 3× per-tuple cost at 100
/// subscribers" pin from the plan-sharing PR), and owner failover must
/// recover **every** grant the dead host owned (the zero-acknowledged-
/// grant-loss pin from the replication PR — 1.0 is the contract, not a
/// target), and every fabric node-doubling must keep at least the
/// throughput it had before doubling (the monotonic-scaling pin from the
/// batched-routing PR, measured in deterministic virtual time so the floor
/// holds on any machine), and instrumented ingest must keep at least 95%
/// of telemetry-disabled ingest throughput (the observability-is-free pin
/// from the telemetry PR), and the worst scenario pack's fan-out retention
/// must stay within half of the smart-city baseline's (the packs-stay-in-
/// family pin from the scenario-pack PR — plan sharing, not pack shape, is
/// what pays for wide fan-out), and a replicated fabric shipping every
/// journal byte to a peer must keep at least 0.63 of a single durable
/// node's ingest throughput (0.8 × the 0.79 the committed
/// `BENCH_pr7_failover.json` measures now that a ship copies only the WAL's
/// new bytes; the bench's log is a few MB, so this is a coarse pin — the
/// `replicated_mixed` workload of `BENCHMARK.json` is the sensitive one).
const ABSOLUTE_FLOORS: [(&str, f64); 9] = [
    ("ingest_durable_vs_direct", 0.5),
    ("replicated_ingest_vs_durable", 0.63),
    ("telemetry_overhead", 0.95),
    ("merged_retention_at_100", 1.0 / 3.0),
    ("failover_recovery", 1.0),
    ("fabric_monotonic_1_2", 1.0),
    ("fabric_monotonic_2_4", 1.0),
    ("fabric_monotonic_4_8", 1.0),
    ("pack_retention_vs_smart_city_min", 0.5),
];

fn main() -> ExitCode {
    let options = parse_args();
    let baseline = speedup_metrics(&load(&options.baseline));
    let current = speedup_metrics(&load(&options.current));
    assert!(
        !baseline.is_empty(),
        "baseline {} carries no comparable metrics",
        options.baseline.display()
    );

    let mut diffs = Vec::new();
    for (name, base) in &baseline {
        let Some((_, cur)) = current.iter().find(|(n, _)| n == name) else {
            // A metric present in the baseline but absent from the current
            // report fails the gate; 0.0 (not NaN) keeps the diff JSON
            // serializable so the artifact still explains the failure.
            diffs.push(MetricDiff {
                metric: name.clone(),
                baseline: *base,
                current: 0.0,
                ratio: 0.0,
                pass: false,
            });
            continue;
        };
        let ratio = cur / base;
        diffs.push(MetricDiff {
            metric: name.clone(),
            baseline: *base,
            current: *cur,
            ratio,
            pass: ratio >= 1.0 - options.tolerance,
        });
    }
    // Machine-independent pins on the current report (no tolerance: the
    // floor *is* the contract).
    for (name, floor) in ABSOLUTE_FLOORS {
        if let Some((_, cur)) = current.iter().find(|(n, _)| n == name) {
            diffs.push(MetricDiff {
                metric: format!("{name}_floor"),
                baseline: floor,
                current: *cur,
                ratio: cur / floor,
                pass: *cur >= floor,
            });
        }
    }

    let pass = diffs.iter().all(|d| d.pass);
    println!(
        "perf_gate: {} vs {} (tolerance {:.0}%)",
        options.current.display(),
        options.baseline.display(),
        options.tolerance * 100.0
    );
    for d in &diffs {
        println!(
            "  {} {:<28} baseline {:>8.2} current {:>8.2} ({:>5.1}%)",
            if d.pass { "ok  " } else { "FAIL" },
            d.metric,
            d.baseline,
            d.current,
            d.ratio * 100.0
        );
    }

    let report = GateReport { tolerance: options.tolerance, pass, metrics: diffs };
    if let Some(path) = &options.diff {
        write_json(path, &report).expect("write diff report");
        println!("  wrote {}", path.display());
    }
    if pass {
        println!("  gate PASSED");
        ExitCode::SUCCESS
    } else {
        println!("  gate FAILED: a metric regressed more than the tolerance");
        ExitCode::FAILURE
    }
}
