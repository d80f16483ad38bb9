//! The PR-10 scenario-pack bench: every built-in pack against every backend
//! shape, with per-stage telemetry and a merged-plan fan-out retention
//! measurement per pack.
//!
//! Two kinds of numbers come out:
//!
//! * **pack × shape runs** — wall-clock seconds, decision counts, delivered
//!   tuples and the per-stage telemetry diffs (`setup` / `script` /
//!   `finish`) for each pack on each of the four shapes. Oracles are
//!   *checked* while benching: a pack that stops being green fails the run.
//! * **fan-out retention** — on the local shape, ingest throughput on the
//!   pack's fan-out stream with F Zipf-style subscribers sharing the open
//!   policy's merged plan, divided by the same ingest with one subscriber.
//!   Plan sharing is what keeps this ratio near 1; the machine-portable
//!   `pack_retention_vs_smart_city_min` (worst pack retention relative to
//!   the smart-city baseline) is gated by `perf_gate` with an absolute
//!   0.5 floor.
//!
//! Emitted as `BENCH_pr10_packs.json`.
//!
//! ```text
//! cargo run --release -p exacml-bench --bin scenario_packs -- \
//!     [--small] [--pack NAME] [--json BENCH_pr10_packs.json]
//! ```

use exacml_bench::report::{write_json, CliOptions};
use exacml_durable::{DurableConfig, DurableServer, ReplicatedConfig, Replication};
use exacml_plus::Backend;
use exacml_workload::packs;
use exacml_workload::runner::{run_pack_checked, PackOutcome};
use exacml_workload::scenario::ScenarioPack;
use exacml_xacml::Request;
use serde::Serialize;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Clone, Serialize)]
struct ShapeRow {
    backend_kind: String,
    seconds: f64,
    counts: exacml_workload::runner::PackCounts,
    deliveries: std::collections::BTreeMap<String, u64>,
    audit_kinds: std::collections::BTreeMap<String, u64>,
    live_plans: u64,
    live_deployments: u64,
    final_policies: u64,
    /// Per-stage telemetry counter diffs (`setup` / `script` / `finish`).
    /// Full snapshots carry 64-bucket latency histograms per stage per
    /// node — the counters are the comparable part, and keep the committed
    /// baseline reviewable.
    stage_counters: Vec<(String, std::collections::BTreeMap<String, u64>)>,
}

impl ShapeRow {
    fn from_outcome(outcome: PackOutcome, seconds: f64) -> Self {
        ShapeRow {
            backend_kind: outcome.backend_kind,
            seconds,
            counts: outcome.counts,
            deliveries: outcome.deliveries,
            audit_kinds: outcome.audit_kinds,
            live_plans: outcome.live_plans,
            live_deployments: outcome.live_deployments,
            final_policies: outcome.final_policies,
            stage_counters: outcome
                .stage_telemetry
                .into_iter()
                .map(|stage| (stage.stage, stage.telemetry.counters))
                .collect(),
        }
    }
}

#[derive(Debug, Clone, Serialize)]
struct RetentionRow {
    /// Fan-out subscribers sharing the open policy's plan.
    subscribers: usize,
    /// Tuples ingested on the fan-out stream per side.
    tuples: usize,
    baseline_tps: f64,
    fanout_tps: f64,
    /// `fanout_tps / baseline_tps` — plan sharing keeps this near 1.
    retention: f64,
}

#[derive(Debug, Clone, Serialize)]
struct PackReport {
    pack: String,
    shapes: Vec<ShapeRow>,
    retention: RetentionRow,
}

#[derive(Debug, Clone, Serialize)]
struct Report {
    pr: u32,
    bench: String,
    small: bool,
    packs: Vec<PackReport>,
    /// `(pack name, fan-out retention)` rows, for the gate's per-pack keys.
    pack_retention: Vec<(String, f64)>,
    /// Worst pack retention divided by the smart-city retention — the
    /// machine-portable "no pack's merged plan degrades out of family"
    /// ratio, held to an absolute 0.5 floor by `perf_gate`.
    pack_retention_vs_smart_city_min: f64,
}

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("exacml-packs-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The four shapes, rebuilt fresh per pack.
fn shapes(pack: &str) -> Vec<(Arc<dyn Backend>, Option<PathBuf>)> {
    let durable_dir = temp_root(&format!("{pack}-durable"));
    let replicated_dir = temp_root(&format!("{pack}-replicated"));
    vec![
        (<dyn Backend>::local(), None),
        (<dyn Backend>::fabric(3), None),
        (
            Arc::new(DurableServer::open(&durable_dir, DurableConfig::default()).unwrap()),
            Some(durable_dir),
        ),
        (
            Arc::new(Replication::create(ReplicatedConfig::new(3, &replicated_dir)).unwrap()),
            Some(replicated_dir),
        ),
    ]
}

/// Time one ingest of `tuples` rows on the pack's fan-out stream with
/// `subscribers` subjects holding the open policy's (shared) plan.
fn fanout_tps(pack: &ScenarioPack, subscribers: usize, tuples: usize) -> f64 {
    let backend = <dyn Backend>::local();
    for stream in &pack.streams {
        backend.register_stream(&stream.name, stream.schema()).unwrap();
    }
    for policy in &pack.policies {
        backend.load_policy(policy.build().unwrap()).unwrap();
    }
    for i in 0..subscribers {
        backend
            .handle_request(
                &Request::subscribe(&format!("bench-sub-{i}"), &pack.fanout_stream),
                None,
            )
            .unwrap();
    }
    let spec =
        pack.streams.iter().find(|s| s.name == pack.fanout_stream).expect("fan-out stream exists");
    let mut feed = exacml_workload::scenario::SyntheticFeed::new(spec, pack.seed);
    let batch = feed.next_batch(tuples as u64);
    let start = Instant::now();
    backend.push_batch(&pack.fanout_stream, batch).unwrap();
    let seconds = start.elapsed().as_secs_f64().max(1e-9);
    tuples as f64 / seconds
}

fn measure_retention(pack: &ScenarioPack, small: bool) -> RetentionRow {
    let subscribers = if small { 32 } else { 100 };
    let tuples = if small { 4_000 } else { 40_000 };
    // Warm both sides once, then take the best of 3 to tame scheduler noise.
    let baseline_tps = (0..3).map(|_| fanout_tps(pack, 1, tuples)).fold(0.0, f64::max);
    let fanout = (0..3).map(|_| fanout_tps(pack, subscribers, tuples)).fold(0.0, f64::max);
    RetentionRow {
        subscribers,
        tuples,
        baseline_tps,
        fanout_tps: fanout,
        retention: fanout / baseline_tps,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = CliOptions::parse(args.clone());
    let only_pack = args.iter().position(|a| a == "--pack").and_then(|i| args.get(i + 1)).cloned();

    let mut selected = packs::all();
    if let Some(name) = &only_pack {
        selected.retain(|p| &p.name == name);
        assert!(!selected.is_empty(), "unknown pack '{name}'");
    }

    let mut pack_reports = Vec::new();
    for pack in &selected {
        // Packs as authored are the smoke size (`--small`); the full run
        // multiplies every ingest step 8×. `scaled` clears the exact
        // delivery maxes (window emission counts grow with volume) while
        // decision pins and delivery minimums keep holding.
        let bench_pack = if options.small { pack.clone() } else { pack.clone().scaled(8) };
        let mut shape_rows = Vec::new();
        for (backend, store) in shapes(&pack.name) {
            let start = Instant::now();
            let outcome = run_pack_checked(backend.as_ref(), &bench_pack);
            let seconds = start.elapsed().as_secs_f64();
            println!(
                "{:<16} {:<18} {:>7.3}s  grants={} reuses={} denials={} blocked={}",
                pack.name,
                outcome.backend_kind,
                seconds,
                outcome.counts.grants,
                outcome.counts.reuses,
                outcome.counts.denials,
                outcome.counts.blocked
            );
            shape_rows.push(ShapeRow::from_outcome(outcome, seconds));
            drop(backend);
            if let Some(dir) = store {
                let _ = std::fs::remove_dir_all(dir);
            }
        }
        let retention = measure_retention(pack, options.small);
        println!(
            "{:<16} retention: {} subscribers keep {:.2}x of 1-subscriber ingest",
            pack.name, retention.subscribers, retention.retention
        );
        pack_reports.push(PackReport { pack: pack.name.clone(), shapes: shape_rows, retention });
    }

    let pack_retention: Vec<(String, f64)> =
        pack_reports.iter().map(|p| (p.pack.clone(), p.retention.retention)).collect();
    let smart_city =
        pack_retention.iter().find(|(name, _)| name == "smart-city").map_or(1.0, |(_, r)| *r);
    let pack_retention_vs_smart_city_min =
        pack_retention.iter().map(|(_, r)| r / smart_city).fold(f64::INFINITY, f64::min);

    let report = Report {
        pr: 10,
        bench: "scenario_packs".to_string(),
        small: options.small,
        packs: pack_reports,
        pack_retention,
        pack_retention_vs_smart_city_min,
    };
    println!("pack_retention_vs_smart_city_min = {pack_retention_vs_smart_city_min:.3}");
    if let Some(path) = &options.json {
        write_json(path, &report).expect("write bench JSON");
        println!("wrote {}", path.display());
    }
}
