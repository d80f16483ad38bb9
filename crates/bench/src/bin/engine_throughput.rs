//! The PR-2 hot-path measurement: concurrent ingest and PDP decision
//! throughput, emitted as `BENCH_pr2_throughput.json` to seed the repo's
//! perf trajectory.
//!
//! Three experiments:
//!
//! * **Ingest** — tuples/second pushed through a filter deployment at 1, 2
//!   and 4 producer threads (one stream per thread), comparing the old
//!   architecture (single-tuple pushes behind one global `Mutex`, as
//!   `DataServer` shipped before this PR) against the new one (batched
//!   pushes into the internally-sharded engine).
//! * **PDP** — decisions/second for one request against 1000 loaded
//!   policies: cold linear scan (the old evaluation path) and
//!   target-indexed evaluation.
//! * **Backend abstraction** — the same batched `DataServer` ingest driven
//!   once through concrete calls and once through `&dyn Backend` (the
//!   unified backend API every scenario now uses). The `dyn_vs_direct`
//!   ratio is gated by `perf_gate`, pinning that the trait layer adds no
//!   measurable overhead.
//! * **Durability** — the same batched ingest through a `DurableServer`
//!   with ingest journaling on: every batch is encoded, checksummed and
//!   flushed to the write-ahead log before the push is acknowledged. The
//!   `durable_vs_direct` ratio is gated by `perf_gate` with an absolute
//!   floor of 0.5 (WAL-on ingest must stay within 2× of direct ingest).
//! * **Telemetry overhead** — the same batched `DataServer` ingest with the
//!   telemetry registry enabled (the default: per-batch spans and sharded
//!   counters) vs. disabled. The `telemetry_overhead` ratio is gated by
//!   `perf_gate` with an absolute floor of 0.95: instrumentation must keep
//!   at least 95% of uninstrumented ingest throughput.
//!
//! ```text
//! cargo run --release -p exacml-bench --bin engine_throughput -- \
//!     [--small] [--json BENCH_pr2_throughput.json]
//! ```

use exacml_bench::legacy::LegacyEngine;
use exacml_bench::report::{write_json, CliOptions};
use exacml_dsms::{
    AggFunc, AggSpec, QueryGraph, QueryGraphBuilder, Schema, StreamEngine, Tuple, Value, WindowSpec,
};
use exacml_durable::{DurableConfig, DurableServer};
use exacml_plus::{Backend, DataServer, ServerConfig, StreamPolicyBuilder};
use exacml_xacml::{Pdp, PolicyStore, Request};
use parking_lot::Mutex;
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Clone, Serialize)]
struct IngestRow {
    /// `global_lock_single_push` (the pre-PR architecture) or
    /// `sharded_push_batch`.
    mode: String,
    threads: usize,
    tuples: usize,
    seconds: f64,
    tuples_per_sec: f64,
}

#[derive(Debug, Clone, Serialize)]
struct PdpResult {
    policies: usize,
    decisions: usize,
    cold_linear_per_sec: f64,
    indexed_per_sec: f64,
    /// indexed vs. cold linear scan.
    indexed_speedup: f64,
}

#[derive(Debug, Clone, Serialize)]
struct AbstractionResult {
    threads: usize,
    tuples: usize,
    /// Batched ingest through concrete `DataServer` method calls.
    direct_tuples_per_sec: f64,
    /// The same ingest through `&dyn Backend` (vtable dispatch).
    dyn_tuples_per_sec: f64,
    /// dyn / direct — ~1.0 when the abstraction costs nothing. Gated by
    /// `perf_gate` against the committed baseline.
    dyn_vs_direct: f64,
}

#[derive(Debug, Clone, Serialize)]
struct DurabilityResult {
    threads: usize,
    tuples: usize,
    /// Batched ingest through a plain in-memory `DataServer`.
    direct_tuples_per_sec: f64,
    /// The same ingest through a `DurableServer` journaling every batch to
    /// its write-ahead log before acknowledging.
    durable_tuples_per_sec: f64,
    /// durable / direct — the WAL-on ingest cost. Gated by `perf_gate`
    /// relative to the committed baseline *and* against an absolute floor
    /// of 0.5 (≤ 2× overhead).
    durable_vs_direct: f64,
}

#[derive(Debug, Clone, Serialize)]
struct TelemetryOverheadResult {
    threads: usize,
    tuples: usize,
    /// Batched ingest with the telemetry registry disabled (one relaxed
    /// atomic load per batch, no clock reads).
    disabled_tuples_per_sec: f64,
    /// The same ingest with telemetry enabled — per-batch ingest spans and
    /// sharded counter updates, the default configuration.
    enabled_tuples_per_sec: f64,
    /// enabled / disabled — what observability costs on the hot path.
    /// Gated by `perf_gate` against the committed baseline *and* an
    /// absolute floor of 0.95.
    telemetry_overhead: f64,
}

#[derive(Debug, Clone, Serialize)]
struct ThroughputReport {
    pr: u32,
    bench: String,
    small: bool,
    ingest: Vec<IngestRow>,
    /// Batched+sharded vs. global-lock single-push at the same thread count.
    ingest_speedup_at_threads: Vec<(usize, f64)>,
    pdp: PdpResult,
    /// Trait-object overhead on the hot ingest path.
    backend_abstraction: AbstractionResult,
    /// Write-ahead-log overhead on the hot ingest path.
    durability: DurabilityResult,
    /// Observability overhead on the hot ingest path.
    telemetry: TelemetryOverheadResult,
}

fn weather_tuples(schema: &Schema, n: usize) -> Vec<Tuple> {
    // One shared schema Arc across the whole batch, as the workload feeds
    // produce them.
    let shared = schema.clone().shared();
    (0..n)
        .map(|i| {
            Tuple::builder_shared(&shared)
                .set("samplingtime", Value::Timestamp(i as i64 * 30_000))
                .set("rainrate", (i % 100) as f64)
                .set("windspeed", (i % 40) as f64)
                .finish_with_defaults()
        })
        .collect()
}

/// The paper's Example 1 continuous query: filter → map → window aggregate.
/// This is the chain every granted access deploys, so it is what both
/// engines are measured on.
fn example1_graph(stream: &str) -> QueryGraph {
    QueryGraphBuilder::on_stream(stream)
        .filter_str("rainrate > 5")
        .unwrap()
        .map(["samplingtime", "rainrate", "windspeed"])
        .aggregate(
            WindowSpec::tuples(5, 2),
            vec![
                AggSpec::new("samplingtime", AggFunc::LastValue),
                AggSpec::new("rainrate", AggFunc::Avg),
                AggSpec::new("windspeed", AggFunc::Max),
            ],
        )
        .build()
}

/// Tuples/sec for `threads` producers, each owning one stream with one
/// Example-1 deployment, under the pre-PR architecture: the interpreted
/// (name-resolving) engine behind a single global lock, one lock
/// acquisition and one deep schema comparison per tuple — see
/// [`exacml_bench::legacy`].
fn run_global_lock(threads: usize, tuples: &[Tuple], schema: &Schema) -> IngestRow {
    let engine = Arc::new(Mutex::new(LegacyEngine::new()));
    {
        let mut engine = engine.lock();
        for i in 0..threads {
            engine.register_stream(&format!("s{i}"), schema.clone());
            engine.deploy(&example1_graph(&format!("s{i}"))).unwrap();
        }
    }
    let started = Instant::now();
    std::thread::scope(|scope| {
        for i in 0..threads {
            let engine = Arc::clone(&engine);
            scope.spawn(move || {
                let stream = format!("s{i}");
                for t in tuples {
                    engine.lock().push(&stream, t.clone()).unwrap();
                }
            });
        }
    });
    let seconds = started.elapsed().as_secs_f64();
    let total = tuples.len() * threads;
    IngestRow {
        mode: "global_lock_interpreted_single_push".into(),
        threads,
        tuples: total,
        seconds,
        tuples_per_sec: total as f64 / seconds,
    }
}

/// Tuples/sec for `threads` producers under the new architecture: the
/// internally-sharded engine shared without a wrapping lock, fed in batches.
fn run_sharded_batched(
    threads: usize,
    tuples: &[Tuple],
    schema: &Schema,
    batch_size: usize,
) -> IngestRow {
    let engine = Arc::new(StreamEngine::new());
    for i in 0..threads {
        engine.register_stream(&format!("s{i}"), schema.clone()).unwrap();
        engine.deploy(&example1_graph(&format!("s{i}"))).unwrap();
    }
    let started = Instant::now();
    std::thread::scope(|scope| {
        for i in 0..threads {
            let engine = Arc::clone(&engine);
            scope.spawn(move || {
                let stream = format!("s{i}");
                for chunk in tuples.chunks(batch_size) {
                    engine.push_batch(&stream, chunk.iter().cloned()).unwrap();
                }
            });
        }
    });
    let seconds = started.elapsed().as_secs_f64();
    let total = tuples.len() * threads;
    IngestRow {
        mode: "sharded_push_batch".into(),
        threads,
        tuples: total,
        seconds,
        tuples_per_sec: total as f64 / seconds,
    }
}

/// A `DataServer` with one stream + Example-1 deployment per producer
/// thread, ready for the abstraction-overhead measurement.
fn server_with_deployments(threads: usize, schema: &Schema) -> Arc<DataServer> {
    let server = Arc::new(DataServer::new(ServerConfig::local()));
    for i in 0..threads {
        server.register_stream(&format!("s{i}"), schema.clone()).unwrap();
        server.engine().deploy(&example1_graph(&format!("s{i}"))).unwrap();
    }
    server
}

/// Tuples/sec for `threads` producers pushing batches into a `DataServer`,
/// either through its concrete inherent methods or through `&dyn Backend`.
/// Setup, batching and tuple stream are identical, so the ratio isolates
/// what the unified backend API costs on the hot path.
fn run_server_ingest(
    threads: usize,
    tuples: &[Tuple],
    schema: &Schema,
    batch_size: usize,
    through_dyn: bool,
) -> IngestRow {
    let server = server_with_deployments(threads, schema);
    let backend: Arc<dyn Backend> = Arc::clone(&server) as Arc<dyn Backend>;
    let started = Instant::now();
    std::thread::scope(|scope| {
        for i in 0..threads {
            let server = Arc::clone(&server);
            let backend = Arc::clone(&backend);
            scope.spawn(move || {
                let stream = format!("s{i}");
                for chunk in tuples.chunks(batch_size) {
                    if through_dyn {
                        backend.push_batch(&stream, chunk.to_vec()).unwrap();
                    } else {
                        server.push_batch(&stream, chunk.to_vec()).unwrap();
                    }
                }
            });
        }
    });
    let seconds = started.elapsed().as_secs_f64();
    let total = tuples.len() * threads;
    IngestRow {
        mode: if through_dyn {
            "server_dyn_backend_push_batch"
        } else {
            "server_direct_push_batch"
        }
        .into(),
        threads,
        tuples: total,
        seconds,
        tuples_per_sec: total as f64 / seconds,
    }
}

/// Tuples/sec for `threads` producers pushing batches into a
/// `DurableServer` with ingest journaling enabled — setup, batching and
/// tuple stream identical to the direct `DataServer` measurement, so the
/// ratio isolates what the write-ahead log costs on the hot path (encode +
/// checksum + flush per batch, serialized on the journal).
fn run_durable_ingest(
    threads: usize,
    tuples: &[Tuple],
    schema: &Schema,
    batch_size: usize,
) -> IngestRow {
    let store =
        std::env::temp_dir().join(format!("exacml-bench-durable-{}-{threads}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let config = DurableConfig {
        journal_ingest: true,
        sync_writes: false,
        snapshot_every: 0,
        ..DurableConfig::local()
    };
    let server = Arc::new(DurableServer::create(&store, config).expect("create bench store"));
    for i in 0..threads {
        server.register_stream(&format!("s{i}"), schema.clone()).unwrap();
        server.inner().engine().deploy(&example1_graph(&format!("s{i}"))).unwrap();
    }
    let started = Instant::now();
    std::thread::scope(|scope| {
        for i in 0..threads {
            let server = Arc::clone(&server);
            scope.spawn(move || {
                let stream = format!("s{i}");
                for chunk in tuples.chunks(batch_size) {
                    server.push_batch(&stream, chunk.to_vec()).unwrap();
                }
            });
        }
    });
    let seconds = started.elapsed().as_secs_f64();
    let total = tuples.len() * threads;
    drop(server);
    let _ = std::fs::remove_dir_all(&store);
    IngestRow {
        mode: "durable_wal_push_batch".into(),
        threads,
        tuples: total,
        seconds,
        tuples_per_sec: total as f64 / seconds,
    }
}

/// Tuples/sec for `threads` producers pushing batches into a `DataServer`
/// with its telemetry registry either enabled (the default: per-batch
/// ingest spans + sharded counters) or disabled. Setup, batching and tuple
/// stream are identical, so the ratio isolates what instrumentation costs
/// on the hot path.
fn run_telemetry_ingest(
    threads: usize,
    tuples: &[Tuple],
    schema: &Schema,
    batch_size: usize,
    enabled: bool,
) -> IngestRow {
    let server = server_with_deployments(threads, schema);
    server.telemetry_registry().set_enabled(enabled);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for i in 0..threads {
            let server = Arc::clone(&server);
            scope.spawn(move || {
                let stream = format!("s{i}");
                for chunk in tuples.chunks(batch_size) {
                    server.push_batch(&stream, chunk.to_vec()).unwrap();
                }
            });
        }
    });
    let seconds = started.elapsed().as_secs_f64();
    let total = tuples.len() * threads;
    IngestRow {
        mode: if enabled {
            "telemetry_enabled_push_batch"
        } else {
            "telemetry_disabled_push_batch"
        }
        .into(),
        threads,
        tuples: total,
        seconds,
        tuples_per_sec: total as f64 / seconds,
    }
}

fn run_pdp(policies: usize, decisions: usize) -> PdpResult {
    let store = Arc::new(PolicyStore::new());
    for i in 0..policies {
        let policy = StreamPolicyBuilder::new(format!("p{i}"), "weather")
            .subject(format!("user{i}"))
            .filter("rainrate > 5")
            .visible_attributes(["samplingtime", "rainrate"])
            .build();
        store.add(policy).unwrap();
    }
    let pdp = Pdp::new(store);
    let request = Request::subscribe(&format!("user{}", policies / 2), "weather");

    // Best-of-N per mode, like the ingest measurement: the CI perf gate
    // compares speedup ratios with a tight tolerance, and a single scheduler
    // preemption inside one timing loop would otherwise swing a ratio far
    // past it. The best repeat is the least-perturbed observation of each
    // evaluation mode.
    const REPEATS: usize = 3;
    let time = |f: &dyn Fn() -> bool| {
        (0..REPEATS)
            .map(|_| {
                let started = Instant::now();
                for _ in 0..decisions {
                    assert!(f());
                }
                decisions as f64 / started.elapsed().as_secs_f64()
            })
            .fold(0.0f64, f64::max)
    };

    let cold_linear_per_sec = time(&|| pdp.evaluate_linear(&request).is_permit());
    let indexed_per_sec = time(&|| pdp.evaluate(&request).is_permit());

    PdpResult {
        policies,
        decisions,
        cold_linear_per_sec,
        indexed_per_sec,
        indexed_speedup: indexed_per_sec / cold_linear_per_sec,
    }
}

fn main() {
    let options = CliOptions::parse(std::env::args().skip(1));
    // `--small` cuts the tuple count but keeps the policy count (the PDP
    // speedup ratios scale with store size) and keeps the decision count
    // high enough that the indexed loop spans tens of milliseconds —
    // sub-ms timing windows would let one scheduler preemption on a noisy
    // CI runner swing a ratio past the perf gate's tolerance.
    let (per_thread, batch_size, pdp_policies, pdp_decisions) =
        if options.small { (20_000, 256, 1000, 10_000) } else { (200_000, 256, 1000, 20_000) };

    let schema = Schema::weather_example();
    let tuples = weather_tuples(&schema, per_thread);

    // Best-of-N per configuration: the measurement is throughput under a
    // possibly noisy scheduler, and the best repeat is the least-perturbed
    // observation of what the implementation can do.
    const REPEATS: usize = 3;
    let best = |run: &dyn Fn() -> IngestRow| {
        (0..REPEATS)
            .map(|_| run())
            .max_by(|a, b| a.tuples_per_sec.total_cmp(&b.tuples_per_sec))
            .expect("at least one repeat")
    };

    println!("engine_throughput: {per_thread} tuples/thread, batch {batch_size}");
    let mut ingest = Vec::new();
    let mut speedups = Vec::new();
    for threads in [1usize, 2, 4] {
        let baseline = best(&|| run_global_lock(threads, &tuples, &schema));
        let sharded = best(&|| run_sharded_batched(threads, &tuples, &schema, batch_size));
        println!(
            "  {} threads: global-lock {:>12.0} t/s | sharded+batched {:>12.0} t/s ({:.2}x)",
            threads,
            baseline.tuples_per_sec,
            sharded.tuples_per_sec,
            sharded.tuples_per_sec / baseline.tuples_per_sec,
        );
        speedups.push((threads, sharded.tuples_per_sec / baseline.tuples_per_sec));
        ingest.push(baseline);
        ingest.push(sharded);
    }

    let pdp = run_pdp(pdp_policies, pdp_decisions);
    println!(
        "  pdp ({} policies): linear {:>10.0}/s | indexed {:>10.0}/s ({:.0}x)",
        pdp.policies, pdp.cold_linear_per_sec, pdp.indexed_per_sec, pdp.indexed_speedup,
    );

    // Abstraction overhead at the highest thread count: identical batched
    // `DataServer` ingest, concrete calls vs. `&dyn Backend`.
    let abstraction_threads = 4usize;
    let direct =
        best(&|| run_server_ingest(abstraction_threads, &tuples, &schema, batch_size, false));
    let dynamic =
        best(&|| run_server_ingest(abstraction_threads, &tuples, &schema, batch_size, true));
    let backend_abstraction = AbstractionResult {
        threads: abstraction_threads,
        tuples: direct.tuples,
        direct_tuples_per_sec: direct.tuples_per_sec,
        dyn_tuples_per_sec: dynamic.tuples_per_sec,
        dyn_vs_direct: dynamic.tuples_per_sec / direct.tuples_per_sec,
    };
    println!(
        "  backend abstraction ({} threads): direct {:>12.0} t/s | dyn Backend {:>12.0} t/s ({:.3}x)",
        backend_abstraction.threads,
        backend_abstraction.direct_tuples_per_sec,
        backend_abstraction.dyn_tuples_per_sec,
        backend_abstraction.dyn_vs_direct,
    );
    ingest.push(direct.clone());
    ingest.push(dynamic);

    // WAL overhead at the same thread count: identical batched ingest, plain
    // `DataServer` vs. `DurableServer` journaling every batch.
    let durable = best(&|| run_durable_ingest(abstraction_threads, &tuples, &schema, batch_size));
    let durability = DurabilityResult {
        threads: abstraction_threads,
        tuples: durable.tuples,
        direct_tuples_per_sec: direct.tuples_per_sec,
        durable_tuples_per_sec: durable.tuples_per_sec,
        durable_vs_direct: durable.tuples_per_sec / direct.tuples_per_sec,
    };
    println!(
        "  durability ({} threads): direct {:>12.0} t/s | WAL-journaled {:>12.0} t/s ({:.3}x)",
        durability.threads,
        durability.direct_tuples_per_sec,
        durability.durable_tuples_per_sec,
        durability.durable_vs_direct,
    );
    ingest.push(durable);

    // Observability overhead at the same thread count: identical batched
    // ingest with the telemetry registry off vs. on (the default).
    let disabled =
        best(&|| run_telemetry_ingest(abstraction_threads, &tuples, &schema, batch_size, false));
    let enabled =
        best(&|| run_telemetry_ingest(abstraction_threads, &tuples, &schema, batch_size, true));
    let telemetry = TelemetryOverheadResult {
        threads: abstraction_threads,
        tuples: enabled.tuples,
        disabled_tuples_per_sec: disabled.tuples_per_sec,
        enabled_tuples_per_sec: enabled.tuples_per_sec,
        telemetry_overhead: enabled.tuples_per_sec / disabled.tuples_per_sec,
    };
    println!(
        "  telemetry ({} threads): disabled {:>12.0} t/s | instrumented {:>12.0} t/s ({:.3}x)",
        telemetry.threads,
        telemetry.disabled_tuples_per_sec,
        telemetry.enabled_tuples_per_sec,
        telemetry.telemetry_overhead,
    );
    ingest.push(disabled);
    ingest.push(enabled);

    let report = ThroughputReport {
        pr: 2,
        bench: "engine_throughput".into(),
        small: options.small,
        ingest,
        ingest_speedup_at_threads: speedups,
        pdp,
        backend_abstraction,
        durability,
        telemetry,
    };
    let path =
        options.json.unwrap_or_else(|| std::path::PathBuf::from("BENCH_pr2_throughput.json"));
    write_json(&path, &report).expect("write report");
    println!("  wrote {}", path.display());
}
