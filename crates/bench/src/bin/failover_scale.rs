//! The PR-7 fault-tolerance measurement: what owner failover *recovers* and
//! what WAL shipping *costs*.
//!
//! Two numbers come out, both machine-portable:
//!
//! * `failover_recovery` — grants re-minted alive at their recorded URIs
//!   after a host kill, divided by grants the dead host owned. The
//!   replicated fabric's contract is **1.0** (zero acknowledged-grant
//!   loss), gated as an absolute floor by `perf_gate` — any value below
//!   one means an acknowledged grant evaporated with its node.
//! * `replicated_ingest_vs_durable` — batched ingest throughput on a
//!   3-node replicated fabric (K = 1, journal bytes shipped to a peer
//!   every 256 records) vs. a single plain `DurableServer` on the same
//!   workload. Both sides journal every batch on the same machine in the
//!   same process, so the ratio isolates what replication itself costs on
//!   the ingest path.
//!
//! Emitted as `BENCH_pr7_failover.json`.
//!
//! ```text
//! cargo run --release -p exacml-bench --bin failover_scale -- \
//!     [--small] [--json BENCH_pr7_failover.json]
//! ```

use exacml_bench::report::{write_json, CliOptions};
use exacml_dsms::{Schema, StreamHandle, Tuple, Value};
use exacml_durable::{DurableConfig, DurableServer, ReplicatedConfig, Replication};
use exacml_plus::StreamPolicyBuilder;
use exacml_simnet::NodeId;
use exacml_xacml::Request;
use serde::Serialize;
use std::path::PathBuf;
use std::time::Instant;

#[derive(Debug, Clone, Serialize)]
struct FailoverRow {
    /// Streams granted before the kill.
    streams: usize,
    /// The physical host that was killed.
    victim_host: usize,
    /// Grants whose owning logical node lived on the victim.
    grants_owned: usize,
    /// Of those, grants live at their exact recorded URI after failover.
    grants_recovered: usize,
    /// Wall-clock seconds for every victim node to fail over (journal
    /// replay + handle re-minting included).
    failover_seconds: f64,
}

#[derive(Debug, Clone, Serialize)]
struct IngestRow {
    mode: String,
    tuples: usize,
    seconds: f64,
    tuples_per_sec: f64,
}

#[derive(Debug, Clone, Serialize)]
struct FailoverReport {
    pr: u32,
    bench: String,
    small: bool,
    failover: FailoverRow,
    ingest: Vec<IngestRow>,
    /// grants recovered / grants owned by the killed host — floor **1.0**.
    failover_recovery: f64,
    /// replicated-fabric ingest tps / plain durable-server ingest tps.
    replicated_ingest_vs_durable: f64,
}

fn temp_root(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("exacml-failover-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn weather_tuples(n: usize) -> Vec<Tuple> {
    let shared = Schema::weather_example().shared();
    (0..n)
        .map(|i| {
            Tuple::builder_shared(&shared)
                .set("samplingtime", Value::Timestamp(i as i64 * 30_000))
                .set("rainrate", (i % 100) as f64)
                .finish_with_defaults()
        })
        .collect()
}

/// Grant one subscriber per stream on a 3-node replicated fabric, settle
/// replication, kill the host owning the most grants, and count how many
/// of its grants come back alive at their recorded URIs.
fn measure_failover(streams: usize) -> FailoverRow {
    let root = temp_root("recovery");
    let fabric = Replication::create(
        ReplicatedConfig::new(3, &root).with_replication(1).with_fabric(|f| f.with_seed(42)),
    )
    .expect("create replicated fabric");

    let mut held = Vec::new(); // (owning logical node, handle URI)
    for i in 0..streams {
        let stream = format!("s{i}");
        fabric.register_stream(&stream, Schema::weather_example()).unwrap();
        fabric
            .load_policy(
                StreamPolicyBuilder::new(format!("p{i}"), &stream).filter("rainrate > 5").build(),
            )
            .unwrap();
        let granted =
            fabric.handle_request(&Request::subscribe(&format!("u{i}"), &stream), None).unwrap();
        let NodeId::Server(owner) = fabric.owner_of(&stream) else { unreachable!() };
        held.push((owner as usize, granted.handle().uri().to_string()));
    }
    fabric.layer().settle_replication();

    // Kill the host with the most owned grants — the worst single loss.
    let victim = (0..3)
        .max_by_key(|&host| {
            held.iter().filter(|(owner, _)| fabric.layer().host_of(*owner) == host).count()
        })
        .unwrap();
    let owned: Vec<&String> = held
        .iter()
        .filter(|(owner, _)| fabric.layer().host_of(*owner) == victim)
        .map(|(_, uri)| uri)
        .collect();
    fabric.kill_node(victim);

    let started = Instant::now();
    for logical in 0..3 {
        let _ = fabric.layer().node_server(logical); // touch → failover where needed
    }
    let failover_seconds = started.elapsed().as_secs_f64();
    let recovered = owned
        .iter()
        .filter(|uri| fabric.handle_is_live(&StreamHandle::from_uri((**uri).clone())))
        .count();

    let row = FailoverRow {
        streams,
        victim_host: victim,
        grants_owned: owned.len(),
        grants_recovered: recovered,
        failover_seconds,
    };
    let _ = std::fs::remove_dir_all(&root);
    row
}

fn measure_durable_ingest(tuples: &[Tuple], batch: usize) -> IngestRow {
    let root = temp_root("durable");
    let server = DurableServer::create(&root, DurableConfig::local()).expect("create store");
    server.register_stream("weather", Schema::weather_example()).unwrap();
    let started = Instant::now();
    for chunk in tuples.chunks(batch) {
        server.push_batch("weather", chunk.to_vec()).unwrap();
    }
    server.flush_journal().unwrap();
    let seconds = started.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&root);
    IngestRow {
        mode: "durable".into(),
        tuples: tuples.len(),
        seconds,
        tuples_per_sec: tuples.len() as f64 / seconds,
    }
}

fn measure_replicated_ingest(tuples: &[Tuple], batch: usize) -> IngestRow {
    let root = temp_root("replicated");
    let fabric = Replication::create(
        ReplicatedConfig::new(3, &root).with_replication(1).with_fabric(|f| f.with_seed(42)),
    )
    .expect("create replicated fabric");
    fabric.register_stream("weather", Schema::weather_example()).unwrap();
    let started = Instant::now();
    for chunk in tuples.chunks(batch) {
        fabric.push_batch("weather", chunk.to_vec()).unwrap();
    }
    fabric.layer().settle_replication();
    let seconds = started.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&root);
    IngestRow {
        mode: "replicated".into(),
        tuples: tuples.len(),
        seconds,
        tuples_per_sec: tuples.len() as f64 / seconds,
    }
}

fn main() {
    let options = CliOptions::parse(std::env::args().skip(1));
    let (streams, ingest_tuples, batch) =
        if options.small { (12, 20_000, 256) } else { (24, 100_000, 256) };

    let failover = measure_failover(streams);
    let failover_recovery = if failover.grants_owned == 0 {
        1.0
    } else {
        failover.grants_recovered as f64 / failover.grants_owned as f64
    };
    println!(
        "failover_scale: host {} owned {} grants, {} recovered ({:.0}%) in {:.3}s",
        failover.victim_host,
        failover.grants_owned,
        failover.grants_recovered,
        failover_recovery * 100.0,
        failover.failover_seconds,
    );

    // Best-of-N, like the other gated benches: the least-perturbed repeat
    // is the cleanest observation of each configuration.
    const REPEATS: usize = 3;
    let tuples = weather_tuples(ingest_tuples);
    let best = |run: &dyn Fn() -> IngestRow| {
        (0..REPEATS)
            .map(|_| run())
            .max_by(|a, b| a.tuples_per_sec.total_cmp(&b.tuples_per_sec))
            .expect("at least one repeat")
    };
    let durable = best(&|| measure_durable_ingest(&tuples, batch));
    let replicated = best(&|| measure_replicated_ingest(&tuples, batch));
    let replicated_ingest_vs_durable = replicated.tuples_per_sec / durable.tuples_per_sec;
    println!(
        "  ingest: durable {:>12.0} t/s | replicated(K=1) {:>12.0} t/s (ratio {:.2})",
        durable.tuples_per_sec, replicated.tuples_per_sec, replicated_ingest_vs_durable,
    );

    let report = FailoverReport {
        pr: 7,
        bench: "failover_scale".into(),
        small: options.small,
        failover,
        ingest: vec![durable, replicated],
        failover_recovery,
        replicated_ingest_vs_durable,
    };
    let path = options.json.unwrap_or_else(|| PathBuf::from("BENCH_pr7_failover.json"));
    write_json(&path, &report).expect("write report");
    println!("  wrote {}", path.display());
}
