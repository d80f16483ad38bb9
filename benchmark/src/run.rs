//! One run of one workload, as the driver asks for it: `--trace 0` measures
//! the end-to-end metrics over several untraced rounds, `--trace 1` the
//! per-layer ones over an untraced round, a traced round and the ladders.

use crate::ladder;
use crate::report::{peak_rss_mb, RunReport};
use crate::round::{run_round, time_setups, RoundConfig, RoundResult};
use crate::stats::{drift, median, quantile, steady_latency, steady_rate, RateKind, Slices};
use crate::trace::{write_trace, Phase};
use crate::world::{Workload, World};
use exacml::prelude::{Metric, Stage};
use std::path::Path;
use std::time::Duration;

/// Fingerprints of the default seed's worlds. A mismatch means the inputs
/// changed — an example schema, a constructor, or this generator — and every
/// recorded number is void until the baseline is measured again.
const DEFAULT_SEED: u64 = 2012;
const DEFAULT_SEED_FINGERPRINTS: [(Workload, u64); 4] = [
    (Workload::CityIngest, 0xb3b4_23f2_4004_7d89),
    (Workload::CityRequests, 0x41df_6db2_4a27_d581),
    (Workload::FabricIngest, 0xc586_260a_08cd_f265),
    (Workload::ReplicatedMixed, 0xbc70_5c02_1526_86b6),
];

pub fn generate_world(workload: Workload, seed: u64) -> Result<World, String> {
    let world = World::generate(workload, seed);
    eprintln!("world {} seed {seed} fingerprint {:016x}", workload.name(), world.fingerprint);
    if seed == DEFAULT_SEED {
        let pinned = DEFAULT_SEED_FINGERPRINTS
            .iter()
            .find(|(w, _)| *w == workload)
            .map(|(_, f)| *f)
            .expect("a fingerprint per workload");
        if world.fingerprint != pinned {
            return Err(format!(
                "world fingerprint {:016x} differs from the pinned {pinned:016x}: the inputs of \
                 seed {DEFAULT_SEED} changed, so earlier numbers no longer compare",
                world.fingerprint
            ));
        }
    }
    Ok(world)
}

/// How `seconds` of measuring split into rounds and slices.
struct Schedule {
    rounds: usize,
    slices: usize,
    slice_ns: u64,
    warmup_ns: i64,
    setups: usize,
}

impl Schedule {
    fn for_seconds(seconds: f64) -> Self {
        let rounds = if seconds >= 12.0 {
            4
        } else if seconds >= 6.0 {
            2
        } else {
            1
        };
        let slice_ns = if seconds / rounds as f64 >= 3.0 { 500_000_000 } else { 250_000_000 };
        let slices = ((seconds / rounds as f64) * 1e9 / slice_ns as f64).round().max(1.0) as usize;
        // The churn lane fills its 64-grant cap in 0.64 s; a second covers it.
        let warmup_ns = if seconds >= 3.0 { 1_000_000_000 } else { 700_000_000 };
        Schedule { rounds, slices, slice_ns, warmup_ns, setups: if seconds >= 3.0 { 9 } else { 3 } }
    }

    fn config(&self, out: &Path, workload: Workload, traced: bool) -> RoundConfig {
        RoundConfig {
            warmup_ns: self.warmup_ns,
            slice_ns: self.slice_ns,
            slices: self.slices,
            traced,
            store: out.join(format!("store-{}-{}", workload.name(), std::process::id())),
        }
    }
}

/// Which lane carried which plane in a round, and how its rate is read.
struct Planes<'a> {
    ingest: &'a Slices,
    delivery: &'a Slices,
    requests: &'a Slices,
    ingest_kind: RateKind,
    request_kind: RateKind,
}

impl Planes<'_> {
    fn ingest_rates(&self) -> Vec<f64> {
        self.ingest.slice_rates(self.ingest_kind)
    }

    fn request_rates(&self) -> Vec<f64> {
        self.requests.slice_rates(self.request_kind)
    }
}

/// `(ingest, requests)`: the request loop is closed on `city_requests` and
/// ingest paced; everywhere else it is the other way round.
fn rate_kinds(workload: Workload) -> (RateKind, RateKind) {
    if workload == Workload::CityRequests {
        (RateKind::Paced, RateKind::Closed)
    } else {
        (RateKind::Closed, RateKind::Paced)
    }
}

fn planes(workload: Workload, r: &RoundResult) -> Planes<'_> {
    let (ingest_kind, request_kind) = rate_kinds(workload);
    let (ingest_lane, request_lane) =
        if workload == Workload::CityRequests { (&r.b, &r.a) } else { (&r.a, &r.b) };
    Planes {
        ingest: &ingest_lane.ingest,
        delivery: &ingest_lane.delivery,
        requests: &request_lane.requests,
        ingest_kind,
        request_kind,
    }
}

/// The pooled slice estimators over a set of rounds.
fn end_to_end(workload: Workload, rounds: &[RoundResult]) -> Vec<(&'static str, f64)> {
    let mut ingest_rates = Vec::new();
    let mut delivery = Vec::new();
    let mut request_rates = Vec::new();
    let mut request_latency = Vec::new();
    for r in rounds {
        let planes = planes(workload, r);
        ingest_rates.extend(planes.ingest_rates());
        delivery.extend(planes.delivery.slice_median_latencies());
        request_rates.extend(planes.request_rates());
        request_latency.extend(planes.requests.slice_median_latencies());
    }
    let (ingest_kind, request_kind) = rate_kinds(workload);
    vec![
        ("ingest_tuples_per_s", steady_rate(&ingest_rates, ingest_kind)),
        ("delivery_latency_p50_us", steady_latency(&delivery) / 1e3),
        ("requests_per_s", steady_rate(&request_rates, request_kind)),
        ("request_latency_p50_us", steady_latency(&request_latency) / 1e3),
    ]
}

fn totals(rounds: &[RoundResult]) -> (u64, u64) {
    rounds.iter().fold((0, 0), |(attempted, failed), r| {
        (attempted + r.a.attempted + r.b.attempted, failed + r.a.failed + r.b.failed)
    })
}

/// `--trace 0`: several untraced rounds, each on a fresh backend.
pub fn run_untraced(world: &World, seconds: f64, out: &Path) -> Result<RunReport, String> {
    let schedule = Schedule::for_seconds(seconds);
    let config = schedule.config(out, world.workload, false);
    let setups = time_setups(world, &config.store, schedule.setups)?;
    let mut rounds = Vec::with_capacity(schedule.rounds);
    for round in 0..schedule.rounds {
        let result = run_round(world, &config)?;
        // Every slice, so a slow phase of the host can be told from a slow
        // program when reading a run's log.
        let planes = planes(world.workload, &result);
        let list = |values: Vec<f64>| {
            values.iter().map(|v| format!("{v:.0}")).collect::<Vec<_>>().join(" ")
        };
        eprintln!("round {round} ingest t/s: {}", list(planes.ingest_rates()));
        eprintln!("round {round} delivery ns: {}", list(planes.delivery.slice_median_latencies()));
        eprintln!("round {round} requests/s: {}", list(planes.request_rates()));
        eprintln!("round {round} request ns: {}", list(planes.requests.slice_median_latencies()));
        rounds.push(result);
    }
    let listed: Vec<String> = setups.iter().map(|s| format!("{s:.4}")).collect();
    eprintln!("set-ups s: {}", listed.join(" "));
    let mut metrics = end_to_end(world.workload, &rounds);
    metrics.push(("setup_s", median(&setups)));
    let (attempted, failed) = totals(&rounds);
    Ok(RunReport { attempted, failed, metrics })
}

fn p50_us(samples: &[u64]) -> f64 {
    quantile(&samples.iter().map(|v| *v as f64).collect::<Vec<_>>(), 0.5) / 1e3
}

/// The whole-window figures of one untraced round.
fn window_metrics(workload: Workload, r: &RoundResult) -> Vec<(&'static str, f64)> {
    let planes = planes(workload, r);
    let seconds = planes.ingest.window_seconds();
    // Lane B is always the paced one; the lane that releases is the one
    // that requests.
    let request_lane = if workload == Workload::CityRequests { &r.a } else { &r.b };
    vec![
        ("window.ingest_mean_tuples_per_s", planes.ingest.total_units() as f64 / seconds),
        ("window.requests_mean_per_s", planes.requests.total_units() as f64 / seconds),
        ("window.request_latency_p99_us", quantile(&planes.requests.all_latencies(), 0.99) / 1e3),
        ("window.delivery_latency_p99_us", quantile(&planes.delivery.all_latencies(), 0.99) / 1e3),
        ("window.release_latency_p50_us", p50_us(&request_lane.release_ns)),
        ("window.policy_update_latency_p50_us", p50_us(&r.b.update_ns)),
        ("window.ingest_drift", drift(&planes.ingest_rates())),
        ("window.peak_rss_mb", peak_rss_mb()),
        ("window.wal_mb", r.wal_bytes as f64 / (1024.0 * 1024.0)),
        ("harness.paced_lateness_p50_us", p50_us(&r.b.lateness_ns)),
    ]
}

/// The traced round's own figures: where the lanes' time went, as seen from
/// outside (spans) and from inside (the program's telemetry), and what the
/// two do not explain.
fn traced_metrics(workload: Workload, r: &RoundResult) -> Vec<(&'static str, f64)> {
    let window_ns = (r.measure_end_ns - r.measure_start_ns) as f64;
    let (ingest_lane, request_lane) =
        if workload == Workload::CityRequests { (&r.b, &r.a) } else { (&r.a, &r.b) };
    let busy = |lane: &crate::round::LaneStats, phase| {
        lane.tracer.busy_ns(phase, r.measure_start_ns, r.measure_end_ns) as f64
    };
    let mut rows = vec![
        ("harness.generate_share", busy(ingest_lane, Phase::Generate) / window_ns),
        ("harness.push_share", busy(ingest_lane, Phase::Push) / window_ns),
        ("harness.drain_share", busy(ingest_lane, Phase::Drain) / window_ns),
        ("harness.request_share", busy(request_lane, Phase::Request) / window_ns),
    ];
    let stage_ns = |stage: Stage| r.telemetry.stage(stage).map_or(0, |s| s.total_nanos) as f64;
    for (name, stage) in [
        ("telemetry.pdp.busy_share", Stage::Pdp),
        ("telemetry.query_graph.busy_share", Stage::QueryGraph),
        ("telemetry.dsms_deploy.busy_share", Stage::DsmsDeploy),
        ("telemetry.plan_cache_lookup.busy_share", Stage::PlanCacheLookup),
        ("telemetry.ingest.busy_share", Stage::Ingest),
        ("telemetry.wal_append.busy_share", Stage::WalAppend),
        ("telemetry.wal_flush.busy_share", Stage::WalFlush),
        ("telemetry.replica_ship.busy_share", Stage::ReplicaShip),
    ] {
        rows.push((name, stage_ns(stage) / window_ns));
    }
    for (name, metric) in [
        ("telemetry.tuples_ingested", Metric::TuplesIngested),
        ("telemetry.tuples_delivered", Metric::TuplesDelivered),
        ("telemetry.wal_records", Metric::WalRecords),
        ("telemetry.wal_flushes", Metric::WalFlushes),
        ("telemetry.replica_batches_shipped", Metric::ReplicaBatchesShipped),
        ("telemetry.broker_frames", Metric::BrokerFrames),
    ] {
        rows.push((name, r.telemetry.counter(metric) as f64));
    }
    let hits = r.telemetry.counter(Metric::PlanCacheHits) as f64;
    let misses = r.telemetry.counter(Metric::PlanCacheMisses) as f64;
    rows.push((
        "core.shared_plan.hit_ratio",
        if hits + misses > 0.0 { hits / (hits + misses) } else { 0.0 },
    ));

    // Time both lanes spent inside the program's public calls, against the
    // wall-clock stages the program itself recorded. The plan-cache lookup
    // nests inside the deploy stage, and the virtual-time stages (network,
    // broker route, delivery) are predictions, so neither is summed.
    let inside: f64 = [Phase::Push, Phase::Request, Phase::Release, Phase::PolicyUpdate]
        .into_iter()
        .map(|phase| busy(&r.a, phase) + busy(&r.b, phase))
        .sum();
    let explained: f64 = [
        Stage::Pdp,
        Stage::QueryGraph,
        Stage::DsmsDeploy,
        Stage::Ingest,
        Stage::WalAppend,
        Stage::WalFlush,
        Stage::ReplicaShip,
    ]
    .into_iter()
    .map(stage_ns)
    .sum();
    rows.push((
        "harness.unattributed_share",
        if inside > 0.0 { (inside - explained) / inside } else { 0.0 },
    ));
    rows
}

/// `--trace 1`: an untraced round (the window figures and the base of the
/// tracing overhead), a traced round (spans written to
/// `trace-<workload>.jsonl`), then the two ladders, each a quarter, a
/// quarter and a half of `seconds`.
pub fn run_traced(world: &World, seconds: f64, out: &Path) -> Result<RunReport, String> {
    let workload = world.workload;
    let schedule = Schedule::for_seconds(seconds / 4.0);
    let plain = run_round(world, &schedule.config(out, workload, false))?;
    let traced = run_round(world, &schedule.config(out, workload, true))?;
    let label = format!("{}#traced", workload.name());
    let trace_path = out.join(format!("trace-{}.jsonl", workload.name()));
    write_trace(&trace_path, &label, &[&traced.a.tracer, &traced.b.tracer])
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    eprintln!("spans written to {}", trace_path.display());

    let mut metrics = window_metrics(workload, &plain);
    let rung = Duration::from_secs_f64(seconds / 2.0 / f64::from(ladder::RUNGS));
    metrics.extend(ladder::ingest_ladder(world.seed, out, rung));
    metrics.extend(ladder::request_ladder(world.seed, out, rung));
    metrics.extend(traced_metrics(workload, &traced));
    let rate =
        |r: &RoundResult| steady_rate(&planes(workload, r).ingest_rates(), rate_kinds(workload).0);
    let base = rate(&plain);
    metrics.push(("harness.trace_overhead", if base > 0.0 { rate(&traced) / base } else { 0.0 }));
    let (attempted, failed) = totals(&[plain, traced]);
    Ok(RunReport { attempted, failed, metrics })
}
