//! # exacml-telemetry — always-on observability for every backend shape
//!
//! The paper's evaluation (Section 4.2, Figures 6–7) is built on a timing
//! decomposition: PDP decision time, query-graph manipulation, DSMS
//! deployment, network time. This crate generalises that decomposition into
//! an always-on, low-overhead instrumentation layer every subsystem records
//! into and every backend surfaces through `Backend::telemetry()`:
//!
//! * a [`Telemetry`] registry of lock-free **sharded counters**
//!   ([`Metric`]) and fixed-bucket **log2 latency histograms** (one per
//!   [`Stage`]) — recording is a couple of relaxed atomic adds, never an
//!   allocation or a lock;
//! * **stage recording** ([`Telemetry::record`] for a duration the caller
//!   measured, [`Telemetry::record_nanos_all`] for a whole frame of them);
//! * a typed, diffable, serde-serializable [`TelemetrySnapshot`] plus a
//!   Prometheus-style text exporter
//!   ([`TelemetrySnapshot::to_prometheus`]).
//!
//! The crate is deliberately **registry-less** in the Prometheus sense:
//! there is no global default registry and no interior name lookup — each
//! component owns (or shares) an `Arc<Telemetry>`, stages and counters are
//! closed enums indexed by constant, and aggregation across components is a
//! pure function over snapshots ([`TelemetrySnapshot::aggregate`]).
//!
//! ## Clock discipline
//!
//! Wall-clock durations measure real compute (PDP evaluation, WAL flushes);
//! virtual-clock durations (broker hops, delivery latency on simulated
//! links) are taken from the virtual clock, so fabric timings stay
//! byte-for-byte deterministic per seed. A histogram never knows which
//! clock fed it — the stage taxonomy documents which stages are wall and
//! which are virtual (see `docs/OBSERVABILITY.md`).

#![warn(unreachable_pub)]

use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

// ---------------------------------------------------------------------------
// Stage and metric taxonomies
// ---------------------------------------------------------------------------

/// The pipeline stages whose latency is tracked, one log2 histogram each.
///
/// The first four reproduce the paper's Figure 6/7 request decomposition;
/// the rest extend it to the ingest path, the write-ahead log, replication
/// shipping, broker routing and the shared-plan cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// XACML decision time at the PDP (wall clock).
    Pdp,
    /// Query-graph translation + merge (wall clock).
    QueryGraph,
    /// Deployment of the merged graph onto the stream engine (wall clock).
    DsmsDeploy,
    /// Simulated network time charged to the request workflow (virtual).
    Network,
    /// One ingest batch through the engine's shard hot path (wall clock).
    Ingest,
    /// One record group appended to the write-ahead log (wall clock).
    WalAppend,
    /// One WAL flush/commit to the OS (wall clock).
    WalFlush,
    /// One journal ship onto a replica mirror (wall clock).
    ReplicaShip,
    /// One broker→node frame or routed request hop (virtual).
    BrokerRoute,
    /// One shared-plan cache acquire on the grant workflow (wall clock).
    PlanCacheLookup,
    /// Per-tuple delivery latency from send to arrival (virtual).
    Delivery,
}

impl Stage {
    /// Every stage, in declaration order (also the histogram index order).
    pub const ALL: [Stage; 11] = [
        Stage::Pdp,
        Stage::QueryGraph,
        Stage::DsmsDeploy,
        Stage::Network,
        Stage::Ingest,
        Stage::WalAppend,
        Stage::WalFlush,
        Stage::ReplicaShip,
        Stage::BrokerRoute,
        Stage::PlanCacheLookup,
        Stage::Delivery,
    ];

    /// The stage's stable snake_case name (snapshot key, exporter label).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Stage::Pdp => "pdp",
            Stage::QueryGraph => "query_graph",
            Stage::DsmsDeploy => "dsms_deploy",
            Stage::Network => "network",
            Stage::Ingest => "ingest",
            Stage::WalAppend => "wal_append",
            Stage::WalFlush => "wal_flush",
            Stage::ReplicaShip => "replica_ship",
            Stage::BrokerRoute => "broker_route",
            Stage::PlanCacheLookup => "plan_cache_lookup",
            Stage::Delivery => "delivery",
        }
    }

    fn index(self) -> usize {
        Stage::ALL.iter().position(|s| *s == self).expect("stage is in ALL")
    }
}

/// The monotone event counters, one sharded counter each.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Metric {
    /// Source tuples accepted by the engine.
    TuplesIngested,
    /// Ingest calls (batches) through the engine.
    BatchesIngested,
    /// Derived tuples emitted to subscribers.
    TuplesDelivered,
    /// Derived tuples a withdrawn or retired handle's subscribers had not
    /// taken, discarded with the handle.
    TuplesDiscarded,
    /// Access requests that entered the Section 3.2 workflow.
    Requests,
    /// Requests that ended in a granted (or reused) handle.
    RequestsGranted,
    /// Requests denied by the PDP or refused by the guard.
    RequestsDenied,
    /// Records appended to a write-ahead log.
    WalRecords,
    /// WAL flushes to the OS.
    WalFlushes,
    /// Journal batches acknowledged by replica mirrors.
    ReplicaBatchesShipped,
    /// Broker→node frames or routed requests.
    BrokerFrames,
    /// Grant workflow calls that reused a live shared plan.
    PlanCacheHits,
    /// Grant workflow calls that compiled a fresh plan.
    PlanCacheMisses,
    /// Extra broker→node attempts spent waiting out fault windows.
    BrokerRetries,
    /// Logical nodes moved onto a surviving replica.
    Failovers,
    /// Handles re-minted at their recorded URIs by failovers.
    HandlesReminted,
    /// Journal ships to a mirror that was skipped or failed (retried on the
    /// next ship).
    ReplicaShipRetries,
}

impl Metric {
    /// Every metric, in declaration order (also the counter index order).
    pub const ALL: [Metric; 17] = [
        Metric::TuplesIngested,
        Metric::BatchesIngested,
        Metric::TuplesDelivered,
        Metric::TuplesDiscarded,
        Metric::Requests,
        Metric::RequestsGranted,
        Metric::RequestsDenied,
        Metric::WalRecords,
        Metric::WalFlushes,
        Metric::ReplicaBatchesShipped,
        Metric::BrokerFrames,
        Metric::PlanCacheHits,
        Metric::PlanCacheMisses,
        Metric::BrokerRetries,
        Metric::Failovers,
        Metric::HandlesReminted,
        Metric::ReplicaShipRetries,
    ];

    /// The metric's stable snake_case name (snapshot key, exporter label).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Metric::TuplesIngested => "tuples_ingested",
            Metric::BatchesIngested => "batches_ingested",
            Metric::TuplesDelivered => "tuples_delivered",
            Metric::TuplesDiscarded => "tuples_discarded",
            Metric::Requests => "requests",
            Metric::RequestsGranted => "requests_granted",
            Metric::RequestsDenied => "requests_denied",
            Metric::WalRecords => "wal_records",
            Metric::WalFlushes => "wal_flushes",
            Metric::ReplicaBatchesShipped => "replica_batches_shipped",
            Metric::BrokerFrames => "broker_frames",
            Metric::PlanCacheHits => "plan_cache_hits",
            Metric::PlanCacheMisses => "plan_cache_misses",
            Metric::BrokerRetries => "broker_retries",
            Metric::Failovers => "failovers",
            Metric::HandlesReminted => "handles_reminted",
            Metric::ReplicaShipRetries => "replica_ship_retries",
        }
    }

    fn index(self) -> usize {
        Metric::ALL.iter().position(|m| *m == self).expect("metric is in ALL")
    }
}

// ---------------------------------------------------------------------------
// Sharded counters
// ---------------------------------------------------------------------------

/// Shards per counter. A power of two so the thread-slot fold is a mask.
const COUNTER_SHARDS: usize = 16;

/// One cache line per shard, so two producer threads bumping the same
/// counter never bounce the same line between cores.
#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

/// A lock-free counter striped over `COUNTER_SHARDS` cache lines.
///
/// `add` touches exactly one relaxed atomic, chosen by a per-thread slot, so
/// concurrent producers on different threads never contend; `get` sums the
/// stripes (reads are rare — snapshots, not the hot path).
#[derive(Default)]
pub struct ShardedCounter {
    shards: [PaddedU64; COUNTER_SHARDS],
}

/// Monotone per-thread slot used to pick a counter stripe.
static NEXT_THREAD_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_SLOT: usize = NEXT_THREAD_SLOT.fetch_add(1, Ordering::Relaxed);
}

fn thread_slot() -> usize {
    THREAD_SLOT.with(|slot| *slot) & (COUNTER_SHARDS - 1)
}

impl ShardedCounter {
    /// A zeroed counter.
    #[must_use]
    pub fn new() -> Self {
        ShardedCounter::default()
    }

    /// Add `n` on the calling thread's stripe (one relaxed atomic add).
    pub fn add(&self, n: u64) {
        self.shards[thread_slot()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// The counter's current value (sum over stripes).
    #[must_use]
    pub fn get(&self) -> u64 {
        self.shards.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
    }
}

// ---------------------------------------------------------------------------
// Log2 histograms
// ---------------------------------------------------------------------------

/// Fixed bucket count: bucket `i` counts durations in `[2^i, 2^(i+1))`
/// nanoseconds (bucket 0 additionally holds 0 ns). 64 buckets cover every
/// representable `u64` duration, so recording never saturates or allocates.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A fixed-bucket log2 latency histogram.
///
/// Recording is three relaxed atomics (bucket count, running total, running
/// max) — no allocation, no lock, no floating point. Percentiles are
/// derived from a [`StageSnapshot`] without touching the live histogram.
pub struct Log2Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    total_nanos: AtomicU64,
    max_nanos: AtomicU64,
}

/// The log2 bucket a duration of `nanos` falls into.
#[must_use]
pub fn bucket_of(nanos: u64) -> usize {
    if nanos == 0 {
        0
    } else {
        nanos.ilog2() as usize
    }
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            total_nanos: AtomicU64::new(0),
            max_nanos: AtomicU64::new(0),
        }
    }
}

impl Log2Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Log2Histogram::default()
    }

    /// Record one observation of `nanos`.
    pub fn record(&self, nanos: u64) {
        self.buckets[bucket_of(nanos)].fetch_add(1, Ordering::Relaxed);
        self.total_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.max_nanos.fetch_max(nanos, Ordering::Relaxed);
    }

    /// Record every observation of `nanos` as [`Log2Histogram::record`]
    /// would, one at a time, but with the buckets, sum and max counted
    /// locally first: one atomic per touched bucket, then one add to the
    /// total and one max, however many observations there are.
    pub fn record_all(&self, nanos: impl IntoIterator<Item = u64>) {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        let (mut total, mut max, mut any) = (0u64, 0u64, false);
        for x in nanos {
            buckets[bucket_of(x)] += 1;
            // The atomic total wraps on overflow; so does the local sum.
            total = total.wrapping_add(x);
            max = max.max(x);
            any = true;
        }
        if !any {
            return;
        }
        for (bucket, n) in self.buckets.iter().zip(buckets) {
            if n > 0 {
                bucket.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.total_nanos.fetch_add(total, Ordering::Relaxed);
        self.max_nanos.fetch_max(max, Ordering::Relaxed);
    }

    /// Total number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// A point-in-time copy of the buckets and totals.
    #[must_use]
    pub fn snapshot(&self) -> StageSnapshot {
        StageSnapshot {
            count: self.count(),
            total_nanos: self.total_nanos.load(Ordering::Relaxed),
            max_nanos: self.max_nanos.load(Ordering::Relaxed),
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
        }
    }
}

// ---------------------------------------------------------------------------
// The registry
// ---------------------------------------------------------------------------

/// The per-component instrumentation registry: one sharded counter per
/// [`Metric`], one log2 histogram per [`Stage`], and an enable switch.
///
/// Components own (or share) one behind an `Arc`. Counters always count;
/// the switch gates only what reads a clock — a disabled registry records
/// no stage observation, and instrumented paths skip their `Instant` reads.
pub struct Telemetry {
    enabled: AtomicBool,
    counters: [ShardedCounter; Metric::ALL.len()],
    stages: [Log2Histogram; Stage::ALL.len()],
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

impl Telemetry {
    /// An enabled, zeroed registry.
    #[must_use]
    pub fn new() -> Self {
        Telemetry {
            enabled: AtomicBool::new(true),
            counters: std::array::from_fn(|_| ShardedCounter::new()),
            stages: std::array::from_fn(|_| Log2Histogram::new()),
        }
    }

    /// A registry that counts but records no stage observation until
    /// [`Telemetry::set_enabled`] turns it on.
    #[must_use]
    pub fn disabled() -> Self {
        let telemetry = Telemetry::new();
        telemetry.enabled.store(false, Ordering::Relaxed);
        telemetry
    }

    /// Turn stage recording on or off (counters and reads are unaffected).
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether stage recording is on: callers read a clock only when it is.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Add `n` to a metric's counter.
    pub fn add(&self, metric: Metric, n: u64) {
        self.counters[metric.index()].add(n);
    }

    /// Add 1 to a metric's counter.
    pub fn incr(&self, metric: Metric) {
        self.add(metric, 1);
    }

    /// A metric's current value.
    #[must_use]
    pub fn counter(&self, metric: Metric) -> u64 {
        self.counters[metric.index()].get()
    }

    /// Record one observed duration into a stage's histogram.
    pub fn record(&self, stage: Stage, elapsed: Duration) {
        self.record_nanos(stage, u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Record one observed duration, in nanoseconds.
    pub fn record_nanos(&self, stage: Stage, nanos: u64) {
        if self.is_enabled() {
            self.stages[stage.index()].record(nanos);
        }
    }

    /// Record a sequence of observed durations, in nanoseconds, with one
    /// histogram update ([`Log2Histogram::record_all`]). The sequence is not
    /// read when stage recording is off.
    pub fn record_nanos_all(&self, stage: Stage, nanos: impl IntoIterator<Item = u64>) {
        if self.is_enabled() {
            self.stages[stage.index()].record_all(nanos);
        }
    }

    /// A consistent-enough point-in-time copy of every counter and
    /// histogram (counters and buckets are read individually; recording
    /// continues concurrently).
    #[must_use]
    pub fn snapshot(&self) -> TelemetrySnapshot {
        self.snapshot_tagged("")
    }

    /// A snapshot tagged with the producing node's name (fabrics tag each
    /// node's sub-snapshot before aggregating).
    #[must_use]
    pub fn snapshot_tagged(&self, node: &str) -> TelemetrySnapshot {
        let mut counters = BTreeMap::new();
        for metric in Metric::ALL {
            let value = self.counter(metric);
            if value > 0 {
                counters.insert(metric.name().to_string(), value);
            }
        }
        let mut stages = BTreeMap::new();
        for stage in Stage::ALL {
            let snapshot = self.stages[stage.index()].snapshot();
            if snapshot.count > 0 {
                stages.insert(stage.name().to_string(), snapshot);
            }
        }
        TelemetrySnapshot { node: node.to_string(), counters, stages, nodes: Vec::new() }
    }
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

/// A point-in-time copy of one stage's histogram.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct StageSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observed durations, nanoseconds.
    pub total_nanos: u64,
    /// Largest observed duration, nanoseconds.
    pub max_nanos: u64,
    /// Log2 bucket counts; bucket `i` covers `[2^i, 2^(i+1))` ns.
    pub buckets: Vec<u64>,
}

impl StageSnapshot {
    /// The upper bound of the bucket holding the q-quantile observation
    /// (`q` is clamped to `[0, 1]`; 0 when the snapshot is empty). Log2
    /// buckets bound the answer within 2× of the true quantile — enough to
    /// locate a bottleneck without storing raw samples.
    #[must_use]
    pub fn percentile_nanos(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
        #[allow(clippy::cast_sign_loss)]
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &bucket) in self.buckets.iter().enumerate() {
            seen += bucket;
            if seen >= rank {
                return bucket_upper_bound(i);
            }
        }
        self.max_nanos
    }

    /// The highest non-empty bucket index, when any observation exists.
    #[must_use]
    pub fn max_bucket(&self) -> Option<usize> {
        self.buckets.iter().rposition(|&b| b > 0)
    }

    /// Fold another snapshot of the same stage into this one: counts and
    /// buckets add, the max takes the larger side. Merging preserves the
    /// total count and the highest non-empty bucket of both sides (pinned
    /// by a property test).
    pub fn merge(&mut self, other: &StageSnapshot) {
        self.count += other.count;
        self.total_nanos += other.total_nanos;
        self.max_nanos = self.max_nanos.max(other.max_nanos);
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
    }

    /// The bucketwise difference `self - earlier` (saturating), for rate
    /// computation between two snapshots of the same live histogram.
    #[must_use]
    pub fn diff(&self, earlier: &StageSnapshot) -> StageSnapshot {
        let mut buckets = self.buckets.clone();
        for (mine, theirs) in buckets.iter_mut().zip(&earlier.buckets) {
            *mine = mine.saturating_sub(*theirs);
        }
        StageSnapshot {
            count: self.count.saturating_sub(earlier.count),
            total_nanos: self.total_nanos.saturating_sub(earlier.total_nanos),
            // A max is not differentiable; keep the later window's max.
            max_nanos: self.max_nanos,
            buckets,
        }
    }
}

/// The inclusive upper bound of log2 bucket `i` in nanoseconds.
fn bucket_upper_bound(i: usize) -> u64 {
    if i + 1 >= 64 {
        u64::MAX
    } else {
        (1u64 << (i + 1)) - 1
    }
}

/// A typed, diffable point-in-time view of one [`Telemetry`] registry — or,
/// aggregated, of a whole fabric (the top level is the fabric-wide merge and
/// `nodes` carries each node's tagged sub-snapshot).
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct TelemetrySnapshot {
    /// The producing node's tag (`""` for a single-component snapshot, the
    /// broker/fabric tag at an aggregate's top level).
    pub node: String,
    /// Non-zero counters by [`Metric::name`].
    pub counters: BTreeMap<String, u64>,
    /// Non-empty stage histograms by [`Stage::name`].
    pub stages: BTreeMap<String, StageSnapshot>,
    /// Per-node sub-snapshots of an aggregated fabric snapshot (empty for
    /// single-component snapshots).
    pub nodes: Vec<TelemetrySnapshot>,
}

impl TelemetrySnapshot {
    /// A counter's value (0 when absent).
    #[must_use]
    pub fn counter(&self, metric: Metric) -> u64 {
        self.counters.get(metric.name()).copied().unwrap_or(0)
    }

    /// A stage's histogram snapshot, when any observation was recorded.
    #[must_use]
    pub fn stage(&self, stage: Stage) -> Option<&StageSnapshot> {
        self.stages.get(stage.name())
    }

    /// Whether nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.stages.is_empty() && self.nodes.is_empty()
    }

    /// Fold another snapshot's counters and stages into this one (the
    /// other's `nodes` list is not traversed — aggregate before merging).
    pub fn merge(&mut self, other: &TelemetrySnapshot) {
        for (name, value) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += value;
        }
        for (name, stage) in &other.stages {
            self.stages.entry(name.clone()).or_default().merge(stage);
        }
    }

    /// Aggregate tagged per-node snapshots into one fabric-wide snapshot:
    /// the top level is the merge of every part, tagged `node`, and each
    /// part rides along unmodified in [`TelemetrySnapshot::nodes`].
    #[must_use]
    pub fn aggregate(node: &str, parts: Vec<TelemetrySnapshot>) -> TelemetrySnapshot {
        let mut top = TelemetrySnapshot { node: node.to_string(), ..TelemetrySnapshot::default() };
        for part in &parts {
            top.merge(part);
        }
        top.nodes = parts;
        top
    }

    /// The counter-and-stage-wise difference `self - earlier` (saturating),
    /// for converting two absolute snapshots into a window's activity.
    /// Node lists are diffed positionally by tag; nodes without an earlier
    /// counterpart pass through unchanged.
    #[must_use]
    pub fn diff(&self, earlier: &TelemetrySnapshot) -> TelemetrySnapshot {
        let mut counters = BTreeMap::new();
        for (name, value) in &self.counters {
            let delta = value.saturating_sub(earlier.counters.get(name).copied().unwrap_or(0));
            if delta > 0 {
                counters.insert(name.clone(), delta);
            }
        }
        let mut stages = BTreeMap::new();
        for (name, stage) in &self.stages {
            let delta = match earlier.stages.get(name) {
                Some(before) => stage.diff(before),
                None => stage.clone(),
            };
            if delta.count > 0 {
                stages.insert(name.clone(), delta);
            }
        }
        let nodes = self
            .nodes
            .iter()
            .map(|node| match earlier.nodes.iter().find(|e| e.node == node.node) {
                Some(before) => node.diff(before),
                None => node.clone(),
            })
            .collect();
        TelemetrySnapshot { node: self.node.clone(), counters, stages, nodes }
    }

    /// Render the snapshot in the Prometheus text exposition style:
    /// counters as `exacml_<metric>`, stage histograms as
    /// `exacml_stage_nanos{stage=..}` `_count` / `_sum` / `_max` series plus
    /// cumulative `_bucket{le=..}` lines. Node tags become a `node` label;
    /// an aggregate renders its top level followed by every node.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        out.push_str("# TYPE exacml_events counter\n");
        out.push_str("# TYPE exacml_stage_nanos histogram\n");
        self.render_prometheus(&mut out);
        for node in &self.nodes {
            node.render_prometheus(&mut out);
        }
        out
    }

    fn render_prometheus(&self, out: &mut String) {
        use std::fmt::Write;
        let node_label =
            if self.node.is_empty() { String::new() } else { format!("node=\"{}\",", self.node) };
        for (name, value) in &self.counters {
            let _ = writeln!(out, "exacml_events{{{node_label}metric=\"{name}\"}} {value}");
        }
        for (name, stage) in &self.stages {
            let label = format!("{node_label}stage=\"{name}\"");
            let _ = writeln!(out, "exacml_stage_nanos_count{{{label}}} {}", stage.count);
            let _ = writeln!(out, "exacml_stage_nanos_sum{{{label}}} {}", stage.total_nanos);
            let _ = writeln!(out, "exacml_stage_nanos_max{{{label}}} {}", stage.max_nanos);
            let mut cumulative = 0u64;
            for (i, &bucket) in stage.buckets.iter().enumerate() {
                if bucket == 0 {
                    continue;
                }
                cumulative += bucket;
                let le = bucket_upper_bound(i);
                let _ =
                    writeln!(out, "exacml_stage_nanos_bucket{{{label},le=\"{le}\"}} {cumulative}");
            }
            let _ = writeln!(out, "exacml_stage_nanos_bucket{{{label},le=\"+Inf\"}} {cumulative}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counters_shard_and_sum() {
        let telemetry = Arc::new(Telemetry::new());
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let telemetry = Arc::clone(&telemetry);
                scope.spawn(move || {
                    for _ in 0..1000 {
                        telemetry.add(Metric::TuplesIngested, 3);
                    }
                });
            }
        });
        assert_eq!(telemetry.counter(Metric::TuplesIngested), 8 * 1000 * 3);
    }

    #[test]
    fn log2_buckets_and_percentiles() {
        let histogram = Log2Histogram::new();
        for nanos in [0u64, 1, 2, 3, 700, 900, 1_000_000] {
            histogram.record(nanos);
        }
        let snapshot = histogram.snapshot();
        assert_eq!(snapshot.count, 7);
        assert_eq!(snapshot.max_nanos, 1_000_000);
        // 0 and 1 share bucket 0; 2 and 3 land in bucket 1; 700/900 in
        // bucket 9 ([512, 1024)); 1e6 in bucket 19.
        assert_eq!(snapshot.buckets[0], 2);
        assert_eq!(snapshot.buckets[1], 2);
        assert_eq!(snapshot.buckets[9], 2);
        assert_eq!(snapshot.buckets[19], 1);
        assert_eq!(snapshot.max_bucket(), Some(19));
        assert!(snapshot.percentile_nanos(0.50) <= 1023);
        assert!(snapshot.percentile_nanos(0.99) >= 524_288);
        // Out-of-range quantiles clamp instead of panicking.
        assert_eq!(snapshot.percentile_nanos(-3.0), snapshot.percentile_nanos(0.0));
        assert_eq!(snapshot.percentile_nanos(7.5), snapshot.percentile_nanos(1.0));
    }

    #[test]
    fn record_all_equals_recording_one_at_a_time() {
        let edges = [0, 1, 2, 3, 4, 1_023, 1_024, 1 << 32, (1 << 63) - 1, 1 << 63, u64::MAX];
        let inputs: [&[u64]; 5] =
            [&[], &[0], &edges, &[u64::MAX, u64::MAX, 5], &[700, 900, 700, 1_000_000, 0, 3]];
        for xs in inputs {
            let one_at_a_time = Log2Histogram::new();
            for &x in xs {
                one_at_a_time.record(x);
            }
            let batched = Log2Histogram::new();
            batched.record_all(xs.iter().copied());
            assert_eq!(batched.snapshot(), one_at_a_time.snapshot(), "{xs:?}");
            // A second batch lands on top of the first, as single records do.
            for &x in xs {
                one_at_a_time.record(x);
            }
            batched.record_all(xs.iter().copied());
            assert_eq!(batched.snapshot(), one_at_a_time.snapshot(), "{xs:?} twice");
        }
    }

    #[test]
    fn a_disabled_registry_records_no_batch() {
        let telemetry = Telemetry::disabled();
        telemetry.record_nanos_all(Stage::Delivery, [5, 50, 500]);
        assert!(telemetry.snapshot().stages.is_empty());
        telemetry.set_enabled(true);
        telemetry.record_nanos_all(Stage::Delivery, [5, 50, 500]);
        telemetry.record_nanos_all(Stage::Delivery, []);
        let delivery = telemetry.snapshot().stage(Stage::Delivery).cloned().unwrap();
        assert_eq!((delivery.count, delivery.total_nanos, delivery.max_nanos), (3, 555, 500));
    }

    #[test]
    fn disabled_registry_counts_but_records_no_stage() {
        let telemetry = Telemetry::disabled();
        telemetry.incr(Metric::Requests);
        telemetry.record(Stage::Pdp, Duration::from_micros(5));
        let snapshot = telemetry.snapshot();
        assert_eq!(snapshot.counter(Metric::Requests), 1);
        assert!(snapshot.stages.is_empty());
        telemetry.set_enabled(true);
        telemetry.incr(Metric::Requests);
        telemetry.record(Stage::Pdp, Duration::from_micros(5));
        assert_eq!(telemetry.counter(Metric::Requests), 2);
        assert_eq!(telemetry.snapshot().stage(Stage::Pdp).map(|s| s.count), Some(1));
    }

    #[test]
    fn aggregate_merges_and_keeps_node_tags() {
        let a = Telemetry::new();
        a.add(Metric::TuplesIngested, 5);
        a.record_nanos(Stage::Ingest, 100);
        let b = Telemetry::new();
        b.add(Metric::TuplesIngested, 7);
        b.record_nanos(Stage::Ingest, 900);
        let merged = TelemetrySnapshot::aggregate(
            "fabric",
            vec![a.snapshot_tagged("node0"), b.snapshot_tagged("node1")],
        );
        assert_eq!(merged.counter(Metric::TuplesIngested), 12);
        assert_eq!(merged.stage(Stage::Ingest).unwrap().count, 2);
        assert_eq!(merged.stage(Stage::Ingest).unwrap().max_nanos, 900);
        assert_eq!(merged.nodes.len(), 2);
        assert_eq!(merged.nodes[0].node, "node0");
        assert_eq!(merged.nodes[1].counter(Metric::TuplesIngested), 7);
    }

    #[test]
    fn diff_isolates_a_window() {
        let telemetry = Telemetry::new();
        telemetry.add(Metric::Requests, 2);
        telemetry.record_nanos(Stage::Pdp, 64);
        let before = telemetry.snapshot();
        telemetry.add(Metric::Requests, 3);
        telemetry.record_nanos(Stage::Pdp, 64);
        let delta = telemetry.snapshot().diff(&before);
        assert_eq!(delta.counter(Metric::Requests), 3);
        assert_eq!(delta.stage(Stage::Pdp).unwrap().count, 1);
        let nothing = before.diff(&before);
        assert!(nothing.is_empty());
    }

    #[test]
    fn prometheus_export_renders_counters_and_histograms() {
        let telemetry = Telemetry::new();
        telemetry.add(Metric::Requests, 4);
        telemetry.record_nanos(Stage::Pdp, 700);
        let text = telemetry.snapshot_tagged("node3").to_prometheus();
        assert!(text.contains("exacml_events{node=\"node3\",metric=\"requests\"} 4"));
        assert!(text.contains("exacml_stage_nanos_count{node=\"node3\",stage=\"pdp\"} 1"));
        assert!(text.contains("le=\"1023\"} 1"));
        assert!(text.contains("le=\"+Inf\"} 1"));
    }
}
