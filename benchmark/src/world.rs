//! The seeded world generator: everything a workload feeds the program is
//! made here, from `--seed` alone, out of stable public constructors
//! (`Schema::*_example`, `StreamPolicyBuilder`, `UserQuery`,
//! `Request::subscribe`, `Tuple::builder_shared`). `exacml-workload` is not
//! used, so the inputs cannot drift when that crate changes; a fingerprint
//! over the generated world pins them.
//!
//! Every predicate the standing subscribers see is `value_column > threshold`
//! on one known column, so the oracle can recompute what each subscriber
//! must receive with plain float comparisons.

use crate::rng::{SplitMix64, Zipf};
use exacml::exacml_dsms::{AggFunc, AggSpec, DataType, Schema, Tuple, Value, WindowSpec};
use exacml::exacml_xacml::Policy;
use exacml::prelude::{StreamPolicyBuilder, UserQuery};
use std::collections::HashMap;
use std::sync::Arc;

/// Rows in each tuple pool.
pub const POOL_ROWS: usize = 65_536;
/// Probe tuples carry `PROBE_BASE + harness clock (ns)` as their
/// `samplingtime`; pool rows carry their row index, far below it. Small
/// enough that the WAL's JSON numbers stay exact (< 2^53).
pub const PROBE_BASE: i64 = 1 << 50;
/// The value-column reading of every probe: above every pool value (< 100)
/// and above the churn grants' threshold, so a probe passes every filter.
pub const PROBE_VALUE: f64 = 1000.0;
/// Churn grants filter on `value > CHURN_THRESHOLD`: only probes reach them.
pub const CHURN_THRESHOLD: f64 = 500.0;

/// The four workloads, in the order a set interleaves them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CityIngest,
    CityRequests,
    FabricIngest,
    ReplicatedMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::CityIngest,
        Workload::CityRequests,
        Workload::FabricIngest,
        Workload::ReplicatedMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CityIngest => "city_ingest",
            Workload::CityRequests => "city_requests",
            Workload::FabricIngest => "fabric_ingest",
            Workload::ReplicatedMixed => "replicated_mixed",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line for `BENCHMARK.json`: which layers the workload loads.
    pub fn why(self) -> &'static str {
        match self {
            Workload::CityIngest => "local(): 8 streams x 25 standing subscribers; compiled operators, residual fan-out and channel delivery do the work, PDP/merge/deploy almost none, no WAL, no broker",
            Workload::CityRequests => "local(): the paper's Section 4.2 request mix (Zipf 0.223 over 300 of 982 policies); PDP, obligations->graph, merge, deploy/withdraw, plan cache and guard do the work, the tuple path idles",
            Workload::FabricIngest => "fabric(4) on the paper testbed: 64 lightly subscribed streams in 16x64 frames; placement, frame grouping, per-node pipelines and link modelling dominate, operators do little",
            Workload::ReplicatedMixed => "replicated(3), K=1, ingest journaled: group-committed ingest beside flush-now control records on the same WAL/ship layer, so a gain for one that costs the other shows",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemaKind {
    Weather,
    Gps,
}

impl SchemaKind {
    pub fn schema(self) -> Schema {
        match self {
            SchemaKind::Weather => Schema::weather_example(),
            SchemaKind::Gps => Schema::gps_example(),
        }
    }

    /// The column every standing predicate reads.
    pub fn value_column(self) -> &'static str {
        match self {
            SchemaKind::Weather => "rainrate",
            SchemaKind::Gps => "speed",
        }
    }
}

pub struct StreamSpec {
    pub name: String,
    pub kind: SchemaKind,
}

/// A tuple window as data: `(size, advance, [(attribute, function keyword)])`.
pub type WindowData = (u64, u64, Vec<(String, &'static str)>);

/// A policy as data; [`PolicySpec::build`] turns it into the XACML policy.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicySpec {
    pub id: String,
    pub stream: String,
    pub subject: String,
    pub filter: Option<String>,
    pub visible: Vec<String>,
    pub window: Option<WindowData>,
}

fn agg_specs(specs: &[(String, &'static str)]) -> Vec<AggSpec> {
    specs
        .iter()
        .map(|(attr, func)| {
            AggSpec::new(attr, AggFunc::from_keyword(func).expect("generator uses known keywords"))
        })
        .collect()
}

impl PolicySpec {
    fn open(id: String, stream: &str, subject: String) -> Self {
        PolicySpec {
            id,
            stream: stream.into(),
            subject,
            filter: None,
            visible: vec![],
            window: None,
        }
    }

    /// The policy at `revision`; revisions differ only in their description,
    /// which is what a policy *update* in the paced lane changes.
    pub fn build(&self, revision: u64) -> Policy {
        let mut b = StreamPolicyBuilder::new(&self.id, &self.stream)
            .subject(&self.subject)
            .description(format!("benchmark policy, revision {revision}"));
        if let Some(f) = &self.filter {
            b = b.filter(f);
        }
        if !self.visible.is_empty() {
            b = b.visible_attributes(self.visible.clone());
        }
        if let Some((size, advance, specs)) = &self.window {
            b = b.window(WindowSpec::tuples(*size, *advance), agg_specs(specs));
        }
        b.build()
    }
}

/// What a standing subscriber must receive, as the oracle models it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TapKind {
    /// Identity graph: every source tuple, and so every probe exactly once.
    Probe,
    /// Every tuple whose value column exceeds the threshold.
    Filter { threshold: f64 },
    /// One output per closed tuple window over the passing tuples.
    Window { threshold: f64, size: u64, advance: u64 },
}

impl TapKind {
    /// The threshold whose pass counts the oracle needs, if any.
    pub fn threshold(self) -> Option<f64> {
        match self {
            TapKind::Probe => None,
            TapKind::Filter { threshold } | TapKind::Window { threshold, .. } => Some(threshold),
        }
    }
}

/// A standing grant the ingest lane subscribes to and drains.
pub struct TapSpec {
    pub stream: usize,
    pub subject: String,
    /// The refinement sent with the request, as a filter threshold on the
    /// value column (rides the policy's core plan as a residual).
    pub refine_above: Option<f64>,
    pub kind: TapKind,
}

/// A subject the paced lane grants, holds and releases; its policy admits
/// only probes, so holding 64 of them costs the ingest lane little.
pub struct ChurnSpec {
    pub stream: usize,
    pub subject: String,
    pub policy: usize,
}

/// One entry of the request corpus (`city_requests`).
pub struct CorpusEntry {
    pub subject: String,
    pub stream: usize,
    /// The refining query a quarter of the entries normally send.
    pub refinement: UserQuery,
    /// Whether this entry's usual request carries the refinement.
    pub refined: bool,
}

/// How many requests hold a grant before the oldest is released.
pub const REQUEST_LIVE_CAP: usize = 128;
/// Ranks the Zipf request sequence draws from (Table 3: maxRank).
pub const ZIPF_RANKS: usize = 300;
pub const ZIPF_ALPHA: f64 = 0.223;
/// Share of requests from subjects no policy names (expected: deny).
pub const INTRUDER_SHARE: f64 = 0.05;
/// Share of requests sent with the entry's *other* query variant — a guard
/// block (Section 3.4) when the usual variant is live, a grant otherwise.
pub const VARIANT_FLIP_SHARE: f64 = 0.03;

/// One tuple pool: rows over one schema plus the value column read out, so
/// pass counts never touch a `Tuple`.
pub struct Pool {
    pub schema: Arc<Schema>,
    pub kind: SchemaKind,
    pub tuples: Vec<Tuple>,
    pub values: Vec<f64>,
}

impl Pool {
    pub fn generate(kind: SchemaKind, seed: u64) -> Self {
        let mut rng = SplitMix64::fork(seed, kind.value_column());
        let schema = kind.schema().shared();
        let value_index = schema.index_of(kind.value_column()).expect("value column exists");
        let mut tuples = Vec::with_capacity(POOL_ROWS);
        let mut values = Vec::with_capacity(POOL_ROWS);
        for row in 0..POOL_ROWS {
            let cells: Vec<Value> = schema
                .fields()
                .iter()
                .map(|field| match field.data_type {
                    DataType::Timestamp => Value::Timestamp(row as i64),
                    // Two decimals, as a sensor would report; below 100.
                    DataType::Double => Value::Double((rng.unit() * 9_999.0).floor() / 100.0),
                    DataType::Int => Value::Int(rng.below(360) as i64),
                    DataType::Text => Value::Text(format!("dev{:03}", rng.below(500))),
                    DataType::Bool => Value::Bool(rng.chance(0.5)),
                })
                .collect();
            values.push(cells[value_index].as_f64().expect("value column is numeric"));
            tuples.push(Tuple::new(Arc::clone(&schema), cells).expect("cells follow the schema"));
        }
        Pool { schema, kind, tuples, values }
    }

    /// A probe tuple stamped with the harness clock.
    pub fn probe(&self, now_ns: i64) -> Tuple {
        Tuple::builder_shared(&self.schema)
            .set("samplingtime", Value::Timestamp(PROBE_BASE + now_ns))
            .set(self.kind.value_column(), PROBE_VALUE)
            .finish_with_defaults()
    }

    /// `prefix[i]` = rows before `i` whose value exceeds `threshold`.
    pub fn pass_prefix(&self, threshold: f64) -> Vec<u32> {
        let mut prefix = Vec::with_capacity(self.values.len() + 1);
        let mut passed = 0u32;
        prefix.push(0);
        for v in &self.values {
            passed += u32::from(*v > threshold);
            prefix.push(passed);
        }
        prefix
    }
}

/// The stamp a delivered tuple carries if it is a probe.
pub fn probe_stamp(tuple: &Tuple) -> Option<i64> {
    match tuple.values().first() {
        Some(Value::Timestamp(t)) if *t >= PROBE_BASE => Some(*t - PROBE_BASE),
        _ => None,
    }
}

/// Everything one workload needs, generated from the seed.
pub struct World {
    pub workload: Workload,
    pub seed: u64,
    pub streams: Vec<StreamSpec>,
    pub pools: Vec<Pool>,
    pub policies: Vec<PolicySpec>,
    pub taps: Vec<TapSpec>,
    pub churn: Vec<ChurnSpec>,
    pub corpus: Vec<CorpusEntry>,
    pub zipf: Zipf,
    /// Pass-count prefix sums over the pool, one per standing threshold
    /// (keyed by the threshold's bits); all standing predicates read the
    /// weather pool.
    prefixes: HashMap<u64, Arc<Vec<u32>>>,
    pub fingerprint: u64,
}

impl World {
    pub fn pool_of(&self, stream: usize) -> &Pool {
        let kind = self.streams[stream].kind;
        self.pools.iter().find(|p| p.kind == kind).expect("a pool per schema in use")
    }

    /// The pass-count prefix sums for a standing subscriber's threshold.
    pub fn prefix_for(&self, kind: TapKind) -> Option<Arc<Vec<u32>>> {
        kind.threshold().map(|t| Arc::clone(&self.prefixes[&t.to_bits()]))
    }

    pub fn generate(workload: Workload, seed: u64) -> World {
        let mut world = World {
            workload,
            seed,
            streams: Vec::new(),
            pools: Vec::new(),
            policies: Vec::new(),
            taps: Vec::new(),
            churn: Vec::new(),
            corpus: Vec::new(),
            zipf: Zipf::new(ZIPF_RANKS, ZIPF_ALPHA),
            prefixes: HashMap::new(),
            fingerprint: 0,
        };
        match workload {
            Workload::CityIngest => world.ingest_world(8, 100, true),
            Workload::FabricIngest => world.ingest_world(64, 2, false),
            Workload::ReplicatedMixed => world.ingest_world(16, 8, false),
            Workload::CityRequests => world.request_world(),
        }
        let kinds: Vec<SchemaKind> = [SchemaKind::Weather, SchemaKind::Gps]
            .into_iter()
            .filter(|k| world.streams.iter().any(|s| s.kind == *k))
            .collect();
        world.pools = kinds.into_iter().map(|k| Pool::generate(k, seed)).collect();
        let mut prefixes = HashMap::new();
        for tap in &world.taps {
            if let Some(threshold) = tap.kind.threshold() {
                prefixes
                    .entry(threshold.to_bits())
                    .or_insert_with(|| Arc::new(world.pool_of(tap.stream).pass_prefix(threshold)));
            }
        }
        world.prefixes = prefixes;
        world.fingerprint = world.compute_fingerprint();
        world
    }

    fn add_policy(&mut self, spec: PolicySpec) -> usize {
        self.policies.push(spec);
        self.policies.len() - 1
    }

    fn add_probe_tap(&mut self, stream: usize) {
        let name = self.streams[stream].name.clone();
        let subject = format!("tap-{name}");
        self.add_policy(PolicySpec::open(format!("p-tap-{name}"), &name, subject.clone()));
        self.taps.push(TapSpec { stream, subject, refine_above: None, kind: TapKind::Probe });
    }

    fn add_churn(&mut self, stream: usize, count: usize) {
        let name = self.streams[stream].name.clone();
        let column = self.streams[stream].kind.value_column();
        for i in 0..count {
            let subject = format!("churn-{name}-{i}");
            let policy = self.add_policy(PolicySpec {
                filter: Some(format!("{column} > {CHURN_THRESHOLD}")),
                ..PolicySpec::open(format!("p-churn-{name}-{i}"), &name, subject.clone())
            });
            self.churn.push(ChurnSpec { stream, subject, policy });
        }
    }

    /// The three ingest worlds: `streams` weather streams, each with a probe
    /// tap and `churn` churn subjects; `city` adds the 24 standing city
    /// subscribers per stream, the other two a single light filter.
    fn ingest_world(&mut self, streams: usize, churn: usize, city: bool) {
        let mut rng = SplitMix64::fork(self.seed, "standing");
        for s in 0..streams {
            let name = format!("district{s:02}");
            self.streams.push(StreamSpec { name: name.clone(), kind: SchemaKind::Weather });
            self.add_probe_tap(s);
            if city {
                // 18 identical windowed questions: one shared plan.
                let threshold = 8.0 + rng.below(5) as f64;
                let size = 60 + 5 * rng.below(5) as u64;
                for i in 0..18 {
                    let subject = format!("agency-{name}-{i}");
                    self.add_policy(PolicySpec {
                        filter: Some(format!("rainrate > {threshold}")),
                        visible: ["samplingtime", "rainrate", "windspeed"].map(String::from).into(),
                        window: Some((
                            size,
                            size,
                            vec![
                                ("samplingtime".into(), "lastval"),
                                ("rainrate".into(), "avg"),
                                ("windspeed".into(), "max"),
                            ],
                        )),
                        ..PolicySpec::open(format!("p-agency-{name}-{i}"), &name, subject.clone())
                    });
                    self.taps.push(TapSpec {
                        stream: s,
                        subject,
                        refine_above: None,
                        kind: TapKind::Window { threshold, size, advance: size },
                    });
                }
                // 6 filter refinements of one policy shape: core + residual.
                let base = 15.0 + rng.below(5) as f64;
                for i in 0..6 {
                    let subject = format!("alert-{name}-{i}");
                    self.add_policy(PolicySpec {
                        filter: Some(format!("rainrate > {base}")),
                        ..PolicySpec::open(format!("p-alert-{name}-{i}"), &name, subject.clone())
                    });
                    let refine = 40.0 + 8.0 * i as f64 + rng.below(4) as f64;
                    self.taps.push(TapSpec {
                        stream: s,
                        subject,
                        refine_above: Some(refine),
                        kind: TapKind::Filter { threshold: refine },
                    });
                }
            } else if self.workload == Workload::FabricIngest {
                let subject = format!("light-{name}");
                let threshold = 88.0 + rng.below(4) as f64;
                self.add_policy(PolicySpec {
                    filter: Some(format!("rainrate > {threshold}")),
                    ..PolicySpec::open(format!("p-light-{name}"), &name, subject.clone())
                });
                self.taps.push(TapSpec {
                    stream: s,
                    subject,
                    refine_above: None,
                    kind: TapKind::Filter { threshold },
                });
            }
            self.add_churn(s, churn);
        }
    }

    /// The Section 4.2 world: weather and gps, a corpus of subject-specific
    /// policies in Table 3's seven-way operator mix, 16 churn subjects for
    /// the paced lane's policy updates — 1000 policies in all.
    fn request_world(&mut self) {
        for (s, (name, kind)) in
            [("weather", SchemaKind::Weather), ("gps", SchemaKind::Gps)].into_iter().enumerate()
        {
            self.streams.push(StreamSpec { name: name.into(), kind });
            self.add_probe_tap(s);
            self.add_churn(s, 8);
        }
        let mut rng = SplitMix64::fork(self.seed, "corpus");
        let corpus = 1000 - self.policies.len();
        for index in 0..corpus {
            let stream = index % 2;
            let entry = corpus_entry(index, stream, &self.streams[stream], &mut rng);
            self.add_policy(entry.0);
            self.corpus.push(entry.1);
        }
    }

    /// FNV-1a over a canonical rendering of everything generated, including
    /// the repository's example schemas (the one input not made here).
    fn compute_fingerprint(&self) -> u64 {
        let mut h = Fnv::default();
        h.text(self.workload.name());
        for s in &self.streams {
            h.text(&s.name);
            for f in s.kind.schema().fields() {
                h.text(&f.name);
                h.text(f.data_type.sql_name());
            }
        }
        for p in &self.policies {
            h.text(&format!("{p:?}"));
        }
        for t in &self.taps {
            h.text(&format!("{} {} {:?} {:?}", t.stream, t.subject, t.refine_above, t.kind));
        }
        for c in &self.churn {
            h.text(&format!("{} {} {}", c.stream, c.subject, c.policy));
        }
        for e in &self.corpus {
            h.text(&format!("{} {} {} {}", e.subject, e.stream, e.refined, e.refinement.to_xml()));
        }
        for pool in &self.pools {
            for v in &pool.values {
                h.bytes(&v.to_bits().to_le_bytes());
            }
            for t in pool.tuples.iter().step_by(POOL_ROWS / 64) {
                h.text(&t.to_string());
            }
        }
        h.0
    }
}

struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn text(&mut self, text: &str) {
        self.bytes(text.as_bytes());
        self.bytes(&[0xff]);
    }
}

/// Table 3's composition mix `FB : MB : AB : FB+MB : FB+AB : MB+AB :
/// FB+MB+AB`, as (has filter, has map, has aggregate, count of 1500).
const TABLE3_MIX: [(bool, bool, bool, usize); 7] = [
    (true, false, false, 160),
    (false, true, false, 170),
    (false, false, true, 130),
    (true, true, false, 124),
    (true, false, true, 254),
    (false, true, true, 290),
    (true, true, true, 372),
];

fn numeric_columns(kind: SchemaKind) -> Vec<String> {
    kind.schema()
        .fields()
        .iter()
        .filter(|f| f.data_type.is_numeric() && f.data_type != DataType::Timestamp)
        .map(|f| f.name.clone())
        .collect()
}

/// One corpus policy with a random graph of the drawn composition, and the
/// request entry for it. The refinement narrows the policy's own filter (or
/// adds one on a visible column), so merging it raises no NR/PR warning.
fn corpus_entry(
    index: usize,
    stream: usize,
    spec: &StreamSpec,
    rng: &mut SplitMix64,
) -> (PolicySpec, CorpusEntry) {
    // Compositions follow Table 3 exactly over any prefix of the corpus (a
    // golden-ratio sequence walks the cumulative mix), so the hot ranks do
    // the same mix of work under every seed; the seed draws the parameters.
    let walk = ((index as f64 + 0.5) * 0.618_033_988_749_895).fract() * 1500.0;
    let mut below = 0.0;
    let mut composition = TABLE3_MIX[TABLE3_MIX.len() - 1];
    for row in TABLE3_MIX {
        below += row.3 as f64;
        if walk < below {
            composition = row;
            break;
        }
    }
    let (has_filter, has_map, has_agg, _) = composition;
    let numeric = numeric_columns(spec.kind);

    let mut refine_attr = None;
    let filter = has_filter.then(|| {
        let attr = numeric[rng.below(numeric.len())].clone();
        let greater = rng.chance(0.5);
        let threshold = 20 + rng.below(60) as i64;
        let (op, narrower) = if greater { (">", threshold + 10) } else { ("<", threshold - 10) };
        refine_attr = Some(format!("{attr} {op} {narrower}"));
        format!("{attr} {op} {threshold}")
    });

    let mut shuffled = numeric.clone();
    for i in (1..shuffled.len()).rev() {
        shuffled.swap(i, rng.below(i + 1));
    }
    shuffled.truncate(1 + rng.below(numeric.len()));
    let visible: Vec<String> = if has_map {
        std::iter::once("samplingtime".to_string()).chain(shuffled.iter().cloned()).collect()
    } else {
        Vec::new()
    };

    let window = has_agg.then(|| {
        let candidates: &[String] = if has_map { &shuffled } else { &numeric };
        let size = 4 + rng.below(17) as u64;
        let advance = 1 + rng.below(size as usize) as u64;
        let mut specs = vec![("samplingtime".to_string(), "lastval")];
        for attr in candidates.iter().take(1 + rng.below(candidates.len().min(3))) {
            specs.push((attr.clone(), ["avg", "max", "min", "sum", "count"][rng.below(5)]));
        }
        (size, advance, specs)
    });

    let subject = format!("user{index:04}");
    let policy = PolicySpec {
        id: format!("policy-{index:04}"),
        stream: spec.name.clone(),
        subject: subject.clone(),
        filter,
        visible,
        window,
    };
    let refine = refine_attr.unwrap_or_else(|| {
        let attr = if has_map { &shuffled[0] } else { &numeric[0] };
        format!("{attr} > 50")
    });
    let entry = CorpusEntry {
        subject,
        stream,
        refinement: UserQuery::for_stream(&spec.name).with_filter(refine),
        refined: index.is_multiple_of(4),
    };
    (policy, entry)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_world_other_seed_other_world() {
        for workload in [Workload::CityIngest, Workload::CityRequests] {
            let a = World::generate(workload, 2012);
            let b = World::generate(workload, 2012);
            let c = World::generate(workload, 2013);
            assert_eq!(a.fingerprint, b.fingerprint);
            assert_ne!(a.fingerprint, c.fingerprint);
            assert_eq!(a.policies, b.policies);
        }
    }

    #[test]
    fn worlds_have_the_documented_shape() {
        let city = World::generate(Workload::CityIngest, 1);
        assert_eq!(city.streams.len(), 8);
        assert_eq!(city.policies.len(), 1000);
        assert_eq!(city.taps.len(), 200);
        assert_eq!(city.churn.len(), 800);

        let requests = World::generate(Workload::CityRequests, 1);
        assert_eq!(requests.policies.len(), 1000);
        assert_eq!(requests.corpus.len(), 1000 - 2 - 16);
        assert!(requests.corpus.len() >= ZIPF_RANKS);
        assert_eq!(requests.pools.len(), 2);

        let fabric = World::generate(Workload::FabricIngest, 1);
        assert_eq!((fabric.streams.len(), fabric.taps.len(), fabric.churn.len()), (64, 128, 128));
        let replicated = World::generate(Workload::ReplicatedMixed, 1);
        assert_eq!(
            (replicated.streams.len(), replicated.taps.len(), replicated.churn.len()),
            (16, 16, 128)
        );
    }

    #[test]
    fn corpus_covers_the_seven_compositions() {
        let world = World::generate(Workload::CityRequests, 2012);
        let corpus_policies = &world.policies[world.policies.len() - world.corpus.len()..];
        for (f, m, a, _) in TABLE3_MIX {
            let seen = corpus_policies[..ZIPF_RANKS].iter().any(|p| {
                p.filter.is_some() == f && p.visible.is_empty() != m && p.window.is_some() == a
            });
            assert!(seen, "composition filter={f} map={m} agg={a} missing from the hot ranks");
        }
    }

    #[test]
    fn probes_are_recognised_and_pool_rows_are_not() {
        let world = World::generate(Workload::ReplicatedMixed, 5);
        let pool = &world.pools[0];
        assert_eq!(pool.tuples.len(), POOL_ROWS);
        assert!(pool.values.iter().all(|v| (0.0..100.0).contains(v)));
        assert_eq!(probe_stamp(&pool.tuples[17]), None);
        assert_eq!(probe_stamp(&pool.probe(123_456)), Some(123_456));
        let prefix = pool.pass_prefix(50.0);
        let by_hand = pool.values[100..356].iter().filter(|v| **v > 50.0).count() as u32;
        assert_eq!(prefix[356] - prefix[100], by_hand);
    }
}
