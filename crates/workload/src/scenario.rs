//! Declarative scenario packs: many worlds, one harness.
//!
//! The paper's evaluation drives eXACML+ with exactly one world — the
//! weather/GPS smart-city workload of Section 4.2. A [`ScenarioPack`] turns
//! that world into *data*: streams and their schemas, a policy corpus, a
//! subject population with Zipf access skew (via [`crate::zipf`]), a scripted
//! request/ingest sequence, and expected-outcome oracles (grants allowed and
//! denied, delivery counts, audit invariants). Packs are plain serde structs
//! that round-trip through JSON ([`ScenarioPack::to_json_string`] /
//! [`ScenarioPack::from_json_str`]); the built-in worlds are JSON documents
//! embedded by [`crate::packs`], so a new world is a data file, not code.
//!
//! The runner that executes a pack against any `Backend` shape is
//! [`crate::runner`]; `docs/SCENARIOS.md` in the repository root documents
//! the schema and oracle semantics for pack authors.
//!
//! The vendored serde stand-in derives `Serialize` only (there is no typed
//! deserialization in this build environment), so loading is implemented by
//! hand over [`serde_json::Value`]. To keep that parser honest, every spec
//! struct is flat and enum-free: discriminators are strings (`op`, `kind`)
//! validated by [`ScenarioPack::validate`].

use exacml_dsms::{AggSpec, DataType, Schema, Tuple, Value as DsmsValue, WindowKind, WindowSpec};
use exacml_plus::{StreamPolicyBuilder, UserQuery};
use exacml_xacml::Policy;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use serde_json::Value;
use std::sync::Arc;

/// A complete declarative world: streams, policies, script and oracles.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ScenarioPack {
    /// Pack name (`smart-city`, `financial-ticks`, …).
    pub name: String,
    /// One-line description of the world being modelled.
    pub description: String,
    /// Master seed: every synthetic feed and Zipf draw derives from it, so
    /// two runs of the same pack are tuple-for-tuple identical.
    pub seed: u64,
    /// The stream with an *open* (subject-less) policy that fan-out and
    /// plan-sharing measurements target.
    pub fanout_stream: String,
    /// Input streams and their synthesised schemas.
    pub streams: Vec<StreamSpec>,
    /// The policy corpus loaded before the script runs.
    pub policies: Vec<PolicySpec>,
    /// The ordered request/ingest script.
    pub script: Vec<ScriptStep>,
    /// Expected-outcome oracles checked after the script completes.
    pub expect: Expectations,
}

/// One input stream: a name plus per-field type and value generator.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StreamSpec {
    /// Stream name.
    pub name: String,
    /// Ordered fields (the first `time` field is the event-time column).
    pub fields: Vec<FieldSpec>,
}

/// One schema field with its deterministic value generator.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FieldSpec {
    /// Attribute name.
    pub name: String,
    /// `int` | `double` | `text` | `timestamp` | `bool`.
    pub data_type: String,
    /// How values are synthesised.
    pub gen: FieldGen,
}

/// A deterministic per-field value generator.
///
/// `kind` selects the distribution; `a`, `b` and `p` are its parameters:
///
/// | kind      | meaning                                                     |
/// |-----------|-------------------------------------------------------------|
/// | `time`    | monotone event time advancing by `a` per tuple              |
/// | `serial`  | `a`, `a+1`, `a+2`, … (per-field counter)                    |
/// | `uniform` | uniform draw from `[a, b)`                                  |
/// | `walk`    | random walk from `a` with per-tuple step in `[-b, b]`       |
/// | `burst`   | uniform `[0, a)`; with probability `p` a spike in `[a, b)`  |
/// | `choice`  | uniform pick from `options` (text fields)                   |
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FieldGen {
    /// Generator kind (see table above).
    pub kind: String,
    /// First parameter (interval, start, low bound, base …).
    pub a: f64,
    /// Second parameter (high bound, step …).
    pub b: f64,
    /// Spike probability (`burst` only).
    pub p: f64,
    /// The option set (`choice` only).
    pub options: Vec<String>,
}

/// One policy of the pack's corpus, in [`StreamPolicyBuilder`] vocabulary.
///
/// An empty `subject` makes the policy *open*: any subject asking for the
/// stream matches (the shape Zipf populations and fan-out measurements use).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PolicySpec {
    /// Policy id.
    pub id: String,
    /// Governed stream.
    pub stream: String,
    /// Restricting subject (`""` = open to any subject).
    pub subject: String,
    /// Free-form description.
    pub description: String,
    /// Row-visibility filter condition (`""` = none).
    pub filter: String,
    /// Visible attributes (empty = no map box).
    pub visible: Vec<String>,
    /// Mandatory aggregation window (`None` = no window box).
    pub window: Option<WindowData>,
}

impl PolicySpec {
    /// Build the XACML policy this spec describes.
    ///
    /// # Errors
    /// Fails when the window data does not parse (bad kind or agg pair).
    pub fn build(&self) -> Result<Policy, String> {
        let mut builder =
            StreamPolicyBuilder::new(&self.id, &self.stream).description(&self.description);
        if !self.subject.is_empty() {
            builder = builder.subject(&self.subject);
        }
        if !self.filter.is_empty() {
            builder = builder.filter(&self.filter);
        }
        if !self.visible.is_empty() {
            builder = builder.visible_attributes(self.visible.iter().map(String::as_str));
        }
        if let Some(window) = &self.window {
            let (spec, aggs) = window.to_spec()?;
            builder = builder.window(spec, aggs);
        }
        Ok(builder.build())
    }
}

/// A window obligation in data form: kind, size, advance and the
/// `attribute:function` aggregation pairs ([`AggSpec::encode`] syntax).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WindowData {
    /// `tuple` or `time`.
    pub kind: String,
    /// Window size.
    pub size: u64,
    /// Advance step.
    pub advance: u64,
    /// Encoded aggregation pairs, e.g. `price:avg`.
    pub aggs: Vec<String>,
}

impl WindowData {
    /// Decode into the engine's window spec and aggregation list.
    ///
    /// # Errors
    /// Fails on an unknown window kind or a malformed `attr:func` pair.
    pub fn to_spec(&self) -> Result<(WindowSpec, Vec<AggSpec>), String> {
        let kind = WindowKind::from_keyword(&self.kind)
            .ok_or_else(|| format!("unknown window kind '{}'", self.kind))?;
        let spec = WindowSpec { kind, size: self.size, advance: self.advance };
        let mut aggs = Vec::with_capacity(self.aggs.len());
        for pair in &self.aggs {
            aggs.push(AggSpec::parse(pair).ok_or_else(|| format!("bad agg pair '{pair}'"))?);
        }
        Ok((spec, aggs))
    }
}

/// A customised user query riding on a request (Section 3.2's `Q_U`).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct QuerySpec {
    /// Extra filter condition (`""` = none).
    pub filter: String,
    /// Projected attributes (empty = none).
    pub select: Vec<String>,
    /// Requested aggregation window (`None` = none).
    pub window: Option<WindowData>,
}

impl QuerySpec {
    /// Build the typed [`UserQuery`] for `stream`.
    ///
    /// # Errors
    /// Fails when the window data does not parse.
    pub fn to_user_query(&self, stream: &str) -> Result<UserQuery, String> {
        let mut query = UserQuery::for_stream(stream);
        if !self.filter.is_empty() {
            query = query.with_filter(&self.filter);
        }
        if !self.select.is_empty() {
            query = query.with_map(self.select.iter().map(String::as_str));
        }
        if let Some(window) = &self.window {
            let (spec, aggs) = window.to_spec()?;
            query = query.with_aggregation(spec, aggs);
        }
        Ok(query)
    }
}

/// One step of a pack's script. Flat and string-discriminated so the whole
/// script serializes without enum support; `op` selects the action:
///
/// | op              | fields used                                        |
/// |-----------------|----------------------------------------------------|
/// | `request`       | `subject`, `stream`, `query?`, `expect`, `tap?`    |
/// | `ingest`        | `stream`, `count`                                  |
/// | `release`       | `subject`, `stream`                                |
/// | `update-policy` | `policy`                                           |
/// | `remove-policy` | `policy_id`                                        |
/// | `zipf-requests` | `stream`, `prefix`, `subjects`, `alpha`, `count`   |
///
/// `expect` is the per-request oracle: `grant`, `reuse`, `deny`, `blocked`
/// (single-access guard) or `open` (grant first time, reuse afterwards — what
/// Zipf populations produce).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ScriptStep {
    /// Action discriminator (see table above).
    pub op: String,
    /// Target stream (`""` when not applicable).
    pub stream: String,
    /// Requesting/releasing subject (`""` when not applicable).
    pub subject: String,
    /// Tuple count (`ingest`) or request count (`zipf-requests`).
    pub count: u64,
    /// Expected request outcome (`""` when not a request step).
    pub expect: String,
    /// Delivery-tap label recording this grant's output (`""` = untapped).
    pub tap: String,
    /// Customised user query for `request` steps.
    pub query: Option<QuerySpec>,
    /// Replacement policy for `update-policy` steps.
    pub policy: Option<PolicySpec>,
    /// Target policy for `remove-policy` steps.
    pub policy_id: String,
    /// Population size for `zipf-requests`.
    pub subjects: u64,
    /// Zipf skew for `zipf-requests`.
    pub alpha: f64,
    /// Subject-name prefix for `zipf-requests` (subject = `{prefix}{rank}`).
    pub prefix: String,
}

impl ScriptStep {
    /// An access request with an expected outcome (what the runner expands
    /// a `zipf-requests` step into).
    #[must_use]
    pub fn request(subject: &str, stream: &str, expect: &str) -> Self {
        ScriptStep {
            op: "request".into(),
            stream: stream.into(),
            subject: subject.into(),
            count: 0,
            expect: expect.into(),
            tap: String::new(),
            query: None,
            policy: None,
            policy_id: String::new(),
            subjects: 0,
            alpha: 0.0,
            prefix: String::new(),
        }
    }
}

/// A delivery-count oracle for one tap.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DeliveryExpectation {
    /// The tap label (see [`ScriptStep::tap`]).
    pub tap: String,
    /// Minimum derived tuples the tap must have received.
    pub min: u64,
    /// Optional exact ceiling (`None` = unbounded).
    pub max: Option<u64>,
}

/// A minimum-count oracle for one audit event kind.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AuditExpectation {
    /// Audit kind by display name (`granted`, `denied`,
    /// `multiple-access-blocked`, `policy-updated`, …).
    pub kind: String,
    /// Minimum number of events of that kind.
    pub min: u64,
}

/// The pack-level oracles checked after the script completes. `None`
/// fields are unpinned.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct Expectations {
    /// Exact number of fresh grants.
    pub grants: Option<u64>,
    /// Exact number of reused handles.
    pub reuses: Option<u64>,
    /// Exact number of PDP denials.
    pub denials: Option<u64>,
    /// Exact number of single-access-guard rejections.
    pub blocked: Option<u64>,
    /// Ceiling on live shared plans at pack end (the plan-sharing oracle:
    /// a Zipf population of N subscribers must not cost N plans).
    pub max_live_plans: Option<u64>,
    /// Exact number of loaded policies at pack end.
    pub final_policies: Option<u64>,
    /// Per-tap delivery-count oracles.
    pub deliveries: Vec<DeliveryExpectation>,
    /// Audit-trail invariants (minimum event counts per kind).
    pub audit_min: Vec<AuditExpectation>,
    /// Subjects that must never appear in a `granted` audit event.
    pub no_grants_for: Vec<String>,
}

// --- Synthetic feeds --------------------------------------------------------

/// Stable FNV-1a hash used to derive per-stream seeds from the pack seed, so
/// adding a stream does not shift another stream's tuple sequence.
fn fnv1a(text: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A deterministic tuple synthesiser for one [`StreamSpec`].
#[derive(Debug)]
pub struct SyntheticFeed {
    spec: StreamSpec,
    schema: Arc<Schema>,
    rng: StdRng,
    tick: u64,
    walks: Vec<f64>,
}

impl SyntheticFeed {
    /// A feed for `spec`, seeded from the pack seed and the stream name.
    #[must_use]
    pub fn new(spec: &StreamSpec, pack_seed: u64) -> Self {
        let schema = spec.schema().shared();
        let walks = spec.fields.iter().map(|f| f.gen.a).collect();
        SyntheticFeed {
            spec: spec.clone(),
            schema,
            rng: StdRng::seed_from_u64(pack_seed ^ fnv1a(&spec.name)),
            tick: 0,
            walks,
        }
    }

    /// The schema tuples are built against.
    #[must_use]
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Synthesise the next tuple.
    pub fn next_tuple(&mut self) -> Tuple {
        let mut builder = Tuple::builder_shared(&self.schema);
        let tick = self.tick;
        for (index, field) in self.spec.fields.iter().enumerate() {
            let gen = &field.gen;
            let raw = match gen.kind.as_str() {
                "time" => (tick as f64) * gen.a,
                "serial" => gen.a + tick as f64,
                "uniform" => self.rng.gen_range(gen.a..gen.b),
                "walk" => {
                    if gen.b > 0.0 {
                        self.walks[index] += self.rng.gen_range(-gen.b..gen.b);
                    }
                    self.walks[index]
                }
                "burst" => {
                    if self.rng.gen_bool(gen.p) {
                        self.rng.gen_range(gen.a..gen.b)
                    } else {
                        self.rng.gen_range(0.0..gen.a)
                    }
                }
                "choice" => self.rng.gen_range(0..gen.options.len().max(1)) as f64,
                other => panic!("unknown field generator '{other}' (validate() missed it)"),
            };
            let value = match field.data_type.as_str() {
                "double" => DsmsValue::Double(raw),
                "int" => DsmsValue::Int(raw.floor() as i64),
                "timestamp" => DsmsValue::Timestamp(raw.floor() as i64),
                "bool" => DsmsValue::Bool(raw >= 0.5),
                "text" => {
                    let options = &gen.options;
                    let pick = (raw.floor() as usize).min(options.len().saturating_sub(1));
                    DsmsValue::Text(options.get(pick).cloned().unwrap_or_default())
                }
                other => panic!("unknown data type '{other}' (validate() missed it)"),
            };
            builder = builder.set(&field.name, value);
        }
        self.tick += 1;
        builder.finish_with_defaults()
    }

    /// Synthesise a batch of `count` tuples.
    pub fn next_batch(&mut self, count: u64) -> Vec<Tuple> {
        (0..count).map(|_| self.next_tuple()).collect()
    }

    /// Skip `count` tuples (used when resuming a pack after recovery: the
    /// feed fast-forwards to where the killed process stopped).
    pub fn skip(&mut self, count: u64) {
        for _ in 0..count {
            let _ = self.next_tuple();
        }
    }
}

impl StreamSpec {
    /// The engine schema this spec declares.
    #[must_use]
    pub fn schema(&self) -> Schema {
        Schema::from_pairs(self.fields.iter().map(|f| {
            let data_type = match f.data_type.as_str() {
                "int" => DataType::Int,
                "double" => DataType::Double,
                "bool" => DataType::Bool,
                "text" => DataType::Text,
                "timestamp" => DataType::Timestamp,
                other => panic!("unknown data type '{other}' (validate() missed it)"),
            };
            (f.name.as_str(), data_type)
        }))
    }
}

// --- Validation -------------------------------------------------------------

const DATA_TYPES: [&str; 5] = ["int", "double", "bool", "text", "timestamp"];
const GEN_KINDS: [&str; 6] = ["time", "serial", "uniform", "walk", "burst", "choice"];
const OPS: [&str; 6] =
    ["request", "ingest", "release", "update-policy", "remove-policy", "zipf-requests"];
const EXPECTS: [&str; 5] = ["grant", "reuse", "deny", "blocked", "open"];

impl ScenarioPack {
    /// Check the pack's internal consistency: known discriminators, script
    /// targets that exist, parseable windows. Run on every load so a typo in
    /// a pack file fails fast instead of panicking mid-run.
    ///
    /// # Errors
    /// Returns every problem found (empty `Ok` means a well-formed pack).
    pub fn validate(&self) -> Result<(), Vec<String>> {
        let mut problems = Vec::new();
        let streams: Vec<&str> = self.streams.iter().map(|s| s.name.as_str()).collect();
        if self.name.is_empty() {
            problems.push("pack has no name".into());
        }
        if !streams.contains(&self.fanout_stream.as_str()) {
            problems.push(format!("fanout_stream '{}' is not a stream", self.fanout_stream));
        }
        for stream in &self.streams {
            for field in &stream.fields {
                if !DATA_TYPES.contains(&field.data_type.as_str()) {
                    problems.push(format!(
                        "{}.{}: unknown data type '{}'",
                        stream.name, field.name, field.data_type
                    ));
                }
                if !GEN_KINDS.contains(&field.gen.kind.as_str()) {
                    problems.push(format!(
                        "{}.{}: unknown generator '{}'",
                        stream.name, field.name, field.gen.kind
                    ));
                }
                if field.gen.kind == "choice" && field.gen.options.is_empty() {
                    problems.push(format!(
                        "{}.{}: choice generator needs options",
                        stream.name, field.name
                    ));
                }
                // The feed samples `[a, b)` (and `[0, a)` with probability
                // `p` for bursts); an empty range would panic mid-run.
                let FieldGen { a, b, p, .. } = field.gen;
                let samplable = match field.gen.kind.as_str() {
                    "uniform" => a < b,
                    "burst" => 0.0 < a && a < b && (0.0..=1.0).contains(&p),
                    _ => true,
                };
                if !samplable {
                    problems.push(format!(
                        "{}.{}: generator '{}' cannot sample a={a}, b={b}, p={p}",
                        stream.name, field.name, field.gen.kind
                    ));
                }
            }
        }
        for policy in &self.policies {
            if !streams.contains(&policy.stream.as_str()) {
                problems.push(format!("policy {}: unknown stream '{}'", policy.id, policy.stream));
            }
            if let Err(problem) = policy.build() {
                problems.push(format!("policy {}: {problem}", policy.id));
            }
        }
        let open_on_fanout =
            self.policies.iter().any(|p| p.stream == self.fanout_stream && p.subject.is_empty());
        if !open_on_fanout {
            problems.push(format!(
                "fanout_stream '{}' has no open (subject-less) policy",
                self.fanout_stream
            ));
        }
        for (index, step) in self.script.iter().enumerate() {
            if !OPS.contains(&step.op.as_str()) {
                problems.push(format!("step {index}: unknown op '{}'", step.op));
                continue;
            }
            let needs_stream =
                matches!(step.op.as_str(), "request" | "ingest" | "release" | "zipf-requests");
            if needs_stream && !streams.contains(&step.stream.as_str()) {
                problems.push(format!("step {index}: unknown stream '{}'", step.stream));
            }
            if step.op == "request" && !EXPECTS.contains(&step.expect.as_str()) {
                problems.push(format!("step {index}: unknown expect '{}'", step.expect));
            }
            if step.op == "zipf-requests" && step.subjects == 0 {
                problems.push(format!("step {index}: zipf population is empty"));
            }
            if step.op == "zipf-requests" && (step.alpha < 0.0 || step.alpha.is_nan()) {
                problems.push(format!("step {index}: zipf alpha {} is negative", step.alpha));
            }
            if let Some(query) = &step.query {
                if let Some(window) = &query.window {
                    if let Err(problem) = window.to_spec() {
                        problems.push(format!("step {index}: {problem}"));
                    }
                }
            }
            if step.op == "update-policy" {
                match &step.policy {
                    None => problems.push(format!("step {index}: update-policy without a policy")),
                    Some(policy) => {
                        if let Err(problem) = policy.build() {
                            problems.push(format!("step {index}: {problem}"));
                        }
                    }
                }
            }
        }
        for expectation in &self.expect.audit_min {
            if !exacml_plus::AuditEventKind::ALL
                .iter()
                .any(|kind| kind.to_string() == expectation.kind)
            {
                problems.push(format!("audit oracle: unknown kind '{}'", expectation.kind));
            }
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems)
        }
    }

    /// Override the master seed (used by the determinism property test).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Scale every ingest count by `factor` (nightly soak runs packs at
    /// multiples of their committed size). Delivery oracles with exact
    /// ceilings are widened, since window emission counts grow with ingest.
    #[must_use]
    pub fn scaled(mut self, factor: u64) -> Self {
        if factor <= 1 {
            return self;
        }
        for step in &mut self.script {
            if step.op == "ingest" {
                step.count *= factor;
            }
        }
        for delivery in &mut self.expect.deliveries {
            delivery.max = None;
        }
        self
    }
}

// --- JSON round-trip --------------------------------------------------------

/// Helpers for the hand-written `Value` parser (the vendored serde has no
/// typed deserialization).
fn str_of(value: &Value, key: &str) -> Result<String, String> {
    match value.get(key) {
        None | Some(Value::Null) => Ok(String::new()),
        Some(v) => v.as_str().map(str::to_string).ok_or_else(|| format!("'{key}' is not a string")),
    }
}

fn f64_of(value: &Value, key: &str) -> Result<f64, String> {
    match value.get(key) {
        None | Some(Value::Null) => Ok(0.0),
        Some(v) => v.as_f64().ok_or_else(|| format!("'{key}' is not a number")),
    }
}

fn u64_of(value: &Value, key: &str) -> Result<u64, String> {
    let raw = f64_of(value, key)?;
    if raw < 0.0 {
        return Err(format!("'{key}' is negative"));
    }
    Ok(raw as u64)
}

fn opt_u64_of(value: &Value, key: &str) -> Result<Option<u64>, String> {
    match value.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => {
            let raw = v.as_f64().ok_or_else(|| format!("'{key}' is not a number"))?;
            Ok(Some(raw as u64))
        }
    }
}

fn strings_of(value: &Value, key: &str) -> Result<Vec<String>, String> {
    match value.get(key) {
        None | Some(Value::Null) => Ok(Vec::new()),
        Some(v) => {
            let items = v.as_array().ok_or_else(|| format!("'{key}' is not an array"))?;
            items
                .iter()
                .map(|item| {
                    item.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| format!("'{key}' holds a non-string"))
                })
                .collect()
        }
    }
}

fn array_of<'v>(value: &'v Value, key: &str) -> Result<&'v [Value], String> {
    match value.get(key) {
        None | Some(Value::Null) => Ok(&[]),
        Some(v) => v.as_array().ok_or_else(|| format!("'{key}' is not an array")),
    }
}

fn window_of(value: &Value, key: &str) -> Result<Option<WindowData>, String> {
    match value.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => Ok(Some(WindowData {
            kind: str_of(v, "kind")?,
            size: u64_of(v, "size")?,
            advance: u64_of(v, "advance")?,
            aggs: strings_of(v, "aggs")?,
        })),
    }
}

fn policy_from_json(value: &Value) -> Result<PolicySpec, String> {
    Ok(PolicySpec {
        id: str_of(value, "id")?,
        stream: str_of(value, "stream")?,
        subject: str_of(value, "subject")?,
        description: str_of(value, "description")?,
        filter: str_of(value, "filter")?,
        visible: strings_of(value, "visible")?,
        window: window_of(value, "window")?,
    })
}

impl ScenarioPack {
    /// Serialize the pack as pretty JSON (the `packs/*.json` format).
    ///
    /// # Errors
    /// Propagates serializer errors (practically unreachable).
    pub fn to_json_string(&self) -> Result<String, String> {
        serde_json::to_string_pretty(self).map_err(|e| e.to_string())
    }

    /// Load a pack from its JSON document and validate it.
    ///
    /// # Errors
    /// Fails on malformed JSON, schema mismatches, or validation problems.
    pub fn from_json_str(text: &str) -> Result<Self, String> {
        let value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let pack = ScenarioPack::from_json(&value)?;
        pack.validate().map_err(|problems| problems.join("; "))?;
        Ok(pack)
    }

    /// Load a pack from an already-parsed JSON value (no validation).
    ///
    /// # Errors
    /// Fails when the value does not match the pack schema.
    pub fn from_json(value: &Value) -> Result<Self, String> {
        let mut streams = Vec::new();
        for stream in array_of(value, "streams")? {
            let mut fields = Vec::new();
            for field in array_of(stream, "fields")? {
                let gen = field.get("gen").ok_or("field without 'gen'")?;
                fields.push(FieldSpec {
                    name: str_of(field, "name")?,
                    data_type: str_of(field, "data_type")?,
                    gen: FieldGen {
                        kind: str_of(gen, "kind")?,
                        a: f64_of(gen, "a")?,
                        b: f64_of(gen, "b")?,
                        p: f64_of(gen, "p")?,
                        options: strings_of(gen, "options")?,
                    },
                });
            }
            streams.push(StreamSpec { name: str_of(stream, "name")?, fields });
        }

        let mut policies = Vec::new();
        for policy in array_of(value, "policies")? {
            policies.push(policy_from_json(policy)?);
        }

        let mut script = Vec::new();
        for step in array_of(value, "script")? {
            let query = match step.get("query") {
                None | Some(Value::Null) => None,
                Some(q) => Some(QuerySpec {
                    filter: str_of(q, "filter")?,
                    select: strings_of(q, "select")?,
                    window: window_of(q, "window")?,
                }),
            };
            let policy = match step.get("policy") {
                None | Some(Value::Null) => None,
                Some(p) => Some(policy_from_json(p)?),
            };
            script.push(ScriptStep {
                op: str_of(step, "op")?,
                stream: str_of(step, "stream")?,
                subject: str_of(step, "subject")?,
                count: u64_of(step, "count")?,
                expect: str_of(step, "expect")?,
                tap: str_of(step, "tap")?,
                query,
                policy,
                policy_id: str_of(step, "policy_id")?,
                subjects: u64_of(step, "subjects")?,
                alpha: f64_of(step, "alpha")?,
                prefix: str_of(step, "prefix")?,
            });
        }

        let expect_value = value.get("expect").cloned().unwrap_or(Value::Null);
        let mut deliveries = Vec::new();
        for delivery in array_of(&expect_value, "deliveries")? {
            deliveries.push(DeliveryExpectation {
                tap: str_of(delivery, "tap")?,
                min: u64_of(delivery, "min")?,
                max: opt_u64_of(delivery, "max")?,
            });
        }
        let mut audit_min = Vec::new();
        for expectation in array_of(&expect_value, "audit_min")? {
            audit_min.push(AuditExpectation {
                kind: str_of(expectation, "kind")?,
                min: u64_of(expectation, "min")?,
            });
        }
        let expect = Expectations {
            grants: opt_u64_of(&expect_value, "grants")?,
            reuses: opt_u64_of(&expect_value, "reuses")?,
            denials: opt_u64_of(&expect_value, "denials")?,
            blocked: opt_u64_of(&expect_value, "blocked")?,
            max_live_plans: opt_u64_of(&expect_value, "max_live_plans")?,
            final_policies: opt_u64_of(&expect_value, "final_policies")?,
            deliveries,
            audit_min,
            no_grants_for: strings_of(&expect_value, "no_grants_for")?,
        };

        Ok(ScenarioPack {
            name: str_of(value, "name")?,
            description: str_of(value, "description")?,
            seed: u64_of(value, "seed")?,
            fanout_stream: str_of(value, "fanout_stream")?,
            streams,
            policies,
            script,
            expect,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal well-formed pack document; the malformed-input table below
    /// breaks it one key at a time.
    const TINY: &str = r#"{
        "name": "tiny",
        "description": "unit-test world",
        "seed": 7,
        "fanout_stream": "s",
        "streams": [{"name": "s", "fields": [
            {"name": "samplingtime", "data_type": "timestamp", "gen": {"kind": "time", "a": 1000}},
            {"name": "a", "data_type": "double", "gen": {"kind": "uniform", "a": 0, "b": 10}}
        ]}],
        "policies": [{"id": "open", "stream": "s", "filter": "a > 2",
                      "visible": ["samplingtime", "a"]}],
        "script": [
            {"op": "request", "subject": "alice", "stream": "s", "expect": "grant", "tap": "alice"},
            {"op": "ingest", "stream": "s", "count": 20}
        ],
        "expect": {"grants": 1, "deliveries": [{"tap": "alice", "min": 1}]}
    }"#;

    fn tiny_pack() -> ScenarioPack {
        ScenarioPack::from_json_str(TINY).unwrap()
    }

    #[test]
    fn packs_round_trip_through_json() {
        let pack = tiny_pack();
        assert_eq!(pack.streams[0].fields[1].gen.b, 10.0);
        assert_eq!(pack.script[0].tap, "alice");
        assert_eq!(pack.expect.grants, Some(1));
        let text = pack.to_json_string().unwrap();
        let reloaded = ScenarioPack::from_json_str(&text).unwrap();
        assert_eq!(reloaded, pack);
    }

    /// Pack documents come from outside the program: every malformed one is
    /// an `Err` that names the offending key or value, never a panic.
    #[test]
    fn malformed_documents_are_errors_naming_the_offender() {
        let cases: [(&str, &str, &str, &str); 10] = [
            ("unknown op", r#""op": "ingest""#, r#""op": "teleport""#, "teleport"),
            ("unknown generator", r#""kind": "uniform""#, r#""kind": "gaussian""#, "gaussian"),
            (
                "unknown data type",
                r#""data_type": "double""#,
                r#""data_type": "decimal""#,
                "decimal",
            ),
            ("unknown expect", r#""expect": "grant""#, r#""expect": "maybe""#, "maybe"),
            ("empty range", r#""a": 0, "b": 10"#, r#""a": 10, "b": 10"#, "cannot sample"),
            ("missing generator", r#", "gen": {"kind": "time", "a": 1000}"#, "", "'gen'"),
            ("missing name", r#""name": "tiny","#, "", "no name"),
            ("wrong type: number", r#""seed": 7"#, r#""seed": "seven""#, "'seed'"),
            (
                "wrong type: array",
                r#""visible": ["samplingtime", "a"]"#,
                r#""visible": 3"#,
                "'visible'",
            ),
            (
                "wrong type: string",
                r#""stream": "s", "count""#,
                r#""stream": 5, "count""#,
                "'stream'",
            ),
        ];
        for (what, from, to, names) in cases {
            assert!(TINY.contains(from), "{what}: the fixture lost `{from}`");
            let problem = ScenarioPack::from_json_str(&TINY.replacen(from, to, 1))
                .expect_err(&format!("{what}: accepted"));
            assert!(problem.contains(names), "{what}: `{problem}` does not name {names}");
        }
        // Not JSON at all, and JSON that is not a pack.
        assert!(ScenarioPack::from_json_str("{\"name\": ").is_err());
        assert!(ScenarioPack::from_json_str("[1, 2, 3]").is_err());
        assert!(ScenarioPack::from_json_str("null").is_err());
    }

    #[test]
    fn validation_catches_typos() {
        let mut pack = tiny_pack();
        pack.script.push(ScriptStep::request("bob", "nosuch", "grant"));
        pack.script.push(ScriptStep { op: "teleport".into(), ..ScriptStep::request("", "", "") });
        pack.streams[0].fields[1].data_type = "decimal".into();
        let problems = pack.validate().unwrap_err();
        assert!(problems.iter().any(|p| p.contains("nosuch")));
        assert!(problems.iter().any(|p| p.contains("teleport")));
        assert!(problems.iter().any(|p| p.contains("decimal")));
    }

    #[test]
    fn fanout_stream_must_carry_an_open_policy() {
        let mut pack = tiny_pack();
        pack.policies[0].subject = "alice".into();
        let problems = pack.validate().unwrap_err();
        assert!(problems.iter().any(|p| p.contains("open")));
    }

    #[test]
    fn feeds_are_deterministic_per_seed() {
        let pack = tiny_pack();
        let mut feed_a = SyntheticFeed::new(&pack.streams[0], pack.seed);
        let mut feed_b = SyntheticFeed::new(&pack.streams[0], pack.seed);
        for _ in 0..50 {
            assert_eq!(feed_a.next_tuple(), feed_b.next_tuple());
        }
        // A different seed diverges.
        let mut feed_c = SyntheticFeed::new(&pack.streams[0], pack.seed + 1);
        let same = (0..50).filter(|_| feed_a.next_tuple() == feed_c.next_tuple()).count();
        assert!(same < 50);
    }

    #[test]
    fn feeds_fast_forward_with_skip() {
        let pack = tiny_pack();
        let mut ahead = SyntheticFeed::new(&pack.streams[0], pack.seed);
        ahead.skip(30);
        let mut full = SyntheticFeed::new(&pack.streams[0], pack.seed);
        let _ = full.next_batch(30);
        assert_eq!(ahead.next_tuple(), full.next_tuple());
    }
}
