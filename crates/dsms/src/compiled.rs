//! Deploy-time compiled operators.
//!
//! `Schema::index_of` is a case-insensitive linear scan; the interpreted
//! operators ([`crate::ops`]) perform it once per attribute per tuple, which
//! dominates the per-tuple cost on wide schemas. At deploy time the engine
//! compiles each operator of a validated chain into an index-resolved form so
//! the hot path touches values by position only:
//!
//! * filter conditions become [`CompiledPredicate`] trees whose leaves carry
//!   the value-row index of their attribute;
//! * map projections become a plain `Vec<usize>` of source positions;
//! * aggregation specs carry the source position of their input attribute.
//!
//! Compiled evaluation is semantically identical to the interpreted path
//! (missing attributes and kind mismatches evaluate to `false`), which the
//! unit tests below and the engine's own tests assert.

use crate::error::DsmsError;
use crate::ops::aggregate::AggregateOp;
use crate::ops::filter::FilterOp;
use crate::ops::map::MapOp;
use crate::ops::Operator;
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;
use crate::window::SlidingBuffer;
use exacml_expr::{CmpOp, Expr, Scalar};
use std::sync::Arc;

/// What one subscriber still needs applied *after* a shared operator chain:
/// an optional residual predicate and an optional projection, both expressed
/// against the shared deployment's **output** schema.
///
/// This is the fan-out half of multi-query sharing: when many subscribers'
/// query graphs agree on a common core (typically the policy-mandated
/// chain), the engine deploys the core once and attaches each subscriber
/// through a [`ResidualSpec`] compiled into its resolved form, so the
/// per-tuple cost of the core is paid once regardless of subscriber count.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResidualSpec {
    /// Filter condition evaluated on each core output tuple; `None` passes
    /// everything through.
    pub predicate: Option<Expr>,
    /// Attributes (of the core output schema) the subscriber sees, in
    /// order; `None` delivers the full core output row.
    pub projection: Option<Vec<String>>,
}

impl ResidualSpec {
    /// A residual that forwards every core output tuple unchanged.
    #[must_use]
    pub fn passthrough() -> Self {
        ResidualSpec::default()
    }

    /// Whether this residual does nothing (no predicate, no projection).
    #[must_use]
    pub fn is_passthrough(&self) -> bool {
        self.predicate.is_none() && self.projection.is_none()
    }
}

/// A [`ResidualSpec`] with attribute names resolved against the shared
/// deployment's output schema, applied per subscriber at fan-out time.
#[derive(Debug)]
pub struct CompiledResidual {
    predicate: Option<CompiledPredicate>,
    /// Source positions + projected schema, mirroring a compiled map box.
    mask: Option<(Vec<usize>, Arc<Schema>)>,
}

impl CompiledResidual {
    /// Resolve a residual spec against the core output schema. Predicate
    /// leaves naming missing attributes compile to constant `false` (the
    /// interpreted filter semantics); a projection naming a missing
    /// attribute is an error, exactly like deploying a map box would be.
    pub(crate) fn compile(
        spec: &ResidualSpec,
        schema: &Schema,
    ) -> Result<CompiledResidual, DsmsError> {
        let predicate = spec.predicate.as_ref().map(|e| CompiledPredicate::compile(e, schema));
        let mask = match &spec.projection {
            Some(attrs) => {
                let map = MapOp::new(attrs.clone());
                let projected = map.output_schema(schema)?.shared();
                let indices = attrs
                    .iter()
                    .map(|attr| {
                        schema
                            .index_of(attr)
                            .expect("output_schema validated every projected attribute")
                    })
                    .collect();
                Some((indices, projected))
            }
            None => None,
        };
        Ok(CompiledResidual { predicate, mask })
    }

    /// The subscriber-visible schema when the residual projects; `None`
    /// means the subscriber sees the core output schema unchanged.
    pub(crate) fn masked_schema(&self) -> Option<&Arc<Schema>> {
        self.mask.as_ref().map(|(_, schema)| schema)
    }

    /// Apply the residual to one core output tuple: `None` when the
    /// predicate rejects it, otherwise the (possibly projected) tuple.
    pub(crate) fn apply(&self, tuple: &Tuple) -> Option<Tuple> {
        if let Some(pred) = &self.predicate {
            if !pred.matches(tuple.values()) {
                return None;
            }
        }
        match &self.mask {
            Some((indices, schema)) => {
                let values: Arc<[Value]> =
                    indices.iter().map(|&i| tuple.values()[i].clone()).collect();
                Some(Tuple::from_trusted_parts(Arc::clone(schema), values))
            }
            None => Some(tuple.clone()),
        }
    }
}

/// A filter condition with every attribute resolved to a value-row index.
#[derive(Debug, Clone)]
pub(crate) enum CompiledPredicate {
    /// Constant truth (also the compilation of a leaf over a missing
    /// attribute, which the interpreted evaluator treats as `false`).
    Const(bool),
    /// A leaf comparison `values[index] op literal`.
    Cmp {
        index: usize,
        op: CmpOp,
        literal: Scalar,
    },
    Not(Box<CompiledPredicate>),
    And(Box<CompiledPredicate>, Box<CompiledPredicate>),
    Or(Box<CompiledPredicate>, Box<CompiledPredicate>),
}

impl CompiledPredicate {
    /// Resolve every attribute of `expr` against `input`. Leaves naming an
    /// attribute the schema lacks compile to constant `false`, matching
    /// `eval_simple`'s missing-attribute semantics.
    pub(crate) fn compile(expr: &Expr, input: &Schema) -> CompiledPredicate {
        match expr {
            Expr::True => CompiledPredicate::Const(true),
            Expr::False => CompiledPredicate::Const(false),
            Expr::Simple(s) => match input.index_of(&s.attr) {
                Some(index) => CompiledPredicate::Cmp { index, op: s.op, literal: s.value.clone() },
                None => CompiledPredicate::Const(false),
            },
            Expr::Not(inner) => {
                CompiledPredicate::Not(Box::new(CompiledPredicate::compile(inner, input)))
            }
            Expr::And(a, b) => CompiledPredicate::And(
                Box::new(CompiledPredicate::compile(a, input)),
                Box::new(CompiledPredicate::compile(b, input)),
            ),
            Expr::Or(a, b) => CompiledPredicate::Or(
                Box::new(CompiledPredicate::compile(a, input)),
                Box::new(CompiledPredicate::compile(b, input)),
            ),
        }
    }

    /// Evaluate against a value row, without name lookups or allocation.
    pub(crate) fn matches(&self, values: &[Value]) -> bool {
        match self {
            CompiledPredicate::Const(b) => *b,
            CompiledPredicate::Cmp { index, op, literal } => {
                compare_value(&values[*index], *op, literal)
            }
            CompiledPredicate::Not(inner) => !inner.matches(values),
            CompiledPredicate::And(a, b) => a.matches(values) && b.matches(values),
            CompiledPredicate::Or(a, b) => a.matches(values) || b.matches(values),
        }
    }
}

/// Compare a tuple value against a literal, mirroring
/// `Value::to_scalar` + `exacml_expr::eval::compare` without the string
/// clone `to_scalar` pays for text values.
fn compare_value(value: &Value, op: CmpOp, literal: &Scalar) -> bool {
    match literal {
        Scalar::Number(n) => match value.as_f64() {
            Some(x) => x.partial_cmp(n).is_some_and(|ord| op.apply_ord(ord)),
            None => false,
        },
        Scalar::Text(s) => match value.as_str() {
            Some(x) => op.apply_ord(x.cmp(s.as_str())),
            None => false,
        },
    }
}

/// One operator of a deployed chain, with attribute resolution done.
#[derive(Debug, Clone)]
pub(crate) enum CompiledOp {
    Filter(CompiledPredicate),
    /// Source positions of the projected attributes, in output order.
    Map(Vec<usize>),
    /// The aggregation operator plus the source position of each spec's
    /// input attribute.
    Aggregate {
        op: AggregateOp,
        source_indices: Vec<usize>,
    },
}

/// A compiled stage: the operator plus its output schema and (for
/// aggregations) the window buffer.
#[derive(Debug, Clone)]
pub(crate) struct CompiledStage {
    pub(crate) op: CompiledOp,
    pub(crate) output_schema: Arc<Schema>,
    pub(crate) window: Option<SlidingBuffer>,
}

impl CompiledStage {
    /// Compile one validated operator against its input schema.
    ///
    /// The caller must have run `Operator::validate` (deploy does): every
    /// attribute the operator names is assumed present in `input`.
    pub(crate) fn compile(
        operator: &Operator,
        input: &Schema,
        output_schema: Arc<Schema>,
    ) -> CompiledStage {
        let op = match operator {
            Operator::Filter(f) => compile_filter(f, input),
            Operator::Map(m) => compile_map(m, input),
            Operator::Aggregate(a) => compile_aggregate(a, input),
        };
        let window = match operator {
            Operator::Aggregate(a) => Some(SlidingBuffer::new(a.window)),
            _ => None,
        };
        CompiledStage { op, output_schema, window }
    }

    /// Run one input tuple through the stage, appending derived tuples to
    /// `out`. Filters forward the tuple untouched (a cheap `Arc` clone);
    /// maps build a new row by position; aggregations feed the window buffer
    /// and emit one tuple per closed window.
    pub(crate) fn process(&mut self, tuple: &Tuple, out: &mut Vec<Tuple>) {
        match &self.op {
            CompiledOp::Filter(pred) => {
                if pred.matches(tuple.values()) {
                    out.push(tuple.clone());
                }
            }
            CompiledOp::Map(indices) => {
                let values: Arc<[Value]> =
                    indices.iter().map(|&i| tuple.values()[i].clone()).collect();
                out.push(Tuple::from_trusted_parts(Arc::clone(&self.output_schema), values));
            }
            CompiledOp::Aggregate { op, source_indices } => {
                let buffer =
                    self.window.as_mut().expect("aggregate stages always carry a window buffer");
                let output_schema = &self.output_schema;
                buffer.push_visit(tuple.clone(), |window| {
                    let values: Arc<[Value]> = op
                        .specs
                        .iter()
                        .zip(source_indices.iter())
                        .map(|(spec, &idx)| compute_indexed(spec.function, window, idx))
                        .collect();
                    out.push(Tuple::from_trusted_parts(Arc::clone(output_schema), values));
                });
            }
        }
    }
}

/// Compute one aggregate over a window column addressed by position, without
/// materializing the column. Mirrors `AggFunc::compute` applied to the fully
/// collected column (which the compiled-vs-interpreted tests assert).
fn compute_indexed(func: crate::ops::aggregate::AggFunc, window: &[Tuple], idx: usize) -> Value {
    use crate::ops::aggregate::AggFunc;
    let column = || window.iter().map(|t| &t.values()[idx]);
    match func {
        AggFunc::Count => Value::Int(window.len() as i64),
        AggFunc::LastValue => window.last().map_or(Value::Null, |t| t.values()[idx].clone()),
        AggFunc::FirstValue => window.first().map_or(Value::Null, |t| t.values()[idx].clone()),
        AggFunc::Sum => Value::Double(column().filter_map(Value::as_f64).sum::<f64>()),
        AggFunc::Avg => {
            let (mut sum, mut n) = (0.0f64, 0u64);
            for x in column().filter_map(Value::as_f64) {
                sum += x;
                n += 1;
            }
            if n == 0 {
                Value::Null
            } else {
                Value::Double(sum / n as f64)
            }
        }
        AggFunc::Stddev => {
            let (mut sum, mut n) = (0.0f64, 0u64);
            for x in column().filter_map(Value::as_f64) {
                sum += x;
                n += 1;
            }
            if n == 0 {
                return Value::Null;
            }
            let mean = sum / n as f64;
            let var =
                column().filter_map(Value::as_f64).map(|x| (x - mean) * (x - mean)).sum::<f64>()
                    / n as f64;
            Value::Double(var.sqrt())
        }
        AggFunc::Max => best_indexed(window, idx, |a, b| a > b),
        AggFunc::Min => best_indexed(window, idx, |a, b| a < b),
    }
}

/// The extremal numeric value of a window column; falls back to the first
/// value for non-numeric columns — identical to the interpreted `best_by`.
fn best_indexed(window: &[Tuple], idx: usize, better: impl Fn(f64, f64) -> bool) -> Value {
    let mut best: Option<(f64, &Value)> = None;
    for t in window {
        let v = &t.values()[idx];
        if let Some(x) = v.as_f64() {
            match best {
                Some((cur, _)) if !better(x, cur) => {}
                _ => best = Some((x, v)),
            }
        }
    }
    match best {
        Some((_, v)) => v.clone(),
        None => window.first().map_or(Value::Null, |t| t.values()[idx].clone()),
    }
}

/// Fuse adjacent stages of a compiled chain. Two rewrites, both pure index
/// composition:
///
/// * `Map → Map` becomes one `Map` whose positions are composed;
/// * `Map → Aggregate(tuple window)` becomes one `Aggregate` reading the
///   map's source positions directly, so the hot path never materializes the
///   projected intermediate tuple (the window buffers the upstream tuple
///   instead — *tuple*-based window arithmetic depends only on the tuple
///   count, which projection does not change).
///
/// `Map → Aggregate(time window)` is deliberately **not** fused: time
/// windows read the tuple's timestamp field, and a projection may remove or
/// reorder it — tuples without a timestamp are dropped from time windows, so
/// buffering the (timestamp-bearing) upstream tuple would change which
/// windows close.
pub(crate) fn fuse_stages(stages: Vec<CompiledStage>) -> Vec<CompiledStage> {
    let mut fused: Vec<CompiledStage> = Vec::with_capacity(stages.len());
    for stage in stages {
        if let Some(prev) = fused.last() {
            if let CompiledOp::Map(map_indices) = &prev.op {
                match &stage.op {
                    CompiledOp::Map(indices) => {
                        let composed = indices.iter().map(|&i| map_indices[i]).collect();
                        fused.pop();
                        fused.push(CompiledStage {
                            op: CompiledOp::Map(composed),
                            output_schema: stage.output_schema,
                            window: None,
                        });
                        continue;
                    }
                    CompiledOp::Aggregate { op, source_indices }
                        if op.window.kind == crate::window::WindowKind::Tuple =>
                    {
                        let composed = source_indices.iter().map(|&i| map_indices[i]).collect();
                        let op = op.clone();
                        fused.pop();
                        fused.push(CompiledStage {
                            op: CompiledOp::Aggregate { op, source_indices: composed },
                            output_schema: stage.output_schema,
                            window: stage.window,
                        });
                        continue;
                    }
                    _ => {}
                }
            }
        }
        fused.push(stage);
    }
    fused
}

fn compile_filter(op: &FilterOp, input: &Schema) -> CompiledOp {
    CompiledOp::Filter(CompiledPredicate::compile(op.condition(), input))
}

fn compile_map(op: &MapOp, input: &Schema) -> CompiledOp {
    let indices = op.attributes().iter().filter_map(|attr| input.index_of(attr)).collect();
    CompiledOp::Map(indices)
}

fn compile_aggregate(op: &AggregateOp, input: &Schema) -> CompiledOp {
    let source_indices = op
        .specs
        .iter()
        .map(|spec| {
            input
                .index_of(&spec.attribute)
                .expect("aggregate specs are validated against the input schema before compiling")
        })
        .collect();
    CompiledOp::Aggregate { op: op.clone(), source_indices }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType;
    use exacml_expr::{eval::eval, parse_expr};

    fn schema() -> Schema {
        Schema::from_pairs([("a", DataType::Double), ("b", DataType::Int), ("s", DataType::Text)])
    }

    fn tuple(a: f64, b: i64, s: &str) -> Tuple {
        Tuple::builder(&schema()).set("a", a).set("b", b).set("s", s).finish().unwrap()
    }

    #[test]
    fn compiled_predicate_agrees_with_interpreted_eval() {
        let conditions = [
            "a > 1",
            "a > 1 AND b < 5",
            "NOT (a > 1)",
            "a > 1 OR s = 'x'",
            "s != 'x'",
            "TRUE",
            "FALSE",
            "NOT (missing > 3)",
            "missing > 3",
            "s > 2",   // kind mismatch: text value vs number literal
            "a = 'x'", // kind mismatch: number value vs text literal
        ];
        let tuples = [tuple(0.5, 3, "x"), tuple(2.0, 7, "y"), tuple(1.0, 5, "")];
        for cond in conditions {
            let expr = parse_expr(cond).unwrap();
            let compiled = CompiledPredicate::compile(&expr, &schema());
            for t in &tuples {
                assert_eq!(
                    compiled.matches(t.values()),
                    eval(&expr, t),
                    "compiled and interpreted evaluation disagree on `{cond}` for {t}"
                );
            }
        }
    }

    #[test]
    fn compiled_map_projects_by_position() {
        let op = MapOp::new(["s", "a"]);
        let out_schema = op.output_schema(&schema()).unwrap().shared();
        let mut stage =
            CompiledStage::compile(&Operator::Map(op), &schema(), Arc::clone(&out_schema));
        let mut out = Vec::new();
        stage.process(&tuple(1.5, 2, "hello"), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].schema().field_names(), vec!["s", "a"]);
        assert_eq!(out[0].get("s").unwrap().as_str(), Some("hello"));
        assert_eq!(out[0].get_f64("a"), Some(1.5));
    }

    #[test]
    fn residual_applies_predicate_then_projection() {
        let spec = ResidualSpec {
            predicate: Some(parse_expr("a > 1").unwrap()),
            projection: Some(vec!["s".to_string(), "b".to_string()]),
        };
        let residual = CompiledResidual::compile(&spec, &schema()).unwrap();
        assert_eq!(residual.masked_schema().unwrap().field_names(), vec!["s", "b"]);

        assert!(residual.apply(&tuple(0.5, 3, "x")).is_none());
        let out = residual.apply(&tuple(2.0, 7, "y")).unwrap();
        assert_eq!(out.schema().field_names(), vec!["s", "b"]);
        assert_eq!(out.get("s").unwrap().as_str(), Some("y"));
        assert_eq!(out.get_f64("b"), Some(7.0));
    }

    #[test]
    fn passthrough_residual_forwards_unchanged() {
        let spec = ResidualSpec::passthrough();
        assert!(spec.is_passthrough());
        let residual = CompiledResidual::compile(&spec, &schema()).unwrap();
        assert!(residual.masked_schema().is_none());
        let t = tuple(1.0, 2, "z");
        assert_eq!(residual.apply(&t), Some(t));
    }

    #[test]
    fn residual_projection_of_missing_attribute_is_an_error() {
        let spec = ResidualSpec { predicate: None, projection: Some(vec!["bogus".to_string()]) };
        assert!(matches!(
            CompiledResidual::compile(&spec, &schema()),
            Err(DsmsError::UnknownAttribute { .. })
        ));
        // A *predicate* over a missing attribute compiles to constant false,
        // matching the interpreted filter semantics.
        let spec =
            ResidualSpec { predicate: Some(parse_expr("bogus > 1").unwrap()), projection: None };
        let residual = CompiledResidual::compile(&spec, &schema()).unwrap();
        assert!(residual.apply(&tuple(9.0, 9, "x")).is_none());
    }

    /// A filter→map chain, compiled and fused the way `StreamEngine::deploy`
    /// does it, emits tuple for tuple what the name-resolving
    /// `FilterOp::apply` / `MapOp::apply` pair emits.
    #[test]
    fn compiled_filter_map_chain_matches_interpreted_apply() {
        let filter = FilterOp::new(parse_expr("a > 50").unwrap());
        let map = MapOp::new(["s", "a"]);
        let out_schema = map.output_schema(&schema()).unwrap().shared();
        let mut stages = fuse_stages(vec![
            CompiledStage::compile(&Operator::Filter(filter.clone()), &schema(), schema().shared()),
            CompiledStage::compile(&Operator::Map(map.clone()), &schema(), Arc::clone(&out_schema)),
        ]);

        let mut emitted = 0;
        for i in 0..200 {
            let t = tuple(f64::from(i % 100), i64::from(i), "x");
            let mut compiled_out = vec![t.clone()];
            for stage in &mut stages {
                let mut next = Vec::new();
                for t in &compiled_out {
                    stage.process(t, &mut next);
                }
                compiled_out = next;
            }
            let interpreted_out: Vec<Tuple> =
                filter.apply(t).map(|t| map.apply(&t, &out_schema)).into_iter().collect();
            assert_eq!(compiled_out, interpreted_out, "divergence at tuple {i}");
            emitted += compiled_out.len();
        }
        assert_eq!(emitted, 98, "49 of every 100 tuples pass `a > 50`");
    }

    #[test]
    fn compiled_aggregate_matches_interpreted_apply() {
        use crate::ops::aggregate::{AggFunc, AggSpec};
        use crate::window::WindowSpec;
        let op = AggregateOp::new(
            WindowSpec::tuples(3, 2),
            vec![AggSpec::new("a", AggFunc::Avg), AggSpec::new("b", AggFunc::Max)],
        );
        let out_schema = op.output_schema(&schema()).unwrap().shared();

        let mut compiled = CompiledStage::compile(
            &Operator::Aggregate(op.clone()),
            &schema(),
            Arc::clone(&out_schema),
        );
        let mut interpreted_buffer = SlidingBuffer::new(op.window);

        for i in 0..8 {
            let t = tuple(f64::from(i), i64::from(i * 2), "x");
            let mut compiled_out = Vec::new();
            compiled.process(&t, &mut compiled_out);
            let interpreted_out = op.apply(&mut interpreted_buffer, t, &out_schema);
            assert_eq!(compiled_out, interpreted_out, "divergence at tuple {i}");
        }
    }
}
