//! Deploy-time compiled operators.
//!
//! `Schema::index_of` is a case-insensitive linear scan; the interpreted
//! operators ([`crate::ops`]) perform it once per attribute per tuple, which
//! dominates the per-tuple cost on wide schemas. At deploy time the engine
//! compiles each operator of a validated chain into an index-resolved form so
//! the hot path touches values by position only:
//!
//! * filter conditions become [`CompiledPredicate`] trees whose leaves carry
//!   the value-row index of their attribute, evaluated a whole batch at a
//!   time ([`CompiledPredicate::select`]) over numeric column views
//!   ([`Columns`]) that every predicate reading the same batch shares — on
//!   a source batch, every deployment of the stream;
//! * map projections become a plain `Vec<usize>` of source positions;
//! * aggregation specs carry the source position of their input attribute.
//!
//! Filters move no rows. A filter stage refines a [`Selection`] over the
//! batch it reads; maps and aggregations read the selected rows by
//! position; a residual rider ANDs its own flags into the chain's. Flags
//! become positions in one branch-free pass ([`compact`]), and a row is
//! cloned only when it is delivered ([`gather`]).
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
    /// Whether this residual does nothing (no predicate, no projection).
    #[must_use]
    pub fn is_passthrough(&self) -> bool {
        self.predicate.is_none() && self.projection.is_none()
    }
}

/// A [`ResidualSpec`] with attribute names resolved against the shared
/// deployment's output schema, applied per subscriber at fan-out time.
#[derive(Debug)]
pub(crate) struct CompiledResidual {
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

    /// What this rider receives of one batch of core output tuples: of the
    /// rows `chain` selects (every row when `None`), those its predicate
    /// also accepts, each cloned or projected, in order. The predicate reads
    /// the batch's shared column cache; `scratch` holds its flags.
    pub(crate) fn apply(
        &self,
        columns: &mut Columns<'_>,
        chain: Option<Picked<'_>>,
        scratch: &mut Selection,
    ) -> Vec<Tuple> {
        let rows = columns.rows;
        let Some(predicate) = &self.predicate else {
            return gather(rows, chain.map(|c| c.positions), |tuple| self.project(tuple));
        };
        scratch.reset();
        scratch.filter(predicate, columns);
        if let Some(chain) = chain {
            scratch.intersect(chain.flags);
        }
        gather(rows, scratch.settle().map(|p| p.positions), |tuple| self.project(tuple))
    }

    /// One selected row as this rider sees it.
    fn project(&self, tuple: &Tuple) -> Tuple {
        match &self.mask {
            Some((indices, schema)) => {
                let values = indices.iter().map(|&i| tuple.values()[i].clone()).collect();
                Tuple::from_trusted_parts(Arc::clone(schema), values)
            }
            None => tuple.clone(),
        }
    }
}

/// The positions of the set flags, in order, into `positions`. Every
/// position is written and the cursor advances by the flag, so the loop has
/// no data-dependent branch: a half-selective predicate costs no
/// misprediction per row (Ross, "Selection Conditions in Main Memory",
/// TODS 2004).
pub(crate) fn compact(keep: &[bool], positions: &mut Vec<usize>) {
    positions.clear();
    positions.resize(keep.len(), 0);
    let mut m = 0;
    for (i, &k) in keep.iter().enumerate() {
        positions[m] = i;
        m += usize::from(k);
    }
    positions.truncate(m);
}

/// The rows at `positions` (every row when `None`), each through `deliver`,
/// in order: the one place a selection becomes owned rows. The result is
/// what a subscriber is sent. It stays a `Vec<Tuple>` because consumers
/// drain a `Vec<Tuple>`: a shared batch type would only move this clone
/// from the push to the drain.
pub(crate) fn gather(
    rows: &[Tuple],
    positions: Option<&[usize]>,
    deliver: impl Fn(&Tuple) -> Tuple,
) -> Vec<Tuple> {
    match positions {
        None => rows.iter().map(deliver).collect(),
        Some(positions) => positions.iter().map(|&i| deliver(&rows[i])).collect(),
    }
}

/// Visit the rows `selection` keeps, in order.
fn for_each_kept(rows: &[Tuple], selection: &mut Selection, mut visit: impl FnMut(&Tuple)) {
    match selection.settle() {
        None => rows.iter().for_each(visit),
        Some(picked) => picked.positions.iter().for_each(|&i| visit(&rows[i])),
    }
}

/// Which rows of a batch a chain has kept: every row until a filter runs,
/// then the rows whose flag every filter since has set. The buffers are
/// kept between batches.
#[derive(Debug, Default)]
pub(crate) struct Selection {
    filtered: bool,
    flags: Vec<bool>,
    positions: Vec<usize>,
}

/// A settled [`Selection`]: its flags and the same rows as positions.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Picked<'a> {
    pub(crate) flags: &'a [bool],
    pub(crate) positions: &'a [usize],
}

impl Selection {
    /// Select every row of a new batch.
    pub(crate) fn reset(&mut self) {
        self.filtered = false;
    }

    /// Keep only the rows `predicate` also accepts.
    fn filter(&mut self, predicate: &CompiledPredicate, columns: &mut Columns<'_>) {
        if self.filtered {
            self.intersect(&predicate.select(columns));
        } else {
            predicate.select_into(columns, &mut self.flags);
            self.filtered = true;
        }
    }

    /// Keep only the rows `flags` also sets.
    fn intersect(&mut self, flags: &[bool]) {
        self.flags.iter_mut().zip(flags).for_each(|(k, &f)| *k &= f);
    }

    /// The kept rows as flags and positions; `None` when every row is kept.
    pub(crate) fn settle(&mut self) -> Option<Picked<'_>> {
        if !self.filtered {
            return None;
        }
        compact(&self.flags, &mut self.positions);
        Some(Picked { flags: &self.flags, positions: &self.positions })
    }
}

/// One batch seen column-wise: a lazily filled `f64` view of every
/// attribute position a predicate over the batch compares with a number
/// (`NaN` where the value is `Text` or `Null`, which no comparison
/// accepts). Every predicate evaluated over the same batch shares one
/// cache, so each column is read once per batch: on a source batch that is
/// every filter and residual rider of every deployment on the stream.
pub(crate) struct Columns<'a> {
    rows: &'a [Tuple],
    /// `(attribute position, view)`: this batch's views are the first
    /// `live`; the rest are buffers of earlier batches, filled again before
    /// anything is allocated.
    numeric: Vec<(usize, Vec<f64>)>,
    live: usize,
}

/// The buffers of a [`Columns`] between batches: a stream shard keeps one,
/// so its pushes allocate no column view once it has warmed up.
#[derive(Default)]
pub(crate) struct ColumnBuffers(Vec<(usize, Vec<f64>)>);

impl<'a> Columns<'a> {
    pub(crate) fn new(rows: &'a [Tuple]) -> Self {
        Columns::reusing(rows, ColumnBuffers::default())
    }

    /// A cache over `rows` that builds its views in `buffers`.
    pub(crate) fn reusing(rows: &'a [Tuple], buffers: ColumnBuffers) -> Self {
        Columns { rows, numeric: buffers.0, live: 0 }
    }

    /// The buffers, for the next batch.
    pub(crate) fn into_buffers(self) -> ColumnBuffers {
        ColumnBuffers(self.numeric)
    }

    /// The rows the views are built from.
    pub(crate) fn rows(&self) -> &'a [Tuple] {
        self.rows
    }

    /// The numeric view of the values at `index`, built on first use.
    fn numeric(&mut self, index: usize) -> &[f64] {
        let at = match self.numeric[..self.live].iter().position(|(i, _)| *i == index) {
            Some(at) => at,
            None => {
                if self.live == self.numeric.len() {
                    self.numeric.push((index, Vec::new()));
                }
                let (at, column) = &mut self.numeric[self.live];
                *at = index;
                column.clear();
                column.extend(
                    self.rows
                        .iter()
                        .map(|tuple| tuple.values()[index].as_f64().unwrap_or(f64::NAN)),
                );
                self.live += 1;
                self.live - 1
            }
        };
        &self.numeric[at].1
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

    /// Evaluate over a whole batch: one flag per row of `columns`, `true`
    /// where [`CompiledPredicate::matches`] would accept the row. Number
    /// leaves are one tight loop over the cached column; text leaves, which
    /// no numeric view can answer, fall back to `matches` row by row.
    pub(crate) fn select(&self, columns: &mut Columns<'_>) -> Vec<bool> {
        let mut keep = Vec::new();
        self.select_into(columns, &mut keep);
        keep
    }

    /// [`CompiledPredicate::select`] into `keep`'s buffer: a single leaf,
    /// or the left operand of a connective, allocates nothing.
    fn select_into(&self, columns: &mut Columns<'_>, keep: &mut Vec<bool>) {
        keep.clear();
        match self {
            CompiledPredicate::Const(b) => keep.resize(columns.rows.len(), *b),
            CompiledPredicate::Cmp { index, op, literal: Scalar::Number(n) } => {
                select_numeric(columns.numeric(*index), *op, *n, keep);
            }
            CompiledPredicate::Cmp { .. } => {
                keep.extend(columns.rows.iter().map(|tuple| self.matches(tuple.values())));
            }
            CompiledPredicate::Not(inner) => {
                inner.select_into(columns, keep);
                keep.iter_mut().for_each(|k| *k = !*k);
            }
            CompiledPredicate::And(a, b) => {
                a.select_into(columns, keep);
                keep.iter_mut().zip(b.select(columns)).for_each(|(k, r)| *k &= r);
            }
            CompiledPredicate::Or(a, b) => {
                a.select_into(columns, keep);
                keep.iter_mut().zip(b.select(columns)).for_each(|(k, r)| *k |= r);
            }
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

/// One number leaf over a column. A `NaN` on either side fails every
/// operator, as `partial_cmp` does in [`compare_value`]; for `!=` that
/// takes the explicit guard, since `NaN != n` is `true` in IEEE arithmetic.
fn select_numeric(column: &[f64], op: CmpOp, n: f64, keep: &mut Vec<bool>) {
    match op {
        CmpOp::Lt => keep.extend(column.iter().map(|&x| x < n)),
        CmpOp::Gt => keep.extend(column.iter().map(|&x| x > n)),
        CmpOp::Le => keep.extend(column.iter().map(|&x| x <= n)),
        CmpOp::Ge => keep.extend(column.iter().map(|&x| x >= n)),
        CmpOp::Eq => keep.extend(column.iter().map(|&x| x == n)),
        CmpOp::Ne => keep.extend(column.iter().map(|&x| !x.is_nan() && !n.is_nan() && x != n)),
    }
}

/// Compare a tuple value against a literal, mirroring
/// `Value::to_scalar` + `exacml_expr::eval`'s comparison without the string
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

    /// Run the stage over the rows of `columns` that `selection` keeps. A
    /// filter evaluates its predicate once over the whole batch
    /// ([`CompiledPredicate::select`]) and only refines `selection`: no row
    /// moves, and it returns `false`. A map builds a new row by position per
    /// selected row; an aggregation feeds the selected rows to the window
    /// buffer one by one and emits one row per closed window. Both append
    /// to `out` in order and return `true`: `out` is the next stage's batch.
    pub(crate) fn process_batch(
        &mut self,
        columns: &mut Columns<'_>,
        selection: &mut Selection,
        out: &mut Vec<Tuple>,
    ) -> bool {
        let rows = columns.rows;
        match &self.op {
            CompiledOp::Filter(pred) => {
                selection.filter(pred, columns);
                return false;
            }
            CompiledOp::Map(indices) => {
                for_each_kept(rows, selection, |tuple| {
                    let values = indices.iter().map(|&i| tuple.values()[i].clone()).collect();
                    out.push(Tuple::from_trusted_parts(Arc::clone(&self.output_schema), values));
                });
            }
            CompiledOp::Aggregate { op, source_indices } => {
                let buffer =
                    self.window.as_mut().expect("aggregate stages always carry a window buffer");
                let output_schema = &self.output_schema;
                for_each_kept(rows, selection, |tuple| {
                    buffer.push_visit(tuple.clone(), |window| {
                        let values = op
                            .specs
                            .iter()
                            .zip(source_indices.iter())
                            .map(|(spec, &idx)| compute_indexed(spec.function, window, idx))
                            .collect();
                        out.push(Tuple::from_trusted_parts(Arc::clone(output_schema), values));
                    });
                });
            }
        }
        selection.reset();
        true
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
    use exacml_expr::{eval, parse_expr};
    use rand::{Rng, SeedableRng};

    fn schema() -> Schema {
        Schema::from_pairs([("a", DataType::Double), ("b", DataType::Int), ("s", DataType::Text)])
    }

    fn tuple(a: f64, b: i64, s: &str) -> Tuple {
        Tuple::builder(&schema()).set("a", a).set("b", b).set("s", s).finish().unwrap()
    }

    impl CompiledStage {
        /// One tuple through the stage, as a batch of one: what a map or an
        /// aggregation derives, or the row itself when a filter keeps it.
        fn process(&mut self, tuple: &Tuple, out: &mut Vec<Tuple>) {
            let rows = std::slice::from_ref(tuple);
            let mut selection = Selection::default();
            if !self.process_batch(&mut Columns::new(rows), &mut selection, out) {
                let kept = selection.settle().map(|p| p.positions);
                out.extend(gather(rows, kept, Tuple::clone));
            }
        }
    }

    impl CompiledResidual {
        /// What the rider receives of a batch of one.
        fn apply_one(&self, tuple: &Tuple) -> Option<Tuple> {
            let rows = std::slice::from_ref(tuple);
            self.apply(&mut Columns::new(rows), None, &mut Selection::default()).pop()
        }
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

    /// The batch evaluator and the row evaluator agree on every leaf kind
    /// the numeric column view cannot answer alone: text literals, constant
    /// leaves, leaves over a missing attribute, and `!=` against a `NaN` or
    /// `Null` value (which `matches` rejects but IEEE `!=` would accept).
    #[test]
    fn select_agrees_with_matches_row_by_row() {
        let shared = schema().shared();
        let null_row = Tuple::new(Arc::clone(&shared), vec![Value::Null; 3]).unwrap();
        let rows = [
            tuple(0.5, 3, "x"),
            tuple(f64::NAN, 1, "y"),
            tuple(1.0, 5, ""),
            null_row,
            tuple(-2.0, 0, "x"),
        ];
        let conditions = [
            "s = 'x'",
            "s != 'x'",
            "NOT (s = 'y') AND a > 0",
            "TRUE",
            "FALSE",
            "NOT FALSE",
            "missing > 3",
            "missing != 3",
            "NOT (missing = 3) OR s = 'x'",
            "a != 1",
            "b != 3",
            "NOT (a != 0.5)",
            "nosuch != 1 OR b != 5",
            "s != 2",
            "a != 'x'",
            "a >= -2 AND a <= 1",
        ];
        for cond in conditions {
            let Ok(expr) = parse_expr(cond) else { panic!("`{cond}` does not parse") };
            let compiled = CompiledPredicate::compile(&expr, &schema());
            let keep = compiled.select(&mut Columns::new(&rows));
            let by_row: Vec<bool> = rows.iter().map(|t| compiled.matches(t.values())).collect();
            let interpreted: Vec<bool> = rows.iter().map(|t| eval(&expr, t)).collect();
            assert_eq!(keep, by_row, "select and matches disagree on `{cond}`");
            assert_eq!(keep, interpreted, "select and eval disagree on `{cond}`");
        }
    }

    #[test]
    fn riders_of_one_batch_share_its_column_cache() {
        let rows: Vec<Tuple> = (0..6).map(|i| tuple(f64::from(i), i64::from(i), "x")).collect();
        let mut columns = Columns::new(&rows);
        let over = |cond: &str| {
            let spec =
                ResidualSpec { predicate: Some(parse_expr(cond).unwrap()), projection: None };
            CompiledResidual::compile(&spec, &schema()).unwrap()
        };
        let mut scratch = Selection::default();
        assert_eq!(over("a > 3").apply(&mut columns, None, &mut scratch), rows[4..].to_vec());
        assert_eq!(
            over("a < 2 OR b = 5").apply(&mut columns, None, &mut scratch),
            vec![rows[0].clone(), rows[1].clone(), rows[5].clone()]
        );
        assert_eq!(columns.live, 2, "one cached view per column read");
    }

    /// A rider of a filter chain receives the rows both the chain and its
    /// own predicate select, read from the one cache the chain filled.
    #[test]
    fn a_rider_refines_the_chain_selection_over_the_shared_columns() {
        let rows: Vec<Tuple> = (0..8).map(|i| tuple(f64::from(i), i64::from(i), "x")).collect();
        let mut columns = Columns::new(&rows);
        let mut filter = CompiledStage::compile(
            &Operator::Filter(FilterOp::new(parse_expr("a >= 2").unwrap())),
            &schema(),
            schema().shared(),
        );
        let mut selection = Selection::default();
        assert!(!filter.process_batch(&mut columns, &mut selection, &mut Vec::new()));
        let spec = ResidualSpec {
            predicate: Some(parse_expr("a < 6 AND b != 3").unwrap()),
            projection: Some(vec!["b".to_string()]),
        };
        let rider = CompiledResidual::compile(&spec, &schema()).unwrap();
        let got = rider.apply(&mut columns, selection.settle(), &mut Selection::default());
        let ids: Vec<f64> = got.iter().map(|t| t.get_f64("b").unwrap()).collect();
        assert_eq!(ids, vec![2.0, 4.0, 5.0]);
        assert_eq!(columns.live, 2, "the rider reuses the chain's view of `a`");
    }

    #[test]
    fn compaction_lists_the_set_flags_in_order() {
        let reference = |keep: &[bool]| -> Vec<usize> {
            keep.iter().enumerate().filter(|(_, &k)| k).map(|(i, _)| i).collect()
        };
        let alternating: Vec<bool> = (0..9).map(|i| i % 2 == 0).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let cases = [
            Vec::new(),
            vec![true; 7],
            vec![false; 7],
            alternating,
            (0..256).map(|_| rng.gen_bool(0.5)).collect(),
        ];
        // One buffer across cases: a longer earlier result must not leak.
        let mut positions = vec![99; 300];
        for keep in &cases {
            compact(keep, &mut positions);
            assert_eq!(positions, reference(keep), "flags {keep:?}");
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

        assert!(residual.apply_one(&tuple(0.5, 3, "x")).is_none());
        let out = residual.apply_one(&tuple(2.0, 7, "y")).unwrap();
        assert_eq!(out.schema().field_names(), vec!["s", "b"]);
        assert_eq!(out.get("s").unwrap().as_str(), Some("y"));
        assert_eq!(out.get_f64("b"), Some(7.0));
    }

    #[test]
    fn passthrough_residual_forwards_unchanged() {
        let spec = ResidualSpec::default();
        assert!(spec.is_passthrough());
        let residual = CompiledResidual::compile(&spec, &schema()).unwrap();
        assert!(residual.masked_schema().is_none());
        let t = tuple(1.0, 2, "z");
        assert_eq!(residual.apply_one(&t), Some(t));
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
        assert!(residual.apply_one(&tuple(9.0, 9, "x")).is_none());
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
