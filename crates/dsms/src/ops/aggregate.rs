//! The window-based aggregation box.
//!
//! A window-based aggregation operator consists of a sliding window
//! specification (type, size, advance step) and a list of
//! `attribute:aggregate-function` pairs (Section 2.2). For every window that
//! closes, one output tuple is produced whose fields are named
//! `<function><attribute>` — matching the StreamSQL the paper shows in
//! Figure 4(b) (`avg(rainrate) AS avgrainrate`).

use crate::error::DsmsError;
use crate::schema::{Field, Schema};
use crate::tuple::Tuple;
use crate::value::{DataType, Value};
use crate::window::{SlidingBuffer, WindowSpec};
use std::fmt;
use std::sync::Arc;

/// The aggregate functions supported by the obligation vocabulary
/// (`{Avg, Max, Min, Count, LastValue, FirstValue, ...}` in Section 2.2 —
/// we additionally support `Sum` and `Stddev`, which StreamBase provides and
/// the Section 3.4 reconstruction example uses `Sum`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// Arithmetic mean.
    Avg,
    /// Maximum.
    Max,
    /// Minimum.
    Min,
    /// Number of tuples in the window.
    Count,
    /// Sum.
    Sum,
    /// Value of the attribute in the last tuple of the window.
    LastValue,
    /// Value of the attribute in the first tuple of the window.
    FirstValue,
    /// Population standard deviation.
    Stddev,
}

impl AggFunc {
    /// The keyword used in obligations and StreamSQL (`avg`, `lastval`, ...).
    #[must_use]
    pub fn keyword(self) -> &'static str {
        match self {
            AggFunc::Avg => "avg",
            AggFunc::Max => "max",
            AggFunc::Min => "min",
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::LastValue => "lastval",
            AggFunc::FirstValue => "firstval",
            AggFunc::Stddev => "stddev",
        }
    }

    /// Parse the keyword (several aliases accepted).
    #[must_use]
    pub fn from_keyword(kw: &str) -> Option<AggFunc> {
        match kw.to_ascii_lowercase().as_str() {
            "avg" | "average" | "mean" => Some(AggFunc::Avg),
            "max" | "maximum" => Some(AggFunc::Max),
            "min" | "minimum" => Some(AggFunc::Min),
            "count" => Some(AggFunc::Count),
            "sum" => Some(AggFunc::Sum),
            "lastval" | "lastvalue" | "last" => Some(AggFunc::LastValue),
            "firstval" | "firstvalue" | "first" => Some(AggFunc::FirstValue),
            "stddev" | "stdev" => Some(AggFunc::Stddev),
            _ => None,
        }
    }

    /// Every supported function, for exhaustive tests and random workloads.
    #[must_use]
    pub fn all() -> [AggFunc; 8] {
        [
            AggFunc::Avg,
            AggFunc::Max,
            AggFunc::Min,
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::LastValue,
            AggFunc::FirstValue,
            AggFunc::Stddev,
        ]
    }

    /// Whether the function requires a numeric input attribute.
    #[must_use]
    pub fn requires_numeric(self) -> bool {
        matches!(self, AggFunc::Avg | AggFunc::Sum | AggFunc::Stddev)
    }

    /// The output type of the function given the input attribute type.
    #[must_use]
    pub fn output_type(self, input: DataType) -> DataType {
        match self {
            AggFunc::Count => DataType::Int,
            AggFunc::Avg | AggFunc::Sum | AggFunc::Stddev => DataType::Double,
            AggFunc::Max | AggFunc::Min | AggFunc::LastValue | AggFunc::FirstValue => input,
        }
    }

    /// Compute the aggregate over the values of one attribute in one window.
    #[must_use]
    pub fn compute(self, values: &[Value]) -> Value {
        match self {
            AggFunc::Count => Value::Int(values.len() as i64),
            AggFunc::LastValue => values.last().cloned().unwrap_or(Value::Null),
            AggFunc::FirstValue => values.first().cloned().unwrap_or(Value::Null),
            AggFunc::Sum => Value::Double(values.iter().filter_map(Value::as_f64).sum::<f64>()),
            AggFunc::Avg => {
                let nums: Vec<f64> = values.iter().filter_map(Value::as_f64).collect();
                if nums.is_empty() {
                    Value::Null
                } else {
                    Value::Double(nums.iter().sum::<f64>() / nums.len() as f64)
                }
            }
            AggFunc::Stddev => {
                let nums: Vec<f64> = values.iter().filter_map(Value::as_f64).collect();
                if nums.is_empty() {
                    Value::Null
                } else {
                    let mean = nums.iter().sum::<f64>() / nums.len() as f64;
                    let var = nums.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>()
                        / nums.len() as f64;
                    Value::Double(var.sqrt())
                }
            }
            AggFunc::Max => best_by(values, |a, b| a > b),
            AggFunc::Min => best_by(values, |a, b| a < b),
        }
    }
}

/// Pick the extremal numeric value (Max/Min); falls back to the first value
/// for non-numeric attributes (lexicographic extremes of strings are not
/// needed by the paper's workloads).
fn best_by(values: &[Value], better: impl Fn(f64, f64) -> bool) -> Value {
    let mut best: Option<(f64, &Value)> = None;
    for v in values {
        if let Some(x) = v.as_f64() {
            match best {
                Some((cur, _)) if !better(x, cur) => {}
                _ => best = Some((x, v)),
            }
        }
    }
    match best {
        Some((_, v)) => v.clone(),
        None => values.first().cloned().unwrap_or(Value::Null),
    }
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

/// One `attribute:function` pair of an aggregation operator, e.g.
/// `rainrate:avg` in the paper's obligation encoding.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AggSpec {
    /// Attribute to aggregate.
    pub attribute: String,
    /// Aggregate function to apply.
    pub function: AggFunc,
}

impl AggSpec {
    /// Construct a spec.
    pub fn new(attribute: impl Into<String>, function: AggFunc) -> Self {
        AggSpec { attribute: attribute.into(), function }
    }

    /// Parse the obligation encoding `attribute:function`
    /// (e.g. `rainrate:avg`).
    #[must_use]
    pub fn parse(text: &str) -> Option<AggSpec> {
        let (attr, func) = text.split_once(':')?;
        let function = AggFunc::from_keyword(func.trim())?;
        let attribute = attr.trim();
        if attribute.is_empty() {
            return None;
        }
        Some(AggSpec { attribute: attribute.to_string(), function })
    }

    /// The obligation encoding `attribute:function`.
    #[must_use]
    pub fn encode(&self) -> String {
        format!("{}:{}", self.attribute, self.function.keyword())
    }

    /// The output field name, `<function><attribute>` as in Figure 4(b).
    #[must_use]
    pub fn output_name(&self) -> String {
        format!("{}{}", self.function.keyword(), self.attribute)
    }
}

impl fmt::Display for AggSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({})", self.function, self.attribute)
    }
}

/// The window-based aggregation operator.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateOp {
    /// Sliding window parameters.
    pub window: WindowSpec,
    /// The aggregations to compute per window.
    pub specs: Vec<AggSpec>,
}

impl AggregateOp {
    /// Construct an aggregation operator.
    #[must_use]
    pub fn new(window: WindowSpec, specs: Vec<AggSpec>) -> Self {
        AggregateOp { window, specs }
    }

    /// Validate window parameters, attribute existence and function/type
    /// compatibility against the input schema.
    ///
    /// # Errors
    /// Returns [`DsmsError::InvalidGraph`], [`DsmsError::UnknownAttribute`] or
    /// [`DsmsError::BadAggregate`].
    pub fn validate(&self, input: &Schema) -> Result<(), DsmsError> {
        self.window.validate().map_err(DsmsError::InvalidGraph)?;
        if self.specs.is_empty() {
            return Err(DsmsError::InvalidGraph("aggregation computes no functions".into()));
        }
        for spec in &self.specs {
            let Some(field) = input.field(&spec.attribute) else {
                return Err(DsmsError::UnknownAttribute {
                    operator: "aggregate".into(),
                    attribute: spec.attribute.clone(),
                });
            };
            if spec.function.requires_numeric() && !field.data_type.is_numeric() {
                return Err(DsmsError::BadAggregate {
                    attribute: spec.attribute.clone(),
                    function: spec.function.keyword().into(),
                    detail: format!("attribute has non-numeric type {}", field.data_type),
                });
            }
        }
        Ok(())
    }

    /// The output schema: one field per aggregation spec, named
    /// `<function><attribute>`.
    ///
    /// # Errors
    /// Fails when validation against the input schema fails.
    pub fn output_schema(&self, input: &Schema) -> Result<Schema, DsmsError> {
        self.validate(input)?;
        let fields = self
            .specs
            .iter()
            .map(|spec| {
                let input_type =
                    input.field(&spec.attribute).map(|f| f.data_type).expect("validated above");
                Field::new(spec.output_name(), spec.function.output_type(input_type))
            })
            .collect();
        Ok(Schema::new(fields))
    }

    /// Feed one tuple into the window buffer and produce one output tuple per
    /// window that closes.
    #[must_use]
    pub fn apply(
        &self,
        buffer: &mut SlidingBuffer,
        tuple: Tuple,
        output_schema: &Arc<Schema>,
    ) -> Vec<Tuple> {
        buffer
            .push(tuple)
            .into_iter()
            .map(|window| self.aggregate_window(&window, output_schema))
            .collect()
    }

    /// Aggregate the contents of one closed window into an output tuple.
    #[must_use]
    pub fn aggregate_window(&self, window: &[Tuple], output_schema: &Arc<Schema>) -> Tuple {
        let values: Vec<Value> = self
            .specs
            .iter()
            .map(|spec| {
                let column: Vec<Value> =
                    window.iter().filter_map(|t| t.get(&spec.attribute).cloned()).collect();
                spec.function.compute(&column)
            })
            .collect();
        Tuple::new(Arc::clone(output_schema), values)
            .expect("aggregate output always matches the derived schema")
    }
}

impl fmt::Display for AggregateOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let specs: Vec<String> = self.specs.iter().map(ToString::to_string).collect();
        write!(f, "{} over {}", specs.join(", "), self.window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::DataType;

    fn schema() -> Schema {
        Schema::from_pairs([
            ("samplingtime", DataType::Timestamp),
            ("rainrate", DataType::Double),
            ("windspeed", DataType::Double),
            ("station", DataType::Text),
        ])
    }

    fn tup(ts: i64, rain: f64, wind: f64) -> Tuple {
        Tuple::builder(&schema())
            .set("samplingtime", Value::Timestamp(ts))
            .set("rainrate", rain)
            .set("windspeed", wind)
            .set("station", "S11")
            .finish()
            .unwrap()
    }

    #[test]
    fn keyword_round_trip() {
        for f in AggFunc::all() {
            assert_eq!(AggFunc::from_keyword(f.keyword()), Some(f));
        }
        assert_eq!(AggFunc::from_keyword("average"), Some(AggFunc::Avg));
        assert_eq!(AggFunc::from_keyword("bogus"), None);
    }

    #[test]
    fn agg_spec_encoding_matches_paper() {
        let spec = AggSpec::parse("rainrate:avg").unwrap();
        assert_eq!(spec.attribute, "rainrate");
        assert_eq!(spec.function, AggFunc::Avg);
        assert_eq!(spec.encode(), "rainrate:avg");
        assert_eq!(spec.output_name(), "avgrainrate");
        assert_eq!(
            AggSpec::parse("samplingtime:lastval").unwrap().output_name(),
            "lastvalsamplingtime"
        );
        assert!(AggSpec::parse("rainrate").is_none());
        assert!(AggSpec::parse(":avg").is_none());
        assert!(AggSpec::parse("rainrate:bogus").is_none());
    }

    #[test]
    fn compute_functions() {
        let vals: Vec<Value> = [1.0, 2.0, 3.0, 4.0].iter().map(|v| Value::Double(*v)).collect();
        assert_eq!(AggFunc::Avg.compute(&vals), Value::Double(2.5));
        assert_eq!(AggFunc::Sum.compute(&vals), Value::Double(10.0));
        assert_eq!(AggFunc::Max.compute(&vals), Value::Double(4.0));
        assert_eq!(AggFunc::Min.compute(&vals), Value::Double(1.0));
        assert_eq!(AggFunc::Count.compute(&vals), Value::Int(4));
        assert_eq!(AggFunc::FirstValue.compute(&vals), Value::Double(1.0));
        assert_eq!(AggFunc::LastValue.compute(&vals), Value::Double(4.0));
        if let Value::Double(sd) = AggFunc::Stddev.compute(&vals) {
            assert!((sd - 1.118033988749895).abs() < 1e-12);
        } else {
            panic!("stddev should be a double");
        }
    }

    #[test]
    fn compute_on_empty_window() {
        assert_eq!(AggFunc::Count.compute(&[]), Value::Int(0));
        assert_eq!(AggFunc::Avg.compute(&[]), Value::Null);
        assert_eq!(AggFunc::LastValue.compute(&[]), Value::Null);
        assert_eq!(AggFunc::Sum.compute(&[]), Value::Double(0.0));
    }

    #[test]
    fn output_schema_names_and_types() {
        let op = AggregateOp::new(
            WindowSpec::tuples(5, 2),
            vec![
                AggSpec::new("samplingtime", AggFunc::LastValue),
                AggSpec::new("rainrate", AggFunc::Avg),
                AggSpec::new("windspeed", AggFunc::Max),
                AggSpec::new("station", AggFunc::Count),
            ],
        );
        let out = op.output_schema(&schema()).unwrap();
        assert_eq!(
            out.field_names(),
            vec!["lastvalsamplingtime", "avgrainrate", "maxwindspeed", "countstation"]
        );
        assert_eq!(out.field("lastvalsamplingtime").unwrap().data_type, DataType::Timestamp);
        assert_eq!(out.field("avgrainrate").unwrap().data_type, DataType::Double);
        assert_eq!(out.field("maxwindspeed").unwrap().data_type, DataType::Double);
        assert_eq!(out.field("countstation").unwrap().data_type, DataType::Int);
    }

    #[test]
    fn validation_errors() {
        let s = schema();
        // Unknown attribute.
        let op =
            AggregateOp::new(WindowSpec::tuples(5, 2), vec![AggSpec::new("bogus", AggFunc::Avg)]);
        assert!(matches!(op.validate(&s), Err(DsmsError::UnknownAttribute { .. })));
        // Numeric function on a text attribute.
        let op =
            AggregateOp::new(WindowSpec::tuples(5, 2), vec![AggSpec::new("station", AggFunc::Avg)]);
        assert!(matches!(op.validate(&s), Err(DsmsError::BadAggregate { .. })));
        // Count on a text attribute is fine.
        let op = AggregateOp::new(
            WindowSpec::tuples(5, 2),
            vec![AggSpec::new("station", AggFunc::Count)],
        );
        assert!(op.validate(&s).is_ok());
        // Bad window.
        let op = AggregateOp::new(
            WindowSpec::tuples(0, 2),
            vec![AggSpec::new("rainrate", AggFunc::Avg)],
        );
        assert!(matches!(op.validate(&s), Err(DsmsError::InvalidGraph(_))));
        // Empty spec list.
        let op = AggregateOp::new(WindowSpec::tuples(5, 2), vec![]);
        assert!(matches!(op.validate(&s), Err(DsmsError::InvalidGraph(_))));
    }

    #[test]
    fn paper_example1_aggregation() {
        // Window size 5 advance 2; lastval(samplingtime), avg(rainrate),
        // max(windspeed) — exactly the Example 1 policy.
        let op = AggregateOp::new(
            WindowSpec::tuples(5, 2),
            vec![
                AggSpec::new("samplingtime", AggFunc::LastValue),
                AggSpec::new("rainrate", AggFunc::Avg),
                AggSpec::new("windspeed", AggFunc::Max),
            ],
        );
        let out_schema = op.output_schema(&schema()).unwrap().shared();
        let mut buffer = SlidingBuffer::new(op.window);
        let mut outputs = Vec::new();
        for i in 0..7 {
            let t = tup(i64::from(i) * 30_000, f64::from(i), f64::from(10 - i));
            outputs.extend(op.apply(&mut buffer, t, &out_schema));
        }
        assert_eq!(outputs.len(), 2);
        // First window: tuples 0..=4.
        assert_eq!(outputs[0].get("lastvalsamplingtime"), Some(&Value::Timestamp(4 * 30_000)));
        assert_eq!(outputs[0].get_f64("avgrainrate"), Some(2.0));
        assert_eq!(outputs[0].get_f64("maxwindspeed"), Some(10.0));
        // Second window: tuples 2..=6.
        assert_eq!(outputs[1].get_f64("avgrainrate"), Some(4.0));
        assert_eq!(outputs[1].get_f64("maxwindspeed"), Some(8.0));
    }
}
