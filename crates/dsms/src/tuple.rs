//! Stream tuples.
//!
//! A [`Tuple`] is one element of an append-only data stream: an ordered list
//! of [`Value`]s matching its [`Schema`]. Tuples implement the predicate
//! engine's [`Bindings`] trait so filter conditions can be evaluated against
//! them directly.

use crate::schema::Schema;
use crate::value::Value;
use exacml_expr::{Bindings, Scalar};
use std::fmt;
use std::sync::Arc;

/// One tuple of a data stream.
///
/// A tuple is one pointer to a shared, immutable row holding its schema and
/// values, so cloning or dropping it costs one reference-count operation
/// regardless of arity — the engine fans one source tuple out to many
/// deployments and subscribers without copying the payload.
#[derive(Clone, PartialEq)]
pub struct Tuple(Arc<Row>);

/// The shared payload behind a [`Tuple`].
#[derive(PartialEq)]
struct Row {
    schema: Arc<Schema>,
    values: Box<[Value]>,
}

impl Tuple {
    /// Create a tuple from a schema and values.
    ///
    /// # Errors
    /// Returns a description of the problem when the number of values does
    /// not match the schema or a value is incompatible with its field type.
    pub fn new(schema: Arc<Schema>, values: Vec<Value>) -> Result<Self, String> {
        if values.len() != schema.len() {
            return Err(format!(
                "expected {} values for schema {}, got {}",
                schema.len(),
                schema,
                values.len()
            ));
        }
        for (field, value) in schema.fields().iter().zip(values.iter()) {
            if !value.is_compatible_with(field.data_type) {
                return Err(format!(
                    "value {value} is not compatible with field '{}' of type {}",
                    field.name, field.data_type
                ));
            }
        }
        Ok(Tuple::from_trusted_parts(schema, values.into()))
    }

    /// Create a tuple without re-validating values against the schema.
    ///
    /// For engine-internal producers (compiled operators) whose output is
    /// correct by construction; offers the derived-tuple hot path a way to
    /// skip the per-field compatibility scan. Collecting an iterator straight
    /// into `Box<[Value]>` saves the intermediate `Vec`.
    #[must_use]
    pub(crate) fn from_trusted_parts(schema: Arc<Schema>, values: Box<[Value]>) -> Self {
        debug_assert_eq!(schema.len(), values.len());
        Tuple(Arc::new(Row { schema, values }))
    }

    /// Start building a tuple field-by-field.
    #[must_use]
    pub fn builder(schema: &Schema) -> TupleBuilder {
        TupleBuilder { schema: Arc::new(schema.clone()), values: vec![None; schema.len()] }
    }

    /// Start building a tuple sharing an existing `Arc<Schema>`.
    #[must_use]
    pub fn builder_shared(schema: &Arc<Schema>) -> TupleBuilder {
        TupleBuilder { schema: Arc::clone(schema), values: vec![None; schema.len()] }
    }

    /// The tuple's schema.
    #[must_use]
    pub fn schema(&self) -> &Arc<Schema> {
        &self.0.schema
    }

    /// All values in schema order.
    #[must_use]
    pub fn values(&self) -> &[Value] {
        &self.0.values
    }

    /// Value of the named attribute.
    #[must_use]
    pub fn get(&self, attr: &str) -> Option<&Value> {
        self.schema().index_of(attr).map(|i| &self.values()[i])
    }

    /// Numeric value of the named attribute (ints, doubles, timestamps).
    #[must_use]
    pub fn get_f64(&self, attr: &str) -> Option<f64> {
        self.get(attr).and_then(Value::as_f64)
    }

    /// Value of the tuple's timestamp attribute (the first
    /// [`crate::value::DataType::Timestamp`] field), used by time-based
    /// windows.
    #[must_use]
    pub fn event_time(&self) -> Option<i64> {
        let field = self.schema().timestamp_field()?;
        match self.get(&field.name) {
            Some(Value::Timestamp(t)) => Some(*t),
            Some(Value::Int(t)) => Some(*t),
            _ => None,
        }
    }

    /// Project the tuple onto the attributes of `projected_schema`, in its
    /// order (one the tuple lacks reads `Null`).
    #[must_use]
    pub fn project(&self, projected_schema: Arc<Schema>) -> Tuple {
        let values = projected_schema
            .fields()
            .iter()
            .map(|f| self.get(&f.name).cloned().unwrap_or(Value::Null))
            .collect();
        Tuple::from_trusted_parts(projected_schema, values)
    }

    /// Rough serialized size in bytes, used by the simulated network to model
    /// transfer cost.
    #[must_use]
    pub fn approx_size_bytes(&self) -> usize {
        self.values()
            .iter()
            .map(|v| match v {
                Value::Text(s) => 8 + s.len(),
                _ => 8,
            })
            .sum::<usize>()
            + 16
    }
}

impl Bindings for Tuple {
    fn lookup(&self, attr: &str) -> Option<Scalar> {
        self.get(attr).and_then(Value::to_scalar)
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tuple")
            .field("schema", self.schema())
            .field("values", &self.values())
            .finish()
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self
            .schema()
            .fields()
            .iter()
            .zip(self.values())
            .map(|(field, value)| format!("{}={}", field.name, value))
            .collect();
        write!(f, "{{{}}}", parts.join(", "))
    }
}

/// Field-by-field tuple construction.
#[derive(Debug, Clone)]
pub struct TupleBuilder {
    schema: Arc<Schema>,
    values: Vec<Option<Value>>,
}

impl TupleBuilder {
    /// Set the value of a named attribute. Unknown attributes are ignored
    /// (the builder is lenient so synthetic generators can share code across
    /// schemas); [`TupleBuilder::finish`] performs the strict check.
    #[must_use]
    pub fn set(mut self, attr: &str, value: impl Into<Value>) -> Self {
        if let Some(i) = self.schema.index_of(attr) {
            self.values[i] = Some(value.into());
        }
        self
    }

    /// Finish, requiring every field to have been set.
    ///
    /// # Errors
    /// Returns an error naming the first missing field, or a compatibility
    /// problem reported by [`Tuple::new`].
    pub fn finish(self) -> Result<Tuple, String> {
        let mut values = Vec::with_capacity(self.values.len());
        for (field, v) in self.schema.fields().iter().zip(self.values) {
            match v {
                Some(v) => values.push(v),
                None => return Err(format!("field '{}' was not set", field.name)),
            }
        }
        Tuple::new(self.schema, values)
    }

    /// Finish, filling unset fields with type defaults. Panics only if a set
    /// value is incompatible with its field, which the `set` path already
    /// prevents for the standard conversions.
    #[must_use]
    pub fn finish_with_defaults(self) -> Tuple {
        let values: Vec<Value> = self
            .schema
            .fields()
            .iter()
            .zip(self.values)
            .map(|(field, v)| v.unwrap_or_else(|| Value::default_for(field.data_type)))
            .collect();
        Tuple::new(self.schema, values).expect("default values always match the schema")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType;
    use exacml_expr::parse_expr;

    fn weather_tuple(rain: f64, wind: f64) -> Tuple {
        let schema = Schema::weather_example();
        Tuple::builder(&schema)
            .set("samplingtime", Value::Timestamp(30_000))
            .set("temperature", 31.5)
            .set("humidity", 70.0)
            .set("solarradiation", 110.0)
            .set("rainrate", rain)
            .set("windspeed", wind)
            .set("winddirection", 180_i64)
            .set("barometer", 1013.0)
            .finish()
            .unwrap()
    }

    #[test]
    fn build_and_read_back() {
        let t = weather_tuple(7.5, 12.0);
        assert_eq!(t.get("rainrate"), Some(&Value::Double(7.5)));
        assert_eq!(t.get_f64("windspeed"), Some(12.0));
        assert_eq!(t.event_time(), Some(30_000));
        assert!(t.get("nosuch").is_none());
    }

    #[test]
    fn arity_and_type_checking() {
        let schema = Schema::from_pairs([("a", DataType::Int), ("b", DataType::Text)]).shared();
        assert!(Tuple::new(Arc::clone(&schema), vec![Value::Int(1)]).is_err());
        assert!(Tuple::new(
            Arc::clone(&schema),
            vec![Value::Text("x".into()), Value::Text("y".into())]
        )
        .is_err());
        assert!(Tuple::new(schema, vec![Value::Int(1), Value::Text("y".into())]).is_ok());
    }

    #[test]
    fn builder_requires_all_fields() {
        let schema = Schema::from_pairs([("a", DataType::Int), ("b", DataType::Text)]);
        let err = Tuple::builder(&schema).set("a", 1_i64).finish().unwrap_err();
        assert!(err.contains("'b'"));
        let t = Tuple::builder(&schema).set("a", 1_i64).finish_with_defaults();
        assert_eq!(t.get("b"), Some(&Value::Text(String::new())));
    }

    #[test]
    fn builder_ignores_unknown_fields() {
        let schema = Schema::from_pairs([("a", DataType::Int)]);
        let t = Tuple::builder(&schema).set("zzz", 9_i64).set("a", 1_i64).finish().unwrap();
        assert_eq!(t.get("a"), Some(&Value::Int(1)));
    }

    #[test]
    fn tuples_are_filter_bindings() {
        let t = weather_tuple(9.0, 3.0);
        let cond = parse_expr("rainrate > 5 AND windspeed < 10").unwrap();
        assert!(exacml_expr::eval(&cond, &t));
        let cond = parse_expr("rainrate > 50").unwrap();
        assert!(!exacml_expr::eval(&cond, &t));
    }

    #[test]
    fn projection() {
        let t = weather_tuple(1.0, 2.0);
        let attrs = vec!["samplingtime".to_string(), "rainrate".to_string()];
        let projected_schema = t.schema().project(&attrs).shared();
        let p = t.project(projected_schema);
        assert_eq!(p.schema().len(), 2);
        assert_eq!(p.get_f64("rainrate"), Some(1.0));
        assert!(p.get("windspeed").is_none());
    }

    #[test]
    fn a_tuple_is_one_pointer() {
        assert_eq!(std::mem::size_of::<Tuple>(), std::mem::size_of::<usize>());
    }

    #[test]
    fn approx_size_accounts_for_strings() {
        let schema = Schema::from_pairs([("a", DataType::Text)]);
        let small = Tuple::builder(&schema).set("a", "x").finish().unwrap();
        let large = Tuple::builder(&schema).set("a", "x".repeat(100)).finish().unwrap();
        assert!(large.approx_size_bytes() > small.approx_size_bytes());
    }

    #[test]
    fn display_shows_fields() {
        let schema = Schema::from_pairs([("a", DataType::Int)]);
        let t = Tuple::builder(&schema).set("a", 7_i64).finish().unwrap();
        assert_eq!(t.to_string(), "{a=7}");
    }
}
