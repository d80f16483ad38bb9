//! Typed values carried by stream tuples.

use exacml_expr::Scalar;
use std::fmt;

/// The data types supported by stream schemas.
///
/// These mirror the StreamSQL column types the paper's Figure 4(b) uses
/// (`timestamp`, `double`, `int`) plus `bool` and `string` for completeness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float.
    Double,
    /// Boolean.
    Bool,
    /// UTF-8 string.
    Text,
    /// Milliseconds since the Unix epoch.
    Timestamp,
}

impl DataType {
    /// StreamSQL keyword for the type.
    #[must_use]
    pub fn sql_name(self) -> &'static str {
        match self {
            DataType::Int => "int",
            DataType::Double => "double",
            DataType::Bool => "bool",
            DataType::Text => "string",
            DataType::Timestamp => "timestamp",
        }
    }

    /// Parse a StreamSQL type keyword.
    #[must_use]
    pub fn from_sql_name(name: &str) -> Option<DataType> {
        match name.to_ascii_lowercase().as_str() {
            "int" | "integer" | "long" => Some(DataType::Int),
            "double" | "float" | "real" => Some(DataType::Double),
            "bool" | "boolean" => Some(DataType::Bool),
            "string" | "text" | "varchar" => Some(DataType::Text),
            "timestamp" | "time" => Some(DataType::Timestamp),
            _ => None,
        }
    }

    /// Whether the type can participate in arithmetic aggregation
    /// (average, sum, standard deviation).
    #[must_use]
    pub fn is_numeric(self) -> bool {
        matches!(self, DataType::Int | DataType::Double | DataType::Timestamp)
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.sql_name())
    }
}

/// A single typed value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit IEEE float.
    Double(f64),
    /// Boolean.
    Bool(bool),
    /// UTF-8 string.
    Text(String),
    /// Milliseconds since the Unix epoch.
    Timestamp(i64),
    /// Explicit null (used for missing attributes in partially built tuples).
    Null,
}

impl Value {
    /// The data type of this value, or `None` for null.
    #[must_use]
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Int(_) => Some(DataType::Int),
            Value::Double(_) => Some(DataType::Double),
            Value::Bool(_) => Some(DataType::Bool),
            Value::Text(_) => Some(DataType::Text),
            Value::Timestamp(_) => Some(DataType::Timestamp),
            Value::Null => None,
        }
    }

    /// Whether the value is compatible with a schema field of type `ty`.
    /// Nulls are compatible with every type; integers are accepted where a
    /// double is expected (common when generating synthetic workloads).
    #[must_use]
    pub fn is_compatible_with(&self, ty: DataType) -> bool {
        matches!(
            (self, ty),
            (Value::Null, _)
                | (Value::Int(_), DataType::Int | DataType::Double | DataType::Timestamp)
                | (Value::Double(_), DataType::Double)
                | (Value::Bool(_), DataType::Bool)
                | (Value::Text(_), DataType::Text)
                | (Value::Timestamp(_), DataType::Timestamp | DataType::Int)
        )
    }

    /// Numeric view of the value (ints, doubles and timestamps).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Double(v) => Some(*v),
            Value::Timestamp(v) => Some(*v as f64),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            Value::Text(_) | Value::Null => None,
        }
    }

    /// String view of the value.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Convert into the predicate engine's scalar representation, used when a
    /// filter condition is evaluated against a tuple.
    #[must_use]
    pub fn to_scalar(&self) -> Option<Scalar> {
        match self {
            Value::Text(s) => Some(Scalar::Text(s.clone())),
            Value::Bool(b) => Some(Scalar::Number(if *b { 1.0 } else { 0.0 })),
            Value::Null => None,
            other => other.as_f64().map(Scalar::Number),
        }
    }

    /// The default value for a data type (used by
    /// `TupleBuilder::finish_with_defaults`).
    #[must_use]
    pub fn default_for(ty: DataType) -> Value {
        match ty {
            DataType::Int => Value::Int(0),
            DataType::Double => Value::Double(0.0),
            DataType::Bool => Value::Bool(false),
            DataType::Text => Value::Text(String::new()),
            DataType::Timestamp => Value::Timestamp(0),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Double(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Text(v) => write!(f, "'{v}'"),
            Value::Timestamp(v) => write!(f, "ts({v})"),
            Value::Null => f.write_str("null"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sql_names_round_trip() {
        for ty in
            [DataType::Int, DataType::Double, DataType::Bool, DataType::Text, DataType::Timestamp]
        {
            assert_eq!(DataType::from_sql_name(ty.sql_name()), Some(ty));
        }
        assert_eq!(DataType::from_sql_name("varchar"), Some(DataType::Text));
        assert_eq!(DataType::from_sql_name("blob"), None);
    }

    #[test]
    fn compatibility_rules() {
        assert!(Value::Int(3).is_compatible_with(DataType::Double));
        assert!(Value::Null.is_compatible_with(DataType::Text));
        assert!(!Value::Text("x".into()).is_compatible_with(DataType::Int));
        assert!(Value::Timestamp(5).is_compatible_with(DataType::Timestamp));
        assert!(!Value::Double(1.0).is_compatible_with(DataType::Int));
    }

    #[test]
    fn numeric_views() {
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Double(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::Bool(true).as_f64(), Some(1.0));
        assert_eq!(Value::Text("x".into()).as_f64(), None);
        assert_eq!(Value::Null.as_f64(), None);
    }

    #[test]
    fn scalar_conversion() {
        assert_eq!(Value::Double(2.5).to_scalar(), Some(Scalar::Number(2.5)));
        assert_eq!(Value::Text("a".into()).to_scalar(), Some(Scalar::Text("a".into())));
        assert_eq!(Value::Null.to_scalar(), None);
    }

    #[test]
    fn defaults_match_types() {
        for ty in
            [DataType::Int, DataType::Double, DataType::Bool, DataType::Text, DataType::Timestamp]
        {
            assert!(Value::default_for(ty).is_compatible_with(ty));
        }
    }

    #[test]
    fn from_conversions() {
        assert_eq!(Value::from(3_i64), Value::Int(3));
        assert_eq!(Value::from(2.0_f64), Value::Double(2.0));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from("hi"), Value::Text("hi".into()));
    }
}
