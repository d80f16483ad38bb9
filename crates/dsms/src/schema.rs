//! Stream schemas.
//!
//! In the Aurora model every data stream is an append-only sequence of
//! tuples that share a schema. The paper's running example (Example 1) uses
//! the National Environmental Agency weather schema
//! `(samplingtime, temperature, humidity, solarradiation, rainrate,
//! windspeed, winddirection, barometer)`.

use crate::value::DataType;
use std::fmt;
use std::sync::Arc;

/// A named, typed column of a stream schema.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Field {
    /// Attribute name (lower-case by convention).
    pub name: String,
    /// Attribute type.
    pub data_type: DataType,
}

impl Field {
    /// Construct a field.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        Field { name: name.into(), data_type }
    }
}

impl fmt::Display for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.name, self.data_type)
    }
}

/// An ordered collection of fields describing the tuples of one stream.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    /// Build a schema from fields. Duplicate field names are rejected at
    /// validation time ([`Schema::validate`]), not construction time, so
    /// that StreamSQL parsing can surface a proper error.
    #[must_use]
    pub fn new(fields: Vec<Field>) -> Self {
        Schema { fields }
    }

    /// Convenience constructor from `(name, type)` pairs.
    pub fn from_pairs<I, S>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (S, DataType)>,
        S: Into<String>,
    {
        Schema { fields: pairs.into_iter().map(|(n, t)| Field::new(n, t)).collect() }
    }

    /// The weather-station schema of the paper's Example 1.
    #[must_use]
    pub fn weather_example() -> Self {
        Schema::from_pairs([
            ("samplingtime", DataType::Timestamp),
            ("temperature", DataType::Double),
            ("humidity", DataType::Double),
            ("solarradiation", DataType::Double),
            ("rainrate", DataType::Double),
            ("windspeed", DataType::Double),
            ("winddirection", DataType::Int),
            ("barometer", DataType::Double),
        ])
    }

    /// The GPS track schema mentioned in the evaluation ("GPS track
    /// information from personal mobile devices").
    #[must_use]
    pub fn gps_example() -> Self {
        Schema::from_pairs([
            ("samplingtime", DataType::Timestamp),
            ("deviceid", DataType::Text),
            ("latitude", DataType::Double),
            ("longitude", DataType::Double),
            ("speed", DataType::Double),
            ("heading", DataType::Int),
        ])
    }

    /// Number of fields.
    #[must_use]
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Whether the schema has no fields.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// All fields in declaration order.
    #[must_use]
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Field names in declaration order.
    #[must_use]
    pub fn field_names(&self) -> Vec<&str> {
        self.fields.iter().map(|f| f.name.as_str()).collect()
    }

    /// Position of a field by (case-insensitive) name.
    #[must_use]
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name.eq_ignore_ascii_case(name))
    }

    /// Field by name.
    #[must_use]
    pub fn field(&self, name: &str) -> Option<&Field> {
        self.index_of(name).map(|i| &self.fields[i])
    }

    /// Whether the schema contains a field of the given name.
    #[must_use]
    pub fn contains(&self, name: &str) -> bool {
        self.index_of(name).is_some()
    }

    /// Project the schema onto a subset of attributes (in the order given).
    /// Unknown attributes are skipped; callers that need strict validation
    /// use [`Schema::contains`] first (the query-graph validator does).
    #[must_use]
    pub fn project(&self, attrs: &[String]) -> Schema {
        let fields = attrs.iter().filter_map(|name| self.field(name).cloned()).collect();
        Schema { fields }
    }

    /// The first field of type [`DataType::Timestamp`], used as the default
    /// ordering attribute for time-based windows.
    #[must_use]
    pub fn timestamp_field(&self) -> Option<&Field> {
        self.fields.iter().find(|f| f.data_type == DataType::Timestamp)
    }

    /// Validate the schema: non-empty, no duplicate field names.
    ///
    /// # Errors
    /// Returns a human-readable description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.fields.is_empty() {
            return Err("schema has no fields".to_string());
        }
        for (i, f) in self.fields.iter().enumerate() {
            if f.name.trim().is_empty() {
                return Err(format!("field #{i} has an empty name"));
            }
            if self.fields[..i].iter().any(|g| g.name.eq_ignore_ascii_case(&f.name)) {
                return Err(format!("duplicate field name '{}'", f.name));
            }
        }
        Ok(())
    }

    /// Share the schema behind an `Arc` (tuples keep a cheap reference).
    #[must_use]
    pub fn shared(self) -> Arc<Schema> {
        Arc::new(self)
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.fields.iter().map(ToString::to_string).collect();
        write!(f, "({})", parts.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weather_schema_matches_paper() {
        let s = Schema::weather_example();
        assert_eq!(s.len(), 8);
        assert!(s.contains("rainrate"));
        assert!(s.contains("windspeed"));
        assert_eq!(s.field("samplingtime").unwrap().data_type, DataType::Timestamp);
        assert_eq!(s.field("winddirection").unwrap().data_type, DataType::Int);
        s.validate().unwrap();
    }

    #[test]
    fn index_and_lookup_are_case_insensitive() {
        let s = Schema::weather_example();
        assert_eq!(s.index_of("RainRate"), s.index_of("rainrate"));
        assert!(s.contains("WINDSPEED"));
    }

    #[test]
    fn projection_preserves_requested_order() {
        let s = Schema::weather_example();
        let p = s.project(&["rainrate".into(), "samplingtime".into()]);
        assert_eq!(p.field_names(), vec!["rainrate", "samplingtime"]);
    }

    #[test]
    fn projection_skips_unknown() {
        let s = Schema::weather_example();
        let p = s.project(&["rainrate".into(), "nosuch".into()]);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn validation_rejects_duplicates_and_empty() {
        assert!(Schema::new(vec![]).validate().is_err());
        let dup = Schema::from_pairs([("a", DataType::Int), ("A", DataType::Double)]);
        assert!(dup.validate().unwrap_err().contains("duplicate"));
        let blank = Schema::from_pairs([("", DataType::Int)]);
        assert!(blank.validate().is_err());
    }

    #[test]
    fn timestamp_field_detection() {
        assert_eq!(Schema::weather_example().timestamp_field().unwrap().name, "samplingtime");
        let s = Schema::from_pairs([("a", DataType::Int)]);
        assert!(s.timestamp_field().is_none());
    }

    #[test]
    fn display_is_readable() {
        let s = Schema::from_pairs([("a", DataType::Int), ("b", DataType::Text)]);
        assert_eq!(s.to_string(), "(a int, b string)");
    }
}
