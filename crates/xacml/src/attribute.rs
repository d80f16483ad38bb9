//! Attribute values and categories.
//!
//! XACML attributes are typed by XML Schema data-type URIs
//! (e.g. `http://www.w3.org/2001/XMLSchema#string`) and grouped into the
//! *subject*, *resource*, *action* and *environment* categories of a request.

use std::fmt;

/// The XML Schema data types used by the framework's policies
/// (Figure 2 uses `#string` and `#integer`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum XmlDataType {
    /// `http://www.w3.org/2001/XMLSchema#string`
    String,
    /// `http://www.w3.org/2001/XMLSchema#integer`
    Integer,
    /// `http://www.w3.org/2001/XMLSchema#double`
    Double,
    /// `http://www.w3.org/2001/XMLSchema#boolean`
    Boolean,
    /// `http://www.w3.org/2001/XMLSchema#anyURI`
    AnyUri,
}

impl XmlDataType {
    /// The full data-type URI, as written in policy documents.
    #[must_use]
    pub fn uri(self) -> &'static str {
        match self {
            XmlDataType::String => "http://www.w3.org/2001/XMLSchema#string",
            XmlDataType::Integer => "http://www.w3.org/2001/XMLSchema#integer",
            XmlDataType::Double => "http://www.w3.org/2001/XMLSchema#double",
            XmlDataType::Boolean => "http://www.w3.org/2001/XMLSchema#boolean",
            XmlDataType::AnyUri => "http://www.w3.org/2001/XMLSchema#anyURI",
        }
    }

    /// Parse a data-type URI (the bare fragment, e.g. `string`, is also
    /// accepted for robustness).
    #[must_use]
    pub fn from_uri(uri: &str) -> Option<XmlDataType> {
        let frag = uri.rsplit('#').next().unwrap_or(uri);
        match frag.to_ascii_lowercase().as_str() {
            "string" => Some(XmlDataType::String),
            "integer" | "int" | "long" => Some(XmlDataType::Integer),
            "double" | "float" => Some(XmlDataType::Double),
            "boolean" | "bool" => Some(XmlDataType::Boolean),
            "anyuri" => Some(XmlDataType::AnyUri),
            _ => None,
        }
    }
}

impl fmt::Display for XmlDataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.uri())
    }
}

/// A typed attribute value.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributeValue {
    /// The data type of the value.
    pub data_type: XmlDataType,
    /// The lexical representation of the value (XACML carries values as
    /// text; typed accessors parse on demand).
    pub text: String,
}

impl AttributeValue {
    /// A string value.
    pub fn string(text: impl Into<String>) -> Self {
        AttributeValue { data_type: XmlDataType::String, text: text.into() }
    }

    /// An integer value.
    #[must_use]
    pub fn integer(value: i64) -> Self {
        AttributeValue { data_type: XmlDataType::Integer, text: value.to_string() }
    }

    /// A double value.
    #[must_use]
    pub fn double(value: f64) -> Self {
        AttributeValue { data_type: XmlDataType::Double, text: value.to_string() }
    }

    /// A boolean value.
    #[must_use]
    pub fn boolean(value: bool) -> Self {
        AttributeValue { data_type: XmlDataType::Boolean, text: value.to_string() }
    }

    /// Integer view, if the value parses as one.
    #[must_use]
    pub fn as_integer(&self) -> Option<i64> {
        self.text.trim().parse().ok()
    }

    /// Boolean view, if the value parses as one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self.text.trim().to_ascii_lowercase().as_str() {
            "true" | "1" => Some(true),
            "false" | "0" => Some(false),
            _ => None,
        }
    }
}

impl fmt::Display for AttributeValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
    }
}

/// The category an attribute belongs to inside a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttributeCategory {
    /// The requesting subject (user credentials).
    Subject,
    /// The requested resource (a data stream name / URI).
    Resource,
    /// The requested action (e.g. `read`, `subscribe`).
    Action,
    /// Environment attributes (time of day, requesting host, ...).
    Environment,
}

impl AttributeCategory {
    /// All categories, in canonical order.
    #[must_use]
    pub fn all() -> [AttributeCategory; 4] {
        [
            AttributeCategory::Subject,
            AttributeCategory::Resource,
            AttributeCategory::Action,
            AttributeCategory::Environment,
        ]
    }

    /// The XML element name used in request documents.
    #[must_use]
    pub fn element_name(self) -> &'static str {
        match self {
            AttributeCategory::Subject => "Subject",
            AttributeCategory::Resource => "Resource",
            AttributeCategory::Action => "Action",
            AttributeCategory::Environment => "Environment",
        }
    }

    /// Parse the XML element name.
    #[must_use]
    pub fn from_element_name(name: &str) -> Option<AttributeCategory> {
        match name {
            "Subject" => Some(AttributeCategory::Subject),
            "Resource" => Some(AttributeCategory::Resource),
            "Action" => Some(AttributeCategory::Action),
            "Environment" => Some(AttributeCategory::Environment),
            _ => None,
        }
    }
}

impl fmt::Display for AttributeCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.element_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_type_uri_round_trip() {
        for ty in [
            XmlDataType::String,
            XmlDataType::Integer,
            XmlDataType::Double,
            XmlDataType::Boolean,
            XmlDataType::AnyUri,
        ] {
            assert_eq!(XmlDataType::from_uri(ty.uri()), Some(ty));
        }
        assert_eq!(XmlDataType::from_uri("string"), Some(XmlDataType::String));
        assert_eq!(XmlDataType::from_uri("bogus"), None);
    }

    #[test]
    fn typed_views() {
        assert_eq!(AttributeValue::integer(5).as_integer(), Some(5));
        assert_eq!(AttributeValue::boolean(true).as_bool(), Some(true));
        assert_eq!(AttributeValue::string("x").as_integer(), None);
        assert_eq!(AttributeValue::string(" 7 ").as_integer(), Some(7));
    }

    #[test]
    fn category_element_names_round_trip() {
        for cat in AttributeCategory::all() {
            assert_eq!(AttributeCategory::from_element_name(cat.element_name()), Some(cat));
        }
        assert_eq!(AttributeCategory::from_element_name("Bogus"), None);
    }
}
