//! XML serialization of policies and requests.
//!
//! The paper's prototype stores policies and requests as XACML XML documents
//! (Figure 2 shows the obligations portion of one). This module provides a
//! small, dependency-free XML reader/writer sufficient for those documents:
//!
//! * [`XmlElement`] — the parser's element tree, attributes and text,
//! * [`DocumentWriter`] — a one-pass pretty-printing writer,
//! * [`parse_document`] — a strict, non-validating parser (no namespaces,
//!   no DTDs; supports comments, the XML declaration, entity escapes and
//!   self-closing tags),
//! * [`write_policy`] / [`parse_policy`] — Policy documents,
//! * [`write_request`] / [`parse_request`] — Request documents.

use crate::attribute::{AttributeCategory, AttributeValue, XmlDataType};
use crate::error::XacmlError;
use crate::obligation::{AttributeAssignment, Obligation};
use crate::policy::{AttributeMatch, Effect, Policy, Rule, RuleCombiningAlg, Target};
use crate::request::Request;
use exacml_expr::MAX_DEPTH;

/// A generic XML element.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct XmlElement {
    /// Element name.
    pub name: String,
    /// Attributes, in document order.
    pub attributes: Vec<(String, String)>,
    /// Child elements, in document order.
    pub children: Vec<XmlElement>,
    /// Concatenated character data directly inside this element.
    pub text: String,
}

impl XmlElement {
    /// A new element with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        XmlElement { name: name.into(), ..Default::default() }
    }

    /// Value of an attribute by name.
    #[must_use]
    pub fn attribute(&self, name: &str) -> Option<&str> {
        self.attributes.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// All children with the given element name.
    #[must_use]
    pub fn children_named(&self, name: &str) -> Vec<&XmlElement> {
        self.children.iter().filter(|c| c.name == name).collect()
    }

    /// The first child with the given element name.
    #[must_use]
    pub fn first_child(&self, name: &str) -> Option<&XmlElement> {
        self.children.iter().find(|c| c.name == name)
    }
}

/// A one-pass writer of pretty-printed XML — two-space indentation, an
/// element with neither children nor text self-closed — straight into one
/// `String`. An element's start tag is left open until its first child or
/// its end shows whether it is empty. [`DocumentWriter::default`] writes a
/// fragment with no XML declaration.
#[derive(Default)]
pub struct DocumentWriter {
    out: String,
    depth: usize,
    tag_open: bool,
}

impl DocumentWriter {
    /// A writer of a whole document: the XML declaration comes first.
    fn document() -> Self {
        let mut out = String::with_capacity(1024);
        out.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
        DocumentWriter { out, ..DocumentWriter::default() }
    }

    /// The written text.
    #[must_use]
    pub fn finish(self) -> String {
        self.out
    }

    fn indent(&mut self) {
        for _ in 0..self.depth {
            self.out.push_str("  ");
        }
    }

    /// End the open start tag, if there is one: its element has content.
    fn close_start_tag(&mut self) {
        if std::mem::take(&mut self.tag_open) {
            self.out.push_str(">\n");
        }
    }

    /// Open an element inside the current one.
    pub fn start<'a>(
        &mut self,
        name: &str,
        attributes: impl IntoIterator<Item = (&'a str, &'a str)>,
    ) {
        self.close_start_tag();
        self.indent();
        self.out.push('<');
        self.out.push_str(name);
        for (attribute, value) in attributes {
            self.out.push(' ');
            self.out.push_str(attribute);
            self.out.push_str("=\"");
            escape_into(&mut self.out, value);
            self.out.push('"');
        }
        self.tag_open = true;
        self.depth += 1;
    }

    /// Close the element `name` opened last.
    pub fn end(&mut self, name: &str) {
        self.depth -= 1;
        if std::mem::take(&mut self.tag_open) {
            self.out.push_str("/>\n");
        } else {
            self.indent();
            self.end_tag(name);
        }
    }

    fn end_tag(&mut self, name: &str) {
        self.out.push_str("</");
        self.out.push_str(name);
        self.out.push_str(">\n");
    }

    /// An element holding only `text`; self-closed when `text` is empty.
    pub fn text_element<'a>(
        &mut self,
        name: &str,
        attributes: impl IntoIterator<Item = (&'a str, &'a str)>,
        text: &str,
    ) {
        self.start(name, attributes);
        if text.is_empty() {
            return self.end(name);
        }
        self.tag_open = false;
        self.depth -= 1;
        self.out.push('>');
        escape_into(&mut self.out, text);
        self.end_tag(name);
    }
}

/// Escape the five predefined XML entities.
#[must_use]
pub fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    escape_into(&mut out, text);
    out
}

/// [`escape`], appending to `out`: the runs between entities are copied
/// whole.
fn escape_into(out: &mut String, text: &str) {
    let mut rest = text;
    while let Some(at) = rest.find(['&', '<', '>', '"', '\'']) {
        out.push_str(&rest[..at]);
        out.push_str(match rest.as_bytes()[at] {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'"' => "&quot;",
            _ => "&apos;",
        });
        rest = &rest[at + 1..];
    }
    out.push_str(rest);
}

/// Undo [`escape`] in one left-to-right pass: each of the five entities
/// becomes its character, and any other `&` is kept as it is. Text with no
/// `&` is copied once. No replacement produces a `&`, so a pass cannot
/// form a new entity; the result is the same as replacing the entities one
/// after another with `&amp;` last.
#[must_use]
pub fn unescape(text: &str) -> String {
    const ENTITIES: [(&str, char); 5] =
        [("&lt;", '<'), ("&gt;", '>'), ("&quot;", '"'), ("&apos;", '\''), ("&amp;", '&')];
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(at) = rest.find('&') {
        out.push_str(&rest[..at]);
        rest = &rest[at..];
        let entity = ENTITIES.iter().find(|(entity, _)| rest.starts_with(entity));
        let (c, len) = entity.map_or(('&', 1), |(entity, c)| (*c, entity.len()));
        out.push(c);
        rest = &rest[len..];
    }
    out.push_str(rest);
    out
}

/// Parse an XML document into its root element.
///
/// # Errors
/// Returns [`XacmlError::XmlParse`] describing the first problem found,
/// including elements nested deeper than [`exacml_expr::MAX_DEPTH`].
pub fn parse_document(input: &str) -> Result<XmlElement, XacmlError> {
    let mut parser = XmlParser { input: input.as_bytes(), pos: 0 };
    parser.skip_prolog();
    let root = parser.parse_element()?;
    parser.skip_whitespace_and_comments();
    if parser.pos < parser.input.len() {
        return Err(XacmlError::XmlParse {
            position: parser.pos,
            detail: "trailing content after the root element".into(),
        });
    }
    Ok(root)
}

struct XmlParser<'a> {
    input: &'a [u8],
    pos: usize,
}

impl XmlParser<'_> {
    fn err(&self, detail: impl Into<String>) -> XacmlError {
        XacmlError::XmlParse { position: self.pos, detail: detail.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input[self.pos..].starts_with(s.as_bytes())
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn skip_whitespace_and_comments(&mut self) {
        loop {
            self.skip_whitespace();
            if self.starts_with("<!--") {
                match find_from(self.input, self.pos + 4, "-->") {
                    Some(end) => self.pos = end + 3,
                    None => {
                        self.pos = self.input.len();
                        return;
                    }
                }
            } else {
                return;
            }
        }
    }

    fn skip_prolog(&mut self) {
        loop {
            self.skip_whitespace_and_comments();
            if self.starts_with("<?") {
                match find_from(self.input, self.pos + 2, "?>") {
                    Some(end) => self.pos = end + 2,
                    None => {
                        self.pos = self.input.len();
                        return;
                    }
                }
            } else if self.starts_with("<!DOCTYPE") {
                match find_from(self.input, self.pos, ">") {
                    Some(end) => self.pos = end + 1,
                    None => {
                        self.pos = self.input.len();
                        return;
                    }
                }
            } else {
                return;
            }
        }
    }

    fn parse_name(&mut self) -> Result<String, XacmlError> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            let c = c as char;
            if c.is_ascii_alphanumeric() || c == '_' || c == '-' || c == ':' || c == '.' {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.err("expected a name"));
        }
        Ok(String::from_utf8_lossy(&self.input[start..self.pos]).into_owned())
    }

    /// The root element and everything inside it. Open elements wait on an
    /// explicit stack rather than one call frame per level, so a hostile
    /// document costs heap, not stack; at most [`MAX_DEPTH`] may be open.
    fn parse_element(&mut self) -> Result<XmlElement, XacmlError> {
        let mut open: Vec<XmlElement> = Vec::new();
        loop {
            // A start tag: the root's, or a child's of the innermost element.
            if open.len() == MAX_DEPTH {
                return Err(self.err(format!("elements nest deeper than {MAX_DEPTH} levels")));
            }
            let (element, empty) = self.parse_start_tag()?;
            let mut closed = if empty {
                Some(element)
            } else {
                open.push(element);
                None
            };
            // Content — text, comments, closing tags — until the next child.
            loop {
                if let Some(element) = closed.take() {
                    match open.last_mut() {
                        Some(parent) => parent.children.push(element),
                        None => return Ok(element),
                    }
                }
                let current = open.last_mut().expect("an element is open");
                let start = self.pos;
                while self.peek().is_some_and(|c| c != b'<') {
                    self.pos += 1;
                }
                if self.pos > start {
                    let chunk = String::from_utf8_lossy(&self.input[start..self.pos]);
                    let trimmed = chunk.trim();
                    if !trimmed.is_empty() {
                        if !current.text.is_empty() {
                            current.text.push(' ');
                        }
                        current.text.push_str(&unescape(trimmed));
                    }
                }
                if self.peek().is_none() {
                    return Err(self.err(format!("missing closing tag for <{}>", current.name)));
                }
                if self.starts_with("<!--") {
                    match find_from(self.input, self.pos + 4, "-->") {
                        Some(end) => self.pos = end + 3,
                        None => return Err(self.err("unterminated comment")),
                    }
                    continue;
                }
                if !self.starts_with("</") {
                    break;
                }
                self.pos += 2;
                let closing = self.parse_name()?;
                if closing != current.name {
                    return Err(self.err(format!(
                        "mismatched closing tag </{closing}> for <{}>",
                        current.name
                    )));
                }
                self.skip_whitespace();
                if self.peek() != Some(b'>') {
                    return Err(self.err("expected '>' in closing tag"));
                }
                self.pos += 1;
                closed = open.pop();
            }
        }
    }

    /// A start tag and its attributes; `true` when it is empty (`<a/>`).
    fn parse_start_tag(&mut self) -> Result<(XmlElement, bool), XacmlError> {
        self.skip_whitespace_and_comments();
        if self.peek() != Some(b'<') {
            return Err(self.err("expected '<'"));
        }
        self.pos += 1;
        let mut element = XmlElement::new(self.parse_name()?);
        loop {
            self.skip_whitespace();
            match self.peek() {
                Some(b'/') => {
                    self.pos += 1;
                    if self.peek() != Some(b'>') {
                        return Err(self.err("expected '>' after '/'"));
                    }
                    self.pos += 1;
                    return Ok((element, true));
                }
                Some(b'>') => {
                    self.pos += 1;
                    return Ok((element, false));
                }
                Some(_) => {
                    let attr_name = self.parse_name()?;
                    self.skip_whitespace();
                    if self.peek() != Some(b'=') {
                        return Err(self.err(format!("expected '=' after attribute '{attr_name}'")));
                    }
                    self.pos += 1;
                    self.skip_whitespace();
                    let quote = self.peek().ok_or_else(|| self.err("unexpected end of input"))?;
                    if quote != b'"' && quote != b'\'' {
                        return Err(self.err("expected a quoted attribute value"));
                    }
                    self.pos += 1;
                    let start = self.pos;
                    while self.peek().map(|c| c != quote).unwrap_or(false) {
                        self.pos += 1;
                    }
                    if self.peek() != Some(quote) {
                        return Err(self.err("unterminated attribute value"));
                    }
                    let value = unescape(&String::from_utf8_lossy(&self.input[start..self.pos]));
                    self.pos += 1;
                    element.attributes.push((attr_name, value));
                }
                None => return Err(self.err("unexpected end of input inside a tag")),
            }
        }
    }
}

fn find_from(haystack: &[u8], from: usize, needle: &str) -> Option<usize> {
    let needle = needle.as_bytes();
    if from >= haystack.len() {
        return None;
    }
    haystack[from..].windows(needle.len()).position(|w| w == needle).map(|i| i + from)
}

// ---------------------------------------------------------------------------
// Policy documents
// ---------------------------------------------------------------------------

/// A target's category groups: the category, its outer and inner element
/// and the element of each match.
const TARGET_ELEMENTS: [(AttributeCategory, &str, &str, &str); 4] = [
    (AttributeCategory::Subject, "Subjects", "Subject", "SubjectMatch"),
    (AttributeCategory::Resource, "Resources", "Resource", "ResourceMatch"),
    (AttributeCategory::Action, "Actions", "Action", "ActionMatch"),
    (AttributeCategory::Environment, "Environments", "Environment", "EnvironmentMatch"),
];

/// The one match function a written target uses.
const STRING_EQUAL: &str = "urn:oasis:names:tc:xacml:1.0:function:string-equal";

impl DocumentWriter {
    fn target(&mut self, target: &Target) {
        self.start("Target", []);
        for (category, outer, inner, match_name) in TARGET_ELEMENTS {
            let mut matches = target.matches.iter().filter(|m| m.category == category).peekable();
            if matches.peek().is_none() {
                continue;
            }
            self.start(outer, []);
            self.start(inner, []);
            for m in matches {
                let attributes = [("MatchId", STRING_EQUAL), ("AttributeId", &*m.attribute_id)];
                self.text_element(match_name, attributes, &m.value);
            }
            self.end(inner);
            self.end(outer);
        }
        self.end("Target");
    }

    fn obligation(&mut self, obligation: &Obligation) {
        let attributes =
            [("ObligationId", &*obligation.id), ("FulfillOn", obligation.fulfill_on.keyword())];
        self.start("Obligation", attributes);
        for a in &obligation.assignments {
            let attributes =
                [("AttributeId", &*a.attribute_id), ("DataType", a.value.data_type.uri())];
            self.text_element("AttributeAssignment", attributes, &a.value.text);
        }
        self.end("Obligation");
    }
}

fn target_from_xml(el: &XmlElement) -> Result<Target, XacmlError> {
    let mut matches = Vec::new();
    for (category, outer, inner, match_name) in TARGET_ELEMENTS {
        for outer_el in el.children_named(outer) {
            for inner_el in outer_el.children_named(inner) {
                for m in inner_el.children_named(match_name) {
                    let attribute_id = m.attribute("AttributeId").ok_or_else(|| {
                        XacmlError::XmlStructure(format!("{match_name} missing AttributeId"))
                    })?;
                    matches.push(AttributeMatch::new(category, attribute_id, m.text.clone()));
                }
            }
        }
    }
    Ok(Target::new(matches))
}

fn obligation_from_xml(el: &XmlElement) -> Result<Obligation, XacmlError> {
    let id = el
        .attribute("ObligationId")
        .ok_or_else(|| XacmlError::XmlStructure("Obligation missing ObligationId".into()))?;
    let fulfill_on = el
        .attribute("FulfillOn")
        .and_then(Effect::from_str_opt)
        .ok_or_else(|| XacmlError::XmlStructure("Obligation missing/invalid FulfillOn".into()))?;
    let mut obligation = Obligation { id: id.to_string(), fulfill_on, assignments: Vec::new() };
    for a in el.children_named("AttributeAssignment") {
        let attribute_id = a.attribute("AttributeId").ok_or_else(|| {
            XacmlError::XmlStructure("AttributeAssignment missing AttributeId".into())
        })?;
        let data_type = a
            .attribute("DataType")
            .map(|uri| {
                XmlDataType::from_uri(uri)
                    .ok_or_else(|| XacmlError::UnknownDataType(uri.to_string()))
            })
            .transpose()?
            .unwrap_or(XmlDataType::String);
        obligation.assignments.push(AttributeAssignment::new(
            attribute_id,
            AttributeValue { data_type, text: a.text.clone() },
        ));
    }
    Ok(obligation)
}

/// Serialize a policy to an XML document.
#[must_use]
pub fn write_policy(policy: &Policy) -> String {
    let mut doc = DocumentWriter::document();
    let attributes =
        [("PolicyId", &*policy.id), ("RuleCombiningAlgId", policy.rule_combining.urn())];
    doc.start("Policy", attributes);
    if !policy.description.is_empty() {
        doc.text_element("Description", [], &policy.description);
    }
    doc.target(&policy.target);
    for rule in &policy.rules {
        doc.start("Rule", [("RuleId", &*rule.id), ("Effect", rule.effect.keyword())]);
        if !rule.target.matches.is_empty() {
            doc.target(&rule.target);
        }
        doc.end("Rule");
    }
    if !policy.obligations.is_empty() {
        doc.start("Obligations", []);
        for obligation in &policy.obligations {
            doc.obligation(obligation);
        }
        doc.end("Obligations");
    }
    doc.end("Policy");
    doc.out
}

/// Parse a policy from an XML document produced by [`write_policy`]
/// (or an equivalent hand-written document).
///
/// # Errors
/// Returns [`XacmlError`] on XML or structural problems.
pub fn parse_policy(xml: &str) -> Result<Policy, XacmlError> {
    let root = parse_document(xml)?;
    if root.name != "Policy" {
        return Err(XacmlError::XmlStructure(format!("expected <Policy>, found <{}>", root.name)));
    }
    let id = root
        .attribute("PolicyId")
        .ok_or_else(|| XacmlError::XmlStructure("Policy missing PolicyId".into()))?
        .to_string();
    let rule_combining = root
        .attribute("RuleCombiningAlgId")
        .and_then(RuleCombiningAlg::from_urn)
        .unwrap_or_default();
    let description = root.first_child("Description").map(|d| d.text.clone()).unwrap_or_default();
    let target = match root.first_child("Target") {
        Some(t) => target_from_xml(t)?,
        None => Target::any(),
    };
    let mut rules = Vec::new();
    for rule_el in root.children_named("Rule") {
        let rule_id = rule_el
            .attribute("RuleId")
            .ok_or_else(|| XacmlError::XmlStructure("Rule missing RuleId".into()))?;
        let effect = rule_el
            .attribute("Effect")
            .and_then(Effect::from_str_opt)
            .ok_or_else(|| XacmlError::XmlStructure("Rule missing/invalid Effect".into()))?;
        let rule_target = match rule_el.first_child("Target") {
            Some(t) => target_from_xml(t)?,
            None => Target::any(),
        };
        rules.push(Rule { id: rule_id.to_string(), effect, target: rule_target });
    }
    let mut obligations = Vec::new();
    if let Some(obs) = root.first_child("Obligations") {
        for o in obs.children_named("Obligation") {
            obligations.push(obligation_from_xml(o)?);
        }
    }
    let policy = Policy { id: id.clone(), description, target, rules, rule_combining, obligations };
    policy.validate().map_err(|detail| XacmlError::InvalidPolicy { policy_id: id, detail })?;
    Ok(policy)
}

// ---------------------------------------------------------------------------
// Request documents
// ---------------------------------------------------------------------------

/// Serialize a request to an XML document.
#[must_use]
pub fn write_request(request: &Request) -> String {
    let mut doc = DocumentWriter::document();
    doc.start("Request", []);
    for category in AttributeCategory::all() {
        let mut attributes =
            request.attributes.iter().filter(|a| a.category == category).peekable();
        if attributes.peek().is_none() {
            continue;
        }
        doc.start(category.element_name(), []);
        for a in attributes {
            doc.start(
                "Attribute",
                [("AttributeId", &*a.attribute_id), ("DataType", a.value.data_type.uri())],
            );
            doc.text_element("AttributeValue", [], &a.value.text);
            doc.end("Attribute");
        }
        doc.end(category.element_name());
    }
    doc.end("Request");
    doc.out
}

/// Parse a request from an XML document produced by [`write_request`].
///
/// # Errors
/// Returns [`XacmlError`] on XML or structural problems.
pub fn parse_request(xml: &str) -> Result<Request, XacmlError> {
    let root = parse_document(xml)?;
    if root.name != "Request" {
        return Err(XacmlError::XmlStructure(format!("expected <Request>, found <{}>", root.name)));
    }
    let mut request = Request::new();
    for cat_el in &root.children {
        let Some(category) = AttributeCategory::from_element_name(&cat_el.name) else {
            return Err(XacmlError::XmlStructure(format!(
                "unexpected element <{}> inside <Request>",
                cat_el.name
            )));
        };
        for attr_el in cat_el.children_named("Attribute") {
            let attribute_id = attr_el
                .attribute("AttributeId")
                .ok_or_else(|| XacmlError::XmlStructure("Attribute missing AttributeId".into()))?;
            let data_type = attr_el
                .attribute("DataType")
                .map(|uri| {
                    XmlDataType::from_uri(uri)
                        .ok_or_else(|| XacmlError::UnknownDataType(uri.to_string()))
                })
                .transpose()?
                .unwrap_or(XmlDataType::String);
            let text = attr_el
                .first_child("AttributeValue")
                .map(|v| v.text.clone())
                .unwrap_or_else(|| attr_el.text.clone());
            request =
                request.with_attribute(category, attribute_id, AttributeValue { data_type, text });
        }
    }
    request.validate().map_err(XacmlError::InvalidRequest)?;
    Ok(request)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ids;

    #[test]
    fn writer_nests_self_closes_and_escapes() {
        let mut doc = DocumentWriter::default();
        doc.start("R", [("q", "a\"b'<&>")]);
        doc.start("A", [("x", "1")]);
        doc.text_element("B", [], "hello <world>");
        doc.text_element("C", [], "");
        doc.end("A");
        doc.start("D", [("y", "")]);
        doc.end("D");
        doc.end("R");
        assert_eq!(
            doc.finish(),
            "<R q=\"a&quot;b&apos;&lt;&amp;&gt;\">\n  <A x=\"1\">\n    \
             <B>hello &lt;world&gt;</B>\n    <C/>\n  </A>\n  <D y=\"\"/>\n</R>\n"
        );
    }

    #[test]
    fn parse_simple_document() {
        let doc = r#"<?xml version="1.0"?>
            <!-- a comment -->
            <Root a="1" b='two'>
              text
              <Child/>
              <Child key="v&amp;v">nested</Child>
            </Root>"#;
        let root = parse_document(doc).unwrap();
        assert_eq!(root.name, "Root");
        assert_eq!(root.attribute("a"), Some("1"));
        assert_eq!(root.attribute("b"), Some("two"));
        assert_eq!(root.text, "text");
        assert_eq!(root.children_named("Child").len(), 2);
        assert_eq!(root.children_named("Child")[1].attribute("key"), Some("v&v"));
        assert_eq!(root.children_named("Child")[1].text, "nested");
    }

    #[test]
    fn parse_errors() {
        assert!(matches!(parse_document("<A><B></A>"), Err(XacmlError::XmlParse { .. })));
        assert!(matches!(parse_document("<A>"), Err(XacmlError::XmlParse { .. })));
        assert!(matches!(parse_document("<A></A><B/>"), Err(XacmlError::XmlParse { .. })));
        assert!(matches!(parse_document("<A x=1></A>"), Err(XacmlError::XmlParse { .. })));
        assert!(matches!(parse_document("no xml at all"), Err(XacmlError::XmlParse { .. })));
    }

    #[test]
    fn escape_round_trip() {
        let s = "a < b && c > 'd' \"e\"";
        assert_eq!(unescape(&escape(s)), s);
    }

    #[test]
    fn one_pass_unescape_agrees_with_the_replace_chain() {
        let chain = |text: &str| {
            text.replace("&lt;", "<")
                .replace("&gt;", ">")
                .replace("&quot;", "\"")
                .replace("&apos;", "'")
                .replace("&amp;", "&")
        };
        let mut corpus: Vec<String> = [
            "",
            "plain text",
            "&amp;lt;",
            "&&lt;",
            "&lt",
            "a &lt b",
            "trailing &",
            "&",
            "&nbsp;",
            "&#60;",
            "&amp;amp;",
            "&quot;&apos;&gt;&lt;&amp;",
            "&;&lt;;",
            "größer &gt; kleiner, 雨 &amp; 風 ☂",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        corpus.push(escape("a < b && c > 'd' \"e\" &amp; &lt; 雨"));
        corpus.push(escape(&escape("<&>")));
        for text in &corpus {
            assert_eq!(unescape(text), chain(text), "{text:?}");
        }
    }

    fn sample_policy() -> Policy {
        Policy::new("nea-weather-for-lta")
            .with_description("NEA weather for LTA")
            .with_target(Target::subject_resource_action("LTA", "weather", "subscribe"))
            .with_rule(Rule::permit_all("permit"))
            .with_obligation(
                Obligation::on_permit("exacml:obligation:stream-filter")
                    .with_string("pCloud:obligation:stream-filter-condition-id", "rainrate > 5"),
            )
            .with_obligation(
                Obligation::on_permit("exacml:obligation:stream-window")
                    .with_integer("pCloud:obligation:stream-window-step-id", 2)
                    .with_integer("pCloud:obligation:stream-window-size-id", 5)
                    .with_string("pCloud:obligation:stream-window-type-id", "tuple")
                    .with_string("pCloud:obligation:stream-window-attr-id", "rainrate:avg"),
            )
    }

    #[test]
    fn policy_round_trip() {
        let policy = sample_policy();
        let xml = write_policy(&policy);
        assert!(xml.contains("ObligationId=\"exacml:obligation:stream-filter\""));
        assert!(xml.contains("FulfillOn=\"Permit\""));
        assert!(xml.contains("rainrate &gt; 5"));
        let parsed = parse_policy(&xml).unwrap();
        assert_eq!(parsed, policy);
    }

    #[test]
    fn policy_round_trip_preserves_figure2_structure() {
        let xml = write_policy(&sample_policy());
        let parsed = parse_policy(&xml).unwrap();
        let window =
            parsed.obligations.iter().find(|o| o.id == "exacml:obligation:stream-window").unwrap();
        assert_eq!(window.first_integer("pCloud:obligation:stream-window-size-id"), Some(5));
        assert_eq!(window.first_integer("pCloud:obligation:stream-window-step-id"), Some(2));
        assert_eq!(window.first_text("pCloud:obligation:stream-window-type-id"), Some("tuple"));
        assert_eq!(
            window.first_text("pCloud:obligation:stream-window-attr-id"),
            Some("rainrate:avg")
        );
    }

    #[test]
    fn parse_policy_rejects_bad_documents() {
        assert!(matches!(parse_policy("<NotAPolicy/>"), Err(XacmlError::XmlStructure(_))));
        assert!(matches!(
            parse_policy("<Policy><Rule RuleId=\"r\" Effect=\"Permit\"/></Policy>"),
            Err(XacmlError::XmlStructure(_))
        ));
        // Valid XML but no rules → invalid policy.
        assert!(matches!(
            parse_policy("<Policy PolicyId=\"p\"></Policy>"),
            Err(XacmlError::InvalidPolicy { .. })
        ));
    }

    #[test]
    fn request_round_trip() {
        let request = Request::subscribe("LTA", "weather")
            .with_subject(ids::SUBJECT_ROLE, AttributeValue::string("agency"));
        let xml = write_request(&request);
        assert!(xml.contains("<Subject>"));
        assert!(xml.contains("<Resource>"));
        assert!(xml.contains("<Action>"));
        let parsed = parse_request(&xml).unwrap();
        // Serialization groups attributes by category, so compare contents
        // rather than the original insertion order.
        assert_eq!(parsed.attributes.len(), request.attributes.len());
        for attr in &request.attributes {
            assert!(parsed.attributes.contains(attr), "missing {attr:?}");
        }
        assert_eq!(parsed.subject_id(), Some("LTA"));
        assert_eq!(parsed.resource_id(), Some("weather"));
    }

    #[test]
    fn parse_request_rejects_bad_documents() {
        assert!(matches!(parse_request("<Policy/>"), Err(XacmlError::XmlStructure(_))));
        assert!(matches!(
            parse_request("<Request><Bogus/></Request>"),
            Err(XacmlError::XmlStructure(_))
        ));
        assert!(matches!(
            parse_request(
                "<Request><Subject><Attribute DataType=\"x#string\"/></Subject></Request>"
            ),
            Err(XacmlError::XmlStructure(_))
        ));
    }

    #[test]
    fn parsed_policy_evaluates_like_original() {
        use crate::pdp::{Pdp, PolicyStore};
        use std::sync::Arc;
        let xml = write_policy(&sample_policy());
        let parsed = parse_policy(&xml).unwrap();
        let store = Arc::new(PolicyStore::new());
        store.add(parsed).unwrap();
        let pdp = Pdp::new(store);
        let response = pdp.evaluate(&Request::subscribe("LTA", "weather"));
        assert!(response.is_permit());
        assert_eq!(response.obligations.len(), 2);
        assert_eq!(
            pdp.evaluate(&Request::subscribe("EMA", "weather")).decision,
            crate::pdp::Decision::NotApplicable
        );
    }
}
