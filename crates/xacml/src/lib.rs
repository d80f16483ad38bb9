//! # exacml-xacml — an XACML subset engine
//!
//! The eXACML+ framework builds on the OASIS **XACML** access-control
//! standard: data owners write policies whose *targets* say who may access
//! which resource with which action, a **Policy Decision Point (PDP)**
//! evaluates incoming requests against the stored policies and returns a
//! Permit/Deny decision together with a set of **obligations**, and a
//! **Policy Enforcement Point (PEP)** marshals requests and enforces the
//! obligations (Section 2.1 of the paper). The paper's key trick is to embed
//! the fine-grained stream constraints inside the obligations block
//! (Figure 2).
//!
//! The original prototype extends Sun's Java XACML implementation; this crate
//! is a from-scratch Rust implementation of the subset the framework needs:
//!
//! * the attribute / target / rule / policy model ([`attribute`], [`policy`]),
//! * requests carrying subject, resource and action attributes ([`request`]),
//! * obligations with attribute assignments ([`obligation`]),
//! * a first-applicable PDP with a thread-safe policy store ([`pdp`]),
//! * an XML reader/writer for policy and request documents in the same shape
//!   as the paper's Figure 2 ([`xml`]).

pub mod attribute;
pub mod error;
pub mod obligation;
pub mod pdp;
pub mod policy;
pub mod repository;
pub mod request;
pub mod xml;

pub use attribute::{AttributeCategory, AttributeValue, XmlDataType};
pub use error::XacmlError;
pub use obligation::{AttributeAssignment, Obligation};
pub use pdp::{Decision, DecisionResponse, Pdp, PolicyStore};
pub use policy::{AttributeMatch, Effect, Policy, Rule, RuleCombiningAlg, Target};
pub use repository::{PolicyRepository, RepositoryError};
pub use request::Request;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::attribute::{AttributeCategory, AttributeValue, XmlDataType};
    pub use crate::error::XacmlError;
    pub use crate::obligation::{AttributeAssignment, Obligation};
    pub use crate::pdp::{Decision, DecisionResponse, Pdp, PolicyStore};
    pub use crate::policy::{AttributeMatch, Effect, Policy, Rule, RuleCombiningAlg, Target};
    pub use crate::request::Request;
}
