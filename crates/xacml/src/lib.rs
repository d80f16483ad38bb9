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
//! * the attribute / target / rule / policy model ([`AttributeValue`],
//!   [`Policy`]),
//! * requests carrying subject, resource and action attributes ([`Request`]),
//! * obligations with attribute assignments ([`Obligation`]),
//! * a first-applicable PDP with a thread-safe policy store ([`Pdp`]),
//! * an XML reader/writer for policy and request documents in the same shape
//!   as the paper's Figure 2 ([`xml`]).

#![warn(unreachable_pub)]

mod attribute;
mod error;
mod obligation;
mod pdp;
mod policy;
mod repository;
mod request;
pub mod xml;

pub use attribute::{AttributeCategory, AttributeValue, XmlDataType};
pub use error::XacmlError;
pub use obligation::{AttributeAssignment, Obligation};
pub use pdp::{Decision, DecisionResponse, Pdp, PolicyStore};
pub use policy::{AttributeMatch, Effect, Policy, Rule, RuleCombiningAlg, Target};
pub use repository::{PolicyRepository, RepositoryError};
pub use request::{ids as request_ids, Request, RequestAttribute};
