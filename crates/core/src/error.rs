//! Error types of the eXACML+ framework.

use crate::warnings::Warning;
use exacml_dsms::DsmsError;
use exacml_xacml::XacmlError;
use std::fmt;

/// Errors produced by the framework.
#[derive(Debug, Clone, PartialEq)]
pub enum ExacmlError {
    /// The PDP denied the request (or no policy applied).
    AccessDenied { decision: String, detail: String },
    /// The requester already holds a different live query on the same stream
    /// (Section 3.4 — only a single access per user per stream is allowed).
    MultipleAccess { subject: String, stream: String },
    /// Merging the policy graph with the user query raised warnings and the
    /// server is configured not to deploy in that case (Section 3.2 step 5).
    ConflictDetected { warnings: Vec<Warning> },
    /// The user query and the policy refer to different streams.
    StreamMismatch { requested: String, query: String },
    /// The user query asked for an aggregation window finer than the policy
    /// allows (Section 3.1 merge condition 2).
    WindowTooFine { detail: String },
    /// A user query document was malformed.
    InvalidUserQuery(String),
    /// An obligation could not be translated into a stream operator.
    BadObligation { obligation_id: String, detail: String },
    /// Request is missing a mandatory attribute (e.g. the resource id).
    IncompleteRequest(String),
    /// An error bubbled up from the DSMS substrate.
    Dsms(DsmsError),
    /// An error bubbled up from the XACML substrate.
    Xacml(XacmlError),
    /// The referenced stream handle is unknown or no longer live.
    UnknownHandle(String),
    /// The durability layer failed: a journal or snapshot could not be
    /// written, or a persisted store could not be read back into a
    /// consistent server state.
    Durability(String),
    /// A fabric node could not be reached: it is declared dead, crashed, or
    /// sits behind a dropped link / partition, and the broker exhausted its
    /// retry budget. The variant replaces what used to be a panic or a
    /// silent drop on the broker→node hop.
    NodeUnavailable {
        /// The unreachable node, in display form (e.g. `server-2`).
        node: String,
        /// Why the broker gave up (dead, partitioned, retries exhausted…).
        detail: String,
    },
}

impl fmt::Display for ExacmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExacmlError::AccessDenied { decision, detail } => {
                write!(f, "access denied ({decision}): {detail}")
            }
            ExacmlError::MultipleAccess { subject, stream } => write!(
                f,
                "subject '{subject}' already holds a different live query on stream '{stream}' \
                 (multiple aggregation windows would allow reconstructing the raw stream)"
            ),
            ExacmlError::ConflictDetected { warnings } => {
                write!(f, "query/policy conflict: {} warning(s)", warnings.len())
            }
            ExacmlError::StreamMismatch { requested, query } => write!(
                f,
                "the request asks for stream '{requested}' but the user query targets '{query}'"
            ),
            ExacmlError::WindowTooFine { detail } => {
                write!(f, "requested window is finer than the policy allows: {detail}")
            }
            ExacmlError::InvalidUserQuery(detail) => write!(f, "invalid user query: {detail}"),
            ExacmlError::BadObligation { obligation_id, detail } => {
                write!(f, "obligation '{obligation_id}' cannot be translated: {detail}")
            }
            ExacmlError::IncompleteRequest(detail) => write!(f, "incomplete request: {detail}"),
            ExacmlError::Dsms(e) => write!(f, "DSMS error: {e}"),
            ExacmlError::Xacml(e) => write!(f, "XACML error: {e}"),
            ExacmlError::UnknownHandle(uri) => write!(f, "unknown stream handle '{uri}'"),
            ExacmlError::Durability(detail) => write!(f, "durability error: {detail}"),
            ExacmlError::NodeUnavailable { node, detail } => {
                write!(f, "fabric node '{node}' is unavailable: {detail}")
            }
        }
    }
}

impl std::error::Error for ExacmlError {}

impl From<DsmsError> for ExacmlError {
    /// A dead or foreign handle is [`ExacmlError::UnknownHandle`] on every
    /// backend, whichever layer noticed.
    fn from(e: DsmsError) -> Self {
        match e {
            DsmsError::UnknownHandle(uri) => ExacmlError::UnknownHandle(uri),
            other => ExacmlError::Dsms(other),
        }
    }
}

impl From<XacmlError> for ExacmlError {
    fn from(e: XacmlError) -> Self {
        ExacmlError::Xacml(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ExacmlError::MultipleAccess { subject: "LTA".into(), stream: "weather".into() };
        assert!(e.to_string().contains("LTA"));
        assert!(e.to_string().contains("weather"));
        let e = ExacmlError::ConflictDetected { warnings: vec![] };
        assert!(e.to_string().contains("0 warning"));
    }

    #[test]
    fn substrate_errors_convert() {
        let e: ExacmlError = DsmsError::UnknownStream("s".into()).into();
        assert!(matches!(e, ExacmlError::Dsms(_)));
        let e: ExacmlError = XacmlError::UnknownPolicy("p".into()).into();
        assert!(matches!(e, ExacmlError::Xacml(_)));
    }
}
