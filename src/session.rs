//! A consumer session: subject identity + live grants, RAII-released.
//!
//! The paper's client interface hands back raw stream handles and leaves
//! releasing them to the caller; [`Session`] replaces that bookkeeping. It
//! owns the requesting subject's identity and every handle the subject was
//! granted through it, releases them all when dropped (so a crashed or
//! finished consumer never leaks live query graphs), and works against
//! **any** backend because it only speaks `dyn Backend`.

use exacml_plus::{Backend, BackendResponse, ExacmlError, PlanId, UserQuery, Warning};
use exacml_xacml::Request;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

use crate::query::QuerySubscription;
use exacml_dsms::StreamHandle;

/// What a session remembers about one of its grants: the handle plus the
/// identity [`QuerySubscription`] exposes when re-attaching by bare name.
#[derive(Debug, Clone)]
struct Granted {
    handle: StreamHandle,
    plan: PlanId,
    warnings: Vec<Warning>,
}

/// A data consumer's session against one backend.
///
/// ```
/// use exacml::prelude::*;
/// use exacml::exacml_dsms::Schema;
///
/// let backend = BackendBuilder::local().build();
/// backend.register_stream("weather", Schema::weather_example()).unwrap();
/// backend
///     .load_policy(
///         StreamPolicyBuilder::new("p", "weather").subject("LTA").filter("rainrate > 5").build(),
///     )
///     .unwrap();
///
/// {
///     let session = Session::new(backend.clone(), "LTA");
///     let granted = session.request_access("weather", None).unwrap();
///     assert!(backend.handle_is_live(granted.handle()));
/// } // ← dropping the session releases the access
/// assert_eq!(backend.live_deployments(), 0);
/// ```
pub struct Session {
    backend: Arc<dyn Backend>,
    subject: String,
    /// Canonical (lowercased) stream name → the live grant held on it.
    grants: Mutex<HashMap<String, Granted>>,
}

impl Session {
    /// Open a session for `subject` on a backend.
    #[must_use]
    pub fn new(backend: Arc<dyn Backend>, subject: impl Into<String>) -> Self {
        Session { backend, subject: subject.into(), grants: Mutex::new(HashMap::new()) }
    }

    /// The subject this session requests access as.
    #[must_use]
    pub fn subject(&self) -> &str {
        &self.subject
    }

    /// The backend this session runs against.
    #[must_use]
    pub fn backend(&self) -> &Arc<dyn Backend> {
        &self.backend
    }

    fn canonical(stream: &str) -> String {
        stream.to_ascii_lowercase()
    }

    /// Request access to a stream, optionally refined by a customised query
    /// (the Section 3.2 workflow). The granted handle is tracked by the
    /// session and released when the session drops.
    ///
    /// ```
    /// use exacml::prelude::*;
    /// use exacml::exacml_dsms::{Schema, Tuple, Value};
    ///
    /// let backend = BackendBuilder::local().build();
    /// backend.register_stream("weather", Schema::weather_example())?;
    /// backend.load_policy(
    ///     StreamPolicyBuilder::new("p", "weather").subject("LTA").filter("rainrate > 5").build(),
    /// )?;
    ///
    /// let session = Session::new(backend.clone(), "LTA");
    /// session.request_access("weather", None)?;
    /// let mut subscription = session.subscribe("weather")?;
    ///
    /// let schema = Schema::weather_example().shared();
    /// let heavy_rain = Tuple::builder_shared(&schema)
    ///     .set("samplingtime", Value::Timestamp(0))
    ///     .set("rainrate", 12.0)
    ///     .finish_with_defaults();
    /// backend.push("weather", heavy_rain)?;
    /// assert_eq!(subscription.drain().len(), 1); // passed the policy filter
    /// # Ok::<(), exacml::prelude::ExacmlError>(())
    /// ```
    ///
    /// # Errors
    /// Propagates denial, conflict and substrate errors from the backend.
    pub fn request_access(
        &self,
        stream: &str,
        user_query: Option<&UserQuery>,
    ) -> Result<BackendResponse, ExacmlError> {
        let request = Request::subscribe(&self.subject, stream);
        let response = self.backend.handle_request(&request, user_query)?;
        self.grants.lock().insert(
            Session::canonical(stream),
            Granted {
                handle: response.handle().clone(),
                plan: response.response.plan,
                warnings: response.response.warnings.clone(),
            },
        );
        Ok(response)
    }

    /// The live handle this session holds on a stream, if any.
    #[must_use]
    pub fn handle_for(&self, stream: &str) -> Option<StreamHandle> {
        self.grants.lock().get(&Session::canonical(stream)).map(|g| g.handle.clone())
    }

    /// Attach to the grant this session already holds on `stream` (the
    /// bare-name [`Session::subscribe`] shape — see `crate::query`).
    pub(crate) fn attach(&self, stream: &str) -> Result<QuerySubscription, ExacmlError> {
        let granted = self
            .grants
            .lock()
            .get(&Session::canonical(stream))
            .cloned()
            .ok_or_else(|| ExacmlError::UnknownHandle(format!("<no grant on '{stream}'>")))?;
        let inner = self.backend.subscribe(&granted.handle)?;
        Ok(QuerySubscription::new(inner, granted.handle, granted.plan, granted.warnings))
    }

    /// Release the access this session holds on a stream. Returns `true`
    /// when something was released; releasing a stream this session never
    /// acquired (or already released) is a no-op — another session's grant
    /// for the same subject is never touched.
    pub fn release(&self, stream: &str) -> bool {
        if self.grants.lock().remove(&Session::canonical(stream)).is_none() {
            return false;
        }
        self.backend.release_access(&self.subject, stream)
    }

    /// Release every access this session still holds; returns how many
    /// releases actually withdrew something.
    pub fn release_all(&self) -> usize {
        let grants: Vec<String> = self.grants.lock().drain().map(|(stream, _)| stream).collect();
        grants
            .into_iter()
            .filter(|stream| self.backend.release_access(&self.subject, stream))
            .count()
    }

    /// The handles this session currently tracks that are still live on the
    /// backend (a policy change may have withdrawn some server-side).
    #[must_use]
    pub fn live_handles(&self) -> Vec<StreamHandle> {
        self.grants
            .lock()
            .values()
            .filter(|granted| self.backend.handle_is_live(&granted.handle))
            .map(|granted| granted.handle.clone())
            .collect()
    }
}

impl Drop for Session {
    /// RAII: a finished consumer releases everything it held, withdrawing
    /// the backing deployments.
    fn drop(&mut self) {
        self.release_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::BackendBuilder;
    use exacml_dsms::Schema;
    use exacml_plus::StreamPolicyBuilder;

    fn prepared_backend() -> Arc<dyn Backend> {
        let backend = BackendBuilder::local().build();
        backend.register_stream("weather", Schema::weather_example()).unwrap();
        backend
            .load_policy(
                StreamPolicyBuilder::new("p", "weather")
                    .subject("LTA")
                    .filter("rainrate > 5")
                    .build(),
            )
            .unwrap();
        backend
    }

    #[test]
    fn session_tracks_grants_and_releases_explicitly() {
        let backend = prepared_backend();
        let session = Session::new(backend.clone(), "LTA");
        assert_eq!(session.subject(), "LTA");
        assert!(session.handle_for("weather").is_none());
        assert!(matches!(session.subscribe("weather"), Err(ExacmlError::UnknownHandle(_))));

        let granted = session.request_access("weather", None).unwrap();
        assert_eq!(session.handle_for("weather").as_ref(), Some(granted.handle()));
        assert_eq!(session.live_handles().len(), 1);
        let mut subscription = session.subscribe("weather").unwrap();
        assert!(subscription.drain().is_empty());

        assert!(session.release("weather"));
        assert!(!session.release("weather"));
        assert!(session.live_handles().is_empty());
        assert_eq!(backend.live_deployments(), 0);
    }

    #[test]
    fn dropping_the_session_releases_everything() {
        let backend = prepared_backend();
        {
            let session = Session::new(backend.clone(), "LTA");
            session.request_access("weather", None).unwrap();
            assert_eq!(backend.live_deployments(), 1);
        }
        assert_eq!(backend.live_deployments(), 0);
        // The subject can immediately open a different query.
        let session = Session::new(backend, "LTA");
        assert!(session.request_access("weather", None).is_ok());
    }
}
