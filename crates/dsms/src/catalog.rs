//! Stream catalog and stream handles.
//!
//! The eXACML+ framework never returns raw data to a client: a successful
//! request yields a **stream handle** — a unique resource identifier (URI)
//! pointing at the processed output stream inside the DSMS (Section 1,
//! contribution 2). The catalog tracks registered input streams and the
//! handles of deployed output streams.

use crate::error::DsmsError;
use crate::schema::Schema;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A unique resource identifier for a (derived) data stream,
/// e.g. `exacml://dsms-host/streams/42`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StreamHandle(String);

impl StreamHandle {
    /// Wrap an existing URI string.
    pub fn from_uri(uri: impl Into<String>) -> Self {
        StreamHandle(uri.into())
    }

    /// Mint a new handle for the given host and serial number.
    #[must_use]
    pub fn mint(host: &str, serial: u64) -> Self {
        StreamHandle(format!("exacml://{host}/streams/{serial}"))
    }

    /// The URI string.
    #[must_use]
    pub fn uri(&self) -> &str {
        &self.0
    }

    /// The serial number the handle was minted with — the trailing path
    /// segment of a `exacml://host/streams/<serial>` URI. `None` for foreign
    /// URIs that do not follow the minted shape. Recovery journals record
    /// this so a replay can re-mint the identical URI.
    #[must_use]
    pub fn serial(&self) -> Option<u64> {
        self.0.rsplit('/').next()?.parse().ok()
    }
}

impl fmt::Display for StreamHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Thread-safe registry of input streams and minted output handles.
#[derive(Debug, Default)]
pub struct StreamCatalog {
    host: String,
    streams: RwLock<HashMap<String, Arc<Schema>>>,
    handles: RwLock<HashMap<StreamHandle, String>>,
    serial: AtomicU64,
}

impl StreamCatalog {
    /// Create a catalog for the given DSMS host name (used in handle URIs).
    #[must_use]
    pub fn new(host: impl Into<String>) -> Self {
        StreamCatalog {
            host: host.into(),
            streams: RwLock::new(HashMap::new()),
            handles: RwLock::new(HashMap::new()),
            serial: AtomicU64::new(0),
        }
    }

    /// Register an input stream.
    ///
    /// # Errors
    /// Fails when the name is taken or the schema is invalid.
    pub fn register(&self, name: &str, schema: Schema) -> Result<Arc<Schema>, DsmsError> {
        schema.validate().map_err(DsmsError::InvalidGraph)?;
        let mut streams = self.streams.write();
        if streams.contains_key(name) {
            return Err(DsmsError::StreamAlreadyExists(name.to_string()));
        }
        let shared = schema.shared();
        streams.insert(name.to_string(), Arc::clone(&shared));
        Ok(shared)
    }

    /// Schema of a registered stream.
    ///
    /// # Errors
    /// Fails when the stream is unknown.
    pub fn schema_of(&self, name: &str) -> Result<Arc<Schema>, DsmsError> {
        self.streams
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| DsmsError::UnknownStream(name.to_string()))
    }

    /// Whether a stream of this name is registered.
    #[must_use]
    pub fn contains(&self, name: &str) -> bool {
        self.streams.read().contains_key(name)
    }

    /// Names of all registered streams (sorted for deterministic output).
    #[must_use]
    pub fn stream_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.streams.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Mint a fresh handle associated with a description (usually the name of
    /// the deployment's output stream).
    pub fn mint_handle(&self, description: impl Into<String>) -> StreamHandle {
        let serial = self.serial.fetch_add(1, Ordering::Relaxed);
        let handle = StreamHandle::mint(&self.host, serial);
        self.handles.write().insert(handle.clone(), description.into());
        handle
    }

    /// Recovery hook: adopt a specific handle URI instead of minting a fresh
    /// serial. A recovering server re-attaches each journaled grant under the
    /// exact handle its consumer holds (the journal records the URI), then
    /// advances the serial counter past everything ever minted with
    /// [`StreamCatalog::resume_serial_at`].
    ///
    /// # Errors
    /// Fails when a live handle already owns the URI.
    pub fn adopt_handle(
        &self,
        handle: StreamHandle,
        description: impl Into<String>,
    ) -> Result<(), DsmsError> {
        let mut handles = self.handles.write();
        if handles.contains_key(&handle) {
            return Err(DsmsError::StreamAlreadyExists(handle.uri().to_string()));
        }
        handles.insert(handle, description.into());
        Ok(())
    }

    /// Recovery hook: resume handle-serial minting at `serial` (no-op when
    /// the counter is already past it). A recovering server replays each
    /// surviving deployment with the serial it held before the crash, then
    /// advances the counter past the largest serial ever minted so released
    /// handles are never re-issued to a different deployment.
    pub fn resume_serial_at(&self, serial: u64) {
        self.serial.fetch_max(serial, Ordering::Relaxed);
    }

    /// Forget a handle (when its deployment is withdrawn).
    pub fn release_handle(&self, handle: &StreamHandle) {
        self.handles.write().remove(handle);
    }

    /// Whether the handle is still live.
    #[must_use]
    pub fn handle_is_live(&self, handle: &StreamHandle) -> bool {
        self.handles.read().contains_key(handle)
    }

    /// Number of live handles.
    #[cfg(test)]
    pub(crate) fn live_handles(&self) -> usize {
        self.handles.read().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType;

    #[test]
    fn register_and_lookup() {
        let catalog = StreamCatalog::new("dsms-host");
        catalog.register("weather", Schema::weather_example()).unwrap();
        assert!(catalog.contains("weather"));
        assert_eq!(catalog.schema_of("weather").unwrap().len(), 8);
        assert_eq!(catalog.stream_names(), vec!["weather".to_string()]);
        assert!(!catalog.contains("rain"));
        assert!(matches!(catalog.schema_of("rain"), Err(DsmsError::UnknownStream(_))));
    }

    #[test]
    fn duplicate_registration_rejected() {
        let catalog = StreamCatalog::new("h");
        catalog.register("s", Schema::weather_example()).unwrap();
        assert!(matches!(
            catalog.register("s", Schema::weather_example()),
            Err(DsmsError::StreamAlreadyExists(_))
        ));
    }

    #[test]
    fn invalid_schema_rejected() {
        let catalog = StreamCatalog::new("h");
        let bad = Schema::from_pairs([("a", DataType::Int), ("a", DataType::Int)]);
        assert!(catalog.register("s", bad).is_err());
    }

    #[test]
    fn handles_are_unique_uris() {
        let catalog = StreamCatalog::new("dsms-host");
        let h1 = catalog.mint_handle("out-1");
        let h2 = catalog.mint_handle("out-2");
        assert_ne!(h1, h2);
        assert!(h1.uri().starts_with("exacml://dsms-host/streams/"));
        assert!(catalog.handle_is_live(&h1));
        assert_eq!(catalog.live_handles(), 2);
        catalog.release_handle(&h1);
        assert!(!catalog.handle_is_live(&h1));
        assert_eq!(catalog.live_handles(), 1);
    }

    #[test]
    fn a_handle_displays_as_its_uri() {
        let h = StreamHandle::from_uri("exacml://h/streams/1");
        assert_eq!(h.to_string(), "exacml://h/streams/1");
        assert_eq!(h.serial(), Some(1));
    }
}
