//! Synthetic stream feeds.
//!
//! The paper's DSMS "maintains a few real-time data streams from various
//! projects, such as weather data feeds from a number of mini weather
//! stations producing weather records at one-minute intervals" and "GPS
//! track information from personal mobile devices". We cannot replay those
//! proprietary feeds, so these generators produce synthetic tuples with the
//! same schemas and cadence; the access-control evaluation never depends on
//! the actual values.

use exacml_dsms::{Schema, Tuple, Value};
use exacml_plus::{ExacmlError, StreamBackend};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A synthetic weather-station feed (Example 1 schema, one record per
/// sampling interval).
#[derive(Debug, Clone)]
pub struct WeatherFeed {
    schema: Arc<Schema>,
    rng: StdRng,
    next_ts: i64,
    interval_ms: i64,
    /// Base rain rate; bursts are added on top to exercise filter thresholds.
    base_rain: f64,
}

impl WeatherFeed {
    /// A feed emitting one record every `interval_ms` milliseconds.
    #[must_use]
    pub fn new(seed: u64, interval_ms: i64) -> Self {
        WeatherFeed {
            schema: Schema::weather_example().shared(),
            rng: StdRng::seed_from_u64(seed),
            next_ts: 0,
            interval_ms,
            base_rain: 2.0,
        }
    }

    /// The paper's 30-second weather feed.
    #[must_use]
    pub fn paper_default(seed: u64) -> Self {
        WeatherFeed::new(seed, 30_000)
    }

    /// The stream's schema.
    #[must_use]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Generate the next record.
    pub fn next_tuple(&mut self) -> Tuple {
        let ts = self.next_ts;
        self.next_ts += self.interval_ms;
        // Rain: mostly light with occasional heavy bursts (so both sides of
        // the `rainrate > 5` / `> 50` thresholds are exercised).
        let burst = if self.rng.gen_bool(0.15) { self.rng.gen_range(20.0..90.0_f64) } else { 0.0 };
        let rain = (self.base_rain + self.rng.gen_range(0.0..4.0_f64) + burst).max(0.0);
        Tuple::builder_shared(&self.schema)
            .set("samplingtime", Value::Timestamp(ts))
            .set("temperature", 24.0 + self.rng.gen_range(0.0..10.0))
            .set("humidity", 60.0 + self.rng.gen_range(0.0..35.0))
            .set("solarradiation", self.rng.gen_range(0.0..900.0))
            .set("rainrate", rain)
            .set("windspeed", self.rng.gen_range(0.0..40.0))
            .set("winddirection", i64::from(self.rng.gen_range(0..360)))
            .set("barometer", 1000.0 + self.rng.gen_range(0.0..30.0))
            .finish()
            .expect("generated weather tuples always match the schema")
    }

    /// Generate a batch of records.
    pub fn take(&mut self, count: usize) -> Vec<Tuple> {
        (0..count).map(|_| self.next_tuple()).collect()
    }

    /// Generate `count` records and push them into any [`StreamBackend`] —
    /// a bare `StreamEngine`, a `DataServer`, a `Fabric`, or a
    /// `&dyn Backend` — as one batch (a single routing decision and shard
    /// lock acquisition). Returns the number of derived tuples emitted.
    ///
    /// # Errors
    /// Fails when the stream is unknown on the backend or its schema
    /// differs from the feed's.
    pub fn pump_into<B: StreamBackend + ?Sized>(
        &mut self,
        backend: &B,
        stream: &str,
        count: usize,
    ) -> Result<usize, ExacmlError> {
        let batch = self.take(count);
        backend.push_batch(stream, batch)
    }
}

/// A synthetic GPS-track feed.
#[derive(Debug, Clone)]
pub struct GpsFeed {
    schema: Arc<Schema>,
    rng: StdRng,
    next_ts: i64,
    interval_ms: i64,
    latitude: f64,
    longitude: f64,
    device: String,
}

impl GpsFeed {
    /// A feed for one device emitting a fix every `interval_ms` milliseconds.
    pub fn new(seed: u64, device: impl Into<String>, interval_ms: i64) -> Self {
        GpsFeed {
            schema: Schema::gps_example().shared(),
            rng: StdRng::seed_from_u64(seed),
            next_ts: 0,
            interval_ms,
            // Start near the NTU campus, where the authors' testbed lived.
            latitude: 1.3483,
            longitude: 103.6831,
            device: device.into(),
        }
    }

    /// The stream's schema.
    #[must_use]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Generate the next fix (a small random walk).
    pub fn next_tuple(&mut self) -> Tuple {
        let ts = self.next_ts;
        self.next_ts += self.interval_ms;
        self.latitude += self.rng.gen_range(-0.0005..0.0005);
        self.longitude += self.rng.gen_range(-0.0005..0.0005);
        Tuple::builder_shared(&self.schema)
            .set("samplingtime", Value::Timestamp(ts))
            .set("deviceid", self.device.clone())
            .set("latitude", self.latitude)
            .set("longitude", self.longitude)
            .set("speed", self.rng.gen_range(0.0..110.0))
            .set("heading", i64::from(self.rng.gen_range(0..360)))
            .finish()
            .expect("generated GPS tuples always match the schema")
    }

    /// Generate a batch of fixes.
    pub fn take(&mut self, count: usize) -> Vec<Tuple> {
        (0..count).map(|_| self.next_tuple()).collect()
    }

    /// Generate `count` fixes and push them into any [`StreamBackend`] as
    /// one batch (a single routing decision and shard lock acquisition).
    /// Returns the number of derived tuples emitted.
    ///
    /// # Errors
    /// Fails when the stream is unknown on the backend or its schema
    /// differs from the feed's.
    pub fn pump_into<B: StreamBackend + ?Sized>(
        &mut self,
        backend: &B,
        stream: &str,
        count: usize,
    ) -> Result<usize, ExacmlError> {
        let batch = self.take(count);
        backend.push_batch(stream, batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weather_feed_produces_valid_monotone_tuples() {
        let mut feed = WeatherFeed::paper_default(1);
        let batch = feed.take(100);
        assert_eq!(batch.len(), 100);
        for pair in batch.windows(2) {
            assert_eq!(pair[1].event_time().unwrap() - pair[0].event_time().unwrap(), 30_000);
        }
        // Values stay in plausible ranges and exercise the rain threshold.
        assert!(batch.iter().all(|t| t.get_f64("rainrate").unwrap() >= 0.0));
        assert!(batch.iter().any(|t| t.get_f64("rainrate").unwrap() > 5.0));
        assert!(batch.iter().any(|t| t.get_f64("rainrate").unwrap() <= 5.0));
    }

    #[test]
    fn weather_feed_is_deterministic_per_seed() {
        let a = WeatherFeed::paper_default(7).take(10);
        let b = WeatherFeed::paper_default(7).take(10);
        let c = WeatherFeed::paper_default(8).take(10);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn gps_feed_random_walks_near_start() {
        let mut feed = GpsFeed::new(3, "device-42", 1_000);
        let batch = feed.take(50);
        assert_eq!(batch.len(), 50);
        for t in &batch {
            assert_eq!(t.get("deviceid").unwrap().as_str(), Some("device-42"));
            let lat = t.get_f64("latitude").unwrap();
            assert!((lat - 1.3483).abs() < 0.1);
        }
    }

    #[test]
    fn feeds_match_registered_schemas() {
        let engine = exacml_dsms::StreamEngine::new();
        let mut weather = WeatherFeed::paper_default(1);
        let mut gps = GpsFeed::new(2, "d", 1000);
        engine.register_stream("weather", weather.schema().clone()).unwrap();
        engine.register_stream("gps", gps.schema().clone()).unwrap();
        engine.push("weather", weather.next_tuple()).unwrap();
        engine.push("gps", gps.next_tuple()).unwrap();
    }

    #[test]
    fn feeds_pump_batches_through_the_fabric() {
        use exacml_plus::{Fabric, FabricConfig};
        let fabric = Fabric::new(FabricConfig::local(3));
        let mut weather = WeatherFeed::paper_default(1);
        let mut gps = GpsFeed::new(2, "d", 1000);
        // Several streams so more than one node owns data.
        for i in 0..6 {
            fabric.register_stream(&format!("weather{i}"), weather.schema().clone()).unwrap();
        }
        fabric.register_stream("gps", gps.schema().clone()).unwrap();
        for i in 0..6 {
            assert_eq!(weather.pump_into(&fabric, &format!("weather{i}"), 20).unwrap(), 0);
        }
        assert_eq!(gps.pump_into(&fabric, "gps", 10).unwrap(), 0);
        let ingested: u64 = fabric.telemetry().nodes[1..]
            .iter()
            .map(|part| part.counter(exacml_telemetry::Metric::TuplesIngested))
            .sum();
        assert_eq!(ingested, 6 * 20 + 10);
        assert!(weather.pump_into(&fabric, "nosuch", 1).is_err());
    }

    #[test]
    fn one_feed_pumps_every_backend_shape_through_the_trait() {
        use exacml_plus::Backend;
        let mut weather = WeatherFeed::paper_default(1);
        for backend in [<dyn Backend>::local(), <dyn Backend>::fabric(2)] {
            backend.register_stream("weather", weather.schema().clone()).unwrap();
            // The very same call drives a single server and a 2-node fabric.
            assert_eq!(weather.pump_into(backend.as_ref(), "weather", 30).unwrap(), 0);
        }
    }

    #[test]
    fn feeds_pump_batches_into_the_engine() {
        let engine = exacml_dsms::StreamEngine::new();
        let mut weather = WeatherFeed::paper_default(1);
        let mut gps = GpsFeed::new(2, "d", 1000);
        engine.register_stream("weather", weather.schema().clone()).unwrap();
        engine.register_stream("gps", gps.schema().clone()).unwrap();
        engine.deploy(&exacml_dsms::QueryGraph::identity("weather")).unwrap();
        let emitted = weather.pump_into(&engine, "weather", 50).unwrap();
        assert_eq!(emitted, 50);
        assert_eq!(gps.pump_into(&engine, "gps", 10).unwrap(), 0);
        let ingested = engine.telemetry_handle().counter(exacml_telemetry::Metric::TuplesIngested);
        assert_eq!(ingested, 60);
        assert!(weather.pump_into(&engine, "nosuch", 1).is_err());
    }
}
