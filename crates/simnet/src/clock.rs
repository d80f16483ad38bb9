//! Clock abstractions.
//!
//! Experiment binaries measure real elapsed time (PDP evaluation, query-graph
//! manipulation, DSMS deployment) and add simulated network delay on top;
//! unit tests use a manual clock so they are instantaneous and deterministic.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A monotonic clock measured in nanoseconds.
pub trait Clock: Send + Sync {
    /// Nanoseconds elapsed since the clock's epoch.
    fn now_nanos(&self) -> u64;

    /// Convenience view in seconds.
    fn now_secs(&self) -> f64 {
        self.now_nanos() as f64 / 1e9
    }
}

/// Wall-clock time relative to the moment the clock was created.
#[derive(Debug, Clone)]
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// A wall clock starting now.
    #[must_use]
    pub fn new() -> Self {
        WallClock { origin: Instant::now() }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for WallClock {
    fn now_nanos(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// A manually advanced clock for tests, and the fabric's virtual clock.
///
/// One lock-free `u64` shared by every clone: a read is a load and an
/// advance one atomic add. The value publishes nothing else, so relaxed
/// ordering suffices.
#[derive(Debug, Clone, Default)]
pub struct ManualClock {
    nanos: Arc<AtomicU64>,
}

impl ManualClock {
    /// A manual clock at time zero.
    #[must_use]
    pub fn new() -> Self {
        ManualClock::default()
    }

    /// Advance the clock.
    pub fn advance(&self, by: Duration) {
        self.nanos.fetch_add(by.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Set the absolute time in nanoseconds.
    pub fn set_nanos(&self, nanos: u64) {
        self.nanos.store(nanos, Ordering::Relaxed);
    }
}

impl Clock for ManualClock {
    fn now_nanos(&self) -> u64 {
        self.nanos.load(Ordering::Relaxed)
    }
}

/// A clock that combines a real clock with accumulated *simulated* delay —
/// the experiment harness charges simulated network transfers to this
/// account so that measured response times include them.
#[derive(Debug, Clone)]
pub struct SimClock<C: Clock> {
    real: C,
    simulated_extra: Arc<Mutex<u64>>,
}

impl<C: Clock> SimClock<C> {
    /// Wrap a real clock.
    #[must_use]
    pub fn new(real: C) -> Self {
        SimClock { real, simulated_extra: Arc::new(Mutex::new(0)) }
    }

    /// Charge additional simulated time (e.g. a network transfer).
    pub fn charge(&self, delay: Duration) {
        *self.simulated_extra.lock() += delay.as_nanos() as u64;
    }

    /// The accumulated simulated time only.
    #[must_use]
    pub fn simulated_nanos(&self) -> u64 {
        *self.simulated_extra.lock()
    }
}

impl<C: Clock> Clock for SimClock<C> {
    fn now_nanos(&self) -> u64 {
        self.real.now_nanos() + *self.simulated_extra.lock()
    }
}

// Every simnet clock can back a telemetry span, so stage timings can be
// taken against virtual time (deterministic per seed) as easily as against
// the wall. A blanket `impl<C: Clock> SpanClock for C` would forbid other
// crates' clocks, so each concrete clock gets its own impl.
impl exacml_telemetry::SpanClock for WallClock {
    fn now_nanos(&self) -> u64 {
        Clock::now_nanos(self)
    }
}

impl exacml_telemetry::SpanClock for ManualClock {
    fn now_nanos(&self) -> u64 {
        Clock::now_nanos(self)
    }
}

impl<C: Clock> exacml_telemetry::SpanClock for SimClock<C> {
    fn now_nanos(&self) -> u64 {
        Clock::now_nanos(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotonic() {
        let c = WallClock::new();
        let a = c.now_nanos();
        let b = c.now_nanos();
        assert!(b >= a);
    }

    #[test]
    fn manual_clock_advances_only_on_demand() {
        let c = ManualClock::new();
        assert_eq!(c.now_nanos(), 0);
        c.advance(Duration::from_millis(5));
        assert_eq!(c.now_nanos(), 5_000_000);
        c.set_nanos(42);
        assert_eq!(c.now_nanos(), 42);
        assert!((c.now_secs() - 42e-9).abs() < 1e-15);
    }

    #[test]
    fn manual_clock_backs_telemetry_spans() {
        use exacml_telemetry::{Stage, Telemetry};
        let clock = ManualClock::new();
        let telemetry = Telemetry::new();
        {
            let _span = telemetry.span_with(Stage::BrokerRoute, &clock);
            clock.advance(Duration::from_micros(4));
        }
        let snapshot = telemetry.snapshot();
        assert_eq!(snapshot.stage(Stage::BrokerRoute).unwrap().total_nanos, 4_000);
    }

    #[test]
    fn sim_clock_adds_charged_delay() {
        let manual = ManualClock::new();
        let sim = SimClock::new(manual.clone());
        manual.advance(Duration::from_millis(2));
        sim.charge(Duration::from_millis(3));
        assert_eq!(sim.now_nanos(), 5_000_000);
        assert_eq!(sim.simulated_nanos(), 3_000_000);
    }
}
