//! The virtual clock.
//!
//! The fabric's virtual clock is a [`ManualClock`]: it advances only when
//! the broker or a test moves it, so simulated time is a function of the
//! calls made and never mixes with wall time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

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

    /// Nanoseconds elapsed since time zero.
    #[must_use]
    pub fn now_nanos(&self) -> u64 {
        self.nanos.load(Ordering::Relaxed)
    }

    /// Advance the clock.
    pub fn advance(&self, by: Duration) {
        self.nanos.fetch_add(by.as_nanos() as u64, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_advances_only_on_demand() {
        let c = ManualClock::new();
        assert_eq!(c.now_nanos(), 0);
        c.advance(Duration::from_millis(5));
        assert_eq!(c.now_nanos(), 5_000_000);
        c.clone().advance(Duration::from_nanos(42));
        assert_eq!(c.now_nanos(), 5_000_042, "clones share one clock");
    }
}
