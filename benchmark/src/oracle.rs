//! The correctness oracle: a small model of what the program must answer,
//! independent of the program's own bookkeeping. Every disagreement is one
//! failed operation; any failure makes the run incorrect and the exit code
//! non-zero.

use crate::world::{probe_stamp, TapKind};
use exacml::exacml_dsms::Tuple;
use exacml::prelude::{BackendResponse, ExacmlError};
use std::collections::VecDeque;

/// The outcome class of one access request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// A fresh grant (`reused == false`).
    Grant,
    /// The live handle handed back for an identical re-request.
    Reuse,
    /// The PDP did not permit.
    Deny,
    /// Section 3.4: a different query is already live for this subject.
    GuardBlock,
    /// Anything else — never expected.
    Error,
}

pub fn classify(result: &Result<BackendResponse, ExacmlError>) -> Outcome {
    match result {
        Ok(granted) if granted.response.reused => Outcome::Reuse,
        Ok(_) => Outcome::Grant,
        Err(ExacmlError::AccessDenied { .. }) => Outcome::Deny,
        Err(ExacmlError::MultipleAccess { .. }) => Outcome::GuardBlock,
        Err(_) => Outcome::Error,
    }
}

/// Which grants the request lane holds: one slot per corpus entry (each has
/// its own subject), the query variant it was granted with, and grant order
/// so the oldest can be released beyond the cap.
pub struct RequestModel {
    live: Vec<Option<bool>>,
    order: VecDeque<usize>,
    cap: usize,
}

impl RequestModel {
    pub fn new(entries: usize, cap: usize) -> Self {
        RequestModel { live: vec![None; entries], order: VecDeque::new(), cap }
    }

    /// What the program must answer to entry `entry` asking with the
    /// `refined` variant (`None`: a subject no policy names).
    pub fn predict(&self, entry: Option<usize>, refined: bool) -> Outcome {
        match entry.map(|e| self.live[e]) {
            None => Outcome::Deny,
            Some(None) => Outcome::Grant,
            Some(Some(held)) if held == refined => Outcome::Reuse,
            Some(Some(_)) => Outcome::GuardBlock,
        }
    }

    /// Record a fresh grant; returns the entry to release, if the cap is
    /// now exceeded.
    pub fn granted(&mut self, entry: usize, refined: bool) -> Option<usize> {
        self.live[entry] = Some(refined);
        self.order.push_back(entry);
        if self.order.len() > self.cap {
            let oldest = self.order.pop_front().expect("order is non-empty");
            self.live[oldest] = None;
            Some(oldest)
        } else {
            None
        }
    }

    #[cfg(test)]
    pub fn live_count(&self) -> usize {
        self.order.len()
    }
}

/// Cumulative outputs of a tuple window of `size` advancing by `advance`
/// after `passing` tuples reached it.
pub fn windows_closed(passing: u64, size: u64, advance: u64) -> u64 {
    if passing < size {
        0
    } else {
        (passing - size) / advance + 1
    }
}

/// The model of one standing subscriber.
pub struct TapOracle {
    kind: TapKind,
    passing: u64,
    received: u64,
}

impl TapOracle {
    pub fn new(kind: TapKind) -> Self {
        TapOracle { kind, passing: 0, received: 0 }
    }

    /// Check what one acknowledged batch delivered to this subscriber:
    /// `sent` source tuples of which `passing` satisfy the subscriber's
    /// predicate, the last one a probe stamped `probe_ns`. Returns the
    /// number of violations.
    pub fn observe(&mut self, sent: u64, passing: u64, delivered: &[Tuple], probe_ns: i64) -> u64 {
        match self.kind {
            TapKind::Probe => {
                let probes: Vec<i64> = delivered.iter().filter_map(probe_stamp).collect();
                u64::from(delivered.len() as u64 != sent) + u64::from(probes != [probe_ns])
            }
            TapKind::Filter { .. } => u64::from(delivered.len() as u64 != passing),
            TapKind::Window { size, advance, .. } => {
                self.passing += passing;
                self.received += delivered.len() as u64;
                u64::from(self.received != windows_closed(self.passing, size, advance))
            }
        }
    }
}

/// Probes stamped after `cutoff_ns` among `delivered`: a withdrawn or
/// released handle must never see one (Section 3.3 — withdrawal is
/// immediate).
pub fn probes_after(delivered: &[Tuple], cutoff_ns: i64) -> u64 {
    delivered.iter().filter_map(probe_stamp).filter(|stamp| *stamp > cutoff_ns).count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{Workload, World};

    #[test]
    fn window_arithmetic() {
        assert_eq!(windows_closed(0, 5, 5), 0);
        assert_eq!(windows_closed(4, 5, 5), 0);
        assert_eq!(windows_closed(5, 5, 5), 1);
        assert_eq!(windows_closed(14, 5, 5), 2);
        // Sliding: size 5 advance 2 closes at 5, 7, 9, ...
        assert_eq!(windows_closed(9, 5, 2), 3);
        assert_eq!(windows_closed(10, 5, 2), 3);
    }

    #[test]
    fn request_model_walks_the_four_outcomes() {
        let mut model = RequestModel::new(4, 2);
        assert_eq!(model.predict(None, false), Outcome::Deny);
        assert_eq!(model.predict(Some(0), false), Outcome::Grant);
        assert_eq!(model.granted(0, false), None);
        assert_eq!(model.predict(Some(0), false), Outcome::Reuse);
        assert_eq!(model.predict(Some(0), true), Outcome::GuardBlock);
        assert_eq!(model.granted(1, true), None);
        // Third grant exceeds the cap of two: the oldest (entry 0) goes.
        assert_eq!(model.granted(2, false), Some(0));
        assert_eq!(model.live_count(), 2);
        assert_eq!(model.predict(Some(0), true), Outcome::Grant);
    }

    #[test]
    fn a_dropped_or_duplicated_probe_fails_the_probe_tap() {
        let world = World::generate(Workload::ReplicatedMixed, 9);
        let pool = &world.pools[0];
        let mut batch: Vec<Tuple> = pool.tuples[..3].to_vec();
        batch.push(pool.probe(777));

        let mut tap = TapOracle::new(TapKind::Probe);
        assert_eq!(tap.observe(4, 4, &batch, 777), 0);
        // The probe is lost on the way: count and probe checks both fire.
        assert_eq!(tap.observe(4, 4, &batch[..3], 777), 2);
        // A pool tuple is lost, the probe arrives: the count check fires.
        assert_eq!(tap.observe(4, 4, &batch[1..], 777), 1);
        // The probe arrives twice.
        let mut twice = batch.clone();
        twice.push(pool.probe(777));
        assert!(tap.observe(4, 4, &twice, 777) > 0);
        // A stale probe arrives instead of the expected one.
        assert!(tap.observe(4, 4, &batch, 778) > 0);
    }

    #[test]
    fn filter_and_window_taps_count_exactly() {
        let world = World::generate(Workload::ReplicatedMixed, 9);
        let some = &world.pools[0].tuples;
        let mut filter = TapOracle::new(TapKind::Filter { threshold: 50.0 });
        assert_eq!(filter.observe(10, 3, &some[..3], 0), 0);
        assert_eq!(filter.observe(10, 3, &some[..2], 0), 1);

        let mut window = TapOracle::new(TapKind::Window { threshold: 5.0, size: 4, advance: 4 });
        assert_eq!(window.observe(10, 3, &[], 0), 0); // 3 passing: nothing closes
        assert_eq!(window.observe(10, 6, &some[..2], 0), 0); // 9 passing: 2 closed
        assert_eq!(window.observe(10, 3, &[], 0), 1); // 12 passing: a third is due
    }

    #[test]
    fn late_probes_are_counted() {
        let world = World::generate(Workload::ReplicatedMixed, 9);
        let pool = &world.pools[0];
        let delivered = vec![pool.probe(10), pool.tuples[0].clone(), pool.probe(30)];
        assert_eq!(probes_after(&delivered, 30), 0);
        assert_eq!(probes_after(&delivered, 20), 1);
    }
}
