//! Per-link delivery queues drained by the virtual clock.
//!
//! The brokering fabric ships messages (tuples, requests) between nodes over
//! [`LinkSpec`]s. Instead of sleeping for the sampled delay, a sender
//! enqueues the message with its computed **arrival time** on the
//! [`SimLink`]; the receiver drains everything whose arrival time has passed
//! whenever the virtual clock advances. This keeps experiments
//! instantaneous and deterministic while still producing end-to-end
//! latencies that include propagation, jitter and serialisation cost.
//!
//! A [`SimLink`] is one directed link with its in-flight messages and RNG,
//! and it enforces the FIFO property of a real network link: a message never
//! overtakes one sent before it on the same link, so arrival timestamps on a
//! link are non-decreasing even when the sampled jitter would invert them.
//! A FIFO link needs no priority queue: messages wait in a deque in send
//! order, which is already arrival order, and a drain pops the prefix that
//! has arrived.

use crate::link::LinkSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;

/// One directed network link with its in-flight messages: sending samples
/// the link's delay model and enqueues the message at `now + delay`, clamped
/// so arrivals on the link are FIFO (non-decreasing arrival times).
#[derive(Debug)]
pub struct SimLink<T> {
    spec: LinkSpec,
    rng: StdRng,
    /// In-flight messages with their arrival times, in send order — which
    /// the clamp makes arrival order, ties in send order.
    in_flight: VecDeque<(u64, T)>,
    /// The arrival time of each message of the last frame sent.
    arrivals: Vec<u64>,
    last_arrival_nanos: u64,
    service_frontier_nanos: u64,
}

impl<T> SimLink<T> {
    /// A link with a deterministic delay-sampling seed.
    #[must_use]
    pub fn new(spec: LinkSpec, seed: u64) -> Self {
        SimLink {
            spec,
            rng: StdRng::seed_from_u64(seed),
            in_flight: VecDeque::new(),
            arrivals: Vec::new(),
            last_arrival_nanos: 0,
            service_frontier_nanos: 0,
        }
    }

    /// The link's specification.
    #[must_use]
    pub fn spec(&self) -> LinkSpec {
        self.spec
    }

    /// Give `item` the arrival time `arrival_nanos`, clamped so it never
    /// overtakes an earlier message on the link, and put it in flight.
    fn enqueue(&mut self, arrival_nanos: u64, item: T) -> u64 {
        let arrival = arrival_nanos.max(self.last_arrival_nanos);
        self.last_arrival_nanos = arrival;
        self.in_flight.push_back((arrival, item));
        arrival
    }

    /// Send a message of `bytes` bytes at (virtual) time `now_nanos`.
    /// Returns the arrival time assigned to it.
    pub fn send(&mut self, now_nanos: u64, bytes: usize, item: T) -> u64 {
        let delay = self.spec.sample_delay(bytes, &mut self.rng);
        self.enqueue(now_nanos + delay.as_nanos() as u64, item)
    }

    /// Send a batch of messages as **one frame** at (virtual) time
    /// `now_nanos`. The whole frame pays a single sampled propagation delay;
    /// each message then pays its own serialisation cost *cumulatively* (the
    /// wire transmits the frame back-to-back), so arrivals stay distinct,
    /// strictly ordered within the frame, and FIFO with respect to earlier
    /// sends. Returns the arrival time of each message, in input order
    /// (valid until the next frame is sent).
    ///
    /// This is what makes batched broker→node routing cheaper than per-tuple
    /// shipping: `n` tuples in one frame sample the latency model once
    /// instead of `n` times, exactly like one RPC carrying `n` records.
    pub fn send_batch(
        &mut self,
        now_nanos: u64,
        items: impl IntoIterator<Item = (usize, T)>,
    ) -> &[u64] {
        let frame_latency = self.spec.sample_latency(&mut self.rng).as_nanos() as u64;
        let mut serialisation = serialisation_nanos(self.spec);
        let mut offset = now_nanos + frame_latency;
        self.arrivals.clear();
        for (bytes, item) in items {
            offset += serialisation(bytes);
            let arrival = self.enqueue(offset, item);
            self.arrivals.push(arrival);
        }
        &self.arrivals
    }

    /// Send a frame through the link's **serialising queue** model: the
    /// frame's messages occupy the pipe back-to-back starting no earlier
    /// than the pipe's current service frontier (a busy pipe delays the next
    /// frame — service time accumulates across frames), while the single
    /// sampled propagation latency is paid once per frame *after* each
    /// message leaves the pipe. Returns the arrival times in input order
    /// (valid until the next frame is sent).
    ///
    /// Contrast with [`SimLink::send_batch`], whose frames only FIFO-order
    /// against earlier traffic without queueing behind it: that models an
    /// uncongested wire, this models a bandwidth-bound server-side pipeline
    /// (a node's single-threaded ingest apply loop). The
    /// [`SimLink::service_frontier_nanos`] after a run is the virtual
    /// instant the pipe goes idle, so `frontier − start` is the pipeline's
    /// busy time — the quantity an N-way-sharded deployment divides by N.
    pub fn send_batch_queued(
        &mut self,
        now_nanos: u64,
        items: impl IntoIterator<Item = (usize, T)>,
    ) -> &[u64] {
        let frame_latency = self.spec.sample_latency(&mut self.rng).as_nanos() as u64;
        let mut serialisation = serialisation_nanos(self.spec);
        let mut service = now_nanos.max(self.service_frontier_nanos);
        self.arrivals.clear();
        for (bytes, item) in items {
            service += serialisation(bytes);
            let arrival = self.enqueue(service + frame_latency, item);
            self.arrivals.push(arrival);
        }
        self.service_frontier_nanos = service;
        &self.arrivals
    }

    /// The virtual instant the link's serialising pipe goes idle: the
    /// service frontier advanced by every [`SimLink::send_batch_queued`]
    /// frame so far (propagation excluded — latency is not occupancy).
    #[must_use]
    pub fn service_frontier_nanos(&self) -> u64 {
        self.service_frontier_nanos
    }

    /// The messages that have arrived by `now_nanos`, in arrival order,
    /// left in flight (a look before [`SimLink::take_ready`]).
    pub fn peek_ready(&self, now_nanos: u64) -> impl Iterator<Item = &(u64, T)> {
        self.in_flight.iter().take_while(move |(arrival, _)| *arrival <= now_nanos)
    }

    /// Remove every message that has arrived by `now_nanos` and yield it
    /// with its arrival time, in arrival order (ties in send order). The
    /// messages leave the link even if the iterator is dropped early.
    pub fn take_ready(&mut self, now_nanos: u64) -> impl Iterator<Item = (u64, T)> + '_ {
        let ready = self.in_flight.partition_point(|(arrival, _)| *arrival <= now_nanos);
        self.in_flight.drain(..ready)
    }

    /// Deliver every message that has arrived by `now_nanos`, in arrival
    /// order.
    pub fn drain_ready(&mut self, now_nanos: u64) -> Vec<(u64, T)> {
        self.take_ready(now_nanos).collect()
    }

    /// Arrival time of the earliest in-flight message, if any.
    #[must_use]
    pub fn next_arrival(&self) -> Option<u64> {
        self.in_flight.front().map(|(arrival, _)| *arrival)
    }

    /// Number of in-flight messages.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }
}

/// [`LinkSpec::serialisation_delay`] in nanoseconds, computed once per run
/// of equal sizes: a frame's messages are mostly one size, and the delay
/// is a float division and a `Duration` conversion.
fn serialisation_nanos(spec: LinkSpec) -> impl FnMut(usize) -> u64 {
    let mut last: Option<(usize, u64)> = None;
    move |bytes| match last {
        Some((size, nanos)) if size == bytes => nanos,
        _ => {
            let nanos = spec.serialisation_delay(bytes).as_nanos() as u64;
            last = Some((bytes, nanos));
            nanos
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A link on which a message sent at `t` arrives at exactly `t`.
    fn instant_link<T>() -> SimLink<T> {
        SimLink::new(LinkSpec::constant(0.0, 0.0), 1)
    }

    #[test]
    fn link_drains_in_arrival_order() {
        let mut link = instant_link();
        link.send(100, 0, "a");
        link.send(200, 0, "b");
        link.send(300, 0, "c");
        assert_eq!(link.in_flight(), 3);
        assert_eq!(link.next_arrival(), Some(100));
        assert_eq!(link.drain_ready(50), Vec::<(u64, &str)>::new());
        assert_eq!(link.drain_ready(200), vec![(100, "a"), (200, "b")]);
        assert_eq!(link.drain_ready(1_000), vec![(300, "c")]);
        assert_eq!(link.in_flight(), 0);
        assert_eq!(link.next_arrival(), None);
    }

    #[test]
    fn simultaneous_arrivals_drain_in_send_order() {
        // Sent at 100, then "earlier" at 50 and 80: the clamp holds the
        // later sends at 100, and the tie leaves in send order.
        let mut link = instant_link();
        link.send(100, 0, 1);
        link.send(50, 0, 2);
        link.send(80, 0, 3);
        assert_eq!(link.drain_ready(100), vec![(100, 1), (100, 2), (100, 3)]);
    }

    #[test]
    fn link_messages_never_overtake_each_other() {
        // A jittery link: raw sampled delays can invert; arrivals must not.
        let mut link = SimLink::new(LinkSpec::lan_100mbps(), 7);
        let mut previous = 0;
        for i in 0..500 {
            let arrival = link.send(i * 10, 256, i);
            assert!(arrival >= previous, "message {i} overtook its predecessor");
            previous = arrival;
        }
        let delivered = link.drain_ready(u64::MAX);
        assert_eq!(delivered.len(), 500);
        let order: Vec<u64> = delivered.iter().map(|(_, i)| *i).collect();
        assert_eq!(order, (0..500).collect::<Vec<_>>());
    }

    #[test]
    fn link_arrival_includes_latency_and_serialisation() {
        let mut link = SimLink::new(LinkSpec::constant(500.0, 100.0), 1);
        // 500 µs latency + 1250 bytes * 8 bits / 100 Mbps = 100 µs.
        let arrival = link.send(0, 1_250, ());
        assert_eq!(arrival, 600_000);
        assert_eq!(link.in_flight(), 1);
        assert!(link.drain_ready(599_999).is_empty());
        assert_eq!(link.drain_ready(600_000).len(), 1);
    }

    #[test]
    fn batched_send_shares_one_latency_sample() {
        // Deterministic link: per-message sends pay 500 µs latency each;
        // a batch frame pays it once plus cumulative serialisation.
        let mut link = SimLink::new(LinkSpec::constant(500.0, 100.0), 1);
        let arrivals = link.send_batch(0, vec![(1_250, "a"), (1_250, "b"), (1_250, "c")]);
        // 500 µs + k * 100 µs serialisation.
        assert_eq!(arrivals, vec![600_000, 700_000, 800_000]);
        // Distinct, strictly increasing arrivals within the frame.
        assert!(arrivals.windows(2).all(|w| w[1] > w[0]));
        let delivered = link.drain_ready(u64::MAX);
        assert_eq!(delivered.iter().map(|(_, m)| *m).collect::<Vec<_>>(), vec!["a", "b", "c"]);
    }

    #[test]
    fn batched_send_stays_fifo_with_earlier_traffic() {
        let mut link = SimLink::new(LinkSpec::lan_100mbps(), 7);
        let first = link.send(0, 4_096, 0u64);
        let batch = link.send_batch(1, (1..100).map(|i| (64usize, i)));
        assert!(batch[0] >= first, "a later frame overtook in-flight traffic");
        // Items clamped behind the in-flight message share its arrival tick;
        // order within the frame is still preserved (non-decreasing).
        assert!(batch.windows(2).all(|w| w[1] >= w[0]));
        let order: Vec<u64> = link.drain_ready(u64::MAX).into_iter().map(|(_, i)| i).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn queued_batches_accumulate_service_not_propagation() {
        // Deterministic link: 500 µs propagation, 100 µs serialisation per
        // 1250-byte item. Two back-to-back frames sent at the same instant:
        // the second frame's items queue behind the first frame's pipe
        // occupancy, but the propagation latency is paid per frame, never
        // accumulated into the service frontier.
        let mut link = SimLink::new(LinkSpec::constant(500.0, 100.0), 1);
        let first = link.send_batch_queued(0, vec![(1_250, "a"), (1_250, "b")]);
        assert_eq!(first, vec![600_000, 700_000]);
        assert_eq!(link.service_frontier_nanos(), 200_000, "pipe busy = serialisation only");
        let second = link.send_batch_queued(0, vec![(1_250, "c"), (1_250, "d")]);
        // Service resumes at 200 µs: items release at 300/400 µs, + 500 µs
        // propagation each.
        assert_eq!(second, vec![800_000, 900_000]);
        assert_eq!(link.service_frontier_nanos(), 400_000);
        let order: Vec<&str> = link.drain_ready(u64::MAX).into_iter().map(|(_, m)| m).collect();
        assert_eq!(order, vec!["a", "b", "c", "d"]);
    }

    #[test]
    fn link_sampling_is_deterministic_per_seed() {
        let run = |seed| {
            let mut link = SimLink::new(LinkSpec::lan_100mbps(), seed);
            (0..50).map(|i| link.send(i * 1_000, 128, ())).collect::<Vec<_>>()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }
}
