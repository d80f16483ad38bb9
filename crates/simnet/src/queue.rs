//! Per-link delivery queues drained by the virtual clock.
//!
//! The brokering fabric ships messages (tuples, stream batches) between
//! nodes over [`LinkSpec`]s. Instead of sleeping for the sampled delay, a
//! sender hands the link a **frame** — a `Vec` of messages sent together —
//! and the link computes each message's **arrival time**; the receiver takes
//! whatever has arrived whenever the virtual clock advances. This keeps
//! experiments instantaneous and deterministic while still producing
//! end-to-end latencies that include propagation, jitter and serialisation
//! cost.
//!
//! A [`SimLink`] is one directed link with its in-flight frames and RNG,
//! and it enforces the FIFO property of a real network link: a message never
//! overtakes one sent before it on the same link, so arrival timestamps on a
//! link are non-decreasing even when the sampled jitter would invert them.
//! A FIFO link needs no priority queue: frames wait in send order, which is
//! already arrival order. A frame keeps the `Vec` it was sent as, beside one
//! arrival time per message, so a drain moves a frame that has wholly
//! arrived out as it came in and splits only the frame a cut falls inside.

use crate::link::LinkSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;

/// Messages sent together, with the instant they were sent and the arrival
/// time of each (non-decreasing, one per message).
#[derive(Debug)]
struct Frame<T> {
    sent_at: u64,
    arrivals: Vec<u64>,
    items: Vec<T>,
}

/// One directed network link with its in-flight frames: sending samples the
/// link's latency once per frame, adds each message's serialisation and
/// clamps the arrivals so the link stays FIFO (non-decreasing arrival
/// times).
#[derive(Debug)]
pub struct SimLink<T> {
    spec: LinkSpec,
    rng: StdRng,
    /// In-flight frames in send order — which the clamp makes arrival
    /// order, ties in send order. None is empty.
    frames: VecDeque<Frame<T>>,
    /// The arrival buffer of the last frame delivered whole, reused by the
    /// next send.
    spare: Vec<u64>,
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
            frames: VecDeque::new(),
            spare: Vec::new(),
            last_arrival_nanos: 0,
            service_frontier_nanos: 0,
        }
    }

    /// Put `items` in flight as one frame sent at `sent_at`, the `i`-th
    /// message arriving at `arrival(i-th item)` clamped so it never
    /// overtakes an earlier message on the link. An empty frame puts
    /// nothing in flight.
    fn enqueue(&mut self, sent_at: u64, items: Vec<T>, mut arrival: impl FnMut(&T) -> u64) {
        if items.is_empty() {
            return;
        }
        let mut arrivals = std::mem::take(&mut self.spare);
        arrivals.clear();
        let mut last = self.last_arrival_nanos;
        arrivals.extend(items.iter().map(|item| {
            last = arrival(item).max(last);
            last
        }));
        self.last_arrival_nanos = last;
        self.frames.push_back(Frame { sent_at, arrivals, items });
    }

    /// The arrival times of the frame just sent (empty if it was empty).
    fn last_sent(&self, len: usize) -> &[u64] {
        match self.frames.back() {
            Some(frame) if len > 0 => &frame.arrivals,
            _ => &[],
        }
    }

    /// Send `items` as **one frame** at (virtual) time `now_nanos`, a
    /// message of `size(item)` bytes each. The whole frame pays a single
    /// sampled propagation delay; each message then pays its own
    /// serialisation cost *cumulatively* (the wire transmits the frame
    /// back-to-back), so arrivals stay distinct, strictly ordered within the
    /// frame, and FIFO with respect to earlier sends. Returns the arrival
    /// time of each message, in input order.
    ///
    /// This is what makes batched routing cheaper than per-tuple shipping:
    /// `n` messages in one frame sample the latency model once instead of
    /// `n` times, exactly like one RPC carrying `n` records.
    pub fn send(
        &mut self,
        now_nanos: u64,
        items: Vec<T>,
        mut size: impl FnMut(&T) -> usize,
    ) -> &[u64] {
        let frame_latency = self.spec.sample_latency(&mut self.rng).as_nanos() as u64;
        let mut serialisation = serialisation_nanos(self.spec);
        let mut offset = now_nanos + frame_latency;
        let len = items.len();
        self.enqueue(now_nanos, items, |item| {
            offset += serialisation(size(item));
            offset
        });
        self.last_sent(len)
    }

    /// Send a frame through the link's **serialising queue** model: the
    /// frame's messages occupy the pipe back-to-back starting no earlier
    /// than the pipe's current service frontier (a busy pipe delays the next
    /// frame — service time accumulates across frames), while the single
    /// sampled propagation latency is paid once per frame *after* each
    /// message leaves the pipe. Returns the arrival times in input order.
    ///
    /// Contrast with [`SimLink::send`], whose frames only FIFO-order against
    /// earlier traffic without queueing behind it: that models an
    /// uncongested wire, this models a bandwidth-bound server-side pipeline
    /// (a node's single-threaded ingest apply loop). The
    /// [`SimLink::service_frontier_nanos`] after a run is the virtual
    /// instant the pipe goes idle, so `frontier − start` is the pipeline's
    /// busy time — the quantity an N-way-sharded deployment divides by N.
    pub fn send_queued(
        &mut self,
        now_nanos: u64,
        items: Vec<T>,
        mut size: impl FnMut(&T) -> usize,
    ) -> &[u64] {
        let frame_latency = self.spec.sample_latency(&mut self.rng).as_nanos() as u64;
        let mut serialisation = serialisation_nanos(self.spec);
        let mut service = now_nanos.max(self.service_frontier_nanos);
        let len = items.len();
        self.enqueue(now_nanos, items, |item| {
            service += serialisation(size(item));
            service + frame_latency
        });
        self.service_frontier_nanos = service;
        self.last_sent(len)
    }

    /// The virtual instant the link's serialising pipe goes idle: the
    /// service frontier advanced by every [`SimLink::send_queued`] frame so
    /// far (propagation excluded — latency is not occupancy).
    #[must_use]
    pub fn service_frontier_nanos(&self) -> u64 {
        self.service_frontier_nanos
    }

    /// Hand everything that has arrived by `now_nanos` to `deliver`, a frame
    /// at a time in arrival order (ties in send order), as `(sent at,
    /// arrival of each message, the messages)`. A frame that has wholly
    /// arrived leaves as the `Vec` it was sent as; the frame a cut falls
    /// inside gives up its arrived prefix and keeps the rest in flight.
    pub fn deliver_ready(&mut self, now_nanos: u64, mut deliver: impl FnMut(u64, &[u64], Vec<T>)) {
        while let Some(front) = self.frames.front_mut() {
            let arrived = match front.arrivals.last() {
                Some(&last) if last <= now_nanos => front.arrivals.len(),
                _ => front.arrivals.partition_point(|&arrival| arrival <= now_nanos),
            };
            if arrived < front.arrivals.len() {
                if arrived > 0 {
                    let rest = front.items.split_off(arrived);
                    let items = std::mem::replace(&mut front.items, rest);
                    deliver(front.sent_at, &front.arrivals[..arrived], items);
                    front.arrivals.drain(..arrived);
                }
                return;
            }
            let Frame { sent_at, arrivals, items } =
                self.frames.pop_front().expect("a front frame");
            deliver(sent_at, &arrivals, items);
            self.spare = arrivals;
        }
    }

    /// Drop everything in flight; returns how many messages were dropped.
    pub fn clear(&mut self) -> usize {
        let dropped = self.in_flight();
        self.frames.clear();
        dropped
    }

    /// Arrival time of the earliest in-flight message, if any.
    #[must_use]
    pub fn next_arrival(&self) -> Option<u64> {
        self.frames.front().map(|frame| frame.arrivals[0])
    }

    /// Number of in-flight messages.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.frames.iter().map(|frame| frame.items.len()).sum()
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

    /// Every message arrived by `now`, with its arrival time, in order.
    fn drain<T>(link: &mut SimLink<T>, now: u64) -> Vec<(u64, T)> {
        let mut out = Vec::new();
        link.deliver_ready(now, |_, arrivals, items| {
            assert_eq!(arrivals.len(), items.len());
            out.extend(arrivals.iter().copied().zip(items));
        });
        out
    }

    /// Send one message as a frame of its own.
    fn send_one<T>(link: &mut SimLink<T>, now: u64, bytes: usize, item: T) -> u64 {
        link.send(now, vec![item], |_| bytes)[0]
    }

    #[test]
    fn link_drains_in_arrival_order() {
        let mut link = instant_link();
        send_one(&mut link, 100, 0, "a");
        send_one(&mut link, 200, 0, "b");
        send_one(&mut link, 300, 0, "c");
        assert_eq!(link.in_flight(), 3);
        assert_eq!(link.next_arrival(), Some(100));
        assert_eq!(drain(&mut link, 50), Vec::<(u64, &str)>::new());
        assert_eq!(drain(&mut link, 200), vec![(100, "a"), (200, "b")]);
        assert_eq!(drain(&mut link, 1_000), vec![(300, "c")]);
        assert_eq!(link.in_flight(), 0);
        assert_eq!(link.next_arrival(), None);
    }

    #[test]
    fn simultaneous_arrivals_drain_in_send_order() {
        // Sent at 100, then "earlier" at 50 and 80: the clamp holds the
        // later sends at 100, and the tie leaves in send order.
        let mut link = instant_link();
        send_one(&mut link, 100, 0, 1);
        send_one(&mut link, 50, 0, 2);
        send_one(&mut link, 80, 0, 3);
        assert_eq!(drain(&mut link, 100), vec![(100, 1), (100, 2), (100, 3)]);
    }

    #[test]
    fn link_messages_never_overtake_each_other() {
        // A jittery link: raw sampled delays can invert; arrivals must not.
        let mut link = SimLink::new(LinkSpec::lan_100mbps(), 7);
        let mut previous = 0;
        for i in 0..500 {
            let arrival = send_one(&mut link, i * 10, 256, i);
            assert!(arrival >= previous, "message {i} overtook its predecessor");
            previous = arrival;
        }
        let delivered = drain(&mut link, u64::MAX);
        assert_eq!(delivered.len(), 500);
        let order: Vec<u64> = delivered.iter().map(|(_, i)| *i).collect();
        assert_eq!(order, (0..500).collect::<Vec<_>>());
    }

    #[test]
    fn link_arrival_includes_latency_and_serialisation() {
        let mut link = SimLink::new(LinkSpec::constant(500.0, 100.0), 1);
        // 500 µs latency + 1250 bytes * 8 bits / 100 Mbps = 100 µs.
        let arrival = send_one(&mut link, 0, 1_250, ());
        assert_eq!(arrival, 600_000);
        assert_eq!(link.in_flight(), 1);
        assert!(drain(&mut link, 599_999).is_empty());
        assert_eq!(drain(&mut link, 600_000).len(), 1);
    }

    #[test]
    fn batched_send_shares_one_latency_sample() {
        // Deterministic link: a frame pays the 500 µs latency once plus
        // cumulative serialisation.
        let mut link = SimLink::new(LinkSpec::constant(500.0, 100.0), 1);
        let arrivals = link.send(0, vec!["a", "b", "c"], |_| 1_250).to_vec();
        // 500 µs + k * 100 µs serialisation.
        assert_eq!(arrivals, vec![600_000, 700_000, 800_000]);
        let delivered = drain(&mut link, u64::MAX);
        assert_eq!(delivered.iter().map(|(_, m)| *m).collect::<Vec<_>>(), vec!["a", "b", "c"]);
    }

    #[test]
    fn batched_send_stays_fifo_with_earlier_traffic() {
        let mut link = SimLink::new(LinkSpec::lan_100mbps(), 7);
        let first = send_one(&mut link, 0, 4_096, 0u64);
        let batch = link.send(1, (1..100).collect(), |_| 64).to_vec();
        assert!(batch[0] >= first, "a later frame overtook in-flight traffic");
        // Items clamped behind the in-flight message share its arrival tick;
        // order within the frame is still preserved (non-decreasing).
        assert!(batch.windows(2).all(|w| w[1] >= w[0]));
        let order: Vec<u64> = drain(&mut link, u64::MAX).into_iter().map(|(_, i)| i).collect();
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
        let first = link.send_queued(0, vec!["a", "b"], |_| 1_250).to_vec();
        assert_eq!(first, vec![600_000, 700_000]);
        assert_eq!(link.service_frontier_nanos(), 200_000, "pipe busy = serialisation only");
        let second = link.send_queued(0, vec!["c", "d"], |_| 1_250).to_vec();
        // Service resumes at 200 µs: items release at 300/400 µs, + 500 µs
        // propagation each.
        assert_eq!(second, vec![800_000, 900_000]);
        assert_eq!(link.service_frontier_nanos(), 400_000);
        let order: Vec<&str> = drain(&mut link, u64::MAX).into_iter().map(|(_, m)| m).collect();
        assert_eq!(order, vec!["a", "b", "c", "d"]);
    }

    #[test]
    fn a_cut_inside_a_frame_splits_only_that_frame() {
        let mut link = SimLink::new(LinkSpec::constant(500.0, 100.0), 1);
        link.send(0, vec!["a", "b", "c"], |_| 1_250);
        link.send(10, vec!["d"], |_| 1_250);
        let mut frames = Vec::new();
        let mut take = |link: &mut SimLink<&'static str>, now| {
            link.deliver_ready(now, |sent, arrivals, items| {
                frames.push((sent, arrivals.to_vec(), items));
            });
        };
        take(&mut link, 650_000);
        assert_eq!(link.in_flight(), 3);
        assert_eq!(link.next_arrival(), Some(700_000));
        take(&mut link, 650_000);
        take(&mut link, 800_000);
        take(&mut link, u64::MAX);
        assert_eq!(
            frames,
            vec![
                (0, vec![600_000], vec!["a"]),
                (0, vec![700_000, 800_000], vec!["b", "c"]),
                (10, vec![800_000], vec!["d"]),
            ],
            "the clamp holds `d` at `c`'s arrival, and each piece keeps its send time"
        );
        assert_eq!(link.in_flight(), 0);
    }

    #[test]
    fn a_frame_that_wholly_arrived_leaves_as_it_was_sent() {
        let mut link = instant_link();
        let items: Vec<u64> = (0..64).collect();
        let sent = items.as_ptr() as usize;
        link.send(5, items, |_| 0);
        let (mut delivered, mut buffer) = (0, 0);
        link.deliver_ready(5, |sent_at, arrivals, items| {
            assert_eq!(sent_at, 5);
            assert_eq!(items.as_ptr() as usize, sent, "the frame's `Vec` moves, uncopied");
            delivered = items.len();
            buffer = arrivals.as_ptr() as usize;
        });
        assert_eq!(delivered, 64);
        // The next frame's arrivals reuse the delivered frame's buffer.
        let reused = link.send(6, (0..64).collect(), |_| 0).as_ptr() as usize;
        assert_eq!(reused, buffer);
    }

    #[test]
    fn clearing_drops_and_counts_everything_in_flight() {
        let mut link = SimLink::new(LinkSpec::constant(500.0, 100.0), 1);
        link.send(0, vec![1, 2, 3], |_| 1_250);
        link.send(0, vec![4], |_| 1_250);
        drain(&mut link, 600_000);
        assert_eq!(link.clear(), 3);
        assert_eq!((link.in_flight(), link.next_arrival()), (0, None));
        assert!(drain(&mut link, u64::MAX).is_empty());
        assert_eq!(link.clear(), 0);
    }

    #[test]
    fn an_empty_frame_puts_nothing_in_flight() {
        let mut link = SimLink::new(LinkSpec::constant(500.0, 100.0), 1);
        assert!(link.send(0, Vec::<u8>::new(), |_| 1_250).is_empty());
        assert!(link.send_queued(0, Vec::<u8>::new(), |_| 1_250).is_empty());
        assert_eq!((link.in_flight(), link.next_arrival()), (0, None));
    }

    #[test]
    fn link_sampling_is_deterministic_per_seed() {
        let run = |seed| {
            let mut link = SimLink::new(LinkSpec::lan_100mbps(), seed);
            (0..50).map(|i| send_one(&mut link, i * 1_000, 128, ())).collect::<Vec<_>>()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }
}
