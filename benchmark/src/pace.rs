//! The harness clock, the open-loop pacer, and lane-to-CPU pinning.

use std::time::{Duration, Instant};

/// One monotonic clock shared by both lanes of a round; every stamp in the
/// harness (probe tuples, spans, slices) is nanoseconds since its base.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    base: Instant,
}

impl Clock {
    pub fn start() -> Self {
        Clock { base: Instant::now() }
    }

    pub fn now_ns(&self) -> i64 {
        self.base.elapsed().as_nanos() as i64
    }
}

/// A fixed-rate schedule: operation `k` is due at `start + k * period`,
/// whatever happened to the operations before it. Latency of a paced
/// operation is measured from its due time, so a stall is charged to every
/// operation it delays; how late the generator itself ran is kept apart in
/// `lateness`.
#[derive(Debug)]
pub struct Pacer {
    start_ns: i64,
    period_ns: f64,
    next: u64,
    /// Nanoseconds between each due time and the moment the lane was free
    /// to start the operation (0 when it was waiting for the due time).
    pub lateness: Vec<u64>,
}

/// How close to the due time the pacer stops sleeping and starts spinning;
/// above the timer slack of a stock kernel.
const SPIN_WINDOW_NS: i64 = 200_000;

impl Pacer {
    pub fn new(start_ns: i64, per_second: f64) -> Self {
        assert!(per_second > 0.0, "pacer rate must be positive");
        Pacer { start_ns, period_ns: 1e9 / per_second, next: 0, lateness: Vec::new() }
    }

    fn due_ns(&self, k: u64) -> i64 {
        self.start_ns + (k as f64 * self.period_ns) as i64
    }

    /// Account for the next operation given the current time: returns
    /// `(index, due, wait)` where `wait` is how long the caller must still
    /// wait (0 when the operation is already late).
    fn schedule(&mut self, now_ns: i64) -> (u64, i64, i64) {
        let k = self.next;
        self.next += 1;
        let due = self.due_ns(k);
        self.lateness.push((now_ns - due).max(0) as u64);
        (k, due, (due - now_ns).max(0))
    }

    /// Block until the next operation is due (sleeping, then spinning the
    /// last stretch), and return its index and due time. Returns at once
    /// when the schedule has fallen behind.
    pub fn wait_next(&mut self, clock: &Clock) -> (u64, i64) {
        let (k, due, wait) = self.schedule(clock.now_ns());
        if wait > SPIN_WINDOW_NS {
            std::thread::sleep(Duration::from_nanos((wait - SPIN_WINDOW_NS) as u64));
        }
        while clock.now_ns() < due {
            std::hint::spin_loop();
        }
        (k, due)
    }
}

/// The CPUs this process may run on, lowest first (empty where the
/// platform does not say).
#[cfg(target_os = "linux")]
fn allowed_cpus() -> Vec<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    }
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte length
    // passed, which is what sched_getaffinity(2) requires; pid 0 is the
    // calling thread.
    let ok = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if ok != 0 {
        return Vec::new();
    }
    (0..mask.len() * 64).filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1).collect()
}

/// Pin the calling thread to the `lane`-th CPU this process may use (lanes
/// wrap around when there are fewer CPUs). Left alone, the scheduler likes
/// to wake the mostly-sleeping paced lane on the closed lane's CPU, and the
/// two then time-share one core for seconds on end while the other idles —
/// measured here as 35–45 k req/s phases inside a 60 k req/s run. Returns
/// whether the thread was pinned; elsewhere than Linux it never is.
pub fn pin_lane(lane: usize) -> bool {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        }
        let cpus = allowed_cpus();
        if cpus.is_empty() {
            return false;
        }
        let cpu = cpus[lane % cpus.len()];
        let mut mask = [0u64; 16];
        mask[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `mask` is a live buffer of exactly the byte length passed
        // and is only read; pid 0 is the calling thread, so no other
        // thread's placement changes.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = lane;
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_are_fixed_by_the_schedule_not_by_completions() {
        let mut pacer = Pacer::new(1_000, 1_000_000.0); // one per µs
        assert_eq!(pacer.schedule(0), (0, 1_000, 1_000));
        // The lane comes back 2.5 µs late: operation 1 was due at 2 000 and
        // is not rescheduled; its lateness is recorded and it runs at once.
        assert_eq!(pacer.schedule(4_500), (1, 2_000, 0));
        assert_eq!(pacer.schedule(4_600), (2, 3_000, 0));
        // Caught up: operation 3 is due at 4 000 < now, still late; 4 waits.
        assert_eq!(pacer.schedule(4_700), (3, 4_000, 0));
        assert_eq!(pacer.schedule(4_800), (4, 5_000, 200));
        assert_eq!(pacer.lateness, vec![0, 2_500, 1_600, 700, 0]);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn lanes_pin_to_allowed_cpus() {
        let allowed = allowed_cpus();
        assert!(!allowed.is_empty());
        std::thread::spawn(move || {
            assert!(pin_lane(1));
            assert_eq!(allowed_cpus(), vec![allowed[1 % allowed.len()]]);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn wait_next_does_not_return_early() {
        let clock = Clock::start();
        let mut pacer = Pacer::new(clock.now_ns(), 2_000.0);
        for expected in 0..4 {
            let (k, due) = pacer.wait_next(&clock);
            assert_eq!(k, expected);
            assert!(clock.now_ns() >= due);
        }
        assert_eq!(pacer.lateness.len(), 4);
    }
}
