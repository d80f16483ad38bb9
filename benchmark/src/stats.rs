//! Estimators. A shared host has slow phases that last from a fraction of a
//! second to minutes, so a mean over a whole run moves by tens of percent
//! between runs. Every end-to-end number is therefore built from short
//! slices, and reads the *best* of them: a rate is the mean of the three
//! fastest slice rates and a latency the mean of the three lowest per-slice
//! medians — the level the system holds when the host leaves it alone, which
//! is what a code change moves. (Over ten 20 s runs on the design host this
//! spread 2–10 % where the upper/lower quartile of the same slices spread
//! 3–15 %, and whole-run means more.)

/// Linear-interpolated quantile of unsorted data (`q` in `[0, 1]`); 0.0 for
/// an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}

fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The quartiles Python's `statistics.quantiles(values, n=4)` returns (the
/// default "exclusive" method). `repeat` judges spread with the same
/// arithmetic the driver uses.
pub fn python_quartiles(values: &[f64]) -> [f64; 3] {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    if n < 2 {
        let v = data.first().copied().unwrap_or(0.0);
        return [v; 3];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Interquartile range as a share of the median — the spread the driver
/// compares with a metric's bound.
pub fn relative_spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = python_quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// How one lane's operations are turned into a per-slice rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RateKind {
    /// Closed loop: units completed in the slice over the slice length.
    Closed,
    /// Open loop at a fixed rate: the count per slice is fixed by the
    /// schedule, so the achieved rate is read off the completions
    /// themselves, `(n - 1) / (last - first)`.
    Paced,
}

/// Per-slice accumulation of one kind of operation on one lane. Time is in
/// nanoseconds from the start of the measured window; operations completing
/// outside `[0, slices * slice_ns)` (warm-up, the tail) are ignored.
#[derive(Debug, Clone)]
pub struct Slices {
    slice_ns: u64,
    units: Vec<u64>,
    ops: Vec<u64>,
    first: Vec<u64>,
    last: Vec<u64>,
    latencies: Vec<Vec<u32>>,
}

impl Slices {
    pub fn new(slice_ns: u64, slices: usize) -> Self {
        Slices {
            slice_ns,
            units: vec![0; slices],
            ops: vec![0; slices],
            first: vec![u64::MAX; slices],
            last: vec![0; slices],
            latencies: vec![Vec::new(); slices],
        }
    }

    /// Record one completed operation worth `units` (tuples, requests) that
    /// finished at `at_ns`, with its latency if it has one.
    pub fn record(&mut self, at_ns: i64, units: u64, latency_ns: Option<u64>) {
        if at_ns < 0 {
            return;
        }
        let at = at_ns as u64;
        let index = (at / self.slice_ns) as usize;
        if index >= self.units.len() {
            return;
        }
        self.units[index] += units;
        self.ops[index] += 1;
        self.first[index] = self.first[index].min(at);
        self.last[index] = self.last[index].max(at);
        if let Some(latency) = latency_ns {
            self.latencies[index].push(latency.min(u64::from(u32::MAX)) as u32);
        }
    }

    pub fn total_units(&self) -> u64 {
        self.units.iter().sum()
    }

    pub fn window_seconds(&self) -> f64 {
        (self.slice_ns * self.units.len() as u64) as f64 / 1e9
    }

    /// Units per second in each slice that saw work.
    pub fn slice_rates(&self, kind: RateKind) -> Vec<f64> {
        let mut rates = Vec::with_capacity(self.units.len());
        for i in 0..self.units.len() {
            let rate = match kind {
                RateKind::Closed => self.units[i] as f64 / (self.slice_ns as f64 / 1e9),
                RateKind::Paced => {
                    let span = self.last[i].saturating_sub(self.first[i]);
                    if self.ops[i] < 2 || span == 0 {
                        continue;
                    }
                    let per_op = self.units[i] as f64 / self.ops[i] as f64;
                    (self.ops[i] - 1) as f64 * per_op / (span as f64 / 1e9)
                }
            };
            if self.units[i] > 0 {
                rates.push(rate);
            }
        }
        rates
    }

    /// Median latency (ns) of each slice that has samples.
    pub fn slice_median_latencies(&self) -> Vec<f64> {
        self.latencies
            .iter()
            .filter(|l| !l.is_empty())
            .map(|l| median(&l.iter().map(|v| f64::from(*v)).collect::<Vec<_>>()))
            .collect()
    }

    /// Every latency sample of the window (ns), for whole-window percentiles.
    pub fn all_latencies(&self) -> Vec<f64> {
        self.latencies.iter().flatten().map(|v| f64::from(*v)).collect()
    }
}

/// How many of the best slices an end-to-end estimate averages: more than
/// one, so a single lucky slice cannot set the number; few, so that a run
/// needs only a second and a half of quiet host to read true.
const BEST_SLICES: usize = 3;

fn mean_of_best(values: &[f64], highest: bool) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if highest {
        sorted.reverse();
    }
    sorted.truncate(BEST_SLICES);
    if sorted.is_empty() {
        0.0
    } else {
        sorted.iter().sum::<f64>() / sorted.len() as f64
    }
}

/// The end-to-end rate estimator. A closed loop reads the mean of its
/// fastest pooled slice rates. A paced lane's rate is set by its schedule,
/// and its fastest slices are the ones where it caught up after a stall, so
/// it reads the median: the schedule's rate unless the lane falls behind.
pub fn steady_rate(slice_rates: &[f64], kind: RateKind) -> f64 {
    match kind {
        RateKind::Closed => mean_of_best(slice_rates, true),
        RateKind::Paced => median(slice_rates),
    }
}

/// The end-to-end latency estimator: mean of the lowest pooled per-slice
/// medians.
pub fn steady_latency(slice_medians: &[f64]) -> f64 {
    mean_of_best(slice_medians, false)
}

/// Mean of the last three slice rates over the mean of the first three:
/// below 1 when throughput decays inside a window (a growing queue, a
/// growing heap).
pub fn drift(slice_rates: &[f64]) -> f64 {
    if slice_rates.len() < 6 {
        return 1.0;
    }
    let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
    let head = mean(&slice_rates[..3]);
    if head == 0.0 {
        1.0
    } else {
        mean(&slice_rates[slice_rates.len() - 3..]) / head
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.25), 1.75);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[9.0], 0.9), 9.0);
    }

    #[test]
    fn python_quartiles_match_the_reference() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(python_quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(python_quartiles(&[4.0, 1.0, 2.0]), [1.0, 2.0, 4.0]);
        assert!((relative_spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn slices_ignore_warm_up_and_tail() {
        let mut s = Slices::new(1_000, 3);
        s.record(-5, 10, Some(7)); // warm-up
        s.record(10, 10, Some(100));
        s.record(990, 10, Some(300));
        s.record(1_500, 4, None);
        s.record(3_000, 99, Some(1)); // past the window
        assert_eq!(s.total_units(), 24);
        let rates = s.slice_rates(RateKind::Closed);
        // 20 units and 4 units in 1 µs slices; the empty third slice is skipped.
        assert_eq!(rates, vec![20.0 / 1e-6, 4.0 / 1e-6]);
        assert_eq!(s.slice_median_latencies(), vec![200.0]);
        assert_eq!(s.all_latencies().len(), 2);
    }

    #[test]
    fn steady_estimators_shrug_off_a_slow_phase() {
        // 12 slices, 8 of them in a slow phase at 60 % speed: the mean moves
        // by 27 %, the estimators do not move at all.
        let clean = vec![100.0; 12];
        let mut perturbed = clean.clone();
        for r in &mut perturbed[2..10] {
            *r = 60.0;
        }
        assert_eq!(
            steady_rate(&clean, RateKind::Closed),
            steady_rate(&perturbed, RateKind::Closed)
        );
        let clean_lat = vec![10.0; 12];
        let mut perturbed_lat = clean_lat.clone();
        for l in &mut perturbed_lat[2..10] {
            *l = 17.0;
        }
        assert_eq!(steady_latency(&clean_lat), steady_latency(&perturbed_lat));
    }

    #[test]
    fn steady_estimators_average_the_best_three() {
        let rates = [10.0, 50.0, 40.0, 30.0, 20.0];
        assert_eq!(steady_rate(&rates, RateKind::Closed), 40.0);
        assert_eq!(steady_latency(&rates), 20.0);
        // One lucky slice moves the estimate by a third of its excess only.
        assert_eq!(steady_rate(&[40.0, 40.0, 40.0, 70.0], RateKind::Closed), 50.0);
        assert_eq!(steady_rate(&[], RateKind::Closed), 0.0);
        // A paced lane that caught up after a stall does not read fast.
        assert_eq!(steady_rate(&[100.0, 100.0, 60.0, 140.0, 100.0], RateKind::Paced), 100.0);
        assert_eq!(steady_latency(&[7.0]), 7.0);
    }

    #[test]
    fn paced_rate_reads_the_completions() {
        // 5 operations of one unit, exactly 250 ns apart: 4 gaps per µs.
        let mut s = Slices::new(10_000, 1);
        for i in 0..5 {
            s.record(100 + i * 250, 1, None);
        }
        let rates = s.slice_rates(RateKind::Paced);
        assert_eq!(rates.len(), 1);
        assert!((rates[0] - 4.0 / 1e-6).abs() < 1e-3);
    }

    #[test]
    fn drift_compares_tail_to_head() {
        assert_eq!(drift(&[1.0; 5]), 1.0);
        let decaying: Vec<f64> = (0..10).map(|i| 100.0 - f64::from(i) * 5.0).collect();
        assert!(drift(&decaying) < 0.7);
    }
}
