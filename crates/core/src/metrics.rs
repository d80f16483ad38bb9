//! Per-request timing instrumentation.
//!
//! The evaluation (Section 4.2, Figures 6 and 7) decomposes the time taken to
//! fulfil an access request into: PDP decision time, query-graph
//! manipulation time (obligation translation + merging + NR/PR checking),
//! the time to ship the StreamSQL script to the DSMS and deploy it, and the
//! network time between the entities. [`RequestTiming`] carries that
//! decomposition for one request; [`TimingBreakdown`] aggregates many of
//! them into the statistics the figures plot (CDFs, means, percentiles).

use std::time::Duration;

/// The timing decomposition of one fulfilled request.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RequestTiming {
    /// Time spent in the PDP (policy evaluation).
    pub pdp: Duration,
    /// Time spent manipulating query graphs (obligations → graph, user query
    /// → graph, merging, NR/PR checks, StreamSQL generation).
    pub query_graph: Duration,
    /// Time spent deploying on the DSMS (the "StreamBase" series of
    /// Figure 7).
    pub dsms: Duration,
    /// Simulated network time across entity hops.
    pub network: Duration,
    /// End-to-end response time observed by the client.
    pub total: Duration,
}

impl RequestTiming {
    /// The part of the total not attributed to any specific component
    /// (marshalling, cache lookups, bookkeeping). Saturates at zero when
    /// the components sum past the measured total — each is measured by its
    /// own clock pair, so rounding can make them overshoot slightly; a
    /// Duration underflow panic on that path would take down the request.
    #[must_use]
    pub fn other(&self) -> Duration {
        self.total
            .saturating_sub(self.pdp)
            .saturating_sub(self.query_graph)
            .saturating_sub(self.dsms)
            .saturating_sub(self.network)
    }

    /// The fraction of the total spent on the network, the quantity the
    /// paper estimates at roughly two thirds.
    #[must_use]
    pub fn network_share(&self) -> f64 {
        if self.total.is_zero() {
            return 0.0;
        }
        self.network.as_secs_f64() / self.total.as_secs_f64()
    }

    /// Element-wise sum of two timings (used when a proxy adds its own hops
    /// on top of the server-side timing).
    #[must_use]
    pub fn merged_with(&self, other: &RequestTiming) -> RequestTiming {
        RequestTiming {
            pdp: self.pdp + other.pdp,
            query_graph: self.query_graph + other.query_graph,
            dsms: self.dsms + other.dsms,
            network: self.network + other.network,
            total: self.total + other.total,
        }
    }
}

/// Aggregated statistics over many request timings.
#[derive(Debug, Clone, Default)]
pub struct TimingBreakdown {
    totals: Vec<f64>,
    pdp: Vec<f64>,
    query_graph: Vec<f64>,
    dsms: Vec<f64>,
    network: Vec<f64>,
}

impl TimingBreakdown {
    /// An empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        TimingBreakdown::default()
    }

    /// Record one request.
    pub fn record(&mut self, timing: &RequestTiming) {
        self.totals.push(timing.total.as_secs_f64());
        self.pdp.push(timing.pdp.as_secs_f64());
        self.query_graph.push(timing.query_graph.as_secs_f64());
        self.dsms.push(timing.dsms.as_secs_f64());
        self.network.push(timing.network.as_secs_f64());
    }

    /// Number of recorded requests.
    #[must_use]
    pub fn len(&self) -> usize {
        self.totals.len()
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.totals.is_empty()
    }

    /// All recorded total response times, in seconds, in arrival order.
    #[must_use]
    pub fn totals(&self) -> &[f64] {
        &self.totals
    }

    /// The per-component series (total, pdp, query-graph, dsms, network) for
    /// one request index — the rows Figure 7 plots.
    #[must_use]
    pub fn series_at(&self, index: usize) -> Option<(f64, f64, f64, f64, f64)> {
        if index >= self.totals.len() {
            return None;
        }
        Some((
            self.totals[index],
            self.pdp[index],
            self.query_graph[index],
            self.dsms[index],
            self.network[index],
        ))
    }

    /// The empirical CDF of total response times: `points` (x, F(x)) pairs
    /// with x in seconds — the curves of Figure 6.
    #[must_use]
    pub fn cdf(&self, points: usize) -> Vec<(f64, f64)> {
        if self.totals.is_empty() || points == 0 {
            return Vec::new();
        }
        let mut sorted = self.totals.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let n = sorted.len();
        (1..=points)
            .map(|i| {
                let q = i as f64 / points as f64;
                let idx = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
                (sorted[idx], q)
            })
            .collect()
    }

    /// Mean of a series in seconds.
    fn mean_of(series: &[f64]) -> f64 {
        if series.is_empty() {
            0.0
        } else {
            series.iter().sum::<f64>() / series.len() as f64
        }
    }

    /// Mean total response time in seconds.
    #[must_use]
    pub fn mean_total(&self) -> f64 {
        Self::mean_of(&self.totals)
    }

    /// Mean PDP time in seconds.
    #[must_use]
    pub fn mean_pdp(&self) -> f64 {
        Self::mean_of(&self.pdp)
    }

    /// Mean query-graph time in seconds.
    #[must_use]
    pub fn mean_query_graph(&self) -> f64 {
        Self::mean_of(&self.query_graph)
    }

    /// Mean DSMS time in seconds.
    #[must_use]
    pub fn mean_dsms(&self) -> f64 {
        Self::mean_of(&self.dsms)
    }

    /// Mean network time in seconds.
    #[must_use]
    pub fn mean_network(&self) -> f64 {
        Self::mean_of(&self.network)
    }

    /// Standard deviation of the total response time in seconds.
    #[must_use]
    pub fn stddev_total(&self) -> f64 {
        if self.totals.len() < 2 {
            return 0.0;
        }
        let mean = self.mean_total();
        let var = self.totals.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>()
            / self.totals.len() as f64;
        var.sqrt()
    }

    /// A percentile of the total response time in seconds. `q` is clamped
    /// into [0.0, 1.0] — an out-of-range quantile (a caller-computed
    /// 1.0000001, a negative, or NaN) degrades to the nearest recorded
    /// sample instead of indexing out of bounds — and an empty breakdown
    /// answers 0.0.
    #[must_use]
    pub fn percentile_total(&self, q: f64) -> f64 {
        if self.totals.is_empty() {
            return 0.0;
        }
        let mut sorted = self.totals.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let idx =
            ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
        sorted[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing(total_ms: u64, network_ms: u64) -> RequestTiming {
        RequestTiming {
            pdp: Duration::from_millis(1),
            query_graph: Duration::from_millis(2),
            dsms: Duration::from_millis(3),
            network: Duration::from_millis(network_ms),
            total: Duration::from_millis(total_ms),
        }
    }

    #[test]
    fn other_and_network_share() {
        let t = timing(20, 10);
        assert_eq!(t.other(), Duration::from_millis(4));
        assert!((t.network_share() - 0.5).abs() < 1e-12);
        assert_eq!(RequestTiming::default().network_share(), 0.0);
    }

    #[test]
    fn merged_with_adds_componentwise() {
        let a = timing(20, 10);
        let b = timing(5, 1);
        let m = a.merged_with(&b);
        assert_eq!(m.total, Duration::from_millis(25));
        assert_eq!(m.network, Duration::from_millis(11));
        assert_eq!(m.pdp, Duration::from_millis(2));
    }

    #[test]
    fn breakdown_statistics() {
        let mut b = TimingBreakdown::new();
        for total in [10u64, 20, 30, 40] {
            b.record(&timing(total, 5));
        }
        assert_eq!(b.len(), 4);
        assert!((b.mean_total() - 0.025).abs() < 1e-12);
        assert!((b.percentile_total(0.5) - 0.020).abs() < 1e-12);
        assert!((b.percentile_total(1.0) - 0.040).abs() < 1e-12);
        assert!(b.stddev_total() > 0.0);
        assert!((b.mean_pdp() - 0.001).abs() < 1e-12);
        assert_eq!(b.series_at(0).unwrap().0, 0.010);
        assert!(b.series_at(10).is_none());
    }

    #[test]
    fn percentile_clamps_out_of_range_quantiles_and_answers_empty() {
        assert_eq!(TimingBreakdown::new().percentile_total(0.5), 0.0);
        let mut b = TimingBreakdown::new();
        for total in [10u64, 20, 30, 40] {
            b.record(&timing(total, 5));
        }
        // Out-of-range quantiles degrade to the extremes, NaN to the min.
        assert!((b.percentile_total(1.5) - 0.040).abs() < 1e-12);
        assert!((b.percentile_total(-0.3) - 0.010).abs() < 1e-12);
        assert!((b.percentile_total(f64::NAN) - 0.010).abs() < 1e-12);
    }

    #[test]
    fn other_saturates_when_components_overshoot_the_total() {
        // Component clocks can sum past the separately measured total;
        // `other` must answer zero, not panic on Duration underflow.
        let t = RequestTiming {
            pdp: Duration::from_millis(8),
            query_graph: Duration::from_millis(8),
            dsms: Duration::from_millis(8),
            network: Duration::from_millis(8),
            total: Duration::from_millis(20),
        };
        assert_eq!(t.other(), Duration::ZERO);
        assert_eq!(RequestTiming::default().other(), Duration::ZERO);
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let mut b = TimingBreakdown::new();
        for total in [5u64, 1, 9, 3, 7, 2, 8, 4, 6, 10] {
            b.record(&timing(total, 0));
        }
        let cdf = b.cdf(10);
        assert_eq!(cdf.len(), 10);
        for pair in cdf.windows(2) {
            assert!(pair[1].0 >= pair[0].0);
            assert!(pair[1].1 >= pair[0].1);
        }
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
        assert!((cdf.last().unwrap().0 - 0.010).abs() < 1e-12);
        assert!(TimingBreakdown::new().cdf(10).is_empty());
    }
}
