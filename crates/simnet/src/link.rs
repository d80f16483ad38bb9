//! Network links.
//!
//! A [`LinkSpec`] models one hop of the deployment (client↔proxy,
//! proxy↔server, server↔DSMS): propagation latency with jitter plus a
//! serialisation cost proportional to the message size. Sampling is
//! deterministic given the caller's RNG, so experiment runs are reproducible.

use rand::Rng;
use std::time::Duration;

/// How the per-message latency is drawn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LatencyModel {
    /// A constant latency.
    Constant,
    /// Uniform jitter in `[base - jitter, base + jitter]`.
    Uniform,
    /// A heavy-ish tail: with probability `tail_probability` the latency is
    /// multiplied by `tail_factor`. The paper notes that communication cost
    /// between entities "is less predictive and subject to change with large
    /// variance" — the tail models the occasional slow request visible at
    /// the start of Figure 7's request sequences.
    HeavyTail {
        /// Probability of a slow transfer.
        tail_probability: f64,
        /// Multiplier applied to the base latency for slow transfers.
        tail_factor: f64,
    },
}

/// One directed network link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Base one-way propagation latency in microseconds.
    pub base_latency_us: f64,
    /// Jitter half-width in microseconds (used by `Uniform` and added on top
    /// of the tail model).
    pub jitter_us: f64,
    /// Bandwidth in megabits per second (serialisation cost).
    pub bandwidth_mbps: f64,
    /// The latency model.
    pub model: LatencyModel,
}

impl LinkSpec {
    /// A link of a switched 100 Mbps LAN, as in the paper's testbed:
    /// ~300 µs base latency, ±100 µs jitter, occasional 10× stragglers.
    #[must_use]
    pub fn lan_100mbps() -> Self {
        LinkSpec {
            base_latency_us: 300.0,
            jitter_us: 100.0,
            bandwidth_mbps: 100.0,
            model: LatencyModel::HeavyTail { tail_probability: 0.01, tail_factor: 10.0 },
        }
    }

    /// A loopback link (entities co-located in one process).
    #[must_use]
    pub fn loopback() -> Self {
        LinkSpec {
            base_latency_us: 10.0,
            jitter_us: 2.0,
            bandwidth_mbps: 10_000.0,
            model: LatencyModel::Uniform,
        }
    }

    /// A wide-area link (used by the "commercial cloud" what-if experiments).
    #[must_use]
    pub fn wan() -> Self {
        LinkSpec {
            base_latency_us: 20_000.0,
            jitter_us: 5_000.0,
            bandwidth_mbps: 50.0,
            model: LatencyModel::HeavyTail { tail_probability: 0.05, tail_factor: 4.0 },
        }
    }

    /// A perfectly deterministic link, handy in tests.
    #[must_use]
    pub fn constant(latency_us: f64, bandwidth_mbps: f64) -> Self {
        LinkSpec {
            base_latency_us: latency_us,
            jitter_us: 0.0,
            bandwidth_mbps,
            model: LatencyModel::Constant,
        }
    }

    /// The serialisation time for a message of `bytes` bytes.
    #[must_use]
    pub fn serialisation_delay(&self, bytes: usize) -> Duration {
        if self.bandwidth_mbps <= 0.0 {
            return Duration::ZERO;
        }
        let bits = bytes as f64 * 8.0;
        let seconds = bits / (self.bandwidth_mbps * 1e6);
        Duration::from_secs_f64(seconds)
    }

    /// Sample the propagation latency (base + jitter + tail) for one frame,
    /// **excluding** serialisation cost. Messages sharing a frame — a batch
    /// shipped as one broker→node hop — share a single propagation sample
    /// and pay serialisation per message on top.
    pub fn sample_latency<R: Rng + ?Sized>(&self, rng: &mut R) -> Duration {
        let mut latency_us = match self.model {
            LatencyModel::Constant => self.base_latency_us,
            LatencyModel::Uniform => {
                if self.jitter_us > 0.0 {
                    rng.gen_range(
                        (self.base_latency_us - self.jitter_us).max(0.0)
                            ..=self.base_latency_us + self.jitter_us,
                    )
                } else {
                    self.base_latency_us
                }
            }
            LatencyModel::HeavyTail { tail_probability, tail_factor } => {
                let base = if self.jitter_us > 0.0 {
                    rng.gen_range(
                        (self.base_latency_us - self.jitter_us).max(0.0)
                            ..=self.base_latency_us + self.jitter_us,
                    )
                } else {
                    self.base_latency_us
                };
                if rng.gen_bool(tail_probability.clamp(0.0, 1.0)) {
                    base * tail_factor
                } else {
                    base
                }
            }
        };
        if latency_us < 0.0 {
            latency_us = 0.0;
        }
        Duration::from_secs_f64(latency_us / 1e6)
    }

    /// Sample the total one-way delay for a message of `bytes` bytes.
    pub fn sample_delay<R: Rng + ?Sized>(&self, bytes: usize, rng: &mut R) -> Duration {
        self.sample_latency(rng) + self.serialisation_delay(bytes)
    }

    /// The mean one-way delay for a message of `bytes` bytes (ignoring the
    /// heavy tail), useful for analytical sanity checks.
    #[cfg(test)]
    pub(crate) fn expected_delay(&self, bytes: usize) -> Duration {
        Duration::from_secs_f64(self.base_latency_us / 1e6) + self.serialisation_delay(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn serialisation_delay_scales_with_size() {
        let link = LinkSpec::constant(0.0, 100.0);
        let one_kb = link.serialisation_delay(1024);
        let two_kb = link.serialisation_delay(2048);
        assert!((two_kb.as_secs_f64() - 2.0 * one_kb.as_secs_f64()).abs() < 1e-12);
        // 1 KiB over 100 Mbps ≈ 82 µs.
        assert!((one_kb.as_secs_f64() - 8192.0 / 100e6).abs() < 1e-12);
    }

    #[test]
    fn constant_link_is_deterministic() {
        let link = LinkSpec::constant(500.0, 100.0);
        let mut rng = StdRng::seed_from_u64(1);
        let a = link.sample_delay(100, &mut rng);
        let b = link.sample_delay(100, &mut rng);
        assert_eq!(a, b);
        assert_eq!(a, link.expected_delay(100));
    }

    #[test]
    fn uniform_jitter_stays_in_bounds() {
        let link = LinkSpec {
            base_latency_us: 300.0,
            jitter_us: 100.0,
            bandwidth_mbps: 100.0,
            model: LatencyModel::Uniform,
        };
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let d = link.sample_delay(0, &mut rng).as_secs_f64() * 1e6;
            assert!((200.0..=400.0).contains(&d), "delay {d} µs out of bounds");
        }
    }

    #[test]
    fn heavy_tail_produces_occasional_stragglers() {
        let link = LinkSpec {
            base_latency_us: 300.0,
            jitter_us: 0.0,
            bandwidth_mbps: 1e9,
            model: LatencyModel::HeavyTail { tail_probability: 0.1, tail_factor: 10.0 },
        };
        let mut rng = StdRng::seed_from_u64(42);
        let samples: Vec<f64> =
            (0..2000).map(|_| link.sample_delay(0, &mut rng).as_secs_f64() * 1e6).collect();
        let stragglers = samples.iter().filter(|d| **d > 1000.0).count();
        assert!(stragglers > 100, "expected ~10% stragglers, saw {stragglers}");
        assert!(stragglers < 400);
    }

    #[test]
    fn sampling_is_reproducible_for_a_fixed_seed() {
        let link = LinkSpec::lan_100mbps();
        let run = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..50).map(|_| link.sample_delay(256, &mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    #[test]
    fn frame_latency_excludes_serialisation() {
        let link = LinkSpec::constant(500.0, 100.0);
        let mut rng = StdRng::seed_from_u64(1);
        let latency = link.sample_latency(&mut rng);
        assert_eq!(latency, Duration::from_micros(500));
        assert_eq!(latency + link.serialisation_delay(1_250), link.sample_delay(1_250, &mut rng));
    }

    #[test]
    fn presets_are_ordered_sensibly() {
        let loopback = LinkSpec::loopback().expected_delay(1024);
        let lan = LinkSpec::lan_100mbps().expected_delay(1024);
        let wan = LinkSpec::wan().expected_delay(1024);
        assert!(loopback < lan);
        assert!(lan < wan);
    }
}
