//! The multiple-window reconstruction attack (Section 3.4).
//!
//! If a user were allowed to hold several aggregation windows over the same
//! stream simultaneously, they could recover the raw tuples the policy meant
//! to hide. Example 2 of the paper: with sum windows of sizes 3, 4, 5 and a
//! fixed advance step of 2, subtracting consecutive result streams yields the
//! individual elements `a3, a4, a5, ...` — everything except the first few
//! tuples.
//!
//! [`reconstruct_from_sums`] implements the general construction of the
//! paper's inductive proof (window sizes `N, N+1, ..., N+M` with advance
//! step `M` recover the original stream from the `N`-th tuple on), and
//! [`simulate_attack`] runs the whole attack end-to-end against the DSMS to
//! demonstrate the leak that the single-access guard
//! ([`crate::grant_table`]) prevents. The `leak_reconstruction` example and
//! the integration tests use it as the paper's Example 2 evidence.

use exacml_dsms::{
    AggFunc, AggSpec, QueryGraphBuilder, Schema, StreamEngine, Tuple, Value, WindowSpec,
};

/// Reconstruct raw stream values from the outputs of multiple sum windows.
///
/// `window_sums[i]` must hold the emissions of a sum-aggregation window of
/// size `base_size + i` (i = 0 ..= step), all with the same advance `step`
/// and all applied to the same stream from its first tuple. Following the
/// paper's notation, `base_size` is `N` and `step` is `M`; the return value
/// is the reconstructed `a_N, a_{N+1}, a_{N+2}, ...` (the original stream
/// minus its first `N` tuples).
#[must_use]
pub fn reconstruct_from_sums(window_sums: &[Vec<f64>], base_size: usize, step: usize) -> Vec<f64> {
    let _ = base_size; // kept for symmetry with the paper's statement
    if window_sums.len() < 2 || step == 0 {
        return Vec::new();
    }
    // T_i = S_i − S_{i−1}: the j-th entry isolates one original value from
    // the residue class (i − 1) mod `step`.
    let usable = window_sums.len().min(step + 1);
    let mut differences: Vec<Vec<f64>> = Vec::with_capacity(usable - 1);
    for i in 1..usable {
        let shorter = &window_sums[i - 1];
        let longer = &window_sums[i];
        let len = shorter.len().min(longer.len());
        differences.push((0..len).map(|j| longer[j] - shorter[j]).collect());
    }
    if differences.is_empty() {
        return Vec::new();
    }
    // Interleave T_1 ... T_M: emission j of T_i is a_{N + j·M + (i−1)}.
    let rounds = differences.iter().map(Vec::len).min().unwrap_or(0);
    let mut reconstructed = Vec::with_capacity(rounds * differences.len());
    for j in 0..rounds {
        for diff in &differences {
            reconstructed.push(diff[j]);
        }
    }
    reconstructed
}

/// The outcome of running the Example 2 attack end-to-end.
#[derive(Debug, Clone)]
pub struct AttackOutcome {
    /// The values actually pushed into the stream.
    pub original: Vec<f64>,
    /// The values the attacker reconstructed.
    pub reconstructed: Vec<f64>,
    /// Index of the first original value the attacker recovered
    /// (the paper's `N`).
    pub first_recovered_index: usize,
}

impl AttackOutcome {
    /// Fraction of the hidden suffix (`a_N ..`) the attacker recovered
    /// exactly.
    #[must_use]
    pub fn recovery_rate(&self) -> f64 {
        let suffix = &self.original[self.first_recovered_index.min(self.original.len())..];
        if suffix.is_empty() {
            return 0.0;
        }
        let matching = self
            .reconstructed
            .iter()
            .zip(suffix.iter())
            .filter(|(a, b)| (**a - **b).abs() < 1e-9)
            .count();
        matching as f64 / suffix.len() as f64
    }
}

/// Run the Section 3.4 attack against a real engine: deploy `step + 1` sum
/// windows of sizes `base_size ..= base_size + step` over one stream, push
/// `values`, collect the aggregated outputs and reconstruct the raw values.
///
/// This only succeeds because the engine itself enforces no single-access
/// rule — exactly the situation eXACML+'s access guard exists to prevent.
///
/// # Panics
/// Panics on engine errors; this is a demonstration/test helper, not
/// production API.
#[must_use]
pub fn simulate_attack(values: &[f64], base_size: u64, step: u64) -> AttackOutcome {
    let schema = Schema::from_pairs([
        ("samplingtime", exacml_dsms::DataType::Timestamp),
        ("a", exacml_dsms::DataType::Double),
    ]);
    let engine = StreamEngine::new();
    engine.register_stream("s", schema.clone()).expect("stream registration");

    let mut receivers = Vec::new();
    for extra in 0..=step {
        let graph = QueryGraphBuilder::on_stream("s")
            .aggregate(
                WindowSpec::tuples(base_size + extra, step),
                vec![AggSpec::new("a", AggFunc::Sum)],
            )
            .build();
        let deployment = engine.deploy(&graph).expect("deployment");
        receivers.push(engine.subscribe(&deployment.output_handle).expect("subscription"));
    }

    for (i, v) in values.iter().enumerate() {
        let tuple = Tuple::builder(&schema)
            .set("samplingtime", Value::Timestamp(i as i64))
            .set("a", *v)
            .finish()
            .expect("tuple construction");
        engine.push("s", tuple).expect("push");
    }

    let window_sums: Vec<Vec<f64>> = receivers
        .iter()
        .map(|rx| rx.try_iter().map(|t| t.values()[0].as_f64().unwrap_or(0.0)).collect())
        .collect();
    let reconstructed = reconstruct_from_sums(&window_sums, base_size as usize, step as usize);

    AttackOutcome {
        original: values.to_vec(),
        reconstructed,
        first_recovered_index: base_size as usize,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example2_reconstruction() {
        // S = a0, a1, ..., with windows of sizes 3, 4, 5 and step 2:
        // S2 − S1 yields a3, a5, a7, ...; S3 − S2 yields a4, a6, a8, ...
        // Interleaving recovers a3, a4, a5, ... exactly as Example 2 claims.
        let values: Vec<f64> = (0..20).map(|i| f64::from(i) * 1.5 + 0.25).collect();
        let outcome = simulate_attack(&values, 3, 2);
        assert_eq!(outcome.first_recovered_index, 3);
        assert!(!outcome.reconstructed.is_empty());
        for (k, reconstructed) in outcome.reconstructed.iter().enumerate() {
            let original = values[3 + k];
            assert!(
                (reconstructed - original).abs() < 1e-9,
                "position {k}: reconstructed {reconstructed}, original {original}"
            );
        }
        assert!(outcome.recovery_rate() > 0.8);
    }

    #[test]
    fn reconstruction_matches_for_other_parameters() {
        // N = 4, M = 3 → windows of sizes 4, 5, 6, 7.
        let values: Vec<f64> = (0..30).map(|i| (f64::from(i) * 0.7).sin() * 10.0).collect();
        let outcome = simulate_attack(&values, 4, 3);
        for (k, reconstructed) in outcome.reconstructed.iter().enumerate() {
            assert!((reconstructed - values[4 + k]).abs() < 1e-9, "mismatch at {k}");
        }
    }

    #[test]
    fn single_window_cannot_reconstruct() {
        let sums = vec![vec![6.0, 15.0, 24.0]];
        assert!(reconstruct_from_sums(&sums, 3, 2).is_empty());
        assert!(reconstruct_from_sums(&[], 3, 2).is_empty());
        assert!(reconstruct_from_sums(&[vec![1.0], vec![2.0]], 3, 0).is_empty());
    }

    #[test]
    fn reconstruction_rate_is_high_even_for_random_like_data() {
        let values: Vec<f64> = (0..50).map(|i| f64::from((i * 7919 + 13) % 101) / 3.0).collect();
        let outcome = simulate_attack(&values, 5, 2);
        assert!(outcome.recovery_rate() > 0.8, "rate = {}", outcome.recovery_rate());
    }
}
