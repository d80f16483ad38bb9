//! The Section 3.4 privacy leak and its prevention.
//!
//! Example 2 of the paper: if one user can hold several aggregation windows
//! with different sizes over the same stream, subtracting the aggregated
//! outputs reconstructs the raw tuples the policy meant to hide. This example
//! first performs the attack against the bare DSMS (no access control), then
//! shows that eXACML+'s single-access guard refuses the second window.
//!
//! Run with `cargo run --example leak_reconstruction`.

use exacml::exacml_dsms::{AggFunc, AggSpec, DataType, Schema, WindowSpec};
use exacml::exacml_plus::simulate_attack;
use exacml::prelude::*;

fn main() {
    // --- part 1: the attack against a bare stream engine --------------------
    // A "secret" per-tuple series the owner only wants to expose as sums.
    let secret: Vec<f64> = (0..24).map(|i| f64::from(i * 3 % 17) + 0.5).collect();
    println!("original (secret) stream: {secret:?}\n");

    // The attacker opens sum windows of sizes 3, 4 and 5 (advance step 2).
    let outcome = simulate_attack(&secret, 3, 2).expect("windows of sizes 3..=5, step 2");
    println!(
        "attacker reconstructs {} of the hidden values starting at a{} (recovery rate {:.0}%):",
        outcome.reconstructed.len(),
        outcome.first_recovered_index,
        outcome.recovery_rate() * 100.0
    );
    println!("{:?}\n", outcome.reconstructed);
    assert!(outcome.recovery_rate() > 0.8, "the attack should succeed against the bare engine");

    // --- part 2: eXACML+ prevents it ----------------------------------------
    let backend = BackendBuilder::local().build();
    backend
        .register_stream(
            "readings",
            Schema::from_pairs([("samplingtime", DataType::Timestamp), ("a", DataType::Double)]),
        )
        .unwrap();
    // The owner's policy: only sum windows of size ≥ 3, advance ≥ 2.
    let policy = StreamPolicyBuilder::new("sums-only", "readings")
        .subject("analyst")
        .visible_attributes(["samplingtime", "a"])
        .window(WindowSpec::tuples(3, 2), vec![AggSpec::new("a", AggFunc::Sum)])
        .build();
    backend.load_policy(policy).unwrap();

    let analyst = Session::new(backend, "analyst");
    let window = |size: u64| {
        UserQuery::for_stream("readings")
            .with_aggregation(WindowSpec::tuples(size, 2), vec![AggSpec::new("a", AggFunc::Sum)])
    };

    // The first window (size 3) is granted...
    let first = analyst
        .request_access("readings", Some(&window(3)))
        .expect("the first window is within the policy");
    println!("first window granted: {}", first.handle());

    // ...but the second and third windows — the ones the attack needs — are
    // rejected because the analyst already holds a live query on the stream.
    for size in [4u64, 5] {
        match analyst.request_access("readings", Some(&window(size))) {
            Err(e) => println!("window of size {size} refused: {e}"),
            Ok(_) => panic!("the single-access guard should have refused window size {size}"),
        }
    }
    println!("\nthe multi-window reconstruction attack is blocked by the single-access rule");
}
