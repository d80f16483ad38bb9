//! Scenario packs end to end: load a declarative pack (here the built-in
//! `adversarial` one), run it against two different backend shapes through
//! the same runner, check its expected-outcome oracles, and show that the
//! semantic fingerprint — decision counts, deliveries, decision audit
//! events — is byte-identical across shapes.
//!
//! Packs also live as JSON (`crates/workload/packs/*.json`); the same code
//! runs a pack loaded with `ScenarioPack::from_json_str`. See
//! `docs/SCENARIOS.md` for the pack schema and an authoring guide.
//!
//! Run with `cargo run --example scenario_pack`.

use exacml::exacml_workload::packs;
use exacml::exacml_workload::runner::run_pack_checked;
use exacml::exacml_workload::scenario::ScenarioPack;
use exacml::prelude::*;

fn main() {
    let pack = packs::by_name("adversarial").expect("built-in pack");
    println!("pack '{}': {}\n", pack.name, pack.description);

    // The JSON round trip is lossless — what ships in packs/*.json is the
    // whole scenario, oracles included.
    let json = pack.to_json_string().expect("pack serializes");
    let reloaded = ScenarioPack::from_json_str(&json).expect("pack reloads");
    assert_eq!(reloaded, pack);

    // Same pack, two shapes, one runner. `run_pack_checked` panics if any
    // oracle — grant/denial pins, the 29 attacker window sums, the audited
    // guard refusals — fails to hold.
    let mut fingerprints = Vec::new();
    for backend in [BackendBuilder::local().build(), BackendBuilder::fabric(3).build()] {
        let outcome = run_pack_checked(backend.as_ref(), &reloaded);
        println!(
            "{:<12} grants={} reuses={} denials={} blocked={} deliveries={:?}",
            outcome.backend_kind,
            outcome.counts.grants,
            outcome.counts.reuses,
            outcome.counts.denials,
            outcome.counts.blocked,
            outcome.deliveries,
        );
        fingerprints.push(outcome.semantic_fingerprint());
    }
    assert_eq!(fingerprints[0], fingerprints[1], "shape must not change scenario semantics");

    println!("\nevery attack blocked and audited; fingerprints identical across shapes");
}
