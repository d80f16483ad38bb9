//! Scenario-pack matrix: every built-in pack runs against every backend
//! shape, and its expected-outcome oracles (grant/denial pins, delivery
//! counts, audit invariants) must hold on all of them. The pack outcome's
//! *semantic fingerprint* — decision counts, per-tap deliveries and the
//! decision-kind audit counts — must be byte-identical across shapes:
//! scenario semantics cannot depend on deployment topology.
//!
//! Also here:
//!
//! * the Section 3.4 attack-guard regression on all four shapes (not just
//!   the bare engine) — the reconstruction's second window series is never
//!   granted, so `reconstruct_from_sums` has nothing to difference;
//! * the pack JSON round-trip property — a pack serialized and reloaded
//!   runs to identical fingerprints and normalized audit trails per seed;
//! * the durability story — half a pack on a `DurableServer`, a simulated
//!   crash, recovery from the store, and the oracles still pass with the
//!   pre-crash audit prefix preserved verbatim;
//! * the nightly soak (`#[ignore]`d): every pack at 8× ingest volume on all
//!   four shapes, and the adversarial pack on a replicated fabric inside a
//!   `FaultPlan` crash window.

use exacml::exacml_durable::{ReplicatedConfig, Replication};
use exacml::exacml_workload::packs;
use exacml::exacml_workload::runner::{normalized_audit, run_pack_checked, PackRun};
use exacml::exacml_workload::scenario::ScenarioPack;
use exacml::prelude::*;
use exacml_plus::attack::{reconstruct_from_sums, simulate_attack};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

static STORE_COUNTER: AtomicUsize = AtomicUsize::new(0);

/// A fresh store directory for one durable backend under test.
fn durable_store_dir() -> std::path::PathBuf {
    let n = STORE_COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("exacml-packs-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The four backend shapes every pack runs against.
fn backends() -> Vec<(Arc<dyn Backend>, Option<std::path::PathBuf>)> {
    let durable_dir = durable_store_dir();
    let replicated_dir = durable_store_dir();
    vec![
        (BackendBuilder::local().build(), None),
        (BackendBuilder::fabric(3).build(), None),
        (BackendBuilder::durable(&durable_dir).build(), Some(durable_dir)),
        (BackendBuilder::replicated(3, &replicated_dir).build(), Some(replicated_dir)),
    ]
}

/// Run one pack on all four shapes, check every oracle, and pin the
/// cross-shape fingerprint equality.
fn pack_matrix(pack: &ScenarioPack) {
    let mut fingerprints = Vec::new();
    for (backend, store) in backends() {
        let outcome = run_pack_checked(backend.as_ref(), pack);
        fingerprints.push((outcome.backend_kind.clone(), outcome.semantic_fingerprint()));
        drop(backend);
        if let Some(dir) = store {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
    let (reference_kind, reference) = &fingerprints[0];
    for (kind, fingerprint) in &fingerprints[1..] {
        assert_eq!(
            fingerprint, reference,
            "pack '{}': fingerprint on {kind} diverges from {reference_kind}",
            pack.name
        );
    }
}

fn builtin(name: &str) -> ScenarioPack {
    packs::by_name(name).unwrap_or_else(|| panic!("no built-in pack '{name}'"))
}

#[test]
fn smart_city_pack_on_all_shapes() {
    pack_matrix(&builtin("smart-city"));
}

#[test]
fn financial_ticks_pack_on_all_shapes() {
    pack_matrix(&builtin("financial-ticks"));
}

#[test]
fn iot_fleet_pack_on_all_shapes() {
    pack_matrix(&builtin("iot-fleet"));
}

#[test]
fn adversarial_pack_on_all_shapes() {
    pack_matrix(&builtin("adversarial"));
}

/// The committed pack files, read from disk at run time, drive the exact
/// same matrix as the copies `packs` embedded at compile time.
#[test]
fn pack_files_run_green_on_local_shape() {
    for pack in packs::all() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("crates/workload/packs")
            .join(format!("{}.json", pack.name));
        let json = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        let loaded = ScenarioPack::from_json_str(&json)
            .unwrap_or_else(|e| panic!("{} does not parse: {e}", path.display()));
        let backend = BackendBuilder::local().build();
        run_pack_checked(backend.as_ref(), &loaded);
    }
}

// ---------------------------------------------------------------------------
// Satellite: the Section 3.4 guard holds on every shape, not just the bare
// engine.
// ---------------------------------------------------------------------------

/// Example 2's reconstruction against the *unguarded* engine primitives
/// succeeds — which is exactly why every deployed shape must refuse the
/// second window. On each shape: the attacker gets window size 3, is blocked
/// on sizes 4 and 5 (audited), and the single granted series gives
/// `reconstruct_from_sums` nothing to difference.
#[test]
fn attack_guard_blocks_reconstruction_on_every_shape() {
    // The unguarded baseline: with both series the attack recovers a3, a4, …
    let values: Vec<f64> = (0..16).map(f64::from).collect();
    assert!(
        simulate_attack(&values, 3, 2).unwrap().reconstructed.len() >= 8,
        "the bare-engine attack must succeed, or the guard is pointless"
    );

    for (backend, store) in backends() {
        let kind = backend.backend_kind();
        backend
            .register_stream(
                "s",
                exacml_dsms::Schema::from_pairs([
                    ("samplingtime", exacml_dsms::DataType::Timestamp),
                    ("a", exacml_dsms::DataType::Double),
                ]),
            )
            .unwrap();
        backend
            .load_policy(
                StreamPolicyBuilder::new("sums", "s")
                    .subject("attacker")
                    .visible_attributes(["samplingtime", "a"])
                    .window(WindowSpec::tuples(3, 2), vec![AggSpec::new("a", AggFunc::Sum)])
                    .build(),
            )
            .unwrap();
        let window = |size: u64| {
            UserQuery::for_stream("s").with_aggregation(
                WindowSpec::tuples(size, 2),
                vec![AggSpec::new("a", AggFunc::Sum)],
            )
        };
        let request = Request::subscribe("attacker", "s");

        let granted = backend.handle_request(&request, Some(&window(3))).unwrap();
        let mut tap = backend.subscribe(granted.handle()).unwrap();
        for size in [4, 5] {
            assert!(
                matches!(
                    backend.handle_request(&request, Some(&window(size))),
                    Err(ExacmlError::MultipleAccess { .. })
                ),
                "{kind}: window size {size} must hit the single-access guard"
            );
        }

        let schema = Arc::new(exacml_dsms::Schema::from_pairs([
            ("samplingtime", exacml_dsms::DataType::Timestamp),
            ("a", exacml_dsms::DataType::Double),
        ]));
        backend
            .push_batch(
                "s",
                values
                    .iter()
                    .enumerate()
                    .map(|(i, v)| {
                        exacml_dsms::Tuple::builder_shared(&schema)
                            .set("samplingtime", exacml_dsms::Value::Timestamp(i as i64 * 1000))
                            .set("a", *v)
                            .finish_with_defaults()
                    })
                    .collect(),
            )
            .unwrap();

        // The one granted series alone cannot be differenced into values.
        let sums: Vec<f64> =
            tap.drain_settled().iter().filter_map(|t| t.tuple.get_f64("suma")).collect();
        assert!(!sums.is_empty(), "{kind}: the granted window must deliver");
        assert!(
            reconstruct_from_sums(&[sums], 3, 2).is_empty(),
            "{kind}: a single window series must not reconstruct anything"
        );

        // Both refusals are on the audit trail, exactly once per decision.
        let blocked =
            backend.audit_kind_counts().get("multiple-access-blocked").copied().unwrap_or(0);
        assert_eq!(blocked, 2, "{kind}: both guard refusals must be audited");

        drop(backend);
        if let Some(dir) = store {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

// ---------------------------------------------------------------------------
// Satellite: JSON round-trip determinism.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A pack serialized to JSON and reloaded runs to the identical semantic
    /// fingerprint *and* the identical normalized audit trail, whatever the
    /// seed — the JSON form loses nothing the runtime can observe.
    #[test]
    fn pack_json_round_trip_is_deterministic(pack_index in 0usize..4, seed in 0u64..1_000_000) {
        let pack = packs::all().swap_remove(pack_index).with_seed(seed);
        let json = pack.to_json_string().unwrap();
        let reloaded = ScenarioPack::from_json_str(&json).unwrap();
        prop_assert_eq!(&reloaded, &pack);

        let run = |p: &ScenarioPack| {
            let backend = BackendBuilder::local().build();
            let outcome = exacml_workload::runner::run_pack(backend.as_ref(), p).unwrap();
            (outcome.semantic_fingerprint(), normalized_audit(&backend.audit_events()))
        };
        let (fingerprint_a, audit_a) = run(&pack);
        let (fingerprint_b, audit_b) = run(&reloaded);
        prop_assert_eq!(fingerprint_a, fingerprint_b);
        prop_assert_eq!(audit_a, audit_b);
    }
}

// ---------------------------------------------------------------------------
// Satellite: pack replay across a durable crash/recover cycle.
// ---------------------------------------------------------------------------

/// Half the smart-city pack runs on a `DurableServer`; the process "dies"
/// (backend dropped); `BackendBuilder::durable` recovers the store; the taps
/// re-attach to their re-minted handles and the script finishes. Every
/// oracle still holds — including the exact 9 health-window emissions — and
/// the post-recovery audit trail starts with the pre-crash events verbatim
/// (sequences *and* original timestamps).
#[test]
fn durable_pack_survives_crash_and_recovery() {
    let dir = durable_store_dir();
    let pack = builtin("smart-city");

    let backend = BackendBuilder::durable(&dir).build();
    let mut run = PackRun::setup(backend.as_ref(), &pack).unwrap();
    let halfway = run.script_len() / 2;
    while run.cursor() < halfway {
        run.step(backend.as_ref()).unwrap();
    }
    run.drain_taps();
    let audit_prefix = backend.audit_events();
    assert!(!audit_prefix.is_empty(), "half the script must have produced audit events");
    drop(backend); // the crash

    let recovered = BackendBuilder::durable(&dir).build();
    run.reattach(recovered.as_ref()).unwrap();
    run.run_script(recovered.as_ref()).unwrap();
    let outcome = run.finish(recovered.as_ref());

    let violations = outcome.check(&pack.expect);
    assert!(violations.is_empty(), "oracles must survive recovery:\n  {}", violations.join("\n  "));
    let final_events = recovered.audit_events();
    assert!(final_events.len() > audit_prefix.len());
    assert_eq!(
        &final_events[..audit_prefix.len()],
        &audit_prefix[..],
        "recovery must preserve the pre-crash audit prefix verbatim"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Nightly: full-scale packs, and the adversarial pack under a fault-plan
// crash window.
// ---------------------------------------------------------------------------

/// Every pack with each ingest step at 8× its committed volume, on all four
/// shapes: decision pins and delivery minimums still hold (`scaled` lifts
/// only the exact delivery ceilings — window emissions grow with volume)
/// and the fingerprints still agree across shapes. `#[ignore]`d on PRs; the
/// nightly soak runs it with `-- --ignored`.
#[test]
#[ignore = "nightly soak: every pack at 8x ingest volume"]
fn packs_at_eight_times_volume_on_all_shapes() {
    for pack in packs::all() {
        pack_matrix(&pack.scaled(8));
    }
}

/// The adversarial pack on a replicated fabric while a `FaultPlan` kills a
/// host mid-script: every attack stays blocked and audited, and the
/// delivery/decision oracles still hold through the failover. `#[ignore]`d
/// on PRs; the nightly soak runs it with `-- --ignored`.
#[test]
#[ignore = "nightly soak: adversarial pack under a crash window"]
fn adversarial_pack_survives_fault_plan_crash() {
    let root = durable_store_dir();
    let plan = Arc::new(FaultPlan::new().inject(
        Fault::Crash { node: NodeId::Server(2) },
        Duration::from_millis(40),
        Duration::from_millis(100),
    ));
    let fabric = Replication::create(
        ReplicatedConfig::new(3, &root)
            .with_replication(1)
            .with_fabric(|f| f.with_seed(7).with_fault_plan(plan)),
    )
    .unwrap();
    let pack = builtin("adversarial");

    let mut run = PackRun::setup(&fabric, &pack).unwrap();
    let halfway = run.script_len() / 2;
    while run.cursor() < halfway {
        run.step(&fabric).unwrap();
    }
    run.drain_taps();
    // Ship the pre-crash journal to the mirrors — the guard's refusal events
    // and the attacker's window state must be durable *before* the host
    // dies, or the crash (legitimately) takes the unshipped tail with it.
    fabric.layer().settle_replication();
    // Cross the crash instant; the next touches fail the dead host's nodes
    // over to survivors, and the taps re-attach at their recorded URIs.
    fabric.advance(Duration::from_millis(50));
    run.reattach(&fabric).unwrap();
    run.run_script(&fabric).unwrap();
    let outcome = run.finish(&fabric);

    let violations = outcome.check(&pack.expect);
    assert!(
        violations.is_empty(),
        "adversarial oracles must hold through the crash window:\n  {}",
        violations.join("\n  ")
    );
    assert!(!fabric.layer().host_is_alive(2), "the crash window must have fired");
    let _ = std::fs::remove_dir_all(&root);
}
