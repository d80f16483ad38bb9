//! Cross-crate integration tests: the full eXACML+ life cycle from policy
//! authoring through request handling, streaming, revocation and the
//! evaluation harness — written against the unified backend API, so every
//! scenario here runs identically on a single `DataServer` and on a 3-node
//! brokering `Fabric` (the backend is one builder line).

use exacml::exacml_bench::direct_deploy;
use exacml::exacml_dsms::{streamsql, AggFunc, AggSpec, Schema, StreamEngine, Value, WindowSpec};
use exacml::exacml_plus::Proxy;
use exacml::exacml_simnet::Topology;
use exacml::exacml_workload::{WorkloadGenerator, WorkloadSpec};
use exacml::exacml_xacml::{AttributeCategory, AttributeMatch, AttributeValue};
use exacml::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn example1_policy() -> Policy {
    StreamPolicyBuilder::new("nea-weather-for-lta", "weather")
        .subject("LTA")
        .filter("rainrate > 5")
        .visible_attributes(["samplingtime", "rainrate", "windspeed"])
        .window(
            WindowSpec::tuples(5, 2),
            vec![
                AggSpec::new("samplingtime", AggFunc::LastValue),
                AggSpec::new("rainrate", AggFunc::Avg),
                AggSpec::new("windspeed", AggFunc::Max),
            ],
        )
        .build()
}

/// Both deployment shapes, prepared with the running example's stream and
/// policy. Every scenario below runs on each.
fn backends(deploy_on_pr: bool) -> Vec<Arc<dyn Backend>> {
    [BackendBuilder::local(), BackendBuilder::fabric(3)]
        .map(|b| b.deploy_on_partial_result(deploy_on_pr).build())
        .into_iter()
        .inspect(|backend| {
            backend.register_stream("weather", Schema::weather_example()).unwrap();
            backend.load_policy(example1_policy()).unwrap();
        })
        .collect()
}

#[test]
fn full_lifecycle_of_the_running_example_on_both_backends() {
    for backend in backends(true) {
        let kind = backend.backend_kind();

        // The LTA refinement of Section 3.1, issued through a session.
        let session = Session::new(backend.clone(), "LTA");
        let query = UserQuery::for_stream("weather")
            .with_filter("rainrate > 50")
            .with_map(["samplingtime", "rainrate"])
            .with_aggregation(
                WindowSpec::tuples(10, 2),
                vec![
                    AggSpec::new("samplingtime", AggFunc::LastValue),
                    AggSpec::new("rainrate", AggFunc::Avg),
                ],
            );
        let response = session.request_access("weather", Some(&query)).unwrap();
        assert!(response.response.streamsql.contains("WHERE rainrate > 50"), "{kind}");
        assert!(response.response.streamsql.contains("SIZE 10 ADVANCE 2 TUPLES"), "{kind}");
        assert_eq!(
            response.response.output_schema.field_names(),
            vec!["lastvalsamplingtime", "avgrainrate"],
            "{kind}"
        );

        // Stream synthetic weather; only heavy-rain tuples reach the window.
        let mut subscription = session.subscribe("weather").unwrap();
        let mut feed = WeatherFeed::paper_default(3);
        feed.pump_into(backend.as_ref(), "weather", 1200).unwrap();
        let derived = subscription.drain();
        assert!(!derived.is_empty(), "{kind}: heavy-rain bursts must eventually fill a window");
        for tuple in &derived {
            assert!(tuple.get_f64("avgrainrate").unwrap() > 50.0, "{kind}");
        }

        // Revoking the policy kills the stream immediately (Section 3.3).
        let withdrawn = backend.remove_policy("nea-weather-for-lta").unwrap();
        assert_eq!(withdrawn, 1, "{kind}");
        assert!(!backend.handle_is_live(response.handle()), "{kind}");
        assert!(
            matches!(
                session.request_access("weather", Some(&query)),
                Err(ExacmlError::AccessDenied { .. })
            ),
            "{kind}"
        );
    }
}

#[test]
fn policy_documents_round_trip_through_every_backend() {
    for backend in [BackendBuilder::local(), BackendBuilder::fabric(3)]
        .map(|b| b.deploy_on_partial_result(true).build())
    {
        let kind = backend.backend_kind();
        backend.register_stream("weather", Schema::weather_example()).unwrap();
        // The owner ships the policy as an XML document.
        let xml = exacml::exacml_xacml::xml::write_policy(&example1_policy());
        backend.load_policy_xml(&xml).unwrap();

        let session = Session::new(backend.clone(), "LTA");
        let response = session.request_access("weather", None).unwrap();
        assert!(response.response.streamsql.contains("rainrate > 5"), "{kind}");

        // The user query can also travel as its Figure 4(a) XML document.
        session.release("weather");
        let query_xml = UserQuery::for_stream("weather")
            .with_filter("rainrate > 50")
            .with_map(["samplingtime", "rainrate", "windspeed"])
            .with_aggregation(
                WindowSpec::tuples(10, 2),
                vec![
                    AggSpec::new("samplingtime", AggFunc::LastValue),
                    AggSpec::new("rainrate", AggFunc::Avg),
                    AggSpec::new("windspeed", AggFunc::Max),
                ],
            )
            .to_xml();
        let query = UserQuery::from_xml(&query_xml).unwrap();
        let response = session.request_access("weather", Some(&query)).unwrap();
        assert!(response.response.streamsql.contains("rainrate > 50"), "{kind}");
    }
}

#[test]
fn conflicting_queries_never_deploy_anything() {
    for backend in backends(false) {
        let kind = backend.backend_kind();
        let session = Session::new(backend.clone(), "LTA");
        let contradictory = UserQuery::for_stream("weather")
            .with_filter("rainrate < 2")
            .with_map(["samplingtime", "rainrate", "windspeed"])
            .with_aggregation(
                WindowSpec::tuples(5, 2),
                vec![
                    AggSpec::new("samplingtime", AggFunc::LastValue),
                    AggSpec::new("rainrate", AggFunc::Avg),
                    AggSpec::new("windspeed", AggFunc::Max),
                ],
            );
        assert!(
            matches!(
                session.request_access("weather", Some(&contradictory)),
                Err(ExacmlError::ConflictDetected { .. })
            ),
            "{kind}"
        );
        assert_eq!(backend.live_deployments(), 0, "{kind}");
        assert!(session.live_handles().is_empty(), "{kind}");
    }
}

#[test]
fn multi_consumer_isolation_across_streams() {
    for backend in [BackendBuilder::local().build(), BackendBuilder::fabric(3).build()] {
        let kind = backend.backend_kind();
        backend.register_stream("weather", Schema::weather_example()).unwrap();
        backend.register_stream("gps", Schema::gps_example()).unwrap();
        for (i, (subject, stream)) in
            [("LTA", "weather"), ("NEA", "weather"), ("UrbanLab", "gps")].iter().enumerate()
        {
            let policy = StreamPolicyBuilder::new(format!("p{i}"), *stream)
                .subject(*subject)
                .filter(if *stream == "weather" { "rainrate >= 0" } else { "speed >= 0" })
                .build();
            backend.load_policy(policy).unwrap();
        }
        let lta = Session::new(backend.clone(), "LTA");
        let nea = Session::new(backend.clone(), "NEA");
        let lab = Session::new(backend.clone(), "UrbanLab");
        let lta_grant = lta.request_access("weather", None).unwrap();
        let nea_grant = nea.request_access("weather", None).unwrap();
        let lab_grant = lab.request_access("gps", None).unwrap();
        assert_ne!(lta_grant.handle(), nea_grant.handle(), "{kind}");
        assert_ne!(lta_grant.handle(), lab_grant.handle(), "{kind}");
        // LTA's and NEA's policies compile to the same core on "weather",
        // so their grants share one plan; UrbanLab's gps grant is its own.
        assert_eq!(backend.live_plans(), 2, "{kind}");
        assert_eq!(backend.live_deployments(), 2, "{kind}");
        // Wrong-stream requests are denied for every subject.
        assert!(lta.request_access("gps", None).is_err(), "{kind}");
        assert!(lab.request_access("weather", None).is_err(), "{kind}");
    }
}

#[test]
fn direct_query_scripts_from_the_workload_deploy_and_run() {
    let engine = StreamEngine::new();
    for (name, schema) in WorkloadGenerator::streams() {
        engine.register_stream(name, schema).unwrap();
    }
    let mut spec = WorkloadSpec::small();
    spec.n_policies = 20;
    spec.n_direct_queries = 20;
    let generator = WorkloadGenerator::new(spec);
    let queries = generator.generate_queries();
    let (topology, mut rng) = (Topology::local(), StdRng::seed_from_u64(42));
    for script in generator.direct_query_scripts(&queries) {
        let (handle, timing) = direct_deploy(&engine, &topology, &mut rng, &script).unwrap();
        assert!(engine.catalog().handle_is_live(&handle));
        assert!(timing.total >= timing.dsms);
    }
    assert_eq!(engine.deployment_count(), 20);
}

/// A caching proxy in front of `backend`, on the paper's testbed links.
fn caching_proxy(backend: Arc<dyn Backend>) -> Proxy {
    Proxy::new(backend, TopologyPreset::PaperTestbed.topology(), 7)
}

/// The handle cache answers without asking the PDP, so it must key on every
/// attribute the PDP decides on — not just subject, resource and action.
#[test]
fn proxy_cache_never_answers_a_request_the_pdp_would_refuse() {
    for backend in [BackendBuilder::local().build(), BackendBuilder::fabric(3).build()] {
        let kind = backend.backend_kind();
        backend.register_stream("weather", Schema::weather_example()).unwrap();
        let mut policy = StreamPolicyBuilder::new("lta-on-duty", "weather").subject("LTA").build();
        policy.target.matches.push(AttributeMatch::new(
            AttributeCategory::Environment,
            "duty",
            "on",
        ));
        backend.load_policy(policy).unwrap();
        let proxy = caching_proxy(backend.clone());
        let duty = |state: &str| {
            Request::subscribe("LTA", "weather")
                .with_environment("duty", AttributeValue::string(state))
        };

        let granted = proxy.request(&duty("on"), None).unwrap();
        assert!(backend.handle_is_live(granted.handle()), "{kind}");
        assert!(proxy.request(&duty("on"), None).unwrap().response.reused, "{kind}");
        assert_eq!(proxy.stats().hits, 1, "{kind}");

        // Same subject, stream and action; the PDP refuses, so must the proxy.
        assert!(
            matches!(proxy.request(&duty("off"), None), Err(ExacmlError::AccessDenied { .. })),
            "{kind}: the cache answered an off-duty request"
        );
        assert_eq!(proxy.stats().hits, 1, "{kind}");
        assert_eq!(backend.audit_kind_counts().get("denied"), Some(&1), "{kind}");
    }
}

/// Section 3.3 through the proxy, on the multi-node shapes: a policy update
/// withdraws the cached handle wherever it lives, and the proxy never serves
/// it again.
#[test]
fn proxy_never_serves_a_handle_a_policy_update_withdrew() {
    let dir = std::env::temp_dir().join(format!("exacml-e2e-proxy-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for backend in [BackendBuilder::fabric(3).build(), BackendBuilder::replicated(3, &dir).build()]
    {
        let kind = backend.backend_kind();
        backend.register_stream("weather", Schema::weather_example()).unwrap();
        backend.load_policy(example1_policy()).unwrap();
        let proxy = caching_proxy(backend.clone());
        let request = Request::subscribe("LTA", "weather");

        let first = proxy.request(&request, None).unwrap();
        assert_eq!(proxy.request(&request, None).unwrap().handle(), first.handle(), "{kind}");
        assert_eq!(proxy.stats().hits, 1, "{kind}");

        let updated = StreamPolicyBuilder::new("nea-weather-for-lta", "weather")
            .subject("LTA")
            .filter("rainrate > 50")
            .build();
        assert_eq!(backend.update_policy(updated).unwrap(), 1, "{kind}");
        assert!(!backend.handle_is_live(first.handle()), "{kind}");

        let second = proxy.request(&request, None).unwrap();
        assert_ne!(second.handle(), first.handle(), "{kind}");
        assert!(!second.response.reused, "{kind}");
        assert!(second.response.streamsql.contains("rainrate > 50"), "{kind}");
        assert_eq!(proxy.stats().hits, 1, "{kind}: the withdrawn handle was a miss");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn workload_replay_through_the_full_stack() {
    // A miniature version of the Figure 6(a)/(b) runs, via the bench harness.
    let mut spec = WorkloadSpec::small();
    spec.n_policies = 25;
    spec.n_requests = 50;
    spec.n_direct_queries = 25;
    spec.max_rank = 10;

    let fig6a = exacml::exacml_bench::fig6a_result(&spec, 10);
    assert_eq!(fig6a.series.len(), 2);
    // Direct query is not slower than eXACML+ on average.
    assert!(fig6a.summary[1].1 >= fig6a.summary[0].1);

    let fig6b = exacml::exacml_bench::fig6b_result(&spec, 10);
    assert_eq!(fig6b.series.len(), 3);
    // Caching does not hurt.
    assert!(fig6b.summary[2].1 <= fig6b.summary[1].1);

    let fig7 = exacml::exacml_bench::fig7_result(30, 25, 1);
    assert_eq!(fig7.rows.len(), 30);
    assert!(fig7.means.1 < 0.01);
}

#[test]
fn aggregate_outputs_match_a_reference_computation() {
    // End-to-end numeric check: the derived stream's averages equal a
    // straight recomputation over the pushed values — on both shapes.
    for backend in backends(false) {
        let kind = backend.backend_kind();
        let session = Session::new(backend.clone(), "LTA");
        let response = session.request_access("weather", None).unwrap();
        let mut subscription = session.subscribe("weather").unwrap();

        let schema = Schema::weather_example();
        let rains: Vec<f64> = (0..20).map(|i| 10.0 + f64::from(i)).collect(); // all pass
        for (i, rain) in rains.iter().enumerate() {
            let tuple = exacml::exacml_dsms::Tuple::builder(&schema)
                .set("samplingtime", Value::Timestamp(i as i64 * 30_000))
                .set("rainrate", *rain)
                .set("windspeed", 3.0)
                .finish_with_defaults();
            backend.push("weather", tuple).unwrap();
        }
        let derived = subscription.drain();
        // Window size 5, advance 2 over 20 tuples → windows ending at 5,7,…,19.
        assert_eq!(derived.len(), 8, "{kind}");
        for (w, tuple) in derived.iter().enumerate() {
            let start = w * 2;
            let expected: f64 = rains[start..start + 5].iter().sum::<f64>() / 5.0;
            let actual = tuple.get_f64("avgrainrate").unwrap();
            assert!((actual - expected).abs() < 1e-9, "{kind}: window {w}: {actual} vs {expected}");
        }
        let _ = streamsql::parse(&response.response.streamsql).unwrap();
    }
}

#[test]
fn audit_trail_records_the_access_lifecycle() {
    use exacml::exacml_plus::AuditEventKind;
    for backend in backends(false) {
        let kind = backend.backend_kind();
        let session = Session::new(backend.clone(), "LTA");
        // grant, reuse, deny, release — each leaves a node-tagged record.
        session.request_access("weather", None).unwrap();
        let reused = session.request_access("weather", None).unwrap();
        assert!(reused.response.reused, "{kind}");
        let _ = Session::new(backend.clone(), "EMA").request_access("weather", None);
        session.release("weather");
        backend.remove_policy("nea-weather-for-lta").unwrap();

        let events = backend.audit_events();
        let kinds: Vec<AuditEventKind> = events.iter().map(|t| t.event.kind).collect();
        assert!(kinds.contains(&AuditEventKind::PolicyLoaded), "{kind}");
        assert!(kinds.contains(&AuditEventKind::Granted), "{kind}");
        assert!(kinds.contains(&AuditEventKind::Reused), "{kind}");
        assert!(kinds.contains(&AuditEventKind::Denied), "{kind}");
        assert!(kinds.contains(&AuditEventKind::AccessReleased), "{kind}");
        assert!(kinds.contains(&AuditEventKind::PolicyRemoved), "{kind}");
        // Per-subject filtering only returns the LTA's events.
        let lta = backend.audit_events_for_subject("LTA");
        assert!(!lta.is_empty(), "{kind}");
        assert!(lta.iter().all(|t| t.event.subject.as_deref() == Some("LTA")), "{kind}");
    }
}

#[test]
fn corpus_files_and_policy_repository_integrate_with_the_server() {
    use exacml::exacml_workload::{export_corpus, import_corpus};
    use exacml::exacml_xacml::PolicyRepository;

    let mut spec = WorkloadSpec::small();
    spec.n_policies = 10;
    let generator = WorkloadGenerator::new(spec);
    let queries = generator.generate_queries();

    // Materialise the three files per query, as the paper's experiment does.
    let root = std::env::temp_dir().join(format!("exacml-e2e-corpus-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    export_corpus(&root, &queries).unwrap();
    let imported = import_corpus(&root).unwrap();
    assert_eq!(imported.len(), queries.len());

    // Store the policies in a file-backed repository and boot a backend from
    // it — through the trait, so a fabric could boot from the same corpus.
    let repo_dir = root.join("policies");
    let repo = PolicyRepository::open(&repo_dir).unwrap();
    for q in &imported {
        repo.save(&q.policy).unwrap();
    }
    let backend = BackendBuilder::local().build();
    for (name, schema) in WorkloadGenerator::streams() {
        backend.register_stream(name, schema).unwrap();
    }
    for policy in repo.load_all().unwrap() {
        backend.load_policy(policy).unwrap();
    }
    assert_eq!(backend.policy_count(), queries.len());

    // Every imported request is granted by the backend booted from disk.
    for q in imported.iter().take(5) {
        let response = backend.handle_request(&q.request, None).unwrap();
        assert!(backend.handle_is_live(response.handle()));
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// FNV-1a over `bytes`, continuing from `hash`: a hash that is the same on
/// every platform and toolchain, so a pinned value stays meaningful.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// The policies and requests the repository's corpora build: every built-in
/// scenario pack (its corpus, its replacement policies and its request
/// steps), the running example, a hand-built policy and request that reach
/// every element and escape, and the Table 3 and small workload corpora.
fn writer_corpus() -> (Vec<Policy>, Vec<Request>) {
    use exacml::exacml_xacml::{Obligation, Rule, RuleCombiningAlg, Target};

    let mut policies = vec![example1_policy()];
    let mut requests = vec![Request::subscribe("LTA", "weather")];
    for pack in exacml::exacml_workload::packs::all() {
        policies.extend(pack.policies.iter().map(|spec| spec.build().unwrap()));
        for step in &pack.script {
            if let Some(spec) = &step.policy {
                policies.push(spec.build().unwrap());
            }
            if step.op == "request" {
                requests.push(Request::subscribe(&step.subject, &step.stream));
            }
        }
    }
    let mut rule = Rule::permit_all("scoped");
    rule.target = Target::new(vec![AttributeMatch::new(
        AttributeCategory::Environment,
        "time-of-day",
        "after <18:00> & \"before\" 'dawn'",
    )]);
    policies.push(
        Policy::new("edge & <escapes>")
            .with_description("a \"quoted\" <description> & 'more'")
            .with_target(Target::subject_resource_action("EMA", "gps", "subscribe"))
            .with_rule(rule)
            .with_rule(Rule::deny_all("rest"))
            .with_rule_combining(RuleCombiningAlg::DenyOverrides)
            .with_obligation(Obligation::on_deny("audit").with_integer("level", 3))
            .with_obligation(Obligation::on_permit("note").with_string("why", "a < b && c > d")),
    );
    policies.push(Policy::new("bare"));
    requests.push(
        Request::subscribe("EMA & co", "gps")
            .with_attribute(
                AttributeCategory::Environment,
                "time-of-day",
                AttributeValue::string("<19:00>"),
            )
            .with_attribute(AttributeCategory::Subject, "clearance", AttributeValue::integer(4))
            .with_attribute(AttributeCategory::Resource, "ratio", AttributeValue::double(0.5))
            .with_attribute(AttributeCategory::Action, "live", AttributeValue::boolean(true)),
    );
    for spec in [WorkloadSpec::table3(), WorkloadSpec::small()] {
        for query in WorkloadGenerator::new(spec).generate_queries() {
            policies.push(query.policy);
            requests.push(query.request);
        }
    }
    (policies, requests)
}

/// The XML writers' bytes are pinned: stored stores, the WAL and the
/// simulated upload sizes all read them, so a rewrite of a writer must
/// emit every document of every corpus byte for byte as before.
#[test]
fn xml_writers_emit_the_pinned_bytes_for_every_corpus() {
    use exacml::exacml_xacml::xml::{write_policy, write_request};

    let (policies, requests) = writer_corpus();
    let policy_hash =
        policies.iter().fold(0xcbf2_9ce4_8422_2325, |h, p| fnv1a(h, write_policy(p).as_bytes()));
    let request_hash =
        requests.iter().fold(0xcbf2_9ce4_8422_2325, |h, r| fnv1a(h, write_request(r).as_bytes()));
    assert_eq!((policies.len(), policy_hash), (1_117, 0x726f_decf_4195_1642));
    assert_eq!((requests.len(), request_hash), (1_124, 0x0513_201f_d0f1_c825));
}
