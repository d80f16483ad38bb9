//! The paper's concrete worked examples, each reproduced as a test:
//!
//! * Example 1 / Figure 1 / Figure 2 — the NEA→LTA weather policy;
//! * Figure 4 — the user query and the merged StreamSQL;
//! * Example 2 — the multi-window reconstruction and its prevention;
//! * Example 3 — the PR and NR filter cases, down to the exact tuple values;
//! * Example 4 — the DNF-based conflict procedure;
//! * Table 1 / Table 2 — the obligation vocabulary and NOT-conversion rules.

use exacml::prelude::*;
use exacml_dsms::{AggFunc, AggSpec, Schema, Tuple, Value, WindowSpec};
use exacml_expr::{analyze_merge, parse_expr, CmpOp, Verdict};
use exacml_plus::obligations::ids;
use exacml_plus::{attack::simulate_attack, graph_from_obligations, merge_graphs, MergeOptions};

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

#[test]
fn example1_policy_encodes_figure2_obligations() {
    let policy = example1_policy();
    let ids_seen: Vec<&str> = policy.obligations.iter().map(|o| o.id.as_str()).collect();
    // Table 1: the three obligation types, one per operator.
    assert_eq!(ids_seen, vec![ids::STREAM_FILTER, ids::STREAM_MAP, ids::STREAM_WINDOW]);
    let window = &policy.obligations[2];
    assert_eq!(window.first_integer(ids::WINDOW_SIZE), Some(5));
    assert_eq!(window.first_integer(ids::WINDOW_STEP), Some(2));
    assert_eq!(window.first_text(ids::WINDOW_TYPE), Some("tuple"));
    let attrs: Vec<&str> =
        window.values_of(ids::WINDOW_ATTR).iter().map(|v| v.text.as_str()).collect();
    assert_eq!(attrs, vec!["samplingtime:lastval", "rainrate:avg", "windspeed:max"]);

    // Figure 1: the derived query graph is filter → map → window aggregation.
    let graph = graph_from_obligations("weather", &policy.obligations).unwrap();
    assert_eq!(graph.composition(), "FB+MB+AB");
    let out = graph.output_schema(&Schema::weather_example()).unwrap();
    assert_eq!(out.field_names(), vec!["lastvalsamplingtime", "avgrainrate", "maxwindspeed"]);
}

#[test]
fn figure4_user_query_merges_into_the_published_streamsql() {
    let policy_graph = graph_from_obligations("weather", &example1_policy().obligations).unwrap();
    let user_query = UserQuery::for_stream("weather")
        .with_filter("rainrate > 50")
        .with_map(["rainrate", "samplingtime"])
        .with_aggregation(
            WindowSpec::tuples(10, 2),
            vec![
                AggSpec::new("samplingtime", AggFunc::LastValue),
                AggSpec::new("rainrate", AggFunc::Avg),
            ],
        );
    let outcome =
        merge_graphs(&policy_graph, &user_query.to_graph().unwrap(), MergeOptions::default())
            .unwrap();
    let sql = exacml_dsms::streamsql::generate(&outcome.graph, &Schema::weather_example());
    // The elements of Figure 4(b).
    assert!(sql.contains("CREATE INPUT STREAM weather (samplingtime timestamp"));
    assert!(sql.contains("WHERE rainrate > 50"));
    assert!(sql.contains("SIZE 10 ADVANCE 2 TUPLES"));
    assert!(sql.contains("lastval(samplingtime) AS lastvalsamplingtime"));
    assert!(sql.contains("avg(rainrate) AS avgrainrate"));
    assert!(sql.trim_end().ends_with("INTO output;"));
}

#[test]
fn example2_reconstruction_and_single_access_prevention() {
    // The attack numbers of Example 2: S = a0, a1, a2, ... with windows of
    // sizes 3, 4, 5 and advance 2. S1 = (a0+a1+a2), (a2+a3+a4), ...
    let values: Vec<f64> = (0..16).map(f64::from).collect();
    let outcome = simulate_attack(&values, 3, 2).unwrap();
    // The attacker recovers a3, a4, a5, ... exactly.
    assert!(outcome.reconstructed.len() >= 8);
    for (k, v) in outcome.reconstructed.iter().enumerate() {
        assert!((v - values[3 + k]).abs() < 1e-9);
    }

    // eXACML+ blocks the second window for the same (subject, stream) — on
    // a single server and on a fabric alike.
    for backend in [BackendBuilder::local().build(), BackendBuilder::fabric(3).build()] {
        backend
            .register_stream(
                "s",
                Schema::from_pairs([
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
        let attacker = Session::new(backend.clone(), "attacker");
        let window = |size: u64| {
            UserQuery::for_stream("s").with_aggregation(
                WindowSpec::tuples(size, 2),
                vec![AggSpec::new("a", AggFunc::Sum)],
            )
        };
        attacker.request_access("s", Some(&window(3))).unwrap();
        assert!(matches!(
            attacker.request_access("s", Some(&window(4))),
            Err(ExacmlError::MultipleAccess { .. })
        ));
        assert!(matches!(
            attacker.request_access("s", Some(&window(5))),
            Err(ExacmlError::MultipleAccess { .. })
        ));
    }
}

#[test]
fn example3_partial_and_empty_result_filtering() {
    // The stream fragment of Example 3.
    let fragment = [9.0, 10.0, 11.0, 3.0, 2.0, 6.0, 9.0, 8.0, 7.0, 2.0, 13.0];
    let schema = Schema::from_pairs([("a", exacml_dsms::DataType::Double)]);
    let apply = |condition: &str| -> Vec<f64> {
        let filter = exacml_dsms::FilterOp::parse(condition).unwrap();
        fragment
            .iter()
            .filter_map(|v| {
                let t = Tuple::builder(&schema).set("a", *v).finish().unwrap();
                filter.apply(t).map(|t| t.get_f64("a").unwrap())
            })
            .collect()
    };
    // What the user expects (a > 5) vs what they actually get (a > 8 AND a > 5).
    assert_eq!(apply("a > 5"), vec![9.0, 10.0, 11.0, 6.0, 9.0, 8.0, 7.0, 13.0]);
    assert_eq!(apply("a > 8 AND a > 5"), vec![9.0, 10.0, 11.0, 9.0, 13.0]);
    // The framework flags exactly these two situations.
    assert_eq!(
        analyze_merge(&parse_expr("a > 8").unwrap(), &parse_expr("a > 5").unwrap()).verdict,
        Verdict::Pr
    );
    assert_eq!(
        analyze_merge(&parse_expr("a < 4").unwrap(), &parse_expr("a > 5").unwrap()).verdict,
        Verdict::Nr
    );
    // With F1 = a < 4 only 3, 2, 2 remain, none of which satisfies a > 5.
    assert_eq!(apply("a < 4"), vec![3.0, 2.0, 2.0]);
    assert_eq!(apply("a < 4 AND a > 5"), Vec::<f64>::new());
}

#[test]
fn example4_dnf_procedure_returns_nr() {
    let c1 = parse_expr("(a > 20 AND a < 30) OR NOT (a != 40)").unwrap();
    let c2 = parse_expr("NOT (a >= 10) AND b = 20").unwrap();
    let report = analyze_merge(&c1, &c2);
    assert_eq!(report.verdict, Verdict::Nr);
    assert_eq!(report.clause_count, 2);
    let mut widths = [report.max_clause_width];
    widths.sort_unstable();
    assert_eq!(*widths.last().unwrap(), 4);
    // Every clause individually is contradictory, exactly as the paper walks
    // through with the (D,C) and (D,A) calls.
    assert!(report.clause_verdicts.iter().all(|v| *v == Verdict::Nr));
}

#[test]
fn table2_not_conversion_rules() {
    let cases = [
        (CmpOp::Gt, CmpOp::Le),
        (CmpOp::Lt, CmpOp::Ge),
        (CmpOp::Ge, CmpOp::Lt),
        (CmpOp::Le, CmpOp::Gt),
        (CmpOp::Eq, CmpOp::Ne),
        (CmpOp::Ne, CmpOp::Eq),
    ];
    for (op, negated) in cases {
        assert_eq!(op.negate(), negated);
    }
}

#[test]
fn figure5_matrix_for_ge_versus_le() {
    // S1 = x >= v1 (policy), S2 = x <= v2 (user): NR when v1 > v2, PR otherwise.
    for (v1, v2, expected) in
        [(10.0, 5.0, Verdict::Nr), (5.0, 10.0, Verdict::Pr), (7.0, 7.0, Verdict::Pr)]
    {
        let verdict = analyze_merge(
            &parse_expr(&format!("x >= {v1}")).unwrap(),
            &parse_expr(&format!("x <= {v2}")).unwrap(),
        )
        .verdict;
        assert_eq!(verdict, expected, "v1={v1}, v2={v2}");
    }
}

#[test]
fn workflow_steps_of_section_3_2_in_order() {
    // A single request exercises all five steps and reports a timing
    // decomposition covering each of them — identically on both backends.
    for backend in [BackendBuilder::local().build(), BackendBuilder::fabric(2).build()] {
        backend.register_stream("weather", Schema::weather_example()).unwrap();
        backend.load_policy(example1_policy()).unwrap();
        let session = Session::new(backend.clone(), "LTA");
        let granted = session.request_access("weather", None).unwrap();
        let timing = &granted.response.timing;
        assert!(timing.total >= timing.pdp);
        assert!(timing.total >= timing.dsms);
        assert!(granted.total_latency() >= timing.total);
        assert!(!granted.response.streamsql.is_empty());
        assert!(backend.handle_is_live(granted.handle()));
        // The derived stream really is windowed: pushing fewer tuples than
        // the window size yields nothing.
        let mut subscription = session.subscribe("weather").unwrap();
        let schema = Schema::weather_example();
        for i in 0..3 {
            let t = Tuple::builder(&schema)
                .set("samplingtime", Value::Timestamp(i))
                .set("rainrate", 10.0)
                .finish_with_defaults();
            backend.push("weather", t).unwrap();
        }
        assert_eq!(subscription.drain().len(), 0);
    }
}
