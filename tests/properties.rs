//! Property-based tests (proptest) over the core invariants:
//!
//! * NOT-elimination, DNF conversion and simplification preserve the truth
//!   table of arbitrary filter conditions;
//! * `checkTwoSimpleExpression` verdicts agree with a brute-force model of
//!   the number line;
//! * obligations ⇄ query-graph translation is lossless for arbitrary graphs;
//! * sliding-window buffering emits exactly the windows the specification
//!   prescribes;
//! * the Section 3.4 reconstruction always succeeds against unconstrained
//!   multi-window access (which is why the guard exists);
//! * filters and residuals evaluated a batch at a time deliver exactly the
//!   rows the row-at-a-time interpreter accepts, and deployments sharing a
//!   stream's column cache deliver what each delivers alone;
//! * a FIFO simulated link drains exactly what a priority queue over its
//!   arrivals would.

use exacml_dsms::{AggFunc, AggSpec, FilterOp, QueryGraph, QueryGraphBuilder, WindowSpec};
use exacml_expr::{
    check_two_simple, eval::eval, normalize::eliminate_not, normalize::is_not_free, parse_expr,
    simplify, CmpOp, Dnf, Expr, MapBindings, SimpleExpr, Verdict,
};
use exacml_plus::attack::reconstruct_from_sums;
use exacml_plus::{graph_from_obligations, obligations_from_graph};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Expression generators
// ---------------------------------------------------------------------------

fn arb_cmp_op() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Lt),
        Just(CmpOp::Gt),
        Just(CmpOp::Le),
        Just(CmpOp::Ge),
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
    ]
}

fn arb_simple() -> impl Strategy<Value = Expr> {
    (prop_oneof![Just("a"), Just("b"), Just("c")], arb_cmp_op(), -5i32..15)
        .prop_map(|(attr, op, v)| Expr::Simple(SimpleExpr::new(attr, op, f64::from(v))))
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    arb_simple().prop_recursive(4, 32, 4, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Or(Box::new(a), Box::new(b))),
            inner.prop_map(|e| Expr::Not(Box::new(e))),
        ]
    })
}

fn grid_bindings() -> Vec<MapBindings> {
    let mut grid = Vec::new();
    for a in (-6..16).step_by(3) {
        for b in (-6..16).step_by(4) {
            for c in [-1i32, 7] {
                grid.push(
                    MapBindings::new()
                        .with_number("a", f64::from(a))
                        .with_number("b", f64::from(b))
                        .with_number("c", f64::from(c)),
                );
            }
        }
    }
    grid
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn not_elimination_preserves_truth_table(expr in arb_expr()) {
        let rewritten = eliminate_not(&expr);
        prop_assert!(is_not_free(&rewritten));
        for bindings in grid_bindings() {
            prop_assert_eq!(eval(&expr, &bindings), eval(&rewritten, &bindings));
        }
    }

    #[test]
    fn dnf_preserves_truth_table(expr in arb_expr()) {
        let dnf = Dnf::from_expr(&expr);
        let roundtrip = dnf.to_expr();
        for bindings in grid_bindings() {
            prop_assert_eq!(eval(&expr, &bindings), eval(&roundtrip, &bindings));
        }
    }

    #[test]
    fn simplify_preserves_truth_table_and_never_grows(expr in arb_expr()) {
        let simplified = simplify(&expr);
        for bindings in grid_bindings() {
            prop_assert_eq!(eval(&expr, &bindings), eval(&simplified, &bindings));
        }
        // Simplification must not exceed the size of the plain DNF rendering.
        prop_assert!(simplified.leaf_count() <= Dnf::from_expr(&expr).to_expr().leaf_count());
    }

    #[test]
    fn display_parse_round_trip(expr in arb_expr()) {
        let printed = expr.to_string();
        let reparsed = parse_expr(&printed).unwrap();
        for bindings in grid_bindings() {
            prop_assert_eq!(eval(&expr, &bindings), eval(&reparsed, &bindings));
        }
    }

    #[test]
    fn pairwise_check_agrees_with_brute_force(
        op1 in arb_cmp_op(), v1 in -10i32..20, op2 in arb_cmp_op(), v2 in -10i32..20
    ) {
        let policy = SimpleExpr::new("x", op1, f64::from(v1));
        let user = SimpleExpr::new("x", op2, f64::from(v2));
        let verdict = check_two_simple(&policy, &user);
        // Sample the number line densely, including half-points around every
        // threshold, so subset/emptiness decisions are witnessed.
        let sample: Vec<f64> = (-25..=45).map(|i| f64::from(i) * 0.5).collect();
        let in_policy = |x: f64| op1.apply_ord(x.partial_cmp(&f64::from(v1)).unwrap());
        let in_user = |x: f64| op2.apply_ord(x.partial_cmp(&f64::from(v2)).unwrap());
        let both: Vec<f64> = sample.iter().copied().filter(|x| in_policy(*x) && in_user(*x)).collect();
        let user_only: Vec<f64> = sample.iter().copied().filter(|x| in_user(*x)).collect();
        match verdict {
            Verdict::Nr => prop_assert!(both.is_empty()),
            Verdict::Compatible => prop_assert_eq!(both.len(), user_only.len()),
            Verdict::Pr => {
                // The policy removes at least one sampled user value, or the
                // satisfiable region lies between sample points (never the
                // case on the 0.5 grid with integer thresholds).
                prop_assert!(both.len() < user_only.len() || user_only.is_empty());
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Query graphs and obligations
// ---------------------------------------------------------------------------

fn arb_graph() -> impl Strategy<Value = QueryGraph> {
    let attrs = ["samplingtime", "rainrate", "windspeed", "temperature", "humidity"];
    let arb_filter =
        (0usize..4, 0.0f64..100.0).prop_map(move |(i, v)| format!("{} > {v:.1}", attrs[i + 1]));
    let arb_map = proptest::collection::vec(1usize..5, 1..4);
    let arb_agg = (
        4u64..20,
        1u64..4,
        0usize..4,
        prop_oneof![
            Just(AggFunc::Avg),
            Just(AggFunc::Max),
            Just(AggFunc::Min),
            Just(AggFunc::Sum),
            Just(AggFunc::Count)
        ],
    );
    (proptest::bool::ANY, proptest::bool::ANY, proptest::bool::ANY, arb_filter, arb_map, arb_agg)
        .prop_map(move |(with_f, with_m, with_a, filter, map_idx, (size, adv, agg_idx, func))| {
            let mut builder = QueryGraphBuilder::on_stream("weather");
            if with_f {
                builder = builder.filter_str(&filter).unwrap();
            }
            if with_m {
                let mut names: Vec<&str> = vec!["samplingtime"];
                for i in &map_idx {
                    names.push(attrs[*i]);
                }
                builder = builder.map(names);
            }
            if with_a {
                builder = builder.aggregate(
                    WindowSpec::tuples(size, adv.min(size)),
                    vec![
                        AggSpec::new("samplingtime", AggFunc::LastValue),
                        AggSpec::new(attrs[agg_idx + 1], func),
                    ],
                );
            }
            builder.build()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn obligations_round_trip_for_arbitrary_graphs(graph in arb_graph()) {
        let obligations = obligations_from_graph(&graph);
        prop_assert_eq!(obligations.len(), graph.len());
        let rebuilt = graph_from_obligations("weather", &obligations).unwrap();
        prop_assert_eq!(rebuilt, graph);
    }

    #[test]
    fn window_coarsening_is_reflexive_and_antitone(
        size in 1u64..30, advance in 1u64..30, extra_size in 0u64..10, extra_adv in 0u64..10
    ) {
        let advance = advance.min(size);
        let policy = WindowSpec::tuples(size, advance);
        prop_assert!(policy.is_coarsening_of(&policy));
        let coarser = WindowSpec::tuples(size + extra_size, advance + extra_adv);
        prop_assert!(coarser.is_coarsening_of(&policy));
        if extra_size > 0 {
            prop_assert!(!policy.is_coarsening_of(&WindowSpec::tuples(size + extra_size, advance)));
        }
    }

    #[test]
    fn tuple_windows_emit_the_expected_count(
        size in 1u64..12, advance in 1u64..12, n in 0usize..80
    ) {
        use exacml_dsms::{Schema, Tuple, Value, DataType};
        use exacml_dsms::window::SlidingBuffer;
        let advance = advance.min(size);
        let schema = Schema::from_pairs([("samplingtime", DataType::Timestamp), ("v", DataType::Double)]);
        let mut buffer = SlidingBuffer::new(WindowSpec::tuples(size, advance));
        let mut emitted = 0usize;
        for i in 0..n {
            let t = Tuple::builder(&schema)
                .set("samplingtime", Value::Timestamp(i as i64))
                .set("v", i as f64)
                .finish()
                .unwrap();
            let windows = buffer.push(t);
            for w in &windows {
                prop_assert_eq!(w.len(), size as usize);
            }
            emitted += windows.len();
        }
        let expected = if n >= size as usize {
            1 + (n - size as usize) / advance as usize
        } else {
            0
        };
        prop_assert_eq!(emitted, expected);
    }

    #[test]
    fn reconstruction_recovers_the_suffix(
        values in proptest::collection::vec(-50.0f64..50.0, 12..40),
        base in 2u64..5,
        step in 1u64..4,
    ) {
        let step = step.min(base);
        let outcome = exacml_plus::attack::simulate_attack(&values, base, step).unwrap();
        for (k, reconstructed) in outcome.reconstructed.iter().enumerate() {
            let original = values[base as usize + k];
            prop_assert!((reconstructed - original).abs() < 1e-6,
                "position {}: {} vs {}", k, reconstructed, original);
        }
    }

    #[test]
    fn reconstruct_from_sums_handles_arbitrary_lengths(
        rows in proptest::collection::vec(proptest::collection::vec(-10.0f64..10.0, 0..8), 0..5),
        step in 0usize..4,
    ) {
        // Never panics, and the output length is bounded by the number of
        // usable difference streams (at most `step`) times the shortest row
        // actually consumed (only the first `step + 1` rows participate).
        let out = reconstruct_from_sums(&rows, 3, step);
        let usable = rows.len().min(step + 1);
        let min_used = rows.iter().take(usable).map(Vec::len).min().unwrap_or(0);
        prop_assert!(out.len() <= min_used.saturating_mul(step.max(1)));
    }
}

// ---------------------------------------------------------------------------
// Shared plans vs. per-subscriber deployments
// ---------------------------------------------------------------------------

mod plan_sharing_equivalence {
    use super::*;
    use exacml_dsms::{Schema, Tuple, Value};
    use exacml_plus::{DataServer, ServerConfig, StreamPolicyBuilder, UserQuery};
    use exacml_simnet::Topology;
    use exacml_xacml::Request;
    use std::sync::Arc;

    const FILTER_ATTRS: [&str; 3] = ["rainrate", "windspeed", "temperature"];
    const PROJECTIONS: [&[&str]; 3] = [
        &["samplingtime", "rainrate"],
        &["samplingtime", "rainrate", "windspeed"],
        &["samplingtime", "windspeed", "temperature"],
    ];

    /// One subscriber's view of the stream. Optional picks are encoded as
    /// `index == pool size` (the vendored proptest stand-in has no
    /// `option::of`).
    #[derive(Debug, Clone)]
    struct SubscriberSpec {
        /// `(attr, threshold)`; `attr == FILTER_ATTRS.len()` means no filter.
        filter: (usize, u32),
        /// Index into `PROJECTIONS`; `== len` means no projection.
        projection: usize,
        /// `(window, advance)` for `avg(rainrate)`; `window == 0` means no
        /// aggregation.
        window: (u64, u64),
    }

    impl SubscriberSpec {
        fn to_query(&self) -> Option<UserQuery> {
            let mut query = UserQuery::for_stream("weather");
            let (attr, threshold) = self.filter;
            if attr < FILTER_ATTRS.len() {
                query = query.with_filter(format!("{} > {}", FILTER_ATTRS[attr], threshold));
            }
            if self.projection < PROJECTIONS.len() {
                query = query.with_map(PROJECTIONS[self.projection].iter().copied());
            }
            let (window, advance) = self.window;
            if window > 0 {
                query = query.with_aggregation(
                    WindowSpec::tuples(window, advance.clamp(1, window)),
                    vec![AggSpec::new("rainrate", AggFunc::Avg)],
                );
            }
            (!query.is_empty()).then_some(query)
        }
    }

    fn arb_subscriber() -> impl Strategy<Value = SubscriberSpec> {
        ((0usize..=FILTER_ATTRS.len(), 0u32..50), 0usize..=PROJECTIONS.len(), (0u64..6, 1u64..4))
            .prop_map(|(filter, projection, window)| SubscriberSpec { filter, projection, window })
    }

    fn server(share_plans: bool) -> DataServer {
        DataServer::new(ServerConfig {
            share_plans,
            deploy_on_partial_result: true,
            topology: Topology::local(),
            ..ServerConfig::default()
        })
    }

    fn weather_tuple(schema: &Arc<Schema>, i: i64, rain: f64, wind: f64) -> Tuple {
        Tuple::builder_shared(schema)
            .set("samplingtime", Value::Timestamp(i * 1000))
            .set("rainrate", rain)
            .set("windspeed", wind)
            .finish_with_defaults()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The tentpole's correctness property: for any set of overlapping
        /// subscriber queries, a server that merges them onto shared
        /// compiled plans delivers to every subscriber exactly what a
        /// server deploying one graph per subscriber delivers — same
        /// tuples, same order — while compiling at most as many plans.
        #[test]
        fn merged_delivery_equals_per_subscriber_deployment(
            subs in proptest::collection::vec(arb_subscriber(), 1..6),
            policy_threshold in 0u32..20,
            rows in proptest::collection::vec((0u32..60, 0u32..60), 0..30),
        ) {
            let merged = server(true);
            let unmerged = server(false);
            let schema = Schema::weather_example().shared();
            for backend in [&merged, &unmerged] {
                backend.register_stream("weather", Schema::weather_example()).unwrap();
                backend
                    .load_policy(
                        StreamPolicyBuilder::new("open", "weather")
                            .filter(format!("rainrate > {policy_threshold}"))
                            .build(),
                    )
                    .unwrap();
            }

            // Subscribe every spec on both servers; admission must agree.
            let mut receivers = Vec::new();
            for (i, spec) in subs.iter().enumerate() {
                let request = Request::subscribe(&format!("user{i}"), "weather");
                let query = spec.to_query();
                let on_merged = merged.handle_request(&request, query.as_ref());
                let on_unmerged = unmerged.handle_request(&request, query.as_ref());
                prop_assert_eq!(
                    on_merged.is_ok(), on_unmerged.is_ok(),
                    "admission diverged for {:?}", spec
                );
                if let (Ok(a), Ok(b)) = (on_merged, on_unmerged) {
                    receivers.push((
                        i,
                        merged.subscribe(&a.handle).unwrap(),
                        unmerged.subscribe(&b.handle).unwrap(),
                    ));
                }
            }
            // Sharing never compiles more plans than one-per-subscriber.
            prop_assert!(merged.plan_count() <= unmerged.plan_count());
            prop_assert_eq!(unmerged.plan_count(), receivers.len());

            let batch: Vec<Tuple> = rows
                .iter()
                .enumerate()
                .map(|(i, (rain, wind))| {
                    weather_tuple(&schema, i as i64, f64::from(*rain), f64::from(*wind))
                })
                .collect();
            merged.push_batch("weather", batch.clone()).unwrap();
            unmerged.push_batch("weather", batch).unwrap();

            for (i, shared_rx, solo_rx) in receivers {
                let via_shared: Vec<Tuple> = shared_rx.try_iter().collect();
                let via_solo: Vec<Tuple> = solo_rx.try_iter().collect();
                prop_assert_eq!(
                    via_shared, via_solo,
                    "subscriber {} ({:?}) saw different tuples", i, subs[i]
                );
            }
        }

        /// The batch is a unit of work, never of meaning: however one row
        /// sequence is cut into pushes — singletons through `push`, one
        /// whole `push_batch`, or an arbitrary split that tuple windows
        /// straddle — every subscriber of a sharing server receives the
        /// same tuples in the same order, and they are what a server
        /// deploying one graph per subscriber derives from single pushes.
        #[test]
        fn delivery_is_invariant_under_batch_partition(
            subs in proptest::collection::vec(arb_subscriber(), 1..5),
            policy_threshold in 0u32..20,
            rows in proptest::collection::vec((0u32..60, 0u32..60), 0..40),
            cuts in proptest::collection::vec(1usize..9, 1..8),
        ) {
            // The first spec twice: one plan always carries two exact
            // sharers beside whatever riders the generator produced.
            let mut subs = subs;
            subs.push(subs[0].clone());
            let schema = Schema::weather_example().shared();
            let tuples: Vec<Tuple> = rows
                .iter()
                .enumerate()
                .map(|(i, (rain, wind))| {
                    weather_tuple(&schema, i as i64, f64::from(*rain), f64::from(*wind))
                })
                .collect();

            // Feed `tuples` cut into batches of the cycled `sizes` and
            // return what each admitted subscriber received.
            let deliveries = |share_plans: bool, sizes: &[usize]| {
                let backend = server(share_plans);
                backend.register_stream("weather", Schema::weather_example()).unwrap();
                backend
                    .load_policy(
                        StreamPolicyBuilder::new("open", "weather")
                            .filter(format!("rainrate > {policy_threshold}"))
                            .build(),
                    )
                    .unwrap();
                let receivers: Vec<_> = subs
                    .iter()
                    .enumerate()
                    .map(|(i, spec)| {
                        let request = Request::subscribe(&format!("user{i}"), "weather");
                        let granted = backend.handle_request(&request, spec.to_query().as_ref());
                        granted.ok().map(|g| backend.subscribe(&g.handle).unwrap())
                    })
                    .collect();
                let mut rest = tuples.as_slice();
                for &size in sizes.iter().cycle() {
                    if rest.is_empty() {
                        break;
                    }
                    let (batch, tail) = rest.split_at(size.min(rest.len()));
                    match batch {
                        [only] => backend.push("weather", only.clone()).unwrap(),
                        _ => backend.push_batch("weather", batch.to_vec()).unwrap(),
                    };
                    rest = tail;
                }
                receivers
                    .iter()
                    .map(|rx| rx.as_ref().map(|rx| rx.try_iter().collect::<Vec<Tuple>>()))
                    .collect::<Vec<_>>()
            };

            let reference = deliveries(false, &[1]);
            for sizes in [&[1][..], &[tuples.len().max(1)][..], &cuts[..]] {
                let shared = deliveries(true, sizes);
                for (i, (got, expected)) in shared.iter().zip(&reference).enumerate() {
                    prop_assert_eq!(
                        got, expected,
                        "subscriber {} ({:?}) diverged with batches of {:?}", i, subs[i], sizes
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Batch predicate evaluation vs. the row-at-a-time reference
// ---------------------------------------------------------------------------

mod batch_predicate_equivalence {
    use super::*;
    use exacml_dsms::{DataType, ResidualSpec, Schema, StreamEngine, Tuple, Value};
    use std::sync::Arc;

    /// The column types `a`, `b` and `c` are drawn from: every one of them
    /// meets `arb_expr`'s numeric literals, `Text` included.
    const KINDS: [DataType; 4] = [DataType::Double, DataType::Int, DataType::Bool, DataType::Text];

    /// One cell of a column of type `kind`: `Null` one time in eight, a
    /// `NaN` in a `Double` column as often, otherwise a value around the
    /// literals `arb_expr` draws (`-5..15`).
    fn cell(kind: DataType, code: u32) -> Value {
        let n = i64::from(code) - 6;
        match (kind, code % 8) {
            (_, 0) => Value::Null,
            (DataType::Double, 1) => Value::Double(f64::NAN),
            (DataType::Double, 2) => Value::Double(n as f64 + 0.5),
            (DataType::Double, _) => Value::Double(n as f64),
            (DataType::Int, _) => Value::Int(n),
            (DataType::Bool, _) => Value::Bool(code % 2 == 1),
            (_, _) => Value::Text(if code % 2 == 1 { "7".into() } else { "x".into() }),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// A condition evaluated over whole batches — once as a filter plan,
        /// once as the residual of a rider on an identity plan — delivers,
        /// in order, exactly the rows the row-at-a-time interpreter accepts,
        /// however the rows are cut into pushes.
        #[test]
        fn filter_and_residual_deliver_exactly_what_eval_accepts(
            condition in arb_expr(),
            kinds in (0usize..4, 0usize..4, 0usize..4),
            rows in proptest::collection::vec((0u32..24, 0u32..24, 0u32..24), 0..40),
            cuts in proptest::collection::vec(1usize..9, 1..8),
        ) {
            let (ka, kb, kc) = (KINDS[kinds.0], KINDS[kinds.1], KINDS[kinds.2]);
            let schema = Schema::from_pairs([("a", ka), ("b", kb), ("c", kc)]);
            let shared = schema.clone().shared();
            let tuples: Vec<Tuple> = rows
                .iter()
                .map(|&(a, b, c)| {
                    Tuple::new(Arc::clone(&shared), vec![cell(ka, a), cell(kb, b), cell(kc, c)])
                        .unwrap()
                })
                .collect();
            // Rows are compared as displayed: a row holding `NaN` is not
            // `==` to itself.
            let shown = |rows: Vec<Tuple>| rows.iter().map(Tuple::to_string).collect::<Vec<_>>();
            let expected = shown(tuples.iter().filter(|t| eval(&condition, *t)).cloned().collect());

            let engine = StreamEngine::new();
            engine.register_stream("s", schema).unwrap();
            let filter = QueryGraphBuilder::on_stream("s").filter(FilterOp::new(condition.clone()));
            let filter_plan = engine.deploy(&filter.build()).unwrap();
            let identity = engine.deploy(&QueryGraph::identity("s")).unwrap();
            let residual = ResidualSpec { predicate: Some(condition.clone()), projection: None };
            let rider = engine.attach_handle(identity.id, Some(&residual)).unwrap();
            let via_filter = engine.subscribe(&filter_plan.output_handle).unwrap();
            let via_residual = engine.subscribe(&rider).unwrap();

            let mut rest = tuples.as_slice();
            for &size in cuts.iter().cycle() {
                if rest.is_empty() {
                    break;
                }
                let (batch, tail) = rest.split_at(size.min(rest.len()));
                match batch {
                    [only] => engine.push("s", only.clone()).unwrap(),
                    _ => engine.push_batch("s", batch.to_vec()).unwrap(),
                };
                rest = tail;
            }
            prop_assert_eq!(
                shown(via_filter.take_all()), expected.clone(),
                "filter plan `{}` over {:?}", condition, (ka, kb, kc)
            );
            prop_assert_eq!(
                shown(via_residual.take_all()), expected,
                "residual `{}` over {:?}", condition, (ka, kb, kc)
            );
        }
    }

    /// A condition that may also compare a column with a text literal,
    /// which no numeric column view answers.
    fn arb_condition() -> impl Strategy<Value = Expr> {
        let text_leaf =
            (prop_oneof![Just("a"), Just("c")], arb_cmp_op(), prop_oneof![Just("x"), Just("7")])
                .prop_map(|(attr, op, text)| Expr::Simple(SimpleExpr::new(attr, op, text)));
        (0u8..4, arb_expr(), text_leaf).prop_map(|(k, e, t)| match k {
            0 => Expr::Or(Box::new(e), Box::new(t)),
            _ => e,
        })
    }

    /// One deployment: leading filters, then nothing, a map or a tuple
    /// window, and its residual riders — each an optional condition and a
    /// projection mask over the deployment's output attributes (0: none).
    #[derive(Debug, Clone)]
    struct PlanSpec {
        filters: Vec<Expr>,
        tail: u8,
        riders: Vec<(Option<Expr>, u8)>,
    }

    fn arb_plan() -> impl Strategy<Value = PlanSpec> {
        (
            proptest::collection::vec(arb_condition(), 0..3),
            0u8..3,
            proptest::collection::vec(
                (0u8..3, arb_condition(), 0u8..8).prop_map(|(k, e, m)| ((k != 0).then_some(e), m)),
                0..4,
            ),
        )
            .prop_map(|(filters, tail, riders)| PlanSpec { filters, tail, riders })
    }

    /// Deploy `plan` on `engine`'s stream `s`; the receivers of its primary
    /// handle and of each rider, in that order.
    fn deploy(engine: &StreamEngine, plan: &PlanSpec) -> Vec<exacml_dsms::TupleReceiver> {
        let mut graph = QueryGraphBuilder::on_stream("s");
        for condition in &plan.filters {
            graph = graph.filter(FilterOp::new(condition.clone()));
        }
        graph = match plan.tail {
            0 => graph,
            1 => graph.map(["c", "a"]),
            _ => graph.aggregate(
                WindowSpec::tuples(3, 2),
                vec![AggSpec::new("a", AggFunc::Count), AggSpec::new("c", AggFunc::LastValue)],
            ),
        };
        let deployment = engine.deploy(&graph.build()).unwrap();
        let attrs = deployment.output_schema.field_names();
        let mut receivers = vec![engine.subscribe(&deployment.output_handle).unwrap()];
        for (predicate, mask) in &plan.riders {
            let projection = (*mask != 0).then(|| {
                let picked = attrs.iter().enumerate().filter(|(i, _)| mask & (1 << i) != 0);
                picked.rev().map(|(_, attr)| attr.to_string()).collect::<Vec<_>>()
            });
            let projection = projection.filter(|p| !p.is_empty());
            let residual = ResidualSpec { predicate: predicate.clone(), projection };
            let rider = engine.attach_handle(deployment.id, Some(&residual)).unwrap();
            receivers.push(engine.subscribe(&rider).unwrap());
        }
        receivers
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Every deployment on a stream reads one column cache per push and
        /// every rider refines its chain's selection; none of that may leak
        /// between deployments. Each subscriber of several deployments that
        /// share a stream receives exactly what it receives when its
        /// deployment is alone on the stream, however the rows are cut.
        #[test]
        fn shared_column_cache_delivers_what_each_deployment_alone_does(
            kinds in (0usize..4, 0usize..4, 0usize..4),
            plans in proptest::collection::vec(arb_plan(), 2..5),
            rows in proptest::collection::vec((0u32..24, 0u32..24, 0u32..24), 0..48),
            cuts in proptest::collection::vec(1usize..12, 1..8),
        ) {
            let (ka, kb, kc) = (KINDS[kinds.0], KINDS[kinds.1], KINDS[kinds.2]);
            let schema = Schema::from_pairs([("a", ka), ("b", kb), ("c", kc)]);
            let shared = schema.clone().shared();
            let tuples: Vec<Tuple> = rows
                .iter()
                .map(|&(a, b, c)| {
                    Tuple::new(Arc::clone(&shared), vec![cell(ka, a), cell(kb, b), cell(kc, c)])
                        .unwrap()
                })
                .collect();
            let shown = |rows: Vec<Tuple>| rows.iter().map(Tuple::to_string).collect::<Vec<_>>();

            let together = StreamEngine::new();
            together.register_stream("s", schema.clone()).unwrap();
            let receivers: Vec<_> = plans.iter().map(|plan| deploy(&together, plan)).collect();
            let mut rest = tuples.as_slice();
            for &size in cuts.iter().cycle() {
                if rest.is_empty() {
                    break;
                }
                let (batch, tail) = rest.split_at(size.min(rest.len()));
                together.push_batch("s", batch.to_vec()).unwrap();
                rest = tail;
            }

            for (plan, receivers) in plans.iter().zip(&receivers) {
                let alone = StreamEngine::new();
                alone.register_stream("s", schema.clone()).unwrap();
                let expected = deploy(&alone, plan);
                alone.push_batch("s", tuples.clone()).unwrap();
                for (i, (got, want)) in receivers.iter().zip(&expected).enumerate() {
                    prop_assert_eq!(
                        shown(got.take_all()), shown(want.take_all()),
                        "subscriber {} of {:?} over {:?}", i, plan, (ka, kb, kc)
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Indexed PDP vs. linear-scan reference
// ---------------------------------------------------------------------------

mod pdp_equivalence {
    use super::*;
    use exacml_xacml::{
        AttributeCategory, AttributeMatch, AttributeValue, Pdp, Policy, PolicyStore, Request, Rule,
        Target,
    };
    use std::sync::Arc;

    const SUBJECTS: [&str; 3] = ["LTA", "EMA", "PUB"];
    const STREAMS: [&str; 3] = ["weather", "gps", "traffic"];
    const ACTIONS: [&str; 2] = ["subscribe", "read"];

    /// A compact description of one random policy, expanded into a `Policy`
    /// by `build_policy`. `target_shape`: 0 = triple target (indexable),
    /// 1 = empty target, 2 = subject-only target, 3 = triple target plus an
    /// extra role matcher (still indexable).
    #[derive(Debug, Clone)]
    struct PolicySpec {
        target_shape: u8,
        subject: usize,
        stream: usize,
        action: usize,
        deny: bool,
    }

    fn arb_policy_spec() -> impl Strategy<Value = PolicySpec> {
        (
            0u8..4,
            0usize..SUBJECTS.len(),
            0usize..STREAMS.len(),
            0usize..ACTIONS.len(),
            proptest::bool::ANY,
        )
            .prop_map(|(target_shape, subject, stream, action, deny)| PolicySpec {
                target_shape,
                subject,
                stream,
                action,
                deny,
            })
    }

    fn build_policy(index: usize, spec: &PolicySpec) -> Policy {
        use exacml_xacml::request::ids;
        let target = match spec.target_shape {
            0 => Target::subject_resource_action(
                SUBJECTS[spec.subject],
                STREAMS[spec.stream],
                ACTIONS[spec.action],
            ),
            1 => Target::any(),
            2 => Target::new(vec![AttributeMatch::new(
                AttributeCategory::Subject,
                ids::SUBJECT_ID,
                SUBJECTS[spec.subject],
            )]),
            _ => {
                let mut t = Target::subject_resource_action(
                    SUBJECTS[spec.subject],
                    STREAMS[spec.stream],
                    ACTIONS[spec.action],
                );
                t.matches.push(AttributeMatch::new(
                    AttributeCategory::Subject,
                    ids::SUBJECT_ROLE,
                    "agency",
                ));
                t
            }
        };
        let rule = if spec.deny { Rule::deny_all("r") } else { Rule::permit_all("r") };
        Policy::new(format!("p{index}")).with_target(target).with_rule(rule)
    }

    fn arb_request() -> impl Strategy<Value = Request> {
        use exacml_xacml::request::ids;
        // Optional picks are encoded as `index == pool size` (the vendored
        // proptest stand-in has no `option::of`).
        (
            0usize..=SUBJECTS.len(),
            0usize..=STREAMS.len(),
            0usize..=ACTIONS.len(),
            proptest::bool::ANY,
            proptest::bool::ANY,
        )
            .prop_map(|(subject, stream, action, with_role, extra_subject)| {
                let subject = (subject < SUBJECTS.len()).then_some(subject);
                let stream = (stream < STREAMS.len()).then_some(stream);
                let action = (action < ACTIONS.len()).then_some(action);
                let mut request = Request::new();
                if let Some(s) = subject {
                    request =
                        request.with_subject(ids::SUBJECT_ID, AttributeValue::string(SUBJECTS[s]));
                    if extra_subject {
                        // A second subject-id value makes the request
                        // ineligible for the triple index: the fallback path
                        // must agree with the reference too.
                        request = request.with_subject(
                            ids::SUBJECT_ID,
                            AttributeValue::string(SUBJECTS[(s + 1) % SUBJECTS.len()]),
                        );
                    }
                }
                if let Some(r) = stream {
                    request =
                        request.with_resource(ids::RESOURCE_ID, AttributeValue::string(STREAMS[r]));
                }
                if let Some(a) = action {
                    request =
                        request.with_action(ids::ACTION_ID, AttributeValue::string(ACTIONS[a]));
                }
                if with_role {
                    request =
                        request.with_subject(ids::SUBJECT_ROLE, AttributeValue::string("agency"));
                }
                request
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The indexed PDP returns bit-identical decisions and obligations
        /// to the linear-scan reference on random stores.
        #[test]
        fn indexed_pdp_matches_linear_reference(
            specs in proptest::collection::vec(arb_policy_spec(), 0..24),
            requests in proptest::collection::vec(arb_request(), 1..8),
        ) {
            let store = Arc::new(PolicyStore::new());
            for (i, spec) in specs.iter().enumerate() {
                store.add(build_policy(i, spec)).unwrap();
            }
            let pdp = Pdp::new(store);
            for request in &requests {
                let reference = pdp.evaluate_linear(request);
                prop_assert_eq!(&pdp.evaluate(request), &reference,
                    "index diverged for {}", request);
            }
        }

        /// Removing a random policy keeps the indexed PDP aligned with the
        /// reference (the index rebuild is exercised mid-sequence).
        #[test]
        fn indexed_pdp_stays_aligned_across_mutations(
            specs in proptest::collection::vec(arb_policy_spec(), 2..16),
            remove_at in 0usize..16,
            request in arb_request(),
        ) {
            let store = Arc::new(PolicyStore::new());
            for (i, spec) in specs.iter().enumerate() {
                store.add(build_policy(i, spec)).unwrap();
            }
            let pdp = Pdp::new(Arc::clone(&store));
            prop_assert_eq!(pdp.evaluate(&request), pdp.evaluate_linear(&request));
            let victim = format!("p{}", remove_at % specs.len());
            store.remove(&victim).unwrap();
            prop_assert_eq!(pdp.evaluate(&request), pdp.evaluate_linear(&request));
            // Re-adding under the same id lands at the *end* of the order;
            // the indexed view must still agree.
            store.add(build_policy(remove_at % specs.len(), &specs[remove_at % specs.len()])).unwrap();
            prop_assert_eq!(pdp.evaluate(&request), pdp.evaluate_linear(&request));
        }
    }
}

// ---------------------------------------------------------------------------
// FIFO link vs. a priority-queue reference
// ---------------------------------------------------------------------------

mod link_fifo_equivalence {
    use super::*;
    use exacml_simnet::{LinkSpec, SimLink};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The priority queue links once kept their in-flight messages in:
    /// ordered by arrival time, ties by send sequence.
    #[derive(Default)]
    struct HeapModel {
        heap: BinaryHeap<Reverse<(u64, u64, u64)>>,
        next_sequence: u64,
    }

    impl HeapModel {
        fn enqueue(&mut self, arrival: u64, item: u64) {
            self.heap.push(Reverse((arrival, self.next_sequence, item)));
            self.next_sequence += 1;
        }

        fn drain_ready(&mut self, now: u64) -> Vec<(u64, u64)> {
            let mut ready = Vec::new();
            while self.heap.peek().is_some_and(|Reverse((arrival, _, _))| *arrival <= now) {
                let Reverse((arrival, _, item)) = self.heap.pop().expect("peeked");
                ready.push((arrival, item));
            }
            ready
        }
    }

    const SPECS: [fn() -> LinkSpec; 3] = [LinkSpec::lan_100mbps, LinkSpec::wan, LinkSpec::loopback];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Whatever mix of one-message frames, frames and queued frames a
        /// link carries, and wherever its drains cut (at random, or at an
        /// arrival inside the last frame sent), the link yields exactly the `(arrival, item)`
        /// sequence a priority queue over the same arrivals would, and each
        /// delivered piece of a frame carries one arrival per item, all
        /// arrived and none before its send: a FIFO link of frames loses
        /// nothing by not sorting.
        #[test]
        fn a_link_drains_what_a_heap_of_its_arrivals_drains(
            spec in 0usize..3,
            seed in 0u64..1_000,
            ops in proptest::collection::vec(
                (0u8..5, 0u64..3_000_000, proptest::collection::vec(0usize..3_000, 0..24)),
                1..48,
            ),
        ) {
            let mut link = SimLink::new(SPECS[spec](), seed);
            let mut model = HeapModel::default();
            let (mut now, mut next_item) = (0u64, 0u64);
            let mut last_frame: Vec<u64> = Vec::new();
            let drain = |link: &mut SimLink<(usize, u64)>, cut: u64| {
                let mut drained = Vec::new();
                let mut pieces_hold = true;
                link.deliver_ready(cut, |sent, arrivals, items| {
                    pieces_hold &= arrivals.len() == items.len()
                        && arrivals.iter().all(|&arrival| sent <= arrival && arrival <= cut);
                    drained.extend(arrivals.iter().zip(items).map(|(&a, (_, item))| (a, item)));
                });
                (drained, pieces_hold)
            };
            for (kind, step, sizes) in ops {
                now += step / 4;
                let items: Vec<(usize, u64)> = sizes
                    .iter()
                    .map(|&bytes| {
                        next_item += 1;
                        (bytes, next_item)
                    })
                    .collect();
                let size = |&(bytes, _): &(usize, u64)| bytes;
                let (arrivals, sent) = match (kind, items.first()) {
                    (0, Some(&first)) => (link.send(now, vec![first], size).to_vec(), &items[..1]),
                    (0, None) => continue,
                    (1, _) => (link.send(now, items.clone(), size).to_vec(), &items[..]),
                    (2, _) => (link.send_queued(now, items.clone(), size).to_vec(), &items[..]),
                    _ => {
                        let cut = match kind {
                            3 => (now + step).saturating_sub(1_500_000),
                            _ => last_frame.get(last_frame.len() / 2).copied().unwrap_or(now),
                        };
                        let (drained, pieces_hold) = drain(&mut link, cut);
                        prop_assert!(pieces_hold);
                        prop_assert_eq!(drained, model.drain_ready(cut));
                        continue;
                    }
                };
                prop_assert_eq!(arrivals.len(), sent.len());
                last_frame.clone_from(&arrivals);
                for (arrival, &(_, item)) in arrivals.into_iter().zip(sent) {
                    model.enqueue(arrival, item);
                }
                prop_assert_eq!(link.in_flight(), model.heap.len());
                prop_assert_eq!(
                    link.next_arrival(),
                    model.heap.peek().map(|Reverse((arrival, _, _))| *arrival)
                );
            }
            let (drained, pieces_hold) = drain(&mut link, u64::MAX);
            prop_assert!(pieces_hold);
            prop_assert_eq!(drained, model.drain_ready(u64::MAX));
            prop_assert_eq!(link.in_flight(), 0);
        }
    }
}

// ---------------------------------------------------------------------------
// Telemetry histogram merge
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Merging two latency-histogram snapshots (A ⊎ B) preserves the total
    /// observation count, the per-bucket sums, the nanosecond totals, and
    /// the highest occupied bucket — the invariants fabric aggregation
    /// relies on when it folds node snapshots into one.
    #[test]
    fn histogram_merge_preserves_count_and_max_bucket(
        a in proptest::collection::vec(0u64..1u64 << 48, 0..50),
        b in proptest::collection::vec(0u64..1u64 << 48, 0..50),
    ) {
        use exacml_telemetry::{bucket_of, Log2Histogram};

        let ha = Log2Histogram::new();
        let hb = Log2Histogram::new();
        for &nanos in &a {
            ha.record(nanos);
        }
        for &nanos in &b {
            hb.record(nanos);
        }
        let (sa, sb) = (ha.snapshot(), hb.snapshot());
        let mut merged = sa.clone();
        merged.merge(&sb);

        prop_assert_eq!(merged.count, (a.len() + b.len()) as u64);
        prop_assert_eq!(merged.total_nanos, a.iter().sum::<u64>() + b.iter().sum::<u64>());
        prop_assert_eq!(merged.max_nanos, a.iter().chain(&b).copied().max().unwrap_or(0));
        prop_assert_eq!(merged.buckets.iter().sum::<u64>(), merged.count);
        let expected_max_bucket = a.iter().chain(&b).map(|&nanos| bucket_of(nanos)).max();
        prop_assert_eq!(merged.max_bucket(), expected_max_bucket);
        // Merge is commutative bucket-wise.
        let mut flipped = sb;
        flipped.merge(&sa);
        prop_assert_eq!(&flipped.buckets, &merged.buckets);
        prop_assert_eq!(flipped.count, merged.count);
    }
}
