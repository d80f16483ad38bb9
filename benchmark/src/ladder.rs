//! The layer ladders of the traced run: every layer's public entry point
//! timed from outside, one rung at a time. A rung is the median of
//! [`REPS`] repetitions; each repetition loops the call for an equal share
//! of the ladder's time budget. Adjacent rungs differ by one layer, so the
//! difference between them is that layer's cost.
//!
//! *Ingest ladder*: one weather stream, the paper's Example-1 graph, one
//! subscriber, batches of 256, ns per source tuple — bare engine, then the
//! data server, the durable server, the fabric (1 and 4 nodes) and the
//! replicated fabric; plus fan-out cost at 100/1000 overlapping subscribers
//! and the WAL's parts. *Request ladder*: the `city_requests` corpus through
//! XML, PDP, obligations, merge, expressions, StreamSQL, deploy/attach/
//! withdraw, then the whole workflow per outcome and per backend shape.

use crate::pace::pin_lane;
use crate::stats::median;
use crate::world::{PolicySpec, Pool, SchemaKind, Workload, World};
use exacml::exacml_dsms::{
    streamsql, AggFunc, AggSpec, QueryGraph, QueryGraphBuilder, StreamEngine, Tuple, WindowSpec,
};
use exacml::exacml_durable::{record, wal, DurableConfig, DurableServer};
use exacml::exacml_expr::{check_two_simple, parse_expr, simplify, CmpOp, Origin, SimpleExpr};
use exacml::exacml_plus::{graph_from_obligations, merge_graphs, FabricConfig};
use exacml::exacml_xacml::{xml, Pdp, PolicyStore};
use exacml::prelude::{
    Backend, BackendBuilder, Fabric, MergeOptions, Request, StreamBatch, StreamPolicyBuilder,
    TopologyPreset,
};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const REPS: usize = 5;
const BATCH: usize = 256;
/// Timed rungs over both ladders; the caller splits its ladder budget
/// evenly between them and hands each ladder the per-rung share.
pub const RUNGS: u32 = 40;

#[derive(Debug, Clone, Copy, Default)]
struct Acc {
    ns: u64,
    units: u64,
}

/// Time one call (or one batch of calls) worth `units` into `acc`.
fn timed<T>(acc: &mut Acc, units: u64, call: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let out = std::hint::black_box(call());
    acc.ns += started.elapsed().as_nanos() as u64;
    acc.units += units;
    out
}

/// Median over [`REPS`] repetitions of `ns / units` for each of `k`
/// accumulators the body feeds; each repetition loops the body for
/// `budget / REPS`.
fn measure(k: usize, budget: Duration, mut body: impl FnMut(&mut [Acc])) -> Vec<f64> {
    let mut per_rep: Vec<Vec<f64>> = vec![Vec::new(); k];
    for _ in 0..REPS {
        let mut accs = vec![Acc::default(); k];
        let started = Instant::now();
        while started.elapsed() < budget / REPS as u32 {
            body(&mut accs);
        }
        for (slot, acc) in per_rep.iter_mut().zip(&accs) {
            if acc.units > 0 {
                slot.push(acc.ns as f64 / acc.units as f64);
            }
        }
    }
    per_rep.iter().map(|v| median(v)).collect()
}

fn measure_one(budget: Duration, mut body: impl FnMut(&mut Acc)) -> f64 {
    measure(1, budget, |accs| body(&mut accs[0]))[0]
}

/// The paper's Example-1 policy graph (Figure 1).
fn example1_specs() -> Vec<AggSpec> {
    vec![
        AggSpec::new("samplingtime", AggFunc::LastValue),
        AggSpec::new("rainrate", AggFunc::Avg),
        AggSpec::new("windspeed", AggFunc::Max),
    ]
}

fn example1_graph(stream: &str) -> QueryGraph {
    QueryGraphBuilder::on_stream(stream)
        .filter_str("rainrate > 5")
        .expect("Example-1 condition parses")
        .map(["samplingtime", "rainrate", "windspeed"])
        .aggregate(WindowSpec::tuples(5, 2), example1_specs())
        .build()
}

fn example1_policy(id: &str, subject: &str) -> StreamPolicyBuilder {
    StreamPolicyBuilder::new(id, "weather")
        .subject(subject)
        .filter("rainrate > 5")
        .visible_attributes(["samplingtime", "rainrate", "windspeed"])
        .window(WindowSpec::tuples(5, 2), example1_specs())
}

/// Successive 256-row batches of the pool.
struct Batches<'a> {
    pool: &'a Pool,
    cursor: usize,
}

impl Batches<'_> {
    fn next(&mut self) -> Vec<Tuple> {
        if self.cursor + BATCH > self.pool.tuples.len() {
            self.cursor = 0;
        }
        let rows = self.pool.tuples[self.cursor..self.cursor + BATCH].to_vec();
        self.cursor += BATCH;
        rows
    }
}

/// Ingest through a backend with `subscribers` Example-1 grants on one
/// stream, ns per source tuple. `frames` pushes through `push_batches`
/// (the fabric entry point), otherwise `push_batch`.
fn backend_ingest(
    backend: &dyn Backend,
    pool: &Pool,
    subscribers: usize,
    frames: bool,
    budget: Duration,
) -> f64 {
    backend.register_stream("weather", SchemaKind::Weather.schema()).expect("register");
    let mut subs = Vec::with_capacity(subscribers);
    for i in 0..subscribers {
        let subject = format!("lta{i}");
        backend.load_policy(example1_policy(&format!("p{i}"), &subject).build()).expect("policy");
        let granted =
            backend.handle_request(&Request::subscribe(&subject, "weather"), None).expect("grant");
        subs.push(backend.subscribe(granted.handle()).expect("subscribe"));
    }
    let mut batches = Batches { pool, cursor: 0 };
    measure_one(budget, |acc| {
        let rows = batches.next();
        if frames {
            timed(acc, BATCH as u64, || {
                backend.push_batches(vec![StreamBatch::new("weather", rows)]).expect("push")
            });
        } else {
            timed(acc, BATCH as u64, || backend.push_batch("weather", rows).expect("push"));
        }
        for sub in &mut subs {
            sub.drain();
        }
    })
}

/// Bare-engine ingest on `threads` independent streams pushed at the same
/// time: ns per tuple inside `push_batch`, averaged over the threads. With
/// no contention between streams the two-thread figure equals the
/// one-thread one; whatever it adds is what sharing the engine costs.
fn engine_ingest(seed: u64, threads: usize, budget: Duration) -> f64 {
    // A pool per thread: tuples of one pool share their schema `Arc`, and
    // two threads cloning them would contend on its count, which two real
    // producers on two streams never do.
    let pools: Vec<Pool> =
        (0..threads).map(|t| Pool::generate(SchemaKind::Weather, seed + t as u64)).collect();
    let engine = StreamEngine::new();
    let mut receivers = Vec::new();
    for t in 0..threads {
        let name = format!("weather{t}");
        engine.register_stream(&name, SchemaKind::Weather.schema()).expect("register");
        let deployment = engine.deploy(&example1_graph(&name)).expect("deploy");
        receivers.push(engine.subscribe(&deployment.output_handle).expect("subscribe"));
    }
    let per_rep = budget / REPS as u32;
    let mut samples = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let barrier = Barrier::new(threads);
        let per_thread: Vec<f64> = std::thread::scope(|scope| {
            let workers: Vec<_> = receivers
                .iter()
                .enumerate()
                .map(|(t, rx)| {
                    let (engine, barrier, pool) = (&engine, &barrier, &pools[t]);
                    scope.spawn(move || {
                        let name = format!("weather{t}");
                        let mut batches = Batches { pool, cursor: 0 };
                        let mut acc = Acc::default();
                        pin_lane(t);
                        barrier.wait();
                        let started = Instant::now();
                        while started.elapsed() < per_rep {
                            let rows = batches.next();
                            timed(&mut acc, BATCH as u64, || {
                                engine.push_batch(&name, rows).expect("push")
                            });
                            std::hint::black_box(rx.try_iter().count());
                        }
                        acc.ns as f64 / acc.units as f64
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().expect("ingest thread")).collect()
        });
        samples.push(per_thread.iter().sum::<f64>() / per_thread.len() as f64);
    }
    median(&samples)
}

/// Pass-through deployment with one subscriber: ns per delivered tuple.
fn engine_delivery(pool: &Pool, budget: Duration) -> f64 {
    let engine = StreamEngine::new();
    engine.register_stream("weather", SchemaKind::Weather.schema()).expect("register");
    let deployment = engine.deploy(&QueryGraph::identity("weather")).expect("deploy");
    let rx = engine.subscribe(&deployment.output_handle).expect("subscribe");
    let mut batches = Batches { pool, cursor: 0 };
    measure_one(budget, |acc| {
        let rows = batches.next();
        let delivered = timed(acc, 0, || engine.push_batch("weather", rows).expect("push"));
        acc.units += delivered as u64;
        std::hint::black_box(rx.try_iter().count());
    })
}

/// A scratch directory for one rung's store: empty when handed out, removed
/// when dropped. Declare it before the backend that writes there, so the
/// backend goes first.
struct Scratch(PathBuf);

impl Scratch {
    fn new(root: &Path, name: &str) -> Self {
        let dir = root.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The ingest ladder. `out` is where durable rungs put their stores.
pub fn ingest_ladder(seed: u64, out: &Path, rung: Duration) -> Vec<(&'static str, f64)> {
    let pool = &Pool::generate(SchemaKind::Weather, seed);
    let mut rows = vec![
        ("dsms.engine.push_batch_ns_per_tuple", engine_ingest(seed, 1, rung)),
        ("dsms.engine.push_batch_2t_ns_per_tuple", engine_ingest(seed, 2, rung)),
    ];

    let local = || BackendBuilder::local().with_seed(seed).build();
    let one = backend_ingest(&*local(), pool, 1, false, rung);
    rows.push(("core.server.push_batch_ns_per_tuple", one));

    {
        let dir = Scratch::new(out, "ladder-durable");
        let durable = BackendBuilder::durable(&dir.0).with_seed(seed).build();
        rows.push((
            "durable.server.push_batch_ns_per_tuple",
            backend_ingest(&*durable, pool, 1, false, rung),
        ));
    }

    for (name, nodes) in [
        ("core.fabric.push_batches_1n_ns_per_tuple", 1),
        ("core.fabric.push_batches_4n_ns_per_tuple", 4),
    ] {
        let fabric = BackendBuilder::fabric(nodes)
            .topology(TopologyPreset::PaperTestbed)
            .with_seed(seed)
            .build();
        rows.push((name, backend_ingest(&*fabric, pool, 1, true, rung)));
    }

    {
        let dir = Scratch::new(out, "ladder-replicated");
        let replicated = BackendBuilder::replicated(3, &dir.0).replicate(1).with_seed(seed).build();
        rows.push((
            "durable.fabric.push_batches_ns_per_tuple",
            backend_ingest(&*replicated, pool, 1, true, rung),
        ));
    }

    // Fan-out: N overlapping subscribers over one shared plan, as a multiple
    // of the one-subscriber cost measured above.
    for (name, subscribers) in
        [("core.shared_plan.fanout_cost_100", 100), ("core.shared_plan.fanout_cost_1000", 1000)]
    {
        rows.push((name, backend_ingest(&*local(), pool, subscribers, false, rung) / one));
    }
    rows.push(("dsms.engine.ns_per_delivery", engine_delivery(pool, rung)));

    // The WAL's parts, on the record an ingest batch becomes.
    let mut batches = Batches { pool, cursor: 0 };
    let mut payload = String::new();
    rows.push((
        "durable.record.encode_ingest_ns_per_tuple",
        measure_one(rung, |acc| {
            let rows = batches.next();
            timed(acc, BATCH as u64, || {
                record::encode_ingest_into(&mut payload, 7, "weather", &rows).expect("encode")
            });
        }),
    ));
    let wal_dir = Scratch::new(out, "ladder-wal");
    std::fs::create_dir_all(&wal_dir.0).expect("create WAL dir");
    let mut writer = wal::WalWriter::open(wal_dir.0.join("wal.log"), false).expect("open WAL");
    let mut appended = 0u32;
    rows.push((
        "durable.wal.append_buffered_ns_per_record",
        measure_one(rung, |acc| {
            timed(acc, 1, || writer.append_buffered(&payload).expect("append"));
            appended += 1;
            if appended.is_multiple_of(512) {
                writer.reset().expect("reset WAL");
            }
        }),
    ));
    let control =
        r#"{"seq":7,"op":"release","subject":"churn-district03-5","stream":"district03"}"#;
    rows.push((
        "durable.wal.flush_us",
        measure_one(rung, |acc| {
            writer.append_buffered(control).expect("append");
            timed(acc, 1, || writer.flush().expect("flush"));
            appended += 1;
            if appended.is_multiple_of(512) {
                writer.reset().expect("reset WAL");
            }
        }) / 1e3,
    ));
    drop(writer);
    drop(wal_dir);
    let kib = payload.len() as f64 / 1024.0;
    rows.push((
        "durable.wal.checksum_ns_per_kb",
        measure_one(rung, |acc| {
            timed(acc, 1, || wal::checksum(payload.as_bytes()));
        }) / kib,
    ));

    rows.extend(recovery(pool, seed, out));
    rows.extend(simnet_prediction(pool, seed, rung));
    rows
}

/// Crash a durable store holding 100 ingest batches and a grant, and time
/// its recovery.
fn recovery(pool: &Pool, seed: u64, out: &Path) -> Vec<(&'static str, f64)> {
    let mut seconds = Vec::new();
    let mut per_record = Vec::new();
    for _ in 0..3 {
        let dir = Scratch::new(out, "ladder-recover");
        {
            let config = DurableConfig { seed, ..DurableConfig::local() };
            let server = DurableServer::create(&dir.0, config).expect("create store");
            server.register_stream("weather", SchemaKind::Weather.schema()).expect("register");
            server.load_policy(example1_policy("p", "lta").build()).expect("policy");
            server.handle_request(&Request::subscribe("lta", "weather"), None).expect("grant");
            let mut batches = Batches { pool, cursor: 0 };
            for _ in 0..100 {
                server.push_batch("weather", batches.next()).expect("push");
            }
        }
        let started = Instant::now();
        let recovered = DurableServer::recover(&dir.0).expect("recover");
        let elapsed = started.elapsed();
        let records = recovered.recovery_report().wal_records_replayed.max(1);
        seconds.push(elapsed.as_secs_f64());
        per_record.push(elapsed.as_nanos() as f64 / records as f64);
    }
    vec![
        ("durable.server.recover_s", median(&seconds)),
        ("durable.server.recover_ns_per_record", median(&per_record)),
    ]
}

/// What the simulated network predicts for fabric ingest — tuples over the
/// busiest node's virtual busy time — beside the wall-clock rate of the
/// very same pushes. The prediction is a model, the ratio says how far off.
fn simnet_prediction(pool: &Pool, seed: u64, budget: Duration) -> Vec<(&'static str, f64)> {
    let fabric = Fabric::new(FabricConfig::paper_testbed(4).with_seed(seed));
    let streams: Vec<String> = (0..16).map(|s| format!("district{s:02}")).collect();
    for name in &streams {
        fabric.register_stream(name, SchemaKind::Weather.schema()).expect("register");
    }
    let frontier =
        |f: &Fabric| f.nodes().iter().map(|n| n.ingest_frontier_nanos()).max().unwrap_or(0);
    let mut batches = Batches { pool, cursor: 0 };
    let virtual_start = frontier(&fabric);
    let started = Instant::now();
    let mut tuples = 0u64;
    while started.elapsed() < budget {
        let frame = streams
            .iter()
            .map(|name| StreamBatch::new(name.clone(), batches.next()[..64].to_vec()))
            .collect();
        fabric.push_batches(frame).expect("push");
        tuples += 16 * 64;
    }
    let wall = tuples as f64 / started.elapsed().as_secs_f64();
    let virtual_s = (frontier(&fabric) - virtual_start).max(1) as f64 / 1e9;
    let predicted = tuples as f64 / virtual_s;
    vec![
        ("simnet.predicted_ingest_tuples_per_s", predicted),
        ("simnet.prediction_ratio", predicted / wall),
    ]
}

/// Grant → reuse → release cycles over the corpus on one backend shape,
/// timing only the fresh grants: ns per granted request.
fn shape_grants(backend: &dyn Backend, world: &World, policies: usize, budget: Duration) -> f64 {
    for stream in &world.streams {
        backend.register_stream(&stream.name, stream.kind.schema()).expect("register");
    }
    let first = world.policies.len() - world.corpus.len();
    for policy in &world.policies[first..first + policies] {
        backend.load_policy(policy.build(0)).expect("policy");
    }
    let mut next = 0;
    measure_one(budget, |acc| {
        let entry = &world.corpus[next];
        next = (next + 1) % policies;
        let stream = &world.streams[entry.stream].name;
        let request = Request::subscribe(&entry.subject, stream);
        timed(acc, 1, || backend.handle_request(&request, None).expect("grant"));
        backend.release_access(&entry.subject, stream);
    })
}

/// The request ladder over the `city_requests` corpus.
pub fn request_ladder(seed: u64, out: &Path, rung: Duration) -> Vec<(&'static str, f64)> {
    let world = World::generate(Workload::CityRequests, seed);
    let first = world.policies.len() - world.corpus.len();
    let specs: &[PolicySpec] = &world.policies[first..first + 300];
    let policies: Vec<_> = specs.iter().map(|p| p.build(0)).collect();
    let requests: Vec<Request> = world.corpus[..300]
        .iter()
        .map(|e| Request::subscribe(&e.subject, &world.streams[e.stream].name))
        .collect();
    let mut rows = Vec::new();
    let mut cursor = 0usize;
    let mut next = move || {
        cursor = (cursor + 1) % 300;
        cursor
    };

    let request_xml: Vec<String> = requests.iter().map(xml::write_request).collect();
    let policy_xml: Vec<String> = policies.iter().map(xml::write_policy).collect();
    rows.push((
        "xacml.xml.parse_request_ns",
        measure_one(rung, |acc| {
            let doc = &request_xml[next()];
            timed(acc, 1, || xml::parse_request(doc).expect("request parses"));
        }),
    ));
    rows.push((
        "xacml.xml.parse_policy_ns",
        measure_one(rung, |acc| {
            let doc = &policy_xml[next()];
            timed(acc, 1, || xml::parse_policy(doc).expect("policy parses"));
        }),
    ));

    let store = Arc::new(PolicyStore::new());
    for policy in &world.policies {
        store.add(policy.build(0)).expect("policy loads");
    }
    let pdp = Pdp::new(Arc::clone(&store));
    rows.push((
        "xacml.pdp.evaluate_ns",
        measure_one(rung, |acc| {
            // Cheap enough that the clock reads would show: 32 per timing.
            let from = next() % 268;
            timed(acc, 32, || {
                for request in &requests[from..from + 32] {
                    std::hint::black_box(pdp.evaluate(request));
                }
            });
        }),
    ));
    rows.push((
        "xacml.pdp.evaluate_uncached_ns",
        measure_one(rung, |acc| {
            let request = &requests[next()];
            timed(acc, 1, || pdp.evaluate_uncached(request));
        }),
    ));

    let graphs: Vec<QueryGraph> = policies
        .iter()
        .zip(specs)
        .map(|(p, s)| graph_from_obligations(&s.stream, &p.obligations).expect("graph"))
        .collect();
    let user_graphs: Vec<QueryGraph> =
        world.corpus[..300].iter().map(|e| e.refinement.to_graph().expect("refinement")).collect();
    rows.push((
        "core.obligations.graph_from_obligations_ns",
        measure_one(rung, |acc| {
            let i = next();
            timed(acc, 1, || {
                graph_from_obligations(&specs[i].stream, &policies[i].obligations).expect("graph")
            });
        }),
    ));
    rows.push((
        "core.merge.merge_graphs_ns",
        measure_one(rung, |acc| {
            let i = next();
            timed(acc, 1, || {
                merge_graphs(&graphs[i], &user_graphs[i], MergeOptions::default()).expect("merge")
            });
        }),
    ));

    let conditions: Vec<String> = world.corpus[..300]
        .iter()
        .zip(specs)
        .map(|(e, s)| {
            let user = e.refinement.filter.clone().expect("refinements carry a filter");
            s.filter.as_ref().map_or(user.clone(), |policy| format!("({policy}) AND ({user})"))
        })
        .collect();
    let parsed: Vec<_> = conditions.iter().map(|c| parse_expr(c).expect("parses")).collect();
    rows.push((
        "expr.parse_expr_ns",
        measure_one(rung, |acc| {
            let condition = &conditions[next()];
            timed(acc, 1, || parse_expr(condition).expect("parses"));
        }),
    ));
    rows.push((
        "expr.simplify_ns",
        measure_one(rung, |acc| {
            let expr = &parsed[next()];
            timed(acc, 1, || simplify(expr));
        }),
    ));
    let pairs: Vec<(SimpleExpr, SimpleExpr)> = (0..32)
        .map(|i| {
            let op = [CmpOp::Gt, CmpOp::Lt, CmpOp::Ge, CmpOp::Le][i % 4];
            (
                SimpleExpr::new("rainrate", op, 20.0 + i as f64).tagged(Origin::Policy),
                SimpleExpr::new("rainrate", CmpOp::Gt, 50.0 - i as f64).tagged(Origin::User),
            )
        })
        .collect();
    rows.push((
        "expr.check_two_simple_ns",
        measure_one(rung, |acc| {
            timed(acc, 32, || {
                for (policy, user) in &pairs {
                    std::hint::black_box(check_two_simple(policy, user));
                }
            });
        }),
    ));
    let schemas: Vec<_> = world.streams.iter().map(|s| s.kind.schema()).collect();
    rows.push((
        "dsms.streamsql.generate_ns",
        measure_one(rung, |acc| {
            let i = next();
            timed(acc, 1, || streamsql::generate(&graphs[i], &schemas[world.corpus[i].stream]));
        }),
    ));

    let engine = StreamEngine::new();
    for stream in &world.streams {
        engine.register_stream(&stream.name, stream.kind.schema()).expect("register");
    }
    let lifecycle = measure(3, rung * 3, |accs| {
        let graph = &graphs[next()];
        let deployment = timed(&mut accs[0], 1, || engine.deploy(graph).expect("deploy"));
        timed(&mut accs[1], 1, || engine.attach_handle(deployment.id, None).expect("attach"));
        timed(&mut accs[2], 1, || engine.withdraw(deployment.id).expect("withdraw"));
    });
    rows.push(("dsms.engine.deploy_ns", lifecycle[0]));
    rows.push(("dsms.engine.attach_handle_ns", lifecycle[1]));
    rows.push(("dsms.engine.withdraw_ns", lifecycle[2]));

    // The whole workflow on the single server, per outcome, with the
    // program's own Figure 6/7 split of each fresh grant.
    let server = BackendBuilder::local().with_seed(seed).build();
    for stream in &world.streams {
        server.register_stream(&stream.name, stream.kind.schema()).expect("register");
    }
    for policy in &world.policies {
        server.load_policy(policy.build(0)).expect("policy");
    }
    let ghost = Request::subscribe("ghost00", "weather");
    let workflow = measure(8, rung * 8, |accs| {
        let i = next();
        let (request, entry) = (&requests[i], &world.corpus[i]);
        let stream = &world.streams[entry.stream].name;
        let granted =
            timed(&mut accs[0], 1, || server.handle_request(request, None).expect("grant"));
        let timing = granted.response.timing;
        for (acc, part) in
            accs[4..8].iter_mut().zip([timing.pdp, timing.query_graph, timing.dsms, timing.network])
        {
            acc.ns += part.as_nanos() as u64;
            acc.units += 1;
        }
        timed(&mut accs[1], 1, || server.handle_request(request, None).expect("reuse"));
        timed(&mut accs[2], 1, || server.handle_request(&ghost, None).expect_err("deny"));
        timed(&mut accs[3], 1, || server.release_access(&entry.subject, stream));
    });
    for (name, value) in [
        "core.server.handle_request_grant_ns",
        "core.server.handle_request_reuse_ns",
        "core.server.handle_request_deny_ns",
        "core.server.release_access_ns",
    ]
    .into_iter()
    .zip(&workflow)
    {
        rows.push((name, *value));
    }
    // Updates get their own loop: each one empties the PDP's decision cache,
    // which would otherwise be charged to the grants above.
    let mut revision = 0u64;
    rows.push((
        "core.server.update_policy_ns",
        measure_one(rung, |acc| {
            revision += 1;
            let policy = specs[next()].build(revision);
            timed(acc, 1, || server.update_policy(policy).expect("update"));
        }),
    ));
    for (name, value) in [
        "core.server.timing.pdp_us",
        "core.server.timing.query_graph_us",
        "core.server.timing.dsms_us",
        "core.server.timing.network_us",
    ]
    .into_iter()
    .zip(&workflow[4..])
    {
        rows.push((name, *value / 1e3));
    }

    // The same fresh grant on the other three shapes (100 policies: every
    // load on the replicated shape is a shipped WAL record).
    {
        let dir = Scratch::new(out, "ladder-durable-requests");
        let durable = BackendBuilder::durable(&dir.0).with_seed(seed).build();
        rows.push(("durable.server.handle_request_ns", shape_grants(&*durable, &world, 100, rung)));
    }
    let fabric =
        BackendBuilder::fabric(4).topology(TopologyPreset::PaperTestbed).with_seed(seed).build();
    rows.push(("core.fabric.handle_request_ns", shape_grants(&*fabric, &world, 100, rung)));
    let dir = Scratch::new(out, "ladder-replicated-requests");
    let replicated = BackendBuilder::replicated(3, &dir.0).replicate(1).with_seed(seed).build();
    rows.push(("durable.fabric.handle_request_ns", shape_grants(&*replicated, &world, 100, rung)));
    rows
}
