//! Multi-threaded stress test over the sharded engine and the data server.
//!
//! N producer threads push batches into their own streams while another
//! thread continuously grants accesses (deploying query graphs) and removes
//! the spawning policies (withdrawing the graphs, Section 3.3). The stable
//! observers — unfiltered grants, subscribed before any producer starts and
//! never withdrawn — must observe **every pushed tuple exactly once**, and
//! the telemetry counters must reconcile with what the threads did.
//!
//! Producers and the churn thread drive the server exclusively through the
//! unified `Arc<dyn Backend>` surface (the trait layer is `Send + Sync`, so
//! it is what concurrent callers actually share).
//!
//! The race tests below it pin the two guarantees that are statements about
//! the set of live grants, under real concurrency: barrier-started threads
//! ask for *different* windows for one subject on one stream (Section 3.4:
//! at most one is ever granted), and a request races the removal or update
//! of the policy that authorises it (Section 3.3: no grant outlives its
//! policy revision). A last one races a release against ingest and a
//! draining consumer (Section 3.3 on the tuple path: once the release
//! returns, the grant has nothing left to read).
//!
//! The workload size is overridable through environment variables so the
//! nightly CI soak job can run the same invariants at a much larger scale:
//! `STRESS_STREAMS`, `STRESS_BATCHES_PER_STREAM`, `STRESS_BATCH_SIZE`,
//! `STRESS_CHURN_ROUNDS`, `STRESS_RACE_ROUNDS`. When `TELEMETRY_SNAPSHOT_OUT`
//! names a path, the suite also dumps the final backend telemetry snapshot
//! there as JSON so the nightly workflow can upload it as a build artifact.

use exacml::prelude::*;
use exacml_dsms::{AggFunc, AggSpec, Schema, Tuple, Value, WindowSpec};
use exacml_plus::{DataServer, ServerConfig};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Barrier};

fn knob(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Soak artifact: when `TELEMETRY_SNAPSHOT_OUT` names a path, write the
/// suite's final telemetry snapshot there as JSON (see
/// `docs/OBSERVABILITY.md`); a no-op otherwise.
fn dump_telemetry_snapshot(snapshot: &TelemetrySnapshot) {
    let Ok(path) = std::env::var("TELEMETRY_SNAPSHOT_OUT") else { return };
    let json = serde_json::to_string_pretty(snapshot).expect("snapshot serializes");
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!("telemetry snapshot written to {path}");
}

fn marker_tuple(schema: &Schema, stream_index: usize, sequence: usize) -> Tuple {
    // Encode (stream, sequence) into the timestamp so receivers can verify
    // exactly-once delivery per stream.
    let marker = (stream_index as i64) * 1_000_000_000 + sequence as i64;
    Tuple::builder(schema)
        .set("samplingtime", Value::Timestamp(marker))
        .set("rainrate", 10.0)
        .finish_with_defaults()
}

#[test]
fn producers_and_policy_churn_race_without_losing_tuples() {
    let streams = knob("STRESS_STREAMS", 4);
    let batches_per_stream = knob("STRESS_BATCHES_PER_STREAM", 40);
    let batch_size = knob("STRESS_BATCH_SIZE", 25);
    let churn_rounds = knob("STRESS_CHURN_ROUNDS", 30);

    let backend: Arc<dyn Backend> = Arc::new(DataServer::new(ServerConfig::local()));
    let schema = Schema::weather_example();
    for i in 0..streams {
        backend.register_stream(&format!("s{i}"), schema.clone()).unwrap();
    }

    // Stable observers: one unfiltered grant per stream, subscribed before
    // any producer starts and never withdrawn.
    let mut receivers: Vec<_> = (0..streams)
        .map(|i| {
            let (stream, observer) = (format!("s{i}"), format!("observer-{i}"));
            let policy = StreamPolicyBuilder::new(&observer, &stream).subject(&observer).build();
            backend.load_policy(policy).unwrap();
            let granted = backend.handle_request(&Request::subscribe(&observer, &stream), None);
            backend.subscribe(granted.unwrap().handle()).unwrap()
        })
        .collect();

    // Producers: one thread per stream, pushing numbered batches through
    // the trait object.
    let mut threads = Vec::new();
    for i in 0..streams {
        let backend = Arc::clone(&backend);
        let schema = schema.clone();
        threads.push(std::thread::spawn(move || {
            let stream = format!("s{i}");
            for batch in 0..batches_per_stream {
                let tuples: Vec<Tuple> = (0..batch_size)
                    .map(|k| marker_tuple(&schema, i, batch * batch_size + k))
                    .collect();
                backend.push_batch(&stream, tuples).unwrap();
            }
        }));
    }

    // Churn: grant accesses (deploying policy graphs on the busy streams)
    // and remove/update the spawning policies, withdrawing the graphs while
    // producers are mid-batch.
    let churn = {
        let backend = Arc::clone(&backend);
        std::thread::spawn(move || {
            let mut deployed = 0usize;
            for round in 0..churn_rounds {
                let stream = format!("s{}", round % streams);
                let subject = format!("churn-{round}");
                let policy_id = format!("p-{round}");
                let policy = StreamPolicyBuilder::new(&policy_id, &stream)
                    .subject(&subject)
                    .filter("rainrate > 5")
                    .build();
                backend.load_policy(policy).unwrap();
                let response =
                    backend.handle_request(&Request::subscribe(&subject, &stream), None).unwrap();
                assert!(backend.handle_is_live(response.handle()));
                deployed += 1;
                if round % 3 == 0 {
                    // Modification also withdraws the spawned graphs.
                    let updated = StreamPolicyBuilder::new(&policy_id, &stream)
                        .subject(&subject)
                        .filter("rainrate > 50")
                        .build();
                    assert_eq!(backend.update_policy(updated).unwrap(), 1);
                    backend.remove_policy(&policy_id).unwrap();
                } else {
                    assert_eq!(backend.remove_policy(&policy_id).unwrap(), 1);
                }
                assert!(!backend.handle_is_live(response.handle()));
            }
            deployed
        })
    };

    for t in threads {
        t.join().unwrap();
    }
    let churn_deployed = churn.join().unwrap();

    // Every stable observer saw every tuple of its stream exactly once.
    let per_stream = batches_per_stream * batch_size;
    for (i, subscription) in receivers.iter_mut().enumerate() {
        let received: Vec<i64> = subscription
            .drain()
            .iter()
            .map(|t| t.event_time().expect("marker timestamp"))
            .collect();
        assert_eq!(received.len(), per_stream, "stream s{i} lost or duplicated tuples");
        let unique: HashSet<i64> = received.iter().copied().collect();
        assert_eq!(unique.len(), per_stream, "stream s{i} delivered duplicates");
        let expected: HashSet<i64> =
            (0..per_stream).map(|k| (i as i64) * 1_000_000_000 + k as i64).collect();
        assert_eq!(unique, expected, "stream s{i} delivered the wrong tuple set");
    }

    // The telemetry registry reconciles with the work performed under full
    // producer concurrency — the sharded counters lose nothing.
    let snapshot = backend.telemetry();
    let total_pushed = (streams * per_stream) as u64;
    assert_eq!(snapshot.counter(Metric::TuplesIngested), total_pushed);
    assert_eq!(snapshot.counter(Metric::BatchesIngested), (streams * batches_per_stream) as u64);
    // The stable observers alone account for one delivery per pushed
    // tuple; churn grants can only add to that.
    assert!(snapshot.counter(Metric::TuplesDelivered) >= total_pushed);
    // Every observer and every churn grant compiled a fresh plan, and every
    // churn grant was withdrawn again: only the observers' deployments are
    // left.
    assert_eq!(snapshot.counter(Metric::PlanCacheMisses), (streams + churn_deployed) as u64);
    assert_eq!(backend.live_deployments(), streams);
    // All churn policies were removed again: only the observers' are left.
    assert_eq!(backend.policy_count(), streams);
    assert_eq!(snapshot.counter(Metric::Requests), (streams + churn_deployed) as u64);
    dump_telemetry_snapshot(&snapshot);
}

const RACE_POLICY: &str = "p-race";

fn race_policy(threshold: u32) -> Policy {
    StreamPolicyBuilder::new(RACE_POLICY, "weather")
        .subject("LTA")
        .filter(format!("rainrate > {threshold}"))
        .build()
}

type Outcome = Result<BackendResponse, ExacmlError>;

/// Run `rounds` rounds in which every query of `queries` is requested for
/// "LTA" on "weather" by its own thread, all released from one barrier, and
/// `judge(round, outcomes)` runs on the calling thread once every request
/// of the round has returned (it may drive the backend itself before it
/// collects them: `race` hands it the receiving end). The first `Err` a
/// judge returns stops the run and is returned — the workers are let go
/// before anything panics, so a violation fails the test instead of hanging
/// it on the barrier.
fn race(
    backend: &Arc<dyn Backend>,
    queries: &[Option<UserQuery>],
    rounds: usize,
    mut judge: impl FnMut(usize, &mpsc::Receiver<Outcome>) -> Result<(), String>,
) -> Result<(), String> {
    let start = Barrier::new(queries.len() + 1);
    let stop = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|scope| {
        for query in queries {
            let (tx, start, stop) = (tx.clone(), &start, &stop);
            scope.spawn(move || loop {
                start.wait();
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let request = Request::subscribe("LTA", "weather");
                tx.send(backend.handle_request(&request, query.as_ref())).unwrap();
            });
        }
        let verdict = (0..rounds).try_for_each(|round| {
            start.wait();
            judge(round, &rx).map_err(|violation| format!("round {round}: {violation}"))
        });
        stop.store(true, Ordering::SeqCst);
        start.wait();
        verdict
    })
}

/// Section 3.4 under concurrency: threads racing *different* windows for
/// one subject on one stream get at most one live handle between them.
fn racing_windows_grant_at_most_one(backend: &Arc<dyn Backend>, server: Option<&DataServer>) {
    const THREADS: u64 = 3;
    backend.register_stream("weather", Schema::weather_example()).unwrap();
    backend.load_policy(race_policy(5)).unwrap();
    // The Example 2 attack: sum windows of sizes 3, 4, 5 over one stream.
    let queries: Vec<Option<UserQuery>> = (0..THREADS)
        .map(|t| {
            Some(UserQuery::for_stream("weather").with_aggregation(
                WindowSpec::tuples(3 + t, 1),
                vec![AggSpec::new("rainrate", AggFunc::Sum)],
            ))
        })
        .collect();
    let grant_count = || server.map_or(0, DataServer::grant_count);

    let verdict = race(backend, &queries, knob("STRESS_RACE_ROUNDS", 5_000), |round, rx| {
        let outcomes: Vec<Outcome> = queries.iter().map(|_| rx.recv().unwrap()).collect();
        let mut granted = Vec::new();
        for outcome in outcomes {
            match outcome {
                Ok(response) => granted.push(response.handle().clone()),
                Err(ExacmlError::MultipleAccess { .. }) => {}
                Err(other) => return Err(format!("a loser must see MultipleAccess, saw {other}")),
            }
        }
        if granted.len() != 1 {
            return Err(format!("{} handles granted to one subject: {granted:?}", granted.len()));
        }
        if backend.live_deployments() != 1 || server.is_some() && grant_count() != 1 {
            return Err(format!(
                "{} live deployments, {} grants after one grant",
                backend.live_deployments(),
                grant_count()
            ));
        }
        // Withdraw — by release and by policy removal in turn — and nothing
        // the round granted may stay live.
        if round % 2 == 0 {
            assert!(backend.release_access("LTA", "weather"));
        } else {
            assert_eq!(backend.remove_policy(RACE_POLICY).unwrap(), 1);
            backend.load_policy(race_policy(5)).unwrap();
        }
        if backend.handle_is_live(&granted[0]) || backend.live_deployments() != 0 {
            return Err(format!("{} outlived its withdrawal", granted[0]));
        }
        Ok(())
    });
    assert_eq!(verdict, Ok(()));
    assert_eq!((backend.live_deployments(), grant_count()), (0, 0));
}

#[test]
fn racing_windows_never_grant_one_subject_two_live_handles_on_a_server() {
    let server = Arc::new(DataServer::new(ServerConfig::local()));
    let backend: Arc<dyn Backend> = Arc::clone(&server) as Arc<dyn Backend>;
    racing_windows_grant_at_most_one(&backend, Some(&server));
}

#[test]
fn racing_windows_never_grant_one_subject_two_live_handles_on_a_fabric() {
    racing_windows_grant_at_most_one(&BackendBuilder::fabric(2).build(), None);
}

/// Section 3.3 under concurrency: one thread requests access while this one
/// changes the authorising policy. `change` applies the change and returns
/// the filter a grant made *after* it carries (`None` when nothing can be
/// granted after it); once both calls have returned, a handle granted under
/// the old revision is dead and one granted under the new one is not.
/// `restore` readies the next round.
fn request_racing_a_policy_change(
    change: impl Fn(&dyn Backend, usize) -> Option<String>,
    restore: impl Fn(&dyn Backend),
) {
    let server = Arc::new(DataServer::new(ServerConfig::local()));
    let backend: Arc<dyn Backend> = Arc::clone(&server) as Arc<dyn Backend>;
    backend.register_stream("weather", Schema::weather_example()).unwrap();
    backend.load_policy(race_policy(5)).unwrap();

    let verdict = race(&backend, &[None], knob("STRESS_RACE_ROUNDS", 5_000), |round, rx| {
        let new_filter = change(backend.as_ref(), round);
        let live = match rx.recv().unwrap() {
            Ok(granted) => {
                let script = &granted.response.streamsql;
                let under_new = new_filter.is_some_and(|filter| script.contains(&filter));
                let live = backend.handle_is_live(granted.handle());
                if live != under_new {
                    return Err(format!(
                        "{} granted under the {} revision is live: {live}",
                        granted.handle(),
                        if under_new { "new" } else { "old" }
                    ));
                }
                live
            }
            Err(ExacmlError::AccessDenied { .. }) => false,
            Err(other) => return Err(format!("unexpected refusal: {other}")),
        };
        let expected = usize::from(live);
        if (server.grant_count(), backend.live_deployments()) != (expected, expected) {
            return Err(format!(
                "{} grants on {} deployments beside {expected} live handle(s)",
                server.grant_count(),
                backend.live_deployments()
            ));
        }
        assert_eq!(backend.release_access("LTA", "weather"), live);
        restore(backend.as_ref());
        Ok(())
    });
    assert_eq!(verdict, Ok(()));
    assert_eq!((server.grant_count(), backend.live_deployments()), (0, 0));
}

#[test]
fn a_request_racing_remove_policy_leaves_no_live_handle() {
    request_racing_a_policy_change(
        |backend, _| {
            backend.remove_policy(RACE_POLICY).unwrap();
            None
        },
        |backend| {
            backend.load_policy(race_policy(5)).unwrap();
        },
    );
}

#[test]
fn a_request_racing_update_policy_keeps_only_a_grant_of_the_new_revision() {
    request_racing_a_policy_change(
        |backend, round| {
            // Flip between two filters, so each round's update is a change.
            let threshold = [70, 5][round % 2];
            backend.update_policy(race_policy(threshold)).unwrap();
            Some(format!("rainrate > {threshold}"))
        },
        |_| {},
    );
}

/// Section 3.3 on the tuple path: a producer pushes marker batches, a
/// consumer drains the grant, and this thread releases it once a round's
/// share of the batches has begun. The consumer must read each marker once
/// and in order, none whose push began after the release returned, and a
/// drain after the release must find nothing: what the grant had not taken
/// was discarded with it.
#[test]
fn a_release_racing_ingest_and_a_consumer_leaves_nothing_to_read() {
    const BATCHES: usize = 8;
    const BATCH: usize = 16;
    let server = DataServer::new(ServerConfig::local());
    server.register_stream("weather", Schema::weather_example()).unwrap();
    server.load_policy(race_policy(5)).unwrap();
    let schema = server.stream_schema("weather").unwrap();
    let marker = |tuple: &Tuple| tuple.event_time().expect("marker timestamp") as usize;

    let verdict = (0..knob("STRESS_RACE_ROUNDS", 5_000)).try_for_each(|round| {
        let granted = server.handle_request(&Request::subscribe("LTA", "weather"), None).unwrap();
        let rx = server.subscribe(&granted.handle).unwrap();
        // Markers below `begun` belong to pushes that have begun; `done`
        // counts the producer's end and the release.
        let (begun, done) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let (read, limit, left) = std::thread::scope(|scope| {
            scope.spawn(|| {
                for b in 0..BATCHES {
                    let batch: Vec<Tuple> =
                        (b * BATCH..(b + 1) * BATCH).map(|m| marker_tuple(&schema, 0, m)).collect();
                    begun.store((b + 1) * BATCH, Ordering::SeqCst);
                    server.push_batch("weather", batch).unwrap();
                }
                done.fetch_add(1, Ordering::SeqCst);
            });
            let consumer = scope.spawn(|| {
                let mut read = Vec::new();
                loop {
                    let last = done.load(Ordering::SeqCst) == 2;
                    read.extend(rx.take_all().iter().map(marker));
                    if last {
                        return read;
                    }
                    std::thread::yield_now();
                }
            });
            while begun.load(Ordering::SeqCst) < BATCH * (1 + round % (BATCHES / 2)) {
                std::thread::yield_now();
            }
            assert!(server.release_access("LTA", "weather"));
            let limit = begun.load(Ordering::SeqCst);
            let left = rx.take_all().len();
            done.fetch_add(1, Ordering::SeqCst);
            (consumer.join().unwrap(), limit, left)
        });
        if let Some(pair) = read.windows(2).find(|pair| pair[0] >= pair[1]) {
            return Err(format!("round {round}: marker {} read after {}", pair[1], pair[0]));
        }
        if let Some(late) = read.iter().find(|&&m| m >= limit) {
            return Err(format!("round {round}: marker {late} was pushed after the release"));
        }
        if left > 0 {
            return Err(format!("round {round}: {left} tuple(s) readable after the release"));
        }
        Ok(())
    });
    assert_eq!(verdict, Ok(()));
    assert_eq!(server.live_deployments(), 0);
}
