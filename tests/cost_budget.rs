//! Deterministic cost budgets: heap allocations of 256-row
//! `StreamEngine::push_batch` calls, counted by this binary's global
//! allocator over 31 warm pushes.
//!
//! Wall-clock time on a shared host moves by tens of percent from run to
//! run; an allocation count does not move at all. Each plan below mirrors
//! one shape of the `city_ingest` world, and its bound is the count the
//! engine makes today. A change that adds a buffer to the batch path fails
//! here, whatever the host's noise; a change that removes one lowers the
//! bound. Beside each bound is the count of the engine before filters
//! became selections, when every push built each deployment's column views
//! and every filter's flags afresh, and a filter chain's riders read a
//! second cache over the chain's copied survivors.
//!
//! Run it alone: `cargo test --test cost_budget`. Counting is per thread,
//! so the harness's own threads do not disturb it.

use exacml_dsms::{
    AggFunc, AggSpec, QueryGraph, QueryGraphBuilder, ResidualSpec, Schema, StreamEngine, Tuple,
    TupleReceiver, Value, WindowSpec,
};
use exacml_expr::parse_expr;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// The system allocator, counting the allocations of threads that asked.
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every call is forwarded to `System` unchanged; the counters are
// const-initialised thread locals, which allocate nothing themselves.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Rows per push, as the benchmark's ingest lanes cut them.
const BATCH: usize = 256;
/// Pushes measured after warm-up. 31 dates from when the delivery channel
/// allocated a block every 31 sends; it is kept so that each bound stays
/// comparable with the counts recorded beside it.
const PUSHES: usize = 31;

/// Weather rows whose `rainrate` walks 0..100 in steps that visit every
/// residue, so each threshold selects a fixed share of every batch.
fn batch(schema: &Arc<Schema>, round: usize) -> Vec<Tuple> {
    (0..BATCH)
        .map(|i| {
            let n = round * BATCH + i;
            Tuple::builder_shared(schema)
                .set("samplingtime", Value::Timestamp(n as i64 * 1_000))
                .set("rainrate", ((n * 37) % 100) as f64)
                .set("windspeed", (n % 23) as f64)
                .finish_with_defaults()
        })
        .collect()
}

/// Allocations of `PUSHES` warm pushes into `engine`'s `weather` stream,
/// the receivers drained between pushes as a consumer would.
fn allocations(engine: &StreamEngine, receivers: &[TupleReceiver]) -> u64 {
    let schema = engine.stream_schema("weather").unwrap();
    let batches: Vec<Vec<Tuple>> = (0..PUSHES * 2).map(|round| batch(&schema, round)).collect();
    let mut batches = batches.into_iter();
    let mut push = |count: bool| {
        let rows = batches.next().unwrap();
        COUNTING.with(|c| c.set(count));
        engine.push_batch("weather", rows).unwrap();
        COUNTING.with(|c| c.set(false));
        for receiver in receivers {
            assert!(!receiver.take_all().is_empty(), "every rider receives rows each push");
        }
    };
    for _ in 0..PUSHES {
        push(false);
    }
    ALLOCATIONS.with(|n| n.set(0));
    for _ in 0..PUSHES {
        push(true);
    }
    ALLOCATIONS.with(Cell::get)
}

fn engine() -> StreamEngine {
    let engine = StreamEngine::new();
    engine.register_stream("weather", Schema::weather_example()).unwrap();
    engine
}

fn filter_on(threshold: u32) -> QueryGraphBuilder {
    QueryGraphBuilder::on_stream("weather").filter_str(&format!("rainrate > {threshold}")).unwrap()
}

/// A plan plus `riders` handles attached to it, each with the residual
/// `residual(i)` gives, and a receiver per rider.
fn with_riders(
    engine: &StreamEngine,
    plan: QueryGraph,
    riders: usize,
    residual: impl Fn(usize) -> Option<ResidualSpec>,
) -> Vec<TupleReceiver> {
    let deployment = engine.deploy(&plan).unwrap();
    (0..riders)
        .map(|i| {
            let handle = engine.attach_handle(deployment.id, residual(i).as_ref()).unwrap();
            engine.subscribe(&handle).unwrap()
        })
        .collect()
}

/// Identity plan, one subscriber: the push allocates the rider's delivered
/// `Vec`, which is moved into its drained inbox.
#[test]
fn an_identity_plan_with_one_rider() {
    let engine = engine();
    let riders = with_riders(&engine, QueryGraph::identity("weather"), 1, |_| None);
    // Before: 32 (an identity plan never filtered; 31 delivered `Vec`s and
    // one channel block).
    assert_eq!(allocations(&engine, &riders), 31);
}

/// Filter-only plan, one subscriber: the shard's `rainrate` view and the
/// filter's flags are buffers kept from the last push, so only delivery
/// allocates — as on the identity plan.
#[test]
fn a_filter_only_plan_with_one_rider() {
    let engine = engine();
    let riders = with_riders(&engine, filter_on(50).build(), 1, |_| None);
    // Before: 125 (a view, the list holding it and the flags per push);
    // 32 with a channel block.
    assert_eq!(allocations(&engine, &riders), 31);
}

/// One filter plan under six residual riders (the `city_ingest` alert
/// shape): each rider ANDs its flags, in a kept buffer, into the chain's,
/// reading the view the chain's filter built.
#[test]
fn a_filter_plan_with_six_residual_riders() {
    let engine = engine();
    let riders = with_riders(&engine, filter_on(15).build(), 6, |i| {
        let refine = format!("rainrate > {}", 40 + 8 * i);
        Some(ResidualSpec { predicate: Some(parse_expr(&refine).unwrap()), projection: None })
    });
    // Before: 533 (also a second view over the survivors, and every
    // rider's flags); 192 with a channel block per rider.
    assert_eq!(allocations(&engine, &riders), 186);
}

/// Filter → map → 70-tuple window under eighteen riders (the
/// `city_ingest` agency shape): each closed window is a new row, so the
/// window's outputs allocate beside the eighteen delivered `Vec`s.
#[test]
fn a_filter_map_window_plan_with_eighteen_riders() {
    let engine = engine();
    let plan = filter_on(10)
        .map(["samplingtime", "rainrate", "windspeed"])
        .aggregate(
            WindowSpec::tuples(70, 70),
            vec![
                AggSpec::new("samplingtime", AggFunc::LastValue),
                AggSpec::new("rainrate", AggFunc::Avg),
                AggSpec::new("windspeed", AggFunc::Max),
            ],
        )
        .build();
    let riders = with_riders(&engine, plan, 18, |_| None);
    // Before: 871; 778 with a channel block per rider.
    assert_eq!(allocations(&engine, &riders), 760);
}
