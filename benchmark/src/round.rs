//! One round: a fresh backend set up from the world, two load lanes for a
//! warm-up plus a measured window, then teardown.
//!
//! *Lane A* is a closed loop on the workload's dominant plane; *lane B* is
//! an open loop at a fixed rate on the other plane, timed from each
//! operation's due time. A speed-up on lane A therefore cannot starve lane B
//! into a false regression, and a stall on either shows where it happened.

use crate::oracle::{classify, probes_after, Outcome, RequestModel, TapOracle};
use crate::pace::{pin_lane, Clock, Pacer};
use crate::rng::SplitMix64;
use crate::stats::Slices;
use crate::trace::{Phase, Tracer};
use crate::world::{
    probe_stamp, TapKind, Workload, World, INTRUDER_SHARE, POOL_ROWS, REQUEST_LIVE_CAP,
    VARIANT_FLIP_SHARE, ZIPF_RANKS,
};
use exacml::exacml_dsms::{StreamHandle, Tuple};
use exacml::prelude::{
    Backend, BackendBuilder, Request, StreamBatch, Subscription, TelemetrySnapshot, TopologyPreset,
    UserQuery,
};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The fixed shape of each workload's load.
pub struct Plan {
    /// Streams per ingest call and tuples per stream (probe included).
    pub frame_streams: usize,
    pub batch: usize,
    /// Lane B ticks per second, and what a tick does.
    pub tick_rate: f64,
    pub paced_ingest: bool,
    /// A policy update every this many ticks.
    pub update_every: u64,
    /// Churn grants lane B holds before releasing the oldest.
    pub churn_cap: usize,
}

pub fn plan(workload: Workload) -> Plan {
    match workload {
        // 100 req/s churn + 2 policy updates/s beside closed-loop ingest.
        Workload::CityIngest => Plan {
            frame_streams: 1,
            batch: 256,
            tick_rate: 100.0,
            paced_ingest: false,
            update_every: 50,
            churn_cap: 64,
        },
        Workload::FabricIngest => Plan {
            frame_streams: 16,
            batch: 64,
            tick_rate: 100.0,
            paced_ingest: false,
            update_every: 50,
            churn_cap: 64,
        },
        // 100 req/s churn + 5 updates/s, each a flushed, shipped WAL record.
        Workload::ReplicatedMixed => Plan {
            frame_streams: 4,
            batch: 256,
            tick_rate: 20.0,
            paced_ingest: false,
            update_every: 20,
            churn_cap: 12,
        },
        // 20 000 tuples/s in 64-tuple batches + ~5 updates/s beside the
        // closed request loop.
        Workload::CityRequests => Plan {
            frame_streams: 1,
            batch: 64,
            tick_rate: 312.5,
            paced_ingest: true,
            update_every: 62,
            churn_cap: 64,
        },
    }
}

/// Timing of one round, in nanoseconds on the round's clock.
#[derive(Debug, Clone)]
pub struct RoundConfig {
    pub warmup_ns: i64,
    pub slice_ns: u64,
    pub slices: usize,
    pub traced: bool,
    /// Where a durable shape may put its store (removed after the round).
    pub store: PathBuf,
}

impl RoundConfig {
    fn measure_ns(&self) -> i64 {
        (self.slice_ns * self.slices as u64) as i64
    }
}

/// What one lane measured.
pub struct LaneStats {
    pub ingest: Slices,
    pub delivery: Slices,
    pub requests: Slices,
    pub release_ns: Vec<u64>,
    pub update_ns: Vec<u64>,
    pub lateness_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    pub tracer: Tracer,
    measure_start: i64,
}

impl LaneStats {
    /// `coarser` is how many of the round's slices make one of this lane's:
    /// the paced lane completes only a hundred or so operations a second, so
    /// its slices are twice as long to hold as many samples per median.
    fn new(config: &RoundConfig, lane: &'static str, coarser: u64, span_capacity: usize) -> Self {
        let slices =
            || Slices::new(config.slice_ns * coarser, config.slices.div_ceil(coarser as usize));
        LaneStats {
            ingest: slices(),
            delivery: slices(),
            requests: slices(),
            release_ns: Vec::new(),
            update_ns: Vec::new(),
            lateness_ns: Vec::new(),
            attempted: 0,
            failed: 0,
            tracer: Tracer::new(lane, config.traced, span_capacity),
            measure_start: config.warmup_ns,
        }
    }

    fn in_window(&self, at_ns: i64) -> bool {
        at_ns >= self.measure_start
    }

    /// Count `violations` failed operations; the first few are explained.
    fn fail(&mut self, violations: u64, what: &str) {
        if self.failed < 5 {
            eprintln!("oracle: {what}");
        }
        self.failed += violations;
    }
}

/// A standing subscriber the ingest lane drains after every batch.
struct Tap {
    sub: Subscription,
    oracle: TapOracle,
    /// Pass-count prefix sums over the pool for the tap's threshold.
    prefix: Option<Arc<Vec<u32>>>,
}

/// One stream as the ingest lane feeds it. The probe tap is `taps[0]`.
struct Feed {
    name: String,
    pool: usize,
    cursor: usize,
    taps: Vec<Tap>,
}

/// The backend with the world loaded into it.
struct Rig {
    backend: Arc<dyn Backend>,
    feeds: Vec<Feed>,
    store: Option<PathBuf>,
}

impl Drop for Rig {
    fn drop(&mut self) {
        if let Some(store) = &self.store {
            let _ = std::fs::remove_dir_all(store);
        }
    }
}

fn build_backend(workload: Workload, seed: u64, store: &Path) -> Arc<dyn Backend> {
    match workload {
        Workload::CityIngest | Workload::CityRequests => {
            BackendBuilder::local().with_seed(seed).build()
        }
        Workload::FabricIngest => {
            BackendBuilder::fabric(4).topology(TopologyPreset::PaperTestbed).with_seed(seed).build()
        }
        Workload::ReplicatedMixed => {
            let _ = std::fs::remove_dir_all(store);
            BackendBuilder::replicated(3, store).replicate(1).with_seed(seed).build()
        }
    }
}

/// Build the backend and load the world: streams, policies, standing grants
/// and their subscriptions. This is what `setup_s` times.
fn setup(world: &World, store: &Path) -> Result<Rig, String> {
    let backend = build_backend(world.workload, world.seed, store);
    let fail = |what: &str, e: &dyn std::fmt::Display| format!("setup: {what}: {e}");
    let mut feeds = Vec::with_capacity(world.streams.len());
    for spec in &world.streams {
        backend
            .register_stream(&spec.name, spec.kind.schema())
            .map_err(|e| fail("register stream", &e))?;
        let pool = world.pools.iter().position(|p| p.kind == spec.kind).expect("pool exists");
        // Streams start at different pool rows so their batches differ.
        let cursor = (feeds.len() * 4_099) % POOL_ROWS;
        feeds.push(Feed { name: spec.name.clone(), pool, cursor, taps: Vec::new() });
    }
    for policy in &world.policies {
        backend.load_policy(policy.build(0)).map_err(|e| fail("load policy", &e))?;
    }
    for tap in &world.taps {
        let stream = &world.streams[tap.stream];
        let query = tap.refine_above.map(|above| {
            UserQuery::for_stream(&stream.name)
                .with_filter(format!("{} > {above}", stream.kind.value_column()))
        });
        let granted = backend
            .handle_request(&Request::subscribe(&tap.subject, &stream.name), query.as_ref())
            .map_err(|e| fail("standing grant", &e))?;
        let sub = backend.subscribe(granted.handle()).map_err(|e| fail("subscribe", &e))?;
        let prefix = world.prefix_for(tap.kind);
        let slot = Tap { sub, oracle: TapOracle::new(tap.kind), prefix };
        let taps = &mut feeds[tap.stream].taps;
        if tap.kind == TapKind::Probe {
            taps.insert(0, slot);
        } else {
            taps.push(slot);
        }
    }
    let store = (world.workload == Workload::ReplicatedMixed).then(|| store.to_path_buf());
    Ok(Rig { backend, feeds, store })
}

/// Everything delivered so far. A fabric subscription settles its simulated
/// links; an in-process one is read straight off its channel.
fn drain_all(sub: &mut Subscription) -> Vec<Tuple> {
    if sub.as_fabric_mut().is_some() {
        sub.drain()
    } else {
        sub.poll_now()
    }
}

/// The ingest lane's state: feeds in round-robin, one frame per step.
struct IngestLane<'a> {
    world: &'a World,
    backend: &'a dyn Backend,
    feeds: Vec<Feed>,
    frame_streams: usize,
    batch: usize,
    next_feed: usize,
    frames: u64,
}

impl IngestLane<'_> {
    /// Generate one frame, push it, drain every tap of the streams it
    /// touched and check what they received.
    fn step(&mut self, clock: &Clock, stats: &mut LaneStats) {
        let id = self.frames;
        self.frames += 1;
        let rows = self.batch - 1;
        let t0 = clock.now_ns();
        // (feed, first pool row, probe stamp) of each stream in the frame.
        let mut parts: Vec<(usize, usize, i64)> = Vec::with_capacity(self.frame_streams);
        let mut frame: Vec<StreamBatch> = Vec::with_capacity(self.frame_streams);
        for _ in 0..self.frame_streams {
            let index = self.next_feed;
            self.next_feed = (self.next_feed + 1) % self.feeds.len();
            let feed = &mut self.feeds[index];
            let pool = &self.world.pools[feed.pool];
            if feed.cursor + rows > POOL_ROWS {
                feed.cursor = 0;
            }
            let start = feed.cursor;
            feed.cursor += rows;
            let mut tuples: Vec<Tuple> = pool.tuples[start..start + rows].to_vec();
            let stamp = clock.now_ns();
            tuples.push(pool.probe(stamp));
            parts.push((index, start, stamp));
            frame.push(StreamBatch::new(feed.name.clone(), tuples));
        }
        let t1 = clock.now_ns();
        let pushed = if frame.len() == 1 {
            let only = frame.pop().expect("one batch");
            self.backend.push_batch(&only.stream, only.tuples)
        } else {
            self.backend.push_batches(frame)
        };
        let t2 = clock.now_ns();
        stats.attempted += 1;
        if let Err(e) = &pushed {
            stats.fail(1, &format!("push failed: {e}"));
        }
        let tuples = (self.batch * parts.len()) as u64;
        stats.ingest.record(t2 - stats.measure_start, tuples, None);

        for (index, start, stamp) in parts {
            let feed = &mut self.feeds[index];
            for (position, tap) in feed.taps.iter_mut().enumerate() {
                let delivered = drain_all(&mut tap.sub);
                if position == 0 {
                    let seen = clock.now_ns();
                    stats.delivery.record(
                        seen - stats.measure_start,
                        1,
                        Some((seen - stamp).max(0) as u64),
                    );
                }
                // The probe passes every standing predicate.
                let passing = match &tap.prefix {
                    Some(prefix) => u64::from(prefix[start + rows] - prefix[start]) + 1,
                    None => self.batch as u64,
                };
                let violations = tap.oracle.observe(self.batch as u64, passing, &delivered, stamp);
                if violations > 0 {
                    stats.fail(
                        violations,
                        &format!(
                            "stream {} subscriber {position}: {} delivered of {passing} passing",
                            feed.name,
                            delivered.len()
                        ),
                    );
                }
            }
        }
        let t3 = clock.now_ns();
        stats.tracer.record(Phase::Generate, id, t0, t1);
        stats.tracer.record(Phase::Push, id, t1, t2);
        stats.tracer.record(Phase::Drain, id, t2, t3);
    }
}

struct ChurnGrant {
    entry: usize,
    handle: StreamHandle,
    sub: Subscription,
}

/// The grant → hold → release churn and the policy updates of lane B.
struct ChurnLane<'a> {
    world: &'a World,
    backend: &'a dyn Backend,
    requests: Vec<Request>,
    next: usize,
    live: VecDeque<ChurnGrant>,
    /// Subscriptions of withdrawn grants with the time the update returned;
    /// checked once more at the next update, then dropped.
    withdrawn: Vec<(Subscription, i64)>,
    revisions: Vec<u64>,
    cap: usize,
    ops: u64,
}

impl<'a> ChurnLane<'a> {
    fn new(world: &'a World, backend: &'a dyn Backend, cap: usize) -> Self {
        let requests = world
            .churn
            .iter()
            .map(|c| Request::subscribe(&c.subject, &world.streams[c.stream].name))
            .collect();
        ChurnLane {
            world,
            backend,
            requests,
            next: 0,
            live: VecDeque::new(),
            withdrawn: Vec::new(),
            revisions: vec![0; world.churn.len()],
            cap,
            ops: 0,
        }
    }

    /// Churn subscriptions admit only probes; anything else, or a probe
    /// stamped after `cutoff_ns`, is a violation.
    fn check_leftovers(delivered: &[Tuple], cutoff_ns: i64, stats: &mut LaneStats) {
        let late = probes_after(delivered, cutoff_ns);
        let foreign = delivered.iter().filter(|t| probe_stamp(t).is_none()).count() as u64;
        if late + foreign > 0 {
            stats.fail(
                late + foreign,
                &format!("{late} probe(s) after withdrawal, {foreign} non-probe tuple(s)"),
            );
        }
    }

    /// Request the next churn subject's grant (a fresh grant is expected),
    /// subscribe to it, and release the oldest grant beyond the cap. `due`
    /// is when a paced request was scheduled — its latency counts from
    /// there; an unscheduled one (`None`) is checked but not timed.
    fn grant_next(&mut self, clock: &Clock, due: Option<i64>, stats: &mut LaneStats) {
        let entry = self.next;
        self.next = (self.next + 1) % self.requests.len();
        let id = self.ops;
        self.ops += 1;
        let t0 = clock.now_ns();
        let result = self.backend.handle_request(&self.requests[entry], None);
        let t1 = clock.now_ns();
        stats.tracer.record(Phase::Request, id, t0, t1);
        stats.attempted += 1;
        match (classify(&result), result) {
            (Outcome::Grant, Ok(granted)) => {
                if let Some(due) = due {
                    let latency = (t1 - due).max(0) as u64;
                    stats.requests.record(t1 - stats.measure_start, 1, Some(latency));
                }
                match self.backend.subscribe(granted.handle()) {
                    Ok(sub) => {
                        let handle = granted.handle().clone();
                        self.live.push_back(ChurnGrant { entry, handle, sub });
                    }
                    Err(e) => stats.fail(1, &format!("churn subscribe failed: {e}")),
                }
            }
            (outcome, _) => stats.fail(
                1,
                &format!(
                    "churn request for {} answered {outcome:?}, expected a fresh grant",
                    self.world.churn[entry].subject
                ),
            ),
        }
        if self.live.len() > self.cap {
            self.release_oldest(clock, stats);
        }
    }

    fn release_oldest(&mut self, clock: &Clock, stats: &mut LaneStats) {
        let Some(mut grant) = self.live.pop_front() else { return };
        let spec = &self.world.churn[grant.entry];
        let id = self.ops;
        self.ops += 1;
        let t0 = clock.now_ns();
        let released =
            self.backend.release_access(&spec.subject, &self.world.streams[spec.stream].name);
        let t1 = clock.now_ns();
        stats.tracer.record(Phase::Release, id, t0, t1);
        stats.attempted += 1;
        if stats.in_window(t1) {
            stats.release_ns.push((t1 - t0) as u64);
        }
        if !released || self.backend.handle_is_live(&grant.handle) {
            stats.fail(1, &format!("release of {} left its handle live", spec.subject));
        }
        Self::check_leftovers(&drain_all(&mut grant.sub), t1, stats);
    }

    /// Update the policy behind the oldest live churn grant and check
    /// Section 3.3: exactly that grant is withdrawn, its handle is dead when
    /// the update returns, and no later probe reaches it.
    fn update_oldest(&mut self, clock: &Clock, stats: &mut LaneStats) {
        if self.live.is_empty() {
            self.grant_next(clock, None, stats);
        }
        for (mut sub, cutoff) in std::mem::take(&mut self.withdrawn) {
            Self::check_leftovers(&drain_all(&mut sub), cutoff, stats);
        }
        let Some(grant) = self.live.pop_front() else { return };
        let spec = &self.world.churn[grant.entry];
        self.revisions[grant.entry] += 1;
        let policy = self.world.policies[spec.policy].build(self.revisions[grant.entry]);
        let id = self.ops;
        self.ops += 1;
        let t0 = clock.now_ns();
        let withdrawn = self.backend.update_policy(policy);
        let dead = !self.backend.handle_is_live(&grant.handle);
        let t1 = clock.now_ns();
        stats.tracer.record(Phase::PolicyUpdate, id, t0, t1);
        stats.attempted += 1;
        if stats.in_window(t1) {
            stats.update_ns.push((t1 - t0) as u64);
        }
        match withdrawn {
            Ok(1) if dead => {}
            other => stats.fail(
                1,
                &format!(
                    "update of {} withdrew {other:?} grant(s), handle dead: {dead}",
                    self.world.policies[spec.policy].id
                ),
            ),
        }
        self.withdrawn.push((grant.sub, t1));
    }
}

/// The closed request loop of `city_requests`.
struct RequestLane<'a> {
    world: &'a World,
    backend: &'a dyn Backend,
    rng: SplitMix64,
    model: RequestModel,
    requests: Vec<Request>,
    ghosts: Vec<Request>,
    handles: Vec<Option<StreamHandle>>,
    sent: u64,
}

impl<'a> RequestLane<'a> {
    fn new(world: &'a World, backend: &'a dyn Backend) -> Self {
        let stream_name = |s: usize| world.streams[s].name.as_str();
        RequestLane {
            world,
            backend,
            rng: SplitMix64::fork(world.seed, "requests"),
            model: RequestModel::new(world.corpus.len(), REQUEST_LIVE_CAP),
            requests: world
                .corpus
                .iter()
                .map(|e| Request::subscribe(&e.subject, stream_name(e.stream)))
                .collect(),
            ghosts: (0..64)
                .map(|g| Request::subscribe(&format!("ghost{g:02}"), stream_name(g % 2)))
                .collect(),
            handles: vec![None; world.corpus.len()],
            sent: 0,
        }
    }

    fn step(&mut self, clock: &Clock, stats: &mut LaneStats) {
        let id = self.sent;
        self.sent += 1;
        let (entry, refined) = if self.rng.chance(INTRUDER_SHARE) {
            (None, false)
        } else {
            let rank = self.world.zipf.sample(&mut self.rng).min(ZIPF_RANKS - 1);
            let flip = self.rng.chance(VARIANT_FLIP_SHARE);
            (Some(rank), self.world.corpus[rank].refined != flip)
        };
        let request = match entry {
            Some(e) => &self.requests[e],
            None => &self.ghosts[self.rng.below(self.ghosts.len())],
        };
        let query = entry.filter(|_| refined).map(|e| &self.world.corpus[e].refinement);
        let expected = self.model.predict(entry, refined);

        let t0 = clock.now_ns();
        let result = self.backend.handle_request(request, query);
        let t1 = clock.now_ns();
        stats.tracer.record(Phase::Request, id, t0, t1);
        stats.attempted += 1;
        let outcome = classify(&result);
        if outcome == expected {
            stats.requests.record(t1 - stats.measure_start, 1, Some((t1 - t0) as u64));
        } else {
            stats.fail(
                1,
                &format!(
                    "request {id} (entry {entry:?}, refined {refined}) answered {outcome:?}, \
                 expected {expected:?}: {:?}",
                    result.as_ref().err().map(ToString::to_string)
                ),
            );
        }
        if let (Outcome::Grant, Some(e), Ok(granted)) = (outcome, entry, &result) {
            self.handles[e] = Some(granted.handle().clone());
            if let Some(oldest) = self.model.granted(e, refined) {
                self.release(oldest, id, clock, stats);
            }
        }
    }

    fn release(&mut self, entry: usize, id: u64, clock: &Clock, stats: &mut LaneStats) {
        let spec = &self.world.corpus[entry];
        let t0 = clock.now_ns();
        let released =
            self.backend.release_access(&spec.subject, &self.world.streams[spec.stream].name);
        let t1 = clock.now_ns();
        stats.tracer.record(Phase::Release, id, t0, t1);
        stats.attempted += 1;
        if stats.in_window(t1) {
            stats.release_ns.push((t1 - t0) as u64);
        }
        let dead = self.handles[entry].take().is_none_or(|h| !self.backend.handle_is_live(&h));
        if !released || !dead {
            stats.fail(1, &format!("release of {} left its handle live", spec.subject));
        }
    }
}

/// Everything one round measured.
pub struct RoundResult {
    pub a: LaneStats,
    pub b: LaneStats,
    /// Telemetry activity inside the measured window.
    pub telemetry: TelemetrySnapshot,
    pub wal_bytes: u64,
    pub measure_start_ns: i64,
    pub measure_end_ns: i64,
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Time `count` set-ups, one after the other, dropping each backend before
/// the next is built. Done once at the start of a run, before any load has
/// churned the heap, so every sample is taken in the same process state.
pub fn time_setups(world: &World, store: &Path, count: usize) -> Result<Vec<f64>, String> {
    let mut samples = Vec::with_capacity(count);
    for _ in 0..count {
        let started = Instant::now();
        let rig = setup(world, store)?;
        samples.push(started.elapsed().as_secs_f64());
        drop(rig);
    }
    Ok(samples)
}

/// Set a fresh backend up, then run both lanes for the warm-up plus the
/// measured window.
pub fn run_round(world: &World, config: &RoundConfig) -> Result<RoundResult, String> {
    let mut rig = setup(world, &config.store)?;
    let plan = plan(world.workload);
    let feeds = std::mem::take(&mut rig.feeds);
    let shared = Arc::clone(&rig.backend);
    let backend: &dyn Backend = &*shared;

    let clock = Clock::start();
    let end_ns = config.warmup_ns + config.measure_ns();
    let seconds = (end_ns as f64 / 1e9).ceil() as usize + 1;
    let mut a = LaneStats::new(config, "a", 1, 400_000 * seconds);
    let mut b = LaneStats::new(config, "b", 2, 20_000 * seconds);

    let ingest = IngestLane {
        world,
        backend,
        feeds,
        frame_streams: plan.frame_streams,
        batch: plan.batch,
        next_feed: 0,
        frames: 0,
    };
    // The ingest lane is closed-loop on A, or paced on B beside the closed
    // request loop.
    let (mut ingest_a, mut ingest_b) =
        if plan.paced_ingest { (None, Some(ingest)) } else { (Some(ingest), None) };
    let mut churn = ChurnLane::new(world, backend, plan.churn_cap);

    let (before, after) = std::thread::scope(|scope| {
        let (a, b) = (&mut a, &mut b);
        let (ingest_a, ingest_b, churn) = (&mut ingest_a, &mut ingest_b, &mut churn);
        let (clock, plan) = (&clock, &plan);
        let lane_a = scope.spawn(move || {
            pin_lane(0);
            match ingest_a {
                Some(ingest) => {
                    while clock.now_ns() < end_ns {
                        ingest.step(clock, a);
                    }
                }
                None => {
                    let mut requests = RequestLane::new(world, backend);
                    while clock.now_ns() < end_ns {
                        requests.step(clock, a);
                    }
                }
            }
        });
        let lane_b = scope.spawn(move || {
            pin_lane(1);
            let mut pacer = Pacer::new(clock.now_ns(), plan.tick_rate);
            loop {
                let (tick, due) = pacer.wait_next(clock);
                if due >= end_ns {
                    break;
                }
                match ingest_b {
                    Some(ingest) => ingest.step(clock, b),
                    None => churn.grant_next(clock, Some(due), b),
                }
                if tick % plan.update_every == plan.update_every - 1 {
                    churn.update_oldest(clock, b);
                }
            }
            let warmup_ticks = (config.warmup_ns as f64 / 1e9 * plan.tick_rate) as usize;
            b.lateness_ns = pacer.lateness.iter().skip(warmup_ticks).copied().collect();
        });
        // The caller's thread only takes the telemetry snapshots at the
        // window's edges; the two lanes are the whole load.
        let sleep_until = |at_ns: i64| {
            let wait = at_ns - clock.now_ns();
            if wait > 0 {
                std::thread::sleep(Duration::from_nanos(wait as u64));
            }
        };
        sleep_until(config.warmup_ns);
        let before = backend.telemetry();
        sleep_until(end_ns);
        let after = backend.telemetry();
        lane_a.join().expect("lane A panicked");
        lane_b.join().expect("lane B panicked");
        (before, after)
    });

    let wal_bytes = rig.store.as_deref().map_or(0, dir_bytes);
    drop((churn, ingest_a, ingest_b, rig));
    Ok(RoundResult {
        a,
        b,
        telemetry: after.diff(&before),
        wal_bytes,
        measure_start_ns: config.warmup_ns,
        measure_end_ns: end_ns,
    })
}
