//! The `dynamic` workload: Figure-12 traffic from a seeded closed-loop
//! client loop against the three applications with the dynamic checker
//! attached.
//!
//! ```text
//! dynamic --seed N --seconds S   # measured passes: end-to-end numbers
//! dynamic --seed N --trace       # per-layer numbers of the checker
//! ```
//!
//! A pass runs three mixes, each on a fresh default [`PoolConfig`] pool:
//! Memcached memslap 50% update / 50% read, Redis SET and NStore YCSB-A.
//! Two client threads each replay a seeded op stream through
//! [`BenchApp::client_op`] inside their own tracker region (strand); a
//! client issues its next op only when the previous one returned. Every
//! mix is checked: all ops complete, the correct apps report no races,
//! and every key reads back the value its last update must have left.

use deepmc_perfbench::{arg_or, flag, median, quantile, JsonLine, SplitMix};
use nvm_apps::memcached::Memcached;
use nvm_apps::nstore::NStore;
use nvm_apps::redis::Redis;
use nvm_apps::tracker::{DeepMcTracker, NoopTracker, Tracker};
use nvm_apps::workloads::{BenchApp, ClientCtx, OpKind};
use nvm_runtime::{PmemHeap, PmemPool, PoolConfig, StrandId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

const CLIENTS: usize = 2;
const OPS_PER_CLIENT: usize = 40_000;
/// Instrumented / plain pass pairs of the traced run.
const PAIRS: usize = 3;
const KEYSPACE: u64 = 4_096;
/// Ring capacity of Redis's AOF and NStore's WAL: the heap's largest
/// size class, so the log never overlaps the records allocated after it.
const LOG_BYTES: u64 = 2 << 20;

#[derive(Clone, Copy)]
enum App {
    Memcached,
    Redis,
    NStore,
}

struct Mix {
    app: App,
    read_pct: u64,
    /// Ops per client between `batch_end` calls (Memcached's epoch).
    batch: usize,
}

const MIXES: [Mix; 3] = [
    Mix { app: App::Memcached, read_pct: 50, batch: 8 },
    Mix { app: App::Redis, read_pct: 0, batch: usize::MAX },
    Mix { app: App::NStore, read_pct: 50, batch: usize::MAX },
];

type Stream = Vec<(OpKind, u64)>;

fn streams(seed: u64, mix: usize) -> Vec<Stream> {
    (0..CLIENTS)
        .map(|c| {
            let mut rng = SplitMix::new(&[seed, mix as u64, c as u64]);
            (0..OPS_PER_CLIENT)
                .map(|_| {
                    let read = rng.below(100) < MIXES[mix].read_pct;
                    (if read { OpKind::Read } else { OpKind::Update }, rng.below(KEYSPACE))
                })
                .collect()
        })
        .collect()
}

/// Read-back of the value an update leaves, for the correctness check.
/// Every update of a key writes the same value, so the expected state
/// does not depend on how the clients interleaved.
trait ReadBack {
    fn read_back(&self, key: u64) -> Option<u64>;
    fn expected(key: u64, updated: bool) -> u64;
}

impl ReadBack for Memcached<'_> {
    fn read_back(&self, key: u64) -> Option<u64> {
        self.get(key, &NoopTracker, &ClientCtx { id: 0, tracker: &NoopTracker, strand: None })
    }
    fn expected(key: u64, updated: bool) -> u64 {
        if updated {
            key ^ 0xFF
        } else {
            key
        }
    }
}

impl ReadBack for Redis<'_> {
    fn read_back(&self, key: u64) -> Option<u64> {
        self.get(key, &NoopTracker, None)
    }
    fn expected(key: u64, updated: bool) -> u64 {
        if updated {
            key ^ 0xABCD
        } else {
            key
        }
    }
}

impl ReadBack for NStore<'_> {
    fn read_back(&self, key: u64) -> Option<u64> {
        self.read(key, 1, &NoopTracker, None)
    }
    fn expected(key: u64, updated: bool) -> u64 {
        // Column 1: `put(key, [key; 4])` versus the preload's key + 1.
        if updated {
            key
        } else {
            key + 1
        }
    }
}

/// What one mix of one pass measured.
#[derive(Default)]
struct MixRun {
    /// Op-stream generation, pool build and preload.
    setup: Duration,
    /// The client loop.
    ops_time: Duration,
    /// Whole mix: setup, client loop and read-back check.
    wall: Duration,
    ops: u64,
    /// Per-op latency in ns (`client_op` plus any `batch_end` it closes).
    latencies: Vec<u32>,
    /// Keys whose read-back value was wrong.
    bad_keys: u64,
}

fn drive<A: BenchApp + ReadBack>(
    app: &A,
    mix: &Mix,
    streams: &[Stream],
    tracker: &dyn Tracker,
    run: &mut MixRun,
) {
    let start = Instant::now();
    let lats: Vec<Vec<u32>> = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(id, stream)| {
                s.spawn(move || {
                    let strand: Option<StrandId> = tracker.region_begin();
                    let ctx = ClientCtx { id, tracker, strand };
                    let mut lat = Vec::with_capacity(stream.len());
                    for (i, &(kind, key)) in stream.iter().enumerate() {
                        let t = Instant::now();
                        app.client_op(&ctx, kind, key);
                        if (i + 1) % mix.batch == 0 {
                            app.batch_end(&ctx);
                        }
                        lat.push(t.elapsed().as_nanos().min(u32::MAX as u128) as u32);
                    }
                    if stream.len() % mix.batch != 0 {
                        app.batch_end(&ctx);
                    }
                    if let Some(strand) = strand {
                        tracker.region_end(strand);
                    }
                    lat
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    run.ops_time = start.elapsed();
    run.latencies = lats.concat();
    run.ops = run.latencies.len() as u64;
    let mut updated = vec![false; KEYSPACE as usize];
    for &(kind, key) in streams.iter().flatten() {
        updated[key as usize] |= kind == OpKind::Update;
    }
    run.bad_keys = (0..KEYSPACE)
        .filter(|&k| app.read_back(k) != Some(A::expected(k, updated[k as usize])))
        .count() as u64;
}

fn run_mix(mix_index: usize, seed: u64, tracker: &dyn Tracker) -> MixRun {
    let mix = &MIXES[mix_index];
    let mut run = MixRun::default();
    let start = Instant::now();
    let streams = streams(seed, mix_index);
    let pool = PmemPool::new(PoolConfig::default());
    let heap = PmemHeap::open(&pool);
    match mix.app {
        App::Memcached => {
            let app = Memcached::new(&pool, &heap, 64);
            app.preload(KEYSPACE);
            run.setup = start.elapsed();
            drive(&app, mix, &streams, tracker, &mut run);
        }
        App::Redis => {
            let app = Redis::new(&pool, &heap, 64, LOG_BYTES);
            app.preload(KEYSPACE);
            run.setup = start.elapsed();
            drive(&app, mix, &streams, tracker, &mut run);
        }
        App::NStore => {
            let app = NStore::new(&pool, &heap, 64, LOG_BYTES);
            app.preload(KEYSPACE);
            run.setup = start.elapsed();
            drive(&app, mix, &streams, tracker, &mut run);
        }
    }
    run.wall = start.elapsed();
    run
}

/// What one pass over the three mixes measured.
struct Pass {
    setup: f64,
    wall: f64,
    ops: u64,
    ops_time: f64,
    latencies: Vec<u32>,
    failed_ops: u64,
}

/// One pass: each mix on a fresh pool, with a fresh `DeepMcTracker` when
/// `checked` and with `NoopTracker` otherwise.
fn pass(seed: u64, checked: bool) -> Pass {
    let mut p =
        Pass { setup: 0.0, wall: 0.0, ops: 0, ops_time: 0.0, latencies: Vec::new(), failed_ops: 0 };
    for mix in 0..MIXES.len() {
        let checker = DeepMcTracker::new();
        let tracker: &dyn Tracker = if checked { &checker } else { &NoopTracker };
        let run = run_mix(mix, seed, tracker);
        let planned = (CLIENTS * OPS_PER_CLIENT) as u64;
        if run.ops != planned || run.bad_keys > 0 || !checker.reports().is_empty() {
            // A wrong verdict fails every op of the mix.
            p.failed_ops += planned;
        }
        p.setup += run.setup.as_secs_f64();
        p.wall += run.wall.as_secs_f64();
        p.ops += run.ops;
        p.ops_time += run.ops_time.as_secs_f64();
        p.latencies.extend(run.latencies);
    }
    p
}

/// [`DeepMcTracker`] behind a counting, timing wrapper: the per-layer
/// view of the checker, measured from outside it.
#[derive(Default)]
struct Counting {
    inner: DeepMcTracker,
    accesses: AtomicU64,
    access_ns: AtomicU64,
    lock_events: AtomicU64,
}

impl Tracker for Counting {
    fn region_begin(&self) -> Option<StrandId> {
        self.inner.region_begin()
    }
    fn region_end(&self, strand: StrandId) {
        self.inner.region_end(strand)
    }
    fn barrier(&self) {
        self.inner.barrier()
    }
    fn access(&self, strand: Option<StrandId>, addr: u64, len: u64, is_write: bool) {
        let t = Instant::now();
        self.inner.access(strand, addr, len, is_write);
        self.access_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.accesses.fetch_add(1, Ordering::Relaxed);
    }
    fn lock_acquire(&self, strand: Option<StrandId>, lock: u64) {
        self.lock_events.fetch_add(1, Ordering::Relaxed);
        self.inner.lock_acquire(strand, lock)
    }
    fn lock_release(&self, strand: Option<StrandId>, lock: u64) {
        self.lock_events.fetch_add(1, Ordering::Relaxed);
        self.inner.lock_release(strand, lock)
    }
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }
}

fn pct_us(lat: &[u32], q: f64) -> f64 {
    let v: Vec<f64> = lat.iter().map(|&ns| ns as f64 / 1e3).collect();
    quantile(&v, q)
}

fn measure(seed: u64, seconds: f64) {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let (mut walls, mut setups, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    while walls.is_empty() || Instant::now() < deadline {
        let p = pass(seed, true);
        walls.push(p.wall);
        setups.push(p.setup);
        rates.push(p.ops as f64 / p.ops_time);
        attempted += (CLIENTS * OPS_PER_CLIENT * MIXES.len()) as u64;
        failed += p.failed_ops;
    }
    JsonLine::default()
        .num("passes", walls.len() as f64)
        .num("wall_s", median(&walls))
        .num("setup_s", median(&setups))
        .num("ops_per_s", median(&rates))
        .num("attempted", attempted as f64)
        .num("failed", failed as f64)
        .print();
}

fn trace(seed: u64) {
    // Figure 12: instrumented versus plain passes over the same op
    // streams, alternating so drift hits both sides alike.
    let (mut plain, mut checked, mut plain_op_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut p50, mut p99) = (Vec::new(), Vec::new());
    let mut failed = 0u64;
    for _ in 0..PAIRS {
        let p = pass(seed, false);
        plain.push(p.ops as f64 / p.ops_time);
        plain_op_us.push(p.ops_time / p.ops as f64 * 1e6);
        failed += p.failed_ops;
        let c = pass(seed, true);
        checked.push(c.ops as f64 / c.ops_time);
        p50.push(pct_us(&c.latencies, 0.5));
        p99.push(pct_us(&c.latencies, 0.99));
        failed += c.failed_ops;
    }
    // One pass through the counting wrapper for the checker's own work.
    let (mut accesses, mut access_ns, mut locks, mut cells, mut races) = (0u64, 0u64, 0u64, 0, 0);
    for mix in 0..MIXES.len() {
        let t = Counting::default();
        let run = run_mix(mix, seed, &t);
        if run.bad_keys > 0 {
            failed += run.ops;
        }
        accesses += t.accesses.load(Ordering::Relaxed);
        access_ns += t.access_ns.load(Ordering::Relaxed);
        locks += t.lock_events.load(Ordering::Relaxed);
        cells += t.inner.shadow_cells();
        races += t.inner.reports().len();
    }
    JsonLine::default()
        .num("dyn.accesses", accesses as f64)
        .num("dyn.access_ns", access_ns as f64 / accesses.max(1) as f64)
        .num("dyn.lock_events", locks as f64)
        .num("dyn.shadow_cells", cells as f64)
        .num("dyn.races", races as f64)
        .num("dyn.overhead_pct", (1.0 - median(&checked) / median(&plain)) * 100.0)
        .num("dyn.op_p50_us", median(&p50))
        .num("dyn.op_p99_us", median(&p99))
        .num("apps.op_plain_us", median(&plain_op_us))
        .num("failed", failed as f64)
        .print();
}

fn main() {
    let seed = arg_or("seed", 1u64);
    if flag("trace") {
        trace(seed);
    } else {
        measure(seed, arg_or("seconds", 10.0f64));
    }
}
