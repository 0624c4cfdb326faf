//! Workload generators: the paper's Table 6 benchmarks.
//!
//! * **memslap** — the five Memcached mixes of §5.2: 50%u/50%r, 5%u/95%r,
//!   100%r, 5%insert/95%r, 50%rmw/50%r (1M transactions, 4 clients).
//! * **redis-benchmark** — the default Redis suite (SET, GET, INCR,
//!   LPUSH, LPOP subset; 1M transactions, 50 clients).
//! * **YCSB** — workloads A–F for NStore (1M transactions, 4 clients).
//!
//! Keys are drawn from a scrambled-zipfian-ish power-of-two mix that keeps
//! generation cheap (generation cost must not mask instrumentation
//! overhead).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Operation kinds common to all three applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Read,
    Update,
    Insert,
    ReadModifyWrite,
    Scan,
}

/// An operation mix, in percent (summing to 100).
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    pub name: &'static str,
    pub read: u32,
    pub update: u32,
    pub insert: u32,
    pub rmw: u32,
    pub scan: u32,
}

impl WorkloadSpec {
    const fn new(
        name: &'static str,
        read: u32,
        update: u32,
        insert: u32,
        rmw: u32,
        scan: u32,
    ) -> WorkloadSpec {
        WorkloadSpec { name, read, update, insert, rmw, scan }
    }

    /// Percentage of operations that write persistent data.
    pub fn write_fraction(&self) -> f64 {
        (self.update + self.insert + self.rmw) as f64 / 100.0
    }
}

/// The five memslap mixes of §5.2, in Figure-12 order.
pub fn memslap_workloads() -> [WorkloadSpec; 5] {
    [
        WorkloadSpec::new("50%update/50%read", 50, 50, 0, 0, 0),
        WorkloadSpec::new("5%update/95%read", 95, 5, 0, 0, 0),
        WorkloadSpec::new("100%read", 100, 0, 0, 0, 0),
        WorkloadSpec::new("5%insert/95%read", 95, 0, 5, 0, 0),
        WorkloadSpec::new("50%rmw/50%read", 50, 0, 0, 50, 0),
    ]
}

/// The default redis-benchmark command suite, expressed as single-command
/// mixes (redis-benchmark measures each command separately).
pub fn redis_benchmark_suite() -> [WorkloadSpec; 5] {
    [
        WorkloadSpec::new("SET", 0, 100, 0, 0, 0),
        WorkloadSpec::new("GET", 100, 0, 0, 0, 0),
        WorkloadSpec::new("INCR", 0, 0, 0, 100, 0),
        WorkloadSpec::new("LPUSH", 0, 0, 100, 0, 0),
        WorkloadSpec::new("LPOP", 0, 50, 0, 50, 0),
    ]
}

/// YCSB core workloads A–F.
pub fn ycsb_workloads() -> [WorkloadSpec; 6] {
    [
        WorkloadSpec::new("YCSB-A", 50, 50, 0, 0, 0),
        WorkloadSpec::new("YCSB-B", 95, 5, 0, 0, 0),
        WorkloadSpec::new("YCSB-C", 100, 0, 0, 0, 0),
        WorkloadSpec::new("YCSB-D", 95, 0, 5, 0, 0),
        WorkloadSpec::new("YCSB-E", 0, 0, 5, 0, 95),
        WorkloadSpec::new("YCSB-F", 50, 0, 0, 50, 0),
    ]
}

/// A per-client operation stream.
pub struct OpStream {
    rng: StdRng,
    spec: WorkloadSpec,
    keyspace: u64,
    next_insert: u64,
}

impl OpStream {
    /// Create client `id`'s stream over `keyspace` preloaded keys.
    pub fn new(spec: WorkloadSpec, keyspace: u64, id: u64) -> OpStream {
        OpStream {
            rng: StdRng::seed_from_u64(0xDEE9_AC00 ^ id),
            spec,
            keyspace: keyspace.max(1),
            next_insert: keyspace + id * (1 << 32),
        }
    }

    /// Next (kind, key).
    pub fn next_op(&mut self) -> (OpKind, u64) {
        let r = self.rng.gen_range(0..100u32);
        let s = &self.spec;
        let kind = if r < s.read {
            OpKind::Read
        } else if r < s.read + s.update {
            OpKind::Update
        } else if r < s.read + s.update + s.insert {
            OpKind::Insert
        } else if r < s.read + s.update + s.insert + s.rmw {
            OpKind::ReadModifyWrite
        } else {
            OpKind::Scan
        };
        let key = match kind {
            OpKind::Insert => {
                self.next_insert += 1;
                self.next_insert
            }
            _ => self.rng.gen_range(0..self.keyspace),
        };
        (kind, key)
    }
}

/// Result of one measured run.
#[derive(Debug, Clone, Copy)]
pub struct Throughput {
    pub ops: u64,
    pub elapsed: std::time::Duration,
}

impl Throughput {
    pub fn ops_per_sec(&self) -> f64 {
        self.ops as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_specs_sum_to_100() {
        for spec in memslap_workloads()
            .iter()
            .chain(redis_benchmark_suite().iter())
            .chain(ycsb_workloads().iter())
        {
            assert_eq!(
                spec.read + spec.update + spec.insert + spec.rmw + spec.scan,
                100,
                "{} mix must sum to 100",
                spec.name
            );
        }
    }

    #[test]
    fn stream_respects_mix() {
        let spec = WorkloadSpec::new("t", 90, 10, 0, 0, 0);
        let mut s = OpStream::new(spec, 1000, 0);
        let mut reads = 0;
        let n = 20_000;
        for _ in 0..n {
            if s.next_op().0 == OpKind::Read {
                reads += 1;
            }
        }
        let frac = reads as f64 / n as f64;
        assert!((frac - 0.9).abs() < 0.02, "read fraction {frac} ≉ 0.9");
    }

    #[test]
    fn streams_are_deterministic_per_client() {
        let spec = memslap_workloads()[0];
        let mut a = OpStream::new(spec, 100, 3);
        let mut b = OpStream::new(spec, 100, 3);
        for _ in 0..100 {
            assert_eq!(a.next_op(), b.next_op());
        }
    }

    #[test]
    fn inserts_use_fresh_keys() {
        let spec = WorkloadSpec::new("ins", 0, 0, 100, 0, 0);
        let mut s = OpStream::new(spec, 50, 1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            let (kind, key) = s.next_op();
            assert_eq!(kind, OpKind::Insert);
            assert!(key >= 50, "insert keys outside the preloaded range");
            assert!(seen.insert(key), "insert keys never repeat");
        }
    }

    #[test]
    fn write_fraction() {
        assert_eq!(memslap_workloads()[2].write_fraction(), 0.0);
        assert_eq!(memslap_workloads()[0].write_fraction(), 0.5);
    }
}

/// One scripted crash-sweep operation. `Barrier` closes an epoch: only
/// Memcached acts on it (its durability acks are deferred to the next
/// barrier); the strict apps ack every op as it completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScriptOp {
    Set { key: u64, val: u64 },
    Del { key: u64 },
    Barrier,
}

/// Deterministic sweep script: mostly sets over a small keyspace,
/// occasional deletes, barriers every 6 ops. Everything derives from
/// `seed`, so the same seed replays the same operation history.
pub fn sweep_script(seed: u64, steps: u64) -> Vec<ScriptOp> {
    let keyspace = 16;
    let mut ops = Vec::new();
    for i in 0..steps {
        if i > 0 && i % 6 == 0 {
            ops.push(ScriptOp::Barrier);
        }
        let r = crate::recovery::checksum(seed, &[0xC0FFEE, i]);
        let key = 1 + r % keyspace;
        if r % 11 == 10 {
            ops.push(ScriptOp::Del { key });
        } else {
            ops.push(ScriptOp::Set { key, val: crate::recovery::checksum(seed, &[0xBEEF, i]) | 1 });
        }
    }
    ops
}

/// Pre-crash operation history recorded by the workload driver: every
/// write with its script position, the last *acknowledged* update per key
/// (with its ack position), and which keys' latest acked update went
/// through a deliberately buggy code path. Post-recovery oracles compare
/// the recovered read-back against this record.
#[derive(Debug, Default, Clone)]
pub struct OpHistory {
    /// key -> every (script position, value) written, in program order.
    writes: std::collections::HashMap<u64, Vec<(u64, u64)>>,
    /// key -> (position at which durability was acknowledged, value).
    acked: std::collections::HashMap<u64, (u64, u64)>,
    /// Keys whose latest acked update used the injected-bug path.
    buggy: std::collections::HashSet<u64>,
}

impl OpHistory {
    /// Record a write of `val` to `key` at script position `pos`.
    pub fn record_write(&mut self, pos: u64, key: u64, val: u64) {
        self.writes.entry(key).or_default().push((pos, val));
    }

    /// Acknowledge `key = val` as durable at script position `pos`.
    pub fn ack(&mut self, key: u64, pos: u64, val: u64, buggy: bool) {
        self.acked.insert(key, (pos, val));
        if buggy {
            self.buggy.insert(key);
        } else {
            self.buggy.remove(&key);
        }
    }

    /// Withdraw the durability acknowledgement for `key` (a delete).
    pub fn unack(&mut self, key: u64) {
        self.acked.remove(&key);
        self.buggy.remove(&key);
    }

    /// Every key that was ever written.
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.writes.keys().copied()
    }

    /// Was `val` ever written to `key`?
    pub fn was_written(&self, key: u64, val: u64) -> bool {
        self.writes.get(&key).is_some_and(|h| h.iter().any(|&(_, v)| v == val))
    }

    /// Was `val` written to `key` at script position `pos` or later?
    /// (A recovered value older than the last acked update is a rollback
    /// past an acknowledgement; one at or after it is legal eviction
    /// nondeterminism.)
    pub fn written_at_or_after(&self, key: u64, pos: u64, val: u64) -> bool {
        self.writes.get(&key).is_some_and(|h| h.iter().any(|&(p, v)| p >= pos && v == val))
    }

    /// The last acknowledged (position, value) per key.
    pub fn acked(&self) -> &std::collections::HashMap<u64, (u64, u64)> {
        &self.acked
    }

    /// Is `key`'s latest acked update attributable to the injected bug?
    pub fn is_buggy(&self, key: u64) -> bool {
        self.buggy.contains(&key)
    }

    /// Did any key's latest acked update use the buggy path?
    pub fn any_buggy(&self) -> bool {
        !self.buggy.is_empty()
    }

    /// The (key, value) pairs written to an acked key both before its ack
    /// position and at or after it, sorted. For such a value the
    /// rollback oracle's verdict flips when the later write lands,
    /// although neither the pool image nor [`OpHistory::digest`] need
    /// change.
    pub fn rewritten_across_ack(&self) -> Vec<(u64, u64)> {
        let mut pairs: Vec<(u64, u64)> = Vec::new();
        for (&key, &(pos, _)) in &self.acked {
            let Some(writes) = self.writes.get(&key) else { continue };
            for &(p, v) in writes {
                if p >= pos && writes.iter().any(|&(q, w)| q < pos && w == v) {
                    pairs.push((key, v));
                }
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    }

    /// Order-independent digest of the oracle-relevant state: the acked
    /// map plus the buggy-key set. Two crash points with equal pool-image
    /// hashes *and* equal history digests validate identically, so the
    /// pruned explorer folds this into its equivalence-class key.
    pub fn digest(&self) -> u64 {
        let mut acked: Vec<(u64, u64, u64)> =
            self.acked.iter().map(|(&k, &(p, v))| (k, p, v)).collect();
        acked.sort_unstable();
        let mut buggy: Vec<u64> = self.buggy.iter().copied().collect();
        buggy.sort_unstable();
        let mut stream = Vec::with_capacity(acked.len() * 3 + buggy.len() + 1);
        for (k, p, v) in acked {
            stream.extend_from_slice(&[k, p, v]);
        }
        stream.push(0xB06_D16E57);
        stream.extend_from_slice(&buggy);
        crate::recovery::checksum(0xD16E57, &stream)
    }
}

#[cfg(test)]
mod history_tests {
    use super::*;

    #[test]
    fn sweep_script_is_deterministic_and_barriered() {
        let a = sweep_script(3, 24);
        assert_eq!(a, sweep_script(3, 24));
        assert!(a.iter().any(|op| matches!(op, ScriptOp::Barrier)));
        assert!(a.len() > 24, "barriers ride along with the steps");
        assert_ne!(a, sweep_script(4, 24), "seed changes the script");
    }

    #[test]
    fn history_tracks_acks_positions_and_bug_paths() {
        let mut h = OpHistory::default();
        h.record_write(0, 1, 10);
        h.record_write(2, 1, 20);
        h.ack(1, 2, 20, false);
        assert!(h.was_written(1, 10) && h.was_written(1, 20));
        assert!(!h.was_written(1, 30));
        assert!(h.written_at_or_after(1, 2, 20));
        assert!(!h.written_at_or_after(1, 1, 10), "value 10 was only written before position 1");
        assert_eq!(h.acked().get(&1), Some(&(2, 20)));
        assert!(!h.any_buggy());

        h.ack(1, 3, 30, true);
        assert!(h.is_buggy(1) && h.any_buggy());
        h.ack(1, 4, 40, false);
        assert!(!h.is_buggy(1), "a clean ack clears the bug mark");
        h.unack(1);
        assert!(h.acked().is_empty());
    }

    #[test]
    fn digest_is_order_independent_and_state_sensitive() {
        let mut a = OpHistory::default();
        a.ack(1, 5, 10, false);
        a.ack(2, 6, 20, true);
        let mut b = OpHistory::default();
        b.ack(2, 6, 20, true);
        b.ack(1, 5, 10, false);
        assert_eq!(a.digest(), b.digest(), "insertion order must not matter");
        // Writes are deliberately excluded from the digest (they only grow
        // monotonically and the explorer handles them separately).
        b.record_write(9, 9, 9);
        assert_eq!(a.digest(), b.digest());
        b.ack(1, 7, 10, false);
        assert_ne!(a.digest(), b.digest(), "ack position is part of the digest");
    }
}

/// Per-client context handed through the benchmark driver.
pub struct ClientCtx<'t> {
    pub id: usize,
    pub tracker: &'t dyn crate::tracker::Tracker,
    pub strand: Option<nvm_runtime::StrandId>,
}

/// An application measurable by [`run_bench`].
pub trait BenchApp: Sync {
    /// Populate `keyspace` keys before measurement.
    fn preload(&self, keyspace: u64);
    /// Execute one client operation.
    fn client_op(&self, ctx: &ClientCtx<'_>, kind: OpKind, key: u64);
    /// Called after every `batch` operations of a client (epoch close,
    /// etc.).
    fn batch_end(&self, _ctx: &ClientCtx<'_>) {}
}

/// Run `clients` threads, each executing `ops_per_client` operations of
/// `spec` against `app`, with per-client instrumentation regions.
pub fn run_bench(
    app: &(impl BenchApp + ?Sized),
    spec: WorkloadSpec,
    clients: usize,
    ops_per_client: u64,
    keyspace: u64,
    tracker: &dyn crate::tracker::Tracker,
    batch: u64,
) -> Throughput {
    run_bench_with(
        app,
        spec,
        clients,
        ops_per_client,
        keyspace,
        tracker,
        batch,
        std::time::Duration::ZERO,
    )
}

/// [`run_bench`] with a per-request processing cost: real servers spend
/// microseconds per request on protocol parsing, dispatch, and networking
/// (the memslap/redis-benchmark/YCSB clients of Table 6 measure whole
/// requests); `request_cost` models that work so instrumentation overhead
/// is measured against a realistic denominator.
#[allow(clippy::too_many_arguments)]
pub fn run_bench_with(
    app: &(impl BenchApp + ?Sized),
    spec: WorkloadSpec,
    clients: usize,
    ops_per_client: u64,
    keyspace: u64,
    tracker: &dyn crate::tracker::Tracker,
    batch: u64,
    request_cost: std::time::Duration,
) -> Throughput {
    app.preload(keyspace);
    let start = std::time::Instant::now();
    std::thread::scope(|s| {
        for id in 0..clients {
            s.spawn(move || {
                let strand = tracker.region_begin();
                let ctx = ClientCtx { id, tracker, strand };
                let mut stream = OpStream::new(spec, keyspace, id as u64);
                let mut in_batch = 0u64;
                for _ in 0..ops_per_client {
                    let (kind, key) = stream.next_op();
                    if request_cost > std::time::Duration::ZERO {
                        let t0 = std::time::Instant::now();
                        while t0.elapsed() < request_cost {
                            std::hint::spin_loop();
                        }
                    }
                    app.client_op(&ctx, kind, key);
                    in_batch += 1;
                    if in_batch >= batch {
                        app.batch_end(&ctx);
                        in_batch = 0;
                    }
                }
                if in_batch > 0 {
                    app.batch_end(&ctx);
                }
                if let Some(strand) = strand {
                    tracker.region_end(strand);
                }
            });
        }
    });
    Throughput { ops: clients as u64 * ops_per_client, elapsed: start.elapsed() }
}

/// Configuration for the multi-strand concurrent-DS driver ([`ds_driver`]).
#[derive(Debug, Clone, Copy)]
pub struct DsDriverSpec {
    pub kind: crate::ds::DsKind,
    pub bug: Option<crate::ds::DsBug>,
    /// Producer/consumer strands (capped by the per-client checkpoint
    /// slots).
    pub threads: usize,
    pub ops_per_thread: u64,
    /// Percentage of operations that are adds (the rest remove).
    pub add_pct: u8,
    /// Contention knob: operations draw keys/values from `1..=key_range`,
    /// so a smaller range means more CAS conflicts on the same words.
    pub key_range: u64,
    pub seed: u64,
}

impl DsDriverSpec {
    pub fn new(kind: crate::ds::DsKind, bug: Option<crate::ds::DsBug>) -> DsDriverSpec {
        DsDriverSpec {
            kind,
            bug,
            threads: 4,
            ops_per_thread: 64,
            add_pct: 70,
            key_range: 8,
            seed: 0xD5,
        }
    }
}

/// Run `threads` concurrent strands against one structure instance, each
/// thread a tracker region executing a deterministic per-seed op stream
/// (thread interleaving varies; each thread's operations do not). Returns
/// the measured throughput; strand WAW/RAW dependences land in `tracker`.
pub fn ds_driver(spec: &DsDriverSpec, tracker: &dyn crate::tracker::Tracker) -> Throughput {
    use rand::{Rng, SeedableRng};
    assert!(spec.threads as u64 <= crate::ds::CHECKPOINT_SLOTS, "one checkpoint slot per client");
    let pool = nvm_runtime::PmemPool::new(nvm_runtime::PoolConfig {
        size: 1 << 22,
        shards: 8,
        ..Default::default()
    });
    let heap = nvm_runtime::PmemHeap::open(&pool);
    let inst = crate::ds::DsInstance::create(spec.kind, spec.bug, &heap);
    let batch = spec.kind.batch();
    let start = std::time::Instant::now();
    std::thread::scope(|s| {
        for id in 0..spec.threads {
            let inst = &inst;
            s.spawn(move || {
                let strand = tracker.region_begin();
                let mut rng = rand::rngs::StdRng::seed_from_u64(spec.seed ^ (id as u64) << 32);
                for i in 0..spec.ops_per_thread {
                    let key = 1 + rng.gen_range(0..spec.key_range);
                    let op = if rng.gen_range(0..100u8) < spec.add_pct {
                        crate::ds::DsOp::Add(key)
                    } else {
                        crate::ds::DsOp::Remove(key)
                    };
                    let seq = i + 1;
                    inst.apply(op, tracker, strand, id as u64, seq);
                    if seq.is_multiple_of(batch) {
                        inst.batch_end(tracker, strand, id as u64, seq);
                    }
                }
                if !spec.ops_per_thread.is_multiple_of(batch) {
                    inst.batch_end(tracker, strand, id as u64, spec.ops_per_thread);
                }
                if let Some(strand) = strand {
                    tracker.region_end(strand);
                }
            });
        }
    });
    Throughput { ops: spec.threads as u64 * spec.ops_per_thread, elapsed: start.elapsed() }
}

#[cfg(test)]
mod ds_driver_tests {
    use super::*;
    use crate::ds::{DsBug, DsKind};
    use crate::tracker::DeepMcTracker;

    #[test]
    fn clean_variants_report_no_strand_dependences() {
        for kind in DsKind::ALL {
            let t = DeepMcTracker::new();
            let out = ds_driver(&DsDriverSpec::new(kind, None), &t);
            assert_eq!(out.ops, 4 * 64);
            assert!(
                t.reports().is_empty(),
                "{}: clean run must be race-free, got {:?}",
                kind.name(),
                t.reports()
            );
        }
    }

    #[test]
    fn strand_race_variants_are_caught_by_the_detector() {
        for kind in DsKind::ALL {
            let t = DeepMcTracker::new();
            let mut spec = DsDriverSpec::new(kind, Some(DsBug::StrandRace));
            // High contention over two keys makes the unsynchronized
            // persists collide quickly.
            spec.key_range = 2;
            ds_driver(&spec, &t);
            assert!(!t.reports().is_empty(), "{}: unannotated persists must race", kind.name());
        }
    }
}
