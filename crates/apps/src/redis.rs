//! Mini-Redis: the PMDK-port style of the paper's evaluation — strict
//! persistency with an append-only file (AOF) in persistent memory: every
//! mutating command first appends a durable log entry (write + flush +
//! fence), then applies the update to the keyspace record (write + flush +
//! fence). This is the highest-fence-rate application of the three.

use crate::recovery::{checksum, on_failed_line, RecoveryReport, REDIS_AOF_SALT};
use crate::store::{PersistStyle, PmKv};
use crate::tracker::{NoopTracker, Tracker};
use crate::workloads::{BenchApp, ClientCtx, OpKind};
use nvm_runtime::{PAddr, PmemHeap, PmemPool, StrandId};
use parking_lot::Mutex;

/// One AOF entry: op(8) | key(8) | value(8) | seq(8) | sum(8) = 40 bytes
/// used, padded to one cache line so a torn store never straddles entries.
const AOF_ENTRY: u64 = 64;
/// Bytes actually written per entry.
const AOF_USED: u64 = 40;

fn aof_sum(op: u64, key: u64, value: u64, seq: u64) -> u64 {
    checksum(REDIS_AOF_SALT, &[op, key, value, seq])
}
/// Lock id used for the AOF (distinct from PmKv shard ids, which are small).
const AOF_LOCK: u64 = u64::MAX;

struct Aof {
    base: PAddr,
    capacity: u64,
    cursor: u64,
    seq: u64,
}

/// The application.
pub struct Redis<'p> {
    pool: &'p PmemPool,
    kv: PmKv<'p>,
    aof: Mutex<Aof>,
}

impl<'p> Redis<'p> {
    /// `aof_capacity` bytes of the pool are reserved for the log. The AOF
    /// base is stored as the heap's durable root so [`Redis::recover`] can
    /// find it after a crash.
    pub fn new(
        pool: &'p PmemPool,
        heap: &'p PmemHeap<'p>,
        shards: usize,
        aof_capacity: u64,
    ) -> Redis<'p> {
        let base = heap.alloc(aof_capacity);
        assert!(!base.is_null(), "pool too small for the AOF");
        // Zero the first entry slot so recovery can find the log tail, and
        // publish the base durably.
        pool.write(base, &[0u8; AOF_ENTRY as usize]);
        pool.persist(base, AOF_ENTRY);
        heap.set_root(base);
        Redis {
            pool,
            kv: PmKv::new(pool, heap, PersistStyle::Strict, shards),
            aof: Mutex::new(Aof { base, capacity: aof_capacity, cursor: 0, seq: 0 }),
        }
    }

    /// Post-crash recovery: replay the durable AOF into a fresh keyspace.
    /// The AOF is the source of truth (as in real Redis): every mutating
    /// command was durably appended *before* it was applied, so replaying
    /// the committed prefix reconstructs exactly the acknowledged state.
    /// Entries whose checksum fails (torn append) or whose line errors at
    /// the media level are scrubbed and dropped — they were never
    /// acknowledged durably intact.
    ///
    /// The log is read once, with [`PmemPool::read_lines`], and parsed
    /// from that buffer. Only the log is replayed, so once the ring has
    /// wrapped, a key whose last write is more than one ring capacity old
    /// is lost (the sweep scripts write 16 keys, far below the 1,024-entry
    /// ring).
    pub fn recover(
        pool: &'p PmemPool,
        heap: &'p PmemHeap<'p>,
        shards: usize,
        aof_capacity: u64,
    ) -> (Redis<'p>, RecoveryReport) {
        let base = heap.root();
        assert!(!base.is_null(), "no AOF root: pool was never a Redis pool");
        let mut log = vec![0u8; (aof_capacity / AOF_ENTRY * AOF_ENTRY) as usize];
        let failed = pool.read_lines(base, &mut log).expect("the AOF lies inside the pool");
        // Collect entries in seq order (op 0 = empty slot). Ring wrap is
        // handled by sorting on seq.
        let mut report = RecoveryReport::default();
        let mut entries: Vec<(u64, u64, u64, u64)> = Vec::new(); // (seq, op, key, val)
        for (slot, bytes) in log.chunks_exact(AOF_ENTRY as usize).enumerate() {
            let at = base.offset(slot as u64 * AOF_ENTRY);
            let scrub = if on_failed_line(&failed, at, AOF_USED) {
                report.scanned += 1;
                report.poisoned_dropped += 1;
                true
            } else {
                let word =
                    |i: usize| u64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().unwrap());
                let (op, key, val, seq, sum) = (word(0), word(1), word(2), word(3), word(4));
                if op == 0 {
                    false
                } else if sum == aof_sum(op, key, val, seq) {
                    report.scanned += 1;
                    report.adopted += 1;
                    entries.push((seq, op, key, val));
                    false
                } else {
                    report.scanned += 1;
                    report.torn_dropped += 1;
                    true
                }
            };
            if scrub {
                pool.write(at, &[0u8; AOF_ENTRY as usize]);
                pool.persist(at, AOF_ENTRY);
            }
        }
        entries.sort_unstable();
        let kv = PmKv::new(pool, heap, PersistStyle::Strict, shards);
        let next_seq = entries.last().map(|e| e.0 + 1).unwrap_or(0);
        let cursor = (next_seq * AOF_ENTRY) % aof_capacity;
        for (_, op, key, val) in &entries {
            match op {
                1 => {
                    kv.set(*key, *val, &NoopTracker, None);
                }
                2 => {
                    // INCRBY on a missing key seeds it with the delta.
                    let incremented = kv.rmw(*key, |v| v.wrapping_add(*val), &NoopTracker, None);
                    if incremented.is_none() {
                        kv.set(*key, *val, &NoopTracker, None);
                    }
                }
                3 => {
                    kv.delete(*key, &NoopTracker, None);
                }
                _ => {}
            }
        }
        let redis = Redis {
            pool,
            kv,
            aof: Mutex::new(Aof { base, capacity: aof_capacity, cursor, seq: next_seq }),
        };
        (redis, report)
    }

    /// Durably append one AOF record (op, key, value).
    fn aof_append(&self, op: u64, key: u64, value: u64, t: &dyn Tracker, strand: Option<StrandId>) {
        self.aof_append_inner(op, key, value, t, strand, true);
    }

    /// [`Self::aof_append`] with the persist made optional so the crash
    /// sweep can inject Redis's ground-truth bug: `persist = false` leaves
    /// the entry's cache line merely dirty (no `clwb`/`sfence`), the
    /// missing-persist-before-publish pattern of Table 2.
    fn aof_append_inner(
        &self,
        op: u64,
        key: u64,
        value: u64,
        t: &dyn Tracker,
        strand: Option<StrandId>,
        persist: bool,
    ) {
        let mut aof = self.aof.lock();
        if t.enabled() {
            t.lock_acquire(strand, AOF_LOCK);
        }
        if aof.cursor + AOF_ENTRY > aof.capacity {
            aof.cursor = 0; // ring: rewrite from the start (compaction elided)
        }
        let at = aof.base.offset(aof.cursor);
        let mut bytes = [0u8; AOF_USED as usize];
        bytes[..8].copy_from_slice(&op.to_le_bytes());
        bytes[8..16].copy_from_slice(&key.to_le_bytes());
        bytes[16..24].copy_from_slice(&value.to_le_bytes());
        bytes[24..32].copy_from_slice(&aof.seq.to_le_bytes());
        bytes[32..40].copy_from_slice(&aof_sum(op, key, value, aof.seq).to_le_bytes());
        self.pool.write(at, &bytes);
        if t.enabled() {
            t.access(strand, at.0, AOF_USED, true);
        }
        if persist {
            self.pool.persist(at, AOF_USED);
        }
        aof.cursor += AOF_ENTRY;
        aof.seq += 1;
        if t.enabled() {
            t.lock_release(strand, AOF_LOCK);
        }
    }

    /// `SET key value`.
    pub fn set(&self, key: u64, value: u64, t: &dyn Tracker, strand: Option<StrandId>) {
        self.aof_append(1, key, value, t, strand);
        self.kv.set(key, value, t, strand);
    }

    /// **Seeded bug**: `SET` whose AOF entry is written but never
    /// persisted — the ack races the flush that was never issued. A crash
    /// before some later append's fence silently loses the update. Only
    /// the crash sweep's ground-truth injection calls this.
    pub fn set_skip_aof_persist(
        &self,
        key: u64,
        value: u64,
        t: &dyn Tracker,
        strand: Option<StrandId>,
    ) {
        self.aof_append_inner(1, key, value, t, strand, false);
        self.kv.set(key, value, t, strand);
    }

    /// `GET key`.
    pub fn get(&self, key: u64, t: &dyn Tracker, strand: Option<StrandId>) -> Option<u64> {
        self.kv.get(key, t, strand)
    }

    /// `INCR key`.
    pub fn incr(&self, key: u64, t: &dyn Tracker, strand: Option<StrandId>) -> Option<u64> {
        self.aof_append(2, key, 1, t, strand);
        self.kv.rmw(key, |v| v.wrapping_add(1), t, strand)
    }

    /// `DEL key`.
    pub fn del(&self, key: u64, t: &dyn Tracker, strand: Option<StrandId>) -> bool {
        self.aof_append(3, key, 0, t, strand);
        self.kv.delete(key, t, strand)
    }

    /// AOF records appended so far.
    pub fn aof_len(&self) -> u64 {
        self.aof.lock().seq
    }

    pub fn len(&self) -> usize {
        self.kv.len()
    }

    pub fn is_empty(&self) -> bool {
        self.kv.is_empty()
    }
}

impl BenchApp for Redis<'_> {
    fn preload(&self, keyspace: u64) {
        for k in 0..keyspace {
            self.kv.set(k, k, &NoopTracker, None);
        }
    }

    fn client_op(&self, ctx: &ClientCtx<'_>, kind: OpKind, key: u64) {
        match kind {
            OpKind::Read | OpKind::Scan => {
                self.get(key, ctx.tracker, ctx.strand);
            }
            OpKind::Update | OpKind::Insert => {
                self.set(key, key ^ 0xABCD, ctx.tracker, ctx.strand);
            }
            OpKind::ReadModifyWrite => {
                self.incr(key, ctx.tracker, ctx.strand);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracker::DeepMcTracker;
    use crate::workloads::{redis_benchmark_suite, run_bench};
    use nvm_runtime::{CrashPolicy, PoolConfig};

    fn pool() -> PmemPool {
        PmemPool::new(PoolConfig { size: 32 << 20, shards: 16, ..Default::default() })
    }

    #[test]
    fn commands_roundtrip() {
        let p = pool();
        let heap = PmemHeap::open(&p);
        let r = Redis::new(&p, &heap, 8, 1 << 20);
        r.set(1, 100, &NoopTracker, None);
        assert_eq!(r.get(1, &NoopTracker, None), Some(100));
        assert_eq!(r.incr(1, &NoopTracker, None), Some(101));
        assert!(r.del(1, &NoopTracker, None));
        assert_eq!(r.get(1, &NoopTracker, None), None);
        assert_eq!(r.aof_len(), 3);
    }

    #[test]
    fn strict_style_leaves_nothing_pending() {
        let p = pool();
        let heap = PmemHeap::open(&p);
        let r = Redis::new(&p, &heap, 8, 1 << 20);
        for k in 0..100 {
            r.set(k, k * 3, &NoopTracker, None);
        }
        assert_eq!(p.non_durable_lines(), 0, "every command fenced");
        // And the AOF survives a crash.
        let img = CrashPolicy::Pessimistic.apply(&p);
        let aof_base = {
            let aof = r.aof.lock();
            aof.base
        };
        let first_key = img.read_u64(aof_base.offset(8));
        assert_eq!(first_key, 0, "first SET logged durably");
        let op = img.read_u64(aof_base);
        assert_eq!(op, 1);
    }

    #[test]
    fn benchmark_suite_runs() {
        let p = pool();
        let heap = PmemHeap::open(&p);
        let r = Redis::new(&p, &heap, 16, 4 << 20);
        for spec in redis_benchmark_suite() {
            let tp = run_bench(&r, spec, 8, 500, 512, &NoopTracker, u64::MAX);
            assert_eq!(tp.ops, 4_000, "{}", spec.name);
        }
    }

    #[test]
    fn instrumented_suite_reports_nothing_on_correct_app() {
        let p = pool();
        let heap = PmemHeap::open(&p);
        let r = Redis::new(&p, &heap, 16, 4 << 20);
        let tracker = DeepMcTracker::new();
        run_bench(&r, redis_benchmark_suite()[0], 8, 500, 512, &tracker, u64::MAX);
        assert!(tracker.reports().is_empty(), "{:?}", tracker.reports().first());
    }

    #[test]
    fn recovery_replays_the_aof() {
        let p = pool();
        {
            let heap = PmemHeap::open(&p);
            let r = Redis::new(&p, &heap, 8, 1 << 20);
            r.set(1, 100, &NoopTracker, None);
            r.set(2, 200, &NoopTracker, None);
            r.incr(1, &NoopTracker, None);
            r.del(2, &NoopTracker, None);
            r.set(3, 300, &NoopTracker, None);
        }
        // Crash with nothing un-fenced surviving, reboot, recover.
        let img = CrashPolicy::Pessimistic.apply(&p);
        let p2 = img.reboot(8);
        let heap2 = PmemHeap::open(&p2);
        let (r2, report) = Redis::recover(&p2, &heap2, 8, 1 << 20);
        assert_eq!(report.adopted, 5);
        assert_eq!(report.dropped(), 0, "clean crash tears nothing");
        assert_eq!(r2.get(1, &NoopTracker, None), Some(101));
        assert_eq!(r2.get(2, &NoopTracker, None), None);
        assert_eq!(r2.get(3, &NoopTracker, None), Some(300));
        assert_eq!(r2.aof_len(), 5, "sequence continues after recovery");
        // And the store keeps working.
        r2.set(4, 400, &NoopTracker, None);
        assert_eq!(r2.get(4, &NoopTracker, None), Some(400));
    }

    #[test]
    fn recovery_mid_crash_preserves_logged_prefix() {
        // Crash immediately after the AOF append of a SET but before the
        // record update: recovery must still surface the SET (it was
        // durably logged — that is the acknowledgement point).
        let p = pool();
        {
            let heap = PmemHeap::open(&p);
            let r = Redis::new(&p, &heap, 8, 1 << 20);
            r.set(7, 70, &NoopTracker, None);
            // Simulate the torn second half of another SET: append only.
            r.aof_append(1, 8, 80, &NoopTracker, None);
        }
        let img = CrashPolicy::Pessimistic.apply(&p);
        let p2 = img.reboot(8);
        let heap2 = PmemHeap::open(&p2);
        let (r2, _) = Redis::recover(&p2, &heap2, 8, 1 << 20);
        assert_eq!(r2.get(7, &NoopTracker, None), Some(70));
        assert_eq!(r2.get(8, &NoopTracker, None), Some(80), "logged SET replayed");
    }

    #[test]
    fn aof_ring_wraps() {
        let p = pool();
        let heap = PmemHeap::open(&p);
        let r = Redis::new(&p, &heap, 8, 1024); // 32 entries
        for k in 0..100 {
            r.set(k, k, &NoopTracker, None);
        }
        assert_eq!(r.aof_len(), 100, "sequence keeps counting across wraps");
    }
}
