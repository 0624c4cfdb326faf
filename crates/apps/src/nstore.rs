//! Mini-NStore: the low-level transactional relational store of the
//! paper's evaluation (nstore uses hand-rolled persistence primitives, no
//! framework). Each YCSB transaction is write-ahead logged: the WAL entry
//! is persisted, the tuple is updated in place and persisted, then the WAL
//! entry is durably marked committed — three fences per write transaction.

use crate::recovery::{checksum, on_failed_line, RecoveryReport, NSTORE_WAL_SALT};
use crate::store::fresh_version;
use crate::tracker::{NoopTracker, Tracker};
use crate::workloads::{BenchApp, ClientCtx, OpKind};
use nvm_runtime::{PAddr, PmemHeap, PmemPool, StrandId};
use parking_lot::Mutex;
use std::collections::HashMap;

/// Tuple: key(8) | 4 columns (32) | version(8) = 48 bytes, one line.
pub const TUPLE_BYTES: u64 = 64;
/// WAL entry: state|seq(8) | key(8) | col0..col3 (32) | sum(8) = 56 bytes,
/// one line. `sum` covers the payload (key, cols) only, so the later
/// commit-mark store leaves it valid.
const WAL_ENTRY: u64 = 64;
/// Bytes actually written per entry.
const WAL_USED: u64 = 56;
const WAL_LOCK: u64 = u64::MAX - 1;
/// Entry states, in the low byte of the state word. The upper bytes hold
/// the entry's sequence number, which orders the redo once the ring has
/// wrapped; the commit mark rewrites only the low byte's value.
const ACTIVE: u64 = 1;
const COMMITTED: u64 = 2;

fn state_word(state: u64, seq: u64) -> u64 {
    state | seq << 8
}

fn wal_sum(key: u64, cols: [u64; 4]) -> u64 {
    checksum(NSTORE_WAL_SALT, &[key, cols[0], cols[1], cols[2], cols[3]])
}

struct Wal {
    base: PAddr,
    capacity: u64,
    cursor: u64,
    /// Sequence number of the next entry.
    seq: u64,
}

/// The application.
pub struct NStore<'p> {
    pool: &'p PmemPool,
    heap: &'p PmemHeap<'p>,
    index: Vec<Mutex<HashMap<u64, PAddr>>>,
    mask: u64,
    wal: Mutex<Wal>,
}

impl<'p> NStore<'p> {
    pub fn new(
        pool: &'p PmemPool,
        heap: &'p PmemHeap<'p>,
        shards: usize,
        wal_capacity: u64,
    ) -> NStore<'p> {
        let n = shards.max(1).next_power_of_two();
        let base = heap.alloc(wal_capacity);
        assert!(!base.is_null(), "pool too small for the WAL");
        pool.write(base, &[0u8; WAL_ENTRY as usize]);
        pool.persist(base, WAL_ENTRY);
        heap.set_root(base);
        NStore {
            pool,
            heap,
            index: (0..n).map(|_| Mutex::new(HashMap::new())).collect(),
            mask: n as u64 - 1,
            wal: Mutex::new(Wal { base, capacity: wal_capacity, cursor: 0, seq: 0 }),
        }
    }

    /// Post-crash recovery: redo the committed WAL entries into a fresh
    /// table, in sequence order. ACTIVE entries (state 1) were never
    /// acknowledged — their tuples may be torn — and are discarded, which
    /// is exactly the guarantee the commit mark exists to give. Committed
    /// entries whose payload checksum fails (torn append that still got
    /// its commit mark — only possible with fault injection or an
    /// injected bug) and entries on poisoned lines are likewise discarded,
    /// with counts, and scrubbed so later passes (and the ring cursor) see
    /// a clean slot.
    ///
    /// The WAL is read once, with [`PmemPool::read_lines`], and parsed
    /// from that buffer; the redo's own appends come after the scan. Only
    /// the WAL is redone, so once the ring has wrapped, a key whose last
    /// write is more than one ring capacity old is lost (the sweep
    /// scripts write 16 keys, far below the 1,024-entry ring).
    pub fn recover(
        pool: &'p PmemPool,
        heap: &'p PmemHeap<'p>,
        shards: usize,
        wal_capacity: u64,
    ) -> (NStore<'p>, RecoveryReport) {
        let base = heap.root();
        assert!(!base.is_null(), "no WAL root: pool was never an NStore pool");
        let n = shards.max(1).next_power_of_two();
        let db = NStore {
            pool,
            heap,
            index: (0..n).map(|_| Mutex::new(HashMap::new())).collect(),
            mask: n as u64 - 1,
            wal: Mutex::new(Wal { base, capacity: wal_capacity, cursor: 0, seq: 0 }),
        };
        let mut log = vec![0u8; (wal_capacity / WAL_ENTRY * WAL_ENTRY) as usize];
        let failed = pool.read_lines(base, &mut log).expect("the WAL lies inside the pool");
        let mut report = RecoveryReport::default();
        let mut committed: Vec<(u64, u64, [u64; 4])> = Vec::new(); // (seq, key, cols)
        let mut last_used = 0;
        for (slot, bytes) in log.chunks_exact(WAL_ENTRY as usize).enumerate() {
            let at = base.offset(slot as u64 * WAL_ENTRY);
            let scrub = || {
                pool.write(at, &[0u8; WAL_ENTRY as usize]);
                pool.persist(at, WAL_ENTRY);
            };
            if on_failed_line(&failed, at, WAL_USED) {
                report.scanned += 1;
                report.poisoned_dropped += 1;
                scrub();
                continue;
            }
            let word = |i: usize| u64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().unwrap());
            let state = word(0);
            if state & 0xff == COMMITTED {
                report.scanned += 1;
                let key = word(1);
                let cols = [word(2), word(3), word(4), word(5)];
                if word(6) == wal_sum(key, cols) {
                    report.adopted += 1;
                    committed.push((state >> 8, key, cols));
                } else {
                    report.torn_dropped += 1;
                    scrub();
                }
            } else if state != 0 {
                report.scanned += 1;
            }
            if state != 0 {
                last_used = (slot as u64 + 1) * WAL_ENTRY;
            }
        }
        // Redo in sequence order, logging past the largest surviving one.
        committed.sort_unstable();
        db.wal.lock().seq = committed.last().map_or(0, |&(seq, ..)| seq + 1);
        for (_, key, cols) in committed {
            db.put(key, cols, &NoopTracker, None);
        }
        db.wal.lock().cursor = last_used % wal_capacity;
        (db, report)
    }

    fn lock_id(&self, key: u64) -> u64 {
        key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56 & self.mask
    }

    /// Durable WAL append; returns the entry's address and sequence number
    /// for the commit mark.
    fn wal_append(
        &self,
        key: u64,
        cols: [u64; 4],
        t: &dyn Tracker,
        strand: Option<StrandId>,
    ) -> (PAddr, u64) {
        let mut wal = self.wal.lock();
        if t.enabled() {
            t.lock_acquire(strand, WAL_LOCK);
        }
        if wal.cursor + WAL_ENTRY > wal.capacity {
            wal.cursor = 0;
        }
        let at = wal.base.offset(wal.cursor);
        let seq = wal.seq;
        wal.cursor += WAL_ENTRY;
        wal.seq += 1;
        let mut bytes = [0u8; WAL_USED as usize];
        bytes[..8].copy_from_slice(&state_word(ACTIVE, seq).to_le_bytes());
        bytes[8..16].copy_from_slice(&key.to_le_bytes());
        for (i, c) in cols.iter().enumerate() {
            bytes[16 + i * 8..24 + i * 8].copy_from_slice(&c.to_le_bytes());
        }
        bytes[48..56].copy_from_slice(&wal_sum(key, cols).to_le_bytes());
        self.pool.write(at, &bytes);
        if t.enabled() {
            t.access(strand, at.0, WAL_USED, true);
        }
        self.pool.persist(at, WAL_USED);
        if t.enabled() {
            t.lock_release(strand, WAL_LOCK);
        }
        (at, seq)
    }

    /// Durably mark WAL entry `seq` at `entry` committed.
    fn wal_commit(
        &self,
        (entry, seq): (PAddr, u64),
        t: &dyn Tracker,
        strand: Option<StrandId>,
        persist: bool,
    ) {
        if t.enabled() {
            t.lock_acquire(strand, WAL_LOCK);
        }
        self.pool.write_u64(entry, state_word(COMMITTED, seq));
        if t.enabled() {
            t.access(strand, entry.0, 8, true);
        }
        if persist {
            self.pool.persist(entry, 8);
        }
        if t.enabled() {
            t.lock_release(strand, WAL_LOCK);
        }
    }

    /// Transactionally insert or update a tuple.
    pub fn put(&self, key: u64, cols: [u64; 4], t: &dyn Tracker, strand: Option<StrandId>) {
        self.put_inner(key, cols, t, strand, true);
    }

    /// BUG INJECTION: the commit mark is written but never flushed — the
    /// missing-persist pattern of the paper's Table 2 bugs. An
    /// acknowledged transaction can vanish at the crash (the mark stays
    /// cached), or — worse under unpredictable eviction — the mark can
    /// persist while an earlier torn payload does not. The crash sweep
    /// uses this as ground truth for violation attribution.
    pub fn put_skip_commit_persist(
        &self,
        key: u64,
        cols: [u64; 4],
        t: &dyn Tracker,
        strand: Option<StrandId>,
    ) {
        self.put_inner(key, cols, t, strand, false);
    }

    fn put_inner(
        &self,
        key: u64,
        cols: [u64; 4],
        t: &dyn Tracker,
        strand: Option<StrandId>,
        persist_commit: bool,
    ) {
        let entry = self.wal_append(key, cols, t, strand);
        let lock = self.lock_id(key);
        let mut shard = self.index[lock as usize].lock();
        if t.enabled() {
            t.lock_acquire(strand, lock);
        }
        let (tuple, ver, whole_line) = match shard.get(&key) {
            Some(&a) => (a, self.pool.read_u64(a.offset(40)), false),
            None => {
                let a = self.heap.alloc(TUPLE_BYTES);
                assert!(!a.is_null(), "pool exhausted");
                shard.insert(key, a);
                let (ver, whole_line) = fresh_version(self.pool, a, 40);
                (a, ver, whole_line)
            }
        };
        let mut bytes = [0u8; TUPLE_BYTES as usize];
        bytes[..8].copy_from_slice(&key.to_le_bytes());
        for (i, c) in cols.iter().enumerate() {
            bytes[8 + i * 8..16 + i * 8].copy_from_slice(&c.to_le_bytes());
        }
        bytes[40..48].copy_from_slice(&(ver + 1).to_le_bytes());
        self.pool.write(tuple, if whole_line { &bytes } else { &bytes[..48] });
        if t.enabled() {
            t.access(strand, tuple.0, 48, true);
        }
        self.pool.persist(tuple, 48);
        if t.enabled() {
            t.lock_release(strand, lock);
        }
        drop(shard);
        self.wal_commit(entry, t, strand, persist_commit);
    }

    /// Read one column of a tuple. Reads are not instrumented (§4.4).
    pub fn read(
        &self,
        key: u64,
        col: usize,
        _t: &dyn Tracker,
        _strand: Option<StrandId>,
    ) -> Option<u64> {
        let lock = self.lock_id(key);
        let shard = self.index[lock as usize].lock();
        shard.get(&key).map(|&a| self.pool.read_u64(a.offset(8 + (col as u64 % 4) * 8)))
    }

    /// YCSB-E short scan: read `len` consecutive keys' first columns.
    pub fn scan(&self, start: u64, len: u64, t: &dyn Tracker, strand: Option<StrandId>) -> u64 {
        let mut acc: u64 = 0;
        for k in start..start + len {
            if let Some(v) = self.read(k, 0, t, strand) {
                acc = acc.wrapping_add(v);
            }
        }
        acc
    }

    /// Tuples stored.
    pub fn len(&self) -> usize {
        self.index.iter().map(|s| s.lock().len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl BenchApp for NStore<'_> {
    fn preload(&self, keyspace: u64) {
        for k in 0..keyspace {
            self.put(k, [k, k + 1, k + 2, k + 3], &NoopTracker, None);
        }
    }

    fn client_op(&self, ctx: &ClientCtx<'_>, kind: OpKind, key: u64) {
        match kind {
            OpKind::Read => {
                self.read(key, 0, ctx.tracker, ctx.strand);
            }
            OpKind::Scan => {
                self.scan(key, 4, ctx.tracker, ctx.strand);
            }
            OpKind::Update | OpKind::Insert => {
                self.put(key, [key, key, key, key], ctx.tracker, ctx.strand);
            }
            OpKind::ReadModifyWrite => {
                let v: u64 = self.read(key, 0, ctx.tracker, ctx.strand).unwrap_or(0);
                self.put(key, [v.wrapping_add(1), v, v, v], ctx.tracker, ctx.strand);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracker::DeepMcTracker;
    use crate::workloads::{run_bench, ycsb_workloads};
    use nvm_runtime::{CrashPolicy, PoolConfig};

    fn pool() -> PmemPool {
        PmemPool::new(PoolConfig { size: 64 << 20, shards: 16, ..Default::default() })
    }

    #[test]
    fn put_read_roundtrip() {
        let p = pool();
        let heap = PmemHeap::open(&p);
        let db = NStore::new(&p, &heap, 8, 1 << 20);
        db.put(7, [70, 71, 72, 73], &NoopTracker, None);
        assert_eq!(db.read(7, 0, &NoopTracker, None), Some(70));
        assert_eq!(db.read(7, 3, &NoopTracker, None), Some(73));
        assert_eq!(db.read(8, 0, &NoopTracker, None), None);
    }

    #[test]
    fn puts_are_durable() {
        let p = pool();
        let heap = PmemHeap::open(&p);
        let db = NStore::new(&p, &heap, 8, 1 << 20);
        db.put(1, [10, 11, 12, 13], &NoopTracker, None);
        assert_eq!(p.non_durable_lines(), 0);
        let img = CrashPolicy::Pessimistic.apply(&p);
        // WAL base is the first heap allocation: its first entry must be
        // committed (state 2) with the payload.
        let wal_base = PAddr(64);
        assert_eq!(img.read_u64(wal_base), 2, "commit mark durable");
        assert_eq!(img.read_u64(wal_base.offset(8)), 1, "logged key durable");
    }

    #[test]
    fn recovery_redoes_committed_transactions_only() {
        let p = pool();
        {
            let heap = PmemHeap::open(&p);
            let db = NStore::new(&p, &heap, 8, 1 << 20);
            db.put(1, [10, 11, 12, 13], &NoopTracker, None);
            db.put(2, [20, 21, 22, 23], &NoopTracker, None);
            // A torn transaction: WAL appended (ACTIVE) but never
            // committed.
            db.wal_append(3, [30, 31, 32, 33], &NoopTracker, None);
        }
        let img = CrashPolicy::Pessimistic.apply(&p);
        let p2 = img.reboot(8);
        let heap2 = PmemHeap::open(&p2);
        let (db2, report) = NStore::recover(&p2, &heap2, 8, 1 << 20);
        assert_eq!(report.adopted, 2);
        assert_eq!(report.scanned, 3, "the ACTIVE entry was seen but discarded");
        assert_eq!(report.dropped(), 0);
        assert_eq!(db2.read(1, 0, &NoopTracker, None), Some(10));
        assert_eq!(db2.read(2, 3, &NoopTracker, None), Some(23));
        assert_eq!(db2.read(3, 0, &NoopTracker, None), None, "uncommitted transaction discarded");
        // The recovered store accepts new transactions.
        db2.put(4, [40, 41, 42, 43], &NoopTracker, None);
        assert_eq!(db2.read(4, 1, &NoopTracker, None), Some(41));
    }

    #[test]
    fn recovery_redoes_a_wrapped_wal_in_sequence_order() {
        let p = pool();
        {
            let heap = PmemHeap::open(&p);
            let db = NStore::new(&p, &heap, 8, 4 * WAL_ENTRY);
            db.put(2, [20; 4], &NoopTracker, None); // slot 0
            db.put(3, [30; 4], &NoopTracker, None); // slot 1
            db.put(4, [40; 4], &NoopTracker, None); // slot 2
            db.put(1, [10; 4], &NoopTracker, None); // slot 3
                                                    // The ring wraps: key 1's newer write lands in slot 0, ahead of
                                                    // its older one, and overwrites key 2's only entry.
            db.put(1, [11; 4], &NoopTracker, None);
        }
        let img = CrashPolicy::Pessimistic.apply(&p);
        let p2 = img.reboot(8);
        let heap2 = PmemHeap::open(&p2);
        let (db2, report) = NStore::recover(&p2, &heap2, 8, 4 * WAL_ENTRY);
        assert_eq!(report.adopted, 4);
        assert_eq!(db2.read(1, 0, &NoopTracker, None), Some(11), "the newer write is redone last");
        assert_eq!(db2.read(3, 0, &NoopTracker, None), Some(30));
        assert_eq!(db2.read(4, 0, &NoopTracker, None), Some(40));
        assert_eq!(
            db2.read(2, 0, &NoopTracker, None),
            None,
            "log-only recovery loses a key last written more than one ring ago"
        );
        // The redo logged past the largest sequence number, so a write
        // after recovery still orders last in the next recovery.
        db2.put(3, [31; 4], &NoopTracker, None);
        let p3 = CrashPolicy::Pessimistic.apply(&p2).reboot(8);
        let heap3 = PmemHeap::open(&p3);
        let (db3, _) = NStore::recover(&p3, &heap3, 8, 4 * WAL_ENTRY);
        assert_eq!(db3.read(1, 0, &NoopTracker, None), Some(11));
        assert_eq!(db3.read(3, 0, &NoopTracker, None), Some(31));
        assert_eq!(db3.read(4, 0, &NoopTracker, None), Some(40));
    }

    #[test]
    fn injected_commit_bug_loses_acknowledged_transactions() {
        let p = pool();
        {
            let heap = PmemHeap::open(&p);
            let db = NStore::new(&p, &heap, 8, 1 << 20);
            db.put(1, [10, 11, 12, 13], &NoopTracker, None);
            // Buggy: acknowledged, but the commit mark is never flushed.
            db.put_skip_commit_persist(2, [20, 21, 22, 23], &NoopTracker, None);
        }
        // Pessimistic crash: the un-flushed mark reverts to ACTIVE.
        let img = CrashPolicy::Pessimistic.apply(&p);
        let p2 = img.reboot(8);
        let heap2 = PmemHeap::open(&p2);
        let (db2, _) = NStore::recover(&p2, &heap2, 8, 1 << 20);
        assert_eq!(db2.read(1, 0, &NoopTracker, None), Some(10));
        assert_eq!(
            db2.read(2, 0, &NoopTracker, None),
            None,
            "acknowledged transaction lost — the injected bug's signature"
        );
    }

    #[test]
    fn ycsb_suite_runs() {
        let p = pool();
        let heap = PmemHeap::open(&p);
        let db = NStore::new(&p, &heap, 16, 8 << 20);
        for spec in ycsb_workloads() {
            let tp = run_bench(&db, spec, 4, 300, 256, &NoopTracker, u64::MAX);
            assert_eq!(tp.ops, 1_200, "{}", spec.name);
        }
    }

    #[test]
    fn instrumented_ycsb_reports_nothing_on_correct_app() {
        let p = pool();
        let heap = PmemHeap::open(&p);
        let db = NStore::new(&p, &heap, 16, 8 << 20);
        let tracker = DeepMcTracker::new();
        run_bench(&db, ycsb_workloads()[0], 4, 300, 256, &tracker, u64::MAX);
        assert!(tracker.reports().is_empty(), "{:?}", tracker.reports().first());
        assert!(tracker.shadow_cells() > 0);
    }
}
