//! Undo-log durable transactions (the `TX_BEGIN`/`TX_ADD`/commit model of
//! PMDK, `nvm_txbegin` of NVM-Direct, `pmfs_new_transaction` of PMFS).
//!
//! The undo log lives *in the pool*, so crash simulation exercises the real
//! recovery path:
//!
//! 1. `begin` durably marks the log ACTIVE.
//! 2. `add(addr, len)` appends the *old* bytes of the range to the log and
//!    persists the entry before the caller overwrites the range (undo
//!    logging requires log-before-modify, which is why PMDK programs call
//!    `TX_ADD` first — and why modifying without logging, Fig. 2 of the
//!    paper, loses updates).
//! 3. `commit` flushes every added range (the new values), fences, then
//!    durably marks the log IDLE.
//! 4. After a crash, [`TxManager::recover`] rolls back any ACTIVE log by
//!    restoring the logged old bytes.
//!
//! Nested `begin`s flatten into the outermost transaction (PMDK behaviour).

use crate::pool::{PAddr, PmemPool};
use parking_lot::Mutex;

const ST_IDLE: u64 = 0;
const ST_ACTIVE: u64 = 1;

const OFF_STATE: u64 = 0;
const OFF_COUNT: u64 = 8;
const OFF_ENTRIES: u64 = 64;

/// Per-entry header: target address + length, then the old bytes.
const ENTRY_HDR: u64 = 16;

/// A transaction manager bound to a log region inside the pool.
pub struct TxManager<'p> {
    pool: &'p PmemPool,
    log_base: PAddr,
    log_cap: u64,
    inner: Mutex<TxInner>,
}

#[derive(Default)]
struct TxInner {
    depth: u32,
    /// Byte offset past the last log entry (within the entry region).
    cursor: u64,
    /// Ranges added this transaction, to flush at commit.
    ranges: Vec<(PAddr, u64)>,
    entries: u64,
}

/// RAII-free transaction handle view. (The manager itself owns the state;
/// the handle only documents scope in user code.)
pub struct Tx;

/// Error for log-capacity overflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogFull;

impl std::fmt::Display for LogFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "transaction undo log is full")
    }
}

impl std::error::Error for LogFull {}

impl<'p> TxManager<'p> {
    /// Bind a manager to a log region `[log_base, log_base + log_cap)`
    /// (allocate it from the heap). The region is formatted to IDLE.
    pub fn new(pool: &'p PmemPool, log_base: PAddr, log_cap: u64) -> TxManager<'p> {
        assert!(log_cap > OFF_ENTRIES + ENTRY_HDR, "log region too small");
        pool.write_u64(log_base.offset(OFF_STATE), ST_IDLE);
        pool.write_u64(log_base.offset(OFF_COUNT), 0);
        pool.persist(log_base, 16);
        TxManager { pool, log_base, log_cap, inner: Mutex::new(TxInner::default()) }
    }

    /// Attach to an existing log region without reformatting (for
    /// recovery).
    pub fn attach(pool: &'p PmemPool, log_base: PAddr, log_cap: u64) -> TxManager<'p> {
        TxManager { pool, log_base, log_cap, inner: Mutex::new(TxInner::default()) }
    }

    /// Begin a transaction (nested begins flatten).
    pub fn begin(&self) {
        let mut inner = self.inner.lock();
        inner.depth += 1;
        if inner.depth == 1 {
            inner.cursor = 0;
            inner.entries = 0;
            inner.ranges.clear();
            self.pool.write_u64(self.log_base.offset(OFF_COUNT), 0);
            self.pool.write_u64(self.log_base.offset(OFF_STATE), ST_ACTIVE);
            self.pool.persist(self.log_base, 16);
        }
    }

    /// Current nesting depth (0 = outside any transaction).
    pub fn depth(&self) -> u32 {
        self.inner.lock().depth
    }

    /// Undo-log `len` bytes at `addr` (call before modifying them).
    pub fn add(&self, addr: PAddr, len: u64) -> Result<(), LogFull> {
        let mut inner = self.inner.lock();
        assert!(inner.depth > 0, "tx_add outside a transaction");
        let need = ENTRY_HDR + len;
        if OFF_ENTRIES + inner.cursor + need > self.log_cap {
            return Err(LogFull);
        }
        let entry = self.log_base.offset(OFF_ENTRIES + inner.cursor);
        // Capture the current (visible) bytes as the undo image.
        let mut old = vec![0u8; len as usize];
        self.pool.read(addr, &mut old);
        self.pool.write_u64(entry, addr.0);
        self.pool.write_u64(entry.offset(8), len);
        self.pool.write(entry.offset(ENTRY_HDR), &old);
        self.pool.persist(entry, need);
        inner.cursor += need;
        inner.entries += 1;
        let entries = inner.entries;
        self.pool.write_u64(self.log_base.offset(OFF_COUNT), entries);
        self.pool.persist(self.log_base.offset(OFF_COUNT), 8);
        inner.ranges.push((addr, len));
        Ok(())
    }

    /// Commit. The outermost commit flushes all logged ranges' *new*
    /// values, fences, and retires the log.
    pub fn commit(&self) {
        let mut inner = self.inner.lock();
        assert!(inner.depth > 0, "commit outside a transaction");
        inner.depth -= 1;
        if inner.depth > 0 {
            return;
        }
        for &(addr, len) in &inner.ranges {
            self.pool.flush(addr, len);
        }
        self.pool.fence();
        self.pool.write_u64(self.log_base.offset(OFF_STATE), ST_IDLE);
        self.pool.persist(self.log_base.offset(OFF_STATE), 8);
        inner.ranges.clear();
    }

    /// Abort: restore every logged range to its logged old value, durably,
    /// then retire the log.
    pub fn abort(&self) {
        let mut inner = self.inner.lock();
        assert!(inner.depth > 0, "abort outside a transaction");
        // An abort anywhere unwinds the whole (flattened) transaction.
        inner.depth = 0;
        let entries = inner.entries;
        drop(inner);
        self.rollback(entries);
        self.pool.write_u64(self.log_base.offset(OFF_STATE), ST_IDLE);
        self.pool.persist(self.log_base.offset(OFF_STATE), 8);
        let mut inner = self.inner.lock();
        inner.ranges.clear();
        inner.cursor = 0;
        inner.entries = 0;
    }

    /// Post-crash recovery: if the durable log is ACTIVE, roll back its
    /// persisted entries. Returns true if a rollback happened.
    pub fn recover(&self) -> bool {
        let state = self.pool.read_u64(self.log_base.offset(OFF_STATE));
        if state != ST_ACTIVE {
            return false;
        }
        let entries = self.pool.read_u64(self.log_base.offset(OFF_COUNT));
        self.rollback(entries);
        self.pool.write_u64(self.log_base.offset(OFF_STATE), ST_IDLE);
        self.pool.persist(self.log_base.offset(OFF_STATE), 8);
        true
    }

    /// Apply the first `entries` undo entries in reverse order.
    fn rollback(&self, entries: u64) {
        // Walk the entries forward to find offsets, then undo in reverse.
        let mut offsets = Vec::with_capacity(entries as usize);
        let mut cursor = 0u64;
        for _ in 0..entries {
            let entry = self.log_base.offset(OFF_ENTRIES + cursor);
            let len = self.pool.read_u64(entry.offset(8));
            offsets.push((entry, len));
            cursor += ENTRY_HDR + len;
            if OFF_ENTRIES + cursor > self.log_cap {
                break; // torn log tail: stop at the last full entry
            }
        }
        for &(entry, len) in offsets.iter().rev() {
            let addr = PAddr(self.pool.read_u64(entry));
            let mut old = vec![0u8; len as usize];
            self.pool.read(entry.offset(ENTRY_HDR), &mut old);
            self.pool.write(addr, &old);
            self.pool.flush(addr, len);
        }
        self.pool.fence();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crash::CrashPolicy;
    use crate::heap::PmemHeap;
    use crate::pool::PoolConfig;

    const LOG_CAP: u64 = 4096;

    fn setup(pool: &PmemPool) -> (PmemHeap<'_>, PAddr) {
        let heap = PmemHeap::open(pool);
        let log = heap.alloc(LOG_CAP);
        (heap, log)
    }

    fn pool() -> PmemPool {
        PmemPool::new(PoolConfig { size: 1 << 16, shards: 4, ..Default::default() })
    }

    #[test]
    fn committed_tx_is_durable() {
        let p = pool();
        let (heap, log) = setup(&p);
        let obj = heap.alloc(64);
        let tm = TxManager::new(&p, log, LOG_CAP);
        tm.begin();
        tm.add(obj, 8).unwrap();
        p.write_u64(obj, 77);
        tm.commit();
        let img = CrashPolicy::Pessimistic.apply(&p);
        assert_eq!(img.read_u64(obj), 77);
    }

    /// The three deterministic crash policies plus eight random evictions.
    fn every_policy() -> Vec<CrashPolicy> {
        let mut policies =
            vec![CrashPolicy::Pessimistic, CrashPolicy::Optimistic, CrashPolicy::PendingOnly];
        policies.extend((0..8).map(CrashPolicy::Random));
        policies
    }

    #[test]
    fn tx_update_is_atomic_at_every_crash_point() {
        // Persist (5, 5) without a transaction, then update it to (3, 7)
        // in one, crashing before every operation (inside the
        // transaction too) and after the last, under every policy.
        const OPS: usize = 8;
        for crash_at in 0..=OPS {
            let p = pool();
            let (heap, log) = setup(&p);
            let obj = heap.alloc(64);
            let tm = TxManager::new(&p, log, LOG_CAP);
            for op in 0..crash_at {
                match op {
                    0 => p.write_u64(obj, 5),
                    1 => p.write_u64(obj.offset(8), 5),
                    2 => p.persist(obj, 16),
                    3 => tm.begin(),
                    4 => tm.add(obj, 16).unwrap(),
                    5 => p.write_u64(obj, 3),
                    6 => p.write_u64(obj.offset(8), 7),
                    _ => tm.commit(),
                }
            }
            for policy in every_policy() {
                let rebooted = policy.apply(&p).reboot(4);
                TxManager::attach(&rebooted, log, LOG_CAP).recover();
                let state = (rebooted.read_u64(obj), rebooted.read_u64(obj.offset(8)));
                assert!(
                    [(0, 0), (5, 0), (0, 5), (5, 5), (3, 7)].contains(&state),
                    "crash before op {crash_at} under {policy:?}: torn state {state:?}"
                );
            }
        }
    }

    #[test]
    fn untransacted_two_line_update_is_torn_at_some_crash_point() {
        // Two fields on different cache lines, each persisted on its own:
        // some crash state keeps the first update without the second.
        let mut torn = Vec::new();
        for crash_at in 0..=4 {
            let p = pool();
            let (heap, _) = setup(&p);
            let obj = heap.alloc(128);
            for op in 0..crash_at {
                match op {
                    0 => p.write_u64(obj, 1),
                    1 => p.persist(obj, 8),
                    2 => p.write_u64(obj.offset(64), 1),
                    _ => p.persist(obj.offset(64), 8),
                }
            }
            for policy in every_policy() {
                let img = policy.apply(&p);
                let state = (img.read_u64(obj), img.read_u64(obj.offset(64)));
                if state.0 != state.1 {
                    torn.push((crash_at, state));
                }
            }
        }
        assert!(torn.contains(&(2, (1, 0))), "the torn intermediate state must show: {torn:?}");
    }

    #[test]
    fn crash_mid_tx_rolls_back_on_recovery() {
        let p = pool();
        let (heap, log) = setup(&p);
        let obj = heap.alloc(64);
        p.write_u64(obj, 1);
        p.persist(obj, 8);
        let tm = TxManager::new(&p, log, LOG_CAP);
        tm.begin();
        tm.add(obj, 8).unwrap();
        p.write_u64(obj, 2);
        // Adversarial crash: the new value happened to be evicted (so it IS
        // durable) but the commit never ran.
        let img = CrashPolicy::Optimistic.apply(&p);
        let p2 = img.reboot(4);
        assert_eq!(p2.read_u64(obj), 2, "torn state visible before recovery");
        let tm2 = TxManager::attach(&p2, log, LOG_CAP);
        assert!(tm2.recover(), "active log must roll back");
        assert_eq!(p2.read_u64(obj), 1, "old value restored");
        let img2 = CrashPolicy::Pessimistic.apply(&p2);
        assert_eq!(img2.read_u64(obj), 1, "rollback is durable");
    }

    #[test]
    fn recovery_after_commit_is_a_noop() {
        let p = pool();
        let (heap, log) = setup(&p);
        let obj = heap.alloc(64);
        let tm = TxManager::new(&p, log, LOG_CAP);
        tm.begin();
        tm.add(obj, 8).unwrap();
        p.write_u64(obj, 5);
        tm.commit();
        let img = CrashPolicy::Pessimistic.apply(&p);
        let p2 = img.reboot(4);
        let tm2 = TxManager::attach(&p2, log, LOG_CAP);
        assert!(!tm2.recover());
        assert_eq!(p2.read_u64(obj), 5);
    }

    #[test]
    fn unlogged_write_in_tx_is_lost_on_crash() {
        // The Fig. 2 bug, demonstrated end to end: modify without tx_add.
        let p = pool();
        let (heap, log) = setup(&p);
        let obj = heap.alloc(64);
        p.write_u64(obj, 10);
        p.persist(obj, 8);
        let tm = TxManager::new(&p, log, LOG_CAP);
        tm.begin();
        p.write_u64(obj, 20); // BUG: not tx_add'ed, not flushed
        tm.commit();
        let img = CrashPolicy::Pessimistic.apply(&p);
        assert_eq!(img.read_u64(obj), 10, "unlogged update not durable after commit");
    }

    #[test]
    fn abort_restores_old_values() {
        let p = pool();
        let (heap, log) = setup(&p);
        let obj = heap.alloc(64);
        p.write_u64(obj, 3);
        p.persist(obj, 8);
        let tm = TxManager::new(&p, log, LOG_CAP);
        tm.begin();
        tm.add(obj, 8).unwrap();
        p.write_u64(obj, 4);
        tm.abort();
        assert_eq!(p.read_u64(obj), 3);
        assert_eq!(tm.depth(), 0);
    }

    #[test]
    fn nested_begins_flatten() {
        let p = pool();
        let (heap, log) = setup(&p);
        let obj = heap.alloc(64);
        let tm = TxManager::new(&p, log, LOG_CAP);
        tm.begin();
        tm.begin();
        tm.add(obj, 8).unwrap();
        p.write_u64(obj, 8);
        tm.commit();
        assert_eq!(tm.depth(), 1, "inner commit keeps outer open");
        // Not yet durable: outer commit pending.
        let img = CrashPolicy::Pessimistic.apply(&p);
        assert_eq!(img.read_u64(obj), 0);
        tm.commit();
        let img = CrashPolicy::Pessimistic.apply(&p);
        assert_eq!(img.read_u64(obj), 8);
    }

    #[test]
    fn log_full_reported() {
        let p = pool();
        let (heap, _) = setup(&p);
        let log = heap.alloc(256);
        let obj = heap.alloc(64);
        let tm = TxManager::new(&p, log, 256);
        tm.begin();
        tm.add(obj, 8).expect("small entry fits");
        assert_eq!(tm.add(obj, 192).unwrap_err(), LogFull);
        tm.commit();
    }

    #[test]
    fn rollback_in_reverse_order_handles_overlapping_adds() {
        let p = pool();
        let (heap, log) = setup(&p);
        let obj = heap.alloc(64);
        p.write_u64(obj, 100);
        p.persist(obj, 8);
        let tm = TxManager::new(&p, log, LOG_CAP);
        tm.begin();
        tm.add(obj, 8).unwrap(); // logs 100
        p.write_u64(obj, 200);
        tm.add(obj, 8).unwrap(); // logs 200
        p.write_u64(obj, 300);
        tm.abort();
        assert_eq!(p.read_u64(obj), 100, "reverse-order undo restores the oldest value");
    }
}
