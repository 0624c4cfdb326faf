//! A sharded persistent key-value engine over the simulated NVM pool —
//! the common substrate of the three applications.
//!
//! Design follows persistent Memcached / Mnemosyne: a *volatile* hash
//! index (rebuilt on startup in the real systems) pointing at *persistent*
//! 64-byte records, each on its own cache line:
//!
//! ```text
//! record: | key u64 | value u64 | version u64 | sum u64 | pad .. | (64 B)
//! ```
//!
//! `sum` is a salted checksum over `(key, value, version)` — under fault
//! injection a record can be torn or poisoned, and recovery uses the sum
//! to tell a valid record from a partially-persisted one (see
//! [`crate::recovery`]).
//!
//! Persistence styles:
//! * [`PersistStyle::Strict`] — every update is flushed and fenced in
//!   program order (PMDK-style).
//! * [`PersistStyle::Epoch`] — updates are flushed immediately but fenced
//!   at epoch boundaries chosen by the caller (Mnemosyne/PMFS-style
//!   batching); call [`PmKv::epoch_barrier`] to close an epoch.

use crate::recovery::{checksum, PMKV_SALT};
use crate::tracker::Tracker;
use nvm_runtime::{PAddr, PmemHeap, PmemPool, StrandId};
use parking_lot::Mutex;
use std::collections::HashMap;

/// Record size: one cache line.
pub const RECORD_BYTES: u64 = 64;
/// Bytes of a record in use: key, value, version and sum.
pub(crate) const RECORD_USED: u64 = 32;

const OFF_KEY: u64 = 0;
const OFF_VAL: u64 = 8;
const OFF_VER: u64 = 16;
const OFF_SUM: u64 = 24;

fn record_sum(key: u64, val: u64, ver: u64) -> u64 {
    checksum(PMKV_SALT, &[key, val, ver])
}

/// The version word at `off` of a newly allocated one-line block, and
/// whether the caller must store the whole line. A crash can leave the
/// block's line poisoned (recovery rebuilds its tables into fresh
/// blocks), so the word is read with retries; if the media stays
/// unreadable the record starts again at version 0, and the whole-line
/// store scrubs the poison.
pub(crate) fn fresh_version(pool: &PmemPool, block: PAddr, off: u64) -> (u64, bool) {
    let mut ver = [0u8; 8];
    match pool.read_reliable(block.offset(off), &mut ver, 2) {
        Ok(()) => (u64::from_le_bytes(ver), false),
        Err(_) => (0, true),
    }
}

/// What a recovery scan finds in one record slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RecordSlot {
    /// Key is zero: a free or deleted slot.
    Empty,
    /// Checksum validates; safe to adopt.
    Valid { key: u64 },
    /// Non-zero key but a bad checksum: a torn write.
    Torn,
    /// The line's media stayed unreadable (never returned by
    /// [`parse_record`]: the scan knows it from the read).
    Poisoned,
}

/// Validate the record whose slot reads as `bytes`.
pub(crate) fn parse_record(bytes: &[u8]) -> RecordSlot {
    let word =
        |off: u64| u64::from_le_bytes(bytes[off as usize..off as usize + 8].try_into().unwrap());
    let (key, val, ver, sum) = (word(OFF_KEY), word(OFF_VAL), word(OFF_VER), word(OFF_SUM));
    if key == 0 {
        RecordSlot::Empty
    } else if sum == record_sum(key, val, ver) {
        RecordSlot::Valid { key }
    } else {
        RecordSlot::Torn
    }
}

/// When updates become durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PersistStyle {
    Strict,
    Epoch,
}

/// The engine.
pub struct PmKv<'p> {
    pool: &'p PmemPool,
    heap: &'p PmemHeap<'p>,
    style: PersistStyle,
    shards: Vec<Mutex<HashMap<u64, PAddr>>>,
    mask: u64,
}

impl<'p> PmKv<'p> {
    /// Create with `shards` rounded up to a power of two.
    pub fn new(
        pool: &'p PmemPool,
        heap: &'p PmemHeap<'p>,
        style: PersistStyle,
        shards: usize,
    ) -> PmKv<'p> {
        let n = shards.max(1).next_power_of_two();
        PmKv {
            pool,
            heap,
            style,
            shards: (0..n).map(|_| Mutex::new(HashMap::new())).collect(),
            mask: n as u64 - 1,
        }
    }

    fn shard(&self, key: u64) -> &Mutex<HashMap<u64, PAddr>> {
        &self.shards[self.lock_id(key) as usize]
    }

    /// Stable shard/lock index for `key` (mirrored into the tracker as the
    /// lock identity).
    fn lock_id(&self, key: u64) -> u64 {
        // Avalanche the key a little so sequential keys spread.
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h >> 56 & self.mask
    }

    /// Insert or update `key`. Returns false when the pool is exhausted.
    pub fn set(
        &self,
        key: u64,
        value: u64,
        tracker: &dyn Tracker,
        strand: Option<StrandId>,
    ) -> bool {
        let lock_id = self.lock_id(key);
        let mut shard = self.shard(key).lock();
        if tracker.enabled() {
            tracker.lock_acquire(strand, lock_id);
        }
        let (rec, ver, whole_line) = match shard.get(&key) {
            Some(&r) => (r, self.pool.read_u64(r.offset(OFF_VER)), false),
            None => {
                let r = self.heap.alloc(RECORD_BYTES);
                if r.is_null() {
                    return false;
                }
                shard.insert(key, r);
                let (ver, whole_line) = fresh_version(self.pool, r, OFF_VER);
                (r, ver, whole_line)
            }
        };
        let mut bytes = [0u8; RECORD_BYTES as usize];
        bytes[..8].copy_from_slice(&key.to_le_bytes());
        bytes[8..16].copy_from_slice(&value.to_le_bytes());
        bytes[16..24].copy_from_slice(&(ver + 1).to_le_bytes());
        bytes[24..32].copy_from_slice(&record_sum(key, value, ver + 1).to_le_bytes());
        self.pool.write(rec, if whole_line { &bytes } else { &bytes[..32] });
        if tracker.enabled() {
            tracker.access(strand, rec.0, 32, true);
        }
        self.pool.flush(rec, 32);
        if self.style == PersistStyle::Strict {
            self.pool.fence();
        }
        if tracker.enabled() {
            tracker.lock_release(strand, lock_id);
        }
        drop(shard);
        true
    }

    /// Read `key`'s value. Reads are NOT instrumented: "DeepMC only
    /// instruments write operations to the NVM in programmer-specified
    /// code regions" (paper §4.4) — this is where its low overhead on
    /// read-heavy workloads comes from.
    pub fn get(&self, key: u64, _tracker: &dyn Tracker, _strand: Option<StrandId>) -> Option<u64> {
        let shard = self.shard(key).lock();
        let rec = shard.get(&key).copied();
        drop(shard);
        rec.map(|rec| self.pool.read_u64(rec.offset(OFF_VAL)))
    }

    /// Read-modify-write: value ← f(value). Returns the new value, or
    /// `None` when absent.
    pub fn rmw(
        &self,
        key: u64,
        f: impl FnOnce(u64) -> u64,
        tracker: &dyn Tracker,
        strand: Option<StrandId>,
    ) -> Option<u64> {
        let lock_id = self.lock_id(key);
        let shard = self.shard(key).lock();
        if tracker.enabled() {
            tracker.lock_acquire(strand, lock_id);
        }
        let Some(&rec) = shard.get(&key) else {
            if tracker.enabled() {
                tracker.lock_release(strand, lock_id);
            }
            return None;
        };
        let old = self.pool.read_u64(rec.offset(OFF_VAL));
        let new = f(old);
        self.pool.write_u64(rec.offset(OFF_VAL), new);
        let ver = self.pool.read_u64(rec.offset(OFF_VER));
        self.pool.write_u64(rec.offset(OFF_VER), ver + 1);
        self.pool.write_u64(rec.offset(OFF_SUM), record_sum(key, new, ver + 1));
        if tracker.enabled() {
            tracker.access(strand, rec.offset(OFF_VAL).0, 24, true);
        }
        self.pool.flush(rec.offset(OFF_VAL), 24);
        if self.style == PersistStyle::Strict {
            self.pool.fence();
        }
        if tracker.enabled() {
            tracker.lock_release(strand, lock_id);
        }
        drop(shard);
        Some(new)
    }

    /// Remove `key`. The record is recycled; the index drop is volatile
    /// (rebuilt on recovery), matching persistent-Memcached.
    pub fn delete(&self, key: u64, tracker: &dyn Tracker, strand: Option<StrandId>) -> bool {
        let lock_id = self.lock_id(key);
        let mut shard = self.shard(key).lock();
        if tracker.enabled() {
            tracker.lock_acquire(strand, lock_id);
        }
        let Some(rec) = shard.remove(&key) else {
            if tracker.enabled() {
                tracker.lock_release(strand, lock_id);
            }
            return false;
        };
        self.pool.write_u64(rec.offset(OFF_KEY), 0);
        if tracker.enabled() {
            tracker.access(strand, rec.0, 8, true);
        }
        self.pool.persist(rec, 8);
        self.heap.free(rec, RECORD_BYTES);
        if tracker.enabled() {
            tracker.lock_release(strand, lock_id);
        }
        true
    }

    /// Adopt an existing persistent record into the volatile index
    /// (recovery path: the index is rebuilt by scanning the record area).
    pub fn adopt_record(&self, key: u64, rec: PAddr) {
        self.shard(key).lock().insert(key, rec);
    }

    /// Close an epoch: all flushed updates become durable (epoch style).
    pub fn epoch_barrier(&self, tracker: &dyn Tracker) {
        self.pool.fence();
        if tracker.enabled() {
            tracker.barrier();
        }
    }

    /// **Seeded bug** (missing `sfence` at epoch close; Table 2's
    /// missing-fence pattern): acknowledge the epoch without draining the
    /// flush queue. Flushed lines stay `FlushPending`, so a crash after
    /// this "barrier" can drop updates the caller already acked. Only the
    /// crash sweep's ground-truth injection calls this.
    pub fn epoch_barrier_skip_fence(&self, tracker: &dyn Tracker) {
        if tracker.enabled() {
            tracker.barrier();
        }
    }

    /// Number of keys present.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The pool underneath (for stats).
    pub fn pool(&self) -> &PmemPool {
        self.pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracker::{DeepMcTracker, NoopTracker};
    use nvm_runtime::{CrashPolicy, PoolConfig};

    fn pool() -> PmemPool {
        PmemPool::new(PoolConfig { size: 8 << 20, shards: 8, ..Default::default() })
    }

    #[test]
    fn set_get_roundtrip() {
        let p = pool();
        let heap = PmemHeap::open(&p);
        let kv = PmKv::new(&p, &heap, PersistStyle::Strict, 8);
        assert!(kv.set(7, 700, &NoopTracker, None));
        assert_eq!(kv.get(7, &NoopTracker, None), Some(700));
        assert_eq!(kv.get(8, &NoopTracker, None), None);
        assert_eq!(kv.len(), 1);
    }

    #[test]
    fn strict_set_is_immediately_durable() {
        let p = pool();
        let heap = PmemHeap::open(&p);
        let kv = PmKv::new(&p, &heap, PersistStyle::Strict, 8);
        kv.set(1, 11, &NoopTracker, None);
        assert_eq!(p.non_durable_lines(), 0, "strict style fences every update");
    }

    #[test]
    fn epoch_set_is_durable_after_barrier() {
        let p = pool();
        let heap = PmemHeap::open(&p);
        let kv = PmKv::new(&p, &heap, PersistStyle::Epoch, 8);
        kv.set(1, 11, &NoopTracker, None);
        kv.set(2, 22, &NoopTracker, None);
        assert!(p.non_durable_lines() > 0, "epoch updates pend until the barrier");
        kv.epoch_barrier(&NoopTracker);
        assert_eq!(p.non_durable_lines(), 0);
        // And the records really are in the durable image.
        let img = CrashPolicy::Pessimistic.apply(&p);
        let mut found = 0;
        for off in (0..p.size()).step_by(64) {
            let v = img.read_u64(PAddr(off + 8));
            if v == 11 || v == 22 {
                found += 1;
            }
        }
        assert_eq!(found, 2);
    }

    #[test]
    fn rmw_increments() {
        let p = pool();
        let heap = PmemHeap::open(&p);
        let kv = PmKv::new(&p, &heap, PersistStyle::Strict, 8);
        kv.set(5, 10, &NoopTracker, None);
        assert_eq!(kv.rmw(5, |v| v + 1, &NoopTracker, None), Some(11));
        assert_eq!(kv.get(5, &NoopTracker, None), Some(11));
        assert_eq!(kv.rmw(99, |v| v, &NoopTracker, None), None);
    }

    #[test]
    fn delete_removes_and_recycles() {
        let p = pool();
        let heap = PmemHeap::open(&p);
        let kv = PmKv::new(&p, &heap, PersistStyle::Strict, 8);
        kv.set(5, 10, &NoopTracker, None);
        assert!(kv.delete(5, &NoopTracker, None));
        assert_eq!(kv.get(5, &NoopTracker, None), None);
        assert!(!kv.delete(5, &NoopTracker, None));
    }

    #[test]
    fn concurrent_clients_keep_their_data() {
        let p = pool();
        let heap = PmemHeap::open(&p);
        let kv = PmKv::new(&p, &heap, PersistStyle::Strict, 16);
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let kv = &kv;
                s.spawn(move || {
                    for i in 0..200u64 {
                        let key = t * 1_000_000 + i;
                        assert!(kv.set(key, key * 2, &NoopTracker, None));
                    }
                });
            }
        });
        assert_eq!(kv.len(), 8 * 200);
        for t in 0..8u64 {
            for i in (0..200u64).step_by(37) {
                let key = t * 1_000_000 + i;
                assert_eq!(kv.get(key, &NoopTracker, None), Some(key * 2));
            }
        }
    }

    #[test]
    fn tracked_updates_reach_the_tracker() {
        let p = pool();
        let heap = PmemHeap::open(&p);
        let kv = PmKv::new(&p, &heap, PersistStyle::Epoch, 8);
        let tracker = DeepMcTracker::new();
        let s = tracker.region_begin();
        kv.set(1, 2, &tracker, s);
        kv.get(1, &tracker, s);
        assert!(tracker.shadow_cells() > 0, "accesses were shadowed");
    }
}
