//! Mini-Memcached: the persistent Memcached of the Mnemosyne evaluation
//! (Marathe et al., HotStorage'17 lineage) — a key-value cache whose
//! updates persist with *epoch* batching: every client flushes each update
//! immediately and closes its epoch with one barrier per batch, exactly
//! the durability/throughput trade epoch persistency is for.

use crate::recovery::{on_failed_line, RecoveryReport};
use crate::store::{parse_record, PersistStyle, PmKv, RecordSlot, RECORD_BYTES, RECORD_USED};
use crate::tracker::{NoopTracker, Tracker};
use crate::workloads::{BenchApp, ClientCtx, OpKind};
use nvm_runtime::{PAddr, PmemHeap, PmemPool};

/// The application.
pub struct Memcached<'p> {
    kv: PmKv<'p>,
}

impl<'p> Memcached<'p> {
    pub fn new(pool: &'p PmemPool, heap: &'p PmemHeap<'p>, shards: usize) -> Memcached<'p> {
        Memcached { kv: PmKv::new(pool, heap, PersistStyle::Epoch, shards) }
    }

    /// Post-crash recovery: persistent-Memcached rebuilds its volatile
    /// index by scanning the record area (every live record is one cache
    /// line with a non-zero key). The area is read once, with
    /// [`PmemPool::read_lines`], and parsed from that buffer. Records that
    /// fail checksum validation (torn writes) or error at the media level
    /// even after retries are scrubbed — zeroed and persisted — so a
    /// second recovery pass sees a clean slot; the store itself also
    /// scrubs poison on write.
    pub fn recover(
        pool: &'p PmemPool,
        heap: &'p PmemHeap<'p>,
        shards: usize,
    ) -> (Memcached<'p>, RecoveryReport) {
        let kv = PmKv::new(pool, heap, PersistStyle::Epoch, shards);
        let mut report = RecoveryReport::default();
        // Clamp: a torn heap cursor must not walk the scan off the pool.
        let end = (64 + heap.used()).min(pool.size());
        let mut area = vec![0u8; (end.saturating_sub(64) / RECORD_BYTES * RECORD_BYTES) as usize];
        let failed =
            pool.read_lines(PAddr(64), &mut area).expect("the record area lies inside the pool");
        for (i, bytes) in area.chunks_exact(RECORD_BYTES as usize).enumerate() {
            let rec = PAddr(64 + i as u64 * RECORD_BYTES);
            let slot = if on_failed_line(&failed, rec, RECORD_USED) {
                RecordSlot::Poisoned
            } else {
                parse_record(bytes)
            };
            match slot {
                RecordSlot::Empty => {}
                RecordSlot::Valid { key } => {
                    report.scanned += 1;
                    report.adopted += 1;
                    kv.adopt_record(key, rec);
                }
                bad => {
                    report.scanned += 1;
                    match bad {
                        RecordSlot::Torn => report.torn_dropped += 1,
                        _ => report.poisoned_dropped += 1,
                    }
                    pool.write(rec, &[0u8; RECORD_BYTES as usize]);
                    pool.persist(rec, RECORD_BYTES);
                }
            }
        }
        (Memcached { kv }, report)
    }

    /// `get key`.
    pub fn get(&self, key: u64, t: &dyn Tracker, ctx: &ClientCtx<'_>) -> Option<u64> {
        self.kv.get(key, t, ctx.strand)
    }

    /// `set key value` (insert or replace).
    pub fn set(&self, key: u64, value: u64, t: &dyn Tracker, ctx: &ClientCtx<'_>) -> bool {
        self.kv.set(key, value, t, ctx.strand)
    }

    /// `incr key` (read-modify-write).
    pub fn incr(&self, key: u64, t: &dyn Tracker, ctx: &ClientCtx<'_>) -> Option<u64> {
        self.kv.rmw(key, |v| v.wrapping_add(1), t, ctx.strand)
    }

    /// Close the current epoch: all flushed updates become durable.
    pub fn epoch_barrier(&self, t: &dyn Tracker) {
        self.kv.epoch_barrier(t);
    }

    /// **Seeded bug**: close the epoch without the fence
    /// ([`PmKv::epoch_barrier_skip_fence`]) — clients get their durability
    /// ack but the flush queue never drains. The crash sweep injects this
    /// as Memcached's ground-truth bug.
    pub fn epoch_barrier_skip_fence(&self, t: &dyn Tracker) {
        self.kv.epoch_barrier_skip_fence(t);
    }

    /// Number of cached items.
    pub fn len(&self) -> usize {
        self.kv.len()
    }

    pub fn is_empty(&self) -> bool {
        self.kv.is_empty()
    }
}

impl BenchApp for Memcached<'_> {
    fn preload(&self, keyspace: u64) {
        for k in 0..keyspace {
            self.kv.set(k, k, &NoopTracker, None);
        }
        self.kv.epoch_barrier(&NoopTracker);
    }

    fn client_op(&self, ctx: &ClientCtx<'_>, kind: OpKind, key: u64) {
        match kind {
            OpKind::Read | OpKind::Scan => {
                self.kv.get(key, ctx.tracker, ctx.strand);
            }
            OpKind::Update | OpKind::Insert => {
                self.kv.set(key, key ^ 0xFF, ctx.tracker, ctx.strand);
            }
            OpKind::ReadModifyWrite => {
                self.kv.rmw(key, |v| v.wrapping_add(1), ctx.tracker, ctx.strand);
            }
        }
    }

    fn batch_end(&self, ctx: &ClientCtx<'_>) {
        self.kv.epoch_barrier(ctx.tracker);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracker::DeepMcTracker;
    use crate::workloads::{memslap_workloads, run_bench};
    use nvm_runtime::PoolConfig;

    fn pool() -> PmemPool {
        PmemPool::new(PoolConfig { size: 32 << 20, shards: 16, ..Default::default() })
    }

    #[test]
    fn recovery_rebuilds_the_index_from_records() {
        let p = pool();
        {
            let heap = PmemHeap::open(&p);
            let mc = Memcached::new(&p, &heap, 16);
            let noop = NoopTracker;
            let ctx = crate::workloads::ClientCtx { id: 0, tracker: &noop, strand: None };
            for k in 1..=100u64 {
                mc.set(k, k * 7, &noop, &ctx);
            }
            mc.kv.epoch_barrier(&noop);
        }
        let img = nvm_runtime::CrashPolicy::Pessimistic.apply(&p);
        let p2 = img.reboot(16);
        let heap2 = PmemHeap::open(&p2);
        let (mc2, report) = Memcached::recover(&p2, &heap2, 16);
        assert_eq!(mc2.len(), 100);
        assert_eq!(report.adopted, 100);
        assert_eq!(report.dropped(), 0, "clean crash tears nothing");
        let noop = NoopTracker;
        let ctx = crate::workloads::ClientCtx { id: 0, tracker: &noop, strand: None };
        for k in (1..=100u64).step_by(13) {
            assert_eq!(mc2.get(k, &noop, &ctx), Some(k * 7));
        }
        // Un-fenced updates before the crash are (correctly) absent.
        let _ = ctx;
    }

    #[test]
    fn faulty_recovery_drops_bad_records_and_is_idempotent() {
        let p = PmemPool::with_faults(
            PoolConfig { size: 4 << 20, shards: 8, ..Default::default() },
            nvm_runtime::FaultConfig {
                seed: 11,
                torn_store_rate: 0.5,
                poison_rate: 0.01,
                ..Default::default()
            },
        );
        {
            let heap = PmemHeap::open(&p);
            let mc = Memcached::new(&p, &heap, 8);
            let noop = NoopTracker;
            let ctx = crate::workloads::ClientCtx { id: 0, tracker: &noop, strand: None };
            for k in 1..=200u64 {
                mc.set(k, k * 3, &noop, &ctx);
            }
            // No epoch barrier: every record line is still in flight, so
            // torn marks survive to the crash.
        }
        let img = nvm_runtime::CrashPolicy::Optimistic.apply(&p);
        let p2 = img.reboot(8);
        let heap2 = PmemHeap::open(&p2);
        let (mc2, first) = Memcached::recover(&p2, &heap2, 8);
        assert!(first.dropped() > 0, "faults at these rates must hit something");
        assert_eq!(first.adopted as usize, mc2.len());
        // Adopted records read back correct values (tears were filtered).
        let noop = NoopTracker;
        let ctx = crate::workloads::ClientCtx { id: 0, tracker: &noop, strand: None };
        for k in 1..=200u64 {
            if let Some(v) = mc2.get(k, &noop, &ctx) {
                assert_eq!(v, k * 3);
            }
        }
        // A second pass sees only scrubbed slots: same index, nothing new
        // dropped.
        let (mc3, second) = Memcached::recover(&p2, &heap2, 8);
        assert_eq!(mc3.len(), mc2.len());
        assert_eq!(second.adopted, first.adopted);
        assert_eq!(second.dropped(), 0, "first pass scrubbed every bad slot");
    }

    #[test]
    fn memslap_mix_runs_and_preserves_data() {
        let p = pool();
        let heap = PmemHeap::open(&p);
        let mc = Memcached::new(&p, &heap, 16);
        let tp = run_bench(&mc, memslap_workloads()[0], 4, 2_000, 1_000, &NoopTracker, 8);
        assert_eq!(tp.ops, 8_000);
        assert!(tp.ops_per_sec() > 0.0);
        assert!(mc.len() >= 1_000);
        assert_eq!(p.non_durable_lines(), 0, "every client epoch was closed");
    }

    #[test]
    fn instrumented_run_detects_nothing_on_correct_app() {
        let p = pool();
        let heap = PmemHeap::open(&p);
        let mc = Memcached::new(&p, &heap, 16);
        let tracker = DeepMcTracker::new();
        run_bench(&mc, memslap_workloads()[0], 4, 2_000, 1_000, &tracker, 8);
        assert!(
            tracker.reports().is_empty(),
            "shard locks order all conflicting accesses: {:?}",
            tracker.reports().first()
        );
        assert!(tracker.shadow_cells() > 0, "but accesses were tracked");
    }

    #[test]
    fn read_only_mix_tracks_fewer_cells_than_update_mix() {
        let cells = |spec| {
            let p = pool();
            let heap = PmemHeap::open(&p);
            let mc = Memcached::new(&p, &heap, 16);
            let tracker = DeepMcTracker::new();
            run_bench(&mc, spec, 2, 1_000, 64, &tracker, 8);
            tracker.shadow_cells()
        };
        let read_cells = cells(memslap_workloads()[2]); // 100% read
        let upd_cells = cells(memslap_workloads()[0]); // 50% update
                                                       // Reads shadow one 8-byte cell, updates three.
        assert!(upd_cells >= read_cells);
    }
}
