//! A persistent heap over the pool, in the style of a PMDK `pmemobj` pool:
//! a durable header with a magic number and a *root pointer*, a persisted
//! bump cursor, and volatile size-class free lists.
//!
//! Allocation metadata (cursor, root) is persisted with flush+fence, so an
//! allocation that completed before a crash is observable after reboot.
//! Freed blocks are recycled through volatile free lists; blocks freed but
//! not reallocated before a crash simply leak, which is the usual trade-off
//! of log-free allocators and does not affect crash consistency.
//!
//! Requests up to the largest size class (2 MiB) are rounded up to their
//! class; larger ones are carved from the cursor at their size rounded up
//! to a cache line, so no block is ever smaller than its request.

use crate::pool::{PAddr, PmemPool};
use parking_lot::Mutex;
use std::collections::BTreeMap;

const MAGIC: u64 = 0x4445_4550_4d43_3232; // "DEEPMC22"
const OFF_MAGIC: u64 = 0;
const OFF_ROOT: u64 = 8;
const OFF_CURSOR: u64 = 16;
/// First allocatable byte.
const DATA_START: u64 = 64;
/// All blocks are multiples of this (one cache line keeps objects from
/// sharing lines, which would couple their flush behaviour).
const ALIGN: u64 = 64;
/// Size classes: 64, 128, 256, ... bytes, up to 2 MiB.
const NUM_CLASSES: usize = 16;

/// A persistent heap bound to a pool.
pub struct PmemHeap<'p> {
    pool: &'p PmemPool,
    /// Freed blocks by block size.
    free_lists: Mutex<BTreeMap<u64, Vec<PAddr>>>,
    alloc_lock: Mutex<()>,
}

fn class_of(size: u64) -> usize {
    let blocks = size.max(1).div_ceil(ALIGN);
    (64 - (blocks - 1).leading_zeros()) as usize
}

fn class_bytes(class: usize) -> u64 {
    ALIGN << class
}

/// Size of the block serving a `size`-byte request: its size class, or
/// above the largest class the request rounded up to [`ALIGN`]. `None`
/// when that size does not fit in a `u64`.
fn block_bytes(size: u64) -> Option<u64> {
    match class_of(size) {
        class if class < NUM_CLASSES => Some(class_bytes(class)),
        _ => size.div_ceil(ALIGN).checked_mul(ALIGN),
    }
}

impl<'p> PmemHeap<'p> {
    /// Open the heap: initialize a fresh pool, or attach to an existing
    /// formatted one (e.g. after [`crate::CrashImage::reboot`]).
    pub fn open(pool: &'p PmemPool) -> PmemHeap<'p> {
        if pool.read_u64(PAddr(OFF_MAGIC)) != MAGIC {
            pool.write_u64(PAddr(OFF_ROOT), PAddr::NULL.0);
            pool.write_u64(PAddr(OFF_CURSOR), DATA_START);
            pool.write_u64(PAddr(OFF_MAGIC), MAGIC);
            pool.flush(PAddr(0), 24);
            pool.fence();
        }
        PmemHeap { pool, free_lists: Mutex::new(BTreeMap::new()), alloc_lock: Mutex::new(()) }
    }

    /// The underlying pool.
    pub fn pool(&self) -> &PmemPool {
        self.pool
    }

    /// Allocate `size` bytes of persistent memory (rounded up to the size
    /// class, or to a cache line above the largest class). Returns
    /// `PAddr::NULL` when the pool cannot hold the block.
    pub fn alloc(&self, size: u64) -> PAddr {
        let Some(bytes) = block_bytes(size) else { return PAddr::NULL };
        if let Some(addr) = self.free_lists.lock().get_mut(&bytes).and_then(Vec::pop) {
            return addr;
        }
        let _g = self.alloc_lock.lock();
        let cursor = self.pool.read_u64(PAddr(OFF_CURSOR));
        let Some(end) = cursor.checked_add(bytes).filter(|&end| end <= self.pool.size()) else {
            return PAddr::NULL;
        };
        self.pool.write_u64(PAddr(OFF_CURSOR), end);
        self.pool.persist(PAddr(OFF_CURSOR), 8);
        PAddr(cursor)
    }

    /// Allocate and zero-fill (persisted).
    pub fn alloc_zeroed(&self, size: u64) -> PAddr {
        let addr = self.alloc(size);
        if !addr.is_null() {
            let bytes = block_bytes(size).expect("an allocated block has a size");
            self.pool.write(addr, &vec![0u8; bytes as usize]);
            self.pool.persist(addr, bytes);
        }
        addr
    }

    /// Return a block of `size` bytes to the heap.
    pub fn free(&self, addr: PAddr, size: u64) {
        if addr.is_null() {
            return;
        }
        if let Some(bytes) = block_bytes(size) {
            self.free_lists.lock().entry(bytes).or_default().push(addr);
        }
    }

    /// Durably set the root pointer (like `pmemobj_root`).
    pub fn set_root(&self, root: PAddr) {
        self.pool.write_u64(PAddr(OFF_ROOT), root.0);
        self.pool.persist(PAddr(OFF_ROOT), 8);
    }

    /// Read the root pointer.
    pub fn root(&self) -> PAddr {
        PAddr(self.pool.read_u64(PAddr(OFF_ROOT)))
    }

    /// Bytes handed out so far (excluding the header).
    pub fn used(&self) -> u64 {
        self.pool.read_u64(PAddr(OFF_CURSOR)) - DATA_START
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crash::CrashPolicy;
    use crate::pool::PoolConfig;

    fn pool() -> PmemPool {
        PmemPool::new(PoolConfig { size: 1 << 16, shards: 4, ..Default::default() })
    }

    #[test]
    fn size_classes() {
        assert_eq!(class_of(1), 0);
        assert_eq!(class_of(64), 0);
        assert_eq!(class_of(65), 1);
        assert_eq!(class_of(128), 1);
        assert_eq!(class_of(129), 2);
        assert_eq!(class_bytes(0), 64);
        assert_eq!(class_bytes(3), 512);
    }

    #[test]
    fn alloc_returns_aligned_disjoint_blocks() {
        let p = pool();
        let h = PmemHeap::open(&p);
        let a = h.alloc(100);
        let b = h.alloc(100);
        assert_ne!(a, b);
        assert_eq!(a.0 % ALIGN, 0);
        assert_eq!(b.0 % ALIGN, 0);
        assert!(b.0 >= a.0 + 128, "100 bytes rounds to the 128 class");
    }

    #[test]
    fn blocks_above_the_largest_class_are_not_capped() {
        let p = PmemPool::new(PoolConfig { size: 16 << 20, shards: 4, ..Default::default() });
        let h = PmemHeap::open(&p);
        let big = h.alloc(3 << 20);
        let next = h.alloc(64);
        assert!(!big.is_null() && !next.is_null());
        assert!(big.0 + (3 << 20) <= next.0, "3 MiB block {big:?} overlaps {next:?}");
        // Too large for what is left of the pool: NULL, never a smaller block.
        assert!(h.alloc(16 << 20).is_null());
        // A freed large block serves the next request of its size.
        h.free(big, 3 << 20);
        assert_eq!(h.alloc(3 << 20), big);
        assert!(h.alloc(u64::MAX).is_null());
    }

    #[test]
    fn free_recycles_blocks() {
        let p = pool();
        let h = PmemHeap::open(&p);
        let a = h.alloc(64);
        h.free(a, 64);
        assert_eq!(h.alloc(64), a);
    }

    #[test]
    fn root_survives_crash_and_reboot() {
        let p = pool();
        let h = PmemHeap::open(&p);
        let obj = h.alloc(64);
        p.write_u64(obj, 1234);
        p.persist(obj, 8);
        h.set_root(obj);
        let img = CrashPolicy::Pessimistic.apply(&p);
        let p2 = img.reboot(4);
        let h2 = PmemHeap::open(&p2);
        let root = h2.root();
        assert_eq!(root, obj, "root pointer durable");
        assert_eq!(p2.read_u64(root), 1234);
    }

    #[test]
    fn reopen_does_not_reformat() {
        let p = pool();
        {
            let h = PmemHeap::open(&p);
            h.alloc(64);
            h.set_root(PAddr(DATA_START));
        }
        let h2 = PmemHeap::open(&p);
        assert_eq!(h2.root(), PAddr(DATA_START));
        assert!(h2.used() >= 64);
    }

    #[test]
    fn exhaustion_returns_null() {
        let p = PmemPool::new(PoolConfig { size: 4096, shards: 1, ..Default::default() });
        let h = PmemHeap::open(&p);
        let mut last = PAddr(0);
        for _ in 0..100 {
            last = h.alloc(1024);
            if last.is_null() {
                break;
            }
        }
        assert!(last.is_null());
    }

    #[test]
    fn concurrent_allocations_are_disjoint() {
        let p = std::sync::Arc::new(pool());
        let h = PmemHeap::open(&p);
        let addrs = parking_lot::Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let mut local = Vec::new();
                    for _ in 0..16 {
                        let a = h.alloc(64);
                        assert!(!a.is_null());
                        local.push(a);
                    }
                    addrs.lock().extend(local);
                });
            }
        });
        let mut all = addrs.into_inner();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 8 * 16, "no block handed out twice");
    }
}
