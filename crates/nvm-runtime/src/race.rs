//! Happens-before WAW/RAW detection between strands (paper §4.4).
//!
//! Strand persistency lets independent strands persist concurrently; a
//! write-after-write or read-after-write dependence between concurrent
//! strands is a model violation ("they should be placed in the same strand
//! and a barrier is used to enforce the order"). DeepMC customizes
//! ThreadSanitizer's happens-before race detection with shadow segments
//! restricted to persistent memory; this module is that detector.
//!
//! Ordering edges:
//! * strand creation: the child inherits the creator's clock (program order
//!   up to the `strand_begin`);
//! * `global_barrier` (a persist barrier issued outside any strand): all
//!   strands *ended* before the barrier happen-before strands created
//!   after it;
//! * lock release → acquire pairs on the same lock (FastTrack-style),
//!   mirroring the application's mutexes.
//!
//! Two accesses to overlapping cells race iff neither strand's clock knows
//! the other's epoch and at least one access is a write.
//!
//! The hot path ([`RaceDetector::on_access`]) is built for the Figure-12
//! overhead measurements:
//! * shadow memory is direct-mapped ([`crate::shadow`]): no hashing, no
//!   per-cell allocation, one page lock per 4 KiB page an access spans;
//! * the strand registry is append-only, in chunks that never move, so a
//!   [`StrandId`] reaches its strand without a lock or a reference count;
//! * a strand's clock is read-locked only when a cell holds another
//!   strand's conflicting access, and a lock acquire joins the lock's
//!   clock into the strand's clock in place;
//! * reports are deduplicated through a hash set kept beside the ordered
//!   list.

use crate::clock::VectorClock;
use crate::shadow::{ShadowAccess, ShadowSegment};
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, HashSet};
use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU32, Ordering};
use std::sync::OnceLock;

/// Identifies one strand registered with the detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StrandId(pub u32);

/// WAW or RAW.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RaceKind {
    WriteAfterWrite,
    ReadAfterWrite,
}

impl std::fmt::Display for RaceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RaceKind::WriteAfterWrite => write!(f, "WAW"),
            RaceKind::ReadAfterWrite => write!(f, "RAW"),
        }
    }
}

/// One detected inter-strand dependence.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RaceReport {
    pub kind: RaceKind,
    /// Persistent address (cell-aligned) where the dependence was observed.
    pub addr: u64,
    pub first: StrandId,
    pub second: StrandId,
}

/// Aligned so that strands driven by different threads never share a
/// cache line.
#[repr(align(128))]
struct StrandInfo {
    clock: RwLock<VectorClock>,
    /// The strand's own clock component, which its accesses are recorded
    /// with; written under the clock's write lock, read without it.
    epoch: AtomicU32,
    ended: AtomicBool,
}

/// Strands a shadow word can name (it has 31 strand bits).
const MAX_STRANDS: usize = 1 << 31;
/// Slots in the registry's first chunk; chunk `k` has `FIRST_CHUNK << k`.
const FIRST_CHUNK: usize = 32;
/// Chunks enough for `MAX_STRANDS` strands.
const CHUNKS: usize = 27;

/// The append-only strand registry: doubling chunks of write-once slots.
/// A chunk is allocated when its first strand registers and never moves,
/// so a lookup is two loads.
struct Registry {
    chunks: [AtomicPtr<OnceLock<StrandInfo>>; CHUNKS],
}

impl Registry {
    fn new() -> Registry {
        Registry { chunks: [const { AtomicPtr::new(ptr::null_mut()) }; CHUNKS] }
    }

    /// (chunk, slot) of strand `id`.
    fn locate(id: usize) -> (usize, usize) {
        let k = (id / FIRST_CHUNK + 1).ilog2() as usize;
        (k, id - FIRST_CHUNK * ((1 << k) - 1))
    }

    fn get(&self, id: StrandId) -> &StrandInfo {
        let (k, i) = Registry::locate(id.0 as usize);
        let chunk = self.chunks.get(k).map_or(ptr::null_mut(), |c| c.load(Ordering::Acquire));
        assert!(!chunk.is_null(), "unknown strand {}", id.0);
        // SAFETY: chunk `k` is a leaked boxed slice of `FIRST_CHUNK << k`
        // slots, freed only by `Drop`, and `i` is below that length.
        let slot = unsafe { &*chunk.add(i) };
        slot.get().unwrap_or_else(|| panic!("unknown strand {}", id.0))
    }

    /// Fill slot `id`. Callers register strands one at a time, in id order.
    fn install(&self, id: usize, info: StrandInfo) {
        let (k, i) = Registry::locate(id);
        let mut chunk = self.chunks[k].load(Ordering::Acquire);
        if chunk.is_null() {
            let slots: Box<[OnceLock<StrandInfo>]> =
                (0..FIRST_CHUNK << k).map(|_| OnceLock::new()).collect();
            chunk = Box::into_raw(slots).cast();
            self.chunks[k].store(chunk, Ordering::Release);
        }
        // SAFETY: as in `get`.
        let fresh = unsafe { &*chunk.add(i) }.set(info).is_ok();
        debug_assert!(fresh, "strand {id} registered twice");
    }
}

impl Drop for Registry {
    fn drop(&mut self) {
        for (k, chunk) in self.chunks.iter_mut().enumerate() {
            let p = *chunk.get_mut();
            if !p.is_null() {
                // SAFETY: allocated by `install` as a boxed slice of this
                // length.
                drop(unsafe { Box::from_raw(ptr::slice_from_raw_parts_mut(p, FIRST_CHUNK << k)) });
            }
        }
    }
}

/// Registration state, changed only under its lock.
struct Registrar {
    /// Strands registered so far.
    len: usize,
    /// Clock inherited by strands created after the last barrier.
    base: VectorClock,
}

/// Reports in discovery order, and the same set for deduplication.
#[derive(Default)]
struct Reports {
    list: Vec<RaceReport>,
    seen: HashSet<RaceReport>,
}

const LOCK_SHARDS: usize = 32;

/// The happens-before WAW/RAW detector.
pub struct RaceDetector {
    shadow: ShadowSegment,
    strands: Registry,
    registrar: Mutex<Registrar>,
    /// Release clocks per lock, sharded by lock id.
    locks: Vec<Mutex<HashMap<u64, VectorClock>>>,
    reports: Mutex<Reports>,
}

impl Default for RaceDetector {
    fn default() -> Self {
        RaceDetector::new()
    }
}

impl RaceDetector {
    /// An empty detector. Building one allocates no shadow memory.
    pub fn new() -> RaceDetector {
        RaceDetector {
            shadow: ShadowSegment::new(),
            strands: Registry::new(),
            registrar: Mutex::new(Registrar { len: 0, base: VectorClock::new() }),
            locks: (0..LOCK_SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            reports: Mutex::new(Reports::default()),
        }
    }

    fn strand(&self, id: StrandId) -> &StrandInfo {
        self.strands.get(id)
    }

    fn lock_shard(&self, lock: u64) -> &Mutex<HashMap<u64, VectorClock>> {
        &self.locks[(lock % LOCK_SHARDS as u64) as usize]
    }

    /// Register a new strand. It inherits the post-barrier base clock and,
    /// when `parent` is given, the parent's current clock (program order).
    pub fn strand_begin(&self, parent: Option<StrandId>) -> StrandId {
        let mut registrar = self.registrar.lock();
        let idx = registrar.len;
        assert!(idx < MAX_STRANDS, "more than {MAX_STRANDS} strands");
        let mut clock = registrar.base.clone();
        if let Some(p) = parent {
            clock.join(&self.strand(p).clock.read());
        }
        let epoch = clock.tick(idx).max(1);
        clock.set(idx, epoch);
        self.strands.install(
            idx,
            StrandInfo {
                clock: RwLock::new(clock),
                epoch: AtomicU32::new(epoch),
                ended: AtomicBool::new(false),
            },
        );
        registrar.len += 1;
        StrandId(idx as u32)
    }

    /// Mark a strand finished. Its effects become orderable by the next
    /// global barrier.
    pub fn strand_end(&self, strand: StrandId) {
        self.strand(strand).ended.store(true, Ordering::Release);
    }

    /// A persist barrier outside any strand: all *ended* strands
    /// happen-before everything that follows.
    pub fn global_barrier(&self) {
        let mut registrar = self.registrar.lock();
        for id in 0..registrar.len {
            let s = self.strand(StrandId(id as u32));
            if s.ended.load(Ordering::Acquire) {
                registrar.base.join(&s.clock.read());
            }
        }
    }

    /// Lock synchronization, FastTrack-style: `release` publishes the
    /// strand's clock into the lock; `acquire` joins the lock's clock into
    /// the strand. Accesses ordered by a release→acquire pair on the same
    /// lock do not race.
    pub fn lock_acquire(&self, strand: StrandId, lock: u64) {
        // Strand clock before lock shard, as in `lock_release`.
        let mut clock = self.strand(strand).clock.write();
        if let Some(lc) = self.lock_shard(lock).lock().get(&lock) {
            clock.join(lc);
        }
    }

    /// See [`RaceDetector::lock_acquire`].
    pub fn lock_release(&self, strand: StrandId, lock: u64) {
        let info = self.strand(strand);
        let mut clock = info.clock.write();
        // Publish the strand's history, then advance its epoch so accesses
        // after the release are NOT ordered by this pair.
        self.lock_shard(lock)
            .lock()
            .entry(lock)
            .and_modify(|lc| lc.join(&clock))
            .or_insert_with(|| clock.clone());
        let epoch = clock.tick(strand.0 as usize);
        info.epoch.store(epoch, Ordering::Release);
    }

    /// Record an access by `strand` to persistent bytes `[addr, addr+len)`,
    /// reporting WAW/RAW dependences with concurrent strands. Returns the
    /// *newly* discovered dependences so callers can attribute them to the
    /// source location of this access.
    pub fn on_access(
        &self,
        strand: StrandId,
        addr: u64,
        len: u64,
        is_write: bool,
    ) -> Vec<RaceReport> {
        let info = self.strand(strand);
        let epoch = info.epoch.load(Ordering::Acquire);
        // Read-locked only when a cell holds another strand's conflicting
        // access: fresh cells and the strand's own cells need no clock.
        let mut clock = None;
        let mut found: Vec<RaceReport> = Vec::new();
        self.shadow.access(
            addr,
            len,
            ShadowAccess { strand: strand.0, epoch, is_write },
            |cell_addr, cell| {
                for a in cell.accesses() {
                    if a.strand == strand.0 {
                        continue; // program order within a strand
                    }
                    if !is_write && !a.is_write {
                        continue; // read–read never conflicts
                    }
                    let clock = clock.get_or_insert_with(|| info.clock.read());
                    if clock.knows(a.strand as usize, a.epoch) {
                        continue; // ordered by happens-before
                    }
                    let kind = if is_write && a.is_write {
                        RaceKind::WriteAfterWrite
                    } else {
                        RaceKind::ReadAfterWrite
                    };
                    found.push(RaceReport {
                        kind,
                        addr: cell_addr,
                        first: StrandId(a.strand),
                        second: strand,
                    });
                }
            },
        );
        drop(clock);
        if !found.is_empty() {
            let mut reports = self.reports.lock();
            found.retain(|r| reports.seen.insert(r.clone()));
            reports.list.extend_from_slice(&found);
        }
        found
    }

    /// All dependences reported so far, in discovery order.
    pub fn reports(&self) -> Vec<RaceReport> {
        self.reports.lock().list.clone()
    }

    /// Number of distinct shadowed cells (scales with persistent data
    /// touched).
    pub fn shadow_cells(&self) -> usize {
        self.shadow.cells()
    }

    /// Number of 4 KiB shadow pages allocated (one per page touched).
    pub fn shadow_pages(&self) -> usize {
        self.shadow.pages()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrent_waw_detected() {
        let d = RaceDetector::default();
        let s1 = d.strand_begin(None);
        let s2 = d.strand_begin(None);
        d.on_access(s1, 0, 8, true);
        d.on_access(s2, 0, 8, true);
        let reports = d.reports();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].kind, RaceKind::WriteAfterWrite);
    }

    #[test]
    fn concurrent_raw_detected() {
        let d = RaceDetector::default();
        let s1 = d.strand_begin(None);
        let s2 = d.strand_begin(None);
        d.on_access(s1, 64, 8, true);
        d.on_access(s2, 64, 8, false);
        let reports = d.reports();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].kind, RaceKind::ReadAfterWrite);
    }

    #[test]
    fn read_read_is_no_conflict() {
        let d = RaceDetector::default();
        let s1 = d.strand_begin(None);
        let s2 = d.strand_begin(None);
        d.on_access(s1, 0, 8, false);
        d.on_access(s2, 0, 8, false);
        assert!(d.reports().is_empty());
    }

    #[test]
    fn disjoint_addresses_no_conflict() {
        let d = RaceDetector::default();
        let s1 = d.strand_begin(None);
        let s2 = d.strand_begin(None);
        d.on_access(s1, 0, 8, true);
        d.on_access(s2, 8, 8, true);
        assert!(d.reports().is_empty());
    }

    #[test]
    fn barrier_orders_ended_strands() {
        let d = RaceDetector::default();
        let s1 = d.strand_begin(None);
        d.on_access(s1, 0, 8, true);
        d.strand_end(s1);
        d.global_barrier();
        let s2 = d.strand_begin(None);
        d.on_access(s2, 0, 8, true);
        assert!(d.reports().is_empty(), "barrier creates happens-before");
    }

    #[test]
    fn barrier_does_not_order_running_strands() {
        let d = RaceDetector::default();
        let s1 = d.strand_begin(None);
        d.on_access(s1, 0, 8, true);
        // s1 never ends before the barrier.
        d.global_barrier();
        let s2 = d.strand_begin(None);
        d.on_access(s2, 0, 8, true);
        assert_eq!(d.reports().len(), 1);
    }

    #[test]
    fn parent_child_are_ordered() {
        let d = RaceDetector::default();
        let parent = d.strand_begin(None);
        d.on_access(parent, 0, 8, true);
        let child = d.strand_begin(Some(parent));
        d.on_access(child, 0, 8, true);
        assert!(d.reports().is_empty(), "child inherits parent's clock");
    }

    #[test]
    fn same_strand_never_races_with_itself() {
        let d = RaceDetector::default();
        let s = d.strand_begin(None);
        d.on_access(s, 0, 8, true);
        d.on_access(s, 0, 8, true);
        d.on_access(s, 0, 8, false);
        assert!(d.reports().is_empty());
    }

    #[test]
    fn duplicate_reports_collapse() {
        let d = RaceDetector::default();
        let s1 = d.strand_begin(None);
        let s2 = d.strand_begin(None);
        d.on_access(s1, 0, 8, true);
        d.on_access(s2, 0, 8, true);
        d.on_access(s2, 0, 8, true);
        assert_eq!(d.reports().len(), 1);
    }

    #[test]
    fn lock_release_acquire_orders_accesses() {
        let d = RaceDetector::default();
        let s1 = d.strand_begin(None);
        let s2 = d.strand_begin(None);
        d.lock_acquire(s1, 9);
        d.on_access(s1, 0, 8, true);
        d.lock_release(s1, 9);
        d.lock_acquire(s2, 9);
        d.on_access(s2, 0, 8, true);
        d.lock_release(s2, 9);
        assert!(d.reports().is_empty(), "lock-ordered writes do not race");
    }

    #[test]
    fn different_locks_do_not_order() {
        let d = RaceDetector::default();
        let s1 = d.strand_begin(None);
        let s2 = d.strand_begin(None);
        d.lock_acquire(s1, 1);
        d.on_access(s1, 0, 8, true);
        d.lock_release(s1, 1);
        d.lock_acquire(s2, 2);
        d.on_access(s2, 0, 8, true);
        d.lock_release(s2, 2);
        assert_eq!(d.reports().len(), 1);
    }

    #[test]
    fn access_after_release_not_covered_by_earlier_acquire() {
        let d = RaceDetector::default();
        let s1 = d.strand_begin(None);
        let s2 = d.strand_begin(None);
        d.lock_acquire(s1, 9);
        d.lock_release(s1, 9);
        d.on_access(s1, 0, 8, true); // AFTER the release: unprotected
        d.lock_acquire(s2, 9);
        d.on_access(s2, 0, 8, true);
        assert_eq!(d.reports().len(), 1, "post-release access still races");
    }

    /// §5.2: shadow state scales with the persistent data touched, not
    /// with the address space. A fresh detector holds nothing; touching k
    /// distinct 4 KiB pages allocates exactly k shadow pages, however many
    /// of their cells are touched; and the cell count is the number of
    /// distinct 8-byte cells touched.
    #[test]
    fn shadow_state_scales_with_persistent_data_touched() {
        let d = RaceDetector::new();
        assert_eq!((d.shadow_pages(), d.shadow_cells()), (0, 0));
        let s = d.strand_begin(None);
        let pages = [0u64, 1, 7, 65_536, 1 << 30, (1 << 52) - 1];
        for (k, &page) in pages.iter().enumerate() {
            // 1, 2, ... whole or partial cells per page, some touched twice.
            for cell in 0..=k as u64 {
                d.on_access(s, page * 4096 + cell * 8, 8, cell % 2 == 0);
                d.on_access(s, page * 4096 + cell * 8 + 3, 2, false);
            }
            assert_eq!(d.shadow_pages(), k + 1);
        }
        let cells: usize = (1..=pages.len()).sum();
        assert_eq!(d.shadow_cells(), cells);
        // A 4 KiB span inside one page adds no page, only its cells.
        d.on_access(s, 7 * 4096, 4096, true);
        assert_eq!((d.shadow_pages(), d.shadow_cells()), (pages.len(), cells - 3 + 512));
    }

    #[test]
    fn multithreaded_detection() {
        let d = std::sync::Arc::new(RaceDetector::new());
        let ids: Vec<StrandId> = (0..8).map(|_| d.strand_begin(None)).collect();
        std::thread::scope(|scope| {
            for (i, &sid) in ids.iter().enumerate() {
                let d = d.clone();
                scope.spawn(move || {
                    // Every strand writes its own region plus one shared
                    // cell.
                    for k in 0..32u64 {
                        d.on_access(sid, 4096 * (i as u64 + 1) + k * 8, 8, true);
                    }
                    d.on_access(sid, 0, 8, true);
                });
            }
        });
        assert!(!d.reports().is_empty(), "shared-cell WAW must be caught under real concurrency");
        assert!(d.reports().iter().all(|r| r.addr == 0), "private regions must not be reported");
    }
}
