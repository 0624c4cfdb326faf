//! Direct-mapped shadow memory over the persistent address space.
//!
//! "DeepMC maps the NVM program's persistent address space to a shadow
//! segment. The shadow segment is responsible for tracking the history of
//! reads and writes issued by a set of strands (or threads) to each
//! persistent memory address" (paper §4.4).
//!
//! As in ThreadSanitizer, every 8-byte persistent cell owns [`HISTORY`]
//! packed 64-bit shadow words (strand, epoch, is-write; 0 means empty),
//! kept oldest first. The words live in shadow pages, one per 4 KiB of
//! persistent address space, found through a six-level radix directory
//! over the page number. Directory nodes and pages are allocated on first
//! access and installed with a compare-and-swap, so a lookup takes no lock
//! and builds nothing, an empty segment costs no allocation, and shadow
//! memory grows with the pages touched: only *persistent* addresses inside
//! annotated regions are ever shadowed, which is the paper's low overhead
//! claim.
//!
//! Each page has one lock. An access takes it once per page it spans, so
//! every cell's check-then-record is atomic with respect to other accesses
//! to that cell, and a concurrent write-after-write is never lost.

use parking_lot::Mutex;
use std::marker::PhantomData;
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};

/// Shadow granularity in bytes.
pub const GRAIN: u64 = 8;

/// Shadow words per cell (older reads are evicted; a write supersedes the
/// whole history).
pub const HISTORY: usize = 4;

/// Bytes of persistent address space behind one shadow page.
pub const PAGE: u64 = 4096;

const CELLS_PER_PAGE: u64 = PAGE / GRAIN;
/// Page-number bits resolved by each directory level: a node is 4 KiB of
/// slots, so a detector that touches a few pages allocates a few nodes,
/// and six levels cover the 52-bit page number of any 64-bit address.
const LEVEL_BITS: u32 = 9;
const FAN: usize = 1 << LEVEL_BITS;

/// One remembered access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShadowAccess {
    /// Below 2^31, so that the packed word has room for the flag.
    pub strand: u32,
    /// The strand's epoch at access time; at least 1, so that a packed
    /// access is never the empty word.
    pub epoch: u32,
    pub is_write: bool,
}

impl ShadowAccess {
    fn pack(self) -> u64 {
        debug_assert!(self.strand < 1 << 31 && self.epoch > 0);
        (self.strand as u64) << 33 | (self.epoch as u64) << 1 | self.is_write as u64
    }

    fn unpack(word: u64) -> ShadowAccess {
        ShadowAccess {
            strand: (word >> 33) as u32,
            epoch: (word >> 1) as u32,
            is_write: word & 1 == 1,
        }
    }
}

/// Access history of one 8-byte cell: packed shadow words, oldest first,
/// empty words at the end.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cell([u64; HISTORY]);

impl Cell {
    /// The remembered accesses, oldest first.
    pub fn accesses(&self) -> impl Iterator<Item = ShadowAccess> + '_ {
        self.0.iter().take_while(|&&w| w != 0).map(|&w| ShadowAccess::unpack(w))
    }

    fn is_empty(&self) -> bool {
        self.0[0] == 0
    }

    fn record(&mut self, access: ShadowAccess) {
        let word = access.pack();
        if access.is_write {
            // A write supersedes prior history for future conflict checks
            // (anything racing with an older access also races with this
            // write or was already reported).
            self.0 = [0; HISTORY];
            self.0[0] = word;
            return;
        }
        let len = self.0.iter().position(|&w| w == 0).unwrap_or(HISTORY);
        // Collapse repeated reads by the same strand: same strand, read,
        // so only the epoch bits change.
        let same_reader = |w: u64| w & 1 == 0 && (w >> 33) as u32 == access.strand;
        if let Some(w) = self.0[..len].iter_mut().find(|w| same_reader(**w)) {
            *w = word;
            return;
        }
        let len = if len == HISTORY {
            // Evict the oldest read (never the write at slot 0 if any).
            let evict = self.0.iter().position(|&w| w & 1 == 0).unwrap_or(0);
            self.0.copy_within(evict + 1.., evict);
            HISTORY - 1
        } else {
            len
        };
        self.0[len] = word;
    }
}

/// A pointer slot filled once, by whichever thread installs it first. It
/// owns what it points to, so it is `Send`/`Sync` exactly when `Box<T>` is.
struct Lazy<T>(AtomicPtr<T>, PhantomData<Box<T>>);

impl<T> Lazy<T> {
    fn empty() -> Lazy<T> {
        Lazy(AtomicPtr::new(ptr::null_mut()), PhantomData)
    }

    /// The slot's value, built by `init` if the slot is empty; the flag is
    /// true when this call installed it. A thread that loses the install
    /// race drops its copy and returns the winner's. The install's release
    /// pairs with the acquire loads, so a reader sees the value built.
    fn get_or_init(&self, init: impl FnOnce() -> Box<T>) -> (&T, bool) {
        let current = self.0.load(Ordering::Acquire);
        if !current.is_null() {
            // SAFETY: installed pointers come from `Box::into_raw` and are
            // freed only by `Drop`, which needs `&mut self`.
            return (unsafe { &*current }, false);
        }
        let fresh = Box::into_raw(init());
        match self.0.compare_exchange(ptr::null_mut(), fresh, Ordering::AcqRel, Ordering::Acquire) {
            // SAFETY: as above; `fresh` is now owned by the slot.
            Ok(_) => (unsafe { &*fresh }, true),
            Err(winner) => {
                // SAFETY: `fresh` was never shared.
                drop(unsafe { Box::from_raw(fresh) });
                // SAFETY: as above.
                (unsafe { &*winner }, false)
            }
        }
    }
}

impl<T> Drop for Lazy<T> {
    fn drop(&mut self) {
        let p = *self.0.get_mut();
        if !p.is_null() {
            // SAFETY: installed by `get_or_init` from `Box::into_raw`.
            drop(unsafe { Box::from_raw(p) });
        }
    }
}

/// One directory level: `FAN` lazily filled children.
struct Dir<T>([Lazy<T>; FAN]);

impl<T> Dir<T> {
    fn new() -> Box<Dir<T>> {
        Box::new(Dir(std::array::from_fn(|_| Lazy::empty())))
    }

    /// The slot for the low `LEVEL_BITS` bits of `index`.
    fn slot(&self, index: u64) -> &Lazy<T> {
        &self.0[index as usize & (FAN - 1)]
    }
}

/// The cells of one 4 KiB page of persistent address space.
struct ShadowPage(Mutex<[Cell; CELLS_PER_PAGE as usize]>);

/// Keeps a counter that every thread bumps off the cache line of the
/// read-mostly directory root.
#[repr(align(128))]
struct Padded<T>(T);

/// Six directory levels above the shadow pages.
type Directory = Dir<Dir<Dir<Dir<Dir<Dir<ShadowPage>>>>>>;

/// The direct-mapped shadow segment.
pub struct ShadowSegment {
    root: Lazy<Directory>,
    pages: AtomicUsize,
    cells: Padded<AtomicUsize>,
}

impl Default for ShadowSegment {
    fn default() -> Self {
        ShadowSegment::new()
    }
}

impl ShadowSegment {
    /// An empty segment; nothing is allocated until the first access.
    pub fn new() -> ShadowSegment {
        ShadowSegment {
            root: Lazy::empty(),
            pages: AtomicUsize::new(0),
            cells: Padded(AtomicUsize::new(0)),
        }
    }

    /// The shadow page for page number `page`, allocated on first use.
    fn page(&self, page: u64) -> &ShadowPage {
        let (l0, _) = self.root.get_or_init(Dir::new);
        let (l1, _) = l0.slot(page >> (5 * LEVEL_BITS)).get_or_init(Dir::new);
        let (l2, _) = l1.slot(page >> (4 * LEVEL_BITS)).get_or_init(Dir::new);
        let (l3, _) = l2.slot(page >> (3 * LEVEL_BITS)).get_or_init(Dir::new);
        let (l4, _) = l3.slot(page >> (2 * LEVEL_BITS)).get_or_init(Dir::new);
        let (l5, _) = l4.slot(page >> LEVEL_BITS).get_or_init(Dir::new);
        let (p, installed) = l5.slot(page).get_or_init(|| {
            Box::new(ShadowPage(Mutex::new([Cell::default(); CELLS_PER_PAGE as usize])))
        });
        if installed {
            self.pages.fetch_add(1, Ordering::Relaxed);
        }
        p
    }

    /// Record an access to `[addr, addr+len)` and hand each touched cell's
    /// *prior* history to `check` before recording. Cells are visited in
    /// address order; each page's cells under that page's lock.
    pub fn access<F>(&self, addr: u64, len: u64, access: ShadowAccess, mut check: F)
    where
        F: FnMut(u64, &Cell),
    {
        if len == 0 {
            return;
        }
        let first = addr / GRAIN;
        let last = (addr + (len - 1)) / GRAIN;
        let mut fresh = 0;
        let mut cell_idx = first;
        while cell_idx <= last {
            let page = cell_idx / CELLS_PER_PAGE;
            let end = last.min(page * CELLS_PER_PAGE + CELLS_PER_PAGE - 1);
            let mut cells = self.page(page).0.lock();
            for idx in cell_idx..=end {
                let cell = &mut cells[(idx % CELLS_PER_PAGE) as usize];
                fresh += cell.is_empty() as usize;
                check(idx * GRAIN, cell);
                cell.record(access);
            }
            drop(cells);
            cell_idx = end + 1;
        }
        if fresh > 0 {
            self.cells.0.fetch_add(fresh, Ordering::Relaxed);
        }
    }

    /// Number of distinct cells accessed so far (for the scalability
    /// claim: proportional to persistent data touched, not total memory).
    pub fn cells(&self) -> usize {
        self.cells.0.load(Ordering::Relaxed)
    }

    /// Number of shadow pages allocated: one per 4 KiB page touched.
    pub fn pages(&self) -> usize {
        self.pages.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc(strand: u32, epoch: u32, is_write: bool) -> ShadowAccess {
        ShadowAccess { strand, epoch, is_write }
    }

    fn history(c: &Cell) -> Vec<ShadowAccess> {
        c.accesses().collect()
    }

    #[test]
    fn words_round_trip() {
        for a in [acc(0, 1, false), acc((1 << 31) - 1, u32::MAX, true), acc(7, 3, true)] {
            assert_ne!(a.pack(), 0);
            assert_eq!(ShadowAccess::unpack(a.pack()), a);
        }
    }

    #[test]
    fn write_supersedes_history() {
        let mut c = Cell::default();
        c.record(acc(1, 1, false));
        c.record(acc(2, 1, false));
        c.record(acc(3, 1, true));
        assert_eq!(history(&c), vec![acc(3, 1, true)]);
    }

    #[test]
    fn repeated_reads_by_same_strand_collapse() {
        let mut c = Cell::default();
        c.record(acc(1, 1, false));
        c.record(acc(1, 2, false));
        assert_eq!(history(&c), vec![acc(1, 2, false)]);
    }

    #[test]
    fn history_bounded_and_evicts_the_oldest_read() {
        let mut c = Cell::default();
        c.record(acc(9, 1, true));
        for s in 0..10 {
            c.record(acc(s, 1, false));
        }
        assert_eq!(
            history(&c),
            vec![acc(9, 1, true), acc(7, 1, false), acc(8, 1, false), acc(9, 1, false)],
            "the write at slot 0 stays; the reads shift left"
        );
    }

    #[test]
    fn segment_tracks_touched_cells_only() {
        let seg = ShadowSegment::new();
        seg.access(0, 8, acc(0, 1, true), |_, _| {});
        seg.access(64, 16, acc(0, 1, true), |_, _| {});
        seg.access(64, 8, acc(0, 2, true), |_, _| {});
        assert_eq!(seg.cells(), 3, "one cell at 0, two for the 16-byte span");
        assert_eq!(seg.pages(), 1);
    }

    #[test]
    fn check_sees_prior_history() {
        let seg = ShadowSegment::new();
        seg.access(8, 8, acc(1, 1, true), |_, _| {});
        let mut seen = Vec::new();
        seg.access(8, 8, acc(2, 1, false), |addr, cell| {
            seen.push((addr, history(cell)));
        });
        assert_eq!(seen, vec![(8, vec![acc(1, 1, true)])]);
    }

    #[test]
    fn spans_straddle_pages_and_reach_high_addresses() {
        let seg = ShadowSegment::new();
        let mut seen = Vec::new();
        seg.access(PAGE - 8, 16, acc(0, 1, true), |addr, _| seen.push(addr));
        assert_eq!(seen, vec![PAGE - 8, PAGE]);
        assert_eq!(seg.pages(), 2);
        let high = u64::MAX - 2 * GRAIN + 1;
        seg.access(high, 2 * GRAIN, acc(0, 1, true), |_, _| {});
        assert_eq!((seg.pages(), seg.cells()), (3, 4));
    }
}
