//! The simulated persistent memory pool.
//!
//! Two byte images model the x86-64 + NVM stack:
//!
//! * **visible** — what loads observe: every store lands here immediately
//!   (the cache hierarchy is coherent).
//! * **durable** — what survives a crash: bytes reach it only through a
//!   cache-line write-back.
//!
//! Per 64-byte cache line the pool tracks a line state:
//!
//! * `Clean` — visible == durable for this line.
//! * `Dirty` — stored to, no write-back issued. The cache may evict it *at
//!   any time* ("the order in which stored values are made persistent
//!   depends on the order in which they are evicted", paper §2.1), so at a
//!   crash a dirty line may or may not be durable.
//! * `FlushPending` — `clwb` issued but not yet guaranteed complete; a
//!   `fence` (sfence) makes all pending lines durable.
//!
//! The pool is sharded: each shard owns a contiguous range guarded by a
//! `parking_lot` mutex, so concurrent clients (the Figure-12 workloads run
//! multiple client threads) scale. A `fence` takes the shards in index
//! order.
//!
//! Each shard backs its range with fixed 4 KiB pages (both images plus
//! the 64 line states) that are allocated on the first store into them.
//! A page that was never stored to reads as zeros and all of its lines
//! are `Clean`, so a pool costs memory, and a crash image costs time, in
//! proportion to the pages the workload touched rather than to the pool
//! size: [`PmemPool::crash_image`] visits only allocated pages and keeps
//! only non-zero lines, and rebooting an image
//! ([`crate::CrashImage::reboot`]) installs exactly those lines.
//!
//! Reads fail on poisoned lines ([`PmemError::MediaError`]).
//! [`PmemPool::try_read`] stops at the first poisoned line and
//! [`PmemPool::read_reliable`] retries a range as a whole; recovery
//! scans read a whole log with [`PmemPool::read_lines`], which checks
//! the poison set once, takes each shard's lock once for its span and
//! reports the unreadable lines, so one read replaces a retried read per
//! log slot.
//!
//! An optional latency model charges a busy-wait per write-back and fence,
//! so performance bugs (redundant flushes, §3.3: "an additional writeback
//! can introduce extra latency by 2–4×") have measurable cost.

use crate::fault::{FaultConfig, FaultPlan, FaultStats, PmemError};
use deepmc_obs as obs;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Cache-line size in bytes.
pub const CACHE_LINE: u64 = 64;

/// Bytes per page, the unit in which a shard allocates its backing store.
const PAGE: u64 = 4096;

const LINES_PER_PAGE: usize = (PAGE / CACHE_LINE) as usize;

/// The bytes of one cache line.
pub type Line = [u8; CACHE_LINE as usize];

/// A persistent-memory address (byte offset within the pool).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PAddr(pub u64);

impl PAddr {
    pub const NULL: PAddr = PAddr(u64::MAX);

    pub fn is_null(self) -> bool {
        self == PAddr::NULL
    }

    pub fn offset(self, delta: u64) -> PAddr {
        PAddr(self.0 + delta)
    }

    fn line(self) -> u64 {
        self.0 / CACHE_LINE
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LineState {
    Clean,
    Dirty,
    FlushPending,
}

/// One page of a shard: both images of its bytes and the state of each
/// of its lines.
struct Page {
    visible: [u8; PAGE as usize],
    durable: [u8; PAGE as usize],
    lines: [LineState; LINES_PER_PAGE],
}

struct Shard {
    /// First byte offset covered by this shard.
    base: u64,
    /// Backing pages, `None` until first stored to; the last one may
    /// extend past the shard's end.
    pages: Vec<Option<Box<Page>>>,
    /// Local indices of lines in `FlushPending` state, so a fence drains
    /// in O(pending) instead of scanning the whole shard.
    pending: Vec<u32>,
}

impl Shard {
    /// The page holding shard-local byte `local`, allocated if missing.
    fn page_mut(&mut self, local: usize) -> &mut Page {
        self.pages[local / PAGE as usize].get_or_insert_with(|| {
            Box::new(Page {
                visible: [0; PAGE as usize],
                durable: [0; PAGE as usize],
                lines: [LineState::Clean; LINES_PER_PAGE],
            })
        })
    }

    /// Store `data` at shard-local byte `local` (within this shard),
    /// marking every touched line dirty. With a fault plan attached each
    /// stored line-span is first offered as a torn-store candidate (the
    /// mark captures the old content).
    fn store(&mut self, mut local: usize, mut data: &[u8], fault: Option<&FaultPlan>) {
        let base = self.base;
        while !data.is_empty() {
            let at = local % PAGE as usize;
            let n = data.len().min(PAGE as usize - at);
            let page = self.page_mut(local);
            if let Some(plan) = fault {
                let mut seg = at;
                while seg < at + n {
                    let seg_end =
                        (at + n).min((seg / CACHE_LINE as usize + 1) * CACHE_LINE as usize);
                    let abs = base + (local - at + seg) as u64;
                    plan.on_store(abs / CACHE_LINE, abs, &page.visible[seg..seg_end]);
                    seg = seg_end;
                }
            }
            page.visible[at..at + n].copy_from_slice(&data[..n]);
            let first = at / CACHE_LINE as usize;
            let last = (at + n - 1) / CACHE_LINE as usize;
            page.lines[first..=last].fill(LineState::Dirty);
            local += n;
            data = &data[n..];
        }
    }

    /// Load shard-local bytes into `buf`; missing pages read as zeros.
    fn load(&self, mut local: usize, buf: &mut [u8]) {
        let mut rest = buf;
        while !rest.is_empty() {
            let at = local % PAGE as usize;
            let n = rest.len().min(PAGE as usize - at);
            match &self.pages[local / PAGE as usize] {
                Some(page) => rest[..n].copy_from_slice(&page.visible[at..at + n]),
                None => rest[..n].fill(0),
            }
            local += n;
            rest = &mut rest[n..];
        }
    }
}

/// Pool configuration.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Pool size in bytes (rounded up to shards × lines).
    pub size: u64,
    /// Number of lock shards.
    pub shards: usize,
    /// Busy-wait charged per line actually written back at a fence
    /// (models NVM write latency). Zero disables the latency model.
    pub writeback_cost: Duration,
    /// Busy-wait charged per fence (drain latency).
    pub fence_cost: Duration,
    /// Busy-wait charged per cache line a `clwb` touches (instruction and
    /// write-queue occupancy — this is what makes redundant flushes cost
    /// real time even when the line is already clean).
    pub flush_cost: Duration,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            size: 16 << 20,
            shards: 16,
            writeback_cost: Duration::ZERO,
            fence_cost: Duration::ZERO,
            flush_cost: Duration::ZERO,
        }
    }
}

/// Operation counters (all monotonic).
#[derive(Debug, Default)]
pub struct PoolStats {
    pub stores: AtomicU64,
    pub bytes_stored: AtomicU64,
    pub loads: AtomicU64,
    pub flushes: AtomicU64,
    /// `clwb` issued on lines that were already clean — wasted work that
    /// the performance rules hunt for.
    pub clean_flushes: AtomicU64,
    pub fences: AtomicU64,
    /// Lines actually copied to the durable image.
    pub lines_written_back: AtomicU64,
    /// `clwb`s that retired from the program's point of view but were
    /// dropped by fault injection, leaving the line dirty. Without this
    /// counter a dropped flush is indistinguishable from a flush that was
    /// never issued.
    pub dropped_flushes: AtomicU64,
    /// Word-sized compare-and-swap attempts ([`PmemPool::cas_u64`]).
    pub cas_ops: AtomicU64,
    /// CAS attempts that lost (observed value != expected).
    pub cas_failures: AtomicU64,
}

/// A point-in-time copy of [`PoolStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    pub stores: u64,
    pub bytes_stored: u64,
    pub loads: u64,
    pub flushes: u64,
    pub clean_flushes: u64,
    pub fences: u64,
    pub lines_written_back: u64,
    pub dropped_flushes: u64,
    pub cas_ops: u64,
    pub cas_failures: u64,
}

/// The simulated persistent memory pool.
pub struct PmemPool {
    shards: Vec<Mutex<Shard>>,
    shard_bytes: u64,
    size: u64,
    stats: PoolStats,
    writeback_cost: Duration,
    fence_cost: Duration,
    flush_cost: Duration,
    /// Optional fault-injection engine (see [`crate::fault`]).
    fault: Option<FaultPlan>,
    /// Poisoned cache lines: global line index → transient? Populated by
    /// [`crate::CrashImage::reboot`] and by tests; reads through the typed
    /// API fail on these lines until they are scrubbed by a store.
    poisoned: Mutex<HashMap<u64, bool>>,
    /// Serializes [`PmemPool::cas_u64`] read-modify-write sequences. All
    /// mutators of a CAS-mediated word must go through `cas_u64` — a plain
    /// `write` to the same word concurrent with a CAS is a program bug,
    /// exactly as mixing `mov` and `lock cmpxchg` on real hardware is.
    cas_lock: Mutex<()>,
}

impl PmemPool {
    /// Create a pool; the durable image starts zeroed (fresh DIMM).
    pub fn new(config: PoolConfig) -> PmemPool {
        Self::build(config, None)
    }

    /// Create a pool with a deterministic fault-injection plan attached.
    pub fn with_faults(config: PoolConfig, fault: FaultConfig) -> PmemPool {
        Self::build(config, Some(FaultPlan::new(fault)))
    }

    fn build(config: PoolConfig, fault: Option<FaultPlan>) -> PmemPool {
        let shards = config.shards.max(1);
        // Round the shard size up to a line multiple.
        let raw = config.size.div_ceil(shards as u64);
        let shard_bytes = raw.div_ceil(CACHE_LINE) * CACHE_LINE;
        let size = shard_bytes * shards as u64;
        let shard_vec = (0..shards)
            .map(|i| {
                let mut pages = Vec::new();
                pages.resize_with(shard_bytes.div_ceil(PAGE) as usize, || None);
                Mutex::new(Shard { base: i as u64 * shard_bytes, pages, pending: Vec::new() })
            })
            .collect();
        PmemPool {
            shards: shard_vec,
            shard_bytes,
            size,
            stats: PoolStats::default(),
            writeback_cost: config.writeback_cost,
            fence_cost: config.fence_cost,
            flush_cost: config.flush_cost,
            fault,
            poisoned: Mutex::new(HashMap::new()),
            cas_lock: Mutex::new(()),
        }
    }

    /// Fault counters, when a plan is attached.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.fault.as_ref().map(|f| f.stats())
    }

    /// Mark a cache line poisoned (media error on read until scrubbed).
    pub fn poison_line(&self, line: u64, transient: bool) {
        self.poisoned.lock().insert(line, transient);
    }

    /// Number of currently poisoned lines.
    pub fn poisoned_line_count(&self) -> usize {
        self.poisoned.lock().len()
    }

    /// Total pool size in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    fn shard_of(&self, addr: u64) -> usize {
        (addr / self.shard_bytes) as usize
    }

    /// Range validation as a typed result.
    fn range_ok(&self, addr: PAddr, len: u64) -> Result<(), PmemError> {
        if !addr.is_null() && addr.0.checked_add(len).is_some_and(|end| end <= self.size) {
            Ok(())
        } else {
            Err(PmemError::OutOfRange { addr: addr.0, len, size: self.size })
        }
    }

    fn check_range(&self, addr: PAddr, len: u64) {
        if let Err(e) = self.range_ok(addr, len) {
            panic!("{e}");
        }
    }

    /// Store bytes. Visible immediately; durable only after flush + fence
    /// (or an unlucky/lucky eviction).
    pub fn write(&self, addr: PAddr, data: &[u8]) {
        self.try_write(addr, data).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Store bytes, reporting out-of-range accesses instead of panicking.
    /// A store scrubs transient poison from every line it touches (the
    /// line is allocated in cache; the pending ECC retry never runs), but
    /// permanent media damage is scrubbed only by a store that rewrites
    /// the *entire* line — a partial store still leaves unreadable bytes
    /// on media, so reads keep failing.
    pub fn try_write(&self, addr: PAddr, data: &[u8]) -> Result<(), PmemError> {
        self.range_ok(addr, data.len() as u64)?;
        let write_start = addr.0;
        let write_end = addr.0 + data.len() as u64;
        self.stats.stores.fetch_add(1, Ordering::Relaxed);
        self.stats.bytes_stored.fetch_add(data.len() as u64, Ordering::Relaxed);
        let mut off = addr.0;
        let mut rest = data;
        while !rest.is_empty() {
            let si = self.shard_of(off);
            let mut shard = self.shards[si].lock();
            let local = (off - shard.base) as usize;
            let n = rest.len().min(self.shard_bytes as usize - local);
            shard.store(local, &rest[..n], self.fault.as_ref());
            drop(shard);
            let first = off / CACHE_LINE;
            let last = (off + n as u64 - 1) / CACHE_LINE;
            {
                let mut poisoned = self.poisoned.lock();
                if !poisoned.is_empty() {
                    for line in first..=last {
                        let full_line = write_start <= line * CACHE_LINE
                            && (line + 1) * CACHE_LINE <= write_end;
                        match poisoned.get(&line) {
                            Some(&transient) if transient || full_line => {
                                poisoned.remove(&line);
                            }
                            _ => {}
                        }
                    }
                }
            }
            off += n as u64;
            rest = &rest[n..];
        }
        Ok(())
    }

    /// Load bytes from the visible image.
    pub fn read(&self, addr: PAddr, buf: &mut [u8]) {
        self.try_read(addr, buf).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Load bytes, reporting out-of-range and media errors instead of
    /// panicking. A transient media error clears itself after the failed
    /// read (the ECC retry succeeds), so one retry observes good data.
    pub fn try_read(&self, addr: PAddr, buf: &mut [u8]) -> Result<(), PmemError> {
        self.range_ok(addr, buf.len() as u64)?;
        self.stats.loads.fetch_add(1, Ordering::Relaxed);
        {
            let mut poisoned = self.poisoned.lock();
            if !poisoned.is_empty() {
                let first = addr.line();
                let last = PAddr(addr.0 + buf.len().max(1) as u64 - 1).line();
                for line in first..=last {
                    if let Some(&transient) = poisoned.get(&line) {
                        if transient {
                            poisoned.remove(&line);
                        }
                        return Err(PmemError::MediaError { line, transient });
                    }
                }
            }
        }
        self.load(addr.0, buf);
        Ok(())
    }

    /// Copy the visible bytes at `off` into `buf`, taking each shard's
    /// lock once for its span.
    fn load(&self, mut off: u64, buf: &mut [u8]) {
        let mut rest = buf;
        while !rest.is_empty() {
            let si = self.shard_of(off);
            let shard = self.shards[si].lock();
            let local = (off - shard.base) as usize;
            let n = rest.len().min(self.shard_bytes as usize - local);
            shard.load(local, &mut rest[..n]);
            off += n as u64;
            rest = &mut rest[n..];
        }
    }

    /// Load a whole range in one pass, as recovery scans read their logs:
    /// the poison set is checked once and each shard's lock is taken once
    /// for its span, where reading the range one line at a time would take
    /// both per line. Poisoned lines behave as a per-line
    /// [`PmemPool::read_reliable`] with two retries would: a transient
    /// line fails one read and clears, so it reads clean and leaves the
    /// poison set; a permanently poisoned line stays unreadable and
    /// poisoned. Returns the permanently poisoned lines the range touches,
    /// in ascending order; their bytes in `buf` read as zeros. An
    /// out-of-range request fails before anything is read. Counts one
    /// load.
    pub fn read_lines(&self, addr: PAddr, buf: &mut [u8]) -> Result<Vec<u64>, PmemError> {
        self.range_ok(addr, buf.len() as u64)?;
        self.stats.loads.fetch_add(1, Ordering::Relaxed);
        if buf.is_empty() {
            return Ok(Vec::new());
        }
        let first = addr.line();
        let last = PAddr(addr.0 + buf.len() as u64 - 1).line();
        let mut failed = Vec::new();
        {
            let mut poisoned = self.poisoned.lock();
            if !poisoned.is_empty() {
                for line in first..=last {
                    match poisoned.get(&line) {
                        Some(true) => {
                            poisoned.remove(&line);
                        }
                        Some(false) => failed.push(line),
                        None => {}
                    }
                }
            }
        }
        self.load(addr.0, buf);
        for &line in &failed {
            let a = (line * CACHE_LINE).max(addr.0) - addr.0;
            let b = ((line + 1) * CACHE_LINE - addr.0).min(buf.len() as u64);
            buf[a as usize..b as usize].fill(0);
        }
        Ok(failed)
    }

    /// Bounded retry-then-degrade read: transient media errors are retried
    /// up to `retries` times; permanent errors (and out-of-range) are
    /// returned for the caller to degrade gracefully (e.g. drop the
    /// record).
    pub fn read_reliable(
        &self,
        addr: PAddr,
        buf: &mut [u8],
        retries: u32,
    ) -> Result<(), PmemError> {
        let mut last = Ok(());
        for _ in 0..=retries {
            match self.try_read(addr, buf) {
                Ok(()) => return Ok(()),
                Err(e @ PmemError::MediaError { transient: true, .. }) => last = Err(e),
                Err(e) => return Err(e),
            }
        }
        last
    }

    /// Convenience: store a u64 (little endian).
    pub fn write_u64(&self, addr: PAddr, v: u64) {
        self.write(addr, &v.to_le_bytes());
    }

    /// Convenience: load a u64.
    pub fn read_u64(&self, addr: PAddr) -> u64 {
        let mut b = [0u8; 8];
        self.read(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Convenience: load a u64 with typed errors.
    pub fn try_read_u64(&self, addr: PAddr) -> Result<u64, PmemError> {
        let mut b = [0u8; 8];
        self.try_read(addr, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Word-sized compare-and-swap (`lock cmpxchg` on an 8-byte NVM word):
    /// atomically replace the visible value at `addr` with `new` iff it
    /// currently equals `expected`. Returns `Ok(())` on success and
    /// `Err(observed)` on failure. Like a hardware CAS, this orders only
    /// the *visible* image — the new value reaches the durable image
    /// through the usual flush + fence (or eviction), which is precisely
    /// the window the detectable-CAS protocols close with a persisted
    /// checkpoint.
    pub fn cas_u64(&self, addr: PAddr, expected: u64, new: u64) -> Result<(), u64> {
        self.check_range(addr, 8);
        self.stats.cas_ops.fetch_add(1, Ordering::Relaxed);
        let _g = self.cas_lock.lock();
        let observed = self.read_u64(addr);
        if observed != expected {
            self.stats.cas_failures.fetch_add(1, Ordering::Relaxed);
            return Err(observed);
        }
        self.write_u64(addr, new);
        Ok(())
    }

    /// `clwb`: issue a write-back for every line overlapping the range.
    /// Durability is guaranteed only after the next [`PmemPool::fence`].
    pub fn flush(&self, addr: PAddr, len: u64) {
        if len == 0 {
            return;
        }
        self.check_range(addr, len);
        self.stats.flushes.fetch_add(1, Ordering::Relaxed);
        obs::counter("pmem.flushes", 1);
        // Latency histogram sample, not a span: flushes are far too
        // frequent for one event each. Timed only when instrumented.
        let lat_start = obs::active().then(Instant::now);
        let first = addr.line();
        let last = PAddr(addr.0 + len - 1).line();
        if self.flush_cost > Duration::ZERO {
            busy_wait(self.flush_cost * (last - first + 1) as u32);
        }
        let mut l = first;
        while l <= last {
            let si = self.shard_of(l * CACHE_LINE);
            let mut guard = self.shards[si].lock();
            let shard = &mut *guard;
            let base_line = shard.base / CACHE_LINE;
            let shard_last = base_line + self.shard_bytes / CACHE_LINE - 1;
            let upto = last.min(shard_last);
            for line in l..=upto {
                let idx = (line - base_line) as usize;
                let Some(page) = &mut shard.pages[idx / LINES_PER_PAGE] else {
                    // A page never stored to is all clean lines.
                    self.stats.clean_flushes.fetch_add(1, Ordering::Relaxed);
                    continue;
                };
                let state = &mut page.lines[idx % LINES_PER_PAGE];
                match *state {
                    LineState::Clean => {
                        self.stats.clean_flushes.fetch_add(1, Ordering::Relaxed);
                    }
                    LineState::Dirty => {
                        // An injected dropped flush: the clwb retires from
                        // the program's point of view but the line stays
                        // dirty — the next fence persists nothing for it.
                        if self.fault.as_ref().is_some_and(|f| f.drop_flush(line)) {
                            self.stats.dropped_flushes.fetch_add(1, Ordering::Relaxed);
                            obs::counter("fault.dropped_flushes", 1);
                            continue;
                        }
                        *state = LineState::FlushPending;
                        shard.pending.push(idx as u32);
                    }
                    LineState::FlushPending => {
                        // Re-flushing a pending line: counted as wasted too.
                        self.stats.clean_flushes.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            l = upto + 1;
        }
        if let Some(t0) = lat_start {
            obs::latency("pmem.flush", t0.elapsed().as_micros() as u64);
        }
    }

    /// `sfence`: all pending write-backs complete; their lines become
    /// durable. Dirty (unflushed) lines are *not* persisted — that is the
    /// whole point of persistency bugs.
    pub fn fence(&self) {
        let lat_start = obs::active().then(Instant::now);
        self.stats.fences.fetch_add(1, Ordering::Relaxed);
        let mut written_back = 0u64;
        for shard in &self.shards {
            let mut s = shard.lock();
            if s.pending.is_empty() {
                continue;
            }
            let pending = std::mem::take(&mut s.pending);
            let base_line = s.base / CACHE_LINE;
            for &idx32 in &pending {
                let idx = idx32 as usize;
                let page = s.pages[idx / LINES_PER_PAGE]
                    .as_mut()
                    .expect("a pending line lies on an allocated page");
                let i = idx % LINES_PER_PAGE;
                if page.lines[i] == LineState::FlushPending {
                    let a = i * CACHE_LINE as usize;
                    let b = a + CACHE_LINE as usize;
                    let Page { visible, durable, lines } = &mut **page;
                    durable[a..b].copy_from_slice(&visible[a..b]);
                    lines[i] = LineState::Clean;
                    if let Some(plan) = &self.fault {
                        plan.on_writeback(base_line + idx as u64);
                    }
                    written_back += 1;
                }
            }
        }
        self.stats.lines_written_back.fetch_add(written_back, Ordering::Relaxed);
        obs::counter("pmem.fences", 1);
        obs::counter("pmem.lines_written_back", written_back);
        if self.writeback_cost > Duration::ZERO && written_back > 0 {
            busy_wait(self.writeback_cost * written_back as u32);
        }
        if self.fence_cost > Duration::ZERO {
            busy_wait(self.fence_cost);
        }
        if let Some(t0) = lat_start {
            obs::latency("pmem.fence", t0.elapsed().as_micros() as u64);
        }
    }

    /// `flush` + `fence` (pmem_persist).
    pub fn persist(&self, addr: PAddr, len: u64) {
        self.flush(addr, len);
        self.fence();
    }

    /// Number of lines currently not durable (dirty or pending).
    pub fn non_durable_lines(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| {
                let s = s.lock();
                let states = s.pages.iter().flatten().flat_map(|p| p.lines.iter());
                states.filter(|l| **l != LineState::Clean).count() as u64
            })
            .sum()
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> StatsSnapshot {
        StatsSnapshot {
            stores: self.stats.stores.load(Ordering::Relaxed),
            bytes_stored: self.stats.bytes_stored.load(Ordering::Relaxed),
            loads: self.stats.loads.load(Ordering::Relaxed),
            flushes: self.stats.flushes.load(Ordering::Relaxed),
            clean_flushes: self.stats.clean_flushes.load(Ordering::Relaxed),
            fences: self.stats.fences.load(Ordering::Relaxed),
            lines_written_back: self.stats.lines_written_back.load(Ordering::Relaxed),
            dropped_flushes: self.stats.dropped_flushes.load(Ordering::Relaxed),
            cas_ops: self.stats.cas_ops.load(Ordering::Relaxed),
            cas_failures: self.stats.cas_failures.load(Ordering::Relaxed),
        }
    }

    /// Produce the post-crash durable image under `policy` (see
    /// [`crate::crash`]). Dirty and pending lines persist or vanish per the
    /// policy — modeling arbitrary eviction order. With a fault plan
    /// attached, surviving un-retired lines may additionally be torn
    /// (prefix of the last store, suffix of the old bytes) and pool lines
    /// may come back poisoned.
    ///
    /// The policy is asked once per dirty or pending line, in ascending
    /// line order. Only allocated pages are visited and only non-zero
    /// lines are kept, so the cost is proportional to the pages the
    /// workload touched.
    pub fn crash_image(&self, policy: &mut dyn FnMut(u64, bool) -> bool) -> crate::CrashImage {
        let mut lines: Vec<(u64, Line)> = Vec::new();
        let shard_lines = (self.shard_bytes / CACHE_LINE) as usize;
        for shard in &self.shards {
            let s = shard.lock();
            let base_line = s.base / CACHE_LINE;
            for (pi, page) in s.pages.iter().enumerate() {
                let Some(page) = page else { continue };
                let first = pi * LINES_PER_PAGE;
                for i in 0..LINES_PER_PAGE.min(shard_lines - first) {
                    let line = base_line + (first + i) as u64;
                    let survives = match page.lines[i] {
                        LineState::Clean => false,
                        LineState::Dirty => policy(line, false),
                        LineState::FlushPending => policy(line, true),
                    };
                    let a = i * CACHE_LINE as usize;
                    let src = if survives { &page.visible } else { &page.durable };
                    let mut bytes: Line =
                        src[a..a + CACHE_LINE as usize].try_into().expect("one whole line");
                    // A surviving line died before its write-back retired:
                    // a torn mark resurfaces the old suffix of the stored
                    // span.
                    if survives {
                        if let Some(mark) = self.fault.as_ref().and_then(|f| f.torn_mark(line)) {
                            let at = (mark.start - line * CACHE_LINE) as usize;
                            bytes[at + mark.split..at + mark.old.len()]
                                .copy_from_slice(&mark.old[mark.split..]);
                        }
                    }
                    if bytes != [0; CACHE_LINE as usize] {
                        lines.push((line, bytes));
                    }
                }
            }
        }
        let poisoned = match &self.fault {
            Some(plan) => plan.poison_lines(self.size / CACHE_LINE),
            None => Vec::new(),
        };
        crate::CrashImage::from_lines(self.size, lines, poisoned)
    }

    /// Install `lines` as both visible and durable content, leaving them
    /// clean: the boot path of [`crate::CrashImage::reboot`]. Statistics
    /// are untouched.
    pub(crate) fn install_clean(&self, lines: &[(u64, Line)]) {
        for (line, bytes) in lines {
            let addr = line * CACHE_LINE;
            let mut s = self.shards[self.shard_of(addr)].lock();
            let local = (addr - s.base) as usize;
            let at = local % PAGE as usize;
            let page = s.page_mut(local);
            page.visible[at..at + CACHE_LINE as usize].copy_from_slice(bytes);
            page.durable[at..at + CACHE_LINE as usize].copy_from_slice(bytes);
        }
    }
}

/// Busy-wait for `d` (models device latency without yielding to the OS).
fn busy_wait(d: Duration) {
    let start = Instant::now();
    while start.elapsed() < d {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> PmemPool {
        PmemPool::new(PoolConfig { size: 1 << 16, shards: 4, ..Default::default() })
    }

    #[test]
    fn write_is_visible_immediately() {
        let p = pool();
        p.write_u64(PAddr(128), 42);
        assert_eq!(p.read_u64(PAddr(128)), 42);
    }

    #[test]
    fn unflushed_write_is_lost_on_pessimistic_crash() {
        let p = pool();
        p.write_u64(PAddr(0), 7);
        let img = p.crash_image(&mut |_, _| false);
        assert_eq!(img.read_u64(PAddr(0)), 0, "dirty line dropped");
    }

    #[test]
    fn flushed_unfenced_write_may_be_lost() {
        let p = pool();
        p.write_u64(PAddr(0), 7);
        p.flush(PAddr(0), 8);
        // Pending lines survive only if the policy says the clwb completed.
        let lost = p.crash_image(&mut |_, _| false);
        assert_eq!(lost.read_u64(PAddr(0)), 0);
        let kept = p.crash_image(&mut |_, pending| pending);
        assert_eq!(kept.read_u64(PAddr(0)), 7);
    }

    #[test]
    fn flush_fence_makes_durable() {
        let p = pool();
        p.write_u64(PAddr(64), 9);
        p.persist(PAddr(64), 8);
        let img = p.crash_image(&mut |_, _| false);
        assert_eq!(img.read_u64(PAddr(64)), 9);
        assert_eq!(p.non_durable_lines(), 0);
    }

    #[test]
    fn fence_does_not_persist_dirty_lines() {
        let p = pool();
        p.write_u64(PAddr(0), 1); // dirty, never flushed
        p.write_u64(PAddr(64), 2);
        p.flush(PAddr(64), 8);
        p.fence();
        let img = p.crash_image(&mut |_, _| false);
        assert_eq!(img.read_u64(PAddr(0)), 0, "dirty line survives fence unpersisted");
        assert_eq!(img.read_u64(PAddr(64)), 2);
    }

    #[test]
    fn eviction_may_persist_dirty_lines() {
        let p = pool();
        p.write_u64(PAddr(0), 5);
        let img = p.crash_image(&mut |_, _| true); // cache evicted everything
        assert_eq!(img.read_u64(PAddr(0)), 5);
    }

    #[test]
    fn clean_flush_counted_as_wasted() {
        let p = pool();
        p.write_u64(PAddr(0), 1);
        p.persist(PAddr(0), 8);
        let before = p.stats().clean_flushes;
        p.flush(PAddr(0), 8); // redundant: line already clean
        assert_eq!(p.stats().clean_flushes, before + 1);
    }

    #[test]
    fn refetching_pending_line_is_wasted_flush() {
        let p = pool();
        p.write_u64(PAddr(0), 1);
        p.flush(PAddr(0), 8);
        let before = p.stats().clean_flushes;
        p.flush(PAddr(0), 8);
        assert_eq!(p.stats().clean_flushes, before + 1);
    }

    #[test]
    fn cross_shard_write_reads_back() {
        let p = pool();
        let shard_bytes = p.shard_bytes;
        let addr = PAddr(shard_bytes - 4); // straddles two shards
        p.write(addr, &[1, 2, 3, 4, 5, 6, 7, 8]);
        let mut buf = [0u8; 8];
        p.read(addr, &mut buf);
        assert_eq!(buf, [1, 2, 3, 4, 5, 6, 7, 8]);
        p.persist(addr, 8);
        let img = p.crash_image(&mut |_, _| false);
        let mut out = [0u8; 8];
        img.read(addr, &mut out);
        assert_eq!(out, [1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn stats_count_operations() {
        let p = pool();
        p.write_u64(PAddr(0), 1);
        p.read_u64(PAddr(0));
        p.flush(PAddr(0), 8);
        p.fence();
        let s = p.stats();
        assert_eq!(s.stores, 1);
        assert_eq!(s.loads, 1);
        assert_eq!(s.flushes, 1);
        assert_eq!(s.fences, 1);
        assert_eq!(s.lines_written_back, 1);
        assert_eq!(s.bytes_stored, 8);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_write_panics() {
        let p = pool();
        let size = p.size();
        p.write_u64(PAddr(size), 1);
    }

    #[test]
    fn try_read_reports_out_of_range() {
        let p = pool();
        let mut b = [0u8; 8];
        let err = p.try_read(PAddr(p.size()), &mut b).unwrap_err();
        assert!(matches!(err, crate::PmemError::OutOfRange { .. }));
        assert!(p.try_write(PAddr(p.size() - 4), &b).is_err());
    }

    #[test]
    fn poisoned_line_fails_reads_until_scrubbed() {
        let p = pool();
        p.write_u64(PAddr(256), 5);
        p.poison_line(4, false); // permanent
        let mut b = [0u8; 8];
        assert_eq!(
            p.try_read(PAddr(256), &mut b),
            Err(crate::PmemError::MediaError { line: 4, transient: false })
        );
        // Still failing: permanent poison survives retries.
        assert!(p.read_reliable(PAddr(256), &mut b, 3).is_err());
        // A full-line rewrite scrubs the damage.
        let mut fresh = [0u8; CACHE_LINE as usize];
        fresh[..8].copy_from_slice(&6u64.to_le_bytes());
        p.write(PAddr(256), &fresh);
        assert_eq!(p.try_read_u64(PAddr(256)), Ok(6));
    }

    #[test]
    fn partial_store_does_not_scrub_permanent_poison() {
        let p = pool();
        p.write_u64(PAddr(256), 5);
        p.poison_line(4, false); // permanent damage on line 4
                                 // An 8-byte store inside the 64-byte line must not heal it: the
                                 // other 56 bytes are still unreadable on media.
        p.write_u64(PAddr(256), 6);
        let mut b = [0u8; 8];
        assert_eq!(
            p.try_read(PAddr(256), &mut b),
            Err(crate::PmemError::MediaError { line: 4, transient: false })
        );
        // A full-line store that merely *overlaps* the line (straddling
        // into the neighbour) scrubs only the fully rewritten line.
        p.poison_line(5, false);
        let buf = [7u8; CACHE_LINE as usize + 8];
        p.write(PAddr(4 * CACHE_LINE), &buf); // covers line 4, dips into 5
        assert!(p.try_read(PAddr(4 * CACHE_LINE), &mut b).is_ok(), "line 4 scrubbed");
        assert_eq!(
            p.try_read(PAddr(5 * CACHE_LINE), &mut b),
            Err(crate::PmemError::MediaError { line: 5, transient: false }),
            "line 5 only partially rewritten"
        );
    }

    #[test]
    fn partial_store_still_scrubs_transient_poison() {
        let p = pool();
        p.write_u64(PAddr(128), 9);
        p.poison_line(2, true);
        // Any store allocates the line in cache; the pending ECC retry for
        // a transient error never runs.
        p.write_u64(PAddr(128), 10);
        assert_eq!(p.try_read_u64(PAddr(128)), Ok(10));
    }

    #[test]
    fn transient_poison_clears_after_one_failed_read() {
        let p = pool();
        p.write_u64(PAddr(128), 9);
        p.poison_line(2, true);
        let mut b = [0u8; 8];
        assert!(p.try_read(PAddr(128), &mut b).is_err());
        assert_eq!(p.try_read_u64(PAddr(128)), Ok(9), "retry succeeds");
        // And read_reliable hides the transient entirely.
        p.poison_line(2, true);
        assert_eq!(p.read_reliable(PAddr(128), &mut b, 2), Ok(()));
    }

    #[test]
    fn torn_store_splits_surviving_dirty_line() {
        let p = PmemPool::with_faults(
            PoolConfig { size: 1 << 16, shards: 4, ..Default::default() },
            crate::FaultConfig { seed: 3, torn_store_rate: 1.0, ..Default::default() },
        );
        p.write_u64(PAddr(64), u64::MAX); // all-ones over all-zeros, dirty
        let img = p.crash_image(&mut |_, _| true); // line survives un-retired
        let v = img.read_u64(PAddr(64));
        assert_ne!(v, u64::MAX, "suffix of old zero bytes resurfaced");
        assert_ne!(v, 0, "prefix of the new store landed");
        let stats = p.fault_stats().unwrap();
        assert_eq!(stats.torn_marks, 1);
        assert!(stats.torn_applied >= 1);
    }

    #[test]
    fn fence_retires_torn_marks() {
        let p = PmemPool::with_faults(
            PoolConfig { size: 1 << 16, shards: 4, ..Default::default() },
            crate::FaultConfig { seed: 3, torn_store_rate: 1.0, ..Default::default() },
        );
        p.write_u64(PAddr(64), u64::MAX);
        p.persist(PAddr(64), 8);
        let img = p.crash_image(&mut |_, _| true);
        assert_eq!(img.read_u64(PAddr(64)), u64::MAX, "durable stores never tear");
    }

    #[test]
    fn dropped_flush_leaves_line_dirty_through_fence() {
        let p = PmemPool::with_faults(
            PoolConfig { size: 1 << 16, shards: 4, ..Default::default() },
            crate::FaultConfig { seed: 1, dropped_flush_rate: 1.0, ..Default::default() },
        );
        p.write_u64(PAddr(0), 7);
        p.flush(PAddr(0), 8); // clwb retires but is dropped
        p.fence();
        assert_eq!(p.non_durable_lines(), 1, "the line silently stayed dirty");
        assert_eq!(p.fault_stats().unwrap().dropped_flushes, 1);
        assert_eq!(p.stats().dropped_flushes, 1, "pool stats record the drop too");
        assert_eq!(p.stats().flushes, 1, "the clwb itself still counts as issued");
        let img = p.crash_image(&mut |_, _| false);
        assert_eq!(img.read_u64(PAddr(0)), 0, "the value never became durable");
    }

    #[test]
    fn crash_poison_travels_through_reboot() {
        let p = PmemPool::with_faults(
            PoolConfig { size: 1 << 16, shards: 4, ..Default::default() },
            crate::FaultConfig { seed: 5, poison_rate: 0.1, ..Default::default() },
        );
        p.write_u64(PAddr(512), 42);
        p.persist(PAddr(512), 8);
        let img = p.crash_image(&mut |_, _| false);
        assert!(!img.poisoned().is_empty(), "poison rate 0.1 over 1024 lines");
        let p2 = img.reboot(4);
        assert_eq!(p2.poisoned_line_count(), img.poisoned().len());
        let (line, _) = img.poisoned()[0];
        let mut b = [0u8; 8];
        assert!(p2.try_read(PAddr(line * CACHE_LINE), &mut b).is_err());
    }

    #[test]
    fn cas_succeeds_only_on_expected_value() {
        let p = pool();
        p.write_u64(PAddr(64), 5);
        assert_eq!(p.cas_u64(PAddr(64), 5, 9), Ok(()));
        assert_eq!(p.read_u64(PAddr(64)), 9);
        assert_eq!(p.cas_u64(PAddr(64), 5, 11), Err(9), "stale expected loses");
        assert_eq!(p.read_u64(PAddr(64)), 9);
        let s = p.stats();
        assert_eq!(s.cas_ops, 2);
        assert_eq!(s.cas_failures, 1);
    }

    #[test]
    fn cas_is_visible_not_durable() {
        let p = pool();
        p.write_u64(PAddr(0), 1);
        p.persist(PAddr(0), 8);
        assert_eq!(p.cas_u64(PAddr(0), 1, 2), Ok(()));
        let img = p.crash_image(&mut |_, _| false);
        assert_eq!(img.read_u64(PAddr(0)), 1, "un-flushed CAS result is lost");
        p.persist(PAddr(0), 8);
        let img = p.crash_image(&mut |_, _| false);
        assert_eq!(img.read_u64(PAddr(0)), 2);
    }

    #[test]
    fn concurrent_cas_increments_never_lose_updates() {
        let p = std::sync::Arc::new(pool());
        std::thread::scope(|s| {
            for _ in 0..8 {
                let p = p.clone();
                s.spawn(move || {
                    for _ in 0..100 {
                        loop {
                            let cur = p.read_u64(PAddr(0));
                            if p.cas_u64(PAddr(0), cur, cur + 1).is_ok() {
                                break;
                            }
                        }
                    }
                });
            }
        });
        assert_eq!(p.read_u64(PAddr(0)), 800, "every increment landed exactly once");
    }

    #[test]
    fn concurrent_writers_disjoint_ranges() {
        let p = std::sync::Arc::new(pool());
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let p = p.clone();
                s.spawn(move || {
                    for i in 0..64u64 {
                        let addr = PAddr(t * 4096 + i * 64);
                        p.write_u64(addr, t * 1000 + i);
                        p.persist(addr, 8);
                    }
                });
            }
        });
        for t in 0..8u64 {
            for i in 0..64u64 {
                assert_eq!(p.read_u64(PAddr(t * 4096 + i * 64)), t * 1000 + i);
            }
        }
        assert_eq!(p.non_durable_lines(), 0);
    }
}
