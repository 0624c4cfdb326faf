//! Deterministic fault injection for the simulated NVM stack.
//!
//! Real persistent-memory deployments fail in ways the clean pool model
//! never shows: an 8-byte store can be torn mid-flight when power fails
//! (the ADR domain only guarantees whole-line atomicity for lines that
//! reached the write-pending queue), an issued `clwb` can retire without
//! the write-back ever completing, and media cells wear out so reads
//! return poisoned lines (machine-check / `EIO` on real DIMMs). A
//! [`FaultPlan`] injects all three, driven by one seeded RNG so a failing
//! run replays exactly from its seed:
//!
//! * **Torn stores** — at store time a dirty line may be marked torn: if
//!   the crash catches the line before its write-back retires, the crash
//!   image shows a prefix of the new bytes and a suffix of the old bytes,
//!   split at a random byte boundary inside the stored span. Lines whose
//!   write-back completes (fence) shed the mark — durability heals tears.
//! * **Dropped flushes** — a `clwb` retires from the program's point of
//!   view (the call returns, stats count it) but the line silently stays
//!   dirty, so the following fence persists nothing for it. This models
//!   a lost entry in the write-pending queue and is invisible to the
//!   program until the crash.
//! * **Poisoned lines** — at crash time, surviving lines may be marked
//!   poisoned (transient or permanent). Reads through
//!   [`crate::PmemPool::try_read`] return [`PmemError::MediaError`];
//!   transient poison clears after one failed read (ECC retry succeeds)
//!   or any store to the line (the store allocates it in cache);
//!   permanent poison clears only when a store rewrites the *whole* line
//!   (scrub-on-write — a partial store leaves unreadable bytes on media,
//!   so reads keep failing). The pool-header line is never poisoned —
//!   real pools replicate their superblock.
//!
//! Everything is deterministic for a fixed [`FaultConfig::seed`] and call
//! sequence; the crash-sweep driver relies on this to replay violations.

use crate::pool::CACHE_LINE;
use deepmc_obs as obs;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Typed pool-access failure, replacing the panicking slice paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PmemError {
    /// Access outside the pool.
    OutOfRange { addr: u64, len: u64, size: u64 },
    /// A cache line in the accessed range is poisoned; reads fail.
    /// Transient errors succeed when retried, permanent ones do not.
    MediaError { line: u64, transient: bool },
}

impl fmt::Display for PmemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PmemError::OutOfRange { addr, len, size } => {
                write!(f, "pmem access out of range: addr={addr:#x} len={len} size={size:#x}")
            }
            PmemError::MediaError { line, transient } => write!(
                f,
                "pmem media error on cache line {line} ({})",
                if *transient { "transient" } else { "permanent" }
            ),
        }
    }
}

impl std::error::Error for PmemError {}

/// Fault-injection rates, all per opportunity (store span / flush / line).
/// Zero rates make the plan a deterministic no-op.
#[derive(Debug, Clone, Copy)]
pub struct FaultConfig {
    /// RNG seed; the whole plan replays from it.
    pub seed: u64,
    /// Probability a stored span is marked torn (applied only if the line
    /// dies un-retired at the crash).
    pub torn_store_rate: f64,
    /// Probability an issued `clwb` retires without writing back.
    pub dropped_flush_rate: f64,
    /// Expected fraction of pool lines poisoned per crash.
    pub poison_rate: f64,
    /// Fraction of poisoned lines that are transient (retry succeeds).
    pub transient_rate: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0,
            torn_store_rate: 0.0,
            dropped_flush_rate: 0.0,
            poison_rate: 0.0,
            transient_rate: 0.5,
        }
    }
}

/// A recorded torn-store possibility: the old bytes of one stored span
/// within a single cache line, plus the byte boundary where the tear
/// lands.
#[derive(Debug, Clone)]
pub(crate) struct TornMark {
    /// Absolute pool offset of the span start.
    pub start: u64,
    /// Pre-store content of the span.
    pub old: Vec<u8>,
    /// Bytes of the new store that made it; `old[split..]` resurfaces.
    pub split: usize,
}

/// Monotonic fault counters.
#[derive(Debug, Default)]
struct FaultCounters {
    torn_marks: AtomicU64,
    torn_applied: AtomicU64,
    dropped_flushes: AtomicU64,
    poisoned_lines: AtomicU64,
}

/// Point-in-time copy of the fault counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Spans marked torn at store time.
    pub torn_marks: u64,
    /// Torn marks actually applied to a crash image.
    pub torn_applied: u64,
    /// `clwb`s that retired without a write-back.
    pub dropped_flushes: u64,
    /// Lines poisoned across all crash images taken.
    pub poisoned_lines: u64,
}

/// The injection engine, owned by a [`crate::PmemPool`].
pub struct FaultPlan {
    config: FaultConfig,
    rng: Mutex<StdRng>,
    /// Torn marks keyed by global cache-line index. At most one per line:
    /// the latest store wins (earlier values are not recoverable anyway).
    torn: Mutex<HashMap<u64, TornMark>>,
    counters: FaultCounters,
}

impl FaultPlan {
    pub fn new(config: FaultConfig) -> FaultPlan {
        FaultPlan {
            rng: Mutex::new(StdRng::seed_from_u64(config.seed)),
            torn: Mutex::new(HashMap::new()),
            counters: FaultCounters::default(),
            config,
        }
    }

    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// A store of `old.len()` bytes at absolute offset `start` (within one
    /// cache line) is about to overwrite `old`. Maybe mark it torn.
    pub(crate) fn on_store(&self, line: u64, start: u64, old: &[u8]) {
        debug_assert_eq!(start / CACHE_LINE, (start + old.len() as u64 - 1) / CACHE_LINE);
        let mut torn = self.torn.lock();
        // Any store to the line invalidates an earlier mark: its "old"
        // bytes no longer describe the pre-crash alternative.
        torn.remove(&line);
        if old.len() < 2 || self.config.torn_store_rate <= 0.0 {
            return;
        }
        let mut rng = self.rng.lock();
        if rng.gen_bool(self.config.torn_store_rate) {
            let split = rng.gen_range(1..old.len());
            torn.insert(line, TornMark { start, old: old.to_vec(), split });
            self.counters.torn_marks.fetch_add(1, Ordering::Relaxed);
            obs::counter("fault.torn_marks", 1);
        }
    }

    /// The line's write-back completed: the store is retired, no tear.
    pub(crate) fn on_writeback(&self, line: u64) {
        self.torn.lock().remove(&line);
    }

    /// Should this `clwb` silently drop?
    pub(crate) fn drop_flush(&self, _line: u64) -> bool {
        if self.config.dropped_flush_rate <= 0.0 {
            return false;
        }
        let dropped = self.rng.lock().gen_bool(self.config.dropped_flush_rate);
        if dropped {
            self.counters.dropped_flushes.fetch_add(1, Ordering::Relaxed);
        }
        dropped
    }

    /// The torn mark for `line`, if any (cloned: several crash images may
    /// be taken from one pool state).
    pub(crate) fn torn_mark(&self, line: u64) -> Option<TornMark> {
        let mark = self.torn.lock().get(&line).cloned();
        if mark.is_some() {
            self.counters.torn_applied.fetch_add(1, Ordering::Relaxed);
            obs::counter("fault.torn_applied", 1);
        }
        mark
    }

    /// Pick the poisoned lines for one crash image over `total_lines`
    /// pool lines. Line 0 (pool header) is exempt. Returns
    /// `(line, transient)` pairs.
    pub(crate) fn poison_lines(&self, total_lines: u64) -> Vec<(u64, bool)> {
        if self.config.poison_rate <= 0.0 || total_lines < 2 {
            return Vec::new();
        }
        // Expected-count sampling keeps this O(poisoned) instead of one
        // RNG draw per pool line per image.
        let expected = (total_lines as f64 * self.config.poison_rate).ceil() as u64;
        let mut rng = self.rng.lock();
        let mut out = Vec::new();
        let mut drawn = HashSet::new();
        for _ in 0..expected {
            let line = rng.gen_range(1..total_lines);
            if !drawn.insert(line) {
                continue;
            }
            let transient = rng.gen_bool(self.config.transient_rate);
            out.push((line, transient));
        }
        self.counters.poisoned_lines.fetch_add(out.len() as u64, Ordering::Relaxed);
        obs::counter("fault.poisoned_lines", out.len() as u64);
        out
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            torn_marks: self.counters.torn_marks.load(Ordering::Relaxed),
            torn_applied: self.counters.torn_applied.load(Ordering::Relaxed),
            dropped_flushes: self.counters.dropped_flushes.load(Ordering::Relaxed),
            poisoned_lines: self.counters.poisoned_lines.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rates_inject_nothing() {
        let plan = FaultPlan::new(FaultConfig::default());
        for i in 0..100 {
            plan.on_store(i, i * 64, &[1, 2, 3, 4, 5, 6, 7, 8]);
            assert!(!plan.drop_flush(i));
        }
        assert_eq!(plan.poison_lines(1 << 16), Vec::new());
        assert_eq!(plan.stats(), FaultStats::default());
    }

    #[test]
    fn torn_marks_are_installed_and_retired() {
        let plan =
            FaultPlan::new(FaultConfig { seed: 1, torn_store_rate: 1.0, ..Default::default() });
        plan.on_store(3, 3 * 64, &[0u8; 8]);
        let mark = plan.torn_mark(3).expect("rate 1.0 always marks");
        assert!(mark.split >= 1 && mark.split < 8);
        plan.on_writeback(3);
        assert!(plan.torn_mark(3).is_none(), "write-back retires the store");
    }

    #[test]
    fn plan_is_deterministic_per_seed() {
        let run = |seed| {
            let plan = FaultPlan::new(FaultConfig {
                seed,
                torn_store_rate: 0.5,
                dropped_flush_rate: 0.5,
                poison_rate: 0.01,
                transient_rate: 0.5,
            });
            let mut log = Vec::new();
            for i in 0..64 {
                plan.on_store(i, i * 64, &[0u8; 16]);
                log.push(plan.drop_flush(i));
            }
            (log, plan.poison_lines(4096))
        };
        assert_eq!(run(42).0, run(42).0);
        assert_eq!(run(42).1, run(42).1);
        assert_ne!(run(1).1, run(2).1, "different seeds diverge");
    }

    #[test]
    fn poison_never_hits_the_header_line() {
        let plan = FaultPlan::new(FaultConfig { seed: 9, poison_rate: 0.5, ..Default::default() });
        for _ in 0..50 {
            for (line, _) in plan.poison_lines(64) {
                assert_ne!(line, 0);
            }
        }
    }
}
