//! # nvm-runtime — the simulated NVM substrate
//!
//! The original DeepMC evaluation ran on Intel Optane DC persistent memory
//! behind an out-of-order CPU cache hierarchy. This crate reproduces the
//! semantics that matter for persistency bugs (DESIGN.md §2):
//!
//! * [`pool`] — a byte-addressable persistent memory pool with per-cache-line
//!   state (`Clean` / `Dirty` / `FlushPending`), explicit `flush` (clwb) and
//!   `fence` (sfence) operations, *unpredictable eviction* at crash time,
//!   and operation statistics (write-backs, fences, bytes).
//! * [`heap`] — a persistent allocator with a durable root pointer, like
//!   PMDK pools.
//! * [`tx`] — undo-log durable transactions with real crash recovery: the
//!   log lives in the pool, so a simulated crash mid-transaction exercises
//!   the same recovery path a real system would.
//! * [`clock`], [`shadow`], [`race`] — vector clocks, direct-mapped shadow
//!   memory over the persistent address space, and the happens-before
//!   WAW/RAW detector DeepMC's dynamic checker uses for strand persistency
//!   (the stand-in for the paper's 458-line ThreadSanitizer customization).
//! * [`crash`] — crash policies and the crash images they take, which the
//!   crash explorer in `nvm-apps` reboots, recovers and validates to
//!   reproduce the paper's manual bug validation.
//! * [`fault`] — deterministic fault injection: torn stores, silently
//!   dropped `clwb`s, and poisoned lines surfacing as media errors, so
//!   recovery code can be validated against hardware-level failure modes
//!   rather than only clean crashes.

pub mod clock;
pub mod crash;
pub mod fault;
pub mod heap;
pub mod pool;
pub mod race;
pub mod shadow;
pub mod tx;

pub use clock::VectorClock;
pub use crash::{CrashImage, CrashPolicy};
pub use fault::{FaultConfig, FaultPlan, FaultStats, PmemError};
pub use heap::PmemHeap;
pub use pool::{PAddr, PmemPool, PoolConfig, PoolStats, CACHE_LINE};
pub use race::{RaceDetector, RaceKind, RaceReport, StrandId};
pub use tx::{Tx, TxManager};
