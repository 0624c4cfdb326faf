//! On-disk incremental analysis cache.
//!
//! Trace collection and rule application dominate `deepmc check` wall time
//! (DSA and CFG construction are near-linear; bounded-DFS path
//! enumeration is not). Both are deterministic per analysis root, and a
//! root's warnings depend only on:
//!
//! * the checker configuration,
//! * the root function's body and the bodies of every transitively
//!   reachable defined callee (plus each one's module file name, which
//!   appears in warning locations, struct table, which feeds
//!   field-count-sensitive rules, and symbol table, which call operands
//!   index into),
//! * the DSG's persistence classification of the root's pointer
//!   parameters — the only DSA facts the collector consumes.
//!
//! [`root_key`] folds exactly those inputs into a content hash, so a
//! second `deepmc check` run re-verifies only roots whose relevant inputs
//! changed. Entries are one binary file per root under the cache directory
//! (default `.deepmc-cache/`), named by the FNV-1a hash of the key; the
//! full key text is stored inside each entry and compared on load, so a
//! hash collision degrades to a miss instead of wrong output.
//!
//! # Entry file format
//!
//! A 16-byte header followed by a little-endian packed payload:
//!
//! ```text
//! magic    b"DMCB"                         4 bytes
//! version  u16 LE (SCHEMA_VERSION)         2 bytes
//! endian   0x01 (little-endian payload)    1 byte
//! reserved 0x00                            1 byte
//! checksum u64 LE FNV-1a of the payload    8 bytes
//! payload  string table + packed records   rest
//! ```
//!
//! The payload holds a deduplicated string table (u32 count, then
//! length-prefixed UTF-8) followed by the entry scalars and one fixed
//! 32-byte record per warning whose string fields are u32 table indices
//! and whose enums are stable u8 codes (positions in `BugClass::ALL` /
//! `PersistencyModel::ALL` and the `FixHint` declaration order). The
//! reader parses the byte slice in place — strings are materialized once,
//! straight out of the read buffer, with no intermediate tree.
//!
//! A file whose schema version or endian marker differs is *someone
//! else's* entry, not a broken one: it reads as a clean cold miss (the
//! `cache.version_miss` counter tracks these) and is simply overwritten
//! by this run's store. Only files that claim our schema and then fail
//! checksum, parse, or key verification are quarantined. Pre-binary
//! (JSON-era) `{hash}.json` entries found where a `.bin` is missing are
//! quarantined once so old cache directories self-heal.
//!
//! The cache stores *raw* (pre-deduplication) warnings and the root's
//! pruning/truncation deltas, so a warm run rebuilds the byte-identical
//! report, notes included.
//!
//! Entries are safe to read and write concurrently: stores go through a
//! tmp-file + atomic rename, and a cold root can be *claimed* (an
//! `O_EXCL` side file) so concurrent workers — in this process or
//! another — never double-compute it; see [`AnalysisCache::claim`].

use crate::config::DeepMcConfig;
use crate::report::{FixHint, Warning};
use deepmc_analysis::{CallGraph, DsaResult, FuncRef, PersistKind, Program};
use deepmc_models::{BugClass, PersistencyModel};
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, SystemTime};

/// Default cache directory, relative to the working directory.
pub const DEFAULT_CACHE_DIR: &str = ".deepmc-cache";

/// Subdirectory (under the cache dir) holding quarantined entries.
pub const QUARANTINE_DIR: &str = "quarantine";

/// Default staleness cutoff for claim files: a claim whose mtime has not
/// advanced for this long has a dead holder ([`ClaimGuard`] heartbeats
/// well inside it).
pub const DEFAULT_CLAIM_STALENESS: Duration = Duration::from_secs(2);

/// Entry-file magic: "DeepMC Binary".
pub const ENTRY_MAGIC: [u8; 4] = *b"DMCB";

/// Entry-file schema version; bump on any layout or code-table change so
/// old readers miss cleanly instead of misparsing.
pub const SCHEMA_VERSION: u16 = 3;

/// Endianness marker: all multi-byte fields are little-endian. A big-endian
/// writer would stamp a different marker, which reads as a clean miss.
pub const ENDIAN_MARK: u8 = 0x01;

const HEADER_LEN: usize = 16;

/// One cached per-root analysis result.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheEntry {
    /// The full (pre-hash) key text; verified on load so hash collisions
    /// degrade to misses.
    pub key: String,
    /// Root function name (diagnostics only).
    pub root: String,
    /// Raw, pre-deduplication warnings this root produced.
    pub warnings: Vec<Warning>,
    /// Branch forks pruned while collecting this root's traces.
    pub paths_pruned: u64,
    /// Events truncated while collecting this root's traces.
    pub events_truncated: u64,
    /// Number of traces the root produced (for reporting).
    pub traces: u64,
}

/// Counters for one checker run against a cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheRunStats {
    /// Roots served from the cache.
    pub hits: u64,
    /// Roots analyzed because no valid entry existed.
    pub misses: u64,
    /// Fresh entries written this run.
    pub stores: u64,
    /// Corrupt or key-mismatched entries moved to quarantine this run.
    pub quarantined: u64,
    /// Traces collected or (for hits) skipped-and-accounted.
    pub traces: u64,
}

impl CacheRunStats {
    /// Hit rate in [0, 1]; 0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Handle to an on-disk cache directory.
#[derive(Debug, Clone)]
pub struct AnalysisCache {
    dir: PathBuf,
    /// A claim whose mtime is older than this is a dead holder; live
    /// holders heartbeat at a quarter of it.
    staleness: Duration,
    /// Entries quarantined through this handle (clones share the counter).
    quarantined: Arc<AtomicU64>,
    /// Clean misses caused by a schema-version or endianness mismatch.
    version_miss: Arc<AtomicU64>,
}

impl AnalysisCache {
    /// Open (without yet creating) a cache rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> AnalysisCache {
        AnalysisCache {
            dir: dir.into(),
            staleness: DEFAULT_CLAIM_STALENESS,
            quarantined: Arc::new(AtomicU64::new(0)),
            version_miss: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Builder-style: override the claim staleness cutoff (and, with it,
    /// the heartbeat interval). Mostly for tests and CI chaos harnesses.
    pub fn with_staleness(mut self, staleness: Duration) -> AnalysisCache {
        self.staleness = staleness.max(Duration::from_millis(1));
        self
    }

    /// The cache directory path.
    pub fn dir(&self) -> &std::path::Path {
        &self.dir
    }

    /// Entries quarantined through this handle (and its clones) so far.
    pub fn quarantined_count(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
    }

    /// Clean misses served because an entry had a different schema version
    /// or endianness (counted by this handle and its clones).
    pub fn version_miss_count(&self) -> u64 {
        self.version_miss.load(Ordering::Relaxed)
    }

    fn path_for(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{:016x}.bin", fnv1a(key.as_bytes())))
    }

    /// Where the pre-binary (JSON) format stored this key's entry.
    fn legacy_path_for(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{:016x}.json", fnv1a(key.as_bytes())))
    }

    fn claim_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{:016x}.claim", fnv1a(key.as_bytes())))
    }

    /// Move a bad entry file to `<dir>/quarantine/` (falling back to
    /// deletion) so it is inspected once, not re-missed on every run.
    /// Counted only when this handle actually removed the file — two
    /// workers racing on the same corrupt entry quarantine it once.
    fn quarantine(&self, path: &Path, reason: &str) {
        let qdir = self.dir.join(QUARANTINE_DIR);
        let moved = fs::create_dir_all(&qdir).is_ok()
            && path
                .file_name()
                .map(|name| fs::rename(path, qdir.join(name)).is_ok())
                .unwrap_or(false);
        if moved || fs::remove_file(path).is_ok() {
            self.quarantined.fetch_add(1, Ordering::Relaxed);
            deepmc_obs::counter("cache.quarantined", 1);
            deepmc_obs::warning(
                "cache.quarantined",
                &format!("quarantined cache entry {}: {reason}", path.display()),
            );
        }
    }

    /// Look up a key. A missing file is a plain miss; an entry from a
    /// different schema version or endianness is a *clean* miss (counted,
    /// not quarantined — this run's store will overwrite it); a file that
    /// claims our schema but fails checksum, parse, or key verification is
    /// quarantined (self-healing: the next run misses cleanly instead of
    /// re-tripping forever). A JSON-era entry squatting on a cold key is
    /// quarantined once.
    pub fn lookup(&self, key: &str) -> Option<CacheEntry> {
        let path = self.path_for(key);
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(_) => {
                let legacy = self.legacy_path_for(key);
                if legacy.exists() {
                    self.quarantine(&legacy, "pre-binary (JSON-era) cache entry");
                }
                return None;
            }
        };
        match decode_entry(&bytes) {
            Ok(entry) if entry.key == key => Some(entry),
            Ok(_) => {
                self.quarantine(&path, "key mismatch (hash collision or stale format)");
                None
            }
            Err(DecodeFail::VersionMiss(reason)) => {
                self.version_miss.fetch_add(1, Ordering::Relaxed);
                deepmc_obs::counter("cache.version_miss", 1);
                deepmc_obs::warning(
                    "cache.version_miss",
                    &format!("cold miss on {}: {reason}", path.display()),
                );
                None
            }
            Err(DecodeFail::Corrupt(reason)) => {
                self.quarantine(&path, reason);
                None
            }
        }
    }

    /// Store an entry; failures are silent (a cache must never break the
    /// check itself — the next run simply misses).
    pub fn store(&self, entry: &CacheEntry) {
        if fs::create_dir_all(&self.dir).is_err() {
            return;
        }
        let path = self.path_for(&entry.key);
        let tmp = path.with_extension("tmp");
        if fs::write(&tmp, encode_entry(entry)).is_ok() {
            let _ = fs::rename(&tmp, &path);
        }
    }

    /// Try to claim a cold key for computation. `Some` means this caller
    /// won and must compute + [`AnalysisCache::store`] the entry (the
    /// returned guard releases the claim on drop, success or panic);
    /// `None` means another worker holds the claim — poll with
    /// [`AnalysisCache::wait_for`] instead of recomputing.
    ///
    /// The claim is an `O_EXCL`-created side file, so it also excludes
    /// workers in *other* processes sharing the cache directory. While the
    /// guard lives, a background thread bumps the claim file's mtime every
    /// `staleness / 4`, so [`AnalysisCache::wait_for`] can tell a slow
    /// holder (mtime advancing) from a dead one (mtime frozen).
    pub fn claim(&self, key: &str) -> Option<ClaimGuard> {
        if fs::create_dir_all(&self.dir).is_err() {
            // Unusable cache directory: claims can't exclude anyone, so
            // pretend we won and let `store` fail silently later.
            return Some(ClaimGuard { path: None, heartbeat: None });
        }
        let path = self.claim_path(key);
        match fs::OpenOptions::new().write(true).create_new(true).open(&path) {
            Ok(_) => {
                let heartbeat = Heartbeat::spawn(path.clone(), self.staleness / 4);
                Some(ClaimGuard { path: Some(path), heartbeat })
            }
            Err(_) => None,
        }
    }

    /// Wait for the holder of `key`'s claim to publish its entry. Returns
    /// `None` if the claim disappears without an entry or goes stale (its
    /// mtime stops advancing, i.e. the holder died without dropping its
    /// [`ClaimGuard`]); the stale claim is broken so the caller can
    /// compute the root itself. A live holder may be waited on
    /// indefinitely — its heartbeat is the liveness proof.
    pub fn wait_for(&self, key: &str) -> Option<CacheEntry> {
        let claim = self.claim_path(key);
        loop {
            if let Some(entry) = self.lookup(key) {
                return Some(entry);
            }
            let Ok(meta) = fs::metadata(&claim) else {
                // Claim released: one final look, then treat as ours.
                return self.lookup(key);
            };
            // A future or unreadable mtime reads as "fresh just now":
            // coarse clocks must not make us break a live holder's claim.
            // An mtime the platform can't report at all reads as stale —
            // worst case is a benign double-compute (stores are atomic
            // and idempotent).
            let fresh = meta.modified().is_ok_and(|m| {
                SystemTime::now().duration_since(m).unwrap_or(Duration::ZERO) < self.staleness
            });
            if !fresh {
                let _ = fs::remove_file(&claim);
                return None;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

// --- binary entry encoding ----------------------------------------------

/// Why a decode did not produce an entry.
enum DecodeFail {
    /// Another schema wrote this file; it is not ours to validate.
    VersionMiss(&'static str),
    /// The file claims our schema but is damaged.
    Corrupt(&'static str),
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Deduplicating string-table builder for the payload.
#[derive(Default)]
struct StringTable<'a> {
    strings: Vec<&'a str>,
    index: HashMap<&'a str, u32>,
}

impl<'a> StringTable<'a> {
    fn intern(&mut self, s: &'a str) -> u32 {
        if let Some(&i) = self.index.get(s) {
            return i;
        }
        let i = self.strings.len() as u32;
        self.strings.push(s);
        self.index.insert(s, i);
        i
    }
}

/// Stable wire code for a fix hint: (tag, operand a, operand b). Tag 0 is
/// "no fix"; tags 1.. follow [`FixHint`]'s declaration order.
fn fix_code(fix: Option<&FixHint>) -> (u8, u32, u32) {
    match fix {
        None => (0, 0, 0),
        Some(FixHint::FlushAndFenceStore { store_line }) => (1, *store_line, 0),
        Some(FixHint::LogObjectBeforeStore { store_line }) => (2, *store_line, 0),
        Some(FixHint::InsertFenceAfter { line }) => (3, *line, 0),
        Some(FixHint::InsertFenceBefore { line }) => (4, *line, 0),
        Some(FixHint::RemoveWriteback { line }) => (5, *line, 0),
        Some(FixHint::MovePersistToStore { store_line, flush_line }) => {
            (6, *store_line, *flush_line)
        }
        Some(FixHint::NarrowWriteback { line }) => (7, *line, 0),
    }
}

fn fix_from_code(tag: u8, a: u32, b: u32) -> Result<Option<FixHint>, &'static str> {
    Ok(match tag {
        0 => None,
        1 => Some(FixHint::FlushAndFenceStore { store_line: a }),
        2 => Some(FixHint::LogObjectBeforeStore { store_line: a }),
        3 => Some(FixHint::InsertFenceAfter { line: a }),
        4 => Some(FixHint::InsertFenceBefore { line: a }),
        5 => Some(FixHint::RemoveWriteback { line: a }),
        6 => Some(FixHint::MovePersistToStore { store_line: a, flush_line: b }),
        7 => Some(FixHint::NarrowWriteback { line: a }),
        _ => return Err("unknown fix-hint code"),
    })
}

/// Serialize an entry: header (magic, version, endian marker, payload
/// checksum) followed by the packed little-endian payload.
fn encode_entry(entry: &CacheEntry) -> Vec<u8> {
    let mut tab = StringTable::default();
    let key = tab.intern(&entry.key);
    let root = tab.intern(&entry.root);
    let warn_refs: Vec<(u32, u32, u32, u32)> = entry
        .warnings
        .iter()
        .map(|w| {
            (
                tab.intern(&w.file),
                tab.intern(&w.function),
                tab.intern(&w.root),
                tab.intern(&w.message),
            )
        })
        .collect();

    let mut payload = Vec::new();
    put_u32(&mut payload, tab.strings.len() as u32);
    for s in &tab.strings {
        put_u32(&mut payload, s.len() as u32);
        payload.extend_from_slice(s.as_bytes());
    }
    put_u32(&mut payload, key);
    put_u32(&mut payload, root);
    put_u64(&mut payload, entry.paths_pruned);
    put_u64(&mut payload, entry.events_truncated);
    put_u64(&mut payload, entry.traces);
    put_u32(&mut payload, entry.warnings.len() as u32);
    for (w, &(file, function, wroot, message)) in entry.warnings.iter().zip(&warn_refs) {
        put_u32(&mut payload, file);
        put_u32(&mut payload, w.line);
        put_u32(&mut payload, function);
        put_u32(&mut payload, wroot);
        put_u32(&mut payload, message);
        let class = BugClass::ALL
            .iter()
            .position(|c| *c == w.class)
            .expect("BugClass::ALL covers every class") as u8;
        let model = PersistencyModel::ALL
            .iter()
            .position(|m| *m == w.model)
            .expect("PersistencyModel::ALL covers every model") as u8;
        let (tag, a, b) = fix_code(w.fix.as_ref());
        payload.push(class);
        payload.push(model);
        payload.push(w.dynamic as u8);
        payload.push(tag);
        put_u32(&mut payload, a);
        put_u32(&mut payload, b);
    }

    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&ENTRY_MAGIC);
    out.extend_from_slice(&SCHEMA_VERSION.to_le_bytes());
    out.push(ENDIAN_MARK);
    out.push(0); // reserved
    out.extend_from_slice(&fnv1a(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Bounds-checked cursor over the payload byte slice; all reads are
/// in-place (no copies until final `String` materialization).
struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], &'static str> {
        if self.buf.len() < n {
            return Err("truncated payload");
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, &'static str> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, &'static str> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, &'static str> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

fn decode_entry(bytes: &[u8]) -> Result<CacheEntry, DecodeFail> {
    use DecodeFail::{Corrupt, VersionMiss};
    if bytes.len() < HEADER_LEN {
        return Err(Corrupt("truncated header"));
    }
    if bytes[0..4] != ENTRY_MAGIC {
        return Err(Corrupt("bad magic"));
    }
    // Version and endianness are checked before the checksum: a
    // foreign-schema file is not ours to validate, let alone quarantine.
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != SCHEMA_VERSION {
        return Err(VersionMiss("schema version mismatch"));
    }
    if bytes[6] != ENDIAN_MARK {
        return Err(VersionMiss("foreign endianness"));
    }
    let sum = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    let payload = &bytes[HEADER_LEN..];
    if sum != fnv1a(payload) {
        return Err(Corrupt("checksum mismatch"));
    }
    parse_payload(payload).map_err(Corrupt)
}

fn parse_payload(payload: &[u8]) -> Result<CacheEntry, &'static str> {
    let mut r = Reader { buf: payload };
    let n_strings = r.u32()? as usize;
    // Each string costs at least its 4-byte length prefix; a count the
    // payload can't possibly hold is rejected before any preallocation.
    if n_strings > payload.len() / 4 {
        return Err("string table overruns payload");
    }
    let mut strings: Vec<&str> = Vec::with_capacity(n_strings);
    for _ in 0..n_strings {
        let len = r.u32()? as usize;
        let raw = r.take(len)?;
        strings.push(std::str::from_utf8(raw).map_err(|_| "non-UTF-8 string")?);
    }
    let resolve = |i: u32| -> Result<&str, &'static str> {
        strings.get(i as usize).copied().ok_or("string index out of range")
    };

    let key = resolve(r.u32()?)?;
    let root = resolve(r.u32()?)?;
    let paths_pruned = r.u64()?;
    let events_truncated = r.u64()?;
    let traces = r.u64()?;
    let n_warnings = r.u32()? as usize;
    // 32 bytes per packed warning record.
    if n_warnings > payload.len() / 32 {
        return Err("warning table overruns payload");
    }
    let mut warnings = Vec::with_capacity(n_warnings);
    for _ in 0..n_warnings {
        let file = resolve(r.u32()?)?;
        let line = r.u32()?;
        let function = resolve(r.u32()?)?;
        let wroot = resolve(r.u32()?)?;
        let message = resolve(r.u32()?)?;
        let class = *BugClass::ALL.get(r.u8()? as usize).ok_or("unknown bug-class code")?;
        let model =
            *PersistencyModel::ALL.get(r.u8()? as usize).ok_or("unknown persistency-model code")?;
        let dynamic = match r.u8()? {
            0 => false,
            1 => true,
            _ => return Err("bad boolean"),
        };
        let tag = r.u8()?;
        let a = r.u32()?;
        let b = r.u32()?;
        warnings.push(Warning {
            file: file.to_string(),
            line,
            class,
            function: function.to_string(),
            root: wroot.to_string(),
            message: message.to_string(),
            model,
            dynamic,
            fix: fix_from_code(tag, a, b)?,
        });
    }
    if !r.buf.is_empty() {
        return Err("trailing bytes after entry");
    }
    Ok(CacheEntry {
        key: key.to_string(),
        root: root.to_string(),
        warnings,
        paths_pruned,
        events_truncated,
        traces,
    })
}

/// Background mtime-bumper for a held claim file.
#[derive(Debug)]
struct Heartbeat {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Heartbeat {
    fn spawn(path: PathBuf, interval: Duration) -> Option<Heartbeat> {
        let interval = interval.max(Duration::from_millis(10));
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let handle = std::thread::Builder::new()
            .name("deepmc-claim-heartbeat".into())
            .spawn(move || {
                while !stop2.load(Ordering::Acquire) {
                    if let Ok(f) = fs::OpenOptions::new().write(true).open(&path) {
                        let _ = f.set_modified(SystemTime::now());
                    }
                    std::thread::park_timeout(interval);
                }
            })
            .ok()?;
        Some(Heartbeat { stop, handle: Some(handle) })
    }
}

impl Drop for Heartbeat {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            handle.thread().unpark();
            let _ = handle.join();
        }
    }
}

/// RAII release of a [`AnalysisCache::claim`]; removing the claim file
/// wakes waiters whether or not an entry was stored. The heartbeat stops
/// first so a final mtime bump can't resurrect the removed file.
#[derive(Debug)]
pub struct ClaimGuard {
    path: Option<PathBuf>,
    heartbeat: Option<Heartbeat>,
}

impl Drop for ClaimGuard {
    fn drop(&mut self) {
        drop(self.heartbeat.take());
        if let Some(path) = &self.path {
            let _ = fs::remove_file(path);
        }
    }
}

/// FNV-1a 64-bit (no external hasher dependencies; stability across runs
/// and platforms matters more than collision resistance, and collisions
/// are verified away by storing the key text).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FnvWriter::new();
    h.update(bytes);
    h.0
}

/// Incremental FNV-1a sink; implements [`std::fmt::Write`] so `Debug`
/// output can be digested without materializing the string.
struct FnvWriter(u64);

impl FnvWriter {
    fn new() -> FnvWriter {
        FnvWriter(0xcbf2_9ce4_8422_2325)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

impl std::fmt::Write for FnvWriter {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

/// Per-run key construction context.
///
/// The expensive part of a key is digesting function bodies; reachable
/// sets of different roots overlap heavily, so the builder digests every
/// defined function (and every module's struct table) exactly once, up
/// front, into a program-wide line map that [`KeyBuilder::root_key`]
/// merely slices per root. A warm `deepmc check` therefore pays one body
/// hash per function, not one per (root, reachable function) pair —
/// without this, key construction can cost more than the analysis it
/// saves on small programs. Precomputing (instead of filling a lazy
/// `RefCell` map) also makes the builder `Sync`, so a worker pool can
/// build all root keys concurrently.
pub struct KeyBuilder<'a> {
    program: &'a Program,
    dsa: &'a DsaResult,
    cg: &'a CallGraph,
    config_line: String,
    /// Pre-rendered digest line per defined function:
    /// `file|name|body-digest|module-digest`.
    fn_line: HashMap<FuncRef, String>,
}

impl<'a> KeyBuilder<'a> {
    pub fn new(
        config: &DeepMcConfig,
        program: &'a Program,
        dsa: &'a DsaResult,
        cg: &'a CallGraph,
    ) -> Self {
        let mut mod_hash: HashMap<u32, u64> = HashMap::new();
        let mut fn_line = HashMap::new();
        for fr in program.defined_funcs() {
            let mod_digest = *mod_hash.entry(fr.module).or_insert_with(|| {
                let m = &program.modules[fr.module as usize];
                let mut h = FnvWriter::new();
                let _ = write!(h, "{:?}", m.structs);
                // Call operands are interned handles, so a body digest
                // alone can't tell `call ext_a` from `call ext_b`: both
                // print as the same symbol index. The table that gives
                // those indices meaning must be part of the digest.
                let _ = write!(h, "{:?}", m.symbols.strings());
                h.0
            });
            let mut h = FnvWriter::new();
            let _ = write!(h, "{:?}", program.func(fr));
            let m = program.module_of(fr);
            fn_line.insert(
                fr,
                format!("{}|{}|{:016x}|{:016x}", m.file, program.func(fr).name, h.0, mod_digest),
            );
        }
        KeyBuilder { program, dsa, cg, config_line: format!("{config:?}"), fn_line }
    }

    /// Build the content key for one analysis root: checker config, the
    /// DSG's persistence classification of the root's parameters, and a
    /// digest of every transitively reachable defined function's body plus
    /// its module's file name, struct table, and symbol table.
    pub fn root_key(&self, root: FuncRef) -> String {
        let program = self.program;
        let mut s = String::new();
        let f = program.func(root);
        // v3: call operands are interned symbols, so function-body digests
        // changed shape and module digests now fold the symbol table; v2
        // (string-callee) entries must not satisfy v3 lookups.
        let _ = writeln!(s, "deepmc-cache-v3");
        let _ = writeln!(s, "config {}", self.config_line);
        let _ = writeln!(s, "root {}", f.name);

        // The only DSA facts trace collection reads: the persistence class
        // of each pointer parameter of the root.
        let g = self.dsa.graph(root);
        for (i, p) in f.params().iter().enumerate() {
            let kind = if let deepmc_pir::Ty::Ptr(_) = p.ty {
                g.param_node(i)
                    .map(|n| g.node(n).persist.unwrap_or(PersistKind::Unknown))
                    .unwrap_or(PersistKind::Unknown)
            } else {
                PersistKind::Unknown
            };
            let _ = writeln!(s, "param {i} {kind:?}");
        }

        // Transitively reachable defined functions, folded into one digest
        // in deterministic order. Each function contributes its module's
        // file name (appears in warning locations), its body digest, and
        // its module's struct- and symbol-table digest (field counts feed
        // the field-sensitive unmodified-writeback rule; symbols resolve
        // call operands).
        let mut reach = self.reachable(root);
        reach.sort();
        let mut fold = FnvWriter::new();
        for fr in reach.iter() {
            let line = self.fn_line.get(fr).expect("reachable functions are defined");
            let _ = writeln!(fold, "{line}");
        }
        let _ = writeln!(s, "reach n={} digest={:016x}", reach.len(), fold.0);
        s
    }

    /// Defined functions reachable from `root` through resolvable calls
    /// (including `root` itself), off the prebuilt call-graph adjacency.
    /// Membership goes through a `HashSet` — a `Vec::contains` scan here
    /// is quadratic on wide call graphs.
    fn reachable(&self, root: FuncRef) -> Vec<FuncRef> {
        let mut seen: HashSet<FuncRef> = HashSet::from([root]);
        let mut work = vec![root];
        let mut order = vec![root];
        while let Some(fr) = work.pop() {
            for &t in self.cg.callees_of(fr) {
                if seen.insert(t) {
                    order.push(t);
                    work.push(t);
                }
            }
        }
        order
    }
}

/// One-shot [`KeyBuilder::root_key`] (per-run digest sharing thrown away).
pub fn root_key(
    config: &DeepMcConfig,
    program: &Program,
    dsa: &DsaResult,
    root: FuncRef,
) -> String {
    let cg = CallGraph::build(program);
    KeyBuilder::new(config, program, dsa, &cg).root_key(root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepmc_models::PersistencyModel;
    use deepmc_pir::parse;

    fn program(src: &str) -> Program {
        Program::single(parse(src).unwrap())
    }

    const BASE: &str = r#"
module m
struct s { a: i64 }
fn leaf(%q: ptr s) {
entry:
  store %q.a, 1
  ret
}
fn main() {
entry:
  %x = palloc s
  call leaf(%x)
  fence
  ret
}
"#;

    fn key_of(src: &str) -> String {
        let p = program(src);
        let cg = CallGraph::build(&p);
        let dsa = DsaResult::analyze(&p, &cg);
        let config = DeepMcConfig::new(PersistencyModel::Strict);
        let root = p.resolve("main").unwrap();
        root_key(&config, &p, &dsa, root)
    }

    /// An entry exercising every packed field: shared strings, all three
    /// scalar deltas, and warnings with and without fix hints.
    fn rich_entry(key: &str) -> CacheEntry {
        let warning = |line: u32, class: BugClass, fix: Option<FixHint>| Warning {
            file: "a.c".into(),
            line,
            class,
            function: "f".into(),
            root: "main".into(),
            message: format!("warning at line {line}"),
            model: PersistencyModel::Epoch,
            dynamic: line.is_multiple_of(2),
            fix,
        };
        CacheEntry {
            key: key.into(),
            root: "main".into(),
            warnings: vec![
                warning(1, BugClass::UnflushedWrite, None),
                warning(
                    2,
                    BugClass::UnflushedWrite,
                    Some(FixHint::FlushAndFenceStore { store_line: 2 }),
                ),
                warning(
                    3,
                    BugClass::UnflushedWrite,
                    Some(FixHint::LogObjectBeforeStore { store_line: 3 }),
                ),
                warning(
                    4,
                    BugClass::MissingPersistBarrier,
                    Some(FixHint::InsertFenceAfter { line: 4 }),
                ),
                warning(
                    5,
                    BugClass::MissingBarrierNestedTx,
                    Some(FixHint::InsertFenceBefore { line: 5 }),
                ),
                warning(
                    6,
                    BugClass::RedundantWriteback,
                    Some(FixHint::RemoveWriteback { line: 6 }),
                ),
                warning(
                    7,
                    BugClass::SemanticMismatch,
                    Some(FixHint::MovePersistToStore { store_line: 7, flush_line: 9 }),
                ),
                warning(
                    8,
                    BugClass::UnmodifiedWriteback,
                    Some(FixHint::NarrowWriteback { line: 8 }),
                ),
            ],
            paths_pruned: 2,
            events_truncated: 1,
            traces: 5,
        }
    }

    #[test]
    fn key_is_stable_across_runs() {
        assert_eq!(key_of(BASE), key_of(BASE));
    }

    #[test]
    fn key_changes_when_a_callee_changes() {
        let changed = BASE.replace("store %q.a, 1", "store %q.a, 2");
        assert_ne!(key_of(BASE), key_of(&changed));
    }

    #[test]
    fn key_changes_when_an_extern_callee_is_renamed() {
        // The two programs' defined bodies print identically — the call
        // stores a symbol index, and the extern is not a defined function
        // — so only the symbol-table fold in the module digest can tell
        // them apart.
        let a = BASE.replace("fence", "call ext_a(%x)") + "extern fn ext_a(%p: ptr s)\n";
        let b = BASE.replace("fence", "call ext_b(%x)") + "extern fn ext_b(%p: ptr s)\n";
        assert_ne!(key_of(&a), key_of(&b));
    }

    #[test]
    fn key_changes_with_config() {
        let p = program(BASE);
        let cg = CallGraph::build(&p);
        let dsa = DsaResult::analyze(&p, &cg);
        let root = p.resolve("main").unwrap();
        let strict = DeepMcConfig::new(PersistencyModel::Strict);
        let epoch = DeepMcConfig::new(PersistencyModel::Epoch);
        assert_ne!(root_key(&strict, &p, &dsa, root), root_key(&epoch, &p, &dsa, root));
    }

    #[test]
    fn store_then_lookup_roundtrips() {
        let dir = std::env::temp_dir().join(format!("deepmc-cache-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cache = AnalysisCache::open(&dir);
        let entry = rich_entry("k1");
        assert!(cache.lookup("k1").is_none(), "cold cache misses");
        cache.store(&entry);
        assert_eq!(cache.lookup("k1"), Some(entry));
        assert!(cache.lookup("k2").is_none(), "different key misses");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn claim_excludes_second_claimer_until_released() {
        let dir = std::env::temp_dir().join(format!("deepmc-cache-claim-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cache = AnalysisCache::open(&dir);
        let guard = cache.claim("k").expect("first claim wins");
        assert!(cache.claim("k").is_none(), "held claim must exclude");
        drop(guard);
        let again = cache.claim("k");
        assert!(again.is_some(), "released claim is re-claimable");
        drop(again);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn waiter_sees_entry_stored_by_claim_holder() {
        let dir = std::env::temp_dir().join(format!("deepmc-cache-wait-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cache = AnalysisCache::open(&dir);
        let entry = CacheEntry {
            key: "k".into(),
            root: "main".into(),
            warnings: Vec::new(),
            paths_pruned: 0,
            events_truncated: 0,
            traces: 1,
        };
        let guard = cache.claim("k").expect("claim");
        let got = std::thread::scope(|s| {
            let waiter = s.spawn(|| cache.wait_for("k"));
            std::thread::sleep(Duration::from_millis(10));
            cache.store(&entry);
            drop(guard);
            waiter.join().unwrap()
        });
        assert_eq!(got, Some(entry));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_claim_without_entry_is_broken() {
        let dir = std::env::temp_dir().join(format!("deepmc-cache-stale-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cache = AnalysisCache::open(&dir).with_staleness(Duration::from_millis(100));
        // Simulate a dead holder: the claim file exists but nothing
        // heartbeats it, as if the holding process was killed. Age the
        // mtime past the cutoff so the test doesn't sleep for it.
        fs::create_dir_all(&dir).unwrap();
        let claim = cache.claim_path("k");
        fs::write(&claim, b"").unwrap();
        let aged = SystemTime::now() - Duration::from_secs(5);
        fs::OpenOptions::new().write(true).open(&claim).unwrap().set_modified(aged).unwrap();
        assert_eq!(cache.wait_for("k"), None, "no entry ever appears");
        assert!(cache.claim("k").is_some(), "stale claim was broken");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn slow_but_alive_holder_is_not_declared_dead() {
        // Regression: wait_for used to break any claim older than a fixed
        // ~1s, double-computing behind every legitimately slow holder.
        // With heartbeating, a holder that takes many times the staleness
        // cutoff must still win the wait.
        let dir = std::env::temp_dir().join(format!("deepmc-cache-slow-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cache = AnalysisCache::open(&dir).with_staleness(Duration::from_millis(80));
        let entry = CacheEntry {
            key: "k".into(),
            root: "main".into(),
            warnings: Vec::new(),
            paths_pruned: 0,
            events_truncated: 0,
            traces: 3,
        };
        let guard = cache.claim("k").expect("claim");
        let got = std::thread::scope(|s| {
            let waiter = s.spawn(|| cache.wait_for("k"));
            // Holder "computes" for 5x the staleness cutoff.
            std::thread::sleep(Duration::from_millis(400));
            cache.store(&entry);
            drop(guard);
            waiter.join().unwrap()
        });
        assert_eq!(got, Some(entry), "waiter must get the slow holder's entry, not None");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entry_is_quarantined_once() {
        let dir = std::env::temp_dir().join(format!("deepmc-cache-quar-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cache = AnalysisCache::open(&dir);
        let entry = rich_entry("k");
        cache.store(&entry);
        let path = cache.path_for("k");
        // Flip a payload byte without updating the header checksum.
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        assert!(cache.lookup("k").is_none(), "corrupt entry is a miss");
        assert_eq!(cache.quarantined_count(), 1);
        assert!(!path.exists(), "corrupt file was moved out of the way");
        let quarantined: Vec<_> =
            fs::read_dir(dir.join(QUARANTINE_DIR)).unwrap().collect::<Result<_, _>>().unwrap();
        assert_eq!(quarantined.len(), 1, "the bad entry landed in quarantine/");
        // Self-healing: the key is now a clean miss and can be re-stored.
        assert!(cache.lookup("k").is_none());
        assert_eq!(cache.quarantined_count(), 1, "a clean miss quarantines nothing");
        cache.store(&entry);
        assert_eq!(cache.lookup("k"), Some(entry));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unparsable_entry_is_quarantined() {
        let dir = std::env::temp_dir().join(format!("deepmc-cache-garbage-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cache = AnalysisCache::open(&dir);
        fs::create_dir_all(&dir).unwrap();
        fs::write(cache.path_for("k"), b"not a cache entry at all").unwrap();
        assert!(cache.lookup("k").is_none());
        assert_eq!(cache.quarantined_count(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bumped_schema_version_is_a_clean_miss() {
        let dir = std::env::temp_dir().join(format!("deepmc-cache-ver-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cache = AnalysisCache::open(&dir);
        cache.store(&rich_entry("k"));
        let path = cache.path_for("k");
        // A future writer's entry: same magic, schema version + 1.
        let mut bytes = fs::read(&path).unwrap();
        let bumped = (SCHEMA_VERSION + 1).to_le_bytes();
        bytes[4] = bumped[0];
        bytes[5] = bumped[1];
        fs::write(&path, &bytes).unwrap();
        assert!(cache.lookup("k").is_none(), "foreign-version entry misses");
        assert_eq!(cache.quarantined_count(), 0, "a version miss is clean, not quarantine");
        assert_eq!(cache.version_miss_count(), 1);
        assert!(path.exists(), "the foreign entry is left for its owner (or our overwrite)");
        // This run's store overwrites it and the key works again.
        cache.store(&rich_entry("k"));
        assert_eq!(cache.lookup("k"), Some(rich_entry("k")));
        assert_eq!(cache.version_miss_count(), 1, "a valid entry is not a version miss");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_endianness_is_a_clean_miss() {
        let dir = std::env::temp_dir().join(format!("deepmc-cache-end-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cache = AnalysisCache::open(&dir);
        cache.store(&rich_entry("k"));
        let path = cache.path_for("k");
        let mut bytes = fs::read(&path).unwrap();
        bytes[6] = 0x02; // a big-endian writer's marker
        fs::write(&path, &bytes).unwrap();
        assert!(cache.lookup("k").is_none(), "foreign-endian entry misses");
        assert_eq!(cache.quarantined_count(), 0);
        assert_eq!(cache.version_miss_count(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn legacy_json_entry_is_quarantined_on_miss() {
        let dir = std::env::temp_dir().join(format!("deepmc-cache-json-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cache = AnalysisCache::open(&dir);
        fs::create_dir_all(&dir).unwrap();
        let legacy = cache.legacy_path_for("k");
        fs::write(&legacy, b"{\"key\":\"k\"}\ndeepmc-entry-fnv1a:0000000000000000\n").unwrap();
        assert!(cache.lookup("k").is_none(), "JSON-era entry can't serve a binary lookup");
        assert_eq!(cache.quarantined_count(), 1, "the stale format is quarantined once");
        assert!(!legacy.exists());
        // The key is now an ordinary cold key.
        assert!(cache.lookup("k").is_none());
        assert_eq!(cache.quarantined_count(), 1);
        cache.store(&rich_entry("k"));
        assert_eq!(cache.lookup("k"), Some(rich_entry("k")));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn collision_with_wrong_key_is_a_miss_and_quarantined() {
        let dir = std::env::temp_dir().join(format!("deepmc-cache-coll-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cache = AnalysisCache::open(&dir);
        // Simulate a colliding file: write `other`'s (well-formed) entry
        // where `mine` would hash.
        fs::create_dir_all(&dir).unwrap();
        let mine_path = dir.join(format!("{:016x}.bin", fnv1a(b"mine")));
        fs::write(&mine_path, encode_entry(&rich_entry("other"))).unwrap();
        assert!(cache.lookup("mine").is_none(), "key text mismatch rejects the entry");
        assert_eq!(cache.quarantined_count(), 1, "mismatched entry is quarantined, not re-missed");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn entry_checksum_roundtrip_and_rejection() {
        let entry = rich_entry("k");
        let encoded = encode_entry(&entry);
        assert_eq!(encoded[0..4], ENTRY_MAGIC);
        assert!(matches!(decode_entry(&encoded), Ok(e) if e == entry));
        let torn = &encoded[..encoded.len() / 2];
        assert!(
            matches!(decode_entry(torn), Err(DecodeFail::Corrupt(_))),
            "torn file rejected as corrupt"
        );
        assert!(
            matches!(decode_entry(&encoded[HEADER_LEN..]), Err(DecodeFail::Corrupt(_))),
            "headerless payload rejected"
        );
    }

    #[test]
    fn string_table_deduplicates_repeated_strings() {
        let entry = rich_entry("k");
        let encoded = encode_entry(&entry);
        // The 8 warnings share file/function/root strings and each adds a
        // distinct message: key, "main", "a.c", "f", plus 8 messages = 12.
        let n = u32::from_le_bytes(encoded[HEADER_LEN..HEADER_LEN + 4].try_into().unwrap());
        assert_eq!(n, 12, "repeated strings must be interned once");
    }
}
