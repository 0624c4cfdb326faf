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
//! The configuration is folded once per pack; [`KeyBuilder::root_key`]
//! folds the rest into one key text per root, so a second `deepmc check`
//! run re-verifies only roots whose relevant inputs changed.
//!
//! # One pack per program
//!
//! A cache directory (default `.deepmc-cache/`) holds one pack file per
//! configuration and program, named by the FNV-1a hash of the schema
//! version, the configuration line and the sorted module file names
//! ([`pack_name`]). The checker reads its pack with one `fs::read` before
//! the fan-out, and workers look roots up in the read-only [`Pack`]
//! without touching the file system. After the merge the checker writes
//! the pack once — this run's hits and stored misses, in root order —
//! through a per-process temporary file and an atomic rename, and only
//! when its bytes would change ([`Pack::write`]). A pack that holds every
//! root also records a digest of the whole program
//! ([`KeyBuilder::program_digest`]); a check of that same program replays
//! its records without building the DSA ([`Pack::serves_whole`]). Two
//! processes sharing a directory do not exclude each other: each still
//! gets a correct report, and the last rename wins.
//!
//! # Pack format
//!
//! A 16-byte header followed by a little-endian packed payload:
//!
//! ```text
//! magic    b"DMCB"                         4 bytes
//! version  u16 LE (SCHEMA_VERSION)         2 bytes
//! endian   0x01 (little-endian payload)    1 byte
//! reserved 0x00                            1 byte
//! checksum u64 LE FNV-1a of the payload    8 bytes ([`checksum`])
//! payload  config line + digest + records  rest
//! ```
//!
//! The payload holds the configuration line once (compared on load, so a
//! name collision degrades to a miss), the u64 program digest (0 when
//! some root has no record), then one record per root: the
//! root's key text and a body, each u32-length-prefixed. The full key is
//! compared on lookup. A body holds the root's three scalar deltas, a
//! deduplicated string table (u32 count, then length-prefixed UTF-8) and
//! one fixed 32-byte record per warning whose string fields are u32 table
//! indices and whose enums are stable u8 codes (positions in
//! `BugClass::ALL` / `PersistencyModel::ALL` and the `FixHint`
//! declaration order). A record is self-contained, so a hit is copied
//! into the next pack byte for byte.
//!
//! A pack whose schema version or endian marker differs is *someone
//! else's*, not a broken one: it reads as a clean cold miss (the
//! `cache.version_miss` counter tracks these) and is replaced by this
//! run's write. A pack that claims our schema and then fails its
//! checksum, a parse, or the configuration comparison is moved to
//! `quarantine/`. On a cold start (no pack yet), pre-binary (JSON-era)
//! `*.json` entries in the directory are quarantined once, so old cache
//! directories self-heal.
//!
//! The cache stores *raw* (pre-deduplication) warnings and the root's
//! pruning/truncation deltas, so a warm run rebuilds the byte-identical
//! report, notes included.

use crate::config::DeepMcConfig;
use crate::report::{FixHint, Warning};
use deepmc_analysis::fxhash::FxHasher;
use deepmc_analysis::{CallGraph, DsaResult, FuncRef, FxHashMap, FxHashSet, PersistKind, Program};
use deepmc_models::{BugClass, PersistencyModel};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs;
use std::hash::{Hash as _, Hasher as _};
use std::io::{self, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};

/// Default cache directory, relative to the working directory.
pub const DEFAULT_CACHE_DIR: &str = ".deepmc-cache";

/// Subdirectory (under the cache dir) holding quarantined files.
pub const QUARANTINE_DIR: &str = "quarantine";

/// Pack-file magic: "DeepMC Binary".
pub const PACK_MAGIC: [u8; 4] = *b"DMCB";

/// Pack schema version; bump on any layout, key or code-table change so
/// old readers miss cleanly instead of misparsing.
pub const SCHEMA_VERSION: u16 = 4;

/// Endianness marker: all multi-byte fields are little-endian. A big-endian
/// writer would stamp a different marker, which reads as a clean miss.
pub const ENDIAN_MARK: u8 = 0x01;

const HEADER_LEN: usize = 16;

/// One root's cached analysis result.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheEntry {
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
    /// Fresh records written this run.
    pub stores: u64,
    /// Corrupt packs and JSON-era entries moved to quarantine this run.
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
}

impl AnalysisCache {
    /// Open (without yet creating) a cache rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> AnalysisCache {
        AnalysisCache { dir: dir.into() }
    }

    /// Move a bad file to `<dir>/quarantine/` (falling back to deletion)
    /// so it is inspected once, not re-missed on every run. Counted only
    /// when this call actually removed the file.
    fn quarantine(&self, pack: &mut Pack, path: &Path, reason: &str) {
        let qdir = self.dir.join(QUARANTINE_DIR);
        let moved = fs::create_dir_all(&qdir).is_ok()
            && path
                .file_name()
                .map(|name| fs::rename(path, qdir.join(name)).is_ok())
                .unwrap_or(false);
        if moved || fs::remove_file(path).is_ok() {
            pack.quarantined += 1;
            deepmc_obs::counter("cache.quarantined", 1);
            deepmc_obs::warning(
                "cache.quarantined",
                &format!("quarantined cache file {}: {reason}", path.display()),
            );
        }
    }

    /// Read the pack `name` ([`pack_name`]) with one `fs::read`. A missing
    /// pack is a cold start: JSON-era `*.json` entries in the directory are
    /// quarantined. A pack of another schema version or endianness is a
    /// clean miss (counted as `cache.version_miss`, not quarantined — this
    /// run's write replaces it). A pack that claims our schema but fails
    /// its checksum, a parse, or the comparison with `config_line` is
    /// quarantined. Each of these yields an empty pack.
    pub fn read_pack(&self, name: &str, config_line: &str) -> Pack {
        let mut pack = Pack {
            path: self.dir.join(name),
            config_line: config_line.to_string(),
            bytes: Vec::new(),
            records: Vec::new(),
            index: FxHashMap::default(),
            program: 0,
            on_disk: false,
            quarantined: 0,
        };
        let bytes = match fs::read(&pack.path) {
            Ok(bytes) => bytes,
            Err(e) => {
                if e.kind() == io::ErrorKind::NotFound {
                    self.quarantine_json_era(&mut pack);
                }
                return pack;
            }
        };
        match parse_pack(&bytes, config_line) {
            Ok((program, records)) => {
                for (i, (key, _)) in records.iter().enumerate() {
                    pack.index.entry(key_hash(&bytes[key.clone()])).or_insert(i);
                }
                pack.records = records;
                pack.program = program;
                pack.bytes = bytes;
                pack.on_disk = true;
            }
            Err(DecodeFail::VersionMiss(reason)) => {
                deepmc_obs::counter("cache.version_miss", 1);
                deepmc_obs::warning(
                    "cache.version_miss",
                    &format!("cold miss on {}: {reason}", pack.path.display()),
                );
            }
            Err(DecodeFail::Corrupt(reason)) => {
                let path = pack.path.clone();
                self.quarantine(&mut pack, &path, reason);
            }
        }
        pack
    }

    /// Quarantine every pre-binary (JSON-era) `*.json` entry in the cache
    /// directory; none can serve a lookup.
    fn quarantine_json_era(&self, pack: &mut Pack) {
        let Ok(dir) = fs::read_dir(&self.dir) else { return };
        let mut legacy: Vec<PathBuf> = dir
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json") && p.is_file())
            .collect();
        legacy.sort();
        for path in legacy {
            self.quarantine(pack, &path, "pre-binary (JSON-era) cache entry");
        }
    }
}

/// One record of the next pack, in root order.
#[derive(Debug, Clone)]
pub enum PackRecord {
    /// Record `i` of the loaded pack, copied byte for byte.
    Kept(usize),
    /// A freshly analyzed root: its key text, and its raw warnings as a
    /// range of the warnings handed to [`Pack::write`].
    Fresh {
        key: String,
        warnings: Range<usize>,
        paths_pruned: u64,
        events_truncated: u64,
        traces: u64,
    },
}

/// The pack of one configuration and program: the bytes of one read and
/// an index from key text to record. Read-only once loaded, so every
/// worker of a check looks roots up in it at once.
#[derive(Debug)]
pub struct Pack {
    path: PathBuf,
    config_line: String,
    bytes: Vec<u8>,
    /// Per record: the byte ranges of its key text and of the whole record.
    records: Vec<(Range<usize>, Range<usize>)>,
    /// [`key_hash`] of a key text → its first record.
    index: FxHashMap<u64, usize>,
    /// The [`KeyBuilder::program_digest`] the records cover every root of,
    /// or 0.
    program: u64,
    /// The bytes are a valid pack read from `path`.
    on_disk: bool,
    /// Files reading this pack moved to quarantine.
    quarantined: u64,
}

impl Pack {
    /// The pack file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// No record was loaded (cold start, foreign or quarantined pack).
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Corrupt packs and JSON-era entries that reading this pack moved to
    /// quarantine.
    pub fn quarantined(&self) -> u64 {
        self.quarantined
    }

    /// The records hold every root of the program with this digest, in
    /// root order, so they serve a whole check without an analysis.
    pub fn serves_whole(&self, program_digest: u64) -> bool {
        self.program != 0 && self.program == program_digest
    }

    /// Every record's entry, in pack order.
    pub fn entries(&self) -> impl Iterator<Item = CacheEntry> + '_ {
        (0..self.records.len()).map(|i| self.entry(i))
    }

    /// Look a root's key text up: its record index and entry.
    pub fn get(&self, key: &str) -> Option<(usize, CacheEntry)> {
        let &i = self.index.get(&key_hash(key.as_bytes()))?;
        (self.bytes[self.records[i].0.clone()] == *key.as_bytes()).then(|| (i, self.entry(i)))
    }

    fn entry(&self, i: usize) -> CacheEntry {
        // The body follows the key's end and its own u32 length; every
        // body was parsed once on load, so decoding cannot fail here.
        let (key, record) = &self.records[i];
        decode_body(&self.bytes[key.end + 4..record.end]).expect("bodies are checked on load")
    }

    /// Write `records` as this pack's next contents through a per-process
    /// temporary file and an atomic rename; `program` is the digest of the
    /// program whose every root they hold, or 0. Nothing is written when
    /// the bytes would not change (same digest, every record kept in
    /// place); returns whether the file was written.
    pub fn write(
        &self,
        records: &[PackRecord],
        warnings: &[Warning],
        program: u64,
    ) -> io::Result<bool> {
        let unchanged = self.on_disk
            && self.program == program
            && records.len() == self.records.len()
            && records.iter().enumerate().all(|(i, r)| matches!(r, PackRecord::Kept(k) if *k == i));
        if unchanged {
            return Ok(false);
        }
        let mut payload = Vec::new();
        put_bytes(&mut payload, self.config_line.as_bytes());
        put_u64(&mut payload, program);
        for record in records {
            match record {
                PackRecord::Kept(i) => {
                    payload.extend_from_slice(&self.bytes[self.records[*i].1.clone()])
                }
                PackRecord::Fresh {
                    key,
                    warnings: range,
                    paths_pruned,
                    events_truncated,
                    traces,
                } => {
                    put_bytes(&mut payload, key.as_bytes());
                    // The body's length prefix, filled in once it is known.
                    let at = payload.len();
                    put_u32(&mut payload, 0);
                    let body = &warnings[range.clone()];
                    encode_body(&mut payload, body, *paths_pruned, *events_truncated, *traces);
                    let len = (payload.len() - at - 4) as u32;
                    payload[at..at + 4].copy_from_slice(&len.to_le_bytes());
                }
            }
        }
        if let Some(dir) = self.path.parent() {
            fs::create_dir_all(dir)?;
        }
        let tmp = self.path.with_extension(format!("{}.tmp", std::process::id()));
        let written = fs::File::create(&tmp)
            .and_then(|mut f| f.write_all(&header(checksum(&payload))).and(f.write_all(&payload)))
            .and_then(|()| fs::rename(&tmp, &self.path));
        if written.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        written.map(|()| true)
    }
}

/// The pack file name for one configuration line and program:
/// `{FNV-1a of schema version, configuration line and sorted module file
/// names:016x}.bin`.
pub fn pack_name<'f>(config_line: &str, files: impl IntoIterator<Item = &'f str>) -> String {
    let mut files: Vec<&str> = files.into_iter().collect();
    files.sort_unstable();
    let mut h = Fnv::new();
    let _ = writeln!(h, "deepmc-pack-v{SCHEMA_VERSION}\nconfig {config_line}");
    for file in files {
        let _ = writeln!(h, "file {file}");
    }
    format!("{:016x}.bin", h.0)
}

fn header(checksum: u64) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[0..4].copy_from_slice(&PACK_MAGIC);
    h[4..6].copy_from_slice(&SCHEMA_VERSION.to_le_bytes());
    h[6] = ENDIAN_MARK;
    h[8..16].copy_from_slice(&checksum.to_le_bytes());
    h
}

// --- binary encoding -----------------------------------------------------

/// Why a pack did not load.
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

/// A u32 length prefix, then the bytes.
fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
}

/// Deduplicating string-table builder for a record body.
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

/// Append one record body: the scalar deltas, the string table, then the
/// packed warnings.
fn encode_body(
    out: &mut Vec<u8>,
    warnings: &[Warning],
    paths_pruned: u64,
    events_truncated: u64,
    traces: u64,
) {
    let mut tab = StringTable::default();
    let refs: Vec<[u32; 4]> = warnings
        .iter()
        .map(|w| {
            [
                tab.intern(&w.file),
                tab.intern(&w.function),
                tab.intern(&w.root),
                tab.intern(&w.message),
            ]
        })
        .collect();
    put_u64(out, paths_pruned);
    put_u64(out, events_truncated);
    put_u64(out, traces);
    put_u32(out, tab.strings.len() as u32);
    for s in &tab.strings {
        put_u32(out, s.len() as u32);
        out.extend_from_slice(s.as_bytes());
    }
    put_u32(out, warnings.len() as u32);
    for (w, &[file, function, root, message]) in warnings.iter().zip(&refs) {
        put_u32(out, file);
        put_u32(out, w.line);
        put_u32(out, function);
        put_u32(out, root);
        put_u32(out, message);
        let class = BugClass::ALL
            .iter()
            .position(|c| *c == w.class)
            .expect("BugClass::ALL covers every class") as u8;
        let model = PersistencyModel::ALL
            .iter()
            .position(|m| *m == w.model)
            .expect("PersistencyModel::ALL covers every model") as u8;
        let (tag, a, b) = fix_code(w.fix.as_ref());
        out.extend_from_slice(&[class, model, w.dynamic as u8, tag]);
        put_u32(out, a);
        put_u32(out, b);
    }
}

/// Bounds-checked cursor over a byte slice; all reads are in place.
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

    /// A u32 length prefix, then that many bytes.
    fn bytes(&mut self) -> Result<&'a [u8], &'static str> {
        let len = self.u32()? as usize;
        self.take(len)
    }
}

/// Check a pack's header, checksum and configuration line, and return its
/// program digest and each record's key range and whole-record range.
/// Every body is decoded once here, so a lookup never meets a malformed
/// one.
#[allow(clippy::type_complexity)]
fn parse_pack(
    bytes: &[u8],
    config_line: &str,
) -> Result<(u64, Vec<(Range<usize>, Range<usize>)>), DecodeFail> {
    use DecodeFail::{Corrupt, VersionMiss};
    if bytes.len() < HEADER_LEN {
        return Err(Corrupt("truncated header"));
    }
    if bytes[0..4] != PACK_MAGIC {
        return Err(Corrupt("bad magic"));
    }
    // Version and endianness are checked before the checksum: a
    // foreign-schema file is not ours to validate, let alone quarantine.
    if u16::from_le_bytes([bytes[4], bytes[5]]) != SCHEMA_VERSION {
        return Err(VersionMiss("schema version mismatch"));
    }
    if bytes[6] != ENDIAN_MARK {
        return Err(VersionMiss("foreign endianness"));
    }
    let sum = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    if sum != checksum(&bytes[HEADER_LEN..]) {
        return Err(Corrupt("checksum mismatch"));
    }
    let mut r = Reader { buf: &bytes[HEADER_LEN..] };
    if r.bytes().map_err(Corrupt)? != config_line.as_bytes() {
        return Err(Corrupt("configuration mismatch (pack name collision)"));
    }
    let program = r.u64().map_err(Corrupt)?;
    let mut records = Vec::new();
    while !r.buf.is_empty() {
        let start = bytes.len() - r.buf.len();
        let key = r.bytes().map_err(Corrupt)?;
        decode_body(r.bytes().map_err(Corrupt)?).map_err(Corrupt)?;
        let key_start = start + 4;
        records.push((key_start..key_start + key.len(), start..bytes.len() - r.buf.len()));
    }
    Ok((program, records))
}

fn decode_body(body: &[u8]) -> Result<CacheEntry, &'static str> {
    let mut r = Reader { buf: body };
    let paths_pruned = r.u64()?;
    let events_truncated = r.u64()?;
    let traces = r.u64()?;
    let n_strings = r.u32()? as usize;
    // Each string costs at least its 4-byte length prefix; a count the
    // body can't possibly hold is rejected before any preallocation.
    if n_strings > body.len() / 4 {
        return Err("string table overruns record");
    }
    let mut strings: Vec<&str> = Vec::with_capacity(n_strings);
    for _ in 0..n_strings {
        strings.push(std::str::from_utf8(r.bytes()?).map_err(|_| "non-UTF-8 string")?);
    }
    let resolve = |i: u32| -> Result<&str, &'static str> {
        strings.get(i as usize).copied().ok_or("string index out of range")
    };
    let n_warnings = r.u32()? as usize;
    // 32 bytes per packed warning record.
    if n_warnings > body.len() / 32 {
        return Err("warning table overruns record");
    }
    let mut warnings = Vec::with_capacity(n_warnings);
    for _ in 0..n_warnings {
        let file = resolve(r.u32()?)?;
        let line = r.u32()?;
        let function = resolve(r.u32()?)?;
        let root = resolve(r.u32()?)?;
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
            root: root.to_string(),
            message: message.to_string(),
            model,
            dynamic,
            fix: fix_from_code(tag, a, b)?,
        });
    }
    if !r.buf.is_empty() {
        return Err("trailing bytes after record");
    }
    Ok(CacheEntry { warnings, paths_pruned, events_truncated, traces })
}

/// The in-memory index hash of a key text. It never leaves the process,
/// so it takes the word-at-a-time analysis hasher.
fn key_hash(key: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(key);
    h.finish()
}

/// A pack's payload checksum: FNV-1a over the payload's 8-byte
/// little-endian words, the last one zero-padded, then the payload
/// length. One word per step instead of one byte reads a pack several
/// times faster, and a payload that differs from another in one word
/// still always sums differently ([`Fnv::word`]).
fn checksum(payload: &[u8]) -> u64 {
    let mut h = Fnv::new();
    let mut words = payload.chunks_exact(8);
    for word in &mut words {
        h.word(u64::from_le_bytes(word.try_into().unwrap()));
    }
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    h.word(u64::from_le_bytes(tail));
    h.word(payload.len() as u64);
    h.0
}

/// Incremental FNV-1a sink. As a [`std::hash::Hasher`] it digests a
/// value's derived `Hash` stream — every field, without rendering it as
/// text — and as a [`std::fmt::Write`] it digests formatted lines.
struct Fnv(u64);

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Fold one integer field as a single word. The step is a bijection of
    /// the state for a fixed word and injective in the word for a fixed
    /// state, so a stream that differs from another in one field always
    /// digests differently.
    fn word(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(FNV_PRIME);
    }
}

/// Integer fields — most of a function body's `Hash` stream — fold a word
/// at a time; strings and byte slices go through [`Fnv::update`].
impl std::hash::Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        self.update(bytes);
    }

    fn write_u8(&mut self, v: u8) {
        self.word(v as u64);
    }

    fn write_u16(&mut self, v: u16) {
        self.word(v as u64);
    }

    fn write_u32(&mut self, v: u32) {
        self.word(v as u64);
    }

    fn write_u64(&mut self, v: u64) {
        self.word(v);
    }

    fn write_usize(&mut self, v: usize) {
        self.word(v as u64);
    }
}

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

/// Per-run key construction context.
///
/// The expensive part of a key is digesting function bodies; reachable
/// sets of different roots overlap heavily, so the builder digests every
/// function (and every module's struct and symbol tables) exactly once, up
/// front, into a program-wide digest map that [`KeyBuilder::root_key`]
/// merely folds per root, and into one digest of the whole program
/// ([`KeyBuilder::program_digest`]). A warm `deepmc check` therefore pays
/// one body hash per function, not one per (root, reachable function)
/// pair. Bodies are digested through their derived `Hash` stream, not
/// their `Debug` text, which took five times as long. Precomputing
/// (instead of filling a lazy `RefCell` map) also makes the builder
/// `Sync`, so a worker pool can build all root keys concurrently.
pub struct KeyBuilder<'a> {
    program: &'a Program,
    config_line: String,
    /// Digest per defined function of its module's file name, its body
    /// and its module's struct and symbol tables.
    fn_digest: FxHashMap<FuncRef, u64>,
    program_digest: u64,
}

impl<'a> KeyBuilder<'a> {
    pub fn new(config: &DeepMcConfig, program: &'a Program) -> Self {
        let mut fn_digest = FxHashMap::default();
        let mut whole = Fnv::new();
        for (mi, m) in program.modules.iter().enumerate() {
            let mut h = Fnv::new();
            m.structs.hash(&mut h);
            // Call operands are interned handles, so a body digest alone
            // can't tell `call ext_a` from `call ext_b`: both hold the same
            // symbol index. The table that gives those indices meaning must
            // be part of the digest.
            m.symbols.strings().hash(&mut h);
            let mod_digest = h.0;
            (&m.name, &m.file).hash(&mut whole);
            whole.word(mod_digest);
            // Every function, declarations included, feeds the program
            // digest; defined ones also get a digest of their own.
            for (fi, f) in m.funcs() {
                let mut h = Fnv::new();
                m.file.hash(&mut h);
                f.hash(&mut h);
                h.word(mod_digest);
                whole.word(h.0);
                if !f.blocks.is_empty() {
                    fn_digest.insert(FuncRef::new(mi, fi), h.0);
                }
            }
        }
        KeyBuilder {
            program,
            config_line: format!("{config:?}"),
            fn_digest,
            program_digest: whole.0,
        }
    }

    /// The checker configuration, as the pack stores it.
    pub fn config_line(&self) -> &str {
        &self.config_line
    }

    /// This configuration's and program's pack file name ([`pack_name`]).
    pub fn pack_name(&self) -> String {
        pack_name(&self.config_line, self.program.modules.iter().map(|m| m.file.as_str()))
    }

    /// A digest of every module field the analysis reads: names, file
    /// names, struct and symbol tables and every function. A pack written
    /// for the same digest with a record for every root serves a whole
    /// check ([`Pack::serves_whole`]).
    pub fn program_digest(&self) -> u64 {
        self.program_digest
    }

    /// Build the key text of one analysis root: the DSG's persistence
    /// classification of the root's parameters, and a digest of every
    /// transitively reachable defined function's body plus its module's
    /// file name, struct table, and symbol table. The configuration is
    /// the pack's.
    pub fn root_key(&self, dsa: &DsaResult, cg: &CallGraph, root: FuncRef) -> String {
        let mut s = String::new();
        let f = self.program.func(root);
        let _ = writeln!(s, "root {}", f.name);

        // The only DSA facts trace collection reads: the persistence class
        // of each pointer parameter of the root.
        let g = dsa.graph(root);
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
        let mut reach = reachable(cg, root);
        reach.sort_unstable();
        let mut fold = Fnv::new();
        for fr in reach.iter() {
            fold.word(*self.fn_digest.get(fr).expect("reachable functions are defined"));
        }
        let _ = writeln!(s, "reach n={} digest={:016x}", reach.len(), fold.0);
        s
    }
}

/// Defined functions reachable from `root` through resolvable calls
/// (including `root` itself), off the prebuilt call-graph adjacency.
/// Membership goes through a hash set — a `Vec::contains` scan here is
/// quadratic on wide call graphs.
fn reachable(cg: &CallGraph, root: FuncRef) -> Vec<FuncRef> {
    let mut seen: FxHashSet<FuncRef> = FxHashSet::default();
    seen.insert(root);
    let mut work = vec![root];
    let mut order = vec![root];
    while let Some(fr) = work.pop() {
        for &t in cg.callees_of(fr) {
            if seen.insert(t) {
                order.push(t);
                work.push(t);
            }
        }
    }
    order
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

    /// The pack identity and root key of `main` under `config`.
    fn ident(src: &str, config: &DeepMcConfig) -> (String, String) {
        let p = program(src);
        let cg = CallGraph::build(&p);
        let dsa = DsaResult::analyze(&p, &cg);
        let kb = KeyBuilder::new(config, &p);
        (kb.pack_name(), kb.root_key(&dsa, &cg, p.resolve("main").unwrap()))
    }

    fn key_of(src: &str) -> String {
        ident(src, &DeepMcConfig::new(PersistencyModel::Strict)).1
    }

    const CONFIG: &str = "test-config";

    /// A scratch cache directory, emptied first.
    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("deepmc-pack-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// An entry exercising every packed field: shared strings, all three
    /// scalar deltas, and warnings with and without fix hints.
    fn rich_entry() -> CacheEntry {
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

    /// A fresh record of `e`, whose warnings are the first ones handed to
    /// the write.
    fn fresh(key: &str, e: &CacheEntry) -> PackRecord {
        PackRecord::Fresh {
            key: key.to_string(),
            warnings: 0..e.warnings.len(),
            paths_pruned: e.paths_pruned,
            events_truncated: e.events_truncated,
            traces: e.traces,
        }
    }

    /// Write a two-record pack (`k1` rich, `k2` empty) into `cache`.
    fn populate(cache: &AnalysisCache) -> PathBuf {
        let empty =
            CacheEntry { warnings: Vec::new(), paths_pruned: 0, events_truncated: 0, traces: 1 };
        let rich = rich_entry();
        let pack = cache.read_pack("p.bin", CONFIG);
        assert!(pack.write(&[fresh("k1", &rich), fresh("k2", &empty)], &rich.warnings, 0).unwrap());
        pack.path().to_path_buf()
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
    fn program_digest_covers_what_root_keys_leave_out() {
        // A declaration nothing calls is in no root key, but the analysis
        // reads every function, so the whole-program digest covers it.
        let config = DeepMcConfig::new(PersistencyModel::Strict);
        let digest = |src: &str| KeyBuilder::new(&config, &program(src)).program_digest();
        let declared = BASE.to_string() + "extern fn unused(%p: ptr s)\n";
        assert_eq!(key_of(BASE), key_of(&declared));
        assert_ne!(digest(BASE), digest(&declared));
        assert_eq!(digest(BASE), digest(BASE));
    }

    #[test]
    fn pack_name_changes_with_config_and_files() {
        let strict = ident(BASE, &DeepMcConfig::new(PersistencyModel::Strict));
        let epoch = ident(BASE, &DeepMcConfig::new(PersistencyModel::Epoch));
        assert_ne!(strict.0, epoch.0, "the configuration names the pack");
        assert_eq!(strict.1, epoch.1, "root keys leave the configuration to the pack");
        assert_eq!(pack_name(CONFIG, ["b.c", "a.c"]), pack_name(CONFIG, ["a.c", "b.c"]));
        assert_ne!(pack_name(CONFIG, ["a.c"]), pack_name(CONFIG, ["a.c", "b.c"]));
    }

    #[test]
    fn pack_roundtrips_every_field() {
        let dir = scratch("roundtrip");
        let cache = AnalysisCache::open(&dir);
        let cold = cache.read_pack("p.bin", CONFIG);
        assert!(cold.is_empty() && cold.get("k1").is_none(), "cold cache misses");
        populate(&cache);
        let warm = cache.read_pack("p.bin", CONFIG);
        assert_eq!(warm.entries().count(), 2);
        assert_eq!(warm.get("k1"), Some((0, rich_entry())));
        assert_eq!(warm.get("k2").map(|(i, e)| (i, e.traces)), Some((1, 1)));
        assert!(warm.get("k3").is_none(), "an unknown key misses");
        assert!(!warm.serves_whole(0) && !warm.serves_whole(7), "written for no program");
        // Kept in place: the bytes would not change, so nothing is written.
        assert!(!warm.write(&[PackRecord::Kept(0), PackRecord::Kept(1)], &[], 0).unwrap());
        // Written for a whole program: the pack serves that program only,
        // its records in order.
        assert!(warm.write(&[PackRecord::Kept(0), PackRecord::Kept(1)], &[], 7).unwrap());
        let whole = cache.read_pack("p.bin", CONFIG);
        assert!(whole.serves_whole(7) && !whole.serves_whole(8));
        let traces: Vec<u64> = whole.entries().map(|e| e.traces).collect();
        assert_eq!(traces, [5, 1]);
        // Kept records copy byte for byte into a reordered pack.
        assert!(whole.write(&[PackRecord::Kept(1), PackRecord::Kept(0)], &[], 0).unwrap());
        let swapped = cache.read_pack("p.bin", CONFIG);
        assert_eq!(swapped.get("k1"), Some((1, rich_entry())));
        let names: Vec<_> = fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
        assert_eq!(names, ["p.bin"], "one file per pack, no temporary left behind");
        // Another configuration's pack under the same name: quarantined.
        let other = cache.read_pack("p.bin", "other-config");
        assert!(other.is_empty() && other.quarantined() == 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn string_table_deduplicates_repeated_strings() {
        let mut body = Vec::new();
        let e = rich_entry();
        encode_body(&mut body, &e.warnings, 2, 1, 5);
        // The 8 warnings share file/function/root strings and each adds a
        // distinct message: "a.c", "f", "main", plus 8 messages = 11.
        let n = u32::from_le_bytes(body[24..28].try_into().unwrap());
        assert_eq!(n, 11, "repeated strings must be interned once");
        assert_eq!(decode_body(&body), Ok(e));
    }

    /// Damage the pack with `damage`, then expect one quarantine, a clean
    /// miss next, and a healed pack after a rewrite.
    fn quarantined_once_then_heals(tag: &str, damage: impl Fn(&mut Vec<u8>)) {
        let dir = scratch(tag);
        let cache = AnalysisCache::open(&dir);
        let path = populate(&cache);
        let mut bytes = fs::read(&path).unwrap();
        damage(&mut bytes);
        fs::write(&path, &bytes).unwrap();
        let damaged = cache.read_pack("p.bin", CONFIG);
        assert!(damaged.is_empty(), "{tag}: a damaged pack misses");
        assert_eq!(damaged.quarantined(), 1, "{tag}");
        assert!(!path.exists(), "{tag}: the damaged pack was moved out of the way");
        let quarantined: Vec<_> =
            fs::read_dir(dir.join(QUARANTINE_DIR)).unwrap().collect::<Result<_, _>>().unwrap();
        assert_eq!(quarantined.len(), 1, "{tag}: the bad pack landed in quarantine/");
        // Self-healing: a clean miss quarantines nothing more, and the
        // rewritten pack serves again.
        let next = cache.read_pack("p.bin", CONFIG);
        assert!(
            next.is_empty() && next.quarantined() == 0,
            "{tag}: a clean miss quarantines nothing"
        );
        populate(&cache);
        assert_eq!(cache.read_pack("p.bin", CONFIG).get("k1"), Some((0, rich_entry())));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_pack_is_quarantined_once_then_heals() {
        // Flip a payload byte without updating the header checksum.
        quarantined_once_then_heals("corrupt", |b| *b.last_mut().unwrap() ^= 0xFF);
        quarantined_once_then_heals("garbage", |b| *b = b"not a cache pack at all".to_vec());
    }

    #[test]
    fn truncated_pack_is_quarantined_once_then_heals() {
        quarantined_once_then_heals("torn", |b| b.truncate(b.len() / 2));
        quarantined_once_then_heals("headerless", |b| b.truncate(HEADER_LEN - 1));
    }

    #[test]
    fn foreign_version_or_endianness_is_a_clean_miss() {
        type Damage = fn(&mut Vec<u8>);
        let foreign: [(&str, Damage); 2] = [
            ("version", |b| b[4..6].copy_from_slice(&(SCHEMA_VERSION + 1).to_le_bytes())),
            ("endian", |b| b[6] = 0x02), // a big-endian writer's marker
        ];
        for (tag, damage) in foreign {
            let dir = scratch(tag);
            let cache = AnalysisCache::open(&dir);
            let path = populate(&cache);
            let mut bytes = fs::read(&path).unwrap();
            damage(&mut bytes);
            fs::write(&path, &bytes).unwrap();
            let pack = cache.read_pack("p.bin", CONFIG);
            assert!(pack.is_empty(), "{tag}: a foreign pack misses");
            assert_eq!(pack.quarantined(), 0, "{tag}: a foreign pack is not quarantined");
            assert!(path.exists(), "{tag}: the foreign pack is left for our write");
            // This run's write replaces it and the pack works again.
            let rich = rich_entry();
            assert!(pack.write(&[fresh("k1", &rich)], &rich.warnings, 0).unwrap());
            assert_eq!(cache.read_pack("p.bin", CONFIG).get("k1"), Some((0, rich)));
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn json_era_entries_are_quarantined_once_on_a_cold_start() {
        let dir = scratch("json");
        let cache = AnalysisCache::open(&dir);
        fs::create_dir_all(&dir).unwrap();
        let legacy = dir.join("00000000000000af.json");
        fs::write(&legacy, b"{\"key\":\"k\"}\ndeepmc-entry-fnv1a:0000000000000000\n").unwrap();
        let cold = cache.read_pack("p.bin", CONFIG);
        assert!(cold.is_empty(), "a JSON-era entry serves nothing");
        assert_eq!(cold.quarantined(), 1, "the stale format is quarantined once");
        assert!(!legacy.exists());
        assert_eq!(cache.read_pack("p.bin", CONFIG).quarantined(), 0);
        populate(&cache);
        assert_eq!(cache.read_pack("p.bin", CONFIG).get("k1"), Some((0, rich_entry())));
        let _ = fs::remove_dir_all(&dir);
    }
}
