//! The run ledger: a durable, append-only record of instrumented runs.
//!
//! Every instrumented `check`/`crashsweep`/`repro-perf` invocation can
//! append one [`LedgerRecord`] to `.deepmc-obs/ledger.jsonl`. The format
//! borrows the sweep journal's durability discipline:
//!
//! * line 1 is the magic header [`LEDGER_MAGIC`];
//! * each subsequent line is `{"fingerprint":"<fnv64 hex>","record":{..}}`
//!   where the fingerprint covers the canonical JSON of the record;
//! * appends are single flushed writes, so a crash can tear at most the
//!   trailing line;
//! * on load, a torn trailing line (no `\n`) is tolerated and dropped,
//!   while an *interior* unparsable or fingerprint-mismatched line is
//!   rejected (counted, warned once, skipped) — a ledger is telemetry,
//!   not a source of truth, so unlike the sweep journal it degrades
//!   rather than quarantines.
//!
//! Records carry everything `deepmc stats` needs to compare runs without
//! the processes that produced them: a config digest, a caller-supplied
//! build id, exit code, counters, per-phase latency percentiles, and the
//! folded flamegraph stacks.

use crate::flame;
use crate::metrics::{CounterMetric, PhaseMetric};
use crate::ObsData;
use serde::{Deserialize, Serialize};
use std::io::Write as _;
use std::path::Path;

/// Bump on ANY change to the shape of [`LedgerRecord`] or its children.
pub const LEDGER_SCHEMA_VERSION: u32 = 1;

/// First line of every ledger file.
pub const LEDGER_MAGIC: &str = "deepmc-obs-ledger-v1";

/// Default ledger location, relative to the working directory.
pub const DEFAULT_LEDGER_PATH: &str = ".deepmc-obs/ledger.jsonl";

/// FNV-1a over bytes; the ledger's fingerprint hash (same construction
/// as the sweep journal and the analysis cache checksum).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// One folded flamegraph frame: a `;`-joined span stack and the time
/// spent in its leaf exclusive of children.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StackSample {
    pub stack: String,
    pub self_us: u64,
}

/// One run's durable telemetry record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LedgerRecord {
    /// Schema version; see [`LEDGER_SCHEMA_VERSION`].
    pub schema_version: u32,
    /// Which tool produced the record ("deepmc check", "crashsweep",
    /// "repro-perf").
    pub tool: String,
    /// Caller-supplied build identifier (git-describe output, CI sha,
    /// "dev" by default) — the axis `stats diff`/`regress` compares
    /// across.
    pub build_id: String,
    /// Digest of the run configuration (argv for the CLI), so stats can
    /// refuse to compare apples to oranges.
    pub config_digest: String,
    /// Process exit code the run finished with.
    pub exit_code: i32,
    /// Wall time, microseconds.
    pub wall_us: u64,
    /// Number of distinct workers that recorded events.
    pub workers: u32,
    /// All counters, sorted by name.
    pub counters: Vec<CounterMetric>,
    /// Per-phase totals and latency percentiles, sorted by name.
    pub phases: Vec<PhaseMetric>,
    /// Folded flamegraph stacks, sorted by stack string.
    pub stacks: Vec<StackSample>,
}

impl LedgerRecord {
    /// Build a record from merged recording data.
    pub fn from_data(
        tool: &str,
        build_id: &str,
        config_digest: &str,
        exit_code: i32,
        data: &ObsData,
    ) -> LedgerRecord {
        let snap = data.metrics_snapshot(tool);
        LedgerRecord {
            schema_version: LEDGER_SCHEMA_VERSION,
            tool: tool.to_string(),
            build_id: build_id.to_string(),
            config_digest: config_digest.to_string(),
            exit_code,
            wall_us: snap.wall_us,
            workers: snap.workers,
            counters: snap.counters,
            phases: snap.phases,
            stacks: flame::fold(data),
        }
    }

    /// Value of a counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|c| c.name == name).map(|c| c.value).unwrap_or(0)
    }

    /// The phase with the given name, if recorded.
    pub fn phase(&self, name: &str) -> Option<&PhaseMetric> {
        self.phases.iter().find(|p| p.name == name)
    }

    fn fingerprint(&self) -> u64 {
        let canon = serde_json::to_string(self).expect("ledger record serializes");
        fnv1a(canon.as_bytes())
    }

    /// The wire line for this record (no trailing newline).
    pub fn to_line(&self) -> String {
        let wrapper = LedgerLine {
            fingerprint: format!("{:016x}", self.fingerprint()),
            record: self.clone(),
        };
        serde_json::to_string(&wrapper).expect("ledger line serializes")
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct LedgerLine {
    fingerprint: String,
    record: LedgerRecord,
}

/// Result of reading a ledger file.
#[derive(Debug, Default)]
pub struct LedgerLoad {
    /// All verified records, in append order.
    pub records: Vec<LedgerRecord>,
    /// Interior lines rejected (unparsable or fingerprint mismatch).
    pub rejected: usize,
    /// Whether a torn (unterminated) trailing line was dropped.
    pub torn: bool,
}

/// Append `record` to the ledger at `path`, creating the file (and its
/// parent directory) with the magic header if needed. The record plus
/// newline is a single flushed write.
pub fn append(path: &Path, record: &LedgerRecord) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let fresh = std::fs::metadata(path).map(|m| m.len() == 0).unwrap_or(true);
    let mut f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
    let mut buf = String::new();
    if fresh {
        buf.push_str(LEDGER_MAGIC);
        buf.push('\n');
    }
    buf.push_str(&record.to_line());
    buf.push('\n');
    f.write_all(buf.as_bytes())?;
    f.flush()
}

/// Load the ledger at `path`. Fails hard only on I/O errors or a wrong
/// magic header; damaged interior lines are counted in
/// [`LedgerLoad::rejected`] and a torn trailing line sets
/// [`LedgerLoad::torn`].
pub fn load(path: &Path) -> Result<LedgerLoad, String> {
    let raw = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read ledger {}: {e}", path.display()))?;
    let mut out = LedgerLoad::default();
    let mut rest = raw.as_str();
    let Some(nl) = rest.find('\n') else {
        return Err(format!("ledger {} has no header line", path.display()));
    };
    let header = &rest[..nl];
    if header != LEDGER_MAGIC {
        return Err(format!(
            "ledger {} has wrong magic {header:?} (expected {LEDGER_MAGIC:?})",
            path.display()
        ));
    }
    rest = &rest[nl + 1..];
    while !rest.is_empty() {
        let (line, complete, next) = match rest.find('\n') {
            Some(i) => (&rest[..i], true, &rest[i + 1..]),
            None => (rest, false, ""),
        };
        rest = next;
        if !complete {
            // A torn trailing line: the writer died mid-append. Drop it.
            if !line.trim().is_empty() {
                out.torn = true;
            }
            break;
        }
        if line.trim().is_empty() {
            continue;
        }
        match parse_line(line) {
            Ok(record) => out.records.push(record),
            Err(_) => out.rejected += 1,
        }
    }
    Ok(out)
}

fn parse_line(line: &str) -> Result<LedgerRecord, String> {
    let wrapper: LedgerLine =
        serde_json::from_str(line).map_err(|e| format!("unparsable ledger line: {e}"))?;
    let expect = format!("{:016x}", wrapper.record.fingerprint());
    if wrapper.fingerprint != expect {
        return Err(format!(
            "ledger fingerprint mismatch: line says {}, record hashes to {expect}",
            wrapper.fingerprint
        ));
    }
    Ok(wrapper.record)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{counter, span, Recorder};
    use std::path::PathBuf;

    fn sample(tool: &str, exit: i32) -> LedgerRecord {
        let rec = Recorder::new();
        {
            let _a = rec.attach(0);
            let _t = span("total");
            {
                let _p = span("parse");
            }
            counter("check.roots", 2);
        }
        LedgerRecord::from_data(tool, "test-build", "deadbeef", exit, &rec.finish())
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("deepmc-ledger-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn append_and_load_roundtrip() {
        let dir = temp_dir("roundtrip");
        let path = dir.join("ledger.jsonl");
        let a = sample("deepmc check", 0);
        let b = sample("crashsweep", 3);
        append(&path, &a).unwrap();
        append(&path, &b).unwrap();
        let load = load(&path).unwrap();
        assert_eq!(load.records, vec![a, b]);
        assert_eq!(load.rejected, 0);
        assert!(!load.torn);
        let raw = std::fs::read_to_string(&path).unwrap();
        assert!(raw.starts_with(LEDGER_MAGIC));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_trailing_line_is_tolerated() {
        let dir = temp_dir("torn");
        let path = dir.join("ledger.jsonl");
        append(&path, &sample("deepmc check", 0)).unwrap();
        append(&path, &sample("deepmc check", 1)).unwrap();
        // Simulate a crash mid-append: truncate the last line's newline
        // and half its body.
        let mut raw = std::fs::read_to_string(&path).unwrap();
        raw.truncate(raw.len() - raw.len() / 4);
        std::fs::write(&path, &raw).unwrap();
        let load = load(&path).unwrap();
        assert_eq!(load.records.len(), 1, "complete first record survives");
        assert!(load.torn);
        assert_eq!(load.rejected, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn interior_corruption_is_rejected_not_fatal() {
        let dir = temp_dir("interior");
        let path = dir.join("ledger.jsonl");
        let a = sample("deepmc check", 0);
        let b = sample("deepmc check", 0);
        append(&path, &a).unwrap();
        append(&path, &b).unwrap();
        // Flip a byte inside the FIRST record's payload: its fingerprint
        // no longer matches.
        let raw = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = raw.lines().map(String::from).collect();
        lines[1] = lines[1].replace("\"exit_code\":0", "\"exit_code\":7");
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        let load = load(&path).unwrap();
        assert_eq!(load.rejected, 1, "tampered line rejected");
        assert_eq!(load.records.len(), 1, "later intact record still loads");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_magic_is_fatal() {
        let dir = temp_dir("magic");
        let path = dir.join("ledger.jsonl");
        std::fs::write(&path, "not-a-ledger\n").unwrap();
        assert!(load(&path).unwrap_err().contains("wrong magic"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn record_carries_phases_and_counters() {
        let r = sample("deepmc check", 0);
        assert_eq!(r.schema_version, LEDGER_SCHEMA_VERSION);
        assert_eq!(r.counter("check.roots"), 2);
        assert!(r.phase("parse").is_some());
        assert!(r.phase("total").is_some());
        assert!(r.stacks.iter().any(|s| s.stack == "total;parse"));
    }
}
