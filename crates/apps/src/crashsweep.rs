//! Systematic crash-point sweep under fault injection.
//!
//! The paper validates reported bugs by manually constructing the crash
//! state each bug implies and running the application's recovery on it
//! (§6.2). This module automates that at scale: a deterministic scripted
//! workload runs against a fault-injecting pool, crashes at **every** op
//! boundary under every [`CrashPolicy`] (plus extra `Random` seeds),
//! reboots the surviving image, runs the application's `recover()`, and
//! checks application-level invariants:
//!
//! 1. **No corruption** — every recovered value was actually written by
//!    the workload (checksums filtered torn records).
//! 2. **Acked durability** — every durably-acknowledged update is present
//!    after recovery, *unless* the loss is attributable to an injected
//!    fault (the recovery report dropped records, or the fault plan
//!    dropped a `clwb`) or to the deliberately injected application bug.
//!
//! With [`SweepConfig::oracle`] set, two stronger output-equivalence
//! oracles run against the operation history the workload driver records
//! ([`crate::workloads::OpHistory`]):
//!
//! 3. **No rollback past an ack** — a recovered value must have been
//!    written at or after the key's last acknowledged update.
//! 4. **Prefix cut** (strict apps) — the recovered state as a whole must
//!    equal the state after some prefix of the operation history.
//!
//! With all fault rates zero and no injected bug the sweep must be
//! violation-free — that is the regression contract. With
//! [`SweepConfig::inject_bug`] set, each app runs with a seeded
//! ground-truth bug (NStore: commit mark never flushed; Memcached: epoch
//! barrier without the fence; Redis: AOF entry appended but never
//! persisted) and the sweep must *catch* it, attributing every loss to
//! the bug. A full instrumented pass ([`crate::tracker::DeepMcTracker`])
//! runs once per app as a dynamic cross-check; correct apps report no
//! races.
//!
//! Each app is a crash target of the shared explorer ([`crate::explore`]),
//! which fans the crash steps out over the analysis pool and merges them
//! in step order, so the outcome is identical for any
//! [`SweepConfig::jobs`] value. Each step's pool is seeded with
//! `seed ^ step`. With [`SweepConfig::prune`] set, crash points whose
//! post-crash image and class context coincide are collapsed into one
//! equivalence class, and only one representative per class is
//! recovered and validated; its verdict propagates to every member.
//! Counter for counter and violation for violation, the pruned sweep
//! reports exactly what the exhaustive one would.
//!
//! The class context of a step is the oracle-relevant history
//! ([`OpHistory::digest`]: the acked map and the buggy-key set), whether
//! injected faults dropped any `clwb`, and, for the strict apps (Redis,
//! NStore), the step itself: the prefix-cut oracle and the corruption
//! check read the *full* write history, which grows per step. Memcached
//! skips the prefix oracle and may collapse across steps. For one
//! durable image its corruption check only gains written values as the
//! history grows, so an earlier representative's verdict holds. The
//! rollback oracle does not: a value written to a key before its ack
//! and written again after it turns a rollback into a legal value. Under
//! [`SweepConfig::oracle`] those (key, value) pairs join Memcached's
//! context.
//!
//! Sweeps are *resumable*: with a [`SweepJournal`] attached, every
//! validated crash step is appended (one flushed line each) as it
//! finishes, and a later run over the same config skips journaled steps
//! and replays their recorded outcomes. Because each line is written and
//! flushed atomically enough to survive a hard kill (a torn trailing
//! line is simply re-executed), even a SIGKILLed sweep resumes from its
//! last completed step. An *interior* corrupt line, by contrast, means
//! the journal can no longer be trusted: it is quarantined and the open
//! fails loudly rather than silently desynchronizing the replay.
//! Cooperative interruption ([`SweepSession`]) stops scheduling new
//! steps, drains in-flight workers, and leaves the journal flushed.

use crate::explore::{explore, mix, CrashTarget};
use crate::memcached::Memcached;
use crate::nstore::NStore;
use crate::recovery::checksum;
use crate::redis::Redis;
use crate::tracker::{DeepMcTracker, NoopTracker, Tracker};
use crate::workloads::{sweep_script, ClientCtx, OpHistory, ScriptOp};
use deepmc_obs as obs;
use nvm_runtime::{CrashImage, CrashPolicy, FaultConfig, PmemHeap, PmemPool, PoolConfig};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Which applications to sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepApp {
    Memcached,
    Redis,
    NStore,
}

impl SweepApp {
    pub const ALL: [SweepApp; 3] = [SweepApp::Memcached, SweepApp::Redis, SweepApp::NStore];

    pub fn name(&self) -> &'static str {
        match self {
            SweepApp::Memcached => "memcached",
            SweepApp::Redis => "redis",
            SweepApp::NStore => "nstore",
        }
    }
}

/// Sweep parameters. Everything is deterministic in `seed`.
#[derive(Debug, Clone, Copy)]
pub struct SweepConfig {
    /// Workload/script seed (also feeds the crash-policy Random seeds).
    pub seed: u64,
    /// Ops per workload run; the sweep crashes after each one.
    pub steps: u64,
    /// Extra `CrashPolicy::Random` seeds beyond the three deterministic
    /// policies.
    pub random_seeds: u64,
    /// Fault-injection rates for the pool under test.
    pub fault: FaultConfig,
    /// Inject each app's seeded ground-truth bug (NStore: commit mark
    /// never persisted; Memcached: epoch barrier without the fence;
    /// Redis: AOF entry never persisted).
    pub inject_bug: bool,
    /// Collapse crash points with identical persisted state + history
    /// into equivalence classes and validate one representative each
    /// ([`crate::explore`]). The reported outcome is identical to the
    /// exhaustive sweep's.
    pub prune: bool,
    /// Enable the stronger output-equivalence oracles (rollback-past-ack
    /// and prefix-cut) on top of the two base invariants.
    pub oracle: bool,
    /// Worker threads for the crash-step fan-out; `0` resolves via
    /// `DEEPMC_JOBS` then the machine's available parallelism. Each crash
    /// step is an independent work item (its own pool, script prefix, and
    /// crash images), and per-step results merge in step order, so the
    /// outcome is identical for any worker count.
    pub jobs: usize,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            seed: 1,
            steps: 24,
            random_seeds: 2,
            fault: FaultConfig::default(),
            inject_bug: false,
            prune: false,
            oracle: false,
            jobs: 0,
        }
    }
}

/// One unattributed invariant violation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Violation {
    pub app: String,
    pub crash_step: u64,
    pub policy: String,
    pub key: u64,
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: crash@{} [{}] key {}: {}",
            self.app, self.crash_step, self.policy, self.key, self.detail
        )
    }
}

/// Results of sweeping one application.
#[derive(Debug, Clone, Default)]
pub struct SweepOutcome {
    pub app: &'static str,
    /// Crash states checked (members of validated equivalence classes in
    /// pruned mode — the pruned and exhaustive counts are equal).
    pub images_checked: u64,
    /// Crash states actually recovered and validated: equals
    /// `images_checked` exhaustively, one per equivalence class pruned.
    pub states_explored: u64,
    /// Crash states whose verdict was propagated from an equivalent
    /// representative instead of being re-validated.
    pub states_pruned: u64,
    /// Records dropped by recovery across all images (torn + poisoned).
    pub records_dropped: u64,
    /// `clwb`s dropped by fault injection across all pre-crash runs (from
    /// [`nvm_runtime::StatsSnapshot::dropped_flushes`]) — the evidence the
    /// fault-attribution path leans on.
    pub flushes_dropped: u64,
    /// Acked keys found missing but attributed to injected faults.
    pub fault_attributed: u64,
    /// Acked keys found missing and attributed to the injected app bug.
    pub bug_attributed: u64,
    /// Races the instrumented (no-crash) pass reported.
    pub dynamic_reports: usize,
    /// Violations nothing explains — real failures.
    pub violations: Vec<Violation>,
}

impl fmt::Display for SweepOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<10} {:>4} images  {:>4} explored  {:>4} pruned  {:>4} dropped  \
             {:>4} clwb-dropped  {:>4} fault-attr  {:>4} bug-attr  {:>2} dyn-reports  \
             {} violations",
            self.app,
            self.images_checked,
            self.states_explored,
            self.states_pruned,
            self.records_dropped,
            self.flushes_dropped,
            self.fault_attributed,
            self.bug_attributed,
            self.dynamic_reports,
            self.violations.len()
        )?;
        for v in &self.violations {
            writeln!(f, "  VIOLATION {v}")?;
        }
        Ok(())
    }
}

pub(crate) fn policy_name(p: &CrashPolicy) -> String {
    match p {
        CrashPolicy::Pessimistic => "pessimistic".into(),
        CrashPolicy::Optimistic => "optimistic".into(),
        CrashPolicy::PendingOnly => "pending-only".into(),
        CrashPolicy::Random(s) => format!("random({s:#x})"),
    }
}

/// Run `ops` against a fresh `app` on `pool`, reporting persistent
/// accesses to `ctx`'s tracker. Returns the operation history the
/// post-recovery oracles compare against: every write with its script
/// position, every acknowledgement, and which acks went through the
/// seeded bug's code path (taken only with `inject_bug`).
fn drive(
    app: SweepApp,
    pool: &PmemPool,
    ops: &[ScriptOp],
    inject_bug: bool,
    ctx: &ClientCtx<'_>,
) -> OpHistory {
    let heap = PmemHeap::open(pool);
    let (t, strand) = (ctx.tracker, ctx.strand);
    let mut history = OpHistory::default();
    let steps = ops.iter().enumerate().map(|(i, op)| (i as u64, *op));
    match app {
        SweepApp::Memcached => {
            let mc = Memcached::new(pool, &heap, 8);
            // Acks are deferred to the next epoch barrier.
            let mut pending: HashMap<u64, u64> = HashMap::new();
            for (i, op) in steps {
                let (key, val) = match op {
                    ScriptOp::Set { key, val } => (key, val),
                    // The mini-Memcached has no delete command in its
                    // protocol surface; script deletes become sets.
                    ScriptOp::Del { key } => (key, 0xDEAD),
                    ScriptOp::Barrier => {
                        if inject_bug {
                            mc.epoch_barrier_skip_fence(t);
                        } else {
                            mc.epoch_barrier(t);
                        }
                        for (k, v) in pending.drain() {
                            history.ack(k, i, v, inject_bug);
                        }
                        continue;
                    }
                };
                mc.set(key, val, t, ctx);
                history.record_write(i, key, val);
                pending.insert(key, val);
            }
        }
        SweepApp::Redis => {
            let r = Redis::new(pool, &heap, 8, 1 << 16);
            for (i, op) in steps {
                match op {
                    ScriptOp::Set { key, val } => {
                        let buggy = inject_bug && i % 4 == 3;
                        history.record_write(i, key, val);
                        if buggy {
                            r.set_skip_aof_persist(key, val, t, strand);
                        } else {
                            r.set(key, val, t, strand);
                        }
                        history.ack(key, i, val, buggy);
                    }
                    ScriptOp::Del { key } => {
                        r.del(key, t, strand);
                        history.unack(key);
                    }
                    ScriptOp::Barrier => {}
                }
            }
        }
        SweepApp::NStore => {
            let db = NStore::new(pool, &heap, 8, 1 << 16);
            for (i, op) in steps {
                let (key, cols, val) = match op {
                    ScriptOp::Set { key, val } => (key, [val, val ^ 1, val ^ 2, val ^ 3], val),
                    // NStore has no delete; treat as an overwrite.
                    ScriptOp::Del { key } => (key, [7; 4], 7),
                    ScriptOp::Barrier => continue,
                };
                let buggy = inject_bug && i % 4 == 3;
                if buggy {
                    db.put_skip_commit_persist(key, cols, t, strand);
                } else {
                    db.put(key, cols, t, strand);
                }
                history.record_write(i, key, val);
                history.ack(key, i, val, buggy);
            }
        }
    }
    history
}

/// What validating one crash image found. The fold relabels its
/// violations with each class member's own step and policy.
#[derive(Debug, Default, Serialize, Deserialize)]
struct ImageVerdict {
    records_dropped: u64,
    fault_attributed: u64,
    bug_attributed: u64,
    violations: Vec<Violation>,
}

/// One application under one sweep config, as a crash target.
struct AppTarget<'a> {
    cfg: &'a SweepConfig,
    app: SweepApp,
    script: Vec<ScriptOp>,
    /// The three deterministic policies plus `random_seeds` random
    /// evictions derived from the sweep seed.
    policies: Vec<CrashPolicy>,
}

impl<'a> AppTarget<'a> {
    fn new(cfg: &'a SweepConfig, app: SweepApp) -> AppTarget<'a> {
        let mut policies =
            vec![CrashPolicy::Pessimistic, CrashPolicy::Optimistic, CrashPolicy::PendingOnly];
        for i in 0..cfg.random_seeds {
            policies.push(CrashPolicy::Random(checksum(cfg.seed, &[0x5EED, i])));
        }
        AppTarget { cfg, app, script: sweep_script(cfg.seed, cfg.steps), policies }
    }

    /// Does `recovered` equal the state after *some* prefix of the op
    /// history? Only meaningful for the strict apps (every op acks as it
    /// completes); Memcached's epoch batching makes any barrier-consistent
    /// mix legal, so it is excluded.
    fn matches_some_prefix(&self, step: usize, recovered: &HashMap<u64, u64>) -> bool {
        // Most images sit exactly at the crash point; search backwards.
        (0..=step).rev().any(|t| {
            let mut state: HashMap<u64, u64> = HashMap::new();
            for op in &self.script[..t] {
                match (self.app, *op) {
                    (_, ScriptOp::Set { key, val }) => {
                        state.insert(key, val);
                    }
                    (SweepApp::Redis, ScriptOp::Del { key }) => {
                        state.remove(&key);
                    }
                    (SweepApp::NStore, ScriptOp::Del { key }) => {
                        state.insert(key, 7);
                    }
                    _ => {}
                }
            }
            &state == recovered
        })
    }
}

/// A replayed script prefix.
struct AppRun {
    history: OpHistory,
    /// `clwb`s the fault plan dropped during the run. Faults already
    /// injected license missing acked data, as recovery drops do; the
    /// pool's own counter is authoritative: it records exactly the drops
    /// this run experienced.
    flush_faults: u64,
}

impl CrashTarget for AppTarget<'_> {
    type Run = AppRun;
    type Verdict = ImageVerdict;

    fn name(&self) -> &'static str {
        self.app.name()
    }

    fn crash_points(&self) -> usize {
        self.script.len()
    }

    fn policies(&self) -> &[CrashPolicy] {
        &self.policies
    }

    fn replay(&self, step: usize) -> (PmemPool, AppRun) {
        let pool = PmemPool::with_faults(
            PoolConfig { size: 4 << 20, shards: 8, ..Default::default() },
            FaultConfig { seed: self.cfg.seed ^ step as u64, ..self.cfg.fault },
        );
        let noop = NoopTracker;
        let ctx = ClientCtx { id: 0, tracker: &noop, strand: None };
        let history = drive(self.app, &pool, &self.script[..step], self.cfg.inject_bug, &ctx);
        let flush_faults = pool.stats().dropped_flushes;
        (pool, AppRun { history, flush_faults })
    }

    fn context(&self, step: usize, run: &AppRun) -> u64 {
        let mut words = vec![run.history.digest(), (run.flush_faults > 0) as u64];
        match self.app {
            // Memcached collapses across steps (see the module docs).
            SweepApp::Memcached if self.cfg.oracle => words
                .extend(run.history.rewritten_across_ack().into_iter().flat_map(|(k, v)| [k, v])),
            SweepApp::Memcached => {}
            SweepApp::Redis | SweepApp::NStore => words.push(step as u64),
        }
        mix(&words)
    }

    fn validate(&self, step: usize, policy: usize, img: &CrashImage, run: &AppRun) -> ImageVerdict {
        let history = &run.history;
        let pool = img.reboot(8);
        let heap = PmemHeap::open(&pool);
        let noop = NoopTracker;
        let read_back = |get: &dyn Fn(u64) -> Option<u64>| -> HashMap<u64, u64> {
            history.keys().filter_map(|k| get(k).map(|v| (k, v))).collect()
        };
        let (recovered, report) = match self.app {
            SweepApp::Memcached => {
                let (mc, rep) = Memcached::recover(&pool, &heap, 8);
                let ctx = ClientCtx { id: 0, tracker: &noop, strand: None };
                (read_back(&|k| mc.get(k, &noop, &ctx)), rep)
            }
            SweepApp::Redis => {
                let (r, rep) = Redis::recover(&pool, &heap, 8, 1 << 16);
                (read_back(&|k| r.get(k, &noop, None)), rep)
            }
            SweepApp::NStore => {
                let (db, rep) = NStore::recover(&pool, &heap, 8, 1 << 16);
                (read_back(&|k| db.read(k, 0, &noop, None)), rep)
            }
        };
        let mut verdict = ImageVerdict { records_dropped: report.dropped(), ..Default::default() };
        let attributable = report.dropped() > 0 || run.flush_faults > 0;
        let violation = |key: u64, detail: String| Violation {
            app: self.app.name().to_string(),
            crash_step: step as u64,
            policy: policy_name(&self.policies[policy]),
            key,
            detail,
        };
        // A lost or rolled-back acked update: blame the seeded bug, then
        // an injected fault, else report it.
        let lost = |verdict: &mut ImageVerdict, key: u64, detail: &dyn Fn() -> String| {
            if history.is_buggy(key) {
                verdict.bug_attributed += 1;
            } else if attributable {
                verdict.fault_attributed += 1;
            } else {
                verdict.violations.push(violation(key, detail()));
            }
        };
        // Keys are visited in sorted order so violation order is stable
        // across worker counts *and* processes (HashMap order is neither).
        let mut recovered_keys: Vec<u64> = recovered.keys().copied().collect();
        recovered_keys.sort_unstable();
        // Invariant 1: no corruption — recovered values were written.
        for k in recovered_keys {
            let v = recovered[&k];
            if !history.was_written(k, v) {
                verdict
                    .violations
                    .push(violation(k, format!("recovered value {v:#x} was never written")));
            }
        }
        // Invariant 2: acked durability — and, under the oracle, no rollback
        // past the last acknowledged update.
        let mut acked_keys: Vec<u64> = history.acked().keys().copied().collect();
        acked_keys.sort_unstable();
        for k in acked_keys {
            let (pos, want) = history.acked()[&k];
            match recovered.get(&k) {
                None => lost(&mut verdict, k, &|| {
                    "acked key missing after recovery with no fault to blame".into()
                }),
                Some(&got) => {
                    if self.cfg.oracle && got != want && !history.written_at_or_after(k, pos, got) {
                        lost(&mut verdict, k, &|| {
                            format!("acked value {want:#x} rolled back to stale {got:#x}")
                        });
                    }
                }
            }
        }
        // Oracle: the strict apps' recovered state must be a prefix cut of
        // the op history. Skipped when a fault or the seeded bug already
        // explains a divergence (the prefix property only holds fault-free).
        if self.cfg.oracle
            && self.app != SweepApp::Memcached
            && !attributable
            && !history.any_buggy()
            && !self.matches_some_prefix(step, &recovered)
        {
            verdict
                .violations
                .push(violation(0, "recovered state matches no prefix of the op history".into()));
        }
        verdict
    }
}

/// Magic first line of a sweep journal; ties the journal to one config.
/// v3 journals both modes' steps as one record kind (the `clwb`s the
/// step's replay dropped plus its representatives' verdicts) — v2 and
/// older journals fail the header check and start fresh.
const JOURNAL_MAGIC: &str = "deepmc-sweep-journal-v3";

/// FNV-1a 64-bit, local copy (stability across runs is what matters).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Digest of everything that determines a step's outcome: seed, script
/// shape, fault plan, bug injection, prune/oracle modes, and the app set.
/// `jobs` is excluded on purpose — a journal written at `--jobs 4`
/// resumes at any worker count.
fn config_fingerprint(cfg: &SweepConfig, apps: &[SweepApp]) -> u64 {
    let mut text = format!(
        "seed={} steps={} random_seeds={} fault={:?} inject_bug={} prune={} oracle={}",
        cfg.seed, cfg.steps, cfg.random_seeds, cfg.fault, cfg.inject_bug, cfg.prune, cfg.oracle
    );
    for a in apps {
        text.push(' ');
        text.push_str(a.name());
    }
    fnv1a(text.as_bytes())
}

/// One journaled line: a target's step and the explorer's record of it.
#[derive(Serialize, Deserialize)]
struct JournalLine<A, E> {
    app: A,
    step: u64,
    entry: E,
}

/// Append-only on-disk record of completed crash steps.
///
/// Layout: a header line binding the journal to a config fingerprint,
/// then one JSON line per completed step. Every append is a single
/// `write_all` + flush, so a killed sweep leaves at most one torn
/// *trailing* line — tolerated (skipped) on reload, costing one
/// re-executed step. A corrupt line anywhere *before* the last one means
/// the file was damaged after the fact; replaying around it would
/// silently desynchronize the resume, so the journal is quarantined
/// (renamed aside, like the analysis cache quarantines corrupt entries)
/// and the open fails with a clear error. Opening with `resume = false`,
/// or with a header that doesn't match the current config, truncates and
/// starts fresh.
pub struct SweepJournal {
    done: HashMap<(String, u64), serde::Value>,
    file: Mutex<fs::File>,
    appended: AtomicU64,
}

impl SweepJournal {
    /// Open (or create) the journal at `path` for this config. With
    /// `resume`, previously journaled steps of a matching-config journal
    /// are loaded and later skipped by [`sweep_session`].
    pub fn open(
        path: impl Into<PathBuf>,
        cfg: &SweepConfig,
        apps: &[SweepApp],
        resume: bool,
    ) -> io::Result<SweepJournal> {
        let path = path.into();
        let header = format!("{JOURNAL_MAGIC} fingerprint={:016x}", config_fingerprint(cfg, apps));
        let mut done = HashMap::new();
        let mut reusable = false;
        if resume {
            if let Ok(text) = fs::read_to_string(&path) {
                let mut lines = text.lines();
                if lines.next() == Some(header.as_str()) {
                    reusable = true;
                    let body: Vec<&str> = lines.collect();
                    for (i, line) in body.iter().enumerate() {
                        match serde_json::from_str::<JournalLine<String, serde::Value>>(line) {
                            Ok(jl) => {
                                done.insert((jl.app, jl.step), jl.entry);
                            }
                            // A torn *trailing* line is the expected
                            // residue of a hard kill mid-append: skip it
                            // and re-execute that one step.
                            Err(_) if i + 1 == body.len() => {}
                            // An unparsable *interior* line means the
                            // journal was corrupted after it was written.
                            // Quarantine it and fail the resume loudly.
                            Err(err) => {
                                let mut quarantined = path.clone().into_os_string();
                                quarantined.push(".quarantined");
                                let quarantined = PathBuf::from(quarantined);
                                let moved = fs::rename(&path, &quarantined).is_ok();
                                obs::warning(
                                    "sweep.journal_corrupt",
                                    &format!(
                                        "sweep journal {} has a corrupt interior entry \
                                         (line {} of {}): {err}",
                                        path.display(),
                                        i + 2,
                                        body.len() + 1,
                                    ),
                                );
                                return Err(io::Error::new(
                                    io::ErrorKind::InvalidData,
                                    format!(
                                        "sweep journal {} is corrupt at line {} (not the \
                                         trailing line, so this is damage, not a torn append); \
                                         resuming would silently desynchronize the sweep. {} \
                                         Rerun without --resume to start a fresh journal.",
                                        path.display(),
                                        i + 2,
                                        if moved {
                                            format!(
                                                "The journal was quarantined to {}.",
                                                quarantined.display()
                                            )
                                        } else {
                                            "The journal could not be moved aside.".to_string()
                                        },
                                    ),
                                ));
                            }
                        }
                    }
                } else {
                    obs::warning(
                        "sweep.journal_mismatch",
                        &format!(
                            "journal {} was written for a different sweep config; starting fresh",
                            path.display()
                        ),
                    );
                }
            }
        }
        let file = if reusable {
            fs::OpenOptions::new().append(true).open(&path)?
        } else {
            let mut f = fs::File::create(&path)?;
            writeln!(f, "{header}")?;
            f.flush()?;
            f
        };
        Ok(SweepJournal { done, file: Mutex::new(file), appended: AtomicU64::new(0) })
    }

    /// Steps loaded from a previous run (skippable on this one).
    pub fn loaded_steps(&self) -> u64 {
        self.done.len() as u64
    }

    /// The journaled record of `target`'s `step`, if one was loaded.
    pub(crate) fn lookup<E: for<'de> Deserialize<'de>>(
        &self,
        target: &str,
        step: u64,
    ) -> Option<E> {
        let entry = self.done.get(&(target.to_string(), step))?;
        serde::from_value(entry.clone()).ok()
    }

    /// Append one completed step (single flushed write); returns how many
    /// steps this run has journaled so far.
    pub(crate) fn append<E: Serialize>(&self, target: &str, step: u64, entry: &E) -> u64 {
        let line = JournalLine { app: target, step, entry };
        if let Ok(json) = serde_json::to_string(&line) {
            let mut buf = json.into_bytes();
            buf.push(b'\n');
            let mut f = self.file.lock().expect("journal file lock");
            let _ = f.write_all(&buf);
            let _ = f.flush();
        }
        self.appended.fetch_add(1, Ordering::SeqCst) + 1
    }
}

/// Controls for one resumable/interruptible sweep run.
#[derive(Default)]
pub struct SweepSession<'a> {
    /// Completed steps are appended here and journaled steps skipped.
    pub journal: Option<&'a SweepJournal>,
    /// Cooperative interrupt: after this many freshly journaled steps,
    /// cancel the session (deterministic stand-in for Ctrl-C in tests and
    /// CI; see `DEEPMC_SWEEP_INTERRUPT_AFTER`).
    pub trip_after: Option<u64>,
    cancelled: AtomicBool,
}

impl<'a> SweepSession<'a> {
    /// A session with a journal and an optional cooperative trip point.
    pub fn new(journal: Option<&'a SweepJournal>, trip_after: Option<u64>) -> SweepSession<'a> {
        SweepSession { journal, trip_after, cancelled: AtomicBool::new(false) }
    }

    /// Request cancellation: no further crash steps start, in-flight ones
    /// drain, the journal stays flushed.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
    }

    /// Has the session been cancelled?
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }
}

/// Result of a [`sweep_session`] run.
pub struct SweepRun {
    /// Per-app outcomes, in app order (partial if interrupted).
    pub outcomes: Vec<SweepOutcome>,
    /// Steps replayed from the journal instead of re-executed.
    pub resumed_steps: u64,
    /// Steps not executed because the session was cancelled.
    pub skipped_steps: u64,
}

impl SweepRun {
    /// Did cancellation leave steps unexecuted (results are partial)?
    pub fn interrupted(&self) -> bool {
        self.skipped_steps > 0
    }
}

/// Sweep one application: crash after every op under every policy.
///
/// Crash steps fan out over a shared-queue pool sized by
/// [`SweepConfig::jobs`]; per-step results merge in step order, so the
/// outcome (counter for counter, violation for violation) is identical
/// for any worker count.
pub fn sweep_app(cfg: &SweepConfig, app: SweepApp) -> SweepOutcome {
    sweep_app_session(cfg, app, &SweepSession::default()).0
}

/// [`sweep_app`] under a session; returns `(outcome, resumed, skipped)`.
fn sweep_app_session(
    cfg: &SweepConfig,
    app: SweepApp,
    session: &SweepSession<'_>,
) -> (SweepOutcome, u64, u64) {
    let _s = obs::span_lazy("sweep.app", || vec![("app", app.name().to_string())]);
    let target = AppTarget::new(cfg, app);
    let mut outcome = SweepOutcome { app: app.name(), ..Default::default() };
    if session.is_cancelled() {
        return (outcome, 0, target.crash_points() as u64);
    }
    outcome.dynamic_reports = dynamic_cross_check(app, &target.script);
    let pols = &target.policies;
    let run = explore(&target, cfg.prune, cfg.jobs, session, |step, flushes_dropped, verdicts| {
        outcome.flushes_dropped += flushes_dropped;
        for (policy, v) in pols.iter().zip(verdicts) {
            outcome.images_checked += 1;
            outcome.records_dropped += v.records_dropped;
            outcome.fault_attributed += v.fault_attributed;
            outcome.bug_attributed += v.bug_attributed;
            outcome.violations.extend(v.violations.iter().map(|v| Violation {
                crash_step: step as u64,
                policy: policy_name(policy),
                ..v.clone()
            }));
        }
    });
    outcome.states_explored = run.explored;
    outcome.states_pruned = outcome.images_checked - run.explored;
    obs::counter("sweep.images_checked", outcome.images_checked);
    obs::counter("sweep.records_dropped", outcome.records_dropped);
    obs::counter("sweep.flushes_dropped", outcome.flushes_dropped);
    obs::counter("sweep.fault_attributed", outcome.fault_attributed);
    obs::counter("sweep.bug_attributed", outcome.bug_attributed);
    obs::counter("sweep.violations", outcome.violations.len() as u64);
    obs::counter("sweep.explored", outcome.states_explored);
    obs::counter("sweep.pruned", outcome.states_pruned);
    (outcome, run.resumed, run.skipped)
}

/// One instrumented, crash-free run of the same script: the dynamic
/// checker must stay quiet on the correct applications.
fn dynamic_cross_check(app: SweepApp, ops: &[ScriptOp]) -> usize {
    let _s = obs::span_lazy("sweep.dynamic", || vec![("app", app.name().to_string())]);
    let pool = PmemPool::new(PoolConfig { size: 4 << 20, shards: 8, ..Default::default() });
    let tracker = DeepMcTracker::new();
    let strand = tracker.region_begin();
    drive(app, &pool, ops, false, &ClientCtx { id: 0, tracker: &tracker, strand });
    let reports = tracker.reports().len();
    obs::counter("sweep.dynamic_reports", reports as u64);
    obs::counter("dynamic.shadow_cells", tracker.shadow_cells() as u64);
    reports
}

/// Sweep a set of applications.
pub fn sweep(cfg: &SweepConfig, apps: &[SweepApp]) -> Vec<SweepOutcome> {
    apps.iter().map(|&a| sweep_app(cfg, a)).collect()
}

/// Sweep a set of applications under a [`SweepSession`]: journaled steps
/// are replayed, fresh steps are journaled as they complete, and
/// cancellation drains in-flight workers then stops.
pub fn sweep_session(cfg: &SweepConfig, apps: &[SweepApp], session: &SweepSession<'_>) -> SweepRun {
    let mut run = SweepRun { outcomes: Vec::new(), resumed_steps: 0, skipped_steps: 0 };
    for &app in apps {
        let (outcome, resumed, skipped) = sweep_app_session(cfg, app, session);
        run.outcomes.push(outcome);
        run.resumed_steps += resumed;
        run.skipped_steps += skipped;
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(seed: u64) -> SweepConfig {
        SweepConfig { seed, steps: 12, random_seeds: 1, ..Default::default() }
    }

    #[test]
    fn clean_sweep_has_no_violations() {
        for outcome in sweep(&small(3), &SweepApp::ALL) {
            assert!(
                outcome.violations.is_empty(),
                "{}: {:?}",
                outcome.app,
                outcome.violations.first()
            );
            assert_eq!(outcome.records_dropped, 0, "no faults, nothing to drop");
            assert_eq!(outcome.flushes_dropped, 0, "no faults, no clwbs dropped");
            assert_eq!(outcome.dynamic_reports, 0, "correct apps race-free");
            assert!(outcome.images_checked > 0);
            assert_eq!(outcome.states_explored, outcome.images_checked);
            assert_eq!(outcome.states_pruned, 0);
        }
    }

    #[test]
    fn clean_sweep_with_oracles_has_no_violations() {
        let cfg = SweepConfig { oracle: true, ..small(3) };
        for outcome in sweep(&cfg, &SweepApp::ALL) {
            assert!(
                outcome.violations.is_empty(),
                "{}: {:?}",
                outcome.app,
                outcome.violations.first()
            );
        }
    }

    #[test]
    fn faulty_sweep_attributes_losses_without_violations() {
        let cfg = SweepConfig {
            fault: FaultConfig {
                torn_store_rate: 0.3,
                dropped_flush_rate: 0.1,
                poison_rate: 0.005,
                ..Default::default()
            },
            ..small(7)
        };
        let mut any_attributed = 0;
        let mut any_flushes_dropped = 0;
        for outcome in sweep(&cfg, &SweepApp::ALL) {
            assert!(
                outcome.violations.is_empty(),
                "{}: {:?}",
                outcome.app,
                outcome.violations.first()
            );
            any_attributed += outcome.fault_attributed + outcome.records_dropped;
            any_flushes_dropped += outcome.flushes_dropped;
        }
        assert!(any_attributed > 0, "these rates must cost something");
        assert!(any_flushes_dropped > 0, "a 10% dropped-clwb rate must show in pool stats");
    }

    #[test]
    fn injected_bug_is_caught_and_attributed() {
        let cfg = SweepConfig { inject_bug: true, ..small(5) };
        let outcome = sweep_app(&cfg, SweepApp::NStore);
        assert!(outcome.violations.is_empty(), "{:?}", outcome.violations.first());
        assert!(
            outcome.bug_attributed > 0,
            "the sweep must observe acked transactions lost to the bug"
        );
    }

    #[test]
    fn memcached_missing_fence_bug_is_caught() {
        // The skipped fence leaves acked records merely FlushPending; a
        // pessimistic crash right after a barrier rolls them back. The
        // rollback oracle is what catches the stale-value variant (an
        // older durable value survives, so presence alone looks fine).
        let cfg = SweepConfig { inject_bug: true, oracle: true, ..small(5) };
        let outcome = sweep_app(&cfg, SweepApp::Memcached);
        assert!(outcome.violations.is_empty(), "{:?}", outcome.violations.first());
        assert!(outcome.bug_attributed > 0, "the missing-fence bug must be observed");
    }

    #[test]
    fn redis_unpersisted_aof_bug_is_caught() {
        let cfg = SweepConfig { inject_bug: true, oracle: true, ..small(5) };
        let outcome = sweep_app(&cfg, SweepApp::Redis);
        assert!(outcome.violations.is_empty(), "{:?}", outcome.violations.first());
        assert!(outcome.bug_attributed > 0, "the unpersisted-AOF-append bug must be observed");
    }

    /// Field-for-field equality on everything but the explored/pruned
    /// split (which is the one thing pruning is allowed to change).
    fn assert_same_verdicts(ex: &SweepOutcome, pr: &SweepOutcome) {
        assert_eq!(ex.images_checked, pr.images_checked, "{}", ex.app);
        assert_eq!(ex.records_dropped, pr.records_dropped, "{}", ex.app);
        assert_eq!(ex.flushes_dropped, pr.flushes_dropped, "{}", ex.app);
        assert_eq!(ex.fault_attributed, pr.fault_attributed, "{}", ex.app);
        assert_eq!(ex.bug_attributed, pr.bug_attributed, "{}", ex.app);
        assert_eq!(ex.dynamic_reports, pr.dynamic_reports, "{}", ex.app);
        assert_eq!(ex.violations, pr.violations, "{}", ex.app);
    }

    #[test]
    fn pruned_sweep_matches_exhaustive_and_reduces_work() {
        for app in SweepApp::ALL {
            let base = SweepConfig { oracle: true, ..small(21) };
            let ex = sweep_app(&base, app);
            let pr = sweep_app(&SweepConfig { prune: true, ..base }, app);
            assert_same_verdicts(&ex, &pr);
            assert_eq!(pr.states_explored + pr.states_pruned, pr.images_checked, "{app:?}");
            assert!(
                pr.states_explored * 2 <= pr.images_checked,
                "{app:?}: explored {} of {} states — pruning must halve the work",
                pr.states_explored,
                pr.images_checked
            );
        }
    }

    #[test]
    fn pruned_sweep_still_catches_every_seeded_bug() {
        for app in SweepApp::ALL {
            let base = SweepConfig { inject_bug: true, oracle: true, ..small(5) };
            let ex = sweep_app(&base, app);
            let pr = sweep_app(&SweepConfig { prune: true, ..base }, app);
            assert_same_verdicts(&ex, &pr);
            assert!(pr.bug_attributed > 0, "{app:?}: pruning must not hide the seeded bug");
        }
    }

    #[test]
    fn memcached_classes_split_when_an_acked_key_is_rewritten() {
        // `crashsweep --app memcached --steps 32 --seed 90 --oracle
        // --inject-bug`: a key acked at a barrier is deleted again (every
        // delete writes 0xDEAD) before the next barrier, so a stale 0xDEAD
        // is a rollback at the earlier crash point and a legal value at
        // the later one although the durable image is the same. A pruned
        // sweep that copied the earlier verdict onto the later state would
        // report 60 bug-attributed losses instead of 54.
        let cfg = SweepConfig {
            seed: 90,
            steps: 32,
            random_seeds: 2,
            inject_bug: true,
            oracle: true,
            ..Default::default()
        };
        let ex = sweep_app(&cfg, SweepApp::Memcached);
        let pr = sweep_app(&SweepConfig { prune: true, ..cfg }, SweepApp::Memcached);
        assert_eq!(ex.bug_attributed, 54);
        assert_same_verdicts(&ex, &pr);
    }

    #[test]
    fn poisoned_sweeps_finish_clean_on_every_seed() {
        // Redis and NStore recovery rebuild their tables into fresh heap
        // blocks the crash may have poisoned; their write paths must
        // scrub such a block instead of aborting the sweep (the flags of
        // `crashsweep --steps 12 --seeds 1 --torn 0.2 --drop-flush 0.05
        // --poison 0.002`, which once panicked for seeds 2-5).
        for seed in 1..=8 {
            let base = SweepConfig {
                fault: FaultConfig {
                    torn_store_rate: 0.2,
                    dropped_flush_rate: 0.05,
                    poison_rate: 0.002,
                    ..Default::default()
                },
                ..small(seed)
            };
            for app in SweepApp::ALL {
                let ex = sweep_app(&base, app);
                assert!(ex.violations.is_empty(), "seed {seed}: {:?}", ex.violations.first());
                let pr = sweep_app(&SweepConfig { prune: true, ..base }, app);
                assert_same_verdicts(&ex, &pr);
            }
        }
    }

    #[test]
    fn transient_poison_does_not_split_equivalence_classes() {
        // Every poisoned line is transient: recovery retries through all
        // of them, so crash states differing only in transient-poison
        // scratch must land in the same class and pruning must still
        // collapse the policy fan-out.
        let cfg = SweepConfig {
            fault: FaultConfig { poison_rate: 0.01, transient_rate: 1.0, ..Default::default() },
            prune: true,
            oracle: true,
            ..small(17)
        };
        let pr = sweep_app(&cfg, SweepApp::Memcached);
        assert!(pr.violations.is_empty(), "{:?}", pr.violations.first());
        assert!(pr.states_pruned > 0, "transient-only poison must not defeat dedup");
        let ex = sweep_app(&SweepConfig { prune: false, ..cfg }, SweepApp::Memcached);
        assert_same_verdicts(&ex, &pr);
    }

    #[test]
    fn parallel_sweep_matches_sequential() {
        let cfg = SweepConfig {
            fault: FaultConfig {
                torn_store_rate: 0.2,
                dropped_flush_rate: 0.05,
                ..Default::default()
            },
            inject_bug: true,
            ..small(11)
        };
        let seq = sweep_app(&SweepConfig { jobs: 1, ..cfg }, SweepApp::NStore);
        let par = sweep_app(&SweepConfig { jobs: 4, ..cfg }, SweepApp::NStore);
        // Display renders every counter and every violation — comparing
        // the rendered form checks the merge is order-identical too.
        assert_eq!(seq.to_string(), par.to_string());
    }

    #[test]
    fn parallel_pruned_sweep_matches_sequential() {
        let cfg = SweepConfig { inject_bug: true, prune: true, oracle: true, ..small(11) };
        for app in SweepApp::ALL {
            let seq = sweep_app(&SweepConfig { jobs: 1, ..cfg }, app);
            let par = sweep_app(&SweepConfig { jobs: 4, ..cfg }, app);
            assert_eq!(seq.to_string(), par.to_string(), "{app:?}");
        }
    }

    #[test]
    fn sweep_is_deterministic_per_seed() {
        let a = sweep_app(&small(9), SweepApp::Redis);
        let b = sweep_app(&small(9), SweepApp::Redis);
        assert_eq!(a.images_checked, b.images_checked);
        assert_eq!(a.records_dropped, b.records_dropped);
        assert_eq!(a.fault_attributed, b.fault_attributed);
        assert_eq!(a.violations.len(), b.violations.len());
    }

    fn outcomes_text(outcomes: &[SweepOutcome]) -> String {
        outcomes.iter().map(|o| o.to_string()).collect()
    }

    #[test]
    fn interrupted_sweep_resumes_to_identical_attribution() {
        let dir = std::env::temp_dir().join(format!("deepmc-sweep-j1-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let journal_path = dir.join("sweep.journal");
        let cfg = SweepConfig { inject_bug: true, jobs: 2, ..small(13) };
        let apps = [SweepApp::NStore];

        // Ground truth: an uninterrupted sweep with no journal.
        let straight = sweep(&cfg, &apps);

        // Run 1: cancel after 4 freshly journaled steps.
        let journal = SweepJournal::open(&journal_path, &cfg, &apps, false).unwrap();
        let session =
            SweepSession { journal: Some(&journal), trip_after: Some(4), ..Default::default() };
        let first = sweep_session(&cfg, &apps, &session);
        assert!(first.interrupted(), "trip_after must cancel mid-sweep");
        assert!(first.skipped_steps > 0);
        drop(journal);

        // Run 2: resume. Journaled steps replay; the rest execute.
        let journal = SweepJournal::open(&journal_path, &cfg, &apps, true).unwrap();
        let loaded = journal.loaded_steps();
        assert!(loaded >= 4, "at least the tripped steps were journaled, got {loaded}");
        let session = SweepSession { journal: Some(&journal), ..Default::default() };
        let second = sweep_session(&cfg, &apps, &session);
        assert!(!second.interrupted());
        assert_eq!(second.resumed_steps, loaded, "every journaled step is skipped, not re-run");
        assert_eq!(
            outcomes_text(&second.outcomes),
            outcomes_text(&straight),
            "resumed sweep must match the uninterrupted one byte for byte"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn interrupted_pruned_sweep_resumes_to_identical_attribution() {
        let dir = std::env::temp_dir().join(format!("deepmc-sweep-j4-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let journal_path = dir.join("sweep.journal");
        // Interrupted inside the first window of explored steps, and in
        // the second one of a 93-step script.
        for (steps, trip) in [(12, 2), (80, 70)] {
            let cfg = SweepConfig {
                steps,
                inject_bug: true,
                prune: true,
                oracle: true,
                jobs: 2,
                ..small(13)
            };
            let apps = [SweepApp::NStore];
            let straight = sweep(&cfg, &apps);

            let journal = SweepJournal::open(&journal_path, &cfg, &apps, false).unwrap();
            let session = SweepSession {
                journal: Some(&journal),
                trip_after: Some(trip),
                ..Default::default()
            };
            let first = sweep_session(&cfg, &apps, &session);
            assert!(first.interrupted(), "trip_after must cancel the exploration mid-run");
            drop(journal);

            let journal = SweepJournal::open(&journal_path, &cfg, &apps, true).unwrap();
            assert!(journal.loaded_steps() >= trip);
            let session = SweepSession { journal: Some(&journal), ..Default::default() };
            let second = sweep_session(&cfg, &apps, &session);
            assert!(!second.interrupted());
            assert!(second.resumed_steps > 0, "journaled exploration steps replay on resume");
            assert_eq!(
                outcomes_text(&second.outcomes),
                outcomes_text(&straight),
                "resumed pruned sweep of {steps} steps must match the uninterrupted one byte for byte"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_for_different_config_is_discarded() {
        let dir = std::env::temp_dir().join(format!("deepmc-sweep-j2-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let journal_path = dir.join("sweep.journal");
        let apps = [SweepApp::Redis];
        let cfg_a = small(1);
        let cfg_b = small(2);
        let journal = SweepJournal::open(&journal_path, &cfg_a, &apps, false).unwrap();
        let session = SweepSession { journal: Some(&journal), ..Default::default() };
        let _ = sweep_session(&cfg_a, &apps, &session);
        drop(journal);
        // Resuming under a different seed must not replay cfg_a's steps.
        let journal = SweepJournal::open(&journal_path, &cfg_b, &apps, true).unwrap();
        assert_eq!(journal.loaded_steps(), 0, "mismatched journal starts fresh");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_fingerprint_covers_prune_and_oracle_flags() {
        let dir = std::env::temp_dir().join(format!("deepmc-sweep-j5-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let journal_path = dir.join("sweep.journal");
        let apps = [SweepApp::Redis];
        let cfg = small(4);
        let journal = SweepJournal::open(&journal_path, &cfg, &apps, false).unwrap();
        let session = SweepSession { journal: Some(&journal), ..Default::default() };
        let _ = sweep_session(&cfg, &apps, &session);
        drop(journal);
        // A pruned resume must not replay exhaustive-mode entries.
        let pruned = SweepConfig { prune: true, ..cfg };
        let journal = SweepJournal::open(&journal_path, &pruned, &apps, true).unwrap();
        assert_eq!(journal.loaded_steps(), 0, "prune flag changes the fingerprint");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn older_journal_version_starts_fresh() {
        let dir = std::env::temp_dir().join(format!("deepmc-sweep-j7-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let journal_path = dir.join("sweep.journal");
        let apps = [SweepApp::Redis];
        let cfg = small(4);
        let journal = SweepJournal::open(&journal_path, &cfg, &apps, false).unwrap();
        let session = SweepSession { journal: Some(&journal), ..Default::default() };
        let _ = sweep_session(&cfg, &apps, &session);
        drop(journal);
        // The same config journaled under the v2 header.
        let text = fs::read_to_string(&journal_path).unwrap();
        fs::write(&journal_path, text.replacen(JOURNAL_MAGIC, "deepmc-sweep-journal-v2", 1))
            .unwrap();
        let journal = SweepJournal::open(&journal_path, &cfg, &apps, true).unwrap();
        assert_eq!(journal.loaded_steps(), 0, "a v2 journal is not replayed");
        assert!(fs::read_to_string(&journal_path).unwrap().starts_with(JOURNAL_MAGIC));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_trailing_journal_line_is_tolerated() {
        let dir = std::env::temp_dir().join(format!("deepmc-sweep-j3-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let journal_path = dir.join("sweep.journal");
        let apps = [SweepApp::Redis];
        let cfg = small(4);
        let journal = SweepJournal::open(&journal_path, &cfg, &apps, false).unwrap();
        let session = SweepSession { journal: Some(&journal), ..Default::default() };
        let straight = sweep_session(&cfg, &apps, &session);
        drop(journal);
        // Simulate a hard kill mid-append: truncate the last line in half.
        let text = fs::read_to_string(&journal_path).unwrap();
        let full_steps = text.trim_end().lines().count() - 1;
        let keep = text.trim_end().rfind('\n').unwrap() + 1;
        let torn = format!("{}{}", &text[..keep], &text[keep..keep + (text.len() - keep) / 2]);
        fs::write(&journal_path, torn).unwrap();
        let journal = SweepJournal::open(&journal_path, &cfg, &apps, true).unwrap();
        assert_eq!(journal.loaded_steps() as usize, full_steps - 1, "only the torn step is lost");
        let session = SweepSession { journal: Some(&journal), ..Default::default() };
        let resumed = sweep_session(&cfg, &apps, &session);
        assert_eq!(
            outcomes_text(&resumed.outcomes),
            outcomes_text(&straight.outcomes),
            "the torn step re-executes and the result is unchanged"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn interior_corrupt_journal_line_quarantines_and_fails_resume() {
        let dir = std::env::temp_dir().join(format!("deepmc-sweep-j6-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let journal_path = dir.join("sweep.journal");
        let apps = [SweepApp::Redis];
        let cfg = small(4);
        let journal = SweepJournal::open(&journal_path, &cfg, &apps, false).unwrap();
        let session = SweepSession { journal: Some(&journal), ..Default::default() };
        let _ = sweep_session(&cfg, &apps, &session);
        drop(journal);
        // Corrupt a line in the *middle* of the journal (damage, not a
        // torn trailing append).
        let text = fs::read_to_string(&journal_path).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        assert!(lines.len() > 4, "need interior lines to corrupt");
        let mid = lines.len() / 2;
        lines[mid] = lines[mid][..lines[mid].len() / 2].to_string();
        fs::write(&journal_path, lines.join("\n") + "\n").unwrap();

        let err = SweepJournal::open(&journal_path, &cfg, &apps, true)
            .err()
            .expect("an interior corrupt line must fail the resume, not skip silently");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains("corrupt"), "error names the problem: {msg}");
        assert!(msg.contains("quarantined"), "error names the quarantine: {msg}");
        assert!(!journal_path.exists(), "the corrupt journal is moved aside");
        let quarantined = dir.join("sweep.journal.quarantined");
        assert!(quarantined.exists(), "the corrupt journal is preserved for inspection");
        let _ = fs::remove_dir_all(&dir);
    }
}
