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
//! Crash steps are independent (each builds its own pool from scratch),
//! so the sweep fans them out over the shared work-stealing pool
//! ([`deepmc_analysis::pool`]) and merges per-step results in step order
//! — the outcome is identical for any [`SweepConfig::jobs`] value.
//!
//! With [`SweepConfig::prune`] set, the sweep runs as a pruned
//! crash-state *exploration* ([`crate::explore`]): crash points whose
//! post-crash pool image and oracle-relevant history coincide are
//! collapsed into one equivalence class, and only one representative per
//! class is recovered and validated; its verdict propagates to every
//! member. Counter for counter and violation for violation, the pruned
//! sweep reports exactly what the exhaustive one would.
//!
//! Sweeps are *resumable*: with a [`SweepJournal`] attached, every
//! completed crash step is appended (one flushed line each) as it
//! finishes, and a later run over the same config skips journaled steps
//! and replays their recorded outcomes. Because each line is written and
//! flushed atomically enough to survive a hard kill (a torn trailing
//! line is simply re-executed), even a SIGKILLed sweep resumes from its
//! last completed step. An *interior* corrupt line, by contrast, means
//! the journal can no longer be trusted: it is quarantined and the open
//! fails loudly rather than silently desynchronizing the replay.
//! Cooperative interruption ([`SweepSession`]) stops scheduling new
//! steps, drains in-flight workers, and leaves the journal flushed.

use crate::memcached::Memcached;
use crate::nstore::NStore;
use crate::recovery::checksum;
use crate::redis::Redis;
use crate::tracker::{DeepMcTracker, NoopTracker, Tracker};
use crate::workloads::{sweep_script, ClientCtx, OpHistory, ScriptOp};
use deepmc_analysis::pool::{resolve_jobs_request, run_indexed};
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
#[derive(Debug, Clone)]
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

impl SweepOutcome {
    pub(crate) fn empty(app: SweepApp) -> SweepOutcome {
        SweepOutcome {
            app: app.name(),
            images_checked: 0,
            states_explored: 0,
            states_pruned: 0,
            records_dropped: 0,
            flushes_dropped: 0,
            fault_attributed: 0,
            bug_attributed: 0,
            dynamic_reports: 0,
            violations: Vec::new(),
        }
    }
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

/// The deterministic sweep script for this config.
pub(crate) fn script(cfg: &SweepConfig) -> Vec<ScriptOp> {
    sweep_script(cfg.seed, cfg.steps)
}

/// The crash policies swept: the three deterministic ones plus
/// `random_seeds` random evictions derived from the sweep seed.
pub(crate) fn policies(cfg: &SweepConfig) -> Vec<CrashPolicy> {
    let mut out = vec![CrashPolicy::Pessimistic, CrashPolicy::Optimistic, CrashPolicy::PendingOnly];
    for i in 0..cfg.random_seeds {
        out.push(CrashPolicy::Random(checksum(cfg.seed, &[0x5EED, i])));
    }
    out
}

pub(crate) fn policy_name(p: &CrashPolicy) -> String {
    match p {
        CrashPolicy::Pessimistic => "pessimistic".into(),
        CrashPolicy::Optimistic => "optimistic".into(),
        CrashPolicy::PendingOnly => "pending-only".into(),
        CrashPolicy::Random(s) => format!("random({s:#x})"),
    }
}

pub(crate) struct AppRun {
    pub(crate) pool: PmemPool,
    pub(crate) history: OpHistory,
}

/// Run the script prefix `0..crash_step` against a fresh fault-injecting
/// pool. Returns the pool ready to crash plus the recorded operation
/// history (writes, acks with positions, and buggy-path keys) the
/// post-recovery oracles compare against.
pub(crate) fn run_prefix(cfg: &SweepConfig, app: SweepApp, crash_step: usize) -> AppRun {
    let pool = PmemPool::with_faults(
        PoolConfig { size: 4 << 20, shards: 8, ..Default::default() },
        FaultConfig { seed: cfg.seed ^ crash_step as u64, ..cfg.fault },
    );
    let mut history = OpHistory::default();
    let ops = script(cfg);
    let noop = NoopTracker;
    let ctx = ClientCtx { id: 0, tracker: &noop, strand: None };
    {
        let heap = PmemHeap::open(&pool);
        // Pending acks for epoch style: promoted to acked at barriers.
        let mut pending: HashMap<u64, u64> = HashMap::new();
        match app {
            SweepApp::Memcached => {
                let mc = Memcached::new(&pool, &heap, 8);
                for (i, op) in ops.iter().take(crash_step).enumerate() {
                    match *op {
                        ScriptOp::Set { key, val } => {
                            mc.set(key, val, &noop, &ctx);
                            history.record_write(i as u64, key, val);
                            pending.insert(key, val);
                        }
                        // The mini-Memcached has no delete command in its
                        // protocol surface; script deletes become sets.
                        ScriptOp::Del { key } => {
                            mc.set(key, 0xDEAD, &noop, &ctx);
                            history.record_write(i as u64, key, 0xDEAD);
                            pending.insert(key, 0xDEAD);
                        }
                        ScriptOp::Barrier => {
                            if cfg.inject_bug {
                                mc.epoch_barrier_skip_fence(&noop);
                            } else {
                                mc.epoch_barrier(&noop);
                            }
                            for (k, v) in pending.drain() {
                                history.ack(k, i as u64, v, cfg.inject_bug);
                            }
                        }
                    }
                }
            }
            SweepApp::Redis => {
                let r = Redis::new(&pool, &heap, 8, 1 << 16);
                for (i, op) in ops.iter().take(crash_step).enumerate() {
                    match *op {
                        ScriptOp::Set { key, val } => {
                            history.record_write(i as u64, key, val);
                            if cfg.inject_bug && i % 4 == 3 {
                                r.set_skip_aof_persist(key, val, &noop, None);
                                history.ack(key, i as u64, val, true);
                            } else {
                                r.set(key, val, &noop, None);
                                history.ack(key, i as u64, val, false);
                            }
                        }
                        ScriptOp::Del { key } => {
                            r.del(key, &noop, None);
                            history.unack(key);
                        }
                        ScriptOp::Barrier => {}
                    }
                }
            }
            SweepApp::NStore => {
                let db = NStore::new(&pool, &heap, 8, 1 << 16);
                for (i, op) in ops.iter().take(crash_step).enumerate() {
                    match *op {
                        ScriptOp::Set { key, val } => {
                            let cols = [val, val ^ 1, val ^ 2, val ^ 3];
                            let buggy = cfg.inject_bug && i % 4 == 3;
                            if buggy {
                                db.put_skip_commit_persist(key, cols, &noop, None);
                            } else {
                                db.put(key, cols, &noop, None);
                            }
                            history.record_write(i as u64, key, val);
                            history.ack(key, i as u64, val, buggy);
                        }
                        // NStore has no delete; treat as an overwrite.
                        ScriptOp::Del { key } => {
                            let buggy = cfg.inject_bug && i % 4 == 3;
                            if buggy {
                                db.put_skip_commit_persist(key, [7, 7, 7, 7], &noop, None);
                            } else {
                                db.put(key, [7, 7, 7, 7], &noop, None);
                            }
                            history.record_write(i as u64, key, 7);
                            history.ack(key, i as u64, 7, buggy);
                        }
                        ScriptOp::Barrier => {}
                    }
                }
            }
        }
    }
    AppRun { pool, history }
}

/// Per-crash-step partial results. Each crash step is self-contained —
/// its own fault-injecting pool, script prefix, and crash images — so
/// steps run independently on the worker pool and merge in step order.
/// Serializable: a completed step's outcome is journaled verbatim and
/// replayed on `--resume` instead of re-executing the step.
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub(crate) struct StepOutcome {
    pub(crate) images_checked: u64,
    pub(crate) records_dropped: u64,
    pub(crate) flushes_dropped: u64,
    pub(crate) fault_attributed: u64,
    pub(crate) bug_attributed: u64,
    pub(crate) violations: Vec<Violation>,
}

/// Does `recovered` equal the state after *some* prefix of the op
/// history? Only meaningful for the strict apps (every op acks as it
/// completes); Memcached's epoch batching makes any barrier-consistent
/// mix legal, so it is excluded.
fn matches_some_prefix(
    cfg: &SweepConfig,
    app: SweepApp,
    crash_step: usize,
    recovered: &HashMap<u64, u64>,
) -> bool {
    let ops = script(cfg);
    // Most images sit exactly at the crash point; search backwards.
    for t in (0..=crash_step).rev() {
        let mut state: HashMap<u64, u64> = HashMap::new();
        for op in ops.iter().take(t) {
            match (app, *op) {
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
        if &state == recovered {
            return true;
        }
    }
    false
}

/// Reboot one crash image, run recovery, and check every invariant (plus
/// the [`SweepConfig::oracle`] oracles), accumulating into `outcome`.
/// Shared by the exhaustive sweep and the pruned explorer — a pruned
/// representative is validated by exactly this code.
#[allow(clippy::too_many_arguments)]
pub(crate) fn validate_image(
    cfg: &SweepConfig,
    app: SweepApp,
    crash_step: usize,
    policy: &CrashPolicy,
    img: &CrashImage,
    history: &OpHistory,
    flush_faults: u64,
    outcome: &mut StepOutcome,
) {
    let pool2 = img.reboot(8);
    let heap2 = PmemHeap::open(&pool2);
    outcome.images_checked += 1;
    let (recovered, report): (HashMap<u64, u64>, _) = match app {
        SweepApp::Memcached => {
            let (mc, rep) = Memcached::recover(&pool2, &heap2, 8);
            let noop = NoopTracker;
            let ctx = ClientCtx { id: 0, tracker: &noop, strand: None };
            let m = history.keys().filter_map(|k| mc.get(k, &noop, &ctx).map(|v| (k, v))).collect();
            (m, rep)
        }
        SweepApp::Redis => {
            let (r, rep) = Redis::recover(&pool2, &heap2, 8, 1 << 16);
            let m = history
                .keys()
                .filter_map(|k| r.get(k, &NoopTracker, None).map(|v| (k, v)))
                .collect();
            (m, rep)
        }
        SweepApp::NStore => {
            let (db, rep) = NStore::recover(&pool2, &heap2, 8, 1 << 16);
            let m = history
                .keys()
                .filter_map(|k| db.read(k, 0, &NoopTracker, None).map(|v| (k, v)))
                .collect();
            (m, rep)
        }
    };
    outcome.records_dropped += report.dropped();
    let attributable = report.dropped() > 0 || flush_faults > 0;
    let violation = |key: u64, detail: String| Violation {
        app: app.name().to_string(),
        crash_step: crash_step as u64,
        policy: policy_name(policy),
        key,
        detail,
    };
    // Keys are visited in sorted order so violation order is stable
    // across worker counts *and* processes (HashMap order is neither).
    let mut recovered_keys: Vec<u64> = recovered.keys().copied().collect();
    recovered_keys.sort_unstable();
    // Invariant 1: no corruption — recovered values were written.
    for k in recovered_keys {
        let v = recovered[&k];
        if !history.was_written(k, v) {
            outcome
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
            None => {
                if history.is_buggy(k) {
                    outcome.bug_attributed += 1;
                } else if attributable {
                    outcome.fault_attributed += 1;
                } else {
                    outcome.violations.push(violation(
                        k,
                        "acked key missing after recovery with no fault to blame".into(),
                    ));
                }
            }
            Some(&got) => {
                if cfg.oracle && got != want && !history.written_at_or_after(k, pos, got) {
                    if history.is_buggy(k) {
                        outcome.bug_attributed += 1;
                    } else if attributable {
                        outcome.fault_attributed += 1;
                    } else {
                        outcome.violations.push(violation(
                            k,
                            format!("acked value {want:#x} rolled back to stale {got:#x}"),
                        ));
                    }
                }
            }
        }
    }
    // Oracle: the strict apps' recovered state must be a prefix cut of
    // the op history. Skipped when a fault or the seeded bug already
    // explains a divergence (the prefix property only holds fault-free).
    if cfg.oracle
        && app != SweepApp::Memcached
        && !attributable
        && !history.any_buggy()
        && !matches_some_prefix(cfg, app, crash_step, &recovered)
    {
        outcome
            .violations
            .push(violation(0, "recovered state matches no prefix of the op history".into()));
    }
}

/// Crash after op `crash_step` under every policy and check invariants.
fn sweep_step(cfg: &SweepConfig, app: SweepApp, crash_step: usize) -> StepOutcome {
    let _s = obs::span_lazy("sweep.step", || {
        vec![("app", app.name().to_string()), ("step", crash_step.to_string())]
    });
    let mut outcome = StepOutcome::default();
    {
        let run = run_prefix(cfg, app, crash_step);
        // Faults already injected into this run: recovery drops plus
        // silently dropped clwbs both license missing acked data. The
        // pool's own counter (not the fault plan's) is authoritative:
        // it records exactly the drops this run experienced.
        let flush_faults = run.pool.stats().dropped_flushes;
        outcome.flushes_dropped += flush_faults;
        for policy in policies(cfg) {
            let img = policy.apply(&run.pool);
            validate_image(
                cfg,
                app,
                crash_step,
                &policy,
                &img,
                &run.history,
                flush_faults,
                &mut outcome,
            );
        }
    }
    obs::counter("sweep.images_checked", outcome.images_checked);
    obs::counter("sweep.records_dropped", outcome.records_dropped);
    obs::counter("sweep.flushes_dropped", outcome.flushes_dropped);
    obs::counter("sweep.fault_attributed", outcome.fault_attributed);
    obs::counter("sweep.bug_attributed", outcome.bug_attributed);
    obs::counter("sweep.violations", outcome.violations.len() as u64);
    outcome
}

/// Magic first line of a sweep journal; ties the journal to one config.
/// v2 added the exploration entry kind and the prune/oracle flags in the
/// fingerprint — v1 journals fail the header check and start fresh.
const JOURNAL_MAGIC: &str = "deepmc-sweep-journal-v2";

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

/// One validated class representative within a pruned crash step: the
/// policy index it was crashed under plus its verdict fragment.
#[derive(Clone, Serialize, Deserialize)]
pub(crate) struct ExploreFrag {
    pub(crate) policy: usize,
    pub(crate) outcome: StepOutcome,
}

/// One journaled unit of completed work.
#[derive(Clone, Serialize, Deserialize)]
pub(crate) enum JournalEntry {
    /// Exhaustive mode: one whole crash step.
    Step(StepOutcome),
    /// Pruned mode: the validated representative fragments of one crash
    /// step.
    Explore(Vec<ExploreFrag>),
}

/// One journaled line.
#[derive(Serialize, Deserialize)]
struct JournalLine {
    app: String,
    step: u64,
    entry: JournalEntry,
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
    done: HashMap<(String, u64), JournalEntry>,
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
                        match serde_json::from_str::<JournalLine>(line) {
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

    fn lookup_step(&self, app: &str, step: u64) -> Option<&StepOutcome> {
        match self.done.get(&(app.to_string(), step)) {
            Some(JournalEntry::Step(outcome)) => Some(outcome),
            _ => None,
        }
    }

    pub(crate) fn lookup_explore(&self, app: &str, step: u64) -> Option<&Vec<ExploreFrag>> {
        match self.done.get(&(app.to_string(), step)) {
            Some(JournalEntry::Explore(frags)) => Some(frags),
            _ => None,
        }
    }

    /// Append one completed step (single flushed write); returns how many
    /// steps this run has journaled so far.
    pub(crate) fn append(&self, app: &str, step: u64, entry: &JournalEntry) -> u64 {
        let line = JournalLine { app: app.to_string(), step, entry: entry.clone() };
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

/// What one pool job produced for a crash step.
enum StepResult {
    /// Session cancelled before the step started.
    Skipped,
    /// Replayed from the journal.
    Resumed(StepOutcome),
    /// Freshly executed.
    Computed(StepOutcome),
}

/// Sweep one application: crash after every op under every policy.
///
/// Crash steps fan out over a work-stealing pool sized by
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
    if cfg.prune {
        return crate::explore::explore_app_session(cfg, app, session);
    }
    let _s = obs::span_lazy("sweep.app", || vec![("app", app.name().to_string())]);
    let total_steps = script(cfg).len();
    let mut outcome = SweepOutcome::empty(app);
    if session.is_cancelled() {
        return (outcome, 0, total_steps as u64);
    }
    outcome.dynamic_reports = dynamic_cross_check(cfg, app);
    let jobs = resolve_jobs_request(cfg.jobs);
    let steps: Vec<usize> = (1..=total_steps).collect();
    let results = run_indexed(jobs, steps, |_, crash_step| {
        if session.is_cancelled() {
            return StepResult::Skipped;
        }
        if let Some(journal) = session.journal {
            if let Some(done) = journal.lookup_step(app.name(), crash_step as u64) {
                obs::counter("sweep.resumed_steps", 1);
                return StepResult::Resumed(done.clone());
            }
        }
        let out = sweep_step(cfg, app, crash_step);
        if let Some(journal) = session.journal {
            let journaled =
                journal.append(app.name(), crash_step as u64, &JournalEntry::Step(out.clone()));
            if session.trip_after.is_some_and(|t| journaled >= t) {
                session.cancel();
            }
        }
        StepResult::Computed(out)
    });
    let mut resumed = 0u64;
    let mut skipped = 0u64;
    for result in results {
        let step = match result {
            StepResult::Skipped => {
                skipped += 1;
                continue;
            }
            StepResult::Resumed(s) => {
                resumed += 1;
                s
            }
            StepResult::Computed(s) => s,
        };
        outcome.images_checked += step.images_checked;
        outcome.records_dropped += step.records_dropped;
        outcome.flushes_dropped += step.flushes_dropped;
        outcome.fault_attributed += step.fault_attributed;
        outcome.bug_attributed += step.bug_attributed;
        outcome.violations.extend(step.violations);
    }
    // Exhaustively, every image checked was explored; nothing pruned.
    outcome.states_explored = outcome.images_checked;
    outcome.states_pruned = 0;
    obs::counter("sweep.explored", outcome.states_explored);
    obs::counter("sweep.pruned", outcome.states_pruned);
    (outcome, resumed, skipped)
}

/// One instrumented, crash-free run of the same script: the dynamic
/// checker must stay quiet on the correct applications.
pub(crate) fn dynamic_cross_check(cfg: &SweepConfig, app: SweepApp) -> usize {
    let _s = obs::span_lazy("sweep.dynamic", || vec![("app", app.name().to_string())]);
    let pool = PmemPool::new(PoolConfig { size: 4 << 20, shards: 8, ..Default::default() });
    let heap = PmemHeap::open(&pool);
    let tracker = DeepMcTracker::new();
    let strand = tracker.region_begin();
    let ctx = ClientCtx { id: 0, tracker: &tracker, strand };
    let ops = script(cfg);
    match app {
        SweepApp::Memcached => {
            let mc = Memcached::new(&pool, &heap, 8);
            for op in &ops {
                match *op {
                    ScriptOp::Set { key, val } => {
                        mc.set(key, val, &tracker, &ctx);
                    }
                    ScriptOp::Del { key } => {
                        mc.set(key, 0xDEAD, &tracker, &ctx);
                    }
                    ScriptOp::Barrier => mc.epoch_barrier(&tracker),
                }
            }
        }
        SweepApp::Redis => {
            let r = Redis::new(&pool, &heap, 8, 1 << 16);
            for op in &ops {
                match *op {
                    ScriptOp::Set { key, val } => r.set(key, val, &tracker, strand),
                    ScriptOp::Del { key } => {
                        r.del(key, &tracker, strand);
                    }
                    ScriptOp::Barrier => {}
                }
            }
        }
        SweepApp::NStore => {
            let db = NStore::new(&pool, &heap, 8, 1 << 16);
            for op in &ops {
                match *op {
                    ScriptOp::Set { key, val } => {
                        db.put(key, [val, val ^ 1, val ^ 2, val ^ 3], &tracker, strand)
                    }
                    ScriptOp::Del { key } => db.put(key, [7, 7, 7, 7], &tracker, strand),
                    ScriptOp::Barrier => {}
                }
            }
        }
    }
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
        let cfg = SweepConfig { inject_bug: true, prune: true, oracle: true, jobs: 2, ..small(13) };
        let apps = [SweepApp::NStore];
        let straight = sweep(&cfg, &apps);

        let journal = SweepJournal::open(&journal_path, &cfg, &apps, false).unwrap();
        let session =
            SweepSession { journal: Some(&journal), trip_after: Some(2), ..Default::default() };
        let first = sweep_session(&cfg, &apps, &session);
        assert!(first.interrupted(), "trip_after must cancel the exploration mid-run");
        drop(journal);

        let journal = SweepJournal::open(&journal_path, &cfg, &apps, true).unwrap();
        assert!(journal.loaded_steps() >= 2);
        let session = SweepSession { journal: Some(&journal), ..Default::default() };
        let second = sweep_session(&cfg, &apps, &session);
        assert!(!second.interrupted());
        assert!(second.resumed_steps > 0, "journaled exploration steps replay on resume");
        assert_eq!(
            outcomes_text(&second.outcomes),
            outcomes_text(&straight),
            "resumed pruned sweep must match the uninterrupted one byte for byte"
        );
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
