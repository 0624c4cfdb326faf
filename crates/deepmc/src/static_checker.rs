//! The static checker (paper §4.3, Fig. 8 step ④).
//!
//! The checker scans every collected trace in program order and applies the
//! checking rules of Tables 4 and 5. A trace is already address-resolved
//! (every event names an abstract object + field, courtesy of the DSG-backed
//! trace collector), so rules reduce to overlap/coverage tests.
//!
//! Rule timing, as implemented:
//!
//! * **UnflushedWrite** fires at the point durability is due: transaction
//!   commit (for unlogged in-transaction writes, Fig. 2), epoch end (for
//!   epoch-model writes), or end of trace.
//! * **MultipleWritesAtOnce** fires at a fence preceded by ≥2 distinct,
//!   all-flushed writes outside any transaction/epoch (batching inside a
//!   transaction is the framework's job; unflushed writes are reported by
//!   other rules instead).
//! * **MissingPersistBarrier** fires when a flush is still unfenced at the
//!   next persistent write or `tx_begin` (strict, Fig. 3), when a new epoch
//!   begins without a barrier since the previous epoch ended (epoch), and
//!   for a trailing unfenced flush under strict.
//! * **MissingBarrierNestedTx** fires when a nested epoch/transaction that
//!   performed persistent work ends without a barrier in tail position
//!   (Fig. 4).
//! * **SemanticMismatch** fires when a write becomes durable only in a
//!   later fence-delimited persist unit (Fig. 1: `nbuckets` persisted after
//!   the buckets' barrier), and, under epoch models, when two consecutive
//!   epochs write the same object (atomicity split across epochs).
//! * **InterStrandDependency** has a static variant here (overlapping
//!   sibling-strand address sets with a write involved); the authoritative
//!   check is the dynamic one.
//! * **UnmodifiedWriteback** fires for a flush with no dirty data under it,
//!   and — field-sensitively — for a whole-object flush when only a proper
//!   subset of fields is dirty (Fig. 5).
//! * **RedundantWriteback / RedundantPersistInTx** fire for re-flushes of
//!   clean data (Fig. 6), resp. repeated persists of one object inside a
//!   transaction.
//! * **EmptyDurableTx** fires at commit of a transaction that performed no
//!   persistent write on this path (Fig. 7).

use crate::cache::{self, AnalysisCache, CacheEntry, CacheRunStats};
use crate::config::DeepMcConfig;
use crate::report::{FixHint, Report, RootFailure, Warning};
use deepmc_analysis::trace::{EvKind, EvLoc};
use deepmc_analysis::{
    pool, Addr, CallGraph, DsaResult, FieldSel, FuncRef, ObjId, Program, Trace, TraceCollector,
    TraceEvent,
};
use deepmc_models::{BugClass, PersistencyModel};
use deepmc_obs as obs;
use std::collections::BTreeSet;

/// Span/event annotation naming an analysis root. Only called when a
/// recorder is active (the `to_string` allocates).
fn root_arg(program: &Program, root: FuncRef) -> Vec<(&'static str, String)> {
    vec![("root", program.func(root).name.clone())]
}

/// What one analysis root contributed to a run; produced by one worker,
/// merged in root order by [`StaticChecker::check_program_with_jobs`].
struct RootOutcome {
    /// Raw (pre-dedup) warnings from this root's traces.
    raw: Vec<Warning>,
    traces: u64,
    paths_pruned: u64,
    events_truncated: u64,
    /// The root's walk hit its wall-clock or step budget; the warnings are
    /// from a partial trace set and the result is never cached.
    timed_out: bool,
    source: RootSource,
}

enum RootSource {
    CacheHit,
    Computed { stored: bool },
}

impl RootOutcome {
    fn from_entry(entry: CacheEntry) -> RootOutcome {
        RootOutcome {
            raw: entry.warnings,
            traces: entry.traces,
            paths_pruned: entry.paths_pruned,
            events_truncated: entry.events_truncated,
            timed_out: false,
            source: RootSource::CacheHit,
        }
    }
}

/// The static checker. Create one per configuration and feed it programs or
/// traces.
#[derive(Debug, Clone)]
pub struct StaticChecker {
    config: DeepMcConfig,
}

impl StaticChecker {
    pub fn new(config: DeepMcConfig) -> Self {
        StaticChecker { config }
    }

    /// Full pipeline: call graph → DSA → traces → rules → deduplicated
    /// report.
    ///
    /// Mixed-model programs (the paper's §4.5 limitation, lifted here):
    /// a root function carrying a `model_strict`/`model_epoch`/
    /// `model_strand` attribute is checked under that model instead of the
    /// global flag.
    pub fn check_program(&self, program: &Program) -> Report {
        self.check_program_cached(program, None).0
    }

    /// [`StaticChecker::check_program`], optionally backed by an on-disk
    /// incremental cache. Worker count comes from `DEEPMC_JOBS` /
    /// available cores; see [`StaticChecker::check_program_with_jobs`].
    pub fn check_program_cached(
        &self,
        program: &Program,
        cache: Option<&AnalysisCache>,
    ) -> (Report, CacheRunStats) {
        self.check_program_with_jobs(program, cache, 0)
    }

    /// [`StaticChecker::check_program_cached`] with an explicit worker
    /// count: `0` resolves `DEEPMC_JOBS` / available cores, `1` forces the
    /// sequential pipeline, `n > 1` fans the analysis roots out over the
    /// calling thread and `n - 1` pool helpers sharing one trace
    /// collector.
    ///
    /// The pipeline runs root by root. With a cache, each root's content
    /// key ([`cache::root_key`]) is looked up first; a hit replays the
    /// stored raw warnings and pruning/truncation deltas instead of
    /// collecting and scanning traces, so the report — notes included —
    /// is byte-identical to a cold run. Cold roots are *claimed*
    /// ([`AnalysisCache::claim`]) so two workers never double-compute one.
    /// CFG, call-graph, and DSA construction always run (they are cheap
    /// and the key depends on DSA facts).
    ///
    /// Determinism: per-root results are merged in root order and
    /// [`Report::from_raw`] fully sorts before deduplicating, so the
    /// report and the cache contents are byte-identical for every worker
    /// count.
    pub fn check_program_with_jobs(
        &self,
        program: &Program,
        cache: Option<&AnalysisCache>,
        jobs: usize,
    ) -> (Report, CacheRunStats) {
        let jobs = pool::resolve_jobs(jobs);
        let cg = {
            let _s = obs::span("cfg");
            CallGraph::build(program)
        };
        let dsa = {
            let _s = obs::span("dsa");
            DsaResult::analyze(program, &cg)
        };
        let collector = TraceCollector::new(program, &dsa, self.config.trace.clone());
        let keys = cache.map(|_| {
            let _s = obs::span("cache.keys");
            cache::KeyBuilder::new(&self.config, program, &dsa, &cg)
        });
        let roots = collector.analysis_roots(&cg);
        obs::counter("check.roots", roots.len() as u64);
        let quarantined_before = cache.map(|c| c.quarantined_count()).unwrap_or(0);
        let outcomes = {
            // One driver-side span over the whole fan-out, so the
            // top-level phases partition the wall clock even when the
            // per-root traces/rules spans land on worker threads.
            let _s = obs::span_lazy("roots", || vec![("jobs", jobs.to_string())]);
            // Panic isolation: a panicking root (pathological input, or
            // injected chaos) becomes an Err slot here and a RootFailure
            // below, instead of aborting the whole run.
            pool::run_indexed_caught(jobs, roots.clone(), |_, root| {
                self.check_root(program, &collector, cache, keys.as_ref(), root)
            })
        };
        // Deterministic merge: outcomes arrive in root order regardless of
        // scheduling, and every aggregate below is associative.
        let mut raw = Vec::new();
        let mut stats = CacheRunStats::default();
        let mut paths_pruned = 0u64;
        let mut events_truncated = 0u64;
        let mut timeouts = 0u64;
        let mut failures: Vec<RootFailure> = Vec::new();
        for (i, result) in outcomes.into_iter().enumerate() {
            let o = match result {
                Ok(o) => o,
                Err(panic) => {
                    failures.push(RootFailure { root: program.func(roots[i]).name.clone(), panic });
                    continue;
                }
            };
            match o.source {
                RootSource::CacheHit => stats.hits += 1,
                RootSource::Computed { stored } => {
                    if cache.is_some() {
                        stats.misses += 1;
                    }
                    if stored {
                        stats.stores += 1;
                    }
                }
            }
            if o.timed_out {
                timeouts += 1;
            }
            stats.traces += o.traces;
            paths_pruned += o.paths_pruned;
            events_truncated += o.events_truncated;
            raw.extend(o.raw);
        }
        if !failures.is_empty() {
            obs::counter("robust.panics", failures.len() as u64);
        }
        if timeouts > 0 {
            obs::counter("robust.timeouts", timeouts);
        }
        stats.quarantined = cache.map(|c| c.quarantined_count() - quarantined_before).unwrap_or(0);
        obs::counter("check.traces", stats.traces);
        obs::counter("check.paths_pruned", paths_pruned);
        obs::counter("check.events_truncated", events_truncated);
        obs::counter("check.warnings_raw", raw.len() as u64);
        if cache.is_some() {
            obs::counter("cache.hits", stats.hits);
            obs::counter("cache.misses", stats.misses);
            obs::counter("cache.stores", stats.stores);
        }
        let _report_span = obs::span("report");
        let mut report = Report::from_raw(raw);
        if paths_pruned > 0 {
            report.push_note(format!(
                "path budget exhausted: {paths_pruned} branch fork(s) explored one \
                 successor only (max_paths = {}); coverage is incomplete",
                self.config.trace.max_paths
            ));
        }
        if events_truncated > 0 {
            report.push_note(format!(
                "trace length cap hit: {events_truncated} event(s) dropped \
                 (max_trace_len = {}); coverage is incomplete",
                self.config.trace.max_trace_len
            ));
        }
        if timeouts > 0 {
            report.push_note(format!(
                "analysis budget exceeded: {timeouts} root(s) stopped early \
                 and contributed partial results"
            ));
            report.mark_degraded();
        }
        // Failures arrive in root order (the merge above walks outcomes by
        // index), so the degraded report is schedule-independent too.
        for failure in failures {
            report.push_failure(failure);
        }
        (report, stats)
    }

    /// One worker's unit of work: produce everything root `root`
    /// contributes to the run. Pure function of (checker, program, root)
    /// plus cache state, so workers can run it in any order.
    fn check_root(
        &self,
        program: &Program,
        collector: &TraceCollector<'_>,
        cache: Option<&AnalysisCache>,
        keys: Option<&cache::KeyBuilder<'_>>,
        root: FuncRef,
    ) -> RootOutcome {
        let key = keys.map(|kb| kb.root_key(root));
        if let (Some(c), Some(k)) = (cache, key.as_deref()) {
            if let Some(entry) = c.lookup(k) {
                if obs::active() {
                    obs::instant_args("cache.hit", root_arg(program, root));
                }
                return RootOutcome::from_entry(entry);
            }
            // Cold root. Claim it so a concurrent worker — here or in
            // another process sharing the directory — doesn't recompute.
            if let Some(_guard) = c.claim(k) {
                let mut out = self.compute_root(program, collector, root);
                self.store_root(c, k.to_string(), program, root, &mut out);
                return out;
            }
            // Claim lost: the holder is computing. Wait for its entry;
            // if the claim turns out stale (holder died), compute here.
            obs::counter("cache.claim_waits", 1);
            let waited = {
                let _s = obs::span_lazy("cache.wait", || root_arg(program, root));
                c.wait_for(k)
            };
            if let Some(entry) = waited {
                return RootOutcome::from_entry(entry);
            }
            let mut out = self.compute_root(program, collector, root);
            self.store_root(c, k.to_string(), program, root, &mut out);
            return out;
        }
        self.compute_root(program, collector, root)
    }

    /// Collect and scan one root's traces (the uncached path).
    fn compute_root(
        &self,
        program: &Program,
        collector: &TraceCollector<'_>,
        root: FuncRef,
    ) -> RootOutcome {
        let name = &program.func(root).name;
        if self.config.chaos_panic_roots.iter().any(|r| r == name) {
            panic!("chaos: injected panic in root `{name}`");
        }
        let (traces, trunc) = {
            let _s = obs::span_lazy("traces", || root_arg(program, root));
            collector.collect_root_counted(root)
        };
        let model = model_override(program.func(root)).unwrap_or(self.config.model);
        let mut config = self.config.clone();
        config.model = model;
        let _s = obs::span_lazy("rules", || root_arg(program, root));
        let mut raw = Vec::new();
        for t in &traces {
            let mut scan = Scan::new(&config, t);
            for ev in &t.events {
                scan.step(ev);
            }
            raw.extend(scan.finish());
        }
        RootOutcome {
            raw,
            traces: traces.len() as u64,
            paths_pruned: trunc.paths_pruned,
            events_truncated: trunc.events_truncated,
            timed_out: trunc.timed_out,
            source: RootSource::Computed { stored: false },
        }
    }

    fn store_root(
        &self,
        c: &AnalysisCache,
        key: String,
        program: &Program,
        root: FuncRef,
        out: &mut RootOutcome,
    ) {
        // A budget-truncated result is not the root's true analysis:
        // caching it would replay the partial warning set on runs that
        // have no (or a larger) budget. Leave the root cold instead.
        if out.timed_out {
            return;
        }
        c.store(&CacheEntry {
            key,
            root: program.func(root).name.clone(),
            warnings: out.raw.clone(),
            paths_pruned: out.paths_pruned,
            events_truncated: out.events_truncated,
            traces: out.traces,
        });
        out.source = RootSource::Computed { stored: true };
    }

    /// Apply the rules to pre-collected traces.
    pub fn check_traces(&self, traces: &[Trace]) -> Report {
        let mut raw = Vec::new();
        for t in traces {
            raw.extend(self.check_trace(t));
        }
        Report::from_raw(raw)
    }

    /// Apply the rules to one trace; returns raw (non-deduplicated)
    /// warnings.
    pub fn check_trace(&self, trace: &Trace) -> Vec<Warning> {
        let mut scan = Scan::new(&self.config, trace);
        for ev in &trace.events {
            scan.step(ev);
        }
        scan.finish()
    }
}

/// A persistent write awaiting durability.
#[derive(Debug, Clone)]
struct PendingWrite {
    addr: Addr,
    loc: EvLoc,
    /// Fence-interval at write time (for the delayed-persist mismatch).
    interval: u32,
    /// Innermost transaction id at write time, if any.
    tx: Option<u64>,
    /// Innermost epoch id at write time, if any.
    epoch: Option<u64>,
}

#[derive(Debug, Clone)]
struct TxFrame {
    id: u64,
    commit_pending_writes: usize,
    /// Addresses undo-logged so far in this transaction.
    logged: Vec<Addr>,
    /// Objects flushed in this transaction (for RedundantPersistInTx).
    flushed_objs: Vec<(ObjId, EvLoc)>,
}

#[derive(Debug, Clone)]
struct EpochFrame {
    id: u64,
    /// Objects written inside this epoch.
    written_objs: BTreeSet<ObjId>,
    /// Persistent work (write or flush) happened in this epoch.
    did_work: bool,
    /// The epoch's tail currently ends with a fence.
    fence_at_tail: bool,
    begin_loc: EvLoc,
}

/// Addresses a strand touched, split by access kind.
#[derive(Debug, Clone, Default)]
struct StrandSet {
    writes: Vec<Addr>,
    reads: Vec<Addr>,
}

struct Scan<'a> {
    model: PersistencyModel,
    check_violations: bool,
    check_performance: bool,
    field_sensitive: bool,
    trace: &'a Trace,
    warnings: Vec<Warning>,

    pending: Vec<PendingWrite>,
    /// Flushed-but-unfenced addresses.
    unfenced_flushes: Vec<(Addr, EvLoc)>,
    /// Written-and-not-yet-flushed addresses (performance dirty set).
    dirty: Vec<Addr>,
    /// Flushed addresses not re-written since (redundant-flush detection).
    clean: Vec<Addr>,
    /// Distinct write addresses since the last fence, with flush status.
    writes_since_fence: Vec<(Addr, bool)>,
    fence_interval: u32,
    next_region_id: u64,
    tx_stack: Vec<TxFrame>,
    epoch_stack: Vec<EpochFrame>,
    /// Objects written by the most recently closed epoch.
    prev_epoch_objs: Option<(BTreeSet<ObjId>, EvLoc)>,
    /// A fence has been seen since the last epoch closed.
    fence_since_epoch_end: bool,
    /// Open strand accumulation, and closed sibling strands since the last
    /// fence.
    current_strand: Option<(StrandSet, EvLoc)>,
    sibling_strands: Vec<(StrandSet, EvLoc)>,
}

impl<'a> Scan<'a> {
    fn new(config: &DeepMcConfig, trace: &'a Trace) -> Scan<'a> {
        Scan {
            model: config.model,
            check_violations: config.check_violations,
            check_performance: config.check_performance,
            field_sensitive: config.field_sensitive,
            trace,
            warnings: Vec::new(),
            pending: Vec::new(),
            unfenced_flushes: Vec::new(),
            dirty: Vec::new(),
            clean: Vec::new(),
            writes_since_fence: Vec::new(),
            fence_interval: 0,
            next_region_id: 0,
            tx_stack: Vec::new(),
            epoch_stack: Vec::new(),
            prev_epoch_objs: None,
            fence_since_epoch_end: true,
            current_strand: None,
            sibling_strands: Vec::new(),
        }
    }

    fn warn(&mut self, class: BugClass, loc: &EvLoc, message: String) {
        self.warn_fix(class, loc, message, None);
    }

    fn warn_fix(
        &mut self,
        class: BugClass,
        loc: &EvLoc,
        message: String,
        fix: Option<crate::report::FixHint>,
    ) {
        let is_violation = class.severity() == deepmc_models::Severity::Violation;
        if (is_violation && !self.check_violations) || (!is_violation && !self.check_performance) {
            return;
        }
        // Report rendering is the only place dense function indices are
        // resolved back to strings; catch a stale or cross-program index
        // here rather than rendering the wrong attribution.
        debug_assert!(
            (loc.func as usize) < self.trace.locs.len(),
            "event function index {} outside the trace's location table ({} entries)",
            loc.func,
            self.trace.locs.len()
        );
        self.warnings.push(Warning {
            file: self.trace.locs.file(loc.func).to_string(),
            line: loc.line,
            class,
            function: self.trace.locs.name(loc.func).to_string(),
            root: self.trace.root.to_string(),
            message,
            model: self.model,
            dynamic: false,
            fix,
        });
    }

    fn obj_name(&self, obj: ObjId) -> String {
        self.trace.object_name(obj).to_string()
    }

    fn in_tx(&self) -> bool {
        !self.tx_stack.is_empty()
    }

    fn in_epoch(&self) -> bool {
        !self.epoch_stack.is_empty()
    }

    /// Degrade an address to whole-object granularity when the
    /// field-sensitivity ablation is active.
    fn granulate(&self, addr: Addr) -> Addr {
        if self.field_sensitive {
            addr
        } else {
            Addr::whole(addr.obj)
        }
    }

    fn step(&mut self, ev: &TraceEvent) {
        // Packed events are a plain struct copy; the object-granularity
        // ablation rewrites the address field in place.
        let mut ev = *ev;
        if !self.field_sensitive {
            if let Some(addr) = ev.addr() {
                ev.set_addr(self.granulate(addr));
            }
        }
        let loc = ev.loc();
        match ev.kind {
            EvKind::Write => {
                let addr = ev.addr().expect("write carries an address");
                self.on_write(addr, &loc)
            }
            EvKind::Read => {
                if let Some((set, _)) = &mut self.current_strand {
                    set.reads.push(ev.addr().expect("read carries an address"));
                }
            }
            EvKind::Flush => {
                let addr = ev.addr().expect("flush carries an address");
                self.on_flush(addr, &loc)
            }
            EvKind::Fence => self.on_fence(&loc),
            EvKind::TxBegin => self.on_tx_begin(&loc),
            EvKind::TxCommit => self.on_tx_commit(&loc),
            EvKind::TxAbort => self.on_tx_abort(),
            EvKind::TxAdd => {
                if let Some(frame) = self.tx_stack.last_mut() {
                    frame.logged.push(ev.addr().expect("tx_add carries an address"));
                }
            }
            EvKind::EpochBegin => self.on_epoch_begin(&loc),
            EvKind::EpochEnd => self.on_epoch_end(&loc),
            EvKind::StrandBegin => {
                self.current_strand = Some((StrandSet::default(), loc));
            }
            EvKind::StrandEnd => self.on_strand_end(&loc),
        }
    }

    fn on_write(&mut self, addr: Addr, loc: &EvLoc) {
        // Strict: an unfenced flush followed by another persistent write
        // breaks program-order durability (Fig. 3 shape).
        if self.model == PersistencyModel::Strict && !self.unfenced_flushes.is_empty() {
            let (f_addr, f_loc) = self.unfenced_flushes[0];
            // A rewrite of the very address that was just flushed is a
            // flush-then-modify pattern, not a missing barrier.
            if !f_addr.overlaps(&addr) {
                self.warn_fix(
                    BugClass::MissingPersistBarrier,
                    &f_loc,
                    format!(
                        "flush at line {} is not followed by a persist barrier before \
                         the next persistent write (line {})",
                        f_loc.line, loc.line
                    ),
                    Some(FixHint::InsertFenceAfter { line: f_loc.line }),
                );
                // The unfenced flushes' writes are accounted for by this
                // report; do not re-report them as batched durability at
                // the eventual fence.
                let cleared: Vec<Addr> = self.unfenced_flushes.iter().map(|(a, _)| *a).collect();
                self.unfenced_flushes.clear();
                self.writes_since_fence.retain(|(a, _)| !cleared.iter().any(|f| f.covers(a)));
            }
        }

        // Epoch-frame bookkeeping.
        if let Some(frame) = self.epoch_stack.last_mut() {
            frame.written_objs.insert(addr.obj);
            frame.did_work = true;
            frame.fence_at_tail = false;
        }
        // Transaction bookkeeping (a write counts for every enclosing tx).
        let logged =
            self.tx_stack.last().map(|f| f.logged.iter().any(|l| l.covers(&addr))).unwrap_or(false);
        for frame in &mut self.tx_stack {
            frame.commit_pending_writes += 1;
        }

        // Performance dirty set.
        self.clean.retain(|c| !c.overlaps(&addr));
        if !self.dirty.iter().any(|d| d.covers(&addr)) {
            self.dirty.push(addr);
        }

        // Strict-model batching set.
        if !self.writes_since_fence.iter().any(|(a, _)| a.overlaps(&addr)) {
            self.writes_since_fence.push((addr, false));
        }

        // Strand tracking.
        if let Some((set, _)) = &mut self.current_strand {
            set.writes.push(addr);
        }

        // Durability obligation, unless the enclosing transaction's undo
        // log already guarantees persistence at commit.
        if !logged {
            self.pending.push(PendingWrite {
                addr,
                loc: *loc,
                interval: self.fence_interval,
                tx: self.tx_stack.last().map(|f| f.id),
                epoch: self.epoch_stack.last().map(|f| f.id),
            });
        }
    }

    fn on_flush(&mut self, addr: Addr, loc: &EvLoc) {
        // --- performance rules -------------------------------------------
        let dirty_hits: Vec<Addr> =
            self.dirty.iter().copied().filter(|d| d.overlaps(&addr)).collect();
        let clean_hit = self.clean.iter().any(|c| c.overlaps(&addr));
        if dirty_hits.is_empty() {
            // Re-flushing recently flushed data is owned by the
            // redundant-writeback rules below; flushing data that was
            // *never* written is the unmodified-data bug (Table 5 row 1).
            if !clean_hit {
                self.warn_fix(
                    BugClass::UnmodifiedWriteback,
                    loc,
                    format!("flushing `{}` which was never modified", self.obj_name(addr.obj)),
                    Some(FixHint::RemoveWriteback { line: loc.line }),
                );
            }
        } else if addr.sel == FieldSel::Whole {
            // Field-sensitive partial-modification check (Fig. 5): flushing
            // a whole object while only a proper subset of fields is dirty.
            let whole_dirty = dirty_hits.iter().any(|d| d.sel == FieldSel::Whole);
            if !whole_dirty {
                let dirty_fields: BTreeSet<u32> = dirty_hits
                    .iter()
                    .filter_map(|d| match d.sel {
                        FieldSel::Field(f) | FieldSel::Elem { field: f, .. } => Some(f),
                        FieldSel::Whole => None,
                    })
                    .collect();
                if let Some(total) = self.trace.object_field_count(addr.obj) {
                    if (dirty_fields.len() as u32) < total {
                        self.warn_fix(
                            BugClass::UnmodifiedWriteback,
                            loc,
                            format!(
                                "persisting entire object `{}` ({} fields) though only \
                                 {} field(s) were modified",
                                self.obj_name(addr.obj),
                                total,
                                dirty_fields.len()
                            ),
                            Some(FixHint::NarrowWriteback { line: loc.line }),
                        );
                    }
                }
            }
        }

        // Redundant write-backs: re-flushing clean data (Fig. 6), or
        // persisting the same object repeatedly inside one transaction.
        let mut fired_redundant = false;
        if let Some(frame) = self.tx_stack.last_mut() {
            if let Some((_, first_loc)) = frame.flushed_objs.iter().find(|(o, _)| *o == addr.obj) {
                let first_line = first_loc.line;
                self.warn_fix(
                    BugClass::RedundantPersistInTx,
                    loc,
                    format!(
                        "object `{}` persisted multiple times in one transaction \
                         (first at line {first_line})",
                        self.obj_name(addr.obj)
                    ),
                    Some(FixHint::RemoveWriteback { line: loc.line }),
                );
                fired_redundant = true;
            } else {
                frame.flushed_objs.push((addr.obj, *loc));
            }
        }
        if !fired_redundant && clean_hit {
            self.warn_fix(
                BugClass::RedundantWriteback,
                loc,
                format!(
                    "redundant write-back of `{}`: already flushed and not modified since",
                    self.obj_name(addr.obj)
                ),
                Some(FixHint::RemoveWriteback { line: loc.line }),
            );
        }

        // --- violation-rule bookkeeping ----------------------------------
        // Writes covered by this flush have met their durability
        // obligation; a covering flush in a *later* fence interval means
        // the program's persist unit did not match its atomic intent
        // (Fig. 1), except inside transactions where the framework defines
        // the unit.
        let interval = self.fence_interval;
        let in_tx = self.in_tx();
        let mut mismatches: Vec<(EvLoc, u32)> = Vec::new();
        self.pending.retain(|p| {
            if addr.covers(&p.addr) {
                if !in_tx && p.tx.is_none() && p.interval < interval {
                    mismatches.push((p.loc, p.interval));
                }
                false
            } else {
                true
            }
        });
        for (w_loc, _) in mismatches {
            self.warn_fix(
                BugClass::SemanticMismatch,
                loc,
                format!(
                    "write at line {} is made durable only after an intervening persist \
                     barrier — the implementation does not persist it in the unit the \
                     program treats as atomic",
                    w_loc.line
                ),
                Some(FixHint::MovePersistToStore { store_line: w_loc.line, flush_line: loc.line }),
            );
        }

        self.dirty.retain(|d| !addr.covers(d));
        self.clean.retain(|c| !addr.covers(c));
        self.clean.push(addr);
        self.unfenced_flushes.push((addr, *loc));
        for (a, flushed) in &mut self.writes_since_fence {
            if addr.covers(a) {
                *flushed = true;
            }
        }
        if let Some(frame) = self.epoch_stack.last_mut() {
            frame.did_work = true;
            frame.fence_at_tail = false;
        }
    }

    fn on_fence(&mut self, loc: &EvLoc) {
        // Strict: a barrier should make exactly one write durable. Fires
        // only when every preceding write was actually flushed (otherwise
        // the unflushed/mismatch rules own the report) and outside
        // transactions/epochs, whose frameworks batch legitimately.
        if (self.model == PersistencyModel::Strict || (self.model.has_epochs() && !self.in_epoch()))
            && !self.in_tx()
            && !self.in_epoch()
            && self.writes_since_fence.len() >= 2
            && self.writes_since_fence.iter().all(|(_, flushed)| *flushed)
        {
            let n = self.writes_since_fence.len();
            self.warn(
                BugClass::MultipleWritesAtOnce,
                loc,
                format!(
                    "{n} distinct writes are made durable by a single persist \
                     barrier; the declared model requires per-unit durability"
                ),
            );
        }
        self.writes_since_fence.clear();
        self.unfenced_flushes.clear();
        self.fence_interval += 1;
        self.fence_since_epoch_end = true;
        if let Some(frame) = self.epoch_stack.last_mut() {
            frame.fence_at_tail = true;
        }
        // A barrier issued between strands orders them: siblings before it
        // cannot race with strands after it. A fence *inside* a strand only
        // orders that strand's own persists.
        if self.current_strand.is_none() {
            self.sibling_strands.clear();
        }
    }

    fn on_tx_begin(&mut self, loc: &EvLoc) {
        if self.model == PersistencyModel::Strict && !self.unfenced_flushes.is_empty() {
            let (_, f_loc) = self.unfenced_flushes[0];
            self.warn_fix(
                BugClass::MissingPersistBarrier,
                &f_loc,
                format!(
                    "flush at line {} has no persist barrier before the transaction \
                     beginning at line {} — operations of the two transactions may \
                     interleave",
                    f_loc.line, loc.line
                ),
                Some(FixHint::InsertFenceAfter { line: f_loc.line }),
            );
            self.unfenced_flushes.clear();
        }
        let id = self.next_region_id;
        self.next_region_id += 1;
        self.tx_stack.push(TxFrame {
            id,
            commit_pending_writes: 0,
            logged: Vec::new(),
            flushed_objs: Vec::new(),
        });
    }

    fn on_tx_commit(&mut self, loc: &EvLoc) {
        let Some(frame) = self.tx_stack.pop() else { return };

        // Unlogged, unflushed writes made inside this transaction are not
        // durable after commit (Fig. 2).
        let mut missed: Vec<(Addr, EvLoc)> = Vec::new();
        self.pending.retain(|p| {
            if p.tx == Some(frame.id) {
                missed.push((p.addr, p.loc));
                false
            } else {
                true
            }
        });
        for (addr, w_loc) in missed {
            let name = self.obj_name(addr.obj);
            self.warn_fix(
                BugClass::UnflushedWrite,
                &w_loc,
                format!(
                    "`{name}` is modified at line {} inside a transaction without being \
                     undo-logged (tx_add) or flushed; the update is not durable at commit",
                    w_loc.line
                ),
                Some(FixHint::LogObjectBeforeStore { store_line: w_loc.line }),
            );
        }

        // Commit persists the logged objects.
        let logged = frame.logged.clone();
        self.dirty.retain(|d| !logged.iter().any(|l| l.covers(d)));

        // A synthetic ambient transaction (wrapped around `tx_context`
        // roots, recognizable by its unknown location) provides logging
        // context for the callee but is the *caller's* durable unit — only
        // explicit transactions assert durability of their own.
        if frame.commit_pending_writes == 0 && loc.line != 0 {
            self.warn(
                BugClass::EmptyDurableTx,
                loc,
                "durable transaction commits without any persistent write on this path".to_string(),
            );
        }

        // Commit drains the persistence queue: an implicit barrier.
        self.writes_since_fence.clear();
        self.unfenced_flushes.clear();
        self.fence_interval += 1;
        self.fence_since_epoch_end = true;
    }

    fn on_tx_abort(&mut self) {
        if let Some(frame) = self.tx_stack.pop() {
            // Rolled-back writes carry no durability obligation.
            self.pending.retain(|p| p.tx != Some(frame.id));
        }
    }

    fn on_epoch_begin(&mut self, loc: &EvLoc) {
        if self.model.has_epochs()
            && self.prev_epoch_objs.is_some()
            && !self.fence_since_epoch_end
            && self.epoch_stack.is_empty()
        {
            let prev_loc = self.prev_epoch_objs.as_ref().unwrap().1;
            self.warn_fix(
                BugClass::MissingPersistBarrier,
                &prev_loc,
                format!(
                    "no persist barrier between the epoch ending at line {} and the \
                     epoch beginning at line {}",
                    prev_loc.line, loc.line
                ),
                Some(FixHint::InsertFenceAfter { line: prev_loc.line }),
            );
        }
        let id = self.next_region_id;
        self.next_region_id += 1;
        self.epoch_stack.push(EpochFrame {
            id,
            written_objs: BTreeSet::new(),
            did_work: false,
            fence_at_tail: false,
            begin_loc: *loc,
        });
    }

    fn on_epoch_end(&mut self, loc: &EvLoc) {
        let Some(frame) = self.epoch_stack.pop() else { return };

        // Epoch-model writes must be flushed before their epoch closes.
        if self.model.has_epochs() {
            let mut missed: Vec<(Addr, EvLoc)> = Vec::new();
            self.pending.retain(|p| {
                if p.epoch == Some(frame.id) {
                    missed.push((p.addr, p.loc));
                    false
                } else {
                    true
                }
            });
            for (addr, w_loc) in missed {
                let name = self.obj_name(addr.obj);
                self.warn_fix(
                    BugClass::UnflushedWrite,
                    &w_loc,
                    format!(
                        "write to `{name}` at line {} is never flushed within its epoch",
                        w_loc.line
                    ),
                    Some(FixHint::FlushAndFenceStore { store_line: w_loc.line }),
                );
            }
        }

        // Nested region: the inner epoch must end with a barrier so its
        // persists are ordered before the outer region's (Fig. 4).
        let nested = self.in_epoch() || self.in_tx();
        if self.model.has_epochs() && nested && frame.did_work && !frame.fence_at_tail {
            self.warn_fix(
                BugClass::MissingBarrierNestedTx,
                loc,
                format!(
                    "nested transaction/epoch beginning at line {} performs persistent \
                     work but ends without a persist barrier",
                    frame.begin_loc.line
                ),
                Some(FixHint::InsertFenceBefore { line: loc.line }),
            );
        }

        // Consecutive epochs splitting one object's fields (Table 4 epoch
        // mismatch rule).
        if self.model.has_epochs() && self.epoch_stack.is_empty() {
            if let Some((prev_objs, _)) = &self.prev_epoch_objs {
                let shared: Vec<ObjId> =
                    frame.written_objs.intersection(prev_objs).copied().collect();
                for obj in shared {
                    let name = self.obj_name(obj);
                    self.warn(
                        BugClass::SemanticMismatch,
                        loc,
                        format!(
                            "consecutive epochs write to fields of the same object \
                             `{name}`; the object's update is split across persist units"
                        ),
                    );
                }
            }
            self.prev_epoch_objs = Some((frame.written_objs.clone(), *loc));
            self.fence_since_epoch_end = frame.fence_at_tail;
        }
    }

    fn on_strand_end(&mut self, loc: &EvLoc) {
        let Some((set, _begin)) = self.current_strand.take() else { return };
        if self.model.has_strands() {
            for (sib, sib_loc) in &self.sibling_strands {
                if strands_conflict(&set, sib) {
                    let line = sib_loc.line;
                    self.warn(
                        BugClass::InterStrandDependency,
                        loc,
                        format!(
                            "strand ending at line {} has a data dependence (WAW/RAW) \
                             with the concurrent strand ending at line {line}; dependent \
                             persists must share a strand or be ordered by a barrier",
                            loc.line
                        ),
                    );
                    break;
                }
            }
        }
        self.sibling_strands.push((set, *loc));
    }

    fn finish(mut self) -> Vec<Warning> {
        // Writes never made durable.
        let pending = std::mem::take(&mut self.pending);
        for p in pending {
            let name = self.obj_name(p.addr.obj);
            let line = p.loc.line;
            self.warn_fix(
                BugClass::UnflushedWrite,
                &p.loc,
                format!("write to `{name}` at line {line} is never flushed"),
                Some(FixHint::FlushAndFenceStore { store_line: line }),
            );
        }
        // Trailing unfenced flush breaks strict ordering.
        if self.model == PersistencyModel::Strict {
            if let Some((_, f_loc)) = self.unfenced_flushes.first().cloned() {
                self.warn_fix(
                    BugClass::MissingPersistBarrier,
                    &f_loc,
                    format!("flush at line {} is never followed by a persist barrier", f_loc.line),
                    Some(FixHint::InsertFenceAfter { line: f_loc.line }),
                );
            }
        }
        self.warnings
    }
}

/// Per-function model override from attributes (mixed-model support).
fn model_override(f: &deepmc_pir::Function) -> Option<PersistencyModel> {
    use deepmc_pir::FuncAttr;
    if f.has_attr(FuncAttr::ModelStrict) {
        Some(PersistencyModel::Strict)
    } else if f.has_attr(FuncAttr::ModelEpoch) {
        Some(PersistencyModel::Epoch)
    } else if f.has_attr(FuncAttr::ModelStrand) {
        Some(PersistencyModel::Strand)
    } else {
        None
    }
}

/// WAW or RAW dependence between two strands' access sets.
fn strands_conflict(a: &StrandSet, b: &StrandSet) -> bool {
    let waw = a.writes.iter().any(|wa| b.writes.iter().any(|wb| wa.overlaps(wb)));
    let raw = a.writes.iter().any(|w| b.reads.iter().any(|r| w.overlaps(r)))
        || b.writes.iter().any(|w| a.reads.iter().any(|r| w.overlaps(r)));
    waw || raw
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepmc_models::PersistencyModel::{Epoch, Strand, Strict};

    fn check(model: PersistencyModel, src: &str) -> Report {
        crate::check_source(src, &DeepMcConfig::new(model)).expect("source must check")
    }

    fn classes(r: &Report) -> Vec<BugClass> {
        r.warnings.iter().map(|w| w.class).collect()
    }

    // --- root attribution -------------------------------------------------

    #[test]
    fn two_roots_sharing_a_buggy_callee_get_separate_warnings() {
        // Regression for the dedup key: `writer` leaves %q.a unflushed; it
        // is reachable from BOTH roots, so the report must carry one
        // warning per (root, site), not collapse them into one.
        let r = check(
            Strict,
            r#"
module m
file "m.c"
struct s { a: i64 }
fn writer(%q: ptr s) {
entry:
  store %q.a, 1
  ret
}
fn root_a() {
entry:
  %x = palloc s
  call writer(%x)
  ret
}
fn root_b() {
entry:
  %y = palloc s
  call writer(%y)
  ret
}
"#,
        );
        let unflushed: Vec<&Warning> = r.of_class(BugClass::UnflushedWrite).collect();
        assert_eq!(unflushed.len(), 2, "one warning per root: {r}");
        let mut roots: Vec<&str> = unflushed.iter().map(|w| w.root.as_str()).collect();
        roots.sort_unstable();
        assert_eq!(roots, vec!["root_a", "root_b"]);
        for w in &unflushed {
            assert_eq!(w.function, "writer", "site attribution unchanged");
        }
    }

    // --- clean programs ---------------------------------------------------

    #[test]
    fn clean_strict_program_no_warnings() {
        let r = check(
            Strict,
            r#"
module m
struct s { a: i64, b: i64 }
fn main() {
entry:
  %x = palloc s
  store %x.a, 1
  flush %x.a
  fence
  store %x.b, 2
  flush %x.b
  fence
  ret
}
"#,
        );
        assert!(r.warnings.is_empty(), "{r}");
    }

    #[test]
    fn clean_epoch_program_no_warnings() {
        let r = check(
            Epoch,
            r#"
module m
struct s { a: i64, b: i64 }
struct t { c: i64 }
fn main() {
entry:
  %x = palloc s
  %y = palloc t
  epoch_begin
  store %x.a, 1
  store %x.b, 2
  flush %x.a
  flush %x.b
  fence
  epoch_end
  epoch_begin
  store %y.c, 3
  flush %y.c
  fence
  epoch_end
  ret
}
"#,
        );
        assert!(r.warnings.is_empty(), "{r}");
    }

    #[test]
    fn clean_transactional_program_no_warnings() {
        let r = check(
            Strict,
            r#"
module m
struct s { a: i64, b: i64 }
fn main() {
entry:
  %x = palloc s
  tx_begin
  tx_add %x
  store %x.a, 1
  store %x.b, 2
  tx_commit
  ret
}
"#,
        );
        assert!(r.warnings.is_empty(), "{r}");
    }

    // --- Table 4: model violations ----------------------------------------

    #[test]
    fn unflushed_write_detected() {
        let r = check(
            Strict,
            r#"
module m
struct s { a: i64 }
fn main() {
entry:
  %x = palloc s
  loc 201
  store %x.a, 1
  ret
}
"#,
        );
        assert_eq!(classes(&r), vec![BugClass::UnflushedWrite]);
        assert_eq!(r.warnings[0].line, 201);
    }

    #[test]
    fn unlogged_write_in_tx_detected() {
        // Fig. 2: modify inside a transaction without TX_ADD.
        let r = check(
            Strict,
            r#"
module m
struct s { items: [i64; 8], n: i64 }
fn split(%node: ptr s) attrs(tx_context) {
entry:
  loc 206
  store %node.items[2], 0
  ret
}
"#,
        );
        assert_eq!(classes(&r), vec![BugClass::UnflushedWrite]);
        assert_eq!(r.warnings[0].line, 206);
    }

    #[test]
    fn logged_write_in_tx_ok() {
        let r = check(
            Strict,
            r#"
module m
struct s { items: [i64; 8] }
fn split(%node: ptr s) attrs(tx_context) {
entry:
  tx_add %node
  store %node.items[2], 0
  ret
}
"#,
        );
        assert!(r.warnings.is_empty(), "{r}");
    }

    #[test]
    fn missing_barrier_write_variant_does_not_double_report() {
        // flush-then-write with a trailing fence: one MissingPersistBarrier
        // at the flush, and no MultipleWritesAtOnce at the fence (the
        // first write's durability problem is already reported).
        let r = check(
            Strict,
            r#"
module m
struct h { off: i64, len: i64 }
fn main(%cap: i64) {
entry:
  %x = palloc h
  store %x.off, 0
  loc 60
  flush %x.off
  store %x.len, %cap
  flush %x.len
  fence
  ret
}
"#,
        );
        assert_eq!(classes(&r), vec![BugClass::MissingPersistBarrier], "{r}");
        assert_eq!(r.warnings[0].line, 60);
    }

    #[test]
    fn missing_barrier_before_tx_detected() {
        // Fig. 3: nvm_flush then nvm_txbegin with no barrier.
        let r = check(
            Strict,
            r#"
module m
struct region { hdr: i64 }
fn create_region() {
entry:
  %r = palloc region
  store %r.hdr, 1
  loc 614
  flush %r
  tx_begin
  tx_add %r
  store %r.hdr, 2
  tx_commit
  ret
}
"#,
        );
        assert!(r.contains(BugClass::MissingPersistBarrier, "m.c", 614), "{r}");
    }

    #[test]
    fn missing_barrier_between_epochs_detected() {
        let r = check(
            Epoch,
            r#"
module m
struct s { a: i64 }
struct t { b: i64 }
fn main() {
entry:
  %x = palloc s
  %y = palloc t
  epoch_begin
  store %x.a, 1
  flush %x.a
  loc 100
  epoch_end
  epoch_begin
  store %y.b, 2
  flush %y.b
  fence
  epoch_end
  ret
}
"#,
        );
        assert!(r.contains(BugClass::MissingPersistBarrier, "m.c", 100), "{r}");
    }

    #[test]
    fn missing_barrier_in_nested_tx_detected() {
        // Fig. 4: the inner transaction flushes but never fences.
        let r = check(
            Epoch,
            r#"
module m
struct blk { data: i64 }
fn block_symlink(%b: ptr blk) {
entry:
  store %b.data, 7
  loc 38
  flush %b.data
  ret
}
fn symlink() {
entry:
  %b = palloc blk
  epoch_begin
  epoch_begin
  call block_symlink(%b)
  loc 50
  epoch_end
  fence
  epoch_end
  fence
  ret
}
"#,
        );
        assert!(r.contains(BugClass::MissingBarrierNestedTx, "m.c", 50), "{r}");
    }

    #[test]
    fn nested_epoch_with_tail_fence_ok() {
        let r = check(
            Epoch,
            r#"
module m
struct blk { data: i64 }
fn symlink() {
entry:
  %b = palloc blk
  epoch_begin
  epoch_begin
  store %b.data, 7
  flush %b.data
  fence
  epoch_end
  epoch_end
  fence
  ret
}
"#,
        );
        assert!(r.warnings.is_empty(), "{r}");
    }

    #[test]
    fn semantic_mismatch_delayed_persist_detected() {
        // Fig. 1: nbuckets written, buckets memset+persisted, nbuckets
        // persisted only afterwards.
        let r = check(
            Strict,
            r#"
module m
struct hashmap { nbuckets: i64, seed: i64 }
struct buckets { arr: [i64; 16] }
fn hm_create() {
entry:
  %h = palloc hashmap
  %b = palloc buckets
  loc 3
  store %h.nbuckets, 16
  loc 4
  memset_persist %b, 0
  loc 6
  persist %h.nbuckets
  ret
}
"#,
        );
        assert!(r.contains(BugClass::SemanticMismatch, "m.c", 6), "{r}");
    }

    #[test]
    fn semantic_mismatch_epochs_splitting_object_detected() {
        let r = check(
            Epoch,
            r#"
module m
struct obj { a: i64, b: i64 }
fn main() {
entry:
  %x = palloc obj
  epoch_begin
  store %x.a, 1
  flush %x.a
  fence
  epoch_end
  epoch_begin
  store %x.b, 2
  flush %x.b
  fence
  loc 120
  epoch_end
  ret
}
"#,
        );
        assert!(r.contains(BugClass::SemanticMismatch, "m.c", 120), "{r}");
    }

    #[test]
    fn multiple_writes_at_once_detected() {
        let r = check(
            Strict,
            r#"
module m
struct s { a: i64, b: i64 }
fn main() {
entry:
  %x = palloc s
  store %x.a, 1
  store %x.b, 2
  flush %x.a
  flush %x.b
  loc 77
  fence
  ret
}
"#,
        );
        assert!(r.contains(BugClass::MultipleWritesAtOnce, "m.c", 77), "{r}");
    }

    #[test]
    fn strand_dependence_detected_statically() {
        let r = check(
            Strand,
            r#"
module m
struct s { a: i64, b: i64 }
fn main() {
entry:
  %x = palloc s
  strand_begin
  store %x.a, 1
  flush %x.a
  fence
  strand_end
  strand_begin
  store %x.a, 2
  flush %x.a
  fence
  loc 90
  strand_end
  ret
}
"#,
        );
        assert!(r.contains(BugClass::InterStrandDependency, "m.c", 90), "{r}");
    }

    #[test]
    fn independent_strands_ok() {
        let r = check(
            Strand,
            r#"
module m
struct s { a: i64, b: i64 }
fn main() {
entry:
  %x = palloc s
  strand_begin
  store %x.a, 1
  flush %x.a
  fence
  strand_end
  strand_begin
  store %x.b, 2
  flush %x.b
  fence
  strand_end
  ret
}
"#,
        );
        assert!(r.warnings.is_empty(), "{r}");
    }

    // --- Table 5: performance bugs -----------------------------------------

    #[test]
    fn unmodified_flush_detected() {
        // Flushing data that was never written (files.c:232 shape).
        let r = check(
            Strict,
            r#"
module m
struct s { a: i64, b: i64 }
fn main() {
entry:
  %x = palloc s
  store %x.a, 1
  flush %x.a
  fence
  loc 232
  flush %x.b
  fence
  ret
}
"#,
        );
        assert_eq!(classes(&r), vec![BugClass::UnmodifiedWriteback], "{r}");
        assert_eq!(r.warnings[0].line, 232);
    }

    #[test]
    fn reflush_of_clean_data_is_redundant_not_unmodified() {
        let r = check(
            Strict,
            r#"
module m
struct s { a: i64 }
fn main() {
entry:
  %x = palloc s
  store %x.a, 1
  flush %x.a
  fence
  loc 232
  flush %x.a
  fence
  ret
}
"#,
        );
        assert_eq!(classes(&r), vec![BugClass::RedundantWriteback], "{r}");
    }

    #[test]
    fn whole_object_flush_with_one_dirty_field_detected() {
        // Fig. 5: one field assigned, whole object persisted.
        let r = check(
            Strict,
            r#"
module m
struct pi_task { proto: i64, next: ptr pi_task, prev: ptr pi_task }
fn pi_task_construct(%t: ptr pi_task) {
entry:
  store %t.proto, 42
  loc 6
  persist %t
  ret
}
"#,
        );
        assert!(r.contains(BugClass::UnmodifiedWriteback, "m.c", 6), "{r}");
    }

    #[test]
    fn whole_object_flush_with_all_fields_dirty_ok() {
        let r = check(
            Strict,
            r#"
module m
struct pair { a: i64, b: i64 }
fn main() {
entry:
  %x = palloc pair
  store %x.a, 1
  store %x.b, 2
  persist %x
  ret
}
"#,
        );
        assert!(!r.warnings.iter().any(|w| w.class == BugClass::UnmodifiedWriteback), "{r}");
    }

    #[test]
    fn redundant_writeback_detected() {
        // Fig. 6: flush, then flush the same object again with no new write.
        let r = check(
            Strict,
            r#"
module m
struct blk { data: i64 }
fn free_blk(%b: ptr blk) {
entry:
  store %b.data, 0
  flush %b.data
  fence
  ret
}
fn free_callback() {
entry:
  %b = palloc blk
  call free_blk(%b)
  loc 1965
  flush %b.data
  fence
  ret
}
"#,
        );
        assert!(r.contains(BugClass::RedundantWriteback, "m.c", 1965), "{r}");
    }

    #[test]
    fn rewritten_data_reflush_is_not_redundant() {
        let r = check(
            Strict,
            r#"
module m
struct blk { data: i64 }
fn main() {
entry:
  %b = palloc blk
  store %b.data, 1
  flush %b.data
  fence
  store %b.data, 2
  flush %b.data
  fence
  ret
}
"#,
        );
        assert!(r.warnings.is_empty(), "{r}");
    }

    #[test]
    fn redundant_persist_in_tx_detected() {
        let r = check(
            Epoch,
            r#"
module m
struct rec { a: i64 }
fn main() {
entry:
  %x = palloc rec
  tx_begin
  store %x.a, 1
  flush %x.a
  fence
  store %x.a, 2
  loc 150
  flush %x.a
  fence
  tx_commit
  ret
}
"#,
        );
        assert!(r.contains(BugClass::RedundantPersistInTx, "m.c", 150), "{r}");
    }

    #[test]
    fn exhausted_path_budget_is_noted_in_the_report() {
        let src = r#"
module m
struct s { a: i64 }
fn main(%c1: i64, %c2: i64, %c3: i64) {
entry:
  %x = palloc s
  br %c1, a1, a2
a1:
  jmp m1
a2:
  jmp m1
m1:
  br %c2, b1, b2
b1:
  jmp m2
b2:
  jmp m2
m2:
  br %c3, c1b, c2b
c1b:
  jmp done
c2b:
  jmp done
done:
  store %x.a, 1
  persist %x.a
  ret
}
"#;
        let mut config = DeepMcConfig::new(Strict);
        config.trace.max_paths = 2;
        let r = crate::check_source(src, &config).unwrap();
        assert!(
            r.notes.iter().any(|n| n.contains("path budget exhausted")),
            "pruned forks must be disclosed: {r}"
        );
        // With the default budget the same program explores everything and
        // carries no caveat.
        let clean = check(Strict, src);
        assert!(clean.notes.is_empty(), "{clean}");
    }

    #[test]
    fn empty_durable_tx_detected() {
        // Fig. 7 shape: on the path where the condition fails, the
        // transaction persists nothing.
        let r = check(
            Strict,
            r#"
module m
struct alien { timer: i64, y: i64 }
fn process_aliens(%cond: i64) {
entry:
  %a = palloc alien
  tx_begin
  tx_add %a
  br %cond, update, skip
update:
  store %a.timer, 9
  store %a.y, 1
  jmp done
skip:
  jmp done
done:
  loc 256
  tx_commit
  ret
}
"#,
        );
        assert!(r.contains(BugClass::EmptyDurableTx, "m.c", 256), "{r}");
        // And the taken-update path produces no such warning — exactly one
        // deduplicated entry.
        assert_eq!(r.of_class(BugClass::EmptyDurableTx).count(), 1);
    }

    #[test]
    fn aborted_tx_carries_no_obligations() {
        let r = check(
            Strict,
            r#"
module m
struct rec { a: i64 }
fn main() {
entry:
  %x = palloc rec
  tx_begin
  store %x.a, 1
  tx_abort
  ret
}
"#,
        );
        assert!(
            !r.warnings.iter().any(|w| w.class == BugClass::UnflushedWrite),
            "aborted writes are rolled back: {r}"
        );
    }

    #[test]
    fn semantic_mismatch_suppressed_inside_transactions() {
        // Inside a transaction the framework defines the persist unit:
        // a cross-fence flush of an in-tx write is not a mismatch.
        let r = check(
            Strict,
            r#"
module m
struct s { a: i64, b: i64 }
fn main() {
entry:
  %x = palloc s
  tx_begin
  store %x.a, 1
  flush %x.a
  fence
  store %x.b, 2
  flush %x.b
  fence
  flush %x.a
  fence
  tx_commit
  ret
}
"#,
        );
        assert_eq!(
            r.of_class(BugClass::SemanticMismatch).count(),
            0,
            "transactions own their persist units: {r}"
        );
    }

    #[test]
    fn raw_dependence_between_strands_detected_statically() {
        let r = check(
            Strand,
            r#"
module m
struct s { a: i64 }
fn main() {
entry:
  %x = palloc s
  strand_begin
  store %x.a, 1
  flush %x.a
  fence
  strand_end
  strand_begin
  %v = load %x.a
  loc 55
  strand_end
  ret
}
"#,
        );
        assert!(r.contains(BugClass::InterStrandDependency, "m.c", 55), "{r}");
    }

    #[test]
    fn epoch_model_write_outside_any_epoch_still_checked() {
        // Epoch-model code outside epochs degenerates to per-store
        // durability; an unflushed write is still a violation.
        let r = check(
            Epoch,
            r#"
module m
struct s { a: i64 }
fn main() {
entry:
  %x = palloc s
  loc 12
  store %x.a, 1
  ret
}
"#,
        );
        assert!(r.contains(BugClass::UnflushedWrite, "m.c", 12), "{r}");
    }

    #[test]
    fn unknown_external_callee_is_opaque_not_fatal() {
        let r = check(
            Strict,
            r#"
module m
struct s { a: i64 }
fn main() {
entry:
  %x = palloc s
  store %x.a, 1
  call pmem_msync_region(7)
  persist %x.a
  ret
}
"#,
        );
        assert!(r.warnings.is_empty(), "{r}");
    }

    #[test]
    fn warnings_deduplicate_across_paths() {
        // The buggy write sits before the branch: both paths traverse it,
        // yet one warning results.
        let r = check(
            Strict,
            r#"
module m
struct s { a: i64, b: i64 }
fn main(%c: i64) {
entry:
  %x = palloc s
  loc 30
  store %x.a, 1
  br %c, l, rgt
l:
  jmp done
rgt:
  jmp done
done:
  ret
}
"#,
        );
        assert_eq!(r.warnings.len(), 1, "{r}");
        assert_eq!(r.warnings[0].line, 30);
    }

    #[test]
    fn memset_persist_counts_as_full_modification() {
        let r = check(
            Strict,
            r#"
module m
struct s { a: i64, b: i64, c: i64 }
fn main() {
entry:
  %x = palloc s
  memset_persist %x, 0
  ret
}
"#,
        );
        assert!(r.warnings.is_empty(), "whole-object memset covers all fields: {r}");
    }

    #[test]
    fn rewrite_of_flushed_addr_before_fence_is_not_missing_barrier() {
        // flush-then-modify of the SAME address is a data update pattern,
        // not a transaction-ordering break.
        let r = check(
            Strict,
            r#"
module m
struct s { a: i64 }
fn main() {
entry:
  %x = palloc s
  store %x.a, 1
  flush %x.a
  store %x.a, 2
  flush %x.a
  fence
  ret
}
"#,
        );
        assert_eq!(r.of_class(BugClass::MissingPersistBarrier).count(), 0, "{r}");
    }

    #[test]
    fn mixed_model_program_checked_per_function() {
        // One module, two entry points: a strict path and an epoch path.
        // Under the global -epoch flag, the strict-annotated function is
        // still held to strict persistency (and vice versa).
        let r = check(
            Epoch,
            r#"
module m
struct s { a: i64, b: i64 }
struct t { c: i64, d: i64 }
fn strict_path() attrs(model_strict) {
entry:
  %x = palloc s
  store %x.a, 1
  store %x.b, 2
  flush %x.a
  flush %x.b
  loc 44
  fence
  ret
}
fn epoch_path() {
entry:
  %y = palloc t
  epoch_begin
  store %y.c, 1
  store %y.d, 2
  flush %y.c
  flush %y.d
  fence
  epoch_end
  ret
}
"#,
        );
        // The strict function batches two writes on one fence: a
        // MultipleWritesAtOnce under ITS model; the epoch function is
        // clean under its own.
        assert!(r.contains(BugClass::MultipleWritesAtOnce, "m.c", 44), "{r}");
        assert_eq!(r.warnings.len(), 1, "{r}");
    }

    #[test]
    fn model_override_roundtrips_through_text() {
        let src = "module m
fn f() attrs(model_strand) {
entry:
  ret
}
";
        let m = crate::check_source(src, &DeepMcConfig::new(Strict)).unwrap();
        assert!(m.warnings.is_empty());
        let parsed = deepmc_pir::parse(src).unwrap();
        let text = deepmc_pir::print(&parsed);
        assert!(text.contains("model_strand"), "{text}");
        assert_eq!(deepmc_pir::parse(&text).unwrap(), parsed);
    }

    #[test]
    fn performance_only_config_filters_violations() {
        let src = r#"
module m
struct s { a: i64 }
fn main() {
entry:
  %x = palloc s
  store %x.a, 1
  ret
}
"#;
        let r = crate::check_source(src, &DeepMcConfig::new(Strict).performance_only()).unwrap();
        assert!(r.warnings.is_empty());
        let r = crate::check_source(src, &DeepMcConfig::new(Strict).violations_only()).unwrap();
        assert_eq!(r.warnings.len(), 1);
    }
}
