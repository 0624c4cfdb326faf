//! Trace collection (paper §4.3, Fig. 8 step ②).
//!
//! DeepMC collects, per analysis root, a set of program-order traces of
//! persistent operations. The collector walks the CFG depth-first, forking
//! at branches whose condition it cannot decide, bounding loop iterations
//! (default 10) and recursion depth (default 5), and splicing callee traces
//! into call sites (the interprocedural merge of Fig. 11). "Unlike symbolic
//! execution, DeepMC's trace collection procedure does not track the entire
//! state of persistent memory regions" — the walker keeps only enough
//! state to name persistent objects precisely: an environment of abstract
//! values per local and a small heap of field slots, with the DSG supplying
//! persistence classification for pointers it cannot resolve (ghost
//! objects from opaque loads and parameters).
//!
//! Traces are *address-resolved*: every event names an abstract object
//! ([`ObjId`]) plus a field selector, so the static checker's rules reduce
//! to overlap/coverage tests on [`Addr`] values.

use crate::callgraph::CallGraph;
use crate::dsa::{DsaResult, PersistKind};
use crate::fxhash::FxHashMap;
use crate::program::{FuncRef, LocTable, Program};
use deepmc_pir::{
    Accessor, BlockId, FuncAttr, Inst, LocalId, Operand, Place, SourceLoc, StructId, Symbol,
    Terminator,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Abstract object id, unique within one trace-collection run per root.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjId(pub u32);

/// Field selector within an object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FieldSel {
    /// The whole object.
    Whole,
    /// One named (scalar or pointer) field, or a whole array field.
    Field(u32),
    /// One array element; `None` index means "statically unknown element".
    Elem { field: u32, index: Option<i64> },
}

/// A resolved persistent-memory address: object + field selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Addr {
    pub obj: ObjId,
    pub sel: FieldSel,
}

impl Addr {
    pub fn whole(obj: ObjId) -> Addr {
        Addr { obj, sel: FieldSel::Whole }
    }

    pub fn field(obj: ObjId, field: u32) -> Addr {
        Addr { obj, sel: FieldSel::Field(field) }
    }

    /// Do the two addresses possibly refer to overlapping bytes?
    pub fn overlaps(&self, other: &Addr) -> bool {
        if self.obj != other.obj {
            return false;
        }
        use FieldSel::*;
        match (self.sel, other.sel) {
            (Whole, _) | (_, Whole) => true,
            (Field(a), Field(b)) => a == b,
            (Field(a), Elem { field: b, .. }) | (Elem { field: a, .. }, Field(b)) => a == b,
            (Elem { field: fa, index: ia }, Elem { field: fb, index: ib }) => {
                fa == fb
                    && match (ia, ib) {
                        (Some(x), Some(y)) => x == y,
                        _ => true, // unknown index may collide
                    }
            }
        }
    }

    /// Does `self` definitely cover every byte of `other`? Used for the
    /// unflushed-write rule: a flush of `self` makes a write to `other`
    /// durable only when coverage is certain.
    pub fn covers(&self, other: &Addr) -> bool {
        if self.obj != other.obj {
            return false;
        }
        use FieldSel::*;
        match (self.sel, other.sel) {
            (Whole, _) => true,
            (_, Whole) => false,
            (Field(a), Field(b)) => a == b,
            (Field(a), Elem { field: b, .. }) => a == b,
            (Elem { .. }, Field(_)) => false,
            (Elem { field: fa, index: ia }, Elem { field: fb, index: ib }) => {
                fa == fb && ia.is_some() && ia == ib
            }
        }
    }
}

/// Source attribution of a trace event: a program-wide dense function
/// index (resolved to file/function strings through the trace's
/// [`LocTable`] only at warning-emission time) plus the source line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EvLoc {
    /// Dense function index ([`Program::dense_index`]).
    pub func: u32,
    /// Source line (0 for synthetic events).
    pub line: u32,
}

/// Event kind discriminant of the packed [`TraceEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum EvKind {
    /// A write to (possibly) persistent memory.
    Write = 0,
    /// A read from persistent memory (tracked for dependence rules).
    Read,
    /// A cache-line write-back (`clwb`, or the flush half of a combined
    /// `persist`).
    Flush,
    /// A persist barrier (`sfence`, or the fence half of `persist`).
    Fence,
    TxBegin,
    TxCommit,
    TxAbort,
    TxAdd,
    EpochBegin,
    EpochEnd,
    StrandBegin,
    StrandEnd,
}

/// Address-selector tag of the packed [`TraceEvent`]. `Field(f)` and
/// `Elem { field: f, index: None }` behave differently under
/// [`Addr::covers`], so the tag distinguishes all four selector shapes
/// plus "no address".
const SEL_NONE: u8 = 0;
const SEL_WHOLE: u8 = 1;
const SEL_FIELD: u8 = 2;
const SEL_ELEM_KNOWN: u8 = 3;
const SEL_ELEM_UNKNOWN: u8 = 4;

/// One entry of a collected trace, packed into a flat fixed-width struct
/// (32 bytes) so appending an event is a plain `Vec` push with no
/// per-event allocation. The address and persistence class are encoded in
/// fixed fields and exposed through [`TraceEvent::addr`] /
/// [`TraceEvent::persist`]; source attribution is a dense function index
/// plus line ([`TraceEvent::loc`]).
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceEvent {
    /// What happened.
    pub kind: EvKind,
    /// Encoded [`PersistKind`] of the written object (writes only).
    persist: u8,
    /// Address selector tag (`SEL_*`); `SEL_NONE` for address-free events.
    sel: u8,
    _pad: u8,
    /// Abstract object id of the address, if any.
    obj: u32,
    /// Field index of the address (for `SEL_FIELD` / `SEL_ELEM_*`).
    field: u32,
    /// Dense function index of the event's location.
    pub func: u32,
    /// Source line of the event (0 for synthetic events).
    pub line: u32,
    /// Array element index (for `SEL_ELEM_KNOWN`).
    index: i64,
}

fn encode_persist(k: PersistKind) -> u8 {
    match k {
        PersistKind::Persistent => 0,
        PersistKind::Volatile => 1,
        PersistKind::Unknown => 2,
    }
}

fn decode_persist(b: u8) -> PersistKind {
    match b {
        0 => PersistKind::Persistent,
        1 => PersistKind::Volatile,
        _ => PersistKind::Unknown,
    }
}

impl TraceEvent {
    /// An address-free event (fence, region begin/end, ...).
    pub fn plain(kind: EvKind, loc: EvLoc) -> TraceEvent {
        TraceEvent {
            kind,
            persist: 0,
            sel: SEL_NONE,
            _pad: 0,
            obj: 0,
            field: 0,
            func: loc.func,
            line: loc.line,
            index: 0,
        }
    }

    /// An addressed event (read, flush, tx_add).
    pub fn at(kind: EvKind, addr: Addr, loc: EvLoc) -> TraceEvent {
        let mut ev = TraceEvent::plain(kind, loc);
        ev.set_addr(addr);
        ev
    }

    /// A write event carrying the written object's persistence class.
    pub fn write(addr: Addr, persist: PersistKind, loc: EvLoc) -> TraceEvent {
        let mut ev = TraceEvent::at(EvKind::Write, addr, loc);
        ev.persist = encode_persist(persist);
        ev
    }

    /// The event's address, if it has one.
    pub fn addr(&self) -> Option<Addr> {
        let obj = ObjId(self.obj);
        let sel = match self.sel {
            SEL_NONE => return None,
            SEL_WHOLE => FieldSel::Whole,
            SEL_FIELD => FieldSel::Field(self.field),
            SEL_ELEM_KNOWN => FieldSel::Elem { field: self.field, index: Some(self.index) },
            _ => FieldSel::Elem { field: self.field, index: None },
        };
        Some(Addr { obj, sel })
    }

    /// Overwrite the event's address in place (used by the object-granular
    /// checker ablation).
    pub fn set_addr(&mut self, addr: Addr) {
        self.obj = addr.obj.0;
        match addr.sel {
            FieldSel::Whole => {
                self.sel = SEL_WHOLE;
                self.field = 0;
                self.index = 0;
            }
            FieldSel::Field(f) => {
                self.sel = SEL_FIELD;
                self.field = f;
                self.index = 0;
            }
            FieldSel::Elem { field, index } => {
                self.field = field;
                match index {
                    Some(i) => {
                        self.sel = SEL_ELEM_KNOWN;
                        self.index = i;
                    }
                    None => {
                        self.sel = SEL_ELEM_UNKNOWN;
                        self.index = 0;
                    }
                }
            }
        }
    }

    /// Persistence class of a write event's target object.
    pub fn persist(&self) -> PersistKind {
        decode_persist(self.persist)
    }

    /// The source location of the event.
    pub fn loc(&self) -> EvLoc {
        EvLoc { func: self.func, line: self.line }
    }
}

/// A complete program-order trace from one analysis root along one path.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// The root function this trace starts from.
    pub root: Arc<str>,
    pub events: Vec<TraceEvent>,
    /// Debug names of abstract objects, indexed by [`ObjId`].
    pub object_names: Vec<Arc<str>>,
    /// Number of struct fields per abstract object (None for untyped
    /// ghosts), indexed by [`ObjId`] — used by the field-sensitive
    /// unmodified-writeback rule.
    pub object_field_counts: Vec<Option<u32>>,
    /// Dense function index → (file, function) strings, shared with the
    /// program; warning emission resolves event locations through it.
    pub locs: Arc<LocTable>,
}

impl Trace {
    /// Name of an abstract object for reports.
    pub fn object_name(&self, obj: ObjId) -> &str {
        self.object_names.get(obj.0 as usize).map(|s| s.as_ref()).unwrap_or("<obj>")
    }

    /// Number of declared fields of the object's struct type, if known.
    pub fn object_field_count(&self, obj: ObjId) -> Option<u32> {
        self.object_field_counts.get(obj.0 as usize).copied().flatten()
    }
}

/// Bounds for the collector (paper §4.3: loop bound 10, recursion bound 5).
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Maximum times any block may repeat on one path (loop unrolling).
    pub loop_bound: usize,
    /// Maximum call-inlining depth for recursive calls.
    pub recursion_bound: usize,
    /// Maximum number of traces per root; once exceeded, branches stop
    /// forking and the persistent-op-richer successor is preferred.
    pub max_paths: usize,
    /// Hard cap on events per trace.
    pub max_trace_len: usize,
    /// Wall-clock budget per root. When the deadline passes, the walk
    /// stops forking and returns what it has, marking the root's
    /// [`RootTruncation`] as `timed_out`. Inherently nondeterministic
    /// (where the walk stops depends on machine speed); use
    /// `max_walk_steps` where reproducibility matters.
    pub root_timeout: Option<Duration>,
    /// Deterministic analogue of `root_timeout`: a cap on walk steps
    /// (block visits) per root. Schedule-independent — the same program
    /// times out at the same point at any worker count.
    pub max_walk_steps: Option<u64>,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            loop_bound: 10,
            recursion_bound: 5,
            max_paths: 128,
            max_trace_len: 100_000,
            root_timeout: None,
            max_walk_steps: None,
        }
    }
}

/// Abstract runtime value during the walk.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Val {
    Unknown,
    Int(i64),
    Obj(ObjId),
    Null,
}

/// Per-object info.
#[derive(Debug, Clone)]
struct ObjInfo {
    persist: PersistKind,
    struct_ty: Option<(u32, StructId)>,
    name: Arc<str>,
}

/// Heap slot key: (object, field, element).
type Slot = (ObjId, u32, Option<i64>);

/// Mutable state threaded along one path (cloned at forks).
#[derive(Debug, Clone)]
struct PathState {
    objects: Vec<ObjInfo>,
    /// Exact field slots: (object, field, element) → value.
    heap: FxHashMap<Slot, Val>,
    events: Vec<TraceEvent>,
    /// Ghost objects created for unresolved pointer loads, keyed by slot so
    /// repeated loads alias.
    ghosts: FxHashMap<Slot, ObjId>,
}

impl PathState {
    fn new_object(&mut self, info: ObjInfo) -> ObjId {
        let id = ObjId(self.objects.len() as u32);
        self.objects.push(info);
        id
    }
}

/// One call frame's environment: one abstract value per local, indexed by
/// [`LocalId`] (params occupy the first slots). A dense `Vec` instead of a
/// hash map — local counts are small and lookups are on the per-instruction
/// hot path.
type Env = Vec<Val>;

/// Fresh all-unknown environment for a function's locals.
fn new_env(f: &deepmc_pir::Function) -> Env {
    vec![Val::Unknown; f.locals.len()]
}

/// Write a local, growing the env if the function has more locals than the
/// frame was sized for (defensive; normal construction sizes it exactly).
fn env_set(env: &mut Env, l: LocalId, v: Val) {
    let i = l.index();
    if i >= env.len() {
        env.resize(i + 1, Val::Unknown);
    }
    env[i] = v;
}

/// The collector. It holds no mutable state, so a worker pool can share
/// one across concurrent `collect_root` calls: everything mutable lives in
/// the [`PathState`]/[`WalkCtx`] owned by one root's walk.
pub struct TraceCollector<'p> {
    program: &'p Program,
    dsa: &'p DsaResult,
    pub config: TraceConfig,
}

/// Per-walk mutable bookkeeping, threaded by `&mut` through one root's
/// recursion. Keeping it out of the collector makes concurrent per-root
/// walks contention-free and the per-root truncation deltas exact.
struct WalkCtx {
    /// Remaining path budget for this root.
    budget: usize,
    /// Branch forks skipped because the path budget ran out (one successor
    /// was chosen heuristically instead of exploring both).
    pruned: u64,
    /// Events dropped because a path hit `max_trace_len`.
    truncated: u64,
    /// Walk steps (block visits) consumed.
    steps: u64,
    /// Deterministic step cap ([`TraceConfig::max_walk_steps`]).
    step_limit: Option<u64>,
    /// Wall-clock cutoff ([`TraceConfig::root_timeout`]).
    deadline: Option<Instant>,
    /// Set once either budget trips; the walk then unwinds without
    /// exploring further.
    timed_out: bool,
}

impl WalkCtx {
    /// Charge one walk step and report whether the walk is out of budget.
    /// Once tripped, stays tripped (and stops charging) so unwinding is
    /// cheap and the step count at the trip point is well-defined.
    fn out_of_budget(&mut self) -> bool {
        if self.timed_out {
            return true;
        }
        self.steps += 1;
        if self.step_limit.is_some_and(|l| self.steps > l)
            || self.deadline.is_some_and(|d| Instant::now() >= d)
        {
            self.timed_out = true;
        }
        self.timed_out
    }
}

/// Exploration losses of one root's collection: `(paths pruned, events
/// truncated)` attributable to that root alone, schedule-independent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RootTruncation {
    pub paths_pruned: u64,
    pub events_truncated: u64,
    /// The root's walk hit its wall-clock or step budget and returned a
    /// partial trace set.
    pub timed_out: bool,
}

/// Result of walking a function body to a `ret`: final state plus the
/// returned value.
struct WalkEnd {
    st: PathState,
    ret: Val,
}

impl<'p> TraceCollector<'p> {
    pub fn new(program: &'p Program, dsa: &'p DsaResult, config: TraceConfig) -> Self {
        TraceCollector { program, dsa, config }
    }

    /// The analysis roots, in collection order: call-graph roots plus
    /// functions explicitly marked `tx_context` (they are invoked from a
    /// framework transaction the program text does not show).
    pub fn analysis_roots(&self, cg: &CallGraph) -> Vec<FuncRef> {
        let mut roots: Vec<FuncRef> = cg.roots.clone();
        for fr in self.program.defined_funcs() {
            let f = self.program.func(fr);
            if f.has_attr(FuncAttr::TxContext) && !roots.contains(&fr) {
                roots.push(fr);
            }
        }
        roots.sort();
        roots
    }

    /// Collect traces from every analysis root (see
    /// [`TraceCollector::analysis_roots`]).
    pub fn collect_program(&self, cg: &CallGraph) -> Vec<Trace> {
        let mut traces = Vec::new();
        for root in self.analysis_roots(cg) {
            traces.extend(self.collect_root(root));
        }
        traces
    }

    /// Collect all bounded-path traces starting at `root`.
    pub fn collect_root(&self, root: FuncRef) -> Vec<Trace> {
        self.collect_root_counted(root).0
    }

    /// Like [`TraceCollector::collect_root`], also returning the pruning,
    /// truncation and budget outcome of this root's walk.
    pub fn collect_root_counted(&self, root: FuncRef) -> (Vec<Trace>, RootTruncation) {
        let f = self.program.func(root);
        let root_name: Arc<str> = Arc::from(f.name.as_str());
        let mut st = PathState {
            objects: Vec::new(),
            heap: FxHashMap::default(),
            events: Vec::new(),
            ghosts: FxHashMap::default(),
        };

        // Parameters become ghost objects with DSA-supplied persistence.
        let mut env: Env = new_env(f);
        let g = self.dsa.graph(root);
        for (i, p) in f.params().iter().enumerate() {
            let v = if let deepmc_pir::Ty::Ptr(sid) = p.ty {
                let persist = g
                    .param_node(i)
                    .map(|n| match g.node(n).persist {
                        Some(k) => k,
                        None => PersistKind::Unknown,
                    })
                    .unwrap_or(PersistKind::Unknown);
                let obj = st.new_object(ObjInfo {
                    persist,
                    struct_ty: Some((root.module, sid)),
                    name: Arc::from(format!("{}.param.{}", f.name, p.name)),
                });
                Val::Obj(obj)
            } else {
                Val::Unknown
            };
            env_set(&mut env, LocalId(i as u32), v);
        }

        // `tx_context` roots execute inside an implicit framework tx.
        let implicit_tx = f.has_attr(FuncAttr::TxContext);
        if implicit_tx {
            let loc = self.evloc(root, SourceLoc::UNKNOWN);
            st.events.push(TraceEvent::plain(EvKind::TxBegin, loc));
        }

        let mut ctx = WalkCtx {
            budget: self.config.max_paths,
            pruned: 0,
            truncated: 0,
            steps: 0,
            step_limit: self.config.max_walk_steps,
            deadline: self.config.root_timeout.map(|t| Instant::now() + t),
            timed_out: false,
        };
        let ends = self.walk_function(root, env, st, 0, &mut ctx);
        let truncation = RootTruncation {
            paths_pruned: ctx.pruned,
            events_truncated: ctx.truncated,
            timed_out: ctx.timed_out,
        };
        let traces = ends
            .into_iter()
            .map(|mut end| {
                if implicit_tx {
                    let loc = self.evloc(root, SourceLoc::UNKNOWN);
                    end.st.events.push(TraceEvent::plain(EvKind::TxCommit, loc));
                }
                Trace {
                    root: root_name.clone(),
                    events: end.st.events,
                    object_names: end.st.objects.iter().map(|o| o.name.clone()).collect(),
                    object_field_counts: end
                        .st
                        .objects
                        .iter()
                        .map(|o| {
                            o.struct_ty.map(|(mi, sid)| {
                                self.program.modules[mi as usize].struct_def(sid).fields.len()
                                    as u32
                            })
                        })
                        .collect(),
                    locs: self.program.loc_table(),
                }
            })
            .collect();
        (traces, truncation)
    }

    /// Source attribution without string work: dense function index + line.
    #[inline]
    fn evloc(&self, fr: FuncRef, loc: SourceLoc) -> EvLoc {
        EvLoc { func: self.program.dense_index(fr), line: loc.line }
    }

    /// Walk a function body from its entry, returning every bounded path's
    /// end state.
    fn walk_function(
        &self,
        fr: FuncRef,
        env: Env,
        st: PathState,
        depth: usize,
        ctx: &mut WalkCtx,
    ) -> Vec<WalkEnd> {
        let visits: Vec<u32> = vec![0; self.program.func(fr).blocks.len()];
        self.walk_block(fr, deepmc_pir::Function::ENTRY, env, st, visits, depth, ctx)
    }

    #[allow(clippy::too_many_arguments)]
    fn walk_block(
        &self,
        fr: FuncRef,
        bb: BlockId,
        env: Env,
        st: PathState,
        mut visits: Vec<u32>,
        depth: usize,
        ctx: &mut WalkCtx,
    ) -> Vec<WalkEnd> {
        let f = self.program.func(fr);
        // Budget check first: a timed-out walk unwinds without exploring,
        // keeping whatever path ends were already produced.
        if ctx.out_of_budget() {
            return Vec::new();
        }
        // Loop bound: abandon paths that revisit a block too often.
        let v = &mut visits[bb.index()];
        *v += 1;
        if *v as usize > self.config.loop_bound {
            return Vec::new();
        }

        let block = &f.blocks[bb.index()];
        // Process straight-line instructions; calls may fork the state.
        // We carry a worklist of (env, st) pairs through the instructions.
        let mut states: Vec<(Env, PathState)> = vec![(env, st)];
        for si in f.insts_of(block) {
            if states.is_empty() {
                return Vec::new();
            }
            if let Inst::Call { dst, callee, args } = &si.inst {
                let mut next: Vec<(Env, PathState)> = Vec::new();
                for (env, st) in states {
                    next.extend(self.exec_call(fr, dst, *callee, args, env, st, depth, ctx));
                }
                states = next;
            } else {
                for (env, st) in &mut states {
                    if st.events.len() < self.config.max_trace_len {
                        self.exec_simple(fr, si.loc, &si.inst, env, st);
                    } else {
                        ctx.truncated += 1;
                    }
                }
            }
        }

        // Terminator.
        let mut out = Vec::new();
        match &block.term.inst {
            Terminator::Ret { value } => {
                for (env, st) in states {
                    let ret = match value {
                        None => Val::Unknown,
                        Some(op) => eval(op, &env),
                    };
                    out.push(WalkEnd { st, ret });
                }
            }
            Terminator::Jmp { bb: next } => {
                for (env, st) in states {
                    out.extend(self.walk_block(fr, *next, env, st, visits.clone(), depth, ctx));
                }
            }
            Terminator::Br { cond, then_bb, else_bb } => {
                for (env, st) in states {
                    match eval(cond, &env) {
                        Val::Int(n) => {
                            let next = if n != 0 { *then_bb } else { *else_bb };
                            out.extend(self.walk_block(
                                fr,
                                next,
                                env,
                                st,
                                visits.clone(),
                                depth,
                                ctx,
                            ));
                        }
                        Val::Null => {
                            out.extend(self.walk_block(
                                fr,
                                *else_bb,
                                env,
                                st,
                                visits.clone(),
                                depth,
                                ctx,
                            ));
                        }
                        _ => {
                            if ctx.budget > 1 {
                                ctx.budget -= 1;
                                out.extend(self.walk_block(
                                    fr,
                                    *then_bb,
                                    env.clone(),
                                    st.clone(),
                                    visits.clone(),
                                    depth,
                                    ctx,
                                ));
                                out.extend(self.walk_block(
                                    fr,
                                    *else_bb,
                                    env,
                                    st,
                                    visits.clone(),
                                    depth,
                                    ctx,
                                ));
                            } else {
                                // Budget exhausted: prefer the successor
                                // with more persistent operations (paper:
                                // "priority to explore the paths involving
                                // persistent operations").
                                ctx.pruned += 1;
                                let next = self.prefer_persistent(f, *then_bb, *else_bb, &visits);
                                out.extend(self.walk_block(
                                    fr,
                                    next,
                                    env,
                                    st,
                                    visits.clone(),
                                    depth,
                                    ctx,
                                ));
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Pick the branch successor that leads to more persistent operations
    /// (one-block lookahead), avoiding exhausted loop headers.
    fn prefer_persistent(
        &self,
        f: &deepmc_pir::Function,
        a: BlockId,
        b: BlockId,
        visits: &[u32],
    ) -> BlockId {
        let score = |bb: BlockId| -> isize {
            if visits.get(bb.index()).copied().unwrap_or(0) as usize >= self.config.loop_bound {
                return isize::MIN;
            }
            f.insts_of(&f.blocks[bb.index()])
                .iter()
                .filter(|si| si.inst.is_persist_relevant())
                .count() as isize
        };
        if score(a) >= score(b) {
            a
        } else {
            b
        }
    }

    /// Execute a non-call instruction on one path state.
    fn exec_simple(
        &self,
        fr: FuncRef,
        loc: SourceLoc,
        inst: &Inst,
        env: &mut Env,
        st: &mut PathState,
    ) {
        let f = self.program.func(fr);
        match inst {
            Inst::PAlloc { dst, ty } => {
                let name =
                    format!("{}:{}#{}", f.name, f.locals[dst.index()].name, st.objects.len());
                let obj = st.new_object(ObjInfo {
                    persist: PersistKind::Persistent,
                    struct_ty: Some((fr.module, *ty)),
                    name: Arc::from(name),
                });
                env_set(env, *dst, Val::Obj(obj));
            }
            Inst::VAlloc { dst, ty } => {
                let name =
                    format!("{}:{}#v{}", f.name, f.locals[dst.index()].name, st.objects.len());
                let obj = st.new_object(ObjInfo {
                    persist: PersistKind::Volatile,
                    struct_ty: Some((fr.module, *ty)),
                    name: Arc::from(name),
                });
                env_set(env, *dst, Val::Obj(obj));
            }
            Inst::Mov { dst, src } => {
                let v = eval(src, env);
                env_set(env, *dst, v);
            }
            Inst::Bin { dst, op, lhs, rhs } => {
                let v = match (eval(lhs, env), eval(rhs, env)) {
                    (Val::Int(a), Val::Int(b)) => Val::Int(op.eval(a, b)),
                    // Pointer comparisons against null.
                    (Val::Null, Val::Null) => match op {
                        deepmc_pir::BinOp::Eq => Val::Int(1),
                        deepmc_pir::BinOp::Ne => Val::Int(0),
                        _ => Val::Unknown,
                    },
                    (Val::Obj(_), Val::Null) | (Val::Null, Val::Obj(_)) => match op {
                        deepmc_pir::BinOp::Eq => Val::Int(0),
                        deepmc_pir::BinOp::Ne => Val::Int(1),
                        _ => Val::Unknown,
                    },
                    (Val::Obj(a), Val::Obj(b)) => match op {
                        deepmc_pir::BinOp::Eq => Val::Int((a == b) as i64),
                        deepmc_pir::BinOp::Ne => Val::Int((a != b) as i64),
                        _ => Val::Unknown,
                    },
                    _ => Val::Unknown,
                };
                env_set(env, *dst, v);
            }
            Inst::Load { dst, place } => {
                if let Some((addr, obj_persist)) = self.resolve(place, env, st) {
                    if obj_persist != PersistKind::Volatile {
                        st.events.push(TraceEvent::at(EvKind::Read, addr, self.evloc(fr, loc)));
                    }
                    let slot = slot_key(&addr);
                    let v = match st.heap.get(&slot) {
                        Some(v) => *v,
                        None => {
                            // Opaque load: pointers get a stable ghost
                            // object so later operations on it correlate.
                            if f.local_ty(*dst).is_ptr() {
                                let ghost = *st.ghosts.entry(slot).or_insert_with(|| {
                                    let id = ObjId(st.objects.len() as u32);
                                    st.objects.push(ObjInfo {
                                        persist: obj_persist, // inherit owner's region
                                        struct_ty: None,
                                        name: Arc::from(format!("{}:ghost#{}", f.name, id.0)),
                                    });
                                    id
                                });
                                Val::Obj(ghost)
                            } else {
                                Val::Unknown
                            }
                        }
                    };
                    env_set(env, *dst, v);
                } else {
                    env_set(env, *dst, Val::Unknown);
                }
            }
            Inst::Store { place, value } => {
                let v = eval(value, env);
                if let Some((addr, obj_persist)) = self.resolve(place, env, st) {
                    st.heap.insert(slot_key(&addr), v);
                    if obj_persist != PersistKind::Volatile {
                        st.events.push(TraceEvent::write(addr, obj_persist, self.evloc(fr, loc)));
                    }
                }
            }
            Inst::Flush { place } => {
                if let Some((addr, obj_persist)) = self.resolve(place, env, st) {
                    if obj_persist != PersistKind::Volatile {
                        st.events.push(TraceEvent::at(EvKind::Flush, addr, self.evloc(fr, loc)));
                    }
                }
            }
            Inst::Fence => {
                st.events.push(TraceEvent::plain(EvKind::Fence, self.evloc(fr, loc)));
            }
            Inst::Persist { place } => {
                if let Some((addr, obj_persist)) = self.resolve(place, env, st) {
                    if obj_persist != PersistKind::Volatile {
                        let l = self.evloc(fr, loc);
                        st.events.push(TraceEvent::at(EvKind::Flush, addr, l));
                        st.events.push(TraceEvent::plain(EvKind::Fence, l));
                    }
                } else {
                    st.events.push(TraceEvent::plain(EvKind::Fence, self.evloc(fr, loc)));
                }
            }
            Inst::MemSetPersist { place, value } => {
                let v = eval(value, env);
                if let Some((addr, obj_persist)) = self.resolve(place, env, st) {
                    st.heap.insert(slot_key(&addr), v);
                    if obj_persist != PersistKind::Volatile {
                        let l = self.evloc(fr, loc);
                        st.events.push(TraceEvent::write(addr, obj_persist, l));
                        st.events.push(TraceEvent::at(EvKind::Flush, addr, l));
                        st.events.push(TraceEvent::plain(EvKind::Fence, l));
                    }
                }
            }
            Inst::TxBegin => {
                st.events.push(TraceEvent::plain(EvKind::TxBegin, self.evloc(fr, loc)))
            }
            Inst::TxCommit => {
                st.events.push(TraceEvent::plain(EvKind::TxCommit, self.evloc(fr, loc)))
            }
            Inst::TxAbort => {
                st.events.push(TraceEvent::plain(EvKind::TxAbort, self.evloc(fr, loc)))
            }
            Inst::TxAdd { place } => {
                if let Some((addr, obj_persist)) = self.resolve(place, env, st) {
                    if obj_persist != PersistKind::Volatile {
                        st.events.push(TraceEvent::at(EvKind::TxAdd, addr, self.evloc(fr, loc)));
                    }
                }
            }
            Inst::EpochBegin => {
                st.events.push(TraceEvent::plain(EvKind::EpochBegin, self.evloc(fr, loc)))
            }
            Inst::EpochEnd => {
                st.events.push(TraceEvent::plain(EvKind::EpochEnd, self.evloc(fr, loc)))
            }
            Inst::StrandBegin => {
                st.events.push(TraceEvent::plain(EvKind::StrandBegin, self.evloc(fr, loc)))
            }
            Inst::StrandEnd => {
                st.events.push(TraceEvent::plain(EvKind::StrandEnd, self.evloc(fr, loc)))
            }
            Inst::Call { .. } => unreachable!("calls handled by exec_call"),
        }
    }

    /// Execute a call by walking the callee body inline: one output state
    /// per bounded callee path, with the call's destination bound to that
    /// path's return value.
    #[allow(clippy::too_many_arguments)]
    fn exec_call(
        &self,
        fr: FuncRef,
        dst: &Option<LocalId>,
        callee: Symbol,
        args: &[Operand],
        mut env: Env,
        st: PathState,
        depth: usize,
        ctx: &mut WalkCtx,
    ) -> Vec<(Env, PathState)> {
        let target = self.program.resolve_sym(fr.module, callee);
        let Some(target) = target else {
            // Unknown external function: havoc the result only.
            if let Some(d) = dst {
                env_set(&mut env, *d, Val::Unknown);
            }
            return vec![(env, st)];
        };
        let callee_fn = self.program.func(target);
        if callee_fn.blocks.is_empty() || depth >= self.config.recursion_bound {
            if let Some(d) = dst {
                env_set(&mut env, *d, Val::Unknown);
            }
            return vec![(env, st)];
        }
        let mut callee_env: Env = new_env(callee_fn);
        for (i, a) in args.iter().enumerate() {
            env_set(&mut callee_env, LocalId(i as u32), eval(a, &env));
        }
        self.walk_function(target, callee_env, st, depth + 1, ctx)
            .into_iter()
            .map(|end| {
                let mut env = env.clone();
                if let Some(d) = dst {
                    env_set(&mut env, *d, end.ret);
                }
                (env, end.st)
            })
            .collect()
    }

    /// Resolve a place to an address and the owning object's persistence.
    /// Returns `None` when the base pointer is statically unknown (the DSG
    /// could not classify it either) — such operations are dropped from the
    /// trace, matching DeepMC's restriction to tracked persistent objects.
    fn resolve(&self, place: &Place, env: &Env, st: &PathState) -> Option<(Addr, PersistKind)> {
        let base = env.get(place.base.index()).copied().unwrap_or(Val::Unknown);
        let Val::Obj(obj) = base else { return None };
        let persist = st.objects[obj.0 as usize].persist;
        let sel = match place.path.as_slice() {
            [] => FieldSel::Whole,
            [Accessor::Field(fi)] => FieldSel::Field(*fi),
            [Accessor::Field(fi), Accessor::Index(idx)] => {
                let index = match eval(idx, env) {
                    Val::Int(n) => Some(n),
                    _ => None,
                };
                FieldSel::Elem { field: *fi, index }
            }
            _ => FieldSel::Whole,
        };
        Some((Addr { obj, sel }, persist))
    }
}

/// Slot key for the path heap: unknown-index elements share one slot per
/// field (conservative smearing).
fn slot_key(addr: &Addr) -> (ObjId, u32, Option<i64>) {
    match addr.sel {
        FieldSel::Whole => (addr.obj, u32::MAX, None),
        FieldSel::Field(f) => (addr.obj, f, None),
        FieldSel::Elem { field, index } => (addr.obj, field, index),
    }
}

fn eval(op: &Operand, env: &Env) -> Val {
    match op {
        Operand::Const(n) => Val::Int(*n),
        Operand::Null => Val::Null,
        Operand::Local(l) => env.get(l.index()).copied().unwrap_or(Val::Unknown),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepmc_pir::parse;

    fn collect(src: &str) -> Vec<Trace> {
        let p = Program::single(parse(src).unwrap());
        let cg = CallGraph::build(&p);
        let dsa = DsaResult::analyze(&p, &cg);
        let tc = TraceCollector::new(&p, &dsa, TraceConfig::default());
        tc.collect_program(&cg)
    }

    fn kinds(t: &Trace) -> Vec<&'static str> {
        t.events
            .iter()
            .map(|e| match e.kind {
                EvKind::Write => "W",
                EvKind::Read => "R",
                EvKind::Flush => "F",
                EvKind::Fence => "B",
                EvKind::TxBegin => "tb",
                EvKind::TxCommit => "tc",
                EvKind::TxAbort => "ta",
                EvKind::TxAdd => "tl",
                EvKind::EpochBegin => "eb",
                EvKind::EpochEnd => "ee",
                EvKind::StrandBegin => "sb",
                EvKind::StrandEnd => "se",
            })
            .collect()
    }

    #[test]
    fn packed_event_is_32_bytes() {
        assert_eq!(std::mem::size_of::<TraceEvent>(), 32);
        assert_eq!(std::mem::align_of::<TraceEvent>(), 8);
    }

    #[test]
    fn packed_event_addr_roundtrips() {
        let loc = EvLoc { func: 3, line: 17 };
        let addrs = [
            Addr::whole(ObjId(5)),
            Addr::field(ObjId(5), 2),
            Addr { obj: ObjId(9), sel: FieldSel::Elem { field: 1, index: Some(-4) } },
            Addr { obj: ObjId(9), sel: FieldSel::Elem { field: 1, index: None } },
        ];
        for a in addrs {
            let ev = TraceEvent::at(EvKind::Flush, a, loc);
            assert_eq!(ev.addr(), Some(a));
            assert_eq!(ev.loc(), loc);
        }
        let plain = TraceEvent::plain(EvKind::Fence, loc);
        assert_eq!(plain.addr(), None);
        let w = TraceEvent::write(Addr::whole(ObjId(1)), PersistKind::Persistent, loc);
        assert_eq!(w.persist(), PersistKind::Persistent);
    }

    #[test]
    fn straight_line_trace() {
        let traces = collect(
            r#"
module m
struct s { a: i64 }
fn main() {
entry:
  %x = palloc s
  store %x.a, 1
  flush %x.a
  fence
  ret
}
"#,
        );
        assert_eq!(traces.len(), 1);
        assert_eq!(kinds(&traces[0]), vec!["W", "F", "B"]);
    }

    #[test]
    fn volatile_writes_not_traced() {
        let traces = collect(
            r#"
module m
struct s { a: i64 }
fn main() {
entry:
  %x = valloc s
  store %x.a, 1
  flush %x.a
  fence
  ret
}
"#,
        );
        assert_eq!(kinds(&traces[0]), vec!["B"], "only the fence is global");
    }

    #[test]
    fn persist_expands_to_flush_fence() {
        let traces = collect(
            r#"
module m
struct s { a: i64 }
fn main() {
entry:
  %x = palloc s
  store %x.a, 1
  persist %x
  ret
}
"#,
        );
        assert_eq!(kinds(&traces[0]), vec!["W", "F", "B"]);
        // The flush covers the whole object.
        let addr = traces[0].events[1].addr().unwrap();
        assert_eq!(addr.sel, FieldSel::Whole);
    }

    #[test]
    fn branch_forks_two_traces() {
        let traces = collect(
            r#"
module m
struct s { a: i64 }
fn main(%c: i64) {
entry:
  %x = palloc s
  br %c, yes, no
yes:
  store %x.a, 1
  jmp done
no:
  fence
  jmp done
done:
  ret
}
"#,
        );
        assert_eq!(traces.len(), 2);
        let k: Vec<Vec<&str>> = traces.iter().map(kinds).collect();
        assert!(k.contains(&vec!["W"]));
        assert!(k.contains(&vec!["B"]));
    }

    #[test]
    fn known_branch_condition_takes_one_path() {
        let traces = collect(
            r#"
module m
struct s { a: i64 }
fn main() {
entry:
  %x = palloc s
  %c = mov 1
  br %c, yes, no
yes:
  store %x.a, 1
  jmp done
no:
  fence
  jmp done
done:
  ret
}
"#,
        );
        assert_eq!(traces.len(), 1);
        assert_eq!(kinds(&traces[0]), vec!["W"]);
    }

    #[test]
    fn loop_bounded() {
        let traces = collect(
            r#"
module m
struct s { a: i64 }
fn main(%n: i64) {
entry:
  %x = palloc s
  jmp head
head:
  %c = gt %n, 0
  br %c, body, done
body:
  store %x.a, %n
  jmp head
done:
  ret
}
"#,
        );
        // Condition is unknown → paths with 0..=bound-ish iterations; all
        // must be finite.
        assert!(!traces.is_empty());
        for t in &traces {
            let writes = kinds(t).iter().filter(|k| **k == "W").count();
            assert!(writes <= TraceConfig::default().loop_bound);
        }
    }

    #[test]
    fn callee_trace_spliced_into_caller() {
        let traces = collect(
            r#"
module m
struct s { a: i64 }
fn do_write(%q: ptr s) {
entry:
  store %q.a, 2
  flush %q.a
  ret
}
fn main() {
entry:
  %x = palloc s
  call do_write(%x)
  fence
  ret
}
"#,
        );
        // main is the only root (do_write is called).
        assert_eq!(traces.len(), 1);
        assert_eq!(kinds(&traces[0]), vec!["W", "F", "B"]);
        // And the callee's write targets the caller's object.
        let w = traces[0].events[0].addr().unwrap();
        let fl = traces[0].events[1].addr().unwrap();
        assert!(fl.covers(&w));
    }

    #[test]
    fn tx_context_root_gets_implicit_tx() {
        let traces = collect(
            r#"
module m
struct s { a: i64 }
fn cb(%q: ptr s) attrs(tx_context) {
entry:
  store %q.a, 1
  ret
}
"#,
        );
        assert_eq!(traces.len(), 1);
        assert_eq!(kinds(&traces[0]), vec!["tb", "W", "tc"]);
        // The parameter object is persistent by contract.
        assert_eq!(traces[0].events[1].persist(), PersistKind::Persistent);
    }

    #[test]
    fn ghost_objects_alias_on_repeated_loads() {
        let traces = collect(
            r#"
module m
struct s { a: i64, next: ptr s }
fn main() {
entry:
  %x = palloc s
  %p = load %x.next
  %q = load %x.next
  store %p.a, 1
  flush %q.a
  ret
}
"#,
        );
        let t = &traces[0];
        let (mut w, mut fl) = (None, None);
        for e in &t.events {
            match e.kind {
                EvKind::Write => w = e.addr(),
                EvKind::Flush => fl = e.addr(),
                _ => {}
            }
        }
        assert_eq!(w.unwrap().obj, fl.unwrap().obj, "two loads of same slot alias");
    }

    #[test]
    fn array_elem_addresses() {
        let traces = collect(
            r#"
module m
struct s { arr: [i64; 8] }
fn main(%i: i64) {
entry:
  %x = palloc s
  store %x.arr[2], 1
  store %x.arr[%i], 1
  ret
}
"#,
        );
        let t = &traces[0];
        let addrs: Vec<Addr> = t
            .events
            .iter()
            .filter_map(|e| if e.kind == EvKind::Write { e.addr() } else { None })
            .collect();
        assert_eq!(addrs[0].sel, FieldSel::Elem { field: 0, index: Some(2) });
        assert_eq!(addrs[1].sel, FieldSel::Elem { field: 0, index: None });
        assert!(addrs[0].overlaps(&addrs[1]), "unknown index may collide");
        assert!(!addrs[1].covers(&addrs[0]), "unknown index cannot cover");
    }

    #[test]
    fn addr_overlap_and_cover_matrix() {
        let o = ObjId(0);
        let whole = Addr::whole(o);
        let f0 = Addr::field(o, 0);
        let f1 = Addr::field(o, 1);
        let e0 = Addr { obj: o, sel: FieldSel::Elem { field: 0, index: Some(3) } };
        assert!(whole.overlaps(&f0) && whole.covers(&f0));
        assert!(!f0.overlaps(&f1));
        assert!(f0.overlaps(&e0) && f0.covers(&e0));
        assert!(!e0.covers(&f0));
        assert!(!f0.covers(&whole));
        let other = Addr::field(ObjId(1), 0);
        assert!(!f0.overlaps(&other));
    }

    #[test]
    fn collector_is_shareable_across_threads() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<TraceCollector<'static>>();
    }

    #[test]
    fn concurrent_root_collection_matches_sequential() {
        let src = r#"
module m
struct s { a: i64, b: i64 }
fn do_write(%q: ptr s) {
entry:
  store %q.a, 2
  flush %q.a
  ret
}
fn root_one(%c: i64) attrs(tx_context) {
entry:
  %x = palloc s
  call do_write(%x)
  br %c, yes, no
yes:
  store %x.b, 1
  jmp done
no:
  jmp done
done:
  ret
}
fn root_two(%c: i64) attrs(tx_context) {
entry:
  %y = palloc s
  call do_write(%y)
  fence
  ret
}
"#;
        let p = Program::single(parse(src).unwrap());
        let cg = CallGraph::build(&p);
        let dsa = DsaResult::analyze(&p, &cg);
        let cfg = TraceConfig::default();
        let roots = {
            let tc = TraceCollector::new(&p, &dsa, cfg.clone());
            tc.analysis_roots(&cg)
        };
        assert!(roots.len() >= 2, "need multiple roots to collect concurrently");
        let sequential: Vec<(Vec<Trace>, RootTruncation)> = {
            let tc = TraceCollector::new(&p, &dsa, cfg.clone());
            roots.iter().map(|&r| tc.collect_root_counted(r)).collect()
        };
        // All roots concurrently against ONE shared collector: the traces
        // must not change.
        let shared = TraceCollector::new(&p, &dsa, cfg);
        let concurrent: Vec<(Vec<Trace>, RootTruncation)> = std::thread::scope(|s| {
            let handles: Vec<_> = roots
                .iter()
                .map(|&r| {
                    let tc = &shared;
                    s.spawn(move || tc.collect_root_counted(r))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (i, (seq, conc)) in sequential.iter().zip(&concurrent).enumerate() {
            assert_eq!(seq, conc, "root #{i} diverged under concurrent collection");
        }
    }

    #[test]
    fn max_paths_budget_respected() {
        // 12 sequential unknown branches would give 4096 paths; the budget
        // caps it.
        let mut src = String::from("module m\nstruct s { a: i64 }\nfn main(%c: i64) {\nentry:\n  %x = palloc s\n  jmp b0\n");
        for i in 0..12 {
            src.push_str(&format!(
                "b{i}:\n  br %c, t{i}, f{i}\nt{i}:\n  store %x.a, {i}\n  jmp b{next}\nf{i}:\n  fence\n  jmp b{next}\n",
                next = i + 1
            ));
        }
        src.push_str("b12:\n  ret\n}\n");
        let traces = collect(&src);
        assert!(traces.len() <= TraceConfig::default().max_paths);
        assert!(!traces.is_empty());
    }

    fn collect_counted(src: &str, config: TraceConfig) -> Vec<(Vec<Trace>, RootTruncation)> {
        let p = Program::single(parse(src).unwrap());
        let cg = CallGraph::build(&p);
        let dsa = DsaResult::analyze(&p, &cg);
        let tc = TraceCollector::new(&p, &dsa, config);
        let roots = tc.analysis_roots(&cg);
        roots.iter().map(|&r| tc.collect_root_counted(r)).collect()
    }

    #[test]
    fn step_budget_degrades_to_partial_traces() {
        let mut src = String::from(
            "module m\nstruct s { a: i64 }\nfn main(%c: i64) {\nentry:\n  %x = palloc s\n  jmp b0\n",
        );
        for i in 0..12 {
            src.push_str(&format!(
                "b{i}:\n  br %c, t{i}, f{i}\nt{i}:\n  store %x.a, {i}\n  jmp b{next}\nf{i}:\n  fence\n  jmp b{next}\n",
                next = i + 1
            ));
        }
        src.push_str("b12:\n  ret\n}\n");
        let full = collect_counted(&src, TraceConfig::default());
        assert!(!full[0].1.timed_out, "default config has no step budget");
        let tight = TraceConfig { max_walk_steps: Some(6), ..Default::default() };
        let got = collect_counted(&src, tight);
        assert!(got[0].1.timed_out, "six steps cannot finish a 12-branch walk");
        assert!(got[0].0.len() < full[0].0.len(), "timed-out walk keeps only partial paths");
    }

    #[test]
    fn generous_step_budget_changes_nothing() {
        let src = r#"
module m
struct s { a: i64, b: i64 }
fn main(%c: i64) {
entry:
  %x = palloc s
  store %x.a, 1
  br %c, t, f
t:
  flush %x.a
  jmp d
f:
  jmp d
d:
  fence
  ret
}
"#;
        let full = collect_counted(src, TraceConfig::default());
        let capped = collect_counted(
            src,
            TraceConfig { max_walk_steps: Some(1_000_000), ..Default::default() },
        );
        assert_eq!(full, capped);
        assert!(!capped[0].1.timed_out);
    }

    #[test]
    fn wall_clock_timeout_marks_root_timed_out() {
        let mut src = String::from(
            "module m\nstruct s { a: i64 }\nfn main(%c: i64) {\nentry:\n  %x = palloc s\n  jmp b0\n",
        );
        for i in 0..12 {
            src.push_str(&format!(
                "b{i}:\n  br %c, t{i}, f{i}\nt{i}:\n  store %x.a, {i}\n  jmp b{next}\nf{i}:\n  fence\n  jmp b{next}\n",
                next = i + 1
            ));
        }
        src.push_str("b12:\n  ret\n}\n");
        // A zero-duration budget is already expired at the first check.
        let cfg = TraceConfig { root_timeout: Some(Duration::ZERO), ..Default::default() };
        let got = collect_counted(&src, cfg);
        assert!(got[0].1.timed_out);
        assert!(got[0].0.is_empty(), "expired-before-start walk yields no traces");
    }
}
