//! Data Structure Analysis (DSA) adapted to persistent memory — paper §4.2.
//!
//! DSA (Lattner, Lenharth, Adve — PLDI'07) builds, per function, a *Data
//! Structure Graph* (DSG): a unification-based, field-sensitive points-to
//! graph whose nodes are abstract memory objects. DeepMC extends it to track
//! which objects live in persistent memory, and which fields of each object
//! have been written (mod), read (ref), flushed, and undo-logged.
//!
//! The three phases follow the paper:
//!
//! 1. **Local**: a flow-insensitive fixpoint per function creates nodes at
//!    `palloc`/`valloc` sites and placeholder nodes for pointer parameters
//!    and unresolved loads, wiring field-indexed points-to edges.
//! 2. **Bottom-Up**: the call graph is walked in post-order; at each call
//!    site the callee's summary subgraph (nodes reachable from its
//!    parameters and return value) is cloned into the caller — *heap
//!    cloning* gives context sensitivity — and cloned parameter/return
//!    nodes are unified with the caller's argument/result nodes.
//! 3. **Top-Down**: callers push what they know about arguments (notably
//!    persistence) down into callee parameter nodes, so a function that
//!    only ever receives NVM objects knows its parameter is persistent.
//!
//! Volatile-only nodes can then be dropped from checker consideration
//! ("we remove nodes representing objects that are not allocated from
//! persistent memory", §4.2).

use crate::callgraph::CallGraph;
use crate::program::{FuncRef, Program};
use crate::unionfind::UnionFind;
use deepmc_pir::{Accessor, FuncAttr, Inst, LocalId, Operand, StructId, Symbol, Ty};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Field marker meaning "the whole object / every field".
pub const WHOLE: u32 = u32::MAX;

/// Whether an abstract object lives in persistent memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PersistKind {
    Persistent,
    Volatile,
    Unknown,
}

impl PersistKind {
    /// Join two observations: agreement keeps the value; conflict or any
    /// `Unknown` degrades conservatively (conflicts become `Persistent` so
    /// the checker keeps tracking the object — a false negative is worse
    /// than a spurious trace entry here).
    pub fn join(self, other: PersistKind) -> PersistKind {
        use PersistKind::*;
        match (self, other) {
            (Persistent, Persistent) => Persistent,
            (Volatile, Volatile) => Volatile,
            (Unknown, x) | (x, Unknown) => x,
            _ => Persistent,
        }
    }
}

/// One abstract object in a DSG.
#[derive(Debug, Clone, Default)]
pub struct DsaNode {
    pub persist: Option<PersistKind>,
    /// Struct type, as (module index, struct id); `None` for untyped
    /// placeholders.
    pub struct_ty: Option<(u32, StructId)>,
    /// Fields written (mod). [`WHOLE`] means the entire object.
    pub written: BTreeSet<u32>,
    /// Fields read (ref).
    pub read: BTreeSet<u32>,
    /// Fields written back with `flush`/`persist`.
    pub flushed: BTreeSet<u32>,
    /// Fields undo-logged with `tx_add`.
    pub logged: BTreeSet<u32>,
    /// Field-indexed points-to edges (raw ids; resolve through the UF).
    pub points_to: BTreeMap<u32, BTreeSet<usize>>,
    /// Allocation sites merged into this node, as (function, ordinal).
    pub alloc_sites: BTreeSet<(FuncRef, u32)>,
    /// True for pointer-parameter placeholders (filled by top-down).
    pub is_param: bool,
    /// True for nodes invented for unresolved loads. Placeholders do not
    /// spawn further placeholders — this collapses recursive-structure
    /// walks (`n = n->next` loops) that would otherwise grow an unbounded
    /// placeholder chain (real DSA collapses them by unification).
    pub is_placeholder: bool,
}

impl DsaNode {
    fn persist_kind(&self) -> PersistKind {
        self.persist.unwrap_or(PersistKind::Unknown)
    }

    fn merge_from(&mut self, other: DsaNode) {
        self.persist = match (self.persist, other.persist) {
            (Some(a), Some(b)) => Some(a.join(b)),
            (a, b) => a.or(b),
        };
        self.struct_ty = self.struct_ty.or(other.struct_ty);
        self.written.extend(other.written);
        self.read.extend(other.read);
        self.flushed.extend(other.flushed);
        self.logged.extend(other.logged);
        for (f, set) in other.points_to {
            self.points_to.entry(f).or_default().extend(set);
        }
        self.alloc_sites.extend(other.alloc_sites);
        self.is_param |= other.is_param;
        // A placeholder merged with a real node becomes real.
        self.is_placeholder &= other.is_placeholder;
    }
}

/// Record of an in-function call site, kept for the bottom-up/top-down
/// phases.
#[derive(Debug, Clone)]
struct CallSite {
    /// Interned callee handle in the caller's module.
    callee: Symbol,
    /// Per argument: the caller local if the argument is a pointer local.
    ptr_args: Vec<Option<LocalId>>,
    dst: Option<LocalId>,
}

/// The DSG of one function.
#[derive(Debug, Clone, Default)]
pub struct FunctionDsg {
    nodes: Vec<DsaNode>,
    uf: UnionFind,
    /// Points-to sets per local (raw ids).
    locals: Vec<BTreeSet<usize>>,
    /// Nodes the return value may point to.
    ret: BTreeSet<usize>,
    /// Placeholder node per parameter (pointer params only).
    param_nodes: Vec<Option<usize>>,
    call_sites: Vec<CallSite>,
}

impl FunctionDsg {
    fn new_node(&mut self, node: DsaNode) -> usize {
        let id = self.uf.push();
        debug_assert_eq!(id, self.nodes.len());
        self.nodes.push(node);
        id
    }

    /// Unify two nodes, merging the loser's data into the representative.
    fn unify(&mut self, a: usize, b: usize) -> usize {
        let ra = self.uf.find(a);
        let rb = self.uf.find(b);
        if ra == rb {
            return ra;
        }
        let keep = self.uf.union(ra, rb);
        let lose = if keep == ra { rb } else { ra };
        let data = std::mem::take(&mut self.nodes[lose]);
        self.nodes[keep].merge_from(data);
        keep
    }

    /// Representative node data for raw id `id`.
    pub fn node(&self, id: usize) -> &DsaNode {
        &self.nodes[self.uf.find_const(id)]
    }

    /// Representative id for raw id `id`.
    pub fn rep(&self, id: usize) -> usize {
        self.uf.find_const(id)
    }

    /// Representative points-to set of a local.
    pub fn nodes_for_local(&self, local: LocalId) -> BTreeSet<usize> {
        self.locals
            .get(local.index())
            .map(|s| s.iter().map(|&n| self.uf.find_const(n)).collect())
            .unwrap_or_default()
    }

    /// Persistence of the objects a pointer local may reference.
    pub fn local_persist(&self, local: LocalId) -> PersistKind {
        let mut k = PersistKind::Unknown;
        for n in self.nodes_for_local(local) {
            k = k.join(self.nodes[n].persist_kind());
        }
        k
    }

    /// May two pointer locals reference the same object?
    pub fn may_alias(&self, a: LocalId, b: LocalId) -> bool {
        let na = self.nodes_for_local(a);
        let nb = self.nodes_for_local(b);
        na.intersection(&nb).next().is_some()
    }

    /// The node placeholder for parameter `i`, if it is a pointer param.
    pub fn param_node(&self, i: usize) -> Option<usize> {
        self.param_nodes.get(i).copied().flatten().map(|n| self.uf.find_const(n))
    }

    /// All representative node ids.
    pub fn rep_nodes(&self) -> BTreeSet<usize> {
        (0..self.nodes.len()).map(|i| self.uf.find_const(i)).collect()
    }

    /// The summary subgraph visible to callers: raw ids reachable from
    /// parameters and the return value.
    fn summary_reachable(&self) -> BTreeSet<usize> {
        let mut seen: BTreeSet<usize> = BTreeSet::new();
        let mut work: Vec<usize> = self
            .param_nodes
            .iter()
            .flatten()
            .copied()
            .chain(self.ret.iter().copied())
            .map(|n| self.uf.find_const(n))
            .collect();
        while let Some(n) = work.pop() {
            if !seen.insert(n) {
                continue;
            }
            for set in self.nodes[n].points_to.values() {
                for &t in set {
                    let t = self.uf.find_const(t);
                    if !seen.contains(&t) {
                        work.push(t);
                    }
                }
            }
        }
        seen
    }
}

impl FunctionDsg {
    /// Render this DSG in Graphviz dot format — the diagram of the
    /// paper's Fig. 10: one record node per abstract object showing its
    /// persistence and per-field mod/ref/flush marks, field-labeled
    /// points-to edges, and the locals that reference each object.
    pub fn to_dot(&self, program: &Program, fr: FuncRef, title: &str) -> String {
        use std::fmt::Write as _;
        let f = program.func(fr);
        let module = program.module_of(fr);
        let mut out = String::new();
        let _ = writeln!(out, "digraph \"{title}\" {{");
        let _ = writeln!(out, "  rankdir=LR; node [shape=record, fontsize=10];");
        let reps = self.rep_nodes();
        for &n in &reps {
            let node = &self.nodes[n];
            let persist = match node.persist {
                Some(PersistKind::Persistent) => "persistent",
                Some(PersistKind::Volatile) => "volatile",
                _ => "unknown",
            };
            let ty = node
                .struct_ty
                .map(|(mi, sid)| program.modules[mi as usize].struct_def(sid).name.clone())
                .unwrap_or_else(|| "?".into());
            let mut fields = String::new();
            if let Some((mi, sid)) = node.struct_ty {
                let sdef = program.modules[mi as usize].struct_def(sid);
                for (i, fd) in sdef.fields.iter().enumerate() {
                    let i = i as u32;
                    let mut marks = String::new();
                    if node.written.contains(&i) || node.written.contains(&WHOLE) {
                        marks.push('W');
                    }
                    if node.read.contains(&i) || node.read.contains(&WHOLE) {
                        marks.push('R');
                    }
                    if node.flushed.contains(&i) || node.flushed.contains(&WHOLE) {
                        marks.push('F');
                    }
                    if node.logged.contains(&i) || node.logged.contains(&WHOLE) {
                        marks.push('L');
                    }
                    let _ = write!(fields, "|<f{i}> {} {}", fd.name, marks);
                }
            }
            let _ = writeln!(out, "  n{n} [label=\"{{{ty} ({persist}){fields}}}\"];");
        }
        // Field-labeled points-to edges.
        for &n in &reps {
            let node = &self.nodes[n];
            for (field, targets) in &node.points_to {
                for &t in targets {
                    let t = self.rep(t);
                    let label = if *field == WHOLE { "*".to_string() } else { field.to_string() };
                    let _ = writeln!(out, "  n{n} -> n{t} [label=\"{label}\"];");
                }
            }
        }
        // Locals referencing objects.
        for (li, decl) in f.locals.iter().enumerate() {
            if !decl.ty.is_ptr() {
                continue;
            }
            let local = deepmc_pir::LocalId(li as u32);
            for n in self.nodes_for_local(local) {
                let _ = writeln!(
                    out,
                    "  l{li} [label=\"%{}\", shape=ellipse, fontsize=9]; l{li} -> n{n};",
                    decl.name
                );
            }
        }
        let _ = module;
        out.push_str("}\n");
        out
    }
}

/// DSA results for a whole program, stored densely by the program-wide
/// function index (`None` for functions without bodies).
#[derive(Debug, Clone)]
pub struct DsaResult {
    graphs: Vec<Option<FunctionDsg>>,
    /// Per-module base offsets mirroring [`Program::dense_index`].
    func_base: Vec<u32>,
}

impl DsaResult {
    /// Run all three phases over `program`.
    pub fn analyze(program: &Program, cg: &CallGraph) -> DsaResult {
        let mut graphs: Vec<Option<FunctionDsg>> = vec![None; program.num_funcs()];
        let dense = |fr: FuncRef| program.dense_index(fr) as usize;

        // Phase 1: Local.
        for fr in program.defined_funcs() {
            graphs[dense(fr)] = Some(local_phase(program, fr));
        }

        // Phase 2: Bottom-Up (callees before callers).
        for &fr in &cg.post_order {
            let call_sites = graphs[dense(fr)]
                .as_ref()
                .expect("post-order covers defined funcs")
                .call_sites
                .clone();
            for cs in &call_sites {
                let Some(callee_fr) = program.resolve_sym(fr.module, cs.callee) else { continue };
                if callee_fr == fr {
                    continue; // direct self-recursion: summary is itself
                }
                let Some(callee_g) = graphs[dense(callee_fr)].as_ref() else { continue };
                if program.func(callee_fr).blocks.is_empty() {
                    continue;
                }
                let summary = clone_summary(callee_g);
                let g = graphs[dense(fr)].as_mut().expect("graph exists");
                apply_summary(g, summary, cs);
            }
        }

        // Phase 3: Top-Down (callers before callees).
        for fr in cg.reverse_post_order() {
            let call_sites = graphs[dense(fr)]
                .as_ref()
                .expect("post-order covers defined funcs")
                .call_sites
                .clone();
            for cs in &call_sites {
                let Some(callee_fr) = program.resolve_sym(fr.module, cs.callee) else { continue };
                if callee_fr == fr {
                    continue;
                }
                // Compute argument persistence in the caller first.
                let arg_kinds: Vec<Option<PersistKind>> = {
                    let g = graphs[dense(fr)].as_ref().expect("caller graph exists");
                    cs.ptr_args.iter().map(|a| a.map(|l| g.local_persist(l))).collect()
                };
                if let Some(callee_g) = graphs[dense(callee_fr)].as_mut() {
                    for (i, kind) in arg_kinds.iter().enumerate() {
                        let (Some(kind), Some(pn)) =
                            (kind, callee_g.param_nodes.get(i).copied().flatten())
                        else {
                            continue;
                        };
                        let rep = callee_g.uf.find(pn);
                        let node = &mut callee_g.nodes[rep];
                        node.persist = Some(match node.persist {
                            None | Some(PersistKind::Unknown) => *kind,
                            Some(existing) => existing.join(*kind),
                        });
                    }
                }
            }
        }

        let func_base = (0..program.modules.len())
            .map(|mi| program.dense_index(FuncRef::new(mi, deepmc_pir::FuncId(0))))
            .collect();
        DsaResult { graphs, func_base }
    }

    fn dense(&self, fr: FuncRef) -> usize {
        (self.func_base[fr.module as usize] + fr.func.0) as usize
    }

    /// The DSG of `fr` (panics for functions without bodies).
    pub fn graph(&self, fr: FuncRef) -> &FunctionDsg {
        self.graphs[self.dense(fr)].as_ref().expect("no DSG: function has no body")
    }

    /// Number of functions with a DSG (defined functions).
    pub fn graph_count(&self) -> usize {
        self.graphs.iter().filter(|g| g.is_some()).count()
    }
}

/// Phase 1: build the local DSG of one function.
fn local_phase(program: &Program, fr: FuncRef) -> FunctionDsg {
    let f = program.func(fr);
    let module = program.module_of(fr);
    let mut g = FunctionDsg { locals: vec![BTreeSet::new(); f.locals.len()], ..Default::default() };

    // Parameter placeholders.
    for (i, p) in f.params().iter().enumerate() {
        if let Ty::Ptr(sid) = p.ty {
            // Functions marked as persistent wrappers or tx callbacks take
            // NVM objects by contract; otherwise top-down fills this in.
            let contract_persistent =
                f.has_attr(FuncAttr::TxContext) || f.has_attr(FuncAttr::PersistWrapper);
            let n = g.new_node(DsaNode {
                persist: contract_persistent.then_some(PersistKind::Persistent),
                struct_ty: Some((fr.module, sid)),
                is_param: true,
                ..Default::default()
            });
            g.param_nodes.push(Some(n));
            g.locals[i].insert(n);
        } else {
            g.param_nodes.push(None);
        }
    }

    // Per-function ordinal for allocation sites.
    let mut alloc_ordinal: u32 = 0;

    // Flow-insensitive fixpoint: process every instruction until the sets
    // stop changing. Allocation creates its node only on the first pass.
    let mut alloc_nodes: HashMap<(usize, usize), usize> = HashMap::new();
    let mut changed = true;
    let mut first = true;
    while changed {
        changed = false;
        for (bi, b) in f.blocks.iter().enumerate() {
            for (ii, si) in f.insts_of(b).iter().enumerate() {
                match &si.inst {
                    Inst::PAlloc { dst, ty } | Inst::VAlloc { dst, ty } => {
                        let persistent = matches!(si.inst, Inst::PAlloc { .. });
                        let n = *alloc_nodes.entry((bi, ii)).or_insert_with(|| {
                            let ord = alloc_ordinal;
                            alloc_ordinal += 1;
                            g.new_node(DsaNode {
                                persist: Some(if persistent {
                                    PersistKind::Persistent
                                } else {
                                    PersistKind::Volatile
                                }),
                                struct_ty: Some((fr.module, *ty)),
                                alloc_sites: [(fr, ord)].into_iter().collect(),
                                ..Default::default()
                            })
                        });
                        changed |= g.locals[dst.index()].insert(n);
                    }
                    Inst::Mov { dst, src } => {
                        if let Operand::Local(s) = src {
                            let add: Vec<usize> = g.locals[s.index()].iter().copied().collect();
                            for n in add {
                                changed |= g.locals[dst.index()].insert(n);
                            }
                        }
                    }
                    Inst::Load { dst, place } => {
                        let field = place_field(place);
                        let bases: Vec<usize> =
                            g.locals[place.base.index()].iter().copied().collect();
                        let is_ptr_load = f.local_ty(*dst).is_ptr();
                        for bn in bases {
                            let bn = g.uf.find(bn);
                            g.nodes[bn].read.insert(field);
                            if is_ptr_load {
                                let targets: Vec<usize> = g.nodes[bn]
                                    .points_to
                                    .get(&field)
                                    .map(|s| s.iter().copied().collect())
                                    .unwrap_or_default();
                                if targets.is_empty() {
                                    // Placeholder for the unknown pointee —
                                    // but never grow a placeholder chain
                                    // (collapses recursive walks).
                                    if !g.nodes[bn].is_placeholder {
                                        let sid = f.local_ty(*dst).pointee();
                                        let ph = g.new_node(DsaNode {
                                            struct_ty: sid.map(|s| (fr.module, s)),
                                            is_placeholder: true,
                                            ..Default::default()
                                        });
                                        g.nodes[bn].points_to.entry(field).or_default().insert(ph);
                                        changed |= g.locals[dst.index()].insert(ph);
                                    }
                                } else {
                                    for t in targets {
                                        changed |= g.locals[dst.index()].insert(t);
                                    }
                                }
                            }
                        }
                    }
                    Inst::Store { place, value } => {
                        let field = place_field(place);
                        let bases: Vec<usize> =
                            g.locals[place.base.index()].iter().copied().collect();
                        let val_nodes: Vec<usize> = match value {
                            Operand::Local(v) if f.local_ty(*v).is_ptr() => {
                                g.locals[v.index()].iter().copied().collect()
                            }
                            _ => Vec::new(),
                        };
                        for bn in bases {
                            let bn = g.uf.find(bn);
                            changed |= g.nodes[bn].written.insert(field);
                            for &vn in &val_nodes {
                                changed |=
                                    g.nodes[bn].points_to.entry(field).or_default().insert(vn);
                            }
                        }
                    }
                    Inst::Flush { place } | Inst::Persist { place } => {
                        let field = place_field(place);
                        let bases: Vec<usize> =
                            g.locals[place.base.index()].iter().copied().collect();
                        for bn in bases {
                            let bn = g.uf.find(bn);
                            changed |= g.nodes[bn].flushed.insert(field);
                        }
                    }
                    Inst::MemSetPersist { place, .. } => {
                        let field = place_field(place);
                        let bases: Vec<usize> =
                            g.locals[place.base.index()].iter().copied().collect();
                        for bn in bases {
                            let bn = g.uf.find(bn);
                            changed |= g.nodes[bn].written.insert(field);
                            changed |= g.nodes[bn].flushed.insert(field);
                        }
                    }
                    Inst::TxAdd { place } => {
                        let field = place_field(place);
                        let bases: Vec<usize> =
                            g.locals[place.base.index()].iter().copied().collect();
                        for bn in bases {
                            let bn = g.uf.find(bn);
                            changed |= g.nodes[bn].logged.insert(field);
                        }
                    }
                    Inst::Call { dst, callee, args } => {
                        if first {
                            g.call_sites.push(CallSite {
                                callee: *callee,
                                ptr_args: args
                                    .iter()
                                    .map(|a| match a {
                                        Operand::Local(l) if f.local_ty(*l).is_ptr() => Some(*l),
                                        _ => None,
                                    })
                                    .collect(),
                                dst: *dst,
                            });
                        }
                    }
                    Inst::Bin { .. }
                    | Inst::Fence
                    | Inst::TxBegin
                    | Inst::TxCommit
                    | Inst::TxAbort
                    | Inst::EpochBegin
                    | Inst::EpochEnd
                    | Inst::StrandBegin
                    | Inst::StrandEnd => {}
                }
            }
            if let deepmc_pir::Terminator::Ret { value: Some(Operand::Local(v)) } = b.term.inst {
                if f.local_ty(v).is_ptr() {
                    let add: Vec<usize> = g.locals[v.index()].iter().copied().collect();
                    for n in add {
                        changed |= g.ret.insert(n);
                    }
                }
            }
            let _ = module; // module retained for future type queries
        }
        first = false;
    }
    g
}

/// Field index for a place: first field selector, or [`WHOLE`] for bare
/// object references. Array elements collapse to their field (field-level
/// granularity, as in DSA).
fn place_field(place: &deepmc_pir::Place) -> u32 {
    match place.path.first() {
        Some(Accessor::Field(fi)) => *fi,
        _ => WHOLE,
    }
}

/// A detached copy of a callee's caller-visible subgraph.
struct Summary {
    nodes: Vec<DsaNode>,
    /// Per callee parameter: index into `nodes`.
    params: Vec<Option<usize>>,
    /// Return-value nodes: indices into `nodes`.
    ret: Vec<usize>,
}

/// Phase 2 helper: clone the callee subgraph reachable from params/return.
fn clone_summary(callee: &FunctionDsg) -> Summary {
    let reach = callee.summary_reachable();
    let index: HashMap<usize, usize> = reach.iter().enumerate().map(|(i, &n)| (n, i)).collect();
    let mut nodes: Vec<DsaNode> = Vec::with_capacity(reach.len());
    for &n in &reach {
        let mut node = callee.nodes[n].clone();
        // Remap points-to through representatives into summary indices,
        // dropping edges that leave the summary (they are function-internal).
        let mut remapped: BTreeMap<u32, BTreeSet<usize>> = BTreeMap::new();
        for (f, set) in &node.points_to {
            let mut out = BTreeSet::new();
            for &t in set {
                if let Some(&i) = index.get(&callee.uf.find_const(t)) {
                    out.insert(i);
                }
            }
            if !out.is_empty() {
                remapped.insert(*f, out);
            }
        }
        node.points_to = remapped;
        nodes.push(node);
    }
    let params =
        callee.param_nodes.iter().map(|p| p.map(|n| index[&callee.uf.find_const(n)])).collect();
    let ret =
        callee.ret.iter().filter_map(|&n| index.get(&callee.uf.find_const(n)).copied()).collect();
    Summary { nodes, params, ret }
}

/// Phase 2 helper: graft a callee summary into the caller at one call site
/// and unify the interface nodes.
fn apply_summary(g: &mut FunctionDsg, summary: Summary, cs: &CallSite) {
    // Import summary nodes as fresh caller nodes.
    let base = g.nodes.len();
    for mut node in summary.nodes {
        let remapped: BTreeMap<u32, BTreeSet<usize>> = node
            .points_to
            .iter()
            .map(|(f, set)| (*f, set.iter().map(|&i| base + i).collect()))
            .collect();
        node.points_to = remapped;
        node.is_param = false; // params of the callee are ordinary here
        g.new_node(node);
    }
    // Unify parameter placeholders with the caller's argument nodes.
    for (i, pn) in summary.params.iter().enumerate() {
        let (Some(pn), Some(Some(arg_local))) = (pn, cs.ptr_args.get(i)) else { continue };
        let arg_nodes: Vec<usize> = g.locals[arg_local.index()].iter().copied().collect();
        let mut target = base + pn;
        for an in arg_nodes {
            target = g.unify(target, an);
        }
    }
    // Wire the return value into the destination local.
    if let Some(dst) = cs.dst {
        if dst.index() < g.locals.len() {
            for rn in &summary.ret {
                g.locals[dst.index()].insert(base + rn);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepmc_pir::parse;

    fn analyze(src: &str) -> (Program, CallGraph, DsaResult) {
        let p = Program::single(parse(src).unwrap());
        let cg = CallGraph::build(&p);
        let dsa = DsaResult::analyze(&p, &cg);
        (p, cg, dsa)
    }

    #[test]
    fn palloc_is_persistent() {
        let (p, _, dsa) = analyze(
            r#"
module m
struct s { a: i64 }
fn f() {
entry:
  %x = palloc s
  %y = valloc s
  store %x.a, 1
  ret
}
"#,
        );
        let fr = p.resolve("f").unwrap();
        let g = dsa.graph(fr);
        let f = p.func(fr);
        let x = f.local_by_name("x").unwrap();
        let y = f.local_by_name("y").unwrap();
        assert_eq!(g.local_persist(x), PersistKind::Persistent);
        assert_eq!(g.local_persist(y), PersistKind::Volatile);
        assert!(!g.may_alias(x, y));
        // Mod info: field 0 of x's node is written.
        let n = *g.nodes_for_local(x).iter().next().unwrap();
        assert!(g.node(n).written.contains(&0));
    }

    #[test]
    fn field_sensitive_points_to() {
        let (p, _, dsa) = analyze(
            r#"
module m
struct s { a: i64, next: ptr s, other: ptr s }
fn f() {
entry:
  %x = palloc s
  %y = palloc s
  store %x.next, %y
  %z = load %x.next
  %w = load %x.other
  ret
}
"#,
        );
        let fr = p.resolve("f").unwrap();
        let g = dsa.graph(fr);
        let f = p.func(fr);
        let y = f.local_by_name("y").unwrap();
        let z = f.local_by_name("z").unwrap();
        let w = f.local_by_name("w").unwrap();
        assert!(g.may_alias(z, y), "load of stored field sees the stored object");
        assert!(!g.may_alias(w, y), "distinct fields keep distinct targets");
    }

    #[test]
    fn bottom_up_brings_callee_effects_to_caller() {
        let (p, _, dsa) = analyze(
            r#"
module m
struct s { a: i64, b: i64 }
fn modify_a(%q: ptr s) {
entry:
  store %q.a, 5
  flush %q.a
  ret
}
fn caller() {
entry:
  %x = palloc s
  call modify_a(%x)
  ret
}
"#,
        );
        let fr = p.resolve("caller").unwrap();
        let g = dsa.graph(fr);
        let f = p.func(fr);
        let x = f.local_by_name("x").unwrap();
        let n = *g.nodes_for_local(x).iter().next().unwrap();
        assert!(g.node(n).written.contains(&0), "callee's mod of field 0 visible");
        assert!(g.node(n).flushed.contains(&0), "callee's flush of field 0 visible");
        assert!(!g.node(n).written.contains(&1));
    }

    #[test]
    fn top_down_marks_param_persistent() {
        let (p, _, dsa) = analyze(
            r#"
module m
struct s { a: i64 }
fn callee(%q: ptr s) {
entry:
  store %q.a, 1
  ret
}
fn caller() {
entry:
  %x = palloc s
  call callee(%x)
  ret
}
"#,
        );
        let fr = p.resolve("callee").unwrap();
        let g = dsa.graph(fr);
        let pn = g.param_node(0).unwrap();
        assert_eq!(g.node(pn).persist_kind(), PersistKind::Persistent);
    }

    #[test]
    fn top_down_volatile_caller_marks_param_volatile() {
        let (p, _, dsa) = analyze(
            r#"
module m
struct s { a: i64 }
fn callee(%q: ptr s) {
entry:
  store %q.a, 1
  ret
}
fn caller() {
entry:
  %x = valloc s
  call callee(%x)
  ret
}
"#,
        );
        let fr = p.resolve("callee").unwrap();
        let g = dsa.graph(fr);
        let pn = g.param_node(0).unwrap();
        assert_eq!(g.node(pn).persist_kind(), PersistKind::Volatile);
    }

    #[test]
    fn conflicting_callers_degrade_to_persistent() {
        let (p, _, dsa) = analyze(
            r#"
module m
struct s { a: i64 }
fn callee(%q: ptr s) {
entry:
  store %q.a, 1
  ret
}
fn c1() {
entry:
  %x = palloc s
  call callee(%x)
  ret
}
fn c2() {
entry:
  %y = valloc s
  call callee(%y)
  ret
}
"#,
        );
        let g = dsa.graph(p.resolve("callee").unwrap());
        let pn = g.param_node(0).unwrap();
        assert_eq!(g.node(pn).persist_kind(), PersistKind::Persistent);
    }

    #[test]
    fn returned_allocation_flows_to_caller() {
        let (p, _, dsa) = analyze(
            r#"
module m
struct s { a: i64 }
fn mk() -> ptr s {
entry:
  %x = palloc s
  ret %x
}
fn caller() {
entry:
  %y = call mk()
  store %y.a, 1
  ret
}
"#,
        );
        let fr = p.resolve("caller").unwrap();
        let g = dsa.graph(fr);
        let f = p.func(fr);
        let y = f.local_by_name("y").unwrap();
        assert_eq!(g.local_persist(y), PersistKind::Persistent);
    }

    #[test]
    fn tx_context_param_is_persistent_by_contract() {
        let (p, _, dsa) = analyze(
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
        let g = dsa.graph(p.resolve("cb").unwrap());
        let pn = g.param_node(0).unwrap();
        assert_eq!(g.node(pn).persist_kind(), PersistKind::Persistent);
    }

    #[test]
    fn whole_object_flush_marks_whole() {
        let (p, _, dsa) = analyze(
            r#"
module m
struct s { a: i64 }
fn f() {
entry:
  %x = palloc s
  persist %x
  ret
}
"#,
        );
        let fr = p.resolve("f").unwrap();
        let g = dsa.graph(fr);
        let f = p.func(fr);
        let x = f.local_by_name("x").unwrap();
        let n = *g.nodes_for_local(x).iter().next().unwrap();
        assert!(g.node(n).flushed.contains(&WHOLE));
    }

    /// The paper's Fig. 9/10 walkthrough: the nvm_lock DSG has nodes for
    /// `mutex` (the caller's persistent object) and `lk` (persistent
    /// allocation), with the mod/flush marks the checker consumes —
    /// including the tell-tale written-but-never-flushed `new_level`.
    #[test]
    fn nvm_lock_dsg_matches_fig10() {
        let (p, _, dsa) = analyze(
            r#"
module nvm_locks
struct nvm_amutex { owners: i64, level: i64 }
struct nvm_lkrec { state: i64, new_level: i64 }
fn nvm_lock(%omutex: ptr nvm_amutex, %excl: i64) -> i64 {
entry:
  %lk = palloc nvm_lkrec
  store %lk.state, 1
  persist %lk.state
  %o = load %omutex.owners
  %o1 = sub %o, 1
  store %omutex.owners, %o1
  persist %omutex.owners
  %lv = load %omutex.level
  store %lk.new_level, %lv
  store %lk.state, 2
  persist %lk.state
  ret 0
}
fn caller() {
entry:
  %mx = palloc nvm_amutex
  %r = call nvm_lock(%mx, 1)
  ret
}
"#,
        );
        let fr = p.resolve("nvm_lock").unwrap();
        let g = dsa.graph(fr);
        let f = p.func(fr);
        // mutex (param) is persistent via top-down from `caller`.
        let mutex = f.local_by_name("omutex").unwrap();
        assert_eq!(g.local_persist(mutex), PersistKind::Persistent);
        let mn = *g.nodes_for_local(mutex).iter().next().unwrap();
        assert!(g.node(mn).written.contains(&0), "owners written");
        assert!(g.node(mn).flushed.contains(&0), "owners flushed");
        assert!(g.node(mn).read.contains(&1), "level read");
        // lk: state written+flushed, new_level written but NOT flushed —
        // the Fig. 9 bug, visible straight off the DSG.
        let lk = f.local_by_name("lk").unwrap();
        let ln = *g.nodes_for_local(lk).iter().next().unwrap();
        assert!(g.node(ln).written.contains(&0));
        assert!(g.node(ln).flushed.contains(&0));
        assert!(g.node(ln).written.contains(&1), "new_level written");
        assert!(!g.node(ln).flushed.contains(&1), "new_level never flushed");
        // And the dot rendering mentions both objects.
        let dot = g.to_dot(&p, fr, "nvm_lock");
        assert!(dot.contains("nvm_amutex"));
        assert!(dot.contains("nvm_lkrec"));
        assert!(dot.contains("digraph"));
    }

    #[test]
    fn recursion_terminates() {
        let (_, _, dsa) = analyze(
            r#"
module m
struct s { a: i64, next: ptr s }
fn walk(%q: ptr s) {
entry:
  %n = load %q.next
  call walk(%n)
  ret
}
"#,
        );
        assert_eq!(dsa.graph_count(), 1);
    }
}
