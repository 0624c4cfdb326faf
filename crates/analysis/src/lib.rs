//! # deepmc-analysis — the program-analysis substrate of DeepMC
//!
//! This crate implements the offline-analysis machinery of the paper's
//! Figure 8, steps ①–③:
//!
//! * [`program`] — a whole-program view over a set of PIR modules with
//!   cross-module function resolution (the unit the original tool gets from
//!   linking LLVM bitcode).
//! * [`mod@cfg`] — per-function control-flow graphs (step ①).
//! * [`callgraph`] — the call graph with post-order traversal used by the
//!   bottom-up DSA phase and interprocedural trace merging (steps ① and ②).
//! * [`dsa`] — Data Structure Analysis (Lattner et al., PLDI'07) adapted to
//!   persistent memory: three phases (Local, Bottom-Up, Top-Down) building a
//!   context- and field-sensitive Data Structure Graph restricted to
//!   persistent objects, with mod/ref information (step ③, paper §4.2).
//! * [`trace`] — bounded-DFS trace collection with interprocedural call
//!   inlining, loop bound 10 and recursion bound 5 by default (paper §4.3),
//!   producing the persistent-operation traces the static checker consumes.
//! * [`pool`] — a shared-queue fan-out in which the caller and scoped
//!   helper threads run independent analysis roots (and other
//!   embarrassingly-parallel loops) while keeping merged results
//!   deterministic.

pub mod callgraph;
pub mod cfg;
pub mod dsa;
pub mod fxhash;
pub mod pool;
pub mod program;
pub mod trace;
pub mod unionfind;

pub use callgraph::CallGraph;
pub use cfg::Cfg;
pub use dsa::{DsaResult, FunctionDsg, PersistKind};
pub use fxhash::{FxHashMap, FxHashSet};
pub use program::{FuncRef, Program};
pub use trace::{
    Addr, FieldSel, ObjId, RootTruncation, Trace, TraceCollector, TraceConfig, TraceEvent,
};
