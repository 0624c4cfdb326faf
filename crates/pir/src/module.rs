//! Modules, functions, blocks, and locals.
//!
//! Instructions live in one flat per-function arena (`Function::insts`);
//! each block holds a `u32` range into it instead of its own vector. The
//! arena keeps a whole body contiguous in memory — the analysis walk and
//! the verifier iterate it without pointer-chasing per block — and makes
//! "function size" an O(1) query.

use crate::inst::{Inst, Terminator};
use crate::intern::SymbolTable;
use crate::loc::SourceLoc;
use crate::types::{StructDef, StructId, Ty};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Index of a function within its module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FuncId(pub u32);

impl FuncId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Index of a basic block within its function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct BlockId(pub u32);

impl BlockId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Index of a local (register) within its function. Parameters come first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LocalId(pub u32);

impl LocalId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Declaration of a local: its name (without the `%` sigil) and type.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LocalDecl {
    pub name: String,
    pub ty: Ty,
}

/// Function attributes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FuncAttr {
    /// The function body executes within a caller's durable transaction
    /// (like PMDK callbacks invoked from `TX_BEGIN` blocks, Fig. 2 of the
    /// paper). The static checker treats the body as transactional.
    TxContext,
    /// The function is an annotated persistent-operation wrapper the
    /// analysis must track even without a body (paper §4.1: "DeepMC uses an
    /// interface to track every function that performs persistent
    /// operations").
    PersistWrapper,
    /// Per-function persistency-model override: this entry point follows
    /// strict persistency regardless of the compile-time flag. (The paper
    /// notes mixed-model programs as unsupported, §4.5; this attribute is
    /// the extension lifting that limitation.)
    ModelStrict,
    /// Per-function override: epoch persistency.
    ModelEpoch,
    /// Per-function override: strand persistency.
    ModelStrand,
}

/// An instruction paired with its source location.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Spanned<T> {
    pub inst: T,
    pub loc: SourceLoc,
}

impl<T> Spanned<T> {
    pub fn new(inst: T, loc: impl Into<SourceLoc>) -> Self {
        Spanned { inst, loc: loc.into() }
    }
}

/// A half-open range `[start, end)` into a function's instruction arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InstRange {
    pub start: u32,
    pub end: u32,
}

impl InstRange {
    pub fn len(self) -> usize {
        (self.end - self.start) as usize
    }

    pub fn is_empty(self) -> bool {
        self.start == self.end
    }

    pub fn range(self) -> std::ops::Range<usize> {
        self.start as usize..self.end as usize
    }
}

/// A basic block: a label, a range of straight-line instructions in the
/// function's arena, and one terminator.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Block {
    pub label: String,
    pub insts: InstRange,
    pub term: Spanned<Terminator>,
}

/// A PIR function.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Function {
    pub name: String,
    /// Number of leading locals that are parameters.
    pub num_params: u32,
    pub locals: Vec<LocalDecl>,
    /// Return type; `None` for void.
    pub ret_ty: Option<Ty>,
    /// Flat instruction arena; blocks index into it via [`InstRange`].
    pub insts: Vec<Spanned<Inst>>,
    pub blocks: Vec<Block>,
    pub attrs: Vec<FuncAttr>,
}

impl Function {
    /// The entry block (always block 0).
    pub const ENTRY: BlockId = BlockId(0);

    /// Assemble a function from per-block instruction vectors, flattening
    /// them into the arena in block order. This is the single construction
    /// path shared by the parser and the builder, so equal bodies always
    /// get equal ranges.
    pub fn assemble(
        name: String,
        num_params: u32,
        locals: Vec<LocalDecl>,
        ret_ty: Option<Ty>,
        pending: Vec<(String, Vec<Spanned<Inst>>, Spanned<Terminator>)>,
        attrs: Vec<FuncAttr>,
    ) -> Function {
        let total: usize = pending.iter().map(|(_, insts, _)| insts.len()).sum();
        let mut arena = Vec::with_capacity(total);
        let mut blocks = Vec::with_capacity(pending.len());
        for (label, insts, term) in pending {
            let start = arena.len() as u32;
            arena.extend(insts);
            blocks.push(Block { label, insts: InstRange { start, end: arena.len() as u32 }, term });
        }
        Function { name, num_params, locals, ret_ty, insts: arena, blocks, attrs }
    }

    /// The instructions of block `b`.
    pub fn insts_of(&self, b: &Block) -> &[Spanned<Inst>] {
        &self.insts[b.insts.range()]
    }

    /// The instructions of the block at index `bi`.
    pub fn block_insts(&self, bi: usize) -> &[Spanned<Inst>] {
        self.insts_of(&self.blocks[bi])
    }

    /// Insert an instruction at position `at` within block `bi`, shifting
    /// later arena ranges. Cold path — used only by the fixer.
    pub fn insert_inst(&mut self, bi: usize, at: usize, si: Spanned<Inst>) {
        let point = self.blocks[bi].insts.start + at as u32;
        self.insts.insert(point as usize, si);
        for (i, b) in self.blocks.iter_mut().enumerate() {
            if i == bi {
                b.insts.end += 1;
            } else if b.insts.start >= point {
                b.insts.start += 1;
                b.insts.end += 1;
            }
        }
    }

    /// Remove and return the instruction at position `at` within block
    /// `bi`, shifting later arena ranges. Cold path — fixer only.
    pub fn remove_inst(&mut self, bi: usize, at: usize) -> Spanned<Inst> {
        let point = self.blocks[bi].insts.start + at as u32;
        let removed = self.insts.remove(point as usize);
        for (i, b) in self.blocks.iter_mut().enumerate() {
            if i == bi {
                b.insts.end -= 1;
            } else if b.insts.start > point {
                b.insts.start -= 1;
                b.insts.end -= 1;
            }
        }
        removed
    }

    /// Parameter declarations.
    pub fn params(&self) -> &[LocalDecl] {
        &self.locals[..self.num_params as usize]
    }

    /// Look up a local by name.
    pub fn local_by_name(&self, name: &str) -> Option<LocalId> {
        self.locals.iter().position(|l| l.name == name).map(|i| LocalId(i as u32))
    }

    /// Type of a local.
    pub fn local_ty(&self, id: LocalId) -> Ty {
        self.locals[id.index()].ty
    }

    /// True if the function carries `attr`.
    pub fn has_attr(&self, attr: FuncAttr) -> bool {
        self.attrs.contains(&attr)
    }

    /// Total instruction count (excluding terminators). O(1): the arena
    /// holds every instruction exactly once.
    pub fn inst_count(&self) -> usize {
        self.insts.len()
    }
}

/// A PIR module: a compilation unit corresponding to one source file of the
/// original C program.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Module {
    pub name: String,
    /// The C source file this module models (used in warning reports).
    pub file: String,
    pub structs: Vec<StructDef>,
    pub functions: Vec<Function>,
    /// Interned strings referenced by instructions (callee names).
    #[serde(default)]
    pub symbols: SymbolTable,
    /// Name → id caches rebuilt by [`Module::rebuild_index`].
    #[serde(skip)]
    struct_index: HashMap<String, StructId>,
    #[serde(skip)]
    func_index: HashMap<String, FuncId>,
}

impl Module {
    /// Create an empty module.
    pub fn new(name: impl Into<String>, file: impl Into<String>) -> Self {
        Module {
            name: name.into(),
            file: file.into(),
            structs: Vec::new(),
            functions: Vec::new(),
            symbols: SymbolTable::new(),
            struct_index: HashMap::new(),
            func_index: HashMap::new(),
        }
    }

    /// Rebuild the name → id lookup tables. Call after mutating `structs`
    /// or `functions` directly (the builder and parser do this for you).
    pub fn rebuild_index(&mut self) {
        self.struct_index = self
            .structs
            .iter()
            .enumerate()
            .map(|(i, s)| (s.name.clone(), StructId(i as u32)))
            .collect();
        self.func_index = self
            .functions
            .iter()
            .enumerate()
            .map(|(i, f)| (f.name.clone(), FuncId(i as u32)))
            .collect();
    }

    /// Look up a struct by name.
    pub fn struct_by_name(&self, name: &str) -> Option<StructId> {
        self.struct_index.get(name).copied()
    }

    /// Look up a function by name.
    pub fn func_by_name(&self, name: &str) -> Option<FuncId> {
        self.func_index.get(name).copied()
    }

    /// The struct definition for `id`.
    pub fn struct_def(&self, id: StructId) -> &StructDef {
        &self.structs[id.index()]
    }

    /// The function for `id`.
    pub fn func(&self, id: FuncId) -> &Function {
        &self.functions[id.index()]
    }

    /// Iterate `(FuncId, &Function)`.
    pub fn funcs(&self) -> impl Iterator<Item = (FuncId, &Function)> {
        self.functions.iter().enumerate().map(|(i, f)| (FuncId(i as u32), f))
    }

    /// Total instruction count across all functions.
    pub fn inst_count(&self) -> usize {
        self.functions.iter().map(|f| f.inst_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::FieldDef;

    #[test]
    fn module_index_roundtrip() {
        let mut m = Module::new("m", "m.c");
        m.structs.push(StructDef {
            name: "s".into(),
            fields: vec![FieldDef { name: "a".into(), ty: Ty::I64 }],
        });
        m.functions.push(Function {
            name: "f".into(),
            num_params: 0,
            locals: vec![],
            ret_ty: None,
            insts: vec![],
            blocks: vec![],
            attrs: vec![],
        });
        m.rebuild_index();
        assert_eq!(m.struct_by_name("s"), Some(StructId(0)));
        assert_eq!(m.func_by_name("f"), Some(FuncId(0)));
        assert_eq!(m.struct_by_name("zzz"), None);
    }

    #[test]
    fn function_local_lookup() {
        let f = Function {
            name: "f".into(),
            num_params: 1,
            locals: vec![
                LocalDecl { name: "p".into(), ty: Ty::I64 },
                LocalDecl { name: "x".into(), ty: Ty::I64 },
            ],
            ret_ty: Some(Ty::I64),
            insts: vec![],
            blocks: vec![],
            attrs: vec![FuncAttr::TxContext],
        };
        assert_eq!(f.local_by_name("x"), Some(LocalId(1)));
        assert_eq!(f.params().len(), 1);
        assert!(f.has_attr(FuncAttr::TxContext));
        assert!(!f.has_attr(FuncAttr::PersistWrapper));
    }

    #[test]
    fn arena_splice_shifts_ranges() {
        let mk = |line: u32| Spanned::new(Inst::Fence, SourceLoc::new(line));
        let mut f = Function::assemble(
            "f".into(),
            0,
            vec![],
            None,
            vec![
                (
                    "entry".into(),
                    vec![mk(1), mk(2)],
                    Spanned::new(Terminator::Jmp { bb: BlockId(1) }, SourceLoc::new(3)),
                ),
                (
                    "done".into(),
                    vec![mk(4)],
                    Spanned::new(Terminator::Ret { value: None }, SourceLoc::new(5)),
                ),
            ],
            vec![],
        );
        assert_eq!(f.inst_count(), 3);
        assert_eq!(f.block_insts(0).len(), 2);
        assert_eq!(f.block_insts(1).len(), 1);

        f.insert_inst(0, 1, mk(10));
        assert_eq!(f.block_insts(0).len(), 3);
        assert_eq!(f.block_insts(0)[1].loc.line, 10);
        assert_eq!(f.block_insts(1)[0].loc.line, 4, "later block shifted intact");

        let removed = f.remove_inst(0, 1);
        assert_eq!(removed.loc.line, 10);
        assert_eq!(f.block_insts(0).len(), 2);
        assert_eq!(f.block_insts(1)[0].loc.line, 4);
    }
}
