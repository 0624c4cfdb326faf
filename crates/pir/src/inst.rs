//! PIR instructions, places, operands, and terminators.
//!
//! The instruction set is the minimal closure of the events DeepMC's
//! analyses consume (paper §4): persistent operations (`store`/`flush`/
//! `fence`/`persist`/`memset_persist`), region markers (`tx_*`, `epoch_*`,
//! `strand_*`), pointer manipulation (`palloc`/`valloc`/`load`), plain
//! arithmetic, and control flow.

use crate::intern::Symbol;
use crate::module::{BlockId, LocalId};
use crate::types::StructId;
use serde::{Deserialize, Serialize};

/// A value operand: a constant, a local, or the null pointer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Operand {
    Const(i64),
    Local(LocalId),
    Null,
}

/// One step of a place path beyond the base local.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Accessor {
    /// Select a named field (stored as its index in the struct def).
    Field(u32),
    /// Index into an array field. Non-constant indices make the analysis
    /// conservatively treat the whole array element range as touched.
    Index(Operand),
}

/// An lvalue: a base local plus an optional field / array-element path.
///
/// * `%x` — the local itself (for pointers: the whole pointee object).
/// * `%x.f` — field `f` of the object `%x` points to.
/// * `%x.f[i]` — element `i` of array field `f`.
///
/// Pointer chains must be broken up with explicit `load`s (as in LLVM IR),
/// which keeps the DSA honest: `%n2 = load %n.next; store %n2.val, 5`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Place {
    pub base: LocalId,
    pub path: Vec<Accessor>,
}

impl Place {
    /// A bare local with no projection.
    pub fn local(base: LocalId) -> Self {
        Place { base, path: Vec::new() }
    }

    /// `%base.field`.
    pub fn field(base: LocalId, field: u32) -> Self {
        Place { base, path: vec![Accessor::Field(field)] }
    }

    /// `%base.field[index]`.
    pub fn indexed(base: LocalId, field: u32, index: Operand) -> Self {
        Place { base, path: vec![Accessor::Field(field), Accessor::Index(index)] }
    }

    /// The first field selector on the path, if any.
    pub fn first_field(&self) -> Option<u32> {
        self.path.iter().find_map(|a| match a {
            Accessor::Field(f) => Some(*f),
            Accessor::Index(_) => None,
        })
    }

    /// True if the place names the whole object (no projection).
    pub fn is_whole_object(&self) -> bool {
        self.path.is_empty()
    }
}

/// Binary integer operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl BinOp {
    /// Evaluate the operation on two i64 values (division by zero yields 0,
    /// matching the interpreter's total semantics).
    pub fn eval(self, a: i64, b: i64) -> i64 {
        match self {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::Div => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_div(b)
                }
            }
            BinOp::Rem => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_rem(b)
                }
            }
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
            BinOp::Eq => (a == b) as i64,
            BinOp::Ne => (a != b) as i64,
            BinOp::Lt => (a < b) as i64,
            BinOp::Le => (a <= b) as i64,
            BinOp::Gt => (a > b) as i64,
            BinOp::Ge => (a >= b) as i64,
        }
    }

    /// Textual mnemonic used by the parser and printer.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Div => "div",
            BinOp::Rem => "rem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Eq => "eq",
            BinOp::Ne => "ne",
            BinOp::Lt => "lt",
            BinOp::Le => "le",
            BinOp::Gt => "gt",
            BinOp::Ge => "ge",
        }
    }

    /// All operations, for the parser's mnemonic table and proptests.
    pub const ALL: [BinOp; 14] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Rem,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
        BinOp::Eq,
        BinOp::Ne,
        BinOp::Lt,
        BinOp::Le,
        BinOp::Gt,
        BinOp::Ge,
    ];
}

/// A non-terminator PIR instruction.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Inst {
    /// Allocate a struct in persistent memory (`pmemobj_tx_alloc` /
    /// `nvm_alloc` / `pmalloc` equivalents). `dst` becomes a pointer.
    PAlloc { dst: LocalId, ty: StructId },
    /// Allocate a struct in volatile memory (`malloc`).
    VAlloc { dst: LocalId, ty: StructId },
    /// Store `value` into `place`. A *persistent write* when the base object
    /// lives in NVM.
    Store { place: Place, value: Operand },
    /// Load from `place` into `dst`.
    Load { dst: LocalId, place: Place },
    /// `dst = lhs op rhs`.
    Bin { dst: LocalId, op: BinOp, lhs: Operand, rhs: Operand },
    /// Copy an operand into a local (`%x = mov %y`).
    Mov { dst: LocalId, src: Operand },
    /// Write back the cache line(s) of `place` (`clwb`). A whole-object
    /// place flushes every line of the object.
    Flush { place: Place },
    /// Persist barrier (`sfence`): all prior flushes are durable before any
    /// later persistent operation.
    Fence,
    /// Flush + fence combined (`pmemobj_persist`, `nvm_persist1`).
    Persist { place: Place },
    /// Zero-fill, flush, and fence a whole object
    /// (`pmemobj_memset_persist`).
    MemSetPersist { place: Place, value: Operand },
    /// Begin a durable transaction (`TX_BEGIN`, `nvm_txbegin`,
    /// `pmfs_new_transaction`).
    TxBegin,
    /// Undo-log an object into the current transaction (`TX_ADD`).
    TxAdd { place: Place },
    /// Commit the current transaction; the runtime persists logged objects.
    TxCommit,
    /// Abort the current transaction; the runtime rolls back logged objects.
    TxAbort,
    /// Epoch boundary open (epoch persistency; `pmfs` journal entry start).
    EpochBegin,
    /// Epoch boundary close. Persist ordering between epochs is enforced by
    /// a fence at this boundary (the missing-barrier rule checks this).
    EpochEnd,
    /// Begin a strand: persists inside may proceed concurrently with
    /// other strands (strand persistency).
    StrandBegin,
    /// End the current strand.
    StrandEnd,
    /// Direct call. The callee is an interned handle into the owning
    /// module's symbol table; `args` are operands and pointer locals pass
    /// object references.
    Call { dst: Option<LocalId>, callee: Symbol, args: Vec<Operand> },
}

impl Inst {
    /// True for instructions that are persistent-memory *operations* the
    /// checker tracks (writes, flushes, fences, persists, tx/epoch/strand
    /// markers) as opposed to plain computation.
    pub fn is_persist_relevant(&self) -> bool {
        !matches!(
            self,
            Inst::Load { .. } | Inst::Bin { .. } | Inst::Mov { .. } | Inst::VAlloc { .. }
        )
    }
}

/// Block terminators.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Terminator {
    /// Return, optionally with a value.
    Ret { value: Option<Operand> },
    /// Conditional branch: nonzero → `then_bb`, zero → `else_bb`.
    Br { cond: Operand, then_bb: BlockId, else_bb: BlockId },
    /// Unconditional jump.
    Jmp { bb: BlockId },
}

impl Terminator {
    /// Successor blocks of this terminator.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Ret { .. } => Vec::new(),
            Terminator::Br { then_bb, else_bb, .. } => vec![*then_bb, *else_bb],
            Terminator::Jmp { bb } => vec![*bb],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_eval_arithmetic() {
        assert_eq!(BinOp::Add.eval(2, 3), 5);
        assert_eq!(BinOp::Sub.eval(2, 3), -1);
        assert_eq!(BinOp::Mul.eval(4, 3), 12);
        assert_eq!(BinOp::Div.eval(7, 2), 3);
        assert_eq!(BinOp::Div.eval(7, 0), 0, "total semantics on /0");
        assert_eq!(BinOp::Rem.eval(7, 0), 0);
    }

    #[test]
    fn binop_eval_comparisons() {
        assert_eq!(BinOp::Eq.eval(3, 3), 1);
        assert_eq!(BinOp::Ne.eval(3, 3), 0);
        assert_eq!(BinOp::Lt.eval(1, 2), 1);
        assert_eq!(BinOp::Ge.eval(1, 2), 0);
    }

    #[test]
    fn binop_eval_wrapping() {
        assert_eq!(BinOp::Add.eval(i64::MAX, 1), i64::MIN);
    }

    #[test]
    fn place_helpers() {
        let p = Place::indexed(LocalId(2), 1, Operand::Const(3));
        assert_eq!(p.first_field(), Some(1));
        assert!(!p.is_whole_object());
        assert!(Place::local(LocalId(0)).is_whole_object());
    }

    #[test]
    fn terminator_successors() {
        let t =
            Terminator::Br { cond: Operand::Const(1), then_bb: BlockId(1), else_bb: BlockId(2) };
        assert_eq!(t.successors(), vec![BlockId(1), BlockId(2)]);
        assert!(Terminator::Ret { value: None }.successors().is_empty());
    }

    #[test]
    fn persist_relevance() {
        assert!(Inst::Fence.is_persist_relevant());
        assert!(!Inst::Mov { dst: LocalId(0), src: Operand::Const(1) }.is_persist_relevant());
    }
}
