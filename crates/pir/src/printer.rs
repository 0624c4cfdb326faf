//! Pretty printer producing parseable PIR text.
//!
//! The printer emits `loc N` directives so that instruction source locations
//! survive a print → parse round trip (the parser's `loc` directive
//! auto-increments, so a directive is only emitted when the line sequence
//! breaks).

use crate::inst::{Accessor, Inst, Operand, Place, Terminator};
use crate::module::{Function, Module};
use crate::types::{StructDef, Ty};
use std::fmt::Write;

/// Render a whole module as parseable PIR text.
pub fn print(module: &Module) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "module {}", module.name);
    let _ = writeln!(out, "file \"{}\"", module.file);
    out.push('\n');
    for s in &module.structs {
        print_struct(&mut out, s, module);
        out.push('\n');
    }
    for f in &module.functions {
        print_function(&mut out, f, module);
        out.push('\n');
    }
    out
}

fn ty_str(ty: Ty, module: &Module) -> String {
    match ty {
        Ty::I64 => "i64".to_string(),
        Ty::Ptr(sid) => format!("ptr {}", module.struct_def(sid).name),
        Ty::Array(n) => format!("[i64; {n}]"),
    }
}

fn print_struct(out: &mut String, s: &StructDef, module: &Module) {
    let _ = writeln!(out, "struct {} {{", s.name);
    for f in &s.fields {
        let _ = writeln!(out, "  {}: {},", f.name, ty_str(f.ty, module));
    }
    out.push_str("}\n");
}

fn operand_str(op: Operand, f: &Function) -> String {
    match op {
        Operand::Const(n) => n.to_string(),
        Operand::Local(id) => format!("%{}", f.locals[id.index()].name),
        Operand::Null => "null".to_string(),
    }
}

fn place_str(p: &Place, f: &Function, module: &Module) -> String {
    let mut s = format!("%{}", f.locals[p.base.index()].name);
    let base_ty = f.local_ty(p.base);
    for acc in &p.path {
        match acc {
            Accessor::Field(idx) => {
                let sid = base_ty.pointee().expect("field access requires pointer base");
                let _ = write!(s, ".{}", module.struct_def(sid).field(*idx).name);
            }
            Accessor::Index(op) => {
                let _ = write!(s, "[{}]", operand_str(*op, f));
            }
        }
    }
    s
}

fn print_function(out: &mut String, f: &Function, module: &Module) {
    let is_extern = f.blocks.is_empty();
    if is_extern {
        out.push_str("extern ");
    }
    let _ = write!(out, "fn {}(", f.name);
    for (i, p) in f.params().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "%{}: {}", p.name, ty_str(p.ty, module));
    }
    out.push(')');
    if let Some(rt) = f.ret_ty {
        let _ = write!(out, " -> {}", ty_str(rt, module));
    }
    if !f.attrs.is_empty() {
        out.push_str(" attrs(");
        for (i, a) in f.attrs.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(match a {
                crate::module::FuncAttr::TxContext => "tx_context",
                crate::module::FuncAttr::PersistWrapper => "persist_wrapper",
                crate::module::FuncAttr::ModelStrict => "model_strict",
                crate::module::FuncAttr::ModelEpoch => "model_epoch",
                crate::module::FuncAttr::ModelStrand => "model_strand",
            });
        }
        out.push(')');
    }
    if is_extern {
        out.push('\n');
        return;
    }
    out.push_str(" {\n");
    // Track the line the parser's auto-incrementing `loc` counter would
    // assign next (none past `u32::MAX`); emit a directive only when the
    // desired line differs.
    let mut next_loc: Option<u32> = None;
    let emit_loc = |out: &mut String, want: u32, next_loc: &mut Option<u32>| {
        if *next_loc != Some(want) {
            let _ = writeln!(out, "  loc {want}");
        }
        *next_loc = want.checked_add(1);
    };
    for b in &f.blocks {
        let _ = writeln!(out, "{}:", b.label);
        for si in f.insts_of(b) {
            emit_loc(out, si.loc.line, &mut next_loc);
            let _ = writeln!(out, "  {}", inst_str(&si.inst, f, module));
        }
        emit_loc(out, b.term.loc.line, &mut next_loc);
        let _ = writeln!(out, "  {}", term_str(&b.term.inst, f));
    }
    out.push_str("}\n");
}

fn inst_str(inst: &Inst, f: &Function, module: &Module) -> String {
    match inst {
        Inst::PAlloc { dst, ty } => {
            format!("%{} = palloc {}", f.locals[dst.index()].name, module.struct_def(*ty).name)
        }
        Inst::VAlloc { dst, ty } => {
            format!("%{} = valloc {}", f.locals[dst.index()].name, module.struct_def(*ty).name)
        }
        Inst::Store { place, value } => {
            format!("store {}, {}", place_str(place, f, module), operand_str(*value, f))
        }
        Inst::Load { dst, place } => {
            format!("%{} = load {}", f.locals[dst.index()].name, place_str(place, f, module))
        }
        Inst::Bin { dst, op, lhs, rhs } => format!(
            "%{} = {} {}, {}",
            f.locals[dst.index()].name,
            op.mnemonic(),
            operand_str(*lhs, f),
            operand_str(*rhs, f)
        ),
        Inst::Mov { dst, src } => {
            format!("%{} = mov {}", f.locals[dst.index()].name, operand_str(*src, f))
        }
        Inst::Flush { place } => format!("flush {}", place_str(place, f, module)),
        Inst::Fence => "fence".to_string(),
        Inst::Persist { place } => format!("persist {}", place_str(place, f, module)),
        Inst::MemSetPersist { place, value } => {
            format!("memset_persist {}, {}", place_str(place, f, module), operand_str(*value, f))
        }
        Inst::TxBegin => "tx_begin".to_string(),
        Inst::TxAdd { place } => format!("tx_add {}", place_str(place, f, module)),
        Inst::TxCommit => "tx_commit".to_string(),
        Inst::TxAbort => "tx_abort".to_string(),
        Inst::EpochBegin => "epoch_begin".to_string(),
        Inst::EpochEnd => "epoch_end".to_string(),
        Inst::StrandBegin => "strand_begin".to_string(),
        Inst::StrandEnd => "strand_end".to_string(),
        Inst::Call { dst, callee, args } => {
            // Rendering is the only place symbols turn back into strings;
            // a handle from another module's table would print garbage.
            debug_assert!(
                module.symbols.contains(*callee),
                "callee symbol {callee:?} not in this module's string table"
            );
            let callee = module.symbols.resolve(*callee);
            let args: Vec<String> = args.iter().map(|a| operand_str(*a, f)).collect();
            match dst {
                // Annotate the result type so externs round-trip.
                Some(d) => format!(
                    "%{} = call {}({}) : {}",
                    f.locals[d.index()].name,
                    callee,
                    args.join(", "),
                    ty_str(f.local_ty(*d), module)
                ),
                None => format!("call {}({})", callee, args.join(", ")),
            }
        }
    }
}

fn term_str(term: &Terminator, f: &Function) -> String {
    match term {
        Terminator::Ret { value: None } => "ret".to_string(),
        Terminator::Ret { value: Some(v) } => format!("ret {}", operand_str(*v, f)),
        Terminator::Br { cond, then_bb, else_bb } => format!(
            "br {}, {}, {}",
            operand_str(*cond, f),
            f.blocks[then_bb.index()].label,
            f.blocks[else_bb.index()].label
        ),
        Terminator::Jmp { bb } => format!("jmp {}", f.blocks[bb.index()].label),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    const SRC: &str = r#"
module demo
file "demo.c"

struct node { n: i64, items: [i64; 4], next: ptr node }

fn helper(%p: ptr node) -> i64 attrs(tx_context) {
entry:
  loc 100
  %x = load %p.n
  store %p.items[%x], 3
  store %p.next, null
  ret %x
}

fn main() {
entry:
  %a = palloc node
  tx_begin
  tx_add %a
  store %a.n, 7
  %r = call helper(%a)
  tx_commit
  persist %a
  br %r, done, alt
alt:
  memset_persist %a, 0
  jmp done
done:
  ret
}
"#;

    #[test]
    fn roundtrip_preserves_module() {
        let m1 = parse(SRC).unwrap();
        let text = print(&m1);
        let m2 = parse(&text).unwrap_or_else(|e| panic!("reparse failed: {e}\n{text}"));
        assert_eq!(m1, m2, "print → parse must round-trip\n{text}");
    }

    #[test]
    fn roundtrip_preserves_locs() {
        let m1 = parse(SRC).unwrap();
        let m2 = parse(&print(&m1)).unwrap();
        let f1 = &m1.functions[0];
        let f2 = &m2.functions[0];
        assert_eq!(f1.block_insts(0)[0].loc.line, 100);
        assert_eq!(f1.block_insts(0)[0].loc, f2.block_insts(0)[0].loc);
    }

    #[test]
    fn extern_roundtrip() {
        let src = "module m\nextern fn w(%p: i64) -> i64 attrs(persist_wrapper)\n";
        let m1 = parse(src).unwrap();
        let m2 = parse(&print(&m1)).unwrap();
        assert_eq!(m1, m2);
    }
}
