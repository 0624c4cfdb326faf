//! Property-based tests: randomly generated modules must verify, print to
//! parseable text, and survive a print → parse round trip exactly.

use deepmc_pir::{
    builder::ModuleBuilder, inst::BinOp, parse, print, verify::verify_module, Module, Operand,
    Place, Ty,
};
use proptest::prelude::*;

/// A compact recipe for one generated instruction in a straight-line body.
#[derive(Debug, Clone)]
enum Op {
    Store {
        field: u8,
        val: i64,
    },
    StoreIndexed {
        field: u8,
        idx: u8,
        val: i64,
    },
    Load {
        field: u8,
    },
    Flush {
        field: Option<u8>,
    },
    Fence,
    Persist {
        field: Option<u8>,
    },
    Bin(u8, i64, i64),
    /// Call one of the module's extern helpers — `ext_b` with a result,
    /// `ext_a` without. Exercises the interned callee-symbol path: the
    /// builder interns the name to a `Symbol` handle, the printer resolves
    /// it back through the module string table, and the parser re-interns
    /// it, so the round trip must be handle-for-handle identical.
    Call {
        ext_b: bool,
    },
    TxRegion(Vec<OpInner>),
    EpochRegion(Vec<OpInner>),
}

#[derive(Debug, Clone)]
enum OpInner {
    Store { field: u8, val: i64 },
    Flush { field: Option<u8> },
    Fence,
}

/// Constants: any `i64`, with both extremes drawn explicitly, since the
/// printer writes `i64::MIN` as a `-` and a magnitude past `i64::MAX`.
fn constant() -> impl Strategy<Value = i64> {
    prop_oneof![Just(i64::MIN), Just(i64::MAX), any::<i64>()]
}

fn inner_strategy() -> impl Strategy<Value = OpInner> {
    prop_oneof![
        (0u8..3, constant()).prop_map(|(field, val)| OpInner::Store { field, val }),
        proptest::option::of(0u8..3).prop_map(|field| OpInner::Flush { field }),
        Just(OpInner::Fence),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..3, constant()).prop_map(|(field, val)| Op::Store { field, val }),
        (3u8..4, 0u8..4, constant()).prop_map(|(field, idx, val)| Op::StoreIndexed {
            field,
            idx,
            val
        }),
        (0u8..3).prop_map(|field| Op::Load { field }),
        proptest::option::of(0u8..3).prop_map(|field| Op::Flush { field }),
        Just(Op::Fence),
        proptest::option::of(0u8..3).prop_map(|field| Op::Persist { field }),
        (0u8..14, constant(), constant()).prop_map(|(op, a, b)| Op::Bin(op, a, b)),
        any::<bool>().prop_map(|ext_b| Op::Call { ext_b }),
        proptest::collection::vec(inner_strategy(), 0..4).prop_map(Op::TxRegion),
        proptest::collection::vec(inner_strategy(), 0..4).prop_map(Op::EpochRegion),
    ]
}

/// Build a module from the op recipe. The generated struct has three scalar
/// fields (indices 0..3) and one 4-element array field (index 3).
fn build_module(ops: &[Op], with_branch: bool) -> Module {
    let mut mb = ModuleBuilder::new("gen", "gen.c");
    let s = mb.add_struct(
        "obj",
        vec![("a", Ty::I64), ("b", Ty::I64), ("c", Ty::I64), ("arr", Ty::Array(4))],
    );
    mb.extern_fn("ext_a", vec![("p", Ty::Ptr(s))], None, vec![]);
    mb.extern_fn("ext_b", vec![("p", Ty::Ptr(s))], Some(Ty::I64), vec![]);
    let mut fb = mb.function("f", vec![("q", Ty::Ptr(s))], Some(Ty::I64));
    let p = fb.palloc(s);
    let place = |field: Option<u8>| match field {
        None => Place::local(p),
        Some(fi) => Place::field(p, fi as u32),
    };
    for op in ops {
        match op {
            Op::Store { field, val } => {
                fb.store(Place::field(p, *field as u32), Operand::Const(*val))
            }
            Op::StoreIndexed { field, idx, val } => fb.store(
                Place::indexed(p, *field as u32, Operand::Const(*idx as i64)),
                Operand::Const(*val),
            ),
            Op::Load { field } => {
                fb.load(Place::field(p, *field as u32), Ty::I64);
            }
            Op::Flush { field } => fb.flush(place(*field)),
            Op::Fence => fb.fence(),
            Op::Persist { field } => fb.persist(place(*field)),
            Op::Bin(op, a, b) => {
                fb.bin(
                    BinOp::ALL[*op as usize % BinOp::ALL.len()],
                    Operand::Const(*a),
                    Operand::Const(*b),
                );
            }
            Op::Call { ext_b } => {
                if *ext_b {
                    fb.call("ext_b", vec![Operand::Local(p)], Ty::I64);
                } else {
                    fb.call_void("ext_a", vec![Operand::Local(p)]);
                }
            }
            Op::TxRegion(inner) => {
                fb.tx_begin();
                fb.tx_add(Place::local(p));
                for i in inner {
                    emit_inner(&mut fb, p, i);
                }
                fb.tx_commit();
            }
            Op::EpochRegion(inner) => {
                fb.epoch_begin();
                for i in inner {
                    emit_inner(&mut fb, p, i);
                }
                fb.epoch_end();
            }
        }
    }
    if with_branch {
        let done = fb.new_block("done");
        let alt = fb.new_block("alt");
        let x = fb.load(Place::field(p, 0), Ty::I64);
        fb.br(Operand::Local(x), done, alt);
        fb.switch_to(alt);
        fb.persist(Place::local(p));
        fb.jmp(done);
        fb.switch_to(done);
        fb.ret(Some(Operand::Const(0)));
    } else {
        fb.ret(Some(Operand::Const(0)));
    }
    fb.finish();
    mb.finish()
}

fn emit_inner(fb: &mut deepmc_pir::FunctionBuilder<'_>, p: deepmc_pir::LocalId, i: &OpInner) {
    match i {
        OpInner::Store { field, val } => {
            fb.store(Place::field(p, *field as u32), Operand::Const(*val))
        }
        OpInner::Flush { field } => match field {
            None => fb.flush(Place::local(p)),
            Some(fi) => fb.flush(Place::field(p, *fi as u32)),
        },
        OpInner::Fence => fb.fence(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn generated_modules_verify(ops in proptest::collection::vec(op_strategy(), 0..24), branch in any::<bool>()) {
        let m = build_module(&ops, branch);
        verify_module(&m).expect("generated module must verify");
    }

    #[test]
    fn print_parse_roundtrip(ops in proptest::collection::vec(op_strategy(), 0..24), branch in any::<bool>()) {
        let m = build_module(&ops, branch);
        let text = print(&m);
        let m2 = parse(&text).expect("printed module must parse");
        prop_assert_eq!(&m, &m2);
        // Idempotence: printing the reparsed module gives identical text.
        prop_assert_eq!(text, print(&m2));
    }

    #[test]
    fn parser_never_panics_on_random_text(s in "\\PC{0,200}") {
        let _ = parse(&s);
    }

    #[test]
    fn parser_never_panics_on_structured_garbage(
        words in proptest::collection::vec(
            prop_oneof![
                Just("module".to_string()), Just("fn".to_string()), Just("struct".to_string()),
                Just("store".to_string()), Just("%x".to_string()), Just("{".to_string()),
                Just("}".to_string()), Just("(".to_string()), Just(")".to_string()),
                Just(":".to_string()), Just(",".to_string()), Just("ret".to_string()),
                Just("entry".to_string()), Just("1".to_string()), Just("i64".to_string()),
            ],
            0..40,
        )
    ) {
        let _ = parse(&words.join(" "));
    }
}
