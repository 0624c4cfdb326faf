//! Golden diagnostics of the PIR front end.
//!
//! One bad input per reachable error site of the parser (lexer, recursive
//! descent and name resolution) and of the verifier, plus inputs that must
//! keep parsing: non-ASCII identifiers, U+00A0 and CR whitespace, comments
//! and `loc` directives. Each outcome is written as `deepmc check` prints
//! it, `FILE: parse error at line N: msg` or `FILE: verify error in `f`
//! (line N): msg`; an accepted input prints `FILE: ok`, then its printed
//! module and one line of local types per function (which pins the struct
//! ids the printed text leaves implicit). The rendering of every case is
//! compared with `tests/golden/diagnostics.txt`, so no message, line
//! number or precedence between two errors can drift without this test
//! failing.
//!
//! The verifier checks that the parser's own resolution already rules out
//! (unknown locals, structs, blocks or symbols, and type mismatches of a
//! fresh definition) cannot be reached from text and have no case.
//!
//! Regenerate with `UPDATE_DIAGNOSTICS_GOLDEN=1 cargo test -p deepmc-pir
//! --test diagnostics` after an intentional diagnostic change.

use deepmc_pir::{parse, print, verify::verify_module};
use std::fmt::Write;
use std::path::PathBuf;

/// A module header with one struct, shared by many cases below: a body
/// given to `s!` starts on line 3.
macro_rules! s {
    ($body:literal) => {
        concat!("module m\nstruct s { a: i64, next: ptr s, arr: [i64; 4] }\n", $body)
    };
}

/// `(file name without `.pir`, source)`.
const CASES: &[(&str, &str)] = &[
    // --- lexer ---------------------------------------------------------
    ("lex_stray_slash", "module m\n/ not a comment\n"),
    ("lex_percent_without_name", "module m\nfn f() {\nentry:\n  % = mov 1\n  ret\n}\n"),
    ("lex_unterminated_string_at_newline", "module m\nfile \"m.c\n"),
    ("lex_unterminated_string_at_eof", "module m\nfile \"m.c"),
    (
        "lex_integer_overflow",
        "module m\nfn f() {\nentry:\n  %x = mov 9223372036854775808\n  ret\n}\n",
    ),
    ("lex_unexpected_character", "module m\nfn f() {\nentry:\n  %x = mov 1 + 2\n  ret\n}\n"),
    ("lex_unexpected_non_ascii", "module m\nfn f() {\nentry:\n  %x = mov 1 €\n  ret\n}\n"),
    ("lex_non_alphabetic_start", "module m\nfn f() {\nentry:\n  ٣x\n  ret\n}\n"),
    // The whole text is lexed before parsing starts, so a lexical error
    // beats a syntax error on an earlier line.
    ("lex_error_beats_earlier_parse_error", "module m\nbogus\n\n/\n"),
    // --- token expectations ---------------------------------------------
    ("expect_punct", "module m\nfn f {\nentry:\n  ret\n}\n"),
    ("expect_ident_found_int", "module 42\n"),
    // At the end of input the line is that of the last real token.
    ("expect_ident_at_eof", "module m\nfn\n\n\n"),
    ("empty_text", ""),
    ("expect_module_keyword", "fn f() {\nentry:\n  ret\n}\n"),
    ("expect_fn_after_extern", "module m\nextern struct s {}\n"),
    // --- recursive descent ----------------------------------------------
    // The line is that of the token after the one that failed.
    ("array_length_not_an_integer", "module m\nstruct s { a: [i64;\nx\n] }\n"),
    ("unknown_type", "module m\nstruct s { a: u8 }\n"),
    ("minus_without_integer", "module m\nfn f() {\nentry:\n  %x = mov - y\n  ret\n}\n"),
    ("expected_operand", "module m\nfn f() {\nentry:\n  %x = mov ,\n  ret\n}\n"),
    ("expected_place", "module m\nfn f() {\nentry:\n  store 5, 1\n  ret\n}\n"),
    ("loc_without_number", "module m\nfn f() {\nentry:\n  loc x\n  ret\n}\n"),
    ("loc_at_eof", "module m\nfn f() {\nentry:\n  loc"),
    ("unknown_instruction", "module m\nfn f() {\nentry:\n  %x = frob 1\n  ret\n}\n"),
    ("unknown_statement", "module m\nfn f() {\nentry:\n  frob\n  ret\n}\n"),
    ("expected_statement", "module m\nfn f() {\nentry:\n  = 1\n  ret\n}\n"),
    ("block_ends_without_terminator", "module m\nfn f() {\nentry:\n  fence\n}\n"),
    ("label_before_terminator", "module m\nfn f() {\nentry:\n  fence\nnext:\n  ret\n}\n"),
    ("unknown_attribute", "module m\nextern fn f() attrs(hot)\n"),
    ("attribute_list_not_closed", "module m\nextern fn f() attrs(tx_context tx_context)\n"),
    ("param_without_percent", "module m\nfn f(x: i64) {\nentry:\n  ret\n}\n"),
    ("function_without_blocks", "module m\nfn f() {\n}\n"),
    ("file_without_string", "module m\nfile m.c\n"),
    ("unexpected_top_level_item", "module m\nlet x\n"),
    ("extern_with_body", "module m\nextern fn f() {\nentry:\n  ret\n}\n"),
    ("call_without_paren", "module m\nfn f() {\nentry:\n  call g\n  ret\n}\n"),
    ("br_without_comma", "module m\nfn f(%c: i64) {\nentry:\n  br %c a, b\na:\n  ret\nb:\n  ret\n}\n"),
    ("struct_field_without_comma", "module m\nstruct s { a: i64 b: i64 }\n"),
    // --- name resolution --------------------------------------------------
    // Struct fields are resolved without a line.
    ("unknown_struct_in_field", "module m\nstruct s { next: ptr t }\n"),
    ("unknown_struct_in_return_type", "module m\nfn f() -> ptr t {\nentry:\n  ret null\n}\n"),
    ("unknown_struct_in_param", "module m\nfn f(%p: ptr t) {\nentry:\n  ret\n}\n"),
    (
        "unknown_struct_in_call_annotation",
        "module m\nfn f() {\nentry:\n  %p = call g() : ptr t\n  ret\n}\n",
    ),
    ("duplicate_function", "module m\nfn f() {\nentry:\n  ret\n}\nfn f() {\nentry:\n  ret\n}\n"),
    ("array_parameter", "module m\nfn f(%a: [i64; 2]) {\nentry:\n  ret\n}\n"),
    ("duplicate_parameter", "module m\nfn f(%a: i64, %a: i64) {\nentry:\n  ret\n}\n"),
    ("duplicate_block_label", "module m\nfn f() {\nentry:\n  jmp entry\nentry:\n  ret\n}\n"),
    ("local_redefined_with_other_type", s!("fn f() {\nentry:\n  %x = mov 1\n  %x = palloc s\n  ret\n}\n")),
    ("undefined_local", s!("fn f() {\nentry:\n  flush %nope\n  ret\n}\n")),
    ("field_of_non_pointer", s!("fn f(%x: i64) {\nentry:\n  flush %x.a\n  ret\n}\n")),
    ("unknown_field", s!("fn f(%p: ptr s) {\nentry:\n  store %p.b, 1\n  ret\n}\n")),
    ("index_into_scalar_field", s!("fn f(%p: ptr s) {\nentry:\n  store %p.a[2], 1\n  ret\n}\n")),
    ("palloc_unknown_struct", s!("fn f() {\nentry:\n  %p = palloc t\n  ret\n}\n")),
    ("valloc_unknown_struct", s!("fn f() {\nentry:\n  %p = valloc t\n  ret\n}\n")),
    ("store_to_local", s!("fn f(%x: i64) {\nentry:\n  store %x, 1\n  ret\n}\n")),
    ("load_from_local", s!("fn f(%x: i64) {\nentry:\n  %y = load %x\n  ret\n}\n")),
    ("mov_null", s!("fn f() {\nentry:\n  %x = mov null\n  ret\n}\n")),
    (
        "result_of_void_callee",
        s!("fn g() {\nentry:\n  ret\n}\nfn f() {\nentry:\n  %x = call g()\n  ret\n}\n"),
    ),
    ("br_to_unknown_then", s!("fn f(%c: i64) {\nentry:\n  br %c, a, b\nb:\n  ret\n}\n")),
    ("br_to_unknown_else", s!("fn f(%c: i64) {\nentry:\n  br %c, a, b\na:\n  ret\n}\n")),
    ("jmp_to_unknown_block", s!("fn f() {\nentry:\n  jmp nowhere\n}\n")),
    // Instruction errors report the `loc` line, a place's base and every
    // terminator their line in the text.
    (
        "value_error_reports_loc_line",
        s!("fn f(%p: ptr s) {\nentry:\n  loc 201\n  store %p.a, %nope\n  ret\n}\n"),
    ),
    (
        "place_error_reports_text_line",
        s!("fn f(%p: ptr s) {\nentry:\n  loc 201\n  store %nope.a, 1\n  ret\n}\n"),
    ),
    ("terminator_error_reports_text_line", s!("fn f() -> i64 {\nentry:\n  loc 500\n  ret %nope\n}\n")),
    // A syntax error anywhere beats a resolution error earlier in the text.
    (
        "parse_error_beats_earlier_resolve_error",
        s!("fn f() {\nentry:\n  flush %nope\n  ret\n}\nfn g() {\nentry:\n  fence\n}\n"),
    ),
    // --- verifier ---------------------------------------------------------
    ("store_to_whole_array", s!("fn f(%p: ptr s) {\nentry:\n  store %p.arr, 1\n  ret\n}\n")),
    ("store_null_into_scalar", s!("fn f(%p: ptr s) {\nentry:\n  store %p.a, null\n  ret\n}\n")),
    ("store_pointer_of_other_struct", s!("struct t { a: i64 }\nfn f(%p: ptr s, %q: ptr t) {\nentry:\n  store %p.next, %q\n  ret\n}\n")),
    ("load_whole_array", s!("fn f(%p: ptr s) {\nentry:\n  %x = load %p.arr\n  ret\n}\n")),
    ("flush_non_pointer", s!("fn f(%x: i64) {\nentry:\n  flush %x\n  ret\n}\n")),
    (
        "call_arity",
        s!("fn g(%x: i64) {\nentry:\n  ret\n}\nfn f() {\nentry:\n  call g(1, 2)\n  ret\n}\n"),
    ),
    (
        "call_argument_type",
        s!("fn g(%x: i64) {\nentry:\n  ret\n}\nfn f() {\nentry:\n  call g(null)\n  ret\n}\n"),
    ),
    (
        "annotated_result_of_void_callee",
        s!("fn g() {\nentry:\n  ret\n}\nfn f() {\nentry:\n  %x = call g() : i64\n  ret\n}\n"),
    ),
    (
        "call_result_type",
        s!("fn g() -> i64 {\nentry:\n  ret 1\n}\nfn f() {\nentry:\n  %x = call g() : ptr s\n  ret\n}\n"),
    ),
    ("return_value_type", s!("fn f(%p: ptr s) -> i64 {\nentry:\n  ret %p\n}\n")),
    ("missing_return_value", s!("fn f() -> i64 {\nentry:\n  ret\n}\n")),
    ("void_function_returns_value", s!("fn f() {\nentry:\n  ret 1\n}\n")),
    ("tx_commit_without_begin", s!("fn f() {\nentry:\n  tx_commit\n  ret\n}\n")),
    ("tx_abort_without_begin", s!("fn f() {\nentry:\n  loc 40\n  tx_abort\n  ret\n}\n")),
    ("epoch_end_without_begin", s!("fn f() {\nentry:\n  epoch_end\n  ret\n}\n")),
    ("strand_end_without_begin", s!("fn f() {\nentry:\n  strand_end\n  ret\n}\n")),
    ("return_inside_open_region", s!("fn f() {\nentry:\n  epoch_begin\n  ret\n}\n")),
    (
        "diamond_with_unbalanced_arm",
        s!("fn f(%c: i64) {\nentry:\n  br %c, a, b\na:\n  tx_begin\n  jmp b\nb:\n  ret\n}\n"),
    ),
    (
        "verify_error_in_second_function",
        s!("fn g() {\nentry:\n  ret\n}\nfn f() {\nentry:\n  strand_end\n  ret\n}\n"),
    ),
    // --- inputs that must keep parsing ------------------------------------
    (
        "ok_non_ascii_identifiers",
        "module café\nfile \"café.c\"\nstruct nœud { été: i64, ünder_2: i64 }\n\
         fn créer() {\nentry:\n  %p = palloc nœud\n  %ç9 = mov 1\n  store %p.été, %ç9\n  \
         persist %p.été\n  ret\n}\n",
    ),
    (
        "ok_nbsp_and_cr_whitespace",
        "module\u{a0}m\r\nfn\u{a0}f()\u{a0}{\r\nentry:\r\n\u{a0}\tfence\u{a0}\r\n  ret\r\n}\r\n",
    ),
    (
        "ok_comments",
        "// leading\nmodule m // the module\nfn f() { // fn\nentry: // label\n  fence // x\n  \
         ret // done\n}\n// trailing",
    ),
    (
        "ok_loc_directives",
        s!("fn f(%c: i64) {\nentry:\n  loc 201\n  fence\n  fence\n  br %c, a, b\na:\n  loc 7\n  \
         jmp b\nb:\n  ret\n}\nfn g() {\nentry:\n  fence\n  ret\n}\n"),
    ),
    (
        "ok_operands_and_calls",
        s!("fn f(%p: ptr s, %i: i64) -> i64 attrs(tx_context, model_epoch) {\nentry:\n  \
         %1 = mov - 5\n  %n = add %1, -9223372036854775807\n  store %p.arr[%i], 9223372036854775807\n  \
         %q = load %p.next\n  memset_persist %q, 0\n  %r = call ext(%q, null, 3)\n  \
         %t = call ext2() : ptr s\n  call g(%t)\n  %v = call h()\n  ret %v\n}\n\
         fn g(%x: ptr s) {\nentry:\n  ret\n}\nfn h() -> i64 {\nentry:\n  ret -1\n}\n\
         extern fn w(%p: ptr s) attrs(persist_wrapper)\n"),
    ),
    // Two structs with one name: types name the last, allocations the
    // first.
    (
        "ok_struct_name_declared_twice",
        s!("struct s { b: i64 }\nfn f(%q: ptr s) {\nentry:\n  %p = palloc s\n  store %q.b, 1\n  \
         ret\n}\n"),
    ),
    // --- integer limits ---------------------------------------------------
    // Array lengths and lines are u32; a constant is any i64.
    ("array_length_past_u32", "module m\nstruct s { arr: [i64; 4294967297] }\n"),
    ("loc_line_past_u32", "module m\nfn f() {\nentry:\n  loc 4294967300\n  ret\n}\n"),
    (
        "loc_count_past_u32",
        "module m\nfn f() {\nentry:\n  loc 4294967295\n  fence\n  fence\n  ret\n}\n",
    ),
    ("ok_loc_at_u32_max", "module m\nfn f() {\nentry:\n  fence\n  loc 4294967295\n  ret\n}\n"),
    (
        "ok_i64_extremes",
        "module m\nfn f() -> i64 {\nentry:\n  %a = mov -9223372036854775808\n  \
         %b = mov 9223372036854775807\n  %c = sub %a, -9223372036854775808\n  ret %b\n}\n",
    ),
    (
        "integer_overflow_below_i64_min",
        "module m\nfn f() {\nentry:\n  %a = mov -9223372036854775809\n  ret\n}\n",
    ),
];

/// Render one case's outcome as the CLI prints it.
fn render(name: &str, text: &str) -> String {
    let file = format!("{name}.pir");
    let module = match parse(text) {
        Ok(m) => m,
        Err(e) => return format!("{file}: {e}\n"),
    };
    if let Err(e) = verify_module(&module) {
        return format!("{file}: {e}\n");
    }
    let mut out = format!("{file}: ok\n");
    for line in print(&module).lines() {
        let _ = writeln!(out, "    {line}");
    }
    for f in &module.functions {
        let locals: Vec<String> =
            f.locals.iter().map(|l| format!("%{}: {}", l.name, l.ty)).collect();
        let _ = writeln!(out, "    ; {}({})", f.name, locals.join(", "));
    }
    out.lines().map(|l| format!("{}\n", l.trim_end())).collect()
}

#[test]
fn diagnostics_match_golden() {
    let rendered: String = CASES.iter().map(|(name, text)| render(name, text)).collect();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/diagnostics.txt");
    if std::env::var_os("UPDATE_DIAGNOSTICS_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); regenerate with UPDATE_DIAGNOSTICS_GOLDEN=1",
            path.display()
        )
    });
    let (got, want): (Vec<&str>, Vec<&str>) =
        (rendered.lines().collect(), golden.lines().collect());
    for (i, (got, want)) in got.iter().zip(&want).enumerate() {
        assert_eq!(got, want, "line {} differs from the golden", i + 1);
    }
    assert_eq!(got.len(), want.len(), "the golden has another number of lines");
    assert_eq!(rendered, golden, "line endings differ from the golden");
}

#[test]
fn case_names_are_unique() {
    let mut names: Vec<&str> = CASES.iter().map(|(n, _)| *n).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), CASES.len());
}
