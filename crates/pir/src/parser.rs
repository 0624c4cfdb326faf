//! Textual PIR parser: a byte-scanning lexer + recursive descent.
//!
//! See the crate docs for the surface syntax. Noteworthy pieces:
//!
//! * `//` starts a line comment.
//! * `loc N` sets the source line reported for the *following* instructions
//!   (auto-incrementing), so corpus programs can cite the exact line numbers
//!   of the C bugs they model (paper Tables 3 and 8). Without a `loc`
//!   directive an instruction reports its own line in the `.pir` text.
//! * `extern fn` declares a body-less function (an annotated persistent
//!   wrapper or out-of-module callee).
//!
//! Parsing runs in three passes over borrowed text. The lexer scans the
//! bytes into `Copy` tokens whose names are slices of the source, so a
//! lexical error anywhere beats a syntax error earlier in the text.
//! Recursive descent builds a raw AST that borrows those slices, so every
//! syntax error beats a name-resolution error. The resolver then lowers
//! the raw AST to a [`Module`], allocating only the names the module keeps.

use crate::inst::{BinOp, Inst, Operand, Place, Terminator};
use crate::intern::SymbolTable;
use crate::loc::SourceLoc;
use crate::module::{BlockId, FuncAttr, Function, LocalDecl, LocalId, Module, Spanned};
use crate::types::{FieldDef, StructDef, StructId, Ty};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;

/// A parse error with a line number and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub line: u32,
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseError {}

type PResult<T> = Result<T, ParseError>;

fn fail<T>(line: u32, msg: impl Into<String>) -> PResult<T> {
    Err(ParseError { line, msg: msg.into() })
}

/// A token; names and strings borrow the source text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tok<'a> {
    Ident(&'a str),
    Local(&'a str),
    /// A literal's magnitude: at most `i64::MAX`, or 2^63 right after `-`.
    Int(u64),
    Str(&'a str),
    LBrace,
    RBrace,
    LParen,
    RParen,
    LBracket,
    RBracket,
    Comma,
    Colon,
    Semi,
    Dot,
    Assign,
    Arrow,
    Minus,
    Eof,
}

impl fmt::Display for Tok<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "`{s}`"),
            Tok::Local(s) => write!(f, "`%{s}`"),
            Tok::Int(n) => write!(f, "`{n}`"),
            Tok::Str(s) => write!(f, "\"{s}\""),
            Tok::LBrace => write!(f, "`{{`"),
            Tok::RBrace => write!(f, "`}}`"),
            Tok::LParen => write!(f, "`(`"),
            Tok::RParen => write!(f, "`)`"),
            Tok::LBracket => write!(f, "`[`"),
            Tok::RBracket => write!(f, "`]`"),
            Tok::Comma => write!(f, "`,`"),
            Tok::Colon => write!(f, "`:`"),
            Tok::Semi => write!(f, "`;`"),
            Tok::Dot => write!(f, "`.`"),
            Tok::Assign => write!(f, "`=`"),
            Tok::Arrow => write!(f, "`->`"),
            Tok::Minus => write!(f, "`-`"),
            Tok::Eof => write!(f, "end of input"),
        }
    }
}

/// The end of the name continuing at byte `i`: `_` and alphanumeric chars.
fn name_end(src: &str, mut i: usize) -> usize {
    let bytes = src.as_bytes();
    while let Some(&b) = bytes.get(i) {
        if b.is_ascii_alphanumeric() || b == b'_' {
            i += 1;
        } else if b.is_ascii() {
            break;
        } else {
            match src[i..].chars().next() {
                Some(c) if c.is_alphanumeric() => i += c.len_utf8(),
                _ => break,
            }
        }
    }
    i
}

/// Scan the whole text into tokens tagged with their lines, ending in `Eof`.
fn lex(src: &str) -> PResult<Vec<(Tok<'_>, u32)>> {
    let bytes = src.as_bytes();
    // PIR text averages about 3.5 bytes per token.
    let mut toks = Vec::with_capacity(src.len() / 3);
    let mut line = 1;
    let mut i = 0;
    while let Some(&b) = bytes.get(i) {
        let start = i;
        i += 1;
        let tok = match b {
            b'\n' => {
                line += 1;
                continue;
            }
            b' ' | b'\t' | b'\r' | b'\x0b' | b'\x0c' => continue,
            b'/' if bytes.get(i) == Some(&b'/') => {
                i = bytes[i..].iter().position(|&c| c == b'\n').map_or(bytes.len(), |n| i + n);
                continue;
            }
            b'/' => return fail(line, "stray `/` (use `//` comments)"),
            b'{' => Tok::LBrace,
            b'}' => Tok::RBrace,
            b'(' => Tok::LParen,
            b')' => Tok::RParen,
            b'[' => Tok::LBracket,
            b']' => Tok::RBracket,
            b',' => Tok::Comma,
            b':' => Tok::Colon,
            b';' => Tok::Semi,
            b'.' => Tok::Dot,
            b'=' => Tok::Assign,
            b'-' if bytes.get(i) == Some(&b'>') => {
                i += 1;
                Tok::Arrow
            }
            b'-' => Tok::Minus,
            b'%' => {
                i = name_end(src, i);
                if i == start + 1 {
                    return fail(line, "`%` must be followed by a name");
                }
                Tok::Local(&src[start + 1..i])
            }
            b'"' => match bytes[i..].iter().position(|&c| c == b'"' || c == b'\n') {
                Some(n) if bytes[i + n] == b'"' => {
                    i += n + 1;
                    Tok::Str(&src[start + 1..i - 1])
                }
                _ => return fail(line, "unterminated string"),
            },
            b'0'..=b'9' => {
                // Only `i64::MIN` may go past `i64::MAX`, and only negated.
                let max = match toks.last() {
                    Some((Tok::Minus, _)) => i64::MIN.unsigned_abs(),
                    _ => i64::MAX.unsigned_abs(),
                };
                let mut n = u64::from(b - b'0');
                while let Some(d @ b'0'..=b'9') = bytes.get(i).copied() {
                    n = n
                        .checked_mul(10)
                        .and_then(|n| n.checked_add(u64::from(d - b'0')))
                        .filter(|&n| n <= max)
                        .ok_or_else(|| ParseError { line, msg: "integer overflow".into() })?;
                    i += 1;
                }
                Tok::Int(n)
            }
            b'_' | b'a'..=b'z' | b'A'..=b'Z' => {
                i = name_end(src, i);
                Tok::Ident(&src[start..i])
            }
            _ => {
                // Past ASCII, whitespace and letters are Unicode's.
                let c = src[start..].chars().next().expect("a char starts at every scan position");
                i = start + c.len_utf8();
                if c.is_whitespace() {
                    continue;
                }
                if !c.is_alphabetic() {
                    return fail(line, format!("unexpected character `{c}`"));
                }
                i = name_end(src, i);
                Tok::Ident(&src[start..i])
            }
        };
        toks.push((tok, line));
    }
    toks.push((Tok::Eof, line));
    Ok(toks)
}

/// Unresolved place: names instead of ids.
struct RawPlace<'a> {
    base: &'a str,
    field: Option<&'a str>,
    index: Option<RawOperand<'a>>,
    line: u32,
}

#[derive(Clone, Copy)]
enum RawOperand<'a> {
    Const(i64),
    Local(&'a str),
    Null,
}

/// An unresolved instruction; `Plain` holds one without operands, final as
/// parsed.
enum RawInst<'a> {
    Plain(Inst),
    PAlloc { dst: &'a str, ty: &'a str },
    VAlloc { dst: &'a str, ty: &'a str },
    Store { place: RawPlace<'a>, value: RawOperand<'a> },
    Load { dst: &'a str, place: RawPlace<'a> },
    Bin { dst: &'a str, op: BinOp, lhs: RawOperand<'a>, rhs: RawOperand<'a> },
    Mov { dst: &'a str, src: RawOperand<'a> },
    Flush(RawPlace<'a>),
    Persist(RawPlace<'a>),
    MemSetPersist { place: RawPlace<'a>, value: RawOperand<'a> },
    TxAdd(RawPlace<'a>),
    Call { dst: Option<&'a str>, func: &'a str, args: Vec<RawOperand<'a>>, ty: Option<RawTy<'a>> },
}

enum RawTerm<'a> {
    Ret(Option<RawOperand<'a>>),
    Br { cond: RawOperand<'a>, then_bb: &'a str, else_bb: &'a str },
    Jmp(&'a str),
}

#[derive(Clone, Copy)]
enum RawTy<'a> {
    I64,
    Ptr(&'a str),
    Array(u32),
}

struct RawBlock<'a> {
    label: &'a str,
    /// How many of the function's next raw instructions are this block's.
    len: usize,
    term: RawTerm<'a>,
    term_loc: SourceLoc,
    /// The terminator's line in the text, which its errors report.
    term_line: u32,
}

struct RawFunction<'a> {
    name: &'a str,
    params: Vec<(&'a str, RawTy<'a>)>,
    ret_ty: Option<RawTy<'a>>,
    attrs: Vec<FuncAttr>,
    /// The instructions of every block, in block order.
    insts: Vec<(RawInst<'a>, SourceLoc)>,
    /// Empty exactly for an `extern fn`.
    blocks: Vec<RawBlock<'a>>,
    line: u32,
}

struct RawStruct<'a> {
    name: &'a str,
    fields: Vec<(&'a str, RawTy<'a>)>,
}

/// Recursive descent over the token list; `pos` never passes the `Eof`.
struct Parser<'a> {
    toks: Vec<(Tok<'a>, u32)>,
    pos: usize,
    /// The line `loc N` set for the next instruction (auto-incrementing).
    pending_loc: Option<u64>,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Tok<'a> {
        self.toks[self.pos].0
    }

    fn peek2(&self) -> Tok<'a> {
        self.toks[(self.pos + 1).min(self.toks.len() - 1)].0
    }

    fn line(&self) -> u32 {
        self.toks[self.pos].1
    }

    fn next(&mut self) -> Tok<'a> {
        let t = self.peek();
        if self.pos < self.toks.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, msg: impl Into<String>) -> PResult<T> {
        fail(self.line(), msg)
    }

    fn eat(&mut self, t: Tok<'_>) -> bool {
        let hit = self.peek() == t;
        if hit {
            self.next();
        }
        hit
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        self.eat(Tok::Ident(kw))
    }

    fn expect(&mut self, t: Tok<'_>) -> PResult<()> {
        if self.eat(t) {
            return Ok(());
        }
        let found = self.peek();
        self.err(format!("expected {t}, found {found}"))
    }

    fn expect_kw(&mut self, kw: &str) -> PResult<()> {
        if self.eat_kw(kw) {
            return Ok(());
        }
        let found = self.peek();
        self.err(format!("expected `{kw}`, found {found}"))
    }

    fn expect_ident(&mut self) -> PResult<&'a str> {
        match self.next() {
            Tok::Ident(s) => Ok(s),
            // The line of the token just read; at the end of input, `next`
            // stays put and this is the last real token's line.
            other => fail(
                self.toks[self.pos.saturating_sub(1)].1,
                format!("expected identifier, found {other}"),
            ),
        }
    }

    /// The location of an instruction on `line`: the pending `loc` line,
    /// which then counts on by one, or else `line` itself.
    fn inst_loc(&mut self, line: u32) -> PResult<SourceLoc> {
        let Some(n) = self.pending_loc else { return Ok(SourceLoc::new(line)) };
        self.pending_loc = Some(n + 1);
        match u32::try_from(n) {
            Ok(n) => Ok(SourceLoc::new(n)),
            Err(_) => fail(line, format!("line number {n} counted on from `loc` out of range")),
        }
    }

    fn parse_ty(&mut self) -> PResult<RawTy<'a>> {
        if self.eat(Tok::LBracket) {
            self.expect_kw("i64")?;
            self.expect(Tok::Semi)?;
            let Tok::Int(n) = self.next() else { return self.err("expected array length") };
            let Ok(n) = u32::try_from(n) else {
                return self.err(format!("array length {n} out of range"));
            };
            self.expect(Tok::RBracket)?;
            return Ok(RawTy::Array(n));
        }
        match self.expect_ident()? {
            "i64" => Ok(RawTy::I64),
            "ptr" => Ok(RawTy::Ptr(self.expect_ident()?)),
            other => self
                .err(format!("unknown type `{other}` (expected i64, ptr <struct>, or [i64; N])")),
        }
    }

    fn parse_operand(&mut self) -> PResult<RawOperand<'a>> {
        match self.peek() {
            Tok::Int(_) | Tok::Minus => {
                let negative = self.eat(Tok::Minus);
                let Tok::Int(n) = self.next() else {
                    return self.err("expected integer after `-`");
                };
                let value =
                    if negative { 0i64.checked_sub_unsigned(n) } else { i64::try_from(n).ok() };
                value
                    .map(RawOperand::Const)
                    .ok_or_else(|| ParseError { line: self.line(), msg: "integer overflow".into() })
            }
            Tok::Local(name) => {
                self.next();
                Ok(RawOperand::Local(name))
            }
            Tok::Ident("null") => {
                self.next();
                Ok(RawOperand::Null)
            }
            other => self.err(format!("expected operand, found {other}")),
        }
    }

    fn parse_place(&mut self) -> PResult<RawPlace<'a>> {
        let line = self.line();
        let base = match self.next() {
            Tok::Local(s) => s,
            other => return fail(line, format!("expected place, found {other}")),
        };
        let mut place = RawPlace { base, field: None, index: None, line };
        if self.eat(Tok::Dot) {
            place.field = Some(self.expect_ident()?);
            if self.eat(Tok::LBracket) {
                place.index = Some(self.parse_operand()?);
                self.expect(Tok::RBracket)?;
            }
        }
        Ok(place)
    }

    /// `place, operand`, as `store` and `memset_persist` take them.
    fn parse_place_value(&mut self) -> PResult<(RawPlace<'a>, RawOperand<'a>)> {
        let place = self.parse_place()?;
        self.expect(Tok::Comma)?;
        Ok((place, self.parse_operand()?))
    }

    fn parse_call_tail(&mut self, dst: Option<&'a str>) -> PResult<RawInst<'a>> {
        let func = self.expect_ident()?;
        self.expect(Tok::LParen)?;
        let mut args = Vec::new();
        if !self.eat(Tok::RParen) {
            loop {
                args.push(self.parse_operand()?);
                if self.eat(Tok::RParen) {
                    break;
                }
                self.expect(Tok::Comma)?;
            }
        }
        let ty = if self.eat(Tok::Colon) { Some(self.parse_ty()?) } else { None };
        Ok(RawInst::Call { dst, func, args, ty })
    }

    /// Parse one statement. Returns `Ok(None)` for directives that produce
    /// no instruction (`loc N`).
    fn parse_stmt(&mut self) -> PResult<Option<(RawInst<'a>, SourceLoc)>> {
        let line = self.line();
        let inst = match self.peek() {
            Tok::Ident("loc") => {
                self.next();
                let Tok::Int(n) = self.next() else {
                    return self.err("expected line number after `loc`");
                };
                if u32::try_from(n).is_err() {
                    return self.err(format!("line number {n} after `loc` out of range"));
                }
                self.pending_loc = Some(n);
                return Ok(None);
            }
            Tok::Local(dst) => {
                self.next();
                self.expect(Tok::Assign)?;
                match self.expect_ident()? {
                    "palloc" => RawInst::PAlloc { dst, ty: self.expect_ident()? },
                    "valloc" => RawInst::VAlloc { dst, ty: self.expect_ident()? },
                    "load" => RawInst::Load { dst, place: self.parse_place()? },
                    "mov" => RawInst::Mov { dst, src: self.parse_operand()? },
                    "call" => self.parse_call_tail(Some(dst))?,
                    other => match BinOp::ALL.into_iter().find(|op| op.mnemonic() == other) {
                        Some(op) => {
                            let lhs = self.parse_operand()?;
                            self.expect(Tok::Comma)?;
                            RawInst::Bin { dst, op, lhs, rhs: self.parse_operand()? }
                        }
                        None => return self.err(format!("unknown instruction `{other}`")),
                    },
                }
            }
            Tok::Ident(kw) => {
                self.next();
                match kw {
                    "store" => {
                        let (place, value) = self.parse_place_value()?;
                        RawInst::Store { place, value }
                    }
                    "memset_persist" => {
                        let (place, value) = self.parse_place_value()?;
                        RawInst::MemSetPersist { place, value }
                    }
                    "flush" => RawInst::Flush(self.parse_place()?),
                    "persist" => RawInst::Persist(self.parse_place()?),
                    "tx_add" => RawInst::TxAdd(self.parse_place()?),
                    "fence" => RawInst::Plain(Inst::Fence),
                    "tx_begin" => RawInst::Plain(Inst::TxBegin),
                    "tx_commit" => RawInst::Plain(Inst::TxCommit),
                    "tx_abort" => RawInst::Plain(Inst::TxAbort),
                    "epoch_begin" => RawInst::Plain(Inst::EpochBegin),
                    "epoch_end" => RawInst::Plain(Inst::EpochEnd),
                    "strand_begin" => RawInst::Plain(Inst::StrandBegin),
                    "strand_end" => RawInst::Plain(Inst::StrandEnd),
                    "call" => self.parse_call_tail(None)?,
                    other => return self.err(format!("unknown statement `{other}`")),
                }
            }
            other => return self.err(format!("expected statement, found {other}")),
        };
        Ok(Some((inst, self.inst_loc(line)?)))
    }

    /// Parse a block, appending its instructions to `insts`.
    fn parse_block(&mut self, insts: &mut Vec<(RawInst<'a>, SourceLoc)>) -> PResult<RawBlock<'a>> {
        let label = self.expect_ident()?;
        self.expect(Tok::Colon)?;
        let first = insts.len();
        loop {
            let line = self.line();
            let term = match (self.peek(), self.peek2()) {
                (Tok::Ident("ret"), _) => {
                    self.next();
                    // `ret` has no value if the next token starts a label or `}`.
                    let value = matches!(
                        self.peek(),
                        Tok::Int(_) | Tok::Minus | Tok::Local(_) | Tok::Ident("null")
                    );
                    RawTerm::Ret(if value { Some(self.parse_operand()?) } else { None })
                }
                (Tok::Ident("br"), _) => {
                    self.next();
                    let cond = self.parse_operand()?;
                    self.expect(Tok::Comma)?;
                    let then_bb = self.expect_ident()?;
                    self.expect(Tok::Comma)?;
                    RawTerm::Br { cond, then_bb, else_bb: self.expect_ident()? }
                }
                (Tok::Ident("jmp"), _) => {
                    self.next();
                    RawTerm::Jmp(self.expect_ident()?)
                }
                // A label (`ident :`) or `}` before a terminator is an error.
                (Tok::RBrace, _) | (Tok::Ident(_), Tok::Colon)
                    if self.peek() != Tok::Ident("loc") =>
                {
                    return self.err(format!("block `{label}` has no terminator (ret/br/jmp)"));
                }
                _ => {
                    insts.extend(self.parse_stmt()?);
                    continue;
                }
            };
            let term_loc = self.inst_loc(line)?;
            return Ok(RawBlock {
                label,
                len: insts.len() - first,
                term,
                term_loc,
                term_line: line,
            });
        }
    }

    fn parse_attrs(&mut self) -> PResult<Vec<FuncAttr>> {
        let mut attrs = Vec::new();
        if self.eat_kw("attrs") {
            self.expect(Tok::LParen)?;
            loop {
                attrs.push(match self.expect_ident()? {
                    "tx_context" => FuncAttr::TxContext,
                    "persist_wrapper" => FuncAttr::PersistWrapper,
                    "model_strict" => FuncAttr::ModelStrict,
                    "model_epoch" => FuncAttr::ModelEpoch,
                    "model_strand" => FuncAttr::ModelStrand,
                    other => return self.err(format!("unknown attribute `{other}`")),
                });
                if self.eat(Tok::RParen) {
                    break;
                }
                self.expect(Tok::Comma)?;
            }
        }
        Ok(attrs)
    }

    fn parse_function(&mut self, is_extern: bool) -> PResult<RawFunction<'a>> {
        let line = self.line();
        self.expect_kw("fn")?;
        let name = self.expect_ident()?;
        self.expect(Tok::LParen)?;
        let mut params = Vec::new();
        if !self.eat(Tok::RParen) {
            loop {
                let pname = match self.next() {
                    Tok::Local(s) => s,
                    other => return self.err(format!("expected `%param`, found {other}")),
                };
                self.expect(Tok::Colon)?;
                params.push((pname, self.parse_ty()?));
                if self.eat(Tok::RParen) {
                    break;
                }
                self.expect(Tok::Comma)?;
            }
        }
        let ret_ty = if self.eat(Tok::Arrow) { Some(self.parse_ty()?) } else { None };
        let attrs = self.parse_attrs()?;
        let (mut insts, mut blocks) = (Vec::new(), Vec::new());
        if !is_extern {
            self.pending_loc = None;
            self.expect(Tok::LBrace)?;
            while !self.eat(Tok::RBrace) {
                blocks.push(self.parse_block(&mut insts)?);
            }
            if blocks.is_empty() {
                return self.err(format!("function `{name}` has no blocks"));
            }
        }
        Ok(RawFunction { name, params, ret_ty, attrs, insts, blocks, line })
    }

    fn parse_struct(&mut self) -> PResult<RawStruct<'a>> {
        let name = self.expect_ident()?;
        self.expect(Tok::LBrace)?;
        let mut fields = Vec::new();
        while !self.eat(Tok::RBrace) {
            let fname = self.expect_ident()?;
            self.expect(Tok::Colon)?;
            fields.push((fname, self.parse_ty()?));
            if !self.eat(Tok::Comma) {
                self.expect(Tok::RBrace)?;
                break;
            }
        }
        Ok(RawStruct { name, fields })
    }
}

/// Parse a PIR module from text.
pub fn parse(src: &str) -> Result<Module, ParseError> {
    let mut p = Parser { toks: lex(src)?, pos: 0, pending_loc: None };
    p.expect_kw("module")?;
    let name = p.expect_ident()?;
    let file = if p.eat_kw("file") {
        match p.next() {
            Tok::Str(s) => s.to_string(),
            other => return p.err(format!("expected file string, found {other}")),
        }
    } else {
        format!("{name}.c")
    };
    let (mut structs, mut funcs) = (Vec::new(), Vec::new());
    loop {
        match p.peek() {
            Tok::Eof => break,
            Tok::Ident("struct") => {
                p.next();
                structs.push(p.parse_struct()?);
            }
            Tok::Ident("fn") => funcs.push(p.parse_function(false)?),
            Tok::Ident("extern") => {
                p.next();
                funcs.push(p.parse_function(true)?);
            }
            other => return p.err(format!("expected `struct`, `fn`, or `extern`, found {other}")),
        }
    }
    Resolver::default().module(name, file, structs, funcs)
}

/// Name resolution + local type inference, producing the final [`Module`].
/// The maps borrow their keys from the source text.
#[derive(Default)]
struct Resolver<'a> {
    structs: Vec<StructDef>,
    /// Struct name → its first and last definition: allocations name the
    /// first struct of a name, types the last.
    struct_ids: HashMap<&'a str, (StructId, StructId)>,
    /// Function name → return type, so calls can be typed.
    func_ret: HashMap<&'a str, Option<Ty>>,
    symbols: SymbolTable,
    /// The current function's locals and labels.
    locals: Vec<LocalDecl>,
    local_ids: HashMap<&'a str, LocalId>,
    block_ids: HashMap<&'a str, BlockId>,
}

impl<'a> Resolver<'a> {
    fn module(
        mut self,
        name: &str,
        file: String,
        raw_structs: Vec<RawStruct<'a>>,
        raw_funcs: Vec<RawFunction<'a>>,
    ) -> PResult<Module> {
        for (i, s) in raw_structs.iter().enumerate() {
            let id = StructId(i as u32);
            self.struct_ids.entry(s.name).and_modify(|ids| ids.1 = id).or_insert((id, id));
        }
        for s in &raw_structs {
            let mut fields = Vec::with_capacity(s.fields.len());
            for &(fname, ty) in &s.fields {
                fields.push(FieldDef { name: fname.to_string(), ty: self.ty(ty, 0)? });
            }
            self.structs.push(StructDef { name: s.name.to_string(), fields });
        }
        let mut ret_tys = Vec::with_capacity(raw_funcs.len());
        for f in &raw_funcs {
            let ret = f.ret_ty.map(|t| self.ty(t, f.line)).transpose()?;
            if self.func_ret.insert(f.name, ret).is_some() {
                return fail(f.line, format!("duplicate function `{}`", f.name));
            }
            ret_tys.push(ret);
        }
        let mut functions = Vec::with_capacity(raw_funcs.len());
        for (f, ret_ty) in raw_funcs.into_iter().zip(ret_tys) {
            functions.push(self.function(f, ret_ty)?);
        }
        let mut module = Module::new(name, file);
        module.structs = self.structs;
        module.functions = functions;
        module.symbols = self.symbols;
        module.rebuild_index();
        Ok(module)
    }

    fn function(&mut self, f: RawFunction<'a>, ret_ty: Option<Ty>) -> PResult<Function> {
        self.local_ids.clear();
        for &(pname, pty) in &f.params {
            let ty = self.ty(pty, f.line)?;
            if matches!(ty, Ty::Array(_)) {
                return fail(f.line, format!("parameter `%{pname}` may not be an array"));
            }
            if self.local_ids.insert(pname, LocalId(self.locals.len() as u32)).is_some() {
                return fail(f.line, format!("duplicate parameter `%{pname}`"));
            }
            self.locals.push(LocalDecl { name: pname.to_string(), ty });
        }
        let num_params = self.locals.len() as u32;
        self.block_ids.clear();
        for (i, b) in f.blocks.iter().enumerate() {
            self.block_ids.insert(b.label, BlockId(i as u32));
        }
        if self.block_ids.len() != f.blocks.len() {
            return fail(f.line, "duplicate block label");
        }
        let mut blocks = Vec::with_capacity(f.blocks.len());
        let mut raw = f.insts.into_iter();
        for b in f.blocks {
            let mut insts = Vec::with_capacity(b.len);
            for (inst, loc) in raw.by_ref().take(b.len) {
                insts.push(Spanned { inst: self.inst(inst, loc.line)?, loc });
            }
            let term = Spanned { inst: self.term(b.term, b.term_line)?, loc: b.term_loc };
            blocks.push((b.label.to_string(), insts, term));
        }
        let locals = std::mem::take(&mut self.locals);
        Ok(Function::assemble(f.name.to_string(), num_params, locals, ret_ty, blocks, f.attrs))
    }

    fn inst(&mut self, inst: RawInst<'a>, line: u32) -> PResult<Inst> {
        Ok(match inst {
            RawInst::Plain(inst) => inst,
            RawInst::PAlloc { dst, ty } => {
                let ty = self.alloc_ty(ty, line)?;
                Inst::PAlloc { dst: self.define(dst, Ty::Ptr(ty), line)?, ty }
            }
            RawInst::VAlloc { dst, ty } => {
                let ty = self.alloc_ty(ty, line)?;
                Inst::VAlloc { dst: self.define(dst, Ty::Ptr(ty), line)?, ty }
            }
            RawInst::Store { place, value } => {
                let value = self.operand(value, line)?;
                let (place, _) = self.place(&place)?;
                if place.is_whole_object() {
                    return fail(line, "store needs a field place (use `mov` for locals)");
                }
                Inst::Store { place, value }
            }
            RawInst::Load { dst, place } => {
                let (place, ty) = self.place(&place)?;
                if place.is_whole_object() {
                    return fail(line, "load needs a field place (use `mov` for locals)");
                }
                Inst::Load { dst: self.define(dst, ty, line)?, place }
            }
            RawInst::Bin { dst, op, lhs, rhs } => {
                let lhs = self.operand(lhs, line)?;
                let rhs = self.operand(rhs, line)?;
                Inst::Bin { dst: self.define(dst, Ty::I64, line)?, op, lhs, rhs }
            }
            RawInst::Mov { dst, src } => {
                let src = self.operand(src, line)?;
                let ty = match src {
                    Operand::Local(id) => self.locals[id.index()].ty,
                    Operand::Const(_) => Ty::I64,
                    Operand::Null => {
                        return fail(line, "cannot infer type of `mov null`; store null directly")
                    }
                };
                Inst::Mov { dst: self.define(dst, ty, line)?, src }
            }
            RawInst::Flush(place) => Inst::Flush { place: self.place(&place)?.0 },
            RawInst::Persist(place) => Inst::Persist { place: self.place(&place)?.0 },
            RawInst::MemSetPersist { place, value } => {
                let value = self.operand(value, line)?;
                Inst::MemSetPersist { place: self.place(&place)?.0, value }
            }
            RawInst::TxAdd(place) => Inst::TxAdd { place: self.place(&place)?.0 },
            RawInst::Call { dst, func, args, ty } => {
                let args =
                    args.into_iter().map(|a| self.operand(a, line)).collect::<PResult<Vec<_>>>()?;
                let dst = match dst {
                    None => None,
                    Some(name) => {
                        let ty = match (ty, self.func_ret.get(func)) {
                            (Some(t), _) => self.ty(t, line)?,
                            (None, Some(&Some(t))) => t,
                            (None, Some(None)) => {
                                return fail(
                                    line,
                                    format!("call to void function `{func}` cannot have a result"),
                                )
                            }
                            // Out-of-module callee: default to i64 unless annotated.
                            (None, None) => Ty::I64,
                        };
                        Some(self.define(name, ty, line)?)
                    }
                };
                Inst::Call { dst, callee: self.symbols.intern(func), args }
            }
        })
    }

    fn term(&self, term: RawTerm<'a>, line: u32) -> PResult<Terminator> {
        Ok(match term {
            RawTerm::Ret(value) => {
                Terminator::Ret { value: value.map(|v| self.operand(v, line)).transpose()? }
            }
            RawTerm::Br { cond, then_bb, else_bb } => {
                let cond = self.operand(cond, line)?;
                let then_bb = self.block(then_bb, line)?;
                Terminator::Br { cond, then_bb, else_bb: self.block(else_bb, line)? }
            }
            RawTerm::Jmp(bb) => Terminator::Jmp { bb: self.block(bb, line)? },
        })
    }

    fn ty(&self, ty: RawTy<'_>, line: u32) -> PResult<Ty> {
        match ty {
            RawTy::I64 => Ok(Ty::I64),
            RawTy::Array(n) => Ok(Ty::Array(n)),
            RawTy::Ptr(name) => match self.struct_ids.get(name) {
                Some(&(_, last)) => Ok(Ty::Ptr(last)),
                None => fail(line, format!("unknown struct `{name}`")),
            },
        }
    }

    fn alloc_ty(&self, name: &str, line: u32) -> PResult<StructId> {
        match self.struct_ids.get(name) {
            Some(&(first, _)) => Ok(first),
            None => fail(line, format!("unknown struct `{name}`")),
        }
    }

    fn block(&self, label: &str, line: u32) -> PResult<BlockId> {
        match self.block_ids.get(label) {
            Some(&id) => Ok(id),
            None => fail(line, format!("unknown block `{label}`")),
        }
    }

    /// Define a local on first assignment; later assignments must agree in
    /// type (all locals are mutable registers).
    fn define(&mut self, name: &'a str, ty: Ty, line: u32) -> PResult<LocalId> {
        match self.local_ids.entry(name) {
            Entry::Occupied(e) => {
                let id = *e.get();
                let was = self.locals[id.index()].ty;
                if was != ty {
                    return fail(
                        line,
                        format!("local `%{name}` redefined with type {ty} (was {was})"),
                    );
                }
                Ok(id)
            }
            Entry::Vacant(e) => {
                let id = *e.insert(LocalId(self.locals.len() as u32));
                self.locals.push(LocalDecl { name: name.to_string(), ty });
                Ok(id)
            }
        }
    }

    fn local(&self, name: &str, line: u32) -> PResult<LocalId> {
        match self.local_ids.get(name) {
            Some(&id) => Ok(id),
            None => fail(line, format!("use of undefined local `%{name}`")),
        }
    }

    fn operand(&self, op: RawOperand<'_>, line: u32) -> PResult<Operand> {
        Ok(match op {
            RawOperand::Const(n) => Operand::Const(n),
            RawOperand::Null => Operand::Null,
            RawOperand::Local(name) => Operand::Local(self.local(name, line)?),
        })
    }

    /// Resolve a place and the type of the location it names (for load-type
    /// inference).
    fn place(&self, p: &RawPlace<'_>) -> PResult<(Place, Ty)> {
        let base = self.local(p.base, p.line)?;
        let base_ty = self.locals[base.index()].ty;
        let Some(fname) = p.field else { return Ok((Place::local(base), base_ty)) };
        let Some(sid) = base_ty.pointee() else {
            let msg = format!("`%{}` is not a pointer, cannot access field `{fname}`", p.base);
            return fail(p.line, msg);
        };
        let sdef = &self.structs[sid.index()];
        let Some(fidx) = sdef.field_index(fname) else {
            return fail(p.line, format!("struct `{}` has no field `{fname}`", sdef.name));
        };
        let fty = sdef.field(fidx).ty;
        match p.index {
            None => Ok((Place::field(base, fidx), fty)),
            Some(_) if !matches!(fty, Ty::Array(_)) => {
                fail(p.line, format!("field `{fname}` is not an array"))
            }
            Some(idx) => Ok((Place::indexed(base, fidx, self.operand(idx, p.line)?), Ty::I64)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Inst;

    const DEMO: &str = r#"
module demo
file "demo.c"

struct node { n: i64, items: [i64; 4], next: ptr node }

fn helper(%p: ptr node) -> i64 attrs(tx_context) {
entry:
  %x = load %p.n
  ret %x
}

fn main() {
entry:
  %a = palloc node
  store %a.n, 7
  store %a.items[2], 1
  flush %a.n
  fence
  %r = call helper(%a)
  br %r, done, other
other:
  persist %a
  jmp done
done:
  ret
}
"#;

    #[test]
    fn parses_demo() {
        let m = parse(DEMO).expect("demo should parse");
        assert_eq!(m.name, "demo");
        assert_eq!(m.file, "demo.c");
        assert_eq!(m.structs.len(), 1);
        assert_eq!(m.functions.len(), 2);
        let main = &m.functions[m.func_by_name("main").unwrap().index()];
        assert_eq!(main.blocks.len(), 3);
        assert!(matches!(main.block_insts(0)[0].inst, Inst::PAlloc { .. }));
    }

    #[test]
    fn loc_directive_overrides_lines() {
        let src = r#"
module m
fn f() {
entry:
  loc 201
  fence
  fence
  ret
}
"#;
        let m = parse(src).unwrap();
        let f = &m.functions[0];
        assert_eq!(f.block_insts(0)[0].loc.line, 201);
        assert_eq!(f.block_insts(0)[1].loc.line, 202, "loc auto-increments");
    }

    #[test]
    fn natural_lines_without_loc() {
        let src = "module m\nfn f() {\nentry:\n  fence\n  ret\n}\n";
        let m = parse(src).unwrap();
        assert_eq!(m.functions[0].block_insts(0)[0].loc.line, 4);
    }

    #[test]
    fn rejects_undefined_local() {
        let src = "module m\nfn f() {\nentry:\n  flush %nope\n  ret\n}\n";
        let err = parse(src).unwrap_err();
        assert!(err.msg.contains("undefined local"), "{err}");
    }

    #[test]
    fn rejects_unknown_field() {
        let src = r#"
module m
struct s { a: i64 }
fn f(%p: ptr s) {
entry:
  store %p.b, 1
  ret
}
"#;
        let err = parse(src).unwrap_err();
        assert!(err.msg.contains("no field"), "{err}");
    }

    #[test]
    fn rejects_missing_terminator() {
        let src = "module m\nfn f() {\nentry:\n  fence\n}\n";
        let err = parse(src).unwrap_err();
        assert!(err.msg.contains("terminator"), "{err}");
    }

    #[test]
    fn rejects_field_access_on_scalar() {
        let src = r#"
module m
struct s { a: i64 }
fn f(%x: i64) {
entry:
  flush %x.a
  ret
}
"#;
        let err = parse(src).unwrap_err();
        assert!(err.msg.contains("not a pointer"), "{err}");
    }

    #[test]
    fn extern_functions_have_no_body() {
        let src = "module m\nextern fn pm_flush(%p: i64) attrs(persist_wrapper)\n";
        let m = parse(src).unwrap();
        assert!(m.functions[0].blocks.is_empty());
        assert!(m.functions[0].has_attr(FuncAttr::PersistWrapper));
    }

    #[test]
    fn call_type_inferred_from_callee() {
        let src = r#"
module m
struct s { a: i64 }
fn mk() -> ptr s {
entry:
  %p = palloc s
  ret %p
}
fn f() {
entry:
  %q = call mk()
  store %q.a, 1
  ret
}
"#;
        let m = parse(src).unwrap();
        let f = &m.functions[m.func_by_name("f").unwrap().index()];
        let q = f.local_by_name("q").unwrap();
        assert!(f.local_ty(q).is_ptr());
    }

    #[test]
    fn call_to_extern_defaults_to_i64_or_annotation() {
        let src = r#"
module m
struct s { a: i64 }
fn f() {
entry:
  %x = call ext_counter()
  %p = call ext_alloc() : ptr s
  store %p.a, %x
  ret
}
"#;
        let m = parse(src).unwrap();
        let f = &m.functions[0];
        assert_eq!(f.local_ty(f.local_by_name("x").unwrap()), Ty::I64);
        assert!(f.local_ty(f.local_by_name("p").unwrap()).is_ptr());
    }

    #[test]
    fn negative_constants() {
        let src = "module m\nfn f() {\nentry:\n  %x = mov -5\n  ret %x\n}\n";
        let m = parse(src).unwrap();
        let f = &m.functions[0];
        assert!(matches!(f.block_insts(0)[0].inst, Inst::Mov { src: Operand::Const(-5), .. }));
    }

    #[test]
    fn duplicate_function_rejected() {
        let src = "module m\nfn f() {\nentry:\n  ret\n}\nfn f() {\nentry:\n  ret\n}\n";
        assert!(parse(src).is_err());
    }

    #[test]
    fn rejects_load_of_whole_array_field() {
        let src = r#"
module m
struct s { arr: [i64; 4] }
fn f(%p: ptr s) {
entry:
  %x = load %p.arr
  ret
}
"#;
        // Caught at verify time (the parser types it as the array).
        // A parse error is also acceptable.
        if let Ok(m) = parse(src) {
            assert!(crate::verify::verify_module(&m).is_err());
        }
    }

    #[test]
    fn rejects_mov_null() {
        let src = "module m
fn f() {
entry:
  %x = mov null
  ret
}
";
        let err = parse(src).unwrap_err();
        assert!(err.msg.contains("mov null"), "{err}");
    }

    #[test]
    fn rejects_branch_to_unknown_block() {
        let src = "module m
fn f(%c: i64) {
entry:
  br %c, a, nowhere
a:
  ret
}
";
        let err = parse(src).unwrap_err();
        assert!(err.msg.contains("unknown block"), "{err}");
    }

    #[test]
    fn rejects_index_into_scalar_field() {
        let src = r#"
module m
struct s { a: i64 }
fn f(%p: ptr s) {
entry:
  store %p.a[2], 1
  ret
}
"#;
        let err = parse(src).unwrap_err();
        assert!(err.msg.contains("not an array"), "{err}");
    }

    #[test]
    fn rejects_result_from_void_callee() {
        let src = r#"
module m
fn g() {
entry:
  ret
}
fn f() {
entry:
  %x = call g()
  ret
}
"#;
        let err = parse(src).unwrap_err();
        assert!(err.msg.contains("void"), "{err}");
    }

    #[test]
    fn rejects_missing_module_header() {
        assert!(parse(
            "fn f() {
entry:
  ret
}
"
        )
        .is_err());
    }

    #[test]
    fn rejects_loc_without_number() {
        let src = "module m
fn f() {
entry:
  loc
  ret
}
";
        let err = parse(src).unwrap_err();
        assert!(err.msg.contains("line number"), "{err}");
    }

    #[test]
    fn rejects_unterminated_string() {
        let src = "module m\nfile \"oops\n";
        assert!(parse(src).is_err());
    }

    #[test]
    fn rejects_redefinition_with_different_type() {
        let src = r#"
module m
struct s { a: i64 }
fn f() {
entry:
  %x = mov 1
  %x = palloc s
  ret
}
"#;
        let err = parse(src).unwrap_err();
        assert!(err.msg.contains("redefined"), "{err}");
    }

    #[test]
    fn empty_function_body_rejected() {
        let src = "module m
fn f() {
}
";
        assert!(parse(src).is_err());
    }

    #[test]
    fn comments_are_skipped() {
        let src = "module m // the module\nfn f() { // fn\nentry: // label\n  ret // done\n}\n";
        assert!(parse(src).is_ok());
    }
}
