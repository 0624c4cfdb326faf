//! Textual PIR parser: hand-written lexer + recursive descent.
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

use crate::inst::{BinOp, Inst, Operand, Place, Terminator};
use crate::intern::SymbolTable;
use crate::loc::SourceLoc;
use crate::module::{FuncAttr, Function, LocalDecl, LocalId, Module, Spanned};
use crate::types::{FieldDef, StructDef, StructId, Ty};
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

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Local(String),
    Int(i64),
    Str(String),
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

impl fmt::Display for Tok {
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

struct Lexer {
    toks: Vec<(Tok, u32)>,
    pos: usize,
}

fn lex(src: &str) -> PResult<Vec<(Tok, u32)>> {
    let mut toks = Vec::new();
    let mut line: u32 = 1;
    let mut chars = src.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            '\n' => {
                line += 1;
                chars.next();
            }
            c if c.is_whitespace() => {
                chars.next();
            }
            '/' => {
                chars.next();
                if chars.peek() == Some(&'/') {
                    while let Some(&c2) = chars.peek() {
                        if c2 == '\n' {
                            break;
                        }
                        chars.next();
                    }
                } else {
                    return Err(ParseError { line, msg: "stray `/` (use `//` comments)".into() });
                }
            }
            '{' => {
                toks.push((Tok::LBrace, line));
                chars.next();
            }
            '}' => {
                toks.push((Tok::RBrace, line));
                chars.next();
            }
            '(' => {
                toks.push((Tok::LParen, line));
                chars.next();
            }
            ')' => {
                toks.push((Tok::RParen, line));
                chars.next();
            }
            '[' => {
                toks.push((Tok::LBracket, line));
                chars.next();
            }
            ']' => {
                toks.push((Tok::RBracket, line));
                chars.next();
            }
            ',' => {
                toks.push((Tok::Comma, line));
                chars.next();
            }
            ':' => {
                toks.push((Tok::Colon, line));
                chars.next();
            }
            ';' => {
                toks.push((Tok::Semi, line));
                chars.next();
            }
            '.' => {
                toks.push((Tok::Dot, line));
                chars.next();
            }
            '=' => {
                toks.push((Tok::Assign, line));
                chars.next();
            }
            '-' => {
                chars.next();
                if chars.peek() == Some(&'>') {
                    chars.next();
                    toks.push((Tok::Arrow, line));
                } else {
                    toks.push((Tok::Minus, line));
                }
            }
            '%' => {
                chars.next();
                let mut s = String::new();
                while let Some(&c2) = chars.peek() {
                    if c2.is_alphanumeric() || c2 == '_' {
                        s.push(c2);
                        chars.next();
                    } else {
                        break;
                    }
                }
                if s.is_empty() {
                    return Err(ParseError { line, msg: "`%` must be followed by a name".into() });
                }
                toks.push((Tok::Local(s), line));
            }
            '"' => {
                chars.next();
                let mut s = String::new();
                loop {
                    match chars.next() {
                        Some('"') => break,
                        Some('\n') | None => {
                            return Err(ParseError { line, msg: "unterminated string".into() })
                        }
                        Some(c2) => s.push(c2),
                    }
                }
                toks.push((Tok::Str(s), line));
            }
            c if c.is_ascii_digit() => {
                let mut n: i64 = 0;
                while let Some(&c2) = chars.peek() {
                    if let Some(d) = c2.to_digit(10) {
                        n = n
                            .checked_mul(10)
                            .and_then(|v| v.checked_add(d as i64))
                            .ok_or_else(|| ParseError { line, msg: "integer overflow".into() })?;
                        chars.next();
                    } else {
                        break;
                    }
                }
                toks.push((Tok::Int(n), line));
            }
            c if c.is_alphabetic() || c == '_' => {
                let mut s = String::new();
                while let Some(&c2) = chars.peek() {
                    if c2.is_alphanumeric() || c2 == '_' {
                        s.push(c2);
                        chars.next();
                    } else {
                        break;
                    }
                }
                toks.push((Tok::Ident(s), line));
            }
            other => {
                return Err(ParseError { line, msg: format!("unexpected character `{other}`") })
            }
        }
    }
    toks.push((Tok::Eof, line));
    Ok(toks)
}

impl Lexer {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].0
    }

    fn peek2(&self) -> &Tok {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)].0
    }

    fn line(&self) -> u32 {
        self.toks[self.pos].1
    }

    fn next(&mut self) -> Tok {
        let t = self.toks[self.pos].0.clone();
        if self.pos < self.toks.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, msg: impl Into<String>) -> PResult<T> {
        Err(ParseError { line: self.line(), msg: msg.into() })
    }

    fn expect(&mut self, t: Tok) -> PResult<()> {
        if *self.peek() == t {
            self.next();
            Ok(())
        } else {
            let found = self.peek().clone();
            self.err(format!("expected {t}, found {found}"))
        }
    }

    fn expect_ident(&mut self) -> PResult<String> {
        match self.next() {
            Tok::Ident(s) => Ok(s),
            other => Err(ParseError {
                line: self.toks[self.pos.saturating_sub(1)].1,
                msg: format!("expected identifier, found {other}"),
            }),
        }
    }

    fn expect_kw(&mut self, kw: &str) -> PResult<()> {
        match self.peek() {
            Tok::Ident(s) if s == kw => {
                self.next();
                Ok(())
            }
            other => {
                let found = other.clone();
                self.err(format!("expected `{kw}`, found {found}"))
            }
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Tok::Ident(s) if s == kw) {
            self.next();
            true
        } else {
            false
        }
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == t {
            self.next();
            true
        } else {
            false
        }
    }
}

/// Unresolved place: names instead of ids.
#[derive(Debug, Clone)]
struct RawPlace {
    base: String,
    field: Option<String>,
    index: Option<RawOperand>,
    line: u32,
}

#[derive(Debug, Clone)]
enum RawOperand {
    Const(i64),
    Local(String),
    Null,
}

#[derive(Debug, Clone)]
enum RawInst {
    PAlloc { dst: String, ty: String },
    VAlloc { dst: String, ty: String },
    Store { place: RawPlace, value: RawOperand },
    Load { dst: String, place: RawPlace },
    Bin { dst: String, op: BinOp, lhs: RawOperand, rhs: RawOperand },
    Mov { dst: String, src: RawOperand },
    Flush { place: RawPlace },
    Fence,
    Persist { place: RawPlace },
    MemSetPersist { place: RawPlace, value: RawOperand },
    TxBegin,
    TxAdd { place: RawPlace },
    TxCommit,
    TxAbort,
    EpochBegin,
    EpochEnd,
    StrandBegin,
    StrandEnd,
    Call { dst: Option<String>, callee: String, args: Vec<RawOperand>, ty: Option<RawTy> },
}

#[derive(Debug, Clone)]
enum RawTerm {
    Ret { value: Option<RawOperand> },
    Br { cond: RawOperand, then_bb: String, else_bb: String },
    Jmp { bb: String },
}

#[derive(Debug, Clone)]
enum RawTy {
    I64,
    Ptr(String),
    Array(u32),
}

struct RawBlock {
    label: String,
    insts: Vec<(RawInst, SourceLoc)>,
    term: (RawTerm, SourceLoc),
    term_line: u32,
}

struct RawFunction {
    name: String,
    params: Vec<(String, RawTy)>,
    ret_ty: Option<RawTy>,
    attrs: Vec<FuncAttr>,
    blocks: Vec<RawBlock>,
    is_extern: bool,
    line: u32,
}

const TERM_KWS: [&str; 3] = ["ret", "br", "jmp"];

fn binop_from_mnemonic(s: &str) -> Option<BinOp> {
    BinOp::ALL.iter().copied().find(|op| op.mnemonic() == s)
}

struct Parser {
    lx: Lexer,
    /// Line override from the `loc N` directive (auto-incrementing).
    pending_loc: Option<u32>,
}

impl Parser {
    fn inst_loc(&mut self, actual_line: u32) -> SourceLoc {
        match self.pending_loc {
            Some(n) => {
                self.pending_loc = Some(n + 1);
                SourceLoc::new(n)
            }
            None => SourceLoc::new(actual_line),
        }
    }

    fn parse_ty(&mut self) -> PResult<RawTy> {
        if self.lx.eat(&Tok::LBracket) {
            self.lx.expect_kw("i64")?;
            self.lx.expect(Tok::Semi)?;
            let n = match self.lx.next() {
                Tok::Int(n) if n >= 0 => n as u32,
                _ => return self.lx.err("expected array length"),
            };
            self.lx.expect(Tok::RBracket)?;
            return Ok(RawTy::Array(n));
        }
        let name = self.lx.expect_ident()?;
        match name.as_str() {
            "i64" => Ok(RawTy::I64),
            "ptr" => {
                let s = self.lx.expect_ident()?;
                Ok(RawTy::Ptr(s))
            }
            other => Err(ParseError {
                line: self.lx.line(),
                msg: format!("unknown type `{other}` (expected i64, ptr <struct>, or [i64; N])"),
            }),
        }
    }

    fn parse_operand(&mut self) -> PResult<RawOperand> {
        match self.lx.peek().clone() {
            Tok::Int(n) => {
                self.lx.next();
                Ok(RawOperand::Const(n))
            }
            Tok::Minus => {
                self.lx.next();
                match self.lx.next() {
                    Tok::Int(n) => Ok(RawOperand::Const(-n)),
                    _ => self.lx.err("expected integer after `-`"),
                }
            }
            Tok::Local(name) => {
                self.lx.next();
                Ok(RawOperand::Local(name))
            }
            Tok::Ident(s) if s == "null" => {
                self.lx.next();
                Ok(RawOperand::Null)
            }
            other => self.lx.err(format!("expected operand, found {other}")),
        }
    }

    fn parse_place(&mut self) -> PResult<RawPlace> {
        let line = self.lx.line();
        let base = match self.lx.next() {
            Tok::Local(s) => s,
            other => {
                return Err(ParseError { line, msg: format!("expected place, found {other}") })
            }
        };
        let mut field = None;
        let mut index = None;
        if self.lx.eat(&Tok::Dot) {
            field = Some(self.lx.expect_ident()?);
            if self.lx.eat(&Tok::LBracket) {
                index = Some(self.parse_operand()?);
                self.lx.expect(Tok::RBracket)?;
            }
        }
        Ok(RawPlace { base, field, index, line })
    }

    fn parse_call_tail(&mut self, dst: Option<String>) -> PResult<RawInst> {
        let callee = self.lx.expect_ident()?;
        self.lx.expect(Tok::LParen)?;
        let mut args = Vec::new();
        if !self.lx.eat(&Tok::RParen) {
            loop {
                args.push(self.parse_operand()?);
                if self.lx.eat(&Tok::RParen) {
                    break;
                }
                self.lx.expect(Tok::Comma)?;
            }
        }
        let ty = if self.lx.eat(&Tok::Colon) { Some(self.parse_ty()?) } else { None };
        Ok(RawInst::Call { dst, callee, args, ty })
    }

    /// Parse one statement. Returns `Ok(None)` for directives that produce
    /// no instruction (`loc N`).
    fn parse_stmt(&mut self) -> PResult<Option<(RawInst, SourceLoc)>> {
        let line = self.lx.line();
        match self.lx.peek().clone() {
            Tok::Ident(kw) if kw == "loc" => {
                self.lx.next();
                match self.lx.next() {
                    Tok::Int(n) if n >= 0 => {
                        self.pending_loc = Some(n as u32);
                        Ok(None)
                    }
                    _ => self.lx.err("expected line number after `loc`"),
                }
            }
            Tok::Local(dst) => {
                self.lx.next();
                self.lx.expect(Tok::Assign)?;
                let kw = self.lx.expect_ident()?;
                let inst = match kw.as_str() {
                    "palloc" => RawInst::PAlloc { dst, ty: self.lx.expect_ident()? },
                    "valloc" => RawInst::VAlloc { dst, ty: self.lx.expect_ident()? },
                    "load" => RawInst::Load { dst, place: self.parse_place()? },
                    "mov" => RawInst::Mov { dst, src: self.parse_operand()? },
                    "call" => self.parse_call_tail(Some(dst))?,
                    other => match binop_from_mnemonic(other) {
                        Some(op) => {
                            let lhs = self.parse_operand()?;
                            self.lx.expect(Tok::Comma)?;
                            let rhs = self.parse_operand()?;
                            RawInst::Bin { dst, op, lhs, rhs }
                        }
                        None => {
                            return self.lx.err(format!("unknown instruction `{other}`"));
                        }
                    },
                };
                let loc = self.inst_loc(line);
                Ok(Some((inst, loc)))
            }
            Tok::Ident(kw) => {
                self.lx.next();
                let inst = match kw.as_str() {
                    "store" => {
                        let place = self.parse_place()?;
                        self.lx.expect(Tok::Comma)?;
                        let value = self.parse_operand()?;
                        RawInst::Store { place, value }
                    }
                    "flush" => RawInst::Flush { place: self.parse_place()? },
                    "fence" => RawInst::Fence,
                    "persist" => RawInst::Persist { place: self.parse_place()? },
                    "memset_persist" => {
                        let place = self.parse_place()?;
                        self.lx.expect(Tok::Comma)?;
                        let value = self.parse_operand()?;
                        RawInst::MemSetPersist { place, value }
                    }
                    "tx_begin" => RawInst::TxBegin,
                    "tx_add" => RawInst::TxAdd { place: self.parse_place()? },
                    "tx_commit" => RawInst::TxCommit,
                    "tx_abort" => RawInst::TxAbort,
                    "epoch_begin" => RawInst::EpochBegin,
                    "epoch_end" => RawInst::EpochEnd,
                    "strand_begin" => RawInst::StrandBegin,
                    "strand_end" => RawInst::StrandEnd,
                    "call" => self.parse_call_tail(None)?,
                    other => return self.lx.err(format!("unknown statement `{other}`")),
                };
                let loc = self.inst_loc(line);
                Ok(Some((inst, loc)))
            }
            other => self.lx.err(format!("expected statement, found {other}")),
        }
    }

    fn parse_terminator(&mut self) -> PResult<(RawTerm, SourceLoc)> {
        let line = self.lx.line();
        let kw = self.lx.expect_ident()?;
        let term = match kw.as_str() {
            "ret" => {
                // `ret` with no value if the next token starts a label/`}`.
                let has_value = matches!(self.lx.peek(), Tok::Int(_) | Tok::Minus | Tok::Local(_))
                    || matches!(self.lx.peek(), Tok::Ident(s) if s == "null");
                let value = if has_value { Some(self.parse_operand()?) } else { None };
                RawTerm::Ret { value }
            }
            "br" => {
                let cond = self.parse_operand()?;
                self.lx.expect(Tok::Comma)?;
                let then_bb = self.lx.expect_ident()?;
                self.lx.expect(Tok::Comma)?;
                let else_bb = self.lx.expect_ident()?;
                RawTerm::Br { cond, then_bb, else_bb }
            }
            "jmp" => RawTerm::Jmp { bb: self.lx.expect_ident()? },
            other => return self.lx.err(format!("expected terminator, found `{other}`")),
        };
        let loc = self.inst_loc(line);
        Ok((term, loc))
    }

    fn parse_block(&mut self) -> PResult<RawBlock> {
        let label = self.lx.expect_ident()?;
        self.lx.expect(Tok::Colon)?;
        let mut insts = Vec::new();
        loop {
            // Terminator?
            if let Tok::Ident(kw) = self.lx.peek() {
                if TERM_KWS.contains(&kw.as_str()) {
                    let term_line = self.lx.line();
                    let term = self.parse_terminator()?;
                    return Ok(RawBlock { label, insts, term, term_line });
                }
            }
            // A label (`ident :`) or `}` before a terminator is an error.
            match (self.lx.peek(), self.lx.peek2()) {
                (Tok::RBrace, _) | (Tok::Ident(_), Tok::Colon) if !matches!(self.lx.peek(), Tok::Ident(s) if s == "loc") =>
                {
                    return self.lx.err(format!("block `{label}` has no terminator (ret/br/jmp)"));
                }
                _ => {}
            }
            if let Some(inst) = self.parse_stmt()? {
                insts.push(inst);
            }
        }
    }

    fn parse_attrs(&mut self) -> PResult<Vec<FuncAttr>> {
        let mut attrs = Vec::new();
        if self.lx.eat_kw("attrs") {
            self.lx.expect(Tok::LParen)?;
            loop {
                let name = self.lx.expect_ident()?;
                match name.as_str() {
                    "tx_context" => attrs.push(FuncAttr::TxContext),
                    "persist_wrapper" => attrs.push(FuncAttr::PersistWrapper),
                    "model_strict" => attrs.push(FuncAttr::ModelStrict),
                    "model_epoch" => attrs.push(FuncAttr::ModelEpoch),
                    "model_strand" => attrs.push(FuncAttr::ModelStrand),
                    other => return self.lx.err(format!("unknown attribute `{other}`")),
                }
                if self.lx.eat(&Tok::RParen) {
                    break;
                }
                self.lx.expect(Tok::Comma)?;
            }
        }
        Ok(attrs)
    }

    fn parse_function(&mut self, is_extern: bool) -> PResult<RawFunction> {
        let line = self.lx.line();
        self.lx.expect_kw("fn")?;
        let name = self.lx.expect_ident()?;
        self.lx.expect(Tok::LParen)?;
        let mut params = Vec::new();
        if !self.lx.eat(&Tok::RParen) {
            loop {
                let pname = match self.lx.next() {
                    Tok::Local(s) => s,
                    other => {
                        return self.lx.err(format!("expected `%param`, found {other}"));
                    }
                };
                self.lx.expect(Tok::Colon)?;
                let ty = self.parse_ty()?;
                params.push((pname, ty));
                if self.lx.eat(&Tok::RParen) {
                    break;
                }
                self.lx.expect(Tok::Comma)?;
            }
        }
        let ret_ty = if self.lx.eat(&Tok::Arrow) { Some(self.parse_ty()?) } else { None };
        let attrs = self.parse_attrs()?;
        let mut blocks = Vec::new();
        if !is_extern {
            self.pending_loc = None;
            self.lx.expect(Tok::LBrace)?;
            while !self.lx.eat(&Tok::RBrace) {
                blocks.push(self.parse_block()?);
            }
            if blocks.is_empty() {
                return self.lx.err(format!("function `{name}` has no blocks"));
            }
        }
        Ok(RawFunction { name, params, ret_ty, attrs, blocks, is_extern, line })
    }

    fn parse_struct(&mut self) -> PResult<StructDefRaw> {
        let name = self.lx.expect_ident()?;
        self.lx.expect(Tok::LBrace)?;
        let mut fields = Vec::new();
        while !self.lx.eat(&Tok::RBrace) {
            let fname = self.lx.expect_ident()?;
            self.lx.expect(Tok::Colon)?;
            let ty = self.parse_ty()?;
            fields.push((fname, ty));
            if !self.lx.eat(&Tok::Comma) {
                self.lx.expect(Tok::RBrace)?;
                break;
            }
        }
        Ok(StructDefRaw { name, fields })
    }
}

struct StructDefRaw {
    name: String,
    fields: Vec<(String, RawTy)>,
}

/// Parse a PIR module from text.
pub fn parse(src: &str) -> Result<Module, ParseError> {
    let toks = lex(src)?;
    let mut p = Parser { lx: Lexer { toks, pos: 0 }, pending_loc: None };

    p.lx.expect_kw("module")?;
    let mod_name = p.lx.expect_ident()?;
    let file = if p.lx.eat_kw("file") {
        match p.lx.next() {
            Tok::Str(s) => s,
            other => return p.lx.err(format!("expected file string, found {other}")),
        }
    } else {
        format!("{mod_name}.c")
    };

    let mut raw_structs = Vec::new();
    let mut raw_funcs = Vec::new();
    loop {
        match p.lx.peek().clone() {
            Tok::Eof => break,
            Tok::Ident(kw) if kw == "struct" => {
                p.lx.next();
                raw_structs.push(p.parse_struct()?);
            }
            Tok::Ident(kw) if kw == "fn" => {
                raw_funcs.push(p.parse_function(false)?);
            }
            Tok::Ident(kw) if kw == "extern" => {
                p.lx.next();
                raw_funcs.push(p.parse_function(true)?);
            }
            other => {
                return p.lx.err(format!("expected `struct`, `fn`, or `extern`, found {other}"));
            }
        }
    }

    resolve(mod_name, file, raw_structs, raw_funcs)
}

/// Name resolution + local type inference, producing the final [`Module`].
fn resolve(
    mod_name: String,
    file: String,
    raw_structs: Vec<StructDefRaw>,
    raw_funcs: Vec<RawFunction>,
) -> Result<Module, ParseError> {
    let struct_ids: HashMap<String, StructId> =
        raw_structs.iter().enumerate().map(|(i, s)| (s.name.clone(), StructId(i as u32))).collect();

    let lower_ty = |ty: &RawTy, line: u32| -> PResult<Ty> {
        match ty {
            RawTy::I64 => Ok(Ty::I64),
            RawTy::Array(n) => Ok(Ty::Array(*n)),
            RawTy::Ptr(name) => struct_ids
                .get(name)
                .map(|id| Ty::Ptr(*id))
                .ok_or_else(|| ParseError { line, msg: format!("unknown struct `{name}`") }),
        }
    };

    let mut structs = Vec::with_capacity(raw_structs.len());
    for rs in &raw_structs {
        let mut fields = Vec::with_capacity(rs.fields.len());
        for (fname, fty) in &rs.fields {
            fields.push(FieldDef { name: fname.clone(), ty: lower_ty(fty, 0)? });
        }
        structs.push(StructDef { name: rs.name.clone(), fields });
    }

    // Function signatures first, so calls can be typed.
    let mut func_ret: HashMap<String, Option<Ty>> = HashMap::new();
    for rf in &raw_funcs {
        let ret = match &rf.ret_ty {
            Some(t) => Some(lower_ty(t, rf.line)?),
            None => None,
        };
        if func_ret.insert(rf.name.clone(), ret).is_some() {
            return Err(ParseError {
                line: rf.line,
                msg: format!("duplicate function `{}`", rf.name),
            });
        }
    }

    let mut symbols = SymbolTable::new();
    let mut functions = Vec::with_capacity(raw_funcs.len());
    for rf in raw_funcs {
        functions.push(resolve_function(
            rf,
            &structs,
            &struct_ids,
            &func_ret,
            &lower_ty,
            &mut symbols,
        )?);
    }

    let mut module = Module::new(mod_name, file);
    module.structs = structs;
    module.functions = functions;
    module.symbols = symbols;
    module.rebuild_index();
    Ok(module)
}

fn resolve_function(
    rf: RawFunction,
    structs: &[StructDef],
    _struct_ids: &HashMap<String, StructId>,
    func_ret: &HashMap<String, Option<Ty>>,
    lower_ty: &dyn Fn(&RawTy, u32) -> PResult<Ty>,
    symbols: &mut SymbolTable,
) -> Result<Function, ParseError> {
    let mut locals: Vec<LocalDecl> = Vec::new();
    let mut local_ids: HashMap<String, LocalId> = HashMap::new();
    for (pname, pty) in &rf.params {
        let ty = lower_ty(pty, rf.line)?;
        if matches!(ty, Ty::Array(_)) {
            return Err(ParseError {
                line: rf.line,
                msg: format!("parameter `%{pname}` may not be an array"),
            });
        }
        let id = LocalId(locals.len() as u32);
        if local_ids.insert(pname.clone(), id).is_some() {
            return Err(ParseError {
                line: rf.line,
                msg: format!("duplicate parameter `%{pname}`"),
            });
        }
        locals.push(LocalDecl { name: pname.clone(), ty });
    }
    let num_params = locals.len() as u32;
    let ret_ty = match &rf.ret_ty {
        Some(t) => Some(lower_ty(t, rf.line)?),
        None => None,
    };

    let block_ids: HashMap<String, crate::module::BlockId> = rf
        .blocks
        .iter()
        .enumerate()
        .map(|(i, b)| (b.label.clone(), crate::module::BlockId(i as u32)))
        .collect();
    if block_ids.len() != rf.blocks.len() {
        return Err(ParseError { line: rf.line, msg: "duplicate block label".into() });
    }

    // Define a local on first assignment; later assignments must agree in
    // type (all locals are mutable registers).
    let define = |name: &str,
                  ty: Ty,
                  line: u32,
                  locals: &mut Vec<LocalDecl>,
                  local_ids: &mut HashMap<String, LocalId>|
     -> PResult<LocalId> {
        if let Some(&id) = local_ids.get(name) {
            let existing = locals[id.index()].ty;
            if existing != ty {
                return Err(ParseError {
                    line,
                    msg: format!("local `%{name}` redefined with type {ty} (was {existing})"),
                });
            }
            Ok(id)
        } else {
            let id = LocalId(locals.len() as u32);
            local_ids.insert(name.to_string(), id);
            locals.push(LocalDecl { name: name.to_string(), ty });
            Ok(id)
        }
    };

    let use_local =
        |name: &str, line: u32, local_ids: &HashMap<String, LocalId>| -> PResult<LocalId> {
            local_ids.get(name).copied().ok_or_else(|| ParseError {
                line,
                msg: format!("use of undefined local `%{name}`"),
            })
        };

    let lower_operand =
        |op: &RawOperand, line: u32, local_ids: &HashMap<String, LocalId>| -> PResult<Operand> {
            match op {
                RawOperand::Const(n) => Ok(Operand::Const(*n)),
                RawOperand::Null => Ok(Operand::Null),
                RawOperand::Local(name) => Ok(Operand::Local(use_local(name, line, local_ids)?)),
            }
        };

    // Resolve a raw place; returns the place and the type of the location it
    // names (for load-type inference).
    let lower_place = |rp: &RawPlace,
                       locals: &[LocalDecl],
                       local_ids: &HashMap<String, LocalId>|
     -> PResult<(Place, Ty)> {
        let base = use_local(&rp.base, rp.line, local_ids)?;
        let base_ty = locals[base.index()].ty;
        match &rp.field {
            None => Ok((Place::local(base), base_ty)),
            Some(fname) => {
                let sid = base_ty.pointee().ok_or_else(|| ParseError {
                    line: rp.line,
                    msg: format!("`%{}` is not a pointer, cannot access field `{fname}`", rp.base),
                })?;
                let sdef = &structs[sid.index()];
                let fidx = sdef.field_index(fname).ok_or_else(|| ParseError {
                    line: rp.line,
                    msg: format!("struct `{}` has no field `{fname}`", sdef.name),
                })?;
                let fty = sdef.field(fidx).ty;
                match &rp.index {
                    None => Ok((Place::field(base, fidx), fty)),
                    Some(idx) => {
                        if !matches!(fty, Ty::Array(_)) {
                            return Err(ParseError {
                                line: rp.line,
                                msg: format!("field `{fname}` is not an array"),
                            });
                        }
                        let idx = lower_operand(idx, rp.line, local_ids)?;
                        Ok((Place::indexed(base, fidx, idx), Ty::I64))
                    }
                }
            }
        }
    };

    let mut blocks = Vec::with_capacity(rf.blocks.len());
    for rb in rf.blocks {
        let mut insts = Vec::with_capacity(rb.insts.len());
        for (ri, loc) in rb.insts {
            let line = loc.line;
            let inst = match ri {
                RawInst::PAlloc { dst, ty } => {
                    let sid = structs
                        .iter()
                        .position(|s| s.name == ty)
                        .map(|i| StructId(i as u32))
                        .ok_or_else(|| ParseError {
                            line,
                            msg: format!("unknown struct `{ty}`"),
                        })?;
                    let dst = define(&dst, Ty::Ptr(sid), line, &mut locals, &mut local_ids)?;
                    Inst::PAlloc { dst, ty: sid }
                }
                RawInst::VAlloc { dst, ty } => {
                    let sid = structs
                        .iter()
                        .position(|s| s.name == ty)
                        .map(|i| StructId(i as u32))
                        .ok_or_else(|| ParseError {
                            line,
                            msg: format!("unknown struct `{ty}`"),
                        })?;
                    let dst = define(&dst, Ty::Ptr(sid), line, &mut locals, &mut local_ids)?;
                    Inst::VAlloc { dst, ty: sid }
                }
                RawInst::Store { place, value } => {
                    let value = lower_operand(&value, line, &local_ids)?;
                    let (place, _) = lower_place(&place, &locals, &local_ids)?;
                    if place.is_whole_object() {
                        return Err(ParseError {
                            line,
                            msg: "store needs a field place (use `mov` for locals)".into(),
                        });
                    }
                    Inst::Store { place, value }
                }
                RawInst::Load { dst, place } => {
                    let (place, ty) = lower_place(&place, &locals, &local_ids)?;
                    if place.is_whole_object() {
                        return Err(ParseError {
                            line,
                            msg: "load needs a field place (use `mov` for locals)".into(),
                        });
                    }
                    let dst = define(&dst, ty, line, &mut locals, &mut local_ids)?;
                    Inst::Load { dst, place }
                }
                RawInst::Bin { dst, op, lhs, rhs } => {
                    let lhs = lower_operand(&lhs, line, &local_ids)?;
                    let rhs = lower_operand(&rhs, line, &local_ids)?;
                    let dst = define(&dst, Ty::I64, line, &mut locals, &mut local_ids)?;
                    Inst::Bin { dst, op, lhs, rhs }
                }
                RawInst::Mov { dst, src } => {
                    let src = lower_operand(&src, line, &local_ids)?;
                    let ty = match src {
                        Operand::Local(id) => locals[id.index()].ty,
                        Operand::Const(_) => Ty::I64,
                        Operand::Null => {
                            return Err(ParseError {
                                line,
                                msg: "cannot infer type of `mov null`; store null directly".into(),
                            })
                        }
                    };
                    let dst = define(&dst, ty, line, &mut locals, &mut local_ids)?;
                    Inst::Mov { dst, src }
                }
                RawInst::Flush { place } => {
                    let (place, _) = lower_place(&place, &locals, &local_ids)?;
                    Inst::Flush { place }
                }
                RawInst::Fence => Inst::Fence,
                RawInst::Persist { place } => {
                    let (place, _) = lower_place(&place, &locals, &local_ids)?;
                    Inst::Persist { place }
                }
                RawInst::MemSetPersist { place, value } => {
                    let value = lower_operand(&value, line, &local_ids)?;
                    let (place, _) = lower_place(&place, &locals, &local_ids)?;
                    Inst::MemSetPersist { place, value }
                }
                RawInst::TxBegin => Inst::TxBegin,
                RawInst::TxAdd { place } => {
                    let (place, _) = lower_place(&place, &locals, &local_ids)?;
                    Inst::TxAdd { place }
                }
                RawInst::TxCommit => Inst::TxCommit,
                RawInst::TxAbort => Inst::TxAbort,
                RawInst::EpochBegin => Inst::EpochBegin,
                RawInst::EpochEnd => Inst::EpochEnd,
                RawInst::StrandBegin => Inst::StrandBegin,
                RawInst::StrandEnd => Inst::StrandEnd,
                RawInst::Call { dst, callee, args, ty } => {
                    let args = args
                        .iter()
                        .map(|a| lower_operand(a, line, &local_ids))
                        .collect::<PResult<Vec<_>>>()?;
                    let dst = match dst {
                        None => None,
                        Some(name) => {
                            let dty = match &ty {
                                Some(t) => lower_ty(t, line)?,
                                None => match func_ret.get(&callee) {
                                    Some(Some(t)) => *t,
                                    Some(None) => {
                                        return Err(ParseError {
                                            line,
                                            msg: format!(
                                            "call to void function `{callee}` cannot have a result"
                                        ),
                                        })
                                    }
                                    // Out-of-module callee: default to i64
                                    // unless annotated.
                                    None => Ty::I64,
                                },
                            };
                            Some(define(&name, dty, line, &mut locals, &mut local_ids)?)
                        }
                    };
                    Inst::Call { dst, callee: symbols.intern(&callee), args }
                }
            };
            insts.push(Spanned { inst, loc });
        }

        let (rt, term_loc) = rb.term;
        let term = match rt {
            RawTerm::Ret { value } => {
                Inst2Term::ret(value, rb.term_line, &local_ids, &lower_operand)?
            }
            RawTerm::Br { cond, then_bb, else_bb } => {
                let cond = lower_operand(&cond, rb.term_line, &local_ids)?;
                let then_bb = *block_ids.get(&then_bb).ok_or_else(|| ParseError {
                    line: rb.term_line,
                    msg: format!("unknown block `{then_bb}`"),
                })?;
                let else_bb = *block_ids.get(&else_bb).ok_or_else(|| ParseError {
                    line: rb.term_line,
                    msg: format!("unknown block `{else_bb}`"),
                })?;
                Terminator::Br { cond, then_bb, else_bb }
            }
            RawTerm::Jmp { bb } => {
                let bb = *block_ids.get(&bb).ok_or_else(|| ParseError {
                    line: rb.term_line,
                    msg: format!("unknown block `{bb}`"),
                })?;
                Terminator::Jmp { bb }
            }
        };
        blocks.push((rb.label, insts, Spanned { inst: term, loc: term_loc }));
    }

    if rf.is_extern && !blocks.is_empty() {
        return Err(ParseError {
            line: rf.line,
            msg: format!("extern function `{}` must not have a body", rf.name),
        });
    }

    Ok(Function::assemble(rf.name, num_params, locals, ret_ty, blocks, rf.attrs))
}

/// Operand-lowering callback shared by terminator helpers.
type LowerOperandFn<'a> =
    &'a dyn Fn(&RawOperand, u32, &HashMap<String, LocalId>) -> PResult<Operand>;

/// Helper namespace for lowering `ret` (kept out of the closure soup above).
struct Inst2Term;

impl Inst2Term {
    fn ret(
        value: Option<RawOperand>,
        line: u32,
        local_ids: &HashMap<String, LocalId>,
        lower_operand: LowerOperandFn<'_>,
    ) -> PResult<Terminator> {
        let value = match value {
            None => None,
            Some(v) => Some(lower_operand(&v, line, local_ids)?),
        };
        Ok(Terminator::Ret { value })
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
