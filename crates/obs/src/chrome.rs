//! Chrome-trace-format export (the JSON array format that
//! `chrome://tracing` and Perfetto's UI load directly).
//!
//! Spans become complete events (`"ph":"X"`) with `tid` set to the
//! worker id, so a parallel run shows one lane per worker: the caller's
//! lane 0 and one lane for each pool helper that ran a job.
//! Instant events become `"ph":"i"` thread-scoped marks.
//!
//! The JSON is rendered by hand: the vendored serde has no map
//! serialization, and the format is flat enough that a renderer plus an
//! escaper is smaller than fighting the data model.

use crate::ObsData;
use std::fmt::Write as _;

/// Escape a string for inclusion in a JSON string literal.
fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).unwrap();
            }
            c => out.push(c),
        }
    }
}

fn push_args(out: &mut String, args: &[(&'static str, String)]) {
    out.push('{');
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        escape_into(out, k);
        out.push_str("\":\"");
        escape_into(out, v);
        out.push('"');
    }
    out.push('}');
}

/// Render the whole recording as a Chrome trace JSON document.
pub fn chrome_trace(data: &ObsData) -> String {
    let mut out = String::with_capacity(256 + data.events.len() * 96);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    out.push_str(r#"{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"deepmc"}}"#);
    // One thread-name metadata record per worker lane.
    let mut workers: Vec<u32> = data.events.iter().map(|e| e.worker).collect();
    workers.sort_unstable();
    workers.dedup();
    for w in &workers {
        let label = if *w == 0 { "driver".to_string() } else { format!("worker {w}") };
        write!(
            out,
            r#",{{"name":"thread_name","ph":"M","pid":1,"tid":{w},"args":{{"name":"{label}"}}}}"#
        )
        .unwrap();
    }
    for e in &data.events {
        out.push_str(",{\"name\":\"");
        escape_into(&mut out, e.name);
        out.push_str("\",\"cat\":\"");
        escape_into(&mut out, e.cat);
        out.push('"');
        match e.dur_us {
            Some(dur) => {
                write!(out, ",\"ph\":\"X\",\"ts\":{},\"dur\":{}", e.start_us, dur).unwrap();
            }
            None => {
                write!(out, ",\"ph\":\"i\",\"s\":\"t\",\"ts\":{}", e.start_us).unwrap();
            }
        }
        write!(out, ",\"pid\":1,\"tid\":{}", e.worker).unwrap();
        if !e.args.is_empty() {
            out.push_str(",\"args\":");
            push_args(&mut out, &e.args);
        }
        out.push('}');
    }
    out.push_str("]}\n");
    out
}

/// Minimal JSON well-formedness + shape check for a Chrome trace
/// document. Returns the number of trace events on success. This is a
/// validator, not a parser: it exists so tests and CI can assert the
/// emitted trace is loadable without an external JSON library.
pub fn validate_chrome_trace(s: &str) -> Result<usize, String> {
    let mut v = Validator { bytes: s.as_bytes(), pos: 0 };
    v.skip_ws();
    if !v.eat(b'{') {
        return Err("top level must be an object".into());
    }
    let mut events = None;
    loop {
        v.skip_ws();
        if v.eat(b'}') {
            break;
        }
        let key = v.string()?;
        v.skip_ws();
        if !v.eat(b':') {
            return Err(v.err("expected ':'"));
        }
        v.skip_ws();
        if key == "traceEvents" {
            events = Some(v.event_array()?);
        } else {
            v.value()?;
        }
        v.skip_ws();
        if v.eat(b',') {
            continue;
        }
        v.skip_ws();
        if v.eat(b'}') {
            break;
        }
        return Err(v.err("expected ',' or '}'"));
    }
    v.skip_ws();
    if v.pos != v.bytes.len() {
        return Err(v.err("trailing characters"));
    }
    events.ok_or_else(|| "missing traceEvents array".to_string())
}

struct Validator<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Validator<'a> {
    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.pos < self.bytes.len() && self.bytes[self.pos] == b {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat(b'"') {
            return Err(self.err("expected string"));
        }
        let mut out = String::new();
        while let Some(b) = self.peek() {
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = self.peek().ok_or_else(|| self.err("truncated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't' => {
                            out.push(esc as char)
                        }
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            self.pos += 4;
                            out.push('?');
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                }
                _ => out.push(b as char),
            }
        }
        Err(self.err("unterminated string"))
    }

    fn number(&mut self) -> Result<(), String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.err("expected number"));
        }
        Ok(())
    }

    fn value(&mut self) -> Result<(), String> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => self.string().map(|_| ()),
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(_) => self.number(),
            None => Err(self.err("unexpected end")),
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err("bad literal"))
        }
    }

    fn object(&mut self) -> Result<(), String> {
        self.object_keys().map(|_| ())
    }

    /// Parse an object, returning its key set.
    fn object_keys(&mut self) -> Result<Vec<String>, String> {
        if !self.eat(b'{') {
            return Err(self.err("expected object"));
        }
        let mut keys = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(keys);
        }
        loop {
            self.skip_ws();
            keys.push(self.string()?);
            self.skip_ws();
            if !self.eat(b':') {
                return Err(self.err("expected ':'"));
            }
            self.value()?;
            self.skip_ws();
            if self.eat(b',') {
                continue;
            }
            if self.eat(b'}') {
                return Ok(keys);
            }
            return Err(self.err("expected ',' or '}'"));
        }
    }

    fn array(&mut self) -> Result<(), String> {
        if !self.eat(b'[') {
            return Err(self.err("expected array"));
        }
        self.skip_ws();
        if self.eat(b']') {
            return Ok(());
        }
        loop {
            self.value()?;
            self.skip_ws();
            if self.eat(b',') {
                continue;
            }
            if self.eat(b']') {
                return Ok(());
            }
            return Err(self.err("expected ',' or ']'"));
        }
    }

    /// Parse the traceEvents array, checking each element is an object
    /// carrying at least "name" and "ph" keys.
    fn event_array(&mut self) -> Result<usize, String> {
        if !self.eat(b'[') {
            return Err(self.err("traceEvents must be an array"));
        }
        let mut n = 0usize;
        self.skip_ws();
        if self.eat(b']') {
            return Ok(0);
        }
        loop {
            self.skip_ws();
            let keys = self.object_keys()?;
            if !keys.iter().any(|k| k == "name") || !keys.iter().any(|k| k == "ph") {
                return Err(self.err("trace event missing name/ph"));
            }
            n += 1;
            self.skip_ws();
            if self.eat(b',') {
                continue;
            }
            if self.eat(b']') {
                return Ok(n);
            }
            return Err(self.err("expected ',' or ']'"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{counter, instant_args, span, span_args, Recorder};

    #[test]
    fn trace_renders_and_validates() {
        let rec = Recorder::new();
        {
            let _a = rec.attach(0);
            let _t = span("total");
            let _p = span_args("parse", vec![("file", "a\"b\\c\n.pir".to_string())]);
            instant_args("cache.hit", vec![("root", "main".to_string())]);
            counter("check.roots", 1);
        }
        let data = rec.finish();
        let json = chrome_trace(&data);
        let n = validate_chrome_trace(&json).expect("trace is well-formed JSON");
        // 1 process_name + 1 thread_name + 2 spans + 1 instant.
        assert_eq!(n, 5);
        assert!(json.contains("\"ph\":\"X\""), "complete span events present");
        assert!(json.contains("\"tid\":0"), "worker id carried as tid");
        assert!(json.contains("a\\\"b\\\\c\\n"), "args are escaped");
    }

    #[test]
    fn validator_rejects_garbage() {
        assert!(validate_chrome_trace("{\"traceEvents\":[{}]}").is_err());
        assert!(validate_chrome_trace("[]").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[").is_err());
        assert!(validate_chrome_trace("{}").is_err());
        assert_eq!(validate_chrome_trace("{\"traceEvents\":[]}"), Ok(0));
    }
}
