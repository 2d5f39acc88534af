//! A minimal, dependency-free JSON reader.
//!
//! Exists so the lint crate can parse its own machine outputs back —
//! the `lint-baseline.json` ratchet needs a reader, and the workspace
//! bans external deps in `crates/lint`. Supports the full JSON value
//! grammar with a recursion cap; numbers are kept as `f64`, which is
//! exact for every count the lint engine writes.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    /// Key order is normalized; duplicate keys keep the last value.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Path lookup: `v.path(&["runs", "0", "tool"])` — numeric segments
    /// index arrays.
    pub fn path(&self, segs: &[&str]) -> Option<&Value> {
        let mut cur = self;
        for s in segs {
            cur = match cur {
                Value::Obj(m) => m.get(*s)?,
                Value::Arr(a) => a.get(s.parse::<usize>().ok()?)?,
                _ => return None,
            };
        }
        Some(cur)
    }
}

const MAX_DEPTH: usize = 64;

/// Parse a JSON document. Errors carry a byte offset and a short cause.
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes: Vec<char> = text.chars().collect();
    let mut p = Parser { chars: bytes, i: 0 };
    p.ws();
    let v = p.value(0)?;
    p.ws();
    if p.i != p.chars.len() {
        return Err(format!("trailing content at offset {}", p.i));
    }
    Ok(v)
}

struct Parser {
    chars: Vec<char>,
    i: usize,
}

impl Parser {
    fn err(&self, what: &str) -> String {
        format!("{what} at offset {}", self.i)
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.i).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t' | '\n' | '\r')) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: char) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{c}`")))
        }
    }

    fn lit(&mut self, word: &str, v: Value) -> Result<Value, String> {
        for c in word.chars() {
            self.eat(c)?;
        }
        Ok(v)
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some('n') => self.lit("null", Value::Null),
            Some('t') => self.lit("true", Value::Bool(true)),
            Some('f') => self.lit("false", Value::Bool(false)),
            Some('"') => Ok(Value::Str(self.string()?)),
            Some('[') => self.array(depth),
            Some('{') => self.object(depth),
            Some(c) if c == '-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, String> {
        self.eat('[')?;
        let mut out = Vec::new();
        self.ws();
        if self.peek() == Some(']') {
            self.i += 1;
            return Ok(Value::Arr(out));
        }
        loop {
            self.ws();
            out.push(self.value(depth + 1)?);
            self.ws();
            match self.peek() {
                Some(',') => self.i += 1,
                Some(']') => {
                    self.i += 1;
                    return Ok(Value::Arr(out));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, String> {
        self.eat('{')?;
        let mut out = BTreeMap::new();
        self.ws();
        if self.peek() == Some('}') {
            self.i += 1;
            return Ok(Value::Obj(out));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            self.eat(':')?;
            self.ws();
            out.insert(key, self.value(depth + 1)?);
            self.ws();
            match self.peek() {
                Some(',') => self.i += 1,
                Some('}') => {
                    self.i += 1;
                    return Ok(Value::Obj(out));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat('"')?;
        let mut out = String::new();
        loop {
            let Some(c) = self.peek() else { return Err(self.err("unterminated string")) };
            self.i += 1;
            match c {
                '"' => return Ok(out),
                '\\' => {
                    let Some(e) = self.peek() else { return Err(self.err("bad escape")) };
                    self.i += 1;
                    match e {
                        '"' => out.push('"'),
                        '\\' => out.push('\\'),
                        '/' => out.push('/'),
                        'b' => out.push('\u{8}'),
                        'f' => out.push('\u{c}'),
                        'n' => out.push('\n'),
                        'r' => out.push('\r'),
                        't' => out.push('\t'),
                        'u' => {
                            let mut code = 0u32;
                            for _ in 0..4 {
                                let Some(h) = self.peek().and_then(|c| c.to_digit(16)) else {
                                    return Err(self.err("bad \\u escape"));
                                };
                                code = code * 16 + h;
                                self.i += 1;
                            }
                            // Surrogate pairs are folded to the
                            // replacement char: the lint engine never
                            // emits them.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                }
                c if (c as u32) < 0x20 => return Err(self.err("raw control char in string")),
                c => out.push(c),
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.i;
        if self.peek() == Some('-') {
            self.i += 1;
        }
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.i += 1;
        }
        if self.peek() == Some('.') {
            self.i += 1;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.i += 1;
            }
        }
        if matches!(self.peek(), Some('e' | 'E')) {
            self.i += 1;
            if matches!(self.peek(), Some('+' | '-')) {
                self.i += 1;
            }
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.i += 1;
            }
        }
        let text: String = self.chars[start..self.i].iter().collect();
        text.parse::<f64>().map(Value::Num).map_err(|_| self.err("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_the_engines_own_output() {
        let v = parse(r#"{"files_scanned":3,"clean":true,"violations":[{"rule":"no-print","line":7}]}"#)
            .unwrap();
        assert_eq!(v.get("files_scanned").and_then(Value::as_f64), Some(3.0));
        assert_eq!(v.path(&["violations", "0", "rule"]).and_then(Value::as_str), Some("no-print"));
    }

    #[test]
    fn escapes_and_unicode() {
        let v = parse(r#"{"s":"a\n\"b\"é"}"#).unwrap();
        assert_eq!(v.get("s").and_then(Value::as_str), Some("a\n\"b\"é"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "\"open", "{\"a\":1}x", "01a"] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn depth_cap_stops_recursion() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn numbers_parse() {
        let v = parse("[0, -3, 2.5, 1e3]").unwrap();
        let a = v.as_arr().unwrap();
        assert_eq!(a[1].as_f64(), Some(-3.0));
        assert_eq!(a[3].as_f64(), Some(1000.0));
    }
}
