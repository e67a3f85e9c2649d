//! Minimal JSON value, writer and parser.
//!
//! The build environment has no crates.io access, so the trace sinks
//! and the run-report export write JSON through this hand-rolled
//! value type rather than an external serialization crate. The parser
//! exists so tests (and downstream tooling) can round-trip
//! [`crate::sink::JsonlSink`] output without external crates; it
//! accepts exactly the JSON this module emits plus ordinary
//! whitespace, and rejects anything malformed.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Finite float (non-finite values serialize as `null`).
    Num(f64),
    /// Unsigned integer, kept exact (u64 counters exceed f64's 2^53
    /// integer range in principle).
    U64(u64),
    Str(String),
    Arr(Vec<Json>),
    /// Insertion-ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member by key (first match), if this is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            Json::U64(u) => Some(*u as f64),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(u) => Some(*u),
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 => Some(*x as u64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut buf = String::new();
        self.write_into(&mut buf);
        f.write_str(&buf)
    }
}

impl Json {
    fn write_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => {
                if x.is_finite() {
                    // `{}` on f64 always round-trips (shortest exact
                    // representation) and is valid JSON
                    out.push_str(&format!("{x}"));
                } else {
                    out.push_str("null");
                }
            }
            Json::U64(u) => out.push_str(&format!("{u}")),
            Json::Str(s) => escape_into(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write_into(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(out, k);
                    out.push(':');
                    v.write_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Build an object from key/value pairs (keeps insertion order).
pub fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// The canonical form of a value: object keys sorted bytewise at
/// every nesting level (arrays keep their order — element order is
/// meaningful). Two structurally equal documents that differ only in
/// member order canonicalize to the same value, and hence to the same
/// serialized string — the property the config-hash cache key relies
/// on. Scalars are untouched; the writer already emits the shortest
/// round-tripping form for floats.
pub fn canonicalize(v: &Json) -> Json {
    match v {
        Json::Arr(items) => Json::Arr(items.iter().map(canonicalize).collect()),
        Json::Obj(members) => {
            let mut sorted: Vec<(String, Json)> = members
                .iter()
                .map(|(k, v)| (k.clone(), canonicalize(v)))
                .collect();
            sorted.sort_by(|a, b| a.0.cmp(&b.0));
            Json::Obj(sorted)
        }
        scalar => scalar.clone(),
    }
}

/// Parse one JSON document; trailing whitespace is allowed, trailing
/// content is an error.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut p = Parser { bytes, pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(format!("trailing content at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {:?} at byte {}", other, self.pos)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("invalid \\u escape")?);
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // consume one UTF-8 scalar
                    let rest =
                        std::str::from_utf8(&self.bytes[self.pos..]).map_err(|e| e.to_string())?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == int_start {
            return Err(format!("bad number at byte {start}"));
        }
        let mut is_int = true;
        if self.peek() == Some(b'.') {
            is_int = false;
            self.pos += 1;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            is_int = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if is_int && !text.starts_with('-') {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::U64(u));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number {text:?}: {e}"))
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => return Err(format!("expected ',' or ']', found {other:?}")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            members.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                other => return Err(format!("expected ',' or '}}', found {other:?}")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_nested() {
        let v = obj(vec![
            ("a", Json::U64(18_446_744_073_709_551_615)),
            ("b", Json::Num(-1.5e-3)),
            ("s", Json::Str("he\"llo\n".into())),
            (
                "arr",
                Json::Arr(vec![Json::Null, Json::Bool(true), Json::Num(0.25)]),
            ),
            ("empty", Json::Obj(vec![])),
        ]);
        let text = v.to_string();
        let back = parse(&text).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn u64_counters_stay_exact() {
        let v = Json::U64(u64::MAX);
        let back = parse(&v.to_string()).unwrap();
        assert_eq!(back.as_u64(), Some(u64::MAX));
    }

    #[test]
    fn floats_roundtrip_bitwise() {
        for x in [0.1, 1.0 / 3.0, 1e-300, 123456.789e12] {
            let back = parse(&Json::Num(x).to_string()).unwrap();
            assert_eq!(back.as_f64().unwrap().to_bits(), x.to_bits());
        }
    }

    #[test]
    fn rejects_malformed() {
        for bad in ["{", "[1,]", "{\"a\"1}", "tru", "1.2.3", "\"\\x\"", "{} {}"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn canonicalize_sorts_keys_at_every_depth() {
        let a = parse(r#"{"b":1,"a":{"y":[{"q":1,"p":2}],"x":0}}"#).unwrap();
        let b = parse(r#"{"a":{"x":0,"y":[{"p":2,"q":1}]},"b":1}"#).unwrap();
        assert_ne!(a.to_string(), b.to_string());
        assert_eq!(canonicalize(&a).to_string(), canonicalize(&b).to_string());
        assert_eq!(
            canonicalize(&a).to_string(),
            r#"{"a":{"x":0,"y":[{"p":2,"q":1}]},"b":1}"#
        );
        // arrays keep element order
        let arr = parse("[2,1]").unwrap();
        assert_eq!(canonicalize(&arr).to_string(), "[2,1]");
        // canonicalizing is idempotent
        let once = canonicalize(&a);
        assert_eq!(canonicalize(&once), once);
    }

    #[test]
    fn parses_whitespace_and_nesting() {
        let v = parse(" { \"k\" : [ 1 , { \"n\" : null } ] } ").unwrap();
        assert_eq!(v.get("k").unwrap().as_array().unwrap().len(), 2);
    }
}
