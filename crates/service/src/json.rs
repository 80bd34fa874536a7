//! A minimal, dependency-free JSON reader/writer for the jsonl wire
//! protocol.
//!
//! The workspace builds offline with no external crates, so the service
//! carries its own ~200-line recursive-descent parser. It accepts
//! standard JSON (objects, arrays, strings with escapes, numbers, bools,
//! null); numbers are held as `f64`, which is exact for every integer
//! the protocol uses (< 2⁵³). Writing goes the other way through
//! [`escape`] and the `obj!` convenience in `proto` — there is no DOM
//! round-trip on the hot path.
//!
//! The parser works on the byte slice: a number token is found in one
//! scan of the slice and handed to `f64::from_str` (exact rounding), and
//! whitespace is skipped the same way. Arrays and objects may nest at
//! most [`MAX_DEPTH`] deep; deeper input is an error, not an unbounded
//! recursion, so a line of a million `[` cannot overflow the stack of
//! the connection thread parsing it.

use std::collections::BTreeMap;

/// How deep arrays and objects may nest in one document. The protocol
/// uses two levels; the limit only bounds the parser's recursion.
pub const MAX_DEPTH: usize = 128;

/// One parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (integers are exact below 2⁵³).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. `BTreeMap` keeps iteration deterministic.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parses one complete JSON document, rejecting trailing garbage.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object field lookup (`None` for non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= 2f64.powi(53) => Some(*x as u64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

struct Parser<'a> {
    text: &'a str,
    /// `text`'s bytes. Every token ends at an ASCII byte, so slicing
    /// `text` at token boundaries never splits a character.
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl Parser<'_> {
    /// Length of the run at the front of `self.bytes[self.pos..]` whose
    /// bytes all satisfy `f`.
    #[inline]
    fn run(&self, f: impl Fn(u8) -> bool) -> usize {
        let rest = &self.bytes[self.pos..];
        rest.iter().position(|&b| !f(b)).unwrap_or(rest.len())
    }

    fn skip_ws(&mut self) {
        self.pos += self.run(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'));
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

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{' | b'[') if self.depth == MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )),
            Some(b'{') => self.nested(Parser::object),
            Some(b'[') => self.nested(Parser::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    /// Parses one array or object one level deeper.
    fn nested(&mut self, f: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
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
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let s = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                            let code =
                                u32::from_str_radix(s, 16).map_err(|_| "bad \\u escape hex")?;
                            self.pos += 4;
                            // Surrogate pairs are outside the protocol's
                            // needs; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape '\\{}'", other as char)),
                    }
                }
                Some(_) => {
                    // Copy the maximal run of plain bytes in one shot.
                    // Validating per-character would re-scan the whole
                    // remaining tail each time — quadratic in the string
                    // length, which matters for long string fields (a
                    // matrix path, a large request's payload). Stopping at
                    // `"` or `\` never splits a UTF-8 scalar: both are
                    // ASCII and cannot appear inside a multi-byte sequence.
                    let start = self.pos;
                    self.pos += self.run(|b| b != b'"' && b != b'\\');
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        // The leading '-' is in the token alphabet too.
        let start = self.pos;
        self.pos += self.run(|b| matches!(b, b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-'));
        let text = &self.text[start..self.pos];
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number '{text}' at byte {start}"))
    }
}

/// Quotes and escapes a string for JSON output.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders an `f64` as a JSON number (`null` for NaN/∞, which JSON
/// cannot represent).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let j =
            Json::parse(r#"{"op":"solve","k":4,"rhs":[1,2.5,-3e2],"deep":{"x":true,"y":null}}"#)
                .unwrap();
        assert_eq!(j.get("op").unwrap().as_str(), Some("solve"));
        assert_eq!(j.get("k").unwrap().as_u64(), Some(4));
        let rhs = j.get("rhs").unwrap().as_array().unwrap();
        assert_eq!(rhs.len(), 3);
        assert_eq!(rhs[2].as_f64(), Some(-300.0));
        assert_eq!(
            j.get("deep").unwrap().get("x").unwrap().as_bool(),
            Some(true)
        );
        assert_eq!(j.get("deep").unwrap().get("y"), Some(&Json::Null));
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "a\"b\\c\nd\te\u{1}ف";
        let quoted = escape(original);
        let parsed = Json::parse(&quoted).unwrap();
        assert_eq!(parsed.as_str(), Some(original));
    }

    #[test]
    fn megabyte_payload_string_parses_in_linear_time() {
        // A megabyte string field must parse in linear time. A
        // per-character path that re-validates the whole remaining tail
        // for every byte is quadratic — minutes of CPU at this size. This
        // round-trip finishes instantly with the linear run-copy path
        // and regresses loudly (test timeout) with the quadratic one.
        let payload = "0123456789abcdef".repeat(1 << 16);
        let doc = format!("{{\"op\":\"done\",\"payload\":\"{payload}\"}}");
        let parsed = Json::parse(&doc).unwrap();
        assert_eq!(parsed.get("payload").unwrap().as_str(), Some(&payload[..]));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "nul",
            "1 2",
            "\"unterminated",
            "{\"a\":1}x",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn numbers_parse_exactly() {
        assert_eq!(Json::parse("0").unwrap().as_u64(), Some(0));
        assert_eq!(
            Json::parse("9007199254740992").unwrap().as_u64(),
            Some(1 << 53)
        );
        assert_eq!(Json::parse("-1.5").unwrap().as_f64(), Some(-1.5));
        assert_eq!(
            Json::parse("-1").unwrap().as_u64(),
            None,
            "negative is not u64"
        );
        assert_eq!(
            Json::parse("1.5").unwrap().as_u64(),
            None,
            "fraction is not u64"
        );
    }

    #[test]
    fn non_finite_serializes_as_null() {
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
        assert_eq!(num(1.25), "1.25");
    }
}
