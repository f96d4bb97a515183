//! The workspace's one JSON module: a minimal value model, a compact and
//! an indented printer, and a recursive-descent parser.
//!
//! Every JSON artifact the workspace writes is built as a [`Json`] value
//! and printed here: disk-cache entries and `stng-batch --json` reports
//! (compact), Chrome traces (compact), metrics snapshots, `stng-verify`
//! reports and `BENCH_N.json` snapshots ([`Json::pretty`]). Nothing else
//! escapes strings or lays out JSON, so every artifact re-parses with
//! [`Json::parse`].
//!
//! The model is deliberately small: objects keep insertion order (stable
//! files, stable diffs), numbers are `f64` (every integer the codec stores
//! fits in the 2⁵³ exact range; the 128-bit fingerprint travels as a hex
//! string) except unsigned integers beyond that range, which keep every
//! digit as [`Json::U64`] (64-bit seeds), and the printers emit the
//! shortest round-trippable float form (Rust's `{}` for `f64`). The compact form is part of the disk-cache
//! format: changing it would invalidate every stored entry's checksum.

use std::fmt::Write as _;

/// 2⁵³: integers up to this magnitude are exact in `f64`.
const EXACT_INT: f64 = 9.007_199_254_740_992e15;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    /// An unsigned integer above 2⁵³, where `f64` would drop digits. Built
    /// by [`nu64`] and produced by the parser only for such integers, so
    /// every value still round-trips.
    U64(u64),
    Str(String),
    Arr(Vec<Json>),
    /// Object as an ordered key–value list (no duplicate keys are produced
    /// by the codec; lookup takes the first match).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a float.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            Json::U64(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The value as an unsigned integer (must be integral and in range).
    pub fn as_u64(&self) -> Option<u64> {
        if let Json::U64(v) = self {
            return Some(*v);
        }
        let v = self.as_f64()?;
        (v >= 0.0 && v.fract() == 0.0 && v <= EXACT_INT).then_some(v as u64)
    }

    /// The value as a signed integer (must be integral and in range).
    pub fn as_i64(&self) -> Option<i64> {
        if let Json::U64(v) = self {
            return i64::try_from(*v).ok();
        }
        let v = self.as_f64()?;
        (v.fract() == 0.0 && v.abs() <= EXACT_INT).then_some(v as i64)
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(v) => {
                if v.is_finite() {
                    write!(out, "{v}").expect("writing to a String cannot fail");
                } else {
                    // JSON has no Inf/NaN; the codec never produces them.
                    out.push_str("null");
                }
            }
            Json::U64(v) => write!(out, "{v}").expect("writing to a String cannot fail"),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (k, item) in items.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (k, (key, value)) in fields.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    write_escaped(out, key);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            out.push('\n');
            for _ in 0..depth {
                out.push_str("  ");
            }
        };
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push('[');
                for (k, item) in items.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                }
                newline(out, depth);
                out.push(']');
            }
            Json::Obj(fields) if !fields.is_empty() => {
                out.push('{');
                for (k, (key, value)) in fields.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write_pretty(out, depth + 1);
                }
                newline(out, depth);
                out.push('}');
            }
            scalar_or_empty => scalar_or_empty.write(out),
        }
    }

    /// Serializes with two-space indentation and a trailing newline: the
    /// form of the files people read (reports, snapshots). Parses back to
    /// the same value as [`Json::to_string`].
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    /// Serializes compactly (no insignificant whitespace). Equivalent to
    /// `format!("{self}")` but avoids formatter overhead on large trees.
    #[allow(clippy::inherent_to_string_shadow_display)]
    pub fn to_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Parses a JSON document (must consume all non-whitespace input).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            at: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.at != p.bytes.len() {
            return Err(format!("trailing input at byte {}", p.at));
        }
        Ok(value)
    }
}

impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_string())
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail")
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self.at < self.bytes.len() && self.bytes[self.at].is_ascii_whitespace() {
            self.at += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.at,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.at..].starts_with(text.as_bytes()) {
            self.at += text.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.at))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {:?} at byte {}", other, self.at)),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found {other:?}",
                        self.at
                    ))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Obj(fields));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {other:?}",
                        self.at
                    ))
                }
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
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hi = self.unicode_escape()?;
                            // Surrogate pair handling for completeness. The
                            // low half must be validated before combining:
                            // corrupt cache files must parse-error (read as
                            // misses), never panic.
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                if self.bytes[self.at..].starts_with(b"\\u") {
                                    self.at += 1; // onto the 'u'
                                    let lo = self.unicode_escape()?;
                                    if (0xDC00..0xE000).contains(&lo) {
                                        char::from_u32(
                                            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00),
                                        )
                                    } else {
                                        None
                                    }
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(hi)
                            };
                            out.push(c.ok_or_else(|| "invalid \\u escape".to_string())?);
                            continue;
                        }
                        other => return Err(format!("invalid escape {other:?}")),
                    }
                    self.at += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character (input is a &str, so the
                    // byte stream is valid UTF-8).
                    let rest = std::str::from_utf8(&self.bytes[self.at..])
                        .map_err(|_| "invalid utf-8".to_string())?;
                    let c = rest.chars().next().expect("peeked non-empty");
                    out.push(c);
                    self.at += c.len_utf8();
                }
            }
        }
    }

    /// Parses the 4 hex digits after `\u` (cursor on the `u`).
    fn unicode_escape(&mut self) -> Result<u32, String> {
        let start = self.at + 1;
        let end = start + 4;
        if end > self.bytes.len() {
            return Err("truncated \\u escape".to_string());
        }
        let hex = std::str::from_utf8(&self.bytes[start..end])
            .map_err(|_| "invalid \\u escape".to_string())?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| "invalid \\u escape".to_string())?;
        self.at = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        while self
            .peek()
            .map(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
            .unwrap_or(false)
        {
            self.at += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at])
            .map_err(|_| "invalid number".to_string())?;
        if let Ok(v) = text.parse::<u64>() {
            if v as f64 > EXACT_INT {
                return Ok(Json::U64(v));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("invalid number {text:?}: {e}"))
    }
}

/// Convenience: builds an object from key–value pairs.
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Convenience: a string value.
pub fn s(text: impl Into<String>) -> Json {
    Json::Str(text.into())
}

/// Convenience: a numeric value from anything convertible to f64 exactly.
pub fn n(value: impl Into<f64>) -> Json {
    Json::Num(value.into())
}

/// A usize as a JSON number (counts in this codebase stay well inside the
/// exact-integer range of f64).
pub fn nu(value: usize) -> Json {
    Json::Num(value as f64)
}

/// A u64 as a JSON number, exact at any size: [`Json::U64`] above 2⁵³.
pub fn nu64(value: u64) -> Json {
    if value as f64 > EXACT_INT {
        Json::U64(value)
    } else {
        Json::Num(value as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_values() {
        let v = obj(vec![
            ("a", Json::Arr(vec![n(1.0), n(-2.5), Json::Null])),
            ("b", s("text with \"quotes\" and \\ and \n newline")),
            ("c", obj(vec![("nested", Json::Bool(true))])),
            ("d", n(1e300)),
        ]);
        let text = v.to_string();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn pretty_indents_by_two_spaces_and_parses_back() {
        let v = obj(vec![
            ("a", Json::Arr(vec![n(1), s("x\"\\\n\u{1}")])),
            ("empty", obj(vec![])),
            ("none", Json::Arr(vec![])),
            ("b", obj(vec![("c", Json::Bool(false))])),
        ]);
        let text = v.pretty();
        assert_eq!(
            text,
            "{\n  \"a\": [\n    1,\n    \"x\\\"\\\\\\n\\u0001\"\n  ],\n  \"empty\": {},\n  \
             \"none\": [],\n  \"b\": {\n    \"c\": false\n  }\n}\n"
        );
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn floats_round_trip_exactly() {
        for x in [0.1, 1.0 / 3.0, 0.3333, 6.0, -0.0416, f64::MIN_POSITIVE] {
            let text = Json::Num(x).to_string();
            assert_eq!(Json::parse(&text).unwrap().as_f64(), Some(x), "{x}");
        }
    }

    #[test]
    fn integers_round_trip_through_as_u64() {
        let v = nu(123_456_789_012_345);
        let back = Json::parse(&v.to_string()).unwrap();
        assert_eq!(back.as_u64(), Some(123_456_789_012_345));
        assert_eq!(Json::parse("-7").unwrap().as_i64(), Some(-7));
        assert_eq!(Json::parse("1.5").unwrap().as_u64(), None);
        // Beyond 2^53 every digit survives, and the value round-trips.
        let seed = nu64(0x57e9_c11a_0000_0001);
        let text = seed.to_string();
        assert_eq!(text, "6334806668286623745");
        assert_eq!(Json::parse(&text).unwrap(), seed);
        assert_eq!(
            Json::parse(&text).unwrap().as_u64(),
            Some(0x57e9_c11a_0000_0001)
        );
        assert_eq!(nu64(7), Json::Num(7.0));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("123 456").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(Json::parse("\"\\u00e9\\ud83d\\ude00\"").unwrap(), s("é😀"));
        // A high surrogate followed by a non-surrogate escape is a parse
        // error, not a panic (corrupt cache files must read as misses).
        assert!(Json::parse("\"\\ud800\\u0041\"").is_err());
        assert!(Json::parse("\"\\ud800x\"").is_err());
    }
}
