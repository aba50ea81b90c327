//! A minimal JSON value, writer, and parser.
//!
//! The build environment has no crates.io access, so exporters cannot use
//! `serde`. This module implements the subset of JSON the telemetry
//! exporters and their round-trip tests need: finite numbers, strings with
//! standard escapes, arrays, objects, booleans, and null. Object key order
//! is preserved (Chrome's trace viewer does not care, but deterministic
//! output makes golden tests trivial).

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (non-finite values serialize as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with preserved key order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience string constructor.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Member lookup on objects; `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, when a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a count, when a non-negative integer no larger than
    /// 2^53 (past which `f64` skips integers): the range every counter a
    /// document writes lies in.
    pub fn as_count(&self) -> Option<u64> {
        self.as_f64()
            .filter(|v| v.fract() == 0.0 && (0.0..=9_007_199_254_740_992.0).contains(v))
            .map(|v| v as u64)
    }

    /// The string value, when a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, when an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members, when an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Serializes compactly (no whitespace).
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Serializes into `out` without allocating intermediates.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(*n, out),
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a complete JSON document.
    ///
    /// # Errors
    ///
    /// Returns a message with the byte offset of the first syntax error,
    /// including trailing garbage after the top-level value and arrays
    /// or objects nested more than 128 levels deep.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }
}

/// JSON has no NaN/Infinity; emit `null` like browsers' `JSON.stringify`.
fn write_number(n: f64, out: &mut String) {
    if !n.is_finite() {
        out.push_str("null");
        return;
    }
    if n == n.trunc() && n.abs() < 9.0e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(&b) = bytes.get(*pos) {
        if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        } else {
            break;
        }
    }
}

/// Deepest array/object nesting [`Json::parse`] accepts. The writers in
/// this workspace nest fewer than 10 levels; the bound keeps a hostile or
/// corrupt input from overflowing the stack of the recursive descent.
const MAX_DEPTH: usize = 128;

/// Parses one value whose enclosing containers number `depth`.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[' | b'{') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {}",
            *pos
        )),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'-' | b'0'..=b'9') => parse_number(bytes, pos),
        Some(&b) => Err(format!("unexpected byte {:?} at {}", b as char, *pos)),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

/// Scans one number under the RFC 8259 grammar
/// (`-? (0 | [1-9][0-9]*) (.[0-9]+)? ([eE][+-]?[0-9]+)?`): no leading
/// zeros, no bare `.` or exponent marker, no leading `+`.
fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    let digits = |pos: &mut usize| {
        let from = *pos;
        while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
        }
        *pos - from
    };
    let invalid = |pos: usize| format!("invalid number at byte {start} (byte {pos})");
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    match bytes.get(*pos) {
        Some(b'0') => *pos += 1,
        Some(b'1'..=b'9') => {
            digits(pos);
        }
        _ => return Err(invalid(*pos)),
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        if digits(pos) == 0 {
            return Err(invalid(*pos));
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if digits(pos) == 0 {
            return Err(invalid(*pos));
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos])
        .unwrap_or_else(|_| unreachable!("scanned bytes are ascii digits"));
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number {text:?} at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes.get(*pos), Some(&b'"'));
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        // Exactly four hex digits: `from_str_radix` alone
                        // would also take a sign (`\u+041`).
                        if !hex.iter().all(u8::is_ascii_hexdigit) {
                            return Err(format!("bad \\u escape at byte {}", *pos));
                        }
                        let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        // Surrogate pairs are not produced by our writer;
                        // map lone surrogates to the replacement char.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run up to the next quote or backslash in one
                // step. Both are ASCII, so they never fall inside a
                // multi-byte scalar and the run of a valid &str is itself
                // valid UTF-8; validating only the run keeps the whole
                // parse linear in the document length. Raw control
                // characters must be escaped (RFC 8259 §7).
                let start = *pos;
                while let Some(&b) = bytes.get(*pos) {
                    match b {
                        b'"' | b'\\' => break,
                        0..=0x1f => return Err(format!("raw control character at byte {}", *pos)),
                        _ => *pos += 1,
                    }
                }
                let run = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| "invalid utf-8")?;
                out.push_str(run);
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // consume '{'
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected string key at byte {}", *pos));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {}", *pos));
        }
        *pos += 1;
        let value = parse_value(bytes, pos, depth)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_nested_document() {
        let doc = Json::Obj(vec![
            ("name".into(), Json::str("trace \"x\"\n")),
            ("pi".into(), Json::Num(3.25)),
            ("count".into(), Json::Num(42.0)),
            ("flag".into(), Json::Bool(true)),
            ("none".into(), Json::Null),
            (
                "items".into(),
                Json::Arr(vec![Json::Num(1.0), Json::str("two"), Json::Arr(vec![])]),
            ),
            ("empty".into(), Json::Obj(vec![])),
        ]);
        let text = doc.to_string_compact();
        let parsed = Json::parse(&text).expect("parses");
        assert_eq!(parsed, doc);
    }

    #[test]
    fn integers_print_without_exponent_or_fraction() {
        assert_eq!(Json::Num(1_000_000.0).to_string_compact(), "1000000");
        assert_eq!(Json::Num(-3.0).to_string_compact(), "-3");
        assert_eq!(Json::Num(0.5).to_string_compact(), "0.5");
        assert_eq!(Json::Num(f64::NAN).to_string_compact(), "null");
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let parsed = Json::parse(" { \"a\\u0041\" : [ 1 , -2.5e1 , \"\\t\" ] } ").unwrap();
        let arr = parsed.get("aA").unwrap().as_array().unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].as_f64(), Some(-25.0));
        assert_eq!(arr[2].as_str(), Some("\t"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\":}", "tru", "1 2", "{\"a\" 1}", "\"x"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn rejects_signed_or_short_unicode_escapes() {
        assert!(Json::parse("\"\\u+041\"").is_err());
        assert!(Json::parse("\"\\u-041\"").is_err());
        assert!(Json::parse("\"\\u04g1\"").is_err());
        assert!(Json::parse("\"\\u041\"").is_err());
        assert_eq!(Json::parse("\"\\u004A\"").unwrap().as_str(), Some("J"));
    }

    #[test]
    fn rejects_numbers_outside_the_rfc_grammar() {
        for bad in [
            "01", "-01", "1.", "-", ".5", "1.e3", "1e", "1e+", "--1", "1.5.2", "0x1",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
        for (good, value) in [
            ("0", 0.0),
            ("-0.5", -0.5),
            ("10", 10.0),
            ("2E-2", 0.02),
            ("1e+3", 1e3),
        ] {
            assert_eq!(Json::parse(good).unwrap().as_f64(), Some(value), "{good:?}");
        }
    }

    #[test]
    fn rejects_raw_control_characters_in_strings() {
        for bad in ["\"a\nb\"", "\"\t\"", "\"\u{1}\"", "{\"k\u{1f}\":1}"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
        assert_eq!(Json::parse("\"a\\nb\"").unwrap().as_str(), Some("a\nb"));
    }

    #[test]
    fn committed_baseline_round_trips_byte_for_byte() {
        let text = include_str!("../../../bench/baseline.json");
        let parsed = Json::parse(text).expect("the committed baseline parses");
        assert_eq!(parsed.to_string_compact(), text.trim_end());
    }

    #[test]
    fn accessors_return_none_on_type_mismatch() {
        let v = Json::parse("{\"a\":1}").unwrap();
        assert!(v.get("b").is_none());
        assert!(v.as_f64().is_none());
        assert!(v.as_array().is_none());
        assert_eq!(v.as_object().unwrap().len(), 1);
        assert!(Json::Num(1.0).get("a").is_none());
    }

    #[test]
    fn strings_mix_multibyte_scalars_and_escapes() {
        let text = "\"µ\\u00e9\\n→𝄞\\\"日本\\\\é\"";
        assert_eq!(Json::parse(text).unwrap().as_str(), Some("µé\n→𝄞\"日本\\é"));
        let doc = Json::Obj(vec![("ключ ✓".into(), Json::str("α\tβ \"γ\" 🦀\\"))]);
        assert_eq!(Json::parse(&doc.to_string_compact()).unwrap(), doc);
    }

    #[test]
    fn parses_a_million_character_string() {
        let long: String = "aé→🦀".chars().cycle().take(1_000_000).collect();
        let doc = Json::Arr(vec![Json::str(&long), Json::str(&long)]);
        let parsed = Json::parse(&doc.to_string_compact()).unwrap();
        assert_eq!(parsed, doc);
    }

    #[test]
    fn nesting_is_bounded_at_max_depth() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nested(MAX_DEPTH + 1)).is_err());
        let objects = "{\"a\":".repeat(MAX_DEPTH) + "1" + &"}".repeat(MAX_DEPTH);
        assert!(Json::parse(&objects).is_ok());
        let deeper = "{\"a\":".repeat(MAX_DEPTH) + "[]" + &"}".repeat(MAX_DEPTH);
        assert!(Json::parse(&deeper).is_err());
        assert!(Json::parse(&"[".repeat(1_000_000)).is_err());
    }
}
