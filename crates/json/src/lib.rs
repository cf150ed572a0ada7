//! A minimal JSON value with a hardened parser and a deterministic
//! writer, shared by everything in the workspace that speaks JSON: the
//! bench harness's `BENCH_*.json` timing files, the one-shot CLI's
//! `--emit-json` report emission, and the `turbosyn-serve` wire
//! protocol.
//!
//! Design constraints (all deliberate):
//!
//! * **No external dependencies.** The workspace is hermetic; this is a
//!   hand-rolled recursive-descent parser like the one it replaces in
//!   `turbosyn-bench`, promoted to a crate so it is written once. The
//!   only dependency is the sibling zero-dep `turbosyn-trace` crate,
//!   which the [`chrome`] exporter serializes.
//! * **Integers only.** Every schema in this workspace uses integer
//!   numbers (node counts, nanoseconds, φ values). Floating-point
//!   literals are rejected with a clear error rather than parsed with
//!   ambiguous round-tripping.
//! * **Deterministic output.** [`Json::write`] emits a canonical
//!   compact form — object keys in insertion order, no whitespace,
//!   fixed escaping — so "byte-identical reports" is a meaningful
//!   contract across processes (one-shot CLI vs. daemon).
//! * **Hostile-input safe.** Recursion depth is capped, escapes are
//!   validated (including `\uXXXX` surrogate pairs), and every failure
//!   is a typed [`JsonError`] with a byte position — never a panic.
//! * **Linear-time decode.** Parsing visits each input byte a bounded
//!   number of times: a string's plain runs are copied whole, so a
//!   service frame decodes in time linear in its size.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;

use std::fmt::Write as _;

/// Maximum container nesting depth accepted by [`Json::parse`].
///
/// Deep nesting is the classic stack-overflow vector for
/// recursive-descent parsers; nothing in this workspace nests past a
/// handful of levels.
pub const MAX_DEPTH: usize = 96;

/// A parsed JSON value.
///
/// Objects preserve insertion order (they are association lists, not
/// maps): writing a parsed value back out reproduces the original key
/// order, and emission order is fully under the caller's control.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer. Signed 128-bit covers every counter in the
    /// workspace (including `u64` totals) with room to spare.
    Int(i128),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order. Lookup takes the first match.
    Obj(Vec<(String, Json)>),
}

/// A parse failure: what went wrong and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where the problem was detected.
    pub pos: usize,
    /// Human-readable description.
    pub msg: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses one JSON value; trailing non-whitespace is an error.
    ///
    /// # Errors
    ///
    /// A [`JsonError`] naming the first syntax problem: bad literals,
    /// floating-point numbers, invalid escapes, unterminated strings,
    /// nesting beyond [`MAX_DEPTH`], or trailing garbage.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing garbage after the JSON value"));
        }
        Ok(v)
    }

    /// Serializes to the canonical compact form (no trailing newline).
    #[must_use]
    pub fn write(&self) -> String {
        let mut out = String::new();
        self.write_into(&mut out);
        out
    }

    /// Appends the canonical compact form to `out`.
    pub fn write_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => quote_into(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    quote_into(k, out);
                    out.push(':');
                    v.write_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Convenience constructor for an object from owned pairs.
    #[must_use]
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// First value stored under `key`, when `self` is an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, when `self` is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, when `self` is an integer.
    #[must_use]
    pub fn as_int(&self) -> Option<i128> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The integer payload as `u64`, when non-negative and in range.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        self.as_int().and_then(|n| u64::try_from(n).ok())
    }

    /// The integer payload as `usize`, when non-negative and in range.
    #[must_use]
    pub fn as_usize(&self) -> Option<usize> {
        self.as_int().and_then(|n| usize::try_from(n).ok())
    }

    /// The boolean payload, when `self` is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The items, when `self` is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The pairs, when `self` is an object.
    #[must_use]
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<i64> for Json {
    fn from(n: i64) -> Json {
        Json::Int(i128::from(n))
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Int(i128::from(n))
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Int(n as i128)
    }
}

impl From<u128> for Json {
    fn from(n: u128) -> Json {
        // Timing totals fit comfortably; saturate rather than wrap on
        // the astronomically unreachable overflow.
        Json::Int(i128::try_from(n).unwrap_or(i128::MAX))
    }
}

impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }
}

/// Quotes `s` as a JSON string literal (the writer's escaping rules).
#[must_use]
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    quote_into(s, &mut out);
    out
}

fn quote_into(s: &str, out: &mut String) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: impl Into<String>) -> JsonError {
        JsonError {
            pos: self.pos,
            msg: msg.into(),
        }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!(
                "expected '{}', found {}",
                b as char,
                describe(self.bytes.get(self.pos).copied())
            )))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("invalid literal (expected \"{word}\")")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(other) => Err(self.err(format!(
                "unexpected {} at the start of a value",
                describe(Some(other))
            ))),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => {
                    return Err(self.err(format!(
                        "expected ',' or ']' in array, found {}",
                        describe(other)
                    )))
                }
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            if self.peek() != Some(b'"') {
                return Err(self.err(format!(
                    "expected a string key, found {}",
                    describe(self.bytes.get(self.pos).copied())
                )));
            }
            let key = self.string()?;
            self.expect(b':')?;
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                other => {
                    return Err(self.err(format!(
                        "expected ',' or '}}' in object, found {}",
                        describe(other)
                    )))
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
        }
        if matches!(
            self.bytes.get(self.pos),
            Some(b'.') | Some(b'e') | Some(b'E')
        ) {
            return Err(self.err("floating-point numbers are not supported"));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits");
        if text.is_empty() || text == "-" {
            return Err(self.err("expected a number"));
        }
        text.parse::<i128>().map(Json::Int).map_err(|e| JsonError {
            pos: start,
            msg: format!("bad integer: {e}"),
        })
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let start = self.pos;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => {
                    self.pos = start;
                    return Err(self.err("unterminated string"));
                }
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escaped = self.bytes.get(self.pos).copied();
                    match escaped {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            out.push(self.unicode_escape()?);
                            continue;
                        }
                        other => {
                            return Err(
                                self.err(format!("unsupported escape \\{}", describe(other)))
                            )
                        }
                    }
                    self.pos += 1;
                }
                Some(&b) if b < 0x20 => {
                    return Err(self.err("raw control character in string"));
                }
                Some(_) => {
                    // Copy the whole run of plain bytes up to the next
                    // quote, backslash, control byte or end of input in
                    // one go. Every stop byte is ASCII, so the run starts
                    // and ends on char boundaries of the `&str` input and
                    // each input byte is visited once.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                        .map_or(self.bytes.len(), |n| self.pos + n);
                    out.push_str(&self.text[self.pos..run]);
                    self.pos = run;
                }
            }
        }
    }

    /// Parses the `XXXX` of a `\uXXXX` escape (the `\u` is consumed),
    /// joining surrogate pairs; leaves `pos` past the escape.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        if (0xD800..0xDC00).contains(&hi) {
            // High surrogate: require the paired low surrogate.
            if self.bytes[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let lo = self.hex4()?;
                if (0xDC00..0xE000).contains(&lo) {
                    let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    return char::from_u32(cp).ok_or_else(|| self.err("invalid surrogate pair"));
                }
            }
            return Err(self.err("unpaired high surrogate in \\u escape"));
        }
        if (0xDC00..0xE000).contains(&hi) {
            return Err(self.err("unpaired low surrogate in \\u escape"));
        }
        char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.bytes.get(self.pos) {
                Some(b @ b'0'..=b'9') => u32::from(b - b'0'),
                Some(b @ b'a'..=b'f') => u32::from(b - b'a') + 10,
                Some(b @ b'A'..=b'F') => u32::from(b - b'A') + 10,
                other => {
                    return Err(self.err(format!(
                        "expected a hex digit in \\u escape, found {}",
                        describe(other.copied())
                    )))
                }
            };
            v = (v << 4) | d;
            self.pos += 1;
        }
        Ok(v)
    }
}

fn describe(b: Option<u8>) -> String {
    match b {
        None => "end of input".to_string(),
        Some(b) if b.is_ascii_graphic() => format!("'{}'", b as char),
        Some(b) => format!("byte 0x{b:02x}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for text in [
            "null",
            "true",
            "false",
            "0",
            "-42",
            "170141183460469231731687303715884105727",
        ] {
            let v = Json::parse(text).expect(text);
            assert_eq!(v.write(), text);
        }
    }

    #[test]
    fn containers_round_trip_canonically() {
        let text = "{\"a\":[1,2,{\"b\":null}],\"c\":\"x\\ny\",\"d\":true}";
        let v = Json::parse(text).expect("parses");
        assert_eq!(v.write(), text, "canonical form is a fixed point");
        // Whitespace-laden input normalizes to the same bytes.
        let sloppy = "{ \"a\" : [ 1 , 2 , { \"b\" : null } ] ,\n\t\"c\":\"x\\ny\", \"d\" :true }";
        assert_eq!(Json::parse(sloppy).expect("parses").write(), text);
    }

    #[test]
    fn object_helpers() {
        let v = Json::obj(vec![
            ("name", Json::from("s420")),
            ("phi", Json::from(3i64)),
            ("ok", Json::from(true)),
            ("list", Json::from(vec![Json::from(1u64)])),
        ]);
        assert_eq!(v.get("name").and_then(Json::as_str), Some("s420"));
        assert_eq!(v.get("phi").and_then(Json::as_int), Some(3));
        assert_eq!(v.get("phi").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            v.get("list").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Null.get("name"), None);
    }

    #[test]
    fn unicode_escapes() {
        let v = Json::parse("\"\\u0041\\u00e9\\ud83d\\ude00\"").expect("parses");
        assert_eq!(v.as_str(), Some("Aé😀"));
        // Raw non-ASCII passes through and re-emits raw.
        let v = Json::parse("\"héllo\"").expect("parses");
        assert_eq!(v.write(), "\"héllo\"");
    }

    #[test]
    fn control_characters_escape_on_write() {
        let v = Json::Str("a\nb\tc\u{1}".to_string());
        let text = v.write();
        assert_eq!(text, "\"a\\nb\\tc\\u0001\"");
        assert_eq!(Json::parse(&text).expect("parses"), v);
    }

    #[test]
    fn negative_as_u64_is_none() {
        let v = Json::parse("-7").expect("parses");
        assert_eq!(v.as_int(), Some(-7));
        assert_eq!(v.as_u64(), None);
        assert_eq!(v.as_usize(), None);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "nul",
            "truex",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "{a:1}",
            "\"unterminated",
            "\"bad \\q escape\"",
            "\"\\u12g4\"",
            "\"\\ud800\"",
            "\"\\udc00 lone low\"",
            "1.5",
            "1e9",
            "-",
            "1 2",
            "[1] x",
            "\u{1}",
        ] {
            let got = Json::parse(bad);
            assert!(got.is_err(), "{bad:?} should be rejected, got {got:?}");
        }
        // Raw control character inside a string.
        assert!(Json::parse("\"a\u{1}b\"").is_err());
    }

    #[test]
    fn depth_limit_is_enforced() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        let err = Json::parse(&deep).expect_err("too deep");
        assert!(err.msg.contains("nesting"), "{err}");
        let ok = "[".repeat(MAX_DEPTH / 2) + &"]".repeat(MAX_DEPTH / 2);
        Json::parse(&ok).expect("within the limit");
    }

    #[test]
    fn errors_carry_positions() {
        let err = Json::parse("[1, x]").expect_err("bad value");
        assert_eq!(err.pos, 4);
        assert!(err.to_string().starts_with("byte 4:"));
    }

    /// Parses `text` as one string value and returns its payload.
    fn parse_str(text: &str) -> String {
        match Json::parse(text) {
            Ok(Json::Str(s)) => s,
            other => panic!("{text:?} should parse as a string, got {other:?}"),
        }
    }

    #[test]
    fn runs_mixed_with_multibyte_text_and_escapes_decode_exactly() {
        let run = "abcdefghij".repeat(50);
        let cases: Vec<(String, String)> = vec![
            // Multi-byte scalars as the first and the last character.
            (format!("\"é{run}😀\""), format!("é{run}😀")),
            (format!("\"😀{run}é\""), format!("😀{run}é")),
            // Escapes as the first and the last character of a run.
            (format!("\"\\n{run}\\t\""), format!("\n{run}\t")),
            // Every escape, back to back, between two runs.
            (
                format!("\"{run}\\\"\\\\\\/\\b\\f\\n\\r\\t\\u0041{run}\""),
                format!("{run}\"\\/\u{8}\u{c}\n\r\tA{run}"),
            ),
            // Surrogate pairs adjacent to runs and to raw 4-byte text.
            (
                format!("\"{run}\\ud83d\\ude00😀\\ud83d\\ude00{run}\""),
                format!("{run}😀😀😀{run}"),
            ),
            // Escaped multi-byte scalars next to their raw forms.
            (format!("\"é\\u00e9é{run}\\u00e9\""), format!("ééé{run}é")),
            // Empty string and a string of escapes only.
            ("\"\"".to_string(), String::new()),
            ("\"\\\\\\\\\"".to_string(), "\\\\".to_string()),
        ];
        for (text, want) in cases {
            assert_eq!(parse_str(&text), want, "decoding {text:?}");
            // The writer's form decodes to the same payload too.
            assert_eq!(parse_str(&quote(&want)), want);
        }
        // Runs inside containers and keys stop at the right quote.
        let v = Json::parse(&format!("{{\"k{run}é\":[\"{run}\",\"x\\\"y\"]}}")).expect("parses");
        assert_eq!(
            v,
            Json::Obj(vec![(
                format!("k{run}é"),
                Json::Arr(vec![Json::Str(run.clone()), Json::Str("x\"y".into())])
            )])
        );
    }

    #[test]
    fn string_errors_keep_their_positions_and_messages() {
        let run = "plain text ".repeat(20);
        let err = |text: &str| Json::parse(text).expect_err(text);
        // Unterminated strings are reported at the string start, just
        // past the opening quote, wherever the input runs out.
        let e = err(&format!("[1, \"{run}é"));
        assert_eq!((e.pos, e.msg.as_str()), (5, "unterminated string"));
        let e = err(&format!("\"{run}\\n"));
        assert_eq!((e.pos, e.msg.as_str()), (1, "unterminated string"));
        // A raw control byte mid-run is reported where it sits.
        let text = format!("\"{run}\u{1}{run}\"");
        let e = err(&text);
        assert_eq!(
            (e.pos, e.msg.as_str()),
            (1 + run.len(), "raw control character in string")
        );
        // A bad escape right after a run is reported at the escaped byte.
        let e = err(&format!("\"{run}é\\q\""));
        assert_eq!(
            (e.pos, e.msg.as_str()),
            (1 + run.len() + 2 + 1, "unsupported escape \\'q'")
        );
        // A backslash that ends the input.
        let e = err(&format!("\"{run}\\"));
        assert_eq!(
            (e.pos, e.msg.as_str()),
            (2 + run.len(), "unsupported escape \\end of input")
        );
        // A bad \u escape right after a run.
        let e = err(&format!("\"{run}\\u12g4\""));
        assert_eq!(
            (e.pos, e.msg.as_str()),
            (
                1 + run.len() + 4,
                "expected a hex digit in \\u escape, found 'g'"
            )
        );
    }

    #[test]
    fn one_mebibyte_string_round_trips() {
        let mut s = String::with_capacity(1 << 20);
        let mut i = 0u32;
        while s.len() < 1 << 20 {
            // Mostly ASCII runs, with every few hundred bytes a
            // character the writer escapes or a multi-byte scalar.
            s.push_str(".names a b y\n11 1\n");
            match i % 5 {
                0 => s.push('"'),
                1 => s.push('\\'),
                2 => s.push('é'),
                3 => s.push('😀'),
                _ => s.push('\u{1f}'),
            }
            i += 1;
        }
        let v = Json::Str(s);
        let text = v.write();
        assert!(text.len() > 1 << 20);
        assert_eq!(Json::parse(&text).expect("parses"), v);
    }

    #[test]
    fn quote_matches_writer() {
        assert_eq!(quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(Json::Str("a\"b\\c\n".into()).write(), quote("a\"b\\c\n"));
    }
}
