//! A minimal JSON document builder and reader.
//!
//! Object keys keep insertion order, so callers control field order
//! and the rendered output is byte-stable for a given input — which is
//! what lets the snapshot test pin the schema. [`JsonValue::parse`] is
//! the matching reader: a small recursive-descent parser used by the
//! trace explainer and the benchmark regression gate to load documents
//! this crate (or a compatible producer) wrote.

use std::fmt::Write as _;

/// Deepest array/object nesting [`JsonValue::parse`] accepts. The parser
/// recurses once per level, so without a cap a hostile document of a
/// few kilobytes of `[` overflows the stack of the thread parsing it.
const MAX_NESTING: usize = 128;

/// A JSON value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Integer, rendered without a fraction.
    Int(i64),
    /// Unsigned integer, rendered without a fraction.
    UInt(u64),
    /// Floating-point number. Non-finite values render as `null`.
    Float(f64),
    /// String, escaped on render.
    Str(String),
    /// Ordered array.
    Array(Vec<JsonValue>),
    /// Object with insertion-ordered keys.
    Object(Vec<(String, JsonValue)>),
}

impl From<&str> for JsonValue {
    fn from(v: &str) -> Self {
        JsonValue::Str(v.to_string())
    }
}
impl From<String> for JsonValue {
    fn from(v: String) -> Self {
        JsonValue::Str(v)
    }
}
impl From<bool> for JsonValue {
    fn from(v: bool) -> Self {
        JsonValue::Bool(v)
    }
}
impl From<u64> for JsonValue {
    fn from(v: u64) -> Self {
        JsonValue::UInt(v)
    }
}
impl From<u32> for JsonValue {
    fn from(v: u32) -> Self {
        JsonValue::UInt(v as u64)
    }
}
impl From<usize> for JsonValue {
    fn from(v: usize) -> Self {
        JsonValue::UInt(v as u64)
    }
}
impl From<i64> for JsonValue {
    fn from(v: i64) -> Self {
        JsonValue::Int(v)
    }
}
impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        JsonValue::Float(v)
    }
}

impl JsonValue {
    /// Builds an object from `(key, value)` pairs, keeping their order.
    pub fn object<K: Into<String>>(fields: impl IntoIterator<Item = (K, JsonValue)>) -> JsonValue {
        JsonValue::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Parses a JSON document.
    ///
    /// Accepts exactly one top-level value surrounded by optional
    /// whitespace. Integers that fit `i64`/`u64` parse to
    /// [`JsonValue::Int`]/[`JsonValue::UInt`]; everything else numeric
    /// parses to [`JsonValue::Float`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the byte offset of the first syntax
    /// error, or of the first array or object nested deeper than 128
    /// levels.
    pub fn parse(input: &str) -> Result<JsonValue, String> {
        let mut p = Parser {
            text: input,
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(value)
    }

    /// Object field lookup; `None` on missing keys and non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Any numeric payload, widened to `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Int(i) => Some(*i as f64),
            JsonValue::UInt(u) => Some(*u as f64),
            JsonValue::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// A non-negative integer payload, if this is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::UInt(u) => Some(*u),
            JsonValue::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Renders compact JSON (no whitespace).
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Appends the compact rendering to `out` — what
    /// [`render_compact`](Self::render_compact) returns.
    pub fn write_compact(&self, out: &mut String) {
        self.write(out, None, 0);
    }

    /// Appends `s` to `out` as a JSON string, escaped the way a
    /// [`JsonValue::Str`] renders.
    pub fn write_str(out: &mut String, s: &str) {
        write_escaped(out, s);
    }

    /// Renders pretty-printed JSON (two-space indent, `\n` newlines).
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Int(i) => {
                let _ = write!(out, "{i}");
            }
            JsonValue::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            JsonValue::Float(f) => {
                if f.is_finite() {
                    // `{}` on f64 prints the shortest round-trip form.
                    let _ = write!(out, "{f}");
                } else {
                    out.push_str("null");
                }
            }
            JsonValue::Str(s) => write_escaped(out, s),
            JsonValue::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            JsonValue::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_escaped(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }
}

/// Recursive-descent JSON parser over raw bytes.
struct Parser<'a> {
    /// The document; `bytes` is the same text as bytes.
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", byte as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_NESTING {
                    return Err(format!(
                        "nesting deeper than {MAX_NESTING} levels at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let value = if open == b'[' {
                    self.array()
                } else {
                    self.object_value()
                };
                self.depth -= 1;
                value
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object_value(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
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
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        // Unsized: a string without escapes allocates its one run exactly,
        // and pre-sizing an escaped one by a scan to the closing quote
        // cost more than the doublings it saved.
        let mut out = String::new();
        loop {
            let start = self.pos;
            let rest = &self.bytes[start..];
            self.pos += rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(rest.len());
            // `"` and `\` are ASCII, so the run between them ends on a
            // char boundary of the `&str` input and copies as it stands.
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| format!("unterminated escape at byte {}", self.pos))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let code = self.hex4()?;
                            // Surrogate pairs and lone surrogates are
                            // not produced by this crate's writer;
                            // map unpairable units to U+FFFD.
                            let c = if (0xd800..0xe000).contains(&code) {
                                '\u{fffd}'
                            } else {
                                char::from_u32(code).unwrap_or('\u{fffd}')
                            };
                            out.push(c);
                        }
                        _ => return Err(format!("invalid escape at byte {}", self.pos - 1)),
                    }
                }
                _ => return Err(format!("unterminated string at byte {}", self.pos)),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        let hex = self
            .text
            .get(self.pos..end)
            .ok_or_else(|| format!("truncated \\u escape at byte {}", self.pos))?;
        let code = u32::from_str_radix(hex, 16)
            .map_err(|_| format!("invalid \\u escape at byte {}", self.pos))?;
        self.pos = end;
        Ok(code)
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut integral = true;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    integral = false;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.text[start..self.pos];
        if integral {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(JsonValue::UInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(JsonValue::Int(i));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::Float)
            .map_err(|_| format!("invalid number at byte {start}"))
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    // Every byte that needs an escape is ASCII, and ASCII bytes never
    // occur inside a multi-byte UTF-8 sequence, so the runs between
    // them split `s` on char boundaries and copy wholesale.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_compact_and_pretty() {
        let v = JsonValue::object([
            ("name", JsonValue::from("q\"0\"")),
            ("n", JsonValue::from(3u64)),
            ("ratio", JsonValue::from(0.5)),
            (
                "steps",
                JsonValue::Array(vec![JsonValue::from(1u64), JsonValue::from(2u64)]),
            ),
            ("empty", JsonValue::Array(vec![])),
            ("none", JsonValue::Null),
        ]);
        assert_eq!(
            v.render_compact(),
            r#"{"name":"q\"0\"","n":3,"ratio":0.5,"steps":[1,2],"empty":[],"none":null}"#
        );
        let pretty = v.render_pretty();
        assert!(pretty.starts_with("{\n  \"name\": \"q\\\"0\\\"\",\n  \"n\": 3,"));
        assert!(pretty.ends_with("\n}"));
    }

    #[test]
    fn non_finite_floats_render_null() {
        assert_eq!(JsonValue::Float(f64::NAN).render_compact(), "null");
        assert_eq!(JsonValue::Float(f64::INFINITY).render_compact(), "null");
    }

    #[test]
    fn control_chars_are_escaped() {
        let rendered = JsonValue::from("a\nb\x01").render_compact();
        let expected = format!("\"a\\nb\\u{:04x}\"", 1);
        assert_eq!(rendered, expected);
    }

    #[test]
    fn run_escaping_matches_a_char_wise_reference() {
        fn reference(s: &str) -> String {
            let mut out = String::from('"');
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
            out
        }
        let controls: String = (0u8..0x20).map(char::from).collect();
        let cases = [
            String::new(),
            "plain ascii".to_string(),
            controls.clone(),
            format!("a{controls}b"),
            "\"quoted\" and back\\slash\\".to_string(),
            "q\"0\"\n\t".to_string(),
            "é ü 中文 🦀 \u{2028} \u{2029} \u{7f}".to_string(),
            format!("🦀\"{controls}\u{2028}\\é"),
            "\\\"".repeat(5),
            "\u{2028}".to_string(),
        ];
        for case in &cases {
            let mut out = String::new();
            write_escaped(&mut out, case);
            assert_eq!(out, reference(case), "{case:?}");
            assert_eq!(
                JsonValue::parse(&out).unwrap(),
                JsonValue::from(case.as_str())
            );
        }
    }

    #[test]
    fn parse_round_trips_rendered_documents() {
        let v = JsonValue::object([
            ("name", JsonValue::from("q\"0\"\n\t")),
            ("n", JsonValue::from(3u64)),
            ("neg", JsonValue::from(-7i64)),
            ("ratio", JsonValue::from(0.5)),
            (
                "steps",
                JsonValue::Array(vec![JsonValue::from(1u64), JsonValue::Bool(true)]),
            ),
            ("empty", JsonValue::Array(vec![])),
            ("none", JsonValue::Null),
        ]);
        assert_eq!(JsonValue::parse(&v.render_compact()).unwrap(), v);
        assert_eq!(JsonValue::parse(&v.render_pretty()).unwrap(), v);
    }

    #[test]
    fn parse_handles_escapes_and_numbers() {
        assert_eq!(
            JsonValue::parse(r#""aA\n""#).unwrap(),
            JsonValue::from("aA\n")
        );
        assert_eq!(JsonValue::parse("1e3").unwrap(), JsonValue::Float(1000.0));
        assert_eq!(JsonValue::parse("-2.5").unwrap(), JsonValue::Float(-2.5));
        assert_eq!(
            JsonValue::parse("18446744073709551615").unwrap(),
            JsonValue::UInt(u64::MAX)
        );
        assert_eq!(JsonValue::parse("-3").unwrap(), JsonValue::Int(-3));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in ["", "{", "[1,", "\"open", "nul", "{\"a\" 1}", "1 2", "{]"] {
            assert!(JsonValue::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    /// The string reader as it stood before it sliced its input: a
    /// UTF-8 check per unescaped run. `doc` is one JSON string literal.
    fn reference_string(doc: &str) -> Result<String, String> {
        let bytes = doc.as_bytes();
        if bytes.first() != Some(&b'"') {
            return Err("expected '\"' at byte 0".to_string());
        }
        let mut pos = 1;
        let mut out = String::new();
        loop {
            let start = pos;
            while matches!(bytes.get(pos), Some(&b) if b != b'"' && b != b'\\') {
                pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&bytes[start..pos])
                    .map_err(|_| format!("invalid UTF-8 near byte {start}"))?,
            );
            match bytes.get(pos) {
                Some(b'"') => return Ok(out),
                Some(b'\\') => {
                    pos += 1;
                    let esc = *bytes
                        .get(pos)
                        .ok_or_else(|| format!("unterminated escape at byte {pos}"))?;
                    pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = bytes
                                .get(pos..pos + 4)
                                .and_then(|b| std::str::from_utf8(b).ok())
                                .ok_or_else(|| format!("truncated \\u escape at byte {pos}"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("invalid \\u escape at byte {pos}"))?;
                            pos += 4;
                            out.push(if (0xd800..0xe000).contains(&code) {
                                '\u{fffd}'
                            } else {
                                char::from_u32(code).unwrap_or('\u{fffd}')
                            });
                        }
                        _ => return Err(format!("invalid escape at byte {}", pos - 1)),
                    }
                }
                _ => return Err(format!("unterminated string at byte {pos}")),
            }
        }
    }

    /// Random string literals — plain and multi-byte text, every simple
    /// escape, `\u` escapes (surrogates, malformed hex and hex cut by a
    /// multi-byte character among them), unknown escapes and truncated
    /// endings — read the same through the slicing reader as through the
    /// reference, errors included.
    #[test]
    fn string_reader_matches_the_run_validating_reference() {
        const PIECES: [&str; 21] = [
            "a", "QASM ", "q[12];", "é", "中文", "🦀", "\u{2028}", "\n", "\\\"", "\\\\", "\\/",
            "\\b", "\\f", "\\r", "\\t", "\\u00e9", "\\ud83e", "\\uDFFF", "\\u12g4", "\\u000é",
            "\\x",
        ];
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        let mut errors = 0;
        for _ in 0..4000 {
            let mut doc = String::from('"');
            for _ in 0..next(12) {
                doc.push_str(PIECES[next(PIECES.len() as u64) as usize]);
            }
            match next(8) {
                0 => {}
                1 => doc.push('\\'),
                2 => doc.push_str("\\u0"),
                _ => doc.push('"'),
            }
            let expected = reference_string(&doc).map(JsonValue::Str);
            errors += usize::from(expected.is_err());
            assert_eq!(JsonValue::parse(&doc), expected, "{doc:?}");
        }
        assert!(errors > 0, "the sample covers malformed literals");
    }

    #[test]
    fn parse_caps_nesting_depth() {
        let arrays = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let objects = |depth: usize| format!("{}1{}", "{\"a\":".repeat(depth), "}".repeat(depth));
        assert!(JsonValue::parse(&arrays(MAX_NESTING)).is_ok());
        assert!(JsonValue::parse(&objects(MAX_NESTING)).is_ok());
        let err = JsonValue::parse(&arrays(MAX_NESTING + 1)).unwrap_err();
        assert_eq!(
            err,
            format!("nesting deeper than {MAX_NESTING} levels at byte {MAX_NESTING}")
        );
        let err = JsonValue::parse(&objects(MAX_NESTING + 1)).unwrap_err();
        assert!(err.starts_with("nesting deeper than"), "{err}");
    }

    #[test]
    fn accessors_extract_typed_payloads() {
        let v = JsonValue::parse(r#"{"s":"x","b":true,"u":4,"f":2.5,"a":[1]}"#).unwrap();
        assert_eq!(v.get("s").and_then(JsonValue::as_str), Some("x"));
        assert_eq!(v.get("b").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(v.get("u").and_then(JsonValue::as_u64), Some(4));
        assert_eq!(v.get("f").and_then(JsonValue::as_f64), Some(2.5));
        assert_eq!(
            v.get("a").and_then(JsonValue::as_array).map(|a| a.len()),
            Some(1)
        );
        assert!(v.get("missing").is_none());
        assert!(JsonValue::Null.get("s").is_none());
    }
}
