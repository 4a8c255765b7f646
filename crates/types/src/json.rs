//! A small self-contained JSON reader/writer shared by the workspace.
//!
//! The gesture-trace codec, the persistent catalog manifest and the benchmark
//! result files all serialize structured data. The build environment is
//! offline, so instead of `serde_json` they use this dependency-free module: a
//! standard recursive-descent parser into a [`Json`] value tree plus a
//! pretty-printer. It covers the full JSON grammar (objects, arrays, strings
//! with escapes, numbers, booleans, null), not just one schema, so every
//! format built on it can evolve without touching the parser. Numbers are held
//! as `f64`; `f64` values round-trip exactly (Rust's shortest-representation
//! `Display`), and integers are exact up to 2^53 — every producer in this
//! workspace stays within that range.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (held as f64; the trace schema stays within 2^53).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object. Keys are sorted (BTreeMap) so output is deterministic.
    Object(BTreeMap<String, Json>),
}

/// Build a [`Json::Object`] from `(key, value)` pairs. Keys end up sorted
/// (BTreeMap), so rendering is deterministic — manifests and bench artifacts
/// are byte-stable for identical contents.
pub fn object<K: Into<String>>(entries: impl IntoIterator<Item = (K, Json)>) -> Json {
    Json::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.into(), v))
            .collect::<BTreeMap<_, _>>(),
    )
}

impl Json {
    /// Member of an object, if this is an object containing `key`.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as u64, if this is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Pretty-print with two-space indentation (matches the style the
    /// harnesses previously got from `serde_json::to_string_pretty`).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        let pad_in = "  ".repeat(indent + 1);
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Number(n) => write_number(out, *n),
            Json::String(s) => write_string(out, s),
            Json::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&pad_in);
                    item.write(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&pad);
                out.push(']');
            }
            Json::Object(map) => {
                if map.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (key, value)) in map.iter().enumerate() {
                    out.push_str(&pad_in);
                    write_string(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                    if i + 1 < map.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&pad);
                out.push('}');
            }
        }
    }
}

fn write_number(out: &mut String, n: f64) {
    if n.fract() == 0.0 && n.abs() < 1e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_string(out: &mut String, s: &str) {
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

/// Parse a JSON document. Trailing non-whitespace input is an error.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing characters at offset {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at offset {}",
                byte as char, self.pos
            ))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!(
                "unexpected character '{}' at offset {}",
                c as char, self.pos
            )),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at offset {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(map));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
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
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let code = self.hex4(self.pos + 1)?;
                            self.pos += 4;
                            if (0xD800..=0xDBFF).contains(&code) {
                                // UTF-16 surrogate pair: a second \uXXXX low
                                // surrogate must follow (standard encoders
                                // emit non-BMP characters this way).
                                if self.bytes.get(self.pos + 1) != Some(&b'\\')
                                    || self.bytes.get(self.pos + 2) != Some(&b'u')
                                {
                                    return Err("unpaired high surrogate in \\u escape".to_string());
                                }
                                let low = self.hex4(self.pos + 3)?;
                                if !(0xDC00..=0xDFFF).contains(&low) {
                                    return Err("invalid low surrogate in \\u escape".to_string());
                                }
                                let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                out.push(
                                    char::from_u32(combined)
                                        .ok_or_else(|| "invalid \\u code point".to_string())?,
                                );
                                self.pos += 6;
                            } else if (0xDC00..=0xDFFF).contains(&code) {
                                return Err("unpaired low surrogate in \\u escape".to_string());
                            } else {
                                out.push(
                                    char::from_u32(code)
                                        .ok_or_else(|| "invalid \\u code point".to_string())?,
                                );
                            }
                        }
                        _ => return Err(format!("invalid escape at offset {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole unescaped run up to the next quote or
                    // backslash. Both are ASCII, so the run ends on a char
                    // boundary of the (already valid UTF-8) input.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(self.bytes.len() - self.pos);
                    out.push_str(&self.text[self.pos..self.pos + run]);
                    self.pos += run;
                }
            }
        }
    }

    fn hex4(&self, at: usize) -> Result<u32, String> {
        let end = at + 4;
        if end > self.bytes.len() {
            return Err("truncated \\u escape".to_string());
        }
        let hex = std::str::from_utf8(&self.bytes[at..end])
            .map_err(|_| "invalid \\u escape".to_string())?;
        u32::from_str_radix(hex, 16).map_err(|_| "invalid \\u escape".to_string())
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "invalid number".to_string())?;
        text.parse::<f64>()
            .map(Json::Number)
            .map_err(|_| format!("invalid number '{text}' at offset {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_nested() {
        let mut obj = BTreeMap::new();
        obj.insert("name".to_string(), Json::String("a \"b\"\n".to_string()));
        obj.insert(
            "xs".to_string(),
            Json::Array(vec![Json::Number(1.5), Json::Number(-3.0), Json::Null]),
        );
        obj.insert("ok".to_string(), Json::Bool(true));
        let v = Json::Object(obj);
        let text = v.pretty();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{not json").is_err());
        assert!(parse("").is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("{\"a\": 1} trailing").is_err());
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let v = parse(r#""aA\t\\périscope""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "aA\t\\périscope");
    }

    #[test]
    fn parses_surrogate_pairs() {
        // Non-BMP characters escape as UTF-16 surrogate pairs (what standard
        // JSON encoders emit in ASCII mode).
        let v = parse(r#""col 😀""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "col \u{1F600}");
        assert!(parse(r#""\ud83d""#).is_err()); // unpaired high
        assert!(parse(r#""\ud83dxx""#).is_err()); // high not followed by \u
        assert!(parse(r#""\ude00""#).is_err()); // lone low
        assert!(parse(r#""\ud83dA""#).is_err()); // low out of range
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // 8 MiB of unescaped text with a few escapes and multi-byte
        // characters mixed in. Rescanning the rest of the input for every
        // character is quadratic and would run far past the bound; a linear
        // parse takes milliseconds.
        let chunk = "périscope ".repeat(1000);
        let mut text = String::new();
        while text.len() < 8 << 20 {
            text.push_str(&chunk);
            text.push_str("\\n\\\"\\u00e9");
        }
        let doc = format!("{{\"s\": \"{text}\"}}");
        let start = std::time::Instant::now();
        let parsed = parse(&doc).unwrap();
        let elapsed = start.elapsed();
        let expected = text
            .replace("\\n", "\n")
            .replace("\\\"", "\"")
            .replace("\\u00e9", "é");
        assert_eq!(parsed.get("s").and_then(Json::as_str), Some(&expected[..]));
        assert!(elapsed.as_secs() < 10, "8 MiB string took {elapsed:?}");
    }

    #[test]
    fn numbers() {
        assert_eq!(parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(parse("-1.5").unwrap().as_f64(), Some(-1.5));
        assert_eq!(parse("1e3").unwrap().as_f64(), Some(1000.0));
        assert!(parse("1.").unwrap().as_f64().is_some());
        assert!(parse("--3").is_err());
    }
}
