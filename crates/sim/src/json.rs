//! The one JSON module: every document, event line and journal line the
//! workspace writes is rendered here, and every JSON text it reads back
//! is parsed here. No dependencies.
//!
//! Writing: [`json_string`] and [`json_f64`] render scalars, an
//! [`Object`] appends `"key": value` members in insertion order,
//! [`array()`] renders `[a, b]`, and [`opt`] renders `null` for a missing
//! value. A document that spans lines keeps its own layout: its
//! top-level object is an [`Object::lines`], and [`lines`] lays out the
//! items of an array one to a line.
//!
//! Reading: [`parse_json`] is a small recursive-descent parser into
//! [`JsonValue`], whose `Display` writes the value back as compact JSON:
//! an integer as it was written, any other number through [`json_f64`].
//! [`parse_lines`] reads the append-only JSON-lines files (the sweep
//! journal and the events journal) and owns their one torn-tail rule.
//!
//! ```
//! use bfbp_sim::json::{array, opt, parse_json, Object};
//!
//! let doc = Object::new()
//!     .str("name", "a\"b")
//!     .member("counts", array([1, 2]))
//!     .f64("mpki", 2.0)
//!     .member("table", opt(None::<u32>));
//! let text = doc.to_string();
//! assert_eq!(text, r#"{"name": "a\"b", "counts": [1, 2], "mpki": 2.0, "table": null}"#);
//! assert_eq!(parse_json(&text).unwrap().to_string(), text);
//! ```

use std::fmt::{self, Write};

/// Renders a JSON string literal (quoted, escaped).
pub fn json_string(s: &str) -> String {
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

/// Renders an `f64` as a JSON number (`null` for non-finite values).
/// Rust's shortest-roundtrip `Display` never uses exponent notation, so
/// the output is always a valid JSON literal and deterministic.
pub fn json_f64(x: f64) -> String {
    if x.is_finite() {
        let mut s = x.to_string();
        if !s.contains('.') {
            s.push_str(".0");
        }
        s
    } else {
        "null".to_owned()
    }
}

/// Renders `items`, each already JSON, as a one-line array: `[a, b]`.
pub fn array<T: fmt::Display>(items: impl IntoIterator<Item = T>) -> String {
    let items: Vec<String> = items.into_iter().map(|item| item.to_string()).collect();
    format!("[{}]", items.join(", "))
}

/// Renders `value`, already JSON, or `null` when it is missing.
pub fn opt<T: fmt::Display>(value: Option<T>) -> String {
    value.map_or_else(|| "null".to_owned(), |v| v.to_string())
}

/// Renders `items`, each already JSON, one to a line: every line starts
/// with `indent` and ends with a newline, and all but the last carry a
/// comma. This is the body of an array that spans lines; the caller
/// writes the brackets, because each document places them its own way.
pub fn lines<T: fmt::Display>(items: impl IntoIterator<Item = T>, indent: &str) -> String {
    let items: Vec<String> = items
        .into_iter()
        .map(|item| format!("{indent}{item}"))
        .collect();
    if items.is_empty() {
        String::new()
    } else {
        items.join(",\n") + "\n"
    }
}

/// A JSON object under construction: `"key": value` members in
/// insertion order, rendered by `Display`.
///
/// [`Object::new`] renders on one line, `{"a": 1, "b": 2}`.
/// [`Object::lines`] puts each member on its own line after an indent
/// and the closing brace on a line two spaces further left: the layout
/// of a document's top-level object.
#[derive(Debug, Clone, Default)]
pub struct Object {
    members: String,
    indent: &'static str,
}

impl Object {
    /// An empty one-line object.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty object with one member per line, each after `indent`
    /// (at least two spaces).
    pub fn lines(indent: &'static str) -> Self {
        Self {
            members: String::new(),
            indent,
        }
    }

    fn separate(&mut self) {
        if self.members.is_empty() {
            return;
        }
        if self.indent.is_empty() {
            self.members.push_str(", ");
        } else {
            self.members.push_str(",\n");
            self.members.push_str(self.indent);
        }
    }

    /// Appends a member whose value is already JSON: a number, a bool,
    /// or a rendered object or array.
    pub fn member(mut self, key: &str, value: impl fmt::Display) -> Self {
        self.separate();
        let _ = write!(self.members, "{}: {value}", json_string(key));
        self
    }

    /// Appends a string member (escaped).
    pub fn str(self, key: &str, value: &str) -> Self {
        self.member(key, json_string(value))
    }

    /// Appends a float member, rendered by [`json_f64`].
    pub fn f64(self, key: &str, value: f64) -> Self {
        self.member(key, json_f64(value))
    }

    /// Appends every member of `other`, in its order.
    pub fn append(mut self, other: &Object) -> Self {
        if !other.members.is_empty() {
            self.separate();
            self.members.push_str(&other.members);
        }
        self
    }

    /// Whether no member was added.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The members without the braces, for a layout that continues the
    /// object on further lines.
    pub fn members(&self) -> &str {
        &self.members
    }
}

/// Collects `(key, value)` members, each value already JSON, into a
/// one-line object.
impl<K: AsRef<str>, V: fmt::Display> FromIterator<(K, V)> for Object {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(members: I) -> Self {
        members
            .into_iter()
            .fold(Object::new(), |object, (key, value)| {
                object.member(key.as_ref(), value)
            })
    }
}

impl fmt::Display for Object {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.indent.is_empty() {
            write!(f, "{{{}}}", self.members)
        } else {
            let close = self.indent.get(2..).unwrap_or_default();
            write!(f, "{{\n{}{}\n{close}}}", self.indent, self.members)
        }
    }
}

/// A parsed JSON value. Object keys keep their file order; a number
/// without a fraction or exponent that fits an `i64` is an `Int`.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer, written without a fraction or exponent.
    Int(i64),
    /// Any other number.
    Num(f64),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in file order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Member lookup on objects (`None` for other kinds or missing
    /// keys). First match wins, matching every sane JSON producer.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, when it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, when it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Int(n) => Some(*n as f64),
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, when it is a number that
    /// round-trips to `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Int(n) => u64::try_from(*n).ok(),
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a bool, when it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, when it is one.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Writes the value as compact JSON: an integer as it was read, any
/// other number through [`json_f64`], so `1` and `1.0` keep their text.
impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonValue::Null => f.write_str("null"),
            JsonValue::Bool(b) => write!(f, "{b}"),
            JsonValue::Int(n) => write!(f, "{n}"),
            JsonValue::Num(n) => f.write_str(&json_f64(*n)),
            JsonValue::Str(s) => f.write_str(&json_string(s)),
            JsonValue::Arr(items) => f.write_str(&array(items)),
            JsonValue::Obj(members) => {
                let object: Object = members.iter().map(|(key, value)| (key, value)).collect();
                write!(f, "{object}")
            }
        }
    }
}

/// Why a JSON text failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset the parser stopped at.
    pub offset: usize,
    /// Human-readable reason.
    pub reason: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.reason)
    }
}

impl std::error::Error for JsonError {}

/// How deeply arrays and objects may nest: far above the 7 levels of the
/// deepest document the workspace writes, and low enough that hostile
/// input cannot overflow the stack of the recursive parser.
const MAX_DEPTH: usize = 128;

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> JsonParser<'a> {
    fn err(&self, reason: &'static str) -> JsonError {
        JsonError {
            offset: self.pos,
            reason,
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, reason: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(reason))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("unrecognized literal"))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{' | b'[') if self.depth == MAX_DEPTH => Err(self.err("nested too deeply")),
            Some(open @ (b'{' | b'[')) => {
                self.depth += 1;
                let value = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                value
            }
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.eat(b'{', "expected '{'")?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':' after object key")?;
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.eat(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self.peek().ok_or_else(|| self.err("truncated escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by our
                            // writers; lone surrogates degrade to the
                            // replacement character instead of an error.
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the input is a &str
                    // upstream, so boundaries are valid).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && self.bytes[self.pos] & 0xC0 == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| self.err("invalid UTF-8"))?,
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or_default();
        text.parse()
            .map(JsonValue::Int)
            .or_else(|_| text.parse().map(JsonValue::Num))
            .map_err(|_| self.err("malformed number"))
    }
}

/// Parses one complete JSON value (trailing whitespace allowed, trailing
/// garbage rejected).
///
/// # Errors
///
/// [`JsonError`] with the byte offset of the first problem.
pub fn parse_json(text: &str) -> Result<JsonValue, JsonError> {
    let mut parser = JsonParser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.err("trailing garbage after value"));
    }
    Ok(value)
}

/// A line of a JSON-lines text that failed to parse or decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineError {
    /// 1-based line number.
    pub line: usize,
    /// Human-readable reason.
    pub reason: String,
}

/// Reads a JSON-lines text, one value per line: every non-blank line is
/// parsed and handed to `decode` with its 1-based line number.
///
/// The files are appended a line at a time, so a crash can tear only the
/// final line: a final line that is not UTF-8 or fails to parse or
/// decode is dropped, and every complete line before it still counts.
/// The same failure on an earlier line is corruption, not a crash
/// artifact, and is an error. With `header`, line 1 is a header that
/// every later line depends on, so it is never dropped: a bad header is
/// an error even when it is the only line.
///
/// # Errors
///
/// [`LineError`] for the first bad line that is not dropped.
pub fn parse_lines<T>(
    text: &[u8],
    header: bool,
    mut decode: impl FnMut(usize, JsonValue) -> Result<T, String>,
) -> Result<Vec<T>, LineError> {
    let text = text.strip_suffix(b"\n").unwrap_or(text);
    let lines: Vec<&[u8]> = text.split(|&b| b == b'\n').collect();
    let last = lines.len() - 1;
    let mut items = Vec::with_capacity(lines.len());
    for (i, line) in lines.into_iter().enumerate() {
        if line.trim_ascii().is_empty() {
            continue;
        }
        let item = std::str::from_utf8(line)
            .map_err(|_| "invalid UTF-8".to_owned())
            .and_then(|line| parse_json(line).map_err(|e| e.to_string()))
            .and_then(|value| decode(i + 1, value));
        match item {
            Ok(item) => items.push(item),
            Err(_) if i == last && !(header && i == 0) => break,
            Err(reason) => {
                return Err(LineError {
                    line: i + 1,
                    reason,
                })
            }
        }
    }
    Ok(items)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_helpers_escape_and_format() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_f64(2.5), "2.5");
        assert_eq!(json_f64(3.0), "3.0");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(array(Vec::<u8>::new()), "[]");
        assert_eq!(lines(Vec::<u8>::new(), "  "), "");
        assert_eq!(lines([1, 2], "  "), "  1,\n  2\n");
        let doc = Object::lines("  ")
            .member("a", 1)
            .member("b", Object::new().append(&Object::new().str("c", "d")));
        assert_eq!(
            doc.to_string(),
            "{\n  \"a\": 1,\n  \"b\": {\"c\": \"d\"}\n}"
        );
    }

    #[test]
    fn parses_scalars_and_nesting() {
        let v = parse_json(r#"{"a": 1, "b": [true, null, -2.5], "c": {"d": "x\ny"}}"#).unwrap();
        assert_eq!(v.get("a").and_then(JsonValue::as_u64), Some(1));
        let arr = v.get("b").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(arr[0].as_bool(), Some(true));
        assert_eq!(arr[1], JsonValue::Null);
        assert_eq!(arr[2].as_f64(), Some(-2.5));
        assert_eq!(
            v.get("c")
                .and_then(|c| c.get("d"))
                .and_then(JsonValue::as_str),
            Some("x\ny")
        );
        assert_eq!(parse_json("[]").unwrap(), JsonValue::Arr(vec![]));
        assert_eq!(parse_json("{}").unwrap(), JsonValue::Obj(vec![]));
        assert_eq!(
            parse_json("\"\\u0041\\\"\"").unwrap(),
            JsonValue::Str("A\"".to_owned())
        );
        assert_eq!(
            v.to_string(),
            r#"{"a": 1, "b": [true, null, -2.5], "c": {"d": "x\ny"}}"#
        );
        assert_eq!(parse_json("[-7, 30.0]").unwrap().to_string(), "[-7, 30.0]");
        assert_eq!(parse_json("-7").unwrap().as_f64(), Some(-7.0));
        assert_eq!(parse_json("-7").unwrap().as_u64(), None);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_json("").is_err());
        assert!(parse_json("{").is_err());
        assert!(parse_json("{\"a\" 1}").is_err());
        assert!(parse_json("[1, 2,]").is_err());
        assert!(parse_json("1 2").is_err());
        assert!(parse_json("\"unterminated").is_err());
        assert!(parse_json("nulll").is_err());
        assert!(!parse_json("{\"a\":}")
            .map_err(|e| e.to_string())
            .unwrap_err()
            .is_empty());
    }

    /// Nesting past the bound is an error, not a stack overflow, however
    /// deep the input goes; nesting up to it parses.
    #[test]
    fn nesting_is_bounded() {
        let nested = |open: &str, close: &str, depth: usize| {
            format!("{}0{}", open.repeat(depth), close.repeat(depth))
        };
        for (open, close) in [("[", "]"), ("{\"k\": ", "}")] {
            assert!(
                parse_json(&nested(open, close, MAX_DEPTH)).is_ok(),
                "{open}"
            );
            let err = parse_json(&nested(open, close, MAX_DEPTH + 1)).unwrap_err();
            assert_eq!(err.reason, "nested too deeply");
            assert_eq!(err.offset, MAX_DEPTH * open.len());
        }
        let err = parse_json(&"[".repeat(200_000)).unwrap_err();
        assert_eq!((err.offset, err.reason), (MAX_DEPTH, "nested too deeply"));
    }

    #[test]
    fn lines_drop_only_a_torn_final_line() {
        let uint = |_: usize, v: JsonValue| v.as_u64().ok_or_else(|| "not a u64".to_owned());
        let read = |text: &[u8]| parse_lines(text, false, uint);
        assert_eq!(read(b"1\n\n2\n"), Ok(vec![1, 2]));
        assert_eq!(read(b""), Ok(vec![]));
        // A final line that fails to parse, to decode, or to be UTF-8 is
        // torn, with or without its newline.
        assert_eq!(read(b"1\n[2"), Ok(vec![1]));
        assert_eq!(read(b"1\n-2\n"), Ok(vec![1]));
        assert_eq!(read(b"1\n\"\xc3"), Ok(vec![1]));
        // The same line anywhere else is an error naming its line.
        let err = read(b"1\n[2\n3\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.reason.starts_with("invalid JSON"), "{}", err.reason);
        assert_eq!(
            read(b"-2\n3\n"),
            Err(LineError {
                line: 1,
                reason: "not a u64".to_owned()
            })
        );
        assert_eq!(read(b"\xff\n3\n").unwrap_err().line, 1);
        // A header is never torn, not even as the only line.
        assert_eq!(read(b"-2"), Ok(vec![]));
        assert_eq!(parse_lines(b"-2", true, uint).unwrap_err().line, 1);
        assert_eq!(parse_lines(b"1\n[2", true, uint), Ok(vec![1]));
    }
}
