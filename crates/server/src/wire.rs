//! Dependency-free JSON: the service's wire format.
//!
//! One JSON value per protocol line (line-delimited JSON). The build
//! environment is offline, so instead of serde+serde_json this is a
//! small hand-rolled codec: a [`Json`] tree, a recursive-descent parser
//! and a compact renderer. Numbers are kept as `f64` — integers are
//! exact up to 2^53, far beyond any session id or attribute count the
//! service hands out.

use cerfix_relation::Value;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order preserved.
    Obj(Vec<(String, Json)>),
}

/// Wire-format failure: malformed JSON or a type mismatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire error: {}", self.0)
    }
}

impl std::error::Error for WireError {}

impl Json {
    /// Shorthand string constructor.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Object constructor preserving field order.
    pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Field lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The numeric payload as u64, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
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

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Convert a relational [`Value`] for the wire.
    pub fn from_value(value: &Value) -> Json {
        match value {
            Value::Null => Json::Null,
            Value::Str(s) => Json::Str(s.to_string()),
            Value::Int(i) => Json::Num(*i as f64),
            Value::Float(f) => Json::Num(*f),
            Value::Bool(b) => Json::Bool(*b),
        }
    }

    /// Convert a wire value into a relational [`Value`]. Integral
    /// numbers become `Int`, everything else maps structurally.
    pub fn to_value(&self) -> Result<Value, WireError> {
        Ok(match self {
            Json::Null => Value::Null,
            Json::Bool(b) => Value::Bool(*b),
            Json::Num(n) if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) => Value::Int(*n as i64),
            Json::Num(n) => Value::Float(*n),
            Json::Str(s) => Value::str(s),
            other => return Err(WireError(format!("cannot use {other:?} as a cell value"))),
        })
    }

    /// Parse one JSON value from `text` (must consume the whole string
    /// up to trailing whitespace). Nesting is capped at [`MAX_DEPTH`]
    /// so hostile input cannot overflow the parser's stack.
    pub fn parse(text: &str) -> Result<Json, WireError> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(WireError(format!("trailing garbage at byte {pos}")));
        }
        Ok(value)
    }

    /// Compact single-line rendering (safe for line-delimited framing:
    /// strings escape control characters including newlines).
    pub fn render(&self) -> String {
        let mut out = String::new();
        render_into(self, &mut out);
        out
    }

    /// Render into a caller-supplied buffer (appended; not cleared) —
    /// the allocation-free shape of [`render`](Self::render) for callers
    /// that reuse a per-connection buffer.
    pub fn render_to(&self, out: &mut String) {
        render_into(self, out);
    }
}

/// Render a response object into `out`, echoing the client-supplied
/// request `id` (its raw JSON span, byte-for-byte) as the first field.
/// With `id` = `None` this is exactly [`Json::render_to`]. Non-object
/// responses never occur on the wire; they render unchanged.
pub fn render_response_into(json: &Json, id: Option<&str>, out: &mut String) {
    match (json, id) {
        (Json::Obj(fields), Some(raw)) => {
            out.push_str("{\"id\":");
            out.push_str(raw);
            for (key, value) in fields {
                out.push(',');
                render_string(key, out);
                out.push(':');
                render_into(value, out);
            }
            out.push('}');
        }
        _ => render_into(json, out),
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(b' ' | b'\t' | b'\n' | b'\r') = bytes.get(*pos) {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, token: &str) -> Result<(), WireError> {
    if bytes[*pos..].starts_with(token.as_bytes()) {
        *pos += token.len();
        Ok(())
    } else {
        Err(WireError(format!("expected `{token}` at byte {}", *pos)))
    }
}

/// Maximum container nesting [`Json::parse`] accepts. Recursion depth
/// bounds stack use; anything legitimately deeper than this is not a
/// protocol message.
pub const MAX_DEPTH: usize = 128;

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, WireError> {
    if depth > MAX_DEPTH {
        return Err(WireError(format!("nesting deeper than {MAX_DEPTH} levels")));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(WireError("unexpected end of input".into())),
        Some(b'n') => expect(bytes, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(WireError(format!("expected `,` or `]` at byte {}", *pos))),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, ":")?;
                let value = parse_value(bytes, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(WireError(format!("expected `,` or `}}` at byte {}", *pos))),
                }
            }
        }
        Some(b'-' | b'0'..=b'9') => parse_number(bytes, pos),
        Some(&other) => Err(WireError(format!(
            "unexpected byte {:?} at {}",
            other as char, *pos
        ))),
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, WireError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while let Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') = bytes.get(*pos) {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| WireError("invalid utf8 in number".into()))?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| WireError(format!("invalid number `{text}`")))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, WireError> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(WireError(format!("expected string at byte {}", *pos)));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(WireError("unterminated string".into())),
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
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hi = parse_hex4(bytes, pos)?;
                        let code = if (0xD800..0xDC00).contains(&hi) {
                            // Surrogate pair: expect \uXXXX low half.
                            *pos += 1;
                            expect(bytes, pos, "\\u")
                                .map_err(|_| WireError("lone high surrogate".into()))?;
                            *pos -= 1; // parse_hex4 expects pos at the `u`
                            let lo = parse_hex4(bytes, pos)?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err(WireError("invalid low surrogate".into()));
                            }
                            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                        } else {
                            hi
                        };
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| WireError(format!("invalid codepoint {code:#x}")))?,
                        );
                    }
                    _ => return Err(WireError("invalid escape".into())),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar.
                let rest = std::str::from_utf8(&bytes[*pos..])
                    .map_err(|_| WireError("invalid utf8 in string".into()))?;
                let c = rest.chars().next().expect("non-empty");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

/// Parse `uXXXX` with `pos` at the `u`; leaves `pos` at the final hex
/// digit (the caller advances past it).
fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, WireError> {
    let start = *pos + 1;
    let end = start + 4;
    if end > bytes.len() {
        return Err(WireError("truncated \\u escape".into()));
    }
    let hex = std::str::from_utf8(&bytes[start..end])
        .map_err(|_| WireError("invalid \\u escape".into()))?;
    let code = u32::from_str_radix(hex, 16).map_err(|_| WireError("invalid \\u escape".into()))?;
    *pos = end - 1;
    Ok(code)
}

fn render_into(json: &Json, out: &mut String) {
    match json {
        Json::Null => out.push_str("null"),
        Json::Bool(true) => out.push_str("true"),
        Json::Bool(false) => out.push_str("false"),
        Json::Num(n) => render_num(*n, out),
        Json::Str(s) => render_string(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_into(item, out);
            }
            out.push(']');
        }
        Json::Obj(fields) => {
            out.push('{');
            for (i, (key, value)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_string(key, out);
                out.push(':');
                render_into(value, out);
            }
            out.push('}');
        }
    }
}

/// Render a JSON number without intermediate allocation. Integral
/// finite values in the exact range render as integers.
pub(crate) fn render_num(n: f64, out: &mut String) {
    use std::fmt::Write;
    if n.fract() == 0.0 && n.abs() < 2f64.powi(53) {
        let _ = write!(out, "{}", n as i64);
    } else if n.is_finite() {
        let _ = write!(out, "{n}");
    } else {
        // JSON has no Inf/NaN; null is the least-bad rendering.
        out.push_str("null");
    }
}

pub(crate) fn render_string(s: &str, out: &mut String) {
    use std::fmt::Write;
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

pub mod scan {
    //! Zero-allocation slice scanner for the hot request shapes.
    //!
    //! The tree parser ([`Json::parse`](super::Json::parse)) builds an
    //! owned value per line — correct, but every string, array and
    //! object costs a heap allocation. The scanner instead walks the
    //! line in place and hands out **borrowed** slices: string content
    //! comes back as `&str` spans of the input (with an `escaped` flag;
    //! unescaping is deferred to [`RawStr::unescape_into`], which writes
    //! into a caller-supplied, reusable buffer), and containers come
    //! back as raw spans to re-scan on demand. The fast request paths in
    //! [`protocol`](crate::protocol) and the service are built on this;
    //! anything the scanner finds irregular falls back to the tree
    //! parser so error messages stay identical.

    /// A scanned string: the content between the quotes, escapes intact.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RawStr<'a> {
        content: &'a str,
        escaped: bool,
    }

    impl<'a> RawStr<'a> {
        /// The string as a borrowed slice, when it contains no escapes
        /// (the overwhelmingly common case on this protocol).
        pub fn as_plain(&self) -> Option<&'a str> {
            (!self.escaped).then_some(self.content)
        }

        /// Unescape into `buf` (cleared first) and return the result —
        /// borrowed from the input when no escapes are present, from
        /// `buf` otherwise. `None` on an invalid escape sequence.
        pub fn unescape_into<'b>(&self, buf: &'b mut String) -> Option<&'b str>
        where
            'a: 'b,
        {
            if !self.escaped {
                return Some(self.content);
            }
            buf.clear();
            let bytes = self.content.as_bytes();
            let mut pos = 0usize;
            while pos < bytes.len() {
                if bytes[pos] != b'\\' {
                    // Copy the run up to the next escape in one go.
                    let start = pos;
                    while pos < bytes.len() && bytes[pos] != b'\\' {
                        pos += 1;
                    }
                    buf.push_str(&self.content[start..pos]);
                    continue;
                }
                pos += 1;
                match bytes.get(pos)? {
                    b'"' => buf.push('"'),
                    b'\\' => buf.push('\\'),
                    b'/' => buf.push('/'),
                    b'b' => buf.push('\u{8}'),
                    b'f' => buf.push('\u{c}'),
                    b'n' => buf.push('\n'),
                    b'r' => buf.push('\r'),
                    b't' => buf.push('\t'),
                    b'u' => {
                        let hi = hex4(bytes, pos + 1)?;
                        let code = if (0xD800..0xDC00).contains(&hi) {
                            // Surrogate pair: require the \uXXXX low half.
                            if bytes.get(pos + 5) != Some(&b'\\')
                                || bytes.get(pos + 6) != Some(&b'u')
                            {
                                return None;
                            }
                            let lo = hex4(bytes, pos + 7)?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return None;
                            }
                            pos += 10;
                            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                        } else {
                            pos += 4;
                            hi
                        };
                        buf.push(char::from_u32(code)?);
                    }
                    _ => return None,
                }
                pos += 1;
            }
            Some(buf.as_str())
        }
    }

    fn hex4(bytes: &[u8], start: usize) -> Option<u32> {
        let hex = bytes.get(start..start + 4)?;
        u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()
    }

    /// One scanned value: scalars carry their payload, containers carry
    /// their raw span (including brackets) for on-demand re-scanning.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub enum RawValue<'a> {
        /// `null`
        Null,
        /// `true` / `false`
        Bool(bool),
        /// Any number.
        Num(f64),
        /// A string (content between the quotes, escapes intact).
        Str(RawStr<'a>),
        /// An array: the raw `[...]` span.
        Arr(&'a str),
        /// An object: the raw `{...}` span.
        Obj(&'a str),
    }

    impl<'a> RawValue<'a> {
        /// The numeric payload as u64, if this is a non-negative
        /// integer (mirrors [`Json::as_u64`](super::Json::as_u64)).
        pub fn as_u64(&self) -> Option<u64> {
            match self {
                RawValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                    Some(*n as u64)
                }
                _ => None,
            }
        }
    }

    /// Byte cursor shared by the field and element iterators.
    struct Cursor<'a> {
        text: &'a str,
        pos: usize,
    }

    impl<'a> Cursor<'a> {
        fn bytes(&self) -> &'a [u8] {
            self.text.as_bytes()
        }

        fn skip_ws(&mut self) {
            while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes().get(self.pos) {
                self.pos += 1;
            }
        }

        fn peek(&self) -> Option<u8> {
            self.bytes().get(self.pos).copied()
        }

        /// Scan a string starting at the opening quote; leaves `pos`
        /// past the closing quote.
        fn string(&mut self) -> Option<RawStr<'a>> {
            let bytes = self.bytes();
            if bytes.get(self.pos) != Some(&b'"') {
                return None;
            }
            let start = self.pos + 1;
            let mut pos = start;
            let mut escaped = false;
            loop {
                match bytes.get(pos)? {
                    b'"' => break,
                    b'\\' => {
                        escaped = true;
                        pos += 2;
                    }
                    _ => pos += 1,
                }
            }
            self.pos = pos + 1;
            // `start..pos` always lands on char boundaries: it is
            // delimited by ASCII quotes/backslashes.
            Some(RawStr {
                content: self.text.get(start..pos)?,
                escaped,
            })
        }

        fn number(&mut self) -> Option<f64> {
            let bytes = self.bytes();
            let start = self.pos;
            let mut pos = start;
            if bytes.get(pos) == Some(&b'-') {
                pos += 1;
            }
            while let Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') = bytes.get(pos) {
                pos += 1;
            }
            self.pos = pos;
            self.text.get(start..pos)?.parse().ok()
        }

        /// Skip one container starting at its opening bracket,
        /// returning the raw span (brackets included). Iterative —
        /// hostile nesting cannot overflow the stack here (depth is
        /// enforced by the tree parser if the span is ever parsed).
        fn container(&mut self) -> Option<&'a str> {
            let bytes = self.bytes();
            let start = self.pos;
            let mut depth = 0usize;
            let mut pos = start;
            loop {
                match bytes.get(pos)? {
                    b'{' | b'[' => {
                        depth += 1;
                        pos += 1;
                    }
                    b'}' | b']' => {
                        depth -= 1;
                        pos += 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    b'"' => {
                        pos += 1;
                        loop {
                            match bytes.get(pos)? {
                                b'"' => break,
                                b'\\' => pos += 2,
                                _ => pos += 1,
                            }
                        }
                        pos += 1;
                    }
                    _ => pos += 1,
                }
            }
            self.pos = pos;
            self.text.get(start..pos)
        }

        fn value(&mut self) -> Option<RawValue<'a>> {
            self.skip_ws();
            match self.peek()? {
                b'n' => self.literal("null", RawValue::Null),
                b't' => self.literal("true", RawValue::Bool(true)),
                b'f' => self.literal("false", RawValue::Bool(false)),
                b'"' => self.string().map(RawValue::Str),
                b'-' | b'0'..=b'9' => self.number().map(RawValue::Num),
                b'[' => self.container().map(RawValue::Arr),
                b'{' => self.container().map(RawValue::Obj),
                _ => None,
            }
        }

        fn literal(&mut self, token: &str, value: RawValue<'a>) -> Option<RawValue<'a>> {
            if self.text[self.pos..].starts_with(token) {
                self.pos += token.len();
                Some(value)
            } else {
                None
            }
        }
    }

    /// Field iterator over one JSON object. Any scan failure (malformed
    /// input) surfaces as `None` from [`ObjectScanner::next_field`] with
    /// [`ObjectScanner::ok`] false — callers treat that as "fall back
    /// to the tree parser".
    pub struct ObjectScanner<'a> {
        cursor: Cursor<'a>,
        first: bool,
        done: bool,
        failed: bool,
    }

    impl<'a> ObjectScanner<'a> {
        /// Scan `text` as a single object (leading/trailing whitespace
        /// tolerated). `None` if it does not start with `{`.
        pub fn new(text: &'a str) -> Option<ObjectScanner<'a>> {
            let mut cursor = Cursor { text, pos: 0 };
            cursor.skip_ws();
            if cursor.peek() != Some(b'{') {
                return None;
            }
            cursor.pos += 1;
            Some(ObjectScanner {
                cursor,
                first: true,
                done: false,
                failed: false,
            })
        }

        /// The next `(key, value, raw value span)` triple, or `None` at
        /// the end of the object (check [`ok`](Self::ok) to distinguish
        /// the clean end from malformed input). The raw span is the
        /// value's exact bytes in the input — what an `id` echo writes
        /// back verbatim.
        #[allow(clippy::should_implement_trait)]
        pub fn next_field(&mut self) -> Option<(RawStr<'a>, RawValue<'a>, &'a str)> {
            if self.done || self.failed {
                return None;
            }
            self.cursor.skip_ws();
            if self.first && self.cursor.peek() == Some(b'}') {
                self.cursor.pos += 1;
                return self.finish();
            }
            if !self.first {
                match self.cursor.peek() {
                    Some(b',') => self.cursor.pos += 1,
                    Some(b'}') => {
                        self.cursor.pos += 1;
                        return self.finish();
                    }
                    _ => return self.fail(),
                }
                self.cursor.skip_ws();
            }
            self.first = false;
            let Some(key) = self.cursor.string() else {
                return self.fail();
            };
            self.cursor.skip_ws();
            if self.cursor.peek() != Some(b':') {
                return self.fail();
            }
            self.cursor.pos += 1;
            self.cursor.skip_ws();
            let start = self.cursor.pos;
            let Some(value) = self.cursor.value() else {
                return self.fail();
            };
            let span = &self.cursor.text[start..self.cursor.pos];
            Some((key, value, span))
        }

        fn finish(&mut self) -> Option<(RawStr<'a>, RawValue<'a>, &'a str)> {
            self.cursor.skip_ws();
            if self.cursor.pos != self.cursor.text.len() {
                self.failed = true; // trailing garbage → tree parser
            }
            self.done = true;
            None
        }

        fn fail(&mut self) -> Option<(RawStr<'a>, RawValue<'a>, &'a str)> {
            self.failed = true;
            None
        }

        /// True iff scanning ended at a well-formed `}` with nothing
        /// but whitespace after it.
        pub fn ok(&self) -> bool {
            self.done && !self.failed
        }
    }

    /// Element iterator over one JSON array span (as returned in
    /// [`RawValue::Arr`]).
    pub struct ArrayScanner<'a> {
        cursor: Cursor<'a>,
        first: bool,
        done: bool,
        failed: bool,
    }

    impl<'a> ArrayScanner<'a> {
        /// Scan `text` as a single array. `None` if it does not start
        /// with `[`.
        pub fn new(text: &'a str) -> Option<ArrayScanner<'a>> {
            let mut cursor = Cursor { text, pos: 0 };
            cursor.skip_ws();
            if cursor.peek() != Some(b'[') {
                return None;
            }
            cursor.pos += 1;
            Some(ArrayScanner {
                cursor,
                first: true,
                done: false,
                failed: false,
            })
        }

        /// The next element, or `None` at the end (check
        /// [`ok`](Self::ok)).
        #[allow(clippy::should_implement_trait)]
        pub fn next_value(&mut self) -> Option<RawValue<'a>> {
            if self.done || self.failed {
                return None;
            }
            self.cursor.skip_ws();
            if self.first && self.cursor.peek() == Some(b']') {
                self.cursor.pos += 1;
                self.done = true;
                return None;
            }
            if !self.first {
                match self.cursor.peek() {
                    Some(b',') => self.cursor.pos += 1,
                    Some(b']') => {
                        self.cursor.pos += 1;
                        self.done = true;
                        return None;
                    }
                    _ => {
                        self.failed = true;
                        return None;
                    }
                }
            }
            self.first = false;
            match self.cursor.value() {
                Some(value) => Some(value),
                None => {
                    self.failed = true;
                    None
                }
            }
        }

        /// True iff scanning ended at a well-formed `]`.
        pub fn ok(&self) -> bool {
            self.done && !self.failed
        }
    }
}

/// Direct JSON writer: builds a response straight into a caller-supplied
/// `String`, no intermediate [`Json`] tree. Formats exactly as the tree
/// renderer does (guarded by tests), so a reply reads the same whichever
/// of the two its op's handler uses. Comma state is a bitmask over
/// nesting depth — the writer itself never allocates beyond what it
/// appends to `out`.
pub struct JsonWriter<'a> {
    out: &'a mut String,
    /// Bit d set ⇔ a value was already written at depth d (so the next
    /// key/element needs a comma). Depth is capped well below 64 by the
    /// response shapes.
    comma: u64,
    depth: u32,
}

impl<'a> JsonWriter<'a> {
    /// Write into `out` (appended; not cleared).
    pub fn new(out: &'a mut String) -> JsonWriter<'a> {
        JsonWriter {
            out,
            comma: 0,
            depth: 0,
        }
    }

    fn sep(&mut self) {
        if self.comma & (1 << self.depth) != 0 {
            self.out.push(',');
        }
        self.comma |= 1 << self.depth;
    }

    /// Open an object (as a bare value or array element).
    pub fn begin_obj(&mut self) {
        self.sep();
        self.out.push('{');
        self.depth += 1;
        self.comma &= !(1 << self.depth);
    }

    /// Open a response object, echoing the raw request `id` span first.
    pub fn begin_response(&mut self, id: Option<&str>) {
        self.begin_obj();
        if let Some(raw) = id {
            self.key("id");
            self.raw(raw);
        }
    }

    /// Close the current object.
    pub fn end_obj(&mut self) {
        self.depth -= 1;
        self.out.push('}');
    }

    /// Open an array (as a bare value or element).
    pub fn begin_arr(&mut self) {
        self.sep();
        self.out.push('[');
        self.depth += 1;
        self.comma &= !(1 << self.depth);
    }

    /// Close the current array.
    pub fn end_arr(&mut self) {
        self.depth -= 1;
        self.out.push(']');
    }

    /// Write an object key (the next write is its value).
    pub fn key(&mut self, name: &str) {
        self.sep();
        render_string(name, self.out);
        self.out.push(':');
        // The key's value must not emit a comma.
        self.comma &= !(1 << self.depth);
    }

    /// A string value.
    pub fn str_val(&mut self, s: &str) {
        self.sep();
        render_string(s, self.out);
    }

    /// A string value whose content `fill` appends as is — for payloads
    /// that need no escaping (hex frames), written in place.
    pub fn str_with(&mut self, fill: impl FnOnce(&mut String)) {
        self.sep();
        self.out.push('"');
        fill(self.out);
        self.out.push('"');
    }

    /// A numeric value (same formatting as [`Json::Num`]).
    pub fn num(&mut self, n: f64) {
        self.sep();
        render_num(n, self.out);
    }

    /// A boolean value.
    pub fn bool_val(&mut self, b: bool) {
        self.sep();
        self.out.push_str(if b { "true" } else { "false" });
    }

    /// A raw, pre-rendered JSON span (written verbatim).
    pub fn raw(&mut self, raw: &str) {
        self.sep();
        self.out.push_str(raw);
    }

    /// A relational [`Value`], rendered exactly as
    /// `Json::from_value(v).render()` would.
    pub fn value(&mut self, v: &Value) {
        match v {
            Value::Null => {
                self.sep();
                self.out.push_str("null");
            }
            Value::Str(s) => self.str_val(s),
            Value::Int(i) => self.num(*i as f64),
            Value::Float(f) => self.num(*f),
            Value::Bool(b) => self.bool_val(*b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for text in [
            "null", "true", "false", "0", "-17", "3.5", "\"hi\"", "[]", "{}",
        ] {
            let parsed = Json::parse(text).unwrap();
            assert_eq!(Json::parse(&parsed.render()).unwrap(), parsed, "{text}");
        }
    }

    #[test]
    fn nested_round_trip() {
        let text =
            r#"{"op":"clean","tuples":[["a",1,null,true],["b\n\"x\"",2.5,{},[]]],"trust":["zip"]}"#;
        let parsed = Json::parse(text).unwrap();
        let rendered = parsed.render();
        assert_eq!(Json::parse(&rendered).unwrap(), parsed);
        assert!(!rendered.contains('\n'), "line-delimited framing safe");
    }

    #[test]
    fn string_escapes() {
        let parsed = Json::parse(r#""a\u0041\n\t\\ \u00e9 \ud83e\udd80""#).unwrap();
        assert_eq!(parsed, Json::Str("aA\n\t\\ é 🦀".to_string()));
        let rendered = parsed.render();
        assert_eq!(Json::parse(&rendered).unwrap(), parsed);
    }

    #[test]
    fn object_accessors() {
        let json = Json::parse(r#"{"a":1,"b":"x","c":[true],"d":null}"#).unwrap();
        assert_eq!(json.get("a").and_then(Json::as_u64), Some(1));
        assert_eq!(json.get("b").and_then(Json::as_str), Some("x"));
        assert_eq!(
            json.get("c").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(json.get("missing"), None);
    }

    #[test]
    fn value_conversions() {
        let cases = [
            (Json::Null, Value::Null),
            (Json::Bool(true), Value::Bool(true)),
            (Json::Num(42.0), Value::Int(42)),
            (Json::Num(2.5), Value::Float(2.5)),
            (Json::str("x"), Value::str("x")),
        ];
        for (json, value) in cases {
            assert_eq!(json.to_value().unwrap(), value);
            // from_value inverts (Int renders as integral Num).
            assert_eq!(Json::from_value(&value).to_value().unwrap(), value);
        }
        assert!(Json::Arr(vec![]).to_value().is_err());
    }

    #[test]
    fn malformed_inputs_error() {
        for text in [
            "",
            "{",
            "[1,",
            "\"",
            "{\"a\"}",
            "nul",
            "1 2",
            "{\"a\":}",
            "\"\\u12\"",
        ] {
            assert!(Json::parse(text).is_err(), "{text:?} should fail");
        }
    }

    #[test]
    fn scanner_walks_objects_without_allocating_plain_strings() {
        let line = r#"{"op":"session.get","session":7,"id":42,"extra":[1,{"a":2}],"s":"h\ni"}"#;
        let mut scanner = scan::ObjectScanner::new(line).unwrap();
        let mut seen = Vec::new();
        let mut buf = String::new();
        while let Some((key, value, span)) = scanner.next_field() {
            let key = key.as_plain().unwrap().to_string();
            match value {
                scan::RawValue::Str(s) => {
                    seen.push((key, format!("str:{}", s.unescape_into(&mut buf).unwrap())));
                }
                scan::RawValue::Num(n) => seen.push((key, format!("num:{n} span:{span}"))),
                scan::RawValue::Arr(raw) => seen.push((key, format!("arr:{raw}"))),
                other => seen.push((key, format!("{other:?}"))),
            }
        }
        assert!(scanner.ok());
        assert_eq!(
            seen,
            vec![
                ("op".into(), "str:session.get".into()),
                ("session".into(), "num:7 span:7".into()),
                ("id".into(), "num:42 span:42".into()),
                ("extra".into(), "arr:[1,{\"a\":2}]".into()),
                ("s".into(), "str:h\ni".into()),
            ]
        );
    }

    #[test]
    fn scanner_matches_tree_parser_verdicts() {
        // Lines the tree parser accepts must scan cleanly; lines it
        // rejects must scan as failed (→ the fallback owns the error).
        for line in [
            r#"{"a":1}"#,
            r#"{}"#,
            r#"{"a":"x","b":[true,null],"c":{"d":1.5}}"#,
            r#"  {"a" : 1 }  "#,
        ] {
            let mut scanner = scan::ObjectScanner::new(line).unwrap();
            while scanner.next_field().is_some() {}
            assert!(scanner.ok(), "{line}");
        }
        for line in [r#"{"a":}"#, r#"{"a":1,}"#, r#"{"a" 1}"#, r#"{"a":1}x"#] {
            let mut scanner = scan::ObjectScanner::new(line).unwrap();
            while scanner.next_field().is_some() {}
            assert!(!scanner.ok(), "{line} must fail the scan");
        }
        assert!(scan::ObjectScanner::new("[1]").is_none());
    }

    #[test]
    fn array_scanner_iterates_scalars() {
        let mut scanner = scan::ArrayScanner::new(r#"["a", 2, null, true]"#).unwrap();
        let mut n = 0;
        while scanner.next_value().is_some() {
            n += 1;
        }
        assert!(scanner.ok());
        assert_eq!(n, 4);
        let mut bad = scan::ArrayScanner::new("[1,]").unwrap();
        while bad.next_value().is_some() {}
        assert!(!bad.ok());
    }

    #[test]
    fn unescape_handles_escapes_and_surrogates() {
        let line = r#"{"k":"aA\n\t\\ é 🦀"}"#;
        let mut scanner = scan::ObjectScanner::new(line).unwrap();
        let (_, value, _) = scanner.next_field().unwrap();
        let scan::RawValue::Str(s) = value else {
            panic!("string expected")
        };
        let mut buf = String::new();
        assert_eq!(s.unescape_into(&mut buf), Some("aA\n\t\\ é 🦀"));
    }

    #[test]
    fn json_writer_matches_tree_render() {
        // The response shape the session ops write by hand.
        let tree = Json::obj([
            ("ok", Json::Bool(true)),
            ("session", Json::Num(7.0)),
            ("tuple", Json::Arr(vec![Json::str("a\nb"), Json::Num(2.5)])),
            (
                "fixes",
                Json::Arr(vec![Json::obj([
                    ("attr", Json::str("zip")),
                    ("old", Json::Null),
                ])]),
            ),
        ]);
        let mut direct = String::new();
        let mut w = JsonWriter::new(&mut direct);
        w.begin_obj();
        w.key("ok");
        w.bool_val(true);
        w.key("session");
        w.num(7.0);
        w.key("tuple");
        w.begin_arr();
        w.str_val("a\nb");
        w.num(2.5);
        w.end_arr();
        w.key("fixes");
        w.begin_arr();
        w.begin_obj();
        w.key("attr");
        w.str_val("zip");
        w.key("old");
        w.value(&Value::Null);
        w.end_obj();
        w.end_arr();
        w.end_obj();
        assert_eq!(direct, tree.render());
    }

    #[test]
    fn response_id_echo_is_verbatim_and_first() {
        let response = Json::obj([("ok", Json::Bool(true)), ("n", Json::Num(3.0))]);
        for id in ["17", "\"req-9\"", "1.50", "null"] {
            let mut out = String::new();
            render_response_into(&response, Some(id), &mut out);
            assert_eq!(out, format!("{{\"id\":{id},\"ok\":true,\"n\":3}}"));
        }
        let mut out = String::new();
        render_response_into(&response, None, &mut out);
        assert_eq!(out, response.render());
        // Writer-side echo agrees.
        let mut direct = String::new();
        let mut w = JsonWriter::new(&mut direct);
        w.begin_response(Some("17"));
        w.key("ok");
        w.bool_val(true);
        w.key("n");
        w.num(3.0);
        w.end_obj();
        let mut expected = String::new();
        render_response_into(&response, Some("17"), &mut expected);
        assert_eq!(direct, expected);
    }

    #[test]
    fn deep_nesting_rejected_not_overflowed() {
        // A hostile 200k-bracket line must come back as an error, not
        // blow the connection thread's stack.
        let hostile = "[".repeat(200_000);
        let err = Json::parse(&hostile).unwrap_err();
        assert!(err.0.contains("nesting"), "{err}");
        // Same guard on objects.
        let objects = "{\"a\":".repeat(200_000);
        assert!(Json::parse(&objects).is_err());
        // Depth just under the cap still parses.
        let ok = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(Json::parse(&ok).is_ok());
    }
}
