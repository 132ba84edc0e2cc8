//! Dependency-free JSON: the service's wire format.
//!
//! One JSON value per protocol line (line-delimited JSON). The build
//! environment is offline, so instead of serde+serde_json this is a
//! small hand-rolled codec with exactly one reader of bytes: the
//! validating lexer in [`scan`], which accepts RFC 8259 and nothing
//! else. Everything that reads JSON is a view over it — the borrowed
//! field and element scanners the server reads request lines through,
//! and [`Json::parse`], which builds an owned [`Json`] tree from the
//! same tokens for whoever reads *replies* (the client, the tests). The
//! writing side is one writer too: [`JsonWriter`] appends a reply
//! straight to the connection's buffer, and rendering a [`Json`] tree
//! ([`Json::render`]) is that writer walking the tree. A parsed number
//! is kept as `f64` — integers are exact up to 2^53, far beyond any
//! session id or attribute count the service hands out.

use cerfix_relation::Value;
use scan::Token;
use std::fmt;

mod writer;
pub use writer::{JsonScalar, JsonWriter};

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
            Json::Num(n) => num_u64(*n),
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

    /// The members in order, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Convert a relational [`Value`] for the wire.
    pub fn from_value(value: &Value) -> Json {
        match value {
            Value::Null => Json::Null,
            Value::Str(s) => Json::Str(s.as_str().to_string()),
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
            Json::Num(n) => num_value(*n),
            Json::Str(s) => Value::str(s),
            Json::Arr(_) => return Err(not_a_cell("an array")),
            Json::Obj(_) => return Err(not_a_cell("an object")),
        })
    }

    /// Parse one JSON value from `text` (must consume the whole string
    /// up to trailing whitespace): the tree builder over the [`scan`]
    /// lexer's tokens. The lexer owns the grammar — including the
    /// [`MAX_DEPTH`] nesting cap — and the containers still open are
    /// kept on a heap stack, so hostile input cannot overflow this
    /// thread's.
    pub fn parse(text: &str) -> Result<Json, WireError> {
        let mut lexer = scan::Lexer::new(text);
        let mut open: Vec<Json> = Vec::new();
        let mut keys: Vec<String> = Vec::new();
        let mut buf = String::new();
        loop {
            let value = match lexer.next_token()? {
                Token::Null => Json::Null,
                Token::Bool(b) => Json::Bool(b),
                Token::Num(text) => Json::Num(scan::to_f64(text)),
                Token::Str(s) => Json::Str(s.unescape_into(&mut buf).to_string()),
                Token::Key(key) => {
                    keys.push(key.unescape_into(&mut buf).to_string());
                    continue;
                }
                Token::Open { object } => {
                    open.push(if object {
                        Json::Obj(Vec::new())
                    } else {
                        Json::Arr(Vec::new())
                    });
                    continue;
                }
                Token::Close => open.pop().expect("the lexer balances brackets"),
                Token::End => return Err(WireError("unexpected end of input".into())),
            };
            match open.last_mut() {
                Some(Json::Arr(items)) => items.push(value),
                Some(Json::Obj(fields)) => {
                    let key = keys.pop().expect("the lexer puts a key before each member");
                    fields.push((key, value));
                }
                _ => return Ok(lexer.finish().map(|()| value)?),
            }
        }
    }

    /// Compact single-line rendering (safe for line-delimited framing:
    /// strings escape control characters including newlines).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_to(&mut out);
        out
    }

    /// Render into a caller-supplied buffer (appended; not cleared) —
    /// the allocation-free shape of [`render`](Self::render) for callers
    /// that reuse a per-connection buffer.
    pub fn render_to(&self, out: &mut String) {
        JsonWriter::new(out).json(self);
    }
}

/// Maximum container nesting the lexer accepts — one level per bit of
/// its bracket stack. Anything legitimately deeper than this is not a
/// protocol message.
pub const MAX_DEPTH: usize = 128;

/// A JSON number as a u64, if it is a non-negative integer in the exact
/// range.
fn num_u64(n: f64) -> Option<u64> {
    // (The cast saturates, so only a whole number in range survives the
    // round trip — and no call into libm for `fract`.)
    let whole = n as u64;
    (whole as f64 == n && n <= 2f64.powi(53)).then_some(whole)
}

/// A JSON number as a cell: integral values in the exact range are
/// `Int`, the rest `Float`.
fn num_value(n: f64) -> Value {
    if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) {
        Value::Int(n as i64)
    } else {
        Value::Float(n)
    }
}

fn not_a_cell(what: &str) -> WireError {
    WireError(format!("cannot use {what} as a cell value"))
}

pub mod scan {
    //! The JSON lexer: the one place the bytes of a line are read.
    //!
    //! `Lexer` is a pull tokenizer that is also the validator: it
    //! keeps the grammar state — an explicit bracket stack, one bit per
    //! open container, and what may come next — so commas, colons,
    //! bracket matching, the nesting cap, the RFC 8259 number grammar,
    //! string escapes with their surrogate pairs and the ban on raw
    //! control bytes are all checked in the one pass that finds the
    //! tokens, without allocating. A string body is crossed a word at a
    //! time: eight bytes are tested at once for a quote, a backslash or a
    //! control byte (`u64::from_le_bytes` on a checked slice and three
    //! borrow tricks), and the first such byte goes to the byte loop,
    //! which alone judges every escape and every flaw. A failure is a
    //! [`WireError`] naming the byte it happened at (a `Copy` `Flaw`
    //! until it leaves this module: the pass itself carries no
    //! `String`). Every reader is a view over those tokens:
    //! [`Json::parse`](super::Json::parse) builds a tree from them;
    //! [`ObjectScanner`] and [`ArrayScanner`] hand out **borrowed**
    //! slices of the line instead — string content as `&str` spans
    //! (unescaped on demand by [`RawStr::unescape_into`] into a reusable
    //! buffer), containers as raw spans to re-scan on demand. A
    //! container is walked to its closing bracket before its span is
    //! handed out, so every span a scanner returns is valid JSON — which
    //! is what lets the service echo a request `id` verbatim. A container
    //! of containers need not be walked twice: [`ArrayScanner::next_array`]
    //! walks its next element in place, handing each of that element's
    //! cells out as the same lexer reaches it — how the rows of a `clean`
    //! or `master.append` are read.

    use super::{not_a_cell, num_u64, num_value, WireError, MAX_DEPTH};
    use cerfix_relation::Value;

    /// A scanned string: the content between the quotes, escapes intact
    /// and already validated.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RawStr<'a> {
        content: &'a str,
        escaped: bool,
    }

    impl<'a> RawStr<'a> {
        /// The string's value — borrowed from the input when it has no
        /// escapes (the overwhelmingly common case on this protocol),
        /// unescaped into `buf` (cleared first) otherwise.
        pub fn unescape_into<'b>(&self, buf: &'b mut String) -> &'b str
        where
            'a: 'b,
        {
            if !self.escaped {
                return self.content;
            }
            buf.clear();
            let bytes = self.content.as_bytes();
            let mut pos = 0usize;
            while pos < bytes.len() {
                if bytes[pos] == b'\\' {
                    let (c, next) = escape(bytes, pos + 1).expect("the lexer validated it");
                    buf.push(c);
                    pos = next;
                } else {
                    // Copy the run up to the next escape in one go.
                    let start = pos;
                    while pos < bytes.len() && bytes[pos] != b'\\' {
                        pos += 1;
                    }
                    buf.push_str(&self.content[start..pos]);
                }
            }
            buf
        }
    }

    /// Decode one escape sequence, `at` pointing just past its
    /// backslash: the character it stands for and the position after
    /// it. `None` when it is not one RFC 8259 allows — an unknown
    /// letter, fewer than four hex digits, half a surrogate pair.
    fn escape(bytes: &[u8], at: usize) -> Option<(char, usize)> {
        let hex4 = |at: usize| {
            let hex = bytes.get(at..at + 4)?;
            // (`from_str_radix` alone would let a sign through.)
            let hex = std::str::from_utf8(hex).ok()?;
            hex.bytes()
                .all(|b| b.is_ascii_hexdigit())
                .then(|| u32::from_str_radix(hex, 16).ok())?
        };
        let c = match bytes.get(at)? {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hi = hex4(at + 1)?;
                if !(0xD800..0xDC00).contains(&hi) {
                    // (A lone low half is no `char`.)
                    return Some((char::from_u32(hi)?, at + 5));
                }
                // A high half: its `\uXXXX` low half must follow.
                if bytes.get(at + 5..at + 7) != Some(b"\\u") {
                    return None;
                }
                let lo = hex4(at + 7)?;
                if !(0xDC00..0xE000).contains(&lo) {
                    return None;
                }
                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                return Some((char::from_u32(code)?, at + 11));
            }
            _ => return None,
        };
        Some((c, at + 1))
    }

    /// Why a text is not JSON, and where.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(super) struct Flaw {
        what: &'static str,
        at: usize,
    }

    impl From<Flaw> for WireError {
        fn from(flaw: Flaw) -> WireError {
            WireError(format!("{} at byte {}", flaw.what, flaw.at))
        }
    }

    // The bracket stack is a `u128`, and the nesting error says so.
    const _: () = assert!(MAX_DEPTH == u128::BITS as usize);

    /// The value of a number token.
    pub(super) fn to_f64(text: &str) -> f64 {
        text.parse()
            .expect("every RFC 8259 number is an f64 literal")
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
        /// integer.
        pub fn as_u64(&self) -> Option<u64> {
            match self {
                RawValue::Num(n) => num_u64(*n),
                _ => None,
            }
        }

        /// The boolean payload, if this is a bool.
        pub fn as_bool(&self) -> Option<bool> {
            match self {
                RawValue::Bool(b) => Some(*b),
                _ => None,
            }
        }

        /// The string payload (unescaped through `buf`), if this is a
        /// string.
        pub fn as_str<'b>(&self, buf: &'b mut String) -> Option<&'b str>
        where
            'a: 'b,
        {
            match self {
                RawValue::Str(s) => Some(s.unescape_into(buf)),
                _ => None,
            }
        }

        /// A scanner over the elements, if this is an array.
        pub fn as_arr(&self) -> Option<ArrayScanner<'a>> {
            match self {
                RawValue::Arr(span) => ArrayScanner::new(span),
                _ => None,
            }
        }

        /// A scanner over the fields, if this is an object.
        pub fn as_obj(&self) -> Option<ObjectScanner<'a>> {
            match self {
                RawValue::Obj(span) => ObjectScanner::new(span),
                _ => None,
            }
        }

        /// Convert into a relational [`Value`], as
        /// [`Json::to_value`](super::Json::to_value) does: the one
        /// allocation is a string cell's own.
        pub fn to_value(&self, buf: &mut String) -> Result<Value, WireError> {
            Ok(match self {
                RawValue::Null => Value::Null,
                RawValue::Bool(b) => Value::Bool(*b),
                RawValue::Num(n) => num_value(*n),
                RawValue::Str(s) => Value::str(s.unescape_into(buf)),
                RawValue::Arr(_) => return Err(not_a_cell("an array")),
                RawValue::Obj(_) => return Err(not_a_cell("an object")),
            })
        }
    }

    /// One lexical element of a JSON text.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub(super) enum Token<'a> {
        Null,
        Bool(bool),
        /// A number: its text, grammar-checked ([`to_f64`] reads it).
        Num(&'a str),
        Str(RawStr<'a>),
        /// An object member's key; its `:` is consumed with it.
        Key(RawStr<'a>),
        /// `{` or `[`.
        Open {
            object: bool,
        },
        /// The bracket closing the innermost open container.
        Close,
        /// The text is over, after exactly one complete value.
        End,
    }

    /// What the grammar admits next.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Expect {
        /// A value: at the start of the text, or after a key.
        Value,
        /// Just inside a container: its first member, or its end.
        FirstOrClose,
        /// After a value: `,` and the next member, or the container's
        /// end — the end of the text, outside any container.
        CommaOrClose,
    }

    /// The validating pull lexer (module docs).
    #[derive(Clone)]
    pub(super) struct Lexer<'a> {
        text: &'a str,
        pos: usize,
        /// The bracket stack: bit `d` set ⇔ the container open at depth
        /// `d` is an object. [`MAX_DEPTH`] is its width.
        objects: u128,
        depth: usize,
        expect: Expect,
    }

    impl<'a> Lexer<'a> {
        pub(super) fn new(text: &'a str) -> Lexer<'a> {
            Lexer {
                text,
                pos: 0,
                objects: 0,
                depth: 0,
                expect: Expect::Value,
            }
        }

        fn error(&self, what: &'static str) -> Flaw {
            Flaw { what, at: self.pos }
        }

        fn peek(&self) -> Option<u8> {
            self.text.as_bytes().get(self.pos).copied()
        }

        fn skip_ws(&mut self) {
            while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
                self.pos += 1;
            }
        }

        fn in_object(&self) -> bool {
            self.depth > 0 && self.objects >> (self.depth - 1) & 1 == 1
        }

        /// The next token, or the reason the text is not JSON: the
        /// grammar's three steps — [`member`](Self::member),
        /// [`key`](Self::key), [`begin_value`](Self::begin_value) — taken
        /// as the state says. (A scanner, which knows where in its
        /// container it is, takes the steps themselves.)
        ///
        /// Inlined, like the steps, into each of the few loops that pull
        /// tokens: handing a `Token` back through memory costs more than
        /// lexing it (a 40-byte `session.get`: 190 → 90 ns).
        #[inline(always)]
        pub(super) fn next_token(&mut self) -> Result<Token<'a>, Flaw> {
            if self.expect != Expect::Value {
                if self.depth == 0 {
                    return self.finish().map(|()| Token::End);
                }
                if !self.member()? {
                    return Ok(Token::Close);
                }
                if self.in_object() {
                    return self.key().map(Token::Key);
                }
            }
            self.begin_value()
        }

        /// Inside a container, step to its next member — past the `,`
        /// after a value, or nowhere before the first. `false`: its
        /// closing bracket came instead, and is consumed.
        #[inline(always)]
        fn member(&mut self) -> Result<bool, Flaw> {
            let close = if self.in_object() { b'}' } else { b']' };
            self.skip_ws();
            match self.peek() {
                Some(b) if b == close => {
                    self.pos += 1;
                    self.depth -= 1;
                    self.expect = Expect::CommaOrClose;
                    Ok(false)
                }
                _ if self.expect == Expect::FirstOrClose => Ok(true),
                Some(b',') => {
                    self.pos += 1;
                    Ok(true)
                }
                _ if close == b'}' => Err(self.error("expected `,` or `}`")),
                _ => Err(self.error("expected `,` or `]`")),
            }
        }

        /// An object member's key, and the `:` after it.
        #[inline(always)]
        fn key(&mut self) -> Result<RawStr<'a>, Flaw> {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.error("expected `:`"));
            }
            self.pos += 1;
            self.expect = Expect::Value;
            Ok(key)
        }

        /// A value's first token: a scalar whole, or the bracket that
        /// opens a container.
        #[inline(always)]
        fn begin_value(&mut self) -> Result<Token<'a>, Flaw> {
            self.skip_ws();
            self.expect = Expect::CommaOrClose;
            match self.peek() {
                None => Err(self.error("unexpected end of input")),
                Some(b'n') => self.literal("null", Token::Null),
                Some(b't') => self.literal("true", Token::Bool(true)),
                Some(b'f') => self.literal("false", Token::Bool(false)),
                Some(b'"') => self.string().map(Token::Str),
                Some(b'-' | b'0'..=b'9') => self.number().map(Token::Num),
                Some(open @ (b'[' | b'{')) => {
                    if self.depth == MAX_DEPTH {
                        return Err(self.error("nesting deeper than 128 levels"));
                    }
                    let object = open == b'{';
                    self.open(object);
                    Ok(Token::Open { object })
                }
                Some(_) => Err(self.error("expected a value")),
            }
        }

        /// After the text's one value: nothing but whitespace may follow.
        pub(super) fn finish(&mut self) -> Result<(), Flaw> {
            self.skip_ws();
            match self.peek() {
                None => Ok(()),
                Some(_) => Err(self.error("trailing garbage")),
            }
        }

        fn literal(&mut self, word: &str, token: Token<'a>) -> Result<Token<'a>, Flaw> {
            if !self.text[self.pos..].starts_with(word) {
                return Err(self.error("expected a value"));
            }
            self.pos += word.len();
            Ok(token)
        }

        /// A string, from its opening quote to past its closing one. Runs
        /// of plain bytes are skipped a word at a time ([`plain_run`]);
        /// the byte loop below decides every byte that is not plain, so
        /// each escape and each flaw is judged, and placed, by it alone.
        #[inline(always)]
        fn string(&mut self) -> Result<RawStr<'a>, Flaw> {
            if self.peek() != Some(b'"') {
                return Err(self.error("expected a string"));
            }
            let bytes = self.text.as_bytes();
            let start = self.pos + 1;
            let mut escaped = false;
            let mut pos = start;
            let flaw = |what, at| Err(Flaw { what, at });
            loop {
                pos = plain_run(bytes, pos);
                match bytes.get(pos) {
                    None => return flaw("unterminated string", pos),
                    Some(b'"') => break,
                    Some(b'\\') => {
                        escaped = true;
                        match escape(bytes, pos + 1) {
                            Some((_, next)) => pos = next,
                            None => return flaw("invalid escape", pos),
                        }
                    }
                    Some(0..=0x1f) => return flaw("raw control byte in a string", pos),
                    Some(_) => pos += 1,
                }
            }
            self.pos = pos + 1;
            // `start..pos` lands on char boundaries: it is delimited by
            // ASCII quotes.
            let content = &self.text[start..pos];
            Ok(RawStr { content, escaped })
        }

        /// A number, by the RFC 8259 grammar: `-`? int frac? exp?, no
        /// leading zeros, a digit on either side of the point.
        #[inline(always)]
        fn number(&mut self) -> Result<&'a str, Flaw> {
            let bytes = self.text.as_bytes();
            let start = self.pos;
            let digits = |lexer: &mut Self| {
                let from = lexer.pos;
                while let Some(b'0'..=b'9') = bytes.get(lexer.pos) {
                    lexer.pos += 1;
                }
                if lexer.pos == from {
                    return Err(lexer.error("expected a digit"));
                }
                Ok(())
            };
            if bytes.get(self.pos) == Some(&b'-') {
                self.pos += 1;
            }
            if bytes.get(self.pos) == Some(&b'0') {
                self.pos += 1; // a leading zero stands alone
            } else {
                digits(self)?;
            }
            if bytes.get(self.pos) == Some(&b'.') {
                self.pos += 1;
                digits(self)?;
            }
            if let Some(b'e' | b'E') = bytes.get(self.pos) {
                self.pos += 1;
                if let Some(b'+' | b'-') = bytes.get(self.pos) {
                    self.pos += 1;
                }
                digits(self)?;
            }
            Ok(&self.text[start..self.pos])
        }

        /// Step over an opening bracket, onto the bracket stack.
        fn open(&mut self, object: bool) {
            self.objects = self.objects & !(1u128 << self.depth) | (object as u128) << self.depth;
            self.depth += 1;
            self.pos += 1;
            self.expect = Expect::FirstOrClose;
        }

        /// One whole value — a container is walked, and so validated, to
        /// its closing bracket — with the exact bytes it spans.
        #[inline(always)]
        fn value(&mut self) -> Result<(RawValue<'a>, &'a str), Flaw> {
            self.skip_ws();
            let start = self.pos;
            let value = match self.begin_value()? {
                Token::Null => RawValue::Null,
                Token::Bool(b) => RawValue::Bool(b),
                Token::Num(text) => RawValue::Num(to_f64(text)),
                Token::Str(s) => RawValue::Str(s),
                Token::Open { object } => {
                    self.skip_container()?;
                    let span = &self.text[start..self.pos];
                    if object {
                        RawValue::Obj(span)
                    } else {
                        RawValue::Arr(span)
                    }
                }
                // (`begin_value` yields no other.)
                Token::Key(_) | Token::Close | Token::End => {
                    return Err(self.error("expected a value"))
                }
            };
            Ok((value, &self.text[start..self.pos]))
        }

        /// Walk — and so validate — the rest of the container just
        /// opened, to its closing bracket. The one loop that pulls tokens
        /// for nobody, kept out of line: every scanner's step shares it.
        #[inline(never)]
        fn skip_container(&mut self) -> Result<(), Flaw> {
            let outer = self.depth - 1;
            while self.depth > outer {
                self.next_token()?;
            }
            Ok(())
        }

        /// Open the container a scanner walks: `text` must start (after
        /// whitespace) with `bracket`.
        fn enter(text: &'a str, bracket: u8) -> Option<Lexer<'a>> {
            let mut lexer = Lexer::new(text);
            lexer.skip_ws();
            if lexer.peek() != Some(bracket) {
                return None;
            }
            lexer.open(bracket == b'{');
            Some(lexer)
        }
    }

    /// Past the plain bytes of a string body from `pos`, eight at a time:
    /// the position of the first `"`, `\` or control byte, or of the last
    /// (fewer than eight) bytes, which the caller takes one by one. The
    /// lexer's string scan and the writer's escaping both run on it, so
    /// one function decides, reading and writing, which bytes are
    /// special.
    #[inline(always)]
    pub(super) fn plain_run(bytes: &[u8], mut pos: usize) -> usize {
        const ONES: u64 = u64::from_ne_bytes([0x01; 8]);
        const HIGHS: u64 = u64::from_ne_bytes([0x80; 8]);
        // A byte's high bit is set iff that byte of `word` is below `n`
        // — exact for the lowest such byte, which is the one asked for
        // (a borrow only ever marks bytes above a true match).
        let below = |word: u64, n: u8| word.wrapping_sub(ONES * n as u64) & !word & HIGHS;
        while let Some(chunk) = bytes.get(pos..pos + 8) {
            let word = u64::from_le_bytes(chunk.try_into().expect("eight bytes"));
            let special = below(word ^ (ONES * b'"' as u64), 1)
                | below(word ^ (ONES * b'\\' as u64), 1)
                | below(word, 0x20);
            if special != 0 {
                return pos + special.trailing_zeros() as usize / 8;
            }
            pos += 8;
        }
        pos
    }

    /// Is `text` exactly one JSON value?
    pub(crate) fn validate(text: &str) -> Result<(), WireError> {
        let mut lexer = Lexer::new(text);
        lexer.value()?;
        Ok(lexer.finish()?)
    }

    /// The walk both scanners make over one container: the lexer, and
    /// how the walk ended once it has.
    #[derive(Clone)]
    struct Walk<'a> {
        lexer: Lexer<'a>,
        end: Option<Result<(), Flaw>>,
    }

    impl<'a> Walk<'a> {
        fn enter(text: &'a str, bracket: u8) -> Option<Walk<'a>> {
            let lexer = Lexer::enter(text, bracket)?;
            Some(Walk { lexer, end: None })
        }

        /// The container's next member, read by `item` — or `None` once
        /// the walk is over: at the closing bracket (nothing but
        /// whitespace may follow it) or at the first flaw.
        fn next<T>(&mut self, item: impl FnOnce(&mut Lexer<'a>) -> Result<T, Flaw>) -> Option<T> {
            if self.end.is_some() {
                return None;
            }
            let lexer = &mut self.lexer;
            let step = lexer.member().and_then(|more| match more {
                true => item(lexer).map(Some),
                false => lexer.finish().map(|()| None),
            });
            match step {
                Ok(Some(item)) => return Some(item),
                Ok(None) => self.end = Some(Ok(())),
                Err(flaw) => self.end = Some(Err(flaw)),
            }
            None
        }

        /// How the walk ended: `Ok` iff it reached the closing bracket
        /// of a well-formed container.
        fn finish(self) -> Result<(), WireError> {
            let end = self
                .end
                .ok_or_else(|| WireError("container not walked to its end".into()))?;
            Ok(end?)
        }
    }

    /// One field of an object: its key, its value and the value's exact
    /// bytes in the input — what an `id` echo writes back verbatim.
    pub type Field<'a> = (RawStr<'a>, RawValue<'a>, &'a str);

    /// Field iterator over one JSON object.
    pub struct ObjectScanner<'a>(Walk<'a>);

    impl<'a> ObjectScanner<'a> {
        /// Scan `text` as a single object (leading/trailing whitespace
        /// tolerated). `None` if it does not start with `{`.
        pub fn new(text: &'a str) -> Option<ObjectScanner<'a>> {
            Walk::enter(text, b'{').map(ObjectScanner)
        }

        /// The next field, or `None` once the object is over —
        /// [`finish`](Self::finish) tells its clean end (`}`, then
        /// nothing but whitespace) from malformed input.
        #[allow(clippy::should_implement_trait)]
        pub fn next_field(&mut self) -> Option<Field<'a>> {
            self.0.next(|lexer| {
                let key = lexer.key()?;
                let (value, span) = lexer.value()?;
                Ok((key, value, span))
            })
        }

        /// How the scan ended: `Ok` iff every field was walked and the
        /// text was one well-formed object.
        pub fn finish(self) -> Result<(), WireError> {
            self.0.finish()
        }
    }

    /// Element iterator over one JSON array span (as returned in
    /// [`RawValue::Arr`]). A clone walks on from where this one stands,
    /// and leaves it there.
    #[derive(Clone)]
    pub struct ArrayScanner<'a>(Walk<'a>);

    impl<'a> ArrayScanner<'a> {
        /// Scan `text` as a single array. `None` if it does not start
        /// with `[`.
        pub fn new(text: &'a str) -> Option<ArrayScanner<'a>> {
            Walk::enter(text, b'[').map(ArrayScanner)
        }

        /// The next element, or `None` once the array is over (see
        /// [`finish`](Self::finish)).
        #[allow(clippy::should_implement_trait)]
        pub fn next_value(&mut self) -> Option<RawValue<'a>> {
            self.0.next(|lexer| Ok(lexer.value()?.0))
        }

        /// The next element walked in place as an array: each of *its*
        /// elements goes to `cell` as this scanner's lexer reaches it, so
        /// a row is lexed once here, not skipped and then scanned again.
        /// `None` once the array is over (see [`finish`](Self::finish));
        /// `Some(Ok(false))` when the element is not an array (it is
        /// stepped over); `Some(Err(e))` when `cell` refused one with `e`
        /// (the rest of the element is stepped over).
        pub fn next_array<E>(
            &mut self,
            mut cell: impl FnMut(RawValue<'a>) -> Result<(), E>,
        ) -> Option<Result<bool, E>> {
            self.0.next(|lexer| {
                lexer.skip_ws();
                if lexer.peek() != Some(b'[') {
                    lexer.value()?;
                    return Ok(Ok(false));
                }
                lexer.begin_value()?;
                while lexer.member()? {
                    if let Err(e) = cell(lexer.value()?.0) {
                        lexer.skip_container()?;
                        return Ok(Err(e));
                    }
                }
                Ok(Ok(true))
            })
        }

        /// How the scan ended: `Ok` iff every element was walked and
        /// the text was one well-formed array.
        pub fn finish(self) -> Result<(), WireError> {
            self.0.finish()
        }
    }

    #[cfg(test)]
    mod tests;
}

#[cfg(test)]
pub(crate) mod tests {
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
            let key = key.unescape_into(&mut buf).to_string();
            match value {
                scan::RawValue::Str(s) => {
                    seen.push((key, format!("str:{}", s.unescape_into(&mut buf))));
                }
                scan::RawValue::Num(n) => seen.push((key, format!("num:{n} span:{span}"))),
                scan::RawValue::Arr(raw) => seen.push((key, format!("arr:{raw}"))),
                other => seen.push((key, format!("{other:?}"))),
            }
        }
        assert_eq!(scanner.finish(), Ok(()));
        assert!(scan::ObjectScanner::new("[1]").is_none());
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

    /// The RFC 8259 conformance table: one JSON text per row and
    /// whether it is one. `tests::every_view_of_the_lexer_gives_the_same_verdict`
    /// (in `lib.rs`, where there is a service to ask) runs every row
    /// through each view over the lexer — the tree builder, the field
    /// scanner, the request path — so the views cannot drift apart.
    /// Every row gives the same verdict bare and as a member's value.
    pub(crate) fn conformance() -> Vec<(String, bool)> {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let accept = [
            // Numbers: zero, sign, fraction, exponent in every spelling.
            "0",
            "-0",
            "7",
            "-17",
            "10",
            "3.5",
            "0.5",
            "-0.5e-3",
            "1e5",
            "1E+5",
            "1e-5",
            "1.0e0",
            "123456789012",
            // Strings: empty, every escape, pairs, raw non-ASCII.
            r#""""#,
            r#""a""#,
            r#""\" \\ \/ \b \f \n \r \t""#,
            r#""\u0041\u00e9\u0000""#,
            r#""\uD83E\uDD80""#,
            r#""\ud83e\udd80""#,
            "\"é🦀\"",
            // Literals.
            "null",
            "true",
            "false",
            // Containers: empty, nested, duplicate keys, whitespace.
            "[]",
            "{}",
            "[ ]",
            "{ }",
            "[1,2]",
            r#"{"a":1}"#,
            r#"{"a":{"b":[1,{"c":null}]}}"#,
            r#"{"a":"x","b":[true,null],"c":{"d":1.5}}"#,
            r#"{"a":1,"a":2}"#,
            " [ 1 ,\t2 ,\r\n3 ] ",
            "{ \"a\" : 1 }",
            "  {\"a\" : 1 }  ",
        ];
        let reject = [
            // Numbers RFC 8259 does not have.
            "01",
            "-01",
            "1.",
            ".5",
            "-",
            "+1",
            "1e",
            "1e+",
            "1.e5",
            "0x10",
            "1.2.3",
            "--1",
            "1_000",
            "Infinity",
            "NaN",
            // Strings: bad escapes, lone surrogate halves, raw control
            // bytes, no end, wrong quotes.
            r#""\q""#,
            r#""\u12""#,
            r#""\u12G4""#,
            r#""\u+123""#,
            r#""\ud800""#,
            r#""\udc00""#,
            r#""\ud800\u0041""#,
            r#""\ud800x""#,
            "\"a\tb\"",
            "\"a\nb\"",
            "\"a\u{0}b\"",
            "\"a\u{1f}b\"",
            "\"open",
            "'single'",
            // Literals, nearly.
            "nul",
            "nulll",
            "tru",
            "True",
            // Containers: stray and missing commas, colons, keys, ends.
            "[1,]",
            "[,1]",
            "[1,,2]",
            "[1 2]",
            r#"{"a":1,}"#,
            "{,}",
            r#"{"a"}"#,
            r#"{"a":}"#,
            r#"{"a" 1}"#,
            "{a:1}",
            "{1:1}",
            "[",
            "{",
            "]",
            "}",
            "[}",
            "{]",
            "[1}",
            r#"{"a":1]"#,
            r#"{"a" 1 2 3]"#,
            // Nothing, and more than one thing.
            "",
            " ",
            "1 2",
            "{} x",
            r#"{"a":1}x"#,
            "[] []",
            "null,",
            r#"{"a":1}}"#,
            "[1]]",
        ];
        let mut rows: Vec<(String, bool)> = Vec::new();
        rows.extend(accept.iter().map(|text| (text.to_string(), true)));
        rows.extend(reject.iter().map(|text| (text.to_string(), false)));
        // Nesting: as a member's value a text sits one level deeper, so
        // the rows stay a level clear of the cap on either side (the
        // boundary itself: `deep_nesting_rejected_not_overflowed`).
        rows.push((nested(MAX_DEPTH - 1), true));
        rows.push((nested(MAX_DEPTH + 1), false));
        rows
    }

    #[test]
    fn array_scanner_iterates_scalars() {
        let mut scanner = scan::ArrayScanner::new(r#"["a", 2, null, true]"#).unwrap();
        let mut n = 0;
        while scanner.next_value().is_some() {
            n += 1;
        }
        assert_eq!(scanner.finish(), Ok(()));
        assert_eq!(n, 4);
        let mut bad = scan::ArrayScanner::new("[1,]").unwrap();
        while bad.next_value().is_some() {}
        assert!(bad.finish().is_err());
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
        assert_eq!(s.unescape_into(&mut buf), "aA\n\t\\ é 🦀");
    }

    /// The writer's bytes, spelled out: the shape the session ops write
    /// (nesting, an escape, a fraction, empty containers, a null), in
    /// field order. Rendering the parsed document is the same writer
    /// walking a tree, so it gives the bytes back.
    #[test]
    fn json_writer_writes_these_bytes() {
        let mut direct = String::new();
        let mut w = JsonWriter::new(&mut direct);
        w.begin_obj();
        w.field("ok", true);
        w.field("session", 7u64);
        w.key("tuple");
        w.begin_arr();
        w.str_val("a\nb");
        w.num(2.5);
        w.end_arr();
        w.key("fixes");
        w.begin_arr();
        w.begin_obj();
        w.field("attr", "zip");
        w.field("old", &Value::Null);
        w.field("rule", 3usize);
        w.end_obj();
        w.begin_obj();
        w.end_obj();
        w.end_arr();
        w.key("none");
        w.begin_arr();
        w.end_arr();
        w.field("lag", 0.0);
        w.end_obj();
        let golden = r#"{"ok":true,"session":7,"tuple":["a\nb",2.5],"fixes":[{"attr":"zip","old":null,"rule":3},{}],"none":[],"lag":0}"#;
        assert_eq!(direct, golden);
        assert_eq!(Json::parse(golden).unwrap().render(), golden);
        // Integers are written as integers: the `f64` rendering below
        // 2^53, exact above it.
        for (n, text) in [
            (0u64, "0"),
            ((1 << 53) - 1, "9007199254740991"),
            (u64::MAX, "18446744073709551615"),
        ] {
            let mut out = String::new();
            n.write(&mut JsonWriter::new(&mut out));
            assert_eq!(out, text);
            assert!(n > 1 << 53 || Json::Num(n as f64).render() == text);
        }
        // A writer begun mid-document owes no comma to what precedes it.
        let mut tail = String::from("[1");
        JsonWriter::new(&mut tail).str_val("x");
        assert_eq!(tail, "[1\"x\"");
    }

    #[test]
    fn response_id_echo_is_verbatim_and_first() {
        for (id, echo) in [
            (Some("17"), r#""id":17,"#),
            (Some("\"req-9\""), r#""id":"req-9","#),
            (Some("1.50"), r#""id":1.50,"#),
            (Some("null"), r#""id":null,"#),
            (None, ""),
        ] {
            let mut out = String::new();
            let mut w = JsonWriter::new(&mut out);
            w.begin_response(id);
            w.field("ok", true);
            w.field("n", 3u64);
            w.end_obj();
            assert_eq!(out, format!("{{{echo}\"ok\":true,\"n\":3}}"));
        }
    }

    /// The comma rule has no depth in it: a document as deep as the
    /// lexer lets through, spliced two levels inside a reply the way
    /// `cluster.status` splices a peer's, comes out byte for byte (a
    /// 64-bit comma mask indexed by depth overflowed here) — and two
    /// levels under the cap the whole reply is a line the lexer accepts.
    #[test]
    fn a_document_at_the_nesting_cap_splices_at_depth_two() {
        for depth in [MAX_DEPTH - 2, MAX_DEPTH] {
            let text = format!("{}[1]{}", "[1,".repeat(depth - 1), "]".repeat(depth - 1));
            assert_eq!(scan::validate(&text), Ok(()));
            let peer = Json::parse(&text).unwrap();
            let mut out = String::new();
            let mut w = JsonWriter::new(&mut out);
            w.begin_obj();
            w.key("nodes");
            w.begin_arr();
            w.json(&peer);
            w.json(&peer);
            w.end_arr();
            w.end_obj();
            assert_eq!(out, format!(r#"{{"nodes":[{text},{text}]}}"#), "{depth}");
            assert_eq!(scan::validate(&out).is_ok(), depth < MAX_DEPTH);
        }
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
        // The cap itself: `MAX_DEPTH` open containers parse, one more
        // does not — counted from the outermost bracket of the text, so
        // a value nested in a request line has the line's own `{` above
        // it. No view builds anything the lexer did not let through.
        let nested = |depth: usize| format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        assert!(scan::validate(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(
            err.0.contains("nesting") && err.0.contains("at byte 128"),
            "{err}"
        );
        assert_eq!(scan::validate(&nested(MAX_DEPTH + 1)), Err(err));
        let line = format!("{{\"v\":{}}}", nested(MAX_DEPTH));
        let mut scanner = scan::ObjectScanner::new(&line).unwrap();
        assert!(scanner.next_field().is_none());
        assert!(scanner.finish().unwrap_err().0.contains("nesting"));
        let ok = nested(100);
        assert!(Json::parse(&ok).is_ok());
    }
}
