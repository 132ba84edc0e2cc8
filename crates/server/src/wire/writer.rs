//! The writing side of the wire format: [`JsonWriter`], the one place
//! commas, colons, brackets, string escapes and number formatting are
//! emitted.
//!
//! A key named in the program's text — every `key`, `field` and
//! `array` name, a `&'static str` — is written verbatim, and debug
//! builds assert it needs no escape. A key that comes from data (a
//! follower's name, a parsed document's member) goes through
//! `data_key` and is escaped as a string value is.
//!
//! A string is copied by runs: the lexer's word-at-a-time `plain_run`
//! finds the next byte that needs escaping — the one function that
//! decides, reading and writing, which bytes are special — and the run
//! before it is pushed whole. Integers are written from a digit buffer,
//! not through `core::fmt`. The bytes are the char-by-char writer's and
//! `format!`'s, which the unit tests keep as oracles.

use super::scan::plain_run;
use super::Json;
use cerfix_relation::Value;

/// The JSON writer: appends a document straight to a caller-supplied
/// `String` — every reply the service sends, and [`Json::render`] — so
/// the commas, colons and brackets of the wire format are emitted in
/// this one place. It keeps no state of its own beyond where it began:
/// a comma is due exactly when the last byte it wrote is not the `{`,
/// `[` or `:` that marks a value's place, so nesting depth is bounded
/// by nothing here, and the writer never allocates beyond what it
/// appends to `out`.
pub struct JsonWriter<'a> {
    out: &'a mut String,
    /// `out.len()` at [`new`](Self::new): what lies before it is not
    /// this writer's, and asks for no comma.
    start: usize,
}

/// A value [`JsonWriter::field`] writes in one call. Integers are
/// written as integers (the same bytes as an `f64` would render below
/// 2^53, and exact above it).
pub trait JsonScalar {
    /// Write `self` as the writer's next value.
    fn write(self, w: &mut JsonWriter<'_>);
}

impl JsonScalar for bool {
    fn write(self, w: &mut JsonWriter<'_>) {
        w.bool_val(self);
    }
}

impl JsonScalar for f64 {
    fn write(self, w: &mut JsonWriter<'_>) {
        w.num(self);
    }
}

impl JsonScalar for u64 {
    fn write(self, w: &mut JsonWriter<'_>) {
        w.sep();
        push_digits(self, false, w.out);
    }
}

impl JsonScalar for usize {
    fn write(self, w: &mut JsonWriter<'_>) {
        (self as u64).write(w);
    }
}

impl JsonScalar for &str {
    fn write(self, w: &mut JsonWriter<'_>) {
        w.str_val(self);
    }
}

impl JsonScalar for &String {
    fn write(self, w: &mut JsonWriter<'_>) {
        w.str_val(self);
    }
}

impl JsonScalar for &Value {
    fn write(self, w: &mut JsonWriter<'_>) {
        w.value(self);
    }
}

impl<'a> JsonWriter<'a> {
    /// Write into `out` (appended; not cleared).
    pub fn new(out: &'a mut String) -> JsonWriter<'a> {
        let start = out.len();
        JsonWriter { out, start }
    }

    /// Before a key or a value: the comma, when one is due.
    fn sep(&mut self) {
        let written = &self.out.as_bytes()[self.start..];
        if !matches!(written.last(), None | Some(b'{' | b'[' | b':')) {
            self.out.push(',');
        }
    }

    /// Open an object (as a bare value or array element).
    pub fn begin_obj(&mut self) {
        self.sep();
        self.out.push('{');
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
        self.out.push('}');
    }

    /// Open an array (as a bare value or element).
    pub fn begin_arr(&mut self) {
        self.sep();
        self.out.push('[');
    }

    /// Close the current array.
    pub fn end_arr(&mut self) {
        self.out.push(']');
    }

    /// Write an object key named in the program's text (the next write
    /// is its value): `"name":`, copied verbatim — such a name needs no
    /// escape, which debug builds assert.
    pub fn key(&mut self, name: &'static str) {
        debug_assert!(
            !name.bytes().any(needs_escape),
            "key {name:?} needs an escape"
        );
        self.sep();
        self.out.push('"');
        self.out.push_str(name);
        self.out.push_str("\":");
    }

    /// Write an object key that comes from data (a follower's name, a
    /// parsed document's member), escaped as a string value is.
    pub fn data_key(&mut self, name: &str) {
        self.sep();
        render_string(name, self.out);
        self.out.push(':');
    }

    /// An object member with a scalar value: the key, then the value.
    pub fn field(&mut self, name: &'static str, value: impl JsonScalar) {
        self.key(name);
        value.write(self);
    }

    /// An object member holding an array: the key, then one element per
    /// item, written by `each`.
    pub fn array<T>(
        &mut self,
        name: &'static str,
        items: impl IntoIterator<Item = T>,
        mut each: impl FnMut(&mut Self, T),
    ) {
        self.key(name);
        self.begin_arr();
        for item in items {
            each(self, item);
        }
        self.end_arr();
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

    /// A numeric value: integral ones in the exact range render as
    /// integers, the rest in shortest round-trip form.
    pub fn num(&mut self, n: f64) {
        self.sep();
        render_num(n, self.out);
    }

    /// A boolean value.
    pub fn bool_val(&mut self, b: bool) {
        self.raw(if b { "true" } else { "false" });
    }

    /// A raw, pre-rendered JSON value (written verbatim).
    pub fn raw(&mut self, raw: &str) {
        self.sep();
        self.out.push_str(raw);
    }

    /// A relational [`Value`], as its wire cell.
    pub fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.raw("null"),
            Value::Str(s) => self.str_val(s.as_str()),
            Value::Int(i) => {
                self.sep();
                push_digits(i.unsigned_abs(), *i < 0, self.out);
            }
            Value::Float(f) => self.num(*f),
            Value::Bool(b) => self.bool_val(*b),
        }
    }

    /// A parsed document, as one value — how a [`Json`] tree is
    /// rendered, and how a reply splices in a document it was handed
    /// (a peer's, in `cluster.status`). Recursion is as deep as the
    /// tree, which [`Json::parse`] caps at [`MAX_DEPTH`](super::MAX_DEPTH).
    pub fn json(&mut self, json: &Json) {
        match json {
            Json::Null => self.raw("null"),
            Json::Bool(b) => self.bool_val(*b),
            Json::Num(n) => self.num(*n),
            Json::Str(s) => self.str_val(s),
            Json::Arr(items) => {
                self.begin_arr();
                for item in items {
                    self.json(item);
                }
                self.end_arr();
            }
            Json::Obj(fields) => {
                self.begin_obj();
                for (key, value) in fields {
                    self.data_key(key);
                    self.json(value);
                }
                self.end_obj();
            }
        }
    }
}

/// Render a JSON number without intermediate allocation. Integral
/// finite values in the exact range render as integers.
fn render_num(n: f64, out: &mut String) {
    use std::fmt::Write;
    if n.fract() == 0.0 && n.abs() < 2f64.powi(53) {
        let i = n as i64;
        push_digits(i.unsigned_abs(), i < 0, out);
    } else if n.is_finite() {
        let _ = write!(out, "{n}");
    } else {
        // JSON has no Inf/NaN; null is the least-bad rendering.
        out.push_str("null");
    }
}

/// Write `magnitude`'s decimal digits, after a `-` when `negative`.
fn push_digits(mut magnitude: u64, negative: bool, out: &mut String) {
    let mut buf = [0u8; 21]; // `-` and u64::MAX's 20 digits
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (magnitude % 10) as u8;
        magnitude /= 10;
        if magnitude == 0 {
            break;
        }
    }
    if negative {
        at -= 1;
        buf[at] = b'-';
    }
    out.extend(buf[at..].iter().map(|&digit| char::from(digit)));
}

/// Whether `byte` is written escaped inside a JSON string: `"`, `\` or
/// a control byte.
fn needs_escape(byte: u8) -> bool {
    matches!(byte, b'"' | b'\\' | 0..=0x1f)
}

/// Write `s` as a JSON string: each run of bytes that need no escape
/// pushed whole, each special byte — `"`, `\`, a control byte — escaped
/// on its own.
fn render_string(s: &str, out: &mut String) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let bytes = s.as_bytes();
    out.push('"');
    // `s[from..at]` is owed to `out`. A run is cut only at a special
    // byte, which is ASCII, so both ends are char boundaries.
    let (mut from, mut at) = (0, 0);
    loop {
        at = plain_run(bytes, at);
        // Past the plain ones of the last few bytes, which `plain_run`
        // leaves to be read one at a time.
        while bytes.get(at).is_some_and(|&b| !needs_escape(b)) {
            at += 1;
        }
        let Some(&byte) = bytes.get(at) else { break };
        out.push_str(&s[from..at]);
        match byte {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(HEX[usize::from(byte >> 4)] as char);
                out.push(HEX[usize::from(byte & 0xf)] as char);
            }
        }
        at += 1;
        from = at;
    }
    out.push_str(&s[from..]);
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The char-by-char writer the run copy replaced: the oracle it must
    /// agree with.
    fn render_string_by_char(s: &str, out: &mut String) {
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

    /// Run-copied escaping writes what the char loop writes — and what
    /// `Json::parse` reads back as the string — on random strings of
    /// plain runs, every control byte, `"`, `\`, DEL and multi-byte
    /// characters, each string behind 0 to 15 plain bytes, so each
    /// special byte is met at every position inside a word.
    #[test]
    fn run_copied_strings_agree_with_the_char_loop() {
        let mut pieces: Vec<String> = ["a", "zip", "EH8 4AH", "a longer plain run of text", " "]
            .iter()
            .flat_map(|plain| std::iter::repeat_n(plain.to_string(), 8))
            .collect();
        pieces.extend(["\"", "\\", "\u{7f}", "é", "🦀", "中文"].map(String::from));
        pieces.extend((0u8..0x20).map(|byte| char::from(byte).to_string()));
        let mut rng = StdRng::seed_from_u64(0x0571_31A7);
        let mut escaped = 0;
        for _ in 0..2000 {
            let mut body = String::new();
            for _ in 0..rng.gen_range(0..24) {
                body.push_str(&pieces[rng.gen_range(0..pieces.len())]);
            }
            for offset in 0..16 {
                let text = format!("{}{body}", "x".repeat(offset));
                let (mut runs, mut chars) = (String::from("["), String::from("["));
                render_string(&text, &mut runs);
                render_string_by_char(&text, &mut chars);
                assert_eq!(runs, chars, "{text:?}");
                escaped += usize::from(runs.len() > text.len() + 3);
                assert_eq!(Json::parse(&runs[1..]), Ok(Json::Str(text)));
            }
        }
        assert!(escaped > 10_000, "{escaped} strings needed an escape");
    }

    /// A key that comes from data is escaped: an object whose key holds
    /// `"`, `\` and a control byte renders to text that parses back to
    /// the same object.
    #[test]
    fn data_keys_are_escaped() {
        let doc = Json::Obj(vec![("f\"1\\\u{1}".to_string(), Json::Num(1.0))]);
        let mut out = String::new();
        JsonWriter::new(&mut out).json(&doc);
        assert_eq!(out, r#"{"f\"1\\\u0001":1}"#);
        assert_eq!(Json::parse(&out), Ok(doc));
    }

    /// Digits from the buffer are `format!`'s, for `u64`, `Value::Int`
    /// and an integral `f64`, and parse back to the number written.
    #[test]
    fn digit_buffers_write_what_format_writes() {
        let write = |fill: &dyn Fn(&mut JsonWriter<'_>)| {
            let mut out = String::new();
            fill(&mut JsonWriter::new(&mut out));
            out
        };
        for n in [0, 9, 10, 99, 100, 12_345, 1 << 53, u64::MAX - 1, u64::MAX] {
            let text = write(&|w| w.field("n", n));
            assert_eq!(text, format!("\"n\":{n}"));
            let parsed = Json::parse(&format!("{{{text}}}")).expect("an object");
            assert_eq!(parsed.get("n"), Some(&Json::Num(n as f64)));
        }
        for i in [
            0,
            -1,
            9,
            -9,
            10,
            -10,
            1 << 53,
            (1 << 53) + 1,
            i64::MAX,
            i64::MIN,
        ] {
            let text = write(&|w| w.value(&Value::Int(i)));
            assert_eq!(text, format!("{i}"));
            assert_eq!(Json::parse(&text), Ok(Json::Num(i as f64)));
        }
        let exact = 2f64.powi(53) - 1.0;
        for n in [0.0, -0.0, -1.0, 9.0, 10.0, -10.0, 1e15, exact, -exact] {
            let text = write(&|w| w.num(n));
            assert_eq!(text, format!("{}", n as i64));
            assert_eq!(Json::parse(&text), Ok(Json::Num(n)));
        }
    }
}
