//! The writing side of the wire format: [`JsonWriter`], the one place
//! commas, colons, brackets, string escapes and number formatting are
//! emitted.

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
        use std::fmt::Write;
        w.sep();
        let _ = write!(w.out, "{self}");
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

    /// Write an object key (the next write is its value).
    pub fn key(&mut self, name: &str) {
        self.sep();
        render_string(name, self.out);
        self.out.push(':');
    }

    /// An object member with a scalar value: the key, then the value.
    pub fn field(&mut self, name: &str, value: impl JsonScalar) {
        self.key(name);
        value.write(self);
    }

    /// An object member holding an array: the key, then one element per
    /// item, written by `each`.
    pub fn array<T>(
        &mut self,
        name: &str,
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
                use std::fmt::Write;
                self.sep();
                let _ = write!(self.out, "{i}");
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
                    self.key(key);
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
        let _ = write!(out, "{}", n as i64);
    } else if n.is_finite() {
        let _ = write!(out, "{n}");
    } else {
        // JSON has no Inf/NaN; null is the least-bad rendering.
        out.push_str("null");
    }
}

fn render_string(s: &str, out: &mut String) {
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
