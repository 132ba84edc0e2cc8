//! The one client: one connection, one turn in flight.
//!
//! Everything the timed path touches is allocated up front. Every
//! reply is checked in line (`ok`, the echoed `id` in order, the
//! request's expected substring); every 64th reply is copied aside and,
//! between blocks, parsed and compared field by field with the oracle.

use crate::alloc;
use crate::load::Reply;
use cerfix_server::wire::Json;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

/// Parse and compare one reply in [`DEEP_EVERY`].
pub const DEEP_EVERY: u64 = 64;
/// Reply buffer: the largest `clean` reply is ≈ 30 KB.
const INBUF: usize = 1 << 20;
/// Replies set aside per block for the deep check.
const ASIDE_SLOTS: usize = 256;
const ASIDE_BYTES: usize = 4 << 20;
/// Failures of one tally that are spelt out on standard error.
const LOUD_FAILURES: u64 = 8;

/// Operations attempted and failed, with the first failure kept for
/// the report.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Tally {
    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.failed <= LOUD_FAILURES {
            // On standard error as they happen, so that whoever keeps
            // only the tail of it still learns why a run failed.
            let why = what();
            eprintln!("ledger: failed operation: {why}");
            self.first_failure.get_or_insert(why);
        }
    }

    /// Take over the counts of another client's tally.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }

    /// A check outside the request stream: one more operation, failed
    /// unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what);
        }
    }
}

/// A reply set aside for the deep check.
struct Aside {
    bytes: std::ops::Range<usize>,
    /// Index into the caller's expectations.
    token: u64,
}

pub struct Client {
    stream: TcpStream,
    inbuf: Vec<u8>,
    filled: usize,
    consumed: usize,
    aside: Vec<Aside>,
    aside_bytes: Vec<u8>,
    /// Replies received so far (drives the every-64th deep check).
    replies: u64,
    /// Why the connection stopped yielding replies, once it has.
    gone: Option<String>,
    pub tally: Tally,
    pub bytes_out: u64,
    pub bytes_in: u64,
    /// Allocations made by deep checks: the benchmark's own, taken out
    /// of `allocs_per_unit`.
    pub check_allocs: u64,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            inbuf: vec![0; INBUF],
            filled: 0,
            consumed: 0,
            aside: Vec::with_capacity(ASIDE_SLOTS),
            aside_bytes: Vec::with_capacity(ASIDE_BYTES),
            replies: 0,
            gone: None,
            tally: Tally::default(),
            bytes_out: 0,
            bytes_in: 0,
            check_allocs: 0,
        })
    }

    /// Send `lines` request lines.
    pub fn send(&mut self, bytes: &[u8], lines: u64) {
        self.tally.attempted += lines;
        self.bytes_out += bytes.len() as u64;
        if let Err(e) = self.stream.write_all(bytes) {
            self.tally.fail(|| format!("write: {e}"));
        }
    }

    /// Receive the next reply line (without its newline) as a range of
    /// the reply buffer. `None` when the connection is gone or the line
    /// outgrows the buffer — the caller's pending replies are then
    /// missing, hence failed.
    fn recv(&mut self) -> Option<std::ops::Range<usize>> {
        let mut scanned = self.consumed;
        loop {
            if let Some(rel) = self.inbuf[scanned..self.filled]
                .iter()
                .position(|&b| b == b'\n')
            {
                let start = self.consumed;
                let end = scanned + rel;
                self.consumed = end + 1;
                self.replies += 1;
                return Some(start..end);
            }
            scanned = self.filled;
            if self.filled == self.inbuf.len() {
                if self.consumed == 0 {
                    self.gone
                        .get_or_insert_with(|| "a reply line outgrew the reply buffer".into());
                    return None;
                }
                self.inbuf.copy_within(self.consumed..self.filled, 0);
                self.filled -= self.consumed;
                scanned -= self.consumed;
                self.consumed = 0;
            }
            match self.stream.read(&mut self.inbuf[self.filled..]) {
                // A signal is not a lost connection: `read` alone does
                // not retry it the way `write_all` does.
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Ok(0) => {
                    self.gone
                        .get_or_insert_with(|| "the server closed the connection".into());
                    return None;
                }
                Err(e) => {
                    self.gone.get_or_insert_with(|| format!("read: {e}"));
                    return None;
                }
                Ok(n) => {
                    self.filled += n;
                    self.bytes_in += n as u64;
                }
            }
        }
    }

    /// Start a turn: every earlier reply has been consumed, so the
    /// buffer starts over.
    pub fn begin_turn(&mut self) {
        if self.consumed == self.filled {
            self.consumed = 0;
            self.filled = 0;
        }
    }

    /// Receive one reply and check it in line: `ok`, the echoed
    /// `expect_id`, and `needle` somewhere in it. `token` names the
    /// expectation for the deep check. Returns the reply when it passed.
    pub fn expect(&mut self, expect_id: u64, needle: &[u8], token: u64) -> Option<&[u8]> {
        let deep = (self.replies + 1).is_multiple_of(DEEP_EVERY);
        let Some(range) = self.recv() else {
            let why = self.gone.as_deref().unwrap_or("no reply");
            self.tally
                .fail(|| format!("reply to id {expect_id} missing: {why}"));
            return None;
        };
        let line = &self.inbuf[range.clone()];
        if let Err(why) = check_line(line, expect_id, needle) {
            self.tally.fail(|| why);
            return None;
        }
        let start = self.aside_bytes.len();
        if deep && self.aside.len() < ASIDE_SLOTS && start + line.len() <= ASIDE_BYTES {
            self.aside_bytes.extend_from_slice(line);
            self.aside.push(Aside {
                bytes: start..start + line.len(),
                token,
            });
        }
        Some(line)
    }

    /// Between blocks, outside every timed region: parse the replies
    /// set aside and hand each, with its token, to `verify`.
    pub fn deep_check(&mut self, mut verify: impl FnMut(u64, &Json) -> Result<(), String>) {
        let before = alloc::count();
        for item in &self.aside {
            let text = &self.aside_bytes[item.bytes.clone()];
            let verdict = std::str::from_utf8(text)
                .map_err(|e| e.to_string())
                .and_then(|t| Json::parse(t).map_err(|e| e.to_string()))
                .and_then(|json| verify(item.token, &json));
            self.tally.attempted += 1;
            if let Err(why) = verdict {
                self.tally.fail(|| {
                    format!(
                        "deep check: {why}: {}",
                        String::from_utf8_lossy(&text[..text.len().min(300)])
                    )
                });
            }
        }
        self.aside.clear();
        self.aside_bytes.clear();
        self.check_allocs += alloc::count() - before;
    }
}

/// `{"id":<id>,"ok":true` then, somewhere, `needle`.
fn check_line(line: &[u8], id: u64, needle: &[u8]) -> Result<(), String> {
    let mut digits = [0u8; 20];
    let id_text = render_u64(id, &mut digits);
    let ok = line
        .strip_prefix(b"{\"id\":")
        .and_then(|rest| rest.strip_prefix(id_text))
        .is_some_and(|rest| rest.starts_with(b",\"ok\":true"));
    if !ok {
        return Err(format!(
            "expected ok reply to id {id}, got: {}",
            String::from_utf8_lossy(&line[..line.len().min(200)])
        ));
    }
    if !contains(line, needle) {
        return Err(format!(
            "reply to id {id} lacks {}: {}",
            String::from_utf8_lossy(needle),
            String::from_utf8_lossy(&line[..line.len().min(300)])
        ));
    }
    Ok(())
}

/// Decimal digits of `n`, written into `buf` without allocating.
pub fn render_u64(mut n: u64, buf: &mut [u8; 20]) -> &[u8] {
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            return &buf[at..];
        }
    }
}

fn contains(haystack: &[u8], needle: &[u8]) -> bool {
    let Some((&first, rest)) = needle.split_first() else {
        return true;
    };
    let mut from = 0;
    while let Some(rel) = haystack[from..].iter().position(|&b| b == first) {
        let at = from + rel + 1;
        if haystack[at..].starts_with(rest) {
            return true;
        }
        from = at;
    }
    false
}

/// The unsigned number right after the first `key` in `line`.
pub fn field_u64(line: &[u8], key: &[u8]) -> Option<u64> {
    let at = line.windows(key.len()).position(|w| w == key)? + key.len();
    let digits = line[at..].iter().take_while(|b| b.is_ascii_digit());
    let mut value: Option<u64> = None;
    for d in digits {
        value = Some(
            value
                .unwrap_or(0)
                .checked_mul(10)?
                .checked_add(u64::from(d - b'0'))?,
        );
    }
    value
}

/// Field-by-field comparison of a parsed reply with the oracle.
pub fn compare(json: &Json, reply: &Reply) -> Result<(), String> {
    if json.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err("not ok".into());
    }
    if json.get("id").and_then(Json::as_u64) != Some(reply.id) {
        return Err(format!("wrong id, expected {}", reply.id));
    }
    compare_fields(json, &reply.deep)
}

/// Every expected field must be there with the expected value; field
/// order and extra fields are the server's business.
pub fn compare_fields(json: &Json, fields: &[(&'static str, Json)]) -> Result<(), String> {
    for (key, expected) in fields {
        match json.get(key) {
            Some(got) if got == expected => {}
            Some(got) => {
                return Err(format!(
                    "field `{key}`: expected {}, got {}",
                    expected.render(),
                    got.render()
                ))
            }
            None => return Err(format!("field `{key}` missing")),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_line_check_wants_ok_the_id_and_the_needle() {
        let line = br#"{"id":41,"ok":true,"session":7,"tuple":["a","b"]}"#;
        assert!(check_line(line, 41, br#""tuple":["a","b"]"#).is_ok());
        assert!(
            check_line(line, 4, b"tuple").is_err(),
            "id 4 is a prefix of 41, not equal"
        );
        assert!(check_line(line, 41, br#""tuple":["a","c"]"#).is_err());
        let refused = br#"{"id":41,"ok":false,"error":"overloaded"}"#;
        assert!(check_line(refused, 41, b"").is_err());
        assert_eq!(field_u64(line, b"\"session\":"), Some(7));
        assert_eq!(field_u64(refused, b"\"session\":"), None);
    }

    #[test]
    fn render_u64_writes_decimal_digits() {
        let mut buf = [0u8; 20];
        assert_eq!(render_u64(0, &mut buf), b"0");
        assert_eq!(
            render_u64(18_446_744_073_709_551_615, &mut buf),
            b"18446744073709551615"
        );
    }

    #[test]
    fn deep_compare_names_the_field_that_differs() {
        let reply = Reply {
            id: 3,
            needle: 0..0,
            deep: vec![
                ("rounds", Json::Num(2.0)),
                ("status", Json::str("complete")),
            ],
        };
        let good =
            Json::parse(r#"{"id":3,"ok":true,"status":"complete","rounds":2,"extra":1}"#).unwrap();
        assert!(
            compare(&good, &reply).is_ok(),
            "field order and extra fields are free"
        );
        let bad = Json::parse(r#"{"id":3,"ok":true,"status":"complete","rounds":3}"#).unwrap();
        assert!(compare(&bad, &reply).unwrap_err().contains("rounds"));
    }
}
