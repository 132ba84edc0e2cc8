//! Wire errors: the one table of codes, and the one error type every
//! handler returns.
//!
//! A refusal is a row of the `errors!` table below, not a sentence: an
//! `ok:false` line is `{"ok":false,"code":"…","error":"…"}`, where
//! `code` is the row's wire name and `error` the human text. Everything
//! that varies by code — what a client may retry, which extra field the
//! line may carry, whether the text opens with the code (the eight codes
//! that did before there was a `code` field still do, so a v9 peer's
//! `starts_with("overloaded:")` keeps working) and the README's sentence
//! — is a column of that row, and [`ServeError::write`] is the only
//! place the line's fields are put on the wire.
//!
//! **Adding an error** is one row here plus one fixture in
//! `tests/wire_errors.rs` (which fails for a row without one) and one
//! line of the README's Errors table (a unit test below holds the two
//! equal). Raise it with [`ErrorCode::error`]; errors of the layers
//! below convert with `?` through the `From` impls at the bottom.

use crate::client::ClientError;
use crate::session::SessionError;
use crate::wire::{JsonWriter, WireError};
use cerfix_storage::SyncError;
use std::fmt;

/// The error table: one row per code. Expands to [`ErrorCode`] and its
/// column accessors, so the enum, [`ErrorCode::ALL`] and the name match
/// cannot disagree.
macro_rules! errors {
    ($($id:ident = $code:literal, $retryable:literal, $prefixed:literal, $extra:expr, $when:literal;)*) => {
        /// What an `ok:false` reply is refused with: its `code` field.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum ErrorCode { $(#[doc = $when] $id),* }

        impl ErrorCode {
            /// Every code, in table order.
            pub const ALL: &'static [ErrorCode] = &[$(ErrorCode::$id),*];

            /// The wire name.
            pub fn as_str(self) -> &'static str {
                match self { $(ErrorCode::$id => $code),* }
            }

            /// The code a wire name spells.
            pub fn parse(name: &str) -> Option<ErrorCode> {
                match name { $($code => Some(ErrorCode::$id),)* _ => None }
            }

            /// May a client send the same request again, after backing
            /// off, and expect a different answer?
            pub fn retryable(self) -> bool {
                match self { $(ErrorCode::$id => $retryable),* }
            }

            /// The one field beyond `code` and `error` a reply with
            /// this code may carry.
            pub fn extra_field(self) -> Option<&'static str> {
                match self { $(ErrorCode::$id => $extra),* }
            }

            /// When the code is sent: the README's sentence.
            pub fn when(self) -> &'static str {
                match self { $(ErrorCode::$id => $when),* }
            }

            /// Does the `error` text open with `code: `? It does for the
            /// eight codes whose text did before there was a `code`.
            fn prefixed(self) -> bool {
                match self { $(ErrorCode::$id => $prefixed),* }
            }
        }
    };
}

errors! {
//  id              wire code            retryable prefixed  extra field        when it is sent
    ParseError     = "parse_error",       false,   false,    None,              "the line is not RFC 8259 JSON; `error` names the byte";
    BadRequest     = "bad_request",       false,   false,    None,              "the line is JSON but not a request this node can serve: no such op, a missing or ill-typed field, a value the schema, the rules or the node's mode (memory / journaled) rules out, an over-long or non-UTF-8 line";
    NotFound       = "not_found",         false,   false,    None,              "the session id names no live session (expired, finished, or never created)";
    Overloaded     = "overloaded",        true,    true,     None,              "shed by admission control (requests in flight past the watermark) or over a quota (`--max-sessions`, `--max-connections`); nothing was done";
    Draining       = "draining",          true,    true,     None,              "the node is draining: it refuses fresh connections and new sessions — take them to another node";
    NotPrimary     = "not_primary",       false,   true,     Some("redirect"),  "a follower was asked to write; `redirect` is its primary's address, which a client follows instead of retrying here";
    StaleEpoch     = "stale_epoch",       false,   true,     None,              "a primary fenced by a replica at a higher epoch was asked to write, or a `replica.sync` carried a cursor from an epoch this node has not reached";
    Degraded       = "degraded",          false,   true,     None,              "the disk is full (or under `--min-free-bytes`): the node is read-only until space returns";
    StorageError   = "storage_error",     false,   true,     None,              "the data directory failed: a write or fsync did (the mutation is applied but not durable), a read did, or the journal is poisoned by an earlier failed fsync and mutations are refused";
    QuorumTimeout  = "quorum_timeout",    false,   true,     None,              "the commit is applied and durable here, but a majority did not acknowledge it within `--ack-timeout-ms`";
    DeadlineExceeded = "deadline_exceeded", false, true,     None,              "the request's `deadline_ms` passed before work began, or while its commit waited for follower acks";
    Internal       = "internal",          false,   false,    None,              "the node could not do its own part: a peer of a `cluster.status` fan-out did not answer, recovered state does not replay";
}

impl ErrorCode {
    /// An error of this code saying `detail`.
    pub fn error(self, detail: impl Into<String>) -> ServeError {
        ServeError(Box::new(ErrorBody {
            code: self,
            detail: detail.into(),
            redirect: None,
        }))
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Why a request was not served — what every handler returns in place
/// of its reply: a row of the table, the human sentence (without the
/// code), and for `not_primary` where to take the request instead.
/// Boxed, so `Result<(), ServeError>` is one word on the `Ok` path every
/// hot request returns through.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeError(Box<ErrorBody>);

const _: () = assert!(std::mem::size_of::<ServeError>() <= 24);
const _: () = assert!(std::mem::size_of::<Result<(), ServeError>>() <= 24);

#[derive(Debug, Clone, PartialEq, Eq)]
struct ErrorBody {
    code: ErrorCode,
    detail: String,
    redirect: Option<String>,
}

impl ServeError {
    /// The row of the table.
    pub fn code(&self) -> ErrorCode {
        self.0.code
    }

    /// The same error, pointing the client at `addr`.
    pub(crate) fn redirect_to(mut self, addr: &str) -> ServeError {
        debug_assert_eq!(self.code().extra_field(), Some("redirect"));
        self.0.redirect = Some(addr.to_string());
        self
    }

    /// The fields of an `ok:false` document, into an object the caller
    /// opened and will close — the one place they are written. `error`
    /// is the v9 text byte for byte (see [`Display`](fmt::Display)).
    pub(crate) fn write(&self, w: &mut JsonWriter<'_>) {
        w.field("ok", false);
        w.field("code", self.code().as_str());
        w.field("error", &self.to_string());
        if let Some(addr) = &self.0.redirect {
            w.field("redirect", addr);
        }
    }
}

/// The `error` text: `code: detail` for the codes whose text has always
/// opened that way, the bare sentence for the rest.
impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.code.prefixed() {
            write!(f, "{}: {}", self.0.code, self.0.detail)
        } else {
            f.write_str(&self.0.detail)
        }
    }
}

impl std::error::Error for ServeError {}

/// The errors of the layers below, in their own words, under the code
/// of what went wrong: what the request said (the schema, the rules and
/// the monitor refuse it), the data directory, a peer of this node's —
/// its failure to its own caller, whatever the peer called it.
macro_rules! error_from {
    ($($code:ident: $($source:ty),*;)*) => {$($(
        impl From<$source> for ServeError {
            fn from(error: $source) -> ServeError {
                ErrorCode::$code.error(error.to_string())
            }
        }
    )*)*};
}

error_from! {
    BadRequest: cerfix::CerfixError, cerfix_relation::RelationError, cerfix_rules::RuleError;
    StorageError: std::io::Error;
    Internal: ClientError;
}

impl From<WireError> for ServeError {
    fn from(error: WireError) -> ServeError {
        ErrorCode::BadRequest.error(error.0)
    }
}

impl From<SessionError> for ServeError {
    fn from(error: SessionError) -> ServeError {
        match error {
            SessionError::NotFound(_) => ErrorCode::NotFound.error(error.to_string()),
            SessionError::Full { max_sessions } => ErrorCode::Overloaded
                .error(format!("session registry at its quota of {max_sessions}")),
        }
    }
}

/// A group fsync that did not happen. The mutation it was for is
/// already applied in memory and queued in the journal, so this is an
/// honest "applied but not durable", never a silent ack.
impl From<SyncError> for ServeError {
    fn from(error: SyncError) -> ServeError {
        ErrorCode::StorageError.error(match error {
            SyncError::WriteFailed { error, .. } => format!(
                "applied but not durable (journal write failed: {error}); \
                 retry after the disk recovers"
            ),
            SyncError::Poisoned { error } => {
                format!("applied but not durable (journal poisoned: {error})")
            }
            SyncError::Stopped => "applied but not durable (journal stopped)".to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip_and_only_the_old_prefixes_are_prefixes() {
        for &code in ErrorCode::ALL {
            assert_eq!(ErrorCode::parse(code.as_str()), Some(code));
            let text = code.error("why").to_string();
            if code.prefixed() {
                assert_eq!(text, format!("{code}: why"));
            } else {
                assert_eq!(text, "why");
            }
        }
        assert_eq!(ErrorCode::parse("nope"), None);
        let prefixed = ErrorCode::ALL.iter().filter(|code| code.prefixed()).count();
        assert_eq!(prefixed, 8);
    }

    #[test]
    fn the_line_is_ok_code_error_then_the_extra_field() {
        let render = |error: &ServeError| {
            let mut out = String::new();
            let mut w = JsonWriter::new(&mut out);
            w.begin_response(Some("7"));
            error.write(&mut w);
            w.end_obj();
            out
        };
        assert_eq!(
            render(&ErrorCode::NotFound.error("unknown session 7")),
            r#"{"id":7,"ok":false,"code":"not_found","error":"unknown session 7"}"#
        );
        assert_eq!(
            render(
                &ErrorCode::NotPrimary
                    .error("this node is a read-only follower; primary is h:1")
                    .redirect_to("h:1")
            ),
            r#"{"id":7,"ok":false,"code":"not_primary","error":"not_primary: this node is a read-only follower; primary is h:1","redirect":"h:1"}"#
        );
    }

    /// The README's Errors table is this table: the same codes, in
    /// order, with the same retryable / extra-field / when columns.
    #[test]
    fn readme_errors_table_matches_the_errors_table() {
        let readme = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"));
        let reference = readme
            .split("### Errors")
            .nth(1)
            .expect("README has an Errors section");
        let documented: Vec<String> = reference
            .lines()
            .skip_while(|line| !line.starts_with("| code |"))
            .skip(2)
            .take_while(|line| line.starts_with('|'))
            .map(|line| {
                let cells: Vec<&str> = line.split(" | ").collect();
                let cells: Vec<&str> = cells
                    .iter()
                    .map(|cell| cell.trim().trim_matches('|').trim())
                    .collect();
                cells.join(" | ")
            })
            .collect();
        let table: Vec<String> = ErrorCode::ALL
            .iter()
            .map(|code| {
                format!(
                    "`{code}` | {} | {} | {}",
                    if code.retryable() { "yes" } else { "no" },
                    code.extra_field()
                        .map_or("—".to_string(), |field| format!("`{field}`")),
                    code.when()
                )
            })
            .collect();
        assert_eq!(documented, table);
    }
}
