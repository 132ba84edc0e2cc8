//! Protocol clients: TCP and in-process.
//!
//! [`Client`] is generic over a [`Transport`] — either a real
//! [`TcpTransport`] socket or the [`LocalTransport`] that calls straight
//! into a [`CleaningService`] *through the same wire encode/decode
//! path*, so in-process tests exercise the full protocol without
//! sockets. Typed views ([`SessionView`], [`CommitView`], …) pick the
//! documented response fields apart once, instead of every caller
//! spelunking through JSON.

use crate::errors::ErrorCode;
use crate::protocol::Request;
use crate::service::CleaningService;
use crate::wire::scan::ObjectScanner;
use crate::wire::{Json, WireError};
use cerfix_relation::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Redirect-follow cap per request: a `not_primary` chain longer than
/// this means the cluster cannot agree who leads — give the caller the
/// error instead of ping-ponging.
const MAX_REDIRECTS: u32 = 4;

/// Reconnect/retry behavior for [`TcpTransport`].
///
/// A dropped connection used to be a hard error; with a policy the
/// transport redials the original address with capped, jittered
/// exponential backoff and (for [`Client::request`]) retries the
/// request. Retrying re-sends the line on a fresh connection, so a
/// non-idempotent request that was *executed* before the connection
/// died can run twice — callers for whom that matters should use
/// [`RetryPolicy::none`]. Pipelined sends ([`Client::pipeline`]) never
/// retry; they only benefit from the automatic redial on next use.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Extra attempts after the first failure (`0` = fail fast).
    pub retries: u32,
    /// Backoff before the first retry; doubles per attempt.
    pub base_delay: Duration,
    /// Backoff cap.
    pub max_delay: Duration,
    /// Per-request socket timeout (both read and write). A request
    /// exceeding it fails with a timeout error and the connection is
    /// redialed before any retry (a half-read response line cannot be
    /// resynchronized). `None` blocks indefinitely.
    pub request_timeout: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            retries: 2,
            base_delay: Duration::from_millis(20),
            max_delay: Duration::from_millis(500),
            request_timeout: None,
        }
    }
}

impl RetryPolicy {
    /// Fail-fast: no retries, no timeout (the pre-v5 client behavior).
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            retries: 0,
            ..RetryPolicy::default()
        }
    }

    /// The backoff before retry `attempt` (1-based): exponential from
    /// `base_delay`, capped at `max_delay`, with ±25% jitter so a herd
    /// of reconnecting clients does not stampede in lockstep.
    pub(crate) fn backoff(&self, attempt: u32, seed: &mut u64) -> Duration {
        let exp = attempt.saturating_sub(1).min(16);
        let raw = self
            .base_delay
            .saturating_mul(1u32.checked_shl(exp).unwrap_or(u32::MAX))
            .min(self.max_delay);
        jittered(raw, seed)
    }
}

/// `delay` ±25%, driven by a caller-held xorshift state (no external
/// RNG dependency; replication shares this).
pub(crate) fn jittered(delay: Duration, seed: &mut u64) -> Duration {
    let nanos = delay.as_nanos() as u64;
    if nanos == 0 {
        return delay;
    }
    // 75%..125% of the nominal delay.
    let spread = nanos / 2;
    let offset = next_rand(seed) % (spread + 1);
    Duration::from_nanos(nanos - spread / 2 + offset)
}

/// Seed jitter from the wall clock's sub-second noise (good enough for
/// backoff de-correlation; never zero).
pub(crate) fn jitter_seed() -> u64 {
    use std::time::{SystemTime, UNIX_EPOCH};
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.subsec_nanos() as u64 ^ d.as_secs())
        .unwrap_or(0x5DEECE66D);
    (nanos << 1) | 1
}

/// Token-bucket retry budget: the governor that keeps client retries
/// from amplifying an overload.
///
/// Every `overloaded` / `draining` retry and every `not_primary`
/// redirect spends one token; tokens refill at `refill_per_sec` up to
/// `capacity`. A healthy client with occasional hiccups never notices
/// the budget; a client facing a persistently overloaded server runs
/// dry and starts surfacing the typed errors to its caller instead of
/// hammering the server — turning N retrying clients from a thundering
/// herd into a bounded, self-limiting trickle.
#[derive(Debug, Clone)]
pub struct RetryBudget {
    tokens: f64,
    capacity: f64,
    refill_per_sec: f64,
    last: Instant,
}

impl Default for RetryBudget {
    /// A small burst allowance (4 tokens) refilling at 1 token/sec —
    /// enough to follow a failover redirect chain, too slow to sustain
    /// a retry storm.
    fn default() -> RetryBudget {
        RetryBudget::new(4, 1.0)
    }
}

impl RetryBudget {
    /// A budget holding at most `capacity` tokens (starts full),
    /// refilling continuously at `refill_per_sec`.
    pub fn new(capacity: u32, refill_per_sec: f64) -> RetryBudget {
        RetryBudget {
            tokens: capacity as f64,
            capacity: capacity as f64,
            refill_per_sec: refill_per_sec.max(0.0),
            last: Instant::now(),
        }
    }

    /// Spend one token if available. `false` means the budget is
    /// exhausted — do not retry.
    pub fn try_spend(&mut self) -> bool {
        let now = Instant::now();
        let elapsed = now.duration_since(self.last).as_secs_f64();
        self.last = now;
        self.tokens = (self.tokens + elapsed * self.refill_per_sec).min(self.capacity);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// xorshift64*: tiny, stateless-dependency PRNG for jitter only.
pub(crate) fn next_rand(seed: &mut u64) -> u64 {
    let mut x = *seed;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *seed = x;
    x.wrapping_mul(0x2545F4914F6CDD1D)
}

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Socket failure.
    Io(std::io::Error),
    /// Malformed response.
    Wire(WireError),
    /// The server answered `{"ok":false,...}`.
    Server {
        /// The reply's `code` — `None` from a pre-v10 server, or for a
        /// code this client's table does not have; such a reply is not
        /// retried.
        code: Option<ErrorCode>,
        /// The reply's `error` text.
        message: String,
        /// The reply's `redirect`: the address to take the request to.
        redirect: Option<String>,
    },
}

impl ClientError {
    /// The code the server refused with, when this is a refusal and it
    /// carried one.
    pub fn code(&self) -> Option<ErrorCode> {
        match self {
            ClientError::Server { code, .. } => *code,
            _ => None,
        }
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Wire(e) => write!(f, "{e}"),
            ClientError::Server { message, .. } => write!(f, "server error: {message}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> ClientError {
        ClientError::Wire(e)
    }
}

/// One request line in, one response line out — plus split send/receive
/// for pipelining (the server guarantees responses in request order per
/// connection).
pub trait Transport {
    /// Send `line` (no trailing newline) and read the response line
    /// into `response` (cleared first).
    fn round_trip(&mut self, line: &str, response: &mut String) -> Result<(), ClientError>;

    /// Queue `line` without waiting for its response.
    fn send(&mut self, line: &str) -> Result<(), ClientError>;

    /// Receive the next response line (for a previously sent request).
    fn recv(&mut self) -> Result<String, ClientError>;

    /// Re-point the transport at a different server (a `not_primary`
    /// redirect). `false` means this transport cannot move (the
    /// in-process transport, for one) and the redirect error should
    /// surface to the caller.
    fn repoint(&mut self, addr: &str) -> bool {
        let _ = addr;
        false
    }

    /// Spend one token from the transport's retry budget. `false`
    /// means the budget is dry — surface the error instead of
    /// retrying. Transports without a budget never authorize a retry,
    /// so budget-governed redirect/retry loops are opt-in by transport.
    fn spend_retry(&mut self) -> bool {
        false
    }
}

/// Blocking TCP transport with redial: any I/O failure marks the
/// connection broken, and the next send transparently reconnects to
/// the original address. Round trips additionally retry per the
/// [`RetryPolicy`]; split send/receive (pipelining) never retry.
pub struct TcpTransport {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// The request line and its newline, framed here so that one
    /// request is one `write`: on a `TCP_NODELAY` socket two writes are
    /// two segments, and the server may wake twice for one line.
    frame: Vec<u8>,
    /// Redial target (what `connect` was given).
    addr: String,
    policy: RetryPolicy,
    /// Set on any I/O error; cleared by a successful redial. A broken
    /// connection may hold a half-written request or half-read
    /// response, so it is never reused.
    broken: bool,
    seed: u64,
    /// Governs `not_primary` redirects and `overloaded`/`draining`
    /// retries so they cannot amplify an overload.
    budget: RetryBudget,
}

impl TcpTransport {
    fn dial(
        addr: &str,
        policy: &RetryPolicy,
    ) -> Result<(BufReader<TcpStream>, TcpStream), ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(policy.request_timeout)?;
        stream.set_write_timeout(policy.request_timeout)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok((reader, stream))
    }

    fn ensure_connected(&mut self) -> Result<(), ClientError> {
        if !self.broken {
            return Ok(());
        }
        let (reader, writer) = TcpTransport::dial(&self.addr, &self.policy)?;
        self.reader = reader;
        self.writer = writer;
        self.broken = false;
        Ok(())
    }

    fn send_raw(&mut self, line: &str) -> Result<(), ClientError> {
        self.ensure_connected()?;
        self.frame.clear();
        self.frame.extend_from_slice(line.as_bytes());
        self.frame.push(b'\n');
        self.writer.write_all(&self.frame).map_err(|e| {
            self.broken = true;
            ClientError::Io(e)
        })
    }

    fn recv_raw(&mut self, response: &mut String) -> Result<(), ClientError> {
        response.clear();
        match self.reader.read_line(response) {
            Ok(0) => {
                self.broken = true;
                Err(ClientError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                )))
            }
            Ok(_) => Ok(()),
            Err(e) => {
                self.broken = true;
                Err(ClientError::Io(e))
            }
        }
    }
}

impl Transport for TcpTransport {
    fn round_trip(&mut self, line: &str, response: &mut String) -> Result<(), ClientError> {
        let mut attempt = 0u32;
        loop {
            match self.send_raw(line).and_then(|()| self.recv_raw(response)) {
                Ok(()) => return Ok(()),
                // Only transport failures retry — a server-side error
                // response is an answer, not a delivery failure.
                Err(ClientError::Io(e)) if attempt < self.policy.retries => {
                    attempt += 1;
                    let _ = e;
                    std::thread::sleep(self.policy.backoff(attempt, &mut self.seed));
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn send(&mut self, line: &str) -> Result<(), ClientError> {
        self.send_raw(line)
    }

    fn recv(&mut self) -> Result<String, ClientError> {
        let mut response = String::new();
        self.recv_raw(&mut response)?;
        Ok(response)
    }

    fn repoint(&mut self, addr: &str) -> bool {
        // Marking the connection broken makes the next send redial the
        // new address; the old socket drops with the replaced reader /
        // writer at that point.
        self.addr = addr.to_string();
        self.broken = true;
        true
    }

    fn spend_retry(&mut self) -> bool {
        self.budget.try_spend()
    }
}

/// In-process transport: dispatches into the service directly, still
/// going through wire parsing/rendering on both sides. Pipelined sends
/// execute immediately; responses queue until received.
pub struct LocalTransport {
    service: CleaningService,
    pending: std::collections::VecDeque<String>,
}

impl Transport for LocalTransport {
    fn round_trip(&mut self, line: &str, response: &mut String) -> Result<(), ClientError> {
        *response = self.service.handle_line(line);
        Ok(())
    }

    fn send(&mut self, line: &str) -> Result<(), ClientError> {
        let response = self.service.handle_line(line);
        self.pending.push_back(response);
        Ok(())
    }

    fn recv(&mut self) -> Result<String, ClientError> {
        self.pending.pop_front().ok_or_else(|| {
            ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "recv without a pending pipelined request",
            ))
        })
    }
}

/// A protocol client over any transport.
pub struct Client<T: Transport = TcpTransport> {
    transport: T,
}

/// A [`Client`] wired directly to an in-process service.
pub type LocalClient = Client<LocalTransport>;

impl Client<TcpTransport> {
    /// Connect to a running server with the default [`RetryPolicy`]
    /// (a couple of redial-and-retry attempts with jittered backoff).
    pub fn connect(
        addr: impl ToSocketAddrs + ToString,
    ) -> Result<Client<TcpTransport>, ClientError> {
        Client::connect_with(addr, RetryPolicy::default())
    }

    /// Connect with an explicit reconnect/timeout policy (the
    /// replication tail runs with short per-request timeouts; tests
    /// that assert on hard disconnects use [`RetryPolicy::none`]).
    pub fn connect_with(
        addr: impl ToSocketAddrs + ToString,
        policy: RetryPolicy,
    ) -> Result<Client<TcpTransport>, ClientError> {
        let addr = addr.to_string();
        let (reader, writer) = TcpTransport::dial(&addr, &policy)?;
        Ok(Client {
            transport: TcpTransport {
                reader,
                writer,
                frame: Vec::new(),
                addr,
                policy,
                broken: false,
                seed: jitter_seed(),
                budget: RetryBudget::default(),
            },
        })
    }

    /// Replace the redirect/retry [`RetryBudget`] (default: 4 tokens,
    /// 1/sec refill). A zero-capacity budget disables redirect
    /// following entirely.
    pub fn with_retry_budget(mut self, budget: RetryBudget) -> Client<TcpTransport> {
        self.transport.budget = budget;
        self
    }

    /// The address this client is currently pointed at (changes when a
    /// `not_primary` redirect re-points it).
    pub fn current_addr(&self) -> &str {
        &self.transport.addr
    }

    /// A second handle on the connection's socket, for a thread that
    /// must break a blocked read from outside (`shutdown(Both)`).
    pub(crate) fn socket(&self) -> std::io::Result<TcpStream> {
        self.transport.writer.try_clone()
    }
}

impl Client<LocalTransport> {
    /// A client calling straight into `service` (tests, embedding).
    pub fn in_process(service: &CleaningService) -> LocalClient {
        Client {
            transport: LocalTransport {
                service: service.clone(),
                pending: std::collections::VecDeque::new(),
            },
        }
    }
}

/// Did the server answer `"ok":true`? Its `error` otherwise. Scanned,
/// not parsed, and no further than the verdict: whoever reads the rest
/// of an `ok` line finds out whether it is well-formed.
fn check_ok(response_line: &str) -> Result<(), ClientError> {
    let malformed = || WireError("malformed server response".to_string());
    let mut fields = ObjectScanner::new(response_line).ok_or_else(malformed)?;
    let (mut key_buf, mut buf) = (String::new(), String::new());
    let (mut code, mut message, mut redirect) = (None, None, None);
    while let Some((key, value, _)) = fields.next_field() {
        match key.unescape_into(&mut key_buf) {
            "ok" if value.as_bool() == Some(true) => return Ok(()),
            "code" => code = value.as_str(&mut buf).and_then(ErrorCode::parse),
            "error" => message = value.as_str(&mut buf).map(str::to_string),
            "redirect" => redirect = value.as_str(&mut buf).map(str::to_string),
            _ => {}
        }
    }
    fields.finish()?;
    Err(ClientError::Server {
        code,
        message: message.ok_or_else(malformed)?,
        redirect,
    })
}

fn get_u64(json: &Json, key: &str) -> Result<u64, ClientError> {
    json.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| ClientError::Wire(WireError(format!("response missing `{key}`"))))
}

fn get_strings(json: &Json, key: &str) -> Vec<String> {
    json.get(key)
        .and_then(Json::as_arr)
        .map(|items| {
            items
                .iter()
                .filter_map(|i| i.as_str().map(str::to_string))
                .collect()
        })
        .unwrap_or_default()
}

fn get_tuple(json: &Json, key: &str) -> Result<Vec<Value>, ClientError> {
    json.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| ClientError::Wire(WireError(format!("response missing `{key}`"))))?
        .iter()
        .map(|item| item.to_value().map_err(ClientError::Wire))
        .collect()
}

/// Snapshot of a live session, as returned by create/get/validate/fix.
#[derive(Debug, Clone)]
pub struct SessionView {
    /// Server-assigned id.
    pub session: u64,
    /// `awaiting_user`, `complete` or `stuck`.
    pub status: String,
    /// Suggested attributes to validate next (empty unless awaiting).
    pub suggestion: Vec<String>,
    /// Current cell values.
    pub tuple: Vec<Value>,
    /// Interaction rounds so far.
    pub rounds: u64,
    /// Validated attribute names.
    pub validated: Vec<String>,
    /// Rule fixes from the latest validate/fix call (attr, old, new).
    pub fixes: Vec<(String, Value, Value)>,
}

impl SessionView {
    fn from_json(json: &Json) -> Result<SessionView, ClientError> {
        Ok(SessionView {
            session: get_u64(json, "session")?,
            status: json
                .get("status")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
            suggestion: get_strings(json, "suggestion"),
            tuple: get_tuple(json, "tuple")?,
            rounds: get_u64(json, "rounds")?,
            validated: get_strings(json, "validated"),
            fixes: json
                .get("fixes")
                .and_then(Json::as_arr)
                .map(|fixes| {
                    fixes
                        .iter()
                        .filter_map(|fix| {
                            Some((
                                fix.get("attr")?.as_str()?.to_string(),
                                fix.get("old")?.to_value().ok()?,
                                fix.get("new")?.to_value().ok()?,
                            ))
                        })
                        .collect()
                })
                .unwrap_or_default(),
        })
    }

    /// True iff the session reached a certain fix.
    pub fn is_complete(&self) -> bool {
        self.status == "complete"
    }
}

/// Final state returned by `session.commit`.
#[derive(Debug, Clone)]
pub struct CommitView {
    /// True iff every attribute was validated (a certain fix).
    pub complete: bool,
    /// The final tuple.
    pub tuple: Vec<Value>,
    /// Interaction rounds used.
    pub rounds: u64,
    /// Attributes validated by the user.
    pub user_validated: u64,
    /// Attributes validated by rules.
    pub auto_validated: u64,
}

/// One page from `audit.read`.
#[derive(Debug, Clone)]
pub struct AuditPage {
    /// Global index the page started at.
    pub start: u64,
    /// Index to pass as `start` for the next page.
    pub next: u64,
    /// Records in the whole provenance stream.
    pub total: u64,
    /// Of those, records not resident in the server's memory: every
    /// one on a journaled server (served from its disk spill), the
    /// evicted ones on an in-memory server (served no more).
    pub spilled: u64,
    /// The records on this page.
    pub records: Vec<AuditRecordView>,
}

/// One cell-level provenance record, as rendered on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditRecordView {
    /// Global append index.
    pub index: u64,
    /// Tuple (session or batch-reserved) id the event applies to.
    pub tuple: u64,
    /// Attribute name (or stringified id for out-of-schema ids).
    pub attr: String,
    /// Interaction round.
    pub round: u64,
    /// `user_validated`, `rule_fixed` or `rule_confirmed`.
    pub kind: String,
    /// Rule responsible, when known.
    pub rule: Option<u64>,
    /// Master row the fix came from (`rule_fixed` only).
    pub master_row: Option<u64>,
    /// Cell value before the event (absent for `rule_confirmed`).
    pub old: Option<Value>,
    /// Cell value after the event (absent for `rule_confirmed`).
    pub new: Option<Value>,
}

impl AuditRecordView {
    fn from_json(json: &Json) -> Option<AuditRecordView> {
        Some(AuditRecordView {
            index: json.get("index")?.as_u64()?,
            tuple: json.get("tuple")?.as_u64()?,
            attr: match json.get("attr")? {
                Json::Str(s) => s.clone(),
                other => other.as_f64().map(|n| n.to_string())?,
            },
            round: json.get("round")?.as_u64()?,
            kind: json.get("kind")?.as_str()?.to_string(),
            rule: json.get("rule").and_then(Json::as_u64),
            master_row: json.get("master_row").and_then(Json::as_u64),
            old: json.get("old").and_then(|v| v.to_value().ok()),
            new: json.get("new").and_then(|v| v.to_value().ok()),
        })
    }
}

/// One outcome from a batch `clean`.
#[derive(Debug, Clone)]
pub struct CleanOutcomeView {
    /// Position in the request batch.
    pub index: u64,
    /// True iff the tuple reached a certain fix.
    pub complete: bool,
    /// Cells changed by rules.
    pub cells_fixed: u64,
    /// The cleaned tuple.
    pub tuple: Vec<Value>,
}

impl<T: Transport> Client<T> {
    /// Send a typed request, returning the raw (ok) response object
    /// (see [`request_line`](Self::request_line)).
    pub fn request(&mut self, request: &Request) -> Result<Json, ClientError> {
        let mut response = String::new();
        self.request_line(&request.to_json().render(), &mut response)?;
        Ok(Json::parse(response.trim())?)
    }

    /// Send an already rendered request line and leave the `ok` response
    /// line in `response` — the one request loop: [`request`](Self::request)
    /// parses what it leaves, the replication tail scans it in place.
    ///
    /// Self-healing: a refusal that carries a `redirect` (a follower's
    /// `not_primary`) re-points the transport at that address and
    /// re-sends; one whose code is [retryable](ErrorCode::retryable)
    /// (`overloaded`, `draining`) backs off and re-sends. Both paths
    /// spend the transport's [`RetryBudget`] first, so a fleet of
    /// clients facing a persistent overload self-limits instead of
    /// amplifying it. Transports without a budget (the in-process one)
    /// surface the errors unchanged, and so does a reply without a
    /// `code`.
    pub fn request_line(&mut self, line: &str, response: &mut String) -> Result<(), ClientError> {
        let mut attempt = 0u32;
        loop {
            self.transport.round_trip(line, response)?;
            let (code, message, redirect) = match check_ok(response) {
                Err(ClientError::Server {
                    code,
                    message,
                    redirect,
                }) if attempt < MAX_REDIRECTS => (code, message, redirect),
                other => return other,
            };
            let again = match &redirect {
                Some(addr) => self.transport.spend_retry() && self.transport.repoint(addr),
                None => code.is_some_and(ErrorCode::retryable) && self.transport.spend_retry(),
            };
            if !again {
                return Err(ClientError::Server {
                    code,
                    message,
                    redirect,
                });
            }
            if redirect.is_none() {
                // Linear backoff is enough here: the budget, not the
                // delay curve, is what bounds total retry pressure.
                std::thread::sleep(Duration::from_millis(20 * (attempt as u64 + 1)));
            }
            attempt += 1;
        }
    }

    /// Pipeline a batch: write every request before reading any
    /// response. Responses come back in request order (the server's
    /// per-connection ordering guarantee); each is checked for `ok` like
    /// [`request`](Self::request).
    ///
    /// Every response is read off the transport before any error is
    /// returned — a failing request mid-batch must not leave later
    /// responses buffered (they would desynchronize the next call).
    pub fn pipeline(&mut self, requests: &[Request]) -> Result<Vec<Json>, ClientError> {
        let mut first_error = None;
        let mut sent = 0usize;
        for request in requests {
            let line = request.to_json().render();
            if let Err(e) = self.transport.send(&line) {
                // Responses to already-sent requests still get drained
                // below — leaving them buffered would pair them with
                // the wrong future requests.
                first_error = Some(e);
                break;
            }
            sent += 1;
        }
        let mut responses = Vec::with_capacity(sent);
        for _ in 0..sent {
            let received = self.transport.recv().and_then(|line| {
                check_ok(&line)?;
                Ok(Json::parse(line.trim())?)
            });
            match received {
                Ok(response) => responses.push(response),
                Err(e) if first_error.is_none() => first_error = Some(e),
                Err(_) => {}
            }
        }
        match first_error {
            None => Ok(responses),
            Some(e) => Err(e),
        }
    }

    /// `hello` — service identification (raw JSON).
    pub fn hello(&mut self) -> Result<Json, ClientError> {
        self.request(&Request::Hello)
    }

    /// Open a session for `tuple`.
    pub fn create_session(&mut self, tuple: Vec<Value>) -> Result<SessionView, ClientError> {
        let response = self.request(&Request::SessionCreate { tuple })?;
        SessionView::from_json(&response)
    }

    /// Re-read (attach to) an existing session.
    pub fn get_session(&mut self, session: u64) -> Result<SessionView, ClientError> {
        let response = self.request(&Request::SessionGet { session })?;
        SessionView::from_json(&response)
    }

    /// Validate `(attribute, value)` pairs and run the correcting
    /// process.
    pub fn validate(
        &mut self,
        session: u64,
        validations: Vec<(String, Value)>,
    ) -> Result<SessionView, ClientError> {
        let response = self.request(&Request::SessionValidate {
            session,
            validations,
        })?;
        SessionView::from_json(&response)
    }

    /// Run the correcting process without new assertions.
    pub fn fix(&mut self, session: u64) -> Result<SessionView, ClientError> {
        let response = self.request(&Request::SessionFix { session })?;
        SessionView::from_json(&response)
    }

    /// Close the session, returning its final state.
    pub fn commit(&mut self, session: u64) -> Result<CommitView, ClientError> {
        let response = self.request(&Request::SessionCommit { session })?;
        Ok(CommitView {
            complete: response
                .get("complete")
                .and_then(Json::as_bool)
                .unwrap_or(false),
            tuple: get_tuple(&response, "tuple")?,
            rounds: get_u64(&response, "rounds")?,
            user_validated: get_u64(&response, "user_validated")?,
            auto_validated: get_u64(&response, "auto_validated")?,
        })
    }

    /// Discard a session.
    pub fn abort(&mut self, session: u64) -> Result<(), ClientError> {
        self.request(&Request::SessionAbort { session }).map(|_| ())
    }

    /// Batch-clean `tuples`, trusting the named columns.
    pub fn clean(
        &mut self,
        tuples: Vec<Vec<Value>>,
        trust: Vec<String>,
    ) -> Result<Vec<CleanOutcomeView>, ClientError> {
        let response = self.request(&Request::Clean { tuples, trust })?;
        response
            .get("outcomes")
            .and_then(Json::as_arr)
            .ok_or_else(|| ClientError::Wire(WireError("response missing `outcomes`".into())))?
            .iter()
            .map(|outcome| {
                Ok(CleanOutcomeView {
                    index: get_u64(outcome, "index")?,
                    complete: outcome
                        .get("complete")
                        .and_then(Json::as_bool)
                        .unwrap_or(false),
                    cells_fixed: get_u64(outcome, "cells_fixed")?,
                    tuple: get_tuple(outcome, "tuple")?,
                })
            })
            .collect()
    }

    /// Top-k certain regions; `(cached, attribute-name lists)`.
    pub fn regions(
        &mut self,
        top_k: Option<usize>,
    ) -> Result<(bool, Vec<Vec<String>>), ClientError> {
        let response = self.request(&Request::Regions { top_k })?;
        let cached = response
            .get("cached")
            .and_then(Json::as_bool)
            .unwrap_or(false);
        let regions = response
            .get("regions")
            .and_then(Json::as_arr)
            .map(|items| items.iter().map(|r| get_strings(r, "attrs")).collect())
            .unwrap_or_default();
        Ok((cached, regions))
    }

    /// Consistency verdict; `(cached, consistent)`.
    pub fn check(&mut self, mode: Option<&str>) -> Result<(bool, bool), ClientError> {
        let response = self.request(&Request::Check {
            mode: mode.map(str::to_string),
        })?;
        Ok((
            response
                .get("cached")
                .and_then(Json::as_bool)
                .unwrap_or(false),
            response
                .get("consistent")
                .and_then(Json::as_bool)
                .unwrap_or(false),
        ))
    }

    /// Ranged read of audit provenance records. Returns the typed page;
    /// advance `start` to the page's `next` to stream the full history.
    pub fn audit_read(&mut self, start: u64, count: Option<u64>) -> Result<AuditPage, ClientError> {
        let response = self.request(&Request::AuditRead { start, count })?;
        Ok(AuditPage {
            start: get_u64(&response, "start")?,
            next: get_u64(&response, "next")?,
            total: get_u64(&response, "total")?,
            spilled: get_u64(&response, "spilled")?,
            records: response
                .get("records")
                .and_then(Json::as_arr)
                .map(|records| {
                    records
                        .iter()
                        .filter_map(AuditRecordView::from_json)
                        .collect()
                })
                .unwrap_or_default(),
        })
    }

    /// Stream the *entire* audit history (pages of `page_size`).
    pub fn audit_read_all(&mut self, page_size: u64) -> Result<Vec<AuditRecordView>, ClientError> {
        let mut out = Vec::new();
        let mut start = 0;
        loop {
            let page = self.audit_read(start, Some(page_size))?;
            let done = page.next >= page.total || page.records.is_empty();
            start = page.next;
            out.extend(page.records);
            if done {
                return Ok(out);
            }
        }
    }

    /// Hot-swap the server's rule set from DSL text; returns the new
    /// rule count and fingerprint.
    pub fn reload_rules(&mut self, dsl: &str) -> Result<(u64, String), ClientError> {
        let response = self.request(&Request::RulesReload {
            rules: dsl.to_string(),
        })?;
        Ok((
            get_u64(&response, "rules")?,
            response
                .get("ruleset")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
        ))
    }

    /// Append rows to the master repository; `(appended, master_rows)`.
    /// The server searches pre-computed regions again over the grown
    /// master.
    pub fn master_append(&mut self, tuples: Vec<Vec<Value>>) -> Result<(u64, u64), ClientError> {
        let response = self.request(&Request::MasterAppend { tuples })?;
        Ok((
            get_u64(&response, "appended")?,
            get_u64(&response, "master_rows")?,
        ))
    }

    /// Service counters (raw JSON).
    pub fn metrics(&mut self) -> Result<Json, ClientError> {
        self.request(&Request::Metrics)
    }

    /// Ask the server to stop.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.request(&Request::Shutdown).map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_exponential_capped_and_jittered() {
        let policy = RetryPolicy {
            retries: 8,
            base_delay: Duration::from_millis(20),
            max_delay: Duration::from_millis(500),
            request_timeout: None,
        };
        let mut seed = jitter_seed();
        for attempt in 1..=10u32 {
            let nominal = Duration::from_millis(20)
                .saturating_mul(1 << (attempt - 1).min(16))
                .min(Duration::from_millis(500));
            let delay = policy.backoff(attempt, &mut seed);
            // ±25% jitter around the capped exponential.
            assert!(delay >= nominal.mul_f64(0.74), "{attempt}: {delay:?}");
            assert!(delay <= nominal.mul_f64(1.26), "{attempt}: {delay:?}");
        }
    }

    #[test]
    fn retry_budget_spends_and_refills() {
        // No refill: exactly `capacity` spends succeed.
        let mut dry = RetryBudget::new(3, 0.0);
        assert!(dry.try_spend());
        assert!(dry.try_spend());
        assert!(dry.try_spend());
        assert!(!dry.try_spend(), "capacity exhausted");
        assert!(!dry.try_spend(), "stays exhausted without refill");
        // Zero capacity never authorizes a retry.
        assert!(!RetryBudget::new(0, 1000.0).try_spend());
        // Refill restores tokens over time, capped at capacity.
        let mut refilling = RetryBudget::new(1, 200.0);
        assert!(refilling.try_spend());
        assert!(!refilling.try_spend());
        std::thread::sleep(Duration::from_millis(30));
        assert!(refilling.try_spend(), "refilled after ~6 token-periods");
    }

    #[test]
    fn jitter_varies_and_seed_is_odd() {
        assert_eq!(jitter_seed() & 1, 1);
        let mut seed = 42u64;
        let a = next_rand(&mut seed);
        let b = next_rand(&mut seed);
        assert_ne!(a, b);
        let base = Duration::from_millis(100);
        let samples: Vec<Duration> = (0..16).map(|_| jittered(base, &mut seed)).collect();
        assert!(samples.iter().any(|s| *s != base));
        assert!(samples
            .iter()
            .all(|s| *s >= base.mul_f64(0.74) && *s <= base.mul_f64(1.26)));
    }
}
