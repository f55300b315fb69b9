//! Just enough HTTP/1.1 for the query server: bounded head parsing with
//! deadline-aware transient retries, `Connection: close` responses, and
//! a tiny client (used by the tests and the ledger).
//!
//! Every read and write goes through [`with_retry`], which reuses the
//! workspace-wide transient-vs-permanent classification from
//! [`blazr_util::retry::RetryPolicy`] — EINTR-style faults are absorbed
//! up to the attempt budget (never past the request deadline), and the
//! retries are counted under `serve.io.*`, symmetric with the store's
//! `store.io.*`.

use crate::transport::Conn;
use blazr_telemetry as tel;
pub use blazr_telemetry::{escape_json, json_f64};
use blazr_util::retry::RetryPolicy;
use std::io;
use std::time::{Duration, Instant};

/// Upper bound on a request head (request line + headers). Anything
/// longer is rejected with `431`.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;

/// A request deadline: one instant every stage of handling (head read,
/// query scan, response write) measures itself against.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    end: Instant,
}

impl Deadline {
    /// A deadline `d` from now.
    pub fn after(d: Duration) -> Self {
        Self {
            end: Instant::now() + d,
        }
    }

    /// Time left, or `None` once expired.
    pub fn remaining(&self) -> Option<Duration> {
        self.end
            .checked_duration_since(Instant::now())
            .filter(|d| !d.is_zero())
    }

    /// True once the deadline has passed.
    pub fn expired(&self) -> bool {
        self.remaining().is_none()
    }
}

/// Runs `op` under the shared retry policy, but never sleeps past the
/// deadline: an expired deadline turns the next transient failure into
/// a give-up. Counts `serve.io.retries` / `serve.io.giveups`.
pub fn with_retry<T>(
    retry: &RetryPolicy,
    deadline: &Deadline,
    mut op: impl FnMut() -> io::Result<T>,
) -> io::Result<T> {
    let mut retries: u32 = 0;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if RetryPolicy::is_transient(e.kind()) => {
                let budget = retry.attempts.max(1);
                if retries + 1 >= budget || deadline.expired() {
                    tel::count!("serve.io.giveups", 1);
                    return Err(e);
                }
                let backoff = retry.backoff(retries);
                let capped = match deadline.remaining() {
                    Some(left) => backoff.min(left),
                    None => Duration::ZERO,
                };
                std::thread::sleep(capped);
                retries += 1;
                tel::count!("serve.io.retries", 1);
            }
            Err(e) => return Err(e),
        }
    }
}

/// A parsed request: method, path, and decoded query parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The request method (`GET`, …).
    pub method: String,
    /// The path component of the target (before `?`).
    pub path: String,
    /// Decoded `key=value` query parameters, in order.
    pub params: Vec<(String, String)>,
}

impl Request {
    /// The first value of parameter `key`, if present.
    pub fn param(&self, key: &str) -> Option<&str> {
        self.params
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Reads a request head (through the final `\r\n\r\n`).
///
/// `Ok(None)` means the peer closed before sending anything — a clean
/// close the server owes no response for. Errors map to status codes:
/// `TimedOut` → 408, `InvalidData` (oversized) → 431, anything else
/// (torn head, reset) → 400, all best-effort.
pub fn read_head(
    conn: &mut dyn Conn,
    deadline: &Deadline,
    retry: &RetryPolicy,
) -> io::Result<Option<Vec<u8>>> {
    let mut head: Vec<u8> = Vec::with_capacity(256);
    let mut buf = [0u8; 1024];
    loop {
        let left = match deadline.remaining() {
            Some(left) => left,
            None => {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "deadline expired reading request head",
                ))
            }
        };
        conn.set_read_timeout(Some(left))?;
        let n = with_retry(retry, deadline, || conn.read(&mut buf))?;
        if n == 0 {
            if head.is_empty() {
                return Ok(None);
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "peer closed mid-request",
            ));
        }
        head.extend_from_slice(&buf[..n]);
        if head.len() > MAX_HEAD_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "request head exceeds limit",
            ));
        }
        if find_head_end(&head).is_some() {
            return Ok(Some(head));
        }
    }
}

/// Byte offset just past the `\r\n\r\n` terminator, if present.
fn find_head_end(head: &[u8]) -> Option<usize> {
    head.windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|i| i + 4)
}

/// Parses a request head into a [`Request`]. `Err` is the status code
/// to answer with (`400` malformed, `405` non-GET, `505` wrong major
/// version).
pub fn parse_request(head: &[u8]) -> Result<Request, u16> {
    let text = std::str::from_utf8(head).map_err(|_| 400u16)?;
    let line = text.lines().next().ok_or(400u16)?;
    let mut parts = line.split(' ').filter(|s| !s.is_empty());
    let method = parts.next().ok_or(400u16)?;
    let target = parts.next().ok_or(400u16)?;
    let version = parts.next().ok_or(400u16)?;
    if parts.next().is_some() {
        return Err(400);
    }
    if !version.starts_with("HTTP/1.") {
        return Err(505);
    }
    if method != "GET" {
        return Err(405);
    }
    if !target.starts_with('/') {
        return Err(400);
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let mut params = Vec::new();
    for pair in query.split('&').filter(|s| !s.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        params.push((percent_decode(k)?, percent_decode(v)?));
    }
    Ok(Request {
        method: method.to_string(),
        path: percent_decode(path)?,
        params,
    })
}

/// Minimal percent-decoding (`%XX` and `+` → space). `Err(400)` on a
/// malformed escape.
fn percent_decode(s: &str) -> Result<String, u16> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                // Both bytes must be hex digits: `from_str_radix` alone
                // would accept a sign, decoding `%+5` as 0x05.
                let hex = bytes.get(i + 1..i + 3).ok_or(400u16)?;
                if !hex.iter().all(u8::is_ascii_hexdigit) {
                    return Err(400);
                }
                let hex = std::str::from_utf8(hex).map_err(|_| 400u16)?;
                out.push(u8::from_str_radix(hex, 16).map_err(|_| 400u16)?);
                i += 3;
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).map_err(|_| 400)
}

/// A response the server is about to serialize. Always
/// `Connection: close` — one request per connection keeps worker
/// lifecycle and chaos accounting simple.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Seconds for a `Retry-After` header (load shedding / draining).
    pub retry_after: Option<u64>,
    /// The body.
    pub body: String,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Self {
        Self {
            status,
            content_type: "application/json",
            retry_after: None,
            body,
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: &str) -> Self {
        Self {
            status,
            content_type: "text/plain; charset=utf-8",
            retry_after: None,
            body: body.to_string(),
        }
    }

    /// A JSON error body `{"error": msg}` with the given status.
    pub fn error(status: u16, msg: &str) -> Self {
        Self::json(status, format!("{{\"error\":\"{}\"}}\n", escape_json(msg)))
    }

    /// The serialized response (head + body).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len(),
        );
        if let Some(secs) = self.retry_after {
            out.push_str(&format!("Retry-After: {secs}\r\n"));
        }
        out.push_str("\r\n");
        let mut bytes = out.into_bytes();
        bytes.extend_from_slice(self.body.as_bytes());
        bytes
    }
}

/// Reason phrase for the status codes the server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        206 => "Partial Content",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// Writes a whole response, honoring the deadline and retrying
/// transients. Fails (rather than blocks) on a stalled or reset peer.
pub fn write_response(
    conn: &mut dyn Conn,
    resp: &Response,
    deadline: &Deadline,
    retry: &RetryPolicy,
) -> io::Result<()> {
    let bytes = resp.to_bytes();
    let mut sent = 0;
    while sent < bytes.len() {
        let left = match deadline.remaining() {
            Some(left) => left,
            None => {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "deadline expired writing response",
                ))
            }
        };
        conn.set_write_timeout(Some(left))?;
        let n = with_retry(retry, deadline, || conn.write(&bytes[sent..]))?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::WriteZero,
                "peer stopped accepting response bytes",
            ));
        }
        sent += n;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Client side (tests, the ledger).

/// A response as the tiny client sees it.
#[derive(Debug)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Header lines as `(name, value)` pairs (names lowercased).
    pub headers: Vec<(String, String)>,
    /// The body bytes, verified against `Content-Length`.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// The first header named `name` (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 (lossy).
    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Performs one `GET` over `conn` and reads the full response. Any
/// parse failure or a body shorter than `Content-Length` is an error —
/// the chaos suite's definition of "not a well-formed response".
pub fn http_get(
    conn: &mut dyn Conn,
    target: &str,
    timeout: Duration,
) -> io::Result<ClientResponse> {
    conn.set_read_timeout(Some(timeout))?;
    conn.set_write_timeout(Some(timeout))?;
    let req = format!("GET {target} HTTP/1.1\r\nHost: blazr\r\nConnection: close\r\n\r\n");
    let bytes = req.as_bytes();
    let mut sent = 0;
    while sent < bytes.len() {
        let n = conn.write(&bytes[sent..])?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::WriteZero,
                "server stopped accepting request bytes",
            ));
        }
        sent += n;
    }
    read_response(conn, timeout)
}

/// Reads and validates one full `Connection: close` response.
pub fn read_response(conn: &mut dyn Conn, timeout: Duration) -> io::Result<ClientResponse> {
    conn.set_read_timeout(Some(timeout))?;
    let deadline = Deadline::after(timeout);
    let mut raw: Vec<u8> = Vec::with_capacity(512);
    let mut buf = [0u8; 2048];
    loop {
        match conn.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => raw.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
        if deadline.expired() {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "response read deadline expired",
            ));
        }
        // Stop early once the declared body is complete (the server may
        // keep the connection open a moment before closing).
        if let Some(end) = find_head_end(&raw) {
            if let Some(len) = content_length(&raw[..end]) {
                if raw.len() >= end + len {
                    break;
                }
            }
        }
    }
    parse_response(&raw)
}

fn content_length(head: &[u8]) -> Option<usize> {
    let text = std::str::from_utf8(head).ok()?;
    for line in text.lines().skip(1) {
        let (k, v) = line.split_once(':')?;
        if k.eq_ignore_ascii_case("content-length") {
            return v.trim().parse().ok();
        }
    }
    None
}

/// Parses a raw response, enforcing that the body matches
/// `Content-Length` exactly.
pub fn parse_response(raw: &[u8]) -> io::Result<ClientResponse> {
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    let end = find_head_end(raw).ok_or_else(|| bad("no header terminator"))?;
    let head = std::str::from_utf8(&raw[..end]).map_err(|_| bad("non-UTF-8 head"))?;
    let mut lines = head.lines();
    let status_line = lines.next().ok_or_else(|| bad("empty response"))?;
    let mut parts = status_line.splitn(3, ' ');
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(bad("bad HTTP version in status line"));
    }
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("unparseable status code"))?;
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            break;
        }
        let (k, v) = line
            .split_once(':')
            .ok_or_else(|| bad("malformed header"))?;
        headers.push((k.trim().to_ascii_lowercase(), v.trim().to_string()));
    }
    let body = raw[end..].to_vec();
    let declared = content_length(&raw[..end]).ok_or_else(|| bad("missing Content-Length"))?;
    if body.len() < declared {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("truncated body: {} of {declared} bytes", body.len()),
        ));
    }
    let body = body[..declared].to_vec();
    Ok(ClientResponse {
        status,
        headers,
        body,
    })
}

// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_get_with_params() {
        let head = b"GET /query?agg=sum&from=3&lo=-1.5 HTTP/1.1\r\nHost: x\r\n\r\n";
        let req = parse_request(head).unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/query");
        assert_eq!(req.param("agg"), Some("sum"));
        assert_eq!(req.param("from"), Some("3"));
        assert_eq!(req.param("lo"), Some("-1.5"));
        assert_eq!(req.param("missing"), None);
    }

    #[test]
    fn rejects_bad_requests_with_the_right_status() {
        assert_eq!(parse_request(b"POST /q HTTP/1.1\r\n\r\n"), Err(405));
        assert_eq!(parse_request(b"GET /q HTTP/2\r\n\r\n"), Err(505));
        assert_eq!(parse_request(b"garbage\r\n\r\n"), Err(400));
        assert_eq!(parse_request(b"GET q HTTP/1.1\r\n\r\n"), Err(400));
        assert_eq!(parse_request(b"GET /q?x=%zz HTTP/1.1\r\n\r\n"), Err(400));
        assert_eq!(parse_request(b"GET /q?x=%+5 HTTP/1.1\r\n\r\n"), Err(400));
    }

    #[test]
    fn percent_decoding_handles_escapes() {
        let req = parse_request(b"GET /q?name=a%20b+c&v=1%2B2 HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.param("name"), Some("a b c"));
        assert_eq!(req.param("v"), Some("1+2"));
    }

    #[test]
    fn response_roundtrips_through_the_client_parser() {
        let mut resp = Response::json(206, "{\"x\":1}\n".into());
        resp.retry_after = Some(2);
        let parsed = parse_response(&resp.to_bytes()).unwrap();
        assert_eq!(parsed.status, 206);
        assert_eq!(parsed.header("retry-after"), Some("2"));
        assert_eq!(parsed.header("connection"), Some("close"));
        assert_eq!(parsed.body_text(), "{\"x\":1}\n");
    }

    #[test]
    fn truncated_bodies_are_rejected() {
        let resp = Response::text(200, "hello world");
        let bytes = resp.to_bytes();
        let cut = &bytes[..bytes.len() - 3];
        let err = parse_response(cut).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn json_f64_round_trips_and_nulls_nonfinite() {
        assert_eq!(json_f64(1.5), "1.5");
        let x = 0.1 + 0.2;
        assert_eq!(json_f64(x).parse::<f64>().unwrap().to_bits(), x.to_bits());
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
    }

    #[test]
    fn deadline_expires() {
        let d = Deadline::after(Duration::ZERO);
        assert!(d.expired());
        assert!(d.remaining().is_none());
        let d = Deadline::after(Duration::from_secs(60));
        assert!(!d.expired());
        assert!(d.remaining().unwrap() > Duration::from_secs(59));
    }
}
