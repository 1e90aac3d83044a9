//! Hand-rolled HTTP/1.1 over `std::net` — incremental request parsing
//! and response rendering, nothing more.
//!
//! The workspace has no registry access, so there is no hyper/axum to
//! lean on; the service speaks exactly the subset of HTTP/1.1 its
//! endpoints need: `Content-Length`-delimited bodies, keep-alive and
//! pipelining (epoll reactor) or one request per connection (legacy
//! thread path), no chunked transfer, no TLS.
//!
//! The core is [`RequestParser`]: a push parser that accepts arbitrary
//! byte chunks ([`RequestParser::feed`]) and yields complete requests
//! ([`RequestParser::next_request`]) without ever blocking — the epoll
//! reactor feeds it whatever a readiness event delivered, including
//! requests torn at any byte boundary and several pipelined requests in
//! one segment. The legacy blocking [`read_request`] is a thin loop over
//! the same parser, so both network paths share one grammar.
//!
//! Limits are enforced while bytes accumulate so a malicious or broken
//! client can never balloon memory: header blocks are capped at 16 KiB
//! (oversize → [`HttpError::HeadersTooLarge`] → 431) and bodies at 8 MiB
//! (oversize → [`HttpError::TooLarge`] → 413).

use std::io::{BufRead, BufReader, Read, Write};

/// Maximum accepted header block (request line + headers), bytes.
pub const MAX_HEADER_BYTES: usize = 16 << 10;

/// Maximum accepted request body, bytes.
pub const MAX_BODY_BYTES: usize = 8 << 20;

/// A parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Method verb, uppercased by the client (`GET`, `POST`, ...).
    pub method: String,
    /// Request target (path + optional query), e.g. `/v1/embed`.
    pub path: String,
    /// HTTP minor version: 0 for `HTTP/1.0` (default-close), 1 for
    /// `HTTP/1.1` and any other `HTTP/1.x` (default keep-alive).
    pub minor: u8,
    /// Headers in arrival order; names lowercased.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First header with the given (lowercase) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// Whether the `Connection` header names `token` (comma-separated
    /// list, case-insensitive).
    fn connection_has(&self, token: &str) -> bool {
        self.header("connection")
            .is_some_and(|v| v.split(',').any(|t| t.trim().eq_ignore_ascii_case(token)))
    }

    /// Connection persistence per RFC 9112 §9.3: HTTP/1.1 defaults to
    /// keep-alive unless the client sent `Connection: close`; HTTP/1.0
    /// defaults to close unless it sent `Connection: keep-alive`.
    pub fn wants_keep_alive(&self) -> bool {
        if self.minor == 0 {
            self.connection_has("keep-alive")
        } else {
            !self.connection_has("close")
        }
    }

    /// The server's persistence *policy*: keep the connection only when
    /// the client explicitly asked (`Connection: keep-alive`) and did
    /// not simultaneously ask to close. A server is always allowed to
    /// close (RFC 9112 §9.6) provided the response says so — and ours
    /// does, via [`render_response`]'s `Connection` echo — so the
    /// opt-in policy stays conformant while EOF-delimited clients (curl
    /// scripts, the soak tests) keep working without per-request
    /// timeouts. `Connection: close` on HTTP/1.1 and the HTTP/1.0
    /// default-close are honored by construction.
    pub fn persist_connection(&self) -> bool {
        self.connection_has("keep-alive") && !self.connection_has("close")
    }
}

/// Why a request could not be read.
#[derive(Debug, PartialEq, Eq)]
pub enum HttpError {
    /// The peer closed the connection before a full request arrived.
    Closed,
    /// Malformed request line / headers / framing.
    Malformed(String),
    /// Declared body exceeds the hard limit (→ 413).
    TooLarge,
    /// Header block exceeds the hard limit (→ 431).
    HeadersTooLarge,
    /// Socket error (including read timeout).
    Io(String),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Closed => write!(f, "connection closed"),
            HttpError::Malformed(m) => write!(f, "malformed request: {m}"),
            HttpError::TooLarge => write!(f, "request too large"),
            HttpError::HeadersTooLarge => write!(f, "request header block too large"),
            HttpError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

/// Incremental push parser for a stream of pipelined HTTP/1.x requests.
///
/// Feed it bytes as they arrive; pull complete requests out. A parse
/// error is fatal for the stream (framing is lost), so after the first
/// `Err` the parser refuses further work.
///
/// Consumed requests only advance an offset; the buffer is compacted
/// once per [`RequestParser::feed`], so draining a pipelined burst of
/// `n` requests costs O(bytes), not one memmove of the rest per request.
#[derive(Default)]
pub struct RequestParser {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed as complete requests.
    pos: usize,
    /// Set once a fatal error was surfaced; the connection must close.
    dead: bool,
}

impl RequestParser {
    /// A fresh parser with empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append newly received bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        if !self.dead {
            self.buf.drain(..self.pos);
            self.pos = 0;
            self.buf.extend_from_slice(bytes);
        }
    }

    /// The buffered bytes not yet consumed as a complete request.
    fn rest(&self) -> &[u8] {
        &self.buf[self.pos..]
    }

    /// Bytes buffered but not yet consumed as a complete request.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether a partial request sits in the buffer (drives the
    /// slow-header / slow-body timeout).
    pub fn has_partial(&self) -> bool {
        self.buffered() > 0
    }

    /// Whether the buffered partial request has a complete header block
    /// and is waiting on body bytes (EOF here is an I/O error, not a
    /// clean close).
    pub fn mid_body(&self) -> bool {
        find_terminator(self.rest()).is_some()
    }

    /// Try to extract the next complete request. `Ok(None)` means "need
    /// more bytes"; errors are fatal for the stream.
    pub fn next_request(&mut self) -> Result<Option<Request>, HttpError> {
        if self.dead {
            return Ok(None);
        }
        // Tolerate stray CRLFs between pipelined requests (RFC 9112 §2.2).
        self.pos += self.rest().iter().take_while(|&&b| b == b'\r' || b == b'\n').count();
        let buf = &self.buf[self.pos..];
        let Some(head_end) = find_terminator(buf) else {
            if buf.len() > MAX_HEADER_BYTES {
                self.dead = true;
                return Err(HttpError::HeadersTooLarge);
            }
            return Ok(None);
        };
        if head_end > MAX_HEADER_BYTES {
            self.dead = true;
            return Err(HttpError::HeadersTooLarge);
        }
        let head = match std::str::from_utf8(&buf[..head_end]) {
            Ok(s) => s,
            Err(_) => {
                self.dead = true;
                return Err(HttpError::Malformed("header block is not UTF-8".to_string()));
            }
        };
        // Lines end in CRLF only: a bare CR or LF (or a NUL) left inside a
        // line is a break a lenient peer would see and this parser would
        // not (RFC 9112 §2.2, RFC 9110 §5.5).
        if head.split("\r\n").any(|l| l.contains(['\r', '\n', '\0'])) {
            self.dead = true;
            return Err(HttpError::Malformed("bare CR, LF or NUL in header block".to_string()));
        }
        let mut lines = head.split("\r\n");
        let request_line = lines.next().unwrap_or("");
        let mut parts = request_line.split_whitespace();
        let method = parts.next().unwrap_or("").to_string();
        let path = parts.next().unwrap_or("").to_string();
        let version = parts.next().unwrap_or("");
        if method.is_empty() || path.is_empty() || !version.starts_with("HTTP/1.") {
            self.dead = true;
            return Err(HttpError::Malformed(format!("bad request line '{request_line}'")));
        }
        let minor = if version == "HTTP/1.0" { 0 } else { 1 };
        let mut headers = Vec::new();
        for line in lines {
            // A field name is a token: whitespace before the colon, or a
            // line opening with whitespace (obs-fold), is rejected rather
            // than trimmed (RFC 9112 §5.1–5.2), since a proxy that reads
            // the name differently would frame the stream differently.
            let Some((name, value)) = line
                .split_once(':')
                .filter(|(n, _)| !n.contains(|c: char| c.is_ascii_whitespace()))
            else {
                self.dead = true;
                return Err(HttpError::Malformed(format!("bad header '{line}'")));
            };
            headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
        }
        // Bodies are Content-Length-delimited only. A Transfer-Encoding
        // body (chunked or otherwise) would be misread as zero-length
        // and its bytes reparsed as the next pipelined request — a
        // framing desync and a request-smuggling vector — so any such
        // request fails the stream and the connection closes.
        if headers.iter().any(|(k, _)| k == "transfer-encoding") {
            self.dead = true;
            return Err(HttpError::Malformed(
                "transfer-encoding is not supported; use content-length".to_string(),
            ));
        }
        // Exactly one `Content-Length` of `1*DIGIT` (RFC 9112 §6.3): a
        // second one, or a sign that `usize::from_str` would accept, is
        // a framing disagreement waiting to happen, so the stream dies.
        let mut lengths = headers.iter().filter(|(k, _)| k == "content-length").map(|(_, v)| v);
        let content_length = match (lengths.next(), lengths.next()) {
            (None, _) => Ok(0),
            (Some(_), Some(_)) => Err("repeated content-length".to_string()),
            (Some(v), None) => v
                .parse::<usize>()
                .ok()
                .filter(|_| v.bytes().all(|b| b.is_ascii_digit()))
                .ok_or_else(|| format!("bad content-length '{v}'")),
        };
        let content_length = match content_length {
            Ok(n) => n,
            Err(m) => {
                self.dead = true;
                return Err(HttpError::Malformed(m));
            }
        };
        if content_length > MAX_BODY_BYTES {
            self.dead = true;
            return Err(HttpError::TooLarge);
        }
        let total = head_end + 4 + content_length;
        if buf.len() < total {
            return Ok(None);
        }
        let body = buf[head_end + 4..total].to_vec();
        self.pos += total;
        Ok(Some(Request { method, path, minor, headers, body }))
    }
}

/// Offset of the `\r\n\r\n` header terminator, if present.
fn find_terminator(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Read one HTTP/1.x request from `reader`, blocking until it is
/// complete (the legacy thread-per-connection path).
pub fn read_request<R: Read>(reader: &mut BufReader<R>) -> Result<Request, HttpError> {
    let mut parser = RequestParser::new();
    loop {
        if let Some(req) = parser.next_request()? {
            return Ok(req);
        }
        let chunk = reader.fill_buf().map_err(|e| HttpError::Io(e.to_string()))?;
        if chunk.is_empty() {
            // EOF mid-body is a framing violation; EOF before or between
            // requests is a clean close.
            return Err(if parser.mid_body() {
                HttpError::Io("unexpected eof while reading body".to_string())
            } else {
                HttpError::Closed
            });
        }
        let n = chunk.len();
        parser.feed(chunk);
        reader.consume(n);
    }
}

/// Reason phrase for the status codes the service emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        411 => "Length Required",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Render a complete response frame (status line, headers, body) into
/// `out`. The `Connection` header reflects `keep_alive`, which the
/// caller decides from the request's [`Request::wants_keep_alive`] and
/// the connection's own state (draining servers always close).
pub fn render_response(
    out: &mut Vec<u8>,
    status: u16,
    content_type: &str,
    extra: &[(&str, String)],
    body: &[u8],
    keep_alive: bool,
) {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        reason(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (k, v) in extra {
        head.push_str(k);
        head.push_str(": ");
        head.push_str(v);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    out.extend_from_slice(head.as_bytes());
    out.extend_from_slice(body);
}

/// Write a complete `Connection: close` response and flush (the legacy
/// thread path serves one request per connection).
///
/// The head and body are coalesced into one buffer and written with a
/// single `write_all`: writing them separately puts the body in a
/// second TCP segment that Nagle holds back until the first is ACKed,
/// and with the peer's delayed ACK that stalls every response ~40 ms.
pub fn write_response<W: Write>(
    stream: &mut W,
    status: u16,
    content_type: &str,
    extra: &[(&str, String)],
    body: &[u8],
) -> std::io::Result<()> {
    let mut frame = Vec::with_capacity(256 + body.len());
    render_response(&mut frame, status, content_type, extra, body, false);
    stream.write_all(&frame)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn parse(raw: &str) -> Result<Request, HttpError> {
        read_request(&mut BufReader::new(raw.as_bytes()))
    }

    #[test]
    fn parses_get() {
        let r = parse("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/healthz");
        assert_eq!(r.minor, 1);
        assert_eq!(r.header("host"), Some("x"));
        assert!(r.body.is_empty());
    }

    #[test]
    fn parses_post_with_body() {
        let r = parse("POST /v1/embed HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello").unwrap();
        assert_eq!(r.method, "POST");
        assert_eq!(r.body, b"hello");
    }

    #[test]
    fn header_names_are_case_insensitive() {
        let r = parse("POST /x HTTP/1.1\r\nCONTENT-LENGTH: 2\r\n\r\nok").unwrap();
        assert_eq!(r.body, b"ok");
    }

    #[test]
    fn empty_stream_is_closed() {
        assert_eq!(parse("").unwrap_err(), HttpError::Closed);
    }

    #[test]
    fn truncated_headers_are_closed() {
        assert_eq!(parse("GET / HTTP/1.1\r\nHost: x\r\n").unwrap_err(), HttpError::Closed);
    }

    #[test]
    fn rejects_malformed() {
        assert!(matches!(parse("NOT-HTTP\r\n\r\n").unwrap_err(), HttpError::Malformed(_)));
        assert!(matches!(
            parse("GET / HTTP/1.1\r\nbadheader\r\n\r\n").unwrap_err(),
            HttpError::Malformed(_)
        ));
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nContent-Length: abc\r\n\r\n").unwrap_err(),
            HttpError::Malformed(_)
        ));
        // Smuggling-shaped framing: a second Content-Length, a signed
        // value, whitespace before the colon, an obs-fold line, and bare
        // LF / CR inside the head.
        for raw in [
            "GET / HTTP/1.1\r\nX-A: a\nContent-Length: 3\r\n\r\nabc",
            "GET / HTTP/1.1\nContent-Length: 3\r\n\r\nabc",
            "GET / HTTP/1.1\r\nX-A: a\rb\r\n\r\n",
            "POST / HTTP/1.1\r\nContent-Length: 0\r\nContent-Length: 4\r\n\r\nGET /",
            "POST / HTTP/1.1\r\nContent-Length: +3\r\n\r\nabc",
            "POST / HTTP/1.1\r\nContent-Length : 3\r\n\r\nabc",
            "GET / HTTP/1.1\r\nHost: a\r\n x-folded: b\r\n\r\n",
        ] {
            assert!(matches!(parse(raw).unwrap_err(), HttpError::Malformed(_)), "{raw:?}");
        }
    }

    #[test]
    fn rejects_oversized_declared_body() {
        let raw = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1);
        assert_eq!(parse(&raw).unwrap_err(), HttpError::TooLarge);
    }

    #[test]
    fn rejects_oversized_headers() {
        let mut raw = String::from("GET / HTTP/1.1\r\n");
        for i in 0..2000 {
            raw.push_str(&format!("x-h{i}: {}\r\n", "v".repeat(20)));
        }
        raw.push_str("\r\n");
        assert_eq!(parse(&raw).unwrap_err(), HttpError::HeadersTooLarge);
    }

    #[test]
    fn oversized_headers_detected_before_terminator() {
        // A slowloris peer that never finishes its header block must be
        // rejected as soon as the cap is crossed, not buffered forever.
        let mut p = RequestParser::new();
        p.feed(b"GET / HTTP/1.1\r\n");
        let filler = vec![b'a'; MAX_HEADER_BYTES];
        p.feed(&filler);
        assert_eq!(p.next_request().unwrap_err(), HttpError::HeadersTooLarge);
        // The parser is dead afterwards: no resurrection on more bytes.
        p.feed(b"\r\n\r\n");
        assert_eq!(p.next_request().unwrap(), None);
    }

    #[test]
    fn transfer_encoding_fails_the_stream() {
        // A chunked body would otherwise parse as zero-length and its
        // bytes desync the pipeline (request smuggling); the stream
        // must die instead, swallowing everything after the header.
        let mut p = RequestParser::new();
        p.feed(
            b"POST /v1/embed HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
              5\r\nGET /\r\n0\r\n\r\nGET /smuggled HTTP/1.1\r\n\r\n",
        );
        assert!(matches!(p.next_request().unwrap_err(), HttpError::Malformed(_)));
        assert_eq!(p.next_request().unwrap(), None, "dead parser yields nothing");
        p.feed(b"GET /late HTTP/1.1\r\n\r\n");
        assert_eq!(p.next_request().unwrap(), None, "no resurrection after the error");
        // Any transfer-encoding value is rejected, not just chunked.
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nTransfer-Encoding: identity\r\n\r\n").unwrap_err(),
            HttpError::Malformed(_)
        ));
    }

    #[test]
    fn truncated_body_is_io_error() {
        let err = parse("POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nhi").unwrap_err();
        assert!(matches!(err, HttpError::Io(_)), "{err:?}");
    }

    #[test]
    fn http_10_defaults_to_close() {
        let r = parse("GET / HTTP/1.0\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(r.minor, 0);
        assert!(!r.wants_keep_alive());
        let r = parse("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(r.wants_keep_alive(), "explicit keep-alive on 1.0 is honored");
    }

    #[test]
    fn http_11_defaults_to_keep_alive() {
        let r = parse("GET / HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert!(r.wants_keep_alive());
        let r = parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!r.wants_keep_alive(), "Connection: close is honored");
        let r = parse("GET / HTTP/1.1\r\nConnection: Close\r\n\r\n").unwrap();
        assert!(!r.wants_keep_alive(), "token match is case-insensitive");
        let r = parse("GET / HTTP/1.1\r\nConnection: foo, close\r\n\r\n").unwrap();
        assert!(!r.wants_keep_alive(), "close inside a token list is honored");
    }

    #[test]
    fn persistence_policy_is_explicit_opt_in() {
        // No Connection header: the server may (and does) close.
        assert!(!parse("GET / HTTP/1.1\r\nHost: x\r\n\r\n").unwrap().persist_connection());
        assert!(!parse("GET / HTTP/1.0\r\nHost: x\r\n\r\n").unwrap().persist_connection());
        // Explicit keep-alive persists on both versions.
        assert!(parse("GET / HTTP/1.1\r\nConnection: keep-alive\r\n\r\n")
            .unwrap()
            .persist_connection());
        assert!(parse("GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n")
            .unwrap()
            .persist_connection());
        // close always wins, even alongside keep-alive.
        assert!(!parse("GET / HTTP/1.1\r\nConnection: keep-alive, close\r\n\r\n")
            .unwrap()
            .persist_connection());
    }

    #[test]
    fn pipelined_requests_parse_in_order() {
        let mut p = RequestParser::new();
        p.feed(b"GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\nContent-Length: 2\r\n\r\nhiGET /c HTTP/1.1\r\n\r\n");
        let a = p.next_request().unwrap().unwrap();
        let b = p.next_request().unwrap().unwrap();
        let c = p.next_request().unwrap().unwrap();
        assert_eq!((a.path.as_str(), b.path.as_str(), c.path.as_str()), ("/a", "/b", "/c"));
        assert_eq!(b.body, b"hi");
        assert_eq!(p.next_request().unwrap(), None);
        assert_eq!(p.buffered(), 0);
    }

    #[test]
    fn consumed_bytes_never_count_toward_the_header_cap() {
        // A burst far larger than MAX_HEADER_BYTES parses in full: the
        // cap applies to the unconsumed request, not to the whole buffer.
        let one = b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n";
        let n = MAX_HEADER_BYTES / one.len() * 3;
        let mut p = RequestParser::new();
        p.feed(&one.repeat(n));
        p.feed(b"GET /tail HTTP/1.1\r\n");
        for _ in 0..n {
            assert_eq!(p.next_request().unwrap().unwrap().path, "/healthz");
        }
        assert_eq!(p.next_request().unwrap(), None, "the tail is still partial");
        assert_eq!(p.buffered(), 20);
        p.feed(b"\r\n");
        assert_eq!(p.next_request().unwrap().unwrap().path, "/tail");
        assert_eq!(p.buffered(), 0);
    }

    #[test]
    fn torn_at_every_byte_boundary() {
        // The reactor feeds the parser whatever a readiness event
        // delivered; a request split at *any* byte boundary must parse
        // identically to the whole-frame case.
        let raw = b"POST /v1/embed HTTP/1.1\r\nHost: t\r\nx-request-id: abc\r\nContent-Length: 4\r\n\r\nbody";
        let mut whole = RequestParser::new();
        whole.feed(raw);
        let want = whole.next_request().unwrap().unwrap();
        for cut in 0..=raw.len() {
            let mut p = RequestParser::new();
            p.feed(&raw[..cut]);
            let early = p.next_request().unwrap();
            if cut < raw.len() {
                assert_eq!(early, None, "complete request from {cut} byte prefix");
            }
            p.feed(&raw[cut..]);
            let got = match early {
                Some(r) => r,
                None => p.next_request().unwrap().unwrap_or_else(|| panic!("no request at {cut}")),
            };
            assert_eq!(got, want, "split at byte {cut} changed the parse");
        }
    }

    proptest! {
        /// Random multi-way splits of a pipelined two-request stream
        /// always yield the same two requests.
        #[test]
        fn prop_torn_pipelined_stream_parses(cuts in proptest::collection::vec(0usize..200, 0..6)) {
            let raw: &[u8] = b"POST /v1/embed HTTP/1.1\r\nContent-Length: 3\r\n\r\nabcGET /healthz HTTP/1.1\r\nHost: t\r\n\r\n";
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (raw.len() + 1)).collect();
            cuts.sort_unstable();
            cuts.dedup();
            let mut p = RequestParser::new();
            let mut got = Vec::new();
            let mut prev = 0usize;
            for &c in cuts.iter().chain(std::iter::once(&raw.len())) {
                p.feed(&raw[prev..c]);
                prev = c;
                while let Some(r) = p.next_request().unwrap() {
                    got.push(r);
                }
            }
            prop_assert_eq!(got.len(), 2);
            prop_assert_eq!(got[0].method.as_str(), "POST");
            prop_assert_eq!(got[0].body.as_slice(), b"abc");
            prop_assert_eq!(got[1].path.as_str(), "/healthz");
            prop_assert_eq!(p.buffered(), 0);
        }
    }

    #[test]
    fn response_shape() {
        let mut out = Vec::new();
        write_response(&mut out, 429, "application/json", &[("Retry-After", "1".into())], b"{}")
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn render_response_echoes_keep_alive() {
        let mut out = Vec::new();
        render_response(&mut out, 200, "application/json", &[], b"{}", true);
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Connection: keep-alive\r\n"), "{text}");
    }

    #[test]
    fn reasons_cover_service_codes() {
        for code in [200, 201, 202, 400, 404, 405, 408, 409, 411, 413, 429, 431, 500, 503] {
            assert_ne!(reason(code), "Unknown", "{code}");
        }
    }
}
