//! Minimal HTTP/1.1 client for the serving harness binaries (`loadgen`,
//! `validate_serve`, `bench_serve`).
//!
//! Two shapes, both zero-dependency:
//!
//! - the original one-shot free functions ([`get`] / [`post`] /
//!   [`request_with_headers`]): connect, `Connection: close`, read to
//!   EOF — the right tool for probes and conformance checks;
//! - [`Client`], a keep-alive connection that frames responses by
//!   `Content-Length` and reuses the socket across requests. It honours
//!   a `Connection: close` answer from the server (reconnects next
//!   call) and retries exactly once on a fresh socket when a *reused*
//!   connection dies mid-request — the classic stale-keep-alive race
//!   where the server reaped the idle socket between our requests.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A parsed one-shot response.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Raw header block (status line + headers).
    pub head: String,
    /// Response body.
    pub body: String,
}

impl Response {
    /// First header value with the given (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.head.lines().skip(1).find_map(|line| {
            let (k, v) = line.split_once(':')?;
            k.trim().eq_ignore_ascii_case(name).then(|| v.trim())
        })
    }
}

/// Issue one request on a fresh connection and read the full response.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    timeout: Duration,
) -> Result<Response, String> {
    request_with_headers(addr, method, path, &[], body, timeout)
}

/// Like [`request`], with extra request headers (e.g. `x-request-id`).
pub fn request_with_headers(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &str,
    timeout: Duration,
) -> Result<Response, String> {
    let mut stream =
        TcpStream::connect_timeout(&addr, timeout).map_err(|e| format!("connect {addr}: {e}"))?;
    // One-shot request/response: disable Nagle so the request is not
    // held back waiting for ACKs it will never batch with.
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream.set_read_timeout(Some(timeout)).map_err(|e| e.to_string())?;
    stream.set_write_timeout(Some(timeout)).map_err(|e| e.to_string())?;
    let extra: String = headers.iter().map(|(k, v)| format!("{k}: {v}\r\n")).collect();
    let raw = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\n{extra}Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    stream.write_all(raw.as_bytes()).map_err(|e| format!("write {addr}{path}: {e}"))?;
    let mut buf = String::new();
    stream.read_to_string(&mut buf).map_err(|e| format!("read {addr}{path}: {e}"))?;
    let status = buf
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("no status line in response from {path}: {buf:?}"))?;
    let (head, body) = buf.split_once("\r\n\r\n").unwrap_or((buf.as_str(), ""));
    Ok(Response { status, head: head.to_string(), body: body.to_string() })
}

/// A persistent keep-alive connection to one server.
///
/// Responses are framed by `Content-Length` (every observatory response
/// carries one), so the socket survives across requests. Over-read bytes
/// are kept in a carry buffer, which also makes the client safe against
/// servers that start the next response early.
pub struct Client {
    addr: SocketAddr,
    timeout: Duration,
    conn: Option<Conn>,
    /// Requests served on an already-open socket (keep-alive hits).
    pub reused: u64,
    /// Fresh sockets opened after the first (reaped/expired keep-alives).
    pub reconnects: u64,
}

struct Conn {
    stream: TcpStream,
    carry: Vec<u8>,
}

impl Client {
    /// A client for `addr`; no socket is opened until the first request.
    pub fn new(addr: SocketAddr, timeout: Duration) -> Client {
        Client { addr, timeout, conn: None, reused: 0, reconnects: 0 }
    }

    /// `GET path` on the persistent connection.
    pub fn get(&mut self, path: &str) -> Result<Response, String> {
        self.request("GET", path, &[], "")
    }

    /// `POST path` with a JSON body on the persistent connection.
    pub fn post(&mut self, path: &str, body: &str) -> Result<Response, String> {
        self.request("POST", path, &[], body)
    }

    /// Issue one request, reusing the open socket when there is one.
    ///
    /// A request that fails on a *reused* socket is retried once on a
    /// fresh connection; a failure on a fresh socket is the caller's.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &str,
    ) -> Result<Response, String> {
        let had_conn = self.conn.is_some();
        if had_conn {
            self.reused += 1;
            match self.once(method, path, headers, body) {
                Ok(resp) => return Ok(resp),
                Err(_stale) => {
                    // The server may have reaped the idle socket between
                    // requests; that is not an error, just a cache miss.
                    self.reused -= 1;
                    self.conn = None;
                    self.reconnects += 1;
                }
            }
        }
        self.once(method, path, headers, body)
    }

    /// Issue several pipelined `POST`s in one write, then read the
    /// responses back in order (HTTP/1.1 pipelining). Same
    /// retry-once-on-stale-socket policy as [`Client::request`].
    pub fn post_pipelined(&mut self, path: &str, bodies: &[&str]) -> Result<Vec<Response>, String> {
        if self.conn.is_some() {
            self.reused += 1;
            match self.once_pipelined(path, bodies, Duration::ZERO) {
                Ok(resps) => return Ok(resps),
                Err(_stale) => {
                    self.reused -= 1;
                    self.conn = None;
                    self.reconnects += 1;
                }
            }
        }
        self.once_pipelined(path, bodies, Duration::ZERO)
    }

    /// [`Client::post_pipelined`] without the retry, and the responses
    /// are read only after `pause`: the server must cope with a client
    /// that lets a large backlog of responses build up unread.
    pub fn post_pipelined_paused(
        &mut self,
        path: &str,
        bodies: &[&str],
        pause: Duration,
    ) -> Result<Vec<Response>, String> {
        self.once_pipelined(path, bodies, pause)
    }

    fn once_pipelined(
        &mut self,
        path: &str,
        bodies: &[&str],
        pause: Duration,
    ) -> Result<Vec<Response>, String> {
        if self.conn.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, self.timeout)
                .map_err(|e| format!("connect {}: {e}", self.addr))?;
            stream.set_nodelay(true).map_err(|e| e.to_string())?;
            stream.set_read_timeout(Some(self.timeout)).map_err(|e| e.to_string())?;
            stream.set_write_timeout(Some(self.timeout)).map_err(|e| e.to_string())?;
            self.conn = Some(Conn { stream, carry: Vec::new() });
        }
        let conn = self.conn.as_mut().expect("connection just ensured");
        let mut raw = String::new();
        for body in bodies {
            raw.push_str(&format!(
                "POST {path} HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
                self.addr,
                body.len(),
            ));
        }
        // Write on a second thread while this one reads: a burst larger
        // than the socket buffers would otherwise deadlock against a
        // server that pauses reading until its responses are consumed.
        let mut writer = conn.stream.try_clone().map_err(|e| format!("clone socket: {e}"))?;
        let read = std::thread::scope(|scope| {
            let sent = scope.spawn(move || writer.write_all(raw.as_bytes()));
            std::thread::sleep(pause);
            let mut resps = Vec::with_capacity(bodies.len());
            for _ in bodies {
                resps.push(read_framed(conn)?);
            }
            match sent.join() {
                Ok(Ok(())) => Ok(resps),
                Ok(Err(e)) => Err(format!("write {path}: {e}")),
                Err(_) => Err(format!("write {path}: writer panicked")),
            }
        });
        let resps = match read {
            Ok(resps) => resps,
            Err(e) => {
                self.conn = None;
                return Err(e);
            }
        };
        if resps.last().is_some_and(|r| {
            r.header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close"))
        }) {
            self.conn = None;
        }
        Ok(resps)
    }

    /// Drop the socket (the next request reconnects).
    pub fn close(&mut self) {
        self.conn = None;
    }

    fn once(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &str,
    ) -> Result<Response, String> {
        if self.conn.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, self.timeout)
                .map_err(|e| format!("connect {}: {e}", self.addr))?;
            stream.set_nodelay(true).map_err(|e| e.to_string())?;
            stream.set_read_timeout(Some(self.timeout)).map_err(|e| e.to_string())?;
            stream.set_write_timeout(Some(self.timeout)).map_err(|e| e.to_string())?;
            self.conn = Some(Conn { stream, carry: Vec::new() });
        }
        let conn = self.conn.as_mut().expect("connection just ensured");
        let extra: String = headers.iter().map(|(k, v)| format!("{k}: {v}\r\n")).collect();
        let raw = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\n{extra}Content-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
            self.addr,
            body.len(),
        );
        conn.stream.write_all(raw.as_bytes()).map_err(|e| format!("write {path}: {e}"))?;
        let resp = match read_framed(conn) {
            Ok(resp) => resp,
            Err(e) => {
                self.conn = None;
                return Err(e);
            }
        };
        // The server is allowed to answer and then close (drain, 1.0,
        // error responses); honour it so the next request reconnects.
        if resp.header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close")) {
            self.conn = None;
        }
        Ok(resp)
    }
}

/// Read one `Content-Length`-framed response off a persistent socket,
/// leaving any over-read bytes in the connection's carry buffer.
fn read_framed(conn: &mut Conn) -> Result<Response, String> {
    let header_end = loop {
        if let Some(pos) = conn.carry.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        if conn.carry.len() > 64 << 10 {
            return Err("response header block never terminated".into());
        }
        let mut chunk = [0u8; 4096];
        let n = conn.stream.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("connection closed before response headers".into());
        }
        conn.carry.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&conn.carry[..header_end]).trim_end().to_string();
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("no status line in response: {head:?}"))?;
    let resp_probe = Response { status, head: head.clone(), body: String::new() };
    let cl: usize = resp_probe
        .header("content-length")
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("keep-alive response without content-length: {head:?}"))?;
    while conn.carry.len() < header_end + cl {
        let mut chunk = [0u8; 16 << 10];
        let n = conn.stream.read(&mut chunk).map_err(|e| format!("read body: {e}"))?;
        if n == 0 {
            return Err("connection closed mid-body".into());
        }
        conn.carry.extend_from_slice(&chunk[..n]);
    }
    let body = String::from_utf8_lossy(&conn.carry[header_end..header_end + cl]).to_string();
    conn.carry.drain(..header_end + cl);
    Ok(Response { status, head, body })
}

/// `GET path` with an empty body.
pub fn get(addr: SocketAddr, path: &str, timeout: Duration) -> Result<Response, String> {
    request(addr, "GET", path, "", timeout)
}

/// `POST path` with a JSON body.
pub fn post(
    addr: SocketAddr,
    path: &str,
    body: &str,
    timeout: Duration,
) -> Result<Response, String> {
    request(addr, "POST", path, body, timeout)
}

/// Poll `GET /healthz` until it answers 200 or the deadline lapses —
/// lets harnesses start the server as a sibling process without races.
pub fn await_healthy(addr: SocketAddr, deadline: Duration) -> Result<Response, String> {
    let start = std::time::Instant::now();
    loop {
        match get(addr, "/healthz", Duration::from_secs(2)) {
            Ok(r) if r.status == 200 => return Ok(r),
            Ok(r) => {
                if start.elapsed() > deadline {
                    return Err(format!("healthz answered {} past the deadline", r.status));
                }
            }
            Err(e) => {
                if start.elapsed() > deadline {
                    return Err(format!("server never became healthy: {e}"));
                }
            }
        }
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// Parse `host:port` into a socket address (resolving if needed).
pub fn resolve(addr: &str) -> Result<SocketAddr, String> {
    use std::net::ToSocketAddrs;
    addr.to_socket_addrs()
        .map_err(|e| format!("cannot resolve '{addr}': {e}"))?
        .next()
        .ok_or_else(|| format!("'{addr}' resolved to nothing"))
}
