//! A minimal HTTP/1.1 layer over `std::net` — just enough protocol for the
//! job service and its load generator, with no external dependencies.
//!
//! Server side: [`read_request`] parses one request (request line, headers,
//! `Content-Length` body) from a buffered reader that lives as long as the
//! connection, so pipelined requests are kept; [`write_response`] emits one
//! response. Client side: [`send_request`] writes a request and parses the
//! response, so the load generator and the tests speak the same dialect.
//! Every message, request or response, goes out as a single write.
//! Persistent connections are supported (HTTP/1.1 keep-alive semantics);
//! chunked transfer encoding is not — every body carries an explicit
//! `Content-Length`, which keeps framing trivial and deterministic.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Upper bound on the request head (request line + headers).
const MAX_HEAD: usize = 16 * 1024;
/// Upper bound on a request or response body (`.bench` uploads included).
const MAX_BODY: usize = 8 * 1024 * 1024;

/// One parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, …).
    pub method: String,
    /// The request target path (query strings are kept verbatim).
    pub path: String,
    /// Lowercased header names with their values, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
}

impl Request {
    /// First value of a header (name matched case-insensitively).
    pub fn header(&self, name: &str) -> Option<&str> {
        let lower = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == lower)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 (lossy).
    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Read bytes up to and including the `\r\n\r\n` head terminator and
/// return the head without it. Bytes past the terminator stay in `reader`.
/// `Ok(None)` means the peer closed the connection cleanly before sending
/// anything.
fn read_head<R: BufRead>(reader: &mut R) -> io::Result<Option<Vec<u8>>> {
    let mut head: Vec<u8> = Vec::with_capacity(512);
    loop {
        let budget = (MAX_HEAD + 1 - head.len()) as u64;
        let n = reader.by_ref().take(budget).read_until(b'\n', &mut head)?;
        if head.ends_with(b"\r\n\r\n") {
            head.truncate(head.len() - 4);
            return Ok(Some(head));
        }
        if head.len() > MAX_HEAD {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "request head too large",
            ));
        }
        if n == 0 {
            if head.is_empty() {
                return Ok(None);
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-head",
            ));
        }
    }
}

/// Read exactly `len` body bytes; anything after them stays in `reader`.
fn read_body<R: BufRead>(reader: &mut R, len: usize) -> io::Result<Vec<u8>> {
    if len > MAX_BODY {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "body too large"));
    }
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body)?;
    Ok(body)
}

/// Read and parse one request. `Ok(None)` means the peer closed the
/// connection cleanly between requests (normal keep-alive end).
///
/// The reader must live as long as the connection: a client may pipeline,
/// sending the next request in the same segment as this one, and those
/// bytes stay buffered in `reader` for the next call.
pub fn read_request<R: BufRead>(reader: &mut R) -> io::Result<Option<Request>> {
    let Some(head) = read_head(reader)? else {
        return Ok(None);
    };
    let head = String::from_utf8_lossy(&head).into_owned();
    let mut lines = head.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty request"))?;
    let mut parts = request_line.split_ascii_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) => (m.to_ascii_uppercase(), p.to_string(), v),
        _ => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "malformed request line",
            ))
        }
    };
    let mut headers: Vec<(String, String)> = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "malformed header line",
            ));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let content_length = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad content-length"))
        })
        .transpose()?
        .unwrap_or(0);
    let connection = headers
        .iter()
        .find(|(n, _)| n == "connection")
        .map(|(_, v)| v.to_ascii_lowercase());
    // HTTP/1.1 defaults to keep-alive; HTTP/1.0 defaults to close.
    let keep_alive = match connection.as_deref() {
        Some("close") => false,
        Some("keep-alive") => true,
        _ => version == "HTTP/1.1",
    };
    let body = read_body(reader, content_length)?;
    Ok(Some(Request {
        method,
        path,
        headers,
        body,
        keep_alive,
    }))
}

/// Standard reason phrase for the status codes the service emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Write one response with an explicit `Content-Length`.
///
/// Head and body go out in a single write: written separately, the body
/// waits behind Nagle's algorithm for the peer's delayed ACK of the head,
/// about 40 ms per exchange on Linux loopback.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        status,
        reason(status),
        content_type,
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    write_message(stream, head, body)
}

/// Send a head and its body as one buffer (see [`write_response`]).
fn write_message(stream: &mut TcpStream, head: String, body: &[u8]) -> io::Result<()> {
    let mut message = head.into_bytes();
    message.extend_from_slice(body);
    stream.write_all(&message)?;
    stream.flush()
}

/// A parsed client-side response.
#[derive(Debug, Clone)]
pub struct Response {
    /// The status code.
    pub status: u16,
    /// The body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// The body as UTF-8 (lossy).
    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Client side: write one request over an open connection and read the
/// response. The connection stays usable for further requests (keep-alive).
/// Like [`write_response`], the request goes out in a single write.
pub fn send_request(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    body: &[u8],
) -> io::Result<Response> {
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: fbt-serve\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n",
        body.len(),
    );
    write_message(stream, head, body)?;
    // The server answers each request with exactly one response, so no
    // bytes past it can be lost with this reader.
    read_response(&mut BufReader::new(stream))
}

/// Read and parse one response.
pub(crate) fn read_response<R: BufRead>(reader: &mut R) -> io::Result<Response> {
    let Some(head) = read_head(reader)? else {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before response",
        ));
    };
    let head = String::from_utf8_lossy(&head).into_owned();
    let mut lines = head.split("\r\n");
    let status_line = lines
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty response"))?;
    let status: u16 = status_line
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed status line"))?;
    let mut content_length = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, "bad content-length")
                })?;
            }
        }
    }
    let body = read_body(reader, content_length)?;
    Ok(Response { status, body })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Round-trip a request and a response over a real socket pair.
    #[test]
    fn request_and_response_round_trip() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream);
            let req = read_request(&mut reader).unwrap().unwrap();
            assert_eq!(req.method, "POST");
            assert_eq!(req.path, "/circuits");
            assert_eq!(req.body_text(), "INPUT(a)\n");
            assert!(req.keep_alive);
            let ok = b"{\"ok\":true}";
            write_response(reader.get_mut(), 201, "application/json", ok, true).unwrap();
            // Second request on the same connection.
            let req = read_request(&mut reader).unwrap().unwrap();
            assert_eq!(req.method, "GET");
            write_response(reader.get_mut(), 200, "application/json", b"{}", false).unwrap();
            // Clean close between requests reads as None.
            assert!(read_request(&mut reader).unwrap().is_none());
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        let resp = send_request(&mut stream, "POST", "/circuits", b"INPUT(a)\n").unwrap();
        assert_eq!(resp.status, 201);
        assert_eq!(resp.body_text(), "{\"ok\":true}");
        let resp = send_request(&mut stream, "GET", "/health", b"").unwrap();
        assert_eq!(resp.status, 200);
        drop(stream);
        server.join().unwrap();
    }

    #[test]
    fn oversized_head_is_rejected() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            read_request(&mut BufReader::new(stream))
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        let garbage = vec![b'x'; MAX_HEAD + 1024];
        let _ = stream.write_all(&garbage);
        let _ = stream.flush();
        drop(stream);
        let err = server.join().unwrap();
        assert!(err.is_err());
    }

    /// One keep-alive exchange costs a loopback round trip, not a delayed
    /// ACK: 40 POSTs with bodies finish far inside a second. Written as two
    /// segments, each message stalls behind Nagle's algorithm for ~40 ms.
    #[test]
    fn keep_alive_exchanges_do_not_stall() {
        const EXCHANGES: usize = 40;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream);
            while let Some(req) = read_request(&mut reader).unwrap() {
                write_response(reader.get_mut(), 200, "text/plain", &req.body, true).unwrap();
            }
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        let t0 = std::time::Instant::now();
        for i in 0..EXCHANGES {
            let body = format!("{{\"exchange\":{i}}}");
            let resp = send_request(&mut stream, "POST", "/echo", body.as_bytes()).unwrap();
            assert_eq!(resp.body_text(), body);
        }
        let elapsed = t0.elapsed();
        drop(stream);
        server.join().unwrap();
        assert!(
            elapsed < std::time::Duration::from_secs(1),
            "{EXCHANGES} exchanges took {elapsed:?}"
        );
    }
}
