//! The minimal HTTP/1.1 surface the front-door needs, implemented
//! directly over `std::net` streams in the workspace's shim spirit: no
//! external HTTP crate exists in this build environment, so the gateway
//! carries its own request parser and response writer covering exactly
//! what its API uses — `Content-Length` request bodies, keep-alive
//! connection reuse, and `Content-Length` responses.
//!
//! Deliberate non-goals: no TLS, no HTTP/2, no multipart, no request
//! trailers. Requests with `Transfer-Encoding: chunked` bodies are
//! refused with `411 Length Required` — every client this gateway serves
//! (including its own [`crate::client`]) sends measured bodies.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Hard cap on request body size; larger submissions are refused with
/// `413 Payload Too Large` before any allocation of the full body.
pub const MAX_BODY_BYTES: usize = 4 << 20;

/// Hard cap on the request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 16 << 10;

/// A parsed HTTP/1.1 request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method token, e.g. `GET`, `POST`.
    pub method: String,
    /// Path component of the request target (query string stripped).
    pub path: String,
    /// Raw query string (no leading `?`), empty if absent.
    pub query: String,
    /// Header names lowercased, values trimmed, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a header, by case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers.iter().find(|(k, _)| *k == name).map(|(_, v)| v.as_str())
    }

    /// Does the client ask to close the connection after this exchange?
    pub fn wants_close(&self) -> bool {
        self.header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Why a request could not be parsed. Each variant maps to the status
/// line the server answers with before (usually) closing the connection.
#[derive(Debug)]
pub enum ParseError {
    /// Clean EOF before any request byte — the keep-alive peer left.
    Eof,
    /// Malformed request line or headers.
    Bad(String),
    /// Body advertised as chunked (or otherwise unmeasured).
    LengthRequired,
    /// Body or head larger than the caps.
    TooLarge,
    /// Socket error mid-request.
    Io(std::io::Error),
}

/// Read one request from a keep-alive connection.
pub fn read_request(reader: &mut BufReader<TcpStream>) -> Result<Request, ParseError> {
    let mut head = String::new();
    let mut line = String::new();
    // Request line + headers, CRLF-terminated, blank line ends the head.
    loop {
        line.clear();
        let n = reader.read_line(&mut line).map_err(ParseError::Io)?;
        if n == 0 {
            return if head.is_empty() {
                Err(ParseError::Eof)
            } else {
                Err(ParseError::Bad("connection closed mid-head".into()))
            };
        }
        if head.len() + line.len() > MAX_HEAD_BYTES {
            return Err(ParseError::TooLarge);
        }
        if line == "\r\n" || line == "\n" {
            break;
        }
        head.push_str(&line);
    }
    let mut lines = head.lines();
    let request_line = lines.next().ok_or_else(|| ParseError::Bad("empty head".into()))?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next().ok_or_else(|| ParseError::Bad("missing method".into()))?;
    let target = parts.next().ok_or_else(|| ParseError::Bad("missing target".into()))?;
    let version = parts.next().ok_or_else(|| ParseError::Bad("missing version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(ParseError::Bad(format!("unsupported version {version}")));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_owned(), q.to_owned()),
        None => (target.to_owned(), String::new()),
    };
    let mut headers = Vec::new();
    for line in lines {
        let (name, value) =
            line.split_once(':').ok_or_else(|| ParseError::Bad(format!("bad header {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }

    let mut req =
        Request { method: method.to_ascii_uppercase(), path, query, headers, body: Vec::new() };
    if req.header("transfer-encoding").is_some_and(|v| !v.eq_ignore_ascii_case("identity")) {
        return Err(ParseError::LengthRequired);
    }
    if let Some(len) = req.header("content-length") {
        let len: usize =
            len.parse().map_err(|_| ParseError::Bad(format!("bad content-length {len:?}")))?;
        if len > MAX_BODY_BYTES {
            return Err(ParseError::TooLarge);
        }
        let mut body = vec![0u8; len];
        reader.read_exact(&mut body).map_err(ParseError::Io)?;
        req.body = body;
    }
    Ok(req)
}

/// An HTTP response under construction.
#[derive(Debug)]
pub struct Response {
    /// Numeric status code.
    pub status: u16,
    /// Extra headers beyond the automatic framing ones.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A response with a JSON body.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Self {
            status,
            headers: vec![("content-type".into(), "application/json".into())],
            body: body.into(),
        }
    }

    /// Add a header.
    pub fn with_header(mut self, name: &str, value: impl std::fmt::Display) -> Self {
        self.headers.push((name.to_ascii_lowercase(), value.to_string()));
        self
    }

    /// Serialize onto a stream. `close` adds `Connection: close`.
    pub fn write_to(&self, stream: &mut TcpStream, close: bool) -> std::io::Result<()> {
        let mut head = format!("HTTP/1.1 {} {}\r\n", self.status, reason(self.status));
        for (k, v) in &self.headers {
            head.push_str(&format!("{k}: {v}\r\n"));
        }
        if close {
            head.push_str("connection: close\r\n");
        }
        head.push_str(&format!("content-length: {}\r\n\r\n", self.body.len()));
        stream.write_all(head.as_bytes())?;
        stream.write_all(&self.body)?;
        stream.flush()
    }
}

/// Canonical reason phrase of every status the gateway emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        411 => "Length Required",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    /// Run a parser against raw bytes by pushing them through a real
    /// loopback socket — the exact reader type production uses.
    fn parse_raw(raw: &[u8]) -> Result<Request, ParseError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_vec();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&raw).unwrap();
        });
        let (stream, _) = listener.accept().unwrap();
        let got = read_request(&mut BufReader::new(stream));
        writer.join().unwrap();
        got
    }

    #[test]
    fn parses_post_with_body_and_query() {
        let req = parse_raw(
            b"POST /v1/submit?tenant=a HTTP/1.1\r\ncontent-length: 4\r\nX-Tag: hi\r\n\r\nbody",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/submit");
        assert_eq!(req.query, "tenant=a");
        assert_eq!(req.header("x-tag"), Some("hi"));
        assert_eq!(req.body, b"body");
        assert!(!req.wants_close());
    }

    #[test]
    fn rejects_chunked_request_bodies() {
        let err = parse_raw(b"POST /x HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n");
        assert!(matches!(err, Err(ParseError::LengthRequired)));
    }

    #[test]
    fn clean_eof_is_distinguished_from_truncation() {
        assert!(matches!(parse_raw(b""), Err(ParseError::Eof)));
        assert!(matches!(parse_raw(b"GET / HTTP/1.1\r\n"), Err(ParseError::Bad(_))));
    }

    #[test]
    fn oversized_bodies_are_refused_up_front() {
        let head = format!("POST /x HTTP/1.1\r\ncontent-length: {}\r\n\r\n", MAX_BODY_BYTES + 1);
        assert!(matches!(parse_raw(head.as_bytes()), Err(ParseError::TooLarge)));
    }

    #[test]
    fn response_framing_round_trips() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            Response::json(200, br#"{"ok":true}"#.to_vec()).write_to(&mut s, true).unwrap();
        });
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream);
        let (status, _, body) = crate::client::read_response(&mut reader).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, br#"{"ok":true}"#);
        writer.join().unwrap();
    }
}
