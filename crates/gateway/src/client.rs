//! A minimal keep-alive HTTP/1.1 client for loopback benchmarking and
//! tests: one persistent connection per [`HttpClient`], `Content-Length`
//! request bodies, and response reading with `Content-Length` framing —
//! the one [`crate::http::Response`] emits.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// A persistent connection to one server.
pub struct HttpClient {
    addr: SocketAddr,
    reader: BufReader<TcpStream>,
}

impl HttpClient {
    /// Connect.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Self { addr, reader: BufReader::new(stream) })
    }

    /// One request/response exchange over the persistent connection,
    /// reconnecting transparently if the server closed it between
    /// exchanges. Returns `(status, body)`.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
    ) -> std::io::Result<(u16, Vec<u8>)> {
        match self.try_request(method, path, body) {
            Ok(done) => Ok(done),
            Err(_) => {
                // Stale keep-alive connection: reconnect once and retry.
                *self = Self::connect(self.addr)?;
                self.try_request(method, path, body)
            }
        }
    }

    fn try_request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
    ) -> std::io::Result<(u16, Vec<u8>)> {
        let mut head = format!("{method} {path} HTTP/1.1\r\nhost: gateway\r\n");
        if let Some(b) = body {
            head.push_str(&format!("content-length: {}\r\n", b.len()));
            head.push_str("content-type: application/json\r\n");
        }
        head.push_str("\r\n");
        let stream = self.reader.get_mut();
        stream.write_all(head.as_bytes())?;
        if let Some(b) = body {
            stream.write_all(b)?;
        }
        stream.flush()?;
        let (status, _, payload) = read_response(&mut self.reader)?;
        Ok((status, payload))
    }
}

/// A decoded response: status, lowercased headers, body.
pub type RawResponse = (u16, Vec<(String, String)>, Vec<u8>);

/// Read one response (status, headers, body) from a buffered stream.
pub fn read_response(reader: &mut BufReader<TcpStream>) -> std::io::Result<RawResponse> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "no status line"));
    }
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad(format!("bad status line {line:?}")))?;
    let mut headers = Vec::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(bad("eof in headers".into()));
        }
        if line == "\r\n" || line == "\n" {
            break;
        }
        if let Some((k, v)) = line.split_once(':') {
            headers.push((k.trim().to_ascii_lowercase(), v.trim().to_owned()));
        }
    }
    let header = |name: &str| headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str());
    let body = if let Some(len) = header("content-length") {
        let len: usize = len.parse().map_err(|_| bad(format!("bad content-length {len:?}")))?;
        let mut body = vec![0u8; len];
        reader.read_exact(&mut body)?;
        body
    } else {
        Vec::new()
    };
    Ok((status, headers, body))
}

fn bad(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}
