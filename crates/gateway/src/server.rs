//! The TCP front of the gateway: a worker-thread accept pool over
//! `std::net::TcpListener`, keep-alive connection loops, and the
//! path → [`crate::Gateway`] dispatch table.
//!
//! Each worker owns a clone of the listener and blocks in `accept`; the
//! kernel load-balances incoming connections across them. An accepted
//! connection gets its own handler thread for its whole keep-alive
//! lifetime, so M persistent clients never starve behind N acceptors.

use crate::api::ErrorBody;
use crate::gateway::Gateway;
use crate::http::{read_request, ParseError, Request, Response};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A running HTTP server.
pub struct HttpServer {
    addr: SocketAddr,
    gateway: Arc<Gateway>,
    stop: Arc<AtomicBool>,
    workers: Vec<JoinHandle<()>>,
}

impl HttpServer {
    /// Bind and start serving with `workers` accept threads. Use
    /// `"127.0.0.1:0"` to let the OS pick a free port.
    pub fn start(addr: &str, gateway: Arc<Gateway>, workers: usize) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let workers = (0..workers.max(1))
            .map(|_| {
                let listener = listener.try_clone()?;
                let gateway = Arc::clone(&gateway);
                let stop = Arc::clone(&stop);
                Ok(std::thread::spawn(move || {
                    while !stop.load(Ordering::SeqCst) {
                        match listener.accept() {
                            Ok((stream, _)) => {
                                let gateway = Arc::clone(&gateway);
                                let stop = Arc::clone(&stop);
                                std::thread::spawn(move || {
                                    serve_connection(stream, &gateway, &stop)
                                });
                            }
                            Err(_) => break,
                        }
                    }
                }))
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(Self { addr, gateway, stop, workers })
    }

    /// The bound address (real port even when started on `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The gateway behind this server.
    pub fn gateway(&self) -> &Arc<Gateway> {
        &self.gateway
    }

    /// Stop accepting, wake every worker, and join them. Established
    /// keep-alive connections are closed after their in-flight exchange.
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake each blocked `accept` with a throwaway connection.
        for _ in 0..self.workers.len() {
            let _ = TcpStream::connect(self.addr);
        }
        for w in self.workers {
            let _ = w.join();
        }
    }
}

/// Serve one connection's keep-alive loop.
fn serve_connection(stream: TcpStream, gateway: &Gateway, stop: &AtomicBool) {
    stream.set_nodelay(true).ok();
    let mut write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    while !stop.load(Ordering::SeqCst) {
        let (response, close) = match read_request(&mut reader) {
            Ok(req) => {
                let close = req.wants_close();
                (dispatch(gateway, &req), close)
            }
            Err(ParseError::Eof) => return,
            Err(ParseError::LengthRequired) => {
                (error_response(411, "request bodies must carry content-length", None), true)
            }
            Err(ParseError::TooLarge) => (error_response(413, "request too large", None), true),
            Err(ParseError::Bad(msg)) => (error_response(400, &msg, None), true),
            Err(ParseError::Io(_)) => return,
        };
        if response.write_to(&mut write_half, close).is_err() || close {
            return;
        }
    }
}

/// Route a request to its handler.
fn dispatch(gateway: &Gateway, req: &Request) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/v1/submit") => submit(gateway, req),
        ("GET", "/v1/matrix") => Response::json(200, gateway.matrix_json()),
        ("GET", "/v1/routes") => Response::json(200, gateway.routes_json()),
        ("GET", "/healthz") => Response::json(200, gateway.healthz_json()),
        ("GET", "/v1/stats") => {
            Response::json(200, serde_json::to_string(&gateway.stats()).expect("stats serialize"))
        }
        (_, "/v1/submit" | "/v1/matrix" | "/v1/routes" | "/healthz" | "/v1/stats") => {
            error_response(405, "method not allowed", None)
        }
        _ => error_response(404, "no such endpoint", None),
    }
}

fn submit(gateway: &Gateway, req: &Request) -> Response {
    let body = match std::str::from_utf8(&req.body) {
        Ok(s) => s,
        Err(_) => return error_response(400, "body is not UTF-8", None),
    };
    let parsed: crate::api::SubmitRequest = match serde_json::from_str(body) {
        Ok(p) => p,
        // The hardened reader's positioned message (trailing garbage,
        // depth cap, truncation offset) goes to the client verbatim.
        Err(e) => return error_response(400, &format!("invalid JSON body: {e}"), None),
    };
    match gateway.submit(&parsed) {
        Ok(resp) => Response::json(200, serde_json::to_string(&resp).expect("response serializes")),
        Err(e) => error_response(e.status, &e.message, e.retry_after),
    }
}

fn error_response(status: u16, message: &str, retry_after: Option<u64>) -> Response {
    let body =
        serde_json::to_string(&ErrorBody { error: message.to_owned() }).expect("error serializes");
    let mut resp = Response::json(status, body);
    if let Some(secs) = retry_after {
        resp = resp.with_header("retry-after", secs);
    }
    resp
}
