//! Acceptance: the HTTP front-door end to end over real loopback sockets.
//!
//! Everything here but one device-memory test goes through the wire —
//! the worker-pool accept loop, keep-alive parsing, `Content-Length`
//! response framing, JSON (de)serialization — against a gateway with live
//! simulated devices behind it.

use mcmm_gateway::client::read_response;
use mcmm_gateway::{
    Gateway, GatewayConfig, HttpClient, HttpServer, SubmitRequest, SubmitResponse, TenantPolicy,
};
use mcmm_gpu_sim::diffval::fnv1a;
use mcmm_serve::ServeConfig;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};

fn start(cfg: GatewayConfig) -> HttpServer {
    let gateway = Arc::new(Gateway::new(cfg).expect("gateway up"));
    HttpServer::start("127.0.0.1:0", gateway, 4).expect("server up")
}

fn scale_request(a: f32, n: usize) -> SubmitRequest {
    SubmitRequest {
        tenant: "acceptance".into(),
        shape: "scale".into(),
        model: "CUDA".into(),
        language: "C++".into(),
        vendor: "NVIDIA".into(),
        a,
        x: (0..n).map(|i| i as f32).collect(),
        y: vec![0.0; n],
    }
}

fn post_submit(client: &mut HttpClient, req: &SubmitRequest) -> (u16, Vec<u8>) {
    let body = serde_json::to_string(req).unwrap();
    client.request("POST", "/v1/submit", Some(body.as_bytes())).expect("exchange")
}

#[test]
fn submit_over_http_returns_the_serial_checksum() {
    let server = start(GatewayConfig::default());
    let mut client = HttpClient::connect(server.addr()).unwrap();
    let req = scale_request(2.0, 8);
    let (status, body) = post_submit(&mut client, &req);
    assert_eq!(status, 200, "body: {}", String::from_utf8_lossy(&body));
    let resp: SubmitResponse = serde_json::from_str(std::str::from_utf8(&body).unwrap()).unwrap();
    let want: Vec<u8> = (0..8).map(|i| 2.0 * i as f32).flat_map(|v| v.to_le_bytes()).collect();
    assert_eq!(resp.checksum, format!("{:016x}", fnv1a(&want)));
    assert!(!resp.route.is_empty(), "response must name the serving route");

    // Keep-alive: the same connection serves a second exchange.
    let (status, _) = post_submit(&mut client, &scale_request(3.0, 8));
    assert_eq!(status, 200);
    server.shutdown();
}

#[test]
fn every_read_endpoint_answers_json_with_its_content_length() {
    let server = start(GatewayConfig::default());
    let mut reader = BufReader::new(TcpStream::connect(server.addr()).unwrap());
    for path in ["/healthz", "/v1/matrix", "/v1/routes", "/v1/stats"] {
        let head = format!("GET {path} HTTP/1.1\r\n\r\n");
        reader.get_mut().write_all(head.as_bytes()).unwrap();
        let (status, headers, body) = read_response(&mut reader).unwrap();
        assert_eq!(status, 200, "{path}");
        let length = headers.iter().find(|(k, _)| k == "content-length").map(|(_, v)| v.as_str());
        assert_eq!(length, Some(body.len().to_string().as_str()), "{path}: {headers:?}");
        assert!(headers.iter().all(|(k, _)| k != "transfer-encoding"), "{path}: {headers:?}");
        let parsed: serde_json::Value =
            serde_json::from_str(std::str::from_utf8(&body).unwrap()).unwrap();
        match path {
            "/healthz" => assert_eq!(parsed["status"], "ok"),
            "/v1/stats" => assert!(parsed["mem_traced_launches"].as_u64().is_some(), "{parsed:?}"),
            _ => assert!(!parsed.as_array().unwrap().is_empty(), "{path} must list entries"),
        }
    }
    server.shutdown();
}

#[test]
fn protocol_errors_map_to_the_right_statuses() {
    let server = start(GatewayConfig::default());
    let mut client = HttpClient::connect(server.addr()).unwrap();
    let (status, _) = client.request("GET", "/v1/nope", None).unwrap();
    assert_eq!(status, 404);
    let (status, _) = client.request("DELETE", "/healthz", None).unwrap();
    assert_eq!(status, 405);
    // Hardened JSON reader: trailing garbage is a positioned 400.
    let (status, body) =
        client.request("POST", "/v1/submit", Some(br#"{"tenant":"x"} extra"#)).unwrap();
    assert_eq!(status, 400);
    let err = String::from_utf8_lossy(&body).to_string();
    assert!(err.contains("at byte"), "error must carry a position: {err}");
    // Unknown shape is a validation 400.
    let mut bad = scale_request(1.0, 4);
    bad.shape = "stencil".into();
    let (status, _) = post_submit(&mut client, &bad);
    assert_eq!(status, 400);
    server.shutdown();
}

#[test]
fn an_empty_cell_is_a_400_not_a_lost_job() {
    // SYCL Fortran on NVIDIA and CUDA C++ on AMD are valid names for cells
    // the matrix leaves empty: the client asked for something that does
    // not exist, so retrying cannot help and no route is at fault.
    let server = start(GatewayConfig::default());
    let mut reader = BufReader::new(TcpStream::connect(server.addr()).unwrap());
    for (model, language, vendor) in [("SYCL", "Fortran", "NVIDIA"), ("CUDA", "C++", "AMD")] {
        let req = SubmitRequest {
            model: model.into(),
            language: language.into(),
            vendor: vendor.into(),
            ..scale_request(2.0, 8)
        };
        let body = serde_json::to_string(&req).unwrap();
        let head = format!("POST /v1/submit HTTP/1.1\r\ncontent-length: {}\r\n\r\n", body.len());
        let stream = reader.get_mut();
        stream.write_all(head.as_bytes()).unwrap();
        stream.write_all(body.as_bytes()).unwrap();
        let (status, headers, body) = read_response(&mut reader).unwrap();
        let body = String::from_utf8_lossy(&body);
        assert_eq!(status, 400, "{model} {language} on {vendor}: {body}");
        assert!(headers.iter().all(|(k, _)| k != "retry-after"), "{headers:?}");
    }
    assert_eq!(server.gateway().stats().queue_full, 0);
    let mut client = HttpClient::connect(server.addr()).unwrap();
    let (status, body) = client.request("GET", "/healthz", None).unwrap();
    assert_eq!(status, 200);
    let health: serde_json::Value =
        serde_json::from_str(std::str::from_utf8(&body).unwrap()).unwrap();
    assert_eq!(health["status"], "ok", "{health}");
    server.shutdown();
}

#[test]
fn throttled_tenant_gets_429_with_retry_after() {
    let server = start(GatewayConfig {
        tenant: TenantPolicy { burst: 2.0, per_second: 0.0001 },
        ..GatewayConfig::default()
    });
    let mut client = HttpClient::connect(server.addr()).unwrap();
    let mut statuses = Vec::new();
    for i in 0..4 {
        let (status, _) = post_submit(&mut client, &scale_request(1.0 + i as f32, 4));
        statuses.push(status);
    }
    assert_eq!(statuses.iter().filter(|&&s| s == 200).count(), 2);
    assert_eq!(statuses.iter().filter(|&&s| s == 429).count(), 2);
    server.shutdown();
}

#[test]
fn concurrent_identical_submissions_coalesce_over_http() {
    let server = start(GatewayConfig::default());
    let addr = server.addr();
    // A large buffer lengthens the execution window; 8 clients fire the
    // byte-identical request into it simultaneously.
    let req = Arc::new(scale_request(2.0, 4096));
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let req = Arc::clone(&req);
            std::thread::spawn(move || {
                let mut client = HttpClient::connect(addr).unwrap();
                // Several rounds so overlap is effectively certain.
                let mut checksums = Vec::new();
                for _ in 0..8 {
                    let body = serde_json::to_string(&*req).unwrap();
                    let (status, resp) =
                        client.request("POST", "/v1/submit", Some(body.as_bytes())).unwrap();
                    assert_eq!(status, 200);
                    let resp: SubmitResponse =
                        serde_json::from_str(std::str::from_utf8(&resp).unwrap()).unwrap();
                    checksums.push(resp.checksum);
                }
                checksums
            })
        })
        .collect();
    let all: Vec<String> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
    assert!(all.windows(2).all(|w| w[0] == w[1]), "every waiter gets one result");
    let stats = server.gateway().stats();
    assert!(
        stats.coalesce_joins > 0,
        "64 identical concurrent submissions must coalesce at least once: {stats:?}"
    );
    server.shutdown();
}

#[test]
fn overload_is_refused_at_the_front_door_not_booked_as_route_failure() {
    // Admission allows `queue_depth` pending requests, so the Service,
    // which allows as many per device, never refuses a gateway job: a
    // burst past the bound gets 503s and leaves every breaker closed.
    let server = start(GatewayConfig {
        serve: ServeConfig { queue_depth: 2, ..ServeConfig::default() },
        tenant: TenantPolicy { burst: 1e12, per_second: 1e12 },
        ..GatewayConfig::default()
    });
    let addr = server.addr();
    let clients = 8;
    let start_line = Arc::new(Barrier::new(clients));
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let start_line = Arc::clone(&start_line);
            std::thread::spawn(move || {
                let mut reader = BufReader::new(TcpStream::connect(addr).unwrap());
                start_line.wait();
                (0..8)
                    .map(|round| {
                        // Distinct jobs: nothing coalesces.
                        let req = scale_request((c * 8 + round) as f32, 1 << 14);
                        let body = serde_json::to_string(&req).unwrap();
                        let head = format!(
                            "POST /v1/submit HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
                            body.len()
                        );
                        let stream = reader.get_mut();
                        stream.write_all(head.as_bytes()).unwrap();
                        stream.write_all(body.as_bytes()).unwrap();
                        let (status, headers, _) = read_response(&mut reader).unwrap();
                        (status, headers.iter().any(|(k, _)| k == "retry-after"))
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let answers: Vec<(u16, bool)> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
    for &(status, retry_after) in &answers {
        assert!(
            status == 200 || (status == 503 && retry_after),
            "every answer is a 200 or a 503 with Retry-After: {answers:?}"
        );
    }
    assert!(answers.iter().any(|&(s, _)| s == 503), "8 clients must overrun a bound of 2");

    let mut client = HttpClient::connect(addr).unwrap();
    let (status, body) = client.request("GET", "/healthz", None).unwrap();
    assert_eq!(status, 200);
    let health: serde_json::Value =
        serde_json::from_str(std::str::from_utf8(&body).unwrap()).unwrap();
    assert_eq!(health["status"], "ok", "{health}");
    assert!(health["breakers"].as_array().unwrap().iter().all(|b| b["open"] == false));
    assert_eq!(server.gateway().shard().service().counts().rejected, 0);
    server.shutdown();
}

#[test]
fn a_full_device_refuses_with_503_and_books_no_route_failure() {
    // Each 2^20-element job holds 8 MiB of NVIDIA memory from submit until
    // it finishes, and the device has 256 MiB, so 40 concurrent distinct
    // jobs overrun it. A job that does not fit is refused with 503 +
    // `Retry-After`: device capacity is not a route fault, so no breaker
    // opens and no job is lost. Called in process, not over the wire, so
    // 40 requests are in flight at once without 40 server workers.
    let gateway = Arc::new(
        Gateway::new(GatewayConfig {
            tenant: TenantPolicy { burst: 1e12, per_second: 1e12 },
            ..GatewayConfig::default()
        })
        .expect("gateway up"),
    );
    let planned = gateway.submit(&scale_request(0.5, 8)).expect("small job is served").route;
    let clients = 40;
    let start_line = Arc::new(Barrier::new(clients));
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let (gateway, start_line) = (Arc::clone(&gateway), Arc::clone(&start_line));
            std::thread::spawn(move || {
                let a = (c + 1) as f32;
                let req = scale_request(a, 1 << 20);
                start_line.wait();
                match gateway.submit(&req) {
                    Ok(resp) => {
                        let want: Vec<u8> =
                            req.x.iter().flat_map(|v| (a * v).to_le_bytes()).collect();
                        let right = resp.checksum == format!("{:016x}", fnv1a(&want));
                        (200, right)
                    }
                    Err(e) => (e.status, e.retry_after.is_some()),
                }
            })
        })
        .collect();
    let answers: Vec<(u16, bool)> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    for &(status, ok) in &answers {
        assert!(
            (status == 200 || status == 503) && ok,
            "every answer is a 200 with the right checksum or a 503 with Retry-After: \
             {answers:?}"
        );
    }
    let refused = answers.iter().filter(|&&(s, _)| s == 503).count();
    assert!(refused > 0, "40 jobs of 8 MiB must overrun a 256 MiB device: {answers:?}");
    assert_eq!(gateway.stats().queue_full, refused as u64);

    let health: serde_json::Value = serde_json::from_str(&gateway.healthz_json()).unwrap();
    assert_eq!(health["status"], "ok", "{health}");
    assert!(health["breakers"].as_array().unwrap().iter().all(|b| b["open"] == false));
    assert_eq!(gateway.shard().service().counts().rejected, 0);
    // The next job still takes the matrix's first choice.
    let after = gateway.submit(&scale_request(0.25, 8)).expect("served after the burst");
    assert_eq!(after.route, planned);
}

#[test]
fn disk_tier_keeps_the_gateway_warm_across_restarts() {
    let dir = std::env::temp_dir().join(format!("mcmm-gateway-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = || GatewayConfig { artifact_dir: Some(dir.clone()), ..GatewayConfig::default() };
    // Cold process: compiles, persists.
    let server = start(cfg());
    let mut client = HttpClient::connect(server.addr()).unwrap();
    let (status, _) = post_submit(&mut client, &scale_request(2.0, 16));
    assert_eq!(status, 200);
    let cold = server.gateway().stats();
    assert!(cold.disk_fills > 0, "cold run must persist artifacts: {cold:?}");
    server.shutdown();
    // Warm process: same directory, no compiles for the same work.
    let server = start(cfg());
    let mut client = HttpClient::connect(server.addr()).unwrap();
    let (status, _) = post_submit(&mut client, &scale_request(2.0, 16));
    assert_eq!(status, 200);
    let warm = server.gateway().stats();
    assert!(warm.disk_hits > 0, "warm restart must serve from disk: {warm:?}");
    assert_eq!(warm.disk_fills, 0, "warm restart must not recompile: {warm:?}");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
