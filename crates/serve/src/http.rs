//! A dependency-free HTTP/1.1 listener for the served grid.
//!
//! Endpoints, all tiny and std-only:
//!
//! * `GET /metrics` — the Prometheus text exposition (exporter format
//!   0.0.4) with the live ε/ῡ/β and durability gauges appended.
//! * `GET /status`  — the [`LiveStatus`](crate::service::LiveStatus)
//!   JSON one-liner.
//! * `POST /ingest` — raw JSONL request/scale lines. The batch is
//!   validated *whole* before anything is admitted: the first malformed
//!   line fails the entire batch with a structured 400 naming its line
//!   number, so a client never has to guess which half of a body was
//!   applied. Valid batches enter the bounded
//!   [`AdmissionQueue`](crate::admission::AdmissionQueue); overflow is
//!   `429 Too Many Requests` with a `Retry-After` hint, and a draining
//!   service answers 503.
//! * `POST /shutdown` — request a graceful drain: the sim loop applies
//!   everything already admitted, flushes the WAL and exits.
//!
//! The listener thread never touches the simulation: the event loop
//! *publishes* rendered snapshots into [`ServeShared`] and the listener
//! serves the latest one. Nothing here polls. The listener blocks in
//! `accept`; a `GET` marks the shared state refresh-wanted, wakes the
//! sim loop through the admission queue and waits on the publish
//! generation, so it answers as soon as the loop has re-rendered (or,
//! after [`REFRESH_CAP`], with the last snapshot — the loop may be
//! inside a long GA event). Ingested lines travel through the admission
//! queue, whose push wakes the loop, keeping all grid mutation on the
//! sim thread. Every response closes its connection: clients read the
//! answer to EOF, and a one-shot loop needs no per-connection state.

use crate::admission::{AdmissionQueue, AdmitError};
use crate::lock_tolerant;
use crate::stream::parse_line;
use agentgrid_sim::SimTime;
use std::io::{Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::time::Duration;

/// Longest a `GET` waits for the sim loop to publish a fresh snapshot
/// before it serves the last one.
const REFRESH_CAP: Duration = Duration::from_millis(60);

/// The snapshots the sim loop last rendered.
#[derive(Default)]
struct Published {
    metrics: String,
    status: String,
    /// Bumped by every [`ServeShared::publish`]; a `GET` waits for it to
    /// move past the value it saw when it asked.
    generation: u64,
}

/// State shared between the sim loop (writer) and the listener (reader).
pub struct ServeShared {
    published: Mutex<Published>,
    republished: Condvar,
    refresh: AtomicBool,
    stop: AtomicBool,
    shutdown_req: AtomicBool,
    admission: Arc<AdmissionQueue>,
    /// Where [`spawn_listener`] bound, for `shutdown`'s wake-up connect.
    bound: OnceLock<SocketAddr>,
}

impl ServeShared {
    /// Shared state whose `/ingest` batches land in `admission`.
    pub fn new(admission: Arc<AdmissionQueue>) -> Arc<ServeShared> {
        Arc::new(ServeShared {
            published: Mutex::new(Published::default()),
            republished: Condvar::new(),
            refresh: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            shutdown_req: AtomicBool::new(false),
            admission,
            bound: OnceLock::new(),
        })
    }

    /// Publish fresh snapshots (called by the sim loop).
    pub fn publish(&self, metrics: String, status: String) {
        let mut published = lock_tolerant(&self.published);
        published.metrics = metrics;
        published.status = status;
        published.generation += 1;
        self.refresh.store(false, Ordering::Release);
        drop(published);
        self.republished.notify_all();
    }

    /// True when a reader asked for fresher data than the last publish.
    pub fn wants_refresh(&self) -> bool {
        self.refresh.load(Ordering::Acquire)
    }

    /// Ask the sim loop for a fresh render, wait for it to land (at most
    /// [`REFRESH_CAP`]) and return `pick`'s half of whatever is newest.
    fn refreshed(&self, pick: fn(&Published) -> &String) -> String {
        let seen = lock_tolerant(&self.published).generation;
        self.refresh.store(true, Ordering::Release);
        self.admission.wake();
        let (published, _) = self
            .republished
            .wait_timeout_while(lock_tolerant(&self.published), REFRESH_CAP, |p| {
                p.generation == seen
            })
            .unwrap_or_else(PoisonError::into_inner);
        pick(&published).clone()
    }

    /// True once `POST /shutdown` asked for a graceful drain.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown_req.load(Ordering::Acquire)
    }

    /// Tell the listener thread to wind down. The thread is blocked in
    /// `accept`, so the first call also hands it one throw-away
    /// connection to return from; it needs no sim loop to be running.
    pub fn shutdown(&self) {
        if self.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        if let Some(bound) = self.bound.get() {
            // A wildcard bind is reached over loopback. A failed connect
            // means the backlog is full, and then `accept` returns anyway.
            let ip = match bound.ip() {
                IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
                IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
                ip => ip,
            };
            let _ = TcpStream::connect_timeout(
                &SocketAddr::new(ip, bound.port()),
                Duration::from_secs(1),
            );
        }
    }

    fn stopping(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }
}

/// Bind `addr` (e.g. `127.0.0.1:9090`; port 0 picks one) and serve it on
/// a background thread until [`ServeShared::shutdown`]. Returns the
/// actual bound address.
pub fn spawn_listener(
    addr: &str,
    shared: Arc<ServeShared>,
) -> Result<(SocketAddr, std::thread::JoinHandle<()>), String> {
    let listener = TcpListener::bind(addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("no local addr: {e}"))?;
    shared
        .bound
        .set(local)
        .map_err(|_| "this ServeShared already has a listener".to_string())?;
    let handle = std::thread::spawn(move || loop {
        let accepted = listener.accept();
        if shared.stopping() {
            return; // `accepted` is shutdown's wake-up connect, or moot
        }
        match accepted {
            Ok((stream, _)) => handle_connection(stream, &shared),
            Err(e) => {
                eprintln!("serve: accept error: {e}");
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    });
    Ok((local, handle))
}

/// Read one request (head + `Content-Length` body, 1 MiB cap), answer
/// it, close. Every response carries `Connection: close` — the exporter
/// and curl both cope, and it keeps the server a one-shot loop.
fn handle_connection(mut stream: TcpStream, shared: &ServeShared) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if let Some(pos) = find_head_end(&buf) {
                    break pos;
                }
                if buf.len() > 64 * 1024 {
                    respond(&mut stream, 431, "text/plain", "header too large\n");
                    return;
                }
            }
            Err(_) => return,
        }
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let mut lines = head.lines();
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let (method, path) = match (parts.next(), parts.next()) {
        (Some(m), Some(p)) => (m.to_string(), p.to_string()),
        _ => {
            respond(&mut stream, 400, "text/plain", "bad request\n");
            return;
        }
    };
    let content_length = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse::<usize>().ok())
        .unwrap_or(0);
    if content_length > 1024 * 1024 {
        respond(&mut stream, 413, "text/plain", "body too large\n");
        return;
    }
    let mut body = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => body.extend_from_slice(&chunk[..n]),
            Err(_) => break,
        }
    }

    match (method.as_str(), path.as_str()) {
        ("GET", "/metrics") => respond(
            &mut stream,
            200,
            "text/plain; version=0.0.4; charset=utf-8",
            &shared.refreshed(|p| &p.metrics),
        ),
        ("GET", "/status") => respond(
            &mut stream,
            200,
            "application/json",
            &shared.refreshed(|p| &p.status),
        ),
        ("POST", "/ingest") => handle_ingest(&mut stream, shared, &body),
        ("POST", "/shutdown") => {
            shared.shutdown_req.store(true, Ordering::Release);
            shared.admission.wake();
            respond(
                &mut stream,
                202,
                "application/json",
                "{\"draining\": true}\n",
            );
        }
        ("GET", _) => respond(&mut stream, 404, "text/plain", "try /metrics or /status\n"),
        _ => respond(&mut stream, 405, "text/plain", "method not allowed\n"),
    }
}

/// Validate the whole batch, then admit it whole — or reject it whole.
fn handle_ingest(stream: &mut TcpStream, shared: &ServeShared, body: &[u8]) {
    let client = stream
        .peer_addr()
        .map(|a| a.ip().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    let text = String::from_utf8_lossy(body);
    let mut batch = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        // Syntax-check only; the sim loop re-parses with its own clock
        // when the line is applied. The explicit default_at keeps this
        // purely a shape test.
        if let Err(e) = parse_line(line, SimTime::ZERO) {
            let err = json_escape(&e);
            respond(
                stream,
                400,
                "application/json",
                &format!("{{\"error\": \"{err}\", \"line\": {}}}\n", i + 1),
            );
            return; // nothing from the batch was admitted
        }
        batch.push(line.to_string());
    }
    let accepted = batch.len();
    match shared.admission.push_batch(&client, batch) {
        Ok(()) => respond(
            stream,
            202,
            "application/json",
            &format!("{{\"accepted\": {accepted}}}\n"),
        ),
        Err(AdmitError::Full { queue_depth }) => respond_with(
            stream,
            429,
            "application/json",
            &[("Retry-After", "1")],
            &format!("{{\"error\": \"queue full\", \"queue_depth\": {queue_depth}}}\n"),
        ),
        Err(AdmitError::Closed) => respond(stream, 503, "text/plain", "service draining\n"),
    }
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            '\n' => "\\n".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn respond(stream: &mut TcpStream, code: u16, content_type: &str, body: &str) {
    respond_with(stream, code, content_type, &[], body);
}

fn respond_with(
    stream: &mut TcpStream,
    code: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &str,
) {
    let reason = match code {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Error",
    };
    let mut head = format!(
        "HTTP/1.1 {code} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    for (k, v) in extra_headers {
        head.push_str(&format!("{k}: {v}\r\n"));
    }
    head.push_str("\r\n");
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::time::Instant;

    fn get(addr: SocketAddr, path: &str) -> (u16, String, Vec<String>) {
        request(addr, &format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n"))
    }

    fn post(addr: SocketAddr, path: &str, payload: &str) -> (u16, String, Vec<String>) {
        request(
            addr,
            &format!(
                "POST {path} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{payload}",
                payload.len()
            ),
        )
    }

    fn request(addr: SocketAddr, raw: &str) -> (u16, String, Vec<String>) {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(raw.as_bytes()).expect("write");
        let mut reader = BufReader::new(s);
        let mut status_line = String::new();
        reader.read_line(&mut status_line).expect("status line");
        let code: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|c| c.parse().ok())
            .expect("status code");
        let mut headers = Vec::new();
        let mut line = String::new();
        let mut len = 0usize;
        loop {
            line.clear();
            reader.read_line(&mut line).expect("header");
            if line.trim().is_empty() {
                break;
            }
            if let Some((k, v)) = line.split_once(':') {
                if k.eq_ignore_ascii_case("content-length") {
                    len = v.trim().parse().unwrap_or(0);
                }
            }
            headers.push(line.trim().to_string());
        }
        let mut body = vec![0u8; len];
        reader.read_exact(&mut body).expect("body");
        (code, String::from_utf8_lossy(&body).into_owned(), headers)
    }

    #[test]
    fn listener_serves_metrics_status_and_ingest() {
        let admission = Arc::new(AdmissionQueue::new(16));
        let shared = ServeShared::new(admission.clone());
        shared.publish(
            "# HELP x y\nx 1\n".to_string(),
            "{\"ok\": true}".to_string(),
        );
        let (addr, handle) = spawn_listener("127.0.0.1:0", shared.clone()).expect("bind");

        let (code, body, _) = get(addr, "/metrics");
        assert_eq!(code, 200);
        assert!(body.contains("x 1"), "{body}");

        let (code, body, _) = get(addr, "/status");
        assert_eq!(code, 200);
        assert!(body.contains("\"ok\""), "{body}");

        let payload = "{\"scale\": \"down\", \"resource\": \"S3\"}\n";
        let (code, body, _) = post(addr, "/ingest", payload);
        assert_eq!(code, 202);
        assert!(body.contains("\"accepted\": 1"), "{body}");
        assert_eq!(
            admission.pop().expect("ingested line").1.trim(),
            payload.trim()
        );

        let (code, _, _) = get(addr, "/nope");
        assert_eq!(code, 404);

        shared.shutdown();
        handle.join().expect("listener joins");
    }

    #[test]
    fn malformed_batch_is_rejected_whole_with_line_number() {
        let admission = Arc::new(AdmissionQueue::new(16));
        let shared = ServeShared::new(admission.clone());
        let (addr, handle) = spawn_listener("127.0.0.1:0", shared.clone()).expect("bind");

        // Line 1 is valid, line 2 is garbage: nothing may be admitted.
        let payload = "{\"scale\": \"down\", \"resource\": \"S3\"}\nnot json at all\n";
        let (code, body, _) = post(addr, "/ingest", payload);
        assert_eq!(code, 400, "{body}");
        assert!(body.contains("\"line\": 2"), "{body}");
        assert_eq!(admission.depth(), 0, "batch admission is atomic");

        shared.shutdown();
        handle.join().expect("listener joins");
    }

    #[test]
    fn overflow_answers_429_with_retry_after() {
        let admission = Arc::new(AdmissionQueue::new(1));
        let shared = ServeShared::new(admission.clone());
        let (addr, handle) = spawn_listener("127.0.0.1:0", shared.clone()).expect("bind");

        let line = "{\"scale\": \"down\", \"resource\": \"S3\"}\n";
        let (code, _, _) = post(addr, "/ingest", line);
        assert_eq!(code, 202);
        let two = format!("{line}{line}");
        let (code, body, headers) = post(addr, "/ingest", &two);
        assert_eq!(code, 429, "{body}");
        assert!(body.contains("queue_depth"), "{body}");
        assert!(
            headers.iter().any(|h| h.starts_with("Retry-After:")),
            "{headers:?}"
        );
        assert_eq!(admission.rejected_total(), 2);

        shared.shutdown();
        handle.join().expect("listener joins");
    }

    #[test]
    fn shutdown_endpoint_requests_a_drain() {
        let admission = Arc::new(AdmissionQueue::new(4));
        let shared = ServeShared::new(admission);
        let (addr, handle) = spawn_listener("127.0.0.1:0", shared.clone()).expect("bind");

        assert!(!shared.shutdown_requested());
        let (code, body, _) = post(addr, "/shutdown", "");
        assert_eq!(code, 202);
        assert!(body.contains("draining"), "{body}");
        assert!(shared.shutdown_requested());

        shared.shutdown();
        handle.join().expect("listener joins");
    }

    #[test]
    fn shutdown_wakes_an_idle_blocked_accept() {
        // No traffic, no sim loop: the listener sits in `accept` and
        // only `shutdown`'s own connect can bring it back.
        let shared = ServeShared::new(Arc::new(AdmissionQueue::new(4)));
        let (_, handle) = spawn_listener("127.0.0.1:0", shared.clone()).expect("bind");
        std::thread::sleep(Duration::from_millis(30)); // let it block
        let start = Instant::now();
        shared.shutdown();
        handle.join().expect("listener joins");
        let took = start.elapsed();
        assert!(took < Duration::from_millis(200), "{took:?}");
        shared.shutdown(); // a second call is a no-op, not a hang
    }

    #[test]
    fn idle_ingest_round_trips_do_not_wait_out_a_poll() {
        let admission = Arc::new(AdmissionQueue::new(64));
        let shared = ServeShared::new(admission);
        let (addr, handle) = spawn_listener("127.0.0.1:0", shared.clone()).expect("bind");
        let line = "{\"scale\": \"down\", \"resource\": \"S3\"}\n";
        let mut trips: Vec<Duration> = (0..20)
            .map(|_| {
                // Idle between posts, so each one finds the listener parked.
                std::thread::sleep(Duration::from_millis(2));
                let start = Instant::now();
                let (code, _, _) = post(addr, "/ingest", line);
                assert_eq!(code, 202);
                start.elapsed()
            })
            .collect();
        trips.sort();
        let median = trips[trips.len() / 2];
        assert!(median < Duration::from_millis(3), "median {median:?}");

        shared.shutdown();
        handle.join().expect("listener joins");
    }

    #[test]
    fn get_waits_for_the_publish_it_asked_for() {
        let admission = Arc::new(AdmissionQueue::new(4));
        let shared = ServeShared::new(admission.clone());
        shared.publish(String::new(), "stale".to_string());
        let (addr, handle) = spawn_listener("127.0.0.1:0", shared.clone()).expect("bind");

        // Nobody publishes: the stale snapshot, once the cap has passed.
        let start = Instant::now();
        let (code, body, _) = get(addr, "/status");
        assert_eq!((code, body.as_str()), (200, "stale"));
        assert!(start.elapsed() >= REFRESH_CAP, "{:?}", start.elapsed());
        assert!(shared.wants_refresh(), "the request stays on record");

        // A publisher that follows the sim loop's protocol — park on the
        // queue, render when a reader asked — is woken by the GET and
        // its snapshot is the one served, long before the cap.
        let done = Arc::new(AtomicBool::new(false));
        let publisher = {
            let (shared, done) = (shared.clone(), done.clone());
            std::thread::spawn(move || {
                shared.publish(String::new(), "older".to_string());
                while !done.load(Ordering::Acquire) {
                    admission.wait(Duration::from_secs(5));
                    if shared.wants_refresh() {
                        shared.publish(String::new(), "fresh".to_string());
                    }
                }
            })
        };
        while shared.wants_refresh() {
            std::thread::yield_now(); // until "older" is out
        }
        let start = Instant::now();
        let (code, body, _) = get(addr, "/status");
        let took = start.elapsed();
        assert_eq!((code, body.as_str()), (200, "fresh"));
        assert!(took < REFRESH_CAP / 2, "{took:?}");

        done.store(true, Ordering::Release);
        shared.admission.wake();
        publisher.join().expect("publisher joins");
        shared.shutdown();
        handle.join().expect("listener joins");
    }

    #[test]
    fn a_poisoned_snapshot_lock_does_not_take_the_listener_down() {
        let shared = ServeShared::new(Arc::new(AdmissionQueue::new(4)));
        shared.publish("x 1\n".to_string(), "{}".to_string());
        let s2 = shared.clone();
        let crashed = std::thread::spawn(move || {
            let _held = s2.published.lock().expect("first holder");
            panic!("sim thread dies mid-publish");
        })
        .join();
        assert!(crashed.is_err());
        assert!(shared.published.is_poisoned());

        let (addr, handle) = spawn_listener("127.0.0.1:0", shared.clone()).expect("bind");
        let (code, body, _) = get(addr, "/metrics");
        assert_eq!(code, 200);
        assert!(body.contains("x 1"), "{body}");
        shared.shutdown();
        handle.join().expect("listener joins");
    }
}
