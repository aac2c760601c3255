//! `serve_live`: the shipped `agentgrid serve` binary under an open-loop
//! load on a real socket.
//!
//! The server runs the paper's grid (GA, agents on) at 250 sim-seconds
//! per wall-second; the generator sends 125 `POST /ingest` a second of
//! one line each — one request per two sim-seconds, half the paper's
//! rate — from one process with two sender threads, so at most two
//! connections are in flight. At the paper's own rate the case-study
//! grid is overloaded: its queues, and with them every GA `evolve`, grow
//! until the sim thread saturates (after ≈ 7 s at this speed) and falls
//! behind its schedule; an open loop has to run at a rate the system
//! sustains. Every post is timed from the instant it was *due*, which
//! charges a stall to the posts queued behind it. Everything is observed
//! from outside: answers on the socket, `--json` on stdout, status lines
//! on stderr, the `--wal` and `--record` files.

use crate::gate::Gate;
use crate::host;
use crate::run::{EndToEndRun, Layers, Samples};
use crate::spec;
use crate::stats::{beyond, fnv1a, median, percentile, sorted, tail_quantile};
use crate::trace::Tracer;
use agentgrid::prelude::{Catalog, ExecEnv, GridTopology, SimDuration, WorkloadConfig};
use agentgrid_serve::{read_recording, read_wal, ServeLine};
use agentgrid_telemetry::json::Value;
use agentgrid_workload::GeneratedRequest;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Sim-seconds per wall-second the server is paced at.
pub const SPEED: f64 = 250.0;
/// Posts due per second, and lines in each: 0.5 requests a sim-second.
pub const POSTS_PER_S: u64 = 125;
pub const LINES_PER_POST: usize = 1;
/// Most sender threads, hence connections in flight; see [`senders`].
const MAX_SENDERS: usize = 2;

/// Sender threads of the generator: two, but never above `nproc`.
pub fn senders() -> usize {
    MAX_SENDERS.min(host::nproc())
}
/// Line ids live in the deadline's digits below this many microseconds.
const ID_MOD: u64 = 100_000;
/// Consecutive windows a session's latencies are taken over.
const WINDOWS: usize = 3;
/// Throw-away sessions that only measure set-up (spawn → listening).
const SETUP_ONLY_SESSIONS: usize = 16;

/// Nanoseconds after the first post at which post `k` is due.
pub fn due_ns(k: usize) -> u64 {
    k as u64 * 1_000_000_000 / POSTS_PER_S
}

/// A live request line with `id` in the low digits of its relative
/// deadline. No `at`: the server stamps the line when it applies it.
pub fn line_text(r: &GeneratedRequest, id: u64) -> String {
    assert!(id < ID_MOD, "line id {id} does not fit the deadline digits");
    let rel_us = r.deadline.ticks().saturating_sub(r.at.ticks()) / ID_MOD * ID_MOD + id;
    format!(
        "{{\"app\": \"{}\", \"agent\": \"{}\", \"deadline\": {}.{:06}}}",
        r.application,
        r.agent,
        rel_us / 1_000_000,
        rel_us % 1_000_000
    )
}

/// The id a request accepted by the server carries.
pub fn line_id(r: &GeneratedRequest) -> u64 {
    r.deadline.ticks().saturating_sub(r.at.ticks()) % ID_MOD
}

/// The case-study request stream as live lines, one id each.
pub fn live_lines(seed: u64, n: usize) -> Vec<String> {
    let workload = WorkloadConfig {
        requests: n,
        interarrival: SimDuration::from_secs(1),
        seed,
        agents: GridTopology::case_study().names(),
        environment: ExecEnv::Test,
    };
    workload
        .generate(&Catalog::case_study())
        .iter()
        .enumerate()
        .map(|(i, r)| line_text(r, i as u64))
        .collect()
}

/// One `POST`, with every instant in ns since the schedule's origin.
#[derive(Clone, Copy, Debug, Default)]
pub struct Post {
    pub due_ns: u64,
    pub start_ns: u64,
    pub connected_ns: u64,
    pub written_ns: u64,
    pub done_ns: u64,
    /// The status code; `None` is a connection error.
    pub code: Option<u16>,
}

impl Post {
    /// Due-time → full answer read; `+∞` unless the answer was `202`.
    pub fn ack_ms(&self) -> f64 {
        if self.code == Some(202) {
            (self.done_ns - self.due_ns) as f64 / 1e6
        } else {
            f64::INFINITY
        }
    }

    /// How late the generator started the post.
    pub fn late_ms(&self) -> f64 {
        (self.start_ns - self.due_ns) as f64 / 1e6
    }
}

/// Send one request and read the whole answer (the server closes).
fn http(addr: SocketAddr, request: &[u8], post: &mut Post, origin: Instant) -> Option<u16> {
    let now = || origin.elapsed().as_nanos() as u64;
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5)).ok()?;
    post.connected_ns = now();
    stream.set_nodelay(true).ok()?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .ok()?;
    stream.write_all(request).ok()?;
    post.written_ns = now();
    let mut answer = Vec::with_capacity(256);
    stream.read_to_end(&mut answer).ok()?;
    let head = std::str::from_utf8(answer.get(..12)?).ok()?;
    head.strip_prefix("HTTP/1.1 ")?.trim().parse().ok()
}

/// A `POST path` with `body`, timed against `origin`.
pub fn post_to(addr: SocketAddr, path: &str, body: &str, origin: Instant, due_ns: u64) -> Post {
    let request = format!(
        "POST {path} HTTP/1.1\r\nHost: ledger\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let start_ns = origin.elapsed().as_nanos() as u64;
    let mut post = Post {
        due_ns,
        start_ns,
        connected_ns: start_ns,
        written_ns: start_ns,
        ..Post::default()
    };
    post.code = http(addr, request.as_bytes(), &mut post, origin);
    post.done_ns = origin.elapsed().as_nanos() as u64;
    post.connected_ns = post.connected_ns.min(post.done_ns);
    post.written_ns = post.written_ns.clamp(post.connected_ns, post.done_ns);
    post
}

/// The open loop: `bodies[k]` is due `due_ns(k)` after `origin`; each
/// sender takes the next unsent post, sleeps until it is due and sends
/// it — late, and recorded as late, when both senders were busy.
pub fn send_on_schedule(
    bodies: &[String],
    origin: Instant,
    send: impl Fn(usize, &str, u64) -> Post + Sync,
) -> Vec<Post> {
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, Post)>> = Mutex::new(Vec::with_capacity(bodies.len()));
    std::thread::scope(|scope| {
        for _ in 0..senders() {
            scope.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                let Some(body) = bodies.get(k) else { return };
                let due = due_ns(k);
                let now = origin.elapsed().as_nanos() as u64;
                if due > now {
                    std::thread::sleep(Duration::from_nanos(due - now));
                }
                let post = send(k, body, due);
                done.lock().expect("no sender panics").push((k, post));
            });
        }
    });
    let mut posts = done.into_inner().expect("no sender panics");
    posts.sort_by_key(|(k, _)| *k);
    posts.into_iter().map(|(_, p)| p).collect()
}

/// Lag of each line from its due instant to the instant the sim thread
/// applied it, in ms, relative to the best-served line of the run.
///
/// `due_us[i]` is on the generator's clock; `at_us[i]` is the sim time
/// the server stamped on line `i` (`None`: never applied), and the
/// server's wall clock is `at_us / speed` past an unknown origin. The
/// offset between the two clocks is removed by subtracting the run's
/// minimum difference, as in one-way-delay estimation.
pub fn accept_lags_ms(due_us: &[f64], at_us: &[Option<u64>], speed: f64) -> Vec<f64> {
    let raw: Vec<Option<f64>> = due_us
        .iter()
        .zip(at_us)
        .map(|(due, at)| at.map(|at| at as f64 / speed - due))
        .collect();
    let offset = raw.iter().flatten().copied().fold(f64::INFINITY, f64::min);
    raw.iter()
        .map(|r| r.map_or(f64::INFINITY, |r| (r - offset) / 1e3))
        .collect()
}

/// Build the shipped binary (untimed) and return its path.
pub fn build_server() -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "agentgrid",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err("cargo build --bin agentgrid failed at the repository root".to_string());
    }
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    let path = PathBuf::from(target).join("release/agentgrid");
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!("{} was not built", path.display()))
    }
}

/// The last `serve: t=…` status line, with the instant it was read.
type LastStatus = Arc<Mutex<Option<(Instant, f64)>>>;

/// A running `agentgrid serve`. Dropping it kills the process.
struct Server {
    child: Child,
    addr: SocketAddr,
    /// Spawn → `listening on` parsed ([`set_up`] widens it to the whole
    /// set-up).
    setup_s: f64,
    listening_at: Instant,
    last_status: LastStatus,
    stderr: Option<std::thread::JoinHandle<String>>,
    stdout: Option<std::thread::JoinHandle<String>>,
}

/// What a finished server leaves behind.
struct Exit {
    success: bool,
    stdout: String,
    stderr: String,
    drain_ms: f64,
    at: Instant,
}

impl Server {
    fn spawn(binary: &PathBuf, out_dir: &str, verify: bool) -> Result<Server, String> {
        let wal = format!("{out_dir}/serve_live.wal");
        let record = format!("{out_dir}/serve_live.record");
        for f in [&wal, &record] {
            match std::fs::remove_file(f) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                    return Err(format!("cannot reset {f}: {e}"))
                }
                _ => {}
            }
        }
        let mut command = Command::new(binary);
        command.args(["serve", "--listen", "127.0.0.1:0", "--speed"]);
        command.arg(SPEED.to_string());
        command.args(["--policy", "ga", "--agents", "--json"]);
        command.args(["--wal", &wal, "--wal-sync", "batch", "--record", &record]);
        command.args(["--shards", &spec::SHARDS.to_string()]);
        command.args(["--ga-threads", &spec::GA_THREADS.to_string()]);
        command.args(["--ga-islands", &spec::GA_ISLANDS.to_string()]);
        if verify {
            command.arg("--verify");
        }
        for var in spec::SCRUBBED_ENV {
            command.env_remove(var);
        }
        command
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        let spawned = Instant::now();
        let mut child = command
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;

        let mut out = child.stdout.take().expect("stdout is piped");
        let stdout = std::thread::spawn(move || {
            let mut text = String::new();
            let _ = out.read_to_string(&mut text);
            text
        });
        let err = child.stderr.take().expect("stderr is piped");
        let last_status: LastStatus = Arc::default();
        let (tx, rx) = mpsc::channel();
        let status = last_status.clone();
        let stderr = std::thread::spawn(move || {
            let mut all = String::new();
            for line in BufReader::new(err).lines().map_while(Result::ok) {
                if let Some(addr) = line.strip_prefix("serve: listening on ") {
                    let _ = tx.send((Instant::now(), addr.trim().to_string()));
                } else if let Some(t) = status_sim_time(&line) {
                    *status.lock().expect("status lock") = Some((Instant::now(), t));
                }
                all.push_str(&line);
                all.push('\n');
            }
            all
        });
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            setup_s: 0.0,
            listening_at: spawned,
            last_status,
            stderr: Some(stderr),
            stdout: Some(stdout),
        };
        let (at, addr) = rx
            .recv_timeout(Duration::from_secs(30))
            .map_err(|_| "the server never printed `listening on`".to_string())?;
        server.addr = addr
            .parse()
            .map_err(|e| format!("bad listen address {addr:?}: {e}"))?;
        server.listening_at = at;
        server.setup_s = (at - spawned).as_secs_f64();
        Ok(server)
    }

    /// `POST /shutdown`, then wait for the drain and the exit.
    fn shutdown(mut self) -> Result<Exit, String> {
        let asked = Instant::now();
        let answer = post_to(self.addr, "/shutdown", "", asked, 0);
        if answer.code != Some(202) {
            return Err(format!("POST /shutdown answered {:?}", answer.code));
        }
        let status = self
            .child
            .wait()
            .map_err(|e| format!("waiting for the server: {e}"))?;
        let at = Instant::now();
        let join = |h: Option<std::thread::JoinHandle<String>>| {
            h.and_then(|h| h.join().ok()).unwrap_or_default()
        };
        Ok(Exit {
            success: status.success(),
            stdout: join(self.stdout.take()),
            stderr: join(self.stderr.take()),
            drain_ms: (at - asked).as_secs_f64() * 1e3,
            at,
        })
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // A no-op after `shutdown`; otherwise the run failed half-way
        // and the process must not outlive it.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The sim time of a `serve: t=12.3s  …` status line.
fn status_sim_time(line: &str) -> Option<f64> {
    let rest = line.strip_prefix("serve: t=")?;
    rest.split('s').next()?.parse().ok()
}

/// Everything one live session yields.
struct Session {
    posts: Vec<Post>,
    accept_ms: Vec<f64>,
    setup_s: f64,
    wall_s: f64,
    server_rss_mb: f64,
    drain_ms: f64,
    result_json: String,
}

/// Everything before the first post is due: render the request lines,
/// group them into post bodies, start a server and wait until it
/// listens. `setup_s` of the returned server covers all of it.
fn set_up(
    binary: &PathBuf,
    seed: u64,
    seconds: f64,
    verify: bool,
    out_dir: &str,
) -> Result<(Vec<String>, Vec<String>, Server), String> {
    let started = Instant::now();
    let n_posts = ((seconds * POSTS_PER_S as f64).round() as usize).max(1);
    let lines = live_lines(seed, n_posts * LINES_PER_POST);
    let bodies: Vec<String> = lines
        .chunks(LINES_PER_POST)
        .map(|c| c.join("\n") + "\n")
        .collect();
    let mut server = Server::spawn(binary, out_dir, verify)?;
    server.setup_s = (server.listening_at - started).as_secs_f64();
    Ok((lines, bodies, server))
}

impl Session {
    fn ack_ms(&self) -> Vec<f64> {
        self.posts.iter().map(Post::ack_ms).collect()
    }
}

/// The phases of a post, as span names: due → started → connected →
/// request written → answer read.
const POST_PHASES: [&str; 4] = ["gen.wait", "http.connect", "http.write", "http.read"];

/// One open-loop session of `seconds` against a fresh server.
fn session(
    binary: &PathBuf,
    seed: u64,
    seconds: f64,
    verify: bool,
    out_dir: &str,
    gate: &mut Gate,
) -> Result<Session, String> {
    let (lines, bodies, server) = set_up(binary, seed, seconds, verify, out_dir)?;
    let (addr, setup_s, listening_at) = (server.addr, server.setup_s, server.listening_at);
    let pid = server.child.id().to_string();
    let origin = Instant::now();
    let posts = send_on_schedule(&bodies, origin, |_, body, due| {
        post_to(addr, "/ingest", body, origin, due)
    });
    let server_rss_mb = host::peak_rss_mb(&pid).unwrap_or(0.0);
    let last_status = *server.last_status.lock().expect("status lock");
    let exit = server.shutdown()?;
    let wall_s = (exit.at - origin).as_secs_f64();

    let codes: Vec<Option<u16>> = posts.iter().map(|p| p.code).collect();
    gate.answers("ingest", &codes, LINES_PER_POST as u64);
    gate.require(exit.success, || {
        format!(
            "the server exited with a failure; stderr ends:\n{}",
            tail(&exit.stderr, 12)
        )
    });
    // A server that fell behind its schedule served every line late by
    // an amount the min-offset estimator cannot see.
    if let Some((read_at, sim_t)) = last_status {
        let behind_s = ((read_at - listening_at).as_secs_f64() * SPEED - sim_t) / SPEED;
        println!("serve_live sim clock {behind_s:.3} wall-seconds behind schedule at t={sim_t}");
        if behind_s > 1.0 {
            gate.fail_all(format!(
                "sim clock {behind_s:.2} wall-seconds behind schedule at t={sim_t}"
            ));
        }
    }

    let want = lines.len() as u64;
    let tasks = Value::parse(&exit.stdout)
        .ok()
        .and_then(|v| v.get("total")?.get("tasks")?.as_u64());
    gate.require(tasks == Some(want), || {
        format!("--json reports {tasks:?} tasks, {want} lines were sent")
    });
    let wal_seq = read_wal(&format!("{out_dir}/serve_live.wal"))
        .map(|w| w.last_seq())
        .map_err(|e| format!("reading the WAL: {e}"))?;
    gate.require(wal_seq == want, || {
        format!("final WAL seq {wal_seq}, {want} lines were sent")
    });

    let recording = std::fs::read_to_string(format!("{out_dir}/serve_live.record"))
        .map_err(|e| format!("reading the recording: {e}"))?;
    let (_, accepted) = read_recording(&recording)?;
    let mut at_us: Vec<Option<u64>> = vec![None; lines.len()];
    for line in &accepted {
        if let ServeLine::Request(r) = line {
            if let Some(slot) = at_us.get_mut(line_id(r) as usize) {
                *slot = Some(r.at.ticks());
            }
        }
    }
    let due_us: Vec<f64> = (0..lines.len())
        .map(|i| due_ns(i / LINES_PER_POST) as f64 / 1e3)
        .collect();
    Ok(Session {
        accept_ms: accept_lags_ms(&due_us, &at_us, SPEED),
        posts,
        setup_s,
        wall_s,
        server_rss_mb,
        drain_ms: exit.drain_ms,
        result_json: exit.stdout,
    })
}

fn tail(text: &str, lines: usize) -> String {
    let all: Vec<&str> = text.lines().collect();
    all[all.len().saturating_sub(lines)..].join("\n")
}

pub fn run(seed: u64, seconds: f64, out_dir: &str, gate: &mut Gate) -> Result<EndToEndRun, String> {
    let binary = build_server()?;
    let mut setups = Vec::new();
    for _ in 0..SETUP_ONLY_SESSIONS {
        let (_, _, server) = set_up(&binary, seed, seconds, false, out_dir)?;
        setups.push(server.setup_s);
        server.shutdown()?;
    }
    let s = session(&binary, seed, seconds, false, out_dir, gate)?;
    setups.push(s.setup_s);

    // The session is measured as consecutive windows and each latency
    // metric is the median of its per-window values: a host stall of
    // 150 ms delays over 1% of a session's posts and would own its p99.
    let (ack, accept) = (s.ack_ms(), &s.accept_ms);
    let mut samples = Samples::from([
        ("setup_s", setups),
        ("wall_s", vec![s.wall_s]),
        ("requests_per_s", vec![accept.len() as f64 / s.wall_s]),
        ("peak_rss_mb", vec![s.server_rss_mb]),
    ]);
    for (p50, p99, all, per_post, limit) in [
        ("ack_p50_ms", "ack_p99_ms", &ack, 1, spec::ACK_P99_LIMIT_MS),
        (
            "accept_p50_ms",
            "accept_p99_ms",
            accept,
            LINES_PER_POST,
            spec::ACCEPT_P99_LIMIT_MS,
        ),
    ] {
        for window in all
            .chunks((all.len() / WINDOWS).max(per_post))
            .take(WINDOWS)
        {
            let window = sorted(window.to_vec());
            samples
                .entry(p50)
                .or_default()
                .push(percentile(&window, 0.5));
            samples
                .entry(p99)
                .or_default()
                .push(percentile(&window, 0.99));
        }
        let whole = percentile(&sorted(all.clone()), 0.99);
        println!(
            "serve_live {p99}: {} samples, {} beyond p99 over the session (highest percentile \
             with 10 beyond: {}); {whole:.3} ms over the session, limit {limit} ms {}",
            all.len(),
            beyond(all.len(), 0.99),
            tail_quantile(all.len()).map_or("none".to_string(), |q| format!("p{}", q * 100.0)),
            if whole <= limit { "met" } else { "MISSED" },
        );
    }
    Ok(EndToEndRun {
        samples,
        fingerprint: fnv1a(s.result_json.as_bytes()),
        reps: 1,
    })
}

/// The traced run: a short untraced session for the base, then a full
/// session with the server's invariant checker on (`--verify`) and a
/// span per post.
pub fn run_traced(
    seed: u64,
    seconds: f64,
    out_dir: &str,
    gate: &mut Gate,
    tracer: &mut Tracer,
) -> Result<Layers, String> {
    let binary = build_server()?;
    let base = session(
        &binary,
        seed,
        (seconds / 4.0).min(3.0),
        false,
        out_dir,
        gate,
    )?;
    let base_ack = median(&base.ack_ms());
    let s = session(&binary, seed, seconds, true, out_dir, gate)?;

    let root = tracer.open_at("session", None, 0);
    let names = POST_PHASES.map(|n| tracer.name(n));
    let mut end_ns = 0;
    for (k, p) in s.posts.iter().enumerate() {
        let post = tracer.open_at("post", Some(root), p.due_ns);
        let edges = [
            p.due_ns,
            p.start_ns,
            p.connected_ns,
            p.written_ns,
            p.done_ns,
        ];
        for (name, pair) in names.iter().zip(edges.windows(2)) {
            tracer.leaf(*name, pair[0], pair[1], post, Some(k as u64));
        }
        tracer.close_at(post, p.done_ns);
        end_ns = end_ns.max(p.done_ns);
    }
    tracer.close_at(root, end_ns);

    let covered: u64 = POST_PHASES.iter().map(|n| tracer.total(n).ns).sum();
    let mut layers = Layers::new();
    layers.insert(
        "trace.coverage",
        covered as f64 / tracer.total("post").ns.max(1) as f64,
    );
    layers.insert("trace.overhead", median(&s.ack_ms()) / base_ack);
    let refused = s.posts.iter().filter(|p| p.code == Some(429)).count();
    layers.insert("serve.live_429", refused as f64);
    layers.insert("serve.live_drain_ms", s.drain_ms);
    let late = sorted(s.posts.iter().map(Post::late_ms).collect());
    layers.insert("serve.gen_late_p99_ms", percentile(&late, 0.99));
    layers.insert("core.requests", s.accept_ms.len() as f64);
    Ok(layers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use agentgrid_serve::{canonical_line, parse_line, stamp};
    use agentgrid_sim::SimTime;

    #[test]
    fn line_ids_survive_the_server_and_the_record_file() {
        let lines = live_lines(7, 64);
        let mut recording = String::new();
        for (i, text) in lines.iter().enumerate() {
            // What the paced loop does with a raw line: parse at the
            // arrival instant (never before the sim clock), stamp with
            // the sim clock, log canonically.
            let sim_now = SimTime::from_ticks(1_000_003 * i as u64 + 17);
            let arrival = sim_now + SimDuration::from_ticks(3);
            let parsed = parse_line(text, arrival)
                .expect("parses")
                .expect("a request");
            let stamped = stamp(&parsed, sim_now);
            recording.push_str(&canonical_line(&stamped));
            recording.push('\n');
        }
        let (_, accepted) = read_recording(&recording).expect("recording parses");
        let ids: Vec<u64> = accepted
            .iter()
            .map(|l| match l {
                ServeLine::Request(r) => line_id(r),
                ServeLine::Scale { .. } => unreachable!("only requests were sent"),
            })
            .collect();
        assert_eq!(ids, (0..64).collect::<Vec<u64>>());
    }

    #[test]
    fn the_largest_id_still_round_trips() {
        let r =
            &WorkloadConfig::case_study(vec!["S1".into()], 1).generate(&Catalog::case_study())[0];
        let text = line_text(r, ID_MOD - 1);
        let parsed = parse_line(&text, SimTime::from_secs(3)).unwrap().unwrap();
        let ServeLine::Request(parsed) = parsed else {
            panic!("a request line")
        };
        assert_eq!(line_id(&parsed), ID_MOD - 1);
    }

    #[test]
    fn latency_runs_from_the_due_instant_and_lateness_is_recorded() {
        // A fake sender that takes 20 ms per post: with two senders and a
        // post due every 8 ms, the generator falls behind, and the wait
        // must show up in the latency, not vanish from it.
        let bodies: Vec<String> = (0..12).map(|k| k.to_string()).collect();
        let origin = Instant::now();
        let posts = send_on_schedule(&bodies, origin, |_, _, due| {
            let start_ns = origin.elapsed().as_nanos() as u64;
            std::thread::sleep(Duration::from_millis(20));
            Post {
                due_ns: due,
                start_ns,
                done_ns: origin.elapsed().as_nanos() as u64,
                code: Some(202),
                ..Post::default()
            }
        });
        assert_eq!(posts.len(), 12);
        for (k, p) in posts.iter().enumerate() {
            assert_eq!(p.due_ns, due_ns(k));
            assert!(p.start_ns >= p.due_ns, "never sent before it is due");
            assert!(
                p.ack_ms() - p.late_ms() >= 20.0,
                "latency = lateness + service"
            );
        }
        // 12 posts x 20 ms over 2 senders is 120 ms of work against an
        // 88 ms schedule: the last post starts at least 12 ms late.
        assert!(
            posts[11].late_ms() >= 12.0,
            "late by {}",
            posts[11].late_ms()
        );
        assert_eq!(due_ns(125), 1_000_000_000);
    }

    #[test]
    fn a_refused_or_broken_post_has_infinite_latency() {
        let p = Post {
            due_ns: 0,
            done_ns: 5_000_000,
            code: Some(429),
            ..Post::default()
        };
        assert_eq!(p.ack_ms(), f64::INFINITY);
        assert_eq!(Post { code: None, ..p }.ack_ms(), f64::INFINITY);
        assert_eq!(
            Post {
                code: Some(202),
                ..p
            }
            .ack_ms(),
            5.0
        );
    }

    #[test]
    fn the_clock_offset_cancels_in_the_accept_lag() {
        // The server's clock started 123 456 µs after the generator's;
        // line i was applied `lag[i]` µs after it was due.
        let speed = 250.0;
        let lag_us = [900.0, 400.0, 12_000.0, 400.0, 2_500.0];
        let due_us: Vec<f64> = (0..5).map(|i| 8_000.0 * i as f64).collect();
        let mut at_us: Vec<Option<u64>> = due_us
            .iter()
            .zip(lag_us)
            .map(|(due, lag)| Some(((due + lag - 123_456.0 + 1e6) * speed) as u64))
            .collect();
        let lags = accept_lags_ms(&due_us, &at_us, speed);
        let want = [0.5, 0.0, 11.6, 0.0, 2.1];
        for (got, want) in lags.iter().zip(want) {
            assert!((got - want).abs() < 1e-3, "{got} vs {want}");
        }
        // A line that never reached the sim thread is a failure.
        at_us[2] = None;
        let lags = accept_lags_ms(&due_us, &at_us, speed);
        assert_eq!(lags[2], f64::INFINITY);
        assert!((lags[4] - 2.1).abs() < 1e-3);
    }

    #[test]
    fn status_lines_parse() {
        let line = "serve: t=2998.1s  ε=+12.0s  ῡ=61.2%  β=80.1%  completed=2800";
        assert_eq!(status_sim_time(line), Some(2998.1));
        assert_eq!(status_sim_time("serve: listening on 127.0.0.1:4000"), None);
    }
}
