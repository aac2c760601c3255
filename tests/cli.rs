//! Integration: the `agentgrid` CLI binary end to end.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn run(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_agentgrid"))
        .args(args)
        .output()
        .expect("CLI binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

/// Like [`run`] but with `stdin` piped in — serve mode reads its JSONL
/// stream from standard input.
fn run_with_stdin(args: &[&str], stdin: &str) -> (String, String, bool) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_agentgrid"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("CLI binary spawns");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(stdin.as_bytes())
        .expect("stdin written");
    let out = child.wait_with_output().expect("CLI binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn no_arguments_prints_usage_and_fails() {
    let (_, err, ok) = run(&[]);
    assert!(!ok);
    assert!(err.contains("USAGE"));
}

#[test]
fn unknown_command_fails() {
    let (_, err, ok) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(err.contains("unknown command"));
}

#[test]
fn models_lists_the_catalogue() {
    let (out, _, ok) = run(&["models"]);
    assert!(ok);
    for app in [
        "sweep3d", "fft", "improc", "closure", "jacobi", "memsort", "cpi",
    ] {
        assert!(out.contains(app), "missing {app} in:\n{out}");
    }
}

#[test]
fn topology_describes_the_case_study() {
    let (out, _, ok) = run(&["topology"]);
    assert!(ok);
    assert!(out.contains("12 resources, 192 nodes"));
    assert!(out.contains("HEAD"));
    assert!(out.contains("SGIOrigin2000"));
}

#[test]
fn topology_specs_parse_and_reject() {
    let (out, _, ok) = run(&["topology", "--topology", "tree:3:2:4"]);
    assert!(ok);
    assert!(out.contains("7 resources, 28 nodes"));

    let (_, err, ok) = run(&["topology", "--topology", "moebius:7"]);
    assert!(!ok);
    assert!(err.contains("bad topology spec"));
}

#[test]
fn run_executes_a_small_experiment() {
    let (out, _, ok) = run(&[
        "run",
        "--topology",
        "flat:2:4",
        "--requests",
        "8",
        "--seed",
        "3",
        "--agents",
    ]);
    assert!(ok, "run failed:\n{out}");
    assert!(out.contains("8 tasks over 2 resources"));
    assert!(out.contains("deadlines met"));
}

#[test]
fn run_emits_json_when_asked() {
    let (out, _, ok) = run(&["run", "--topology", "flat:1:2", "--requests", "4", "--json"]);
    assert!(ok);
    let parsed = agentgrid_telemetry::json::Value::parse(&out).expect("valid JSON");
    assert_eq!(parsed.get("requests").and_then(|v| v.as_u64()), Some(4));
}

#[test]
fn run_records_and_report_summarises_a_trace() {
    let dir = std::env::temp_dir().join(format!("agentgrid-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let jsonl = dir.join("trace.jsonl");
    let chrome = dir.join("trace.json");

    let (_, err, ok) = run(&[
        "run",
        "--topology",
        "flat:2:4",
        "--requests",
        "8",
        "--policy",
        "ga",
        "--agents",
        "--trace",
        jsonl.to_str().unwrap(),
    ]);
    assert!(ok, "traced run failed:\n{err}");
    assert!(err.contains("events"));

    // Every line of the JSONL trace is a JSON object with t/kind.
    let text = std::fs::read_to_string(&jsonl).expect("trace written");
    assert!(!text.is_empty());
    for line in text.lines() {
        let v = agentgrid_telemetry::json::Value::parse(line).expect("valid JSONL line");
        assert!(
            v.get("t").is_some() && v.get("type").is_some(),
            "bad line {line}"
        );
    }

    // Chrome format parses as a JSON array of trace_event entries.
    let (_, _, ok) = run(&[
        "run",
        "--topology",
        "flat:2:4",
        "--requests",
        "8",
        "--policy",
        "ga",
        "--agents",
        "--trace",
        chrome.to_str().unwrap(),
        "--trace-format",
        "chrome",
    ]);
    assert!(ok);
    let text = std::fs::read_to_string(&chrome).expect("chrome trace written");
    let v = agentgrid_telemetry::json::Value::parse(&text).expect("valid chrome JSON");
    assert!(!v.as_arr().expect("top-level array").is_empty());

    // `report` summarises the JSONL trace.
    let (out, _, ok) = run(&["report", jsonl.to_str().unwrap()]);
    assert!(ok);
    assert!(out.contains("event counts"), "report output:\n{out}");
    assert!(out.contains("task_start"), "report output:\n{out}");

    let (_, err, ok) = run(&["report"]);
    assert!(!ok);
    assert!(err.contains("report needs a trace file"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn report_text_output_matches_the_golden_fixture() {
    // `tests/report_trace.jsonl` is a frozen trace of
    // `run --topology flat:2:4 --requests 8 --seed 42 --policy ga --agents`;
    // the report over it must stay byte-identical to the golden file.
    // Regenerate both with:
    //   agentgrid run --topology flat:2:4 --requests 8 --seed 42 \
    //     --policy ga --agents --trace tests/report_trace.jsonl
    //   agentgrid report tests/report_trace.jsonl > tests/report_golden.txt
    let trace = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/report_trace.jsonl"
    );
    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/report_golden.txt");
    let (out, _, ok) = run(&["report", trace]);
    assert!(ok);
    let expected = std::fs::read_to_string(golden).expect("golden fixture readable");
    assert!(
        out == expected,
        "report drifted from tests/report_golden.txt:\n--- expected\n{expected}\n--- got\n{out}"
    );
}

#[test]
fn verify_flag_reports_clean_invariants_and_exits_zero() {
    // The paper run under the online invariant checker: stderr carries
    // the verdict, the exit code stays zero when the stream is clean.
    let (out, err, ok) = run(&["table3", "--requests", "12", "--seed", "5", "--verify"]);
    assert!(ok, "table3 --verify failed:\n{err}");
    assert!(out.contains("Exp 1"), "table3 output:\n{out}");
    assert!(
        err.contains("invariants: clean"),
        "verdict missing from stderr:\n{err}"
    );

    let (_, err, ok) = run(&[
        "run",
        "--topology",
        "flat:2:4",
        "--requests",
        "8",
        "--policy",
        "ga",
        "--agents",
        "--verify",
    ]);
    assert!(ok, "run --verify failed:\n{err}");
    assert!(
        err.contains("invariants: clean"),
        "verdict missing from stderr:\n{err}"
    );
}

#[test]
fn serve_fast_forward_drains_a_piped_stream_with_a_scale_cycle() {
    // The CI smoke in miniature: two requests and a closed down/up scale
    // cycle through `serve --fast-forward --verify`, metrics written out.
    let dir = std::env::temp_dir().join(format!("agentgrid-serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let metrics = dir.join("metrics.prom");

    let stream = concat!(
        "# two requests and a planned leave/join of R2\n",
        "{\"app\": \"sweep3d\", \"agent\": \"R1\", \"deadline\": 300, \"at\": 0}\n",
        "{\"app\": \"fft\", \"agent\": \"R2\", \"deadline\": 300, \"at\": 1}\n",
        "{\"scale\": \"down\", \"resource\": \"R2\", \"at\": 5}\n",
        "{\"scale\": \"up\", \"resource\": \"R2\", \"at\": 15}\n",
    );
    let (out, err, ok) = run_with_stdin(
        &[
            "serve",
            "--fast-forward",
            "--topology",
            "flat:2:2",
            "--agents",
            "--verify",
            "--metrics-out",
            metrics.to_str().unwrap(),
        ],
        stream,
    );
    assert!(ok, "serve failed:\nstdout:\n{out}\nstderr:\n{err}");
    assert!(
        out.contains("served 2 requests (2 completed, 0 rejected), 2 scale directives"),
        "serve summary missing:\n{out}"
    );
    assert!(
        err.contains("invariants: clean"),
        "verify verdict missing from stderr:\n{err}"
    );

    let text = std::fs::read_to_string(&metrics).expect("metrics written");
    assert!(!text.is_empty());
    assert!(
        text.contains("agentgrid_events_total{kind=\"scale_directive\"} 2"),
        "metrics must record the scale cycle:\n{text}"
    );
    assert!(text.contains("agentgrid_completed_tasks 2"), "{text}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_fast_forward_rejects_a_malformed_stream() {
    let (_, err, ok) = run_with_stdin(
        &["serve", "--fast-forward", "--topology", "flat:2:2"],
        "{\"app\": \"sweep3d\"}\n",
    );
    assert!(!ok, "malformed stream must fail fast in fast-forward");
    assert!(
        err.contains("line 1") && err.contains("agent"),
        "error must name the line and the missing field:\n{err}"
    );
}

#[test]
fn serve_emits_json_when_asked() {
    let (out, _, ok) = run_with_stdin(
        &[
            "serve",
            "--fast-forward",
            "--topology",
            "flat:2:2",
            "--json",
        ],
        "{\"app\": \"cpi\", \"agent\": \"R1\", \"deadline\": 120}\n",
    );
    assert!(ok);
    let parsed = agentgrid_telemetry::json::Value::parse(&out).expect("valid JSON");
    assert_eq!(parsed.get("requests").and_then(|v| v.as_u64()), Some(1));
}

#[test]
fn serve_wal_flag_combinations_are_validated() {
    let (_, err, ok) = run_with_stdin(
        &[
            "serve",
            "--fast-forward",
            "--topology",
            "flat:2:2",
            "--wal",
            "unused.wal",
        ],
        "",
    );
    assert!(!ok, "--wal with --fast-forward must be refused");
    assert!(err.contains("--wal needs a live drive mode"), "{err}");

    let (_, err, ok) = run(&["serve", "--replay", "x.jsonl", "--wal", "y.wal"]);
    assert!(!ok, "--replay with --wal must be refused");
    assert!(err.contains("--replay re-runs a finished session"), "{err}");
}

#[test]
fn serve_wal_survives_a_restart_and_replays_deterministically() {
    // The full durability cycle at the CLI: a live session with a WAL
    // and a recording, a restart that recovers from the log, and the
    // recorded session replayed twice byte-for-byte.
    let dir = std::env::temp_dir().join(format!("agentgrid-wal-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let wal = dir.join("serve.wal");
    let rec = dir.join("serve.rec");
    let stream = concat!(
        "{\"app\": \"sweep3d\", \"agent\": \"R1\", \"deadline\": 300, \"at\": 0}\n",
        "{\"app\": \"fft\", \"agent\": \"R2\", \"deadline\": 300, \"at\": 0}\n",
        "{\"app\": \"cpi\", \"agent\": \"R1\", \"deadline\": 300, \"at\": 0}\n",
    );

    let (out, err, ok) = run_with_stdin(
        &[
            "serve",
            "--topology",
            "flat:2:2",
            "--speed",
            "1000",
            "--wal",
            wal.to_str().unwrap(),
            "--record",
            rec.to_str().unwrap(),
        ],
        stream,
    );
    assert!(ok, "live session failed:\nstdout:\n{out}\nstderr:\n{err}");
    assert!(out.contains("served 3 requests"), "{out}");
    assert!(
        out.contains("wal: seq 3 (epoch 0, 0 replayed"),
        "wal summary missing:\n{out}"
    );

    // Every accepted line landed in the log as a checksummed record.
    let text = std::fs::read_to_string(&wal).expect("wal written");
    assert_eq!(text.lines().count(), 3, "{text}");
    for line in text.lines() {
        let v = agentgrid_telemetry::json::Value::parse(line).expect("wal record is JSON");
        assert!(v.get("seq").is_some() && v.get("sum").is_some(), "{line}");
    }
    // The recording opens with its self-describing header.
    let rtext = std::fs::read_to_string(&rec).expect("recording written");
    assert!(
        rtext.lines().next().unwrap_or("").contains("\"record\""),
        "{rtext}"
    );
    assert_eq!(rtext.lines().count(), 4, "header + three lines:\n{rtext}");

    // Restart on the same log: the session recovers all three lines.
    let (out, err, ok) = run_with_stdin(
        &[
            "serve",
            "--topology",
            "flat:2:2",
            "--speed",
            "1000",
            "--wal",
            wal.to_str().unwrap(),
        ],
        "",
    );
    assert!(ok, "restart failed:\nstdout:\n{out}\nstderr:\n{err}");
    assert!(
        out.contains("wal: seq 3 (epoch 1, 3 replayed"),
        "recovery summary missing:\n{out}"
    );
    assert!(out.contains("served 3 requests"), "{out}");

    // The recording replays deterministically (header restores flags).
    let (a, err, ok) = run(&["serve", "--replay", rec.to_str().unwrap(), "--json"]);
    assert!(ok, "replay failed:\n{err}");
    let (b, _, ok) = run(&["serve", "--replay", rec.to_str().unwrap(), "--json"]);
    assert!(ok);
    assert_eq!(a, b, "two replays of the same recording diverged");
    let parsed = agentgrid_telemetry::json::Value::parse(&a).expect("valid JSON");
    assert_eq!(parsed.get("requests").and_then(|v| v.as_u64()), Some(3));

    // The raw WAL is itself replayable (headerless, explicit flags).
    let (c, err, ok) = run(&[
        "serve",
        "--replay",
        wal.to_str().unwrap(),
        "--topology",
        "flat:2:2",
        "--json",
    ]);
    assert!(ok, "wal replay failed:\n{err}");
    let parsed = agentgrid_telemetry::json::Value::parse(&c).expect("valid JSON");
    assert_eq!(parsed.get("requests").and_then(|v| v.as_u64()), Some(3));

    std::fs::remove_dir_all(&dir).ok();
}

#[cfg(unix)]
#[test]
fn sigterm_drains_gracefully_and_flushes_the_wal() {
    // SIGTERM mid-session must run the same graceful drain as stdin
    // EOF: finish what was accepted, flush the log, report the seq.
    let dir = std::env::temp_dir().join(format!("agentgrid-term-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let wal = dir.join("term.wal");

    let mut child = Command::new(env!("CARGO_BIN_EXE_agentgrid"))
        .args([
            "serve",
            "--topology",
            "flat:2:2",
            "--speed",
            "1000",
            "--wal",
            wal.to_str().unwrap(),
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("CLI binary spawns");
    let mut stdin = child.stdin.take().expect("stdin piped");
    stdin
        .write_all(b"{\"app\": \"sweep3d\", \"agent\": \"R1\", \"deadline\": 300, \"at\": 0}\n{\"app\": \"fft\", \"agent\": \"R2\", \"deadline\": 300, \"at\": 0}\n")
        .expect("stdin written");
    stdin.flush().expect("stdin flushed");
    // Keep stdin open: only the signal may end this session.
    std::thread::sleep(std::time::Duration::from_millis(700));
    let term = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(term.success());
    let out = child.wait_with_output().expect("CLI binary exits");
    drop(stdin);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "SIGTERM exit not clean:\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(
        stdout.contains("served 2 requests"),
        "accepted lines must finish before exit:\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(stdout.contains("wal: seq 2"), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

/// Spawn `serve --listen 127.0.0.1:0 <args>` with no stdin and return
/// the child, its stderr (past the announcement) and the bound address
/// parsed from the `serve: listening on <addr>` line.
fn spawn_listening(args: &[&str]) -> (Child, BufReader<std::process::ChildStderr>, SocketAddr) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_agentgrid"))
        .args(["serve", "--listen", "127.0.0.1:0"])
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("CLI binary spawns");
    let mut stderr = BufReader::new(child.stderr.take().expect("stderr piped"));
    let mut line = String::new();
    stderr.read_line(&mut line).expect("announcement line");
    let addr = line
        .trim()
        .strip_prefix("serve: listening on ")
        .and_then(|a| a.parse().ok())
        .unwrap_or_else(|| panic!("no listening line, got {line:?}"));
    (child, stderr, addr)
}

/// One `POST` on its own connection; the server closes after answering,
/// so the response is everything up to EOF. Returns the status code.
fn http_post(addr: SocketAddr, path: &str, body: &str) -> u16 {
    let mut s = TcpStream::connect(addr).expect("connect");
    write!(
        s,
        "POST {path} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("request written");
    let mut answer = String::new();
    s.read_to_string(&mut answer).expect("response read");
    answer
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .unwrap_or_else(|| panic!("no status code in {answer:?}"))
}

/// Wait for `child` to exit, killing it (and failing) after `limit`.
fn wait_within(mut child: Child, limit: Duration) -> std::process::Output {
    let deadline = Instant::now() + limit;
    while child.try_wait().expect("child polled").is_none() {
        if Instant::now() >= deadline {
            child.kill().ok();
            child.wait().ok();
            panic!("serve still running after {limit:?}");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    child.wait_with_output().expect("CLI binary exits")
}

#[test]
fn serve_listen_reports_a_startup_error_instead_of_hanging() {
    // The WAL cannot be opened, so the session fails after the listener
    // thread is already blocked in `accept`; the process must still stop
    // that thread, print the error and exit.
    let (child, mut stderr, _) = spawn_listening(&[
        "--topology",
        "flat:2:2",
        "--wal",
        "/nonexistent-dir/serve.wal",
    ]);
    let out = wait_within(child, Duration::from_secs(2));
    let mut err = String::new();
    stderr.read_to_string(&mut err).expect("stderr read");
    assert!(!out.status.success(), "a failed start-up must not exit 0");
    assert!(err.contains("error: wal "), "{err}");
}

#[test]
fn serve_listen_ingests_posts_as_they_arrive_and_drains_on_shutdown() {
    const SPEED: f64 = 250.0;
    let dir = std::env::temp_dir().join(format!("agentgrid-listen-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let rec = dir.join("listen.rec");
    let (child, mut stderr, addr) = spawn_listening(&[
        "--topology",
        "flat:2:2",
        "--speed",
        "250",
        "--json",
        "--record",
        rec.to_str().unwrap(),
    ]);

    // Twenty one-line batches, 5 ms apart, each sent at a known instant.
    let origin = Instant::now();
    let mut sent_us = Vec::new();
    for _ in 0..20 {
        std::thread::sleep(Duration::from_millis(5));
        sent_us.push(origin.elapsed().as_secs_f64() * 1e6);
        let code = http_post(
            addr,
            "/ingest",
            "{\"app\": \"cpi\", \"agent\": \"R1\", \"deadline\": 3000}\n",
        );
        assert_eq!(code, 202);
    }
    assert_eq!(http_post(addr, "/shutdown", ""), 202);

    let out = wait_within(child, Duration::from_secs(30));
    let mut err = String::new();
    stderr.read_to_string(&mut err).expect("stderr read");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "stdout:\n{stdout}\nstderr:\n{err}");
    let report = agentgrid_telemetry::json::Value::parse(&stdout).expect("valid JSON");
    let tasks = report.get("total").and_then(|t| t.get("tasks"));
    assert_eq!(tasks.and_then(|v| v.as_u64()), Some(20), "{stdout}");

    // One recorded line per post (after the header), in send order: one
    // client, one post in flight. `at_us` is the sim instant the paced
    // loop applied the line; over SPEED it is a wall instant on the
    // service's clock, whose unknown offset from ours drops out against
    // the best-served line.
    let text = std::fs::read_to_string(&rec).expect("recording written");
    let at_us: Vec<f64> = text
        .lines()
        .skip(1)
        .map(|l| {
            let v = agentgrid_telemetry::json::Value::parse(l).expect("recorded line is JSON");
            v.get("at_us").and_then(|a| a.as_u64()).expect("at_us") as f64
        })
        .collect();
    assert_eq!(at_us.len(), 20, "{text}");
    let lag_us: Vec<f64> = at_us
        .iter()
        .zip(&sent_us)
        .map(|(at, sent)| at / SPEED - sent)
        .collect();
    let best = lag_us.iter().copied().fold(f64::INFINITY, f64::min);
    let mut extra: Vec<f64> = lag_us.iter().map(|l| l - best).collect();
    extra.sort_by(f64::total_cmp);
    let median_ms = extra[extra.len() / 2] / 1e3;
    // Sub-millisecond when the push wakes the loop; 20 ms sleep slices
    // put this median at 6-10 ms.
    assert!(
        median_ms < 5.0,
        "the paced loop waited out a slice: median lag {median_ms:.2} ms, all {extra:?}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_flags_are_reported() {
    let (_, err, ok) = run(&["run", "--policy", "quantum"]);
    assert!(!ok);
    assert!(err.contains("unknown policy"));

    let (_, err, ok) = run(&["run", "--requests"]);
    assert!(!ok);
    assert!(err.contains("needs a value"));
}
