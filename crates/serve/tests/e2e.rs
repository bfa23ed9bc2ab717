//! Loopback end-to-end tests for the campaign daemon.
//!
//! Each test binds a real [`Server`] on an ephemeral port and drives it with
//! raw HTTP over `TcpStream` — no client library, so the bytes on the wire
//! are exactly what an external tool would send. Covered here, per the
//! acceptance criteria: result byte-identity against an in-process run,
//! deterministic 429 backpressure, 400/413/timeout hostile-input handling,
//! a genuinely panicking job, and state-directory recovery across restarts.

use hauberk_serve::jobs::JobSpec;
use hauberk_serve::{Server, ServerConfig, ServerHandle};
use hauberk_telemetry::json::parse;
use hauberk_telemetry::Telemetry;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A small, fast campaign (sub-second in release) used throughout.
const SMALL_CAMPAIGN: &str = r#"{"program":"CP","vars":6,"masks":8,"bit_counts":[1]}"#;

struct Response {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl Response {
    fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    fn json_field(&self, key: &str) -> String {
        let doc =
            parse(&self.body).unwrap_or_else(|e| panic!("bad JSON body {:?}: {e}", self.body));
        doc.get(key)
            .and_then(|v| v.as_str().map(String::from))
            .unwrap_or_else(|| panic!("no `{key}` in {}", self.body))
    }
}

/// Send `raw` and read the full `Connection: close` response.
fn raw_request(addr: SocketAddr, raw: &[u8]) -> Response {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    // Write and read are best-effort: a server that rejects mid-upload (413)
    // closes while bytes are still in flight, which surfaces as EPIPE/RST on
    // this side even though a complete response was sent first.
    let _ = s.write_all(raw);
    let mut buf = Vec::new();
    let mut tmp = [0u8; 4096];
    loop {
        match s.read(&mut tmp) {
            Ok(0) | Err(_) => break,
            Ok(n) => buf.extend_from_slice(&tmp[..n]),
        }
    }
    parse_response(&buf)
}

fn parse_response(buf: &[u8]) -> Response {
    let head_end = buf
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("complete response head");
    let head = std::str::from_utf8(&buf[..head_end]).unwrap();
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .unwrap()
        .split(' ')
        .nth(1)
        .unwrap()
        .parse()
        .unwrap();
    let headers: Vec<(String, String)> = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    let mut body = buf[head_end + 4..].to_vec();
    if headers
        .iter()
        .any(|(k, v)| k == "transfer-encoding" && v == "chunked")
    {
        body = dechunk(&body);
    }
    Response {
        status,
        headers,
        body: String::from_utf8_lossy(&body).into_owned(),
    }
}

/// Decode a chunked body (sizes are hex, one chunk per line).
fn dechunk(mut b: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    loop {
        let Some(eol) = b.windows(2).position(|w| w == b"\r\n") else {
            return out; // truncated stream: return what arrived
        };
        let size = usize::from_str_radix(std::str::from_utf8(&b[..eol]).unwrap().trim(), 16)
            .expect("chunk size");
        if size == 0 {
            return out;
        }
        out.extend_from_slice(&b[eol + 2..eol + 2 + size]);
        b = &b[eol + 2 + size + 2..];
    }
}

fn get(addr: SocketAddr, path: &str) -> Response {
    raw_request(
        addr,
        format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes(),
    )
}

fn post(addr: SocketAddr, path: &str, body: &str) -> Response {
    raw_request(
        addr,
        format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
}

fn spawn(cfg: ServerConfig) -> (ServerHandle, SocketAddr) {
    let handle = Server::bind(cfg).unwrap().spawn().unwrap();
    let addr = handle.addr();
    (handle, addr)
}

/// Poll status until the job reaches a terminal phase.
fn wait_terminal(addr: SocketAddr, id: &str) -> String {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let st = get(addr, &format!("/v1/campaigns/{id}"));
        assert_eq!(st.status, 200, "{}", st.body);
        let state = st.json_field("state");
        if ["done", "failed", "canceled"].contains(&state.as_str()) {
            return state;
        }
        assert!(Instant::now() < deadline, "job {id} stuck: {}", st.body);
        std::thread::sleep(Duration::from_millis(25));
    }
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hauberk-serve-e2e-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn submitted_campaign_matches_in_process_run_byte_for_byte() {
    let (handle, addr) = spawn(ServerConfig::default());

    assert_eq!(get(addr, "/healthz").status, 200);
    let sub = post(addr, "/v1/campaigns", SMALL_CAMPAIGN);
    assert_eq!(sub.status, 201, "{}", sub.body);
    let id = sub.json_field("id");
    assert_eq!(wait_terminal(addr, &id), "done");

    let res = get(addr, &format!("/v1/campaigns/{id}/result"));
    assert_eq!(res.status, 200, "{}", res.body);

    // The same spec, run in-process through the same orchestrator entry
    // point, must serialize to the identical bytes: the daemon adds
    // observation, never perturbation.
    let spec = JobSpec::from_json(&parse(SMALL_CAMPAIGN).unwrap()).unwrap();
    let local = spec.run(None, false, None, Telemetry::disabled()).unwrap();
    assert_eq!(res.body, local.summary_json().to_string());

    // The event stream replays the whole campaign log and terminates.
    let ev = get(addr, &format!("/v1/campaigns/{id}/events"));
    assert_eq!(ev.status, 200);
    assert!(ev.body.contains("\"ev\":\"job_state\""), "{}", ev.body);
    assert!(ev.body.contains("campaign_started"), "{}", ev.body);
    assert!(ev.body.lines().last().unwrap().contains("done"));

    let metrics = get(addr, "/metrics");
    assert_eq!(metrics.status, 200);
    assert!(metrics.body.contains("\"jobs_done\":1"), "{}", metrics.body);

    handle.shutdown();
}

#[test]
fn hardened_coverage_job_runs_selectively_and_matches_in_process() {
    let (handle, addr) = spawn(ServerConfig::default());

    // A coverage campaign under a selective placement (one NL variable, one
    // loop detector with its trip check) — the `"hardening"` field carries a
    // `HardeningPlan`'s `selection` object verbatim.
    let base = r#""program":"CP","kind":"coverage","vars":6,"masks":8,"bit_counts":[1]"#;
    let hardened_spec = format!(
        r#"{{{base},"hardening":{{"nonloop_vars":["xidx"],"loop_detectors":[{{"loop":0,"var":"energyx2"}}],"trip_checks":[0]}}}}"#
    );
    let sub = post(addr, "/v1/campaigns", &hardened_spec);
    assert_eq!(sub.status, 201, "{}", sub.body);
    let id = sub.json_field("id");
    assert_eq!(wait_terminal(addr, &id), "done");
    let res = get(addr, &format!("/v1/campaigns/{id}/result"));
    assert_eq!(res.status, 200, "{}", res.body);

    // Byte-identical to the same hardened spec run in-process.
    let spec = JobSpec::from_json(&parse(&hardened_spec).unwrap()).unwrap();
    let local = spec.run(None, false, None, Telemetry::disabled()).unwrap();
    assert_eq!(res.body, local.summary_json().to_string());

    // The placement is load-bearing: full protection (no `hardening`)
    // produces a different result document for the same campaign identity.
    let full_spec = format!("{{{base}}}");
    let sub2 = post(addr, "/v1/campaigns", &full_spec);
    assert_eq!(sub2.status, 201, "{}", sub2.body);
    let id2 = sub2.json_field("id");
    assert_eq!(wait_terminal(addr, &id2), "done");
    let res2 = get(addr, &format!("/v1/campaigns/{id2}/result"));
    assert_ne!(
        res.body, res2.body,
        "selective placement must change measured coverage"
    );

    handle.shutdown();
}

#[test]
fn trace_id_follows_the_job_and_spans_form_a_single_tree() {
    let (handle, addr) = spawn(ServerConfig::default());

    // Every response carries X-Hauberk-Trace; probes are uncacheable.
    let h = get(addr, "/healthz");
    assert_eq!(h.status, 200);
    assert!(
        h.header("x-hauberk-trace")
            .is_some_and(|t| t.starts_with("ht-")),
        "{:?}",
        h.headers
    );
    assert_eq!(h.header("cache-control"), Some("no-store"));
    let health = parse(&h.body).unwrap();
    assert_eq!(
        health.get("version").and_then(|v| v.as_str()),
        Some(env!("CARGO_PKG_VERSION"))
    );
    assert!(health.get("uptime_secs").and_then(|v| v.as_u64()).is_some());
    assert!(health.get("workers").and_then(|v| v.as_u64()).is_some());
    assert!(health
        .get("queue_capacity")
        .and_then(|v| v.as_u64())
        .is_some());

    // A client-pinned trace id is echoed verbatim on the response header.
    let pinned = raw_request(
        addr,
        b"GET /healthz HTTP/1.1\r\nHost: t\r\nX-Hauberk-Trace: ht-pinned-42\r\n\r\n",
    );
    assert_eq!(pinned.header("x-hauberk-trace"), Some("ht-pinned-42"));

    // Submit: the request's trace id lands in the job spec and on the 201.
    let sub = post(addr, "/v1/campaigns", SMALL_CAMPAIGN);
    assert_eq!(sub.status, 201, "{}", sub.body);
    let trace = sub.header("x-hauberk-trace").unwrap().to_string();
    assert_eq!(sub.json_field("trace"), trace);
    let id = sub.json_field("id");
    assert_eq!(wait_terminal(addr, &id), "done");

    // Rebuild the span tree from the job's event log.
    let ev = get(addr, &format!("/v1/campaigns/{id}/events"));
    assert_eq!(ev.status, 200);
    assert!(ev.header("x-hauberk-trace").is_some());
    struct Span {
        name: String,
        id: u64,
        parent: u64,
        trace: Option<String>,
    }
    let spans: Vec<Span> = ev
        .body
        .lines()
        .filter_map(|l| parse(l).ok())
        .filter(|j| j.get("ev").and_then(|e| e.as_str()) == Some("span"))
        .map(|j| Span {
            name: j.get("name").and_then(|v| v.as_str()).unwrap().to_string(),
            id: j.get("id").and_then(|v| v.as_u64()).unwrap(),
            parent: j.get("parent").and_then(|v| v.as_u64()).unwrap(),
            trace: j.get("trace").and_then(|v| v.as_str()).map(String::from),
        })
        .collect();

    // Exactly one root: the campaign span, stamped with the request trace.
    let roots: Vec<&Span> = spans.iter().filter(|s| s.parent == 0).collect();
    assert_eq!(roots.len(), 1, "one rooted tree per campaign");
    assert_eq!(roots[0].name, "campaign");
    assert_eq!(roots[0].trace.as_deref(), Some(trace.as_str()));

    // Every non-root span's parent id is another recorded span.
    let by_id: std::collections::BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    assert_eq!(by_id.len(), spans.len(), "span ids are unique");
    for s in spans.iter().filter(|s| s.parent != 0) {
        assert!(
            by_id.contains_key(&s.parent),
            "span {} has unknown parent {}",
            s.name,
            s.parent
        );
    }

    // The hierarchy is campaign → stratum → unit → launch, end to end.
    let launch = spans
        .iter()
        .find(|s| s.name == "launch")
        .expect("launch spans recorded");
    let unit = by_id[&launch.parent];
    assert_eq!(unit.name, "unit");
    let stratum = by_id[&unit.parent];
    assert_eq!(stratum.name, "stratum");
    let campaign = by_id[&stratum.parent];
    assert_eq!(campaign.name, "campaign");
    assert_eq!(campaign.id, roots[0].id);
    for name in ["plan", "stratum", "unit", "launch"] {
        assert!(spans.iter().any(|s| s.name == name), "missing {name} spans");
    }

    handle.shutdown();
}

#[test]
fn prometheus_exposition_is_served_on_accept_text_plain() {
    let (handle, addr) = spawn(ServerConfig::default());
    let sub = post(addr, "/v1/campaigns", SMALL_CAMPAIGN);
    assert_eq!(sub.status, 201, "{}", sub.body);
    assert_eq!(wait_terminal(addr, &sub.json_field("id")), "done");

    // Default stays JSON (existing dashboards keep working).
    let json = get(addr, "/metrics");
    assert_eq!(json.header("content-type"), Some("application/json"));
    assert_eq!(json.header("cache-control"), Some("no-store"));
    assert!(json.body.contains("\"jobs_done\":1"), "{}", json.body);

    // Accept: text/plain → Prometheus 0.0.4 exposition.
    let prom = raw_request(
        addr,
        b"GET /metrics HTTP/1.1\r\nHost: t\r\nAccept: text/plain\r\n\r\n",
    );
    assert_eq!(prom.status, 200);
    assert!(
        prom.header("content-type")
            .is_some_and(|t| t.starts_with("text/plain")),
        "{:?}",
        prom.headers
    );
    assert_eq!(prom.header("cache-control"), Some("no-store"));
    let body = &prom.body;
    assert!(body.contains("jobs_done_total 1"), "{body}");
    assert!(body.contains("# TYPE queue_depth gauge"), "{body}");
    assert!(body.contains("queue_capacity "), "{body}");
    assert!(body.contains("busy_workers "), "{body}");
    assert!(body.contains("uptime_seconds "), "{body}");
    assert!(body.contains("jobs_phase_done 1"), "{body}");
    // Per-endpoint HTTP latency histograms with a terminating +Inf bucket.
    assert!(
        body.contains("# TYPE http_latency_us_submit histogram"),
        "{body}"
    );
    assert!(
        body.contains("http_latency_us_submit_bucket{le=\"+Inf\"}"),
        "{body}"
    );
    assert!(body.contains("http_latency_us_submit_count 1"), "{body}");

    handle.shutdown();
}

#[test]
fn kir_kernel_submission_runs_a_campaign() {
    let (handle, addr) = spawn(ServerConfig::default());
    let body = r#"{"kernel":"kernel scale(out: *global f32, x: *global f32, n: i32) {
        let tid: i32 = block_idx_x() * block_dim_x() + thread_idx_x();
        if (tid < n) { store(out, tid, load(x, tid) * 2.0); }
    }","launch":{"blocks":2,"threads":16,"elems":32},"vars":4,"masks":4,"bit_counts":[1]}"#
        .replace('\n', " ");
    let sub = post(addr, "/v1/campaigns", &body);
    assert_eq!(sub.status, 201, "{}", sub.body);
    let id = sub.json_field("id");
    assert_eq!(wait_terminal(addr, &id), "done");
    let res = get(addr, &format!("/v1/campaigns/{id}/result"));
    assert_eq!(res.status, 200);
    let doc = parse(&res.body).unwrap();
    assert!(doc.get("campaign").is_some(), "{}", res.body);
    handle.shutdown();
}

#[test]
fn queue_overflow_returns_deterministic_429_with_retry_after() {
    let (handle, addr) = spawn(ServerConfig {
        workers: 1,
        queue_capacity: 2,
        start_paused: true, // nothing drains until we say so
        retry_after_secs: 7,
        ..ServerConfig::default()
    });

    let a = post(addr, "/v1/campaigns", SMALL_CAMPAIGN);
    let b = post(addr, "/v1/campaigns", SMALL_CAMPAIGN);
    assert_eq!((a.status, b.status), (201, 201));
    // Queue full: every further submission is 429 + Retry-After, exactly.
    for _ in 0..3 {
        let r = post(addr, "/v1/campaigns", SMALL_CAMPAIGN);
        assert_eq!(r.status, 429, "{}", r.body);
        assert_eq!(r.header("retry-after"), Some("7"));
        assert!(r.body.contains("queue is full"), "{}", r.body);
    }
    // Rejected submissions consume no ids and leave no ghost jobs.
    let metrics = get(addr, "/metrics");
    assert!(
        metrics.body.contains("\"submit_backpressured\":3"),
        "{}",
        metrics.body
    );

    // Released, the queue drains and capacity frees up again.
    handle.resume();
    assert_eq!(wait_terminal(addr, &a.json_field("id")), "done");
    assert_eq!(wait_terminal(addr, &b.json_field("id")), "done");
    let c = post(addr, "/v1/campaigns", SMALL_CAMPAIGN);
    assert_eq!(c.status, 201, "{}", c.body);
    assert_eq!(wait_terminal(addr, &c.json_field("id")), "done");
    handle.shutdown();
}

#[test]
fn hostile_requests_get_structured_errors_and_the_daemon_keeps_serving() {
    let (handle, addr) = spawn(ServerConfig {
        max_body_bytes: 4096,
        read_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    });

    // Malformed JSON → 400 with a parse message.
    let r = post(addr, "/v1/campaigns", "{not json");
    assert_eq!(r.status, 400);
    assert!(r.body.contains("invalid JSON"), "{}", r.body);

    // Well-formed JSON, bad spec → 400 naming the field.
    let r = post(addr, "/v1/campaigns", r#"{"program":"CP","bogus":1}"#);
    assert_eq!(r.status, 400);
    assert!(r.body.contains("unknown field `bogus`"), "{}", r.body);

    // Malformed kernel → 400 carrying the parse error, not a worker panic.
    let r = post(addr, "/v1/campaigns", r#"{"kernel":"kernel broken {"}"#);
    assert_eq!(r.status, 400);
    assert!(r.body.contains("parse error"), "{}", r.body);

    // Oversized body → 413 from the declared length alone; the server never
    // waits for (or buffers) the payload.
    let r = raw_request(
        addr,
        b"POST /v1/campaigns HTTP/1.1\r\nHost: t\r\nContent-Length: 999999999\r\n\r\n",
    );
    assert_eq!(r.status, 413);
    assert!(r.body.contains("byte limit"), "{}", r.body);

    // Slow-loris: a head that never finishes is timed out, not accumulated.
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(b"POST /v1/campaigns HT").unwrap();
    let mut buf = Vec::new();
    s.read_to_end(&mut buf).unwrap();
    assert_eq!(parse_response(&buf).status, 408);

    // Unknown routes and methods.
    assert_eq!(get(addr, "/v1/campaigns/cj-999").status, 404);
    assert_eq!(get(addr, "/nope").status, 404);
    assert_eq!(
        raw_request(addr, b"DELETE /healthz HTTP/1.1\r\nHost: t\r\n\r\n").status,
        405
    );

    // After all of that, the daemon still takes real work.
    assert_eq!(get(addr, "/healthz").status, 200);
    let sub = post(addr, "/v1/campaigns", SMALL_CAMPAIGN);
    assert_eq!(sub.status, 201, "{}", sub.body);
    assert_eq!(wait_terminal(addr, &sub.json_field("id")), "done");
    handle.shutdown();
}

#[test]
fn panicking_job_is_quarantined_and_the_daemon_survives() {
    let (handle, addr) = spawn(ServerConfig::default());

    // Sabotage one work unit so it panics on every attempt: the retry →
    // quarantine path must absorb it and still complete the campaign.
    let body = r#"{"program":"CP","vars":6,"masks":8,"bit_counts":[1],"max_retries":1,
        "chaos":{"stratum":"FPU/floating-point","chunk":0,"fail_attempts":99,"panics":true}}"#;
    let sub = post(addr, "/v1/campaigns", body);
    assert_eq!(sub.status, 201, "{}", sub.body);
    let id = sub.json_field("id");
    assert_eq!(wait_terminal(addr, &id), "done");

    let res = get(addr, &format!("/v1/campaigns/{id}/result"));
    assert_eq!(res.status, 200);
    assert!(
        res.body.contains("injected work-unit panic"),
        "quarantine record carries the panic message: {}",
        res.body
    );

    // The worker thread outlived the panic: a clean follow-up job runs fine.
    let sub = post(addr, "/v1/campaigns", SMALL_CAMPAIGN);
    assert_eq!(sub.status, 201, "{}", sub.body);
    assert_eq!(wait_terminal(addr, &sub.json_field("id")), "done");
    handle.shutdown();
}

#[test]
fn state_dir_recovers_results_and_requeues_unstarted_jobs() {
    let dir = tmp_dir("recovery");

    // First daemon: finish one job, leave a second queued (workers paused),
    // then shut down.
    let (handle, addr) = spawn(ServerConfig {
        workers: 1,
        state_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    let sub = post(addr, "/v1/campaigns", SMALL_CAMPAIGN);
    assert_eq!(sub.status, 201, "{}", sub.body);
    let done_id = sub.json_field("id");
    assert_eq!(wait_terminal(addr, &done_id), "done");
    let first_result = get(addr, &format!("/v1/campaigns/{done_id}/result")).body;
    handle.shutdown();

    let (handle, addr) = spawn(ServerConfig {
        workers: 1,
        state_dir: Some(dir.clone()),
        start_paused: true,
        ..ServerConfig::default()
    });
    // The finished job is served from disk, without re-running (workers are
    // paused, so a re-run could never have produced this).
    let res = get(addr, &format!("/v1/campaigns/{done_id}/result"));
    assert_eq!(res.status, 200);
    assert_eq!(
        res.body, first_result,
        "recovered bytes are the persisted bytes"
    );

    // Queue a job the paused pool never starts; shutdown cancels it but its
    // spec persists.
    let sub = post(addr, "/v1/campaigns", SMALL_CAMPAIGN);
    assert_eq!(sub.status, 201, "{}", sub.body);
    let queued_id = sub.json_field("id");
    handle.shutdown();

    // Third daemon: the canceled job is re-queued and runs to completion.
    let (handle, addr) = spawn(ServerConfig {
        workers: 1,
        state_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    assert_eq!(wait_terminal(addr, &queued_id), "done");
    let res = get(addr, &format!("/v1/campaigns/{queued_id}/result"));
    assert_eq!(res.status, 200);
    assert_eq!(
        res.body, first_result,
        "same spec, same bytes, restart or not"
    );
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `handle.shutdown()` on another thread; fails the test if it has not
/// returned within `limit` (a shutdown that never wakes `accept` hangs).
fn shutdown_within(handle: ServerHandle, limit: Duration) -> Duration {
    let t = Instant::now();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        handle.shutdown();
        let _ = tx.send(());
    });
    rx.recv_timeout(limit)
        .unwrap_or_else(|_| panic!("shutdown did not return within {limit:?}"));
    t.elapsed()
}

#[test]
fn idle_daemon_shuts_down_promptly_on_loopback_and_wildcard_binds() {
    for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
        let (handle, addr) = spawn(ServerConfig {
            addr: bind.to_string(),
            ..ServerConfig::default()
        });
        let local = SocketAddr::from(([127, 0, 0, 1], addr.port()));
        assert_eq!(get(local, "/healthz").status, 200, "{bind} serves");
        // The accept loop is now blocked in `accept` with nothing pending.
        std::thread::sleep(Duration::from_millis(50));
        let took = shutdown_within(handle, Duration::from_secs(10));
        assert!(
            took < Duration::from_secs(2),
            "{bind}: shutdown took {took:?}"
        );
    }
}

#[test]
fn connections_beyond_the_limit_get_503_and_the_daemon_recovers() {
    let (handle, addr) = spawn(ServerConfig {
        max_connections: 1,
        read_timeout: Duration::from_secs(5),
        ..ServerConfig::default()
    });
    // Hold the only connection slot: connected, request never sent.
    let holder = TcpStream::connect(addr).unwrap();
    let over = get(addr, "/healthz");
    assert_eq!(over.status, 503, "{}", over.body);
    assert!(over.body.contains("connection limit"), "{}", over.body);
    // Closing the holder frees the slot.
    drop(holder);
    let deadline = Instant::now() + Duration::from_secs(10);
    while get(addr, "/healthz").status != 200 {
        assert!(Instant::now() < deadline, "slot never freed");
        std::thread::sleep(Duration::from_millis(20));
    }
    shutdown_within(handle, Duration::from_secs(10));
}

/// Bytes of a job's telemetry lines as served by `/events`: every line but
/// lifecycle, journal and drop markers.
fn served_telemetry_bytes(addr: SocketAddr, id: &str) -> (usize, String) {
    let ev = get(addr, &format!("/v1/campaigns/{id}/events"));
    assert_eq!(ev.status, 200);
    let bytes = ev
        .body
        .lines()
        .filter(|l| {
            !["job_state", "journal", "events_dropped"]
                .iter()
                .any(|k| l.contains(&format!("\"ev\":\"{k}\"")))
        })
        .map(str::len)
        .sum();
    (bytes, ev.body)
}

#[test]
fn finished_jobs_hold_a_bounded_total_event_log() {
    use hauberk_serve::jobs::FINISHED_TELEMETRY_BYTES;
    let (handle, addr) = spawn(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    // ~330 injections each, ~240 KB of telemetry: five exceed the budget.
    let mut ids = Vec::new();
    for seed in 0..6 {
        let spec =
            format!(r#"{{"program":"RPES","vars":12,"masks":24,"bit_counts":[1],"seed":{seed}}}"#);
        let sub = post(addr, "/v1/campaigns", &spec);
        assert_eq!(sub.status, 201, "{}", sub.body);
        let id = sub.json_field("id");
        assert_eq!(wait_terminal(addr, &id), "done");
        ids.push(id);
    }
    let served: Vec<(usize, String)> = ids
        .iter()
        .map(|id| served_telemetry_bytes(addr, id))
        .collect();
    let total: usize = served.iter().map(|(b, _)| b).sum();
    let (newest, _) = served.last().unwrap();
    assert!(*newest > 0, "the newest job keeps its telemetry");
    assert!(
        total <= FINISHED_TELEMETRY_BYTES.max(*newest),
        "finished jobs hold {total} bytes of telemetry"
    );
    // The oldest job was released: its stream says so and still carries
    // its lifecycle.
    let (oldest, body) = &served[0];
    assert_eq!(*oldest, 0, "oldest job still holds telemetry");
    assert!(body.contains("\"ev\":\"events_dropped\""), "{body}");
    for state in ["queued", "running", "done"] {
        assert!(body.contains(&format!("\"state\":\"{state}\"")), "{body}");
    }
    assert_eq!(
        get(addr, &format!("/v1/campaigns/{}/result", ids[0])).status,
        200
    );
    handle.shutdown();
}
