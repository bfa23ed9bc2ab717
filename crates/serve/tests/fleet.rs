//! Loopback end-to-end tests for the fleet fabric: coordinator + worker
//! daemons on ephemeral ports, driven with raw HTTP like `e2e.rs`.
//!
//! Covered, per the acceptance criteria: the merged fleet result is
//! byte-identical to a single-daemon run, a worker killed mid-campaign is
//! survived by re-dispatch with an identical result, a cache hit answers
//! from storage without re-execution, cancellation semantics with
//! `Cache-Control: no-store`, status long-polling, priority lanes, client
//! quotas, and `Retry-After` coherence through the coordinator.

use hauberk_serve::jobs::JobSpec;
use hauberk_serve::{Server, ServerConfig, ServerHandle};
use hauberk_telemetry::json::parse;
use hauberk_telemetry::Telemetry;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
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

fn raw_request(addr: SocketAddr, raw: &[u8]) -> Response {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
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

fn dechunk(mut b: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    loop {
        let Some(eol) = b.windows(2).position(|w| w == b"\r\n") else {
            return out;
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

fn delete(addr: SocketAddr, path: &str) -> Response {
    raw_request(
        addr,
        format!("DELETE {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes(),
    )
}

fn spawn(cfg: ServerConfig) -> (ServerHandle, SocketAddr) {
    let handle = Server::bind(cfg).unwrap().spawn().unwrap();
    let addr = handle.addr();
    (handle, addr)
}

/// A worker daemon: plain config, no peers.
fn spawn_worker() -> (ServerHandle, SocketAddr) {
    spawn(ServerConfig::default())
}

/// A coordinator over `peers`.
fn coordinator_cfg(peers: &[SocketAddr]) -> ServerConfig {
    ServerConfig {
        peers: peers.iter().map(|a| a.to_string()).collect(),
        ..ServerConfig::default()
    }
}

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

/// The same spec run in-process: the byte-identity reference.
fn in_process_summary(spec_json: &str) -> String {
    let spec = JobSpec::from_json(&parse(spec_json).unwrap()).unwrap();
    spec.run(None, false, None, Telemetry::disabled())
        .unwrap()
        .summary_json()
        .to_string()
}

/// Read one metric counter out of a daemon's JSON `/metrics` document.
fn metric(addr: SocketAddr, name: &str) -> u64 {
    let m = get(addr, "/metrics");
    assert_eq!(m.status, 200);
    parse(&m.body)
        .unwrap()
        .get("metrics")
        .and_then(|ms| ms.get("counters"))
        .and_then(|c| c.get(name))
        .and_then(|v| v.as_u64())
        .unwrap_or(0)
}

#[test]
fn fleet_merge_is_byte_identical_and_cache_answers_without_rerun() {
    let (wa, wa_addr) = spawn_worker();
    let (wb, wb_addr) = spawn_worker();
    let (coord, addr) = spawn(coordinator_cfg(&[wa_addr, wb_addr]));

    // Coordinator advertises its fleet on the operational surface.
    let h = get(addr, "/healthz");
    assert_eq!(h.status, 200);
    assert!(h.body.contains("\"peers\":2"), "{}", h.body);

    // One submission, three-way sharded, merged back byte-identically.
    let cached_spec = r#"{"program":"CP","vars":6,"masks":8,"bit_counts":[1],"cache":true}"#;
    let sub = post(addr, "/v1/campaigns", cached_spec);
    assert_eq!(sub.status, 201, "{}", sub.body);
    let id = sub.json_field("id");
    assert_eq!(wait_terminal(addr, &id), "done");
    let res = get(addr, &format!("/v1/campaigns/{id}/result"));
    assert_eq!(res.status, 200, "{}", res.body);
    assert_eq!(
        res.body,
        in_process_summary(SMALL_CAMPAIGN),
        "fleet merge must reproduce the single-daemon bytes"
    );

    // Both workers actually executed shards (shard 0 ran on the coordinator).
    assert_eq!(metric(wa_addr, "jobs_done"), 1, "worker A ran a shard");
    assert_eq!(metric(wb_addr, "jobs_done"), 1, "worker B ran a shard");
    let ev = get(addr, &format!("/v1/campaigns/{id}/events"));
    assert!(
        ev.body.contains("\"ev\":\"shard_dispatched\""),
        "{}",
        ev.body
    );

    // Identical resubmission: answered from the content-addressed cache —
    // instantly done, marked `cached`, no new work on any daemon.
    let hit = post(addr, "/v1/campaigns", cached_spec);
    assert_eq!(hit.status, 201, "{}", hit.body);
    assert_eq!(hit.json_field("state"), "done");
    assert!(hit.body.contains("\"cached\":true"), "{}", hit.body);
    let hit_id = hit.json_field("id");
    let hit_res = get(addr, &format!("/v1/campaigns/{hit_id}/result"));
    assert_eq!(hit_res.body, res.body, "cache serves the stored bytes");
    assert_eq!(metric(addr, "cache_hits"), 1);
    assert_eq!(metric(wa_addr, "jobs_done"), 1, "no re-execution on A");
    assert_eq!(metric(wb_addr, "jobs_done"), 1, "no re-execution on B");

    // A spec differing only in observational fields still hits.
    let dressed = r#"{"program":"CP","vars":6,"masks":8,"bit_counts":[1],"cache":true,
                      "priority":"low","client":"alice"}"#;
    let hit2 = post(addr, "/v1/campaigns", dressed);
    assert_eq!(hit2.status, 201, "{}", hit2.body);
    assert!(hit2.body.contains("\"cached\":true"), "{}", hit2.body);

    coord.shutdown();
    wa.shutdown();
    wb.shutdown();
}

#[test]
fn fleet_survives_a_worker_killed_mid_campaign() {
    // Worker A accepts its shard but never runs it (paused); killing A
    // forces the coordinator down the re-dispatch path to B / local.
    let (wa, wa_addr) = spawn(ServerConfig {
        start_paused: true,
        ..ServerConfig::default()
    });
    let (wb, wb_addr) = spawn_worker();
    let (coord, addr) = spawn(coordinator_cfg(&[wa_addr, wb_addr]));

    let sub = post(addr, "/v1/campaigns", SMALL_CAMPAIGN);
    assert_eq!(sub.status, 201, "{}", sub.body);
    let id = sub.json_field("id");

    // Wait until A has actually been handed a shard, then kill it.
    let deadline = Instant::now() + Duration::from_secs(30);
    while metric(wa_addr, "submit_accepted") == 0 {
        assert!(Instant::now() < deadline, "shard never reached worker A");
        std::thread::sleep(Duration::from_millis(10));
    }
    wa.shutdown();

    assert_eq!(wait_terminal(addr, &id), "done");
    let res = get(addr, &format!("/v1/campaigns/{id}/result"));
    assert_eq!(
        res.body,
        in_process_summary(SMALL_CAMPAIGN),
        "re-dispatched fleet result must still be byte-identical"
    );
    let ev = get(addr, &format!("/v1/campaigns/{id}/events"));
    assert!(
        ev.body.contains("\"ev\":\"shard_redispatched\""),
        "the failover must be visible in the event log: {}",
        ev.body
    );

    coord.shutdown();
    wb.shutdown();
}

#[test]
fn tiny_campaign_runs_coordinator_only() {
    let (wa, wa_addr) = spawn_worker();
    let (coord, addr) = spawn(coordinator_cfg(&[wa_addr]));

    // 2 vars × 4 masks plans ~9 injections — under MIN_UNITS_PER_SHARD,
    // so the size-aware split degenerates to one local shard and the peer
    // is never bothered.
    let tiny = r#"{"program":"CP","vars":2,"masks":4,"bit_counts":[1]}"#;
    let sub = post(addr, "/v1/campaigns", tiny);
    assert_eq!(sub.status, 201, "{}", sub.body);
    let id = sub.json_field("id");
    assert_eq!(wait_terminal(addr, &id), "done");
    let res = get(addr, &format!("/v1/campaigns/{id}/result"));
    assert_eq!(
        res.body,
        in_process_summary(tiny),
        "coordinator-only fleet run must match the in-process bytes"
    );
    assert_eq!(
        metric(wa_addr, "submit_accepted"),
        0,
        "no shard may reach the worker for a sub-threshold campaign"
    );

    coord.shutdown();
    wa.shutdown();
}

#[test]
fn dead_peer_is_skipped_by_the_health_probe() {
    let (wa, wa_addr) = spawn_worker();
    let (wb, wb_addr) = spawn_worker();
    // Kill B before the coordinator ever dispatches: its address stays in
    // the peer list but `/healthz` no longer answers.
    wb.shutdown();
    let (coord, addr) = spawn(coordinator_cfg(&[wa_addr, wb_addr]));

    let sub = post(addr, "/v1/campaigns", SMALL_CAMPAIGN);
    assert_eq!(sub.status, 201, "{}", sub.body);
    let id = sub.json_field("id");
    assert_eq!(wait_terminal(addr, &id), "done");
    let res = get(addr, &format!("/v1/campaigns/{id}/result"));
    assert_eq!(
        res.body,
        in_process_summary(SMALL_CAMPAIGN),
        "losing a peer must not perturb the merged bytes"
    );

    // The dead peer was skipped by the probe — visible as telemetry and a
    // counter — and its shard ran elsewhere without a submit-and-fail cycle.
    assert!(metric(addr, "fleet_shards_skipped_unhealthy") >= 1);
    assert_eq!(metric(addr, "fleet_shard_redispatches"), 0);
    let ev = get(addr, &format!("/v1/campaigns/{id}/events"));
    assert!(
        ev.body.contains("\"ev\":\"shard_skipped_unhealthy\""),
        "the probe skip must be visible in the event log: {}",
        ev.body
    );

    coord.shutdown();
    wa.shutdown();
}

#[test]
fn delete_cancels_with_no_store_and_the_worker_skips_the_corpse() {
    let (handle, addr) = spawn(ServerConfig {
        start_paused: true,
        workers: 1,
        ..ServerConfig::default()
    });

    let sub = post(addr, "/v1/campaigns", SMALL_CAMPAIGN);
    assert_eq!(sub.status, 201, "{}", sub.body);
    let id = sub.json_field("id");

    // Queued job: DELETE cancels immediately with 202 + no-store.
    let del = delete(addr, &format!("/v1/campaigns/{id}"));
    assert_eq!(del.status, 202, "{}", del.body);
    assert_eq!(del.header("cache-control"), Some("no-store"));
    assert_eq!(del.json_field("state"), "canceled");

    // A second DELETE is idempotent: 200, still no-store.
    let again = delete(addr, &format!("/v1/campaigns/{id}"));
    assert_eq!(again.status, 200, "{}", again.body);
    assert_eq!(again.header("cache-control"), Some("no-store"));

    // DELETE on a missing id is a 404; on /healthz still 405.
    assert_eq!(delete(addr, "/v1/campaigns/cj-999").status, 404);
    assert_eq!(delete(addr, "/healthz").status, 405);

    // The canceled job must not be executed: resume the pool, run another
    // job to completion, and check exactly one job ever ran.
    handle.resume();
    let sub2 = post(addr, "/v1/campaigns", SMALL_CAMPAIGN);
    let id2 = sub2.json_field("id");
    assert_eq!(wait_terminal(addr, &id2), "done");
    assert_eq!(metric(addr, "jobs_started"), 1, "corpse was skipped");
    assert_eq!(wait_terminal(addr, &id), "canceled");

    handle.shutdown();
}

#[test]
fn status_long_poll_defers_until_phase_change() {
    let (handle, addr) = spawn(ServerConfig {
        start_paused: true,
        ..ServerConfig::default()
    });
    let sub = post(addr, "/v1/campaigns", SMALL_CAMPAIGN);
    let id = sub.json_field("id");

    // Phase doesn't change: the poll holds for the full timeout.
    let t0 = Instant::now();
    let st = get(
        addr,
        &format!("/v1/campaigns/{id}?watch=queued&timeout_ms=300"),
    );
    assert_eq!(st.status, 200);
    assert_eq!(st.json_field("state"), "queued");
    assert_eq!(st.header("cache-control"), Some("no-store"));
    assert!(
        t0.elapsed() >= Duration::from_millis(250),
        "long-poll returned in {:?}, before its timeout",
        t0.elapsed()
    );

    // Phase changes mid-poll: the response arrives without the full wait.
    let t1 = Instant::now();
    let poller = std::thread::spawn({
        let path = format!("/v1/campaigns/{id}?watch=queued&timeout_ms=20000");
        move || get(addr, &path)
    });
    std::thread::sleep(Duration::from_millis(50));
    handle.resume();
    let st = poller.join().unwrap();
    assert_eq!(st.status, 200);
    assert_ne!(st.json_field("state"), "queued", "{}", st.body);
    assert!(
        t1.elapsed() < Duration::from_secs(20),
        "woke before timeout"
    );

    // A bad watch label is a structured 400.
    let bad = get(addr, &format!("/v1/campaigns/{id}?watch=sideways"));
    assert_eq!(bad.status, 400, "{}", bad.body);

    let _ = wait_terminal(addr, &id);
    handle.shutdown();
}

#[test]
fn high_priority_lane_overtakes_queued_batch_jobs() {
    let (handle, addr) = spawn(ServerConfig {
        start_paused: true,
        workers: 1,
        ..ServerConfig::default()
    });

    // Three batch jobs enqueued first, then one interactive job.
    let low = r#"{"program":"CP","vars":6,"masks":8,"bit_counts":[1],"priority":"low","seed":1}"#;
    let low_id = post(addr, "/v1/campaigns", low).json_field("id");
    for seed in 2..4 {
        let body = low.replace("\"seed\":1", &format!("\"seed\":{seed}"));
        assert_eq!(post(addr, "/v1/campaigns", &body).status, 201);
    }
    let high = r#"{"program":"CP","vars":6,"masks":8,"bit_counts":[1],"priority":"high"}"#;
    let high_id = post(addr, "/v1/campaigns", high).json_field("id");

    handle.resume();
    // The first job to leave "queued" must be the high-priority one, even
    // though it was submitted last.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let high_state = get(addr, &format!("/v1/campaigns/{high_id}")).json_field("state");
        let low_state = get(addr, &format!("/v1/campaigns/{low_id}")).json_field("state");
        if high_state != "queued" {
            assert_eq!(
                low_state, "queued",
                "high lane must drain before the first low job starts"
            );
            break;
        }
        assert_eq!(low_state, "queued", "low job overtook the high lane");
        assert!(Instant::now() < deadline, "nothing ever started");
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(wait_terminal(addr, &high_id), "done");
    handle.shutdown();
}

#[test]
fn client_quota_bounds_admissions_per_identity() {
    let (handle, addr) = spawn(ServerConfig {
        start_paused: true,
        client_quota: 1,
        ..ServerConfig::default()
    });
    let alice = r#"{"program":"CP","vars":6,"masks":8,"bit_counts":[1],"client":"alice"}"#;
    assert_eq!(post(addr, "/v1/campaigns", alice).status, 201);
    let over = post(addr, "/v1/campaigns", alice);
    assert_eq!(over.status, 429, "{}", over.body);
    assert!(over.header("retry-after").is_some(), "{:?}", over.headers);
    assert!(over.body.contains("client quota"), "{}", over.body);

    // A different identity (and the anonymous bucket) are unaffected.
    let bob = alice.replace("alice", "bob");
    assert_eq!(post(addr, "/v1/campaigns", &bob).status, 201);
    assert_eq!(post(addr, "/v1/campaigns", SMALL_CAMPAIGN).status, 201);

    handle.shutdown();
}

#[test]
fn worker_retry_after_propagates_through_the_coordinator() {
    // A worker that always backpressures with a 9-second horizon.
    let (worker, w_addr) = spawn(ServerConfig {
        queue_capacity: 0,
        retry_after_secs: 9,
        ..ServerConfig::default()
    });
    // Coordinator with a shorter native horizon and a 1-slot queue.
    let (coord, addr) = spawn(ServerConfig {
        queue_capacity: 1,
        retry_after_secs: 2,
        workers: 1,
        peers: vec![w_addr.to_string()],
        ..ServerConfig::default()
    });

    // The fleet campaign still completes: every shard the worker refuses
    // falls back to local execution on the coordinator.
    let sub = post(addr, "/v1/campaigns", SMALL_CAMPAIGN);
    assert_eq!(sub.status, 201, "{}", sub.body);
    let id = sub.json_field("id");
    assert_eq!(wait_terminal(addr, &id), "done");
    let res = get(addr, &format!("/v1/campaigns/{id}/result"));
    assert_eq!(res.body, in_process_summary(SMALL_CAMPAIGN));
    assert!(metric(addr, "fleet_local_fallbacks") >= 1);

    // The coordinator has now learned the fleet's horizon: its own 429s
    // advertise the worker's 9 seconds, not its native 2.
    coord.pause();
    assert_eq!(post(addr, "/v1/campaigns", SMALL_CAMPAIGN).status, 201);
    let full = post(addr, "/v1/campaigns", SMALL_CAMPAIGN);
    assert_eq!(full.status, 429, "{}", full.body);
    assert_eq!(full.header("retry-after"), Some("9"), "{:?}", full.headers);

    coord.shutdown();
    worker.shutdown();
}

#[test]
fn fleet_merge_holds_after_workers_released_finished_telemetry() {
    let (wa, wa_addr) = spawn_worker();
    let (wb, wb_addr) = spawn_worker();
    // Finish enough jobs on each worker that its oldest job's telemetry is
    // released (~240 KB per job against the 1 MiB budget).
    for w in [wa_addr, wb_addr] {
        let mut ids = Vec::new();
        for seed in 0..6 {
            let spec = format!(
                r#"{{"program":"RPES","vars":12,"masks":24,"bit_counts":[1],"seed":{seed}}}"#
            );
            let sub = post(w, "/v1/campaigns", &spec);
            assert_eq!(sub.status, 201, "{}", sub.body);
            ids.push(sub.json_field("id"));
        }
        for id in &ids {
            assert_eq!(wait_terminal(w, id), "done");
        }
        let oldest = get(w, &format!("/v1/campaigns/{}/events", ids[0]));
        assert!(
            oldest.body.contains("\"ev\":\"events_dropped\""),
            "worker {w} released nothing"
        );
    }
    // The journals of the new shard jobs still stream back whole.
    let (coord, addr) = spawn(coordinator_cfg(&[wa_addr, wb_addr]));
    let sub = post(addr, "/v1/campaigns", SMALL_CAMPAIGN);
    assert_eq!(sub.status, 201, "{}", sub.body);
    let id = sub.json_field("id");
    assert_eq!(wait_terminal(addr, &id), "done");
    let res = get(addr, &format!("/v1/campaigns/{id}/result"));
    assert_eq!(res.body, in_process_summary(SMALL_CAMPAIGN));
    assert_eq!(metric(wa_addr, "jobs_done"), 7, "worker A ran a shard");
    assert_eq!(metric(wb_addr, "jobs_done"), 7, "worker B ran a shard");
    coord.shutdown();
    wa.shutdown();
    wb.shutdown();
}
