//! Load against an in-process campaign daemon over raw HTTP.
//!
//! The daemon is started through `Server::bind`, the `serve` binary's own
//! code path, on an ephemeral loopback port. Clients open one connection
//! per request (the daemon answers `Connection: close`).

use crate::trace::Recorder;
use crate::workload::{campaign_seed, run_plain, Size, Workload};
use hauberk_serve::{JobSpec, Server, ServerConfig, ServerHandle};
use hauberk_telemetry::json;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Distinct job specs the clients cycle through.
pub const POOL: u64 = 8;

/// Daemon worker threads (the machine's two cores).
const WORKERS: usize = 2;

/// Closed-loop clients; each holds at most one connection at a time.
const CLIENTS: usize = 2;

/// Daemon start-ups probed per run; `setup_s` is their median.
const SETUP_PROBES: usize = 32;

/// Status poll interval of a submit-and-poll client.
const POLL: Duration = Duration::from_millis(10);

/// One HTTP reply.
struct Reply {
    status: u16,
    body: String,
}

fn request(addr: SocketAddr, raw: &str) -> Result<Reply, String> {
    receive(send(addr, raw)?)
}

fn send(addr: SocketAddr, raw: &str) -> Result<TcpStream, String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    s.set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;
    s.write_all(raw.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    Ok(s)
}

fn receive(mut s: TcpStream) -> Result<Reply, String> {
    let mut buf = Vec::new();
    s.read_to_end(&mut buf).map_err(|e| format!("read: {e}"))?;
    let head_end = buf
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("response without a head")?;
    let head = String::from_utf8_lossy(&buf[..head_end]);
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line: {head}"))?;
    Ok(Reply {
        status,
        body: String::from_utf8_lossy(&buf[head_end + 4..]).into_owned(),
    })
}

fn get(addr: SocketAddr, path: &str) -> Result<Reply, String> {
    request(addr, &format!("GET {path} HTTP/1.1\r\nHost: b\r\n\r\n"))
}

fn post(addr: SocketAddr, body: &str) -> Result<Reply, String> {
    request(
        addr,
        &format!(
            "POST /v1/campaigns HTTP/1.1\r\nHost: b\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

fn str_field(body: &str, key: &str) -> Result<String, String> {
    json::parse(body)
        .ok()
        .and_then(|d| d.get(key).and_then(|v| v.as_str().map(String::from)))
        .ok_or_else(|| format!("no `{key}` in {body}"))
}

/// Milliseconds since `t`.
fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn bind() -> Result<Server, String> {
    Server::bind(ServerConfig {
        workers: WORKERS,
        ..ServerConfig::default()
    })
    .map_err(|e| format!("start daemon: {e}"))
}

fn start_daemon() -> Result<ServerHandle, String> {
    bind()?.spawn().map_err(|e| format!("start daemon: {e}"))
}

/// Seconds from `Server::bind` until `/healthz` answers `200`. The request
/// is sent as soon as the listener is bound, before `Server::spawn` starts
/// the accept loop, so the loop's first `accept` finds it: the probe times
/// bind, recovery, spawn and one request, not where the request lands
/// relative to the loop's 20 ms idle sleep.
fn setup_probe() -> Result<f64, String> {
    let t = Instant::now();
    let server = bind()?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let s = send(addr, "GET /healthz HTTP/1.1\r\nHost: b\r\n\r\n")?;
    let handle = server.spawn().map_err(|e| format!("start daemon: {e}"))?;
    let reply = receive(s);
    let secs = t.elapsed().as_secs_f64();
    handle.shutdown();
    match reply? {
        r if r.status == 200 => Ok(secs),
        r => Err(format!("healthz: status {} ({})", r.status, r.body)),
    }
}

/// The job pool of a run and each job's expected result: the bytes
/// `summary_json` gives for the same spec run in-process.
pub struct JobPool {
    /// Job specs, cycled through in order.
    pub specs: Vec<JobSpec>,
    /// Expected result document of each spec.
    pub expected: Vec<String>,
    /// Work cycles the in-process runs simulated.
    pub sim_cycles: u64,
}

/// Build the [`POOL`] `serve-closed` jobs for `seed` and run each in-process
/// for its expected result.
pub fn job_pool(seed: u64) -> Result<JobPool, String> {
    let mut pool = JobPool {
        specs: Vec::new(),
        expected: Vec::new(),
        sim_cycles: 0,
    };
    for k in 0..POOL {
        let spec = Workload::ServeClosed.spec(campaign_seed(seed, k), Size::Measure);
        let (summary, cycles) = run_plain(&spec)?;
        pool.specs.push(spec);
        pool.expected.push(summary);
        pool.sim_cycles += cycles;
    }
    Ok(pool)
}

/// Timed samples of the closed-loop daemon workload.
#[derive(Debug, Default)]
pub struct ServeMeasurement {
    /// Seconds per setup probe.
    pub probes: Vec<f64>,
    /// Submit-to-result milliseconds of every job finished in the window.
    pub turnaround_ms: Vec<f64>,
    /// When each of those jobs finished, seconds since the window opened.
    pub done_s: Vec<f64>,
    /// Injections each of those jobs executed.
    pub job_injections: Vec<f64>,
    /// Length of the measured window.
    pub window_s: f64,
    /// HTTP requests sent, warm-up included.
    pub requests: u64,
    /// Unexpected statuses, 429/503 answers, failed jobs and transport
    /// errors, warm-up included.
    pub failed: u64,
    /// Result bodies that differ from the in-process run or the cached miss.
    pub problems: Vec<String>,
}

/// Counters shared by the client threads.
#[derive(Default)]
struct Tally {
    requests: AtomicU64,
    failed: AtomicU64,
    problems: Mutex<Vec<String>>,
    /// `(finished_at_s, turnaround_ms, injections)` per finished job.
    jobs: Mutex<Vec<(f64, f64, u64)>>,
}

impl Tally {
    fn problem(&self, p: String) {
        hauberk_telemetry::lock_recover(&self.problems).push(p);
    }
}

/// Probe daemon setup, then run [`CLIENTS`] closed-loop clients for
/// `warmup + seconds`; the window stretches to the last job of a loop that
/// started in it. Each loop submits the next pool job, polls its status
/// every 10 ms until done, reads and checks the result, then submits the
/// pool's first job again with `"cache": true` and checks the hit.
pub fn measure_serve(
    pool: &JobPool,
    warmup: f64,
    seconds: f64,
) -> Result<ServeMeasurement, String> {
    let mut m = ServeMeasurement::default();
    for _ in 0..SETUP_PROBES {
        m.probes.push(setup_probe()?);
    }
    let handle = start_daemon()?;
    let addr = handle.addr();
    let mut cache_spec = pool.specs[0].clone();
    cache_spec.cache = true;
    let cache_body = cache_spec.to_json().to_string();
    // One miss stores the cache entry every later loop hits.
    let warm = Tally::default();
    run_job(addr, &cache_body, &pool.expected[0], &warm, Instant::now());
    if let Some(p) = hauberk_telemetry::lock_recover(&warm.problems).first() {
        handle.shutdown();
        return Err(format!("cache warm-up job: {p}"));
    }

    let tally = Tally::default();
    let next = AtomicU64::new(0);
    let t0 = Instant::now();
    let window_start = warmup;
    let window_end = warmup + seconds;
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| loop {
                if t0.elapsed().as_secs_f64() >= window_end {
                    break;
                }
                let n = next.fetch_add(1, Ordering::Relaxed) % POOL;
                let spec = &pool.specs[n as usize];
                run_job(
                    addr,
                    &spec.to_json().to_string(),
                    &pool.expected[n as usize],
                    &tally,
                    t0,
                );
                if let Some(id) = cache_submit(addr, &cache_body, &tally) {
                    check_cached(addr, &id, &pool.expected[0], &tally);
                }
            });
        }
    });
    let elapsed = t0.elapsed().as_secs_f64();
    handle.shutdown();

    let jobs = hauberk_telemetry::lock_recover(&tally.jobs).clone();
    let last_done = jobs.iter().map(|j| j.0).fold(window_end, f64::max);
    m.window_s = last_done.min(elapsed) - window_start;
    for (done, ms, injections) in jobs {
        if done >= window_start {
            m.turnaround_ms.push(ms);
            m.done_s.push(done - window_start);
            m.job_injections.push(injections as f64);
        }
    }
    m.requests = tally.requests.load(Ordering::Relaxed);
    m.failed = tally.failed.load(Ordering::Relaxed);
    m.problems = tally.problems.into_inner().unwrap_or_default();
    Ok(m)
}

/// Count one request's reply: anything but `want` is a failure.
fn expect(tally: &Tally, reply: Result<Reply, String>, want: u16, what: &str) -> Option<Reply> {
    tally.requests.fetch_add(1, Ordering::Relaxed);
    match reply {
        Ok(r) if r.status == want => Some(r),
        Ok(r) => {
            tally.failed.fetch_add(1, Ordering::Relaxed);
            tally.problem(format!("{what}: status {} ({})", r.status, r.body));
            None
        }
        Err(e) => {
            tally.failed.fetch_add(1, Ordering::Relaxed);
            tally.problem(format!("{what}: {e}"));
            None
        }
    }
}

/// Submit, poll until done, read and check the result; records the job's
/// finish time (seconds since `t0`), turnaround and injection count.
fn run_job(addr: SocketAddr, body: &str, expected: &str, tally: &Tally, t0: Instant) {
    let t = Instant::now();
    let Some(r) = expect(tally, post(addr, body), 201, "submit") else {
        return;
    };
    let Ok(id) = str_field(&r.body, "id") else {
        return tally.problem(format!("submit reply without id: {}", r.body));
    };
    loop {
        let Some(r) = expect(
            tally,
            get(addr, &format!("/v1/campaigns/{id}")),
            200,
            "status",
        ) else {
            return;
        };
        match str_field(&r.body, "state").as_deref() {
            Ok("done") => break,
            Ok("queued" | "running") => std::thread::sleep(POLL),
            _ => {
                tally.failed.fetch_add(1, Ordering::Relaxed);
                return tally.problem(format!("job {id} ended badly: {}", r.body));
            }
        }
    }
    let path = format!("/v1/campaigns/{id}/result");
    let Some(r) = expect(tally, get(addr, &path), 200, "result") else {
        return;
    };
    let turnaround = ms_since(t);
    if r.body != expected {
        return tally.problem(format!("job {id}: result differs from the in-process run"));
    }
    let injections = json::parse(&r.body)
        .ok()
        .and_then(|d| d.get("executed").and_then(|v| v.as_u64()))
        .unwrap_or(0);
    hauberk_telemetry::lock_recover(&tally.jobs).push((
        t0.elapsed().as_secs_f64(),
        turnaround,
        injections,
    ));
}

/// Submit the cached spec, which must be answered from the result cache;
/// returns the hit's job id.
fn cache_submit(addr: SocketAddr, body: &str, tally: &Tally) -> Option<String> {
    let r = expect(tally, post(addr, body), 201, "cache submit")?;
    if !r.body.contains("\"cached\":true") {
        tally.problem(format!("expected a cache hit: {}", r.body));
        return None;
    }
    let id = str_field(&r.body, "id");
    if id.is_err() {
        tally.problem(format!("cache reply without id: {}", r.body));
    }
    id.ok()
}

/// Check that cache hit `id` serves the bytes of the original miss.
fn check_cached(addr: SocketAddr, id: &str, expected: &str, tally: &Tally) {
    let path = format!("/v1/campaigns/{id}/result");
    if expect(tally, get(addr, &path), 200, "cache result").is_some_and(|r| r.body != expected) {
        tally.problem(format!("cache hit {id} differs from its miss"));
    }
}

/// Send `jobs` jobs of `pool` to a fresh daemon from one client, one at a
/// time, recording a span per request phase (job `j` is owner `1000 + j`):
/// `serve.job` from submit until the result is read, with children
/// `serve.submit`, `serve.queue` (long-poll until the job left the queue),
/// `serve.exec` (long-poll until it finished) and `serve.result`; then,
/// outside it, `serve.healthz`, `serve.status`, `serve.cache_hit` and
/// `serve.inprocess` (the same spec run in-process); `serve.cache_hit`
/// covers the cached submit only. Returns the problems
/// found while checking results.
pub fn serve_phases(
    pool: &JobPool,
    jobs: usize,
    rec: &mut Recorder,
) -> Result<Vec<String>, String> {
    let handle = start_daemon()?;
    let tally = Tally::default();
    let result = time_phases(handle.addr(), pool, jobs, rec, &tally);
    handle.shutdown();
    result.map(|()| tally.problems.into_inner().unwrap_or_default())
}

fn time_phases(
    addr: SocketAddr,
    pool: &JobPool,
    jobs: usize,
    rec: &mut Recorder,
    tally: &Tally,
) -> Result<(), String> {
    let mut cache_spec = pool.specs[0].clone();
    cache_spec.cache = true;
    let cache_body = cache_spec.to_json().to_string();
    run_job(addr, &cache_body, &pool.expected[0], tally, Instant::now());

    for j in 0..jobs {
        let n = j % pool.specs.len();
        let id = 1000 + j as u64;
        let body = pool.specs[n].to_json().to_string();
        rec.enter("serve.job", id);
        let (r, _) = rec.time("serve.submit", id, || post(addr, &body));
        let Some(job) = expect(tally, r, 201, "submit").and_then(|r| str_field(&r.body, "id").ok())
        else {
            rec.exit();
            tally.problem(format!("job {j} was not accepted"));
            continue;
        };
        let watch = |state: &str| format!("/v1/campaigns/{job}?watch={state}&timeout_ms=30000");
        let (r, _) = rec.time("serve.queue", id, || get(addr, &watch("queued")));
        expect(tally, r, 200, "watch queued");
        let (r, _) = rec.time("serve.exec", id, || get(addr, &watch("running")));
        expect(tally, r, 200, "watch running");
        let path = format!("/v1/campaigns/{job}/result");
        let (r, _) = rec.time("serve.result", id, || get(addr, &path));
        rec.exit();
        if expect(tally, r, 200, "result").is_none_or(|r| r.body != pool.expected[n]) {
            tally.problem(format!("job {job}: result differs from the in-process run"));
        }

        let (r, _) = rec.time("serve.healthz", id, || get(addr, "/healthz"));
        expect(tally, r, 200, "healthz");
        let status = format!("/v1/campaigns/{job}");
        let (r, _) = rec.time("serve.status", id, || get(addr, &status));
        expect(tally, r, 200, "status");
        let (hit, _) = rec.time("serve.cache_hit", id, || {
            cache_submit(addr, &cache_body, tally)
        });
        if let Some(hit) = hit {
            check_cached(addr, &hit, &pool.expected[0], tally);
        }
        let (summary, _) = rec.time("serve.inprocess", id, || run_plain(&pool.specs[n]));
        if summary?.0 != pool.expected[n] {
            tally.problem(format!("in-process run of job {n} is not deterministic"));
        }
    }
    Ok(())
}
