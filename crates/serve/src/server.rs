//! The daemon: listener, bounded job queue, worker pool, and route handlers.
//!
//! The flow is `TcpListener → per-connection thread (capped) → route →
//! bounded queue → worker pool → swifi orchestrator → journal/result files`.
//! Every stage is bounded: connections beyond [`ServerConfig::max_connections`]
//! get 503, submissions beyond [`ServerConfig::queue_capacity`] get 429 with
//! `Retry-After`, bodies beyond [`ServerConfig::max_body_bytes`] get 413
//! before being read, and a worker that panics inside a campaign marks the
//! job failed and keeps serving.
//!
//! With a state directory configured, every accepted job persists its spec,
//! its orchestrator journal, and (on completion) the exact result bytes, so
//! a restarted daemon serves finished results immediately and resumes
//! interrupted jobs from their journals.

use crate::fleet::{run_fleet_campaign, FleetEnv};
use crate::http::{self, ChunkedWriter, Limits, RecvError, Request};
use crate::jobs::{FinishedLogs, Job, JobEventSink, JobPhase, JobSpec};
use hauberk_swifi::orchestrator::CANCELED;
use hauberk_telemetry::json::{parse_with_limits, Json, ParseLimits};
use hauberk_telemetry::metrics::{to_prometheus, Registry};
use hauberk_telemetry::{lock_recover, Telemetry};
use std::collections::{BTreeMap, VecDeque};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address (`"127.0.0.1:0"` picks an ephemeral port).
    pub addr: String,
    /// Campaign worker threads.
    pub workers: usize,
    /// Jobs admitted beyond the running ones; the backpressure bound.
    pub queue_capacity: usize,
    /// Request body cap (shared by the HTTP layer and the JSON parser).
    pub max_body_bytes: usize,
    /// Per-connection socket read timeout (slow-loris bound).
    pub read_timeout: Duration,
    /// Per-connection socket write timeout (stuck-client bound).
    pub write_timeout: Duration,
    /// Concurrent connection threads; beyond this, 503.
    pub max_connections: usize,
    /// Where specs/journals/results persist. `None` = fully in-memory.
    pub state_dir: Option<PathBuf>,
    /// `Retry-After` seconds advertised on 429.
    pub retry_after_secs: u64,
    /// Start with the worker pool paused (tests use this to fill the queue
    /// deterministically); release with [`ServerHandle::resume`].
    pub start_paused: bool,
    /// Peer daemon addresses. Non-empty makes this daemon a fleet
    /// coordinator: plain submissions are split into `peers + 1` shard jobs
    /// and dispatched (see [`crate::fleet`]).
    pub peers: Vec<String>,
    /// Per-client admission cap: at most this many non-terminal jobs per
    /// `client` value at once (`0` = unlimited). Anonymous submissions
    /// share one bucket.
    pub client_quota: usize,
    /// Result-cache entry cap (`0` = uncapped). Beyond it the least
    /// recently *hit* entry is evicted, and its persisted
    /// `<key>.cache.json` is removed from the state directory.
    pub cache_max_entries: usize,
    /// Result-cache byte cap over stored result bodies (`0` = uncapped);
    /// same LRU eviction as [`ServerConfig::cache_max_entries`].
    pub cache_max_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_capacity: 16,
            max_body_bytes: 1 << 20,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(30),
            max_connections: 64,
            state_dir: None,
            retry_after_secs: 2,
            start_paused: false,
            peers: Vec::new(),
            client_quota: 0,
            cache_max_entries: 256,
            cache_max_bytes: 16 << 20,
        }
    }
}

/// One cached result document with its LRU stamp.
#[derive(Debug)]
struct CacheEntry {
    body: String,
    last_hit: u64,
}

/// The content-addressed result cache behind `"cache": true` submissions,
/// bounded by an entry-count and a byte cap. Eviction is LRU by last hit
/// (a hit refreshes the stamp); evicted keys are returned to the caller,
/// which owns deleting the persisted `<key>.cache.json` files.
#[derive(Debug, Default)]
struct ResultCache {
    entries: BTreeMap<String, CacheEntry>,
    bytes: usize,
    clock: u64,
}

impl ResultCache {
    fn len(&self) -> usize {
        self.entries.len()
    }

    fn bytes(&self) -> usize {
        self.bytes
    }

    /// Look up a key, refreshing its LRU stamp on a hit.
    fn get(&mut self, key: &str) -> Option<String> {
        self.clock += 1;
        let clock = self.clock;
        self.entries.get_mut(key).map(|e| {
            e.last_hit = clock;
            e.body.clone()
        })
    }

    /// Store a result body and evict down to the caps (`0` = uncapped),
    /// returning the evicted keys (possibly including the one just stored,
    /// if it alone exceeds the byte cap).
    fn insert(
        &mut self,
        key: String,
        body: String,
        max_entries: usize,
        max_bytes: usize,
    ) -> Vec<String> {
        self.clock += 1;
        let entry = CacheEntry {
            body,
            last_hit: self.clock,
        };
        self.bytes += entry.body.len();
        if let Some(old) = self.entries.insert(key, entry) {
            self.bytes -= old.body.len();
        }
        let mut evicted = Vec::new();
        let over = |c: &ResultCache| {
            (max_entries > 0 && c.entries.len() > max_entries)
                || (max_bytes > 0 && c.bytes > max_bytes)
        };
        while over(self) {
            let Some(lru) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_hit)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            if let Some(e) = self.entries.remove(&lru) {
                self.bytes -= e.body.len();
            }
            evicted.push(lru);
        }
        evicted
    }
}

/// The bounded submission queue: one FIFO lane per [`crate::jobs::Priority`]
/// level, drained highest lane first. The capacity bound spans all lanes —
/// priority changes *order*, never admission.
#[derive(Debug, Default)]
struct Lanes {
    lanes: [VecDeque<Arc<Job>>; 3],
}

impl Lanes {
    fn len(&self) -> usize {
        self.lanes.iter().map(VecDeque::len).sum()
    }

    fn push(&mut self, job: Arc<Job>) {
        self.lanes[job.spec.priority.lane()].push_back(job);
    }

    fn pop(&mut self) -> Option<Arc<Job>> {
        self.lanes.iter_mut().find_map(VecDeque::pop_front)
    }

    fn drain_all(&mut self) -> Vec<Arc<Job>> {
        self.lanes.iter_mut().flat_map(|l| l.drain(..)).collect()
    }

    /// Age of the stalest queued job across all lanes (the queue-age gauge).
    fn oldest_age_secs(&self) -> f64 {
        self.lanes
            .iter()
            .filter_map(|l| l.front())
            .map(|j| j.queued_for().as_secs_f64())
            .fold(0.0, f64::max)
    }
}

/// Shared daemon state.
struct Inner {
    cfg: ServerConfig,
    jobs: Mutex<BTreeMap<String, Arc<Job>>>,
    queue: Mutex<Lanes>,
    /// Wakes workers on enqueue, pause-release, and shutdown.
    work: Condvar,
    shutdown: AtomicBool,
    paused: AtomicBool,
    next_id: AtomicU64,
    conns: AtomicUsize,
    metrics: Registry,
    /// Daemon start (uptime gauge).
    started: Instant,
    /// Workers currently executing a campaign (occupancy gauge).
    busy: AtomicUsize,
    /// Trace-id sequence; mixed with `trace_seed` per request.
    next_trace: AtomicU64,
    /// Process-unique salt so trace ids differ across daemon restarts.
    trace_seed: u64,
    /// Content-addressed result cache: [`JobSpec::cache_key`] → the exact
    /// result bytes. Only `"cache": true` submissions read or write it.
    cache: Mutex<ResultCache>,
    /// Max `Retry-After` seconds seen from backpressuring workers; folded
    /// into this daemon's own 429s so the advertised horizon is coherent
    /// across the fleet.
    worker_retry_after: AtomicU64,
    /// Process-wide daemon ordinal. Job ids restart at `cj-1` per daemon,
    /// so anything keyed on (pid, job id) — the temp journal paths — must
    /// also mix this in when several daemons share one process (tests,
    /// loopback fleets).
    instance: u64,
    /// Where [`Inner::request_shutdown`] connects to wake the blocked
    /// `accept`: the bound port, on loopback when bound to a wildcard.
    wake_addr: SocketAddr,
    /// Finished jobs' telemetry lines under one daemon-wide byte budget.
    finished: Mutex<FinishedLogs>,
}

/// Source of [`Inner::instance`].
static INSTANCES: AtomicU64 = AtomicU64::new(0);

impl Inner {
    fn job(&self, id: &str) -> Option<Arc<Job>> {
        lock_recover(&self.jobs).get(id).cloned()
    }

    /// A fresh request trace id (`ht-<16 hex>`): a splitmix64 step over a
    /// per-process seed and a counter — unique within the process, very
    /// unlikely to collide across restarts, and requiring no RNG dependency.
    fn fresh_trace(&self) -> String {
        let n = self.next_trace.fetch_add(1, Ordering::Relaxed);
        let mut z = self
            .trace_seed
            .wrapping_add(n.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        format!("ht-{:016x}", z ^ (z >> 31))
    }

    fn state_path(&self, id: &str, suffix: &str) -> Option<PathBuf> {
        self.cfg
            .state_dir
            .as_ref()
            .map(|d| d.join(format!("{id}.{suffix}")))
    }

    fn persist(&self, id: &str, suffix: &str, contents: &str) {
        if let Some(path) = self.state_path(id, suffix) {
            // Write-then-rename so a crash mid-write never leaves a torn
            // document where the recovery scan expects valid JSON.
            let tmp = path.with_extension("tmp");
            if std::fs::write(&tmp, contents).is_ok() {
                let _ = std::fs::rename(&tmp, &path);
            }
        }
    }

    /// Insert into the result cache under the configured caps, deleting the
    /// persisted `<key>.cache.json` of anything the insert evicted so a
    /// restart cannot resurrect entries the caps already expelled.
    fn cache_store(&self, key: String, body: String) {
        let evicted = lock_recover(&self.cache).insert(
            key,
            body,
            self.cfg.cache_max_entries,
            self.cfg.cache_max_bytes,
        );
        if !evicted.is_empty() {
            self.metrics.incr("cache_evicted", evicted.len() as u64);
            for k in evicted {
                if let Some(path) = self.state_path(&k, "cache.json") {
                    let _ = std::fs::remove_file(path);
                }
            }
        }
    }

    fn enqueue(&self, job: Arc<Job>) {
        lock_recover(&self.queue).push(job);
        self.work.notify_all();
    }

    /// The `Retry-After` this daemon advertises on 429: never shorter than
    /// what its own workers last advertised to it (fleet coherence).
    fn retry_after(&self) -> u64 {
        self.cfg
            .retry_after_secs
            .max(self.worker_retry_after.load(Ordering::SeqCst))
    }

    /// Worker loop: pop → run → record, until shutdown drains the queue.
    /// A job canceled while still queued is skipped here, not executed.
    fn worker_loop(&self) {
        loop {
            let job = {
                let mut q = lock_recover(&self.queue);
                loop {
                    if self.shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    if !self.paused.load(Ordering::SeqCst) {
                        if let Some(job) = q.pop() {
                            break job;
                        }
                    }
                    let (g, _) = self
                        .work
                        .wait_timeout(q, Duration::from_millis(100))
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    q = g;
                }
            };
            if job.phase().terminal() {
                continue; // canceled while queued
            }
            self.busy.fetch_add(1, Ordering::SeqCst);
            self.run_job(&job);
            self.busy.fetch_sub(1, Ordering::SeqCst);
            lock_recover(&self.finished).retire(job);
        }
    }

    /// Execute one campaign. Panics inside the campaign (hostile kernel,
    /// simulator divergence past the retry budget) are caught here so the
    /// worker — and the daemon — outlive the job. A coordinator daemon
    /// (non-empty `peers`) runs un-sharded submissions through the fleet
    /// fabric instead of its own orchestrator.
    fn run_job(&self, job: &Arc<Job>) {
        if job.stop_requested() {
            // DELETE raced the worker pop: honor it without starting.
            job.cancel();
            self.metrics.incr("jobs_canceled", 1);
            return;
        }
        job.start();
        self.metrics.incr("jobs_started", 1);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if !self.cfg.peers.is_empty() && job.spec.shard.is_none() {
                let scratch = self.state_path(&job.id, "fleet").unwrap_or_else(|| {
                    std::env::temp_dir().join(format!(
                        "hauberk-fleet-{}-{}-{}",
                        std::process::id(),
                        self.instance,
                        job.id
                    ))
                });
                return run_fleet_campaign(
                    job,
                    &FleetEnv {
                        peers: &self.cfg.peers,
                        scratch,
                        metrics: &self.metrics,
                        worker_retry_after: &self.worker_retry_after,
                        http_timeout: self.cfg.read_timeout.max(Duration::from_secs(2)),
                    },
                );
            }
            // `emit_journal` needs a journal file even on a stateless
            // daemon; a temp path (cleaned up below) serves the transport.
            let journal = self.state_path(&job.id, "journal.jsonl").or_else(|| {
                job.spec.emit_journal.then(|| {
                    std::env::temp_dir().join(format!(
                        "hauberk-{}-{}-{}.journal.jsonl",
                        std::process::id(),
                        self.instance,
                        job.id
                    ))
                })
            });
            let tele =
                Telemetry::new(Arc::new(JobEventSink::new(job.clone()))).with_spans(job.spec.spans);
            let resume = journal.as_ref().is_some_and(|p| p.exists());
            let summary = job
                .spec
                .run(journal.as_deref(), resume, Some(job.stop_flag()), tele)?
                .summary_json()
                .to_string();
            // Journal transport: push the finished journal into the event
            // log *before* the job turns terminal, so a coordinator that
            // sees "done" is guaranteed the complete stream.
            if job.spec.emit_journal {
                if let Some(path) = &journal {
                    if let Ok(raw) = std::fs::read_to_string(path) {
                        for line in raw.lines().filter(|l| !l.trim().is_empty()) {
                            job.push_journal_line(line);
                        }
                    }
                    if self.cfg.state_dir.is_none() {
                        let _ = std::fs::remove_file(path);
                    }
                }
            }
            Ok(summary)
        }));
        match outcome {
            Ok(Ok(summary)) => {
                self.persist(&job.id, "result.json", &summary);
                if job.spec.cache {
                    let key = job.spec.cache_key();
                    self.persist(&key, "cache.json", &summary);
                    self.cache_store(key, summary.clone());
                    self.metrics.incr("cache_stored", 1);
                }
                job.finish(summary);
                self.metrics.incr("jobs_done", 1);
            }
            Ok(Err(err)) if err.contains(CANCELED) => {
                // Cancellation is not failure: no `failed.json` is written,
                // so a restarted daemon re-queues the job and its journal
                // resumes from the units that already ran.
                job.cancel();
                self.metrics.incr("jobs_canceled", 1);
            }
            Ok(Err(err)) => {
                self.record_failure(job, err);
            }
            Err(panic) => {
                let msg = panic_message(panic);
                self.record_failure(job, format!("campaign panicked: {msg}"));
            }
        }
    }

    fn record_failure(&self, job: &Arc<Job>, err: String) {
        let doc = Json::obj([("error", Json::str(err.clone()))]).to_string();
        // Persisting the failure prevents a crash-loop: the recovery scan
        // sees `<id>.failed.json` and does NOT re-enqueue the job.
        self.persist(&job.id, "failed.json", &doc);
        job.fail(err);
        self.metrics.incr("jobs_failed", 1);
    }
}

fn panic_message(panic: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// A bound daemon, ready to [`Server::run`].
pub struct Server {
    listener: TcpListener,
    inner: Arc<Inner>,
}

/// Control handle for a daemon running on background threads.
pub struct ServerHandle {
    inner: Arc<Inner>,
    addr: SocketAddr,
    join: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Release a [`ServerConfig::start_paused`] worker pool.
    pub fn resume(&self) {
        self.inner.paused.store(false, Ordering::SeqCst);
        self.inner.work.notify_all();
    }

    /// Pause the worker pool again: running jobs finish, queued jobs wait.
    /// Tests use resume/pause pairs to stage the queue deterministically.
    pub fn pause(&self) {
        self.inner.paused.store(true, Ordering::SeqCst);
    }

    /// Request shutdown and wait for in-flight jobs to drain.
    pub fn shutdown(self) {
        self.inner.request_shutdown();
        for j in self.join {
            let _ = j.join();
        }
    }
}

impl Inner {
    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.work.notify_all();
        // The accept loop blocks in `accept`; one loopback connection wakes
        // it, and it drops that connection once it sees the flag.
        let _ = TcpStream::connect_timeout(&self.wake_addr, Duration::from_secs(1));
        // Jobs still queued will not run in this process lifetime; their
        // specs are on disk (when persistence is on), so a restart re-queues
        // them. Mark them so clients polling status see a truthful state.
        let canceled: Vec<Arc<Job>> = lock_recover(&self.queue).drain_all();
        for job in canceled {
            job.cancel();
        }
    }
}

impl Server {
    /// Bind the listener, recover persisted jobs, and prepare the pool.
    pub fn bind(cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let wake_addr = loopback_for(listener.local_addr()?);
        let inner = Arc::new(Inner {
            paused: AtomicBool::new(cfg.start_paused),
            cfg,
            jobs: Mutex::new(BTreeMap::new()),
            queue: Mutex::new(Lanes::default()),
            work: Condvar::new(),
            shutdown: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            conns: AtomicUsize::new(0),
            metrics: Registry::new(),
            started: Instant::now(),
            busy: AtomicUsize::new(0),
            next_trace: AtomicU64::new(0),
            trace_seed: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0)
                ^ (std::process::id() as u64) << 32,
            cache: Mutex::new(ResultCache::default()),
            worker_retry_after: AtomicU64::new(0),
            instance: INSTANCES.fetch_add(1, Ordering::SeqCst),
            wake_addr,
            finished: Mutex::new(FinishedLogs::default()),
        });
        recover_state(&inner);
        Ok(Server { listener, inner })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// External shutdown trigger for [`Server::run`] (the binary connects
    /// its signal handler to this).
    pub fn shutdown_flag(&self) -> Arc<dyn Fn() + Send + Sync> {
        let inner = self.inner.clone();
        Arc::new(move || inner.request_shutdown())
    }

    /// Run the daemon on background threads; returns a control handle.
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let Server { listener, inner } = self;
        let mut join = spawn_workers(&inner);
        let accept_inner = inner.clone();
        join.push(std::thread::spawn(move || {
            accept_loop(&listener, &accept_inner);
        }));
        Ok(ServerHandle { inner, addr, join })
    }

    /// Run the daemon on the calling thread until shutdown is requested
    /// (via the closure from [`Server::shutdown_flag`]), then drain.
    pub fn run(self) {
        let workers = spawn_workers(&self.inner);
        accept_loop(&self.listener, &self.inner);
        for j in workers {
            let _ = j.join();
        }
    }
}

fn spawn_workers(inner: &Arc<Inner>) -> Vec<std::thread::JoinHandle<()>> {
    (0..inner.cfg.workers.max(1))
        .map(|_| {
            let inner = inner.clone();
            std::thread::spawn(move || inner.worker_loop())
        })
        .collect()
}

/// The address that reaches a listener bound to `bound` from this host:
/// the same port, on loopback when the listener took a wildcard address.
fn loopback_for(bound: SocketAddr) -> SocketAddr {
    let mut addr = bound;
    match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => addr.set_ip(Ipv4Addr::LOCALHOST.into()),
        IpAddr::V6(ip) if ip.is_unspecified() => addr.set_ip(Ipv6Addr::LOCALHOST.into()),
        _ => {}
    }
    addr
}

/// Blocking accept until shutdown. [`Inner::request_shutdown`] wakes the
/// blocked `accept` with a loopback connection, which is dropped here once
/// the flag is set. Only a failing `accept` (say, out of descriptors) backs
/// off briefly before retrying.
fn accept_loop(listener: &TcpListener, inner: &Arc<Inner>) {
    while !inner.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok(_) if inner.shutdown.load(Ordering::SeqCst) => break,
            Ok((stream, _)) => {
                if inner.conns.load(Ordering::SeqCst) >= inner.cfg.max_connections {
                    inner.metrics.incr("http_rejected_overload", 1);
                    let mut s = stream;
                    let _ = http::write_response(
                        &mut s,
                        503,
                        "application/json",
                        &[],
                        br#"{"error":"connection limit reached"}"#,
                    );
                    continue;
                }
                inner.conns.fetch_add(1, Ordering::SeqCst);
                let inner = inner.clone();
                std::thread::spawn(move || {
                    handle_connection(stream, &inner);
                    inner.conns.fetch_sub(1, Ordering::SeqCst);
                });
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Recovery scan over the state directory: finished jobs serve their
/// persisted results, failed jobs stay failed (no crash-loop), and jobs
/// with only a spec re-enter the queue, where the orchestrator journal
/// replays whatever already ran.
fn recover_state(inner: &Arc<Inner>) {
    let Some(dir) = inner.cfg.state_dir.clone() else {
        return;
    };
    let _ = std::fs::create_dir_all(&dir);
    // Cache entries persist as `<fnv1a-key>.cache.json`; reloading them
    // lets a restarted daemon keep answering hits without re-execution.
    // Reloading goes through `cache_store` so a cap lowered across the
    // restart immediately trims the persisted backlog.
    if let Ok(entries) = std::fs::read_dir(&dir) {
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().to_string();
            let Some(key) = name.strip_suffix(".cache.json") else {
                continue;
            };
            if key.len() == 16 && key.chars().all(|c| c.is_ascii_hexdigit()) {
                if let Ok(body) = std::fs::read_to_string(entry.path()) {
                    inner.cache_store(key.to_string(), body);
                }
            }
        }
    }
    let mut max_id = 0u64;
    let mut specs: Vec<(u64, String, PathBuf)> = Vec::new();
    if let Ok(entries) = std::fs::read_dir(&dir) {
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().to_string();
            let Some(id) = name.strip_suffix(".spec.json") else {
                continue;
            };
            let Some(n) = id.strip_prefix("cj-").and_then(|n| n.parse::<u64>().ok()) else {
                continue;
            };
            max_id = max_id.max(n);
            specs.push((n, id.to_string(), entry.path()));
        }
    }
    specs.sort();
    inner.next_id.store(max_id + 1, Ordering::SeqCst);
    for (_, id, spec_path) in specs {
        let Ok(raw) = std::fs::read_to_string(&spec_path) else {
            continue;
        };
        let spec = parse_with_limits(&raw, ParseLimits::default())
            .map_err(|e| e.to_string())
            .and_then(|doc| JobSpec::from_json(&doc));
        let spec = match spec {
            Ok(s) => s,
            Err(e) => {
                eprintln!(
                    "serve: skipping unreadable spec {}: {e}",
                    spec_path.display()
                );
                continue;
            }
        };
        let result = inner
            .state_path(&id, "result.json")
            .and_then(|p| std::fs::read_to_string(p).ok());
        let failed = inner
            .state_path(&id, "failed.json")
            .and_then(|p| std::fs::read_to_string(p).ok());
        let job = if let Some(summary) = result {
            Job::recovered(id.clone(), spec, Ok(summary))
        } else if let Some(doc) = failed {
            let msg = parse_with_limits(&doc, ParseLimits::default())
                .ok()
                .and_then(|j| j.get("error").and_then(|e| e.as_str().map(String::from)))
                .unwrap_or(doc);
            Job::recovered(id.clone(), spec, Err(msg))
        } else {
            let job = Job::new(id.clone(), spec);
            inner.enqueue(job.clone());
            inner.metrics.incr("jobs_recovered", 1);
            job
        };
        lock_recover(&inner.jobs).insert(id, job);
    }
}

/// The `X-Hauberk-Trace` header every response carries.
fn trace_header(trace: &str) -> (&'static str, String) {
    ("X-Hauberk-Trace", trace.to_string())
}

fn respond_json(stream: &mut TcpStream, status: u16, doc: &Json, trace: &str) {
    let _ = http::write_response(
        stream,
        status,
        "application/json",
        &[trace_header(trace)],
        doc.to_string().as_bytes(),
    );
}

fn error_json(stream: &mut TcpStream, status: u16, msg: &str, trace: &str) {
    respond_json(
        stream,
        status,
        &Json::obj([("error", Json::str(msg))]),
        trace,
    );
}

fn handle_connection(mut stream: TcpStream, inner: &Arc<Inner>) {
    let t_req = Instant::now();
    let trace = inner.fresh_trace();
    let _ = stream.set_read_timeout(Some(inner.cfg.read_timeout));
    let _ = stream.set_write_timeout(Some(inner.cfg.write_timeout));
    let limits = Limits {
        max_body_bytes: inner.cfg.max_body_bytes,
        ..Limits::default()
    };
    let req = match http::read_request(&mut stream, &limits) {
        Ok(req) => req,
        Err(RecvError::Closed) => return,
        Err(RecvError::Timeout) => {
            inner.metrics.incr("http_timeouts", 1);
            return error_json(&mut stream, 408, "request timed out", &trace);
        }
        Err(RecvError::BodyTooLarge { limit }) => {
            inner.metrics.incr("http_oversized", 1);
            return error_json(
                &mut stream,
                413,
                &format!("body exceeds the {limit}-byte limit"),
                &trace,
            );
        }
        Err(RecvError::Malformed(msg)) => {
            inner.metrics.incr("http_malformed", 1);
            return error_json(&mut stream, 400, &msg, &trace);
        }
    };
    // A client may pin its own trace id; anything unfit for a response
    // header falls back to the generated one.
    let trace = match req.header("x-hauberk-trace") {
        Some(t) if !t.is_empty() && t.len() <= 128 && t.chars().all(|c| c.is_ascii_graphic()) => {
            t.to_string()
        }
        _ => trace,
    };
    inner.metrics.incr("http_requests", 1);
    let endpoint = route(&mut stream, &req, inner, &trace);
    inner.metrics.observe(
        &format!("http_latency_us.{endpoint}"),
        t_req.elapsed().as_micros() as u64,
    );
}

/// Dispatch one request; returns the endpoint label used as the per-endpoint
/// latency histogram key.
fn route(stream: &mut TcpStream, req: &Request, inner: &Arc<Inner>, trace: &str) -> &'static str {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => {
            handle_healthz(stream, inner, trace);
            "healthz"
        }
        ("GET", ["metrics"]) => {
            handle_metrics(stream, req, inner, trace);
            "metrics"
        }
        ("POST", ["v1", "campaigns"]) => {
            handle_submit(stream, req, inner, trace);
            "submit"
        }
        ("GET", ["v1", "campaigns", id]) => {
            match inner.job(id) {
                Some(job) => handle_status(stream, req, &job, inner, trace),
                None => error_json(stream, 404, "no such campaign", trace),
            }
            "status"
        }
        ("DELETE", ["v1", "campaigns", id]) => {
            match inner.job(id) {
                Some(job) => handle_cancel(stream, &job, inner, trace),
                None => error_json(stream, 404, "no such campaign", trace),
            }
            "cancel"
        }
        ("GET", ["v1", "campaigns", id, "events"]) => {
            match inner.job(id) {
                Some(job) => handle_events(stream, &job, inner, trace),
                None => error_json(stream, 404, "no such campaign", trace),
            }
            "events"
        }
        ("GET", ["v1", "campaigns", id, "result"]) => {
            match inner.job(id) {
                Some(job) => handle_result(stream, &job, trace),
                None => error_json(stream, 404, "no such campaign", trace),
            }
            "result"
        }
        (_, ["healthz" | "metrics"]) | (_, ["v1", "campaigns", ..]) => {
            error_json(stream, 405, "method not allowed", trace);
            "other"
        }
        _ => {
            error_json(stream, 404, "no such route", trace);
            "other"
        }
    }
}

/// `GET /healthz`: liveness plus enough occupancy detail for a one-glance
/// triage — build version, uptime, worker/queue saturation.
fn handle_healthz(stream: &mut TcpStream, inner: &Arc<Inner>, trace: &str) {
    let doc = Json::obj([
        ("status", Json::str("ok")),
        ("version", Json::str(env!("CARGO_PKG_VERSION"))),
        ("uptime_secs", Json::uint(inner.started.elapsed().as_secs())),
        ("workers", Json::uint(inner.cfg.workers.max(1) as u64)),
        (
            "busy_workers",
            Json::uint(inner.busy.load(Ordering::SeqCst) as u64),
        ),
        (
            "queue_depth",
            Json::uint(lock_recover(&inner.queue).len() as u64),
        ),
        (
            "queue_capacity",
            Json::uint(inner.cfg.queue_capacity as u64),
        ),
        ("peers", Json::uint(inner.cfg.peers.len() as u64)),
    ]);
    let _ = http::write_response(
        stream,
        200,
        "application/json",
        &[
            ("Cache-Control", "no-store".to_string()),
            trace_header(trace),
        ],
        doc.to_string().as_bytes(),
    );
}

fn handle_submit(stream: &mut TcpStream, req: &Request, inner: &Arc<Inner>, trace: &str) {
    let body = match std::str::from_utf8(&req.body) {
        Ok(b) => b,
        Err(_) => return error_json(stream, 400, "body is not UTF-8", trace),
    };
    let parse_limits = ParseLimits {
        max_bytes: inner.cfg.max_body_bytes,
        ..ParseLimits::default()
    };
    let doc = match parse_with_limits(body, parse_limits) {
        Ok(doc) => doc,
        Err(e) => return error_json(stream, 400, &format!("invalid JSON: {e}"), trace),
    };
    let mut spec = match JobSpec::from_json(&doc) {
        Ok(spec) => spec,
        Err(e) => {
            inner.metrics.incr("submit_rejected", 1);
            return error_json(stream, 400, &e, trace);
        }
    };
    // The request's trace id follows the job: it is persisted in the spec
    // and stamped onto the campaign's root span, so the response header, the
    // job spec, and every span in the event stream correlate.
    if spec.trace.is_none() {
        spec.trace = Some(trace.to_string());
    }

    // Content-addressed cache: an identical opted-in spec already ran, so
    // answer with the stored bytes as an instantly-done job — no queue slot,
    // no execution. Soundness rests on campaign determinism (DESIGN §18).
    if spec.cache {
        let key = spec.cache_key();
        // `get` refreshes the entry's LRU stamp, keeping hot entries alive
        // under the entry-count / byte caps.
        let hit = lock_recover(&inner.cache).get(&key);
        if let Some(body) = hit {
            inner.metrics.incr("cache_hits", 1);
            let id = format!("cj-{}", inner.next_id.fetch_add(1, Ordering::SeqCst));
            let job = Job::new(id, spec);
            inner.persist(&job.id, "spec.json", &job.spec.to_json().to_string());
            inner.persist(&job.id, "result.json", &body);
            job.finish(body);
            lock_recover(&inner.jobs).insert(job.id.clone(), job.clone());
            inner.metrics.incr("submit_accepted", 1);
            return respond_json(
                stream,
                201,
                &Json::obj([
                    ("id", Json::str(job.id.clone())),
                    ("state", Json::str(job.phase().label())),
                    ("cached", Json::Bool(true)),
                    (
                        "trace",
                        Json::str(job.spec.trace.clone().unwrap_or_default()),
                    ),
                ]),
                trace,
            );
        }
        inner.metrics.incr("cache_misses", 1);
    }

    // Per-client quota: bound how much of the daemon one identity can hold
    // at once (non-terminal jobs; anonymous submissions share a bucket).
    if inner.cfg.client_quota > 0 {
        let bucket = spec.client.clone().unwrap_or_default();
        let held = lock_recover(&inner.jobs)
            .values()
            .filter(|j| {
                j.spec.client.clone().unwrap_or_default() == bucket && !j.phase().terminal()
            })
            .count();
        if held >= inner.cfg.client_quota {
            inner.metrics.incr("submit_quota_rejected", 1);
            let doc = Json::obj([(
                "error",
                Json::str(format!(
                    "client quota reached ({} active jobs); retry later",
                    inner.cfg.client_quota
                )),
            )]);
            let _ = http::write_response(
                stream,
                429,
                "application/json",
                &[
                    ("Retry-After", inner.retry_after().to_string()),
                    trace_header(trace),
                ],
                doc.to_string().as_bytes(),
            );
            return;
        }
    }

    // Admission control under the queue lock so capacity is exact: two
    // racing submissions cannot both squeeze into the last slot.
    let job = {
        let mut q = lock_recover(&inner.queue);
        if q.len() >= inner.cfg.queue_capacity {
            inner.metrics.incr("submit_backpressured", 1);
            drop(q);
            let retry = inner.retry_after().to_string();
            let doc = Json::obj([("error", Json::str("job queue is full; retry later"))]);
            let _ = http::write_response(
                stream,
                429,
                "application/json",
                &[("Retry-After", retry), trace_header(trace)],
                doc.to_string().as_bytes(),
            );
            return;
        }
        let id = format!("cj-{}", inner.next_id.fetch_add(1, Ordering::SeqCst));
        let job = Job::new(id, spec);
        q.push(job.clone());
        job
    };
    inner.work.notify_all();
    inner.persist(&job.id, "spec.json", &job.spec.to_json().to_string());
    lock_recover(&inner.jobs).insert(job.id.clone(), job.clone());
    inner.metrics.incr("submit_accepted", 1);
    respond_json(
        stream,
        201,
        &Json::obj([
            ("id", Json::str(job.id.clone())),
            ("state", Json::str(job.phase().label())),
            (
                "trace",
                Json::str(job.spec.trace.clone().unwrap_or_default()),
            ),
        ]),
        trace,
    );
}

/// `GET /v1/campaigns/:id[?watch=<state>&timeout_ms=<n>]`: status counters,
/// optionally long-polling — with `watch`, the response is deferred until
/// the phase differs from the given label or the timeout (default 10 s,
/// capped at 30 s) elapses. Status is always `Cache-Control: no-store`: a
/// cached "running" is a wrong "running".
fn handle_status(
    stream: &mut TcpStream,
    req: &Request,
    job: &Arc<Job>,
    inner: &Arc<Inner>,
    trace: &str,
) {
    if let Some(watch) = req.query_param("watch") {
        let Some(seen) = JobPhase::parse_label(watch) else {
            return error_json(
                stream,
                400,
                "`watch` must be a job state label (queued, running, ...)",
                trace,
            );
        };
        let timeout_ms = req
            .query_param("timeout_ms")
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(10_000)
            .min(30_000);
        inner.metrics.incr("status_longpolls", 1);
        job.wait_phase_change(seen, Duration::from_millis(timeout_ms));
    }
    let _ = http::write_response(
        stream,
        200,
        "application/json",
        &[
            ("Cache-Control", "no-store".to_string()),
            trace_header(trace),
        ],
        job.status_json().to_string().as_bytes(),
    );
}

/// `DELETE /v1/campaigns/:id`: cooperative cancellation. A queued job is
/// canceled immediately; a running one gets its stop flag set and stops at
/// the next work-unit boundary (202 — the cancel is underway, poll status).
/// Terminal jobs answer 200 with their (unchanged) state. Responses carry
/// `Cache-Control: no-store` — cancellation state must never be stale.
fn handle_cancel(stream: &mut TcpStream, job: &Arc<Job>, inner: &Arc<Inner>, trace: &str) {
    let phase = job.phase();
    let status = if phase.terminal() {
        200
    } else {
        job.request_stop();
        if phase == JobPhase::Queued {
            // Cancel in place; the worker pop skips terminal jobs.
            job.cancel();
        }
        inner.metrics.incr("jobs_cancel_requested", 1);
        inner.work.notify_all();
        202
    };
    let _ = http::write_response(
        stream,
        status,
        "application/json",
        &[
            ("Cache-Control", "no-store".to_string()),
            trace_header(trace),
        ],
        job.status_json().to_string().as_bytes(),
    );
}

/// Stream the job's event log as chunked JSONL until the job reaches a
/// terminal phase and the log is drained (or the client goes away, or the
/// daemon shuts down — either truncates the stream, which is the honest
/// signal).
fn handle_events(stream: &mut TcpStream, job: &Arc<Job>, inner: &Arc<Inner>, trace: &str) {
    let mut w = match ChunkedWriter::start(stream, 200, "application/jsonl", &[trace_header(trace)])
    {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut cursor = 0usize;
    let mut reported_drops = 0u64;
    loop {
        let b = job.events_since(cursor, Duration::from_millis(250));
        let mut batch = String::new();
        for line in &b.lines {
            batch.push_str(line);
            batch.push('\n');
        }
        // Overflow drops are a running total; released lines are per batch.
        let missing = b.dropped - reported_drops + b.released;
        if missing > 0 {
            batch.push_str(
                &Json::obj([
                    ("ev", Json::str("events_dropped")),
                    ("count", Json::uint(missing)),
                ])
                .to_string(),
            );
            batch.push('\n');
            reported_drops = b.dropped;
        }
        if w.chunk(batch.as_bytes()).is_err() {
            return; // client went away
        }
        let complete = b.terminal && b.next == cursor;
        cursor = b.next;
        if complete || inner.shutdown.load(Ordering::SeqCst) {
            break;
        }
    }
    let _ = w.finish();
}

fn handle_result(stream: &mut TcpStream, job: &Arc<Job>, trace: &str) {
    match job.phase() {
        JobPhase::Done => {
            let body = job.result().unwrap_or_default();
            let _ = http::write_response(
                stream,
                200,
                "application/json",
                &[trace_header(trace)],
                body.as_bytes(),
            );
        }
        JobPhase::Failed => {
            error_json(stream, 500, &job.error().unwrap_or_default(), trace);
        }
        JobPhase::Canceled => {
            error_json(
                stream,
                503,
                "job was canceled by daemon shutdown; it resumes on restart",
                trace,
            );
        }
        JobPhase::Queued | JobPhase::Running => {
            respond_json(stream, 202, &job.status_json(), trace);
        }
    }
}

/// `GET /metrics`: JSON snapshot by default; Prometheus text exposition
/// (format 0.0.4) when the `Accept` header asks for `text/plain`. Both are
/// marked `Cache-Control: no-store` — a cached scrape is a wrong scrape.
fn handle_metrics(stream: &mut TcpStream, req: &Request, inner: &Arc<Inner>, trace: &str) {
    let queue_depth;
    let queue_age_secs;
    {
        let q = lock_recover(&inner.queue);
        queue_depth = q.len() as u64;
        queue_age_secs = q.oldest_age_secs();
    }
    let (cache_entries, cache_bytes) = {
        let c = lock_recover(&inner.cache);
        (c.len() as u64, c.bytes() as u64)
    };
    let mut phases: BTreeMap<String, u64> = BTreeMap::new();
    for job in lock_recover(&inner.jobs).values() {
        *phases.entry(job.phase().label().to_string()).or_insert(0) += 1;
    }
    let wants_prometheus = req
        .header("accept")
        .is_some_and(|a| a.contains("text/plain"));
    if wants_prometheus {
        // Scrape-time gauges ride on a snapshot copy, not the live registry:
        // the JSON document's metric set stays exactly what the counters
        // recorded.
        let mut snap = inner.metrics.snapshot();
        snap.gauges
            .insert("queue_depth".to_string(), queue_depth as f64);
        snap.gauges.insert(
            "queue_capacity".to_string(),
            inner.cfg.queue_capacity as f64,
        );
        snap.gauges
            .insert("queue_oldest_age_seconds".to_string(), queue_age_secs);
        snap.gauges.insert(
            "busy_workers".to_string(),
            inner.busy.load(Ordering::SeqCst) as f64,
        );
        snap.gauges.insert(
            "uptime_seconds".to_string(),
            inner.started.elapsed().as_secs_f64(),
        );
        snap.gauges
            .insert("fleet_peers".to_string(), inner.cfg.peers.len() as f64);
        snap.gauges
            .insert("cache_entries".to_string(), cache_entries as f64);
        snap.gauges
            .insert("cache_bytes".to_string(), cache_bytes as f64);
        for (phase, n) in &phases {
            snap.gauges.insert(format!("jobs_phase.{phase}"), *n as f64);
        }
        let _ = http::write_response(
            stream,
            200,
            "text/plain; version=0.0.4",
            &[
                ("Cache-Control", "no-store".to_string()),
                trace_header(trace),
            ],
            to_prometheus(&snap).as_bytes(),
        );
        return;
    }
    let doc = Json::obj([
        ("metrics", inner.metrics.snapshot().to_json()),
        ("queue_depth", Json::uint(queue_depth)),
        (
            "queue_capacity",
            Json::uint(inner.cfg.queue_capacity as u64),
        ),
        ("fleet_peers", Json::uint(inner.cfg.peers.len() as u64)),
        ("cache_entries", Json::uint(cache_entries)),
        ("cache_bytes", Json::uint(cache_bytes)),
        (
            "jobs",
            Json::Obj(
                phases
                    .into_iter()
                    .map(|(k, v)| (k, Json::uint(v)))
                    .collect(),
            ),
        ),
    ]);
    let _ = http::write_response(
        stream,
        200,
        "application/json",
        &[
            ("Cache-Control", "no-store".to_string()),
            trace_header(trace),
        ],
        doc.to_string().as_bytes(),
    );
}

#[cfg(test)]
mod tests {
    use super::ResultCache;

    #[test]
    fn result_cache_evicts_lru_by_last_hit_under_the_entry_cap() {
        let mut c = ResultCache::default();
        assert!(c.insert("a".into(), "1".into(), 2, 0).is_empty());
        assert!(c.insert("b".into(), "2".into(), 2, 0).is_empty());
        // Hitting `a` makes `b` the least recently used entry.
        assert_eq!(c.get("a").as_deref(), Some("1"));
        let evicted = c.insert("c".into(), "3".into(), 2, 0);
        assert_eq!(evicted, vec!["b".to_string()]);
        assert_eq!(c.len(), 2);
        assert!(c.get("b").is_none());
        assert_eq!(c.get("a").as_deref(), Some("1"));
        assert_eq!(c.get("c").as_deref(), Some("3"));
    }

    #[test]
    fn result_cache_byte_cap_tracks_body_sizes_and_replacements() {
        let mut c = ResultCache::default();
        assert!(c.insert("a".into(), "xxxx".into(), 0, 10).is_empty());
        assert_eq!(c.bytes(), 4);
        // Replacing a body must not double-count its bytes.
        assert!(c.insert("a".into(), "xxxxxx".into(), 0, 10).is_empty());
        assert_eq!(c.bytes(), 6);
        // 6 + 6 = 12 > 10: the older entry goes.
        let evicted = c.insert("b".into(), "yyyyyy".into(), 0, 10);
        assert_eq!(evicted, vec!["a".to_string()]);
        assert_eq!(c.bytes(), 6);
        // A single over-cap body evicts everything, itself included.
        let evicted = c.insert("big".into(), "z".repeat(11), 0, 10);
        assert_eq!(evicted, vec!["b".to_string(), "big".to_string()]);
        assert_eq!(c.len(), 0);
        assert_eq!(c.bytes(), 0);
    }

    #[test]
    fn result_cache_zero_caps_mean_uncapped() {
        let mut c = ResultCache::default();
        for i in 0..64 {
            assert!(c.insert(format!("k{i}"), "v".repeat(64), 0, 0).is_empty());
        }
        assert_eq!(c.len(), 64);
    }
}
