//! The campaign daemon: a persistent worker pool behind an HTTP API.
//!
//! ## Architecture
//!
//! One accept thread owns a non-blocking [`TcpListener`] and spawns a
//! short-lived handler thread per connection (exchanges are single
//! request/response, `Connection: close`). A fixed pool of job workers
//! blocks on the [`JobQueue`]; each claimed job runs as a normal
//! [`Campaign`] with the runner's own internal parallelism, a
//! cooperative cancel flag, a per-job [`MetricsRegistry`] (folded into
//! the daemon-wide registry when the job ends) and the daemon's shared
//! [`GoldenCache`], so identical specs skip their golden phase.
//!
//! ## Durability
//!
//! Every state transition is appended to the crash-safe [`Journal`];
//! each job's injection records stream to its own checkpoint file. A
//! daemon restarted on the same data directory re-enqueues jobs that
//! were submitted or running when it died, and the checkpoint/event
//! machinery guarantees no injection index is recomputed or duplicated.
//!
//! ## Data layout
//!
//! ```text
//! <data_dir>/journal.jsonl                 job-state journal
//! <data_dir>/jobs/<id>/checkpoint.jsonl    streaming injection records
//! <data_dir>/jobs/<id>/events.jsonl        obs event stream
//! <data_dir>/jobs/<id>/result.json         canonical summary (when done)
//! <data_dir>/jobs/<id>/metrics.json        job metrics snapshot
//! <data_dir>/jobs/<id>/trace.json          Chrome trace-event timeline
//! <data_dir>/jobs/<id>/profile.json        hierarchical phase profile
//! ```
//!
//! ## Live analytics
//!
//! While (and after) a job runs, its event stream is consumable three
//! ways: `GET /jobs/:id/stream` tails it as Server-Sent Events
//! (resumable via `Last-Event-ID`, see [`crate::live`]),
//! `GET /jobs/:id/analytics` folds it into a
//! [`CriticalityAggregator`](radcrit_obs::CriticalityAggregator)
//! snapshot, and `GET /analytics` merges every job's fold into a
//! daemon-wide rollup. `GET /dashboard` serves the self-contained HTML
//! page in [`crate::dashboard`] that renders all of it live.

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use radcrit_campaign::golden::GoldenCache;
use radcrit_campaign::{Campaign, RunOptions};
use radcrit_obs::{AlertConfig, AlertEngine, HealthSample, MetricsRegistry};

use crate::error::ServeError;
use crate::http::{read_request, respond, respond_chunked, Request};
use crate::journal::{job_id, job_number, JobState, Journal};
use crate::queue::{JobQueue, PushError};
use crate::spec::JobSpec;

/// How a daemon is launched.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Data directory for journal and job artifacts.
    pub data_dir: PathBuf,
    /// Concurrent jobs (the pool size). Each job still parallelizes
    /// internally per its spec's `workers`.
    pub pool: usize,
    /// Maximum queued (not yet running) jobs before `429`.
    pub queue_depth: usize,
    /// Byte budget of the shared golden cache.
    pub cache_bytes: usize,
    /// Disable differential injection execution: every job re-executes
    /// the kernel from tile 0 per injection, and golden cache entries
    /// carry no snapshot sets. Off by default — jobs resume from
    /// golden-prefix snapshots that the shared cache carries across
    /// jobs.
    pub full_execution: bool,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            addr: "127.0.0.1:0".to_owned(),
            data_dir: PathBuf::from("radcrit-serve-data"),
            pool: 2,
            queue_depth: 64,
            cache_bytes: GoldenCache::DEFAULT_BYTES,
            full_execution: false,
        }
    }
}

/// One job's in-memory state.
#[derive(Debug)]
struct JobEntry {
    spec: JobSpec,
    state: JobState,
    cancel: Arc<AtomicBool>,
}

/// Shared daemon state.
#[derive(Debug)]
struct Core {
    config: DaemonConfig,
    jobs: Mutex<BTreeMap<String, JobEntry>>,
    next_job: AtomicU64,
    queue: JobQueue,
    journal: Mutex<Journal>,
    cache: Arc<GoldenCache>,
    metrics: Arc<MetricsRegistry>,
    /// Jobs submitted but not yet terminal (queue depth + running).
    outstanding: AtomicUsize,
    /// Workers currently inside `run_job` (for the busy/idle gauges).
    busy: AtomicUsize,
    /// Set by `POST /shutdown`: refuse new jobs, drain, then exit.
    draining: AtomicBool,
    /// Set when the accept loop should exit.
    stop: AtomicBool,
    /// Testing hook: pretend the process died — skip terminal journal
    /// writes and result files for in-flight jobs.
    abrupt: AtomicBool,
    /// Process-wide trace epoch: every job trace measures its
    /// timestamps from this instant, and `/healthz` reports `now_us`
    /// on the same timeline so a coordinator can estimate this clock's
    /// offset from heartbeat round-trips.
    epoch: Instant,
    /// Daemon-local health rules (queue saturation is the daemon-level
    /// signal; fleet rules live on the coordinator). Evaluated lazily
    /// at `/alerts` and `/metrics` scrape time.
    alerts: Mutex<AlertEngine>,
}

/// A running daemon: its address plus the thread handles to join.
#[derive(Debug)]
pub struct DaemonHandle {
    core: Arc<Core>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl DaemonHandle {
    /// The bound address (with the resolved ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until the daemon exits (a client must `POST /shutdown`).
    pub fn join(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }

    /// Testing hook: stop like a crash. In-flight jobs are interrupted
    /// via their cancel flags but no terminal state is journaled and no
    /// result file is written — exactly what a `kill -9` leaves behind.
    /// A daemon restarted on the same data directory must resume them.
    pub fn shutdown_abrupt(mut self) {
        self.core.abrupt.store(true, Ordering::SeqCst);
        self.core.stop.store(true, Ordering::SeqCst);
        self.core.queue.close();
        for entry in self.core.jobs.lock().expect("jobs lock").values() {
            entry.cancel.store(true, Ordering::SeqCst);
        }
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Starts a daemon from `config`.
///
/// # Errors
///
/// [`ServeError::Io`] when the data directory or listener cannot be set
/// up, [`ServeError::Protocol`] when the journal is corrupt.
pub fn start(config: DaemonConfig) -> Result<DaemonHandle, ServeError> {
    std::fs::create_dir_all(config.data_dir.join("jobs"))
        .map_err(|e| ServeError::Io(format!("data dir {}: {e}", config.data_dir.display())))?;
    let (journal, replayed) = Journal::open(&config.data_dir.join("journal.jsonl"))?;

    let queue = JobQueue::new(config.queue_depth);
    let mut jobs = BTreeMap::new();
    let mut next = 1u64;
    let mut outstanding = 0usize;
    for job in replayed {
        next = next.max(job_number(&job.id).map_or(next, |n| n + 1));
        let state = match job.state {
            // In-flight when the previous daemon died: queue it again.
            // The campaign checkpoint replays finished indices, so the
            // rerun only computes what is missing.
            JobState::Submitted | JobState::Running => {
                // Unbounded on purpose: up to queue_depth + pool jobs can
                // be non-terminal at crash time (and this restart may use
                // a smaller depth); already-accepted work is never shed.
                queue.push_unbounded(&job.id, job.priority);
                outstanding += 1;
                JobState::Submitted
            }
            terminal => terminal,
        };
        jobs.insert(
            job.id.clone(),
            JobEntry {
                spec: job.spec,
                state,
                cancel: Arc::new(AtomicBool::new(false)),
            },
        );
    }

    let listener = TcpListener::bind(&config.addr)
        .map_err(|e| ServeError::Io(format!("bind {}: {e}", config.addr)))?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;

    let pool = config.pool.max(1);
    let alerts = AlertEngine::new(AlertConfig {
        queue_capacity: Some(config.queue_depth as u64),
        ..AlertConfig::default()
    });
    let core = Arc::new(Core {
        cache: Arc::new(GoldenCache::new(config.cache_bytes)),
        config,
        jobs: Mutex::new(jobs),
        next_job: AtomicU64::new(next),
        queue,
        journal: Mutex::new(journal),
        metrics: Arc::new(MetricsRegistry::new()),
        outstanding: AtomicUsize::new(outstanding),
        busy: AtomicUsize::new(0),
        draining: AtomicBool::new(false),
        stop: AtomicBool::new(false),
        abrupt: AtomicBool::new(false),
        epoch: Instant::now(),
        alerts: Mutex::new(alerts),
    });

    // The host's SIMD dispatch is fixed for the daemon's lifetime
    // (jobs may still pin scalar per-run): log it once and expose it
    // as a labelled constant gauge for fleet-wide scrapes.
    let isa = radcrit_core::exec::active();
    eprintln!("radcrit-serve: listening on {addr}, simd isa {isa}");
    core.metrics
        .gauge_set("radcrit_simd_isa", &[("isa", isa.name())], 1.0);

    let workers = (0..pool)
        .map(|_| {
            let core = Arc::clone(&core);
            std::thread::spawn(move || worker_loop(&core))
        })
        .collect();
    let accept = {
        let core = Arc::clone(&core);
        std::thread::spawn(move || accept_loop(&core, &listener))
    };

    Ok(DaemonHandle {
        core,
        addr,
        accept: Some(accept),
        workers,
    })
}

fn accept_loop(core: &Arc<Core>, listener: &TcpListener) {
    loop {
        if core.stop.load(Ordering::SeqCst) {
            break;
        }
        if core.draining.load(Ordering::SeqCst) && core.outstanding.load(Ordering::SeqCst) == 0 {
            // Drained: release the workers and stop accepting.
            core.queue.close();
            break;
        }
        match listener.accept() {
            Ok((mut stream, _)) => {
                let core = Arc::clone(core);
                std::thread::spawn(move || {
                    let _ = stream.set_nonblocking(false);
                    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
                    let _ = handle_connection(&core, &mut stream);
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

fn worker_loop(core: &Arc<Core>) {
    while let Some(id) = core.queue.pop() {
        // Claim: only still-submitted jobs run (a queued job may have
        // been cancelled between push and pop).
        let claimed = {
            let mut jobs = core.jobs.lock().expect("jobs lock");
            match jobs.get_mut(&id) {
                Some(e) if e.state == JobState::Submitted => {
                    e.state = JobState::Running;
                    Some((e.spec.clone(), Arc::clone(&e.cancel)))
                }
                _ => None,
            }
        };
        let Some((spec, cancel)) = claimed else {
            continue;
        };
        journal_append(core, &id, &JobState::Running, None);

        core.busy.fetch_add(1, Ordering::SeqCst);
        let outcome = run_job(core, &id, &spec, &cancel);
        core.busy.fetch_sub(1, Ordering::SeqCst);

        if core.abrupt.load(Ordering::SeqCst) {
            // Crash simulation: die without the terminal journal write.
            continue;
        }
        let terminal = match outcome {
            Ok(true) => JobState::Done,
            Ok(false) => JobState::Cancelled,
            Err(e) => JobState::Failed(e.to_string()),
        };
        core.metrics.counter_add(
            "radcrit_serve_jobs_total",
            &[("state", terminal.wire_name())],
            1,
        );
        journal_append(core, &id, &terminal, None);
        core.jobs
            .lock()
            .expect("jobs lock")
            .get_mut(&id)
            .expect("claimed job exists")
            .state = terminal;
        core.outstanding.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Runs one job to completion (or cancellation). Returns whether every
/// injection finished.
fn run_job(
    core: &Arc<Core>,
    id: &str,
    spec: &JobSpec,
    cancel: &Arc<AtomicBool>,
) -> Result<bool, ServeError> {
    let job_dir = core.config.data_dir.join("jobs").join(id);
    std::fs::create_dir_all(&job_dir)
        .map_err(|e| ServeError::Io(format!("job dir {}: {e}", job_dir.display())))?;
    let campaign: Campaign = spec.campaign()?;
    let checkpoint = job_dir.join("checkpoint.jsonl");
    let job_metrics = Arc::new(MetricsRegistry::new());
    let options = RunOptions {
        resume: checkpoint.exists(),
        checkpoint: Some(checkpoint),
        events_out: Some(job_dir.join("events.jsonl")),
        events_sample: spec.events_sample,
        trace_out: Some(job_dir.join("trace.json")),
        trace_context: spec.trace.clone(),
        trace_epoch: Some(core.epoch),
        profile_out: Some(job_dir.join("profile.json")),
        golden_cache: Some(Arc::clone(&core.cache)),
        cancel: Some(Arc::clone(cancel)),
        metrics: Some(Arc::clone(&job_metrics)),
        full_execution: core.config.full_execution,
        shard: spec.shard,
        force_scalar: spec.force_scalar,
        ..RunOptions::default()
    };
    let result = campaign
        .run_with(&options)
        .map_err(|e| ServeError::Io(format!("campaign: {e}")));

    // Fold the job's metrics into the daemon-wide registry whatever the
    // outcome — failed jobs still spent engine time.
    core.metrics.merge_snapshot(&job_metrics.snapshot());

    let result = result?;
    if !result.is_complete() {
        return Ok(false);
    }
    if core.abrupt.load(Ordering::SeqCst) {
        // Simulated crash between finishing and persisting: the restart
        // replays the checkpoint and rewrites these.
        return Ok(true);
    }
    let summary = result.summary();
    let write = |name: &str, text: String| -> Result<(), ServeError> {
        let path = job_dir.join(name);
        std::fs::write(&path, text).map_err(|e| ServeError::Io(format!("{}: {e}", path.display())))
    };
    write("result.json", format!("{}\n", summary.to_json()))?;
    write(
        "metrics.json",
        format!("{}\n", job_metrics.snapshot().to_json()),
    )?;
    Ok(true)
}

fn journal_append(
    core: &Arc<Core>,
    id: &str,
    state: &JobState,
    submission: Option<(&JobSpec, crate::spec::Priority)>,
) {
    if let Err(e) = core
        .journal
        .lock()
        .expect("journal lock")
        .append(id, state, submission)
    {
        eprintln!("radcrit-serve: journal write failed: {e}");
    }
}

// ---------------------------------------------------------------------
// HTTP routing
// ---------------------------------------------------------------------

fn handle_connection(core: &Arc<Core>, stream: &mut TcpStream) -> Result<(), ServeError> {
    let request = match read_request(stream) {
        Ok(r) => r,
        Err(_) => {
            return respond(
                stream,
                400,
                "application/json",
                "{\"error\":\"bad request\"}",
            );
        }
    };
    route(core, stream, &request)
}

fn route(core: &Arc<Core>, stream: &mut TcpStream, req: &Request) -> Result<(), ServeError> {
    // The dashboard links carry `?job=<id>` selectors; routing only
    // looks at the path proper.
    let path = req.path.split('?').next().unwrap_or(&req.path);
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("POST", ["jobs"]) => post_job(core, stream, &req.body),
        ("GET", ["jobs"]) => get_jobs(core, stream),
        ("GET", ["jobs", id]) => get_status(core, stream, id),
        ("GET", ["jobs", id, "result"]) => get_result(core, stream, id),
        ("GET", ["jobs", id, "events"]) => get_events(core, stream, id),
        ("GET", ["jobs", id, "stream"]) => get_stream(core, stream, id, req),
        ("GET", ["jobs", id, "analytics"]) => get_analytics(core, stream, id),
        ("GET", ["jobs", id, "trace"]) => get_trace(core, stream, id),
        ("GET", ["jobs", id, "profile"]) => get_profile(core, stream, id),
        ("GET", ["jobs", id, "metrics"]) => get_job_metrics(core, stream, id),
        ("POST", ["jobs", id, "cancel"]) => post_cancel(core, stream, id),
        ("GET", ["analytics"]) => get_rollup(core, stream),
        ("GET", ["profile"]) => get_profile_rollup(core, stream),
        ("GET", ["dashboard"]) => respond(
            stream,
            200,
            "text/html; charset=utf-8",
            crate::dashboard::DASHBOARD_HTML,
        ),
        ("GET", ["metrics"]) => get_metrics(core, stream),
        ("GET", ["alerts"]) => get_alerts(core, stream),
        ("GET", ["healthz"]) => {
            // Enriched liveness: `"ok":true` stays the first key so
            // plain-text consumers (`curl | grep '"ok":true'`) keep
            // working; `now_us` is the daemon's trace-epoch clock the
            // coordinator probes for offset estimation.
            let busy = core.busy.load(Ordering::SeqCst);
            let pool = core.config.pool.max(1);
            // The daemon's trace epoch is its start time, so uptime and
            // the trace-timeline clock are the same number.
            let now_us = core.epoch.elapsed().as_micros();
            let body = format!(
                "{{\"ok\":true,\"version\":\"{}\",\"isa\":\"{}\",\"uptime_us\":{now_us},\
                 \"now_us\":{now_us},\"workers_busy\":{busy},\"workers_idle\":{},\
                 \"queue_depth\":{},\"outstanding\":{},\"draining\":{}}}",
                env!("CARGO_PKG_VERSION"),
                radcrit_core::exec::active().name(),
                pool.saturating_sub(busy),
                core.queue.len(),
                core.outstanding.load(Ordering::SeqCst),
                core.draining.load(Ordering::SeqCst),
            );
            respond(stream, 200, "application/json", &body)
        }
        ("POST", ["shutdown"]) => {
            core.draining.store(true, Ordering::SeqCst);
            respond(stream, 200, "application/json", "{\"draining\":true}")
        }
        (method, _) if !matches!(method, "GET" | "POST") => respond(
            stream,
            405,
            "application/json",
            "{\"error\":\"method not allowed\"}",
        ),
        _ => respond(
            stream,
            404,
            "application/json",
            "{\"error\":\"no such route\"}",
        ),
    }
}

fn post_job(core: &Arc<Core>, stream: &mut TcpStream, body: &str) -> Result<(), ServeError> {
    if core.draining.load(Ordering::SeqCst) {
        return respond(
            stream,
            503,
            "application/json",
            "{\"error\":\"draining: the daemon is shutting down\"}",
        );
    }
    let spec = match JobSpec::parse(body) {
        Ok(s) => s,
        Err(e) => {
            let body = format!(
                "{{\"error\":\"{}\"}}",
                radcrit_obs::json::escape(&e.to_string())
            );
            return respond(stream, 400, "application/json", &body);
        }
    };
    // Reserve the id and register the job *before* queueing it, so a
    // worker can never pop an id the map does not know yet.
    let id = job_id(core.next_job.fetch_add(1, Ordering::SeqCst));
    core.jobs.lock().expect("jobs lock").insert(
        id.clone(),
        JobEntry {
            spec: spec.clone(),
            state: JobState::Submitted,
            cancel: Arc::new(AtomicBool::new(false)),
        },
    );
    core.outstanding.fetch_add(1, Ordering::SeqCst);
    // The Submitted record (the only one carrying the spec) must hit the
    // journal *before* the id becomes poppable: an idle worker claims a
    // pushed job immediately and appends its Running record, and replay
    // needs the spec-bearing record first. A refused push is compensated
    // below with a terminal Cancelled record.
    journal_append(
        core,
        &id,
        &JobState::Submitted,
        Some((&spec, spec.priority)),
    );
    match core.queue.push(&id, spec.priority) {
        Ok(()) => {
            core.metrics
                .counter_add("radcrit_serve_jobs_submitted_total", &[], 1);
            let body = format!("{{\"job\":\"{id}\",\"status\":\"submitted\"}}");
            respond(stream, 202, "application/json", &body)
        }
        Err(refusal) => {
            // Only unwind if a concurrent cancel has not already turned
            // the entry terminal (it journals and decrements itself).
            let still_submitted = {
                let mut jobs = core.jobs.lock().expect("jobs lock");
                match jobs.get(&id) {
                    Some(e) if e.state == JobState::Submitted => {
                        jobs.remove(&id);
                        true
                    }
                    _ => false,
                }
            };
            if still_submitted {
                journal_append(core, &id, &JobState::Cancelled, None);
                core.outstanding.fetch_sub(1, Ordering::SeqCst);
            }
            let (status, error) = match refusal {
                PushError::Full => (429, "queue full: retry later"),
                PushError::Closed => (503, "draining: the daemon is shutting down"),
            };
            let body = format!("{{\"error\":\"{error}\"}}");
            respond(stream, status, "application/json", &body)
        }
    }
}

fn get_status(core: &Arc<Core>, stream: &mut TcpStream, id: &str) -> Result<(), ServeError> {
    let jobs = core.jobs.lock().expect("jobs lock");
    let Some(entry) = jobs.get(id) else {
        drop(jobs);
        return respond(
            stream,
            404,
            "application/json",
            "{\"error\":\"unknown job\"}",
        );
    };
    let mut body = format!(
        "{{\"job\":\"{id}\",\"status\":\"{}\"",
        entry.state.wire_name()
    );
    if let JobState::Failed(error) = &entry.state {
        body.push_str(&format!(
            ",\"error\":\"{}\"",
            radcrit_obs::json::escape(error)
        ));
    }
    body.push('}');
    drop(jobs);
    respond(stream, 200, "application/json", &body)
}

fn get_result(core: &Arc<Core>, stream: &mut TcpStream, id: &str) -> Result<(), ServeError> {
    let state = {
        let jobs = core.jobs.lock().expect("jobs lock");
        jobs.get(id).map(|e| e.state.clone())
    };
    match state {
        None => respond(
            stream,
            404,
            "application/json",
            "{\"error\":\"unknown job\"}",
        ),
        Some(JobState::Done) => {
            let path = core
                .config
                .data_dir
                .join("jobs")
                .join(id)
                .join("result.json");
            match std::fs::read_to_string(&path) {
                Ok(body) => respond(stream, 200, "application/json", &body),
                Err(e) => {
                    let body = format!(
                        "{{\"error\":\"result missing: {}\"}}",
                        radcrit_obs::json::escape(&e.to_string())
                    );
                    respond(stream, 500, "application/json", &body)
                }
            }
        }
        Some(JobState::Failed(error)) => {
            let body = format!(
                "{{\"error\":\"job failed: {}\"}}",
                radcrit_obs::json::escape(&error)
            );
            respond(stream, 409, "application/json", &body)
        }
        Some(state) => {
            let body = format!(
                "{{\"error\":\"job is {}, result not available\"}}",
                state.wire_name()
            );
            respond(stream, 409, "application/json", &body)
        }
    }
}

fn get_events(core: &Arc<Core>, stream: &mut TcpStream, id: &str) -> Result<(), ServeError> {
    if !core.jobs.lock().expect("jobs lock").contains_key(id) {
        return respond(
            stream,
            404,
            "application/json",
            "{\"error\":\"unknown job\"}",
        );
    }
    let path = core
        .config
        .data_dir
        .join("jobs")
        .join(id)
        .join("events.jsonl");
    let mut file = match std::fs::File::open(&path) {
        Ok(f) => f,
        Err(_) => {
            return respond(
                stream,
                404,
                "application/json",
                "{\"error\":\"no events yet\"}",
            );
        }
    };
    respond_chunked(stream, 200, "application/jsonl", |write| {
        use std::io::Read;
        let mut buf = [0u8; 64 * 1024];
        loop {
            let n = file.read(&mut buf)?;
            if n == 0 {
                return Ok(());
            }
            write(&buf[..n])?;
        }
    })
}

fn get_jobs(core: &Arc<Core>, stream: &mut TcpStream) -> Result<(), ServeError> {
    let jobs = core.jobs.lock().expect("jobs lock");
    let rows: Vec<String> = jobs
        .iter()
        .map(|(id, e)| {
            format!(
                "{{\"job\":\"{id}\",\"status\":\"{}\"}}",
                e.state.wire_name()
            )
        })
        .collect();
    drop(jobs);
    let body = format!("{{\"jobs\":[{}]}}", rows.join(","));
    respond(stream, 200, "application/json", &body)
}

/// Whether `id` is known, and if so whether it has reached a terminal
/// state. `None` means unknown job.
fn job_terminal(core: &Arc<Core>, id: &str) -> Option<bool> {
    let jobs = core.jobs.lock().expect("jobs lock");
    jobs.get(id).map(|e| {
        matches!(
            e.state,
            JobState::Done | JobState::Cancelled | JobState::Failed(_)
        )
    })
}

fn get_stream(
    core: &Arc<Core>,
    stream: &mut TcpStream,
    id: &str,
    req: &Request,
) -> Result<(), ServeError> {
    if job_terminal(core, id).is_none() {
        return respond(
            stream,
            404,
            "application/json",
            "{\"error\":\"unknown job\"}",
        );
    }
    let path = core
        .config
        .data_dir
        .join("jobs")
        .join(id)
        .join("events.jsonl");
    let resume_after = crate::live::parse_last_event_id(req.header("last-event-id"));
    let core_for_poll = Arc::clone(core);
    let id = id.to_owned();
    match crate::live::stream_sse(stream, &path, resume_after, &move || {
        // A job deleted mid-stream (never happens today) ends the tail
        // rather than spinning forever.
        job_terminal(&core_for_poll, &id) != Some(false)
    }) {
        Err(ServeError::Disconnected(_)) => Ok(()), // reap quietly
        other => other,
    }
}

fn get_analytics(core: &Arc<Core>, stream: &mut TcpStream, id: &str) -> Result<(), ServeError> {
    if job_terminal(core, id).is_none() {
        return respond(
            stream,
            404,
            "application/json",
            "{\"error\":\"unknown job\"}",
        );
    }
    let path = core
        .config
        .data_dir
        .join("jobs")
        .join(id)
        .join("events.jsonl");
    if !path.exists() {
        return respond(
            stream,
            404,
            "application/json",
            "{\"error\":\"no events yet\"}",
        );
    }
    match crate::live::fold_events_file(&path) {
        Ok(agg) => respond(stream, 200, "application/json", &agg.to_json()),
        Err(e) => {
            let body = format!(
                "{{\"error\":\"{}\"}}",
                radcrit_obs::json::escape(&e.to_string())
            );
            respond(stream, 500, "application/json", &body)
        }
    }
}

fn get_rollup(core: &Arc<Core>, stream: &mut TcpStream) -> Result<(), ServeError> {
    let ids: Vec<String> = core
        .jobs
        .lock()
        .expect("jobs lock")
        .keys()
        .cloned()
        .collect();
    let mut rollup = radcrit_obs::CriticalityAggregator::new();
    let mut folded = 0usize;
    for id in &ids {
        let path = core
            .config
            .data_dir
            .join("jobs")
            .join(id)
            .join("events.jsonl");
        if let Ok(agg) = crate::live::fold_events_file(&path) {
            rollup.merge(&agg);
            folded += 1;
        }
    }
    let body = format!(
        "{{\"jobs\":{},\"folded\":{folded},\"rollup\":{}}}",
        ids.len(),
        rollup.to_json()
    );
    respond(stream, 200, "application/json", &body)
}

fn get_trace(core: &Arc<Core>, stream: &mut TcpStream, id: &str) -> Result<(), ServeError> {
    if job_terminal(core, id).is_none() {
        return respond(
            stream,
            404,
            "application/json",
            "{\"error\":\"unknown job\"}",
        );
    }
    let path = core
        .config
        .data_dir
        .join("jobs")
        .join(id)
        .join("trace.json");
    match std::fs::read_to_string(&path) {
        Ok(body) => respond(stream, 200, "application/json", &body),
        Err(_) => respond(
            stream,
            404,
            "application/json",
            "{\"error\":\"no trace yet\"}",
        ),
    }
}

fn get_profile(core: &Arc<Core>, stream: &mut TcpStream, id: &str) -> Result<(), ServeError> {
    if job_terminal(core, id).is_none() {
        return respond(
            stream,
            404,
            "application/json",
            "{\"error\":\"unknown job\"}",
        );
    }
    let path = core
        .config
        .data_dir
        .join("jobs")
        .join(id)
        .join("profile.json");
    match std::fs::read_to_string(&path) {
        Ok(body) => respond(stream, 200, "application/json", &body),
        Err(_) => respond(
            stream,
            404,
            "application/json",
            "{\"error\":\"no profile yet\"}",
        ),
    }
}

/// One finished job's metrics snapshot (the JSON the coordinator pulls
/// per shard to build its labelled federation-wide exposition).
fn get_job_metrics(core: &Arc<Core>, stream: &mut TcpStream, id: &str) -> Result<(), ServeError> {
    if job_terminal(core, id).is_none() {
        return respond(
            stream,
            404,
            "application/json",
            "{\"error\":\"unknown job\"}",
        );
    }
    let path = core
        .config
        .data_dir
        .join("jobs")
        .join(id)
        .join("metrics.json");
    match std::fs::read_to_string(&path) {
        Ok(body) => respond(stream, 200, "application/json", &body),
        Err(_) => respond(
            stream,
            404,
            "application/json",
            "{\"error\":\"no metrics yet\"}",
        ),
    }
}

/// Daemon-wide phase profile: every finished job's `profile.json`
/// merged into one tree, plus the top self-time phases the dashboard's
/// hot-phases panel renders directly.
fn get_profile_rollup(core: &Arc<Core>, stream: &mut TcpStream) -> Result<(), ServeError> {
    let ids: Vec<String> = core
        .jobs
        .lock()
        .expect("jobs lock")
        .keys()
        .cloned()
        .collect();
    let mut merged = radcrit_obs::ProfileTree::new();
    let mut folded = 0usize;
    for id in &ids {
        let path = core
            .config
            .data_dir
            .join("jobs")
            .join(id)
            .join("profile.json");
        if let Ok(text) = std::fs::read_to_string(&path) {
            if let Ok(tree) = radcrit_obs::ProfileTree::from_json(&text) {
                merged.merge(&tree);
                folded += 1;
            }
        }
    }
    let hot: Vec<String> = merged
        .hot_phases(8)
        .iter()
        .map(|(phase, self_ns, count)| {
            format!(
                "{{\"phase\":\"{}\",\"self_ns\":{self_ns},\"count\":{count}}}",
                radcrit_obs::json::escape(phase)
            )
        })
        .collect();
    let body = format!(
        "{{\"jobs\":{},\"folded\":{folded},\"hot\":[{}],\"profile\":{}}}",
        ids.len(),
        hot.join(","),
        merged.to_json()
    );
    respond(stream, 200, "application/json", &body)
}

fn post_cancel(core: &Arc<Core>, stream: &mut TcpStream, id: &str) -> Result<(), ServeError> {
    let verdict = {
        let mut jobs = core.jobs.lock().expect("jobs lock");
        match jobs.get_mut(id) {
            None => None,
            Some(entry) => match &entry.state {
                JobState::Submitted => {
                    core.queue.remove(id);
                    entry.state = JobState::Cancelled;
                    Some(("cancelled", true))
                }
                JobState::Running => {
                    // Cooperative: the worker notices the flag, stops
                    // dispatching, and journals the terminal state.
                    entry.cancel.store(true, Ordering::SeqCst);
                    Some(("cancelling", false))
                }
                terminal => Some((terminal.wire_name(), false)),
            },
        }
    };
    match verdict {
        None => respond(
            stream,
            404,
            "application/json",
            "{\"error\":\"unknown job\"}",
        ),
        Some((status, was_queued)) => {
            if was_queued {
                journal_append(core, id, &JobState::Cancelled, None);
                core.metrics
                    .counter_add("radcrit_serve_jobs_total", &[("state", "cancelled")], 1);
                core.outstanding.fetch_sub(1, Ordering::SeqCst);
            }
            let body = format!("{{\"job\":\"{id}\",\"status\":\"{status}\"}}");
            respond(stream, 200, "application/json", &body)
        }
    }
}

/// Feeds the daemon's health rules one fresh sample (queue depth is the
/// daemon-level signal; the fleet rules stay idle without coordinator
/// inputs), logs any firing/resolved edges as structured JSONL lines,
/// and mirrors the engine's state onto the metrics registry.
fn evaluate_alerts(core: &Arc<Core>) {
    let sample = HealthSample {
        queue_depth: Some(core.queue.len() as u64),
        ..HealthSample::default()
    };
    let mut engine = core.alerts.lock().expect("alerts lock");
    let edges = engine.observe(Instant::now(), sample);
    for edge in &edges {
        eprintln!("{}", edge.to_json_line());
    }
    radcrit_obs::alerts::export_edges(&edges, &core.metrics);
    engine.export_gauges(&core.metrics);
}

fn get_alerts(core: &Arc<Core>, stream: &mut TcpStream) -> Result<(), ServeError> {
    evaluate_alerts(core);
    let body = core.alerts.lock().expect("alerts lock").to_json();
    respond(stream, 200, "application/json", &body)
}

fn get_metrics(core: &Arc<Core>, stream: &mut TcpStream) -> Result<(), ServeError> {
    evaluate_alerts(core);
    // Scrape-time gauges: queue, worker occupancy and cache residency.
    let m = &core.metrics;
    let queued = core.queue.len();
    let busy = core.busy.load(Ordering::SeqCst);
    let pool = core.config.pool.max(1);
    m.gauge_set("radcrit_queue_depth", &[], queued as f64);
    m.gauge_set("radcrit_workers_busy", &[], busy as f64);
    m.gauge_set(
        "radcrit_workers_idle",
        &[],
        pool.saturating_sub(busy) as f64,
    );
    m.gauge_set(
        "radcrit_serve_outstanding_jobs",
        &[],
        core.outstanding.load(Ordering::SeqCst) as f64,
    );
    let cache = core.cache.stats();
    m.gauge_set("radcrit_golden_cache_entries", &[], cache.entries as f64);
    m.gauge_set("radcrit_golden_cache_bytes", &[], cache.bytes as f64);
    respond(
        stream,
        200,
        "text/plain; version=0.0.4",
        &m.snapshot().to_prometheus(),
    )
}
