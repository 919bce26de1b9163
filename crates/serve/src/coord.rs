//! The campaign coordinator: one campaign, many worker daemons.
//!
//! ## Architecture
//!
//! A coordinator owns exactly one campaign. It splits the injection
//! index range `0..injections` into contiguous shards
//! ([`radcrit_fabric::plan_shards`]), dispatches each shard as a normal
//! [`JobSpec`] (with its `shard` range set) to a registered worker
//! daemon, and tails every shard job's SSE stream back into one
//! [`MergedStream`] — the idempotent per-index fold that backs the
//! coordinator's merged `/analytics`, `/dashboard`, `/metrics` and
//! federated `/jobs/:id/stream` endpoints. Shard placement is
//! rendezvous-hashed over the campaign's golden content address
//! ([`radcrit_fabric::rendezvous_rank`]), so a coordinator restart
//! re-dispatches every shard to the worker that already holds its
//! golden cache entry and checkpoint.
//!
//! ## Fault tolerance
//!
//! Workers are health-checked by heartbeat probes; a worker silent past
//! the timeout (or actively refusing connections) is swept dead and
//! every one of its incomplete shards is re-dispatched to a surviving
//! worker — as a *new* job covering only the shard's remaining index
//! range `[next_uncovered, end)`, because the merged stream already
//! holds the dead worker's streamed prefix. Every shard transition is
//! journaled ([`radcrit_fabric::FabricJournal`]) before it is acted on,
//! mirroring the daemon's job journal, so a killed coordinator restarted
//! on the same data directory resumes tailing and re-dispatching where
//! it left off. Stream idempotence makes all of this safe: re-delivered
//! indices are duplicates, not double counts, and the merged summary
//! stays bit-identical to a single-node run of the same spec.
//!
//! ## Data layout
//!
//! ```text
//! <data_dir>/fabric.jsonl    shard-transition journal
//! <data_dir>/merged.jsonl    merged analytic event skeleton
//! ```

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use radcrit_campaign::golden::GoldenKey;
use radcrit_campaign::CampaignSummary;
use radcrit_fabric::{
    plan_shards, rendezvous_rank, ClockProbe, FabricJournal, IngestOutcome, MergedStream,
    ShardRecord, ShardState, WorkerRegistry,
};
use radcrit_obs::{
    json, AlertConfig, AlertEngine, FleetTrace, HealthSample, MetricsRegistry, MetricsSnapshot,
    TraceContext, TraceRecorder,
};

use crate::client::Client;
use crate::error::ServeError;
use crate::http::{read_request, respond, respond_chunked, Request};
use crate::spec::JobSpec;

/// How a coordinator is launched.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Data directory for the fabric journal and merged stream.
    pub data_dir: PathBuf,
    /// The campaign to federate. Its `shard` must be `None` — the
    /// coordinator owns the split.
    pub spec: JobSpec,
    /// Shard count; `0` means one shard per initially known worker.
    pub shards: usize,
    /// Initially known worker daemon addresses (more can join via
    /// `POST /register`).
    pub workers: Vec<String>,
    /// Heartbeat probe period.
    pub heartbeat_interval: Duration,
    /// Silence past this declares a worker dead.
    pub heartbeat_timeout: Duration,
    /// Where to write the merged canonical summary once complete.
    pub summary_out: Option<PathBuf>,
    /// Where to write the merged fleet-wide Chrome trace once complete
    /// (the same artifact `GET /trace` serves live).
    pub trace_out: Option<PathBuf>,
}

impl CoordinatorConfig {
    /// A default-tuned config for `spec` (heartbeats every 500 ms,
    /// death after 5 s of silence).
    pub fn new(spec: JobSpec) -> Self {
        CoordinatorConfig {
            addr: "127.0.0.1:0".to_owned(),
            data_dir: PathBuf::from("radcrit-fabric-data"),
            spec,
            shards: 0,
            workers: Vec::new(),
            heartbeat_interval: Duration::from_millis(500),
            heartbeat_timeout: Duration::from_secs(5),
            summary_out: None,
            trace_out: None,
        }
    }
}

/// Where one shard currently stands.
#[derive(Debug, Clone)]
struct ShardSlot {
    start: u64,
    end: u64,
    /// Worker the shard is currently assigned to (empty until first
    /// dispatch).
    worker: String,
    /// Job id on that worker (empty until dispatched).
    job: String,
    /// Superseded `(worker, job)` assignments, oldest first — the fleet
    /// trace still *tries* to fetch a dead worker's partial timeline,
    /// recording it as skipped when the daemon is gone.
    prior: Vec<(String, String)>,
    state: SlotState,
    /// Dispatch generation; stale tailer endings are recognised by it.
    generation: u64,
    /// Whether a tailer thread is attached to the current dispatch.
    tailing: bool,
    /// Times this shard was dispatched after its first assignment.
    redispatches: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    /// Not yet (or no longer) assigned; the next planner pass
    /// dispatches it.
    Pending,
    /// Assigned and (presumed) running on `worker` as `job`.
    Dispatched,
    /// Every index of the shard's range is covered by the merge.
    Completed,
}

/// A shard tailer's exit report.
#[derive(Debug)]
struct TailEnd {
    shard: usize,
    generation: u64,
    result: Result<(), ServeError>,
}

/// Shared coordinator state.
///
/// Lock order: `slots` **before** `merged`, everywhere — the HTTP
/// handlers (`/shards`, `/metrics`), the completion scan, and the tail
/// drain all nest them that way, and a single inverted pair would
/// AB-BA deadlock the orchestrator against a dashboard poll. `registry`
/// and `journal` are only ever locked on their own (no other core lock
/// held), so they impose no ordering.
#[derive(Debug)]
struct Core {
    config: CoordinatorConfig,
    /// Canonical one-shot spec JSON (`shard: null`) — the journal's
    /// campaign identity and the workers' spec template.
    campaign_json: String,
    /// The golden content address shards are placed by.
    golden_key: String,
    total: u64,
    registry: Mutex<WorkerRegistry>,
    journal: Mutex<FabricJournal>,
    merged: Mutex<MergedStream>,
    merged_path: PathBuf,
    slots: Mutex<Vec<ShardSlot>>,
    metrics: Arc<MetricsRegistry>,
    /// Set by `POST /shutdown` (or the handle): stop orchestrating and
    /// accepting.
    stop: AtomicBool,
    /// Every shard completed and the merged summary written.
    done: AtomicBool,
    /// The coordinator's trace epoch (`ts = 0` of the fleet timeline);
    /// worker timestamps are rebased onto it via heartbeat clock probes.
    epoch: Instant,
    /// The coordinator's own span timeline: dispatch/redispatch spans,
    /// worker deaths, shard completions and the campaign umbrella.
    trace: TraceRecorder,
    /// Fleet health rules, sampled by the orchestrator loop and
    /// evaluated lazily by `GET /alerts` so alerts resolve while the
    /// HTTP plane outlives the finished campaign.
    alerts: Mutex<AlertEngine>,
}

/// A running coordinator: its address plus the thread handles to join.
#[derive(Debug)]
pub struct CoordinatorHandle {
    core: Arc<Core>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    orchestrator: Option<JoinHandle<Result<(), ServeError>>>,
}

impl CoordinatorHandle {
    /// The bound address (with the resolved ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether the merged campaign has completed.
    pub fn is_done(&self) -> bool {
        self.core.done.load(Ordering::SeqCst)
    }

    /// Blocks until the campaign completes (or `timeout` elapses).
    ///
    /// # Errors
    ///
    /// [`ServeError::Interrupted`] on timeout.
    pub fn wait_done(&self, timeout: Duration) -> Result<(), ServeError> {
        let deadline = Instant::now() + timeout;
        while !self.is_done() {
            if Instant::now() >= deadline {
                return Err(ServeError::Interrupted(format!(
                    "campaign still federating after {:.1}s",
                    timeout.as_secs_f64()
                )));
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        Ok(())
    }

    /// Stops the coordinator and joins its threads, returning the
    /// orchestrator's outcome.
    ///
    /// # Errors
    ///
    /// Whatever error stopped the orchestrator first.
    pub fn shutdown(mut self) -> Result<(), ServeError> {
        self.core.stop.store(true, Ordering::SeqCst);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        match self.orchestrator.take() {
            Some(t) => t.join().unwrap_or(Ok(())),
            None => Ok(()),
        }
    }
}

/// Starts a coordinator from `config`.
///
/// # Errors
///
/// [`ServeError::Config`] for a spec that already carries a shard
/// range; [`ServeError::Io`] for data-dir, journal or listener
/// problems.
pub fn start(config: CoordinatorConfig) -> Result<CoordinatorHandle, ServeError> {
    if config.spec.shard.is_some() {
        return Err(ServeError::Config(
            "coordinator spec must not carry a shard range — the coordinator plans the split"
                .into(),
        ));
    }
    config.spec.validate()?;
    std::fs::create_dir_all(&config.data_dir)
        .map_err(|e| ServeError::Io(format!("data dir {}: {e}", config.data_dir.display())))?;
    let campaign = config.spec.campaign()?;
    let campaign_json = config.spec.to_json();
    let golden_key = GoldenKey::for_campaign(&campaign).as_str().to_owned();
    let total = config.spec.injections as u64;

    let merged_path = config.data_dir.join("merged.jsonl");
    let merged = MergedStream::resume(total, &merged_path).map_err(ServeError::Io)?;
    let requested_shards = if config.shards > 0 {
        config.shards
    } else {
        config.workers.len().max(1)
    };
    let (journal, shard_count, replayed) = FabricJournal::open(
        &config.data_dir.join("fabric.jsonl"),
        &campaign_json,
        requested_shards,
    )
    .map_err(ServeError::Protocol)?;

    // The shard plan. The journal header pins the campaign's shard
    // count, so a restarted coordinator re-derives exactly the split it
    // first journaled even if the shard-count flag changed; replayed
    // records then overlay their slots by ordinal. Shards with no
    // record — the crash predated their first dispatch — keep their
    // planned ranges and stay pending, so no index range is silently
    // dropped from the campaign.
    let slots = build_slots(total, shard_count, &replayed);

    let now = Instant::now();
    let mut registry = WorkerRegistry::new(config.heartbeat_timeout);
    for worker in &config.workers {
        registry.register(worker, now);
    }

    let listener = TcpListener::bind(&config.addr)
        .map_err(|e| ServeError::Io(format!("bind {}: {e}", config.addr)))?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;

    // The alert window must outlast one heartbeat death-and-recovery
    // cycle (sweep, re-dispatch, tail merge) so a single kill reads as
    // fire-then-resolve rather than a metastable flap.
    let alert_window = (config.heartbeat_timeout * 2).max(Duration::from_secs(2));
    let core = Arc::new(Core {
        campaign_json,
        golden_key,
        total,
        registry: Mutex::new(registry),
        journal: Mutex::new(journal),
        merged: Mutex::new(merged),
        merged_path,
        slots: Mutex::new(slots),
        metrics: Arc::new(MetricsRegistry::new()),
        stop: AtomicBool::new(false),
        done: AtomicBool::new(false),
        epoch: now,
        trace: TraceRecorder::with_epoch(now),
        alerts: Mutex::new(AlertEngine::new(AlertConfig {
            window: alert_window,
            ..AlertConfig::default()
        })),
        config,
    });

    let accept = {
        let core = Arc::clone(&core);
        std::thread::spawn(move || accept_loop(&core, &listener))
    };
    let orchestrator = {
        let core = Arc::clone(&core);
        std::thread::spawn(move || orchestrate(&core))
    };

    Ok(CoordinatorHandle {
        core,
        addr,
        accept: Some(accept),
        orchestrator: Some(orchestrator),
    })
}

/// Plans the campaign's slot table and overlays journal-replayed state
/// by shard ordinal, so slot positions always equal shard ordinals even
/// when only some shards were journaled before a crash. The planned
/// ranges are authoritative — the plan is pinned by the journal header,
/// and a record whose range disagrees with it (a corrupt or foreign
/// line) is ignored rather than smuggled into the table.
fn build_slots(total: u64, shard_count: usize, replayed: &[ShardRecord]) -> Vec<ShardSlot> {
    let mut slots: Vec<ShardSlot> = plan_shards(total, shard_count)
        .into_iter()
        .map(|(start, end)| ShardSlot {
            start,
            end,
            worker: String::new(),
            job: String::new(),
            prior: Vec::new(),
            state: SlotState::Pending,
            generation: 0,
            tailing: false,
            redispatches: 0,
        })
        .collect();
    for rec in replayed {
        let Some(s) = slots.get_mut(rec.shard) else {
            continue;
        };
        if (rec.start, rec.end) != (s.start, s.end) {
            continue;
        }
        s.worker = rec.worker.clone();
        s.job = rec.job.clone();
        // Everything incomplete is re-dispatched from the merged
        // stream's coverage — the journaled assignment may point at a
        // worker that died with the previous coordinator.
        s.state = match rec.state {
            ShardState::Completed => SlotState::Completed,
            _ => SlotState::Pending,
        };
        s.redispatches = u64::from(rec.state == ShardState::Redispatched);
    }
    slots
}

// ---------------------------------------------------------------------
// Orchestration
// ---------------------------------------------------------------------

const ORCHESTRATE_TICK: Duration = Duration::from_millis(25);

/// The deterministic span id of shard `shard`'s `generation`-th
/// dispatch — the parentage edge workers stamp onto their spans. No
/// clocks or global counters, so re-runs of the same campaign mint the
/// same ids.
fn parent_span_id(shard: usize, generation: u64) -> u64 {
    shard as u64 * 1000 + generation
}

fn orchestrate(core: &Arc<Core>) -> Result<(), ServeError> {
    let result = orchestrate_loop(core);
    if let Err(e) = &result {
        // A failed journal write (or summary write) must halt the
        // orchestrator loudly: continuing would act on transitions the
        // journal never recorded, and a later restart would replay
        // stale state as if it were current.
        eprintln!("radcrit-coordinator: orchestrator stopped: {e}");
        core.stop.store(true, Ordering::SeqCst);
    }
    result
}

fn orchestrate_loop(core: &Arc<Core>) -> Result<(), ServeError> {
    let (tx, rx) = std::sync::mpsc::channel::<TailEnd>();
    let mut last_beat: Option<Instant> = None;
    // Alerts sample the fleet before the first dispatch, on every sweep,
    // and after any death or redispatch off the heartbeat path — never
    // per tick, since the stall rules count samples.
    let mut sampled = evaluate_alerts(core);
    loop {
        if core.stop.load(Ordering::SeqCst) {
            return Ok(());
        }
        dispatch_pending(core, &tx)?;
        drain_tail_endings(core, &rx)?;
        let now = Instant::now();
        let beat =
            last_beat.is_none_or(|t| now.duration_since(t) >= core.config.heartbeat_interval);
        if beat {
            last_beat = Some(now);
            heartbeat(core);
        }
        if beat || sampled != fleet_counters(core) {
            sampled = evaluate_alerts(core);
        }
        complete_covered_shards(core)?;
        if finish_if_done(core)? {
            return Ok(());
        }
        std::thread::sleep(ORCHESTRATE_TICK);
    }
}

/// Dispatches every pending shard whose range still has uncovered
/// indices, placing each by rendezvous rank over the live fleet.
///
/// # Errors
///
/// A journal write failure — the dispatch is abandoned (the shard slot
/// is untouched, still pending) and the orchestrator stops rather than
/// running a dispatch its journal never recorded.
fn dispatch_pending(core: &Arc<Core>, tx: &Sender<TailEnd>) -> Result<(), ServeError> {
    let pending: Vec<usize> = {
        let slots = core.slots.lock().expect("slots lock");
        slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.state == SlotState::Pending && !s.tailing)
            .map(|(i, _)| i)
            .collect()
    };
    for shard in pending {
        let (start, end, prior_worker, had_assignment, generation) = {
            let slots = core.slots.lock().expect("slots lock");
            let s = &slots[shard];
            (
                s.start,
                s.end,
                s.worker.clone(),
                !s.job.is_empty(),
                s.generation,
            )
        };
        let resume_from = {
            let merged = core.merged.lock().expect("merged lock");
            merged.next_uncovered(start, end)
        };
        if resume_from == end {
            // The dead worker had streamed the whole shard before dying;
            // nothing to re-run.
            mark_completed(core, shard)?;
            continue;
        }
        let alive = core.registry.lock().expect("registry lock").alive();
        if alive.is_empty() {
            return Ok(()); // nobody to dispatch to; retry next tick
        }
        // Rendezvous placement over the golden content address: shard i
        // of this campaign ranks the fleet the same way on every
        // coordinator run. On re-dispatch the (dead) prior worker is
        // skipped when any alternative exists.
        let key = format!("{}#{shard}", core.golden_key);
        let rank = rendezvous_rank(&key, &alive);
        let candidates: Vec<&String> = rank
            .iter()
            .map(|&i| &alive[i])
            .filter(|w| !(had_assignment && alive.len() > 1 && **w == prior_worker))
            .collect();
        let mut spec = JobSpec::parse(&core.campaign_json).expect("own canonical spec");
        spec.shard = Some((resume_from as usize, end as usize));
        // The dispatch span's id is deterministic (shard and dispatch
        // generation, no clocks or counters) so two runs of the same
        // campaign mint identical parentage edges.
        let span_id = parent_span_id(shard, generation + 1);
        spec.trace = Some(TraceContext {
            campaign_id: core.golden_key.clone(),
            shard: shard as u64,
            parent_span: span_id,
        });
        for worker in candidates {
            let client = Client::new(worker.clone())
                .with_connect_timeout(Duration::from_secs(2))
                .with_read_timeout(Duration::from_secs(10));
            let submit_started = Instant::now();
            match client.submit(&spec) {
                Ok(job) => {
                    let state = if had_assignment {
                        ShardState::Redispatched
                    } else {
                        ShardState::Dispatched
                    };
                    journal_append(
                        core,
                        &ShardRecord {
                            shard,
                            start,
                            end,
                            worker: worker.clone(),
                            job: job.clone(),
                            state,
                            resume_from,
                        },
                    )?;
                    core.metrics.counter_add(
                        match state {
                            ShardState::Redispatched => "radcrit_fabric_shards_redispatched_total",
                            _ => "radcrit_fabric_shards_dispatched_total",
                        },
                        &[],
                        1,
                    );
                    core.trace.record(
                        match state {
                            ShardState::Redispatched => "redispatch",
                            _ => "dispatch",
                        },
                        shard as u64,
                        submit_started,
                        &[
                            ("shard", shard as u64),
                            ("span_id", span_id),
                            ("resume_from", resume_from),
                        ],
                    );
                    let generation = {
                        let mut slots = core.slots.lock().expect("slots lock");
                        let s = &mut slots[shard];
                        if !s.job.is_empty() {
                            s.prior.push((s.worker.clone(), s.job.clone()));
                        }
                        s.worker = worker.clone();
                        s.job = job.clone();
                        s.state = SlotState::Dispatched;
                        s.generation += 1;
                        s.tailing = true;
                        s.redispatches += u64::from(state == ShardState::Redispatched);
                        s.generation
                    };
                    spawn_tailer(core, shard, generation, worker.clone(), job, tx.clone());
                    break;
                }
                Err(ServeError::Unreachable(_)) => {
                    // Can't even connect: dead now, try the next rank.
                    let flipped = core
                        .registry
                        .lock()
                        .expect("registry lock")
                        .mark_dead(worker);
                    if flipped {
                        core.trace
                            .record(&format!("worker-dead {worker}"), 0, submit_started, &[]);
                    }
                }
                Err(ServeError::Io(_)) => {
                    // The connection was established, so the worker may
                    // have accepted the job before the failure (a read
                    // timeout on a slow-but-live daemon, say). Don't
                    // strike it from the fleet — skip to the next rank
                    // and let the heartbeat sweep decide liveness. A
                    // possibly orphaned duplicate is safe: the merge is
                    // idempotent per injection index.
                }
                Err(_) => {
                    // The worker answered but refused (queue full,
                    // draining): leave it alive, try the next rank.
                }
            }
        }
    }
    Ok(())
}

/// One tailer per dispatched shard: feeds the worker's SSE frames into
/// the merged stream, reconnecting (with `Last-Event-ID`) over transient
/// drops, and reports back when the stream ends or the worker dies.
fn spawn_tailer(
    core: &Arc<Core>,
    shard: usize,
    generation: u64,
    worker: String,
    job: String,
    tx: Sender<TailEnd>,
) {
    let core = Arc::clone(core);
    std::thread::spawn(move || {
        let client = Client::new(worker.clone())
            .with_connect_timeout(Duration::from_secs(2))
            .with_read_timeout(Duration::from_secs(60));
        let shard_label = shard.to_string();
        let mut last: Option<u64> = None;
        let mut failures = 0u32;
        let result = loop {
            let mut progressed = false;
            let outcome = client.stream_with(&job, last, &mut |ordinal, data| {
                progressed = true;
                last = Some(ordinal);
                {
                    let mut merged = core.merged.lock().expect("merged lock");
                    if let Ok(IngestOutcome::NewIndex(_)) = merged.ingest_line(data) {
                        core.metrics.counter_add(
                            "radcrit_shard_events_total",
                            &[("shard", &shard_label)],
                            1,
                        );
                        // Flush so the federated SSE tail sees the line.
                        let _ = merged.finish_if_complete();
                    }
                }
                // Frames flowing are better evidence than any probe.
                core.registry
                    .lock()
                    .expect("registry lock")
                    .mark_seen(&worker, Instant::now());
                !core.stop.load(Ordering::SeqCst)
            });
            match outcome {
                Ok(()) => break Ok(()),
                Err(e @ (ServeError::Io(_) | ServeError::Unreachable(_))) => {
                    failures = if progressed { 1 } else { failures + 1 };
                    if failures > 3 {
                        break Err(e);
                    }
                    std::thread::sleep(Duration::from_millis(100 << failures));
                }
                Err(e) => break Err(e),
            }
        };
        let _ = tx.send(TailEnd {
            shard,
            generation,
            result,
        });
    });
}

fn drain_tail_endings(core: &Arc<Core>, rx: &Receiver<TailEnd>) -> Result<(), ServeError> {
    while let Ok(end) = rx.try_recv() {
        // Global lock order is slots before merged (everywhere: the
        // completion scan, /shards, /metrics) — copy the range out
        // while holding slots, then consult coverage.
        let (worker, start, stop) = {
            let mut slots = core.slots.lock().expect("slots lock");
            let s = &mut slots[end.shard];
            if s.generation != end.generation {
                continue; // a stale tailer from before a re-dispatch
            }
            s.tailing = false;
            (s.worker.clone(), s.start, s.end)
        };
        let covered = {
            let merged = core.merged.lock().expect("merged lock");
            merged.covered_in(start, stop) == stop - start
        };
        if covered {
            mark_completed(core, end.shard)?;
            continue;
        }
        // The stream ended but the shard is not covered: either the
        // worker died mid-stream, or its job ended without finishing
        // (cancelled / failed). Both paths re-dispatch the remainder;
        // a dead worker is also struck from the fleet immediately.
        if end.result.is_err() {
            let flipped = core
                .registry
                .lock()
                .expect("registry lock")
                .mark_dead(&worker);
            if flipped {
                core.trace
                    .record(&format!("worker-dead {worker}"), 0, Instant::now(), &[]);
            }
        }
        let mut slots = core.slots.lock().expect("slots lock");
        slots[end.shard].state = SlotState::Pending;
    }
    Ok(())
}

/// Probes every registered worker's `/healthz`, then sweeps the fleet:
/// newly dead workers get their incomplete shards re-dispatched (by
/// flipping them pending; the next planner pass does the rest).
///
/// Each successful probe doubles as a clock measurement: the worker's
/// body reports `now_us` on its own trace timeline, and the midpoint
/// method (`coordinator_midpoint - worker_now`, error bound RTT/2)
/// yields the offset the fleet trace rebases that worker's spans by.
fn heartbeat(core: &Arc<Core>) {
    let workers: Vec<String> = {
        let registry = core.registry.lock().expect("registry lock");
        registry.alive()
    };
    for worker in &workers {
        let client = Client::new(worker.clone())
            .with_connect_timeout(Duration::from_millis(500))
            .with_read_timeout(Duration::from_millis(500));
        let t0 = Instant::now();
        if let Ok(body) = client.healthz() {
            let t1 = Instant::now();
            let mut registry = core.registry.lock().expect("registry lock");
            registry.mark_seen(worker, t1);
            let rtt = t1.duration_since(t0);
            // Legacy daemons answer without `now_us`; they stay alive
            // but unsynchronized (the fleet trace uses offset 0).
            if let Some(worker_now_us) = parse_now_us(&body) {
                let midpoint_us = (t0 + rtt / 2)
                    .checked_duration_since(core.epoch)
                    .map_or(0, |d| d.as_micros() as i64);
                let offset_us = midpoint_us - worker_now_us;
                registry.record_probe(
                    worker,
                    ClockProbe {
                        at: t1,
                        rtt,
                        offset_us,
                    },
                );
                drop(registry);
                core.metrics.gauge_set(
                    "radcrit_trace_clock_offset_us",
                    &[("worker", worker)],
                    offset_us as f64,
                );
            }
        }
    }
    let sweep_started = Instant::now();
    let newly_dead = core
        .registry
        .lock()
        .expect("registry lock")
        .sweep_at(sweep_started);
    if !newly_dead.is_empty() {
        for worker in &newly_dead {
            core.trace
                .record(&format!("worker-dead {worker}"), 0, sweep_started, &[]);
        }
        let mut slots = core.slots.lock().expect("slots lock");
        for s in slots.iter_mut() {
            if s.state == SlotState::Dispatched && newly_dead.contains(&s.worker) {
                s.state = SlotState::Pending;
                // The tailer will error out on its own; its ending is
                // recognised as stale once the shard is re-dispatched.
                s.tailing = false;
            }
        }
    }
    core.metrics.gauge_set(
        "radcrit_fabric_workers_alive",
        &[],
        core.registry.lock().expect("registry lock").alive_count() as f64,
    );
}

/// The worker's `now_us` trace-timeline clock from a `/healthz` body.
fn parse_now_us(body: &str) -> Option<i64> {
    let v = json::parse_line(body.trim()).ok()?;
    let obj = json::as_obj(&v).ok()?;
    json::get_u64(obj, "now_us").ok().map(|n| n as i64)
}

/// Cumulative worker deaths and shard redispatches.
fn fleet_counters(core: &Arc<Core>) -> (u64, u64) {
    let deaths = core.registry.lock().expect("registry lock").deaths_total();
    let slots = core.slots.lock().expect("slots lock");
    (deaths, slots.iter().map(|s| s.redispatches).sum())
}

/// Feeds the fleet health rules one sample: cumulative worker deaths
/// and redispatches, merged coverage and the FIT confidence interval.
/// Firing/resolved edges land on stderr as structured JSONL lines and
/// on `/metrics` as `radcrit_alert_*` series. Returns the counters.
fn evaluate_alerts(core: &Arc<Core>) -> (u64, u64) {
    let (deaths, redispatches) = fleet_counters(core);
    let (covered, ci_width, folded) = {
        let merged = core.merged.lock().expect("merged lock");
        (
            merged.covered_in(0, core.total),
            merged.aggregator().fit_ci_width(),
            merged.aggregator().injections(),
        )
    };
    let sample = HealthSample {
        worker_deaths_total: deaths,
        redispatches_total: redispatches,
        covered,
        total: core.total,
        done: core.done.load(Ordering::SeqCst),
        queue_depth: None,
        fit_ci_width: (folded > 0).then_some(ci_width),
        injections_folded: folded,
    };
    let mut engine = core.alerts.lock().expect("alerts lock");
    let edges = engine.observe(Instant::now(), sample);
    engine.export_gauges(&core.metrics);
    drop(engine);
    for edge in &edges {
        eprintln!("{}", edge.to_json_line());
    }
    radcrit_obs::alerts::export_edges(&edges, &core.metrics);
    (deaths, redispatches)
}

/// Journals and records completion for shards whose whole range became
/// covered (the tailer may still be attached when coverage arrives via
/// another shard's re-delivered prefix).
fn complete_covered_shards(core: &Arc<Core>) -> Result<(), ServeError> {
    let candidates: Vec<usize> = {
        let slots = core.slots.lock().expect("slots lock");
        let merged = core.merged.lock().expect("merged lock");
        slots
            .iter()
            .enumerate()
            .filter(|(_, s)| {
                s.state == SlotState::Dispatched
                    && merged.covered_in(s.start, s.end) == s.end - s.start
            })
            .map(|(i, _)| i)
            .collect()
    };
    for shard in candidates {
        mark_completed(core, shard)?;
    }
    Ok(())
}

/// Transitions one shard to completed: merged stream flushed, then the
/// journal record, then the in-memory slot flip and metrics, then
/// (best-effort) the worker's per-job metrics snapshot merged into the
/// coordinator registry under a `shard` label.
///
/// # Errors
///
/// A merged-stream flush or journal write failure — the slot is left
/// untouched (still dispatched/pending) so a restart re-tails the shard
/// instead of trusting a completion that was never made durable.
fn mark_completed(core: &Arc<Core>, shard: usize) -> Result<(), ServeError> {
    let (record, worker, job) = {
        let slots = core.slots.lock().expect("slots lock");
        let s = &slots[shard];
        if s.state == SlotState::Completed {
            return Ok(());
        }
        (
            ShardRecord {
                shard,
                start: s.start,
                end: s.end,
                worker: s.worker.clone(),
                job: s.job.clone(),
                state: ShardState::Completed,
                resume_from: s.end,
            },
            s.worker.clone(),
            s.job.clone(),
        )
    };
    // The merged prefix must be durable before the journal claims the
    // shard complete — a crash between the two must re-tail, not skip —
    // and the journal must hold the transition before the slot acts on
    // it.
    core.merged
        .lock()
        .expect("merged lock")
        .finish_if_complete()
        .map_err(ServeError::Io)?;
    journal_append(core, &record)?;
    {
        let mut slots = core.slots.lock().expect("slots lock");
        let s = &mut slots[shard];
        s.state = SlotState::Completed;
        s.tailing = false;
    }
    core.metrics
        .counter_add("radcrit_fabric_shards_completed_total", &[], 1);
    core.trace.record(
        "shard-complete",
        shard as u64,
        Instant::now(),
        &[("shard", shard as u64)],
    );
    if !worker.is_empty() && !job.is_empty() {
        let client = Client::new(worker)
            .with_connect_timeout(Duration::from_secs(2))
            .with_read_timeout(Duration::from_secs(10));
        if let Ok(text) = client.job_metrics(&job) {
            if let Ok(snapshot) = MetricsSnapshot::from_json(text.trim()) {
                core.metrics
                    .merge_snapshot_labelled(&snapshot, ("shard", &shard.to_string()));
            }
        }
    }
    Ok(())
}

/// Once every shard completed: synthesize the merged `run_end`, write
/// the canonical summary, and flip the done flag.
fn finish_if_done(core: &Arc<Core>) -> Result<bool, ServeError> {
    let all_done = {
        let slots = core.slots.lock().expect("slots lock");
        !slots.is_empty() && slots.iter().all(|s| s.state == SlotState::Completed)
    };
    if !all_done {
        return Ok(false);
    }
    let summary = {
        let mut merged = core.merged.lock().expect("merged lock");
        merged.finish_if_complete().map_err(ServeError::Io)?;
        CampaignSummary::from_analytics(merged.aggregator())
    };
    if let Some(path) = &core.config.summary_out {
        std::fs::write(path, format!("{}\n", summary.to_json()))
            .map_err(|e| ServeError::Io(format!("{}: {e}", path.display())))?;
    }
    // The campaign umbrella span closes the coordinator's own track
    // (epoch → now), then the merged fleet timeline is materialized
    // while the workers still hold their job traces.
    let shards = core.slots.lock().expect("slots lock").len() as u64;
    core.trace.record(
        "campaign",
        0,
        core.epoch,
        &[("injections", core.total), ("shards", shards)],
    );
    if let Some(path) = &core.config.trace_out {
        std::fs::write(path, build_fleet_trace(core))
            .map_err(|e| ServeError::Io(format!("{}: {e}", path.display())))?;
    }
    evaluate_alerts(core); // final counters, before `done` is visible
    core.done.store(true, Ordering::SeqCst);
    Ok(true)
}

/// Appends one shard transition to the fabric journal. A write failure
/// is an error the caller must treat as fatal for the transition: the
/// invariant is journal-before-act, so an unjournaled transition must
/// not proceed (a restart would otherwise replay stale state).
fn journal_append(core: &Arc<Core>, record: &ShardRecord) -> Result<(), ServeError> {
    core.journal
        .lock()
        .expect("journal lock")
        .append(record)
        .map_err(|e| ServeError::Io(format!("fabric journal append: {e}")))
}

// ---------------------------------------------------------------------
// HTTP routing
// ---------------------------------------------------------------------

fn accept_loop(core: &Arc<Core>, listener: &TcpListener) {
    loop {
        if core.stop.load(Ordering::SeqCst) {
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
    let path = req.path.split('?').next().unwrap_or(&req.path);
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("POST", ["register"]) => post_register(core, stream, &req.body),
        ("GET", ["shards"]) => get_shards(core, stream),
        ("GET", ["analytics"]) => get_analytics(core, stream),
        ("GET", ["jobs"]) => get_jobs(core, stream),
        ("GET", ["jobs", _id]) => get_status(core, stream),
        ("GET", ["jobs", _id, "stream"]) => get_stream(core, stream, req),
        ("GET", ["jobs", _id, "events"]) => get_events(core, stream),
        ("GET", ["jobs", _id, "analytics"]) => {
            let merged = core.merged.lock().expect("merged lock");
            let body = merged.aggregator().to_json();
            drop(merged);
            respond(stream, 200, "application/json", &body)
        }
        ("GET", ["jobs", _id, "result"]) => get_result(core, stream),
        ("GET", ["dashboard"]) => respond(
            stream,
            200,
            "text/html; charset=utf-8",
            crate::dashboard::DASHBOARD_HTML,
        ),
        ("GET", ["metrics"]) => get_metrics(core, stream),
        ("GET", ["trace"]) => {
            let body = build_fleet_trace(core);
            respond(stream, 200, "application/json", &body)
        }
        ("GET", ["alerts"]) => get_alerts(core, stream),
        ("GET", ["healthz"]) => get_healthz(core, stream),
        ("POST", ["shutdown"]) => {
            core.stop.store(true, Ordering::SeqCst);
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

fn post_register(core: &Arc<Core>, stream: &mut TcpStream, body: &str) -> Result<(), ServeError> {
    let worker = json::parse_line(body)
        .and_then(|v| json::as_obj(&v).map(<[_]>::to_vec))
        .and_then(|obj| json::get_str(&obj, "worker").map(str::to_owned));
    let worker = match worker {
        Ok(w) if !w.is_empty() => w,
        _ => {
            return respond(
                stream,
                400,
                "application/json",
                "{\"error\":\"body must be {\\\"worker\\\":\\\"host:port\\\"}\"}",
            );
        }
    };
    let alive = {
        let mut registry = core.registry.lock().expect("registry lock");
        registry.register(&worker, Instant::now());
        registry.alive_count()
    };
    let body = format!(
        "{{\"registered\":\"{}\",\"workers_alive\":{alive}}}",
        json::escape(&worker)
    );
    respond(stream, 200, "application/json", &body)
}

fn get_shards(core: &Arc<Core>, stream: &mut TcpStream) -> Result<(), ServeError> {
    let rows: Vec<String> = {
        let slots = core.slots.lock().expect("slots lock");
        let merged = core.merged.lock().expect("merged lock");
        slots
            .iter()
            .enumerate()
            .map(|(i, s)| {
                format!(
                    "{{\"shard\":{i},\"start\":{},\"end\":{},\"worker\":\"{}\",\
                     \"job\":\"{}\",\"state\":\"{}\",\"covered\":{},\"redispatches\":{}}}",
                    s.start,
                    s.end,
                    json::escape(&s.worker),
                    json::escape(&s.job),
                    match s.state {
                        SlotState::Pending => "pending",
                        SlotState::Dispatched => "dispatched",
                        SlotState::Completed => "completed",
                    },
                    merged.covered_in(s.start, s.end),
                    s.redispatches,
                )
            })
            .collect()
    };
    let body = format!("{{\"shards\":[{}]}}", rows.join(","));
    respond(stream, 200, "application/json", &body)
}

/// Merged rollup in the daemon's `GET /analytics` body shape, so the
/// shared dashboard renders a coordinator unchanged.
fn get_analytics(core: &Arc<Core>, stream: &mut TcpStream) -> Result<(), ServeError> {
    let (shards, completed) = {
        let slots = core.slots.lock().expect("slots lock");
        (
            slots.len(),
            slots
                .iter()
                .filter(|s| s.state == SlotState::Completed)
                .count(),
        )
    };
    let rollup = {
        let merged = core.merged.lock().expect("merged lock");
        merged.aggregator().to_json()
    };
    let body = format!("{{\"jobs\":{shards},\"folded\":{completed},\"rollup\":{rollup}}}");
    respond(stream, 200, "application/json", &body)
}

fn get_jobs(core: &Arc<Core>, stream: &mut TcpStream) -> Result<(), ServeError> {
    let status = if core.done.load(Ordering::SeqCst) {
        "done"
    } else {
        "running"
    };
    let body = format!("{{\"jobs\":[{{\"job\":\"merged\",\"status\":\"{status}\"}}]}}");
    respond(stream, 200, "application/json", &body)
}

fn get_status(core: &Arc<Core>, stream: &mut TcpStream) -> Result<(), ServeError> {
    let status = if core.done.load(Ordering::SeqCst) {
        "done"
    } else {
        "running"
    };
    let body = format!("{{\"job\":\"merged\",\"status\":\"{status}\"}}");
    respond(stream, 200, "application/json", &body)
}

/// The federated stream: the merged analytic skeleton tailed as SSE,
/// resumable via `Last-Event-ID` exactly like a single daemon's stream.
fn get_stream(core: &Arc<Core>, stream: &mut TcpStream, req: &Request) -> Result<(), ServeError> {
    let resume_after = crate::live::parse_last_event_id(req.header("last-event-id"));
    let core_for_poll = Arc::clone(core);
    match crate::live::stream_sse(stream, &core.merged_path, resume_after, &move || {
        core_for_poll.done.load(Ordering::SeqCst) || core_for_poll.stop.load(Ordering::SeqCst)
    }) {
        Err(ServeError::Disconnected(_)) => Ok(()),
        other => other,
    }
}

fn get_events(core: &Arc<Core>, stream: &mut TcpStream) -> Result<(), ServeError> {
    let mut file = match std::fs::File::open(&core.merged_path) {
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

fn get_result(core: &Arc<Core>, stream: &mut TcpStream) -> Result<(), ServeError> {
    if !core.done.load(Ordering::SeqCst) {
        return respond(
            stream,
            409,
            "application/json",
            "{\"error\":\"job is running, result not available\"}",
        );
    }
    let body = {
        let merged = core.merged.lock().expect("merged lock");
        format!(
            "{}\n",
            CampaignSummary::from_analytics(merged.aggregator()).to_json()
        )
    };
    respond(stream, 200, "application/json", &body)
}

fn get_metrics(core: &Arc<Core>, stream: &mut TcpStream) -> Result<(), ServeError> {
    // Scrape-time gauges: fleet health and per-shard coverage.
    core.metrics.gauge_set(
        "radcrit_fabric_workers_alive",
        &[],
        core.registry.lock().expect("registry lock").alive_count() as f64,
    );
    {
        let slots = core.slots.lock().expect("slots lock");
        let merged = core.merged.lock().expect("merged lock");
        for (i, s) in slots.iter().enumerate() {
            core.metrics.gauge_set(
                "radcrit_shard_covered",
                &[("shard", &i.to_string())],
                merged.covered_in(s.start, s.end) as f64,
            );
        }
    }
    respond(
        stream,
        200,
        "text/plain; version=0.0.4",
        &core.metrics.snapshot().to_prometheus(),
    )
}

/// Builds the merged fleet-wide Chrome trace: the coordinator's own
/// track (pid 1, offset 0) plus every shard job's trace fetched from
/// its worker (pid 2+registration ordinal), each rebased onto the
/// coordinator clock by that worker's best heartbeat probe. A dead or
/// torn source is recorded in `skipped_sources` without dropping the
/// rest of the timeline.
fn build_fleet_trace(core: &Arc<Core>) -> String {
    let mut fleet = FleetTrace::new();
    fleet.set_metadata(
        "campaign_id",
        format!("\"{}\"", json::escape(&core.golden_key)),
    );
    fleet.set_metadata("injections", core.total.to_string());
    fleet.add_process(1, "coordinator");
    let own = core.trace.to_chrome_json(&[]);
    if let Err(e) = fleet.add_trace(1, &own, 0) {
        fleet.skip("coordinator", &e);
    }
    // Worker pids follow registration order; the offset is the lowest-
    // RTT heartbeat probe's midpoint estimate (0 until one lands).
    let workers: Vec<(String, i64)> = {
        let registry = core.registry.lock().expect("registry lock");
        registry
            .workers()
            .iter()
            .map(|w| {
                (
                    w.addr.clone(),
                    registry.clock_offset(&w.addr).map_or(0, |e| e.offset_us),
                )
            })
            .collect()
    };
    for (i, (addr, _)) in workers.iter().enumerate() {
        fleet.add_process(2 + i as u64, &format!("worker {addr}"));
    }
    // Every assignment each shard ever had, current last — the fetches
    // happen with no core lock held (workers are remote HTTP calls).
    let sources: Vec<(String, String)> = {
        let slots = core.slots.lock().expect("slots lock");
        slots
            .iter()
            .flat_map(|s| {
                s.prior
                    .iter()
                    .cloned()
                    .chain((!s.job.is_empty()).then(|| (s.worker.clone(), s.job.clone())))
            })
            .collect()
    };
    for (worker, job) in &sources {
        let Some(pid) = workers
            .iter()
            .position(|(addr, _)| addr == worker)
            .map(|i| 2 + i as u64)
        else {
            fleet.skip(&format!("{worker}/{job}"), "worker not registered");
            continue;
        };
        let offset = workers
            .iter()
            .find(|(addr, _)| addr == worker)
            .map_or(0, |&(_, off)| off);
        let client = Client::new(worker.clone())
            .with_connect_timeout(Duration::from_secs(1))
            .with_read_timeout(Duration::from_secs(5));
        match client.trace(job) {
            Ok(doc) => {
                if let Err(e) = fleet.add_trace(pid, &doc, offset) {
                    fleet.skip(&format!("{worker}/{job}"), &e);
                }
            }
            Err(e) => fleet.skip(&format!("{worker}/{job}"), &e.to_string()),
        }
    }
    fleet.to_chrome_json()
}

/// The alert engine's current state, evaluated lazily at request time
/// so a fired alert resolves once its window drains even after the
/// campaign stops sweeping.
fn get_alerts(core: &Arc<Core>, stream: &mut TcpStream) -> Result<(), ServeError> {
    let mut engine = core.alerts.lock().expect("alerts lock");
    let edges = engine.evaluate_at(Instant::now());
    engine.export_gauges(&core.metrics);
    let body = engine.to_json();
    drop(engine);
    for edge in &edges {
        eprintln!("{}", edge.to_json_line());
    }
    radcrit_obs::alerts::export_edges(&edges, &core.metrics);
    respond(stream, 200, "application/json", &body)
}

fn get_healthz(core: &Arc<Core>, stream: &mut TcpStream) -> Result<(), ServeError> {
    let (shards, completed) = {
        let slots = core.slots.lock().expect("slots lock");
        (
            slots.len(),
            slots
                .iter()
                .filter(|s| s.state == SlotState::Completed)
                .count(),
        )
    };
    let covered = core
        .merged
        .lock()
        .expect("merged lock")
        .covered_in(0, core.total);
    let body = format!(
        "{{\"ok\":true,\"workers_alive\":{},\"shards\":{shards},\
         \"completed\":{completed},\"covered\":{covered},\"injections\":{},\"done\":{}}}",
        core.registry.lock().expect("registry lock").alive_count(),
        core.total,
        core.done.load(Ordering::SeqCst),
    );
    respond(stream, 200, "application/json", &body)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(shard: usize, start: u64, end: u64, state: ShardState) -> ShardRecord {
        ShardRecord {
            shard,
            start,
            end,
            worker: format!("w{shard}:1"),
            job: format!("job-{shard:06}"),
            state,
            resume_from: start,
        }
    }

    #[test]
    fn unjournaled_shards_keep_their_planned_ranges() {
        // Only shard 1 of 4 was journaled before the crash: the other
        // three must survive the rebuild as pending planned ranges, not
        // vanish (which would "complete" the campaign with uncovered
        // indices).
        let planned = plan_shards(40, 4);
        let replayed = vec![rec(1, planned[1].0, planned[1].1, ShardState::Dispatched)];
        let slots = build_slots(40, 4, &replayed);
        assert_eq!(slots.len(), 4);
        for (i, s) in slots.iter().enumerate() {
            assert_eq!((s.start, s.end), planned[i]);
            assert_eq!(s.state, SlotState::Pending);
        }
        assert_eq!(slots[1].worker, "w1:1", "replayed slot keeps its ordinal");
        assert_eq!(slots[1].job, "job-000001");
        assert!(slots[0].worker.is_empty());
        assert!(slots[2].worker.is_empty());
    }

    #[test]
    fn replayed_completions_overlay_by_ordinal() {
        let planned = plan_shards(30, 3);
        let replayed = vec![
            rec(0, planned[0].0, planned[0].1, ShardState::Completed),
            rec(2, planned[2].0, planned[2].1, ShardState::Redispatched),
        ];
        let slots = build_slots(30, 3, &replayed);
        assert_eq!(slots[0].state, SlotState::Completed);
        assert_eq!(slots[1].state, SlotState::Pending);
        assert_eq!(slots[2].state, SlotState::Pending);
        assert_eq!(slots[2].redispatches, 1);
    }

    #[test]
    fn records_disagreeing_with_the_plan_are_ignored() {
        // A record whose range does not match the pinned plan (corrupt
        // line, foreign journal) must not smuggle its range or state
        // into the table.
        let replayed = vec![rec(0, 5, 999, ShardState::Completed)];
        let slots = build_slots(20, 2, &replayed);
        assert_eq!((slots[0].start, slots[0].end), (0, 10));
        assert_eq!(slots[0].state, SlotState::Pending);
        assert!(slots[0].worker.is_empty());
    }

    #[test]
    fn out_of_range_ordinals_are_ignored() {
        let replayed = vec![rec(9, 0, 10, ShardState::Completed)];
        let slots = build_slots(20, 2, &replayed);
        assert_eq!(slots.len(), 2);
        assert!(slots.iter().all(|s| s.state == SlotState::Pending));
    }
}
