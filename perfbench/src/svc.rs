//! Clients of the service and fabric layers: daemon start/stop, one
//! closed-loop job (submit → SSE stream to the terminal event → result)
//! and one federated campaign (coordinator start → wait → merged
//! result). Each call into `serve`/`fabric` gets its own span.

use std::path::Path;
use std::time::{Duration, Instant};

use radcrit_obs::profile::ProfileTree;
use radcrit_serve::coord::{self, CoordinatorConfig};
use radcrit_serve::daemon::{self, DaemonConfig, DaemonHandle};
use radcrit_serve::{Client, JobSpec, ServeError};

use crate::env;
use crate::trace::Ctx;

const TERMINAL_EVENT: &str = "{\"e\":\"run_end\"";

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Starts `count` in-process daemons on ephemeral ports and fresh data
/// directories, one after another, and returns them with each start's
/// duration in ms. None is stopped here, so no start overlaps another
/// daemon's teardown.
pub fn start_daemons(
    ctx: &Ctx,
    name: &str,
    count: usize,
    pool: usize,
) -> Result<(Vec<DaemonHandle>, Vec<f64>), String> {
    let mut handles = Vec::with_capacity(count);
    let mut took_ms = Vec::with_capacity(count);
    for i in 0..count {
        let dir = env::fresh_dir(&format!("{name}-{i}"))?;
        let (handle, took) = ctx.with_run(i as u64).call("serve", "daemon_start", || {
            daemon::start(DaemonConfig {
                addr: "127.0.0.1:0".to_owned(),
                data_dir: dir,
                pool,
                queue_depth: 64,
                ..DaemonConfig::default()
            })
        });
        handles.push(handle.map_err(|e| format!("daemon start: {e}"))?);
        took_ms.push(ms(took));
    }
    Ok((handles, took_ms))
}

/// Starts `count` daemons and keeps the last one: the set-up whose
/// median start time a workload reports.
pub fn start_one_of(
    ctx: &Ctx,
    name: &str,
    count: usize,
    pool: usize,
) -> Result<(DaemonHandle, Vec<f64>), String> {
    let (mut handles, took_ms) = start_daemons(ctx, name, count.max(1), pool)?;
    let kept = handles.pop().expect("at least one daemon");
    for spare in handles {
        stop_daemon(ctx, spare);
    }
    Ok((kept, took_ms))
}

/// Drains and joins a daemon.
pub fn stop_daemon(ctx: &Ctx, handle: DaemonHandle) {
    ctx.call("serve", "daemon_stop", || {
        Client::new(handle.addr().to_string()).shutdown().ok();
        handle.join();
    });
}

/// One served job, timed from the start of its submit call.
#[derive(Debug, Clone)]
pub struct JobTiming {
    pub submit_ms: f64,
    /// Submit start → first SSE event.
    pub first_event_ms: f64,
    /// Submit returned → first SSE event: queue wait, job start and
    /// golden lookup.
    pub to_first_event_ms: f64,
    /// First SSE event → terminal (`run_end`) event.
    pub stream_ms: f64,
    pub result_ms: f64,
    /// Submit start → result fetched.
    pub job_ms: f64,
    pub result: String,
}

/// Why a job did not complete.
#[derive(Debug)]
pub enum JobError {
    /// 429 or 503: the daemon refused the submission.
    Refused(String),
    Failed(String),
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Refused(e) => write!(f, "refused: {e}"),
            JobError::Failed(e) => write!(f, "{e}"),
        }
    }
}

/// Submits `spec`, tails its SSE stream to the end, fetches the result.
pub fn run_job(ctx: &Ctx, client: &Client, spec: &JobSpec) -> Result<JobTiming, JobError> {
    let t0 = Instant::now();
    let (id, submit) = ctx.call("serve", "submit", || client.submit(spec));
    let id = id.map_err(|e| match e {
        ServeError::Http {
            status: 429 | 503, ..
        } => JobError::Refused(e.to_string()),
        e => JobError::Failed(format!("submit: {e}")),
    })?;
    let (first, terminal) = tail(ctx, "serve", client, &id).map_err(JobError::Failed)?;
    let submitted = t0 + submit;
    let (result, result_took) = ctx.call("serve", "result", || client.result(&id));
    let result = result.map_err(|e| JobError::Failed(format!("result of {id}: {e}")))?;
    let done = Instant::now();
    Ok(JobTiming {
        submit_ms: ms(submit),
        first_event_ms: ms(first - t0),
        to_first_event_ms: ms(first.saturating_duration_since(submitted)),
        stream_ms: ms(terminal - first),
        result_ms: ms(result_took),
        job_ms: ms(done - t0),
        result,
    })
}

/// Streams job `id` until the server ends the stream; returns the
/// arrival instants of the first and the terminal event. The wait for
/// the first event, the stream up to the terminal event and the wait
/// for the stream to close are recorded as three spans of `layer`.
pub fn tail(
    ctx: &Ctx,
    layer: &'static str,
    client: &Client,
    id: &str,
) -> Result<(Instant, Instant), String> {
    let start = Instant::now();
    let mut first: Option<Instant> = None;
    let mut terminal: Option<Instant> = None;
    let mut last: Option<Instant> = None;
    client
        .stream_with(id, None, &mut |_, data| {
            let now = Instant::now();
            first.get_or_insert(now);
            last = Some(now);
            if data.starts_with(TERMINAL_EVENT) {
                terminal = Some(now);
            }
            true
        })
        .map_err(|e| format!("stream of {id}: {e}"))?;
    let end = Instant::now();
    let first = first.ok_or_else(|| format!("stream of {id} carried no event"))?;
    // A merged fabric stream ends with a synthesized trailer; should a
    // stream carry none, its last event is the terminal one.
    let terminal = terminal.or(last).unwrap_or(first);
    ctx.record(layer, "to_first_event", start, first);
    ctx.record(layer, "stream", first, terminal);
    ctx.record(layer, "stream_close", terminal, end);
    Ok((first, terminal))
}

/// One federated campaign over `workers`.
#[derive(Debug, Clone)]
pub struct FabricRun {
    pub coord_start_ms: f64,
    pub wait_done_s: f64,
    pub result_ms: f64,
    /// Coordinator start → merged result fetched.
    pub job_ms: f64,
    pub redispatches: u64,
    pub merged: String,
}

pub fn run_fabric(
    ctx: &Ctx,
    dir: &Path,
    spec: &JobSpec,
    shards: usize,
    workers: &[String],
) -> Result<FabricRun, String> {
    let t0 = Instant::now();
    let (handle, coord_start) = ctx.call("fabric", "coord_start", || {
        coord::start(CoordinatorConfig {
            addr: "127.0.0.1:0".to_owned(),
            data_dir: dir.to_path_buf(),
            spec: spec.clone(),
            shards,
            workers: workers.to_vec(),
            heartbeat_interval: Duration::from_millis(250),
            heartbeat_timeout: Duration::from_secs(5),
            summary_out: None,
            trace_out: None,
        })
    });
    let handle = handle.map_err(|e| format!("coordinator start: {e}"))?;
    let client = Client::new(handle.addr().to_string());
    // The merged stream is tailed beside the coordinator's own wait, as
    // a live dashboard would; the two lanes share the wall time.
    let (tailed, (waited, wait_took)) = std::thread::scope(|s| {
        let lane = s.spawn(|| {
            ctx.scope("bench", "stream_lane", |c| {
                tail(&c, "fabric", &client, "merged")
            })
            .0
        });
        let waited = ctx.call("fabric", "wait_done", || {
            handle.wait_done(Duration::from_secs(120))
        });
        (
            lane.join()
                .unwrap_or_else(|_| Err("merged-stream lane panicked".to_owned())),
            waited,
        )
    });
    let (result, result_took) = ctx.call("fabric", "result", || client.result("merged"));
    let done = Instant::now();
    let (metrics, _) = ctx.call("obs", "metrics", || client.metrics());
    ctx.call("fabric", "coord_stop", || handle.shutdown())
        .0
        .map_err(|e| format!("coordinator shutdown: {e}"))?;
    tailed?;
    waited.map_err(|e| format!("fabric campaign: {e}"))?;
    let merged = result.map_err(|e| format!("merged result: {e}"))?;
    let metrics = metrics.map_err(|e| format!("coordinator metrics: {e}"))?;
    Ok(FabricRun {
        coord_start_ms: ms(coord_start),
        wait_done_s: wait_took.as_secs_f64(),
        result_ms: ms(result_took),
        job_ms: ms(done - t0),
        redispatches: prom_value(&metrics, "radcrit_fabric_shards_redispatched_total") as u64,
        merged,
    })
}

/// Sums every sample of one metric family in a Prometheus exposition
/// (labelled series included).
pub fn prom_value(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let rest = l.strip_prefix(name)?;
            let value = match rest.chars().next()? {
                '{' => rest.rsplit_once('}')?.1,
                ' ' => rest,
                _ => return None,
            };
            value.trim().parse::<f64>().ok()
        })
        .sum()
}

/// A daemon's profile rollup (every job's merged phase tree).
pub fn profile_rollup(ctx: &Ctx, client: &Client) -> Result<ProfileTree, String> {
    let (text, _) = ctx.call("obs", "profile_rollup", || client.profile_rollup());
    let text = text.map_err(|e| format!("profile rollup: {e}"))?;
    // `{"jobs":…,"folded":…,"hot":[…],"profile":{tree}}`: the tree is
    // the last field.
    let tree = text
        .trim()
        .split_once("\"profile\":")
        .and_then(|(_, rest)| rest.strip_suffix('}'))
        .ok_or_else(|| format!("profile rollup: unexpected body {text:?}"))?;
    ProfileTree::from_json(tree).map_err(|e| format!("profile rollup: {e}"))
}

#[cfg(test)]
mod tests {
    use super::prom_value;

    #[test]
    fn prometheus_families_sum_across_labels() {
        let text = "# HELP x y\nfoo_total 3\nfoo_total{a=\"b\"} 4\nfoo_total_other 9\n";
        assert_eq!(prom_value(text, "foo_total"), 7.0);
        assert_eq!(prom_value(text, "bar"), 0.0);
    }
}
