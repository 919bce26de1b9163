//! `dgemm-k40` and `lavamd-phi`: direct library campaigns.
//!
//! Every repetition is a fresh campaign with its own seed (derived from
//! the run's seed), so one run averages over several campaigns' strike
//! mixes. A repetition sets up cold — `run_with` with `budget: Some(0)`
//! into a fresh golden cache: kernel build, golden run, snapshot
//! capture, sampler table — then probes the time to the campaign's
//! first event, runs the whole campaign against the warm cache, and
//! re-runs one slice of it on the scalar full-execution oracle for the
//! correctness gate.

use std::sync::Arc;
use std::time::Instant;

use radcrit_campaign::{Campaign, GoldenCache, KernelSpec, RunOptions};
use radcrit_obs::{MetricsRegistry, ProfileCollector, ProfileTree};
use radcrit_serve::{DeviceKind, JobSpec};

use crate::probe::{self, EngineFigures, FabricFigures, ServeFigures};
use crate::report::Report;
use crate::svc::ms;
use crate::trace::Ctx;
use crate::{env, gate, stats, Args};

/// First-event probes per repetition.
const FIRST_EVENT_PROBES: usize = 12;

/// The campaign a workload runs for `seed`, and the length of the slice
/// the correctness gate re-runs on the oracle per repetition. Campaigns
/// take about a second, so a run holds over a dozen: on a shared 2-vCPU
/// host the median of that many campaigns spread half as much between
/// runs as that of the five to eight 2–3 s campaigns a run held with
/// 1500 and 800 injections.
pub fn shape(workload: &str, seed: u64) -> Option<(JobSpec, usize)> {
    let (device, kernel, injections, gate_len) = match workload {
        "dgemm-k40" => (DeviceKind::K40, KernelSpec::Dgemm { n: 256 }, 500, 2),
        "lavamd-phi" => (
            DeviceKind::XeonPhi,
            KernelSpec::LavaMd {
                grid: 5,
                particles: 16,
            },
            270,
            4,
        ),
        _ => return None,
    };
    let mut spec = JobSpec::new(device, kernel, injections, seed);
    spec.scale = 8;
    spec.workers = env::nproc();
    Some((spec, gate_len))
}

/// The campaign seed of repetition `rep` of a run seeded `seed`.
fn rep_seed(seed: u64, rep: u64) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(rep)
}

/// Figures of a series of timed campaigns.
#[derive(Default)]
struct Timed {
    setup_s: Vec<f64>,
    job_ms: Vec<f64>,
    rate: Vec<f64>,
    first_event_ms: Vec<f64>,
    injections: usize,
    secs: f64,
    golden_hits: f64,
    /// Summary and run metrics of repetition 0.
    first: Option<(String, Arc<MetricsRegistry>)>,
}

/// Runs campaigns until `seconds` have passed (at least one). With a
/// collector, set-up runs profile into `profiles.0` and timed campaigns
/// into `profiles.1`.
fn timed(
    ctx: &Ctx,
    r: &mut Report,
    base: &Campaign,
    gate_len: usize,
    seconds: f64,
    profiles: Option<&(Arc<ProfileCollector>, Arc<ProfileCollector>)>,
) -> Result<Timed, String> {
    let mut t = Timed::default();
    let until = probe::deadline(seconds);
    let mut rep = 0u64;
    while rep == 0 || Instant::now() < until {
        let cx = ctx.with_run(rep);
        let c = Campaign {
            seed: rep_seed(base.seed, rep),
            ..base.clone()
        };
        rep += 1;
        let cache = Arc::new(GoldenCache::new(GoldenCache::DEFAULT_BYTES));
        let warm = RunOptions {
            golden_cache: Some(Arc::clone(&cache)),
            profile: profiles.map(|p| Arc::clone(&p.1)),
            ..RunOptions::default()
        };
        let setup = RunOptions {
            budget: Some(0),
            profile: profiles.map(|p| Arc::clone(&p.0)),
            ..warm.clone()
        };
        let (res, took) = cx.call("campaign", "run_with_setup", || c.run_with(&setup));
        res.map_err(|e| format!("set-up run: {e}"))?;
        t.setup_s.push(took.as_secs_f64());

        // A campaign's first event is its `run_begin` header, which the
        // daemon streams before any injection runs; in the library the
        // same point is a warm `run_with` that stops before injecting.
        for _ in 0..FIRST_EVENT_PROBES {
            let (res, took) = cx.call("campaign", "run_with_first", || {
                c.run_with(&RunOptions {
                    budget: Some(0),
                    ..warm.clone()
                })
            });
            if r.attempt("first-event probe", res.map_err(|e| e.to_string()))
                .is_some()
            {
                t.first_event_ms.push(ms(took));
            }
        }

        let metrics = Arc::new(MetricsRegistry::new());
        let opts = RunOptions {
            metrics: Some(Arc::clone(&metrics)),
            ..warm
        };
        let (res, took) = cx.call("campaign", "run_with", || c.run_with(&opts));
        r.attempted += c.injections as u64;
        let res = match res {
            Ok(res) => res,
            Err(e) => {
                r.failed += c.injections as u64;
                eprintln!("perfbench: campaign failed: {e}");
                continue;
            }
        };
        if let Err(e) = gate::complete("timed campaign", &res.records, 0, c.injections) {
            r.failed += (c.injections as u64)
                .saturating_sub(res.records.len() as u64)
                .max(1);
            r.fail(e);
        }
        let secs = took.as_secs_f64();
        t.job_ms.push(secs * 1e3);
        t.rate.push(res.records.len() as f64 / secs);
        t.injections += res.records.len();
        t.secs += secs;
        t.golden_hits += cache.stats().hit_ratio();

        // Correctness: a slice re-run on the scalar full-execution
        // oracle reproduces the timed records of the same indices.
        let start = (c.seed as usize) % (c.injections - gate_len);
        let (slice, _) = cx.call("campaign", "run_with_oracle", || {
            c.run_with(&RunOptions {
                shard: Some((start, start + gate_len)),
                full_execution: true,
                force_scalar: true,
                ..RunOptions::default()
            })
        });
        let slice = slice.map_err(|e| format!("oracle slice: {e}"))?;
        if let Err(e) = gate::same_records(
            &format!("oracle slice of campaign seed {}", c.seed),
            &res.records,
            &slice.records,
        ) {
            r.fail(e);
        }
        if t.first.is_none() {
            t.first = Some((res.summary().to_json(), metrics));
        }
    }
    Ok(t)
}

pub fn run(ctx: &Ctx, args: &Args, r: &mut Report) -> Result<(), String> {
    let (spec, gate_len) = shape(&args.workload, args.seed).ok_or("unknown workload")?;
    let c = spec.campaign().map_err(|e| format!("spec: {e}"))?;
    r.context.insert(
        "campaign",
        format!(
            "{} {} on {} x{} injections, {} workers",
            c.kernel.name(),
            c.kernel.input_label(),
            c.device.kind(),
            c.injections,
            c.workers
        ),
    );

    let t = if args.trace {
        // The same campaigns twice: unprofiled, then with the exhaustive
        // phase profiler. Their rates give the tracing overhead, the
        // second pass's profiles the accel sub-phase self-times.
        let plain = timed(ctx, r, &c, gate_len, args.seconds / 2.0, None)?;
        radcrit_obs::profile::set_tile_sample_stride(1);
        let collectors = (
            Arc::new(ProfileCollector::new()),
            Arc::new(ProfileCollector::new()),
        );
        let traced = timed(ctx, r, &c, gate_len, args.seconds / 2.0, Some(&collectors))?;
        let (setup, _) = ctx.call("obs", "profile_snapshot", || collectors.0.snapshot());
        let (runs, _) = ctx.call("obs", "profile_snapshot", || collectors.1.snapshot());
        probe::report_phases(r, &ProfileTree::new(), &runs, traced.job_ms.len());
        r.value(
            "accel.snapshot_capture_ms",
            "ms",
            probe::phase_ms(
                &ProfileTree::new(),
                &setup,
                "snapshot-capture",
                traced.setup_s.len(),
            ),
        );
        r.value(
            "bench.trace_overhead_frac",
            "frac",
            1.0 - (traced.injections as f64 / traced.secs) / (plain.injections as f64 / plain.secs),
        );
        plain
    } else {
        timed(ctx, r, &c, gate_len, args.seconds, None)?
    };
    // Read before the traced run's probes, which allocate on their own.
    r.value("peak_rss_mb", "MB", env::peak_rss_mb()?);
    let (summary, metrics) = t.first.as_ref().ok_or("no timed campaign completed")?;
    r.context
        .insert("summary_digest", stats::digest(summary.as_bytes()));

    r.samples("setup_s", "s", &t.setup_s);
    r.samples("inj_per_s", "1/s", &t.rate);
    r.samples(
        "jobs_per_s",
        "1/s",
        &t.job_ms.iter().map(|ms| 1e3 / ms).collect::<Vec<_>>(),
    );
    r.samples("job_p50_ms", "ms", &t.job_ms);
    r.value("job_p95_ms", "ms", stats::percentile(&t.job_ms, 95.0));
    r.samples("first_event_p50_ms", "ms", &t.first_event_ms);

    let m = metrics.snapshot();
    let counter = |name: &str| m.counter(name, &[]).unwrap_or(0);
    r.count("campaign.injections", c.injections as u64);
    r.count(
        "campaign.forks",
        counter("radcrit_engine_forked_runs_total"),
    );
    r.count(
        "campaign.bucket_restores",
        counter("radcrit_bucket_restores_total"),
    );
    r.count(
        "campaign.resumed_runs",
        counter("radcrit_engine_resumed_runs_total"),
    );
    r.value(
        "campaign.dead_strike_frac",
        "frac",
        counter("radcrit_run_dead_strike_exits_total") as f64 / c.injections as f64,
    );
    r.value(
        "campaign.golden_hit_ratio",
        "frac",
        t.golden_hits / t.job_ms.len() as f64,
    );

    if args.trace {
        layer_probes(ctx, r, &spec)?;
    }
    Ok(())
}

/// The traced run's probes of the layers a direct campaign does not
/// call: the engine alone, worker scaling, a small served job mix and a
/// small federated campaign, all on this workload's kernel and device.
fn layer_probes(ctx: &Ctx, r: &mut Report, spec: &JobSpec) -> Result<(), String> {
    let c = spec.campaign().map_err(|e| format!("spec: {e}"))?;
    let mut e = EngineFigures::default();
    ctx.scope("bench", "engine_probe", |cx| {
        probe::engine(&cx, &c, 5, 300, 10, &mut e)
    })
    .0?;
    probe::report_engine(r, &e);
    let scaling = ctx
        .scope("bench", "scaling_probe", |cx| {
            probe::scaling(&cx, &c, c.injections / 3)
        })
        .0?;
    r.value("campaign.scaling_x", "x", scaling);

    // One worker per job, as the daemons under test run them.
    let small = |injections: usize, k: u64| JobSpec {
        injections,
        workers: 1,
        seed: spec.seed.wrapping_add(k),
        ..spec.clone()
    };
    let jobs: Vec<JobSpec> = (0..6).map(|k| small(c.injections / 20, k % 2)).collect();
    let mut s = ServeFigures::default();
    ctx.scope("bench", "serve_probe", |cx| {
        probe::serve(&cx, r, &jobs, 5, &mut s)
    })
    .0?;
    probe::report_serve(r, &s);

    let mut f = FabricFigures::default();
    ctx.scope("bench", "fabric_probe", |cx| {
        probe::fabric(&cx, r, &small(c.injections / 4, 0), 2, 4, 2, &mut f)
    })
    .0?;
    probe::report_fabric(r, &f);
    Ok(())
}
