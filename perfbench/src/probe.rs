//! Layer probes for the traced run: short passes that call one layer's
//! public functions directly, so each per-layer figure is measured on
//! every workload's own kernel and device.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use radcrit_accel::profile::ExecutionProfile;
use radcrit_accel::{Engine, RunScratch, SnapshotPolicy};
use radcrit_campaign::runner::compare_with_logical_coords_sparse;
use radcrit_campaign::{Campaign, GoldenCache, RunOptions};
use radcrit_faults::sampler::{FaultSampler, InjectionPlan};
use radcrit_obs::ProfileTree;
use radcrit_serve::{Client, JobSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::Report;
use crate::svc::{self, ms};
use crate::trace::Ctx;
use crate::{env, gate, stats};

/// Figures of the engine-only pass.
#[derive(Debug, Default)]
pub struct EngineFigures {
    pub build_ms: Vec<f64>,
    pub golden_ms: Vec<f64>,
    pub snapshot_mb: f64,
    pub sample_us: Vec<f64>,
    pub injection_us: Vec<f64>,
    pub full_run_us: Vec<f64>,
    pub compare_us: Vec<f64>,
    /// The golden run's simulated profile (exact; repeats per seed).
    pub sim: Option<ExecutionProfile>,
}

/// Builds the kernel and runs its snapshotted golden `reps` times, then
/// `injections` sampled strikes through `run_injection` with one reused
/// `RunScratch` (plus the sparse compare of each), then `full_runs`
/// strikes through the full-execution oracle `run`.
pub fn engine(
    ctx: &Ctx,
    campaign: &Campaign,
    reps: usize,
    injections: usize,
    full_runs: usize,
    f: &mut EngineFigures,
) -> Result<(), String> {
    let engine = Engine::new(campaign.device.clone());
    let policy = SnapshotPolicy::default();
    let mut golden = None;
    for rep in 0..reps.max(1) {
        let c = ctx.with_run(rep as u64);
        let (kernel, took) = c.call("kernels", "build", || campaign.kernel.build(campaign.seed));
        f.build_ms.push(ms(took));
        let mut kernel = kernel.map_err(|e| format!("kernel build: {e}"))?;
        let (g, took) = c.call("accel", "golden_snapshotted", || {
            engine.golden_snapshotted(kernel.as_mut(), &policy)
        });
        f.golden_ms.push(ms(took));
        golden = Some(g.map_err(|e| format!("golden: {e}"))?);
    }
    let (golden, snapshots) = golden.expect("at least one golden run");
    f.snapshot_mb += snapshots.cost_bytes() as f64 / 1e6;
    let (sampler, _) = ctx.call("faults", "sampler_new", || {
        FaultSampler::new(&campaign.device, &golden.profile)
    });
    let (kernel, _) = ctx.call("kernels", "build", || campaign.kernel.build(campaign.seed));
    let mut kernel = kernel.map_err(|e| format!("kernel build: {e}"))?;
    let mut scratch = RunScratch::new();
    let strike_rng = |i: usize| {
        StdRng::seed_from_u64(
            campaign
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(i as u64),
        )
    };
    for i in 0..injections + full_runs {
        let c = ctx.with_run(i as u64);
        let mut rng = strike_rng(i);
        let (plan, took) = c.call("faults", "sample", || sampler.sample(&mut rng));
        f.sample_us.push(took.as_secs_f64() * 1e6);
        let InjectionPlan::Strike(strike) = plan else {
            continue;
        };
        if i >= injections {
            let (out, took) = c.call("accel", "run", || {
                engine.run(kernel.as_mut(), &strike, &mut rng)
            });
            out.map_err(|e| format!("full run: {e}"))?;
            f.full_run_us.push(took.as_secs_f64() * 1e6);
            continue;
        }
        let (out, took) = c.call("accel", "run_injection", || {
            engine.run_injection(
                kernel.as_mut(),
                &strike,
                &mut rng,
                Some(&snapshots),
                &mut scratch,
            )
        });
        let out = out.map_err(|e| format!("injection: {e}"))?;
        f.injection_us.push(took.as_secs_f64() * 1e6);
        if let (false, Some(dirty)) = (out.golden_equivalent, &out.dirty) {
            let (report, took) = c.call("campaign", "compare_sparse", || {
                compare_with_logical_coords_sparse(
                    &golden.output,
                    &out.output,
                    kernel.as_ref(),
                    dirty,
                )
            });
            black_box(report);
            f.compare_us.push(took.as_secs_f64() * 1e6);
        }
    }
    let sim = golden.profile;
    f.sim = Some(match f.sim.take() {
        None => sim,
        Some(mut acc) => {
            acc.tiles += sim.tiles;
            acc.total_ops += sim.total_ops;
            acc.loads += sim.loads;
            acc.stores += sim.stores;
            acc.cache.l1_hits += sim.cache.l1_hits;
            acc.cache.l1_misses += sim.cache.l1_misses;
            acc.cache.l2_hits += sim.cache.l2_hits;
            acc.cache.l2_misses += sim.cache.l2_misses;
            acc
        }
    });
    Ok(())
}

pub fn report_engine(r: &mut Report, f: &EngineFigures) {
    r.samples("kernels.build_ms", "ms", &f.build_ms);
    r.samples("accel.golden_ms", "ms", &f.golden_ms);
    r.value("accel.snapshot_mb", "MB", f.snapshot_mb);
    r.samples("faults.sample_us_p50", "us", &f.sample_us);
    r.value(
        "accel.injection_us_p50",
        "us",
        stats::median(&f.injection_us),
    );
    r.value(
        "accel.injection_us_p90",
        "us",
        stats::percentile(&f.injection_us, 90.0),
    );
    r.samples("accel.full_run_us_p50", "us", &f.full_run_us);
    r.samples("campaign.compare_us_p50", "us", &f.compare_us);
    if let Some(sim) = &f.sim {
        r.count("accel.sim_tiles", sim.tiles as u64);
        r.count("accel.sim_ops", sim.total_ops);
        r.count("accel.sim_loads", sim.loads);
        r.count("accel.sim_stores", sim.stores);
        r.count("accel.sim_l1_hits", sim.cache.l1_hits);
        r.count("accel.sim_l1_misses", sim.cache.l1_misses);
        r.count("accel.sim_l2_hits", sim.cache.l2_hits);
        r.count("accel.sim_l2_misses", sim.cache.l2_misses);
    }
}

/// Injection rate of a warm campaign slice at 1 worker and at `nproc`
/// workers, alternated; returns `rate(nproc) / rate(1)`.
pub fn scaling(ctx: &Ctx, campaign: &Campaign, slice: usize) -> Result<f64, String> {
    let cache = Arc::new(GoldenCache::new(GoldenCache::DEFAULT_BYTES));
    let opts = RunOptions {
        golden_cache: Some(Arc::clone(&cache)),
        shard: Some((0, slice.min(campaign.injections))),
        ..RunOptions::default()
    };
    ctx.call("campaign", "run_with_setup", || {
        campaign.run_with(&RunOptions {
            budget: Some(0),
            ..opts.clone()
        })
    })
    .0
    .map_err(|e| format!("scaling warm-up: {e}"))?;
    let mut secs = [0.0f64; 2];
    for rep in 0..4 {
        let workers = if rep % 2 == 0 { 1 } else { env::nproc() };
        let c = Campaign {
            workers,
            ..campaign.clone()
        };
        let (res, took) = ctx
            .with_run(rep)
            .call("campaign", "run_with", || c.run_with(&opts));
        res.map_err(|e| format!("scaling run: {e}"))?;
        secs[(rep % 2) as usize] += took.as_secs_f64();
    }
    Ok(secs[0] / secs[1])
}

/// Figures of served jobs.
#[derive(Debug, Default)]
pub struct ServeFigures {
    pub start_ms: Vec<f64>,
    pub jobs: Vec<svc::JobTiming>,
    pub refused: u64,
}

pub fn report_serve(r: &mut Report, f: &ServeFigures) {
    let pick = |g: fn(&svc::JobTiming) -> f64| f.jobs.iter().map(g).collect::<Vec<f64>>();
    r.samples("serve.start_ms", "ms", &f.start_ms);
    r.samples("serve.submit_ms_p50", "ms", &pick(|j| j.submit_ms));
    r.samples(
        "serve.to_first_event_ms_p50",
        "ms",
        &pick(|j| j.to_first_event_ms),
    );
    r.samples("serve.stream_ms_p50", "ms", &pick(|j| j.stream_ms));
    r.samples("serve.result_ms_p50", "ms", &pick(|j| j.result_ms));
    r.count("serve.refused", f.refused);
    r.count("serve.jobs", f.jobs.len() as u64);
}

/// Starts `starts` daemons (keeping the last), then runs each of
/// `specs` as one closed-loop job on it; every result must equal the
/// direct run of its spec.
pub fn serve(
    ctx: &Ctx,
    r: &mut Report,
    specs: &[JobSpec],
    starts: usize,
    f: &mut ServeFigures,
) -> Result<(), String> {
    let (daemon, start_ms) = svc::start_one_of(ctx, "probe-serve", starts, 1)?;
    f.start_ms.extend(start_ms);
    let client = Client::new(daemon.addr().to_string());
    for (k, spec) in specs.iter().enumerate() {
        match svc::run_job(&ctx.with_run(k as u64), &client, spec) {
            Ok(job) => {
                r.attempted += 1;
                let want = direct_summary(ctx, spec)?;
                if let Err(e) = gate::same_summary("serve probe", &job.result, &want) {
                    r.fail(e);
                }
                f.jobs.push(job);
            }
            Err(e) => {
                if matches!(e, svc::JobError::Refused(_)) {
                    f.refused += 1;
                }
                r.attempt::<()>("serve probe job", Err(e.to_string()));
            }
        }
    }
    svc::stop_daemon(ctx, daemon);
    Ok(())
}

/// The canonical summary of a direct library run of `spec`.
pub fn direct_summary(ctx: &Ctx, spec: &JobSpec) -> Result<String, String> {
    let campaign = spec.campaign().map_err(|e| format!("spec: {e}"))?;
    let (res, _) = ctx.call("campaign", "run_with_reference", || {
        campaign.run_with(&RunOptions::default())
    });
    let summary = res.map_err(|e| format!("reference run: {e}"))?.summary();
    Ok(ctx
        .call("campaign", "summary_to_json", || summary.to_json())
        .0)
}

/// Figures of federated campaigns.
#[derive(Debug, Default)]
pub struct FabricFigures {
    pub runs: Vec<svc::FabricRun>,
    /// Wall time of a direct `run_with` of the same campaign at the same
    /// total worker count, in ms.
    pub direct_ms: Vec<f64>,
}

pub fn report_fabric(r: &mut Report, f: &FabricFigures) {
    let pick = |g: fn(&svc::FabricRun) -> f64| f.runs.iter().map(g).collect::<Vec<f64>>();
    r.samples("fabric.coord_start_ms", "ms", &pick(|j| j.coord_start_ms));
    r.samples("fabric.wait_done_s", "s", &pick(|j| j.wait_done_s));
    r.samples("fabric.result_ms", "ms", &pick(|j| j.result_ms));
    let overhead = stats::median(&pick(|j| j.job_ms)) / stats::median(&f.direct_ms);
    r.value("fabric.overhead_x", "x", overhead);
    r.count(
        "fabric.redispatches",
        f.runs.iter().map(|j| j.redispatches).sum(),
    );
    r.count("fabric.campaigns", f.runs.len() as u64);
}

/// A direct run of `spec` at `workers` total workers, timed; returns its
/// canonical summary.
pub fn direct_timed(
    ctx: &Ctx,
    spec: &JobSpec,
    workers: usize,
    f: &mut FabricFigures,
) -> Result<String, String> {
    let campaign = Campaign {
        workers,
        ..spec.campaign().map_err(|e| format!("spec: {e}"))?
    };
    let (res, took) = ctx.call("campaign", "run_with_direct", || {
        campaign.run_with(&RunOptions::default())
    });
    f.direct_ms.push(ms(took));
    Ok(res
        .map_err(|e| format!("direct run: {e}"))?
        .summary()
        .to_json())
}

/// `daemons` daemons of pool 1 run `reps` federated campaigns of `spec`
/// split into `shards`; each merged summary must equal the direct one.
pub fn fabric(
    ctx: &Ctx,
    r: &mut Report,
    spec: &JobSpec,
    daemons: usize,
    shards: usize,
    reps: usize,
    f: &mut FabricFigures,
) -> Result<(), String> {
    let want = direct_timed(ctx, spec, daemons, f)?;
    direct_timed(ctx, spec, daemons, f)?;
    let (handles, _) = svc::start_daemons(ctx, "probe-fabric-w", daemons, 1)?;
    let addrs: Vec<String> = handles.iter().map(|h| h.addr().to_string()).collect();
    for rep in 0..reps {
        let dir = env::fresh_dir(&format!("probe-fabric-coord{rep}"))?;
        let run = svc::run_fabric(&ctx.with_run(rep as u64), &dir, spec, shards, &addrs);
        if let Some(run) = r.attempt("fabric probe campaign", run) {
            if let Err(e) = gate::same_summary("fabric probe", &run.merged, &want) {
                r.fail(e);
            }
            f.runs.push(run);
        }
    }
    for h in handles {
        svc::stop_daemon(ctx, h);
    }
    Ok(())
}

/// Per-run self time of each profiled phase, from the difference of two
/// profile trees (`after − before`) divided by `runs`.
pub fn report_phases(r: &mut Report, before: &ProfileTree, after: &ProfileTree, runs: usize) {
    for (name, phase) in PHASES {
        r.value(name, "ms", phase_ms(before, after, phase, runs));
    }
}

/// Self time of `phase` added between two trees, per run, in ms.
pub fn phase_ms(before: &ProfileTree, after: &ProfileTree, phase: &str, runs: usize) -> f64 {
    let self_ns = |tree: &ProfileTree| {
        tree.hot_phases(usize::MAX)
            .into_iter()
            .find(|(p, _, _)| p == phase)
            .map_or(0, |(_, ns, _)| ns)
    };
    self_ns(after).saturating_sub(self_ns(before)) as f64 / 1e6 / runs.max(1) as f64
}

/// Profiled phases and the per-layer metric each feeds. Snapshot
/// capture runs only with the golden execution, so campaigns that hit
/// a warm golden cache show none of it.
pub const PHASES: [(&str, &str); 9] = [
    ("accel.tile_execute_ms", "tile-execute"),
    ("accel.cache_access_ms", "cache-access"),
    ("accel.mem_load_ms", "mem-load"),
    ("accel.mem_store_ms", "mem-store"),
    ("accel.corruption_scan_ms", "corruption-scan"),
    ("accel.fork_ms", "fork"),
    ("accel.bucket_restore_ms", "bucket-restore"),
    ("accel.warm_advance_ms", "warm-advance"),
    ("accel.snapshot_capture_ms", "snapshot-capture"),
];

/// Wall-clock helper for loops bounded by `seconds`.
pub fn deadline(seconds: f64) -> Instant {
    Instant::now() + std::time::Duration::from_secs_f64(seconds)
}
