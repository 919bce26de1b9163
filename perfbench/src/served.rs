//! `serve-mix`: an in-process daemon (pool 2) driven by a closed loop of
//! `nproc` client threads, each of which submits a job, tails its SSE
//! stream to the terminal event, fetches the result, then submits the
//! next. Even-numbered jobs repeat one of a few short HotSpot specs
//! (golden-cache hits after their first run); odd-numbered jobs are
//! DGEMM-128 with a fresh seed (misses that pay for the golden run).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use radcrit_campaign::KernelSpec;
use radcrit_obs::ProfileTree;
use radcrit_serve::{Client, DeviceKind, JobSpec};

use crate::probe::{self, EngineFigures, FabricFigures, ServeFigures};
use crate::report::Report;
use crate::svc::{self, JobError, JobTiming};
use crate::trace::Ctx;
use crate::{env, gate, stats, Args};

const POOL: usize = 2;
const MIN_JOBS: u64 = 200;
const HIT_SPECS: u64 = 3;
const SETUP_REPS: usize = 11;
const DIGEST_JOBS: u64 = 16;

/// The spec of loop job `j`.
pub fn job_spec(seed: u64, j: u64) -> JobSpec {
    let mut spec = if j.is_multiple_of(2) {
        let hot = KernelSpec::HotSpot {
            rows: 64,
            cols: 64,
            iterations: 8,
        };
        JobSpec::new(
            DeviceKind::K40,
            hot,
            60,
            seed.wrapping_mul(HIT_SPECS).wrapping_add(j / 2 % HIT_SPECS),
        )
    } else {
        // Fresh seeds, disjoint from the hit specs' and from other
        // benchmark seeds' miss seeds.
        JobSpec::new(
            DeviceKind::K40,
            KernelSpec::Dgemm { n: 128 },
            24,
            (seed << 24) ^ (1 << 23) ^ j,
        )
    };
    spec.scale = 8;
    spec.workers = 1;
    spec
}

/// The traced run's profiled half of the loop, with the daemon's
/// profile rollup before and after it.
struct Profiled {
    before: ProfileTree,
    after: ProfileTree,
    overhead: f64,
    lp: Loop,
}

/// Completed loop jobs: `(job number, timing)`, plus refusals.
#[derive(Default)]
struct Loop {
    jobs: Vec<(u64, JobTiming)>,
    refused: u64,
    secs: f64,
}

/// Runs the closed loop until `seconds` have passed and at least
/// `min_jobs` jobs were submitted. Job numbers continue from `next`.
fn closed_loop(
    ctx: &Ctx,
    r: &Mutex<&mut Report>,
    client: &Client,
    seed: u64,
    seconds: f64,
    min_jobs: u64,
    next: &AtomicU64,
) -> Loop {
    let until = probe::deadline(seconds);
    let first = next.load(Ordering::SeqCst);
    let out = Mutex::new(Loop::default());
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for lane in 0..env::nproc() {
            let out = &out;
            s.spawn(move || {
                ctx.with_run(lane as u64)
                    .scope("bench", "client_lane", |cx| loop {
                        let j = next.fetch_add(1, Ordering::SeqCst);
                        if j - first >= min_jobs && Instant::now() >= until {
                            break;
                        }
                        let res = svc::run_job(&cx.with_run(j), client, &job_spec(seed, j));
                        let mut report = r.lock().expect("report lock");
                        report.attempted += 1;
                        let mut out = out.lock().expect("loop lock");
                        match res {
                            Ok(t) => out.jobs.push((j, t)),
                            Err(e) => {
                                report.failed += 1;
                                if matches!(e, JobError::Refused(_)) {
                                    out.refused += 1;
                                }
                                eprintln!("perfbench: job {j}: {e}");
                            }
                        }
                    });
            });
        }
    });
    let mut out = out.into_inner().expect("loop lock");
    out.secs = t0.elapsed().as_secs_f64();
    out
}

fn injections(seed: u64, jobs: &[(u64, JobTiming)]) -> usize {
    jobs.iter()
        .map(|(j, _)| job_spec(seed, *j).injections)
        .sum()
}

pub fn run(ctx: &Ctx, args: &Args, r: &mut Report) -> Result<(), String> {
    r.context.insert("mix", format!("closed loop, {} clients, pool {POOL}: HotSpot 64x64x8 x60 (hits) / DGEMM-128 x24 fresh seeds (misses), K40 scale 8", env::nproc()));
    let (daemon, start_ms) = svc::start_one_of(ctx, "serve-mix", SETUP_REPS, POOL)?;
    r.samples(
        "setup_s",
        "s",
        &start_ms.iter().map(|m| m / 1e3).collect::<Vec<_>>(),
    );
    let client = Client::new(daemon.addr().to_string());
    let next = AtomicU64::new(0);

    let (lp, profiled) = {
        let shared = Mutex::new(&mut *r);
        let run_loop = |seconds: f64, min_jobs: u64| {
            closed_loop(ctx, &shared, &client, args.seed, seconds, min_jobs, &next)
        };
        if args.trace {
            // Half the time as timed, half with the exhaustive phase
            // profiler: their rates give the tracing overhead, the
            // second half's profile the accel sub-phase self-times.
            let plain = run_loop(args.seconds / 2.0, MIN_JOBS / 2);
            let before = svc::profile_rollup(ctx, &client)?;
            radcrit_obs::profile::set_tile_sample_stride(1);
            let lp = run_loop(args.seconds / 2.0, MIN_JOBS / 2);
            let after = svc::profile_rollup(ctx, &client)?;
            let rate = |l: &Loop| injections(args.seed, &l.jobs) as f64 / l.secs;
            let overhead = 1.0 - rate(&lp) / rate(&plain);
            let profiled = Profiled {
                before,
                after,
                overhead,
                lp,
            };
            (plain, Some(profiled))
        } else {
            (run_loop(args.seconds, MIN_JOBS), None)
        }
    };
    // The high-water mark of the service loop, before the reference
    // runs of the correctness gate allocate on their own.
    r.value("peak_rss_mb", "MB", env::peak_rss_mb()?);
    let (metrics, _) = ctx.call("obs", "metrics", || client.metrics());
    let metrics = metrics.map_err(|e| format!("daemon metrics: {e}"))?;

    // Correctness: each distinct spec's served result equals a direct
    // run of it, computed once per spec after the timed loop.
    let mut all: Vec<&(u64, JobTiming)> = lp.jobs.iter().collect();
    if let Some(p) = &profiled {
        all.extend(p.lp.jobs.iter());
    }
    let specs: BTreeMap<String, JobSpec> = all
        .iter()
        .map(|(j, _)| *j)
        .chain(0..DIGEST_JOBS)
        .map(|j| job_spec(args.seed, j))
        .map(|spec| (spec.to_json(), spec))
        .collect();
    let want = reference_summaries(ctx, &specs)?;
    for (j, t) in &all {
        let key = job_spec(args.seed, *j).to_json();
        if let Err(e) = gate::same_summary(&format!("served job {j}"), &t.result, &want[&key]) {
            r.fail(e);
        }
    }
    r.context.insert("distinct_specs", want.len().to_string());
    // The science digest covers a fixed prefix of the job sequence, so
    // it repeats for a seed however many jobs the loop completed.
    let digest_input: String = (0..DIGEST_JOBS)
        .map(|j| want[&job_spec(args.seed, j).to_json()].as_str())
        .collect();
    r.context
        .insert("summary_digest", stats::digest(digest_input.as_bytes()));

    let jobs: Vec<&JobTiming> = lp.jobs.iter().map(|(_, t)| t).collect();
    let pick = |g: fn(&JobTiming) -> f64| jobs.iter().map(|t| g(t)).collect::<Vec<f64>>();
    let job_ms = pick(|t| t.job_ms);
    r.pooled(
        "inj_per_s",
        "1/s",
        injections(args.seed, &lp.jobs) as f64 / lp.secs,
        &[],
    );
    r.pooled("jobs_per_s", "1/s", jobs.len() as f64 / lp.secs, &[]);
    r.samples("job_p50_ms", "ms", &job_ms);
    r.value("job_p95_ms", "ms", stats::percentile(&job_ms, 95.0));
    r.samples("first_event_p50_ms", "ms", &pick(|t| t.first_event_ms));

    let hits = svc::prom_value(&metrics, "radcrit_golden_cache_hits_total");
    let misses = svc::prom_value(&metrics, "radcrit_golden_cache_misses_total");
    r.value(
        "campaign.golden_hit_ratio",
        "frac",
        hits / (hits + misses).max(1.0),
    );

    if let Some(p) = profiled {
        let mut s = ServeFigures {
            start_ms,
            refused: lp.refused + p.lp.refused,
            ..ServeFigures::default()
        };
        s.jobs = lp
            .jobs
            .iter()
            .chain(p.lp.jobs.iter())
            .map(|(_, t)| t.clone())
            .collect();
        probe::report_serve(r, &s);
        probe::report_phases(r, &p.before, &p.after, p.lp.jobs.len());
        // Snapshot capture happens only on golden misses, whichever half
        // of the loop they fell in.
        r.value(
            "accel.snapshot_capture_ms",
            "ms",
            probe::phase_ms(
                &ProfileTree::new(),
                &p.after,
                "snapshot-capture",
                misses as usize,
            ),
        );
        r.value("bench.trace_overhead_frac", "frac", p.overhead);
        let injected = (injections(args.seed, &lp.jobs) + injections(args.seed, &p.lp.jobs)) as f64;
        let counter = |name: &str| svc::prom_value(&metrics, name) as u64;
        r.count("campaign.injections", injected as u64);
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
            svc::prom_value(&metrics, "radcrit_run_dead_strike_exits_total") / injected,
        );
        layer_probes(ctx, r, args.seed)?;
    }
    svc::stop_daemon(ctx, daemon);
    Ok(())
}

/// Direct-run summaries of `specs`, computed on `nproc` threads.
fn reference_summaries(
    ctx: &Ctx,
    specs: &BTreeMap<String, JobSpec>,
) -> Result<BTreeMap<String, String>, String> {
    let specs: Vec<(&String, &JobSpec)> = specs.iter().collect();
    let lanes = env::nproc();
    ctx.scope("bench", "reference_runs", |cx| {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..lanes)
                .map(|lane| {
                    let specs = &specs;
                    s.spawn(move || {
                        cx.with_run(lane as u64)
                            .scope("bench", "reference_lane", |c| {
                                specs
                                    .iter()
                                    .skip(lane)
                                    .step_by(lanes)
                                    .map(|(key, spec)| {
                                        Ok(((*key).clone(), probe::direct_summary(&c, spec)?))
                                    })
                                    .collect::<Result<Vec<(String, String)>, String>>()
                            })
                            .0
                    })
                })
                .collect();
            let mut want = BTreeMap::new();
            for h in handles {
                want.extend(
                    h.join()
                        .map_err(|_| "reference lane panicked".to_owned())??,
                );
            }
            Ok(want)
        })
    })
    .0
}

/// The traced run's probes of the layers the service loop does not call
/// directly: the engine on both job kernels, worker scaling on the miss
/// kernel and a small federated campaign.
fn layer_probes(ctx: &Ctx, r: &mut Report, seed: u64) -> Result<(), String> {
    let (hit, miss) = (job_spec(seed, 0), job_spec(seed, 1));
    let mut e = EngineFigures::default();
    for spec in [&hit, &miss] {
        let c = spec.campaign().map_err(|e| format!("spec: {e}"))?;
        ctx.scope("bench", "engine_probe", |cx| {
            probe::engine(&cx, &c, 5, 200, 10, &mut e)
        })
        .0?;
    }
    probe::report_engine(r, &e);
    let big = JobSpec {
        injections: 400,
        workers: 0,
        ..miss.clone()
    };
    let c = big.campaign().map_err(|e| format!("spec: {e}"))?;
    let scaling = ctx
        .scope("bench", "scaling_probe", |cx| probe::scaling(&cx, &c, 400))
        .0?;
    r.value("campaign.scaling_x", "x", scaling);
    let mut f = FabricFigures::default();
    let fab = JobSpec {
        injections: 200,
        ..miss
    };
    ctx.scope("bench", "fabric_probe", |cx| {
        probe::fabric(&cx, r, &fab, 2, 4, 2, &mut f)
    })
    .0?;
    probe::report_fabric(r, &f);
    Ok(())
}
