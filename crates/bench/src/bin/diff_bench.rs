//! `diff-bench` — injections/sec benchmark of differential injection
//! execution (golden-prefix snapshot resume + dirty-region compare)
//! against full per-injection re-execution.
//!
//! ```text
//! diff-bench [--injections 60] [--n 256] [--workers 1] [--smoke]
//!            [--out BENCH_6.json] [--history BENCH_HISTORY.jsonl]
//! ```
//!
//! For each paper kernel the same campaign runs twice — with
//! [`RunOptions::full_execution`] forced (every injection re-executes
//! from tile 0) and in the default differential mode — against a
//! pre-warmed golden cache, so the measured wall time is the injection
//! phase. Science is bit-identical between the modes (asserted on the
//! outcome counts); the speedup column is the whole point. Exits
//! non-zero when the differential DGEMM injection rate falls below
//! 2.5× the committed full-execution baseline (`--baseline`, the
//! `full_inj_per_sec` of the DGEMM row in `BENCH_4.json`) — or, when no
//! baseline file is present, below a 2.5× in-process speedup over full
//! execution. `--smoke` relaxes the gates for tiny CI sizes where
//! constant overheads dominate.
//!
//! Every run also appends one fingerprinted row per kernel (host,
//! commit, active SIMD ISA, rates, top-5 self-time phases of a
//! profiled rep) to the continuous history file (`--history`, default
//! `BENCH_HISTORY.jsonl`) and — outside `--smoke` — gates the
//! differential rates against the committed `--history-baseline`
//! (default the freshly written/committed `BENCH_6.json`): any kernel
//! more than 10 % below its committed `batch_inj_per_sec` exits
//! non-zero. That key names the default-mode rate; it keeps its
//! historical name so committed baselines and history rows stay
//! comparable. Both gates are like-for-like on the ISA: a run pinned to
//! the scalar executor (`RADCRIT_FORCE_SCALAR=1`) records its rows but
//! is never compared against a vectorized baseline. See
//! [`radcrit_bench::history`].

use std::path::PathBuf;
use std::process::exit;
use std::sync::Arc;
use std::time::Instant;

use radcrit_accel::config::DeviceConfig;
use radcrit_bench::history::{self, HistoryRow};
use radcrit_campaign::golden::GoldenCache;
use radcrit_campaign::{Campaign, KernelSpec, RunOptions};
use radcrit_obs::{MetricsRegistry, ProfileCollector};

struct Args {
    injections: usize,
    n: usize,
    workers: usize,
    reps: usize,
    smoke: bool,
    out: PathBuf,
    baseline: PathBuf,
    history: PathBuf,
    history_baseline: PathBuf,
}

const USAGE: &str = "usage: diff-bench [--injections 60] [--n 256] [--workers 1] [--reps 5] \
                     [--smoke] [--out BENCH_6.json] [--baseline BENCH_4.json] \
                     [--history BENCH_HISTORY.jsonl] [--history-baseline BENCH_6.json]";

fn parse_args() -> Args {
    let mut a = Args {
        injections: 60,
        n: 256,
        workers: 1,
        reps: 5,
        smoke: false,
        out: PathBuf::from("BENCH_6.json"),
        baseline: PathBuf::from("BENCH_4.json"),
        history: PathBuf::from("BENCH_HISTORY.jsonl"),
        history_baseline: PathBuf::from("BENCH_6.json"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |flag: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{USAGE}\nmissing value for {flag}");
                exit(2)
            })
        };
        match flag.as_str() {
            "--injections" => a.injections = parsed(&flag, &val("--injections")),
            "--n" => a.n = parsed(&flag, &val("--n")),
            "--workers" => a.workers = parsed(&flag, &val("--workers")),
            "--reps" => a.reps = parsed(&flag, &val("--reps")).max(1),
            "--smoke" => a.smoke = true,
            "--out" => a.out = PathBuf::from(val("--out")),
            "--baseline" => a.baseline = PathBuf::from(val("--baseline")),
            "--history" => a.history = PathBuf::from(val("--history")),
            "--history-baseline" => a.history_baseline = PathBuf::from(val("--history-baseline")),
            _ => {
                eprintln!("{USAGE}");
                exit(2)
            }
        }
    }
    a
}

fn parsed(flag: &str, raw: &str) -> usize {
    raw.parse().unwrap_or_else(|_| {
        eprintln!("{USAGE}\nbad value for {flag}: {raw}");
        exit(2)
    })
}

struct Measurement {
    kernel: String,
    /// SIMD executor every mode of this measurement dispatched to.
    isa: String,
    injections: usize,
    full_secs: f64,
    diff_secs: f64,
    resumed_runs: u64,
    skipped_tiles: u64,
    snapshot_bytes: f64,
    outcomes_match: bool,
    /// Top self-time phases of one profiled differential rep, hottest
    /// first.
    top_phases: Vec<(String, u64)>,
}

impl Measurement {
    fn full_rate(&self) -> f64 {
        self.injections as f64 / self.full_secs.max(1e-9)
    }
    fn diff_rate(&self) -> f64 {
        self.injections as f64 / self.diff_secs.max(1e-9)
    }
    fn diff_speedup(&self) -> f64 {
        self.full_secs / self.diff_secs.max(1e-9)
    }
}

/// Runs `campaign` `reps` times against a pre-warmed golden cache and
/// returns the minimum injection-phase wall time (the repetition least
/// disturbed by scheduler noise — the campaign itself is deterministic,
/// so every repetition does identical work), the outcome tally, and the
/// snapshot-set size the warm-up's golden capture reported.
fn timed_run(
    campaign: &Campaign,
    full_execution: bool,
    reps: usize,
    metrics: &Arc<MetricsRegistry>,
) -> (f64, Vec<(String, usize)>, f64) {
    // Warm a mode-private cache so the measured run's golden phase is a
    // hit (differential entries carry snapshots, full ones do not —
    // they must not share a cache or the second mode would refresh it).
    let cache = Arc::new(GoldenCache::new(GoldenCache::DEFAULT_BYTES));
    let warm = Campaign {
        injections: 1,
        ..campaign.clone()
    };
    let options = |metrics: Arc<MetricsRegistry>| RunOptions {
        golden_cache: Some(Arc::clone(&cache)),
        full_execution,
        metrics: Some(metrics),
        ..RunOptions::default()
    };
    let warm_metrics = Arc::new(MetricsRegistry::new());
    warm.run_with(&options(Arc::clone(&warm_metrics)))
        .unwrap_or_else(|e| {
            eprintln!("diff-bench: warm-up failed: {e}");
            exit(1)
        });
    let snapshot_bytes = warm_metrics
        .snapshot()
        .gauge("radcrit_snapshot_bytes", &[])
        .unwrap_or(0.0);

    let mut secs = f64::INFINITY;
    let mut tally: std::collections::BTreeMap<String, usize> = Default::default();
    for rep in 0..reps.max(1) {
        let t0 = Instant::now();
        let result = campaign
            .run_with(&options(Arc::clone(metrics)))
            .unwrap_or_else(|e| {
                eprintln!("diff-bench: campaign failed: {e}");
                exit(1)
            });
        secs = secs.min(t0.elapsed().as_secs_f64());
        if rep == 0 {
            for r in &result.records {
                *tally.entry(r.outcome.tag().to_owned()).or_default() += 1;
            }
        }
    }
    (secs, tally.into_iter().collect(), snapshot_bytes)
}

/// Runs one extra differential rep with the phase profiler on (against a
/// freshly warmed cache, like the timed reps) and returns the top-5
/// self-time phases. Untimed: profiled reps never feed the rate
/// columns, so the ≤5 % enabled-profiler overhead cannot skew them.
fn profiled_phases(campaign: &Campaign) -> Vec<(String, u64)> {
    // This rep is untimed, so exhaustive per-element attribution is
    // free: every memory sub-phase call is timed, not one tile in
    // TILE_SAMPLE_STRIDE.
    radcrit_obs::profile::set_tile_sample_stride(1);
    let cache = Arc::new(GoldenCache::new(GoldenCache::DEFAULT_BYTES));
    let warm = Campaign {
        injections: 1,
        ..campaign.clone()
    };
    let options = |profile| RunOptions {
        golden_cache: Some(Arc::clone(&cache)),
        profile,
        ..RunOptions::default()
    };
    if warm.run_with(&options(None)).is_err() {
        return Vec::new();
    }
    let collector = Arc::new(ProfileCollector::new());
    if campaign
        .run_with(&options(Some(Arc::clone(&collector))))
        .is_err()
    {
        return Vec::new();
    }
    collector
        .snapshot()
        .hot_phases(5)
        .into_iter()
        .map(|(name, self_ns, _count)| (name, self_ns))
        .collect()
}

fn measure(
    name: &str,
    spec: KernelSpec,
    injections: usize,
    workers: usize,
    reps: usize,
) -> Measurement {
    let campaign =
        Campaign::new(DeviceConfig::kepler_k40(), spec, injections, 2017).with_workers(workers);

    let full_metrics = Arc::new(MetricsRegistry::new());
    let (full_secs, full_tally, _) = timed_run(&campaign, true, reps, &full_metrics);
    let diff_metrics = Arc::new(MetricsRegistry::new());
    let (diff_secs, diff_tally, snapshot_bytes) = timed_run(&campaign, false, reps, &diff_metrics);

    // Counters accumulate across repetitions of the identical campaign;
    // report the per-campaign figure.
    let per_rep = |m: &MetricsRegistry, name: &str| {
        m.snapshot().counter(name, &[]).unwrap_or(0) / reps.max(1) as u64
    };
    Measurement {
        kernel: name.to_owned(),
        isa: radcrit_core::exec::active().name().to_owned(),
        injections,
        full_secs,
        diff_secs,
        resumed_runs: per_rep(&diff_metrics, "radcrit_engine_resumed_runs_total"),
        skipped_tiles: per_rep(&diff_metrics, "radcrit_snapshot_skipped_tiles_total"),
        snapshot_bytes,
        outcomes_match: full_tally == diff_tally,
        top_phases: profiled_phases(&campaign),
    }
}

fn main() {
    let args = parse_args();
    let kernels: Vec<(String, KernelSpec)> = vec![
        (
            format!("dgemm-{0}x{0}", args.n),
            KernelSpec::Dgemm { n: args.n },
        ),
        (
            "hotspot-64x64x8".to_owned(),
            KernelSpec::HotSpot {
                rows: 64,
                cols: 64,
                iterations: 8,
            },
        ),
        (
            "lavamd-5".to_owned(),
            KernelSpec::LavaMd {
                grid: 5,
                particles: 8,
            },
        ),
    ];

    let isa = radcrit_core::exec::active();
    println!(
        "diff-bench: {} injections per kernel, {} worker(s), best of {} rep(s), \
         K40 config, simd isa {isa}",
        args.injections, args.workers, args.reps
    );
    println!(
        "{:<16} {:>9} {:>9} {:>11} {:>11} {:>8} {:>8}",
        "kernel", "full s", "diff s", "full inj/s", "diff inj/s", "diff", "resumed"
    );

    let mut rows = Vec::new();
    for (name, spec) in kernels {
        let m = measure(&name, spec, args.injections, args.workers, args.reps);
        println!(
            "{:<16} {:>9.3} {:>9.3} {:>11.1} {:>11.1} {:>7.2}x {:>8}",
            m.kernel,
            m.full_secs,
            m.diff_secs,
            m.full_rate(),
            m.diff_rate(),
            m.diff_speedup(),
            m.resumed_runs,
        );
        if !m.outcomes_match {
            eprintln!(
                "diff-bench: outcome tallies diverged between modes on {}",
                m.kernel
            );
            exit(1)
        }
        if m.resumed_runs == 0 {
            eprintln!(
                "diff-bench: no injection resumed from a snapshot on {}",
                m.kernel
            );
            exit(1)
        }
        rows.push(m);
    }

    let json = render_json(&args, &rows);
    if let Err(e) = std::fs::write(&args.out, &json) {
        eprintln!("diff-bench: cannot write {}: {e}", args.out.display());
        exit(1)
    }
    println!("wrote {}", args.out.display());

    // Continuous history: one fingerprinted row per kernel, every run —
    // smoke included, so the CI runner's trend line exists at all.
    let host = history::host_fingerprint();
    let commit = history::commit_fingerprint();
    let hist: Vec<HistoryRow> = rows
        .iter()
        .map(|m| HistoryRow {
            host: host.clone(),
            commit: commit.clone(),
            kernel: m.kernel.clone(),
            isa: m.isa.clone(),
            batch_inj_per_sec: m.diff_rate(),
            full_inj_per_sec: m.full_rate(),
            top_phases: m.top_phases.clone(),
        })
        .collect();
    if let Err(e) = history::append_rows(&args.history, &hist) {
        eprintln!("diff-bench: cannot append history: {e}");
        exit(1)
    }
    println!(
        "appended {} rows to {} (host {host}, commit {commit})",
        hist.len(),
        args.history.display()
    );
    if let Some((phase, self_ns)) = rows[0].top_phases.first() {
        println!(
            "hottest phase on {}: {phase} ({:.1} ms self time)",
            rows[0].kernel,
            *self_ns as f64 / 1e6
        );
    }

    let dgemm = &rows[0];
    if args.smoke {
        return;
    }

    // Perf-history gate: every kernel in the committed baseline must be
    // within 10 % of its committed default-mode rate — but only like for
    // like on the ISA. Baselines predating the isa column were measured
    // with the native vectorized executor, so they only gate runs that
    // are not pinned away from it (hardware(), not detected(): the
    // RADCRIT_FORCE_SCALAR pin must read as "pinned", not "native").
    let native = radcrit_core::exec::hardware();
    for (kernel, base_isa, base) in history::baseline_batch_rates(&args.history_baseline) {
        let comparable = match &base_isa {
            Some(b) => *b == isa.name(),
            None => isa == native,
        };
        if !comparable {
            println!(
                "skipping history gate for {kernel}: baseline isa {} vs active {isa}",
                base_isa.as_deref().unwrap_or("pre-isa (native)")
            );
            continue;
        }
        if let Some(m) = rows.iter().find(|m| m.kernel == kernel) {
            if let Err(msg) = history::check_regression(&kernel, m.diff_rate(), base) {
                eprintln!("diff-bench: {msg}");
                exit(1)
            }
        }
    }
    // Acceptance floor: 2.5x over the *committed* full rate of
    // `BENCH_4.json`. The in-process full mode also benefits from later
    // engine speedups, so it understates the delivered gain; it is only
    // the fallback when no baseline file is around. The
    // committed baseline was measured with the native executor, so a
    // scalar-pinned run (correctness reference, not a perf claim) is
    // exempt.
    if isa != native {
        println!("skipping acceptance floor: active isa {isa} is pinned below native {native}");
        return;
    }
    match baseline_dgemm_full_rate(&args.baseline) {
        Some(base) => {
            let gain = dgemm.diff_rate() / base.max(1e-9);
            if gain < 2.5 {
                eprintln!(
                    "diff-bench: differential DGEMM at {:.1} inj/s is {:.2}x the committed \
                     baseline of {:.1} inj/s ({}), below the 2.5x acceptance floor",
                    dgemm.diff_rate(),
                    gain,
                    base,
                    args.baseline.display()
                );
                exit(1)
            }
        }
        None => {
            if dgemm.diff_speedup() < 2.5 {
                eprintln!(
                    "diff-bench: no baseline at {}; in-process differential DGEMM speedup \
                     {:.2}x is below the 2.5x acceptance floor",
                    args.baseline.display(),
                    dgemm.diff_speedup()
                );
                exit(1)
            }
        }
    }
}

/// Pulls `full_inj_per_sec` out of the baseline file's DGEMM row
/// without a JSON dependency: the file is machine-written by this
/// binary's predecessor with one kernel object per line.
fn baseline_dgemm_full_rate(path: &std::path::Path) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text
        .lines()
        .find(|l| l.contains("\"kernel\": \"dgemm-") && l.contains("full_inj_per_sec"))?;
    let tail = line.split("\"full_inj_per_sec\":").nth(1)?;
    tail.split([',', '}']).next()?.trim().parse().ok()
}

fn render_json(args: &Args, rows: &[Measurement]) -> String {
    let mut s = String::from("{\n  \"bench\": \"differential-injection-execution\",\n");
    s.push_str("  \"device\": \"K40\",\n  \"seed\": 2017,\n");
    s.push_str(&format!(
        "  \"injections_per_kernel\": {},\n  \"workers\": {},\n  \"reps\": {},\n  \"kernels\": [\n",
        args.injections, args.workers, args.reps
    ));
    for (i, m) in rows.iter().enumerate() {
        s.push_str(&format!(
            concat!(
                "    {{\"kernel\": \"{}\", \"isa\": \"{}\", \"injections\": {}, ",
                "\"full_secs\": {:.4}, \"diff_secs\": {:.4}, ",
                "\"full_inj_per_sec\": {:.2}, \"batch_inj_per_sec\": {:.2}, ",
                "\"diff_speedup\": {:.3}, \"resumed_runs\": {}, ",
                "\"snapshot_skipped_tiles\": {}, \"snapshot_bytes\": {:.0}, ",
                "\"outcomes_match\": {}}}{}\n"
            ),
            m.kernel,
            m.isa,
            m.injections,
            m.full_secs,
            m.diff_secs,
            m.full_rate(),
            m.diff_rate(),
            m.diff_speedup(),
            m.resumed_runs,
            m.skipped_tiles,
            m.snapshot_bytes,
            m.outcomes_match,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    s.push_str("  ]\n}\n");
    s
}
