//! `perfbench` — the layered benchmark of radcrit.
//!
//! ```text
//! perfbench --workload <dgemm-k40|lavamd-phi|serve-mix>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One workload per process, so the resident-set high-water mark is the
//! workload's own. `--trace 0` measures the end-to-end metrics; `--trace
//! 1` is a separate run that records spans around every call the
//! benchmark makes into a layer, probes every layer on the workload's
//! kernel, and reports the per-layer metrics. Both runs check the
//! program's outputs against independently computed references; a
//! mismatch exits 1 without reporting metrics, and any other failure
//! exits 2 without a result line.
//!
//! The last line of standard output is the verdict
//! (`correct`/`attempted`/`failed`/`metrics`); the line before it,
//! prefixed `perfbench-detail`, carries every row with its quartiles and
//! sample count plus the run's context (SIMD ISA, nproc, commit, source
//! digest, seed and the simulated-science `summary_digest`).

mod direct;
mod env;
mod gate;
mod probe;
mod report;
mod served;
mod stats;
mod svc;
mod trace;

use std::process::exit;

use report::Report;
use trace::Tracer;

pub const WORKLOADS: [&str; 3] = ["dgemm-k40", "lavamd-phi", "serve-mix"];

/// Every end-to-end metric, reported by `--trace 0` on every workload.
pub const END_TO_END: [(&str, &str); 7] = [
    ("inj_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("job_p50_ms", "ms"),
    ("job_p95_ms", "ms"),
    ("first_event_p50_ms", "ms"),
    ("jobs_per_s", "1/s"),
];

/// Layers, named after the crates, plus the benchmark's own glue.
const LAYERS: [(&str, &str); 8] = [
    ("kernels", "kernels.self_ms"),
    ("faults", "faults.self_ms"),
    ("accel", "accel.self_ms"),
    ("campaign", "campaign.self_ms"),
    ("serve", "serve.self_ms"),
    ("fabric", "fabric.self_ms"),
    ("obs", "obs.self_ms"),
    ("bench", "bench.self_ms"),
];

/// Every per-layer metric, reported by `--trace 1` on every workload.
pub const PER_LAYER: [(&str, &str); 58] = [
    ("kernels.build_ms", "ms"),
    ("kernels.self_ms", "ms"),
    ("faults.sample_us_p50", "us"),
    ("faults.self_ms", "ms"),
    ("accel.golden_ms", "ms"),
    ("accel.snapshot_mb", "MB"),
    ("accel.injection_us_p50", "us"),
    ("accel.injection_us_p90", "us"),
    ("accel.full_run_us_p50", "us"),
    ("accel.tile_execute_ms", "ms"),
    ("accel.cache_access_ms", "ms"),
    ("accel.mem_load_ms", "ms"),
    ("accel.mem_store_ms", "ms"),
    ("accel.corruption_scan_ms", "ms"),
    ("accel.fork_ms", "ms"),
    ("accel.bucket_restore_ms", "ms"),
    ("accel.warm_advance_ms", "ms"),
    ("accel.snapshot_capture_ms", "ms"),
    ("accel.sim_tiles", "count"),
    ("accel.sim_ops", "count"),
    ("accel.sim_loads", "count"),
    ("accel.sim_stores", "count"),
    ("accel.sim_l1_hits", "count"),
    ("accel.sim_l1_misses", "count"),
    ("accel.sim_l2_hits", "count"),
    ("accel.sim_l2_misses", "count"),
    ("accel.self_ms", "ms"),
    ("campaign.compare_us_p50", "us"),
    ("campaign.scaling_x", "x"),
    ("campaign.dead_strike_frac", "frac"),
    ("campaign.forks", "count"),
    ("campaign.bucket_restores", "count"),
    ("campaign.resumed_runs", "count"),
    ("campaign.golden_hit_ratio", "frac"),
    ("campaign.self_ms", "ms"),
    ("serve.start_ms", "ms"),
    ("serve.submit_ms_p50", "ms"),
    ("serve.to_first_event_ms_p50", "ms"),
    ("serve.stream_ms_p50", "ms"),
    ("serve.result_ms_p50", "ms"),
    ("serve.refused", "count"),
    ("serve.self_ms", "ms"),
    ("fabric.coord_start_ms", "ms"),
    ("fabric.wait_done_s", "s"),
    ("fabric.result_ms", "ms"),
    ("fabric.overhead_x", "x"),
    ("fabric.redispatches", "count"),
    ("fabric.self_ms", "ms"),
    ("obs.self_ms", "ms"),
    ("bench.self_ms", "ms"),
    ("bench.self_sum_gap_frac", "frac"),
    ("bench.trace_overhead_frac", "frac"),
    ("failed_frac", "frac"),
    ("campaign.injections", "count"),
    ("serve.jobs", "count"),
    ("fabric.campaigns", "count"),
    ("bench.spans", "count"),
    ("bench.wall_s", "s"),
];

/// Largest accepted `|Σ layer self-times − wall| / wall` of a traced
/// run, the layers being the program's (the benchmark's own glue
/// between calls is the difference).
pub const SELF_SUM_TOLERANCE: f64 = 0.01;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <dgemm-k40|lavamd-phi|serve-mix> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(bad)?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&raw).unwrap_or_else(|e| {
        eprintln!("{USAGE}\n{e}");
        exit(2)
    });
    let code = match run(&args) {
        Ok(report) => {
            let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
            println!("perfbench-detail {}", report.detail_json());
            println!("{}", report.verdict_json(names));
            if report.correct() {
                0
            } else {
                for m in &report.mismatches {
                    eprintln!("perfbench: MISMATCH {m}");
                }
                1
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    env::cleanup();
    exit(code)
}

fn run(args: &Args) -> Result<Report, String> {
    env::cleanup();
    let tracer = Tracer::new(args.trace);
    let mut r = Report::default();
    for (k, v) in [
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("isa", radcrit_core::exec::active().name().to_owned()),
        ("nproc", env::nproc().to_string()),
        ("commit", env::commit()),
        ("source_digest", env::source_digest()),
        (
            "caches",
            "simulated caches start empty at each execution".to_owned(),
        ),
    ] {
        r.context.insert(k, v);
    }
    let (outcome, wall) =
        tracer
            .root()
            .scope("bench", "workload", |ctx| match args.workload.as_str() {
                "serve-mix" => served::run(&ctx, args, &mut r),
                _ => direct::run(&ctx, args, &mut r),
            });
    outcome?;
    if r.attempted == 0 {
        return Err("no operation was attempted".to_owned());
    }
    r.value("failed_frac", "frac", r.failed as f64 / r.attempted as f64);

    if args.trace {
        let spans = tracer.spans();
        let att = trace::attribute(&spans, 0);
        if att.malformed > 0 {
            return Err(format!("{} malformed spans", att.malformed));
        }
        for (layer, name) in LAYERS {
            r.value(
                name,
                "ms",
                att.by_layer.get(layer).copied().unwrap_or(0.0) / 1e6,
            );
        }
        // The program's layers must account for the wall time: what is
        // left is the benchmark's own glue between calls.
        let layers_ns: f64 = att
            .by_layer
            .iter()
            .filter(|(l, _)| **l != "bench")
            .map(|(_, ns)| ns)
            .sum();
        let gap = (att.wall_ns as f64 - layers_ns).abs() / att.wall_ns.max(1) as f64;
        r.value("bench.self_sum_gap_frac", "frac", gap);
        r.count("bench.spans", spans.len() as u64);
        r.value("bench.wall_s", "s", wall.as_secs_f64());
        if gap > SELF_SUM_TOLERANCE || att.gap_frac() > 1e-9 {
            return Err(format!(
                "layer self-times miss the wall time by {:.3}% (tolerance {:.3}%)",
                gap * 100.0,
                SELF_SUM_TOLERANCE * 100.0
            ));
        }
        let path = env::out_dir()?.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        r.context.insert("spans", path.display().to_string());
    }
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let missing: Vec<&str> = names
        .iter()
        .map(|(n, _)| *n)
        .filter(|n| !r.rows.contains_key(n))
        .collect();
    if !missing.is_empty() {
        return Err(format!("metrics not measured: {}", missing.join(", ")));
    }
    for (name, unit) in names {
        let row = &r.rows[name];
        if row.unit != *unit || !row.value.is_finite() {
            return Err(format!(
                "metric {name}: value {} {} (want a finite value in {unit})",
                row.value, row.unit
            ));
        }
    }
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(str::to_owned).collect::<Vec<_>>())
    }

    #[test]
    fn the_benchmark_command_line_parses() {
        let a = args("--workload serve-mix --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve-mix", 7, 10.0, true)
        );
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload dgemm-k40 --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload dgemm-k40 --seed").is_err());
    }

    #[test]
    fn benchmark_json_names_every_metric_and_workload() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark");
        let named = |name: &str| text.contains(&format!("\"name\": \"{name}\""));
        for w in WORKLOADS {
            assert!(named(w), "workload {w} missing from BENCHMARK.json");
        }
        for (m, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(named(m), "metric {m} missing from BENCHMARK.json");
            assert!(
                text.contains(&format!("\"name\": \"{m}\", \"unit\": \"{unit}\"")),
                "metric {m} has another unit in BENCHMARK.json"
            );
        }
    }

    #[test]
    fn a_failed_gate_reports_no_metrics() {
        let mut r = Report::default();
        r.value("inj_per_s", "1/s", 10.0);
        r.attempted = 3;
        assert!(r
            .verdict_json(&[("inj_per_s", "1/s")])
            .contains("\"inj_per_s\""));
        r.fail("record 7 differs".to_owned());
        let line = r.verdict_json(&[("inj_per_s", "1/s")]);
        assert!(line.starts_with("{\"correct\":false"));
        assert!(!line.contains("inj_per_s"));
    }
}
