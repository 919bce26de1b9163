//! Continuous performance history for `diff-bench`.
//!
//! Every `diff-bench` run appends one fingerprinted [`HistoryRow`] per
//! kernel to `BENCH_HISTORY.jsonl`: which host and commit produced the
//! number, the differential and full injection rates, and the top self-time
//! phases of the run's hierarchical profile — enough to answer "when
//! did DGEMM get slower, and which phase ate the time" by reading one
//! file, without rerunning anything.
//!
//! The harness also gates: [`check_regression`] compares a fresh rate
//! against the committed `BENCH_6.json` baseline and rejects drops
//! beyond [`REGRESSION_TOLERANCE`] (10 %), which `diff-bench` turns
//! into a non-zero exit for CI.

use std::path::Path;

use radcrit_obs::json::{self, Json};
use radcrit_obs::jsonl::{AppendLog, OpenError};

/// Fractional slowdown versus the committed baseline that fails the
/// gate: a rate below `baseline * (1 - 0.10)` is a regression.
pub const REGRESSION_TOLERANCE: f64 = 0.10;

/// One appended history record: a kernel's rates on a specific host and
/// commit, with the profile's top self-time phases.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryRow {
    /// Machine that produced the numbers (rates are host-comparable
    /// only within one host).
    pub host: String,
    /// Git commit the working tree was at (`unknown` outside a repo).
    pub commit: String,
    /// Kernel label, e.g. `dgemm-256x256`.
    pub kernel: String,
    /// SIMD executor the run dispatched to (`scalar`, `avx2`, `neon`).
    /// Rates are only comparable within one ISA; rows written before
    /// the column existed parse as `unknown`.
    pub isa: String,
    /// Default-mode (differential) injections per second, the headline
    /// rate. The field keeps its historical name so committed rows and
    /// baselines stay comparable.
    pub batch_inj_per_sec: f64,
    /// Full re-execution injections per second (the denominator of the
    /// speedup story).
    pub full_inj_per_sec: f64,
    /// Top self-time phases of the profiled rep, hottest first, as
    /// `(phase, self_ns)`. At most five.
    pub top_phases: Vec<(String, u64)>,
}

impl HistoryRow {
    /// Serializes the row as one JSONL line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let phases: Vec<String> = self
            .top_phases
            .iter()
            .map(|(name, self_ns)| {
                format!(
                    "{{\"phase\":\"{}\",\"self_ns\":{self_ns}}}",
                    json::escape(name)
                )
            })
            .collect();
        format!(
            "{{\"host\":\"{}\",\"commit\":\"{}\",\"kernel\":\"{}\",\"isa\":\"{}\",\
             \"batch_inj_per_sec\":{},\"full_inj_per_sec\":{},\"top_phases\":[{}]}}",
            json::escape(&self.host),
            json::escape(&self.commit),
            json::escape(&self.kernel),
            json::escape(&self.isa),
            json::fmt_f64(self.batch_inj_per_sec),
            json::fmt_f64(self.full_inj_per_sec),
            phases.join(",")
        )
    }

    /// Parses one JSONL line back into a row.
    ///
    /// # Errors
    ///
    /// A message naming the missing or malformed field.
    pub fn parse_line(line: &str) -> Result<Self, String> {
        let v = json::parse_line(line)?;
        let obj = json::as_obj(&v)?;
        let mut top_phases = Vec::new();
        if let Ok(Json::Arr(items)) = json::get(obj, "top_phases") {
            for item in items {
                let p = json::as_obj(item)?;
                top_phases.push((
                    json::get_str(p, "phase")?.to_owned(),
                    json::get_usize(p, "self_ns")? as u64,
                ));
            }
        }
        Ok(HistoryRow {
            host: json::get_str(obj, "host")?.to_owned(),
            commit: json::get_str(obj, "commit")?.to_owned(),
            kernel: json::get_str(obj, "kernel")?.to_owned(),
            isa: json::get_str(obj, "isa")
                .map(str::to_owned)
                .unwrap_or_else(|_| "unknown".to_owned()),
            batch_inj_per_sec: json::get_f64(obj, "batch_inj_per_sec")?,
            full_inj_per_sec: json::get_f64(obj, "full_inj_per_sec")?,
            top_phases,
        })
    }
}

/// Appends `rows` to the history file (created when missing, torn tail cut).
///
/// # Errors
///
/// A message wrapping the I/O failure.
pub fn append_rows(path: &Path, rows: &[HistoryRow]) -> Result<(), String> {
    let append = || -> Result<(), OpenError> {
        let mut log = AppendLog::open(path, |_| Ok(()))?;
        for row in rows {
            log.write_line(&row.to_json_line())?;
        }
        Ok(log.flush()?)
    };
    append().map_err(|e| format!("{}: {e}", path.display()))
}

/// Reads every parseable row of a history file (missing file → empty).
pub fn read_rows(path: &Path) -> Vec<HistoryRow> {
    std::fs::read_to_string(path)
        .unwrap_or_default()
        .lines()
        .filter_map(|l| HistoryRow::parse_line(l).ok())
        .collect()
}

/// The host fingerprint: `$HOSTNAME`, else `/etc/hostname`, else
/// `unknown`. Never fails — a history row with an unknown host is
/// better than no row.
pub fn host_fingerprint() -> String {
    if let Ok(h) = std::env::var("HOSTNAME") {
        if !h.trim().is_empty() {
            return h.trim().to_owned();
        }
    }
    if let Ok(h) = std::fs::read_to_string("/etc/hostname") {
        if !h.trim().is_empty() {
            return h.trim().to_owned();
        }
    }
    "unknown".to_owned()
}

/// The commit fingerprint: `git rev-parse --short HEAD` in the current
/// directory, else `unknown`.
pub fn commit_fingerprint() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Gates a fresh rate against a committed baseline rate: `Err` when the
/// fresh rate regressed by more than [`REGRESSION_TOLERANCE`].
///
/// # Errors
///
/// A human-readable message naming the kernel, both rates and the
/// shortfall.
pub fn check_regression(kernel: &str, fresh: f64, baseline: f64) -> Result<(), String> {
    let floor = baseline * (1.0 - REGRESSION_TOLERANCE);
    if fresh < floor {
        return Err(format!(
            "{kernel}: {fresh:.1} inj/s regressed more than {:.0}% below the committed \
             baseline of {baseline:.1} inj/s (floor {floor:.1})",
            REGRESSION_TOLERANCE * 100.0
        ));
    }
    Ok(())
}

/// The newest like-for-like history row for `kernel` on `isa` — the
/// alert engine's throughput baseline. Rows append in chronological
/// order, so the last match is the newest; rows from other ISAs (or
/// legacy rows whose ISA parsed as `unknown`) never match, keeping the
/// PR 9 per-ISA comparability rule intact.
pub fn latest_like_for_like<'a>(
    rows: &'a [HistoryRow],
    kernel: &str,
    isa: &str,
) -> Option<&'a HistoryRow> {
    rows.iter()
        .rev()
        .find(|r| r.kernel == kernel && r.isa == isa)
}

/// Extracts `(kernel, isa, batch_inj_per_sec)` triples from a committed
/// `BENCH_6.json`-format baseline (one kernel object per line, as
/// `diff-bench` writes it). Baselines written before the `isa` column
/// existed yield `None` for the ISA — they were measured with the
/// host's native vectorized executor, so callers should only gate
/// against them when the fresh run is not pinned to scalar. Missing
/// file → empty.
pub fn baseline_batch_rates(path: &Path) -> Vec<(String, Option<String>, f64)> {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    text.lines()
        .filter_map(|line| {
            let line = line.trim().trim_end_matches(',');
            if !line.contains("\"kernel\"") || !line.contains("\"batch_inj_per_sec\"") {
                return None;
            }
            let v = json::parse_line(line).ok()?;
            let obj = json::as_obj(&v).ok()?;
            Some((
                json::get_str(obj, "kernel").ok()?.to_owned(),
                json::get_str(obj, "isa").ok().map(str::to_owned),
                json::get_f64(obj, "batch_inj_per_sec").ok()?,
            ))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(kernel: &str, batch: f64) -> HistoryRow {
        HistoryRow {
            host: "ci-runner".into(),
            commit: "abc1234".into(),
            kernel: kernel.into(),
            isa: "avx2".into(),
            batch_inj_per_sec: batch,
            full_inj_per_sec: batch / 3.0,
            top_phases: vec![
                ("mem-load".into(), 420_000),
                ("tile-execute".into(), 99_000),
            ],
        }
    }

    #[test]
    fn rows_round_trip_through_jsonl() {
        let r = row("dgemm-256x256", 238.67);
        let parsed = HistoryRow::parse_line(&r.to_json_line()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn rows_without_an_isa_column_still_parse() {
        // History files predating the isa column must keep reading; the
        // missing provenance is recorded as "unknown", not an error.
        let legacy = "{\"host\":\"h\",\"commit\":\"c\",\"kernel\":\"dgemm-256x256\",\
                      \"batch_inj_per_sec\":240.5,\"full_inj_per_sec\":80.1,\"top_phases\":[]}";
        let parsed = HistoryRow::parse_line(legacy).unwrap();
        assert_eq!(parsed.isa, "unknown");
        assert_eq!(parsed.kernel, "dgemm-256x256");
    }

    #[test]
    fn append_and_read_preserve_order_and_content() {
        let path = std::env::temp_dir().join(format!(
            "radcrit-bench-history-{}.jsonl",
            std::process::id()
        ));
        std::fs::remove_file(&path).ok();
        append_rows(&path, &[row("dgemm-256x256", 240.0)]).unwrap();
        append_rows(&path, &[row("lavamd-5", 680.0)]).unwrap();
        let rows = read_rows(&path);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].kernel, "dgemm-256x256");
        assert_eq!(rows[1].kernel, "lavamd-5");
        assert_eq!(rows[0].top_phases[0].0, "mem-load");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_ten_percent_regression_fails_the_gate() {
        // Exactly at the floor passes; beyond it fails — the committed
        // baseline is the contract, not a suggestion.
        assert!(check_regression("dgemm-256x256", 90.0, 100.0).is_ok());
        let verdict = check_regression("dgemm-256x256", 89.9, 100.0);
        let msg = verdict.expect_err("a >10% drop must fail");
        assert!(msg.contains("dgemm-256x256"), "{msg}");
        assert!(msg.contains("baseline of 100.0"), "{msg}");
    }

    #[test]
    fn faster_rates_always_pass() {
        assert!(check_regression("dgemm-256x256", 400.0, 100.0).is_ok());
    }

    #[test]
    fn baseline_rates_parse_the_committed_bench_format() {
        let path = std::env::temp_dir().join(format!(
            "radcrit-bench-baseline-{}.json",
            std::process::id()
        ));
        std::fs::write(
            &path,
            concat!(
                "{\n  \"bench\": \"x\",\n  \"kernels\": [\n",
                "    {\"kernel\": \"dgemm-256x256\", \"batch_inj_per_sec\": 238.67, \"x\": 1},\n",
                "    {\"kernel\": \"lavamd-5\", \"isa\": \"scalar\", ",
                "\"batch_inj_per_sec\": 682.25, \"x\": 1}\n",
                "  ]\n}\n"
            ),
        )
        .unwrap();
        let rates = baseline_batch_rates(&path);
        assert_eq!(
            rates,
            vec![
                ("dgemm-256x256".to_owned(), None, 238.67),
                ("lavamd-5".to_owned(), Some("scalar".to_owned()), 682.25)
            ]
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn alert_baseline_lookup_picks_the_newest_like_for_like_isa_row() {
        let mut old_avx2 = row("dgemm-256x256", 200.0);
        old_avx2.commit = "old0000".into();
        let scalar = HistoryRow {
            isa: "scalar".into(),
            ..row("dgemm-256x256", 40.0)
        };
        let legacy = HistoryRow {
            isa: "unknown".into(),
            ..row("dgemm-256x256", 999.0)
        };
        let new_avx2 = row("dgemm-256x256", 260.0);
        let other_kernel = row("lavamd-5", 700.0);
        let rows = vec![
            old_avx2,
            scalar.clone(),
            legacy,
            new_avx2.clone(),
            other_kernel,
        ];

        // The newest avx2 dgemm row wins — not the older avx2 row, not
        // the scalar row, not the faster legacy unknown-ISA row.
        let hit = latest_like_for_like(&rows, "dgemm-256x256", "avx2").unwrap();
        assert_eq!(hit.batch_inj_per_sec, 260.0);
        assert_eq!(hit.commit, "abc1234");
        // Like-for-like means ISA-exact.
        let hit = latest_like_for_like(&rows, "dgemm-256x256", "scalar").unwrap();
        assert_eq!(hit.batch_inj_per_sec, 40.0);
        assert!(latest_like_for_like(&rows, "dgemm-256x256", "neon").is_none());
        assert!(latest_like_for_like(&rows, "hotspot-64x64x8", "avx2").is_none());

        // The committed BENCH_HISTORY.jsonl itself must satisfy the
        // lookup: the repo root carries at least one avx2 dgemm row,
        // and the lookup resolves to the newest one in file order.
        let committed = read_rows(Path::new(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_HISTORY.jsonl"
        )));
        let baseline = latest_like_for_like(&committed, "dgemm-256x256", "avx2")
            .expect("committed history must hold an avx2 dgemm-256x256 row");
        assert!(baseline.batch_inj_per_sec > 0.0);
        let newest_pos = committed
            .iter()
            .rposition(|r| r.kernel == "dgemm-256x256" && r.isa == "avx2")
            .unwrap();
        assert_eq!(&committed[newest_pos], baseline);
    }

    #[test]
    fn fingerprints_are_nonempty() {
        assert!(!host_fingerprint().is_empty());
        assert!(!commit_fingerprint().is_empty());
    }
}
