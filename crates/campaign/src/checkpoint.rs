//! Streaming JSONL checkpoints: crash-safe persistence for long
//! campaigns.
//!
//! A checkpoint file is line-oriented: a header object identifying the
//! campaign, then one object per finished [`InjectionRecord`], appended
//! (and flushed) as workers produce them. Killing a campaign therefore
//! loses at most the line being written; [`crate::Campaign::resume`]
//! replays the completed indices and re-runs only the rest, which —
//! thanks to the per-index RNG streams — yields the same records and a
//! bit-identical summary as an uninterrupted run.
//!
//! ```text
//! {"radcrit_checkpoint":1,"kernel":"Dgemm { n: 32 }","device":"K40",...}
//! {"i":0,"site":"l2","tile":3,"delivered":true,"outcome":"MASKED"}
//! {"i":1,"site":"fatal","tile":null,"delivered":true,"outcome":"CRASH"}
//! {"i":2,"site":"fpu","tile":9,"delivered":true,"outcome":"SDC","sdc":{...}}
//! ```
//!
//! Floats are written with Rust's shortest round-trip formatting, so
//! `inf` and `NaN` appear verbatim — a deliberate deviation from strict
//! JSON (infinite mean relative errors are real data here, see
//! [`radcrit_core::mismatch::Mismatch::relative_error`]) that keeps the
//! codec lossless. Recovery follows [`radcrit_obs::jsonl`]: a torn final
//! line (the kill race) is cut; other damage is [`AccelError::Corrupt`].
//!
//! The codec itself lives in [`radcrit_obs::json`], shared with the
//! event-stream and metrics writers; this module only defines the
//! checkpoint line formats on top of it.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::str::FromStr;

use radcrit_accel::error::AccelError;
use radcrit_core::locality::SpatialClass;
use radcrit_core::report::CriticalityReport;
use radcrit_obs::json::{
    as_obj, escape, fmt_f64, fmt_opt_f64, get, get_bool, get_f64, get_opt_f64, get_opt_usize,
    get_str, get_usize, parse_line, Json,
};
use radcrit_obs::jsonl::{self, AppendLog};

use crate::config::Campaign;
use crate::outcome::{InjectionOutcome, InjectionRecord, SdcDetail};

/// Format version stamped into the header line.
pub const FORMAT_VERSION: u32 = 1;

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

/// The header line identifying the campaign a checkpoint belongs to.
pub fn header_line(campaign: &Campaign) -> String {
    format!(
        "{{\"radcrit_checkpoint\":{FORMAT_VERSION},\"kernel\":\"{}\",\"device\":\"{}\",\
         \"injections\":{},\"seed\":{},\"threshold\":{}}}",
        escape(&format!("{:?}", campaign.kernel)),
        escape(&campaign.device.kind().to_string()),
        campaign.injections,
        campaign.seed,
        fmt_f64(campaign.tolerance.threshold_pct()),
    )
}

/// One record as a single JSONL line (no trailing newline).
pub fn record_line(r: &InjectionRecord) -> String {
    let tile = r.at_tile.map_or_else(|| "null".into(), |t| t.to_string());
    let mut line = format!(
        "{{\"i\":{},\"site\":\"{}\",\"tile\":{tile},\"delivered\":{},\"outcome\":\"{}\"",
        r.index,
        escape(&r.site),
        r.delivered,
        r.outcome.tag(),
    );
    if let InjectionOutcome::Sdc(d) = &r.outcome {
        let c = &d.criticality;
        line.push_str(&format!(
            ",\"sdc\":{{\"incorrect\":{},\"mre\":{},\"locality\":\"{}\",\
             \"f_incorrect\":{},\"f_mre\":{},\"f_locality\":\"{}\",\
             \"threshold\":{},\"output_len\":{}}}",
            c.incorrect_elements,
            fmt_opt_f64(c.mean_relative_error),
            c.locality,
            c.filtered_incorrect_elements,
            fmt_opt_f64(c.filtered_mean_relative_error),
            c.filtered_locality,
            fmt_f64(c.threshold_pct),
            d.output_len,
        ));
    }
    line.push('}');
    line
}

// ---------------------------------------------------------------------
// Decoding — on top of the shared radcrit_obs::json reader
// ---------------------------------------------------------------------

fn get_class(obj: &[(String, Json)], key: &str) -> Result<SpatialClass, String> {
    SpatialClass::from_str(get_str(obj, key)?)
}

fn record_from_json(v: &Json) -> Result<InjectionRecord, String> {
    let obj = as_obj(v)?;
    let index = get_usize(obj, "i")?;
    let site = get_str(obj, "site")?.to_owned();
    let at_tile = get_opt_usize(obj, "tile")?;
    let delivered = get_bool(obj, "delivered")?;
    let outcome = match get_str(obj, "outcome")? {
        "MASKED" => InjectionOutcome::Masked,
        "CRASH" => InjectionOutcome::Crash,
        "HANG" => InjectionOutcome::Hang,
        "SDC" => {
            let sdc = as_obj(get(obj, "sdc")?)?;
            InjectionOutcome::Sdc(SdcDetail {
                criticality: CriticalityReport {
                    incorrect_elements: get_usize(sdc, "incorrect")?,
                    mean_relative_error: get_opt_f64(sdc, "mre")?,
                    locality: get_class(sdc, "locality")?,
                    filtered_incorrect_elements: get_usize(sdc, "f_incorrect")?,
                    filtered_mean_relative_error: get_opt_f64(sdc, "f_mre")?,
                    filtered_locality: get_class(sdc, "f_locality")?,
                    threshold_pct: get_f64(sdc, "threshold")?,
                },
                output_len: get_usize(sdc, "output_len")?,
            })
        }
        other => return Err(format!("unknown outcome tag {other:?}")),
    };
    Ok(InjectionRecord {
        index,
        site,
        at_tile,
        delivered,
        outcome,
    })
}

// ---------------------------------------------------------------------
// File-level API
// ---------------------------------------------------------------------

fn corrupt(path: &Path, msg: impl std::fmt::Display) -> AccelError {
    AccelError::Corrupt(format!("checkpoint {}: {msg}", path.display()))
}

/// Folds one checkpoint line: the header first (`seen` stays `None`
/// until it matched `campaign`), then records into `records`, the first
/// occurrence of an index winning.
fn fold_line(
    campaign: &Campaign,
    seen: &mut Option<HashSet<usize>>,
    records: &mut Vec<InjectionRecord>,
    line: &str,
) -> Result<(), String> {
    let line = line.trim();
    let Some(seen) = seen else {
        if line != header_line(campaign) {
            parse_line(line).map_err(|e| format!("bad header: {e}"))?;
            return Err(
                "header does not match this campaign (kernel, device, injections, \
                 seed or threshold differ)"
                    .to_owned(),
            );
        }
        *seen = Some(HashSet::new());
        return Ok(());
    };
    let r = parse_line(line).and_then(|v| record_from_json(&v))?;
    if r.index >= campaign.injections {
        return Err(format!(
            "record index {} out of range for {} injections",
            r.index, campaign.injections
        ));
    }
    if seen.insert(r.index) {
        records.push(r);
    }
    Ok(())
}

/// Reads and validates the records of `path` against `campaign`,
/// without modifying the file.
///
/// Ignores a torn final line (a campaign killed mid-write) and keeps
/// the first record of a duplicated index; anything else malformed is
/// an error.
///
/// # Errors
///
/// [`AccelError::Corrupt`] when the file is unreadable, has no header,
/// its header does not match `campaign`, or a complete line fails to
/// parse.
pub fn read_records(path: &Path, campaign: &Campaign) -> Result<Vec<InjectionRecord>, AccelError> {
    let (mut seen, mut records) = (None, Vec::new());
    jsonl::replay(path, |line| {
        fold_line(campaign, &mut seen, &mut records, line)
    })
    .map_err(|e| corrupt(path, e))?;
    if seen.is_none() {
        return Err(corrupt(path, "empty file (missing header)"));
    }
    Ok(records)
}

/// An append-only checkpoint writer that flushes every record.
#[derive(Debug)]
pub struct CheckpointWriter {
    log: AppendLog,
    path: PathBuf,
}

impl CheckpointWriter {
    /// Creates (truncating) a fresh checkpoint for `campaign` and writes
    /// its header.
    ///
    /// # Errors
    ///
    /// [`AccelError::Corrupt`] on I/O failure.
    pub fn create(path: &Path, campaign: &Campaign) -> Result<Self, AccelError> {
        let mut w = CheckpointWriter {
            log: AppendLog::create(path).map_err(|e| corrupt(path, e))?,
            path: path.to_owned(),
        };
        w.write_line(&header_line(campaign))?;
        Ok(w)
    }

    /// Opens `path` for resumption: replays its records, cuts a torn
    /// tail, and returns a writer positioned to append. A file with no
    /// complete header line (missing, or killed while being created)
    /// starts fresh.
    ///
    /// # Errors
    ///
    /// [`AccelError::Corrupt`] on I/O failure, when the checkpoint
    /// belongs to a different campaign, or when a complete line fails
    /// to parse.
    pub fn resume(
        path: &Path,
        campaign: &Campaign,
    ) -> Result<(Self, Vec<InjectionRecord>), AccelError> {
        let (mut seen, mut records) = (None, Vec::new());
        let log = AppendLog::open(path, |line| {
            fold_line(campaign, &mut seen, &mut records, line)
        })
        .map_err(|e| corrupt(path, e))?;
        let mut w = CheckpointWriter {
            log,
            path: path.to_owned(),
        };
        if seen.is_none() {
            w.write_line(&header_line(campaign))?;
        }
        Ok((w, records))
    }

    /// Appends one record and flushes it to the OS.
    ///
    /// # Errors
    ///
    /// [`AccelError::Corrupt`] on I/O failure.
    pub fn append(&mut self, record: &InjectionRecord) -> Result<(), AccelError> {
        self.write_line(&record_line(record))
    }

    fn write_line(&mut self, line: &str) -> Result<(), AccelError> {
        self.log.append(line).map_err(|e| corrupt(&self.path, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::KernelSpec;
    use radcrit_accel::config::DeviceConfig;
    use std::fs::OpenOptions;

    fn campaign() -> Campaign {
        Campaign::new(
            DeviceConfig::kepler_k40(),
            KernelSpec::Dgemm { n: 32 },
            40,
            7,
        )
    }

    fn sdc_record(index: usize, mre: Option<f64>) -> InjectionRecord {
        InjectionRecord {
            index,
            site: "l2".into(),
            at_tile: Some(3),
            delivered: true,
            outcome: InjectionOutcome::Sdc(SdcDetail {
                criticality: CriticalityReport {
                    incorrect_elements: 5,
                    mean_relative_error: mre,
                    locality: SpatialClass::Line,
                    filtered_incorrect_elements: 2,
                    filtered_mean_relative_error: mre.map(|v| v / 2.0),
                    filtered_locality: SpatialClass::Single,
                    threshold_pct: 2.0,
                },
                output_len: 1024,
            }),
        }
    }

    fn roundtrip(r: &InjectionRecord) -> InjectionRecord {
        let line = record_line(r);
        record_from_json(&parse_line(&line).unwrap()).unwrap()
    }

    #[test]
    fn records_round_trip_losslessly() {
        let masked = InjectionRecord {
            index: 0,
            site: "scheduler".into(),
            at_tile: None,
            delivered: false,
            outcome: InjectionOutcome::Masked,
        };
        assert_eq!(roundtrip(&masked), masked);
        let crash = InjectionRecord {
            index: 1,
            site: "fatal".into(),
            at_tile: None,
            delivered: true,
            outcome: InjectionOutcome::Crash,
        };
        assert_eq!(roundtrip(&crash), crash);
        let sdc = sdc_record(2, Some(1.25));
        assert_eq!(roundtrip(&sdc), sdc);
        let no_mre = sdc_record(3, None);
        assert_eq!(roundtrip(&no_mre), no_mre);
    }

    #[test]
    fn infinite_relative_errors_survive_the_round_trip() {
        let inf = sdc_record(4, Some(f64::INFINITY));
        assert_eq!(roundtrip(&inf), inf);
        // Shortest round-trip formatting must be exact for finite values
        // too, including ones with many digits.
        let precise = sdc_record(5, Some(1.000_000_000_000_000_2));
        assert_eq!(roundtrip(&precise), precise);
    }

    #[test]
    fn sites_with_funny_characters_survive() {
        let mut r = sdc_record(6, Some(1.0));
        r.site = "a \"quoted\"\\\nsite\t".into();
        assert_eq!(roundtrip(&r), r);
    }

    #[test]
    fn file_round_trip_and_truncated_tail() {
        let c = campaign();
        let path = std::env::temp_dir().join(format!(
            "radcrit-checkpoint-test-{}.jsonl",
            std::process::id()
        ));
        let mut w = CheckpointWriter::create(&path, &c).unwrap();
        let records = vec![sdc_record(0, Some(3.5)), sdc_record(7, None)];
        for r in &records {
            w.append(r).unwrap();
        }
        drop(w);
        // Simulate a kill mid-write: append half a line.
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            write!(f, "{{\"i\":9,\"site\":\"l").unwrap();
        }
        let read = read_records(&path, &c).unwrap();
        assert_eq!(read, records);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn every_byte_offset_resumes_to_the_complete_line_prefix() {
        let c = campaign();
        let path = std::env::temp_dir().join(format!(
            "radcrit-checkpoint-offsets-{}.jsonl",
            std::process::id()
        ));
        let records = vec![
            sdc_record(0, Some(3.5)),
            sdc_record(4, None),
            sdc_record(2, Some(f64::INFINITY)),
        ];
        let mut w = CheckpointWriter::create(&path, &c).unwrap();
        for r in &records {
            w.append(r).unwrap();
        }
        drop(w);
        let full = std::fs::read(&path).unwrap();
        let extra = sdc_record(9, Some(0.5));
        for k in 0..=full.len() {
            std::fs::write(&path, &full[..k]).unwrap();
            // Complete lines in the prefix, the first being the header.
            let complete = full[..k].iter().filter(|&&b| b == b'\n').count();
            let expected = records[..complete.saturating_sub(1)].to_vec();
            let (mut w, replayed) = CheckpointWriter::resume(&path, &c).unwrap();
            assert_eq!(replayed, expected, "cut at byte {k}");
            w.append(&extra).unwrap();
            drop(w);
            let (_, replayed) = CheckpointWriter::resume(&path, &c).unwrap();
            let mut with_extra = expected;
            with_extra.push(extra.clone());
            assert_eq!(replayed, with_extra, "reopen after cut at byte {k}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn header_mismatch_is_rejected() {
        let c = campaign();
        let path = std::env::temp_dir().join(format!(
            "radcrit-checkpoint-mismatch-{}.jsonl",
            std::process::id()
        ));
        CheckpointWriter::create(&path, &c).unwrap();
        let other = Campaign::new(
            DeviceConfig::kepler_k40(),
            KernelSpec::Dgemm { n: 32 },
            40,
            8, // different seed
        );
        let err = read_records(&path, &other).unwrap_err();
        assert!(matches!(err, AccelError::Corrupt(_)), "{err:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn malformed_middle_line_is_corrupt() {
        let c = campaign();
        let path = std::env::temp_dir().join(format!(
            "radcrit-checkpoint-midline-{}.jsonl",
            std::process::id()
        ));
        let mut w = CheckpointWriter::create(&path, &c).unwrap();
        w.append(&sdc_record(0, Some(1.0))).unwrap();
        drop(w);
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            writeln!(f, "not json at all").unwrap();
            writeln!(f, "{}", record_line(&sdc_record(1, Some(1.0)))).unwrap();
        }
        let err = read_records(&path, &c).unwrap_err();
        assert!(matches!(err, AccelError::Corrupt(_)), "{err:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn duplicate_indices_keep_the_first_record() {
        let c = campaign();
        let path = std::env::temp_dir().join(format!(
            "radcrit-checkpoint-dup-{}.jsonl",
            std::process::id()
        ));
        let mut w = CheckpointWriter::create(&path, &c).unwrap();
        let first = sdc_record(0, Some(1.0));
        let second = sdc_record(0, Some(99.0));
        w.append(&first).unwrap();
        w.append(&second).unwrap();
        drop(w);
        let read = read_records(&path, &c).unwrap();
        assert_eq!(read, vec![first]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_on_missing_file_starts_fresh() {
        let c = campaign();
        let path = std::env::temp_dir().join(format!(
            "radcrit-checkpoint-fresh-{}.jsonl",
            std::process::id()
        ));
        std::fs::remove_file(&path).ok();
        let (w, replayed) = CheckpointWriter::resume(&path, &c).unwrap();
        assert!(replayed.is_empty());
        drop(w);
        assert!(path.exists(), "header must have been written");
        assert_eq!(read_records(&path, &c).unwrap(), vec![]);
        std::fs::remove_file(&path).ok();
    }
}
