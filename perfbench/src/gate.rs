//! The correctness gate: every workload's outputs must equal an
//! independently computed reference. A mismatch is never reported as a
//! metric; it makes the benchmark exit non-zero.

use std::collections::BTreeMap;

use radcrit_campaign::checkpoint::record_line;
use radcrit_campaign::InjectionRecord;

/// Every index of `start..end` present exactly once, and nothing else.
pub fn complete(
    what: &str,
    records: &[InjectionRecord],
    start: usize,
    end: usize,
) -> Result<(), String> {
    let mut seen = vec![false; end.saturating_sub(start)];
    for r in records {
        let slot = r
            .index
            .checked_sub(start)
            .and_then(|i| seen.get_mut(i))
            .ok_or_else(|| format!("{what}: record index {} outside {start}..{end}", r.index))?;
        if *slot {
            return Err(format!("{what}: index {} recorded twice", r.index));
        }
        *slot = true;
    }
    match seen.iter().position(|s| !s) {
        Some(i) => Err(format!("{what}: index {} has no record", start + i)),
        None => Ok(()),
    }
}

/// Each reference record must equal the timed record of the same index,
/// compared in the checkpoint's canonical encoding (so NaN fields
/// compare equal to themselves).
pub fn same_records(
    what: &str,
    timed: &[InjectionRecord],
    reference: &[InjectionRecord],
) -> Result<(), String> {
    if reference.is_empty() {
        return Err(format!("{what}: empty reference slice"));
    }
    let by_index: BTreeMap<usize, &InjectionRecord> = timed.iter().map(|r| (r.index, r)).collect();
    for want in reference {
        let got = by_index
            .get(&want.index)
            .ok_or_else(|| format!("{what}: timed run has no record {}", want.index))?;
        let (g, w) = (record_line(got), record_line(want));
        if g != w {
            return Err(format!(
                "{what}: record {} differs\n  timed:     {g}\n  reference: {w}",
                want.index
            ));
        }
    }
    Ok(())
}

/// Two canonical summaries must be byte-identical (a trailing newline,
/// as served over HTTP, is ignored).
pub fn same_summary(what: &str, got: &str, want: &str) -> Result<(), String> {
    if got.trim_end() == want.trim_end() {
        Ok(())
    } else {
        Err(format!(
            "{what}: summary differs\n  got:  {}\n  want: {}",
            got.trim_end(),
            want.trim_end()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radcrit_campaign::{InjectionOutcome, RunOptions};
    use radcrit_serve::{DeviceKind, JobSpec};

    fn small_campaign() -> radcrit_campaign::Campaign {
        let mut spec = JobSpec::new(
            DeviceKind::K40,
            radcrit_campaign::KernelSpec::Dgemm { n: 32 },
            24,
            11,
        );
        spec.scale = 8;
        spec.workers = 1;
        spec.campaign().expect("valid spec")
    }

    #[test]
    fn an_identical_reference_slice_passes() {
        let c = small_campaign();
        let timed = c.run().expect("campaign runs");
        let slice = c
            .run_with(&RunOptions {
                shard: Some((5, 13)),
                full_execution: true,
                force_scalar: true,
                ..RunOptions::default()
            })
            .expect("slice runs");
        complete("timed", &timed.records, 0, 24).expect("complete");
        same_records("slice", &timed.records, &slice.records).expect("identical");
        let s = timed.summary().to_json();
        same_summary("summary", &format!("{s}\n"), &s).expect("identical");
    }

    #[test]
    fn a_wrong_record_fails_the_gate() {
        let c = small_campaign();
        let timed = c.run().expect("campaign runs");
        let mut wrong = timed.records.clone();
        let victim = wrong.iter_mut().find(|r| r.index == 7).expect("index 7");
        victim.outcome = match victim.outcome {
            InjectionOutcome::Crash => InjectionOutcome::Hang,
            _ => InjectionOutcome::Crash,
        };
        assert!(same_records("slice", &wrong, &timed.records).is_err());
        wrong.retain(|r| r.index != 3);
        assert!(complete("timed", &wrong, 0, 24).is_err());
    }

    #[test]
    fn a_wrong_summary_fails_the_gate() {
        let c = small_campaign();
        let s = c.run().expect("campaign runs").summary().to_json();
        let other = radcrit_campaign::Campaign { seed: 12, ..c }
            .run()
            .expect("runs")
            .summary()
            .to_json();
        assert!(same_summary("summary", &s, &other).is_err());
    }
}
