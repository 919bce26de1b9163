//! The coordinator's crash-safe shard journal.
//!
//! Append-only JSONL, mirroring the daemon's job journal: a versioned
//! header line pinning the campaign, then one record per shard state
//! transition, each flushed before the transition is acted on. On open
//! the file is recovered through [`radcrit_obs::jsonl`] and the
//! surviving lines replay to the latest state per shard — so a
//! restarted coordinator knows which shards were dispatched where and
//! which completed, and can resume tailing / re-dispatch the rest.

use std::collections::BTreeMap;
use std::path::Path;

use radcrit_obs::json::{self, escape};
use radcrit_obs::jsonl::AppendLog;

/// Journal format version, written in the header line.
pub const FABRIC_JOURNAL_VERSION: u64 = 1;

/// Lifecycle state of one shard, as journaled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardState {
    /// First assignment to a worker.
    Dispatched,
    /// Remaining range re-assigned after its worker died.
    Redispatched,
    /// The shard's whole index range is covered by the merged stream.
    Completed,
}

impl ShardState {
    /// The state's wire name.
    pub fn wire_name(self) -> &'static str {
        match self {
            ShardState::Dispatched => "dispatched",
            ShardState::Redispatched => "redispatched",
            ShardState::Completed => "completed",
        }
    }

    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "dispatched" => Ok(ShardState::Dispatched),
            "redispatched" => Ok(ShardState::Redispatched),
            "completed" => Ok(ShardState::Completed),
            other => Err(format!("unknown shard state {other:?}")),
        }
    }
}

/// One journaled shard state transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRecord {
    /// Shard ordinal within the campaign's plan.
    pub shard: usize,
    /// Shard range start (inclusive, global injection index).
    pub start: u64,
    /// Shard range end (exclusive).
    pub end: u64,
    /// Worker address the shard is (or was last) assigned to.
    pub worker: String,
    /// Job id on that worker, empty until known.
    pub job: String,
    /// The transition.
    pub state: ShardState,
    /// First index not yet covered by the merged stream at the time of
    /// this transition — where a re-dispatch resumes from.
    pub resume_from: u64,
}

impl ShardRecord {
    fn render(&self) -> String {
        format!(
            "{{\"shard\":{},\"start\":{},\"end\":{},\"worker\":\"{}\",\
             \"job\":\"{}\",\"state\":\"{}\",\"resume_from\":{}}}",
            self.shard,
            self.start,
            self.end,
            escape(&self.worker),
            escape(&self.job),
            self.state.wire_name(),
            self.resume_from,
        )
    }

    fn parse(line: &str) -> Result<Self, String> {
        let v = json::parse_line(line)?;
        let obj = json::as_obj(&v)?;
        Ok(ShardRecord {
            shard: json::get_usize(obj, "shard")?,
            start: json::get_u64(obj, "start")?,
            end: json::get_u64(obj, "end")?,
            worker: json::get_str(obj, "worker")?.to_owned(),
            job: json::get_str(obj, "job")?.to_owned(),
            state: ShardState::parse(json::get_str(obj, "state")?)?,
            resume_from: json::get_u64(obj, "resume_from")?,
        })
    }
}

/// The append-only shard journal.
#[derive(Debug)]
pub struct FabricJournal {
    log: AppendLog,
}

impl FabricJournal {
    /// Opens (or creates) the journal at `path` for the campaign whose
    /// canonical spec line is `campaign_json`, returning the journal,
    /// the campaign's pinned shard count, and the latest replayed state
    /// per shard (empty for a fresh file).
    ///
    /// A fresh journal writes `planned_shards` into its header; an
    /// existing journal returns the count *it* recorded, ignoring
    /// `planned_shards` — so a restarted coordinator re-derives exactly
    /// the split it first journaled even if the shard-count flag
    /// changed, and replayed records always line up with the plan by
    /// ordinal. A torn final line is cut; a damaged complete line is an
    /// error, and so is a journal written for a *different* campaign —
    /// re-dispatching another campaign's shards would corrupt both.
    ///
    /// # Errors
    ///
    /// I/O failures, a bad header or record line, or a campaign mismatch.
    pub fn open(
        path: &Path,
        campaign_json: &str,
        planned_shards: usize,
    ) -> Result<(Self, usize, Vec<ShardRecord>), String> {
        let mut latest: BTreeMap<usize, ShardRecord> = BTreeMap::new();
        let mut shards = None;
        let mut log = AppendLog::open(path, |line| {
            if shards.is_none() {
                shards = Some(parse_header(line, campaign_json)?);
            } else {
                let rec = ShardRecord::parse(line)?;
                latest.insert(rec.shard, rec);
            }
            Ok(())
        })
        .map_err(|e| format!("journal {}: {e}", path.display()))?;
        if shards.is_none() {
            log.append(&format!(
                "{{\"radcrit_fabric_journal\":{FABRIC_JOURNAL_VERSION},\
                 \"campaign\":\"{}\",\"shards\":{planned_shards}}}",
                escape(campaign_json)
            ))
            .map_err(|e| format!("journal {}: {e}", path.display()))?;
        }
        let shards = shards.unwrap_or(planned_shards);
        Ok((
            FabricJournal { log },
            shards,
            latest.into_values().collect(),
        ))
    }

    /// Appends one shard transition, flushed to the OS before return —
    /// the coordinator acts on a transition only after it is journaled.
    ///
    /// # Errors
    ///
    /// Any I/O error writing or flushing.
    pub fn append(&mut self, record: &ShardRecord) -> std::io::Result<()> {
        self.log.append(&record.render())
    }
}

/// Checks a journal header against `campaign_json` and returns the
/// shard count it pinned.
fn parse_header(line: &str, campaign_json: &str) -> Result<usize, String> {
    let header = |e: String| format!("bad header: {e}");
    let v = json::parse_line(line).map_err(header)?;
    let obj = json::as_obj(&v).map_err(header)?;
    let version = json::get_usize(obj, "radcrit_fabric_journal").map_err(header)?;
    if version as u64 != FABRIC_JOURNAL_VERSION {
        return Err(format!("unsupported fabric journal version {version}"));
    }
    if json::get_str(obj, "campaign").map_err(header)? != campaign_json {
        return Err("belongs to a different campaign".into());
    }
    json::get_usize(obj, "shards").map_err(header)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::OpenOptions;
    use std::sync::atomic::{AtomicU64, Ordering};

    const CAMPAIGN: &str = r#"{"spec":1,"kernel":"dgemm","n":32,"injections":40,"seed":23}"#;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "radcrit_fabric_journal_{tag}_{}_{}.jsonl",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn rec(shard: usize, state: ShardState, worker: &str, resume_from: u64) -> ShardRecord {
        ShardRecord {
            shard,
            start: shard as u64 * 10,
            end: shard as u64 * 10 + 10,
            worker: worker.to_owned(),
            job: format!("job-{shard:06}"),
            state,
            resume_from,
        }
    }

    #[test]
    fn replay_returns_the_latest_state_per_shard() {
        let path = temp_path("replay");
        {
            let (mut j, shards, replayed) = FabricJournal::open(&path, CAMPAIGN, 4).unwrap();
            assert_eq!(shards, 4);
            assert!(replayed.is_empty());
            j.append(&rec(0, ShardState::Dispatched, "a:1", 0)).unwrap();
            j.append(&rec(1, ShardState::Dispatched, "b:2", 10))
                .unwrap();
            j.append(&rec(0, ShardState::Completed, "a:1", 10)).unwrap();
            j.append(&rec(1, ShardState::Redispatched, "a:1", 14))
                .unwrap();
        }
        let (_, _, replayed) = FabricJournal::open(&path, CAMPAIGN, 4).unwrap();
        assert_eq!(replayed.len(), 2);
        assert_eq!(replayed[0].state, ShardState::Completed);
        assert_eq!(replayed[1].state, ShardState::Redispatched);
        assert_eq!(replayed[1].worker, "a:1");
        assert_eq!(replayed[1].resume_from, 14);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_truncated_and_appending_continues() {
        let path = temp_path("torn");
        {
            let (mut j, _, _) = FabricJournal::open(&path, CAMPAIGN, 2).unwrap();
            j.append(&rec(0, ShardState::Dispatched, "a:1", 0)).unwrap();
        }
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"shard\":1,\"start\":10,\"en").unwrap();
        }
        let (mut j, _, replayed) = FabricJournal::open(&path, CAMPAIGN, 2).unwrap();
        assert_eq!(replayed.len(), 1, "torn record dropped");
        j.append(&rec(1, ShardState::Dispatched, "b:2", 10))
            .unwrap();
        drop(j);
        let (_, _, replayed) = FabricJournal::open(&path, CAMPAIGN, 2).unwrap();
        assert_eq!(replayed.len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn every_byte_offset_reopens_to_the_complete_line_prefix() {
        let path = temp_path("offsets");
        let written = [
            rec(0, ShardState::Dispatched, "a:1", 0),
            rec(1, ShardState::Dispatched, "b:2", 10),
            rec(0, ShardState::Completed, "a:1", 10),
        ];
        {
            let (mut j, _, _) = FabricJournal::open(&path, CAMPAIGN, 3).unwrap();
            for r in &written {
                j.append(r).unwrap();
            }
        }
        let latest = |records: &[ShardRecord]| {
            let mut by_shard = BTreeMap::new();
            for r in records {
                by_shard.insert(r.shard, r.clone());
            }
            by_shard.into_values().collect::<Vec<_>>()
        };
        let extra = rec(2, ShardState::Dispatched, "c:3", 20);
        let full = std::fs::read(&path).unwrap();
        for k in 0..=full.len() {
            std::fs::write(&path, &full[..k]).unwrap();
            // Complete lines in the prefix, the first being the header.
            let complete = full[..k].iter().filter(|&&b| b == b'\n').count();
            let prefix = &written[..complete.saturating_sub(1)];
            let (mut j, shards, replayed) = FabricJournal::open(&path, CAMPAIGN, 3).unwrap();
            assert_eq!(shards, 3, "cut at byte {k}");
            assert_eq!(replayed, latest(prefix), "cut at byte {k}");
            j.append(&extra).unwrap();
            drop(j);
            let (_, _, replayed) = FabricJournal::open(&path, CAMPAIGN, 3).unwrap();
            let mut with_extra = prefix.to_vec();
            with_extra.push(extra.clone());
            assert_eq!(
                replayed,
                latest(&with_extra),
                "reopen after cut at byte {k}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_damaged_complete_line_fails_the_open() {
        let path = temp_path("damaged");
        {
            let (mut j, _, _) = FabricJournal::open(&path, CAMPAIGN, 2).unwrap();
            j.append(&rec(0, ShardState::Dispatched, "a:1", 0)).unwrap();
        }
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"shard\":1,\"start\":10,\"en\n").unwrap();
        }
        let before = std::fs::read(&path).unwrap();
        assert!(FabricJournal::open(&path, CAMPAIGN, 2).is_err());
        assert_eq!(std::fs::read(&path).unwrap(), before, "left untouched");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_journal_for_another_campaign_is_rejected() {
        let path = temp_path("mismatch");
        drop(FabricJournal::open(&path, CAMPAIGN, 2).unwrap());
        let err = FabricJournal::open(&path, r#"{"spec":1,"kernel":"lava"}"#, 2);
        assert!(err.is_err(), "campaign mismatch must refuse to open");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn the_header_pins_the_shard_count_across_reopens() {
        let path = temp_path("pinned");
        drop(FabricJournal::open(&path, CAMPAIGN, 3).unwrap());
        // A restart with a different shard-count flag keeps the
        // journaled split — otherwise replayed ordinals would index a
        // different plan.
        let (_, shards, _) = FabricJournal::open(&path, CAMPAIGN, 7).unwrap();
        assert_eq!(shards, 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn ranges_beyond_u32_survive_a_round_trip() {
        let path = temp_path("u64");
        let big = ShardRecord {
            shard: 0,
            start: 1 << 40,
            end: (1 << 40) + 10,
            worker: "a:1".to_owned(),
            job: "job-000000".to_owned(),
            state: ShardState::Dispatched,
            resume_from: (1 << 40) + 3,
        };
        {
            let (mut j, _, _) = FabricJournal::open(&path, CAMPAIGN, 1).unwrap();
            j.append(&big).unwrap();
        }
        let (_, _, replayed) = FabricJournal::open(&path, CAMPAIGN, 1).unwrap();
        assert_eq!(replayed, vec![big]);
        std::fs::remove_file(&path).ok();
    }
}
