//! Index-sequenced JSONL event stream writer.
//!
//! The campaign collector receives per-injection results in worker
//! completion order, which varies with thread count and load. The
//! [`EventWriter`] restores determinism: each injection's events are
//! submitted as one block keyed by injection index, blocks are buffered
//! until the next expected index arrives, and the file is written in
//! strict index order — so a fixed-seed campaign produces a
//! byte-identical stream no matter how many workers ran it.
//!
//! On resume the writer recovers the stream through
//! [`crate::jsonl::AppendLog`] and reports which injection indices were
//! already emitted so the campaign can skip them — no duplicated and no
//! missing indices across kill/resume cycles.

use std::collections::{BTreeMap, HashSet, VecDeque};
use std::path::Path;

use crate::event::{parse_event_line, Event};
use crate::jsonl::{AppendLog, OpenError};

/// Writes an event stream to disk in injection-index order.
#[derive(Debug)]
pub struct EventWriter {
    out: AppendLog,
    /// Indices still awaited, in emission order.
    expected: VecDeque<u64>,
    /// Blocks that arrived ahead of the expected front.
    buffered: BTreeMap<u64, Vec<String>>,
    /// Detail-event sampling stride (1 = every injection).
    sample: u64,
}

impl EventWriter {
    /// Creates a fresh stream expecting only injections `start..end` —
    /// the shard-range variant. Blocks for the shard flush as soon as
    /// they are contiguous with the shard front, so a live tailer sees
    /// the stream grow instead of everything gapping until `finish`.
    ///
    /// # Errors
    ///
    /// Any I/O error creating the file.
    pub fn create_range(path: &Path, start: u64, end: u64, sample: u64) -> std::io::Result<Self> {
        Ok(EventWriter {
            out: AppendLog::create(path)?,
            expected: (start..end).collect(),
            buffered: BTreeMap::new(),
            sample: sample.max(1),
        })
    }

    /// Reopens an existing stream for append, returning the writer and
    /// the set of injection indices already present in the file. Only
    /// indices in `start..end` are awaited; everything already in the
    /// file is reported back regardless of range.
    ///
    /// A torn final line (interrupted write) is cut away; the campaign
    /// re-submits that injection's block. Missing files are treated as
    /// empty.
    ///
    /// # Errors
    ///
    /// Any I/O error recovering the file, or a complete line that is not
    /// an event.
    pub fn resume_range(
        path: &Path,
        start: u64,
        end: u64,
        sample: u64,
    ) -> Result<(Self, HashSet<u64>), OpenError> {
        let mut have = HashSet::new();
        let out = AppendLog::open(path, |line| {
            have.extend(parse_event_line(line)?.index);
            Ok(())
        })?;
        let expected = (start..end).filter(|i| !have.contains(i)).collect();
        Ok((
            EventWriter {
                out,
                expected,
                buffered: BTreeMap::new(),
                sample: sample.max(1),
            },
            have,
        ))
    }

    /// Whether detail events should be collected for this injection
    /// (index falls on the sampling stride).
    pub fn sampled(&self, index: u64) -> bool {
        index.is_multiple_of(self.sample)
    }

    /// Writes a campaign-level event (no index sequencing) immediately.
    ///
    /// # Errors
    ///
    /// Any I/O error writing the line.
    pub fn emit_top(&mut self, event: &Event) -> std::io::Result<()> {
        self.out.write_line(&event.line())
    }

    /// Submits one injection's event block; flushes every block that is
    /// now contiguous with the expected-index front.
    ///
    /// # Errors
    ///
    /// Any I/O error writing flushed blocks.
    pub fn submit(&mut self, index: u64, events: &[Event]) -> std::io::Result<()> {
        self.buffered
            .insert(index, events.iter().map(Event::line).collect());
        while let Some(&front) = self.expected.front() {
            let Some(lines) = self.buffered.remove(&front) else {
                break;
            };
            self.expected.pop_front();
            for line in lines {
                self.out.write_line(&line)?;
            }
        }
        Ok(())
    }

    /// Writes any out-of-order remainder (in index order) and flushes the
    /// stream to the OS. Called once at end of run; a budget-stopped campaign
    /// legitimately leaves gaps, and this writes what it has.
    ///
    /// # Errors
    ///
    /// Any I/O error writing or flushing.
    pub fn finish(&mut self) -> std::io::Result<()> {
        for (_, lines) in std::mem::take(&mut self.buffered) {
            for line in lines {
                self.out.write_line(&line)?;
            }
        }
        self.out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventBuffer;
    use std::fs::OpenOptions;
    use std::io::Write as _;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_path(tag: &str) -> std::path::PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "radcrit_obs_writer_{tag}_{}_{}.jsonl",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn block(i: u64, site: &str) -> Vec<Event> {
        let mut buf = EventBuffer::for_injection(i);
        buf.emit("strike").str("site", site);
        buf.emit("outcome").str("tag", "MASKED");
        buf.take()
    }

    #[test]
    fn out_of_order_blocks_come_out_in_index_order() {
        let path = temp_path("order");
        let mut w = EventWriter::create_range(&path, 0, 3, 1).unwrap();
        w.submit(2, &block(2, "l2")).unwrap();
        w.submit(0, &block(0, "fpu")).unwrap();
        w.submit(1, &block(1, "sfu")).unwrap();
        w.finish().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let indices: Vec<u64> = text
            .lines()
            .map(|l| parse_event_line(l).unwrap().index.unwrap())
            .collect();
        assert_eq!(indices, [0, 0, 1, 1, 2, 2]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn finish_flushes_gapped_remainder() {
        let path = temp_path("gap");
        let mut w = EventWriter::create_range(&path, 0, 4, 1).unwrap();
        // Index 0 never arrives (budget stop); 3 and 1 did.
        w.submit(3, &block(3, "l1")).unwrap();
        w.submit(1, &block(1, "fpu")).unwrap();
        w.finish().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let indices: Vec<u64> = text
            .lines()
            .map(|l| parse_event_line(l).unwrap().index.unwrap())
            .collect();
        assert_eq!(indices, [1, 1, 3, 3]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_reports_emitted_indices_and_truncates_torn_tail() {
        let path = temp_path("resume");
        let mut w = EventWriter::create_range(&path, 0, 4, 1).unwrap();
        w.emit_top(&EventBuffer::enabled().emit_into("run_begin"))
            .unwrap();
        w.submit(0, &block(0, "fpu")).unwrap();
        w.submit(1, &block(1, "l2")).unwrap();
        w.finish().unwrap();
        drop(w);
        // Simulate a kill mid-write: append a torn, newline-less line.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"e\":\"strike\",\"i\":2,\"si").unwrap();
        }
        let (mut w, have) = EventWriter::resume_range(&path, 0, 4, 1).unwrap();
        assert_eq!(have, HashSet::from([0, 1]));
        w.submit(3, &block(3, "sfu")).unwrap();
        w.submit(2, &block(2, "l1")).unwrap();
        w.finish().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let mut seen = Vec::new();
        for line in text.lines() {
            let e = parse_event_line(line).unwrap(); // no torn garbage left
            if let Some(i) = e.index {
                seen.push(i);
            }
        }
        assert_eq!(seen, [0, 0, 1, 1, 2, 2, 3, 3]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn every_byte_offset_resumes_to_the_complete_line_prefix() {
        let path = temp_path("offsets");
        let mut w = EventWriter::create_range(&path, 0, 4, 1).unwrap();
        w.emit_top(&EventBuffer::enabled().emit_into("run_begin"))
            .unwrap();
        for (i, site) in ["fpu", "l2", "sfu"].into_iter().enumerate() {
            w.submit(i as u64, &block(i as u64, site)).unwrap();
        }
        w.finish().unwrap();
        drop(w);
        let full = std::fs::read_to_string(&path).unwrap();
        let indices = |text: &str| -> HashSet<u64> {
            text.lines()
                .filter_map(|l| parse_event_line(l).unwrap().index)
                .collect()
        };
        for k in 0..=full.len() {
            std::fs::write(&path, &full.as_bytes()[..k]).unwrap();
            let complete = full[..k].rfind('\n').map_or(0, |i| i + 1);
            let expected = indices(&full[..complete]);
            let (mut w, have) = EventWriter::resume_range(&path, 0, 4, 1).unwrap();
            assert_eq!(have, expected, "cut at byte {k}");
            w.submit(3, &block(3, "l1")).unwrap();
            w.finish().unwrap();
            drop(w);
            let (_, have) = EventWriter::resume_range(&path, 0, 4, 1).unwrap();
            let mut with_extra = expected;
            with_extra.insert(3);
            assert_eq!(have, with_extra, "reopen after cut at byte {k}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_damaged_complete_line_fails_the_resume() {
        let path = temp_path("damaged");
        let mut w = EventWriter::create_range(&path, 0, 2, 1).unwrap();
        w.submit(0, &block(0, "fpu")).unwrap();
        w.finish().unwrap();
        drop(w);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, format!("not an event\n{text}")).unwrap();
        let err = EventWriter::resume_range(&path, 0, 2, 1).unwrap_err();
        assert!(matches!(err, OpenError::Rejected { line: 1, .. }), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sampling_stride() {
        let path = temp_path("sample");
        let w = EventWriter::create_range(&path, 0, 10, 4).unwrap();
        let sampled: Vec<u64> = (0..10).filter(|&i| w.sampled(i)).collect();
        assert_eq!(sampled, [0, 4, 8]);
        std::fs::remove_file(&path).ok();
    }

    impl EventBuffer {
        /// Test helper: build one event directly.
        fn emit_into(mut self, kind: &str) -> Event {
            self.emit(kind);
            self.take().remove(0)
        }
    }
}
