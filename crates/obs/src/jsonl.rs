//! Crash-consistent append-only JSONL files.
//!
//! Every file radcrit grows one line at a time (checkpoints, event
//! streams, the job and shard journals, the merged stream) is written
//! and recovered through this module, under one rule:
//!
//! * a complete line ends in `\n`; a final fragment without one is a
//!   torn write (the process died mid-append) and is cut on open;
//! * blank lines are skipped;
//! * every other complete line goes, in order, to the format's replay
//!   closure, and a line it rejects fails the open. A kill cannot damage
//!   a newline-terminated line, so that is corruption, not a crash.
//!
//! Flushing is the writer's policy. Nothing fsyncs: a killed process
//! loses at most its unflushed lines, a power loss may lose more.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Why a log could not be opened or replayed.
#[derive(Debug)]
pub enum OpenError {
    /// Reading, creating, truncating or seeking the file failed.
    Io(std::io::Error),
    /// The replay closure refused a complete line.
    Rejected {
        /// 1-based line number of the refused line.
        line: usize,
        /// The closure's reason.
        reason: String,
    },
}

impl fmt::Display for OpenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpenError::Io(e) => write!(f, "{e}"),
            OpenError::Rejected { line, reason } => write!(f, "line {line}: {reason}"),
        }
    }
}

impl From<std::io::Error> for OpenError {
    fn from(e: std::io::Error) -> Self {
        OpenError::Io(e)
    }
}

/// Replays every complete line of `bytes`; returns the length of the
/// complete-line prefix.
fn scan(
    bytes: &[u8],
    mut replay: impl FnMut(&str) -> Result<(), String>,
) -> Result<usize, OpenError> {
    let mut complete = 0;
    for (n, line) in bytes.split_inclusive(|&b| b == b'\n').enumerate() {
        let Some(body) = line.strip_suffix(b"\n") else {
            break; // torn tail
        };
        complete += line.len();
        let rejected = |reason: String| OpenError::Rejected {
            line: n + 1,
            reason,
        };
        let body = std::str::from_utf8(body).map_err(|e| rejected(e.to_string()))?;
        if !body.trim().is_empty() {
            replay(body).map_err(rejected)?;
        }
    }
    Ok(complete)
}

/// Replays the complete lines of the file at `path` without modifying
/// it: the read-only half of [`AppendLog::open`].
///
/// # Errors
///
/// [`OpenError::Io`] when the file cannot be read (a missing file
/// included); [`OpenError::Rejected`] for the first line `replay`
/// refuses.
pub fn replay(
    path: &Path,
    replay: impl FnMut(&str) -> Result<(), String>,
) -> Result<(), OpenError> {
    scan(&std::fs::read(path)?, replay).map(drop)
}

/// An append handle on a JSONL file with no torn tail.
#[derive(Debug)]
pub struct AppendLog {
    out: BufWriter<File>,
}

impl AppendLog {
    /// Creates (truncating) an empty log at `path`.
    ///
    /// # Errors
    ///
    /// Any I/O error creating the file.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        Ok(AppendLog {
            out: BufWriter::new(File::create(path)?),
        })
    }

    /// Opens the log at `path`, creating it empty when missing: replays
    /// every complete line, cuts a torn tail, and positions the handle
    /// after the last complete line. On error the file is untouched.
    ///
    /// # Errors
    ///
    /// [`OpenError::Io`] on filesystem failures; [`OpenError::Rejected`]
    /// for the first line `replay` refuses.
    pub fn open(
        path: &Path,
        replay: impl FnMut(&str) -> Result<(), String>,
    ) -> Result<Self, OpenError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let complete = scan(&bytes, replay)? as u64;
        file.set_len(complete)?;
        file.seek(SeekFrom::Start(complete))?;
        Ok(AppendLog {
            out: BufWriter::new(file),
        })
    }

    /// Buffers one line, which must not contain `\n`.
    ///
    /// # Errors
    ///
    /// Any I/O error writing out a full buffer.
    pub fn write_line(&mut self, line: &str) -> std::io::Result<()> {
        debug_assert!(!line.contains('\n'), "a record must be one line: {line:?}");
        self.out.write_all(line.as_bytes())?;
        self.out.write_all(b"\n")
    }

    /// Hands every buffered line to the OS.
    ///
    /// # Errors
    ///
    /// Any I/O error writing.
    pub fn flush(&mut self) -> std::io::Result<()> {
        self.out.flush()
    }

    /// Writes one line and flushes: it survives a kill once this returns.
    ///
    /// # Errors
    ///
    /// Any I/O error writing.
    pub fn append(&mut self, line: &str) -> std::io::Result<()> {
        self.write_line(line)?;
        self.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_path(tag: &str) -> std::path::PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "radcrit_obs_jsonl_{tag}_{}_{}.jsonl",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn open_collect(path: &Path) -> (AppendLog, Vec<String>) {
        let mut lines = Vec::new();
        let log = AppendLog::open(path, |l| {
            lines.push(l.to_owned());
            Ok(())
        })
        .unwrap();
        (log, lines)
    }

    #[test]
    fn every_byte_offset_recovers_the_complete_line_prefix() {
        let path = temp_path("offsets");
        let written = ["{\"a\":1}", "{\"b\":\"é\"}", "{\"c\":[1,2,3]}"];
        {
            let mut log = AppendLog::create(&path).unwrap();
            for l in written {
                log.append(l).unwrap();
            }
        }
        let full = std::fs::read(&path).unwrap();
        for k in 0..=full.len() {
            std::fs::write(&path, &full[..k]).unwrap();
            let complete = full[..k].iter().filter(|&&b| b == b'\n').count();
            let (mut log, lines) = open_collect(&path);
            assert_eq!(lines, written[..complete], "cut at byte {k}");
            log.append("{\"extra\":true}").unwrap();
            drop(log);
            let (_, lines) = open_collect(&path);
            let mut expected: Vec<&str> = written[..complete].to_vec();
            expected.push("{\"extra\":true}");
            assert_eq!(lines, expected, "reopen after cut at byte {k}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn blank_lines_are_skipped_and_a_rejected_line_fails_untouched() {
        let path = temp_path("reject");
        let text = "one\n\n  \nbad\nthree\ntorn";
        std::fs::write(&path, text).unwrap();
        let mut seen = Vec::new();
        let err = AppendLog::open(&path, |l| {
            seen.push(l.to_owned());
            if l == "bad" {
                Err("nope".into())
            } else {
                Ok(())
            }
        })
        .unwrap_err();
        assert!(
            matches!(&err, OpenError::Rejected { line: 4, reason } if reason == "nope"),
            "{err:?}"
        );
        assert_eq!(seen, ["one", "bad"]);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn read_only_replay_keeps_the_torn_tail_and_needs_the_file() {
        let path = temp_path("readonly");
        std::fs::write(&path, "a\nb\nto").unwrap();
        let mut seen = Vec::new();
        replay(&path, |l| {
            seen.push(l.to_owned());
            Ok(())
        })
        .unwrap();
        assert_eq!(seen, ["a", "b"]);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "a\nb\nto");
        std::fs::remove_file(&path).ok();
        assert!(matches!(replay(&path, |_| Ok(())), Err(OpenError::Io(_))));
    }
}
