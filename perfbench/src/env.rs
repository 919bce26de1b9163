//! Host and source context recorded with every run.

use std::path::{Path, PathBuf};

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The process's resident-set high-water mark (`VmHWM`), in MB of 10⁶
/// bytes.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb * 1024.0 / 1e6)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

/// Scratch space for daemon data, spans and the detailed report, inside
/// the directory the benchmark runs from.
pub fn out_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(".bench_out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// A fresh, empty directory under the scratch space.
pub fn fresh_dir(name: &str) -> Result<PathBuf, String> {
    let dir = out_dir()?.join(format!("{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// The git commit when run inside a work tree, else `"none"`.
pub fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "none".to_owned(), |s| s.trim().to_owned())
}

/// FNV-1a digest over the measured program's sources (`crates/`,
/// `vendor/` and the root manifest and lock file), so a run identifies
/// the code it measured even outside a git checkout.
pub fn source_digest() -> String {
    let mut files = Vec::new();
    for root in ["crates", "vendor"] {
        collect(Path::new(root), &mut files);
    }
    files.sort();
    let mut bytes = Vec::new();
    for f in files
        .iter()
        .map(PathBuf::as_path)
        .chain([Path::new("Cargo.toml"), Path::new("Cargo.lock")])
    {
        bytes.extend_from_slice(f.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(f).unwrap_or_default());
    }
    crate::stats::digest(&bytes)
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let path = e.path();
        match e.file_type() {
            Ok(t) if t.is_dir() => collect(&path, out),
            Ok(t) if t.is_file() => out.push(path),
            _ => {}
        }
    }
}

/// Removes this process's scratch directories (daemon and coordinator
/// data), and those of earlier runs that no longer exist; spans and
/// other files stay.
pub fn cleanup() {
    let me = std::process::id().to_string();
    let Ok(entries) = std::fs::read_dir(".bench_out") else {
        return;
    };
    for e in entries.flatten() {
        let name = e.file_name().to_string_lossy().into_owned();
        let Some((_, pid)) = name.rsplit_once('-') else {
            continue;
        };
        let gone = pid.parse::<u32>().is_ok() && !Path::new("/proc").join(pid).exists();
        if (pid == me || gone) && e.path().is_dir() {
            std::fs::remove_dir_all(e.path()).ok();
        }
    }
}
