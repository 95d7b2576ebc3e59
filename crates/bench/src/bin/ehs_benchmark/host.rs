//! The host the benchmark runs on, its peak memory, and the benchmark's
//! own output and scratch directories.

use std::path::{Path, PathBuf};

/// Where every file the benchmark writes goes, relative to the
/// repository root it runs from (ignored by git as part of `/target`).
pub const OUT_DIR: &str = "target/ehs-benchmark";

/// Width of the paper workloads' sweep worker pool: two workers, or
/// fewer on a host with fewer CPUs, so no more threads run than CPUs.
pub const PAPER_JOBS: usize = 2;

/// What a result depends on besides the code.
#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub jobs: usize,
}

impl Host {
    pub fn detect() -> Host {
        let nproc = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        Host {
            nproc,
            cpu_model,
            jobs: PAPER_JOBS.min(nproc),
        }
    }
}

/// Restarts the kernel's peak-RSS counter (`VmHWM`) at the current RSS,
/// so a later [`peak_rss_mb`] covers only what ran since. Returns
/// `false` where the kernel offers no reset; the peak then covers the
/// whole process.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size in MiB (`VmHWM`), if the kernel reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Total size of the regular files under `dir`, in bytes.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map(|m| m.len()).unwrap_or(0),
            Err(_) => 0,
        })
        .sum()
}

/// A scratch directory under [`OUT_DIR`], removed when dropped.
pub struct Scratch {
    path: PathBuf,
}

impl Scratch {
    /// Creates `<OUT_DIR>/tmp-<pid>/<name>`, emptying it first.
    pub fn new(name: &str) -> std::io::Result<Scratch> {
        let path = Path::new(OUT_DIR)
            .join(format!("tmp-{}", std::process::id()))
            .join(name);
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(Scratch { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Removes the per-process parent once its last scratch is gone.
        if let Some(parent) = self.path.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_is_detected() {
        let h = Host::detect();
        assert!(h.nproc >= 1);
        assert!((1..=PAPER_JOBS).contains(&h.jobs));
        assert!(!h.cpu_model.is_empty());
    }
}
