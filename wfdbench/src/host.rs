//! The host and build facts recorded beside every result, so numbers
//! from different hosts or sources are never compared silently.

use crate::units::fnv1a;
use std::path::Path;

/// Logical CPUs available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU model name from `/proc/cpuinfo`, or `"unknown"`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The compiler that built the benchmark.
pub fn rustc() -> &'static str {
    env!("WFDBENCH_RUSTC_VERSION")
}

/// The commit checked out in the working directory, read from `.git`
/// (a loose ref only), or `"none"` where the sources are not a git
/// checkout; [`source_digest`] identifies the code either way.
pub fn commit() -> String {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(reference) => read(&format!(".git/{reference}")),
            None => Some(head),
        },
        None => None,
    }
    .unwrap_or_else(|| "none".to_string())
}

/// FNV-1a over the program's sources (`Cargo.toml`, `Cargo.lock`, and
/// every `.rs`/`.toml` file under `src/` and `crates/`, in path order),
/// read from the working directory — the repository root. Identifies
/// the code measured even where no commit id is available.
pub fn source_digest() -> String {
    let mut files = Vec::new();
    for dir in ["src", "crates"] {
        collect(Path::new(dir), &mut files);
    }
    files.sort();
    let mut bytes = Vec::new();
    for path in ["Cargo.toml", "Cargo.lock"]
        .iter()
        .map(|p| Path::new(p).to_path_buf())
        .chain(files)
    {
        if let Ok(content) = std::fs::read(&path) {
            bytes.extend_from_slice(path.to_string_lossy().as_bytes());
            bytes.extend_from_slice(&content);
        }
    }
    format!("{:016x}", fnv1a(&bytes))
}

fn collect(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            out.push(path);
        }
    }
}

/// Peak resident set size in MiB (`VmHWM` of `/proc/self/status`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kib| kib.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
