//! The host fingerprint printed beside every result, so figures from
//! different machines, compilers or commits are never compared, and the
//! process's peak memory.

use std::path::Path;

/// What a result was measured on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// CPU model name.
    pub cpu: String,
    /// `rustc --version` of the compiler that built the benchmark.
    pub rustc: String,
    /// Commit of the measured checkout (`unknown` outside a git tree).
    pub commit: String,
}

impl Fingerprint {
    /// Probes the running host; `root` is the checkout being measured.
    pub fn probe(root: &Path) -> Self {
        Self {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cpu: cpu_model().unwrap_or_else(|| "unknown".to_owned()),
            rustc: env!("PERFBENCH_RUSTC").to_owned(),
            commit: git_commit(root).unwrap_or_else(|| "unknown".to_owned()),
        }
    }

    /// `(key, value)` pairs for reports.
    pub fn pairs(&self) -> Vec<(&'static str, String)> {
        vec![
            ("nproc", self.nproc.to_string()),
            ("cpu", self.cpu.clone()),
            ("rustc", self.rustc.clone()),
            ("commit", self.commit.clone()),
        ]
    }
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find_map(|line| line.strip_prefix("model name"))
        .and_then(|rest| rest.split_once(':'))
        .map(|(_, model)| model.trim().to_owned())
}

/// Reads `HEAD` from `root/.git` without running git, so nothing
/// outside the checkout is consulted.
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(sha) = std::fs::read_to_string(git.join(reference)) {
        return Some(sha.trim().to_owned());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (sha, name) = line.split_once(' ')?;
        (name == reference).then(|| sha.to_owned())
    })
}

/// Peak resident set size of this process in MB (10^6 bytes), from the
/// kernel's high-water mark.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib * 1024.0 / 1e6)
}
