//! Content-addressed on-disk cache for generated suite traces.
//!
//! Synthetic generation is deterministic, so a `(spec, record count)`
//! pair always produces the same trace — there is no reason to pay the
//! generation cost more than once per machine. The cache stores each
//! generated trace as an ordinary BFBT file under a directory (default
//! `target/trace-cache/`) keyed by [`TraceSpec::fingerprint`], which
//! folds in the generator version so stale entries from an older
//! generator can never be served.
//!
//! Robustness mirrors the sweep journal's torn-write story: entries are
//! written to a temporary file and atomically renamed into place, and a
//! reader that finds a torn or corrupted entry (BFBT self-validates via
//! its footer count and FNV checksum) silently regenerates instead of
//! failing. The cache is therefore safe under concurrent writers and
//! interrupted runs — the worst case is wasted work, never a wrong
//! trace.
//!
//! Callers choose the cache: [`TraceCache::default_location`],
//! [`TraceCache::at`] a directory, or [`TraceCache::disabled`]. The
//! bench binaries map the `BFBP_TRACE_CACHE` variable and the
//! `--trace-cache`/`--no-trace-cache` flags onto these three
//! (`bfbp_bench::cli`).

use std::fs;
use std::io::BufWriter;
use std::path::{Path, PathBuf};

use crate::format::{read_trace_file, TraceWriter};
use crate::record::Trace;
use crate::synth::suite::TraceSpec;

/// How a [`TraceCache::fetch`] obtained its trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheStatus {
    /// Served from a valid on-disk entry; no generation ran.
    Hit,
    /// No entry existed at all (cold miss); the trace was generated
    /// (and stored, best-effort).
    Generated,
    /// An entry existed on disk but failed validation — torn, corrupted,
    /// or mismatched — and was regenerated over. Distinct from
    /// [`CacheStatus::Generated`] so silent corruption recovery is
    /// countable in metrics and event journals.
    Regenerated,
    /// The cache is disabled; the trace was generated and not stored.
    Bypassed,
}

impl CacheStatus {
    /// Stable lower-case keyword for logs and event journals.
    pub fn name(self) -> &'static str {
        match self {
            CacheStatus::Hit => "hit",
            CacheStatus::Generated => "generated",
            CacheStatus::Regenerated => "regenerated",
            CacheStatus::Bypassed => "bypassed",
        }
    }

    /// Whether this fetch ran the synthetic generator.
    pub fn generated(self) -> bool {
        !matches!(self, CacheStatus::Hit)
    }
}

/// A content-addressed trace cache rooted at one directory, or disabled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceCache {
    /// `None` disables the cache entirely.
    dir: Option<PathBuf>,
}

impl TraceCache {
    /// A cache that never reads or writes disk: every fetch generates.
    pub fn disabled() -> Self {
        Self { dir: None }
    }

    /// A cache rooted at an explicit directory (created lazily on the
    /// first store).
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: Some(dir.into()),
        }
    }

    /// A cache at the default location: `trace-cache/` inside the
    /// enclosing cargo `target` directory (found by walking up from the
    /// running executable), falling back to `target/trace-cache` under
    /// the current directory. Every binary and test of one checkout
    /// therefore shares a single cache.
    pub fn default_location() -> Self {
        Self::at(default_dir())
    }

    /// The cache directory, if enabled.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// The on-disk path an entry for `(spec, n_records)` lives at, if
    /// the cache is enabled. The file name embeds the content
    /// fingerprint, so any input change (including a generator-version
    /// bump) addresses a different file and old entries simply go cold.
    pub fn entry_path(&self, spec: &TraceSpec, n_records: usize) -> Option<PathBuf> {
        self.dir.as_ref().map(|dir| {
            dir.join(format!(
                "{}-{:016x}.bfbt",
                spec.name(),
                spec.fingerprint(n_records)
            ))
        })
    }

    /// Returns the trace for `(spec, n_records)`, serving a valid cache
    /// entry when one exists and generating (then storing, best-effort)
    /// otherwise. A torn, corrupted, or mismatched entry is treated as
    /// absent and regenerated — the returned trace is always correct.
    pub fn fetch(&self, spec: &TraceSpec, n_records: usize) -> (Trace, CacheStatus) {
        let Some(path) = self.entry_path(spec, n_records) else {
            return (spec.generate_len(n_records), CacheStatus::Bypassed);
        };
        let existed = path.exists();
        if let Ok(trace) = read_trace_file(&path) {
            // The fingerprint in the file name is the real key; the
            // name/length check only guards against hash collisions and
            // hand-renamed files.
            if trace.name() == spec.name() && trace.len() == n_records {
                return (trace, CacheStatus::Hit);
            }
        }
        let trace = spec.generate_len(n_records);
        if let Err(e) = store_atomically(&path, &trace) {
            // Failing to persist costs future runs time, never
            // correctness; a read-only checkout must still simulate.
            eprintln!(
                "warning: cannot store trace-cache entry {}: {e}",
                path.display()
            );
        }
        let status = if existed {
            CacheStatus::Regenerated
        } else {
            CacheStatus::Generated
        };
        (trace, status)
    }
}

/// Writes `trace` to a temporary sibling of `path` and renames it into
/// place, so concurrent fetchers and interrupted runs can never observe
/// a half-written entry under the final name.
fn store_atomically(path: &Path, trace: &Trace) -> std::io::Result<()> {
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    fs::create_dir_all(dir)?;
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    let result = (|| {
        let file = fs::File::create(&tmp)?;
        let mut writer = TraceWriter::new(BufWriter::new(file), trace.name())
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        for record in trace.records() {
            writer
                .write(record)
                .map_err(|e| std::io::Error::other(e.to_string()))?;
        }
        writer
            .finish()
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// Finds the enclosing cargo `target` directory by walking up from the
/// running executable (benches, tests, and binaries all live somewhere
/// under it); falls back to a relative `target/`.
fn default_dir() -> PathBuf {
    if let Ok(exe) = std::env::current_exe() {
        for ancestor in exe.ancestors() {
            if ancestor.file_name().is_some_and(|n| n == "target") {
                return ancestor.join("trace-cache");
            }
        }
    }
    PathBuf::from("target").join("trace-cache")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::suite;

    fn temp_cache(tag: &str) -> TraceCache {
        let dir = std::env::temp_dir().join(format!(
            "bfbp-trace-cache-test-{}-{tag}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        TraceCache::at(dir)
    }

    fn cleanup(cache: &TraceCache) {
        if let Some(dir) = cache.dir() {
            let _ = fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn cold_then_warm_round_trip() {
        let cache = temp_cache("roundtrip");
        let spec = suite::find("MM2").unwrap();
        let (cold, s1) = cache.fetch(&spec, 2000);
        assert_eq!(s1, CacheStatus::Generated);
        assert!(s1.generated());
        let (warm, s2) = cache.fetch(&spec, 2000);
        assert_eq!(s2, CacheStatus::Hit);
        assert!(!s2.generated());
        assert_eq!(cold, warm);
        assert_eq!(warm, spec.generate_len(2000));
        cleanup(&cache);
    }

    #[test]
    fn corrupted_entry_falls_back_to_regeneration() {
        let cache = temp_cache("corrupt");
        let spec = suite::find("INT1").unwrap();
        let (reference, _) = cache.fetch(&spec, 1500);
        let path = cache.entry_path(&spec, 1500).unwrap();
        // Tear the file: drop the footer so the checksum never
        // validates.
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let (recovered, status) = cache.fetch(&spec, 1500);
        assert_eq!(status, CacheStatus::Regenerated);
        assert!(status.generated());
        assert_eq!(recovered, reference);
        // The repaired entry serves hits again.
        assert_eq!(cache.fetch(&spec, 1500).1, CacheStatus::Hit);
        cleanup(&cache);
    }

    #[test]
    fn lengths_address_distinct_entries() {
        let cache = temp_cache("lengths");
        let spec = suite::find("SERV1").unwrap();
        assert_ne!(
            cache.entry_path(&spec, 1000).unwrap(),
            cache.entry_path(&spec, 2000).unwrap()
        );
        let (a, _) = cache.fetch(&spec, 1000);
        let (b, _) = cache.fetch(&spec, 2000);
        assert_eq!(a.len(), 1000);
        assert_eq!(b.len(), 2000);
        assert_eq!(cache.fetch(&spec, 1000).1, CacheStatus::Hit);
        assert_eq!(cache.fetch(&spec, 2000).1, CacheStatus::Hit);
        cleanup(&cache);
    }

    #[test]
    fn disabled_cache_always_bypasses() {
        let cache = TraceCache::disabled();
        assert!(cache.dir().is_none());
        let spec = suite::find("FP1").unwrap();
        assert!(cache.entry_path(&spec, 1000).is_none());
        let (trace, status) = cache.fetch(&spec, 1000);
        assert_eq!(status, CacheStatus::Bypassed);
        assert_eq!(trace, spec.generate_len(1000));
    }

    #[test]
    fn status_names_are_stable() {
        assert_eq!(CacheStatus::Hit.name(), "hit");
        assert_eq!(CacheStatus::Generated.name(), "generated");
        assert_eq!(CacheStatus::Regenerated.name(), "regenerated");
        assert_eq!(CacheStatus::Bypassed.name(), "bypassed");
    }
}
