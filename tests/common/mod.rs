//! A per-test scratch directory for the integration tests.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A fresh directory in the system temp directory, named after the
/// test that made it. It is removed with everything in it when the test
/// passes and kept when the test fails, so the files a failure message
/// names stay for inspection.
pub struct Scratch(PathBuf);

impl Scratch {
    /// Creates `$TMPDIR/bfbp-<test>-<pid>-<n>`, unique per call.
    pub fn new() -> Self {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let thread = std::thread::current();
        let dir = std::env::temp_dir().join(format!(
            "bfbp-{}-{}-{}",
            thread.name().unwrap_or("test").replace("::", "-"),
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Self(dir)
    }

    /// The path of `name` in the directory.
    pub fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}
