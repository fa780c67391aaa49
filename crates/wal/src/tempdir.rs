//! Minimal scoped temporary directory (avoids an external `tempfile`
//! dependency). Used by file-log tests and the real-time runtimes.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::{fs, io};

static COUNTER: AtomicU64 = AtomicU64::new(0);

/// A directory under the system temp root, removed recursively on drop.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Create a fresh directory whose name starts with `prefix`.
    pub fn new(prefix: &str) -> io::Result<TempDir> {
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("acp-{prefix}-{}-{n}", std::process::id()));
        fs::create_dir_all(&path)?;
        Ok(TempDir { path })
    }

    /// The directory path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn creates_and_removes() {
        let kept;
        {
            let d = TempDir::new("t").unwrap();
            kept = d.path().to_path_buf();
            assert!(kept.is_dir());
            std::fs::write(kept.join("x"), b"y").unwrap();
        }
        assert!(!kept.exists());
    }

    #[test]
    fn distinct_paths() {
        let a = TempDir::new("t").unwrap();
        let b = TempDir::new("t").unwrap();
        assert_ne!(a.path(), b.path());
    }
}
