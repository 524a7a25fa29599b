//! Hermetic scratch state: one directory per (process, purpose), removed
//! by a `Drop` guard on success, failure and panic.
//!
//! The directory lives next to the running executable, i.e. inside the
//! cargo target directory — the benchmark may only write inside its own
//! checkout, and the target directory is the one place there that is
//! already ignored by git. Index images are always built fresh into it:
//! an image cached by an earlier commit (`prep::ensure_disk_index`)
//! would hide layout and build changes.

use std::path::{Path, PathBuf};

pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// `<exe dir>/perf-ledger-tmp/<pid>-<name>/`, created empty. The
    /// pid makes concurrent invocations disjoint; `name` keeps the
    /// directories of one process apart.
    pub fn new(name: &str) -> std::io::Result<Self> {
        let base = std::env::current_exe()
            .ok()
            .and_then(|p| p.parent().map(Path::to_path_buf))
            .unwrap_or_else(std::env::temp_dir);
        let path = base
            .join("perf-ledger-tmp")
            .join(format!("{}-{name}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(Self { path })
    }

    #[cfg(test)]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A sub-directory path (not created).
    pub fn join(&self, leaf: &str) -> PathBuf {
        self.path.join(leaf)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // The shared parent goes too once the last run's directory is
        // gone (fails harmlessly while another process still uses it).
        if let Some(parent) = self.path.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn removed_on_drop_and_on_panic() {
        let kept;
        {
            let d = ScratchDir::new("unit-drop").unwrap();
            std::fs::write(d.join("x"), b"1").unwrap();
            kept = d.path().to_path_buf();
            assert!(kept.exists());
        }
        assert!(!kept.exists());

        let seen = std::sync::Arc::new(std::sync::Mutex::new(PathBuf::new()));
        let seen2 = std::sync::Arc::clone(&seen);
        let r = std::thread::spawn(move || {
            let d = ScratchDir::new("unit-panic").unwrap();
            *seen2.lock().unwrap() = d.path().to_path_buf();
            panic!("boom");
        })
        .join();
        assert!(r.is_err());
        let p = seen.lock().unwrap().clone();
        assert!(!p.as_os_str().is_empty() && !p.exists());
    }

    #[test]
    fn distinct_names_do_not_collide() {
        let a = ScratchDir::new("unit-a").unwrap();
        let b = ScratchDir::new("unit-b").unwrap();
        assert_ne!(a.path(), b.path());
        assert!(a.path().exists() && b.path().exists());
    }
}
