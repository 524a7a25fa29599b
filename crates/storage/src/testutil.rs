//! Small helpers for tests and examples (not part of the public API).

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static COUNTER: AtomicU64 = AtomicU64::new(0);

/// A unique temporary file path under the system temp directory.
pub fn temp_path(name: &str) -> PathBuf {
    let c = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "e2lshos-{}-{}-{}-{}",
        std::process::id(),
        c,
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos())
            .unwrap_or(0),
        name
    ))
}

/// The seed of the seeded suites: `E2LSH_TEST_SEED` (CI runs three), 11
/// when unset.
pub fn test_seed() -> u64 {
    std::env::var("E2LSH_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(11)
}
