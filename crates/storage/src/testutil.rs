//! Small helpers for tests and examples (not part of the public API).

use crate::device::sim::{Backing, DeviceProfile, SimStorage};
use crate::device::{Device, DeviceStats, IoCompletion, IoRequest};
use crate::index::StorageIndex;
use std::path::{Path, PathBuf};
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

/// Assert that every `(radius, table, slot)` chain head of the live
/// index `live` equals the one a handle freshly reopened from `path`
/// loads — the slot directory a writer keeps publishing agrees with the
/// image. `what` names the checkpoint in the failure message.
pub fn assert_directory_matches_image(live: &StorageIndex, path: &Path, what: &str) {
    let mut dev = SimStorage::new(DeviceProfile::ESSD, 1, Backing::open(path).unwrap());
    let image = StorageIndex::open(&mut dev).unwrap();
    let g = live.geometry();
    for ri in 0..g.num_radii {
        for li in 0..g.l {
            for slot in 0..g.slots() {
                assert_eq!(
                    live.head(ri, li, slot),
                    image.head(ri, li, slot),
                    "{what}: live head of ({ri}, {li}, slot {slot}) differs from {}",
                    path.display()
                );
            }
        }
    }
}

/// A device wrapper that panics on any read submitted below `floor` —
/// with `floor = heap_base`, proof that no query reads the superblock,
/// table or filter regions — and counts the reads it passes through.
pub struct ReadFloor<D> {
    inner: D,
    floor: u64,
    submitted: u64,
}

impl<D: Device> ReadFloor<D> {
    /// Wrap `inner`, refusing submitted reads below `floor`.
    pub fn new(inner: D, floor: u64) -> Self {
        Self {
            inner,
            floor,
            submitted: 0,
        }
    }

    /// Reads submitted through this wrapper.
    pub fn submitted(&self) -> u64 {
        self.submitted
    }
}

impl<D: Device> Device for ReadFloor<D> {
    fn submit(&mut self, req: IoRequest, now: f64) {
        assert!(
            req.addr >= self.floor,
            "read of {:#x} below the floor {:#x}",
            req.addr,
            self.floor
        );
        self.submitted += 1;
        self.inner.submit(req, now);
    }

    fn poll(&mut self, now: f64, out: &mut Vec<IoCompletion>) {
        self.inner.poll(now, out);
    }

    fn next_completion_time(&self) -> Option<f64> {
        self.inner.next_completion_time()
    }

    fn next_free_time(&self) -> Option<f64> {
        self.inner.next_free_time()
    }

    fn wait(&mut self) {
        self.inner.wait();
    }

    fn inflight(&self) -> usize {
        self.inner.inflight()
    }

    fn read_sync(&mut self, addr: u64, len: u32) -> Vec<u8> {
        self.inner.read_sync(addr, len)
    }

    fn stats(&self) -> DeviceStats {
        self.inner.stats()
    }
}
