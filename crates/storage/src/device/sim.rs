//! Discrete-event storage device model (substitute for the paper's real
//! drives; see `DESIGN.md` §2).
//!
//! A device is a set of `D` parallel service units ("dies"); each I/O
//! occupies one die for a fixed service time `t_s`. By Little's law the
//! model reproduces both calibration points of the paper's Table 2:
//!
//! * queue depth 1 → throughput `1/t_s` (the submitter waits for each
//!   completion, so only one die is ever busy);
//! * large queue depth → throughput `D/t_s`, with per-I/O latency growing
//!   as the queue saturates — exactly the latency-vs-usage trade-off of
//!   the paper's Figure 15.
//!
//! Data is served from a [`Backing`] (RAM image or index file) so the
//! simulated device returns *real* index bytes while its timing comes from
//! the model.

use super::{shared_bytes, Device, DeviceStats, IoCompletion, IoRequest};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fs::File;
use std::path::Path;
use std::sync::Arc;

/// Random-read performance profile of a storage device (paper Table 2,
/// measured at 512-byte reads).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DeviceProfile {
    /// Marketing name.
    pub name: &'static str,
    /// Random-read kIOPS at queue depth 1.
    pub qd1_kiops: f64,
    /// Random-read kIOPS at queue depth 128 (saturation).
    pub max_kiops: f64,
}

impl DeviceProfile {
    /// Consumer NVMe SSD (KIOXIA XG5): 7.2 → 273 kIOPS.
    pub const CSSD: DeviceProfile = DeviceProfile {
        name: "cSSD",
        qd1_kiops: 7.2,
        max_kiops: 273.0,
    };
    /// Enterprise low-latency NVMe SSD (KIOXIA FL6): 27.6 → 1400 kIOPS.
    pub const ESSD: DeviceProfile = DeviceProfile {
        name: "eSSD",
        qd1_kiops: 27.6,
        max_kiops: 1400.0,
    };
    /// XL-FLASH demo drive: 132.3 → 3860 kIOPS.
    pub const XLFDD: DeviceProfile = DeviceProfile {
        name: "XLFDD",
        qd1_kiops: 132.3,
        max_kiops: 3860.0,
    };
    /// 7200 rpm hard disk (reference only in the paper): 0.21 → 0.54 kIOPS.
    pub const HDD: DeviceProfile = DeviceProfile {
        name: "HDD",
        qd1_kiops: 0.21,
        max_kiops: 0.54,
    };

    /// Number of parallel service units: `round(max/qd1)`, at least 1.
    pub fn dies(&self) -> usize {
        ((self.max_kiops / self.qd1_kiops).round() as usize).max(1)
    }

    /// Per-die service time so that `dies / t_s = max_kiops`.
    pub fn service_time(&self) -> f64 {
        self.dies() as f64 / (self.max_kiops * 1e3)
    }
}

/// Where the simulated device gets its bytes.
pub enum Backing {
    /// Whole index image in memory.
    Mem(Vec<u8>),
    /// Index file on the host filesystem, read with `pread`.
    File(File),
}

impl Backing {
    /// Open a file backing.
    pub fn open<P: AsRef<Path>>(path: P) -> std::io::Result<Self> {
        Ok(Backing::File(File::open(path)?))
    }

    /// Read `len` bytes at `addr`. Reads past the end are zero-filled
    /// (reads of the last, partially-written block).
    pub fn read(&self, addr: u64, len: u32) -> Vec<u8> {
        let mut buf = vec![0u8; len as usize];
        self.read_into(addr, &mut buf);
        buf
    }

    /// [`Backing::read`] into shared bytes (a completion's payload). A
    /// read inside a RAM image — every read of the simulated hot path —
    /// is copied straight into its allocation, with no zero-fill first.
    fn read_shared(&self, addr: u64, len: u32) -> Arc<[u8]> {
        if let Backing::Mem(image) = self {
            let start = addr as usize;
            if let Some(bytes) = image.get(start..start.saturating_add(len as usize)) {
                return Arc::from(bytes);
            }
        }
        shared_bytes(len as usize, |buf| self.read_into(addr, buf))
    }

    /// Fill the zeroed `buf` from `addr`.
    fn read_into(&self, addr: u64, buf: &mut [u8]) {
        match self {
            Backing::Mem(image) => {
                let start = (addr as usize).min(image.len());
                let end = (addr as usize + buf.len()).min(image.len());
                if start < end {
                    buf[..end - start].copy_from_slice(&image[start..end]);
                }
            }
            Backing::File(f) => {
                #[cfg(unix)]
                {
                    use std::os::unix::fs::FileExt;
                    let mut read = 0usize;
                    while read < buf.len() {
                        match f.read_at(&mut buf[read..], addr + read as u64) {
                            Ok(0) => break, // EOF: rest stays zero
                            Ok(k) => read += k,
                            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                            Err(e) => panic!("index read failed at {addr}: {e}"),
                        }
                    }
                }
                #[cfg(not(unix))]
                {
                    let mut f2 = f;
                    use std::io::Seek;
                    let _ = f2;
                    unimplemented!("file backing requires unix");
                }
            }
        }
    }
}

/// Totally-ordered f64 for time-ordered heaps.
#[derive(Clone, Copy, PartialEq, Debug)]
struct Time(f64);
impl Eq for Time {}
impl PartialOrd for Time {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Time {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// One device's die-level timing model.
struct DieModel {
    service: f64,
    /// Min-heap of per-die next-free times.
    free_at: BinaryHeap<Reverse<Time>>,
}

impl DieModel {
    fn new(profile: DeviceProfile) -> Self {
        let mut free_at = BinaryHeap::new();
        for _ in 0..profile.dies() {
            free_at.push(Reverse(Time(0.0)));
        }
        Self {
            service: profile.service_time(),
            free_at,
        }
    }

    /// Accept one I/O at `now`; returns `(start, completion)` times.
    fn accept(&mut self, now: f64) -> (f64, f64) {
        // Re-time the earliest-free die in place: one sift, not a pop's
        // and a push's.
        let mut die = self.free_at.peek_mut().expect("dies exist");
        let start = now.max(die.0 .0);
        let done = start + self.service;
        *die = Reverse(Time(done));
        (start, done)
    }

    /// When the earliest-free die frees up: [`DieModel::accept`] starts
    /// any read submitted before then at exactly this time.
    fn next_free(&self) -> f64 {
        self.free_at.peek().expect("dies exist").0 .0
    }
}

/// Pending completion ordered by completion time.
struct Pending {
    done: Time,
    seq: u64,
    tag: u64,
    data: Arc<[u8]>,
}
impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.done == other.done && self.seq == other.seq
    }
}
impl Eq for Pending {}
impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Pending {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.done.cmp(&other.done).then(self.seq.cmp(&other.seq))
    }
}

/// A simulated storage array: one or more identical devices striped over
/// 512-byte blocks, sharing one [`Backing`].
pub struct SimStorage {
    devices: Vec<DieModel>,
    backing: Backing,
    pending: BinaryHeap<Reverse<Pending>>,
    seq: u64,
    stats: DeviceStats,
    profile: DeviceProfile,
}

impl SimStorage {
    /// Create an array of `num_devices` identical devices over `backing`.
    pub fn new(profile: DeviceProfile, num_devices: usize, backing: Backing) -> Self {
        assert!(num_devices >= 1);
        Self {
            devices: (0..num_devices).map(|_| DieModel::new(profile)).collect(),
            backing,
            pending: BinaryHeap::new(),
            seq: 0,
            stats: DeviceStats::default(),
            profile,
        }
    }

    /// The device profile.
    pub fn profile(&self) -> DeviceProfile {
        self.profile
    }

    /// Number of devices in the array.
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    /// Aggregate maximum random-read IOPS of the array.
    pub fn max_iops(&self) -> f64 {
        self.devices.len() as f64 * self.profile.max_kiops * 1e3
    }

    fn route(&self, addr: u64) -> usize {
        ((addr / crate::layout::BLOCK_SIZE as u64) % self.devices.len() as u64) as usize
    }
}

impl Device for SimStorage {
    fn submit(&mut self, req: IoRequest, now: f64) {
        let dev = self.route(req.addr);
        let (start, done) = self.devices[dev].accept(now);
        let data = self.backing.read_shared(req.addr, req.len);
        self.stats.completed += 1;
        self.stats.bytes += u64::from(req.len);
        self.stats.latency_sum += done - now;
        self.stats.busy_sum += done - start;
        self.seq += 1;
        self.pending.push(Reverse(Pending {
            done: Time(done),
            seq: self.seq,
            tag: req.tag,
            data,
        }));
    }

    fn poll(&mut self, now: f64, out: &mut Vec<IoCompletion>) {
        while let Some(Reverse(p)) = self.pending.peek() {
            if p.done.0 > now {
                break;
            }
            let Reverse(p) = self.pending.pop().expect("peeked");
            out.push(IoCompletion {
                tag: p.tag,
                data: p.data,
                time: p.done.0,
            });
        }
    }

    fn next_completion_time(&self) -> Option<f64> {
        self.pending.peek().map(|Reverse(p)| p.done.0)
    }

    /// The earliest time any die of any device in the array is free —
    /// conservative for an array: a read routed to a busier device only
    /// starts later.
    fn next_free_time(&self) -> Option<f64> {
        self.devices
            .iter()
            .map(DieModel::next_free)
            .reduce(f64::min)
    }

    fn wait(&mut self) {}

    fn inflight(&self) -> usize {
        self.pending.len()
    }

    fn read_sync(&mut self, addr: u64, len: u32) -> Vec<u8> {
        self.backing.read(addr, len)
    }

    fn stats(&self) -> DeviceStats {
        self.stats
    }
}

/// Measure the random-read IOPS of a profile at a given queue depth by
/// driving the model directly (regenerates the paper's Table 2).
pub fn measure_iops(profile: DeviceProfile, num_devices: usize, queue_depth: usize) -> f64 {
    let image = vec![0u8; 1 << 20];
    let mut dev = SimStorage::new(profile, num_devices, Backing::Mem(image));
    let total_ios = 20_000usize.max(queue_depth * 50);
    let mut submitted = 0usize;
    let mut completed = 0usize;
    let mut now = 0.0f64;
    let mut out = Vec::new();
    // Simple closed-loop driver with `queue_depth` outstanding I/Os.
    let mut next_addr = 0u64;
    while completed < total_ios {
        while submitted - completed < queue_depth && submitted < total_ios {
            // Spread addresses over devices round-robin like random reads.
            next_addr = next_addr.wrapping_add(512 * 7919);
            dev.submit(
                IoRequest {
                    addr: next_addr % (1 << 30),
                    len: 512,
                    tag: submitted as u64,
                },
                now,
            );
            submitted += 1;
        }
        if let Some(t) = dev.next_completion_time() {
            now = now.max(t);
        }
        out.clear();
        dev.poll(now, &mut out);
        completed += out.len();
    }
    total_ios as f64 / now
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn read(addr: u64, tag: u64) -> IoRequest {
        IoRequest {
            addr,
            len: 512,
            tag,
        }
    }

    /// The read-bound test profile: SATA-class, 5 dies of 139 µs.
    const SATA: DeviceProfile = DeviceProfile {
        name: "sata",
        qd1_kiops: 7.2,
        max_kiops: 36.0,
    };

    /// Modeled (start, done) of `req` submitted at `now`: the die
    /// booking [`Device::submit`] makes for it.
    fn timed_submit(dev: &mut SimStorage, req: IoRequest, now: f64) -> (f64, f64) {
        let d = dev.route(req.addr);
        dev.devices[d].accept(now)
    }

    #[test]
    fn next_free_time_tracks_the_die_backlog() {
        let p = DeviceProfile::CSSD;
        let (dies, service) = (p.dies(), p.service_time());
        let mut dev = SimStorage::new(p, 1, Backing::Mem(vec![0u8; 1 << 16]));
        // Fewer reads than dies in flight: a die is idle now.
        for i in 0..dies as u64 - 1 {
            dev.submit(read(i * 512, i), 1e-3);
            assert!(
                dev.next_free_time().unwrap() <= 1e-3,
                "{i} reads on {dies} dies"
            );
        }
        // k·D reads queued at time 0 book every die k service times out.
        for k in 1..=4 {
            let mut dev = SimStorage::new(p, 1, Backing::Mem(vec![0u8; 1 << 16]));
            for i in 0..(k * dies) as u64 {
                dev.submit(read(i * 512 % (1 << 16), i), 0.0);
            }
            let free = dev.next_free_time().unwrap();
            assert!(
                (free - k as f64 * service).abs() < 1e-12,
                "{k}·D queued: free at {free}, want {}",
                k as f64 * service
            );
        }
    }

    #[test]
    fn next_free_time_is_the_earliest_device_in_an_array() {
        let p = DeviceProfile::CSSD;
        let mut dev = SimStorage::new(p, 2, Backing::Mem(vec![0u8; 1 << 16]));
        // Back up device 0 only (even blocks route there).
        for i in 0..3 * p.dies() as u64 {
            dev.submit(read(2 * i * 512 % (1 << 16), i), 0.0);
        }
        assert_eq!(dev.next_free_time(), Some(0.0), "device 1 is idle");
    }

    proptest! {
        /// The exactness behind a late wake-up: a read submitted anywhere
        /// in `[t, next_free_time]` starts and completes exactly when one
        /// submitted at `t` does.
        #[test]
        fn late_submit_before_next_free_time_keeps_start_and_done(
            backlog in proptest::collection::vec((0u64..128, 0.0f64..2e-3), 0..200),
            devices in 1usize..3,
            t_frac in 0.0f64..1.0,
            late_frac in 0.0f64..1.0,
            addr in 0u64..128,
        ) {
            let build = || {
                let mut dev = SimStorage::new(SATA, devices, Backing::Mem(vec![0u8; 1 << 16]));
                let mut now = 0.0f64;
                for (i, &(block, gap)) in backlog.iter().enumerate() {
                    now += gap / 64.0;
                    dev.submit(read(block * 512, i as u64), now);
                }
                (dev, now)
            };
            let (mut on_time, last) = build();
            let (mut late, _) = build();
            let t = last * t_frac;
            let free = on_time.next_free_time().unwrap();
            let t_late = if free > t { (t + (free - t) * late_frac).min(free) } else { t };
            let want = timed_submit(&mut on_time, read(addr * 512, u64::MAX), t);
            let got = timed_submit(&mut late, read(addr * 512, u64::MAX), t_late);
            prop_assert_eq!(got, want, "submitted at {} instead of {}", t_late, t);
        }
    }

    #[test]
    fn profiles_reproduce_table2_qd1() {
        for p in [
            DeviceProfile::CSSD,
            DeviceProfile::ESSD,
            DeviceProfile::XLFDD,
        ] {
            let iops = measure_iops(p, 1, 1);
            let expect = p.qd1_kiops * 1e3;
            // QD1 throughput equals 1/t_s; with the integer die count the
            // model deviates from the nominal value by < 15%.
            assert!(
                (iops - expect).abs() / expect < 0.15,
                "{}: qd1 {iops} vs {expect}",
                p.name
            );
        }
    }

    #[test]
    fn profiles_reproduce_table2_qd128() {
        for p in [
            DeviceProfile::CSSD,
            DeviceProfile::ESSD,
            DeviceProfile::XLFDD,
            DeviceProfile::HDD,
        ] {
            let iops = measure_iops(p, 1, 128);
            let expect = p.max_kiops * 1e3;
            assert!(
                (iops - expect).abs() / expect < 0.10,
                "{}: qd128 {iops} vs {expect}",
                p.name
            );
        }
    }

    #[test]
    fn multiple_devices_scale_iops() {
        let one = measure_iops(DeviceProfile::CSSD, 1, 128);
        let four = measure_iops(DeviceProfile::CSSD, 4, 512);
        assert!(four > 3.5 * one, "4 devices: {four} vs 1: {one}");
    }

    #[test]
    fn latency_grows_with_queue_depth() {
        let lat = |qd: usize| {
            let image = vec![0u8; 1 << 20];
            let mut dev = SimStorage::new(DeviceProfile::CSSD, 1, Backing::Mem(image));
            let mut now = 0.0;
            let mut out = Vec::new();
            for i in 0..2000u64 {
                dev.submit(
                    IoRequest {
                        addr: (i * 512 * 13) % (1 << 20),
                        len: 512,
                        tag: i,
                    },
                    now,
                );
                if dev.inflight() >= qd {
                    now = dev.next_completion_time().unwrap();
                    dev.poll(now, &mut out);
                }
            }
            dev.stats().mean_latency()
        };
        assert!(lat(256) > 2.0 * lat(4), "latency must grow when saturated");
    }

    #[test]
    fn completions_ordered_and_data_served() {
        let mut image = vec![0u8; 4096];
        image[512..516].copy_from_slice(&[1, 2, 3, 4]);
        let mut dev = SimStorage::new(DeviceProfile::ESSD, 1, Backing::Mem(image));
        dev.submit(
            IoRequest {
                addr: 512,
                len: 512,
                tag: 7,
            },
            0.0,
        );
        let mut out = Vec::new();
        let t = dev.next_completion_time().unwrap();
        assert!(t > 0.0);
        dev.poll(t, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].tag, 7);
        assert_eq!(&out[0].data[..4], &[1, 2, 3, 4]);
        assert_eq!(dev.inflight(), 0);
    }

    #[test]
    fn reads_past_end_zero_filled() {
        let backing = Backing::Mem(vec![9u8; 100]);
        let buf = backing.read(90, 20);
        assert_eq!(&buf[..10], &[9u8; 10]);
        assert_eq!(&buf[10..], &[0u8; 10]);
    }

    #[test]
    fn dies_match_littles_law() {
        assert_eq!(DeviceProfile::CSSD.dies(), 38);
        assert_eq!(DeviceProfile::ESSD.dies(), 51);
        assert_eq!(DeviceProfile::XLFDD.dies(), 29);
        assert!(DeviceProfile::HDD.dies() >= 2);
    }
}
