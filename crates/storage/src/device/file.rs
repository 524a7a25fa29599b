//! Real asynchronous file I/O through a worker-thread pool.
//!
//! The paper issues NVMe reads through io_uring / SPDK / the XLFDD
//! interface; this environment has a plain filesystem, so asynchrony is
//! provided by a small pool of worker threads performing positioned reads
//! (`pread`). The submit/poll surface is identical to the simulated
//! devices, so the query engine runs unchanged against real storage —
//! this is what the integration tests and the quickstart example use.
//!
//! The workers share one job queue: a `std::sync::mpsc` receiver behind
//! a mutex (std receivers are not cloneable), locked only for the
//! `recv`, never across the `pread`. Dropping the device drops the job
//! sender; each worker's `recv` then returns the reads still queued and
//! after them an error, and the worker exits.

use super::{shared_bytes, Device, DeviceStats, IoCompletion, IoRequest};
use std::fs::File;
use std::path::Path;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One positioned read for the worker pool.
struct Job {
    addr: u64,
    len: u32,
    tag: u64,
}

/// Wall-clock asynchronous reader over an index file.
pub struct FileDevice {
    /// `None` only inside `drop`, which disconnects the pool by taking it.
    tx: Option<Sender<Job>>,
    rx: Receiver<IoCompletion>,
    workers: Vec<std::thread::JoinHandle<()>>,
    file: Arc<File>,
    /// Submitted but not yet handed to the caller via `poll`.
    inflight: usize,
    /// Completions pulled off the channel by `wait`, awaiting `poll`.
    pending_after_wait: Vec<IoCompletion>,
    start: Instant,
    stats: DeviceStats,
}

impl FileDevice {
    /// Open `path` with `workers` reader threads (the effective queue
    /// depth presented to the OS).
    pub fn open<P: AsRef<Path>>(path: P, workers: usize) -> std::io::Result<Self> {
        assert!(workers >= 1);
        let file = Arc::new(File::open(path)?);
        let (tx, job_rx) = channel::<Job>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let (done_tx, rx) = channel::<IoCompletion>();
        let start = Instant::now();
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let job_rx = Arc::clone(&job_rx);
            let done_tx = done_tx.clone();
            let file = Arc::clone(&file);
            let t0 = start;
            handles.push(std::thread::spawn(move || {
                while let Some(Job { addr, len, tag }) = next_job(&job_rx) {
                    let data = shared_bytes(len as usize, |buf| read_at(&file, addr, buf));
                    let time = t0.elapsed().as_secs_f64();
                    // Receiver may be gone during shutdown.
                    let _ = done_tx.send(IoCompletion { tag, data, time });
                }
            }));
        }
        Ok(Self {
            tx: Some(tx),
            rx,
            workers: handles,
            file,
            inflight: 0,
            pending_after_wait: Vec::new(),
            start,
            stats: DeviceStats::default(),
        })
    }
}

/// The pool's next read, or `None` once the device dropped its sender
/// and the queue is empty. The lock is held only while this waits, not
/// while the caller reads.
fn next_job(jobs: &Mutex<Receiver<Job>>) -> Option<Job> {
    let jobs = jobs.lock().expect("no worker panics holding the job queue");
    jobs.recv().ok()
}

/// Fill the zeroed `buf` from `addr`; bytes past the end stay zero.
fn read_at(file: &File, addr: u64, buf: &mut [u8]) {
    #[cfg(unix)]
    {
        use std::os::unix::fs::FileExt;
        let mut read = 0usize;
        while read < buf.len() {
            match file.read_at(&mut buf[read..], addr + read as u64) {
                Ok(0) => break,
                Ok(k) => read += k,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => panic!("read failed at {addr}: {e}"),
            }
        }
    }
    #[cfg(not(unix))]
    {
        let _ = (file, addr, buf);
        unimplemented!("FileDevice requires unix");
    }
}

impl Device for FileDevice {
    fn submit(&mut self, req: IoRequest, _now: f64) {
        self.inflight += 1;
        self.stats.completed += 1;
        self.stats.bytes += u64::from(req.len);
        let job = Job {
            addr: req.addr,
            len: req.len,
            tag: req.tag,
        };
        let tx = self.tx.as_ref().expect("taken only by drop");
        tx.send(job).expect("worker pool alive");
    }

    fn poll(&mut self, _now: f64, out: &mut Vec<IoCompletion>) {
        for c in self.pending_after_wait.drain(..) {
            self.inflight -= 1;
            out.push(c);
        }
        while let Ok(c) = self.rx.try_recv() {
            self.inflight -= 1;
            out.push(c);
        }
    }

    fn next_completion_time(&self) -> Option<f64> {
        None
    }

    fn wait(&mut self) {
        if self.inflight == 0 || !self.pending_after_wait.is_empty() {
            return;
        }
        if let Ok(c) = self.rx.recv() {
            // Still counts as inflight until the caller polls it.
            self.pending_after_wait.push(c);
        }
    }

    fn inflight(&self) -> usize {
        self.inflight
    }

    fn read_sync(&mut self, addr: u64, len: u32) -> Vec<u8> {
        let mut buf = vec![0u8; len as usize];
        read_at(&self.file, addr, &mut buf);
        buf
    }

    fn stats(&self) -> DeviceStats {
        let mut s = self.stats;
        s.latency_sum = self.start.elapsed().as_secs_f64();
        s
    }
}

impl Drop for FileDevice {
    fn drop(&mut self) {
        // Disconnect: every worker drains what is queued, then exits.
        self.tx = None;
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::temp_path;
    use std::path::PathBuf;
    use std::time::Duration;

    const READS: u64 = 256;
    const LEN: u32 = 512;

    /// The byte a pattern file holds at `offset`: 251 is prime, so no
    /// 512-byte read returns another read's bytes.
    fn pattern_byte(offset: u64) -> u8 {
        (offset % 251) as u8
    }

    fn pattern_file(name: &str) -> PathBuf {
        let path = temp_path(name);
        let bytes: Vec<u8> = (0..READS * u64::from(LEN)).map(pattern_byte).collect();
        std::fs::write(&path, bytes).unwrap();
        path
    }

    /// Submits one read of every block, in a scrambled order (97 is
    /// coprime to 256), tagged `block + 1000`.
    fn submit_every_block(dev: &mut FileDevice) {
        for i in 0..READS {
            let block = (i * 97) % READS;
            let req = IoRequest {
                addr: block * u64::from(LEN),
                len: LEN,
                tag: block + 1000,
            };
            dev.submit(req, 0.0);
        }
    }

    #[test]
    fn shared_job_queue_completes_every_read_once_with_its_bytes() {
        let path = pattern_file("file-device-pool");
        let mut dev = FileDevice::open(&path, 4).unwrap();
        submit_every_block(&mut dev);
        let mut seen = vec![false; READS as usize];
        let mut out = Vec::new();
        while dev.inflight() > 0 {
            dev.wait();
            out.clear();
            dev.poll(0.0, &mut out);
            for c in &out {
                let block = c.tag - 1000;
                assert!(block < READS, "unknown tag {}", c.tag);
                assert!(
                    !std::mem::replace(&mut seen[block as usize], true),
                    "tag {} completed twice",
                    c.tag
                );
                let addr = block * u64::from(LEN);
                assert_eq!(c.data.len(), LEN as usize);
                for (k, &b) in c.data.iter().enumerate() {
                    assert_eq!(b, pattern_byte(addr + k as u64), "tag {} byte {k}", c.tag);
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "every read completed");
        std::thread::sleep(Duration::from_millis(20));
        out.clear();
        dev.poll(0.0, &mut out);
        assert!(out.is_empty(), "no completion arrives twice");
        drop(dev);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn drop_with_reads_queued_joins_every_worker() {
        let path = pattern_file("file-device-drop");
        let mut dev = FileDevice::open(&path, 4).unwrap();
        submit_every_block(&mut dev);
        let (done_tx, done_rx) = channel();
        let dropper = std::thread::spawn(move || {
            drop(dev); // joins the four workers
            done_tx.send(()).unwrap();
        });
        assert!(
            done_rx.recv_timeout(Duration::from_secs(10)).is_ok(),
            "dropping the device must join its workers"
        );
        dropper.join().unwrap();
        std::fs::remove_file(&path).unwrap();
    }
}
