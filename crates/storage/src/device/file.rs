//! Real asynchronous file I/O through a worker-thread pool.
//!
//! The paper issues NVMe reads through io_uring / SPDK / the XLFDD
//! interface; this environment has a plain filesystem, so asynchrony is
//! provided by a small pool of worker threads performing positioned reads
//! (`pread`). The submit/poll surface is identical to the simulated
//! devices, so the query engine runs unchanged against real storage —
//! this is what the integration tests and the quickstart example use.

use super::{shared_bytes, Device, DeviceStats, IoCompletion, IoRequest};
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::fs::File;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

enum Job {
    Read { addr: u64, len: u32, tag: u64 },
    Stop,
}

/// Wall-clock asynchronous reader over an index file.
pub struct FileDevice {
    tx: Sender<Job>,
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
        let (tx, job_rx) = unbounded::<Job>();
        let (done_tx, rx) = unbounded::<IoCompletion>();
        let start = Instant::now();
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let job_rx = job_rx.clone();
            let done_tx = done_tx.clone();
            let file = Arc::clone(&file);
            let t0 = start;
            handles.push(std::thread::spawn(move || {
                while let Ok(job) = job_rx.recv() {
                    match job {
                        Job::Stop => break,
                        Job::Read { addr, len, tag } => {
                            let data = shared_bytes(len as usize, |buf| read_at(&file, addr, buf));
                            let time = t0.elapsed().as_secs_f64();
                            // Receiver may be gone during shutdown.
                            let _ = done_tx.send(IoCompletion { tag, data, time });
                        }
                    }
                }
            }));
        }
        Ok(Self {
            tx,
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
        self.tx
            .send(Job::Read {
                addr: req.addr,
                len: req.len,
                tag: req.tag,
            })
            .expect("worker pool alive");
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
        for _ in &self.workers {
            let _ = self.tx.send(Job::Stop);
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}
