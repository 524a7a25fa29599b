//! A simulated device array shared by a shard's replica reactors.
//!
//! The paper's Figure 16 observation — thread throughput scales with CPU
//! until the storage array's total IOPS caps it — only reproduces when
//! the replicas contend for *one* device array. [`SharedSimArray`] wraps a
//! [`SimStorage`] in a mutex and hands each replica's reactor a
//! [`SharedSimHandle`] implementing [`Device`]; the array routes each
//! completion back to the handle that submitted it (tags are only unique
//! per handle, so the wrapper re-tags in-flight I/Os with a global
//! sequence number).
//!
//! Timing: the underlying model runs in virtual seconds, but the service
//! drives it with wall-clock `now` values (seconds since the service
//! epoch), so modeled service times play out in real time — queries
//! block until the modeled completion timestamp passes on the wall
//! clock.

use e2lsh_storage::device::sim::SimStorage;
use e2lsh_storage::device::{Device, DeviceStats, IoCompletion, IoRequest};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

struct Routed {
    /// wrapper sequence tag → (owner handle, original tag)
    owners: HashMap<u64, (usize, u64)>,
    /// Completions drained from the sim, waiting for their owner's poll.
    ready: Vec<Vec<IoCompletion>>,
    inflight: Vec<usize>,
    seq: u64,
    sim: SimStorage,
}

impl Routed {
    /// Pull everything the sim has finished by `now` into the per-owner
    /// queues.
    fn drain(&mut self, now: f64, scratch: &mut Vec<IoCompletion>) {
        scratch.clear();
        self.sim.poll(now, scratch);
        for mut comp in scratch.drain(..) {
            let (owner, tag) = self
                .owners
                .remove(&comp.tag)
                .expect("completion for unknown tag");
            comp.tag = tag;
            self.inflight[owner] -= 1;
            self.ready[owner].push(comp);
        }
    }
}

/// A shared simulated device array; create once per shard, then
/// [`SharedSimArray::handle`] per replica reactor.
pub struct SharedSimArray {
    inner: Arc<Mutex<Routed>>,
    num_handles: usize,
}

impl SharedSimArray {
    /// Share `sim` between `num_handles` replica reactors.
    pub fn new(sim: SimStorage, num_handles: usize) -> Self {
        assert!(num_handles >= 1);
        Self {
            inner: Arc::new(Mutex::new(Routed {
                owners: HashMap::new(),
                ready: (0..num_handles).map(|_| Vec::new()).collect(),
                inflight: vec![0; num_handles],
                seq: 0,
                sim,
            })),
            num_handles,
        }
    }

    /// The device handle for handle `id` (`0..num_handles`).
    pub fn handle(&self, id: usize) -> SharedSimHandle {
        assert!(id < self.num_handles);
        SharedSimHandle {
            inner: Arc::clone(&self.inner),
            id,
            scratch: Vec::new(),
        }
    }
}

/// One reactor's view of a [`SharedSimArray`].
pub struct SharedSimHandle {
    inner: Arc<Mutex<Routed>>,
    id: usize,
    scratch: Vec<IoCompletion>,
}

impl Device for SharedSimHandle {
    fn submit(&mut self, req: IoRequest, now: f64) {
        let mut g = self.inner.lock().unwrap();
        g.seq += 1;
        let wrapped = g.seq;
        g.owners.insert(wrapped, (self.id, req.tag));
        g.inflight[self.id] += 1;
        g.sim.submit(
            IoRequest {
                addr: req.addr,
                len: req.len,
                tag: wrapped,
            },
            now,
        );
    }

    fn poll(&mut self, now: f64, out: &mut Vec<IoCompletion>) {
        let mut g = self.inner.lock().unwrap();
        let mut scratch = std::mem::take(&mut self.scratch);
        g.drain(now, &mut scratch);
        self.scratch = scratch;
        out.append(&mut g.ready[self.id]);
    }

    fn next_completion_time(&self) -> Option<f64> {
        let g = self.inner.lock().unwrap();
        // Earliest of: completions already routed to this handle, or the
        // sim's next completion (which may belong to another handle —
        // conservative, the caller just polls again).
        let routed = g.ready[self.id]
            .iter()
            .map(|c| c.time)
            .fold(f64::INFINITY, f64::min);
        let next = g.sim.next_completion_time().unwrap_or(f64::INFINITY);
        let t = routed.min(next);
        (t != f64::INFINITY).then_some(t)
    }

    /// The whole array's: every handle's reads contend for the same
    /// dies.
    fn next_free_time(&self) -> Option<f64> {
        self.inner.lock().unwrap().sim.next_free_time()
    }

    fn wait(&mut self) {}

    fn inflight(&self) -> usize {
        let g = self.inner.lock().unwrap();
        g.inflight[self.id] + g.ready[self.id].len()
    }

    fn read_sync(&mut self, addr: u64, len: u32) -> Vec<u8> {
        self.inner.lock().unwrap().sim.read_sync(addr, len)
    }

    fn stats(&self) -> DeviceStats {
        // Whole-array statistics; the service de-duplicates by reading
        // them from one handle per array.
        self.inner.lock().unwrap().sim.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use e2lsh_storage::device::sim::{Backing, DeviceProfile};

    #[test]
    fn completions_route_to_their_submitter() {
        let sim = SimStorage::new(DeviceProfile::ESSD, 1, Backing::Mem(vec![7u8; 1 << 16]));
        let arr = SharedSimArray::new(sim, 2);
        let mut a = arr.handle(0);
        let mut b = arr.handle(1);
        // Both handles use the same (handle-local) tag.
        a.submit(
            IoRequest {
                addr: 0,
                len: 512,
                tag: 9,
            },
            0.0,
        );
        b.submit(
            IoRequest {
                addr: 512,
                len: 512,
                tag: 9,
            },
            0.0,
        );
        assert_eq!(a.inflight(), 1);
        assert_eq!(b.inflight(), 1);
        let t = a.next_completion_time().unwrap();
        let mut out_a = Vec::new();
        let mut out_b = Vec::new();
        a.poll(t.max(1.0), &mut out_a);
        b.poll(t.max(1.0), &mut out_b);
        assert_eq!(out_a.len(), 1, "a gets exactly its own completion");
        assert_eq!(out_b.len(), 1);
        assert_eq!(out_a[0].tag, 9);
        assert_eq!(out_b[0].tag, 9);
        assert_eq!(a.inflight(), 0);
        assert_eq!(b.inflight(), 0);
    }

    #[test]
    fn foreign_completions_survive_another_handles_poll() {
        let sim = SimStorage::new(DeviceProfile::ESSD, 1, Backing::Mem(vec![0u8; 1 << 16]));
        let arr = SharedSimArray::new(sim, 2);
        let mut a = arr.handle(0);
        let mut b = arr.handle(1);
        b.submit(
            IoRequest {
                addr: 0,
                len: 512,
                tag: 1,
            },
            0.0,
        );
        // Handle a polls past the completion time: b's completion must
        // stay queued for b.
        let mut out = Vec::new();
        a.poll(10.0, &mut out);
        assert!(out.is_empty());
        assert_eq!(b.inflight(), 1, "still owed to b");
        b.poll(10.0, &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn handles_share_the_arrays_next_free_time() {
        let p = DeviceProfile::ESSD;
        let sim = SimStorage::new(p, 1, Backing::Mem(vec![0u8; 1 << 16]));
        let arr = SharedSimArray::new(sim, 2);
        let mut a = arr.handle(0);
        let b = arr.handle(1);
        // Only handle a submits; it books every die twice over.
        for i in 0..2 * p.dies() as u64 {
            a.submit(
                IoRequest {
                    addr: i * 512 % (1 << 16),
                    len: 512,
                    tag: i,
                },
                0.0,
            );
        }
        let free = a.next_free_time().unwrap();
        assert!((free - 2.0 * p.service_time()).abs() < 1e-12);
        assert_eq!(b.next_free_time(), Some(free), "b waits on the same dies");
    }
}
