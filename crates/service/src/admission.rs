//! Bounded admission queues with explicit load shedding.
//!
//! PRs 1–2 fed each shard from an unbounded channel: an open-loop
//! arrival rate above shard capacity grew the queue (and p99) without
//! bound instead of failing fast. This module is the admission
//! discipline that replaces them: every per-shard queue is a
//! [`GatedSender`]/[`GatedReceiver`] pair around the channel, gated by
//! an [`AdmissionBudget`] on **queue depth** (ops sent but not yet
//! picked up by a reactor) and **queued payload bytes**. A send that
//! would exceed either budget is rejected with a typed [`Overload`]
//! error — the op is *shed*, the caller reports it per-request, and the
//! queue keeps its bound.
//!
//! Shedding happens at the sender (the service dispatcher), so reactors
//! never see shed ops and FIFO order within a shard is untouched: the
//! channel delivers admitted ops in send order. The gate also tracks
//! the high-water queue depth and a shed counter, which surface in
//! `ServiceReport` so saturation benches can report goodput, shed rate
//! and peak depth together.
//!
//! Two disciplines ride on one gate: **queries shed**
//! ([`GatedSender::try_send`] / [`GatedSender::reserve`] — a rejected
//! query is a complete, reportable outcome), while **writes
//! backpressure** ([`GatedSender::send_blocking`] — the mixed op
//! stream's id arithmetic cannot survive a dropped write, so a full
//! write queue stalls the dispatcher instead; memory stays bounded
//! either way). A service sets **one** [`AdmissionBudget`] value and
//! every queue — each replica's read queue, each shard's write queue —
//! gets its own gate under it: the queues share the bound, not the
//! count. A shed op's [`Overload`] error carries a
//! [`Overload::retry_after`] backoff hint derived from the gate's
//! observed drain rate.
//!
//! Invariants (model-checked in `crates/service/tests/batch_dedup.rs`):
//!
//! * depth ≤ `max_depth` and queued bytes ≤ `max_bytes` at all times;
//! * an op is shed **iff** admitting it would break a budget;
//! * admitted ops pop in FIFO order;
//! * `peak_depth` is the exact high-water mark of admitted depth.

use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvError, RecvTimeoutError, Sender, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Typed load-shedding error: the op was rejected at admission because
/// the shard's queue budget was exhausted. The fields snapshot the
/// queue at rejection time (racy under concurrent pops — diagnostics,
/// not invariants).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Overload {
    /// Shard whose budget rejected the op.
    pub shard: usize,
    /// Queue depth observed at rejection.
    pub depth: usize,
    /// Queued payload bytes observed at rejection.
    pub queued_bytes: usize,
    /// Client backoff hint in seconds: the estimated time until the
    /// queue has drained enough to admit an op like this one, derived
    /// from the gate's observed drain rate (pops per second since the
    /// gate was created). A well-behaved client retries no earlier; the
    /// wire protocol forwards it to network clients. Clamped to
    /// [`Overload::MIN_RETRY_AFTER`]..[`Overload::MAX_RETRY_AFTER`]
    /// (the fallback before any pop has been observed is the maximum).
    /// Exception: a shut-down session sheds with `f64::INFINITY` —
    /// there is nothing left to retry against (see
    /// [`CLIENT_THROTTLE_SHARD`](crate::session::CLIENT_THROTTLE_SHARD)).
    pub retry_after: f64,
}

impl Overload {
    /// Floor of the [`Overload::retry_after`] hint (an instantly
    /// retrying client would just re-shed).
    pub const MIN_RETRY_AFTER: f64 = 50e-6;
    /// Ceiling of the hint (also the cold-start fallback while the
    /// gate has not observed a single pop yet).
    pub const MAX_RETRY_AFTER: f64 = 50e-3;
}

impl fmt::Display for Overload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "shard {} overloaded: {} ops / {} bytes queued (retry after {:.1} ms)",
            self.shard,
            self.depth,
            self.queued_bytes,
            self.retry_after * 1e3
        )
    }
}

impl std::error::Error for Overload {}

/// Admission budget of one queue; a service applies one value to every
/// read and write queue it owns. `usize::MAX` disables a limit; the
/// default is fully unbounded (the PR-1/PR-2 behaviour: nothing is ever
/// shed, queues grow with offered load).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdmissionBudget {
    /// Maximum ops queued (sent, not yet picked up by a reactor or
    /// writer).
    pub max_depth: usize,
    /// Maximum queued payload bytes (sum of the per-op cost the
    /// dispatcher charges: the query/insert point bytes — a failover
    /// re-dispatch included — or the id bytes of a delete).
    pub max_bytes: usize,
}

impl AdmissionBudget {
    /// No limits: nothing is ever shed.
    pub const UNBOUNDED: Self = Self {
        max_depth: usize::MAX,
        max_bytes: usize::MAX,
    };

    /// Bound queue depth only.
    pub fn depth(max_depth: usize) -> Self {
        Self {
            max_depth,
            max_bytes: usize::MAX,
        }
    }
}

impl Default for AdmissionBudget {
    fn default() -> Self {
        Self::UNBOUNDED
    }
}

/// Counters one gate accumulated over its lifetime.
#[derive(Clone, Copy, Debug, Default)]
pub struct GateStats {
    /// High-water mark of admitted queue depth.
    pub peak_depth: usize,
    /// Ops rejected with [`Overload`].
    pub shed: u64,
}

/// Shared state of one shard's gate.
struct Gate {
    depth: AtomicUsize,
    bytes: AtomicUsize,
    peak_depth: AtomicUsize,
    shed: AtomicU64,
    /// Ops popped by receivers over the gate's lifetime — the drain
    /// counter behind the [`Overload::retry_after`] hint.
    popped: AtomicU64,
    /// When the gate was created (drain-rate reference point).
    started: Instant,
    budget: AdmissionBudget,
    shard: usize,
}

impl Gate {
    /// Backoff hint for an op rejected at `depth`: how long until the
    /// queue, draining at its observed lifetime rate, frees the slots
    /// this op needs. Conservative cold-start fallback (no pops
    /// observed yet): the maximum hint.
    fn retry_after(&self, depth: usize) -> f64 {
        let popped = self.popped.load(Ordering::Relaxed);
        let elapsed = self.started.elapsed().as_secs_f64();
        if popped == 0 || elapsed <= 0.0 {
            return Overload::MAX_RETRY_AFTER;
        }
        let drain_rate = popped as f64 / elapsed; // ops per second
        let slots_needed = (depth + 1).saturating_sub(self.budget.max_depth).max(1);
        (slots_needed as f64 / drain_rate)
            .clamp(Overload::MIN_RETRY_AFTER, Overload::MAX_RETRY_AFTER)
    }

    /// Reserve one op of `cost` bytes; fails (and undoes the tentative
    /// reservation) when a budget would be exceeded. `count_shed`
    /// distinguishes a real shed from a backpressure probe that will
    /// retry.
    fn reserve(&self, cost: usize, count_shed: bool) -> Result<(), Overload> {
        let depth = self.depth.fetch_add(1, Ordering::AcqRel) + 1;
        let bytes = self.bytes.fetch_add(cost, Ordering::AcqRel) + cost;
        if depth > self.budget.max_depth || bytes > self.budget.max_bytes {
            self.depth.fetch_sub(1, Ordering::AcqRel);
            self.bytes.fetch_sub(cost, Ordering::AcqRel);
            if count_shed {
                self.shed.fetch_add(1, Ordering::Relaxed);
            }
            return Err(Overload {
                shard: self.shard,
                depth: depth - 1,
                queued_bytes: bytes - cost,
                retry_after: self.retry_after(depth - 1),
            });
        }
        // `peak_depth` is bumped at *send* time, not here: a fan-out
        // reservation can still be rolled back, and a rolled-back op
        // was never admitted.
        Ok(())
    }

    /// Admit one op regardless of budgets, but only into an **empty**
    /// queue — the escape hatch for an op whose cost exceeds the whole
    /// byte budget (or any op under a zero depth bound), which could
    /// otherwise never be admitted at all. The queue holds at most
    /// this one oversize op, so memory stays bounded.
    fn force_reserve_when_empty(&self, cost: usize) -> bool {
        if self
            .depth
            .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            self.bytes.fetch_add(cost, Ordering::AcqRel);
            true
        } else {
            false
        }
    }

    fn unreserve(&self, cost: usize) {
        self.depth.fetch_sub(1, Ordering::AcqRel);
        self.bytes.fetch_sub(cost, Ordering::AcqRel);
    }

    /// A receiver popped an op: release its budget and count the drain
    /// (fan-out rollbacks go through [`Gate::unreserve`] instead — a
    /// rolled-back reservation was never queued, so it must not inflate
    /// the drain rate).
    fn release_popped(&self, cost: usize) {
        self.unreserve(cost);
        self.popped.fetch_add(1, Ordering::Relaxed);
    }
}

/// Sending half of a bounded shard queue; cloneable.
pub struct GatedSender<T> {
    tx: Sender<(T, usize)>,
    gate: Arc<Gate>,
}

impl<T> Clone for GatedSender<T> {
    fn clone(&self) -> Self {
        Self {
            tx: self.tx.clone(),
            gate: Arc::clone(&self.gate),
        }
    }
}

/// Receiving half of a bounded shard queue — the one consumer of its
/// queue (a `std::sync::mpsc` receiver, so not cloneable; each replica's
/// reactor and each shard's writer owns its own). A successful receive
/// releases the op's budget — depth counts ops *waiting*, not ops in
/// service (in-service work is already bounded by the reactor's slot
/// count). Once every [`GatedSender`] is gone, the ops still queued pop
/// first and only then does a receive report disconnection.
pub struct GatedReceiver<T> {
    rx: Receiver<(T, usize)>,
    gate: Arc<Gate>,
}

/// Create a bounded admission queue for `shard` under `budget`.
pub fn gated<T>(shard: usize, budget: AdmissionBudget) -> (GatedSender<T>, GatedReceiver<T>) {
    let gate = Arc::new(Gate {
        depth: AtomicUsize::new(0),
        bytes: AtomicUsize::new(0),
        peak_depth: AtomicUsize::new(0),
        shed: AtomicU64::new(0),
        popped: AtomicU64::new(0),
        started: Instant::now(),
        budget,
        shard,
    });
    let (tx, rx) = channel();
    (
        GatedSender {
            tx,
            gate: Arc::clone(&gate),
        },
        GatedReceiver { rx, gate },
    )
}

impl<T> GatedSender<T> {
    /// Admit one op of `cost` payload bytes, or shed it with
    /// [`Overload`]. Panics if every receiver is gone (reactors outlive
    /// the dispatcher by construction).
    pub fn try_send(&self, item: T, cost: usize) -> Result<(), Overload> {
        self.reserve(cost)?;
        self.send_reserved(item, cost);
        Ok(())
    }

    /// Reserve budget without sending — the all-or-nothing fan-out
    /// primitive: a query must be admitted by *every* shard or by none
    /// (a partial fan-out would leave its merge accumulator waiting
    /// forever). Reserve on each shard in order; on the first
    /// rejection, [`GatedSender::unreserve`] the earlier shards and
    /// shed the query.
    pub fn reserve(&self, cost: usize) -> Result<(), Overload> {
        self.gate.reserve(cost, true)
    }

    /// **Backpressure** send: block (sleeping briefly between probes)
    /// until the op fits the budget, then enqueue it. For ops that can
    /// be *delayed* but never *dropped* — the write path: the mixed op
    /// stream assigns insert ids by stream position and deletes
    /// reference ids inserted earlier, so shedding one write would
    /// desynchronize the dispatcher's arithmetic id assignment from
    /// the shard updater's positional one for every later write on the
    /// shard. Queue memory stays bounded; the *dispatcher* stalls
    /// instead (open-loop latencies still count the stall — they are
    /// measured from the scheduled arrival). Does not count as a shed.
    ///
    /// An op that could never fit even an empty queue (cost above the
    /// whole byte budget, or a zero depth bound) waits for the queue to
    /// drain and is then admitted *alone* as a one-op overrun — blocked
    /// forever would be the unbounded-queue hang wearing a new hat.
    pub fn send_blocking(&self, item: T, cost: usize) {
        let never_fits = cost > self.gate.budget.max_bytes || self.gate.budget.max_depth == 0;
        loop {
            let admitted = if never_fits {
                self.gate.force_reserve_when_empty(cost)
            } else {
                self.gate.reserve(cost, false).is_ok()
            };
            if admitted {
                self.send_reserved(item, cost);
                return;
            }
            std::thread::sleep(Duration::from_micros(20));
        }
    }

    /// Reserve like [`GatedSender::reserve`] but without counting a
    /// shed on failure — for retrying callers (failover re-dispatch)
    /// whose rejection is a backpressure probe, not an outcome.
    pub(crate) fn reserve_uncounted(&self, cost: usize) -> Result<(), Overload> {
        self.gate.reserve(cost, false)
    }

    /// Undo a [`GatedSender::reserve`] that will not be sent.
    pub fn unreserve(&self, cost: usize) {
        self.gate.unreserve(cost);
    }

    /// Send an op whose budget was already reserved. Books the peak
    /// queue depth here — at this point the reservation is committed
    /// (never rolled back), so `peak_depth` counts exactly the ops
    /// that were admitted.
    pub fn send_reserved(&self, item: T, cost: usize) {
        // Sample before the send: the current depth still includes this
        // op's reservation, and a receiver cannot pop it earlier.
        self.gate
            .peak_depth
            .fetch_max(self.gate.depth.load(Ordering::Acquire), Ordering::AcqRel);
        self.tx.send((item, cost)).expect("receivers alive");
    }

    /// Current queue depth (racy; diagnostics only).
    pub fn depth(&self) -> usize {
        self.gate.depth.load(Ordering::Acquire)
    }

    /// Lifetime counters of this queue's gate.
    pub fn stats(&self) -> GateStats {
        GateStats {
            peak_depth: self.gate.peak_depth.load(Ordering::Acquire),
            shed: self.gate.shed.load(Ordering::Relaxed),
        }
    }

    /// A statistics-only view of this queue's gate, detached from the
    /// channel: holding one keeps the counters readable without keeping
    /// the queue connected (a live `GatedSender` clone would), so a
    /// session can report peak depths after shutdown closed its queues.
    pub fn stats_handle(&self) -> GateHandle {
        GateHandle {
            gate: Arc::clone(&self.gate),
        }
    }
}

/// Statistics-only handle onto a gate (see
/// [`GatedSender::stats_handle`]). Cannot send; does not keep the
/// queue's channel alive.
#[derive(Clone)]
pub struct GateHandle {
    gate: Arc<Gate>,
}

impl GateHandle {
    /// Current queue depth (racy; diagnostics only).
    pub fn depth(&self) -> usize {
        self.gate.depth.load(Ordering::Acquire)
    }

    /// Lifetime counters of the gate.
    pub fn stats(&self) -> GateStats {
        GateStats {
            peak_depth: self.gate.peak_depth.load(Ordering::Acquire),
            shed: self.gate.shed.load(Ordering::Relaxed),
        }
    }
}

impl<T> GatedReceiver<T> {
    /// Non-blocking receive; releases the op's budget on success.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        self.rx.try_recv().map(|(item, cost)| {
            self.gate.release_popped(cost);
            item
        })
    }

    /// Blocking receive; releases the op's budget on success.
    pub fn recv(&self) -> Result<T, RecvError> {
        self.rx.recv().map(|(item, cost)| {
            self.gate.release_popped(cost);
            item
        })
    }

    /// Timed receive; releases the op's budget on success.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        self.rx.recv_timeout(timeout).map(|(item, cost)| {
            self.gate.release_popped(cost);
            item
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_budget_sheds_and_recovers() {
        let (tx, rx) = gated::<u32>(3, AdmissionBudget::depth(2));
        tx.try_send(1, 8).unwrap();
        tx.try_send(2, 8).unwrap();
        let err = tx.try_send(3, 8).unwrap_err();
        assert_eq!(err.shard, 3);
        assert_eq!(err.depth, 2);
        assert_eq!(tx.depth(), 2);
        // Queues share the budget value, not the count: another queue
        // under the same budget admits while this one is full.
        let (other, _other_rx) = gated::<u32>(3, AdmissionBudget::depth(2));
        other.try_send(9, 8).unwrap();
        assert_eq!(rx.try_recv(), Ok(1)); // FIFO + budget release
        tx.try_send(4, 8).unwrap();
        assert_eq!(rx.try_recv(), Ok(2));
        assert_eq!(rx.try_recv(), Ok(4));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        let s = tx.stats();
        assert_eq!(s.peak_depth, 2);
        assert_eq!(s.shed, 1);
    }

    #[test]
    fn byte_budget_sheds_independently_of_depth() {
        let (tx, rx) = gated::<u8>(
            0,
            AdmissionBudget {
                max_depth: usize::MAX,
                max_bytes: 100,
            },
        );
        tx.try_send(0, 60).unwrap();
        tx.try_send(1, 40).unwrap();
        assert!(tx.try_send(2, 1).is_err(), "101 bytes exceeds the budget");
        rx.try_recv().unwrap();
        tx.try_send(3, 60).unwrap();
    }

    #[test]
    fn reserve_unreserve_roundtrip() {
        let (tx, _rx) = gated::<u8>(0, AdmissionBudget::depth(1));
        tx.reserve(4).unwrap();
        assert!(tx.reserve(4).is_err());
        tx.unreserve(4);
        tx.reserve(4).unwrap();
        assert_eq!(tx.depth(), 1);
    }

    #[test]
    fn rolled_back_reservation_never_counts_toward_peak() {
        let (tx, _rx) = gated::<u8>(0, AdmissionBudget::depth(4));
        tx.reserve(8).unwrap();
        tx.unreserve(8); // fan-out rollback: the op was never admitted
        assert_eq!(tx.stats().peak_depth, 0);
        tx.try_send(1, 8).unwrap();
        assert_eq!(tx.stats().peak_depth, 1);
    }

    #[test]
    fn oversize_op_is_admitted_alone_not_hung() {
        // cost > max_bytes can never fit a conforming queue; it must be
        // admitted alone once the queue is empty instead of spinning
        // forever.
        let (tx, rx) = gated::<u8>(
            0,
            AdmissionBudget {
                max_depth: usize::MAX,
                max_bytes: 4,
            },
        );
        tx.send_blocking(1, 100); // empty queue: forced through
        assert_eq!(tx.depth(), 1);
        assert!(
            tx.try_send(2, 1).is_err(),
            "the overrun saturates the byte budget"
        );
        assert_eq!(rx.try_recv(), Ok(1)); // budget fully released
        tx.try_send(3, 4).unwrap();
        // Zero depth bound: same escape hatch.
        let (tx0, rx0) = gated::<u8>(1, AdmissionBudget::depth(0));
        tx0.send_blocking(9, 1);
        assert_eq!(rx0.try_recv(), Ok(9));
    }

    #[test]
    fn retry_after_hint_is_sane() {
        let (tx, rx) = gated::<u32>(0, AdmissionBudget::depth(1));
        tx.try_send(1, 8).unwrap();
        // Cold gate: no pop observed yet — conservative maximum hint.
        let cold = tx.try_send(2, 8).unwrap_err();
        assert_eq!(cold.retry_after, Overload::MAX_RETRY_AFTER);
        // After a pop the hint derives from the observed drain rate and
        // stays within the clamp.
        rx.try_recv().unwrap();
        tx.try_send(3, 8).unwrap();
        let warm = tx.try_send(4, 8).unwrap_err();
        assert!(warm.retry_after >= Overload::MIN_RETRY_AFTER);
        assert!(warm.retry_after <= Overload::MAX_RETRY_AFTER);
    }

    // The channel contract the callers rely on: the reactor loop, the
    // writers and the collector exit on disconnection, and the net pump
    // drains every completion before it does (DESIGN §15).

    #[test]
    fn disconnected_queue_pops_fifo_then_reports_disconnection() {
        let (tx, rx) = gated::<u32>(0, AdmissionBudget::depth(8));
        let tx2 = tx.clone();
        tx.try_send(1, 8).unwrap();
        tx2.try_send(2, 8).unwrap();
        tx.try_send(3, 8).unwrap();
        let gate = tx.stats_handle();
        drop((tx, tx2));
        assert_eq!(gate.depth(), 3);
        assert_eq!(rx.try_recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv_timeout(Duration::from_secs(1)), Ok(3));
        assert_eq!(gate.depth(), 0, "every pop released its budget");
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        assert_eq!(rx.recv(), Err(RecvError));
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(1)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn blocked_recv_wakes_when_the_last_sender_drops() {
        // std cannot report whether a receiver is parked, so rounds 0..3
        // give it time to park first and the rest race the drop against
        // its way into the wait. Either order must end in `Err`.
        for round in 0..64 {
            let (tx, rx) = gated::<u32>(0, AdmissionBudget::UNBOUNDED);
            let tx2 = tx.clone();
            let (done_tx, done_rx) = channel();
            let receiver = std::thread::spawn(move || done_tx.send(rx.recv()).unwrap());
            if round < 3 {
                std::thread::sleep(Duration::from_millis(20));
            }
            drop(tx);
            drop(tx2); // the last sender
            assert_eq!(
                done_rx.recv_timeout(Duration::from_secs(10)),
                Ok(Err(RecvError)),
                "round {round}: a parked receiver must wake on disconnection"
            );
            receiver.join().unwrap();
        }
    }

    #[test]
    fn recv_timeout_on_an_empty_connected_queue_times_out() {
        let (tx, rx) = gated::<u32>(0, AdmissionBudget::UNBOUNDED);
        let t0 = Instant::now();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(20)),
            Err(RecvTimeoutError::Timeout)
        );
        assert!(t0.elapsed() >= Duration::from_millis(20));
        tx.try_send(5, 8).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(20)), Ok(5));
    }

    #[test]
    fn unbounded_never_sheds() {
        let (tx, _rx) = gated::<usize>(0, AdmissionBudget::UNBOUNDED);
        for i in 0..10_000 {
            tx.try_send(i, 1 << 20).unwrap();
        }
        assert_eq!(tx.stats().shed, 0);
        assert_eq!(tx.stats().peak_depth, 10_000);
    }
}
