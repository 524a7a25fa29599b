//! Asynchronous E2LSHoS query processing (paper Section 5.4, Figure 10).
//!
//! Each query is a small state machine: per search radius it (1) computes
//! its `L` compound hash values, (2) issues reads for the hash-table slots
//! of the buckets the DRAM occupancy filter cannot prove empty (a blocked
//! Bloom filter: no false negatives, some false positives — counted per
//! query as [`QueryOutcome::wasted_block_reads`]), (3) on each slot
//! completion issues a read for the first bucket block, (4) on each block
//! completion fingerprint-filters the entries, distance-checks the
//! survivors against the DRAM-resident coordinates, and follows the chain
//! pointer while the candidate budget `S` lasts. When all `L` probes of a
//! radius finish, the `(R, c)`-NN success test either ends the query or
//! escalates the radius.
//!
//! Multiple queries are interleaved (the paper's "context switching") so
//! many I/Os are in flight at once, which is what lets flash devices reach
//! their saturated random-read IOPS.
//!
//! The state machine lives in [`QueryDriver`] + [`QueryState`]: the driver
//! holds everything shared across queries (index, coordinates, config,
//! hash scratch), a state holds one in-flight query. Two executors drive
//! it:
//!
//! * [`run_queries`] — the batch executor used by the experiment harness:
//!   a fixed query set, admission from the front of the batch, one device;
//! * the `e2lsh_service` reactor — one long-running loop per replica that
//!   admits queries from a request queue into its own driver and slots.
//!
//! Both are generic over [`Device`], so the same state machine runs
//! against the virtual-time simulated devices (experiments) and against a
//! real index file through the reader-pool [`FileDevice`]
//! (tests, examples).
//!
//! [`FileDevice`]: crate::device::file::FileDevice

use crate::device::{Device, DeviceStats, Interface, IoCompletion, IoRequest};
use crate::engine::CostModel;
use crate::index::StorageIndex;
use crate::layout::{split_hash, BucketBlock, BLOCK_SIZE};
use e2lsh_core::dataset::Dataset;
use e2lsh_core::distance::dist2;
use e2lsh_core::fxhash::FxHashSet;
use e2lsh_core::lsh::hash_v_bits;
use e2lsh_core::search::TopK;
use std::time::Instant;

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Queries processed concurrently (the paper interleaves queries to
    /// raise the queue depth).
    pub contexts: usize,
    /// Maximum outstanding I/Os per query; `L` probes are issued eagerly
    /// up to this limit. 0 means unlimited. Set to 1 together with
    /// [`Interface::MMAP_SYNC`] to model the paper's synchronous
    /// memory-mapped baseline (Section 6.5).
    pub per_query_io_limit: usize,
    /// Storage interface (per-I/O CPU overhead `T_request`, Table 3).
    pub interface: Interface,
    /// CPU cost model; [`CostModel::zero`] for wall-clock runs.
    pub cost: CostModel,
    /// Neighbors to return per query.
    pub k: usize,
    /// Candidate budget override (default `params.s_for_k(k)`).
    pub s_override: Option<usize>,
    /// Radius cap (default: the full schedule).
    pub max_radii: Option<usize>,
    /// Skip I/Os for hash values the occupancy filter proves absent
    /// (paper Section 4.3); disable to measure the unfiltered I/O count.
    pub use_occupancy_filter: bool,
    /// True = virtual-time simulation; false = wall-clock execution.
    pub virtual_time: bool,
}

impl EngineConfig {
    /// Virtual-time configuration with deterministic costs (experiments).
    pub fn simulated(interface: Interface, k: usize) -> Self {
        Self {
            contexts: 64,
            per_query_io_limit: 0,
            interface,
            cost: CostModel::deterministic(),
            k,
            s_override: None,
            max_radii: None,
            use_occupancy_filter: true,
            virtual_time: true,
        }
    }

    /// Wall-clock configuration (real I/O through a [`FileDevice`]).
    ///
    /// [`FileDevice`]: crate::device::file::FileDevice
    pub fn wall_clock(k: usize) -> Self {
        Self {
            contexts: 16,
            per_query_io_limit: 0,
            interface: Interface {
                name: "thread-pool",
                t_request: 0.0,
            },
            cost: CostModel::zero(),
            k,
            s_override: None,
            max_radii: None,
            use_occupancy_filter: true,
            virtual_time: false,
        }
    }

    /// The paper's synchronous baseline: one query at a time, one I/O at a
    /// time, heavyweight per-I/O CPU cost (Section 6.5).
    pub fn synchronous(k: usize) -> Self {
        Self {
            contexts: 1,
            per_query_io_limit: 1,
            interface: Interface::MMAP_SYNC,
            cost: CostModel::deterministic(),
            k,
            s_override: None,
            max_radii: None,
            use_occupancy_filter: true,
            virtual_time: true,
        }
    }
}

/// Per-query results and counters.
#[derive(Clone, Debug, Default)]
pub struct QueryOutcome {
    /// Up to `k` neighbors `(id, distance)`, ascending.
    pub neighbors: Vec<(u32, f32)>,
    /// Hash-table slot reads issued.
    pub table_reads: u32,
    /// Bucket block reads issued.
    pub block_reads: u32,
    /// Radii searched.
    pub radii_searched: u32,
    /// Fingerprint-matching candidates examined (counts toward `S`).
    pub candidates: u32,
    /// Distinct objects distance-checked.
    pub dist_comps: u32,
    /// Entries skipped by the fingerprint check.
    pub fp_rejects: u32,
    /// Bucket-block reads in which no entry passed the fingerprint check
    /// — I/O that could not have produced a candidate. Chains are about
    /// one block long, so this is the number of probes the occupancy
    /// filter let through for nothing (its false positives, or every
    /// probe of an empty bucket when the filter is off), each of which
    /// also cost a slot read.
    pub wasted_block_reads: u32,
    /// Query admission time (seconds, virtual or wall).
    pub start_time: f64,
    /// Query completion time.
    pub finish_time: f64,
}

impl QueryOutcome {
    /// Total I/Os this query issued (`N_IO`).
    pub fn n_io(&self) -> u32 {
        self.table_reads + self.block_reads
    }
}

/// Aggregate batch results.
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// Per-query outcomes in query order.
    pub outcomes: Vec<QueryOutcome>,
    /// End-to-end time for the whole batch (virtual or wall seconds).
    pub makespan: f64,
    /// CPU time spent on computation (hashing, scanning, distances).
    pub cpu_compute: f64,
    /// CPU time spent issuing I/Os (`N_IO · T_request`) — the paper's
    /// "I/O cost" in Figure 12.
    pub cpu_io: f64,
    /// Device-side statistics.
    pub device: DeviceStats,
}

impl BatchReport {
    /// Queries per second over the batch.
    pub fn qps(&self) -> f64 {
        if self.makespan <= 0.0 {
            0.0
        } else {
            self.outcomes.len() as f64 / self.makespan
        }
    }

    /// Mean per-query time (the paper's "query time" under interleaving:
    /// batch time divided by query count).
    pub fn mean_query_time(&self) -> f64 {
        if self.outcomes.is_empty() {
            0.0
        } else {
            self.makespan / self.outcomes.len() as f64
        }
    }

    /// Mean per-query latency (admission → completion).
    pub fn mean_latency(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.outcomes
            .iter()
            .map(|o| o.finish_time - o.start_time)
            .sum::<f64>()
            / self.outcomes.len() as f64
    }

    /// Mean of a per-query counter over the batch (0 for an empty one).
    fn mean_of(&self, counter: impl Fn(&QueryOutcome) -> u32) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.outcomes
            .iter()
            .map(|o| f64::from(counter(o)))
            .sum::<f64>()
            / self.outcomes.len() as f64
    }

    /// Mean I/Os per query (`N_IO` of the cost model).
    pub fn mean_n_io(&self) -> f64 {
        self.mean_of(QueryOutcome::n_io)
    }

    /// Mean radii searched (`r̄` of Table 4).
    pub fn mean_radii(&self) -> f64 {
        self.mean_of(|o| o.radii_searched)
    }

    /// Mean bucket-block reads per query that no entry's fingerprint
    /// matched ([`QueryOutcome::wasted_block_reads`]).
    pub fn mean_wasted_block_reads(&self) -> f64 {
        self.mean_of(|o| o.wasted_block_reads)
    }
}

const KIND_TABLE: u64 = 0;
const KIND_BUCKET: u64 = 1;

#[inline]
fn make_tag(ctx: usize, kind: u64, li: usize) -> u64 {
    ((ctx as u64) << 32) | (kind << 31) | li as u64
}

#[inline]
fn parse_tag(tag: u64) -> (usize, u64, usize) {
    (
        (tag >> 32) as usize,
        (tag >> 31) & 1,
        (tag & 0x7fff_ffff) as usize,
    )
}

/// Context (slot) index encoded in a completion's tag — how an executor
/// routes a completion back to the [`QueryState`] that issued it.
#[inline]
pub fn completion_ctx(comp: &IoCompletion) -> usize {
    parse_tag(comp.tag).0
}

/// Shared engine clock and CPU-time accounting.
///
/// `now` is virtual seconds for simulated devices or seconds since engine
/// start for wall-clock devices; the compute/I/O buckets feed the paper's
/// Figure 12 cost breakdown.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineClock {
    /// Current engine time.
    pub now: f64,
    /// CPU time charged for computation (hashing, scanning, distances).
    pub cpu_compute: f64,
    /// CPU time charged for I/O submission (`N_IO · T_request`).
    pub cpu_io: f64,
}

impl EngineClock {
    #[inline]
    fn charge_compute(&mut self, cost: f64) {
        self.now += cost;
        self.cpu_compute += cost;
    }

    #[inline]
    fn charge_io(&mut self, t_request: f64) {
        self.now += t_request;
        self.cpu_io += t_request;
    }

    /// Advance to a completion's timestamp (time never runs backwards).
    #[inline]
    pub fn observe(&mut self, completion_time: f64) {
        self.now = self.now.max(completion_time);
    }
}

/// One in-flight query's state machine.
///
/// A `QueryState` is a reusable slot: executors allocate `contexts` of
/// them, admit a query into a free slot with [`QueryDriver::admit`], feed
/// completions back via [`QueryDriver::handle_completion`], and harvest
/// the [`QueryOutcome`] when [`QueryState::is_active`] goes false.
pub struct QueryState {
    /// Slot id encoded into I/O tags (see [`completion_ctx`]).
    ctx_id: usize,
    /// Caller-chosen query identifier (batch index or request id).
    qi: usize,
    /// The query point (copied in at admission).
    point: Vec<f32>,
    active: bool,
    radius_idx: usize,
    /// Per-l 32-bit hash value of the query at the current radius
    /// (slot index and fingerprint both derive from it).
    probes: Vec<u64>,
    next_l: usize,
    outstanding: u32,
    examined: usize,
    seen: FxHashSet<u32>,
    topk: TopK,
    out: QueryOutcome,
}

impl QueryState {
    /// A free slot with tag namespace `ctx_id` (must be unique within one
    /// executor's device).
    pub fn new(ctx_id: usize) -> Self {
        Self {
            ctx_id,
            qi: 0,
            point: Vec::new(),
            active: false,
            radius_idx: 0,
            probes: Vec::new(),
            next_l: 0,
            outstanding: 0,
            examined: 0,
            seen: FxHashSet::default(),
            topk: TopK::new(1),
            out: QueryOutcome::default(),
        }
    }

    /// True while the admitted query is still running.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// The identifier passed to [`QueryDriver::admit`].
    #[inline]
    pub fn query_id(&self) -> usize {
        self.qi
    }

    /// I/Os in flight for this query.
    #[inline]
    pub fn outstanding(&self) -> u32 {
        self.outstanding
    }

    /// Harvest the finished query's outcome (call once per query, after
    /// [`QueryState::is_active`] turns false).
    pub fn take_outcome(&mut self) -> QueryOutcome {
        debug_assert!(!self.active, "harvesting a running query");
        std::mem::take(&mut self.out)
    }
}

/// The reusable per-query state machine of the asynchronous engine.
///
/// Holds everything shared across queries — the opened index, the
/// engine configuration and hash scratch space — while each
/// [`QueryState`] carries one query. The DRAM-resident coordinates for
/// distance checks are passed into [`QueryDriver::handle_completion`]
/// per call rather than borrowed for the driver's lifetime, so a
/// serving layer can grow the dataset under a lock between calls
/// (online inserts) while long-lived drivers keep running.
/// [`run_queries`] drives it over a fixed batch; each `e2lsh_service`
/// replica's reactor thread drives one of its own.
pub struct QueryDriver<'a> {
    index: &'a StorageIndex,
    config: EngineConfig,
    num_radii: usize,
    budget: usize,
    io_limit: u32,
    scratch: Vec<i32>,
}

impl<'a> QueryDriver<'a> {
    /// Create a driver for `index`.
    pub fn new(index: &'a StorageIndex, config: &EngineConfig) -> Self {
        assert!(config.k >= 1);
        let params = index.params();
        let num_radii = params
            .num_radii()
            .min(config.max_radii.unwrap_or(usize::MAX));
        let budget = config
            .s_override
            .unwrap_or_else(|| params.s_for_k(config.k));
        let io_limit = if config.per_query_io_limit == 0 {
            u32::MAX
        } else {
            config.per_query_io_limit as u32
        };
        Self {
            index,
            config: config.clone(),
            num_radii,
            budget,
            io_limit,
            scratch: Vec::new(),
        }
    }

    /// The engine configuration this driver runs with.
    #[inline]
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The opened index.
    #[inline]
    pub fn index(&self) -> &StorageIndex {
        self.index
    }

    /// Admit query `qi` with coordinates `point` into the free slot `st`,
    /// issuing its first radius of I/Os. The query may complete
    /// immediately (every probed slot empty): check
    /// [`QueryState::is_active`] afterwards.
    pub fn admit(
        &mut self,
        st: &mut QueryState,
        qi: usize,
        point: &[f32],
        clock: &mut EngineClock,
        device: &mut dyn Device,
    ) {
        debug_assert!(!st.active, "admitting into a busy slot");
        debug_assert_eq!(point.len(), self.index.dim());
        st.qi = qi;
        st.active = true;
        st.radius_idx = 0;
        st.outstanding = 0;
        st.point.clear();
        st.point.extend_from_slice(point);
        st.seen.clear();
        st.topk = TopK::new(self.config.k);
        st.out = QueryOutcome::default();
        st.out.start_time = clock.now;
        self.begin_radius(st, clock);
        self.pump(st, clock, device);
        // A radius may issue nothing (all slots empty): advance.
        self.advance_if_idle(st, clock, device);
    }

    /// Hash the query at the current radius and reset the probe cursor.
    fn begin_radius(&mut self, st: &mut QueryState, clock: &mut EngineClock) {
        let params = self.index.params();
        let family = self.index.family();
        let radius = family.radius(st.radius_idx);
        st.probes.clear();
        for li in 0..params.l {
            let key64 =
                family
                    .compound(st.radius_idx, li)
                    .hash64(&st.point, radius, &mut self.scratch);
            st.probes.push(hash_v_bits(key64, crate::layout::HASH_BITS));
        }
        clock.charge_compute(
            params.l as f64 * self.config.cost.hash_cost(params.m, self.index.dim()),
        );
        st.next_l = 0;
        st.examined = 0;
        st.out.radii_searched += 1;
    }

    /// Issue table reads up to the per-query limit.
    fn pump(&mut self, st: &mut QueryState, clock: &mut EngineClock, device: &mut dyn Device) {
        let geometry = self.index.geometry();
        while st.outstanding < self.io_limit && st.next_l < st.probes.len() {
            let li = st.next_l;
            st.next_l += 1;
            if st.examined >= self.budget {
                // Budget exhausted: stop issuing probes for this radius.
                st.next_l = st.probes.len();
                break;
            }
            let h32 = st.probes[li];
            if self.config.use_occupancy_filter && !self.index.filter_hit(st.radius_idx, li, h32) {
                continue; // provably empty bucket: no I/O (paper Sec. 4.3)
            }
            let (slot, _) = split_hash(h32, geometry.u_bits);
            let addr = geometry.slot_addr(st.radius_idx, li, slot);
            // Read the 512-byte region containing the slot (the device's
            // minimum transfer; the paper counts it as one I/O).
            let aligned = addr & !(BLOCK_SIZE as u64 - 1);
            clock.charge_io(self.config.interface.t_request);
            device.submit(
                IoRequest {
                    addr: aligned,
                    len: BLOCK_SIZE as u32,
                    tag: make_tag(st.ctx_id, KIND_TABLE, li),
                },
                clock.now,
            );
            st.outstanding += 1;
            st.out.table_reads += 1;
        }
    }

    /// When the query has no outstanding I/O, drive it forward: success
    /// check → next radius → … → completion.
    fn advance_if_idle(
        &mut self,
        st: &mut QueryState,
        clock: &mut EngineClock,
        device: &mut dyn Device,
    ) {
        let params = self.index.params();
        loop {
            if !st.active || st.outstanding > 0 {
                return;
            }
            if st.next_l < st.probes.len() && st.examined < self.budget {
                self.pump(st, clock, device);
                if st.outstanding > 0 {
                    return;
                }
                continue;
            }
            // Radius finished: (R, c)-NN success test.
            let radius = self.index.family().radius(st.radius_idx);
            let c_r = params.c * radius;
            let success = st.topk.len() >= self.config.k && st.topk.worst_d2() <= c_r * c_r;
            if success || st.radius_idx + 1 >= self.num_radii {
                // Query complete.
                st.out.finish_time = clock.now;
                let topk = std::mem::replace(&mut st.topk, TopK::new(self.config.k));
                st.out.neighbors = topk.into_sorted();
                st.active = false;
                return;
            }
            st.radius_idx += 1;
            self.begin_radius(st, clock);
            self.pump(st, clock, device);
            if st.outstanding > 0 {
                return;
            }
        }
    }

    /// Run `queries` to completion through caller-owned `slots`,
    /// returning one [`QueryOutcome`] per query in query order.
    ///
    /// This is the batched entry point of the engine: the slots (and
    /// the scratch they carry — probe vectors, dedup sets, top-k heaps)
    /// are **reused across every query of the batch**, and across
    /// *calls* when the caller keeps the slots alive, so serving one
    /// batch costs one `QueryState` allocation amortized over its whole
    /// lifetime instead of one per query. [`run_queries`] wraps this
    /// with freshly allocated slots; request-batching executors (the
    /// service's `query_batch`) hold their slots across requests.
    ///
    /// Slot `ctx_id`s must be unique within `device` and every slot
    /// must be free (`!is_active()`). Panics when `slots` is empty and
    /// `queries` is not.
    pub fn run_batch(
        &mut self,
        slots: &mut [QueryState],
        queries: &Dataset,
        data: &Dataset,
        clock: &mut EngineClock,
        device: &mut dyn Device,
    ) -> Vec<QueryOutcome> {
        assert_eq!(queries.dim(), self.index.dim());
        assert_eq!(data.dim(), self.index.dim());
        let mut outcomes: Vec<QueryOutcome> = vec![QueryOutcome::default(); queries.len()];
        if queries.is_empty() {
            return outcomes;
        }
        assert!(!slots.is_empty(), "run_batch needs at least one slot");
        debug_assert!(slots.iter().all(|s| !s.is_active()), "slots must be free");
        let virtual_time = self.config.virtual_time;
        let mut next_query = 0usize;

        // Admit into slot `ci` until a query stays active or the batch
        // runs dry; harvests instantly-completing queries. (A free fn
        // taking the executor state piecewise keeps the borrow checker
        // happy around `device`.)
        #[allow(clippy::too_many_arguments)]
        fn refill(
            ci: usize,
            slots: &mut [QueryState],
            driver: &mut QueryDriver,
            queries: &Dataset,
            next_query: &mut usize,
            outcomes: &mut [QueryOutcome],
            clock: &mut EngineClock,
            device: &mut dyn Device,
        ) {
            while *next_query < queries.len() && !slots[ci].is_active() {
                let qi = *next_query;
                *next_query += 1;
                driver.admit(&mut slots[ci], qi, queries.point(qi), clock, device);
                if !slots[ci].is_active() {
                    outcomes[qi] = slots[ci].take_outcome();
                }
            }
        }

        for ci in 0..slots.len() {
            refill(
                ci,
                slots,
                self,
                queries,
                &mut next_query,
                &mut outcomes,
                clock,
                device,
            );
        }

        let mut completions: Vec<IoCompletion> = Vec::new();
        loop {
            completions.clear();
            let poll_now = if virtual_time { clock.now } else { f64::MAX };
            device.poll(poll_now, &mut completions);
            if completions.is_empty() {
                if device.inflight() > 0 {
                    if let Some(t) = device.next_completion_time() {
                        clock.observe(t);
                    } else {
                        device.wait();
                    }
                    continue;
                }
                // Nothing in flight anywhere: all queries must be done.
                debug_assert!(slots.iter().all(|s| !s.is_active()));
                break;
            }
            for comp in completions.drain(..) {
                clock.observe(comp.time);
                let ci = completion_ctx(&comp);
                self.handle_completion(&mut slots[ci], &comp, data, clock, device);
                if !slots[ci].is_active() {
                    outcomes[slots[ci].query_id()] = slots[ci].take_outcome();
                    // Slot freed: admit the next query (possibly several
                    // if they complete without I/O).
                    refill(
                        ci,
                        slots,
                        self,
                        queries,
                        &mut next_query,
                        &mut outcomes,
                        clock,
                        device,
                    );
                }
            }
        }
        outcomes
    }

    /// Feed one completion whose tag routes to `st` (the executor
    /// dispatches on [`completion_ctx`]); advance the query as far as it
    /// will go without further completions. Call
    /// [`EngineClock::observe`] with the completion time first.
    ///
    /// `data` supplies the DRAM-resident coordinates for distance
    /// checks (the paper keeps the database in memory; only the hash
    /// index is on storage). An executor serving online updates passes
    /// its current view per call; candidates whose id is not (yet)
    /// covered by `data` — possible only transiently, when an index
    /// entry from a torn concurrent rewrite is decoded — are skipped
    /// rather than distance-checked.
    pub fn handle_completion(
        &mut self,
        st: &mut QueryState,
        comp: &IoCompletion,
        data: &Dataset,
        clock: &mut EngineClock,
        device: &mut dyn Device,
    ) {
        let (ci, kind, li) = parse_tag(comp.tag);
        debug_assert_eq!(ci, st.ctx_id, "completion routed to wrong slot");
        debug_assert!(st.active);
        let geometry = self.index.geometry();
        let codec = self.index.codec();
        st.outstanding -= 1;
        if kind == KIND_TABLE {
            // Extract the 8-byte chain head for this slot.
            let (slot, _) = split_hash(st.probes[li], geometry.u_bits);
            let addr = geometry.slot_addr(st.radius_idx, li, slot);
            let off = (addr & (BLOCK_SIZE as u64 - 1)) as usize;
            let head = u64::from_le_bytes(comp.data[off..off + 8].try_into().expect("slot bytes"));
            clock.charge_compute(self.config.cost.block_fixed);
            if head != 0 && st.examined < self.budget {
                clock.charge_io(self.config.interface.t_request);
                device.submit(
                    IoRequest {
                        addr: head,
                        len: BLOCK_SIZE as u32,
                        tag: make_tag(st.ctx_id, KIND_BUCKET, li),
                    },
                    clock.now,
                );
                st.outstanding += 1;
                st.out.block_reads += 1;
            }
        } else {
            // Bucket block: fingerprint-filter and distance-check.
            let block = BucketBlock::decode(&codec, &comp.data);
            clock.charge_compute(self.config.cost.block_cost(block.entries.len()));
            let (_, fp) = split_hash(st.probes[li], geometry.u_bits);
            let want_fp = fp & codec.fp_mask();
            if st.examined < self.budget {
                let candidates_before = st.out.candidates;
                for &(id, fp) in &block.entries {
                    if st.examined >= self.budget {
                        break;
                    }
                    if fp != want_fp {
                        st.out.fp_rejects += 1;
                        continue;
                    }
                    if id as usize >= data.len() {
                        // No coordinates for this id: a torn read of a
                        // block being rewritten concurrently (or a
                        // half-finished failed insert). Skip it — the
                        // writer publishes coordinates before index
                        // entries, so a real object is never skipped.
                        st.out.fp_rejects += 1;
                        continue;
                    }
                    st.examined += 1;
                    st.out.candidates += 1;
                    if st.seen.insert(id) {
                        st.out.dist_comps += 1;
                        clock.charge_compute(self.config.cost.dist_cost(data.dim()));
                        let d2 = dist2(&st.point, data.point(id as usize));
                        st.topk.offer(id, d2);
                    }
                }
                st.out.wasted_block_reads += u32::from(st.out.candidates == candidates_before);
                if block.next != 0 && st.examined < self.budget {
                    clock.charge_io(self.config.interface.t_request);
                    device.submit(
                        IoRequest {
                            addr: block.next,
                            len: BLOCK_SIZE as u32,
                            tag: make_tag(st.ctx_id, KIND_BUCKET, li),
                        },
                        clock.now,
                    );
                    st.outstanding += 1;
                    st.out.block_reads += 1;
                }
            }
        }
        // Keep the probe pipeline full / finish the radius.
        self.pump(st, clock, device);
        self.advance_if_idle(st, clock, device);
    }
}

/// Run a batch of queries against an opened index.
///
/// `dataset` supplies the DRAM-resident coordinates for distance checks
/// (the paper keeps the database in memory; only the hash index is on
/// storage).
pub fn run_queries(
    index: &StorageIndex,
    dataset: &Dataset,
    queries: &Dataset,
    config: &EngineConfig,
    device: &mut dyn Device,
) -> BatchReport {
    // `dataset` normally covers every indexed id; ids beyond it (burned
    // by failed inserts, or torn concurrent rewrites) are skipped by
    // the per-candidate guard in `handle_completion`.
    assert!(config.contexts >= 1);

    let mut driver = QueryDriver::new(index, config);
    let mut clock = EngineClock::default();
    let wall_start = Instant::now();
    let nctx = config.contexts.min(queries.len().max(1));
    let mut slots: Vec<QueryState> = (0..nctx).map(QueryState::new).collect();
    let outcomes = driver.run_batch(&mut slots, queries, dataset, &mut clock, device);

    let makespan = if config.virtual_time {
        clock.now
    } else {
        wall_start.elapsed().as_secs_f64()
    };
    BatchReport {
        outcomes,
        makespan,
        cpu_compute: clock.cpu_compute,
        cpu_io: clock.cpu_io,
        device: device.stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_roundtrip() {
        for &(ctx, kind, li) in &[
            (0usize, KIND_TABLE, 0usize),
            (63, KIND_BUCKET, 50),
            (1000, KIND_TABLE, 0x7fff_fff0),
            (u32::MAX as usize, KIND_BUCKET, 1),
        ] {
            let tag = make_tag(ctx, kind, li);
            assert_eq!(parse_tag(tag), (ctx, kind, li), "ctx={ctx} li={li}");
        }
    }

    #[test]
    fn batch_report_math() {
        let mk = |start: f64, finish: f64, t: u32, b: u32| QueryOutcome {
            start_time: start,
            finish_time: finish,
            table_reads: t,
            block_reads: b,
            radii_searched: 2,
            ..Default::default()
        };
        let report = BatchReport {
            outcomes: vec![mk(0.0, 1.0, 3, 2), mk(0.5, 2.5, 5, 4)],
            makespan: 4.0,
            cpu_compute: 1.0,
            cpu_io: 0.5,
            device: crate::device::DeviceStats::default(),
        };
        assert_eq!(report.qps(), 0.5);
        assert_eq!(report.mean_query_time(), 2.0);
        assert_eq!(report.mean_latency(), 1.5);
        assert_eq!(report.mean_n_io(), (5.0 + 9.0) / 2.0);
        assert_eq!(report.mean_radii(), 2.0);
        assert_eq!(report.mean_wasted_block_reads(), 0.0);
    }

    #[test]
    fn empty_batch_report_is_safe() {
        let report = BatchReport {
            outcomes: vec![],
            makespan: 0.0,
            cpu_compute: 0.0,
            cpu_io: 0.0,
            device: crate::device::DeviceStats::default(),
        };
        assert_eq!(report.qps(), 0.0);
        assert_eq!(report.mean_query_time(), 0.0);
        assert_eq!(report.mean_latency(), 0.0);
        assert_eq!(report.mean_n_io(), 0.0);
        assert_eq!(report.mean_wasted_block_reads(), 0.0);
    }

    #[test]
    fn config_presets_are_coherent() {
        let sim = EngineConfig::simulated(Interface::SPDK, 5);
        assert!(sim.virtual_time);
        assert_eq!(sim.k, 5);
        assert_eq!(sim.interface.name, "SPDK");
        let wall = EngineConfig::wall_clock(1);
        assert!(!wall.virtual_time);
        assert_eq!(wall.cost.hash_cost(16, 128), 0.0);
        let sync = EngineConfig::synchronous(1);
        assert_eq!(sync.contexts, 1);
        assert_eq!(sync.per_query_io_limit, 1);
        assert!(sync.interface.t_request >= Interface::IO_URING.t_request);
    }

    #[test]
    fn engine_clock_accounting() {
        let mut c = EngineClock::default();
        c.charge_compute(1.0);
        c.charge_io(0.25);
        assert_eq!(c.now, 1.25);
        assert_eq!(c.cpu_compute, 1.0);
        assert_eq!(c.cpu_io, 0.25);
        c.observe(0.5); // earlier completion never rewinds the clock
        assert_eq!(c.now, 1.25);
        c.observe(2.0);
        assert_eq!(c.now, 2.0);
    }

    #[test]
    fn query_state_slot_lifecycle() {
        let mut st = QueryState::new(7);
        assert!(!st.is_active());
        assert_eq!(st.outstanding(), 0);
        st.out.table_reads = 3;
        let out = st.take_outcome();
        assert_eq!(out.table_reads, 3);
        assert_eq!(st.out.table_reads, 0, "outcome is moved out");
    }
}
