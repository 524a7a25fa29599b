//! Set-up and tear-down of the serving stack a workload runs against.
//!
//! Every workload uses the same shape — 2 shards × 1 replica,
//! `ServiceConfig { k, device, inflight_per_replica, .. }` — and names no
//! other configuration field except the two a workload exists to
//! exercise (`maintenance_blocks_per_tick` on `mixed_churn`,
//! `trace_sample` on the traced run). The run-to-completion wrappers
//! (`serve`, `serve_mixed`, `query_batch`), `Load` and `loadgen::*` are
//! deliberately not used: ROADMAP item 2 deletes them.

use crate::data::{picks, stream, Inputs};
use crate::load::{closed_loop, Keep, Op};
use crate::spec::{
    Transport, Workload, INDEX_SEED, INFLIGHT_PER_REPLICA, K, NUM_SHARDS, WARMUP_QUERIES,
};
use e2lsh_core::dataset::Dataset;
use e2lsh_service::{
    Client, DeviceSpec, NetClient, NetServer, NetServerConfig, ServiceConfig, ServiceReport,
    Session, ShardBuildConfig, ShardSet, ShardedService,
};
use std::path::Path;
use std::time::Instant;

/// How the generator thread reaches the service.
pub enum Link {
    InProcess(Client),
    Net(Vec<NetClient>),
}

/// A running service: shard images on disk, a session, optionally a net
/// server, and the generator's link to it.
pub struct Stack {
    svc: ShardedService,
    session: Option<Session>,
    net: Option<NetServer>,
    link: Option<Link>,
    transport: Transport,
}

/// The shape of a serving stack.
#[derive(Clone, Copy)]
pub struct StackSpec {
    pub num_shards: usize,
    pub cache_blocks: usize,
    pub device: DeviceSpec,
    pub maintenance_blocks_per_tick: usize,
    pub transport: Transport,
    pub trace_sample: f64,
}

impl StackSpec {
    pub fn of(w: &Workload, trace_sample: f64) -> Self {
        Self {
            num_shards: NUM_SHARDS,
            cache_blocks: w.cache_blocks,
            device: w.device,
            maintenance_blocks_per_tick: w.maintenance_blocks_per_tick,
            transport: w.transport,
            trace_sample,
        }
    }
}

impl Stack {
    /// `ShardSet::build` + `ShardedService::new` + `start()`
    /// (+ `NetServer::spawn` and the client connections).
    pub fn bring_up(spec: &StackSpec, rows: &Dataset, dir: &Path) -> Self {
        let shards = ShardSet::build(
            rows,
            &ShardBuildConfig {
                num_shards: spec.num_shards,
                seed: INDEX_SEED,
                dir: dir.to_path_buf(),
                cache_blocks: spec.cache_blocks,
                ..Default::default()
            },
            e2lsh_bench::prep::e2lsh_params,
        )
        .expect("shard build");
        let svc = ShardedService::new(
            shards,
            ServiceConfig {
                k: K,
                device: spec.device,
                inflight_per_replica: INFLIGHT_PER_REPLICA,
                maintenance_blocks_per_tick: spec.maintenance_blocks_per_tick,
                trace_sample: spec.trace_sample,
                ..Default::default()
            },
        );
        let mut stack = Self {
            svc,
            session: None,
            net: None,
            link: None,
            transport: spec.transport,
        };
        stack.start_session();
        stack
    }

    fn start_session(&mut self) {
        let session = self.svc.start();
        let link = match self.transport {
            Transport::InProcess => Link::InProcess(session.client()),
            Transport::Net { connections } => {
                let server =
                    NetServer::spawn(&session, NetServerConfig::default()).expect("net server");
                let clients = (0..connections)
                    .map(|_| NetClient::connect(server.addr(), 1).expect("connect"))
                    .collect();
                self.net = Some(server);
                Link::Net(clients)
            }
        };
        self.session = Some(session);
        self.link = Some(link);
    }

    /// Drain and stop the running session (idempotent).
    pub fn stop_session(&mut self) {
        // Clients first (their sockets close), then the server drains
        // its connections, then the session joins its threads.
        self.link = None;
        if let Some(net) = self.net.take() {
            net.shutdown();
        }
        if let Some(session) = self.session.take() {
            session.shutdown();
        }
    }

    /// Drain and stop the running session, then start a fresh one on the
    /// same service (same shard images, same block caches). After this
    /// no writer thread holds an updater, so the images are static.
    pub fn restart_session(&mut self) {
        self.stop_session();
        self.start_session();
    }

    /// [`Stack::restart_session`] onto another transport.
    pub fn restart_over(&mut self, transport: Transport) {
        self.transport = transport;
        self.restart_session();
    }

    pub fn link(&mut self) -> &mut Link {
        self.link.as_mut().expect("session running")
    }

    pub fn session(&self) -> &Session {
        self.session.as_ref().expect("session running")
    }

    pub fn service(&self) -> &ShardedService {
        &self.svc
    }

    /// Session counters so far (with net counters when serving over
    /// TCP).
    pub fn metrics(&self) -> ServiceReport {
        match &self.net {
            Some(net) => net.metrics(),
            None => self.session().metrics(),
        }
    }

    /// Σ shard file bytes.
    pub fn index_bytes(&self) -> u64 {
        self.svc
            .shards()
            .shards()
            .iter()
            .map(|s| std::fs::metadata(&s.path).map_or(0, |m| m.len()))
            .sum()
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        self.stop_session();
        self.svc.shards().cleanup();
    }
}

/// One timed set-up: bring the stack up and run the warm-up epoch.
/// Returns the stack and the seconds it took.
pub fn set_up(
    w: &Workload,
    inputs: &Inputs,
    dir: &Path,
    seed: u64,
    trace_sample: f64,
) -> (Stack, f64) {
    let t = Instant::now();
    let mut stack = Stack::bring_up(&StackSpec::of(w, trace_sample), &inputs.data, dir);
    let warm: Vec<Op> = picks(w, seed, stream::WARMUP, WARMUP_QUERIES)
        .into_iter()
        .map(Op::Read)
        .collect();
    let out = closed_loop(stack.link(), inputs, &warm, w.window, Keep::default());
    assert_eq!(out.failed, 0, "warm-up epoch shed or failed requests");
    (stack, t.elapsed().as_secs_f64())
}
