//! The router: the deployment's one dispatch loop, and the maintenance
//! loop every replica runs.
//!
//! The dispatcher pops admitted requests in sequence order and routes each
//! **block** (one maintenance interval's worth of consecutive admissions)
//! whole to one replica, so a routed block is exactly one local
//! maintenance interval on its replica. Within the block it forms batches
//! and fans them out over the shared `par` worker pool. With one replica
//! every block goes to replica 0 and the router is the identity.
//!
//! Routing is a pure function of the admission block index and of wear
//! snapshots read from **published mapping generations** — never from the
//! live network state, which maintenance threads mutate concurrently. The
//! dispatcher is each replica's only job producer, so "the newest
//! generation whose boundary job has been sent" is a deterministic read:
//! the replica's cell can never hold a newer one.

use std::sync::{mpsc, Arc, Mutex, PoisonError};

use memaging_nn::Network;
use memaging_obs::Recorder;
use memaging_par::SlotPool;

use crate::config::{FleetConfig, RouterPolicy};
use crate::engine::ServeEngine;
use crate::error::ServeError;
use crate::generation::GenerationCell;
use crate::queue::RequestQueue;
use crate::stats::ServeStats;
use crate::worker::{dispatch_batch, form_batch, WorkerCtx};

/// One job on a replica's maintenance channel.
pub(crate) enum ReplicaJob {
    /// Accrue one local interval's wear and publish the next generation.
    Boundary {
        /// Local boundary index = generation id to publish.
        id: u64,
        /// Admitted requests routed to this replica in the interval.
        interval_requests: u64,
        /// `false` on retire flushes and the shutdown flush.
        allow_remap: bool,
    },
    /// Retire-time background remap: force the aging-aware sweep now and
    /// ack when it finished so the router can rejoin the replica.
    ForceRemap {
        /// Signalled (once) after the remap completes.
        ack: mpsc::Sender<()>,
    },
}

/// A replica's routing lifecycle state.
enum ReplicaState {
    /// In the routing rotation.
    Active,
    /// Drained: a force-remap is running in the background while siblings
    /// absorb the traffic.
    Retiring {
        /// First block at which the router may rejoin the replica.
        until_block: u64,
        /// Completion signal of the background remap; rejoin blocks on it.
        ack: mpsc::Receiver<()>,
    },
}

/// Dispatcher-owned runtime state of one replica.
pub(crate) struct ReplicaRt {
    job_tx: mpsc::Sender<ReplicaJob>,
    generations: Arc<GenerationCell>,
    stats: Arc<ServeStats>,
    /// Stress total of generation 0 — the baseline the measured burn rate
    /// is taken against.
    deploy_stress: f64,
    /// Requests routed to this replica so far.
    routed: u64,
    /// Full blocks routed so far == local maintenance intervals started.
    blocks: u64,
    /// Next local boundary id to send (== highest id sent + 1, so the
    /// newest generation the cell can hold is `next_boundary - 1`).
    next_boundary: u64,
    /// Last refreshed wear snapshot: (generation id, total stress, worst
    /// window fraction). Read only from published generations.
    snap: (u64, f64, f64),
    state: ReplicaState,
    /// Block of the last retire, for the cooldown.
    last_retire_block: Option<u64>,
    retires: u64,
}

/// A point-in-time routing view of one replica, published by the
/// dispatcher at block starts (and once more after the shutdown flush).
/// Rendered by `GET /fleet`.
#[derive(Debug, Clone)]
pub(crate) struct ReplicaView {
    /// `"active"` or `"retiring"`.
    pub(crate) state: &'static str,
    /// Requests routed to the replica (as of the last block start).
    pub(crate) routed: u64,
    /// Blocks (= local maintenance intervals) routed to the replica.
    pub(crate) blocks: u64,
    /// Times the replica has been retired for a background remap.
    pub(crate) retires: u64,
    /// Generation id of the last wear snapshot.
    pub(crate) snapshot_generation: u64,
    /// Total accrued tile stress (seconds) at that snapshot.
    pub(crate) snapshot_stress: f64,
    /// Worst-tile window fraction at that snapshot.
    pub(crate) worst_window_fraction: f64,
    /// When retiring: the first block at which the replica may rejoin.
    pub(crate) rejoin_block: Option<u64>,
}

impl ReplicaRt {
    /// The runtime state of a freshly deployed replica whose generation 0
    /// has stress total `deploy_stress` and worst window fraction
    /// `worst_window_fraction`.
    pub(crate) fn new(
        job_tx: mpsc::Sender<ReplicaJob>,
        generations: Arc<GenerationCell>,
        stats: Arc<ServeStats>,
        deploy_stress: f64,
        worst_window_fraction: f64,
    ) -> Self {
        ReplicaRt {
            job_tx,
            generations,
            stats,
            deploy_stress,
            routed: 0,
            blocks: 0,
            next_boundary: 1,
            snap: (0, deploy_stress, worst_window_fraction),
            state: ReplicaState::Active,
            last_retire_block: None,
            retires: 0,
        }
    }

    pub(crate) fn view(&self) -> ReplicaView {
        let (state, rejoin_block) = match &self.state {
            ReplicaState::Active => ("active", None),
            ReplicaState::Retiring { until_block, .. } => ("retiring", Some(*until_block)),
        };
        ReplicaView {
            state,
            routed: self.routed,
            blocks: self.blocks,
            retires: self.retires,
            snapshot_generation: self.snap.0,
            snapshot_stress: self.snap.1,
            worst_window_fraction: self.snap.2,
            rejoin_block,
        }
    }

    /// Sends boundary jobs up to and including local boundary `last`.
    fn send_boundaries(&mut self, last: u64, interval_requests: u64, allow_remap: bool) {
        while self.next_boundary <= last {
            let job =
                ReplicaJob::Boundary { id: self.next_boundary, interval_requests, allow_remap };
            if self.job_tx.send(job).is_err() {
                break; // Maintenance died; its closed cell fails the waits.
            }
            self.next_boundary += 1;
        }
    }

    /// Deterministic wear snapshot: the newest generation whose boundary
    /// job has been sent. The dispatcher is the cell's only job producer,
    /// so the cell can never hold a newer one — `wait_for` returns exactly
    /// generation `next_boundary - 1` (blocking only while that boundary
    /// itself is still being processed). A dead maintenance thread keeps
    /// the last snapshot.
    fn refresh_snapshot(&mut self) {
        if let Some(generation) = self.generations.wait_for(self.next_boundary - 1) {
            self.snap = (generation.id, generation.total_stress, generation.worst_window_fraction);
        }
    }

    /// Projected stress after absorbing one more block: the snapshot's
    /// stress total plus the measured per-request burn rate (snapshot
    /// stress minus deploy stress, over the requests the snapshot covers)
    /// times the requests routed past the snapshot plus one full block.
    fn projected_stress(&self, quantum: u64) -> f64 {
        let (id, stress, _) = self.snap;
        let covered = id * quantum;
        let rate = if covered > 0 { (stress - self.deploy_stress) / covered as f64 } else { 0.0 };
        let pending = self.routed - covered;
        stress + rate * (pending + quantum) as f64
    }
}

fn publish_view(view: &Mutex<Vec<ReplicaView>>, reps: &[ReplicaRt]) {
    let mut slots = view.lock().unwrap_or_else(PoisonError::into_inner);
    for (slot, rt) in slots.iter_mut().zip(reps) {
        *slot = rt.view();
    }
}

/// The dispatcher: pops admitted requests in sequence order, routes each
/// block whole to one replica, and serves its batches on the shared worker
/// pool.
pub(crate) fn dispatch_loop(
    queue: &RequestQueue,
    mut reps: Vec<ReplicaRt>,
    view: &Mutex<Vec<ReplicaView>>,
    recorder: &Recorder,
    base: &Network,
    config: &FleetConfig,
) {
    let quantum = config.serve.maintenance_interval;
    let mut pool: SlotPool<WorkerCtx> = SlotPool::new();
    let mut current_block: Option<u64> = None;
    let mut target: usize = 0;
    // The target's local interval index for the current block (its block
    // count at the block start).
    let mut local_interval: u64 = 0;
    let mut sticky: usize = 0;
    while let Some(first) = queue.pop_blocking() {
        let block = first.seq / quantum;
        if current_block != Some(block) {
            // Admission sequences are popped in order, so each block's
            // requests are contiguous: one routing decision covers them
            // all.
            current_block = Some(block);
            target = begin_block(block, &mut reps, config, recorder, &mut sticky);
            local_interval = reps[target].blocks;
            reps[target].blocks += 1;
            publish_view(view, &reps);
        }
        // Requests of the next block may already be queued, but a batch
        // never crosses the boundary — all its requests share one
        // generation.
        let boundary_seq = (block + 1) * quantum;
        let (batch, linger_us) = form_batch(queue, first, boundary_seq, config.serve.max_batch);
        let rt = &mut reps[target];
        rt.stats.latency().linger.record(0, linger_us);
        recorder.observe("serve.linger_us", linger_us as f64);
        rt.routed += batch.len() as u64;
        // Ask the target's maintenance thread for every generation up to
        // this block's local interval, then wait for it (normally a single
        // step; the wait only stalls while the boundary job itself runs —
        // never for a remap, which executes after the publish).
        rt.send_boundaries(local_interval, quantum, true);
        let Some(generation) = rt.generations.wait_for(local_interval) else {
            for entry in batch {
                entry.slot.deliver(Err(ServeError::Internal {
                    reason: format!("replica {target} maintenance thread died"),
                }));
            }
            continue;
        };
        dispatch_batch(
            batch,
            target,
            &generation,
            &mut pool,
            base,
            &rt.stats,
            recorder,
            config.serve.quantized,
        );
    }
    // Queue closed and drained: resolve in-flight retires, then flush each
    // replica's final partial interval's wear so the reported hardware
    // state covers every routed request.
    for rt in &mut reps {
        if let ReplicaState::Retiring { ack, .. } =
            std::mem::replace(&mut rt.state, ReplicaState::Active)
        {
            let _ = ack.recv();
        }
        let flushed = (rt.next_boundary - 1) * quantum;
        if rt.routed > flushed {
            rt.send_boundaries(rt.next_boundary, rt.routed - flushed, false);
        }
    }
    publish_view(view, &reps);
    // Dropping the senders ends each maintenance loop after it has
    // processed every queued job.
}

/// Block-start routing: rejoin due replicas, retire the hottest eligible
/// one, and pick the block's target. Every input is deterministic — the
/// block index, dispatcher-local counters, and published-generation
/// snapshots.
fn begin_block(
    block: u64,
    reps: &mut [ReplicaRt],
    config: &FleetConfig,
    recorder: &Recorder,
    sticky: &mut usize,
) -> usize {
    if reps.len() == 1 {
        return 0; // The only replica is never retired.
    }
    let quantum = config.serve.maintenance_interval;
    // 1. Rejoin replicas whose sit-out elapsed, blocking on the remap ack:
    //    a rejoined replica always serves its post-remap state.
    for rt in reps.iter_mut() {
        let due = matches!(&rt.state, ReplicaState::Retiring { until_block, .. } if block >= *until_block);
        if due {
            if let ReplicaState::Retiring { ack, .. } =
                std::mem::replace(&mut rt.state, ReplicaState::Active)
            {
                let _ = ack.recv();
            }
        }
    }
    let mut active: Vec<usize> = reps
        .iter()
        .enumerate()
        .filter(|(_, rt)| matches!(rt.state, ReplicaState::Active))
        .map(|(r, _)| r)
        .collect();
    // 2. Refresh wear snapshots where a decision below needs them.
    let need_snapshots = config.retire_fraction > 0.0
        || (config.router == RouterPolicy::WearBalance && active.len() > 1);
    if need_snapshots {
        for &r in &active {
            reps[r].refresh_snapshot();
        }
    }
    // 3. Retire the hottest eligible active replica (never the last one):
    //    flush its completed intervals so the forced remap sees all
    //    accrued wear, then hand it the remap job and take it out of the
    //    rotation.
    if config.retire_fraction > 0.0 && active.len() > 1 {
        let eligible = active.iter().copied().filter(|&r| {
            let rt = &reps[r];
            rt.snap.0 > 0
                && rt.snap.2 <= config.retire_fraction
                && rt
                    .last_retire_block
                    .is_none_or(|last| block - last >= config.retire_cooldown_blocks)
        });
        let hottest =
            eligible.min_by(|&a, &b| reps[a].snap.2.total_cmp(&reps[b].snap.2).then(a.cmp(&b)));
        if let Some(r) = hottest {
            let rt = &mut reps[r];
            rt.send_boundaries(rt.blocks, quantum, false);
            let (ack_tx, ack_rx) = mpsc::channel();
            if rt.job_tx.send(ReplicaJob::ForceRemap { ack: ack_tx }).is_ok() {
                rt.state = ReplicaState::Retiring {
                    until_block: block + config.retire_blocks,
                    ack: ack_rx,
                };
                rt.last_retire_block = Some(block);
                rt.retires += 1;
                recorder.counter("fleet.retire", 1);
                active.retain(|&a| a != r);
            }
        }
    }
    // 4. Route the block.
    match config.router {
        RouterPolicy::RoundRobin => active[(block % active.len() as u64) as usize],
        RouterPolicy::Sticky => {
            if !active.contains(sticky) {
                *sticky = active[0];
            }
            *sticky
        }
        RouterPolicy::WearBalance => {
            if active.len() == 1 {
                return active[0];
            }
            // Warmup: until every active replica has absorbed a block, the
            // burn rates aren't comparable — deal in index order.
            if let Some(&cold) = active.iter().find(|&&r| reps[r].blocks == 0) {
                return cold;
            }
            // Least projected stress, scanning from a block-rotated start
            // so exact ties don't starve higher indices.
            let start = (block % active.len() as u64) as usize;
            let mut best = active[start];
            let mut best_cost = reps[best].projected_stress(quantum);
            for i in 1..active.len() {
                let r = active[(start + i) % active.len()];
                let cost = reps[r].projected_stress(quantum);
                if cost < best_cost {
                    best = r;
                    best_cost = cost;
                }
            }
            best
        }
    }
}

/// A replica's maintenance loop: the boundary pipeline (wear accrual,
/// generation publish, optional live remap) plus the retire-time
/// force-remap job. Returns the engine once the dispatcher drops the job
/// channel.
pub(crate) fn maintenance_loop(
    mut engine: ServeEngine,
    jobs: &mpsc::Receiver<ReplicaJob>,
    generations: &GenerationCell,
) -> ServeEngine {
    // However this loop ends — drained or unwinding — the cell closes, so
    // a dispatcher waiting on a generation this thread will never publish
    // is released instead of hanging.
    let _close = generations.close_on_drop();
    while let Ok(job) = jobs.recv() {
        match job {
            ReplicaJob::Boundary { id, interval_requests, allow_remap } => {
                engine.publish_boundary(id, interval_requests, generations);
                if allow_remap {
                    // Runs *after* the publish: the sweep overlaps live
                    // traffic on this replica and its siblings.
                    engine.maybe_remap();
                }
            }
            ReplicaJob::ForceRemap { ack } => {
                engine.force_remap();
                let _ = ack.send(());
            }
        }
    }
    engine
}
