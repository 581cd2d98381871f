//! The inference service: admission, dynamic batching, the `par`-backed
//! worker pool, and the maintenance thread that keeps the published
//! mapping generation fresh.
//!
//! ## Thread layout
//!
//! * **Clients** (bench load generators, HTTP connection threads) call
//!   [`InferenceService::infer`]: admission control happens inline (reject
//!   on full queue, no blocking push), then the client parks on its
//!   response slot.
//! * **Dispatcher** (`memaging-serve-dispatch`): blocks on the queue's
//!   condvar for the next admitted request, takes up to `max_batch` of the
//!   requests already queued behind it — never across a maintenance
//!   boundary, never waiting for more (work-conserving batching: a lone
//!   request is dispatched at once) — and fans each batch out over the
//!   `par` worker pool. Each worker keeps a persistent software-network
//!   clone (a [`SlotPool`] slot) lazily re-synced to the batch's mapping
//!   generation, forwards its requests one by one in `Eval` mode, and
//!   delivers straight to the response slots.
//! * **Maintenance** (`memaging-serve-maint`): consumes boundary jobs from
//!   the dispatcher, accrues interval wear, publishes the next generation,
//!   and runs the aging-aware live remap *after* publishing so the sweep
//!   overlaps traffic (see [`crate::engine::ServeEngine`]).
//!
//! ## Determinism contract
//!
//! A request's output and the final hardware wear state depend only on
//! the admission sequence (which requests, in which order) — not on the
//! number of worker threads, batch composition (which depends on how
//! requests raced the dispatcher), or wall-clock anything. Per-request forwards are independent (each input
//! is forwarded alone through the worker's network, whose weights come
//! from the request's interval generation), and wear accrues per
//! boundary from the admitted-request *count* alone. The `exp_serve`
//! bench asserts this end to end at 1 vs N threads.

use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;

use memaging_crossbar::CrossbarNetwork;
use memaging_dataset::Dataset;
use memaging_lifetime::WearLedger;
use memaging_nn::Network;
use memaging_obs::Recorder;
use memaging_par::SlotPool;

use crate::config::ServeConfig;
use crate::engine::ServeEngine;
use crate::error::ServeError;
use crate::generation::{GenerationCell, MappingGeneration};
use crate::queue::RequestQueue;
use crate::request::{InferRequest, InferResponse};
use crate::stats::ServeStats;
use crate::worker::{dispatch_batch, form_batch, WorkerCtx};

/// One maintenance-boundary job, sent dispatcher → maintenance.
struct BoundaryJob {
    /// Boundary index = generation id to publish.
    id: u64,
    /// Admitted requests in the interval whose wear this boundary
    /// accrues.
    interval_requests: u64,
    /// `false` on the shutdown flush (no point remapping a stopping
    /// service).
    allow_remap: bool,
}

/// Final report of a shut-down service.
pub struct ServeReport {
    /// The final hardware state (wear, windows, mappings) — the ground
    /// truth the determinism bench asserts on.
    pub network: CrossbarNetwork,
    /// Requests admitted.
    pub admitted: u64,
    /// Requests served to completion.
    pub served: u64,
    /// Requests rejected at admission (queue full).
    pub rejected_full: u64,
    /// Requests expired before dispatch.
    pub expired: u64,
    /// Maintenance boundaries processed.
    pub boundaries: u64,
    /// Aging-triggered live remaps performed.
    pub remaps: u64,
    /// Batches dispatched (a batch serves one or more admitted requests;
    /// under concurrent load this is strictly below `served`).
    pub batches: u64,
    /// The wear-attribution ledger: every unit of tile stress accrued over
    /// the service's lifetime, keyed by cause. Its per-cause totals sum
    /// bit-identically to the `network`'s total stress.
    pub attribution: WearLedger,
}

/// The deployed inference service. See the module docs for the thread
/// layout; create with [`InferenceService::deploy`], stop with
/// [`InferenceService::shutdown`].
pub struct InferenceService {
    queue: Arc<RequestQueue>,
    stats: Arc<ServeStats>,
    generations: Arc<GenerationCell>,
    input_dim: usize,
    recorder: Recorder,
    ledger: Arc<Mutex<WearLedger>>,
    dispatcher: Option<JoinHandle<()>>,
    maintenance: Option<JoinHandle<ServeEngine>>,
}

impl InferenceService {
    /// Deploys `network` (performing the initial aging-aware mapping
    /// against `calib`) and starts the dispatcher and maintenance
    /// threads.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] / [`ServeError::Internal`] from the
    /// initial mapping; thread-spawn failures as
    /// [`ServeError::Internal`].
    pub fn deploy(
        network: CrossbarNetwork,
        calib: Dataset,
        config: ServeConfig,
        recorder: Recorder,
    ) -> Result<InferenceService, ServeError> {
        let stats = Arc::new(ServeStats::with_buckets(config.latency_buckets));
        let (engine, initial) =
            ServeEngine::deploy(network, calib, config, recorder.clone(), Arc::clone(&stats))?;
        let input_dim = engine.input_dim();
        let ledger = engine.ledger();
        let base = engine.software_clone();
        let queue = Arc::new(RequestQueue::new(config.queue_capacity));
        let generations = Arc::new(GenerationCell::default());
        generations.publish(initial);
        crate::worker::declare_serve_histograms(&recorder);

        let (boundary_tx, boundary_rx) = mpsc::channel::<BoundaryJob>();
        let maintenance = {
            let generations = Arc::clone(&generations);
            std::thread::Builder::new()
                .name("memaging-serve-maint".into())
                .spawn(move || maintenance_loop(engine, &boundary_rx, &generations))
                .map_err(|e| ServeError::Internal { reason: e.to_string() })?
        };
        let dispatcher = {
            let queue = Arc::clone(&queue);
            let generations = Arc::clone(&generations);
            let stats = Arc::clone(&stats);
            let recorder = recorder.clone();
            std::thread::Builder::new()
                .name("memaging-serve-dispatch".into())
                .spawn(move || {
                    dispatch_loop(
                        &queue,
                        &generations,
                        &boundary_tx,
                        &stats,
                        &recorder,
                        &base,
                        config,
                    );
                })
                .map_err(|e| ServeError::Internal { reason: e.to_string() })?
        };
        Ok(InferenceService {
            queue,
            stats,
            generations,
            input_dim,
            recorder,
            ledger,
            dispatcher: Some(dispatcher),
            maintenance: Some(maintenance),
        })
    }

    /// Submits one request and blocks until it is served, rejected, or
    /// expired.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadInput`] for a malformed payload (checked before
    /// admission — no sequence number is consumed),
    /// [`ServeError::QueueFull`] when admission control rejects,
    /// [`ServeError::DeadlineExceeded`] when the deadline passes before
    /// dispatch, [`ServeError::Shutdown`] after shutdown began.
    pub fn infer(&self, request: InferRequest) -> Result<InferResponse, ServeError> {
        let stats = &self.stats;
        let (admitted, rejected) = (&stats.admitted, &stats.rejected_full);
        self.queue.submit(request, self.input_dim, admitted, rejected, &self.recorder)
    }

    /// Live serving statistics.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// The currently published mapping generation.
    pub fn current_generation(&self) -> Option<Arc<MappingGeneration>> {
        self.generations.current()
    }

    /// The expected number of input features per request.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Current admission-queue depth.
    pub fn queue_depth(&self) -> usize {
        self.queue.depth()
    }

    /// A snapshot of the wear-attribution ledger.
    pub fn wear_attribution(&self) -> WearLedger {
        self.ledger.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone()
    }

    /// The ledger snapshot rendered as the JSON body of
    /// `GET /wear/attribution`.
    pub fn wear_attribution_json(&self) -> String {
        self.ledger.lock().unwrap_or_else(std::sync::PoisonError::into_inner).to_json()
    }

    /// Stops admission, drains every queued request (each still receives
    /// its response), flushes the final partial interval's wear, joins
    /// all threads, and returns the final report.
    pub fn shutdown(mut self) -> ServeReport {
        self.queue.close();
        if let Some(dispatcher) = self.dispatcher.take() {
            if let Err(payload) = dispatcher.join() {
                std::panic::resume_unwind(payload);
            }
        }
        let engine = match self.maintenance.take().map(JoinHandle::join) {
            Some(Ok(engine)) => engine,
            Some(Err(payload)) => std::panic::resume_unwind(payload),
            None => unreachable!("maintenance thread exists until shutdown"),
        };
        ServeReport {
            network: engine.into_network(),
            admitted: self.stats.admitted.load(Ordering::Relaxed),
            served: self.stats.served.load(Ordering::Relaxed),
            rejected_full: self.stats.rejected_full.load(Ordering::Relaxed),
            expired: self.stats.expired.load(Ordering::Relaxed),
            boundaries: self.stats.boundaries.load(Ordering::Relaxed),
            remaps: self.stats.remaps.load(Ordering::Relaxed),
            batches: self.stats.batches.load(Ordering::Relaxed),
            attribution: self
                .ledger
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .clone(),
        }
    }
}

impl Drop for InferenceService {
    fn drop(&mut self) {
        if self.dispatcher.is_none() && self.maintenance.is_none() {
            return; // Shut down properly.
        }
        self.queue.close();
        if let Some(dispatcher) = self.dispatcher.take() {
            let _ = dispatcher.join();
        }
        if let Some(maintenance) = self.maintenance.take() {
            let _ = maintenance.join();
        }
    }
}

fn dispatch_loop(
    queue: &RequestQueue,
    generations: &GenerationCell,
    boundary_tx: &mpsc::Sender<BoundaryJob>,
    stats: &ServeStats,
    recorder: &Recorder,
    base: &Network,
    config: ServeConfig,
) {
    let interval = config.maintenance_interval;
    let mut pool: SlotPool<WorkerCtx> = SlotPool::new();
    // Boundary `b` accrues interval `b-1`'s wear; generation 0 was
    // published at deploy.
    let mut next_boundary: u64 = 1;
    while let Some(first) = queue.pop_blocking() {
        let batch_interval = first.seq / interval;
        // Requests of the next interval may already be queued, but a batch
        // never crosses the boundary — all its requests share one
        // generation.
        let boundary_seq = (batch_interval + 1) * interval;
        let (batch, linger_us) = form_batch(queue, first, boundary_seq, config.max_batch);
        stats.latency().linger.record(0, linger_us);
        recorder.observe("serve.linger_us", linger_us as f64);
        // Ask maintenance for every generation up to this batch's, then
        // wait for it (normally a single step; the wait only stalls while
        // the boundary job itself runs — never for a remap, which
        // executes after the publish).
        while next_boundary <= batch_interval {
            let job =
                BoundaryJob { id: next_boundary, interval_requests: interval, allow_remap: true };
            if boundary_tx.send(job).is_err() {
                break; // Maintenance died; entries fail below.
            }
            next_boundary += 1;
        }
        let generation = generations.wait_for(batch_interval);
        dispatch_batch(batch, 0, &generation, &mut pool, base, stats, recorder, config.quantized);
    }
    // Queue closed and drained: flush the final partial interval's wear so
    // the reported hardware state covers every admitted request.
    let admitted = queue.admitted();
    let flushed = (next_boundary - 1) * interval;
    if admitted > flushed {
        let job = BoundaryJob {
            id: next_boundary,
            interval_requests: admitted - flushed,
            allow_remap: false,
        };
        let _ = boundary_tx.send(job);
    }
    // Dropping the sender ends the maintenance loop after it has
    // processed every queued job.
}

fn maintenance_loop(
    mut engine: ServeEngine,
    boundary_rx: &mpsc::Receiver<BoundaryJob>,
    generations: &GenerationCell,
) -> ServeEngine {
    while let Ok(job) = boundary_rx.recv() {
        engine.publish_boundary(job.id, job.interval_requests, generations);
        if job.allow_remap {
            // Runs *after* the publish: the sweep overlaps live traffic.
            engine.maybe_remap();
        }
    }
    engine
}
