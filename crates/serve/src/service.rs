//! The serving service: one admission queue, `N ≥ 1` independent serving
//! replicas (each a full [`ServeEngine`] deployment with its own wear
//! ledger, forecaster, and background remap worker), and the
//! deterministic router in between. A single-replica deployment is the
//! `N = 1` case; [`InferenceService`] is its handle.
//!
//! ## Thread layout
//!
//! * **Clients** (bench load generators, HTTP connection threads) call
//!   [`FleetService::infer`]: admission control happens inline on the
//!   shared queue (reject on full, no blocking push; one global admission
//!   sequence), then the client parks on its response slot.
//! * **Dispatcher** (`memaging-serve-dispatch`) — the router
//!   ([`crate::router`]). Pops admitted requests in sequence order, routes
//!   each block of one maintenance interval whole to one replica, and
//!   takes up to `max_batch` of the requests already queued behind each
//!   popped one — never across a block boundary, never waiting for more
//!   (work-conserving batching: a lone request is dispatched at once). It
//!   fans each batch out over the `par` worker pool; each worker keeps a
//!   persistent software-network clone (a [`SlotPool`] slot) lazily
//!   re-synced to the batch's `(replica, generation)` and delivers
//!   straight to the response slots.
//! * **Maintenance** (`memaging-serve-maint-{r}`, one per replica) —
//!   consumes that replica's boundary jobs (wear accrual, generation
//!   publish, then the optional live remap, so the sweep overlaps
//!   traffic) and retire-time force-remap jobs.
//!
//! ## Determinism contract
//!
//! A request's output, every routing decision, and each replica's final
//! hardware wear state depend only on the admission sequence (which
//! requests, in which order) — not on the number of worker threads, batch
//! composition (which depends on how requests raced the dispatcher), or
//! wall-clock anything. Per-request forwards are independent (each input
//! is forwarded through the worker's network, whose weights come from the
//! request's interval generation), wear accrues per boundary from the
//! routed-request *count* alone, and routing reads only published
//! generations. `exp_serve`, `exp_fleet` and the integration tests assert
//! this end to end at 1 vs N threads.
//!
//! [`SlotPool`]: memaging_par::SlotPool

use std::fmt::Write as _;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

use memaging_crossbar::CrossbarNetwork;
use memaging_dataset::Dataset;
use memaging_lifetime::WearLedger;
use memaging_nn::Network;
use memaging_obs::Recorder;

use crate::config::{FleetConfig, RouterPolicy, ServeConfig};
use crate::engine::ServeEngine;
use crate::error::ServeError;
use crate::generation::GenerationCell;
use crate::queue::RequestQueue;
use crate::request::{InferRequest, InferResponse};
use crate::router::{dispatch_loop, maintenance_loop, ReplicaJob, ReplicaRt, ReplicaView};
use crate::stats::ServeStats;
use crate::worker::declare_serve_histograms;

/// Final report of one replica of a shut-down service.
pub struct ReplicaReport {
    /// Replica id.
    pub replica: usize,
    /// The replica's final hardware state — the ground truth the
    /// determinism bench asserts on.
    pub network: CrossbarNetwork,
    /// Requests served to completion by this replica.
    pub served: u64,
    /// Requests expired before dispatch while routed to this replica.
    pub expired: u64,
    /// Batches dispatched to this replica.
    pub batches: u64,
    /// Local maintenance boundaries processed.
    pub boundaries: u64,
    /// Aging-aware remaps performed (drift-armed and retire-forced).
    pub remaps: u64,
    /// Requests routed to this replica.
    pub routed: u64,
    /// Times the replica was retired for a background remap.
    pub retires: u64,
    /// The replica's wear-attribution ledger. Its per-cause totals sum
    /// bit-identically to the `network`'s total stress; with more than
    /// one replica its tile keys are namespaced by replica id.
    pub attribution: WearLedger,
}

/// Final report of a shut-down service.
pub struct FleetReport {
    /// Requests admitted (one global sequence).
    pub admitted: u64,
    /// Requests rejected at admission (queue full).
    pub rejected_full: u64,
    /// Per-replica reports, indexed by replica id.
    pub replicas: Vec<ReplicaReport>,
}

impl FleetReport {
    /// Service-wide served count.
    pub fn served(&self) -> u64 {
        self.replicas.iter().map(|r| r.served).sum()
    }

    /// Per-replica total accrued stress (seconds), indexed by replica id.
    pub fn stress_per_replica(&self) -> Vec<f64> {
        self.replicas.iter().map(|r| r.network.tile_stress().iter().sum()).collect()
    }

    /// The final `GET /wear/attribution` body: what the live endpoint
    /// renders, over the final ledgers.
    pub fn attribution_json(&self) -> String {
        attribution_json(self.replicas.iter().map(|r| r.attribution.to_json()))
    }

    /// Max/mean ratio of per-replica total stress — the imbalance the
    /// wear-balancing router minimizes (1.0 is perfectly balanced).
    pub fn wear_imbalance(&self) -> f64 {
        let stress = self.stress_per_replica();
        let mean = stress.iter().sum::<f64>() / stress.len().max(1) as f64;
        if mean <= 0.0 {
            return 1.0;
        }
        stress.iter().copied().fold(0.0f64, f64::max) / mean
    }
}

/// The `GET /wear/attribution` body over each replica's ledger JSON: the
/// one ledger itself, or the ledgers of several replicas in a
/// `{"replicas":[...]}` list.
fn attribution_json(mut ledgers: impl ExactSizeIterator<Item = String>) -> String {
    if ledgers.len() == 1 {
        return ledgers.next().expect("one ledger");
    }
    let mut out = String::from("{\"replicas\":[");
    for (r, ledger) in ledgers.enumerate() {
        if r > 0 {
            out.push(',');
        }
        out.push_str(&ledger);
    }
    out.push_str("]}");
    out
}

/// Client-visible handle of one deployed replica.
struct ReplicaHandle {
    stats: Arc<ServeStats>,
    ledger: Arc<Mutex<WearLedger>>,
    maintenance: Option<JoinHandle<ServeEngine>>,
}

/// The deployed serving service: `N ≥ 1` replicas behind one admission
/// queue and the router. Create with [`FleetService::deploy`], stop with
/// [`FleetService::shutdown`]. See the module docs for the thread layout
/// and determinism contract.
pub struct FleetService {
    queue: Arc<RequestQueue>,
    replicas: Vec<ReplicaHandle>,
    view: Arc<Mutex<Vec<ReplicaView>>>,
    router: RouterPolicy,
    quantum: u64,
    input_dim: usize,
    recorder: Recorder,
    dispatcher: Option<JoinHandle<()>>,
}

impl FleetService {
    /// Deploys one replica per network (each performing its own initial
    /// aging-aware mapping against `calib`) and starts the router and the
    /// per-replica maintenance threads. With more than one replica every
    /// per-hardware metric, series and wear cause is namespaced
    /// `replica{r}.`; a single replica's streams are un-namespaced.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] for a bad config or a
    /// `networks`/`replicas` count mismatch; [`ServeError::Internal`] from
    /// the initial mappings or thread spawns.
    pub fn deploy(
        networks: Vec<CrossbarNetwork>,
        calib: Dataset,
        config: FleetConfig,
        recorder: Recorder,
    ) -> Result<FleetService, ServeError> {
        config.validate()?;
        if networks.len() != config.replicas {
            return Err(ServeError::InvalidConfig {
                reason: format!(
                    "{} networks supplied for {} replicas",
                    networks.len(),
                    config.replicas
                ),
            });
        }
        declare_serve_histograms(&recorder);
        let namespaced = config.replicas > 1;
        let mut handles = Vec::with_capacity(config.replicas);
        let mut rts = Vec::with_capacity(config.replicas);
        let mut base: Option<Network> = None;
        let mut input_dim = 0;
        // The last replica takes `calib` itself, so one replica copies nothing.
        let calibs = std::iter::repeat_n(calib, config.replicas);
        for (r, (network, calib)) in networks.into_iter().zip(calibs).enumerate() {
            let stats = Arc::new(ServeStats::with_buckets(config.serve.latency_buckets));
            let (engine, initial) = ServeEngine::deploy(
                network,
                calib,
                config.replica_serve(r),
                recorder.clone(),
                Arc::clone(&stats),
                namespaced.then_some(r),
            )?;
            if base.is_none() {
                input_dim = engine.input_dim();
                base = Some(engine.software_clone());
            }
            let ledger = engine.ledger();
            let generations = Arc::new(GenerationCell::default());
            generations.publish(Arc::clone(&initial));
            let (job_tx, job_rx) = mpsc::channel::<ReplicaJob>();
            let maintenance = {
                let generations = Arc::clone(&generations);
                std::thread::Builder::new()
                    .name(format!("memaging-serve-maint-{r}"))
                    .spawn(move || maintenance_loop(engine, &job_rx, &generations))
                    .map_err(|e| ServeError::Internal { reason: e.to_string() })?
            };
            rts.push(ReplicaRt::new(
                job_tx,
                generations,
                Arc::clone(&stats),
                initial.total_stress,
                initial.worst_window_fraction,
            ));
            handles.push(ReplicaHandle { stats, ledger, maintenance: Some(maintenance) });
        }
        let view = Arc::new(Mutex::new(rts.iter().map(ReplicaRt::view).collect::<Vec<_>>()));
        let queue = Arc::new(RequestQueue::new(config.serve.queue_capacity));
        let dispatcher = {
            let queue = Arc::clone(&queue);
            let view = Arc::clone(&view);
            let recorder = recorder.clone();
            let base = base.expect("replicas is nonzero by validate()");
            let config = config.clone();
            std::thread::Builder::new()
                .name("memaging-serve-dispatch".into())
                .spawn(move || dispatch_loop(&queue, rts, &view, &recorder, &base, &config))
                .map_err(|e| ServeError::Internal { reason: e.to_string() })?
        };
        Ok(FleetService {
            queue,
            replicas: handles,
            view,
            router: config.router,
            quantum: config.serve.maintenance_interval,
            input_dim,
            recorder,
            dispatcher: Some(dispatcher),
        })
    }

    /// Submits one request and blocks until it is served, rejected, or
    /// expired. Which replica serves it is the router's (deterministic)
    /// decision.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadInput`] for a malformed payload (checked before
    /// admission — no sequence number is consumed),
    /// [`ServeError::QueueFull`] when admission control rejects,
    /// [`ServeError::DeadlineExceeded`] when the deadline passes before
    /// dispatch, [`ServeError::Shutdown`] after shutdown began,
    /// [`ServeError::Internal`] when the request's replica can no longer
    /// serve it.
    pub fn infer(&self, request: InferRequest) -> Result<InferResponse, ServeError> {
        self.queue.submit(request, self.input_dim, &self.recorder)
    }

    /// The expected number of input features per request.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Replica `r`'s live serving statistics.
    pub fn replica_stats(&self, r: usize) -> Option<&ServeStats> {
        self.replicas.get(r).map(|h| &*h.stats)
    }

    /// A snapshot of replica `r`'s wear-attribution ledger.
    pub fn wear_attribution(&self, r: usize) -> Option<WearLedger> {
        self.replicas
            .get(r)
            .map(|h| h.ledger.lock().unwrap_or_else(PoisonError::into_inner).clone())
    }

    /// The router's per-replica view (as of the last block start).
    fn fleet_view(&self) -> Vec<ReplicaView> {
        self.view.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }

    /// The JSON body of `GET /serve/stats`: the admission counts, then
    /// the one replica's [`ServeStats`] fields, or with several replicas
    /// the router policy and one stats row per replica.
    pub fn stats_json(&self) -> String {
        let (admitted, rejected_full) = self.queue.admission();
        let mut out = String::with_capacity(256 * (1 + self.replicas.len()));
        let _ = write!(out, "{{\"admitted\":{admitted},\"rejected_full\":{rejected_full},");
        if let [only] = self.replicas.as_slice() {
            out.push_str(&only.stats.to_json()[1..]);
            return out;
        }
        let _ = write!(out, "\"router\":\"{}\",\"replicas\":[", self.router.label());
        for (r, handle) in self.replicas.iter().enumerate() {
            if r > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"replica\":{r},\"stats\":{}}}", handle.stats.to_json());
        }
        out.push_str("]}");
        out
    }

    /// The JSON body of `GET /serve/latency`: the one replica's latency
    /// histograms, or with several replicas one row per replica.
    pub fn latency_json(&self) -> String {
        if let [only] = self.replicas.as_slice() {
            return only.stats.latency_json();
        }
        let mut out = String::with_capacity(512 * (1 + self.replicas.len()));
        out.push_str("{\"replicas\":[");
        for (r, handle) in self.replicas.iter().enumerate() {
            if r > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"replica\":{r},\"latency\":{}}}", handle.stats.latency_json());
        }
        out.push_str("]}");
        out
    }

    /// The JSON body of `GET /wear/attribution`: the one replica's ledger,
    /// or with several replicas every replica's ledger (each tagged with
    /// its replica id).
    pub fn wear_attribution_json(&self) -> String {
        attribution_json(
            self.replicas
                .iter()
                .map(|h| h.ledger.lock().unwrap_or_else(PoisonError::into_inner).to_json()),
        )
    }

    /// The router's view of the replicas, as the JSON body of
    /// `GET /fleet`: per replica its lifecycle state, routed share, wear
    /// snapshot, and live boundary/remap/served counters.
    pub fn fleet_json(&self) -> String {
        let views = self.fleet_view();
        let mut out = String::with_capacity(192 * (1 + views.len()));
        let _ = write!(
            out,
            "{{\"router\":\"{}\",\"quantum\":{},\"replicas\":[",
            self.router.label(),
            self.quantum,
        );
        for (r, view) in views.iter().enumerate() {
            if r > 0 {
                out.push(',');
            }
            let stats = &self.replicas[r].stats;
            let _ = write!(
                out,
                "{{\"replica\":{r},\"state\":\"{}\",\"routed\":{},\"blocks\":{},\"retires\":{},",
                view.state, view.routed, view.blocks, view.retires,
            );
            match view.rejoin_block {
                Some(block) => {
                    let _ = write!(out, "\"rejoin_block\":{block},");
                }
                None => out.push_str("\"rejoin_block\":null,"),
            }
            let _ = write!(
                out,
                "\"snapshot_generation\":{},\"snapshot_stress\":{},\
                 \"worst_window_fraction\":{},\"served\":{},\"boundaries\":{},\"remaps\":{}}}",
                view.snapshot_generation,
                view.snapshot_stress,
                view.worst_window_fraction,
                stats.served.load(Ordering::Relaxed),
                stats.boundaries.load(Ordering::Relaxed),
                stats.remaps.load(Ordering::Relaxed),
            );
        }
        out.push_str("]}");
        out
    }

    /// Stops admission, drains every queued request (each still receives
    /// its response), flushes each replica's final partial interval's
    /// wear, joins all threads, and returns the final report. A panic on
    /// any service thread resurfaces here.
    pub fn shutdown(mut self) -> FleetReport {
        self.queue.close();
        if let Some(dispatcher) = self.dispatcher.take() {
            if let Err(payload) = dispatcher.join() {
                std::panic::resume_unwind(payload);
            }
        }
        // The dispatcher published a final view after its shutdown flush.
        let views = self.fleet_view();
        let mut replicas = Vec::with_capacity(self.replicas.len());
        for (r, mut handle) in std::mem::take(&mut self.replicas).into_iter().enumerate() {
            let engine = match handle.maintenance.take().map(JoinHandle::join) {
                Some(Ok(engine)) => engine,
                Some(Err(payload)) => std::panic::resume_unwind(payload),
                None => unreachable!("maintenance threads exist until shutdown"),
            };
            replicas.push(ReplicaReport {
                replica: r,
                network: engine.into_network(),
                served: handle.stats.served.load(Ordering::Relaxed),
                expired: handle.stats.expired.load(Ordering::Relaxed),
                batches: handle.stats.batches.load(Ordering::Relaxed),
                boundaries: handle.stats.boundaries.load(Ordering::Relaxed),
                remaps: handle.stats.remaps.load(Ordering::Relaxed),
                routed: views[r].routed,
                retires: views[r].retires,
                attribution: handle.ledger.lock().unwrap_or_else(PoisonError::into_inner).clone(),
            });
        }
        let (admitted, rejected_full) = self.queue.admission();
        FleetReport { admitted, rejected_full, replicas }
    }
}

impl Drop for FleetService {
    fn drop(&mut self) {
        if self.dispatcher.is_none() && self.replicas.is_empty() {
            return; // Shut down properly.
        }
        self.queue.close();
        if let Some(dispatcher) = self.dispatcher.take() {
            let _ = dispatcher.join();
        }
        for handle in &mut self.replicas {
            if let Some(maintenance) = handle.maintenance.take() {
                let _ = maintenance.join();
            }
        }
    }
}

/// Final report of a shut-down single-replica service.
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

/// A single-replica deployment: the [`FleetService`] with one replica,
/// whose router sends every block to replica 0. Create with
/// [`InferenceService::deploy`], stop with [`InferenceService::shutdown`].
pub struct InferenceService {
    service: FleetService,
}

impl InferenceService {
    /// Deploys `network` (performing the initial aging-aware mapping
    /// against `calib`) and starts the dispatcher and maintenance
    /// threads.
    ///
    /// # Errors
    ///
    /// As [`FleetService::deploy`].
    pub fn deploy(
        network: CrossbarNetwork,
        calib: Dataset,
        config: ServeConfig,
        recorder: Recorder,
    ) -> Result<InferenceService, ServeError> {
        let service =
            FleetService::deploy(vec![network], calib, FleetConfig::new(1, config), recorder)?;
        Ok(InferenceService { service })
    }

    /// Submits one request and blocks until it is served, rejected, or
    /// expired.
    ///
    /// # Errors
    ///
    /// As [`FleetService::infer`].
    pub fn infer(&self, request: InferRequest) -> Result<InferResponse, ServeError> {
        self.service.infer(request)
    }

    /// Live serving statistics.
    pub fn stats(&self) -> &ServeStats {
        self.service.replica_stats(0).expect("one replica")
    }

    /// The expected number of input features per request.
    pub fn input_dim(&self) -> usize {
        self.service.input_dim()
    }

    /// A snapshot of the wear-attribution ledger.
    pub fn wear_attribution(&self) -> WearLedger {
        self.service.wear_attribution(0).expect("one replica")
    }

    /// Stops admission, drains every queued request (each still receives
    /// its response), flushes the final partial interval's wear, joins
    /// all threads, and returns the final report.
    pub fn shutdown(self) -> ServeReport {
        let FleetReport { admitted, rejected_full, replicas } = self.service.shutdown();
        let replica = replicas.into_iter().next().expect("one replica");
        ServeReport {
            network: replica.network,
            admitted,
            served: replica.served,
            rejected_full,
            expired: replica.expired,
            boundaries: replica.boundaries,
            remaps: replica.remaps,
            batches: replica.batches,
            attribution: replica.attribution,
        }
    }
}
