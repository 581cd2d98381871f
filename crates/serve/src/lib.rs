//! # memaging-serve
//!
//! The serving tier of the memaging stack: a deterministic,
//! dependency-free batched inference service that drives one or more
//! [`memaging_crossbar::CrossbarNetwork`] replicas under live request load
//! and keeps them alive with the paper's aging-aware remapping — online.
//!
//! The paper's core loop (inference load wears devices → aged resistance
//! bounds shrink → aging-aware re-mapping restores accuracy) only becomes
//! real under a sustained request stream. This crate builds that stream's
//! receiving end:
//!
//! * **Admission control** ([`ServeConfig::queue_capacity`]): a bounded
//!   MPSC queue that rejects on full ([`ServeError::QueueFull`]) and
//!   drops requests whose deadline expires before dispatch
//!   ([`ServeError::DeadlineExceeded`]) — load shedding before the
//!   crossbar, not after.
//! * **Work-conserving batching** ([`ServeConfig::max_batch`]) over a
//!   `par`-backed worker pool with persistent per-worker network
//!   contexts: a lone request is dispatched the moment it is popped, and
//!   requests that queue while a batch is in flight ride together in the
//!   next one; the dispatcher never waits for company.
//! * **Aging-aware live remapping**: inference reads accrue read-disturb
//!   wear through the device model; when the shared
//!   [`memaging_lifetime::WearThresholds`] warn rule fires on a stale
//!   mapping, the replica's maintenance task re-runs the paper's range
//!   selection (the incremental engine) and swaps the fresh mapping in
//!   atomically — double-buffered mapping generations, no serving
//!   pause.
//! * **Replicas behind a router** ([`FleetConfig`]): no two chips age at
//!   the same rate (process variation, thermal gradients, unequal load),
//!   so a deployment may serve from `N` independent crossbar replicas,
//!   each with its own wear ledger, forecaster and maintenance thread.
//!   Each block of one maintenance interval's worth of consecutive
//!   admissions is routed whole to one replica. The wear-balancing
//!   policy ([`RouterPolicy::WearBalance`]) picks the active replica with
//!   the least projected stress — its last published generation's stress
//!   total plus its *measured* burn rate times the load it would absorb;
//!   `round-robin` and `sticky` baselines are selectable for comparison.
//!   A single-replica deployment ([`InferenceService`]) is the `N = 1`
//!   case of the same service ([`FleetService`]).
//! * **Retire/rejoin** ([`FleetConfig::retire_fraction`]): when the
//!   hottest replica's resistance window degrades past the threshold, the
//!   router drains it, force-remaps it in the background while its
//!   siblings absorb the traffic, and rejoins it a configured number of
//!   blocks later.
//! * **Observability**: request-level tracing (every span of a request's
//!   admission → batch → forward → tile chain carries its [`TraceId`] =
//!   admission sequence number), log-bucketed latency histograms
//!   (queue wait / batch formation / forward / end-to-end, lock-free
//!   per-worker shards), a wear-attribution ledger
//!   ([`memaging_lifetime::WearLedger`]) charging every unit of tile
//!   stress to its cause, and the `POST /infer`, `GET /fleet`,
//!   `GET /serve/stats`, `GET /serve/latency` and `GET /wear/attribution`
//!   routes for the monitor HTTP server ([`ServeHandler`]). With more
//!   than one replica, every wear checkpoint, forecast gauge and tile
//!   series a replica emits is namespaced `replica{r}.` and its ledger is
//!   tagged with the replica id; a single replica's streams carry no
//!   namespace.
//!
//! ## Determinism
//!
//! Everything the hardware sees is keyed to the request **admission
//! sequence**, not to time: each block of admissions is routed by a pure
//! function of the block index and of wear snapshots read from published
//! mapping generations at deterministic boundaries, wear accrues per
//! maintenance boundary from the routed-request count, requests of a
//! replica's local interval `k` are served by its mapping generation `k`,
//! and remap decisions are functions of boundary-indexed state. Run the
//! same admission sequence at 1 or N worker threads and every
//! per-request output, every routing decision and the final wear state
//! of every replica are bit-identical — `exp_serve` and `exp_fleet`
//! assert exactly that.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod config;
mod engine;
mod error;
mod generation;
mod http;
mod queue;
mod request;
mod router;
mod service;
mod stats;
mod trace;
mod worker;

pub use config::{FleetConfig, RouterPolicy, ServeConfig};
pub use engine::SERIES_SCALE;
pub use error::ServeError;
pub use http::ServeHandler;
pub use request::{InferRequest, InferResponse};
pub use service::{FleetReport, FleetService, InferenceService, ReplicaReport, ServeReport};
pub use stats::{LatencyStats, ServeStats, WorstTileForecast};
pub use trace::{RequestCtx, TraceId};
