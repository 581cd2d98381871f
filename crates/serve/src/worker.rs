//! Batch formation and worker-pool dispatch for the router's dispatch
//! loop. Batch formation is work-conserving ([`form_batch`]): it takes
//! what is already queued and never waits.
//!
//! A [`WorkerCtx`] is one worker's persistent software-network clone,
//! lazily re-synced to the `(replica, generation)` a batch is served
//! from. The sync key carries the replica id because a worker slot serves
//! batches from *different* replicas back to back: two replicas'
//! generations can share an id while holding different weights, so the
//! generation id alone would serve stale bytes.
//!
//! Everything here preserves the serve tier's determinism contract: a
//! request's output depends only on its input and the serving
//! generation's weight bits — never on batch composition, worker count,
//! or which replica's batch a worker context last held.

use std::sync::atomic::Ordering;
use std::time::Instant;

use memaging_nn::{Mode, Network, QuantScratch, QuantizedNet};
use memaging_obs::Recorder;
use memaging_par::SlotPool;
use memaging_tensor::Tensor;

use crate::error::ServeError;
use crate::generation::MappingGeneration;
use crate::queue::{Entry, RequestQueue};
use crate::request::InferResponse;
use crate::stats::ServeStats;

/// Declares the serving tier's Prometheus histograms on `recorder` — one
/// set per deployment (request latency is a tier-wide property;
/// per-replica latency lives in each replica's [`ServeStats`]).
pub(crate) fn declare_serve_histograms(recorder: &Recorder) {
    recorder.declare_histogram(
        "serve.queue_wait_us",
        &[100.0, 500.0, 1_000.0, 5_000.0, 20_000.0, 100_000.0, 500_000.0],
    );
    recorder.declare_histogram(
        "serve.service_us",
        &[100.0, 500.0, 1_000.0, 5_000.0, 20_000.0, 100_000.0, 500_000.0],
    );
    recorder.declare_histogram("serve.batch_size", &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0]);
    // Power-of-2 bounds (2^k - 1) mirroring the ShardedHistogram bucket
    // scheme, so Prometheus buckets and /serve/latency buckets line up.
    recorder.declare_histogram(
        "serve.linger_us",
        &[127.0, 511.0, 2_047.0, 8_191.0, 32_767.0, 131_071.0],
    );
    recorder.declare_histogram(
        "serve.e2e_us",
        &[127.0, 511.0, 2_047.0, 8_191.0, 32_767.0, 131_071.0, 524_287.0],
    );
}

/// Per-worker inference context: a software-network clone plus the
/// `(replica, generation)` its weights are synced to. In quantized mode
/// the worker also keeps a fixed-point snapshot of the generation
/// (rebuilt at each resync — a pure function of the weight bits, so every
/// worker's snapshot of one generation is bit-identical) and the
/// integer-forward scratch.
pub(crate) struct WorkerCtx {
    network: Network,
    /// `(replica, generation id)` the weights are synced to.
    synced: (usize, u64),
    quantized: bool,
    qsnap: QuantizedNet,
    qscratch: QuantScratch,
    /// Contiguous `m × input_dim` assembly buffer for the batched
    /// quantized forward (reused across batches, no per-batch allocation).
    batch_inputs: Vec<f32>,
}

impl WorkerCtx {
    /// A fresh, not-yet-synced context over a clone of `base`.
    pub(crate) fn new(base: &Network, quantized: bool) -> Self {
        WorkerCtx {
            network: base.clone(),
            synced: (usize::MAX, u64::MAX),
            quantized,
            qsnap: QuantizedNet::default(),
            qscratch: QuantScratch::new(),
            batch_inputs: Vec::new(),
        }
    }
}

/// Forms one batch starting from `first`, work-conservingly: takes every
/// request already queued below `boundary_seq` (a batch never crosses a
/// maintenance boundary), up to `max_batch`, under one queue lock — and
/// never waits for more. A lone request is dispatched at once; requests
/// that queued while the previous batch was in flight ride together.
/// Returns the batch and its formation time in microseconds.
pub(crate) fn form_batch(
    queue: &RequestQueue,
    first: Entry,
    boundary_seq: u64,
    max_batch: usize,
) -> (Vec<Entry>, u64) {
    let started = Instant::now();
    let mut batch = vec![first];
    queue.drain_below(boundary_seq, max_batch, &mut batch);
    (batch, started.elapsed().as_micros() as u64)
}

/// Serves one formed batch of `replica` from `generation`. Expired
/// requests are answered without touching a worker. In f32 mode live
/// requests fan out over the `par` worker pool and are forwarded
/// independently; in quantized mode the whole batch runs as **one**
/// integer matmul on a single worker context
/// ([`dispatch_batch_quantized`]) — per-row quantization steps plus exact
/// integer accumulation make every row's bytes independent of how the racy
/// admission stream happened to group into batches, so the fused kernel
/// changes no response. Either way the `serve.forward` span covers exactly
/// the forward computation — generation sync (a maintenance cost, paid once
/// per remap) runs before the span opens, and delivery / accounting run
/// after it closes.
#[allow(clippy::too_many_arguments)]
pub(crate) fn dispatch_batch(
    batch: Vec<Entry>,
    replica: usize,
    generation: &MappingGeneration,
    pool: &mut SlotPool<WorkerCtx>,
    base: &Network,
    stats: &ServeStats,
    recorder: &Recorder,
    quantized: bool,
) {
    let now = Instant::now();
    let mut live: Vec<(Entry, u64)> = Vec::with_capacity(batch.len());
    for entry in batch {
        let queue_us = now.duration_since(entry.ctx.admitted_at).as_micros() as u64;
        recorder.observe("serve.queue_wait_us", queue_us as f64);
        stats.latency().queue_wait.record(0, queue_us);
        if entry.deadline.is_some_and(|deadline| deadline < now) {
            stats.expired.fetch_add(1, Ordering::Relaxed);
            recorder.counter("serve.expired", 1);
            entry.slot.deliver(Err(ServeError::DeadlineExceeded));
            continue;
        }
        live.push((entry, queue_us));
    }
    if live.is_empty() {
        return;
    }
    stats.record_batch(live.len());
    recorder.observe("serve.batch_size", live.len() as f64);
    // The batch span carries its first request's trace id — the batch's
    // admission-order identity.
    let span = recorder.trace_span("serve.batch", live[0].0.seq);
    pool.ensure_slots(memaging_par::num_threads().max(1));
    if quantized {
        dispatch_batch_quantized(&live, replica, generation, pool, base, stats, recorder);
        drop(span);
        return;
    }
    let pool = &*pool;
    let live = &live;
    memaging_par::par_map_init(
        live.len(),
        |worker| (worker, pool.lease(worker)),
        |(worker, lease), i| {
            let ctx = lease.get_or_insert_with(|| WorkerCtx::new(base, quantized));
            let entry = &live[i].0;
            let started = Instant::now();
            let result = resync(ctx, replica, generation).and_then(|()| {
                let _span = recorder.worker_trace_span("serve.forward", *worker, entry.seq);
                serve_one(ctx, &entry.input)
            });
            let service_us = started.elapsed().as_micros() as u64;
            let outcome = result.map(|output| {
                respond(&live[i], output, service_us, *worker, generation.id, stats, recorder)
            });
            entry.slot.deliver(outcome);
        },
    );
    drop(span);
}

/// The quantized batch engine: one worker context, one generation sync, one
/// contiguous input assembly, one batched integer forward for every live
/// request. Row `i` of [`Network::forward_quantized_rows`] is bit-for-bit
/// the response request `i` would get served alone (per-row activation
/// steps; exact integer accumulation), so the batch grouping — which
/// depends on racy admission timing — cannot leak into any response. The
/// fused kernel is what the `exp_serve` speedup gate measures: the integer
/// matmul amortizes its per-call setup over the batch, where the f32 tier
/// pays the full per-request forward each time.
fn dispatch_batch_quantized(
    live: &[(Entry, u64)],
    replica: usize,
    generation: &MappingGeneration,
    pool: &SlotPool<WorkerCtx>,
    base: &Network,
    stats: &ServeStats,
    recorder: &Recorder,
) {
    let m = live.len();
    let mut lease = pool.lease(0);
    let ctx = lease.get_or_insert_with(|| WorkerCtx::new(base, true));
    let started = Instant::now();
    let forwarded = resync(ctx, replica, generation).and_then(|()| {
        // Same window as the f32 path's span: exactly the forward.
        let _span = recorder.worker_trace_span("serve.forward", 0, live[0].0.seq);
        let WorkerCtx { network, qsnap, qscratch, batch_inputs, .. } = ctx;
        batch_inputs.clear();
        for (entry, _) in live {
            batch_inputs.extend_from_slice(&entry.input);
        }
        network
            .forward_quantized_rows(qsnap, batch_inputs, m, qscratch)
            .map_err(|e| ServeError::Internal { reason: e.to_string() })
    });
    let service_us = started.elapsed().as_micros() as u64;
    match forwarded {
        Ok(rows) => {
            for (request, row) in live.iter().zip(rows.chunks_exact(rows.len() / m)) {
                let response =
                    respond(request, row.to_vec(), service_us, 0, generation.id, stats, recorder);
                request.0.slot.deliver(Ok(response));
            }
        }
        Err(e) => {
            let reason = e.to_string();
            for (entry, _) in live {
                entry.slot.deliver(Err(ServeError::Internal { reason: reason.clone() }));
            }
        }
    }
}

/// Syncs a worker context's weights (and, in quantized mode, its
/// fixed-point snapshot) to `replica`'s `generation` if needed. The
/// snapshot is a pure function of the weight bits, so every worker's
/// snapshot of one generation is bit-identical.
fn resync(
    ctx: &mut WorkerCtx,
    replica: usize,
    generation: &MappingGeneration,
) -> Result<(), ServeError> {
    if ctx.synced != (replica, generation.id) {
        ctx.network
            .set_weight_matrices(&generation.weights)
            .map_err(|e| ServeError::Internal { reason: e.to_string() })?;
        if ctx.quantized {
            ctx.qsnap = ctx.network.quantize_weights();
        }
        ctx.synced = (replica, generation.id);
    }
    Ok(())
}

/// Accounts one served request — counters and latency histograms, on
/// latency shard `shard` — and builds its response.
fn respond(
    (entry, queue_us): &(Entry, u64),
    output: Vec<f32>,
    service_us: u64,
    shard: usize,
    generation: u64,
    stats: &ServeStats,
    recorder: &Recorder,
) -> InferResponse {
    stats.served.fetch_add(1, Ordering::Relaxed);
    stats.record_latency(*queue_us, service_us);
    stats.latency().forward.record(shard, service_us);
    let e2e_us = entry.ctx.admitted_at.elapsed().as_micros() as u64;
    stats.latency().e2e.record(shard, e2e_us);
    recorder.observe("serve.service_us", service_us as f64);
    recorder.observe("serve.e2e_us", e2e_us as f64);
    let mut prediction = 0;
    for (i, &v) in output.iter().enumerate() {
        if v > output[prediction] {
            prediction = i;
        }
    }
    InferResponse {
        seq: entry.seq,
        generation,
        output,
        prediction,
        queue_us: *queue_us,
        service_us,
    }
}

/// Forwards one input through the worker's f32 network. The caller must
/// have [`resync`]ed the context to the serving generation first. Quantized
/// batches never reach this — they run fused through
/// [`dispatch_batch_quantized`].
fn serve_one(ctx: &mut WorkerCtx, input: &[f32]) -> Result<Vec<f32>, ServeError> {
    let input = Tensor::from_vec(input.to_vec(), [1, input.len()])
        .map_err(|e| ServeError::Internal { reason: e.to_string() })?;
    let output = ctx
        .network
        .forward(&input, Mode::Eval)
        .map_err(|e| ServeError::Internal { reason: e.to_string() })?;
    Ok(output.into_vec())
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::queue::ResponseSlot;

    fn admit(queue: &RequestQueue, n: usize) {
        for _ in 0..n {
            queue.admit(vec![0.0], None, Arc::new(ResponseSlot::default())).unwrap();
        }
    }

    /// Pops the next entry, forms a batch from it, and returns its seqs.
    fn form(queue: &RequestQueue, boundary_seq: u64, max_batch: usize) -> Vec<u64> {
        let first = queue.pop_blocking().unwrap();
        form_batch(queue, first, boundary_seq, max_batch).0.iter().map(|e| e.seq).collect()
    }

    #[test]
    fn takes_the_queued_entries_below_the_boundary_up_to_max_batch() {
        let queue = RequestQueue::new(64);
        admit(&queue, 6);
        assert_eq!(form(&queue, 32, 4), [0, 1, 2, 3], "capped at max_batch");
        assert_eq!(form(&queue, 32, 4), [4, 5], "everything still queued, and nothing more");
    }

    #[test]
    fn never_crosses_the_boundary() {
        let queue = RequestQueue::new(64);
        admit(&queue, 6);
        assert_eq!(form(&queue, 3, 16), [0, 1, 2], "seq 3 opens the next interval");
        assert_eq!(queue.depth(), 3, "the next interval's entries stay queued");
    }

    #[test]
    fn a_lone_request_on_an_open_queue_is_dispatched_at_once() {
        let queue = RequestQueue::new(64);
        admit(&queue, 1);
        let first = queue.pop_blocking().unwrap();
        let (batch, formation_us) = form_batch(&queue, first, 32, 16);
        assert_eq!(batch.len(), 1);
        assert!(formation_us < 1_000, "formation waited {formation_us} us on an empty queue");
    }

    #[test]
    fn entries_admitted_after_formation_wait_for_the_next_batch() {
        let queue = RequestQueue::new(64);
        admit(&queue, 2);
        let first = queue.pop_blocking().unwrap();
        let (batch, _) = form_batch(&queue, first, 32, 16);
        admit(&queue, 2);
        assert_eq!(batch.len(), 2);
        assert_eq!(form(&queue, 32, 16), [2, 3]);
    }
}
