//! Incremental candidate evaluation for the aging-aware range-selection
//! sweep (paper §IV-B, Fig. 8).
//!
//! The naive sweep re-does, per candidate window, four pieces of work that
//! do not actually depend on the candidate: cloning the software network
//! and every weight matrix, re-deriving the percentile weight range (a full
//! sort), forwarding the calibration batch through the unchanged layers
//! below the swept one, and re-quantizing every cell from scratch. This
//! module removes each of those while keeping the *selection result*
//! bit-identical to [`crate::select_range`] at every thread count:
//!
//! 1. **Persistent per-worker contexts** ([`EvalEngine`]): one cloned
//!    network per worker thread, leased from a
//!    [`memaging_par::SlotPool`] that lives across all layers and all map
//!    epochs. A generation counter re-syncs the trained weights lazily at
//!    the first lease of each mapping epoch, and a dirty-layer tag restores
//!    the previously swept layer before the next one starts — so steady
//!    state does zero allocation and copies only what changed.
//! 2. **Prefix-activation caching**: the calibration batch is forwarded
//!    through layers `0..net_layer` once per sweep (`map.prefix` span);
//!    candidates replay only the suffix from the cached activations
//!    (`map.replay` spans) via [`memaging_nn::Network::forward_from`].
//!    Eval-mode forwards are pure, so splitting the pass is exact.
//! 3. **Sorted-breakpoint candidate build** ([`CandidateBuilder`], `map.build`
//!    span): the percentile weight range is derived once per sweep (it is
//!    window-independent — see [`crate::mapping::WeightRange`]), and so is
//!    the layer's cell order by weight. The naive per-cell chain (`w → g`,
//!    `1/g`, nearest fresh level) is monotone in the weight — clamp, the
//!    affine map, `1/x`, `round` and `min` each are under IEEE rounding —
//!    so per candidate at most `levels` searches over the sorted weights,
//!    each probe evaluating the chain's own float expressions, find every
//!    cell's level exactly (a search starts at the real-valued level
//!    crossing, where two probes usually settle it). Each cell then takes
//!    one of three values: its level's unclamped value, or its block
//!    window's `r_min` / `r_max` value when the clamp bites, each computed
//!    once per candidate by the chain's own expressions — bit-identical to
//!    the naive path. Candidates whose simulated weight matrices come out
//!    bit-identical (adjacent `r_max` bounds often quantize identically at
//!    32 levels) share one evaluation: equal matrices evaluate to equal
//!    accuracies by determinism of the forward pass.
//! 4. **Exact-bound early exit** ([`PruneGate`]): a candidate's accuracy
//!    pass aborts only when even acing all remaining samples provably
//!    cannot lift it above the adoption threshold it will face in the
//!    widest-first fold. Aborted candidates report a truncated (lower)
//!    accuracy, which can never be adopted nor loosen another candidate's
//!    bound unsoundly — so the fold's adoption sequence, the selected
//!    window, its accuracy, and `candidates_tried` are unchanged (see the
//!    safety argument on [`PruneGate`]).
//!
//! With [`SweepParams::quantized`] set, candidate replay additionally runs
//! on the fixed-point kernels of `memaging_tensor::quant`: each unique
//! candidate matrix is built once as u8 codes into its table of distinct
//! values (keyed by bit pattern), quantized via
//! [`QuantizedMatrix::from_level_codes`] — or, for a matrix holding more
//! than 256 distinct values, from the dense f32 matrix, with the same bits
//! (counted by `mapping.coded_fallbacks`) — and evaluated with
//! `i16×i16 → i32 → i64` accumulation through
//! [`Network::forward_from_quantized`]. Integer accumulation is exact, so
//! quantized selection is still bit-identical at every thread count — but
//! its accuracies (and hence possibly the selected window) may differ from
//! the f32 oracle within the quantization error bound.

use std::sync::atomic::{AtomicU64, Ordering};

use memaging_dataset::Dataset;
use memaging_device::{AgedWindow, DeviceSpec, Ohms, Quantizer};
use memaging_nn::{Mode, Network, QuantScratch, QuantizedNet};
use memaging_obs::{names, Recorder};
use memaging_par::{SlotLease, SlotPool};
use memaging_tensor::quant::{
    max_abs, qdelta_apply_t, qmm_pre_t_into, qt_diff_within, quantize_acts_into, transpose_codes,
    weight_step, QCellDelta, QuantizedMatrix, K_CHUNK,
};
use memaging_tensor::scratch::ScratchArena;
use memaging_tensor::Tensor;

use crate::error::CrossbarError;
use crate::mapping::{WeightMapping, WeightRange};
use crate::range_select::{candidate_upper_bounds, fold_candidates, RangeSelection};
use crate::tile::BlockMap;
use crate::tracer::TracedEstimate;

/// Absolute slack subtracted from the certified prune bound before
/// comparing: float accumulation of per-batch accuracies can differ from
/// the upper bound's arithmetic by a few ulps, and the cost of pruning a
/// hair too late is a handful of batches — the cost of pruning wrongly
/// would be a changed selection.
const PRUNE_SLACK: f64 = 1e-9;

/// Everything a sweep needs to know about the layer under selection.
pub(crate) struct SweepParams<'a> {
    /// Trained weight matrices of every mappable layer, borrowed.
    pub trained: &'a [&'a Tensor],
    /// Mappable index of the layer being swept.
    pub layer: usize,
    /// Network layer index of `layer` (prefix boundary).
    pub net_layer: usize,
    /// Resolved per-device aged-window estimates.
    pub blocks: &'a BlockMap,
    /// The device spec (fresh quantization grid).
    pub spec: &'a DeviceSpec,
    /// Calibration data scoring the candidates.
    pub data: &'a Dataset,
    /// Calibration batch size.
    pub batch: usize,
    /// Outlier percentile for the weight-range derivation.
    pub percentile: f64,
    /// Evaluate candidates on the fixed-point kernels (u8 codes into the
    /// candidate's distinct-value table, `i16×i16 → i32 → i64` accumulation)
    /// instead of the f32 forward pass. Selection stays deterministic at
    /// any thread count; accuracies may differ from the f32 oracle by the
    /// quantization error bound.
    pub quantized: bool,
}

/// One worker's persistent evaluation state.
struct EvalContext {
    net: Network,
    /// Mapping epoch whose trained weights `net` holds.
    generation: u64,
    /// Mappable layer whose matrix currently holds candidate values.
    dirty: Option<usize>,
    /// Fixed-point snapshot of `net` (empty until the first quantized
    /// sweep; kept in lockstep with the f32 weights from then on).
    qsnap: QuantizedNet,
    /// Per-worker quantized-forward scratch buffers.
    qscratch: QuantScratch,
    /// The last fully evaluated candidate of the current sweep: its codes
    /// and its exact integer pre-activation per prefix batch. Subsequent
    /// candidates replay as sparse deltas against it (bit-identical to the
    /// full product — see `memaging_tensor::quant::qdelta_apply_t`).
    qbase: Option<QBase>,
    /// Scratch for the current candidate's sparse diff vs `qbase`.
    deltas: Vec<QCellDelta>,
    /// Per-batch pre-activation scratch; swapped into `qbase` whenever a
    /// candidate completes all batches.
    pre_tmp: Vec<Vec<i32>>,
}

/// A worker's sparse-delta anchor: one candidate's quantized codes plus its
/// exact transposed integer pre-activations for every cached prefix batch.
/// Valid only within the sweep that produced it (`sweep` tag): a new sweep
/// means new prefix activations, a new layer, and a new shared step.
struct QBase {
    sweep: u64,
    layer: usize,
    scale_bits: u64,
    qt: Vec<i16>,
    pre: Vec<Vec<i32>>,
    /// The anchor candidate's full (never truncated) accuracy: candidates
    /// whose codes are bit-identical to the anchor — distinct f32 matrices
    /// can collapse on the shared integer grid — report it directly, the
    /// exact value their own replay would produce.
    accuracy: f64,
}

impl EvalContext {
    fn new(software: &Network) -> Self {
        EvalContext {
            net: software.clone(),
            generation: 0,
            dirty: None,
            qsnap: QuantizedNet::default(),
            qscratch: QuantScratch::new(),
            qbase: None,
            deltas: Vec::new(),
            pre_tmp: Vec::new(),
        }
    }
}

/// The persistent incremental-evaluation engine owned by a
/// [`crate::CrossbarNetwork`].
pub(crate) struct EvalEngine {
    /// Per-worker contexts, alive across sweeps and map epochs.
    pool: SlotPool<EvalContext>,
    /// Dedicated context for prefix forwards: worker contexts carry dirty
    /// swept layers, the prefix must come from fully trained weights.
    prefix: Option<EvalContext>,
    /// Bumped per map epoch; contexts lazily re-sync trained weights.
    generation: u64,
    /// Bumped per sweep: tags the validity window of each worker's
    /// sparse-delta anchor.
    sweep_seq: u64,
    /// Arena for the serial candidate-matrix build on the driving thread.
    arena: ScratchArena,
    /// The candidate-matrix builder and its per-sweep tables.
    builder: CandidateBuilder,
    /// Quantized mode: the code buffers the builder fills for the current
    /// candidate, plus spares recycled from earlier sweeps' uniques.
    coded: CodedMatrix,
    coded_spare: Vec<CodedMatrix>,
    /// What a sweep reuses across map epochs, per mappable layer.
    layers: Vec<LayerReuse>,
    /// The calibration inputs the cached prefix activations were forwarded
    /// from.
    calib: CalibKey,
    /// Source of change stamps: every observed change of a cache input
    /// takes the next value, so stamps only grow.
    stamp: u64,
}

/// One mappable layer's cross-epoch caches. Each is keyed by the exact bits
/// of what it was computed from, compared against a retained copy — the
/// trained weights stay fixed between remaps, so a live remap reuses both.
#[derive(Default)]
struct LayerReuse {
    /// Retained copy of the layer's trained weights.
    weights: Vec<f32>,
    /// Stamp of the last change of `weights`.
    changed: u64,
    /// The weight sort of `weights`, once a sweep of this layer needed it.
    order: Option<WeightOrder>,
    /// Prefix activations below this layer.
    prefix: Option<CachedPrefix>,
}

/// A layer's prefix activations and what they were computed from.
struct CachedPrefix {
    /// The largest change stamp among their inputs: the calibration set
    /// and the trained weights of every lower layer.
    inputs: u64,
    /// Whether the batches carry quantized activation codes.
    quantized: bool,
    batches: Vec<PrefixBatch>,
}

/// The calibration set behind the cached prefix activations.
#[derive(Default)]
struct CalibKey {
    dims: Vec<usize>,
    images: Vec<f32>,
    labels: Vec<usize>,
    batch: usize,
    /// Stamp of the last change of any of the above.
    changed: u64,
}

impl EvalEngine {
    pub(crate) fn new() -> Self {
        EvalEngine {
            pool: SlotPool::new(),
            prefix: None,
            generation: 0,
            sweep_seq: 0,
            arena: ScratchArena::new(),
            builder: CandidateBuilder::default(),
            coded: CodedMatrix::default(),
            coded_spare: Vec::new(),
            layers: Vec::new(),
            calib: CalibKey::default(),
            stamp: 0,
        }
    }

    /// Starts a new mapping epoch: the next lease of every context re-syncs
    /// the (possibly retrained) software weights.
    pub(crate) fn begin_epoch(&mut self) {
        self.generation += 1;
    }

    /// Runs the full candidate sweep for one layer, returning the selection
    /// [`crate::select_range`] would have produced. With `prev` (the
    /// hysteresis anchor: the window the layer was last mapped against),
    /// also returns that window's exact accuracy, scored in the same pass:
    /// its matrix is one more build, deduplicated against the candidates,
    /// and its unique is never pruned.
    pub(crate) fn sweep(
        &mut self,
        software: &Network,
        estimates: &[TracedEstimate],
        fresh_r_min: f64,
        p: &SweepParams<'_>,
        prev: Option<AgedWindow>,
        recorder: &Recorder,
    ) -> Result<Selected, CrossbarError> {
        let _sweep_span = recorder.span(names::MAP_SWEEP);
        self.sweep_seq += 1;
        let sweep_seq = self.sweep_seq;
        if estimates.is_empty() {
            return Err(CrossbarError::InvalidMapping {
                reason: "range selection needs at least one traced estimate".into(),
            });
        }
        let candidates = candidate_upper_bounds(estimates, fresh_r_min);
        if candidates.is_empty() {
            return fold_candidates(fresh_r_min, std::iter::empty())
                .map(|selection| (selection, None));
        }

        self.refresh_keys(p);
        let cached_prefix = self.prefix_activations(software, p, recorder)?;
        let prefix = &cached_prefix.batches;
        let weights = p.trained[p.layer].as_slice();
        let order = self.layers[p.layer].order.get_or_insert_with(|| WeightOrder::new(weights));
        let range = WeightRange::from_sorted_percentile(weights, &order.sorted, p.percentile)?;

        // Serial build of every candidate's simulated weight matrix — and of
        // the hysteresis window's, last — with bitwise deduplication:
        // adjacent candidate bounds frequently quantize to the same matrix,
        // the previous window often equals one of them, and equal matrices
        // evaluate equal.
        let build_span = recorder.span(names::MAP_BUILD);
        self.builder.prepare(order, p.trained[p.layer].dims()[1], p.blocks, p.spec)?;
        let n_cells = p.trained[p.layer].len();
        let (m_rows, m_cols) = (p.trained[p.layer].dims()[0], p.trained[p.layer].dims()[1]);
        let mut uniques: Vec<Vec<f32>> = Vec::new();
        // In quantized mode, the coded form of each unique candidate (`None`
        // when it references more than 256 distinct values) and the running
        // peak magnitude across every unique — all candidates of a sweep
        // quantize with one *shared* step so their integer codes live on
        // one grid and replay as sparse deltas.
        let mut coded_uniques: Vec<Option<CodedMatrix>> = Vec::new();
        let mut sweep_peak = 0.0f64;
        let mut hashes: Vec<u64> = Vec::new();
        let mut first_pos: Vec<usize> = Vec::new();
        let mut groups: Vec<Result<usize, CrossbarError>> =
            Vec::with_capacity(candidates.len() + 1);
        let windows =
            candidates.iter().map(|&r_max| AgedWindow { r_min: fresh_r_min, r_max }).chain(prev);
        for (pos, window) in windows.enumerate() {
            let mapping = match WeightMapping::from_range(range, window) {
                Ok(m) => m,
                Err(e) => {
                    groups.push(Err(e));
                    continue;
                }
            };
            let mut buf = self.arena.take(n_cells);
            let complete = self.builder.build(
                order,
                &mapping,
                &mut buf,
                p.quantized.then_some(&mut self.coded),
            );
            let hash = hash_bits(&buf);
            let existing = hashes
                .iter()
                .enumerate()
                .position(|(u, &h)| h == hash && bits_equal(&uniques[u], &buf));
            match existing {
                Some(u) => {
                    groups.push(Ok(u));
                    self.arena.give(buf);
                }
                None => {
                    if p.quantized {
                        sweep_peak = sweep_peak.max(if complete {
                            // The value table holds exactly the referenced
                            // values.
                            max_abs(&self.coded.values)
                        } else {
                            max_abs(&buf)
                        });
                        coded_uniques.push(complete.then(|| {
                            let spare = self.coded_spare.pop().unwrap_or_default();
                            std::mem::replace(&mut self.coded, spare)
                        }));
                    }
                    groups.push(Ok(uniques.len()));
                    hashes.push(hash);
                    first_pos.push(pos);
                    uniques.push(buf);
                }
            }
        }
        // The hysteresis window's group: a unique of its own sits at fold
        // position `candidates.len()`, past every candidate, so it never
        // tightens a candidate's prune bound.
        let prev_group = prev.and_then(|_| groups.pop());

        // Second pass of quantized mode: build every unique's fixed-point
        // matrix with the sweep-shared step, making all candidate codes
        // directly subtractable for the delta replay.
        let shared_step = weight_step(sweep_peak);
        let quniques: Vec<QuantizedMatrix> = coded_uniques
            .iter()
            .zip(&uniques)
            .map(|(cd, matrix)| match cd {
                Some(c) => QuantizedMatrix::from_level_codes_with_step(
                    &c.codes,
                    &c.values,
                    m_rows,
                    m_cols,
                    shared_step,
                )
                .expect("codes index into their value table"),
                None => QuantizedMatrix::from_f32_with_step(matrix, m_rows, m_cols, shared_step)
                    .expect("candidate matrix sized rows × cols"),
            })
            .collect();
        if p.quantized {
            let fallbacks = coded_uniques.iter().filter(|cd| cd.is_none()).count();
            recorder.counter("mapping.coded_fallbacks", fallbacks as u64);
        }
        self.coded_spare.extend(coded_uniques.into_iter().flatten());
        drop(build_span);

        // Parallel evaluation of the unique matrices on the persistent
        // worker contexts, with exact-bound pruning — except for the unique
        // the hysteresis window maps to, whose accuracy must be exact.
        self.pool.ensure_slots(memaging_par::num_threads());
        let exact = prev_group.as_ref().and_then(|g| g.as_ref().ok().copied());
        let gate = PruneGate::new(&first_pos, exact);
        let pool = &self.pool;
        let generation = self.generation;
        let results: Vec<Result<f64, CrossbarError>> = memaging_par::par_map_init(
            uniques.len(),
            |worker| (worker, lease_synced(pool, worker, generation, software, p)),
            |(worker, lease), u| {
                let ctx = lease.as_mut().expect("populated by lease_synced");
                evaluate_matrix(
                    ctx,
                    &uniques[u],
                    quniques.get(u),
                    prefix,
                    p,
                    sweep_seq,
                    Some((first_pos[u], u, &gate)),
                    recorder,
                    *worker,
                )
            },
        );
        self.layers[p.layer].prefix = Some(cached_prefix);

        // Re-expand unique results to candidate order and fold exactly like
        // the naive sweep. An error is moved out at its first (widest)
        // duplicate position; the fold stops there, so the placeholder left
        // behind is never read — and the hysteresis result, taken after,
        // matters only when the fold succeeded, i.e. met no error.
        let mut unique_results = results;
        let mut take = |u: usize| match &unique_results[u] {
            Ok(a) => Ok(*a),
            Err(_) => std::mem::replace(&mut unique_results[u], Ok(f64::NEG_INFINITY)),
        };
        let per_candidate: Vec<(f64, Result<f64, CrossbarError>)> = groups
            .into_iter()
            .zip(&candidates)
            .map(|(group, &r_max)| (r_max, group.and_then(&mut take)))
            .collect();
        let prev_accuracy = prev_group.map(|group| group.and_then(&mut take));
        for buf in uniques {
            self.arena.give(buf);
        }
        fold_candidates(fresh_r_min, per_candidate.into_iter())
            .map(|selection| (selection, prev_accuracy))
    }

    /// The change stamps: one per layer's trained weights, then the
    /// calibration set's.
    #[cfg(test)]
    pub(crate) fn stamps(&self) -> Vec<u64> {
        self.layers.iter().map(|l| l.changed).chain([self.calib.changed]).collect()
    }

    /// Compares the sweep's inputs against the retained copies bit for bit,
    /// stamping every change: a layer whose trained weights changed drops
    /// its weight sort, and the stamps invalidate exactly the prefix
    /// activations computed from changed inputs.
    fn refresh_keys(&mut self, p: &SweepParams<'_>) {
        if self.layers.len() != p.trained.len() {
            self.layers.clear();
            self.layers.resize_with(p.trained.len(), LayerReuse::default);
        }
        for (layer, trained) in self.layers.iter_mut().zip(p.trained) {
            if !bits_equal(&layer.weights, trained.as_slice()) {
                self.stamp += 1;
                layer.weights.clear();
                layer.weights.extend_from_slice(trained.as_slice());
                layer.changed = self.stamp;
                layer.order = None;
            }
        }
        let (images, key) = (p.data.images(), &mut self.calib);
        let same = key.batch == p.batch
            && key.dims == images.dims()
            && key.labels == p.data.labels()
            && bits_equal(&key.images, images.as_slice());
        if !same {
            self.stamp += 1;
            *key = CalibKey {
                dims: images.dims().to_vec(),
                images: images.as_slice().to_vec(),
                labels: p.data.labels().to_vec(),
                batch: p.batch,
                changed: self.stamp,
            };
        }
    }

    /// The calibration batches forwarded through the unchanged layers
    /// `0..net_layer`, from fully trained weights — reused while neither
    /// those weights nor the calibration set changed (see
    /// [`EvalEngine::refresh_keys`]). In quantized mode each batch's
    /// activation is also quantized once here — every candidate replays
    /// the same integer codes, so the mapped layer's activation
    /// quantization leaves the per-candidate hot path.
    fn prefix_activations(
        &mut self,
        software: &Network,
        p: &SweepParams<'_>,
        recorder: &Recorder,
    ) -> Result<CachedPrefix, CrossbarError> {
        let _span = recorder.span(names::MAP_PREFIX);
        let inputs =
            self.layers[..p.layer].iter().map(|l| l.changed).fold(self.calib.changed, u64::max);
        if let Some(cached) = self.layers[p.layer].prefix.take() {
            if cached.inputs == inputs && cached.quantized == p.quantized {
                return Ok(cached);
            }
        }
        let ctx = self.prefix.get_or_insert_with(|| EvalContext::new(software));
        for (i, t) in p.trained.iter().enumerate() {
            ctx.net.set_weight_matrix(i, t.as_slice())?;
        }
        let mut out = Vec::new();
        for (input, labels) in p.data.batches(p.batch.max(1)) {
            let act = ctx.net.forward_prefix(p.net_layer, &input, Mode::Eval)?;
            let qcodes = if p.quantized {
                let mut codes = Vec::new();
                let step = quantize_acts_into(act.as_slice(), &mut codes);
                let mut codes_t = Vec::new();
                let m = labels.len();
                if m > 0 && codes.len() % m == 0 {
                    transpose_codes(&codes, m, codes.len() / m, &mut codes_t);
                }
                Some(QuantizedBatch { codes, codes_t, step })
            } else {
                None
            };
            out.push(PrefixBatch { act, labels: labels.to_vec(), qcodes });
        }
        Ok(CachedPrefix { inputs, quantized: p.quantized, batches: out })
    }
}

/// A sweep's selection, plus the hysteresis window's exact accuracy when
/// one was given.
pub(crate) type Selected = (RangeSelection, Option<Result<f64, CrossbarError>>);

/// One cached calibration batch of the sweep: the f32 prefix activation,
/// its labels, and (in quantized mode) the integer activation codes shared
/// by every candidate replay.
struct PrefixBatch {
    act: Tensor,
    labels: Vec<usize>,
    qcodes: Option<QuantizedBatch>,
}

/// The quantized form of one prefix batch: row-major codes for the dense
/// kernels, the `k × m` transpose for the sparse-delta kernel, and the
/// shared dequantization step.
struct QuantizedBatch {
    codes: Vec<i16>,
    codes_t: Vec<i16>,
    step: f64,
}

/// Leases worker `worker`'s persistent context, creating it on first use
/// and bringing its weights up to date: a full trained-weight sync on the
/// first lease of a mapping epoch, otherwise only restoring a layer left
/// dirty by a previous sweep.
fn lease_synced<'pool>(
    pool: &'pool SlotPool<EvalContext>,
    worker: usize,
    generation: u64,
    software: &Network,
    p: &SweepParams<'_>,
) -> SlotLease<'pool, EvalContext> {
    let mut lease = pool.lease(worker);
    let ctx = lease.get_or_insert_with(|| EvalContext::new(software));
    if ctx.generation != generation {
        for (i, t) in p.trained.iter().enumerate() {
            ctx.net
                .set_weight_matrix(i, t.as_slice())
                .expect("trained weights match the cloned architecture");
        }
        ctx.generation = generation;
        ctx.dirty = None;
        if p.quantized {
            ctx.qsnap = ctx.net.quantize_weights();
        }
    } else if let Some(d) = ctx.dirty {
        if d != p.layer {
            ctx.net
                .set_weight_matrix(d, p.trained[d].as_slice())
                .expect("trained weights match the cloned architecture");
            ctx.dirty = None;
            if p.quantized && ctx.qsnap.num_layers() == ctx.net.num_layers() {
                let EvalContext { net, qsnap, .. } = &mut *ctx;
                net.requantize_layer(qsnap, d).expect("dirty layer is mappable");
            }
        }
    }
    // Quantized mode switched on after this context last synced: build the
    // snapshot from the (now trained-consistent) f32 weights.
    if p.quantized && ctx.qsnap.num_layers() != ctx.net.num_layers() {
        ctx.qsnap = ctx.net.quantize_weights();
    }
    lease
}

/// The quantized form of one candidate matrix: per-cell `u8` codes into a
/// table of its distinct values (keyed by bit pattern), ready for
/// [`QuantizedMatrix::from_level_codes`].
#[derive(Debug, Default)]
struct CodedMatrix {
    codes: Vec<u8>,
    values: Vec<f32>,
}

/// Value-table entry not yet referenced by the current candidate.
const UNASSIGNED: u16 = u16::MAX;
/// Value-table entry whose value found no free `u8` code.
const NO_CODE: u16 = u16::MAX - 1;
/// Open-addressing slots of the value → code map: twice the 256 codes, so
/// probing always finds a free slot.
const CODE_SLOTS: usize = 512;

/// One layer's cells in ascending weight order: the sort every sweep of
/// the layer starts from. It depends on the trained weights alone, so
/// [`EvalEngine`] keeps it across map epochs while they are unchanged.
#[derive(Debug, Default)]
struct WeightOrder {
    /// The layer's weights in ascending total order (ties by cell index).
    sorted: Vec<f32>,
    /// Cell index of each sorted position.
    cells: Vec<u32>,
}

impl WeightOrder {
    fn new(weights: &[f32]) -> Self {
        let mut cells: Vec<u32> =
            (0..u32::try_from(weights.len()).expect("cell indices fit in u32")).collect();
        cells.sort_unstable_by(|&a, &b| {
            weights[a as usize].total_cmp(&weights[b as usize]).then(a.cmp(&b))
        });
        let sorted = cells.iter().map(|&i| weights[i as usize]).collect();
        WeightOrder { sorted, cells }
    }
}

/// Builds the simulated weight matrix of every candidate of one sweep from
/// sorted level breakpoints (module docs, item 3).
///
/// The naive per-cell chain — `w → g` (eq. 4), nearest fresh level, clamp
/// into the cell's estimated block window, inverse map — gives a level
/// index that is monotone (non-increasing) in the weight: clamp, the affine
/// map, `1/x`, `round` and `min` are each monotone under IEEE rounding. So
/// given the cells sorted by weight ([`WeightOrder`]),
/// [`CandidateBuilder::build`] finds each candidate's level runs with
/// at most `levels` searches over the sorted weights, whose probes
/// evaluate the *same* float expressions as the chain. A cell's value then
/// depends only on its level and its window, and is one of three: the
/// level's unclamped value, or its window's `r_min` / `r_max` value when
/// the clamp bites — each computed once per candidate with the chain's own
/// expressions, so every cell gets the exact bits
/// [`crate::network::simulate_layer_matrix`] computes.
///
/// The tables live in [`EvalEngine`] and are reused by every sweep and
/// candidate, so steady state allocates nothing.
#[derive(Debug, Default)]
struct CandidateBuilder {
    quantizer: Option<Quantizer>,
    /// Resistance of every fresh level, ascending.
    level_r: Vec<f64>,
    /// Block-window index of each sorted position.
    cell_windows: Vec<u32>,
    /// Per block window: the level range `k_lo..k_end` its clamp leaves
    /// alone; lower levels clamp up to its `r_min`, higher ones down to its
    /// `r_max`.
    window_levels: Vec<(usize, usize)>,
    /// Conductance of every value-table entry: `1/r` of each fresh level,
    /// then of each window's `r_min`, then of each window's `r_max`.
    entry_g: Vec<f64>,
    /// Per candidate: the mapped weight of every entry.
    entry_value: Vec<f32>,
    /// Per candidate, quantized mode: the `u8` code of every entry.
    entry_code: Vec<u16>,
    /// Per candidate, quantized mode: value bits → code (`code + 1`, `0`
    /// free), open addressing.
    code_slots: Vec<u16>,
}

impl CandidateBuilder {
    /// Tabulates the fresh levels and the block windows of a layer with
    /// `cols` columns whose cells `order` sorts, for every later
    /// [`CandidateBuilder::build`] over the same order.
    ///
    /// # Panics
    ///
    /// Panics on a window with `r_min > r_max` (or a NaN bound), as the
    /// chain's clamp does.
    fn prepare(
        &mut self,
        order: &WeightOrder,
        cols: usize,
        blocks: &BlockMap,
        spec: &DeviceSpec,
    ) -> Result<(), CrossbarError> {
        let quantizer = Quantizer::from_spec(spec)?;
        self.quantizer = Some(quantizer);
        self.cell_windows.clear();
        self.cell_windows.extend(order.cells.iter().map(|&i| {
            let i = i as usize;
            blocks.window_index(i / cols, i % cols)
        }));

        self.level_r.clear();
        self.level_r.extend((0..quantizer.levels()).map(|k| quantizer.level_resistance(k).value()));
        let (level_r, windows) = (&self.level_r, blocks.windows());
        self.window_levels.clear();
        self.window_levels.extend(windows.iter().map(|win| {
            assert!(
                win.r_min <= win.r_max,
                "block window [{}, {}] is inverted",
                win.r_min,
                win.r_max
            );
            (
                level_r.partition_point(|&r| r < win.r_min),
                level_r.partition_point(|&r| r <= win.r_max),
            )
        }));
        self.entry_g.clear();
        self.entry_g.extend(level_r.iter().map(|&r| 1.0 / r));
        self.entry_g.extend(windows.iter().map(|win| 1.0 / win.r_min));
        self.entry_g.extend(windows.iter().map(|win| 1.0 / win.r_max));
        Ok(())
    }

    /// Fills `out` (cell order) with the simulated matrix of `mapping` over
    /// the weights `order` sorts (the order given to `prepare`).
    /// With `coded`, also fills its per-cell codes and distinct-value table
    /// and returns whether every value got a code: `false` when the matrix
    /// holds more than 256 distinct values, and the caller must quantize
    /// `out` instead. Always `true` without `coded`.
    ///
    /// # Panics
    ///
    /// Panics on a NaN weight, as the chain does: its conductance is no
    /// resistance.
    fn build(
        &mut self,
        order: &WeightOrder,
        mapping: &WeightMapping,
        out: &mut [f32],
        mut coded: Option<&mut CodedMatrix>,
    ) -> bool {
        let WeightOrder { sorted, cells } = order;
        let CandidateBuilder {
            quantizer,
            level_r: _,
            cell_windows,
            window_levels,
            entry_g,
            entry_value,
            entry_code,
            code_slots,
        } = self;
        let quantizer = quantizer.expect("prepare() runs before build()");
        let (levels, n_windows, n) = (quantizer.levels(), window_levels.len(), sorted.len());
        debug_assert_eq!(out.len(), n);
        entry_value.clear();
        entry_value.extend(entry_g.iter().map(|&g| mapping.conductance_to_weight(g) as f32));
        if let Some(c) = coded.as_deref_mut() {
            c.codes.clear();
            c.codes.resize(n, 0);
            c.values.clear();
            entry_code.clear();
            entry_code.resize(entry_g.len(), UNASSIGNED);
            code_slots.clear();
            code_slots.resize(CODE_SLOTS, 0);
        }
        let level = |w: f32| {
            let g = mapping.weight_to_conductance(w as f64);
            quantizer.nearest_level(Ohms::new(1.0 / g).expect("g > 0"))
        };
        let (r0, width) = (quantizer.level_resistance(0).value(), quantizer.level_width());
        let Some(&heaviest) = sorted.last() else {
            return true;
        };
        // Evaluated first so a positive NaN (sorted last) is rejected too.
        let last_level = level(heaviest);
        let mut complete = true;
        let mut start = 0;
        while start < n {
            // Levels fall as weights rise: the run of level `k` ends where
            // the level first drops below it. The search starts where the
            // real-valued chain crosses into level `k - 1`; only the exact
            // probes decide.
            let k = level(sorted[start]);
            let end = if k == last_level {
                n
            } else {
                let crossing = mapping.conductance_to_weight(1.0 / (r0 + (k as f64 - 0.5) * width));
                let guess = sorted.partition_point(|&w| (w as f64) <= crossing);
                run_end(start, guess, n, |pos| level(sorted[pos]) == k)
            };
            for pos in start..end {
                let wi = cell_windows[pos] as usize;
                let (k_lo, k_end) = window_levels[wi];
                let entry = if k < k_lo {
                    levels + wi
                } else if k >= k_end {
                    levels + n_windows + wi
                } else {
                    k
                };
                let cell = cells[pos] as usize;
                out[cell] = entry_value[entry];
                if let Some(c) = coded.as_deref_mut() {
                    if entry_code[entry] == UNASSIGNED {
                        entry_code[entry] = code_for(code_slots, &mut c.values, entry_value[entry]);
                    }
                    match entry_code[entry] {
                        NO_CODE => complete = false,
                        code => c.codes[cell] = code as u8,
                    }
                }
            }
            start = end;
        }
        complete
    }
}

/// The end of the run `start..end` on which `same` holds, for a predicate
/// that holds at `start` and, once false, stays false up to `n`: galloping
/// out from `guess`, then bisecting the last step. A good guess costs two
/// probes; any guess gives the exact end.
fn run_end(start: usize, guess: usize, n: usize, same: impl Fn(usize) -> bool) -> usize {
    let guess = guess.clamp(start + 1, n);
    // Invariant: `same(lo)` holds; `hi == n` or `same(hi)` fails.
    let (mut lo, mut hi) = (start, n);
    let mut step = 1;
    if guess < n && same(guess) {
        lo = guess;
        while lo + step < n {
            if !same(lo + step) {
                hi = lo + step;
                break;
            }
            lo += step;
            step *= 2;
        }
    } else {
        hi = guess;
        while step < hi - lo {
            if same(hi - step) {
                lo = hi - step;
                break;
            }
            hi -= step;
            step *= 2;
        }
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if same(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    hi
}

/// The `u8` code of value `v` in `values` (keyed by bit pattern), appending
/// it when new; [`NO_CODE`] once all 256 codes are taken.
fn code_for(slots: &mut [u16], values: &mut Vec<f32>, v: f32) -> u16 {
    let bits = v.to_bits();
    let mask = slots.len() - 1;
    let mut i = (bits.wrapping_mul(0x9e37_79b9) >> (32 - CODE_SLOTS.trailing_zeros())) as usize;
    loop {
        match slots[i] {
            0 if values.len() == 256 => return NO_CODE,
            0 => {
                values.push(v);
                slots[i] = values.len() as u16;
                return slots[i] - 1;
            }
            s if values[s as usize - 1].to_bits() == bits => return s - 1,
            _ => i = (i + 1) & mask,
        }
    }
}

/// Runs the accuracy pass of one simulated weight matrix on a worker
/// context, replaying cached prefix activations through the suffix layers.
/// With `prune` set, the pass aborts once the remaining samples provably
/// cannot clear the candidate's certified adoption bound; the truncated
/// accuracy (unprocessed samples counted wrong) is reported instead.
///
/// The quantized replay keeps the mapped layer's exact integer
/// pre-activations of the worker's *last fully evaluated candidate*
/// (`EvalContext::qbase`). When the current candidate shares that base's
/// quantization step — guaranteed within a sweep by the shared-step build —
/// and differs in at most a third of its cells, only the changed cells are
/// multiplied (`qdelta_apply_t`); integer distributivity makes the result
/// bit-identical to the full product, so the selection is unchanged no
/// matter which candidates take the shortcut. The anchor advances only
/// after a candidate completes every batch, so prune-aborted candidates
/// (whose later batches were never computed) never pollute it.
#[allow(clippy::too_many_arguments)]
fn evaluate_matrix(
    ctx: &mut EvalContext,
    matrix: &[f32],
    qmat: Option<&QuantizedMatrix>,
    prefix: &[PrefixBatch],
    p: &SweepParams<'_>,
    sweep_seq: u64,
    prune: Option<(usize, usize, &PruneGate)>,
    recorder: &Recorder,
    worker: usize,
) -> Result<f64, CrossbarError> {
    let _span = recorder.worker_span(names::MAP_CANDIDATE, worker);
    if qmat.is_none() {
        // Only the f32 replay reads the mapped layer's f32 weights; the
        // quantized paths leave the network untouched (and clean).
        ctx.net.set_weight_matrix(p.layer, matrix)?;
        ctx.dirty = Some(p.layer);
    }
    // The pre-activation path needs integer codes for every scored batch
    // and an `i32`-safe contraction depth; anything else (deep layers,
    // uncoded batches) falls back to the fused kernels, which read the
    // candidate from the snapshot.
    let pre_path = qmat.is_some_and(|q| q.rows() <= K_CHUNK)
        && prefix.iter().all(|b| b.labels.is_empty() || b.qcodes.is_some());
    let mut use_delta = false;
    if pre_path {
        let q = qmat.expect("pre_path implies a quantized candidate");
        ctx.pre_tmp.resize_with(prefix.len(), Vec::new);
        use_delta = match &ctx.qbase {
            Some(b)
                if b.sweep == sweep_seq
                    && b.layer == p.layer
                    && b.scale_bits == q.scale().to_bits()
                    && b.qt.len() == q.qt().len()
                    && b.pre.len() == prefix.len() =>
            {
                qt_diff_within(&b.qt, q.qt(), q.rows(), q.qt().len() / 3, &mut ctx.deltas)
            }
            _ => false,
        };
        if use_delta && ctx.deltas.is_empty() {
            // Bit-identical codes evaluate bit-identically: report the
            // anchor's exact full accuracy without replaying a single
            // batch. Reporting a full (never truncated) accuracy can only
            // tighten other candidates' prune bounds soundly.
            let accuracy = ctx.qbase.as_ref().expect("use_delta implies an anchor").accuracy;
            if let Some((_, u, gate)) = prune {
                gate.complete(u, accuracy);
            }
            return Ok(accuracy);
        }
    } else if let Some(q) = qmat {
        // Install the pre-built fixed-point candidate; the suffix layers
        // already hold the trained quantized weights (lease_synced).
        ctx.qsnap.set_layer_weights(p.net_layer, q.clone())?;
        ctx.dirty = Some(p.layer);
    }
    let n_total: usize = prefix.iter().map(|b| b.labels.len()).sum();
    if n_total == 0 {
        return Ok(0.0);
    }
    let mut correct = 0.0f64;
    let mut processed = 0usize;
    for (bi, PrefixBatch { act, labels, qcodes }) in prefix.iter().enumerate() {
        if labels.is_empty() {
            continue;
        }
        let m = labels.len();
        let acc = if let Some(q) = qmat {
            let _replay = recorder.worker_span(names::MAP_REPLAY, worker);
            let EvalContext { net, qsnap, qscratch, qbase, deltas, pre_tmp, .. } = &mut *ctx;
            let logits: &[f32] = if pre_path {
                let qb = qcodes.as_ref().expect("pre_path requires coded batches");
                let pre = &mut pre_tmp[bi];
                pre.clear();
                if use_delta {
                    let base = qbase.as_ref().expect("use_delta implies a valid anchor");
                    pre.extend_from_slice(&base.pre[bi]);
                    qdelta_apply_t(&qb.codes_t, m, deltas, pre);
                } else {
                    pre.resize(q.cols() * m, 0);
                    qmm_pre_t_into(&qb.codes, m, q, pre);
                }
                net.forward_from_pre(p.net_layer, qsnap, pre, qb.step * q.scale(), m, qscratch)?
            } else {
                match qcodes {
                    Some(qb) => net.forward_from_prequantized(
                        p.net_layer,
                        qsnap,
                        &qb.codes,
                        qb.step,
                        m,
                        qscratch,
                    )?,
                    None => {
                        net.forward_from_quantized(p.net_layer, qsnap, act.as_slice(), m, qscratch)?
                    }
                }
            };
            let width = logits.len() / m;
            memaging_nn::loss::accuracy_slice(logits, width, labels)?
        } else {
            let logits = {
                let _replay = recorder.worker_span(names::MAP_REPLAY, worker);
                ctx.net.forward_from(p.net_layer, act, Mode::Eval)?
            };
            memaging_nn::loss::accuracy(&logits, labels)?
        };
        correct += acc * labels.len() as f64;
        processed += labels.len();
        if let Some((pos, u, gate)) = prune {
            if processed < n_total && gate.may_prune(u) {
                let upper = (correct + (n_total - processed) as f64) / n_total as f64;
                if upper < gate.bound_before(pos) - PRUNE_SLACK {
                    let truncated = correct / n_total as f64;
                    gate.complete(u, truncated);
                    return Ok(truncated);
                }
            }
        }
    }
    let accuracy = correct / n_total as f64;
    // Every batch completed, so `pre_tmp` holds this candidate's exact
    // integer pre-activations: advance the worker's delta anchor (the old
    // anchor's buffers are recycled through `pre_tmp`).
    if pre_path {
        let q = qmat.expect("pre_path implies a quantized candidate");
        let base = ctx.qbase.get_or_insert_with(|| QBase {
            sweep: 0,
            layer: 0,
            scale_bits: 0,
            qt: Vec::new(),
            pre: Vec::new(),
            accuracy: 0.0,
        });
        base.sweep = sweep_seq;
        base.layer = p.layer;
        base.scale_bits = q.scale().to_bits();
        base.qt.clear();
        base.qt.extend_from_slice(q.qt());
        base.accuracy = accuracy;
        std::mem::swap(&mut base.pre, &mut ctx.pre_tmp);
    }
    if let Some((_, u, gate)) = prune {
        gate.complete(u, accuracy);
    }
    Ok(accuracy)
}

/// Shared prune state: per unique candidate, the reported accuracy once its
/// evaluation completed (possibly truncated), plus each unique's earliest
/// fold position.
///
/// **Safety argument.** Let `T_i = best_i + MIN_IMPROVEMENT` be the
/// adoption threshold the widest-first fold applies at position `i`
/// (non-decreasing in `i`, since the running best only improves). Every
/// *reported* accuracy at a position `j` satisfies `reported_j <= T_i` for
/// all `i > j`: an adopted candidate's accuracy becomes the running best
/// (`<= T_i - MIN_IMPROVEMENT`), a rejected one was `<= T_j <= T_i`, and a
/// truncated one is below the bound it was pruned against (induction).
/// Therefore `bound_before(i) = max` reported accuracy over completed
/// positions `< i` never exceeds `T_i`. A candidate is aborted only when
/// even a perfect score on the remaining samples leaves it strictly below
/// that bound — hence strictly below `T_i` at its own position *and every
/// later duplicate position* — so it could never have been adopted, and
/// reporting its truncated (smaller) accuracy changes no fold decision.
/// Adopted candidates are consequently never truncated: selection, accuracy
/// and `candidates_tried` are bit-identical to the naive sweep. Timing
/// affects only *how early* a doomed candidate stops, never the outcome.
struct PruneGate {
    /// Per unique candidate: reported accuracy bits, or `u64::MAX` (a
    /// negative-NaN pattern no real accuracy produces) while pending.
    accs: Vec<AtomicU64>,
    /// Earliest fold position of each unique candidate.
    first_pos: Vec<usize>,
    /// The unique that must run to completion (the hysteresis window's):
    /// it reports its full accuracy, which the argument above covers.
    exact: Option<usize>,
}

impl PruneGate {
    fn new(first_pos: &[usize], exact: Option<usize>) -> Self {
        PruneGate {
            accs: first_pos.iter().map(|_| AtomicU64::new(u64::MAX)).collect(),
            first_pos: first_pos.to_vec(),
            exact,
        }
    }

    /// Whether unique `unique` may stop early.
    fn may_prune(&self, unique: usize) -> bool {
        self.exact != Some(unique)
    }

    /// Largest reported accuracy among completed uniques whose earliest
    /// fold position precedes `pos` — a certified lower bound on nothing
    /// and upper-bounded by `T_pos` (see the type docs). `-inf` when none
    /// completed yet, which disables pruning.
    fn bound_before(&self, pos: usize) -> f64 {
        let mut bound = f64::NEG_INFINITY;
        for (acc, &fp) in self.accs.iter().zip(&self.first_pos) {
            if fp < pos {
                let bits = acc.load(Ordering::Acquire);
                if bits != u64::MAX {
                    bound = bound.max(f64::from_bits(bits));
                }
            }
        }
        bound
    }

    fn complete(&self, unique: usize, accuracy: f64) {
        self.accs[unique].store(accuracy.to_bits(), Ordering::Release);
    }
}

/// Word-at-a-time multiplicative hash of a candidate matrix's bit patterns:
/// a cheap pre-filter before [`bits_equal`], which alone decides equality,
/// so any hash keeps the dedup exact.
fn hash_bits(values: &[f32]) -> u64 {
    let mix = |h: u64, word: u64| (h.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    let mut pairs = values.chunks_exact(2);
    let hash = (&mut pairs)
        .fold(0, |h, pair| mix(h, (pair[0].to_bits() as u64) << 32 | pair[1].to_bits() as u64));
    pairs.remainder().iter().fold(hash, |h, v| mix(h, v.to_bits() as u64))
}

/// Exact bitwise equality of two matrices (`==` on f32 would conflate
/// `0.0`/`-0.0` and reject equal NaNs; the dedup must be exact).
fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::simulate_layer_matrix;
    use proptest::prelude::*;

    /// A `rows × cols` weight tensor from `weights`, cycled.
    fn tensor(rows: usize, cols: usize, weights: &[f32]) -> Tensor {
        Tensor::from_fn([rows, cols], |i| weights[i % weights.len()])
    }

    /// One estimate per 3×3 block of a `rows × cols` array, its window
    /// made by `window(block)`.
    fn block_estimates(
        rows: usize,
        cols: usize,
        mut window: impl FnMut(usize) -> AgedWindow,
    ) -> Vec<TracedEstimate> {
        let (block_rows, block_cols) = (rows.div_ceil(3), cols.div_ceil(3));
        (0..block_rows * block_cols)
            .map(|b| TracedEstimate {
                row: (b / block_cols) * 3 + 1,
                col: (b % block_cols) * 3 + 1,
                window: window(b),
            })
            .collect()
    }

    fn distinct_bits(values: &[f32]) -> usize {
        let mut bits: Vec<u32> = values.iter().map(|v| v.to_bits()).collect();
        bits.sort_unstable();
        bits.dedup();
        bits.len()
    }

    /// A builder prepared for `trained` over `blocks`, with its weight order.
    fn prepared(trained: &Tensor, blocks: &BlockMap) -> (CandidateBuilder, WeightOrder) {
        let order = WeightOrder::new(trained.as_slice());
        let mut builder = CandidateBuilder::default();
        builder.prepare(&order, trained.dims()[1], blocks, &DeviceSpec::default()).unwrap();
        (builder, order)
    }

    /// Builds `mapping` both ways, f32 and coded, and checks both against
    /// the naive per-cell chain bit for bit.
    fn assert_matches_chain(
        (builder, order): &mut (CandidateBuilder, WeightOrder),
        trained: &Tensor,
        blocks: &BlockMap,
        mapping: &WeightMapping,
    ) {
        let quantizer = Quantizer::from_spec(&DeviceSpec::default()).unwrap();
        let mut want = vec![0.0f32; trained.len()];
        simulate_layer_matrix(trained, mapping, &quantizer, blocks, &mut want);
        let mut got = vec![f32::NAN; trained.len()];
        assert!(
            builder.build(order, mapping, &mut got, None),
            "uncoded builds are always complete"
        );
        assert!(bits_equal(&got, &want), "f32 build diverged from the chain");

        let mut coded = CodedMatrix::default();
        got.fill(f32::NAN);
        let complete = builder.build(order, mapping, &mut got, Some(&mut coded));
        assert!(bits_equal(&got, &want), "coded build diverged from the chain");
        let distinct = distinct_bits(&want);
        assert_eq!(complete, distinct <= 256, "{distinct} distinct values");
        assert_eq!(coded.values.len(), distinct.min(256));
        assert_eq!(distinct_bits(&coded.values), coded.values.len(), "codes key value bits");
        if complete {
            let decoded: Vec<f32> = coded.codes.iter().map(|&c| coded.values[c as usize]).collect();
            assert!(bits_equal(&decoded, &want), "codes decode to the chain's values");
        }
    }

    /// Weights with duplicates, both zero signs, and values beyond any
    /// generated mapping range (infinities included).
    fn weight() -> impl Strategy<Value = f32> {
        (0u8..6, -8i32..=8, -3.0f32..3.0).prop_map(|(kind, k, x)| match kind {
            0 => 0.0,
            1 => -0.0,
            2 => f32::INFINITY,
            3 => f32::NEG_INFINITY,
            4 => k as f32 * 0.25,
            _ => x,
        })
    }

    /// An aged window whose `r_min` may sit above the fresh one (clamping
    /// low levels up) and whose `r_max` may sit below it (clamping high
    /// levels down). Some bounds sit exactly on a fresh level, or a hair
    /// off one, so distinct value-table entries share their value bits.
    fn window() -> impl Strategy<Value = AgedWindow> {
        let spec = DeviceSpec::default();
        let span = spec.r_max - spec.r_min;
        let level = move |k: usize| spec.r_min + k as f64 * spec.level_width();
        (-0.1f64..0.6, 0.02f64..1.2, 0u8..4, 1usize..31).prop_map(move |(lo, width, snap, k)| {
            match snap {
                0 => AgedWindow { r_min: level(k - 1), r_max: level(k) },
                1 => AgedWindow { r_min: level(k - 1) * (1.0 + 1e-13), r_max: level(k) * 1.000001 },
                _ => {
                    let r_min = spec.r_min + lo * span;
                    let r_max = r_min + width * (spec.r_max - r_min).max(0.1 * span);
                    AgedWindow { r_min, r_max }
                }
            }
        })
    }

    /// The weights where the real-valued chain of `mapping` crosses from
    /// one fresh level to the next, with their f32 neighbours: the cells
    /// whose level only the exact float chain can decide.
    fn crossing_weights(mapping: &WeightMapping) -> Vec<f32> {
        let q = Quantizer::from_spec(&DeviceSpec::default()).unwrap();
        let r0 = q.level_resistance(0).value();
        (1..q.levels())
            .flat_map(|k| {
                let r = r0 + (k as f64 - 0.5) * q.level_width();
                let w = mapping.conductance_to_weight(1.0 / r) as f32;
                [f32::from_bits(w.to_bits() - 1), w, f32::from_bits(w.to_bits() + 1)]
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn run_end_finds_the_boundary_from_any_guess(
            n in 1usize..200,
            start_frac in 0.0f64..1.0,
            end_frac in 0.0f64..1.0,
            guess in 0usize..220,
        ) {
            let start = ((n - 1) as f64 * start_frac) as usize;
            let end = start + 1 + ((n - start - 1) as f64 * end_frac).round() as usize;
            prop_assert_eq!(run_end(start, guess, n, |pos| pos < end), end);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn sorted_breakpoint_build_matches_the_per_cell_chain(
            rows in 1usize..13,
            cols in 1usize..13,
            weights in proptest::collection::vec(weight(), 1..40),
            windows in proptest::collection::vec(window(), 1..6),
            lo in -1.5f64..-0.01,
            hi in 0.01f64..1.5,
            r_maxes in proptest::collection::vec(0.05f64..1.0, 1..5),
            crossings in 0u8..2,
        ) {
            let crossings = crossings == 1;
            let spec = DeviceSpec::default();
            let mut weights = weights;
            if crossings {
                // Weights on the level crossings of the first candidate.
                let window = AgedWindow {
                    r_min: spec.r_min,
                    r_max: spec.r_min + r_maxes[0] * (spec.r_max - spec.r_min),
                };
                weights.extend(crossing_weights(&WeightMapping::new(lo, hi, window).unwrap()));
            }
            // Every weight gets a cell.
            let rows = rows.max(weights.len().div_ceil(cols));
            let trained = tensor(rows, cols, &weights);
            // A single window, or block windows cycled from the pool.
            let estimates = block_estimates(rows, cols, |b| windows[b % windows.len()]);
            let blocks = BlockMap::new(rows, cols, &estimates);
            let mut builder = prepared(&trained, &blocks);
            // Several candidates per prepare, as in a sweep.
            for f in r_maxes {
                let window = AgedWindow {
                    r_min: spec.r_min,
                    r_max: spec.r_min + f * (spec.r_max - spec.r_min),
                };
                let mapping = WeightMapping::new(lo, hi, window).unwrap();
                assert_matches_chain(&mut builder, &trained, &blocks, &mapping);
            }
        }
    }

    #[test]
    fn single_window_block_map_matches_the_chain() {
        let spec = DeviceSpec::default();
        let trained = Tensor::from_fn([7, 5], |i| (i as f32 - 17.0) * 0.07);
        let aged = AgedWindow { r_min: spec.r_min * 1.3, r_max: spec.r_max * 0.6 };
        let blocks = BlockMap::new(7, 5, &block_estimates(7, 5, |_| aged));
        assert_eq!(blocks.windows().len(), 1);
        let mut builder = prepared(&trained, &blocks);
        let mapping =
            WeightMapping::new(-1.0, 1.0, AgedWindow { r_min: spec.r_min, r_max: spec.r_max })
                .unwrap();
        assert_matches_chain(&mut builder, &trained, &blocks, &mapping);
    }

    #[test]
    fn more_than_256_distinct_values_fall_back_exactly() {
        // 256 blocks, each with its own window clamping both ends: far more
        // than 256 distinct mapped values.
        let spec = DeviceSpec::default();
        let span = spec.r_max - spec.r_min;
        let (rows, cols) = (48, 48);
        let estimates = block_estimates(rows, cols, |b| AgedWindow {
            r_min: spec.r_min + (0.05 + 0.001 * b as f64) * span,
            r_max: spec.r_max - (0.05 + 0.0013 * b as f64) * span,
        });
        let blocks = BlockMap::new(rows, cols, &estimates);
        let trained = Tensor::from_fn([rows, cols], |i| ((i * 37) % 101) as f32 / 50.0 - 1.0);
        let mapping =
            WeightMapping::new(-1.0, 1.0, AgedWindow { r_min: spec.r_min, r_max: spec.r_max })
                .unwrap();
        let quantizer = Quantizer::from_spec(&spec).unwrap();
        let mut want = vec![0.0f32; rows * cols];
        simulate_layer_matrix(&trained, &mapping, &quantizer, &blocks, &mut want);
        assert!(distinct_bits(&want) > 256, "the case must exceed the code space");
        let mut builder = prepared(&trained, &blocks);
        assert_matches_chain(&mut builder, &trained, &blocks, &mapping);
    }

    #[test]
    fn a_nan_weight_is_rejected_not_mapped() {
        // The per-cell chain rejects a NaN weight (its conductance is no
        // resistance); the builder must too, whichever end of the sorted
        // order the NaN's sign puts it at.
        let spec = DeviceSpec::default();
        let quantizer = Quantizer::from_spec(&spec).unwrap();
        let mapping =
            WeightMapping::new(-1.0, 1.0, AgedWindow { r_min: spec.r_min, r_max: spec.r_max })
                .unwrap();
        for nan in [f32::NAN, -f32::NAN] {
            let trained = tensor(3, 4, &[0.5, -0.25, nan, 0.0, 1.0, -1.0]);
            let blocks = BlockMap::new(
                3,
                4,
                &block_estimates(3, 4, |_| AgedWindow { r_min: spec.r_min, r_max: spec.r_max }),
            );
            let chain = std::panic::catch_unwind(|| {
                let mut out = vec![0.0f32; 12];
                simulate_layer_matrix(&trained, &mapping, &quantizer, &blocks, &mut out);
            });
            assert!(chain.is_err(), "the chain rejects a NaN weight");
            let (mut builder, order) = prepared(&trained, &blocks);
            let built = std::panic::catch_unwind(move || {
                let mut out = vec![0.0f32; 12];
                builder.build(&order, &mapping, &mut out, None);
            });
            assert!(built.is_err(), "a NaN weight must not be mapped silently");
        }
    }

    #[test]
    fn prune_gate_bound_ignores_pending_and_later_positions() {
        let gate = PruneGate::new(&[0, 3, 7], None);
        assert_eq!(gate.bound_before(0), f64::NEG_INFINITY);
        gate.complete(1, 0.9); // first_pos 3
        assert_eq!(gate.bound_before(3), f64::NEG_INFINITY, "own position excluded");
        assert_eq!(gate.bound_before(4), 0.9);
        gate.complete(0, 0.5);
        assert_eq!(gate.bound_before(1), 0.5);
        assert_eq!(gate.bound_before(8), 0.9);
    }

    #[test]
    fn exact_bound_boundary_does_not_prune() {
        // The certified bound equals the reachable upper bound exactly:
        // upper == bound must NOT prune (upper < bound - slack is false).
        let gate = PruneGate::new(&[0, 1], None);
        gate.complete(0, 0.6);
        let bound = gate.bound_before(1);
        let upper = 0.6; // remaining samples could exactly reach the bound
        assert!(upper >= bound - PRUNE_SLACK, "an exactly reachable bound must keep evaluating");
        // Strictly below the slack margin prunes.
        assert!(0.6 - 1e-6 < bound - PRUNE_SLACK);
    }

    #[test]
    fn hash_and_bitwise_dedup_distinguish_zero_signs() {
        let a = vec![0.0f32, 1.0];
        let b = vec![-0.0f32, 1.0];
        assert!(bits_equal(&a, &a.clone()));
        assert!(!bits_equal(&a, &b), "dedup must be exact, not ==");
        assert_ne!(hash_bits(&a), hash_bits(&b));
    }
}
