//! The traced run's data: a [`Recorder`] feeding a [`MemorySink`], folded
//! after the run with the program's own offline analyzer.

use std::collections::BTreeMap;

use memaging::obs::{Event, MemoryHandle, MemorySink, Recorder};
use memaging::{analyze_lines, AnalyzeOptions, TraceAnalysis};

use crate::report::{quantile, Metrics};

/// A recorder whose every event is kept in memory.
pub fn memory_recorder() -> (Recorder, MemoryHandle) {
    let (sink, handle) = MemorySink::new();
    (Recorder::new(vec![Box::new(sink)]), handle)
}

/// The spans, counters and observations of one traced pass.
pub struct Folded {
    analysis: TraceAnalysis,
    observations: BTreeMap<String, Vec<f64>>,
}

impl Folded {
    /// Folds the events collected by `handle`: spans and counters through
    /// [`analyze_lines`], histogram observations kept as raw samples.
    ///
    /// # Errors
    ///
    /// When the analyzer rejects the event stream.
    pub fn collect(handle: &MemoryHandle) -> Result<Folded, String> {
        let events = handle.events();
        let mut observations: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for event in &events {
            if let Event::Observation { name, value, .. } = event {
                observations.entry(name.clone()).or_default().push(*value);
            }
        }
        let lines: Vec<String> = events.iter().map(Event::to_json).collect();
        let analysis = analyze_lines(
            "membench",
            lines.iter().map(String::as_str),
            &AnalyzeOptions::default(),
        )?;
        Ok(Folded { analysis, observations })
    }

    fn phase(&self, span: &str) -> (u64, u64, u64) {
        self.analysis
            .phases
            .iter()
            .find(|p| p.name == span)
            .map_or((0, 0, 0), |p| (p.count, p.total_us, p.self_us))
    }

    /// Number of `span` spans.
    pub fn span_count(&self, span: &str) -> u64 {
        self.phase(span).0
    }

    /// Summed duration of every `span` span, milliseconds.
    pub fn busy_ms(&self, span: &str) -> f64 {
        self.phase(span).1 as f64 / 1e3
    }

    /// Share of `span`'s time not covered by its child spans (0 when the
    /// span never ran).
    pub fn self_frac(&self, span: &str) -> f64 {
        let (_, total, own) = self.phase(span);
        if total == 0 {
            0.0
        } else {
            own as f64 / total as f64
        }
    }

    /// Final total of a counter (0 when it never moved).
    pub fn counter(&self, name: &str) -> u64 {
        self.analysis.counters.get(name).copied().unwrap_or(0)
    }

    /// Nearest-rank quantile `q` of histogram `name`'s observations (0
    /// when none).
    pub fn observed_quantile(&self, name: &str, q: f64) -> f64 {
        let mut values = self.observations.get(name).cloned().unwrap_or_default();
        values.sort_by(f64::total_cmp);
        quantile(&values, q)
    }

    /// Mean of histogram `name`'s observations (0 when none).
    pub fn observed_mean(&self, name: &str) -> f64 {
        match self.observations.get(name) {
            Some(v) if !v.is_empty() => v.iter().sum::<f64>() / v.len() as f64,
            _ => 0.0,
        }
    }

    /// Sets the per-layer metrics every workload reports from its trace:
    /// training, mapping, tuning, evaluation, and the lifetime simulator's
    /// counters. A layer that did not run reports zero.
    pub fn layer_metrics(&self, out: &mut Metrics) {
        out.set("nn.train.busy_ms", self.busy_ms("train"), "ms");
        out.set("nn.train.epochs", self.counter("train.epochs") as f64, "count");
        out.set("crossbar.map.busy_ms", self.busy_ms("map"), "ms");
        out.set("crossbar.map.sweep.busy_ms", self.busy_ms("map.sweep"), "ms");
        let candidates = self.span_count("map.candidate");
        out.set("crossbar.map.candidate.count", candidates as f64, "count");
        let tried = self.counter("mapping.candidates_tried");
        let eval_frac = if tried == 0 { 0.0 } else { candidates as f64 / tried as f64 };
        out.set("crossbar.map.candidate_eval_frac", eval_frac, "ratio");
        let skipped = self.counter("mapping.cells_skipped");
        let written = skipped + self.counter("mapping.cells_programmed");
        let skipped_frac = if written == 0 { 0.0 } else { skipped as f64 / written as f64 };
        out.set("crossbar.map.cells_skipped_frac", skipped_frac, "ratio");
        out.set("crossbar.read_disturb.busy_ms", self.busy_ms("tile.read_disturb"), "ms");
        out.set("crossbar.tune.busy_ms", self.busy_ms("tune"), "ms");
        out.set("crossbar.tune.iterations", self.counter("tuner.iterations") as f64, "count");
        out.set("crossbar.tune.pulses", self.counter("tuner.pulses") as f64, "count");
        out.set("crossbar.evaluate.busy_ms", self.busy_ms("evaluate"), "ms");
        out.set("lifetime.sessions", self.counter("lifetime.sessions") as f64, "count");
        out.set("lifetime.remaps", self.counter("lifetime.remaps") as f64, "count");
        out.set("obs.trace_events", self.analysis.events as f64, "count");
    }

    /// Sets the serving-tier per-layer metrics (zero where the serving
    /// tier did not run). `max_batch` is the configured batch limit.
    pub fn serve_metrics(&self, max_batch: usize, out: &mut Metrics) {
        out.set("serve.linger_us.p50", self.observed_quantile("serve.linger_us", 0.5), "us");
        out.set(
            "serve.queue_wait_us.p50",
            self.observed_quantile("serve.queue_wait_us", 0.5),
            "us",
        );
        out.set(
            "serve.queue_wait_us.p99",
            self.observed_quantile("serve.queue_wait_us", 0.99),
            "us",
        );
        out.set("serve.forward_us.p50", self.observed_quantile("serve.service_us", 0.5), "us");
        let batch = self.observed_mean("serve.batch_size");
        out.set("serve.batch_size.mean", batch, "count");
        out.set("serve.batch_fill", batch / max_batch as f64, "ratio");
        out.set("serve.boundary.busy_ms", self.busy_ms("serve.boundary"), "ms");
        out.set("serve.boundary.self_frac", self.self_frac("serve.boundary"), "ratio");
        out.set("serve.remap.busy_ms", self.busy_ms("serve.remap"), "ms");
        out.set("serve.request.self_frac", self.self_frac("serve.request"), "ratio");
    }
}
