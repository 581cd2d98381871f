//! `membench`: the repository benchmark. One command runs one workload
//! for a fixed time from a seed, checks the program's outputs, and prints
//! every end-to-end metric (untraced run) or every per-layer metric
//! (traced run) as one JSON line. See `README.md` in this directory for
//! why each workload exists and which layer metric should move which
//! end-to-end metric.

pub mod lifetime;
pub mod report;
pub mod serve;
pub mod trace;

use report::{Checks, Metrics, Tally};

/// End-to-end metrics (untraced run) and their units; every workload
/// reports every one of them.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("e2e_p50_us", "us"),
    ("success_frac", "ratio"),
    ("serve_accuracy", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced run) and their units. A layer that does not
/// run on a workload reports zero.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("serve.linger_us.p50", "us"),
    ("serve.queue_wait_us.p50", "us"),
    ("serve.queue_wait_us.p99", "us"),
    ("serve.boundary.busy_ms", "ms"),
    ("serve.boundary.self_frac", "ratio"),
    ("serve.remap.busy_ms", "ms"),
    ("serve.forward_us.p50", "us"),
    ("serve.batch_size.mean", "count"),
    ("serve.batch_fill", "ratio"),
    ("serve.request.self_frac", "ratio"),
    ("serve.boundaries", "count"),
    ("serve.remaps", "count"),
    ("serve.deploy_ms", "ms"),
    ("fleet.deploy_ms", "ms"),
    ("fleet.retires", "count"),
    ("fleet.routed_max_share", "ratio"),
    ("fleet.queue_wait_us.p99", "us"),
    ("crossbar.read_disturb.busy_ms", "ms"),
    ("crossbar.map.busy_ms", "ms"),
    ("crossbar.map.sweep.busy_ms", "ms"),
    ("crossbar.map.candidate.count", "count"),
    ("crossbar.map.candidate_eval_frac", "ratio"),
    ("crossbar.map.cells_skipped_frac", "ratio"),
    ("crossbar.tune.busy_ms", "ms"),
    ("crossbar.tune.iterations", "count"),
    ("crossbar.tune.pulses", "count"),
    ("crossbar.evaluate.busy_ms", "ms"),
    ("nn.train.busy_ms", "ms"),
    ("nn.train.epochs", "count"),
    ("nn.train_model_ms", "ms"),
    ("lifetime.run_ms", "ms"),
    ("lifetime.sessions", "count"),
    ("lifetime.remaps", "count"),
    ("obs.trace_overhead_frac", "ratio"),
    ("requests.sent", "count"),
    ("requests.succeeded", "count"),
    ("requests.failed", "count"),
    ("fail_frac", "ratio"),
    ("wear_stress_per_kreq", "s"),
    ("fleet_wear_imbalance", "ratio"),
    ("seed_s_p50", "s"),
    ("lifetime_gain_stat", "ratio"),
    ("lifetime_gain_stt", "ratio"),
    ("obs.trace_events", "count"),
    ("e2e_p99_us", "us"),
];

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One `InferenceService` replica, one closed-loop client.
    Serve1c,
    /// A 4-replica `FleetService`, two closed-loop clients.
    Fleet2c,
    /// The lifetime pipeline over a seed panel.
    LifetimeQuick,
}

impl Workload {
    /// Every workload with its name.
    pub const ALL: [(Workload, &'static str); 3] = [
        (Workload::Serve1c, "serve_1c"),
        (Workload::Fleet2c, "fleet_2c"),
        (Workload::LifetimeQuick, "lifetime_quick"),
    ];

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.iter().find(|(_, n)| *n == name).map(|&(w, _)| w)
    }
}

/// How much work one episode, panel and set-up holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    /// Requests per `serve_1c` episode.
    pub serve_requests: usize,
    /// Requests per `fleet_2c` episode (split over its clients).
    pub fleet_requests: usize,
    /// Seeds in the `lifetime_quick` panel.
    pub lifetime_seeds: usize,
    /// Set-up repetitions whose median is `setup_s`.
    pub setup_reps: usize,
}

impl Size {
    /// The benchmark's sizes.
    pub const FULL: Size =
        Size { serve_requests: 1024, fleet_requests: 1024, lifetime_seeds: 12, setup_reps: 9 };
    /// A reduced size for smoke tests.
    pub const SMOKE: Size =
        Size { serve_requests: 256, fleet_requests: 256, lifetime_seeds: 1, setup_reps: 1 };
}

/// One run's settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Options {
    /// The workload seed all inputs are made from.
    pub seed: u64,
    /// How long the untraced measurement runs.
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Work sizes.
    pub size: Size,
}

/// What a workload hands back.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations of the reported pass.
    pub tally: Tally,
    /// The reported metrics.
    pub metrics: Metrics,
    /// Human-readable context lines.
    pub notes: Vec<String>,
}

/// A finished run: the outcome plus the verdict of its checks.
pub struct Run {
    /// Whether every correctness check passed.
    pub correct: bool,
    /// The failed checks.
    pub failures: Vec<String>,
    /// The reported metrics, tallies and notes.
    pub outcome: Outcome,
}

/// SplitMix64 of `seed` and `stream`: the benchmark's only source of
/// randomness, so a seed always makes the same inputs.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Runs `workload` and completes its metric set: a traced run also
/// reports its tallies, and zero for every layer that did not run.
///
/// # Errors
///
/// When the workload cannot run at all (training, deployment or the trace
/// fold failed).
///
/// # Panics
///
/// When the workload reports a metric outside the declared sets, or
/// misses an end-to-end one: a bug in the benchmark.
pub fn run(workload: Workload, opts: &Options) -> Result<Run, String> {
    let mut checks = Checks::default();
    let mut outcome = match workload {
        Workload::Serve1c => serve::run(serve::Kind::Single, opts, &mut checks)?,
        Workload::Fleet2c => serve::run(serve::Kind::Fleet, opts, &mut checks)?,
        Workload::LifetimeQuick => lifetime::run(opts, &mut checks)?,
    };
    let tally = outcome.tally;
    checks.check(tally.sent > 0 && tally.balanced(), || {
        format!(
            "{} operations sent, {} succeeded, {} failed",
            tally.sent, tally.succeeded, tally.failed
        )
    });
    let declared: &[(&str, &str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    if opts.trace {
        let m = &mut outcome.metrics;
        m.set("requests.sent", tally.sent as f64, "count");
        m.set("requests.succeeded", tally.succeeded as f64, "count");
        m.set("requests.failed", tally.failed as f64, "count");
        m.set("fail_frac", tally.fail_frac(), "ratio");
        for &(name, unit) in &PER_LAYER {
            if m.get(name).is_none() {
                m.set(name, 0.0, unit);
            }
        }
    }
    for (name, _, unit) in outcome.metrics.iter() {
        assert!(declared.contains(&(name, unit)), "undeclared metric `{name}` ({unit})");
    }
    for &(name, _) in declared {
        assert!(outcome.metrics.get(name).is_some(), "metric `{name}` was not reported");
    }
    Ok(Run { correct: checks.passed(), failures: checks.failures().to_vec(), outcome })
}
