//! The `lifetime_quick` workload: the paper's pipeline on
//! `Scenario::quick()`, all three strategies, over a fixed panel of
//! seeds run in an order made from the workload seed. One request is one
//! seed's three-strategy
//! comparison (what `memaging scenario quick --strategy all --seed s`
//! runs).

use std::time::Instant;

use memaging::dataset::Dataset;
use memaging::lifetime::{run_lifetime_with_recorder, LifetimeConfig, LifetimeResult, Strategy};
use memaging::obs::Recorder;
use memaging::Scenario;

use crate::report::{median, peak_rss_mb, Checks, Metrics, Percentiles, Tally};
use crate::trace::{memory_recorder, Folded};
use crate::{mix, Options, Outcome};

/// The simulated statistics of one strategy run, which must repeat
/// exactly.
#[derive(Debug, Clone, PartialEq)]
struct Simulated {
    applications: u64,
    failed: bool,
    /// Per session: tuning iterations and pulses.
    sessions: Vec<(usize, u64)>,
    /// Sum of post-tuning session accuracies.
    accuracy_sum: f64,
}

impl Simulated {
    fn of(result: &LifetimeResult) -> Simulated {
        Simulated {
            applications: result.lifetime_applications,
            failed: result.failed,
            sessions: result
                .sessions
                .iter()
                .map(|s| (s.tuning_iterations, s.tuning_pulses))
                .collect(),
            accuracy_sum: result.sessions.iter().map(|s| s.accuracy).sum(),
        }
    }
}

/// One seed's three runs, in `Strategy::ALL` order (`None` = errored).
type SeedRuns = Vec<Option<Simulated>>;

/// Timed calls of one pass.
#[derive(Default)]
struct Pass {
    wall_s: f64,
    seed_s: Vec<f64>,
    train_model_ms: Vec<f64>,
    run_ms: Vec<f64>,
    tally: Tally,
    runs: Vec<SeedRuns>,
}

struct Inputs {
    scenario: Scenario,
    train: Dataset,
    calib: Dataset,
}

fn dataset() -> Result<Inputs, String> {
    let scenario = Scenario::quick();
    let data = scenario.dataset().map_err(|e| e.to_string())?;
    let (train, calib) = scenario.train_calib_split(&data).map_err(|e| e.to_string())?;
    Ok(Inputs { scenario, train, calib })
}

/// Trains and simulates every strategy for `seed`, timing each call.
fn run_seed(inputs: &Inputs, seed: u64, recorder: &Recorder, pass: &mut Pass) -> SeedRuns {
    let framework = inputs.scenario.framework.clone().with_recorder(recorder.clone());
    let started = Instant::now();
    let runs = Strategy::ALL
        .iter()
        .map(|&strategy| {
            let t = Instant::now();
            let trained = framework.train_model(&inputs.train, strategy, seed).ok()?;
            pass.train_model_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let config = LifetimeConfig { strategy, seed, ..framework.lifetime };
            let t = Instant::now();
            let result = run_lifetime_with_recorder(
                trained.network,
                framework.spec,
                framework.aging,
                &inputs.calib,
                &config,
                recorder,
            );
            pass.run_ms.push(t.elapsed().as_secs_f64() * 1e3);
            result.ok().map(|r| Simulated::of(&r))
        })
        .collect::<SeedRuns>();
    pass.seed_s.push(started.elapsed().as_secs_f64());
    for run in &runs {
        pass.tally.record(run.is_some());
    }
    runs
}

/// The seed panel: seeds `1..=n`, run in an order made from the workload
/// seed. The panel is the same for every workload seed because a
/// seed's lifetime length, and with it the work, differs by seed: a
/// panel drawn from the workload seed moved the median per-seed time by
/// about 11% between runs, which would hide any smaller regression.
fn panel(opts: &Options) -> Vec<u64> {
    let mut seeds: Vec<u64> = (1..=opts.size.lifetime_seeds as u64).collect();
    seeds.sort_by_key(|&s| mix(opts.seed, s));
    seeds
}

/// Runs whole passes over the panel until `min_seconds` are used (at
/// least one), checking every repeat of a seed against its first run.
fn pass(
    inputs: &Inputs,
    seeds: &[u64],
    recorder: &Recorder,
    min_seconds: f64,
    reference: &mut Vec<SeedRuns>,
    checks: &mut Checks,
) -> Pass {
    let mut out = Pass::default();
    let started = Instant::now();
    loop {
        for (slot, &seed) in seeds.iter().enumerate() {
            let runs = run_seed(inputs, seed, recorder, &mut out);
            match reference.get(slot) {
                Some(want) => checks.check(*want == runs, || {
                    format!(
                        "lifetime_quick: seed {seed} simulated different statistics on a repeat"
                    )
                }),
                None => reference.push(runs.clone()),
            }
            if out.runs.len() < seeds.len() {
                out.runs.push(runs);
            }
        }
        if started.elapsed().as_secs_f64() >= min_seconds {
            break;
        }
    }
    out.wall_s = started.elapsed().as_secs_f64();
    out
}

/// Median over seeds of `strategy`'s lifetime applications over T+T's.
fn gain(runs: &[SeedRuns], strategy: usize) -> f64 {
    let ratios: Vec<f64> = runs
        .iter()
        .filter_map(|r| match (&r[0], &r[strategy]) {
            (Some(tt), Some(other)) => {
                Some(other.applications as f64 / tt.applications.max(1) as f64)
            }
            _ => None,
        })
        .collect();
    median(&ratios)
}

/// Runs `lifetime_quick`.
///
/// # Errors
///
/// When dataset generation or the trace fold fails.
pub fn run(opts: &Options, checks: &mut Checks) -> Result<Outcome, String> {
    let mut setup_s = Vec::with_capacity(opts.size.setup_reps);
    let mut inputs = None;
    for _ in 0..opts.size.setup_reps.max(1) {
        let started = Instant::now();
        let generated = dataset()?;
        setup_s.push(started.elapsed().as_secs_f64());
        inputs.get_or_insert(generated);
    }
    let inputs = inputs.expect("at least one set-up repetition");
    let seeds = panel(opts);
    let mut reference = Vec::new();
    let mut outcome = Outcome::default();
    if !opts.trace {
        // Whole passes only, so every seed weighs the same in the medians;
        // the panel fills about half the run time or more.
        let budget = opts.seconds / 2.0;
        let p = pass(&inputs, &seeds, &Recorder::disabled(), budget, &mut reference, checks);
        let sessions: usize = p.runs.iter().flatten().flatten().map(|s| s.sessions.len()).sum();
        let accuracy: f64 = p.runs.iter().flatten().flatten().map(|s| s.accuracy_sum).sum();
        outcome.tally = p.tally;
        let e2e = &mut outcome.metrics;
        e2e.set("setup_s", median(&setup_s), "s");
        // One client, one request at a time: throughput is the inverse of
        // the per-request time, taken at the median like the serve
        // workloads' per-episode figures.
        let lat = Percentiles::of(&mut p.seed_s.iter().map(|s| s * 1e6).collect::<Vec<_>>());
        e2e.set("throughput_rps", 1e6 / lat.p50, "1/s");
        e2e.set("e2e_p50_us", lat.p50, "us");
        e2e.set("success_frac", p.tally.succeeded as f64 / p.tally.sent as f64, "ratio");
        e2e.set("serve_accuracy", accuracy / sessions.max(1) as f64, "ratio");
        e2e.set("peak_rss_mb", peak_rss_mb().ok_or("peak RSS is not reported")?, "MB");
        outcome.notes.push(format!(
            "lifetime_quick: {} seed runs over a panel of {} seeds; e2e_p99_us = {} us (p{:.1})",
            lat.n,
            seeds.len(),
            lat.tail,
            100.0 * lat.tail_q
        ));
        return Ok(outcome);
    }

    let untraced = pass(&inputs, &seeds, &Recorder::disabled(), 0.0, &mut reference, checks);
    let (recorder, handle) = memory_recorder();
    let traced = pass(&inputs, &seeds, &recorder, 0.0, &mut reference, checks);
    drop(recorder);
    let folded = Folded::collect(&handle)?;
    outcome.tally = traced.tally;
    let layers: &mut Metrics = &mut outcome.metrics;
    folded.layer_metrics(layers);
    layers.set("nn.train_model_ms", median(&traced.train_model_ms), "ms");
    layers.set("lifetime.run_ms", median(&traced.run_ms), "ms");
    layers.set("seed_s_p50", median(&traced.seed_s), "s");
    layers.set("lifetime_gain_stt", gain(&traced.runs, 1), "ratio");
    layers.set("lifetime_gain_stat", gain(&traced.runs, 2), "ratio");
    layers.set("obs.trace_overhead_frac", traced.wall_s / untraced.wall_s - 1.0, "ratio");
    let mut untraced_us: Vec<f64> = untraced.seed_s.iter().map(|s| s * 1e6).collect();
    layers.set("e2e_p99_us", Percentiles::of(&mut untraced_us).tail, "us");
    Ok(outcome)
}
