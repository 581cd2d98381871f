//! The two serving workloads: `serve_1c` (one `InferenceService`
//! replica, one closed-loop client) and `fleet_2c` (a 4-replica
//! `FleetService`, two closed-loop clients).
//!
//! A run repeats *episodes* until its time is used: each episode deploys
//! fresh hardware from the trained model and sends a fixed request
//! sequence made from the workload seed. The read-disturb stress is
//! calibrated to that fixed length, so the warn threshold crosses
//! mid-episode however fast the program serves.

use std::time::Instant;

use memaging::crossbar::CrossbarNetwork;
use memaging::dataset::Dataset;
use memaging::device::{ArrheniusAging, DeviceSpec};
use memaging::fleet::{FleetConfig, FleetReport, FleetService, RouterPolicy};
use memaging::lifetime::{Strategy, WearLedger};
use memaging::nn::Network;
use memaging::obs::Recorder;
use memaging::serve::{InferRequest, InferResponse, InferenceService, ServeConfig, ServeError};
use memaging::Scenario;

use crate::report::{median, peak_rss_mb, Checks, Percentiles, Tally};
use crate::trace::{memory_recorder, Folded};
use crate::{mix, Options, Outcome};

/// `serve_1c`'s maintenance interval (the `ServeConfig` default): a live
/// remap finishes well inside one interval, so a host that runs slower
/// for a while stretches the boundary waits instead of queueing the next
/// boundary behind an unfinished remap.
const SERVE_INTERVAL: u64 = 64;
/// `fleet_2c`'s maintenance interval, which is also the router's block
/// quantum: 32 blocks per episode, 8 per replica.
const FLEET_INTERVAL: u64 = 32;
/// Replicas of the `fleet_2c` fleet.
const REPLICAS: usize = 4;
/// Per-replica read-disturb multipliers of the heterogeneous fleet.
const STRESS_SCALE: [f64; REPLICAS] = [1.0, 1.6, 0.7, 1.3];
/// Closed-loop clients of `fleet_2c`.
const FLEET_CLIENTS: usize = 2;

/// The trained model every episode deploys, with its calibration set.
struct Model {
    network: Network,
    calib: Dataset,
    spec: DeviceSpec,
    aging: ArrheniusAging,
}

/// Dataset generation and training (`Scenario::quick()`, T+T).
fn train(recorder: &Recorder) -> Result<Model, String> {
    let scenario = Scenario::quick();
    let framework = scenario.framework.clone().with_recorder(recorder.clone());
    let data = scenario.dataset().map_err(|e| e.to_string())?;
    let (train, calib) = scenario.train_calib_split(&data).map_err(|e| e.to_string())?;
    let model =
        framework.train_model(&train, Strategy::TT, scenario.seed).map_err(|e| e.to_string())?;
    Ok(Model { network: model.network, calib, spec: framework.spec, aging: framework.aging })
}

/// Read-disturb stress per request that wears the fresh window by 55%
/// over `reads` reads: the shared warn threshold (half the window)
/// crosses before the end of the episode.
fn stress_per_read(model: &Model, reads: f64) -> f64 {
    let width = model.spec.r_max - model.spec.r_min;
    model.aging.stress_for_degradation(model.spec.temperature, 0.55 * width) / reads
}

fn serve_config(model: &Model, requests: usize) -> ServeConfig {
    ServeConfig {
        maintenance_interval: SERVE_INTERVAL,
        stress_per_read: stress_per_read(model, requests as f64 / 2.0),
        ..ServeConfig::default()
    }
}

fn fleet_config(model: &Model, requests: usize) -> FleetConfig {
    let serve = ServeConfig {
        maintenance_interval: FLEET_INTERVAL,
        stress_per_read: stress_per_read(model, requests as f64 / REPLICAS as f64 / 2.0),
        quantized: true,
        ..ServeConfig::default()
    };
    // Retiring on, with the default sit-out and cooldown: each replica
    // retires at most once per episode, so forced remaps do not crowd
    // out the serving threads on a small host.
    FleetConfig {
        router: RouterPolicy::WearBalance,
        stress_scale: STRESS_SCALE.to_vec(),
        retire_fraction: 0.75,
        ..FleetConfig::new(REPLICAS, serve)
    }
}

/// One request of the generated load: input features and true label.
type Sample = (Vec<f32>, usize);

/// `n` calibration samples picked by `stream` of the workload seed.
fn requests(calib: &Dataset, seed: u64, stream: u64, n: usize) -> Vec<Sample> {
    let mut state = mix(seed, stream);
    (0..n)
        .map(|_| {
            state = mix(state, 0);
            let i = (state % calib.len() as u64) as usize;
            (calib.batch_matrix(i, i + 1).as_slice().to_vec(), calib.labels()[i])
        })
        .collect()
}

/// One client's view of one request.
struct Served {
    latency_us: f64,
    label: usize,
    result: Result<InferResponse, ServeError>,
}

/// Sends `load` one request at a time through `infer`.
fn closed_loop(
    load: &[Sample],
    infer: impl Fn(InferRequest) -> Result<InferResponse, ServeError>,
) -> Vec<Served> {
    load.iter()
        .map(|(input, label)| {
            let started = Instant::now();
            let result = infer(InferRequest::new(input.clone()));
            Served { latency_us: started.elapsed().as_secs_f64() * 1e6, label: *label, result }
        })
        .collect()
}

/// Index of the first largest logit.
fn argmax(output: &[f32]) -> usize {
    let mut best = 0;
    for (i, &v) in output.iter().enumerate() {
        if v > output[best] {
            best = i;
        }
    }
    best
}

/// Checks a ledger against the final hardware stress, bit for bit.
fn check_ledger(checks: &mut Checks, what: &str, ledger: &WearLedger, network: &CrossbarNetwork) {
    let stress = network.tile_stress();
    let attributed = ledger.attributed();
    checks.check(attributed.len() == stress.len(), || {
        format!("{what}: ledger covers {} tiles, hardware has {}", attributed.len(), stress.len())
    });
    for (t, (a, s)) in attributed.iter().zip(&stress).enumerate() {
        checks.check(a.to_bits() == s.to_bits(), || {
            format!("{what}: tile {t} attributed {a:e} != accrued {s:e}")
        });
    }
}

/// What must repeat bit for bit between episodes of one run.
#[derive(Debug, Clone, PartialEq)]
enum Fingerprint {
    /// Every response in admission order, plus the final tile stress.
    Outputs { responses: Vec<(u64, u64, usize, Vec<u32>)>, stress: Vec<u64> },
    /// Per-replica final tile stress (admission order is racy, wear is
    /// keyed to the admitted count).
    Wear(Vec<Vec<u64>>),
}

/// One deployed-and-drained episode.
struct Episode {
    deploy_ms: f64,
    /// Wall time of the request loop alone.
    load_s: f64,
    served: Vec<Served>,
    boundaries: u64,
    remaps: u64,
    /// Ledger-attributed stress, summed over replicas.
    stress: f64,
    retires: u64,
    imbalance: f64,
    routed_max_share: f64,
    /// Worst replica's queue-wait p99 as the live histograms report it.
    worst_queue_p99_us: f64,
    fingerprint: Fingerprint,
}

fn serve_episode(
    model: &Model,
    load: &[Sample],
    recorder: &Recorder,
    checks: &mut Checks,
) -> Result<Episode, String> {
    let hardware = CrossbarNetwork::new(model.network.clone(), model.spec, model.aging)
        .map_err(|e| e.to_string())?;
    let deploy_started = Instant::now();
    let service = InferenceService::deploy(
        hardware,
        model.calib.clone(),
        serve_config(model, load.len()),
        recorder.clone(),
    )
    .map_err(|e| e.to_string())?;
    let deploy_ms = deploy_started.elapsed().as_secs_f64() * 1e3;
    let started = Instant::now();
    let served = closed_loop(load, |request| service.infer(request));
    let load_s = started.elapsed().as_secs_f64();
    let report = service.shutdown();

    let mut responses = Vec::with_capacity(served.len());
    for s in &served {
        if let Ok(r) = &s.result {
            checks.check(r.generation == r.seq / SERVE_INTERVAL, || {
                format!("serve_1c: seq {} served by generation {}", r.seq, r.generation)
            });
            responses.push((
                r.seq,
                r.generation,
                r.prediction,
                r.output.iter().map(|v| v.to_bits()).collect(),
            ));
        }
    }
    check_unique_seqs(checks, "serve_1c", responses.iter().map(|r| r.0).collect());
    checks.check(report.served + report.expired == report.admitted, || {
        format!(
            "serve_1c: served {} + expired {} != admitted {}",
            report.served, report.expired, report.admitted
        )
    });
    checks.check(report.remaps >= 1, || "serve_1c: no live remap in the episode".into());
    check_ledger(checks, "serve_1c", &report.attribution, &report.network);
    let stress = report.attribution.attributed().iter().sum();
    Ok(Episode {
        deploy_ms,
        load_s,
        served,
        boundaries: report.boundaries,
        remaps: report.remaps,
        stress,
        retires: 0,
        imbalance: 1.0,
        routed_max_share: 1.0,
        worst_queue_p99_us: 0.0,
        fingerprint: Fingerprint::Outputs {
            responses,
            stress: report.network.tile_stress().iter().map(|s| s.to_bits()).collect(),
        },
    })
}

fn fleet_episode(
    model: &Model,
    loads: &[Vec<Sample>],
    recorder: &Recorder,
    checks: &mut Checks,
) -> Result<Episode, String> {
    let networks = (0..REPLICAS)
        .map(|_| CrossbarNetwork::new(model.network.clone(), model.spec, model.aging))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let total: usize = loads.iter().map(Vec::len).sum();
    let deploy_started = Instant::now();
    let service = FleetService::deploy(
        networks,
        model.calib.clone(),
        fleet_config(model, total),
        recorder.clone(),
    )
    .map_err(|e| e.to_string())?;
    let deploy_ms = deploy_started.elapsed().as_secs_f64() * 1e3;
    let started = Instant::now();
    let served: Vec<Served> = std::thread::scope(|scope| {
        let clients: Vec<_> = loads
            .iter()
            .map(|load| {
                let service = &service;
                scope.spawn(move || closed_loop(load, |request| service.infer(request)))
            })
            .collect();
        clients.into_iter().flat_map(|c| c.join().expect("client thread panicked")).collect()
    });
    let load_s = started.elapsed().as_secs_f64();
    let worst_queue_p99_us = (0..REPLICAS)
        .filter_map(|r| service.replica_stats(r))
        .map(|s| s.latency().queue_wait.snapshot().quantile(0.99) as f64)
        .fold(0.0, f64::max);
    let report = service.shutdown();

    // A routed block is one local maintenance interval of one replica, so
    // all of its requests share one generation.
    let mut by_seq: Vec<(u64, u64)> = Vec::with_capacity(served.len());
    for s in &served {
        if let Ok(r) = &s.result {
            by_seq.push((r.seq, r.generation));
        }
    }
    by_seq.sort_unstable();
    for pair in by_seq.windows(2) {
        let ((a, ga), (b, gb)) = (pair[0], pair[1]);
        checks.check(a / FLEET_INTERVAL != b / FLEET_INTERVAL || ga == gb, || {
            format!("fleet_2c: block {} served by generations {ga} and {gb}", a / FLEET_INTERVAL)
        });
    }
    check_unique_seqs(checks, "fleet_2c", by_seq.iter().map(|p| p.0).collect());
    check_fleet_report(checks, &report);
    let stress =
        report.replicas.iter().map(|r| r.attribution.attributed().iter().sum::<f64>()).sum();
    let routed_max = report.replicas.iter().map(|r| r.routed).max().unwrap_or(0);
    Ok(Episode {
        deploy_ms,
        load_s,
        served,
        boundaries: report.replicas.iter().map(|r| r.boundaries).sum(),
        remaps: report.replicas.iter().map(|r| r.remaps).sum(),
        stress,
        retires: report.replicas.iter().map(|r| r.retires).sum(),
        imbalance: report.wear_imbalance(),
        routed_max_share: routed_max as f64 / report.admitted.max(1) as f64,
        worst_queue_p99_us,
        fingerprint: Fingerprint::Wear(
            report
                .replicas
                .iter()
                .map(|r| r.network.tile_stress().iter().map(|s| s.to_bits()).collect())
                .collect(),
        ),
    })
}

fn check_fleet_report(checks: &mut Checks, report: &FleetReport) {
    let routed: u64 = report.replicas.iter().map(|r| r.routed).sum();
    checks.check(routed == report.admitted, || {
        format!("fleet_2c: routed {routed} != admitted {}", report.admitted)
    });
    for r in &report.replicas {
        checks.check(r.served + r.expired == r.routed, || {
            format!(
                "fleet_2c: replica {} served {} + expired {} != routed {}",
                r.replica, r.served, r.expired, r.routed
            )
        });
        check_ledger(
            checks,
            &format!("fleet_2c replica {}", r.replica),
            &r.attribution,
            &r.network,
        );
    }
    checks.check(report.replicas.iter().any(|r| r.remaps >= 1), || {
        "fleet_2c: no live remap in the episode".into()
    });
}

fn check_unique_seqs(checks: &mut Checks, what: &str, mut seqs: Vec<u64>) {
    seqs.sort_unstable();
    let n = seqs.len();
    seqs.dedup();
    checks.check(seqs.len() == n, || format!("{what}: {} duplicate seqs", n - seqs.len()));
}

/// Episodes of one pass, folded. Latency and throughput are taken per
/// episode and reported as the median over episodes, so one episode
/// disturbed by the host does not move the run's figure.
#[derive(Default)]
struct Pass {
    episodes: usize,
    /// Wall time of the whole pass (deploys, loads and shutdowns).
    wall_s: f64,
    latency: Vec<Percentiles>,
    throughput_rps: Vec<f64>,
    tally: Tally,
    hits: u64,
    deploy_ms: Vec<f64>,
    boundaries: u64,
    remaps: u64,
    stress: f64,
    retires: u64,
    imbalance: Vec<f64>,
    routed_max_share: Vec<f64>,
    worst_queue_p99_us: Vec<f64>,
}

impl Pass {
    /// The tail latency: each episode's tail percentile, median over
    /// episodes.
    fn tail_us(&self) -> f64 {
        median(&self.latency.iter().map(|p| p.tail).collect::<Vec<_>>())
    }

    fn add(&mut self, episode: Episode, checks: &mut Checks) {
        self.episodes += 1;
        self.deploy_ms.push(episode.deploy_ms);
        let mut succeeded = 0u64;
        for s in &episode.served {
            self.tally.record(s.result.is_ok());
            if let Ok(r) = &s.result {
                succeeded += 1;
                checks.check(r.prediction == argmax(&r.output), || {
                    format!(
                        "seq {}: prediction {} is not the argmax of its output",
                        r.seq, r.prediction
                    )
                });
                self.hits += u64::from(r.prediction == s.label);
            }
        }
        let mut latencies: Vec<f64> = episode.served.iter().map(|s| s.latency_us).collect();
        self.latency.push(Percentiles::of(&mut latencies));
        self.throughput_rps.push(succeeded as f64 / episode.load_s);
        self.boundaries += episode.boundaries;
        self.remaps += episode.remaps;
        self.stress += episode.stress;
        self.retires += episode.retires;
        self.imbalance.push(episode.imbalance);
        self.routed_max_share.push(episode.routed_max_share);
        self.worst_queue_p99_us.push(episode.worst_queue_p99_us);
    }
}

/// Which serving workload a run drives.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One replica, one client.
    Single,
    /// Four replicas, two clients.
    Fleet,
}

/// Runs a serving workload: set-up timing, then the untraced pass (and,
/// with `opts.trace`, a traced pass over the same episodes).
///
/// # Errors
///
/// When training, deployment or the trace fold fails.
pub fn run(kind: Kind, opts: &Options, checks: &mut Checks) -> Result<Outcome, String> {
    let name = match kind {
        Kind::Single => "serve_1c",
        Kind::Fleet => "fleet_2c",
    };
    let mut setup_s = Vec::with_capacity(opts.size.setup_reps);
    let mut model = None;
    for _ in 0..opts.size.setup_reps.max(1) {
        let started = Instant::now();
        let trained = train(&Recorder::disabled())?;
        // Deploying (with its initial aging-aware mapping) is part of
        // set-up; the deployed service serves nothing and is shut down.
        deploy_only(kind, &trained, opts)?;
        setup_s.push(started.elapsed().as_secs_f64());
        model.get_or_insert(trained);
    }
    let model = model.expect("at least one set-up repetition");
    let loads = match kind {
        Kind::Single => vec![requests(&model.calib, opts.seed, 0, opts.size.serve_requests)],
        Kind::Fleet => fleet_loads(&model, opts),
    };
    let episode = |recorder: &Recorder, checks: &mut Checks| match kind {
        Kind::Single => serve_episode(&model, &loads[0], recorder, checks),
        Kind::Fleet => fleet_episode(&model, &loads, recorder, checks),
    };

    let budget = if opts.trace { opts.seconds / 2.0 } else { opts.seconds };
    let mut reference: Option<Fingerprint> = None;
    let mut untraced = Pass::default();
    let started = Instant::now();
    while untraced.episodes == 0 || started.elapsed().as_secs_f64() < budget {
        let e = episode(&Recorder::disabled(), checks)?;
        compare(checks, name, &mut reference, &e.fingerprint);
        untraced.add(e, checks);
    }
    untraced.wall_s = started.elapsed().as_secs_f64();

    let mut outcome = Outcome::default();
    if !opts.trace {
        outcome.tally = untraced.tally;
        let e2e = &mut outcome.metrics;
        e2e.set("setup_s", median(&setup_s), "s");
        e2e.set("throughput_rps", median(&untraced.throughput_rps), "1/s");
        let p50: Vec<f64> = untraced.latency.iter().map(|p| p.p50).collect();
        e2e.set("e2e_p50_us", median(&p50), "us");
        e2e.set(
            "success_frac",
            untraced.tally.succeeded as f64 / untraced.tally.sent as f64,
            "ratio",
        );
        e2e.set(
            "serve_accuracy",
            untraced.hits as f64 / untraced.tally.succeeded.max(1) as f64,
            "ratio",
        );
        e2e.set("peak_rss_mb", peak_rss_mb().ok_or("peak RSS is not reported")?, "MB");
        let first = untraced.latency[0];
        outcome.notes.push(format!(
            "{name}: medians over {} episodes of n={} requests each; e2e_p99_us = {} us (p{:.1})",
            untraced.episodes,
            first.n,
            untraced.tail_us(),
            100.0 * first.tail_q
        ));
        return Ok(outcome);
    }

    // The traced pass: the same set-up training and the same episodes,
    // recorded into memory.
    let (recorder, handle) = memory_recorder();
    train(&recorder)?;
    let mut traced = Pass::default();
    let started = Instant::now();
    for _ in 0..untraced.episodes {
        let e = episode(&recorder, checks)?;
        compare(checks, name, &mut reference, &e.fingerprint);
        traced.add(e, checks);
    }
    traced.wall_s = started.elapsed().as_secs_f64();
    drop(recorder);
    let folded = Folded::collect(&handle)?;
    outcome.tally = traced.tally;
    let layers = &mut outcome.metrics;
    folded.layer_metrics(layers);
    let max_batch = ServeConfig::default().max_batch;
    folded.serve_metrics(max_batch, layers);
    layers.set("serve.boundaries", traced.boundaries as f64, "count");
    layers.set("serve.remaps", traced.remaps as f64, "count");
    let deploy = median(&traced.deploy_ms);
    layers.set(
        if kind == Kind::Fleet { "fleet.deploy_ms" } else { "serve.deploy_ms" },
        deploy,
        "ms",
    );
    if kind == Kind::Fleet {
        layers.set("fleet.retires", traced.retires as f64, "count");
        layers.set("fleet.routed_max_share", median(&traced.routed_max_share), "ratio");
        layers.set("fleet.queue_wait_us.p99", median(&traced.worst_queue_p99_us), "us");
    }
    layers.set("fleet_wear_imbalance", median(&traced.imbalance), "ratio");
    let kreq = traced.tally.succeeded as f64 / 1e3;
    layers.set("wear_stress_per_kreq", traced.stress / kreq.max(1e-3), "s");
    layers.set("obs.trace_overhead_frac", traced.wall_s / untraced.wall_s - 1.0, "ratio");
    layers.set("e2e_p99_us", untraced.tail_us(), "us");
    Ok(outcome)
}

/// The two clients' request sequences of `fleet_2c`, one seed stream each.
fn fleet_loads(model: &Model, opts: &Options) -> Vec<Vec<Sample>> {
    (0..FLEET_CLIENTS)
        .map(|c| {
            requests(
                &model.calib,
                opts.seed,
                1 + c as u64,
                opts.size.fleet_requests / FLEET_CLIENTS,
            )
        })
        .collect()
}

fn deploy_only(kind: Kind, model: &Model, opts: &Options) -> Result<(), String> {
    let hardware = || {
        CrossbarNetwork::new(model.network.clone(), model.spec, model.aging)
            .map_err(|e| e.to_string())
    };
    match kind {
        Kind::Single => {
            let config = serve_config(model, opts.size.serve_requests);
            InferenceService::deploy(
                hardware()?,
                model.calib.clone(),
                config,
                Recorder::disabled(),
            )
            .map_err(|e| e.to_string())?
            .shutdown();
        }
        Kind::Fleet => {
            let networks = (0..REPLICAS).map(|_| hardware()).collect::<Result<Vec<_>, _>>()?;
            let config = fleet_config(model, opts.size.fleet_requests);
            FleetService::deploy(networks, model.calib.clone(), config, Recorder::disabled())
                .map_err(|e| e.to_string())?
                .shutdown();
        }
    }
    Ok(())
}

fn compare(
    checks: &mut Checks,
    name: &str,
    reference: &mut Option<Fingerprint>,
    got: &Fingerprint,
) {
    match reference {
        Some(want) => checks.check(want == got, || {
            format!("{name}: an episode diverged from the run's first episode")
        }),
        None => *reference = Some(got.clone()),
    }
}
