//! Fleet-tier integration: the sharded replica fleet's headline
//! guarantees, end to end.
//!
//! * **Replay bit-identity**: the router keys every decision to the
//!   admission block index and to wear snapshots from published mapping
//!   generations, so the same admission sequence replays bit-identically
//!   at any worker-thread count, for any replica count.
//! * **Single-replica parity**: a one-replica fleet is the identity router
//!   in front of the exact serve-tier dispatch pipeline — its outputs and
//!   final wear state match `InferenceService` byte for byte.
//! * **Retire-under-load determinism**: drain + background force-remap +
//!   rejoin decisions are block-indexed functions of published snapshots,
//!   so they replay identically too.
//! * **Wear balancing**: on a heterogeneous fleet the wear-balancing
//!   router must land a strictly tighter max/mean replica-stress ratio
//!   than round-robin on the same admitted sequence.

use std::sync::{Mutex, OnceLock};

use memaging::crossbar::CrossbarNetwork;
use memaging::dataset::Dataset;
use memaging::device::{ArrheniusAging, DeviceSpec};
use memaging::fleet::{FleetConfig, FleetReport, FleetService, RouterPolicy};
use memaging::lifetime::Strategy;
use memaging::nn::Network;
use memaging::obs::Recorder;
use memaging::serve::{InferRequest, InferenceService, ServeConfig};
use memaging::{par, Scenario};

/// The thread override is process-global; serialize the tests that sweep
/// it (same discipline as `integration_serve`).
static THREAD_KNOB: Mutex<()> = Mutex::new(());

/// One trained model + calibration split, shared by every test.
static TRAINED: OnceLock<(Network, Dataset, DeviceSpec, ArrheniusAging)> = OnceLock::new();

fn trained() -> &'static (Network, Dataset, DeviceSpec, ArrheniusAging) {
    TRAINED.get_or_init(|| {
        let mut scenario = Scenario::quick();
        scenario.framework.plan.pre_epochs = 4;
        scenario.framework.plan.skew_epochs = 3;
        let data = scenario.dataset().expect("dataset");
        let (train, calib) = scenario.train_calib_split(&data).expect("split");
        let model =
            scenario.framework.train_model(&train, Strategy::TT, scenario.seed).expect("training");
        (model.network, calib, scenario.framework.spec, scenario.framework.aging)
    })
}

fn hardware(n: usize) -> Vec<CrossbarNetwork> {
    let (network, _, spec, aging) = trained();
    (0..n)
        .map(|_| CrossbarNetwork::new(network.clone(), *spec, *aging).expect("hardware"))
        .collect()
}

fn deploy_fleet(config: FleetConfig) -> FleetService {
    let calib = trained().1.clone();
    FleetService::deploy(hardware(config.replicas), calib, config, Recorder::disabled())
        .expect("deploy")
}

fn sample(calib: &Dataset, k: usize) -> Vec<f32> {
    let i = k % calib.len();
    calib.batch_matrix(i, i + 1).as_slice().to_vec()
}

/// `stress_per_read` such that `reads` inference reads degrade the upper
/// resistance bound by `fraction` of the fresh window.
fn stress_per_read(spec: &DeviceSpec, aging: &ArrheniusAging, fraction: f64, reads: u64) -> f64 {
    aging.stress_for_degradation(spec.temperature, fraction * (spec.r_max - spec.r_min))
        / reads as f64
}

/// The serve tier's determinism-test schedule: warn crosses mid-run so
/// live remaps fire while requests flow.
fn serve_config(total: usize) -> ServeConfig {
    let (_, _, spec, aging) = trained();
    ServeConfig {
        maintenance_interval: 16,
        stress_per_read: stress_per_read(spec, aging, 0.55, total as u64 / 2),
        remap_drift_fraction: 0.01,
        ..ServeConfig::default()
    }
}

/// Per-request observation: everything that must match bit-for-bit across
/// runs.
#[derive(Debug, PartialEq)]
struct Observed {
    seq: u64,
    generation: u64,
    prediction: usize,
    output_bits: Vec<u32>,
}

/// Per-replica final-state digest: hardware wear (as bits), the routing
/// counters, and the attribution account.
#[derive(Debug, PartialEq)]
struct ReplicaDigest {
    tiles: Vec<(u64, u64, u64, usize)>,
    boundaries: u64,
    remaps: u64,
    routed: u64,
    retires: u64,
    attributed_bits: Vec<u64>,
}

fn fleet_digest(report: &FleetReport) -> Vec<ReplicaDigest> {
    report
        .replicas
        .iter()
        .map(|r| ReplicaDigest {
            tiles: r
                .network
                .wear_snapshots()
                .iter()
                .map(|t| {
                    (t.mean_r_max.to_bits(), t.mean_r_min.to_bits(), t.total_pulses, t.worn_out)
                })
                .collect(),
            boundaries: r.boundaries,
            remaps: r.remaps,
            routed: r.routed,
            retires: r.retires,
            attributed_bits: r.attribution.attributed().iter().map(|s| s.to_bits()).collect(),
        })
        .collect()
}

/// Replays a fixed admission sequence (one submitter, so admission order
/// is the submission order) against a fresh fleet.
fn closed_loop(threads: usize, config: FleetConfig, total: usize) -> (Vec<Observed>, FleetReport) {
    par::set_threads(threads);
    let calib = &trained().1;
    let service = deploy_fleet(config);
    let mut observed = Vec::with_capacity(total);
    for k in 0..total {
        let response = service
            .infer(InferRequest::new(sample(calib, k)))
            .unwrap_or_else(|e| panic!("request {k} failed: {e}"));
        observed.push(Observed {
            seq: response.seq,
            generation: response.generation,
            prediction: response.prediction,
            output_bits: response.output.iter().map(|v| v.to_bits()).collect(),
        });
    }
    let report = service.shutdown();
    assert_eq!(report.rejected_full, 0, "closed loop never fills the queue");
    assert_eq!(report.served(), total as u64);
    assert_eq!(report.replicas.iter().map(|r| r.routed).sum::<u64>(), total as u64);
    (observed, report)
}

#[test]
fn fleet_replay_is_bit_identical_across_thread_and_replica_counts() {
    let _guard = THREAD_KNOB.lock().unwrap_or_else(|poison| poison.into_inner());
    let total = 96;
    for replicas in [1usize, 2, 4] {
        let config = FleetConfig::new(replicas, serve_config(total));
        let (reference, reference_report) = closed_loop(1, config.clone(), total);
        let reference_digest = fleet_digest(&reference_report);
        if replicas > 1 {
            let busy = reference_report.replicas.iter().filter(|r| r.routed > 0).count();
            assert!(busy > 1, "the router must actually spread load over {replicas} replicas");
        }
        for threads in [2, 8] {
            let (run, report) = closed_loop(threads, config.clone(), total);
            assert_eq!(
                run, reference,
                "per-request outputs diverged at {threads} threads x {replicas} replicas"
            );
            assert_eq!(
                fleet_digest(&report),
                reference_digest,
                "final fleet state diverged at {threads} threads x {replicas} replicas"
            );
        }
    }
    par::set_threads(0);
}

#[test]
fn single_replica_fleet_matches_the_inference_service_byte_for_byte() {
    let _guard = THREAD_KNOB.lock().unwrap_or_else(|poison| poison.into_inner());
    let total = 96;
    let calib = &trained().1;

    // Reference: the plain serve tier on the same admission sequence.
    par::set_threads(2);
    let service = {
        let mut networks = hardware(1);
        InferenceService::deploy(
            networks.remove(0),
            calib.clone(),
            serve_config(total),
            Recorder::disabled(),
        )
        .expect("deploy")
    };
    let mut reference = Vec::with_capacity(total);
    for k in 0..total {
        let response = service.infer(InferRequest::new(sample(calib, k))).expect("served");
        reference.push(Observed {
            seq: response.seq,
            generation: response.generation,
            prediction: response.prediction,
            output_bits: response.output.iter().map(|v| v.to_bits()).collect(),
        });
    }
    let serve_report = service.shutdown();

    let (fleet_run, fleet_report) = closed_loop(2, FleetConfig::new(1, serve_config(total)), total);
    assert_eq!(fleet_run, reference, "a 1-replica fleet must serve the serve tier's exact bytes");
    let replica = &fleet_report.replicas[0];
    let serve_tiles: Vec<(u64, u64)> = serve_report
        .network
        .wear_snapshots()
        .iter()
        .map(|t| (t.mean_r_max.to_bits(), t.mean_r_min.to_bits()))
        .collect();
    let fleet_tiles: Vec<(u64, u64)> = replica
        .network
        .wear_snapshots()
        .iter()
        .map(|t| (t.mean_r_max.to_bits(), t.mean_r_min.to_bits()))
        .collect();
    assert_eq!(fleet_tiles, serve_tiles, "identical final hardware state");
    assert_eq!(
        (replica.boundaries, replica.remaps),
        (serve_report.boundaries, serve_report.remaps)
    );
    // A one-replica deployment is not namespaced: its ledger is the same
    // account, entries and per-tile attribution match exactly.
    assert_eq!(replica.attribution.replica(), None);
    assert_eq!(replica.attribution.entries(), serve_report.attribution.entries());
    assert_eq!(replica.attribution.attributed(), serve_report.attribution.attributed());
    par::set_threads(0);
}

#[test]
fn retire_under_load_is_deterministic() {
    let _guard = THREAD_KNOB.lock().unwrap_or_else(|poison| poison.into_inner());
    let total = 128;
    let config = FleetConfig {
        // Mid-run the hottest replica's window fraction sinks below the
        // retire threshold: the router drains it, force-remaps it in the
        // background, and rejoins it two blocks later.
        retire_fraction: 0.75,
        retire_blocks: 2,
        retire_cooldown_blocks: 4,
        ..FleetConfig::new(2, serve_config(total))
    };
    let (reference, reference_report) = closed_loop(1, config.clone(), total);
    let retires: u64 = reference_report.replicas.iter().map(|r| r.retires).sum();
    assert!(retires >= 1, "the schedule must retire at least one replica (got {retires})");
    let reference_digest = fleet_digest(&reference_report);
    for threads in [2, 8] {
        let (run, report) = closed_loop(threads, config.clone(), total);
        assert_eq!(run, reference, "retire-under-load outputs diverged at {threads} threads");
        assert_eq!(
            fleet_digest(&report),
            reference_digest,
            "retire-under-load fleet state diverged at {threads} threads"
        );
    }
    par::set_threads(0);
}

#[test]
fn wear_balancing_beats_round_robin_on_a_heterogeneous_fleet() {
    let _guard = THREAD_KNOB.lock().unwrap_or_else(|poison| poison.into_inner());
    let total = 256;
    // An endurance/temperature gradient across the four chips: replica 1
    // burns 1.6x the homogeneous read stress, replica 2 only 0.7x.
    let scale = vec![1.0, 1.6, 0.7, 1.3];
    let run = |router: RouterPolicy| -> FleetReport {
        let config = FleetConfig {
            router,
            stress_scale: scale.clone(),
            ..FleetConfig::new(4, serve_config(total))
        };
        closed_loop(2, config, total).1
    };
    let balanced = run(RouterPolicy::WearBalance);
    let rr = run(RouterPolicy::RoundRobin);
    let (wear_imbalance, rr_imbalance) = (balanced.wear_imbalance(), rr.wear_imbalance());
    assert!(
        wear_imbalance < rr_imbalance,
        "wear balancing must be strictly tighter than round-robin: \
         max/mean {wear_imbalance:.4} vs {rr_imbalance:.4} \
         (balanced stress {:?}, round-robin stress {:?})",
        balanced.stress_per_replica(),
        rr.stress_per_replica(),
    );
    // And it does so by shifting load off the hot chip, not by starving
    // the fleet: both routers served the full sequence.
    assert_eq!(balanced.served(), total as u64);
    assert_eq!(rr.served(), total as u64);
    let hot_balanced = balanced.replicas[1].routed;
    let hot_rr = rr.replicas[1].routed;
    assert!(
        hot_balanced < hot_rr,
        "the hottest replica must absorb less load under wear balancing \
         ({hot_balanced} vs {hot_rr} requests)"
    );
    par::set_threads(0);
}

/// FNV-1a over a stream of `u64` words (little-endian bytes).
fn fnv(hash: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *hash = (*hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
    }
}

/// Pins a 4-replica heterogeneous wear-balance fleet with retiring on to
/// recorded bits: every response's seq, generation and output bits, and
/// per replica the final tile stress, boundary and remap counts, ledger
/// per-cause totals, routed requests and retires. The replays above
/// compare runs of one build; this digest is the check across builds.
#[test]
fn fleet_is_pinned_bit_for_bit() {
    const PINNED: u64 = 0xb8d3_4fe1_7f63_216a;
    let _guard = THREAD_KNOB.lock().unwrap_or_else(|poison| poison.into_inner());
    let total = 256;
    let config = FleetConfig {
        router: RouterPolicy::WearBalance,
        stress_scale: vec![1.0, 1.6, 0.7, 1.3],
        retire_fraction: 0.75,
        retire_blocks: 2,
        retire_cooldown_blocks: 4,
        ..FleetConfig::new(4, serve_config(total))
    };
    for threads in [1, 2] {
        let (observed, report) = closed_loop(threads, config.clone(), total);
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for o in &observed {
            fnv(&mut hash, o.seq);
            fnv(&mut hash, o.generation);
            for bits in &o.output_bits {
                fnv(&mut hash, u64::from(*bits));
            }
        }
        for r in &report.replicas {
            for stress in r.network.tile_stress() {
                fnv(&mut hash, stress.to_bits());
            }
            fnv(&mut hash, r.boundaries);
            fnv(&mut hash, r.remaps);
            for (_, events, stress) in r.attribution.cause_totals() {
                fnv(&mut hash, events);
                fnv(&mut hash, stress.to_bits());
            }
            fnv(&mut hash, r.routed);
            fnv(&mut hash, r.retires);
        }
        let retires: u64 = report.replicas.iter().map(|r| r.retires).sum();
        assert!(retires >= 1, "the schedule must retire a replica (got {retires})");
        assert_eq!(hash, PINNED, "fleet digest moved at {threads} threads: {hash:#018x}");
    }
    par::set_threads(0);
}

/// The HTTP bodies of a one-replica deployment keep the single-service
/// shape (admission counts head the replica's stats fields; latency and
/// attribution are the replica's own documents, un-namespaced), and with
/// several replicas the admission counts appear once, above per-replica
/// rows that no longer carry a zeroed pair of their own.
#[test]
fn http_bodies_keep_the_single_replica_shape() {
    let _guard = THREAD_KNOB.lock().unwrap_or_else(|poison| poison.into_inner());
    par::set_threads(1);
    let total = 40;
    let calib = &trained().1;
    for replicas in [1usize, 2] {
        let service = deploy_fleet(FleetConfig::new(replicas, serve_config(total)));
        for k in 0..total {
            service.infer(InferRequest::new(sample(calib, k))).expect("served");
        }
        let stats = service.stats_json();
        assert!(stats.starts_with(&format!("{{\"admitted\":{total},\"rejected_full\":0,")));
        assert_eq!(stats.matches("\"admitted\"").count(), 1, "{stats}");
        let fleet = service.fleet_json();
        assert_eq!(fleet.matches("\"replica\":").count(), replicas, "{fleet}");
        if replicas == 1 {
            let only = service.replica_stats(0).expect("replica 0");
            assert!(stats.contains(",\"expired\":0,\"served\":"), "{stats}");
            assert!(!stats.contains("\"replicas\""), "{stats}");
            assert_eq!(service.latency_json(), only.latency_json());
            let attribution = service.wear_attribution_json();
            assert!(attribution.starts_with("{\"tiles\":"), "{attribution}");
        } else {
            assert!(stats.contains("\"replicas\":[{\"replica\":0,\"stats\":{\"expired\":"));
            assert!(service.latency_json().starts_with("{\"replicas\":[{\"replica\":0,"));
            let attribution = service.wear_attribution_json();
            assert!(attribution.starts_with("{\"replicas\":[{\"replica\":0,\"tiles\":"));
        }
        service.shutdown();
    }
    par::set_threads(0);
}
