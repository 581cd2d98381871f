//! Strategy-level integration: the paper's qualitative claims must hold on
//! a small accelerated testbed — skewed training maps to larger
//! resistances, ages slower, and ST+AT lives at least as long as ST+T,
//! which lives at least as long as T+T.

use memaging::device::ArrheniusAging;
use memaging::lifetime::{compare_lifetimes, Strategy};
use memaging::Scenario;

/// A further-accelerated variant of the calibrated quick scenario for
/// ordering checks: stronger aging so every strategy dies within a small
/// session cap even in debug builds.
fn accelerated_scenario() -> Scenario {
    let mut s = Scenario::quick();
    s.framework.aging =
        ArrheniusAging { a_f: 4.0e16, a_g: 4.8e15, ..Scenario::accelerated_aging() };
    s.framework.lifetime.max_sessions = 120;
    s
}

#[test]
fn skewed_training_maps_to_larger_resistances() {
    let scenario = Scenario::quick();
    let data = scenario.dataset().unwrap();
    let traditional = scenario.framework.train_model(&data, Strategy::TT, scenario.seed).unwrap();
    let skewed = scenario.framework.train_model(&data, Strategy::StT, scenario.seed).unwrap();
    // Compare mean weight positions within their own ranges: the skewed
    // network's mass must sit closer to its w_min (which maps to R_max).
    let relative_position = |net: &memaging::nn::Network| -> f64 {
        let all: Vec<f32> =
            net.weight_matrices().iter().flat_map(|w| w.as_slice().to_vec()).collect();
        let lo = all.iter().cloned().fold(f32::INFINITY, f32::min) as f64;
        let hi = all.iter().cloned().fold(f32::NEG_INFINITY, f32::max) as f64;
        let mean = all.iter().map(|&x| x as f64).sum::<f64>() / all.len() as f64;
        (mean - lo) / (hi - lo)
    };
    let pos_t = relative_position(&traditional.network);
    let pos_st = relative_position(&skewed.network);
    assert!(
        pos_st < pos_t,
        "skewed weights should sit lower in their range: T {pos_t:.3} vs ST {pos_st:.3}"
    );
}

#[test]
fn skewed_strategy_ages_slower_per_session() {
    let scenario = accelerated_scenario();
    let outcomes = scenario.run_all().unwrap();
    let tt = &outcomes[0];
    let stt = &outcomes[1];
    // Compare the mean aged upper bound at the same early-life checkpoint
    // (the last sessions are dominated by the end-of-life collapse, which
    // says nothing about the aging *rate*).
    let checkpoint =
        tt.lifetime.sessions.len().min(stt.lifetime.sessions.len()).saturating_sub(1).min(10);
    let mean = |o: &memaging::StrategyOutcome| -> f64 {
        let b = &o.lifetime.sessions[checkpoint].per_layer_mean_r_max;
        b.iter().sum::<f64>() / b.len() as f64
    };
    let r_tt = mean(tt);
    let r_stt = mean(stt);
    assert!(
        r_stt >= r_tt,
        "skewed strategy must retain a wider window at session {checkpoint}: \
         T+T {r_tt:.0} vs ST+T {r_stt:.0} ohm"
    );
}

#[test]
fn lifetime_ordering_matches_paper() {
    let scenario = accelerated_scenario();
    let outcomes = scenario.run_all().unwrap();
    let lifetimes: Vec<(Strategy, u64)> =
        outcomes.iter().map(|o| (o.strategy, o.lifetime.lifetime_applications)).collect();
    // The paper's ordering: T+T <= ST+T <= ST+AT.
    assert!(lifetimes[1].1 >= lifetimes[0].1, "ST+T must not lose to T+T: {lifetimes:?}");
    assert!(lifetimes[2].1 >= lifetimes[1].1, "ST+AT must not lose to ST+T: {lifetimes:?}");
    let cmp = compare_lifetimes(&outcomes.iter().map(|o| o.lifetime.clone()).collect::<Vec<_>>());
    assert!((cmp.ratios[0] - 1.0).abs() < 1e-9);
}

#[test]
fn accuracy_is_maintained_by_skewed_training() {
    // Table I's accuracy columns: skewed within a couple points of baseline.
    let scenario = Scenario::quick();
    let data = scenario.dataset().unwrap();
    let (base, skewed) = scenario.framework.accuracy_comparison(&data, scenario.seed).unwrap();
    assert!(base > 0.85, "baseline should train well: {base}");
    assert!(
        skewed > base - 0.08,
        "skewed training must roughly maintain accuracy: {base} -> {skewed}"
    );
}

/// FNV-1a over the bits of every session's `pre_tune_accuracy`, `accuracy`
/// and `per_layer_mean_r_max`, in session order.
fn session_digest(sessions: &[memaging::lifetime::SessionRecord]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for s in sessions {
        let values = [s.pre_tune_accuracy, s.accuracy]
            .into_iter()
            .chain(s.per_layer_mean_r_max.iter().copied());
        for value in values {
            for byte in value.to_bits().to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    hash
}

/// Pins the quick scenario's lifetime pipeline to recorded bits: lifetime,
/// per-session tuning effort, a digest of the per-session accuracies and
/// aged bounds, and the final summed tile stress of each strategy. Digests
/// elsewhere compare two runs of the same build; this catches any change to
/// the simulated physics itself, however small.
#[test]
fn quick_lifetime_is_pinned_bit_for_bit() {
    let mut scenario = Scenario::quick();
    // Every strategy fails before this cap, so each run ends at a failing
    // session and covers deploy, remaps and wear-out.
    scenario.framework.lifetime.max_sessions = 64;
    // Per strategy: lifetime applications, per-session
    // (tuning_iterations, tuning_pulses) as runs `(k, (i, p))` of k
    // sessions in a row that each took i iterations and p pulses, and the
    // bits of the final summed tile stress, and the session digest.
    type Pin = (Strategy, u64, &'static [(usize, (usize, u64))], u64, u64);
    let expected: [Pin; 3] = [
        (
            Strategy::TT,
            31_000_000,
            &[
                (16, (1, 0)),
                (1, (2, 180)),
                (6, (1, 0)),
                (1, (5, 916)),
                (1, (5, 1305)),
                (11, (1, 0)),
                (1, (6, 2014)),
                (17, (1, 0)),
                (1, (5, 1164)),
                (3, (1, 0)),
                (1, (2, 351)),
                (1, (1, 0)),
                (1, (6, 1638)),
                (1, (7, 1056)),
                (1, (100, 3128)),
            ],
            0x3ff8_62d8_7290_1631,
            0x80a0_695b_85eb_c3fb,
        ),
        (
            Strategy::StT,
            26_000_000,
            &[
                (17, (1, 0)),
                (1, (2, 303)),
                (1, (4, 1438)),
                (1, (1, 0)),
                (1, (4, 1331)),
                (4, (1, 0)),
                (1, (4, 1422)),
                (2, (1, 0)),
                (1, (5, 1533)),
                (1, (5, 1349)),
                (1, (4, 994)),
                (2, (1, 0)),
                (1, (6, 2054)),
                (11, (1, 0)),
                (1, (4, 1341)),
                (1, (4, 1239)),
                (1, (5, 2095)),
                (1, (5, 1639)),
                (1, (1, 0)),
                (1, (6, 1678)),
                (1, (18, 5375)),
                (1, (100, 25711)),
            ],
            0x3ffe_2184_5939_1819,
            0xfc5a_3f24_2722_a526,
        ),
        (
            Strategy::StAt,
            27_500_000,
            &[
                (17, (1, 0)),
                (1, (2, 303)),
                (1, (4, 1438)),
                (1, (1, 0)),
                (1, (4, 1331)),
                (4, (1, 0)),
                (1, (4, 1422)),
                (2, (1, 0)),
                (1, (5, 1533)),
                (1, (5, 1349)),
                (1, (4, 994)),
                (2, (1, 0)),
                (1, (6, 2054)),
                (11, (1, 0)),
                (1, (4, 1341)),
                (1, (4, 1239)),
                (1, (5, 2095)),
                (1, (5, 1639)),
                (1, (1, 0)),
                (1, (6, 1678)),
                (1, (8, 2196)),
                (1, (5, 1532)),
                (1, (2, 161)),
                (1, (3, 364)),
                (1, (100, 15376)),
            ],
            0x3ffc_ecb3_8dc9_df7d,
            0xb0dd_9508_1f45_a569,
        ),
    ];
    let outcomes = scenario.run_all().unwrap();
    assert_eq!(outcomes.len(), expected.len());
    for (outcome, (strategy, applications, runs, stress_bits, digest)) in
        outcomes.iter().zip(expected)
    {
        let lifetime = &outcome.lifetime;
        assert_eq!(outcome.strategy, strategy);
        assert!(lifetime.failed, "{strategy:?} must fail before the session cap");
        assert_eq!(lifetime.lifetime_applications, applications, "{strategy:?}");
        let effort: Vec<(usize, u64)> =
            lifetime.sessions.iter().map(|s| (s.tuning_iterations, s.tuning_pulses)).collect();
        let want: Vec<(usize, u64)> =
            runs.iter().flat_map(|&(k, effort)| std::iter::repeat_n(effort, k)).collect();
        assert_eq!(effort, want, "{strategy:?} per-session (iterations, pulses)");
        let stress: f64 = lifetime.final_tile_stress.iter().sum();
        assert_eq!(
            stress.to_bits(),
            stress_bits,
            "{strategy:?} final summed tile stress {stress:e} drifted"
        );
        let got = session_digest(&lifetime.sessions);
        assert_eq!(got, digest, "{strategy:?} session digest {got:#018x} drifted");
    }
}
