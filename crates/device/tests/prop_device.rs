//! Property-based tests for device-model invariants.

use memaging_device::{AgingModel, ArrheniusAging, DeviceSpec, Memristor, Ohms, Quantizer};
use proptest::prelude::*;

/// One state-changing operation on a device.
#[derive(Debug, Clone, Copy)]
enum Op {
    Pulse(i8),
    Nudge(i8),
    Program(usize),
    /// Ambient stress, in units of the spec's pulse width.
    Ambient(f64),
    Drift(f64),
    ForceWornOut,
}

fn arb_op() -> impl Strategy<Value = Op> {
    (0u8..100, -1i8..=1, 0usize..64, 0.0f64..1.0).prop_map(|(kind, dir, level, x)| match kind {
        0..=29 => Op::Pulse(dir),
        30..=59 => Op::Nudge(dir),
        60..=79 => Op::Program(level),
        80..=89 => Op::Ambient(x * x * 2.0e3),
        90..=98 => Op::Drift(x - 0.5),
        _ => Op::ForceWornOut,
    })
}

fn apply(m: &mut Memristor, op: Op) {
    // Operations on a worn-out device fail by design; the state must still
    // be consistent afterwards.
    let _ = match op {
        Op::Pulse(dir) => m.pulse(dir),
        Op::Nudge(dir) => m.nudge(dir),
        Op::Program(level) => m.program_to_level(level).map(|_| ()),
        Op::Ambient(pulses) => {
            m.absorb_ambient_stress(pulses * m.spec().pulse_width);
            Ok(())
        }
        Op::Drift(delta) => {
            m.drift_conductance(delta);
            Ok(())
        }
        Op::ForceWornOut => {
            m.force_worn_out();
            Ok(())
        }
    };
}

/// The quantizer's levels inside `[lo, hi]`, counted one level at a time.
fn naive_levels_within(q: &Quantizer, lo: f64, hi: f64) -> usize {
    (0..q.levels())
        .filter(|&i| {
            let r = q.level_resistance(i).value();
            r >= lo - 1e-9 && r <= hi + 1e-9
        })
        .count()
}

/// Checks every cached read of `m` against the aging law evaluated afresh
/// from its present stress.
fn assert_matches_fresh_evaluation(m: &Memristor) -> Result<(), TestCaseError> {
    let spec = *m.spec();
    let w = m.aging().aged_window(&spec, m.stress());
    let q = Quantizer::from_spec(&spec).unwrap();
    prop_assert_eq!(m.is_worn_out(), naive_levels_within(&q, w.r_min, w.r_max) < 2);
    let width = spec.level_width();
    let lo = ((w.r_min - spec.r_min) / width).max(0.0);
    let hi = ((w.r_max - spec.r_min) / width).min((spec.levels - 1) as f64).max(lo);
    let position = m.grid_position().clamp(lo, hi);
    prop_assert_eq!(m.level(), (position.round() as usize).min(spec.levels - 1));
    let r = spec.r_min + position * width;
    prop_assert_eq!(m.resistance().value().to_bits(), r.to_bits());
    Ok(())
}

fn arb_spec() -> impl Strategy<Value = DeviceSpec> {
    (1.0e3f64..5.0e4, 2.0f64..20.0, 2usize..65).prop_map(|(r_min, ratio, levels)| DeviceSpec {
        r_min,
        r_max: r_min * ratio,
        levels,
        ..DeviceSpec::default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn quantizer_levels_are_monotone_and_bounded(spec in arb_spec()) {
        let q = Quantizer::from_spec(&spec).unwrap();
        let rs = q.level_resistances();
        prop_assert_eq!(rs.len(), spec.levels);
        for pair in rs.windows(2) {
            prop_assert!(pair[1] > pair[0]);
        }
        prop_assert!((rs[0].value() - spec.r_min).abs() < 1e-6);
        prop_assert!((rs[rs.len() - 1].value() - spec.r_max).abs() < 1e-6);
    }

    #[test]
    fn quantize_is_idempotent(spec in arb_spec(), frac in 0.0f64..1.0) {
        let q = Quantizer::from_spec(&spec).unwrap();
        let target = Ohms::new(spec.r_min + frac * (spec.r_max - spec.r_min)).unwrap();
        let once = q.quantize(target);
        let twice = q.quantize(once);
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn quantize_error_bounded_by_half_level(spec in arb_spec(), frac in 0.0f64..1.0) {
        let q = Quantizer::from_spec(&spec).unwrap();
        let r = spec.r_min + frac * (spec.r_max - spec.r_min);
        let out = q.quantize(Ohms::new(r).unwrap());
        prop_assert!((out.value() - r).abs() <= q.level_width() / 2.0 + 1e-6);
    }

    #[test]
    fn aged_window_is_always_ordered(spec in arb_spec(), stress in 0.0f64..10.0) {
        let aging = ArrheniusAging::default();
        let w = aging.aged_window(&spec, stress);
        prop_assert!(w.r_max >= w.r_min);
        prop_assert!(w.r_min > 0.0);
    }

    #[test]
    fn aging_is_monotone_in_stress(spec in arb_spec(), s1 in 0.0f64..1.0, s2 in 0.0f64..1.0) {
        let aging = ArrheniusAging::default();
        let (lo, hi) = if s1 <= s2 { (s1, s2) } else { (s2, s1) };
        let w_lo = aging.aged_window(&spec, lo);
        let w_hi = aging.aged_window(&spec, hi);
        prop_assert!(w_hi.r_max <= w_lo.r_max + 1e-9);
        prop_assert!(w_hi.r_min <= w_lo.r_min + 1e-9);
    }

    #[test]
    fn programming_never_exceeds_aged_window(
        spec in arb_spec(),
        targets in proptest::collection::vec(0usize..64, 1..12),
    ) {
        let mut m = Memristor::new(spec, ArrheniusAging::default()).unwrap();
        for t in targets {
            if m.is_worn_out() {
                break;
            }
            let _ = m.program_to_level(t % spec.levels);
            let w = m.aged_window();
            let r = m.resistance().value();
            prop_assert!(r >= w.r_min - 1e-6 && r <= w.r_max + 1e-6);
        }
    }

    #[test]
    fn pulse_count_is_bounded_by_level_distance(spec in arb_spec(), t in 0usize..64) {
        let mut m = Memristor::new(spec, ArrheniusAging::default()).unwrap();
        let target = t % spec.levels;
        let start = m.level();
        let out = m.program_to_level(target).unwrap();
        // Program-and-verify needs at least one pulse per level travelled,
        // and gives up within one extra pulse once the (possibly receding)
        // aged window pins the state.
        prop_assert!(out.pulses as usize >= start.abs_diff(out.achieved_level));
        prop_assert!(out.pulses as usize <= start.abs_diff(target) + 1);
    }

    #[test]
    fn pulse_count_matches_distance_on_wide_fresh_devices(t in 0usize..32) {
        // With the default spec, per-pulse degradation is far below one
        // level width, so the fresh count is exact.
        let spec = DeviceSpec::default();
        let mut m = Memristor::new(spec, ArrheniusAging::default()).unwrap();
        let target = t % spec.levels;
        let start = m.level();
        let out = m.program_to_level(target).unwrap();
        // Exact, except that programming to the very top level may spend one
        // verify pulse against the (slightly self-aged) window edge.
        let distance = start.abs_diff(target);
        prop_assert!(out.pulses as usize >= distance);
        prop_assert!(out.pulses as usize <= distance + 1);
        prop_assert_eq!(out.achieved_level, target);
    }

    #[test]
    fn stress_is_monotone_in_pulses(spec in arb_spec(), pulses in 1usize..200) {
        let mut m = Memristor::new(spec, ArrheniusAging::default()).unwrap();
        let mut prev = 0.0;
        for i in 0..pulses {
            if m.is_worn_out() {
                break;
            }
            m.pulse(if i % 2 == 0 { 1 } else { -1 }).unwrap();
            prop_assert!(m.stress() > prev);
            prev = m.stress();
        }
    }

    #[test]
    fn usable_levels_never_increase(spec in arb_spec()) {
        let mut m = Memristor::new(spec, ArrheniusAging::default()).unwrap();
        let mut prev = m.usable_levels();
        for i in 0..500 {
            if m.is_worn_out() {
                break;
            }
            m.pulse(if i % 2 == 0 { -1 } else { 1 }).unwrap();
            let u = m.usable_levels();
            prop_assert!(u <= prev);
            prev = u;
        }
    }

    #[test]
    fn cached_reads_match_a_fresh_aging_evaluation(
        spec in arb_spec(),
        acceleration in 0.0f64..4.0,
        ops in proptest::collection::vec(arb_op(), 1..120),
    ) {
        // Up to 10^4x the default magnitudes, so sequences reach wear-out.
        let scale = 10f64.powf(acceleration);
        let base = ArrheniusAging::default();
        let aging = ArrheniusAging { a_f: base.a_f * scale, a_g: base.a_g * scale, ..base };
        let mut m = Memristor::new(spec, aging).unwrap();
        assert_matches_fresh_evaluation(&m)?;
        for op in ops {
            apply(&mut m, op);
            assert_matches_fresh_evaluation(&m)?;
        }
    }

    #[test]
    fn aged_window_matches_f_and_g(spec in arb_spec(), stress in 0.0f64..10.0) {
        // `aged_window` shares one Arrhenius factor and stress power between
        // the bounds; that must not change a bit of either.
        let aging = ArrheniusAging::default();
        let w = aging.aged_window(&spec, stress);
        let r_min = (spec.r_min - aging.g(spec.temperature, stress)).max(spec.r_min * 0.1);
        let r_max = (spec.r_max - aging.f(spec.temperature, stress)).max(r_min);
        prop_assert_eq!(w.r_min.to_bits(), r_min.to_bits());
        prop_assert_eq!(w.r_max.to_bits(), r_max.to_bits());
    }

    #[test]
    fn hoisted_arrhenius_factor_is_bit_exact(
        spec in arb_spec(),
        acceleration in 0.0f64..4.0,
        stress in 0.0f64..10.0,
        ops in proptest::collection::vec(arb_op(), 1..80),
    ) {
        let scale = 10f64.powf(acceleration);
        let base = ArrheniusAging::default();
        let aging = ArrheniusAging { a_f: base.a_f * scale, a_g: base.a_g * scale, ..base };
        let factor = aging.arrhenius_factor(spec.temperature);
        let (w, hoisted) =
            (aging.aged_window(&spec, stress), aging.aged_window_with_factor(&spec, stress, factor));
        prop_assert_eq!(w.r_min.to_bits(), hoisted.r_min.to_bits());
        prop_assert_eq!(w.r_max.to_bits(), hoisted.r_max.to_bits());
        // A device driven through the factor-taking methods tracks one
        // driven through the plain ones bit for bit.
        let mut plain = Memristor::new(spec, aging).unwrap();
        let mut fast = plain.clone();
        prop_assert_eq!(fast.arrhenius_factor().to_bits(), factor.to_bits());
        for op in ops {
            match op {
                Op::Nudge(dir) => {
                    let _ = fast.nudge_with_factor(dir, factor);
                }
                Op::Program(level) => {
                    let g = Quantizer::from_spec(&spec).unwrap().level_resistance(level % spec.levels);
                    let _ = fast.program_conductance_with_factor(g.to_siemens(), factor);
                }
                Op::Ambient(pulses) => {
                    fast.absorb_ambient_stress_with_factor(pulses * spec.pulse_width, factor);
                }
                op => apply(&mut fast, op),
            }
            match op {
                Op::Program(level) => {
                    let g = Quantizer::from_spec(&spec).unwrap().level_resistance(level % spec.levels);
                    let _ = plain.program_conductance(g.to_siemens());
                }
                op => apply(&mut plain, op),
            }
            let (a, b) = (plain.aged_window(), fast.aged_window_with_factor(factor));
            prop_assert_eq!(a.r_min.to_bits(), b.r_min.to_bits());
            prop_assert_eq!(a.r_max.to_bits(), b.r_max.to_bits());
            prop_assert_eq!(plain.stress().to_bits(), fast.stress().to_bits());
            prop_assert_eq!(plain.grid_position().to_bits(), fast.grid_position().to_bits());
            prop_assert_eq!(plain.resistance().value().to_bits(), fast.resistance().value().to_bits());
            prop_assert_eq!(plain.is_worn_out(), fast.is_worn_out());
            prop_assert_eq!(plain.pulse_count(), fast.pulse_count());
        }
    }

    #[test]
    fn levels_within_matches_a_level_scan(
        spec in arb_spec(),
        a in -0.2f64..1.2,
        b in -0.2f64..1.2,
        ia in 0usize..64,
        ib in 0usize..64,
        mode in 0u8..5,
    ) {
        let q = Quantizer::from_spec(&spec).unwrap();
        let span = spec.r_max - spec.r_min;
        let level = |i: usize| q.level_resistance(i % spec.levels).value();
        let (lo, hi) = match mode {
            // Arbitrary (possibly inverted or out-of-range) windows.
            0 => (spec.r_min + a * span, spec.r_min + b * span),
            // Windows ending exactly on levels.
            1 => (level(ia), level(ib)),
            // Windows ending just inside or outside the 1e-9 tolerance.
            2 => (level(ia) - 1e-9 * (1.0 + a), level(ib) + 1e-9 * (1.0 - b)),
            3 => (level(ia) + 2e-9 * a, level(ib) - 2e-9 * b),
            // Windows whose tolerance-widened ends land on levels.
            _ => (level(ia) + 1e-9, level(ib) - 1e-9),
        };
        prop_assert_eq!(q.levels_within(lo, hi), naive_levels_within(&q, lo, hi));
    }
}
