//! Aggregation helpers over lifetime results: the conv-vs-FC split of
//! Fig. 11 and the lifetime-ratio summary of Table I.

use memaging_nn::LayerKind;

use crate::simulator::LifetimeResult;
use crate::strategy::Strategy;

/// Mean aged upper resistance bound split by layer kind at one checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct KindAgingPoint {
    /// Applications served before the checkpoint.
    pub applications: u64,
    /// Mean `R_aged,max` over all convolutional layers, ohms.
    pub conv_mean_r_max: f64,
    /// Mean `R_aged,max` over all fully-connected layers, ohms.
    pub fc_mean_r_max: f64,
}

/// Splits a lifetime result's per-layer aging series into the conv vs FC
/// averages of paper Fig. 11. `kinds` is the mappable-layer kind list of the
/// simulated network (`Network::mappable_kinds`).
///
/// Layers of other kinds are ignored; a network without conv (or FC) layers
/// reports `NaN`-free zero means for that group.
pub fn conv_vs_fc_series(result: &LifetimeResult, kinds: &[LayerKind]) -> Vec<KindAgingPoint> {
    let conv_idx: Vec<usize> = kinds
        .iter()
        .enumerate()
        .filter(|(_, k)| **k == LayerKind::Convolution)
        .map(|(i, _)| i)
        .collect();
    let fc_idx: Vec<usize> = kinds
        .iter()
        .enumerate()
        .filter(|(_, k)| **k == LayerKind::FullyConnected)
        .map(|(i, _)| i)
        .collect();
    let mean = |idx: &[usize], bounds: &[f64]| -> f64 {
        if idx.is_empty() {
            return 0.0;
        }
        idx.iter().filter_map(|&i| bounds.get(i)).sum::<f64>() / idx.len() as f64
    };
    result
        .sessions
        .iter()
        .map(|s| KindAgingPoint {
            applications: s.applications_before,
            conv_mean_r_max: mean(&conv_idx, &s.per_layer_mean_r_max),
            fc_mean_r_max: mean(&fc_idx, &s.per_layer_mean_r_max),
        })
        .collect()
}

/// One row of the paper's Table I lifetime comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct LifetimeComparison {
    /// Strategy and its absolute lifetime in applications.
    pub entries: Vec<(Strategy, u64)>,
    /// Lifetime of each strategy normalized to the first entry (the paper
    /// normalizes to T+T).
    pub ratios: Vec<f64>,
}

/// Builds the normalized lifetime comparison of Table I from per-strategy
/// results. The first result is the baseline (ratio 1.0).
///
/// # Panics
///
/// Panics if `results` is empty.
pub fn compare_lifetimes(results: &[LifetimeResult]) -> LifetimeComparison {
    assert!(!results.is_empty(), "need at least one result");
    let baseline = results[0].lifetime_applications.max(1) as f64;
    let entries: Vec<(Strategy, u64)> =
        results.iter().map(|r| (r.strategy, r.lifetime_applications)).collect();
    let ratios = results.iter().map(|r| r.lifetime_applications as f64 / baseline).collect();
    LifetimeComparison { entries, ratios }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::SessionRecord;
    use memaging_crossbar::ProgramStats;

    fn result(strategy: Strategy, lifetimes: u64, bounds: Vec<Vec<f64>>) -> LifetimeResult {
        let sessions = bounds
            .into_iter()
            .enumerate()
            .map(|(i, b)| SessionRecord {
                session: i,
                applications_before: i as u64 * 100,
                map_stats: ProgramStats::default(),
                windows: Vec::new(),
                remapped: i == 0,
                pre_tune_accuracy: 0.9,
                tuning_iterations: 5,
                tuning_pulses: 10,
                accuracy: 0.95,
                converged: true,
                per_layer_mean_r_max: b,
                worn_out_devices: 0,
            })
            .collect();
        LifetimeResult {
            strategy,
            sessions,
            lifetime_applications: lifetimes,
            failed: true,
            final_tile_stress: Vec::new(),
        }
    }

    #[test]
    fn conv_fc_split_averages_correct_layers() {
        let kinds = [LayerKind::Convolution, LayerKind::Convolution, LayerKind::FullyConnected];
        let r = result(Strategy::TT, 100, vec![vec![90e3, 80e3, 99e3], vec![70e3, 60e3, 98e3]]);
        let series = conv_vs_fc_series(&r, &kinds);
        assert_eq!(series.len(), 2);
        assert!((series[0].conv_mean_r_max - 85e3).abs() < 1.0);
        assert!((series[0].fc_mean_r_max - 99e3).abs() < 1.0);
        assert!((series[1].conv_mean_r_max - 65e3).abs() < 1.0);
    }

    #[test]
    fn conv_fc_split_handles_missing_kinds() {
        let kinds = [LayerKind::FullyConnected];
        let r = result(Strategy::TT, 10, vec![vec![99e3]]);
        let series = conv_vs_fc_series(&r, &kinds);
        assert_eq!(series[0].conv_mean_r_max, 0.0);
        assert!((series[0].fc_mean_r_max - 99e3).abs() < 1.0);
    }

    #[test]
    fn conv_only_network_reports_zero_fc_mean() {
        let kinds = [LayerKind::Convolution, LayerKind::Convolution];
        let r = result(Strategy::StAt, 50, vec![vec![40e3, 60e3], vec![30e3, 50e3]]);
        let series = conv_vs_fc_series(&r, &kinds);
        assert_eq!(series.len(), 2);
        assert!((series[0].conv_mean_r_max - 50e3).abs() < 1.0);
        assert_eq!(series[0].fc_mean_r_max, 0.0);
        assert!((series[1].conv_mean_r_max - 40e3).abs() < 1.0);
        assert_eq!(series[1].fc_mean_r_max, 0.0);
        assert!(series.iter().all(|p| p.fc_mean_r_max.is_finite()));
    }

    #[test]
    fn empty_kind_list_yields_zero_means_per_checkpoint() {
        let kinds: [LayerKind; 0] = [];
        let r = result(Strategy::StT, 20, vec![vec![90e3], vec![80e3]]);
        let series = conv_vs_fc_series(&r, &kinds);
        // One point per session, with both group means collapsing to 0.0
        // (never NaN) because neither group has any member layers.
        assert_eq!(series.len(), 2);
        for (i, point) in series.iter().enumerate() {
            assert_eq!(point.applications, i as u64 * 100);
            assert_eq!(point.conv_mean_r_max, 0.0);
            assert_eq!(point.fc_mean_r_max, 0.0);
        }
    }

    #[test]
    fn no_sessions_yields_empty_series() {
        let kinds = [LayerKind::Convolution, LayerKind::FullyConnected];
        let r = result(Strategy::TT, 0, vec![]);
        assert!(conv_vs_fc_series(&r, &kinds).is_empty());
    }

    #[test]
    fn lifetime_ratios_normalize_to_first() {
        let results = vec![
            result(Strategy::TT, 100, vec![]),
            result(Strategy::StT, 600, vec![]),
            result(Strategy::StAt, 1100, vec![]),
        ];
        let cmp = compare_lifetimes(&results);
        assert_eq!(cmp.entries[0], (Strategy::TT, 100));
        assert!((cmp.ratios[0] - 1.0).abs() < 1e-12);
        assert!((cmp.ratios[1] - 6.0).abs() < 1e-12);
        assert!((cmp.ratios[2] - 11.0).abs() < 1e-12);
    }

    #[test]
    fn zero_baseline_does_not_divide_by_zero() {
        let results = vec![result(Strategy::TT, 0, vec![]), result(Strategy::StT, 5, vec![])];
        let cmp = compare_lifetimes(&results);
        assert!(cmp.ratios.iter().all(|r| r.is_finite()));
    }
}
