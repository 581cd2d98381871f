//! Serving-tier configuration.

use memaging_lifetime::WearThresholds;

use crate::error::ServeError;

/// Configuration of the [`crate::InferenceService`].
///
/// The wear thresholds are the *shared* [`WearThresholds`] struct of the
/// lifetime health forecaster — the live-remap trigger classifies the
/// observed window fraction with exactly the rule that raises the
/// forecaster's `warn` alert, so the two cannot drift apart.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Admission-queue capacity: a request arriving at a full queue is
    /// rejected immediately with [`ServeError::QueueFull`].
    pub queue_capacity: usize,
    /// Maximum requests per dispatched batch. Batching is
    /// work-conserving: the dispatcher never waits to fill a batch, it
    /// takes up to this many of the requests already queued below the
    /// next maintenance boundary.
    pub max_batch: usize,
    /// Maintenance-boundary interval in admitted requests: every
    /// `maintenance_interval` admissions the maintenance task accrues the
    /// interval's read-disturb wear, refreshes the published mapping
    /// generation, runs the health forecaster, and (when triggered)
    /// re-runs the paper's aging-aware range selection. Deterministic by
    /// construction: boundaries live in request-sequence space, not in
    /// wall-clock time.
    pub maintenance_interval: u64,
    /// Effective stress absorbed per inference read, seconds per device
    /// (read-disturb wear). Calibrate with
    /// [`memaging_device::ArrheniusAging::stress_for_degradation`].
    pub stress_per_read: f64,
    /// Shared wear thresholds: the remap trigger fires on the same
    /// `warn_window_fraction` rule as the health forecaster.
    pub thresholds: WearThresholds,
    /// Extra staleness gate for re-arming the remap trigger: re-map only
    /// when the active mapping's window upper bound exceeds the observed
    /// mean aged bound by at least this fraction of the fresh window.
    /// Without it the (monotone) wear would re-trigger a remap at every
    /// boundary past the warn threshold.
    pub remap_drift_fraction: f64,
    /// Calibration batch size handed to the aging-aware range selection.
    pub calib_batch: usize,
    /// Tuning-iteration budget reported to the health forecaster (the
    /// paper's failure criterion denominator).
    pub tuning_budget: usize,
    /// Number of power-of-2 buckets in the serving latency histograms
    /// (queue wait, batch formation, forward, end-to-end). Bucket `i` spans
    /// `[2^(i-1), 2^i - 1]` microseconds; 40 buckets cover up to ~12.7
    /// days. CLI flag: `--latency-buckets`.
    pub latency_buckets: usize,
    /// Regression window (maintenance boundaries) for the per-tile wear
    /// velocity/acceleration fit behind the lifetime forecast
    /// ([`memaging_lifetime::trend`]). Must not exceed the series
    /// capacity, or the raw tail can't hold a full window.
    pub forecast_window: usize,
    /// Serve inference on the fixed-point kernels: each worker quantizes
    /// its generation snapshot once at resync and forwards requests with
    /// integer accumulation (bit-identical at any thread count). The
    /// hardware trajectory — wear, boundaries, remap decisions — is
    /// unchanged; only the per-request forward arithmetic differs from the
    /// f32 oracle, within the quantization error bound. CLI flag:
    /// `--quantized`.
    pub quantized: bool,
    /// Background remaps program only cells whose target level changed
    /// (delta programming, the default). With `remap_tolerance == 0.0` the
    /// hardware trajectory is bitwise identical to full reprogramming —
    /// only faster and with the wear attribution reflecting the cells
    /// actually written. `false` keeps the full-reprogram oracle. CLI
    /// flag: `--delta-remap`.
    pub delta_remap: bool,
    /// Delta-remap tuning tolerance, in grid levels: drift within this
    /// distance of the target level is left in place instead of being
    /// chased with stressful pulses. Must lie in `[0, 0.5]` — beyond half
    /// a level the skipped state would alias a different level code. CLI
    /// flag: `--remap-tolerance`.
    pub remap_tolerance: f64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 256,
            max_batch: 16,
            maintenance_interval: 64,
            stress_per_read: 0.0,
            thresholds: WearThresholds::default(),
            remap_drift_fraction: 0.02,
            calib_batch: 64,
            tuning_budget: 150,
            latency_buckets: 40,
            forecast_window: memaging_lifetime::DEFAULT_FORECAST_WINDOW,
            quantized: false,
            delta_remap: true,
            remap_tolerance: 0.0,
        }
    }
}

impl ServeConfig {
    /// Validates ranges and orderings.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for zero capacities/intervals,
    /// a negative or non-finite stress, an out-of-range drift fraction, or
    /// inconsistent wear thresholds.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.queue_capacity == 0 || self.max_batch == 0 {
            return Err(ServeError::InvalidConfig {
                reason: "queue_capacity and max_batch must be nonzero".into(),
            });
        }
        if self.maintenance_interval == 0 {
            return Err(ServeError::InvalidConfig {
                reason: "maintenance_interval must be nonzero".into(),
            });
        }
        if !self.stress_per_read.is_finite() || self.stress_per_read < 0.0 {
            return Err(ServeError::InvalidConfig {
                reason: "stress_per_read must be finite and >= 0".into(),
            });
        }
        if !(0.0..=1.0).contains(&self.remap_drift_fraction) {
            return Err(ServeError::InvalidConfig {
                reason: "remap_drift_fraction must lie in [0, 1]".into(),
            });
        }
        if self.calib_batch == 0 || self.tuning_budget == 0 {
            return Err(ServeError::InvalidConfig {
                reason: "calib_batch and tuning_budget must be nonzero".into(),
            });
        }
        if !(8..=64).contains(&self.latency_buckets) {
            return Err(ServeError::InvalidConfig {
                reason: "latency_buckets must lie in [8, 64]".into(),
            });
        }
        if self.forecast_window < 2 {
            return Err(ServeError::InvalidConfig {
                reason: "forecast_window must be at least 2 boundaries".into(),
            });
        }
        if !self.remap_tolerance.is_finite() || !(0.0..=0.5).contains(&self.remap_tolerance) {
            return Err(ServeError::InvalidConfig {
                reason: "remap_tolerance must lie in [0, 0.5] grid levels".into(),
            });
        }
        self.thresholds
            .validate()
            .map_err(|e| ServeError::InvalidConfig { reason: format!("wear thresholds: {e}") })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        assert!(ServeConfig::default().validate().is_ok());
    }

    #[test]
    fn bad_configs_are_rejected() {
        for bad in [
            ServeConfig { queue_capacity: 0, ..ServeConfig::default() },
            ServeConfig { max_batch: 0, ..ServeConfig::default() },
            ServeConfig { maintenance_interval: 0, ..ServeConfig::default() },
            ServeConfig { stress_per_read: -1.0, ..ServeConfig::default() },
            ServeConfig { stress_per_read: f64::NAN, ..ServeConfig::default() },
            ServeConfig { remap_drift_fraction: 1.5, ..ServeConfig::default() },
            ServeConfig { calib_batch: 0, ..ServeConfig::default() },
            ServeConfig { latency_buckets: 4, ..ServeConfig::default() },
            ServeConfig { latency_buckets: 65, ..ServeConfig::default() },
            ServeConfig { forecast_window: 1, ..ServeConfig::default() },
            ServeConfig { remap_tolerance: -0.1, ..ServeConfig::default() },
            ServeConfig { remap_tolerance: 0.6, ..ServeConfig::default() },
            ServeConfig { remap_tolerance: f64::NAN, ..ServeConfig::default() },
            ServeConfig {
                thresholds: WearThresholds {
                    warn_window_fraction: 0.1,
                    ..WearThresholds::default()
                },
                ..ServeConfig::default()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} must be rejected");
        }
    }
}
