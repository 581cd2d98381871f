//! A stateful memristor: programmable position on the fresh level grid,
//! accumulated aging stress, pulse counting.

use crate::aging::{AgedWindow, AgingModel, ArrheniusAging};
use crate::error::DeviceError;
use crate::quantizer::Quantizer;
use crate::spec::DeviceSpec;
use crate::units::{Ohms, Siemens};

/// Result of one programming operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgramOutcome {
    /// Level the caller asked for (on the fresh level grid).
    pub requested_level: usize,
    /// Nearest grid level to the state actually reached after the aged
    /// window stopped further movement.
    pub achieved_level: usize,
    /// Programming pulses applied.
    pub pulses: u64,
}

impl ProgramOutcome {
    /// `true` when the aged window prevented reaching the requested level —
    /// the mismatch of paper Fig. 4 ("Level 7 requested, Level 2 reached").
    pub fn clipped(&self) -> bool {
        self.requested_level != self.achieved_level
    }
}

/// A single memristor cell with programming history and aging state.
///
/// The device's state is a *continuous position* on the fresh quantization
/// grid (position `k` ↔ resistance `r_min + k·level_width`). Write targets
/// are grid levels (the programming DAC is quantized), and each programming
/// pulse moves the position one full level; online-tuning *nudges* move it
/// by the sub-level [`DeviceSpec::tuning_step_levels`]. The reachable range
/// contracts as the aged window [`AgedWindow`] shrinks, and every pulse adds
/// power-weighted effective stress (see [`ArrheniusAging`]).
///
/// The aged window is a pure function of the accumulated stress, and reads
/// far outnumber stress changes (a tuning pass reads every cell per
/// iteration). So each device caches its window in grid-position units and
/// its worn-out flag, recomputed by the same expressions whenever stress
/// changes. Every read is therefore bit-identical to evaluating the aging
/// law afresh.
///
/// # Examples
///
/// ```
/// use memaging_device::{ArrheniusAging, DeviceSpec, Memristor};
///
/// # fn main() -> Result<(), memaging_device::DeviceError> {
/// let mut m = Memristor::new(DeviceSpec::default(), ArrheniusAging::default())?;
/// let outcome = m.program_to_level(30)?;
/// assert_eq!(outcome.achieved_level, 30);
/// assert!(m.pulse_count() > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Memristor {
    spec: DeviceSpec,
    aging: ArrheniusAging,
    /// Continuous position on the fresh grid, in level units.
    position: f64,
    /// Stress from this device's own programming pulses.
    own_stress: f64,
    /// Stress absorbed from array-level thermal crosstalk.
    ambient_stress: f64,
    pulse_count: u64,
    /// The aged window in fresh-grid position units `(lo, hi)`, cached by
    /// [`Memristor::refresh`].
    bounds: (f64, f64),
    /// Fewer than 2 fresh levels inside the aged window, cached by
    /// [`Memristor::refresh`].
    worn_out: bool,
}

// Arrays hold one device per cell: the cached window must not grow it.
const _: () = assert!(std::mem::size_of::<Memristor>() == 168);

impl Memristor {
    /// Creates a fresh device at the middle level.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidSpec`] if the spec is invalid.
    pub fn new(spec: DeviceSpec, aging: ArrheniusAging) -> Result<Self, DeviceError> {
        spec.validate()?;
        let mut device = Memristor {
            position: (spec.levels / 2) as f64,
            spec,
            aging,
            own_stress: 0.0,
            ambient_stress: 0.0,
            pulse_count: 0,
            bounds: (0.0, 0.0),
            worn_out: false,
        };
        device.refresh();
        Ok(device)
    }

    /// Recomputes the cached window and worn-out flag from the present
    /// stress. Must run after every stress change.
    fn refresh(&mut self) {
        self.refresh_with_factor(self.arrhenius_factor());
    }

    /// [`Memristor::refresh`] with the Arrhenius factor passed in; returns
    /// the aged window it derived the cache from.
    fn refresh_with_factor(&mut self, arrhenius: f64) -> AgedWindow {
        let w = self.aged_window_with_factor(arrhenius);
        let width = self.spec.level_width();
        let lo = ((w.r_min - self.spec.r_min) / width).max(0.0);
        let hi = ((w.r_max - self.spec.r_min) / width).min((self.spec.levels - 1) as f64);
        self.bounds = (lo, hi.max(lo));
        self.worn_out = self.quantizer().levels_within(w.r_min, w.r_max) < 2;
        w
    }

    /// The device spec.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// The fresh-grid quantizer.
    pub fn quantizer(&self) -> Quantizer {
        Quantizer::from_valid_spec(&self.spec)
    }

    /// The aging model.
    pub fn aging(&self) -> &ArrheniusAging {
        &self.aging
    }

    /// The *stored* continuous position on the fresh grid, in level units —
    /// **not** clamped into the aged window (contrast [`Memristor::level`],
    /// which reads the effective, window-clamped state). Delta-programming
    /// uses this to diff a device against its next target level.
    pub fn grid_position(&self) -> f64 {
        self.position
    }

    /// Accumulated effective stress, seconds (own pulses plus absorbed
    /// thermal crosstalk).
    pub fn stress(&self) -> f64 {
        self.own_stress + self.ambient_stress
    }

    /// Stress from this device's own programming pulses only.
    pub fn own_stress(&self) -> f64 {
        self.own_stress
    }

    /// Absorbs `delta` seconds of array-level thermal stress (see
    /// [`crate::ArrheniusAging::thermal_coupling`]).
    ///
    /// # Panics
    ///
    /// Panics if `delta` is negative or non-finite.
    pub fn absorb_ambient_stress(&mut self, delta: f64) {
        self.absorb_ambient_stress_with_factor(delta, self.arrhenius_factor());
    }

    /// [`Memristor::absorb_ambient_stress`] with the Arrhenius factor
    /// passed in (see [`Memristor::arrhenius_factor`]). Returns the aged
    /// window after the stress — what [`Memristor::aged_window`] would now
    /// return — so an array-wide pass can summarize wear without deriving
    /// each window a second time.
    ///
    /// # Panics
    ///
    /// Panics if `delta` is negative or non-finite.
    pub fn absorb_ambient_stress_with_factor(&mut self, delta: f64, arrhenius: f64) -> AgedWindow {
        assert!(delta.is_finite() && delta >= 0.0, "ambient stress delta must be >= 0");
        self.ambient_stress += delta;
        self.refresh_with_factor(arrhenius)
    }

    /// Total programming pulses ever applied.
    pub fn pulse_count(&self) -> u64 {
        self.pulse_count
    }

    /// The nearest grid level to the device's present state.
    pub fn level(&self) -> usize {
        (self.effective_position().round() as usize).min(self.spec.levels - 1)
    }

    /// The current aged resistance window.
    pub fn aged_window(&self) -> AgedWindow {
        self.aging.aged_window(&self.spec, self.stress())
    }

    /// The Arrhenius factor `exp(−E_a / k_B T)` of this device's aging law
    /// at its operating temperature. Devices of one spec and aging model
    /// share it, so an array-wide loop computes it once and passes it to
    /// the `*_with_factor` methods, which are then bit-identical to their
    /// plain counterparts; passing any other value desynchronizes the
    /// device from its aging law.
    pub fn arrhenius_factor(&self) -> f64 {
        self.aging.arrhenius_factor(self.spec.temperature)
    }

    /// [`Memristor::aged_window`] with the Arrhenius factor passed in.
    pub fn aged_window_with_factor(&self, arrhenius: f64) -> AgedWindow {
        debug_assert_eq!(arrhenius.to_bits(), self.arrhenius_factor().to_bits());
        self.aging.aged_window_with_factor(&self.spec, self.stress(), arrhenius)
    }

    /// The stored position clamped into the present aged window.
    fn effective_position(&self) -> f64 {
        let (lo, hi) = self.bounds;
        self.position.clamp(lo, hi)
    }

    /// The device's present resistance (always inside the aged window).
    pub fn resistance(&self) -> Ohms {
        let r = self.spec.r_min + self.effective_position() * self.spec.level_width();
        Ohms::new(r).expect("aged window stays positive")
    }

    /// The device's present conductance (what the crossbar column sums).
    pub fn conductance(&self) -> Siemens {
        self.resistance().to_siemens()
    }

    /// Number of fresh levels still inside the aged window.
    pub fn usable_levels(&self) -> usize {
        let w = self.aged_window();
        self.quantizer().levels_within(w.r_min, w.r_max)
    }

    /// `true` once fewer than 2 levels remain reachable — the device can no
    /// longer represent information.
    pub fn is_worn_out(&self) -> bool {
        self.worn_out
    }

    /// Highest fresh-grid level whose resistance is inside the aged window.
    pub fn highest_reachable_level(&self) -> usize {
        let (_, hi) = self.bounds;
        (hi.floor() as usize).min(self.spec.levels - 1)
    }

    /// Applies one pulse moving the position by `step_levels` grid units in
    /// `direction`, saturating against the aged window. Every pulse (even an
    /// absorbed one) stresses the device.
    fn apply_pulse(
        &mut self,
        direction: i8,
        step_levels: f64,
        arrhenius: f64,
    ) -> Result<(), DeviceError> {
        if self.worn_out {
            return Err(DeviceError::ProgramOnDeadDevice);
        }
        // Stress accrues at the device's *current* operating point; the
        // movement saturates against the window that stress leaves behind.
        self.own_stress += self.aging.stress_increment(&self.spec, self.resistance());
        self.refresh_with_factor(arrhenius);
        self.pulse_count += 1;
        let (lo, hi) = self.bounds;
        let current = self.position.clamp(lo, hi);
        self.position = match direction.signum() {
            1 => (current + step_levels).min(hi),
            -1 => (current - step_levels).max(lo),
            _ => current,
        };
        Ok(())
    }

    /// Applies one full-level programming pulse in `direction` (+1 toward
    /// higher resistance, −1 toward lower). Movement saturates against the
    /// aged window; a saturated pulse still stresses the device — failed
    /// programming attempts are exactly what accelerates late-life aging in
    /// the paper's analysis.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::ProgramOnDeadDevice`] if the device is worn
    /// out.
    pub fn pulse(&mut self, direction: i8) -> Result<(), DeviceError> {
        self.apply_pulse(direction, 1.0, self.arrhenius_factor())
    }

    /// Applies one sub-level tuning pulse (the constant-amplitude pulse of
    /// paper eq. 5) of [`DeviceSpec::tuning_step_levels`] grid units.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::ProgramOnDeadDevice`] if the device is worn
    /// out.
    pub fn nudge(&mut self, direction: i8) -> Result<(), DeviceError> {
        self.nudge_with_factor(direction, self.arrhenius_factor())
    }

    /// [`Memristor::nudge`] with the Arrhenius factor passed in (see
    /// [`Memristor::arrhenius_factor`]).
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::ProgramOnDeadDevice`] if the device is worn
    /// out.
    pub fn nudge_with_factor(&mut self, direction: i8, arrhenius: f64) -> Result<(), DeviceError> {
        self.apply_pulse(direction, self.spec.tuning_step_levels, arrhenius)
    }

    /// Forces the device into the worn-out state (window collapsed), for
    /// stuck-at-fault injection studies: forming failures and endurance
    /// outliers present exactly like a fully-aged cell.
    pub fn force_worn_out(&mut self) {
        let mut bump = self.own_stress.max(1.0e-9);
        while !self.worn_out {
            self.own_stress += bump;
            bump *= 2.0;
            self.refresh();
        }
    }

    /// Drifts the position one level in `direction` **without** a
    /// programming pulse: models read-disturb relaxation (paper §I, the
    /// recoverable effect of ref. 8). No stress accrues and no pulse is
    /// counted — the whole point of drift is that reprogramming undoes it
    /// for free, while the reprogramming itself is what ages the device.
    pub fn drift_level(&mut self, direction: i8) {
        let max = (self.spec.levels - 1) as f64;
        self.position = match direction.signum() {
            1 => (self.position + 1.0).min(max),
            -1 => (self.position - 1.0).max(0.0),
            _ => self.position,
        };
    }

    /// Drifts the conductance multiplicatively by `1 + relative_delta`
    /// (read-disturb relaxation scales with the current through the
    /// filament, so it is proportional in the conductance domain). Like
    /// [`Memristor::drift_level`], this is stress-free and recoverable.
    ///
    /// Non-finite deltas are ignored; the result is clamped to the fresh
    /// grid.
    pub fn drift_conductance(&mut self, relative_delta: f64) {
        if !relative_delta.is_finite() {
            return;
        }
        let g = self.conductance().value() * (1.0 + relative_delta);
        if g <= 0.0 {
            return;
        }
        let r = 1.0 / g;
        let position = (r - self.spec.r_min) / self.spec.level_width();
        self.position = position.clamp(0.0, (self.spec.levels - 1) as f64);
    }

    /// Programs the device toward `target_level` on the fresh grid with
    /// program-and-verify pulses (one level per pulse, a final partial pulse
    /// to land on target). Movement stops early when the aged window pins
    /// the state; the outcome reports the clipping.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::ProgramOnDeadDevice`] if the device is worn
    /// out before any pulse is applied.
    pub fn program_to_level(&mut self, target_level: usize) -> Result<ProgramOutcome, DeviceError> {
        self.program_level_with_factor(target_level, self.arrhenius_factor())
    }

    /// [`Memristor::program_to_level`] with the Arrhenius factor passed in.
    fn program_level_with_factor(
        &mut self,
        target_level: usize,
        arrhenius: f64,
    ) -> Result<ProgramOutcome, DeviceError> {
        if self.is_worn_out() {
            return Err(DeviceError::ProgramOnDeadDevice);
        }
        let requested = target_level.min(self.spec.levels - 1);
        let target = requested as f64;
        let mut pulses = 0u64;
        loop {
            let here = self.effective_position();
            let distance = target - here;
            if distance.abs() < 1e-9 {
                break;
            }
            let dir: i8 = if distance > 0.0 { 1 } else { -1 };
            self.apply_pulse(dir, distance.abs().min(1.0), arrhenius)?;
            pulses += 1;
            // Saturated against the aged window: the pulse made no progress
            // toward the target (the window may even recede under the
            // pulse's own stress — chasing it further would only burn the
            // device, so program-and-verify gives up here).
            let progressed = (target - self.effective_position()).abs() < distance.abs() - 1e-12;
            if !progressed {
                break;
            }
            if self.is_worn_out() {
                break;
            }
        }
        Ok(ProgramOutcome { requested_level: requested, achieved_level: self.level(), pulses })
    }

    /// Programs the device to the nearest level of a target resistance.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::ProgramOnDeadDevice`] if the device is worn
    /// out.
    pub fn program(&mut self, target: Ohms) -> Result<ProgramOutcome, DeviceError> {
        self.program_to_level(self.quantizer().nearest_level(target))
    }

    /// Programs to the nearest level of a target conductance.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::ProgramOnDeadDevice`] if the device is worn
    /// out.
    pub fn program_conductance(&mut self, target: Siemens) -> Result<ProgramOutcome, DeviceError> {
        self.program(target.to_ohms())
    }

    /// [`Memristor::program_conductance`] with the Arrhenius factor passed
    /// in (see [`Memristor::arrhenius_factor`]).
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::ProgramOnDeadDevice`] if the device is worn
    /// out.
    pub fn program_conductance_with_factor(
        &mut self,
        target: Siemens,
        arrhenius: f64,
    ) -> Result<ProgramOutcome, DeviceError> {
        let level = self.quantizer().nearest_level(target.to_ohms());
        self.program_level_with_factor(level, arrhenius)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> Memristor {
        Memristor::new(DeviceSpec::default(), ArrheniusAging::default()).unwrap()
    }

    #[test]
    fn starts_fresh_at_mid_level() {
        let m = fresh();
        assert_eq!(m.level(), 16);
        assert_eq!(m.stress(), 0.0);
        assert_eq!(m.pulse_count(), 0);
        assert_eq!(m.usable_levels(), 32);
        assert!(!m.is_worn_out());
    }

    #[test]
    fn program_counts_level_steps() {
        let mut m = fresh();
        let out = m.program_to_level(20).unwrap();
        assert_eq!(out.achieved_level, 20);
        assert_eq!(out.pulses, 4);
        assert!(!out.clipped());
        assert_eq!(m.pulse_count(), 4);
        let out = m.program_to_level(20).unwrap();
        assert_eq!(out.pulses, 0, "already at target");
    }

    #[test]
    fn program_resistance_quantizes() {
        let mut m = fresh();
        let target = Ohms::new(5.5e4).unwrap();
        m.program(target).unwrap();
        let err = (m.resistance().value() - target.value()).abs();
        assert!(err <= m.quantizer().level_width() / 2.0 + 1e-9);
    }

    #[test]
    fn stress_accumulates_per_pulse() {
        let mut m = fresh();
        m.program_to_level(31).unwrap();
        let s1 = m.stress();
        assert!(s1 > 0.0);
        m.program_to_level(0).unwrap();
        assert!(m.stress() > s1);
    }

    #[test]
    fn nudge_moves_a_fraction_of_a_level() {
        let mut m = fresh();
        let r0 = m.resistance().value();
        m.nudge(1).unwrap();
        let r1 = m.resistance().value();
        let moved = (r1 - r0) / m.spec().level_width();
        assert!((moved - m.spec().tuning_step_levels).abs() < 1e-9, "nudge moved {moved} levels");
        assert_eq!(m.pulse_count(), 1, "a nudge is a pulse");
        assert!(m.stress() > 0.0, "a nudge stresses the device");
    }

    #[test]
    fn nudges_accumulate_to_levels() {
        let mut m = fresh();
        let start = m.level();
        let per_level = (1.0 / m.spec().tuning_step_levels).round() as usize;
        for _ in 0..per_level {
            m.nudge(1).unwrap();
        }
        assert_eq!(m.level(), start + 1);
    }

    #[test]
    fn low_resistance_programming_ages_faster() {
        // Cycle two devices the same number of pulses: one toggling at the
        // low-resistance end, one at the high-resistance end.
        let mut low = fresh();
        let mut high = fresh();
        low.program_to_level(0).unwrap();
        high.program_to_level(31).unwrap();
        let (s_low0, s_high0) = (low.stress(), high.stress());
        for _ in 0..200 {
            low.pulse(1).unwrap();
            low.pulse(-1).unwrap();
            high.pulse(-1).unwrap();
            high.pulse(1).unwrap();
        }
        let d_low = low.stress() - s_low0;
        let d_high = high.stress() - s_high0;
        assert!(d_low > 3.0 * d_high, "LRS cycling must stress more: {d_low} vs {d_high}");
    }

    #[test]
    fn aged_device_clips_high_targets() {
        let mut m = fresh();
        // Age heavily by hammering pulses at the low-resistance end.
        m.program_to_level(0).unwrap();
        for _ in 0..20_000 {
            if m.pulse(1).is_err() || m.pulse(-1).is_err() {
                break;
            }
        }
        assert!(m.usable_levels() < 32, "expected level loss");
        if !m.is_worn_out() {
            let out = m.program_to_level(31).unwrap();
            assert!(out.clipped(), "top level must be unreachable after aging");
            assert!(out.achieved_level < 31);
            // The achieved state equals the aged upper bound.
            let w = m.aged_window();
            assert!((m.resistance().value() - w.r_max).abs() < m.spec().level_width());
        }
    }

    #[test]
    fn worn_out_device_rejects_programming() {
        let mut m = fresh();
        m.program_to_level(0).unwrap();
        for _ in 0..2_000_000 {
            if m.pulse(1).is_err() || m.pulse(-1).is_err() {
                break;
            }
        }
        assert!(m.is_worn_out(), "device should wear out under sustained LRS cycling");
        assert!(matches!(m.program_to_level(5), Err(DeviceError::ProgramOnDeadDevice)));
        assert!(matches!(m.pulse(1), Err(DeviceError::ProgramOnDeadDevice)));
        assert!(matches!(m.nudge(1), Err(DeviceError::ProgramOnDeadDevice)));
    }

    #[test]
    fn resistance_stays_inside_aged_window() {
        let mut m = fresh();
        m.program_to_level(31).unwrap();
        // Age the device; its stored position stays high but the window
        // drops beneath it, pinning reads at the bound.
        for _ in 0..60_000 {
            if m.pulse(1).is_err() {
                break;
            }
        }
        let w = m.aged_window();
        assert!(m.resistance().value() <= w.r_max + 1e-9);
        assert!(m.resistance().value() >= w.r_min - 1e-9);
    }

    #[test]
    fn pulse_out_of_grid_is_absorbed() {
        let mut m = fresh();
        m.program_to_level(31).unwrap();
        let lvl = m.level();
        m.pulse(1).unwrap();
        assert!(m.level() <= lvl, "cannot exceed top level");
        m.program_to_level(0).unwrap();
        m.pulse(-1).unwrap();
        assert_eq!(m.level(), 0);
    }

    #[test]
    fn zero_direction_pulse_only_stresses() {
        let mut m = fresh();
        let lvl = m.level();
        m.pulse(0).unwrap();
        assert_eq!(m.level(), lvl);
        assert_eq!(m.pulse_count(), 1);
        assert!(m.stress() > 0.0);
    }

    #[test]
    fn force_worn_out_collapses_the_window() {
        let mut m = fresh();
        assert!(!m.is_worn_out());
        m.force_worn_out();
        assert!(m.is_worn_out());
        assert!(matches!(m.pulse(1), Err(DeviceError::ProgramOnDeadDevice)));
        // Idempotent.
        m.force_worn_out();
        assert!(m.is_worn_out());
    }

    #[test]
    fn drift_moves_level_without_stress() {
        let mut m = fresh();
        let lvl = m.level();
        m.drift_level(1);
        assert_eq!(m.level(), lvl + 1);
        assert_eq!(m.stress(), 0.0);
        assert_eq!(m.pulse_count(), 0);
        m.drift_level(-1);
        m.drift_level(-1);
        assert_eq!(m.level(), lvl - 1);
        m.drift_level(0);
        assert_eq!(m.level(), lvl - 1);
    }

    #[test]
    fn drift_respects_grid_bounds() {
        let mut m = fresh();
        m.program_to_level(31).unwrap();
        m.drift_level(1);
        assert_eq!(m.level(), 31);
        m.program_to_level(0).unwrap();
        m.drift_level(-1);
        assert_eq!(m.level(), 0);
    }

    #[test]
    fn grid_position_reads_raw_unclamped_state() {
        let mut m = fresh();
        assert_eq!(m.grid_position(), 16.0);
        m.program_to_level(20).unwrap();
        assert!((m.grid_position() - 20.0).abs() < 1e-9);
        // Drift moves the raw position without stress; grid_position sees it.
        m.drift_level(1);
        assert!((m.grid_position() - 21.0).abs() < 1e-9);
        // Heavy aging pins reads at the window bound while the raw position
        // stays put.
        m.program_to_level(31).unwrap();
        for _ in 0..60_000 {
            if m.pulse(1).is_err() {
                break;
            }
        }
        assert!(m.grid_position() <= 31.0);
        assert!((m.level() as f64) <= m.grid_position() + 0.5, "effective state is clamped");
    }

    #[test]
    fn conductance_is_inverse_resistance() {
        let m = fresh();
        let g = m.conductance().value();
        let r = m.resistance().value();
        assert!((g * r - 1.0).abs() < 1e-12);
    }
}
