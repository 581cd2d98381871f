//! Resistance-domain quantization (paper §II-B, Fig. 3).
//!
//! Programming circuitry discretizes the resistance range into a fixed
//! number of *uniformly spaced* levels (dashed lines of Fig. 3b). Because
//! conductance is the inverse of resistance, the induced conductance levels
//! are non-uniform: dense near `g_min` (large resistance) and sparse near
//! `g_max` (Fig. 3c). That density asymmetry is one of the two reasons the
//! paper skews weights toward small values — small weights land where
//! quantization is fine-grained.

use crate::error::DeviceError;
use crate::spec::DeviceSpec;
use crate::units::{Ohms, Siemens};

/// A uniform-in-resistance quantizer over a (possibly aged) window.
///
/// # Examples
///
/// ```
/// use memaging_device::{DeviceSpec, Ohms, Quantizer};
///
/// # fn main() -> Result<(), memaging_device::DeviceError> {
/// let q = Quantizer::from_spec(&DeviceSpec::default())?;
/// assert_eq!(q.levels(), 32);
/// let r = q.quantize(Ohms::new(55_123.0)?);
/// // Quantized to within half a level width.
/// assert!((r.value() - 55_123.0).abs() <= q.level_width() / 2.0 + 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantizer {
    r_min: f64,
    r_max: f64,
    levels: usize,
}

impl Quantizer {
    /// Creates a quantizer over `[r_min, r_max]` with `levels` levels.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidSpec`] if the window is empty or fewer
    /// than 2 levels are requested.
    pub fn new(r_min: Ohms, r_max: Ohms, levels: usize) -> Result<Self, DeviceError> {
        if r_max.value() <= r_min.value() {
            return Err(DeviceError::InvalidSpec {
                reason: format!("quantizer window [{}, {}] is empty", r_min.value(), r_max.value()),
            });
        }
        if levels < 2 {
            return Err(DeviceError::InvalidSpec {
                reason: format!("quantizer needs >= 2 levels, got {levels}"),
            });
        }
        Ok(Quantizer { r_min: r_min.value(), r_max: r_max.value(), levels })
    }

    /// Creates the fresh-window quantizer of a device spec.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidSpec`] if the spec is invalid.
    pub fn from_spec(spec: &DeviceSpec) -> Result<Self, DeviceError> {
        spec.validate()?;
        Ok(Quantizer::from_valid_spec(spec))
    }

    /// [`Quantizer::from_spec`] for a spec already known to be valid.
    pub(crate) fn from_valid_spec(spec: &DeviceSpec) -> Self {
        Quantizer { r_min: spec.r_min, r_max: spec.r_max, levels: spec.levels }
    }

    /// Number of levels.
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Spacing between adjacent resistance levels, ohms.
    pub fn level_width(&self) -> f64 {
        (self.r_max - self.r_min) / (self.levels - 1) as f64
    }

    /// The resistance of level `index` (level 0 = `r_min`, highest level =
    /// `r_max`).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.levels()`.
    pub fn level_resistance(&self, index: usize) -> Ohms {
        assert!(index < self.levels, "level {index} out of range");
        Ohms::new(self.r_min + index as f64 * self.level_width())
            .expect("window validated at construction")
    }

    /// The conductance of level `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.levels()`.
    pub fn level_conductance(&self, index: usize) -> Siemens {
        self.level_resistance(index).to_siemens()
    }

    /// All level resistances, ascending.
    pub fn level_resistances(&self) -> Vec<Ohms> {
        (0..self.levels).map(|i| self.level_resistance(i)).collect()
    }

    /// All level conductances, descending (level 0 has the highest
    /// conductance).
    pub fn level_conductances(&self) -> Vec<Siemens> {
        (0..self.levels).map(|i| self.level_conductance(i)).collect()
    }

    /// The nearest level index for a target resistance (clamped into range).
    pub fn nearest_level(&self, target: Ohms) -> usize {
        let t = target.value().clamp(self.r_min, self.r_max);
        let idx = ((t - self.r_min) / self.level_width()).round() as usize;
        idx.min(self.levels - 1)
    }

    /// Quantizes a target resistance to its nearest level value.
    pub fn quantize(&self, target: Ohms) -> Ohms {
        self.level_resistance(self.nearest_level(target))
    }

    /// Quantizes a target conductance through the resistance domain — the
    /// exact pipeline of Fig. 3: conductance → resistance → nearest uniform
    /// resistance level → conductance.
    pub fn quantize_conductance(&self, target: Siemens) -> Siemens {
        self.quantize(target.to_ohms()).to_siemens()
    }

    /// Number of this quantizer's levels whose resistance lies within
    /// `[lo, hi]` — the paper's "usable levels after aging" (Fig. 4).
    ///
    /// Level resistances ascend with the index, so the matching levels form
    /// one contiguous run; two binary searches find its ends.
    pub fn levels_within(&self, lo: f64, hi: f64) -> usize {
        let width = self.level_width();
        let r = |i: usize| self.r_min + i as f64 * width;
        // Negated rather than `<`, so a NaN bound matches nothing, as in a
        // level-by-level scan.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        let first = partition_point(self.levels, |i| !(r(i) >= lo - 1e-9));
        let end = partition_point(self.levels, |i| r(i) <= hi + 1e-9);
        end.saturating_sub(first)
    }
}

/// The first index in `0..n` at which the monotone predicate `pred` turns
/// false (`n` if it never does).
fn partition_point(n: usize, pred: impl Fn(usize) -> bool) -> usize {
    let (mut lo, mut hi) = (0, n);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q8() -> Quantizer {
        Quantizer::new(Ohms::new(1e4).unwrap(), Ohms::new(8e4).unwrap(), 8).unwrap()
    }

    #[test]
    fn construction_validates() {
        let r = Ohms::new(1e4).unwrap();
        assert!(Quantizer::new(r, r, 8).is_err());
        assert!(Quantizer::new(r, Ohms::new(2e4).unwrap(), 1).is_err());
        assert!(Quantizer::from_spec(&DeviceSpec::default()).is_ok());
    }

    #[test]
    fn levels_are_uniform_in_resistance() {
        let q = q8();
        let rs = q.level_resistances();
        assert_eq!(rs.len(), 8);
        let width = q.level_width();
        for pair in rs.windows(2) {
            assert!((pair[1].value() - pair[0].value() - width).abs() < 1e-9);
        }
        assert_eq!(rs[0].value(), 1e4);
        assert_eq!(rs[7].value(), 8e4);
    }

    #[test]
    fn conductance_levels_are_dense_near_g_min() {
        // Inverse relation: gaps between conductance levels shrink toward
        // the small-conductance (large-resistance) end — Fig. 3c.
        let q = q8();
        let gs = q.level_conductances();
        let first_gap = gs[0].value() - gs[1].value(); // near g_max
        let last_gap = gs[6].value() - gs[7].value(); // near g_min
        assert!(
            first_gap > 5.0 * last_gap,
            "expected dense levels near g_min: {first_gap} vs {last_gap}"
        );
    }

    #[test]
    fn nearest_level_rounds_and_clamps() {
        let q = q8();
        assert_eq!(q.nearest_level(Ohms::new(1e4).unwrap()), 0);
        assert_eq!(q.nearest_level(Ohms::new(8e4).unwrap()), 7);
        assert_eq!(q.nearest_level(Ohms::new(1.4e4).unwrap()), 0);
        assert_eq!(q.nearest_level(Ohms::new(1.6e4).unwrap()), 1);
        // Out-of-range clamps.
        assert_eq!(q.nearest_level(Ohms::new(1.0).unwrap()), 0);
        assert_eq!(q.nearest_level(Ohms::new(1e9).unwrap()), 7);
    }

    #[test]
    fn quantize_error_is_bounded() {
        let q = Quantizer::from_spec(&DeviceSpec::default()).unwrap();
        let half = q.level_width() / 2.0;
        for k in 0..100 {
            let r = 1e4 + (k as f64 / 99.0) * 9e4;
            let out = q.quantize(Ohms::new(r).unwrap());
            assert!((out.value() - r).abs() <= half + 1e-9, "error too large at {r}");
        }
    }

    #[test]
    fn quantize_conductance_round_trips_through_resistance() {
        let q = q8();
        let g = Siemens::new(1.0 / 3.3e4).unwrap();
        let gq = q.quantize_conductance(g);
        let rq = q.quantize(Ohms::new(3.3e4).unwrap());
        assert!((gq.value() - rq.to_siemens().value()).abs() < 1e-15);
    }

    #[test]
    fn levels_within_counts_aged_window() {
        let q = q8(); // levels at 10k..80k step 10k
        assert_eq!(q.levels_within(1e4, 8e4), 8);
        assert_eq!(q.levels_within(1e4, 3.5e4), 3); // 10k, 20k, 30k
        assert_eq!(q.levels_within(2.5e4, 8e4), 6);
        assert_eq!(q.levels_within(9e4, 1e5), 0);
    }

    #[test]
    fn level_resistance_panics_out_of_range() {
        let q = q8();
        let result = std::panic::catch_unwind(|| q.level_resistance(8));
        assert!(result.is_err());
    }
}
