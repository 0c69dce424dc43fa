//! Surface-code parameters: logical error rate, code distance selection,
//! physical-resource and timing models.
//!
//! The logical error rate of a distance-`d` double-defect logical qubit is
//! (paper Eq. 1, after Fowler et al.):
//!
//! ```text
//! P_L = 0.03 * (p / p_th)^((d + 1) / 2)
//! ```

use crate::error::LatticeError;

/// Prefactor of the logical error-rate model (paper Eq. 1).
pub const LOGICAL_ERROR_PREFACTOR: f64 = 0.03;

/// Default physical error rate: 0.1%, "what today's best superconducting
/// quantum devices can achieve" (paper §2).
pub const DEFAULT_PHYSICAL_ERROR_RATE: f64 = 1e-3;

/// Default threshold error rate: 0.57%, same as Fowler et al. (paper §2).
pub const DEFAULT_THRESHOLD_ERROR_RATE: f64 = 5.7e-3;

/// Duration of one surface code cycle in microseconds (paper §4.1, faithful
/// to recent superconducting implementation parameters from \[10\]).
pub const DEFAULT_CYCLE_TIME_US: f64 = 2.2;

/// Code distance used throughout the paper's Table 2 overview.
pub const DEFAULT_CODE_DISTANCE: u32 = 33;

/// Surface-code configuration: physical error rate, threshold, and code
/// distance.
///
/// # Examples
///
/// ```
/// use autobraid_lattice::surface_code::CodeParams;
///
/// let params = CodeParams::default();           // p = 0.1%, p_th = 0.57%, d = 33
/// assert!(params.logical_error_rate() < 1e-12); // far below physical rate
///
/// let strong = CodeParams::for_target_error(1e-22)?;
/// assert!(strong.distance() >= 51);
/// # Ok::<(), autobraid_lattice::error::LatticeError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CodeParams {
    physical_error_rate: f64,
    threshold_error_rate: f64,
    distance: u32,
}

impl Default for CodeParams {
    fn default() -> Self {
        CodeParams {
            physical_error_rate: DEFAULT_PHYSICAL_ERROR_RATE,
            threshold_error_rate: DEFAULT_THRESHOLD_ERROR_RATE,
            distance: DEFAULT_CODE_DISTANCE,
        }
    }
}

impl CodeParams {
    /// Creates parameters from explicit values.
    ///
    /// # Errors
    ///
    /// Returns [`LatticeError::InvalidCodeParams`] if either rate is outside
    /// `(0, 1)`, if `p >= p_th` (the Threshold Theorem precondition fails),
    /// or if `distance` is zero or even (defect codes use odd distances).
    pub fn new(
        physical_error_rate: f64,
        threshold_error_rate: f64,
        distance: u32,
    ) -> Result<Self, LatticeError> {
        let valid_rate = |r: f64| r > 0.0 && r < 1.0 && r.is_finite();
        if !valid_rate(physical_error_rate)
            || !valid_rate(threshold_error_rate)
            || physical_error_rate >= threshold_error_rate
        {
            return Err(LatticeError::InvalidCodeParams(format!(
                "need 0 < p < p_th < 1, got p={physical_error_rate}, p_th={threshold_error_rate}"
            )));
        }
        if distance == 0 || distance.is_multiple_of(2) {
            return Err(LatticeError::InvalidCodeParams(format!(
                "code distance must be odd and positive, got {distance}"
            )));
        }
        Ok(CodeParams {
            physical_error_rate,
            threshold_error_rate,
            distance,
        })
    }

    /// Default rates with an explicit code distance.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CodeParams::new`].
    pub fn with_distance(distance: u32) -> Result<Self, LatticeError> {
        CodeParams::new(
            DEFAULT_PHYSICAL_ERROR_RATE,
            DEFAULT_THRESHOLD_ERROR_RATE,
            distance,
        )
    }

    /// The smallest (odd) code distance whose logical error rate is at or
    /// below `target`, using the default physical/threshold rates. This is
    /// how the evaluation scales `d` with computation size (`d` increases
    /// when `P_L` decreases).
    ///
    /// # Errors
    ///
    /// Returns [`LatticeError::InvalidCodeParams`] if `target` is not in
    /// `(0, 1)`.
    pub fn for_target_error(target: f64) -> Result<Self, LatticeError> {
        if !(target > 0.0 && target < 1.0 && target.is_finite()) {
            return Err(LatticeError::InvalidCodeParams(format!(
                "target logical error rate must be in (0,1), got {target}"
            )));
        }
        // P_L = 0.03 * r^((d+1)/2)  with  r = p / p_th < 1
        // =>  (d+1)/2 >= ln(target / 0.03) / ln(r)
        let r = DEFAULT_PHYSICAL_ERROR_RATE / DEFAULT_THRESHOLD_ERROR_RATE;
        let exponent = (target / LOGICAL_ERROR_PREFACTOR).ln() / r.ln();
        let mut d = (2.0 * exponent.max(0.0) - 1.0).ceil().max(1.0) as u32;
        if d.is_multiple_of(2) {
            d += 1;
        }
        let params = CodeParams::with_distance(d)?;
        debug_assert!(params.logical_error_rate() <= target * (1.0 + 1e-9));
        Ok(params)
    }

    /// Physical per-operation error rate `p`.
    #[inline]
    pub fn physical_error_rate(&self) -> f64 {
        self.physical_error_rate
    }

    /// Fault-tolerance threshold `p_th`.
    #[inline]
    pub fn threshold_error_rate(&self) -> f64 {
        self.threshold_error_rate
    }

    /// Code distance `d`.
    #[inline]
    pub fn distance(&self) -> u32 {
        self.distance
    }

    /// Logical error rate per logical qubit (paper Eq. 1).
    pub fn logical_error_rate(&self) -> f64 {
        let ratio = self.physical_error_rate / self.threshold_error_rate;
        LOGICAL_ERROR_PREFACTOR * ratio.powf(f64::from(self.distance + 1) / 2.0)
    }

    /// Physical qubits required per logical-qubit tile.
    ///
    /// A tile must hold a double-defect logical qubit (two defects of
    /// circumference `~d` separated by `~d`) plus the surrounding channel
    /// qubits, giving a footprint of roughly `(2d)²` data + measurement
    /// qubits. The constant matters only for resource reporting, never for
    /// scheduling decisions.
    pub fn physical_qubits_per_tile(&self) -> u64 {
        let d = u64::from(self.distance);
        (2 * d).pow(2)
    }

    /// Total physical qubits for a lattice of `tiles` logical tiles.
    pub fn physical_qubits(&self, tiles: usize) -> u64 {
        self.physical_qubits_per_tile() * tiles as u64
    }
}

/// Latency model translating braiding steps into surface code cycles and
/// wall-clock time.
///
/// Braiding is latency-insensitive in *path length*, but a braid still
/// spans a fixed number of surface code cycles: moving a defect a long
/// distance is done in a constant number of lattice deformations, each of
/// which must be stabilized for `d` cycles. We charge `2d` cycles per
/// braiding step (extend + contract) and `d` cycles per local single-qubit
/// layer; all schedulers are charged identically, so every relative result
/// is independent of these constants.
///
/// # Examples
///
/// ```
/// use autobraid_lattice::surface_code::{CodeParams, TimingModel};
///
/// let timing = TimingModel::new(CodeParams::default());
/// assert_eq!(timing.braid_step_cycles(), 66);      // 2d with d = 33
/// assert!((timing.cycle_time_us() - 2.2).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingModel {
    params: CodeParams,
    cycle_time_us: f64,
}

impl TimingModel {
    /// Creates the timing model for `params` with the default 2.2 µs cycle.
    pub fn new(params: CodeParams) -> Self {
        TimingModel {
            params,
            cycle_time_us: DEFAULT_CYCLE_TIME_US,
        }
    }

    /// The underlying code parameters.
    #[inline]
    pub fn params(&self) -> &CodeParams {
        &self.params
    }

    /// Duration of one surface code cycle in microseconds.
    #[inline]
    pub fn cycle_time_us(&self) -> f64 {
        self.cycle_time_us
    }

    /// Surface code cycles consumed by one braiding step (`2d`).
    #[inline]
    pub fn braid_step_cycles(&self) -> u64 {
        2 * u64::from(self.params.distance())
    }

    /// Surface code cycles consumed by one local single-qubit layer (`d`).
    #[inline]
    pub fn local_step_cycles(&self) -> u64 {
        u64::from(self.params.distance())
    }

    /// Converts a cycle count to microseconds.
    #[inline]
    pub fn cycles_to_us(&self, cycles: u64) -> f64 {
        cycles as f64 * self.cycle_time_us
    }

    /// Converts a cycle count to seconds.
    #[inline]
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        self.cycles_to_us(cycles) * 1e-6
    }
}

impl Default for TimingModel {
    fn default() -> Self {
        TimingModel::new(CodeParams::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_params_match_paper() {
        let p = CodeParams::default();
        assert_eq!(p.distance(), 33);
        assert!((p.physical_error_rate() - 1e-3).abs() < 1e-15);
        assert!((p.threshold_error_rate() - 5.7e-3).abs() < 1e-15);
    }

    #[test]
    fn paper_example_distance_55() {
        // Paper §2: p = 0.1%, p_th = 0.57%, d = 55 => P_L ≈ 9.334e-23.
        let p = CodeParams::with_distance(55).unwrap();
        let pl = p.logical_error_rate();
        assert!(pl > 1e-23 && pl < 1e-21, "P_L = {pl}");
    }

    #[test]
    fn error_rate_decreases_with_distance() {
        let mut last = 1.0;
        for d in [3, 5, 11, 21, 33, 55] {
            let pl = CodeParams::with_distance(d).unwrap().logical_error_rate();
            assert!(pl < last, "d={d}: {pl} !< {last}");
            last = pl;
        }
    }

    #[test]
    fn rejects_bad_params() {
        assert!(CodeParams::new(0.0, 0.0057, 33).is_err());
        assert!(
            CodeParams::new(1e-3, 1e-4, 33).is_err(),
            "p above threshold"
        );
        assert!(CodeParams::new(1e-3, 5.7e-3, 0).is_err());
        assert!(CodeParams::new(1e-3, 5.7e-3, 32).is_err(), "even distance");
        assert!(CodeParams::new(f64::NAN, 5.7e-3, 33).is_err());
    }

    #[test]
    fn target_error_selection_is_minimal_and_odd() {
        for target in [1e-6, 1e-10, 1e-15, 1e-22] {
            let p = CodeParams::for_target_error(target).unwrap();
            assert!(p.distance() % 2 == 1);
            assert!(p.logical_error_rate() <= target);
            if p.distance() > 2 {
                let weaker = CodeParams::with_distance(p.distance() - 2).unwrap();
                assert!(
                    weaker.logical_error_rate() > target,
                    "distance {} not minimal for {target}",
                    p.distance()
                );
            }
        }
    }

    #[test]
    fn target_error_rejects_out_of_range() {
        assert!(CodeParams::for_target_error(0.0).is_err());
        assert!(CodeParams::for_target_error(1.0).is_err());
        assert!(CodeParams::for_target_error(-1e-5).is_err());
    }

    #[test]
    fn physical_resources_scale_with_tiles() {
        let p = CodeParams::default();
        assert_eq!(p.physical_qubits(100), 100 * p.physical_qubits_per_tile());
        assert!(p.physical_qubits_per_tile() > u64::from(p.distance()).pow(2));
    }

    #[test]
    fn timing_conversions() {
        let t = TimingModel::default();
        assert_eq!(t.braid_step_cycles(), 66);
        assert_eq!(t.local_step_cycles(), 33);
        assert!((t.cycles_to_us(100) - 220.0).abs() < 1e-9);
        assert!((t.cycles_to_seconds(1_000_000) - 2.2).abs() < 1e-9);
    }
}
