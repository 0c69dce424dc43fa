//! Scheduler configuration.

use autobraid_circuit::{Circuit, DependenceDag};
use autobraid_lattice::TimingModel;
use autobraid_placement::AnnealConfig;

/// How much of the schedule to keep in the result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Recording {
    /// Keep every step with its braiding paths (enables verification).
    #[default]
    Full,
    /// Keep only aggregate statistics (for very large benchmark runs).
    StatsOnly,
}

/// Configuration shared by all schedulers in this crate.
///
/// # Examples
///
/// ```
/// use autobraid::config::ScheduleConfig;
///
/// let config = ScheduleConfig::default()
///     .with_layout_threshold(0.5)
///     .with_annealing(None);
/// assert!((config.layout_threshold - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleConfig {
    /// Surface-code timing (code distance, cycle time).
    pub timing: TimingModel,
    /// The paper's `p` threshold in `[0, 1]`: the layout optimizer runs
    /// when the fraction of scheduled CX gates in a step falls *below*
    /// this value, inserting up to 64 swap pairs per layer and at most
    /// two swap layers in a row (fixed, to guard against oscillation).
    /// `0.0` disables dynamic layout (autobraid-sp).
    pub layout_threshold: f64,
    /// Simulated-annealing refinement of the initial placement
    /// (`None` skips it — the "Before LLG" configuration of Table 1).
    pub annealing: Option<AnnealConfig>,
    /// What to retain in the result.
    pub recording: Recording,
    /// Use the commutation-relaxed dependence DAG
    /// ([`autobraid_circuit::DependenceDag::with_commutation`]) instead of
    /// the plain shared-qubit DAG. An extension beyond the paper; exposed
    /// for the ablation study.
    pub commutation_aware: bool,
    /// The worker count of
    /// [`Pipeline::compile_batch`](crate::pipeline::Pipeline::compile_batch)
    /// (default 1; `0` and `1` both mean serial). A single compile or
    /// stream never reads it: it runs serially. Compile *outputs* are
    /// bit-identical for every value (see `docs/RUNTIME.md`).
    pub threads: usize,
}

impl Default for ScheduleConfig {
    fn default() -> Self {
        ScheduleConfig {
            timing: TimingModel::default(),
            layout_threshold: 0.5,
            annealing: Some(AnnealConfig::default()),
            recording: Recording::Full,
            commutation_aware: false,
            threads: 1,
        }
    }
}

impl ScheduleConfig {
    /// Sets the layout-optimizer trigger threshold (`p`).
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn with_layout_threshold(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "threshold must be in [0,1], got {p}"
        );
        self.layout_threshold = p;
        self
    }

    /// Sets or disables the initial-placement annealing stage.
    pub fn with_annealing(mut self, annealing: Option<AnnealConfig>) -> Self {
        self.annealing = annealing;
        self
    }

    /// Sets the timing model.
    pub fn with_timing(mut self, timing: TimingModel) -> Self {
        self.timing = timing;
        self
    }

    /// Sets the recording mode.
    pub fn with_recording(mut self, recording: Recording) -> Self {
        self.recording = recording;
        self
    }

    /// Enables or disables commutation-aware dependence analysis.
    pub fn with_commutation_aware(mut self, on: bool) -> Self {
        self.commutation_aware = on;
        self
    }

    /// Sets the batch worker count (see [`ScheduleConfig::threads`]).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The effective parallelism: `threads` clamped to at least 1.
    pub fn effective_threads(&self) -> usize {
        self.threads.max(1)
    }

    /// The dependence DAG every scheduler drains `circuit` under: the
    /// commutation-relaxed DAG when [`ScheduleConfig::commutation_aware`]
    /// is set, the plain shared-qubit DAG otherwise.
    pub fn dag(&self, circuit: &Circuit) -> DependenceDag {
        if self.commutation_aware {
            DependenceDag::with_commutation(circuit)
        } else {
            DependenceDag::new(circuit)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sane() {
        let c = ScheduleConfig::default();
        assert!(c.layout_threshold > 0.0);
        assert!(c.annealing.is_some());
        assert_eq!(c.recording, Recording::Full);
    }

    #[test]
    #[should_panic(expected = "threshold must be in")]
    fn rejects_bad_threshold() {
        let _ = ScheduleConfig::default().with_layout_threshold(1.5);
    }

    #[test]
    fn builder_chains() {
        let c = ScheduleConfig::default()
            .with_layout_threshold(0.0)
            .with_annealing(None)
            .with_recording(Recording::StatsOnly);
        assert_eq!(c.layout_threshold, 0.0);
        assert!(c.annealing.is_none());
        assert_eq!(c.recording, Recording::StatsOnly);
    }
}
