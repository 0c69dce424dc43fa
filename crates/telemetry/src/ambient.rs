//! [`AmbientStack`]: the always-on recorders of a long-running service.

use crate::recorder::{install, FanoutRecorder, Recorder, RecorderGuard};
use crate::{MemoryRecorder, TraceRecorder, WindowedRecorder, DEFAULT_FLIGHT_CAPACITY};
use std::sync::Arc;

/// Lifetime aggregates ([`MemoryRecorder::ambient`]), the trailing
/// metrics window ([`WindowedRecorder`]) and the coarse-decision ring
/// ([`TraceRecorder::flight`]), installed as one recorder.
///
/// Every sink declines fine-grained metrics and decisions, so a compile
/// makes a handful of sink calls under this stack whatever its size;
/// `bench regress` holds them to 2% of a compile. `autobraidd`
/// installs one on every connection thread and its worker pool.
pub struct AmbientStack {
    lifetime: Arc<MemoryRecorder>,
    windowed: Arc<WindowedRecorder>,
    flight: Arc<TraceRecorder>,
    fanout: Arc<dyn Recorder>,
}

impl Default for AmbientStack {
    fn default() -> AmbientStack {
        AmbientStack::new()
    }
}

impl AmbientStack {
    /// Three empty sinks.
    pub fn new() -> AmbientStack {
        let lifetime = Arc::new(MemoryRecorder::ambient());
        let windowed = Arc::new(WindowedRecorder::new());
        let flight = Arc::new(TraceRecorder::flight(DEFAULT_FLIGHT_CAPACITY));
        let fanout = Arc::new(FanoutRecorder::new(vec![
            Arc::clone(&lifetime) as Arc<dyn Recorder>,
            Arc::clone(&windowed) as Arc<dyn Recorder>,
            Arc::clone(&flight) as Arc<dyn Recorder>,
        ]));
        AmbientStack {
            lifetime,
            windowed,
            flight,
            fanout,
        }
    }

    /// Installs the stack on this thread until the guard drops.
    pub fn install(&self) -> RecorderGuard {
        install(self.recorder())
    }

    /// The stack as one recorder, for [`crate::install_alongside`].
    pub fn recorder(&self) -> Arc<dyn Recorder> {
        Arc::clone(&self.fanout)
    }

    /// Everything recorded since the stack was built.
    pub fn lifetime(&self) -> &MemoryRecorder {
        &self.lifetime
    }

    /// The trailing window of the same counters and histograms.
    pub fn windowed(&self) -> &WindowedRecorder {
        &self.windowed
    }

    /// The ring of coarse decisions.
    pub fn flight(&self) -> &TraceRecorder {
        &self.flight
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Decision;

    #[test]
    fn every_sink_sees_coarse_events_and_none_turns_fine_metrics_on() {
        let stack = AmbientStack::new();
        let tracer = Arc::new(TraceRecorder::new());
        {
            let _ambient = stack.install();
            assert!(!crate::fine_metrics_enabled());
            crate::counter("coarse", 1);
            crate::decision(&Decision::RequestBegin {
                id: 1,
                kind: "ping".to_string(),
            });
            let _traced = crate::install_alongside(tracer.clone());
            assert!(!crate::fine_metrics_enabled());
            crate::fine_counter("fine", 1);
            crate::counter("coarse", 1);
        }
        assert_eq!(stack.lifetime().snapshot().counter("coarse"), 2);
        assert_eq!(stack.lifetime().snapshot().counter("fine"), 0);
        assert_eq!(stack.windowed().snapshot().counter("coarse"), 2);
        assert_eq!(stack.flight().snapshot().events.len(), 1);
        assert_eq!(tracer.snapshot().dropped, 1);
    }
}
