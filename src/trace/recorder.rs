//! The fixed-capacity span recorder.
//!
//! Tracing is off by default and observation-only: the fabric calls
//! [`TraceRecorder::record`] from its event handlers and nothing else —
//! no clocks read, no RNG drawn, no scheduling changed — so a run's
//! outcome is byte-identical with the recorder on or off (pinned by the
//! golden-digest gate). Events go into a [`TraceLog`], a few bytes
//! each, up to a fixed capacity counted in events; once full, further
//! events are *counted*, not stored ([`TraceRecorder::dropped_events`]),
//! keeping the recorded prefix a coherent timeline instead of silently
//! truncating the middle of one.

use skywalker_sim::SimTime;

use crate::trace::event::{TraceEvent, TraceEventKind};
use crate::trace::log::TraceLog;

/// Recorder settings: just the capacity, in events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Maximum events stored; later events are dropped (and counted).
    pub capacity: usize,
}

impl Default for TraceConfig {
    /// Roomy enough for every preset in the repository (the reference
    /// diurnal day records two thirds of this, `fig8` at full scale
    /// under a quarter), small enough to be a non-event in memory: a
    /// full log is ~16 MB, and it is allocated as it fills.
    fn default() -> Self {
        TraceConfig { capacity: 1 << 21 }
    }
}

impl TraceConfig {
    /// A config with an explicit capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        TraceConfig { capacity }
    }
}

/// Collects span events during a run, up to a fixed capacity.
///
/// # Examples
///
/// ```
/// use skywalker::sim::SimTime;
/// use skywalker::trace::{TraceConfig, TraceEventKind, TraceRecorder};
///
/// let mut rec = TraceRecorder::new(TraceConfig::with_capacity(1));
/// rec.record(SimTime::ZERO, TraceEventKind::Issued { req: 1 });
/// rec.record(SimTime::ZERO, TraceEventKind::Issued { req: 2 }); // over capacity
/// let summary = rec.into_summary();
/// assert_eq!(summary.events.len(), 1);
/// assert_eq!(summary.dropped_events, 1);
/// ```
#[derive(Debug, Clone)]
pub struct TraceRecorder {
    events: TraceLog,
    capacity: usize,
    dropped: u64,
}

impl TraceRecorder {
    /// An empty recorder with the config's capacity.
    pub fn new(cfg: TraceConfig) -> Self {
        TraceRecorder {
            events: TraceLog::default(),
            capacity: cfg.capacity,
            dropped: 0,
        }
    }

    /// Records one event, or counts it dropped once the buffer is full.
    #[inline]
    pub fn record(&mut self, at: SimTime, kind: TraceEventKind) {
        if self.events.len() < self.capacity {
            self.events.push(TraceEvent { at, kind });
        } else {
            self.dropped += 1;
        }
    }

    /// Finishes recording, yielding the run's trace.
    pub fn into_summary(self) -> TraceSummary {
        TraceSummary {
            events: self.events,
            capacity: self.capacity,
            dropped_events: self.dropped,
        }
    }
}

/// A finished run's trace: the recorded events plus honest accounting of
/// what did not fit.
#[derive(Debug, Clone)]
pub struct TraceSummary {
    /// Recorded events, in execution (= virtual-time) order.
    pub events: TraceLog,
    /// The recorder's capacity during the run.
    pub capacity: usize,
    /// Events that arrived after the buffer filled. Non-zero means the
    /// timeline is a prefix of the run: attribution will then only cover
    /// requests that completed inside the recorded window.
    pub dropped_events: u64,
}

impl TraceSummary {
    /// True if every event of the run fit in the buffer.
    pub fn complete(&self) -> bool {
        self.dropped_events == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order_until_capacity() {
        let mut rec = TraceRecorder::new(TraceConfig::with_capacity(2));
        rec.record(SimTime::from_micros(1), TraceEventKind::Issued { req: 1 });
        rec.record(
            SimTime::from_micros(2),
            TraceEventKind::Delivered { req: 1 },
        );
        rec.record(SimTime::from_micros(3), TraceEventKind::Issued { req: 2 });
        let s = rec.into_summary();
        assert_eq!(s.events.len(), 2);
        assert_eq!(s.dropped_events, 1);
        assert!(!s.complete());
        assert_eq!(s.capacity, 2);
        let events: Vec<TraceEvent> = s.events.iter().collect();
        assert_eq!(events[0].at, SimTime::from_micros(1));
        assert_eq!(events[1].kind, TraceEventKind::Delivered { req: 1 });
    }

    #[test]
    fn default_capacity_is_roomy() {
        let rec = TraceRecorder::new(TraceConfig::default());
        assert!(rec.capacity >= 1 << 20);
        assert!(rec.into_summary().complete());
    }
}
