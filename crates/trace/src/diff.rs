//! Structurally diffing two traced runs of the same scenario.
//!
//! Two [`BottleneckReport`]s align phase-for-phase (every report carries
//! all phases, zeros included), so a diff is per-phase deltas at each
//! percentile — turning "engine B loses 1.9× on P90 TTFT" into "engine B
//! spends 0.8s more in kv-stall and 0.1s less in decode".

use std::fmt::Write as _;

use skywalker_metrics::Summary;

use crate::attribution::Phase;
use crate::report::BottleneckReport;

/// One phase's change between a base and another run.
#[derive(Debug, Clone)]
pub struct PhaseDelta {
    /// The phase.
    pub phase: Phase,
    /// Per-request seconds in the base run.
    pub base: Summary,
    /// Per-request seconds in the other run.
    pub other: Summary,
    /// Share of total time in the base run (0..=1).
    pub base_share: f64,
    /// Share of total time in the other run (0..=1).
    pub other_share: f64,
}

impl PhaseDelta {
    /// Other minus base, p90 seconds.
    fn delta_p90(&self) -> f64 {
        self.other.p90 - self.base.p90
    }
}

/// The structural diff of two traced runs.
#[derive(Debug, Clone)]
pub struct TraceDiff {
    /// Label of the base run.
    pub base_label: String,
    /// Label of the compared run.
    pub other_label: String,
    /// End-to-end latency of (base, other), seconds.
    pub e2e: (Summary, Summary),
    /// TTFT of (base, other), seconds.
    pub ttft: (Summary, Summary),
    /// Per-phase end-to-end deltas, one entry per [`Phase`].
    pub phases: Vec<PhaseDelta>,
    /// Per-phase TTFT deltas, one entry per [`Phase`].
    pub ttft_phases: Vec<PhaseDelta>,
}

fn align(base: &BottleneckReport, other: &BottleneckReport, ttft: bool) -> Vec<PhaseDelta> {
    let pick = |r: &BottleneckReport| {
        if ttft {
            r.ttft_phases.clone()
        } else {
            r.phases.clone()
        }
    };
    pick(base)
        .into_iter()
        .zip(pick(other))
        .map(|(b, o)| {
            debug_assert_eq!(b.phase, o.phase, "reports always carry all phases in order");
            PhaseDelta {
                phase: b.phase,
                base: b.seconds,
                other: o.seconds,
                base_share: b.share,
                other_share: o.share,
            }
        })
        .collect()
}

impl TraceDiff {
    /// Diffs `other` against `base`.
    pub fn between(base: &BottleneckReport, other: &BottleneckReport) -> TraceDiff {
        TraceDiff {
            base_label: base.label.clone(),
            other_label: other.label.clone(),
            e2e: (base.e2e, other.e2e),
            ttft: (base.ttft, other.ttft),
            phases: align(base, other, false),
            ttft_phases: align(base, other, true),
        }
    }

    /// The phase moving TTFT the most (largest absolute p90 delta), if
    /// any phase moved at all.
    pub fn dominant_ttft_mover(&self) -> Option<Phase> {
        self.ttft_phases
            .iter()
            .max_by(|a, b| {
                a.delta_p90()
                    .abs()
                    .total_cmp(&b.delta_p90().abs())
                    .then(b.phase.label().cmp(a.phase.label()))
            })
            .filter(|d| d.delta_p90() != 0.0)
            .map(|d| d.phase)
    }

    /// Renders the markdown delta tables.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "## trace diff: {} -> {}",
            self.base_label, self.other_label
        );
        let _ = writeln!(
            out,
            "e2e  p90 {:.3}s -> {:.3}s ({:+.3}s)   ttft p90 {:.3}s -> {:.3}s ({:+.3}s)",
            self.e2e.0.p90,
            self.e2e.1.p90,
            self.e2e.1.p90 - self.e2e.0.p90,
            self.ttft.0.p90,
            self.ttft.1.p90,
            self.ttft.1.p90 - self.ttft.0.p90,
        );
        let _ = writeln!(out);
        let _ = writeln!(out, "TTFT phases:");
        render_table(&mut out, &self.ttft_phases);
        let _ = writeln!(out);
        let _ = writeln!(out, "end-to-end phases:");
        render_table(&mut out, &self.phases);
        if let Some(p) = self.dominant_ttft_mover() {
            let _ = writeln!(out);
            let _ = writeln!(
                out,
                "dominant TTFT mover: {} ({:+.4}s at p90)",
                p.label(),
                self.ttft_phases[p as usize].delta_p90()
            );
        }
        out
    }
}

fn render_table(out: &mut String, deltas: &[PhaseDelta]) {
    let _ = writeln!(out, "| phase | p50 (s) | p90 (s) | Δp90 (s) | share |");
    let _ = writeln!(out, "|---|---|---|---|---|");
    for d in deltas {
        if d.base.count == 0 && d.other.count == 0 {
            continue;
        }
        let _ = writeln!(
            out,
            "| {} | {:.4} -> {:.4} | {:.4} -> {:.4} | {:+.4} | {:.1}% -> {:.1}% |",
            d.phase.label(),
            d.base.p50,
            d.other.p50,
            d.base.p90,
            d.other.p90,
            d.delta_p90(),
            100.0 * d.base_share,
            100.0 * d.other_share,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribution::Attribution;
    use crate::event::{TraceEvent, TraceEventKind::*};
    use crate::recorder::TraceSummary;
    use skywalker_sim::SimTime;

    fn report(label: &str, queue_us: u64) -> BottleneckReport {
        let mk = |t: u64, kind| TraceEvent {
            at: SimTime::from_micros(t),
            kind,
        };
        let events = vec![
            mk(0, Issued { req: 1 }),
            mk(10, ReplicaQueued { req: 1, replica: 0 }),
            mk(10 + queue_us, Admitted { req: 1, replica: 0 }),
            mk(110 + queue_us, FirstToken { req: 1, replica: 0 }),
            mk(120 + queue_us, FirstTokenDelivered { req: 1 }),
            mk(210 + queue_us, ReplicaDone { req: 1, replica: 0 }),
            mk(220 + queue_us, Delivered { req: 1 }),
        ];
        let a = Attribution::from_summary(&TraceSummary {
            events: events.into_iter().collect(),
            capacity: 1 << 10,
            dropped_events: 0,
        });
        BottleneckReport::new(label, &a, 3)
    }

    #[test]
    fn diff_attributes_the_regression_to_the_right_phase() {
        let base = report("fast", 100);
        let slow = report("slow", 5_100);
        let diff = TraceDiff::between(&base, &slow);
        assert_eq!(diff.dominant_ttft_mover(), Some(Phase::AdmissionWait));
        let aw = diff
            .phases
            .iter()
            .find(|d| d.phase == Phase::AdmissionWait)
            .expect("all phases aligned");
        assert!((aw.delta_p90() - 0.005).abs() < 1e-9);
        // Unchanged phases show zero delta.
        let decode = diff
            .phases
            .iter()
            .find(|d| d.phase == Phase::Decode)
            .expect("aligned");
        assert_eq!(decode.delta_p90(), 0.0);
        let render = diff.render();
        assert!(render.contains("trace diff: fast -> slow"));
        assert!(render.contains("dominant TTFT mover: admission-wait"));
    }

    #[test]
    fn identical_runs_have_no_dominant_mover() {
        let diff = TraceDiff::between(&report("a", 100), &report("b", 100));
        assert_eq!(diff.dominant_ttft_mover(), None);
    }
}
