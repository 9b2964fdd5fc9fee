//! Aggregating an [`Attribution`] into a readable bottleneck breakdown.
//!
//! The report answers "where did the time go" for one run: per-phase
//! totals with their share of all end-to-end time, per-request
//! percentiles via [`Summary::of`], and the top-k offender requests per phase — rendered
//! as a text flamegraph (share-proportional bars, widest phase on top
//! of the pipeline order it occurred in).

use std::fmt::Write as _;

use crate::metrics::Summary;
use skywalker_sim::SimDuration;

use crate::trace::attribution::{Attribution, Phase, TraceOutcome};

/// One phase's aggregate across a run.
#[derive(Debug, Clone)]
pub struct PhaseStat {
    /// The phase.
    pub phase: Phase,
    /// Sum over all counted requests.
    pub total: SimDuration,
    /// This phase's fraction of the sum over all phases (0..=1).
    pub share: f64,
    /// Per-request durations in seconds.
    pub seconds: Summary,
    /// The requests that spent the most time here, `(id, duration)`,
    /// longest first.
    pub top: Vec<(u64, SimDuration)>,
}

/// The bottleneck breakdown of one traced run.
#[derive(Debug, Clone)]
pub struct BottleneckReport {
    /// Display label (usually the scenario/engine label).
    pub label: String,
    /// Requests whose full lifecycle was recorded and completed.
    pub completed: usize,
    /// Requests that terminally failed.
    pub failed: usize,
    /// Requests whose timeline just stops (in flight at run end, or
    /// truncated by recorder capacity).
    pub unfinished: usize,
    /// Events the recorder could not store.
    pub dropped_events: u64,
    /// End-to-end latency across completed requests, in seconds.
    pub e2e: Summary,
    /// Client-observed TTFT across requests with a delivered first
    /// token, in seconds.
    pub ttft: Summary,
    /// End-to-end phase aggregates, one entry per [`Phase`] (zero
    /// phases included, so two reports always align for diffing).
    pub phases: Vec<PhaseStat>,
    /// TTFT phase aggregates, aligned like [`phases`](Self::phases).
    pub ttft_phases: Vec<PhaseStat>,
}

fn phase_stats<'a, I, F>(requests: I, pick: F, top_k: usize) -> Vec<PhaseStat>
where
    I: Iterator<Item = &'a crate::trace::attribution::RequestTrace> + Clone,
    F: Fn(&crate::trace::attribution::RequestTrace, Phase) -> Option<SimDuration>,
{
    let grand_total: u64 = Phase::ALL
        .iter()
        .flat_map(|p| requests.clone().filter_map(|r| pick(r, *p)))
        .map(|d| d.as_micros())
        .sum();
    Phase::ALL
        .iter()
        .map(|&phase| {
            let mut samples: Vec<f64> = Vec::new();
            let mut per_req: Vec<(u64, SimDuration)> = Vec::new();
            let mut total = SimDuration::ZERO;
            for r in requests.clone() {
                let Some(d) = pick(r, phase) else { continue };
                total += d;
                samples.push(d.as_secs_f64());
                per_req.push((r.req, d));
            }
            // Longest first; ties broken by id so the report is stable.
            per_req.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            per_req.truncate(top_k);
            PhaseStat {
                phase,
                total,
                share: if grand_total > 0 {
                    total.as_micros() as f64 / grand_total as f64
                } else {
                    0.0
                },
                seconds: Summary::of(&samples),
                top: per_req,
            }
        })
        .collect()
}

impl BottleneckReport {
    /// Aggregates an attribution pass. Only completed requests feed the
    /// end-to-end phase stats (an unfinished timeline would under-count
    /// its tail phases); `top_k` bounds the offender list per phase.
    pub fn new(label: impl Into<String>, attribution: &Attribution, top_k: usize) -> Self {
        let completed: Vec<_> = attribution.completed().collect();
        let e2e = Summary::of(
            &completed
                .iter()
                .map(|r| r.e2e.as_secs_f64())
                .collect::<Vec<_>>(),
        );
        let ttft = Summary::of(
            &attribution
                .requests
                .iter()
                .filter_map(|r| r.ttft.as_ref())
                .map(|t| t.ttft.as_secs_f64())
                .collect::<Vec<_>>(),
        );
        let phases = phase_stats(
            completed.iter().copied(),
            |r, p| Some(r.phases.get(p)),
            top_k,
        );
        let ttft_phases = phase_stats(
            attribution.requests.iter(),
            |r, p| r.ttft.as_ref().map(|t| t.phases.get(p)),
            top_k,
        );
        BottleneckReport {
            label: label.into(),
            completed: completed.len(),
            failed: attribution
                .requests
                .iter()
                .filter(|r| r.outcome == TraceOutcome::Failed)
                .count(),
            unfinished: attribution
                .requests
                .iter()
                .filter(|r| r.outcome == TraceOutcome::Unfinished)
                .count(),
            dropped_events: attribution.dropped_events,
            e2e,
            ttft,
            phases,
            ttft_phases,
        }
    }

    /// Renders the flamegraph-style text breakdown.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "## trace: {} ({} completed, {} failed, {} unfinished{})",
            self.label,
            self.completed,
            self.failed,
            self.unfinished,
            if self.dropped_events > 0 {
                format!(", {} events dropped", self.dropped_events)
            } else {
                String::new()
            }
        );
        let _ = writeln!(
            out,
            "e2e  p50 {:.3}s  p90 {:.3}s   ttft p50 {:.3}s  p90 {:.3}s",
            self.e2e.p50, self.e2e.p90, self.ttft.p50, self.ttft.p90
        );
        let _ = writeln!(out);
        let _ = writeln!(out, "where the end-to-end time went:");
        render_section(&mut out, &self.phases);
        let _ = writeln!(out);
        let _ = writeln!(out, "where the time-to-first-token went:");
        render_section(&mut out, &self.ttft_phases);
        out
    }
}

fn render_section(out: &mut String, stats: &[PhaseStat]) {
    const BAR_WIDTH: f64 = 40.0;
    let mut by_share: Vec<&PhaseStat> = stats.iter().filter(|s| s.seconds.count > 0).collect();
    by_share.sort_by(|a, b| {
        b.total
            .cmp(&a.total)
            .then(a.phase.label().cmp(b.phase.label()))
    });
    for s in by_share {
        if s.total == SimDuration::ZERO {
            continue;
        }
        let bar = "#".repeat(((s.share * BAR_WIDTH).round() as usize).max(1));
        let _ = writeln!(
            out,
            "  {:<15} {:>5.1}% {:>10.3}s  p50 {:>8.4}s  p90 {:>8.4}s  {bar}",
            s.phase.label(),
            100.0 * s.share,
            s.total.as_secs_f64(),
            s.seconds.p50,
            s.seconds.p90,
        );
        if let Some((req, d)) = s.top.first() {
            let _ = writeln!(out, "  {:<15} worst: req {req} at {d}", "");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::event::{TraceEvent, TraceEventKind::*};
    use crate::trace::recorder::TraceSummary;
    use skywalker_sim::SimTime;

    fn run_with_two_requests() -> Attribution {
        let mk = |t: u64, kind| TraceEvent {
            at: SimTime::from_micros(t),
            kind,
        };
        let events = vec![
            mk(0, Issued { req: 1 }),
            mk(100, ReplicaQueued { req: 1, replica: 0 }),
            mk(200, Admitted { req: 1, replica: 0 }),
            mk(300, FirstToken { req: 1, replica: 0 }),
            mk(320, FirstTokenDelivered { req: 1 }),
            mk(900, ReplicaDone { req: 1, replica: 0 }),
            mk(1000, Delivered { req: 1 }),
            mk(0, Issued { req: 2 }),
            mk(50, ReplicaQueued { req: 2, replica: 0 }),
            mk(400, Admitted { req: 2, replica: 0 }),
            mk(500, FirstToken { req: 2, replica: 0 }),
            mk(520, FirstTokenDelivered { req: 2 }),
            mk(600, ReplicaDone { req: 2, replica: 0 }),
            mk(700, Delivered { req: 2 }),
            mk(0, Issued { req: 3 }), // never finishes
        ];
        Attribution::from_summary(&TraceSummary {
            events: events.into_iter().collect(),
            capacity: 1 << 10,
            dropped_events: 0,
        })
    }

    #[test]
    fn aggregates_and_ranks_offenders() {
        let rep = BottleneckReport::new("test", &run_with_two_requests(), 2);
        assert_eq!((rep.completed, rep.failed, rep.unfinished), (2, 0, 1));
        let decode = rep
            .phases
            .iter()
            .find(|s| s.phase == Phase::Decode)
            .expect("all phases present");
        // Decode: req 1 600us, req 2 100us.
        assert_eq!(decode.total, SimDuration::from_micros(700));
        assert_eq!(decode.top[0], (1, SimDuration::from_micros(600)));
        assert_eq!(decode.seconds.count, 2);
        // Shares across phases sum to 1.
        let share_sum: f64 = rep.phases.iter().map(|s| s.share).sum();
        assert!((share_sum - 1.0).abs() < 1e-9);
        // TTFT section counts both delivered first tokens.
        assert_eq!(rep.ttft.count, 2);
        let render = rep.render();
        assert!(render.contains("decode"));
        assert!(render.contains("worst: req 1"));
    }

    #[test]
    fn empty_attribution_renders() {
        let rep = BottleneckReport::new(
            "empty",
            &Attribution {
                requests: Vec::new(),
                dropped_events: 3,
            },
            5,
        );
        assert_eq!(rep.completed, 0);
        assert!(rep.render().contains("3 events dropped"));
    }
}
