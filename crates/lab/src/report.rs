//! Rendering a [`SweepResult`] for humans and machines.
//!
//! [`SweepReport`] holds both views of one executed sweep: a markdown
//! comparison table (one line per cell, seed-to-seed envelopes inline)
//! and a [`json::Report`] (one row per replicate plus one aggregate row
//! per cell). Neither view includes wall-clock
//! or worker count, so the serialized report is byte-identical however
//! the sweep was parallelized — which is exactly what the
//! thread-invariance tests pin.

use std::fmt::Write as _;

use skywalker_metrics::json::{self, Val};
use skywalker_metrics::Summary;

use crate::exec::{CellResult, SweepResult};

/// Both renderings of one executed sweep.
#[derive(Debug, Clone)]
pub struct SweepReport {
    markdown: String,
    json: json::Report,
}

impl SweepReport {
    /// The markdown comparison table.
    pub fn markdown(&self) -> &str {
        &self.markdown
    }

    /// The serialized JSON document.
    pub fn json_string(&self) -> String {
        self.json.render()
    }
}

/// The per-replicate row (after `row`, `cell`, `replicate`, `seed`):
/// `(output name, digest key)` pairs selected by `RunSummary::row`.
const REPLICATE_ROW: &[(&str, &str)] = &[
    ("tok_s", "tok_s"),
    ("ttft_p50_s", "ttft_p50_s"),
    ("ttft_p90_s", "ttft_p90_s"),
    ("ttft_mean_s", "ttft_mean_s"),
    ("e2e_p50_s", "e2e_p50_s"),
    ("e2e_p90_s", "e2e_p90_s"),
    ("hit_rate", "replica_hit_rate"),
    ("completed", "completed"),
    ("failed", "failed"),
    ("forwarded", "forwarded"),
    ("end_time_s", "end_time_s"),
    ("replica_seconds", "replica_seconds"),
];

/// `mean [min, max]` scaled by `scale`, with `prec` decimals, collapsing
/// to just the mean when there is a single replicate.
fn spread_cell(s: &Summary, scale: f64, prec: usize) -> String {
    let (mean, min, max) = (scale * s.mean, scale * s.min, scale * s.max);
    if s.count <= 1 {
        format!("{mean:.prec$}")
    } else {
        format!("{mean:.prec$} [{min:.prec$}, {max:.prec$}]")
    }
}

fn spread_fields(key: &'static str, s: &Summary, out: &mut Vec<(String, Val)>) {
    out.push((format!("{key}_mean"), Val::from(s.mean)));
    out.push((format!("{key}_min"), Val::from(s.min)));
    out.push((format!("{key}_max"), Val::from(s.max)));
}

impl SweepResult {
    /// Renders the sweep into its markdown + JSON report.
    pub fn report(&self) -> SweepReport {
        SweepReport {
            markdown: self.render_markdown(),
            json: self.render_json(),
        }
    }

    fn render_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "| cell | reps | tok/s | TTFT p50 (s) | TTFT p90 (s) | hit % | replica·s | cost $ |"
        );
        let _ = writeln!(out, "|---|---|---|---|---|---|---|---|");
        for c in &self.cells {
            let st = &c.stats;
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {} | {} | {} | {} |",
                c.label,
                st.replicates,
                spread_cell(&st.throughput_tps, 1.0, 0),
                spread_cell(&st.ttft_p50, 1.0, 3),
                spread_cell(&st.ttft_p90, 1.0, 3),
                spread_cell(&st.hit_rate, 100.0, 1),
                spread_cell(&st.replica_seconds, 1.0, 0),
                spread_cell(&st.cost_usd, 1.0, 2),
            );
        }
        out
    }

    fn render_json(&self) -> json::Report {
        let mut rep = json::Report::new(self.label.clone());
        rep.meta("sweep_seed", self.sweep_seed);
        rep.meta("cells", self.cells.len());
        rep.meta("replicates", self.cells.first().map_or(0, |c| c.runs.len()));
        for c in &self.cells {
            for r in &c.runs {
                let mut fields = vec![
                    ("row", Val::from("replicate")),
                    ("cell", Val::from(c.label.clone())),
                    ("replicate", Val::from(r.tag)),
                    ("seed", Val::from(r.seed)),
                ];
                fields.extend(r.summary.row(REPLICATE_ROW));
                rep.row(&fields);
            }
            self.aggregate_row(c, &mut rep);
        }
        rep
    }

    fn aggregate_row(&self, c: &CellResult, rep: &mut json::Report) {
        let st = &c.stats;
        let mut fields: Vec<(String, Val)> = vec![
            ("row".to_string(), Val::from("cell")),
            ("cell".to_string(), Val::from(c.label.clone())),
            ("replicates".to_string(), Val::from(st.replicates)),
        ];
        spread_fields("tok_s", &st.throughput_tps, &mut fields);
        spread_fields("ttft_p50_s", &st.ttft_p50, &mut fields);
        spread_fields("ttft_p90_s", &st.ttft_p90, &mut fields);
        spread_fields("hit_rate", &st.hit_rate, &mut fields);
        spread_fields("completed", &st.completed, &mut fields);
        spread_fields("failed", &st.failed, &mut fields);
        spread_fields("replica_seconds", &st.replica_seconds, &mut fields);
        spread_fields("cost_usd", &st.cost_usd, &mut fields);
        let borrowed: Vec<(&str, Val)> = fields
            .iter()
            .map(|(k, v)| (k.as_str(), v.clone()))
            .collect();
        rep.row(&borrowed);
    }
}
