//! The machinery under `tests/paper_claims.rs`: what a claim row is, the
//! gate that checks one, and the two renderings of the evaluated table.
//! The table itself is in `tests/paper_claims.rs`; the simulated cells
//! are in [`cells`], the directly computed figures in [`analytic`].

pub mod analytic;
pub mod cells;

use std::fmt::Write as _;

use skywalker::lab::SweepResult;
use skywalker::metrics::json::{Report, Val};
use skywalker::metrics::Summary;
use skywalker::RunSummary;

/// The simulated cells of one seed — what a row's measure reads.
pub struct Results<'a> {
    sweep: &'a SweepResult,
    seed: u64,
}

impl Results<'_> {
    /// The run of recipe `label` under this evaluation's seed.
    pub fn cell(&self, label: &str) -> &RunSummary {
        let label = format!("{label}@{}", self.seed);
        self.sweep
            .cell(&label)
            .unwrap_or_else(|| panic!("a claim reads cell `{label}`, which the sweep never ran"))
    }

    /// Every run under this evaluation's seed whose label starts with
    /// `prefix`, in grid order.
    pub fn cells<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = &'a RunSummary> {
        let seed = format!("@{}", self.seed);
        let ours = move |label: &str| label.starts_with(prefix) && label.ends_with(&seed);
        let cells = self.sweep.cells.iter().filter(move |(l, _)| ours(l));
        cells.map(|(_, s)| s)
    }
}

/// Where a measured value must fall for its row to count as reproduced.
#[derive(Debug, Clone, Copy)]
pub enum Band {
    /// The paper reports a range (or an exact value): inclusive bounds.
    Range(f64, f64),
    /// The paper reports one number, a ratio. The point rule, stated
    /// once: reproduced means the measured effect (distance from the
    /// value that would mean "no effect" — here 1×) has the paper's sign
    /// and between half and twice the paper's size.
    Ratio(f64),
    /// The point rule for a quantity: no effect is 0.
    Amount(f64),
    /// A claim of direction only ("lower than every baseline"): strictly
    /// above the neutral value.
    Above(f64),
    /// Strictly below the neutral value.
    Below(f64),
}

impl Band {
    /// `(low, high)`; infinite on the open side of a direction claim.
    pub fn bounds(&self) -> (f64, f64) {
        let point = |paper: f64, neutral: f64| {
            let half = neutral + 0.5 * (paper - neutral);
            let twice = neutral + 2.0 * (paper - neutral);
            (half.min(twice), half.max(twice))
        };
        match *self {
            Band::Range(lo, hi) => (lo, hi),
            Band::Ratio(paper) => point(paper, 1.0),
            Band::Amount(paper) => point(paper, 0.0),
            Band::Above(neutral) => (neutral, f64::INFINITY),
            Band::Below(neutral) => (f64::NEG_INFINITY, neutral),
        }
    }

    pub fn contains(&self, value: f64) -> bool {
        let (lo, hi) = self.bounds();
        match self {
            Band::Above(_) | Band::Below(_) => lo < value && value < hi,
            Band::Range(..) | Band::Ratio(_) | Band::Amount(_) => lo <= value && value <= hi,
        }
    }

    fn show(&self, unit: &str) -> String {
        let (lo, hi) = self.bounds();
        match self {
            Band::Range(..) if lo == hi => format!("= {}", show(lo, unit)),
            Band::Range(..) => format!("{} – {}", show(lo, unit), show(hi, unit)),
            Band::Ratio(_) | Band::Amount(_) => {
                format!("½–2× effect: {} – {}", show(lo, unit), show(hi, unit))
            }
            Band::Above(neutral) => format!("> {}", show(*neutral, unit)),
            Band::Below(neutral) => format!("< {}", show(*neutral, unit)),
        }
    }
}

/// What the table says about a row. The gate holds the table to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The measured value lies in the band.
    Reproduced,
    /// It does not, for this one-line reason.
    Departs(&'static str),
}

/// A value as `docs/claims.md` prints it: two decimals (none when they
/// are zeros or the value is in the hundreds), then the row's unit.
fn show(v: f64, unit: &str) -> String {
    let digits = if v.abs() >= 100.0 { 0 } else { 2 };
    let number = format!("{v:.digits$}");
    format!("{}{unit}", number.strip_suffix(".00").unwrap_or(&number))
}

/// One row of the claims table. Built with [`claim`]; a row is
/// [`Verdict::Reproduced`] unless it says [`Claim::departs`].
pub struct Claim {
    /// The paper figure or section (or the demo beyond it) the row is about.
    figure: &'static str,
    text: String,
    /// What the paper reports, verbatim from the figure programs this
    /// table replaced; `—` for demos beyond the paper.
    paper: &'static str,
    /// Appended to every printed value: `"×"`, `" %"`, `" pp"`, `" requests"`, ….
    unit: &'static str,
    pub band: Band,
    pub verdict: Verdict,
    measure: Box<dyn Fn(&Results) -> f64>,
}

/// Starts a row about `figure`; [`Claim::measured`] completes it.
pub fn claim(figure: &'static str) -> Claim {
    Claim {
        figure,
        text: String::new(),
        paper: "—",
        unit: "×",
        band: Band::Above(1.0),
        verdict: Verdict::Reproduced,
        measure: Box::new(|_| panic!("a claim row has no .measured(..)")),
    }
}

impl Claim {
    /// `figure — text`: what error messages call the row.
    pub fn name(&self) -> String {
        format!("{} — {}", self.figure, self.text)
    }

    /// What is being compared, in words.
    pub fn says(mut self, text: impl Into<String>) -> Self {
        self.text = text.into();
        self
    }

    /// What the paper reports and the band that follows from it.
    pub fn paper(mut self, paper: &'static str, band: Band, unit: &'static str) -> Self {
        (self.paper, self.band, self.unit) = (paper, band, unit);
        self
    }

    /// A demo beyond the paper: the band is the inequality its old
    /// driver stated.
    pub fn demo(self, band: Band, unit: &'static str) -> Self {
        self.paper("—", band, unit)
    }

    /// Records the row as outside its band, with the reason.
    pub fn departs(mut self, why: &'static str) -> Self {
        self.verdict = Verdict::Departs(why);
        self
    }

    /// How the row is measured, evaluated once per seed.
    pub fn measured(mut self, measure: impl Fn(&Results) -> f64 + 'static) -> Self {
        self.measure = Box::new(measure);
        self
    }
}

/// The gate's first two rules, for one row and one measured value: a
/// `Reproduced` row outside its band fails, and so does a `Departs` row
/// inside it. There is no tolerance to pass.
pub fn check(row: &str, band: Band, verdict: Verdict, measured: f64) -> Result<(), String> {
    let (lo, hi) = band.bounds();
    match (verdict, band.contains(measured)) {
        (Verdict::Reproduced, true) | (Verdict::Departs(_), false) => Ok(()),
        (Verdict::Reproduced, false) => Err(format!(
            "{row}: recorded as reproduced, but measured {measured} is outside its band \
             [{lo}, {hi}] — record it with .departs(\"why\"); do not widen the band"
        )),
        (Verdict::Departs(_), true) => Err(format!(
            "{row}: recorded as departing, but measured {measured} is inside its band \
             [{lo}, {hi}] — remove its .departs(..)"
        )),
    }
}

/// A row with its measured values over the seeds: `p50` is the row's
/// value, `min`/`max` the seed envelope.
pub type Evaluated = (Claim, Summary);

/// Evaluates every row once per seed.
pub fn evaluate(claims: Vec<Claim>, sweep: &SweepResult) -> Vec<Evaluated> {
    let evaluated = claims.into_iter().map(|claim| {
        let per_seed = cells::SEEDS.map(|seed| (claim.measure)(&Results { sweep, seed }));
        let measured = Summary::of(&per_seed);
        (claim, measured)
    });
    evaluated.collect()
}

/// The digest columns each cell contributes to `claims.json` — a key
/// list, not "everything", so the digest can grow without rewriting the
/// committed file. The fleet and transfer columns are what the deleted
/// `BENCH_fleet.json` / `BENCH_disagg.json` rows carried.
const CELL_KEYS: &str = "completed failed retried in_flight tok_s replica_hit_rate ttft_p50_s \
    ttft_p90_s e2e_p90_s end_time_s forwarded replica_seconds fleet_mean fleet_peak fleet_joins \
    fleet_drains fleet_crashes kv_transfers kv_transfer_tokens demoted_tokens promoted_tokens";

/// `tests/golden/claims.json`: every row's measured value, then every
/// cell's digest row.
pub fn render_json(rows: &[Evaluated], sweep: &SweepResult) -> String {
    let mut rep = Report::new("paper_claims");
    rep.meta("seeds", format!("{:?}", cells::SEEDS));
    for (c, measured) in rows {
        let (lo, hi) = c.band.bounds();
        let departs = match c.verdict {
            Verdict::Reproduced => "",
            Verdict::Departs(why) => why,
        };
        rep.row(&[
            ("row", Val::from("claim")),
            ("figure", Val::from(c.figure)),
            ("claim", Val::from(c.text.as_str())),
            ("paper", Val::from(c.paper)),
            ("band_lo", Val::from(lo)),
            ("band_hi", Val::from(hi)),
            ("measured", Val::from(measured.p50)),
            ("min", Val::from(measured.min)),
            ("max", Val::from(measured.max)),
            ("departs", Val::from(departs)),
        ]);
    }
    let schema: Vec<(&str, &str)> = CELL_KEYS.split_whitespace().map(|k| (k, k)).collect();
    for (label, summary) in &sweep.cells {
        let mut fields = vec![
            ("row", Val::from("cell")),
            ("cell", Val::from(label.as_str())),
        ];
        fields.extend(summary.row(&schema));
        rep.row(&fields);
    }
    rep.render()
}

/// `docs/claims.md`: the table a reader opens.
pub fn render_markdown(rows: &[Evaluated]) -> String {
    let departs = rows
        .iter()
        .filter(|(c, _)| c.verdict != Verdict::Reproduced)
        .count();
    let mut out = format!(
        "# Paper claims: what this codebase reproduces, and what it does not\n\n\
         Generated by `tests/paper_claims.rs` and compared byte-for-byte on every\n\
         `cargo test`; do not edit by hand. Refresh after an intentional change with\n\
         `UPDATE_GOLDENS=1 cargo test --test paper_claims` and commit the diff together\n\
         with `tests/golden/claims.json` (the same values at full precision, plus the\n\
         digest row of every simulated cell).\n\n\
         **{} of {} rows reproduce; {departs} depart.**\n\n\
         *paper* is what the paper reports, quoted from the figure programs this table\n\
         replaced; `—` marks a demo beyond the paper, whose band is the inequality its\n\
         old driver stated. *band* is where the measured value must fall: the paper's\n\
         own range for a range claim; for a single number, the same direction and\n\
         between half and twice the paper's effect; for a claim of direction only, the\n\
         right side of neutral. *measured* is the median over seeds {:?} with the\n\
         seed-to-seed envelope (rows computed without a simulation have none). The\n\
         build fails if a reproduced row leaves its band, if a departing row enters it,\n\
         or if any value here changes. No band is widened to fit, and the simulator is\n\
         not tuned to move a row.\n\n\
         | figure | claim | paper | band | measured [min – max] | verdict |\n\
         |---|---|---|---|---|---|\n",
        rows.len() - departs,
        rows.len(),
        cells::SEEDS,
    );
    for (c, m) in rows {
        let mut measured = show(m.p50, c.unit);
        if m.min != m.max {
            let _ = write!(
                measured,
                " [{} – {}]",
                show(m.min, c.unit),
                show(m.max, c.unit)
            );
        }
        let verdict = match c.verdict {
            Verdict::Reproduced => "reproduced".to_string(),
            Verdict::Departs(why) => format!("**departs** — {why}"),
        };
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {measured} | {verdict} |",
            c.figure,
            c.text,
            c.paper,
            c.band.show(c.unit),
        );
    }
    out
}
