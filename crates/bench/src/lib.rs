//! # skywalker-bench
//!
//! The experiment harness: one bench target per figure of the paper's
//! evaluation (see `benches/`). Wall-clock and per-layer performance
//! numbers live in the standalone `skybench` package next door
//! (`crates/bench/skybench`), the repo's one perf harness.
//!
//! Every bench target uses a custom harness (`harness = false`): the
//! figure benches are experiment drivers that print the same rows/series
//! the paper plots. Run one with:
//!
//! ```sh
//! cargo bench -p skywalker-bench --bench fig08_macro
//! ```
//!
//! This library crate hosts the shared table-printing helpers. The
//! `BENCH_*.json` rows the benches write are key lists selected from the
//! run digest (`RunSummary::row` with `RunSummary::FIG8_ROW` and
//! friends), serialized by `skywalker_metrics::json`.

/// Prints a Markdown-style table row.
pub fn row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Prints a table header with a separator line.
pub fn header(cells: &[&str]) {
    println!("| {} |", cells.join(" | "));
    println!(
        "|{}|",
        cells.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
}

/// Formats a float with the given precision.
pub fn f(v: f64, prec: usize) -> String {
    format!("{v:.prec$}")
}

/// Formats a ratio as `N.NN×`.
pub fn ratio(v: f64) -> String {
    format!("{v:.2}x")
}

/// Formats a fraction as a percentage.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", 100.0 * v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(f(1.23456, 2), "1.23");
        assert_eq!(ratio(2.5), "2.50x");
        assert_eq!(pct(0.405), "40.5%");
    }
}
