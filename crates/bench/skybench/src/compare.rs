//! `skybench compare A.json B.json`: the A/A check of a benchmark change
//! and the before/after table of every later performance change.

use std::fmt::Write;

use crate::json::Value;
use crate::spec::Better;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// Either side's own spread is wider than the bound, so the bound
    /// cannot be resolved.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of one (metric, workload) row.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Side {
    value: f64,
    q1: f64,
    q3: f64,
}

impl Side {
    fn read(entry: &Value) -> Option<Side> {
        let num = |k: &str| entry.get(k).and_then(Value::as_f64);
        Some(Side {
            value: num("value")?,
            q1: num("q1")?,
            q3: num("q3")?,
        })
    }

    fn relative_iqr(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.value.abs()
        }
    }
}

fn verdict(a: Side, b: Side, better: Better, bound: f64) -> Verdict {
    if better.worse_by(a.value, b.value) > bound {
        Verdict::Regressed
    } else if a.relative_iqr().max(b.relative_iqr()) > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// The comparison table, and whether any bounded metric regressed.
pub fn compare(a: &Value, b: &Value) -> (String, bool) {
    let mut out = String::new();
    let mut regressed = false;
    let seed = |doc: &Value| doc.get("seed").and_then(Value::as_f64);
    let same_seed = seed(a).is_some() && seed(a) == seed(b);
    writeln!(
        out,
        "{:<17} {:<38} {:>14} {:>27} {:>14} {:>27} {:>8} {:>6}  verdict",
        "workload", "metric", "A", "A q1..q3", "B", "B q1..q3", "B worse", "bound"
    )
    .expect("String write");
    let empty = Value::Obj(Vec::new());
    let workloads_b = b.get("workloads").unwrap_or(&empty);
    for (name, wa) in a.get("workloads").unwrap_or(&empty).members() {
        let Some(wb) = workloads_b.get(name) else {
            writeln!(out, "{name:<17} only in A").expect("String write");
            continue;
        };
        for table in ["end_to_end", "per_layer"] {
            let (Some(ta), Some(tb)) = (wa.get(table), wb.get(table)) else {
                continue;
            };
            for (metric, ea) in ta.members() {
                let (Some(sa), Some(sb)) = (Side::read(ea), tb.get(metric).and_then(Side::read))
                else {
                    continue;
                };
                let better = match ea.get("better").and_then(Value::as_str) {
                    Some("higher") => Better::Higher,
                    _ => Better::Lower,
                };
                let bound = ea.get("bound").and_then(Value::as_f64);
                let v = bound.map(|bound| verdict(sa, sb, better, bound));
                regressed |= v == Some(Verdict::Regressed);
                writeln!(
                    out,
                    "{name:<17} {metric:<38} {:>14.6} {:>27} {:>14.6} {:>27} {:>+7.1}% {:>6}  {}",
                    sa.value,
                    format!("{:.6}..{:.6}", sa.q1, sa.q3),
                    sb.value,
                    format!("{:.6}..{:.6}", sb.q1, sb.q3),
                    100.0 * better.worse_by(sa.value, sb.value),
                    bound.map_or("-".to_string(), |b| format!("{:.0}%", 100.0 * b)),
                    v.map_or("-", Verdict::label),
                )
                .expect("String write");
            }
        }
        // Under one seed a simulated workload's outcomes are exact, so
        // any difference is a change of behaviour, not noise.
        let print = |w: &Value| {
            w.get("fingerprint")
                .and_then(Value::as_str)
                .map(String::from)
        };
        if let (true, Some(pa), Some(pb)) = (same_seed, print(wa), print(wb)) {
            let same = if pa == pb { "same" } else { "DIFFERS" };
            writeln!(out, "{name:<17} simulated outcomes: {same} ({pa} vs {pb})")
                .expect("String write");
        }
    }
    for (name, _) in workloads_b.members() {
        if a.get("workloads").and_then(|w| w.get(name)).is_none() {
            writeln!(out, "{name:<17} only in B").expect("String write");
        }
    }
    (out, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn side(value: f64, q1: f64, q3: f64) -> Side {
        Side { value, q1, q3 }
    }

    #[test]
    fn verdicts() {
        let tight = |v: f64| side(v, v * 0.99, v * 1.01);
        // Lower is better: 5 % slower is inside a 10 % bound, 15 % is not.
        assert_eq!(
            verdict(tight(100.0), tight(105.0), Better::Lower, 0.1),
            Verdict::Ok
        );
        assert_eq!(
            verdict(tight(100.0), tight(115.0), Better::Lower, 0.1),
            Verdict::Regressed
        );
        // Higher is better: a faster B never regresses.
        assert_eq!(
            verdict(tight(100.0), tight(150.0), Better::Higher, 0.1),
            Verdict::Ok
        );
        assert_eq!(
            verdict(tight(100.0), tight(80.0), Better::Higher, 0.1),
            Verdict::Regressed
        );
        // A spread wider than the bound cannot confirm "unchanged".
        assert_eq!(
            verdict(side(100.0, 90.0, 110.0), tight(101.0), Better::Lower, 0.1),
            Verdict::Unresolved
        );
        // Exact values have no spread.
        assert_eq!(
            verdict(
                side(7.0, 7.0, 7.0),
                side(7.0, 7.0, 7.0),
                Better::Lower,
                0.01
            ),
            Verdict::Ok
        );
    }

    fn doc(req_per_s: f64, fingerprint: &str) -> Value {
        parse(&format!(
            r#"{{"seed": 61, "workloads": {{"tot_tree": {{
                "fingerprint": "{fingerprint}",
                "end_to_end": {{"req_per_s": {{"value": {req_per_s}, "unit": "1/s",
                    "better": "higher", "bound": 0.2, "n": 5, "min": 1, "q1": {req_per_s},
                    "median": {req_per_s}, "q3": {req_per_s}}}}},
                "per_layer": {{"core.trie.nodes": {{"value": 10, "unit": "count",
                    "better": "lower", "n": 1, "min": 10, "q1": 10, "median": 10, "q3": 10}}}}
            }}}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn table_flags_a_regression_and_only_a_regression() {
        let (table, regressed) = compare(&doc(1000.0, "aa"), &doc(990.0, "aa"));
        assert!(!regressed);
        assert!(table.contains("req_per_s"));
        assert!(table.contains(" ok"));
        assert!(table.contains("simulated outcomes: same"));
        // Per-layer rows are listed, without a verdict.
        assert!(table.contains("core.trie.nodes"));

        let (table, regressed) = compare(&doc(1000.0, "aa"), &doc(700.0, "bb"));
        assert!(regressed);
        assert!(table.contains("regressed"));
        assert!(table.contains("simulated outcomes: DIFFERS"));
    }
}
