//! What one workload's measurement amounts to, and its three renderings:
//! `workload metric value unit` lines, an entry of `results.json`, and
//! the one-line JSON object the benchmark driver reads.

use crate::json::{obj, Value};
use crate::spec::{Measured, MetricDef, Metrics, END_TO_END, PER_LAYER};

/// Requests sent, answered and lost in one phase of a run.
#[derive(Debug, Clone)]
pub struct Phase {
    pub name: &'static str,
    pub sent: u64,
    pub succeeded: u64,
    pub failed: u64,
}

#[derive(Debug, Clone, Default)]
pub struct WorkloadReport {
    pub name: &'static str,
    /// `None` when the plain pass was not run.
    pub end_to_end: Option<Metrics>,
    /// `None` when the traced pass was not run.
    pub per_layer: Option<Metrics>,
    /// Simulated outcome fingerprint; live runs have none.
    pub fingerprint: Option<String>,
    pub phases: Vec<Phase>,
}

/// The table's metrics in table order, each with what was measured. An
/// end-to-end metric that was not measured is a bug; a per-layer metric
/// that was not is a layer the workload never enters, and reads 0.
fn tabulate<'a>(
    table: &'a [MetricDef],
    measured: &'a Metrics,
    workload: &'a str,
) -> impl Iterator<Item = (&'a MetricDef, Measured)> + 'a {
    table.iter().map(move |def| {
        let m = measured.get(def.name).unwrap_or_else(|| {
            assert!(
                def.bound.is_none(),
                "{workload} did not measure end-to-end metric {}",
                def.name
            );
            Measured::exact(0.0)
        });
        (def, m)
    })
}

impl WorkloadReport {
    fn tables(&self) -> impl Iterator<Item = (&'static str, &'static [MetricDef], &Metrics)> {
        let e2e = self
            .end_to_end
            .as_ref()
            .map(|m| ("end_to_end", &END_TO_END[..], m));
        let layers = self
            .per_layer
            .as_ref()
            .map(|m| ("per_layer", &PER_LAYER[..], m));
        e2e.into_iter().chain(layers)
    }

    pub fn attempted(&self) -> u64 {
        self.phases.iter().map(|p| p.sent).sum()
    }

    pub fn failed(&self) -> u64 {
        self.phases.iter().map(|p| p.failed).sum()
    }

    /// `workload metric value unit`, one line per metric, with the spread
    /// of every metric that has one; phases and fingerprint first.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for p in &self.phases {
            out += &format!(
                "{} phase {}: sent {} succeeded {} failed {}\n",
                self.name, p.name, p.sent, p.succeeded, p.failed
            );
        }
        if let Some(print) = &self.fingerprint {
            out += &format!("{} fingerprint {print}\n", self.name);
        }
        for (_, table, measured) in self.tables() {
            for (def, m) in tabulate(table, measured, self.name) {
                out += &format!("{} {} {:.6} {}", self.name, def.name, m.value, def.unit);
                if m.spread.n > 1 {
                    out += &format!(
                        "  (n {} min {:.6} q1 {:.6} median {:.6} q3 {:.6} iqr/median {:.3})",
                        m.spread.n,
                        m.spread.min,
                        m.spread.q1,
                        m.spread.median,
                        m.spread.q3,
                        m.spread.relative_iqr()
                    );
                }
                out.push('\n');
            }
        }
        out
    }

    /// This workload's entry in `results.json`.
    pub fn to_json(&self) -> Value {
        let mut members = vec![
            ("attempted".to_string(), Value::Num(self.attempted() as f64)),
            ("failed".to_string(), Value::Num(self.failed() as f64)),
        ];
        if let Some(print) = &self.fingerprint {
            members.push(("fingerprint".to_string(), Value::Str(print.clone())));
        }
        for (key, table, measured) in self.tables() {
            let entries = tabulate(table, measured, self.name)
                .map(|(def, m)| {
                    let mut fields = vec![
                        ("value", Value::Num(m.value)),
                        ("unit", Value::Str(def.unit.to_string())),
                        ("better", Value::Str(def.better.label().to_string())),
                    ];
                    if let Some(bound) = def.bound {
                        fields.push(("bound", Value::Num(bound)));
                    }
                    fields.extend([
                        ("n", Value::Num(m.spread.n as f64)),
                        ("min", Value::Num(m.spread.min)),
                        ("q1", Value::Num(m.spread.q1)),
                        ("median", Value::Num(m.spread.median)),
                        ("q3", Value::Num(m.spread.q3)),
                    ]);
                    let fields = fields
                        .into_iter()
                        .map(|(k, v)| (k.to_string(), v))
                        .collect();
                    (def.name.to_string(), Value::Obj(fields))
                })
                .collect();
            members.push((key.to_string(), Value::Obj(entries)));
        }
        Value::Obj(members)
    }

    /// The driver's result object: every metric of the one pass that
    /// ran, by name, with value and unit.
    pub fn driver_line(&self, correct: bool) -> String {
        let metrics = self
            .tables()
            .flat_map(|(_, table, measured)| tabulate(table, measured, self.name))
            .map(|(def, m)| {
                let entry = obj([
                    ("value", Value::Num(m.value)),
                    ("unit", Value::Str(def.unit.to_string())),
                ]);
                (def.name.to_string(), entry)
            })
            .collect();
        obj([
            ("correct", Value::Bool(correct)),
            ("attempted", Value::Num(self.attempted().max(1) as f64)),
            ("failed", Value::Num(self.failed() as f64)),
            ("metrics", Value::Obj(metrics)),
        ])
        .compact()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn report() -> WorkloadReport {
        let mut e2e = Metrics::default();
        for def in &END_TO_END {
            e2e.put(def.name, Measured::median_of(&[1.0, 2.0, 4.0]));
        }
        let mut layers = Metrics::default();
        layers.exact("live.sent", 12.0);
        WorkloadReport {
            name: "tot_tree",
            end_to_end: Some(e2e),
            per_layer: Some(layers),
            fingerprint: Some("00ff".into()),
            phases: vec![Phase {
                name: "timed",
                sent: 12,
                succeeded: 11,
                failed: 1,
            }],
        }
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let mut r = report();
        r.per_layer = None;
        let line = r.driver_line(true);
        assert!(!line.contains('\n'));
        let doc = json::parse(&line).unwrap();
        let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("attempted").unwrap().as_f64(), Some(12.0));
        assert_eq!(doc.get("failed").unwrap().as_f64(), Some(1.0));
        let names: Vec<&str> = doc
            .get("metrics")
            .unwrap()
            .members()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let expected: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
        assert_eq!(names, expected);
        let setup = doc.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("value").unwrap().as_f64(), Some(2.0));
        assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
        assert_eq!(setup.members().len(), 2);
    }

    /// `run` prints every workload through `render`, so this is "every
    /// metric name of BENCHMARK.json is printed, with its unit" (the
    /// names themselves are compared in `spec`).
    #[test]
    fn render_prints_every_metric_by_name_with_its_unit() {
        let text = report().render();
        for def in END_TO_END.iter().chain(&PER_LAYER) {
            let line = text
                .lines()
                .find(|l| l.starts_with(&format!("tot_tree {} ", def.name)))
                .unwrap_or_else(|| panic!("{} is not printed", def.name));
            let fields: Vec<&str> = line.split_whitespace().collect();
            assert!(fields[2].parse::<f64>().is_ok(), "{line}");
            assert_eq!(fields[3], def.unit, "{line}");
        }
        assert!(text.contains("tot_tree phase timed: sent 12 succeeded 11 failed 1"));
        assert!(text.contains("tot_tree fingerprint 00ff"));
        assert!(text.contains("tot_tree setup_s 2.000000 s  (n 3 min 1.000000"));
    }

    #[test]
    fn traced_line_lists_every_layer_metric_and_zeroes_unentered_layers() {
        let mut r = report();
        r.end_to_end = None;
        let doc = json::parse(&r.driver_line(true)).unwrap();
        let metrics = doc.get("metrics").unwrap();
        assert_eq!(metrics.members().len(), PER_LAYER.len());
        let value = |name: &str| metrics.get(name).unwrap().get("value").unwrap().as_f64();
        assert_eq!(value("live.sent"), Some(12.0));
        assert_eq!(value("core.trie.nodes"), Some(0.0));
    }

    #[test]
    fn results_entry_carries_spread_and_bounds() {
        let doc = report().to_json();
        let m = doc.get("end_to_end").unwrap().get("req_per_s").unwrap();
        assert_eq!(m.get("bound").unwrap().as_f64(), END_TO_END[1].bound);
        assert_eq!(m.get("better").unwrap().as_str(), Some("higher"));
        assert_eq!(m.get("n").unwrap().as_f64(), Some(3.0));
        assert_eq!(m.get("q1").unwrap().as_f64(), Some(1.0));
        assert_eq!(m.get("q3").unwrap().as_f64(), Some(4.0));
        assert!(doc
            .get("per_layer")
            .unwrap()
            .get("live.sent")
            .unwrap()
            .get("bound")
            .is_none());
        assert_eq!(doc.get("fingerprint").unwrap().as_str(), Some("00ff"));
    }
}
