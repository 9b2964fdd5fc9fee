//! Machine-readable experiment reports: metadata plus a flat list of
//! rows, rendered as stable JSON so committed goldens stay diffable
//! across commits. Hand-rolled serialization — the workspace builds
//! offline with zero external dependencies.
//!
//! This lives in the metrics crate so every reporting layer — the claims
//! table and the golden suites — shares one serializer.

use std::fmt::Write as _;

/// One JSON scalar.
#[derive(Debug, Clone, PartialEq)]
pub enum Val {
    /// A float (non-finite values serialize as `null`).
    Num(f64),
    /// An unsigned integer.
    Int(u64),
    /// A string.
    Str(String),
}

impl From<f64> for Val {
    fn from(v: f64) -> Self {
        Val::Num(v)
    }
}

impl From<u64> for Val {
    fn from(v: u64) -> Self {
        Val::Int(v)
    }
}

impl From<usize> for Val {
    fn from(v: usize) -> Self {
        Val::Int(v as u64)
    }
}

impl From<&str> for Val {
    fn from(v: &str) -> Self {
        Val::Str(v.to_string())
    }
}

impl From<String> for Val {
    fn from(v: String) -> Self {
        Val::Str(v)
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn render_val(v: &Val, out: &mut String) {
    match v {
        Val::Num(x) if x.is_finite() => {
            let _ = write!(out, "{x}");
        }
        Val::Num(_) => out.push_str("null"),
        Val::Int(x) => {
            let _ = write!(out, "{x}");
        }
        Val::Str(s) => {
            let _ = write!(out, "\"{}\"", escape(s));
        }
    }
}

fn render_obj(fields: &[(String, Val)], out: &mut String) {
    out.push('{');
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{}\": ", escape(k));
        render_val(v, out);
    }
    out.push('}');
}

/// A benchmark report: metadata (scale, seed, …) plus one object per
/// table row.
#[derive(Debug, Clone, Default)]
pub struct Report {
    bench: String,
    meta: Vec<(String, Val)>,
    rows: Vec<Vec<(String, Val)>>,
}

impl Report {
    /// A report for the named bench target.
    pub fn new(bench: impl Into<String>) -> Self {
        Report {
            bench: bench.into(),
            meta: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Records one run-level parameter.
    pub fn meta(&mut self, key: &str, val: impl Into<Val>) {
        self.meta.push((key.to_string(), val.into()));
    }

    /// Appends one row.
    pub fn row(&mut self, fields: &[(&str, Val)]) {
        self.rows.push(
            fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        );
    }

    /// Number of rows recorded so far.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True before the first row.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The serialized report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"bench\": ");
        render_val(&Val::Str(self.bench.clone()), &mut out);
        for (k, v) in &self.meta {
            let _ = write!(out, ",\n  \"{}\": ", escape(k));
            render_val(v, &mut out);
        }
        out.push_str(",\n  \"rows\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str("    ");
            render_obj(row, &mut out);
            if i + 1 < self.rows.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_valid_structure() {
        let mut rep = Report::new("fig_test");
        rep.meta("scale", 0.25);
        rep.meta("seed", 8u64);
        rep.row(&[
            ("system", "Sky\"Walker".into()),
            ("tok_s", 1234.5.into()),
            ("forwarded", 17u64.into()),
            ("bad", f64::NAN.into()),
        ]);
        assert_eq!(rep.len(), 1);
        assert!(!rep.is_empty());
        let s = rep.render();
        assert!(s.contains("\"bench\": \"fig_test\""));
        assert!(s.contains("\"scale\": 0.25"));
        assert!(s.contains("\"system\": \"Sky\\\"Walker\""));
        assert!(s.contains("\"forwarded\": 17"));
        assert!(s.contains("\"bad\": null"));
        // Balanced braces/brackets — a cheap well-formedness check.
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        assert_eq!(s.matches('[').count(), s.matches(']').count());
    }

    #[test]
    fn json_escapes_control_characters() {
        let mut rep = Report::new("esc");
        rep.row(&[("s", "a\tb\nc\u{1}".into())]);
        let s = rep.render();
        assert!(s.contains("a\\tb\\nc\\u0001"));
    }
}
