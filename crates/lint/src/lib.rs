//! `skywalker-lint` — a zero-dependency static auditor: the determinism
//! contract (rules D01–D06) and the used public surface (D07).
//!
//! The whole reproduction rests on one contract: **a run is a pure
//! function of its seed** — bit-identical across thread counts, debug
//! vs release, and refactors that don't intend behavior change (the
//! golden digests in `tests/golden/` are byte-compared). The invariants
//! that guarantee this used to live only in `docs/architecture.md`
//! prose; this crate enforces them at the source level with a
//! lightweight Rust tokenizer ([`tokens`]) and a per-file rule engine
//! ([`rules`]), so a stray wall-clock read or hash-order iteration is a
//! CI failure, not a silent digest invalidation six PRs later. D07 asks
//! the one cross-file question — is this `pub` item named anywhere but
//! its own file? — of the same tokens.
//!
//! Run it with `cargo run -p skywalker-lint` from anywhere in the
//! workspace (add `--json` for machine-diffable output); the rule
//! catalog, fix recipes, and escape policy are documented in
//! `docs/determinism.md`.
//!
//! The crate depends on nothing — not even the rest of the workspace —
//! so the auditor keeps working while the code it audits is
//! mid-refactor, and its own verdicts can't drift with a dependency
//! upgrade. It lints itself: `cargo run -p skywalker-lint` covers
//! `crates/lint/src` like any other source.
//!
//! # Examples
//!
//! ```
//! use skywalker_lint::rules::lint_source;
//!
//! let bad = "fn f() { let t = Instant::now(); }";
//! let lint = lint_source(bad, "src/fabric.rs");
//! assert_eq!(lint.findings[0].rule, "D01");
//! ```

pub mod rules;
pub mod tokens;

use rules::{Allow, Finding, Mentions};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use tokens::Lexed;

/// Workspace-relative path of the committed escape budget.
const BUDGET_PATH: &str = "crates/lint/det_allow.budget";

/// The committed-vs-live escape budget comparison.
#[derive(Debug, Clone, Default)]
// det-allow(D07): the type of `LintReport::budget`, which callers read through the field
pub struct Budget {
    /// Per-rule pragma counts parsed from the committed budget file,
    /// `crates/lint/det_allow.budget`.
    pub committed: BTreeMap<String, u32>,
    /// Per-rule counts of pragmas actually in force (suppressing a
    /// finding) in the scanned tree.
    pub live: BTreeMap<String, u32>,
}

impl Budget {
    /// True when live counts match the committed file exactly. Exact —
    /// not `<=` — so removing an escape also forces the budget file
    /// down in the same change, keeping the ratchet honest.
    pub fn ok(&self) -> bool {
        self.committed == self.live
    }

    /// Renders the live counts in the budget-file format (what the
    /// committed file must contain).
    pub fn render_live(&self) -> String {
        let mut s = String::from(
            "# Escape budget: total `det-allow` pragmas in force, per rule.\n\
             # Pinned so escapes can only be removed (or added) deliberately:\n\
             # skywalker-lint fails on any mismatch with the live count.\n",
        );
        for (rule, n) in &self.live {
            s.push_str(&format!("{rule} {n}\n"));
        }
        s
    }
}

/// The result of auditing a file tree.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// Violations, ordered by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Escapes in force, ordered by (file, line).
    pub allows: Vec<Allow>,
    /// Files scanned.
    pub files_scanned: usize,
    /// Budget comparison (empty/trivially-ok when no budget file was
    /// checked, e.g. when linting explicit file arguments).
    pub budget: Budget,
}

impl LintReport {
    /// True when there is nothing to report: no findings and no budget
    /// drift.
    pub fn clean(&self) -> bool {
        self.findings.is_empty() && self.budget.ok()
    }

    /// Human-readable rendering, one diagnostic per line.
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        for f in &self.findings {
            s.push_str(&format!(
                "{}:{} {} {}\n  fix: {}\n",
                f.file, f.line, f.rule, f.message, f.hint
            ));
        }
        if !self.budget.ok() {
            s.push_str(&format!(
                "{BUDGET_PATH}: escape budget drift\n  committed: {:?}\n  live:      {:?}\n  \
                 fix: update the budget file to match (and justify the diff in review)\n",
                self.budget.committed, self.budget.live
            ));
        }
        s.push_str(&format!(
            "{} file(s) scanned, {} finding(s), {} escape(s) in force, budget {}\n",
            self.files_scanned,
            self.findings.len(),
            self.allows.len(),
            if self.budget.ok() { "ok" } else { "DRIFTED" },
        ));
        s
    }

    /// Machine-diffable JSON rendering (stable key order, one schema).
    pub fn render_json(&self) -> String {
        let mut s = String::from("{\n  \"tool\": \"skywalker-lint\",\n");
        s.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        s.push_str(&format!("  \"clean\": {},\n", self.clean()));
        s.push_str("  \"findings\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"message\": {}, \"hint\": {}}}{}\n",
                json_str(&f.file),
                f.line,
                json_str(f.rule),
                json_str(&f.message),
                json_str(f.hint),
                if i + 1 < self.findings.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n  \"allows\": [\n");
        for (i, a) in self.allows.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"reason\": {}}}{}\n",
                json_str(&a.file),
                a.line,
                json_str(&a.rule),
                json_str(&a.reason),
                if i + 1 < self.allows.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n  \"budget\": {\n");
        s.push_str(&format!(
            "    \"committed\": {},\n    \"live\": {},\n    \"ok\": {}\n  }}\n}}\n",
            json_counts(&self.budget.committed),
            json_counts(&self.budget.live),
            self.budget.ok()
        ));
        s
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_counts(m: &BTreeMap<String, u32>) -> String {
    let inner: Vec<String> = m
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), v))
        .collect();
    format!("{{{}}}", inner.join(", "))
}

/// Finds the workspace root by walking up from `start` until a
/// `Cargo.toml` declaring `[workspace]` appears.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Collects every `.rs` file under `root`, skipping build output, VCS
/// metadata, and the lint fixture corpus (whose files *must* fail).
fn collect_rs_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name.starts_with('.') {
                    continue;
                }
                if rel_unix(root, &path) == "crates/lint/tests/fixtures" {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

fn rel_unix(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

fn parse_budget(text: &str) -> BTreeMap<String, u32> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        if let (Some(rule), Some(n)) = (parts.next(), parts.next()) {
            if let Ok(n) = n.parse::<u32>() {
                out.insert(rule.to_string(), n);
            }
        }
    }
    out
}

/// Runs every rule over a set of lexed files: the per-file rules on
/// each, and D07 against the names the whole set (and `docs`) mentions.
fn lint_tree(files: &[(String, Lexed)], docs: &[String]) -> LintReport {
    let mut mentions = Mentions::default();
    for (_, lexed) in files {
        mentions.add_source(lexed);
    }
    for text in docs {
        mentions.add_doc(text);
    }
    let mut report = LintReport {
        files_scanned: files.len(),
        ..LintReport::default()
    };
    for (rel, lexed) in files {
        let file = rules::lint_lexed(lexed, rel, Some(&mentions));
        report.findings.extend(file.findings);
        report.allows.extend(file.allows);
    }
    for a in &report.allows {
        *report.budget.live.entry(a.rule.clone()).or_insert(0) += 1;
    }
    report
}

/// The prose D07 accepts a mention from: `README.md` and `docs/*.md`.
fn read_docs(root: &Path) -> Vec<String> {
    let mut paths = vec![root.join("README.md")];
    if let Ok(entries) = std::fs::read_dir(root.join("docs")) {
        paths.extend(entries.flatten().map(|e| e.path()));
    }
    paths
        .iter()
        .filter(|p| p.extension().is_some_and(|e| e == "md"))
        .filter_map(|p| std::fs::read_to_string(p).ok())
        .collect()
}

/// Audits the whole workspace rooted at `root`: every `.rs` file under
/// it (minus `target/`, dotdirs, and the fixture corpus), plus the
/// escape-budget check against `crates/lint/det_allow.budget`.
pub fn lint_workspace(root: &Path) -> LintReport {
    let files: Vec<(String, Lexed)> = collect_rs_files(root)
        .iter()
        .filter_map(|path| {
            let src = std::fs::read_to_string(path).ok()?;
            Some((rel_unix(root, path), tokens::tokenize(&src)))
        })
        .collect();
    let mut report = lint_tree(&files, &read_docs(root));
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    report
        .allows
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    report.budget.committed = std::fs::read_to_string(root.join(BUDGET_PATH))
        .map(|t| parse_budget(&t))
        .unwrap_or_default();
    report
}

/// Audits an explicit list of files. Each file is scoped by its bare
/// name (no path exemptions — this is how the fixture corpus is
/// checked), the listed files are the whole tree D07 looks for mentions
/// in, and no budget comparison is made.
pub fn lint_files(paths: &[PathBuf]) -> LintReport {
    let mut unreadable = Vec::new();
    let mut files = Vec::new();
    for path in paths {
        match std::fs::read_to_string(path) {
            Ok(src) => {
                let name = path
                    .file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or_else(|| path.display().to_string());
                files.push((name, tokens::tokenize(&src)));
            }
            Err(e) => unreadable.push(Finding {
                file: path.display().to_string(),
                line: 0,
                rule: "D00",
                message: format!("unreadable file: {e}"),
                hint: "pass paths to existing .rs files",
            }),
        }
    }
    let mut report = lint_tree(&files, &[]);
    report.files_scanned = paths.len();
    report.findings.splice(0..0, unreadable);
    // Mirror the live counts so `clean()` reflects findings only.
    report.budget.committed = report.budget.live.clone();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_parse_ignores_comments_and_blank_lines() {
        let b = parse_budget("# header\n\nD02 3\nD05 0\n");
        assert_eq!(b.get("D02"), Some(&3));
        assert_eq!(b.get("D05"), Some(&0));
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn budget_exact_match_required() {
        let mut budget = Budget::default();
        budget.committed.insert("D02".into(), 3);
        budget.live.insert("D02".into(), 2);
        assert!(!budget.ok(), "an over-committed budget must drift");
        budget.live.insert("D02".into(), 3);
        assert!(budget.ok());
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn render_json_is_well_formed_enough_to_diff() {
        let rep = LintReport::default();
        let j = rep.render_json();
        assert!(j.contains("\"findings\": ["));
        assert!(j.contains("\"clean\": true"));
    }
}
