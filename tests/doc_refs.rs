//! Every repo path a document names in backticks exists. A path is
//! repo-rooted when it starts with `src/`, `crates/`, `tests/`, `docs/`
//! or `.github/`; a `:N` (or `:N,M`) suffix is dropped, and a span with a
//! glob or a space is not a path. `ROADMAP.md` is left out: it names
//! files still to come.

use std::fs;
use std::path::Path;

const ROOTS: [&str; 5] = ["src/", "crates/", "tests/", "docs/", ".github/"];

/// The documents checked, relative to the repo root.
fn documents(root: &Path) -> Vec<String> {
    let mut docs = vec![
        "README.md".to_string(),
        ".claude/skills/verify/SKILL.md".to_string(),
    ];
    for entry in fs::read_dir(root.join("docs")).expect("docs/ is readable") {
        let name = entry.expect("a docs/ entry").file_name();
        let name = name.to_string_lossy();
        if name.ends_with(".md") {
            docs.push(format!("docs/{name}"));
        }
    }
    docs.sort();
    docs
}

/// The inline code spans of `text`, outside fenced blocks; a span may
/// wrap across lines.
fn code_spans(text: &str) -> Vec<String> {
    let mut prose = String::new();
    let mut fenced = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            prose.push_str(line);
            prose.push(' ');
        }
    }
    prose
        .split('`')
        .skip(1)
        .step_by(2)
        .map(|span| span.split_whitespace().collect::<Vec<_>>().join(" "))
        .collect()
}

/// The repo path `span` names, if it names one.
fn repo_path(span: &str) -> Option<&str> {
    let path = span.split(':').next()?;
    let globbed = path.contains(['*', '?', '{', '[', ' ', '<']);
    (ROOTS.iter().any(|root| path.starts_with(root)) && !globbed).then_some(path)
}

#[test]
fn backticked_repo_paths_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut missing = Vec::new();
    let mut checked = 0;
    for doc in documents(root) {
        let text = fs::read_to_string(root.join(&doc)).expect("a listed document is readable");
        for span in code_spans(&text) {
            if let Some(path) = repo_path(&span) {
                checked += 1;
                if !root.join(path).exists() {
                    missing.push(format!("{doc}: `{span}`"));
                }
            }
        }
    }
    assert!(
        checked > 100,
        "only {checked} paths found: is the parser right?"
    );
    assert!(
        missing.is_empty(),
        "documents name paths that do not exist:\n{}",
        missing.join("\n")
    );
}

#[test]
fn spans_and_paths_parse() {
    let text = "See `src/lib.rs:12` and `crates/net/src/\nwire.rs`.\n```\n`src/nope.rs`\n```\n`cargo test` `tests/*.rs`";
    let spans = code_spans(text);
    assert_eq!(
        spans,
        [
            "src/lib.rs:12",
            "crates/net/src/ wire.rs",
            "cargo test",
            "tests/*.rs"
        ]
    );
    let paths: Vec<_> = spans.iter().filter_map(|s| repo_path(s)).collect();
    assert_eq!(paths, ["src/lib.rs"]);
}
