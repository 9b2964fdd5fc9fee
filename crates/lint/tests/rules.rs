//! End-to-end checks over the fixture corpus and the workspace itself:
//! every `*_fail.rs` fixture fires its rule (through the library *and*
//! the binary's exit code), every `*_pass.rs` fixture is clean, the
//! workspace self-lints clean, and the committed escape budget matches
//! the live pragma count exactly.

use std::path::{Path, PathBuf};

const FAIL_FIXTURES: [(&str, &str); 7] = [
    ("d01_fail.rs", "D01"),
    ("d02_fail.rs", "D02"),
    ("d03_fail.rs", "D03"),
    ("d04_fail.rs", "D04"),
    ("d05_fail.rs", "D05"),
    ("d06_fail.rs", "D06"),
    ("d07_fail.rs", "D07"),
];

const PASS_FIXTURES: [&str; 6] = [
    "d01_pass.rs",
    "d02_pass.rs",
    "d03_pass.rs",
    "d04_pass.rs",
    "d05_pass.rs",
    "d06_pass.rs",
];

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn lint_fixture(name: &str) -> skywalker_lint::LintReport {
    skywalker_lint::lint_files(&[fixture(name)])
}

fn workspace_root() -> PathBuf {
    skywalker_lint::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("crates/lint sits inside the workspace")
}

#[test]
fn failing_fixtures_fire_their_rule() {
    for (name, rule) in FAIL_FIXTURES {
        let rep = lint_fixture(name);
        assert!(
            rep.findings.iter().any(|f| f.rule == rule),
            "{name}: expected a {rule} finding, got {:?}",
            rep.findings
        );
    }
}

#[test]
fn passing_fixtures_are_clean() {
    for name in PASS_FIXTURES {
        let rep = lint_fixture(name);
        assert!(
            rep.findings.is_empty(),
            "{name}: expected clean, got {:?}",
            rep.findings
        );
    }
}

/// D07 is the one rule that reads across files: the pass fixture is
/// clean only beside the file that names its public item.
#[test]
fn d07_pass_fixture_is_clean_beside_its_user_and_orphaned_alone() {
    let pair = skywalker_lint::lint_files(&[fixture("d07_pass.rs"), fixture("d07_user.rs")]);
    assert!(pair.findings.is_empty(), "{:?}", pair.findings);
    assert_eq!(pair.allows.len(), 1, "the kept-on-purpose trait");
    let alone = lint_fixture("d07_pass.rs");
    let orphans: Vec<_> = alone.findings.iter().map(|f| f.rule).collect();
    assert_eq!(orphans, ["D07"], "{:?}", alone.findings);
    assert!(alone.findings[0].message.contains("used_by_the_other_file"));
}

#[test]
fn d06_pass_fixture_uses_exactly_one_escape() {
    let rep = lint_fixture("d06_pass.rs");
    assert!(rep.findings.is_empty(), "{:?}", rep.findings);
    assert_eq!(rep.allows.len(), 1);
    assert_eq!(rep.allows[0].rule, "D02");
    assert!(!rep.allows[0].reason.is_empty());
}

#[test]
fn binary_exits_nonzero_on_every_failing_fixture() {
    let bin = env!("CARGO_BIN_EXE_skywalker-lint");
    for (name, _) in FAIL_FIXTURES {
        let status = std::process::Command::new(bin)
            .arg(fixture(name))
            .stdout(std::process::Stdio::null())
            .status()
            .expect("spawn skywalker-lint");
        assert_eq!(status.code(), Some(1), "{name}: expected exit 1");
    }
}

#[test]
fn binary_json_mode_reports_clean_false_on_findings() {
    let bin = env!("CARGO_BIN_EXE_skywalker-lint");
    let out = std::process::Command::new(bin)
        .arg("--json")
        .arg(fixture("d01_fail.rs"))
        .output()
        .expect("spawn skywalker-lint");
    let text = String::from_utf8(out.stdout).expect("utf8 json");
    assert!(text.contains("\"clean\": false"), "{text}");
    assert!(text.contains("\"rule\": \"D01\""), "{text}");
}

#[test]
fn workspace_self_lints_clean() {
    let rep = skywalker_lint::lint_workspace(&workspace_root());
    assert!(
        rep.findings.is_empty() && rep.budget.ok(),
        "workspace must lint clean:\n{}",
        rep.render_text()
    );
}

#[test]
fn committed_budget_matches_live_count_exactly() {
    let rep = skywalker_lint::lint_workspace(&workspace_root());
    let mut live = std::collections::BTreeMap::new();
    for a in &rep.allows {
        *live.entry(a.rule.clone()).or_insert(0u32) += 1;
    }
    assert_eq!(
        rep.budget.committed,
        live,
        "crates/lint/det_allow.budget must pin the live pragma count; \
         the live counts render as:\n{}",
        rep.budget.render_live()
    );
}
