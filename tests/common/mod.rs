//! The committed-artifact gate shared by `tests/golden_digests.rs` and
//! `tests/paper_claims.rs`: render, then compare byte-for-byte against a
//! file in the repository. After an *intentional* change, rerun with
//! `UPDATE_GOLDENS=1` and commit the diff alongside the change.

// Each test binary compiles its own copy and uses a subset.
#![allow(dead_code)]

use std::path::PathBuf;

/// True while the committed artifacts are being rewritten. Read-only
/// comparisons skip themselves then: the file they read may be
/// mid-rewrite in a parallel test.
pub fn updating_goldens() -> bool {
    std::env::var("UPDATE_GOLDENS").is_ok_and(|v| v == "1")
}

fn repo_path(rel: &str) -> PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

/// The committed artifact at `rel` (a path from the repository root).
pub fn read_committed(rel: &str) -> String {
    let path = repo_path(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing committed artifact {} ({e}); run with UPDATE_GOLDENS=1 and commit the result",
            path.display()
        )
    })
}

/// Byte-compares `rendered` against the committed file at `rel`,
/// printing the first differing line on mismatch; `UPDATE_GOLDENS=1`
/// rewrites the file instead.
pub fn compare_or_update(rel: &str, rendered: &str) {
    if updating_goldens() {
        let path = repo_path(rel);
        std::fs::create_dir_all(path.parent().expect("artifact has a parent directory"))
            .expect("create artifact directory");
        std::fs::write(&path, rendered).expect("write artifact");
        println!("updated {}", path.display());
        return;
    }
    let expected = read_committed(rel);
    if expected == rendered {
        return;
    }
    let exp_lines: Vec<&str> = expected.lines().collect();
    let got_lines: Vec<&str> = rendered.lines().collect();
    for i in 0..exp_lines.len().max(got_lines.len()) {
        let e = exp_lines.get(i).copied().unwrap_or("<missing>");
        let g = got_lines.get(i).copied().unwrap_or("<missing>");
        if e != g {
            panic!(
                "{rel} drifted at line {}:\n  expected: {e}\n  got:      {g}\n\
                 If this change is intentional, refresh with UPDATE_GOLDENS=1 and commit the diff.",
                i + 1
            );
        }
    }
    panic!("{rel} drifted (line endings?)");
}
