//! CLI for the source auditor.
//!
//! ```sh
//! cargo run -p skywalker-lint              # audit the whole workspace
//! cargo run -p skywalker-lint -- --json    # machine-diffable output (CI)
//! cargo run -p skywalker-lint -- a.rs b.rs # audit explicit files
//! ```
//!
//! Exit codes: `0` clean; `1` findings; `2` clean code but escape-budget
//! drift; `3` usage/environment error.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut json = false;
    let mut root: Option<PathBuf> = None;
    let mut files: Vec<PathBuf> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--root" => match args.next() {
                Some(r) => root = Some(PathBuf::from(r)),
                None => {
                    eprintln!("--root requires a path");
                    return ExitCode::from(3);
                }
            },
            "--help" | "-h" => {
                println!(
                    "skywalker-lint: static determinism and public-surface auditor\n\n\
                     USAGE: skywalker-lint [--json] [--root <dir>] [files...]\n\n\
                     With no files: audits every .rs under the workspace root\n\
                     (located by walking up from the current directory) and\n\
                     checks the det-allow escape budget. With files: audits\n\
                     just those (the whole tree D07 sees), scoped by bare file\n\
                     name, no budget check.\n\n\
                     Rules D01..D07 are cataloged in docs/determinism.md."
                );
                return ExitCode::SUCCESS;
            }
            _ => files.push(PathBuf::from(arg)),
        }
    }

    let report = if files.is_empty() {
        let start = root
            .or_else(|| std::env::current_dir().ok())
            .unwrap_or_default();
        let Some(ws) = skywalker_lint::find_workspace_root(&start) else {
            eprintln!(
                "no workspace root found above {} (looked for a Cargo.toml with [workspace]); \
                 pass --root or explicit files",
                start.display()
            );
            return ExitCode::from(3);
        };
        skywalker_lint::lint_workspace(&ws)
    } else {
        skywalker_lint::lint_files(&files)
    };

    if json {
        print!("{}", report.render_json());
    } else {
        print!("{}", report.render_text());
    }

    if !report.findings.is_empty() {
        ExitCode::from(1)
    } else if !report.budget.ok() {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}
