//! The rule catalog and the per-file rule engine.
//!
//! D01–D06 guard determinism; D07 keeps the public surface to what
//! something uses. Every rule is a token-pattern check scoped by path:
//! the simulator's reproducibility contract ("same seed ⇒ bit-identical
//! digests, at any thread count, debug or release") only binds the code
//! that can feed a digest, so the live TCP plane, the bench harness, and
//! test/bench/example code are exempted per rule rather than globally.
//! Escapes are explicit and budgeted: a trailing (or preceding-line)
//! comment pragma of the form `det-allow(<rule>): <reason>` suppresses
//! exactly one rule on exactly one line, and the workspace-wide pragma
//! count is pinned by `crates/lint/det_allow.budget` so it can only
//! shrink deliberately.

use crate::tokens::{tokenize, Lexed, Tok, TokKind};
use std::collections::{BTreeMap, BTreeSet};

/// One rule's identity and fix guidance, as shown in diagnostics and
/// `docs/determinism.md`.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable rule id (`D01`..`D07`).
    pub id: &'static str,
    /// One-line statement of the invariant.
    pub title: &'static str,
    /// How to fix a finding.
    pub hint: &'static str,
}

/// The rule catalog, in id order.
pub const RULES: [RuleInfo; 7] = [
    RuleInfo {
        id: "D01",
        title: "no wall-clock reads in deterministic code",
        hint: "use sim virtual time (SimTime / the scheduler); real-time \
               measurement belongs in crates/live or crates/bench",
    },
    RuleInfo {
        id: "D02",
        title: "no unordered HashMap/HashSet in sim/digest crates",
        hint: "use BTreeMap/BTreeSet (or collect-and-sort before iterating); a \
               never-iterated lookup map may carry a det-allow escape with a reason",
    },
    RuleInfo {
        id: "D03",
        title: "DetRng construction goes through the seed discipline",
        hint: "derive streams with DetRng::for_component / DetRng::derive; raw \
               seeds belong at scenario roots (tests, benches)",
    },
    RuleInfo {
        id: "D04",
        title: "no ambient threading in simulation code",
        hint: "sim state must stay single-threaded; parallelism belongs in \
               the lab's slot-addressed pool (src/lab.rs), crates/live, or benches",
    },
    RuleInfo {
        id: "D05",
        title: "no float accumulation across unordered iteration",
        hint: "accumulate integers, or sort (BTree order / sorted collect) \
               before reducing floats — see Summary::of",
    },
    RuleInfo {
        id: "D06",
        title: "every lint escape carries a reason and suppresses something",
        hint: "write `det-allow(<rule>): <reason>` on (or directly above) the \
               offending line; delete stale pragmas and shrink the budget",
    },
    RuleInfo {
        id: "D07",
        title: "no `pub` item that no other file and no doc names",
        hint: "delete it with the tests that exercise only it, or narrow it to \
               `pub(crate)`; an API kept on purpose carries a det-allow escape \
               with the reason",
    },
];

/// Looks up a rule by id.
pub fn rule(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == id)
}

/// One diagnostic: a determinism-contract violation at a source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id (`D01`..`D07`).
    pub rule: &'static str,
    /// What was matched, specifically.
    pub message: String,
    /// How to fix it (from the catalog).
    pub hint: &'static str,
}

/// One *used* escape pragma: a finding that was deliberately suppressed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line of the pragma.
    pub line: u32,
    /// Rule id the pragma suppresses.
    pub rule: String,
    /// The committed justification.
    pub reason: String,
}

/// The result of linting one file.
#[derive(Debug, Clone, Default)]
// det-allow(D07): what `lint_source` returns; callers only read its fields
pub struct FileLint {
    /// Violations (post-suppression).
    pub findings: Vec<Finding>,
    /// Escapes that suppressed a finding.
    pub allows: Vec<Allow>,
}

// ---------------------------------------------------------------------
// Path scoping
// ---------------------------------------------------------------------

fn in_dir(path: &str, dir: &str) -> bool {
    path.starts_with(dir)
}

fn is_test_or_bench_path(path: &str) -> bool {
    path.starts_with("tests/")
        || path.contains("/tests/")
        || path.starts_with("benches/")
        || path.contains("/benches/")
}

/// Whether `rule_id` is in force for the file at `path` (workspace-
/// relative, `/`-separated). Test and bench code is a scenario root:
/// it seeds, times, and threads legitimately.
pub fn rule_applies(rule_id: &str, path: &str) -> bool {
    if is_test_or_bench_path(path) {
        // Pragma hygiene still applies everywhere; everything else
        // treats tests/benches as roots outside the contract.
        return rule_id == "D06";
    }
    match rule_id {
        "D01" | "D02" | "D05" => !in_dir(path, "crates/live/") && !in_dir(path, "crates/bench/"),
        "D03" => !in_dir(path, "crates/sim/") && !in_dir(path, "crates/bench/"),
        "D04" => {
            !in_dir(path, "crates/live/") && path != "src/lab.rs" && !in_dir(path, "crates/bench/")
        }
        // Library files declare the public surface; the bench harness is
        // a binary package of its own.
        "D07" => !in_dir(path, "crates/bench/"),
        _ => true,
    }
}

// ---------------------------------------------------------------------
// Pragmas
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Pragma {
    line: u32,
    /// `D` + digits, as written. May be unknown (that's a D06 finding).
    id: String,
    reason: String,
    used: bool,
}

/// Extracts escape pragmas from comment text. Only `det-allow(` + `D` +
/// digits + `)` parses as a pragma — prose mentioning the mechanism
/// (e.g. `det-allow(<rule>)`) is ignored, and a typo'd id fails safe:
/// the pragma won't suppress anything, so the underlying finding still
/// fires.
fn parse_pragmas(comments: &[crate::tokens::Comment]) -> Vec<Pragma> {
    let mut out = Vec::new();
    for c in comments {
        let mut rest = c.text.as_str();
        while let Some(pos) = rest.find("det-allow(") {
            rest = &rest[pos + "det-allow(".len()..];
            if !rest.starts_with('D') {
                continue;
            }
            let digits: String = rest[1..].chars().take_while(char::is_ascii_digit).collect();
            if digits.is_empty() || !rest[1 + digits.len()..].starts_with(')') {
                continue;
            }
            let id = format!("D{digits}");
            let after = &rest[1 + digits.len() + 1..];
            let reason = match after.strip_prefix(':') {
                Some(r) => {
                    let end = r.find("det-allow(").unwrap_or(r.len());
                    r[..end].trim_end_matches("*/").trim().to_string()
                }
                None => String::new(),
            };
            out.push(Pragma {
                line: c.line,
                id,
                reason,
                used: false,
            });
        }
    }
    out
}

// ---------------------------------------------------------------------
// cfg(test) exemption
// ---------------------------------------------------------------------

/// Line ranges (inclusive) covered by `#[cfg(test)]` items — unit-test
/// modules and test-only imports. Code there is a scenario root, like
/// an integration test.
fn cfg_test_ranges(toks: &[Tok]) -> Vec<(u32, u32)> {
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i + 1 < toks.len() {
        if !(toks[i].is_punct('#') && toks[i + 1].is_punct('[')) {
            i += 1;
            continue;
        }
        let attr_start_line = toks[i].line;
        // Find the matching `]` of this attribute.
        let mut depth = 0i32;
        let mut j = i + 1;
        let mut idents: Vec<&str> = Vec::new();
        while j < toks.len() {
            match &toks[j].kind {
                TokKind::Punct('[') => depth += 1,
                TokKind::Punct(']') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                TokKind::Ident(s) => idents.push(s),
                _ => {}
            }
            j += 1;
        }
        let is_cfg_test = idents.contains(&"cfg")
            && idents.contains(&"test")
            && !idents.contains(&"not")
            && !idents.contains(&"doc");
        if !is_cfg_test {
            i = j + 1;
            continue;
        }
        // Skip any further attributes on the same item.
        let mut k = j + 1;
        while k + 1 < toks.len() && toks[k].is_punct('#') && toks[k + 1].is_punct('[') {
            let mut d = 0i32;
            while k < toks.len() {
                match toks[k].kind {
                    TokKind::Punct('[') => d += 1,
                    TokKind::Punct(']') => {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            k += 1;
        }
        // The item ends at the first `;` outside braces, or at the
        // close of its first brace block (fn body, mod body, ...).
        let mut braces = 0i32;
        let mut end_line = attr_start_line;
        while k < toks.len() {
            match toks[k].kind {
                TokKind::Punct('{') => braces += 1,
                TokKind::Punct('}') => {
                    braces -= 1;
                    if braces == 0 {
                        end_line = toks[k].line;
                        break;
                    }
                }
                TokKind::Punct(';') if braces == 0 => {
                    end_line = toks[k].line;
                    break;
                }
                _ => {}
            }
            end_line = toks[k].line;
            k += 1;
        }
        ranges.push((attr_start_line, end_line));
        i = k + 1;
    }
    ranges
}

fn in_ranges(line: u32, ranges: &[(u32, u32)]) -> bool {
    ranges.iter().any(|&(a, b)| line >= a && line <= b)
}

// ---------------------------------------------------------------------
// The per-file engine
// ---------------------------------------------------------------------

const HASH_TYPES: [&str; 2] = ["HashMap", "HashSet"];
const ITER_METHODS: [&str; 10] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

/// Token-index ranges belonging to `use` items (type mentions there are
/// imports, not uses — D02 only cares where the type is *used*).
fn use_item_ranges(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_ident("use") {
            let start = i;
            while i < toks.len() && !toks[i].is_punct(';') {
                i += 1;
            }
            out.push((start, i));
        }
        i += 1;
    }
    out
}

fn in_index_ranges(idx: usize, ranges: &[(usize, usize)]) -> bool {
    ranges.iter().any(|&(a, b)| idx >= a && idx <= b)
}

/// Identifiers bound to a `HashMap`/`HashSet` in this file, found from
/// `name: HashMap<..>` annotations (fields, params, lets) and
/// `name = HashMap::new()` initializers.
fn hash_bound_idents(toks: &[Tok]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for (i, t) in toks.iter().enumerate() {
        let Some(word) = t.ident() else { continue };
        if !HASH_TYPES.contains(&word) {
            continue;
        }
        // Walk back over a qualifying path (`std::collections::`).
        let mut j = i;
        while j >= 3 && toks[j - 1].is_punct(':') && toks[j - 2].is_punct(':') {
            j -= 3; // over `::` and the path segment ident
        }
        if j == 0 {
            continue;
        }
        // `name : HashMap` (type annotation)?
        if toks[j - 1].is_punct(':') && j >= 2 {
            if let Some(name) = toks[j - 2].ident() {
                out.insert(name.to_string());
            }
        }
        // `name = HashMap::new()` (inferred binding)?
        if toks[j - 1].is_punct('=') && j >= 2 {
            if let Some(name) = toks[j - 2].ident() {
                out.insert(name.to_string());
            }
        }
    }
    out
}

/// Identifiers annotated or initialized as floats (`x: f64`,
/// `let mut x = 0.0`).
fn float_bound_idents(toks: &[Tok]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for i in 2..toks.len() {
        let is_float_type = toks[i].is_ident("f64") || toks[i].is_ident("f32");
        let is_float_lit = matches!(&toks[i].kind, TokKind::Num(s) if s.contains('.'));
        if is_float_type && toks[i - 1].is_punct(':') {
            if let Some(name) = toks[i - 2].ident() {
                out.insert(name.to_string());
            }
        }
        if is_float_lit && toks[i - 1].is_punct('=') {
            if let Some(name) = toks[i - 2].ident() {
                out.insert(name.to_string());
            }
        }
    }
    out
}

/// Where names are mentioned across one audited tree — what D07 needs
/// to know beyond the file in hand. A name scan, not a resolver: any
/// identifier token with the item's name counts as a mention.
#[derive(Debug, Clone, Default)]
pub struct Mentions {
    /// Identifier → number of source files it occurs in.
    files: BTreeMap<String, u32>,
    /// Words of the prose docs.
    docs: BTreeSet<String>,
}

impl Mentions {
    /// Counts one source file's identifiers (each once).
    pub fn add_source(&mut self, lexed: &Lexed) {
        let names: BTreeSet<&str> = lexed.tokens.iter().filter_map(Tok::ident).collect();
        for name in names {
            *self.files.entry(name.to_string()).or_insert(0) += 1;
        }
    }

    /// Adds the words of one prose document.
    pub fn add_doc(&mut self, text: &str) {
        let words = text.split(|c: char| !(c.is_alphanumeric() || c == '_'));
        self.docs
            .extend(words.filter(|w| !w.is_empty()).map(String::from));
    }

    /// Whether `name`, declared in one counted file, also occurs in
    /// another one or in a doc.
    fn elsewhere(&self, name: &str) -> bool {
        self.files.get(name).is_some_and(|n| *n > 1) || self.docs.contains(name)
    }
}

const PUB_ITEM_KINDS: [&str; 6] = ["fn", "struct", "enum", "trait", "const", "type"];
const FN_QUALIFIERS: [&str; 3] = ["unsafe", "async", "extern"];

/// `(line, name)` of every unrestricted-`pub` function, struct, enum,
/// trait, constant and type alias declared in `toks`.
fn pub_items(toks: &[Tok]) -> Vec<(u32, &str)> {
    let word = |i: usize| toks.get(i).and_then(Tok::ident);
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("pub") {
            continue;
        }
        // `pub const unsafe extern "C" fn`: step over what qualifies a
        // `fn`. A `const` in front of a name is the item kind itself.
        let mut j = i + 1;
        while match word(j) {
            Some("const") => word(j + 1).is_some_and(|w| w == "fn" || FN_QUALIFIERS.contains(&w)),
            Some(w) => FN_QUALIFIERS.contains(&w),
            None => toks.get(j).is_some_and(|q| q.kind == TokKind::Str),
        } {
            j += 1;
        }
        if let (Some(kind), Some(name)) = (word(j), word(j + 1)) {
            if PUB_ITEM_KINDS.contains(&kind) {
                out.push((t.line, name));
            }
        }
    }
    out
}

/// Runs the per-file rules (D01–D06) over one file's source.
///
/// `rel_path` is the workspace-relative, `/`-separated path used for
/// rule scoping; pass a bare file name to lint content with no path
/// exemptions (how fixture files are checked).
pub fn lint_source(src: &str, rel_path: &str) -> FileLint {
    lint_lexed(&tokenize(src), rel_path, None)
}

/// Runs every rule over one lexed file; D07 runs when the tree's
/// [`Mentions`] are given.
pub fn lint_lexed(lexed: &Lexed, rel_path: &str, mentions: Option<&Mentions>) -> FileLint {
    let toks = &lexed.tokens;
    let mut pragmas = parse_pragmas(&lexed.comments);
    let exempt = cfg_test_ranges(toks);
    let use_ranges = use_item_ranges(toks);
    let hash_idents = hash_bound_idents(toks);
    let float_idents = float_bound_idents(toks);

    // Raw findings, deduped by (line, rule, message).
    let mut raw: BTreeMap<(u32, &'static str, String), Finding> = BTreeMap::new();
    let mut push = |rule_id: &'static str, line: u32, message: String| {
        if !rule_applies(rule_id, rel_path) || in_ranges(line, &exempt) {
            return;
        }
        let info = rule(rule_id).expect("catalog rule");
        let key = (line, rule_id, message.clone());
        raw.entry(key).or_insert_with(|| Finding {
            file: rel_path.to_string(),
            line,
            rule: rule_id,
            message,
            hint: info.hint,
        });
    };

    let ident_at = |i: usize, name: &str| toks.get(i).is_some_and(|t| t.is_ident(name));
    let punct_at = |i: usize, c: char| toks.get(i).is_some_and(|t| t.is_punct(c));
    let path_sep = |i: usize| punct_at(i, ':') && punct_at(i + 1, ':');

    for (i, t) in toks.iter().enumerate() {
        let Some(word) = t.ident() else { continue };
        match word {
            // D01 — wall clock.
            "Instant" if path_sep(i + 1) && ident_at(i + 3, "now") => {
                push("D01", t.line, "wall-clock read via `Instant::now`".into());
            }
            "SystemTime" => {
                push("D01", t.line, "wall-clock read via `SystemTime`".into());
            }
            // D02 — unordered collection in type position.
            "HashMap" | "HashSet" if !path_sep(i + 1) && !in_index_ranges(i, &use_ranges) => {
                push(
                    "D02",
                    t.line,
                    format!("unordered `{word}` in a sim/digest crate"),
                );
            }
            // D03 — raw DetRng seed.
            "DetRng" if path_sep(i + 1) && ident_at(i + 3, "new") => {
                push(
                    "D03",
                    t.line,
                    "raw `DetRng::new` bypasses the component seed discipline".into(),
                );
            }
            // D04 — ambient threading.
            "thread" if path_sep(i + 1) && ident_at(i + 3, "spawn") => {
                push("D04", t.line, "ambient `thread::spawn`".into());
            }
            "mpsc" => {
                push(
                    "D04",
                    t.line,
                    "ambient channel via `std::sync::mpsc`".into(),
                );
            }
            _ => {}
        }

        // D02/D05 — iteration over a hash-bound identifier.
        if hash_idents.contains(word) && punct_at(i + 1, '.') {
            if let Some(method) = toks.get(i + 2).and_then(Tok::ident) {
                if ITER_METHODS.contains(&method) {
                    push(
                        "D02",
                        t.line,
                        format!("iteration over unordered `{word}.{method}()`"),
                    );
                    // D05a: the same statement reduces into a float.
                    let mut k = i + 3;
                    let mut saw_reduce = false;
                    let mut saw_float = false;
                    while k < toks.len() && k < i + 80 && !toks[k].is_punct(';') {
                        match &toks[k].kind {
                            TokKind::Ident(s) if s == "sum" || s == "fold" || s == "product" => {
                                saw_reduce = true;
                            }
                            TokKind::Ident(s) if s == "f64" || s == "f32" => saw_float = true,
                            TokKind::Num(s) if s.contains('.') => saw_float = true,
                            _ => {}
                        }
                        k += 1;
                    }
                    if saw_reduce && saw_float {
                        push(
                            "D05",
                            t.line,
                            format!("float reduction over unordered `{word}` iteration"),
                        );
                    }
                }
            }
        }

        // D02/D05 — `for .. in (&)hash { .. }` loops.
        if word == "for" {
            // Scan the loop header up to its `{`.
            let mut k = i + 1;
            let mut in_at = None;
            while k < toks.len() && k < i + 40 && !toks[k].is_punct('{') {
                if toks[k].is_ident("in") {
                    in_at = Some(k);
                }
                k += 1;
            }
            let (Some(in_idx), true) = (in_at, k < toks.len() && toks[k].is_punct('{')) else {
                continue;
            };
            let header_hit = toks[in_idx + 1..k]
                .iter()
                .enumerate()
                .find(|(_, t)| t.ident().is_some_and(|s| hash_idents.contains(s)));
            let Some((off, hit)) = header_hit else {
                continue;
            };
            // `for x in map.values()` is already reported by the
            // method-pattern rule above; only flag direct `for x in &map`.
            let abs = in_idx + 1 + off;
            let via_method = punct_at(abs + 1, '.')
                && toks
                    .get(abs + 2)
                    .and_then(Tok::ident)
                    .is_some_and(|m| ITER_METHODS.contains(&m));
            if !via_method {
                push(
                    "D02",
                    hit.line,
                    "`for` loop over an unordered hash collection".into(),
                );
            }
            // D05b: a float accumulator mutated inside the loop body.
            let mut depth = 0i32;
            let mut b = k;
            while b < toks.len() {
                match toks[b].kind {
                    TokKind::Punct('{') => depth += 1,
                    TokKind::Punct('}') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                if depth >= 1
                    && toks[b].ident().is_some_and(|s| float_idents.contains(s))
                    && punct_at(b + 1, '+')
                    && punct_at(b + 2, '=')
                {
                    push(
                        "D05",
                        toks[b].line,
                        "float accumulation inside a loop over an unordered collection".into(),
                    );
                }
                b += 1;
            }
        }
    }

    // D07 — a public item nothing outside this file names.
    let orphans = mentions.map(|m| pub_items(toks).into_iter().filter(|(_, n)| !m.elsewhere(n)));
    for (line, name) in orphans.into_iter().flatten() {
        push(
            "D07",
            line,
            format!("`pub` item `{name}` is named in no other file and no doc"),
        );
    }

    // Pragma resolution: a finding is suppressed by a matching pragma on
    // its own line or the line directly above. One pragma may suppress
    // several findings on its line but is counted (budgeted) once.
    let mut findings = Vec::new();
    let mut allow_set: BTreeMap<(u32, String), Allow> = BTreeMap::new();
    for (_, f) in raw {
        let suppressor = pragmas.iter_mut().find(|p| {
            p.id == f.rule && !p.reason.is_empty() && (p.line == f.line || p.line + 1 == f.line)
        });
        match suppressor {
            Some(p) => {
                p.used = true;
                allow_set.insert(
                    (p.line, p.id.clone()),
                    Allow {
                        file: f.file,
                        line: p.line,
                        rule: p.id.clone(),
                        reason: p.reason.clone(),
                    },
                );
            }
            None => findings.push(f),
        }
    }
    let mut allows: Vec<Allow> = allow_set.into_values().collect();

    // D06 — escape hygiene: reasons are mandatory, ids must exist, and
    // every pragma must suppress something (stale escapes rot the
    // budget). D06 has no escape of its own.
    for p in &pragmas {
        if rule(&p.id).is_none() {
            push_d06(
                &mut findings,
                rel_path,
                p.line,
                format!("`det-allow` names unknown rule `{}`", p.id),
            );
        } else if p.reason.is_empty() {
            push_d06(
                &mut findings,
                rel_path,
                p.line,
                format!("`det-allow({})` escape without a reason", p.id),
            );
        } else if !p.used {
            push_d06(
                &mut findings,
                rel_path,
                p.line,
                format!("stale `det-allow({})` pragma suppresses nothing", p.id),
            );
        }
    }
    allows.sort_by(|a, b| (a.line, &a.rule).cmp(&(b.line, &b.rule)));
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    FileLint { findings, allows }
}

fn push_d06(findings: &mut Vec<Finding>, file: &str, line: u32, message: String) {
    findings.push(Finding {
        file: file.to_string(),
        line,
        rule: "D06",
        message,
        hint: rule("D06").expect("catalog rule").hint,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_hit(src: &str, path: &str) -> Vec<&'static str> {
        lint_source(src, path)
            .findings
            .iter()
            .map(|f| f.rule)
            .collect()
    }

    #[test]
    fn wall_clock_flagged_and_scoped() {
        let src = "fn f() { let t = Instant::now(); }";
        assert_eq!(rules_hit(src, "src/fabric.rs"), vec!["D01"]);
        assert!(rules_hit(src, "crates/live/src/client.rs").is_empty());
        assert_eq!(rules_hit(src, "src/lab.rs"), vec!["D01"]);
        assert!(rules_hit(src, "tests/e2e.rs").is_empty());
    }

    #[test]
    fn hash_decl_and_iteration_flagged_but_assoc_path_is_not() {
        // A constructor path alone is not a type use — the *binding* is
        // tracked, but only iteration/type positions fire.
        let l = lint_source("let m = HashMap::new(); m.insert(1, 2);", "src/a.rs");
        assert!(l.findings.is_empty(), "{:?}", l.findings);
        // Iterating that binding fires.
        let l = lint_source("let m = HashMap::new(); for x in m.values() {}", "src/a.rs");
        assert!(l.findings.iter().any(|f| f.rule == "D02"));
        // A type annotation fires.
        assert_eq!(
            rules_hit("struct S { m: HashMap<u64, u32> }", "src/a.rs"),
            vec!["D02"]
        );
        // Imports don't.
        assert!(rules_hit("use std::collections::HashMap;", "src/a.rs").is_empty());
    }

    #[test]
    fn qualified_paths_resolve_to_the_binding() {
        let src = "let m: std::collections::HashMap<u32, u32> = Default::default();\n\
                   for k in m.keys() {}";
        let hits = rules_hit(src, "src/a.rs");
        assert_eq!(hits, vec!["D02", "D02"], "decl + iteration");
    }

    #[test]
    fn pragma_suppresses_and_is_counted() {
        let src = "struct S {\n    // det-allow(D02): lookup-only, never iterated\n    \
                   m: HashMap<u64, u32>,\n}";
        let l = lint_source(src, "src/a.rs");
        assert!(l.findings.is_empty(), "{:?}", l.findings);
        assert_eq!(l.allows.len(), 1);
        assert_eq!(l.allows[0].rule, "D02");
        assert!(l.allows[0].reason.contains("lookup-only"));
    }

    #[test]
    fn trailing_pragma_on_same_line_works() {
        let src = "struct S { m: HashMap<u64, u32> } // det-allow(D02): routing key only";
        let l = lint_source(src, "src/a.rs");
        assert!(l.findings.is_empty());
        assert_eq!(l.allows.len(), 1);
    }

    #[test]
    fn pragma_hygiene_is_enforced() {
        // No reason.
        let l = lint_source("// det-allow(D02)\nlet m: HashMap<u8, u8>;", "src/a.rs");
        assert!(l.findings.iter().any(|f| f.rule == "D06"));
        assert!(l.findings.iter().any(|f| f.rule == "D02"), "not suppressed");
        // Unknown rule.
        let l = lint_source("// det-allow(D99): because\nfn f() {}", "src/a.rs");
        assert_eq!(l.findings.len(), 1);
        assert_eq!(l.findings[0].rule, "D06");
        // Stale pragma.
        let l = lint_source("// det-allow(D02): nothing here\nfn f() {}", "src/a.rs");
        assert_eq!(l.findings.len(), 1);
        assert!(l.findings[0].message.contains("stale"));
        // Prose about the mechanism is not a pragma.
        let l = lint_source(
            "// escapes look like det-allow(<rule>): why\nfn f() {}",
            "src/a.rs",
        );
        assert!(l.findings.is_empty(), "{:?}", l.findings);
    }

    #[test]
    fn cfg_test_modules_are_roots() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    use std::time::Instant;\n    \
                   #[test]\n    fn t() { let _ = Instant::now(); let r = DetRng::new(0); }\n}";
        assert!(rules_hit(src, "src/a.rs").is_empty());
    }

    #[test]
    fn cfg_not_test_is_not_exempt() {
        let src = "#[cfg(not(test))]\nfn f() { let t = Instant::now(); }";
        assert_eq!(rules_hit(src, "src/a.rs"), vec!["D01"]);
    }

    #[test]
    fn det_rng_discipline() {
        assert_eq!(
            rules_hit("let r = DetRng::new(7);", "src/a.rs"),
            vec!["D03"]
        );
        assert!(rules_hit("let r = DetRng::for_component(7, \"x\");", "src/a.rs").is_empty());
        assert!(rules_hit("let c = parent.derive(\"child\");", "src/a.rs").is_empty());
        assert!(rules_hit("let r = DetRng::new(7);", "crates/sim/src/rng.rs").is_empty());
    }

    #[test]
    fn threading_discipline() {
        let src = "fn f() { std::thread::spawn(|| {}); }";
        assert_eq!(rules_hit(src, "src/a.rs"), vec!["D04"]);
        assert!(rules_hit(src, "src/lab.rs").is_empty());
        assert_eq!(rules_hit(src, "src/fabric/run.rs"), vec!["D04"]);
        assert!(rules_hit(src, "crates/live/src/lib.rs").is_empty());
        assert_eq!(
            rules_hit("use std::sync::mpsc::channel;", "src/a.rs"),
            vec!["D04"]
        );
    }

    #[test]
    fn float_accumulation_over_hash_iteration() {
        let src = "fn f(m: HashMap<u64, f64>) -> f64 { m.values().sum::<f64>() }";
        let hits = rules_hit(src, "crates/telemetry/src/x.rs");
        assert!(hits.contains(&"D05"), "{hits:?}");
        let src = "fn f(m: HashMap<u64, f64>) {\n let mut total = 0.0;\n \
                   for v in m.values() { total += v; }\n}";
        let hits = rules_hit(src, "crates/telemetry/src/x.rs");
        assert!(hits.contains(&"D05"), "{hits:?}");
        // Sorted collect first: no D05 (and a BTreeMap: no D02 either).
        let src = "fn f(m: BTreeMap<u64, f64>) -> f64 { m.values().sum::<f64>() }";
        assert!(rules_hit(src, "crates/telemetry/src/x.rs").is_empty());
    }

    #[test]
    fn pub_items_names_what_is_declared_unrestricted() {
        let src = "pub const fn a() {} pub const B: u8 = 0; pub(crate) fn c() {} \
                   pub unsafe extern \"C\" fn d() {} pub struct E; pub use f::G; \
                   pub type H = u8; pub mod i {} fn j() {}";
        let lexed = tokenize(src);
        let names: Vec<&str> = pub_items(&lexed.tokens)
            .into_iter()
            .map(|(_, name)| name)
            .collect();
        assert_eq!(names, ["a", "B", "d", "E", "H"]);
    }

    #[test]
    fn unreferenced_pub_is_found_only_with_the_tree_in_hand() {
        let lib = tokenize("pub fn orphan() {}\npub fn used() {}\npub fn told() {}");
        assert!(lint_lexed(&lib, "src/a.rs", None).findings.is_empty());
        let mut tree = Mentions::default();
        tree.add_source(&lib);
        tree.add_source(&tokenize("fn f() { used(); }"));
        tree.add_doc("call `told()` first");
        let found = lint_lexed(&lib, "src/a.rs", Some(&tree)).findings;
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!((found[0].rule, found[0].line), ("D07", 1));
        // Tests and the bench harness declare no library surface.
        for path in ["tests/a.rs", "crates/bench/skybench/src/a.rs"] {
            assert!(lint_lexed(&lib, path, Some(&tree)).findings.is_empty());
        }
    }

    #[test]
    fn strings_and_comments_never_fire() {
        let src = "// HashMap iteration and Instant::now in prose\n\
                   fn f() { let s = \"SystemTime::now HashMap\"; }";
        assert!(rules_hit(src, "src/a.rs").is_empty());
    }
}
