//! Front 2 — the source lints over the workspace's own `.rs` files.
//!
//! Since PR 8 the pass runs on the [`crate::lexer`]/[`crate::ast`] token
//! layer instead of per-line regex-ish scans: string literals, comments,
//! and multi-line expressions can no longer produce false positives,
//! because the lints see tokens (a `Float` literal token, an `Ident`
//! exactly equal to `f64`) rather than substrings. Diagnostics, codes, and
//! the `// postcard-analyze: allow(<code>)` suppression syntax are
//! unchanged.
//!
//! Two families run here:
//!
//! * **PA101–PA105** (this module) — numerics and error-handling hygiene:
//!   float `==`/`!=`, `unwrap`/`expect`/`panic!` in library crates,
//!   `todo!`/`unimplemented!`, missing `#[must_use]` on solver results.
//! * **PA201–PA208** ([`crate::determinism`]) — the determinism &
//!   concurrency family guarding byte-identical sharded solves; wired in
//!   through [`check_source`] / [`check_workspace`] below.

use crate::ast::ParsedFile;
use crate::determinism;
use crate::diag::{Diagnostic, Report};
use crate::lexer::TokKind;
use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// Crates whose non-test code must not unwrap/expect/panic (PA102, PA103).
pub(crate) const NO_PANIC_CRATES: &[&str] = &["lp", "flow", "core", "net", "runtime"];

/// `(crate, type)` pairs that must carry `#[must_use]` (PA105).
const MUST_USE_TYPES: &[(&str, &str)] =
    &[("lp", "Solution"), ("lp", "Status"), ("lp", "RawSolution")];

/// Scans the workspace rooted at `root`: the root package's `src/` plus
/// every `crates/<name>/src/` except the vendored `crates/compat` shims.
/// Test/bench/example directories are not scanned (they may unwrap freely),
/// though the PA208 fixture-coverage check reads `tests/fixtures` metadata.
pub fn check_workspace(root: &Path) -> Report {
    check_workspace_with_stats(root).0
}

/// [`check_workspace`], also returning the number of files scanned (for CI
/// timing lines).
pub fn check_workspace_with_stats(root: &Path) -> (Report, usize) {
    let mut files: Vec<(String, PathBuf)> = Vec::new();
    collect_rs_files(&root.join("src"), &mut |p| files.push(("postcard".to_string(), p)));
    if let Ok(entries) = fs::read_dir(root.join("crates")) {
        let mut dirs: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
        dirs.sort();
        for dir in dirs {
            let Some(name) = dir.file_name().and_then(|n| n.to_str()).map(String::from) else {
                continue;
            };
            if name == "compat" {
                continue;
            }
            collect_rs_files(&dir.join("src"), &mut |p| files.push((name.clone(), p)));
        }
    }
    let mut parsed = Vec::new();
    for (crate_name, path) in &files {
        let Ok(content) = fs::read_to_string(path) else {
            continue;
        };
        let label = path.strip_prefix(root).unwrap_or(path).display().to_string();
        parsed.push(ParsedFile::parse(&label, &content, crate_name));
    }
    let mut report = Report::new();
    for pf in &parsed {
        report.merge(check_parsed(pf));
        report.merge(determinism::check_file(pf));
    }
    report.merge(determinism::check_taint(&parsed));
    report.merge(determinism::check_fixture_coverage(root));
    (report, parsed.len())
}

/// Recursively collects `.rs` files under `dir` in sorted order.
fn collect_rs_files(dir: &Path, sink: &mut impl FnMut(PathBuf)) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            collect_rs_files(&p, sink);
        } else if p.extension().and_then(|e| e.to_str()) == Some("rs") {
            sink(p);
        }
    }
}

/// Lints one source file with both the PA1xx and the per-file PA2xx
/// passes. `label` is used in diagnostics (and selects PA2xx sanctioned
/// files by path); `crate_name` selects which rules apply.
pub fn check_source(label: &str, content: &str, crate_name: &str) -> Report {
    let pf = ParsedFile::parse(label, content, crate_name);
    let mut report = check_parsed(&pf);
    report.merge(determinism::check_file(&pf));
    report.merge(determinism::check_taint(std::slice::from_ref(&pf)));
    report
}

/// The PA101–PA105 pass over one parsed file.
pub(crate) fn check_parsed(pf: &ParsedFile) -> Report {
    let mut report = Report::new();
    let deny_panics = NO_PANIC_CRATES.contains(&pf.crate_name.as_str());
    let n = pf.code_len();
    // Dedupe by (code, line) so several hits on one line report once, as
    // the historical line scanner did.
    let mut seen: BTreeSet<(&str, usize)> = BTreeSet::new();

    for k in 0..n {
        let tok = pf.ct(k);
        let line = tok.line;
        if pf.in_test(line) {
            continue;
        }
        let loc = format!("{}:{line}", pf.label);

        // PA101 — float equality.
        if tok.kind == TokKind::Punct
            && (tok.text == "==" || tok.text == "!=")
            && (operand_has_float_hint(pf, k, Side::Left)
                || operand_has_float_hint(pf, k, Side::Right))
            && !pf.allowed(line, "PA101")
            && seen.insert(("PA101", line))
        {
            report.push(
                Diagnostic::warning(
                    "PA101",
                    loc.clone(),
                    "`==`/`!=` on a floating-point operand".to_string(),
                )
                .with_help(
                    "compare against a tolerance (e.g. (a - b).abs() < TOL), or annotate \
                     `// postcard-analyze: allow(PA101)` where bit-equality is intended",
                ),
            );
        }

        if deny_panics {
            // PA102 — `.unwrap()` / `.expect(…)`.
            let is_unwrap = k >= 1
                && tok.is_ident("unwrap")
                && pf.ct(k - 1).is_punct(".")
                && k + 2 < n
                && pf.ct(k + 1).is_punct("(")
                && pf.ct(k + 2).is_punct(")");
            let is_expect = k >= 1
                && tok.is_ident("expect")
                && pf.ct(k - 1).is_punct(".")
                && k + 1 < n
                && pf.ct(k + 1).is_punct("(");
            if (is_unwrap || is_expect)
                && !pf.allowed(line, "PA102")
                && seen.insert(("PA102", line))
            {
                report.push(
                    Diagnostic::error(
                        "PA102",
                        loc.clone(),
                        "`unwrap()`/`expect()` in non-test library code".to_string(),
                    )
                    .with_help("propagate a proper error (LpError/PostcardError) instead"),
                );
            }
            // PA103 — `panic!`.
            if tok.is_ident("panic")
                && k + 1 < n
                && pf.ct(k + 1).is_punct("!")
                && !pf.allowed(line, "PA103")
                && seen.insert(("PA103", line))
            {
                report.push(
                    Diagnostic::error(
                        "PA103",
                        loc.clone(),
                        "`panic!` in non-test library code".to_string(),
                    )
                    .with_help("return an error; panics take down the whole controller"),
                );
            }
        }

        // PA104 — `todo!` / `unimplemented!`, any crate.
        if (tok.is_ident("todo") || tok.is_ident("unimplemented"))
            && k + 1 < n
            && pf.ct(k + 1).is_punct("!")
            && !pf.allowed(line, "PA104")
            && seen.insert(("PA104", line))
        {
            report.push(
                Diagnostic::error(
                    "PA104",
                    loc,
                    "`todo!`/`unimplemented!` left in non-test code".to_string(),
                )
                .with_help("finish the implementation or return a structured error"),
            );
        }
    }

    // PA105 — `#[must_use]` presence on designated solver-result types.
    for &(krate, type_name) in MUST_USE_TYPES {
        if krate != pf.crate_name {
            continue;
        }
        for k in 0..n {
            if !pf.ct(k).is_ident("pub")
                || k + 2 >= n
                || !(pf.ct(k + 1).is_ident("struct") || pf.ct(k + 1).is_ident("enum"))
                || !pf.ct(k + 2).is_ident(type_name)
            {
                continue;
            }
            let line = pf.ct(k).line;
            if pf.in_test(line) {
                continue;
            }
            if !preceding_attrs_contain(pf, k, "must_use") && !pf.allowed(line, "PA105") {
                report.push(
                    Diagnostic::warning(
                        "PA105",
                        format!("{}:{line}", pf.label),
                        format!("solver-result type `{type_name}` is missing `#[must_use]`"),
                    )
                    .with_help("a silently dropped result hides infeasible/unbounded outcomes"),
                );
            }
        }
    }
    report
}

/// Which side of a comparison operator to scan.
enum Side {
    Left,
    Right,
}

/// `true` when the operand on `side` of the comparison at code position
/// `cmp` contains an obvious float hint: a float literal token or an
/// identifier token exactly `f64`/`f32`. The scan walks sibling tokens at
/// the comparison's nesting level, descending into bracketed groups it
/// passes, and stops at expression boundaries (`,` `;` `=` logical ops,
/// unmatched brackets, statement keywords).
fn operand_has_float_hint(pf: &ParsedFile, cmp: usize, side: Side) -> bool {
    let boundary_punct = |t: &str| {
        matches!(
            t,
            ";" | ","
                | "="
                | "=="
                | "!="
                | "&&"
                | "||"
                | "=>"
                | "->"
                | "<"
                | ">"
                | "<="
                | ">="
                | "+="
                | "-="
                | "*="
                | "/="
                | "%="
                | "&="
                | "|="
                | "^="
                | "<<="
                | ">>="
                | "{"
                | "}"
                | "#"
        )
    };
    let boundary_ident =
        |t: &str| matches!(t, "return" | "if" | "else" | "while" | "match" | "in" | "let" | "for");
    let hint = |k: usize| -> bool {
        let t = pf.ct(k);
        t.kind == TokKind::Float || t.is_ident("f64") || t.is_ident("f32")
    };
    match side {
        Side::Left => {
            let mut k = cmp;
            while k > 0 {
                k -= 1;
                let t = pf.ct(k);
                if t.kind == TokKind::Punct {
                    match t.text.as_str() {
                        ")" | "]" => {
                            // An operand sub-group: scan its contents, then
                            // jump over it.
                            let Some(open) = pf.partner[k] else {
                                return false;
                            };
                            if (open..=k).any(hint) {
                                return true;
                            }
                            k = open;
                            continue;
                        }
                        "(" | "[" => return false, // enclosing group edge
                        t if boundary_punct(t) => return false,
                        _ => continue,
                    }
                }
                if t.kind == TokKind::Ident && boundary_ident(&t.text) {
                    return false;
                }
                if hint(k) {
                    return true;
                }
            }
            false
        }
        Side::Right => {
            let mut k = cmp + 1;
            while k < pf.code_len() {
                let t = pf.ct(k);
                if t.kind == TokKind::Punct {
                    match t.text.as_str() {
                        "(" | "[" => {
                            let Some(close) = pf.partner[k] else {
                                return false;
                            };
                            if (k..=close).any(hint) {
                                return true;
                            }
                            k = close + 1;
                            continue;
                        }
                        ")" | "]" => return false, // enclosing group edge
                        t if boundary_punct(t) => return false,
                        _ => {
                            k += 1;
                            continue;
                        }
                    }
                }
                if t.kind == TokKind::Ident && boundary_ident(&t.text) {
                    return false;
                }
                if hint(k) {
                    return true;
                }
                k += 1;
            }
            false
        }
    }
}

/// `true` when the attributes directly preceding the item at code position
/// `k` (walking back over `#[…]` groups) contain the identifier `needle`.
fn preceding_attrs_contain(pf: &ParsedFile, k: usize, needle: &str) -> bool {
    let mut j = k;
    while j > 0 {
        j -= 1;
        let t = pf.ct(j);
        if t.is_punct("]") {
            let Some(open) = pf.partner[j] else {
                return false;
            };
            if (open..j).any(|p| pf.ct(p).is_ident(needle)) {
                return true;
            }
            // Jump over the attr body, then the `#` (and optional `!`).
            j = open;
            if j > 0 && pf.ct(j - 1).is_punct("!") {
                j -= 1;
            }
            if j > 0 && pf.ct(j - 1).is_punct("#") {
                j -= 1;
                continue;
            }
            return false;
        }
        // `pub struct` may also directly follow another modifier of its own
        // item; anything else ends the attribute run.
        return false;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(report: &Report) -> Vec<&'static str> {
        report.iter().map(|d| d.code).collect()
    }

    fn lint(src: &str, krate: &str) -> Report {
        check_source("a.rs", src, krate)
    }

    #[test]
    fn float_equality_flagged_with_literal_or_type_hint() {
        assert_eq!(codes(&lint("fn f(x: f64) -> bool { x == 0.0 }\n", "net")), vec!["PA101"]);
        assert_eq!(codes(&lint("fn f() -> bool { a != b * 2.0 }\n", "net")), vec!["PA101"]);
        assert_eq!(codes(&lint("fn f() -> bool { x as f64 == y }\n", "net")), vec!["PA101"]);
        // Integer comparisons stay silent.
        assert!(lint("fn f(i: usize) -> bool { i == 0 }\n", "net").is_empty());
        // <= / >= are not equality comparisons.
        assert!(lint("fn f() -> bool { a <= 2.0 && b >= 0.5 }\n", "net").is_empty());
    }

    #[test]
    fn float_hint_in_another_argument_is_not_an_operand() {
        assert!(lint("fn f() { assert(x.len() == 2, 3.5); }\n", "net").is_empty());
        assert!(lint("fn f() { if i == 0 { x = 1.0 } }\n", "net").is_empty());
    }

    #[test]
    fn identifiers_embedding_f64_are_not_hints() {
        // `count_f64s` is one identifier, not the type `f64` — the line
        // scanner used to false-positive here.
        assert!(lint("fn f(count_f64s: usize) -> bool { count_f64s == 0 }\n", "net").is_empty());
    }

    #[test]
    fn multiline_comparisons_are_caught() {
        // Operator and hint on different lines — invisible to a per-line
        // scanner, visible to the token layer.
        let report = lint("fn f() -> bool {\n    total ==\n        1.5\n}\n", "net");
        assert_eq!(codes(&report), vec!["PA101"]);
        assert!(report.iter().next().is_some_and(|d| d.location.ends_with(":2")));
    }

    #[test]
    fn strings_and_comments_never_trip_lints() {
        let src = "fn f() -> &'static str {\n    // a == 1.0 and x.unwrap() and panic! in prose\n    \"b == 2.0 .unwrap() panic! todo!\"\n}\n";
        assert!(lint(src, "lp").is_empty());
    }

    #[test]
    fn unwrap_flagged_only_in_library_crates() {
        let src = "fn f() { x.unwrap(); }\n";
        assert_eq!(codes(&lint(src, "lp")), vec!["PA102"]);
        assert!(lint(src, "cli").is_empty());
        // unwrap_or is a different identifier token.
        assert!(lint("fn f() { x.unwrap_or(0); }\n", "lp").is_empty());
        assert_eq!(codes(&lint("fn f() { y.expect(\"boom\"); }\n", "flow")), vec!["PA102"]);
    }

    #[test]
    fn cfg_test_blocks_are_skipped() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() { x.unwrap(); let a = b == 1.0; }\n}\nfn h() { y.expect(\"boom\"); }\n";
        let report = lint(src, "lp");
        assert_eq!(codes(&report), vec!["PA102"]);
        assert!(report.iter().next().is_some_and(|d| d.location.ends_with(":6")));
    }

    #[test]
    fn allow_comments_suppress_same_and_next_line() {
        let src = "fn f() {\n// postcard-analyze: allow(PA101)\nlet a = x == 0.0;\nlet b = y == 0.0; // postcard-analyze: allow(PA101)\nlet c = z == 0.0;\n}\n";
        let report = lint(src, "net");
        assert_eq!(report.len(), 1);
        assert!(report.iter().next().is_some_and(|d| d.location.ends_with(":5")));
    }

    #[test]
    fn allow_file_suppresses_everywhere() {
        let src = "// postcard-analyze: allow-file(PA101)\nfn f() {\nlet a = x == 0.0;\nlet b = y == 1.0;\n}\n";
        assert!(lint(src, "net").is_empty());
    }

    #[test]
    fn panic_todo_unimplemented_flagged() {
        assert_eq!(codes(&lint("fn f() { panic!(\"boom\") }\n", "core")), vec!["PA103"]);
        // debug_assert! is one identifier; it must not trip the panic rule.
        assert!(lint("fn f() { debug_assert!(x > 0); }\n", "core").is_empty());
        assert_eq!(codes(&lint("fn f() { todo!() }\n", "cli")), vec!["PA104"]);
        assert_eq!(codes(&lint("fn f() { unimplemented!() }\n", "sim")), vec!["PA104"]);
    }

    #[test]
    fn must_use_presence_checked() {
        let missing = "/// Docs.\n#[derive(Debug)]\npub struct Solution {\n    x: u8,\n}\n";
        let report = lint(missing, "lp");
        assert_eq!(codes(&report), vec!["PA105"]);
        let present =
            "/// Docs.\n#[must_use]\n#[derive(Debug)]\npub struct Solution {\n    x: u8,\n}\n";
        assert!(lint(present, "lp").is_empty());
        // Other crates' types of the same name are not checked.
        assert!(lint(missing, "net").is_empty());
        // Prefix names must not match (identifier tokens, not substrings).
        assert!(lint("pub struct SolutionMap {}\n", "lp").is_empty());
    }
}
