//! The PA201–PA208 determinism & concurrency lint family.
//!
//! PR 7 made byte-identical determinism load-bearing: sharded solves on a
//! thread pool must reconcile to the exact same bill and snapshot bytes
//! regardless of scheduling. These lints guard that invariant statically
//! over the determinism-critical crates (`lp`, `flow`, `core`, `net`,
//! `runtime`):
//!
//! * **PA201** — `HashMap`/`HashSet` iteration reaching ordered output
//!   (snapshot/serialize/export/merge functions) without a sort.
//! * **PA202** — `Instant::now`/`SystemTime` outside the sanctioned
//!   `Clock` seam (`runtime/src/clock.rs`).
//! * **PA203** — thread spawns outside `shard/pool.rs`, and channel
//!   receives (completion-order merges) anywhere in these crates.
//! * **PA204** — float reductions (`sum`/`product`/`fold`, `+=` loops)
//!   over unordered collections.
//! * **PA205** — lossy `as` casts in billing/ledger arithmetic.
//! * **PA206** — lock guards held across a solve call.
//! * **PA207** — nondeterminism-source taint propagated one call-graph hop
//!   into snapshot-writing functions.
//! * **PA208** — committed snapshot fixtures without a version-probe test.
//!
//! Suppression uses the same `// postcard-analyze: allow(PA2xx)` comments
//! as PA1xx (PA208 anchors to fixture files, not source lines, and is
//! fixed by adding a probe rather than suppressed).

use crate::ast::ParsedFile;
use crate::callgraph::{callees, CallGraph};
use crate::diag::{Diagnostic, Report};
use crate::lexer::TokKind;
use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

/// Crates where nondeterminism can reach bills, snapshots, or admission
/// decisions — the PA2xx family applies here (same set as PA102/PA103).
const DETERMINISM_CRATES: &[&str] = &["lp", "flow", "core", "net", "runtime"];

/// Unordered-iteration adaptor methods on `HashMap`/`HashSet`.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Methods that impose an order downstream of an unordered source.
const SORT_METHODS: &[&str] = &[
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "sorted",
    "sorted_by",
];

/// Ordered collection types: collecting into one re-orders the stream.
const ORDERED_SINK_TYPES: &[&str] = &["BTreeMap", "BTreeSet", "BinaryHeap"];

/// Terminal operations whose result is independent of iteration order.
const ORDER_FREE_TERMINALS: &[&str] = &[
    "count",
    "any",
    "all",
    "max",
    "min",
    "max_by",
    "min_by",
    "max_by_key",
    "min_by_key",
    "contains",
    "is_empty",
    "len",
];

/// Order-sensitive float reductions (PA204).
const REDUCERS: &[&str] = &["sum", "product", "fold"];

/// Function-name fragments that mark a function as producing ordered
/// output (snapshot serialization, ledger/reconcile merges, metrics
/// export).
const OUTPUT_NAME_HINTS: &[&str] = &[
    "snapshot",
    "serialize",
    "render",
    "export",
    "write",
    "save",
    "checkpoint",
    "manifest",
    "persist",
    "to_json",
    "to_csv",
    "reconcile",
    "merge",
    "bill",
    "encode",
];

/// Identifiers inside a body that mark it as writing ordered output.
const OUTPUT_BODY_HINTS: &[&str] =
    &["write", "writeln", "push_str", "serialize", "to_json", "to_writer"];

/// Function-name fragments marking snapshot-writing sinks for PA207.
const SINK_NAME_HINTS: &[&str] = &["snapshot", "checkpoint", "manifest", "persist", "save"];

/// Functions whose invocation means "a solve is running" (PA206).
const SOLVE_CALLS: &[&str] = &[
    "solve",
    "solve_warm",
    "solve_cold",
    "schedule",
    "step",
    "run_slot",
    "admit",
    "admit_batch",
    "solve_shard",
    "solve_parallel",
];

/// `true` when `label` is the sanctioned clock seam (PA202).
fn is_clock_file(label: &str) -> bool {
    label.ends_with("clock.rs")
}

/// `true` when `label` is the sanctioned thread-pool file (PA203).
fn is_pool_file(label: &str) -> bool {
    label.ends_with("pool.rs")
}

/// `true` when `label` names a billing/ledger file (PA205 scope).
fn is_billing_file(label: &str) -> bool {
    let stem = label.rsplit(['/', '\\']).next().unwrap_or(label);
    stem.contains("ledger") || stem.contains("charging") || stem.contains("bill")
}

/// Runs the per-file lints PA201–PA206 on one parsed file.
pub fn check_file(pf: &ParsedFile) -> Report {
    let mut report = Report::new();
    if !DETERMINISM_CRATES.contains(&pf.crate_name.as_str()) {
        return report;
    }
    let mut seen: BTreeSet<(&str, usize)> = BTreeSet::new();
    let unordered = unordered_names(pf);
    check_unordered_iteration(pf, &unordered, &mut report, &mut seen);
    check_wall_time(pf, &mut report, &mut seen);
    check_threads_and_channels(pf, &mut report, &mut seen);
    if is_billing_file(&pf.label) {
        check_lossy_casts(pf, &mut report, &mut seen);
    }
    check_locks_across_solves(pf, &mut report, &mut seen);
    report
}

/// PA207 — cross-file taint: a snapshot-writing function calls (one hop) a
/// function that reads a nondeterminism source.
pub fn check_taint(files: &[ParsedFile]) -> Report {
    let mut report = Report::new();
    let graph = CallGraph::build(files);
    // Which functions are tainted, and by what.
    let mut tainted: Vec<Option<String>> = vec![None; graph.fns.len()];
    for (node, &(fi, gi)) in graph.fns.iter().enumerate() {
        let pf = &files[fi];
        if !DETERMINISM_CRATES.contains(&pf.crate_name.as_str()) {
            continue;
        }
        let f = &pf.fns[gi];
        if f.is_test {
            continue;
        }
        tainted[node] = taint_source_in(pf, f);
    }
    for &(fi, gi) in &graph.fns {
        let pf = &files[fi];
        if !DETERMINISM_CRATES.contains(&pf.crate_name.as_str()) {
            continue;
        }
        let f = &pf.fns[gi];
        let lname = f.name.to_lowercase();
        if f.is_test || !SINK_NAME_HINTS.iter().any(|h| lname.contains(h)) {
            continue;
        }
        let mut reported: BTreeSet<String> = BTreeSet::new();
        for site in callees(pf, f) {
            if site.callee == f.name || !reported.insert(site.callee.clone()) {
                continue;
            }
            let Some(source) =
                graph.resolve(&site.callee).iter().find_map(|&node| tainted[node].clone())
            else {
                continue;
            };
            if pf.allowed(site.line, "PA207") {
                continue;
            }
            report.push(
                Diagnostic::warning(
                    "PA207",
                    format!("{}:{}", pf.label, site.line),
                    format!(
                        "snapshot-writing function `{}` calls `{}`, which reads a \
                         nondeterminism source ({source})",
                        f.name, site.callee
                    ),
                )
                .with_help(
                    "hoist the nondeterministic read out of the snapshot path, or make the \
                     callee deterministic; snapshot bytes must not depend on timing or hash \
                     order",
                ),
            );
        }
    }
    report
}

/// Returns a description of the first nondeterminism source in `f`'s body,
/// if any.
fn taint_source_in(pf: &ParsedFile, f: &crate::ast::FnInfo) -> Option<String> {
    let (start, end) = f.body?;
    let unordered = unordered_names(pf);
    for k in start..end {
        let t = pf.ct(k);
        if pf.in_test(t.line) {
            continue;
        }
        if !is_clock_file(&pf.label)
            && ((t.is_ident("Instant")
                && k + 2 < end
                && pf.ct(k + 1).is_punct("::")
                && pf.ct(k + 2).is_ident("now"))
                || t.is_ident("SystemTime"))
        {
            return Some(format!("wall-clock time at {}:{}", pf.label, t.line));
        }
        if !is_pool_file(&pf.label) && is_spawn_or_recv(pf, k, end).is_some() {
            return Some(format!("thread scheduling at {}:{}", pf.label, t.line));
        }
        if let Some(site) = iteration_site(pf, k, &unordered) {
            if !site.sanctioned {
                return Some(format!("unordered iteration at {}:{}", pf.label, t.line));
            }
        }
    }
    None
}

/// PA208 — every committed snapshot fixture version must have a
/// version-probe test referencing it.
pub fn check_fixture_coverage(root: &Path) -> Report {
    let mut report = Report::new();
    let fixtures = root.join("tests").join("fixtures");
    let Ok(entries) = fs::read_dir(&fixtures) else {
        return report;
    };
    let mut versions: Vec<(u32, String)> = Vec::new();
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if let Some(rest) = name.strip_prefix("snapshot_v") {
            let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
            if let Ok(v) = digits.parse::<u32>() {
                versions.push((v, name));
            }
        }
    }
    versions.sort();
    if versions.is_empty() {
        return report;
    }
    let mut probes = String::new();
    if let Ok(entries) = fs::read_dir(root.join("tests")) {
        let mut paths: Vec<_> = entries.flatten().map(|e| e.path()).collect();
        paths.sort();
        for p in paths {
            if p.extension().and_then(|e| e.to_str()) == Some("rs") {
                if let Ok(content) = fs::read_to_string(&p) {
                    probes.push_str(&content);
                }
            }
        }
    }
    for (v, name) in versions {
        if !probes.contains(&format!("snapshot_v{v}")) {
            report.push(
                Diagnostic::error(
                    "PA208",
                    format!("tests/fixtures/{name}"),
                    format!("committed snapshot fixture version {v} has no version-probe test"),
                )
                .with_help(
                    "add a test under tests/ that loads the fixture and asserts the \
                     unsupported-version rejection (or round-trip); every committed format \
                     must stay covered",
                ),
            );
        }
    }
    report
}

// ---------------------------------------------------------------------------
// PA201 / PA204 — unordered collections.

/// An unordered-iteration site and what its downstream chain looks like.
struct IterationSite {
    /// 1-based line of the iteration.
    line: usize,
    /// The chain imposes an order (sort / ordered collect) or is
    /// order-insensitive (count/max/…).
    sanctioned: bool,
    /// The chain reduces floats order-sensitively (`sum`/`fold`/…).
    float_reduction: bool,
}

/// Names bound to `HashMap`/`HashSet` values in this file: local `let`s,
/// struct fields, and fn parameters. No scoping — a name is unordered
/// file-wide (documented blind spot; collisions over-approximate).
fn unordered_names(pf: &ParsedFile) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for k in 0..pf.code_len() {
        let t = pf.ct(k);
        if !(t.is_ident("HashMap") || t.is_ident("HashSet")) {
            continue;
        }
        let s = statement_start(pf, k);
        if let Some(binder) = binder_of_statement(pf, s) {
            names.insert(binder);
        }
    }
    names
}

/// Walks back from code position `k` to the start of its statement
/// (position after the previous `;`/`,`, or after an enclosing opening
/// bracket). Jumps over complete bracket groups.
fn statement_start(pf: &ParsedFile, k: usize) -> usize {
    let mut j = k;
    while j > 0 {
        let t = pf.ct(j - 1);
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                ";" | "," => return j,
                ")" | "]" | "}" => match pf.partner[j - 1] {
                    Some(open) => {
                        j = open;
                        continue;
                    }
                    None => return j,
                },
                "{" | "(" | "[" => {
                    // An opening bracket we did not jump into from its
                    // partner: it encloses `k`.
                    return j;
                }
                _ => {}
            }
        }
        j -= 1;
    }
    0
}

/// The name a statement starting at code position `s` binds: `let [mut] N`
/// / `[pub] N:` / `N =`. `None` when the statement has no simple binder.
fn binder_of_statement(pf: &ParsedFile, s: usize) -> Option<String> {
    let mut i = s;
    while i < pf.code_len()
        && (pf.ct(i).is_ident("pub") || pf.ct(i).is_ident("let") || pf.ct(i).is_ident("mut"))
    {
        i += 1;
    }
    if i + 1 >= pf.code_len() || pf.ct(i).kind != TokKind::Ident {
        return None;
    }
    let next = pf.ct(i + 1);
    if next.is_punct(":") || next.is_punct("=") {
        Some(pf.ct(i).text.clone())
    } else {
        None
    }
}

/// If code position `k` begins an unordered-iteration site (an
/// [`ITER_METHODS`] call on a known unordered receiver, or a `for … in`
/// over one), classifies its downstream chain.
fn iteration_site(
    pf: &ParsedFile,
    k: usize,
    unordered: &BTreeSet<String>,
) -> Option<IterationSite> {
    let t = pf.ct(k);
    let n = pf.code_len();
    // Method form: `recv.iter()`-style.
    if t.kind == TokKind::Ident
        && ITER_METHODS.contains(&t.text.as_str())
        && k >= 2
        && pf.ct(k - 1).is_punct(".")
        && k + 1 < n
        && pf.ct(k + 1).is_punct("(")
        && pf.ct(k - 2).kind == TokKind::Ident
        && unordered.contains(&pf.ct(k - 2).text)
    {
        let (sanctioned, float_reduction) = classify_chain(pf, k, unordered);
        return Some(IterationSite { line: t.line, sanctioned, float_reduction });
    }
    // Loop form: `for pat in expr {`.
    if t.is_ident("for") {
        let base = pf.depth[k];
        let mut j = k + 1;
        let mut in_pos = None;
        while j < n && pf.depth[j] >= base {
            if pf.depth[j] == base && pf.ct(j).is_ident("in") {
                in_pos = Some(j);
                break;
            }
            if pf.depth[j] == base && pf.ct(j).is_punct("{") {
                break;
            }
            j += 1;
        }
        let in_pos = in_pos?;
        let mut body_open = None;
        let mut expr_unordered = false;
        let mut expr_sorted = false;
        let mut j = in_pos + 1;
        while j < n {
            if pf.depth[j] == base && pf.ct(j).is_punct("{") {
                body_open = Some(j);
                break;
            }
            let e = pf.ct(j);
            if e.kind == TokKind::Ident && unordered.contains(&e.text) {
                expr_unordered = true;
            }
            if e.kind == TokKind::Ident && SORT_METHODS.contains(&e.text.as_str()) {
                expr_sorted = true;
            }
            j += 1;
        }
        if !expr_unordered {
            return None;
        }
        let body_open = body_open?;
        let body_close = pf.partner[body_open]?;
        // Float accumulation inside the body → PA204.
        let mut float_reduction = false;
        let mut has_acc = false;
        let mut has_float = false;
        for b in body_open + 1..body_close {
            let bt = pf.ct(b);
            if bt.is_punct("+=") || bt.is_punct("*=") || bt.is_punct("-=") {
                has_acc = true;
            }
            if bt.kind == TokKind::Float || bt.is_ident("f64") || bt.is_ident("f32") {
                has_float = true;
            }
        }
        if has_acc && has_float {
            float_reduction = true;
        }
        return Some(IterationSite { line: t.line, sanctioned: expr_sorted, float_reduction });
    }
    None
}

/// Classifies the method chain downstream of an iteration at `k`:
/// `(sanctioned, float_reduction)`.
fn classify_chain(pf: &ParsedFile, k: usize, _unordered: &BTreeSet<String>) -> (bool, bool) {
    let n = pf.code_len();
    let base = pf.depth[k];
    let mut idents: Vec<String> = Vec::new();
    let mut has_float_hint = false;
    let mut has_collect = false;
    let mut j = k;
    while j < n {
        let t = pf.ct(j);
        if pf.depth[j] < base {
            break;
        }
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                ";" => break,
                "," if pf.depth[j] == base => break,
                "(" | "[" => {
                    // Closure args / index expressions are part of the
                    // chain for hint purposes.
                    if let Some(close) = pf.partner[j] {
                        for p in j + 1..close {
                            let it = pf.ct(p);
                            if it.kind == TokKind::Float || it.is_ident("f64") || it.is_ident("f32")
                            {
                                has_float_hint = true;
                            }
                            if it.kind == TokKind::Ident {
                                idents.push(it.text.clone());
                            }
                        }
                        j = close + 1;
                        continue;
                    }
                    break;
                }
                ")" | "]" | "}" => break,
                _ => {}
            }
        }
        if t.kind == TokKind::Float || t.is_ident("f64") || t.is_ident("f32") {
            has_float_hint = true;
        }
        if t.kind == TokKind::Ident {
            if t.text == "collect" {
                has_collect = true;
            }
            idents.push(t.text.clone());
        }
        j += 1;
    }
    let chain_end = j;
    let mut sanctioned = idents.iter().any(|i| {
        SORT_METHODS.contains(&i.as_str())
            || ORDERED_SINK_TYPES.contains(&i.as_str())
            || ORDER_FREE_TERMINALS.contains(&i.as_str())
    });
    let float_reduction = idents.iter().any(|i| REDUCERS.contains(&i.as_str())) && has_float_hint;
    // `let v = …collect::<Vec<_>>()` followed by a later `v.sort…()` in the
    // same function is sanctioned.
    if !sanctioned && has_collect {
        let s = statement_start(pf, k);
        if let Some(binder) = binder_of_statement(pf, s) {
            if let Some(f) = pf.enclosing_fn(k) {
                if let Some((_, body_end)) = f.body {
                    let mut p = chain_end;
                    while p + 2 < body_end {
                        if pf.ct(p).is_ident(&binder)
                            && pf.ct(p + 1).is_punct(".")
                            && SORT_METHODS.contains(&pf.ct(p + 2).text.as_str())
                        {
                            sanctioned = true;
                            break;
                        }
                        p += 1;
                    }
                }
            }
        }
    }
    (sanctioned, float_reduction)
}

/// `true` when function `f` produces ordered output (name hint or body
/// writes).
fn is_output_fn(pf: &ParsedFile, f: &crate::ast::FnInfo) -> bool {
    let lname = f.name.to_lowercase();
    if OUTPUT_NAME_HINTS.iter().any(|h| lname.contains(h)) {
        return true;
    }
    let Some((start, end)) = f.body else {
        return false;
    };
    (start..end).any(|k| {
        let t = pf.ct(k);
        t.kind == TokKind::Ident && OUTPUT_BODY_HINTS.contains(&t.text.as_str())
    })
}

/// PA201 + PA204 over one file.
fn check_unordered_iteration(
    pf: &ParsedFile,
    unordered: &BTreeSet<String>,
    report: &mut Report,
    seen: &mut BTreeSet<(&'static str, usize)>,
) {
    if unordered.is_empty() {
        return;
    }
    for k in 0..pf.code_len() {
        if pf.in_test(pf.ct(k).line) {
            continue;
        }
        let Some(site) = iteration_site(pf, k, unordered) else {
            continue;
        };
        let loc = format!("{}:{}", pf.label, site.line);
        if site.float_reduction
            && !pf.allowed(site.line, "PA204")
            && seen.insert(("PA204", site.line))
        {
            report.push(
                Diagnostic::error(
                    "PA204",
                    loc.clone(),
                    "float reduction over an unordered collection".to_string(),
                )
                .with_help(
                    "float addition is not associative: summing HashMap/HashSet values in \
                     hash order changes low bits run-to-run; sort first or use an ordered \
                     collection (BTreeMap)",
                ),
            );
            continue;
        }
        let in_output_fn = pf.enclosing_fn(k).is_some_and(|f| is_output_fn(pf, f));
        if !site.sanctioned
            && in_output_fn
            && !pf.allowed(site.line, "PA201")
            && seen.insert(("PA201", site.line))
        {
            report.push(
                Diagnostic::error(
                    "PA201",
                    loc,
                    "unordered HashMap/HashSet iteration reaches ordered output without a sort"
                        .to_string(),
                )
                .with_help(
                    "snapshot/export bytes must not depend on hash order: iterate a BTreeMap, \
                     or collect and sort before writing",
                ),
            );
        }
    }
}

/// PA202 over one file.
fn check_wall_time(
    pf: &ParsedFile,
    report: &mut Report,
    seen: &mut BTreeSet<(&'static str, usize)>,
) {
    if is_clock_file(&pf.label) {
        return;
    }
    let n = pf.code_len();
    for k in 0..n {
        let t = pf.ct(k);
        if pf.in_test(t.line) {
            continue;
        }
        let is_instant_now = t.is_ident("Instant")
            && k + 2 < n
            && pf.ct(k + 1).is_punct("::")
            && pf.ct(k + 2).is_ident("now");
        let is_system_time = t.is_ident("SystemTime");
        if (is_instant_now || is_system_time)
            && !pf.allowed(t.line, "PA202")
            && seen.insert(("PA202", t.line))
        {
            report.push(
                Diagnostic::error(
                    "PA202",
                    format!("{}:{}", pf.label, t.line),
                    "wall-clock read outside the sanctioned Clock abstraction".to_string(),
                )
                .with_help(
                    "route time through runtime's clock seam (Clock / WallStopwatch in \
                     clock.rs): determinism-critical paths must not observe real time \
                     directly",
                ),
            );
        }
    }
}

/// PA203 over one file.
fn check_threads_and_channels(
    pf: &ParsedFile,
    report: &mut Report,
    seen: &mut BTreeSet<(&'static str, usize)>,
) {
    if is_pool_file(&pf.label) {
        return;
    }
    let n = pf.code_len();
    for k in 0..n {
        let t = pf.ct(k);
        if pf.in_test(t.line) {
            continue;
        }
        let Some(what) = is_spawn_or_recv(pf, k, n) else {
            continue;
        };
        if pf.allowed(t.line, "PA203") || !seen.insert(("PA203", t.line)) {
            continue;
        }
        let (message, help) = match what {
            ThreadUse::Spawn => (
                "thread spawn outside shard/pool.rs",
                "shard/pool.rs is the one sanctioned parallelism site (results merged in \
                 fixed shard-index order); ad-hoc threads make scheduling observable",
            ),
            ThreadUse::Recv => (
                "channel receive merges results in completion order",
                "receiving in arrival order makes the merge depend on thread scheduling; \
                 join handles (or index results) in fixed shard order instead",
            ),
        };
        report.push(
            Diagnostic::error("PA203", format!("{}:{}", pf.label, t.line), message.to_string())
                .with_help(help),
        );
    }
}

/// What kind of scheduling-sensitive construct sits at `k`, if any.
enum ThreadUse {
    Spawn,
    Recv,
}

fn is_spawn_or_recv(pf: &ParsedFile, k: usize, end: usize) -> Option<ThreadUse> {
    let t = pf.ct(k);
    if t.is_ident("thread")
        && k + 2 < end
        && pf.ct(k + 1).is_punct("::")
        && (pf.ct(k + 2).is_ident("spawn")
            || pf.ct(k + 2).is_ident("scope")
            || pf.ct(k + 2).is_ident("Builder"))
    {
        return Some(ThreadUse::Spawn);
    }
    if t.is_ident("spawn") && k >= 1 && pf.ct(k - 1).is_punct(".") {
        return Some(ThreadUse::Spawn);
    }
    if (t.is_ident("recv") || t.is_ident("try_recv") || t.is_ident("recv_timeout"))
        && k >= 1
        && pf.ct(k - 1).is_punct(".")
        && k + 1 < end
        && pf.ct(k + 1).is_punct("(")
    {
        return Some(ThreadUse::Recv);
    }
    None
}

/// PA205 over one billing/ledger file.
fn check_lossy_casts(
    pf: &ParsedFile,
    report: &mut Report,
    seen: &mut BTreeSet<(&'static str, usize)>,
) {
    const NARROW: &[&str] = &["f32", "i8", "u8", "i16", "u16", "i32", "u32"];
    const WIDE_INT: &[&str] = &["usize", "u64", "i64", "isize", "u128", "i128"];
    const FLOAT_PRODUCERS: &[&str] = &["ceil", "floor", "round", "trunc", "f64", "f32"];
    let n = pf.code_len();
    for k in 0..n {
        let t = pf.ct(k);
        if !t.is_ident("as") || k + 1 >= n || pf.ct(k + 1).kind != TokKind::Ident {
            continue;
        }
        if pf.in_test(t.line) {
            continue;
        }
        let target = pf.ct(k + 1).text.as_str();
        let lossy = if NARROW.contains(&target) {
            true
        } else if WIDE_INT.contains(&target) {
            // Float → integer truncates (and saturates on NaN/∞): only
            // lossy when the operand is visibly floating-point.
            let mut j = k;
            let mut found = false;
            while j > 0 {
                j -= 1;
                let p = pf.ct(j);
                if p.kind == TokKind::Punct {
                    match p.text.as_str() {
                        ")" | "]" => {
                            if let Some(open) = pf.partner[j] {
                                if (open..=j).any(|q| {
                                    let it = pf.ct(q);
                                    it.kind == TokKind::Float
                                        || (it.kind == TokKind::Ident
                                            && FLOAT_PRODUCERS.contains(&it.text.as_str()))
                                }) {
                                    found = true;
                                    break;
                                }
                                j = open;
                                continue;
                            }
                            break;
                        }
                        "(" | "[" | "{" | "}" | ";" | "," | "=" | "==" | "&&" | "||" => break,
                        _ => continue,
                    }
                }
                if p.kind == TokKind::Float
                    || (p.kind == TokKind::Ident && FLOAT_PRODUCERS.contains(&p.text.as_str()))
                {
                    found = true;
                    break;
                }
                if p.kind == TokKind::Ident
                    && matches!(p.text.as_str(), "let" | "return" | "if" | "while" | "match")
                {
                    break;
                }
            }
            found
        } else {
            false
        };
        if lossy && !pf.allowed(t.line, "PA205") && seen.insert(("PA205", t.line)) {
            report.push(
                Diagnostic::warning(
                    "PA205",
                    format!("{}:{}", pf.label, t.line),
                    format!("lossy `as {target}` cast in billing/ledger arithmetic"),
                )
                .with_help(
                    "billing math must not silently truncate or saturate: widen the type, \
                     use a checked conversion, or `allow` with a written bound argument",
                ),
            );
        }
    }
}

/// PA206 over one file: a `let`-bound lock guard alive across a solve call.
fn check_locks_across_solves(
    pf: &ParsedFile,
    report: &mut Report,
    seen: &mut BTreeSet<(&'static str, usize)>,
) {
    for f in &pf.fns {
        if f.is_test {
            continue;
        }
        let Some((start, end)) = f.body else {
            continue;
        };
        for k in start..end {
            let t = pf.ct(k);
            // `… .lock()` / `.read()` / `.write()` with empty parens.
            let is_guard_call = (t.is_ident("lock") || t.is_ident("read") || t.is_ident("write"))
                && k >= 1
                && pf.ct(k - 1).is_punct(".")
                && k + 2 < end
                && pf.ct(k + 1).is_punct("(")
                && pf.ct(k + 2).is_punct(")");
            if !is_guard_call {
                continue;
            }
            let s = statement_start(pf, k);
            // Only a let-bound guard outlives its statement.
            if !pf.ct(s).is_ident("let") {
                continue;
            }
            let Some(guard) = binder_of_statement(pf, s) else {
                continue;
            };
            // Find the end of the lock statement, then scan the rest of the
            // body for a solve call before `drop(guard)`.
            let mut j = k;
            while j < end && !pf.ct(j).is_punct(";") {
                j += 1;
            }
            let mut dropped = false;
            while j < end {
                let u = pf.ct(j);
                if u.is_ident("drop")
                    && j + 2 < end
                    && pf.ct(j + 1).is_punct("(")
                    && pf.ct(j + 2).is_ident(&guard)
                {
                    dropped = true;
                    break;
                }
                if u.kind == TokKind::Ident
                    && SOLVE_CALLS.contains(&u.text.as_str())
                    && j + 1 < end
                    && pf.ct(j + 1).is_punct("(")
                {
                    if !pf.allowed(u.line, "PA206") && seen.insert(("PA206", u.line)) {
                        report.push(
                            Diagnostic::warning(
                                "PA206",
                                format!("{}:{}", pf.label, u.line),
                                format!(
                                    "lock guard `{guard}` is held across a solve call \
                                     (`{}`)",
                                    u.text
                                ),
                            )
                            .with_help(
                                "a solve can run for the whole slot budget; holding a lock \
                                 across it serializes shards and risks deadlock — drop the \
                                 guard first",
                            ),
                        );
                    }
                    break;
                }
                j += 1;
            }
            let _ = dropped;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(label: &str, src: &str, krate: &str) -> Report {
        let pf = ParsedFile::parse(label, src, krate);
        let mut r = check_file(&pf);
        r.merge(check_taint(std::slice::from_ref(&pf)));
        r
    }

    fn codes(r: &Report) -> Vec<&'static str> {
        r.iter().map(|d| d.code).collect()
    }

    #[test]
    fn pa201_unordered_iteration_in_output_fn() {
        let src = "use std::collections::HashMap;\n\
                   fn export_metrics(m: &HashMap<String, u64>) -> String {\n\
                       let mut out = String::new();\n\
                       for (k, v) in m.iter() {\n\
                           out.push_str(k);\n\
                       }\n\
                       out\n\
                   }\n";
        // `m.iter()` inside the for-expr is the method-form site.
        assert!(codes(&lint("src/metrics.rs", src, "runtime")).contains(&"PA201"));
        // A sort in the chain sanctions it.
        let sorted = "use std::collections::HashMap;\n\
                      fn export_metrics(m: &HashMap<String, u64>) -> String {\n\
                          let mut keys: Vec<_> = m.keys().collect();\n\
                          keys.sort();\n\
                          String::new()\n\
                      }\n";
        assert!(lint("src/metrics.rs", sorted, "runtime").is_empty());
        // Same iteration in a non-output function stays silent (PA201's
        // scope is ordered output; PA207 covers the call-graph hop).
        let compute = "use std::collections::HashMap;\n\
                       fn lookup(m: &HashMap<u32, u32>) -> usize {\n\
                           m.iter().count()\n\
                       }\n";
        assert!(lint("src/lib.rs", compute, "runtime").is_empty());
    }

    #[test]
    fn pa202_wall_time_outside_clock() {
        let src = "fn f() { let t = Instant::now(); }\n";
        assert_eq!(codes(&lint("src/runtime.rs", src, "runtime")), vec!["PA202"]);
        // Sanctioned in clock.rs.
        assert!(lint("crates/runtime/src/clock.rs", src, "runtime").is_empty());
        // Not a determinism crate → silent.
        assert!(lint("src/main.rs", src, "bench").is_empty());
        // SystemTime anywhere.
        let st = "fn f() { let t = SystemTime::now(); }\n";
        assert_eq!(codes(&lint("src/x.rs", st, "net")), vec!["PA202"]);
    }

    #[test]
    fn pa203_threads_and_channels() {
        let spawn = "fn f() { std::thread::spawn(|| {}); }\n";
        assert_eq!(codes(&lint("src/x.rs", spawn, "runtime")), vec!["PA203"]);
        assert!(lint("crates/runtime/src/shard/pool.rs", spawn, "runtime").is_empty());
        let recv = "fn merge_results(rx: Receiver<u8>) { while let Ok(r) = rx.recv() { } }\n";
        assert_eq!(codes(&lint("src/x.rs", recv, "runtime")), vec!["PA203"]);
    }

    #[test]
    fn pa204_float_reduction_over_unordered() {
        let src = "use std::collections::HashMap;\n\
                   fn total(m: &HashMap<u32, f64>) -> f64 {\n\
                       m.values().sum::<f64>()\n\
                   }\n";
        assert_eq!(codes(&lint("src/x.rs", src, "net")), vec!["PA204"]);
        // Vec iteration is ordered: no finding.
        let vec_src = "fn total(v: &Vec<f64>) -> f64 { v.iter().sum::<f64>() }\n";
        assert!(lint("src/x.rs", vec_src, "net").is_empty());
    }

    #[test]
    fn pa205_lossy_casts_in_billing_files() {
        let src =
            "fn rank(q: f64, n: usize) -> usize { ((q / 100.0) * n as f64).ceil() as usize }\n";
        assert_eq!(codes(&lint("src/charging.rs", src, "net")), vec!["PA205"]);
        // Same file name matters: non-billing files are out of scope.
        assert!(lint("src/paths.rs", src, "net").is_empty());
        // Integer widening is not lossy.
        let ok = "fn len_u64(v: &[u8]) -> u64 { v.len() as u64 }\n";
        assert!(lint("src/ledger.rs", ok, "net").is_empty());
        // Narrowing targets always flag.
        let narrow = "fn squeeze(x: u64) -> u32 { x as u32 }\n";
        assert_eq!(codes(&lint("src/ledger.rs", narrow, "net")), vec!["PA205"]);
    }

    #[test]
    fn pa206_lock_across_solve() {
        let src = "fn run(m: &Mutex<u8>) {\n\
                       let guard = m.lock();\n\
                       solve(x);\n\
                   }\n";
        assert_eq!(codes(&lint("src/x.rs", src, "runtime")), vec!["PA206"]);
        let dropped = "fn run(m: &Mutex<u8>) {\n\
                           let guard = m.lock();\n\
                           drop(guard);\n\
                           solve(x);\n\
                       }\n";
        assert!(lint("src/x.rs", dropped, "runtime").is_empty());
        // A temporary guard does not outlive its statement.
        let temp = "fn run(m: &Mutex<u8>) {\n\
                        m.lock();\n\
                        solve(x);\n\
                    }\n";
        assert!(lint("src/x.rs", temp, "runtime").is_empty());
    }

    #[test]
    fn pa207_taint_one_hop_into_snapshot_writer() {
        let src = "fn stamp() -> u64 { Instant::now(); 0 }\n\
                   fn write_snapshot(out: &mut String) {\n\
                       let t = stamp();\n\
                   }\n";
        let r = lint("src/x.rs", src, "runtime");
        // The source itself is PA202; the hop into the writer is PA207.
        assert!(codes(&r).contains(&"PA202"));
        assert!(codes(&r).contains(&"PA207"));
    }

    #[test]
    fn pa208_uncovered_fixture_version() {
        let dir = std::env::temp_dir().join(format!("pa208_test_{}", std::process::id()));
        let fixtures = dir.join("tests").join("fixtures");
        std::fs::create_dir_all(&fixtures).unwrap();
        std::fs::write(fixtures.join("snapshot_v3.json"), "{}").unwrap();
        std::fs::write(fixtures.join("snapshot_v4.json"), "{}").unwrap();
        std::fs::write(
            dir.join("tests").join("probe.rs"),
            "// loads snapshot_v3 only\nconst P: &str = \"snapshot_v3.json\";\n",
        )
        .unwrap();
        let r = check_fixture_coverage(&dir);
        assert_eq!(codes(&r), vec!["PA208"]);
        assert!(r.iter().next().unwrap().location.contains("snapshot_v4"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn suppressions_silence_pa2xx() {
        let src = "fn f() {\n\
                       // postcard-analyze: allow(PA202) — metrics only\n\
                       let t = Instant::now();\n\
                   }\n";
        assert!(lint("src/x.rs", src, "runtime").is_empty());
    }
}
