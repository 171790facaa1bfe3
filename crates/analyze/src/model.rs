//! Front 1 — structural static analysis of Postcard LP models and
//! time-expanded graphs, *without solving*.
//!
//! The paper's tractability rests on structural properties (Eq. 8–10): no
//! arc variable outside a file's deadline window, storage arcs only between
//! consecutive layers of the same datacenter, and exactly one holdover arc
//! per datacenter per slot so conservation can telescope. These passes
//! verify those properties — plus generic LP hygiene (duplicate/dependent
//! rows, free columns, empty rows/columns, coefficient conditioning) —
//! and report violations with stable `PA0xx` codes (see `LINTS.md`).

use crate::diag::{Diagnostic, Report};
use postcard_core::PostcardProblem;
use postcard_lp::{Model, Relation, Sense};
use postcard_net::{ArcKind, TimeExpandedGraph};

/// Coefficient-magnitude ratio above which PA009 warns.
pub const CONDITIONING_RATIO_LIMIT: f64 = 1e8;

/// Relative tolerance used when testing rows for proportionality (PA005).
const PROPORTIONALITY_TOL: f64 = 1e-9;

/// Checks a time-expanded graph for structural defects (PA002, PA003).
pub fn check_graph(graph: &TimeExpandedGraph) -> Report {
    let mut report = Report::new();
    let first = graph.first_slot();
    let last = graph.last_slot();

    for (id, arc) in graph.arcs() {
        let loc = format!("arc #{} ({}->{}@{})", id.index(), arc.from.0, arc.to.0, arc.slot);
        if arc.slot < first || arc.slot > last {
            report.push(
                Diagnostic::error(
                    "PA002",
                    loc.clone(),
                    format!(
                        "arc slot {} lies outside the expansion window [{first}, {last}] — it \
                         skips layers of the time expansion",
                        arc.slot
                    ),
                )
                .with_help("every arc must connect two consecutive in-window layers"),
            );
        }
        if arc.kind == ArcKind::Storage && arc.from != arc.to {
            report.push(
                Diagnostic::error(
                    "PA002",
                    loc,
                    format!(
                        "storage arc changes datacenter ({} -> {}); holdover must stay in place",
                        arc.from.0, arc.to.0
                    ),
                )
                .with_help("storage arcs model i^n -> i^{n+1}; use a Transit arc to move data"),
            );
        }
    }

    // Conservation degree: every datacenter needs exactly one holdover
    // (storage) arc per in-window slot, or flow cannot telescope across
    // layers (Eq. 8).
    let mut storage_count = vec![0usize; graph.num_slots() * graph.num_dcs()];
    for (_, arc) in graph.arcs() {
        if arc.kind == ArcKind::Storage
            && arc.from == arc.to
            && arc.slot >= first
            && arc.slot <= last
        {
            storage_count[(arc.slot - first) as usize * graph.num_dcs() + arc.from.0] += 1;
        }
    }
    for off in 0..graph.num_slots() {
        for dc in 0..graph.num_dcs() {
            let count = storage_count[off * graph.num_dcs() + dc];
            if count != 1 {
                let slot = first + off as u64;
                report.push(
                    Diagnostic::error(
                        "PA003",
                        format!("node {dc}^{slot}"),
                        format!(
                            "datacenter {dc} has {count} storage arcs in slot {slot} (expected \
                             exactly 1) — conservation degree is broken"
                        ),
                    )
                    .with_help(
                        "each node i^n needs one i^n -> i^{n+1} holdover arc so per-layer \
                         conservation can carry unsent data forward",
                    ),
                );
            }
        }
    }
    report
}

/// Checks a bare LP model for generic structural hygiene (PA004–PA009).
pub fn check_model(model: &Model) -> Report {
    let mut report = Report::new();
    let columns = model.columns();

    // --- Rows: empty (PA007), duplicates (PA004), scalar multiples (PA005).
    // LinExpr iterates its terms sorted by variable index, so two rows with
    // equal left-hand sides produce identical term sequences.
    let mut row_terms: Vec<Vec<(usize, f64)>> = Vec::with_capacity(model.num_constraints());
    let mut row_relations: Vec<Relation> = Vec::with_capacity(model.num_constraints());
    for (id, con) in model.constraints() {
        row_relations.push(con.relation());
        let terms: Vec<(usize, f64)> = con
            .expr()
            .iter()
            // postcard-analyze: allow(PA101) — exact-zero sparsity filter.
            .filter(|&(_, c)| c != 0.0)
            .map(|(v, c)| (v.index(), c))
            .collect();
        if terms.is_empty() {
            report.push(
                Diagnostic::warning(
                    "PA007",
                    format!("row #{}", id.index()),
                    format!(
                        "constraint has an empty left-hand side (reads `0 {} {}`)",
                        relation_symbol(con.relation()),
                        con.rhs()
                    ),
                )
                .with_help(
                    "the standard form skips empty rows (proving infeasibility when \
                     violated); emitting one usually indicates a model-building bug",
                ),
            );
        }
        row_terms.push(terms);
    }

    // Group rows by (variable signature, relation) so the pairwise
    // dependence tests below only compare rows that could possibly match.
    let mut groups: std::collections::BTreeMap<(Vec<usize>, u8), Vec<usize>> =
        std::collections::BTreeMap::new();
    for (idx, terms) in row_terms.iter().enumerate() {
        if terms.is_empty() {
            continue;
        }
        let signature: Vec<usize> = terms.iter().map(|&(v, _)| v).collect();
        let rel_tag = match row_relations[idx] {
            Relation::Leq => 0u8,
            Relation::Geq => 1,
            Relation::Eq => 2,
        };
        groups.entry((signature, rel_tag)).or_default().push(idx);
    }

    let mut flagged_dup = vec![false; row_terms.len()];
    for rows in groups.values() {
        for (pos, &i) in rows.iter().enumerate() {
            if flagged_dup[i] {
                continue;
            }
            for &j in &rows[pos + 1..] {
                if flagged_dup[j] {
                    continue;
                }
                let exact = row_terms[i]
                    .iter()
                    .zip(&row_terms[j])
                    .all(|(a, b)| a.1.to_bits() == b.1.to_bits());
                if exact {
                    flagged_dup[j] = true;
                    report.push(
                        Diagnostic::warning(
                            "PA004",
                            format!("row #{j}"),
                            format!("constraint duplicates the left-hand side of row #{i}"),
                        )
                        .with_help(
                            "only the tightest right-hand side can bind, and the solver still \
                             carries every copy; drop the redundant row at build time",
                        ),
                    );
                    continue;
                }
                let factor = row_terms[j][0].1 / row_terms[i][0].1;
                if factor.is_finite()
                    && row_terms[i].iter().zip(&row_terms[j]).all(|(a, b)| {
                        (b.1 - factor * a.1).abs() <= PROPORTIONALITY_TOL * (1.0 + b.1.abs())
                    })
                {
                    flagged_dup[j] = true;
                    report.push(
                        Diagnostic::warning(
                            "PA005",
                            format!("row #{j}"),
                            format!(
                                "constraint is a scalar multiple (×{factor}) of row #{i} — the \
                                 rows are linearly dependent"
                            ),
                        )
                        .with_help(
                            "dependent rows waste pivots and can leave artificials in the basis",
                        ),
                    );
                }
            }
        }
    }

    // --- Columns: free (PA006) and empty (PA008).
    for v in model.variables() {
        if !columns[v.index()].is_empty() {
            continue;
        }
        let (lo, hi) = model.bounds(v);
        let c = model.objective_expr().coefficient(v);
        // postcard-analyze: allow(PA101) — infinity sentinel test.
        let up_unbounded = hi == f64::INFINITY;
        // postcard-analyze: allow(PA101) — infinity sentinel test.
        let down_unbounded = lo == f64::NEG_INFINITY;
        let improving_direction_unbounded = match model.sense() {
            Sense::Minimize => (c < 0.0 && up_unbounded) || (c > 0.0 && down_unbounded),
            Sense::Maximize => (c > 0.0 && up_unbounded) || (c < 0.0 && down_unbounded),
        };
        if improving_direction_unbounded {
            report.push(
                Diagnostic::error(
                    "PA006",
                    format!("var `{}`", model.var_name(v)),
                    "free column: the variable appears in no constraint and its objective \
                     coefficient improves without bound"
                        .to_string(),
                )
                .with_help(
                    "the LP is trivially unbounded; bound the variable or add the missing \
                     constraint rows",
                ),
            );
        // postcard-analyze: allow(PA101) — exact-zero objective coefficient.
        } else if c == 0.0 {
            report.push(
                Diagnostic::warning(
                    "PA008",
                    format!("var `{}`", model.var_name(v)),
                    "empty column: the variable appears in no constraint and has no objective \
                     coefficient"
                        .to_string(),
                )
                .with_help("dead variables inflate the basis for no benefit; drop them"),
            );
        }
    }

    // --- Conditioning report (PA009) over the constraint matrix.
    let mut min_abs = f64::INFINITY;
    let mut max_abs: f64 = 0.0;
    for terms in &row_terms {
        for &(_, c) in terms {
            let a = c.abs();
            min_abs = min_abs.min(a);
            max_abs = max_abs.max(a);
        }
    }
    if max_abs > 0.0 && max_abs / min_abs > CONDITIONING_RATIO_LIMIT {
        report.push(
            Diagnostic::warning(
                "PA009",
                "model",
                format!(
                    "constraint coefficient magnitudes span [{min_abs:e}, {max_abs:e}] \
                     (ratio {:e} > {CONDITIONING_RATIO_LIMIT:e})",
                    max_abs / min_abs
                ),
            )
            .with_help(
                "wide coefficient ranges degrade basis conditioning; rescale units (e.g. GB \
                 instead of bytes) before solving",
            ),
        );
    }
    report
}

/// Checks an assembled [`PostcardProblem`]: the graph passes, the model
/// passes, and the Postcard-specific deadline pass (PA001) tying LP
/// variables to graph arcs and file windows.
pub fn check_problem(problem: &PostcardProblem) -> Report {
    let mut report = check_graph(&problem.graph);
    report.merge(check_model(&problem.model));

    for (k, per_arc) in problem.mvars.iter().enumerate() {
        let Some(file) = problem.files.get(k) else {
            report.push(Diagnostic::error(
                "PA001",
                format!("file #{k}"),
                "variable map entry has no corresponding file in the batch".to_string(),
            ));
            continue;
        };
        for (&arc_id, &var) in per_arc {
            if arc_id.index() >= problem.graph.num_arcs() {
                report.push(
                    Diagnostic::error(
                        "PA001",
                        format!("var `{}`", problem.model.var_name(var)),
                        format!("variable references nonexistent arc #{}", arc_id.index()),
                    )
                    .with_help("the variable map and the graph were built from different data"),
                );
                continue;
            }
            let arc = problem.graph.arc(arc_id);
            if !file.active_in(arc.slot) {
                report.push(
                    Diagnostic::error(
                        "PA001",
                        format!("var `{}`", problem.model.var_name(var)),
                        format!(
                            "file {} has an arc variable in slot {} outside its window \
                             [{}, {}] — Eq. 10 is violated structurally",
                            file.id,
                            arc.slot,
                            file.first_slot(),
                            file.last_slot()
                        ),
                    )
                    .with_help(
                        "variables must only exist for arcs inside [release, release + T_k); \
                         a variable past the deadline lets flow arrive late",
                    ),
                );
            }
        }
    }
    report
}

fn relation_symbol(r: Relation) -> &'static str {
    match r {
        Relation::Leq => "<=",
        Relation::Eq => "=",
        Relation::Geq => ">=",
    }
}
