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
use postcard_lp::{Model, Relation, Sense, Variable};
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
        let loc = || format!("arc #{} ({}->{}@{})", id.index(), arc.from.0, arc.to.0, arc.slot);
        if arc.slot < first || arc.slot > last {
            report.push(
                Diagnostic::error(
                    "PA002",
                    loc(),
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
                    loc(),
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
    check_model_labelled(model, &|v| model.var_name(v).into_owned())
}

/// [`check_model`] with column findings naming each variable by `label`.
fn check_model_labelled(model: &Model, label: &dyn Fn(Variable) -> String) -> Report {
    let mut report = Report::new();

    // --- Rows: empty (PA007), duplicates (PA004), scalar multiples (PA005).
    // LinExpr iterates its terms sorted by variable index, so two rows with
    // equal left-hand sides produce identical term sequences. All rows'
    // nonzero terms live in one buffer; row `i` is `terms[start[i]..start[i + 1]]`.
    let mut terms: Vec<(usize, f64)> = Vec::new();
    let mut start: Vec<usize> = Vec::with_capacity(model.num_constraints() + 1);
    let mut relations: Vec<Relation> = Vec::with_capacity(model.num_constraints());
    let mut column_len = vec![0usize; model.num_vars()];
    start.push(0);
    for (id, con) in model.constraints() {
        relations.push(con.relation());
        // postcard-analyze: allow(PA101) — exact-zero sparsity filter.
        for (v, c) in con.expr().iter().filter(|&(_, c)| c != 0.0) {
            terms.push((v.index(), c));
            if let Some(len) = column_len.get_mut(v.index()) {
                *len += 1;
            }
        }
        start.push(terms.len());
        if terms.len() == start[start.len() - 2] {
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
    }
    let row = |i: usize| &terms[start[i]..start[i + 1]];
    let rel_tag = |i: usize| match relations[i] {
        Relation::Leq => 0u8,
        Relation::Geq => 1,
        Relation::Eq => 2,
    };

    // Group rows by (variable signature, relation) so the pairwise
    // dependence tests below only compare rows that could possibly match:
    // sort the nonempty rows by signature, then relation, then index, and
    // walk each run of equal keys.
    let signature = |i: usize| row(i).iter().map(|&(v, _)| v);
    let mut order: Vec<usize> = (0..relations.len()).filter(|&i| !row(i).is_empty()).collect();
    order.sort_unstable_by(|&a, &b| {
        signature(a).cmp(signature(b)).then(rel_tag(a).cmp(&rel_tag(b))).then(a.cmp(&b))
    });

    let mut flagged_dup = vec![false; relations.len()];
    for rows in order.chunk_by(|&a, &b| rel_tag(a) == rel_tag(b) && signature(a).eq(signature(b))) {
        for (pos, &i) in rows.iter().enumerate() {
            if flagged_dup[i] {
                continue;
            }
            for &j in &rows[pos + 1..] {
                if flagged_dup[j] {
                    continue;
                }
                let (ri, rj) = (row(i), row(j));
                let exact = ri.iter().zip(rj).all(|(a, b)| a.1.to_bits() == b.1.to_bits());
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
                let factor = rj[0].1 / ri[0].1;
                if factor.is_finite()
                    && ri.iter().zip(rj).all(|(a, b)| {
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
        if column_len[v.index()] > 0 {
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
                    format!("var `{}`", label(v)),
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
                    format!("var `{}`", label(v)),
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
    for &(_, c) in &terms {
        let a = c.abs();
        min_abs = min_abs.min(a);
        max_abs = max_abs.max(a);
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
    report.merge(check_model_labelled(&problem.model, &|v| problem.var_label(v)));

    for (k, per_arc) in problem.mvars.iter().enumerate() {
        let Some(file) = problem.files.get(k) else {
            report.push(Diagnostic::error(
                "PA001",
                format!("file #{k}"),
                "variable map entry has no corresponding file in the batch".to_string(),
            ));
            continue;
        };
        for &(arc_id, var) in per_arc {
            if arc_id.index() >= problem.graph.num_arcs() {
                report.push(
                    Diagnostic::error(
                        "PA001",
                        format!("var `{}`", problem.var_label(var)),
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
                        format!("var `{}`", problem.var_label(var)),
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

#[cfg(test)]
mod tests {
    use super::*;
    use postcard_core::{build_postcard_problem, PostcardConfig};
    use postcard_lp::LinExpr;
    use postcard_net::{DcId, FileId, NetworkBuilder, TrafficLedger, TransferRequest};

    fn findings(report: &Report) -> Vec<(&'static str, String)> {
        report.iter().map(|d| (d.code, d.location.clone())).collect()
    }

    #[test]
    fn dependent_rows_report_in_signature_then_relation_then_row_order() {
        let mut m = Model::new(Sense::Minimize);
        let x: Vec<_> = (0..3).map(|i| m.add_var(format!("x{i}"), 0.0, 10.0)).collect();
        m.set_objective(x[0] + x[1] + x[2]);
        m.leq(x[0] + x[1], 1.0); // r0
        m.eq(x[1] + x[2], 2.0); // r1
        m.leq(2.0 * x[0] + 2.0 * x[1], 5.0); // r2: ×2 of r0
        m.eq(x[1] + x[2], 3.0); // r3: duplicates r1
        m.geq(x[0] + x[1], 0.0); // r4: same terms as r0, other relation
        m.leq(LinExpr::from(x[0]), 4.0); // r5
        m.geq(3.0 * x[0] + 3.0 * x[1], 1.0); // r6: ×3 of r4
        m.leq(LinExpr::from(x[0]), 9.0); // r7: duplicates r5
        m.leq(x[0] + x[1], 7.0); // r8: duplicates r0
        let report = check_model(&m);
        let row = |code, r: usize| (code, format!("row #{r}"));
        assert_eq!(
            findings(&report),
            vec![
                row("PA004", 7),
                row("PA005", 2),
                row("PA004", 8),
                row("PA005", 6),
                row("PA004", 3),
            ]
        );
        assert!(report.iter().nth(1).is_some_and(|d| d.message.contains("(×2) of row #0")));
    }

    #[test]
    fn postcard_findings_name_arc_and_charged_variables() {
        // A free link nothing can use: its charged volume is an empty,
        // zero-cost column (PA008), named after the link.
        let network = NetworkBuilder::new(3)
            .link(DcId(0), DcId(1), 2.0, 50.0)
            .link(DcId(2), DcId(0), 0.0, 50.0)
            .build();
        let files = [TransferRequest::new(FileId(4), DcId(0), DcId(1), 10.0, 2, 0)];
        let ledger = TrafficLedger::new(3);
        let mut problem =
            build_postcard_problem(&network, &files, &ledger, &PostcardConfig::default()).unwrap();
        let report = check_problem(&problem);
        let pa008: Vec<_> = findings(&report).into_iter().filter(|f| f.0 == "PA008").collect();
        assert_eq!(pa008, vec![("PA008", "var `X[2->0]`".to_string())]);

        // Tighten the deadline without rebuilding: the slot-1 arc variables
        // now violate Eq. 10 (PA001), named `M[file][from->to@slot]`.
        problem.files[0].deadline_slots = 1;
        let report = check_problem(&problem);
        let pa001: Vec<String> =
            report.iter().filter(|d| d.code == "PA001").map(|d| d.location.clone()).collect();
        assert!(pa001.contains(&"var `M[file#4][0->1@1]`".to_string()), "{pa001:?}");
    }
}
