//! The Sec. VI extension problems, formulated with the same time-expansion
//! gadget as the main Postcard problem.
//!
//! * [`bulk`] — transfer as much bulk ("background") data as possible using
//!   only *leftover* bandwidth that is already paid for (the NetStitcher
//!   scenario, paper problem 11);
//! * [`budget`] — maximize the transferred volume subject to a hard traffic
//!   budget per slot.
//!
//! Both generalize the paper's fixed-delivery conservation (Eq. 8) with a
//! per-file *delivered volume* variable `0 ≤ y_k ≤ F_k`, so a file may be
//! partially served when full service is impossible — the natural reading
//! of "satisfy as many transfer requests as possible".
//!
//! Both are assembled by the Postcard LP's own builder pieces, with `−y_k`
//! injected at each source's release row (rhs 0) instead of the fixed `F_k`.

pub mod budget;
pub mod bulk;

pub use budget::{solve_budget_constrained, BudgetSolution};
pub use bulk::{solve_bulk_max_transfer, BulkCapacityMode, BulkSolution};

use postcard_lp::{LinExpr, Model, Solution, Variable};
use postcard_net::{FileId, TransferRequest};
use std::collections::BTreeMap;

/// Delivered-volume columns `0 ≤ y_k ≤ F_k` (batch order), and `Σ_k y_k`.
fn delivery_vars(m: &mut Model, files: &[TransferRequest]) -> (Vec<Variable>, LinExpr) {
    let yvars: Vec<Variable> = files.iter().map(|f| m.add_anon_var(0.0, f.size_gb)).collect();
    let mut total = LinExpr::new();
    for &y in &yvars {
        total.add_term(y, 1.0);
    }
    (yvars, total)
}

/// The release-row injection of a delivered volume: the source emits
/// exactly `y_k` (rhs 0), so every release row has a term.
fn inject(yvars: &[Variable]) -> impl Fn(usize, &TransferRequest, &mut LinExpr) -> f64 + '_ {
    |k, _, row| {
        row.add_term(yvars[k], -1.0);
        0.0
    }
}

/// Delivered volume per file at `sol`.
fn delivered(files: &[TransferRequest], y: &[Variable], sol: &Solution) -> BTreeMap<FileId, f64> {
    files.iter().zip(y).map(|(f, &y)| (f.id, sol.value(y).max(0.0))).collect()
}

/// The requests rewritten to their delivered sizes, files with negligible
/// delivery dropped.
fn delivered_requests(
    delivered: &BTreeMap<FileId, f64>,
    files: &[TransferRequest],
) -> Vec<TransferRequest> {
    files
        .iter()
        .filter_map(|f| {
            let y = delivered.get(&f.id).copied().unwrap_or(0.0);
            (y > 1e-6).then(|| {
                TransferRequest::new(f.id, f.src, f.dst, y, f.deadline_slots, f.release_slot)
            })
        })
        .collect()
}
