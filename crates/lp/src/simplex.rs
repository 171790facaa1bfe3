//! Two-phase sparse revised simplex with LU + eta-file basis updates.
//!
//! The implementation follows the classic scheme:
//!
//! * **Phase 1** starts from a **triangular crash** basis and minimizes the
//!   sum of artificial variables; a positive optimum means the problem is
//!   infeasible. A row starts on its slack where that slack has coefficient
//!   +1. Each remaining zero-RHS row is covered, where possible, by a
//!   structural or slack column that has exactly one entry among the rows
//!   still open; only the rows left over start on an artificial. The chosen
//!   columns form a triangular block with a nonzero diagonal, so the basis
//!   is nonsingular, and as `b` is zero on every covered row, `x_B = B⁻¹b`
//!   is zero there and `b` elsewhere: the start is primal feasible at the
//!   same phase-1 objective as an all-slack/artificial start (see
//!   `Crash::cover`). On the Postcard LP this leaves one artificial
//!   per file's release row instead of one per conservation row.
//!   Candidates are taken **sink first**: a column whose open entry is
//!   positive before one whose open entry is negative, then shorter
//!   columns first, then FIFO. An arc has +1 in its tail's conservation
//!   row and −1 in its head's, so each node is covered by an arc leaving
//!   it, which qualifies only once its head has closed; rows close from
//!   the deadline layer backward, and a free storage arc beats a transit
//!   arc that also sits in a capacity and an envelope row. The start is
//!   then an as-late-as-possible placement (hold, then cross to the
//!   destination in the last slot), and phase 1 only moves each file's
//!   release flow onto it. The order picks among candidates only, so the
//!   feasibility argument above is unchanged.
//!   Artificials left in the basis at level zero are pivoted out where
//!   possible; where a row is linearly dependent the artificial is kept
//!   (its row of `B⁻¹A` is identically zero for all real columns, so it can
//!   never become positive again — see the proof sketch in the code).
//! * **Phase 2** continues from the feasible basis with the true costs,
//!   artificial columns barred from entering.
//!
//! Pricing is Dantzig (most negative reduced cost) with an automatic switch
//! to Bland's rule after a run of degenerate pivots, which guarantees
//! termination. The basis is held as a sparse LU factorization
//! ([`crate::factor`]) plus a product-form eta file ([`crate::eta`]): pivot
//! columns and duals come from `ftran`/`btran` against the CSC constraint
//! matrix directly — nothing is densified — and a pivot appends one sparse
//! eta vector instead of eliminating an m×m inverse. The factorization is
//! rebuilt (and the eta file cleared) every
//! [`SimplexOptions::refactor_every`] pivots to bound numerical drift.
//!
//! Solves can be **warm-started** from the [`Basis`] exported by a previous
//! optimal solve: phase 1 is skipped entirely when the supplied basis is
//! still nonsingular and primal feasible for the new right-hand side, which
//! is the common case for the near-identical LPs produced by consecutive
//! Postcard slots.

use crate::error::LpError;
use crate::eta::EtaFile;
use crate::factor::{BasisColumns, BasisFactor};
use crate::solution::{SolveCounts, Status};
use crate::standard::StandardForm;

/// Reusable solver allocations that survive across solves.
///
/// Every simplex iteration needs a handful of dense row-length scratch
/// vectors (duals, pivot columns, rows of `B⁻¹`), refactorization gathers
/// the basis columns into one flat column buffer and rebuilds the flat L
/// and U arrays of the sparse LU, and the product-form eta file grows to
/// `refactor_every` update vectors between rebuilds.
/// Allocating those per solve is invisible on one LP but dominates a slot
/// loop that solves thousands of near-identical LPs; a `SolverWorkspace`
/// owns them instead, so a persistent caller (one workspace per scheduler)
/// pays the allocations once and every later solve runs in steady-state
/// memory. A solve's result does not depend on what the workspace solved
/// before, so a fresh workspace per solve gives the same bits — just
/// slower.
#[derive(Debug, Clone, Default)]
pub struct SolverWorkspace {
    /// Stack of row-length dense scratch vectors, recycled LIFO.
    dense_pool: Vec<Vec<f64>>,
    /// Basis-column gather buffer reused by refactorization.
    factor_cols: BasisColumns,
    /// Sparse LU of the basis as of the last refactorization; every solve
    /// resets it and refactorizes into the same buffers.
    factor: BasisFactor,
    /// Product-form eta file, cleared (capacity kept) between solves.
    etas: EtaFile,
    /// Buffers of the cold start's triangular crash.
    crash: Crash,
}

impl SolverWorkspace {
    /// An empty workspace; buffers grow on first use and are kept after.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a zeroed length-`m` scratch vector from the pool.
    fn grab(&mut self, m: usize) -> Vec<f64> {
        let mut v = self.dense_pool.pop().unwrap_or_default();
        v.clear();
        v.resize(m, 0.0);
        v
    }

    /// Returns a scratch vector to the pool for reuse.
    fn stash(&mut self, v: Vec<f64>) {
        self.dense_pool.push(v);
    }
}

/// Marks a start-basis row that has no basic column yet.
const UNCOVERED: usize = usize::MAX;

/// A crash column's entry must be at least this fraction of the column's
/// largest entry, so the triangular start basis stays well conditioned.
const CRASH_REL_PIVOT: f64 = 0.1;

/// Column lengths the crash tells apart; longer columns share the last
/// length class.
const CRASH_LEN_CLASSES: usize = 8;

/// Working storage of the triangular crash, kept in [`SolverWorkspace`] so
/// a warm workspace runs it without allocating.
#[derive(Debug, Clone, Default)]
struct Crash {
    /// Columns with an entry in each open row, flat by row:
    /// `row_cols[row_start[r]..row_start[r + 1]]`, ascending.
    row_start: Vec<usize>,
    row_cols: Vec<usize>,
    /// Per column, its entries in still-open rows.
    open_count: Vec<usize>,
    /// Bucket queue of candidates as `(column, open row)`: one FIFO per
    /// class of [`Crash::class`], consumed from `heads[c]`, with every
    /// class below `lowest` empty.
    buckets: Vec<Vec<(usize, usize)>>,
    heads: Vec<usize>,
    lowest: usize,
}

impl Crash {
    /// Covers open rows with structural or slack columns. A row is *open*
    /// when `basis[r]` is still [`UNCOVERED`] and `b_r = 0`. A *candidate*
    /// is a non-basic column with exactly one entry among the open rows,
    /// large enough relative to its largest entry. Repeatedly, the first
    /// candidate in [`Crash::class`] order, FIFO within a class, becomes
    /// basic in its open row and closes it. Returns the number of rows
    /// covered.
    ///
    /// Each chosen column has no entry in the rows covered after it, so
    /// the chosen columns form a triangular block with a nonzero diagonal
    /// and the basis stays nonsingular. As `b` is zero on every covered
    /// row, `B⁻¹b` is zero there and equals `b` on every other row: the
    /// start stays primal feasible, at the same phase-1 objective.
    fn cover(
        &mut self,
        sf: &StandardForm,
        basis: &mut [usize],
        in_basis: &mut [bool],
        pivot_tol: f64,
    ) -> usize {
        let (m, n) = (sf.m, sf.n_cols);
        let is_open = |basis: &[usize], r: usize| Self::is_open(sf, basis, r);
        if !(0..m).any(|r| is_open(basis, r)) {
            return 0;
        }
        // Row→column index restricted to the open rows, O(nnz): count into
        // `row_start[r]`, turn the counts into row ends, then fill each row
        // back to front so it ends on its start, ascending.
        self.row_start.clear();
        self.row_start.resize(m + 1, 0);
        self.open_count.clear();
        self.open_count.resize(n, 0);
        for j in (0..n).filter(|&j| !in_basis[j]) {
            for (r, _) in sf.a.column(j) {
                if is_open(basis, r) {
                    self.row_start[r] += 1;
                    self.open_count[j] += 1;
                }
            }
        }
        for r in 1..=m {
            self.row_start[r] += self.row_start[r - 1];
        }
        self.row_cols.clear();
        self.row_cols.resize(self.row_start[m], 0);
        for j in (0..n).rev().filter(|&j| self.open_count[j] > 0) {
            for (r, _) in sf.a.column(j) {
                if is_open(basis, r) {
                    self.row_start[r] -= 1;
                    self.row_cols[self.row_start[r]] = j;
                }
            }
        }
        self.buckets.resize_with(2 * CRASH_LEN_CLASSES, Vec::new);
        self.buckets.iter_mut().for_each(Vec::clear);
        self.heads.clear();
        self.heads.resize(2 * CRASH_LEN_CLASSES, 0);
        self.lowest = 0;
        for j in 0..n {
            if self.open_count[j] == 1 {
                self.offer(sf, basis, j, pivot_tol);
            }
        }
        let mut covered = 0;
        while let Some((j, r)) = self.pop() {
            // The open entry stays the same until its row closes.
            if self.open_count[j] != 1 {
                continue;
            }
            basis[r] = j;
            in_basis[j] = true;
            covered += 1;
            for k in self.row_start[r]..self.row_start[r + 1] {
                let j2 = self.row_cols[k];
                if !in_basis[j2] {
                    self.open_count[j2] -= 1;
                    if self.open_count[j2] == 1 {
                        self.offer(sf, basis, j2, pivot_tol);
                    }
                }
            }
        }
        covered
    }

    /// Whether row `r` is still open.
    fn is_open(sf: &StandardForm, basis: &[usize], r: usize) -> bool {
        // `b ≥ 0` in standard form, so `b_r ≤ 0` means `b_r = 0`.
        basis[r] == UNCOVERED && sf.b[r] <= 0.0
    }

    /// Queues column `j`, which has exactly one open entry, unless that
    /// entry fails the magnitude tests. A rejected column never qualifies
    /// later: its only open entry stays the same until its row closes.
    fn offer(&mut self, sf: &StandardForm, basis: &[usize], j: usize, pivot_tol: f64) {
        let mut largest = 0.0f64;
        let mut len = 0;
        let mut entry = None;
        for (r, v) in sf.a.column(j) {
            largest = largest.max(v.abs());
            len += 1;
            if Self::is_open(sf, basis, r) {
                entry = Some((r, v));
            }
        }
        let Some((r, v)) = entry else { return };
        if v.abs() <= pivot_tol || v.abs() < CRASH_REL_PIVOT * largest {
            return;
        }
        let c = Self::class(v, len);
        self.buckets[c].push((j, r));
        self.lowest = self.lowest.min(c);
    }

    /// The class of a candidate whose open entry is `v` and which has
    /// `len ≥ 1` nonzeros, lowest first: positive entries before negative
    /// ones, then shorter columns first. On the Postcard LP this covers
    /// each node with an arc leaving it, storage before transit (see the
    /// module docs).
    fn class(v: f64, len: usize) -> usize {
        let sign = usize::from(v < 0.0);
        sign * CRASH_LEN_CLASSES + len.min(CRASH_LEN_CLASSES) - 1
    }

    /// The oldest candidate of the lowest non-empty class.
    fn pop(&mut self) -> Option<(usize, usize)> {
        while self.lowest < self.buckets.len() {
            let c = self.lowest;
            if let Some(&next) = self.buckets[c].get(self.heads[c]) {
                self.heads[c] += 1;
                return Some(next);
            }
            self.lowest += 1;
        }
        None
    }
}

/// Tuning knobs for [`SimplexSolver`].
#[derive(Debug, Clone)]
pub struct SimplexOptions {
    /// Hard cap on total pivots across both phases.
    pub max_iterations: usize,
    /// Reduced-cost threshold for a column to be considered improving.
    pub pricing_tol: f64,
    /// Minimum |pivot element| accepted in the ratio test.
    pub pivot_tol: f64,
    /// Phase-1 objective above this value ⇒ infeasible.
    pub feas_tol: f64,
    /// Refactorize the basis (and clear the eta file) every this many
    /// pivots. Smaller values bound both numerical drift and the length of
    /// the eta file replayed on every `ftran`/`btran`.
    pub refactor_every: usize,
    /// Consecutive degenerate pivots before switching to Bland's rule.
    pub bland_after: usize,
    /// Eta-file entries with magnitude at or below this are dropped to keep
    /// update vectors sparse.
    pub eta_drop_tol: f64,
}

impl Default for SimplexOptions {
    fn default() -> Self {
        Self {
            max_iterations: 200_000,
            pricing_tol: 1e-7,
            pivot_tol: 1e-9,
            feas_tol: 1e-6,
            refactor_every: 64,
            bland_after: 64,
            eta_drop_tol: 1e-12,
        }
    }
}

/// A simplex basis over standard-form columns, exported from an optimal
/// solve and usable to warm-start a later solve of a same-shaped problem
/// via [`crate::Model::solve_warm`].
///
/// Entries `< num_cols()` name structural/slack standard-form columns;
/// entries `>= num_cols()` encode an artificial covering row
/// `entry - num_cols()` (left behind by a linearly dependent row). The
/// encoding is canonical — it does not depend on solver-internal column
/// ordering — so a basis can be replayed against any standard form with the
/// same dimensions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Basis {
    /// Basic column per row position, in the canonical encoding above.
    cols: Vec<usize>,
    /// Standard-form column count of the originating problem.
    n_cols: usize,
}

impl Basis {
    /// Number of rows (= basic columns) of the originating problem.
    pub fn num_rows(&self) -> usize {
        self.cols.len()
    }

    /// Number of standard-form columns of the originating problem.
    pub fn num_cols(&self) -> usize {
        self.n_cols
    }
}

/// Raw solution over the standard-form columns (before mapping back to the
/// originating model).
#[must_use = "dropping a RawSolution discards the solve outcome"]
#[derive(Debug, Clone)]
pub struct RawSolution {
    /// Termination status.
    pub status: Status,
    /// Primal values per standard-form column (structural + slack).
    pub x: Vec<f64>,
    /// Row duals `y = c_Bᵀ·B⁻¹` of the standard form.
    pub y: Vec<f64>,
    /// Standard-form (minimization) objective `c·x`. Kept for diagnostics;
    /// the model-space objective is recomputed during solution mapping.
    #[allow(dead_code)]
    pub objective: f64,
    /// Pivot, phase and refactorization counts of the solve.
    pub counts: SolveCounts,
    /// The optimal basis, for warm-starting a subsequent solve. `None`
    /// unless the solve terminated optimal.
    pub basis: Option<Basis>,
}

/// The revised simplex engine.
///
/// Usually used indirectly through [`crate::Model::solve`]; exposed so that
/// benchmarks and tests can drive it with custom options.
#[derive(Debug, Clone, Default)]
pub struct SimplexSolver {
    options: SimplexOptions,
}

impl SimplexSolver {
    /// Creates a solver with the given options.
    pub fn new(options: SimplexOptions) -> Self {
        Self { options }
    }

    /// Solves a standard-form problem, warm-starting from `warm` when one
    /// is supplied and still usable.
    ///
    /// A warm basis left primal-infeasible by a right-hand-side change is
    /// re-optimized by the dual simplex (it stays dual feasible, so the
    /// resolve is usually a handful of pivots). The basis is rejected —
    /// silently falling back to the cold two-phase path — when its
    /// dimensions do not match, its factorization is singular, or the dual
    /// simplex stalls. A singular basis encountered *during* the
    /// warm-started iteration also falls back to a full cold solve.
    ///
    /// # Errors
    ///
    /// Same contract as [`SimplexSolver::solve`].
    pub(crate) fn solve_warm(
        &self,
        sf: &StandardForm,
        warm: Option<&Basis>,
        ws: &mut SolverWorkspace,
    ) -> Result<RawSolution, LpError> {
        if sf.trivially_infeasible {
            return Ok(RawSolution {
                status: Status::Infeasible,
                x: vec![0.0; sf.n_cols],
                y: vec![0.0; sf.m],
                objective: f64::NAN,
                counts: SolveCounts::default(),
                basis: None,
            });
        }
        if let Some(basis) = warm {
            if let Some(mut state) = State::warm(sf, &self.options, basis, ws) {
                match state.finish_phase2() {
                    Err(LpError::SingularBasis) => {
                        // The inherited basis degraded mid-flight; restart
                        // cold (which carries its own singularity retry).
                    }
                    other => {
                        return other.map(|mut raw| {
                            raw.counts.warm_started = true;
                            raw
                        })
                    }
                }
            }
        }
        self.solve_cold(sf, ws)
    }

    fn solve_cold(
        &self,
        sf: &StandardForm,
        ws: &mut SolverWorkspace,
    ) -> Result<RawSolution, LpError> {
        match State::new(sf, &self.options, ws).and_then(|mut state| state.run()) {
            Err(LpError::SingularBasis) => {
                // A run of near-zero ratio-test pivots can assemble an
                // ill-conditioned basis that refactorization rejects. Retry
                // once from scratch under Bland's rule with a stricter pivot
                // floor — a different (and provably terminating) pivot path.
                let opts = SimplexOptions {
                    pivot_tol: self.options.pivot_tol.max(1e-7),
                    bland_after: 0,
                    refactor_every: self.options.refactor_every.min(32),
                    ..self.options.clone()
                };
                let mut retry = State::new(sf, &opts, ws)?;
                retry.pricing = Pricing::Bland;
                retry.run()
            }
            other => other,
        }
    }
}

/// Which pivot the entering-variable search should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pricing {
    Dantzig,
    Bland,
}

struct State<'a> {
    sf: &'a StandardForm,
    opts: &'a SimplexOptions,
    /// Reusable scratch allocations (dense vectors, the basis LU and its
    /// gather buffers, and the eta file live here so they survive across
    /// solves).
    ws: &'a mut SolverWorkspace,
    /// Number of real (structural + slack) columns.
    n: usize,
    m: usize,
    /// Artificial column `n + k` covers row `art_row[k]`.
    art_row: Vec<usize>,
    /// Basis column per row (may be ≥ n for artificials).
    basis: Vec<usize>,
    in_basis: Vec<bool>,
    /// Current basic values `x_B = B⁻¹ b`.
    xb: Vec<f64>,
    /// Phase-dependent costs for all columns (real + artificial).
    cost: Vec<f64>,
    iterations: usize,
    dual_iterations: usize,
    /// Pivots taken before phase 2 began (phase 1 plus artificial eviction).
    phase1_iterations: usize,
    /// Successful basis refactorizations.
    refactorizations: usize,
    degenerate_run: usize,
    pricing: Pricing,
    /// Artificial columns are barred from entering in phase 2.
    allow_artificials: bool,
}

impl<'a> State<'a> {
    /// The cold start basis. A row whose slack has coefficient +1 starts on
    /// that slack (its column is exactly `e_r`). Zero-RHS rows left over
    /// are covered by the triangular crash ([`Crash::cover`]), and
    /// only the rows it cannot cover, chiefly positive-RHS equality and `≥`
    /// rows, start on an artificial. `x_B = b` stays feasible throughout.
    ///
    /// # Errors
    ///
    /// [`LpError::SingularBasis`] if the crashed basis fails to factorize,
    /// which its triangular structure rules out up to the pivot tolerance.
    fn new(
        sf: &'a StandardForm,
        opts: &'a SimplexOptions,
        ws: &'a mut SolverWorkspace,
    ) -> Result<Self, LpError> {
        let n = sf.n_cols;
        let m = sf.m;
        let mut basis = Vec::with_capacity(m);
        let mut in_basis = vec![false; n];
        for r in 0..m {
            match sf.slack_of_row[r] {
                Some(scol) if sf.slack_coeff[r] > 0.0 => {
                    basis.push(scol);
                    in_basis[scol] = true;
                }
                _ => basis.push(UNCOVERED),
            }
        }
        let crashed = ws.crash.cover(sf, &mut basis, &mut in_basis, opts.pivot_tol);
        let mut art_row = Vec::new();
        for (r, col) in basis.iter_mut().enumerate() {
            if *col == UNCOVERED {
                *col = n + art_row.len();
                art_row.push(r);
            }
        }
        let n_art = art_row.len();
        in_basis.extend(std::iter::repeat_n(true, n_art));
        ws.etas.clear();
        ws.factor.reset_identity(m);
        let mut st = State {
            sf,
            opts,
            ws,
            n,
            m,
            art_row,
            basis,
            in_basis,
            xb: sf.b.clone(),
            cost: vec![0.0; n + n_art],
            iterations: 0,
            dual_iterations: 0,
            phase1_iterations: 0,
            refactorizations: 0,
            degenerate_run: 0,
            pricing: Pricing::Dantzig,
            allow_artificials: true,
        };
        if crashed > 0 {
            st.refactorize()?;
        }
        Ok(st)
    }

    /// Builds a phase-2-ready state from a previously exported basis, or
    /// `None` when the basis cannot seed this problem (dimension mismatch,
    /// duplicate columns, singular factorization, or primal infeasibility
    /// for the new right-hand side).
    fn warm(
        sf: &'a StandardForm,
        opts: &'a SimplexOptions,
        warm: &Basis,
        ws: &'a mut SolverWorkspace,
    ) -> Option<State<'a>> {
        let n = sf.n_cols;
        let m = sf.m;
        if warm.cols.len() != m || warm.n_cols != n {
            return None;
        }
        // Decode the canonical basis: entries ≥ n name an artificial pinned
        // to a specific row (left behind by a linearly dependent row in the
        // exporting solve).
        let mut art_row: Vec<usize> = Vec::new();
        let mut basis: Vec<usize> = Vec::with_capacity(m);
        for &j in &warm.cols {
            if j < n {
                basis.push(j);
            } else {
                let r = j - n;
                if r >= m {
                    return None;
                }
                basis.push(n + art_row.len());
                art_row.push(r);
            }
        }
        let n_art = art_row.len();
        let mut in_basis = vec![false; n + n_art];
        for &j in &basis {
            if in_basis[j] {
                return None;
            }
            in_basis[j] = true;
        }
        {
            let mut row_seen = vec![false; m];
            for &r in &art_row {
                if row_seen[r] {
                    return None;
                }
                row_seen[r] = true;
            }
        }
        let mut cost = sf.c.clone();
        cost.extend(std::iter::repeat_n(0.0, n_art));
        ws.etas.clear();
        ws.factor.reset_identity(m);
        let mut st = State {
            sf,
            opts,
            ws,
            n,
            m,
            art_row,
            basis,
            in_basis,
            xb: vec![0.0; m],
            cost,
            iterations: 0,
            dual_iterations: 0,
            phase1_iterations: 0,
            refactorizations: 0,
            degenerate_run: 0,
            pricing: Pricing::Dantzig,
            allow_artificials: false,
        };
        if st.refactorize().is_err() {
            return None;
        }
        // Inherited artificials must still sit at level zero: they pin rows
        // the exporting solve found linearly dependent, and a nonzero value
        // there means the new right-hand side is inconsistent on that row.
        for (r, &j) in st.basis.iter().enumerate() {
            if j >= st.n && st.xb[r].abs() > opts.feas_tol {
                return None;
            }
        }
        // The new b may have pushed some basic values negative. The basis
        // is still *dual* feasible (costs did not change since it priced
        // out optimal), which is exactly the dual simplex's starting
        // condition — re-optimize with dual pivots instead of throwing the
        // basis away.
        if !st.dual_simplex() {
            return None;
        }
        for v in st.xb.iter_mut() {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
        Some(st)
    }

    /// First-class dual simplex over a dual-feasible basis.
    ///
    /// While some basic value is negative the basis stays primal
    /// infeasible but (by the caller's invariant) dual feasible, so each
    /// iteration picks a leaving row among the infeasible ones and an
    /// entering column via the **dual ratio test** — the nonbasic column
    /// minimizing `d_j / -α_j` over columns with `α_j < 0` in the leaving
    /// row of `B⁻¹A`, which is exactly the largest dual step that keeps
    /// every reduced cost nonnegative. Leaving-row selection is
    /// most-negative-value (the dual analogue of Dantzig pricing); after
    /// [`SimplexOptions::bland_after`] consecutive degenerate steps (dual
    /// ratio ≈ 0) it switches to the dual form of Bland's rule — leaving
    /// row with the smallest basic column index, entering column with the
    /// smallest index among the ratio-test minimizers — whose pivot
    /// sequence cannot cycle, so termination is guaranteed.
    ///
    /// Bounded variables need no dedicated bound-flip handling here: the
    /// standard-form transform already reduces every finite bound to
    /// `x ≥ 0` plus an explicit `x ≤ ub − lb` row, so the textbook
    /// nonnegative-variable ratio test is complete for this form.
    ///
    /// Shares the solver-wide pivot budget (`max_iterations`) and the
    /// periodic refactorization cadence with the primal path. Returns
    /// `true` on reaching primal feasibility (a primal-and-dual-feasible
    /// basis, i.e. optimal for the current costs); `false` when no
    /// entering column exists (primal infeasible or numerics too far
    /// gone), a pivot is unusable, or the budget is exhausted — the caller
    /// then falls back to a cold two-phase solve, so a `false` here never
    /// costs correctness.
    fn dual_simplex(&mut self) -> bool {
        let mut bland = self.opts.bland_after == 0;
        let mut degenerate_run = 0usize;
        loop {
            if self.iterations >= self.opts.max_iterations {
                return false;
            }
            if self.ws.etas.len() >= self.opts.refactor_every && self.refactorize().is_err() {
                return false;
            }
            let mut r_out = None;
            if bland {
                // Dual Bland's rule: the infeasible row whose *basic column*
                // index is smallest.
                let mut best_col = usize::MAX;
                for (r, &v) in self.xb.iter().enumerate() {
                    if v < -self.opts.feas_tol && self.basis[r] < best_col {
                        best_col = self.basis[r];
                        r_out = Some(r);
                    }
                }
            } else {
                let mut worst = -self.opts.feas_tol;
                for (r, &v) in self.xb.iter().enumerate() {
                    if v < worst {
                        worst = v;
                        r_out = Some(r);
                    }
                }
            }
            let Some(r) = r_out else {
                return true;
            };
            // Row r of B⁻¹A, via ρ = B⁻ᵀ·e_r.
            let mut rho = self.ws.grab(self.m);
            rho[r] = 1.0;
            self.btran(&mut rho);
            let y = self.duals();
            let mut best: Option<(usize, f64)> = None;
            for j in 0..self.n {
                if self.in_basis[j] {
                    continue;
                }
                let mut alpha = 0.0;
                self.for_col(j, |k, v| alpha += v * rho[k]);
                if alpha < -self.opts.pivot_tol {
                    // Clamp tiny negative reduced costs (eta-file drift);
                    // the ratio keeps the duals feasible after the pivot.
                    let ratio = self.reduced_cost(j, &y).max(0.0) / -alpha;
                    let better = match best {
                        None => true,
                        // Bland tie-breaking: strictly better ratio, or a
                        // smaller column index within the tie tolerance.
                        Some((bj, br)) if bland => {
                            ratio < br - 1e-9 || (ratio <= br + 1e-9 && j < bj)
                        }
                        Some((_, br)) => ratio < br,
                    };
                    if better {
                        best = Some((j, ratio));
                    }
                }
            }
            self.ws.stash(rho);
            self.ws.stash(y);
            let Some((j_in, ratio)) = best else {
                return false;
            };
            let w = self.pivot_column(j_in);
            if w[r] >= -self.opts.pivot_tol {
                self.ws.stash(w);
                return false;
            }
            let theta = self.xb[r] / w[r];
            if ratio <= 1e-12 {
                degenerate_run += 1;
                if degenerate_run > self.opts.bland_after {
                    bland = true;
                }
            } else {
                degenerate_run = 0;
            }
            self.pivot_with_theta(j_in, r, &w, theta);
            self.ws.stash(w);
            self.dual_iterations += 1;
        }
    }

    fn num_cols(&self) -> usize {
        self.n + self.art_row.len()
    }

    /// Applies `f(row, value)` to each nonzero of column `j` (handles
    /// artificial identity columns).
    #[inline]
    fn for_col<F: FnMut(usize, f64)>(&self, j: usize, mut f: F) {
        if j < self.n {
            for (r, v) in self.sf.a.column(j) {
                f(r, v);
            }
        } else {
            f(self.art_row[j - self.n], 1.0);
        }
    }

    /// Reduced cost of column `j` given duals `y`.
    #[inline]
    fn reduced_cost(&self, j: usize, y: &[f64]) -> f64 {
        let mut dot = 0.0;
        self.for_col(j, |r, v| dot += v * y[r]);
        self.cost[j] - dot
    }

    /// Forward solve `B·z = v` through the LU factors and the eta file.
    /// Input is row-indexed; output is basis-position-indexed.
    fn ftran(&self, v: &mut [f64]) {
        self.ws.factor.ftran(v);
        self.ws.etas.apply_ftran(v);
    }

    /// Transposed solve `Bᵀ·y = c` through the eta file and the LU
    /// factors. Input is basis-position-indexed; output is row-indexed.
    fn btran(&self, v: &mut [f64]) {
        self.ws.etas.apply_btran(v);
        self.ws.factor.btran(v);
    }

    /// `w = B⁻¹ · A_j`, scattered from the CSC column and solved sparsely.
    /// The vector comes from the workspace pool; return it with
    /// [`SolverWorkspace::stash`] once dead.
    fn pivot_column(&mut self, j: usize) -> Vec<f64> {
        let mut w = self.ws.grab(self.m);
        self.for_col(j, |r, v| w[r] += v);
        self.ftran(&mut w);
        w
    }

    /// Dual vector `y = B⁻ᵀ c_B`. Pooled like [`State::pivot_column`].
    fn duals(&mut self) -> Vec<f64> {
        let mut y = self.ws.grab(self.m);
        for (pos, &j) in self.basis.iter().enumerate() {
            y[pos] = self.cost[j];
        }
        self.btran(&mut y);
        y
    }

    fn run(&mut self) -> Result<RawSolution, LpError> {
        // ---- Phase 1: minimize sum of artificials ----
        if !self.art_row.is_empty() {
            for k in 0..self.art_row.len() {
                self.cost[self.n + k] = 1.0;
            }
            let outcome = self.optimize()?;
            debug_assert!(
                outcome != PhaseOutcome::Unbounded,
                "phase-1 objective is bounded below by zero"
            );
            let p1_obj: f64 =
                self.basis.iter().zip(&self.xb).map(|(&j, &x)| self.cost[j] * x).sum();
            if p1_obj > self.opts.feas_tol {
                self.phase1_iterations = self.iterations;
                return Ok(RawSolution {
                    status: Status::Infeasible,
                    x: vec![0.0; self.n],
                    y: vec![0.0; self.m],
                    objective: f64::NAN,
                    counts: self.counts(),
                    basis: None,
                });
            }
            self.evict_artificials()?;
            self.phase1_iterations = self.iterations;
            // Reset costs for phase 2 (artificials get cost 0 and are barred
            // from entering).
            for c in self.cost.iter_mut() {
                *c = 0.0;
            }
        }
        self.cost[..self.n].copy_from_slice(&self.sf.c);
        for k in 0..self.art_row.len() {
            self.cost[self.n + k] = 0.0;
        }
        self.allow_artificials = false;
        self.pricing = Pricing::Dantzig;
        self.degenerate_run = 0;
        self.finish_phase2()
    }

    /// Runs phase 2 from the current (feasible) basis to termination and
    /// packages the result. Shared by the cold path (after phase 1) and the
    /// warm path (directly).
    fn finish_phase2(&mut self) -> Result<RawSolution, LpError> {
        let mut outcome = self.optimize()?;
        if outcome == PhaseOutcome::Optimal
            && !self.ws.etas.is_empty()
            && self.ws.etas.len() >= self.opts.refactor_every / 4
        {
            // Clean accumulated eta-file drift out of the basis before
            // reporting, and re-verify optimality on the refreshed numbers.
            self.refactorize()?;
            outcome = self.optimize()?;
        }
        if outcome == PhaseOutcome::Unbounded {
            return Ok(RawSolution {
                status: Status::Unbounded,
                x: vec![0.0; self.n],
                y: vec![0.0; self.m],
                objective: f64::NEG_INFINITY,
                counts: self.counts(),
                basis: None,
            });
        }
        #[cfg(debug_assertions)]
        self.assert_optimality_certificate();

        let mut x = vec![0.0; self.n];
        for (r, &j) in self.basis.iter().enumerate() {
            if j < self.n {
                // Clamp tiny negative drift.
                x[j] = if self.xb[r] < 0.0 && self.xb[r] > -1e-9 { 0.0 } else { self.xb[r] };
            }
        }
        let y = self.duals();
        let objective = self.sf.c.iter().zip(&x).map(|(c, v)| c * v).sum();
        Ok(RawSolution {
            status: Status::Optimal,
            x,
            y,
            objective,
            counts: self.counts(),
            basis: Some(self.export_basis()),
        })
    }

    /// The effort counters so far. `warm_started` is stamped by
    /// [`SimplexSolver::solve_warm`], which alone knows which path returned.
    fn counts(&self) -> SolveCounts {
        SolveCounts {
            iterations: self.iterations,
            dual_iterations: self.dual_iterations,
            phase1_iterations: self.phase1_iterations,
            refactorizations: self.refactorizations,
            artificials: self.art_row.len(),
            warm_started: false,
        }
    }

    /// Canonical encoding of the current basis (artificials become
    /// `n + row` markers, independent of solver-internal ordering).
    fn export_basis(&self) -> Basis {
        let cols = self
            .basis
            .iter()
            .map(|&j| if j < self.n { j } else { self.n + self.art_row[j - self.n] })
            .collect();
        Basis { cols, n_cols: self.n }
    }

    /// Pivots until the current cost vector is optimal.
    fn optimize(&mut self) -> Result<PhaseOutcome, LpError> {
        loop {
            if self.iterations >= self.opts.max_iterations {
                return Err(LpError::IterationLimit { limit: self.opts.max_iterations });
            }
            if self.ws.etas.len() >= self.opts.refactor_every {
                self.refactorize()?;
            }
            let y = self.duals();
            let entering = self.price(&y);
            self.ws.stash(y);
            let Some(j_in) = entering else {
                return Ok(PhaseOutcome::Optimal);
            };
            let w = self.pivot_column(j_in);
            let Some(r_out) = self.ratio_test(&w) else {
                self.ws.stash(w);
                return Ok(PhaseOutcome::Unbounded);
            };
            self.pivot(j_in, r_out, &w);
            self.ws.stash(w);
        }
    }

    /// Chooses an entering column with negative reduced cost, or `None` at
    /// optimality.
    fn price(&self, y: &[f64]) -> Option<usize> {
        let limit = if self.allow_artificials { self.num_cols() } else { self.n };
        match self.pricing {
            Pricing::Bland => (0..limit)
                .find(|&j| !self.in_basis[j] && self.reduced_cost(j, y) < -self.opts.pricing_tol),
            Pricing::Dantzig => {
                let mut best: Option<(usize, f64)> = None;
                for j in 0..limit {
                    if self.in_basis[j] {
                        continue;
                    }
                    let d = self.reduced_cost(j, y);
                    if d < -self.opts.pricing_tol && best.is_none_or(|(_, bd)| d < bd) {
                        best = Some((j, d));
                    }
                }
                best.map(|(j, _)| j)
            }
        }
    }

    /// Standard ratio test. Ties are broken for numerical stability by the
    /// largest pivot element (Dantzig mode) or, under Bland's rule, by the
    /// smallest basis column index (required for the termination guarantee).
    fn ratio_test(&self, w: &[f64]) -> Option<usize> {
        let mut min_ratio = f64::INFINITY;
        for (&wr, &xbr) in w.iter().zip(&self.xb) {
            if wr > self.opts.pivot_tol {
                min_ratio = min_ratio.min(xbr.max(0.0) / wr);
            }
        }
        if !min_ratio.is_finite() {
            return None;
        }
        let tied = (0..self.m).filter(|&r| {
            w[r] > self.opts.pivot_tol && self.xb[r].max(0.0) / w[r] <= min_ratio + 1e-9
        });
        match self.pricing {
            Pricing::Bland => tied.min_by_key(|&r| self.basis[r]),
            // total_cmp instead of partial_cmp: a NaN pivot weight (which a
            // pathological column could produce) must not panic the solver;
            // NaN sorts above every finite value under the IEEE total order,
            // and a NaN pivot element is then rejected by refactorization.
            Pricing::Dantzig => tied.max_by(|&a, &b| w[a].total_cmp(&w[b])),
        }
    }

    /// Executes the pivot: `j_in` enters, row `r_out` leaves. Costs
    /// O(nnz(w)): the basis representation absorbs the change as one
    /// appended eta vector instead of an O(m²) inverse update.
    fn pivot(&mut self, j_in: usize, r_out: usize, w: &[f64]) {
        let theta = (self.xb[r_out].max(0.0)) / w[r_out];
        self.pivot_with_theta(j_in, r_out, w, theta);
    }

    /// The pivot bookkeeping with an explicit step length: the primal path
    /// derives `theta` from the clamped ratio test, the dual repair path
    /// from a negative basic value over a negative pivot element.
    fn pivot_with_theta(&mut self, j_in: usize, r_out: usize, w: &[f64], theta: f64) {
        debug_assert!(!self.in_basis[j_in], "entering column {j_in} is already basic");
        debug_assert!(self.in_basis[self.basis[r_out]], "leaving column must currently be basic");
        if theta <= 1e-12 {
            self.degenerate_run += 1;
            if self.degenerate_run > self.opts.bland_after {
                self.pricing = Pricing::Bland;
            }
        } else {
            self.degenerate_run = 0;
            if self.pricing == Pricing::Bland {
                self.pricing = Pricing::Dantzig;
            }
        }

        // Update basic values.
        for (r, (xbr, &wr)) in self.xb.iter_mut().zip(w).enumerate() {
            if r != r_out {
                *xbr -= theta * wr;
            }
        }
        self.xb[r_out] = theta;

        // Record the product-form update B_new = B_old · E, where E is the
        // identity with column r_out replaced by w.
        self.ws.etas.push(r_out, w, self.opts.eta_drop_tol);

        let j_out = self.basis[r_out];
        self.in_basis[j_out] = false;
        self.in_basis[j_in] = true;
        self.basis[r_out] = j_in;
        self.iterations += 1;
        debug_assert_eq!(
            self.in_basis.iter().filter(|&&b| b).count(),
            self.m,
            "basis must hold exactly m distinct columns after a pivot"
        );
    }

    /// Debug-only optimality certificate: with the current duals, every
    /// column still eligible to enter must have a nonnegative reduced cost
    /// (up to pricing tolerance). Makes `cargo test` in debug mode an
    /// executable proof that `Optimal` is only ever reported together with a
    /// valid dual certificate.
    #[cfg(debug_assertions)]
    fn assert_optimality_certificate(&mut self) {
        let y = self.duals();
        let limit = if self.allow_artificials { self.num_cols() } else { self.n };
        for j in 0..limit {
            if self.in_basis[j] {
                continue;
            }
            let d = self.reduced_cost(j, &y);
            debug_assert!(
                d >= -self.opts.pricing_tol,
                "optimality certificate violated: column {j} has reduced cost {d}"
            );
        }
        self.ws.stash(y);
    }

    /// Pivot zero-level artificials out of the basis where a real column has
    /// a usable pivot element; rows where none exists are linearly dependent
    /// and keep their artificial (harmless: that row of `B⁻¹A` is zero for
    /// every real column, so no later pivot can change the artificial's
    /// value — the update formula subtracts multiples of `w[r] = 0`).
    fn evict_artificials(&mut self) -> Result<(), LpError> {
        for r in 0..self.m {
            if self.basis[r] < self.n {
                continue;
            }
            // Row r of B⁻¹ is B⁻ᵀ·e_r, a transposed solve away.
            let mut brow = self.ws.grab(self.m);
            brow[r] = 1.0;
            self.btran(&mut brow);
            let mut found = None;
            for j in 0..self.n {
                if self.in_basis[j] {
                    continue;
                }
                let mut piv = 0.0;
                self.for_col(j, |k, v| piv += v * brow[k]);
                if piv.abs() > self.opts.pivot_tol * 10.0 {
                    found = Some(j);
                    break;
                }
            }
            self.ws.stash(brow);
            if let Some(j) = found {
                let w = self.pivot_column(j);
                self.pivot(j, r, &w);
                self.ws.stash(w);
            }
        }
        Ok(())
    }

    /// Rebuilds the sparse LU from the basis columns, clears the eta file,
    /// and recomputes `x_B`. The gather buffer and the factor live in the
    /// workspace, so repeated refactorizations reuse their allocations. On
    /// error the factor is unusable, and every caller abandons the state.
    fn refactorize(&mut self) -> Result<(), LpError> {
        let mut cols = std::mem::take(&mut self.ws.factor_cols);
        cols.clear();
        for &j in &self.basis {
            cols.push_column(|col| self.for_col(j, |r, v| col.push((r, v))));
        }
        let factored = self.ws.factor.factorize(&cols, 1e-12);
        self.ws.factor_cols = cols;
        factored?;
        self.refactorizations += 1;
        self.ws.etas.clear();
        let mut xb = std::mem::take(&mut self.xb);
        xb.clear();
        xb.extend_from_slice(&self.sf.b);
        self.ws.factor.ftran(&mut xb);
        for v in xb.iter_mut() {
            if *v < 0.0 && *v > -1e-9 {
                *v = 0.0;
            }
        }
        self.xb = xb;
        Ok(())
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PhaseOutcome {
    Optimal,
    Unbounded,
}

#[cfg(test)]
mod tests {
    use super::{SolverWorkspace, State};
    use crate::standard::StandardForm;
    use crate::{LinExpr, Model, Sense, SimplexOptions, Status, Variable};

    #[test]
    fn equality_constraints_need_artificials() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, f64::INFINITY);
        let y = m.add_var("y", 0.0, f64::INFINITY);
        m.set_objective(x + 2.0 * y);
        m.eq(x + y, 3.0);
        let s = m.solve().unwrap();
        assert_eq!(s.status(), Status::Optimal);
        assert!((s.value(x) - 3.0).abs() < 1e-7);
        assert!((s.objective() - 3.0).abs() < 1e-7);
    }

    #[test]
    fn geq_rows_need_artificials() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, f64::INFINITY);
        m.set_objective(LinExpr::from(x));
        m.geq(LinExpr::from(x), 2.5);
        let s = m.solve().unwrap();
        assert!((s.value(x) - 2.5).abs() < 1e-7);
    }

    #[test]
    fn infeasible_detected() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, f64::INFINITY);
        m.set_objective(LinExpr::from(x));
        m.leq(LinExpr::from(x), 1.0);
        m.geq(LinExpr::from(x), 2.0);
        let s = m.solve().unwrap();
        assert_eq!(s.status(), Status::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, f64::INFINITY);
        m.set_objective(LinExpr::from(x));
        m.geq(LinExpr::from(x), 1.0);
        let s = m.solve().unwrap();
        assert_eq!(s.status(), Status::Unbounded);
    }

    #[test]
    fn redundant_equalities_are_harmless() {
        // x + y = 2 stated twice: the second row is linearly dependent, so an
        // artificial stays in the basis at level zero.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, f64::INFINITY);
        let y = m.add_var("y", 0.0, f64::INFINITY);
        m.set_objective(3.0 * x + y);
        m.eq(x + y, 2.0);
        m.eq(x + y, 2.0);
        let s = m.solve().unwrap();
        assert_eq!(s.status(), Status::Optimal);
        assert!((s.objective() - 2.0).abs() < 1e-7);
        assert!((s.value(y) - 2.0).abs() < 1e-7);
    }

    #[test]
    fn crash_covers_zero_rhs_conservation_rows() {
        // Five units along a three-arc path. The release row has b = 5 and
        // keeps its artificial; the crash covers both zero-RHS conservation
        // rows with arc columns, so the cold start needs one artificial.
        let mut m = Model::new(Sense::Minimize);
        let a = m.add_var("a", 0.0, f64::INFINITY);
        let b = m.add_var("b", 0.0, f64::INFINITY);
        let c = m.add_var("c", 0.0, f64::INFINITY);
        m.set_objective(a + 2.0 * b + 3.0 * c);
        m.eq(LinExpr::from(a), 5.0);
        m.eq(b - a, 0.0);
        m.geq(c - b, 0.0);
        let s = m.solve().unwrap();
        assert_eq!(s.status(), Status::Optimal);
        assert!((s.objective() - 30.0).abs() < 1e-9, "objective = {}", s.objective());
        assert_eq!(s.artificials(), 1);
    }

    /// The cold start basis of `model`'s standard form.
    fn cold_start(model: &Model) -> (StandardForm, Vec<usize>) {
        let sf = StandardForm::from_model(model);
        let opts = SimplexOptions::default();
        let mut ws = SolverWorkspace::new();
        let basis = State::new(&sf, &opts, &mut ws).expect("the start factorizes").basis;
        (sf, basis)
    }

    #[test]
    fn crash_covers_each_node_with_an_arc_leaving_it() {
        // One file of 5 units from DC 0 to DC 2 over a three-slot window of
        // a three-DC time-expanded graph, laid out like the Postcard LP:
        // storage and transit arcs between consecutive layers, final-slot
        // arcs only into the destination, and per transit arc a capacity
        // row and an envelope row against the link's charged volume.
        let (dcs, slots, src, dst) = (3, 3, 0, 2);
        let mut m = Model::new(Sense::Minimize);
        let charged: Vec<Vec<Variable>> = (0..dcs)
            .map(|u| (0..dcs).map(|v| m.add_var(format!("X{u}{v}"), 0.0, f64::INFINITY)).collect())
            .collect();
        let mut obj = LinExpr::new();
        for (u, row) in charged.iter().enumerate() {
            for (v, &x) in row.iter().enumerate() {
                obj.add_term(x, (1 + u + v) as f64);
            }
        }
        m.set_objective(obj);
        let mut node = vec![vec![LinExpr::new(); dcs]; slots];
        for t in 0..slots {
            for u in 0..dcs {
                for v in 0..dcs {
                    if t + 1 == slots && v != dst {
                        continue;
                    }
                    let arc = m.add_var(format!("M{u}{v}@{t}"), 0.0, f64::INFINITY);
                    node[t][u].add_term(arc, 1.0);
                    if t + 1 < slots {
                        node[t + 1][v].add_term(arc, -1.0);
                    }
                    if u != v {
                        m.leq(LinExpr::from(arc), 4.0);
                        m.leq(arc - charged[u][v], 0.0);
                    }
                }
            }
        }
        let mut conservation = Vec::new();
        for (t, layer) in node.into_iter().enumerate() {
            for (u, expr) in layer.into_iter().enumerate() {
                let rhs = if t == 0 && u == src { 5.0 } else { 0.0 };
                conservation.push(m.eq(expr, rhs));
            }
        }
        let (sf, basis) = cold_start(&m);
        let mut covered = 0;
        for c in conservation {
            let r = sf.row_of_constraint[c.index()].expect("conservation rows are kept");
            if sf.b[r] > 0.0 {
                assert!(basis[r] >= sf.n_cols, "the release row keeps its artificial");
                continue;
            }
            let j = basis[r];
            assert!(j < sf.n_cols, "zero-RHS row {r} is covered");
            assert!(sf.a.get(r, j) > 0.0, "row {r} is covered by an arc entering it");
            covered += 1;
        }
        assert_eq!(covered, slots * dcs - 1);
        let s = m.solve().unwrap();
        assert_eq!(s.status(), Status::Optimal);
        assert_eq!(s.artificials(), 1);
    }

    #[test]
    fn crash_prefers_the_sparser_column() {
        // Both columns have one open entry, in the conservation row; their
        // other entries sit in rows that start on their slacks. The
        // four-entry `transit` has the lower index, yet the two-entry
        // `storage` covers the row.
        let mut m = Model::new(Sense::Minimize);
        let transit = m.add_var("transit", 0.0, f64::INFINITY);
        let storage = m.add_var("storage", 0.0, f64::INFINITY);
        let feed = m.add_var("feed", 0.0, f64::INFINITY);
        m.set_objective(2.0 * transit + storage);
        let row = m.eq(transit + storage - feed, 0.0);
        m.eq(LinExpr::from(feed), 3.0);
        for cap in [4.0, 5.0, 6.0] {
            m.leq(LinExpr::from(transit), cap);
        }
        m.leq(LinExpr::from(storage), 7.0);
        let (sf, basis) = cold_start(&m);
        let r = sf.row_of_constraint[row.index()].expect("the row is kept");
        assert_eq!(sf.a.column(basis[r]).count(), 2);
        let s = m.solve().unwrap();
        assert_eq!(s.status(), Status::Optimal);
        assert!((s.objective() - 3.0).abs() < 1e-9, "objective = {}", s.objective());
    }

    #[test]
    fn crash_leaves_duplicate_rows_to_artificials() {
        // Both copies of a zero-RHS row touch the same columns, so no
        // column has exactly one entry among them and neither is covered.
        // Phase 1 then runs from today's start and keeps the dependent
        // copy's artificial at level zero.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, f64::INFINITY);
        let y = m.add_var("y", 0.0, f64::INFINITY);
        m.set_objective(3.0 * x + y);
        m.eq(x - y, 0.0);
        m.eq(x - y, 0.0);
        m.eq(x + y, 2.0);
        let s = m.solve().unwrap();
        assert_eq!(s.status(), Status::Optimal);
        assert!((s.objective() - 4.0).abs() < 1e-9, "objective = {}", s.objective());
        assert_eq!(s.artificials(), 3);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Classic degeneracy: multiple constraints through the origin.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, f64::INFINITY);
        let y = m.add_var("y", 0.0, f64::INFINITY);
        m.set_objective(x + y);
        m.leq(x - y, 0.0);
        m.leq(y - x, 0.0);
        m.leq(x + y, 2.0);
        let s = m.solve().unwrap();
        assert_eq!(s.status(), Status::Optimal);
        assert!((s.objective() - 2.0).abs() < 1e-7);
    }

    #[test]
    fn beale_cycling_example_terminates() {
        // Beale (1955): the textbook instance on which Dantzig pricing with
        // naive tie-breaking cycles forever. Optimum: z = 0.05 at
        // x = (1/25, 0, 1, 0).
        let mut m = Model::new(Sense::Minimize);
        let x1 = m.add_var("x1", 0.0, f64::INFINITY);
        let x2 = m.add_var("x2", 0.0, f64::INFINITY);
        let x3 = m.add_var("x3", 0.0, f64::INFINITY);
        let x4 = m.add_var("x4", 0.0, f64::INFINITY);
        m.set_objective(-0.75 * x1 + 150.0 * x2 - 0.02 * x3 + 6.0 * x4);
        m.leq(0.25 * x1 - 60.0 * x2 - 0.04 * x3 + 9.0 * x4, 0.0);
        m.leq(0.5 * x1 - 90.0 * x2 - 0.02 * x3 + 3.0 * x4, 0.0);
        m.leq(LinExpr::from(x3), 1.0);
        let s = m.solve().unwrap();
        assert_eq!(s.status(), Status::Optimal);
        assert!((s.objective() + 0.05).abs() < 1e-7, "objective = {}", s.objective());
        assert!((s.value(x3) - 1.0).abs() < 1e-7);
    }

    #[test]
    fn blands_rule_terminates_under_sparse_pricer() {
        // Beale's cycling instance again, but forced onto Bland's rule from
        // the very first pivot (bland_after = 0 trips the switch on the
        // first degenerate step). Termination at the known optimum shows
        // the anti-cycling guarantee survives the sparse pricing path.
        let mut m = Model::new(Sense::Minimize);
        let x1 = m.add_var("x1", 0.0, f64::INFINITY);
        let x2 = m.add_var("x2", 0.0, f64::INFINITY);
        let x3 = m.add_var("x3", 0.0, f64::INFINITY);
        let x4 = m.add_var("x4", 0.0, f64::INFINITY);
        m.set_objective(-0.75 * x1 + 150.0 * x2 - 0.02 * x3 + 6.0 * x4);
        m.leq(0.25 * x1 - 60.0 * x2 - 0.04 * x3 + 9.0 * x4, 0.0);
        m.leq(0.5 * x1 - 90.0 * x2 - 0.02 * x3 + 3.0 * x4, 0.0);
        m.leq(LinExpr::from(x3), 1.0);
        let opts = SimplexOptions { bland_after: 0, ..Default::default() };
        let s = m.solve_with(&opts).unwrap();
        assert_eq!(s.status(), Status::Optimal);
        assert!((s.objective() + 0.05).abs() < 1e-7, "objective = {}", s.objective());
    }

    #[test]
    fn klee_minty_cube_terminates_optimally() {
        // The Klee–Minty cube (n = 6): exponential worst case for Dantzig
        // pricing but must still terminate at the known optimum 5^n... the
        // standard form max Σ 2^{n-j} x_j with nested constraints; optimum
        // is 5^n at the last vertex.
        let n = 6usize;
        let mut m = Model::new(Sense::Maximize);
        let xs: Vec<_> = (0..n).map(|i| m.add_var(format!("x{i}"), 0.0, f64::INFINITY)).collect();
        let mut obj = LinExpr::new();
        for (j, &x) in xs.iter().enumerate() {
            obj.add_term(x, 2f64.powi((n - 1 - j) as i32));
        }
        m.set_objective(obj);
        for i in 0..n {
            let mut e = LinExpr::new();
            for (j, &xj) in xs.iter().enumerate().take(i) {
                e.add_term(xj, 2f64.powi((i - j + 1) as i32));
            }
            e.add_term(xs[i], 1.0);
            m.leq(e, 5f64.powi(i as i32 + 1));
        }
        let s = m.solve().unwrap();
        assert_eq!(s.status(), Status::Optimal);
        assert!((s.objective() - 5f64.powi(n as i32)).abs() < 1e-6, "{}", s.objective());
    }

    #[test]
    fn iteration_limit_respected() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, f64::INFINITY);
        let y = m.add_var("y", 0.0, f64::INFINITY);
        m.set_objective(3.0 * x + 2.0 * y);
        m.leq(x + y, 4.0);
        m.leq(x + 3.0 * y, 6.0);
        let opts = SimplexOptions { max_iterations: 0, ..Default::default() };
        assert!(matches!(m.solve_with(&opts), Err(crate::LpError::IterationLimit { limit: 0 })));
    }

    const SUPPLY: [f64; 3] = [20.0, 30.0, 25.0];
    const DEMAND: [f64; 4] = [10.0, 25.0, 15.0, 25.0];

    /// A 3 supplies × 4 demands balanced transportation problem, stated
    /// with equality rows so phase 1 has artificials to drive out.
    fn transportation_model() -> (Model, Vec<Vec<Variable>>) {
        let cost = [[4.0, 6.0, 8.0, 8.0], [6.0, 8.0, 6.0, 7.0], [5.0, 7.0, 6.0, 8.0]];
        let mut m = Model::new(Sense::Minimize);
        let mut vars = Vec::new();
        for i in 0..3 {
            let mut row = Vec::new();
            for j in 0..4 {
                row.push(m.add_var(format!("x{i}{j}"), 0.0, f64::INFINITY));
            }
            vars.push(row);
        }
        let mut obj = LinExpr::new();
        for i in 0..3 {
            for j in 0..4 {
                obj.add_term(vars[i][j], cost[i][j]);
            }
        }
        m.set_objective(obj);
        for i in 0..3 {
            let e: LinExpr = (0..4).map(|j| LinExpr::from(vars[i][j])).sum();
            m.eq(e, SUPPLY[i]);
        }
        for j in 0..4 {
            let e: LinExpr = (0..3).map(|i| LinExpr::from(vars[i][j])).sum();
            m.eq(e, DEMAND[j]);
        }
        (m, vars)
    }

    #[test]
    fn larger_transportation_problem() {
        // Known optimum computed by hand via the MODI method.
        let (supply, demand) = (SUPPLY, DEMAND);
        let (m, vars) = transportation_model();
        let s = m.solve().unwrap();
        assert_eq!(s.status(), Status::Optimal);
        // Verify against exhaustive LP relaxation optimum computed offline.
        // Feasibility checks:
        for i in 0..3 {
            let tot: f64 = (0..4).map(|j| s.value(vars[i][j])).sum();
            assert!((tot - supply[i]).abs() < 1e-6);
        }
        for j in 0..4 {
            let tot: f64 = (0..3).map(|i| s.value(vars[i][j])).sum();
            assert!((tot - demand[j]).abs() < 1e-6);
        }
        // The optimum of this balanced instance is 470, independently
        // verified with a successive-shortest-paths min-cost-flow solver
        // (integral data, so the LP optimum coincides).
        assert!((s.objective() - 470.0).abs() < 1e-6, "objective = {}", s.objective());
    }

    #[test]
    fn solve_counts_phase1_pivots_and_refactorizations() {
        // A refactorization every 3 pivots on the transportation problem:
        // the counts are part of the pivot path, so any change to pivot
        // selection or factorization cadence moves them.
        let (m, _) = transportation_model();
        let opts = SimplexOptions { refactor_every: 3, ..Default::default() };
        let s = m.solve_with(&opts).unwrap();
        assert_eq!(s.status(), Status::Optimal);
        assert!((s.objective() - 470.0).abs() < 1e-6, "objective = {}", s.objective());
        assert_eq!(s.iterations(), 13);
        assert_eq!(s.phase1_iterations(), 10);
        assert_eq!(s.refactorizations(), 5);
        assert_eq!(s.dual_iterations(), 0);
        assert!(!s.warm_started());
    }

    #[test]
    fn warm_restart_from_optimal_basis_takes_zero_pivots() {
        // Re-solving the same problem from its own exported basis must not
        // pivot at all: the basis prices out immediately.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, f64::INFINITY);
        let y = m.add_var("y", 0.0, f64::INFINITY);
        m.set_objective(2.0 * x + 3.0 * y);
        m.geq(x + y, 4.0);
        m.leq(x - y, 1.0);
        let cold = m.solve().unwrap();
        assert_eq!(cold.status(), Status::Optimal);
        let basis = cold.basis().expect("optimal solve exports a basis").clone();
        let warm = m.solve_warm(&SimplexOptions::default(), Some(&basis)).unwrap();
        assert_eq!(warm.status(), Status::Optimal);
        assert!((warm.objective() - cold.objective()).abs() < 1e-9);
        assert_eq!(warm.iterations(), 0, "warm restart should not pivot");
        assert!(warm.warm_started(), "the exported basis seeds the re-solve");
        assert!(!cold.warm_started());
    }

    #[test]
    fn warm_start_survives_rhs_change() {
        // Same constraint shape, different right-hand side: the old basis
        // stays feasible here and the warm solve must agree with cold.
        let build = |cap: f64| {
            let mut m = Model::new(Sense::Minimize);
            let x = m.add_var("x", 0.0, f64::INFINITY);
            let y = m.add_var("y", 0.0, f64::INFINITY);
            m.set_objective(5.0 * x + 4.0 * y);
            m.geq(x + y, cap);
            m.leq(2.0 * x + y, 3.0 * cap);
            m
        };
        let first = build(4.0).solve().unwrap();
        let basis = first.basis().expect("basis exported").clone();
        let m2 = build(5.0);
        let warm = m2.solve_warm(&SimplexOptions::default(), Some(&basis)).unwrap();
        let cold = m2.solve().unwrap();
        assert_eq!(warm.status(), Status::Optimal);
        assert!(
            (warm.objective() - cold.objective()).abs() < 1e-6,
            "warm {} vs cold {}",
            warm.objective(),
            cold.objective()
        );
        assert!(warm.iterations() <= cold.iterations());
    }

    #[test]
    fn warm_start_repairs_primal_infeasible_basis_with_dual_pivots() {
        // Tightening `x ≤ 3` to `x ≤ 1` drives the exported basis primal
        // infeasible (its slack goes negative), but it stays dual feasible:
        // the dual repair must recover the new optimum in fewer pivots than
        // a cold two-phase solve instead of falling back.
        let build = |cap: f64| {
            let mut m = Model::new(Sense::Minimize);
            let x = m.add_var("x", 0.0, f64::INFINITY);
            let y = m.add_var("y", 0.0, f64::INFINITY);
            m.set_objective(x + 2.0 * y);
            m.geq(x + y, 2.0);
            m.leq(LinExpr::from(x), cap);
            m
        };
        let first = build(3.0).solve().unwrap();
        assert_eq!(first.status(), Status::Optimal);
        let basis = first.basis().expect("basis exported").clone();
        let m2 = build(1.0);
        let cold = m2.solve().unwrap();
        let warm = m2.solve_warm(&SimplexOptions::default(), Some(&basis)).unwrap();
        assert_eq!(warm.status(), Status::Optimal);
        assert!(
            (warm.objective() - cold.objective()).abs() < 1e-9,
            "warm {} vs cold {}",
            warm.objective(),
            cold.objective()
        );
        assert!((warm.objective() - 3.0).abs() < 1e-9);
        assert!(
            warm.iterations() < cold.iterations(),
            "repair should beat the cold solve: warm {} vs cold {}",
            warm.iterations(),
            cold.iterations()
        );
    }

    #[test]
    fn warm_start_with_mismatched_dimensions_falls_back_to_cold() {
        let mut small = Model::new(Sense::Minimize);
        let x = small.add_var("x", 0.0, f64::INFINITY);
        small.set_objective(LinExpr::from(x));
        small.geq(LinExpr::from(x), 1.0);
        let basis = small.solve().unwrap().basis().expect("basis").clone();

        let mut big = Model::new(Sense::Minimize);
        let a = big.add_var("a", 0.0, f64::INFINITY);
        let b = big.add_var("b", 0.0, f64::INFINITY);
        big.set_objective(a + b);
        big.geq(a + b, 2.0);
        big.leq(a - b, 1.0);
        let s = big.solve_warm(&SimplexOptions::default(), Some(&basis)).unwrap();
        assert_eq!(s.status(), Status::Optimal);
        assert!(!s.warm_started(), "an offered but rejected basis is not a warm start");
        assert!((s.objective() - 2.0).abs() < 1e-7);
    }

    #[test]
    fn warm_basis_round_trips_through_rank_deficient_rows() {
        // A redundant equality leaves an artificial in the exported basis
        // (canonically encoded); warm-starting from it must still work.
        let build = || {
            let mut m = Model::new(Sense::Minimize);
            let x = m.add_var("x", 0.0, f64::INFINITY);
            let y = m.add_var("y", 0.0, f64::INFINITY);
            m.set_objective(3.0 * x + y);
            m.eq(x + y, 2.0);
            m.eq(x + y, 2.0);
            m
        };
        let cold = build().solve().unwrap();
        let basis = cold.basis().expect("basis exported despite dependent row").clone();
        let warm = build().solve_warm(&SimplexOptions::default(), Some(&basis)).unwrap();
        assert_eq!(warm.status(), Status::Optimal);
        assert!((warm.objective() - cold.objective()).abs() < 1e-9);
        assert_eq!(warm.iterations(), 0);
    }

    #[test]
    fn infeasible_and_unbounded_export_no_basis() {
        let mut inf = Model::new(Sense::Minimize);
        let x = inf.add_var("x", 0.0, f64::INFINITY);
        inf.set_objective(LinExpr::from(x));
        inf.leq(LinExpr::from(x), 1.0);
        inf.geq(LinExpr::from(x), 2.0);
        assert!(inf.solve().unwrap().basis().is_none());

        let mut unb = Model::new(Sense::Maximize);
        let y = unb.add_var("y", 0.0, f64::INFINITY);
        unb.set_objective(LinExpr::from(y));
        unb.geq(LinExpr::from(y), 1.0);
        assert!(unb.solve().unwrap().basis().is_none());
    }

    /// A seeded transportation LP: `sources × sinks` arcs with integer
    /// costs, every source shipping at most its supply and every sink
    /// receiving at least its demand (total supply exceeds total demand by
    /// `slack`, which a negative value makes infeasible). Every other arc is
    /// capped, so the form has bound rows too.
    fn random_transport(seed: u64, sources: usize, sinks: usize, slack: f64) -> Model {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut m = Model::new(Sense::Minimize);
        let vars: Vec<Vec<Variable>> = (0..sources)
            .map(|i| {
                (0..sinks)
                    .map(|j| {
                        let cap = if (i + j) % 2 == 0 { f64::INFINITY } else { 40.0 };
                        m.add_anon_var(0.0, cap)
                    })
                    .collect()
            })
            .collect();
        let mut obj = LinExpr::new();
        for row in &vars {
            for &x in row {
                obj.add_term(x, f64::from(rng.gen_range(1..20u32)));
            }
        }
        m.set_objective(obj);
        let demand: Vec<f64> = (0..sinks).map(|_| f64::from(rng.gen_range(5..30u32))).collect();
        let per_source = (demand.iter().sum::<f64>() + slack) / sources as f64;
        for row in &vars {
            m.leq(row.iter().map(|&x| (x, 1.0)).collect::<LinExpr>(), per_source);
        }
        for (j, &d) in demand.iter().enumerate() {
            m.geq(vars.iter().map(|row| (row[j], 1.0)).collect::<LinExpr>(), d);
        }
        m
    }

    /// Everything a solve reports, as bits.
    fn solution_bits(s: &crate::Solution) -> impl PartialEq + std::fmt::Debug {
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        (
            s.status(),
            s.objective().to_bits(),
            bits(s.values()),
            bits(s.duals()),
            [s.iterations(), s.phase1_iterations(), s.dual_iterations(), s.refactorizations()],
            s.artificials(),
            s.basis().cloned(),
        )
    }

    #[test]
    fn a_used_workspace_solves_like_a_fresh_one() {
        let opts = SimplexOptions::default();
        let solve = |model: &Model, ws: &mut SolverWorkspace| {
            model.prepare().unwrap().solve_warm(model, &opts, None, ws).unwrap()
        };
        let target = random_transport(1, 6, 7, 10.0);
        let fresh = solve(&target, &mut SolverWorkspace::new());
        assert_eq!(fresh.status(), Status::Optimal);
        assert!(fresh.refactorizations() > 0, "the target refactorizes");

        let larger = random_transport(2, 20, 24, 25.0);
        let smaller = random_transport(3, 2, 2, 1.0);
        let infeasible = random_transport(4, 5, 5, -20.0);
        let mut ws = SolverWorkspace::new();
        let big = solve(&larger, &mut ws);
        assert!(big.refactorizations() > 1, "the larger LP refactorizes mid-solve");
        assert_eq!(solve(&smaller, &mut ws).status(), Status::Optimal);
        assert_eq!(solve(&infeasible, &mut ws).status(), Status::Infeasible);
        assert_eq!(solution_bits(&solve(&target, &mut ws)), solution_bits(&fresh));
        // And again, straight after itself.
        assert_eq!(solution_bits(&solve(&target, &mut ws)), solution_bits(&fresh));
    }
}
