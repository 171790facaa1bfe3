//! The Postcard LP on the time-expanded graph (paper Eq. 6–10).
//!
//! For a batch of files `K(t)` and the committed traffic in the ledger, the
//! problem is:
//!
//! ```text
//! min   Σ_{i,j} a_ij · X_ij                                           (6)
//! s.t.  Σ_k M_ijn^k ≤ c_ijn                    ∀ transit arcs          (7)
//!       conservation per file per node-layer                           (8)
//!       M_ijn^k ≥ 0                                                    (9)
//!       M_ijn^k = 0 outside file k's window                           (10)
//!       X_ij ≥ X_ij(t−1)                     (charged volume floor)
//!       X_ij ≥ usage_ij(n) + Σ_k M_ijn^k     ∀ horizon slots n
//! ```
//!
//! The last two rows are the *exact* linearization of the paper's
//! `X_ij(t) = max(X_ij(t−1), max_n Σ_k M_ij^k(n))`: because `a_ij ≥ 0` and
//! `X_ij` is minimized, it settles on the max. The result is an LP whose
//! optimum equals the paper's convex program's.
//!
//! Constraint (10) is enforced *structurally*: variables only exist for arcs
//! inside a file's `[release, release + T_k)` window, and arcs of the final
//! window slot that do not point at the destination get no variable either —
//! so delivery-by-deadline is implied by conservation (a telescoping sum
//! pushes all `F_k` across the last layer, where only destination-bound arcs
//! exist).
//!
//! The builder's crate-private pieces also assemble the Sec. VI problems in
//! [`crate::extensions`], which differ only in data passed to them.

use crate::error::PostcardError;
use postcard_lp::{LinExpr, Model, Sense, SimplexOptions, Solution, Status, Variable};
use postcard_net::{
    Arc, ArcId, ArcKind, LinkView, Network, TimeExpandedGraph, TimeNode, TrafficLedger,
    TransferPlan, TransferRequest,
};
use std::collections::BTreeMap;

/// Tuning knobs for [`solve_postcard_with`].
#[derive(Debug, Clone)]
pub struct PostcardConfig {
    /// When `false`, storage arcs at *intermediate* datacenters are removed
    /// (arcs at the source and destination remain, so files may still be
    /// paced at the source and rest at the destination). This is the
    /// "source-scheduling-only" ablation benchmarked in `ablations.rs`.
    pub allow_relay_storage: bool,
    /// Options passed to the simplex solver.
    pub simplex: SimplexOptions,
}

impl Default for PostcardConfig {
    fn default() -> Self {
        Self { allow_relay_storage: true, simplex: SimplexOptions::default() }
    }
}

/// The result of a Postcard solve.
#[derive(Debug, Clone)]
pub struct PostcardSolution {
    /// The optimal routing/scheduling decision `M_ij^k(n)`.
    pub plan: TransferPlan,
    /// Optimal `Σ a_ij · X_ij` — the provider's bill per slot after
    /// committing this plan (the paper's objective without the constant `I`
    /// factor).
    pub cost_per_slot: f64,
    /// Optimal charged volumes `X_ij` per link.
    pub charged: BTreeMap<(usize, usize), f64>,
    /// Simplex pivots used.
    pub lp_iterations: usize,
    /// How many of those pivots were phase-1 pivots (zero on a warm
    /// start, which skips phase 1).
    pub phase1_iterations: usize,
    /// How many of those pivots were dual-simplex pivots (zero: the dual
    /// simplex runs only from a supplied basis, and this solve is cold).
    pub dual_iterations: usize,
}

/// Solves the Postcard problem with default configuration.
///
/// # Errors
///
/// [`PostcardError::Infeasible`] when the batch cannot be delivered within
/// deadlines under the ledger's residual capacities;
/// [`PostcardError::UnknownDatacenter`] for malformed requests;
/// [`PostcardError::Lp`] on solver failure.
pub fn solve_postcard(
    network: &Network,
    files: &[TransferRequest],
    ledger: &TrafficLedger,
) -> Result<PostcardSolution, PostcardError> {
    solve_postcard_with(network, files, ledger, &PostcardConfig::default())
}

/// Solves the Postcard problem with explicit configuration.
///
/// # Errors
///
/// Same contract as [`solve_postcard`].
pub fn solve_postcard_with(
    network: &Network,
    files: &[TransferRequest],
    ledger: &TrafficLedger,
    config: &PostcardConfig,
) -> Result<PostcardSolution, PostcardError> {
    if files.is_empty() {
        return Ok(PostcardSolution {
            plan: TransferPlan::new(),
            cost_per_slot: ledger.cost_per_slot(network),
            charged: network
                .links()
                .map(|l| ((l.from.0, l.to.0), ledger.peak(l.from, l.to)))
                .collect(),
            lp_iterations: 0,
            phase1_iterations: 0,
            dual_iterations: 0,
        });
    }
    build_postcard_problem(network, files, ledger, config)?.solve(&config.simplex)
}

/// The assembled (but unsolved) Postcard LP: the model plus the bookkeeping
/// linking LP variables back to time-expanded arcs and links.
///
/// Produced by [`build_postcard_problem`] and consumed by
/// [`PostcardProblem::solve`]; `postcard-analyze` inspects it structurally
/// (deadline windows, storage-arc shape, conservation degree) *before* —
/// or instead of — solving.
#[derive(Debug, Clone)]
pub struct PostcardProblem {
    /// The LP (Eq. 6–10 plus the charged-volume linearization).
    pub model: Model,
    /// The time-expanded graph the model was built over.
    pub graph: TimeExpandedGraph,
    /// The batch the problem was built for (in batch order).
    pub files: Vec<TransferRequest>,
    /// Per file (batch order): the arc variables `M_ij^k(n)` that exist,
    /// in ascending arc order (constraint 10 is enforced by *absence* — see
    /// the module docs).
    pub mvars: Vec<Vec<(ArcId, Variable)>>,
    /// Charged-volume variable `X_ij` per directed link `(i, j)`.
    pub xvars: BTreeMap<(usize, usize), Variable>,
}

impl PostcardProblem {
    /// Solves the assembled LP and maps the optimum back to a transfer plan.
    ///
    /// # Errors
    ///
    /// Same contract as [`solve_postcard`].
    pub fn solve(&self, options: &SimplexOptions) -> Result<PostcardSolution, PostcardError> {
        let sol = self.model.solve_with(options)?;
        self.map_solution(&sol)
    }

    /// Maps an LP solution of [`PostcardProblem::model`] back to a transfer
    /// plan. Exposed so drivers that solve the model through another path
    /// (a prepared standard form) share the exact mapping.
    ///
    /// # Errors
    ///
    /// [`PostcardError::Infeasible`] when the LP was infeasible.
    pub fn map_solution(&self, sol: &Solution) -> Result<PostcardSolution, PostcardError> {
        match sol.status() {
            Status::Optimal => {
                let plan = extract_plan(&self.graph, &self.files, &self.mvars, sol);
                let charged: BTreeMap<(usize, usize), f64> =
                    self.xvars.iter().map(|(&k, &x)| (k, sol.value(x))).collect();
                Ok(PostcardSolution {
                    plan,
                    cost_per_slot: sol.objective(),
                    charged,
                    lp_iterations: sol.iterations(),
                    phase1_iterations: sol.phase1_iterations(),
                    dual_iterations: sol.dual_iterations(),
                })
            }
            Status::Infeasible => Err(PostcardError::Infeasible),
            Status::Unbounded => unreachable!("objective is bounded below by prior peaks"),
        }
    }

    /// Names variable `v` for a diagnostic: `M[file][from->to@slot]` for an
    /// arc variable, `X[from->to]` for a charged volume, otherwise the
    /// model's own name. The builder names no variable, so this scans the
    /// variable maps; only a diagnostic that fires pays for it.
    pub fn var_label(&self, v: Variable) -> String {
        for (k, per_arc) in self.mvars.iter().enumerate() {
            if let Some(&(id, _)) = per_arc.iter().find(|&&(_, var)| var == v) {
                let file = self.files.get(k).map_or_else(|| format!("#{k}"), |f| f.id.to_string());
                return if id.index() < self.graph.num_arcs() {
                    let arc = self.graph.arc(id);
                    format!("M[{file}][{}->{}@{}]", arc.from.0, arc.to.0, arc.slot)
                } else {
                    format!("M[{file}][arc #{}]", id.index())
                };
            }
        }
        match self.xvars.iter().find(|&(_, &x)| x == v) {
            Some((&(i, j), _)) => format!("X[{i}->{j}]"),
            None => self.model.var_name(v).into_owned(),
        }
    }
}

/// Whether file `f` gets a variable on `arc` (an arc of its window).
fn keeps_arc(f: &TransferRequest, arc: &Arc, config: &PostcardConfig) -> bool {
    if arc.kind == ArcKind::Transit && arc.capacity <= 0.0 {
        return false; // saturated link-slot: no variable needed
    }
    if arc.slot == f.last_slot() && arc.to != f.dst {
        return false; // final slot must deliver into the destination
    }
    if arc.kind == ArcKind::Transit && (arc.to == f.src || arc.from == f.dst) {
        // Flow re-entering the source or leaving the destination can
        // always be trimmed from an optimal solution (trim the path at its
        // first destination arrival / last source departure and bridge with
        // free storage arcs), so these variables are pruned for speed
        // without affecting the optimum.
        return false;
    }
    // Ablation: no storage at intermediate relays.
    config.allow_relay_storage
        || arc.kind != ArcKind::Storage
        || arc.from == f.src
        || arc.from == f.dst
}

/// Assembles the Postcard LP for `files` against the residual capacities and
/// prior peaks recorded in `ledger`, without solving it.
///
/// An empty batch yields a trivial problem (a one-slot expansion, only the
/// charged-volume variables, no constraints).
///
/// # Errors
///
/// [`PostcardError::UnknownDatacenter`] for malformed requests;
/// [`PostcardError::Infeasible`] when a file's source has no usable outgoing
/// arc at its release slot (structural infeasibility detected during
/// assembly).
pub fn build_postcard_problem(
    network: &Network,
    files: &[TransferRequest],
    ledger: &TrafficLedger,
    config: &PostcardConfig,
) -> Result<PostcardProblem, PostcardError> {
    let mut m = Model::new(Sense::Minimize);
    let (graph, mvars) = lay_out(&mut m, network, files, config, |l, slot| {
        ledger.residual(network, l.from, l.to, slot)
    })?;
    // The objective (6) is the bill.
    let (xvars, bill) = charged_vars(&mut m, network, ledger);
    m.set_objective(bill);
    let envelope = capacity_and_envelope(ledger, &xvars);
    rows(&mut m, network, &graph, files, &mvars, envelope, |_, f, _| f.size_gb)?;
    Ok(PostcardProblem { model: m, graph, files: files.to_vec(), mvars, xvars })
}

/// Per file (batch order), its arc variables `M_ij^k(n)` in arc order.
pub(crate) type WindowVars = Vec<Vec<(ArcId, Variable)>>;

/// Checks that every file names known datacenters, expands `network` over
/// the batch's horizon (one slot for an empty batch) with each link-slot
/// offering `capacity(link, slot)` clamped at 0, and adds to `m` the arc
/// variables `M_ij^k(n)` that constraint (10) allows: per file (batch
/// order), in arc order. A file's window lies inside the expansion, whose
/// arcs are numbered slot by slot.
pub(crate) fn lay_out(
    m: &mut Model,
    network: &Network,
    files: &[TransferRequest],
    config: &PostcardConfig,
    mut capacity: impl FnMut(LinkView, u64) -> f64,
) -> Result<(TimeExpandedGraph, WindowVars), PostcardError> {
    let num_dcs = network.num_dcs();
    if let Some(dc) = files.iter().flat_map(|f| [f.src, f.dst]).find(|dc| dc.index() >= num_dcs) {
        return Err(PostcardError::UnknownDatacenter { dc: dc.index(), num_dcs });
    }
    let t0 = files.iter().map(|f| f.first_slot()).min().unwrap_or(0);
    let t_end = files.iter().map(|f| f.last_slot()).max().unwrap_or(t0);
    let horizon = (t_end - t0 + 1) as usize;
    let graph =
        TimeExpandedGraph::with_residual(network, t0, horizon, |l, slot| Some(capacity(l, slot)));
    let mut mvars = Vec::with_capacity(files.len());
    for f in files {
        let mut per_arc = Vec::new();
        for slot in f.first_slot()..=f.last_slot() {
            for (id, arc) in graph.arcs_in_slot(slot) {
                if keeps_arc(f, arc, config) {
                    per_arc.push((id, m.add_anon_var(0.0, f64::INFINITY)));
                }
            }
        }
        mvars.push(per_arc);
    }
    Ok((graph, mvars))
}

/// Charged-volume variables `X_ij` per link with the prior peak as floor,
/// and the bill `Σ a_ij · X_ij`.
pub(crate) fn charged_vars(
    m: &mut Model,
    network: &Network,
    ledger: &TrafficLedger,
) -> (BTreeMap<(usize, usize), Variable>, LinExpr) {
    let mut xvars = BTreeMap::new();
    let mut bill = LinExpr::new();
    for link in network.links() {
        let x = m.add_anon_var(ledger.peak(link.from, link.to), f64::INFINITY);
        xvars.insert((link.from.0, link.to.0), x);
        bill.add_term(x, link.price);
    }
    (xvars, bill)
}

/// Capacity (7) and the charged-volume envelope
/// `X_ij ≥ usage_ij(n) + Σ_k M_ijn^k`, as the transit-arc rows of [`rows`].
pub(crate) fn capacity_and_envelope<'a>(
    ledger: &'a TrafficLedger,
    xvars: &'a BTreeMap<(usize, usize), Variable>,
) -> impl FnMut(&mut Model, &Arc, LinExpr) + 'a {
    move |m, arc, load| {
        m.leq(load.clone(), arc.capacity);
        let mut env = load;
        env.add_term(xvars[&(arc.from.0, arc.to.0)], -1.0);
        m.leq(env, -ledger.volume(arc.from, arc.to, arc.slot));
    }
}

/// Adds the rows over the laid-out arc variables: first, per transit arc
/// some file has a variable on (in arc order), `transit(m, arc, load)` with
/// its load `Σ_k M_ijn^k`; then conservation (8) per file per node per
/// window layer. `source(k, f, row)` injects file `k` at its release row
/// and returns that row's rhs: `F_k` for fixed delivery, or 0 after adding
/// a delivered volume `−y_k` to `row`.
///
/// # Errors
///
/// [`PostcardError::Infeasible`] when a release row has no terms but a
/// non-zero rhs: the source has no usable outgoing arc at release.
pub(crate) fn rows(
    m: &mut Model,
    network: &Network,
    graph: &TimeExpandedGraph,
    files: &[TransferRequest],
    mvars: &[Vec<(ArcId, Variable)>],
    mut transit: impl FnMut(&mut Model, &Arc, LinExpr),
    source: impl Fn(usize, &TransferRequest, &mut LinExpr) -> f64,
) -> Result<(), PostcardError> {
    // Every file's variables are in arc order, so one cursor per file walks
    // them alongside the arcs.
    let mut cursor = vec![0usize; mvars.len()];
    for (id, arc) in graph.arcs() {
        let is_transit = arc.kind == ArcKind::Transit;
        let mut load = LinExpr::new();
        for (per_arc, at) in mvars.iter().zip(&mut cursor) {
            if let Some(&(var_arc, v)) = per_arc.get(*at) {
                if var_arc == id {
                    *at += 1;
                    if is_transit {
                        load.add_term(v, 1.0);
                    }
                }
            }
        }
        if !load.is_empty() {
            transit(m, arc, load);
        }
    }

    // Conservation reads each node's arcs from one index and each file's
    // variables from a dense arc → variable map (cleared after the file).
    let node_arcs = graph.node_arcs();
    let mut var_of: Vec<Option<Variable>> = vec![None; graph.num_arcs()];
    for (k, (f, per_arc)) in files.iter().zip(mvars).enumerate() {
        for &(id, v) in per_arc {
            var_of[id.index()] = Some(v);
        }
        for slot in f.first_slot()..=f.last_slot() {
            for dc in network.dcs() {
                let node = TimeNode { dc, layer: slot };
                let mut expr = LinExpr::new();
                for id in node_arcs.outgoing(node) {
                    if let Some(v) = var_of[id.index()] {
                        expr.add_term(v, 1.0);
                    }
                }
                let mut rhs = 0.0;
                if slot > f.first_slot() {
                    for id in node_arcs.incoming(node) {
                        if let Some(v) = var_of[id.index()] {
                            expr.add_term(v, -1.0);
                        }
                    }
                } else if dc == f.src {
                    rhs = source(k, f, &mut expr);
                }
                if expr.is_empty() {
                    // postcard-analyze: allow(PA101) — rhs is 0.0 or a size.
                    if rhs != 0.0 {
                        return Err(PostcardError::Infeasible);
                    }
                    continue;
                }
                m.eq(expr, rhs);
            }
        }
        for &(id, _) in per_arc {
            var_of[id.index()] = None;
        }
    }
    Ok(())
}

/// The plan an optimal LP solution moves: every arc variable above 1e-9,
/// per file in arc order.
pub(crate) fn extract_plan(
    graph: &TimeExpandedGraph,
    files: &[TransferRequest],
    mvars: &[Vec<(ArcId, Variable)>],
    sol: &Solution,
) -> TransferPlan {
    let mut plan = TransferPlan::new();
    for (f, per_arc) in files.iter().zip(mvars) {
        for &(id, v) in per_arc {
            let value = sol.value(v);
            if value > 1e-9 {
                let arc = graph.arc(id);
                plan.add(f.id, arc.slot, arc.from, arc.to, value);
            }
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use postcard_lp::Relation;
    use postcard_net::{DcId, FileId, NetworkBuilder};

    fn d(i: usize) -> DcId {
        DcId(i)
    }

    /// The paper's Fig. 1 network: D2 →(10) D3 direct, relay D2 →(1) D1 →(3)
    /// D3 (indices D1=0, D2=1, D3=2), ample capacity.
    fn fig1_net() -> Network {
        NetworkBuilder::new(3)
            .link(d(1), d(2), 10.0, 1000.0)
            .link(d(1), d(0), 1.0, 1000.0)
            .link(d(0), d(2), 3.0, 1000.0)
            .build()
    }

    type Reference = (Model, Vec<BTreeMap<ArcId, Variable>>, BTreeMap<(usize, usize), Variable>);

    /// The builder before it dropped per-variable names, ordered maps and
    /// per-node slot scans, kept as the oracle the lean builder must match
    /// bit for bit.
    fn build_reference(
        network: &Network,
        files: &[TransferRequest],
        ledger: &TrafficLedger,
        config: &PostcardConfig,
    ) -> Result<Reference, PostcardError> {
        for f in files {
            for dc in [f.src, f.dst] {
                if dc.index() >= network.num_dcs() {
                    return Err(PostcardError::UnknownDatacenter {
                        dc: dc.index(),
                        num_dcs: network.num_dcs(),
                    });
                }
            }
        }
        let t0 = files.iter().map(|f| f.first_slot()).min().unwrap_or(0);
        let t_end = files.iter().map(|f| f.last_slot()).max().unwrap_or(t0);
        let horizon = (t_end - t0 + 1) as usize;
        let graph = TimeExpandedGraph::with_residual(network, t0, horizon, |l, slot| {
            Some(ledger.residual(network, l.from, l.to, slot))
        });

        let mut m = Model::new(Sense::Minimize);

        // Per-file arc variables, created only where constraint (10) allows.
        let mut mvars: Vec<BTreeMap<ArcId, Variable>> = Vec::with_capacity(files.len());
        for f in files {
            let mut per_arc = BTreeMap::new();
            for (id, arc) in graph.arcs_usable_by(f) {
                if arc.kind == ArcKind::Transit && arc.capacity <= 0.0 {
                    continue; // saturated link-slot: no variable needed
                }
                if arc.slot == f.last_slot() && arc.to != f.dst {
                    continue; // final slot must deliver into the destination
                }
                if arc.kind == ArcKind::Transit && (arc.to == f.src || arc.from == f.dst) {
                    // Flow re-entering the source or leaving the destination can
                    // always be trimmed from an optimal solution (trim the path
                    // at its first destination arrival / last source departure
                    // and bridge with free storage arcs), so these variables are
                    // pruned for speed without affecting the optimum.
                    continue;
                }
                if !config.allow_relay_storage
                    && arc.kind == ArcKind::Storage
                    && arc.from != f.src
                    && arc.from != f.dst
                {
                    continue; // ablation: no storage at intermediate relays
                }
                let v = m.add_var(
                    format!("M[{}][{}->{}@{}]", f.id, arc.from.0, arc.to.0, arc.slot),
                    0.0,
                    f64::INFINITY,
                );
                per_arc.insert(id, v);
            }
            mvars.push(per_arc);
        }

        // Charged-volume variables with the prior peak as floor, and the
        // objective (6).
        let mut xvars = BTreeMap::new();
        let mut obj = LinExpr::new();
        for link in network.links() {
            let x = m.add_var(
                format!("X[{}->{}]", link.from.0, link.to.0),
                ledger.peak(link.from, link.to),
                f64::INFINITY,
            );
            xvars.insert((link.from.0, link.to.0), x);
            obj.add_term(x, link.price);
        }
        m.set_objective(obj);

        // Capacity (7) and charged-volume envelopes, per transit arc.
        for (id, arc) in graph.arcs() {
            if arc.kind != ArcKind::Transit {
                continue;
            }
            let mut load = LinExpr::new();
            for per_arc in &mvars {
                if let Some(&v) = per_arc.get(&id) {
                    load.add_term(v, 1.0);
                }
            }
            if load.is_empty() {
                continue;
            }
            m.leq(load.clone(), arc.capacity);
            let used = ledger.volume(arc.from, arc.to, arc.slot);
            let mut env = load;
            env.add_term(xvars[&(arc.from.0, arc.to.0)], -1.0);
            m.leq(env, -used);
        }

        // Conservation (8), per file per node per window layer.
        for (k, f) in files.iter().enumerate() {
            for slot in f.first_slot()..=f.last_slot() {
                for dc in network.dcs() {
                    let node = TimeNode { dc, layer: slot };
                    let mut expr = LinExpr::new();
                    for (id, _) in graph.arcs_out(node) {
                        if let Some(&v) = mvars[k].get(&id) {
                            expr.add_term(v, 1.0);
                        }
                    }
                    if slot > f.first_slot() {
                        for (id, _) in graph.arcs_in(node) {
                            if let Some(&v) = mvars[k].get(&id) {
                                expr.add_term(v, -1.0);
                            }
                        }
                    }
                    let rhs = if slot == f.first_slot() && dc == f.src { f.size_gb } else { 0.0 };
                    if expr.is_empty() {
                        // postcard-analyze: allow(PA101) — rhs is 0.0 or a size.
                        if rhs != 0.0 {
                            // The source has no usable outgoing arcs at release:
                            // structurally infeasible.
                            return Err(PostcardError::Infeasible);
                        }
                        continue;
                    }
                    m.eq(expr, rhs);
                }
            }
        }

        Ok((m, mvars, xvars))
    }

    /// Everything of a model the solver reads, as bits: per-variable
    /// bounds, objective terms, and per row its relation, rhs and terms.
    type Fingerprint =
        (Vec<(u64, u64)>, Vec<(usize, u64)>, Vec<(Relation, u64, Vec<(usize, u64)>)>);

    fn fingerprint(m: &Model) -> Fingerprint {
        let bits = |terms: &LinExpr| -> Vec<(usize, u64)> {
            terms.iter().map(|(v, c)| (v.index(), c.to_bits())).collect()
        };
        let bounds = m
            .variables()
            .map(|v| {
                let (lo, hi) = m.bounds(v);
                (lo.to_bits(), hi.to_bits())
            })
            .collect();
        let rows = m
            .constraints()
            .map(|(_, c)| (c.relation(), c.rhs().to_bits(), bits(c.expr())))
            .collect();
        (bounds, bits(m.objective_expr()), rows)
    }

    /// A scaled Fig. 4–7 slot: a complete 3–6 DC network at 30 or 100
    /// GB/slot with U[1,10] prices, maybe one dead link, a ledger of
    /// earlier traffic (some link-slots saturated) and a batch of 1–8
    /// files released at or just after the current slot.
    fn random_slot(seed: u64) -> (Network, Vec<TransferRequest>, TrafficLedger, PostcardConfig) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(3..=6);
        let cap = if rng.gen_range(0..2) == 0 { 30.0 } else { 100.0 };
        let mut net = Network::complete_with_prices(n, cap, |_, _| rng.gen_range(1.0..=10.0));
        let pair = |rng: &mut StdRng| {
            let src = rng.gen_range(0..n);
            let dst = (src + rng.gen_range(1..n)) % n;
            (d(src), d(dst))
        };
        let dead = (rng.gen_range(0..2) == 0).then(|| pair(&mut rng));
        if let Some((a, b)) = dead {
            net.set_capacity(a, b, 0.0);
        }
        let now = rng.gen_range(0..4u64);
        let mut ledger = TrafficLedger::new(n);
        for _ in 0..rng.gen_range(0..12) {
            let (a, b) = pair(&mut rng);
            ledger.record(a, b, rng.gen_range(0..now + 8), rng.gen_range(0.0..=1.2 * cap));
        }
        let files = (0..rng.gen_range(1..=8u64))
            .map(|k| {
                let (src, dst) = match dead {
                    // A deadline-1 file across the dead link has no usable
                    // arc out of its source: structurally infeasible.
                    Some(link) if k == 0 && rng.gen_range(0..3) == 0 => link,
                    _ => pair(&mut rng),
                };
                let deadline =
                    if k == 0 && dead == Some((src, dst)) { 1 } else { rng.gen_range(1..=8) };
                TransferRequest::new(
                    FileId(k),
                    src,
                    dst,
                    rng.gen_range(1.0..=100.0),
                    deadline,
                    now + rng.gen_range(0..2),
                )
            })
            .collect();
        let config =
            PostcardConfig { allow_relay_storage: rng.gen_range(0..3) != 0, ..Default::default() };
        (net, files, ledger, config)
    }

    fn matches_reference(
        net: &Network,
        files: &[TransferRequest],
        ledger: &TrafficLedger,
        config: &PostcardConfig,
    ) -> Result<(), String> {
        let lean = build_postcard_problem(net, files, ledger, config);
        let reference = build_reference(net, files, ledger, config);
        match (lean, reference) {
            (Ok(p), Ok((m, mvars, xvars))) => {
                let want: Vec<Vec<(ArcId, Variable)>> =
                    mvars.into_iter().map(|per_arc| per_arc.into_iter().collect()).collect();
                if p.mvars != want || p.xvars != xvars {
                    return Err("variable maps differ".into());
                }
                if fingerprint(&p.model) != fingerprint(&m) {
                    return Err("models differ".into());
                }
                for v in m.variables() {
                    if p.var_label(v) != m.var_name(v) {
                        return Err(format!("label {} != {}", p.var_label(v), m.var_name(v)));
                    }
                }
                Ok(())
            }
            (Err(a), Err(b)) if a == b => Ok(()),
            (a, b) => Err(format!("outcomes differ: {:?} vs {:?}", a.err(), b.err())),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        #[test]
        fn lean_builder_is_bit_identical_to_the_reference(seed in 0u64..1_000_000) {
            let (net, files, ledger, config) = random_slot(seed);
            let verdict = matches_reference(&net, &files, &ledger, &config);
            proptest::prop_assert!(verdict.is_ok(), "seed {seed}: {}", verdict.unwrap_err());
        }
    }

    #[test]
    fn lean_builder_matches_the_reference_on_infeasible_and_malformed_batches() {
        // Dead link, deadline 1: the source has no usable arc at release.
        let mut net = Network::complete(3, 2.0, 30.0);
        net.set_capacity(d(0), d(1), 0.0);
        let ledger = TrafficLedger::new(3);
        let config = PostcardConfig::default();
        let files = [TransferRequest::new(FileId(1), d(0), d(1), 5.0, 1, 0)];
        assert_eq!(
            build_postcard_problem(&net, &files, &ledger, &config).unwrap_err(),
            PostcardError::Infeasible
        );
        matches_reference(&net, &files, &ledger, &config).unwrap();
        let unknown = [TransferRequest::new(FileId(1), d(0), d(5), 5.0, 2, 0)];
        matches_reference(&net, &unknown, &ledger, &config).unwrap();
        matches_reference(&net, &[], &ledger, &config).unwrap();
    }

    #[test]
    fn var_label_names_arc_and_charged_variables() {
        let net = fig1_net();
        let files = [TransferRequest::new(FileId(1), d(1), d(2), 6.0, 3, 0)];
        let ledger = TrafficLedger::new(3);
        let p = build_postcard_problem(&net, &files, &ledger, &PostcardConfig::default()).unwrap();
        let (id, v) = p.mvars[0][0];
        let arc = p.graph.arc(id);
        assert_eq!(p.var_label(v), format!("M[file#1][{}->{}@{}]", arc.from.0, arc.to.0, arc.slot));
        assert_eq!(p.var_label(p.xvars[&(1, 2)]), "X[1->2]");
        assert_eq!(p.model.var_name(v), format!("x{}", v.index()));
    }

    #[test]
    fn fig1_motivating_example_reaches_cost_12() {
        // 6 MB within 15 minutes = 3 slots. Paper: direct costs 20/slot,
        // routed+scheduled costs 12/slot (Fig. 1(b)). Postcard must find 12.
        let net = fig1_net();
        let files = [TransferRequest::new(FileId(1), d(1), d(2), 6.0, 3, 0)];
        let ledger = TrafficLedger::new(3);
        let sol = solve_postcard(&net, &files, &ledger).unwrap();
        assert!((sol.cost_per_slot - 12.0).abs() < 1e-5, "cost = {}", sol.cost_per_slot);
        let v = sol.plan.validate(&net, &files, |_, _, _| 0.0);
        assert!(v.is_empty(), "{v:?}");
        // The plan stores half the file somewhere (pipelining).
        assert!(sol.plan.total_holdover() > 0.0);
    }

    #[test]
    fn single_slot_deadline_forces_direct() {
        let net = fig1_net();
        let files = [TransferRequest::new(FileId(1), d(1), d(2), 6.0, 1, 0)];
        let ledger = TrafficLedger::new(3);
        let sol = solve_postcard(&net, &files, &ledger).unwrap();
        // One slot: the whole 6 must cross D2→D3 directly: cost 60.
        assert!((sol.cost_per_slot - 60.0).abs() < 1e-5, "cost = {}", sol.cost_per_slot);
        assert_eq!(sol.plan.volume(FileId(1), 0, d(1), d(2)), 6.0);
    }

    #[test]
    fn infeasible_when_capacity_too_small() {
        let net = NetworkBuilder::new(2).link(d(0), d(1), 1.0, 2.0).build();
        let files = [TransferRequest::new(FileId(1), d(0), d(1), 10.0, 2, 0)];
        let ledger = TrafficLedger::new(2);
        assert_eq!(solve_postcard(&net, &files, &ledger).unwrap_err(), PostcardError::Infeasible);
    }

    #[test]
    fn feasible_when_deadline_allows_draining() {
        let net = NetworkBuilder::new(2).link(d(0), d(1), 1.0, 2.0).build();
        let files = [TransferRequest::new(FileId(1), d(0), d(1), 10.0, 5, 0)];
        let ledger = TrafficLedger::new(2);
        let sol = solve_postcard(&net, &files, &ledger).unwrap();
        assert!(sol.plan.is_valid(&net, &files, |_, _, _| 0.0));
        // 2 GB per slot for 5 slots; charged volume 2, price 1.
        assert!((sol.cost_per_slot - 2.0).abs() < 1e-6);
    }

    #[test]
    fn already_paid_link_reused_for_free() {
        let net = fig1_net();
        let mut ledger = TrafficLedger::new(3);
        // Direct link D2→D3 already charged at 2 GB/slot in the past.
        ledger.record(d(1), d(2), 100, 2.0);
        let files = [TransferRequest::new(FileId(1), d(1), d(2), 6.0, 3, 0)];
        let sol = solve_postcard(&net, &files, &ledger).unwrap();
        // Sending 2/slot over the paid direct link adds nothing: total bill
        // stays 10·2 = 20.
        assert!((sol.cost_per_slot - 20.0).abs() < 1e-5, "cost = {}", sol.cost_per_slot);
        assert!(sol.plan.is_valid(&net, &files, |_, _, _| 0.0));
    }

    #[test]
    fn respects_residual_capacity_from_ledger() {
        let net = NetworkBuilder::new(2).link(d(0), d(1), 1.0, 4.0).build();
        let mut ledger = TrafficLedger::new(2);
        // 3 of 4 GB/slot already committed in slot 0.
        ledger.record(d(0), d(1), 0, 3.0);
        let files = [TransferRequest::new(FileId(1), d(0), d(1), 4.0, 2, 0)];
        let sol = solve_postcard(&net, &files, &ledger).unwrap();
        // Only 1 fits in slot 0, the other 3 must go in slot 1.
        let v01 = sol.plan.volume(FileId(1), 0, d(0), d(1));
        assert!(v01 <= 1.0 + 1e-6, "slot-0 volume {v01}");
        assert!(sol.plan.is_valid(&net, &files, |from, to, slot| {
            if from == d(0) && to == d(1) && slot == 0 {
                3.0
            } else {
                0.0
            }
        }));
    }

    #[test]
    fn two_files_share_cheap_link_across_time() {
        // Fig. 3's mechanism in miniature: an urgent file pays for a cheap
        // link; a patient file time-shifts onto the paid slots for free.
        let net = NetworkBuilder::new(2).link(d(0), d(1), 1.0, 5.0).build();
        let files = [
            TransferRequest::new(FileId(1), d(0), d(1), 5.0, 1, 0), // urgent
            TransferRequest::new(FileId(2), d(0), d(1), 10.0, 3, 0), // patient
        ];
        let ledger = TrafficLedger::new(2);
        let sol = solve_postcard(&net, &files, &ledger).unwrap();
        assert!(sol.plan.is_valid(&net, &files, |_, _, _| 0.0));
        // Slot 0 is full with the urgent file; the patient file uses slots
        // 1–2 at 5 GB each: peak stays 5, cost 5.
        assert!((sol.cost_per_slot - 5.0).abs() < 1e-5, "cost = {}", sol.cost_per_slot);
    }

    #[test]
    fn ablation_without_relay_storage_costs_more_or_equal() {
        let net = fig1_net();
        let files = [TransferRequest::new(FileId(1), d(1), d(2), 6.0, 3, 0)];
        let ledger = TrafficLedger::new(3);
        let full = solve_postcard(&net, &files, &ledger).unwrap();
        let cfg = PostcardConfig { allow_relay_storage: false, ..Default::default() };
        let no_relay = solve_postcard_with(&net, &files, &ledger, &cfg).unwrap();
        assert!(no_relay.cost_per_slot >= full.cost_per_slot - 1e-7);
        assert!(no_relay.plan.is_valid(&net, &files, |_, _, _| 0.0));
    }

    #[test]
    fn empty_batch_returns_current_bill() {
        let net = fig1_net();
        let mut ledger = TrafficLedger::new(3);
        ledger.record(d(1), d(2), 0, 3.0);
        let sol = solve_postcard(&net, &[], &ledger).unwrap();
        assert!((sol.cost_per_slot - 30.0).abs() < 1e-9);
        assert!(sol.plan.is_empty());
    }

    #[test]
    fn unknown_datacenter_rejected() {
        let net = fig1_net();
        let files = [TransferRequest::new(FileId(1), d(0), d(7), 1.0, 1, 0)];
        let ledger = TrafficLedger::new(3);
        assert!(matches!(
            solve_postcard(&net, &files, &ledger),
            Err(PostcardError::UnknownDatacenter { dc: 7, .. })
        ));
    }

    #[test]
    fn build_problem_exposes_structure_and_solves_identically() {
        let net = fig1_net();
        let files = [TransferRequest::new(FileId(1), d(1), d(2), 6.0, 3, 0)];
        let ledger = TrafficLedger::new(3);
        let p = build_postcard_problem(&net, &files, &ledger, &PostcardConfig::default()).unwrap();
        assert_eq!(p.mvars.len(), 1);
        assert_eq!(p.xvars.len(), net.num_links());
        // Every arc variable's slot lies inside the file's window (Eq. 10).
        for &(id, _) in &p.mvars[0] {
            assert!(files[0].active_in(p.graph.arc(id).slot));
        }
        // Solving the assembled problem matches the one-shot API.
        let a = p.solve(&SimplexOptions::default()).unwrap();
        let b = solve_postcard(&net, &files, &ledger).unwrap();
        assert!((a.cost_per_slot - b.cost_per_slot).abs() < 1e-9);
        assert_eq!(a.plan, b.plan);
    }

    #[test]
    fn build_problem_accepts_empty_batch() {
        let net = fig1_net();
        let ledger = TrafficLedger::new(3);
        let p = build_postcard_problem(&net, &[], &ledger, &PostcardConfig::default()).unwrap();
        assert!(p.mvars.is_empty());
        assert_eq!(p.model.num_constraints(), 0);
        assert_eq!(p.xvars.len(), net.num_links());
    }

    #[test]
    fn charged_volumes_match_plan_peaks() {
        let net = fig1_net();
        let files = [TransferRequest::new(FileId(1), d(1), d(2), 6.0, 3, 0)];
        let ledger = TrafficLedger::new(3);
        let sol = solve_postcard(&net, &files, &ledger).unwrap();
        for link in net.links() {
            let x = sol.charged[&(link.from.0, link.to.0)];
            let peak = sol.plan.link_peak(link.from, link.to);
            assert!(x >= peak - 1e-6, "X[{}->{}] = {x} < plan peak {peak}", link.from, link.to);
        }
    }
}
