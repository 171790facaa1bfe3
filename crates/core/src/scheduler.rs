//! The scheduler interface driven by the online controller, and its five
//! implementations: Postcard, the three storage-free flow baselines, and a
//! naive direct-path sender.

use crate::error::PostcardError;
use crate::formulation::{build_postcard_problem, PostcardConfig, PostcardProblem};
use postcard_flow::{
    greedy_cheapest_path, two_phase_baseline, unified_flow_lp_warm, BaselineError, FlowAssignment,
};
use postcard_net::{DcId, Network, TrafficLedger, TransferPlan, TransferRequest};

/// What a scheduler decided for a batch.
///
/// Both variants must *fully* serve every file of the batch — schedulers are
/// all-or-nothing, and the [`crate::OnlineController`] handles admission by
/// retrying smaller batches.
#[derive(Debug, Clone, PartialEq)]
pub enum Decision {
    /// A slotted store-and-forward plan (`M_ij^k(n)` entries).
    Plan(TransferPlan),
    /// Constant per-file rates (the flow-based model).
    Rates(FlowAssignment),
}

impl Decision {
    /// Calls `book(from, to, slot, volume)` for the traffic the decision
    /// puts on a ledger for `files` (the batch it serves).
    pub fn for_each_booking(
        &self,
        files: &[TransferRequest],
        book: impl FnMut(DcId, DcId, u64, f64),
    ) {
        match self {
            Decision::Plan(plan) => plan.for_each_booking(book),
            Decision::Rates(rates) => rates.for_each_booking(files, book),
        }
    }

    /// Books the decision's traffic for `files` into `ledger`.
    pub fn apply_to_ledger(&self, files: &[TransferRequest], ledger: &mut TrafficLedger) {
        self.for_each_booking(files, |from, to, slot, volume| {
            ledger.record(from, to, slot, volume)
        });
    }
}

/// Solver-side effort counters for the most recent [`Scheduler::schedule`]
/// call, surfaced so service runtimes can export them as metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Simplex pivots performed by the underlying LP solve (0 for
    /// combinatorial schedulers).
    pub lp_iterations: usize,
}

/// A routing/scheduling policy for one batch of simultaneously released
/// files.
///
/// `Send` is a supertrait so schedulers (and chains of them) can be lent to
/// other threads — the sharded runtime solves per-shard subproblems on
/// scoped `std::thread`s. Every scheduler here is plain data, so the bound
/// costs nothing.
pub trait Scheduler: Send {
    /// Short human-readable name (used in reports and benchmarks).
    fn name(&self) -> &'static str;

    /// Decides how to serve `files`, given the committed traffic in
    /// `ledger`.
    ///
    /// # Errors
    ///
    /// [`PostcardError::Infeasible`] when the *whole batch* cannot be
    /// served; other [`PostcardError`] variants on solver failure.
    fn schedule(
        &mut self,
        network: &Network,
        files: &[TransferRequest],
        ledger: &TrafficLedger,
    ) -> Result<Decision, PostcardError>;

    /// Effort counters for the most recent `schedule` call. Schedulers that
    /// do not track effort report the default (all zeros).
    fn last_stats(&self) -> SolveStats {
        SolveStats::default()
    }
}

impl Scheduler for Box<dyn Scheduler> {
    fn name(&self) -> &'static str {
        self.as_ref().name()
    }

    fn schedule(
        &mut self,
        network: &Network,
        files: &[TransferRequest],
        ledger: &TrafficLedger,
    ) -> Result<Decision, PostcardError> {
        self.as_mut().schedule(network, files, ledger)
    }

    fn last_stats(&self) -> SolveStats {
        self.as_ref().last_stats()
    }
}

fn map_baseline(e: BaselineError) -> PostcardError {
    match e {
        BaselineError::Infeasible => PostcardError::Infeasible,
        BaselineError::Lp(e) => PostcardError::Lp(e),
    }
}

/// The paper's contribution: store-and-forward cost minimization on the
/// time-expanded graph.
#[derive(Debug, Clone, Default)]
pub struct PostcardScheduler {
    /// Formulation options (relay-storage ablation, simplex tuning).
    pub config: PostcardConfig,
    last_stats: SolveStats,
}

impl PostcardScheduler {
    /// Creates a scheduler with default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a scheduler with an explicit configuration.
    pub fn with_config(config: PostcardConfig) -> Self {
        Self { config, ..Self::default() }
    }

    /// Solves a problem already built for a batch, as
    /// [`Scheduler::schedule`] would after building it itself. `problem`
    /// must come from [`build_postcard_problem`] with this scheduler's
    /// config, against the network and ledger the batch is scheduled on.
    ///
    /// # Errors
    ///
    /// Same contract as [`Scheduler::schedule`].
    pub fn schedule_built(&mut self, problem: &PostcardProblem) -> Result<Decision, PostcardError> {
        let sol = problem.solve(&self.config.simplex)?;
        self.last_stats = SolveStats { lp_iterations: sol.lp_iterations };
        Ok(Decision::Plan(sol.plan))
    }
}

impl Scheduler for PostcardScheduler {
    fn name(&self) -> &'static str {
        if self.config.allow_relay_storage {
            "postcard"
        } else {
            "postcard-no-relay-storage"
        }
    }

    fn schedule(
        &mut self,
        network: &Network,
        files: &[TransferRequest],
        ledger: &TrafficLedger,
    ) -> Result<Decision, PostcardError> {
        if files.is_empty() {
            self.last_stats = SolveStats::default();
            return Ok(Decision::Plan(TransferPlan::new()));
        }
        let problem = build_postcard_problem(network, files, ledger, &self.config)?;
        self.schedule_built(&problem)
    }

    fn last_stats(&self) -> SolveStats {
        self.last_stats
    }
}

/// The strongest storage-free baseline: one LP in the exact percentile cost
/// model (Sec. II-B's model, optimally solved).
#[derive(Debug, Clone, Default)]
pub struct FlowLpScheduler {
    last_stats: SolveStats,
}

impl FlowLpScheduler {
    /// Creates a scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for FlowLpScheduler {
    fn name(&self) -> &'static str {
        "flow-lp"
    }

    fn schedule(
        &mut self,
        network: &Network,
        files: &[TransferRequest],
        ledger: &TrafficLedger,
    ) -> Result<Decision, PostcardError> {
        let out = unified_flow_lp_warm(network, files, ledger, None).map_err(map_baseline)?;
        self.last_stats = SolveStats { lp_iterations: out.lp_iterations };
        Ok(Decision::Rates(out.assignment))
    }

    fn last_stats(&self) -> SolveStats {
        self.last_stats
    }
}

/// The paper's two-phase flow decomposition: max concurrent flow over
/// already-paid capacity, then min-cost multicommodity flow for the rest.
#[derive(Debug, Clone, Copy, Default)]
pub struct TwoPhaseScheduler;

impl Scheduler for TwoPhaseScheduler {
    fn name(&self) -> &'static str {
        "flow-two-phase"
    }

    fn schedule(
        &mut self,
        network: &Network,
        files: &[TransferRequest],
        ledger: &TrafficLedger,
    ) -> Result<Decision, PostcardError> {
        two_phase_baseline(network, files, ledger)
            .map(|o| Decision::Rates(o.assignment))
            .map_err(map_baseline)
    }
}

/// The cheapest-available-path greedy allocator (Fig. 3's narrative).
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyScheduler;

impl Scheduler for GreedyScheduler {
    fn name(&self) -> &'static str {
        "flow-greedy"
    }

    fn schedule(
        &mut self,
        network: &Network,
        files: &[TransferRequest],
        ledger: &TrafficLedger,
    ) -> Result<Decision, PostcardError> {
        let out = greedy_cheapest_path(network, files, ledger);
        if out.unrouted.is_empty() {
            Ok(Decision::Rates(out.assignment))
        } else {
            Err(PostcardError::Infeasible)
        }
    }
}

/// No strategy at all: every file trickles over its direct link at
/// `F_k / T_k` per slot, waiting at the source (Fig. 1(a)'s behaviour).
#[derive(Debug, Clone, Copy, Default)]
pub struct DirectScheduler;

impl Scheduler for DirectScheduler {
    fn name(&self) -> &'static str {
        "direct"
    }

    fn schedule(
        &mut self,
        network: &Network,
        files: &[TransferRequest],
        ledger: &TrafficLedger,
    ) -> Result<Decision, PostcardError> {
        let mut plan = TransferPlan::new();
        // Capacity consumed by this very batch, per (link, slot).
        let mut batch_used: std::collections::BTreeMap<(usize, usize, u64), f64> =
            std::collections::BTreeMap::new();
        for f in files {
            if !network.has_link(f.src, f.dst) {
                return Err(PostcardError::Infeasible);
            }
            let chunk = f.desired_rate();
            for slot in f.first_slot()..=f.last_slot() {
                let key = (f.src.0, f.dst.0, slot);
                let used = batch_used.get(&key).copied().unwrap_or(0.0);
                if chunk > ledger.residual(network, f.src, f.dst, slot) - used + 1e-9 {
                    return Err(PostcardError::Infeasible);
                }
                plan.add(f.id, slot, f.src, f.dst, chunk);
                *batch_used.entry(key).or_insert(0.0) += chunk;
                // Hold the not-yet-sent remainder at the source.
                let sent_after = chunk * (slot - f.first_slot() + 1) as f64;
                let remaining = (f.size_gb - sent_after).max(0.0);
                if remaining > 1e-12 {
                    plan.add(f.id, slot, f.src, f.src, remaining);
                }
            }
        }
        Ok(Decision::Plan(plan))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use postcard_net::{DcId, FileId, NetworkBuilder};

    fn d(i: usize) -> DcId {
        DcId(i)
    }

    fn net() -> Network {
        NetworkBuilder::new(3)
            .link(d(1), d(2), 10.0, 100.0)
            .link(d(1), d(0), 1.0, 100.0)
            .link(d(0), d(2), 3.0, 100.0)
            .build()
    }

    fn file() -> TransferRequest {
        TransferRequest::new(FileId(1), d(1), d(2), 6.0, 3, 0)
    }

    #[test]
    fn all_schedulers_serve_simple_batch() {
        let net = net();
        let ledger = TrafficLedger::new(3);
        let files = [file()];
        let mut schedulers: Vec<Box<dyn Scheduler>> = vec![
            Box::new(PostcardScheduler::new()),
            Box::new(FlowLpScheduler::new()),
            Box::new(TwoPhaseScheduler),
            Box::new(GreedyScheduler),
            Box::new(DirectScheduler),
        ];
        for s in schedulers.iter_mut() {
            let decision = s.schedule(&net, &files, &ledger).unwrap_or_else(|e| {
                panic!("{} failed: {e}", s.name());
            });
            match decision {
                Decision::Plan(p) => {
                    assert!(p.is_valid(&net, &files, |_, _, _| 0.0), "{}", s.name())
                }
                Decision::Rates(a) => {
                    assert!(a.is_valid(&net, &files, |_, _, _| 0.0), "{}", s.name())
                }
            }
        }
    }

    #[test]
    fn direct_plan_shape() {
        let net = net();
        let ledger = TrafficLedger::new(3);
        let files = [file()];
        let Decision::Plan(p) = DirectScheduler.schedule(&net, &files, &ledger).unwrap() else {
            panic!("direct returns a plan");
        };
        // 2 GB on the direct link each slot, with 4 then 2 held at source.
        assert_eq!(p.volume(FileId(1), 0, d(1), d(2)), 2.0);
        assert_eq!(p.volume(FileId(1), 0, d(1), d(1)), 4.0);
        assert_eq!(p.volume(FileId(1), 2, d(1), d(2)), 2.0);
        assert_eq!(p.volume(FileId(1), 2, d(1), d(1)), 0.0);
    }

    #[test]
    fn direct_rejects_when_link_missing() {
        let net = NetworkBuilder::new(3).link(d(0), d(1), 1.0, 10.0).build();
        let files = [TransferRequest::new(FileId(1), d(1), d(2), 1.0, 1, 0)];
        assert_eq!(
            DirectScheduler.schedule(&net, &files, &TrafficLedger::new(3)).unwrap_err(),
            PostcardError::Infeasible
        );
    }

    #[test]
    fn direct_rejects_when_batch_overfills_link() {
        let net = NetworkBuilder::new(2).link(d(0), d(1), 1.0, 3.0).build();
        let files = [
            TransferRequest::new(FileId(1), d(0), d(1), 2.0, 1, 0),
            TransferRequest::new(FileId(2), d(0), d(1), 2.0, 1, 0),
        ];
        assert_eq!(
            DirectScheduler.schedule(&net, &files, &TrafficLedger::new(2)).unwrap_err(),
            PostcardError::Infeasible
        );
    }

    #[test]
    fn greedy_all_or_nothing() {
        let net = NetworkBuilder::new(2).link(d(0), d(1), 1.0, 1.0).build();
        let files = [TransferRequest::new(FileId(1), d(0), d(1), 9.0, 3, 0)]; // rate 3 > 1
        assert_eq!(
            GreedyScheduler.schedule(&net, &files, &TrafficLedger::new(2)).unwrap_err(),
            PostcardError::Infeasible
        );
    }

    #[test]
    fn scheduler_names_are_distinct() {
        let names = [
            PostcardScheduler::new().name(),
            FlowLpScheduler::new().name(),
            TwoPhaseScheduler.name(),
            GreedyScheduler.name(),
            DirectScheduler.name(),
        ];
        let set: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(set.len(), names.len());
    }
}
