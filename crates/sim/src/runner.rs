//! The multi-run simulation driver.
//!
//! Each run samples one network and one workload trace from the scenario's
//! seed, then replays the *same* trace through every approach (paired
//! comparison, as the paper's common evaluation setup implies). Costs are
//! the provider's bill per slot `Σ a_ij · X_ij` under the 100-th percentile
//! scheme, averaged over slots and then summarized across runs with 95 %
//! confidence intervals — exactly the quantity on the paper's y-axes.

use crate::scenario::Scenario;
use crate::stats::ConfidenceInterval;
use postcard_core::{
    DirectScheduler, FlowLpScheduler, GreedyScheduler, OnlineController, PostcardConfig,
    PostcardError, PostcardScheduler, Scheduler, TwoPhaseScheduler,
};
use postcard_net::{ChargingScheme, Trace};

/// The approaches the simulator can compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Approach {
    /// Store-and-forward cost minimization (the paper's contribution).
    Postcard,
    /// Postcard with the relay-storage ablation (source pacing only).
    PostcardNoRelayStorage,
    /// Storage-free flow LP in the exact cost model (Sec. II-B, optimal).
    FlowLp,
    /// The paper's two-phase flow decomposition.
    FlowTwoPhase,
    /// Cheapest-available-path greedy.
    FlowGreedy,
    /// Direct-link trickle (no strategy).
    Direct,
}

impl Approach {
    /// Display name matching the scheduler's.
    pub fn name(&self) -> &'static str {
        match self {
            Approach::Postcard => "postcard",
            Approach::PostcardNoRelayStorage => "postcard-no-relay-storage",
            Approach::FlowLp => "flow-lp",
            Approach::FlowTwoPhase => "flow-two-phase",
            Approach::FlowGreedy => "flow-greedy",
            Approach::Direct => "direct",
        }
    }

    /// Builds a fresh scheduler.
    pub fn scheduler(&self) -> Box<dyn Scheduler> {
        match self {
            Approach::Postcard => Box::new(PostcardScheduler::new()),
            Approach::PostcardNoRelayStorage => {
                Box::new(PostcardScheduler::with_config(PostcardConfig {
                    allow_relay_storage: false,
                    ..Default::default()
                }))
            }
            Approach::FlowLp => Box::new(FlowLpScheduler::new()),
            Approach::FlowTwoPhase => Box::new(TwoPhaseScheduler),
            Approach::FlowGreedy => Box::new(GreedyScheduler),
            Approach::Direct => Box::new(DirectScheduler),
        }
    }

    /// The two approaches the paper's figures compare.
    pub fn paper_pair() -> Vec<Approach> {
        vec![Approach::Postcard, Approach::FlowLp]
    }
}

impl std::fmt::Display for Approach {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Error for [`Approach::from_str`] naming the unknown approach.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseApproachError(pub String);

impl std::fmt::Display for ParseApproachError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown approach `{}`", self.0)
    }
}

impl std::error::Error for ParseApproachError {}

impl std::str::FromStr for Approach {
    type Err = ParseApproachError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Ok(match s {
            "postcard" => Approach::Postcard,
            "postcard-no-relay-storage" => Approach::PostcardNoRelayStorage,
            "flow-lp" => Approach::FlowLp,
            "flow-two-phase" => Approach::FlowTwoPhase,
            "flow-greedy" => Approach::FlowGreedy,
            "direct" => Approach::Direct,
            other => return Err(ParseApproachError(other.to_string())),
        })
    }
}

/// Metrics of one (approach, run) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Which approach.
    pub approach: Approach,
    /// The run index (also the seed offset).
    pub run: usize,
    /// Slots simulated.
    pub num_slots: u64,
    /// Bill per slot averaged over all slots — the paper's y-axis.
    pub avg_cost_per_slot: f64,
    /// Bill per slot after the final slot.
    pub final_cost_per_slot: f64,
    /// Files accepted.
    pub accepted: usize,
    /// Files rejected by admission control.
    pub rejected: usize,
    /// Volume accepted (GB).
    pub accepted_volume: f64,
    /// Volume rejected (GB).
    pub rejected_volume: f64,
    /// The bill per slot under the 95-th percentile scheme (what a real ISP
    /// would predominantly charge; the optimizer targets the 100-th).
    pub p95_cost_per_slot: f64,
}

impl RunResult {
    /// Throughput-normalized cost: the final bill per slot divided by the
    /// carried GB per slot — a `$ / GB` figure that stays comparable when
    /// approaches reject different amounts of traffic (`NaN` if nothing was
    /// carried).
    pub fn cost_per_gb(&self) -> f64 {
        self.final_cost_per_slot / (self.accepted_volume / self.num_slots.max(1) as f64)
    }
}

/// All runs of one approach on one scenario, with summary statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ApproachSummary {
    /// Which approach.
    pub approach: Approach,
    /// Per-run results.
    pub runs: Vec<RunResult>,
    /// Mean ± 95 % CI of [`RunResult::avg_cost_per_slot`] across runs.
    pub avg_cost: ConfidenceInterval,
    /// Mean ± 95 % CI of [`RunResult::final_cost_per_slot`] across runs.
    pub final_cost: ConfidenceInterval,
    /// Mean ± 95 % CI of [`RunResult::cost_per_gb`] across runs.
    pub cost_per_gb: ConfidenceInterval,
    /// Mean ± 95 % CI of [`RunResult::p95_cost_per_slot`] across runs.
    pub p95_cost: ConfidenceInterval,
    /// Fraction of files rejected, pooled over runs.
    pub rejection_rate: f64,
}

/// Replays one trace through one approach.
///
/// # Errors
///
/// Propagates scheduler failures that are not plain infeasibility (which is
/// handled by per-file admission inside the controller).
pub fn run_trace(
    network: &postcard_net::Network,
    trace: &Trace,
    num_slots: u64,
    approach: Approach,
    run: usize,
) -> Result<RunResult, PostcardError> {
    let mut ctl = OnlineController::new(network.clone(), approach.scheduler());
    for slot in 0..num_slots {
        ctl.step(slot, trace.batch(slot))?;
    }
    Ok(run_result(&ctl, approach, run, num_slots))
}

/// The metrics of one finished run, read off the controller that ran it
/// (a bare one here, the service runtime's in [`crate::run_trace_service`]).
pub(crate) fn run_result<S: Scheduler>(
    ctl: &OnlineController<S>,
    approach: Approach,
    run: usize,
    num_slots: u64,
) -> RunResult {
    let (accepted, rejected) = ctl.admission_counts();
    let (accepted_volume, rejected_volume) = ctl.admission_volumes();
    // `+ 0.0` turns the empty sum's -0.0 into 0.0 and leaves the bits of
    // every non-zero sum unchanged.
    let cost_sum = ctl.cost_history().iter().sum::<f64>() + 0.0;
    // p95 over one billing window covering the whole horizon. A run that
    // booked nothing has horizon 0 and bills 0 over a one-slot window.
    let window_slots = (ctl.ledger().horizon() as usize).max(1);
    let p95 = ChargingScheme::Percentile { q: 95.0, window_slots };
    RunResult {
        approach,
        run,
        num_slots,
        avg_cost_per_slot: cost_sum / num_slots.max(1) as f64,
        final_cost_per_slot: ctl.cost_per_slot(),
        accepted,
        rejected,
        accepted_volume,
        rejected_volume,
        p95_cost_per_slot: ctl.ledger().cost_per_slot_scheme(ctl.network(), p95),
    }
}

/// Runs a scenario: `num_runs` paired repetitions of every approach.
///
/// Seeds are derived deterministically from `base_seed` and the run index,
/// and within one run every approach sees the identical network and trace.
///
/// # Errors
///
/// Propagates the first non-infeasibility scheduler failure.
pub fn run_scenario(
    scenario: &Scenario,
    approaches: &[Approach],
    base_seed: u64,
) -> Result<Vec<ApproachSummary>, PostcardError> {
    let mut per_approach: Vec<Vec<RunResult>> = vec![Vec::new(); approaches.len()];
    for run in 0..scenario.num_runs {
        let seed = base_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(run as u64);
        let network = scenario.network(seed);
        let mut workload = scenario.workload(seed ^ 0xDEAD_BEEF);
        let trace = Trace::generate(&mut workload, scenario.num_slots);
        for (i, &a) in approaches.iter().enumerate() {
            per_approach[i].push(run_trace(&network, &trace, scenario.num_slots, a, run)?);
        }
    }
    Ok(approaches
        .iter()
        .zip(per_approach)
        .map(|(&approach, runs)| summarize(approach, runs))
        .collect())
}

pub(crate) fn summarize(approach: Approach, runs: Vec<RunResult>) -> ApproachSummary {
    let avg: Vec<f64> = runs.iter().map(|r| r.avg_cost_per_slot).collect();
    let fin: Vec<f64> = runs.iter().map(|r| r.final_cost_per_slot).collect();
    let cpg: Vec<f64> = runs.iter().map(RunResult::cost_per_gb).filter(|c| c.is_finite()).collect();
    let p95: Vec<f64> = runs.iter().map(|r| r.p95_cost_per_slot).collect();
    let total: usize = runs.iter().map(|r| r.accepted + r.rejected).sum();
    let rej: usize = runs.iter().map(|r| r.rejected).sum();
    ApproachSummary {
        approach,
        avg_cost: ConfidenceInterval::of(&avg),
        final_cost: ConfidenceInterval::of(&fin),
        cost_per_gb: ConfidenceInterval::of(&cpg),
        p95_cost: ConfidenceInterval::of(&p95),
        rejection_rate: if total == 0 { 0.0 } else { rej as f64 / total as f64 },
        runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_scenario_runs_all_approaches() {
        let s = Scenario::fig4().tiny();
        let approaches = [
            Approach::Postcard,
            Approach::FlowLp,
            Approach::FlowTwoPhase,
            Approach::FlowGreedy,
            Approach::Direct,
        ];
        let summaries = run_scenario(&s, &approaches, 1).unwrap();
        assert_eq!(summaries.len(), 5);
        for s in &summaries {
            assert_eq!(s.runs.len(), 2);
            assert!(s.avg_cost.mean > 0.0, "{}: zero cost?", s.approach);
            assert!(s.avg_cost.mean.is_finite());
        }
    }

    #[test]
    fn paired_runs_are_deterministic() {
        let s = Scenario::fig4().tiny();
        let a = run_scenario(&s, &[Approach::FlowLp], 5).unwrap();
        let b = run_scenario(&s, &[Approach::FlowLp], 5).unwrap();
        assert_eq!(a, b);
        let c = run_scenario(&s, &[Approach::FlowLp], 6).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn postcard_never_loses_to_direct_on_average() {
        // Postcard's feasible set contains every direct plan, so with paired
        // traces its committed bill can only be lower or equal per run.
        let s = Scenario::fig4().tiny();
        let summaries = run_scenario(&s, &[Approach::Postcard, Approach::Direct], 3).unwrap();
        let postcard = &summaries[0];
        let direct = &summaries[1];
        for (p, d) in postcard.runs.iter().zip(&direct.runs) {
            // Direct may also reject more files (making its bill smaller for
            // unfair reasons); only compare when both served everything.
            if p.rejected == 0 && d.rejected == 0 {
                assert!(
                    p.avg_cost_per_slot <= d.avg_cost_per_slot + 1e-6,
                    "run {}: postcard {} > direct {}",
                    p.run,
                    p.avg_cost_per_slot,
                    d.avg_cost_per_slot
                );
            }
        }
    }

    #[test]
    fn empty_run_bills_zero_at_p95() {
        // A run that books nothing leaves a horizon-0 ledger; its p95 column
        // is a zero bill, not a zero-length billing window.
        let network = Scenario::fig4().tiny().network(1);
        let r = run_trace(&network, &Trace::from_requests(Vec::new()), 0, Approach::Postcard, 0)
            .unwrap();
        assert_eq!(r.p95_cost_per_slot, 0.0);
        assert_eq!(r.avg_cost_per_slot.to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn approach_names_unique_and_display() {
        assert_eq!(Approach::Postcard.to_string(), "postcard");
        assert_eq!(Approach::paper_pair().len(), 2);
    }

    #[test]
    fn p95_bill_never_exceeds_p100() {
        let s = Scenario::fig4().tiny();
        let out = run_scenario(&s, &[Approach::FlowLp], 9).unwrap();
        for r in &out[0].runs {
            assert!(
                r.p95_cost_per_slot <= r.final_cost_per_slot + 1e-9,
                "p95 {} > p100 {}",
                r.p95_cost_per_slot,
                r.final_cost_per_slot
            );
        }
        assert!(out[0].p95_cost.mean <= out[0].final_cost.mean + 1e-9);
    }

    #[test]
    fn approach_from_str_round_trips() {
        for a in [
            Approach::Postcard,
            Approach::PostcardNoRelayStorage,
            Approach::FlowLp,
            Approach::FlowTwoPhase,
            Approach::FlowGreedy,
            Approach::Direct,
        ] {
            assert_eq!(a.name().parse::<Approach>().unwrap(), a);
        }
        let err = "quantum".parse::<Approach>().unwrap_err();
        assert!(err.to_string().contains("quantum"));
    }
}
