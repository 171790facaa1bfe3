//! The solver fallback chain: optionally the ALAP fast path, then the
//! Postcard LP, then the storage-free flow LP, then the greedy allocator —
//! so a slot is never missed.
//!
//! Tier order follows the feasible-set nesting of the underlying models
//! (Postcard ⊇ flow LP ⊇ greedy): every lower tier is cheaper to solve but
//! can only be costlier per bill. Three failure classes move the chain to
//! the next tier:
//!
//! * a **forced timeout** from the fault plan (the tier is unavailable this
//!   slot — modelling an aborted solve);
//! * a **budget overrun**: the tier solved, but the slot's cumulative solve
//!   time already exceeds the per-slot budget (checked post-hoc — solves
//!   are not preempted — and waived for the final tier, which always
//!   commits rather than miss the slot);
//! * a **numerical failure** (`PostcardError::Lp`). It is not retried:
//!   every tier is deterministic (the LP tiers solve cold in a fresh
//!   workspace, the others are pure functions of their inputs), so a second
//!   call would fail the same way.
//!
//! [`PostcardError::Infeasible`] is *not* a fallback trigger: by the
//! nesting above, a batch infeasible for Postcard is infeasible for every
//! lower tier, so it propagates immediately and the online controller's
//! per-file admission takes over.
//!
//! The [`TierKind::Alap`] rung sits *outside* that nesting: it is a
//! constructive admission test (DCRoute-style As-Late-As-Possible placement
//! against residual capacity), so its commits are feasible by construction,
//! but its rejections are heuristic — the LP might still have placed the
//! file. The runtime accepts that trade-off for admission latency of
//! O(k × window × hops) grid lookups per request (the pair's `k` cheapest
//! paths are cached), and demotes the LP to a periodic re-optimization
//! pass: on such slots the chain *skips* the ALAP rung
//! ([`AttemptOutcome::Skipped`], armed via [`FallbackChain::set_skip_alap`])
//! and lets the LP re-plan. The chain keeps the rung's residual grid honest
//! itself: whenever another tier commits, an ALAP placement is discarded
//! for the budget, or the chain hard-fails (the caller then rolls the
//! slot's bookings back), it marks the grid stale
//! ([`FallbackChain::mark_alap_dirty`]) and the next ALAP call rebases it
//! from the ledger it is handed.

use crate::clock::Clock;
use crate::runtime::RuntimeConfig;
use postcard_core::{
    Decision, FlowLpScheduler, GreedyScheduler, HeadroomScheduler, PostcardError,
    PostcardScheduler, Scheduler, SolveStats,
};
use postcard_flow::AlapScheduler;
use postcard_net::{ChargingScheme, Network, TrafficLedger, TransferPlan, TransferRequest};
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// One tier of the fallback chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TierKind {
    /// The percentile-headroom burst rung (percentile charging only): serves
    /// batches out of already-paid-for billing-window headroom, declining
    /// whatever would move the charged rank.
    Headroom,
    /// The ALAP fast-path admission rung (no LP solve).
    Alap,
    /// The paper's store-and-forward LP.
    Postcard,
    /// The storage-free flow LP.
    FlowLp,
    /// The cheapest-available-path greedy allocator.
    Greedy,
}

impl TierKind {
    /// Stable name used in metrics, CLI flags, and snapshots.
    pub fn name(&self) -> &'static str {
        match self {
            TierKind::Headroom => "headroom",
            TierKind::Alap => "alap",
            TierKind::Postcard => "postcard",
            TierKind::FlowLp => "flow-lp",
            TierKind::Greedy => "flow-greedy",
        }
    }

    /// Builds the tier's scheduler. `charging` is the run's charging
    /// scheme, which the [`TierKind::Headroom`] rung places traffic
    /// against; other tiers ignore it.
    ///
    /// # Panics
    ///
    /// Panics when building [`TierKind::Headroom`] under a scheme with no
    /// free slots (notably [`ChargingScheme::MaxPerSlot`]) — runtime config
    /// validation rejects that combination before it gets here.
    pub fn build(&self, charging: ChargingScheme) -> Box<dyn Scheduler> {
        match self {
            TierKind::Headroom => Box::new(HeadroomScheduler::new(charging)),
            TierKind::Alap => Box::new(AlapTier::new()),
            TierKind::Postcard => Box::new(PostcardScheduler::new()),
            TierKind::FlowLp => Box::new(FlowLpScheduler::new()),
            TierKind::Greedy => Box::new(GreedyScheduler),
        }
    }

    /// The default chain, strongest first.
    pub fn default_chain() -> Vec<TierKind> {
        vec![TierKind::Postcard, TierKind::FlowLp, TierKind::Greedy]
    }
}

impl std::fmt::Display for TierKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for TierKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "headroom" => Ok(TierKind::Headroom),
            "alap" => Ok(TierKind::Alap),
            "postcard" => Ok(TierKind::Postcard),
            "flow-lp" => Ok(TierKind::FlowLp),
            "flow-greedy" | "greedy" => Ok(TierKind::Greedy),
            other => Err(format!("unknown tier `{other}`")),
        }
    }
}

/// Why a tier attempt ended the way it did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttemptOutcome {
    /// The tier's decision was committed.
    Committed,
    /// The fault plan forced this tier to time out.
    ForcedTimeout,
    /// The tier solved, but the slot budget was already spent.
    BudgetExceeded,
    /// The tier failed numerically.
    Failed,
    /// The batch is infeasible (propagated, ends the chain).
    Infeasible,
    /// The ALAP rung was deliberately skipped on a scheduled
    /// re-optimization slot so the LP re-plans the batch. Not a failure:
    /// distinct from [`AttemptOutcome::ForcedTimeout`] so skipped slots do
    /// not pollute fallback-activation metrics.
    Skipped,
    /// The headroom rung found no paid-for headroom for this batch and
    /// passed it on. Unlike [`AttemptOutcome::Infeasible`] this does NOT
    /// end the chain: headroom sits *outside* the feasible-set nesting (it
    /// is a billing policy, not a weaker solver), so its rejections say
    /// nothing about what the LP tiers can place.
    Declined,
}

/// The [`TierKind::Alap`] rung: wraps [`AlapScheduler`] as a chain tier.
///
/// The scheduler keeps two pieces of *derived* state: the residual grid
/// (link capacity minus the committed ledger plus this slot's own
/// reservations) and each DC pair's `k` cheapest paths (a function of the
/// link prices). Whenever either source changes behind its back — another
/// tier committed (the chain marks that), a fault degraded or repriced a
/// link, or the runtime resumed from a snapshot — the tier is marked dirty
/// and the next schedule call rebases before admitting: the grid is
/// rebuilt from the ledger, and the paths are dropped only if a price or
/// link changed. That is what makes killed-and-resumed runs bit-identical
/// without persisting either.
#[derive(Debug)]
pub struct AlapTier {
    scheduler: AlapScheduler,
    dirty: bool,
}

impl AlapTier {
    /// A tier whose grid will be rebased from the ledger on first use.
    pub fn new() -> Self {
        Self { scheduler: AlapScheduler::default(), dirty: true }
    }

    /// Marks the residual grid stale; the next schedule call rebases it
    /// from the network and ledger it is handed.
    pub fn mark_dirty(&mut self) {
        self.dirty = true;
    }
}

impl Default for AlapTier {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheduler for AlapTier {
    fn name(&self) -> &'static str {
        "alap"
    }

    fn schedule(
        &mut self,
        network: &Network,
        files: &[TransferRequest],
        ledger: &TrafficLedger,
    ) -> Result<Decision, PostcardError> {
        if files.is_empty() {
            // Nothing to admit: commit an empty plan without touching the
            // grid, so empty slots skip the LP entirely.
            return Ok(Decision::Plan(TransferPlan::new()));
        }
        if self.dirty {
            self.scheduler.rebase(network, ledger);
            self.dirty = false;
        }
        match self.scheduler.admit_batch(network, files) {
            Ok(plan) => Ok(Decision::Plan(plan)),
            // A rejection is *this rung's* admission verdict, not a solver
            // breakdown: report the batch infeasible so the controller's
            // per-file admission retries each file (instant per-file
            // admit/reject, still no LP).
            Err(_) => Err(PostcardError::Infeasible),
        }
    }

    fn last_stats(&self) -> SolveStats {
        SolveStats::default()
    }
}

/// One tier attempt within a slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttemptRecord {
    /// Which tier.
    pub tier: TierKind,
    /// How the attempt ended.
    pub outcome: AttemptOutcome,
    /// Cumulative slot solve time when the attempt finished.
    pub elapsed: Duration,
    /// LP effort of this attempt (0 for combinatorial tiers).
    pub lp_iterations: usize,
    /// Dual-simplex pivots within `lp_iterations`: always 0, since every
    /// tier solves cold and the dual simplex runs only from a supplied
    /// basis. Kept for the attempt log's readers (slotbench reports it as
    /// `lp.dual_pivots`).
    pub dual_iterations: usize,
}

/// A tier's scheduler. The ALAP rung keeps its concrete type so the chain
/// can reach [`AlapTier::mark_dirty`]; every other tier is a trait object.
enum TierScheduler {
    Alap(AlapTier),
    Dyn(Box<dyn Scheduler>),
}

impl TierScheduler {
    fn as_scheduler_mut(&mut self) -> &mut dyn Scheduler {
        match self {
            TierScheduler::Alap(t) => t,
            TierScheduler::Dyn(b) => b.as_mut(),
        }
    }

    fn last_stats(&self) -> SolveStats {
        match self {
            TierScheduler::Alap(t) => t.last_stats(),
            TierScheduler::Dyn(b) => b.last_stats(),
        }
    }
}

struct Tier {
    kind: TierKind,
    scheduler: TierScheduler,
}

/// A [`Scheduler`] that tries tiers in order until one commits.
pub struct FallbackChain {
    tiers: Vec<Tier>,
    clock: Box<dyn Clock>,
    slot_budget: Duration,
    forced_now: Vec<TierKind>,
    skip_alap: bool,
    records: Vec<AttemptRecord>,
    last_stats: SolveStats,
}

impl std::fmt::Debug for FallbackChain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FallbackChain")
            .field("tiers", &self.tiers.iter().map(|t| t.kind).collect::<Vec<_>>())
            .field("slot_budget", &self.slot_budget)
            .field("forced_now", &self.forced_now)
            .finish_non_exhaustive()
    }
}

impl FallbackChain {
    /// Builds the chain `config` asks for: its tiers in fallback order, its
    /// per-slot solve budget measured by its clock, and its charging scheme
    /// (needed by the [`TierKind::Headroom`] rung, see [`TierKind::build`]).
    ///
    /// # Panics
    ///
    /// Panics if the tier list is empty, or contains [`TierKind::Headroom`]
    /// while the charging scheme has no free slots.
    pub fn new(config: &RuntimeConfig) -> Self {
        assert!(!config.tiers.is_empty(), "fallback chain needs at least one tier");
        Self {
            tiers: config
                .tiers
                .iter()
                .map(|&kind| Tier {
                    kind,
                    scheduler: match kind {
                        TierKind::Alap => TierScheduler::Alap(AlapTier::new()),
                        _ => TierScheduler::Dyn(kind.build(config.charging)),
                    },
                })
                .collect(),
            clock: config.clock.build(),
            slot_budget: config.slot_budget(),
            forced_now: Vec::new(),
            skip_alap: false,
            records: Vec::new(),
            last_stats: SolveStats::default(),
        }
    }

    /// Starts a slot: resets the stopwatch, attempt log, and reopt skip,
    /// and arms the forced timeouts scheduled for this slot.
    pub fn begin_slot(&mut self, slot: u64, forced: Vec<TierKind>) {
        self.clock.start_slot(slot);
        self.forced_now = forced;
        self.skip_alap = false;
        self.records.clear();
    }

    /// Arms (or disarms) the re-optimization skip for the current slot:
    /// while set, the ALAP rung records [`AttemptOutcome::Skipped`] and the
    /// chain falls through to the LP tiers, which re-plan the batch. Reset
    /// by [`FallbackChain::begin_slot`]. No-op for the last tier — a
    /// one-tier `alap` chain must still commit every slot.
    pub fn set_skip_alap(&mut self, skip: bool) {
        self.skip_alap = skip;
    }

    /// Marks every ALAP rung's residual grid stale (see
    /// [`AlapTier::mark_dirty`]): call after any ledger or network change
    /// the grid did not make itself — a link degradation, a reprice, another
    /// shard's merge. Commits by this chain's own tiers are handled by
    /// [`FallbackChain::schedule`].
    pub fn mark_alap_dirty(&mut self) {
        for tier in &mut self.tiers {
            if let TierScheduler::Alap(t) = &mut tier.scheduler {
                t.mark_dirty();
            }
        }
    }

    /// Simulated clock access (used by tests and fault drivers to consume
    /// budget deterministically).
    pub fn clock_mut(&mut self) -> &mut dyn Clock {
        self.clock.as_mut()
    }

    /// All tier attempts since [`FallbackChain::begin_slot`] (several
    /// schedule calls accumulate here when the controller retries
    /// per-file admission).
    pub fn records(&self) -> &[AttemptRecord] {
        &self.records
    }

    /// The tier that committed the slot's first decision, if any.
    pub fn chosen_tier(&self) -> Option<TierKind> {
        self.records.iter().find(|r| r.outcome == AttemptOutcome::Committed).map(|r| r.tier)
    }

    fn record(&mut self, tier: TierKind, outcome: AttemptOutcome, stats: SolveStats) {
        self.records.push(AttemptRecord {
            tier,
            outcome,
            elapsed: self.clock.elapsed(),
            lp_iterations: stats.lp_iterations,
            dual_iterations: 0,
        });
    }
}

impl Scheduler for FallbackChain {
    fn name(&self) -> &'static str {
        "fallback-chain"
    }

    fn schedule(
        &mut self,
        network: &Network,
        files: &[TransferRequest],
        ledger: &TrafficLedger,
    ) -> Result<Decision, PostcardError> {
        let num_tiers = self.tiers.len();
        for i in 0..num_tiers {
            let kind = self.tiers[i].kind;
            let is_last = i + 1 == num_tiers;

            if kind == TierKind::Alap && self.skip_alap && !is_last {
                self.record(kind, AttemptOutcome::Skipped, SolveStats::default());
                continue;
            }

            if self.forced_now.contains(&kind) && !is_last {
                self.record(kind, AttemptOutcome::ForcedTimeout, SolveStats::default());
                continue;
            }

            let result =
                self.tiers[i].scheduler.as_scheduler_mut().schedule(network, files, ledger);
            let stats = self.tiers[i].scheduler.last_stats();

            match result {
                Ok(decision) => {
                    if self.clock.elapsed() > self.slot_budget && !is_last {
                        // A discarded ALAP placement is still reserved in
                        // the rung's grid.
                        if kind == TierKind::Alap {
                            self.mark_alap_dirty();
                        }
                        self.record(kind, AttemptOutcome::BudgetExceeded, stats);
                        continue;
                    }
                    // Only the ALAP rung books into its own grid; any other
                    // tier's decision lands on the ledger behind its back.
                    if kind != TierKind::Alap {
                        self.mark_alap_dirty();
                    }
                    self.record(kind, AttemptOutcome::Committed, stats);
                    self.last_stats = stats;
                    return Ok(decision);
                }
                Err(PostcardError::Infeasible) if kind == TierKind::Headroom && !is_last => {
                    // Headroom declining a batch is routine (no budget left,
                    // indirect route needed, zero baseline): hand the batch
                    // to the real solvers instead of rejecting it.
                    self.record(kind, AttemptOutcome::Declined, stats);
                    continue;
                }
                Err(PostcardError::Infeasible) => {
                    self.record(kind, AttemptOutcome::Infeasible, stats);
                    return Err(PostcardError::Infeasible);
                }
                Err(e) => {
                    self.record(kind, AttemptOutcome::Failed, stats);
                    if is_last {
                        // The caller rolls back the slot's bookings, ALAP
                        // placements included.
                        self.mark_alap_dirty();
                        return Err(e);
                    }
                }
            }
        }
        unreachable!("the final tier either commits or returns its error");
    }

    fn last_stats(&self) -> SolveStats {
        self.last_stats
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

    /// A chain over `tiers` with a 100 ms budget on the simulated clock.
    fn chain_of(tiers: &[TierKind], charging: ChargingScheme) -> FallbackChain {
        FallbackChain::new(&RuntimeConfig {
            tiers: tiers.to_vec(),
            slot_budget_us: 100_000,
            charging,
            ..RuntimeConfig::default()
        })
    }

    fn chain() -> FallbackChain {
        chain_of(&TierKind::default_chain(), ChargingScheme::MaxPerSlot)
    }

    fn file() -> TransferRequest {
        TransferRequest::new(FileId(1), d(1), d(2), 6.0, 3, 0)
    }

    #[test]
    fn healthy_chain_commits_on_first_tier() {
        let mut c = chain();
        c.begin_slot(0, vec![]);
        let d = c.schedule(&net(), &[file()], &TrafficLedger::new(3)).unwrap();
        assert!(matches!(d, Decision::Plan(_)));
        assert_eq!(c.chosen_tier(), Some(TierKind::Postcard));
        assert_eq!(c.records().len(), 1);
        assert!(c.last_stats().lp_iterations > 0, "postcard solve should pivot");
    }

    #[test]
    fn forced_timeout_activates_next_tier() {
        let mut c = chain();
        c.begin_slot(0, vec![TierKind::Postcard]);
        let d = c.schedule(&net(), &[file()], &TrafficLedger::new(3)).unwrap();
        assert!(matches!(d, Decision::Rates(_)), "flow LP returns rates");
        assert_eq!(c.chosen_tier(), Some(TierKind::FlowLp));
        assert_eq!(c.records()[0].outcome, AttemptOutcome::ForcedTimeout);
    }

    #[test]
    fn budget_overrun_falls_through_but_last_tier_always_commits() {
        let mut c = chain();
        c.begin_slot(0, vec![]);
        // Pre-spend the whole slot budget: every non-final tier is rejected
        // post-hoc, the final tier commits anyway.
        c.clock_mut().advance(Duration::from_secs(10));
        let d = c.schedule(&net(), &[file()], &TrafficLedger::new(3)).unwrap();
        assert!(matches!(d, Decision::Rates(_)));
        assert_eq!(c.chosen_tier(), Some(TierKind::Greedy));
        assert_eq!(c.records()[0].outcome, AttemptOutcome::BudgetExceeded);
        assert_eq!(c.records()[1].outcome, AttemptOutcome::BudgetExceeded);
    }

    #[test]
    fn infeasible_propagates_without_fallback() {
        // 10 GB, 1 slot, capacity 2: infeasible for every tier.
        let net = NetworkBuilder::new(2).link(d(0), d(1), 1.0, 2.0).build();
        let f = TransferRequest::new(FileId(1), d(0), d(1), 10.0, 1, 0);
        let mut c = chain();
        c.begin_slot(0, vec![]);
        let err = c.schedule(&net, &[f], &TrafficLedger::new(2)).unwrap_err();
        assert_eq!(err, PostcardError::Infeasible);
        // Exactly one attempt: the chain did not try lower tiers.
        assert_eq!(c.records().len(), 1);
        assert_eq!(c.records()[0].outcome, AttemptOutcome::Infeasible);
    }

    #[test]
    fn forcing_every_tier_still_commits_via_final_tier() {
        let mut c = chain();
        c.begin_slot(0, TierKind::default_chain());
        let d = c.schedule(&net(), &[file()], &TrafficLedger::new(3)).unwrap();
        assert!(matches!(d, Decision::Rates(_)));
        assert_eq!(c.chosen_tier(), Some(TierKind::Greedy));
    }

    #[test]
    fn tier_names_parse_round_trip() {
        for t in TierKind::default_chain() {
            assert_eq!(t.name().parse::<TierKind>().unwrap(), t);
        }
        assert_eq!("greedy".parse::<TierKind>().unwrap(), TierKind::Greedy);
        assert_eq!("alap".parse::<TierKind>().unwrap(), TierKind::Alap);
        assert_eq!(TierKind::Alap.name().parse::<TierKind>().unwrap(), TierKind::Alap);
        assert!("quantum".parse::<TierKind>().is_err());
    }

    fn alap_chain() -> FallbackChain {
        chain_of(&[TierKind::Alap, TierKind::Postcard], ChargingScheme::MaxPerSlot)
    }

    #[test]
    fn alap_rung_commits_without_lp_iterations() {
        let mut c = alap_chain();
        c.begin_slot(0, vec![]);
        let d = c.schedule(&net(), &[file()], &TrafficLedger::new(3)).unwrap();
        assert!(matches!(d, Decision::Plan(_)));
        assert_eq!(c.chosen_tier(), Some(TierKind::Alap));
        assert_eq!(c.last_stats().lp_iterations, 0, "no LP was built");
    }

    #[test]
    fn reopt_skip_falls_through_to_the_lp() {
        let mut c = alap_chain();
        c.begin_slot(2, vec![]);
        c.set_skip_alap(true);
        let d = c.schedule(&net(), &[file()], &TrafficLedger::new(3)).unwrap();
        assert!(matches!(d, Decision::Plan(_)));
        assert_eq!(c.chosen_tier(), Some(TierKind::Postcard));
        assert_eq!(c.records()[0].outcome, AttemptOutcome::Skipped);
        // The next slot re-arms: begin_slot clears the skip.
        c.begin_slot(3, vec![]);
        c.schedule(&net(), &[file()], &TrafficLedger::new(3)).unwrap();
        assert_eq!(c.chosen_tier(), Some(TierKind::Alap));
    }

    #[test]
    fn skip_is_ignored_when_alap_is_the_only_tier() {
        let mut c = chain_of(&[TierKind::Alap], ChargingScheme::MaxPerSlot);
        c.begin_slot(2, vec![]);
        c.set_skip_alap(true);
        let d = c.schedule(&net(), &[file()], &TrafficLedger::new(3)).unwrap();
        assert!(matches!(d, Decision::Plan(_)), "a one-tier chain must still commit");
        assert_eq!(c.chosen_tier(), Some(TierKind::Alap));
    }

    fn headroom_chain() -> FallbackChain {
        chain_of(
            &[TierKind::Headroom, TierKind::Postcard],
            ChargingScheme::Percentile { q: 95.0, window_slots: 20 },
        )
    }

    #[test]
    fn headroom_decline_falls_through_without_rejecting() {
        // Empty ledger → zero baseline → headroom declines, but the batch is
        // perfectly LP-servable and must still commit.
        let mut c = headroom_chain();
        c.begin_slot(0, vec![]);
        let d = c.schedule(&net(), &[file()], &TrafficLedger::new(3)).unwrap();
        assert!(matches!(d, Decision::Plan(_)));
        assert_eq!(c.chosen_tier(), Some(TierKind::Postcard));
        assert_eq!(c.records()[0].outcome, AttemptOutcome::Declined);
    }

    #[test]
    fn headroom_commits_when_budget_allows() {
        let scheme = ChargingScheme::Percentile { q: 95.0, window_slots: 20 };
        let mut ledger = TrafficLedger::new(3);
        // Established 4 GB baseline on the direct link 1 → 2.
        for s in 0..10 {
            ledger.record(d(1), d(2), s, 4.0);
        }
        let mut c = headroom_chain();
        c.begin_slot(10, vec![]);
        // A burst needing one converted slot: headroom takes it.
        let f = TransferRequest::new(FileId(7), d(1), d(2), 50.0, 2, 10);
        let dec = c.schedule(&net(), &[f], &ledger).unwrap();
        assert_eq!(c.chosen_tier(), Some(TierKind::Headroom));
        assert!(c.records().iter().all(|r| r.outcome != AttemptOutcome::Declined));
        let Decision::Plan(plan) = dec else { panic!("headroom emits plans") };
        let mut after = ledger.clone();
        plan.apply_to_ledger(&mut after);
        // The window's charge did not move.
        assert_eq!(after.window_baseline(d(1), d(2), scheme, 10), 4.0);
    }

    #[test]
    fn headroom_name_parses() {
        assert_eq!("headroom".parse::<TierKind>().unwrap(), TierKind::Headroom);
        assert_eq!(TierKind::Headroom.name(), "headroom");
    }

    #[test]
    fn alap_rejection_propagates_as_infeasible() {
        let net = NetworkBuilder::new(2).link(d(0), d(1), 1.0, 2.0).build();
        let f = TransferRequest::new(FileId(1), d(0), d(1), 10.0, 1, 0);
        let mut c = alap_chain();
        c.begin_slot(0, vec![]);
        let err = c.schedule(&net, &[f], &TrafficLedger::new(2)).unwrap_err();
        assert_eq!(err, PostcardError::Infeasible);
        assert_eq!(c.records().len(), 1, "no LP attempt followed the rejection");
        assert_eq!(c.records()[0].tier, TierKind::Alap);
    }
}
