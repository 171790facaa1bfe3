//! Replaying simulator traces through the fault-tolerant service runtime.
//!
//! [`run_trace`](crate::run_trace) drives a bare [`postcard_core`]
//! controller; [`run_trace_service`] drives the same trace through
//! [`postcard_runtime::Runtime`] — fallback chain, admission queue, fault
//! plan, metrics, checkpointing and all. With an all-clear fault plan and
//! the single Postcard tier the two paths produce *identical* numbers
//! (asserted by this module's tests), which is what makes the service
//! runtime a drop-in for experiments that also want crash-safety or fault
//! injection.

use crate::runner::{run_result, summarize, Approach, ApproachSummary, RunResult};
use crate::scenario::Scenario;
use crate::workload::Trace;
use postcard_net::Network;
use postcard_runtime::{
    ArrivalSchedule, FaultPlan, MetricsRegistry, Runtime, RuntimeConfig, RuntimeError, TierKind,
};

/// Converts a simulator trace into the runtime's arrival schedule (same
/// requests, same order).
pub fn trace_to_arrivals(trace: &Trace) -> ArrivalSchedule {
    ArrivalSchedule::from_requests(trace.requests().to_vec())
}

/// One trace replayed through the service runtime.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceRunResult {
    /// The cost/admission metrics, in the same shape as a plain
    /// [`crate::run_trace`] result (the `approach` field reports the
    /// runtime's *first* tier; fallback activity lives in `metrics`).
    pub result: RunResult,
    /// The runtime's metrics registry (tier choices, fallback activations,
    /// solve latency, queue drops, …).
    pub metrics: MetricsRegistry,
}

/// Replays one trace through a [`Runtime`] with the given fault plan.
///
/// # Errors
///
/// Propagates [`RuntimeError`]s (snapshot I/O, invalid config, or a hard
/// scheduler failure even the degraded path could not absorb).
pub fn run_trace_service(
    network: &Network,
    trace: &Trace,
    num_slots: u64,
    faults: FaultPlan,
    config: RuntimeConfig,
    run: usize,
) -> Result<ServiceRunResult, RuntimeError> {
    let approach = config.tiers[0]
        .name()
        .parse()
        .map_err(|e: crate::runner::ParseApproachError| RuntimeError::Config(e.to_string()))?;
    let mut rt =
        Runtime::new(network.clone(), trace_to_arrivals(trace), faults, num_slots, config)?;
    rt.run_to_end()?;

    let result = run_result(rt.controller(), approach, run, rt.num_slots());
    Ok(ServiceRunResult { result, metrics: rt.metrics().clone() })
}

/// The service tier a simulator approach maps onto.
///
/// # Errors
///
/// Approaches with no fallback-chain tier (two-phase, direct, the
/// no-relay-storage ablation) are rejected with a config error.
fn service_tier(approach: Approach) -> Result<TierKind, RuntimeError> {
    match approach {
        Approach::Postcard => Ok(TierKind::Postcard),
        Approach::FlowLp => Ok(TierKind::FlowLp),
        Approach::FlowGreedy => Ok(TierKind::Greedy),
        other => Err(RuntimeError::Config(format!(
            "approach `{other}` has no service-runtime tier \
             (pick postcard, flow-lp, or flow-greedy)"
        ))),
    }
}

/// Runs a figure scenario through the crash-safe service runtime: the same
/// seed derivation and paired traces as [`crate::run_scenario`], but every
/// (approach, run) pair replays through a [`Runtime`] built from `template`
/// with that approach as its single tier — fallback chain, admission queue,
/// metrics, and (when `template.shards > 1`) the sharded step included.
///
/// # Errors
///
/// Rejects approaches without a service tier and propagates runtime
/// failures.
pub fn run_scenario_service(
    scenario: &Scenario,
    approaches: &[Approach],
    base_seed: u64,
    template: &RuntimeConfig,
) -> Result<Vec<ApproachSummary>, RuntimeError> {
    let mut per_approach: Vec<Vec<RunResult>> = vec![Vec::new(); approaches.len()];
    for run in 0..scenario.num_runs {
        let seed = base_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(run as u64);
        let network = scenario.network(seed);
        let mut workload = scenario.workload(seed ^ 0xDEAD_BEEF);
        let trace = Trace::generate(&mut workload, scenario.num_slots);
        for (i, &a) in approaches.iter().enumerate() {
            let config = RuntimeConfig { tiers: vec![service_tier(a)?], ..template.clone() };
            let service = run_trace_service(
                &network,
                &trace,
                scenario.num_slots,
                FaultPlan::none(),
                config,
                run,
            )?;
            per_approach[i].push(service.result);
        }
    }
    Ok(approaches
        .iter()
        .zip(per_approach)
        .map(|(&approach, runs)| summarize(approach, runs))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_trace, Approach};
    use crate::scenario::Scenario;
    use crate::workload::Trace;
    use postcard_runtime::TierKind;

    fn paired_instance() -> (Network, Trace, u64) {
        let s = Scenario::fig4().tiny();
        let network = s.network(42);
        let mut workload = s.workload(42 ^ 0xDEAD_BEEF);
        let trace = Trace::generate(&mut workload, s.num_slots);
        // The runtime extends the horizon so late releases keep their full
        // deadline windows; drive the plain controller over the same span
        // so the two paths stay number-for-number comparable.
        let horizon = trace_to_arrivals(&trace).horizon_slots().max(s.num_slots);
        (network, trace, horizon)
    }

    #[test]
    fn service_path_matches_plain_controller_exactly() {
        let (network, trace, num_slots) = paired_instance();
        let plain = run_trace(&network, &trace, num_slots, Approach::Postcard, 0).unwrap();
        let config = RuntimeConfig { tiers: vec![TierKind::Postcard], ..Default::default() };
        let service =
            run_trace_service(&network, &trace, num_slots, FaultPlan::none(), config, 0).unwrap();
        // Same trace, same solver, same ledger arithmetic: every number is
        // bit-identical, not merely close.
        assert_eq!(service.result, plain);
        assert_eq!(service.metrics.counter("fallback_activations"), 0);
    }

    #[test]
    fn full_chain_without_faults_stays_on_postcard() {
        let (network, trace, num_slots) = paired_instance();
        let plain = run_trace(&network, &trace, num_slots, Approach::Postcard, 0).unwrap();
        let service = run_trace_service(
            &network,
            &trace,
            num_slots,
            FaultPlan::none(),
            RuntimeConfig::default(),
            0,
        )
        .unwrap();
        assert_eq!(service.result, plain, "an idle fallback chain must be invisible");
        assert_eq!(service.metrics.counter("tier_chosen_flow-lp"), 0);
    }

    #[test]
    fn zero_capacity_outage_is_applied_and_service_keeps_running() {
        // A dead link (capacity 0) mid-run is a real outage, not a skipped
        // fault: the degradation applies and every slot still completes
        // (files that needed the link are rejected or routed around, never
        // crash the service).
        let (network, trace, num_slots) = paired_instance();
        let link = network.links().next().unwrap();
        let faults = FaultPlan::none().degrade(1, link.from, link.to, 0.0);
        let service =
            run_trace_service(&network, &trace, num_slots, faults, RuntimeConfig::default(), 0)
                .unwrap();
        assert_eq!(service.metrics.counter("degradations_applied"), 1);
        assert_eq!(service.metrics.counter("degradations_skipped"), 0);
        assert_eq!(service.metrics.counter("slots_total"), num_slots);
    }

    #[test]
    fn scenario_service_matches_plain_scenario_run() {
        // The service driver reuses run_scenario's seed derivation, so with
        // the single Postcard tier and no faults every run matches a plain
        // controller replay of the same trace (over the runtime's extended
        // horizon, which keeps late releases' full deadline windows).
        let s = Scenario::fig4().tiny();
        let config = RuntimeConfig { tiers: vec![TierKind::Postcard], ..Default::default() };
        let service = run_scenario_service(&s, &[Approach::Postcard], 3, &config).unwrap();
        assert_eq!(service.len(), 1);
        assert_eq!(service[0].runs.len(), s.num_runs);
        for run in 0..s.num_runs {
            let seed = 3u64.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(run as u64);
            let network = s.network(seed);
            let mut workload = s.workload(seed ^ 0xDEAD_BEEF);
            let trace = Trace::generate(&mut workload, s.num_slots);
            let horizon = trace_to_arrivals(&trace).horizon_slots().max(s.num_slots);
            let plain = run_trace(&network, &trace, horizon, Approach::Postcard, run).unwrap();
            assert_eq!(service[0].runs[run], plain, "run {run}");
        }
    }

    #[test]
    fn scenario_service_rejects_tierless_approaches() {
        let s = Scenario::fig4().tiny();
        let err = run_scenario_service(&s, &[Approach::Direct], 1, &RuntimeConfig::default())
            .unwrap_err();
        assert!(err.to_string().contains("no service-runtime tier"), "{err}");
    }

    #[test]
    fn sharded_service_matches_unsharded_on_tenant_disjoint_workloads() {
        // Block-diagonal network, tenant-tagged trace: the joint LP
        // decomposes by cluster, so per-tenant shard solves merged by the
        // reconciler must reproduce the unsharded admissions and bill.
        use crate::tenant::TenantScenario;
        use postcard_runtime::ShardBy;
        let s = TenantScenario::quad();
        let network = s.network(11);
        let trace = s.trace(11 ^ 0xDEAD_BEEF);
        let slots = trace_to_arrivals(&trace).horizon_slots().max(s.num_slots);
        let unsharded = run_trace_service(
            &network,
            &trace,
            slots,
            FaultPlan::none(),
            RuntimeConfig::default(),
            0,
        )
        .unwrap();
        let config =
            RuntimeConfig { shards: s.tenants, shard_by: ShardBy::Tenant, ..Default::default() };
        let sharded =
            run_trace_service(&network, &trace, slots, FaultPlan::none(), config, 0).unwrap();
        let (u, h) = (&unsharded.result, &sharded.result);
        assert_eq!(h.accepted, u.accepted);
        assert_eq!(h.rejected, u.rejected);
        assert!((h.accepted_volume - u.accepted_volume).abs() < 1e-6);
        let rel = (h.final_cost_per_slot - u.final_cost_per_slot).abs()
            / u.final_cost_per_slot.max(1e-12);
        assert!(
            rel < 1e-6,
            "sharded bill {} vs unsharded {}",
            h.final_cost_per_slot,
            u.final_cost_per_slot
        );
        assert_eq!(sharded.metrics.counter("shard_conflicts"), 0);
    }

    #[test]
    fn forced_timeouts_change_tier_but_never_miss_slots() {
        let (network, trace, num_slots) = paired_instance();
        let faults = FaultPlan::none().force_timeout(0, TierKind::Postcard);
        let service =
            run_trace_service(&network, &trace, num_slots, faults, RuntimeConfig::default(), 0)
                .unwrap();
        assert_eq!(service.metrics.counter("slots_total"), num_slots);
        assert_eq!(service.metrics.counter("fallback_activations"), 1);
        assert!(service.metrics.counter("tier_chosen_flow-lp") >= 1);
    }
}
