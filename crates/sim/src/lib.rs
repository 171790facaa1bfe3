//! # postcard-sim — the time-slotted simulator
//!
//! Reproduces the evaluation of the Postcard paper (Sec. VII): a complete
//! graph of datacenters with uniformly random link prices, uniformly random
//! file batches every slot, and an online controller per approach, run for
//! many slots over many seeded repetitions.
//!
//! * [`Workload`] / [`UniformWorkload`] / [`PoissonWorkload`] /
//!   [`DiurnalWorkload`] — batch generators ([`UniformWorkload`] is the
//!   paper's);
//! * [`Trace`] — a materialized workload that can be replayed against every
//!   approach (paired comparisons) and saved/loaded as CSV; it and the
//!   [`Workload`] trait are defined in `postcard-net` and re-exported here;
//! * [`Scenario`] — presets for the paper's four settings (Fig. 4–7) at
//!   paper scale and at a laptop-scale reduction;
//! * [`Approach`] — the schedulers under comparison;
//! * [`run_scenario`] — the multi-run driver producing
//!   [`ApproachSummary`] statistics (mean cost per slot ± 95 % CI);
//! * [`run_scenario_service`] — the same driver routed through the
//!   crash-safe service runtime (optionally sharded), and
//!   [`TenantScenario`] — block-diagonal multi-tenant instances for the
//!   sharded runtime's equivalence tests and benches;
//! * [`report`] — plain-text tables in the shape of the paper's figures.
//!
//! # Example
//!
//! Run a miniature Fig. 6 (throttled capacity) comparison:
//!
//! ```
//! use postcard_sim::{run_scenario, Approach, Scenario};
//!
//! # fn main() -> Result<(), postcard_core::PostcardError> {
//! let scenario = Scenario::fig6().tiny(); // 4 DCs, 10 slots, 2 runs
//! let summaries = run_scenario(&scenario, &Approach::paper_pair(), 1)?;
//! assert_eq!(summaries.len(), 2);
//! assert!(summaries.iter().all(|s| s.avg_cost.mean > 0.0));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod diurnal;
pub mod report;
mod runner;
mod scenario;
mod service;
mod stats;
mod tenant;
mod workload;

pub use diurnal::{compare_billing, BillingComparison, DiurnalPreset};
pub use postcard_net::{Trace, Workload};
pub use runner::{
    run_scenario, run_trace, Approach, ApproachSummary, ParseApproachError, RunResult,
};
pub use scenario::Scenario;
pub use service::{run_scenario_service, run_trace_service, ServiceRunResult};
pub use stats::{mean, sample_stddev, ConfidenceInterval, Summary};
pub use tenant::TenantScenario;
pub use workload::{DiurnalWorkload, PoissonWorkload, UniformWorkload, WorkloadConfig};
