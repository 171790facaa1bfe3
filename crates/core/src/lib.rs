//! # postcard-core — the Postcard optimizer
//!
//! The paper's primary contribution: minimizing inter-datacenter traffic
//! costs with **store-and-forward** at intermediate datacenters, formulated
//! on a time-expanded graph (paper Sec. V) and solved as a linear program.
//!
//! * [`solve_postcard`] — builds and solves the static traffic-allocation
//!   problem (Eq. 6–10) for a batch of files, returning a validated
//!   [`postcard_net::TransferPlan`];
//! * [`Scheduler`] — the common interface the online controller drives;
//!   implementations cover Postcard itself, the storage-free flow-based
//!   baselines from [`postcard_flow`], and a naive direct-path sender;
//! * [`OnlineController`] — the per-slot loop of Sec. III: files arrive,
//!   the scheduler decides, decisions are committed to the traffic ledger
//!   and constrain all later slots;
//! * [`extensions`] — the Sec. VI problems: bulk transfers over leftover
//!   bandwidth (problem 11, NetStitcher-like) and budget-constrained
//!   transfer maximization.
//!
//! The `max(·)` in the paper's objective is linearized exactly (see
//! `DESIGN.md`), so the convex program the authors solved with MATLAB
//! `fmincon` is solved here by [`postcard_lp`]'s simplex with identical
//! optima.
//!
//! # Example
//!
//! The paper's Fig. 1: a 6 MB file, an expensive direct link, and a cheap
//! two-hop relay. Postcard finds the 12-per-slot plan:
//!
//! ```
//! use postcard_core::solve_postcard;
//! use postcard_net::{DcId, FileId, NetworkBuilder, TrafficLedger, TransferRequest};
//!
//! # fn main() -> Result<(), postcard_core::PostcardError> {
//! let network = NetworkBuilder::new(3)
//!     .link(DcId(1), DcId(2), 10.0, 1000.0)
//!     .link(DcId(1), DcId(0), 1.0, 1000.0)
//!     .link(DcId(0), DcId(2), 3.0, 1000.0)
//!     .build();
//! let file = TransferRequest::new(FileId(1), DcId(1), DcId(2), 6.0, 3, 0);
//! let solution = solve_postcard(&network, &[file], &TrafficLedger::new(3))?;
//! assert!((solution.cost_per_slot - 12.0).abs() < 1e-4);
//! assert!(solution.plan.is_valid(&network, &[file], |_, _, _| 0.0));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod error;
pub mod extensions;
mod formulation;
mod headroom;
mod online;
mod scheduler;

pub use error::PostcardError;
pub use formulation::{
    build_postcard_problem, solve_postcard, solve_postcard_with, PostcardConfig, PostcardProblem,
    PostcardSolution,
};
pub use headroom::HeadroomScheduler;
pub use online::{admit, Admission, ControllerState, OnlineController, StepReport};
pub use scheduler::{
    Decision, DirectScheduler, FlowLpScheduler, GreedyScheduler, PostcardScheduler, Scheduler,
    SolveStats, TwoPhaseScheduler,
};
