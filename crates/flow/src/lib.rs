//! # postcard-flow — flow algorithms and the Postcard flow-based baseline
//!
//! The Postcard paper compares its store-and-forward optimizer against a
//! **flow-based approach** (Sec. II-B) that forbids temporal storage: each
//! file becomes a *flow* at its constant desired rate `F_k / T_k`, routed
//! (possibly split over several multi-hop paths) so that traffic costs are
//! minimized. This crate provides that baseline and the classic flow
//! machinery it rests on:
//!
//! * [`FlowNetwork`] — a residual graph for combinatorial algorithms;
//! * [`min_cost_flow`] — successive shortest paths with potentials (the
//!   exact oracle the LP solver's tests check network LPs against);
//! * [`FlowAssignment`] — per-file constant rates on links, with
//!   instantaneous-conservation validation and ledger commitment;
//! * [`max_concurrent_flow`] — LP: route the largest common fraction λ of
//!   all demands within given capacities;
//! * [`min_cost_multicommodity`] — LP: route all demands at minimum cost;
//! * [`two_phase_baseline`] — the paper's decomposition: first fill
//!   *already-paid* capacity (max concurrent flow), then route the remainder
//!   at minimum extra cost (min-cost multicommodity flow);
//! * [`unified_flow_lp`] — the strongest storage-free baseline: one LP in
//!   the exact percentile cost model (used for the figure reproductions);
//! * [`greedy_cheapest_path`] — the cheapest-available-path allocator
//!   narrated around the paper's Fig. 3;
//! * [`AlapScheduler`] — deadline-guaranteed As-Late-As-Possible admission
//!   against a persistent [`ResidualGrid`], the DCRoute-style fast path
//!   that decides admit/reject without building an LP.
//!
//! # Example
//!
//! Route a file at its desired rate through the cheapest available path and
//! decompose the result:
//!
//! ```
//! use postcard_flow::{decompose_flow, greedy_cheapest_path};
//! use postcard_net::{DcId, FileId, NetworkBuilder, TrafficLedger, TransferRequest};
//!
//! let network = NetworkBuilder::new(3)
//!     .link(DcId(0), DcId(1), 1.0, 10.0)
//!     .link(DcId(1), DcId(2), 2.0, 10.0)
//!     .link(DcId(0), DcId(2), 9.0, 10.0)
//!     .build();
//! let file = TransferRequest::new(FileId(1), DcId(0), DcId(2), 6.0, 3, 0);
//! let out = greedy_cheapest_path(&network, &[file], &TrafficLedger::new(3));
//! assert!(out.unrouted.is_empty());
//! let paths = decompose_flow(&out.assignment, &file, 3);
//! assert_eq!(paths.paths[0].nodes, vec![DcId(0), DcId(1), DcId(2)]); // cheap relay
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod alap;
mod assignment;
mod baseline;
mod decompose;
mod graph;
mod greedy;
mod lp_flows;
mod mincost;

pub use alap::{AlapRejection, AlapScheduler, ResidualGrid};
pub use assignment::{FlowAssignment, FlowViolation};
pub use baseline::{
    two_phase_baseline, unified_flow_lp, unified_flow_lp_warm, BaselineError, FlowBaselineOutcome,
    UnifiedFlowOutcome,
};
pub use decompose::{decompose_flow, Decomposition, PathShare};
pub use graph::{EdgeId, FlowNetwork, NodeId};
pub use greedy::{greedy_cheapest_path, GreedyOutcome};
pub use lp_flows::{max_concurrent_flow, min_cost_multicommodity, Commodity, McfSolution};
pub use mincost::{cycle_canceling_min_cost, min_cost_flow, MinCostOutcome};
