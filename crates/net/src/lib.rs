//! # postcard-net — the inter-datacenter network substrate
//!
//! Everything the [Postcard](https://doi.org/10.1109/ICDCS.2012.39)
//! reproduction needs to *describe* an inter-datacenter network and its
//! traffic, independent of any particular optimization algorithm:
//!
//! * [`Network`] — geographically distributed datacenters connected by
//!   directed overlay links, each with a per-slot capacity `c_ij` and a unit
//!   price `a_ij` (paper Sec. III);
//! * [`TransferRequest`] — the paper's four-tuple `(s_k, d_k, F_k, T_k)`
//!   describing one delay-tolerant inter-datacenter *file*;
//! * [`Trace`] — a run's arrivals sorted by release slot, one batch per
//!   slot, with the CSV format every command reads and writes (a
//!   [`Workload`] generates one);
//! * [`TimeExpandedGraph`] — the Ford–Fulkerson time expansion of Sec. V:
//!   one virtual node per datacenter per slot boundary, transit arcs between
//!   consecutive layers, and zero-cost infinite-capacity *storage* arcs
//!   `i^n → i^{n+1}` expressing store-and-forward;
//! * [`ChargingScheme`] — the q-th percentile charging model of Sec. II-A
//!   over aligned billing windows (the paper's evaluation uses `q = 100`,
//!   [`ChargingScheme::MaxPerSlot`]), the one way a ledger is priced;
//! * [`TrafficLedger`] — per-slot, per-link traffic volumes with charged
//!   volume tracking `X_ij(t)` and residual capacities;
//! * [`TransferPlan`] — the decision tensor `M_ij^k(n)` with full validation
//!   (capacity, conservation, deadlines) and cost evaluation.
//!
//! All volumes are in **GB**, all times in **slots** (one slot = the 5-minute
//! charging interval `t̄`), and all prices in **$ / GB**, matching the
//! paper's evaluation setup.
//!
//! # Example
//!
//! Build a network, record some traffic, and read the bill:
//!
//! ```
//! use postcard_net::{DcId, NetworkBuilder, TrafficLedger};
//!
//! let network = NetworkBuilder::new(2)
//!     .link(DcId(0), DcId(1), 2.0, 100.0) // $2/GB, 100 GB per slot
//!     .build();
//! let mut ledger = TrafficLedger::new(2);
//! ledger.record(DcId(0), DcId(1), 0, 30.0);
//! ledger.record(DcId(0), DcId(1), 1, 10.0);
//! // 100-th percentile charging: the peak (30 GB) sets the bill.
//! assert_eq!(ledger.cost_per_slot(&network), 60.0);
//! // Slot 1 idles 20 GB under the paid peak — free capacity to time-shift
//! // into, which is the whole point of Postcard.
//! assert_eq!(ledger.peak(DcId(0), DcId(1)) - ledger.volume(DcId(0), DcId(1), 1), 20.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod charging;
mod file;
mod ledger;
pub mod paths;
mod plan;
mod timeexp;
mod topology;
mod trace;

pub use charging::ChargingScheme;
pub use file::{FileId, TransferRequest, TENANT_BITS};
pub use ledger::{LedgerUndo, TrafficLedger};
pub use plan::{PlanEntry, PlanViolation, TransferPlan};
pub use timeexp::{Arc, ArcId, ArcKind, NodeArcs, TimeExpandedGraph, TimeNode};
pub use topology::{split_csv_fields, DcId, LinkView, Network, NetworkBuilder};
pub use trace::{Trace, Workload};

/// Numeric tolerance for plan validation and conservation checks.
pub const VOLUME_TOL: f64 = 1e-6;
