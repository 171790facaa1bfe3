//! # postcard-runtime — a crash-safe controller service
//!
//! The other crates answer "what should the traffic plan be?"; this crate
//! answers "how do you *operate* that controller as a long-running
//! service?" Five concerns, one module each:
//!
//! * [`fallback`] — a solver fallback chain ([`FallbackChain`]): Postcard
//!   LP, then the flow LP, then the greedy allocator, with a per-slot solve
//!   budget, retry-once on numerical failure, and the chosen tier recorded —
//!   so a slot is never missed;
//! * [`snapshot`] — versioned, self-contained checkpoints
//!   ([`RuntimeSnapshot`]) written atomically every N slots;
//!   [`Runtime::resume`] continues a killed run **bit-identically** under
//!   the deterministic [`SimClock`];
//! * [`metrics`] — a lightweight registry ([`MetricsRegistry`]) of
//!   counters / gauges / histograms (solve latency per tier, simplex
//!   iterations, fallback activations, rejections, per-slot bill) exported
//!   as JSON or CSV;
//! * [`faults`] — deterministic fault injection ([`FaultPlan`]): scheduled
//!   link degradations and forced solver timeouts, replayed identically by
//!   resumed runs;
//! * [`shard`] — the sharded multi-tenant step
//!   ([`shard::pool::solve_parallel`] plus [`shard::reconcile`]): each
//!   slot's batch partitioned by tenant or source region, per-shard solves
//!   run in parallel on scoped threads and merged deterministically into
//!   the one billing ledger, which the ordinary snapshot checkpoints
//!   (`serve --shards N --shard-by tenant|region`).
//!
//! [`Runtime`] drives the slot loop: degrade links, admit arrivals through
//! a bounded [`AdmissionQueue`], schedule via the chain, record metrics,
//! checkpoint. The queue is a persistent *backlog*: batches a slot could
//! not schedule are requeued (at most `max_requeue_attempts` times) and
//! retried in later slots with their absolute deadlines preserved, and the
//! backlog itself is checkpointed (snapshot v4) so resume is exact even
//! mid-carry. The CLI exposes it as `postcard serve` / `postcard resume`.
//!
//! # Example
//!
//! ```
//! use postcard_net::{DcId, FileId, NetworkBuilder, TransferRequest};
//! use postcard_runtime::{ArrivalSchedule, FaultPlan, Runtime, RuntimeConfig, TierKind};
//!
//! # fn main() -> Result<(), postcard_runtime::RuntimeError> {
//! let network = NetworkBuilder::new(3)
//!     .link(DcId(1), DcId(2), 10.0, 100.0)
//!     .link(DcId(1), DcId(0), 1.0, 100.0)
//!     .link(DcId(0), DcId(2), 3.0, 100.0)
//!     .build();
//! let arrivals = ArrivalSchedule::from_requests(vec![TransferRequest::new(
//!     FileId(1), DcId(1), DcId(2), 6.0, 3, 0,
//! )]);
//! // Force the Postcard tier to time out at slot 0: the flow LP commits.
//! let faults = FaultPlan::none().force_timeout(0, TierKind::Postcard);
//! let mut runtime = Runtime::new(network, arrivals, faults, 3, RuntimeConfig::default())?;
//! let outcomes = runtime.run_to_end()?;
//! assert_eq!(outcomes[0].chosen_tier, Some(TierKind::FlowLp));
//! assert_eq!(runtime.metrics().counter("fallback_activations"), 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod arrivals;
pub mod clock;
pub mod fallback;
pub mod faults;
pub mod metrics;
pub mod queue;
mod runtime;
pub mod shard;
pub mod snapshot;

pub use arrivals::ArrivalSchedule;
pub use clock::{Clock, ClockKind, SimClock, WallClock};
pub use fallback::{AttemptOutcome, AttemptRecord, FallbackChain, TierKind};
pub use faults::{FaultPlan, ForcedTimeout, LinkDegradation};
pub use metrics::{HistogramSummary, MetricsRegistry};
pub use queue::{AdmissionQueue, QueuedRequest};
pub use runtime::{Runtime, RuntimeConfig, RuntimeError, SlotOutcome};
pub use shard::{ShardBy, ShardPlanner};
pub use snapshot::{RuntimeSnapshot, SNAPSHOT_VERSION};
