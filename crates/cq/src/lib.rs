//! # pier-cq — the continuous-query subsystem
//!
//! PIER's flagship workload, network monitoring (Figure 2), is a *standing*
//! query over an endless stream of packet and flow tuples.  This crate
//! provides the machinery that turns the one-shot executor of `pier-core`
//! into a long-running monitoring engine:
//!
//! * [`window`] — tumbling and sliding time windows: window identifier
//!   arithmetic, bounds, close times and the [`window::WindowSpec`] that
//!   travels inside query plans.
//! * [`state`] — the per-node [`state::WindowStore`]: window-scoped grouped
//!   state with duplicate elimination, explicit work/state budgets (load
//!   shedding instead of unbounded growth), order-insensitive merging of
//!   partial window state, and eviction of expired windows.
//! * [`delta`] — delta-output semantics: per-window snapshot results or
//!   insert/retract streams computed against the previous emission of the
//!   same window ([`delta::DeltaTracker`]).
//! * [`shared`] — multi-member window state: one local/root
//!   [`state::WindowStore`] pair serving 1..N member queries, each
//!   member's per-window answer derived from the shared accumulators at
//!   flush through its own [`delta::DeltaTracker`] (the state half of
//!   `pier-core`'s one windowed-aggregation engine, which runs standalone
//!   standing queries and `pier-mqo` share groups alike).
//! * [`lifecycle`] — the soft-state continuous-query lifecycle: leases that
//!   must be renewed by periodic re-dissemination (so a query dies everywhere
//!   once its owner stops renewing, and reaches nodes that joined after it
//!   was first disseminated), plus per-query budgets, jittered-exponential
//!   renewal backoff ([`lifecycle::RenewalBackoff`]) and the
//!   restarted-vs-gone lease distinction ([`lifecycle::LeaseStatus`]).
//! * [`segment`] — the durable half of recovery: an append-only
//!   [`segment::SegmentLog`] of length-prefixed, checksummed window
//!   snapshots with torn-tail detection, and the shared
//!   [`segment::DurableStore`] "disk" a restarted node rehydrates warm
//!   windows from ([`state::WindowStore::rehydrate_from`]).
//!
//! The crate is deliberately *below* the query processor: everything here is
//! generic over the accumulator type (`pier-core` plugs its mergeable
//! `AggState` partial aggregates in) so the same windowing engine can back
//! other workloads.  Only `pier-runtime` types (durations, wire sizing) are
//! used.
//!
//! ## Invariants
//!
//! * **Soft-state leases**: a standing query exists at a node only while
//!   its [`Lease`] is live; leases extend solely through re-dissemination
//!   by the query's owner ([`lifecycle`]).  An owner that stops renewing —
//!   or a node partitioned away from it — lets the lease lapse, and the
//!   node uninstalls the query unilaterally.  There is no teardown
//!   protocol; forgetting *is* the protocol.
//! * **Order-insensitive merging**: window accumulators
//!   ([`WindowAccumulator::merge`]) must be commutative and associative so
//!   partials combining along arbitrary overlay routes (and re-ordered by
//!   churn) converge to the same per-window result (property-tested).
//! * **Bounded state**: a [`WindowStore`] never exceeds its [`CqBudget`] —
//!   over-budget pushes shed load and expired windows are evicted, so a
//!   node's CQ footprint is bounded regardless of stream rate or window
//!   count.
//! * **Refinement, not finality**: window emission is *retained and
//!   refined* — late partials keep merging into already-emitted windows and
//!   re-emit (as fresh snapshots or insert/retract [`Delta`]s) until the
//!   retention horizon retires the window.

pub mod delta;
pub mod lifecycle;
pub mod segment;
pub mod shared;
pub mod state;
pub mod window;

pub use delta::{Delta, DeltaMode, DeltaTracker};
pub use lifecycle::{CqBudget, Lease, LeaseStatus, RenewalBackoff};
pub use segment::{
    DurableStore, RehydrateReport, SegmentCodec, SegmentLog, SegmentRecord, SegmentScan,
    WindowSegment,
};
pub use shared::{MemberEmission, SharedWindowState};
pub use state::{WindowAccumulator, WindowStats, WindowStore};
pub use window::{WindowId, WindowSpec};
