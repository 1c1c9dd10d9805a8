//! The multi-query sharing seam: the executor-side contract of `pier-mqo`.
//!
//! PIER's stated target is *thousands* of simultaneous continuous queries —
//! network-monitoring deployments where many users install near-identical
//! standing queries differing only in constants.  Cross-query work sharing
//! is the decisive optimization at that scale, and it is a *separable
//! subsystem*: plan normalization, predicate indexing and share-group state
//! live in the `pier-mqo` crate, while the executor ([`crate::node`]) only
//! knows this trait.  A node constructed with a
//! [`SharingFactory`](crate::node::PierConfig::sharing) routes query
//! install/uninstall and ingest chunks through the layer, and reaches each
//! group's window engine through it; without one it behaves exactly as before.
//!
//! The protocol, in the order a query experiences it:
//!
//! 1. **Install** — a disseminated plan is offered to the layer first
//!    ([`MultiQuerySharing::try_install`]).  If the plan normalizes into a
//!    share group (see `pier-mqo`), the layer absorbs the query as a
//!    *member* and the executor builds **no** per-query dataflow; the
//!    executor arms the member's lease/timeout timers and — for a group's
//!    first member — rehydrates the group's engine from durable segments
//!    and starts the group's window-tick chain.
//! 2. **Ingest** — each arriving [`ColumnChunk`] of a namespace some group
//!    reads is handed to the layer **once**
//!    ([`MultiQuerySharing::absorb_chunk`]); the layer fans it out to all
//!    members via its predicate index.
//! 3. **Ticks** — a group is a [`WindowAgg`] engine with N members, so the
//!    executor drives it through the one window-tick path every standing
//!    query uses ([`MultiQuerySharing::engine_mut`]): one partial stream
//!    toward the group's root, per-member emissions to each member's
//!    proxy, relayed partials folded in, state persisted when durable.
//! 4. **Teardown** — timeouts and lease lapses route through
//!    [`MultiQuerySharing::uninstall`]; when a group loses its last member
//!    the layer retires it and the executor sweeps its interned schemas
//!    ([`is_share_scoped_table`]), so nothing leaks.

use crate::plan::QueryPlan;
use crate::tuple::ColumnChunk;
use crate::window_agg::{CqDiagnostics, WindowAgg};
use pier_runtime::{Duration, SimTime};

/// Constructor hook for a sharing layer, carried by
/// [`PierConfig`](crate::node::PierConfig) (a plain function pointer so the
/// config stays `Clone`).  `pier-mqo` exports one.
pub type SharingFactory = fn() -> Box<dyn MultiQuerySharing + Send>;

/// Outcome of offering a plan to the sharing layer.
#[derive(Debug, Clone, PartialEq)]
pub enum InstallOutcome {
    /// The plan does not normalize into a share group; the executor must
    /// install it independently, exactly as without a sharing layer.
    NotShareable,
    /// The query joined a share group; the executor owns its timers.
    Member {
        /// The share-group identifier (the plan fingerprint).
        group: u64,
        /// True when this member created the group — the executor must
        /// start the group's window-tick chain.
        new_group: bool,
        /// The group's incarnation.  Groups share a fingerprint across
        /// retire/re-create cycles (the last member leaves, a new
        /// constant-varied query re-forms the group), but every incarnation
        /// gets a fresh epoch; the tick chain the executor starts is stamped
        /// with it, so a chain armed for a retired incarnation stops instead
        /// of double-driving a later group with the same fingerprint.
        epoch: u64,
        /// The group's window slide (tick period).
        slide: Duration,
        /// The member's soft-state lease duration.
        lease: Duration,
    },
}

/// Outcome of removing a member query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UninstallOutcome {
    /// True when the query was a share-group member here.
    pub was_member: bool,
    /// Set when the member was its group's last: the group has been retired
    /// and the executor should sweep its interned schemas.
    pub retired_group: Option<u64>,
}

impl UninstallOutcome {
    /// The "not ours" outcome.
    pub fn not_member() -> Self {
        UninstallOutcome {
            was_member: false,
            retired_group: None,
        }
    }
}

/// Diagnostics of the sharing layer at one node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharingStats {
    /// Live share groups.
    pub groups: usize,
    /// Member queries across all groups.
    pub members: usize,
    /// Open windows across all shared stores.
    pub open_windows: usize,
    /// Accumulator groups across all shared stores (state footprint).
    pub state_groups: usize,
    /// Ingest chunks absorbed.
    pub chunks_absorbed: u64,
    /// Rows scanned by the predicate index.
    pub rows_absorbed: u64,
    /// Rows selected by at least one member (folded into shared state).
    pub rows_selected: u64,
    /// Windows the live groups rehydrated from durable segments when they
    /// were created (0 without [`PierConfig::durable`](crate::PierConfig)).
    pub rehydrated_windows: u64,
}

/// A pluggable cross-query sharing layer (implemented by `pier-mqo`).
///
/// All methods are infallible from the executor's point of view: a layer
/// that cannot handle something answers `NotShareable` / `None` / `false`
/// and the executor falls back to independent per-query execution, so
/// plugging a layer in can never change *which* queries run — only how
/// much work they share.
pub trait MultiQuerySharing: std::fmt::Debug + Send {
    /// Attach the node's telemetry hub.  Layers that instrument themselves
    /// (share-group membership events, predicate-index fan-out counters —
    /// `pier-mqo` does) override this; the default keeps plain layers
    /// oblivious.
    fn set_telemetry(&mut self, _tel: pier_telemetry::Telemetry) {}

    /// Offer a freshly disseminated plan for shared installation.
    fn try_install(&mut self, plan: &QueryPlan, now: SimTime) -> InstallOutcome;

    /// Renew a member's soft-state lease (a re-dissemination arrived).
    /// `false` when the query is not a member here.
    fn renew(&mut self, query_id: u64, now: SimTime) -> bool;

    /// Remove a member query (timeout or lease lapse), refcounting its
    /// group down and retiring the group when it was the last member.
    fn uninstall(&mut self, query_id: u64) -> UninstallOutcome;

    /// The member's lease expiry instant; `None` when not a member.
    fn lease_expires_at(&self, query_id: u64) -> Option<SimTime>;

    /// True when some share group consumes `namespace`'s tuple stream.
    fn wants_namespace(&self, namespace: &str) -> bool;

    /// Absorb one arriving chunk of `namespace` into every share group
    /// reading it (the shared ingest: one scan, N members).
    fn absorb_chunk(&mut self, namespace: &str, chunk: &ColumnChunk, now: SimTime);

    /// The live share group whose window-partial namespace is `namespace`,
    /// if any — the executor classifies every arrival by namespace once,
    /// before touching its rows.
    fn window_group(&self, namespace: &str) -> Option<u64>;

    /// The incarnation of a live group (see [`InstallOutcome::Member`]);
    /// `None` once the group is retired.  A tick chain armed for another
    /// epoch stops instead of double-driving a later group with the same
    /// fingerprint.
    fn group_epoch(&self, group: u64) -> Option<u64>;

    /// The window engine of a live group: the executor ticks it, folds
    /// relayed partials into it and persists/rehydrates it exactly as it
    /// does a standalone query's.
    fn engine(&self, group: u64) -> Option<&WindowAgg>;

    /// Mutable access to a live group's window engine.
    fn engine_mut(&mut self, group: u64) -> Option<&mut WindowAgg>;

    /// Diagnostics of member `query_id` (its group's engine, its own lease);
    /// `None` when the query is not a member here.
    fn diagnostics(&self, query_id: u64) -> Option<CqDiagnostics>;

    /// Diagnostics snapshot.
    fn stats(&self) -> SharingStats;
}

/// The tag of share group `fingerprint`, `g{fingerprint:016x}`: the prefix
/// of the group's interned shapes, window namespace and durable segment
/// keys — identical on every node, so partials combine across the overlay
/// and a restarted node finds the group's segments.
pub fn group_tag(fingerprint: u64) -> String {
    format!("g{fingerprint:016x}")
}

/// True for table names of the share-group-scoped form
/// `g{16 hex digits}.{suffix}` — the namespaces a share group interns
/// (`g{fp:016x}.wp`, `g{fp:016x}.windows`, `g{fp:016x}.gv`, …) and the
/// shapes the teardown sweep may evict.  User tables that merely start with
/// `g` do not match.
pub fn is_share_scoped_table(table: &str) -> bool {
    let Some(rest) = table.strip_prefix('g') else {
        return false;
    };
    let Some(dot) = rest.find('.') else {
        return false;
    };
    dot == 16 && rest.as_bytes()[..dot].iter().all(u8::is_ascii_hexdigit)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn share_scoped_tables_are_recognised() {
        assert!(is_share_scoped_table("g00000000deadbeef.wp"));
        assert!(is_share_scoped_table("gabcdef0123456789.windows"));
        assert!(!is_share_scoped_table("gossip.live"));
        assert!(!is_share_scoped_table("g123.wp"), "too few hex digits");
        assert!(!is_share_scoped_table("g00000000deadbeef"), "no suffix");
        assert!(!is_share_scoped_table("q42.wp"));
    }

    #[test]
    fn uninstall_outcome_default_is_not_member() {
        let out = UninstallOutcome::not_member();
        assert!(!out.was_member);
        assert!(out.retired_group.is_none());
    }
}
