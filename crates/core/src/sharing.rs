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
//! install/uninstall, ingest chunks, window-partial relays and window ticks
//! through the layer; without one it behaves exactly as before.
//!
//! The protocol, in the order a query experiences it:
//!
//! 1. **Install** — a disseminated plan is offered to the layer first
//!    ([`MultiQuerySharing::try_install`]).  If the plan normalizes into a
//!    share group (see `pier-mqo`), the layer absorbs the query as a
//!    *member* and the executor builds **no** per-query dataflow; the
//!    executor arms the member's lease/timeout timers and — for a group's
//!    first member — the group's window-tick chain.
//! 2. **Ingest** — each arriving [`ColumnChunk`] of a namespace some group
//!    reads is handed to the layer **once**
//!    ([`MultiQuerySharing::absorb_chunk`]); the layer fans it out to all
//!    members via its predicate index.
//! 3. **Ticks** — per group (not per member), the executor drives window
//!    maintenance ([`MultiQuerySharing::tick`]): the layer returns one
//!    partial stream to ship toward the group's root and per-member
//!    emissions the executor forwards to each member's proxy.
//! 4. **Teardown** — timeouts and lease lapses route through
//!    [`MultiQuerySharing::uninstall`]; when a group loses its last member
//!    the layer retires it and the executor sweeps its interned schemas
//!    ([`is_share_scoped_table`]), so nothing leaks.

use crate::plan::QueryPlan;
use crate::tuple::{ColumnChunk, Tuple};
use pier_runtime::{Duration, NodeAddr, SimTime};

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
        /// The group's incarnation (see [`GroupRoute::epoch`]): the tick
        /// chain the executor starts is stamped with it, so a chain armed
        /// for a retired incarnation stops instead of double-driving a
        /// later group with the same fingerprint.
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

/// Where a group's closed-window partials travel: the DHT namespace/key
/// whose routing identifier names the group's window root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupRoute {
    /// The group's window-partial namespace (`g{fingerprint:016x}.windows`).
    pub namespace: String,
    /// The root key hashed to locate the group's window root.
    pub root_key: String,
    /// The group's window slide (tick re-arm period).
    pub slide: Duration,
    /// The group's **incarnation**: groups share a fingerprint across
    /// retire/re-create cycles (the last member leaves, a new
    /// constant-varied query re-forms the group), but every incarnation
    /// gets a fresh epoch.  The executor's tick chain carries the epoch it
    /// was armed with and stops when it no longer matches, so a stale
    /// pending timer from a retired incarnation cannot stack a duplicate
    /// permanent tick chain onto the new one.
    pub epoch: u64,
}

/// One member query's per-window result emission, produced at the group's
/// window root and forwarded by the executor to the member's proxy.
#[derive(Debug, Clone)]
pub struct SharedEmission {
    /// The member query.
    pub query_id: u64,
    /// The member's proxy node (results destination).
    pub proxy: NodeAddr,
    /// Window start (inclusive).
    pub window_start: SimTime,
    /// Window end (exclusive).
    pub window_end: SimTime,
    /// Rows retracted by this emission (delta mode).
    pub retracts: Vec<Tuple>,
    /// Rows inserted by this emission.
    pub inserts: Vec<Tuple>,
}

/// What one group tick produced.
#[derive(Debug, Default)]
pub struct TickOutput {
    /// Closed-window partials to ship one hop toward the group's root —
    /// one stream per group, however many members it serves.
    pub partials: Vec<Tuple>,
    /// Per-member emissions (non-empty only at the group's root).
    pub emissions: Vec<SharedEmission>,
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

    /// Absorb a relayed closed-window partial into the share group whose
    /// window namespace is `namespace`.  `false` when no live group owns
    /// the namespace, or the group refused the partial (budget, malformed).
    /// At **upcall (en-route) hops** the executor re-ships refused partials
    /// toward the root so a relay's budget cannot lose them; a refusal at
    /// the root itself is a drop, exactly like the per-query best-effort
    /// policy.
    fn absorb_window_partial(&mut self, namespace: &str, tuple: &Tuple) -> bool;

    /// The partial route of a live group; `None` once the group is retired
    /// (which also stops the executor's tick chain).
    fn group_route(&self, group: u64) -> Option<GroupRoute>;

    /// Member query ids of a live group, ascending (empty when the group is
    /// unknown).  Tracing charges shared work to the first — the group's
    /// canonical member — so `share.flush` spans have a stable attribution
    /// however many queries ride the group.
    fn member_ids(&self, _group: u64) -> Vec<u64> {
        Vec::new()
    }

    /// One window-maintenance tick for `group`: close due windows, return
    /// the partial stream to ship and (at the root) per-member emissions.
    fn tick(&mut self, group: u64, now: SimTime, is_root: bool) -> TickOutput;

    /// Diagnostics snapshot.
    fn stats(&self) -> SharingStats;
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
