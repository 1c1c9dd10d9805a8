//! Share groups and the [`MultiQuerySharing`] implementation.
//!
//! A `ShareGroup` is the runtime of one plan fingerprint at one node: the
//! [`PredicateIndex`] over its members' predicates, each member's lease, and
//! one [`WindowAgg`] engine whose members are the group's queries.
//! [`MqoLayer`] is the registry the executor talks to through the
//! [`MultiQuerySharing`] trait: fingerprint → group, query → group, and the
//! namespace routing tables for ingest chunks and relayed window partials.
//!
//! Life of a shared chunk: the executor hands each arriving chunk of a
//! subscribed namespace to the layer once; the predicate index scans every
//! referenced column and produces per-member masks plus their union; rows
//! in the union fold into the group engine's shared local store.  The
//! executor ticks the engine exactly as it ticks a standalone query's: the
//! group ships **one** partial stream toward its window root
//! (`g{fp:016x}.windows` / `g{fp:016x}.root` — identical on every node, so
//! partials combine across the overlay with no coordination); the root
//! derives each member's rows from the shared per-group accumulators by
//! evaluating the member's predicate against the group *values* (sound
//! because eligibility required the predicate to reference GROUP BY
//! columns only), applies the member's finishers, and routes the member's
//! snapshot/delta stream to the member's own proxy.  With a durable store
//! the group's windows persist and rehydrate under `g{fp:016x}.local` /
//! `g{fp:016x}.root` like any query's.

use crate::fingerprint::{normalize, ShareCandidate};
use crate::index::PredicateIndex;
use pier_core::plan::QueryPlan;
use pier_core::sharing::{
    group_tag, InstallOutcome, MultiQuerySharing, SharingStats, UninstallOutcome,
};
use pier_core::tuple::ColumnChunk;
use pier_core::{CqDiagnostics, WindowAgg};
use pier_cq::Lease;
use pier_runtime::{NodeAddr, SimTime};
use pier_telemetry::Telemetry;
use std::collections::HashMap;

/// Construct the sharing layer — the value to plug into
/// [`PierConfig::sharing`](pier_core::PierConfig).
pub fn layer() -> Box<dyn MultiQuerySharing + Send> {
    Box::new(MqoLayer::default())
}

/// The runtime of one share group at one node.
#[derive(Debug)]
struct ShareGroup {
    /// This incarnation's epoch (see
    /// [`InstallOutcome::Member`](pier_core::sharing::InstallOutcome)).
    epoch: u64,
    /// The base table namespace the group ingests.
    namespace: String,
    index: PredicateIndex,
    /// Each member's soft-state lease.
    leases: HashMap<u64, Lease>,
    engine: WindowAgg,
}

impl ShareGroup {
    fn new(c: &ShareCandidate, epoch: u64) -> ShareGroup {
        let tag = group_tag(c.fingerprint);
        ShareGroup {
            epoch,
            namespace: c.namespace.clone(),
            index: PredicateIndex::new(),
            leases: HashMap::new(),
            engine: WindowAgg::new(
                tag.clone(),
                format!("{tag}.root"),
                c.window,
                &c.group_cols,
                &c.aggs,
                c.time_col.as_deref(),
                &[],
                c.budget,
            ),
        }
    }

    fn add_member(&mut self, query_id: u64, c: &ShareCandidate, proxy: NodeAddr, now: SimTime) {
        self.index.insert(query_id, c.predicate.clone());
        self.engine
            .add_member(query_id, proxy, Some(&c.predicate), c.delta, &c.final_ops);
        self.leases.insert(query_id, Lease::granted(now, c.lease));
    }

    /// Absorb one ingest chunk: one predicate-index scan, union rows folded
    /// into the shared store.  Returns `(rows scanned, rows selected)`.
    fn absorb_chunk(&mut self, chunk: &ColumnChunk, now: SimTime) -> (u64, u64) {
        let rows = chunk.rows() as u64;
        if !self.engine.reads(chunk.schema()) {
            return (rows, 0); // malformed chunk for this group: discard
        }
        self.index.eval_chunk(chunk);
        let union = self.index.union();
        let selected = union.count() as u64;
        if selected > 0 {
            self.engine
                .absorb_chunk(chunk, now, Some(&|r| union.get(r)));
        }
        (rows, selected)
    }
}

/// The share-group registry implementing [`MultiQuerySharing`].
#[derive(Debug, Default)]
pub struct MqoLayer {
    groups: HashMap<u64, ShareGroup>,
    by_query: HashMap<u64, u64>,
    /// `g{fp:016x}.windows` → fingerprint.
    window_ns: HashMap<String, u64>,
    /// Base table namespace → fingerprints ingesting it.
    base_ns: HashMap<String, Vec<u64>>,
    /// Monotone incarnation counter: every created group gets a fresh
    /// epoch, so a tick chain armed for a retired group with the same
    /// fingerprint can recognise it is stale.
    next_epoch: u64,
    chunks_absorbed: u64,
    rows_absorbed: u64,
    rows_selected: u64,
    /// Node telemetry handle (inert unless the executor attaches one).
    tel: Telemetry,
}

impl MqoLayer {
    /// The share group a member query belongs to (its plan fingerprint),
    /// if installed here.
    pub fn group_of(&self, query_id: u64) -> Option<u64> {
        self.by_query.get(&query_id).copied()
    }

    /// Sync membership gauges (and, on join, the joined group's size) into
    /// the telemetry hub.
    fn sync_membership(&self, joined: Option<u64>) {
        if !self.tel.is_enabled() {
            return;
        }
        self.tel.gauge("mqo.groups", self.groups.len() as f64);
        self.tel.gauge("mqo.members", self.by_query.len() as f64);
        if let Some(size) = joined
            .and_then(|fp| self.groups.get(&fp))
            .map(|g| g.leases.len())
        {
            self.tel.observe_count("mqo.group_size", size as f64);
        }
    }
}

impl MultiQuerySharing for MqoLayer {
    fn set_telemetry(&mut self, tel: Telemetry) {
        self.tel = tel;
    }

    fn try_install(&mut self, plan: &QueryPlan, now: SimTime) -> InstallOutcome {
        let Some(candidate) = normalize(plan) else {
            return InstallOutcome::NotShareable;
        };
        let query_id = plan.query_id;
        if self.by_query.contains_key(&query_id) {
            // Defensive: the executor renews before offering, but a re-offer
            // of a live member is just a renewal.
            self.renew(query_id, now);
            let group = self.by_query[&query_id];
            let epoch = self.groups.get(&group).map_or(0, |g| g.epoch);
            return InstallOutcome::Member {
                group,
                new_group: false,
                epoch,
                slide: candidate.window.slide,
                lease: candidate.lease,
            };
        }
        let fingerprint = candidate.fingerprint;
        let new_group = !self.groups.contains_key(&fingerprint);
        if new_group {
            self.next_epoch += 1;
        }
        let next_epoch = self.next_epoch;
        let group = self
            .groups
            .entry(fingerprint)
            .or_insert_with(|| ShareGroup::new(&candidate, next_epoch));
        group.add_member(query_id, &candidate, plan.proxy, now);
        let epoch = group.epoch;
        if new_group {
            let namespace = group.engine.namespace().to_string();
            self.window_ns.insert(namespace, fingerprint);
            self.base_ns
                .entry(candidate.namespace.clone())
                .or_default()
                .push(fingerprint);
        }
        self.by_query.insert(query_id, fingerprint);
        self.sync_membership(Some(fingerprint));
        InstallOutcome::Member {
            group: fingerprint,
            new_group,
            epoch,
            slide: candidate.window.slide,
            lease: candidate.lease,
        }
    }

    fn renew(&mut self, query_id: u64, now: SimTime) -> bool {
        let Some(fp) = self.by_query.get(&query_id) else {
            return false;
        };
        let Some(lease) = self
            .groups
            .get_mut(fp)
            .and_then(|g| g.leases.get_mut(&query_id))
        else {
            return false;
        };
        lease.renew(now);
        true
    }

    fn uninstall(&mut self, query_id: u64) -> UninstallOutcome {
        let Some(fp) = self.by_query.remove(&query_id) else {
            return UninstallOutcome::not_member();
        };
        let Some(group) = self.groups.get_mut(&fp) else {
            return UninstallOutcome {
                was_member: true,
                retired_group: None,
            };
        };
        group.index.remove(query_id);
        group.engine.remove_member(query_id);
        group.leases.remove(&query_id);
        if group.leases.is_empty() {
            let namespace = group.namespace.clone();
            self.groups.remove(&fp);
            self.window_ns.retain(|_, g| *g != fp);
            if let Some(fps) = self.base_ns.get_mut(&namespace) {
                fps.retain(|g| *g != fp);
                if fps.is_empty() {
                    self.base_ns.remove(&namespace);
                }
            }
            self.sync_membership(None);
            UninstallOutcome {
                was_member: true,
                retired_group: Some(fp),
            }
        } else {
            self.sync_membership(None);
            UninstallOutcome {
                was_member: true,
                retired_group: None,
            }
        }
    }

    fn lease_expires_at(&self, query_id: u64) -> Option<SimTime> {
        let fp = self.by_query.get(&query_id)?;
        self.groups
            .get(fp)
            .and_then(|g| g.leases.get(&query_id))
            .map(|l| l.expires_at)
    }

    fn wants_namespace(&self, namespace: &str) -> bool {
        self.base_ns.contains_key(namespace)
    }

    fn absorb_chunk(&mut self, namespace: &str, chunk: &ColumnChunk, now: SimTime) {
        let Some(fps) = self.base_ns.get(namespace) else {
            return;
        };
        let fps = fps.clone();
        let fanout = fps.len();
        self.chunks_absorbed += 1;
        let mut scanned_total = 0u64;
        let mut selected_total = 0u64;
        for fp in fps {
            if let Some(group) = self.groups.get_mut(&fp) {
                let (scanned, selected) = group.absorb_chunk(chunk, now);
                self.rows_absorbed += scanned;
                self.rows_selected += selected;
                scanned_total += scanned;
                selected_total += selected;
            }
        }
        if self.tel.is_enabled() {
            self.tel.inc("mqo.chunks_absorbed");
            self.tel.observe_count("mqo.index_fanout", fanout as f64);
            self.tel.add("mqo.rows_scanned", scanned_total);
            self.tel.add("mqo.rows_selected", selected_total);
        }
    }

    fn window_group(&self, namespace: &str) -> Option<u64> {
        self.window_ns.get(namespace).copied()
    }

    fn group_epoch(&self, group: u64) -> Option<u64> {
        self.groups.get(&group).map(|g| g.epoch)
    }

    fn engine(&self, group: u64) -> Option<&WindowAgg> {
        self.groups.get(&group).map(|g| &g.engine)
    }

    fn engine_mut(&mut self, group: u64) -> Option<&mut WindowAgg> {
        self.groups.get_mut(&group).map(|g| &mut g.engine)
    }

    fn diagnostics(&self, query_id: u64) -> Option<CqDiagnostics> {
        let g = self.groups.get(self.by_query.get(&query_id)?)?;
        Some(g.engine.diagnostics(query_id, g.leases.get(&query_id)?))
    }

    fn stats(&self) -> SharingStats {
        SharingStats {
            groups: self.groups.len(),
            members: self.by_query.len(),
            open_windows: self.groups.values().map(|g| g.engine.open_windows()).sum(),
            state_groups: self.groups.values().map(|g| g.engine.total_groups()).sum(),
            chunks_absorbed: self.chunks_absorbed,
            rows_absorbed: self.rows_absorbed,
            rows_selected: self.rows_selected,
            rehydrated_windows: self
                .groups
                .values()
                .map(|g| g.engine.rehydrated_windows())
                .sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pier_core::sqlish;
    use pier_core::{Emission, Tuple, TupleBatch, Value};

    fn tenant_plan(query_id: u64, src: &str) -> QueryPlan {
        let mut plan = sqlish::compile(
            &format!(
                "SELECT src, COUNT(*), SUM(len) FROM packets WHERE src = '{src}' \
                 GROUP BY src WINDOW 2s SLIDE 1s"
            ),
            NodeAddr(1),
            60_000_000,
        )
        .expect("tenant query compiles");
        plan.query_id = query_id;
        plan
    }

    fn packets(n: i64) -> Vec<Tuple> {
        (0..n)
            .map(|i| {
                Tuple::new(
                    "packets",
                    vec![
                        ("src", Value::Str(format!("10.0.0.{}", i % 8).into())),
                        ("len", Value::Int(100 + i)),
                        ("ts", Value::Int(i * 10_000)),
                    ],
                )
            })
            .collect()
    }

    #[test]
    fn constant_varied_tenants_share_one_group_and_get_their_own_answers() {
        let mut layer = MqoLayer::default();
        for (qid, src) in [(1u64, "10.0.0.1"), (2, "10.0.0.2"), (3, "10.0.0.3")] {
            let out = layer.try_install(&tenant_plan(qid, src), 0);
            match out {
                InstallOutcome::Member { new_group, .. } => {
                    assert_eq!(
                        new_group,
                        qid == 1,
                        "only the first member creates the group"
                    );
                }
                other => panic!("expected membership, got {other:?}"),
            }
        }
        let stats = layer.stats();
        assert_eq!(stats.groups, 1);
        assert_eq!(stats.members, 3);
        // Absorb a stream; every chunk is scanned once for all members.
        let batch = TupleBatch::new(packets(400));
        for chunk in batch.chunks() {
            layer.absorb_chunk("packets", chunk, 0);
        }
        assert!(layer.stats().rows_absorbed >= 400);
        // Tick as root far enough in the future to close every window.
        let group = *layer.by_query.get(&1).unwrap();
        let out = layer
            .engine_mut(group)
            .expect("group is live")
            .tick(60_000_000, true);
        assert!(out.partials.is_empty(), "the root ships no partials");
        // Each member sees exactly its own source's counts, per window,
        // matching ground truth computed with the same window arithmetic.
        let spec = pier_cq::WindowSpec::sliding(2_000_000, 1_000_000);
        for qid in 1u64..=3 {
            let mine: Vec<&Emission> = out.emissions.iter().filter(|e| e.query_id == qid).collect();
            assert!(!mine.is_empty(), "member {qid} must receive emissions");
            let src = format!("10.0.0.{qid}");
            let mut total = 0i64;
            for e in mine {
                for row in &e.inserts {
                    assert_eq!(
                        row.get("src").and_then(Value::as_str),
                        Some(src.as_str()),
                        "member {qid} must only see its own group"
                    );
                    assert_eq!(row.table(), format!("q{qid}.win"));
                    total += row.get("count").and_then(Value::as_i64).unwrap_or(0);
                }
            }
            let expected: i64 = packets(400)
                .iter()
                .filter(|t| t.get("src").and_then(Value::as_str) == Some(src.as_str()))
                .map(|t| {
                    let ts = t.get("ts").and_then(Value::as_i64).unwrap() as u64;
                    spec.windows_containing(ts).count() as i64
                })
                .sum();
            assert_eq!(total, expected, "member {qid} count across windows");
        }
        // Rows no member selects never enter the shared store: only the
        // three watched sources hold state.
        assert!(layer.stats().rows_selected < layer.stats().rows_absorbed);
    }

    #[test]
    fn non_root_ticks_ship_one_partial_stream_that_roots_can_decode() {
        let mut relay = MqoLayer::default();
        let mut root = MqoLayer::default();
        for l in [&mut relay, &mut root] {
            l.try_install(&tenant_plan(1, "10.0.0.1"), 0);
            l.try_install(&tenant_plan(2, "10.0.0.2"), 0);
        }
        let batch = TupleBatch::new(packets(200));
        for chunk in batch.chunks() {
            relay.absorb_chunk("packets", chunk, 0);
        }
        let group = *relay.by_query.get(&1).unwrap();
        let shipped = relay
            .engine_mut(group)
            .expect("group is live")
            .tick(60_000_000, false);
        assert!(
            !shipped.partials.is_empty(),
            "non-root ticks ship closed-window partials"
        );
        assert!(shipped.emissions.is_empty());
        let namespace = relay.engine(group).expect("group is live").namespace();
        // The root absorbs the relayed partials and derives per-member
        // results from them.
        assert_eq!(root.window_group(namespace), Some(group));
        let root_engine = root.engine_mut(group).expect("group is live");
        for partial in &shipped.partials {
            assert!(root_engine.absorb_partial(partial));
        }
        let out = root_engine.tick(120_000_000, true);
        assert!(out.emissions.iter().any(|e| e.query_id == 1));
        assert!(out.emissions.iter().any(|e| e.query_id == 2));
        // Unknown namespaces are not the layer's.
        assert_eq!(root.window_group("packets"), None);
    }

    #[test]
    fn refcounted_teardown_leaves_no_groups_behind() {
        let mut layer = MqoLayer::default();
        for qid in 1u64..=4 {
            layer.try_install(&tenant_plan(qid, &format!("10.0.0.{qid}")), 0);
        }
        assert_eq!(layer.stats().groups, 1);
        assert!(layer.wants_namespace("packets"));
        for qid in 1u64..=3 {
            let out = layer.uninstall(qid);
            assert!(out.was_member);
            assert!(out.retired_group.is_none(), "group still has members");
        }
        assert_eq!(layer.stats().members, 1);
        let last = layer.uninstall(4);
        assert!(last.was_member);
        assert!(
            last.retired_group.is_some(),
            "last member retires the group"
        );
        assert_eq!(layer.stats().groups, 0);
        assert_eq!(layer.stats().members, 0);
        assert!(!layer.wants_namespace("packets"));
        assert!(layer.group_epoch(last.retired_group.unwrap()).is_none());
        assert!(
            !layer.uninstall(4).was_member,
            "double uninstall is a no-op"
        );
    }

    #[test]
    fn recreated_groups_get_a_fresh_epoch() {
        // A group retired and re-formed under the same fingerprint must be
        // distinguishable, so a stale tick chain armed for the first
        // incarnation stops instead of double-driving the second.
        let mut layer = MqoLayer::default();
        let first = match layer.try_install(&tenant_plan(1, "10.0.0.1"), 0) {
            InstallOutcome::Member {
                group,
                new_group,
                epoch,
                ..
            } => {
                assert!(new_group);
                (group, epoch)
            }
            other => panic!("expected membership, got {other:?}"),
        };
        assert_eq!(layer.group_epoch(first.0), Some(first.1));
        assert!(layer.uninstall(1).retired_group.is_some());
        let second = match layer.try_install(&tenant_plan(2, "10.0.0.2"), 5) {
            InstallOutcome::Member {
                group,
                new_group,
                epoch,
                ..
            } => {
                assert!(new_group, "re-creation is a new incarnation");
                (group, epoch)
            }
            other => panic!("expected membership, got {other:?}"),
        };
        assert_eq!(first.0, second.0, "same fingerprint");
        assert_ne!(first.1, second.1, "fresh epoch per incarnation");
        assert_eq!(layer.group_epoch(second.0), Some(second.1));
        // A member joining the live incarnation reports the same epoch and
        // does not start a new chain.
        match layer.try_install(&tenant_plan(3, "10.0.0.3"), 6) {
            InstallOutcome::Member {
                new_group, epoch, ..
            } => {
                assert!(!new_group);
                assert_eq!(epoch, second.1);
            }
            other => panic!("expected membership, got {other:?}"),
        }
    }

    #[test]
    fn leases_renew_and_expire_per_member() {
        let mut layer = MqoLayer::default();
        layer.try_install(&tenant_plan(1, "10.0.0.1"), 0);
        let initial = layer.lease_expires_at(1).expect("member has a lease");
        assert!(layer.renew(1, initial));
        assert!(layer.lease_expires_at(1).unwrap() > initial);
        assert!(!layer.renew(99, 0), "unknown queries do not renew");
        assert!(layer.lease_expires_at(99).is_none());
    }
}
