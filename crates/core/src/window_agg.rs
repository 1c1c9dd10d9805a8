//! The windowed-aggregation engine: one implementation of standing windowed
//! GROUP BY aggregates, combined in the network on their way to a window
//! root (§3.3.4) and held as soft state.
//!
//! A [`WindowAgg`] serves **1..N member queries** over one
//! [`SharedWindowState`]: an independently executed continuous query is an
//! engine with one member, a `pier-mqo` share group is an engine with many.
//! Everything the two used to duplicate lives here once:
//!
//! * the group accumulator ([`GroupAgg`]: group values plus one mergeable
//!   [`AggState`] per aggregate) and its durable segment codec;
//! * the closed-window partial shape (`_w`, group columns, aggregate
//!   columns, interned as `{tag}.wp`) with one encode and one positional
//!   decode compiled once per arriving schema;
//! * one chunk absorb, optionally restricted to a row selection (a share
//!   group's predicate-index union), with window-scoped dedup;
//! * one tick: roll up / drain / emit.  At the root each member's rows are
//!   the shared groups its derivation predicate accepts (every group for an
//!   unshared query), built against the member's `q{id}.win` result schema,
//!   sorted, finished and delta-tracked;
//! * one persist/rehydrate of the two stores to the durable segment keys
//!   `{tag}.local` and `{tag}.root`.
//!
//! The engine knows nothing about the overlay beyond its route (window
//! namespace `{tag}.windows`, root key, and the routing identifier naming
//! the root); shipping partials, spans and proxy delivery are the
//! executor's ([`crate::node`]).

use crate::aggregate::{AggFunc, AggState, PartialDecoder};
use crate::expr::{CompiledExpr, Expr};
use crate::operators::Pipeline;
use crate::plan::{OperatorSpec, QueryPlan, SinkSpec};
use crate::tuple::{ColumnChunk, ColumnRef, ColumnResolver, Schema, SchemaRegistry, Tuple};
use crate::value::Value;
use pier_cq::{
    CqBudget, Delta, DeltaMode, DurableStore, Lease, RehydrateReport, SegmentCodec, SegmentLog,
    SharedWindowState, WindowAccumulator, WindowId, WindowSpec, WindowStats,
};
use pier_dht::{routing_id, Id};
use pier_runtime::{NodeAddr, SimTime, WireSize};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// One group's mergeable window accumulator: the grouping values plus one
/// partial [`AggState`] per aggregate — the window engine of `pier-cq`
/// parameterised with `pier-core`'s aggregate machinery.
#[derive(Debug, Clone)]
pub struct GroupAgg {
    vals: Vec<Value>,
    states: Vec<AggState>,
}

impl WindowAccumulator for GroupAgg {
    fn merge(&mut self, other: &Self) {
        for (mine, theirs) in self.states.iter_mut().zip(&other.states) {
            mine.merge(theirs);
        }
    }
}

// Lossless little-endian byte codec for the durable window segments of
// `pier-cq`: floats are persisted as raw IEEE-754 bits, so a rehydrated
// accumulator is *exactly* the one that was snapshotted and re-encoding it
// reproduces identical bytes (the round-trip contract of [`SegmentCodec`]).
// Scalars serialise through the shared wire codec ([`Value::encode`]) — one
// tagged-LE value format for DHT messages and durable segments alike.

fn seg_put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn seg_put_opt_value(buf: &mut Vec<u8>, v: &Option<Value>) {
    match v {
        None => buf.push(0),
        Some(v) => {
            buf.push(1);
            v.encode(buf);
        }
    }
}

fn seg_put_state(buf: &mut Vec<u8>, state: &AggState) {
    match state {
        AggState::Count(n) => {
            buf.push(0);
            seg_put_u64(buf, *n);
        }
        AggState::Sum(s) => {
            buf.push(1);
            seg_put_u64(buf, s.to_bits());
        }
        AggState::Min(v) => {
            buf.push(2);
            seg_put_opt_value(buf, v);
        }
        AggState::Max(v) => {
            buf.push(3);
            seg_put_opt_value(buf, v);
        }
        AggState::Avg { sum, count } => {
            buf.push(4);
            seg_put_u64(buf, sum.to_bits());
            seg_put_u64(buf, *count);
        }
    }
}

struct SegReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl SegReader<'_> {
    fn u8(&mut self) -> Option<u8> {
        let b = *self.bytes.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    fn u64(&mut self) -> Option<u64> {
        let end = self.pos.checked_add(8)?;
        let raw: [u8; 8] = self.bytes.get(self.pos..end)?.try_into().ok()?;
        self.pos = end;
        Some(u64::from_le_bytes(raw))
    }

    fn value(&mut self) -> Option<Value> {
        let (v, used) = Value::decode(self.bytes.get(self.pos..)?)?;
        self.pos += used;
        Some(v)
    }

    fn opt_value(&mut self) -> Option<Option<Value>> {
        Some(match self.u8()? {
            0 => None,
            1 => Some(self.value()?),
            _ => return None,
        })
    }

    fn state(&mut self) -> Option<AggState> {
        Some(match self.u8()? {
            0 => AggState::Count(self.u64()?),
            1 => AggState::Sum(f64::from_bits(self.u64()?)),
            2 => AggState::Min(self.opt_value()?),
            3 => AggState::Max(self.opt_value()?),
            4 => AggState::Avg {
                sum: f64::from_bits(self.u64()?),
                count: self.u64()?,
            },
            _ => return None,
        })
    }
}

impl SegmentCodec for GroupAgg {
    fn encode_state(&self, buf: &mut Vec<u8>) {
        seg_put_u64(buf, self.vals.len() as u64);
        for v in &self.vals {
            v.encode(buf);
        }
        seg_put_u64(buf, self.states.len() as u64);
        for s in &self.states {
            seg_put_state(buf, s);
        }
    }

    fn decode_state(bytes: &[u8]) -> Option<Self> {
        let mut r = SegReader { bytes, pos: 0 };
        let nv = usize::try_from(r.u64()?).ok()?;
        if nv > bytes.len() {
            return None; // length prefix cannot exceed the payload
        }
        let mut vals = Vec::with_capacity(nv);
        for _ in 0..nv {
            vals.push(r.value()?);
        }
        let ns = usize::try_from(r.u64()?).ok()?;
        if ns > bytes.len() {
            return None;
        }
        let mut states = Vec::with_capacity(ns);
        for _ in 0..ns {
            states.push(r.state()?);
        }
        if r.pos != bytes.len() {
            return None; // trailing garbage: not a clean snapshot
        }
        Some(GroupAgg { vals, states })
    }
}

/// The positional layout of a closed-window partial within one interned
/// schema: `_w`, the group columns, and one [`PartialDecoder`] per
/// aggregate.  Compiled once per schema (normally just the engine's own
/// `{tag}.wp` shape) and reused for every relayed partial.
#[derive(Debug)]
struct PartialLayout {
    w: usize,
    groups: Vec<usize>,
    aggs: Vec<PartialDecoder>,
}

/// Single-entry per-schema cache for [`PartialLayout`], keyed by schema
/// pointer identity (sound because schemas are interned).  `compiled` is
/// `None` when the schema is malformed for this engine — every partial of
/// that shape is then discarded without re-resolving names.
#[derive(Debug)]
struct PartialDecodeCache {
    schema: Arc<Schema>,
    compiled: Option<PartialLayout>,
}

/// One member query's output residue.
#[derive(Debug)]
struct Member {
    /// Where the member's per-window results go.
    proxy: NodeAddr,
    /// The member's predicate compiled against the group-values schema
    /// (`{tag}.gv`): derivation evaluates it per *group*, not per row.
    /// `None` for an unshared query, which takes every group.
    derive: Option<CompiledExpr>,
    /// `q{id}.win` — the same shape whether the query runs alone or
    /// shared, so clients cannot tell the two apart.
    result_schema: Arc<Schema>,
    /// Finishers applied to the member's rows at the root (e.g. `TOP k`).
    final_ops: Vec<OperatorSpec>,
}

/// One member query's per-window result emission, produced at the window
/// root and forwarded by the executor to the member's proxy.
#[derive(Debug, Clone)]
pub struct Emission {
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

/// What one engine tick produced.
#[derive(Debug, Default)]
pub struct TickOutput {
    /// Closed-window partials to ship one hop toward the window root — one
    /// stream per engine, however many members it serves.
    pub partials: Vec<Tuple>,
    /// Distinct windows those partials cover (a tick that catches up after
    /// an `EVERY`-cadence gap ships several windows at once).
    pub flushed_windows: u64,
    /// Per-member emissions (non-empty only at the window root).
    pub emissions: Vec<Emission>,
}

/// Diagnostics of a continuous query installed at a node (tests and the
/// bench harness assert bounded state through this).  For a share-group
/// member the store figures are the group's.
#[derive(Debug, Clone, Copy)]
pub struct CqDiagnostics {
    /// Activity counters of the node-local window store.
    pub local: WindowStats,
    /// Activity counters of the relay/root window store.
    pub root: WindowStats,
    /// Open windows across both stores.
    pub open_windows: usize,
    /// Groups held across both stores (the node's CQ state footprint).
    pub total_groups: usize,
    /// Windows the root-side delta trackers currently remember.
    pub tracked_emissions: usize,
    /// Per-window emissions this node sent to the query's proxy as root.
    pub windows_emitted: u64,
    /// Lease renewals observed since installation.
    pub lease_renewals: u32,
    /// Windows rehydrated from durable segments when the engine was built
    /// (0 on a cold install): nonzero means this node restarted warm.
    pub rehydrated_windows: u64,
}

/// The windowed-aggregation engine of one standing query or share group at
/// one node (see the module docs).
#[derive(Debug)]
pub struct WindowAgg {
    /// `q{id}` or `g{fingerprint:016x}`: prefixes every interned shape and
    /// durable segment key of the engine.
    tag: String,
    /// `{tag}.windows` — the namespace closed-window partials travel on.
    namespace: String,
    /// The key whose routing identifier names the window root.
    root_key: String,
    root_id: Id,
    aggs: Vec<AggFunc>,
    /// Group columns resolved to schema indices once per input schema.
    group_resolver: ColumnResolver,
    /// Per-aggregate input column (`None` for `COUNT(*)`), resolved once
    /// per input schema.
    agg_inputs: Vec<Option<ColumnRef>>,
    /// Event-time column (arrival time when absent).
    time_ref: Option<ColumnRef>,
    /// Window-scoped dedup columns (a missing column keys as "∅").
    dedup_refs: Vec<ColumnRef>,
    /// `{tag}.wp` — the shape of closed-window partials.
    partial_schema: Arc<Schema>,
    partial_decode: Option<PartialDecodeCache>,
    /// `{tag}.gv` — the synthetic schema member predicates compile against
    /// (columns = the GROUP BY columns); interned on the first predicate.
    gv_schema: Option<Arc<Schema>>,
    members: BTreeMap<u64, Member>,
    state: SharedWindowState<GroupAgg, Tuple>,
    /// Windows restored from durable segments (0 for a cold engine).
    rehydrated_windows: u64,
}

impl WindowAgg {
    /// A per-store segment log larger than this is compacted (rewritten as
    /// one fresh snapshot) on the next persist.
    pub const SEGMENT_COMPACT_BYTES: usize = 1 << 20;

    /// A memberless engine.  `tag` prefixes the engine's interned shapes,
    /// partial namespace and segment keys; `root_key` (with the namespace)
    /// names the window root.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        tag: String,
        root_key: String,
        window: WindowSpec,
        group_cols: &[String],
        aggs: &[AggFunc],
        time_col: Option<&str>,
        dedup_cols: &[String],
        budget: CqBudget,
    ) -> WindowAgg {
        // The partial shape is fixed by the engine, so it interns once here
        // rather than once per shipped tuple.
        let mut columns = vec!["_w".to_string()];
        columns.extend(group_cols.iter().cloned());
        for agg in aggs {
            let col = agg.output_column();
            if matches!(agg, AggFunc::Avg(_)) {
                columns.push(col.clone());
                columns.push(format!("{col}_sum"));
                columns.push(format!("{col}_count"));
            } else {
                columns.push(col);
            }
        }
        let partial_schema = SchemaRegistry::global().intern_owned(format!("{tag}.wp"), columns);
        let namespace = format!("{tag}.windows");
        WindowAgg {
            root_id: routing_id(&namespace, &root_key),
            namespace,
            root_key,
            aggs: aggs.to_vec(),
            group_resolver: ColumnResolver::new(group_cols.to_vec()),
            agg_inputs: aggs
                .iter()
                .map(|a| a.input_column().map(ColumnRef::new))
                .collect(),
            time_ref: time_col.map(ColumnRef::new),
            dedup_refs: dedup_cols.iter().cloned().map(ColumnRef::new).collect(),
            partial_schema,
            partial_decode: None,
            gv_schema: None,
            members: BTreeMap::new(),
            state: SharedWindowState::new(window, budget),
            rehydrated_windows: 0,
            tag,
        }
    }

    /// The engine of an independently executed standing query: its
    /// windowed sink with the query as the one member.  `None` when the
    /// plan has no windowed sink.
    pub fn for_query(plan: &QueryPlan) -> Option<WindowAgg> {
        let (_, sink) = plan.windowed_sink()?;
        let SinkSpec::WindowedAgg {
            window,
            group_cols,
            aggs,
            time_col,
            dedup_cols,
            delta,
            final_ops,
        } = sink
        else {
            return None;
        };
        let mut engine = WindowAgg::new(
            format!("q{}", plan.query_id),
            plan.agg_root_key(),
            *window,
            group_cols,
            aggs,
            time_col.as_deref(),
            dedup_cols,
            plan.cq.unwrap_or_default().budget,
        );
        engine.add_member(plan.query_id, plan.proxy, None, *delta, final_ops);
        Some(engine)
    }

    /// Register a member query.  `predicate` (over the GROUP BY columns
    /// only) selects the groups the member sees; `None` takes every group.
    pub fn add_member(
        &mut self,
        query_id: u64,
        proxy: NodeAddr,
        predicate: Option<&Expr>,
        delta: DeltaMode,
        final_ops: &[OperatorSpec],
    ) {
        let derive = predicate.map(|p| {
            let gv = self.gv_schema.get_or_insert_with(|| {
                SchemaRegistry::global().intern_owned(
                    format!("{}.gv", self.tag),
                    self.group_resolver.columns().to_vec(),
                )
            });
            p.compile(gv)
        });
        let mut columns = vec!["window_start".to_string(), "window_end".to_string()];
        columns.extend(self.group_resolver.columns().iter().cloned());
        columns.extend(self.aggs.iter().map(AggFunc::output_column));
        let result_schema =
            SchemaRegistry::global().intern_owned(format!("q{query_id}.win"), columns);
        self.state.add_member(query_id, delta);
        self.members.insert(
            query_id,
            Member {
                proxy,
                derive,
                result_schema,
                final_ops: final_ops.to_vec(),
            },
        );
    }

    /// Drop a member's output stream.
    pub fn remove_member(&mut self, query_id: u64) {
        self.state.remove_member(query_id);
        self.members.remove(&query_id);
    }

    /// The engine's tag (`q{id}` or `g{fingerprint:016x}`).
    pub fn tag(&self) -> &str {
        &self.tag
    }

    /// Member query ids, ascending.
    pub fn member_ids(&self) -> Vec<u64> {
        self.members.keys().copied().collect()
    }

    /// The engine's window specification.
    pub fn window(&self) -> &WindowSpec {
        self.state.window()
    }

    /// The namespace closed-window partials travel on (`{tag}.windows`).
    pub fn namespace(&self) -> &str {
        &self.namespace
    }

    /// The key whose routing identifier names the window root.
    pub fn root_key(&self) -> &str {
        &self.root_key
    }

    /// The routing identifier of the window root.
    pub fn root_id(&self) -> Id {
        self.root_id
    }

    /// True when chunks of `schema` carry every GROUP BY column (anything
    /// else is malformed for this engine and discarded).
    pub fn reads(&mut self, schema: &Arc<Schema>) -> bool {
        self.group_resolver.indices_for(schema).is_some()
    }

    /// Fold a chunk into the local store: every row, or only the rows
    /// `selected` accepts.  The event-time, group, dedup and aggregate-input
    /// columns all resolve against the chunk's schema once; the per-row work
    /// is column indexing only.  A malformed chunk is discarded.
    pub fn absorb_chunk(
        &mut self,
        chunk: &ColumnChunk,
        now: SimTime,
        selected: Option<&dyn Fn(usize) -> bool>,
    ) {
        let schema = chunk.schema();
        let Some(group_idxs) = self.group_resolver.indices_for(schema) else {
            return; // malformed chunk: discard (best-effort policy)
        };
        let time_idx = self.time_ref.as_mut().and_then(|c| c.index_for(schema));
        let dedup_idxs: Vec<Option<usize>> = self
            .dedup_refs
            .iter_mut()
            .map(|c| c.index_for(schema))
            .collect();
        let agg_idxs: Vec<Option<usize>> = self
            .agg_inputs
            .iter_mut()
            .map(|input| input.as_mut().and_then(|c| c.index_for(schema)))
            .collect();
        let aggs = &self.aggs;
        let store = self.state.local_mut();
        for r in 0..chunk.rows() {
            if selected.is_some_and(|keep| !keep(r)) {
                continue;
            }
            let event_time = time_idx
                .and_then(|i| chunk.col(i).value_ref(r).as_i64())
                .map_or(now, |v| v.max(0) as u64);
            let key = chunk.key_at(group_idxs, r);
            let dedup = if dedup_idxs.is_empty() {
                None
            } else {
                // A row missing a dedup column is treated as unique.
                let mut out = String::with_capacity(12 * dedup_idxs.len());
                for (i, idx) in dedup_idxs.iter().enumerate() {
                    if i > 0 {
                        out.push('|');
                    }
                    match idx {
                        Some(c) => chunk.col(*c).value_ref(r).write_key(&mut out),
                        None => out.push('∅'),
                    }
                }
                Some(out)
            };
            store.push(
                event_time,
                &key,
                dedup.as_deref(),
                || GroupAgg {
                    vals: group_idxs.iter().map(|&i| chunk.col(i).value(r)).collect(),
                    states: aggs.iter().map(AggFunc::init).collect(),
                },
                |acc| {
                    for ((agg, idx), state) in aggs.iter().zip(&agg_idxs).zip(acc.states.iter_mut())
                    {
                        state.update_ref(agg, idx.map(|i| chunk.col(i).value_ref(r)));
                    }
                },
            );
        }
    }

    fn encode_partial(&self, wid: WindowId, acc: &GroupAgg) -> Tuple {
        let mut values = Vec::with_capacity(self.partial_schema.arity());
        values.push(Value::Int(wid as i64));
        values.extend(acc.vals.iter().cloned());
        for state in &acc.states {
            values.push(state.finish());
            if let AggState::Avg { sum, count } = state {
                values.push(Value::Float(*sum));
                values.push(Value::Int(*count as i64));
            }
        }
        Tuple::from_schema(Arc::clone(&self.partial_schema), values)
    }

    /// Decode a closed-window partial tuple into its window id, group key
    /// and mergeable accumulator.  `None` for malformed tuples (best-effort
    /// policy, as everywhere), including a negative `_w`, which names no
    /// window.  The `_w`/group/aggregate columns resolve to positional
    /// indices **once per schema**, so the per-partial work on the relay
    /// path is index access only.
    fn decode_partial(&mut self, tuple: &Tuple) -> Option<(WindowId, String, GroupAgg)> {
        let schema = tuple.schema();
        let hit = self
            .partial_decode
            .as_ref()
            .is_some_and(|c| Arc::ptr_eq(&c.schema, schema));
        if !hit {
            let compiled = (|| {
                let w = schema.position("_w")?;
                let groups: Vec<usize> = self
                    .group_resolver
                    .columns()
                    .iter()
                    .map(|c| schema.position(c))
                    .collect::<Option<_>>()?;
                let aggs: Vec<PartialDecoder> = self
                    .aggs
                    .iter()
                    .map(|a| PartialDecoder::compile(a, schema))
                    .collect::<Option<_>>()?;
                Some(PartialLayout { w, groups, aggs })
            })();
            self.partial_decode = Some(PartialDecodeCache {
                schema: Arc::clone(schema),
                compiled,
            });
        }
        let layout = self
            .partial_decode
            .as_ref()
            .expect("cache populated above")
            .compiled
            .as_ref()?;
        let values = tuple.values();
        let wid = WindowId::try_from(values[layout.w].as_i64()?).ok()?;
        let states: Vec<AggState> = layout
            .aggs
            .iter()
            .zip(&self.aggs)
            .map(|(decoder, agg)| decoder.decode(agg, values))
            .collect::<Option<_>>()?;
        let vals: Vec<Value> = layout.groups.iter().map(|&i| values[i].clone()).collect();
        Some((wid, tuple.key_at(&layout.groups), GroupAgg { vals, states }))
    }

    /// Fold one relayed closed-window partial into the relay/root store.
    /// False when it was refused: malformed, over budget, or for a window
    /// the store already retired.
    pub fn absorb_partial(&mut self, tuple: &Tuple) -> bool {
        match self.decode_partial(tuple) {
            Some((wid, key, acc)) => self.state.absorb_partial(wid, &key, acc),
            None => false,
        }
    }

    /// One window tick.  Away from the root, drain every due window of both
    /// stores into the engine's single partial stream.  At the root, fold
    /// the node's own due windows into the retained root state and derive
    /// each member's snapshot/delta emission from it.
    pub fn tick(&mut self, now: SimTime, is_root: bool) -> TickOutput {
        let mut out = TickOutput::default();
        if !is_root {
            let mut flushed: BTreeSet<WindowId> = BTreeSet::new();
            for (wid, groups) in self.state.drain_closed(now) {
                if !groups.is_empty() {
                    flushed.insert(wid);
                }
                for (_, acc) in groups {
                    out.partials.push(self.encode_partial(wid, &acc));
                }
            }
            out.flushed_windows = flushed.len() as u64;
            return out;
        }
        self.state.roll_up_local(now);
        let window = *self.state.window();
        let members = &self.members;
        let emissions = self.state.emit_due(now, |member_id, wid, groups| {
            let Some(m) = members.get(&member_id) else {
                return Vec::new();
            };
            let (ws, we) = window.bounds(wid);
            let mut rows: Vec<Tuple> = groups
                .iter()
                .filter(|(_, acc)| m.derive.as_ref().is_none_or(|d| d.matches(&acc.vals)))
                .map(|(_, acc)| {
                    let mut values = Vec::with_capacity(m.result_schema.arity());
                    values.push(Value::Int(ws as i64));
                    values.push(Value::Int(we as i64));
                    values.extend(acc.vals.iter().cloned());
                    values.extend(acc.states.iter().map(AggState::finish));
                    Tuple::from_schema(Arc::clone(&m.result_schema), values)
                })
                .collect();
            // A deterministic order; cached keys render each row once
            // instead of twice per comparison.
            rows.sort_by_cached_key(std::string::ToString::to_string);
            if !m.final_ops.is_empty() {
                let finisher =
                    Pipeline::new(m.final_ops.iter().filter_map(OperatorSpec::build).collect());
                rows = finisher.finish(rows);
            }
            rows
        });
        for e in emissions {
            let Some(m) = self.members.get(&e.member) else {
                continue;
            };
            let (window_start, window_end) = window.bounds(e.window);
            let mut retracts = Vec::new();
            let mut inserts = Vec::new();
            for d in e.deltas {
                match d {
                    Delta::Retract(t) => retracts.push(t),
                    Delta::Insert(t) => inserts.push(t),
                }
            }
            out.emissions.push(Emission {
                query_id: e.member,
                proxy: m.proxy,
                window_start,
                window_end,
                retracts,
                inserts,
            });
        }
        out
    }

    /// Durable-store keys of the engine's two stores, `[local, root]`.
    pub fn segment_keys(tag: &str) -> [String; 2] {
        [format!("{tag}.local"), format!("{tag}.root")]
    }

    /// Snapshot both stores into the durable store.  Appends one snapshot
    /// per call; once a log outgrows [`WindowAgg::SEGMENT_COMPACT_BYTES`] it
    /// is rewritten from scratch — rehydration only reads the *latest*
    /// snapshot of each window, so compaction loses nothing.
    pub fn persist(&self, durable: &DurableStore) {
        for (key, store) in Self::segment_keys(&self.tag)
            .into_iter()
            .zip(self.state.stores())
        {
            durable.with_log(&key, |log| {
                if log.len() > Self::SEGMENT_COMPACT_BYTES {
                    *log = SegmentLog::new();
                }
                store.write_segments(log);
            });
        }
    }

    /// Rebuild a fresh engine's stores from durable segments, so a restarted
    /// node serves warm windows from its first tick.  `None` when the store
    /// holds nothing for this engine (a genuinely cold start).
    pub fn rehydrate(&mut self, durable: &DurableStore) -> Option<RehydrateReport> {
        let mut total = RehydrateReport::default();
        for (key, store) in Self::segment_keys(&self.tag)
            .into_iter()
            .zip(self.state.stores_mut())
        {
            let Some(log) = durable.get(&key) else {
                continue;
            };
            let report = store.rehydrate_from(&log);
            total.windows += report.windows;
            total.groups += report.groups;
            total.tuples += report.tuples;
            total.records += report.records;
            total.skipped += report.skipped;
            total.torn_tail |= report.torn_tail;
        }
        if total.records == 0 && !total.torn_tail {
            return None;
        }
        self.rehydrated_windows = total.windows as u64;
        Some(total)
    }

    /// Activity counters of the two stores `(local, root)`.
    pub fn stats(&self) -> (WindowStats, WindowStats) {
        self.state.stats()
    }

    /// Open windows across both stores.
    pub fn open_windows(&self) -> usize {
        self.state.open_windows()
    }

    /// Groups held across both stores (the engine's state footprint —
    /// independent of the member count).
    pub fn total_groups(&self) -> usize {
        self.state.total_groups()
    }

    /// Approximate bytes of accumulator state across both stores.
    pub fn state_bytes(&self) -> usize {
        let acc_bytes = |g: &GroupAgg| -> usize {
            g.vals.iter().map(WireSize::wire_size).sum::<usize>()
                + g.states.iter().map(WireSize::wire_size).sum::<usize>()
        };
        self.state
            .stores()
            .iter()
            .map(|s| s.approx_state_bytes(&acc_bytes))
            .sum()
    }

    /// Windows restored from durable segments (0 for a cold engine).
    pub fn rehydrated_windows(&self) -> u64 {
        self.rehydrated_windows
    }

    /// Diagnostics of member `query_id` holding `lease`.
    pub fn diagnostics(&self, query_id: u64, lease: &Lease) -> CqDiagnostics {
        let (local, root) = self.state.stats();
        CqDiagnostics {
            local,
            root,
            open_windows: self.state.open_windows(),
            total_groups: self.state.total_groups(),
            tracked_emissions: self.state.tracked_emissions(),
            windows_emitted: self.state.windows_emitted(query_id),
            lease_renewals: lease.renewals,
            rehydrated_windows: self.rehydrated_windows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::TupleBatch;

    fn netmon_rows(n: i64) -> Vec<Tuple> {
        (0..n)
            .map(|i| {
                Tuple::new(
                    "packets",
                    vec![
                        ("src", Value::Str(format!("10.0.0.{}", i % 5).into())),
                        ("len", Value::Int(40 + i % 1400)),
                        ("ts", Value::Int(i * 250_000)),
                    ],
                )
            })
            .collect()
    }

    fn netmon_plan() -> QueryPlan {
        crate::sqlish::compile(
            "SELECT src, COUNT(*), SUM(len) FROM packets GROUP BY src WINDOW 30s SLIDE 10s",
            NodeAddr(1),
            60_000_000,
        )
        .expect("windowed netmon query must compile")
    }

    fn windowed_engine() -> WindowAgg {
        WindowAgg::for_query(&netmon_plan()).expect("plan has a windowed sink")
    }

    /// The netmon shape as a two-member share group whose members watch
    /// `10.0.0.1` and `10.0.0.3`.
    fn two_member_engine() -> WindowAgg {
        let plan = netmon_plan();
        let Some((_, SinkSpec::WindowedAgg { window, aggs, .. })) = plan.windowed_sink() else {
            panic!("plan has a windowed sink");
        };
        let mut engine = WindowAgg::new(
            "g00000000000000aa".to_string(),
            "g00000000000000aa.root".to_string(),
            *window,
            &["src".to_string()],
            aggs,
            Some("ts"),
            &[],
            CqBudget::default(),
        );
        for (qid, src) in [(1u64, "10.0.0.1"), (2, "10.0.0.3")] {
            let predicate = Expr::eq("src", Value::str(src));
            engine.add_member(qid, NodeAddr(1), Some(&predicate), DeltaMode::Snapshot, &[]);
        }
        engine
    }

    /// Canonical view of a window store's content after closing everything:
    /// `(window, group key, group values, finished aggregates)` rows.
    fn drain_canonical(engine: &mut WindowAgg) -> Vec<(u64, String, Vec<Value>, Vec<Value>)> {
        let mut out = Vec::new();
        for (wid, groups) in engine.state.local_mut().close_due(1_000_000_000_000) {
            for (key, acc) in groups {
                out.push((
                    wid,
                    key,
                    acc.vals.clone(),
                    acc.states.iter().map(AggState::finish).collect(),
                ));
            }
        }
        out.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
        out
    }

    /// Fold `rows` into the window store chunk by chunk, as the executor
    /// does for one arriving batch.
    fn absorb_all(engine: &mut WindowAgg, rows: Vec<Tuple>, now: SimTime) {
        for chunk in TupleBatch::new(rows).chunks() {
            engine.absorb_chunk(chunk, now, None);
        }
    }

    /// `(window, group values, finished aggregates)` rows in a canonical
    /// order, without the store's internal group key.
    fn without_keys(
        rows: Vec<(u64, String, Vec<Value>, Vec<Value>)>,
    ) -> Vec<(u64, Vec<Value>, Vec<Value>)> {
        let mut out: Vec<_> = rows.into_iter().map(|(w, _, g, a)| (w, g, a)).collect();
        out.sort_by_cached_key(|(w, g, _)| (*w, format!("{g:?}")));
        out
    }

    /// The reference the window absorb is checked against: every row folded
    /// into each (window, group) its `ts` falls in, one row at a time.
    fn reference_fold(engine: &WindowAgg, rows: &[Tuple]) -> Vec<(u64, Vec<Value>, Vec<Value>)> {
        let mut groups: BTreeMap<(u64, String), (Vec<Value>, Vec<AggState>)> = BTreeMap::new();
        for t in rows {
            let ts = t.get("ts").and_then(Value::as_i64).expect("row has ts");
            let src = t.get("src").expect("row has src").clone();
            for wid in engine.window().windows_containing(ts.max(0) as u64) {
                let (_, states) = groups.entry((wid, src.to_string())).or_insert_with(|| {
                    (
                        vec![src.clone()],
                        engine.aggs.iter().map(AggFunc::init).collect(),
                    )
                });
                for (agg, state) in engine.aggs.iter().zip(states.iter_mut()) {
                    state.update_with(agg, agg.input_column().and_then(|c| t.get(c)));
                }
            }
        }
        let mut out: Vec<_> = groups
            .into_iter()
            .map(|((wid, _), (vals, states))| {
                (wid, vals, states.iter().map(AggState::finish).collect())
            })
            .collect();
        out.sort_by_cached_key(|(w, g, _)| (*w, format!("{g:?}")));
        out
    }

    #[test]
    fn cq_chunk_absorb_equals_reference_fold() {
        let rows = netmon_rows(400);
        let mut whole = windowed_engine();
        let mut row_at_a_time = windowed_engine();
        let expected = reference_fold(&whole, &rows);
        assert!(!expected.is_empty(), "the workload must populate windows");
        let now = 1_000_000;
        for t in &rows {
            row_at_a_time.absorb_chunk(&ColumnChunk::from_tuple(t), now, None);
        }
        absorb_all(&mut whole, rows.clone(), now);
        assert_eq!(without_keys(drain_canonical(&mut whole)), expected);
        assert_eq!(without_keys(drain_canonical(&mut row_at_a_time)), expected);
        // A two-member share group folds exactly the rows its selection
        // (the members' union) keeps.
        let watched = |t: &Tuple| {
            matches!(
                t.get("src").and_then(Value::as_str),
                Some("10.0.0.1" | "10.0.0.3")
            )
        };
        let mut masked = two_member_engine();
        let kept: Vec<Tuple> = rows.iter().filter(|t| watched(t)).cloned().collect();
        let expected = reference_fold(&masked, &kept);
        assert!(!expected.is_empty() && kept.len() < rows.len());
        for chunk in TupleBatch::new(rows.clone()).chunks() {
            let union: Vec<bool> = (0..chunk.rows()).map(|r| watched(&chunk.row(r))).collect();
            masked.absorb_chunk(chunk, now, Some(&|r| union[r]));
        }
        assert_eq!(without_keys(drain_canonical(&mut masked)), expected);
    }

    #[test]
    fn cq_chunk_absorb_discards_malformed_chunks() {
        let mut engine = windowed_engine();
        let rows: Vec<Tuple> = (0..10)
            .map(|i| Tuple::new("packets", vec![("nothing", Value::Int(i))]))
            .collect();
        let batch = TupleBatch::new(rows);
        for chunk in batch.chunks() {
            engine.absorb_chunk(chunk, 0, None);
        }
        assert!(drain_canonical(&mut engine).is_empty());
    }

    #[test]
    fn negative_window_partials_are_refused() {
        let mut relay = windowed_engine();
        absorb_all(&mut relay, netmon_rows(40), 0);
        let shipped = relay.tick(1_000_000_000, false).partials;
        assert!(!shipped.is_empty(), "the relay ships closed windows");
        let mut root = windowed_engine();
        assert!(root.absorb_partial(&shipped[0]), "a clean partial folds");
        let mut values = shipped[0].values().to_vec();
        values[0] = Value::Int(-1);
        let hostile = Tuple::from_schema(Arc::clone(shipped[0].schema()), values);
        assert!(root.decode_partial(&hostile).is_none());
        assert!(!root.absorb_partial(&hostile), "_w = -1 names no window");
    }

    #[test]
    fn group_agg_segment_codec_round_trips_every_variant() {
        let agg = GroupAgg {
            vals: vec![
                Value::Null,
                Value::Bool(true),
                Value::Int(-5),
                Value::Float(2.5),
                Value::str("host-α"),
                Value::bytes([0u8, 255, 7]),
            ],
            states: vec![
                AggState::Count(3),
                AggState::Sum(1.5),
                AggState::Min(Some(Value::Int(-9))),
                AggState::Max(None),
                AggState::Avg { sum: 2.0, count: 4 },
            ],
        };
        let mut buf = Vec::new();
        agg.encode_state(&mut buf);
        let back = GroupAgg::decode_state(&buf).expect("clean bytes decode");
        assert_eq!(back.vals, agg.vals);
        assert_eq!(back.states, agg.states);
        // Byte-for-byte: re-encoding the decoded state reproduces the bytes.
        let mut again = Vec::new();
        back.encode_state(&mut again);
        assert_eq!(buf, again);
        // A truncated payload is rejected, not half-decoded.
        assert!(GroupAgg::decode_state(&buf[..buf.len() - 1]).is_none());
        // Trailing garbage is rejected too.
        let mut padded = buf.clone();
        padded.push(0);
        assert!(GroupAgg::decode_state(&padded).is_none());
    }

    #[test]
    fn persisted_cq_state_rehydrates_warm() {
        let mut engine = windowed_engine();
        absorb_all(&mut engine, netmon_rows(120), 0);
        let durable = DurableStore::new();
        engine.persist(&durable);
        let [local_key, _] = WindowAgg::segment_keys("q0");
        let log = durable.get(&local_key).expect("snapshot was written");

        // A cold store (what a restarted node builds) rehydrates to the
        // same canonical contents the crashed node held.
        let mut cold = windowed_engine();
        let report = cold.state.local_mut().rehydrate_from(&log);
        assert!(report.windows > 0, "open windows came back");
        assert!(!report.torn_tail);
        assert_eq!(drain_canonical(&mut cold), drain_canonical(&mut engine));
    }

    #[test]
    fn persist_compacts_once_the_log_outgrows_the_bound() {
        let mut engine = windowed_engine();
        absorb_all(&mut engine, netmon_rows(50), 0);
        let durable = DurableStore::new();
        engine.persist(&durable);
        let after_one = durable.total_bytes();
        // Snapshots append...
        engine.persist(&durable);
        assert!(durable.total_bytes() > after_one);
        // ...until the log crosses the compaction bound, which rewrites it
        // as a single fresh snapshot.
        let [local_key, _] = WindowAgg::segment_keys("q0");
        loop {
            let over = durable
                .get(&local_key)
                .is_some_and(|log| log.len() > WindowAgg::SEGMENT_COMPACT_BYTES);
            if over {
                break;
            }
            engine.persist(&durable);
        }
        engine.persist(&durable);
        durable.with_log(&local_key, |log| {
            assert!(
                log.len() <= WindowAgg::SEGMENT_COMPACT_BYTES,
                "compaction rewrote the oversized log"
            );
        });
        let mut cold = windowed_engine();
        let log = durable.get(&local_key).expect("compacted snapshot");
        cold.state.local_mut().rehydrate_from(&log);
        assert_eq!(drain_canonical(&mut cold), drain_canonical(&mut engine));
    }
}
