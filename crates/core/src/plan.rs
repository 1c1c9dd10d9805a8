//! Query plans: UFL opgraphs and their physical operator specifications.
//!
//! PIER queries are written in UFL, a "box-and-arrow" dataflow language
//! whose programs *are* physical execution plans (§3.3.2).  A plan is a set
//! of **opgraphs**; separate opgraphs are connected through the DHT (a
//! namespace acts as the rendezvous, like a distributed Exchange), and each
//! opgraph is the unit of dissemination — it is shipped only to the nodes
//! that must run it, using one of the three distributed indexes of §3.3.3
//! (the broadcast tree, the equality index, or — once integrated — the PHT
//! range index).
//!
//! These types are plain data: they travel across the network inside
//! [`QpObject`] values and are instantiated into runtime operator state by
//! the [`executor`](crate::node).

use crate::aggregate::AggFunc;
use crate::expr::Expr;
use crate::operators::{
    Distinct, GroupBy, Limit, LocalOperator, Projection, Queue, Selection, TopK,
};
use crate::tuple::{Tuple, TupleBatch};
use pier_cq::{CqBudget, DeltaMode, WindowSpec};
use pier_runtime::{Duration, NodeAddr, WireSize};

/// Serializable description of a local physical operator.
#[derive(Debug, Clone, PartialEq)]
pub enum OperatorSpec {
    /// Filter by predicate.
    Selection(Expr),
    /// Project onto columns.
    Projection(Vec<String>),
    /// Duplicate elimination on key columns (all columns when empty).
    Distinct(Vec<String>),
    /// Grouped aggregation producing tuples in `output_table`.
    GroupBy {
        /// Grouping columns.
        group_cols: Vec<String>,
        /// Aggregates to compute.
        aggs: Vec<AggFunc>,
        /// Table name of the produced tuples.
        output_table: String,
    },
    /// Keep the `k` tuples with the largest `order_col`.
    TopK {
        /// Number of tuples to keep.
        k: usize,
        /// Column ordered on (descending).
        order_col: String,
    },
    /// Pass at most `n` tuples.
    Limit(usize),
    /// Explicit yield point (control returns to the scheduler).
    Queue,
    /// Distributed index join (Fetch Matches, §3.3.3): for every input tuple,
    /// fetch the objects published under `inner_namespace` with partitioning
    /// key equal to the probe column's value and join them.  Handled
    /// asynchronously by the executor; must be the last operator before the
    /// sink.
    FetchMatches {
        /// Namespace of the inner (index) relation.
        inner_namespace: String,
        /// Column of the outer tuple providing the probe key.
        probe_col: String,
        /// Table name of join-result tuples.
        output_table: String,
    },
    /// A Fetch Matches join whose probe column already holds the inner
    /// relation's exact partitioning-key string — the *tupleID* of a
    /// secondary-index entry (§3.3.3).  The index entry is the outer
    /// relation; the executor follows the tupleID with a DHT `get` to fetch
    /// the base tuples.  Like [`OperatorSpec::FetchMatches`], it is handled
    /// by the executor and must be the last operator before the sink.
    FetchByTupleId {
        /// Namespace of the base relation the tupleID points into.
        inner_namespace: String,
        /// Column of the outer tuple holding the tupleID (partition-key
        /// string) of the base tuple.
        id_col: String,
        /// Table name of join-result tuples.
        output_table: String,
    },
    /// An eddy (§4.2.2) wired over a set of named, commutative selection
    /// predicates: the operator reorders them at run time according to the
    /// chosen routing policy.
    Eddy {
        /// (name, predicate) pairs the eddy routes tuples through.
        predicates: Vec<(String, Expr)>,
        /// The routing policy.
        policy: crate::eddy::RoutingPolicy,
    },
}

impl OperatorSpec {
    /// Instantiate the operator.  `None` for [`OperatorSpec::FetchMatches`],
    /// which is coordinated by the executor rather than run locally.
    pub fn build(&self) -> Option<Box<dyn LocalOperator + Send>> {
        match self {
            OperatorSpec::Selection(p) => Some(Box::new(Selection::new(p.clone()))),
            OperatorSpec::Projection(cols) => Some(Box::new(Projection::new(cols.clone()))),
            OperatorSpec::Distinct(key) => Some(Box::new(Distinct::new(key.clone()))),
            OperatorSpec::GroupBy {
                group_cols,
                aggs,
                output_table,
            } => Some(Box::new(GroupBy::new(
                group_cols.clone(),
                aggs.clone(),
                output_table.clone(),
            ))),
            OperatorSpec::TopK { k, order_col } => Some(Box::new(TopK::new(*k, order_col.clone()))),
            OperatorSpec::Limit(n) => Some(Box::new(Limit::new(*n))),
            OperatorSpec::Queue => Some(Box::new(Queue::default())),
            OperatorSpec::Eddy { predicates, policy } => Some(Box::new(
                crate::eddy::Eddy::over_predicates(predicates.clone(), *policy, 0x0E001),
            )),
            OperatorSpec::FetchMatches { .. } | OperatorSpec::FetchByTupleId { .. } => None,
        }
    }
}

impl WireSize for OperatorSpec {
    fn wire_size(&self) -> usize {
        // A coarse but monotone estimate: specs are small compared to data.
        32
    }
}

/// Where an opgraph's input tuples come from.
#[derive(Debug, Clone, PartialEq)]
pub enum SourceSpec {
    /// Tuples of a table: both rows stored locally at the node (the access
    /// method over node-local data such as its own firewall log) and rows of
    /// the DHT-published partition this node is responsible for, plus any
    /// new rows that arrive while the query runs.
    Table {
        /// Table namespace.
        namespace: String,
    },
}

impl SourceSpec {
    /// The namespace this source reads.
    pub fn namespace(&self) -> &str {
        match self {
            SourceSpec::Table { namespace } => namespace,
        }
    }
}

/// A two-input symmetric-hash join consumed from a rehash namespace: tuples
/// of `left_table` and `right_table` arrive interleaved and join on
/// `left_key = right_key`.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinSpec {
    /// Table name identifying left-side tuples.
    pub left_table: String,
    /// Table name identifying right-side tuples.
    pub right_table: String,
    /// Left join-key columns.
    pub left_key: Vec<String>,
    /// Right join-key columns.
    pub right_key: Vec<String>,
    /// Table name of join results.
    pub output_table: String,
}

/// Where an opgraph's output tuples go.
#[derive(Debug, Clone, PartialEq)]
pub enum SinkSpec {
    /// Send result tuples directly to the query's proxy node.
    ToProxy,
    /// Repartition by key through the DHT (the Put/Exchange operator): each
    /// tuple is published under `namespace` hashed on `key_cols`, where the
    /// consuming opgraph picks it up.
    Rehash {
        /// Rendezvous namespace.
        namespace: String,
        /// Hashing attributes.
        key_cols: Vec<String>,
    },
    /// Hierarchical aggregation (§3.3.4): aggregate locally, ship partials
    /// up an aggregation tree rooted at the query-specific root identifier,
    /// combine en route, and apply `final_ops` at the root before forwarding
    /// the answer to the proxy.
    HierarchicalAgg {
        /// Grouping columns.
        group_cols: Vec<String>,
        /// Aggregates to compute.
        aggs: Vec<AggFunc>,
        /// How long a node buffers partials before forwarding them up.
        hold: Duration,
        /// Operators applied to the merged result at the root (e.g. top-k).
        final_ops: Vec<OperatorSpec>,
        /// When true, partials are sent straight to the root's address
        /// (flat aggregation) instead of hop-by-hop combination; used as the
        /// baseline in the hierarchical-aggregation ablation.
        flat: bool,
    },
    /// Windowed continuous aggregation (the `pier-cq` subsystem): tuples are
    /// folded into tumbling/sliding time windows at each node; closed-window
    /// partials travel toward the query's window root (combining en route at
    /// upcall hops), and the root streams per-window results to the proxy as
    /// snapshots or insert/retract deltas.
    WindowedAgg {
        /// The tumbling/sliding window specification.
        window: WindowSpec,
        /// Grouping columns within each window.
        group_cols: Vec<String>,
        /// Aggregates to compute per window and group.
        aggs: Vec<AggFunc>,
        /// Column carrying the event time (virtual-time microseconds);
        /// tuples without it fall back to arrival time.
        time_col: Option<String>,
        /// Window-scoped duplicate-elimination columns (empty = none).
        dedup_cols: Vec<String>,
        /// Snapshot or insert/retract output semantics.
        delta: DeltaMode,
        /// Operators applied to each window's merged result at the root
        /// (e.g. top-k) before streaming to the proxy.
        final_ops: Vec<OperatorSpec>,
    },
}

/// How a plan (or a single opgraph) is shipped to the nodes that must run it.
#[derive(Debug, Clone, PartialEq)]
pub enum Dissemination {
    /// Broadcast over the distribution tree — the true-predicate index.
    Broadcast,
    /// Route to the single node responsible for `hash(namespace, key)` — the
    /// equality-predicate index.
    ByKey {
        /// Table namespace the predicate constrains.
        namespace: String,
        /// Canonical key string of the equality constant.
        key: String,
    },
    /// Route to the nodes responsible for the PHT-style range-index buckets
    /// overlapping a range predicate (§3.3.3 "Range Index Substrate"); the
    /// bucket keys are computed by
    /// [`range_index::RangeIndexConfig::buckets_for_range`](crate::range_index::RangeIndexConfig::buckets_for_range).
    ByRange {
        /// Table namespace the predicate constrains.
        namespace: String,
        /// Partition keys of the overlapping buckets.
        bucket_keys: Vec<String>,
    },
    /// Install only at the proxy (used for purely local queries and tests).
    Local,
}

/// One operator graph: source → local operators → sink.
#[derive(Debug, Clone, PartialEq)]
pub struct OpGraph {
    /// Identifier unique within the plan.
    pub id: u32,
    /// Input.
    pub source: SourceSpec,
    /// Optional two-input join fed by the source namespace.
    pub join: Option<JoinSpec>,
    /// Local operator pipeline.
    pub ops: Vec<OperatorSpec>,
    /// Output.
    pub sink: SinkSpec,
}

/// The soft-state lifecycle of a *continuous* query (the `pier-cq`
/// subsystem): how often the proxy re-disseminates the standing plan, how
/// long each (re)dissemination leases the query at a node, and the
/// work/state budget every node enforces for it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CqSpec {
    /// Proxy re-dissemination (lease renewal) period.  Re-dissemination
    /// doubles as churn repair: nodes that joined or restarted after the
    /// original dissemination pick the query up on the next round.
    pub renew_every: Duration,
    /// Lease granted by each (re)dissemination; a node missing renewals
    /// uninstalls the query when the lease lapses.
    pub lease: Duration,
    /// Per-node work/state bound for the query's window state.
    pub budget: CqBudget,
    /// Refuse multi-query sharing: install with a private dataflow even
    /// when a sharing layer is configured.  Durability does not need this —
    /// share groups persist and rehydrate their windows exactly as private
    /// queries do — but it keeps the query on its own window root
    /// (`q{id}.agg-root`) instead of its share group's.
    pub exclusive: bool,
}

impl Default for CqSpec {
    fn default() -> Self {
        let renew_every = 10_000_000; // 10 s
        CqSpec {
            renew_every,
            lease: renew_every * 3,
            budget: CqBudget::default(),
            exclusive: false,
        }
    }
}

impl CqSpec {
    /// Shortest accepted renewal period — a re-dissemination is a broadcast,
    /// so sub-second periods would flood the overlay.
    pub const MIN_RENEW_EVERY: Duration = 1_000_000;

    /// A lifecycle renewing every `renew_every` microseconds (clamped to
    /// [`CqSpec::MIN_RENEW_EVERY`]) with the conventional 3× lease.
    pub fn renewing_every(renew_every: Duration) -> Self {
        let renew_every = renew_every.max(Self::MIN_RENEW_EVERY);
        CqSpec {
            renew_every,
            lease: renew_every.saturating_mul(3),
            budget: CqBudget::default(),
            exclusive: false,
        }
    }

    /// Override the per-node budget.
    pub fn with_budget(mut self, budget: CqBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Opt out of multi-query sharing (see [`CqSpec::exclusive`]).
    pub fn exclusive(mut self) -> Self {
        self.exclusive = true;
        self
    }
}

impl WireSize for CqSpec {
    fn wire_size(&self) -> usize {
        16 + self.budget.wire_size()
    }
}

/// A complete query plan.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryPlan {
    /// Query identifier (assigned by the proxy when 0).
    pub query_id: u64,
    /// The proxy node results are forwarded to.
    pub proxy: NodeAddr,
    /// How the plan reaches the participating nodes.
    pub dissemination: Dissemination,
    /// The opgraphs making up the plan.
    pub opgraphs: Vec<OpGraph>,
    /// Lifetime of the query: execution stops when it expires (§3.3.2 uses
    /// timeouts for both snapshot and continuous queries).
    pub timeout: Duration,
    /// Continuous queries keep delivering results until the timeout; snapshot
    /// queries deliver what the timeout has collected.
    pub continuous: bool,
    /// Soft-state lifecycle for continuous queries; `None` for one-shot
    /// queries (install once, die at the timeout).
    pub cq: Option<CqSpec>,
    /// The tenant this query is billed to (admission control charges the
    /// plan's predicted cost against this tenant's SLO budget; `0` is the
    /// anonymous default tenant).
    pub tenant: u64,
    /// Shed-to-sampling modulus stamped by admission control before
    /// dissemination: every node keeps only one in `sample_every` source
    /// rows for this query.  `1` (the default) is full fidelity.  The
    /// counter is per query per node, so equal-seed runs thin identically.
    pub sample_every: u32,
    /// The query is traced: stamped **once at the proxy** (a deterministic
    /// 1-in-N draw from the proxy's seeded RNG, or forced by a sqlish
    /// `EXPLAIN ANALYZE` prefix) and disseminated with the plan, so every
    /// participating node agrees on the sampling decision without
    /// re-rolling.  Traced queries record `pier-trace` spans and attach
    /// wire trace contexts; untraced queries pay one boolean test.
    pub trace: bool,
}

impl QueryPlan {
    /// Namespace under which this query's partial aggregates travel.
    pub fn partial_namespace(&self) -> String {
        format!("q{}.partials", self.query_id)
    }

    /// The aggregation-tree root key for this query (hashing it yields the
    /// root identifier named in the query, §3.3.4).
    pub fn agg_root_key(&self) -> String {
        format!("q{}.agg-root", self.query_id)
    }

    /// Namespace under which this query's closed-window partials travel.
    pub fn window_namespace(&self) -> String {
        format!("q{}.windows", self.query_id)
    }

    /// The windowed-aggregation sink of this plan, if any.
    pub fn windowed_sink(&self) -> Option<(usize, &SinkSpec)> {
        self.opgraphs
            .iter()
            .enumerate()
            .find(|(_, g)| matches!(g.sink, SinkSpec::WindowedAgg { .. }))
            .map(|(i, g)| (i, &g.sink))
    }
}

impl WireSize for QueryPlan {
    fn wire_size(&self) -> usize {
        // 64 covers the fixed header (ids, proxy, timeout, tenant, the
        // sampling modulus and the trace flag); opgraphs are priced per
        // spec below.
        64 + self
            .opgraphs
            .iter()
            .map(|g| 48 + g.ops.iter().map(WireSize::wire_size).sum::<usize>())
            .sum::<usize>()
    }
}

/// Values stored in (and routed through) the DHT by the query processor.
#[derive(Debug, Clone, PartialEq)]
pub enum QpObject {
    /// A base or derived data tuple.
    Tuple(Tuple),
    /// A batch of same-destination tuples coalesced into one transfer (the
    /// executor's rehash/exchange and partial-aggregate paths); unpacked
    /// back into per-tuple dataflow at the receiving node.
    Batch(TupleBatch),
    /// A query plan being disseminated.
    Plan(QueryPlan),
}

impl QpObject {
    /// The tuple inside, if this is a single-tuple data object.
    pub fn as_tuple(&self) -> Option<&Tuple> {
        match self {
            QpObject::Tuple(t) => Some(t),
            QpObject::Batch(_) | QpObject::Plan(_) => None,
        }
    }

    /// The object shipping `tuples` to one destination: a lone tuple
    /// travels bare, several as one [`TupleBatch`].
    pub(crate) fn shipment(mut tuples: Vec<Tuple>) -> QpObject {
        if tuples.len() == 1 {
            QpObject::Tuple(tuples.pop().expect("len checked"))
        } else {
            QpObject::Batch(TupleBatch::new(tuples))
        }
    }

    /// Number of data tuples this object carries (0 for plans).
    pub fn tuple_count(&self) -> usize {
        match self {
            QpObject::Tuple(_) => 1,
            QpObject::Batch(b) => b.len(),
            QpObject::Plan(_) => 0,
        }
    }

    /// Iterate the data tuples this object carries: one for
    /// [`QpObject::Tuple`], all of them (materialised lazily from the
    /// columnar chunks; values are shared, not copied) for
    /// [`QpObject::Batch`], none for plans.  Batch-aware consumers should
    /// match on [`QpObject::Batch`] and walk the chunks instead.
    pub fn iter_tuples(&self) -> impl Iterator<Item = Tuple> + '_ {
        let (single, batch) = match self {
            QpObject::Tuple(t) => (Some(t.clone()), None),
            QpObject::Batch(b) => (None, Some(b.iter())),
            QpObject::Plan(_) => (None, None),
        };
        single.into_iter().chain(batch.into_iter().flatten())
    }

    /// Append the data tuples this object carries to `batch`, borrowing
    /// them (a batch's chunks are copied column by column; plans carry
    /// none).
    pub(crate) fn extend_batch(&self, batch: &mut TupleBatch) {
        match self {
            QpObject::Tuple(t) => batch.push_tuple(t),
            QpObject::Batch(b) => {
                for chunk in b.chunks() {
                    batch.extend_from_chunk(chunk);
                }
            }
            QpObject::Plan(_) => {}
        }
    }
}

impl WireSize for QpObject {
    fn wire_size(&self) -> usize {
        1 + match self {
            QpObject::Tuple(t) => t.wire_size(),
            QpObject::Batch(b) => b.wire_size(),
            QpObject::Plan(p) => p.wire_size(),
        }
    }
}

/// A convenience builder for the common single-table aggregation / selection
/// plans used by the examples and experiments.
#[derive(Debug, Clone)]
pub struct PlanBuilder {
    proxy: NodeAddr,
    dissemination: Dissemination,
    opgraphs: Vec<OpGraph>,
    timeout: Duration,
    continuous: bool,
    cq: Option<CqSpec>,
    tenant: u64,
}

impl PlanBuilder {
    /// Start building a plan whose results flow to `proxy`.
    pub fn new(proxy: NodeAddr) -> Self {
        PlanBuilder {
            proxy,
            dissemination: Dissemination::Broadcast,
            opgraphs: Vec::new(),
            timeout: 30_000_000,
            continuous: false,
            cq: None,
            tenant: 0,
        }
    }

    /// Bill the query to `tenant` (see [`QueryPlan::tenant`]).
    pub fn tenant(mut self, tenant: u64) -> Self {
        self.tenant = tenant;
        self
    }

    /// Set the dissemination strategy.
    pub fn dissemination(mut self, d: Dissemination) -> Self {
        self.dissemination = d;
        self
    }

    /// Set the query timeout.
    pub fn timeout(mut self, t: Duration) -> Self {
        self.timeout = t;
        self
    }

    /// Mark the query as continuous.
    pub fn continuous(mut self, yes: bool) -> Self {
        self.continuous = yes;
        self
    }

    /// Attach a continuous-query lifecycle (implies `continuous`).
    pub fn cq(mut self, spec: CqSpec) -> Self {
        self.cq = Some(spec);
        self.continuous = true;
        self
    }

    /// Add an opgraph.
    pub fn opgraph(mut self, graph: OpGraph) -> Self {
        self.opgraphs.push(graph);
        self
    }

    /// Finish building.
    pub fn build(self) -> QueryPlan {
        QueryPlan {
            query_id: 0,
            proxy: self.proxy,
            dissemination: self.dissemination,
            opgraphs: self.opgraphs,
            timeout: self.timeout,
            continuous: self.continuous,
            cq: self.cq,
            tenant: self.tenant,
            sample_every: 1,
            trace: false,
        }
    }

    /// Shorthand for a broadcast select-project query over one table.
    pub fn select(
        proxy: NodeAddr,
        table: &str,
        predicate: Expr,
        columns: Vec<String>,
        timeout: Duration,
    ) -> QueryPlan {
        let mut ops = vec![OperatorSpec::Selection(predicate)];
        if !columns.is_empty() {
            ops.push(OperatorSpec::Projection(columns));
        }
        PlanBuilder::new(proxy)
            .timeout(timeout)
            .opgraph(OpGraph {
                id: 0,
                source: SourceSpec::Table {
                    namespace: table.to_string(),
                },
                join: None,
                ops,
                sink: SinkSpec::ToProxy,
            })
            .build()
    }

    /// Shorthand for the continuous netmon query: a sliding-window grouped
    /// count over `table`, streamed per window to the proxy for as long as
    /// the proxy keeps renewing the query.
    pub fn windowed_group_count(
        proxy: NodeAddr,
        table: &str,
        group_col: &str,
        window: WindowSpec,
        cq: CqSpec,
        timeout: Duration,
    ) -> QueryPlan {
        PlanBuilder::new(proxy)
            .timeout(timeout)
            .cq(cq)
            .opgraph(OpGraph {
                id: 0,
                source: SourceSpec::Table {
                    namespace: table.to_string(),
                },
                join: None,
                ops: vec![],
                sink: SinkSpec::WindowedAgg {
                    window,
                    group_cols: vec![group_col.to_string()],
                    aggs: vec![AggFunc::Count],
                    time_col: Some("ts".to_string()),
                    dedup_cols: vec![],
                    delta: DeltaMode::Snapshot,
                    final_ops: vec![],
                },
            })
            .build()
    }

    /// Shorthand for one *tenant* of the multi-query monitoring workload: a
    /// windowed grouped count restricted to a single group constant
    /// (`WHERE group_col = watched`).  Plans built this way for different
    /// `watched` constants are identical up to the constant, so a sharing
    /// layer (`pier-mqo`) normalizes them into one share group; without a
    /// layer each runs as an independent continuous query.
    pub fn windowed_filtered_count(
        proxy: NodeAddr,
        table: &str,
        group_col: &str,
        watched: impl Into<crate::value::Value>,
        window: WindowSpec,
        cq: CqSpec,
        timeout: Duration,
    ) -> QueryPlan {
        PlanBuilder::new(proxy)
            .timeout(timeout)
            .cq(cq)
            .opgraph(OpGraph {
                id: 0,
                source: SourceSpec::Table {
                    namespace: table.to_string(),
                },
                join: None,
                ops: vec![OperatorSpec::Selection(Expr::eq(group_col, watched))],
                sink: SinkSpec::WindowedAgg {
                    window,
                    group_cols: vec![group_col.to_string()],
                    aggs: vec![AggFunc::Count],
                    time_col: Some("ts".to_string()),
                    dedup_cols: vec![],
                    delta: DeltaMode::Snapshot,
                    final_ops: vec![],
                },
            })
            .build()
    }

    /// Shorthand for the Figure-2 style "top-k grouped count" query computed
    /// with hierarchical aggregation.
    pub fn top_k_group_count(
        proxy: NodeAddr,
        table: &str,
        group_col: &str,
        k: usize,
        timeout: Duration,
    ) -> QueryPlan {
        PlanBuilder::new(proxy)
            .timeout(timeout)
            .opgraph(OpGraph {
                id: 0,
                source: SourceSpec::Table {
                    namespace: table.to_string(),
                },
                join: None,
                ops: vec![],
                sink: SinkSpec::HierarchicalAgg {
                    group_cols: vec![group_col.to_string()],
                    aggs: vec![AggFunc::Count],
                    hold: 2_000_000,
                    final_ops: vec![OperatorSpec::TopK {
                        k,
                        order_col: "count".to_string(),
                    }],
                    flat: false,
                },
            })
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;

    #[test]
    fn operator_specs_build_local_operators() {
        let specs = vec![
            OperatorSpec::Selection(Expr::eq("a", 1i64)),
            OperatorSpec::Projection(vec!["a".into()]),
            OperatorSpec::Distinct(vec![]),
            OperatorSpec::GroupBy {
                group_cols: vec!["a".into()],
                aggs: vec![AggFunc::Count],
                output_table: "g".into(),
            },
            OperatorSpec::TopK {
                k: 3,
                order_col: "count".into(),
            },
            OperatorSpec::Limit(5),
            OperatorSpec::Queue,
        ];
        for spec in &specs {
            assert!(spec.build().is_some(), "{spec:?} must build");
        }
        let fetch = OperatorSpec::FetchMatches {
            inner_namespace: "inv".into(),
            probe_col: "k".into(),
            output_table: "j".into(),
        };
        assert!(fetch.build().is_none(), "FetchMatches is executor-managed");
    }

    #[test]
    fn windowed_filtered_count_builds_a_share_eligible_shape() {
        use pier_cq::WindowSpec;
        let plan = PlanBuilder::windowed_filtered_count(
            NodeAddr(2),
            "packets",
            "src",
            "10.0.0.9",
            WindowSpec::sliding(2_000_000, 1_000_000),
            CqSpec::default(),
            60_000_000,
        );
        assert!(plan.cq.is_some());
        assert!(matches!(plan.dissemination, Dissemination::Broadcast));
        let graph = &plan.opgraphs[0];
        assert!(matches!(&graph.ops[..], [OperatorSpec::Selection(_)]));
        match &graph.sink {
            SinkSpec::WindowedAgg {
                group_cols,
                dedup_cols,
                ..
            } => {
                assert_eq!(group_cols, &vec!["src".to_string()]);
                assert!(dedup_cols.is_empty(), "dedup would block sharing");
            }
            other => panic!("unexpected sink {other:?}"),
        }
    }

    #[test]
    fn builder_shorthands_produce_expected_shapes() {
        let select = PlanBuilder::select(
            NodeAddr(3),
            "files",
            Expr::eq("keyword", "rock"),
            vec!["file".into()],
            10_000_000,
        );
        assert_eq!(select.opgraphs.len(), 1);
        assert_eq!(select.proxy, NodeAddr(3));
        assert!(matches!(select.opgraphs[0].sink, SinkSpec::ToProxy));
        assert_eq!(select.opgraphs[0].ops.len(), 2);

        let topk = PlanBuilder::top_k_group_count(NodeAddr(0), "events", "src", 10, 20_000_000);
        match &topk.opgraphs[0].sink {
            SinkSpec::HierarchicalAgg {
                group_cols,
                final_ops,
                flat,
                ..
            } => {
                assert_eq!(group_cols, &vec!["src".to_string()]);
                assert_eq!(final_ops.len(), 1);
                assert!(!flat);
            }
            other => panic!("unexpected sink {other:?}"),
        }
    }

    #[test]
    fn query_specific_names_include_the_query_id() {
        let mut plan = PlanBuilder::select(NodeAddr(0), "t", Expr::all(vec![]), vec![], 1_000);
        plan.query_id = 42;
        assert_eq!(plan.partial_namespace(), "q42.partials");
        assert_eq!(plan.agg_root_key(), "q42.agg-root");
    }

    #[test]
    fn qp_object_wire_size_scales_with_contents() {
        let small = QpObject::Tuple(Tuple::new("t", vec![("a", crate::value::Value::Int(1))]));
        let plan = QpObject::Plan(PlanBuilder::select(
            NodeAddr(0),
            "t",
            Expr::all(vec![]),
            vec![],
            1_000,
        ));
        assert!(small.wire_size() > 10);
        assert!(plan.wire_size() > 64);
        assert!(small.as_tuple().is_some());
        assert!(plan.as_tuple().is_none());
    }
}
