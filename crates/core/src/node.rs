//! The PIER node program: query executor over the overlay.
//!
//! A [`PierNode`] is the "Program" box of Figures 3 and 4 with the query
//! processor included: it embeds an [`Overlay`] (the DHT wrapper), installs
//! opgraphs that arrive via query dissemination, runs their local dataflow
//! over locally stored and DHT-partitioned data, and uses the overlay for
//! the distributed parts of query execution exactly as §3.3.6 enumerates —
//! query dissemination, hash indexes, partitioned parallelism (rehash),
//! operator state, and hierarchical operators.
//!
//! Life of a query (§3.3.2): a client hands a [`QueryPlan`] to any node
//! (its *proxy*) through [`PierNode::submit_query`]; the proxy disseminates
//! the plan (broadcast tree, equality index, or locally), every receiving
//! node instantiates the opgraphs and starts feeding them; answer tuples are
//! forwarded to the proxy, which delivers them to the client; execution
//! stops when the query's timeout expires.

use crate::admission::{AdmissionControl, AdmissionFactory, AdmissionVerdict, SloPolicy};
use crate::operators::{GroupBy, JoinSide, LocalOperator, Pipeline, SymmetricHashJoin};
use crate::plan::{CqSpec, Dissemination, OpGraph, OperatorSpec, QpObject, QueryPlan, SinkSpec};
use crate::sharing::{
    group_tag, is_share_scoped_table, InstallOutcome, MultiQuerySharing, SharingFactory,
    SharingStats,
};
use crate::tuple::{SchemaRegistry, Tuple, TupleBatch};
use crate::value::Value;
use crate::window_agg::{CqDiagnostics, Emission, WindowAgg};
use pier_cq::{DurableStore, Lease, LeaseStatus, RenewalBackoff};
use pier_dht::{
    routing_id, DhtMessage, Id, NodeRef, ObjectName, Overlay, OverlayConfig, OverlayEffect,
    OverlayEvent, OverlayTimer,
};
use pier_runtime::{Duration, NodeAddr, Program, ProgramContext, Rng64, SimTime, WireSize};
use pier_telemetry::{SpanRecord, Telemetry, TelemetryConfig};
use pier_trace::{trace_id_for, TraceConfig, TraceContext};
use std::collections::HashMap;
use std::sync::Arc;

/// Tuning knobs for a PIER node.
#[derive(Debug, Clone)]
pub struct PierConfig {
    /// Overlay configuration.
    pub overlay: OverlayConfig,
    /// Soft-state lifetime used when publishing tuples and partial results.
    pub publish_lifetime: Duration,
    /// Coalesce same-destination tuples into [`TupleBatch`] transfers on the
    /// rehash/exchange and partial-aggregate paths (one overlay operation
    /// per destination per flush instead of one per tuple).  Disable to get
    /// the paper's original per-tuple `put` behaviour (the baseline of the
    /// batching-equivalence tests).
    pub batching: bool,
    /// Rehash tuples buffered per node before an early flush.
    pub batch_max_tuples: usize,
    /// Upper bound on how long a rehash tuple may sit in the batch buffer
    /// before the periodic flush tick ships it, microseconds.
    pub batch_flush_interval: Duration,
    /// Optional multi-query sharing layer constructor (`pier_mqo::layer`):
    /// when set, disseminated plans are offered to the layer first and
    /// constant-varied continuous queries execute as share-group members
    /// instead of independent dataflows.  `None` (the default) preserves
    /// per-query execution exactly.
    pub sharing: Option<SharingFactory>,
    /// Self-monitoring telemetry: disabled by default (zero overhead beyond
    /// one discriminant check per instrumentation point).  When enabled the
    /// node keeps a [`pier_telemetry::TelemetryHub`] of counters, gauges,
    /// histograms and a bounded trace ring; when
    /// [`TelemetryConfig::publish_interval`] is also set the node
    /// periodically materialises its hub as tuples into the
    /// `system.metrics` DHT namespace so standing queries can monitor the
    /// cluster through PIER itself.
    pub telemetry: TelemetryConfig,
    /// Durable window segments: when set, every window tick snapshots the
    /// ticked engine's window state into this [`DurableStore`] — keys
    /// `q{id}.local` / `q{id}.root` for a standalone continuous query,
    /// `g{fp:016x}.local` / `g{fp:016x}.root` for a share group — and a node
    /// restarted with the *same* store handle rehydrates warm windows when
    /// the next re-dissemination re-installs the query (or re-creates the
    /// group), instead of recomputing retained panes from scratch.  A
    /// teardown (or a group's retirement) drops the engine's segments.
    /// `None` (the default) keeps all state soft.
    pub durable: Option<DurableStore>,
    /// Optional admission-control layer constructor (`pier_analyze`): when
    /// set, every plan submitted at this node is statically costed *before
    /// dissemination* and admitted, degraded to a sampled plan, or rejected
    /// with a machine-readable report ([`PierOut::Admission`]).  `None`
    /// (the default) admits everything unconditionally.
    pub admission: Option<AdmissionFactory>,
    /// Per-tenant SLO budgets and the deployment assumptions the admission
    /// layer's cost model scales by.  Ignored without
    /// [`PierConfig::admission`].
    pub slo: SloPolicy,
    /// Distributed tracing (`pier-trace`): off by default.  When
    /// [`TraceConfig::sample_every`] is nonzero the proxy samples one in N
    /// submitted queries with a seeded-RNG draw (an `EXPLAIN ANALYZE` plan
    /// arrives pre-marked and skips the roll); sampled queries record
    /// virtual-time spans through the telemetry hub and their trace context
    /// travels on the wire.  With tracing off the RNG is never drawn and no
    /// context is attached, so runs stay byte-identical — results *and*
    /// message sizes — to a build without tracing.  Spans are inert unless
    /// [`PierConfig::telemetry`] is also enabled.
    pub trace: TraceConfig,
}

impl Default for PierConfig {
    fn default() -> Self {
        PierConfig {
            overlay: OverlayConfig::default(),
            publish_lifetime: 600_000_000,
            batching: true,
            batch_max_tuples: 64,
            batch_flush_interval: 100_000,
            sharing: None,
            telemetry: TelemetryConfig::default(),
            durable: None,
            admission: None,
            slo: SloPolicy::default(),
            trace: TraceConfig::off(),
        }
    }
}

/// Messages exchanged between PIER nodes.
#[derive(Debug, Clone)]
pub enum PierMsg {
    /// Overlay traffic (routing, get/put/send/renew, broadcast).
    Dht(DhtMessage<QpObject>),
    /// Answer tuples flowing back to the query's proxy node.
    Results {
        /// Query the tuples belong to.
        query_id: u64,
        /// The answer tuples (possibly a batch).
        tuples: Vec<Tuple>,
    },
    /// Per-window results of a continuous query streamed from the query's
    /// window root to the proxy: retractions of superseded rows (delta mode
    /// only) followed by the window's current rows.
    WindowResults {
        /// Query the window belongs to.
        query_id: u64,
        /// Window start (virtual-time microseconds, inclusive).
        window_start: SimTime,
        /// Window end (exclusive).
        window_end: SimTime,
        /// Rows retracted by this emission.
        retracts: Vec<Tuple>,
        /// Rows inserted by this emission.
        inserts: Vec<Tuple>,
        /// Trace context when the emitting query is sampled: the proxy's
        /// `result.emit` span parents to the root's `window.emit` span.
        trace: Option<TraceContext>,
    },
}

impl WireSize for PierMsg {
    fn wire_size(&self) -> usize {
        1 + match self {
            PierMsg::Dht(m) => m.wire_size(),
            PierMsg::Results { tuples, .. } => {
                8 + tuples.iter().map(WireSize::wire_size).sum::<usize>()
            }
            PierMsg::WindowResults {
                retracts,
                inserts,
                trace,
                ..
            } => {
                24 + retracts.iter().map(WireSize::wire_size).sum::<usize>()
                    + inserts.iter().map(WireSize::wire_size).sum::<usize>()
                    + trace.map_or(0, |t| t.wire_size())
            }
        }
    }
}

/// Timers used by a PIER node.
#[derive(Debug, Clone)]
pub enum PierTimer {
    /// Overlay maintenance.
    Overlay(OverlayTimer),
    /// Periodic flush of buffered partial aggregates up the aggregation tree.
    AggFlush {
        /// Query being flushed.
        query_id: u64,
    },
    /// Final aggregation flush at the aggregation-tree root.
    AggFinal {
        /// Query being finalized.
        query_id: u64,
    },
    /// The query's lifetime expired at this node: uninstall it.
    QueryEnd {
        /// Query being uninstalled.
        query_id: u64,
    },
    /// The proxy's view of the query lifetime expired: notify the client.
    ProxyDone {
        /// Query being completed.
        query_id: u64,
    },
    /// Periodic window maintenance for a continuous query: close due
    /// windows, forward partials toward the window root, emit per-window
    /// results at the root.  Fires every window slide.
    WindowTick {
        /// Query being ticked.
        query_id: u64,
    },
    /// Proxy-side soft-state renewal: re-disseminate the standing plan so
    /// leases extend and churned-in nodes join the computation.
    CqRenew {
        /// Query being renewed.
        query_id: u64,
    },
    /// Node-side lease check: uninstall the continuous query if its lease
    /// lapsed (the owner stopped renewing or we are partitioned away).
    CqLease {
        /// Query being checked.
        query_id: u64,
    },
    /// Ship every buffered rehash batch that the size threshold has not
    /// already flushed (the "flush on tick" half of batched transfer).
    BatchFlush,
    /// Periodic window maintenance for one **share group** of the sharing
    /// layer: one tick chain per group *incarnation*, however many member
    /// queries it serves.  It runs the same tick as
    /// [`PierTimer::WindowTick`], on the group's engine.
    ShareTick {
        /// The share group (plan fingerprint) being ticked.
        group: u64,
        /// The group incarnation this chain was armed for; the chain stops
        /// when the live group's epoch differs (retired and re-created).
        epoch: u64,
    },
    /// Periodic self-monitoring publish: materialise the telemetry hub as a
    /// `system.metrics` tuple into the DHT (the dogfood loop — armed only
    /// when [`TelemetryConfig::publish_interval`] is set).
    MetricsPublish,
}

/// Values delivered to the client application attached to a node.
#[derive(Debug, Clone)]
pub enum PierOut {
    /// An answer tuple for a query this node proxies.
    Result {
        /// Query the tuple answers.
        query_id: u64,
        /// The answer tuple.
        tuple: Tuple,
    },
    /// The query's timeout expired; no more results will be delivered.
    Done {
        /// The completed query.
        query_id: u64,
    },
    /// One row of a per-window result of a continuous query.
    WindowResult {
        /// Query the row answers.
        query_id: u64,
        /// Window start (inclusive).
        window_start: SimTime,
        /// Window end (exclusive).
        window_end: SimTime,
        /// True when this row retracts a previously delivered row
        /// (delta-mode refinement); false for inserts/snapshots.
        retract: bool,
        /// The result row.
        tuple: Tuple,
    },
    /// The proxy's admission decision for a submitted query (emitted only
    /// when the node is built with an admission layer,
    /// [`crate::node::PierConfig::admission`]).  A rejected query also
    /// receives a terminating [`PierOut::Done`]; a shed query runs with
    /// `sample_every > 1`.
    Admission {
        /// The assessed query.
        query_id: u64,
        /// The tenant billed ([`QueryPlan::tenant`]).
        tenant: u64,
        /// False when the query was rejected and will not run.
        accepted: bool,
        /// Sampling modulus the plan was disseminated with (1 = full
        /// fidelity, >1 = shed-to-sampling degraded mode).
        sample_every: u32,
        /// The machine-readable static cost report (JSON; schema in
        /// `docs/ANALYSIS.md`).
        report: String,
    },
}

/// True for table names of the query-scoped form `q{digits}.{suffix}` — the
/// namespaces queries intern per installation (`q{id}.agg`, `q{id}.wp`,
/// `q{id}.win`, `q{id}.partials`, …) and the shapes the teardown sweep is
/// allowed to evict.  User tables that merely start with `q` do not match.
pub(crate) fn is_query_scoped_table(table: &str) -> bool {
    let Some(rest) = table.strip_prefix('q') else {
        return false;
    };
    let Some(dot) = rest.find('.') else {
        return false;
    };
    !rest[..dot].is_empty() && rest.as_bytes()[..dot].iter().all(u8::is_ascii_digit)
}

#[derive(Debug)]
struct GraphState {
    spec: OpGraph,
    pipeline: Pipeline,
    join: Option<SymmetricHashJoin>,
    /// Local + relayed partial aggregates waiting to travel up the tree.
    uplink: Option<GroupBy>,
    /// Partials merged at the aggregation-tree root.
    root_merge: Option<GroupBy>,
}

/// Runtime state of one independently executed continuous query at one
/// node: its window engine (the query as the one member) plus what only
/// the executor keeps per query.
#[derive(Debug)]
struct CqState {
    engine: WindowAgg,
    /// Index of the opgraph feeding the windows.
    graph_idx: usize,
    /// Soft-state lease granted by (re)dissemination.
    lease: Lease,
    /// Shed tuples+groups already reported to telemetry (delta baseline for
    /// the `window_shed` trace event).
    tel_shed: u64,
    /// Evicted windows already reported to telemetry (delta baseline for
    /// the `window_evict` trace event).
    tel_evicted: u64,
}

/// A window engine the executor drives.
#[derive(Debug, Clone, Copy)]
enum EngineId {
    /// The engine of an independently executed continuous query.
    Query(u64),
    /// A share group's engine, held by the sharing layer.
    Group(u64),
}

/// What an arriving object carries, decided from its namespace alone
/// ([`PierNode::classify`]).
#[derive(Debug, Clone, Copy)]
enum Arrival {
    /// Closed-window partials of a window engine.
    WindowPartial(EngineId),
    /// Hierarchical-aggregation partials of an installed query.
    AggPartial(u64),
    /// Base-table or rehash-namespace rows for the dataflow.
    Data,
}

/// Shed-to-sampling as a row mask: a degraded plan keeps one in `every`
/// *source* rows — those whose per-query per-node arrival count `seen`
/// satisfies `(seen - 1) % every == 0`.  Chunks of query-scoped tables
/// (rehashed join sides, shipped partials) are derived data and pass
/// untouched.  The counter runs across chunks and arrivals, so equal-seed
/// runs thin identically however the rows were batched.
fn sample_rows(seen: &mut u64, every: u32, batch: &TupleBatch) -> TupleBatch {
    let every = u64::from(every);
    let mut out = TupleBatch::default();
    for chunk in batch.chunks() {
        if is_query_scoped_table(chunk.schema().table()) {
            out.push_chunk(chunk.clone());
            continue;
        }
        let mask: Vec<bool> = (0..chunk.rows())
            .map(|_| {
                *seen += 1;
                (*seen - 1).is_multiple_of(every)
            })
            .collect();
        out.push_filtered(chunk, &mask);
    }
    out
}

#[derive(Debug)]
struct QueryState {
    plan: QueryPlan,
    graphs: Vec<GraphState>,
    agg_root_id: Id,
    /// Continuous-query runtime, present when the plan has a windowed sink.
    cq: Option<CqState>,
    /// Source rows seen by a shed plan (`sample_every > 1`): the
    /// deterministic per-query per-node sampling counter.
    ingest_seen: u64,
}

#[derive(Debug, Default)]
struct ProxyState {
    results: u64,
    done: bool,
    /// The standing plan, kept proxy-side for periodic re-dissemination.
    renew_plan: Option<QueryPlan>,
    /// Jittered exponential backoff driving the re-dissemination clock
    /// (created on the first renewal round from the plan's lifecycle).
    backoff: Option<RenewalBackoff>,
    /// `results` at the previous renewal round: a stalled stream (no new
    /// results since the last round) escalates the backoff, progress
    /// resets it.
    renew_results: u64,
}

/// Rehash tuples buffered per rendezvous namespace, grouped by partition
/// key so each flush performs one overlay `put` per key instead of one per
/// tuple.
#[derive(Debug, Default)]
struct RehashBuffer {
    by_key: HashMap<String, Vec<Tuple>>,
    tuples: usize,
}

/// A PIER node: overlay + query processor, runnable under the simulator or
/// the physical runtime.
#[derive(Debug)]
pub struct PierNode {
    overlay: Overlay<QpObject>,
    bootstrap: Option<NodeAddr>,
    config: PierConfig,
    rng: Rng64,
    local_tables: HashMap<String, Vec<Tuple>>,
    queries: HashMap<u64, QueryState>,
    proxied: HashMap<u64, ProxyState>,
    pending_fetches: HashMap<u64, (u64, usize, Tuple)>,
    next_query_seq: u64,
    rehash_buf: HashMap<String, RehashBuffer>,
    batch_timer_armed: bool,
    /// The multi-query sharing layer (`pier-mqo`), when configured.
    sharing: Option<Box<dyn MultiQuerySharing + Send>>,
    /// The admission-control layer (`pier-analyze`), when configured.
    /// Consulted at the proxy before dissemination; absent = admit all.
    admission: Option<Box<dyn AdmissionControl + Send>>,
    /// Self-monitoring telemetry handle (shared with the overlay, the
    /// sharing layer and every installed pipeline; inert when disabled).
    tel: Telemetry,
    /// Per-node span-id sequence (`pier-trace`): ids are
    /// `(addr + 1) << 32 | seq`, cluster-unique and purely counter-derived
    /// so equal seeds allocate equal ids.
    next_span_seq: u64,
    /// Most recent span at this node that absorbed upstream work of a
    /// sampled query (`window.combine` / `window.upcall`): the parent the
    /// root's `window.emit` span links to.
    last_combine_span: HashMap<u64, u64>,
    /// Span ordinals at or above this watermark have not yet been published
    /// into `system.spans` (the dogfood loop, [`TraceConfig::publish`]).
    span_publish_cursor: u64,
}

impl PierNode {
    /// A node whose overlay routing state is precomputed from the full ring.
    pub fn with_static_ring(me: NodeRef, all: &[NodeRef], config: PierConfig) -> Self {
        let overlay = Overlay::with_static_ring(me, all, config.overlay);
        Self::assemble(me, overlay, None, config)
    }

    /// A node that joins an existing overlay through `bootstrap` when started.
    pub fn joining(me: NodeRef, bootstrap: Option<NodeAddr>, config: PierConfig) -> Self {
        let overlay = Overlay::new(me, config.overlay);
        Self::assemble(me, overlay, bootstrap, config)
    }

    /// Wire the configured layers around `overlay`: one telemetry handle
    /// shared by the overlay, the sharing layer and the admission layer.
    /// Admission learns from the sharing layer's presence whether
    /// share-eligible plans will actually run shared.
    fn assemble(
        me: NodeRef,
        mut overlay: Overlay<QpObject>,
        bootstrap: Option<NodeAddr>,
        config: PierConfig,
    ) -> Self {
        let tel = Telemetry::from_config(&config.telemetry);
        overlay.set_telemetry(tel.clone());
        let mut sharing = config.sharing.map(|factory| factory());
        if let Some(layer) = sharing.as_mut() {
            layer.set_telemetry(tel.clone());
        }
        let mut admission = config.admission.map(|factory| factory());
        if let Some(layer) = admission.as_mut() {
            layer.configure(&config.slo, sharing.is_some());
            layer.set_telemetry(&tel);
        }
        PierNode {
            overlay,
            bootstrap,
            rng: Rng64::new(me.id.0 ^ 0x9D5F),
            sharing,
            admission,
            tel,
            config,
            local_tables: HashMap::new(),
            queries: HashMap::new(),
            proxied: HashMap::new(),
            pending_fetches: HashMap::new(),
            next_query_seq: 0,
            rehash_buf: HashMap::new(),
            batch_timer_armed: false,
            next_span_seq: 0,
            last_combine_span: HashMap::new(),
            span_publish_cursor: 0,
        }
    }

    /// Read access to the overlay (diagnostics, experiments).
    pub fn overlay(&self) -> &Overlay<QpObject> {
        &self.overlay
    }

    /// Write access to the overlay, e.g. to stage objects directly in this
    /// node's store (tests, experiments).
    pub fn overlay_mut(&mut self) -> &mut Overlay<QpObject> {
        &mut self.overlay
    }

    /// The node's telemetry handle (inert unless
    /// [`PierConfig::telemetry`] enables it).  Harnesses use this to read
    /// counters, sync host-level stats in as gauges, or export the trace.
    pub fn telemetry(&self) -> &Telemetry {
        &self.tel
    }

    /// Number of queries currently installed at this node, counting both
    /// independent dataflows and share-group members.
    pub fn installed_queries(&self) -> usize {
        self.queries.len() + self.sharing.as_ref().map_or(0, |l| l.stats().members)
    }

    /// Diagnostics of the multi-query sharing layer (`None` when the node
    /// was built without one).
    pub fn sharing_stats(&self) -> Option<SharingStats> {
        self.sharing.as_ref().map(|l| l.stats())
    }

    /// Queries currently holding admission budget at this proxy (`None`
    /// when the node was built without an admission layer).
    pub fn admitted_queries(&self) -> Option<usize> {
        self.admission.as_ref().map(|l| l.admitted())
    }

    // ----- distributed tracing (pier-trace) ---------------------------------

    /// Allocate the next cluster-unique span id: node address in the high
    /// half, a per-node sequence in the low half.  Counter-derived, never
    /// random, so equal-seed runs allocate identical ids.
    fn next_span_id(&mut self, me: NodeAddr) -> u64 {
        self.next_span_seq += 1;
        ((u64::from(me.0) + 1) << 32) | self.next_span_seq
    }

    /// The trace id of `query_id` when the query is installed at this node,
    /// was sampled at its proxy, and telemetry can record the span.
    fn traced(&self, query_id: u64) -> Option<u64> {
        if !self.tel.is_enabled() {
            return None;
        }
        self.queries
            .get(&query_id)
            .filter(|q| q.plan.trace)
            .map(|_| trace_id_for(query_id))
    }

    /// Rows of a node-local table (the decoupled-storage access method over
    /// data that lives only on this node, e.g. its own firewall log).
    pub fn local_table_len(&self, table: &str) -> usize {
        self.local_tables.get(table).map_or(0, Vec::len)
    }

    /// Append a row to a node-local table.  Rows become visible to queries
    /// over that table that are installed later; rows added while a
    /// continuous query is running are fed to it on arrival only if they are
    /// also published into the DHT.
    pub fn add_local_row(&mut self, table: &str, tuple: Tuple) {
        self.local_tables
            .entry(table.to_string())
            .or_default()
            .push(tuple);
    }

    /// Publish a tuple into the DHT-partitioned primary index of `table`,
    /// hashed on `key_cols` (§3.3.3 "a primary index in PIER is achieved by
    /// publishing a table into the DHT").
    pub fn publish(
        &mut self,
        ctx: &mut ProgramContext<Self>,
        table: &str,
        key_cols: &[String],
        tuple: Tuple,
    ) {
        let Some(key) = tuple.partition_key(key_cols) else {
            return; // malformed tuple: nothing to hash on
        };
        self.publish_keyed(ctx, table, key, tuple);
    }

    /// Publish a tuple under an explicit partition key instead of one derived
    /// from its columns.  Used by the range index (the key is the PHT bucket
    /// label) and by any access method that wants custom placement.
    pub fn publish_keyed(
        &mut self,
        ctx: &mut ProgramContext<Self>,
        table: &str,
        key: String,
        tuple: Tuple,
    ) {
        let name = ObjectName::new(table, key, self.rng.next_u64());
        let lifetime = self.config.publish_lifetime;
        let effects = self
            .overlay
            .put(name, QpObject::Tuple(tuple), lifetime, ctx.now());
        self.drive(ctx, effects);
    }

    /// Publish a tuple together with secondary-index entries on `index_cols`
    /// (§3.3.3): the base tuple goes into the primary index hashed on
    /// `key_cols`, and one `(index-key, tupleID)` entry per indexed column
    /// goes into the corresponding index table hashed on the indexed value.
    /// Consistency between the base tuple and its entries remains the
    /// publisher's responsibility, exactly as in the paper.
    pub fn publish_with_secondary_indexes(
        &mut self,
        ctx: &mut ProgramContext<Self>,
        table: &str,
        key_cols: &[String],
        index_cols: &[String],
        tuple: Tuple,
    ) {
        let entries = crate::secondary_index::index_entries(table, key_cols, index_cols, &tuple);
        self.publish(ctx, table, key_cols, tuple);
        let index_key_cols = crate::secondary_index::index_partition_cols();
        for entry in entries {
            let index_table = entry.table().to_string();
            self.publish(ctx, &index_table, &index_key_cols, entry);
        }
    }

    /// Publish a tuple into the range index of `table` on `column` using the
    /// PHT-style bucket addressing of [`crate::range_index`] (§3.3.3 "Range
    /// Index Substrate").  Malformed tuples (missing or non-integer column)
    /// are silently skipped.
    pub fn publish_range_indexed(
        &mut self,
        ctx: &mut ProgramContext<Self>,
        table: &str,
        column: &str,
        config: crate::range_index::RangeIndexConfig,
        tuple: Tuple,
    ) {
        let Some(key) = crate::range_index::publish_key(column, config, &tuple) else {
            return;
        };
        self.publish_keyed(ctx, table, key, tuple);
    }

    /// Submit a query at this node, which becomes its proxy.  Returns the
    /// assigned query id; results arrive as [`PierOut::Result`] outputs and
    /// the stream is terminated by [`PierOut::Done`].
    pub fn submit_query(&mut self, ctx: &mut ProgramContext<Self>, mut plan: QueryPlan) -> u64 {
        if plan.query_id == 0 {
            self.next_query_seq += 1;
            plan.query_id = ((ctx.me().0 as u64) << 32) | self.next_query_seq;
        }
        plan.proxy = ctx.me();
        // A windowed sink is a standing query: without a lifecycle nobody
        // would renew the nodes' leases and the query would silently die
        // when the default lease lapses, so one is always attached.
        if plan.cq.is_none() && plan.windowed_sink().is_some() {
            plan.cq = Some(CqSpec::default());
        }
        let query_id = plan.query_id;
        // Admission: the proxy consults the static analyzer before any of
        // the network sees the plan.  Rejected plans never disseminate —
        // the submitter gets the machine-readable report plus a
        // terminating `Done`; shed plans disseminate with the derived
        // sampling modulus stamped in.
        if let Some(layer) = self.admission.as_mut() {
            let decision = layer.assess(&plan);
            match decision.verdict {
                AdmissionVerdict::Admit => {
                    self.tel.inc("admission.admit");
                    self.tel.event("admission.admit", || {
                        vec![
                            ("query", query_id.to_string()),
                            ("tenant", plan.tenant.to_string()),
                        ]
                    });
                    ctx.output(PierOut::Admission {
                        query_id,
                        tenant: plan.tenant,
                        accepted: true,
                        sample_every: plan.sample_every,
                        report: decision.report,
                    });
                }
                AdmissionVerdict::Shed { sample_every } => {
                    plan.sample_every = sample_every.max(2);
                    let every = plan.sample_every;
                    self.tel.inc("admission.shed");
                    self.tel.event("admission.shed", || {
                        vec![
                            ("query", query_id.to_string()),
                            ("tenant", plan.tenant.to_string()),
                            ("sample_every", every.to_string()),
                        ]
                    });
                    ctx.output(PierOut::Admission {
                        query_id,
                        tenant: plan.tenant,
                        accepted: true,
                        sample_every: plan.sample_every,
                        report: decision.report,
                    });
                }
                AdmissionVerdict::Reject { reason } => {
                    self.tel.inc("admission.reject");
                    self.tel.event("admission.reject", || {
                        vec![
                            ("query", query_id.to_string()),
                            ("tenant", plan.tenant.to_string()),
                            ("reason", reason.clone()),
                        ]
                    });
                    ctx.output(PierOut::Admission {
                        query_id,
                        tenant: plan.tenant,
                        accepted: false,
                        sample_every: plan.sample_every,
                        report: decision.report,
                    });
                    ctx.output(PierOut::Done { query_id });
                    return query_id;
                }
            }
        }
        // Tracing: sampled once, here at the proxy — one seeded-RNG draw
        // per submission *only while tracing is enabled*, so untraced runs
        // consume the exact RNG stream of a pre-tracing build.  An
        // `EXPLAIN ANALYZE` plan arrives pre-marked and skips the roll; the
        // decision rides the disseminated plan so every node agrees.
        if self.config.trace.enabled() && !plan.trace {
            let roll = self.rng.next_u64();
            plan.trace = self.config.trace.keeps(roll);
        }
        if plan.trace && self.tel.is_enabled() {
            let trace_id = trace_id_for(query_id);
            let now = ctx.now();
            self.tel.record_span(
                now,
                now,
                trace_id,
                trace_id, // the trace's root span IS the trace id
                0,
                query_id,
                "query.disseminate",
                0,
                0,
                u64::from(plan.sample_every),
            );
        }
        let mut proxy_state = ProxyState::default();
        if let Some(cq) = &plan.cq {
            // Standing query: keep the plan for periodic re-dissemination
            // (lease renewal + churn repair) and start the renewal clock.
            proxy_state.renew_plan = Some(plan.clone());
            ctx.set_timer(cq.renew_every, PierTimer::CqRenew { query_id });
        }
        self.proxied.insert(query_id, proxy_state);
        ctx.set_timer(plan.timeout, PierTimer::ProxyDone { query_id });
        self.disseminate(ctx, plan);
        query_id
    }

    fn disseminate(&mut self, ctx: &mut ProgramContext<Self>, plan: QueryPlan) {
        let now = ctx.now();
        match plan.dissemination.clone() {
            Dissemination::Broadcast => {
                let effects = self.overlay.broadcast(QpObject::Plan(plan), now);
                self.drive(ctx, effects);
            }
            Dissemination::ByKey { namespace, key } => {
                let name = ObjectName::new(namespace, key, self.rng.next_u64());
                let lifetime = plan.timeout;
                let effects = self.overlay.send(name, QpObject::Plan(plan), lifetime, now);
                self.drive(ctx, effects);
            }
            Dissemination::ByRange {
                namespace,
                bucket_keys,
            } => {
                // Route one copy of the plan to the partition of every
                // range-index bucket overlapping the predicate (§3.3.3).
                let lifetime = plan.timeout;
                for key in bucket_keys {
                    let name = ObjectName::new(namespace.clone(), key, self.rng.next_u64());
                    let effects =
                        self.overlay
                            .send(name, QpObject::Plan(plan.clone()), lifetime, now);
                    self.drive(ctx, effects);
                }
            }
            Dissemination::Local => {
                self.install_query(ctx, plan);
            }
        }
    }

    /// Feed a streamed tuple to every installed opgraph reading `table`
    /// without retaining it — the access method for transient monitoring
    /// streams (a packet trace is observed once, not stored).  Tuples
    /// arriving while no matching query is installed are simply dropped.
    pub fn ingest(&mut self, ctx: &mut ProgramContext<Self>, table: &str, tuple: Tuple) {
        let effects = self.route_arrival(ctx, table, QpObject::Tuple(tuple));
        self.drive(ctx, effects);
    }

    // ----- effect / event plumbing ------------------------------------------

    fn drive(&mut self, ctx: &mut ProgramContext<Self>, effects: Vec<OverlayEffect<QpObject>>) {
        let mut work = effects;
        while !work.is_empty() {
            let mut next = Vec::new();
            for effect in work {
                match effect {
                    OverlayEffect::Send { to, msg } => ctx.send(to, PierMsg::Dht(msg)),
                    OverlayEffect::SetTimer { delay, timer } => {
                        ctx.set_timer(delay, PierTimer::Overlay(timer));
                    }
                    OverlayEffect::Event(event) => {
                        next.extend(self.handle_overlay_event(ctx, event));
                    }
                }
            }
            work = next;
        }
    }

    fn handle_overlay_event(
        &mut self,
        ctx: &mut ProgramContext<Self>,
        event: OverlayEvent<QpObject>,
    ) -> Vec<OverlayEffect<QpObject>> {
        match event {
            OverlayEvent::GetResult {
                request_id,
                objects,
                ..
            } => {
                // A Fetch Matches probe came back: join the probe tuple with
                // every fetched inner tuple and forward to the sink.
                if let Some((query_id, graph_idx, probe)) = self.pending_fetches.remove(&request_id)
                {
                    let (output_table, sink_ok) = match self.fetch_spec(query_id, graph_idx) {
                        Some(t) => (t, true),
                        None => (String::new(), false),
                    };
                    if !sink_ok {
                        return Vec::new();
                    }
                    let joined: Vec<Tuple> = objects
                        .iter()
                        .flat_map(|o| o.value.iter_tuples())
                        .map(|inner| probe.join_with(&inner, &output_table))
                        .collect();
                    return self.deliver_sink(ctx, query_id, graph_idx, joined);
                }
                Vec::new()
            }
            OverlayEvent::NewData { object, trace } => {
                // A context on arriving data means the sender's stage was
                // sampled: record the absorption — arrival at (or relay
                // into) the window root — as a `window.combine` span
                // parented to the sender's wire-carried span.
                if let Some(t) = trace {
                    if self.tel.is_enabled() && object.value.tuple_count() > 0 {
                        let now = ctx.now();
                        let span = self.next_span_id(ctx.me());
                        self.tel.record_span(
                            now,
                            now,
                            t.trace_id,
                            span,
                            t.span_id,
                            t.query_id,
                            "window.combine",
                            object.value.tuple_count() as u64,
                            object.value.wire_size() as u64,
                            0,
                        );
                        self.last_combine_span.insert(t.query_id, span);
                    }
                }
                match object.value {
                    QpObject::Plan(plan) => {
                        self.install_query(ctx, plan);
                        Vec::new()
                    }
                    data => self.route_arrival(ctx, &object.name.namespace, data),
                }
            }
            OverlayEvent::Upcall {
                token,
                object,
                trace,
                ..
            } => {
                // Hierarchical aggregation: intercept partials travelling up
                // the tree, fold them into our own buffered partials, and
                // drop the original message (§3.3.4).  Closed-window partials
                // of continuous queries combine the same way en route to the
                // window root; batched partials absorb as a unit (tuples a
                // merge refuses are malformed and would be discarded at the
                // root anyway, per the best-effort policy).
                let now = ctx.now();
                // Sampled senders get the §3.2.4 upcall offer recorded as a
                // `window.upcall` span; anything this node re-ships (refused
                // partials) parents to it via a fresh child context.
                let upcall_ctx = match trace {
                    Some(t) if self.tel.is_enabled() => {
                        let span = self.next_span_id(ctx.me());
                        self.tel.record_span(
                            now,
                            now,
                            t.trace_id,
                            span,
                            t.span_id,
                            t.query_id,
                            "window.upcall",
                            object.value.tuple_count() as u64,
                            0,
                            0,
                        );
                        self.last_combine_span.insert(t.query_id, span);
                        Some(t.child(span))
                    }
                    _ => None,
                };
                if object.value.tuple_count() > 0 {
                    let namespace = object.name.namespace.as_str();
                    match self.classify(namespace) {
                        Arrival::AggPartial(query_id) => {
                            let mut absorbed = false;
                            for partial in object.value.iter_tuples() {
                                absorbed |= self.absorb_partial(query_id, &partial);
                            }
                            if absorbed {
                                return self.overlay.resume_upcall(token, false, now);
                            }
                        }
                        Arrival::WindowPartial(engine) => {
                            let mut absorbed = false;
                            let mut refused: Vec<Tuple> = Vec::new();
                            for partial in object.value.iter_tuples() {
                                if self.absorb_window_partial(engine, &partial) {
                                    absorbed = true;
                                } else {
                                    refused.push(partial);
                                }
                            }
                            if absorbed {
                                // The absorbed share is ours now; anything this
                                // node's state refused (budget shed, evicted
                                // window) must still reach the root — exactly
                                // as an unbatched per-tuple upcall would have
                                // continued routing it.
                                let mut effects = self.overlay.resume_upcall(token, false, now);
                                if !refused.is_empty() {
                                    // Arm only when a send follows: `set_trace`
                                    // is consumed by the next overlay op and
                                    // must not leak onto unrelated traffic.
                                    self.overlay.set_trace(upcall_ctx);
                                    effects
                                        .extend(self.reship_window_partials(engine, refused, now));
                                }
                                return effects;
                            }
                        }
                        Arrival::Data => {}
                    }
                }
                self.overlay.resume_upcall(token, true, now)
            }
            OverlayEvent::Broadcast { payload } => {
                if let QpObject::Plan(plan) = payload {
                    self.install_query(ctx, plan);
                }
                Vec::new()
            }
            OverlayEvent::RenewResult { .. } | OverlayEvent::LookupDone { .. } => Vec::new(),
        }
    }

    fn fetch_spec(&self, query_id: u64, graph_idx: usize) -> Option<String> {
        let q = self.queries.get(&query_id)?;
        let g = q.graphs.get(graph_idx)?;
        g.spec.ops.iter().find_map(|op| match op {
            OperatorSpec::FetchMatches { output_table, .. }
            | OperatorSpec::FetchByTupleId { output_table, .. } => Some(output_table.clone()),
            _ => None,
        })
    }

    /// The window engine `id` names, if it is live here.
    fn engine(&self, id: EngineId) -> Option<&WindowAgg> {
        match id {
            EngineId::Query(query_id) => {
                self.queries.get(&query_id)?.cq.as_ref().map(|c| &c.engine)
            }
            EngineId::Group(group) => self.sharing.as_ref()?.engine(group),
        }
    }

    /// Mutable access to the window engine `id` names.
    fn engine_mut(&mut self, id: EngineId) -> Option<&mut WindowAgg> {
        match id {
            EngineId::Query(query_id) => self
                .queries
                .get_mut(&query_id)?
                .cq
                .as_mut()
                .map(|c| &mut c.engine),
            EngineId::Group(group) => self.sharing.as_mut()?.engine_mut(group),
        }
    }

    /// Re-route window partials this node could not absorb at an upcall hop
    /// toward the root of the engine they belong to.
    fn reship_window_partials(
        &mut self,
        id: EngineId,
        partials: Vec<Tuple>,
        now: SimTime,
    ) -> Vec<OverlayEffect<QpObject>> {
        let Some(engine) = self.engine(id) else {
            return Vec::new();
        };
        let root_id = engine.root_id();
        let (namespace, root_key) = (
            engine.namespace().to_string(),
            engine.root_key().to_string(),
        );
        let name = ObjectName::new(namespace, root_key, self.rng.next_u64());
        let shipment = QpObject::shipment(partials);
        let lifetime = self.config.publish_lifetime;
        self.overlay
            .send_routed(root_id, name, shipment, lifetime, now)
    }

    /// Fold one closed-window partial into the relay/root store of engine
    /// `id`.  False when it was refused (budget, evicted window, malformed).
    fn absorb_window_partial(&mut self, id: EngineId, partial: &Tuple) -> bool {
        self.engine_mut(id)
            .is_some_and(|engine| engine.absorb_partial(partial))
    }

    fn absorb_partial(&mut self, query_id: u64, partial: &Tuple) -> bool {
        let Some(q) = self.queries.get_mut(&query_id) else {
            return false;
        };
        let mut absorbed = false;
        for g in &mut q.graphs {
            if let Some(uplink) = g.uplink.as_mut() {
                absorbed |= uplink.merge_partial(partial);
            }
        }
        absorbed
    }

    /// Decide what an arriving object on `namespace` carries — once per
    /// arrival, from the namespace alone (the four kinds use disjoint
    /// namespaces), before any of its rows is materialised.  A query's
    /// partial namespaces are `q{id}.windows` and `q{id}.partials`, so the
    /// id is parsed out of the name: one lookup, however many queries are
    /// installed.
    fn classify(&self, namespace: &str) -> Arrival {
        let scoped = |suffix: &str| -> Option<(u64, &QueryState)> {
            let id = namespace
                .strip_prefix('q')?
                .strip_suffix(suffix)?
                .parse()
                .ok()?;
            self.queries.get(&id).map(|q| (id, q))
        };
        if let Some((id, q)) = scoped(".windows") {
            if q.cq.is_some() && q.plan.window_namespace() == namespace {
                return Arrival::WindowPartial(EngineId::Query(id));
            }
        }
        if let Some(group) = self
            .sharing
            .as_ref()
            .and_then(|l| l.window_group(namespace))
        {
            return Arrival::WindowPartial(EngineId::Group(group));
        }
        if let Some((id, q)) = scoped(".partials") {
            if q.plan.partial_namespace() == namespace {
                return Arrival::AggPartial(id);
            }
        }
        Arrival::Data
    }

    /// The one arrival path: a streamed tuple (`ingest`), a stored tuple or
    /// a coalesced batch (`newData`).  Partials fold into the aggregation
    /// state their namespace names; data becomes one [`TupleBatch`] — a
    /// single tuple a one-row batch — handed chunk-wise to the sharing layer
    /// and to every opgraph reading the namespace.
    fn route_arrival(
        &mut self,
        ctx: &mut ProgramContext<Self>,
        namespace: &str,
        object: QpObject,
    ) -> Vec<OverlayEffect<QpObject>> {
        match self.classify(namespace) {
            // Closed-window partials arriving at (or relayed through) this
            // node, per query or per share group (a budget-refused arrival
            // is dropped: best effort, as everywhere at the root).
            Arrival::WindowPartial(engine) => {
                for partial in object.iter_tuples() {
                    self.absorb_window_partial(engine, &partial);
                }
            }
            // Partial aggregates arriving at the aggregation-tree root.
            Arrival::AggPartial(query_id) => {
                if let Some(q) = self.queries.get_mut(&query_id) {
                    for partial in object.iter_tuples() {
                        for g in &mut q.graphs {
                            if let Some(root) = g.root_merge.as_mut() {
                                root.merge_partial(&partial);
                            }
                        }
                    }
                }
            }
            Arrival::Data => return self.route_data(ctx, namespace, object),
        }
        Vec::new()
    }

    /// Feed arriving base-table or rehash-namespace data to the sharing
    /// layer (one predicate-index scan per chunk, however many member
    /// queries it serves) and to every installed opgraph reading
    /// `namespace`.
    fn route_data(
        &mut self,
        ctx: &mut ProgramContext<Self>,
        namespace: &str,
        object: QpObject,
    ) -> Vec<OverlayEffect<QpObject>> {
        let targets: Vec<(u64, usize)> = self
            .queries
            .iter()
            .flat_map(|(qid, q)| {
                q.graphs
                    .iter()
                    .enumerate()
                    .filter(|(_, g)| g.spec.source.namespace() == namespace)
                    .map(move |(i, _)| (*qid, i))
            })
            .collect();
        let shared = self
            .sharing
            .as_ref()
            .is_some_and(|l| l.wants_namespace(namespace));
        if targets.is_empty() && !shared {
            return Vec::new(); // nobody reads the namespace here
        }
        self.ingest_spans(ctx, &targets, &object);
        let batch = match object {
            QpObject::Tuple(tuple) => {
                let mut batch = TupleBatch::default();
                batch.push_tuple(&tuple);
                batch
            }
            QpObject::Batch(batch) => batch,
            QpObject::Plan(_) => return Vec::new(),
        };
        if let Some(layer) = self.sharing.as_mut().filter(|_| shared) {
            let now = ctx.now();
            for chunk in batch.chunks() {
                layer.absorb_chunk(namespace, chunk, now);
            }
        }
        let mut effects = Vec::new();
        for (qid, gidx) in targets {
            effects.extend(self.feed_graph_batch(ctx, qid, gidx, &batch));
        }
        effects
    }

    /// Record one `ingest` span per *sampled* query fed by an arriving data
    /// object (rows = tuples routed, bytes = the tuple's or batch's wire
    /// size, measured only when a span is recorded).  Target qids are
    /// sorted before recording so span ordinals are insertion-order
    /// independent.
    fn ingest_spans(
        &mut self,
        ctx: &mut ProgramContext<Self>,
        targets: &[(u64, usize)],
        object: &QpObject,
    ) {
        if !self.tel.is_enabled() {
            return;
        }
        let mut qids: Vec<u64> = targets
            .iter()
            .map(|(qid, _)| *qid)
            .filter(|qid| self.queries.get(qid).is_some_and(|q| q.plan.trace))
            .collect();
        if qids.is_empty() {
            return;
        }
        qids.sort_unstable();
        qids.dedup();
        let rows = object.tuple_count() as u64;
        let bytes = match object {
            QpObject::Tuple(tuple) => tuple.wire_size(),
            QpObject::Batch(batch) => batch.wire_size(),
            QpObject::Plan(_) => 0,
        } as u64;
        let now = ctx.now();
        for qid in qids {
            let trace_id = trace_id_for(qid);
            let span = self.next_span_id(ctx.me());
            self.tel.record_span(
                now, now, trace_id, span, trace_id, qid, "ingest", rows, bytes, 0,
            );
        }
    }

    // ----- query installation and execution ---------------------------------

    fn install_query(&mut self, ctx: &mut ProgramContext<Self>, plan: QueryPlan) {
        let query_id = plan.query_id;
        if let Some(q) = self.queries.get_mut(&query_id) {
            // Re-dissemination of a standing query: renew the lease.
            if let Some(cq) = q.cq.as_mut() {
                cq.lease.renew(ctx.now());
                self.tel.inc("cq.lease_renewals");
                self.tel
                    .event("lease_renew", || vec![("query_id", query_id.to_string())]);
            }
            return;
        }
        // Multi-query sharing: offer the plan to the layer first.  A plan
        // that normalizes into a share group installs as a *member* — the
        // executor arms its lifecycle timers but builds no dataflow; the
        // group's single tick chain starts with its first member.  The
        // layer alone decides shareability (exclusive and shed plans never
        // share).
        if let Some(layer) = self.sharing.as_mut() {
            if layer.renew(query_id, ctx.now()) {
                return; // re-dissemination of a shared standing query
            }
            if let InstallOutcome::Member {
                group,
                new_group,
                epoch,
                slide,
                lease,
            } = layer.try_install(&plan, ctx.now())
            {
                self.tel.event("share_join", || {
                    vec![
                        ("query_id", query_id.to_string()),
                        ("group", format!("{group:016x}")),
                        ("new_group", new_group.to_string()),
                    ]
                });
                ctx.set_timer(plan.timeout, PierTimer::QueryEnd { query_id });
                ctx.set_timer(lease, PierTimer::CqLease { query_id });
                if new_group {
                    // A re-created group rehydrates warm, exactly as a
                    // re-installed standalone query does.
                    if let Some(engine) = layer.engine_mut(group) {
                        let owner = ("group", format!("{group:016x}"));
                        Self::rehydrate(self.config.durable.as_ref(), &self.tel, engine, owner);
                    }
                    ctx.set_timer(slide, PierTimer::ShareTick { group, epoch });
                }
                return;
            }
        }
        let agg_root_id = routing_id(&plan.partial_namespace(), &plan.agg_root_key());
        let mut cq = plan.windowed_sink().and_then(|(graph_idx, _)| {
            Some(CqState {
                engine: WindowAgg::for_query(&plan)?,
                graph_idx,
                lease: Lease::granted(ctx.now(), plan.cq.unwrap_or_default().lease),
                tel_shed: 0,
                tel_evicted: 0,
            })
        });
        if let Some(cq) = cq.as_mut() {
            let owner = ("query_id", query_id.to_string());
            Self::rehydrate(
                self.config.durable.as_ref(),
                &self.tel,
                &mut cq.engine,
                owner,
            );
        }
        let mut graphs = Vec::new();
        let mut has_agg = false;
        for spec in &plan.opgraphs {
            let mut pipeline =
                Pipeline::new(spec.ops.iter().filter_map(OperatorSpec::build).collect());
            pipeline.set_telemetry(&self.tel);
            let join = spec.join.as_ref().map(|j| {
                SymmetricHashJoin::new(
                    j.left_key.clone(),
                    j.right_key.clone(),
                    j.output_table.clone(),
                )
            });
            let (uplink, root_merge) = match &spec.sink {
                SinkSpec::HierarchicalAgg {
                    group_cols, aggs, ..
                } => {
                    has_agg = true;
                    let table = format!("q{query_id}.agg");
                    (
                        Some(GroupBy::new(
                            group_cols.clone(),
                            aggs.clone(),
                            table.clone(),
                        )),
                        Some(GroupBy::new(group_cols.clone(), aggs.clone(), table)),
                    )
                }
                _ => (None, None),
            };
            graphs.push(GraphState {
                spec: spec.clone(),
                pipeline,
                join,
                uplink,
                root_merge,
            });
        }
        let timeout = plan.timeout;
        let hold = plan
            .opgraphs
            .iter()
            .find_map(|g| match &g.sink {
                SinkSpec::HierarchicalAgg { hold, .. } => Some(*hold),
                _ => None,
            })
            .unwrap_or(2_000_000);
        let has_cq = cq.is_some();
        let cq_slide = cq.as_ref().map_or(0, |c| c.engine.window().slide);
        let cq_lease = cq.as_ref().map_or(0, |c| c.lease.duration);
        self.tel.inc("query.installs");
        self.tel.event("query_install", || {
            vec![
                ("query_id", query_id.to_string()),
                ("graphs", graphs.len().to_string()),
                ("continuous", has_cq.to_string()),
            ]
        });
        if plan.trace && self.tel.is_enabled() {
            let trace_id = trace_id_for(query_id);
            let now = ctx.now();
            let span = self.next_span_id(ctx.me());
            self.tel.record_span(
                now,
                now,
                trace_id,
                span,
                trace_id,
                query_id,
                "query.install",
                graphs.len() as u64,
                0,
                0,
            );
        }
        self.queries.insert(
            query_id,
            QueryState {
                plan,
                graphs,
                agg_root_id,
                cq,
                ingest_seen: 0,
            },
        );
        ctx.set_timer(timeout, PierTimer::QueryEnd { query_id });
        if has_agg {
            ctx.set_timer(hold, PierTimer::AggFlush { query_id });
            ctx.set_timer(
                timeout.saturating_sub(hold),
                PierTimer::AggFinal { query_id },
            );
        }
        if has_cq {
            ctx.set_timer(cq_slide, PierTimer::WindowTick { query_id });
            ctx.set_timer(cq_lease, PierTimer::CqLease { query_id });
        }
        // Feed the opgraphs their initial data: node-local rows plus the
        // DHT-partitioned rows this node is responsible for, each graph's
        // snapshot built as one columnar batch straight from the borrowed
        // rows and stored objects.  Every snapshot is taken *before* any
        // graph runs, so tuples that one opgraph republishes during
        // installation (e.g. a rehash into the query's rendezvous
        // namespace) are not double-counted by another opgraph that reads
        // that namespace — those arrive via `newData`.
        let now = ctx.now();
        let snapshots: Vec<TupleBatch> = self.queries[&query_id]
            .graphs
            .iter()
            .map(|g| {
                let namespace = g.spec.source.namespace();
                let mut batch = TupleBatch::default();
                for row in self.local_tables.get(namespace).into_iter().flatten() {
                    batch.push_tuple(row);
                }
                for object in self.overlay.local_scan(namespace, now) {
                    object.value.extend_batch(&mut batch);
                }
                batch
            })
            .collect();
        for (gidx, batch) in snapshots.iter().enumerate() {
            if !batch.is_empty() {
                let effects = self.feed_graph_batch(ctx, query_id, gidx, batch);
                self.drive(ctx, effects);
            }
        }
    }

    /// Uninstall a query and release query-scoped interned schemas
    /// (`q{id}.agg`, `q{id}.wp`, `q{id}.win`, …) from the process-wide
    /// [`SchemaRegistry`].  The sweep covers *every* no-longer-referenced
    /// query-scoped shape, not just this query's: a schema still pinned by
    /// in-flight tuples when its own query tore down gets collected by a
    /// later teardown's sweep, so the registry stays bounded by the live
    /// working set instead of growing with every query ever installed.
    fn uninstall_query(&mut self, query_id: u64) {
        self.last_combine_span.remove(&query_id);
        if let Some(q) = self.queries.remove(&query_id) {
            self.tel.inc("query.teardowns");
            self.tel.event("query_teardown", || {
                vec![("query_id", query_id.to_string())]
            });
            if let Some(cq) = q.cq.as_ref() {
                self.drop_segments(cq.engine.tag());
            }
            SchemaRegistry::global().sweep_matching(is_query_scoped_table);
            return;
        }
        // Share-group members tear down through the layer: the group's
        // refcount drops, and retiring its last member drops the group's
        // segments and sweeps both its interned shapes (`g{fp:016x}.…`)
        // and any unreferenced query-scoped ones (the member's result
        // schema).
        if let Some(layer) = self.sharing.as_mut() {
            let out = layer.uninstall(query_id);
            if let Some(group) = out.retired_group {
                self.drop_segments(&group_tag(group));
            }
            if out.was_member {
                self.tel.event("share_leave", || {
                    let retired = out
                        .retired_group
                        .map(|g| format!("{g:016x}"))
                        .unwrap_or_default();
                    vec![
                        ("query_id", query_id.to_string()),
                        ("retired_group", retired),
                    ]
                });
                SchemaRegistry::global()
                    .sweep_matching(|t| is_query_scoped_table(t) || is_share_scoped_table(t));
            }
        }
    }

    /// A deliberate teardown means an engine is over everywhere it matters:
    /// its durable segments will never be rehydrated, so drop them rather
    /// than leak "disk".
    fn drop_segments(&self, tag: &str) {
        if let Some(durable) = self.config.durable.as_ref() {
            for key in WindowAgg::segment_keys(tag) {
                durable.remove(&key);
            }
        }
    }

    /// Warm restart: rebuild a freshly built engine's retained panes from
    /// durable segments, so a restarted node serves warm windows from its
    /// first tick instead of recomputing them (a no-op on cold installs or
    /// without a durable store).  `owner` names the query or group in the
    /// `window.rehydrate` event.
    fn rehydrate(
        durable: Option<&DurableStore>,
        tel: &Telemetry,
        engine: &mut WindowAgg,
        owner: (&'static str, String),
    ) {
        let Some(total) = durable.and_then(|d| engine.rehydrate(d)) else {
            return;
        };
        tel.add("cq.rehydrated_windows", total.windows as u64);
        tel.event("window.rehydrate", || {
            vec![
                owner,
                ("windows", total.windows.to_string()),
                ("groups", total.groups.to_string()),
                ("tuples", total.tuples.to_string()),
                ("skipped", total.skipped.to_string()),
                ("torn_tail", total.torn_tail.to_string()),
            ]
        });
    }

    /// Push an arriving batch through one opgraph, chunk-to-chunk: joins
    /// consume whole columnar chunks
    /// ([`SymmetricHashJoin::push_chunk_batch`]), the pipeline hands each
    /// stage a re-chunked survivor batch (`Pipeline::push_batch`), uplink
    /// aggregation absorbs the survivors chunk-wise, and a windowed graph
    /// folds chunks straight into the window store
    /// ([`WindowAgg::absorb_chunk`]).  Rows materialise only at the sink
    /// boundary.
    fn feed_graph_batch(
        &mut self,
        ctx: &mut ProgramContext<Self>,
        query_id: u64,
        graph_idx: usize,
        batch: &TupleBatch,
    ) -> Vec<OverlayEffect<QpObject>> {
        let now = ctx.now();
        let outputs = {
            let Some(q) = self.queries.get_mut(&query_id) else {
                return Vec::new();
            };
            let sampled;
            let batch = if q.plan.sample_every > 1 {
                sampled = sample_rows(&mut q.ingest_seen, q.plan.sample_every, batch);
                if sampled.is_empty() {
                    return Vec::new();
                }
                &sampled
            } else {
                batch
            };
            let cq_direct = q.cq.as_ref().is_some_and(|cq| cq.graph_idx == graph_idx)
                && q.graphs
                    .get(graph_idx)
                    .is_some_and(|g| g.join.is_none() && g.pipeline.is_empty());
            if cq_direct {
                let cq = q.cq.as_mut().expect("checked above");
                for chunk in batch.chunks() {
                    cq.engine.absorb_chunk(chunk, now, None);
                }
                TupleBatch::default()
            } else {
                let Some(g) = q.graphs.get_mut(graph_idx) else {
                    return Vec::new();
                };
                let mut outputs = match (&mut g.join, &g.spec.join) {
                    (Some(join), Some(join_spec)) => {
                        // Two-input join fed from the rehash namespace: each
                        // chunk's table name decides the side it belongs to.
                        // The join emits whole typed chunks (gathered from
                        // both sides' stored buffers), which share one output
                        // schema — so the staged batch flows into the
                        // pipeline's chunk-to-chunk traversal without ever
                        // materialising per-row tuples.
                        let mut staged = TupleBatch::default();
                        for chunk in batch.chunks() {
                            let table = chunk.schema().table();
                            if table == join_spec.left_table {
                                staged.append(join.push_chunk_batch(JoinSide::Left, chunk));
                            } else if table == join_spec.right_table {
                                staged.append(join.push_chunk_batch(JoinSide::Right, chunk));
                            } // unknown table: discard (best effort)
                        }
                        if staged.is_empty() {
                            TupleBatch::default()
                        } else {
                            g.pipeline.push_batch(&staged)
                        }
                    }
                    _ => g.pipeline.push_batch(batch),
                };
                // Hierarchical aggregation absorbs the survivors chunk-wise.
                if let Some(uplink) = g.uplink.as_mut() {
                    uplink.push_batch(&outputs);
                    outputs = TupleBatch::default();
                }
                // A windowed graph folds the survivors into the window store
                // chunk-wise.
                if let Some(cq) = q.cq.as_mut() {
                    if cq.graph_idx == graph_idx {
                        for chunk in outputs.chunks() {
                            cq.engine.absorb_chunk(chunk, now, None);
                        }
                        outputs = TupleBatch::default();
                    }
                }
                outputs
            }
        };
        if outputs.is_empty() {
            return Vec::new();
        }
        self.deliver_sink(ctx, query_id, graph_idx, outputs.into_tuples())
    }

    fn deliver_sink(
        &mut self,
        ctx: &mut ProgramContext<Self>,
        query_id: u64,
        graph_idx: usize,
        mut tuples: Vec<Tuple>,
    ) -> Vec<OverlayEffect<QpObject>> {
        if tuples.is_empty() {
            return Vec::new();
        }
        let (sink, proxy, fetch, lifetime) = {
            let Some(q) = self.queries.get(&query_id) else {
                return Vec::new();
            };
            let Some(g) = q.graphs.get(graph_idx) else {
                return Vec::new();
            };
            // (namespace, probe column, probe column already holds the key
            // string, output table of the join results)
            let fetch = g.spec.ops.iter().find_map(|op| match op {
                OperatorSpec::FetchMatches {
                    inner_namespace,
                    probe_col,
                    output_table,
                } => Some((
                    inner_namespace.clone(),
                    probe_col.clone(),
                    false,
                    output_table.clone(),
                )),
                OperatorSpec::FetchByTupleId {
                    inner_namespace,
                    id_col,
                    output_table,
                } => Some((
                    inner_namespace.clone(),
                    id_col.clone(),
                    true,
                    output_table.clone(),
                )),
                _ => None,
            });
            (
                g.spec.sink.clone(),
                q.plan.proxy,
                fetch,
                self.config.publish_lifetime,
            )
        };
        let mut effects = Vec::new();
        // Fetch Matches: pipeline outputs are probe tuples — issue an
        // asynchronous DHT get per probe and join when results come back.
        // Tuples already carrying the join's output table *are* the joined
        // results returning from a completed fetch; those continue to the
        // opgraph's real sink below.
        if let Some((inner_namespace, probe_col, probe_is_key, fetch_output)) = fetch {
            let now = ctx.now();
            let mut completed = Vec::new();
            for probe in tuples {
                if probe.table() == fetch_output {
                    completed.push(probe);
                    continue;
                }
                let Some(key) = probe.get(&probe_col).map(|v| {
                    if probe_is_key {
                        // The column already carries the inner relation's
                        // partition-key string (a secondary index tupleID).
                        v.as_str().map_or_else(|| v.key_string(), str::to_string)
                    } else {
                        v.key_string()
                    }
                }) else {
                    continue;
                };
                let (request_id, get_effects) = self.overlay.get(&inner_namespace, &key, now);
                self.pending_fetches
                    .insert(request_id, (query_id, graph_idx, probe));
                effects.extend(get_effects);
            }
            if completed.is_empty() {
                return effects;
            }
            tuples = completed;
        }
        match sink {
            SinkSpec::ToProxy => {
                self.send_results(ctx, proxy, query_id, tuples);
            }
            SinkSpec::Rehash {
                namespace,
                key_cols,
            } => {
                let now = ctx.now();
                if self.config.batching {
                    // Coalesce: buffer per (namespace, partition key); one
                    // overlay put per key per flush, triggered by the size
                    // threshold here or by the periodic flush tick.
                    let buf = self.rehash_buf.entry(namespace.clone()).or_default();
                    for t in tuples {
                        let Some(key) = t.partition_key(&key_cols) else {
                            continue;
                        };
                        buf.by_key.entry(key).or_default().push(t);
                        buf.tuples += 1;
                    }
                    if buf.tuples >= self.config.batch_max_tuples {
                        effects.extend(self.flush_rehash(&namespace, now));
                    } else if !self.batch_timer_armed {
                        self.batch_timer_armed = true;
                        ctx.set_timer(self.config.batch_flush_interval, PierTimer::BatchFlush);
                    }
                } else {
                    for t in tuples {
                        let Some(key) = t.partition_key(&key_cols) else {
                            continue;
                        };
                        let name = ObjectName::new(namespace.clone(), key, self.rng.next_u64());
                        effects.extend(self.overlay.put(name, QpObject::Tuple(t), lifetime, now));
                    }
                }
            }
            // Dataflow outputs of aggregating graphs are absorbed in
            // `feed_graph_batch`; reaching here means fetch-join results fed
            // one, and they are absorbed the same way, chunk-wise.
            SinkSpec::HierarchicalAgg { .. } => {
                let uplink = self
                    .queries
                    .get_mut(&query_id)
                    .and_then(|q| q.graphs.get_mut(graph_idx))
                    .and_then(|g| g.uplink.as_mut());
                if let Some(uplink) = uplink {
                    uplink.push_batch(&TupleBatch::new(tuples));
                }
            }
            SinkSpec::WindowedAgg { .. } => {
                let now = ctx.now();
                if let Some(cq) = self.queries.get_mut(&query_id).and_then(|q| q.cq.as_mut()) {
                    for chunk in TupleBatch::new(tuples).chunks() {
                        cq.engine.absorb_chunk(chunk, now, None);
                    }
                }
            }
        }
        effects
    }

    /// Ship one namespace's buffered rehash batches: one `put` per distinct
    /// partition key, each carrying a [`TupleBatch`] (or a bare tuple when
    /// only one accumulated), handed to the overlay's batched put so
    /// same-owner keys share a single transfer when local routing state
    /// identifies the owner.
    fn flush_rehash(&mut self, namespace: &str, now: SimTime) -> Vec<OverlayEffect<QpObject>> {
        let Some(buf) = self.rehash_buf.remove(namespace) else {
            return Vec::new();
        };
        let lifetime = self.config.publish_lifetime;
        let mut entries = Vec::with_capacity(buf.by_key.len());
        // Key order feeds both the rng stream (name suffixes) and the
        // message order, so it must not depend on hash seeding.
        let mut by_key: Vec<(String, Vec<Tuple>)> = buf.by_key.into_iter().collect();
        by_key.sort_by(|a, b| a.0.cmp(&b.0));
        for (key, tuples) in by_key {
            let name = ObjectName::new(namespace.to_string(), key, self.rng.next_u64());
            entries.push((name, QpObject::shipment(tuples), lifetime));
        }
        self.overlay.put_batch(entries, now)
    }

    /// Flush every buffered rehash namespace (the periodic tick).
    fn flush_all_rehash(&mut self, now: SimTime) -> Vec<OverlayEffect<QpObject>> {
        let mut namespaces: Vec<String> = self.rehash_buf.keys().cloned().collect();
        namespaces.sort_unstable();
        let mut effects = Vec::new();
        for ns in namespaces {
            effects.extend(self.flush_rehash(&ns, now));
        }
        effects
    }

    fn send_results(
        &mut self,
        ctx: &mut ProgramContext<Self>,
        proxy: NodeAddr,
        query_id: u64,
        tuples: Vec<Tuple>,
    ) {
        if tuples.is_empty() {
            return;
        }
        if proxy == ctx.me() {
            self.proxy_receive(ctx, query_id, tuples);
        } else {
            ctx.send(proxy, PierMsg::Results { query_id, tuples });
        }
    }

    fn proxy_receive(&mut self, ctx: &mut ProgramContext<Self>, query_id: u64, tuples: Vec<Tuple>) {
        let state = self.proxied.entry(query_id).or_default();
        if state.done {
            return;
        }
        state.results += tuples.len() as u64;
        for tuple in tuples {
            ctx.output(PierOut::Result { query_id, tuple });
        }
    }

    fn agg_flush(&mut self, ctx: &mut ProgramContext<Self>, query_id: u64, final_flush: bool) {
        let Some(q) = self.queries.get(&query_id) else {
            return;
        };
        let agg_root_id = q.agg_root_id;
        let partial_namespace = q.plan.partial_namespace();
        let agg_root_key = q.plan.agg_root_key();
        let proxy = q.plan.proxy;
        let is_root = self.overlay.router().is_responsible(agg_root_id);
        let graph_count = q.graphs.len();
        let lifetime = self.config.publish_lifetime;

        let mut to_send: Vec<Tuple> = Vec::new();
        let mut final_results: Vec<Tuple> = Vec::new();
        {
            let q = self.queries.get_mut(&query_id).expect("query present");
            for g in &mut q.graphs {
                let Some(uplink) = g.uplink.as_mut() else {
                    continue;
                };
                let partials = uplink.flush();
                if is_root {
                    if let Some(root) = g.root_merge.as_mut() {
                        for p in &partials {
                            root.merge_partial(p);
                        }
                    }
                } else {
                    to_send.extend(partials);
                }
                if final_flush && is_root {
                    if let Some(root) = g.root_merge.as_mut() {
                        let merged = root.flush();
                        let final_ops = match &g.spec.sink {
                            SinkSpec::HierarchicalAgg { final_ops, .. } => final_ops.clone(),
                            _ => Vec::new(),
                        };
                        let finisher = Pipeline::new(
                            final_ops.iter().filter_map(OperatorSpec::build).collect(),
                        );
                        final_results.extend(finisher.finish(merged));
                    }
                }
            }
        }
        // Send buffered partials one hop up the aggregation tree (or directly
        // to the root when the plan asked for flat aggregation).
        let flat = {
            let q = self.queries.get(&query_id).expect("query present");
            q.graphs
                .iter()
                .any(|g| matches!(g.spec.sink, SinkSpec::HierarchicalAgg { flat: true, .. }))
        };
        let now = ctx.now();
        let mut effects = Vec::new();
        // All partials of one flush share the aggregation-root destination,
        // so batching collapses them into a single transfer per hop.
        let shipments: Vec<QpObject> = if self.config.batching && to_send.len() > 1 {
            vec![QpObject::Batch(TupleBatch::new(to_send))]
        } else {
            to_send.into_iter().map(QpObject::Tuple).collect()
        };
        for shipment in shipments {
            let name = ObjectName::new(
                partial_namespace.clone(),
                agg_root_key.clone(),
                self.rng.next_u64(),
            );
            if flat {
                effects.extend(self.overlay.put(name, shipment, lifetime, now));
            } else {
                effects.extend(self.overlay.send_routed(
                    agg_root_id,
                    name,
                    shipment,
                    lifetime,
                    now,
                ));
            }
        }
        self.drive(ctx, effects);
        if !final_results.is_empty() {
            self.send_results(ctx, proxy, query_id, final_results);
        }
        // Re-arm the periodic flush while the query is still installed.
        if !final_flush && graph_count > 0 {
            if let Some(q) = self.queries.get(&query_id) {
                let hold = q
                    .plan
                    .opgraphs
                    .iter()
                    .find_map(|g| match &g.sink {
                        SinkSpec::HierarchicalAgg { hold, .. } => Some(*hold),
                        _ => None,
                    })
                    .unwrap_or(2_000_000);
                ctx.set_timer(hold, PierTimer::AggFlush { query_id });
            }
        }
    }

    /// Periodic window maintenance of one engine (fires every slide) — the
    /// one tick path of standing queries and share groups alike: close due
    /// windows, ship the engine's partial stream one hop toward its window
    /// root (upcalls combine en route), forward each member's emission to
    /// its proxy, and persist the surviving state when durable.  Returns the
    /// slide to re-arm by; `None` once the engine is gone (the chain stops).
    fn window_tick(&mut self, ctx: &mut ProgramContext<Self>, id: EngineId) -> Option<Duration> {
        let now = ctx.now();
        let root_id = self.engine(id)?.root_id();
        let is_root = self.overlay.router().is_responsible(root_id);
        let engine = self.engine_mut(id)?;
        let out = engine.tick(now, is_root);
        let (namespace, root_key) = (
            engine.namespace().to_string(),
            engine.root_key().to_string(),
        );

        // 1. Ship partials toward the root.  Every partial of a tick shares
        //    the window-root destination, so batching collapses the
        //    per-group message train into one transfer per tick.
        let shipments: Vec<QpObject> = if self.config.batching && out.partials.len() > 1 {
            vec![QpObject::Batch(TupleBatch::new(out.partials))]
        } else {
            out.partials.into_iter().map(QpObject::Tuple).collect()
        };
        let flush_ctx = if self.tel.is_enabled() && !shipments.is_empty() {
            self.record_flush(ctx, id, &shipments, out.flushed_windows)
        } else {
            None
        };
        let lifetime = self.config.publish_lifetime;
        let mut effects = Vec::new();
        for shipment in shipments {
            let name = ObjectName::new(namespace.clone(), root_key.clone(), self.rng.next_u64());
            self.overlay.set_trace(flush_ctx);
            effects.extend(
                self.overlay
                    .send_routed(root_id, name, shipment, lifetime, now),
            );
        }
        self.drive(ctx, effects);

        // 2. At the root: stream each member's emission to its proxy.
        for e in out.emissions {
            let emit_ctx = self.record_emit(ctx, id, &e);
            if e.proxy == ctx.me() {
                self.proxy_receive_window(
                    ctx,
                    e.query_id,
                    e.window_start,
                    e.window_end,
                    e.retracts,
                    e.inserts,
                    emit_ctx,
                );
            } else {
                ctx.send(
                    e.proxy,
                    PierMsg::WindowResults {
                        query_id: e.query_id,
                        window_start: e.window_start,
                        window_end: e.window_end,
                        retracts: e.retracts,
                        inserts: e.inserts,
                        trace: emit_ctx,
                    },
                );
            }
        }
        if let EngineId::Query(query_id) = id {
            self.window_health(query_id);
        }

        // 3. Persist the surviving window state as durable segments, so a
        //    crash after this tick restarts warm.
        let engine = self.engine(id)?;
        if let Some(durable) = self.config.durable.as_ref() {
            engine.persist(durable);
        }
        Some(engine.window().slide)
    }

    /// Flush instrumentation of a shipping tick.  A query's flush ticks
    /// `cq.window_flushes` / `cq.flush_partials` (the counters the
    /// span-reconciliation tests anchor to) and, when the query is sampled,
    /// records a `window.flush` span.  A share group's ticks
    /// `mqo.share_flushes` / `mqo.share_flush_partials` and, in trace-all
    /// mode only (per-query sampling decisions are meaningless for work N
    /// queries share), records a `share.flush` span charged to the group's
    /// canonical (lowest-id) member.  The returned context rides the wire
    /// on every shipment of the tick.
    fn record_flush(
        &mut self,
        ctx: &mut ProgramContext<Self>,
        id: EngineId,
        shipments: &[QpObject],
        flushed_windows: u64,
    ) -> Option<TraceContext> {
        let partials: u64 = shipments.iter().map(|s| s.tuple_count() as u64).sum();
        let (stage, query_id, aux) = match id {
            EngineId::Query(query_id) => {
                self.tel.inc("cq.window_flushes");
                self.tel.add("cq.flush_partials", partials);
                self.traced(query_id)?;
                // `aux` = distinct windows bundled, so the per-*window*
                // static bound reconciles against a per-*tick* measurement.
                ("window.flush", query_id, flushed_windows)
            }
            EngineId::Group(_) => {
                self.tel.inc("mqo.share_flushes");
                self.tel.add("mqo.share_flush_partials", partials);
                if self.config.trace.sample_every != 1 {
                    return None;
                }
                let members = self.engine(id)?.member_ids();
                ("share.flush", *members.first()?, members.len() as u64)
            }
        };
        let bytes: u64 = shipments.iter().map(|s| s.wire_size() as u64).sum();
        let now = ctx.now();
        let trace_id = trace_id_for(query_id);
        let span = self.next_span_id(ctx.me());
        self.tel.record_span(
            now, now, trace_id, span, trace_id, query_id, stage, partials, bytes, aux,
        );
        Some(TraceContext {
            trace_id,
            span_id: span,
            query_id,
        })
    }

    /// The `window.emit` span of one member emission, whose context travels
    /// to the proxy on the results message.  A sampled query's span parents
    /// to the newest absorption at this root; in trace-all mode every share
    /// member gets a top-level span in its *own* trace, so shared execution
    /// still yields per-query profiles.
    fn record_emit(
        &mut self,
        ctx: &mut ProgramContext<Self>,
        id: EngineId,
        e: &Emission,
    ) -> Option<TraceContext> {
        let (trace_id, parent) = match id {
            EngineId::Query(query_id) => {
                let trace_id = self.traced(query_id)?;
                let parent = self.last_combine_span.get(&query_id).copied();
                (trace_id, parent.unwrap_or(trace_id))
            }
            EngineId::Group(_) => {
                if !self.tel.is_enabled() || self.config.trace.sample_every != 1 {
                    return None;
                }
                let trace_id = trace_id_for(e.query_id);
                (trace_id, trace_id)
            }
        };
        let now = ctx.now();
        let span = self.next_span_id(ctx.me());
        self.tel.record_span(
            now,
            now,
            trace_id,
            span,
            parent,
            e.query_id,
            "window.emit",
            (e.retracts.len() + e.inserts.len()) as u64,
            0,
            e.window_start,
        );
        Some(TraceContext {
            trace_id,
            span_id: span,
            query_id: e.query_id,
        })
    }

    /// Window health into telemetry after a query's tick: absolute
    /// occupancy/shed gauges summed over every installed continuous query,
    /// plus shed/evict *deltas* of this query as trace events.
    fn window_health(&mut self, query_id: u64) {
        if !self.tel.is_enabled() {
            return;
        }
        if let Some(cq) = self.queries.get_mut(&query_id).and_then(|q| q.cq.as_mut()) {
            let (local, root) = cq.engine.stats();
            let shed = local.shed_tuples + local.shed_groups + root.shed_tuples + root.shed_groups;
            let evicted = local.evicted_windows + root.evicted_windows;
            if shed > cq.tel_shed {
                let delta = shed - cq.tel_shed;
                cq.tel_shed = shed;
                self.tel.event("window_shed", || {
                    vec![
                        ("query_id", query_id.to_string()),
                        ("shed", delta.to_string()),
                    ]
                });
            }
            if evicted > cq.tel_evicted {
                let delta = evicted - cq.tel_evicted;
                cq.tel_evicted = evicted;
                self.tel.event("window_evict", || {
                    vec![
                        ("query_id", query_id.to_string()),
                        ("evicted", delta.to_string()),
                    ]
                });
            }
        }
        let mut accepted = 0u64;
        let mut shed = 0u64;
        let mut evicted = 0u64;
        let mut open = 0u64;
        let mut groups = 0u64;
        let mut state_bytes = 0u64;
        for q in self.queries.values() {
            let Some(cq) = q.cq.as_ref() else { continue };
            let (local, root) = cq.engine.stats();
            for stats in [local, root] {
                accepted += stats.accepted;
                shed += stats.shed_tuples + stats.shed_groups;
                evicted += stats.evicted_windows;
            }
            open += cq.engine.open_windows() as u64;
            groups += cq.engine.total_groups() as u64;
            state_bytes += cq.engine.state_bytes() as u64;
        }
        self.tel.gauge("cq.accepted", accepted as f64);
        self.tel.gauge("cq.shed", shed as f64);
        self.tel.gauge("cq.evicted_windows", evicted as f64);
        self.tel.gauge("cq.open_windows", open as f64);
        self.tel.gauge("cq.state_groups", groups as f64);
        self.tel.gauge("cq.state_bytes", state_bytes as f64);
    }

    #[allow(clippy::too_many_arguments)]
    fn proxy_receive_window(
        &mut self,
        ctx: &mut ProgramContext<Self>,
        query_id: u64,
        window_start: SimTime,
        window_end: SimTime,
        retracts: Vec<Tuple>,
        inserts: Vec<Tuple>,
        trace: Option<TraceContext>,
    ) {
        if self.proxied.get(&query_id).is_some_and(|s| s.done) {
            return;
        }
        // The delivery at the proxy closes the span tree: `result.emit`
        // parents to the root's wire-carried `window.emit` span.
        if let Some(t) = trace {
            if self.tel.is_enabled() {
                let now = ctx.now();
                let span = self.next_span_id(ctx.me());
                self.tel.record_span(
                    now,
                    now,
                    t.trace_id,
                    span,
                    t.span_id,
                    t.query_id,
                    "result.emit",
                    inserts.len() as u64,
                    0,
                    window_start,
                );
            }
        }
        let state = self.proxied.entry(query_id).or_default();
        state.results += inserts.len() as u64;
        for tuple in retracts {
            ctx.output(PierOut::WindowResult {
                query_id,
                window_start,
                window_end,
                retract: true,
                tuple,
            });
        }
        for tuple in inserts {
            ctx.output(PierOut::WindowResult {
                query_id,
                window_start,
                window_end,
                retract: false,
                tuple,
            });
        }
    }

    /// Materialise the telemetry hub as one `system.metrics` tuple and
    /// publish it into the DHT — the self-monitoring dogfood loop.  The
    /// tuple travels to its DHT owner like any other published row and is
    /// absorbed there **exactly once** (via `newData`), so standing queries
    /// over `system.metrics` — installed everywhere by broadcast
    /// dissemination — observe every node's metrics without double
    /// counting.  `system.metrics` matches neither the query-scoped nor the
    /// share-scoped namespace forms, so teardown sweeps never evict it.
    fn publish_metrics(&mut self, ctx: &mut ProgramContext<Self>) {
        let Some(interval) = self.config.telemetry.publish_interval else {
            return;
        };
        if !self.tel.is_enabled() {
            return;
        }
        let now = ctx.now();
        let node_label = format!("n{}", ctx.me().0);
        let p50 = self
            .tel
            .percentile("dht.lookup_latency_us", 50.0)
            .unwrap_or(0.0);
        let p99 = self
            .tel
            .percentile("dht.lookup_latency_us", 99.0)
            .unwrap_or(0.0);
        // Ring-drop visibility: events or spans evicted from the bounded
        // rings surface as a gauge *and* as a `system.metrics` column, so
        // both local summaries and standing queries can flag incomplete
        // traces (a dropped span invalidates profile reconciliation).
        let dropped = self
            .tel
            .with(|h| h.trace_dropped() + h.spans_dropped())
            .unwrap_or(0);
        self.tel.gauge("telemetry.trace_dropped", dropped as f64);
        let schema = SchemaRegistry::global().intern(
            "system.metrics",
            &[
                "node",
                "ts",
                "msgs_recv",
                "bytes_recv",
                "lookups",
                "lookup_p50_us",
                "lookup_p99_us",
                "owner_cache_hits",
                "owner_cache_misses",
                "trace_dropped",
            ],
        );
        let count = |name: &str| Value::Int(self.tel.counter(name) as i64);
        let tuple = Tuple::from_schema(
            schema,
            vec![
                Value::str(&node_label),
                Value::Int(now as i64),
                count("net.msgs_recv"),
                count("net.bytes_recv"),
                count("dht.lookups"),
                Value::Float(p50),
                Value::Float(p99),
                count("dht.owner_cache.hits"),
                count("dht.owner_cache.misses"),
                Value::Int(dropped as i64),
            ],
        );
        self.tel.inc("telemetry.publishes");
        self.publish_keyed(ctx, "system.metrics", node_label.clone(), tuple);
        self.publish_spans(ctx, &node_label);
        ctx.set_timer(interval, PierTimer::MetricsPublish);
    }

    /// Materialise spans recorded since the last publish round as
    /// `system.spans` tuples — the tracing half of the dogfood loop, armed
    /// by [`TraceConfig::publish`].  Bounded per round (the ring itself is
    /// bounded, and a cursor watermark prevents re-publishing), and keyed
    /// by node so a node's spans land on one DHT owner in recording order.
    /// `system.spans` matches neither the query- nor share-scoped
    /// namespace forms, so teardown sweeps never evict it.
    fn publish_spans(&mut self, ctx: &mut ProgramContext<Self>, node_label: &str) {
        if !self.config.trace.publish {
            return;
        }
        const MAX_SPANS_PER_ROUND: usize = 64;
        let cursor = self.span_publish_cursor;
        let fresh: Vec<SpanRecord> = self
            .tel
            .with(|h| {
                h.spans()
                    .filter(|s| s.ordinal >= cursor)
                    .take(MAX_SPANS_PER_ROUND)
                    .copied()
                    .collect()
            })
            .unwrap_or_default();
        let Some(last) = fresh.last() else {
            return;
        };
        self.span_publish_cursor = last.ordinal + 1;
        let schema = SchemaRegistry::global().intern(
            "system.spans",
            &[
                "node", "start", "end", "ordinal", "trace", "span", "parent", "query", "stage",
                "rows", "bytes", "aux",
            ],
        );
        for s in fresh {
            let tuple = Tuple::from_schema(
                Arc::clone(&schema),
                vec![
                    Value::str(node_label),
                    Value::Int(s.start as i64),
                    Value::Int(s.end as i64),
                    Value::Int(s.ordinal as i64),
                    Value::Int(s.trace_id as i64),
                    Value::Int(s.span_id as i64),
                    Value::Int(s.parent as i64),
                    Value::Int(s.query_id as i64),
                    Value::str(s.stage),
                    Value::Int(s.rows as i64),
                    Value::Int(s.bytes as i64),
                    Value::Int(s.aux as i64),
                ],
            );
            self.tel.inc("telemetry.span_publishes");
            self.publish_keyed(ctx, "system.spans", node_label.to_string(), tuple);
        }
    }

    /// Diagnostics of a continuous query installed here, standalone or as
    /// a share-group member (`None` when the query is not installed here or
    /// is not continuous).
    pub fn cq_diagnostics(&self, query_id: u64) -> Option<CqDiagnostics> {
        match self.queries.get(&query_id) {
            Some(q) => {
                q.cq.as_ref()
                    .map(|cq| cq.engine.diagnostics(query_id, &cq.lease))
            }
            None => self.sharing.as_ref()?.diagnostics(query_id),
        }
    }
}

impl Program for PierNode {
    type Msg = PierMsg;
    type Timer = PierTimer;
    type Out = PierOut;

    fn on_start(&mut self, ctx: &mut ProgramContext<Self>) {
        let now: SimTime = ctx.now();
        self.tel.set_now(now);
        let effects = self.overlay.start(self.bootstrap, now);
        self.drive(ctx, effects);
        if self.tel.is_enabled() {
            if let Some(interval) = self.config.telemetry.publish_interval {
                ctx.set_timer(interval, PierTimer::MetricsPublish);
            }
        }
    }

    fn on_message(&mut self, ctx: &mut ProgramContext<Self>, from: NodeAddr, msg: Self::Msg) {
        if self.tel.is_enabled() {
            self.tel.set_now(ctx.now());
            self.tel.inc("net.msgs_recv");
            self.tel.add("net.bytes_recv", msg.wire_size() as u64);
        }
        match msg {
            PierMsg::Dht(m) => {
                let now = ctx.now();
                let effects = self.overlay.on_message(from, m, now);
                self.drive(ctx, effects);
            }
            PierMsg::Results { query_id, tuples } => {
                self.proxy_receive(ctx, query_id, tuples);
            }
            PierMsg::WindowResults {
                query_id,
                window_start,
                window_end,
                retracts,
                inserts,
                trace,
            } => {
                self.proxy_receive_window(
                    ctx,
                    query_id,
                    window_start,
                    window_end,
                    retracts,
                    inserts,
                    trace,
                );
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut ProgramContext<Self>, timer: Self::Timer) {
        self.tel.set_now(ctx.now());
        match timer {
            PierTimer::Overlay(t) => {
                let now = ctx.now();
                let effects = self.overlay.on_timer(t, now);
                self.drive(ctx, effects);
            }
            PierTimer::AggFlush { query_id } => self.agg_flush(ctx, query_id, false),
            PierTimer::AggFinal { query_id } => self.agg_flush(ctx, query_id, true),
            PierTimer::QueryEnd { query_id } => {
                self.uninstall_query(query_id);
            }
            PierTimer::ProxyDone { query_id } => {
                if let Some(state) = self.proxied.get_mut(&query_id) {
                    if !state.done {
                        state.done = true;
                        state.renew_plan = None;
                        // The query's budget charge returns to its tenant.
                        if let Some(layer) = self.admission.as_mut() {
                            layer.release(query_id);
                        }
                        ctx.output(PierOut::Done { query_id });
                    }
                }
            }
            PierTimer::WindowTick { query_id } => {
                if let Some(slide) = self.window_tick(ctx, EngineId::Query(query_id)) {
                    ctx.set_timer(slide, PierTimer::WindowTick { query_id });
                }
            }
            PierTimer::ShareTick { group, epoch } => {
                // A chain armed for a retired incarnation stops: the live
                // one drives its own chain.
                if self.sharing.as_ref().and_then(|l| l.group_epoch(group)) != Some(epoch) {
                    return;
                }
                if let Some(slide) = self.window_tick(ctx, EngineId::Group(group)) {
                    ctx.set_timer(slide, PierTimer::ShareTick { group, epoch });
                }
            }
            PierTimer::MetricsPublish => self.publish_metrics(ctx),
            PierTimer::BatchFlush => {
                let now = ctx.now();
                self.batch_timer_armed = false;
                let effects = self.flush_all_rehash(now);
                self.drive(ctx, effects);
            }
            PierTimer::CqRenew { query_id } => {
                // Proxy-side: re-disseminate the standing plan so leases
                // extend everywhere and churned-in nodes pick the query up.
                // The next round is scheduled by jittered exponential
                // backoff rather than a fixed interval: rounds that are not
                // producing results (the stream stalled — partitioned away,
                // or the holders are down) spread out exponentially instead
                // of hammering a dead path in lockstep with every other
                // proxy, and the first successful round snaps back to the
                // base interval.  Jitter desynchronises proxies after a
                // partition heals.
                let plan = match self.proxied.get(&query_id) {
                    Some(state) if !state.done => state.renew_plan.clone(),
                    _ => None,
                };
                if let Some(plan) = plan {
                    let renew_every = plan.cq.map_or(10_000_000, |c| c.renew_every).max(1);
                    let lease = plan.cq.map_or(renew_every * 3, |c| c.lease);
                    self.disseminate(ctx, plan);
                    let mut delay = renew_every;
                    if let Some(state) = self.proxied.get_mut(&query_id) {
                        // Cap below the lease so a healthy-but-quiet query
                        // still renews in time; holders additionally park
                        // (rather than sweep) lapsed leases when durable.
                        let cap = lease.saturating_sub(renew_every / 2).max(renew_every);
                        let backoff = state
                            .backoff
                            .get_or_insert_with(|| RenewalBackoff::new(renew_every, cap));
                        if state.results > state.renew_results || state.results == 0 {
                            // Progress — or a stream that has not started
                            // yet, which is not evidence of failure.
                            backoff.reset();
                        } else {
                            backoff.escalate();
                        }
                        state.renew_results = state.results;
                        let attempt = backoff.attempt();
                        delay = backoff.next_delay(&mut self.rng);
                        if attempt > 0 {
                            self.tel.event("lease.backoff", || {
                                vec![
                                    ("query_id", query_id.to_string()),
                                    ("attempt", attempt.to_string()),
                                    ("delay", delay.to_string()),
                                ]
                            });
                        }
                    }
                    ctx.set_timer(delay.max(1), PierTimer::CqRenew { query_id });
                }
            }
            PierTimer::CqLease { query_id } => {
                let now = ctx.now();
                let (lease, shared) = match self.queries.get(&query_id) {
                    Some(q) => match q.cq.as_ref() {
                        Some(cq) => (cq.lease, false),
                        None => return,
                    },
                    // Share-group members keep their lease in the layer.
                    None => match self
                        .sharing
                        .as_ref()
                        .and_then(|l| l.lease_expires_at(query_id))
                    {
                        Some(expires_at) => (Lease::granted(expires_at, 0), true),
                        None => return,
                    },
                };
                // With durable segments the owner may be a *restarted* node
                // whose renewals resume once it rejoins: a lapsed lease
                // parks in a grace window (one lease duration) before the
                // query is swept; shared members and soft-only nodes keep
                // the original hard expiry.
                let grace = if !shared && self.config.durable.is_some() {
                    lease.duration
                } else {
                    0
                };
                match lease.status(now, grace) {
                    LeaseStatus::Gone => {
                        // The owner stopped renewing (or we are partitioned
                        // away): the soft state lapses.
                        self.uninstall_query(query_id);
                    }
                    LeaseStatus::Active => {
                        ctx.set_timer(
                            lease.expires_at.saturating_sub(now).max(1),
                            PierTimer::CqLease { query_id },
                        );
                    }
                    LeaseStatus::Rehydrating => {
                        // Parked: hold the state through the grace window
                        // and re-check at its end (a renewal arriving in
                        // between pushes `expires_at` forward again).
                        ctx.set_timer(
                            lease
                                .expires_at
                                .saturating_add(grace)
                                .saturating_sub(now)
                                .max(1),
                            PierTimer::CqLease { query_id },
                        );
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn sample_rows_keeps_exactly_the_counter_rule_rows() {
        let rows = netmon_rows(200);
        let every = 4u32;
        // seen = i + 1, so the rule `(seen - 1) % every == 0` keeps i % every == 0.
        let expected: Vec<Tuple> = rows.iter().step_by(every as usize).cloned().collect();
        // Row by row, one single-row batch per arrival.
        let mut seen = 0;
        let mut kept = Vec::new();
        for t in &rows {
            kept.extend(
                sample_rows(&mut seen, every, &TupleBatch::new(vec![t.clone()])).into_tuples(),
            );
        }
        assert_eq!(kept, expected);
        assert_eq!(seen, rows.len() as u64);
        // One batch made of chunks of 1, 7 or 64 rows.
        for size in [1, 7, 64] {
            let batch = TupleBatch::from_chunks(
                rows.chunks(size)
                    .map(|part| TupleBatch::new(part.to_vec()).chunks()[0].clone())
                    .collect(),
            );
            assert_eq!(batch.chunks().len(), rows.len().div_ceil(size));
            let mut seen = 0;
            assert_eq!(
                sample_rows(&mut seen, every, &batch).into_tuples(),
                expected,
                "chunks of {size}"
            );
            assert_eq!(seen, rows.len() as u64);
        }
        // Query-scoped tables are derived data: they pass untouched and do
        // not advance the counter, even interleaved with source rows.
        let derived: Vec<Tuple> = (0..10)
            .map(|i| Tuple::new("q7.agg", vec![("x", Value::Int(i))]))
            .collect();
        let mut mixed = derived.clone();
        mixed.extend(rows[..8].iter().cloned());
        mixed.extend(derived.iter().cloned());
        let mut seen = 0;
        let out = sample_rows(&mut seen, every, &TupleBatch::new(mixed)).into_tuples();
        let mut want = derived.clone();
        want.extend([rows[0].clone(), rows[4].clone()]);
        want.extend(derived);
        assert_eq!(out, want);
        assert_eq!(seen, 8);
    }
}
