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
use crate::aggregate::{AggFunc, AggState, PartialDecoder};
use crate::operators::{GroupBy, JoinSide, LocalOperator, Pipeline, SymmetricHashJoin};
use crate::plan::{CqSpec, Dissemination, OpGraph, OperatorSpec, QpObject, QueryPlan, SinkSpec};
use crate::sharing::{
    is_share_scoped_table, InstallOutcome, MultiQuerySharing, SharingFactory, SharingStats,
};
use crate::tuple::{
    ColumnChunk, ColumnRef, ColumnResolver, Schema, SchemaRegistry, Tuple, TupleBatch,
};
use crate::value::Value;
use pier_cq::{
    Delta, DeltaTracker, DurableStore, Lease, LeaseStatus, RehydrateReport, RenewalBackoff,
    SegmentCodec, SegmentLog, WindowAccumulator, WindowId, WindowSpec, WindowStats, WindowStore,
};
use pier_dht::{
    routing_id, DhtMessage, Id, NodeRef, ObjectName, Overlay, OverlayConfig, OverlayEffect,
    OverlayEvent, OverlayTimer,
};
use pier_runtime::{Duration, NodeAddr, Program, ProgramContext, Rng64, SimTime, WireSize};
use pier_telemetry::{SpanRecord, Telemetry, TelemetryConfig};
use pier_trace::{trace_id_for, TraceConfig, TraceContext};
use std::collections::{BTreeSet, HashMap};
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
    /// node's continuous-query window state into this [`DurableStore`]
    /// (keys `q{id}.local` / `q{id}.root`), and a node restarted with the
    /// *same* store handle rehydrates warm windows when the query's next
    /// re-dissemination re-installs it, instead of recomputing retained
    /// panes from scratch.  `None` (the default) keeps all state soft.
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
    /// queries it serves (the shared counterpart of
    /// [`PierTimer::WindowTick`]).
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

/// One group's mergeable window accumulator: the grouping values plus one
/// partial [`AggState`] per aggregate — the window engine of `pier-cq`
/// parameterised with `pier-core`'s aggregate machinery.
#[derive(Debug, Clone)]
struct GroupAgg {
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

impl<'a> SegReader<'a> {
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

/// Runtime state of one continuous (windowed) query at one node.
#[derive(Debug)]
struct CqState {
    spec: CqSpec,
    window: WindowSpec,
    group_cols: Vec<String>,
    aggs: Vec<AggFunc>,
    final_ops: Vec<OperatorSpec>,
    /// Group columns resolved to schema indices once per input schema.
    group_resolver: ColumnResolver,
    /// Per-aggregate input column (`None` for `COUNT(*)`), resolved once
    /// per input schema.
    agg_inputs: Vec<Option<ColumnRef>>,
    /// Event-time column, resolved once per input schema.
    time_ref: Option<ColumnRef>,
    /// Window-scoped dedup columns (a missing column keys as "∅").
    dedup_refs: Vec<ColumnRef>,
    /// Interned shape of the closed-window partials shipped to the root.
    partial_schema: Arc<Schema>,
    /// Compiled positional decode of arriving partials, cached per schema
    /// (single entry, pointer-keyed — see [`PartialDecodeCache`]).
    partial_decode: Option<PartialDecodeCache>,
    /// Interned shape of the per-window result rows emitted at the root.
    result_schema: Arc<Schema>,
    /// Index of the opgraph feeding the windows.
    graph_idx: usize,
    /// Node-local window accumulation over this node's share of the stream.
    store: WindowStore<GroupAgg>,
    /// Partials absorbed while travelling toward (or arriving at) the
    /// query's window root; closes one slide after `store` so relayed
    /// partials have time to arrive.
    root_store: WindowStore<GroupAgg>,
    /// Root-side emission tracker implementing snapshot/delta output.
    tracker: DeltaTracker<Tuple>,
    /// Soft-state lease granted by (re)dissemination.
    lease: Lease,
    /// Windows this node emitted to the proxy as root.
    windows_emitted: u64,
    /// Shed tuples+groups already reported to telemetry (delta baseline for
    /// the `window_shed` trace event).
    tel_shed: u64,
    /// Evicted windows already reported to telemetry (delta baseline for
    /// the `window_evict` trace event).
    tel_evicted: u64,
    /// Windows restored from durable segments when this installation
    /// rehydrated (0 for a cold install) — the warm-restart diagnostic.
    rehydrated_windows: u64,
}

impl CqState {
    /// Per-window result rows are retired from the delta tracker once they
    /// are this many windows old (late refinements beyond that are dropped).
    fn retention_windows(&self) -> u64 {
        self.window.windows_per_event() + 4
    }
}

/// What an arriving object carries, decided from its namespace alone
/// ([`PierNode::classify`]).
#[derive(Debug, Clone, Copy)]
enum Arrival {
    /// Closed-window partials of an installed continuous query.
    WindowPartial(u64),
    /// Closed-window partials of a share group.
    SharePartial(u64),
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
                        kind @ (Arrival::WindowPartial(_) | Arrival::SharePartial(_)) => {
                            let mut absorbed = false;
                            let mut refused: Vec<Tuple> = Vec::new();
                            for partial in object.value.iter_tuples() {
                                if self.absorb_window_partial(kind, namespace, &partial) {
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
                                    effects.extend(
                                        self.reship_window_partials(kind, namespace, refused, now),
                                    );
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

    /// Re-route window partials this node could not absorb at an upcall hop
    /// toward the root of the store `kind` names — a query's or a share
    /// group's — on the namespace they arrived on.
    fn reship_window_partials(
        &mut self,
        kind: Arrival,
        namespace: &str,
        partials: Vec<Tuple>,
        now: SimTime,
    ) -> Vec<OverlayEffect<QpObject>> {
        let route = match kind {
            Arrival::WindowPartial(query_id) => self.queries.get(&query_id).map(|q| {
                let lease = q.cq.as_ref().map_or(0, |cq| cq.spec.lease);
                (
                    q.plan.agg_root_key(),
                    lease.max(self.config.publish_lifetime),
                )
            }),
            Arrival::SharePartial(group) => self
                .sharing
                .as_ref()
                .and_then(|l| l.group_route(group))
                .map(|r| (r.root_key, self.config.publish_lifetime)),
            Arrival::AggPartial(_) | Arrival::Data => None,
        };
        let Some((root_key, lifetime)) = route else {
            return Vec::new();
        };
        let root_id = routing_id(namespace, &root_key);
        let name = ObjectName::new(namespace, root_key, self.rng.next_u64());
        self.overlay
            .send_routed(root_id, name, QpObject::shipment(partials), lifetime, now)
    }

    /// Fold one closed-window partial into the relay/root store `kind`
    /// names: a query's root store or a share group's shared store.  False
    /// when the store refused it (budget, evicted window, malformed).
    fn absorb_window_partial(&mut self, kind: Arrival, namespace: &str, partial: &Tuple) -> bool {
        match kind {
            Arrival::WindowPartial(query_id) => {
                let Some(cq) = self.queries.get_mut(&query_id).and_then(|q| q.cq.as_mut()) else {
                    return false;
                };
                let Some((wid, key, acc)) = cq.decode_partial(partial) else {
                    return false;
                };
                cq.root_store.accept_refinement(wid, &key, acc)
            }
            Arrival::SharePartial(_) => self
                .sharing
                .as_mut()
                .is_some_and(|l| l.absorb_window_partial(namespace, partial)),
            Arrival::AggPartial(_) | Arrival::Data => false,
        }
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
                return Arrival::WindowPartial(id);
            }
        }
        if let Some(group) = self
            .sharing
            .as_ref()
            .and_then(|l| l.window_group(namespace))
        {
            return Arrival::SharePartial(group);
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
            kind @ (Arrival::WindowPartial(_) | Arrival::SharePartial(_)) => {
                for partial in object.iter_tuples() {
                    self.absorb_window_partial(kind, namespace, &partial);
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
                    ctx.set_timer(slide, PierTimer::ShareTick { group, epoch });
                }
                return;
            }
        }
        let agg_root_id = routing_id(&plan.partial_namespace(), &plan.agg_root_key());
        let mut cq = Self::build_cq_state(&plan, ctx.now());
        if let Some(cq) = cq.as_mut() {
            // Warm restart: rehydrate retained panes from durable segments
            // (a no-op on cold installs or without a durable store).
            self.rehydrate_cq(query_id, cq);
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
        let cq_slide = cq.as_ref().map_or(0, |c| c.window.slide);
        let cq_lease = cq.as_ref().map_or(0, |c| c.spec.lease);
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
            // A deliberate teardown means the query is over everywhere it
            // matters: its durable segments will never be rehydrated, so
            // drop them rather than leak "disk".
            if q.cq.is_some() {
                if let Some(durable) = self.config.durable.as_ref() {
                    let (local_key, root_key) = Self::segment_keys(query_id);
                    durable.remove(&local_key);
                    durable.remove(&root_key);
                }
            }
            SchemaRegistry::global().sweep_matching(is_query_scoped_table);
            return;
        }
        // Share-group members tear down through the layer: the group's
        // refcount drops, and retiring its last member sweeps both the
        // group's interned shapes (`g{fp:016x}.…`) and any unreferenced
        // query-scoped ones (the member's result schema).
        if let Some(layer) = self.sharing.as_mut() {
            let out = layer.uninstall(query_id);
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

    /// Push an arriving batch through one opgraph, chunk-to-chunk: joins
    /// consume whole columnar chunks
    /// ([`SymmetricHashJoin::push_chunk_batch`]), the pipeline hands each
    /// stage a re-chunked survivor batch (`Pipeline::push_batch`), uplink
    /// aggregation absorbs the survivors chunk-wise, and a windowed graph
    /// folds chunks straight into the window store
    /// ([`PierNode::cq_absorb_chunk`]).  Rows materialise only at the sink
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
                    Self::cq_absorb_chunk(cq, chunk, now);
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
                            Self::cq_absorb_chunk(cq, chunk, now);
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
                        Self::cq_absorb_chunk(cq, chunk, now);
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
}

/// The positional layout of a closed-window partial within one interned
/// schema: `_w`, the group columns, and one [`PartialDecoder`] per
/// aggregate.  Compiled once per schema (normally just the query's interned
/// `q{id}.wp` shape) and reused for every relayed partial.
#[derive(Debug)]
struct CompiledPartialLayout {
    w: usize,
    groups: Vec<usize>,
    aggs: Vec<PartialDecoder>,
}

/// Single-entry per-schema cache for [`CompiledPartialLayout`], keyed by
/// schema pointer identity (sound because schemas are interned).  `compiled`
/// is `None` when the schema is malformed for this query — every partial of
/// that shape is then discarded without re-resolving names.
#[derive(Debug)]
struct PartialDecodeCache {
    schema: Arc<Schema>,
    compiled: Option<CompiledPartialLayout>,
}

impl CqState {
    /// Decode a closed-window partial tuple into its window id, group key
    /// and mergeable accumulator.  `None` for malformed tuples (best-effort
    /// policy, as everywhere).  The `_w`/group/aggregate columns resolve to
    /// positional indices **once per schema** — mirroring what
    /// `cq_absorb_chunk` does for data chunks — so the per-partial work on
    /// the relay path is index access only.
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
                    .group_cols
                    .iter()
                    .map(|c| schema.position(c))
                    .collect::<Option<_>>()?;
                let aggs: Vec<PartialDecoder> = self
                    .aggs
                    .iter()
                    .map(|a| PartialDecoder::compile(a, schema))
                    .collect::<Option<_>>()?;
                Some(CompiledPartialLayout { w, groups, aggs })
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
        let wid = values[layout.w].as_i64()?;
        let vals: Vec<Value> = layout.groups.iter().map(|&i| values[i].clone()).collect();
        let key = tuple.key_at(&layout.groups);
        let states: Option<Vec<AggState>> = layout
            .aggs
            .iter()
            .zip(&self.aggs)
            .map(|(decoder, agg)| decoder.decode(agg, values))
            .collect();
        Some((
            wid.max(0) as u64,
            key,
            GroupAgg {
                vals,
                states: states?,
            },
        ))
    }
}

/// Diagnostics of a continuous query installed at a node (tests and the
/// bench harness assert bounded state through this).
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
    /// Windows the root-side delta tracker currently remembers.
    pub tracked_emissions: usize,
    /// Per-window emissions this node sent to the proxy as root.
    pub windows_emitted: u64,
    /// Lease renewals observed since installation.
    pub lease_renewals: u32,
    /// Windows rehydrated from durable segments at installation (0 on a
    /// cold install): nonzero means this node restarted warm.
    pub rehydrated_windows: u64,
}

impl PierNode {
    fn build_cq_state(plan: &QueryPlan, now: SimTime) -> Option<CqState> {
        let (graph_idx, sink) = plan.windowed_sink()?;
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
        let spec = plan.cq.unwrap_or_default();
        // Both shipped shapes are fixed by the sink spec, so their schemas
        // intern once at installation rather than once per emitted tuple.
        let partial_schema = {
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
            SchemaRegistry::global().intern_owned(format!("q{}.wp", plan.query_id), columns)
        };
        let result_schema = {
            let mut columns = vec!["window_start".to_string(), "window_end".to_string()];
            columns.extend(group_cols.iter().cloned());
            columns.extend(aggs.iter().map(AggFunc::output_column));
            SchemaRegistry::global().intern_owned(format!("q{}.win", plan.query_id), columns)
        };
        Some(CqState {
            spec,
            window: *window,
            group_cols: group_cols.clone(),
            aggs: aggs.clone(),
            final_ops: final_ops.clone(),
            group_resolver: ColumnResolver::new(group_cols.clone()),
            agg_inputs: aggs
                .iter()
                .map(|a| a.input_column().map(ColumnRef::new))
                .collect(),
            time_ref: time_col.clone().map(ColumnRef::new),
            dedup_refs: dedup_cols.iter().cloned().map(ColumnRef::new).collect(),
            partial_schema,
            partial_decode: None,
            result_schema,
            graph_idx,
            store: WindowStore::new(*window, spec.budget),
            // The root store closes one slide later so partials relayed
            // from other nodes have time to arrive and combine.
            root_store: WindowStore::new(
                window.with_grace(window.grace + window.slide),
                spec.budget,
            ),
            tracker: DeltaTracker::new(*delta),
            lease: Lease::granted(now, spec.lease),
            windows_emitted: 0,
            tel_shed: 0,
            tel_evicted: 0,
            rehydrated_windows: 0,
        })
    }

    /// A per-store segment log larger than this is compacted (rewritten as
    /// one fresh snapshot) on the next persist.
    const SEGMENT_COMPACT_BYTES: usize = 1 << 20;

    /// Durable-store keys of one query's two window stores.
    fn segment_keys(query_id: u64) -> (String, String) {
        (format!("q{query_id}.local"), format!("q{query_id}.root"))
    }

    /// Rehydrate a freshly built [`CqState`] from durable window segments,
    /// if the node has a [`DurableStore`] holding any.  Called on the
    /// install path *before* the state is inserted, so a restarted node
    /// serves warm windows from its first tick: re-dissemination re-installs
    /// the query and the retained panes come back from the segment log
    /// instead of being recomputed.
    fn rehydrate_cq(&self, query_id: u64, cq: &mut CqState) {
        let Some(durable) = self.config.durable.as_ref() else {
            return;
        };
        let (local_key, root_key) = Self::segment_keys(query_id);
        let mut total = RehydrateReport::default();
        for (key, store) in [(local_key, &mut cq.store), (root_key, &mut cq.root_store)] {
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
            return; // nothing durable for this query: a genuinely cold start
        }
        cq.rehydrated_windows = total.windows as u64;
        self.tel.add("cq.rehydrated_windows", total.windows as u64);
        self.tel.event("window.rehydrate", || {
            vec![
                ("query_id", query_id.to_string()),
                ("windows", total.windows.to_string()),
                ("groups", total.groups.to_string()),
                ("tuples", total.tuples.to_string()),
                ("skipped", total.skipped.to_string()),
                ("torn_tail", total.torn_tail.to_string()),
            ]
        });
    }

    /// Snapshot a continuous query's window state into the durable store
    /// (both the local and the relay/root [`WindowStore`]).  Appends one
    /// snapshot per tick; once a log outgrows
    /// [`PierNode::SEGMENT_COMPACT_BYTES`] it is rewritten from scratch —
    /// rehydration only reads the *latest* snapshot of each window, so
    /// compaction loses nothing.
    fn persist_cq(durable: &DurableStore, query_id: u64, cq: &CqState) {
        let (local_key, root_key) = Self::segment_keys(query_id);
        for (key, store) in [(local_key, &cq.store), (root_key, &cq.root_store)] {
            durable.with_log(&key, |log| {
                if log.len() > Self::SEGMENT_COMPACT_BYTES {
                    *log = SegmentLog::new();
                }
                store.write_segments(log);
            });
        }
    }

    /// Fold a chunk of dataflow outputs into the query's window store.  The
    /// event-time, group, dedup and aggregate-input columns all resolve
    /// against the chunk's schema once; the per-row work is column
    /// indexing only.
    fn cq_absorb_chunk(cq: &mut CqState, chunk: &ColumnChunk, now: SimTime) {
        let schema = chunk.schema();
        let Some(group_idxs) = cq.group_resolver.indices_for(schema) else {
            return; // malformed chunk: discard (best-effort policy)
        };
        let time_idx = cq.time_ref.as_mut().and_then(|c| c.index_for(schema));
        let dedup_idxs: Vec<Option<usize>> = cq
            .dedup_refs
            .iter_mut()
            .map(|c| c.index_for(schema))
            .collect();
        let agg_idxs: Vec<Option<usize>> = cq
            .agg_inputs
            .iter_mut()
            .map(|input| input.as_mut().and_then(|c| c.index_for(schema)))
            .collect();
        let aggs = &cq.aggs;
        for r in 0..chunk.rows() {
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
            cq.store.push(
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

    fn encode_window_partial(partial_schema: &Arc<Schema>, wid: WindowId, acc: &GroupAgg) -> Tuple {
        let mut values = Vec::with_capacity(partial_schema.arity());
        values.push(Value::Int(wid as i64));
        values.extend(acc.vals.iter().cloned());
        for state in &acc.states {
            values.push(state.finish());
            if let AggState::Avg { sum, count } = state {
                values.push(Value::Float(*sum));
                values.push(Value::Int(*count as i64));
            }
        }
        Tuple::from_schema(Arc::clone(partial_schema), values)
    }

    /// Periodic window maintenance (fires every slide): close due windows,
    /// forward their partials toward the window root — combining en route —
    /// and, at the root, merge arrived partials and stream per-window
    /// results to the proxy.
    fn window_tick(&mut self, ctx: &mut ProgramContext<Self>, query_id: u64) {
        let now = ctx.now();
        let Some(q) = self.queries.get_mut(&query_id) else {
            return; // query uninstalled: the tick chain stops
        };
        let Some(cq) = q.cq.as_mut() else {
            return;
        };
        let window_ns = q.plan.window_namespace();
        let root_key = q.plan.agg_root_key();
        let root_id = routing_id(&window_ns, &root_key);
        let proxy = q.plan.proxy;
        let is_root = self.overlay.router().is_responsible(root_id);

        // 1. Close this node's due windows.  At the root the partials merge
        //    straight into the root store; elsewhere they are encoded for
        //    the trip up (along with anything absorbed from upcall relays).
        let closed = cq.store.close_due(now);
        let mut to_send: Vec<Tuple> = Vec::new();
        // Distinct windows whose partials this flush bundles (a tick that
        // catches up after an EVERY-cadence gap ships several windows at
        // once); the flush span's `aux` records it so the per-*window*
        // static bound can be reconciled against a per-*tick* measurement.
        let mut flushed_windows: BTreeSet<WindowId> = BTreeSet::new();
        if is_root {
            for (wid, groups) in closed {
                for (key, acc) in groups {
                    cq.root_store.accept_refinement(wid, &key, acc);
                }
            }
        } else {
            for (wid, groups) in closed.into_iter().chain(cq.root_store.close_due(now)) {
                if !groups.is_empty() {
                    flushed_windows.insert(wid);
                }
                for (_, acc) in groups {
                    to_send.push(Self::encode_window_partial(&cq.partial_schema, wid, &acc));
                }
            }
        }

        // 2. At the root: snapshot every due window that changed — state is
        //    *retained* so late partials keep merging and re-emit refined
        //    results — and turn each snapshot into result rows.
        let mut emissions: Vec<(WindowId, Vec<Delta<Tuple>>)> = Vec::new();
        if is_root {
            let mut emitted_max = None;
            for (wid, groups) in cq.root_store.emit_due(now) {
                let (ws, we) = cq.window.bounds(wid);
                let mut rows: Vec<Tuple> = groups
                    .into_iter()
                    .map(|(_, acc)| {
                        let mut values = Vec::with_capacity(cq.result_schema.arity());
                        values.push(Value::Int(ws as i64));
                        values.push(Value::Int(we as i64));
                        values.extend(acc.vals.iter().cloned());
                        values.extend(acc.states.iter().map(AggState::finish));
                        Tuple::from_schema(Arc::clone(&cq.result_schema), values)
                    })
                    .collect();
                rows.sort_by_cached_key(std::string::ToString::to_string);
                if !cq.final_ops.is_empty() {
                    let finisher = Pipeline::new(
                        cq.final_ops
                            .iter()
                            .filter_map(OperatorSpec::build)
                            .collect(),
                    );
                    rows = finisher.finish(rows);
                }
                let deltas = cq.tracker.emit(wid, rows);
                if !deltas.is_empty() {
                    cq.windows_emitted += 1;
                    emissions.push((wid, deltas));
                }
                emitted_max = Some(emitted_max.unwrap_or(0u64).max(wid));
            }
            // Retire windows past the refinement horizon from both the
            // retained root state and the delta tracker (bounded memory).
            if let Some(newest) = emitted_max {
                let retain = cq.retention_windows();
                if newest > retain {
                    cq.root_store.retire_before(newest - retain);
                    cq.tracker.retire(newest - retain - 1);
                }
            }
        }
        let window = cq.window;
        let lifetime = cq.spec.lease.max(self.config.publish_lifetime);

        // 3. Ship partials one hop toward the root (upcalls combine en
        //    route) and stream emissions to the proxy.  Every partial of a
        //    tick shares the window-root destination, so batching collapses
        //    the per-group message train into one transfer per tick.
        let mut effects = Vec::new();
        let shipments: Vec<QpObject> = if self.config.batching && to_send.len() > 1 {
            vec![QpObject::Batch(TupleBatch::new(to_send))]
        } else {
            to_send.into_iter().map(QpObject::Tuple).collect()
        };
        // Flush instrumentation: every shipping flush ticks
        // `cq.window_flushes` / `cq.flush_partials` (the counters the
        // span-reconciliation tests anchor to), and a sampled query's flush
        // additionally records a `window.flush` span whose context rides
        // the wire on every shipment of this tick.
        let mut flush_ctx: Option<TraceContext> = None;
        if self.tel.is_enabled() && !shipments.is_empty() {
            let partials: u64 = shipments.iter().map(|s| s.tuple_count() as u64).sum();
            let bytes: u64 = shipments.iter().map(|s| s.wire_size() as u64).sum();
            self.tel.inc("cq.window_flushes");
            self.tel.add("cq.flush_partials", partials);
            if let Some(trace_id) = self.traced(query_id) {
                let span = self.next_span_id(ctx.me());
                self.tel.record_span(
                    now,
                    now,
                    trace_id,
                    span,
                    trace_id,
                    query_id,
                    "window.flush",
                    partials,
                    bytes,
                    flushed_windows.len() as u64,
                );
                flush_ctx = Some(TraceContext {
                    trace_id,
                    span_id: span,
                    query_id,
                });
            }
        }
        for shipment in shipments {
            let name = ObjectName::new(window_ns.clone(), root_key.clone(), self.rng.next_u64());
            self.overlay.set_trace(flush_ctx);
            effects.extend(
                self.overlay
                    .send_routed(root_id, name, shipment, lifetime, now),
            );
        }
        self.drive(ctx, effects);
        for (wid, deltas) in emissions {
            let (window_start, window_end) = window.bounds(wid);
            let mut retracts = Vec::new();
            let mut inserts = Vec::new();
            for d in deltas {
                match d {
                    Delta::Retract(t) => retracts.push(t),
                    Delta::Insert(t) => inserts.push(t),
                }
            }
            // A sampled query's per-window emission: the `window.emit`
            // span parents to the newest absorption at this root and its
            // context travels to the proxy on the results message.
            let emit_ctx = self.traced(query_id).map(|trace_id| {
                let span = self.next_span_id(ctx.me());
                let parent = self
                    .last_combine_span
                    .get(&query_id)
                    .copied()
                    .unwrap_or(trace_id);
                self.tel.record_span(
                    now,
                    now,
                    trace_id,
                    span,
                    parent,
                    query_id,
                    "window.emit",
                    (retracts.len() + inserts.len()) as u64,
                    0,
                    window_start,
                );
                TraceContext {
                    trace_id,
                    span_id: span,
                    query_id,
                }
            });
            if proxy == ctx.me() {
                self.proxy_receive_window(
                    ctx,
                    query_id,
                    window_start,
                    window_end,
                    retracts,
                    inserts,
                    emit_ctx,
                );
            } else {
                ctx.send(
                    proxy,
                    PierMsg::WindowResults {
                        query_id,
                        window_start,
                        window_end,
                        retracts,
                        inserts,
                        trace: emit_ctx,
                    },
                );
            }
        }
        // 4. Window health into telemetry: absolute occupancy/shed gauges
        //    summed over every installed continuous query, plus shed/evict
        //    *deltas* of this query as trace events.
        if self.tel.is_enabled() {
            if let Some(cq) = self.queries.get_mut(&query_id).and_then(|q| q.cq.as_mut()) {
                let local = cq.store.stats();
                let root = cq.root_store.stats();
                let shed =
                    local.shed_tuples + local.shed_groups + root.shed_tuples + root.shed_groups;
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
            let acc_bytes = |g: &GroupAgg| -> usize {
                g.vals.iter().map(WireSize::wire_size).sum::<usize>()
                    + g.states.iter().map(WireSize::wire_size).sum::<usize>()
            };
            for q in self.queries.values() {
                let Some(cq) = q.cq.as_ref() else { continue };
                for stats in [cq.store.stats(), cq.root_store.stats()] {
                    accepted += stats.accepted;
                    shed += stats.shed_tuples + stats.shed_groups;
                    evicted += stats.evicted_windows;
                }
                open += (cq.store.open_windows() + cq.root_store.open_windows()) as u64;
                groups += (cq.store.total_groups() + cq.root_store.total_groups()) as u64;
                state_bytes += (cq.store.approx_state_bytes(&acc_bytes)
                    + cq.root_store.approx_state_bytes(&acc_bytes))
                    as u64;
            }
            self.tel.gauge("cq.accepted", accepted as f64);
            self.tel.gauge("cq.shed", shed as f64);
            self.tel.gauge("cq.evicted_windows", evicted as f64);
            self.tel.gauge("cq.open_windows", open as f64);
            self.tel.gauge("cq.state_groups", groups as f64);
            self.tel.gauge("cq.state_bytes", state_bytes as f64);
        }

        // 5. Persist the surviving window state as durable segments, so a
        //    crash after this tick restarts warm.
        if let Some(durable) = self.config.durable.as_ref() {
            if let Some(cq) = self.queries.get(&query_id).and_then(|q| q.cq.as_ref()) {
                Self::persist_cq(durable, query_id, cq);
            }
        }

        // 6. Re-arm while the query is installed.
        if self.queries.contains_key(&query_id) {
            ctx.set_timer(window.slide, PierTimer::WindowTick { query_id });
        }
    }

    /// Periodic window maintenance for one share group (fires every slide,
    /// once per group — the shared counterpart of
    /// [`PierNode::window_tick`]): the layer closes due windows and hands
    /// back one partial stream to ship toward the group's root plus, at the
    /// root, per-member emissions the executor forwards to each member's
    /// proxy.
    fn share_tick(&mut self, ctx: &mut ProgramContext<Self>, group: u64, epoch: u64) {
        let now = ctx.now();
        let Some(route) = self.sharing.as_ref().and_then(|l| l.group_route(group)) else {
            return; // group retired: the tick chain stops
        };
        if route.epoch != epoch {
            // The group was retired and re-created since this chain was
            // armed; the new incarnation drives its own chain — a stale
            // timer must not stack a duplicate one.
            return;
        }
        let root_id = routing_id(&route.namespace, &route.root_key);
        let is_root = self.overlay.router().is_responsible(root_id);
        let out = self
            .sharing
            .as_mut()
            .expect("route resolved above")
            .tick(group, now, is_root);
        let lifetime = self.config.publish_lifetime;
        let mut effects = Vec::new();
        // One transfer per tick per group: every partial shares the group's
        // window-root destination, so batching collapses the train.
        let shipments: Vec<QpObject> = if self.config.batching && out.partials.len() > 1 {
            vec![QpObject::Batch(TupleBatch::new(out.partials))]
        } else {
            out.partials.into_iter().map(QpObject::Tuple).collect()
        };
        // Share-group attribution: shared work is charged to the group's
        // canonical (lowest-id) member — one `share.flush` span per
        // shipping tick when tracing is in trace-all mode (per-query
        // sampling decisions are meaningless for work N queries share).
        let mut share_ctx: Option<TraceContext> = None;
        if self.tel.is_enabled() && !shipments.is_empty() {
            let partials: u64 = shipments.iter().map(|s| s.tuple_count() as u64).sum();
            self.tel.inc("mqo.share_flushes");
            self.tel.add("mqo.share_flush_partials", partials);
            if self.config.trace.sample_every == 1 {
                let members = self
                    .sharing
                    .as_ref()
                    .map_or_else(Vec::new, |l| l.member_ids(group));
                if let Some(&canonical) = members.first() {
                    let bytes: u64 = shipments.iter().map(|s| s.wire_size() as u64).sum();
                    let trace_id = trace_id_for(canonical);
                    let span = self.next_span_id(ctx.me());
                    self.tel.record_span(
                        now,
                        now,
                        trace_id,
                        span,
                        trace_id,
                        canonical,
                        "share.flush",
                        partials,
                        bytes,
                        members.len() as u64,
                    );
                    share_ctx = Some(TraceContext {
                        trace_id,
                        span_id: span,
                        query_id: canonical,
                    });
                }
            }
        }
        for shipment in shipments {
            let name = ObjectName::new(
                route.namespace.clone(),
                route.root_key.clone(),
                self.rng.next_u64(),
            );
            self.overlay.set_trace(share_ctx);
            effects.extend(
                self.overlay
                    .send_routed(root_id, name, shipment, lifetime, now),
            );
        }
        self.drive(ctx, effects);
        for e in out.emissions {
            // Per-member emission spans (trace-all mode only): each member
            // gets a top-level `window.emit` in its *own* trace, so shared
            // execution still yields per-query profiles.
            let emit_ctx = if self.tel.is_enabled() && self.config.trace.sample_every == 1 {
                let trace_id = trace_id_for(e.query_id);
                let span = self.next_span_id(ctx.me());
                self.tel.record_span(
                    now,
                    now,
                    trace_id,
                    span,
                    trace_id,
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
            } else {
                None
            };
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
        // Re-arm while this incarnation of the group lives.
        if self
            .sharing
            .as_ref()
            .and_then(|l| l.group_route(group))
            .is_some_and(|r| r.epoch == epoch)
        {
            ctx.set_timer(route.slide, PierTimer::ShareTick { group, epoch });
        }
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

    /// Diagnostics of an installed continuous query (`None` when the query
    /// is not installed here or is not continuous).
    pub fn cq_diagnostics(&self, query_id: u64) -> Option<CqDiagnostics> {
        let q = self.queries.get(&query_id)?;
        let cq = q.cq.as_ref()?;
        Some(CqDiagnostics {
            local: cq.store.stats(),
            root: cq.root_store.stats(),
            open_windows: cq.store.open_windows() + cq.root_store.open_windows(),
            total_groups: cq.store.total_groups() + cq.root_store.total_groups(),
            tracked_emissions: cq.tracker.tracked_windows(),
            windows_emitted: cq.windows_emitted,
            lease_renewals: cq.lease.renewals,
            rehydrated_windows: cq.rehydrated_windows,
        })
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
            PierTimer::WindowTick { query_id } => self.window_tick(ctx, query_id),
            PierTimer::ShareTick { group, epoch } => self.share_tick(ctx, group, epoch),
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
    use std::collections::BTreeMap;

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

    fn windowed_cq_state() -> CqState {
        let plan = crate::sqlish::compile(
            "SELECT src, COUNT(*), SUM(len) FROM packets GROUP BY src WINDOW 30s SLIDE 10s",
            pier_runtime::NodeAddr(1),
            60_000_000,
        )
        .expect("windowed netmon query must compile");
        PierNode::build_cq_state(&plan, 0).expect("plan has a windowed sink")
    }

    /// Canonical view of a window store's content after closing everything:
    /// `(window, group key, group values, finished aggregates)` rows.
    fn drain_canonical(cq: &mut CqState) -> Vec<(u64, String, Vec<Value>, Vec<Value>)> {
        let mut out = Vec::new();
        for (wid, groups) in cq.store.close_due(1_000_000_000_000) {
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
    fn absorb_all(cq: &mut CqState, rows: Vec<Tuple>, now: SimTime) {
        for chunk in TupleBatch::new(rows).chunks() {
            PierNode::cq_absorb_chunk(cq, chunk, now);
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
    fn reference_fold(cq: &CqState, rows: &[Tuple]) -> Vec<(u64, Vec<Value>, Vec<Value>)> {
        let mut groups: BTreeMap<(u64, String), (Vec<Value>, Vec<AggState>)> = BTreeMap::new();
        for t in rows {
            let ts = t.get("ts").and_then(Value::as_i64).expect("row has ts");
            let src = t.get("src").expect("row has src").clone();
            for wid in cq.window.windows_containing(ts.max(0) as u64) {
                let (_, states) = groups.entry((wid, src.to_string())).or_insert_with(|| {
                    (
                        vec![src.clone()],
                        cq.aggs.iter().map(AggFunc::init).collect(),
                    )
                });
                for (agg, state) in cq.aggs.iter().zip(states.iter_mut()) {
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
        let mut whole = windowed_cq_state();
        let mut row_at_a_time = windowed_cq_state();
        let expected = reference_fold(&whole, &rows);
        assert!(!expected.is_empty(), "the workload must populate windows");
        let now = 1_000_000;
        for t in &rows {
            PierNode::cq_absorb_chunk(&mut row_at_a_time, &ColumnChunk::from_tuple(t), now);
        }
        absorb_all(&mut whole, rows, now);
        assert_eq!(without_keys(drain_canonical(&mut whole)), expected);
        assert_eq!(without_keys(drain_canonical(&mut row_at_a_time)), expected);
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

    #[test]
    fn cq_chunk_absorb_discards_malformed_chunks() {
        let mut cq = windowed_cq_state();
        let rows: Vec<Tuple> = (0..10)
            .map(|i| Tuple::new("packets", vec![("nothing", Value::Int(i))]))
            .collect();
        let batch = TupleBatch::new(rows);
        for chunk in batch.chunks() {
            PierNode::cq_absorb_chunk(&mut cq, chunk, 0);
        }
        assert!(drain_canonical(&mut cq).is_empty());
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
        let mut cq = windowed_cq_state();
        absorb_all(&mut cq, netmon_rows(120), 0);
        let durable = DurableStore::new();
        PierNode::persist_cq(&durable, 7, &cq);
        let (local_key, _) = PierNode::segment_keys(7);
        let log = durable.get(&local_key).expect("snapshot was written");

        // A cold store (what a restarted node builds) rehydrates to the
        // same canonical contents the crashed node held.
        let mut cold = windowed_cq_state();
        let report = cold.store.rehydrate_from(&log);
        assert!(report.windows > 0, "open windows came back");
        assert!(!report.torn_tail);
        assert_eq!(drain_canonical(&mut cold), drain_canonical(&mut cq));
    }

    #[test]
    fn persist_compacts_once_the_log_outgrows_the_bound() {
        let mut cq = windowed_cq_state();
        absorb_all(&mut cq, netmon_rows(50), 0);
        let durable = DurableStore::new();
        PierNode::persist_cq(&durable, 1, &cq);
        let after_one = durable.total_bytes();
        // Snapshots append...
        PierNode::persist_cq(&durable, 1, &cq);
        assert!(durable.total_bytes() > after_one);
        // ...until the log crosses the compaction bound, which rewrites it
        // as a single fresh snapshot.
        let (local_key, _) = PierNode::segment_keys(1);
        loop {
            let over = durable
                .get(&local_key)
                .is_some_and(|log| log.len() > PierNode::SEGMENT_COMPACT_BYTES);
            if over {
                break;
            }
            PierNode::persist_cq(&durable, 1, &cq);
        }
        PierNode::persist_cq(&durable, 1, &cq);
        durable.with_log(&local_key, |log| {
            assert!(
                log.len() <= PierNode::SEGMENT_COMPACT_BYTES,
                "compaction rewrote the oversized log"
            );
        });
        let mut cold = windowed_cq_state();
        let log = durable.get(&local_key).expect("compacted snapshot");
        cold.store.rehydrate_from(&log);
        assert_eq!(drain_canonical(&mut cold), drain_canonical(&mut cq));
    }
}
