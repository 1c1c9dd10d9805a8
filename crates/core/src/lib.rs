//! # pier-core — the PIER query processor
//!
//! This crate is the paper's primary contribution: a relational query
//! processor designed to run on thousands of Internet nodes over a DHT
//! overlay (`pier-dht`) and an event-driven runtime (`pier-runtime`).
//!
//! * [`value`] / [`tuple`](mod@tuple) — self-describing tuples with best-effort typing
//!   (no catalog, §3.3.1), held zero-copy: values share string/bytes
//!   payloads behind `Arc`s, tuples pair an interned `Arc<Schema>` with an
//!   `Arc<[Value]>` (cloning is allocation-free), and [`tuple::TupleBatch`]
//!   stores same-schema runs **columnar** ([`tuple::ColumnChunk`], one typed
//!   [`column::Column`] per column — native `i64`/`f64` buffers, dictionary
//!   or arena strings, validity bitmaps) for batch-at-a-time operator scans
//!   and schema-amortised wire accounting.
//! * [`expr`] — predicate and scalar expressions with discard-on-mismatch
//!   semantics (§3.3.4 "Malformed Tuples"), plus their compiled form
//!   ([`expr::CompiledExpr`]/[`expr::CompiledPredicate`]): column names
//!   resolve to positional indices once per interned schema, so selections
//!   and eddies evaluate by index over rows or columnar chunks.
//! * [`aggregate`] — mergeable partial aggregates (distributive/algebraic
//!   classification) used by hierarchical aggregation.
//! * [`eddy`] — the adaptive eddy operator of §4.2.2: runtime reordering of
//!   commutative filters with observation-driven (lottery) routing and
//!   mergeable cross-node statistics.
//! * [`operators`] — the local physical operators: selection, projection,
//!   duplicate elimination, group-by, top-k, limit, queues, Bloom filters,
//!   Symmetric Hash join, and the push-based [`operators::Pipeline`]
//!   realising the non-blocking local dataflow of §3.3.5.
//! * [`plan`] — UFL-style physical plans: opgraphs, sources, sinks
//!   (to-proxy, DHT rehash/Exchange, hierarchical aggregation), and the
//!   dissemination strategies of §3.3.3.
//! * [`node`] — [`node::PierNode`], the runnable node program combining the
//!   overlay and the executor: query dissemination, opgraph installation,
//!   Fetch Matches index joins, hierarchical aggregation with in-network
//!   combining, rehash-based Symmetric Hash joins, proxy result delivery
//!   and timeout-based query termination (§3.3.2).
//! * [`window_agg`] — the one windowed-aggregation engine: a standing
//!   windowed GROUP BY serving 1..N member queries (an independent query is
//!   an engine of one, a `pier-mqo` share group an engine of many), with
//!   one partial codec, one tick and one durable persist/rehydrate path.
//! * [`sqlish`] — the "naive SQL-like language" front end of §4.2: a small
//!   SELECT-FROM-WHERE-GROUP BY parser and planner, reflecting the paper's
//!   observation that users preferred SQL to raw UFL.
//!
//! ## Invariants
//!
//! * **Schema interning**: schemas are immutable and interned process-wide
//!   ([`tuple::SchemaRegistry`]); `Arc::ptr_eq` on two live schema handles
//!   is equivalent to deep equality.  Every per-schema cache
//!   ([`tuple::ColumnResolver`], [`tuple::ColumnRef`],
//!   [`expr::CompiledPredicate`], operator output-schema caches) keys on
//!   this.  Query teardown sweeps no-longer-referenced query-scoped shapes
//!   ([`tuple::SchemaRegistry::sweep_matching`]), so the registry stays
//!   bounded by the live working set.
//! * **Parallel shapes**: a tuple's value slice is parallel to its schema's
//!   columns (equal arity); a [`tuple::ColumnChunk`]'s column vectors are
//!   parallel to its schema's columns and of equal length.
//! * **Batch equivalence**: every `push_batch`/`push_chunk` override
//!   produces exactly the tuples per-row dispatch would (pinned by the
//!   batching-equivalence tests); batches preserve row order across the
//!   columnar round trip bit-for-bit (property-tested).
//! * **Best effort everywhere** (§3.3.4): malformed tuples (missing
//!   columns, incompatible types) are silently discarded by the operator
//!   that notices, never surfaced as query errors.
//!
//! See `ARCHITECTURE.md` at the repository root for the cross-crate
//! picture (life of a query, message flows).

pub mod admission;
pub mod aggregate;
pub mod column;
pub mod eddy;
pub mod expr;
pub mod node;
pub mod operators;
pub mod plan;
pub mod range_index;
pub mod recursive;
pub mod secondary_index;
pub mod sharing;
pub mod sqlish;
pub mod tuple;
pub mod value;
pub mod window_agg;

pub use admission::{
    AdmissionControl, AdmissionDecision, AdmissionFactory, AdmissionVerdict, EnvModel, SloBudget,
    SloPolicy,
};
pub use aggregate::{AggClass, AggFunc, AggState, PartialDecoder};
pub use column::{Bitmap, Column, DICT_MAX};
pub use eddy::{
    Eddy, EddyFilter, OperatorObservation, PredicateFilter, RoutingPolicy, EDDY_REORDER_ROWS,
    OBS_HALF_LIFE_ROWS,
};
pub use expr::{ArithOp, CmpOp, CompiledExpr, CompiledPredicate, EvalError, Expr};
pub use node::{PierConfig, PierMsg, PierNode, PierOut, PierTimer};
pub use operators::{
    nested_loop_join, BloomFilter, Distinct, GroupBy, JoinSide, Limit, LocalOperator, Pipeline,
    Projection, Queue, Selection, SymmetricHashJoin, TopK,
};
pub use pier_cq::{CqBudget, DeltaMode, WindowSpec};
pub use pier_telemetry::{SpanRecord, Telemetry, TelemetryConfig, TelemetryHub, TraceEvent};
pub use pier_trace::{trace_id_for, TraceConfig, TraceContext};
pub use plan::{
    CqSpec, Dissemination, JoinSpec, OpGraph, OperatorSpec, PlanBuilder, QpObject, QueryPlan,
    SinkSpec, SourceSpec,
};
pub use range_index::RangeIndexConfig;
pub use recursive::TransitiveClosure;
pub use sharing::{
    InstallOutcome, MultiQuerySharing, SharingFactory, SharingStats, UninstallOutcome,
};
pub use tuple::{
    ChunkRow, ColumnChunk, ColumnRef, ColumnResolver, Schema, SchemaRegistry, Tuple, TupleBatch,
};
pub use value::{Value, ValueRef};
pub use window_agg::{CqDiagnostics, Emission, TickOutput, WindowAgg};
