//! Physical query operators.
//!
//! PIER's local dataflow (§3.3.5) pushes tuples from children to parents
//! through simple function calls; operators either pass a (possibly
//! transformed) tuple on, absorb it into state (joins, group-by), or drop it
//! (selection, duplicate elimination).  Stateful operators emit their
//! buffered results when the dataflow is *flushed* — at a probe boundary for
//! snapshot queries or periodically for continuous ones.
//!
//! The [`LocalOperator`] trait captures that contract.  The distributed
//! operators of the paper — Put/Exchange (rehashing through the DHT),
//! Fetch Matches index joins, hierarchical aggregation — are coordinated by
//! the [`executor`](crate::node) because they need the overlay; the
//! building blocks they use (Bloom filters, symmetric-hash join state,
//! partial group-by) live here so they can be tested exhaustively in
//! isolation.

use crate::aggregate::{AggFunc, AggState};
use crate::column::Column;
use crate::expr::{CompiledPredicate, Expr};
use crate::tuple::{
    ColumnChunk, ColumnRef, ColumnResolver, Schema, SchemaRegistry, Tuple, TupleBatch,
};
use crate::value::Value;
use pier_telemetry::Telemetry;
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A push-based local operator.
pub trait LocalOperator: std::fmt::Debug {
    /// Push one tuple in; returns zero or more output tuples that flow to the
    /// parent immediately.  The executor never calls this: it is the
    /// per-row reference that the batch path is tested against.
    fn push(&mut self, tuple: Tuple) -> Vec<Tuple>;

    /// Push a whole [`TupleBatch`] in; the survivors come back as a
    /// **re-chunked batch** (same-schema runs preserved), so a stack of
    /// stages passes columnar chunks from one to the next without ever
    /// exploding into per-tuple dispatch.  Operators resolve columns once
    /// per [`ColumnChunk`] and scan — or mask-filter — the chunk's columns
    /// directly.  This is the executor's only entry point; it must produce
    /// exactly the rows [`LocalOperator::push`] would, row by row, in the
    /// same order (the batching-equivalence and property tests pin this).
    fn push_batch(&mut self, batch: &TupleBatch) -> TupleBatch;

    /// Emit whatever the operator has been buffering (group-by results,
    /// top-k heaps, …).  Pass-through operators return nothing.
    fn flush(&mut self) -> Vec<Tuple> {
        Vec::new()
    }

    /// Short stable tag naming the operator kind; keys the per-operator
    /// telemetry counters (`op.<name>.rows_in` / `rows_out` / `chunks_in`).
    fn name(&self) -> &'static str {
        "op"
    }
}

/// Selection: drop tuples that do not satisfy the predicate.  Tuples the
/// predicate cannot be evaluated against (missing column, type mismatch) are
/// dropped too — the best-effort policy of §3.3.4.
///
/// The predicate is compiled against each input schema once
/// ([`CompiledPredicate`]), so the per-tuple cost is positional evaluation;
/// the batch path evaluates straight over a chunk's columns and only
/// materialises the surviving rows.
#[derive(Debug)]
pub struct Selection {
    predicate: CompiledPredicate,
}

impl Selection {
    /// Create a selection with the given predicate.
    pub fn new(predicate: Expr) -> Self {
        Selection {
            predicate: CompiledPredicate::new(predicate),
        }
    }
}

impl LocalOperator for Selection {
    fn name(&self) -> &'static str {
        "selection"
    }

    fn push(&mut self, tuple: Tuple) -> Vec<Tuple> {
        if self.predicate.matches_tuple(&tuple) {
            vec![tuple]
        } else {
            Vec::new()
        }
    }

    fn push_batch(&mut self, batch: &TupleBatch) -> TupleBatch {
        // Mask-and-filter: the predicate evaluates **column-at-a-time**
        // ([`CompiledExpr::eval_column`] — type-specialised loops over each
        // referenced column, masks combined bitwise) and the survivors are
        // copied out as one whole chunk per input chunk — zero per-row
        // `Tuple` materialisations and no per-row expression-tree walk.
        let mut out = TupleBatch::default();
        for chunk in batch.chunks() {
            let compiled = self.predicate.for_schema(chunk.schema());
            let mask = compiled.eval_column(chunk);
            out.push_filtered(chunk, &mask);
        }
        out
    }
}

/// `(input schema, projected schema, per-output-column source index)`.
type ProjectionCache = (Arc<Schema>, Arc<Schema>, Vec<Option<usize>>);

/// Projection onto a fixed list of columns.  The projected schema and the
/// per-column source indices are resolved once per input schema, not once
/// per tuple.
#[derive(Debug)]
pub struct Projection {
    columns: Vec<String>,
    cache: Option<ProjectionCache>,
}

impl Projection {
    /// Create a projection.
    pub fn new(columns: Vec<String>) -> Self {
        Projection {
            columns,
            cache: None,
        }
    }

    /// Resolve the projected schema and source indices for `schema`
    /// (single-entry cache keyed by schema pointer).
    fn ensure(&mut self, schema: &Arc<Schema>) -> &ProjectionCache {
        let hit = self
            .cache
            .as_ref()
            .is_some_and(|(input, _, _)| Arc::ptr_eq(input, schema));
        if !hit {
            let names: Vec<&str> = self.columns.iter().map(String::as_str).collect();
            let out = SchemaRegistry::global().intern(schema.table(), &names);
            let srcs = self.columns.iter().map(|c| schema.position(c)).collect();
            self.cache = Some((Arc::clone(schema), out, srcs));
        }
        self.cache.as_ref().expect("cache populated above")
    }
}

impl LocalOperator for Projection {
    fn name(&self) -> &'static str {
        "projection"
    }

    fn push(&mut self, tuple: Tuple) -> Vec<Tuple> {
        let (_, out, srcs) = self.ensure(tuple.schema());
        let values = srcs
            .iter()
            .map(|src| match src {
                Some(i) => tuple.values()[*i].clone(),
                None => Value::Null,
            })
            .collect();
        vec![Tuple::from_schema(Arc::clone(out), values)]
    }

    fn push_batch(&mut self, batch: &TupleBatch) -> TupleBatch {
        // Column gather: each projected output column is the source column's
        // typed buffer cloned whole (or a NULL run) — the output chunk is
        // assembled without materialising a single row or value.
        let mut outputs = TupleBatch::default();
        for chunk in batch.chunks() {
            let (_, out, srcs) = self.ensure(chunk.schema());
            let out = Arc::clone(out);
            let columns: Vec<Column> = srcs
                .iter()
                .map(|src| match src {
                    Some(i) => chunk.col(*i).clone(),
                    None => Column::from_values(vec![Value::Null; chunk.rows()]),
                })
                .collect();
            outputs.push_chunk(ColumnChunk::from_columns(out, columns, chunk.rows()));
        }
        outputs
    }
}

/// Duplicate elimination on a set of key columns (all columns when empty).
#[derive(Debug)]
pub struct Distinct {
    key: ColumnResolver,
    seen: HashSet<String>,
}

impl Distinct {
    /// Create a duplicate-elimination operator.
    pub fn new(key: Vec<String>) -> Self {
        Distinct {
            key: ColumnResolver::new(key),
            seen: HashSet::new(),
        }
    }

    fn key_of(&mut self, tuple: &Tuple) -> String {
        if self.key.columns().is_empty() {
            let mut out = String::with_capacity(12 * tuple.arity());
            for (i, v) in tuple.values().iter().enumerate() {
                if i > 0 {
                    out.push('|');
                }
                v.write_key(&mut out);
            }
            out
        } else {
            self.key.key(tuple).unwrap_or_else(|| "∅".into())
        }
    }
}

impl LocalOperator for Distinct {
    fn name(&self) -> &'static str {
        "distinct"
    }

    fn push(&mut self, tuple: Tuple) -> Vec<Tuple> {
        let key = self.key_of(&tuple);
        if self.seen.insert(key) {
            vec![tuple]
        } else {
            Vec::new()
        }
    }

    fn push_batch(&mut self, batch: &TupleBatch) -> TupleBatch {
        // Key columns resolve once per chunk; first-seen rows survive as a
        // whole filtered chunk.
        let mut out = TupleBatch::default();
        for chunk in batch.chunks() {
            let mask: Vec<bool> = if self.key.columns().is_empty() {
                // Full-row dedup: the key spans every column, in order.
                let all: Vec<usize> = (0..chunk.schema().arity()).collect();
                (0..chunk.rows())
                    .map(|r| self.seen.insert(chunk.key_at(&all, r)))
                    .collect()
            } else {
                match self.key.indices_for(chunk.schema()) {
                    Some(idxs) => {
                        let idxs = idxs.to_vec();
                        (0..chunk.rows())
                            .map(|r| self.seen.insert(chunk.key_at(&idxs, r)))
                            .collect()
                    }
                    // Chunks missing a key column all key as "∅", exactly
                    // like the per-tuple path: only the first ever survives.
                    None => (0..chunk.rows())
                        .map(|_| self.seen.insert("∅".into()))
                        .collect(),
                }
            };
            out.push_filtered(chunk, &mask);
        }
        out
    }
}

/// Pass at most `n` tuples, then drop the rest.
#[derive(Debug)]
pub struct Limit {
    remaining: usize,
}

impl Limit {
    /// Create a limit operator.
    pub fn new(n: usize) -> Self {
        Limit { remaining: n }
    }
}

impl LocalOperator for Limit {
    fn name(&self) -> &'static str {
        "limit"
    }

    fn push(&mut self, tuple: Tuple) -> Vec<Tuple> {
        if self.remaining == 0 {
            return Vec::new();
        }
        self.remaining -= 1;
        vec![tuple]
    }

    fn push_batch(&mut self, batch: &TupleBatch) -> TupleBatch {
        let mut out = TupleBatch::default();
        for chunk in batch.chunks() {
            if self.remaining == 0 {
                break;
            }
            let take = chunk.rows().min(self.remaining);
            self.remaining -= take;
            if take == chunk.rows() {
                out.push_chunk(chunk.clone());
            } else {
                let mask: Vec<bool> = (0..chunk.rows()).map(|r| r < take).collect();
                out.push_chunk(chunk.filter(&mask));
            }
        }
        out
    }
}

/// A queue: in the real engine this is where the dataflow "comes up for air"
/// and yields back to the main scheduler (§3.3.5).  In this push model it is
/// a pass-through that counts yield points, preserving plan shape.
#[derive(Debug, Default)]
pub struct Queue {
    /// Number of tuples that crossed this yield point.
    pub yields: u64,
}

impl LocalOperator for Queue {
    fn name(&self) -> &'static str {
        "queue"
    }

    fn push(&mut self, tuple: Tuple) -> Vec<Tuple> {
        self.yields += 1;
        vec![tuple]
    }

    fn push_batch(&mut self, batch: &TupleBatch) -> TupleBatch {
        // One yield point per tuple, exactly as per-row dispatch counts.
        self.yields += batch.len() as u64;
        batch.clone()
    }
}

/// Grouped (partial) aggregation.  Emits one tuple per group on flush with
/// the group columns plus one output column per aggregate.
///
/// The group columns and every aggregate's input column are resolved to
/// schema indices once per input schema, and the output shape is interned
/// once at construction, so the per-tuple path is index lookups only.
#[derive(Debug)]
pub struct GroupBy {
    group_cols: ColumnResolver,
    aggs: Vec<AggFunc>,
    /// Per-aggregate input column resolver (`None` for `COUNT(*)`).
    agg_inputs: Vec<Option<ColumnRef>>,
    groups: HashMap<String, (Vec<Value>, Vec<AggState>)>,
    out_schema: Arc<Schema>,
}

impl GroupBy {
    /// Create a group-by with the given grouping columns and aggregates.
    pub fn new(
        group_cols: Vec<String>,
        aggs: Vec<AggFunc>,
        output_table: impl Into<String>,
    ) -> Self {
        GroupBy {
            out_schema: Self::output_schema(&group_cols, &aggs, &output_table.into()),
            agg_inputs: aggs
                .iter()
                .map(|a| a.input_column().map(ColumnRef::new))
                .collect(),
            group_cols: ColumnResolver::new(group_cols),
            aggs,
            groups: HashMap::new(),
        }
    }

    /// The fixed shape of this operator's output tuples: the group columns,
    /// then one column per aggregate (AVG additionally exposes its mergeable
    /// `_sum`/`_count` components so hierarchical aggregation stays exact).
    fn output_schema(group_cols: &[String], aggs: &[AggFunc], output_table: &str) -> Arc<Schema> {
        let mut columns: Vec<String> = group_cols.to_vec();
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
        SchemaRegistry::global().intern_owned(output_table.to_string(), columns)
    }

    /// Number of groups currently buffered.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Merge a partial-aggregate tuple previously produced by another
    /// `GroupBy` with the same shape (hierarchical aggregation's combine
    /// step).  Returns `false` when the tuple does not look like a partial
    /// for this operator and was ignored.
    pub fn merge_partial(&mut self, tuple: &Tuple) -> bool {
        let Some(key) = self.group_cols.key(tuple) else {
            return false;
        };
        let entry = match self.groups.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(e) => {
                let vals = self
                    .group_cols
                    .values(tuple)
                    .expect("key resolved above implies values resolve");
                e.insert((vals, self.aggs.iter().map(AggFunc::init).collect()))
            }
        };
        let mut merged_any = false;
        for (agg, state) in self.aggs.iter().zip(entry.1.iter_mut()) {
            if let Some(other) = AggState::from_partial_tuple(agg, tuple) {
                state.merge(&other);
                merged_any = true;
            }
        }
        merged_any
    }

    fn group_tuple(&self, values: &[Value], states: &[AggState]) -> Tuple {
        let mut out = Vec::with_capacity(self.out_schema.arity());
        out.extend(values.iter().cloned());
        for state in states {
            out.push(state.finish());
            if let AggState::Avg { sum, count } = state {
                out.push(Value::Float(*sum));
                out.push(Value::Int(*count as i64));
            }
        }
        Tuple::from_schema(Arc::clone(&self.out_schema), out)
    }
}

impl LocalOperator for GroupBy {
    fn name(&self) -> &'static str {
        "groupby"
    }

    fn push(&mut self, tuple: Tuple) -> Vec<Tuple> {
        let Some(key) = self.group_cols.key(&tuple) else {
            return Vec::new(); // malformed tuple: discard
        };
        let entry = match self.groups.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(e) => {
                let vals = self
                    .group_cols
                    .values(&tuple)
                    .expect("key resolved above implies values resolve");
                e.insert((vals, self.aggs.iter().map(AggFunc::init).collect()))
            }
        };
        for ((agg, input), state) in self
            .aggs
            .iter()
            .zip(self.agg_inputs.iter_mut())
            .zip(entry.1.iter_mut())
        {
            let value = input.as_mut().and_then(|c| c.get(&tuple));
            state.update_with(agg, value);
        }
        Vec::new()
    }

    fn push_batch(&mut self, batch: &TupleBatch) -> TupleBatch {
        // Absorb chunk-at-a-time: group columns and aggregate inputs resolve
        // once per chunk, the inner loop is column indexing only.
        for chunk in batch.chunks() {
            let schema = chunk.schema();
            let Some(group_idxs) = self.group_cols.indices_for(schema) else {
                continue; // malformed chunk for this operator: discard
            };
            let group_idxs = group_idxs.to_vec();
            let agg_idxs: Vec<Option<usize>> = self
                .agg_inputs
                .iter_mut()
                .map(|input| input.as_mut().and_then(|c| c.index_for(schema)))
                .collect();
            for r in 0..chunk.rows() {
                let key = chunk.key_at(&group_idxs, r);
                let entry = match self.groups.entry(key) {
                    std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                    std::collections::hash_map::Entry::Vacant(e) => {
                        let vals = group_idxs.iter().map(|&i| chunk.col(i).value(r)).collect();
                        e.insert((vals, self.aggs.iter().map(AggFunc::init).collect()))
                    }
                };
                for ((agg, idx), state) in self.aggs.iter().zip(&agg_idxs).zip(entry.1.iter_mut()) {
                    let value = idx.map(|i| chunk.col(i).value_ref(r));
                    state.update_ref(agg, value);
                }
            }
        }
        TupleBatch::default()
    }

    fn flush(&mut self) -> Vec<Tuple> {
        // Flush drains the accumulated groups: a subsequent flush only emits
        // data that arrived in between (important for the periodic partial
        // flushes of hierarchical aggregation, which must not re-send what
        // has already travelled up the tree).
        let groups = std::mem::take(&mut self.groups);
        let mut out: Vec<Tuple> = groups
            .values()
            .map(|(vals, states)| self.group_tuple(vals, states))
            .collect();
        // Deterministic output order helps tests and clients (cached keys:
        // one render per row, not two per comparison).
        out.sort_by_cached_key(std::string::ToString::to_string);
        out
    }
}

/// Keep the `k` tuples with the largest value in `order_col` (used for the
/// firewall-monitoring "top ten sources" query of Figure 2).
#[derive(Debug)]
pub struct TopK {
    k: usize,
    order_col: ColumnRef,
    buffer: Vec<Tuple>,
}

impl TopK {
    /// Create a top-k operator ordered descending by `order_col`.
    pub fn new(k: usize, order_col: impl Into<String>) -> Self {
        TopK {
            k,
            order_col: ColumnRef::new(order_col.into()),
            buffer: Vec::new(),
        }
    }
}

impl LocalOperator for TopK {
    fn name(&self) -> &'static str {
        "topk"
    }

    fn push(&mut self, tuple: Tuple) -> Vec<Tuple> {
        if self.order_col.get(&tuple).and_then(Value::as_f64).is_some() {
            self.buffer.push(tuple);
        }
        Vec::new()
    }

    fn push_batch(&mut self, batch: &TupleBatch) -> TupleBatch {
        // The order column resolves once per chunk; only rows that must be
        // buffered (numeric order value) are materialised — buffering needs
        // owned tuples by design.
        for chunk in batch.chunks() {
            let Some(idx) = self.order_col.index_for(chunk.schema()) else {
                continue; // chunk lacks the order column: discard
            };
            for r in 0..chunk.rows() {
                if chunk.col(idx).value_ref(r).as_f64().is_some() {
                    self.buffer.push(chunk.row(r));
                }
            }
        }
        TupleBatch::default()
    }

    fn flush(&mut self) -> Vec<Tuple> {
        let order_col = self.order_col.column().to_string();
        self.buffer.sort_by(|a, b| {
            let av = a
                .get(&order_col)
                .and_then(Value::as_f64)
                .unwrap_or(f64::MIN);
            let bv = b
                .get(&order_col)
                .and_then(Value::as_f64)
                .unwrap_or(f64::MIN);
            bv.partial_cmp(&av).unwrap_or(std::cmp::Ordering::Equal)
        });
        self.buffer.drain(..).take(self.k).collect()
    }
}

fn hash_key(key: &str, seed: u64) -> u64 {
    let mut h = DefaultHasher::new();
    seed.hash(&mut h);
    key.hash(&mut h);
    h.finish()
}

/// A Bloom filter over join-key values, used to construct Bloom-join
/// rewrites (§2.1.1): the filter for one relation is shipped to the other
/// side, which forwards only the tuples whose key might match.
#[derive(Debug, Clone, PartialEq)]
pub struct BloomFilter {
    bits: Vec<u64>,
    hashes: u32,
}

impl BloomFilter {
    /// Create a filter with `bits` bits (rounded up to a multiple of 64) and
    /// `hashes` hash functions.
    pub fn new(bits: usize, hashes: u32) -> Self {
        BloomFilter {
            bits: vec![0; bits.div_ceil(64).max(1)],
            hashes,
        }
    }

    /// Number of bits in the filter.
    pub fn bit_len(&self) -> usize {
        self.bits.len() * 64
    }

    /// Insert a key.
    pub fn insert(&mut self, key: &str) {
        for i in 0..self.hashes {
            let h = hash_key(key, i as u64) as usize % self.bit_len();
            self.bits[h / 64] |= 1 << (h % 64);
        }
    }

    /// Test a key; false positives are possible, false negatives are not.
    pub fn contains(&self, key: &str) -> bool {
        (0..self.hashes).all(|i| {
            let h = hash_key(key, i as u64) as usize % self.bit_len();
            self.bits[h / 64] & (1 << (h % 64)) != 0
        })
    }

    /// Wire size in bytes (the filter is shipped across the network).
    pub fn size_bytes(&self) -> usize {
        self.bits.len() * 8
    }
}

/// One side's state in the chunk-native Symmetric Hash join: arrived rows
/// stay inside their typed [`ColumnChunk`]s and the hash table maps join
/// keys to `(chunk, row)` locations instead of owned tuples.
#[derive(Debug, Default)]
struct JoinSideState {
    /// Every chunk pushed on this side, in arrival order.  Single-tuple
    /// pushes land as one-row chunks so both ingest paths share one state
    /// shape (and one equivalence argument).
    chunks: Vec<ColumnChunk>,
    /// `join key → stored (chunk, row) locations`, in arrival order (which
    /// is ascending `(chunk, row)` — chunks are appended, rows scanned in
    /// order).
    table: HashMap<String, Vec<(u32, u32)>>,
    /// Total stored rows (sum of the table's bucket lengths).
    rows: usize,
}

/// Symmetric Hash join [Wilschut & Apers]: rows are inserted into their
/// side's hash table and probe the opposite side's table as they arrive, so
/// results stream out without blocking.
///
/// The state is **chunk-native**: each side keeps its arrived
/// [`ColumnChunk`]s intact (typed buffers and all) plus a hash table of
/// `key → (chunk, row)` match locations.  A probing chunk collects its match
/// indices per stored chunk and emits joined output via
/// [`ColumnChunk::gather`] — whole typed chunks, no per-row `Tuple`
/// materialisation on the batch path.  Key columns resolve to schema indices
/// once per side schema, and the joined output schema is interned once per
/// (left, right) schema pair.
/// Parallel (probe row, stored row) gather index lists for one stored chunk.
type GatherPair = (Vec<u32>, Vec<u32>);

#[derive(Debug)]
pub struct SymmetricHashJoin {
    left_key: ColumnResolver,
    right_key: ColumnResolver,
    left: JoinSideState,
    right: JoinSideState,
    output_table: String,
    /// `(left schema, right schema) → joined schema` single-entry cache.
    out_schema: Option<(Arc<Schema>, Arc<Schema>, Arc<Schema>)>,
}

/// Which side of a symmetric hash join a tuple belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinSide {
    /// The left (build/probe) side.
    Left,
    /// The right (build/probe) side.
    Right,
}

impl SymmetricHashJoin {
    /// Create a symmetric hash join on `left_key = right_key`.
    pub fn new(
        left_key: Vec<String>,
        right_key: Vec<String>,
        output_table: impl Into<String>,
    ) -> Self {
        SymmetricHashJoin {
            left_key: ColumnResolver::new(left_key),
            right_key: ColumnResolver::new(right_key),
            left: JoinSideState::default(),
            right: JoinSideState::default(),
            output_table: output_table.into(),
            out_schema: None,
        }
    }

    /// Number of rows currently held on each side.
    pub fn state_size(&self) -> (usize, usize) {
        (self.left.rows, self.right.rows)
    }

    /// Insert a tuple arriving on `side`; returns the join results it
    /// produces immediately.  The tuple lands in the shared chunk-native
    /// state as a one-row chunk.  The per-row reference for
    /// [`SymmetricHashJoin::push_chunk_batch`], which the executor uses.
    pub fn push_side(&mut self, side: JoinSide, tuple: Tuple) -> Vec<Tuple> {
        let chunk = ColumnChunk::from_tuple(&tuple);
        self.push_chunk_batch(side, &chunk).into_tuples()
    }

    /// Insert a whole columnar chunk arriving on `side` and emit the joined
    /// rows as typed chunks.
    ///
    /// The key columns resolve against the chunk's schema once; every row is
    /// keyed by direct column indexing, records its `(chunk, row)` location
    /// in this side's table, and collects the opposite side's match
    /// locations.  Matches are grouped per stored chunk and both sides are
    /// emitted via [`ColumnChunk::gather`] — one joined typed chunk per
    /// (probe chunk, stored chunk) pair, never a per-row tuple build.
    ///
    /// Produces exactly the rows the per-tuple path would, as a multiset:
    /// output is grouped stored-chunk-major (then probe-row order within a
    /// group) rather than probe-row-major.
    pub fn push_chunk_batch(&mut self, side: JoinSide, chunk: &ColumnChunk) -> TupleBatch {
        if chunk.rows() == 0 {
            return TupleBatch::default();
        }
        let key_cols = match side {
            JoinSide::Left => &mut self.left_key,
            JoinSide::Right => &mut self.right_key,
        };
        let Some(idxs) = key_cols.indices_for(chunk.schema()) else {
            return TupleBatch::default(); // malformed chunk: discard
        };
        let idxs = idxs.to_vec();
        let (own, other) = match side {
            JoinSide::Left => (&mut self.left, &self.right),
            JoinSide::Right => (&mut self.right, &self.left),
        };
        let chunk_id = own.chunks.len() as u32;
        // Per stored opposite-side chunk: parallel (probe row, stored row)
        // gather indices, accumulated while this chunk's rows are keyed.
        let mut matched: HashMap<u32, GatherPair> = HashMap::new();
        let mut key = String::new();
        for r in 0..chunk.rows() as u32 {
            key.clear();
            chunk.write_key_at(&idxs, r as usize, &mut key);
            if let Some(hits) = other.table.get(key.as_str()) {
                for &(c, sr) in hits {
                    let (probe, stored) = matched.entry(c).or_default();
                    probe.push(r);
                    stored.push(sr);
                }
            }
            match own.table.get_mut(key.as_str()) {
                Some(bucket) => bucket.push((chunk_id, r)),
                None => {
                    own.table.insert(key.clone(), vec![(chunk_id, r)]);
                }
            }
            own.rows += 1;
        }
        own.chunks.push(chunk.clone());

        let mut out = TupleBatch::default();
        if matched.is_empty() {
            return out;
        }
        // Deterministic emission order: stored chunks in arrival order.
        let mut groups: Vec<(u32, GatherPair)> = matched.into_iter().collect();
        groups.sort_unstable_by_key(|(c, _)| *c);
        for (c, (probe_rows, stored_rows)) in groups {
            let stored = &other.chunks[c as usize];
            let (left_chunk, left_rows, right_chunk, right_rows) = match side {
                JoinSide::Left => (chunk, &probe_rows, stored, &stored_rows),
                JoinSide::Right => (stored, &stored_rows, chunk, &probe_rows),
            };
            let joined = Self::joined_schema(
                &mut self.out_schema,
                &self.output_table,
                left_chunk.schema(),
                right_chunk.schema(),
            );
            let rows = probe_rows.len();
            let mut columns: Vec<Column> = Vec::with_capacity(joined.arity());
            for i in 0..left_chunk.schema().arity() {
                columns.push(left_chunk.col(i).gather(left_rows));
            }
            for i in 0..right_chunk.schema().arity() {
                columns.push(right_chunk.col(i).gather(right_rows));
            }
            out.push_chunk(ColumnChunk::from_columns(joined, columns, rows));
        }
        out
    }

    /// `(left schema, right schema) → joined schema` through the
    /// single-entry cache (an associated fn so callers holding side borrows
    /// can still reach it).
    fn joined_schema(
        cache: &mut Option<(Arc<Schema>, Arc<Schema>, Arc<Schema>)>,
        output_table: &str,
        left: &Arc<Schema>,
        right: &Arc<Schema>,
    ) -> Arc<Schema> {
        let hit = cache
            .as_ref()
            .is_some_and(|(l, r, _)| Arc::ptr_eq(l, left) && Arc::ptr_eq(r, right));
        if !hit {
            let joined = Tuple::join_schema(left, right, output_table);
            *cache = Some((Arc::clone(left), Arc::clone(right), joined));
        }
        Arc::clone(&cache.as_ref().expect("cache populated above").2)
    }
}

/// Reference nested-loop join used to validate the hash join in tests.
pub fn nested_loop_join(
    left: &[Tuple],
    right: &[Tuple],
    left_key: &[String],
    right_key: &[String],
    output_table: &str,
) -> Vec<Tuple> {
    let mut out = Vec::new();
    for l in left {
        for r in right {
            match (l.partition_key(left_key), r.partition_key(right_key)) {
                (Some(a), Some(b)) if a == b => out.push(l.join_with(r, output_table)),
                _ => {}
            }
        }
    }
    out
}

/// Pre-composed counter keys for one instrumented pipeline stage, so the
/// hot path increments by string lookup without formatting.
#[derive(Debug)]
struct StageMeter {
    rows_in: String,
    rows_out: String,
    chunks_in: String,
}

/// A pipeline of local operators: tuples pushed in flow through every stage;
/// flush drains stateful stages in order.
///
/// With a telemetry hub attached ([`Pipeline::set_telemetry`]) every stage
/// accumulates `op.<name>.rows_in`, `op.<name>.rows_out` and (on the batch
/// path) `op.<name>.chunks_in` counters — for a [`Selection`] the
/// rows-out/rows-in ratio is exactly the compiled predicate's observed
/// selectivity.  Counters are keyed by operator kind, so pipelines of many
/// queries aggregate into one per-node view.
#[derive(Debug, Default)]
pub struct Pipeline {
    stages: Vec<Box<dyn LocalOperator + Send>>,
    meters: Option<(Telemetry, Vec<StageMeter>)>,
}

impl Pipeline {
    /// Create an empty (pass-through) pipeline.
    pub fn new(stages: Vec<Box<dyn LocalOperator + Send>>) -> Self {
        Pipeline {
            stages,
            meters: None,
        }
    }

    /// Attach (or, with a disabled handle, detach) per-stage telemetry.
    pub fn set_telemetry(&mut self, tel: &Telemetry) {
        if !tel.is_enabled() {
            self.meters = None;
            return;
        }
        let meters = self
            .stages
            .iter()
            .map(|s| {
                let name = s.name();
                StageMeter {
                    rows_in: format!("op.{name}.rows_in"),
                    rows_out: format!("op.{name}.rows_out"),
                    chunks_in: format!("op.{name}.chunks_in"),
                }
            })
            .collect();
        self.meters = Some((tel.clone(), meters));
    }

    /// Push one tuple through every stage: the per-row reference that
    /// [`Pipeline::push_batch`] is tested against (the executor only pushes
    /// batches).
    pub fn push(&mut self, tuple: Tuple) -> Vec<Tuple> {
        let mut current = vec![tuple];
        for (i, stage) in self.stages.iter_mut().enumerate() {
            let rows_in = current.len();
            let mut next = Vec::new();
            for t in current {
                next.extend(stage.push(t));
            }
            current = next;
            if let Some((tel, meters)) = &self.meters {
                let m = &meters[i];
                tel.add(&m.rows_in, rows_in as u64);
                tel.add(&m.rows_out, current.len() as u64);
            }
            if current.is_empty() {
                break;
            }
        }
        current
    }

    /// Push a whole batch through the pipeline **chunk-to-chunk**: every
    /// stage consumes the previous stage's re-chunked survivor batch via
    /// [`LocalOperator::push_batch`], so a selection→projection→group-by
    /// stack stays columnar end to end — a single-schema batch travels as
    /// one chunk per stage and no stage boundary materialises per-row
    /// tuples.  Produces exactly the rows [`Pipeline::push`] would, in the
    /// same order.
    pub fn push_batch(&mut self, batch: &TupleBatch) -> TupleBatch {
        let Some((first, rest)) = self.stages.split_first_mut() else {
            return batch.clone(); // pass-through pipeline
        };
        let mut current = first.push_batch(batch);
        if let Some((tel, meters)) = &self.meters {
            let m = &meters[0];
            tel.add(&m.rows_in, batch.len() as u64);
            tel.add(&m.chunks_in, batch.chunks().len() as u64);
            tel.add(&m.rows_out, current.len() as u64);
        }
        for (i, stage) in rest.iter_mut().enumerate() {
            if current.is_empty() {
                break;
            }
            let rows_in = current.len();
            let chunks_in = current.chunks().len();
            let next = stage.push_batch(&current);
            if let Some((tel, meters)) = &self.meters {
                let m = &meters[i + 1];
                tel.add(&m.rows_in, rows_in as u64);
                tel.add(&m.chunks_in, chunks_in as u64);
                tel.add(&m.rows_out, next.len() as u64);
            }
            current = next;
        }
        current
    }

    /// Flush every stage, cascading buffered tuples downstream through the
    /// batch path (a stateful stage's emissions form same-schema runs, so
    /// downstream stages consume them as chunks).
    pub fn flush(&mut self) -> Vec<Tuple> {
        let mut carried = TupleBatch::default();
        for i in 0..self.stages.len() {
            let rows_in = carried.len();
            let chunks_in = carried.chunks().len();
            // Tuples released by upstream flushes still have to traverse the
            // remaining stages.
            let mut released = if carried.is_empty() {
                TupleBatch::default()
            } else {
                self.stages[i].push_batch(&carried)
            };
            for t in self.stages[i].flush() {
                released.push_tuple(&t);
            }
            if let Some((tel, meters)) = &self.meters {
                let m = &meters[i];
                tel.add(&m.rows_in, rows_in as u64);
                tel.add(&m.chunks_in, chunks_in as u64);
                tel.add(&m.rows_out, released.len() as u64);
            }
            carried = released;
        }
        carried.into_tuples()
    }

    /// Run `rows` through the pipeline to completion — one batch push, then
    /// a flush — returning every output in order.  This is how finishers
    /// (`HAVING`, `TOP k`, projections over merged groups) turn a complete
    /// set of rows into an answer.
    pub fn finish(mut self, rows: Vec<Tuple>) -> Vec<Tuple> {
        let mut out = self.push_batch(&TupleBatch::new(rows)).into_tuples();
        out.extend(self.flush());
        out
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// True when the pipeline has no stages.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;

    fn row(table: &str, id: i64, category: &str, amount: i64) -> Tuple {
        Tuple::new(
            table,
            vec![
                ("id", Value::Int(id)),
                ("category", Value::Str(category.into())),
                ("amount", Value::Int(amount)),
            ],
        )
    }

    #[test]
    fn selection_filters_and_discards_malformed() {
        let mut sel = Selection::new(Expr::cmp(CmpOp::Gt, Expr::col("amount"), Expr::lit(10i64)));
        assert_eq!(sel.push(row("t", 1, "a", 50)).len(), 1);
        assert_eq!(sel.push(row("t", 2, "a", 5)).len(), 0);
        // Malformed: no amount column.
        let malformed = Tuple::new("t", vec![("id", Value::Int(3))]);
        assert_eq!(sel.push(malformed).len(), 0);
    }

    #[test]
    fn projection_and_limit() {
        let mut proj = Projection::new(vec!["id".into()]);
        let out = proj.push(row("t", 7, "x", 1));
        assert_eq!(out[0].columns(), &["id".to_string()]);
        let mut lim = Limit::new(2);
        assert_eq!(lim.push(row("t", 1, "a", 1)).len(), 1);
        assert_eq!(lim.push(row("t", 2, "a", 1)).len(), 1);
        assert_eq!(lim.push(row("t", 3, "a", 1)).len(), 0);
    }

    #[test]
    fn distinct_deduplicates_on_key() {
        let mut d = Distinct::new(vec!["category".into()]);
        assert_eq!(d.push(row("t", 1, "a", 1)).len(), 1);
        assert_eq!(d.push(row("t", 2, "a", 2)).len(), 0);
        assert_eq!(d.push(row("t", 3, "b", 3)).len(), 1);
        // Full-tuple dedup when no key given.
        let mut d = Distinct::new(vec![]);
        assert_eq!(d.push(row("t", 1, "a", 1)).len(), 1);
        assert_eq!(d.push(row("t", 1, "a", 1)).len(), 0);
        assert_eq!(d.push(row("t", 1, "a", 2)).len(), 1);
    }

    #[test]
    fn group_by_counts_and_sums() {
        let mut g = GroupBy::new(
            vec!["category".into()],
            vec![AggFunc::Count, AggFunc::Sum("amount".into())],
            "out",
        );
        for (cat, amount) in [("a", 10), ("b", 5), ("a", 20), ("a", 30), ("b", 5)] {
            assert!(g.push(row("t", 0, cat, amount)).is_empty());
        }
        let out = g.flush();
        assert_eq!(out.len(), 2);
        let a = out
            .iter()
            .find(|t| t.get("category") == Some(&Value::Str("a".into())))
            .unwrap();
        assert_eq!(a.get("count"), Some(&Value::Int(3)));
        assert_eq!(a.get("sum_amount"), Some(&Value::Float(60.0)));
    }

    #[test]
    fn group_by_merge_partial_matches_direct_computation() {
        // Two "nodes" each aggregate locally; the root merges their partials.
        let mk = || {
            GroupBy::new(
                vec!["category".into()],
                vec![AggFunc::Count, AggFunc::Avg("amount".into())],
                "out",
            )
        };
        let mut node1 = mk();
        let mut node2 = mk();
        let mut reference = mk();
        for (i, (cat, amount)) in [("a", 10), ("b", 4), ("a", 20), ("b", 8), ("a", 30)]
            .iter()
            .enumerate()
        {
            let t = row("t", i as i64, cat, *amount);
            if i % 2 == 0 {
                node1.push(t.clone());
            } else {
                node2.push(t.clone());
            }
            reference.push(t);
        }
        let mut root = mk();
        for partial in node1.flush().into_iter().chain(node2.flush()) {
            assert!(root.merge_partial(&partial));
        }
        let mut root_out = root.flush();
        let mut ref_out = reference.flush();
        let key = |t: &Tuple| t.get("category").unwrap().key_string();
        root_out.sort_by_key(key);
        ref_out.sort_by_key(key);
        for (a, b) in root_out.iter().zip(&ref_out) {
            assert_eq!(a.get("count"), b.get("count"));
            assert_eq!(a.get("avg_amount"), b.get("avg_amount"));
        }
    }

    #[test]
    fn top_k_orders_descending() {
        let mut t = TopK::new(2, "count");
        for (src, n) in [("a", 5), ("b", 50), ("c", 20)] {
            t.push(Tuple::new(
                "g",
                vec![("src", Value::Str(src.into())), ("count", Value::Int(n))],
            ));
        }
        let out = t.flush();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].get("src"), Some(&Value::Str("b".into())));
        assert_eq!(out[1].get("src"), Some(&Value::Str("c".into())));
    }

    #[test]
    fn bloom_filter_has_no_false_negatives() {
        let mut f = BloomFilter::new(1024, 3);
        let present: Vec<String> = (0..100).map(|i| format!("key-{i}")).collect();
        for k in &present {
            f.insert(k);
        }
        for k in &present {
            assert!(f.contains(k));
        }
        // False-positive rate should be modest at this load factor.
        let fp = (0..1000)
            .filter(|i| f.contains(&format!("absent-{i}")))
            .count();
        assert!(fp < 200, "false positives {fp}");
        assert_eq!(f.size_bytes() * 8, f.bit_len());
    }

    #[test]
    fn symmetric_hash_join_equals_nested_loop() {
        let left: Vec<Tuple> = (0..20)
            .map(|i| row("r", i, ["a", "b", "c"][(i % 3) as usize], i))
            .collect();
        let right: Vec<Tuple> = (0..15)
            .map(|i| {
                Tuple::new(
                    "s",
                    vec![
                        (
                            "category",
                            Value::Str(["a", "b", "c", "d"][(i % 4) as usize].into()),
                        ),
                        ("weight", Value::Int(i * 10)),
                    ],
                )
            })
            .collect();
        let key = vec!["category".to_string()];
        let mut shj = SymmetricHashJoin::new(key.clone(), key.clone(), "rs");
        let mut streamed = Vec::new();
        // Interleave arrivals, as the network would.
        let mut l = left.iter();
        let mut r = right.iter();
        loop {
            match (l.next(), r.next()) {
                (None, None) => break,
                (lt, rt) => {
                    if let Some(t) = lt {
                        streamed.extend(shj.push_side(JoinSide::Left, t.clone()));
                    }
                    if let Some(t) = rt {
                        streamed.extend(shj.push_side(JoinSide::Right, t.clone()));
                    }
                }
            }
        }
        let reference = nested_loop_join(&left, &right, &key, &key, "rs");
        assert_eq!(streamed.len(), reference.len());
        assert!(!streamed.is_empty());
        let (ls, rs) = shj.state_size();
        assert_eq!(ls, 20);
        assert_eq!(rs, 15);
    }

    #[test]
    fn pipeline_composes_and_flushes() {
        let mut p = Pipeline::new(vec![
            Box::new(Selection::new(Expr::cmp(
                CmpOp::Ge,
                Expr::col("amount"),
                Expr::lit(10i64),
            ))),
            Box::new(Queue::default()),
            Box::new(GroupBy::new(
                vec!["category".into()],
                vec![AggFunc::Count],
                "out",
            )),
            Box::new(TopK::new(1, "count")),
        ]);
        for (cat, amount) in [("a", 10), ("a", 20), ("b", 100), ("b", 1), ("c", 3)] {
            assert!(p.push(row("t", 0, cat, amount)).is_empty());
        }
        let out = p.flush();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get("category"), Some(&Value::Str("a".into())));
        assert_eq!(out[0].get("count"), Some(&Value::Int(2)));
        assert_eq!(p.len(), 4);
    }

    #[test]
    fn empty_pipeline_is_pass_through() {
        let mut p = Pipeline::new(vec![]);
        assert!(p.is_empty());
        assert_eq!(p.push(row("t", 1, "a", 1)).len(), 1);
        assert!(p.flush().is_empty());
    }

    fn netmon_rows(n: i64) -> Vec<Tuple> {
        (0..n)
            .map(|i| {
                Tuple::new(
                    "events",
                    vec![
                        ("src", Value::Str(format!("10.0.0.{}", i % 7).into())),
                        ("port", Value::Int(i % 1024)),
                        ("len", Value::Int(40 + i % 1400)),
                    ],
                )
            })
            .collect()
    }

    #[test]
    fn selection_batch_path_equals_per_tuple_path() {
        use crate::tuple::TupleBatch;
        let rows = netmon_rows(200);
        let pred = || Expr::cmp(CmpOp::Ge, Expr::col("port"), Expr::lit(100i64));
        let mut per_tuple = Selection::new(pred());
        let mut batched = Selection::new(pred());
        let expected: Vec<Tuple> = rows
            .iter()
            .cloned()
            .flat_map(|t| per_tuple.push(t))
            .collect();
        let got = batched.push_batch(&TupleBatch::new(rows));
        assert_eq!(
            got.chunks().len(),
            1,
            "single-schema survivors stay one chunk"
        );
        let got = got.into_tuples();
        assert_eq!(got, expected);
        assert!(!got.is_empty());
    }

    #[test]
    fn projection_batch_path_equals_per_tuple_path() {
        use crate::tuple::TupleBatch;
        let rows = netmon_rows(50);
        let cols = vec!["src".to_string(), "missing".to_string()];
        let mut per_tuple = Projection::new(cols.clone());
        let mut batched = Projection::new(cols);
        let expected: Vec<Tuple> = rows
            .iter()
            .cloned()
            .flat_map(|t| per_tuple.push(t))
            .collect();
        assert_eq!(
            batched.push_batch(&TupleBatch::new(rows)).into_tuples(),
            expected
        );
    }

    #[test]
    fn group_by_batch_absorb_equals_per_tuple_absorb() {
        use crate::tuple::TupleBatch;
        let rows = netmon_rows(300);
        let mk = || {
            GroupBy::new(
                vec!["src".into()],
                vec![AggFunc::Count, AggFunc::Sum("len".into())],
                "out",
            )
        };
        let mut per_tuple = mk();
        let mut batched = mk();
        for t in rows.iter().cloned() {
            per_tuple.push(t);
        }
        assert!(batched.push_batch(&TupleBatch::new(rows)).is_empty());
        assert_eq!(batched.flush(), per_tuple.flush());
    }

    #[test]
    fn join_chunk_path_equals_per_tuple_path() {
        use crate::tuple::TupleBatch;
        let left: Vec<Tuple> = (0..30)
            .map(|i| row("r", i, ["a", "b", "c"][(i % 3) as usize], i))
            .collect();
        let right: Vec<Tuple> = (0..20)
            .map(|i| {
                Tuple::new(
                    "s",
                    vec![
                        (
                            "category",
                            Value::Str(["a", "b", "c", "d"][(i % 4) as usize].into()),
                        ),
                        ("weight", Value::Int(i * 10)),
                    ],
                )
            })
            .collect();
        let key = vec!["category".to_string()];
        let mut per_tuple = SymmetricHashJoin::new(key.clone(), key.clone(), "rs");
        let mut chunked = SymmetricHashJoin::new(key.clone(), key, "rs");
        let mut expected = Vec::new();
        for t in left.iter().cloned() {
            expected.extend(per_tuple.push_side(JoinSide::Left, t));
        }
        for t in right.iter().cloned() {
            expected.extend(per_tuple.push_side(JoinSide::Right, t));
        }
        let mut got = Vec::new();
        for chunk in TupleBatch::new(left).chunks() {
            got.extend(
                chunked
                    .push_chunk_batch(JoinSide::Left, chunk)
                    .into_tuples(),
            );
        }
        for chunk in TupleBatch::new(right).chunks() {
            got.extend(
                chunked
                    .push_chunk_batch(JoinSide::Right, chunk)
                    .into_tuples(),
            );
        }
        assert_eq!(got.len(), expected.len());
        let canon = |v: &[Tuple]| {
            let mut s: Vec<String> = v.iter().map(std::string::ToString::to_string).collect();
            s.sort();
            s
        };
        assert_eq!(canon(&got), canon(&expected));
        assert_eq!(chunked.state_size(), per_tuple.state_size());
    }

    #[test]
    fn pipeline_batch_path_equals_per_tuple_path() {
        use crate::tuple::TupleBatch;
        let rows = netmon_rows(400);
        let mk = || {
            Pipeline::new(vec![
                Box::new(Selection::new(Expr::cmp(
                    CmpOp::Lt,
                    Expr::col("port"),
                    Expr::lit(900i64),
                ))) as Box<dyn LocalOperator + Send>,
                Box::new(Projection::new(vec!["src".into(), "len".into()])),
                Box::new(GroupBy::new(
                    vec!["src".into()],
                    vec![AggFunc::Count, AggFunc::Avg("len".into())],
                    "out",
                )),
            ])
        };
        let mut per_tuple = mk();
        let mut batched = mk();
        let mut expected = Vec::new();
        for t in rows.iter().cloned() {
            expected.extend(per_tuple.push(t));
        }
        let got = batched.push_batch(&TupleBatch::new(rows));
        assert_eq!(got.into_tuples(), expected);
        assert_eq!(batched.flush(), per_tuple.flush());
    }

    #[test]
    fn chunked_pipeline_stays_columnar_between_stages() {
        use crate::tuple::TupleBatch;
        // selection → projection → distinct over a single-schema batch: the
        // survivors leave every stage as one chunk (no per-tuple explosion).
        let rows = netmon_rows(100);
        let mut p = Pipeline::new(vec![
            Box::new(Selection::new(Expr::cmp(
                CmpOp::Lt,
                Expr::col("port"),
                Expr::lit(512i64),
            ))) as Box<dyn LocalOperator + Send>,
            Box::new(Projection::new(vec!["src".into()])),
            Box::new(Distinct::new(vec!["src".into()])),
        ]);
        let out = p.push_batch(&TupleBatch::new(rows));
        assert_eq!(out.chunks().len(), 1, "one chunk through the whole stack");
        assert_eq!(out.len(), 7, "seven distinct sources");
        for chunk in out.chunks() {
            assert_eq!(chunk.schema().columns(), &["src".to_string()]);
        }
    }

    #[test]
    fn limit_and_queue_batch_paths_match_per_tuple() {
        use crate::tuple::TupleBatch;
        let rows = netmon_rows(50);
        let mut lim_ref = Limit::new(17);
        let mut lim_batch = Limit::new(17);
        let expected: Vec<Tuple> = rows.iter().cloned().flat_map(|t| lim_ref.push(t)).collect();
        let mut got = Vec::new();
        for window in rows.chunks(20) {
            got.extend(
                lim_batch
                    .push_batch(&TupleBatch::new(window.to_vec()))
                    .into_tuples(),
            );
        }
        assert_eq!(got, expected);
        let mut q = Queue::default();
        let echoed = q.push_batch(&TupleBatch::new(rows.clone()));
        assert_eq!(echoed.into_tuples(), rows);
        assert_eq!(q.yields, 50);
    }
}
