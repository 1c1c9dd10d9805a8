//! Eddies: adaptive, run-time reordering of query operators (§4.2.2).
//!
//! PIER's answer to query optimization without a catalog is *runtime*
//! reoptimization: "we have implemented a prototype version of an eddy \[2\]
//! as an optional operator that can be employed in UFL plans.  A set of UFL
//! operators can be 'wired up' to an eddy, and in principle benefit from the
//! eddy's ability to reorder the operators."
//!
//! An [`Eddy`] holds a set of commutative tuple-at-a-time operators
//! (selections and other filters) and decides, per tuple, which operator to
//! visit next.  The two ingredients the paper names — **observation** of
//! per-operator dataflow rates and a **decision mechanism** for routing —
//! are the [`OperatorObservation`] statistics and the [`RoutingPolicy`]:
//!
//! * [`RoutingPolicy::Fixed`] — always use the wiring order (the behaviour
//!   of a static plan; the baseline in the ablation),
//! * [`RoutingPolicy::RoundRobin`] — rotate the starting operator, spreading
//!   work with no learning, and
//! * [`RoutingPolicy::Lottery`] — the classic eddy policy: favour operators
//!   that drop a larger fraction of the tuples they see ("fast fail"), so
//!   the plan converges toward evaluating the most selective predicate
//!   first without any prior statistics.
//!
//! The distributed dimension discussed in the paper — each node's eddy only
//! observes locally-routed data, and naive cross-site statistics exchange
//! would be too expensive — is captured by [`OperatorObservation::merge`]:
//! observations are mergeable partial states, so nodes *can* gossip or
//! aggregate them through the DHT exactly like any other partial aggregate,
//! and the ablation can quantify what that buys.

use crate::expr::{CompiledPredicate, Expr};
use crate::operators::LocalOperator;
use crate::tuple::{ColumnChunk, Tuple, TupleBatch};
use pier_runtime::Rng64;
use pier_telemetry::Telemetry;

/// Rows routed between two lottery re-draws inside one chunk.  Deciding the
/// order once per chunk is cheap but lets a skewed stream lock in a stale
/// order for the whole chunk (observations arrive in chunk strides);
/// re-drawing every `EDDY_REORDER_ROWS` rows bounds how long a mid-stream
/// selectivity flip can go unnoticed, independent of chunk size.
pub const EDDY_REORDER_ROWS: usize = 32;

/// A filter-style operator an eddy can route tuples through: it either
/// passes the tuple (possibly transformed) or drops it.  Unlike a full
/// [`LocalOperator`] it cannot multiply tuples, which is what makes
/// reordering safe.
pub trait EddyFilter: std::fmt::Debug {
    /// A short name used in observations and experiment output.
    fn name(&self) -> &str;
    /// Process one tuple; `None` drops it.
    fn apply(&mut self, tuple: Tuple) -> Option<Tuple>;
    /// Decide row `r` of a columnar chunk without materialising it, for
    /// filters that only pass or drop (never transform): `Some(true)` passes
    /// the row, `Some(false)` drops it, `None` means the filter cannot
    /// decide chunk-wise and the eddy falls back to [`EddyFilter::apply`] on
    /// a materialised row.  Implementors that return `Some` here must also
    /// report [`EddyFilter::supports_chunks`] and must never transform
    /// tuples in `apply`.
    fn apply_row(&mut self, _chunk: &ColumnChunk, _r: usize) -> Option<bool> {
        None
    }
    /// True when [`EddyFilter::apply_row`] always decides (pure pass/drop
    /// filter); enables the zero-materialisation mask path of
    /// [`Eddy::route_batch`].
    fn supports_chunks(&self) -> bool {
        false
    }
}

/// A selection predicate as an eddy filter.  The predicate is compiled
/// against each schema it meets once ([`CompiledPredicate`]), so routing a
/// tuple evaluates by column index — no per-tuple name lookups.
#[derive(Debug)]
pub struct PredicateFilter {
    name: String,
    predicate: CompiledPredicate,
}

impl PredicateFilter {
    /// Wrap a predicate.
    pub fn new(name: impl Into<String>, predicate: Expr) -> Self {
        PredicateFilter {
            name: name.into(),
            predicate: CompiledPredicate::new(predicate),
        }
    }
}

impl EddyFilter for PredicateFilter {
    fn name(&self) -> &str {
        &self.name
    }

    fn apply(&mut self, tuple: Tuple) -> Option<Tuple> {
        if self.predicate.matches_tuple(&tuple) {
            Some(tuple)
        } else {
            None
        }
    }

    fn apply_row(&mut self, chunk: &ColumnChunk, r: usize) -> Option<bool> {
        Some(
            self.predicate
                .for_schema(chunk.schema())
                .matches_view(&chunk.row_view(r)),
        )
    }

    fn supports_chunks(&self) -> bool {
        true
    }
}

/// Per-observation retention factor of the exponentially decayed drop-rate
/// estimate: past evidence loses half its weight every
/// [`OBS_HALF_LIFE_ROWS`] tuples an operator sees.  Cumulative rates made
/// the lottery slow to react when a long history had to be overcome (a
/// selectivity flip after 1 000 rows needed ~250 rows of contrary evidence
/// to cross); with decay the crossover happens within roughly two half-lives
/// regardless of how much history preceded the flip.
pub const OBS_HALF_LIFE_ROWS: f64 = 48.0;

/// The per-observation retention factor itself, `0.5^(1/48)`, precomputed
/// so the per-row record path pays no transcendental call (pinned equal to
/// the formula by a test).
const OBS_DECAY: f64 = 0.985_663_198_640_187_6;

/// Per-operator dataflow observations (the eddy's "observation" half).
/// Mergeable so distributed eddies can combine what different nodes saw.
///
/// Two estimates are kept: cumulative totals (`seen`/`dropped`, for
/// diagnostics and the work metrics of the ablation) and an exponentially
/// decayed pair driving [`OperatorObservation::drop_rate`], so the lottery
/// weighs *recent* selectivity and adapts to a mid-stream flip within a
/// bounded row budget instead of dragging the whole history along.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OperatorObservation {
    /// Tuples routed into the operator (cumulative).
    pub seen: u64,
    /// Tuples the operator dropped (cumulative).
    pub dropped: u64,
    /// Exponentially decayed tuple weight.
    decayed_seen: f64,
    /// Exponentially decayed dropped weight.
    decayed_dropped: f64,
}

impl OperatorObservation {
    /// Record one routed tuple and whether the operator dropped it.
    pub fn record(&mut self, dropped: bool) {
        self.seen += 1;
        self.decayed_seen = self.decayed_seen * OBS_DECAY + 1.0;
        self.decayed_dropped *= OBS_DECAY;
        if dropped {
            self.dropped += 1;
            self.decayed_dropped += 1.0;
        }
    }

    /// Recency-weighted drop probability, with an optimistic prior of 0.5
    /// before any evidence (so unexplored operators still get tried).
    pub fn drop_rate(&self) -> f64 {
        if self.decayed_seen <= f64::EPSILON {
            0.5
        } else {
            self.decayed_dropped / self.decayed_seen
        }
    }

    /// Drop fraction over the operator's whole history (diagnostics; the
    /// lottery routes on [`OperatorObservation::drop_rate`]).
    pub fn cumulative_drop_rate(&self) -> f64 {
        if self.seen == 0 {
            0.5
        } else {
            self.dropped as f64 / self.seen as f64
        }
    }

    /// Merge another node's observations for the same operator (§4.2.2's
    /// cross-site aggregation of eddy statistics).  Both the cumulative
    /// totals and the decayed estimates combine, so a warm-started eddy
    /// inherits the remote node's *recent* selectivity view.
    pub fn merge(&mut self, other: &OperatorObservation) {
        self.seen += other.seen;
        self.dropped += other.dropped;
        self.decayed_seen += other.decayed_seen;
        self.decayed_dropped += other.decayed_dropped;
    }
}

/// The eddy's routing policy (its "decision mechanism").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingPolicy {
    /// Visit operators in wiring order — equivalent to a static plan.
    Fixed,
    /// Rotate the starting operator per tuple, no learning.
    RoundRobin,
    /// Lottery scheduling on observed drop rates: operators that fail tuples
    /// faster get visited earlier.
    Lottery,
}

/// The eddy operator: routes each tuple through every filter until one drops
/// it or all have passed it.
#[derive(Debug)]
pub struct Eddy {
    filters: Vec<Box<dyn EddyFilter + Send>>,
    observations: Vec<OperatorObservation>,
    policy: RoutingPolicy,
    rng: Rng64,
    round_robin_offset: usize,
    /// Total operator invocations — the "work" metric of the ablation.
    invocations: u64,
    tuples_in: u64,
    tuples_out: u64,
    /// Telemetry handle plus the last routing order it saw, so only actual
    /// order changes are reported as `eddy_reorder` events.
    tel: Telemetry,
    last_order: Vec<usize>,
}

impl Eddy {
    /// Create an eddy over the given filters.
    pub fn new(filters: Vec<Box<dyn EddyFilter + Send>>, policy: RoutingPolicy, seed: u64) -> Self {
        let n = filters.len();
        Eddy {
            filters,
            observations: vec![OperatorObservation::default(); n],
            policy,
            rng: Rng64::new(seed ^ 0xEDD1),
            round_robin_offset: 0,
            invocations: 0,
            tuples_in: 0,
            tuples_out: 0,
            tel: Telemetry::disabled(),
            last_order: Vec::new(),
        }
    }

    /// Attach a telemetry hub: routing-order changes are counted (and
    /// traced) as they happen, and the cumulative throughput/observation
    /// counts are synced as `eddy.*` gauges on every [`Eddy::flush`] or
    /// explicit [`Eddy::sync_telemetry`] call.
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.tel = tel;
    }

    /// Publish the eddy's cumulative counters into the hub: total
    /// invocations and tuples in/out as `eddy.*` gauges, plus per-operator
    /// seen/dropped counts as `eddy.op<i>.*` gauges — the diagnostics the
    /// adaptivity experiments read, now queryable.
    pub fn sync_telemetry(&self) {
        if !self.tel.is_enabled() {
            return;
        }
        self.tel.gauge("eddy.invocations", self.invocations as f64);
        self.tel.gauge("eddy.tuples_in", self.tuples_in as f64);
        self.tel.gauge("eddy.tuples_out", self.tuples_out as f64);
        for (i, obs) in self.observations.iter().enumerate() {
            self.tel.gauge(&format!("eddy.op{i}.seen"), obs.seen as f64);
            self.tel
                .gauge(&format!("eddy.op{i}.dropped"), obs.dropped as f64);
        }
    }

    /// Draw the next routing order, reporting a change of order to the hub.
    fn next_order(&mut self) -> Vec<usize> {
        let order = self.route_order();
        if self.tel.is_enabled() && order != self.last_order {
            self.tel.inc("eddy.reorders");
            let order_str = order
                .iter()
                .map(std::string::ToString::to_string)
                .collect::<Vec<_>>()
                .join(",");
            self.tel
                .event("eddy_reorder", || vec![("order", order_str)]);
            self.last_order = order.clone();
        }
        order
    }

    /// Convenience: an eddy over named selection predicates.
    pub fn over_predicates(
        predicates: Vec<(String, Expr)>,
        policy: RoutingPolicy,
        seed: u64,
    ) -> Self {
        let filters: Vec<Box<dyn EddyFilter + Send>> = predicates
            .into_iter()
            .map(|(name, p)| Box::new(PredicateFilter::new(name, p)) as Box<dyn EddyFilter + Send>)
            .collect();
        Eddy::new(filters, policy, seed)
    }

    /// Number of wired filters.
    pub fn filter_count(&self) -> usize {
        self.filters.len()
    }

    /// Total operator invocations so far (the work an optimizer tries to
    /// minimize: every invocation is CPU spent and, for index filters,
    /// potentially a network probe).
    pub fn invocations(&self) -> u64 {
        self.invocations
    }

    /// Tuples pushed in / tuples that survived every filter.
    pub fn throughput(&self) -> (u64, u64) {
        (self.tuples_in, self.tuples_out)
    }

    /// The per-operator observations, in wiring order.
    pub fn observations(&self) -> &[OperatorObservation] {
        &self.observations
    }

    /// Fold another eddy's observations into this one's (distributed eddies
    /// aggregating their statistics).  Operators are matched by position;
    /// mismatched lengths are ignored beyond the shorter prefix.
    pub fn absorb_observations(&mut self, remote: &[OperatorObservation]) {
        for (mine, theirs) in self.observations.iter_mut().zip(remote) {
            mine.merge(theirs);
        }
    }

    /// Decide the visiting order for the next tuple.
    fn route_order(&mut self) -> Vec<usize> {
        let n = self.filters.len();
        match self.policy {
            RoutingPolicy::Fixed => (0..n).collect(),
            RoutingPolicy::RoundRobin => {
                let start = self.round_robin_offset % n.max(1);
                self.round_robin_offset = self.round_robin_offset.wrapping_add(1);
                (0..n).map(|i| (start + i) % n).collect()
            }
            RoutingPolicy::Lottery => {
                // Ticket counts proportional to observed drop rate; break ties
                // with a small random jitter so equally-selective operators
                // share the first position (and keep being explored).
                let mut order: Vec<usize> = (0..n).collect();
                let jitter: Vec<f64> = (0..n).map(|_| self.rng.f64() * 0.05).collect();
                order.sort_by(|a, b| {
                    let score_a = self.observations[*a].drop_rate() + jitter[*a];
                    let score_b = self.observations[*b].drop_rate() + jitter[*b];
                    score_b
                        .partial_cmp(&score_a)
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                order
            }
        }
    }

    /// Apply `order`'s filters to an owned tuple with full
    /// observation/invocation bookkeeping — the single materialised filter
    /// loop shared by per-tuple routing and the chunk path's fallbacks.
    fn apply_filters(&mut self, order: &[usize], tuple: Tuple) -> Option<Tuple> {
        let mut current = tuple;
        for &idx in order {
            self.invocations += 1;
            match self.filters[idx].apply(current) {
                Some(t) => {
                    self.observations[idx].record(false);
                    current = t;
                }
                None => {
                    self.observations[idx].record(true);
                    return None;
                }
            }
        }
        Some(current)
    }

    /// Route one tuple through the filters in the given order, maintaining
    /// all observation/throughput bookkeeping — shared by [`Eddy::route`]
    /// and [`Eddy::route_batch`]'s materialised path.
    fn route_with_order(&mut self, order: &[usize], tuple: Tuple) -> Option<Tuple> {
        self.tuples_in += 1;
        let survivor = self.apply_filters(order, tuple)?;
        self.tuples_out += 1;
        Some(survivor)
    }

    /// Route one borrowed chunk row through the filters in the given order,
    /// with the same observation/throughput bookkeeping as
    /// [`Eddy::route_with_order`] but no tuple materialisation.  Returns
    /// whether the row survives.  A filter that unexpectedly declines the
    /// chunk-wise decision (contract slip) finishes the row materialised;
    /// chunk-capable filters never transform, so survival is all that
    /// matters for the output mask.
    fn route_row_in_chunk(&mut self, order: &[usize], chunk: &ColumnChunk, r: usize) -> bool {
        self.tuples_in += 1;
        for (pos, &idx) in order.iter().enumerate() {
            self.invocations += 1;
            match self.filters[idx].apply_row(chunk, r) {
                Some(true) => self.observations[idx].record(false),
                Some(false) => {
                    self.observations[idx].record(true);
                    return false;
                }
                None => {
                    debug_assert!(false, "supports_chunks filter declined apply_row");
                    // Nothing was recorded for this filter yet: roll back the
                    // invocation count and finish the row through the shared
                    // materialised loop from this filter onward;
                    // chunk-capable filters never transform, so survival is
                    // all that matters for the mask.
                    self.invocations -= 1;
                    let survived = self.apply_filters(&order[pos..], chunk.row(r)).is_some();
                    if survived {
                        self.tuples_out += 1;
                    }
                    return survived;
                }
            }
        }
        self.tuples_out += 1;
        true
    }

    /// Route one tuple; returns the tuple if it survives every filter.
    pub fn route(&mut self, tuple: Tuple) -> Option<Tuple> {
        let order = self.next_order();
        self.route_with_order(&order, tuple)
    }

    /// Route a whole batch, emitting the survivors as re-chunked columnar
    /// output.  When every filter is chunk-capable
    /// ([`EddyFilter::supports_chunks`]) rows are decided over borrowed
    /// [`ChunkRow`](crate::tuple::ChunkRow) views and survivors leave as one
    /// filtered chunk per input chunk — zero per-row tuple materialisations;
    /// transforming filters fall back to materialised per-row routing.
    ///
    /// The visiting order is re-drawn every [`EDDY_REORDER_ROWS`] rows (not
    /// once per chunk), so observations keep feeding back into routing at a
    /// granularity independent of how arrivals were batched — a mid-stream
    /// selectivity flip re-orders the filters within a bounded number of
    /// rows even inside one huge chunk.  Produces the same survivor
    /// multiset as per-tuple routing, since the filters are commutative.
    pub fn route_batch(&mut self, batch: &TupleBatch) -> TupleBatch {
        let chunkable = self.filters.iter().all(|f| f.supports_chunks());
        let mut out = TupleBatch::default();
        for chunk in batch.chunks() {
            let mut order = self.next_order();
            if chunkable {
                let mut mask = vec![false; chunk.rows()];
                for (r, kept) in mask.iter_mut().enumerate() {
                    if r > 0 && r % EDDY_REORDER_ROWS == 0 {
                        order = self.next_order();
                    }
                    *kept = self.route_row_in_chunk(&order, chunk, r);
                }
                out.push_filtered(chunk, &mask);
            } else {
                for r in 0..chunk.rows() {
                    if r > 0 && r % EDDY_REORDER_ROWS == 0 {
                        order = self.next_order();
                    }
                    if let Some(t) = self.route_with_order(&order, chunk.row(r)) {
                        out.push_tuple(&t);
                    }
                }
            }
        }
        out
    }
}

impl LocalOperator for Eddy {
    fn name(&self) -> &'static str {
        "eddy"
    }

    fn push(&mut self, tuple: Tuple) -> Vec<Tuple> {
        self.route(tuple).into_iter().collect()
    }

    fn push_batch(&mut self, batch: &TupleBatch) -> TupleBatch {
        self.route_batch(batch)
    }

    /// The eddy buffers nothing, so flush is the natural moment to sync its
    /// cumulative diagnostics into the hub (pipelines flush at window and
    /// aggregation boundaries).
    fn flush(&mut self) -> Vec<Tuple> {
        self.sync_telemetry();
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn row(a: i64, b: i64, c: i64) -> Tuple {
        Tuple::new(
            "t",
            vec![
                ("a", Value::Int(a)),
                ("b", Value::Int(b)),
                ("c", Value::Int(c)),
            ],
        )
    }

    fn three_predicates() -> Vec<(String, Expr)> {
        vec![
            // Barely selective: a >= 0 passes everything in the workload.
            (
                "weak".to_string(),
                Expr::cmp(crate::expr::CmpOp::Ge, Expr::col("a"), Expr::lit(0i64)),
            ),
            // Medium: b < 50 passes half.
            (
                "medium".to_string(),
                Expr::cmp(crate::expr::CmpOp::Lt, Expr::col("b"), Expr::lit(50i64)),
            ),
            // Strong: c = 7 passes 1 %.
            ("strong".to_string(), Expr::eq("c", 7i64)),
        ]
    }

    fn workload(n: i64) -> Vec<Tuple> {
        (0..n).map(|i| row(i, i % 100, i % 100)).collect()
    }

    #[test]
    fn all_policies_produce_the_same_result_set() {
        let tuples = workload(500);
        let mut results = Vec::new();
        for policy in [
            RoutingPolicy::Fixed,
            RoutingPolicy::RoundRobin,
            RoutingPolicy::Lottery,
        ] {
            let mut eddy = Eddy::over_predicates(three_predicates(), policy, 1);
            let survived: Vec<Tuple> = tuples
                .iter()
                .cloned()
                .filter_map(|t| eddy.route(t))
                .collect();
            results.push(survived.len());
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[1], results[2]);
        assert_eq!(results[0], 5, "c = 7 matches 5 of the 500 rows");
    }

    #[test]
    fn lottery_does_less_work_than_a_bad_fixed_order() {
        let tuples = workload(2_000);
        // Fixed order as wired: weak, medium, strong — the worst order.
        let mut fixed = Eddy::over_predicates(three_predicates(), RoutingPolicy::Fixed, 1);
        // Lottery learns to put the strong predicate first.
        let mut lottery = Eddy::over_predicates(three_predicates(), RoutingPolicy::Lottery, 1);
        for t in &tuples {
            fixed.route(t.clone());
            lottery.route(t.clone());
        }
        assert!(
            lottery.invocations() < fixed.invocations(),
            "lottery {} must beat bad fixed order {}",
            lottery.invocations(),
            fixed.invocations()
        );
    }

    #[test]
    fn observations_record_selectivity() {
        let mut eddy = Eddy::over_predicates(three_predicates(), RoutingPolicy::Fixed, 1);
        for t in workload(200) {
            eddy.route(t);
        }
        let obs = eddy.observations();
        assert_eq!(obs[0].seen, 200);
        assert!(
            obs[0].drop_rate() < 0.1,
            "weak predicate drops almost nothing"
        );
        assert!(
            obs[2].drop_rate() > 0.9,
            "strong predicate drops almost everything"
        );
        let (seen, out) = eddy.throughput();
        assert_eq!(seen, 200);
        assert!(out <= 2);
    }

    #[test]
    fn merged_observations_accumulate_counts() {
        let record = |drops: u64, passes: u64| {
            let mut o = OperatorObservation::default();
            for _ in 0..drops {
                o.record(true);
            }
            for _ in 0..passes {
                o.record(false);
            }
            o
        };
        let mut a = record(3, 7);
        let b = record(37, 3);
        a.merge(&b);
        assert_eq!(a.seen, 50);
        assert_eq!(a.dropped, 40);
        assert!((a.cumulative_drop_rate() - 0.8).abs() < 1e-9);
        // The decayed estimate also combines: mostly-dropping history on
        // both sides keeps the merged rate high.
        assert!(a.drop_rate() > 0.4, "decayed rate {}", a.drop_rate());
        assert_eq!(OperatorObservation::default().drop_rate(), 0.5);
        assert_eq!(OperatorObservation::default().cumulative_drop_rate(), 0.5);
    }

    #[test]
    fn precomputed_decay_matches_the_half_life_formula() {
        assert!((OBS_DECAY - 0.5_f64.powf(1.0 / OBS_HALF_LIFE_ROWS)).abs() < 1e-15);
    }

    #[test]
    fn decayed_drop_rate_tracks_recent_selectivity() {
        // 1 000 drops followed by two half-lives of passes: the cumulative
        // rate barely moves, the decayed rate collapses below 0.3.
        let mut o = OperatorObservation::default();
        for _ in 0..1_000 {
            o.record(true);
        }
        assert!(o.drop_rate() > 0.99);
        for _ in 0..(2.0 * OBS_HALF_LIFE_ROWS) as usize {
            o.record(false);
        }
        assert!(
            o.drop_rate() < 0.3,
            "decayed rate {} must forget the old regime within two half-lives",
            o.drop_rate()
        );
        assert!(
            o.cumulative_drop_rate() > 0.9,
            "cumulative rate {} keeps the full history",
            o.cumulative_drop_rate()
        );
    }

    #[test]
    fn absorbing_remote_observations_speeds_up_learning() {
        // A "remote" eddy has already seen the workload and learned the drop
        // rates; a fresh eddy that absorbs those observations should start
        // with near-optimal routing.
        let tuples = workload(1_000);
        let mut remote = Eddy::over_predicates(three_predicates(), RoutingPolicy::Lottery, 3);
        for t in &tuples {
            remote.route(t.clone());
        }
        let mut cold = Eddy::over_predicates(three_predicates(), RoutingPolicy::Lottery, 4);
        let mut warmed = Eddy::over_predicates(three_predicates(), RoutingPolicy::Lottery, 4);
        warmed.absorb_observations(remote.observations());
        for t in &tuples {
            cold.route(t.clone());
            warmed.route(t.clone());
        }
        assert!(
            warmed.invocations() <= cold.invocations(),
            "warm start {} should not do more work than cold start {}",
            warmed.invocations(),
            cold.invocations()
        );
    }

    #[test]
    fn eddy_acts_as_a_local_operator_in_a_pipeline() {
        use crate::operators::Pipeline;
        let eddy = Eddy::over_predicates(three_predicates(), RoutingPolicy::Lottery, 9);
        let mut p = Pipeline::new(vec![Box::new(eddy)]);
        let mut kept = 0;
        for t in workload(300) {
            kept += p.push(t).len();
        }
        assert_eq!(kept, 3, "c = 7 matches rows 7, 107, 207");
    }

    #[test]
    fn route_batch_survivors_match_per_tuple_routing_and_stay_chunked() {
        let tuples = workload(500);
        let mut per_tuple = Eddy::over_predicates(three_predicates(), RoutingPolicy::Fixed, 5);
        let mut batched = Eddy::over_predicates(three_predicates(), RoutingPolicy::Fixed, 5);
        let expected: Vec<Tuple> = tuples
            .iter()
            .cloned()
            .filter_map(|t| per_tuple.route(t))
            .collect();
        let got = batched.route_batch(&TupleBatch::new(tuples));
        // Pure predicate filters take the mask path: survivors come back as
        // one filtered chunk, not per-row tuples.
        assert!(got.chunks().len() <= 1);
        assert_eq!(got.into_tuples(), expected);
        assert_eq!(batched.throughput(), per_tuple.throughput());
    }

    #[test]
    fn redraw_within_chunk_adapts_to_a_mid_stream_selectivity_flip() {
        // Two filters whose selectivities flip mid-stream: rows 0..1000 are
        // all dropped by `flip_a` and all pass `flip_b`; rows 1000..4000 the
        // reverse.  The whole stream arrives as ONE 4000-row chunk, the
        // worst case for once-per-chunk routing (the stale order would cost
        // 2 invocations/row for the entire 3000-row tail ⇒ ≥ 7000 total).
        // Re-drawing the lottery every EDDY_REORDER_ROWS rows must re-order
        // the filters within a bounded number of rows of the flip:
        //   phase 1: ≤ EDDY_REORDER_ROWS rows at 2/row before `flip_a`
        //            (drop rate 1.0) takes the front, then 1/row;
        //   phase 2: the *exponentially decayed* drop rates cross — `flip_a`
        //            halves every OBS_HALF_LIFE_ROWS rows while `flip_b`
        //            climbs — within ~2 half-lives (≈ 96 rows) even against
        //            the worst-case 0.05 jitter, independent of how long
        //            phase 1 ran; then `flip_b` leads for good at 1/row.
        //            (Cumulative rates needed ~250 rows to overcome the
        //            1 000-row history; decay makes the budget constant.)
        let rows: Vec<Tuple> = (0..4000)
            .map(|i| {
                let phase = i64::from(i >= 1000);
                row(i, phase, phase)
            })
            .collect();
        let predicates = vec![
            ("flip_a".to_string(), Expr::eq("b", 1i64)),
            ("flip_b".to_string(), Expr::eq("c", 0i64)),
        ];
        let mut eddy = Eddy::over_predicates(predicates, RoutingPolicy::Lottery, 11);
        let batch = TupleBatch::new(rows);
        assert_eq!(batch.chunks().len(), 1, "one chunk, worst case");
        let survivors = eddy.route_batch(&batch);
        assert!(survivors.is_empty(), "no row passes both phases' filters");
        let bound = 4000 + 5 * EDDY_REORDER_ROWS as u64;
        assert!(
            eddy.invocations() <= bound,
            "re-drawn routing with decayed observations must spend ≤ {bound} \
             invocations, spent {} (a single order per chunk would spend \
             ≥ 7000; cumulative rates spent ≈ 4000 + 250)",
            eddy.invocations()
        );
        // After the crossover `flip_a` stops being visited: its seen count
        // stays within the same bounded window past the flip.
        assert!(
            eddy.observations()[0].seen <= 1000 + 5 * EDDY_REORDER_ROWS as u64,
            "stale filter kept receiving rows: {:?}",
            eddy.observations()
        );
    }

    #[test]
    fn round_robin_rotates_start_but_preserves_coverage() {
        let mut eddy = Eddy::over_predicates(three_predicates(), RoutingPolicy::RoundRobin, 2);
        // A tuple that passes everything visits all three filters regardless
        // of rotation.
        let survivor = row(7, 7, 7);
        for _ in 0..6 {
            assert!(eddy.route(survivor.clone()).is_some());
        }
        assert_eq!(eddy.invocations(), 18);
        assert_eq!(eddy.filter_count(), 3);
    }

    #[test]
    fn telemetry_reconciles_with_pipeline_operator_counters() {
        use crate::operators::Pipeline;

        let tel = Telemetry::attached();
        let mut eddy = Eddy::over_predicates(three_predicates(), RoutingPolicy::Lottery, 7);
        eddy.set_telemetry(tel.clone());
        let mut pipeline = Pipeline::new(vec![Box::new(eddy)]);
        pipeline.set_telemetry(&tel);

        let mut batch = TupleBatch::default();
        for i in 0..200i64 {
            batch.push_tuple(&row(i, i % 100, i % 10));
        }
        let out = pipeline.push_batch(&batch);
        pipeline.flush(); // triggers the eddy's gauge sync

        // The pipeline's per-operator counters and the eddy's own cumulative
        // diagnostics describe the same stream.
        assert_eq!(tel.counter("op.eddy.rows_in"), 200);
        assert_eq!(tel.counter("op.eddy.rows_out"), out.len() as u64);
        assert_eq!(tel.gauge_value("eddy.tuples_in"), Some(200.0));
        assert_eq!(tel.gauge_value("eddy.tuples_out"), Some(out.len() as f64));

        // Per-operator drop counts account for every tuple the eddy lost.
        let dropped: f64 = (0..3)
            .map(|i| tel.gauge_value(&format!("eddy.op{i}.dropped")).unwrap())
            .sum();
        assert_eq!(dropped as u64, 200 - out.len() as u64);
        // And every invocation is a row seen by some operator.
        let seen: f64 = (0..3)
            .map(|i| tel.gauge_value(&format!("eddy.op{i}.seen")).unwrap())
            .sum();
        assert_eq!(Some(seen), tel.gauge_value("eddy.invocations"));
        // At least the initial order draw was reported.
        assert!(tel.counter("eddy.reorders") >= 1);
    }
}
