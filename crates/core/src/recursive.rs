//! Recursive queries: semi-naive evaluation of reachability over link
//! tables (§3.3.2).
//!
//! "PIER supports UFL graphs with cycles, and such recursive queries in
//! PIER are the topic of research beyond the scope of this paper \[42\]" —
//! the reference being the *declarative routing* work, whose canonical
//! query is network reachability / path finding over a distributed `links`
//! table.  This module provides the local evaluation machinery for that
//! query class:
//!
//! * [`TransitiveClosure`] — a complete local semi-naive fixpoint evaluator
//!   over edge tuples, used as the reference implementation in tests and
//!   for purely local data, and
//! * [`ReachabilityRound`] — the per-iteration step of the *distributed*
//!   evaluation: given the current frontier and the link tuples fetched for
//!   it (by a Fetch Matches join against the DHT-published `links` table,
//!   one round per hop), it produces the next frontier and the newly
//!   discovered nodes.  The driver that issues the per-round distributed
//!   joins lives in `pier-harness`, mirroring how a cyclic UFL opgraph
//!   feeds its own output namespace back into its source.
//!
//! Semi-naive evaluation only ever joins the *delta* (the newly discovered
//! frontier) with the link table, so each round's distributed work is
//! proportional to the new facts, not to everything discovered so far.

use crate::tuple::Tuple;
use crate::value::Value;
use std::collections::{BTreeMap, BTreeSet};

/// Canonical node name used for frontier membership: plain text for string
/// values (so callers can pass node names like `"10.0.0.7"` directly as the
/// start), the typed key string otherwise.
fn node_name(value: &Value) -> String {
    value
        .as_str()
        .map_or_else(|| value.key_string(), str::to_string)
}

/// A local semi-naive transitive-closure evaluator over edge tuples.
#[derive(Debug, Clone, Default)]
pub struct TransitiveClosure {
    /// Adjacency: src → set of dst.
    edges: BTreeMap<String, BTreeSet<String>>,
}

impl TransitiveClosure {
    /// Create an empty evaluator.
    pub fn new() -> Self {
        TransitiveClosure::default()
    }

    /// Add one edge from an edge tuple with the given source and destination
    /// columns; malformed tuples (missing columns) are discarded, per the
    /// best-effort policy of §3.3.4.  Returns whether the edge was added.
    pub fn add_edge_tuple(&mut self, tuple: &Tuple, src_col: &str, dst_col: &str) -> bool {
        match (tuple.get(src_col), tuple.get(dst_col)) {
            (Some(s), Some(d)) => {
                self.add_edge(node_name(s), node_name(d));
                true
            }
            _ => false,
        }
    }

    /// Add one edge by key strings.
    pub fn add_edge(&mut self, src: String, dst: String) {
        self.edges.entry(src).or_default().insert(dst);
    }

    /// Number of distinct edges.
    pub fn edge_count(&self) -> usize {
        self.edges.values().map(BTreeSet::len).sum()
    }

    /// Direct successors of `node`.
    pub fn successors(&self, node: &str) -> Vec<String> {
        self.edges
            .get(node)
            .map(|s| s.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// All nodes reachable from `start` (excluding `start` itself unless it
    /// lies on a cycle back to itself), computed by semi-naive fixpoint
    /// iteration.  Also returns the number of iterations (the longest
    /// shortest-path length discovered), which the distributed driver uses
    /// to report round counts.
    pub fn reachable_from(&self, start: &str) -> (BTreeSet<String>, usize) {
        let mut reached: BTreeSet<String> = BTreeSet::new();
        let mut frontier: BTreeSet<String> = BTreeSet::new();
        frontier.insert(start.to_string());
        let mut rounds = 0usize;
        while !frontier.is_empty() {
            let mut next: BTreeSet<String> = BTreeSet::new();
            for node in &frontier {
                for dst in self.successors(node) {
                    if !reached.contains(&dst) && !frontier.contains(&dst) {
                        next.insert(dst);
                    }
                }
            }
            // The frontier becomes part of the reached set; the brand-new
            // nodes form the next delta.
            for f in &frontier {
                if f != start {
                    reached.insert(f.clone());
                }
            }
            // Self-loops / cycles back to the start are reported too.
            if next.contains(start) {
                reached.insert(start.to_string());
                next.remove(start);
            }
            frontier = next;
            rounds += 1;
        }
        (reached, rounds.saturating_sub(1))
    }

    /// The full transitive closure as (src, dst) pairs — the reference
    /// answer used to validate the distributed evaluation in tests.
    pub fn closure(&self) -> BTreeSet<(String, String)> {
        let mut out = BTreeSet::new();
        let sources: BTreeSet<String> = self
            .edges
            .keys()
            .cloned()
            .chain(self.edges.values().flatten().cloned())
            .collect();
        for src in sources {
            let (reached, _) = self.reachable_from(&src);
            for dst in reached {
                out.insert((src.clone(), dst));
            }
        }
        out
    }
}

/// One round of the distributed semi-naive evaluation.
///
/// The distributed driver keeps the set of already-reached nodes and the
/// current frontier.  Each round it issues one distributed index join: for
/// every frontier node, a Fetch Matches probe against the `links` table
/// (published in the DHT hashed on the source column) returns that node's
/// outgoing edges.  Feeding those result tuples into
/// [`ReachabilityRound::absorb`] yields the next frontier.
#[derive(Debug, Clone)]
pub struct ReachabilityRound {
    src_col: String,
    dst_col: String,
    reached: BTreeSet<String>,
    frontier: BTreeSet<String>,
    rounds: usize,
}

impl ReachabilityRound {
    /// Start an evaluation from `start` over edges with the given columns.
    pub fn new(start: &str, src_col: &str, dst_col: &str) -> Self {
        let mut frontier = BTreeSet::new();
        frontier.insert(start.to_string());
        ReachabilityRound {
            src_col: src_col.to_string(),
            dst_col: dst_col.to_string(),
            reached: BTreeSet::new(),
            frontier,
            rounds: 0,
        }
    }

    /// The current frontier — the probe keys of the next distributed join.
    pub fn frontier(&self) -> &BTreeSet<String> {
        &self.frontier
    }

    /// Everything discovered so far (excluding the start node).
    pub fn reached(&self) -> &BTreeSet<String> {
        &self.reached
    }

    /// Number of completed rounds (network hops explored).
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// True when the fixpoint is reached (empty frontier → no more joins).
    pub fn done(&self) -> bool {
        self.frontier.is_empty()
    }

    /// Absorb the edge tuples fetched for the current frontier and advance
    /// to the next round.  Tuples whose source is not in the frontier (stale
    /// or misrouted results) and malformed tuples are ignored.  Returns the
    /// newly discovered nodes.
    pub fn absorb(&mut self, edge_tuples: &[Tuple]) -> BTreeSet<String> {
        let mut newly = BTreeSet::new();
        for t in edge_tuples {
            let (Some(src), Some(dst)) = (t.get(&self.src_col), t.get(&self.dst_col)) else {
                continue;
            };
            let src = node_name(src);
            let dst = node_name(dst);
            if !self.frontier.contains(&src) {
                continue;
            }
            if !self.reached.contains(&dst) && !self.frontier.contains(&dst) {
                newly.insert(dst);
            }
        }
        // Frontier nodes are now fully explored.
        self.reached.extend(self.frontier.iter().cloned());
        self.frontier = newly.clone();
        self.rounds += 1;
        newly
    }

    /// Build the result tuples a client would receive: one `(node, hops)`
    /// row per reached node is not tracked here (hop counts require keeping
    /// per-round snapshots), so this returns one row per reached node.
    pub fn result_tuples(&self, table: &str) -> Vec<Tuple> {
        self.reached
            .iter()
            .map(|n| Tuple::new(table, vec![("node", Value::str(n))]))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(src: &str, dst: &str) -> Tuple {
        Tuple::new(
            "links",
            vec![
                ("src", Value::Str(src.into())),
                ("dst", Value::Str(dst.into())),
            ],
        )
    }

    fn chain_and_branch() -> TransitiveClosure {
        // a → b → c → d, b → e, plus disconnected x → y.
        let mut tc = TransitiveClosure::new();
        for (s, d) in [("a", "b"), ("b", "c"), ("c", "d"), ("b", "e"), ("x", "y")] {
            assert!(tc.add_edge_tuple(&edge(s, d), "src", "dst"));
        }
        tc
    }

    #[test]
    fn reachability_over_a_chain_with_branches() {
        let tc = chain_and_branch();
        let (reached, rounds) = tc.reachable_from("a");
        let expect: BTreeSet<String> = ["b", "c", "d", "e"]
            .iter()
            .map(std::string::ToString::to_string)
            .collect();
        assert_eq!(reached, expect);
        assert_eq!(rounds, 3, "d is three hops from a");
        let (from_x, _) = tc.reachable_from("x");
        assert_eq!(from_x.len(), 1);
        let (from_d, _) = tc.reachable_from("d");
        assert!(from_d.is_empty());
    }

    #[test]
    fn cycles_terminate_and_include_the_start() {
        let mut tc = TransitiveClosure::new();
        for (s, d) in [("a", "b"), ("b", "c"), ("c", "a")] {
            tc.add_edge(s.into(), d.into());
        }
        let (reached, _) = tc.reachable_from("a");
        let expect: BTreeSet<String> = ["a", "b", "c"]
            .iter()
            .map(std::string::ToString::to_string)
            .collect();
        assert_eq!(reached, expect, "a cycle reaches back to the start");
    }

    #[test]
    fn malformed_edges_are_discarded() {
        let mut tc = TransitiveClosure::new();
        let missing_dst = Tuple::new("links", vec![("src", Value::Str("a".into()))]);
        assert!(!tc.add_edge_tuple(&missing_dst, "src", "dst"));
        assert_eq!(tc.edge_count(), 0);
    }

    #[test]
    fn closure_contains_every_derivable_pair() {
        let tc = chain_and_branch();
        let closure = tc.closure();
        assert!(closure.contains(&("a".into(), "d".into())));
        assert!(closure.contains(&("b".into(), "d".into())));
        assert!(!closure.contains(&("a".into(), "y".into())));
        assert!(!closure.contains(&("d".into(), "a".into())));
    }

    #[test]
    fn round_based_evaluation_matches_the_local_fixpoint() {
        let tc = chain_and_branch();
        // Simulate the distributed rounds: each round fetches the outgoing
        // edges of the frontier from the adjacency structure.
        let mut rounds = ReachabilityRound::new("a", "src", "dst");
        let mut guard = 10;
        while !rounds.done() && guard > 0 {
            let fetched: Vec<Tuple> = rounds
                .frontier()
                .iter()
                .flat_map(|n| tc.successors(n).into_iter().map(move |d| edge(n, &d)))
                .collect();
            rounds.absorb(&fetched);
            guard -= 1;
        }
        let (expected, hops) = tc.reachable_from("a");
        let mut got = rounds.reached().clone();
        got.remove("a"); // the round evaluator counts the start as reached
        assert_eq!(got, expected);
        assert_eq!(
            rounds.rounds(),
            hops + 1,
            "one extra round discovers emptiness"
        );
        assert_eq!(
            rounds.result_tuples("reachable").len(),
            rounds.reached().len()
        );
    }

    #[test]
    fn absorb_ignores_stale_and_malformed_tuples() {
        let mut r = ReachabilityRound::new("a", "src", "dst");
        let newly = r.absorb(&[
            edge("a", "b"),
            edge("z", "q"), // not in frontier
            Tuple::new("links", vec![("src", Value::Str("a".into()))]), // malformed
        ]);
        assert_eq!(newly.len(), 1);
        assert!(newly.contains("b"));
        assert!(r.reached().contains("a"));
        assert!(!r.reached().contains("q"));
    }
}
