//! Accountability: a reputation database over verified observations (§4.1.1).
//!
//! The paper's accountability discussion: "When misbehavior is detected,
//! accountability helps identify the offending nodes and justifies
//! corrective measures.  For example, the query can be repeated excluding
//! those nodes (in the short term), or the information can be used as input
//! to a reputation database used for node selection in the future."
//!
//! [`ReputationDb`] is that database.  It records *observations* — the
//! outcome of a spot check, a failed delivery, a confirmed poisoning — per
//! node, ages them out of a sliding window, and answers two questions:
//!
//! * which nodes should be excluded from the next retry of a query
//!   ([`ReputationDb::exclusion_set`]), and
//! * how preferable a node is for future operator placement
//!   ([`ReputationDb::score`], higher is better).
//!
//! Only *verified* evidence should be fed in ("trust but verify", \[75\]) —
//! spot-check verdicts rather than mere suspicion — to avoid malicious
//! framing of honest competitors; that policy is the caller's
//! responsibility and is documented on [`ReputationDb::record`].

use pier_runtime::{Duration, SimTime};
use std::collections::BTreeSet;
use std::collections::HashMap;

/// One verified observation about a node's behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observation {
    /// The node did what it was supposed to (e.g. passed a spot check or
    /// delivered a result that later verified).
    Good,
    /// The node misbehaved (failed a spot check, suppressed inputs, poisoned
    /// a result, or was caught free-riding).
    Misbehaved,
    /// The node was unreachable when it should have participated — counted
    /// separately because churn is expected and not malicious by itself.
    Unreachable,
}

#[derive(Debug, Clone, Default)]
struct NodeRecord {
    events: Vec<(SimTime, Observation)>,
}

/// A sliding-window reputation database.
#[derive(Debug, Clone)]
pub struct ReputationDb {
    window: Duration,
    /// Minimum number of observations before a node can be excluded — one
    /// bad report from one (possibly malicious) observer is not enough.
    min_observations: usize,
    /// Misbehaviour fraction at or above which a node is excluded.
    exclusion_threshold: f64,
    records: HashMap<u64, NodeRecord>,
}

impl ReputationDb {
    /// Create a database with the given evidence window, minimum observation
    /// count and misbehaviour-fraction exclusion threshold.
    pub fn new(window: Duration, min_observations: usize, exclusion_threshold: f64) -> Self {
        ReputationDb {
            window,
            min_observations: min_observations.max(1),
            exclusion_threshold: exclusion_threshold.clamp(0.0, 1.0),
            records: HashMap::new(),
        }
    }

    /// A configuration suitable for the experiments: 10-minute window, at
    /// least 3 observations, exclusion at 50 % misbehaviour.
    pub fn standard() -> Self {
        ReputationDb::new(600_000_000, 3, 0.5)
    }

    fn prune(&mut self, now: SimTime) {
        let horizon = now.saturating_sub(self.window);
        for rec in self.records.values_mut() {
            rec.events.retain(|(t, _)| *t >= horizon);
        }
        self.records.retain(|_, rec| !rec.events.is_empty());
    }

    /// Record a *verified* observation about `node`.  Callers must only
    /// report evidence they can substantiate (a failed Merkle proof, a
    /// spot-check mismatch), never raw suspicion, so that the database
    /// cannot be used to frame honest nodes.
    pub fn record(&mut self, node: u64, observation: Observation, now: SimTime) {
        self.prune(now);
        self.records
            .entry(node)
            .or_default()
            .events
            .push((now, observation));
    }

    /// Number of observations currently held for `node`.
    pub fn observation_count(&self, node: u64) -> usize {
        self.records.get(&node).map_or(0, |r| r.events.len())
    }

    /// Fraction of `node`'s observations that are misbehaviour (0 when the
    /// node is unknown).
    pub fn misbehaviour_fraction(&self, node: u64) -> f64 {
        let Some(rec) = self.records.get(&node) else {
            return 0.0;
        };
        if rec.events.is_empty() {
            return 0.0;
        }
        let bad = rec
            .events
            .iter()
            .filter(|(_, o)| *o == Observation::Misbehaved)
            .count();
        bad as f64 / rec.events.len() as f64
    }

    /// Preference score for node selection: 1.0 for an unknown or spotless
    /// node, decreasing with misbehaviour and (more gently) unreachability.
    pub fn score(&self, node: u64) -> f64 {
        let Some(rec) = self.records.get(&node) else {
            return 1.0;
        };
        if rec.events.is_empty() {
            return 1.0;
        }
        let total = rec.events.len() as f64;
        let bad = rec
            .events
            .iter()
            .filter(|(_, o)| *o == Observation::Misbehaved)
            .count() as f64;
        let flaky = rec
            .events
            .iter()
            .filter(|(_, o)| *o == Observation::Unreachable)
            .count() as f64;
        (1.0 - bad / total - 0.25 * flaky / total).max(0.0)
    }

    /// Nodes that should be excluded from the next retry of a query: enough
    /// evidence and a misbehaviour fraction at or above the threshold.
    pub fn exclusion_set(&mut self, now: SimTime) -> BTreeSet<u64> {
        self.prune(now);
        self.records
            .iter()
            .filter(|(_, rec)| rec.events.len() >= self.min_observations)
            .filter(|(node, _)| self.misbehaviour_fraction(**node) >= self.exclusion_threshold)
            .map(|(node, _)| *node)
            .collect()
    }

    /// Rank `candidates` by preference (best first), dropping excluded nodes.
    /// Used for node selection when placing redundant aggregators.
    pub fn rank_candidates(&mut self, candidates: &[u64], now: SimTime) -> Vec<u64> {
        let excluded = self.exclusion_set(now);
        let mut ranked: Vec<u64> = candidates
            .iter()
            .copied()
            .filter(|c| !excluded.contains(c))
            .collect();
        ranked.sort_by(|a, b| {
            self.score(*b)
                .partial_cmp(&self.score(*a))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(b))
        });
        ranked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_nodes_are_trusted_by_default() {
        let db = ReputationDb::standard();
        assert_eq!(db.score(42), 1.0);
        assert_eq!(db.misbehaviour_fraction(42), 0.0);
    }

    #[test]
    fn repeated_misbehaviour_leads_to_exclusion() {
        let mut db = ReputationDb::new(1_000_000_000, 3, 0.5);
        for t in 0..4u64 {
            db.record(7, Observation::Misbehaved, t * 1_000);
        }
        let excluded = db.exclusion_set(10_000);
        assert!(excluded.contains(&7));
    }

    #[test]
    fn a_single_bad_report_is_not_enough() {
        let mut db = ReputationDb::new(1_000_000_000, 3, 0.5);
        db.record(9, Observation::Misbehaved, 0);
        assert!(db.exclusion_set(1_000).is_empty());
    }

    #[test]
    fn good_behaviour_dilutes_misbehaviour() {
        let mut db = ReputationDb::new(1_000_000_000, 3, 0.5);
        db.record(5, Observation::Misbehaved, 0);
        for t in 1..6u64 {
            db.record(5, Observation::Good, t);
        }
        assert!(db.misbehaviour_fraction(5) < 0.5);
        assert!(db.exclusion_set(100).is_empty());
        assert!(db.score(5) > 0.7);
    }

    #[test]
    fn evidence_ages_out_of_the_window() {
        let mut db = ReputationDb::new(1_000, 1, 0.5);
        db.record(3, Observation::Misbehaved, 0);
        assert_eq!(db.observation_count(3), 1);
        // Recording far in the future prunes the old evidence.
        db.record(4, Observation::Good, 10_000);
        assert_eq!(db.observation_count(3), 0);
        assert!(db.exclusion_set(10_000).is_empty());
    }

    #[test]
    fn unreachability_hurts_less_than_misbehaviour() {
        let mut db = ReputationDb::standard();
        for t in 0..4u64 {
            db.record(1, Observation::Unreachable, t);
            db.record(2, Observation::Misbehaved, t);
        }
        assert!(db.score(1) > db.score(2));
        let excluded = db.exclusion_set(10);
        assert!(excluded.contains(&2));
        assert!(!excluded.contains(&1), "churny nodes are not malicious");
    }

    #[test]
    fn rank_candidates_prefers_clean_nodes_and_drops_excluded() {
        let mut db = ReputationDb::new(1_000_000_000, 3, 0.5);
        for t in 0..4u64 {
            db.record(100, Observation::Misbehaved, t); // excluded
        }
        db.record(200, Observation::Unreachable, 5); // slightly dinged
                                                     // 300 is unknown → perfect score.
        let ranked = db.rank_candidates(&[100, 200, 300], 100);
        assert_eq!(ranked, vec![300, 200]);
    }
}
