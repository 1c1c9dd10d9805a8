//! Rate limitation and resource accounting (§4.1.2 "Rate Limitation").
//!
//! The paper proposes three layers of rate limitation:
//!
//! 1. **Per-client limits** — each PIER node monitors "the total resource
//!    consumption (e.g., CPU cycles, disk space, memory, etc.) of that
//!    client's query operators within a time window"; when a node's local
//!    total exceeds a threshold it asks the rest of the system for the
//!    client's aggregate consumption and throttles the client's operators.
//!    [`ClientMonitor`] implements the window accounting, the local
//!    threshold trigger, the aggregate decision and the resulting throttle
//!    factor; [`TokenBucket`] is the enforcement primitive used by the
//!    sandboxed operators.
//! 2. **Limits on result traffic toward a destination** (containment): also
//!    a [`TokenBucket`], keyed by destination instead of client.
//! 3. **Node-to-node reciprocation** — "node A executes a query injected
//!    via node B only if B has recently executed a query injected via A",
//!    the strategy of Feldman et al. \[21\] adopted in \[47\].
//!    [`Reciprocation`] keeps the pairwise balance and answers the
//!    execute-or-refuse question.
//!
//! All state is expressed in the runtime's microsecond [`SimTime`] so the
//! same code runs under the simulator and the physical runtime.

use pier_runtime::{Duration, SimTime};
use std::collections::HashMap;

/// A token bucket: `rate` tokens per second accrue up to `burst`; an
/// operation consuming `n` tokens is admitted only when `n` tokens are
/// available.  Used to sandbox per-client operator resource usage and to cap
/// result traffic toward a single destination.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    rate_per_sec: f64,
    burst: f64,
    tokens: f64,
    last_refill: SimTime,
}

impl TokenBucket {
    /// Create a bucket that refills at `rate_per_sec` and holds at most
    /// `burst` tokens (it starts full).
    pub fn new(rate_per_sec: f64, burst: f64, now: SimTime) -> Self {
        TokenBucket {
            rate_per_sec: rate_per_sec.max(0.0),
            burst: burst.max(0.0),
            tokens: burst.max(0.0),
            last_refill: now,
        }
    }

    fn refill(&mut self, now: SimTime) {
        if now <= self.last_refill {
            return;
        }
        let elapsed_secs = (now - self.last_refill) as f64 / 1_000_000.0;
        self.tokens = (self.tokens + elapsed_secs * self.rate_per_sec).min(self.burst);
        self.last_refill = now;
    }

    /// Tokens currently available.
    pub fn available(&mut self, now: SimTime) -> f64 {
        self.refill(now);
        self.tokens
    }

    /// Try to consume `cost` tokens; returns whether the operation is
    /// admitted.
    pub fn try_consume(&mut self, cost: f64, now: SimTime) -> bool {
        self.refill(now);
        if self.tokens + 1e-9 >= cost {
            self.tokens -= cost;
            true
        } else {
            false
        }
    }

    /// Time until `cost` tokens will be available (0 if they already are).
    pub fn time_until(&mut self, cost: f64, now: SimTime) -> Duration {
        self.refill(now);
        if self.tokens >= cost {
            return 0;
        }
        if self.rate_per_sec <= 0.0 {
            return u64::MAX;
        }
        let deficit = cost - self.tokens;
        (deficit / self.rate_per_sec * 1_000_000.0).ceil() as Duration
    }
}

/// Decision returned by [`ClientMonitor::check`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RateDecision {
    /// The client is within its local budget.
    Allow,
    /// The local window total crossed the threshold: the node should ask its
    /// peers for the client's aggregate consumption before throttling.
    NeedAggregate {
        /// The local consumption observed in the current window.
        local_consumption: f64,
    },
    /// The aggregate consumption confirmed abuse; the client's operators are
    /// throttled to the returned fraction of normal resources.
    Throttle {
        /// Fraction (0–1] of normal resources the client may use.
        factor: f64,
    },
}

/// Per-client resource accounting over a sliding time window, with the
/// local-threshold → cluster-aggregate → throttle escalation of §4.1.2.
#[derive(Debug, Clone)]
pub struct ClientMonitor {
    window: Duration,
    local_threshold: f64,
    global_threshold: f64,
    /// consumption events: (time, client, amount)
    events: Vec<(SimTime, String, f64)>,
    /// Clients currently throttled, with the factor applied.
    throttled: HashMap<String, f64>,
}

impl ClientMonitor {
    /// Create a monitor: consumption is summed over the trailing `window`;
    /// a local sum above `local_threshold` triggers the aggregate check; an
    /// aggregate above `global_threshold` triggers throttling.
    pub fn new(window: Duration, local_threshold: f64, global_threshold: f64) -> Self {
        ClientMonitor {
            window,
            local_threshold,
            global_threshold,
            events: Vec::new(),
            throttled: HashMap::new(),
        }
    }

    fn prune(&mut self, now: SimTime) {
        let horizon = now.saturating_sub(self.window);
        self.events.retain(|(t, _, _)| *t >= horizon);
    }

    /// Record `amount` units of resource consumption by `client` (CPU
    /// microseconds, bytes of operator state, …).
    pub fn record(&mut self, client: &str, amount: f64, now: SimTime) {
        self.prune(now);
        self.events.push((now, client.to_string(), amount));
    }

    /// The client's consumption within the current window at this node.
    pub fn local_consumption(&mut self, client: &str, now: SimTime) -> f64 {
        self.prune(now);
        self.events
            .iter()
            .filter(|(_, c, _)| c == client)
            .map(|(_, _, a)| *a)
            .sum()
    }

    /// Local admission decision for `client`.
    pub fn check(&mut self, client: &str, now: SimTime) -> RateDecision {
        if let Some(factor) = self.throttled.get(client) {
            return RateDecision::Throttle { factor: *factor };
        }
        let local = self.local_consumption(client, now);
        if local > self.local_threshold {
            RateDecision::NeedAggregate {
                local_consumption: local,
            }
        } else {
            RateDecision::Allow
        }
    }

    /// Feed back the cluster-wide aggregate consumption for `client`
    /// (obtained by running a PIER aggregation query over every node's local
    /// monitor, exactly as §4.1.2 proposes).  If the aggregate crosses the
    /// global threshold the client is throttled proportionally; otherwise
    /// any throttle is lifted.  Returns the resulting decision.
    pub fn apply_aggregate(&mut self, client: &str, aggregate: f64) -> RateDecision {
        if aggregate > self.global_threshold {
            // The further over the threshold, the harsher the throttle.
            let factor = (self.global_threshold / aggregate).clamp(0.05, 1.0);
            self.throttled.insert(client.to_string(), factor);
            RateDecision::Throttle { factor }
        } else {
            self.throttled.remove(client);
            RateDecision::Allow
        }
    }

    /// Remove a client's throttle (e.g. after its window of abuse expires).
    pub fn unthrottle(&mut self, client: &str) {
        self.throttled.remove(client);
    }

    /// Clients currently throttled.
    pub fn throttled_clients(&self) -> Vec<(String, f64)> {
        let mut v: Vec<(String, f64)> = self
            .throttled
            .iter()
            .map(|(c, f)| (c.clone(), *f))
            .collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }
}

/// The reciprocative peer strategy: node A executes a query injected via
/// node B only if B has recently executed a query injected via A (within a
/// tolerance that lets fresh peers get started).
#[derive(Debug, Clone)]
pub struct Reciprocation {
    /// How many more queries we may execute for a peer than it has executed
    /// for us before we start refusing.
    tolerance: i64,
    /// peer → (executed by us for them, executed by them for us)
    ledger: HashMap<String, (i64, i64)>,
}

impl Reciprocation {
    /// Create a ledger with the given imbalance tolerance (≥ 1 so new peers
    /// can bootstrap the relationship).
    pub fn new(tolerance: i64) -> Self {
        Reciprocation {
            tolerance: tolerance.max(1),
            ledger: HashMap::new(),
        }
    }

    /// Current balance for `peer`: positive means we have done more work for
    /// them than they have for us.
    pub fn balance(&self, peer: &str) -> i64 {
        self.ledger.get(peer).map_or(0, |(us, them)| us - them)
    }

    /// Should we execute a query injected via `peer`?
    pub fn should_execute(&self, peer: &str) -> bool {
        self.balance(peer) < self.tolerance
    }

    /// Record that we executed a query injected via `peer`.
    pub fn record_executed_for(&mut self, peer: &str) {
        self.ledger.entry(peer.to_string()).or_insert((0, 0)).0 += 1;
    }

    /// Record that `peer` executed a query we injected.
    pub fn record_executed_by(&mut self, peer: &str) {
        self.ledger.entry(peer.to_string()).or_insert((0, 0)).1 += 1;
    }

    /// Number of peers with any history.
    pub fn peer_count(&self) -> usize {
        self.ledger.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_bucket_admits_until_empty_then_refills() {
        let mut b = TokenBucket::new(10.0, 5.0, 0);
        // Burst of 5 is available immediately.
        for _ in 0..5 {
            assert!(b.try_consume(1.0, 0));
        }
        assert!(!b.try_consume(1.0, 0));
        // After 100 ms, one token (10/s) has accrued.
        assert!(b.try_consume(1.0, 100_000));
        assert!(!b.try_consume(1.0, 100_000));
    }

    #[test]
    fn token_bucket_never_exceeds_burst() {
        let mut b = TokenBucket::new(1_000.0, 3.0, 0);
        assert!((b.available(10_000_000) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn token_bucket_time_until_reports_wait() {
        let mut b = TokenBucket::new(2.0, 2.0, 0);
        assert!(b.try_consume(2.0, 0));
        let wait = b.time_until(1.0, 0);
        assert_eq!(wait, 500_000, "1 token at 2/s is 0.5 s away");
        assert_eq!(b.time_until(0.0, 0), 0);
        let mut frozen = TokenBucket::new(0.0, 0.0, 0);
        assert_eq!(frozen.time_until(1.0, 0), u64::MAX);
    }

    #[test]
    fn client_monitor_escalates_and_throttles() {
        let mut m = ClientMonitor::new(1_000_000, 100.0, 1_000.0);
        assert_eq!(m.check("alice", 0), RateDecision::Allow);
        m.record("alice", 60.0, 0);
        m.record("alice", 60.0, 10);
        match m.check("alice", 20) {
            RateDecision::NeedAggregate { local_consumption } => {
                assert!((local_consumption - 120.0).abs() < 1e-9);
            }
            other => panic!("expected NeedAggregate, got {other:?}"),
        }
        // Aggregate below the global threshold: no throttle.
        assert_eq!(m.apply_aggregate("alice", 500.0), RateDecision::Allow);
        // Aggregate above: throttle proportionally.
        match m.apply_aggregate("alice", 4_000.0) {
            RateDecision::Throttle { factor } => assert!((factor - 0.25).abs() < 1e-9),
            other => panic!("expected Throttle, got {other:?}"),
        }
        assert_eq!(m.throttled_clients().len(), 1);
        m.unthrottle("alice");
        assert_eq!(m.check("alice", 2_000_000), RateDecision::Allow);
    }

    #[test]
    fn client_monitor_window_expires_old_consumption() {
        let mut m = ClientMonitor::new(1_000_000, 100.0, 1_000.0);
        m.record("bob", 150.0, 0);
        assert!(matches!(
            m.check("bob", 10),
            RateDecision::NeedAggregate { .. }
        ));
        // After the window passes the old consumption no longer counts.
        assert_eq!(m.check("bob", 2_000_000), RateDecision::Allow);
    }

    #[test]
    fn client_monitor_tracks_clients_independently() {
        let mut m = ClientMonitor::new(1_000_000, 100.0, 1_000.0);
        m.record("alice", 150.0, 0);
        m.record("bob", 10.0, 0);
        assert!(matches!(
            m.check("alice", 1),
            RateDecision::NeedAggregate { .. }
        ));
        assert_eq!(m.check("bob", 1), RateDecision::Allow);
    }

    #[test]
    fn reciprocation_balances_work() {
        let mut r = Reciprocation::new(2);
        assert!(r.should_execute("peer-b"));
        r.record_executed_for("peer-b");
        assert!(
            r.should_execute("peer-b"),
            "one unreciprocated query is within tolerance 2"
        );
        r.record_executed_for("peer-b");
        assert!(!r.should_execute("peer-b"), "balance reached the tolerance");
        // The peer reciprocates: we are willing again.
        r.record_executed_by("peer-b");
        assert!(r.should_execute("peer-b"));
        assert_eq!(r.balance("peer-b"), 1);
        assert_eq!(r.peer_count(), 1);
        assert_eq!(r.balance("stranger"), 0);
    }
}
