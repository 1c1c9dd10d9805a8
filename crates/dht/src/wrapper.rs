//! The overlay wrapper — the Table-2 API of the paper.
//!
//! The overlay network is composed of three modules (Figure 5): the
//! [`Router`], the [`ObjectManager`], and this *wrapper*, which choreographs
//! the two to implement the inter-node operations `get`, `put`, `send` and
//! `renew`, and the intra-node operations `localScan`, `newData` and
//! `upcall`.  The query processor only ever talks to the wrapper.
//!
//! Operation message flows follow Figure 6 of the paper:
//!
//! * **put / renew** — a routed *lookup* resolves the identifier-to-address
//!   mapping, then the object (or renewal request) is forwarded directly to
//!   the destination.
//! * **send** — the object itself is routed hop-by-hop to the destination in
//!   a single call; every intermediate node is offered an *upcall* and may
//!   drop or alter the message (this is what hierarchical aggregation and
//!   hierarchical joins build on).
//! * **get** — a lookup followed by a direct request and a response carrying
//!   the matching objects.
//!
//! The wrapper additionally maintains the **distribution tree** used for
//! query broadcast (§3.3.3): every node periodically routes a `TreeJoin`
//! announcement toward a well-known root identifier; the first hop records
//! the sender as a child and drops the message.  Broadcasting forwards a
//! payload to the root and then down the recorded children, and the tree is
//! soft state, adapting to membership changes.

use crate::id::{hash_str, Id};
use crate::messages::DhtMessage;
use crate::naming::ObjectName;
use crate::object_manager::{ObjectManager, StoredObject};
use crate::router::{NodeRef, Router, RouterConfig, RouterEffect};
use pier_runtime::{Duration, NodeAddr, SimTime, WireSize};
use pier_telemetry::Telemetry;
use pier_trace::TraceContext;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Debug;

/// One entry of a grouped put: object name, value, and its soft-state TTL.
type PutEntry<V> = (ObjectName, V, Duration);

/// A put parked at this node awaiting the application's upcall verdict:
/// routing target, object, TTL, hops so far, and the trace context (if the
/// owning query is sampled) to restore when routing resumes.
type PendingUpcall<V> = (Id, ObjectName, V, Duration, u32, Option<TraceContext>);

/// Well-known name of the query-dissemination tree root; its hash is the
/// root identifier hard-coded into every PIER node (§3.3.3).
pub const TREE_ROOT_NAME: &str = "pier::distribution-tree";

/// Tuning knobs for the overlay wrapper.
#[derive(Debug, Clone, Copy)]
pub struct OverlayConfig {
    /// Router configuration.
    pub router: RouterConfig,
    /// Interval between Chord stabilization rounds, microseconds.
    pub stabilize_interval: Duration,
    /// Interval between finger-table refreshes, microseconds.
    pub fix_fingers_interval: Duration,
    /// Interval between soft-state expiry sweeps, microseconds.
    pub expire_interval: Duration,
    /// Maximum soft-state lifetime the node will grant, microseconds.
    pub max_lifetime: Duration,
    /// Interval between distribution-tree re-join announcements.
    pub tree_refresh_interval: Duration,
    /// Lifetime granted to a recorded tree child before it must re-join.
    pub tree_child_lifetime: Duration,
}

impl Default for OverlayConfig {
    fn default() -> Self {
        OverlayConfig {
            router: RouterConfig::default(),
            stabilize_interval: 1_000_000,
            fix_fingers_interval: 2_000_000,
            expire_interval: 5_000_000,
            max_lifetime: 600_000_000,
            tree_refresh_interval: 10_000_000,
            tree_child_lifetime: 30_000_000,
        }
    }
}

/// Periodic maintenance timers the host must schedule on the wrapper's
/// behalf.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverlayTimer {
    /// Chord stabilization round.
    Stabilize,
    /// Finger-table refresh.
    FixFingers,
    /// Soft-state expiry sweep.
    Expire,
    /// Distribution-tree re-join announcement.
    TreeRefresh,
}

/// Notifications delivered to the application (the query processor).  These
/// are the wrapper's `handleGet`, `handleNewData`, `handleUpcall` and
/// `handleLScan` callbacks, plus tree-broadcast delivery.
#[derive(Debug, Clone)]
pub enum OverlayEvent<V> {
    /// Result of a previously issued [`Overlay::get`].
    GetResult {
        /// Token returned by `get`.
        request_id: u64,
        /// Namespace queried.
        namespace: String,
        /// Key queried.
        key: String,
        /// Matching objects.
        objects: Vec<StoredObject<V>>,
    },
    /// Result of a previously issued [`Overlay::renew`].
    RenewResult {
        /// Token returned by `renew`.
        request_id: u64,
        /// Whether the object was present and its lifetime extended.
        success: bool,
    },
    /// A new object arrived at this node (via `put` or `send`).
    NewData {
        /// The stored object.
        object: StoredObject<V>,
        /// Trace context carried by the transfer, when the originating
        /// query is sampled.
        trace: Option<TraceContext>,
    },
    /// A routed object is passing through this node; the application must
    /// call [`Overlay::resume_upcall`] with the token to continue or drop it.
    Upcall {
        /// Token to pass to `resume_upcall`.
        token: u64,
        /// The node the message arrived from.
        from: NodeAddr,
        /// The in-flight object (name + value + remaining lifetime).
        object: StoredObject<V>,
        /// Trace context carried by the routed message, when sampled.
        trace: Option<TraceContext>,
    },
    /// A payload broadcast over the distribution tree reached this node.
    Broadcast {
        /// The broadcast payload.
        payload: V,
    },
    /// Result of a raw [`Overlay::lookup`].
    LookupDone {
        /// Token returned by `lookup`.
        request_id: u64,
        /// Node responsible for the identifier.
        owner: NodeRef,
        /// Overlay hops the lookup took.
        hops: u32,
    },
}

/// Effects the wrapper asks its host program to perform.
#[derive(Debug, Clone)]
pub enum OverlayEffect<V> {
    /// Transmit a message to another node.
    Send {
        /// Destination address.
        to: NodeAddr,
        /// Message to transmit.
        msg: DhtMessage<V>,
    },
    /// Schedule a maintenance timer.
    SetTimer {
        /// Delay from now, microseconds.
        delay: Duration,
        /// Which timer.
        timer: OverlayTimer,
    },
    /// Deliver a notification to the application.
    Event(OverlayEvent<V>),
}

#[derive(Debug, Clone)]
enum PendingOp<V> {
    Get {
        namespace: String,
        key: String,
        trace: Option<TraceContext>,
    },
    Put {
        name: ObjectName,
        value: V,
        lifetime: Duration,
        trace: Option<TraceContext>,
    },
    Renew {
        name: ObjectName,
        lifetime: Duration,
    },
    RawLookup {
        target: Id,
    },
}

/// One owner-cache entry: the resolved owner, when the resolution was
/// learned (TTL anchor) and when it last served a batched put (LRU anchor).
#[derive(Debug, Clone, Copy)]
struct CachedOwner {
    owner: NodeRef,
    cached_at: SimTime,
    last_used: SimTime,
}

/// The overlay wrapper: one instance per node.
#[derive(Debug, Clone)]
pub struct Overlay<V> {
    me: NodeRef,
    config: OverlayConfig,
    router: Router,
    objects: ObjectManager<V>,
    /// In-flight operations awaiting a lookup, stamped with the router's
    /// membership epoch at issue time — a resolution that completes after a
    /// membership change is used for the operation itself (the classic
    /// Figure-6 race, tolerated by soft state) but is NOT admitted into the
    /// owner cache, so a pre-churn answer cannot re-poison a just-cleared
    /// cache — and with the issue time, which prices the lookup-latency
    /// histogram when the resolution lands.
    pending: HashMap<u64, (u64, SimTime, PendingOp<V>)>,
    pending_upcalls: HashMap<u64, PendingUpcall<V>>,
    /// Trace context armed by [`Overlay::set_trace`] and consumed by the
    /// next `get`/`put`/`put_batch`/`send` issued on this wrapper; it rides
    /// the resulting wire messages so the receiving node can attach its
    /// work to the sampled query's span tree.  `None` (the steady state
    /// when tracing is off) adds no wire bytes and no behaviour.
    pending_trace: Option<TraceContext>,
    next_request_id: u64,
    next_upcall_token: u64,
    tree_root: Id,
    /// Ordered: the broadcast fan-out below follows iteration order, which
    /// must not depend on hash seeding (equal-seed runs replay
    /// byte-for-byte).
    tree_children: BTreeMap<NodeAddr, SimTime>,
    /// Identifier→owner resolutions learned from completed lookups, each
    /// stamped with its fill time and valid only within
    /// `owner_cache_epoch` (the router's membership epoch at fill time).
    /// Extends [`Overlay::put_batch`] coalescing beyond the successor list
    /// on large rings.  Three bounds keep it honest: any *locally visible*
    /// membership change — a neighbor joining, leaving, or being presumed
    /// dead — clears the cache wholesale via the epoch; a per-entry TTL
    /// (the router's liveness timeout) bounds how long a resolution can be
    /// trusted when membership changes *outside* the local neighbor view
    /// (a remote join taking over the arc never bumps our epoch; after the
    /// TTL the entry falls back to a fresh lookup); and an LRU capacity
    /// bound ([`Overlay::OWNER_CACHE_MAX`]) keeps a long-lived node on a
    /// huge churn-free ring from accumulating one entry per identifier it
    /// ever resolved — the least-recently-used resolution is evicted, so
    /// the hot destinations of a steady rehash stream stay warm.
    owner_cache: HashMap<Id, CachedOwner>,
    owner_cache_epoch: u64,
    /// Telemetry handle (empty unless the host attaches one): lookup
    /// hop/latency histograms, owner-cache hit/miss/invalidation counters
    /// and put-batch coalescing counters, all under the `dht.*` prefix.
    tel: Telemetry,
}

impl<V: Clone + Debug + WireSize> Overlay<V> {
    /// Create an overlay instance for a node that will join dynamically.
    pub fn new(me: NodeRef, config: OverlayConfig) -> Self {
        let max_lifetime = config.max_lifetime;
        Overlay {
            me,
            config,
            router: Router::new(me, config.router),
            objects: ObjectManager::new(max_lifetime),
            pending: HashMap::new(),
            pending_upcalls: HashMap::new(),
            pending_trace: None,
            next_request_id: 0,
            next_upcall_token: 0,
            tree_root: hash_str(TREE_ROOT_NAME),
            tree_children: BTreeMap::new(),
            owner_cache: HashMap::new(),
            owner_cache_epoch: 0,
            tel: Telemetry::disabled(),
        }
    }

    /// Attach a telemetry hub (the node's) to this overlay instance.
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.tel = tel;
    }

    /// Arm a trace context for the **next** operation issued on this
    /// wrapper (`get`/`put`/`put_batch`/`send`); it travels on the wire
    /// with that operation and is cleared once consumed.  Callers pass
    /// `Some` only for queries the proxy sampled, so an untraced run never
    /// reaches this with a payload.
    pub fn set_trace(&mut self, trace: Option<TraceContext>) {
        self.pending_trace = trace;
    }

    /// Create an overlay whose routing state is pre-converged from full
    /// knowledge of the ring (used by experiments and tests to skip the join
    /// phase).
    pub fn with_static_ring(me: NodeRef, all: &[NodeRef], config: OverlayConfig) -> Self {
        let mut overlay = Overlay::new(me, config);
        overlay.router = Router::with_static_ring(me, all, config.router);
        overlay
    }

    /// This node's ring identity.
    pub fn me(&self) -> NodeRef {
        self.me
    }

    /// Read access to the router (diagnostics, experiments).
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// Read access to the local soft-state store.
    pub fn objects(&self) -> &ObjectManager<V> {
        &self.objects
    }

    /// Addresses currently recorded as children in the distribution tree.
    pub fn tree_children(&self) -> Vec<NodeAddr> {
        self.tree_children.keys().copied().collect()
    }

    /// Whether this node is currently the root of the distribution tree.
    pub fn is_tree_root(&self) -> bool {
        self.router.is_responsible(self.tree_root)
    }

    fn next_request_id(&mut self) -> u64 {
        self.next_request_id += 1;
        self.next_request_id
    }

    /// Boot the overlay: start the routing join (if a bootstrap address is
    /// given) and schedule all periodic maintenance timers.
    pub fn start(&mut self, bootstrap: Option<NodeAddr>, _now: SimTime) -> Vec<OverlayEffect<V>> {
        let mut effects: Vec<OverlayEffect<V>> = self
            .router
            .bootstrap(bootstrap)
            .into_iter()
            .map(routing_effect)
            .collect();
        effects.push(OverlayEffect::SetTimer {
            delay: self.config.stabilize_interval,
            timer: OverlayTimer::Stabilize,
        });
        effects.push(OverlayEffect::SetTimer {
            delay: self.config.fix_fingers_interval,
            timer: OverlayTimer::FixFingers,
        });
        effects.push(OverlayEffect::SetTimer {
            delay: self.config.expire_interval,
            timer: OverlayTimer::Expire,
        });
        effects.push(OverlayEffect::SetTimer {
            delay: self.config.tree_refresh_interval / 2,
            timer: OverlayTimer::TreeRefresh,
        });
        effects
    }

    // ----- Inter-node operations (Table 2) --------------------------------

    /// `get(namespace, key)`: fetch every object stored under the
    /// (namespace, key) pair.  The result arrives later as
    /// [`OverlayEvent::GetResult`] carrying the returned request id.
    pub fn get(
        &mut self,
        namespace: &str,
        key: &str,
        now: SimTime,
    ) -> (u64, Vec<OverlayEffect<V>>) {
        let trace = self.pending_trace.take();
        let request_id = self.next_request_id();
        let id = crate::id::routing_id(namespace, key);
        if self.router.is_responsible(id) {
            let objects = self.objects.get(namespace, key, now);
            return (
                request_id,
                vec![OverlayEffect::Event(OverlayEvent::GetResult {
                    request_id,
                    namespace: namespace.to_string(),
                    key: key.to_string(),
                    objects,
                })],
            );
        }
        self.pending.insert(
            request_id,
            (
                self.router.membership_epoch(),
                now,
                PendingOp::Get {
                    namespace: namespace.to_string(),
                    key: key.to_string(),
                    trace,
                },
            ),
        );
        let effects = self.router.lookup(id, request_id, now);
        (request_id, self.absorb_router_effects(effects, now))
    }

    /// `put(namespace, key, suffix, object, lifetime)`: store an object at
    /// the node responsible for its routing identifier.
    pub fn put(
        &mut self,
        name: ObjectName,
        value: V,
        lifetime: Duration,
        now: SimTime,
    ) -> Vec<OverlayEffect<V>> {
        let trace = self.pending_trace.take();
        let id = name.routing_id();
        if self.router.is_responsible(id) {
            return self.store_local_traced(name, value, lifetime, trace, now);
        }
        let request_id = self.next_request_id();
        self.pending.insert(
            request_id,
            (
                self.router.membership_epoch(),
                now,
                PendingOp::Put {
                    name,
                    value,
                    lifetime,
                    trace,
                },
            ),
        );
        let effects = self.router.lookup(id, request_id, now);
        self.absorb_router_effects(effects, now)
    }

    /// Drop every cached owner resolution when the router's membership view
    /// has changed since the cache was filled.  Called before any cache read
    /// or write, so a node that left (or was presumed dead and evicted)
    /// never serves another grouped transfer out of stale state.
    fn validate_owner_cache(&mut self) {
        let epoch = self.router.membership_epoch();
        if epoch != self.owner_cache_epoch {
            if !self.owner_cache.is_empty() {
                let dropped = self.owner_cache.len();
                self.tel.inc("dht.owner_cache.invalidations");
                self.tel.event("owner_cache_invalidate", || {
                    vec![
                        ("epoch", epoch.to_string()),
                        ("dropped", dropped.to_string()),
                    ]
                });
            }
            self.owner_cache.clear();
            self.owner_cache_epoch = epoch;
        }
    }

    /// The owner of `id` as far as this node can tell without a routed
    /// lookup: authoritative local routing state first
    /// ([`Router::known_owner`]), then the lookup-fed owner cache (valid
    /// for the current membership epoch, younger than the liveness-timeout
    /// TTL, and only while the cached node is not presumed dead).  A hit
    /// refreshes the entry's LRU stamp.
    fn resolved_owner(&mut self, id: Id, now: SimTime) -> Option<NodeRef> {
        if let Some(owner) = self.router.known_owner(id, now) {
            return Some(owner);
        }
        self.validate_owner_cache();
        let ttl = self.config.router.liveness_timeout;
        let Some(entry) = self.owner_cache.get_mut(&id) else {
            self.tel.inc("dht.owner_cache.misses");
            return None;
        };
        let (owner, cached_at) = (entry.owner, entry.cached_at);
        if now.saturating_sub(cached_at) > ttl || self.router.presumed_dead(owner.addr, now) {
            self.owner_cache.remove(&id);
            self.tel.inc("dht.owner_cache.expired");
            self.tel.inc("dht.owner_cache.misses");
            return None;
        }
        entry.last_used = now;
        self.tel.inc("dht.owner_cache.hits");
        Some(owner)
    }

    /// Hard cap on cached owner resolutions.  Reaching it first purges
    /// TTL-expired entries; if the cache is still full, the
    /// **least-recently-used** entry is evicted, so the hot destinations of
    /// a steady rehash stream survive while one-off resolutions rotate out.
    /// Without the cap, a long-lived node on a churn-free ring (epoch never
    /// bumps) would accumulate one entry per distinct identifier ever
    /// resolved.
    const OWNER_CACHE_MAX: usize = 1024;

    /// Record a lookup-resolved owner for reuse by later batched puts.
    /// Never grows the cache past [`Overlay::OWNER_CACHE_MAX`].
    fn cache_owner(&mut self, id: Id, owner: NodeRef, now: SimTime) {
        self.validate_owner_cache();
        if self.owner_cache.len() >= Self::OWNER_CACHE_MAX && !self.owner_cache.contains_key(&id) {
            let ttl = self.config.router.liveness_timeout;
            self.owner_cache
                .retain(|_, e| now.saturating_sub(e.cached_at) <= ttl);
            while self.owner_cache.len() >= Self::OWNER_CACHE_MAX {
                // O(capacity) scan, paid only when the bound is hit with no
                // expired entries to shed — rare under real churn, cheap at
                // this capacity.
                let lru = self
                    .owner_cache
                    .iter()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(k, _)| *k)
                    .expect("cache at capacity is non-empty");
                self.owner_cache.remove(&lru);
                self.tel.inc("dht.owner_cache.lru_evictions");
            }
        }
        self.owner_cache.insert(
            id,
            CachedOwner {
                owner,
                cached_at: now,
                last_used: now,
            },
        );
    }

    /// A batched `put`: entries whose owner is determinable without a
    /// routed lookup — from local routing state ([`Router::known_owner`]) or
    /// from the membership-epoch-scoped owner cache fed by completed
    /// lookups — are grouped into one [`DhtMessage::PutBatch`] per
    /// destination node (locally-owned entries are stored directly); the
    /// rest fall back to the classic per-entry lookup-then-transfer flow of
    /// Figure 6 (and prime the cache for the next flush).  Every entry keeps
    /// its own name and lifetime, so storage and expiry behave exactly as
    /// separate puts — only message framing is shared.
    pub fn put_batch(
        &mut self,
        entries: Vec<(ObjectName, V, Duration)>,
        now: SimTime,
    ) -> Vec<OverlayEffect<V>> {
        let trace = self.pending_trace.take();
        let mut effects = Vec::new();
        let mut grouped: HashMap<NodeAddr, Vec<PutEntry<V>>> = HashMap::new();
        let mut unresolved = Vec::new();
        let mut local = 0u64;
        let total = entries.len() as u64;
        for (name, value, lifetime) in entries {
            let id = name.routing_id();
            match self.resolved_owner(id, now) {
                Some(owner) if owner.addr == self.me.addr => {
                    local += 1;
                    effects.extend(self.store_local_traced(name, value, lifetime, trace, now));
                }
                Some(owner) => grouped
                    .entry(owner.addr)
                    .or_default()
                    .push((name, value, lifetime)),
                None => unresolved.push((name, value, lifetime)),
            }
        }
        let mut coalesced = 0u64;
        let mut singles = 0u64;
        // Send in destination order: message order must not depend on hash
        // seeding (equal-seed runs replay byte-for-byte).
        let mut grouped: Vec<(NodeAddr, Vec<PutEntry<V>>)> = grouped.into_iter().collect();
        grouped.sort_by_key(|(to, _)| to.index());
        for (to, batch) in grouped {
            if batch.len() == 1 {
                // No point framing a batch around a single object.
                singles += 1;
                let (name, value, lifetime) = batch.into_iter().next().expect("len checked");
                effects.push(OverlayEffect::Send {
                    to,
                    msg: DhtMessage::PutRequest {
                        name,
                        value,
                        lifetime,
                        trace,
                    },
                });
            } else {
                coalesced += batch.len() as u64;
                self.tel
                    .observe_count("dht.put_batch.group_size", batch.len() as f64);
                effects.push(OverlayEffect::Send {
                    to,
                    msg: DhtMessage::PutBatch {
                        entries: batch,
                        trace,
                    },
                });
            }
        }
        // Coalescing ratio = dht.put_batch.coalesced / dht.put_batch.entries.
        self.tel.inc("dht.put_batch.flushes");
        self.tel.add("dht.put_batch.entries", total);
        self.tel.add("dht.put_batch.local", local);
        self.tel.add("dht.put_batch.coalesced", coalesced);
        self.tel.add("dht.put_batch.singles", singles);
        self.tel
            .add("dht.put_batch.unresolved", unresolved.len() as u64);
        for (name, value, lifetime) in unresolved {
            // Re-arm the batch's context for each per-entry fallback: `put`
            // consumes the armed trace on every call.
            self.pending_trace = trace;
            effects.extend(self.put(name, value, lifetime, now));
        }
        effects
    }

    /// `renew(namespace, key, suffix, lifetime)`: extend an object's
    /// lifetime.  Succeeds only if the object is already stored at the
    /// destination; the outcome arrives as [`OverlayEvent::RenewResult`].
    pub fn renew(
        &mut self,
        name: ObjectName,
        lifetime: Duration,
        now: SimTime,
    ) -> (u64, Vec<OverlayEffect<V>>) {
        let request_id = self.next_request_id();
        let id = name.routing_id();
        if self.router.is_responsible(id) {
            let success = self.objects.renew(&name, lifetime, now);
            return (
                request_id,
                vec![OverlayEffect::Event(OverlayEvent::RenewResult {
                    request_id,
                    success,
                })],
            );
        }
        self.pending.insert(
            request_id,
            (
                self.router.membership_epoch(),
                now,
                PendingOp::Renew { name, lifetime },
            ),
        );
        let effects = self.router.lookup(id, request_id, now);
        (request_id, self.absorb_router_effects(effects, now))
    }

    /// `send(namespace, key, suffix, object, lifetime)`: route the object
    /// hop-by-hop to the responsible node, offering an upcall at every
    /// intermediate hop.
    pub fn send(
        &mut self,
        name: ObjectName,
        value: V,
        lifetime: Duration,
        now: SimTime,
    ) -> Vec<OverlayEffect<V>> {
        let target = name.routing_id();
        self.send_routed(target, name, value, lifetime, now)
    }

    /// Route an object toward an explicit identifier (used by hierarchical
    /// aggregation, where the query names the aggregation-tree root).
    pub fn send_routed(
        &mut self,
        target: Id,
        name: ObjectName,
        value: V,
        lifetime: Duration,
        now: SimTime,
    ) -> Vec<OverlayEffect<V>> {
        let trace = self.pending_trace.take();
        match self.router.next_hop(target, now) {
            None => self.store_local_traced(name, value, lifetime, trace, now),
            Some(next) => vec![OverlayEffect::Send {
                to: next.addr,
                msg: DhtMessage::Routed {
                    target,
                    name,
                    value,
                    lifetime,
                    hops: 1,
                    trace,
                },
            }],
        }
    }

    /// Resolve the node responsible for an arbitrary identifier.  The answer
    /// arrives as [`OverlayEvent::LookupDone`].
    pub fn lookup(&mut self, target: Id, now: SimTime) -> (u64, Vec<OverlayEffect<V>>) {
        let request_id = self.next_request_id();
        self.pending.insert(
            request_id,
            (
                self.router.membership_epoch(),
                now,
                PendingOp::RawLookup { target },
            ),
        );
        let effects = self.router.lookup(target, request_id, now);
        (request_id, self.absorb_router_effects(effects, now))
    }

    // ----- Intra-node operations ------------------------------------------

    /// `localScan(namespace)`: every live object of a namespace stored
    /// here, borrowed in place in (key, suffix) order.
    pub fn local_scan(
        &self,
        namespace: &str,
        now: SimTime,
    ) -> impl Iterator<Item = &StoredObject<V>> + '_ {
        self.objects.scan_namespace(namespace, now)
    }

    /// Store an object directly in the local store (used both when this node
    /// is itself responsible for the object and for operator state, which the
    /// query processor keeps in the DHT's local storage layer, §3.3.6).
    pub fn store_local(
        &mut self,
        name: ObjectName,
        value: V,
        lifetime: Duration,
        now: SimTime,
    ) -> Vec<OverlayEffect<V>> {
        let trace = self.pending_trace.take();
        self.store_local_traced(name, value, lifetime, trace, now)
    }

    /// [`Overlay::store_local`] with an explicit trace context, used on
    /// receive paths where the context arrived on the wire rather than from
    /// [`Overlay::set_trace`].
    fn store_local_traced(
        &mut self,
        name: ObjectName,
        value: V,
        lifetime: Duration,
        trace: Option<TraceContext>,
        now: SimTime,
    ) -> Vec<OverlayEffect<V>> {
        let expires_at = self.objects.put(name.clone(), value.clone(), lifetime, now);
        vec![OverlayEffect::Event(OverlayEvent::NewData {
            object: StoredObject {
                name,
                value,
                expires_at,
            },
            trace,
        })]
    }

    /// Continue or drop a routed message previously surfaced through
    /// [`OverlayEvent::Upcall`].
    pub fn resume_upcall(
        &mut self,
        token: u64,
        continue_routing: bool,
        now: SimTime,
    ) -> Vec<OverlayEffect<V>> {
        let Some((target, name, value, lifetime, hops, trace)) =
            self.pending_upcalls.remove(&token)
        else {
            return Vec::new();
        };
        if !continue_routing {
            return Vec::new();
        }
        match self.router.next_hop(target, now) {
            None => self.store_local_traced(name, value, lifetime, trace, now),
            Some(next) => vec![OverlayEffect::Send {
                to: next.addr,
                msg: DhtMessage::Routed {
                    target,
                    name,
                    value,
                    lifetime,
                    hops: hops + 1,
                    trace,
                },
            }],
        }
    }

    // ----- Distribution tree ----------------------------------------------

    /// Announce this node to its distribution-tree parent (the first hop on
    /// the route toward the tree root).  Called periodically because the tree
    /// is soft state.
    pub fn join_tree(&mut self, now: SimTime) -> Vec<OverlayEffect<V>> {
        match self.router.next_hop(self.tree_root, now) {
            None => Vec::new(), // we are the root
            Some(parent) => vec![OverlayEffect::Send {
                to: parent.addr,
                msg: DhtMessage::TreeJoin {
                    child: self.me.addr,
                    root: self.tree_root,
                },
            }],
        }
    }

    /// Broadcast a payload to every node via the distribution tree.  The
    /// payload is routed up to the root and then pushed down the recorded
    /// children; every node (including this one) receives it as
    /// [`OverlayEvent::Broadcast`].
    pub fn broadcast(&mut self, payload: V, now: SimTime) -> Vec<OverlayEffect<V>> {
        if self.router.is_responsible(self.tree_root) {
            return self.deliver_broadcast(payload, 0, now);
        }
        match self.router.next_hop(self.tree_root, now) {
            None => self.deliver_broadcast(payload, 0, now),
            Some(next) => vec![OverlayEffect::Send {
                to: next.addr,
                msg: DhtMessage::TreeBroadcastUp {
                    root: self.tree_root,
                    payload,
                },
            }],
        }
    }

    fn deliver_broadcast(&mut self, payload: V, depth: u32, now: SimTime) -> Vec<OverlayEffect<V>> {
        let mut effects = vec![OverlayEffect::Event(OverlayEvent::Broadcast {
            payload: payload.clone(),
        })];
        if depth > 64 {
            // Defensive bound; a correct tree is far shallower.
            return effects;
        }
        self.tree_children.retain(|_, expiry| *expiry >= now);
        for child in self.tree_children.keys() {
            effects.push(OverlayEffect::Send {
                to: *child,
                msg: DhtMessage::TreeBroadcastDown {
                    root: self.tree_root,
                    payload: payload.clone(),
                    depth: depth + 1,
                },
            });
        }
        effects
    }

    // ----- Message and timer handling --------------------------------------

    /// Handle an incoming overlay message.
    pub fn on_message(
        &mut self,
        from: NodeAddr,
        msg: DhtMessage<V>,
        now: SimTime,
    ) -> Vec<OverlayEffect<V>> {
        match msg {
            DhtMessage::Routing(m) => {
                let effects = self.router.on_message(from, m, now);
                self.absorb_router_effects(effects, now)
            }
            DhtMessage::GetRequest {
                namespace,
                key,
                reply_to,
                request_id,
                trace: _,
            } => {
                let objects = self.objects.get(&namespace, &key, now);
                vec![OverlayEffect::Send {
                    to: reply_to,
                    msg: DhtMessage::GetResponse {
                        request_id,
                        namespace,
                        key,
                        objects,
                    },
                }]
            }
            DhtMessage::GetResponse {
                request_id,
                namespace,
                key,
                objects,
            } => vec![OverlayEffect::Event(OverlayEvent::GetResult {
                request_id,
                namespace,
                key,
                objects,
            })],
            DhtMessage::PutRequest {
                name,
                value,
                lifetime,
                trace,
            } => self.store_local_traced(name, value, lifetime, trace, now),
            DhtMessage::PutBatch { entries, trace } => {
                let mut effects = Vec::new();
                for (name, value, lifetime) in entries {
                    if self.router.is_responsible(name.routing_id()) {
                        effects.extend(self.store_local_traced(name, value, lifetime, trace, now));
                    } else {
                        // A membership change raced the coalesced transfer
                        // (e.g. a joiner took over part of this arc after
                        // the sender resolved us as the owner): re-enter the
                        // classic lookup-then-transfer flow instead of
                        // storing the entry out of place, where no correctly
                        // routed get would ever find it.
                        self.pending_trace = trace;
                        effects.extend(self.put(name, value, lifetime, now));
                    }
                }
                effects
            }
            DhtMessage::RenewRequest {
                name,
                lifetime,
                reply_to,
                request_id,
            } => {
                let success = self.objects.renew(&name, lifetime, now);
                vec![OverlayEffect::Send {
                    to: reply_to,
                    msg: DhtMessage::RenewResponse {
                        request_id,
                        success,
                    },
                }]
            }
            DhtMessage::RenewResponse {
                request_id,
                success,
            } => vec![OverlayEffect::Event(OverlayEvent::RenewResult {
                request_id,
                success,
            })],
            DhtMessage::Routed {
                target,
                name,
                value,
                lifetime,
                hops,
                trace,
            } => {
                if self.router.is_responsible(target) {
                    self.store_local_traced(name, value, lifetime, trace, now)
                } else {
                    // Offer the application an upcall before forwarding.
                    self.next_upcall_token += 1;
                    let token = self.next_upcall_token;
                    self.pending_upcalls.insert(
                        token,
                        (target, name.clone(), value.clone(), lifetime, hops, trace),
                    );
                    vec![OverlayEffect::Event(OverlayEvent::Upcall {
                        token,
                        from,
                        object: StoredObject {
                            name,
                            value,
                            expires_at: now + lifetime,
                        },
                        trace,
                    })]
                }
            }
            DhtMessage::TreeJoin { child, .. } => {
                self.tree_children
                    .insert(child, now + self.config.tree_child_lifetime);
                Vec::new()
            }
            DhtMessage::TreeBroadcastUp { root, payload } => {
                if self.router.is_responsible(root) {
                    self.deliver_broadcast(payload, 0, now)
                } else {
                    match self.router.next_hop(root, now) {
                        None => self.deliver_broadcast(payload, 0, now),
                        Some(next) => vec![OverlayEffect::Send {
                            to: next.addr,
                            msg: DhtMessage::TreeBroadcastUp { root, payload },
                        }],
                    }
                }
            }
            DhtMessage::TreeBroadcastDown { payload, depth, .. } => {
                self.deliver_broadcast(payload, depth, now)
            }
        }
    }

    /// Handle a maintenance timer; the returned effects include re-arming the
    /// same timer.
    pub fn on_timer(&mut self, timer: OverlayTimer, now: SimTime) -> Vec<OverlayEffect<V>> {
        let mut effects = match timer {
            OverlayTimer::Stabilize => {
                let e = self.router.on_stabilize(now);
                self.absorb_router_effects(e, now)
            }
            OverlayTimer::FixFingers => {
                let e = self.router.on_fix_fingers(now);
                self.absorb_router_effects(e, now)
            }
            OverlayTimer::Expire => {
                self.objects.expire(now);
                self.tree_children.retain(|_, expiry| *expiry >= now);
                Vec::new()
            }
            OverlayTimer::TreeRefresh => self.join_tree(now),
        };
        let delay = match timer {
            OverlayTimer::Stabilize => self.config.stabilize_interval,
            OverlayTimer::FixFingers => self.config.fix_fingers_interval,
            OverlayTimer::Expire => self.config.expire_interval,
            OverlayTimer::TreeRefresh => self.config.tree_refresh_interval,
        };
        effects.push(OverlayEffect::SetTimer { delay, timer });
        effects
    }

    fn absorb_router_effects(
        &mut self,
        effects: Vec<RouterEffect>,
        now: SimTime,
    ) -> Vec<OverlayEffect<V>> {
        let mut out = Vec::new();
        for effect in effects {
            match effect {
                RouterEffect::Send { to, msg } => out.push(OverlayEffect::Send {
                    to,
                    msg: DhtMessage::Routing(msg),
                }),
                RouterEffect::LookupDone {
                    request_id,
                    owner,
                    hops,
                } => out.extend(self.finish_lookup(request_id, owner, hops, now)),
            }
        }
        out
    }

    fn finish_lookup(
        &mut self,
        request_id: u64,
        owner: NodeRef,
        hops: u32,
        now: SimTime,
    ) -> Vec<OverlayEffect<V>> {
        let Some((issued_epoch, issued_at, op)) = self.pending.remove(&request_id) else {
            return Vec::new();
        };
        self.tel.inc("dht.lookups");
        self.tel.observe_count("dht.lookup_hops", hops as f64);
        self.tel.observe_latency(
            "dht.lookup_latency_us",
            now.saturating_sub(issued_at) as f64,
        );
        // Remember the resolution so later batched puts can group entries
        // for this identifier's arc without re-paying the lookup round —
        // but only when no membership change happened while the lookup was
        // in flight; a pre-churn answer must not re-poison the cache the
        // epoch bump just cleared.
        if issued_epoch == self.router.membership_epoch() && owner.addr != self.me.addr {
            let target = match &op {
                PendingOp::Get { namespace, key, .. } => crate::id::routing_id(namespace, key),
                PendingOp::Put { name, .. } | PendingOp::Renew { name, .. } => name.routing_id(),
                PendingOp::RawLookup { target } => *target,
            };
            self.cache_owner(target, owner, now);
        }
        match op {
            PendingOp::Get {
                namespace,
                key,
                trace,
            } => {
                if owner.addr == self.me.addr {
                    let objects = self.objects.get(&namespace, &key, now);
                    vec![OverlayEffect::Event(OverlayEvent::GetResult {
                        request_id,
                        namespace,
                        key,
                        objects,
                    })]
                } else {
                    vec![OverlayEffect::Send {
                        to: owner.addr,
                        msg: DhtMessage::GetRequest {
                            namespace,
                            key,
                            reply_to: self.me.addr,
                            request_id,
                            trace,
                        },
                    }]
                }
            }
            PendingOp::Put {
                name,
                value,
                lifetime,
                trace,
            } => {
                if owner.addr == self.me.addr {
                    self.store_local_traced(name, value, lifetime, trace, now)
                } else {
                    vec![OverlayEffect::Send {
                        to: owner.addr,
                        msg: DhtMessage::PutRequest {
                            name,
                            value,
                            lifetime,
                            trace,
                        },
                    }]
                }
            }
            PendingOp::Renew { name, lifetime } => {
                if owner.addr == self.me.addr {
                    let success = self.objects.renew(&name, lifetime, now);
                    vec![OverlayEffect::Event(OverlayEvent::RenewResult {
                        request_id,
                        success,
                    })]
                } else {
                    vec![OverlayEffect::Send {
                        to: owner.addr,
                        msg: DhtMessage::RenewRequest {
                            name,
                            lifetime,
                            reply_to: self.me.addr,
                            request_id,
                        },
                    }]
                }
            }
            PendingOp::RawLookup { .. } => vec![OverlayEffect::Event(OverlayEvent::LookupDone {
                request_id,
                owner,
                hops,
            })],
        }
    }
}

fn routing_effect<V>(effect: RouterEffect) -> OverlayEffect<V> {
    match effect {
        RouterEffect::Send { to, msg } => OverlayEffect::Send {
            to,
            msg: DhtMessage::Routing(msg),
        },
        RouterEffect::LookupDone { .. } => {
            unreachable!("bootstrap never completes a lookup synchronously")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::routing_id;

    fn two_node_ring() -> (Overlay<String>, Overlay<String>, Vec<NodeRef>) {
        let refs = vec![
            NodeRef {
                id: Id(100),
                addr: NodeAddr(0),
            },
            NodeRef {
                id: Id(u64::MAX / 2),
                addr: NodeAddr(1),
            },
        ];
        let a = Overlay::with_static_ring(refs[0], &refs, OverlayConfig::default());
        let b = Overlay::with_static_ring(refs[1], &refs, OverlayConfig::default());
        (a, b, refs)
    }

    fn sends<V: Clone>(effects: &[OverlayEffect<V>]) -> Vec<(NodeAddr, DhtMessage<V>)> {
        effects
            .iter()
            .filter_map(|e| match e {
                OverlayEffect::Send { to, msg } => Some((*to, msg.clone())),
                _ => None,
            })
            .collect()
    }

    fn events<V: Clone>(effects: &[OverlayEffect<V>]) -> Vec<OverlayEvent<V>> {
        effects
            .iter()
            .filter_map(|e| match e {
                OverlayEffect::Event(ev) => Some(ev.clone()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn local_put_and_get_short_circuit() {
        let (mut a, _b, _) = two_node_ring();
        // Find a key that node a owns.
        let mut key = String::new();
        for i in 0..10_000 {
            let candidate = format!("k{i}");
            if a.router().is_responsible(routing_id("t", &candidate)) {
                key = candidate;
                break;
            }
        }
        assert!(!key.is_empty(), "no locally owned key found");
        let effects = a.put(
            ObjectName::new("t", key.clone(), 1),
            "v".into(),
            1_000_000,
            0,
        );
        assert!(matches!(
            events(&effects).as_slice(),
            [OverlayEvent::NewData { .. }]
        ));
        let (rid, effects) = a.get("t", &key, 10);
        match &events(&effects)[..] {
            [OverlayEvent::GetResult {
                request_id,
                objects,
                ..
            }] => {
                assert_eq!(*request_id, rid);
                assert_eq!(objects.len(), 1);
                assert_eq!(objects[0].value, "v");
            }
            other => panic!("unexpected events {other:?}"),
        }
    }

    #[test]
    fn remote_put_goes_through_lookup_then_direct_transfer() {
        let (mut a, mut b, _) = two_node_ring();
        // Find a key that node b owns.
        let mut key = String::new();
        for i in 0..10_000 {
            let candidate = format!("k{i}");
            if b.router().is_responsible(routing_id("t", &candidate)) {
                key = candidate;
                break;
            }
        }
        let effects = a.put(
            ObjectName::new("t", key.clone(), 7),
            "val".into(),
            1_000_000,
            0,
        );
        // In a two-node ring the lookup resolves locally (b is a's successor),
        // so the effect is a direct PutRequest to b.
        let msgs = sends(&effects);
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].0, NodeAddr(1));
        let put_effects = b.on_message(NodeAddr(0), msgs[0].1.clone(), 5);
        assert!(matches!(
            events(&put_effects).as_slice(),
            [OverlayEvent::NewData { .. }]
        ));
        assert_eq!(b.objects().get("t", &key, 10).len(), 1);

        // And a's get for the same key round-trips through b.
        let (rid, effects) = a.get("t", &key, 20);
        let msgs = sends(&effects);
        assert_eq!(msgs.len(), 1, "expected a GetRequest to b");
        let resp = b.on_message(NodeAddr(0), msgs[0].1.clone(), 25);
        let resp_msgs = sends(&resp);
        assert_eq!(resp_msgs.len(), 1);
        let final_effects = a.on_message(NodeAddr(1), resp_msgs[0].1.clone(), 30);
        match &events(&final_effects)[..] {
            [OverlayEvent::GetResult {
                request_id,
                objects,
                ..
            }] => {
                assert_eq!(*request_id, rid);
                assert_eq!(objects.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn put_batch_groups_same_owner_entries_into_one_message() {
        let (mut a, mut b, _) = two_node_ring();
        // Partition a pile of keys by owner as the router sees them.
        let mut a_keys = Vec::new();
        let mut b_keys = Vec::new();
        for i in 0..40 {
            let key = format!("k{i}");
            if a.router().is_responsible(routing_id("t", &key)) {
                a_keys.push(key);
            } else {
                b_keys.push(key);
            }
        }
        assert!(a_keys.len() >= 2, "need locally owned keys");
        assert!(b_keys.len() >= 2, "need remotely owned keys");
        let entries: Vec<(ObjectName, String, u64)> = a_keys
            .iter()
            .chain(&b_keys)
            .enumerate()
            .map(|(i, k)| {
                (
                    ObjectName::new("t", k.clone(), i as u64),
                    format!("v{i}"),
                    1_000_000,
                )
            })
            .collect();
        let total = entries.len();
        let effects = a.put_batch(entries, 0);
        // Local entries stored immediately (one NewData each)…
        assert_eq!(events(&effects).len(), a_keys.len());
        // …and every remote entry travels in a single coalesced message (in
        // a two-node ring the successor arc covers the whole remainder).
        let msgs = sends(&effects);
        assert_eq!(msgs.len(), 1, "all remote entries share one PutBatch");
        assert!(
            matches!(&msgs[0].1, DhtMessage::PutBatch { entries, .. } if entries.len() == b_keys.len())
        );
        // The receiver unpacks into per-object storage with per-object
        // lifetimes, exactly as separate puts would have produced.
        let recv_effects = b.on_message(NodeAddr(0), msgs[0].1.clone(), 5);
        assert_eq!(events(&recv_effects).len(), b_keys.len());
        let stored: usize = b_keys
            .iter()
            .map(|k| b.objects().get("t", k, 10).len())
            .sum();
        assert_eq!(stored, b_keys.len());
        assert_eq!(a.objects().len() + b.objects().len(), total);
        // The coalesced transfer's dictionary framing undercuts the bytes
        // the same entries would cost as separate PutRequests (the shared
        // namespace travels once).
        let separate: usize = match &msgs[0].1 {
            DhtMessage::PutBatch { entries, .. } => entries
                .iter()
                .map(|(name, value, lifetime)| {
                    DhtMessage::PutRequest {
                        name: name.clone(),
                        value: value.clone(),
                        lifetime: *lifetime,
                        trace: None,
                    }
                    .wire_size()
                })
                .sum(),
            other => panic!("unexpected {other:?}"),
        };
        assert!(msgs[0].1.wire_size() < separate);
    }

    #[test]
    fn put_batch_never_coalesces_toward_a_departed_node() {
        // Three nodes; node 1 owns the middle arc, then leaves (its probes
        // go unanswered until stabilization evicts it).  A batch flushed
        // after the eviction must not group a single entry toward it.
        let refs = vec![
            NodeRef {
                id: Id(100),
                addr: NodeAddr(0),
            },
            NodeRef {
                id: Id(u64::MAX / 3),
                addr: NodeAddr(1),
            },
            NodeRef {
                id: Id(2 * (u64::MAX / 3)),
                addr: NodeAddr(2),
            },
        ];
        let mut a: Overlay<String> =
            Overlay::with_static_ring(refs[0], &refs, OverlayConfig::default());
        let keys: Vec<String> = (0..200)
            .map(|i| format!("k{i}"))
            .filter(|k| {
                let id = routing_id("t", k);
                id.in_interval(refs[0].id, refs[1].id)
            })
            .take(6)
            .collect();
        assert!(keys.len() >= 4, "need keys in the departed node's arc");
        let entries = |suffix: u64| -> Vec<(ObjectName, String, u64)> {
            keys.iter()
                .enumerate()
                .map(|(i, k)| {
                    (
                        ObjectName::new("t", k.clone(), suffix + i as u64),
                        "v".to_string(),
                        1_000_000,
                    )
                })
                .collect()
        };
        // Before the churn the whole pile coalesces toward node 1.
        let effects = a.put_batch(entries(0), 0);
        assert!(sends(&effects).iter().all(|(to, _)| *to == NodeAddr(1)));
        assert!(sends(&effects)
            .iter()
            .any(|(_, m)| matches!(m, DhtMessage::PutBatch { .. })));
        // Node 1 departs: its stabilization probe goes unanswered past the
        // liveness timeout; node 2 keeps answering and stays trusted.
        a.on_timer(OverlayTimer::Stabilize, 0);
        a.on_message(
            NodeAddr(2),
            DhtMessage::Routing(crate::router::RouterMessage::Notify { from: refs[2] }),
            1_000,
        );
        let epoch_before = a.router().membership_epoch();
        a.on_timer(OverlayTimer::Stabilize, 60_000_000);
        assert!(
            a.router().membership_epoch() > epoch_before,
            "eviction must bump the membership epoch"
        );
        // The same arc now resolves to node 2 (the next live successor);
        // nothing — batched or otherwise — travels to the departed node.
        let effects = a.put_batch(entries(100), 60_000_001);
        let msgs = sends(&effects);
        assert!(!msgs.is_empty());
        assert!(
            msgs.iter().all(|(to, _)| *to != NodeAddr(1)),
            "no transfer may target the departed node: {msgs:?}"
        );
        assert!(msgs
            .iter()
            .any(|(to, m)| *to == NodeAddr(2) && matches!(m, DhtMessage::PutBatch { .. })));
    }

    #[test]
    fn owner_cache_extends_coalescing_and_invalidates_on_membership_change() {
        // Six nodes, successor list truncated to 1: arcs beyond the direct
        // successor are not locally determinable, so batched puts for them
        // need either a lookup round or the lookup-fed owner cache.
        let n = 6u64;
        let refs: Vec<NodeRef> = (0..n)
            .map(|i| NodeRef {
                id: Id(100 + i * (u64::MAX / n)),
                addr: NodeAddr(i as u32),
            })
            .collect();
        let config = OverlayConfig {
            router: RouterConfig {
                successor_list_len: 1,
                ..RouterConfig::default()
            },
            ..OverlayConfig::default()
        };
        let mut overlays: Vec<Overlay<String>> = refs
            .iter()
            .map(|r| Overlay::with_static_ring(*r, &refs, config))
            .collect();
        // Pick a target arc at least two hops from node 0.
        let target = refs[3];
        let keys: Vec<String> = (0..400)
            .map(|i| format!("k{i}"))
            .filter(|k| routing_id("t", k).in_interval(refs[2].id, refs[3].id))
            .take(5)
            .collect();
        assert!(keys.len() >= 5, "need keys in the far arc");
        // A single classic put resolves the owner via a routed lookup…
        let mut queue: Vec<(NodeAddr, NodeAddr, DhtMessage<String>)> = overlays[0]
            .put(
                ObjectName::new("t", keys[0].clone(), 1),
                "v".into(),
                1_000_000,
                0,
            )
            .into_iter()
            .filter_map(|e| match e {
                OverlayEffect::Send { to, msg } => Some((NodeAddr(0), to, msg)),
                _ => None,
            })
            .collect();
        let mut put_request_seen = false;
        let mut guard = 0;
        while let Some((from, to, msg)) = queue.pop() {
            guard += 1;
            assert!(guard < 64, "lookup did not converge");
            if matches!(msg, DhtMessage::PutRequest { .. }) {
                assert_eq!(to, target.addr);
                put_request_seen = true;
                continue;
            }
            for e in overlays[to.index()].on_message(from, msg, 0) {
                if let OverlayEffect::Send { to: next, msg } = e {
                    queue.push((to, next, msg));
                }
            }
        }
        assert!(put_request_seen, "the classic put must reach the owner");
        // …which primes the cache only for that exact identifier; batched
        // puts for *other* keys of the arc still lack a local resolution, so
        // they fall back to lookups whose replies fill the cache.
        let entries: Vec<(ObjectName, String, u64)> = keys[1..]
            .iter()
            .enumerate()
            .map(|(i, k)| {
                (
                    ObjectName::new("t", k.clone(), 10 + i as u64),
                    "v".to_string(),
                    1_000_000,
                )
            })
            .collect();
        let effects = overlays[0].put_batch(entries.clone(), 10);
        let mut queue: Vec<(NodeAddr, NodeAddr, DhtMessage<String>)> = sends(&effects)
            .into_iter()
            .map(|(to, msg)| (NodeAddr(0), to, msg))
            .collect();
        let mut guard = 0;
        while let Some((from, to, msg)) = queue.pop() {
            guard += 1;
            assert!(guard < 256, "batch fallback lookups did not converge");
            if matches!(
                msg,
                DhtMessage::PutRequest { .. } | DhtMessage::PutBatch { .. }
            ) {
                assert_eq!(to, target.addr);
                continue;
            }
            for e in overlays[to.index()].on_message(from, msg, 10) {
                if let OverlayEffect::Send { to: next, msg } = e {
                    queue.push((to, next, msg));
                }
            }
        }
        assert!(
            !overlays[0].owner_cache.is_empty(),
            "completed lookups must feed the owner cache"
        );
        // With the cache warm, a fresh batch for the same arc coalesces into
        // ONE PutBatch straight to the owner — no lookup round at all.
        let warm: Vec<(ObjectName, String, u64)> = keys[1..]
            .iter()
            .enumerate()
            .map(|(i, k)| {
                (
                    ObjectName::new("t", k.clone(), 50 + i as u64),
                    "v".to_string(),
                    1_000_000,
                )
            })
            .collect();
        let effects = overlays[0].put_batch(warm.clone(), 20);
        let msgs = sends(&effects);
        assert_eq!(
            msgs.len(),
            1,
            "one coalesced transfer, no lookups: {msgs:?}"
        );
        assert_eq!(msgs[0].0, target.addr);
        assert!(matches!(&msgs[0].1, DhtMessage::PutBatch { entries, .. } if entries.len() == 4));
        // A membership change (a new predecessor announces itself) bumps the
        // router's epoch and clears the cache: the next batch must not trust
        // the stale resolution.
        let newcomer = NodeRef {
            id: Id(99),
            addr: NodeAddr(42),
        };
        overlays[0].on_message(
            newcomer.addr,
            DhtMessage::Routing(crate::router::RouterMessage::Notify { from: newcomer }),
            30,
        );
        let effects = overlays[0].put_batch(warm, 30);
        assert!(
            overlays[0].owner_cache.is_empty(),
            "membership change must clear the owner cache"
        );
        assert!(
            sends(&effects)
                .iter()
                .all(|(_, m)| !matches!(m, DhtMessage::PutBatch { .. })),
            "no coalesced transfer may ride a stale resolution"
        );
    }

    #[test]
    fn put_batch_receiver_forwards_entries_it_does_not_own() {
        // A coalesced transfer landing at a node that is not (or no longer)
        // responsible for its entries — e.g. the sender's cached owner went
        // stale after a join — must re-enter the routed put flow, never
        // store the objects where no correctly routed get would find them.
        let refs = vec![
            NodeRef {
                id: Id(100),
                addr: NodeAddr(0),
            },
            NodeRef {
                id: Id(u64::MAX / 3),
                addr: NodeAddr(1),
            },
            NodeRef {
                id: Id(2 * (u64::MAX / 3)),
                addr: NodeAddr(2),
            },
        ];
        let mut b: Overlay<String> =
            Overlay::with_static_ring(refs[1], &refs, OverlayConfig::default());
        // Keys owned by node 2, misdirected to node 1 in one PutBatch.
        let entries: Vec<(ObjectName, String, u64)> = (0..200)
            .map(|i| format!("k{i}"))
            .filter(|k| routing_id("t", k).in_interval(refs[1].id, refs[2].id))
            .take(3)
            .enumerate()
            .map(|(i, k)| {
                (
                    ObjectName::new("t", k, i as u64),
                    "v".to_string(),
                    1_000_000,
                )
            })
            .collect();
        assert_eq!(entries.len(), 3);
        let misdirected = DhtMessage::PutBatch {
            entries: entries.clone(),
            trace: None,
        };
        let effects = b.on_message(NodeAddr(0), misdirected, 0);
        assert!(
            events(&effects).is_empty(),
            "nothing may be stored out of place"
        );
        assert_eq!(b.objects().len(), 0);
        // Every entry is forwarded toward the true owner instead (node 2 is
        // b's successor, so the re-entered put resolves it directly).
        let msgs = sends(&effects);
        assert_eq!(msgs.len(), entries.len());
        assert!(msgs
            .iter()
            .all(|(to, m)| *to == NodeAddr(2) && matches!(m, DhtMessage::PutRequest { .. })));
    }

    #[test]
    fn owner_cache_entries_expire_and_in_flight_lookups_cannot_repoison() {
        // Same truncated-successor-list setup as the test above: far arcs
        // resolve only through the lookup-fed owner cache.
        let n = 6u64;
        let refs: Vec<NodeRef> = (0..n)
            .map(|i| NodeRef {
                id: Id(100 + i * (u64::MAX / n)),
                addr: NodeAddr(i as u32),
            })
            .collect();
        let config = OverlayConfig {
            router: RouterConfig {
                successor_list_len: 1,
                ..RouterConfig::default()
            },
            ..OverlayConfig::default()
        };
        let mut overlays: Vec<Overlay<String>> = refs
            .iter()
            .map(|r| Overlay::with_static_ring(*r, &refs, config))
            .collect();
        let target = refs[3];
        let keys: Vec<String> = (0..400)
            .map(|i| format!("k{i}"))
            .filter(|k| routing_id("t", k).in_interval(refs[2].id, refs[3].id))
            .take(3)
            .collect();
        assert!(keys.len() >= 3, "need keys in the far arc");
        let entries = |suffix: u64, now_keys: &[String]| -> Vec<(ObjectName, String, u64)> {
            now_keys
                .iter()
                .enumerate()
                .map(|(i, k)| {
                    (
                        ObjectName::new("t", k.clone(), suffix + i as u64),
                        "v".to_string(),
                        1_000_000,
                    )
                })
                .collect()
        };
        // Warm the cache: the fallback lookups of a first batch complete.
        let effects = overlays[0].put_batch(entries(0, &keys), 0);
        let mut queue: Vec<(NodeAddr, NodeAddr, DhtMessage<String>)> = sends(&effects)
            .into_iter()
            .map(|(to, msg)| (NodeAddr(0), to, msg))
            .collect();
        let mut guard = 0;
        while let Some((from, to, msg)) = queue.pop() {
            guard += 1;
            assert!(guard < 256, "warming lookups did not converge");
            if matches!(msg, DhtMessage::PutRequest { .. }) {
                continue;
            }
            for e in overlays[to.index()].on_message(from, msg, 0) {
                if let OverlayEffect::Send { to: next, msg } = e {
                    queue.push((to, next, msg));
                }
            }
        }
        assert!(!overlays[0].owner_cache.is_empty());
        // Within the TTL the batch coalesces…
        let ttl = RouterConfig::default().liveness_timeout;
        let msgs = sends(&overlays[0].put_batch(entries(10, &keys), ttl));
        assert_eq!(msgs.len(), 1);
        assert!(matches!(&msgs[0].1, DhtMessage::PutBatch { .. }));
        assert_eq!(msgs[0].0, target.addr);
        // …past it the entry is no longer trusted: membership may have
        // changed outside our neighbor view (a remote join never bumps our
        // epoch), so the batch falls back to fresh lookups.
        let msgs = sends(&overlays[0].put_batch(entries(20, &keys), 2 * ttl + 1));
        assert!(
            msgs.iter()
                .all(|(_, m)| matches!(m, DhtMessage::Routing(_))),
            "expired cache entries must force a lookup round: {msgs:?}"
        );
        assert!(
            overlays[0].owner_cache.is_empty(),
            "expired entries evicted"
        );
        // In-flight poisoning: a put issues its lookup, THEN the membership
        // changes, THEN the pre-churn reply arrives.  The reply still
        // completes the put (the classic Figure-6 race) but must not enter
        // the cache the epoch bump just cleared.
        let t = 2 * ttl + 2;
        let effects = overlays[0].put(
            ObjectName::new("t", keys[0].clone(), 99),
            "v".into(),
            1_000_000,
            t,
        );
        let mut queue: Vec<(NodeAddr, NodeAddr, DhtMessage<String>)> = sends(&effects)
            .into_iter()
            .map(|(to, msg)| (NodeAddr(0), to, msg))
            .collect();
        let mut replies: Vec<(NodeAddr, DhtMessage<String>)> = Vec::new();
        let mut guard = 0;
        while let Some((from, to, msg)) = queue.pop() {
            guard += 1;
            assert!(guard < 64, "lookup did not converge");
            if to == NodeAddr(0) {
                replies.push((from, msg)); // hold the reply back
                continue;
            }
            for e in overlays[to.index()].on_message(from, msg, t) {
                if let OverlayEffect::Send { to: next, msg } = e {
                    queue.push((to, next, msg));
                }
            }
        }
        assert!(!replies.is_empty(), "the lookup must produce a reply");
        let newcomer = NodeRef {
            id: Id(99),
            addr: NodeAddr(42),
        };
        overlays[0].on_message(
            newcomer.addr,
            DhtMessage::Routing(crate::router::RouterMessage::Notify { from: newcomer }),
            t,
        );
        for (from, msg) in replies {
            overlays[0].on_message(from, msg, t);
        }
        assert!(
            overlays[0].owner_cache.is_empty(),
            "a pre-churn lookup reply must not re-poison the cleared cache"
        );
    }

    #[test]
    fn owner_cache_is_lru_bounded_on_a_large_ring() {
        // A ring whose truncated successor lists leave a far arc that only
        // the lookup-fed cache can resolve — the shape under which the cache
        // is actually exercised — then hammer it with far more distinct
        // identifiers than the capacity bound.
        let n = 6u64;
        let step = u64::MAX / n;
        let refs: Vec<NodeRef> = (0..n)
            .map(|i| NodeRef {
                id: Id(100 + i * step),
                addr: NodeAddr(i as u32),
            })
            .collect();
        let config = OverlayConfig {
            router: RouterConfig {
                successor_list_len: 1,
                ..RouterConfig::default()
            },
            ..OverlayConfig::default()
        };
        let mut overlay: Overlay<String> = Overlay::with_static_ring(refs[0], &refs, config);
        let target = refs[3];
        // Identifiers strictly inside the far arc (refs[2], refs[3]): node 0
        // has no authoritative routing state for them.
        let far = |i: u64| Id(100 + 2 * step + 1 + (i % (step - 2)));
        let max = Overlay::<String>::OWNER_CACHE_MAX;
        for i in 0..(3 * max as u64) {
            overlay.cache_owner(far(i), target, 0);
            assert!(
                overlay.owner_cache.len() <= max,
                "cache exceeded its bound at insert {i}: {}",
                overlay.owner_cache.len()
            );
        }
        assert_eq!(overlay.owner_cache.len(), max);
        // A recently-used entry survives LRU churn: touch one resolution,
        // then push a full capacity's worth of fresh inserts through.  Every
        // timestamp stays within the TTL, so the bound below is enforced
        // purely by least-recently-used eviction — and the touched entry is
        // never the victim.
        let hot = far(3 * max as u64);
        overlay.cache_owner(hot, target, 1);
        assert_eq!(
            overlay.resolved_owner(hot, 2).map(|o| o.addr),
            Some(target.addr)
        );
        for i in 0..(max as u64 - 1) {
            overlay.cache_owner(far(10_000_000 + i), target, 2);
            assert!(overlay.owner_cache.len() <= max);
        }
        assert!(
            overlay.owner_cache.contains_key(&hot),
            "the most-recently-used entry must survive LRU eviction"
        );
        assert_eq!(overlay.owner_cache.len(), max);
    }

    #[test]
    fn renew_requires_existing_object() {
        let (mut a, _b, _) = two_node_ring();
        let mut key = String::new();
        for i in 0..10_000 {
            let candidate = format!("k{i}");
            if a.router().is_responsible(routing_id("t", &candidate)) {
                key = candidate;
                break;
            }
        }
        let name = ObjectName::new("t", key.clone(), 1);
        // Renew before put fails.
        let (_, effects) = a.renew(name.clone(), 1_000, 0);
        assert!(matches!(
            events(&effects).as_slice(),
            [OverlayEvent::RenewResult { success: false, .. }]
        ));
        a.put(name.clone(), "v".into(), 1_000_000, 0);
        let (_, effects) = a.renew(name, 2_000_000, 100);
        assert!(matches!(
            events(&effects).as_slice(),
            [OverlayEvent::RenewResult { success: true, .. }]
        ));
    }

    #[test]
    fn routed_send_offers_upcall_and_can_be_dropped() {
        // Three nodes so a send can pass through an intermediate hop.
        let refs = vec![
            NodeRef {
                id: Id(0),
                addr: NodeAddr(0),
            },
            NodeRef {
                id: Id(u64::MAX / 3),
                addr: NodeAddr(1),
            },
            NodeRef {
                id: Id(2 * (u64::MAX / 3)),
                addr: NodeAddr(2),
            },
        ];
        let mut overlays: Vec<Overlay<String>> = refs
            .iter()
            .map(|r| Overlay::with_static_ring(*r, &refs, OverlayConfig::default()))
            .collect();
        // Pick a name owned by node 2 and send it from node 0; with only
        // three nodes the message may go direct, so also verify the upcall
        // path explicitly by delivering a Routed message to a non-owner.
        let name = ObjectName::new("agg", "root", 1);
        let target = name.routing_id();
        let owner = refs
            .iter()
            .position(|r| overlays[r.addr.index()].router().is_responsible(target))
            .unwrap();
        let non_owner = (owner + 1) % 3;
        let routed: DhtMessage<String> = DhtMessage::Routed {
            target,
            name: name.clone(),
            value: "partial".into(),
            lifetime: 1_000_000,
            hops: 1,
            trace: None,
        };
        let effects = overlays[non_owner].on_message(NodeAddr(9), routed, 0);
        let evs = events(&effects);
        let token = match &evs[..] {
            [OverlayEvent::Upcall { token, object, .. }] => {
                assert_eq!(object.value, "partial");
                *token
            }
            other => panic!("expected an upcall, got {other:?}"),
        };
        // Dropping the message produces no further effects.
        let dropped = overlays[non_owner].resume_upcall(token, false, 1);
        assert!(dropped.is_empty());
        // Re-deliver and continue: the message is forwarded onward.
        let routed: DhtMessage<String> = DhtMessage::Routed {
            target,
            name,
            value: "partial".into(),
            lifetime: 1_000_000,
            hops: 1,
            trace: None,
        };
        let effects = overlays[non_owner].on_message(NodeAddr(9), routed, 2);
        let token = match &events(&effects)[..] {
            [OverlayEvent::Upcall { token, .. }] => *token,
            other => panic!("expected an upcall, got {other:?}"),
        };
        let forwarded = overlays[non_owner].resume_upcall(token, true, 3);
        assert_eq!(sends(&forwarded).len(), 1);
    }

    #[test]
    fn tree_join_recorded_and_broadcast_reaches_children() {
        let (mut a, mut b, refs) = two_node_ring();
        let root_owner_is_a = a.is_tree_root();
        let (root, child, root_addr, child_addr) = if root_owner_is_a {
            (&mut a, &mut b, refs[0].addr, refs[1].addr)
        } else {
            (&mut b, &mut a, refs[1].addr, refs[0].addr)
        };
        // Child joins the tree: with two nodes, its parent is the root.
        let join = child.join_tree(0);
        let msgs = sends(&join);
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].0, root_addr);
        root.on_message(child_addr, msgs[0].1.clone(), 0);
        assert_eq!(root.tree_children(), vec![child_addr]);

        // Broadcasting from the root delivers locally and to the child.
        let effects = root.broadcast("query-plan".to_string(), 1);
        let evs = events(&effects);
        assert!(
            matches!(&evs[..], [OverlayEvent::Broadcast { payload }] if payload == "query-plan")
        );
        let down = sends(&effects);
        assert_eq!(down.len(), 1);
        assert_eq!(down[0].0, child_addr);
        let child_effects = child.on_message(root_addr, down[0].1.clone(), 2);
        assert!(matches!(
            events(&child_effects).as_slice(),
            [OverlayEvent::Broadcast { .. }]
        ));
    }

    #[test]
    fn timers_rearm_themselves() {
        let (mut a, _b, _) = two_node_ring();
        for timer in [
            OverlayTimer::Stabilize,
            OverlayTimer::FixFingers,
            OverlayTimer::Expire,
            OverlayTimer::TreeRefresh,
        ] {
            let effects = a.on_timer(timer, 1_000);
            assert!(
                effects
                    .iter()
                    .any(|e| matches!(e, OverlayEffect::SetTimer { timer: t, .. } if *t == timer)),
                "{timer:?} must reschedule itself"
            );
        }
    }

    #[test]
    fn expire_timer_sweeps_soft_state() {
        let (mut a, _b, _) = two_node_ring();
        let mut key = String::new();
        for i in 0..10_000 {
            let candidate = format!("k{i}");
            if a.router().is_responsible(routing_id("t", &candidate)) {
                key = candidate;
                break;
            }
        }
        a.put(ObjectName::new("t", key.clone(), 1), "v".into(), 1_000, 0);
        assert_eq!(a.objects().len(), 1);
        a.on_timer(OverlayTimer::Expire, 10_000);
        assert_eq!(a.objects().len(), 0, "expired object must be swept");
    }
}
