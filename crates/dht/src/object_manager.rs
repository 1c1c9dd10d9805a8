//! The soft-state object manager (§3.2.3 of the paper).
//!
//! The overlay does not promise persistent storage.  Each object is stored
//! for its *soft-state lifetime* and then discarded; keeping an object alive
//! is the responsibility of its publisher, which must periodically `renew`
//! it.  The object manager enforces a maximum lifetime so that objects whose
//! publisher has failed are eventually garbage collected.
//!
//! The object manager is a purely local component: it never talks to the
//! network.  The [`wrapper`](crate::wrapper) invokes it when `put`, `get`,
//! `renew` or `send` messages arrive for identifiers this node is
//! responsible for.

use crate::naming::{ObjectName, PartitionKey};
use pier_runtime::{SimTime, WireSize};
use std::collections::BTreeMap;

/// An object held by the object manager, together with its expiry time.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredObject<V> {
    /// The object's full name (namespace, partitioning key, suffix).
    pub name: ObjectName,
    /// The payload.
    pub value: V,
    /// Virtual time at which the object expires and is discarded.
    pub expires_at: SimTime,
}

impl<V: WireSize> WireSize for StoredObject<V> {
    fn wire_size(&self) -> usize {
        self.name.wire_size() + self.value.wire_size() + 8
    }
}

/// Per-node soft-state store.
#[derive(Debug, Clone)]
pub struct ObjectManager<V> {
    /// (namespace, key) -> suffix -> object.  Ordered maps: scan and get
    /// results feed pipelines and outgoing messages, so their order must
    /// not depend on hash seeding (equal-seed runs replay byte-for-byte).
    groups: BTreeMap<(String, PartitionKey), BTreeMap<u64, StoredObject<V>>>,
    /// Upper bound the store imposes on any requested lifetime.
    max_lifetime: u64,
    /// Number of objects ever dropped by expiry (for diagnostics/tests).
    expired_count: u64,
}

impl<V: Clone> ObjectManager<V> {
    /// Create a store that clamps requested lifetimes to `max_lifetime`
    /// microseconds.
    pub fn new(max_lifetime: u64) -> Self {
        ObjectManager {
            groups: BTreeMap::new(),
            max_lifetime,
            expired_count: 0,
        }
    }

    /// The maximum lifetime this store will grant.
    pub fn max_lifetime(&self) -> u64 {
        self.max_lifetime
    }

    /// Total number of live objects (may include objects whose expiry time
    /// has passed but that have not been swept yet).
    pub fn len(&self) -> usize {
        self.groups
            .values()
            .map(std::collections::BTreeMap::len)
            .sum()
    }

    /// True when the store holds no objects.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of objects removed by [`expire`](Self::expire) so far.
    pub fn expired_count(&self) -> u64 {
        self.expired_count
    }

    /// Insert (or overwrite) an object with the requested lifetime, clamped
    /// to the store's maximum.  Returns the granted expiry time.
    pub fn put(&mut self, name: ObjectName, value: V, lifetime: u64, now: SimTime) -> SimTime {
        let granted = lifetime.min(self.max_lifetime);
        let expires_at = now + granted;
        let group = self.groups.entry(name.group()).or_default();
        group.insert(
            name.suffix,
            StoredObject {
                name,
                value,
                expires_at,
            },
        );
        expires_at
    }

    /// Extend the lifetime of an existing object (§3.2.4: `renew` succeeds
    /// only if the object is already stored here; otherwise the publisher
    /// must perform a fresh `put`).  Returns `true` on success.
    pub fn renew(&mut self, name: &ObjectName, lifetime: u64, now: SimTime) -> bool {
        let granted = lifetime.min(self.max_lifetime);
        if let Some(group) = self.groups.get_mut(&name.group()) {
            if let Some(obj) = group.get_mut(&name.suffix) {
                if obj.expires_at >= now {
                    obj.expires_at = now + granted;
                    return true;
                }
            }
        }
        false
    }

    /// All live objects with the given namespace and partitioning key
    /// (every suffix), i.e. the result set of a `get`.
    pub fn get(&self, namespace: &str, key: &str, now: SimTime) -> Vec<StoredObject<V>> {
        self.groups
            .get(&(namespace.to_string(), key.to_string()))
            .map(|g| {
                g.values()
                    .filter(|o| o.expires_at >= now)
                    .cloned()
                    .collect()
            })
            .unwrap_or_default()
    }

    /// All live objects in a namespace stored at this node — the local part
    /// of the query processor's `localScan` access method — borrowed in
    /// place, in (key, suffix) order.  Groups are ordered by (namespace,
    /// key), so one namespace is a contiguous range starting at its empty
    /// key.
    pub fn scan_namespace(
        &self,
        namespace: &str,
        now: SimTime,
    ) -> impl Iterator<Item = &StoredObject<V>> + '_ {
        let start = (namespace.to_string(), PartitionKey::new());
        self.groups
            .range(&start..)
            .take_while(move |((ns, _), _)| *ns == start.0)
            .flat_map(|(_, g)| g.values())
            .filter(move |o| o.expires_at >= now)
    }

    /// All live objects stored at this node, regardless of namespace.
    pub fn scan_all(&self, now: SimTime) -> Vec<StoredObject<V>> {
        self.groups
            .values()
            .flat_map(|g| g.values())
            .filter(|o| o.expires_at >= now)
            .cloned()
            .collect()
    }

    /// Namespaces with at least one live object, in order (groups are
    /// already ordered by namespace).
    pub fn namespaces(&self, now: SimTime) -> Vec<String> {
        let mut out: Vec<String> = self
            .groups
            .iter()
            .filter(|(_, g)| g.values().any(|o| o.expires_at >= now))
            .map(|((ns, _), _)| ns.clone())
            .collect();
        out.dedup();
        out
    }

    /// Drop every object whose lifetime has elapsed; returns the number of
    /// objects discarded.  The wrapper calls this on a periodic timer — the
    /// "natural garbage collector" of §3.2.3.
    pub fn expire(&mut self, now: SimTime) -> usize {
        let mut removed = 0;
        self.groups.retain(|_, group| {
            group.retain(|_, obj| {
                let live = obj.expires_at >= now;
                if !live {
                    removed += 1;
                }
                live
            });
            !group.is_empty()
        });
        self.expired_count += removed as u64;
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(ns: &str, key: &str, suffix: u64) -> ObjectName {
        ObjectName::new(ns, key, suffix)
    }

    #[test]
    fn put_then_get_returns_all_suffixes() {
        let mut om: ObjectManager<String> = ObjectManager::new(1_000_000);
        om.put(name("files", "rock", 1), "a".into(), 500_000, 0);
        om.put(name("files", "rock", 2), "b".into(), 500_000, 0);
        om.put(name("files", "jazz", 3), "c".into(), 500_000, 0);
        let got = om.get("files", "rock", 100);
        assert_eq!(got.len(), 2);
        assert_eq!(om.get("files", "jazz", 100).len(), 1);
        assert!(om.get("files", "blues", 100).is_empty());
        assert_eq!(om.len(), 3);
    }

    #[test]
    fn lifetime_is_clamped_to_maximum() {
        let mut om: ObjectManager<u32> = ObjectManager::new(1_000);
        let exp = om.put(name("t", "k", 1), 7, 10_000_000, 100);
        assert_eq!(exp, 1_100, "granted lifetime must be clamped to max");
    }

    #[test]
    fn expired_objects_are_invisible_then_swept() {
        let mut om: ObjectManager<u32> = ObjectManager::new(u64::MAX);
        om.put(name("t", "k", 1), 1, 1_000, 0);
        om.put(name("t", "k", 2), 2, 10_000, 0);
        // At t=5000 object 1 is dead but not yet swept.
        assert_eq!(om.get("t", "k", 5_000).len(), 1);
        assert_eq!(om.len(), 2);
        assert_eq!(om.expire(5_000), 1);
        assert_eq!(om.len(), 1);
        assert_eq!(om.expired_count(), 1);
    }

    #[test]
    fn renew_extends_only_existing_live_objects() {
        let mut om: ObjectManager<u32> = ObjectManager::new(u64::MAX);
        let n = name("t", "k", 1);
        om.put(n.clone(), 5, 1_000, 0);
        assert!(om.renew(&n, 2_000, 500));
        // Now expires at 2_500.
        assert_eq!(om.get("t", "k", 2_400).len(), 1);
        // Renewing an expired object fails (§3.2.4): must re-put.
        assert!(!om.renew(&n, 1_000, 3_000));
        // Renewing an unknown object fails.
        assert!(!om.renew(&name("t", "k", 99), 1_000, 10));
        assert!(!om.renew(&name("t", "other", 1), 1_000, 10));
    }

    #[test]
    fn put_overwrites_same_suffix() {
        let mut om: ObjectManager<&'static str> = ObjectManager::new(u64::MAX);
        om.put(name("t", "k", 7), "old", 1_000, 0);
        om.put(name("t", "k", 7), "new", 1_000, 10);
        let got = om.get("t", "k", 20);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].value, "new");
    }

    #[test]
    fn scan_namespace_and_namespaces() {
        let mut om: ObjectManager<u32> = ObjectManager::new(u64::MAX);
        om.put(name("a", "x", 1), 1, 1_000, 0);
        om.put(name("a", "y", 2), 2, 1_000, 0);
        om.put(name("b", "z", 3), 3, 1_000, 0);
        assert_eq!(om.scan_namespace("a", 10).count(), 2);
        assert_eq!(om.scan_namespace("b", 10).count(), 1);
        assert_eq!(om.scan_all(10).len(), 3);
        assert_eq!(om.namespaces(10), vec!["a".to_string(), "b".to_string()]);
        // After `a` expires only `b` remains visible.
        assert_eq!(om.namespaces(2_000), Vec::<String>::new());
    }

    #[test]
    fn scan_namespace_excludes_prefix_adjacent_namespaces_and_expired_objects() {
        let mut om: ObjectManager<u32> = ObjectManager::new(u64::MAX);
        for (i, ns) in ["file", "files", "files2", "files\u{0}", "filet"]
            .iter()
            .enumerate()
        {
            om.put(name(ns, "k", i as u64), i as u32, 1_000, 0);
        }
        om.put(name("files", "j", 10), 10, 1_000, 0);
        om.put(name("files", "k", 11), 11, 100, 0); // dead by t=500
        let got: Vec<u32> = om.scan_namespace("files", 500).map(|o| o.value).collect();
        assert_eq!(
            got,
            vec![10, 1],
            "(key, suffix) order, live, exact namespace"
        );
        assert!(om.scan_namespace("fil", 500).next().is_none());
        assert!(om.scan_namespace("files", 2_000).next().is_none());
        // Not yet swept: the dead object still counts towards len().
        assert_eq!(om.len(), 7);
    }

    #[test]
    fn scan_namespace_order_equals_a_filter_over_scan_all() {
        let mut om: ObjectManager<u64> = ObjectManager::new(u64::MAX);
        let mut rng = 0x2545_F491_4F6C_DD1Du64;
        for i in 0..400u64 {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let ns = ["a", "ab", "b", "a.b"][(rng % 4) as usize];
            let key = format!("k{}", (rng >> 8) % 23);
            let lifetime = 100 + (rng >> 20) % 1_000;
            om.put(name(ns, &key, rng >> 32), i, lifetime, 0);
        }
        let now = 600;
        let all = om.scan_all(now);
        for ns in ["a", "ab", "b", "a.b", "c"] {
            let scanned: Vec<&StoredObject<u64>> = om.scan_namespace(ns, now).collect();
            let filtered: Vec<&StoredObject<u64>> =
                all.iter().filter(|o| o.name.namespace == ns).collect();
            assert_eq!(scanned, filtered, "namespace {ns}");
            let order: Vec<(&str, u64)> = scanned
                .iter()
                .map(|o| (o.name.key.as_str(), o.name.suffix))
                .collect();
            assert!(
                order.windows(2).all(|w| w[0] < w[1]),
                "(key, suffix) ascending"
            );
        }
        assert_eq!(
            om.namespaces(now),
            ["a", "a.b", "ab", "b"]
                .iter()
                .map(ToString::to_string)
                .filter(|ns| all.iter().any(|o| &o.name.namespace == ns))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn expire_prunes_empty_groups() {
        let mut om: ObjectManager<u32> = ObjectManager::new(u64::MAX);
        om.put(name("a", "x", 1), 1, 100, 0);
        om.put(name("a", "y", 2), 2, 1_000, 0);
        om.put(name("b", "z", 3), 3, 100, 0);
        assert_eq!(om.expire(500), 2);
        assert_eq!(om.namespaces(500), vec!["a".to_string()]);
        assert!(om.get("a", "x", 500).is_empty());
        assert!(
            !om.renew(&name("a", "x", 1), 1_000, 500),
            "swept objects cannot renew"
        );
        assert_eq!(om.expire(5_000), 1);
        assert!(om.is_empty());
        assert_eq!(om.len(), 0);
        // A swept namespace accepts fresh puts.
        om.put(name("b", "z", 3), 4, 100, 5_000);
        assert_eq!(om.get("b", "z", 5_000)[0].value, 4);
    }

    #[test]
    fn publisher_failure_leads_to_garbage_collection() {
        // Model: publisher puts with a short lifetime and then "fails" (never
        // renews); the object must disappear on its own.
        let mut om: ObjectManager<u32> = ObjectManager::new(u64::MAX);
        om.put(name("t", "k", 1), 1, 30_000_000, 0);
        for t in (0..120_000_000).step_by(10_000_000) {
            om.expire(t);
        }
        assert!(om.is_empty());
    }
}
