//! Durable share groups: a share group persists its windows under its
//! `g{fp:016x}.local` / `.root` segment keys every tick, exactly as a
//! standalone standing query does under `q{id}.…`, and a retired group
//! drops them — so a later group with the same fingerprint starts cold
//! instead of resurrecting the retired incarnation's windows.

use pier::harness::{Cluster, ClusterConfig};
use pier::qp::{sqlish, Tuple, Value};

/// Submit a constant-varied tenant query (every tenant has the same plan
/// shape, hence the same share-group fingerprint) living `timeout` µs.
fn submit_tenant(cluster: &mut Cluster, src: &str, timeout: u64) -> u64 {
    let proxy = cluster.addr(0);
    let plan = sqlish::compile(
        &format!(
            "SELECT src, COUNT(*) FROM packets WHERE src = '{src}' \
             GROUP BY src WINDOW 2s SLIDE 1s EVERY 5s"
        ),
        proxy,
        timeout,
    )
    .expect("tenant query compiles");
    let mut query_id = 0;
    cluster.sim.invoke(proxy, |node, ctx| {
        query_id = node.submit_query(ctx, plan);
    });
    query_id
}

/// Every node ingests one packet per source every 250 ms for `secs`.
fn stream(cluster: &mut Cluster, secs: u64) {
    for _ in 0..secs * 4 {
        let now = cluster.sim.now() as i64;
        for i in 0..cluster.len() {
            let addr = cluster.addr(i);
            for src in ["10.0.0.1", "10.0.0.2"] {
                let tuple = Tuple::new(
                    "packets",
                    vec![("src", Value::str(src)), ("ts", Value::Int(now))],
                );
                cluster.sim.invoke(addr, move |node, ctx| {
                    node.ingest(ctx, "packets", tuple);
                });
            }
        }
        cluster.sim.run_for(250_000);
    }
}

/// Share-group segment keys across every node's durable store.
fn group_segments(cluster: &Cluster) -> Vec<String> {
    (0..cluster.len())
        .flat_map(|i| cluster.durable_store(i).expect("durable cluster").keys())
        .filter(|k| k.starts_with('g'))
        .collect()
}

#[test]
fn retired_share_group_drops_its_segments_and_a_recreated_group_starts_cold() {
    let mut cfg = ClusterConfig::lan(6, 11).with_durable();
    cfg.pier.sharing = Some(pier::mqo::layer);
    let mut cluster = Cluster::start(&cfg);

    let first = submit_tenant(&mut cluster, "10.0.0.1", 10_000_000);
    cluster.settle(500_000);
    stream(&mut cluster, 6);
    let persisted = group_segments(&cluster);
    assert!(
        !persisted.is_empty(),
        "a live share group persists its windows every tick"
    );
    assert!(persisted
        .iter()
        .all(|k| k.ends_with(".local") || k.ends_with(".root")));

    // The only member's query ends: the group retires everywhere and takes
    // its segments with it.
    cluster.settle(8_000_000);
    assert!(cluster
        .sim
        .node(cluster.addr(0))
        .and_then(|n| n.cq_diagnostics(first))
        .is_none());
    assert_eq!(
        group_segments(&cluster),
        Vec::<String>::new(),
        "a retired group leaves no segments behind"
    );

    // A constant-varied query re-forms the group (same fingerprint, same
    // segment keys): nothing of the retired incarnation comes back.
    let second = submit_tenant(&mut cluster, "10.0.0.2", 60_000_000);
    cluster.settle(500_000);
    stream(&mut cluster, 3);
    for i in 0..cluster.len() {
        let node = cluster.sim.node(cluster.addr(i)).expect("node is up");
        let stats = node.sharing_stats().expect("sharing layer");
        assert_eq!(stats.groups, 1, "node {i} re-formed the group");
        assert_eq!(stats.rehydrated_windows, 0, "node {i} must start cold");
        let diag = node.cq_diagnostics(second).expect("member diagnostics");
        assert_eq!(diag.rehydrated_windows, 0);
    }
    assert!(!group_segments(&cluster).is_empty());
}
