//! Query install at a `ByKey` owner (§3.3.3): the owner snapshots its whole
//! local partition of the namespace as one columnar batch, borrowed from the
//! store, and runs the opgraph over it chunk-at-a-time.  That must return
//! exactly the row multiset a per-row reference evaluation of the same
//! partition returns — whatever mix of objects the store holds — and the
//! matching rows of one install must leave the owner in a single `Results`
//! message.

use pier::dht::ObjectName;
use pier::harness::{Cluster, ClusterConfig};
use pier::qp::{
    Dissemination, Expr, OpGraph, OperatorSpec, Pipeline, PlanBuilder, QpObject, QueryPlan,
    SinkSpec, SourceSpec, Tuple, TupleBatch, Value,
};
use pier::runtime::NodeAddr;

const SEC: u64 = 1_000_000;
const HOUR: u64 = 3_600 * SEC;

/// The `ByKey` routing key every test query targets.
const KEY: &str = "kw1";

fn file(keyword: &str, name: &str) -> Tuple {
    Tuple::new(
        "files",
        vec![("keyword", Value::str(keyword)), ("file", Value::str(name))],
    )
}

/// A second schema of the same table: an extra `size` column.
fn sized(keyword: &str, name: &str, size: i64) -> Tuple {
    Tuple::new(
        "files",
        vec![
            ("keyword", Value::str(keyword)),
            ("file", Value::str(name)),
            ("size", Value::Int(size)),
        ],
    )
}

fn by_key_plan(proxy: NodeAddr, ops: Vec<OperatorSpec>) -> QueryPlan {
    PlanBuilder::new(proxy)
        .dissemination(Dissemination::ByKey {
            namespace: "files".into(),
            key: Value::str(KEY).key_string(),
        })
        .timeout(2 * SEC)
        .opgraph(OpGraph {
            id: 0,
            source: SourceSpec::Table {
                namespace: "files".into(),
            },
            join: None,
            ops,
            sink: SinkSpec::ToProxy,
        })
        .build()
}

/// Sorted display strings — a canonical multiset representation.
fn multiset(tuples: &[Tuple]) -> Vec<String> {
    let mut rows: Vec<String> = tuples.iter().map(ToString::to_string).collect();
    rows.sort();
    rows
}

/// The per-row reference: every row of the owner's partition at `now` —
/// its node-local rows, then each live stored object's tuples — pushed one
/// at a time through a fresh pipeline of `ops`.
fn reference_rows(
    cluster: &Cluster,
    owner: NodeAddr,
    local: &[Tuple],
    ops: &[OperatorSpec],
) -> Vec<Tuple> {
    let node = cluster.sim.node(owner).expect("owner is up");
    let stored: Vec<Tuple> = node
        .overlay()
        .local_scan("files", cluster.sim.now())
        .flat_map(|o| o.value.iter_tuples())
        .collect();
    let mut pipeline = Pipeline::new(ops.iter().filter_map(OperatorSpec::build).collect());
    let mut out = Vec::new();
    for row in local.iter().cloned().chain(stored) {
        out.extend(pipeline.push(row));
    }
    out.extend(pipeline.flush());
    out
}

/// Fill the owner's partition of `files` with every kind of object a store
/// holds: single tuples of two schemas, interleaved-schema batches, expired
/// objects, stored plans, node-local rows — next to prefix-adjacent
/// namespaces whose rows must never leak into the scan.  Returns the
/// node-local rows.
fn stage_partition(cluster: &mut Cluster, owner: NodeAddr, proxy: NodeAddr) -> Vec<Tuple> {
    let mut suffix = 0u64;
    let mut stage = |cluster: &mut Cluster, ns: &str, key: &str, value: QpObject, life: u64| {
        suffix += 1;
        let name = ObjectName::new(ns, Value::str(key).key_string(), suffix);
        let now = cluster.sim.now();
        cluster.sim.with_node_mut(owner, |n| {
            n.overlay_mut().store_local(name, value, life, now);
        });
    };
    // Objects that expire before any query runs (the expiry sweep is off,
    // so they stay in the store, dead).
    for i in 0..6 {
        let kw = if i % 2 == 0 { KEY } else { "kw2" };
        stage(
            cluster,
            "files",
            kw,
            QpObject::Tuple(file(kw, &format!("dead-{i}"))),
            SEC,
        );
        stage(
            cluster,
            "files",
            kw,
            QpObject::Batch(TupleBatch::new(vec![
                sized(kw, &format!("dead-b{i}"), 1),
                file(kw, &format!("dead-c{i}")),
            ])),
            SEC,
        );
    }
    cluster.settle(2 * SEC);
    for k in 0..12 {
        let kw = format!("kw{k}");
        for i in 0..5 {
            let name = format!("{kw}-single-{i}");
            let t = if i % 2 == 0 {
                file(&kw, &name)
            } else {
                sized(&kw, &name, (k * 10 + i) as i64)
            };
            stage(cluster, "files", &kw, QpObject::Tuple(t), HOUR);
        }
        // Batches with interleaved schemas and repeated rows.
        let rows: Vec<Tuple> = (0..9)
            .map(|i| {
                let name = format!("{kw}-batch-{}", i % 7);
                if i % 3 == 0 {
                    sized(&kw, &name, i)
                } else {
                    file(&kw, &name)
                }
            })
            .collect();
        stage(
            cluster,
            "files",
            &kw,
            QpObject::Batch(TupleBatch::new(rows)),
            HOUR,
        );
        // Plans stored under the data namespace, as `ByKey` dissemination
        // leaves them.
        stage(
            cluster,
            "files",
            &kw,
            QpObject::Plan(by_key_plan(proxy, Vec::new())),
            HOUR,
        );
        // Prefix-adjacent namespaces with rows the queries would match.
        for ns in ["file", "files2", "files.idx", "filesz"] {
            stage(
                cluster,
                ns,
                &kw,
                QpObject::Tuple(sized(&kw, &format!("{ns}-leak"), 7)),
                HOUR,
            );
        }
    }
    let local: Vec<Tuple> = (0..6)
        .map(|i| {
            let name = format!("local-{i}");
            if i % 2 == 0 {
                file(KEY, &name)
            } else {
                sized("kw7", &name, i)
            }
        })
        .collect();
    for row in &local {
        cluster.add_local_row(owner, "files", row.clone());
    }
    local
}

#[test]
fn by_key_install_matches_per_row_reference_in_one_results_message() {
    let mut cfg = ClusterConfig::lan(16, 4242);
    // No maintenance traffic and no expiry sweep: during a query the owner's
    // only sends are its results, and expired objects stay in the store.
    cfg.pier.overlay.stabilize_interval = HOUR;
    cfg.pier.overlay.fix_fingers_interval = HOUR;
    cfg.pier.overlay.tree_refresh_interval = HOUR;
    cfg.pier.overlay.expire_interval = HOUR;
    let mut cluster = Cluster::start(&cfg);
    let target = ObjectName::new("files", Value::str(KEY).key_string(), 0).routing_id();
    let owner_idx = (0..cluster.len())
        .find(|&i| {
            cluster
                .sim
                .node(cluster.addr(i))
                .is_some_and(|n| n.overlay().router().is_responsible(target))
        })
        .expect("some node owns the key");
    let owner = cluster.addr(owner_idx);
    let proxy = cluster.addr((owner_idx + 5) % cluster.len());
    let local = stage_partition(&mut cluster, owner, proxy);

    // (what, operators, rows the reference must return)
    let queries: Vec<(&str, Vec<OperatorSpec>, usize)> = vec![
        (
            "keyword equality",
            vec![OperatorSpec::Selection(Expr::eq("keyword", KEY))],
            3 + 5 + 9,
        ),
        (
            "equality on another column",
            vec![OperatorSpec::Selection(Expr::eq("size", 3))],
            1 + 1 + 12,
        ),
        (
            "whole partition, projected",
            vec![OperatorSpec::Projection(vec!["file".into(), "size".into()])],
            6 + 12 * (5 + 9),
        ),
        (
            "no match",
            vec![OperatorSpec::Selection(Expr::eq("keyword", "absent"))],
            0,
        ),
    ];
    for (what, ops, rows) in queries {
        let expected = reference_rows(&cluster, owner, &local, &ops);
        assert_eq!(expected.len(), rows, "{what}: reference row count");
        cluster.reset_stats();
        let outcome = cluster.run_query(proxy, by_key_plan(proxy, ops));
        assert_eq!(
            multiset(&outcome.tuples()),
            multiset(&expected),
            "{what}: install result differs from the per-row reference"
        );
        let sent = cluster.sim.stats().node(owner).msgs_sent;
        assert_eq!(
            sent,
            u64::from(!expected.is_empty()),
            "{what}: {} rows must leave the owner in one Results message",
            expected.len()
        );
    }
}
