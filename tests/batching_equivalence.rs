//! Batched vs per-tuple DHT transfer equivalence: the netmon workload
//! (snapshot hierarchical aggregation, rehash join, and the continuous
//! windowed query) must produce *identical result multisets* whether the
//! executor coalesces same-destination tuples into `TupleBatch` transfers
//! or performs one overlay `put` per tuple — while the batched run moves
//! strictly fewer messages and bytes.

use pier::harness::continuous::{continuous_netmon, ContinuousNetmonConfig};
use pier::harness::{Cluster, ClusterConfig};
use pier::qp::{sqlish, JoinSpec, OpGraph, PlanBuilder, SinkSpec, SourceSpec, Tuple, Value};

/// Mix the CI seed matrix into a test's default seed: `PIER_SEED`, when
/// set, perturbs every cluster/workload seed so the equivalence properties
/// are exercised under several distinct topologies and fault realisations
/// (the assertions here are structural — equality between two runs over the
/// same seed — so they must hold for *any* seed).
fn seeded(default: u64) -> u64 {
    match std::env::var("PIER_SEED") {
        Ok(s) => default ^ s.trim().parse::<u64>().expect("PIER_SEED must be a u64"),
        Err(_) => default,
    }
}

/// Sorted display strings — a canonical multiset representation.
fn multiset(tuples: &[Tuple]) -> Vec<String> {
    let mut rows: Vec<String> = tuples
        .iter()
        .map(std::string::ToString::to_string)
        .collect();
    rows.sort();
    rows
}

/// The Figure-2 snapshot query (per-source counts via hierarchical
/// aggregation) over node-local event logs.
fn run_netmon_snapshot(batching: bool) -> (Vec<String>, u64, u64) {
    let mut cfg = ClusterConfig::lan(14, seeded(707));
    cfg.pier.batching = batching;
    let mut cluster = Cluster::start(&cfg);
    // Enough distinct sources that every periodic flush ships a real pile
    // of per-group partials (the batched path collapses each pile into one
    // transfer per hop).
    for i in 0..cluster.len() {
        for j in 0..24 {
            let src = format!("10.0.0.{}", j % 12);
            let addr = cluster.addr(i);
            cluster.add_local_row(
                addr,
                "events",
                Tuple::new(
                    "events",
                    vec![
                        ("src", Value::Str(src.into())),
                        ("port", Value::Int((i * 24 + j) as i64)),
                    ],
                ),
            );
        }
    }
    let proxy = cluster.addr(1);
    let plan = sqlish::compile(
        "SELECT src, COUNT(*) FROM events GROUP BY src",
        proxy,
        20_000_000,
    )
    .expect("snapshot netmon query must compile");
    cluster.reset_stats();
    let outcome = cluster.run_query(proxy, plan);
    let stats = cluster.sim.stats();
    (
        multiset(&outcome.tuples()),
        stats.total_msgs,
        stats.total_bytes,
    )
}

/// A rehash (Put/Exchange) symmetric-hash join — the other batched path.
fn run_rehash_join(batching: bool) -> (Vec<String>, u64, u64) {
    let mut cfg = ClusterConfig::lan(12, seeded(909));
    cfg.pier.batching = batching;
    let mut cluster = Cluster::start(&cfg);
    let key = vec!["b".to_string()];
    for i in 0..40i64 {
        let from = cluster.addr((i as usize) % cluster.len());
        cluster.publish(
            from,
            "r",
            &key,
            Tuple::new("r", vec![("a", Value::Int(i)), ("b", Value::Int(i % 8))]),
        );
    }
    for i in 0..30i64 {
        let from = cluster.addr((i as usize + 5) % cluster.len());
        cluster.publish(
            from,
            "s",
            &key,
            Tuple::new(
                "s",
                vec![("b", Value::Int(i % 8)), ("c", Value::Int(i * 10))],
            ),
        );
    }
    cluster.settle(3_000_000);
    let proxy = cluster.addr(0);
    let ns = "q.join".to_string();
    let rehash = |id: u32, table: &str| OpGraph {
        id,
        source: SourceSpec::Table {
            namespace: table.into(),
        },
        join: None,
        ops: vec![],
        sink: SinkSpec::Rehash {
            namespace: ns.clone(),
            key_cols: key.clone(),
        },
    };
    let plan = PlanBuilder::new(proxy)
        .timeout(20_000_000)
        .opgraph(rehash(0, "r"))
        .opgraph(rehash(1, "s"))
        .opgraph(OpGraph {
            id: 2,
            source: SourceSpec::Table {
                namespace: ns.clone(),
            },
            join: Some(JoinSpec {
                left_table: "r".into(),
                right_table: "s".into(),
                left_key: key.clone(),
                right_key: key.clone(),
                output_table: "r_s".into(),
            }),
            ops: vec![],
            sink: SinkSpec::ToProxy,
        })
        .build();
    cluster.reset_stats();
    let outcome = cluster.run_query(proxy, plan);
    let stats = cluster.sim.stats();
    (
        multiset(&outcome.tuples()),
        stats.total_msgs,
        stats.total_bytes,
    )
}

/// The continuous (standing) netmon query: per-window per-source counts.
fn run_continuous(batching: bool) -> (Vec<String>, u64, u64) {
    let mut cfg = ContinuousNetmonConfig::steady(10, 12, seeded(42));
    cfg.pier.batching = batching;
    let out = continuous_netmon(&cfg);
    let mut rows: Vec<String> = out
        .windows
        .iter()
        .flat_map(|(&(start, end), w)| w.rows.iter().map(move |t| format!("[{start},{end}) {t}")))
        .collect();
    rows.sort();
    (rows, out.total_msgs, out.total_bytes)
}

fn assert_equivalent_and_cheaper(
    what: &str,
    unbatched: (Vec<String>, u64, u64),
    batched: (Vec<String>, u64, u64),
) {
    assert!(
        !batched.0.is_empty(),
        "{what}: batched run must produce results"
    );
    println!(
        "{what}: rows={} msgs {} -> {} ({:.1}% fewer), bytes {} -> {} ({:.1}% fewer)",
        batched.0.len(),
        unbatched.1,
        batched.1,
        100.0 * (unbatched.1 - batched.1) as f64 / unbatched.1 as f64,
        unbatched.2,
        batched.2,
        100.0 * (unbatched.2 - batched.2) as f64 / unbatched.2 as f64,
    );
    assert_eq!(
        unbatched.0, batched.0,
        "{what}: result multisets must be identical with and without batching"
    );
    assert!(
        batched.1 < unbatched.1,
        "{what}: batching must move strictly fewer messages ({} vs {})",
        batched.1,
        unbatched.1
    );
    assert!(
        batched.2 < unbatched.2,
        "{what}: batching must move strictly fewer bytes ({} vs {})",
        batched.2,
        unbatched.2
    );
}

#[test]
fn netmon_snapshot_batching_preserves_results_with_less_traffic() {
    assert_equivalent_and_cheaper(
        "snapshot netmon",
        run_netmon_snapshot(false),
        run_netmon_snapshot(true),
    );
}

#[test]
fn rehash_join_batching_preserves_results_with_less_traffic() {
    assert_equivalent_and_cheaper("rehash join", run_rehash_join(false), run_rehash_join(true));
}

#[test]
fn continuous_netmon_batching_preserves_results_with_less_traffic() {
    assert_equivalent_and_cheaper(
        "continuous netmon",
        run_continuous(false),
        run_continuous(true),
    );
}

/// The netmon event stream used by the operator-level equivalence test.
fn netmon_stream(n: i64) -> Vec<Tuple> {
    (0..n)
        .map(|i| {
            Tuple::new(
                "events",
                vec![
                    ("src", Value::Str(format!("10.0.0.{}", i % 9).into())),
                    ("port", Value::Int(i % 1024)),
                    ("len", Value::Int(40 + (i * 37) % 1400)),
                ],
            )
        })
        .collect()
}

/// The batch-at-a-time operator path (`Pipeline::push_batch`, columnar
/// chunks) must yield exactly the result multisets of per-tuple dispatch on
/// the netmon workload — filter, project and aggregate alike.
#[test]
fn batch_at_a_time_operator_path_matches_per_tuple_dispatch() {
    use pier::qp::{
        AggFunc, CmpOp, Expr, GroupBy, LocalOperator, Pipeline, Projection, Selection, TupleBatch,
    };
    let rows = netmon_stream(2_000);
    let mk = || {
        Pipeline::new(vec![
            Box::new(Selection::new(Expr::cmp(
                CmpOp::Lt,
                Expr::col("port"),
                Expr::lit(768i64),
            ))) as Box<dyn LocalOperator + Send>,
            Box::new(Projection::new(vec!["src".into(), "len".into()])),
            Box::new(GroupBy::new(
                vec!["src".into()],
                vec![AggFunc::Count, AggFunc::Sum("len".into())],
                "per_src",
            )),
        ])
    };
    let mut per_tuple = mk();
    let mut batched = mk();
    let mut streamed = Vec::new();
    for t in rows.iter().cloned() {
        streamed.extend(per_tuple.push(t));
    }
    // Feed the same stream as DHT-arrival-sized batches (64, the default
    // `batch_max_tuples`), as the executor's PutBatch receive path would.
    let mut batch_out = Vec::new();
    for window in rows.chunks(64) {
        batch_out.extend(
            batched
                .push_batch(&TupleBatch::new(window.to_vec()))
                .into_tuples(),
        );
    }
    assert_eq!(multiset(&batch_out), multiset(&streamed));
    let flushed_batched = batched.flush();
    assert!(!flushed_batched.is_empty(), "group-by must produce groups");
    assert_eq!(multiset(&flushed_batched), multiset(&per_tuple.flush()));
}

/// Multi-stage chunk-to-chunk execution over **mixed-schema** batches: the
/// stream interleaves two shapes of `events` rows (one with an extra
/// column) plus rows of an unrelated table that the selection must discard
/// for lacking the filtered column — exercising the per-run row-major
/// escape hatch between every stage.  Chunked `push_batch` + `flush` must
/// equal per-tuple `push` + `flush` exactly.
#[test]
fn multi_stage_pipeline_matches_per_tuple_on_mixed_schema_batches() {
    use pier::qp::{
        AggFunc, CmpOp, Expr, GroupBy, LocalOperator, Pipeline, Projection, Selection, TupleBatch,
    };
    let rows: Vec<Tuple> = (0..900)
        .map(|i| match i % 4 {
            0 => Tuple::new(
                "events",
                vec![
                    ("src", Value::Str(format!("10.0.0.{}", i % 6).into())),
                    ("port", Value::Int(i % 1024)),
                    ("len", Value::Int(40 + (i * 13) % 1400)),
                    ("flagged", Value::Bool(i % 5 == 0)),
                ],
            ),
            3 => Tuple::new("audit", vec![("note", Value::Str("skip".into()))]),
            _ => Tuple::new(
                "events",
                vec![
                    ("src", Value::Str(format!("10.0.0.{}", i % 6).into())),
                    ("port", Value::Int(i % 1024)),
                    ("len", Value::Int(40 + (i * 13) % 1400)),
                ],
            ),
        })
        .collect();
    let mk = || {
        Pipeline::new(vec![
            Box::new(Selection::new(Expr::cmp(
                CmpOp::Lt,
                Expr::col("port"),
                Expr::lit(700i64),
            ))) as Box<dyn LocalOperator + Send>,
            Box::new(Projection::new(vec!["src".into(), "len".into()])),
            Box::new(GroupBy::new(
                vec!["src".into()],
                vec![AggFunc::Count, AggFunc::Avg("len".into())],
                "per_src",
            )),
        ])
    };
    let mut per_tuple = mk();
    let mut chunked = mk();
    let mut streamed = Vec::new();
    for t in rows.iter().cloned() {
        streamed.extend(per_tuple.push(t));
    }
    let mut batch_out = Vec::new();
    for window in rows.chunks(48) {
        let batch = TupleBatch::new(window.to_vec());
        assert!(
            batch.chunks().len() > 1,
            "the workload must actually interleave schemas"
        );
        batch_out.extend(chunked.push_batch(&batch).into_tuples());
    }
    assert_eq!(multiset(&batch_out), multiset(&streamed));
    let flushed = chunked.flush();
    assert!(!flushed.is_empty());
    assert_eq!(multiset(&flushed), multiset(&per_tuple.flush()));
}

/// Chunk-wise probes of the symmetric-hash join (the rehash-join batch
/// path) produce the same join-result multiset as per-tuple probes, under
/// interleaved mixed-table arrival batches.
#[test]
fn join_chunk_probe_matches_per_tuple_probe_on_netmon_rehash() {
    use pier::qp::{JoinSide, SymmetricHashJoin, TupleBatch};
    let flows: Vec<Tuple> = (0..300)
        .map(|i| {
            Tuple::new(
                "flows",
                vec![
                    ("src", Value::Str(format!("10.0.0.{}", i % 9).into())),
                    ("bytes", Value::Int(i * 10)),
                ],
            )
        })
        .collect();
    let blocked: Vec<Tuple> = (0..60)
        .map(|i| {
            Tuple::new(
                "blocked",
                vec![("src", Value::Str(format!("10.0.0.{}", i % 12).into()))],
            )
        })
        .collect();
    let key = vec!["src".to_string()];
    let mut per_tuple = SymmetricHashJoin::new(key.clone(), key.clone(), "hits");
    let mut chunked = SymmetricHashJoin::new(key.clone(), key, "hits");
    let mut expected = Vec::new();
    for t in flows.iter().cloned() {
        expected.extend(per_tuple.push_side(JoinSide::Left, t));
    }
    for t in blocked.iter().cloned() {
        expected.extend(per_tuple.push_side(JoinSide::Right, t));
    }
    // Mixed-schema batches: runs of flows and blocked interleave, so the
    // columnar batch degrades to per-run chunks — the escape hatch path.
    let mut mixed: Vec<(JoinSide, Tuple)> = Vec::new();
    for (i, t) in flows.iter().enumerate() {
        mixed.push((JoinSide::Left, t.clone()));
        if i % 5 == 0 && i / 5 < blocked.len() {
            mixed.push((JoinSide::Right, blocked[i / 5].clone()));
        }
    }
    let mut got = Vec::new();
    for window in mixed.chunks(50) {
        // Within a window, group contiguous same-side runs as the executor's
        // per-destination buffers would.
        let mut run: Vec<Tuple> = Vec::new();
        let mut run_side = None;
        for (side, t) in window {
            match run_side {
                Some(s) if s == *side => run.push(t.clone()),
                Some(s) => {
                    for chunk in TupleBatch::new(std::mem::take(&mut run)).chunks() {
                        got.extend(chunked.push_chunk_batch(s, chunk).into_tuples());
                    }
                    run_side = Some(*side);
                    run.push(t.clone());
                }
                None => {
                    run_side = Some(*side);
                    run.push(t.clone());
                }
            }
        }
        if let Some(s) = run_side {
            for chunk in TupleBatch::new(run).chunks() {
                got.extend(chunked.push_chunk_batch(s, chunk).into_tuples());
            }
        }
    }
    assert_eq!(multiset(&got), multiset(&expected));
    assert!(!got.is_empty());
    assert_eq!(chunked.state_size(), per_tuple.state_size());
}

/// The gather-based `push_chunk_batch` — the join's chunk-native fast path,
/// which emits joined **typed chunks** directly instead of materialising
/// row tuples — produces the same result multiset as per-tuple `push_side`
/// on the netmon rehash workload, and its output chunks stay columnar:
/// every chunk carries the cached joined schema and the gathered key column
/// keeps its dictionary layout end to end (no degrade to the reference
/// layout mid-join).
#[test]
fn gather_join_batch_matches_per_tuple_and_stays_typed() {
    use pier::qp::tuple::ColumnChunk;
    use pier::qp::{JoinSide, SymmetricHashJoin, TupleBatch};
    // Netmon rehash shape: flows keyed by a low-cardinality source address
    // (dictionary column) joined against a blocked-source watchlist.
    let flows: Vec<Tuple> = (0..400)
        .map(|i| {
            Tuple::new(
                "flows",
                vec![
                    ("src", Value::Str(format!("10.0.0.{}", i % 11).into())),
                    ("bytes", Value::Int(i * 7)),
                ],
            )
        })
        .collect();
    let blocked: Vec<Tuple> = (0..40)
        .map(|i| {
            Tuple::new(
                "blocked",
                vec![
                    ("src", Value::Str(format!("10.0.0.{}", i % 14).into())),
                    ("rule", Value::Int(i % 5)),
                ],
            )
        })
        .collect();
    let key = vec!["src".to_string()];
    let mut per_tuple = SymmetricHashJoin::new(key.clone(), key.clone(), "hits");
    let mut gathered = SymmetricHashJoin::new(key.clone(), key, "hits");
    let mut expected = Vec::new();
    for t in flows.iter().cloned() {
        expected.extend(per_tuple.push_side(JoinSide::Left, t));
    }
    for t in blocked.iter().cloned() {
        expected.extend(per_tuple.push_side(JoinSide::Right, t));
    }
    let mut got: Vec<Tuple> = Vec::new();
    let mut out_chunks: Vec<ColumnChunk> = Vec::new();
    for (side, rows) in [(JoinSide::Left, &flows), (JoinSide::Right, &blocked)] {
        for window in rows.chunks(64) {
            for chunk in TupleBatch::new(window.to_vec()).chunks() {
                let out = gathered.push_chunk_batch(side, chunk);
                got.extend(out.iter());
                out_chunks.extend(out.chunks().iter().cloned());
            }
        }
    }
    assert_eq!(multiset(&got), multiset(&expected));
    assert!(!got.is_empty());
    assert_eq!(gathered.state_size(), per_tuple.state_size());
    // Typed all the way through: each emitted chunk shares one joined
    // schema and its gathered key column is still dictionary-encoded.
    let joined_schema = out_chunks[0].schema().clone();
    for chunk in &out_chunks {
        assert!(
            std::sync::Arc::ptr_eq(chunk.schema(), &joined_schema),
            "joined schema must be cached and shared across output chunks"
        );
        let key_idx = chunk
            .schema()
            .position("src")
            .expect("joined schema keeps the key column");
        assert_eq!(
            chunk.col(key_idx).layout_name(),
            "dict",
            "gathering a dictionary column must preserve its layout"
        );
    }
}

/// Same equivalence on the mqo **shared-workload** shape: many tenants'
/// per-flow streams share one join against a slowly-changing reference
/// table, with mixed column types (ints, floats with nulls, dictionary
/// strings).  Chunked gather output must equal per-tuple output as a
/// multiset even when probe chunks match rows spread over many stored
/// chunks.
#[test]
fn gather_join_matches_per_tuple_on_mqo_shared_workload() {
    use pier::qp::{JoinSide, SymmetricHashJoin, TupleBatch};
    let packets: Vec<Tuple> = (0..500)
        .map(|i| {
            let mut cols = vec![
                ("flow", Value::Int(i % 23)),
                (
                    "proto",
                    Value::Str(["tcp", "udp", "icmp"][i as usize % 3].into()),
                ),
            ];
            // Sparse measurement column: nulls interleave with floats.
            if i % 4 == 0 {
                cols.push(("rtt", Value::Null));
            } else {
                cols.push(("rtt", Value::Float(i as f64 / 8.0)));
            }
            Tuple::new("packets", cols)
        })
        .collect();
    let flows: Vec<Tuple> = (0..23)
        .map(|i| {
            Tuple::new(
                "flowinfo",
                vec![("flow", Value::Int(i)), ("tenant", Value::Int(i % 4))],
            )
        })
        .collect();
    let key = vec!["flow".to_string()];
    let mut per_tuple = SymmetricHashJoin::new(key.clone(), key.clone(), "enriched");
    let mut gathered = SymmetricHashJoin::new(key.clone(), key, "enriched");
    let mut expected = Vec::new();
    let mut got = Vec::new();
    // Interleave small reference-table updates between probe batches so
    // probe chunks hit stored chunks on both sides.
    let mut fi = flows.iter().cloned();
    for (round, window) in packets.chunks(100).enumerate() {
        if round % 2 == 0 {
            for t in fi.by_ref().take(8) {
                expected.extend(per_tuple.push_side(JoinSide::Right, t.clone()));
                got.extend(
                    gathered
                        .push_chunk_batch(JoinSide::Right, &ColumnChunkFromTuple::chunk(&t))
                        .into_tuples(),
                );
            }
        }
        for t in window.iter().cloned() {
            expected.extend(per_tuple.push_side(JoinSide::Left, t));
        }
        for chunk in TupleBatch::new(window.to_vec()).chunks() {
            got.extend(
                gathered
                    .push_chunk_batch(JoinSide::Left, chunk)
                    .into_tuples(),
            );
        }
    }
    assert_eq!(multiset(&got), multiset(&expected));
    assert!(!got.is_empty());
    assert_eq!(gathered.state_size(), per_tuple.state_size());
}

/// Helper: a one-row chunk for single-tuple reference-table updates.
struct ColumnChunkFromTuple;

impl ColumnChunkFromTuple {
    fn chunk(t: &Tuple) -> pier::qp::tuple::ColumnChunk {
        pier::qp::tuple::ColumnChunk::from_tuple(t)
    }
}
