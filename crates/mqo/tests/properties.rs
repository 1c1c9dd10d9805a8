//! Property tests for multi-query sharing: over *arbitrary* constant-varied
//! predicate sets and arbitrary streams, the shared fan-out path must be
//! indistinguishable from independent per-query execution.
//!
//! Two layers are pinned:
//!
//! * the [`PredicateIndex`]'s per-member masks equal row-by-row evaluation
//!   of each member's own compiled predicate (any shape the generator can
//!   produce: hash-kernel equalities, ordering atoms, multi-atom
//!   conjunctions, missing columns, mixed value types);
//! * end-to-end single-node share-group execution — ingest through the
//!   union mask into the shared store, then per-member derivation at the
//!   root — produces exactly the per-window, per-group counts a reference
//!   computation of each query in isolation produces.

use pier_core::sharing::MultiQuerySharing;
use pier_core::{sqlish, CmpOp, CompiledPredicate, Expr, Tuple, TupleBatch, Value};
use pier_mqo::{MqoLayer, PredicateIndex};
use pier_runtime::NodeAddr;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A generated atom: `(column rank, op rank, constant rank)` — decoded into
/// `col{c} op const` over a small universe so collisions (and misses) are
/// common.
fn decode_atom(col: u8, op: u8, constant: u8) -> Expr {
    let column = format!("c{}", col % 4); // c3 is absent from the data
    let op = match op % 6 {
        0 => CmpOp::Eq,
        1 => CmpOp::Ne,
        2 => CmpOp::Lt,
        3 => CmpOp::Le,
        4 => CmpOp::Gt,
        _ => CmpOp::Ge,
    };
    let constant = match constant % 3 {
        0 => Value::Int((constant % 8) as i64),
        1 => Value::Float((constant % 8) as f64),
        _ => Value::Str(format!("s{}", constant % 8).into()),
    };
    Expr::cmp(op, Expr::col(&column), Expr::Const(constant))
}

fn decode_row(seed: u64) -> Tuple {
    let pick = |x: u64| -> Value {
        match x % 4 {
            0 => Value::Int((x / 4 % 8) as i64),
            1 => Value::Float((x / 4 % 8) as f64 + if x % 8 == 1 { 0.5 } else { 0.0 }),
            2 => Value::Str(format!("s{}", x / 4 % 8).into()),
            _ => Value::Null,
        }
    };
    Tuple::new(
        "t",
        vec![
            ("c0", pick(seed)),
            ("c1", pick(seed >> 8)),
            ("c2", pick(seed >> 16)),
        ],
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Index masks == per-member row-by-row evaluation, for arbitrary
    /// member sets (1–3 conjoined atoms each) over arbitrary mixed-type
    /// chunks.
    #[test]
    fn predicate_index_equals_per_member_evaluation(
        members in proptest::collection::vec(
            proptest::collection::vec((0u8..8, 0u8..8, 0u8..16), 1..4),
            1..24,
        ),
        rows in proptest::collection::vec(0u64..(1 << 24), 1..80),
    ) {
        let predicates: Vec<Expr> = members
            .iter()
            .map(|atoms| {
                Expr::all(atoms.iter().map(|(c, o, k)| decode_atom(*c, *o, *k)).collect())
            })
            .collect();
        let mut index = PredicateIndex::new();
        for (id, p) in predicates.iter().enumerate() {
            index.insert(id as u64, p.clone());
        }
        let tuples: Vec<Tuple> = rows.iter().map(|s| decode_row(*s)).collect();
        let batch = TupleBatch::new(tuples);
        for chunk in batch.chunks() {
            index.eval_chunk(chunk);
            let mut union = vec![false; chunk.rows()];
            for (id, p) in predicates.iter().enumerate() {
                let mut reference = CompiledPredicate::new(p.clone());
                let compiled = reference.for_schema(chunk.schema());
                let expect: Vec<bool> =
                    (0..chunk.rows()).map(|r| compiled.matches_row(chunk, r)).collect();
                let got = index.member_mask(id as u64).expect("indexed").to_bools();
                prop_assert_eq!(&got, &expect);
                for (u, e) in union.iter_mut().zip(&expect) {
                    *u = *u || *e;
                }
            }
            prop_assert_eq!(index.union().to_bools(), union);
        }
    }

    /// End-to-end share-group execution at a single (root) node equals a
    /// reference computation of every member query in isolation: arbitrary
    /// constant-varied member sets, arbitrary batch boundaries, arbitrary
    /// event-time distributions.
    #[test]
    fn shared_ingest_equals_independent_execution(
        consts in proptest::collection::vec(0u8..10, 1..16),
        rows in proptest::collection::vec((0u8..10, 0u64..20_000_000), 10..200),
        cut in 1usize..9,
    ) {
        // Member i watches src = "h{consts[i]}" (duplicate constants are
        // legal: two identical queries must still get their own answers).
        let mut layer = MqoLayer::default();
        let query_ids: Vec<u64> = consts
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let qid = 1000 + i as u64;
                let mut plan = sqlish::compile(
                    &format!(
                        "SELECT src, COUNT(*) FROM pkts WHERE src = 'h{c}' \
                         GROUP BY src WINDOW 2s SLIDE 1s"
                    ),
                    NodeAddr(9),
                    600_000_000,
                )
                .expect("compiles");
                plan.query_id = qid;
                assert!(matches!(
                    layer.try_install(&plan, 0),
                    pier_core::InstallOutcome::Member { .. }
                ));
                qid
            })
            .collect();
        // Stream the rows in two arbitrarily split batches.
        let tuples: Vec<Tuple> = rows
            .iter()
            .map(|(h, ts)| {
                Tuple::new(
                    "pkts",
                    vec![
                        ("src", Value::Str(format!("h{h}").into())),
                        ("ts", Value::Int(*ts as i64)),
                    ],
                )
            })
            .collect();
        let split = tuples.len() * cut / 9;
        for part in [&tuples[..split], &tuples[split..]] {
            if part.is_empty() {
                continue;
            }
            let batch = TupleBatch::new(part.to_vec());
            for chunk in batch.chunks() {
                layer.absorb_chunk("pkts", chunk, 0);
            }
        }
        // Tick as root far past every event: all windows emit.
        let group = layer.group_of(query_ids[0]).expect("member has a group");
        let out = layer
            .engine_mut(group)
            .expect("group is live")
            .tick(1_000_000_000, true);
        // Reference: each query in isolation — filter, window, count.
        let spec = pier_cq::WindowSpec::sliding(2_000_000, 1_000_000);
        for (i, qid) in query_ids.iter().enumerate() {
            let src = format!("h{}", consts[i]);
            let mut expect: BTreeMap<u64, i64> = BTreeMap::new();
            for (h, ts) in &rows {
                if format!("h{h}") == src {
                    for wid in spec.windows_containing(*ts) {
                        *expect.entry(wid).or_default() += 1;
                    }
                }
            }
            let mut got: BTreeMap<u64, i64> = BTreeMap::new();
            for e in out.emissions.iter().filter(|e| e.query_id == *qid) {
                prop_assert!(e.retracts.is_empty(), "snapshot mode");
                for row in &e.inserts {
                    prop_assert_eq!(row.get("src").and_then(Value::as_str), Some(src.as_str()));
                    let wid = e.window_start / 1_000_000;
                    *got.entry(wid).or_default() +=
                        row.get("count").and_then(Value::as_i64).unwrap_or(0);
                }
            }
            prop_assert_eq!(&got, &expect);
        }
        // Teardown leaves nothing behind.
        for qid in &query_ids {
            layer.uninstall(*qid);
        }
        prop_assert_eq!(layer.stats().groups, 0);
        prop_assert_eq!(layer.stats().members, 0);
    }
}
