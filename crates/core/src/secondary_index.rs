//! Secondary indexes (§3.3.3).
//!
//! A *primary* index in PIER is just the table published into the DHT with
//! the partitioning attributes as the index key.  A *secondary* index is, in
//! the paper's words, "simply [a table] of (index-key, tupleID) pairs,
//! published with index-key as the partitioning key.  The tupleID has to be
//! an identifier that PIER can use to access the tuple (e.g., a DHT name).
//! PIER provides no automated logic to maintain consistency between the
//! secondary index and the base tuples."
//!
//! To use one, "a query explicitly specif\[ies\] a semi-join between the
//! secondary index and the original table; the index serves as the 'outer'
//! relation of a Fetch Matches join that follows the tupleID to fetch the
//! correct tuples from the correct nodes."
//!
//! This module provides exactly those two pieces:
//!
//! * [`index_entry`] / [`index_entries`] build the (index-key, tupleID)
//!   tuples a publisher stores alongside its base tuples (the publisher — not
//!   PIER — is responsible for keeping them in sync), and
//! * [`lookup_plan`] builds the two-step query: equality-index dissemination
//!   to the index partition, selection on the index key, then a Fetch
//!   Matches join that follows `tupleID` (the base table's partitioning key)
//!   back to the base tuples.

use crate::expr::Expr;
use crate::plan::{
    Dissemination, OpGraph, OperatorSpec, PlanBuilder, QueryPlan, SinkSpec, SourceSpec,
};
use crate::tuple::Tuple;
use crate::value::Value;
use pier_runtime::{Duration, NodeAddr};

/// Column of an index entry holding the indexed value.
pub const INDEX_KEY_COL: &str = "index_key";
/// Column of an index entry naming the base table (the tupleID's namespace).
pub const BASE_NAMESPACE_COL: &str = "base_ns";
/// Column of an index entry holding the base tuple's partitioning key (the
/// tupleID's key — what a DHT `get` on the base table needs).
pub const BASE_KEY_COL: &str = "base_key";

/// Conventional name of the secondary index table over `base_table(column)`.
pub fn index_table_name(base_table: &str, column: &str) -> String {
    format!("{base_table}__idx_{column}")
}

/// Build one secondary-index entry for `tuple`:
/// `(index_key = tuple[index_col], tupleID = (base_table, base key))`.
///
/// Returns `None` when the tuple is missing either the indexed column or the
/// base partitioning key — a malformed tuple simply is not indexed, matching
/// the best-effort policy of §3.3.4.
pub fn index_entry(
    base_table: &str,
    base_key_cols: &[String],
    index_col: &str,
    tuple: &Tuple,
) -> Option<Tuple> {
    let index_value = tuple.get(index_col)?.clone();
    let base_key = tuple.partition_key(base_key_cols)?;
    // Fixed shape: one intern for the whole entry (push would re-intern
    // every prefix shape on this publish hot path).
    Some(Tuple::from_parts(
        index_table_name(base_table, index_col),
        vec![
            INDEX_KEY_COL.to_string(),
            BASE_NAMESPACE_COL.to_string(),
            BASE_KEY_COL.to_string(),
        ],
        vec![
            index_value,
            Value::str(base_table),
            Value::Str(base_key.into()),
        ],
    ))
}

/// Build the index entries for several indexed columns at once.
pub fn index_entries(
    base_table: &str,
    base_key_cols: &[String],
    index_cols: &[String],
    tuple: &Tuple,
) -> Vec<Tuple> {
    index_cols
        .iter()
        .filter_map(|col| index_entry(base_table, base_key_cols, col, tuple))
        .collect()
}

/// The partitioning key columns of a secondary index table (always the
/// indexed value).
pub fn index_partition_cols() -> Vec<String> {
    vec![INDEX_KEY_COL.to_string()]
}

/// Build the semi-join lookup plan: route to the index partition for
/// `index_value`, select the matching entries, and Fetch Matches the base
/// tuples through their tupleIDs.  The result tuples carry the columns of
/// the base table joined with the index entry.
pub fn lookup_plan(
    proxy: NodeAddr,
    base_table: &str,
    index_col: &str,
    index_value: Value,
    timeout: Duration,
) -> QueryPlan {
    let index_table = index_table_name(base_table, index_col);
    let output_table = format!("{base_table}__via_{index_col}");
    PlanBuilder::new(proxy)
        .dissemination(Dissemination::ByKey {
            namespace: index_table.clone(),
            key: index_value.key_string(),
        })
        .timeout(timeout)
        .opgraph(OpGraph {
            id: 0,
            source: SourceSpec::Table {
                namespace: index_table,
            },
            join: None,
            ops: vec![
                // The partition may hold entries for other values that hash
                // to the same node; keep only the requested key.
                OperatorSpec::Selection(Expr::eq(INDEX_KEY_COL, index_value)),
                // Follow the tupleID: the index entry is the *outer* relation
                // of a Fetch Matches join into the base table.
                OperatorSpec::FetchByTupleId {
                    inner_namespace: base_table.to_string(),
                    id_col: BASE_KEY_COL.to_string(),
                    output_table,
                },
            ],
            sink: SinkSpec::ToProxy,
        })
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file_row(file: &str, keyword: &str, size: i64) -> Tuple {
        Tuple::new(
            "files",
            vec![
                ("file", Value::Str(file.into())),
                ("keyword", Value::Str(keyword.into())),
                ("size", Value::Int(size)),
            ],
        )
    }

    #[test]
    fn index_entry_points_back_at_the_base_tuple() {
        let base_key = vec!["file".to_string()];
        let row = file_row("a.mp3", "rock", 123);
        let entry = index_entry("files", &base_key, "keyword", &row).unwrap();
        assert_eq!(entry.table(), "files__idx_keyword");
        assert_eq!(entry.get(INDEX_KEY_COL), Some(&Value::Str("rock".into())));
        assert_eq!(
            entry.get(BASE_NAMESPACE_COL),
            Some(&Value::Str("files".into()))
        );
        assert_eq!(
            entry.get(BASE_KEY_COL),
            Some(&Value::Str(row.partition_key(&base_key).unwrap().into()))
        );
    }

    #[test]
    fn malformed_tuples_are_not_indexed() {
        let base_key = vec!["file".to_string()];
        let missing_index_col = Tuple::new("files", vec![("file", Value::Str("x".into()))]);
        assert!(index_entry("files", &base_key, "keyword", &missing_index_col).is_none());
        let missing_base_key = Tuple::new("files", vec![("keyword", Value::Str("rock".into()))]);
        assert!(index_entry("files", &base_key, "keyword", &missing_base_key).is_none());
    }

    #[test]
    fn multiple_indexes_produce_one_entry_each() {
        let base_key = vec!["file".to_string()];
        let row = file_row("a.mp3", "rock", 123);
        let entries = index_entries(
            "files",
            &base_key,
            &["keyword".to_string(), "size".to_string()],
            &row,
        );
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].table(), "files__idx_keyword");
        assert_eq!(entries[1].table(), "files__idx_size");
    }

    #[test]
    fn lookup_plan_routes_to_the_index_partition_and_fetches_the_base() {
        let plan = lookup_plan(
            NodeAddr(4),
            "files",
            "keyword",
            Value::Str("rock".into()),
            5_000_000,
        );
        match &plan.dissemination {
            Dissemination::ByKey { namespace, key } => {
                assert_eq!(namespace, "files__idx_keyword");
                assert_eq!(key, &Value::Str("rock".into()).key_string());
            }
            other => panic!("expected ByKey dissemination, got {other:?}"),
        }
        let graph = &plan.opgraphs[0];
        assert!(matches!(graph.ops[0], OperatorSpec::Selection(_)));
        match &graph.ops[1] {
            OperatorSpec::FetchByTupleId {
                inner_namespace,
                id_col,
                ..
            } => {
                assert_eq!(inner_namespace, "files");
                assert_eq!(id_col, BASE_KEY_COL);
            }
            other => panic!("expected FetchByTupleId, got {other:?}"),
        }
    }
}
