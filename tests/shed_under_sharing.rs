//! Shed-to-sampling under multi-query sharing.
//!
//! Admission may degrade an over-budget standing query to a sampled plan
//! and charge it a fraction of its cost.  That is a promise: the query must
//! then really see only a fraction of its rows.  With a sharing layer
//! installed, a share-eligible plan would run as a member of a share group,
//! whose one store serves every member at full rate, so the promise is
//! kept in two places: admission never sheds a plan it knows will share,
//! and `pier_mqo` never shares a shed plan.  This suite pins the outcome
//! end to end: under sharing, an over-budget tenant is either rejected or
//! visibly thinned, never "shed but full rate".
//!
//! The assertions compare a capped run against an uncapped run of the same
//! seed, so they hold for any seed; `PIER_SEED` (XORed into the default,
//! as in the equivalence and chaos suites) runs them under other
//! topologies.

use pier::analyze::admission_factory;
use pier::harness::{many_tenants, ManyTenantsConfig};
use pier::qp::{Tuple, Value};
use std::collections::BTreeMap;

/// The run seed: `default`, XORed with `PIER_SEED` when set.
fn seeded(default: u64) -> u64 {
    match std::env::var("PIER_SEED") {
        Ok(s) => default ^ s.trim().parse::<u64>().expect("PIER_SEED must be a u64"),
        Err(_) => default,
    }
}

/// Rows counted by a tenant over all its windows.
fn total_count(windows: &BTreeMap<(u64, u64), Vec<Tuple>>) -> i64 {
    windows
        .values()
        .flatten()
        .filter_map(|t| t.get("count").and_then(Value::as_i64))
        .sum()
}

#[test]
fn over_budget_tenant_under_sharing_is_rejected_or_thinned() {
    let run = |rows_cap: Option<u64>| {
        let mut cfg = ManyTenantsConfig::new(8, 4, 20, seeded(17));
        cfg.sharing = true;
        cfg.pier.admission = Some(admission_factory);
        if let Some(rows) = rows_cap {
            // The declared 32 rows/window/node against a ceiling of 8 would
            // shed to 1-in-4 sampling, were the plan not going to share.
            cfg.pier.slo.default_budget.max_rows_per_window_per_node = rows;
        }
        many_tenants(&cfg)
    };
    let truth = run(None);
    let capped = run(Some(8));

    assert!(
        truth.tenants.iter().all(|t| total_count(&t.windows) > 0),
        "every uncapped tenant must produce results to compare against"
    );
    for (i, (full, t)) in truth.tenants.iter().zip(&capped.tenants).enumerate() {
        let full_admission = full.admission.as_ref().expect("decision reported");
        assert!(full_admission.accepted && full_admission.sample_every == 1);
        let a = t.admission.as_ref().expect("decision reported");
        if !a.accepted {
            assert!(a.report.contains("\"decision\":\"reject\""));
            assert!(
                t.windows.is_empty(),
                "tenant {i}: a rejected query must never produce results"
            );
        } else if a.sample_every > 1 {
            let (sampled, all) = (total_count(&t.windows), total_count(&full.windows));
            assert!(
                sampled < all,
                "tenant {i} was shed to 1-in-{} but counted {sampled} of {all} rows",
                a.sample_every
            );
        }
    }
}
