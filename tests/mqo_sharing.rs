//! Multi-query sharing (pier-mqo): equivalence with independent execution
//! and share-group lifecycle over a live cluster.
//!
//! The load-bearing claim of the sharing layer is that it is *invisible* in
//! the results: N constant-varied standing queries executed through share
//! groups deliver, per query and per window, exactly the rows independent
//! per-query execution delivers — under steady state, under mid-stream
//! query install/uninstall, and under node churn.  These tests run the
//! `many_tenants` workload twice from the same seed (sharing on/off) and
//! compare the per-tenant per-window result multisets, then pin the
//! refcounted teardown: once every tenant's query ends, no node retains a
//! share group.

use pier::harness::tenants::{many_tenants, ManyTenantsConfig, ManyTenantsOutcome};
use pier::qp::Value;
use pier::runtime::SimTime;
use std::collections::BTreeMap;

/// Mix the CI seed matrix into a test's default seed: `PIER_SEED`, when
/// set, perturbs the workload seed so the shared-vs-independent equivalence
/// is checked over distinct topologies and streams (it is structural and
/// must hold for any seed).
fn seeded(default: u64) -> u64 {
    match std::env::var("PIER_SEED") {
        Ok(s) => default ^ s.trim().parse::<u64>().expect("PIER_SEED must be a u64"),
        Err(_) => default,
    }
}

/// Canonical view of one tenant's windows restricted to `[from, to]`:
/// window bounds → sorted row renderings (a multiset fingerprint).
fn canonical(
    outcome: &ManyTenantsOutcome,
    tenant: usize,
    from: SimTime,
    to: SimTime,
) -> BTreeMap<(SimTime, SimTime), Vec<String>> {
    outcome.tenants[tenant]
        .windows
        .iter()
        .filter(|((start, end), _)| *start >= from && *end <= to)
        .map(|(bounds, rows)| {
            let mut rendered: Vec<String> =
                rows.iter().map(std::string::ToString::to_string).collect();
            rendered.sort();
            (*bounds, rendered)
        })
        .collect()
}

/// Compare every tenant's windows between a shared and an independent run
/// over the spans where the two executions are *defined* to agree:
///
/// * from the first window opening after the tenant installed (a shared
///   member joining a live group sees the group's already-accumulated state
///   for in-flight windows — a strictly more complete first answer);
/// * up to the last window fully refined before the tenant's query wound
///   down (a query dying mid-refinement truncates the two modes' late
///   partials at different relay depths);
/// * excluding a guard band around a node-churn instant: a killed node
///   holds different in-flight window state in the two modes (that is the
///   sharing), so windows *straddling* the kill lose different partials —
///   windows fully before it, and windows opening after repair completed,
///   must still match exactly.  Repair spans failure detection, ring
///   stabilisation, owner-cache expiry, and — since lease renewals back
///   off exponentially on no-progress rounds — up to two stretched renewal
///   rounds before churned-in nodes receive the plan, so the post-churn
///   guard is 12 s: a seed sweep puts the last loss-affected window start
///   at churn + 9 s, and nothing diverges beyond it.
fn assert_equivalent(
    shared: &ManyTenantsOutcome,
    independent: &ManyTenantsOutcome,
    label: &str,
) -> usize {
    assert_eq!(shared.tenants.len(), independent.tenants.len());
    assert_eq!(shared.churn_at, independent.churn_at);
    let mut compared_rows = 0usize;
    for tenant in 0..shared.tenants.len() {
        let s = &shared.tenants[tenant];
        let i = &independent.tenants[tenant];
        assert_eq!(s.query_id, i.query_id, "same seed ⇒ same ids");
        assert_eq!(s.src, i.src);
        let from = s.installed_at.max(i.installed_at) + 3_000_000;
        let to = if s.ends_at < shared.stream.1 + 10_000_000 {
            // Early teardown: stop at windows fully refined pre-teardown.
            s.ends_at.saturating_sub(6_000_000)
        } else {
            shared.stream.1
        };
        let spans: Vec<(SimTime, SimTime)> = match shared.churn_at {
            Some(churn) => vec![
                (from, churn.saturating_sub(4_000_000).min(to)),
                ((churn + 12_000_000).max(from), to),
            ],
            None => vec![(from, to)],
        };
        for (from, to) in spans {
            if from >= to {
                continue;
            }
            let a = canonical(shared, tenant, from, to);
            let b = canonical(independent, tenant, from, to);
            assert_eq!(
                a, b,
                "{label}: tenant {tenant} ({}) diverges between shared and independent \
                 execution in [{from}, {to}]",
                s.src
            );
            compared_rows += a.values().map(Vec::len).sum::<usize>();
        }
    }
    compared_rows
}

/// Shared runs must leave nothing behind once every tenant ended.
fn assert_no_leaked_groups(shared: &ManyTenantsOutcome, label: &str) {
    assert_eq!(
        (shared.residual_groups, shared.residual_members),
        (0, 0),
        "{label}: share groups must be retired once all members ended"
    );
}

#[test]
fn shared_execution_matches_independent_execution_steady_state() {
    let mut cfg = ManyTenantsConfig::new(10, 24, 12, seeded(61));
    cfg.sharing = true;
    let shared = many_tenants(&cfg);
    cfg.sharing = false;
    let independent = many_tenants(&cfg);
    // The stream actually exercised sharing…
    assert!(shared.max_shared_groups >= 1, "tenants must form a group");
    assert_eq!(independent.max_shared_groups, 0);
    // …results are identical, and the comparison is not vacuous.
    let rows = assert_equivalent(&shared, &independent, "steady");
    assert!(
        rows > 100,
        "equivalence must cover a substantial result set, covered {rows}"
    );
    // Every tenant must have received real windows with its own source.
    for t in &shared.tenants {
        assert!(
            !t.windows.is_empty(),
            "tenant {} received no windows",
            t.src
        );
        for rows in t.windows.values() {
            for row in rows {
                assert_eq!(row.get("src").and_then(Value::as_str), Some(t.src.as_str()));
            }
        }
    }
    assert_no_leaked_groups(&shared, "steady");
}

#[test]
fn shared_execution_matches_independent_under_install_uninstall_mid_stream() {
    let mut cfg = ManyTenantsConfig::new(8, 16, 15, seeded(77));
    cfg.late_installs = 4;
    cfg.early_uninstalls = 4;
    cfg.sharing = true;
    let shared = many_tenants(&cfg);
    cfg.sharing = false;
    let independent = many_tenants(&cfg);
    let rows = assert_equivalent(&shared, &independent, "membership churn");
    assert!(rows > 50, "covered {rows}");
    // Late installs joined the (already live) group and still got windows.
    for tenant in 12..16 {
        assert!(
            !shared.tenants[tenant].windows.is_empty(),
            "late tenant {tenant} received no windows"
        );
    }
    assert_no_leaked_groups(&shared, "membership churn");
}

#[test]
fn shared_execution_matches_independent_under_node_churn() {
    // 28 s of stream keeps the post-repair comparison span (churn + 12 s
    // onward) wide enough that the equivalence check is not vacuous.
    let mut cfg = ManyTenantsConfig::new(10, 12, 28, seeded(93));
    cfg.churn = Some((6, 2, 2));
    cfg.sharing = true;
    let shared = many_tenants(&cfg);
    cfg.sharing = false;
    let independent = many_tenants(&cfg);
    let rows = assert_equivalent(&shared, &independent, "node churn");
    assert!(rows > 50, "covered {rows}");
    assert_no_leaked_groups(&shared, "node churn");
}
