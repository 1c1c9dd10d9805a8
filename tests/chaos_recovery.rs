//! Chaos-recovery integration tests: deterministic fault injection and the
//! telemetry that documents it.
//!
//! Two invariants from the robustness work are pinned here rather than in
//! the (release-built) chaos bench so that `cargo test` alone can catch a
//! regression:
//!
//! 1. **Replayability** — equal-seed chaos runs produce byte-identical
//!    telemetry traces.  Every message drop, partition and crash is driven
//!    off the seeded [`FaultPlan`] RNG, and no send path may iterate a
//!    hash-ordered container, or the replay diverges.
//! 2. **Reconciliation** — the `fault.inject` / `partition.heal` events the
//!    trace records agree exactly with the fault plan's own applied-fault
//!    counters: telemetry is a faithful journal of the schedule, not a
//!    best-effort sample.
//!
//! [`FaultPlan`]: pier::runtime::FaultPlan

use pier::harness::{run_chaos, ChaosConfig};

/// Mix the CI seed matrix into a test's default seed: `PIER_SEED`, when
/// set, perturbs the chaos seed so replayability and reconciliation are
/// checked over distinct fault realisations (every assertion here is
/// structural and must hold for any seed).
fn seeded(default: u64) -> u64 {
    match std::env::var("PIER_SEED") {
        Ok(s) => default ^ s.trim().parse::<u64>().expect("PIER_SEED must be a u64"),
        Err(_) => default,
    }
}

/// A deliberately small gauntlet so the debug-build test stays fast while
/// still exercising every phase: loss, partition + heal, and a one-node
/// crash/restart storm.
fn small_config(seed: u64) -> ChaosConfig {
    let mut cfg = ChaosConfig::standard(8, seed);
    cfg.tenants = 2;
    cfg.events_per_node_per_sec = 4;
    cfg.sources = 16;
    cfg.baseline_secs = 4;
    cfg.degraded_secs = 6;
    cfg.heal_secs = 5;
    cfg.storm_secs = 8;
    cfg.storm_kills = 1;
    cfg
}

/// Count trace lines whose event kind is `event` and (optionally) whose
/// `kind` field carries the given fault label.
fn count_events(trace: &str, event: &str, label: Option<&str>) -> u64 {
    let event_pat = format!("\"kind\":\"{event}\"");
    let label_pat = label.map(|l| format!("\"kind\":\"{l}\""));
    trace
        .lines()
        .filter(|line| line.contains(&event_pat))
        .filter(|line| label_pat.as_ref().is_none_or(|p| line.contains(p)))
        .count() as u64
}

#[test]
fn equal_seed_chaos_runs_replay_byte_for_byte() {
    let cfg = small_config(seeded(7));
    let a = run_chaos(&cfg);
    let b = run_chaos(&cfg);
    assert!(!a.trace.is_empty(), "the trace must record the run");
    assert_eq!(
        a.trace, b.trace,
        "equal-seed chaos runs must produce byte-identical telemetry traces"
    );
    assert_eq!(a.fault_counts, b.fault_counts);
    assert_eq!(a.windows, b.windows, "results must replay too");
    assert_eq!(a.restarted, b.restarted);
}

#[test]
fn trace_fault_events_reconcile_with_the_plan() {
    let out = run_chaos(&small_config(seeded(7)));
    let c = &out.fault_counts;

    // Every applied fault appears as exactly one trace event, labelled with
    // the plan's stable fault label.
    assert!(c.losses > 0 && c.partition_drops > 0, "faults must fire");
    assert_eq!(
        count_events(&out.trace, "fault.inject", Some("loss")),
        c.losses
    );
    assert_eq!(
        count_events(&out.trace, "fault.inject", Some("partition_drop")),
        c.partition_drops
    );
    assert_eq!(
        count_events(&out.trace, "fault.inject", Some("partition_start")),
        c.partitions_started
    );
    assert_eq!(
        count_events(&out.trace, "fault.inject", Some("crash")),
        c.crashes
    );
    assert_eq!(
        count_events(&out.trace, "fault.inject", Some("restart")),
        c.restarts
    );

    // Heals are surfaced as their own event kind (recovery, not a fault).
    assert_eq!(
        count_events(&out.trace, "partition.heal", None),
        c.partitions_healed
    );
    assert!(c.partitions_healed > 0, "the partition must heal");

    // The chaos phases never enable duplication or reordering — duplicate
    // partial deltas would double-count through additive refinement merges.
    assert_eq!(c.duplicates, 0);
    assert_eq!(c.reorders, 0);

    // The storm's armed crash/restart pairs all fired.
    assert_eq!(c.restarts as usize, out.restarted.len());
    assert!(!out.restarted.is_empty(), "the storm must restart a node");
}

/// Share groups are durable like standalone queries: the node the storm
/// restarts re-creates the tenants' share group when re-dissemination
/// re-installs them, and the group rehydrates its windows warm from its own
/// `g{fp}` segment log.
#[test]
fn restarted_share_group_rehydrates_warm() {
    let out = run_chaos(&small_config(seeded(7)));
    assert!(!out.restarted.is_empty(), "the storm must restart a node");
    assert!(
        out.tenant_rehydrated_windows > 0,
        "a restarted node must re-create the tenants' share group with warm windows"
    );
    assert!(
        out.merged_trace
            .lines()
            .any(|l| l.contains("\"kind\":\"window.rehydrate\"") && l.contains("\"group\"")),
        "the group's rehydration must be journalled"
    );
}

/// The gather-based symmetric-hash join survives a [`FaultPlan`]
/// loss/restart schedule: events are dropped by a seeded loss draw
/// (churn), and at each pre-drawn storm restart the operator is rebuilt
/// from scratch by replaying the surviving event log — exactly the warm
/// restart the durable-segment path performs.  After every rebuild and at
/// the end of the run, the chunk-native join, the per-tuple join and a
/// brute-force nested-loop reference computed directly from the surviving
/// inputs must agree as multisets, with identical state sizes.
#[test]
fn join_rebuild_under_faultplan_loss_and_restart_matches_reference() {
    use pier::qp::tuple::ColumnChunk;
    use pier::qp::{JoinSide, SymmetricHashJoin, Tuple, TupleBatch, Value};
    use pier::runtime::rng::Rng64;
    use pier::runtime::sim::FaultPlan;
    use pier::runtime::NodeAddr;

    let seed = seeded(0xC0FFEE);
    // Pre-draw the restart schedule from a real fault plan: three kills in
    // the virtual window [2s, 10s), victims drawn by the plan's RNG.
    let victims = [NodeAddr(3)];
    let plan = FaultPlan::new(seed)
        .with_restart_storm(2_000_000, 10_000_000, &victims, 3, 100_000, 500_000);
    let restarts: Vec<u64> = plan.storm().iter().filter_map(|e| e.restart_at).collect();
    assert_eq!(restarts.len(), 3, "every storm kill must restart");

    // One virtual event per 10ms over 12s; each carries its timestamp.
    // The loss draw (churn) removes ~20% before either join sees them.
    let mut loss = Rng64::new(seed ^ 0x10555);
    let mut events: Vec<(u64, JoinSide, Tuple)> = Vec::new();
    for i in 0..1200u64 {
        let at = i * 10_000;
        if loss.chance(0.2) {
            continue;
        }
        let t = if i % 9 == 0 {
            (
                at,
                JoinSide::Right,
                Tuple::new(
                    "blocked",
                    vec![("src", Value::Str(format!("10.0.0.{}", i % 13).into()))],
                ),
            )
        } else {
            (
                at,
                JoinSide::Left,
                Tuple::new(
                    "flows",
                    vec![
                        ("src", Value::Str(format!("10.0.0.{}", i % 8).into())),
                        ("bytes", Value::Int((i * 17) as i64)),
                    ],
                ),
            )
        };
        events.push(t);
    }

    let key = || vec!["src".to_string()];
    let multiset = |tuples: &[Tuple]| {
        let mut rows: Vec<String> = tuples.iter().map(Tuple::to_string).collect();
        rows.sort();
        rows
    };
    // Brute-force oracle: every (flow, blocked) pair with equal keys among
    // the surviving inputs seen so far.
    let brute_force = |log: &[(u64, JoinSide, Tuple)]| -> Vec<String> {
        let mut out = Vec::new();
        for (_, ls, l) in log.iter().filter(|(_, s, _)| *s == JoinSide::Left) {
            debug_assert_eq!(*ls, JoinSide::Left);
            for (_, _, r) in log.iter().filter(|(_, s, _)| *s == JoinSide::Right) {
                if l.get("src").zip(r.get("src")).is_some_and(|(a, b)| a == b) {
                    out.push(l.join_with(r, "hits").to_string());
                }
            }
        }
        out.sort();
        out
    };
    // Replay `log` through fresh instances of both join paths (the warm
    // restart), returning their emissions and final states.
    let replay = |log: &[(u64, JoinSide, Tuple)]| {
        let mut chunked = SymmetricHashJoin::new(key(), key(), "hits");
        let mut per_tuple = SymmetricHashJoin::new(key(), key(), "hits");
        let mut chunk_out = Vec::new();
        let mut tuple_out = Vec::new();
        // The chunk path replays in arrival-run batches, as a durable
        // segment scan would hand them over.
        let mut run: Vec<Tuple> = Vec::new();
        let mut run_side = JoinSide::Left;
        for (_, side, t) in log {
            tuple_out.extend(per_tuple.push_side(*side, t.clone()));
            if *side != run_side && !run.is_empty() {
                for chunk in TupleBatch::new(std::mem::take(&mut run)).chunks() {
                    chunk_out.extend(chunked.push_chunk_batch(run_side, chunk).into_tuples());
                }
            }
            run_side = *side;
            run.push(t.clone());
        }
        for chunk in TupleBatch::new(run).chunks() {
            chunk_out.extend(chunked.push_chunk_batch(run_side, chunk).into_tuples());
        }
        (chunk_out, tuple_out, chunked, per_tuple)
    };

    // Walk the schedule: at each restart boundary, rebuild from the
    // survivor log so far and check all three paths agree.
    let mut checked = 0;
    for boundary in restarts.iter().copied() {
        let prefix: Vec<_> = events
            .iter()
            .filter(|(at, _, _)| *at < boundary)
            .cloned()
            .collect();
        let (chunk_out, tuple_out, chunked, per_tuple) = replay(&prefix);
        let expected = brute_force(&prefix);
        assert_eq!(multiset(&chunk_out), expected, "rebuild at t={boundary}");
        assert_eq!(multiset(&tuple_out), expected, "rebuild at t={boundary}");
        assert_eq!(chunked.state_size(), per_tuple.state_size());
        assert!(!chunk_out.is_empty(), "joins must fire before t={boundary}");
        checked += 1;
    }
    assert_eq!(checked, 3);

    // And the full run, single-tuple pushes entering as one-row chunks.
    let (chunk_out, tuple_out, mut chunked, _) = replay(&events);
    let expected = brute_force(&events);
    assert_eq!(multiset(&chunk_out), expected);
    assert_eq!(multiset(&tuple_out), expected);
    // A late straggler arriving after the rebuild still joins against the
    // replayed state (one-row chunk through the same gather path).
    let straggler = Tuple::new(
        "flows",
        vec![
            ("src", Value::Str("10.0.0.1".into())),
            ("bytes", Value::Int(-1)),
        ],
    );
    let late = chunked.push_chunk_batch(JoinSide::Left, &ColumnChunk::from_tuple(&straggler));
    assert!(
        !late.is_empty(),
        "a straggler keyed to a blocked source must join after replay"
    );
}
