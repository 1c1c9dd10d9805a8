//! Admission benchmark: the cost of a static admission decision and the
//! accuracy of shed-mode (sampled) results against full-rate ground truth.
//!
//! Two halves:
//!
//! * **Decision latency** — compile representative plans once, then time
//!   `analyze()` alone and the full `assess()`/`release()` round-trip of
//!   the SLO admission layer.  Admission runs synchronously on the submit
//!   path, so this is the per-query latency tax every standing query pays
//!   before dissemination.
//! * **Shed accuracy** — run `many_tenants` at full rate for ground truth,
//!   then again under per-tenant budgets that force 1-in-4 sampling; scale
//!   the sampled per-window counts back up by the modulus and report the
//!   mean relative error.  This is the price of the graceful-degradation
//!   path, measured, not assumed.

use std::time::Instant;

use pier_analyze::{admission_factory, analyze, EnvModel};
use pier_bench::emit_metric;
use pier_core::admission::SloPolicy;
use pier_core::{sqlish, Value};
use pier_harness::{many_tenants, ManyTenantsConfig};
use pier_runtime::NodeAddr;

/// Smoke mode (`PIER_BENCH_SMOKE=1`, used by CI) shrinks iteration counts
/// and the cluster while still emitting every metric line.
fn smoke() -> bool {
    std::env::var_os("PIER_BENCH_SMOKE").is_some()
}

fn main() {
    println!("# admission: static decision latency and shed-mode accuracy");

    // ---- decision latency -------------------------------------------
    let sqls = [
        // The netmon standing aggregate: full group fan-in.
        "SELECT src, COUNT(*) FROM packets GROUP BY src WINDOW 2s SLIDE 1s EVERY 5s",
        // A pinned tenant query: one group, share-eligible.
        "SELECT src, COUNT(*) FROM packets WHERE src = '10.0.0.1' \
         GROUP BY src WINDOW 2s SLIDE 1s EVERY 5s",
        // A one-shot filter scan: conditionally bounded.
        "SELECT src FROM packets WHERE len > 100",
    ];
    let plans: Vec<_> = sqls
        .iter()
        .enumerate()
        .map(|(i, sql)| {
            let mut p = sqlish::compile(sql, NodeAddr(0), 60_000_000).expect("query compiles");
            p.query_id = i as u64 + 1;
            p.tenant = i as u64;
            p
        })
        .collect();

    let iters: u64 = if smoke() { 2_000 } else { 50_000 };
    let env = EnvModel::default();
    let mut sink = 0u64;

    let t0 = Instant::now();
    for i in 0..iters {
        let r = analyze(&plans[(i % plans.len() as u64) as usize], &env);
        sink = sink.wrapping_add(r.state_bytes_per_node);
    }
    let analyze_ns = t0.elapsed().as_nanos() as f64 / iters as f64;

    let mut layer = admission_factory();
    layer.configure(&SloPolicy::default(), false);
    let t0 = Instant::now();
    for i in 0..iters {
        let plan = &plans[(i % plans.len() as u64) as usize];
        let d = layer.assess(plan);
        sink = sink.wrapping_add(d.report.len() as u64);
        layer.release(plan.query_id);
    }
    let decision_ns = t0.elapsed().as_nanos() as f64 / iters as f64;

    println!(
        "admission_latency               analyze {analyze_ns:>8.1} ns   \
         assess+release {decision_ns:>8.1} ns   (sink {sink})"
    );
    emit_metric("admission", "analyze_ns_per_query", analyze_ns);
    emit_metric("admission", "decision_ns_per_query", decision_ns);

    // ---- shed-mode accuracy -----------------------------------------
    let (nodes, tenants, secs) = if smoke() { (6, 3, 12) } else { (8, 4, 20) };
    let mk = |budget_rows: Option<u64>| {
        let mut cfg = ManyTenantsConfig::new(nodes, tenants, secs, 17);
        cfg.sharing = false;
        cfg.pier.admission = Some(admission_factory);
        if let Some(rows) = budget_rows {
            cfg.pier.slo.default_budget.max_rows_per_window_per_node = rows;
        }
        cfg
    };
    let truth = many_tenants(&mk(None));
    // A ceiling of 8 rows/window/node against the declared 32 forces a
    // 1-in-4 sampling modulus on every tenant.
    let shed = many_tenants(&mk(Some(8)));

    let window_count = |rows: &[pier_core::Tuple]| -> i64 {
        rows.iter()
            .filter_map(|t| t.get("count").and_then(Value::as_i64))
            .sum()
    };
    let mut errs: Vec<f64> = Vec::new();
    let mut modulus = 0u32;
    for (full, sampled) in truth.tenants.iter().zip(&shed.tenants) {
        let m = sampled.admission.as_ref().map_or(1, |a| a.sample_every);
        assert!(m >= 2, "the tight budget must force sampling, got {m}");
        modulus = modulus.max(m);
        for (span, rows) in &full.windows {
            let true_count = window_count(rows);
            if true_count == 0 {
                continue;
            }
            let est = sampled
                .windows
                .get(span)
                .map_or(0, |rows| window_count(rows))
                * i64::from(m);
            errs.push((est - true_count).abs() as f64 / true_count as f64);
        }
    }
    assert!(
        !errs.is_empty(),
        "shed run must overlap ground-truth windows"
    );
    let mean_err = errs.iter().sum::<f64>() / errs.len() as f64;
    // Sampling is an estimator, not a guess: the scaled counts must stay in
    // the right ballpark even on the smoke cluster.
    assert!(
        mean_err < 0.75,
        "shed-mode mean relative error {mean_err:.3} out of range"
    );

    println!(
        "admission_shed                  modulus {modulus}   windows {}   \
         mean rel error {mean_err:>6.4}",
        errs.len()
    );
    emit_metric("admission", "shed_sample_every", f64::from(modulus));
    emit_metric("admission", "shed_windows_compared", errs.len() as f64);
    emit_metric("admission", "shed_mean_rel_error", mean_err);
}
