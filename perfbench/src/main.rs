//! End-to-end benchmark of the PIER reproduction.
//!
//! ```text
//! perfbench --workload <netmon|tenants|filesharing|join> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload.  It repeats set-up plus timed phase on
//! the same seeded inputs until `--seconds` of wall time have passed, then
//! prints a human-readable report followed by one JSON line: the
//! end-to-end metrics (`--trace 0`) or the per-layer ledger (`--trace 1`).
//! Wall-clock figures are medians over the repetitions; the deterministic
//! figures must repeat exactly in every repetition, and the benchmark fails
//! when they do not.  `README.md` in this directory documents every metric.

mod calibrate;
mod ledger;
mod workloads;

use ledger::{Ledger, Traced, MSG_KINDS};
use pier_core::PierNode;
use std::time::Instant;
use workloads::{Det, Outcome, Scale, Workload};

/// End-to-end metrics: `(name, unit)`, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 8] = [
    ("rows_per_s", "rows/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("msgs_per_row", "msgs/row"),
    ("bytes_per_row", "B/row"),
    ("answer_accuracy", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// One reported metric.
type Metric = (String, f64, &'static str);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("bad seconds {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process, megabytes.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Sub-seeds per run.  One run cycles through the workloads of
/// `SUBSEEDS` sub-seeds derived from `--seed` and pools their answers.
/// Each sub-seed draws its own link latencies, and a single draw can shift
/// virtual latency by several percent, or, where a windowed partial just
/// misses a slide tick, move the latency tail by a whole tick.
const SUBSEEDS: usize = 8;

/// The seed of repetition `k`.
fn subseed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(SUBSEEDS as u64)
        .wrapping_add((k % SUBSEEDS) as u64)
}

/// A repetition must reproduce the deterministic outputs of the earlier
/// run of its sub-seed.
fn check_repeat(first: &Det, other: &Det, what: &str) -> Result<(), String> {
    if first == other {
        Ok(())
    } else {
        Err(format!(
            "{what} diverged on the same seed:\n  first: {}\n  now:   {}",
            first.summary(),
            other.summary()
        ))
    }
}

/// The measured runs of one process; repetition `k` ran sub-seed
/// `k % SUBSEEDS`.
struct Runs {
    plain: Vec<Outcome>,
    traced: Vec<Outcome>,
    /// Peak resident set at the end of the first cycle: later repetitions
    /// only add allocator fragmentation, in amounts that depend on how many
    /// of them fit in the run.
    peak_rss_mb: f64,
}

impl Runs {
    /// The deterministic outputs of one cycle through the sub-seeds.
    fn det(&self) -> Det {
        Det::pool(self.plain[..SUBSEEDS].iter().map(|o| &o.det))
    }
}

/// Repeat the workload, cycling through the sub-seeds, for at least one
/// cycle and until `seconds` have passed: plain runs only, or a plain and
/// a traced run of each sub-seed in turn.  Fails when a deterministic
/// output changes between repetitions of a sub-seed or between its traced
/// and untraced runs.
fn measure(
    w: Workload,
    scale: Scale,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Runs, String> {
    let start = Instant::now();
    let mut runs = Runs {
        plain: Vec::new(),
        traced: Vec::new(),
        peak_rss_mb: 0.0,
    };
    let mut k = 0;
    while k < SUBSEEDS || start.elapsed().as_secs_f64() < seconds {
        let sub = subseed(seed, k);
        let plain = w.run::<PierNode>(scale, sub);
        if k >= SUBSEEDS {
            check_repeat(
                &runs.plain[k % SUBSEEDS].det,
                &plain.det,
                "an untraced repetition",
            )?;
        }
        if trace {
            let traced = w.run::<Traced>(scale, sub);
            check_repeat(&plain.det, &traced.det, "the traced run")?;
            check_ledger(&traced)?;
            if k >= SUBSEEDS && runs.traced[k % SUBSEEDS].ledger.counts() != traced.ledger.counts()
            {
                return Err("traced call counts diverged on the same seed".into());
            }
            runs.traced.push(traced);
        }
        runs.plain.push(plain);
        k += 1;
        if k == SUBSEEDS {
            runs.peak_rss_mb = peak_rss_mb();
        }
    }
    Ok(runs)
}

/// Ledger integrity: the timed entries fit inside the traced wall, and the
/// per-kind traffic adds up to what the simulator charged.
fn check_ledger(run: &Outcome) -> Result<(), String> {
    let l = &run.ledger;
    let wall_ns = run.wall_s * 1e9;
    if (l.timed_ns() as f64) > wall_ns {
        return Err(format!(
            "sim.self is negative: timed entries {} ns exceed the traced wall {wall_ns} ns",
            l.timed_ns()
        ));
    }
    let msgs: u64 = l.kind_msgs.iter().sum();
    let bytes: u64 = l.kind_bytes.iter().sum();
    if msgs != run.det.msgs || bytes != run.det.bytes {
        return Err(format!(
            "ledger traffic ({msgs} msgs, {bytes} B) differs from the simulator's ({} msgs, {} B)",
            run.det.msgs, run.det.bytes
        ));
    }
    Ok(())
}

/// Input rows per second of one repetition's timed phase, generator
/// excluded, at the reference machine speed.
fn rows_per_s(o: &Outcome) -> f64 {
    o.det.rows as f64 / (o.wall_s - o.gen_s) * o.slowdown
}

/// The end-to-end metrics of the untraced runs.
fn end_to_end(runs: &Runs) -> Vec<Metric> {
    let det = runs.det();
    let rows = det.rows as f64;
    let values = [
        median(runs.plain.iter().map(rows_per_s).collect()),
        det.percentile_us(50.0) as f64 / 1e3,
        det.percentile_us(99.0) as f64 / 1e3,
        det.msgs as f64 / rows,
        det.bytes as f64 / rows,
        1.0 - det.error_rate(),
        median(runs.plain.iter().map(|o| o.setup_s / o.slowdown).collect()),
        runs.peak_rss_mb,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name.to_string(), v, unit))
        .collect()
}

/// The per-layer metrics of the traced runs.  Counts and traffic are
/// means over one cycle of sub-seeds, so they repeat exactly; wall-clock
/// figures use every traced repetition.
fn per_layer(runs: &Runs) -> Vec<Metric> {
    let mut cycle = Ledger::default();
    for run in &runs.traced[..SUBSEEDS] {
        cycle.absorb(&run.ledger, 1.0);
    }
    let mut all = Ledger::default();
    for run in &runs.traced {
        all.absorb(&run.ledger, 1.0 / run.slowdown);
    }
    let reps = SUBSEEDS as f64;
    let wall_ns: f64 = runs
        .traced
        .iter()
        .map(|o| o.wall_s * 1e9 / o.slowdown)
        .sum();
    let cycle_events: u64 = runs.traced[..SUBSEEDS].iter().map(|o| o.det.events).sum();
    let all_events: u64 = runs.traced.iter().map(|o| o.det.events).sum();
    let rows = runs.det().rows as f64;
    let sim_self_ns = wall_ns - all.timed_ns() as f64;
    let ratio = |a: f64, b: u64| if b == 0 { 0.0 } else { a / b as f64 };

    let mut out: Vec<Metric> = Vec::new();
    let mut layer = |name: &str, per: &str, calls: u64, ns: f64, all_calls: u64| {
        out.push((format!("{name}.calls"), calls as f64 / reps, "count"));
        out.push((format!("{name}.{per}"), ratio(ns, all_calls), "ns"));
        out.push((format!("{name}.share"), ns / wall_ns, "ratio"));
    };
    layer(
        "sim.self",
        "ns_per_event",
        cycle_events,
        sim_self_ns,
        all_events,
    );
    for (i, name) in ledger::entry_names().iter().enumerate() {
        let per = if i == 0 { "ns_per_msg" } else { "ns_per_call" };
        layer(name, per, cycle.calls[i], all.ns[i] as f64, all.calls[i]);
    }
    for (k, kind) in MSG_KINDS.iter().enumerate() {
        let msgs = cycle.kind_msgs[k];
        out.push((
            format!("msg.{kind}.per_row"),
            msgs as f64 / rows,
            "msgs/row",
        ));
        out.push((
            format!("msg.{kind}.bytes_per_msg"),
            ratio(cycle.kind_bytes[k] as f64, msgs),
            "B/msg",
        ));
    }
    out.push((
        "msg.put_batch.entries_per_msg".into(),
        ratio(cycle.put_batch_entries as f64, cycle.kind_msgs[3]),
        "entries/msg",
    ));
    out.push((
        "msg.results.rows_per_msg".into(),
        ratio(cycle.result_rows as f64, cycle.kind_msgs[6]),
        "rows/msg",
    ));
    out.push((
        "msg.window_results.rows_per_msg".into(),
        ratio(cycle.window_rows as f64, cycle.kind_msgs[7]),
        "rows/msg",
    ));
    out.push((
        "trace.coverage".into(),
        all.handler_and_call_ns() as f64 / wall_ns,
        "ratio",
    ));
    let overhead = runs
        .traced
        .iter()
        .zip(&runs.plain)
        .map(|(t, p)| (t.wall_s / t.slowdown) / (p.wall_s / p.slowdown))
        .collect();
    out.push(("trace.overhead".into(), median(overhead), "ratio"));
    out
}

/// The final JSON line.
fn result_line(det: &Det, metrics: &[Metric]) -> Result<String, String> {
    let mut fields = Vec::new();
    for (name, value, unit) in metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    let failed = det.wrong + det.missing;
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        det.expected.max(1),
        fields.join(", ")
    ))
}

fn report(args: &Args) -> Result<String, String> {
    let runs = measure(
        args.workload,
        Scale::Full,
        args.seed,
        args.seconds,
        args.trace,
    )?;
    let det = runs.det();
    println!(
        "workload {} seed {}: {} untraced and {} traced repetitions over {SUBSEEDS} sub-seeds",
        args.workload.name(),
        args.seed,
        runs.plain.len(),
        runs.traced.len()
    );
    println!("  {}", det.summary());
    println!("  error_rate {}", det.error_rate());
    println!("  times as measured; rows/s at the reference machine speed");
    for (k, o) in runs.plain.iter().enumerate() {
        let traced = runs.traced.get(k).map_or(String::new(), |t| {
            format!(
                "  traced wall {:.4} s, slowdown {:.3}",
                t.wall_s, t.slowdown
            )
        });
        println!(
            "  repetition {k} seed {}: slowdown {:.3}  setup {:.4} s  wall {:.4} s  \
             generator {:.4} s  {:.1} rows/s{traced}",
            subseed(args.seed, k),
            o.slowdown,
            o.setup_s,
            o.wall_s,
            o.gen_s,
            rows_per_s(o)
        );
    }
    let metrics = if args.trace {
        per_layer(&runs)
    } else {
        end_to_end(&runs)
    };
    for (name, value, unit) in &metrics {
        println!("  {name:<40} {value:>16.4} {unit}");
    }
    result_line(&det, &metrics)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match report(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `name`s listed under `section` in the repository's
    /// `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section is a list")];
        body.split("\"name\"")
            .skip(1)
            .map(|rest| {
                let open = rest.find('"').expect("quoted name") + 1;
                let close = open + rest[open..].find('"').expect("closing quote");
                rest[open..close].to_string()
            })
            .collect()
    }

    #[test]
    fn metric_names_match_benchmark_json() {
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(declared("end_to_end"), e2e);
        let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().into()).collect();
        assert_eq!(declared("workloads"), workloads);
    }

    /// A tiny run of every workload: the oracle finds every answer, the
    /// traced run reproduces the untraced one, and the emitted metrics are
    /// exactly the declared ones.
    #[test]
    fn tiny_runs_are_correct_transparent_and_complete() {
        for w in Workload::ALL {
            let runs = measure(w, Scale::Tiny, 7, 0.0, true)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
            let det = runs.det();
            assert!(det.expected > 0, "{}: the oracle expects answers", w.name());
            assert_eq!(
                det.wrong + det.missing,
                0,
                "{}: {}",
                w.name(),
                det.summary()
            );
            assert!(
                !det.latency_us.is_empty(),
                "{}: latency is sampled",
                w.name()
            );
            let names: Vec<String> = end_to_end(&runs).into_iter().map(|m| m.0).collect();
            assert_eq!(names, declared("end_to_end"));
            let layers = per_layer(&runs);
            let names: Vec<String> = layers.iter().map(|m| m.0.clone()).collect();
            assert_eq!(names, declared("per_layer"));
            let share: f64 = layers
                .iter()
                .filter(|m| m.0.ends_with(".share"))
                .map(|m| m.1)
                .sum();
            assert!(
                (share - 1.0).abs() < 1e-9,
                "{}: shares sum to {share}",
                w.name()
            );
            assert!(result_line(&det, &layers).is_ok());
        }
    }

    #[test]
    fn equal_seeds_repeat_and_other_seeds_differ() {
        let a = Workload::Join.run::<PierNode>(Scale::Tiny, 3);
        let b = Workload::Join.run::<PierNode>(Scale::Tiny, 3);
        let c = Workload::Join.run::<PierNode>(Scale::Tiny, 4);
        assert_eq!(a.det, b.det);
        assert_ne!(a.det, c.det);
    }
}
