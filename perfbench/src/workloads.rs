//! The four workloads, each with its seeded generator, its timed phase and
//! its answer oracle.
//!
//! Every workload builds its own simulated cluster from
//! [`PierNode::with_static_ring`] and drives it only through public calls:
//! `Simulator::{invoke, run_for}` and `PierNode::{ingest, publish,
//! submit_query}` (reached through [`Host::call`], so the traced run can
//! time them).  Inputs are open-loop in virtual time: each tick's inputs are
//! due at the tick's virtual instant whatever the program does with them.
//!
//! One run is set-up (boot, overlay convergence, preload, query install and
//! settle), then the timed phase (from the first timed input to the end of
//! the drain), then the oracle, which compares what reached the proxies
//! with reference answers computed from the generated inputs alone.

use crate::calibrate::Speedometer;
use crate::ledger::{self, Call, Host, Ledger};
use pier_core::{
    sqlish, Dissemination, Expr, JoinSpec, OpGraph, OperatorSpec, PierConfig, PierNode, PierOut,
    PlanBuilder, QueryPlan, SinkSpec, SourceSpec, TelemetryConfig, TraceConfig, Tuple, Value,
    WindowSpec,
};
use pier_dht::make_ring_refs;
use pier_runtime::{
    percentile_rank,
    sim::{SimOutput, TopologyConfig},
    NodeAddr, ProgramContext, Rng64, SimConfig, SimTime, Simulator, Zipf,
};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Virtual microseconds per second.
const SEC: u64 = 1_000_000;

/// Seed of the node identifiers (see [`Cluster::boot`]).
const RING: u64 = 0x005E_ED0F_91E2;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Netmon,
    Tenants,
    Filesharing,
    Join,
}

/// Input size: the measured size, or a tiny one for the benchmark's tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Netmon,
        Workload::Tenants,
        Workload::Filesharing,
        Workload::Join,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Netmon => "netmon",
            Workload::Tenants => "tenants",
            Workload::Filesharing => "filesharing",
            Workload::Join => "join",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Set up and run the workload once on hosts of type `H`.
    pub fn run<H: Host>(self, scale: Scale, seed: u64) -> Outcome {
        let tiny = scale == Scale::Tiny;
        match self {
            Workload::Netmon => netmon::<H>(tiny, seed),
            Workload::Tenants => tenants::<H>(tiny, seed),
            Workload::Filesharing => filesharing::<H>(tiny, seed),
            Workload::Join => join::<H>(tiny, seed),
        }
    }
}

/// The deterministic outputs of one run: for a given workload and seed they
/// must repeat exactly, traced or not.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Det {
    /// Input rows of the timed phase.
    pub rows: u64,
    /// Messages sent in the timed phase.
    pub msgs: u64,
    /// Bytes charged for them.
    pub bytes: u64,
    /// Simulator events processed in the timed phase.
    pub events: u64,
    /// Result rows delivered to proxies.
    pub results: u64,
    /// Answers the oracle expects.
    pub expected: u64,
    /// Answers delivered with a wrong value, or not expected at all.
    pub wrong: u64,
    /// Expected answers never delivered.
    pub missing: u64,
    /// Virtual latency samples in microseconds, sorted.
    pub latency_us: Vec<u64>,
}

impl Det {
    /// Wrong or missing answers over expected answers.
    pub fn error_rate(&self) -> f64 {
        (self.wrong + self.missing) as f64 / self.expected.max(1) as f64
    }

    /// Nearest-rank latency percentile `p` (0–100), microseconds.
    pub fn percentile_us(&self, p: f64) -> u64 {
        if self.latency_us.is_empty() {
            return 0;
        }
        self.latency_us[percentile_rank(self.latency_us.len() as u64, p) as usize]
    }

    /// The outputs of several runs taken together.
    pub fn pool<'a>(dets: impl IntoIterator<Item = &'a Det>) -> Det {
        let mut all = Det::default();
        for d in dets {
            all.rows += d.rows;
            all.msgs += d.msgs;
            all.bytes += d.bytes;
            all.events += d.events;
            all.results += d.results;
            all.expected += d.expected;
            all.wrong += d.wrong;
            all.missing += d.missing;
            all.latency_us.extend_from_slice(&d.latency_us);
        }
        all.latency_us.sort_unstable();
        all
    }

    /// One line for reports and failure messages.
    pub fn summary(&self) -> String {
        format!(
            "rows {} messages {} bytes {} simulator events {} result rows {} \
             answers expected {} wrong {} missing {} latency samples {} \
             (p50 {} us, p99 {} us)",
            self.rows,
            self.msgs,
            self.bytes,
            self.events,
            self.results,
            self.expected,
            self.wrong,
            self.missing,
            self.latency_us.len(),
            self.percentile_us(50.0),
            self.percentile_us(99.0)
        )
    }
}

/// One set-up plus timed phase.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Wall seconds of set-up.
    pub setup_s: f64,
    /// Wall seconds of the timed phase, generator included and calibration
    /// samples excluded.
    pub wall_s: f64,
    /// Wall seconds the generator took inside the timed phase.
    pub gen_s: f64,
    /// The deterministic outputs.
    pub det: Det,
    /// The ledger of the timed phase (only the `gen` entry is filled in an
    /// untraced run).
    pub ledger: Ledger,
    /// Measured seconds per reference second while the timed phase ran
    /// (see [`crate::calibrate`]).
    pub slowdown: f64,
}

/// A booted cluster plus the pricing constants the ledger needs.
struct Cluster<H: Host> {
    sim: Simulator<H>,
    addrs: Vec<NodeAddr>,
    header_overhead: usize,
    mss: usize,
}

impl<H: Host> Cluster<H> {
    /// Boot `nodes` nodes with pre-converged routing, and let start-up
    /// timers fire and the distribution tree form.
    ///
    /// The network is a star whose access links draw their latency
    /// (2–6 ms) and bandwidth (50–100 Mbit/s) per node from the seed, like
    /// the inputs; on a uniform network every hop would cost the same and
    /// virtual latencies would collapse onto a few values.  The node
    /// identifiers, hence the overlay and its aggregation trees, are the
    /// same for every seed: a windowed answer needs one slide tick per tree
    /// level, so a seed-drawn tree would swing latency by whole seconds.
    fn boot(nodes: usize, seed: u64, pier: &PierConfig) -> Self {
        let config = SimConfig {
            seed,
            topology: TopologyConfig::Star {
                min_access_latency: 2_000,
                max_access_latency: 6_000,
                min_bandwidth_bps: 6.25e6,
                max_bandwidth_bps: 12.5e6,
            },
            ..SimConfig::default()
        };
        let (header_overhead, mss) = (config.header_overhead, config.mss);
        let refs = make_ring_refs(nodes, RING);
        let mut sim: Simulator<H> = Simulator::new(config);
        let addrs = refs
            .iter()
            .map(|r| sim.add_node(H::wrap(PierNode::with_static_ring(*r, &refs, pier.clone()))))
            .collect();
        sim.run_for(6 * SEC);
        Cluster {
            sim,
            addrs,
            header_overhead,
            mss,
        }
    }

    /// Make one public call at `addr` and return its result.
    fn call<R>(
        &mut self,
        addr: NodeAddr,
        call: Call,
        f: impl FnOnce(&mut PierNode, &mut ProgramContext<PierNode>) -> R,
    ) -> R {
        let mut out = None;
        self.sim
            .invoke(addr, |host, ctx| out = Some(host.call(ctx, call, f)));
        out.expect("benchmark nodes never fail")
    }

    fn submit(&mut self, proxy: NodeAddr, plan: QueryPlan) -> u64 {
        self.call(proxy, Call::SubmitQuery, |n, c| n.submit_query(c, plan))
    }

    fn ingest(&mut self, addr: NodeAddr, tuple: Tuple) {
        self.call(addr, Call::Ingest, |n, c| n.ingest(c, "packets", tuple));
    }

    fn publish(&mut self, addr: NodeAddr, table: &str, key: &[String], tuple: Tuple) {
        self.call(addr, Call::Publish, |n, c| n.publish(c, table, key, tuple));
    }
}

/// The timed phase: wall clock, generator time, machine speed and the
/// traffic baseline.
struct Phase {
    start: Instant,
    gen_ns: u64,
    events0: u64,
    speed: Speedometer,
}

impl Phase {
    fn begin<H: Host>(cluster: &mut Cluster<H>) -> Phase {
        cluster.sim.stats_mut().reset();
        ledger::reset(cluster.header_overhead, cluster.mss);
        Phase {
            start: Instant::now(),
            gen_ns: 0,
            events0: cluster.sim.events_processed(),
            speed: Speedometer::default(),
        }
    }

    /// Sample the machine's speed; called once per input round.
    fn sample_speed(&mut self) {
        self.speed.sample();
    }

    /// Run the generator, charging its time to `gen`.
    fn gen<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as u64;
        self.gen_ns += ns;
        ledger::add_gen(ns);
        out
    }

    /// Stop the clock at the end of the drain.
    fn stop<H: Host>(self, cluster: &Cluster<H>) -> Timed {
        let wall_s = self.start.elapsed().as_secs_f64() - self.speed.secs();
        let stats = cluster.sim.stats();
        Timed {
            wall_s,
            gen_s: self.gen_ns as f64 / 1e9,
            msgs: stats.total_msgs,
            bytes: stats.total_bytes,
            events: cluster.sim.events_processed() - self.events0,
            ledger: ledger::snapshot(),
            slowdown: self.speed.slowdown(),
        }
    }
}

/// What the timed phase measured.
struct Timed {
    wall_s: f64,
    gen_s: f64,
    msgs: u64,
    bytes: u64,
    events: u64,
    ledger: Ledger,
    slowdown: f64,
}

impl Timed {
    fn outcome(self, setup_s: f64, rows: u64, check: Check) -> Outcome {
        let mut latency_us = check.latency_us;
        latency_us.sort_unstable();
        Outcome {
            setup_s,
            wall_s: self.wall_s,
            gen_s: self.gen_s,
            det: Det {
                rows,
                msgs: self.msgs,
                bytes: self.bytes,
                events: self.events,
                results: check.results,
                expected: check.expected,
                wrong: check.wrong,
                missing: check.missing,
                latency_us,
            },
            ledger: self.ledger,
            slowdown: self.slowdown,
        }
    }
}

/// What the oracle found.
#[derive(Debug, Default)]
struct Check {
    latency_us: Vec<u64>,
    results: u64,
    expected: u64,
    wrong: u64,
    missing: u64,
}

impl Check {
    /// Compare delivered answers, `key → (value, detail)`, with the
    /// expected `key → value`; `right` sees every answer delivered with the
    /// expected value.
    fn compare<K: Ord, V: PartialEq, D>(
        &mut self,
        expected: &BTreeMap<K, V>,
        delivered: &BTreeMap<K, (V, D)>,
        mut right: impl FnMut(&mut Self, &K, &D),
    ) {
        self.expected += expected.len() as u64;
        for (key, want) in expected {
            match delivered.get(key) {
                Some((got, detail)) if got == want => right(self, key, detail),
                Some(_) => self.wrong += 1,
                None => self.missing += 1,
            }
        }
        self.wrong += delivered
            .keys()
            .filter(|k| !expected.contains_key(k))
            .count() as u64;
    }
}

fn packet_source(rank: usize) -> String {
    format!("10.0.{}.{}", (rank / 256) % 256, rank % 256)
}

fn packet(src: String, now: SimTime, len: i64) -> Tuple {
    Tuple::new(
        "packets",
        vec![
            ("src", Value::Str(src.into())),
            ("ts", Value::Int(now as i64)),
            ("len", Value::Int(len)),
        ],
    )
}

fn window_of(plan: &QueryPlan) -> WindowSpec {
    match plan.windowed_sink() {
        Some((_, SinkSpec::WindowedAgg { window, .. })) => *window,
        _ => panic!("standing query must have a WINDOW clause"),
    }
}

/// Delay after the stream ends until every interior window has closed,
/// travelled to its root and reached the proxy.
fn window_drain(w: &WindowSpec) -> u64 {
    w.size + w.grace + 4 * w.slide + 2 * SEC
}

/// A window row's key: `((window start, window end), src)`.
type WindowKey = ((SimTime, SimTime), String);

/// Per-window rows at a proxy: `key → (count, since)`, where `since` is
/// when the proxy first held that count.  The last emission wins and
/// retractions apply; the root refines a window over several ticks as
/// partials climb the aggregation tree, and a repeated row changes nothing.
fn collect_windows(
    out: SimOutput<PierOut>,
    check: &mut Check,
    rows: &mut BTreeMap<WindowKey, (i64, SimTime)>,
) {
    let PierOut::WindowResult {
        window_start,
        window_end,
        retract,
        tuple,
        ..
    } = out.value
    else {
        return;
    };
    let src = tuple
        .get("src")
        .and_then(Value::as_str)
        .unwrap_or_default()
        .to_string();
    let key = ((window_start, window_end), src);
    if retract {
        rows.remove(&key);
        return;
    }
    check.results += 1;
    let count = tuple.get("count").and_then(Value::as_i64).unwrap_or(-1);
    let row = rows.entry(key).or_insert((count, out.time));
    if row.0 != count {
        *row = (count, out.time);
    }
}

/// Check the interior windows' rows against the truth.  An exact answer is
/// one latency sample: from the window's end, when the answer can first
/// exist, to the arrival of the exact count.
fn check_windows(
    check: &mut Check,
    truth: &BTreeMap<WindowKey, i64>,
    rows: BTreeMap<WindowKey, (i64, SimTime)>,
    begin: SimTime,
    end: SimTime,
) {
    let rows: BTreeMap<_, _> = rows
        .into_iter()
        .filter(|((b, _), _)| b.0 >= begin && b.1 <= end)
        .collect();
    check.compare(truth, &rows, |check, ((_, window_end), _), &since| {
        check.latency_us.push(since.saturating_sub(*window_end));
    });
}

/// Expected `(window, src) → count` over the windows lying wholly inside
/// `[begin, end)`, from the generated `(time, src rank)` stream.
fn window_truth(
    w: &WindowSpec,
    begin: SimTime,
    end: SimTime,
    stream: &[(SimTime, u32)],
    keep: impl Fn(u32) -> bool,
) -> BTreeMap<WindowKey, i64> {
    let mut truth = BTreeMap::new();
    for &(t, rank) in stream {
        if !keep(rank) {
            continue;
        }
        for id in w.windows_containing(t) {
            let bounds = w.bounds(id);
            if bounds.0 >= begin && bounds.1 <= end {
                *truth
                    .entry((bounds, packet_source(rank as usize)))
                    .or_insert(0) += 1;
            }
        }
    }
    truth
}

/// Ingest rounds per virtual second in the streaming workloads.
const ROUNDS_PER_SEC: u64 = 4;

/// The timed phase of a streaming workload: every node receives `rate`
/// packets per virtual second, in rounds, for `secs` virtual seconds, with
/// sources drawn from `zipf`; then the drain.  Returns the measurements, the
/// stream's bounds and its `(time, src rank)` record for the oracle.
fn stream_packets<H: Host>(
    cluster: &mut Cluster<H>,
    mut rng: Rng64,
    zipf: &Zipf,
    rate: u64,
    secs: u64,
    window: &WindowSpec,
) -> (Timed, (SimTime, SimTime), Vec<(SimTime, u32)>) {
    let mut phase = Phase::begin(cluster);
    let per_node = rate / ROUNDS_PER_SEC;
    let begin = cluster.sim.now();
    let end = begin + secs * SEC;
    let mut stream = Vec::new();
    while cluster.sim.now() < end {
        let now = cluster.sim.now();
        let batch = phase.gen(|| {
            let mut batch = Vec::new();
            for &addr in &cluster.addrs {
                for _ in 0..per_node {
                    // Zipf ranks are 1-based; sources are 0-based.
                    let rank = zipf.sample(&mut rng) - 1;
                    let len = 40 + rng.index(1400) as i64;
                    stream.push((now, rank as u32));
                    batch.push((addr, packet(packet_source(rank), now, len)));
                }
            }
            batch
        });
        for (addr, tuple) in batch {
            cluster.ingest(addr, tuple);
        }
        cluster.sim.run_for(SEC / ROUNDS_PER_SEC);
        phase.sample_speed();
    }
    cluster.sim.run_for(window_drain(window));
    (phase.stop(cluster), (begin, end), stream)
}

/// netmon: one standing per-source count over a Zipf(0.9) packet stream,
/// with telemetry publishing and query tracing on.
fn netmon<H: Host>(tiny: bool, seed: u64) -> Outcome {
    let (nodes, sources, rate, secs) = if tiny {
        (16, 64, 16, 6)
    } else {
        (128, 1024, 128, 10)
    };
    let setup = Instant::now();
    let pier = PierConfig {
        telemetry: TelemetryConfig::publishing(SEC),
        trace: TraceConfig::sample_all(),
        ..PierConfig::default()
    };
    let mut cluster = Cluster::<H>::boot(nodes, seed, &pier);
    let proxy = cluster.addrs[0];
    let sql = "SELECT src, COUNT(*) FROM packets GROUP BY src WINDOW 2s SLIDE 1s EVERY 5s";
    let plan = sqlish::compile(sql, proxy, (secs + 30) * SEC).expect("netmon query compiles");
    let window = window_of(&plan);
    let query_id = cluster.submit(proxy, plan);
    cluster.sim.run_for(SEC);
    let setup_s = setup.elapsed().as_secs_f64();

    let zipf = Zipf::new(sources, 0.9);
    let rng = Rng64::new(seed ^ 0x4E37_3A0D);
    let (timed, (begin, end), stream) =
        stream_packets(&mut cluster, rng, &zipf, rate, secs, &window);

    let mut check = Check::default();
    let mut rows = BTreeMap::new();
    for out in cluster.sim.drain_outputs() {
        if out.node == proxy
            && matches!(out.value, PierOut::WindowResult { query_id: q, .. } if q == query_id)
        {
            collect_windows(out, &mut check, &mut rows);
        }
    }
    let truth = window_truth(&window, begin, end, &stream, |_| true);
    check_windows(&mut check, &truth, rows, begin, end);
    timed.outcome(setup_s, stream.len() as u64, check)
}

/// tenants: 256 constant-varied `WHERE src = '<mine>'` standing queries
/// executed through `pier-mqo` share groups.
fn tenants<H: Host>(tiny: bool, seed: u64) -> Outcome {
    let (nodes, tenants, rate, secs) = if tiny {
        (8, 16, 16, 6)
    } else {
        (32, 256, 128, 20)
    };
    let sources = tenants + tenants / 4;
    let setup = Instant::now();
    let pier = PierConfig {
        sharing: Some(pier_mqo::layer),
        ..PierConfig::default()
    };
    let mut cluster = Cluster::<H>::boot(nodes, seed, &pier);
    let timeout = (secs + 30) * SEC;
    let mut queries = BTreeMap::new();
    let mut window = None;
    for tenant in 0..tenants {
        let src = packet_source(tenant);
        let sql = format!(
            "SELECT src, COUNT(*) FROM packets WHERE src = '{src}' \
             GROUP BY src WINDOW 2s SLIDE 1s EVERY 5s"
        );
        let proxy = cluster.addrs[tenant % nodes];
        let mut plan = sqlish::compile(&sql, proxy, timeout).expect("tenant query compiles");
        plan.tenant = tenant as u64;
        window = Some(window_of(&plan));
        let query_id = cluster.submit(proxy, plan);
        queries.insert(query_id, (tenant, proxy));
    }
    let window = window.expect("at least one tenant");
    cluster.sim.run_for(SEC);
    let setup_s = setup.elapsed().as_secs_f64();

    let zipf = Zipf::new(sources, 0.6);
    let rng = Rng64::new(seed ^ 0x7E4A_4701);
    let (timed, (begin, end), stream) =
        stream_packets(&mut cluster, rng, &zipf, rate, secs, &window);

    let mut check = Check::default();
    let mut per_tenant: Vec<BTreeMap<_, _>> = vec![BTreeMap::new(); tenants];
    for out in cluster.sim.drain_outputs() {
        let PierOut::WindowResult { query_id, .. } = out.value else {
            continue;
        };
        match queries.get(&query_id) {
            Some(&(tenant, proxy)) if proxy == out.node => {
                collect_windows(out, &mut check, &mut per_tenant[tenant]);
            }
            _ => {}
        }
    }
    for (tenant, rows) in per_tenant.into_iter().enumerate() {
        let truth = window_truth(&window, begin, end, &stream, |r| r as usize == tenant);
        check_windows(&mut check, &truth, rows, begin, end);
    }
    timed.outcome(setup_s, stream.len() as u64, check)
}

fn file_tuple(keyword: &str, file: &str) -> Tuple {
    Tuple::new(
        "files",
        vec![("keyword", Value::str(keyword)), ("file", Value::str(file))],
    )
}

fn keyword_query(proxy: NodeAddr, keyword: &str, timeout: u64) -> QueryPlan {
    PlanBuilder::new(proxy)
        .dissemination(Dissemination::ByKey {
            namespace: "files".into(),
            key: Value::str(keyword).key_string(),
        })
        .timeout(timeout)
        .opgraph(OpGraph {
            id: 0,
            source: SourceSpec::Table {
                namespace: "files".into(),
            },
            join: None,
            ops: vec![OperatorSpec::Selection(Expr::eq("keyword", keyword))],
            sink: SinkSpec::ToProxy,
        })
        .build()
}

/// filesharing: a Zipf(1.0) keyword corpus, partly preloaded; the timed
/// phase interleaves further publishes (writes) with `ByKey` keyword
/// queries (reads).
fn filesharing<H: Host>(tiny: bool, seed: u64) -> Outcome {
    // (nodes, preloaded files, keywords, timed seconds, publishes and
    // queries per 100 ms round)
    let (nodes, preload, keywords, secs, pubs, reads) = if tiny {
        (16, 400, 100, 3, 10, 4)
    } else {
        (64, 30_000, 3_000, 12, 200, 6)
    };
    // Head keywords would return thousands of rows each, so a seed's result
    // volume would hinge on whether it happens to draw one: reads pick a
    // keyword uniformly from the ranks past the head.
    let head = keywords / 80;
    let timeout = 2 * SEC;
    // A file counts as published "before" a query once its put had this
    // long to land; files published later may or may not be in the answer.
    let settle = 500_000;
    let setup = Instant::now();
    let key = vec!["keyword".to_string()];
    let mut cluster = Cluster::<H>::boot(nodes, seed, &PierConfig::default());
    let mut rng = Rng64::new(seed ^ 0xF11E_5A4E);
    let zipf = Zipf::new(keywords, 1.0);
    // (publish time, keyword rank) per file, indexed by file number.
    let mut files: Vec<(SimTime, u32)> = Vec::new();
    let draw_file = |rng: &mut Rng64, now: SimTime, files: &mut Vec<(SimTime, u32)>| {
        let rank = zipf.sample(rng) as u32;
        let node = rng.index(nodes);
        let f = files.len();
        files.push((now, rank));
        (
            node,
            file_tuple(&format!("kw{rank}"), &format!("file-{f}.dat")),
        )
    };
    for _ in 0..preload {
        let (node, tuple) = draw_file(&mut rng, 0, &mut files);
        let addr = cluster.addrs[node];
        cluster.publish(addr, "files", &key, tuple);
    }
    cluster.sim.run_for(2 * SEC);
    let setup_s = setup.elapsed().as_secs_f64();

    let mut phase = Phase::begin(&mut cluster);
    let begin = cluster.sim.now();
    let end = begin + secs * SEC;
    let round = SEC / 10;
    let mut issued = Vec::new();
    let mut rows = 0u64;
    while cluster.sim.now() < end {
        let now = cluster.sim.now();
        let (writes, queries) = phase.gen(|| {
            let writes: Vec<_> = (0..pubs)
                .map(|_| draw_file(&mut rng, now, &mut files))
                .collect();
            let queries: Vec<_> = (0..reads)
                .map(|_| {
                    let rank = head as u64 + 1 + rng.next_below((keywords - head) as u64);
                    (rng.index(nodes), rank as u32)
                })
                .collect();
            (writes, queries)
        });
        rows += (writes.len() + queries.len()) as u64;
        for (node, tuple) in writes {
            let addr = cluster.addrs[node];
            cluster.publish(addr, "files", &key, tuple);
        }
        for (node, rank) in queries {
            let proxy = cluster.addrs[node];
            let plan = keyword_query(proxy, &format!("kw{rank}"), timeout);
            let query_id = cluster.submit(proxy, plan);
            issued.push((query_id, proxy, now, rank));
        }
        cluster.sim.run_for(round);
        phase.sample_speed();
    }
    cluster.sim.run_for(timeout + SEC);
    let timed = phase.stop(&cluster);

    let mut check = Check::default();
    let proxies: BTreeMap<u64, NodeAddr> = issued.iter().map(|&(q, p, _, _)| (q, p)).collect();
    let mut delivered: BTreeMap<u64, Vec<(SimTime, usize)>> = BTreeMap::new();
    for out in cluster.sim.drain_outputs() {
        let PierOut::Result { query_id, tuple } = out.value else {
            continue;
        };
        if proxies.get(&query_id) != Some(&out.node) {
            continue;
        }
        let file = tuple
            .get("file")
            .and_then(Value::as_str)
            .and_then(|f| f.strip_prefix("file-")?.strip_suffix(".dat")?.parse().ok())
            .unwrap_or(usize::MAX);
        delivered
            .entry(query_id)
            .or_default()
            .push((out.time, file));
    }
    let mut by_rank: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    for (f, &(_, rank)) in files.iter().enumerate() {
        by_rank.entry(rank).or_default().push(f);
    }
    for (query_id, _, submitted, rank) in issued {
        let candidates = by_rank.get(&rank).map_or(&[][..], Vec::as_slice);
        // Allowed: any file under the keyword published while the query ran.
        let allowed: BTreeSet<usize> = candidates
            .iter()
            .copied()
            .filter(|&f| files[f].0 <= submitted + timeout)
            .collect();
        let want: BTreeSet<usize> = allowed
            .iter()
            .copied()
            .filter(|&f| files[f].0 + settle <= submitted)
            .collect();
        check.expected += want.len() as u64;
        let mut seen = BTreeSet::new();
        for (at, f) in delivered.remove(&query_id).unwrap_or_default() {
            check.results += 1;
            if !allowed.contains(&f) || !seen.insert(f) {
                check.wrong += 1;
                continue;
            }
            // The answer can exist once both the query and the file exist.
            let born = submitted.max(files[f].0);
            check.latency_us.push(at.saturating_sub(born));
        }
        check.missing += want.difference(&seen).count() as u64;
    }
    timed.outcome(setup_s, rows, check)
}

/// One symmetric-hash join of `r` and `s` on `b`: both relations are
/// rescanned and rehashed into the query's own rendezvous namespace, where
/// the join consumes them as they arrive.
fn join_query(proxy: NodeAddr, namespace: String, timeout: u64) -> QueryPlan {
    let key = vec!["b".to_string()];
    let rehash = |id: u32, table: &str| OpGraph {
        id,
        source: SourceSpec::Table {
            namespace: table.into(),
        },
        join: None,
        ops: vec![],
        sink: SinkSpec::Rehash {
            namespace: namespace.clone(),
            key_cols: key.clone(),
        },
    };
    PlanBuilder::new(proxy)
        .timeout(timeout)
        .opgraph(rehash(0, "r"))
        .opgraph(rehash(1, "s"))
        .opgraph(OpGraph {
            id: 2,
            source: SourceSpec::Table {
                namespace: namespace.clone(),
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
        .build()
}

/// A join's delivered rows: `(a, c) → (times delivered, first arrival)`.
type JoinRows = BTreeMap<(i64, i64), (i64, SimTime)>;

/// join: `r(a, b)` and `s(b, c)` published in set-up, then a stream of
/// symmetric-hash join queries that rehash both relations.
fn join<H: Host>(tiny: bool, seed: u64) -> Outcome {
    let (nodes, r_rows, queries) = if tiny { (16, 200, 3) } else { (64, 4_000, 20) };
    let (s_rows, domain) = (r_rows / 2, r_rows / 4);
    let gap = SEC;
    let timeout = 4 * SEC;
    let setup = Instant::now();
    let key = vec!["b".to_string()];
    let mut cluster = Cluster::<H>::boot(nodes, seed, &PierConfig::default());
    let mut rng = Rng64::new(seed ^ 0x104A);
    let r: Vec<i64> = (0..r_rows).map(|_| rng.index(domain) as i64).collect();
    let s: Vec<i64> = (0..s_rows).map(|_| rng.index(domain) as i64).collect();
    for (a, &b) in r.iter().enumerate() {
        let tuple = Tuple::new("r", vec![("a", Value::Int(a as i64)), ("b", Value::Int(b))]);
        let addr = cluster.addrs[a % nodes];
        cluster.publish(addr, "r", &key, tuple);
    }
    for (i, &b) in s.iter().enumerate() {
        let c = (i * 7) as i64;
        let tuple = Tuple::new("s", vec![("b", Value::Int(b)), ("c", Value::Int(c))]);
        let addr = cluster.addrs[i % nodes];
        cluster.publish(addr, "s", &key, tuple);
    }
    cluster.sim.run_for(2 * SEC);
    let setup_s = setup.elapsed().as_secs_f64();

    let mut phase = Phase::begin(&mut cluster);
    let mut issued = Vec::new();
    for j in 0..queries {
        let now = cluster.sim.now();
        let proxy = phase.gen(|| cluster.addrs[rng.index(nodes)]);
        let plan = join_query(proxy, format!("join{j}"), timeout);
        let query_id = cluster.submit(proxy, plan);
        issued.push((query_id, proxy, now));
        cluster.sim.run_for(gap);
        phase.sample_speed();
    }
    cluster.sim.run_for(timeout + SEC);
    let timed = phase.stop(&cluster);

    // Every (a, c) pair with r.b == s.b, exactly once.
    let mut truth: BTreeMap<(i64, i64), i64> = BTreeMap::new();
    let mut s_by_b: BTreeMap<i64, Vec<i64>> = BTreeMap::new();
    for (i, &b) in s.iter().enumerate() {
        s_by_b.entry(b).or_default().push((i * 7) as i64);
    }
    for (a, b) in r.iter().enumerate() {
        for &c in s_by_b.get(b).map_or(&[][..], Vec::as_slice) {
            truth.insert((a as i64, c), 1);
        }
    }
    let mut check = Check::default();
    let proxies: BTreeMap<u64, NodeAddr> = issued.iter().map(|&(q, p, _)| (q, p)).collect();
    // Per query: (a, c) → (times delivered, first arrival).
    let mut delivered: BTreeMap<u64, JoinRows> = BTreeMap::new();
    for out in cluster.sim.drain_outputs() {
        let PierOut::Result { query_id, tuple } = out.value else {
            continue;
        };
        if proxies.get(&query_id) != Some(&out.node) {
            continue;
        }
        check.results += 1;
        let a = tuple.get("a").and_then(Value::as_i64).unwrap_or(-1);
        let c = tuple.get("c").and_then(Value::as_i64).unwrap_or(-1);
        let row = delivered
            .entry(query_id)
            .or_default()
            .entry((a, c))
            .or_insert((0, out.time));
        row.0 += 1;
    }
    for (query_id, _, submitted) in issued {
        let rows = delivered.remove(&query_id).unwrap_or_default();
        check.compare(&truth, &rows, |check, _, &at| {
            check.latency_us.push(at.saturating_sub(submitted));
        });
    }
    let rows = (queries * (r_rows + s_rows)) as u64;
    timed.outcome(setup_s, rows, check)
}
