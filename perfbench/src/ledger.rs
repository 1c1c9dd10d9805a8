//! The outside-in wall-clock ledger of the traced run.
//!
//! Nothing inside the program is instrumented.  Instead [`Traced`] wraps a
//! [`PierNode`] as a [`Program`] of its own: it times every `on_message` and
//! `on_timer` call by message or timer variant, the public
//! `ingest`/`publish`/`submit_query` calls the driver makes through
//! [`Host::call`], and — through the [`TracedMsg`] newtype — every
//! [`WireSize::wire_size`] call the simulator makes to price a send.  The
//! driver adds the generator's time.  Whatever is left of the traced wall
//! is simulator self-time (queue, dispatch, network model, statistics).
//!
//! The intervals are disjoint by construction: handlers and calls run
//! inside `Simulator::dispatch`, while the simulator prices a send in
//! `apply_action`, after the handler has returned.  A negative remainder
//! would mean an interval was counted twice, and the benchmark fails.
//!
//! The ledger lives in a thread-local sidecar: it never touches the
//! program's own counters, so the traced run's deterministic outputs stay
//! identical to the untraced run's (the benchmark checks that too).

use pier_core::{PierMsg, PierNode, PierOut, PierTimer};
use pier_dht::DhtMessage;
use pier_runtime::{Action, Context, NodeAddr, Program, ProgramContext, WireSize};
use std::cell::RefCell;
use std::time::Instant;

/// Message kinds, by the variant a node receives.
pub const MSG_KINDS: [&str; 9] = [
    "routing",
    "get",
    "put",
    "put_batch",
    "routed",
    "broadcast",
    "results",
    "window_results",
    "other",
];

/// Timer kinds, by the variant that fires.
pub const TIMER_KINDS: [&str; 9] = [
    "overlay",
    "window_tick",
    "share_tick",
    "batch_flush",
    "agg_flush",
    "cq_lifecycle",
    "query_end",
    "metrics_publish",
    "other",
];

/// The public node calls the driver makes.
#[derive(Debug, Clone, Copy)]
pub enum Call {
    Ingest = 0,
    Publish = 1,
    SubmitQuery = 2,
}

/// Names of the public node calls, indexed by [`Call`].
pub const CALLS: [&str; 3] = ["ingest", "publish", "submit_query"];

const WIRE: usize = 0;
const GEN: usize = 1;
const CALL0: usize = 2;
const MSG0: usize = CALL0 + CALLS.len();
const TIMER0: usize = MSG0 + MSG_KINDS.len();
/// Number of timed entries (everything except the simulator remainder).
pub const ENTRIES: usize = TIMER0 + TIMER_KINDS.len();

/// Ledger entry names in index order; `sim.self` is derived, not stored.
pub fn entry_names() -> Vec<String> {
    let mut names = vec!["wire.size".to_string(), "gen".to_string()];
    names.extend(CALLS.iter().map(|c| format!("call.{c}")));
    names.extend(MSG_KINDS.iter().map(|k| format!("msg.{k}")));
    names.extend(TIMER_KINDS.iter().map(|k| format!("timer.{k}")));
    names
}

/// Wall time and call counts per entry, plus traffic by message kind.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ledger {
    /// Nanoseconds spent per entry.
    pub ns: [u64; ENTRIES],
    /// Calls per entry.
    pub calls: [u64; ENTRIES],
    /// Messages sent per kind.
    pub kind_msgs: [u64; MSG_KINDS.len()],
    /// Bytes charged per kind, priced exactly as the simulator prices them
    /// (payload plus one header per MSS-sized fragment).
    pub kind_bytes: [u64; MSG_KINDS.len()],
    /// Entries carried by `PutBatch` messages.
    pub put_batch_entries: u64,
    /// Rows carried by `Results` messages.
    pub result_rows: u64,
    /// Rows (inserts and retracts) carried by `WindowResults` messages.
    pub window_rows: u64,
    header_overhead: u64,
    mss: u64,
}

impl Ledger {
    /// Nanoseconds of every handler and call entry (the `trace.coverage`
    /// numerator).
    pub fn handler_and_call_ns(&self) -> u64 {
        self.ns[CALL0..].iter().sum()
    }

    /// Nanoseconds of every timed entry.
    pub fn timed_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// Fold another run's ledger into this one, its times scaled by
    /// `ns_scale`.
    pub fn absorb(&mut self, other: &Ledger, ns_scale: f64) {
        for i in 0..ENTRIES {
            self.ns[i] += (other.ns[i] as f64 * ns_scale) as u64;
            self.calls[i] += other.calls[i];
        }
        for k in 0..MSG_KINDS.len() {
            self.kind_msgs[k] += other.kind_msgs[k];
            self.kind_bytes[k] += other.kind_bytes[k];
        }
        self.put_batch_entries += other.put_batch_entries;
        self.result_rows += other.result_rows;
        self.window_rows += other.window_rows;
    }

    /// The deterministic half of the ledger: call counts and traffic, with
    /// the wall-clock columns zeroed.
    pub fn counts(&self) -> Ledger {
        Ledger {
            ns: [0; ENTRIES],
            ..self.clone()
        }
    }
}

thread_local! {
    static LEDGER: RefCell<Ledger> = RefCell::new(Ledger::default());
}

/// Start a fresh ledger; sends are priced with the simulator's
/// `header_overhead` and `mss`.
pub fn reset(header_overhead: usize, mss: usize) {
    LEDGER.with(|l| {
        *l.borrow_mut() = Ledger {
            header_overhead: header_overhead as u64,
            mss: mss.max(1) as u64,
            ..Ledger::default()
        };
    });
}

/// The ledger accumulated since the last [`reset`].
pub fn snapshot() -> Ledger {
    LEDGER.with(|l| l.borrow().clone())
}

fn add(entry: usize, start: Instant) {
    let ns = start.elapsed().as_nanos() as u64;
    LEDGER.with(|l| {
        let mut l = l.borrow_mut();
        l.ns[entry] += ns;
        l.calls[entry] += 1;
    });
}

/// Charge generator time measured by the driver.
pub fn add_gen(ns: u64) {
    LEDGER.with(|l| {
        let mut l = l.borrow_mut();
        l.ns[GEN] += ns;
        l.calls[GEN] += 1;
    });
}

fn msg_kind(msg: &PierMsg) -> usize {
    match msg {
        PierMsg::Dht(m) => match m {
            DhtMessage::Routing(_) => 0,
            DhtMessage::GetRequest { .. } | DhtMessage::GetResponse { .. } => 1,
            DhtMessage::PutRequest { .. } => 2,
            DhtMessage::PutBatch { .. } => 3,
            DhtMessage::Routed { .. } => 4,
            DhtMessage::TreeBroadcastUp { .. } | DhtMessage::TreeBroadcastDown { .. } => 5,
            // Tree joins, renewals, and any variant added later.
            _ => 8,
        },
        PierMsg::Results { .. } => 6,
        PierMsg::WindowResults { .. } => 7,
        #[allow(unreachable_patterns)]
        _ => 8,
    }
}

fn timer_kind(timer: &PierTimer) -> usize {
    match timer {
        PierTimer::Overlay(_) => 0,
        PierTimer::WindowTick { .. } => 1,
        PierTimer::ShareTick { .. } => 2,
        PierTimer::BatchFlush => 3,
        PierTimer::AggFlush { .. } | PierTimer::AggFinal { .. } => 4,
        PierTimer::CqRenew { .. } | PierTimer::CqLease { .. } => 5,
        PierTimer::QueryEnd { .. } | PierTimer::ProxyDone { .. } => 6,
        PierTimer::MetricsPublish => 7,
        #[allow(unreachable_patterns)]
        _ => 8,
    }
}

/// A node program the benchmark can drive: the bare [`PierNode`] for the
/// untraced run, or [`Traced`] for the ledger run.  The driver reaches the
/// node's public calls only through [`Host::call`].
pub trait Host: Program<Timer = PierTimer, Out = PierOut> {
    /// Wrap a freshly built node.
    fn wrap(node: PierNode) -> Self;
    /// Run one public node call against this node.
    fn call<R>(
        &mut self,
        ctx: &mut ProgramContext<Self>,
        call: Call,
        f: impl FnOnce(&mut PierNode, &mut ProgramContext<PierNode>) -> R,
    ) -> R;
}

impl Host for PierNode {
    fn wrap(node: PierNode) -> Self {
        node
    }

    fn call<R>(
        &mut self,
        ctx: &mut ProgramContext<Self>,
        _call: Call,
        f: impl FnOnce(&mut PierNode, &mut ProgramContext<PierNode>) -> R,
    ) -> R {
        f(self, ctx)
    }
}

/// A [`PierMsg`] whose wire pricing is timed and counted by kind.
#[derive(Debug, Clone)]
pub struct TracedMsg(pub PierMsg);

impl WireSize for TracedMsg {
    fn wire_size(&self) -> usize {
        let start = Instant::now();
        let wire = self.0.wire_size();
        let kind = msg_kind(&self.0);
        let rows = match &self.0 {
            PierMsg::Dht(DhtMessage::PutBatch { entries, .. }) => entries.len(),
            PierMsg::Results { tuples, .. } => tuples.len(),
            PierMsg::WindowResults {
                retracts, inserts, ..
            } => retracts.len() + inserts.len(),
            _ => 0,
        } as u64;
        LEDGER.with(|l| {
            let mut l = l.borrow_mut();
            let frags = (wire as u64).div_ceil(l.mss).max(1);
            l.kind_msgs[kind] += 1;
            l.kind_bytes[kind] += wire as u64 + frags * l.header_overhead;
            match kind {
                3 => l.put_batch_entries += rows,
                6 => l.result_rows += rows,
                7 => l.window_rows += rows,
                _ => {}
            }
            l.ns[WIRE] += start.elapsed().as_nanos() as u64;
            l.calls[WIRE] += 1;
        });
        wire
    }
}

/// A [`PierNode`] whose handlers and public calls are timed.
#[derive(Debug)]
pub struct Traced(PierNode);

/// Re-issue the inner node's actions on the wrapper's context, in order.
fn forward(inner: ProgramContext<PierNode>, outer: &mut ProgramContext<Traced>) {
    for action in inner.into_actions() {
        match action {
            Action::Send { to, msg } => outer.send(to, TracedMsg(msg)),
            Action::SetTimer { delay, timer } => outer.set_timer(delay, timer),
            Action::Output(out) => outer.output(out),
        }
    }
}

impl Traced {
    fn timed<R>(
        &mut self,
        ctx: &mut ProgramContext<Self>,
        entry: usize,
        f: impl FnOnce(&mut PierNode, &mut ProgramContext<PierNode>) -> R,
    ) -> R {
        let start = Instant::now();
        let mut inner = Context::new(ctx.now(), ctx.me());
        let out = f(&mut self.0, &mut inner);
        forward(inner, ctx);
        add(entry, start);
        out
    }
}

impl Host for Traced {
    fn wrap(node: PierNode) -> Self {
        Traced(node)
    }

    fn call<R>(
        &mut self,
        ctx: &mut ProgramContext<Self>,
        call: Call,
        f: impl FnOnce(&mut PierNode, &mut ProgramContext<PierNode>) -> R,
    ) -> R {
        self.timed(ctx, CALL0 + call as usize, f)
    }
}

impl Program for Traced {
    type Msg = TracedMsg;
    type Timer = PierTimer;
    type Out = PierOut;

    fn on_start(&mut self, ctx: &mut ProgramContext<Self>) {
        let mut inner = Context::new(ctx.now(), ctx.me());
        self.0.on_start(&mut inner);
        forward(inner, ctx);
    }

    fn on_message(&mut self, ctx: &mut ProgramContext<Self>, from: NodeAddr, msg: TracedMsg) {
        let entry = MSG0 + msg_kind(&msg.0);
        self.timed(ctx, entry, |node, inner| {
            node.on_message(inner, from, msg.0);
        });
    }

    fn on_timer(&mut self, ctx: &mut ProgramContext<Self>, timer: PierTimer) {
        let entry = TIMER0 + timer_kind(&timer);
        self.timed(ctx, entry, |node, inner| node.on_timer(inner, timer));
    }

    fn on_stop(&mut self, ctx: &mut ProgramContext<Self>) {
        let mut inner = Context::new(ctx.now(), ctx.me());
        self.0.on_stop(&mut inner);
        forward(inner, ctx);
    }
}
