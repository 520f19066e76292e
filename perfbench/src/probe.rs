//! The benchmark's measurement plane: a transparent [`Process`] wrapper
//! that records one span per handler call, taps on the local messages a
//! process receives, and the ledger that counts operations.
//!
//! Every process a workload adds is wrapped in [`Traced`]. With tracing
//! off the wrapper only forwards (and runs its tap); with tracing on it
//! times each handler call with the host clock and keeps the span in
//! memory, parented to the `run_until` slice the main loop is timing.
//! The wrapper never touches the simulation, so a traced run must
//! process exactly the same events as an untraced one — the benchmark
//! checks that.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use simnet::{
    Ctx, Datagram, LocalMessage, Payload, ProcId, Process, SimTime, StreamEvent, StreamId,
};

/// Spans kept in memory per rep; calls beyond it are counted as dropped.
const SPAN_CAP: usize = 2_000_000;
/// Wire datagrams captured per rep for the off-line codec timers.
const FRAME_CAP: usize = 4096;
/// The slice id of calls made during set-up and drain.
pub const OUTSIDE_WINDOW: u32 = u32::MAX;

/// One handler call, host clock, nanoseconds since the probe's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Index into [`Probe::layers`].
    pub layer: u16,
    /// The wrapped process.
    pub proc: u32,
    /// Start of the call.
    pub start: u64,
    /// End of the call.
    pub end: u64,
    /// The `run_until` slice the call ran in (its parent span).
    pub slice: u32,
}

/// Shared measurement state of one rep.
pub struct Probe {
    epoch: Instant,
    tracing: bool,
    /// Layer names; spans index into it.
    pub layers: RefCell<Vec<String>>,
    /// Spans, in call order.
    pub spans: RefCell<Vec<Span>>,
    /// Spans not kept because the store was full.
    pub spans_dropped: Cell<u64>,
    slice: Cell<u32>,
    /// Wire datagrams received by runtimes (tracing only).
    pub frames: RefCell<Vec<Payload>>,
    /// All wire datagrams received by runtimes, captured or not.
    pub frames_seen: Cell<u64>,
    /// Virtual time of the handler call in progress, for code that runs
    /// inside a handler without a `Ctx` (native device callbacks).
    pub vnow: Cell<SimTime>,
}

impl Probe {
    /// A probe; `tracing` turns span recording on.
    pub fn new(tracing: bool) -> Rc<Probe> {
        Rc::new(Probe {
            epoch: Instant::now(),
            tracing,
            layers: RefCell::new(Vec::new()),
            spans: RefCell::new(Vec::new()),
            spans_dropped: Cell::new(0),
            slice: Cell::new(OUTSIDE_WINDOW),
            frames: RefCell::new(Vec::new()),
            frames_seen: Cell::new(0),
            vnow: Cell::new(SimTime::ZERO),
        })
    }

    /// Host nanoseconds since the probe was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Marks the start of `run_until` slice `id`.
    pub fn enter_slice(&self, id: u32) {
        self.slice.set(id);
    }

    /// The layer id for `name`, registering it on first use.
    pub fn layer(&self, name: &str) -> u16 {
        let mut layers = self.layers.borrow_mut();
        if let Some(i) = layers.iter().position(|l| l == name) {
            return i as u16;
        }
        layers.push(name.to_owned());
        (layers.len() - 1) as u16
    }

    fn record(&self, layer: u16, proc: u32, start: u64, end: u64) {
        let mut spans = self.spans.borrow_mut();
        if spans.len() < SPAN_CAP {
            spans.push(Span {
                layer,
                proc,
                start,
                end,
                slice: self.slice.get(),
            });
        } else {
            self.spans_dropped.set(self.spans_dropped.get() + 1);
        }
    }
}

/// Observes local messages as the wrapped process receives them —
/// before the process handles them, at the virtual instant it does.
pub trait Tap {
    /// `to` is about to handle `msg` from `from` at `now`.
    fn local(&mut self, now: SimTime, to: ProcId, from: ProcId, msg: &LocalMessage);
}

/// A shared tap.
pub type TapRef = Rc<RefCell<dyn Tap>>;

/// The transparent wrapper every benchmark-added process runs in.
pub struct Traced {
    inner: Box<dyn Process>,
    layer: u16,
    probe: Rc<Probe>,
    tap: Option<TapRef>,
    capture_frames: bool,
}

impl Traced {
    /// Wraps `inner` as a process of layer `layer`.
    pub fn new(probe: &Rc<Probe>, layer: &str, inner: Box<dyn Process>) -> Traced {
        Traced {
            inner,
            layer: probe.layer(layer),
            probe: Rc::clone(probe),
            tap: None,
            capture_frames: false,
        }
    }

    /// Runs `tap` on every local message this process receives.
    pub fn with_tap(mut self, tap: TapRef) -> Traced {
        self.tap = Some(tap);
        self
    }

    /// Captures the datagrams this process receives (a runtime's wire
    /// frames) for the off-line codec timers.
    pub fn capturing_frames(mut self) -> Traced {
        self.capture_frames = true;
        self
    }

    fn call(&mut self, ctx: &mut Ctx<'_>, f: impl FnOnce(&mut dyn Process, &mut Ctx<'_>)) {
        self.probe.vnow.set(ctx.now());
        if !self.probe.tracing {
            f(&mut *self.inner, ctx);
            return;
        }
        let proc = ctx.me().index() as u32;
        let start = self.probe.now_ns();
        f(&mut *self.inner, ctx);
        let end = self.probe.now_ns();
        self.probe.record(self.layer, proc, start, end);
    }
}

impl Process for Traced {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.call(ctx, |p, ctx| p.on_start(ctx));
    }
    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: Datagram) {
        if self.capture_frames && self.probe.tracing {
            self.probe.frames_seen.set(self.probe.frames_seen.get() + 1);
            let mut frames = self.probe.frames.borrow_mut();
            if frames.len() < FRAME_CAP {
                frames.push(dgram.data.clone());
            }
        }
        self.call(ctx, |p, ctx| p.on_datagram(ctx, dgram));
    }
    fn on_stream(&mut self, ctx: &mut Ctx<'_>, stream: StreamId, event: StreamEvent) {
        self.call(ctx, |p, ctx| p.on_stream(ctx, stream, event));
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        self.call(ctx, |p, ctx| p.on_timer(ctx, token));
    }
    fn on_local(&mut self, ctx: &mut Ctx<'_>, from: ProcId, msg: LocalMessage) {
        if let Some(tap) = &self.tap {
            tap.borrow_mut().local(ctx.now(), ctx.me(), from, &msg);
        }
        self.call(ctx, |p, ctx| p.on_local(ctx, from, msg));
    }
    fn on_stop(&mut self, ctx: &mut Ctx<'_>) {
        self.call(ctx, |p, ctx| p.on_stop(ctx));
    }
}

/// Counts operations against the measured window.
///
/// An op is attempted when it is offered inside `(start, end]` and
/// completed when its effect is observed, at any time before the rep's
/// drain ends. Its virtual latency runs from the offer to the effect.
/// Goodput counts the payload of effects observed inside the window,
/// whenever they were offered.
#[derive(Debug)]
pub struct Ledger {
    start: u64,
    end: u64,
    /// Ops offered inside the window.
    pub attempted: u64,
    /// Offered ops whose effect was observed.
    pub completed: u64,
    /// Offered ops whose effect was observed inside the window: the work
    /// the window's host time paid for.
    pub completed_in_window: u64,
    /// Virtual latency (ns) of each completed op.
    pub lat_ns: Vec<u64>,
    /// Useful payload bytes delivered inside the window.
    pub bytes: u64,
    /// Attempted and completed ops per kind.
    pub kinds: BTreeMap<&'static str, [u64; 2]>,
    /// Correctness violations seen while running.
    pub errors: Vec<String>,
}

impl Default for Ledger {
    fn default() -> Ledger {
        Ledger {
            start: u64::MAX,
            end: u64::MAX,
            attempted: 0,
            completed: 0,
            completed_in_window: 0,
            lat_ns: Vec::new(),
            bytes: 0,
            kinds: BTreeMap::new(),
            errors: Vec::new(),
        }
    }
}

impl Ledger {
    /// Opens the window at `t`.
    pub fn open(&mut self, t: SimTime) {
        self.start = t.as_nanos();
    }

    /// Closes the window at `t`: later offers are not counted.
    pub fn close(&mut self, t: SimTime) {
        self.end = t.as_nanos();
    }

    /// Whether an event at `t` belongs to the window. `World::run_until`
    /// processes the events at its deadline, so those at `start` ran
    /// before the window opened and those at `end` inside it.
    pub fn counts(&self, t: SimTime) -> bool {
        let t = t.as_nanos();
        t > self.start && t <= self.end
    }

    /// Records `n` ops of `kind` offered at `t`.
    pub fn offer(&mut self, kind: &'static str, t: SimTime, n: u64) {
        if self.counts(t) {
            self.attempted += n;
            self.kinds.entry(kind).or_default()[0] += n;
        }
    }

    /// Records the completion at `done` of a `kind` op offered at
    /// `offered`, carrying `bytes` of payload.
    pub fn complete(&mut self, kind: &'static str, offered: SimTime, done: SimTime, bytes: usize) {
        if self.counts(offered) {
            self.lat_ns.push(done.as_nanos() - offered.as_nanos());
        }
        self.complete_untimed(kind, offered, done, bytes);
    }

    /// Records a completion without a latency sample: the op's offer
    /// was only seen at the uMiddle boundary (device-originated traffic).
    pub fn complete_untimed(
        &mut self,
        kind: &'static str,
        offered: SimTime,
        done: SimTime,
        bytes: usize,
    ) {
        let in_window = self.counts(done);
        if self.counts(offered) {
            self.completed += 1;
            self.completed_in_window += u64::from(in_window);
            self.kinds.entry(kind).or_default()[1] += 1;
        }
        if in_window {
            self.bytes += bytes as u64;
        }
    }

    /// Records a correctness violation (kept to the first few).
    pub fn error(&mut self, what: String) {
        if self.errors.len() < 16 {
            self.errors.push(what);
        }
    }

    /// Ops offered in the window that have not completed.
    pub fn outstanding(&self) -> u64 {
        self.attempted - self.completed
    }
}

/// A shared ledger.
pub type LedgerRef = Rc<RefCell<Ledger>>;
