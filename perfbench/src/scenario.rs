//! The interface every workload implements, and the per-rep driver loop
//! that builds a world, sets it up, measures its window and drains it.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use simnet::{SegmentId, SimDuration, SimTime, World};
use umiddle_core::{Query, RuntimeStats, TranslatorProfile, WireMessage};

use crate::calib::{Calibrator, Pace};
use crate::probe::{LedgerRef, Probe, OUTSIDE_WINDOW};

/// Fixed virtual-time shape of a workload's rep.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Virtual step between readiness checks during set-up.
    pub setup_step: SimDuration,
    /// Set-up must be ready by this virtual time.
    pub setup_limit: SimTime,
    /// Length of the measured window.
    pub window: SimDuration,
    /// Length of one timed `run_until` slice inside the window.
    pub slice: SimDuration,
    /// Longest virtual drain after the window.
    pub drain_limit: SimDuration,
    /// Storm guard: kernel events allowed per virtual second of window
    /// and drain. A rep that exceeds it stops and reports.
    pub event_budget_per_vsec: u64,
}

/// One built world of a workload.
pub trait Scenario {
    /// The world.
    fn world(&mut self) -> &mut World;
    /// The op ledger.
    fn ledger(&self) -> LedgerRef;
    /// Whether set-up (discovery, mapping, wiring) is complete.
    fn ready(&self) -> bool;
    /// Called when the window opens (start offering load).
    fn open_window(&mut self) {}
    /// Called when the window closes (stop offering load).
    fn close_window(&mut self) {}
    /// Whether everything offered in the window has settled.
    fn drained(&self) -> bool {
        self.ledger().borrow().outstanding() == 0
    }
    /// Correctness checks once the rep has drained; may run the world
    /// further. Returns the violations.
    fn check(&mut self) -> Vec<String>;
    /// Segments whose utilization and losses are reported.
    fn segments(&self) -> Vec<SegmentId>;
    /// Runtime metric scopes (`rt{N}`).
    fn runtime_scopes(&self) -> Vec<String>;
    /// The runtimes' live stats.
    fn runtime_stats(&self) -> Vec<Rc<RefCell<RuntimeStats>>>;
    /// The end-state directory, for the off-line lookup timer.
    fn directory(&self) -> Vec<TranslatorProfile>;
    /// Lookup queries for the off-line lookup timer.
    fn queries(&self) -> Vec<Query>;
    /// Wire frames this rep carried or would carry between runtimes,
    /// besides the datagrams the probe captured.
    fn wire_mix(&self) -> Vec<WireMessage>;
    /// Virtual convergence times (ns) of directory writes, if any.
    fn converge_ns(&self) -> Vec<u64> {
        Vec::new()
    }
}

/// A workload: how to build one rep from a seed.
pub trait Workload {
    /// The rep's fixed virtual-time shape.
    fn spec(&self) -> Spec;
    /// Builds a world from `seed`, every added process wrapped by `probe`.
    fn build(&self, seed: u64, probe: &Rc<Probe>) -> Box<dyn Scenario>;
    /// A digest of the inputs generated from `seed`.
    fn inputs_digest(&self, seed: u64) -> u64;
}

/// Counter and segment readings at one instant.
#[derive(Debug, Clone, Default)]
pub struct Reading {
    /// Kernel events processed.
    pub events: u64,
    /// Every trace counter.
    pub counters: Vec<(String, u64)>,
    /// Busy time of each reported segment (virtual ns).
    pub seg_busy_ns: Vec<u64>,
    /// Frames each reported segment dropped.
    pub seg_dropped: Vec<u64>,
    /// Telemetry samples taken so far.
    pub samples: u64,
    /// Id of the newest trace span.
    pub last_span: u64,
    /// Largest runtime queue-wait p99 bucket bound (virtual ns).
    pub queue_wait_p99_ns: u64,
}

impl Reading {
    fn take(sc: &mut dyn Scenario) -> Reading {
        let segs = sc.segments();
        let scopes = sc.runtime_scopes();
        let world = sc.world();
        let mut r = Reading {
            events: world.events_processed(),
            counters: world
                .trace()
                .counters()
                .map(|(k, v)| (k.to_owned(), v))
                .collect(),
            samples: world.telemetry().map_or(0, |t| t.samples()),
            last_span: world.trace().spans().last().map_or(0, |s| s.id.0),
            ..Reading::default()
        };
        for scope in scopes {
            if let Some(h) = world
                .trace()
                .metrics()
                .histogram(&format!("{scope}.queue_wait"))
            {
                r.queue_wait_p99_ns = r
                    .queue_wait_p99_ns
                    .max(h.quantile_bound_ns(0.99).unwrap_or(0));
            }
        }
        for s in segs {
            let st = world.segment_stats(s).expect("segment exists");
            r.seg_busy_ns.push(st.busy.as_nanos());
            r.seg_dropped.push(st.dropped);
        }
        r
    }

    /// Counter value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0, |(_, v)| *v)
    }
}

/// The workload's own inputs to the off-line layer timers.
pub struct LayerInputs {
    /// The end-state directory.
    pub directory: Vec<TranslatorProfile>,
    /// The lookup query mix.
    pub queries: Vec<Query>,
    /// Wire frames beyond the captured datagrams.
    pub wire_mix: Vec<WireMessage>,
    /// Virtual convergence times (ns) of directory writes.
    pub converge_ns: Vec<u64>,
}

/// Everything one rep measured.
pub struct RepResult {
    /// Host seconds from building the world to the window's start,
    /// calibration chunks left out.
    pub setup_s: f64,
    /// Host speed during set-up.
    pub setup_pace: Pace,
    /// Host speed during the window.
    pub window_pace: Pace,
    /// Host seconds the window's slices took.
    pub window_s: f64,
    /// Host seconds of each slice.
    pub slice_s: Vec<f64>,
    /// Largest scheduler backlog seen at a slice boundary.
    pub pending_max: u64,
    /// Ops offered in the window.
    pub attempted: u64,
    /// Offered ops completed by the end of the drain.
    pub completed: u64,
    /// Offered ops completed before the window closed.
    pub completed_in_window: u64,
    /// Sorted virtual latencies (ns) of completed ops.
    pub lat_ns: Vec<u64>,
    /// Attempted and completed ops per kind.
    pub kinds: BTreeMap<&'static str, [u64; 2]>,
    /// Useful bytes delivered inside the window.
    pub bytes: u64,
    /// Virtual length of the window (ns).
    pub window_ns: u64,
    /// Kernel events when the window opened, closed, and drain ended.
    pub events: [u64; 3],
    /// Whether the storm guard stopped the rep.
    pub storm: bool,
    /// Correctness violations.
    pub errors: Vec<String>,
    /// Readings at window open and close.
    pub before: Reading,
    pub after: Reading,
    /// What the off-line layer timers need from a traced rep.
    pub inputs: Option<LayerInputs>,
    /// Host-nanosecond bounds of each slice, for kernel self time.
    pub slice_bounds: Vec<(u64, u64)>,
    /// The rep's probe (spans, handler totals, captured frames).
    pub probe: Rc<Probe>,
    /// Host seconds to produce the observability reports at window end.
    pub report_s: f64,
    /// Wire datagrams the runtimes received inside the window (traced
    /// reps only).
    pub frames_in_window: u64,
    /// Largest bytes any runtime held in path buffers.
    pub max_buffered: u64,
}

impl RepResult {
    /// The deterministic part of the rep: identical for a fixed seed
    /// whatever the host, traced or not.
    pub fn v_digest(&self) -> String {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &l in &self.lat_ns {
            h = (h ^ l).wrapping_mul(0x0100_0000_01b3);
        }
        format!(
            "events={:?} attempted={} completed={} bytes={} lat_digest={h:016x} storm={}",
            self.events, self.attempted, self.completed, self.bytes, self.storm
        )
    }
}

/// Virtual seconds of budget the storm guard grants on top of the rate.
const STORM_GRACE_S: u64 = 5;

/// Runs one rep of `workload` from `seed`, calibrating with `calib`
/// between set-up steps and between window slices, outside the timed
/// pieces.
pub fn run_rep(
    workload: &dyn Workload,
    seed: u64,
    tracing: bool,
    calib: &mut Calibrator,
) -> RepResult {
    let spec = workload.spec();
    let probe = Probe::new(tracing);
    let t_build = Instant::now();
    let mut sc = workload.build(seed, &probe);
    // Events allowed by a virtual instant `span` into a phase: the rate
    // times the span, plus a grace for bursts such as the boot storm of
    // a thousand devices starting at once.
    let budget = |span: SimDuration| {
        let span = span + SimDuration::from_secs(STORM_GRACE_S);
        (spec.event_budget_per_vsec as u128 * span.as_nanos() as u128 / 1_000_000_000) as u64
    };
    let mut errors = Vec::new();
    // The phase in which the storm guard stopped the rep, if it did.
    let mut storm = None;
    let mut setup_pace = Pace::default();
    while !sc.ready() && storm.is_none() {
        let now = sc.world().now();
        if now >= spec.setup_limit {
            errors.push(format!("set-up not ready by {now}"));
            break;
        }
        let to = now + spec.setup_step;
        let t = Instant::now();
        sc.world().run_until(to);
        setup_pace.after(t.elapsed().as_secs_f64(), calib);
        if sc.world().events_processed() > budget(to - SimTime::ZERO) {
            storm = Some("set-up");
        }
    }
    setup_pace.finish(calib);
    let setup_s = t_build.elapsed().as_secs_f64() - setup_pace.spent_s;

    let start = sc.world().now();
    let before = Reading::take(&mut *sc);
    let frames_before = probe.frames_seen.get();
    let ledger = sc.ledger();
    ledger.borrow_mut().open(start);
    sc.open_window();
    let slices = if storm.is_some() {
        0
    } else {
        spec.window.as_nanos() / spec.slice.as_nanos()
    };
    let mut slice_s = Vec::with_capacity(slices as usize);
    let mut slice_bounds = Vec::with_capacity(slices as usize);
    let mut pending_max = 0;
    let mut window_pace = Pace::default();
    for k in 0..slices {
        probe.enter_slice(k as u32);
        let to = start + SimDuration::from_nanos(spec.slice.as_nanos() * (k + 1));
        let h0 = probe.now_ns();
        let t = Instant::now();
        sc.world().run_until(to);
        let took = t.elapsed().as_secs_f64();
        slice_s.push(took);
        slice_bounds.push((h0, probe.now_ns()));
        pending_max = pending_max.max(sc.world().events_pending());
        window_pace.after(took, calib);
        if sc.world().events_processed() - before.events > budget(to - start) {
            storm = Some("the window");
            break;
        }
    }
    window_pace.finish(calib);
    let window_s = slice_s.iter().sum();
    let end = sc.world().now();
    ledger.borrow_mut().close(end);
    sc.close_window();
    let after = Reading::take(&mut *sc);
    let frames_in_window = probe.frames_seen.get() - frames_before;
    let t_report = Instant::now();
    let world = sc.world();
    std::hint::black_box(world.trace().metrics().snapshot());
    std::hint::black_box(world.doctor());
    std::hint::black_box(world.attribution_report());
    let report_s = t_report.elapsed().as_secs_f64();

    // Drain: let what the window offered complete, under the same guard.
    probe.enter_slice(OUTSIDE_WINDOW);
    let step = spec.slice.max(SimDuration::from_millis(100));
    while storm.is_none() && !sc.drained() {
        let now = sc.world().now();
        if now - end >= spec.drain_limit {
            break;
        }
        sc.world().run_until(now + step);
        if sc.world().events_processed() - before.events > budget(sc.world().now() - start) {
            storm = Some("the drain");
        }
    }
    let drained_events = sc.world().events_processed();
    let max_buffered = sc
        .runtime_stats()
        .iter()
        .map(|s| s.borrow().max_buffered_bytes as u64)
        .max()
        .unwrap_or(0);
    // A stormed rep reports its unfinished ops as failed instead of
    // hanging, and fails the run; the end-state checks would only
    // restate that.
    match storm {
        Some(phase) => errors.push(format!(
            "storm guard stopped the rep in {phase} at {} kernel events, virtual time {}",
            drained_events,
            sc.world().now()
        )),
        None => errors.extend(sc.check()),
    }
    let inputs = tracing.then(|| LayerInputs {
        directory: sc.directory(),
        queries: sc.queries(),
        wire_mix: sc.wire_mix(),
        converge_ns: sc.converge_ns(),
    });
    drop(sc);
    let l = ledger.borrow();
    errors.extend(l.errors.iter().cloned());
    let mut lat_ns = l.lat_ns.clone();
    lat_ns.sort_unstable();
    let (attempted, completed, completed_in_window, bytes) =
        (l.attempted, l.completed, l.completed_in_window, l.bytes);
    let kinds = l.kinds.clone();
    drop(l);
    RepResult {
        setup_s,
        setup_pace,
        window_pace,
        window_s,
        slice_s,
        pending_max,
        attempted,
        completed,
        completed_in_window,
        lat_ns,
        kinds,
        bytes,
        window_ns: (end - start).as_nanos(),
        events: [before.events, after.events, drained_events],
        storm: storm.is_some(),
        errors,
        before,
        after,
        inputs,
        slice_bounds,
        probe,
        report_s,
        frames_in_window,
        max_buffered,
    }
}
