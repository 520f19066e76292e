//! `mb_overload`: the Fig. 11 MediaBroker path — a broker channel
//! bridged by `MediaBrokerMapper` into a uMiddle sink across the 10 Mbps
//! hub — driven open loop above its knee by the benchmark's paced
//! producer.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use platform_mediabroker::{MbAccumulator, MbFrame};
use simnet::{
    Addr, Ctx, Payload, Process, SegmentConfig, SegmentId, SimDuration, SimRng, SimTime,
    StreamEvent, StreamId, World,
};
use umiddle_bridges::{MediaBrokerMapper, NativeBehavior, NativeEnv};
use umiddle_core::{Direction, Query, RuntimeStats, TranslatorProfile, UMessage, WireMessage};
use umiddle_usdl::UsdlLibrary;

use crate::common::{
    add, native, runtime_cfg, runtime_node, shape, FanRule, FanWirer, PathLedger, WireLog,
};
use crate::probe::{LedgerRef, Probe, TapRef};
use crate::scenario::{Scenario, Spec, Workload};

/// Payload bytes per offered frame.
const FRAME: usize = 1400;
/// Mean offer interval: 1400 B every 1.5 ms is 7.47 Mbps, above the
/// path's ~6.2 Mbps knee.
const INTERVAL_US: u64 = 1500;
/// Seeded jitter added to each frame's due time.
const JITTER_US: u64 = 300;

/// What a [`Producer`] does on each tick of its grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Production {
    /// Keep ticking without producing.
    Idle,
    /// Produce and offer a frame.
    On,
    /// Stop.
    Off,
}

/// A paced MediaBroker producer. Tick `k` is due at
/// `ack + phase + k * interval` plus a seeded jitter; while the shared
/// state is [`Production::On`], each tick offers one frame carrying its sequence
/// number and due time in its first 16 bytes. A frame the stream cannot
/// take yet waits in the producer's queue (refilled on `Writable`), so
/// every offered frame is eventually sent and its latency counts the
/// wait from its due time.
pub struct Producer {
    broker: Addr,
    channel: String,
    size: usize,
    interval: SimDuration,
    phase: SimDuration,
    jitter: SimRng,
    stream: Option<StreamId>,
    acc: MbAccumulator,
    queue: VecDeque<Payload>,
    seq: u64,
    tick: u64,
    first_due: Option<SimTime>,
    ledger: LedgerRef,
    state: Rc<Cell<Production>>,
}

impl Producer {
    /// A producer on `channel` offering its frames to `ledger`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        broker: Addr,
        channel: &str,
        size: usize,
        interval: SimDuration,
        phase: SimDuration,
        jitter: SimRng,
        ledger: LedgerRef,
        state: Rc<Cell<Production>>,
    ) -> Producer {
        Producer {
            broker,
            channel: channel.to_owned(),
            size,
            interval,
            phase,
            jitter,
            stream: None,
            acc: MbAccumulator::new(),
            queue: VecDeque::new(),
            seq: 0,
            tick: 0,
            first_due: None,
            ledger,
            state,
        }
    }

    fn arm(&mut self, ctx: &mut Ctx<'_>) {
        let first = self.first_due.expect("armed after the broker's ack");
        let jitter = self.jitter.gen_range(0..JITTER_US * 1000);
        let due = first + SimDuration::from_nanos(self.interval.as_nanos() * self.tick + jitter);
        let now = ctx.now();
        ctx.set_timer(due.max(now) - now, 0);
        self.tick += 1;
    }

    fn flush(&mut self, ctx: &mut Ctx<'_>) {
        let Some(stream) = self.stream else { return };
        while let Some(frame) = self.queue.front() {
            if ctx.stream_send(stream, frame.clone()).is_err() {
                break;
            }
            self.queue.pop_front();
        }
    }
}

impl Process for Producer {
    fn name(&self) -> &str {
        "bench-mb-producer"
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.stream = ctx.connect(self.broker).ok();
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        match self.state.get() {
            Production::Off => return,
            Production::On => {
                let now = ctx.now();
                self.ledger.borrow_mut().offer("media", now, 1);
                let mut body = vec![0xAB; self.size];
                body[..8].copy_from_slice(&self.seq.to_be_bytes());
                body[8..16].copy_from_slice(&now.as_nanos().to_be_bytes());
                let frame = MbFrame::Data {
                    payload: body.into(),
                };
                self.queue.push_back(frame.encode_framed());
                self.flush(ctx);
                self.seq += 1;
            }
            Production::Idle => {}
        }
        self.arm(ctx);
    }
    fn on_stream(&mut self, ctx: &mut Ctx<'_>, stream: StreamId, event: StreamEvent) {
        if Some(stream) != self.stream {
            return;
        }
        match event {
            StreamEvent::Connected => {
                let produce = MbFrame::Produce {
                    channel: self.channel.clone(),
                    media_type: "application/octet-stream".to_owned(),
                };
                let _ = ctx.stream_send(stream, produce.encode_framed());
            }
            StreamEvent::Data(data) => {
                self.acc.push_payload(data);
                while let Ok(Some(f)) = self.acc.next() {
                    if f == MbFrame::Ack && self.first_due.is_none() {
                        self.first_due = Some(ctx.now() + self.phase);
                        self.arm(ctx);
                    }
                }
            }
            StreamEvent::Writable => self.flush(ctx),
            _ => {}
        }
    }
}

/// What the meter saw.
#[derive(Debug, Default)]
pub struct MeterLog {
    /// Frames received.
    pub frames: u64,
    /// Body bytes received.
    pub bytes: u64,
    /// Next expected sequence number.
    pub next_seq: u64,
}

/// The uMiddle sink at the end of the MB path: checks order and
/// completes each frame's op.
struct Meter {
    ledger: LedgerRef,
    log: Rc<RefCell<MeterLog>>,
}

impl NativeBehavior for Meter {
    fn on_input(&mut self, env: &mut NativeEnv<'_, '_>, _port: &str, msg: UMessage) {
        let body = msg.body();
        let mut log = self.log.borrow_mut();
        if body.len() != FRAME {
            self.ledger
                .borrow_mut()
                .error(format!("frame of {} bytes, sent {FRAME}", body.len()));
            return;
        }
        let seq = u64::from_be_bytes(body[..8].try_into().expect("8 bytes"));
        let due = u64::from_be_bytes(body[8..16].try_into().expect("8 bytes"));
        if seq != log.next_seq {
            self.ledger.borrow_mut().error(format!(
                "frame {seq} arrived, expected {} (order or duplicate)",
                log.next_seq
            ));
        }
        log.next_seq = seq + 1;
        log.frames += 1;
        log.bytes += body.len() as u64;
        self.ledger
            .borrow_mut()
            .complete("media", SimTime::from_nanos(due), env.now(), body.len());
    }
}

/// The MB overload workload.
pub struct MbOverload;

struct Mb {
    world: World,
    ledger: LedgerRef,
    state: Rc<Cell<Production>>,
    paths: Rc<RefCell<PathLedger>>,
    wired: Rc<RefCell<WireLog>>,
    meter: Rc<RefCell<MeterLog>>,
    hub: SegmentId,
    stats: Rc<RefCell<RuntimeStats>>,
}

fn plan(seed: u64) -> (u64, u64, SimRng) {
    let mut rng = SimRng::seed_from_u64(seed ^ 0x3B00_0000);
    (
        rng.next_u64(),
        rng.gen_range(0..INTERVAL_US * 1000),
        rng.split(1),
    )
}

impl Workload for MbOverload {
    fn spec(&self) -> Spec {
        Spec {
            setup_step: SimDuration::from_millis(100),
            setup_limit: SimTime::from_secs(30),
            window: SimDuration::from_secs(20),
            slice: SimDuration::from_millis(10),
            drain_limit: SimDuration::from_secs(30),
            event_budget_per_vsec: 2_000_000,
        }
    }

    fn inputs_digest(&self, seed: u64) -> u64 {
        let (world_seed, phase, mut rng) = plan(seed);
        world_seed ^ phase.rotate_left(17) ^ rng.next_u64().rotate_left(33)
    }

    fn build(&self, seed: u64, probe: &Rc<Probe>) -> Box<dyn Scenario> {
        let (world_seed, phase, jitter) = plan(seed);
        let mut world = World::new(world_seed);
        world.trace_mut().set_log_enabled(false);
        let w = &mut world;
        let hub = w.add_segment(SegmentConfig::ethernet_10mbps_hub());
        let ledger = LedgerRef::default();
        // Ops are counted by the producer and meter; the path ledger
        // only registers the wiring and samples the wire mix.
        let paths = Rc::new(RefCell::new(PathLedger::new(LedgerRef::default())));
        let tap: TapRef = paths.clone();
        let state = Rc::new(Cell::new(Production::Idle));

        let n1 = w.add_node("n1");
        w.attach(n1, hub).expect("attach");
        let broker = platform_mediabroker::MediaBroker::new();
        add(w, probe, n1, "platform.mediabroker", Box::new(broker), &tap);
        let broker = Addr::new(n1, platform_mediabroker::BROKER_PORT);
        let producer = Producer::new(
            broker,
            "bench",
            FRAME,
            SimDuration::from_micros(INTERVAL_US),
            SimDuration::from_nanos(phase),
            jitter,
            Rc::clone(&ledger),
            Rc::clone(&state),
        );
        add(w, probe, n1, "app", Box::new(producer), &tap);

        let (h2, rt, stats) = runtime_node(w, probe, "n2", runtime_cfg(0), &[hub], &tap);
        paths.borrow_mut().runtimes.insert(rt);
        let mapper = MediaBrokerMapper::new(rt, UsdlLibrary::bundled(), broker, vec![]);
        add(w, probe, h2, "bridges.mediabroker", Box::new(mapper), &tap);
        let meter_log = Rc::new(RefCell::new(MeterLog::default()));
        let meter = Meter {
            ledger: Rc::clone(&ledger),
            log: Rc::clone(&meter_log),
        };
        let shape = shape("in", Direction::Input, "application/octet-stream");
        let svc = native("MB Meter", shape, rt, Box::new(meter));
        add(w, probe, h2, "app", svc, &tap);
        let rule = FanRule::new("MB channel bench", "media-out", "MB Meter", "in");
        let wirer = FanWirer::new(rt, vec![rule], Rc::clone(&paths));
        let wired = Rc::clone(&wirer.log);
        add(w, probe, h2, "app", Box::new(wirer), &tap);
        Box::new(Mb {
            world,
            ledger,
            state,
            paths,
            wired,
            meter: meter_log,
            hub,
            stats,
        })
    }
}

impl Scenario for Mb {
    fn world(&mut self) -> &mut World {
        &mut self.world
    }
    fn ledger(&self) -> LedgerRef {
        Rc::clone(&self.ledger)
    }
    fn ready(&self) -> bool {
        self.wired.borrow().connected >= 1
    }
    fn open_window(&mut self) {
        self.state.set(Production::On);
    }
    fn close_window(&mut self) {
        self.state.set(Production::Off);
    }
    fn check(&mut self) -> Vec<String> {
        let mut errs = Vec::new();
        let wired = self.wired.borrow();
        if wired.connected != 1 || !wired.failed.is_empty() {
            errs.push(format!(
                "MB path wiring: {} connected, failures {:?}",
                wired.connected, wired.failed
            ));
        }
        let meter = self.meter.borrow();
        let ledger = self.ledger.borrow();
        let sent = ledger.attempted * FRAME as u64;
        if meter.frames != ledger.attempted || meter.bytes != sent || ledger.outstanding() != 0 {
            errs.push(format!(
                "{} frames ({sent} B) offered, {} ({} B) arrived, {} completed",
                ledger.attempted, meter.frames, meter.bytes, ledger.completed
            ));
        }
        errs
    }
    fn segments(&self) -> Vec<SegmentId> {
        vec![self.hub]
    }
    fn runtime_scopes(&self) -> Vec<String> {
        vec!["rt0".to_owned()]
    }
    fn runtime_stats(&self) -> Vec<Rc<RefCell<RuntimeStats>>> {
        vec![Rc::clone(&self.stats)]
    }
    fn directory(&self) -> Vec<TranslatorProfile> {
        self.wired.borrow().appeared.clone()
    }
    fn queries(&self) -> Vec<Query> {
        let kind = umiddle_core::PortKind::Digital(
            "application/octet-stream".parse().expect("static mime"),
        );
        vec![
            Query::has_port(Direction::Input, kind.clone()),
            Query::has_port(Direction::Output, kind),
            Query::All,
        ]
    }
    fn wire_mix(&self) -> Vec<WireMessage> {
        self.paths.borrow().envelopes()
    }
}
