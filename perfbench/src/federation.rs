//! `federation`: the six-bridge federation — about 1000 devices split
//! over UPnP, Bluetooth, motes, RMI, MediaBroker and web services, all
//! bridged into one runtime and wired by fan-out rules. Traffic is open
//! loop on fixed per-device timers. Telemetry, the flight recorder and
//! attribution are all on.
//!
//! Ops, and where each one's latency starts and ends:
//! - a UPnP `SetPower` (toggle driver emission to the light executing
//!   it) and a web-service `append` (log driver emission to the logger
//!   executing it);
//! - an RMI echo round trip (call driver emission, through the RMI
//!   bridge both ways, to the echo sink);
//! - a MediaBroker frame (its due time at the producer to the media
//!   sink);
//! - a mouse click, a mote reading or a log tail delivered to its sink.
//!   These originate inside product devices, so they are offered when
//!   the runtime accepts the bridged message; they count as ops but
//!   carry no latency sample.
//!
//! Toggles and appends are spread over eight driver groups so that the
//! UPnP and web-service mappers, which serialize their native calls,
//! run below saturation.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use platform_bluetooth::{HidpMouse, MouseConfig};
use platform_motes::{BaseStation, Mote};
use platform_rmi::{JavaValue, RmiObjectServer, RmiRegistry, REGISTRY_PORT};
use platform_upnp::{DeviceDesc, DeviceLogic, LightLogic, StateTable, UpnpDevice};
use platform_webservices::WsServer;
use simnet::{
    Addr, IncidentConfig, Objective, ProcId, SamplerConfig, SegmentConfig, SegmentId, SimDuration,
    SimRng, SimTime, SloKind, TelemetryConfig, World,
};
use umiddle_bridges::{
    BluetoothMapper, MediaBrokerMapper, MotesMapper, NativeBehavior, NativeEnv, RmiMapper,
    UpnpMapper, WsMapper,
};
use umiddle_core::{
    Direction, PortKind, Query, RuntimeStats, TranslatorProfile, UMessage, WireMessage,
};
use umiddle_usdl::UsdlLibrary;

use crate::common::{
    add, native, runtime_cfg, runtime_node, shape, Driver, Emissions, FanRule, FanWirer,
    PathLedger, Sink, WireLog,
};
use crate::mb::{Producer, Production};
use crate::probe::{LedgerRef, Probe, TapRef};
use crate::scenario::{Scenario, Spec, Workload};

/// Native devices in the federation.
const DEVICES: usize = 1000;
/// Driver groups splitting the lights and the loggers.
const GROUPS: usize = 8;
/// Each toggle or log driver fires once per this period; the groups'
/// phases are spread evenly over it.
const GROUP_PERIOD_S: u64 = 40;

/// The federation workload.
pub struct Federation;

/// The six populations' sizes.
fn group(k: usize) -> usize {
    DEVICES / 6 + usize::from(k < DEVICES % 6)
}

/// Members of driver group `g` among `n` devices (round robin).
fn members(n: usize, g: usize) -> u64 {
    (0..n).filter(|i| i % GROUPS == g).count() as u64
}

/// Seeded inputs: the world seed, and start phases of the benchmark's
/// own drivers and media producers (devices run on the product's
/// timers). Phases sit on an even grid plus a small seeded jitter, so
/// every seed offers the same smooth load while the instants differ.
struct Plan {
    world_seed: u64,
    toggle_ms: Vec<u64>,
    log_ms: Vec<u64>,
    call_ms: u64,
    producer_us: Vec<u64>,
    frame_bytes: Vec<u64>,
    jitter: SimRng,
}

impl Plan {
    fn new(seed: u64) -> Plan {
        let mut rng = SimRng::seed_from_u64(seed ^ 0xFED0_0000);
        let slot = GROUP_PERIOD_S * 1000 / GROUPS as u64;
        let producers = group(4) as u64;
        Plan {
            world_seed: rng.next_u64(),
            toggle_ms: (0..GROUPS as u64)
                .map(|g| g * slot + rng.gen_range(0..100))
                .collect(),
            log_ms: (0..GROUPS as u64)
                .map(|g| g * slot + slot / 2 + rng.gen_range(0..100))
                .collect(),
            call_ms: rng.gen_range(0..100),
            producer_us: (0..producers)
                .map(|i| i * 1_000_000 / producers + rng.gen_range(0..1000))
                .collect(),
            frame_bytes: (0..producers).map(|_| rng.gen_range(192..=320)).collect(),
            jitter: rng.split(7),
        }
    }

    fn digest(&self) -> u64 {
        let mut h = self.world_seed;
        let all = self.toggle_ms.iter().chain(&self.log_ms);
        let all = all.chain(&self.producer_us).chain(&self.frame_bytes);
        for v in all.chain([&self.call_ms]) {
            h = (h ^ v).wrapping_mul(0x0100_0000_01b3);
        }
        h
    }
}

fn rmi_names() -> Vec<String> {
    (0..group(3)).map(|i| format!("EchoSvc {i:04}")).collect()
}

fn rmi_doc(name: &str) -> String {
    umiddle_usdl::builtin::RMI_ECHO.replace("EchoService", name)
}

/// The templated USDL documents the federation registers beyond the
/// bundled set, one per RMI object.
pub fn usdl_docs() -> Vec<String> {
    rmi_names().iter().map(|n| rmi_doc(n)).collect()
}

fn rules() -> Vec<FanRule> {
    let mut rules = vec![
        FanRule::new("HIDP Mouse", "clicks", "Click Sink", "in").counted("click"),
        FanRule::new("Mote ", "temperature", "Temp Sink", "in").counted("reading"),
        FanRule::new("Call Driver", "out", "EchoSvc", "request"),
        FanRule::new("EchoSvc", "response", "Echo Sink", "in"),
        FanRule::new("MB channel fedchan", "media-out", "Media Sink", "in"),
        FanRule::new("Fed Log ", "entries", "Log Sink", "in").counted("tail"),
    ];
    for g in 0..GROUPS {
        rules.push(FanRule::new(
            &format!("Toggle Driver g{g}"),
            "out",
            &format!("Fed Light g{g} "),
            "switch-on",
        ));
        rules.push(FanRule::new(
            &format!("Log Driver g{g}"),
            "out",
            &format!("Fed Log g{g} "),
            "log-in",
        ));
    }
    rules
}

const SINKS: [(&str, &str); 5] = [
    ("Click Sink", "text/plain"),
    ("Temp Sink", "text/plain"),
    ("Echo Sink", "application/octet-stream"),
    ("Media Sink", "application/octet-stream"),
    ("Log Sink", "text/plain"),
];

/// Translators the directory must hold once set-up is done: every
/// device plus the drivers and sinks.
fn expected_translators() -> usize {
    DEVICES + 2 * GROUPS + 1 + SINKS.len()
}

/// Connections the rules make once every translator is present.
fn expected_connections() -> u64 {
    let g = |k| group(k) as u64;
    // mice, motes, calls, echoes, media and tails, then the groups.
    g(1) + g(2) + g(3) + g(3) + g(4) + g(5) + g(0) + g(5)
}

/// A light that completes a toggle op each time it executes `SetPower`.
/// A `SetPower` answers its group driver's latest emission: toggles are
/// a group period apart and complete well within it, and a light wired
/// after some emissions never receives those.
struct TimedLight {
    inner: LightLogic,
    toggles: Emissions,
    done: Option<usize>,
    ledger: LedgerRef,
    probe: Rc<Probe>,
}

impl DeviceLogic for TimedLight {
    fn description(&self) -> DeviceDesc {
        self.inner.description()
    }
    fn invoke(
        &mut self,
        action: &str,
        args: &[(String, String)],
        state: &mut StateTable,
    ) -> Result<Vec<(String, String)>, (u32, String)> {
        if action == "SetPower" {
            let now = self.probe.vnow.get();
            let toggles = self.toggles.borrow();
            let latest = toggles.iter().rposition(|&t| t <= now);
            let mut ledger = self.ledger.borrow_mut();
            match latest {
                Some(k) if self.done.is_none_or(|d| d < k) => {
                    ledger.complete("toggle", toggles[k], now, 1);
                    self.done = Some(k);
                }
                _ => ledger.error(format!("SetPower at {now} answers no new toggle")),
            }
        }
        self.inner.invoke(action, args, state)
    }
}

/// A web-service logger (the bundled `logger` shape: `append`, `tail`)
/// that completes a log op for each appended entry.
fn timed_logger(
    name: &str,
    port: u16,
    logs: Emissions,
    ledger: LedgerRef,
    probe: Rc<Probe>,
) -> WsServer {
    let entries = Rc::new(RefCell::new(Vec::<String>::new()));
    let tail = Rc::clone(&entries);
    WsServer::new(name, "logger", port)
        .with_operation(
            "append",
            Box::new(move |params| {
                let entry = params.first().cloned().unwrap_or_default();
                let seq = entry
                    .strip_prefix("entry ")
                    .and_then(|s| s.parse::<usize>().ok());
                let offered = seq.and_then(|s| logs.borrow().get(s).copied());
                let mut ledger = ledger.borrow_mut();
                match offered {
                    Some(t) => ledger.complete("append", t, probe.vnow.get(), entry.len()),
                    None => ledger.error(format!("append of unsent entry {entry:?}")),
                }
                entries.borrow_mut().push(entry);
                Ok("ok".to_owned())
            }),
        )
        .with_operation(
            "tail",
            Box::new(move |_| {
                let entries = tail.borrow();
                let from = entries.len().saturating_sub(10);
                Ok(entries[from..].join("\n"))
            }),
        )
}

/// The echo sink: completes the call op its body's sequence number
/// names.
struct EchoSink {
    calls: Emissions,
    ledger: LedgerRef,
}

impl NativeBehavior for EchoSink {
    fn on_input(&mut self, env: &mut NativeEnv<'_, '_>, _port: &str, msg: UMessage) {
        let body = msg.body();
        let seq = body
            .get(..8)
            .map(|b| u64::from_be_bytes(b.try_into().expect("8 bytes")));
        let offered = seq.and_then(|s| self.calls.borrow().get(s as usize).copied());
        let mut ledger = self.ledger.borrow_mut();
        match offered {
            Some(t) => ledger.complete("call", t, env.now(), body.len()),
            None => ledger.error(format!("echo of unsent call {seq:?}")),
        }
    }
}

/// The media sink: completes the frame op whose due time the frame
/// carries.
struct MediaSink {
    ledger: LedgerRef,
}

impl NativeBehavior for MediaSink {
    fn on_input(&mut self, env: &mut NativeEnv<'_, '_>, _port: &str, msg: UMessage) {
        let body = msg.body();
        match body.get(8..16) {
            Some(b) => {
                let due = u64::from_be_bytes(b.try_into().expect("8 bytes"));
                let due = SimTime::from_nanos(due);
                self.ledger
                    .borrow_mut()
                    .complete("media", due, env.now(), body.len());
            }
            None => self
                .ledger
                .borrow_mut()
                .error(format!("{}-byte media frame", body.len())),
        }
    }
}

struct Fed {
    world: World,
    ledger: LedgerRef,
    paths: Rc<RefCell<PathLedger>>,
    log: Rc<RefCell<WireLog>>,
    segments: Vec<SegmentId>,
    sinks: Vec<(&'static str, ProcId)>,
    stats: Rc<RefCell<RuntimeStats>>,
}

impl Workload for Federation {
    fn spec(&self) -> Spec {
        Spec {
            setup_step: SimDuration::from_millis(500),
            setup_limit: SimTime::from_secs(120),
            window: SimDuration::from_secs(20),
            slice: SimDuration::from_millis(10),
            drain_limit: SimDuration::from_secs(20),
            event_budget_per_vsec: 2_000_000,
        }
    }

    fn inputs_digest(&self, seed: u64) -> u64 {
        Plan::new(seed).digest()
    }

    fn build(&self, seed: u64, probe: &Rc<Probe>) -> Box<dyn Scenario> {
        let plan = Plan::new(seed);
        let mut world = World::new(plan.world_seed);
        world.trace_mut().set_log_enabled(false);
        world.enable_telemetry(objectives());
        world.enable_flight_recorder(IncidentConfig::default());
        world.enable_attribution();

        let ledger = LedgerRef::default();
        let paths = Rc::new(RefCell::new(PathLedger::new(Rc::clone(&ledger))));
        let tap: TapRef = paths.clone();
        let w = &mut world;
        let mut segments = Vec::new();
        let toggles: Vec<Emissions> = (0..GROUPS).map(|_| Emissions::default()).collect();
        let logs: Vec<Emissions> = (0..GROUPS).map(|_| Emissions::default()).collect();
        let calls = Emissions::default();

        let hub = w.add_segment(SegmentConfig::ethernet_100mbps_switch());
        segments.push(hub);
        let (h1, rt, stats) = runtime_node(w, probe, "h1", runtime_cfg(0), &[hub], &tap);
        paths.borrow_mut().runtimes.insert(rt);

        // UPnP lights in eight toggle groups.
        for i in 0..group(0) {
            let node = w.add_node(format!("light{i}"));
            w.attach(node, hub).expect("attach");
            let g = i % GROUPS;
            let logic = TimedLight {
                inner: LightLogic::new(&format!("Fed Light g{g} {i:04}"), &format!("uuid:fedl{i}")),
                toggles: Rc::clone(&toggles[g]),
                done: None,
                ledger: Rc::clone(&ledger),
                probe: Rc::clone(probe),
            };
            let dev = UpnpDevice::new(Box::new(logic), 5000);
            add(w, probe, node, "platform.upnp", Box::new(dev), &tap);
        }
        let upnp = UpnpMapper::with_defaults(rt, UsdlLibrary::bundled());
        add(w, probe, h1, "bridges.upnp", Box::new(upnp), &tap);

        // Bluetooth mice on piconets of at most seven slaves.
        let mut pico = None;
        for i in 0..group(1) {
            if i % 7 == 0 {
                let p = w.add_segment(SegmentConfig::bluetooth_piconet());
                segments.push(p);
                w.attach(h1, p).expect("attach");
                pico = Some(p);
            }
            let node = w.add_node(format!("mouse{i}"));
            w.attach(node, pico.expect("piconet")).expect("attach");
            let mouse = HidpMouse::new(MouseConfig {
                name: format!("HIDP Mouse {i:04}"),
                click_interval: Some(SimDuration::from_secs(12)),
                motion_interval: None,
                click_limit: 0,
            });
            add(w, probe, node, "platform.bluetooth", Box::new(mouse), &tap);
        }
        let bt = BluetoothMapper::with_defaults(rt, UsdlLibrary::bundled());
        add(w, probe, h1, "bridges.bluetooth", Box::new(bt), &tap);

        // Motes on radio channels of 32, below the 38.4 kbps line rate.
        let mut radio = None;
        for i in 0..group(2) {
            if i % 32 == 0 {
                let r = w.add_segment(SegmentConfig::mote_radio());
                segments.push(r);
                w.attach(h1, r).expect("attach");
                radio = Some(r);
            }
            let node = w.add_node(format!("mote{i}"));
            w.attach(node, radio.expect("radio")).expect("attach");
            let mote = Mote::new(i as u16 + 1, SimDuration::from_secs(2));
            add(w, probe, node, "platform.motes", Box::new(mote), &tap);
        }
        let motes = MotesMapper::new(rt, UsdlLibrary::bundled(), None);
        let motes = add(w, probe, h1, "bridges.motes", Box::new(motes), &tap);
        let base = BaseStation::new(Some(motes));
        add(w, probe, h1, "platform.motes", Box::new(base), &tap);

        // RMI echo objects behind one registry, one templated USDL
        // document per object.
        let reg_node = w.add_node("rmi-registry");
        w.attach(reg_node, hub).expect("attach");
        add(
            w,
            probe,
            reg_node,
            "platform.rmi",
            Box::new(RmiRegistry::new()),
            &tap,
        );
        let registry = Addr::new(reg_node, REGISTRY_PORT);
        let srv_node = w.add_node("rmi-objects");
        w.attach(srv_node, hub).expect("attach");
        let mut rmi_lib = UsdlLibrary::bundled();
        let names = rmi_names();
        for (i, name) in names.iter().enumerate() {
            rmi_lib
                .register_xml(&rmi_doc(name))
                .expect("templated RMI USDL is valid");
            let server = RmiObjectServer::new(
                name,
                3000 + i as u16,
                registry,
                Box::new(|method, args| {
                    if method == "echo" {
                        Ok(args.first().cloned().unwrap_or(JavaValue::Null))
                    } else {
                        Err(format!("java.rmi.ServerException: no method {method}"))
                    }
                }),
            );
            add(w, probe, srv_node, "platform.rmi", Box::new(server), &tap);
        }
        let rmi = RmiMapper::new(rt, rmi_lib, registry, names);
        add(w, probe, h1, "bridges.rmi", Box::new(rmi), &tap);

        // MediaBroker channels fed by the benchmark's paced producers.
        let mb_node = w.add_node("broker");
        w.attach(mb_node, hub).expect("attach");
        let broker = platform_mediabroker::MediaBroker::new();
        add(
            w,
            probe,
            mb_node,
            "platform.mediabroker",
            Box::new(broker),
            &tap,
        );
        let broker = Addr::new(mb_node, platform_mediabroker::BROKER_PORT);
        let always = Rc::new(Cell::new(Production::On));
        for (i, (&phase, &size)) in plan.producer_us.iter().zip(&plan.frame_bytes).enumerate() {
            let producer = Producer::new(
                broker,
                &format!("fedchan{i:04}"),
                size as usize,
                SimDuration::from_secs(1),
                SimDuration::from_micros(phase),
                plan.jitter.split(i as u64),
                Rc::clone(&ledger),
                Rc::clone(&always),
            );
            add(w, probe, mb_node, "app", Box::new(producer), &tap);
        }
        let mb = MediaBrokerMapper::new(rt, UsdlLibrary::bundled(), broker, vec![]);
        add(w, probe, h1, "bridges.mediabroker", Box::new(mb), &tap);

        // Web-service loggers in eight log groups.
        let ws_node = w.add_node("ws");
        w.attach(ws_node, hub).expect("attach");
        let mut endpoints = Vec::new();
        for i in 0..group(5) {
            let port = 8080 + i as u16;
            let g = i % GROUPS;
            let name = format!("Fed Log g{g} {i:04}");
            let logger = timed_logger(
                &name,
                port,
                Rc::clone(&logs[g]),
                Rc::clone(&ledger),
                Rc::clone(probe),
            );
            add(
                w,
                probe,
                ws_node,
                "platform.webservices",
                Box::new(logger),
                &tap,
            );
            endpoints.push(Addr::new(ws_node, port));
        }
        let ws = WsMapper::new(rt, UsdlLibrary::bundled(), endpoints);
        add(w, probe, h1, "bridges.webservices", Box::new(ws), &tap);

        // The benchmark's drivers and sinks on the runtime host.
        let period = SimDuration::from_secs(GROUP_PERIOD_S);
        let mut drivers = Vec::new();
        for g in 0..GROUPS {
            drivers.push((
                format!("Toggle Driver g{g}"),
                "text/plain",
                Driver {
                    kind: "toggle",
                    port: "out",
                    phase: SimDuration::from_millis(plan.toggle_ms[g]),
                    interval: period,
                    make: |_| UMessage::text("1"),
                    ledger: Rc::clone(&ledger),
                    targets: members(group(0), g),
                    emitted: Rc::clone(&toggles[g]),
                },
            ));
            drivers.push((
                format!("Log Driver g{g}"),
                "text/plain",
                Driver {
                    kind: "append",
                    port: "out",
                    phase: SimDuration::from_millis(plan.log_ms[g]),
                    interval: period,
                    make: |i| UMessage::text(format!("entry {i}")),
                    ledger: Rc::clone(&ledger),
                    targets: members(group(5), g),
                    emitted: Rc::clone(&logs[g]),
                },
            ));
        }
        drivers.push((
            "Call Driver".to_owned(),
            "application/octet-stream",
            Driver {
                kind: "call",
                port: "out",
                phase: SimDuration::from_millis(plan.call_ms),
                interval: SimDuration::from_secs(2),
                make: |i| {
                    let mut body = vec![0u8; 128];
                    body[..8].copy_from_slice(&i.to_be_bytes());
                    let mime = "application/octet-stream".parse().expect("static mime");
                    UMessage::new(mime, body)
                },
                ledger: Rc::clone(&ledger),
                targets: group(3) as u64,
                emitted: Rc::clone(&calls),
            },
        ));
        for (name, mime, driver) in drivers {
            let shape = shape("out", Direction::Output, mime);
            let svc = native(&name, shape, rt, Box::new(driver));
            add(w, probe, h1, "app", svc, &tap);
        }
        let mut sinks = Vec::new();
        for (name, mime) in SINKS {
            let behavior: Box<dyn NativeBehavior> = match name {
                "Echo Sink" => Box::new(EchoSink {
                    calls: Rc::clone(&calls),
                    ledger: Rc::clone(&ledger),
                }),
                "Media Sink" => Box::new(MediaSink {
                    ledger: Rc::clone(&ledger),
                }),
                _ => Box::new(Sink),
            };
            let svc = native(name, shape("in", Direction::Input, mime), rt, behavior);
            sinks.push((name, add(w, probe, h1, "app", svc, &tap)));
        }
        let wirer = FanWirer::new(rt, rules(), Rc::clone(&paths));
        let log = Rc::clone(&wirer.log);
        add(w, probe, h1, "app", Box::new(wirer), &tap);

        Box::new(Fed {
            world,
            ledger,
            paths,
            log,
            segments,
            sinks,
            stats,
        })
    }
}

/// The always-on observability configuration: a 500 ms sampler with a
/// path-latency objective and UPnP bridge liveness.
fn objectives() -> TelemetryConfig {
    let rule = |long, factor_milli| simnet::BurnRateRule {
        long_intervals: long,
        short_intervals: 2,
        factor_milli,
    };
    TelemetryConfig {
        sampler: SamplerConfig {
            interval: SimDuration::from_millis(500),
            window: 64,
        },
        objectives: vec![
            Objective {
                name: "upnp-availability".to_owned(),
                subject: "bridge:upnp".to_owned(),
                kind: SloKind::Liveness {
                    counter: "bridge.upnp.traffic".to_owned(),
                    budget_ppm: 100_000,
                },
                warning: rule(6, 2_500),
                firing: rule(6, 5_000),
            },
            Objective {
                name: "path-latency".to_owned(),
                subject: "seg0:ethernet-100mbps-switch".to_owned(),
                kind: SloKind::LatencyAbove {
                    histogram: "umiddle.path_latency".to_owned(),
                    threshold_ns: 20_000_000,
                    budget_ppm: 10_000,
                },
                warning: rule(8, 1_000),
                firing: rule(8, 5_000),
            },
        ],
        liveness_timeout: SimDuration::from_secs(5),
    }
}

impl Scenario for Fed {
    fn world(&mut self) -> &mut World {
        &mut self.world
    }

    fn ledger(&self) -> LedgerRef {
        Rc::clone(&self.ledger)
    }

    fn ready(&self) -> bool {
        let log = self.log.borrow();
        log.distinct() >= expected_translators()
            && log.connected == log.requested
            && log.connected >= expected_connections()
    }

    fn check(&mut self) -> Vec<String> {
        let mut errs = Vec::new();
        let log = self.log.borrow();
        if log.distinct() != expected_translators() {
            errs.push(format!(
                "{} translators mapped, expected {}",
                log.distinct(),
                expected_translators()
            ));
        }
        if log.connected != log.requested || log.connected < expected_connections() {
            errs.push(format!(
                "{} of {} connect requests connected, expected at least {}",
                log.connected,
                log.requested,
                expected_connections()
            ));
        }
        if let Some(reason) = log.failed.first() {
            errs.push(format!(
                "{} ConnectFailed, first: {reason}",
                log.failed.len()
            ));
        }
        let paths = self.paths.borrow();
        for (name, proc) in &self.sinks {
            if paths.delivered_to.get(proc).copied().unwrap_or(0) == 0 {
                errs.push(format!("{name} received nothing"));
            }
        }
        let trace = self.world.trace();
        for bad in [
            "mapper.upnp.soap_faults",
            "mapper.upnp.failures",
            "umiddle.qos_dropped",
        ] {
            if trace.counter(bad) != 0 {
                errs.push(format!("{bad} = {}", trace.counter(bad)));
            }
        }
        errs
    }

    fn segments(&self) -> Vec<SegmentId> {
        self.segments.clone()
    }

    fn runtime_scopes(&self) -> Vec<String> {
        vec!["rt0".to_owned()]
    }

    fn runtime_stats(&self) -> Vec<Rc<RefCell<RuntimeStats>>> {
        vec![Rc::clone(&self.stats)]
    }

    fn directory(&self) -> Vec<TranslatorProfile> {
        self.log.borrow().appeared.clone()
    }

    fn queries(&self) -> Vec<Query> {
        ["text/plain", "application/octet-stream", "image/jpeg"]
            .iter()
            .flat_map(|m| {
                let kind = PortKind::Digital(m.parse().expect("static mime"));
                [
                    Query::has_port(Direction::Input, kind.clone()),
                    Query::has_port(Direction::Output, kind),
                ]
            })
            .chain([Query::All, Query::attr("platform", "upnp")])
            .collect()
    }

    fn wire_mix(&self) -> Vec<WireMessage> {
        // One runtime: bridged messages never cross the wire here, so
        // the mix is the envelope each would travel in between runtimes.
        self.paths.borrow().envelopes()
    }
}
