//! Building blocks the workloads share: the uMiddle path ledger tap,
//! the fan-out wirer, and the benchmark's own native drivers.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::rc::Rc;

use simnet::{Ctx, LocalMessage, NodeId, ProcId, Process, SegmentId, SimDuration, SimTime, World};
use umiddle_bridges::{NativeBehavior, NativeEnv, NativeService};
use umiddle_core::{
    ConnectionId, DirectoryEvent, PortRef, QosPolicy, Query, RuntimeClient, RuntimeConfig,
    RuntimeEvent, RuntimeId, RuntimeRequest, RuntimeStats, Shape, Symbol, TranslatorId,
    TranslatorProfile, UMessage, WireMessage,
};

use crate::probe::{LedgerRef, Probe, Tap, TapRef, Traced};

/// Adds a wrapped process of `layer` to `node`, its local messages run
/// through `tap`.
pub fn add(
    world: &mut World,
    probe: &Rc<Probe>,
    node: NodeId,
    layer: &str,
    p: Box<dyn Process>,
    tap: &TapRef,
) -> ProcId {
    let traced = Traced::new(probe, layer, p).with_tap(Rc::clone(tap));
    world.add_process(node, Box::new(traced))
}

/// Adds a node on `segments` running a uMiddle runtime; returns the
/// node, the runtime process and its live stats.
pub fn runtime_node(
    world: &mut World,
    probe: &Rc<Probe>,
    name: &str,
    cfg: RuntimeConfig,
    segments: &[SegmentId],
    tap: &TapRef,
) -> (NodeId, ProcId, Rc<RefCell<RuntimeStats>>) {
    let node = world.add_node(name);
    for s in segments {
        world.attach(node, *s).expect("attach runtime node");
    }
    let runtime = umiddle_core::UmiddleRuntime::new(cfg);
    let stats = runtime.stats_handle();
    let traced = Traced::new(probe, "runtime", Box::new(runtime))
        .with_tap(Rc::clone(tap))
        .capturing_frames();
    let rt = world.add_process(node, Box::new(traced));
    (node, rt, stats)
}

/// The default configuration of runtime `id`.
pub fn runtime_cfg(id: u32) -> RuntimeConfig {
    RuntimeConfig::new(RuntimeId(id))
}

/// A one-port digital shape.
pub fn shape(port: &str, dir: umiddle_core::Direction, mime: &str) -> Shape {
    Shape::builder()
        .digital(port, dir, mime.parse().expect("static mime"))
        .build()
        .expect("valid shape")
}

/// A native service process wrapping `behavior`.
pub fn native(
    name: &str,
    shape: Shape,
    runtime: ProcId,
    behavior: Box<dyn NativeBehavior>,
) -> Box<dyn Process> {
    Box::new(NativeService::new(name, shape, runtime, behavior))
}

/// Watches the uMiddle boundary: runtime `Output` requests and the
/// `Input`s runtimes hand to delegates.
///
/// On connections marked as counted it accounts ops whose offer the
/// benchmark cannot see at their origin (device-originated traffic): an
/// op is one message on one connection, offered when the runtime accepts
/// the source's `Output` and completed when the runtime hands it to the
/// destination sink. Paths are FIFO with unbounded QoS, so each delivery
/// completes the oldest outstanding offer on its connection.
#[derive(Default)]
pub struct PathLedger {
    /// The workload's ledger.
    pub ledger: LedgerRef,
    conns: HashMap<(TranslatorId, Symbol), Vec<ConnectionId>>,
    fifo: HashMap<ConnectionId, (&'static str, VecDeque<SimTime>)>,
    /// The runtime processes (their local messages are requests).
    pub runtimes: HashSet<ProcId>,
    /// Deliveries per delegate process, counted or not.
    pub delivered_to: HashMap<ProcId, u64>,
    /// The first delivered messages (the wire-codec mix).
    sample: Vec<(ConnectionId, PortRef, UMessage)>,
}

impl PathLedger {
    /// A ledger tap feeding `ledger`.
    pub fn new(ledger: LedgerRef) -> PathLedger {
        PathLedger {
            ledger,
            ..PathLedger::default()
        }
    }

    /// Counts `kind` ops on connection `conn` from `src`.
    pub fn count(&mut self, kind: &'static str, src: &PortRef, conn: ConnectionId) {
        self.conns
            .entry((src.translator, src.port))
            .or_default()
            .push(conn);
        self.fifo.insert(conn, (kind, VecDeque::new()));
    }

    /// The sampled messages in the path-message envelopes that would
    /// carry them between runtimes.
    pub fn envelopes(&self) -> Vec<WireMessage> {
        self.sample
            .iter()
            .map(|(connection, dst, msg)| WireMessage::PathMessage {
                connection: *connection,
                dst: *dst,
                msg: msg.clone(),
            })
            .collect()
    }

    fn deliver(&mut self, now: SimTime, to: ProcId, conn: ConnectionId, msg: &UMessage) {
        *self.delivered_to.entry(to).or_default() += 1;
        if self.sample.len() < 512 {
            let dst = PortRef::new(TranslatorId::new(RuntimeId(1), to.index() as u32), "in");
            self.sample.push((conn, dst, msg.clone()));
        }
        let Some((kind, queue)) = self.fifo.get_mut(&conn) else {
            return;
        };
        let mut ledger = self.ledger.borrow_mut();
        match queue.pop_front() {
            Some(offered) => ledger.complete_untimed(kind, offered, now, msg.body().len()),
            None => ledger.error(format!("delivery at {now} on {conn:?} with no offer")),
        }
    }
}

impl Tap for PathLedger {
    fn local(&mut self, now: SimTime, to: ProcId, _from: ProcId, msg: &LocalMessage) {
        if self.runtimes.contains(&to) {
            if let Some(RuntimeRequest::Output {
                translator, port, ..
            }) = msg.downcast_ref::<RuntimeRequest>()
            {
                for c in self.conns.get(&(*translator, *port)).into_iter().flatten() {
                    let (kind, queue) = self.fifo.get_mut(c).expect("fifo per counted connection");
                    queue.push_back(now);
                    self.ledger.borrow_mut().offer(kind, now, 1);
                }
            }
            return;
        }
        match msg.downcast_ref::<RuntimeEvent>() {
            Some(RuntimeEvent::Input {
                connection, msg, ..
            }) => self.deliver(now, to, *connection, msg),
            Some(RuntimeEvent::InputBatch { inputs }) => {
                for i in inputs {
                    self.deliver(now, to, i.connection, &i.msg);
                }
            }
            _ => {}
        }
    }
}

/// One fan-out wiring rule: every translator whose name contains
/// `src_tag` is connected to every translator containing `dst_tag`.
/// A rule with a `counted` kind has its ops accounted at the boundary.
#[derive(Debug, Clone)]
pub struct FanRule {
    pub src_tag: String,
    pub src_port: &'static str,
    pub dst_tag: String,
    pub dst_port: &'static str,
    pub counted: Option<&'static str>,
}

impl FanRule {
    /// A rule whose ops are accounted elsewhere.
    pub fn new(
        src_tag: &str,
        src_port: &'static str,
        dst_tag: &str,
        dst_port: &'static str,
    ) -> FanRule {
        FanRule {
            src_tag: src_tag.to_owned(),
            src_port,
            dst_tag: dst_tag.to_owned(),
            dst_port,
            counted: None,
        }
    }

    /// The same rule, its ops accounted at the uMiddle boundary as `kind`.
    pub fn counted(mut self, kind: &'static str) -> FanRule {
        self.counted = Some(kind);
        self
    }
}

/// What the wirer saw: translators appeared and connections made.
#[derive(Debug, Default)]
pub struct WireLog {
    /// Every profile that appeared, in order (re-appearances included).
    pub appeared: Vec<TranslatorProfile>,
    /// Connections established.
    pub connected: u64,
    /// Connect requests sent.
    pub requested: u64,
    /// `ConnectFailed` reasons.
    pub failed: Vec<String>,
}

impl WireLog {
    /// Distinct translator names seen.
    pub fn distinct(&self) -> usize {
        self.appeared
            .iter()
            .map(TranslatorProfile::name)
            .collect::<HashSet<_>>()
            .len()
    }
}

/// Watches the directory and wires translators by [`FanRule`]s,
/// registering counted connections with the path ledger.
pub struct FanWirer {
    runtime: ProcId,
    client: Option<RuntimeClient>,
    rules: Vec<FanRule>,
    srcs: Vec<Vec<TranslatorId>>,
    dsts: Vec<Vec<TranslatorId>>,
    pending: HashMap<u64, (PortRef, Option<&'static str>)>,
    paths: Rc<RefCell<PathLedger>>,
    /// What was seen (shared with the workload).
    pub log: Rc<RefCell<WireLog>>,
}

impl FanWirer {
    /// A wirer for `rules` on `runtime`.
    pub fn new(runtime: ProcId, rules: Vec<FanRule>, paths: Rc<RefCell<PathLedger>>) -> FanWirer {
        let n = rules.len();
        FanWirer {
            runtime,
            client: None,
            rules,
            srcs: vec![Vec::new(); n],
            dsts: vec![Vec::new(); n],
            pending: HashMap::new(),
            paths,
            log: Rc::default(),
        }
    }
}

impl Process for FanWirer {
    fn name(&self) -> &str {
        "bench-fan-wirer"
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let client = RuntimeClient::new(self.runtime);
        client.add_listener(ctx, Query::All);
        self.client = Some(client);
    }
    fn on_local(&mut self, ctx: &mut Ctx<'_>, _from: ProcId, msg: LocalMessage) {
        let Ok(event) = msg.downcast::<RuntimeEvent>() else {
            return;
        };
        match *event {
            RuntimeEvent::Directory(DirectoryEvent::Appeared(profile)) => {
                let id = profile.id();
                let mut to_wire = Vec::new();
                for (i, rule) in self.rules.iter().enumerate() {
                    if profile.name().contains(rule.src_tag.as_str()) {
                        self.srcs[i].push(id);
                        for &dst in &self.dsts[i] {
                            to_wire.push((id, dst, i));
                        }
                    }
                    if profile.name().contains(rule.dst_tag.as_str()) {
                        self.dsts[i].push(id);
                        for &src in &self.srcs[i] {
                            to_wire.push((src, id, i));
                        }
                    }
                }
                self.log.borrow_mut().appeared.push(profile);
                let client = self.client.as_mut().expect("started");
                for (src, dst, i) in to_wire {
                    let rule = &self.rules[i];
                    let src = PortRef::new(src, rule.src_port);
                    let dst = PortRef::new(dst, rule.dst_port);
                    let token = client.connect_ports(ctx, src, dst, QosPolicy::unbounded());
                    self.pending.insert(token, (src, rule.counted));
                    self.log.borrow_mut().requested += 1;
                }
            }
            RuntimeEvent::Connected { token, connection } => {
                if let Some((src, counted)) = self.pending.remove(&token) {
                    if let Some(kind) = counted {
                        self.paths.borrow_mut().count(kind, &src, connection);
                    }
                    self.log.borrow_mut().connected += 1;
                }
            }
            RuntimeEvent::ConnectFailed { reason, .. } => {
                self.log.borrow_mut().failed.push(reason);
            }
            _ => {}
        }
    }
}

/// Emission times of one driver, shared with whoever completes its ops.
pub type Emissions = Rc<RefCell<Vec<SimTime>>>;

/// A native source emitting `make(seq)` on a fixed period after a
/// seeded phase. Each emission offers `targets` ops of `kind` (one per
/// wired destination) and is logged so its completions find their offer.
pub struct Driver {
    pub kind: &'static str,
    pub port: &'static str,
    pub phase: SimDuration,
    pub interval: SimDuration,
    pub make: fn(u64) -> UMessage,
    pub ledger: LedgerRef,
    pub targets: u64,
    pub emitted: Emissions,
}

impl NativeBehavior for Driver {
    fn on_registered(&mut self, env: &mut NativeEnv<'_, '_>) {
        env.set_timer(self.phase, 0);
    }
    fn on_timer(&mut self, env: &mut NativeEnv<'_, '_>, _token: u64) {
        let now = env.now();
        let seq = self.emitted.borrow().len() as u64;
        self.emitted.borrow_mut().push(now);
        self.ledger.borrow_mut().offer(self.kind, now, self.targets);
        env.emit(self.port, (self.make)(seq));
        env.set_timer(self.interval, 0);
    }
}

/// A native sink; what it receives is accounted by the path ledger.
pub struct Sink;

impl NativeBehavior for Sink {}
