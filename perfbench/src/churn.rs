//! `directory_churn`: the E12 federation — 100 runtimes of 10 services
//! each on the 10 Mbps hub, default delta gossip — under steady
//! directory churn. Every runtime hosts one client that registers and
//! unregisters services (writes) while issuing `lookup` and
//! `connect_query` dynamic binding (reads).
//!
//! Ops: a register or unregister completes when every runtime's
//! directory reflects it (latency = convergence time); a lookup or a
//! `connect_query` completes when the runtime answers it. A runtime
//! answers reads from its local replica in the instant they are asked,
//! so reads are counted but carry no virtual latency.

use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::rc::Rc;

use simnet::{
    Ctx, LocalMessage, ProcId, Process, SegmentConfig, SegmentId, SimDuration, SimRng, SimTime,
    World,
};
use umiddle_core::{
    Direction, DirectoryEvent, DirectoryTable, PortKind, PortRef, QosPolicy, Query, RuntimeClient,
    RuntimeEvent, RuntimeId, RuntimeStats, TranslatorId, TranslatorProfile, WireMessage,
};

use crate::common::{add, native, runtime_cfg, runtime_node, shape, PathLedger, Sink};
use crate::probe::{LedgerRef, Probe, TapRef};
use crate::scenario::{Scenario, Spec, Workload};

const RUNTIMES: usize = 100;
const PER_RUNTIME: usize = 10;
/// Distinct MIME types the services spread over.
const MIMES: usize = 7;
/// Mean interval between one client's writes, lookups and binds: two
/// reads per write, a directory serving more queries than updates.
const WRITE_MS: u64 = 1_000;
const LOOKUP_MS: u64 = 750;
const BIND_MS: u64 = 1_500;
/// Runtimes whose answers the end-state lookup check compares.
const CHECKED_RUNTIMES: usize = 10;

fn mime(k: usize) -> String {
    format!("app/t{}", k % MIMES)
}

fn kind(k: usize) -> PortKind {
    PortKind::Digital(mime(k).parse().expect("valid mime"))
}

/// The query a read of MIME class `k` issues.
fn read_query(k: usize, bind: bool) -> Query {
    let dir = if bind {
        Direction::Input
    } else {
        Direction::Output
    };
    Query::has_port(dir, kind(k))
}

/// Wire bytes of `profile`'s advertisement: the useful payload a lookup
/// answer or a converged registration carries per runtime.
fn advert_size(profile: &TranslatorProfile) -> usize {
    let home = simnet::Addr::new(simnet::NodeId::from_index(0), 0);
    WireMessage::Advertise {
        profile: profile.clone(),
        home,
    }
    .encode()
    .len()
}

/// The workload.
pub struct DirectoryChurn;

/// Directory state as every runtime's listener sees it, and the writes
/// in flight toward convergence.
#[derive(Default)]
struct Tracker {
    /// Names present in each runtime's directory.
    views: Vec<BTreeSet<String>>,
    /// Every profile seen, by id.
    profiles: HashMap<TranslatorId, TranslatorProfile>,
    /// Outstanding writes: name -> (register?, offered, runtimes still to
    /// reflect it, wire bytes each runtime receives).
    writes: HashMap<String, (bool, SimTime, usize, usize)>,
    /// Advertisement wire size of every profile seen.
    sizes: HashMap<TranslatorId, usize>,
    /// Convergence time of each completed write (ns).
    converge_ns: Vec<u64>,
    /// Names registered and not unregistered, as the build and the
    /// clients issued them: the entry set every runtime must converge to.
    truth: BTreeSet<String>,
}

impl Tracker {
    fn reflect(&mut self, rt: usize, name: &str, present: bool, now: SimTime, ledger: &LedgerRef) {
        let changed = if present {
            self.views[rt].insert(name.to_owned())
        } else {
            self.views[rt].remove(name)
        };
        if !changed {
            return;
        }
        if let Some((register, offered, left, bytes)) = self.writes.get_mut(name) {
            if *register == present {
                *left -= 1;
                if *left == 0 {
                    let kind = if present { "register" } else { "unregister" };
                    ledger
                        .borrow_mut()
                        .complete(kind, *offered, now, *bytes * RUNTIMES);
                    self.converge_ns.push((now - *offered).as_nanos());
                    self.writes.remove(name);
                }
            }
        }
    }
}

/// Seeded inputs: the world seed and each client's schedule phases.
struct Plan {
    world_seed: u64,
    phases_ms: Vec<[u64; 3]>,
    rng: SimRng,
}

impl Plan {
    fn new(seed: u64) -> Plan {
        let mut rng = SimRng::seed_from_u64(seed ^ 0xD1C0_0000);
        Plan {
            world_seed: rng.next_u64(),
            phases_ms: (0..RUNTIMES)
                .map(|_| {
                    [
                        rng.gen_range(0..WRITE_MS),
                        rng.gen_range(0..LOOKUP_MS),
                        rng.gen_range(0..BIND_MS),
                    ]
                })
                .collect(),
            rng: rng.split(3),
        }
    }

    fn digest(&self) -> u64 {
        let mut h = self.world_seed;
        for v in self.phases_ms.iter().flatten() {
            h = (h ^ v).wrapping_mul(0x0100_0000_01b3);
        }
        h
    }
}

const T_WRITE: u64 = 1;
const T_LOOKUP: u64 = 2;
const T_BIND: u64 = 3;

/// One runtime's client: listens to its directory, churns its own
/// services and reads the federation's.
struct Client {
    rt: usize,
    runtime: ProcId,
    client: Option<RuntimeClient>,
    rng: SimRng,
    phases: [u64; 3],
    ledger: LedgerRef,
    tracker: Rc<RefCell<Tracker>>,
    active: Rc<RefCell<Phase>>,
    src: Option<TranslatorId>,
    /// The churn services this client has registered, oldest first.
    churned: VecDeque<(String, Option<TranslatorId>)>,
    writes: u64,
    next_churn: usize,
    reads: HashMap<u64, (&'static str, SimTime)>,
    checks: HashMap<u64, Query>,
    checked: bool,
    answers: Answers,
}

/// End-state lookup answers: each query with the ids it returned.
type Answers = Rc<RefCell<Vec<(Query, Vec<TranslatorId>)>>>;

/// What the clients are doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Idle,
    Churning,
    Settled,
    Checking,
}

impl Client {
    fn jittered(&mut self, mean_ms: u64) -> SimDuration {
        SimDuration::from_millis(mean_ms / 2 + self.rng.gen_range(0..mean_ms))
    }

    /// Every third write unregisters the client's oldest churn service,
    /// the others register a new one: the directory grows slowly while
    /// both kinds of write flow.
    fn write(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let client = self.client.as_mut().expect("started");
        self.writes += 1;
        // Unregister only once the registration has converged, so the two
        // writes stay distinct ops.
        let oldest = match self.churned.front() {
            Some((name, Some(id))) if !self.tracker.borrow().writes.contains_key(name) => {
                Some((name.clone(), *id))
            }
            _ => None,
        };
        match oldest {
            Some((name, id)) if self.writes.is_multiple_of(3) => {
                self.churned.pop_front();
                self.ledger.borrow_mut().offer("unregister", now, 1);
                let bye = WireMessage::Bye { translator: id }.encode().len();
                let mut t = self.tracker.borrow_mut();
                t.truth.remove(&name);
                t.writes.insert(name, (false, now, RUNTIMES, bye));
                drop(t);
                client.unregister(ctx, id);
            }
            _ => {
                // A seeded tag varies the profile's size, and so the
                // delta's time on the wire, from write to write.
                let len = self.rng.gen_range(0..256);
                let tag = self.rng.gen_string("abcdefghijklmnopqrstuvwxyz", len);
                let name = format!("churn-{}-{}-{tag}", self.rt, self.next_churn);
                let k = self.rng.gen_range(0..MIMES);
                let profile = TranslatorProfile::builder(TranslatorId::new(RuntimeId(0), 0), &name)
                    .shape(shape("in", Direction::Input, &mime(k)))
                    .build();
                self.next_churn += 1;
                self.ledger.borrow_mut().offer("register", now, 1);
                let size = advert_size(&profile);
                let mut t = self.tracker.borrow_mut();
                t.truth.insert(name.clone());
                t.writes.insert(name.clone(), (true, now, RUNTIMES, size));
                drop(t);
                client.register(ctx, profile, ctx.me());
                self.churned.push_back((name, None));
            }
        }
    }

    fn read(&mut self, ctx: &mut Ctx<'_>, bind: bool) {
        let k = self.rng.gen_range(0..MIMES);
        let query = read_query(k, bind);
        let client = self.client.as_mut().expect("started");
        let (kind, token) = if bind {
            let src = PortRef::new(self.src.expect("source registered"), "out");
            (
                "bind",
                client.connect_query(ctx, src, query, QosPolicy::unbounded()),
            )
        } else {
            ("lookup", client.lookup(ctx, query))
        };
        self.ledger.borrow_mut().offer(kind, ctx.now(), 1);
        self.reads.insert(token, (kind, ctx.now()));
    }

    fn answered(&mut self, token: u64, now: SimTime, bytes: usize) {
        match self.reads.remove(&token) {
            Some((kind, offered)) => self
                .ledger
                .borrow_mut()
                .complete_untimed(kind, offered, now, bytes),
            None => self.ledger.borrow_mut().error(format!(
                "runtime {} answered unknown token {token}",
                self.rt
            )),
        }
    }
}

impl Process for Client {
    fn name(&self) -> &str {
        "bench-churn-client"
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let mut client = RuntimeClient::new(self.runtime);
        client.add_listener(ctx, Query::All);
        let profile = TranslatorProfile::builder(
            TranslatorId::new(RuntimeId(0), 0),
            format!("client-{}", self.rt),
        )
        .shape(shape("out", Direction::Output, "app/q"))
        .build();
        client.register(ctx, profile, ctx.me());
        self.client = Some(client);
        let [w, l, b] = self.phases.map(SimDuration::from_millis);
        ctx.set_timer(w, T_WRITE);
        ctx.set_timer(l, T_LOOKUP);
        ctx.set_timer(b, T_BIND);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let phase = *self.active.borrow();
        match token {
            T_LOOKUP if phase == Phase::Checking && self.rt < CHECKED_RUNTIMES && !self.checked => {
                self.checked = true;
                for k in 0..MIMES {
                    for bind in [false, true] {
                        let query = read_query(k, bind);
                        let client = self.client.as_mut().expect("started");
                        let t = client.lookup(ctx, query.clone());
                        self.checks.insert(t, query);
                    }
                }
            }
            T_WRITE => {
                if phase == Phase::Churning {
                    self.write(ctx);
                }
                let d = self.jittered(WRITE_MS);
                ctx.set_timer(d, T_WRITE);
            }
            T_LOOKUP => {
                if phase == Phase::Churning {
                    self.read(ctx, false);
                }
                let d = self.jittered(LOOKUP_MS);
                ctx.set_timer(d, T_LOOKUP);
            }
            T_BIND => {
                if phase == Phase::Churning && self.src.is_some() {
                    self.read(ctx, true);
                }
                let d = self.jittered(BIND_MS);
                ctx.set_timer(d, T_BIND);
            }
            _ => {}
        }
    }
    fn on_local(&mut self, ctx: &mut Ctx<'_>, _from: ProcId, msg: LocalMessage) {
        let Ok(event) = msg.downcast::<RuntimeEvent>() else {
            return;
        };
        let now = ctx.now();
        match *event {
            RuntimeEvent::Directory(DirectoryEvent::Appeared(profile)) => {
                let mut t = self.tracker.borrow_mut();
                let name = profile.name().to_owned();
                t.sizes
                    .entry(profile.id())
                    .or_insert_with(|| advert_size(&profile));
                t.profiles.insert(profile.id(), profile);
                t.reflect(self.rt, &name, true, now, &self.ledger);
            }
            RuntimeEvent::Directory(DirectoryEvent::Disappeared(id)) => {
                let mut t = self.tracker.borrow_mut();
                let name = t.profiles.get(&id).map(|p| p.name().to_owned());
                match name {
                    Some(name) => t.reflect(self.rt, &name, false, now, &self.ledger),
                    None => self
                        .ledger
                        .borrow_mut()
                        .error(format!("unknown {id} disappeared")),
                }
            }
            // Replies come in request order: the source first, then each
            // churn service.
            RuntimeEvent::Registered { translator, .. } => {
                match self.churned.iter_mut().find(|(_, id)| id.is_none()) {
                    Some((_, id)) => *id = Some(translator),
                    None => self.src = Some(translator),
                }
            }
            RuntimeEvent::LookupResult { token, profiles } => {
                if let Some(query) = self.checks.remove(&token) {
                    let ids = profiles.iter().map(TranslatorProfile::id).collect();
                    self.answers.borrow_mut().push((query, ids));
                } else {
                    let t = self.tracker.borrow();
                    let bytes = profiles
                        .iter()
                        .map(|p| t.sizes.get(&p.id()).copied().unwrap_or(0))
                        .sum();
                    drop(t);
                    self.answered(token, now, bytes);
                }
            }
            RuntimeEvent::Connected { token, connection } => {
                self.answered(token, now, 0);
                self.client
                    .as_ref()
                    .expect("started")
                    .disconnect(ctx, connection);
            }
            RuntimeEvent::ConnectFailed { reason, .. } => {
                self.ledger
                    .borrow_mut()
                    .error(format!("connect_query failed: {reason}"));
            }
            _ => {}
        }
    }
}

struct Churn {
    world: World,
    ledger: LedgerRef,
    tracker: Rc<RefCell<Tracker>>,
    phase: Rc<RefCell<Phase>>,
    answers: Answers,
    paths: Rc<RefCell<PathLedger>>,
    stats: Vec<Rc<RefCell<RuntimeStats>>>,
    hub: SegmentId,
}

/// Virtual seconds the federation boots before churn starts (two
/// advertise intervals).
const SETTLE_S: u64 = 10;

impl Workload for DirectoryChurn {
    fn spec(&self) -> Spec {
        Spec {
            setup_step: SimDuration::from_millis(500),
            setup_limit: SimTime::from_secs(60),
            window: SimDuration::from_secs(20),
            slice: SimDuration::from_millis(20),
            drain_limit: SimDuration::from_secs(30),
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
        let w = &mut world;
        let hub = w.add_segment(SegmentConfig::ethernet_10mbps_hub());
        let ledger = LedgerRef::default();
        let paths = Rc::new(RefCell::new(PathLedger::new(LedgerRef::default())));
        let tap: TapRef = paths.clone();
        let truth = (0..RUNTIMES)
            .flat_map(|i| {
                (0..PER_RUNTIME)
                    .map(move |j| format!("svc-{i}-{j}"))
                    .chain([format!("client-{i}")])
            })
            .collect();
        let tracker = Rc::new(RefCell::new(Tracker {
            views: vec![BTreeSet::new(); RUNTIMES],
            truth,
            ..Tracker::default()
        }));
        let phase = Rc::new(RefCell::new(Phase::Idle));
        let answers = Rc::default();
        let mut stats = Vec::new();
        for i in 0..RUNTIMES {
            let (node, rt, st) = runtime_node(
                w,
                probe,
                &format!("h{i}"),
                runtime_cfg(i as u32),
                &[hub],
                &tap,
            );
            paths.borrow_mut().runtimes.insert(rt);
            stats.push(st);
            for j in 0..PER_RUNTIME {
                let shape = shape("out", Direction::Output, &mime(i * PER_RUNTIME + j));
                let svc = native(&format!("svc-{i}-{j}"), shape, rt, Box::new(Sink));
                add(w, probe, node, "app", svc, &tap);
            }
            let client = Client {
                rt: i,
                runtime: rt,
                client: None,
                rng: plan.rng.split(i as u64),
                phases: plan.phases_ms[i],
                ledger: Rc::clone(&ledger),
                tracker: Rc::clone(&tracker),
                active: Rc::clone(&phase),
                src: None,
                churned: VecDeque::new(),
                writes: 0,
                next_churn: 0,
                reads: HashMap::new(),
                checks: HashMap::new(),
                checked: false,
                answers: Rc::clone(&answers),
            };
            add(w, probe, node, "app", Box::new(client), &tap);
        }
        Box::new(Churn {
            world,
            ledger,
            tracker,
            phase,
            answers,
            paths,
            stats,
            hub,
        })
    }
}

impl Scenario for Churn {
    fn world(&mut self) -> &mut World {
        &mut self.world
    }
    fn ledger(&self) -> LedgerRef {
        Rc::clone(&self.ledger)
    }
    /// Every runtime holds every entry, and the boot gossip has settled:
    /// writes issued within about two seconds of boot take up to a
    /// second to converge, which would measure the boot, not the churn.
    fn ready(&self) -> bool {
        let t = self.tracker.borrow();
        self.world.now() >= SimTime::from_secs(SETTLE_S) && t.views.iter().all(|v| *v == t.truth)
    }
    fn open_window(&mut self) {
        *self.phase.borrow_mut() = Phase::Churning;
    }
    fn close_window(&mut self) {
        *self.phase.borrow_mut() = Phase::Settled;
    }
    fn drained(&self) -> bool {
        self.ledger.borrow().outstanding() == 0 && self.tracker.borrow().writes.is_empty()
    }
    fn check(&mut self) -> Vec<String> {
        let mut errs = Vec::new();
        // Every runtime converged to the entry set the clients left (the
        // E12 assert).
        let t = self.tracker.borrow();
        let expected = &t.truth;
        for (i, view) in t.views.iter().enumerate() {
            if view != expected {
                errs.push(format!(
                    "runtime {i} holds {} entries, expected {}",
                    view.len(),
                    expected.len()
                ));
            }
            let entries = self.stats[i].borrow().directory_entries;
            if entries != expected.len() as u64 {
                errs.push(format!(
                    "runtime {i} stats report {entries} entries, expected {}",
                    expected.len()
                ));
            }
        }
        drop(t);
        // Lookups answered by the runtimes equal a reference table built
        // from that set (`directory`).
        *self.phase.borrow_mut() = Phase::Checking;
        let want = CHECKED_RUNTIMES * MIMES * 2;
        for _ in 0..2 * LOOKUP_MS / 500 {
            if self.answers.borrow().len() >= want {
                break;
            }
            let now = self.world.now();
            self.world.run_until(now + SimDuration::from_millis(500));
        }
        let mut reference = DirectoryTable::new();
        let home = simnet::Addr::new(simnet::NodeId::from_index(0), 0);
        for p in self.directory() {
            reference.upsert(p, home, SimTime::MAX, false);
        }
        let answers = self.answers.borrow();
        if answers.len() != want {
            errs.push(format!("{} end-state lookups answered", answers.len()));
        }
        for (query, ids) in answers.iter() {
            let mut want: Vec<TranslatorId> =
                reference.lookup(query).iter().map(|p| p.id()).collect();
            want.sort_unstable();
            let mut got = ids.clone();
            got.sort_unstable();
            if got != want {
                errs.push(format!(
                    "lookup {query}: {} answers, reference {}",
                    got.len(),
                    want.len()
                ));
            }
        }
        errs.truncate(8);
        errs
    }
    fn segments(&self) -> Vec<SegmentId> {
        vec![self.hub]
    }
    fn runtime_scopes(&self) -> Vec<String> {
        (0..RUNTIMES).map(|i| format!("rt{i}")).collect()
    }
    fn runtime_stats(&self) -> Vec<Rc<RefCell<RuntimeStats>>> {
        self.stats.clone()
    }
    /// The profiles of the expected entry set, as the runtimes announced
    /// them.
    fn directory(&self) -> Vec<TranslatorProfile> {
        let t = self.tracker.borrow();
        let mut v: Vec<TranslatorProfile> = t
            .profiles
            .values()
            .filter(|p| t.truth.contains(p.name()))
            .cloned()
            .collect();
        v.sort_by_key(TranslatorProfile::id);
        v
    }
    fn queries(&self) -> Vec<Query> {
        (0..MIMES)
            .flat_map(|k| [read_query(k, false), read_query(k, true)])
            .collect()
    }
    fn wire_mix(&self) -> Vec<WireMessage> {
        self.paths.borrow().envelopes()
    }
    fn converge_ns(&self) -> Vec<u64> {
        self.tracker.borrow().converge_ns.clone()
    }
}
