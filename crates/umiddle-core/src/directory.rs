//! The directory replica each runtime maintains.
//!
//! "The uMiddle directory module handles the exchange of device
//! advertisements among hosts" (paper §3.2). Each runtime keeps a full
//! replica of the federation's translator profiles, kept in sync by the
//! delta-gossip plane (see [`crate::replica`]) or, in the legacy
//! full-refresh mode, by periodic advertisements with a TTL. The replica
//! serves `lookup(Query)` and the binding step of `connect(Port, Query)`
//! locally, and feeds directory listeners.

use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap};

use simnet::{Addr, SimTime};

use crate::id::{PortRef, RuntimeId, TranslatorId};
use crate::mime::MimeType;
use crate::profile::TranslatorProfile;
use crate::query::Query;
use crate::shape::{Direction, PortKind};

/// One replica entry: a profile plus liveness bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct DirectoryEntry {
    /// The advertised profile.
    pub profile: TranslatorProfile,
    /// Transport address of the hosting runtime.
    pub home: Addr,
    /// When the entry expires unless refreshed ([`SimTime::MAX`] for
    /// entries whose liveness is tracked elsewhere — local entries, and
    /// remote entries under origin-level delta-gossip liveness).
    pub expires: SimTime,
    /// `true` if the translator is hosted by this runtime (local entries
    /// never expire).
    pub local: bool,
}

impl DirectoryEntry {
    /// Where a path to this translator goes: `None` for a translator
    /// hosted here, else its runtime's address.
    pub(crate) fn route(&self) -> Option<Addr> {
        if self.local {
            None
        } else {
            Some(self.home)
        }
    }
}

/// Effect of applying an advertisement to the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpsertEffect {
    /// The translator was not known before.
    Appeared,
    /// The entry was refreshed (TTL extended, profile possibly updated).
    Refreshed,
}

/// How a lookup can use the secondary indexes.
enum IndexPlan<'a> {
    /// The query demands a port with a concrete digital type: candidates
    /// are the exact `(direction, mime)` posting plus wildcard-typed ports
    /// in that direction.
    Concrete(Direction, &'a MimeType),
    /// The query demands *some* digital port in a direction (its type is
    /// a wildcard pattern): candidates are every entry with a digital port
    /// in that direction — the double-wildcard side list.
    AnyDigital(Direction),
}

/// The in-memory directory replica.
///
/// Besides the id-ordered entry map, the table keeps secondary indexes so
/// `lookup` and `bindings` never scan the whole federation for
/// port-shaped queries:
///
/// * `(direction, concrete port MIME type)` → translator ids, serving the
///   hot [`Query::HasPort`] shape issued on every dynamic binding attempt;
/// * a per-direction side set of *all* entries with a digital port, so
///   even double-wildcard queries (`*/*`, `image/*`) visit only candidate
///   entries — O(candidates), not O(table).
///
/// Queries neither index can serve (name/attribute predicates, `Or`/`Not`
/// roots) fall back to the full scan and bump [`Self::scan_fallbacks`];
/// indexed candidates are re-checked with [`Query::matches`] — except
/// exact postings for a bare concrete-port query, which satisfy it by the
/// index invariant — so every path agrees with the scan.
#[derive(Debug, Default)]
pub struct DirectoryTable {
    entries: BTreeMap<TranslatorId, DirectoryEntry>,
    /// `(direction, concrete mime)` → ids of profiles with such a port.
    mime_index: HashMap<(Direction, MimeType), BTreeSet<TranslatorId>>,
    /// Ids of profiles with a wildcard-typed digital port, per direction.
    pattern_ports: HashMap<Direction, BTreeSet<TranslatorId>>,
    /// Ids of profiles with *any* digital port, per direction: the
    /// candidate list for pattern-typed port queries.
    digital_by_direction: HashMap<Direction, BTreeSet<TranslatorId>>,
    /// Expiry dirty-set: `(expires, id)` min-heap, pushed on every remote
    /// upsert that carries a finite TTL. Entries are checked lazily
    /// against the live table, so a refresh simply leaves a stale heap
    /// entry behind; [`Self::expire_into`] pops only what is due instead
    /// of scanning the whole replica. Entries with `expires == MAX`
    /// (delta-gossip liveness) never enter the heap.
    expiry: BinaryHeap<Reverse<(SimTime, TranslatorId)>>,
    /// How many lookups and binding resolutions fell back to the full
    /// scan (interior mutability: both take `&self`). Pinned by the index
    /// regression tests.
    scan_fallbacks: Cell<u64>,
}

impl DirectoryTable {
    /// Creates an empty table.
    pub fn new() -> DirectoryTable {
        DirectoryTable::default()
    }

    /// Applies an advertisement.
    pub fn upsert(
        &mut self,
        profile: TranslatorProfile,
        home: Addr,
        expires: SimTime,
        local: bool,
    ) -> UpsertEffect {
        let id = profile.id();
        let effect = if let Some(old) = self.entries.get(&id) {
            // A refresh may carry a changed shape; drop the stale index
            // entries before re-indexing.
            let old_profile = old.profile.clone();
            self.deindex(id, &old_profile);
            UpsertEffect::Refreshed
        } else {
            UpsertEffect::Appeared
        };
        self.index(id, &profile);
        if !local && expires != SimTime::MAX {
            self.expiry.push(Reverse((expires, id)));
        }
        self.entries.insert(
            id,
            DirectoryEntry {
                profile,
                home,
                expires,
                local,
            },
        );
        effect
    }

    /// Removes an entry (explicit bye). Returns it if present.
    pub fn remove(&mut self, id: TranslatorId) -> Option<DirectoryEntry> {
        let entry = self.entries.remove(&id);
        if let Some(e) = &entry {
            self.deindex(id, &e.profile);
        }
        entry
    }

    /// Removes every entry originating at `origin`, appending the removed
    /// ids to `removed` in ascending order (origin-level liveness eviction
    /// in the delta-gossip plane).
    pub fn remove_origin(&mut self, origin: RuntimeId, removed: &mut Vec<TranslatorId>) {
        let from = removed.len();
        removed.extend(
            self.entries
                .range(TranslatorId::new(origin, 0)..=TranslatorId::new(origin, u32::MAX))
                .map(|(id, _)| *id),
        );
        // Indexed loop (not an iterator) because `self.remove` needs
        // `&mut self` while `removed` stays borrowed by an iterator.
        let mut i = from;
        while i < removed.len() {
            self.remove(removed[i]);
            i += 1;
        }
    }

    /// Entries originating at `origin`, in ascending id order.
    pub fn origin_entries(&self, origin: RuntimeId) -> impl Iterator<Item = &DirectoryEntry> {
        self.entries
            .range(TranslatorId::new(origin, 0)..=TranslatorId::new(origin, u32::MAX))
            .map(|(_, e)| e)
    }

    fn index(&mut self, id: TranslatorId, profile: &TranslatorProfile) {
        for port in profile.shape().ports() {
            if let PortKind::Digital(mime) = &port.kind {
                self.digital_by_direction
                    .entry(port.direction)
                    .or_default()
                    .insert(id);
                if mime.is_pattern() {
                    self.pattern_ports
                        .entry(port.direction)
                        .or_default()
                        .insert(id);
                } else {
                    self.mime_index
                        .entry((port.direction, mime.clone()))
                        .or_default()
                        .insert(id);
                }
            }
        }
    }

    fn deindex(&mut self, id: TranslatorId, profile: &TranslatorProfile) {
        for port in profile.shape().ports() {
            if let PortKind::Digital(mime) = &port.kind {
                if let Some(ids) = self.digital_by_direction.get_mut(&port.direction) {
                    ids.remove(&id);
                    if ids.is_empty() {
                        self.digital_by_direction.remove(&port.direction);
                    }
                }
                if mime.is_pattern() {
                    if let Some(ids) = self.pattern_ports.get_mut(&port.direction) {
                        ids.remove(&id);
                        if ids.is_empty() {
                            self.pattern_ports.remove(&port.direction);
                        }
                    }
                } else {
                    let key = (port.direction, mime.clone());
                    if let Some(ids) = self.mime_index.get_mut(&key) {
                        ids.remove(&id);
                        if ids.is_empty() {
                            self.mime_index.remove(&key);
                        }
                    }
                }
            }
        }
    }

    /// Drops remote entries whose TTL lapsed, appending the expired ids
    /// to `dead` (cleared first) in ascending id order.
    ///
    /// Only heap entries that are due are examined — `O(due log n)`
    /// rather than a full-table scan. A popped entry whose table row was
    /// refreshed (later `expires`) or removed is simply discarded. The
    /// caller-supplied buffer makes the steady state (nothing due)
    /// allocation-free; see [`Self::expire`] for the allocating wrapper.
    pub fn expire_into(&mut self, now: SimTime, dead: &mut Vec<TranslatorId>) {
        dead.clear();
        while let Some(Reverse((at, id))) = self.expiry.peek().copied() {
            if at > now {
                break;
            }
            self.expiry.pop();
            let due = self
                .entries
                .get(&id)
                .is_some_and(|e| !e.local && e.expires <= now);
            if due {
                self.remove(id);
                dead.push(id);
            }
        }
        dead.sort_unstable();
    }

    /// Allocating convenience wrapper around [`Self::expire_into`].
    pub fn expire(&mut self, now: SimTime) -> Vec<TranslatorId> {
        let mut dead = Vec::new();
        self.expire_into(now, &mut dead);
        dead
    }

    /// Looks up an entry by id.
    pub fn get(&self, id: TranslatorId) -> Option<&DirectoryEntry> {
        self.entries.get(&id)
    }

    /// Serves the paper's `lookup(Query)`: profiles matching the query,
    /// in ascending id order.
    ///
    /// When the query (or one conjunct of an `And` chain) demands a
    /// digital port, only entries the indexes nominate are visited —
    /// the `(direction, mime)` posting for concrete types, the
    /// per-direction digital side list for wildcard patterns; candidates
    /// are checked against the full query (skipped only where the index
    /// invariant already guarantees a match), so the result is identical
    /// to a table scan.
    pub fn lookup(&self, query: &Query) -> Vec<&TranslatorProfile> {
        let mut out = Vec::new();
        self.for_each_match(query, |e| out.push(&e.profile));
        out
    }

    /// Serves dynamic template binding, `connect(Port, Query)`: for every
    /// profile matching `query` other than the source translator `src`,
    /// its first digital input port (in declaration order) whose type
    /// accepts `src_kind`, with the entry's home — `None` for a
    /// translator hosted here. Matching profiles without such a port are
    /// skipped.
    ///
    /// Candidates come from the same index plan as [`Self::lookup`], in
    /// ascending id order, so the list equals a scan of the whole table;
    /// a query no index can narrow scans and counts in
    /// [`Self::scan_fallbacks`].
    pub fn bindings(
        &self,
        query: &Query,
        src: TranslatorId,
        src_kind: &PortKind,
    ) -> Vec<(PortRef, Option<Addr>)> {
        let mut out = Vec::new();
        self.for_each_match(query, |e| {
            let id = e.profile.id();
            if id == src {
                return;
            }
            if let Some(port) = e.profile.shape().binding_input(src_kind) {
                out.push((PortRef::new(id, port.name.as_str()), e.route()));
            }
        });
        out
    }

    /// The transport address of runtime `origin`, taken from any remote
    /// entry it originated — an `O(log n)` range lookup, since ids order
    /// by runtime first.
    pub(crate) fn origin_home(&self, origin: RuntimeId) -> Option<Addr> {
        self.origin_entries(origin)
            .find(|e| !e.local)
            .map(|e| e.home)
    }

    /// Visits the entries matching `query` in ascending id order, from
    /// the index plan when there is one, else from a counted full scan.
    fn for_each_match<'a>(&'a self, query: &Query, mut visit: impl FnMut(&'a DirectoryEntry)) {
        match Self::index_plan(query) {
            Some(IndexPlan::Concrete(direction, mime)) => {
                // When the whole query *is* the concrete port demand (the
                // federation hot path — every dynamic binding attempt),
                // exact postings satisfy it by the index invariant: the
                // posting is keyed on precisely the queried
                // `(direction, mime)`. Skipping the per-candidate
                // re-check matters at scale — `Query::matches` walks
                // every port of the profile, turning O(results) into
                // O(results * ports-per-profile).
                let root_is_plan = matches!(query, Query::HasPort { .. });
                let exact = self.mime_index.get(&(direction, mime.clone()));
                // Wildcard-typed ports match any concrete query type.
                let patterns = self.pattern_ports.get(&direction);
                if root_is_plan && patterns.is_none() {
                    exact
                        .into_iter()
                        .flatten()
                        .filter_map(|id| self.entries.get(id))
                        .for_each(visit);
                    return;
                }
                let mut ids: BTreeSet<TranslatorId> = BTreeSet::new();
                ids.extend(exact.into_iter().flatten().copied());
                ids.extend(patterns.into_iter().flatten().copied());
                for id in &ids {
                    let Some(e) = self.entries.get(id) else {
                        continue;
                    };
                    if (root_is_plan && exact.is_some_and(|s| s.contains(id)))
                        || query.matches(&e.profile)
                    {
                        visit(e);
                    }
                }
            }
            Some(IndexPlan::AnyDigital(direction)) => self
                .digital_by_direction
                .get(&direction)
                .into_iter()
                .flatten()
                .filter_map(|id| self.entries.get(id))
                .filter(|e| query.matches(&e.profile))
                .for_each(visit),
            None => {
                self.scan_fallbacks.set(self.scan_fallbacks.get() + 1);
                self.entries
                    .values()
                    .filter(|e| query.matches(&e.profile))
                    .for_each(visit);
            }
        }
    }

    /// How many lookups and binding resolutions have fallen back to the
    /// full table scan (queries no index can narrow: name/attribute
    /// predicates, `Or`/`Not` roots).
    pub fn scan_fallbacks(&self) -> u64 {
        self.scan_fallbacks.get()
    }

    /// Finds a digital-port demand the indexes can serve: the query
    /// itself, or any conjunct of a top-level `And` chain (every match of
    /// the conjunction also matches the conjunct, so its candidate set is
    /// a safe superset). A concrete plan is preferred over a wildcard one
    /// — its candidate list is narrower. `Or`/`Not` roots cannot narrow
    /// the scan and fall through to `None`.
    fn index_plan(query: &Query) -> Option<IndexPlan<'_>> {
        match query {
            Query::HasPort {
                direction,
                kind: PortKind::Digital(mime),
            } => {
                if mime.is_pattern() {
                    Some(IndexPlan::AnyDigital(*direction))
                } else {
                    Some(IndexPlan::Concrete(*direction, mime))
                }
            }
            Query::And(a, b) => match (Self::index_plan(a), Self::index_plan(b)) {
                (Some(c @ IndexPlan::Concrete(..)), _) => Some(c),
                (_, Some(c @ IndexPlan::Concrete(..))) => Some(c),
                (a, b) => a.or(b),
            },
            _ => None,
        }
    }

    /// A canonical FNV-1a digest of the replicated content: entry ids,
    /// profiles and home addresses, in id order. TTL bookkeeping
    /// (`expires`) and the observer-relative `local` flag are excluded,
    /// so two replicas that agree on the federation's state produce the
    /// same fingerprint regardless of which runtime computed it. The
    /// convergence battery and anti-entropy tests compare these.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (id, e) in &self.entries {
            fnv_u64(&mut h, ((id.runtime.0 as u64) << 32) | id.local as u64);
            fnv_str(&mut h, e.profile.name());
            fnv_str(&mut h, e.profile.platform());
            fnv_u64(&mut h, e.profile.shape().ports().len() as u64);
            for port in e.profile.shape().ports() {
                fnv_str(&mut h, &port.name);
                fnv_u64(&mut h, port.direction as u64);
                match &port.kind {
                    PortKind::Digital(mime) => {
                        fnv_u64(&mut h, 0);
                        fnv_str(&mut h, mime.ty());
                        fnv_str(&mut h, mime.subtype());
                    }
                    PortKind::Physical { perception, media } => {
                        fnv_u64(&mut h, 1);
                        fnv_u64(&mut h, *perception as u64);
                        fnv_str(&mut h, media);
                    }
                }
            }
            let mut attrs = 0u64;
            for (k, v) in e.profile.attrs() {
                fnv_str(&mut h, k);
                fnv_str(&mut h, v);
                attrs += 1;
            }
            fnv_u64(&mut h, attrs);
            fnv_u64(&mut h, e.home.node.index() as u64);
            fnv_u64(&mut h, e.home.port as u64);
        }
        h
    }

    /// All entries, ordered by translator id.
    pub fn iter(&self) -> impl Iterator<Item = &DirectoryEntry> {
        self.entries.values()
    }

    /// Entries hosted by this runtime.
    pub fn local_entries(&self) -> impl Iterator<Item = &DirectoryEntry> {
        self.entries.values().filter(|e| e.local)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

fn fnv_u64(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

fn fnv_str(h: &mut u64, s: &str) {
    fnv_u64(h, s.len() as u64);
    for b in s.as_bytes() {
        *h ^= *b as u64;
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::RuntimeId;
    use simnet::NodeId;

    fn profile(local: u32, name: &str) -> TranslatorProfile {
        TranslatorProfile::builder(TranslatorId::new(RuntimeId(0), local), name).build()
    }

    fn addr() -> Addr {
        Addr::new(NodeId::from_index(0), 47_001)
    }

    #[test]
    fn upsert_reports_appearance_then_refresh() {
        let mut t = DirectoryTable::new();
        let p = profile(1, "cam");
        assert_eq!(
            t.upsert(p.clone(), addr(), SimTime::from_secs(15), false),
            UpsertEffect::Appeared
        );
        assert_eq!(
            t.upsert(p, addr(), SimTime::from_secs(30), false),
            UpsertEffect::Refreshed
        );
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn expiry_skips_local_entries() {
        let mut t = DirectoryTable::new();
        t.upsert(profile(1, "remote"), addr(), SimTime::from_secs(10), false);
        t.upsert(profile(2, "local"), addr(), SimTime::from_secs(10), true);
        let dead = t.expire(SimTime::from_secs(20));
        assert_eq!(dead, vec![TranslatorId::new(RuntimeId(0), 1)]);
        assert_eq!(t.len(), 1);
        assert!(t.get(TranslatorId::new(RuntimeId(0), 2)).is_some());
    }

    #[test]
    fn refresh_extends_ttl() {
        let mut t = DirectoryTable::new();
        t.upsert(profile(1, "x"), addr(), SimTime::from_secs(10), false);
        t.upsert(profile(1, "x"), addr(), SimTime::from_secs(25), false);
        assert!(t.expire(SimTime::from_secs(20)).is_empty());
        assert_eq!(t.expire(SimTime::from_secs(25)).len(), 1);
    }

    #[test]
    fn expire_into_reuses_the_caller_buffer() {
        let mut t = DirectoryTable::new();
        t.upsert(profile(1, "a"), addr(), SimTime::from_secs(10), false);
        t.upsert(profile(2, "b"), addr(), SimTime::from_secs(40), false);
        let mut scratch = Vec::new();
        t.expire_into(SimTime::from_secs(20), &mut scratch);
        assert_eq!(scratch, vec![TranslatorId::new(RuntimeId(0), 1)]);
        // A quiet tick clears the buffer but keeps its capacity.
        let cap = scratch.capacity();
        t.expire_into(SimTime::from_secs(25), &mut scratch);
        assert!(scratch.is_empty());
        assert_eq!(scratch.capacity(), cap);
    }

    #[test]
    fn max_ttl_entries_never_enter_the_expiry_heap() {
        let mut t = DirectoryTable::new();
        // Delta-gossip remotes carry MAX expiry (origin-level liveness);
        // the heap must stay empty so a million-entry table doesn't drag
        // a million dead weights through every tick.
        t.upsert(profile(1, "remote"), addr(), SimTime::MAX, false);
        assert!(t.expiry.is_empty());
        assert!(t.expire(SimTime::from_secs(1_000_000)).is_empty());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn lookup_filters() {
        let mut t = DirectoryTable::new();
        t.upsert(profile(1, "Camera"), addr(), SimTime::MAX, true);
        t.upsert(profile(2, "Printer"), addr(), SimTime::MAX, true);
        let q = Query::NameContains("cam".to_owned());
        let hits = t.lookup(&q);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].name(), "Camera");
        assert_eq!(t.lookup(&Query::All).len(), 2);
        assert!(t.lookup(&Query::None).is_empty());
    }

    fn shaped_profile(
        local: u32,
        name: &str,
        ports: &[(&str, Direction, &str)],
    ) -> TranslatorProfile {
        let mut b = crate::shape::Shape::builder();
        for (pname, dir, mime) in ports {
            b = b.digital(pname, *dir, mime.parse().expect("test mime"));
        }
        TranslatorProfile::builder(TranslatorId::new(RuntimeId(0), local), name)
            .shape(b.build().expect("test shape"))
            .build()
    }

    /// A table mixing concrete, wildcard, and port-less profiles, for the
    /// index/scan agreement battery.
    fn mixed_table() -> DirectoryTable {
        let mut t = DirectoryTable::new();
        t.upsert(
            shaped_profile(
                1,
                "Camera",
                &[("image-out", Direction::Output, "image/jpeg")],
            ),
            addr(),
            SimTime::MAX,
            true,
        );
        t.upsert(
            shaped_profile(
                2,
                "Printer",
                &[("image-in", Direction::Input, "image/jpeg")],
            ),
            addr(),
            SimTime::MAX,
            true,
        );
        t.upsert(
            shaped_profile(3, "Display", &[("media-in", Direction::Input, "image/*")]),
            addr(),
            SimTime::MAX,
            false,
        );
        t.upsert(
            shaped_profile(
                4,
                "Recorder",
                &[
                    ("audio-in", Direction::Input, "audio/pcm"),
                    ("audio-out", Direction::Output, "audio/pcm"),
                ],
            ),
            addr(),
            SimTime::MAX,
            false,
        );
        t.upsert(profile(5, "Plain"), addr(), SimTime::MAX, false);
        t
    }

    /// Reference implementation: the pre-index full scan.
    fn scan<'a>(t: &'a DirectoryTable, q: &Query) -> Vec<&'a TranslatorProfile> {
        t.iter()
            .map(|e| &e.profile)
            .filter(|p| q.matches(p))
            .collect()
    }

    #[test]
    fn indexed_lookup_agrees_with_scan() {
        let t = mixed_table();
        let jpeg_in = Query::has_port(
            Direction::Input,
            PortKind::Digital("image/jpeg".parse().expect("mime")),
        );
        let queries = vec![
            Query::All,
            Query::None,
            jpeg_in.clone(),
            Query::has_port(
                Direction::Output,
                PortKind::Digital("image/jpeg".parse().expect("mime")),
            ),
            Query::has_port(
                Direction::Input,
                PortKind::Digital("audio/pcm".parse().expect("mime")),
            ),
            // Pattern queries: served from the per-direction side list.
            Query::has_port(
                Direction::Input,
                PortKind::Digital("image/*".parse().expect("mime")),
            ),
            Query::has_port(Direction::Input, PortKind::Digital(MimeType::any())),
            Query::has_port(Direction::Output, PortKind::Digital(MimeType::any())),
            // Unknown type: indexed path returns only wildcard candidates.
            Query::has_port(
                Direction::Input,
                PortKind::Digital("image/png".parse().expect("mime")),
            ),
            // Conjunctions pick the indexable conjunct from either side.
            jpeg_in.clone().and(Query::NameContains("print".to_owned())),
            Query::NameContains("disp".to_owned()).and(jpeg_in.clone()),
            // A concrete conjunct beats a pattern conjunct.
            Query::has_port(Direction::Input, PortKind::Digital(MimeType::any()))
                .and(jpeg_in.clone()),
            // Disjunction and negation stay on the scan path.
            jpeg_in.clone().or(Query::NameIs("Plain".to_owned())),
            jpeg_in.clone().not(),
        ];
        for q in &queries {
            assert_eq!(t.lookup(q), scan(&t, q), "index/scan disagree on {q:?}");
        }
    }

    #[test]
    fn port_queries_never_fall_back_to_the_scan() {
        let t = mixed_table();
        let port_queries = vec![
            Query::has_port(
                Direction::Input,
                PortKind::Digital("image/jpeg".parse().expect("mime")),
            ),
            // Double-wildcard and half-wildcard patterns: the side list
            // serves them without touching non-digital entries.
            Query::has_port(Direction::Input, PortKind::Digital(MimeType::any())),
            Query::has_port(Direction::Output, PortKind::Digital(MimeType::any())),
            Query::has_port(
                Direction::Input,
                PortKind::Digital("image/*".parse().expect("mime")),
            ),
            Query::has_port(
                Direction::Output,
                PortKind::Digital("*/pcm".parse().expect("mime")),
            ),
            Query::has_port(Direction::Input, PortKind::Digital(MimeType::any()))
                .and(Query::NameContains("disp".to_owned())),
        ];
        for q in &port_queries {
            assert_eq!(t.lookup(q), scan(&t, q), "index/scan disagree on {q:?}");
        }
        assert_eq!(
            t.scan_fallbacks(),
            0,
            "digital port queries must be index-served"
        );
        // Non-port predicates legitimately scan.
        t.lookup(&Query::NameContains("cam".to_owned()));
        assert_eq!(t.scan_fallbacks(), 1);
    }

    #[test]
    fn index_follows_refresh_remove_and_expiry() {
        let mut t = mixed_table();
        let jpeg_in = Query::has_port(
            Direction::Input,
            PortKind::Digital("image/jpeg".parse().expect("mime")),
        );
        // Printer (concrete) + Display (wildcard) match.
        assert_eq!(t.lookup(&jpeg_in).len(), 2);

        // A refresh that changes the shape must re-index: the printer now
        // only takes PostScript.
        t.upsert(
            shaped_profile(
                2,
                "Printer",
                &[("ps-in", Direction::Input, "application/postscript")],
            ),
            addr(),
            SimTime::MAX,
            true,
        );
        assert_eq!(t.lookup(&jpeg_in), scan(&t, &jpeg_in));
        assert_eq!(t.lookup(&jpeg_in).len(), 1);

        // Explicit bye for the wildcard display.
        t.remove(TranslatorId::new(RuntimeId(0), 3));
        assert!(t.lookup(&jpeg_in).is_empty());
        assert_eq!(t.lookup(&jpeg_in), scan(&t, &jpeg_in));

        // Expiry deindexes too: re-add the display with a short TTL.
        t.upsert(
            shaped_profile(3, "Display", &[("media-in", Direction::Input, "image/*")]),
            addr(),
            SimTime::from_secs(5),
            false,
        );
        assert_eq!(t.lookup(&jpeg_in).len(), 1);
        t.expire(SimTime::from_secs(10));
        assert!(t.lookup(&jpeg_in).is_empty());
        assert_eq!(t.lookup(&jpeg_in), scan(&t, &jpeg_in));

        // The wildcard side list follows as well.
        let any_in = Query::has_port(Direction::Input, PortKind::Digital(MimeType::any()));
        assert_eq!(t.lookup(&any_in), scan(&t, &any_in));
    }

    /// Reference implementation of binding resolution: the pre-index
    /// runtime scan over every entry.
    fn scan_bindings(
        t: &DirectoryTable,
        query: &Query,
        src: TranslatorId,
        src_kind: &PortKind,
    ) -> Vec<(PortRef, Option<Addr>)> {
        let mut out = Vec::new();
        for entry in t.iter() {
            let profile = &entry.profile;
            if profile.id() == src || !query.matches(profile) {
                continue;
            }
            let port = profile
                .shape()
                .ports_in(Direction::Input)
                .find(|p| p.kind.is_digital() && p.kind.matches(src_kind));
            if let Some(port) = port {
                out.push((
                    PortRef::new(profile.id(), port.name.clone()),
                    if entry.local { None } else { Some(entry.home) },
                ));
            }
        }
        out
    }

    const MIMES: [&str; 7] = [
        "image/jpeg",
        "image/png",
        "audio/pcm",
        "text/plain",
        "image/*",
        "*/pcm",
        "*/*",
    ];

    fn arb_kind(rng: &mut simnet::SimRng) -> PortKind {
        if rng.gen_bool(0.1) {
            PortKind::physical(crate::shape::PerceptionType::Visible, "screen")
        } else {
            let mime = MIMES[rng.gen_range(0..MIMES.len())];
            PortKind::Digital(mime.parse().expect("test mime"))
        }
    }

    fn arb_direction(rng: &mut simnet::SimRng) -> Direction {
        if rng.gen_bool(0.5) {
            Direction::Input
        } else {
            Direction::Output
        }
    }

    /// A random federation view: entries of runtime 0 are local, the
    /// rest remote with a home per runtime; ports mix concrete, pattern
    /// and physical kinds in both directions.
    fn arb_table(rng: &mut simnet::SimRng) -> DirectoryTable {
        let mut t = DirectoryTable::new();
        for i in 0..rng.gen_range(0usize..40) {
            let rt = rng.gen_range(0u32..4);
            let mut b = crate::shape::Shape::builder();
            for k in 0..rng.gen_range(0usize..5) {
                let name = format!("p{k}");
                let dir = arb_direction(rng);
                b = match arb_kind(rng) {
                    PortKind::Digital(mime) => b.digital(&name, dir, mime),
                    PortKind::Physical { perception, media } => {
                        b.physical(&name, dir, perception, &media)
                    }
                };
            }
            let name = ["Camera", "Printer", "Display", "Speaker"][i % 4];
            let profile =
                TranslatorProfile::builder(TranslatorId::new(RuntimeId(rt), i as u32), name)
                    .shape(b.build().expect("unique port names"))
                    .build();
            let home = Addr::new(NodeId::from_index(rt as usize), 47_001);
            t.upsert(profile, home, SimTime::MAX, rt == 0);
        }
        t
    }

    fn arb_binding_query(rng: &mut simnet::SimRng) -> Query {
        let port = Query::has_port(arb_direction(rng), arb_kind(rng));
        match rng.gen_range(0u8..6) {
            0 | 1 => port,
            2 => port.and(Query::NameContains("a".to_owned())),
            3 => Query::NameContains("r".to_owned()).and(port),
            4 => port.or(Query::NameIs("Camera".to_owned())),
            _ => Query::All,
        }
    }

    #[test]
    fn bindings_agree_with_the_scan() {
        simnet::check_cases("bindings_agree_with_the_scan", 256, |_, rng| {
            let t = arb_table(rng);
            for _ in 0..8 {
                let query = arb_binding_query(rng);
                let src_kind = arb_kind(rng);
                // The source is sometimes in the table, sometimes not.
                let src =
                    TranslatorId::new(RuntimeId(rng.gen_range(0u32..4)), rng.gen_range(0u32..40));
                let planned = DirectoryTable::index_plan(&query).is_some();
                let before = t.scan_fallbacks();
                assert_eq!(
                    t.bindings(&query, src, &src_kind),
                    scan_bindings(&t, &query, src, &src_kind),
                    "bindings disagree with the scan on {query} from {src_kind}"
                );
                let scanned = t.scan_fallbacks() - before;
                assert_eq!(
                    scanned,
                    u64::from(!planned),
                    "{query} scanned {scanned} time(s)"
                );
            }
        });
    }

    #[test]
    fn origin_home_reads_any_remote_entry_of_that_runtime() {
        let mut t = DirectoryTable::new();
        let home = |node| Addr::new(NodeId::from_index(node), 47_001);
        for (rt, local, is_local) in [(0, 3, true), (1, 0, false), (1, 9, false), (3, 2, false)] {
            t.upsert(
                profile(local, "svc").with_id(TranslatorId::new(RuntimeId(rt), local)),
                home(rt as usize + 10),
                SimTime::MAX,
                is_local,
            );
        }
        assert_eq!(t.origin_home(RuntimeId(1)), Some(home(11)));
        assert_eq!(t.origin_home(RuntimeId(3)), Some(home(13)));
        // No entry from runtime 2; runtime 0's only entry is local.
        assert_eq!(t.origin_home(RuntimeId(2)), None);
        assert_eq!(t.origin_home(RuntimeId(0)), None);
    }

    #[test]
    fn remove_origin_drops_exactly_that_origin() {
        let mut t = DirectoryTable::new();
        for (rt, local, name) in [(1, 0, "a"), (1, 7, "b"), (2, 0, "c"), (3, 1, "d")] {
            t.upsert(
                shaped_profile(local, name, &[("o", Direction::Output, "x/y")])
                    .with_id(TranslatorId::new(RuntimeId(rt), local)),
                addr(),
                SimTime::MAX,
                false,
            );
        }
        let mut gone = Vec::new();
        t.remove_origin(RuntimeId(1), &mut gone);
        assert_eq!(
            gone,
            vec![
                TranslatorId::new(RuntimeId(1), 0),
                TranslatorId::new(RuntimeId(1), 7)
            ]
        );
        assert_eq!(t.len(), 2);
        assert_eq!(t.origin_entries(RuntimeId(1)).count(), 0);
        assert_eq!(t.origin_entries(RuntimeId(2)).count(), 1);
        // The index dropped the removed origin's postings.
        let q = Query::has_port(
            Direction::Output,
            PortKind::Digital("x/y".parse().expect("mime")),
        );
        assert_eq!(t.lookup(&q), scan(&t, &q));
        assert_eq!(t.lookup(&q).len(), 2);
    }

    #[test]
    fn fingerprint_tracks_replicated_content_only() {
        let build = |local_flag: bool, ttl: SimTime| {
            let mut t = DirectoryTable::new();
            t.upsert(
                shaped_profile(1, "Cam", &[("o", Direction::Output, "image/jpeg")]),
                addr(),
                ttl,
                local_flag,
            );
            t.upsert(profile(2, "Plain"), addr(), ttl, false);
            t
        };
        // Observer-relative liveness bookkeeping must not change the
        // digest; content must.
        let a = build(true, SimTime::MAX);
        let b = build(false, SimTime::from_secs(15));
        assert_eq!(a.fingerprint(), b.fingerprint());
        let mut c = build(true, SimTime::MAX);
        c.upsert(profile(3, "Extra"), addr(), SimTime::MAX, false);
        assert_ne!(a.fingerprint(), c.fingerprint());
        let mut d = build(true, SimTime::MAX);
        d.remove(TranslatorId::new(RuntimeId(0), 2));
        d.upsert(profile(2, "Plain2"), addr(), SimTime::MAX, false);
        assert_ne!(a.fingerprint(), d.fingerprint());
    }

    #[test]
    fn remove_returns_entry() {
        let mut t = DirectoryTable::new();
        t.upsert(profile(1, "x"), addr(), SimTime::MAX, false);
        let e = t.remove(TranslatorId::new(RuntimeId(0), 1)).unwrap();
        assert_eq!(e.profile.name(), "x");
        assert!(t.is_empty());
        assert!(t.remove(TranslatorId::new(RuntimeId(0), 1)).is_none());
    }
}
