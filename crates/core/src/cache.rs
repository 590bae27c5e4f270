//! Generation-keyed memoization for repeated query traffic.
//!
//! Corpus generations are immutable once committed (PR 3/4): a hot
//! reload builds a whole new snapshot and swaps one shared pointer.
//! That makes memoization trivially sound — an entry computed against a
//! snapshot is valid for as long as *that* snapshot is being queried,
//! and invalidation is implicit: new snapshots carry a fresh
//! [`GenerationTag`], so their lookups can never observe entries from a
//! previous generation, while in-flight requests that pinned the old
//! `Arc` keep hitting their own coherent entries until LRU pressure
//! ages them out.
//!
//! Three tiers are cached, mirroring the evaluation pipeline:
//!
//! * **postings** — the `σ_{keyword=k}` leaf sets per `(generation,
//!   document, term)`, i.e. the operand sets of Definition 7 queries;
//! * **fixpoint** — the fixed points `F⁺` (Definition 9) per
//!   `(generation, document, term, mode)`, the dominant cost of the
//!   §3.1 strategies;
//! * **result** — full per-document answers per `(generation, document,
//!   normalized query, strategy, budget-policy fingerprint, achieved
//!   degradation rung)`.
//!
//! # Key normalization
//!
//! [`Query::new`] already normalizes and dedups terms but preserves
//! first-occurrence order; [`ResultKey`] additionally *sorts* the terms,
//! so `Q{a,b}` and `Q{b,a}` share one entry (conjunction is
//! order-insensitive).
//!
//! # Degradation-rung soundness
//!
//! A degraded answer is a sound *subset* of the exact answer — correct
//! for the budget that produced it, wrong for a roomier one. Result
//! entries therefore carry both the **policy fingerprint** (the
//! configured work limits and degrade mode — wall-clock and cancel
//! presence only, since serve recomputes the remaining deadline per
//! request) and the **achieved rung**. Lookups always probe the exact
//! (rung 0) entry first; entries on lower rungs are probed only when the
//! fingerprint is deterministic (no wall-clock, no cancel token), where
//! an identical request provably lands on the identical rung. A
//! full-budget request has a different fingerprint from any limited one,
//! so it can never be answered from a degraded entry.
//!
//! # Sharding and locking
//!
//! The cache is split into [`SHARDS`] independent `Mutex<Shard>`s
//! selected by key hash; the serve worker pool shares one cache and
//! workers only contend when two requests land on the same shard.
//! Each shard runs its own LRU over its own byte budget
//! (`max_bytes / SHARDS`) using a stamp queue: touching an entry pushes
//! a fresh `(stamp, key)` pair, eviction pops from the front and skips
//! stale stamps. Entries larger than a whole shard budget are not
//! admitted at all (a single whale would otherwise evict everything and
//! then itself).
//!
//! Stale pairs would otherwise pile up until eviction reaches them — one
//! key clone per hit and per carried entry, forever on a cache that
//! never fills. So whenever the queue outgrows `2·entries + 64` the
//! shard drops its stale pairs in place: the queue then holds exactly
//! one pair per live entry, still oldest first, so eviction order stays
//! exact LRU. Each compaction removes more stale pairs than it keeps
//! live ones, so its cost is amortized O(1) per touch.

use crate::budget::{Degradation, DegradeMode, ExecPolicy, Rung};
use crate::fixpoint::FixpointMode;
use crate::query::{Query, QueryResult, Strategy};
use crate::set::FragmentSet;
use crate::stats::EvalStats;
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Number of independent lock shards.
pub const SHARDS: usize = 8;

/// Process-unique identity of one corpus snapshot.
///
/// Allocate one with [`GenerationTag::fresh`] whenever a new snapshot
/// (an `Arc`'d generation, a freshly loaded document, …) comes into
/// existence, and key every cache interaction for that snapshot with it.
/// Tags are never reused within a process, so a reloaded generation can
/// never collide with a retired one (no ABA on recycled `Arc`
/// addresses).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GenerationTag(u64);

impl GenerationTag {
    /// A tag no other snapshot in this process has or will have.
    pub fn fresh() -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        GenerationTag(NEXT.fetch_add(1, Ordering::Relaxed))
    }

    /// The raw tag value (for logs and stats output).
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

/// The parts of an [`ExecPolicy`] that select which cached results a
/// request may observe. Work limits are kept verbatim; the wall clock
/// and cancel token are reduced to presence flags because their values
/// vary per request (serve derives the remaining deadline from
/// admission time) and any policy with either is nondeterministic
/// anyway.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PolicyFp {
    wall_clocked: bool,
    cancellable: bool,
    max_joins: Option<u64>,
    max_fragments: Option<u64>,
    max_nodes_merged: Option<u64>,
    ladder: bool,
}

impl PolicyFp {
    /// Fingerprint `policy`.
    pub fn of(policy: &ExecPolicy) -> Self {
        PolicyFp {
            wall_clocked: policy.budget.wall_clock.is_some(),
            cancellable: policy.cancel.is_some(),
            max_joins: policy.budget.max_joins,
            max_fragments: policy.budget.max_fragments,
            max_nodes_merged: policy.budget.max_nodes_merged,
            ladder: matches!(policy.degrade, DegradeMode::Ladder),
        }
    }

    /// Whether two runs under this policy provably do the same work —
    /// no wall clock and no cancel token, so only deterministic work
    /// limits can trip. Degraded entries are reusable exactly then.
    pub fn is_deterministic(&self) -> bool {
        !self.wall_clocked && !self.cancellable
    }
}

/// Cache key for one per-document query result (tier c), minus the rung.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ResultKey {
    gen: GenerationTag,
    doc: u32,
    /// Sorted, deduped, normalized terms — see the module docs.
    terms: Vec<String>,
    /// `Debug` fingerprint of the filter expression (`"True"` when
    /// there is no predicate).
    filter: String,
    strict: bool,
    strategy: Strategy,
    policy: PolicyFp,
}

impl ResultKey {
    /// Build the normalized key for `query` under `policy`.
    pub fn new(
        gen: GenerationTag,
        doc: u32,
        query: &Query,
        strategy: Strategy,
        policy: &ExecPolicy,
    ) -> Self {
        let mut terms = query.terms.clone();
        terms.sort();
        terms.dedup();
        ResultKey {
            gen,
            doc,
            terms,
            filter: format!("{:?}", query.filter),
            strict: query.strict_leaf_semantics,
            strategy,
            policy: PolicyFp::of(policy),
        }
    }

    /// The policy fingerprint baked into this key.
    pub fn policy(&self) -> PolicyFp {
        self.policy
    }
}

/// Stable wire code for the achieved rung: `0` = completed exactly,
/// `1..=4` = the ladder rungs in order.
fn rung_code(rung: Option<Rung>) -> u8 {
    match rung {
        None => 0,
        Some(Rung::Full) => 1,
        Some(Rung::ReducedSets) => 2,
        Some(Rung::TopCandidates) => 3,
        Some(Rung::SlcaApprox) => 4,
    }
}

/// A stored per-document answer: the fragments, the *pure compute*
/// counters (cache observability fields zeroed, so a replay reports
/// exactly what an uncached run would), and the degradation report.
#[derive(Debug, Clone)]
pub struct CachedResult {
    /// Answer fragments, in their original insertion order.
    pub fragments: FragmentSet,
    /// Compute counters of the run that produced the entry.
    pub stats: EvalStats,
    /// How that run degraded (or [`Degradation::none`]).
    pub degradation: Degradation,
}

/// Everything an evaluation call needs to talk to the cache: the shared
/// cache, the snapshot identity, and which document is being evaluated.
#[derive(Clone, Copy)]
pub struct CacheRef<'a> {
    /// The shared cache.
    pub cache: &'a QueryCache,
    /// Identity of the corpus snapshot the evaluation pinned.
    pub gen: GenerationTag,
    /// Document key within that snapshot (collection `DocId` value, or
    /// 0 for single-document evaluation).
    pub doc: u32,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Key {
    Postings {
        gen: GenerationTag,
        doc: u32,
        term: String,
    },
    Fixpoint {
        gen: GenerationTag,
        doc: u32,
        term: String,
        reduced: bool,
    },
    Result {
        base: ResultKey,
        rung: u8,
    },
}

impl Key {
    fn generation(&self) -> GenerationTag {
        match self {
            Key::Postings { gen, .. } | Key::Fixpoint { gen, .. } => *gen,
            Key::Result { base, .. } => base.gen,
        }
    }

    fn doc(&self) -> u32 {
        match self {
            Key::Postings { doc, .. } | Key::Fixpoint { doc, .. } => *doc,
            Key::Result { base, .. } => base.doc,
        }
    }

    /// The same logical key under a new snapshot identity and document
    /// id — how carry-over migrates an entry across a delta reload.
    fn rekey(self, gen: GenerationTag, doc: u32) -> Key {
        match self {
            Key::Postings { term, .. } => Key::Postings { gen, doc, term },
            Key::Fixpoint { term, reduced, .. } => Key::Fixpoint {
                gen,
                doc,
                term,
                reduced,
            },
            Key::Result { base, rung } => Key::Result {
                base: ResultKey { gen, doc, ..base },
                rung,
            },
        }
    }
}

#[derive(Debug, Clone)]
enum Value {
    Postings(FragmentSet),
    Fixpoint { set: FragmentSet, delta: EvalStats },
    Result(CachedResult),
}

struct Entry {
    value: Value,
    bytes: u64,
    stamp: u64,
}

#[derive(Default)]
struct Shard {
    map: HashMap<Key, Entry>,
    /// LRU stamp queue: `(stamp, key)` pairs, oldest first; entries
    /// whose stamp no longer matches the map are stale and skipped.
    queue: VecDeque<(u64, Key)>,
    tick: u64,
    bytes: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    insertions: u64,
}

impl Shard {
    fn touch(&mut self, key: &Key) {
        self.tick += 1;
        let stamp = self.tick;
        if let Some(e) = self.map.get_mut(key) {
            e.stamp = stamp;
        }
        self.queue.push_back((stamp, key.clone()));
        self.bound_queue();
    }

    fn evict_to(&mut self, budget: u64) {
        while self.bytes > budget {
            let Some((stamp, key)) = self.queue.pop_front() else {
                break;
            };
            let live = self.map.get(&key).is_some_and(|e| e.stamp == stamp);
            if live {
                // invariant: `live` checked the key is present.
                let e = self.map.remove(&key).unwrap();
                self.bytes -= e.bytes;
                self.evictions += 1;
            }
        }
        self.bound_queue();
    }

    /// Keep `queue.len() <= 2·map.len() + QUEUE_SLACK` on every path
    /// that releases the shard lock: past the bound, drop the stale
    /// pairs in place (order-preserving, so eviction stays exact LRU).
    fn bound_queue(&mut self) {
        if self.queue.len() > 2 * self.map.len() + QUEUE_SLACK {
            let map = &self.map;
            self.queue
                .retain(|(stamp, key)| map.get(key).is_some_and(|e| e.stamp == *stamp));
        }
    }
}

/// Stale stamp-queue pairs a shard tolerates beyond twice its live
/// entries before compacting.
const QUEUE_SLACK: usize = 64;

/// Rough heap footprint of a fragment set: per-fragment node storage
/// plus container overhead. An estimate is all the LRU needs — it only
/// has to scale with the real footprint.
fn set_bytes(set: &FragmentSet) -> u64 {
    48 + set.iter().map(|f| 32 + 4 * f.size() as u64).sum::<u64>()
}

fn value_bytes(key: &Key, value: &Value) -> u64 {
    let key_bytes = match key {
        Key::Postings { term, .. } => 32 + term.len() as u64,
        Key::Fixpoint { term, .. } => 40 + term.len() as u64,
        Key::Result { base, .. } => {
            64 + base.terms.iter().map(|t| 24 + t.len() as u64).sum::<u64>()
                + base.filter.len() as u64
        }
    };
    let value_bytes = match value {
        Value::Postings(set) => set_bytes(set),
        Value::Fixpoint { set, .. } => set_bytes(set) + 96,
        Value::Result(r) => set_bytes(&r.fragments) + 192,
    };
    key_bytes + value_bytes
}

const TIER_POSTINGS: usize = 0;
const TIER_FIXPOINT: usize = 1;
const TIER_RESULT: usize = 2;

/// Sharded, size-bounded, generation-keyed LRU cache — see the module
/// docs for the tier layout and soundness argument.
pub struct QueryCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_bytes: u64,
    tier_hits: [AtomicU64; 3],
    tier_misses: [AtomicU64; 3],
}

impl std::fmt::Debug for QueryCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryCache")
            .field("shards", &self.shards.len())
            .field("per_shard_bytes", &self.per_shard_bytes)
            .finish()
    }
}

impl QueryCache {
    /// A cache bounded at roughly `max_bytes` across [`SHARDS`] shards.
    pub fn new(max_bytes: u64) -> Self {
        QueryCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard_bytes: (max_bytes / SHARDS as u64).max(1),
            tier_hits: Default::default(),
            tier_misses: Default::default(),
        }
    }

    /// A cache bounded at `mb` megabytes (the `--cache-mb` unit).
    pub fn with_capacity_mb(mb: u64) -> Self {
        QueryCache::new(mb.saturating_mul(1024 * 1024))
    }

    fn shard_of(&self, key: &Key) -> &Mutex<Shard> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[h.finish() as usize % self.shards.len()]
    }

    /// Raw probe: touches the LRU and bumps per-shard probe counters,
    /// but not the logical tier counters (one logical lookup may probe
    /// several rungs).
    fn probe(&self, key: &Key) -> Option<Value> {
        // invariant (here and below): shard mutexes only guard plain
        // counter/map updates that cannot panic, so they are never
        // poisoned.
        let mut shard = self.shard_of(key).lock().unwrap();
        if shard.map.contains_key(key) {
            shard.touch(key);
            shard.hits += 1;
            Some(shard.map[key].value.clone())
        } else {
            shard.misses += 1;
            None
        }
    }

    fn store(&self, key: Key, value: Value) {
        let bytes = value_bytes(&key, &value);
        if bytes > self.per_shard_bytes {
            return; // never admit an entry a whole shard can't hold
        }
        let budget = self.per_shard_bytes;
        let mut shard = self.shard_of(&key).lock().unwrap();
        if let Some(old) = shard.map.get(&key) {
            shard.bytes -= old.bytes;
        }
        shard.bytes += bytes;
        shard.insertions += 1;
        let stamp = shard.tick + 1;
        shard.map.insert(
            key.clone(),
            Entry {
                value,
                bytes,
                stamp,
            },
        );
        shard.touch(&key);
        shard.evict_to(budget);
    }

    fn tier_hit(&self, tier: usize) {
        self.tier_hits[tier].fetch_add(1, Ordering::Relaxed);
    }

    fn tier_miss(&self, tier: usize) {
        self.tier_misses[tier].fetch_add(1, Ordering::Relaxed);
    }

    /// Tier (a): the `σ_{keyword=term}` operand set for one document.
    pub fn get_postings(&self, gen: GenerationTag, doc: u32, term: &str) -> Option<FragmentSet> {
        let key = Key::Postings {
            gen,
            doc,
            term: term.to_string(),
        };
        match self.probe(&key) {
            Some(Value::Postings(set)) => {
                self.tier_hit(TIER_POSTINGS);
                Some(set)
            }
            _ => {
                self.tier_miss(TIER_POSTINGS);
                None
            }
        }
    }

    /// Store a tier (a) operand set.
    pub fn put_postings(&self, gen: GenerationTag, doc: u32, term: &str, set: &FragmentSet) {
        self.store(
            Key::Postings {
                gen,
                doc,
                term: term.to_string(),
            },
            Value::Postings(set.clone()),
        );
    }

    /// Tier (b): `F⁺` for one `(document, term, mode)`, together with
    /// the [`EvalStats`] delta its computation cost (replayed on hit so
    /// cached and uncached runs report identical compute counters; the
    /// delta differs between naive and reduced mode, hence mode is part
    /// of the key even though the *set* is mode-independent).
    pub fn get_fixpoint(
        &self,
        gen: GenerationTag,
        doc: u32,
        term: &str,
        mode: FixpointMode,
    ) -> Option<(FragmentSet, EvalStats)> {
        let key = Key::Fixpoint {
            gen,
            doc,
            term: term.to_string(),
            reduced: mode == FixpointMode::Reduced,
        };
        match self.probe(&key) {
            Some(Value::Fixpoint { set, delta }) => {
                self.tier_hit(TIER_FIXPOINT);
                Some((set, delta))
            }
            _ => {
                self.tier_miss(TIER_FIXPOINT);
                None
            }
        }
    }

    /// Store a tier (b) fixed point and its compute delta.
    pub fn put_fixpoint(
        &self,
        gen: GenerationTag,
        doc: u32,
        term: &str,
        mode: FixpointMode,
        set: &FragmentSet,
        delta: EvalStats,
    ) {
        self.store(
            Key::Fixpoint {
                gen,
                doc,
                term: term.to_string(),
                reduced: mode == FixpointMode::Reduced,
            },
            Value::Fixpoint {
                set: set.clone(),
                delta: delta.without_cache_counters(),
            },
        );
    }

    /// Tier (c): a full per-document answer. Probes the exact (rung 0)
    /// entry first; degraded rungs are probed only for deterministic
    /// policy fingerprints — see the module docs.
    pub fn get_result(&self, key: &ResultKey) -> Option<CachedResult> {
        let max_code: u8 = if key.policy.is_deterministic() { 4 } else { 0 };
        for rung in 0..=max_code {
            if let Some(Value::Result(r)) = self.probe(&Key::Result {
                base: key.clone(),
                rung,
            }) {
                self.tier_hit(TIER_RESULT);
                return Some(r);
            }
        }
        self.tier_miss(TIER_RESULT);
        None
    }

    /// Store a tier (c) answer under its achieved rung. Degraded
    /// answers under nondeterministic fingerprints are not stored at
    /// all: no future lookup would be allowed to observe them.
    pub fn put_result(&self, key: &ResultKey, result: &QueryResult) {
        let rung = rung_code(result.degradation.rung);
        if rung != 0 && !key.policy.is_deterministic() {
            return;
        }
        self.store(
            Key::Result {
                base: key.clone(),
                rung,
            },
            Value::Result(CachedResult {
                fragments: result.fragments.clone(),
                stats: result.stats.without_cache_counters(),
                degradation: result.degradation.clone(),
            }),
        );
    }

    /// Migrate entries across a delta reload: every entry keyed to the
    /// `old` snapshot whose document appears in `doc_map` (old `DocId`
    /// value → new `DocId` value, *unchanged documents only*) is rekeyed
    /// to the `new` snapshot; entries for changed or removed documents
    /// are dropped.
    ///
    /// Soundness: all three tiers are per-document. A document whose
    /// file bytes are identical across generations decodes to the
    /// identical tree with the identical `NodeId`s, so its postings,
    /// fixed points, and full per-document answers — including the
    /// policy fingerprint and achieved degradation rung baked into
    /// result keys — are byte-identical to what a cold evaluation
    /// against the new snapshot would compute. The caller is
    /// responsible for mapping only such documents.
    ///
    /// In-flight requests still pinned to the old snapshot simply miss
    /// on their moved entries and recompute — a performance effect, not
    /// a correctness one.
    pub fn carry_over(
        &self,
        old: GenerationTag,
        new: GenerationTag,
        doc_map: &HashMap<u32, u32>,
    ) -> CarryOver {
        let mut out = CarryOver::default();
        let mut moved: Vec<(Key, Value)> = Vec::new();
        for shard in &self.shards {
            let mut s = shard.lock().unwrap();
            let old_keys: Vec<Key> = s
                .map
                .keys()
                .filter(|k| k.generation() == old)
                .cloned()
                .collect();
            for k in old_keys {
                // invariant: key came from the map under this lock.
                let e = s.map.remove(&k).unwrap();
                s.bytes -= e.bytes;
                match doc_map.get(&k.doc()) {
                    Some(&new_doc) => {
                        if new_doc == k.doc() {
                            out.kept += 1;
                        } else {
                            out.rekeyed += 1;
                        }
                        moved.push((k.rekey(new, new_doc), e.value));
                    }
                    None => out.evicted += 1,
                }
            }
            s.bound_queue();
        }
        // Reinsert outside the per-shard drain: a rekeyed entry may hash
        // to a different shard, and `store` handles sharding, byte
        // accounting, and LRU pressure uniformly.
        for (k, v) in moved {
            self.store(k, v);
        }
        out
    }

    /// Snapshot every counter.
    pub fn stats(&self) -> CacheStats {
        let tier = |i: usize| TierCounters {
            hits: self.tier_hits[i].load(Ordering::Relaxed),
            misses: self.tier_misses[i].load(Ordering::Relaxed),
        };
        let mut out = CacheStats {
            postings: tier(TIER_POSTINGS),
            fixpoint: tier(TIER_FIXPOINT),
            result: tier(TIER_RESULT),
            ..CacheStats::default()
        };
        for s in &self.shards {
            let s = s.lock().unwrap();
            out.evictions += s.evictions;
            out.insertions += s.insertions;
            out.bytes += s.bytes;
            out.entries += s.map.len() as u64;
            out.shards.push(ShardCounters {
                hits: s.hits,
                misses: s.misses,
                evictions: s.evictions,
                bytes: s.bytes,
                entries: s.map.len() as u64,
            });
        }
        out
    }
}

/// Counters from one [`QueryCache::carry_over`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CarryOver {
    /// Entries migrated to the new snapshot under an unchanged
    /// document id.
    pub kept: u64,
    /// Entries migrated under a remapped document id (documents shift
    /// ids when a delta adds or removes neighbors in sort order).
    pub rekeyed: u64,
    /// Entries dropped because their document changed or was removed.
    pub evicted: u64,
}

impl CarryOver {
    /// Fold another pass's counters into this one (serve accumulates
    /// across reloads).
    pub fn absorb(&mut self, other: CarryOver) {
        self.kept += other.kept;
        self.rekeyed += other.rekeyed;
        self.evicted += other.evicted;
    }
}

/// Logical hit/miss counters for one tier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierCounters {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to computation.
    pub misses: u64,
}

/// Raw probe/occupancy counters for one lock shard. Shard hit/miss
/// counters count *probes* (a single logical result lookup may probe up
/// to five rung slots), so they need not sum to the tier counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardCounters {
    /// Probes that found a live entry.
    pub hits: u64,
    /// Probes that found nothing.
    pub misses: u64,
    /// Entries removed by LRU pressure.
    pub evictions: u64,
    /// Estimated bytes currently held.
    pub bytes: u64,
    /// Entries currently held.
    pub entries: u64,
}

/// Point-in-time snapshot of every cache counter.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Tier (a) — term postings.
    pub postings: TierCounters,
    /// Tier (b) — fixed points.
    pub fixpoint: TierCounters,
    /// Tier (c) — full results.
    pub result: TierCounters,
    /// Total LRU evictions across shards.
    pub evictions: u64,
    /// Total insertions across shards.
    pub insertions: u64,
    /// Estimated bytes held across shards.
    pub bytes: u64,
    /// Entries held across shards.
    pub entries: u64,
    /// Per-shard raw counters, in shard order.
    pub shards: Vec<ShardCounters>,
}

impl CacheStats {
    /// Logical hits summed over the three tiers.
    pub fn hits(&self) -> u64 {
        self.postings.hits + self.fixpoint.hits + self.result.hits
    }

    /// Logical misses summed over the three tiers.
    pub fn misses(&self) -> u64 {
        self.postings.misses + self.fixpoint.misses + self.result.misses
    }

    /// Hit rate over all logical lookups; 0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits() + self.misses();
        if total == 0 {
            0.0
        } else {
            self.hits() as f64 / total as f64
        }
    }

    /// Compact single-object JSON, in the serve `stats` verb's
    /// hand-assembled style.
    pub fn to_json(&self) -> String {
        let tier = |t: &TierCounters| format!("{{\"hits\":{},\"misses\":{}}}", t.hits, t.misses);
        let mut out = format!(
            "{{\"postings\":{},\"fixpoint\":{},\"result\":{},\"evictions\":{},\"insertions\":{},\"bytes\":{},\"entries\":{},\"shards\":[",
            tier(&self.postings),
            tier(&self.fixpoint),
            tier(&self.result),
            self.evictions,
            self.insertions,
            self.bytes,
            self.entries,
        );
        for (i, s) in self.shards.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            // invariant: fmt::Write for String never fails.
            write!(
                out,
                "{{\"hits\":{},\"misses\":{},\"evictions\":{},\"bytes\":{},\"entries\":{}}}",
                s.hits, s.misses, s.evictions, s.bytes, s.entries
            )
            .unwrap();
        }
        out.push_str("]}");
        out
    }
}

/// State of one in-flight coalesced evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlightState {
    /// The leader is still evaluating.
    Pending,
    /// The leader finished and (if caching) published its answer.
    Done,
    /// The leader unwound (panic, injected fault) without completing.
    Aborted,
}

/// The rendezvous one flight's leader and followers share.
#[derive(Debug)]
struct FlightSlot {
    state: Mutex<FlightState>,
    cv: Condvar,
}

impl FlightSlot {
    fn new() -> Self {
        FlightSlot {
            state: Mutex::new(FlightState::Pending),
            cv: Condvar::new(),
        }
    }

    fn settle(&self, state: FlightState) {
        // invariant: the state mutex only guards an enum write; it
        // cannot be poisoned.
        *self.state.lock().unwrap() = state;
        self.cv.notify_all();
    }
}

/// What a follower observed after waiting on a flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightOutcome {
    /// The leader completed; the cached answer is (re)usable.
    Done,
    /// The leader unwound without completing; re-evaluate (the first
    /// retrier becomes the new leader).
    Aborted,
    /// The caller's own deadline expired first; evaluate independently.
    TimedOut,
}

/// Leadership of one flight. Call [`FlightLease::complete`] after
/// publishing the answer; dropping the lease without completing (a
/// panic unwinding through `catch_unwind`, an error return) marks the
/// flight aborted so followers wake and re-evaluate instead of hanging.
pub struct FlightLease<'a> {
    sf: &'a Singleflight,
    key: u64,
    slot: Arc<FlightSlot>,
    completed: bool,
}

impl FlightLease<'_> {
    /// Publish success: the flight is removed and followers wake with
    /// [`FlightOutcome::Done`].
    pub fn complete(mut self) {
        self.completed = true;
        self.sf.remove(self.key);
        self.slot.settle(FlightState::Done);
    }
}

impl Drop for FlightLease<'_> {
    fn drop(&mut self) {
        if !self.completed {
            self.sf.aborted.fetch_add(1, Ordering::Relaxed);
            self.sf.remove(self.key);
            self.slot.settle(FlightState::Aborted);
        }
    }
}

/// A follower's handle on someone else's flight.
pub struct FlightFollower {
    slot: Arc<FlightSlot>,
}

impl FlightFollower {
    /// Block until the leader settles the flight or `timeout` elapses.
    pub fn wait(&self, timeout: Duration) -> FlightOutcome {
        let deadline = std::time::Instant::now() + timeout;
        // invariant: see FlightSlot::settle on poisoning.
        let mut state = self.slot.state.lock().unwrap();
        loop {
            match *state {
                FlightState::Done => return FlightOutcome::Done,
                FlightState::Aborted => return FlightOutcome::Aborted,
                FlightState::Pending => {}
            }
            let now = std::time::Instant::now();
            let Some(left) = deadline
                .checked_duration_since(now)
                .filter(|d| !d.is_zero())
            else {
                return FlightOutcome::TimedOut;
            };
            let (next, timed_out) = self.slot.cv.wait_timeout(state, left).unwrap();
            state = next;
            if timed_out.timed_out() && *state == FlightState::Pending {
                return FlightOutcome::TimedOut;
            }
        }
    }
}

/// Joining a flight either makes you the leader or a follower.
pub enum Flight<'a> {
    /// You own the evaluation; see [`FlightLease`].
    Leader(FlightLease<'a>),
    /// Someone else is evaluating the same key; see [`FlightFollower`].
    Follower(FlightFollower),
}

/// Counters from one [`Singleflight`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SingleflightStats {
    /// Flights led (cold evaluations that took the key).
    pub led: u64,
    /// Requests that joined an existing flight instead of evaluating.
    pub coalesced: u64,
    /// Leases dropped without completing (panics, errors).
    pub aborted: u64,
}

/// Request coalescing for identical in-flight cold evaluations.
///
/// Keys are caller-hashed (serve hashes the normalized result-cache key
/// plus the snapshot tag). The first joiner becomes the **leader** and
/// evaluates; concurrent joiners with the same key become **followers**
/// and block on the leader instead of repeating the work. The flight
/// carries no value: after [`FlightOutcome::Done`] a follower re-probes
/// the result cache, which both preserves the cache-replay invariants
/// (budget checkpoints and `query:eval` fault points replay on a hit —
/// see [`QueryCache::get_result`]) and keeps this type trivially
/// deadlock-safe: a lost wake-up degenerates to an extra evaluation,
/// never a hang, and an aborted leader's followers re-evaluate.
#[derive(Default)]
pub struct Singleflight {
    flights: Mutex<HashMap<u64, Arc<FlightSlot>>>,
    led: AtomicU64,
    coalesced: AtomicU64,
    aborted: AtomicU64,
}

impl std::fmt::Debug for Singleflight {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Singleflight").finish()
    }
}

impl Singleflight {
    /// A coalescer with no flights.
    pub fn new() -> Self {
        Singleflight::default()
    }

    /// Join the flight for `key`, creating it (and leading) if absent.
    pub fn join(&self, key: u64) -> Flight<'_> {
        // invariant: the map mutex only guards map ops; never poisoned.
        let mut flights = self.flights.lock().unwrap();
        match flights.get(&key) {
            Some(slot) => {
                self.coalesced.fetch_add(1, Ordering::Relaxed);
                Flight::Follower(FlightFollower { slot: slot.clone() })
            }
            None => {
                let slot = Arc::new(FlightSlot::new());
                flights.insert(key, slot.clone());
                self.led.fetch_add(1, Ordering::Relaxed);
                Flight::Leader(FlightLease {
                    sf: self,
                    key,
                    slot,
                    completed: false,
                })
            }
        }
    }

    fn remove(&self, key: u64) {
        self.flights.lock().unwrap().remove(&key);
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> SingleflightStats {
        SingleflightStats {
            led: self.led.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            aborted: self.aborted.load(Ordering::Relaxed),
        }
    }
}

/// A stable hash for singleflight keys (the cache's own [`ResultKey`]
/// plus anything else that distinguishes responses, e.g. `top_k`).
pub fn flight_key<H: Hash>(value: &H) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;
    use crate::filter::FilterExpr;
    use xfrag_doc::NodeId;

    fn nodes(ids: impl IntoIterator<Item = u32>) -> FragmentSet {
        FragmentSet::of_nodes(ids.into_iter().map(NodeId))
    }

    #[test]
    fn generation_tags_are_unique_and_monotone() {
        let a = GenerationTag::fresh();
        let b = GenerationTag::fresh();
        assert_ne!(a, b);
        assert!(b.as_u64() > a.as_u64());
    }

    #[test]
    fn postings_round_trip_and_generation_isolation() {
        let cache = QueryCache::with_capacity_mb(4);
        let g1 = GenerationTag::fresh();
        let g2 = GenerationTag::fresh();
        let set = nodes([1, 2, 3]);
        cache.put_postings(g1, 0, "xml", &set);
        assert_eq!(cache.get_postings(g1, 0, "xml"), Some(set.clone()));
        // A different generation, document, or term never sees it.
        assert_eq!(cache.get_postings(g2, 0, "xml"), None);
        assert_eq!(cache.get_postings(g1, 1, "xml"), None);
        assert_eq!(cache.get_postings(g1, 0, "search"), None);
        let st = cache.stats();
        assert_eq!(st.postings.hits, 1);
        assert_eq!(st.postings.misses, 3);
        assert_eq!(st.entries, 1);
        assert!(st.bytes > 0);
    }

    #[test]
    fn fixpoint_tier_is_mode_keyed() {
        let cache = QueryCache::with_capacity_mb(4);
        let g = GenerationTag::fresh();
        let set = nodes([4, 5]);
        let delta = EvalStats {
            joins: 7,
            cache_hits: 99, // must be stripped on store
            ..EvalStats::default()
        };
        cache.put_fixpoint(g, 2, "xml", FixpointMode::Naive, &set, delta);
        let (got, d) = cache
            .get_fixpoint(g, 2, "xml", FixpointMode::Naive)
            .unwrap();
        assert_eq!(got, set);
        assert_eq!(d.joins, 7);
        assert_eq!(d.cache_hits, 0, "stored deltas are pure compute");
        assert!(cache
            .get_fixpoint(g, 2, "xml", FixpointMode::Reduced)
            .is_none());
    }

    fn result(frags: FragmentSet, degradation: Degradation) -> QueryResult {
        QueryResult {
            fragments: frags,
            stats: EvalStats::default(),
            degradation,
        }
    }

    #[test]
    fn result_key_normalizes_term_order_and_dups() {
        // Satellite regression: Q{a,b}, Q{b,a} and Q{b,a,b} share a key.
        let g = GenerationTag::fresh();
        let policy = ExecPolicy::unlimited();
        let mk = |terms: &[&str]| {
            ResultKey::new(
                g,
                0,
                &Query::new(terms.iter().copied(), FilterExpr::True),
                Strategy::FixedPointReduced,
                &policy,
            )
        };
        assert_eq!(mk(&["alpha", "beta"]), mk(&["beta", "alpha"]));
        assert_eq!(mk(&["alpha", "beta"]), mk(&["beta", "alpha", "beta"]));
        let cache = QueryCache::with_capacity_mb(4);
        cache.put_result(
            &mk(&["alpha", "beta"]),
            &result(nodes([1]), Degradation::none()),
        );
        assert!(cache.get_result(&mk(&["beta", "alpha"])).is_some());
    }

    #[test]
    fn degraded_entry_never_serves_a_full_budget_request() {
        let g = GenerationTag::fresh();
        let q = Query::new(["alpha"], FilterExpr::True);
        let tight = ExecPolicy::with_budget(Budget::unlimited().with_max_joins(1));
        let open = ExecPolicy::unlimited();
        let cache = QueryCache::with_capacity_mb(4);

        let degraded = Degradation {
            rung: Some(Rung::SlcaApprox),
            ..Degradation::default()
        };
        let key_tight = ResultKey::new(g, 0, &q, Strategy::FixedPointNaive, &tight);
        cache.put_result(&key_tight, &result(nodes([1]), degraded));

        // Same (deterministic) policy: the degraded entry is reusable.
        assert!(cache.get_result(&key_tight).is_some());
        // Full-budget fingerprint differs: it can never observe it.
        let key_open = ResultKey::new(g, 0, &q, Strategy::FixedPointNaive, &open);
        assert!(cache.get_result(&key_open).is_none());
    }

    #[test]
    fn nondeterministic_policies_reuse_only_exact_answers() {
        let g = GenerationTag::fresh();
        let q = Query::new(["alpha"], FilterExpr::True);
        let timed = ExecPolicy::with_budget(
            Budget::unlimited().with_wall_clock(std::time::Duration::from_secs(3600)),
        );
        let key = ResultKey::new(g, 0, &q, Strategy::PushDown, &timed);
        assert!(!key.policy().is_deterministic());
        let cache = QueryCache::with_capacity_mb(4);

        // A degraded answer under a wall-clocked policy is not stored…
        let degraded = Degradation {
            rung: Some(Rung::TopCandidates),
            ..Degradation::default()
        };
        cache.put_result(&key, &result(nodes([1]), degraded));
        assert!(cache.get_result(&key).is_none());

        // …but an exact answer is stored and reused.
        cache.put_result(&key, &result(nodes([2]), Degradation::none()));
        assert!(cache.get_result(&key).is_some());
    }

    #[test]
    fn lru_evicts_oldest_first_and_respects_touches() {
        // Budget sized to hold roughly two postings entries per shard;
        // use one term per entry and force everything onto whichever
        // shard each key lands on by just checking global accounting.
        let cache = QueryCache::new(SHARDS as u64 * 300);
        let g = GenerationTag::fresh();
        for i in 0..64 {
            cache.put_postings(g, i, "term", &nodes([1, 2, 3]));
        }
        let st = cache.stats();
        assert!(st.evictions > 0, "64 inserts must overflow the budget");
        assert!(st.bytes <= SHARDS as u64 * 300);
        for shard in &st.shards {
            assert!(shard.bytes <= 300, "no shard exceeds its own budget");
        }
        // Most recently inserted entries survive.
        assert!(cache.get_postings(g, 63, "term").is_some());
    }

    #[test]
    fn touched_entries_survive_eviction_pressure() {
        let cache = QueryCache::new(u64::MAX / 2); // effectively unbounded
        let g = GenerationTag::fresh();
        cache.put_postings(g, 0, "keep", &nodes([1]));
        cache.put_postings(g, 0, "drop", &nodes([2]));
        // Touch "keep" so "drop" is the LRU entry everywhere.
        assert!(cache.get_postings(g, 0, "keep").is_some());
        let st = cache.stats();
        assert_eq!(st.evictions, 0);
        assert_eq!(st.entries, 2);
    }

    #[test]
    fn oversize_entries_are_not_admitted() {
        let cache = QueryCache::new(8); // 1 byte per shard
        let g = GenerationTag::fresh();
        cache.put_postings(g, 0, "xml", &nodes([1, 2, 3]));
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.get_postings(g, 0, "xml"), None);
    }

    #[test]
    fn stats_json_shape() {
        let cache = QueryCache::with_capacity_mb(1);
        let g = GenerationTag::fresh();
        cache.put_postings(g, 0, "xml", &nodes([1]));
        cache.get_postings(g, 0, "xml");
        cache.get_postings(g, 0, "nope");
        let json = cache.stats().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(
            json.contains("\"postings\":{\"hits\":1,\"misses\":1}"),
            "{json}"
        );
        assert!(json.contains("\"shards\":["), "{json}");
        assert_eq!(
            json.matches("\"evictions\"").count(),
            1 + SHARDS,
            "one global plus one per shard"
        );
    }

    #[test]
    fn carry_over_rekeys_mapped_docs_and_drops_the_rest() {
        let cache = QueryCache::with_capacity_mb(4);
        let g1 = GenerationTag::fresh();
        let g2 = GenerationTag::fresh();
        let policy = ExecPolicy::unlimited();
        let q = Query::new(["alpha"], FilterExpr::True);

        // Doc 0: unchanged (same id). Doc 1: shifts to id 5. Doc 2: changed.
        cache.put_postings(g1, 0, "alpha", &nodes([1]));
        cache.put_fixpoint(
            g1,
            0,
            "alpha",
            FixpointMode::Reduced,
            &nodes([1, 2]),
            EvalStats::default(),
        );
        let k0 = ResultKey::new(g1, 0, &q, Strategy::PushDown, &policy);
        cache.put_result(&k0, &result(nodes([1]), Degradation::none()));
        cache.put_postings(g1, 1, "alpha", &nodes([7]));
        cache.put_postings(g1, 2, "alpha", &nodes([9]));

        let map: HashMap<u32, u32> = [(0, 0), (1, 5)].into();
        let co = cache.carry_over(g1, g2, &map);
        assert_eq!(co.kept, 3, "{co:?}");
        assert_eq!(co.rekeyed, 1, "{co:?}");
        assert_eq!(co.evicted, 1, "{co:?}");

        // Carried entries answer under the new tag and mapped ids…
        assert_eq!(cache.get_postings(g2, 0, "alpha"), Some(nodes([1])));
        assert!(cache
            .get_fixpoint(g2, 0, "alpha", FixpointMode::Reduced)
            .is_some());
        let k0_new = ResultKey::new(g2, 0, &q, Strategy::PushDown, &policy);
        assert_eq!(
            cache.get_result(&k0_new).unwrap().fragments,
            nodes([1]),
            "result tier survives with identical fragments"
        );
        assert_eq!(cache.get_postings(g2, 5, "alpha"), Some(nodes([7])));
        // …the changed doc and every old-tag key miss.
        assert_eq!(cache.get_postings(g2, 2, "alpha"), None);
        assert_eq!(cache.get_postings(g2, 1, "alpha"), None);
        assert_eq!(cache.get_postings(g1, 0, "alpha"), None);
        assert!(cache.get_result(&k0).is_none());
    }

    #[test]
    fn carry_over_preserves_byte_accounting() {
        let cache = QueryCache::with_capacity_mb(4);
        let g1 = GenerationTag::fresh();
        let g2 = GenerationTag::fresh();
        for doc in 0..8 {
            cache.put_postings(g1, doc, "term", &nodes([doc, doc + 1]));
        }
        let before = cache.stats();
        // Map only even docs; odd ones drop.
        let map: HashMap<u32, u32> = (0..8).step_by(2).map(|d| (d, d)).collect();
        let co = cache.carry_over(g1, g2, &map);
        assert_eq!(co.kept, 4);
        assert_eq!(co.evicted, 4);
        let after = cache.stats();
        assert_eq!(after.entries, 4);
        assert!(after.bytes < before.bytes);
        assert!(after.bytes > 0);
        // A second carry-over of the (now empty) old tag is a no-op.
        assert_eq!(cache.carry_over(g1, g2, &map), CarryOver::default());
    }

    /// Every shard's stamp queue within `2·live + QUEUE_SLACK`.
    fn assert_queue_bounded(cache: &QueryCache) {
        for (i, shard) in cache.shards.iter().enumerate() {
            let s = shard.lock().unwrap();
            assert!(
                s.queue.len() <= 2 * s.map.len() + QUEUE_SLACK,
                "shard {i}: queue {} for {} live entries",
                s.queue.len(),
                s.map.len()
            );
        }
    }

    #[test]
    fn repeated_hits_keep_the_stamp_queue_bounded() {
        let cache = QueryCache::with_capacity_mb(4);
        let g = GenerationTag::fresh();
        cache.put_postings(g, 0, "hot", &nodes([1, 2]));
        for _ in 0..100_000 {
            assert!(cache.get_postings(g, 0, "hot").is_some());
        }
        assert_queue_bounded(&cache);
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn repeated_carry_overs_keep_the_stamp_queue_bounded() {
        let cache = QueryCache::with_capacity_mb(64);
        let mut gen = GenerationTag::fresh();
        for doc in 0..1_000 {
            cache.put_postings(gen, doc, "term", &nodes([doc]));
        }
        // Keep every document but the one a delta rewrote.
        let map: HashMap<u32, u32> = (1..1_000).map(|d| (d, d)).collect();
        for round in 0..50 {
            let next = GenerationTag::fresh();
            let co = cache.carry_over(gen, next, &map);
            assert_eq!(co.kept + co.evicted, 1_000, "round {round}: {co:?}");
            cache.put_postings(next, 0, "term", &nodes([round]));
            assert_queue_bounded(&cache);
            gen = next;
        }
        assert_eq!(cache.stats().entries, 1_000);
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn eviction_order_across_compactions_matches_a_reference_lru() {
        const BUDGET: u64 = 900 * SHARDS as u64;
        let cache = QueryCache::new(BUDGET);
        let per_shard = cache.per_shard_bytes;
        let g = GenerationTag::fresh();
        let key = |doc: u32| Key::Postings {
            gen: g,
            doc,
            term: "t".to_string(),
        };
        let shard_ix = |k: &Key| {
            let mut h = DefaultHasher::new();
            k.hash(&mut h);
            h.finish() as usize % SHARDS
        };
        // Reference: per shard, (doc, bytes) oldest first.
        let mut model: Vec<Vec<(u32, u64)>> = vec![Vec::new(); SHARDS];
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut compacted = 0;
        for step in 0..20_000 {
            let r = next();
            let doc = ((r >> 16) % 40) as u32;
            let k = key(doc);
            let lru = &mut model[shard_ix(&k)];
            let pos = lru.iter().position(|&(d, _)| d == doc);
            let queue_len = || cache.shards[shard_ix(&k)].lock().unwrap().queue.len();
            let before = queue_len();
            // One put per 16 operations; the rest are gets.
            if r % 16 == 15 {
                let set = nodes(0..1 + (r >> 8) as u32 % 5);
                let bytes = value_bytes(&k, &Value::Postings(set.clone()));
                cache.put_postings(g, doc, "t", &set);
                if let Some(p) = pos {
                    lru.remove(p);
                }
                lru.push((doc, bytes));
                while lru.iter().map(|e| e.1).sum::<u64>() > per_shard {
                    lru.remove(0);
                }
            } else {
                let hit = cache.get_postings(g, doc, "t").is_some();
                assert_eq!(hit, pos.is_some(), "step {step}: doc {doc}");
                if let Some(p) = pos {
                    let e = lru.remove(p);
                    lru.push(e);
                }
                // A get never evicts, so only a compaction shrinks it.
                if queue_len() < before {
                    compacted += 1;
                }
            }
            let s = cache.shards[shard_ix(&k)].lock().unwrap();
            let mut live: Vec<u32> = s.map.keys().map(Key::doc).collect();
            let mut want: Vec<u32> = lru.iter().map(|e| e.0).collect();
            live.sort_unstable();
            want.sort_unstable();
            assert_eq!(live, want, "step {step}: live set diverged");
        }
        assert_queue_bounded(&cache);
        assert!(compacted > 0, "no compaction was exercised");
        assert!(cache.stats().evictions > 0, "no eviction was exercised");
    }

    #[test]
    fn hit_rate_reconciles() {
        let cache = QueryCache::with_capacity_mb(1);
        let g = GenerationTag::fresh();
        cache.get_postings(g, 0, "a"); // miss
        cache.put_postings(g, 0, "a", &nodes([1]));
        cache.get_postings(g, 0, "a"); // hit
        let st = cache.stats();
        assert_eq!(st.hits() + st.misses(), 2);
        assert!((st.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn singleflight_coalesces_concurrent_joiners() {
        let sf = Arc::new(Singleflight::new());
        let Flight::Leader(lease) = sf.join(7) else {
            panic!("first joiner must lead");
        };
        let mut followers = Vec::new();
        for _ in 0..8 {
            let sf = sf.clone();
            followers.push(std::thread::spawn(move || {
                let Flight::Follower(f) = sf.join(7) else {
                    panic!("concurrent joiner must follow");
                };
                f.wait(Duration::from_secs(30))
            }));
        }
        // Give every follower time to actually block on the flight.
        while sf.stats().coalesced < 8 {
            std::thread::yield_now();
        }
        lease.complete();
        for f in followers {
            assert_eq!(f.join().unwrap(), FlightOutcome::Done);
        }
        let st = sf.stats();
        assert_eq!((st.led, st.coalesced, st.aborted), (1, 8, 0));
        // The key is free again: the next joiner leads a new flight.
        assert!(matches!(sf.join(7), Flight::Leader(_)));
    }

    #[test]
    fn singleflight_aborted_leader_wakes_followers_to_retry() {
        let sf = Arc::new(Singleflight::new());
        let Flight::Leader(lease) = sf.join(1) else {
            panic!("first joiner must lead");
        };
        let waiter = {
            let sf = sf.clone();
            std::thread::spawn(move || {
                let Flight::Follower(f) = sf.join(1) else {
                    panic!("must follow");
                };
                f.wait(Duration::from_secs(30))
            })
        };
        while sf.stats().coalesced < 1 {
            std::thread::yield_now();
        }
        drop(lease); // leader unwound without completing
        assert_eq!(waiter.join().unwrap(), FlightOutcome::Aborted);
        assert_eq!(sf.stats().aborted, 1);
        // Retrying after an abort takes leadership — no hang, no orphan.
        assert!(matches!(sf.join(1), Flight::Leader(_)));
    }

    #[test]
    fn singleflight_keys_are_independent_and_waits_time_out() {
        let sf = Singleflight::new();
        let _a = sf.join(1);
        assert!(matches!(sf.join(2), Flight::Leader(_)));
        let Flight::Follower(f) = sf.join(1) else {
            panic!("same key must follow");
        };
        assert_eq!(
            f.wait(Duration::from_millis(20)),
            FlightOutcome::TimedOut,
            "a follower's own deadline bounds the wait"
        );
    }
}
