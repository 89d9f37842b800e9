//! Content-addressed certificate cache: memoized consultations keyed by
//! the SHA-256 of a game spec's canonical wire encoding.
//!
//! At scale, game specs repeat heavily, yet every consultation re-runs the
//! solver and the full Fig. 1 verifier-panel protocol from scratch. This
//! module is the proof-carrying-architecture split: the session engine is
//! fast but untrusted, its results carry replayable certificates, and the
//! `ra-proofs` kernel is the small trusted checker. A cache hit therefore
//! skips the expensive solve/panel path and — under [`CacheMode::Replay`] —
//! replays only the cheap kernel check against the stored advice, or — under
//! [`CacheMode::Trust`] — returns the exact digest hit directly.
//!
//! The key is content, not object identity: two separately built but
//! equal specs share one entry. A strategic spec is hashed once per game
//! object — the game memoizes its own digest ([`spec_digest`]) — so the
//! first touch costs one encode plus one hash, with no copy, and a
//! repeated consult of the same game pays only the lookup. The small spec
//! families are hashed on every call.
//!
//! The cache is a sharded LRU: the digest's first byte picks a shard, each
//! shard is an independent mutex around a bounded slab-backed LRU list, so
//! concurrent consultations from different engine shards rarely contend on
//! the same lock. Counters ([`CacheStats`]) are atomics read without taking
//! any shard lock.
//!
//! Disabled (the default — see [`CertCacheConfig`]), nothing changes: the
//! session layer never computes a digest, Lemma 1 byte accounting and
//! batch==sequential determinism are bit-for-bit the pre-cache behavior.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::crypto::{sha256_wire, Digest};
use crate::inventor::GameSpec;
use crate::messages::{Advice, Party};
use crate::reputation::MajorityOutcome;
use crate::verifier::VerdictReason;

/// SHA-256 of the spec's canonical wire encoding — the cache key.
///
/// A strategic spec reads [`StrategicGame::spec_digest`], which
/// `ra-games` computes from the game's own bytes once per game object and
/// clones carry: the first touch costs one encode plus one hash, with no
/// copy, and every later consult of that game is a load. The three small
/// families encode into the recycled thread-local frame scratch
/// ([`crate::wire::with_frame_scratch`]) and hash it in place on every
/// call, which allocates no buffer once the thread is warm. Equal specs
/// digest equally, whichever object holds them, because the
/// [`crate::wire::Wire`] encoding of [`GameSpec`] is canonical and the
/// game's memo hashes exactly those bytes.
///
/// [`StrategicGame::spec_digest`]: ra_games::StrategicGame::spec_digest
pub fn spec_digest(spec: &GameSpec) -> Digest {
    match spec {
        GameSpec::Strategic(game) => game.spec_digest(),
        _ => sha256_wire(spec),
    }
}

/// What to do with a cache hit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CacheMode {
    /// Re-run the `ra-proofs` kernel check on the stored advice and serve
    /// the hit only if the kernel's verdict matches the one recorded at
    /// insert time; on mismatch, fall back to the full protocol. This is
    /// the proof-carrying default: hits stay as trustworthy as the kernel.
    #[default]
    Replay,
    /// Serve the exact digest hit directly, skipping even the kernel
    /// check. Fastest; appropriate when the cache itself is trusted.
    Trust,
}

/// Configuration for the certificate cache.
///
/// `Default` is **disabled**: the engine behaves exactly as without a
/// cache (same bytes on the bus, same reputation trajectory), which keeps
/// batch==sequential determinism and the Lemma 1 accounting tests
/// bit-for-bit intact.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CertCacheConfig {
    /// Whether consultations consult the cache at all.
    pub enabled: bool,
    /// Total entry budget across all cache shards (must be nonzero when
    /// enabled; rounded up to a per-shard bound, so the effective total
    /// can slightly exceed it).
    pub capacity: usize,
    /// Hit semantics: replay the kernel check or trust the digest.
    pub mode: CacheMode,
}

impl Default for CertCacheConfig {
    fn default() -> CertCacheConfig {
        CertCacheConfig {
            enabled: false,
            capacity: 1024,
            mode: CacheMode::Replay,
        }
    }
}

impl CertCacheConfig {
    /// An enabled cache in [`CacheMode::Replay`] with the given capacity.
    pub fn replay(capacity: usize) -> CertCacheConfig {
        CertCacheConfig {
            enabled: true,
            capacity,
            mode: CacheMode::Replay,
        }
    }

    /// An enabled cache in [`CacheMode::Trust`] with the given capacity.
    pub fn trust(capacity: usize) -> CertCacheConfig {
        CertCacheConfig {
            enabled: true,
            capacity,
            mode: CacheMode::Trust,
        }
    }
}

/// Cache counters, exported through
/// [`crate::shard::ShardStats`] / `ShardedAuthority::cache_stats`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that fell through to the full protocol.
    pub misses: u64,
    /// Entries evicted by per-shard LRU pressure.
    pub evictions: u64,
    /// Replay-mode hits whose fresh kernel verdict contradicted the stored
    /// one (the hit is discarded and the full protocol re-runs).
    pub replay_failures: u64,
    /// Replay-mode hits discarded because the trusted verifier panel
    /// changed since the entry was cached (also counted under `misses`:
    /// the full protocol re-runs and re-primes the entry).
    pub stale: u64,
}

/// The memoized result of one full consultation, replayable on hits.
#[derive(Clone, Debug)]
pub(crate) struct CachedConsultation {
    /// The advice (with its embedded proof/certificate) the inventor gave.
    pub advice: Advice,
    /// The `ra-proofs` kernel's own verdict on that advice, computed once
    /// at insert time; replay hits must reproduce it exactly.
    pub kernel_accepts: bool,
    /// The verifier panel's pooled outcome.
    pub majority: Option<MajorityOutcome>,
    /// Whether the agent adopted the advice.
    pub adopted: bool,
    /// Certificate payload size (Lemma 1's "bits communicated").
    pub advice_bytes: usize,
    /// Per-verifier verdicts as reported in the cold session.
    pub verdict_details: Vec<(Party, bool, VerdictReason)>,
    /// The [`crate::ReputationSnapshot::panel_version`] the entry was
    /// minted under. Replay-mode lookups compare it against the current
    /// panel and treat a mismatch as a miss, so advice vouched for by a
    /// since-excluded (or since-readmitted) panel is never served warm.
    pub panel_version: u64,
}

const NIL: usize = usize::MAX;

/// One slab slot: a key/value pair threaded onto the shard's LRU list.
struct Slot {
    key: Digest,
    value: Arc<CachedConsultation>,
    prev: usize,
    next: usize,
}

/// A bounded LRU over a slab: `map` finds slots by digest, `head` is the
/// most recently used, `tail` the eviction candidate. Slots are recycled
/// through `free`, so a warmed shard performs no slab allocation.
struct LruShard {
    map: HashMap<Digest, usize>,
    slots: Vec<Slot>,
    head: usize,
    tail: usize,
    free: Vec<usize>,
    capacity: usize,
}

impl LruShard {
    fn new(capacity: usize) -> LruShard {
        LruShard {
            map: HashMap::with_capacity(capacity),
            slots: Vec::with_capacity(capacity),
            head: NIL,
            tail: NIL,
            free: Vec::new(),
            capacity,
        }
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.slots[idx].prev, self.slots[idx].next);
        match prev {
            NIL => self.head = next,
            p => self.slots[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n].prev = prev,
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.slots[idx].prev = NIL;
        self.slots[idx].next = self.head;
        match self.head {
            NIL => self.tail = idx,
            h => self.slots[h].prev = idx,
        }
        self.head = idx;
    }

    fn touch(&mut self, idx: usize) {
        if self.head != idx {
            self.unlink(idx);
            self.push_front(idx);
        }
    }

    fn lookup(&mut self, key: &Digest) -> Option<Arc<CachedConsultation>> {
        let idx = *self.map.get(key)?;
        self.touch(idx);
        Some(Arc::clone(&self.slots[idx].value))
    }

    /// Inserts (or refreshes) an entry; returns `true` if an older entry
    /// was evicted to make room.
    fn insert(&mut self, key: Digest, value: Arc<CachedConsultation>) -> bool {
        if let Some(&idx) = self.map.get(&key) {
            self.slots[idx].value = value;
            self.touch(idx);
            return false;
        }
        let mut evicted = false;
        if self.map.len() >= self.capacity {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL, "nonzero capacity implies a tail");
            self.unlink(victim);
            self.map.remove(&self.slots[victim].key);
            self.free.push(victim);
            evicted = true;
        }
        let idx = match self.free.pop() {
            Some(idx) => {
                self.slots[idx].key = key;
                self.slots[idx].value = value;
                idx
            }
            None => {
                self.slots.push(Slot {
                    key,
                    value,
                    prev: NIL,
                    next: NIL,
                });
                self.slots.len() - 1
            }
        };
        self.push_front(idx);
        self.map.insert(key, idx);
        evicted
    }
}

/// The sharded content-addressed certificate cache.
///
/// One instance is shared (via `Arc`) by every engine shard's
/// [`crate::RationalityAuthority`], so a game solved on one shard is a
/// hit on all of them.
pub struct CertCache {
    mode: CacheMode,
    shards: Vec<Mutex<LruShard>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    replay_failures: AtomicU64,
    stale: AtomicU64,
}

impl std::fmt::Debug for CertCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CertCache")
            .field("mode", &self.mode)
            .field("shards", &self.shards.len())
            .field("len", &self.len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl CertCache {
    /// Number of cache shards when the capacity allows it (small caches
    /// collapse to one shard so the capacity bound stays meaningful).
    const SHARDS: usize = 16;

    /// Builds a cache from `config` (the `enabled` flag is the caller's
    /// concern — constructing one always yields a usable cache).
    ///
    /// # Panics
    ///
    /// Panics if `config.capacity` is zero.
    pub fn new(config: CertCacheConfig) -> CertCache {
        assert!(
            config.capacity > 0,
            "certificate cache capacity must be nonzero"
        );
        let shards = if config.capacity >= Self::SHARDS {
            Self::SHARDS
        } else {
            1
        };
        let per_shard = config.capacity.div_ceil(shards);
        CertCache {
            mode: config.mode,
            shards: (0..shards)
                .map(|_| Mutex::new(LruShard::new(per_shard)))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            replay_failures: AtomicU64::new(0),
            stale: AtomicU64::new(0),
        }
    }

    /// The configured hit semantics.
    pub fn mode(&self) -> CacheMode {
        self.mode
    }

    /// Entries currently cached, summed across shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard lock").map.len())
            .sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the counters (atomic reads; no shard lock taken).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            replay_failures: self.replay_failures.load(Ordering::Relaxed),
            stale: self.stale.load(Ordering::Relaxed),
        }
    }

    /// The digest prefix picks the shard.
    fn shard_of(&self, digest: &Digest) -> &Mutex<LruShard> {
        &self.shards[digest[0] as usize % self.shards.len()]
    }

    /// Looks up a digest. `current_panel` is the caller's current
    /// [`crate::ReputationSnapshot::panel_version`] when hits must be
    /// panel-checked (`Replay` mode): a hit minted under a different
    /// panel is treated as a miss (counted under both `stale` and
    /// `misses`), so the full protocol re-runs and re-primes the entry
    /// under the current panel. Pass `None` to skip the check (`Trust`
    /// mode serves the digest hit unconditionally).
    pub(crate) fn lookup(
        &self,
        digest: &Digest,
        current_panel: Option<u64>,
    ) -> Option<Arc<CachedConsultation>> {
        let hit = self
            .shard_of(digest)
            .lock()
            .expect("cache shard lock")
            .lookup(digest);
        let hit = match (hit, current_panel) {
            (Some(entry), Some(panel)) if entry.panel_version != panel => {
                self.stale.fetch_add(1, Ordering::Relaxed);
                None
            }
            (hit, _) => hit,
        };
        match &hit {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        hit
    }

    pub(crate) fn insert(&self, digest: Digest, entry: CachedConsultation) {
        let evicted = self
            .shard_of(&digest)
            .lock()
            .expect("cache shard lock")
            .insert(digest, Arc::new(entry));
        if evicted {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a replay-mode hit whose fresh kernel verdict contradicted
    /// the stored one (the session layer falls back to the full protocol).
    pub(crate) fn note_replay_failure(&self) {
        self.replay_failures.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ra_games::named::prisoners_dilemma;

    /// Dummy advice told apart by `tag`.
    fn advice(tag: u64) -> Advice {
        Advice::Support(ra_proofs::SupportCertificate {
            row_support: vec![tag as usize],
            col_support: vec![0],
        })
    }

    fn entry(tag: u64) -> CachedConsultation {
        CachedConsultation {
            advice: advice(tag),
            kernel_accepts: true,
            majority: None,
            adopted: true,
            advice_bytes: 3,
            verdict_details: Vec::new(),
            panel_version: 0,
        }
    }

    fn digest(tag: u8) -> Digest {
        // Distinct first bytes target distinct cache shards on demand.
        let mut d = [0u8; 32];
        d[0] = tag;
        d[1] = tag.wrapping_mul(37);
        d
    }

    #[test]
    fn digest_is_stable_and_spec_sensitive() {
        let pd = GameSpec::Strategic(prisoners_dilemma().to_strategic());
        assert_eq!(spec_digest(&pd), spec_digest(&pd.clone()));
        let other = GameSpec::ParallelLinks {
            current_loads: vec![ra_exact::rat(1, 2)],
            own_load: ra_exact::rat(1, 1),
            expected_future_load: ra_exact::rat(1, 1),
            expected_future_agents: 1,
        };
        assert_ne!(spec_digest(&pd), spec_digest(&other));
    }

    #[test]
    fn hit_miss_counters_track_lookups() {
        let cache = CertCache::new(CertCacheConfig::replay(8));
        assert!(cache.lookup(&digest(1), None).is_none());
        cache.insert(digest(1), entry(1));
        assert!(cache.lookup(&digest(1), None).is_some());
        assert!(cache.lookup(&digest(2), None).is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 2));
        assert_eq!(cache.len(), 1);
        assert!(!cache.is_empty());
    }

    #[test]
    fn lru_evicts_least_recently_used_per_shard() {
        // Capacity 3 < 16 collapses to a single shard with capacity 3.
        let cache = CertCache::new(CertCacheConfig::trust(3));
        for tag in 0..3 {
            cache.insert(digest(tag), entry(tag as u64));
        }
        // Touch 0 so 1 becomes the LRU victim.
        assert!(cache.lookup(&digest(0), None).is_some());
        cache.insert(digest(3), entry(3));
        assert_eq!(cache.stats().evictions, 1);
        assert!(
            cache.lookup(&digest(1), None).is_none(),
            "LRU entry evicted"
        );
        assert!(cache.lookup(&digest(0), None).is_some());
        assert!(cache.lookup(&digest(2), None).is_some());
        assert!(cache.lookup(&digest(3), None).is_some());
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn reinsert_refreshes_without_eviction() {
        let cache = CertCache::new(CertCacheConfig::trust(2));
        cache.insert(digest(1), entry(1));
        cache.insert(digest(1), entry(100));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().evictions, 0);
        let hit = cache.lookup(&digest(1), None).expect("refreshed entry");
        assert_eq!(hit.advice, advice(100));
    }

    #[test]
    fn slab_slots_are_recycled_under_churn() {
        let cache = CertCache::new(CertCacheConfig::trust(2));
        for round in 0..20u8 {
            cache.insert(digest(round), entry(round as u64));
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 18);
        // The slab never outgrows the capacity despite 20 inserts.
        let shard = cache.shards[0].lock().unwrap();
        assert!(shard.slots.len() <= 2, "slab grew to {}", shard.slots.len());
    }

    #[test]
    fn large_caches_spread_over_shards() {
        let cache = CertCache::new(CertCacheConfig::replay(64));
        assert_eq!(cache.shards.len(), CertCache::SHARDS);
        for tag in 0..CertCache::SHARDS as u8 {
            cache.insert(digest(tag), entry(tag as u64));
        }
        let occupied = cache
            .shards
            .iter()
            .filter(|s| !s.lock().unwrap().map.is_empty())
            .count();
        assert_eq!(occupied, CertCache::SHARDS, "digest prefix spreads shards");
        assert_eq!(cache.len(), CertCache::SHARDS);
    }

    #[test]
    fn panel_mismatch_is_a_miss_when_guarded() {
        let cache = CertCache::new(CertCacheConfig::replay(8));
        // The entry is minted under panel 0; unguarded (Trust-mode)
        // lookups serve the hit regardless.
        cache.insert(digest(1), entry(1));
        assert!(cache.lookup(&digest(1), None).is_some());
        // Guarded lookup under the same panel: a hit.
        assert!(cache.lookup(&digest(1), Some(0)).is_some());
        // Guarded lookup under a newer panel: stale, counted as a miss.
        assert!(cache.lookup(&digest(1), Some(1)).is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.stale), (2, 1, 1));
        // Re-priming under the new panel makes it hit again.
        let mut fresh = entry(1);
        fresh.panel_version = 1;
        cache.insert(digest(1), fresh);
        assert!(cache.lookup(&digest(1), Some(1)).is_some());
    }

    #[test]
    #[should_panic(expected = "capacity must be nonzero")]
    fn zero_capacity_rejected() {
        CertCache::new(CertCacheConfig::replay(0));
    }
}
