//! The sharded, multi-bus session engine.
//!
//! The paper's Fig. 1 infrastructure is a *service*: many agents consult
//! the rationality authority concurrently, and Lemma 1's point is that
//! verification is cheap enough to run at scale. [`ShardedAuthority`]
//! turns the single-bus [`RationalityAuthority`] into that service: it
//! owns N independent shards — each with its own [`Bus`],
//! inventor handle, verifier panel and reputation backend — routes agents
//! to shards by a deterministic hash of their id, and fans batches of
//! consultations across shards over a persistent, shard-pinned worker
//! pool (`pool.rs`): one long-lived thread per shard, spun up lazily on
//! the first multi-shard chunk and reused across chunks and across
//! [`ShardedAuthority::consult_batch`] calls, so epoch-chunked batches no
//! longer pay a spawn/join per chunk. A chunk that routes to a single
//! shard runs inline on the calling thread, with identical outcomes.
//!
//! Determinism is preserved by construction: a shard processes its
//! consultations strictly in request order under one lock — and under one
//! pinned worker — so [`ShardedAuthority::consult_batch`] produces
//! exactly the outcomes of the equivalent sequence of routed
//! [`ShardedAuthority::consult`] calls, regardless of how the workers
//! interleave across shards.
//!
//! The reputation plane is selected by [`ReputationPolicy`]:
//! [`ReputationPolicy::Isolated`] keeps the pre-refactor behaviour (one
//! private [`LocalReputation`] per shard), while
//! [`ReputationPolicy::Adaptive`] wires every shard to a
//! [`GossipReputation`] backend over a shared, *bus carried*
//! [`GossipPlane`]: every epoch merge travels the dedicated
//! inter-shard bus as framed [`Gossip`](crate::Message::Gossip) sends, so
//! [`ShardedAuthority::shard_stats`] reports control-plane bytes next to
//! consultation bytes and Lemma 1 accounting covers its own coordination
//! traffic. Epoch boundaries fall at exact multiples of the epoch length
//! in the engine-wide consultation stream — batches are chunked at those
//! same multiples — so batch and sequential execution still reach
//! identical outcomes (and identical byte counts), and the consult hot
//! path never takes a cross-shard lock (the merge is amortized off-path).
//! Reputation decay is a knob on [`ReputationConfig`].
//!
//! Inside a shard, each consult runs the lock-free hot path documented in
//! `docs/ARCHITECTURE.md` ("Consult hot path"): frame lengths are
//! measured in a recycled thread-local scratch, verdict fan-out ships
//! over [`Transport::send_batch`] in one accounting critical section each
//! way, and trust checks read one immutable
//! [`ReputationSnapshot`](crate::ReputationSnapshot) per consult, so a
//! gossip merge on another shard never contends with a consult in
//! flight.
//!
//! [`Bus`]: crate::Bus
//! [`LocalReputation`]: crate::LocalReputation

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::bus::Bus;
use crate::cache::{CacheStats, CertCache, CertCacheConfig};
use crate::inventor::{GameSpec, Inventor, InventorBehavior};
use crate::pool::ShardPool;
use crate::reputation::{
    GossipPlane, GossipReputation, LocalReputation, ReputationDecay, VoteRule,
};
use crate::session::{ConsultResult, RationalityAuthority, ResilienceConfig, SessionOutcome};
use crate::transport::Transport;
use crate::verifier::VerifierBehavior;
use crate::wire;

/// How verifier reputation is scoped across the shards of a
/// [`ShardedAuthority`].
///
/// # Examples
///
/// ```
/// use ra_authority::ReputationPolicy;
///
/// // Fully independent score tables per shard:
/// let isolated = ReputationPolicy::Isolated;
/// // Merge every 32 consultations, engine-wide (checking only at the
/// // epoch boundary, so the burst never decides anything):
/// let gossip = ReputationPolicy::Adaptive { every: 32, check_every: 32, burst: 1 };
/// // Same cadence, but check every 8 consultations whether 4+ dissenting
/// // votes have piled up since the last merge, and if so sync early:
/// let adaptive = ReputationPolicy::Adaptive { every: 32, check_every: 8, burst: 4 };
/// assert_ne!(isolated, gossip);
/// assert_ne!(gossip, adaptive);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ReputationPolicy {
    /// Every shard keeps a fully independent score table: a verifier voted
    /// out on one shard keeps serving agents pinned to the others.
    #[default]
    Isolated,
    /// Shards gossip PN-counter deltas through a shared, bus-carried
    /// [`GossipPlane`]: all shards publish and then pull the merged state
    /// every `every` consultations (engine-wide), so exclusion anywhere
    /// becomes exclusion everywhere within one epoch.
    ///
    /// Between epochs the engine reacts to misbehaviour: at every
    /// `check_every` consultations it looks at how many dissenting votes
    /// accumulated since the last merge, and syncs early if they reach
    /// `burst`. A flood of dissent (a verifier going rogue) propagates in
    /// roughly `check_every` consultations instead of waiting out the full
    /// epoch, while quiet traffic pays only the `every`-cadence merges.
    /// With `check_every == every` every check falls on an epoch boundary,
    /// so `burst` never decides a sync: plain fixed-cadence gossip.
    /// Trigger points are fixed engine-wide stream positions, so
    /// batch/sequential determinism is preserved.
    Adaptive {
        /// Maximum epoch length in consultations; must be positive and a
        /// multiple of `check_every`.
        every: usize,
        /// How often (in consultations) the dissent counter is examined;
        /// must be positive.
        check_every: usize,
        /// Dissenting votes since the last merge that trigger an early
        /// sync; must be positive.
        burst: u64,
    },
}

impl ReputationPolicy {
    /// The gossip cadence `(every, check_every, burst)` of this policy,
    /// or `None` under [`ReputationPolicy::Isolated`].
    fn cadence(self) -> Option<(u64, u64, u64)> {
        match self {
            ReputationPolicy::Isolated => None,
            ReputationPolicy::Adaptive {
                every,
                check_every,
                burst,
            } => {
                assert!(every > 0, "gossip epoch must be positive");
                assert!(check_every > 0, "adaptive check interval must be positive");
                assert!(
                    every % check_every == 0,
                    "adaptive epoch must be a multiple of the check interval"
                );
                assert!(burst > 0, "adaptive dissent burst must be positive");
                Some((every as u64, check_every as u64, burst))
            }
        }
    }
}

/// The full reputation-plane configuration of a [`ShardedAuthority`]:
/// scope ([`ReputationPolicy`]) and decay ([`ReputationDecay`]).
///
/// `Default` is the classic plane: isolated shards, one-verifier-one-vote,
/// no decay.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReputationConfig {
    /// How reputation is scoped across shards.
    pub policy: ReputationPolicy,
    /// How one round of verdicts is pooled. Ignored: [`VoteRule`] has one
    /// variant, and the field stays only because the end-to-end benchmark
    /// package sets it.
    pub vote_rule: VoteRule,
    /// How past observations fade (requires a gossip policy — decay
    /// generations advance at engine-wide epoch boundaries).
    pub decay: ReputationDecay,
}

impl From<ReputationPolicy> for ReputationConfig {
    fn from(policy: ReputationPolicy) -> ReputationConfig {
        ReputationConfig {
            policy,
            ..ReputationConfig::default()
        }
    }
}

/// Aggregated bus accounting across every shard, collected with a single
/// lock acquisition per shard — consultation traffic and, under a gossip
/// policy, the control-plane traffic of the inter-shard gossip bus.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Total wire bytes across every shard's bus (consultation plane).
    pub total_bytes: usize,
    /// Retransmit wire bytes across every shard's bus — the protocol's
    /// retry traffic, already included in `total_bytes` (zero on
    /// lossless links). `total_bytes - retransmit_bytes` is the
    /// engine-wide goodput figure Lemma 1 tables cite.
    pub retransmit_bytes: usize,
    /// Total messages across every shard's bus (consultation plane).
    pub message_count: usize,
    /// Per-shard wire-byte totals (index = shard).
    pub shard_bytes: Vec<usize>,
    /// Delivered wire bytes on the inter-shard gossip bus (zero under
    /// [`ReputationPolicy::Isolated`]). Undelivered frames — dropped by
    /// fault injection or failed sends — are excluded, so this is the
    /// control-plane figure Lemma 1 tables can cite directly.
    pub gossip_bytes: usize,
    /// Messages attempted on the inter-shard gossip bus.
    pub gossip_messages: usize,
    /// Certificate-cache counters (all zero when the engine was built
    /// without a cache — see [`ShardedAuthority::with_transports`]).
    pub cache: CacheStats,
    /// Frame-pool misses observed engine-wide: the calling thread's
    /// thread-local count plus every pool worker's (see
    /// [`crate::wire::frame_pool_misses`]). A warmed steady state holds
    /// this constant across batches — the zero-allocation claim of the
    /// consult hot path, observable at the engine level. Execution-shape
    /// *dependent* (worker threads warm their scratch independently of a
    /// sequential run), unlike every byte counter above.
    pub frame_pool_misses: u64,
}

/// The gossip wiring of an engine under a gossip [`ReputationPolicy`]:
/// the shared bus-carried plane, one backend handle per shard, and the
/// engine-wide counters that place epoch boundaries and adaptive
/// triggers.
struct GossipController {
    every: u64,
    check_every: u64,
    burst: u64,
    consultations: AtomicU64,
    dissents: AtomicU64,
    plane: Arc<GossipPlane>,
    backends: Vec<Arc<GossipReputation>>,
}

impl GossipController {
    /// Advances the engine-wide consultation counter by `count` (noting
    /// `new_dissents` dissenting votes) and runs `sync` if the advance
    /// crossed an epoch boundary, or a check boundary with the dissent
    /// burst threshold met. Crossing is detected from the interval the
    /// `fetch_add` itself returned — never from a separately loaded value
    /// — so concurrent callers may each sync, but a boundary can never
    /// fall through the cracks between two interleaved advances. Returns
    /// the new generation if the advance completed a full epoch (the
    /// caller then advances every backend's decay generation).
    fn note_consultations(
        &self,
        count: u64,
        new_dissents: u64,
        sync: impl FnOnce(),
    ) -> Option<u64> {
        if count == 0 {
            return None;
        }
        let before = self.consultations.fetch_add(count, Ordering::SeqCst);
        let after = before + count;
        if new_dissents > 0 {
            self.dissents.fetch_add(new_dissents, Ordering::SeqCst);
        }
        let crossed_epoch = after / self.every > before / self.every;
        let crossed_check = after / self.check_every > before / self.check_every;
        let burst_hit = self.dissents.load(Ordering::SeqCst) >= self.burst;
        if crossed_epoch || (crossed_check && burst_hit) {
            sync();
            self.dissents.store(0, Ordering::SeqCst);
        }
        crossed_epoch.then(|| after / self.every)
    }
}

/// A multi-bus rationality-authority service.
///
/// Each shard is a full single-bus [`RationalityAuthority`]; shard `s`
/// gets inventor identity `Inventor(s)` and a fresh verifier panel with
/// the configured behaviours. Agents are pinned to shards by
/// [`ShardedAuthority::shard_of`], so repeat consultations from the same
/// agent always hit the same bus. Whether they also hit the same
/// reputation *scope* is the [`ReputationPolicy`]'s call.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use ra_authority::{GameSpec, InventorBehavior, ShardedAuthority, VerifierBehavior};
/// use ra_games::named::prisoners_dilemma;
///
/// let engine = ShardedAuthority::new(
///     4,
///     InventorBehavior::Honest,
///     &[VerifierBehavior::Honest; 3],
/// );
/// let spec = Arc::new(GameSpec::Strategic(prisoners_dilemma().to_strategic()));
/// let requests: Vec<(u64, Arc<GameSpec>)> = (0..16).map(|a| (a, Arc::clone(&spec))).collect();
/// let outcomes = engine.consult_batch(&requests);
/// assert_eq!(outcomes.len(), 16);
/// assert!(outcomes.iter().all(|o| o.adopted));
/// ```
///
/// With gossip, exclusion propagates engine-wide and the merge traffic is
/// byte-accounted on a dedicated inter-shard bus. Decay and the
/// certificate cache are configured at the same call:
///
/// ```
/// use std::sync::Arc;
/// use ra_authority::{
///     Bus, CertCacheConfig, GameSpec, InventorBehavior, ReputationConfig, ReputationDecay,
///     ReputationPolicy, ShardedAuthority, VerifierBehavior,
/// };
/// use ra_games::named::prisoners_dilemma;
///
/// let engine = ShardedAuthority::with_transports(
///     4,
///     InventorBehavior::Honest,
///     &[VerifierBehavior::Honest; 3],
///     ReputationConfig {
///         policy: ReputationPolicy::Adaptive { every: 8, check_every: 8, burst: 1 },
///         decay: ReputationDecay::HalfLife { retention: 6 },
///         ..ReputationConfig::default()
///     },
///     CertCacheConfig::default(),
///     &|_| Arc::new(Bus::new()),
/// );
/// let spec = Arc::new(GameSpec::Strategic(prisoners_dilemma().to_strategic()));
/// let requests: Vec<(u64, Arc<GameSpec>)> = (0..16).map(|a| (a, Arc::clone(&spec))).collect();
/// engine.consult_batch(&requests);
/// let stats = engine.shard_stats();
/// assert!(stats.gossip_bytes > 0, "epoch merges are real framed sends");
/// assert_eq!(engine.reputation_config().decay, ReputationDecay::HalfLife { retention: 6 });
/// ```
pub struct ShardedAuthority {
    shards: Arc<Vec<Mutex<RationalityAuthority>>>,
    config: ReputationConfig,
    gossip: Option<GossipController>,
    /// The shared content-addressed certificate cache, when the config's
    /// capacity is nonzero: one instance attached to every shard, so a
    /// game solved on one shard is a hit on all of them.
    cert_cache: Option<Arc<CertCache>>,
    /// The persistent shard-pinned worker pool (see `pool.rs`): threads
    /// spin up lazily on the first multi-shard chunk and are reused until
    /// the engine drops.
    pool: ShardPool,
}

/// Which internal network a [`ShardedAuthority::with_transports`] factory
/// is being asked to produce: the engine calls the factory once per site,
/// so distinct sites can get distinct fault configurations (say, a lossy
/// gossip hub under perfect session buses).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransportSite {
    /// The per-shard session bus of shard `s` (Fig. 1 traffic).
    Shard(usize),
    /// The inter-shard gossip hub's bus (control-plane traffic).
    GossipHub,
}

impl ShardedAuthority {
    /// Builds an engine with `shards` independent shards under
    /// [`ReputationPolicy::Isolated`], each serving the given inventor
    /// behaviour through its own verifier panel.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(
        shards: usize,
        inventor_behavior: InventorBehavior,
        verifier_behaviors: &[VerifierBehavior],
    ) -> ShardedAuthority {
        ShardedAuthority::with_transports(
            shards,
            inventor_behavior,
            verifier_behaviors,
            ReputationConfig::default(),
            CertCacheConfig::default(),
            &|_| Arc::new(Bus::new()),
        )
    }

    /// Builds an engine with a full [`ReputationConfig`] and a
    /// certificate-cache configuration, where every internal network —
    /// each shard's session bus and the inter-shard gossip hub — is
    /// produced by `transport_for`, keyed by [`TransportSite`]. Passing
    /// `&|_| Arc::new(Bus::new())` gives the perfect in-process network
    /// of [`ShardedAuthority::new`]; passing [`crate::SimNet`]s puts the
    /// whole engine, control plane included, under simulated loss,
    /// latency and partitions.
    ///
    /// With a nonzero `cache.capacity` one shared [`CertCache`] is attached
    /// to every shard, so a game memoized by any shard is a digest hit on
    /// all of them; with capacity 0 (the [`CertCacheConfig::default`])
    /// consultations always run the full Fig. 1 protocol.
    ///
    /// # Examples
    ///
    /// ```
    /// use std::sync::Arc;
    /// use ra_authority::{
    ///     Bus, CertCacheConfig, GameSpec, InventorBehavior, ReputationConfig,
    ///     ShardedAuthority, VerifierBehavior,
    /// };
    /// use ra_games::named::prisoners_dilemma;
    ///
    /// let engine = ShardedAuthority::with_transports(
    ///     4,
    ///     InventorBehavior::Honest,
    ///     &[VerifierBehavior::Honest; 3],
    ///     ReputationConfig::default(),
    ///     CertCacheConfig::replay(1024),
    ///     &|_| Arc::new(Bus::new()),
    /// );
    /// let spec = GameSpec::Strategic(prisoners_dilemma().to_strategic());
    /// for agent in 0..16u64 {
    ///     engine.consult(agent, &spec);
    /// }
    /// let stats = engine.cache_stats();
    /// assert_eq!(stats.misses, 1, "one shard solved the game once");
    /// assert_eq!(stats.hits, 15, "everyone else hit the shared cache");
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero; if a gossip epoch, check interval or
    /// burst is zero; if an adaptive epoch is not a multiple of its check
    /// interval; if decay is requested under
    /// [`ReputationPolicy::Isolated`] (decay generations advance at
    /// gossip epoch boundaries, which isolated engines do not have).
    pub fn with_transports(
        shards: usize,
        inventor_behavior: InventorBehavior,
        verifier_behaviors: &[VerifierBehavior],
        config: ReputationConfig,
        cache: CertCacheConfig,
        transport_for: &dyn Fn(TransportSite) -> Arc<dyn Transport>,
    ) -> ShardedAuthority {
        assert!(shards > 0, "at least one shard");
        let cert_cache = (cache.capacity > 0).then(|| Arc::new(CertCache::new(cache)));
        let gossip = config.policy.cadence().map(|(every, check_every, burst)| {
            let plane = Arc::new(GossipPlane::over_transport_with(
                config.decay,
                transport_for(TransportSite::GossipHub),
            ));
            GossipController {
                every,
                check_every,
                burst,
                consultations: AtomicU64::new(0),
                dissents: AtomicU64::new(0),
                plane: plane.clone(),
                backends: (0..shards)
                    .map(|s| {
                        Arc::new(GossipReputation::with_config(
                            s as u64,
                            plane.clone(),
                            config.vote_rule,
                            config.decay,
                        ))
                    })
                    .collect(),
            }
        });
        assert!(
            gossip.is_some() || config.decay == ReputationDecay::None,
            "reputation decay requires a gossip policy (epochs are its clock)"
        );
        let shards: Arc<Vec<Mutex<RationalityAuthority>>> = Arc::new(
            (0..shards)
                .map(|s| {
                    let inventor = Inventor::new(s as u64, inventor_behavior);
                    let backend: Arc<dyn crate::ReputationBackend> = match &gossip {
                        None => Arc::new(LocalReputation::new()),
                        Some(g) => g.backends[s].clone(),
                    };
                    let mut authority = RationalityAuthority::with_transport(
                        inventor,
                        verifier_behaviors,
                        backend,
                        transport_for(TransportSite::Shard(s)),
                    );
                    if let Some(c) = &cert_cache {
                        authority.set_cert_cache(Arc::clone(c));
                    }
                    authority.salt_jitter(s as u64);
                    Mutex::new(authority)
                })
                .collect(),
        );
        ShardedAuthority {
            pool: ShardPool::new(Arc::clone(&shards)),
            shards,
            config,
            gossip,
            cert_cache,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The full reputation configuration this engine was built with.
    pub fn reputation_config(&self) -> ReputationConfig {
        self.config
    }

    /// The inter-shard gossip bus (byte accounting and fault injection
    /// for the control plane), or `None` under
    /// [`ReputationPolicy::Isolated`].
    pub fn gossip_bus(&self) -> Option<&dyn Transport> {
        self.gossip.as_ref().map(|g| g.plane.gossip_bus())
    }

    /// The shared certificate cache, or `None` when the engine was built
    /// without one (see [`ShardedAuthority::with_transports`]).
    pub fn cert_cache(&self) -> Option<&Arc<CertCache>> {
        self.cert_cache.as_ref()
    }

    /// Snapshot of the shared certificate cache's counters — all zero
    /// when the engine has no cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cert_cache
            .as_ref()
            .map_or_else(CacheStats::default, |c| c.stats())
    }

    /// Frame-pool misses observed engine-wide: the calling thread's
    /// thread-local count (inline consults and single-shard chunks run
    /// here) plus every pool worker's published count. Constant across
    /// warmed batches — the observable form of the hot path's
    /// zero-allocation claim.
    pub fn frame_pool_misses(&self) -> u64 {
        wire::frame_pool_misses() + self.pool.frame_pool_misses()
    }

    /// The shard serving `agent_id`: a deterministic (SplitMix64) hash of
    /// the agent id, so routing is stable across processes and runs.
    pub fn shard_of(&self, agent_id: u64) -> usize {
        let mut state = agent_id;
        (rand::splitmix64(&mut state) % self.shards.len() as u64) as usize
    }

    /// Runs one consultation, routed to the agent's shard. Under gossip,
    /// crossing an epoch boundary (or an adaptive dissent-burst trigger)
    /// runs [`ShardedAuthority::sync_reputation`] after the consultation
    /// completes — off the hot path, which itself only takes the shard's
    /// own locks.
    pub fn consult(&self, agent_id: u64, spec: &GameSpec) -> SessionOutcome {
        let outcome = self.shards[self.shard_of(agent_id)]
            .lock()
            .expect("shard lock poisoned")
            .consult(agent_id, spec);
        self.note_consultations(1, dissent_votes(&outcome));
        outcome
    }

    /// [`ShardedAuthority::consult`] with typed failure: under a
    /// caller-set budget, sessions that close without a decision return
    /// [`crate::ConsultError::Deadline`] instead of panicking. Failed
    /// consultations still advance the engine-wide gossip counters (they
    /// consumed a stream slot) but contribute no dissents — no verdict
    /// was pooled.
    pub fn try_consult(&self, agent_id: u64, spec: &GameSpec) -> ConsultResult {
        let result = self.shards[self.shard_of(agent_id)]
            .lock()
            .expect("shard lock poisoned")
            .try_consult(agent_id, spec);
        let dissents = result.as_ref().map(dissent_votes).unwrap_or(0);
        self.note_consultations(1, dissents);
        result
    }

    /// Attaches a caller-set budget on every shard, or with `None`
    /// returns them to the default one
    /// ([`RationalityAuthority::set_resilience`]). Each shard's jitter
    /// stream is reseeded by mixing the budget's seed with the shard
    /// index — the default budget's too — so retry timing is
    /// decorrelated across shards yet fully determined by the one seed:
    /// batch and sequential runs stay equal, because each shard consumes
    /// its own stream in request order either way.
    ///
    /// # Panics
    ///
    /// Panics if the config violates its invariants.
    pub fn set_resilience(&self, config: Option<ResilienceConfig>) {
        for (index, shard) in self.shards.iter().enumerate() {
            let mut shard = shard.lock().expect("shard lock poisoned");
            shard.set_resilience(config);
            shard.salt_jitter(index as u64);
        }
    }

    /// Fans a batch of consultations across the shards over the
    /// persistent worker pool — one long-lived thread pinned per shard,
    /// spun up lazily on the first multi-shard chunk and reused across
    /// chunks and across calls; a batch that routes to a single shard
    /// runs inline on the calling thread instead.
    ///
    /// Outcomes are returned in request order, and each equals what the
    /// same sequence of [`ShardedAuthority::consult`] calls would have
    /// produced: a shard handles its share of the batch sequentially, in
    /// request order, so worker interleaving cannot change any outcome.
    /// Under gossip the batch is additionally chunked at the engine-wide
    /// stream positions where sequential calls would evaluate a merge —
    /// epoch multiples, plus check-interval multiples under
    /// [`ReputationPolicy::Adaptive`] — with a full publish/pull merge
    /// between chunks when triggered, so the equality (including gossip
    /// byte accounting) holds under every policy.
    ///
    /// Requests carry `Arc<GameSpec>` so fanning a spec out to a worker
    /// bumps a reference count instead of deep-cloning payoff tables.
    pub fn consult_batch(&self, requests: &[(u64, Arc<GameSpec>)]) -> Vec<SessionOutcome> {
        self.try_consult_batch(requests)
            .into_iter()
            .map(|result| match result {
                Ok(outcome) => outcome,
                Err(e) => {
                    panic!("consultation failed ({e}); use try_consult_batch to handle errors")
                }
            })
            .collect()
    }

    /// [`ShardedAuthority::consult_batch`] with typed failure per
    /// request: under a caller-set budget, a session that closes
    /// undecided yields [`crate::ConsultError::Deadline`] at its slot
    /// without disturbing the rest of the batch. Determinism is
    /// unchanged — errors occupy their request slots, and each shard's
    /// jitter stream advances in request order exactly as sequential
    /// [`ShardedAuthority::try_consult`] calls would.
    pub fn try_consult_batch(&self, requests: &[(u64, Arc<GameSpec>)]) -> Vec<ConsultResult> {
        let mut results: Vec<Option<ConsultResult>> = Vec::new();
        results.resize_with(requests.len(), || None);
        match &self.gossip {
            None => self.run_chunk(requests, 0, requests.len(), &mut results),
            Some(g) => {
                let mut start = 0;
                while start < requests.len() {
                    let done = g.consultations.load(Ordering::SeqCst);
                    let room = (g.check_every - done % g.check_every) as usize;
                    let end = requests.len().min(start + room);
                    self.run_chunk(requests, start, end, &mut results);
                    let dissents = results[start..end]
                        .iter()
                        .flatten()
                        .filter_map(|r| r.as_ref().ok())
                        .map(dissent_votes)
                        .sum::<u64>();
                    self.note_consultations((end - start) as u64, dissents);
                    start = end;
                }
            }
        }
        results
            .into_iter()
            .map(|o| o.expect("every request was routed to a shard"))
            .collect()
    }

    /// Advances the engine-wide consultation/dissent counters and, when a
    /// boundary was crossed, merges and advances decay generations.
    /// Generations exist purely as the decay clock, so without decay they
    /// are never advanced — keeping every gossip payload a single
    /// generation deep instead of growing by one per epoch forever.
    fn note_consultations(&self, count: u64, dissents: u64) {
        if let Some(g) = &self.gossip {
            let new_generation = g.note_consultations(count, dissents, || self.sync_reputation());
            if let Some(generation) = new_generation {
                if self.config.decay != ReputationDecay::None {
                    for backend in &g.backends {
                        backend.advance_generation(generation);
                    }
                }
            }
        }
    }

    /// Processes `requests[start..end]`, writing each outcome at its
    /// request index. A chunk that hits several shards is dispatched to
    /// the persistent worker pool (one pinned worker per shard, reused
    /// across chunks and batches); a chunk that routes to a single shard
    /// runs inline on the calling thread, borrowing the specs directly —
    /// no spec clone, no pool wake-up.
    fn run_chunk(
        &self,
        requests: &[(u64, Arc<GameSpec>)],
        start: usize,
        end: usize,
        results: &mut [Option<ConsultResult>],
    ) {
        let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        for (offset, &(agent_id, _)) in requests[start..end].iter().enumerate() {
            by_shard[self.shard_of(agent_id)].push(start + offset);
        }
        let non_empty = by_shard.iter().filter(|ix| !ix.is_empty()).count();
        if non_empty > 1 {
            self.fan_out(requests, &by_shard, results);
            return;
        }
        for (shard, indices) in self.shards.iter().zip(&by_shard) {
            if indices.is_empty() {
                continue;
            }
            let mut shard = shard.lock().expect("shard lock poisoned");
            for &i in indices {
                let (agent_id, spec) = &requests[i];
                results[i] = Some(shard.try_consult(*agent_id, spec.as_ref()));
            }
        }
    }

    /// Dispatches one multi-shard chunk to the pinned worker pool. Jobs
    /// own their payloads (one `Arc` bump per request — never a deep spec
    /// clone), which is what keeps the long-lived workers free of
    /// borrowed data.
    fn fan_out(
        &self,
        requests: &[(u64, Arc<GameSpec>)],
        by_shard: &[Vec<usize>],
        results: &mut [Option<ConsultResult>],
    ) {
        let chunk = by_shard
            .iter()
            .enumerate()
            .filter(|(_, indices)| !indices.is_empty())
            .map(|(shard, indices)| {
                let owned = indices
                    .iter()
                    .map(|&i| {
                        let (agent_id, spec) = &requests[i];
                        (i, *agent_id, Arc::clone(spec))
                    })
                    .collect();
                (shard, owned)
            })
            .collect();
        self.pool.run(chunk, results);
    }

    /// Forces one full gossip epoch merge: every shard publishes its
    /// PN-counter slice to the plane (a framed send on the inter-shard
    /// bus), then every shard pulls the merged state back (another framed
    /// send), so all shards converge on the join of everything observed
    /// so far. A no-op under [`ReputationPolicy::Isolated`].
    pub fn sync_reputation(&self) {
        if let Some(g) = &self.gossip {
            for backend in &g.backends {
                backend.push();
            }
            for backend in &g.backends {
                backend.pull();
            }
        }
    }

    /// Runs a closure against one shard's [`RationalityAuthority`] (for
    /// per-shard inspection: bus accounting, fault injection, reputation).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn with_shard<R>(&self, shard: usize, f: impl FnOnce(&RationalityAuthority) -> R) -> R {
        assert!(shard < self.shards.len(), "shard index out of range");
        f(&self.shards[shard].lock().expect("shard lock poisoned"))
    }

    /// Collects the bus accounting of every shard — plus the inter-shard
    /// gossip bus, when the policy has one — in one pass, locking each
    /// shard exactly once.
    pub fn shard_stats(&self) -> ShardStats {
        let mut stats = ShardStats {
            shard_bytes: Vec::with_capacity(self.shards.len()),
            ..ShardStats::default()
        };
        for shard in self.shards.iter() {
            let shard = shard.lock().expect("shard lock poisoned");
            let bytes = shard.bus().total_bytes();
            stats.total_bytes += bytes;
            stats.retransmit_bytes += shard.bus().retransmit_bytes();
            stats.message_count += shard.bus().message_count();
            stats.shard_bytes.push(bytes);
        }
        if let Some(bus) = self.gossip_bus() {
            stats.gossip_bytes = bus.delivered_bytes();
            stats.gossip_messages = bus.message_count();
        }
        stats.cache = self.cache_stats();
        stats.frame_pool_misses = self.frame_pool_misses();
        stats
    }

    /// Total wire bytes across every shard's bus (consultation plane).
    pub fn total_bytes(&self) -> usize {
        self.shard_stats().total_bytes
    }
}

/// Dissenting votes in one outcome (0 when no verdict was pooled). A
/// cached outcome replays the *cold* session's majority for the caller's
/// benefit, but no verifier actually voted — counting those dissents
/// again would re-fire adaptive gossip triggers on pure cache hits.
fn dissent_votes(outcome: &SessionOutcome) -> u64 {
    if outcome.cached {
        return 0;
    }
    outcome
        .majority
        .as_ref()
        .map_or(0, |m| m.dissenters.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::Party;
    use ra_games::named::{battle_of_the_sexes, prisoners_dilemma};

    /// An engine over perfect buses with no certificate cache. Every bus
    /// keeps its delivery log, which the per-pair sums are read from.
    fn bus_engine(
        shards: usize,
        inventor: InventorBehavior,
        panel: &[VerifierBehavior],
        config: ReputationConfig,
    ) -> ShardedAuthority {
        ShardedAuthority::with_transports(
            shards,
            inventor,
            panel,
            config,
            CertCacheConfig::default(),
            &|_| Arc::new(Bus::new().with_delivery_log()),
        )
    }

    /// Fixed-cadence gossip: every check falls on an epoch boundary, so
    /// the dissent burst never decides a sync.
    fn gossip(every: usize) -> ReputationPolicy {
        ReputationPolicy::Adaptive {
            every,
            check_every: every,
            burst: 1,
        }
    }

    fn mixed_specs() -> Vec<GameSpec> {
        vec![
            GameSpec::Strategic(prisoners_dilemma().to_strategic()),
            GameSpec::Bimatrix(battle_of_the_sexes()),
        ]
    }

    fn batch(n: u64) -> Vec<(u64, Arc<GameSpec>)> {
        let specs: Vec<Arc<GameSpec>> = mixed_specs().into_iter().map(Arc::new).collect();
        (0..n)
            .map(|a| (a, Arc::clone(&specs[(a % specs.len() as u64) as usize])))
            .collect()
    }

    /// Strips the execution-shape-*dependent* `frame_pool_misses` gauge so
    /// the remaining (shape-independent) counters can be compared between
    /// a batched and a sequential run: pool workers warm their own
    /// thread-local scratch, which a sequential run never pays.
    fn comparable(mut stats: ShardStats) -> ShardStats {
        stats.frame_pool_misses = 0;
        stats
    }

    /// The saboteur panel: two honest verifiers and one `AlwaysReject`, so
    /// reputation actually evolves during determinism comparisons.
    fn saboteur_panel() -> [VerifierBehavior; 3] {
        [
            VerifierBehavior::Honest,
            VerifierBehavior::Honest,
            VerifierBehavior::AlwaysReject,
        ]
    }

    #[test]
    fn resilient_batch_matches_sequential_over_lossy_simnet() {
        use crate::session::ResilienceConfig;
        use crate::simnet::{LinkProfile, SimNet, SimNetConfig};
        // Seed-deterministic resilience: two engines with identical
        // transport seeds and the same resilience seed must agree —
        // batched against sequential — on every outcome, every retry
        // count and every ledger figure, even at 20% per-link loss.
        let requests = batch(32);
        let factory = |site: TransportSite| -> Arc<dyn Transport> {
            let salt = match site {
                TransportSite::Shard(s) => s as u64,
                TransportSite::GossipHub => u64::MAX,
            };
            Arc::new(SimNet::new(SimNetConfig {
                seed: 0xC0FFEE ^ salt,
                default_link: LinkProfile::lossy(0.2),
                ..SimNetConfig::default()
            }))
        };
        let config = ReputationConfig::from(gossip(8));
        let build = || {
            let engine = ShardedAuthority::with_transports(
                4,
                InventorBehavior::Honest,
                &saboteur_panel(),
                config,
                CertCacheConfig::default(),
                &factory,
            );
            engine.set_resilience(Some(ResilienceConfig::default()));
            engine
        };
        let batched = build();
        let sequential = build();
        let from_batch = batched.try_consult_batch(&requests);
        let from_seq: Vec<ConsultResult> = requests
            .iter()
            .map(|(agent, spec)| sequential.try_consult(*agent, spec.as_ref()))
            .collect();
        assert_eq!(from_batch.len(), from_seq.len());
        for (b, s) in from_batch.iter().zip(&from_seq) {
            match (b, s) {
                (Ok(b), Ok(s)) => {
                    assert_eq!(b.adopted, s.adopted);
                    assert_eq!(b.majority, s.majority);
                    assert_eq!(b.session_bytes, s.session_bytes);
                    assert_eq!(b.attempts, s.attempts);
                    assert_eq!(b.panel, s.panel);
                }
                (Err(b), Err(s)) => assert_eq!(b, s),
                other => panic!("batch/sequential divergence: {other:?}"),
            }
        }
        let batched_stats = comparable(batched.shard_stats());
        assert_eq!(batched_stats, comparable(sequential.shard_stats()));
        assert!(
            batched_stats.retransmit_bytes > 0,
            "20% loss across 32 consults must force retransmits"
        );
        assert!(batched_stats.retransmit_bytes < batched_stats.total_bytes);
    }

    #[test]
    fn resilience_off_batch_stats_are_unchanged() {
        // The default engine never pays for the resilience layer: stats
        // report zero retransmit bytes and the determinism suite's
        // equalities keep holding (they run elsewhere in this module).
        let engine = ShardedAuthority::new(4, InventorBehavior::Honest, &saboteur_panel());
        let _ = engine.consult_batch(&batch(16));
        let stats = engine.shard_stats();
        assert_eq!(stats.retransmit_bytes, 0);
        assert!(stats.total_bytes > 0);
    }

    fn assert_batch_matches_sequential(config: ReputationConfig, n: u64) {
        let requests = batch(n);
        let batched = bus_engine(4, InventorBehavior::Honest, &saboteur_panel(), config);
        let sequential = bus_engine(4, InventorBehavior::Honest, &saboteur_panel(), config);
        let batch_outcomes = batched.consult_batch(&requests);
        let seq_outcomes: Vec<SessionOutcome> = requests
            .iter()
            .map(|(agent, spec)| sequential.consult(*agent, spec.as_ref()))
            .collect();
        assert_eq!(batch_outcomes.len(), seq_outcomes.len());
        for (b, s) in batch_outcomes.iter().zip(&seq_outcomes) {
            assert_eq!(b.adopted, s.adopted, "{config:?}");
            assert_eq!(b.majority, s.majority, "{config:?}");
            assert_eq!(b.session_bytes, s.session_bytes, "{config:?}");
        }
        assert_eq!(
            comparable(batched.shard_stats()),
            comparable(sequential.shard_stats()),
            "gossip byte accounting must be execution-shape independent"
        );
    }

    #[test]
    fn routing_is_total_and_stable() {
        let engine =
            ShardedAuthority::new(4, InventorBehavior::Honest, &[VerifierBehavior::Honest; 3]);
        let twin =
            ShardedAuthority::new(4, InventorBehavior::Honest, &[VerifierBehavior::Honest; 3]);
        let mut hit = [false; 4];
        for agent in 0..256u64 {
            let s = engine.shard_of(agent);
            assert!(s < 4);
            assert_eq!(s, twin.shard_of(agent), "routing is instance-independent");
            hit[s] = true;
        }
        assert!(hit.iter().all(|&h| h), "256 agents reach every shard");
    }

    #[test]
    fn routing_stream_is_pinned() {
        // The exact routes produced by the inlined SplitMix64 hash before
        // it was deduplicated into `rand::splitmix64`. Any drift here
        // re-homes agents (and their per-shard game-id streams) across a
        // version bump, so these constants must never change.
        let four =
            ShardedAuthority::new(4, InventorBehavior::Honest, &[VerifierBehavior::Honest; 3]);
        let eight =
            ShardedAuthority::new(8, InventorBehavior::Honest, &[VerifierBehavior::Honest; 3]);
        let route4: Vec<usize> = (0..16u64).map(|a| four.shard_of(a)).collect();
        let route8: Vec<usize> = (0..16u64).map(|a| eight.shard_of(a)).collect();
        assert_eq!(route4, [3, 1, 2, 1, 2, 2, 0, 3, 2, 0, 2, 1, 3, 3, 2, 1]);
        assert_eq!(route8, [7, 1, 6, 5, 2, 2, 0, 7, 6, 4, 2, 5, 3, 7, 6, 5]);
    }

    #[test]
    fn repeat_consultations_stay_on_one_shard() {
        let engine =
            ShardedAuthority::new(4, InventorBehavior::Honest, &[VerifierBehavior::Honest; 3]);
        let spec = GameSpec::Strategic(prisoners_dilemma().to_strategic());
        let agent = 42u64;
        let home = engine.shard_of(agent);
        for _ in 0..3 {
            assert!(engine.consult(agent, &spec).adopted);
        }
        for s in 0..engine.shard_count() {
            let messages = engine.with_shard(s, |a| a.bus().message_count());
            if s == home {
                assert!(messages > 0);
            } else {
                assert_eq!(messages, 0, "other shards saw no traffic");
            }
        }
    }

    #[test]
    fn batch_matches_sequential_routed_calls() {
        assert_batch_matches_sequential(ReputationConfig::default(), 64);
    }

    #[test]
    fn gossip_batch_matches_sequential_routed_calls() {
        // Epoch shorter than the batch, so merges happen mid-stream in
        // both executions.
        assert_batch_matches_sequential(gossip(16).into(), 64);
    }

    #[test]
    fn decaying_gossip_batch_matches_sequential() {
        // Epoch 8 over 64 consultations: several generations advance (and
        // prune) mid-stream in both executions.
        assert_batch_matches_sequential(
            ReputationConfig {
                policy: gossip(8),
                vote_rule: VoteRule::Simple,
                decay: ReputationDecay::HalfLife { retention: 3 },
            },
            64,
        );
    }

    #[test]
    fn adaptive_batch_matches_sequential() {
        // With a saboteur in the panel every consultation dissents, so
        // adaptive triggers fire at check boundaries throughout.
        assert_batch_matches_sequential(
            ReputationConfig {
                policy: ReputationPolicy::Adaptive {
                    every: 32,
                    check_every: 4,
                    burst: 2,
                },
                vote_rule: VoteRule::Simple,
                decay: ReputationDecay::HalfLife { retention: 4 },
            },
            64,
        );
    }

    /// Pool-reuse determinism: the worker threads persist across
    /// `consult_batch` calls, and two consecutive batches must equal one
    /// concatenated sequential run — outcomes, majorities and every byte
    /// counter, including control-plane gossip bytes.
    fn assert_split_batches_match_one_sequential_stream(config: ReputationConfig) {
        let requests = batch(64);
        let (first, second) = requests.split_at(24);
        let batched = bus_engine(4, InventorBehavior::Honest, &saboteur_panel(), config);
        let mut batch_outcomes = batched.consult_batch(first);
        batch_outcomes.extend(batched.consult_batch(second));
        let sequential = bus_engine(4, InventorBehavior::Honest, &saboteur_panel(), config);
        let seq_outcomes: Vec<SessionOutcome> = requests
            .iter()
            .map(|(agent, spec)| sequential.consult(*agent, spec.as_ref()))
            .collect();
        assert_eq!(batch_outcomes.len(), seq_outcomes.len());
        for (b, s) in batch_outcomes.iter().zip(&seq_outcomes) {
            assert_eq!(b.adopted, s.adopted, "{config:?}");
            assert_eq!(b.majority, s.majority, "{config:?}");
            assert_eq!(b.session_bytes, s.session_bytes, "{config:?}");
        }
        assert_eq!(
            comparable(batched.shard_stats()),
            comparable(sequential.shard_stats()),
            "{config:?}: pool reuse across batches leaked into accounting"
        );
    }

    #[test]
    fn pool_reuse_matches_sequential_under_gossip() {
        // The 24-consultation split lands mid-epoch, so the second batch
        // resumes both the pool workers and the epoch chunking state.
        assert_split_batches_match_one_sequential_stream(gossip(16).into());
    }

    #[test]
    fn pool_reuse_matches_sequential_under_adaptive() {
        assert_split_batches_match_one_sequential_stream(ReputationConfig {
            policy: ReputationPolicy::Adaptive {
                every: 32,
                check_every: 4,
                burst: 2,
            },
            vote_rule: VoteRule::Simple,
            decay: ReputationDecay::HalfLife { retention: 4 },
        });
    }

    #[test]
    fn up_to_date_shards_pull_zero_bytes() {
        // Versioned pulls: once a sync has brought every shard up to date,
        // re-syncing ships the (unchanged) push slices but not one byte of
        // pull payload — the hub answers watermarked pulls with nothing,
        // instead of re-framing a snapshot that scales with retained state.
        let engine = bus_engine(
            4,
            InventorBehavior::Honest,
            &saboteur_panel(),
            ReputationConfig::from(gossip(16)),
        );
        engine.consult_batch(&batch(48));
        // One sync to flush observations recorded after the last epoch
        // boundary; every shard is now up to date.
        engine.sync_reputation();
        let bus = engine.gossip_bus().expect("gossip engine has a bus");
        let pull_bytes = |bus: &dyn Transport| {
            (0..4)
                .map(|s| bus.bytes_between(crate::reputation::GOSSIP_HUB, Party::Shard(s)))
                .sum::<usize>()
        };
        let (pulls_before, messages_before) = (pull_bytes(bus), bus.message_count());
        assert!(pulls_before > 0, "the earlier syncs shipped pull payload");
        engine.sync_reputation();
        assert_eq!(
            pull_bytes(bus),
            pulls_before,
            "idle pulls must ship zero bytes"
        );
        assert_eq!(
            bus.message_count(),
            messages_before + 4,
            "an idle sync costs exactly the four push frames"
        );
    }

    #[test]
    fn pull_payload_is_bounded_by_unseen_updates() {
        // A shard that just pulled re-pulls after ONE new observation
        // lands on a peer: the second delta must be far smaller than the
        // first full catch-up, instead of scaling with the total state.
        let engine = bus_engine(
            4,
            InventorBehavior::Honest,
            &[VerifierBehavior::Honest; 3],
            ReputationConfig::from(gossip(8)),
        );
        engine.consult_batch(&batch(64));
        engine.sync_reputation();
        let bus = engine.gossip_bus().expect("gossip engine has a bus");
        let shard0_pulls =
            |bus: &dyn Transport| bus.bytes_between(crate::reputation::GOSSIP_HUB, Party::Shard(0));
        // One consultation on a foreign shard, then shard 0 re-syncs.
        let away = (0..1000u64)
            .find(|&a| engine.shard_of(a) != 0)
            .expect("an agent homed elsewhere");
        let full_catch_up = shard0_pulls(bus);
        assert!(full_catch_up > 0, "the batch produced real pull traffic");
        engine.consult(away, &spec_for_tests());
        engine.sync_reputation();
        let incremental = shard0_pulls(bus) - full_catch_up;
        assert!(incremental > 0, "the new observation must be shipped");
        assert!(
            incremental * 4 < full_catch_up,
            "one-observation delta ({incremental}B) should be a fraction of \
             the full catch-up ({full_catch_up}B)"
        );
    }

    fn spec_for_tests() -> GameSpec {
        GameSpec::Strategic(prisoners_dilemma().to_strategic())
    }

    #[test]
    fn gossip_bytes_accounted_under_gossip_and_zero_under_isolated() {
        let requests = batch(48);
        let isolated =
            ShardedAuthority::new(4, InventorBehavior::Honest, &[VerifierBehavior::Honest; 3]);
        isolated.consult_batch(&requests);
        let stats = isolated.shard_stats();
        assert_eq!(stats.gossip_bytes, 0);
        assert_eq!(stats.gossip_messages, 0);
        assert!(isolated.gossip_bus().is_none());

        let gossip = bus_engine(
            4,
            InventorBehavior::Honest,
            &[VerifierBehavior::Honest; 3],
            ReputationConfig::from(gossip(16)),
        );
        gossip.consult_batch(&requests);
        let stats = gossip.shard_stats();
        assert!(stats.gossip_bytes > 0, "48 consultations cross 3 epochs");
        // 4 shards × (1 push + 1 pull) per sync.
        assert_eq!(stats.gossip_messages % 8, 0);
        let bus = gossip.gossip_bus().expect("gossip engine has a bus");
        assert_eq!(stats.gossip_bytes, bus.delivered_bytes());
        assert_eq!(
            bus.delivered_bytes(),
            bus.total_bytes(),
            "no faults: all frames delivered"
        );
    }

    #[test]
    fn undelivered_gossip_frames_excluded_from_stats() {
        // Regression for the PR 2 failed-send accounting change: frames
        // dropped on the gossip bus are counted as attempts but excluded
        // from the Lemma 1 `gossip_bytes` figure.
        let engine = bus_engine(
            2,
            InventorBehavior::Honest,
            &saboteur_panel(),
            ReputationConfig::from(gossip(4)),
        );
        let spec = GameSpec::Strategic(prisoners_dilemma().to_strategic());
        // One epoch of clean traffic registers every shard endpoint.
        for agent in 0..4u64 {
            engine.consult(agent, &spec);
        }
        let clean = engine.shard_stats();
        assert!(clean.gossip_bytes > 0);
        // Cut shard 0's uplink; further pushes are attempted, accounted,
        // and dropped.
        let bus = engine.gossip_bus().unwrap();
        bus.drop_link(Party::Shard(0), crate::reputation::GOSSIP_HUB);
        for agent in 4..12u64 {
            engine.consult(agent, &spec);
        }
        let faulty = engine.shard_stats();
        let bus = engine.gossip_bus().unwrap();
        assert!(
            bus.total_bytes() > bus.delivered_bytes(),
            "dropped frames were attempted"
        );
        assert_eq!(
            faulty.gossip_bytes,
            bus.delivered_bytes(),
            "stats cite delivered bytes only"
        );
    }

    #[test]
    fn adaptive_dissent_burst_syncs_before_the_epoch() {
        // Same saboteur traffic, one engine on a long fixed epoch and one
        // adaptive engine with the same epoch but a tight burst trigger:
        // the adaptive engine must propagate the exclusion engine-wide in
        // far fewer consultations.
        let consultations_to_global_exclusion = |policy: ReputationPolicy| {
            let engine = bus_engine(
                4,
                InventorBehavior::Honest,
                &saboteur_panel(),
                ReputationConfig::from(policy),
            );
            let saboteur = Party::Verifier(2);
            let spec = GameSpec::Strategic(prisoners_dilemma().to_strategic());
            for consultations in 1..=512u64 {
                engine.consult(consultations - 1, &spec);
                let excluded_everywhere = (0..engine.shard_count())
                    .all(|s| engine.with_shard(s, |a| !a.reputation().is_trusted(saboteur)));
                if excluded_everywhere {
                    return consultations;
                }
            }
            panic!("saboteur never excluded engine-wide");
        };
        let fixed = consultations_to_global_exclusion(gossip(128));
        let adaptive = consultations_to_global_exclusion(ReputationPolicy::Adaptive {
            every: 128,
            check_every: 4,
            burst: 2,
        });
        assert!(
            adaptive < fixed,
            "adaptive ({adaptive}) must beat the fixed epoch ({fixed})"
        );
        assert!(adaptive <= 48, "burst trigger fires within a few checks");
    }

    #[test]
    fn decay_forgives_an_excluded_verifier_after_enough_epochs() {
        // The saboteur is excluded, then behaves like everyone else (it is
        // no longer consulted, so it stops dissenting); after `retention`
        // epochs its old dissents decay away and it is trusted again.
        let engine = bus_engine(
            1,
            InventorBehavior::Honest,
            &saboteur_panel(),
            ReputationConfig {
                policy: gossip(8),
                vote_rule: VoteRule::Simple,
                decay: ReputationDecay::HalfLife { retention: 3 },
            },
        );
        let saboteur = Party::Verifier(2);
        let spec = GameSpec::Strategic(prisoners_dilemma().to_strategic());
        let mut agent = 0u64;
        // Drive the saboteur out.
        while engine.with_shard(0, |a| a.reputation().is_trusted(saboteur)) {
            engine.consult(agent, &spec);
            agent += 1;
            assert!(agent < 64, "saboteur never excluded");
        }
        // Keep consulting: generations advance every 8 consultations and
        // the frozen dissents halve away until the verifier re-enters.
        let excluded_at = agent;
        while !engine.with_shard(0, |a| a.reputation().is_trusted(saboteur)) {
            engine.consult(agent, &spec);
            agent += 1;
            assert!(agent < excluded_at + 64, "decay never forgave the saboteur");
        }
        // Without decay the exclusion would have been permanent (the
        // saboteur is not consulted, so nothing can raise its score).
        let permanent = bus_engine(
            1,
            InventorBehavior::Honest,
            &saboteur_panel(),
            ReputationConfig::from(gossip(8)),
        );
        for a in 0..agent {
            permanent.consult(a, &spec);
        }
        assert!(
            permanent.with_shard(0, |a| !a.reputation().is_trusted(saboteur)),
            "non-decaying engine keeps the exclusion"
        );
    }

    #[test]
    fn corrupt_inventor_rejected_on_every_shard() {
        let engine =
            ShardedAuthority::new(4, InventorBehavior::Corrupt, &[VerifierBehavior::Honest; 3]);
        for outcome in engine.consult_batch(&batch(16)) {
            assert!(!outcome.adopted);
            assert!(outcome.advice.is_some(), "advice was given but rejected");
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let engine =
            ShardedAuthority::new(2, InventorBehavior::Honest, &[VerifierBehavior::Honest]);
        assert!(engine.consult_batch(&[]).is_empty());
        assert_eq!(engine.total_bytes(), 0);
        assert_eq!(engine.shard_stats().message_count, 0);
    }

    #[test]
    fn single_shard_batch_runs_inline() {
        // All agents pinned to one shard: the batch must still complete
        // (through the inline path) with the same outcomes as routed
        // sequential calls.
        let engine =
            ShardedAuthority::new(4, InventorBehavior::Honest, &[VerifierBehavior::Honest; 3]);
        let spec = Arc::new(GameSpec::Strategic(prisoners_dilemma().to_strategic()));
        let pinned: Vec<(u64, Arc<GameSpec>)> = (0..1000u64)
            .filter(|&a| engine.shard_of(a) == engine.shard_of(0))
            .take(8)
            .map(|a| (a, Arc::clone(&spec)))
            .collect();
        assert_eq!(pinned.len(), 8, "enough agents share shard 0's home");
        let outcomes = engine.consult_batch(&pinned);
        assert!(outcomes.iter().all(|o| o.adopted));
        let home = engine.shard_of(0);
        for (s, &bytes) in engine.shard_stats().shard_bytes.iter().enumerate() {
            assert_eq!(s != home, bytes == 0);
        }
    }

    #[test]
    fn shard_stats_matches_legacy_accessors() {
        let engine =
            ShardedAuthority::new(4, InventorBehavior::Honest, &[VerifierBehavior::Honest; 3]);
        engine.consult_batch(&batch(32));
        let stats = engine.shard_stats();
        assert_eq!(stats.total_bytes, engine.total_bytes());
        let buses: Vec<(usize, usize)> = (0..engine.shard_count())
            .map(|s| engine.with_shard(s, |a| (a.bus().total_bytes(), a.bus().message_count())))
            .collect();
        let shard_bytes: Vec<usize> = buses.iter().map(|&(bytes, _)| bytes).collect();
        assert_eq!(stats.shard_bytes, shard_bytes);
        assert_eq!(
            stats.message_count,
            buses.iter().map(|&(_, count)| count).sum::<usize>()
        );
        assert_eq!(stats.total_bytes, stats.shard_bytes.iter().sum::<usize>());
        assert!(stats.total_bytes > 0);
    }

    #[test]
    fn gossip_spreads_exclusion_at_epoch_boundaries() {
        // Saboteur dissents on every shard; under gossip its global score
        // drains by the *sum* of per-shard dissents, and a sync makes the
        // exclusion visible even on shards that saw few dissents.
        let engine = bus_engine(
            4,
            InventorBehavior::Honest,
            &saboteur_panel(),
            ReputationConfig::from(gossip(4)),
        );
        let spec = GameSpec::Strategic(prisoners_dilemma().to_strategic());
        let saboteur = Party::Verifier(2);
        let mut consultations = 0u64;
        for agent in 0.. {
            engine.consult(agent, &spec);
            consultations += 1;
            let excluded_everywhere = (0..engine.shard_count())
                .all(|s| engine.with_shard(s, |a| !a.reputation().is_trusted(saboteur)));
            if excluded_everywhere {
                break;
            }
            assert!(consultations < 100, "gossip never excluded the saboteur");
        }
        // 10 dissents drain the initial score; epoch lag adds at most one
        // epoch (4) plus the consultations spread across shards.
        assert!(
            consultations <= 16,
            "global exclusion took {consultations} consultations"
        );
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        ShardedAuthority::new(0, InventorBehavior::Honest, &[VerifierBehavior::Honest]);
    }

    #[test]
    #[should_panic(expected = "gossip epoch must be positive")]
    fn zero_gossip_epoch_rejected() {
        bus_engine(
            2,
            InventorBehavior::Honest,
            &[VerifierBehavior::Honest],
            ReputationConfig::from(gossip(0)),
        );
    }

    #[test]
    #[should_panic(expected = "multiple of the check interval")]
    fn misaligned_adaptive_policy_rejected() {
        bus_engine(
            2,
            InventorBehavior::Honest,
            &[VerifierBehavior::Honest],
            ReputationConfig::from(ReputationPolicy::Adaptive {
                every: 10,
                check_every: 4,
                burst: 1,
            }),
        );
    }

    #[test]
    #[should_panic(expected = "decay requires a gossip policy")]
    fn decay_under_isolated_rejected() {
        bus_engine(
            2,
            InventorBehavior::Honest,
            &[VerifierBehavior::Honest],
            ReputationConfig {
                policy: ReputationPolicy::Isolated,
                vote_rule: VoteRule::Simple,
                decay: ReputationDecay::HalfLife { retention: 2 },
            },
        );
    }

    #[test]
    #[should_panic(expected = "shard index out of range")]
    fn with_shard_rejects_out_of_range_index() {
        let engine =
            ShardedAuthority::new(2, InventorBehavior::Honest, &[VerifierBehavior::Honest]);
        engine.with_shard(2, |_| ());
    }

    fn cached_engine(cache: CertCacheConfig) -> ShardedAuthority {
        ShardedAuthority::with_transports(
            4,
            InventorBehavior::Honest,
            &[VerifierBehavior::Honest; 3],
            ReputationConfig::default(),
            cache,
            &|_| Arc::new(Bus::new()),
        )
    }

    #[test]
    fn shared_cache_serves_hits_across_shards_for_zero_bytes() {
        let engine = cached_engine(CertCacheConfig::replay(1024));
        let spec = spec_for_tests();
        // Sequential consults so the miss/hit split is exact: the first
        // consult (whichever shard it routes to) populates the shared
        // cache, and every later consult hits it — including on shards
        // that never solved the game themselves.
        let outcomes: Vec<SessionOutcome> = (0..16u64).map(|a| engine.consult(a, &spec)).collect();
        assert!(!outcomes[0].cached, "first consult runs the protocol");
        assert!(
            outcomes[1..]
                .iter()
                .all(|o| o.cached && o.session_bytes == 0),
            "hits are cross-shard and ship zero session bytes"
        );
        let stats = engine.shard_stats();
        assert_eq!(stats.cache.hits, 15);
        assert_eq!(stats.cache.misses, 1);
        assert_eq!(stats.cache.evictions, 0);
        // Byte delta: the cached engine's entire bus traffic is the one
        // cold session — identical to a plain engine running it once.
        let plain =
            ShardedAuthority::new(4, InventorBehavior::Honest, &[VerifierBehavior::Honest; 3]);
        plain.consult(0, &spec);
        assert_eq!(
            stats.total_bytes,
            plain.total_bytes(),
            "15 hits added zero wire bytes"
        );
    }

    #[test]
    fn replay_cache_hits_match_cold_consult_outcomes() {
        let replay = cached_engine(CertCacheConfig::replay(1024));
        let plain =
            ShardedAuthority::new(4, InventorBehavior::Honest, &[VerifierBehavior::Honest; 3]);
        for spec in mixed_specs() {
            for agent in 0..4u64 {
                let cold = plain.consult(agent, &spec);
                let warm = replay.consult(agent, &spec);
                assert_eq!(warm.adopted, cold.adopted);
                assert_eq!(warm.advice, cold.advice);
                assert_eq!(warm.majority, cold.majority);
                assert_eq!(warm.advice_bytes, cold.advice_bytes);
            }
        }
        let stats = replay.cache_stats();
        assert_eq!(stats.misses, 2, "one cold solve per distinct spec");
        assert_eq!(stats.hits, 6);
        assert_eq!(stats.replay_failures, 0, "honest kernel replays agree");
    }

    #[test]
    fn replay_hits_cross_shards_whose_panels_agree_whatever_their_counters() {
        // Shard 0 excludes Verifier(2) and readmits it, so both shards
        // trust the same panel while their panel versions read 2 and 0: a
        // vote minted on either is the vote the other's panel casts.
        let engine = ShardedAuthority::with_transports(
            2,
            InventorBehavior::Honest,
            &[VerifierBehavior::Honest; 3],
            ReputationConfig::default(),
            CertCacheConfig::replay(64),
            &|_| Arc::new(Bus::new()),
        );
        let agent_on = |shard| (0..).find(|&a| engine.shard_of(a) == shard).unwrap();
        let round = |readmit| {
            [
                (Party::Verifier(0), true),
                (Party::Verifier(1), true),
                (Party::Verifier(2), readmit),
            ]
        };
        engine.with_shard(0, |a| {
            let store = a.reputation();
            while store.is_trusted(Party::Verifier(2)) {
                store.pool_verdicts(&round(false));
            }
            while !store.is_trusted(Party::Verifier(2)) {
                store.pool_verdicts(&round(true));
            }
        });
        let counters: Vec<u64> = (0..2)
            .map(|s| engine.with_shard(s, |a| a.reputation().snapshot().panel_version()))
            .collect();
        assert_eq!(counters, [2, 0]);
        let panels: Vec<_> = (0..2)
            .map(|s| engine.with_shard(s, |a| a.trusted_verifiers()))
            .collect();
        assert_eq!(panels[0], panels[1]);

        let spec = spec_for_tests();
        let cold = engine.consult(agent_on(0), &spec);
        assert!(!cold.cached);
        let warm = engine.consult(agent_on(1), &spec);
        assert!(warm.cached, "the same panel replays the vote it cast");
        assert_eq!(warm.verdict_details, cold.verdict_details);
        assert_eq!(
            (warm.adopted, &warm.majority),
            (cold.adopted, &cold.majority)
        );
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.stale), (1, 1, 0));
    }

    #[test]
    fn disabled_cache_is_bit_for_bit_the_plain_engine() {
        // The off-switch regression: a disabled cache config must leave
        // outcomes, Lemma 1 byte accounting and batch==sequential
        // determinism exactly as the cacheless constructors produce them.
        let requests = batch(64);
        let config: ReputationConfig = gossip(16).into();
        let plain = bus_engine(4, InventorBehavior::Honest, &saboteur_panel(), config);
        let disabled = ShardedAuthority::with_transports(
            4,
            InventorBehavior::Honest,
            &saboteur_panel(),
            config,
            CertCacheConfig::default(),
            &|_| Arc::new(Bus::new()),
        );
        assert!(disabled.cert_cache().is_none(), "disabled means no cache");
        let plain_outcomes = plain.consult_batch(&requests);
        let disabled_outcomes = disabled.consult_batch(&requests);
        for (p, d) in plain_outcomes.iter().zip(&disabled_outcomes) {
            assert_eq!(p.adopted, d.adopted);
            assert_eq!(p.advice, d.advice);
            assert_eq!(p.majority, d.majority);
            assert_eq!(p.session_bytes, d.session_bytes);
            assert!(!d.cached, "nothing is ever served from a disabled cache");
        }
        assert_eq!(
            comparable(plain.shard_stats()),
            comparable(disabled.shard_stats()),
            "byte accounting must be identical with the cache disabled"
        );
        assert_eq!(disabled.cache_stats(), CacheStats::default());
    }

    #[test]
    fn cached_outcomes_contribute_no_dissents() {
        // A hit replays the cold session's majority — dissenters included
        // — but no verifier actually voted, so the adaptive gossip dissent
        // counter must not move.
        let engine = ShardedAuthority::with_transports(
            2,
            InventorBehavior::Honest,
            &saboteur_panel(),
            ReputationConfig::default(),
            CertCacheConfig::replay(64),
            &|_| Arc::new(Bus::new()),
        );
        let spec = spec_for_tests();
        let cold = engine.consult(0, &spec);
        assert_eq!(dissent_votes(&cold), 1, "the saboteur dissented");
        let warm = engine.consult(1, &spec);
        assert!(warm.cached);
        assert!(
            warm.majority
                .as_ref()
                .is_some_and(|m| !m.dissenters.is_empty()),
            "the replayed majority still names the cold dissenter"
        );
        assert_eq!(dissent_votes(&warm), 0, "but a hit is not a new vote");
    }

    #[test]
    fn frame_pool_misses_reach_a_steady_state_across_batches() {
        let engine =
            ShardedAuthority::new(4, InventorBehavior::Honest, &[VerifierBehavior::Honest; 3]);
        let requests = batch(32);
        engine.consult_batch(&requests);
        let warmed = engine.frame_pool_misses();
        assert!(warmed > 0, "first batch grows each worker's scratch");
        engine.consult_batch(&requests);
        assert_eq!(
            engine.frame_pool_misses(),
            warmed,
            "a warmed identical batch allocates no new frame capacity"
        );
        assert_eq!(engine.shard_stats().frame_pool_misses, warmed);
    }
}
