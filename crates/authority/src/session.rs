//! End-to-end consultation sessions — the Fig. 1 flow, over the bus.
//!
//! One consultation: the agent asks the inventor for advice, receives
//! advice-with-proof, forwards it to every currently-trusted verifier,
//! pools the verdicts by majority, updates reputations, and adopts the
//! advice only on acceptance. Every hop crosses the [`Bus`], so the outcome
//! carries exact byte counts.
//!
//! [`RationalityAuthority`] runs one Fig. 1 message flow per consult
//! against the transport, inventor, verifier panel and reputation backend
//! it was assembled with, and assigns each consult its game id. A §4 P2
//! consult ([`RationalityAuthority::try_consult_private`]) runs on the
//! same stages: advice, then one Query stage per Fig. 4 membership query,
//! with the agent as the checker. The
//! sharded, multi-bus orchestration lives in [`crate::ShardedAuthority`],
//! which runs one authority per shard.
//!
//! The authority is deliberately ignorant of reputation *policy*: whether
//! scores decay ([`crate::ReputationDecay`]) and whether they are
//! shard-local or gossiped engine-wide both live behind the
//! [`ReputationBackend`] trait, so the Fig. 1 flow never changes when the
//! plane does.
//!
//! There is one protocol body and one budget ([`ResilienceConfig`]): a
//! stage retries on a backoff schedule until it completes or the budget
//! runs out, and a short panel is decided against the whole trusted
//! panel ([`PanelOutcome`]). First attempts travel bare — every Fig. 1
//! frame carries its `game_id`, which is the session id — and only
//! retries and the replies they provoke ride a [`Message::Resilient`]
//! envelope. Receivers answer each attempt once, so a duplicated frame
//! never buys a second vote.
//!
//! The authority plays every party of Fig. 1, each as its own frame-in,
//! frame-out machine. A *responder* (the inventor, and each verifier)
//! owns its endpoint, the attempts it has answered and its memoized
//! answer; every responder answers only the consult's agent, once per
//! attempt, through one path, and only computing the answer differs by
//! role. The *agent* machine holds the budget, the panel and what it has
//! collected, and takes advice and P2 answers only from the inventor it
//! asked and verdicts only from panel members. The stage loop,
//! `run_stage`, is the scheduler that moves frames between the transport
//! and the machines; the unit tests drive the machines with no network at
//! all.
//!
//! The flow is also the engine's *hot path*, and it is written to stay
//! off the allocator and off contended locks in the steady state: endpoint
//! drains reuse one receive buffer ([`Endpoint::drain_into`]), an
//! attempt's requests (the whole verdict fan-out, in the panel stage) and
//! its replies each ship as one [`Transport::send_batch`] accounting
//! critical section from a reused staging buffer, and trust checks read a
//! single immutable
//! [`crate::ReputationSnapshot`] taken at the top of the fan-out instead
//! of locking the backend per verifier.

use std::sync::Arc;

use ra_games::BimatrixGame;
use ra_proofs::{verify_private_advice, P2Advice, P2Config, P2Outcome};

use crate::bus::Bus;
use crate::cache::{spec_digest, CachedConsultation, CertCache};
use crate::inventor::{GameSpec, Inventor};
use crate::messages::{Advice, Message, Party};
use crate::reputation::{LocalReputation, MajorityOutcome, ReputationBackend, ReputationSnapshot};
use crate::transport::{Endpoint, Transport};
use crate::verifier::{kernel_check, VerdictReason, VerifierService};
use crate::wire::Wire;

/// How a consultation's panel vote closed. The vote is decided against
/// the whole trusted panel: adopted on more than half its votes,
/// rejected when accept plus silent votes are at most half, undecided
/// otherwise ([`ReputationBackend::pool_panel`]). Silence is never charged.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum PanelOutcome {
    /// Every trusted verifier's verdict arrived.
    #[default]
    Full,
    /// The budget ran out before every trusted verifier answered, but the
    /// verdicts that did arrive decide the vote whatever the silent
    /// verifiers would have said.
    Degraded {
        /// Trusted verifiers that never answered, in panel order.
        missing: Vec<Party>,
    },
    /// The consult closed without a decision, so nothing was adopted,
    /// cached or charged. Only the default budget reports this; a
    /// caller-set budget returns [`ConsultError::Deadline`] instead.
    Undecided {
        /// Parties that never answered: the inventor when the advice
        /// stage starved, else the trusted verifiers whose votes could
        /// have swung the panel, in panel order.
        missing: Vec<Party>,
    },
}

/// Which protocol stage a consultation was in when its budget ran out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConsultStage {
    /// Waiting for the inventor's advice-with-proof.
    Advice,
    /// Waiting for verifier verdicts.
    Panel,
    /// Waiting for the inventor's answer to one §4 P2 membership query.
    Query,
}

impl std::fmt::Display for ConsultStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConsultStage::Advice => write!(f, "advice"),
            ConsultStage::Panel => write!(f, "panel"),
            ConsultStage::Query => write!(f, "query"),
        }
    }
}

/// A typed consultation failure — what a session under a caller-set
/// budget returns instead of an undecided [`SessionOutcome`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConsultError {
    /// The deadline (or retry) budget ran out before the stage could
    /// decide: the advice never arrived, the panel closed with fewer
    /// than `quorum` verdicts or undecided, or a P2 query went unanswered.
    Deadline {
        /// The stage that starved.
        stage: ConsultStage,
        /// Retransmitted frames spent before giving up.
        attempts: u64,
        /// Virtual ticks elapsed since the session started.
        elapsed: u64,
        /// Responses received in the starved stage.
        received: usize,
        /// The quorum the stage needed.
        quorum: usize,
        /// Parties that never responded, in panel order.
        missing: Vec<Party>,
    },
}

impl std::fmt::Display for ConsultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConsultError::Deadline {
                stage,
                attempts,
                elapsed,
                received,
                quorum,
                missing,
            } => write!(
                f,
                "{stage} stage deadline: {received}/{quorum} responses after \
                 {attempts} retransmits and {elapsed} ticks ({} silent)",
                missing.len()
            ),
        }
    }
}

impl std::error::Error for ConsultError {}

/// Result type of a consultation.
pub type ConsultResult = Result<SessionOutcome, ConsultError>;

/// First retry interval of the retransmission schedule, in virtual ticks.
const BACKOFF_BASE: u64 = 4;
/// Growth of the interval per successive retry.
const BACKOFF_FACTOR: u64 = 2;
/// Ceiling on the un-jittered interval.
const BACKOFF_CAP: u64 = 256;
/// Maximum additive jitter in ticks.
const BACKOFF_JITTER: u64 = 3;

/// The wait before retry `attempt` (0-based): `min(cap, base * factor^attempt)`
/// virtual ticks plus one uniform draw from `[0, jitter]` off the
/// authority's seeded stream, so runs are replayable.
fn rto(attempt: u32, rng: &mut u64) -> u64 {
    let mut interval = BACKOFF_BASE;
    for _ in 0..attempt {
        if interval >= BACKOFF_CAP {
            break;
        }
        interval *= BACKOFF_FACTOR;
    }
    interval.min(BACKOFF_CAP) + rand::splitmix64(rng) % (BACKOFF_JITTER + 1)
}

/// Per-consultation budget: deadlines, retransmission and the minimum
/// response count of a short panel close for the Fig. 1 flow. Every
/// consult runs under one: the caller's, attached with
/// [`RationalityAuthority::set_resilience`], or
/// [`ResilienceConfig::default`]. Only retries are enveloped in
/// [`Message::Resilient`], so a budget adds no bytes to a consult that
/// needs none.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResilienceConfig {
    /// Total virtual-tick budget per consultation; when the transport's
    /// clock passes it, the current stage closes short. On a clockless
    /// synchronous transport only `max_attempts` bounds the retries.
    pub deadline: u64,
    /// Minimum verifier responses a short panel close needs before its
    /// vote is decided (clamped to the live panel size; ≥ 1). Fewer
    /// leave the close undecided.
    pub quorum: usize,
    /// Maximum sends per hop, first try included (≥ 1). Retry `k` waits
    /// `min(256, 4 * 2^k)` ticks plus a jitter of 0 to 3 ticks.
    pub max_attempts: u32,
    /// Seed of the authority-local jitter stream (kept separate from any
    /// transport seed so retry timing is reproducible on its own).
    pub seed: u64,
}

impl Default for ResilienceConfig {
    fn default() -> ResilienceConfig {
        ResilienceConfig {
            deadline: 4096,
            quorum: 1,
            max_attempts: 8,
            seed: 0x5EED_0FBA_C0FF,
        }
    }
}

impl ResilienceConfig {
    /// Validates the budget's invariants.
    fn check(&self) {
        assert!(self.deadline >= 1, "deadline must be at least one tick");
        assert!(self.quorum >= 1, "quorum must be at least one verifier");
        assert!(self.max_attempts >= 1, "need at least one attempt");
    }
}

/// Outcome of one consultation.
#[derive(Clone, Debug, Default)]
pub struct SessionOutcome {
    /// The advice received (if the inventor answered).
    pub advice: Option<Advice>,
    /// The pooled verdict, if the panel vote was decided.
    pub majority: Option<MajorityOutcome>,
    /// Whether the agent adopts the advice.
    pub adopted: bool,
    /// Wire bytes of the advice message itself (Lemma 1 measurements).
    pub advice_bytes: usize,
    /// Total wire bytes of the whole session.
    pub session_bytes: usize,
    /// Per-verifier verdicts in panel order, for the audit log: who
    /// answered, accept or reject, and the one-byte [`VerdictReason`]
    /// the verifier gave (which checker ran, or why none could).
    pub verdict_details: Vec<(Party, bool, VerdictReason)>,
    /// Whether this outcome was served from the certificate cache (no
    /// protocol messages flowed: `session_bytes` is zero, `majority` /
    /// `verdict_details` replay the cold session's, and the reputation
    /// plane was not touched).
    pub cached: bool,
    /// How the panel vote closed (always [`PanelOutcome::Full`] on a
    /// cache hit).
    pub panel: PanelOutcome,
    /// Retransmitted frames this session spent (0 on a cache hit).
    pub attempts: u64,
}

/// Outcome of one §4 P2 consult.
#[derive(Clone, Debug)]
pub struct PrivateOutcome {
    /// The advice received (if the inventor answered).
    pub advice: Option<P2Advice>,
    /// The agent's Fig. 4 verdict, if advice arrived.
    pub verdict: Option<P2Outcome>,
    /// Membership queries the agent asked: one Query stage each, whether
    /// or not its answer arrived. Each answered one disclosed one bit of
    /// the opponent's support (Remark 2), and a run stops at its first
    /// unanswered query.
    pub queries: u64,
    /// Whether the agent adopts the advice (its Fig. 4 check accepted).
    pub adopted: bool,
    /// Wire bytes of the advice message itself.
    pub advice_bytes: usize,
    /// Total wire bytes of the whole session.
    pub session_bytes: usize,
    /// Retransmitted frames this session spent.
    pub attempts: u64,
}

/// The assembled single-bus infrastructure: one transport, one inventor,
/// one verifier panel, one reputation backend, the endpoints of the
/// inventor and the verifiers, and game-id assignment.
///
/// Each [`RationalityAuthority::consult`] runs exactly one Fig. 1 flow
/// under the next game id, registering the consulting agent for that
/// session only, so serving an open population leaves no per-agent state.
/// The reputation plane is pluggable: [`new`] gives the authority a
/// private [`LocalReputation`], while [`with_transport`] accepts any
/// shared [`ReputationBackend`] — a gossiping one, say — without the
/// protocol changing at all. That is how [`crate::ShardedAuthority`]
/// wires every shard to one plane.
///
/// [`new`]: RationalityAuthority::new
/// [`with_transport`]: RationalityAuthority::with_transport
///
/// # Examples
///
/// ```
/// use ra_authority::{
///     GameSpec, Inventor, InventorBehavior, RationalityAuthority, VerifierBehavior,
/// };
/// use ra_games::named::prisoners_dilemma;
///
/// let mut authority = RationalityAuthority::new(
///     Inventor::new(0, InventorBehavior::Honest),
///     &[VerifierBehavior::Honest; 3],
/// );
/// let spec = GameSpec::Strategic(prisoners_dilemma().to_strategic());
/// let outcome = authority.consult(0, &spec);
/// assert!(outcome.adopted);
/// ```
pub struct RationalityAuthority {
    bus: Arc<dyn Transport>,
    reputation: Arc<dyn ReputationBackend>,
    /// The inventor's responder machine.
    inventor: Responder<Inventor>,
    /// Each verifier's responder machine, in panel order.
    verifiers: Vec<Responder<VerifierService>>,
    /// The consulting agent's machine, reset for every consult.
    agent: AgentMachine,
    /// Reusable receive buffer: every endpoint drain on the hot path lands
    /// here via [`Endpoint::drain_into`], so steady-state consults never
    /// allocate a fresh inbox `Vec`.
    recv_buf: Vec<(Party, Message)>,
    /// Reusable staging buffer for [`Transport::send_batch`]: the agent's
    /// requests and the responders' replies of an attempt are staged here
    /// and shipped in one accounting critical section each.
    send_buf: Vec<(Party, Party, Message)>,
    /// Optional content-addressed certificate cache, shared across shards
    /// (`None` — the default — leaves the protocol bit-for-bit unchanged).
    cert_cache: Option<Arc<CertCache>>,
    /// The caller-set budget; `None` (the default) runs
    /// [`ResilienceConfig::default`] and reports an undecided close as an
    /// outcome rather than an error.
    resilience: Option<ResilienceConfig>,
    /// Authority-local jitter stream for retry backoff, seeded from
    /// [`ResilienceConfig::seed`] so runs are replayable.
    jitter_rng: u64,
    next_game_id: u64,
}

impl RationalityAuthority {
    /// Builds the infrastructure with one inventor, the given verifier
    /// panel, a private [`LocalReputation`] backend and a fresh [`Bus`].
    pub fn new(
        inventor: Inventor,
        verifier_behaviors: &[crate::verifier::VerifierBehavior],
    ) -> RationalityAuthority {
        RationalityAuthority::with_transport(
            inventor,
            verifier_behaviors,
            Arc::new(LocalReputation::new()),
            Arc::new(Bus::new()),
        )
    }

    /// Builds the infrastructure around an explicit reputation backend
    /// (shared with other authorities when `reputation` is a cross-shard
    /// plane) over an explicit [`Transport`] — the perfect [`Bus`], a
    /// lossy [`crate::SimNet`], or anything else implementing the trait.
    /// Registers the inventor and every verifier on the transport. The
    /// protocol itself is transport-agnostic; only the fate of its frames
    /// changes.
    pub fn with_transport(
        inventor: Inventor,
        verifier_behaviors: &[crate::verifier::VerifierBehavior],
        reputation: Arc<dyn ReputationBackend>,
        bus: Arc<dyn Transport>,
    ) -> RationalityAuthority {
        let inventor = Responder::new(bus.register(inventor.id), inventor);
        let verifiers = verifier_behaviors
            .iter()
            .enumerate()
            .map(|(i, &b)| {
                let service = VerifierService::new(i as u64, b);
                Responder::new(bus.register(service.id), service)
            })
            .collect();
        RationalityAuthority {
            bus,
            reputation,
            inventor,
            verifiers,
            agent: AgentMachine::default(),
            recv_buf: Vec::new(),
            send_buf: Vec::new(),
            cert_cache: None,
            resilience: None,
            jitter_rng: ResilienceConfig::default().seed,
            next_game_id: 1,
        }
    }

    /// Attaches a caller-set budget, or with `None` returns to the
    /// default one ([`ResilienceConfig::default`]), and reseeds the jitter
    /// stream from the budget's seed. Both run the same protocol; they
    /// differ only in how a consult that closes without a decision is
    /// reported: [`ConsultError::Deadline`] under a caller-set budget, an
    /// unadopted [`PanelOutcome::Undecided`] outcome under the default.
    ///
    /// # Panics
    ///
    /// Panics if the config violates its invariants (zero deadline,
    /// quorum or attempts).
    pub fn set_resilience(&mut self, config: Option<ResilienceConfig>) {
        let budget = config.unwrap_or_default();
        budget.check();
        self.jitter_rng = budget.seed;
        self.resilience = config;
    }

    /// The caller-set budget, if any (`None` runs the default budget).
    pub fn resilience(&self) -> Option<&ResilienceConfig> {
        self.resilience.as_ref()
    }

    /// Mixes `salt` into the jitter stream's current seed, so authorities
    /// sharing one budget (the shards of a [`crate::ShardedAuthority`])
    /// draw decorrelated retry timing.
    pub(crate) fn salt_jitter(&mut self, salt: u64) {
        let mut state = self.jitter_rng ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.jitter_rng = rand::splitmix64(&mut state);
    }

    /// Attaches a shared certificate cache: subsequent consults look it
    /// up before running the Fig. 1 protocol and memoize their results
    /// into it.
    pub fn set_cert_cache(&mut self, cache: Arc<CertCache>) {
        self.cert_cache = Some(cache);
    }

    /// The attached certificate cache, if any.
    pub fn cert_cache(&self) -> Option<&Arc<CertCache>> {
        self.cert_cache.as_ref()
    }

    /// The reputation backend consulted by this authority's sessions.
    pub fn reputation(&self) -> &dyn ReputationBackend {
        &*self.reputation
    }

    /// The registered verifiers the published reputation snapshot
    /// trusts, in panel order: the panel the next consult fans out to.
    pub fn trusted_verifiers(&self) -> Vec<Party> {
        trusted_panel(&self.verifiers, &self.reputation.snapshot()).collect()
    }

    /// The underlying transport (byte accounting, fault injection).
    pub fn bus(&self) -> &dyn Transport {
        &*self.bus
    }

    /// Runs one full consultation for agent `agent_id` about `spec`.
    ///
    /// # Panics
    ///
    /// Under a caller-set budget, panics if the consultation closes
    /// without a decision — use [`RationalityAuthority::try_consult`] to
    /// handle [`ConsultError`] instead. Under the default budget this
    /// never panics.
    pub fn consult(&mut self, agent_id: u64, spec: &GameSpec) -> SessionOutcome {
        match self.try_consult(agent_id, spec) {
            Ok(outcome) => outcome,
            Err(e) => {
                panic!("consultation failed ({e}); use try_consult to handle errors")
            }
        }
    }

    /// [`RationalityAuthority::consult`] with typed failure: under a
    /// caller-set budget a consult that closes without a decision returns
    /// [`ConsultError::Deadline`]. Under the default budget this never
    /// errors: such a consult is an unadopted outcome labelled
    /// [`PanelOutcome::Undecided`] (with `advice: None` when the advice
    /// stage starved). The game id is consumed either way.
    ///
    /// With no certificate cache attached (the default) this *is* the full
    /// Fig. 1 protocol. With one attached, the spec's digest is looked up
    /// first: a hit short-circuits the protocol entirely — zero bus bytes,
    /// no reputation update, `cached: true`. A hit is served only if this
    /// authority's trusted panel ([`RationalityAuthority::trusted_verifiers`])
    /// is exactly the panel that voted for it, and the `ra-proofs` kernel
    /// check, replayed on the stored advice, gives the stored verdict;
    /// otherwise the hit is discarded and the full protocol runs. Misses
    /// run the protocol and memoize a full close.
    pub fn try_consult(&mut self, agent_id: u64, spec: &GameSpec) -> ConsultResult {
        let session = self.open_session(agent_id, Subject::Spec(spec));
        let Some(cache) = self.cert_cache.clone() else {
            return self.run_session(session, Self::run_protocol);
        };
        let digest = spec_digest(spec);
        // Hits are guarded by the panel that minted them: an entry whose
        // voters are not this consult's trusted panel is a miss, so no
        // consult replays a vote its own panel did not cast.
        let current = |entry: &CachedConsultation| {
            entry.minted_by(trusted_panel(&self.verifiers, &self.reputation.snapshot()))
        };
        if let Some(entry) = cache.lookup(&digest, current) {
            let (kernel_accepts, _) = kernel_check(spec, &entry.advice);
            if kernel_accepts == entry.kernel_accepts {
                return Ok(Self::outcome_from_cache(&entry));
            }
            cache.note_replay_failure();
        }
        let outcome = self.run_session(session, Self::run_protocol)?;
        // Short closes are never memoized: their vote was pooled over a
        // partial panel, so serving them warm would replay it as if the
        // full panel had vouched for it.
        if let (Some(advice), PanelOutcome::Full) = (&outcome.advice, &outcome.panel) {
            // Record the kernel's own verdict once, so replay hits compare
            // kernel-to-kernel (deterministic) rather than against the
            // panel's — possibly corrupt — adoption decision.
            let (kernel_accepts, _) = kernel_check(spec, advice);
            cache.insert(
                digest,
                CachedConsultation {
                    advice: advice.clone(),
                    kernel_accepts,
                    majority: outcome.majority.clone(),
                    adopted: outcome.adopted,
                    advice_bytes: outcome.advice_bytes,
                    verdict_details: outcome.verdict_details.clone(),
                },
            );
        }
        Ok(outcome)
    }

    /// One §4 P2 consult (Fig. 4) for agent `agent_id` as the row agent
    /// of `game`. The Advice stage brings [`Advice::Private`], then each
    /// membership query [`verify_private_advice`] draws with `rng` is a
    /// Query stage under the consult's budget. The agent checks the advice
    /// itself: no certificate cache, panel or reputation takes part.
    ///
    /// A query unanswered when its stage's budget runs out is unknown,
    /// never "out", and leaves the verdict [`P2Outcome::Undecided`]. Under
    /// a caller-set budget that, like a starved advice stage, is a
    /// [`ConsultError::Deadline`] instead.
    pub fn try_consult_private(
        &mut self,
        agent_id: u64,
        game: &BimatrixGame,
        config: &P2Config,
        rng: &mut dyn rand::RngCore,
    ) -> Result<PrivateOutcome, ConsultError> {
        let session = self.open_session(agent_id, Subject::Private(game));
        self.run_session(session, |a, inbox, session| {
            a.run_private(inbox, session, game, config, rng)
        })
    }

    /// Materializes a cache hit: the stored session's result with zero
    /// fresh bus traffic.
    fn outcome_from_cache(entry: &CachedConsultation) -> SessionOutcome {
        SessionOutcome {
            advice: Some(entry.advice.clone()),
            majority: entry.majority.clone(),
            adopted: entry.adopted,
            advice_bytes: entry.advice_bytes,
            verdict_details: entry.verdict_details.clone(),
            cached: true,
            ..SessionOutcome::default()
        }
    }

    /// Runs one consult's staged `body` — the Fig. 1 flow (advice, then
    /// the panel, then the pooled vote) for every consult the certificate
    /// cache does not answer, or a P2 consult (advice, then its queries).
    ///
    /// Retries (attempt ≥ 1) and the replies they provoke ship inside a
    /// [`Message::Resilient`] envelope, so the Lemma 1 ledger classifies
    /// all retry traffic as retransmit bytes. Responders answer each
    /// distinct attempt of the consult's agent exactly once and compute
    /// their advice/verdict a single time per session; the agent keeps the
    /// first reply per party, and only from the party it asked.
    ///
    /// The agent retransmits on the exponential backoff of [`rto`] (driven
    /// through the transport's virtual clock) until the stage completes,
    /// `max_attempts` sends are spent, or the deadline runs out. A short
    /// panel is decided against the whole trusted panel
    /// ([`PanelOutcome`]). Silence is not evidence — the network may be at
    /// fault — so silent verifiers are never charged, and a starved advice
    /// stage or an undecided close charges nobody.
    ///
    /// The agent is registered for exactly this session and disconnected
    /// on every return path, so the transport routes to it only while its
    /// session runs. Nothing is lost by that: every responder answers only
    /// frames of the current session, so none is addressed to an agent
    /// between its sessions, and a delayed frame of an ended session was
    /// accounted when it was queued and is discarded on arrival, as the
    /// session filter of a later drain would discard it.
    ///
    /// Every machine starts the session afresh: the agent under the
    /// attached budget from the transport's current tick, each responder
    /// with nothing served or memoized.
    fn run_session<'a, T>(
        &mut self,
        session: Session<'a>,
        body: impl FnOnce(&mut Self, &Endpoint, Session<'a>) -> T,
    ) -> T {
        let inbox = self.bus.register(session.agent);
        let deadline = self.resilience.unwrap_or_default().deadline;
        self.agent.begin(self.bus.now(), deadline);
        self.inventor.reset();
        for verifier in &mut self.verifiers {
            verifier.reset();
        }
        let result = body(self, &inbox, session);
        self.bus.disconnect(session.agent);
        result
    }

    /// Assigns the next game id to a consult of agent `agent_id` about
    /// `subject`.
    fn open_session<'a>(&mut self, agent_id: u64, subject: Subject<'a>) -> Session<'a> {
        self.next_game_id += 1;
        Session {
            agent: Party::Agent(agent_id),
            inventor: self.inventor.endpoint.party,
            game_id: self.next_game_id - 1,
            subject,
        }
    }

    /// The Fig. 1 body of [`RationalityAuthority::run_session`], with the
    /// agent's endpoint `inbox` registered.
    fn run_protocol(&mut self, inbox: &Endpoint, session: Session<'_>) -> ConsultResult {
        let bytes_before = self.bus.total_bytes();

        // Stage 1: advice.
        if !self.run_stage(ConsultStage::Advice, inbox, session) {
            let panel = self.close_undecided(ConsultStage::Advice, 0, 1, vec![session.inventor])?;
            return Ok(SessionOutcome {
                session_bytes: self.bus.total_bytes() - bytes_before,
                attempts: self.agent.retransmits,
                panel,
                ..SessionOutcome::default()
            });
        }

        // Stage 2: panel fan-out. Trust checks read one immutable
        // snapshot taken here — the backend's data lock is untouched
        // until the verdicts pool, so a gossip merge on another shard
        // never contends with this fan-out (and the panel seen by one
        // consult is always a whole epoch). The snapshot is released at the
        // end of the statement, before the vote pools, so the backend can
        // update its published scores in place instead of copying them.
        let agent = &mut self.agent;
        agent
            .panel
            .extend(trusted_panel(&self.verifiers, &self.reputation.snapshot()));
        agent.verdicts.resize(agent.panel.len(), None);
        if !self.agent.panel.is_empty() {
            self.run_stage(ConsultStage::Panel, inbox, session);
        }

        // Stage 3: the vote against the whole trusted panel.
        let (verdict_details, missing) = self.agent.votes();
        let verdicts: Vec<_> = verdict_details.iter().map(|&(v, a, _)| (v, a)).collect();
        let quorum = self.resilience.unwrap_or_default().quorum;
        let quorum = quorum.min(self.agent.panel.len()).max(1);
        let majority = (verdicts.len() >= quorum)
            .then(|| self.reputation.pool_panel(&verdicts, &missing))
            .flatten();
        let panel = if missing.is_empty() {
            PanelOutcome::Full
        } else if majority.is_some() {
            PanelOutcome::Degraded { missing }
        } else {
            let received = verdict_details.len();
            self.close_undecided(ConsultStage::Panel, received, quorum, missing)?
        };
        // Every verifier has normally processed its queue, so the shared
        // payload is unique again and unwraps without copying.
        let advice = self.agent.advice.take().expect("advice stage completed");
        Ok(SessionOutcome {
            advice: Some(Arc::try_unwrap(advice).unwrap_or_else(|a| (*a).clone())),
            adopted: majority.as_ref().is_some_and(|m| m.accepted),
            majority,
            advice_bytes: self.inventor.memo.advice_bytes,
            session_bytes: self.bus.total_bytes() - bytes_before,
            verdict_details,
            cached: false,
            panel,
            attempts: self.agent.retransmits,
        })
    }

    /// Reports a consult that closed without a decision in `stage`, having
    /// received `received` of the `quorum` responses it needed and never
    /// heard from `missing`: under a caller-set budget as
    /// [`ConsultError::Deadline`], under the default budget as an outcome
    /// whose panel is [`PanelOutcome::Undecided`].
    fn close_undecided(
        &self,
        stage: ConsultStage,
        received: usize,
        quorum: usize,
        missing: Vec<Party>,
    ) -> Result<PanelOutcome, ConsultError> {
        if self.resilience.is_none() {
            return Ok(PanelOutcome::Undecided { missing });
        }
        Err(ConsultError::Deadline {
            stage,
            attempts: self.agent.retransmits,
            elapsed: self.bus.now().saturating_sub(self.agent.started),
            received,
            quorum,
            missing,
        })
    }

    /// The §4 P2 body of [`RationalityAuthority::run_session`]: the
    /// Advice stage, then [`verify_private_advice`] with each membership
    /// query a Query stage.
    fn run_private(
        &mut self,
        inbox: &Endpoint,
        session: Session<'_>,
        game: &BimatrixGame,
        config: &P2Config,
        rng: &mut dyn rand::RngCore,
    ) -> Result<PrivateOutcome, ConsultError> {
        let bytes_before = self.bus.total_bytes();
        self.run_stage(ConsultStage::Advice, inbox, session);
        let advice = match self.agent.advice.take().as_deref() {
            Some(Advice::Private(advice)) => Some(advice.clone()),
            _ => None,
        };
        // Whether the last query went unanswered: the run stopped on it,
        // undecided, rather than on its query budget.
        let (mut queries, mut unanswered) = (0, false);
        let verdict = advice.as_ref().map(|advice| {
            let mut ask = |index| {
                queries += 1;
                self.agent.query = (index, None);
                self.run_stage(ConsultStage::Query, inbox, session);
                unanswered = self.agent.query.1.is_none();
                self.agent.query.1
            };
            verify_private_advice(game, advice, &mut ask, rng, config)
        });
        let outcome = PrivateOutcome {
            adopted: verdict.as_ref().is_some_and(P2Outcome::is_accepted),
            advice,
            verdict,
            queries,
            advice_bytes: self.inventor.memo.advice_bytes,
            session_bytes: self.bus.total_bytes() - bytes_before,
            attempts: self.agent.retransmits,
        };
        let stage = match &outcome.verdict {
            None => ConsultStage::Advice,
            Some(_) if unanswered => ConsultStage::Query,
            Some(_) => return Ok(outcome),
        };
        self.close_undecided(stage, 0, 1, vec![session.inventor])?;
        Ok(outcome)
    }

    /// The scheduler: runs one stage to completion, moving frames between
    /// the transport and the machines. Each attempt ships the agent's
    /// requests, settles, hands every frame the stage's responders drained
    /// to its responder, ships their replies, settles and hands the agent
    /// its frames; then, while the stage is incomplete and the agent's
    /// budget allows, it waits out the backoff and repeats. Returns whether
    /// the stage completed. A send that fails (its recipient is not
    /// registered) is a lost frame: the stage starves into the budget's
    /// close.
    fn run_stage(&mut self, stage: ConsultStage, inbox: &Endpoint, session: Session<'_>) -> bool {
        let budget = self.resilience.unwrap_or_default();
        let mut attempt: u32 = 0;
        loop {
            // One accounting critical section for the agent's requests
            // (the whole fan-out, in the panel stage) and one for the
            // replies; send_batch drains the buffer so its allocation is
            // reused.
            self.agent
                .requests(stage, session, attempt, &mut self.send_buf);
            let _ = self.bus.send_batch(&mut self.send_buf);
            // Every drain follows a settle, so latency-delayed frames land
            // first. Nothing is in flight after a settle, so an incomplete
            // stage can only wait out its backoff window: one `advance` to
            // its end.
            let wait_until = self.wait_until(attempt, &budget, self.agent.deadline_at);
            self.bus.settle();
            // Only the stage's addressees can hold its requests: the panel
            // in the panel stage, the inventor in the others.
            let (drained, replies) = (&mut self.recv_buf, &mut self.send_buf);
            if stage == ConsultStage::Panel {
                for verifier in &mut self.verifiers {
                    verifier.serve(session, attempt, drained, replies);
                }
            } else {
                self.inventor.serve(session, attempt, drained, replies);
            }
            let _ = self.bus.send_batch(&mut self.send_buf);
            self.bus.settle();
            inbox.drain_into(&mut self.recv_buf);
            for (from, msg) in self.recv_buf.drain(..) {
                self.agent.on_frame(session, from, msg);
            }
            if self.agent.done(stage) {
                return true;
            }
            let now = self.bus.now();
            if now < wait_until {
                self.bus.advance(wait_until - now);
            }
            attempt += 1;
            if attempt >= budget.max_attempts || self.bus.now() >= self.agent.deadline_at {
                return false;
            }
        }
    }

    /// The virtual-clock instant at which attempt `attempt`'s wait window
    /// closes: the backoff interval from now, clamped to the deadline —
    /// except for the final permitted attempt, which spends whatever
    /// remains of the whole budget.
    fn wait_until(&mut self, attempt: u32, cfg: &ResilienceConfig, deadline_at: u64) -> u64 {
        if attempt + 1 >= cfg.max_attempts {
            deadline_at
        } else {
            self.bus
                .now()
                .saturating_add(rto(attempt, &mut self.jitter_rng))
                .min(deadline_at)
        }
    }
}

/// One consult as its machines see it: the consulting agent, the
/// inventor it asks, the session id (the consult's `game_id`) and what
/// the inventor is asked about.
#[derive(Clone, Copy)]
struct Session<'a> {
    agent: Party,
    inventor: Party,
    game_id: u64,
    subject: Subject<'a>,
}

/// What a consult asks the inventor about: a spec whose Fig. 1 advice
/// the panel checks, or a bimatrix game whose §4 P2 advice the agent
/// checks itself through membership queries.
#[derive(Clone, Copy)]
enum Subject<'a> {
    Spec(&'a GameSpec),
    Private(&'a BimatrixGame),
}

/// Each registered verifier, in panel order, that `view` trusts. A
/// consult's panel and [`RationalityAuthority::trusted_verifiers`] are
/// both this set, so a verifier that was never pooled is in both.
fn trusted_panel<'a>(
    verifiers: &'a [Responder<VerifierService>],
    view: &'a ReputationSnapshot,
) -> impl Iterator<Item = Party> + 'a {
    verifiers
        .iter()
        .map(|v| v.endpoint.party)
        .filter(|&v| view.is_trusted(v))
}

/// Frames `msg` as attempt `attempt` of session `session`: a first
/// attempt travels bare, a retry (or the reply it provokes) inside a
/// [`Message::Resilient`] envelope.
fn framed(session: u64, attempt: u32, msg: Message) -> Message {
    if attempt == 0 {
        msg
    } else {
        Message::Resilient {
            session,
            attempt,
            inner: Box::new(msg),
        }
    }
}

/// Opens a consult frame of session `game_id`: its attempt number and the
/// bare message. A bare frame is attempt 0; frames of other sessions, and
/// frames that are not consult messages, open to `None`.
fn open_frame(msg: Message, game_id: u64) -> Option<(u32, Message)> {
    let (attempt, inner) = match msg {
        Message::Resilient {
            session,
            attempt,
            inner,
        } if session == game_id => (attempt, *inner),
        Message::Resilient { .. } => return None,
        bare => (0, bare),
    };
    let session = match &inner {
        Message::AdviceRequest { game_id }
        | Message::AdviceWithProof { game_id, .. }
        | Message::VerdictRequest { game_id, .. }
        | Message::Verdict { game_id, .. }
        | Message::SupportQuery { game_id, .. }
        | Message::SupportAnswer { game_id, .. } => *game_id,
        _ => return None,
    };
    (session == game_id).then_some((attempt, inner))
}

/// A responding party — the inventor or one verifier — as a frame-in,
/// frame-out machine: its endpoint, the attempts of the current stage it
/// has answered, its role and what it computed this consult. Every
/// responder dedups, checks the sender and frames its reply on one path,
/// [`Responder::serve`]; only computing the answer ([`Role`]) differs.
/// A responder has no clock: the budget is the agent's alone.
struct Responder<R: Role> {
    endpoint: Endpoint,
    /// Attempts of the current stage already answered. A consult is a
    /// handful of attempts, so a lookup is a short scan.
    served: Vec<u32>,
    role: R,
    memo: R::Memo,
}

impl<R: Role> Responder<R> {
    fn new(endpoint: Endpoint, role: R) -> Responder<R> {
        Responder {
            endpoint,
            served: Vec::new(),
            role,
            memo: R::Memo::default(),
        }
    }

    /// Forgets the previous consult.
    fn reset(&mut self) {
        self.served.clear();
        self.memo = R::Memo::default();
    }

    /// Answers the frames queued at the responder's endpoint, drained
    /// through `inbox`, staging its replies in `out`. A request of
    /// `session` from its agent, in an attempt not yet answered this
    /// stage, is answered if the role has an answer, and the reply framed
    /// with that attempt (so a retry's reply is billed as a retransmit).
    /// Any other frame is dropped, and only a reply uses up an attempt, so
    /// a frame of the wrong kind or sender never does. The first attempt
    /// of a stage (`stage_attempt` 0) starts the dedup afresh.
    fn serve(
        &mut self,
        session: Session<'_>,
        stage_attempt: u32,
        inbox: &mut Vec<(Party, Message)>,
        out: &mut Vec<(Party, Party, Message)>,
    ) {
        if stage_attempt == 0 {
            self.served.clear();
        }
        self.endpoint.drain_into(inbox);
        for (from, msg) in inbox.drain(..) {
            let request = open_frame(msg, session.game_id).filter(|_| from == session.agent);
            let Some((attempt, request)) = request else {
                continue;
            };
            if self.served.contains(&attempt) {
                continue;
            }
            if let Some(reply) = self.role.answer(&mut self.memo, request, session) {
                self.served.push(attempt);
                let reply = framed(session.game_id, attempt, reply);
                out.push((self.endpoint.party, from, reply));
            }
        }
    }
}

/// What a responder computes: the one part of a responder that differs
/// by role. The inventor and each verifier are roles as they are.
trait Role {
    /// What the role remembers for the rest of a consult, so a retry
    /// costs wire, not CPU.
    type Memo: Default;

    /// The bare reply to the request `msg`, computing the answer at most
    /// once per consult through `memo`; `None` for a request of a kind the
    /// role does not answer, or when it has nothing to answer with.
    fn answer(&self, memo: &mut Self::Memo, msg: Message, session: Session<'_>) -> Option<Message>;
}

/// What the inventor computed this consult.
#[derive(Default)]
struct InventorMemo {
    /// The advice: `None` until computed, `Some(None)` when the inventor
    /// gave none (a Silent inventor never answers; the advice stage
    /// starves).
    advice: Option<Option<Advice>>,
    /// The P2 prover's answer to a membership query, per column.
    prover_answers: Vec<bool>,
    /// The encoded length of the advice-with-proof (Lemma 1), measured
    /// when the inventor first builds it, so it counts even if that reply
    /// is lost.
    advice_bytes: usize,
}

/// The inventor answers the advice request and the P2 membership queries.
impl Role for Inventor {
    type Memo = InventorMemo;

    fn answer(&self, memo: &mut Self::Memo, msg: Message, session: Session<'_>) -> Option<Message> {
        let game_id = session.game_id;
        match msg {
            Message::SupportQuery { index, .. } => Some(Message::SupportAnswer {
                game_id,
                index,
                in_support: *memo.prover_answers.get(index)?,
            }),
            Message::AdviceRequest { .. } => {
                let advice = memo.advice.get_or_insert_with(|| match session.subject {
                    Subject::Spec(spec) => self.advise(spec),
                    Subject::Private(game) => {
                        let (advice, answers) = self.advise_private(game)?;
                        memo.prover_answers = answers;
                        Some(Advice::Private(advice))
                    }
                });
                let reply = Message::AdviceWithProof {
                    game_id,
                    advice: Box::new(advice.clone()?),
                };
                if memo.advice_bytes == 0 {
                    memo.advice_bytes = reply.encoded_len();
                }
                Some(reply)
            }
            _ => None,
        }
    }
}

/// A verifier answers verdict requests, remembering its verdict.
impl Role for VerifierService {
    type Memo = Option<(bool, VerdictReason)>;

    fn answer(&self, memo: &mut Self::Memo, msg: Message, session: Session<'_>) -> Option<Message> {
        let (Message::VerdictRequest { advice, .. }, Subject::Spec(spec)) = (msg, session.subject)
        else {
            return None;
        };
        let (accepted, detail) = *memo.get_or_insert_with(|| self.verify(spec, &advice));
        Some(Message::Verdict {
            game_id: session.game_id,
            accepted,
            detail,
        })
    }
}

/// The consulting agent as a frame-in, frame-out machine. It holds the
/// consult's clock and deadline, builds each attempt's requests, and keeps
/// the first advice and the first answer to the current P2 query from the
/// inventor, and the first verdict of each panel member, so a duplicated
/// or forged frame never buys a second vote. A panel is a handful of
/// verifiers, so a slot lookup is a short scan.
#[derive(Default)]
struct AgentMachine {
    /// The virtual-clock tick the consult started at.
    started: u64,
    /// The tick at which the consult's budget runs out.
    deadline_at: u64,
    /// The trusted verifiers this consult asks, in panel order.
    panel: Vec<Party>,
    /// The first verdict collected from each panel slot.
    verdicts: Vec<Option<(bool, VerdictReason)>>,
    /// The inventor's advice-with-proof, shared with the panel fan-out.
    advice: Option<Arc<Advice>>,
    /// The column the current P2 query asks about, and its answer.
    query: (usize, Option<bool>),
    /// Retransmitted request frames.
    retransmits: u64,
}

impl AgentMachine {
    /// Starts a consult at tick `now` with a budget of `deadline` ticks,
    /// keeping the collections' allocations.
    fn begin(&mut self, now: u64, deadline: u64) {
        self.started = now;
        self.deadline_at = now.saturating_add(deadline);
        self.panel.clear();
        self.verdicts.clear();
        self.advice = None;
        self.query = (0, None);
        self.retransmits = 0;
    }

    /// Stages attempt `attempt` of `stage` in `out`: the advice request,
    /// the current P2 query, or a verdict request to every panel member
    /// not yet heard from. The same advice fans out to the whole panel,
    /// so it is shared: every frame is a reference-count bump, not a
    /// proof-tree clone.
    fn requests(
        &mut self,
        stage: ConsultStage,
        session: Session<'_>,
        attempt: u32,
        out: &mut Vec<(Party, Party, Message)>,
    ) {
        let (agent, game_id) = (session.agent, session.game_id);
        let staged = out.len();
        if stage == ConsultStage::Panel {
            let advice = self.advice.as_ref().expect("advice stage completed");
            for (&verifier, verdict) in self.panel.iter().zip(&self.verdicts) {
                if verdict.is_none() {
                    let advice = Arc::clone(advice);
                    let request = Message::VerdictRequest { game_id, advice };
                    out.push((agent, verifier, framed(game_id, attempt, request)));
                }
            }
        } else {
            let index = self.query.0;
            let request = match stage {
                ConsultStage::Query => Message::SupportQuery { game_id, index },
                _ => Message::AdviceRequest { game_id },
            };
            out.push((agent, session.inventor, framed(game_id, attempt, request)));
        }
        if attempt > 0 {
            self.retransmits += (out.len() - staged) as u64;
        }
    }

    /// Takes one frame `from` a party: of `session`, the first
    /// advice-with-proof and the first answer to the current P2 query
    /// from its inventor, and the first verdict of each panel member. Any
    /// other frame is dropped.
    fn on_frame(&mut self, session: Session<'_>, from: Party, msg: Message) {
        let Some((_, msg)) = open_frame(msg, session.game_id) else {
            return;
        };
        let from_inventor = from == session.inventor;
        match msg {
            Message::AdviceWithProof { advice, .. } if from_inventor && self.advice.is_none() => {
                self.advice = Some(Arc::new(*advice));
            }
            Message::SupportAnswer {
                index, in_support, ..
            } if from_inventor && index == self.query.0 => {
                self.query.1.get_or_insert(in_support);
            }
            Message::Verdict {
                accepted, detail, ..
            } => {
                if let Some(slot) = self.panel.iter().position(|&v| v == from) {
                    self.verdicts[slot].get_or_insert((accepted, detail));
                }
            }
            _ => {}
        }
    }

    /// Whether the agent holds everything `stage` asked for.
    fn done(&self, stage: ConsultStage) -> bool {
        match stage {
            ConsultStage::Advice => self.advice.is_some(),
            ConsultStage::Panel => self.verdicts.iter().all(Option::is_some),
            ConsultStage::Query => self.query.1.is_some(),
        }
    }

    /// The panel's votes in panel order, so runs are deterministic
    /// regardless of arrival order: each verdict with its reason, for the
    /// audit log, and the members never heard from.
    fn votes(&self) -> (Vec<(Party, bool, VerdictReason)>, Vec<Party>) {
        let mut details = Vec::new();
        let mut missing = Vec::new();
        for (&verifier, &verdict) in self.panel.iter().zip(&self.verdicts) {
            match verdict {
                Some((accepted, detail)) => details.push((verifier, accepted, detail)),
                None => missing.push(verifier),
            }
        }
        (details, missing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inventor::InventorBehavior;
    use crate::transport::BusError;
    use crate::verifier::VerifierBehavior;
    use ra_games::named::{battle_of_the_sexes, prisoners_dilemma};
    use ra_solvers::ParticipationParams;

    fn all_specs() -> Vec<GameSpec> {
        use ra_exact::rat;
        vec![
            GameSpec::Strategic(prisoners_dilemma().to_strategic()),
            GameSpec::Bimatrix(battle_of_the_sexes()),
            GameSpec::Participation(ParticipationParams::paper_example()),
            GameSpec::ParallelLinks {
                current_loads: vec![rat(5, 1), rat(2, 1), rat(0, 1)],
                own_load: rat(3, 1),
                expected_future_load: rat(2, 1),
                expected_future_agents: 4,
            },
        ]
    }

    #[test]
    fn deviant_verifiers_lose_reputation_and_get_excluded() {
        let spec = GameSpec::Strategic(prisoners_dilemma().to_strategic());
        let mut authority = RationalityAuthority::new(
            Inventor::new(0, InventorBehavior::Honest),
            &[
                VerifierBehavior::Honest,
                VerifierBehavior::Honest,
                VerifierBehavior::AlwaysReject,
            ],
        );
        let saboteur = Party::Verifier(2);
        for round in 0..20 {
            let outcome = authority.consult(round, &spec);
            assert!(outcome.adopted, "honest majority keeps adopting");
        }
        assert!(!authority.reputation().is_trusted(saboteur));
        // Once excluded, consultations proceed with the remaining panel.
        let outcome = authority.consult(99, &spec);
        assert_eq!(outcome.verdict_details.len(), 2);
        assert!(outcome.adopted);
    }

    #[test]
    fn support_certificate_bytes_are_small() {
        // Lemma 1, measured end-to-end: the advice message for a bimatrix
        // game is dominated by framing, not payoffs.
        let spec = GameSpec::Bimatrix(battle_of_the_sexes());
        let mut authority = RationalityAuthority::new(
            Inventor::new(0, InventorBehavior::Honest),
            &[VerifierBehavior::Honest],
        );
        let outcome = authority.consult(0, &spec);
        assert!(outcome.adopted);
        assert!(
            outcome.advice_bytes < 32,
            "P1 advice should be tens of bytes, got {}",
            outcome.advice_bytes
        );
    }

    #[test]
    fn dropped_advice_link_fails_gracefully() {
        let spec = GameSpec::Strategic(prisoners_dilemma().to_strategic());
        let mut authority = RationalityAuthority::new(
            Inventor::new(0, InventorBehavior::Honest),
            &[VerifierBehavior::Honest],
        );
        authority
            .bus()
            .drop_link(Party::Inventor(0), Party::Agent(0));
        let outcome = authority.consult(0, &spec);
        assert!(!outcome.adopted);
        assert!(outcome.advice.is_none());
    }

    #[test]
    fn cache_hit_skips_the_protocol_entirely() {
        use crate::cache::CertCacheConfig;
        for spec in all_specs() {
            let mut authority = RationalityAuthority::new(
                Inventor::new(0, InventorBehavior::Honest),
                &[VerifierBehavior::Honest; 3],
            );
            authority.set_cert_cache(Arc::new(CertCache::new(CertCacheConfig::replay(64))));
            let cold = authority.consult(0, &spec);
            assert!(!cold.cached);
            assert!(cold.session_bytes > 0);
            let bus_bytes_after_cold = authority.bus().total_bytes();
            let hit = authority.consult(1, &spec);
            assert!(hit.cached, "second consult of the same spec hits");
            assert_eq!(hit.session_bytes, 0, "a hit moves zero bus bytes");
            assert_eq!(
                authority.bus().total_bytes(),
                bus_bytes_after_cold,
                "Lemma 1 ledger untouched by the hit"
            );
            assert_eq!(hit.advice, cold.advice);
            assert_eq!(hit.majority, cold.majority);
            assert_eq!(hit.adopted, cold.adopted);
            assert_eq!(hit.advice_bytes, cold.advice_bytes);
            let stats = authority.cert_cache().unwrap().stats();
            assert_eq!((stats.hits, stats.misses), (1, 1));
        }
    }

    #[test]
    fn replay_hit_rechecks_the_kernel_and_matches_cold() {
        use crate::cache::CertCacheConfig;
        let spec = GameSpec::Strategic(prisoners_dilemma().to_strategic());
        let mut authority = RationalityAuthority::new(
            Inventor::new(0, InventorBehavior::Honest),
            &[VerifierBehavior::Honest; 3],
        );
        authority.set_cert_cache(Arc::new(CertCache::new(CertCacheConfig::replay(64))));
        let cold = authority.consult(0, &spec);
        let hit = authority.consult(1, &spec);
        assert!(hit.cached);
        assert_eq!(hit.advice, cold.advice);
        assert_eq!(hit.adopted, cold.adopted);
        assert_eq!(hit.verdict_details, cold.verdict_details);
        let stats = authority.cert_cache().unwrap().stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.replay_failures, 0);
    }

    #[test]
    fn cache_keys_on_content_not_object_identity() {
        use crate::cache::CertCacheConfig;
        use ra_exact::rat;
        // A 16×16 coordination game, built afresh on every call; `bumped`
        // changes one off-diagonal payoff.
        let build = |bumped: bool| {
            GameSpec::Strategic(ra_games::StrategicGame::from_payoff_fn(vec![16, 16], |p| {
                let (a, b) = (p.strategy_of(0), p.strategy_of(1));
                let payoff = match (a == b, bumped && (a, b) == (3, 5)) {
                    (true, _) => rat(100 + a as i64, 1),
                    (false, true) => rat(1, 1),
                    (false, false) => rat(0, 1),
                };
                vec![payoff.clone(), payoff]
            }))
        };
        let mut authority = RationalityAuthority::new(
            Inventor::new(0, InventorBehavior::Honest),
            &[VerifierBehavior::Honest; 3],
        );
        authority.set_cert_cache(Arc::new(CertCache::new(CertCacheConfig::replay(64))));
        assert!(!authority.consult(0, &build(false)).cached);
        assert!(
            authority.consult(1, &build(false)).cached,
            "a separately built equal game shares the entry"
        );
        assert!(
            !authority.consult(2, &build(true)).cached,
            "one changed payoff misses"
        );
        let cache = authority.cert_cache().unwrap();
        assert_eq!((cache.stats().hits, cache.stats().misses), (1, 2));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn exclusion_between_prime_and_probe_invalidates_replay_hits() {
        // A cache hit must not serve advice vouched for under an older
        // verifier panel. Prime the cache on
        // one spec, drive a saboteur below the exclusion threshold with
        // *different* consultations, then probe the primed spec: the
        // trusted panel is no longer the one that voted, so the probe
        // re-runs the full protocol (and re-primes the entry under the
        // new panel).
        use crate::cache::CertCacheConfig;
        let primed = GameSpec::Strategic(prisoners_dilemma().to_strategic());
        let churn = GameSpec::Bimatrix(battle_of_the_sexes());
        let mut authority = RationalityAuthority::new(
            Inventor::new(0, InventorBehavior::Honest),
            &[
                VerifierBehavior::Honest,
                VerifierBehavior::Honest,
                VerifierBehavior::AlwaysReject,
            ],
        );
        authority.set_cert_cache(Arc::new(CertCache::new(CertCacheConfig::replay(64))));
        let cold = authority.consult(0, &primed);
        assert!(!cold.cached);
        assert!(
            authority.consult(1, &primed).cached,
            "warm hit before the panel changes"
        );
        let panel_before = authority.reputation().snapshot().panel_version();
        // Score churn alone (every cold consult republishes) must not
        // invalidate: consult a different spec while the saboteur is
        // still above threshold.
        authority.consult(2, &churn);
        assert!(
            authority.consult(3, &primed).cached,
            "score drift within the trusted band keeps hitting"
        );
        // Now drive the saboteur to exclusion with distinct cold specs
        // (warm hits would skip the protocol and never move scores); the
        // panel version moves exactly once, at the threshold crossing.
        let saboteur = Party::Verifier(2);
        let mut rounds: u64 = 0;
        while authority.reputation().is_trusted(saboteur) {
            let distinct = GameSpec::ParallelLinks {
                current_loads: vec![ra_exact::rat(rounds as i64 + 1, 1)],
                own_load: ra_exact::rat(1, 1),
                expected_future_load: ra_exact::rat(1, 1),
                expected_future_agents: 1,
            };
            authority.consult(100 + rounds, &distinct);
            rounds += 1;
            assert!(rounds < 50, "saboteur must be excluded eventually");
        }
        assert!(
            authority.reputation().snapshot().panel_version() > panel_before,
            "exclusion bumps the panel version"
        );
        let probe = authority.consult(999, &primed);
        assert!(
            !probe.cached,
            "the stale hit is treated as a miss after the exclusion"
        );
        assert_eq!(
            probe.verdict_details.len(),
            2,
            "the probe re-ran under the reduced panel"
        );
        assert!(authority.cert_cache().unwrap().stats().stale >= 1);
        // The probe re-primed the entry under the new panel.
        assert!(authority.consult(1000, &primed).cached);
    }

    #[test]
    fn a_shared_cache_replays_no_vote_from_a_panel_the_consult_does_not_trust() {
        // Two authorities share one cache and keep their own reputation.
        // A excludes Verifier(2) and B excludes Verifier(0): both panel
        // versions read 1, but the panels are [V0, V1] and [V1, V2]. B
        // must not replay the vote A's panel cast.
        use crate::cache::CertCacheConfig;
        let cache = Arc::new(CertCache::new(CertCacheConfig::replay(64)));
        let authority = || {
            let mut authority = RationalityAuthority::with_transport(
                Inventor::new(0, InventorBehavior::Honest),
                &[VerifierBehavior::Honest; 3],
                Arc::new(LocalReputation::new()),
                Arc::new(Bus::new()),
            );
            authority.set_cert_cache(Arc::clone(&cache));
            authority
        };
        let exclude = |authority: &RationalityAuthority, dissenter: u64| {
            let round: Vec<_> = (0..3)
                .map(|v| (Party::Verifier(v), v != dissenter))
                .collect();
            while authority
                .reputation()
                .is_trusted(Party::Verifier(dissenter))
            {
                authority.reputation().pool_verdicts(&round);
            }
        };
        let (mut a, mut b) = (authority(), authority());
        exclude(&a, 2);
        exclude(&b, 0);
        let counters = [&a, &b].map(|x| x.reputation().snapshot().panel_version());
        assert_eq!(counters, [1, 1]);

        let spec = GameSpec::Strategic(prisoners_dilemma().to_strategic());
        let cold = a.consult(0, &spec);
        assert!(!cold.cached);
        let voters = |o: &SessionOutcome| -> Vec<Party> {
            o.verdict_details.iter().map(|&(p, _, _)| p).collect()
        };
        assert_eq!(voters(&cold), a.trusted_verifiers());
        let probe = b.consult(0, &spec);
        assert!(!probe.cached, "B's panel did not cast A's vote");
        assert_eq!(voters(&probe), b.trusted_verifiers());
        assert!(probe.adopted);
        assert_eq!(cache.stats().stale, 1);
    }

    #[test]
    fn replay_caches_rejected_advice_too() {
        // A corrupt inventor's advice fails the kernel; the cached entry
        // records that verdict, so replay hits reproduce the rejection
        // without re-running the panel.
        use crate::cache::CertCacheConfig;
        let spec = GameSpec::Strategic(prisoners_dilemma().to_strategic());
        let mut authority = RationalityAuthority::new(
            Inventor::new(0, InventorBehavior::Corrupt),
            &[VerifierBehavior::Honest; 3],
        );
        authority.set_cert_cache(Arc::new(CertCache::new(CertCacheConfig::replay(64))));
        let cold = authority.consult(0, &spec);
        assert!(!cold.adopted);
        let hit = authority.consult(1, &spec);
        assert!(hit.cached);
        assert!(!hit.adopted);
        assert_eq!(hit.advice, cold.advice);
        assert_eq!(authority.cert_cache().unwrap().stats().replay_failures, 0);
    }

    #[test]
    fn a_hit_the_kernel_contradicts_runs_the_protocol_and_reprimes() {
        // The entry was minted by this authority's trusted panel, so the
        // guard admits it, but its stored kernel verdict is the opposite
        // of the kernel's: the replayed check refuses the hit.
        use crate::cache::CertCacheConfig;
        let spec = GameSpec::Strategic(prisoners_dilemma().to_strategic());
        let mut authority = RationalityAuthority::new(
            Inventor::new(0, InventorBehavior::Honest),
            &[VerifierBehavior::Honest; 3],
        );
        let cache = Arc::new(CertCache::new(CertCacheConfig::replay(64)));
        authority.set_cert_cache(Arc::clone(&cache));
        let advice = Inventor::new(0, InventorBehavior::Honest)
            .advise(&spec)
            .expect("honest advice");
        let (kernel_accepts, reason) = kernel_check(&spec, &advice);
        assert!(kernel_accepts);
        cache.insert(
            spec_digest(&spec),
            CachedConsultation {
                advice: advice.clone(),
                kernel_accepts: !kernel_accepts,
                majority: None,
                adopted: false,
                advice_bytes: advice.encoded_len(),
                verdict_details: authority
                    .trusted_verifiers()
                    .into_iter()
                    .map(|party| (party, true, reason))
                    .collect(),
            },
        );
        let outcome = authority.consult(0, &spec);
        assert!(!outcome.cached, "the contradicted hit is not served");
        assert_eq!(cache.stats().replay_failures, 1);
        assert!(outcome.session_bytes > 0, "the full protocol ran");
        assert_eq!(outcome.adopted, kernel_accepts);
        assert_eq!(outcome.advice, Some(advice));
        let hit = authority.consult(1, &spec);
        assert!(hit.cached, "the protocol re-primed the entry");
        assert!(hit.adopted);
        assert_eq!(cache.stats().replay_failures, 1);
    }

    #[test]
    fn cached_hits_do_not_move_reputation() {
        use crate::cache::CertCacheConfig;
        let spec = GameSpec::Strategic(prisoners_dilemma().to_strategic());
        let mut authority = RationalityAuthority::new(
            Inventor::new(0, InventorBehavior::Honest),
            &[
                VerifierBehavior::Honest,
                VerifierBehavior::Honest,
                VerifierBehavior::AlwaysReject,
            ],
        );
        authority.set_cert_cache(Arc::new(CertCache::new(CertCacheConfig::replay(64))));
        let saboteur = Party::Verifier(2);
        let cold = authority.consult(0, &spec);
        assert!(cold.adopted);
        let score_after_cold = authority.reputation().score(saboteur);
        // Twenty cache hits: had these been protocol runs, the saboteur
        // would long be excluded (see the exclusion test above).
        for round in 1..=20 {
            let hit = authority.consult(round, &spec);
            assert!(hit.cached);
        }
        assert_eq!(
            authority.reputation().score(saboteur),
            score_after_cold,
            "hits never pool verdicts"
        );
        assert!(authority.reputation().is_trusted(saboteur));
    }

    #[test]
    fn silent_inventor_outcomes_are_not_cached() {
        use crate::cache::CertCacheConfig;
        let spec = GameSpec::Strategic(prisoners_dilemma().to_strategic());
        let mut authority = RationalityAuthority::new(
            Inventor::new(0, InventorBehavior::Silent),
            &[VerifierBehavior::Honest; 3],
        );
        authority.set_cert_cache(Arc::new(CertCache::new(CertCacheConfig::replay(64))));
        for round in 0..3 {
            let outcome = authority.consult(round, &spec);
            assert!(!outcome.cached, "adviceless outcomes never hit");
            assert!(outcome.advice.is_none());
        }
        let stats = authority.cert_cache().unwrap().stats();
        assert_eq!((stats.hits, stats.misses), (0, 3));
        assert!(authority.cert_cache().unwrap().is_empty());
    }

    #[test]
    fn driver_runs_with_explicit_game_ids() {
        // Consults of one agent each run under their own game id, and
        // each registers the agent afresh for its session.
        let spec = GameSpec::Strategic(prisoners_dilemma().to_strategic());
        let mut authority = RationalityAuthority::with_transport(
            Inventor::new(0, InventorBehavior::Honest),
            &[VerifierBehavior::Honest; 3],
            Arc::new(LocalReputation::new()),
            Arc::new(Bus::new().with_delivery_log()),
        );
        let agent = Party::Agent(7);
        let first = authority.consult(7, &spec);
        // Between its sessions the agent is not routed: a send to it
        // fails unaccounted.
        let frames = authority.bus().message_count();
        assert_eq!(
            authority.bus().send(
                Party::Inventor(0),
                agent,
                Message::AdviceRequest { game_id: 1 }
            ),
            Err(BusError::UnknownParty(agent))
        );
        assert_eq!(authority.bus().message_count(), frames);
        let second = authority.consult(7, &spec);
        assert!(first.adopted && second.adopted);
        assert_eq!(first.session_bytes, second.session_bytes);
        // Both consultations were accounted to the same agent: the
        // request byte count doubles rather than resetting.
        assert_eq!(
            authority.bus().bytes_between(agent, Party::Inventor(0)),
            Message::AdviceRequest { game_id: 1 }.encoded_len()
                + Message::AdviceRequest { game_id: 2 }.encoded_len()
        );
    }

    // ---- session resilience -------------------------------------------

    use crate::simnet::{LinkProfile, SimNet, SimNetConfig};

    fn resilient_authority(
        inventor: InventorBehavior,
        panel: &[VerifierBehavior],
        transport: Arc<dyn Transport>,
        cfg: ResilienceConfig,
    ) -> RationalityAuthority {
        let mut authority = RationalityAuthority::with_transport(
            Inventor::new(0, inventor),
            panel,
            Arc::new(LocalReputation::new()),
            transport,
        );
        authority.set_resilience(Some(cfg));
        authority
    }

    #[test]
    fn resilient_over_perfect_bus_matches_legacy_outcome() {
        for spec in all_specs() {
            let mut legacy = RationalityAuthority::new(
                Inventor::new(0, InventorBehavior::Honest),
                &[VerifierBehavior::Honest; 3],
            );
            let mut resilient = RationalityAuthority::new(
                Inventor::new(0, InventorBehavior::Honest),
                &[VerifierBehavior::Honest; 3],
            );
            resilient.set_resilience(Some(ResilienceConfig::default()));
            let want = legacy.consult(0, &spec);
            let got = resilient.try_consult(0, &spec).expect("perfect bus");
            assert_eq!(got.advice, want.advice, "spec {spec:?}");
            assert_eq!(got.majority, want.majority);
            assert_eq!(got.adopted, want.adopted);
            assert_eq!(got.verdict_details, want.verdict_details);
            assert_eq!(got.panel, PanelOutcome::Full);
            assert_eq!(got.attempts, 0, "perfect bus needs no retries");
            assert_eq!(resilient.bus().retransmit_bytes(), 0);
            // First attempts travel bare, so a retry-free session costs
            // exactly the legacy bytes, all of them goodput.
            assert_eq!(got.session_bytes, want.session_bytes);
            assert_eq!(
                resilient.bus().goodput_bytes(),
                resilient.bus().total_bytes()
            );
        }
    }

    #[test]
    fn resilience_off_is_byte_identical_to_legacy() {
        // The legacy protocol must not pay for the feature it didn't ask
        // for: an authority with no config attached moves exactly the same
        // bytes as before the resilience layer existed.
        let spec = GameSpec::Strategic(prisoners_dilemma().to_strategic());
        let mut a = RationalityAuthority::new(
            Inventor::new(0, InventorBehavior::Honest),
            &[VerifierBehavior::Honest; 3],
        );
        let mut b = RationalityAuthority::new(
            Inventor::new(0, InventorBehavior::Honest),
            &[VerifierBehavior::Honest; 3],
        );
        b.set_resilience(Some(ResilienceConfig::default()));
        b.set_resilience(None);
        let want = a.consult(0, &spec);
        let got = b.consult(0, &spec);
        assert_eq!(got.session_bytes, want.session_bytes);
        assert_eq!(got.attempts, 0);
        assert_eq!(b.bus().retransmit_bytes(), 0);
    }

    #[test]
    fn retransmits_recover_a_lossy_network() {
        let spec = GameSpec::Strategic(prisoners_dilemma().to_strategic());
        let net = Arc::new(SimNet::new(SimNetConfig {
            seed: 7,
            default_link: LinkProfile::lossy(0.4),
            ..SimNetConfig::default()
        }));
        let mut authority = resilient_authority(
            InventorBehavior::Honest,
            &[VerifierBehavior::Honest; 3],
            net,
            ResilienceConfig::default(),
        );
        let mut total_attempts = 0;
        for round in 0..20 {
            let outcome = authority
                .try_consult(round, &spec)
                .expect("budget generous enough for 40% loss");
            assert!(outcome.adopted);
            total_attempts += outcome.attempts;
        }
        assert!(
            total_attempts > 0,
            "40% loss over 20 consults must force at least one retry"
        );
        let bus = authority.bus();
        assert!(bus.retransmit_bytes() > 0);
        assert_eq!(
            bus.total_bytes(),
            bus.goodput_bytes() + bus.retransmit_bytes()
        );
    }

    #[test]
    fn legacy_lossy_link_pins_quiet_minority_vote() {
        // Dropping the request links to two of three verifiers leaves one
        // voice. It was once pooled as if it were the full panel; under
        // the default budget it is decided against the whole panel, so
        // one accept of three is refused, labelled undecided, and nobody
        // is charged.
        let spec = GameSpec::Strategic(prisoners_dilemma().to_strategic());
        let mut authority = RationalityAuthority::new(
            Inventor::new(0, InventorBehavior::Honest),
            &[VerifierBehavior::Honest; 3],
        );
        let silent = [Party::Verifier(1), Party::Verifier(2)];
        for verifier in silent {
            authority.bus().drop_link(Party::Agent(0), verifier);
        }
        let outcome = authority.consult(0, &spec);
        assert!(!outcome.adopted, "one voice of three decides nothing");
        assert_eq!(outcome.majority, None);
        assert_eq!(outcome.verdict_details.len(), 1);
        assert_eq!(
            outcome.panel,
            PanelOutcome::Undecided {
                missing: silent.to_vec()
            }
        );
        for verifier in 0..3 {
            assert_eq!(
                authority.reputation().score(Party::Verifier(verifier)),
                crate::reputation::INITIAL_SCORE
            );
        }
    }

    /// A default-budget consult reduced to literals: every
    /// [`SessionOutcome`] field, then what the transport saw.
    #[derive(Debug, PartialEq)]
    struct Pinned {
        advice: Option<Advice>,
        majority: Option<MajorityOutcome>,
        adopted: bool,
        advice_bytes: usize,
        session_bytes: usize,
        verdict_details: Vec<(Party, bool, VerdictReason)>,
        cached: bool,
        panel: PanelOutcome,
        attempts: u64,
        total_bytes: usize,
        message_count: usize,
        now: u64,
    }

    /// Runs one default-budget prisoner's-dilemma consult for `Agent(0)`
    /// over `transport` with the given directed links dropped.
    fn pin_consult(
        inventor: InventorBehavior,
        transport: Arc<dyn Transport>,
        dropped: &[(Party, Party)],
    ) -> Pinned {
        let spec = GameSpec::Strategic(prisoners_dilemma().to_strategic());
        let mut authority = RationalityAuthority::with_transport(
            Inventor::new(0, inventor),
            &[VerifierBehavior::Honest; 3],
            Arc::new(LocalReputation::new()),
            transport,
        );
        for &(from, to) in dropped {
            authority.bus().drop_link(from, to);
        }
        let o = authority.consult(0, &spec);
        let bus = authority.bus();
        Pinned {
            advice: o.advice,
            majority: o.majority,
            adopted: o.adopted,
            advice_bytes: o.advice_bytes,
            session_bytes: o.session_bytes,
            verdict_details: o.verdict_details,
            cached: o.cached,
            panel: o.panel,
            attempts: o.attempts,
            total_bytes: bus.total_bytes(),
            message_count: bus.message_count(),
            now: bus.now(),
        }
    }

    #[test]
    fn resilience_off_consults_are_pinned() {
        // The default budget, literal by literal, over a perfect bus, a
        // jittered network, a starved panel, a silent inventor and a lost
        // advice frame.
        // Game id 1 is a one-byte varint, so the frames are: advice
        // request 2 B (tag, id), advice-with-proof 7 B (tag, id, and the
        // 5 B advice: its tag, the `NashIntro` tag, the profile's length
        // and two strategies), three verdict requests of 7 B (the advice
        // frame under another tag) and three verdicts of 4 B (tag, id,
        // accepted, reason): 2 + 7 + 3·7 + 3·4 = 42 B for the full panel.
        // A stage that does not complete retries seven times on the
        // clockless bus (eight attempts); a retry wraps its frame in a 3 B
        // envelope (tag, session, attempt). Two request links cut: the
        // first attempt costs 42 − 2·4 = 34 B (the cut requests are still
        // sent, the two verdicts they would provoke are not), and 7·2
        // retried requests of 10 B make 174 B. A silent inventor: 2 + 7·5
        // = 37 B. A lost advice frame: each attempt's request and reply
        // are sent, 2 + 7 + 7·(5 + 10) = 114 B.
        const VERIFIED: VerdictReason = VerdictReason::Verified(crate::verifier::Check::PureNash);
        let spec = GameSpec::Strategic(prisoners_dilemma().to_strategic());
        let advice = Inventor::new(0, InventorBehavior::Honest).advise(&spec);
        let verified = |v: u64| (Party::Verifier(v), true, VERIFIED);
        let unanimous = |n: usize| MajorityOutcome {
            accepted: true,
            accept_votes: n,
            reject_votes: 0,
            dissenters: Vec::new(),
        };
        let bus = || Arc::new(Bus::new()) as Arc<dyn Transport>;
        let agent = Party::Agent(0);
        let full = Pinned {
            advice: advice.clone(),
            majority: Some(unanimous(3)),
            adopted: true,
            advice_bytes: 7,
            session_bytes: 42,
            verdict_details: vec![verified(0), verified(1), verified(2)],
            cached: false,
            panel: PanelOutcome::Full,
            attempts: 0,
            total_bytes: 42,
            message_count: 8,
            now: 0,
        };
        assert_eq!(pin_consult(InventorBehavior::Honest, bus(), &[]), full);
        let jittered = SimNet::new(SimNetConfig {
            seed: 5,
            default_link: LinkProfile::with_latency(2, 6),
            ..SimNetConfig::default()
        });
        assert_eq!(
            pin_consult(InventorBehavior::Honest, Arc::new(jittered), &[]),
            Pinned { now: 23, ..full }
        );
        assert_eq!(
            pin_consult(
                InventorBehavior::Honest,
                bus(),
                &[(agent, Party::Verifier(1)), (agent, Party::Verifier(2))]
            ),
            Pinned {
                advice: advice.clone(),
                majority: None,
                adopted: false,
                advice_bytes: 7,
                session_bytes: 174,
                verdict_details: vec![verified(0)],
                cached: false,
                panel: PanelOutcome::Undecided {
                    missing: vec![Party::Verifier(1), Party::Verifier(2)]
                },
                attempts: 14,
                total_bytes: 174,
                message_count: 20,
                now: 0,
            }
        );
        let starved = Pinned {
            advice: None,
            majority: None,
            adopted: false,
            advice_bytes: 0,
            session_bytes: 37,
            verdict_details: Vec::new(),
            cached: false,
            panel: PanelOutcome::Undecided {
                missing: vec![Party::Inventor(0)],
            },
            attempts: 7,
            total_bytes: 37,
            message_count: 8,
            now: 0,
        };
        assert_eq!(pin_consult(InventorBehavior::Silent, bus(), &[]), starved);
        assert_eq!(
            pin_consult(
                InventorBehavior::Honest,
                bus(),
                &[(Party::Inventor(0), agent)]
            ),
            Pinned {
                session_bytes: 114,
                total_bytes: 114,
                message_count: 16,
                ..starved
            }
        );
    }

    #[test]
    fn lemma1_bytes_per_consult_are_closed_form() {
        // Resilience off over a lossless logged bus, game ids 1..=132 so
        // both one- and two-byte varint ids occur. A consult sends eight
        // frames: the advice request (tag, id), the advice-with-proof,
        // three verdict requests carrying the same advice under another
        // tag, and three verdicts (tag, id, accepted, reason).
        use ra_exact::rat;
        use ra_games::named::stag_hunt;
        let coordination = ra_games::StrategicGame::from_payoff_fn(vec![16, 16], |p| {
            let (a, b) = (p.strategy_of(0), p.strategy_of(1));
            let payoff = if a == b {
                rat(1 + a as i64, 1)
            } else {
                rat(0, 1)
            };
            vec![payoff.clone(), payoff]
        });
        let specs = [
            GameSpec::Strategic(prisoners_dilemma().to_strategic()),
            GameSpec::Strategic(stag_hunt(3)),
            GameSpec::Bimatrix(battle_of_the_sexes()),
            GameSpec::Participation(ParticipationParams::paper_example()),
            GameSpec::ParallelLinks {
                current_loads: vec![rat(4, 1), rat(0, 1), rat(9, 2)],
                own_load: rat(7, 2),
                expected_future_load: rat(2, 1),
                expected_future_agents: 5,
            },
            GameSpec::Strategic(coordination),
        ];
        let bus = Arc::new(Bus::new().with_delivery_log());
        let mut authority = RationalityAuthority::with_transport(
            Inventor::new(0, InventorBehavior::Honest),
            &[VerifierBehavior::Honest; 3],
            Arc::new(LocalReputation::new()),
            bus.clone(),
        );
        let mut logged = 0;
        for game_id in 1..=132u64 {
            let spec = &specs[game_id as usize % specs.len()];
            let outcome = authority.consult(game_id, spec);
            assert!(outcome.adopted, "game {game_id}");
            let log = bus.delivery_log();
            let frames = &log[logged..];
            logged = log.len();
            assert_eq!(frames.len(), 8, "game {game_id}");
            assert_eq!(
                outcome.session_bytes,
                frames.iter().map(|r| r.bytes).sum::<usize>(),
                "game {game_id}"
            );
            let id_len = game_id.encoded_len();
            let verdicts: Vec<usize> = frames
                .iter()
                .filter(|r| matches!(r.from, Party::Verifier(_)))
                .map(|r| r.bytes)
                .collect();
            assert_eq!(verdicts, vec![1 + id_len + 1 + 1; 3], "game {game_id}");
            assert_eq!(
                outcome.session_bytes,
                (1 + id_len) + 4 * outcome.advice_bytes + 3 * (3 + id_len),
                "game {game_id}"
            );
        }
    }

    #[test]
    fn resilience_off_dedups_duplicated_frames() {
        // A link that delivers every frame twice must not hand one
        // rubber-stamping verifier extra votes: with resilience off the
        // responders and the agent dedup bare frames too, so the panel of
        // three casts exactly three votes and the corrupt advice loses.
        let spec = GameSpec::Strategic(prisoners_dilemma().to_strategic());
        let agent = Party::Agent(0);
        let stamper = Party::Verifier(2);
        let doubled = LinkProfile::duplicating(1.0);
        let net = Arc::new(SimNet::lossless(13).with_delivery_log());
        net.set_link(agent, Party::Inventor(0), doubled);
        net.set_link(agent, stamper, doubled);
        net.set_link(stamper, agent, doubled);
        let mut authority = RationalityAuthority::with_transport(
            Inventor::new(0, InventorBehavior::Corrupt),
            &[
                VerifierBehavior::Honest,
                VerifierBehavior::Honest,
                VerifierBehavior::AlwaysAccept,
            ],
            Arc::new(LocalReputation::new()),
            net,
        );
        let outcome = authority.consult(0, &spec);
        let advice = outcome.advice.clone().expect("the inventor answered");
        assert!(!kernel_check(&spec, &advice).0, "the advice is corrupt");
        assert!(!outcome.adopted, "a duplicated rubber stamp still loses");
        let majority = outcome.majority.expect("the panel voted");
        assert_eq!(majority.accept_votes + majority.reject_votes, 3);
        let reply = Message::AdviceWithProof {
            game_id: 1,
            advice: Box::new(advice),
        };
        assert_eq!(
            authority.bus().bytes_between(Party::Inventor(0), agent),
            reply.encoded_len(),
            "the duplicated request is answered once"
        );
    }

    #[test]
    fn sub_quorum_exhaustion_is_a_typed_error_not_a_minority_vote() {
        // Same fault as above, resilience on with quorum 2: the session
        // fails loudly instead of pooling a quiet minority vote.
        let spec = GameSpec::Strategic(prisoners_dilemma().to_strategic());
        let mut authority = RationalityAuthority::new(
            Inventor::new(0, InventorBehavior::Honest),
            &[VerifierBehavior::Honest; 3],
        );
        authority.set_resilience(Some(ResilienceConfig {
            quorum: 2,
            max_attempts: 3,
            ..ResilienceConfig::default()
        }));
        authority
            .bus()
            .drop_link(Party::Agent(0), Party::Verifier(1));
        authority
            .bus()
            .drop_link(Party::Agent(0), Party::Verifier(2));
        let err = authority.try_consult(0, &spec).unwrap_err();
        let ConsultError::Deadline {
            stage,
            received,
            quorum,
            missing,
            ..
        } = err;
        assert_eq!(stage, ConsultStage::Panel);
        assert_eq!(received, 1);
        assert_eq!(quorum, 2);
        assert_eq!(missing, vec![Party::Verifier(1), Party::Verifier(2)]);
        // Sub-quorum silence is not punished: there is no responding
        // majority to evidence the network was fine.
        assert_eq!(
            authority.reputation().score(Party::Verifier(1)),
            crate::reputation::INITIAL_SCORE
        );
    }

    #[test]
    fn quorum_close_is_degraded_and_spares_the_silent() {
        let spec = GameSpec::Strategic(prisoners_dilemma().to_strategic());
        let mut authority = RationalityAuthority::new(
            Inventor::new(0, InventorBehavior::Honest),
            &[VerifierBehavior::Honest; 3],
        );
        authority.set_resilience(Some(ResilienceConfig {
            quorum: 2,
            max_attempts: 3,
            ..ResilienceConfig::default()
        }));
        authority
            .bus()
            .drop_link(Party::Agent(0), Party::Verifier(2));
        let silent = Party::Verifier(2);
        let before = authority.reputation().score(silent);
        let outcome = authority.try_consult(0, &spec).expect("quorum of 2 met");
        assert!(outcome.adopted);
        assert_eq!(
            outcome.panel,
            PanelOutcome::Degraded {
                missing: vec![silent]
            }
        );
        assert_eq!(outcome.majority.as_ref().unwrap().accept_votes, 2);
        assert_eq!(outcome.verdict_details.len(), 2);
        assert_eq!(
            authority.reputation().score(silent),
            before,
            "silence is not evidence: the network may have lost the frames"
        );
    }

    #[test]
    fn persistent_silence_excludes_and_bumps_the_panel_version() {
        // The name records the behaviour this test once pinned. Silence
        // is not evidence, so a verifier cut off for 64 consults stays
        // trusted at its score and the panel version never moves.
        let spec = GameSpec::Strategic(prisoners_dilemma().to_strategic());
        let mut authority = RationalityAuthority::new(
            Inventor::new(0, InventorBehavior::Honest),
            &[VerifierBehavior::Honest; 3],
        );
        authority.set_resilience(Some(ResilienceConfig {
            quorum: 2,
            max_attempts: 2,
            ..ResilienceConfig::default()
        }));
        let silent = Party::Verifier(2);
        authority.bus().drop_link(Party::Agent(0), silent);
        let version_before = authority.reputation().snapshot().panel_version();
        for _ in 0..64 {
            // Always agent 0: the dropped link is directed from it.
            let outcome = authority.try_consult(0, &spec).expect("quorum met");
            assert!(outcome.adopted);
            assert_eq!(
                outcome.panel,
                PanelOutcome::Degraded {
                    missing: vec![silent]
                }
            );
        }
        assert_eq!(
            authority.reputation().score(silent),
            crate::reputation::INITIAL_SCORE
        );
        assert_eq!(
            authority.reputation().snapshot().panel_version(),
            version_before
        );
        // Another agent's link is intact, so its session closes full.
        let outcome = authority.try_consult(99, &spec).expect("live panel");
        assert_eq!(outcome.panel, PanelOutcome::Full);
        assert_eq!(outcome.verdict_details.len(), 3);
    }

    #[test]
    fn silent_inventor_starves_the_advice_stage() {
        let spec = GameSpec::Strategic(prisoners_dilemma().to_strategic());
        let mut authority = RationalityAuthority::new(
            Inventor::new(0, InventorBehavior::Silent),
            &[VerifierBehavior::Honest; 3],
        );
        authority.set_resilience(Some(ResilienceConfig {
            max_attempts: 3,
            ..ResilienceConfig::default()
        }));
        let err = authority.try_consult(0, &spec).unwrap_err();
        let ConsultError::Deadline {
            stage,
            attempts,
            missing,
            ..
        } = err;
        assert_eq!(stage, ConsultStage::Advice);
        assert_eq!(attempts, 2, "three sends, two of them retransmits");
        assert_eq!(missing, vec![Party::Inventor(0)]);
    }

    // ---- a failed send is a lost frame, never a panic -----------------

    #[test]
    fn a_disconnected_verifier_degrades_the_panel() {
        let spec = GameSpec::Strategic(prisoners_dilemma().to_strategic());
        let mut authority = RationalityAuthority::new(
            Inventor::new(0, InventorBehavior::Honest),
            &[VerifierBehavior::Honest; 3],
        );
        authority.bus().disconnect(Party::Verifier(1));
        let outcome = authority.consult(0, &spec);
        assert!(outcome.adopted, "the two honest verdicts decide");
        assert_eq!(outcome.majority.unwrap().accept_votes, 2);
        assert_eq!(
            outcome.panel,
            PanelOutcome::Degraded {
                missing: vec![Party::Verifier(1)]
            }
        );
    }

    #[test]
    fn a_disconnected_inventor_starves_the_advice_stage() {
        let spec = GameSpec::Strategic(prisoners_dilemma().to_strategic());
        let mut authority = RationalityAuthority::new(
            Inventor::new(0, InventorBehavior::Honest),
            &[VerifierBehavior::Honest; 3],
        );
        authority.bus().disconnect(Party::Inventor(0));
        let outcome = authority.consult(0, &spec);
        assert!(!outcome.adopted);
        assert!(outcome.advice.is_none());
        assert_eq!(
            outcome.panel,
            PanelOutcome::Undecided {
                missing: vec![Party::Inventor(0)]
            }
        );
    }

    #[test]
    fn a_disconnected_inventor_is_an_advice_deadline_under_a_caller_budget() {
        let spec = GameSpec::Strategic(prisoners_dilemma().to_strategic());
        let mut authority = RationalityAuthority::new(
            Inventor::new(0, InventorBehavior::Honest),
            &[VerifierBehavior::Honest; 3],
        );
        authority.set_resilience(Some(ResilienceConfig::default()));
        authority.bus().disconnect(Party::Inventor(0));
        let ConsultError::Deadline { stage, missing, .. } =
            authority.try_consult(0, &spec).unwrap_err();
        assert_eq!(stage, ConsultStage::Advice);
        assert_eq!(missing, vec![Party::Inventor(0)]);
    }

    #[test]
    fn a_links_spec_the_inventor_cannot_serve_gets_no_advice() {
        // No links, or more expected agents than an assignment can hold:
        // no inventor advises, so the advice stage starves.
        use ra_exact::{rat, Rational};
        let links =
            |current_loads: Vec<Rational>, expected_future_agents| GameSpec::ParallelLinks {
                current_loads,
                own_load: rat(1, 1),
                expected_future_load: rat(1, 1),
                expected_future_agents,
            };
        let loads = || vec![rat(1, 1), rat(2, 1)];
        for spec in [
            links(Vec::new(), 1),
            links(loads(), usize::MAX),
            links(loads(), usize::MAX / 8),
        ] {
            for behavior in [InventorBehavior::Honest, InventorBehavior::Corrupt] {
                let mut authority = RationalityAuthority::new(
                    Inventor::new(0, behavior),
                    &[VerifierBehavior::Honest; 3],
                );
                let outcome = authority.consult(0, &spec);
                assert!(outcome.advice.is_none(), "{behavior:?}");
                assert_eq!(
                    outcome.panel,
                    PanelOutcome::Undecided {
                        missing: vec![Party::Inventor(0)]
                    }
                );
                authority.set_resilience(Some(ResilienceConfig::default()));
                let ConsultError::Deadline { stage, .. } =
                    authority.try_consult(0, &spec).unwrap_err();
                assert_eq!(stage, ConsultStage::Advice, "{behavior:?}");
            }
        }
    }

    #[test]
    fn a_deadline_disconnects_the_agent_and_its_next_consult_succeeds() {
        // A session that fails with a typed deadline still disconnects
        // its agent, and the same agent's next consult over the same
        // slow, duplicating network registers afresh and adopts.
        let spec = GameSpec::Strategic(prisoners_dilemma().to_strategic());
        let agent = Party::Agent(5);
        let net = Arc::new(SimNet::new(SimNetConfig {
            seed: 17,
            default_link: LinkProfile {
                duplicate_probability: 0.5,
                ..LinkProfile::with_latency(1, 3)
            },
            ..SimNetConfig::default()
        }));
        let mut authority = resilient_authority(
            InventorBehavior::Honest,
            &[VerifierBehavior::Honest; 3],
            net,
            ResilienceConfig {
                quorum: 2,
                max_attempts: 3,
                ..ResilienceConfig::default()
            },
        );
        authority.bus().drop_link(Party::Verifier(1), agent);
        authority.bus().drop_link(Party::Verifier(2), agent);
        let err = authority.try_consult(5, &spec).unwrap_err();
        let ConsultError::Deadline {
            stage, received, ..
        } = err;
        assert_eq!((stage, received), (ConsultStage::Panel, 1));
        assert_eq!(
            authority.bus().send(
                Party::Inventor(0),
                agent,
                Message::AdviceRequest { game_id: 1 }
            ),
            Err(BusError::UnknownParty(agent))
        );
        authority.bus().heal();
        let outcome = authority.try_consult(5, &spec).expect("the links healed");
        assert!(outcome.adopted);
        assert_eq!(outcome.panel, PanelOutcome::Full);
        assert_eq!(
            authority.bus().send(
                Party::Inventor(0),
                agent,
                Message::AdviceRequest { game_id: 2 }
            ),
            Err(BusError::UnknownParty(agent))
        );
    }

    #[test]
    fn duplicated_traffic_is_outcome_identical_to_lossless() {
        // The dedup half of at-least-once delivery: a link that delivers
        // every frame twice must produce exactly the outcome of a clean
        // one — same advice, same vote, no spurious retries.
        for spec in all_specs() {
            let clean = Arc::new(SimNet::lossless(11));
            let doubled = Arc::new(SimNet::new(SimNetConfig {
                seed: 11,
                default_link: LinkProfile::duplicating(1.0),
                ..SimNetConfig::default()
            }));
            let cfg = ResilienceConfig::default();
            let mut a = resilient_authority(
                InventorBehavior::Honest,
                &[VerifierBehavior::Honest; 3],
                clean,
                cfg,
            );
            let mut b = resilient_authority(
                InventorBehavior::Honest,
                &[VerifierBehavior::Honest; 3],
                doubled,
                cfg,
            );
            let want = a.try_consult(0, &spec).expect("lossless");
            let got = b.try_consult(0, &spec).expect("duplicates never starve");
            assert_eq!(got.advice, want.advice, "spec {spec:?}");
            assert_eq!(got.majority, want.majority);
            assert_eq!(got.adopted, want.adopted);
            assert_eq!(got.verdict_details, want.verdict_details);
            assert_eq!(got.panel, want.panel);
            assert_eq!(got.attempts, want.attempts);
            assert_eq!(got.attempts, 0, "duplication alone never forces a retry");
        }
    }

    #[test]
    fn latency_only_networks_complete_within_the_clock_budget() {
        let spec = GameSpec::Strategic(prisoners_dilemma().to_strategic());
        let net = Arc::new(SimNet::new(SimNetConfig {
            seed: 3,
            default_link: LinkProfile::with_latency(2, 6),
            ..SimNetConfig::default()
        }));
        let transport: Arc<dyn Transport> = Arc::clone(&net) as Arc<dyn Transport>;
        let mut authority = resilient_authority(
            InventorBehavior::Honest,
            &[VerifierBehavior::Honest; 3],
            transport,
            ResilienceConfig::default(),
        );
        let outcome = authority.try_consult(0, &spec).expect("no loss");
        assert!(outcome.adopted);
        assert_eq!(outcome.panel, PanelOutcome::Full);
        assert_eq!(
            outcome.attempts, 0,
            "every attempt settles before the agent reads, so latency alone never costs a retry"
        );
        assert_eq!(
            net.now(),
            18,
            "seed 3's link latencies: settle delivered every frame and moved the clock"
        );
        assert_eq!(authority.bus().retransmit_bytes(), 0);
    }

    #[test]
    fn degraded_outcomes_are_never_memoized() {
        use crate::cache::CertCacheConfig;
        let spec = GameSpec::Strategic(prisoners_dilemma().to_strategic());
        let mut authority = RationalityAuthority::new(
            Inventor::new(0, InventorBehavior::Honest),
            &[VerifierBehavior::Honest; 3],
        );
        authority.set_cert_cache(Arc::new(CertCache::new(CertCacheConfig::replay(64))));
        authority.set_resilience(Some(ResilienceConfig {
            quorum: 1,
            max_attempts: 2,
            ..ResilienceConfig::default()
        }));
        authority
            .bus()
            .drop_link(Party::Agent(0), Party::Verifier(2));
        let degraded = authority.try_consult(0, &spec).expect("quorum met");
        assert!(matches!(degraded.panel, PanelOutcome::Degraded { .. }));
        let probe = authority.try_consult(1, &spec).expect("quorum met");
        assert!(
            !probe.cached,
            "a quorum vote must not be replayed as if the full panel vouched"
        );
    }

    #[test]
    fn resilient_jitter_stream_is_seed_deterministic() {
        let spec = GameSpec::Strategic(prisoners_dilemma().to_strategic());
        let run = |seed: u64| {
            let net = Arc::new(SimNet::new(SimNetConfig {
                seed: 99,
                default_link: LinkProfile {
                    latency_min: 1,
                    latency_max: 4,
                    drop_prob: 0.3,
                    duplicate_probability: 0.0,
                },
                ..SimNetConfig::default()
            }));
            let mut authority = resilient_authority(
                InventorBehavior::Honest,
                &[VerifierBehavior::Honest; 3],
                net,
                ResilienceConfig {
                    seed,
                    ..ResilienceConfig::default()
                },
            );
            (0..10)
                .map(|round| {
                    let o = authority.try_consult(round, &spec).expect("budget");
                    (o.attempts, o.session_bytes, o.adopted)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(1), "same seeds, same retry trace");
    }

    #[test]
    fn the_retry_schedule_is_pinned() {
        // Retry k waits min(4 << k, 256) ticks plus one jitter draw in
        // [0, 3] off the seeded stream.
        let (mut ours, mut reference) = (11, 11);
        for attempt in 0..8 {
            let expected = (4u64 << attempt).min(256) + rand::splitmix64(&mut reference) % 4;
            assert_eq!(rto(attempt, &mut ours), expected);
        }
        // However late the retry, the interval saturates at the cap.
        let expected = 256 + rand::splitmix64(&mut reference) % 4;
        assert_eq!(rto(u32::MAX - 1, &mut ours), expected);
    }

    #[test]
    fn lossy_consults_retry_under_the_default_schedule() {
        let spec = GameSpec::Strategic(prisoners_dilemma().to_strategic());
        let net = Arc::new(SimNet::new(SimNetConfig {
            seed: 5,
            default_link: LinkProfile {
                latency_min: 1,
                latency_max: 2,
                drop_prob: 0.5,
                duplicate_probability: 0.0,
            },
            ..SimNetConfig::default()
        }));
        let mut authority = resilient_authority(
            InventorBehavior::Honest,
            &[VerifierBehavior::Honest; 3],
            net,
            ResilienceConfig::default(),
        );
        let attempts: u64 = (0..4)
            .map(|round| {
                authority
                    .try_consult(round, &spec)
                    .map_or(0, |o| o.attempts)
            })
            .sum();
        assert!(attempts > 0, "half the frames are lost, so consults retry");
    }

    // ---- the machines, driven with no network -------------------------

    /// A frame: sender, recipient, message.
    type Frame = (Party, Party, Message);

    /// Calls `visit` with every distinct order of the multiset holding
    /// `counts[i]` copies of item `i`.
    fn each_order(counts: &mut [usize], order: &mut Vec<usize>, visit: &mut dyn FnMut(&[usize])) {
        if counts.iter().all(|&c| c == 0) {
            return visit(order);
        }
        for item in 0..counts.len() {
            if counts[item] > 0 {
                counts[item] -= 1;
                order.push(item);
                each_order(counts, order, visit);
                order.pop();
                counts[item] += 1;
            }
        }
    }

    /// Calls `visit` with every delivery of `frames` distinct frames in
    /// which each arrives once or twice, in every order.
    fn each_delivery(frames: usize, visit: &mut dyn FnMut(&[usize])) {
        for twice in 0..1usize << frames {
            let mut counts: Vec<usize> = (0..frames).map(|i| 1 + (twice >> i & 1)).collect();
            each_order(&mut counts, &mut Vec::new(), visit);
        }
    }

    /// The number of deliveries [`each_delivery`] makes of `n` frames:
    /// over the `k` frames sent twice, `C(n, k) (n + k)! / 2^k`.
    fn deliveries(n: usize) -> usize {
        let factorial = |m: usize| (1..=m).product::<usize>();
        let choose = |k: usize| factorial(n) / (factorial(k) * factorial(n - k));
        (0..=n).map(|k| (choose(k) * factorial(n + k)) >> k).sum()
    }

    /// One attempt of the panel stage of a consult about the prisoner's
    /// dilemma, for `panel` and the advice of an `inventor`, with every
    /// frame of the attempt delivered once or twice in every order. A
    /// stranger sends the last verifier a verdict request under this
    /// consult's id, and that verifier's verdict of another consult,
    /// contrary to its own, reaches the agent. Returns the agent runs.
    ///
    /// A frame's effect depends only on the machine it reaches, and the
    /// machines share nothing, so an interleaving of the whole attempt is
    /// fixed by its order at each machine: each verifier's orders run on
    /// their own, and the agent's run over the replies they produced. That
    /// covers every interleaving of the attempt's frames (26,862,378,480 for
    /// a panel of three) in a few thousand runs.
    fn enumerate_panel_attempt(panel: &[VerifierBehavior], inventor: InventorBehavior) -> usize {
        let spec = GameSpec::Strategic(prisoners_dilemma().to_strategic());
        let advice = Inventor::new(0, inventor).advise(&spec).expect("advice");
        let kernel_accepts = kernel_check(&spec, &advice).0;
        let (agent, last) = (Party::Agent(0), Party::Verifier(panel.len() as u64 - 1));
        let session = Session {
            agent,
            inventor: Party::Inventor(0),
            game_id: 1,
            subject: Subject::Spec(&spec),
        };
        // One agent machine, begun afresh for every run with the advice in
        // hand and the panel seated.
        let shared = Arc::new(advice.clone());
        let seat = |machine: &mut AgentMachine| {
            machine.begin(0, ResilienceConfig::default().deadline);
            machine.advice = Some(Arc::clone(&shared));
            let members = (0..panel.len() as u64).map(Party::Verifier);
            machine.panel.extend(members);
            machine.verdicts.resize(panel.len(), None);
        };
        let mut machine = AgentMachine::default();
        seat(&mut machine);
        let mut requests = Vec::new();
        machine.requests(ConsultStage::Panel, session, 0, &mut requests);
        assert_eq!(requests.len(), panel.len(), "one request per member");

        // Each verifier's inbox: its request, and for the last one the
        // stranger's. Every order of every inbox yields the in-order
        // replies: exactly one verdict, to the agent.
        let stranger: Frame = (
            Party::Agent(99),
            last,
            Message::VerdictRequest {
                game_id: 1,
                advice: Arc::new(advice.clone()),
            },
        );
        let mut replies: Vec<Frame> = Vec::new();
        for (index, (request, &behavior)) in requests.iter().zip(panel).enumerate() {
            let service = VerifierService::new(index as u64, behavior);
            let party = service.id;
            let inbox: Vec<&Frame> = match party == last {
                true => vec![request, &stranger],
                false => vec![request],
            };
            let mut in_order = None;
            each_delivery(inbox.len(), &mut |order| {
                let bus = Bus::new();
                let endpoint = bus.register(party);
                for &i in order {
                    let (from, to, msg) = inbox[i].clone();
                    bus.send(from, to, msg).expect("routed to the endpoint");
                }
                let mut verifier = Responder::new(endpoint, service.clone());
                let mut out = Vec::new();
                verifier.serve(session, 0, &mut Vec::new(), &mut out);
                assert_eq!(out.len(), 1, "{party} answers once: {out:?}");
                assert_eq!(out[0].1, agent, "{party} answers only the agent");
                assert_eq!(in_order.get_or_insert_with(|| out.clone()), &out);
            });
            replies.extend(in_order.expect("at least one order"));
        }
        let real = replies.last().map(|(_, _, m)| m.clone());
        let Some(Message::Verdict { accepted, .. }) = real else {
            panic!("a verdict: {real:?}")
        };
        let mut frames = replies;
        frames.push((
            last,
            agent,
            Message::Verdict {
                game_id: 2,
                accepted: !accepted,
                detail: VerdictReason::RubberStamped,
            },
        ));

        // The agent, over every order of the replies and the stale
        // verdict: every run collects the in-order votes, one per member,
        // and those adopt nothing the kernel rejects.
        let mut votes = |order: &[usize]| {
            seat(&mut machine);
            for &i in order {
                let (from, _, msg) = frames[i].clone();
                machine.on_frame(session, from, msg);
            }
            machine.votes()
        };
        let in_order = votes(&(0..frames.len()).collect::<Vec<_>>());
        let (details, missing) = &in_order;
        assert!(missing.is_empty(), "every member voted: {missing:?}");
        let verdicts: Vec<_> = details.iter().map(|&(v, a, _)| (v, a)).collect();
        let majority = LocalReputation::new().pool_verdicts(&verdicts);
        assert_eq!(majority.accept_votes + majority.reject_votes, panel.len());
        assert!(
            !majority.accepted || kernel_accepts,
            "adopted only if sound"
        );
        let mut runs = 0;
        each_delivery(frames.len(), &mut |order| {
            assert_eq!(votes(order), in_order, "delivered as {order:?}");
            runs += 1;
        });
        assert_eq!(runs, deliveries(frames.len()));
        runs
    }

    #[test]
    fn every_delivery_order_of_a_panel_attempt_gives_the_in_order_outcome() {
        use VerifierBehavior::{AlwaysAccept, Honest};
        let mut runs = 0;
        for panel in [[Honest; 3], [Honest, Honest, AlwaysAccept]] {
            for inventor in [InventorBehavior::Honest, InventorBehavior::Corrupt] {
                runs += enumerate_panel_attempt(&panel, inventor);
            }
        }
        assert_eq!(runs, 4 * 6384);
    }

    #[test]
    #[ignore = "19.4M agent runs: run in release with --include-ignored"]
    fn every_delivery_order_of_a_five_panel_attempt_gives_the_in_order_outcome() {
        use VerifierBehavior::{AlwaysAccept, Honest};
        let panel = [Honest, Honest, Honest, AlwaysAccept, AlwaysAccept];
        let runs = enumerate_panel_attempt(&panel, InventorBehavior::Corrupt);
        assert_eq!(runs, 19_445_040);
    }
}
