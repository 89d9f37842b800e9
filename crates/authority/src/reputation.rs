//! The verifier reputation plane: majority voting, pluggable backends,
//! and epoch-based cross-shard gossip carried over a byte-accounted
//! [`Transport`].
//!
//! The paper: "We note the possibility of having several verifiers, such
//! that their majority is trusted. The reputation of the verifiers can be
//! updated according to the (majority of their) results." This module
//! implements exactly that — verdicts are pooled per query, the majority
//! decides, and each verifier's reputation moves toward or away from the
//! majority; persistently deviant verifiers fall below the exclusion
//! threshold and stop being consulted — behind a [`ReputationBackend`]
//! trait so the *scope* of a reputation score is pluggable:
//!
//! * [`LocalReputation`] — one mutex-guarded score table, kept only as
//!   its published snapshot and updated in place, the classic single-bus
//!   store;
//! * [`GossipReputation`] — per-shard PN-counter deltas
//!   ([`DecayingPnCounterMap`], a state-based CRDT whose merge is
//!   commutative, associative and idempotent) published to a shared
//!   [`GossipPlane`] at epoch boundaries, so the consult hot path only
//!   ever touches shard-local state and exclusion still propagates
//!   engine-wide.
//!
//! A backend implements only one write ([`ReputationBackend::pool_panel`])
//! and publication ([`ReputationBackend::snapshot`]). Every read — `score`,
//! `is_trusted` — comes off the published [`ReputationSnapshot`], the same
//! view a consult trusts, so reading a score never changes any state (or
//! any gossip byte). A backend knows only the verifiers it has pooled, so
//! the trusted *set* is read where the panel is registered:
//! [`crate::RationalityAuthority::trusted_verifiers`].
//!
//! Two refinements layer on top of the basic plane:
//!
//! * **Bus-carried gossip** — a [`GossipPlane`] owns a dedicated
//!   inter-shard [`Transport`] and routes every epoch merge through it as
//!   real framed [`Message::Gossip`] sends, so the
//!   Lemma 1 byte accounting covers the control plane, not just
//!   consultations.
//! * **Decay** — [`ReputationDecay::HalfLife`] halves the contribution of
//!   each past epoch generation, so ancient dissent is eventually
//!   forgiven ([`DecayingPnCounterMap`] keeps per-generation counters
//!   exactly so this stays a max-merge CRDT — a plain PN counter can only
//!   grow).
//!
//! # Examples
//!
//! The trait is what the session layer consumes; any backend slots in:
//!
//! ```
//! use ra_authority::{LocalReputation, Party, ReputationBackend};
//!
//! let store = LocalReputation::new();
//! let outcome = store.pool_verdicts(&[
//!     (Party::Verifier(0), true),
//!     (Party::Verifier(1), true),
//!     (Party::Verifier(2), false),
//! ]);
//! assert!(outcome.accepted);
//! assert_eq!(outcome.dissenters, vec![Party::Verifier(2)]);
//! assert!(store.is_trusted(Party::Verifier(2)), "one dissent is not exclusion");
//! ```

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

use crate::messages::{Message, Party};
use crate::transport::{Endpoint, Transport};

/// Starting reputation score for a verifier never seen before.
pub const INITIAL_SCORE: i64 = 10;
/// At or below this score a verifier is no longer consulted.
pub const EXCLUSION_THRESHOLD: i64 = 0;

/// The reserved bus identity of a [`GossipPlane`]'s rendezvous endpoint on
/// the inter-shard gossip bus. Shard endpoints are `Party::Shard(s)` for
/// `s < shard_count`, so the all-ones id can never collide.
pub const GOSSIP_HUB: Party = Party::Shard(u64::MAX);

/// How one round of verdicts is pooled into a majority: one verifier,
/// one vote, the paper's rule, is the only rule.
///
/// The type stays, with its one variant, only because the end-to-end
/// benchmark package names it; every backend ignores it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum VoteRule {
    /// One verifier, one vote — the paper's rule.
    #[default]
    Simple,
}

/// How past observations fade from a verifier's score.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ReputationDecay {
    /// Observations never fade (plain PN-counter behaviour).
    #[default]
    None,
    /// Each epoch generation's contribution halves per generation of age
    /// and is dropped entirely at `retention` generations, so a verifier
    /// judged irrational long ago is not condemned forever.
    HalfLife {
        /// Generations after which an observation stops counting
        /// (must be positive).
        retention: u32,
    },
}

/// Outcome of pooling one round of verdicts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MajorityOutcome {
    /// The majority verdict (ties resolve to `false` — reject, the safe
    /// side for advice adoption).
    pub accepted: bool,
    /// Number of verifiers voting accept.
    pub accept_votes: usize,
    /// Number of verifiers voting reject.
    pub reject_votes: usize,
    /// Verifiers that disagreed with the majority this round.
    pub dissenters: Vec<Party>,
}

/// The one close rule of a panel vote, shared by every backend so it
/// cannot drift between them. `verdicts` are the answers and `silent`
/// the trusted panel members that never gave one; each member has one
/// vote. With `W` the whole panel, `A` the accept and `S` the silent
/// count, the vote accepts iff `A > W/2`, rejects iff `A + S ≤ W/2`, and
/// is otherwise undecided (`None`): the silent could swing it, and
/// unknown is not false. With nobody silent this is `A > R`, ties
/// rejecting.
fn pooled_outcome(verdicts: &[(Party, bool)], silent: &[Party]) -> Option<MajorityOutcome> {
    assert!(
        !verdicts.is_empty(),
        "pooling requires at least one verdict"
    );
    let accept_votes = verdicts.iter().filter(|&&(_, vote)| vote).count();
    let reject_votes = verdicts.len() - accept_votes;
    // Doubled: 2A > W is A > R + S, and 2(A + S) <= W is A + S <= R.
    let accepted = if accept_votes > reject_votes + silent.len() {
        true
    } else if accept_votes + silent.len() <= reject_votes {
        false
    } else {
        return None;
    };
    let dissenters = verdicts
        .iter()
        .filter(|&&(_, vote)| vote != accepted)
        .map(|&(party, _)| party)
        .collect();
    Some(MajorityOutcome {
        accepted,
        accept_votes,
        reject_votes,
        dissenters,
    })
}

/// An immutable point-in-time view of every registered verifier's score.
///
/// Backends publish a new snapshot (behind `Arc`) whenever scores
/// change — at the end of a decided [`ReputationBackend::pool_panel`] and, for
/// [`GossipReputation`], after an epoch pull or a generation advance. A
/// decided round rewrites its voters' scores in the published snapshot in
/// place when no reader holds it, and in a copy when one does, so a
/// snapshot in a reader's hands never changes.
/// Every read goes through it: readers on the consult hot path
/// ([`crate::RationalityAuthority`]) and the [`ReputationBackend`] read
/// methods grab the current `Arc` with one short lock and then read
/// trust checks off it with no further synchronization, so a gossip merge
/// running on another thread can never contend with — or leak a
/// half-merged epoch into — a consult's trust decisions.
///
/// Because snapshots are published *under the backend's data lock*, a
/// snapshot always reflects a complete mutation: either all of a pooled
/// round / merged epoch, or none of it.
///
/// # Examples
///
/// ```
/// use ra_authority::{LocalReputation, Party, ReputationBackend, INITIAL_SCORE};
///
/// let store = LocalReputation::new();
/// let before = store.snapshot();
/// store.pool_verdicts(&[(Party::Verifier(0), true), (Party::Verifier(1), true)]);
/// let after = store.snapshot();
/// // The stale snapshot is immutable: it still scores everyone as unseen.
/// assert_eq!(before.score(Party::Verifier(0)), INITIAL_SCORE);
/// assert_eq!(after.score(Party::Verifier(0)), INITIAL_SCORE + 1);
/// assert!(after.version() > before.version());
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReputationSnapshot {
    version: u64,
    panel_version: u64,
    scores: HashMap<Party, i64>,
}

impl ReputationSnapshot {
    /// Monotone publication counter: strictly increases with every
    /// republish, so readers can tell which of two snapshots is fresher.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Monotone *panel* counter: increases only when the trusted-verifier
    /// set changes between consecutive publications — an exclusion
    /// crossing [`EXCLUSION_THRESHOLD`] or a readmission — not on mere
    /// score movement within the trusted band. An observation only: it
    /// counts this backend's panel changes, and nothing is guarded by
    /// it. Two backends' counters say nothing about whether their panels
    /// agree, and a verifier excluded and then readmitted leaves the same
    /// panel under a new count, so the certificate cache compares the
    /// panels themselves ([`crate::RationalityAuthority::trusted_verifiers`]).
    pub fn panel_version(&self) -> u64 {
        self.panel_version
    }

    /// Score of a verifier in this view (unseen verifiers score
    /// [`INITIAL_SCORE`], matching the live backends).
    pub fn score(&self, verifier: Party) -> i64 {
        self.scores.get(&verifier).copied().unwrap_or(INITIAL_SCORE)
    }

    /// Returns `true` if the verifier is trusted in this view (above
    /// [`EXCLUSION_THRESHOLD`]).
    pub fn is_trusted(&self, verifier: Party) -> bool {
        self.score(verifier) > EXCLUSION_THRESHOLD
    }

    /// Number of verifiers registered in this view.
    pub fn len(&self) -> usize {
        self.scores.len()
    }

    /// Returns `true` if no verifier has been registered yet.
    pub fn is_empty(&self) -> bool {
        self.scores.is_empty()
    }

    /// Publishes one decided round in place: each distinct voter's score
    /// becomes `rescore(voter, old_score)`, the version moves on, and the
    /// panel version moves on iff some voter's trust flipped. A round
    /// moves no other score, so the voters alone decide the panel
    /// version, as [`trusted_set_changed`] over the whole maps would.
    fn publish_round(
        &mut self,
        verdicts: &[(Party, bool)],
        mut rescore: impl FnMut(Party, i64) -> i64,
    ) {
        let mut flipped = false;
        for (i, &(voter, _)) in verdicts.iter().enumerate() {
            if verdicts[..i].iter().any(|&(seen, _)| seen == voter) {
                continue;
            }
            let score = self.scores.entry(voter).or_insert(INITIAL_SCORE);
            let old = *score;
            *score = rescore(voter, old);
            flipped |= (old > EXCLUSION_THRESHOLD) != (*score > EXCLUSION_THRESHOLD);
        }
        self.version += 1;
        self.panel_version += u64::from(flipped);
    }
}

/// Whether the trusted-verifier set differs between two score maps,
/// compared over the union of their keys (a party absent from either map
/// scores [`INITIAL_SCORE`], i.e. trusted — so decay-pruned parties are
/// handled too). Drives [`ReputationSnapshot::panel_version`].
fn trusted_set_changed(old: &HashMap<Party, i64>, new: &HashMap<Party, i64>) -> bool {
    let trusted = |scores: &HashMap<Party, i64>, p: Party| {
        scores.get(&p).copied().unwrap_or(INITIAL_SCORE) > EXCLUSION_THRESHOLD
    };
    old.keys()
        .chain(new.keys())
        .any(|&p| trusted(old, p) != trusted(new, p))
}

/// Swaps a snapshot of `scores` into a backend's snapshot `slot`, bumping
/// the version and — when the trusted set moved — the panel version: the
/// full rebuild after a gossip pull or generation advance, which may move
/// any score. Callers hold their data lock, which serializes publications
/// with mutations; the slot itself is a leaf lock held only for the swap.
fn publish(slot: &Mutex<Arc<ReputationSnapshot>>, scores: HashMap<Party, i64>) {
    let mut slot = slot.lock().expect("reputation snapshot lock poisoned");
    let panel_version = slot.panel_version + u64::from(trusted_set_changed(&slot.scores, &scores));
    *slot = Arc::new(ReputationSnapshot {
        version: slot.version + 1,
        panel_version,
        scores,
    });
}

/// A reputation backend: where verifier trust scores live and how one
/// round of verdicts updates them.
///
/// The session layer ([`crate::RationalityAuthority`]) is written against this
/// trait, so the same Fig. 1 protocol runs over a process-local score
/// table ([`LocalReputation`]) or a cross-shard gossiped one
/// ([`GossipReputation`]) without change. Implementations must be
/// internally synchronized (`&self` methods, `Send + Sync`).
///
/// # Examples
///
/// Both backends agree on the same verdict stream:
///
/// ```
/// use std::sync::Arc;
/// use ra_authority::{
///     GossipPlane, GossipReputation, LocalReputation, Party, ReputationBackend,
/// };
///
/// let local = LocalReputation::new();
/// let gossip = GossipReputation::new(0, Arc::new(GossipPlane::new()));
/// let round = [(Party::Verifier(0), true), (Party::Verifier(1), false)];
/// assert_eq!(local.pool_verdicts(&round), gossip.pool_verdicts(&round));
/// assert_eq!(local.score(Party::Verifier(1)), gossip.score(Party::Verifier(1)));
/// ```
pub trait ReputationBackend: Send + Sync {
    /// Current score of a verifier in the published snapshot (unseen
    /// verifiers score [`INITIAL_SCORE`]). A read: no state changes.
    fn score(&self, verifier: Party) -> i64 {
        self.snapshot().score(verifier)
    }

    /// Returns `true` if the verifier is still trusted (above
    /// [`EXCLUSION_THRESHOLD`]).
    fn is_trusted(&self, verifier: Party) -> bool {
        self.score(verifier) > EXCLUSION_THRESHOLD
    }

    /// Closes one consult's panel vote by the shared close rule:
    /// `verdicts` are the answers `(verifier, accepted)`, `silent` the
    /// trusted panel members that never answered. The vote is decided
    /// against the whole panel, one vote each — adopt on more than half,
    /// reject when accept plus silent votes are at most half — and a
    /// decided vote moves each answering verifier's score toward the
    /// majority. An undecided vote returns `None` and changes nothing.
    /// Silent members are never charged: silence is not evidence.
    ///
    /// # Panics
    ///
    /// Panics if `verdicts` is empty.
    fn pool_panel(&self, verdicts: &[(Party, bool)], silent: &[Party]) -> Option<MajorityOutcome>;

    /// Pools a round in which every asked verifier answered:
    /// [`ReputationBackend::pool_panel`] with nobody silent, which always
    /// decides.
    ///
    /// # Panics
    ///
    /// Panics if `verdicts` is empty.
    fn pool_verdicts(&self, verdicts: &[(Party, bool)]) -> MajorityOutcome {
        self.pool_panel(verdicts, &[])
            .expect("a vote with nobody silent always decides")
    }

    /// The most recently published immutable score view.
    ///
    /// One short lock to clone the `Arc`; all subsequent reads off the
    /// returned snapshot are lock-free. Backends republish under their
    /// data lock at every mutation, so a snapshot never shows a
    /// half-applied round or half-merged gossip epoch.
    fn snapshot(&self) -> Arc<ReputationSnapshot>;
}

/// Process-local reputation bookkeeping — one mutex-guarded score table.
///
/// Scores start at [`INITIAL_SCORE`] and move by ±1 per pooled query
/// depending on agreement with the majority; verifiers at or below
/// [`EXCLUSION_THRESHOLD`] are excluded. This is the classic store the
/// single-bus [`crate::RationalityAuthority`] always used; it is also
/// each isolated shard's backend under
/// [`crate::ReputationPolicy::Isolated`]. Reads go through
/// [`ReputationBackend`].
///
/// The score table exists once, as the published snapshot. A decided
/// round updates it in place ([`Arc::make_mut`]), which copies the table
/// only while a reader still holds the previous snapshot, so a held view
/// never changes and an unheld one costs no copy.
#[derive(Debug, Default)]
pub struct LocalReputation {
    /// The scores, as the latest immutable view: every write runs under
    /// this lock and leaves a whole round published.
    snapshot: Mutex<Arc<ReputationSnapshot>>,
}

impl LocalReputation {
    /// Creates an empty store.
    pub fn new() -> LocalReputation {
        LocalReputation::default()
    }

    /// [`LocalReputation::new`]. The `rule` is ignored: [`VoteRule`] has
    /// one variant, and the argument stays only because the end-to-end
    /// benchmark package passes it.
    pub fn with_rule(_rule: VoteRule) -> LocalReputation {
        LocalReputation::new()
    }
}

impl ReputationBackend for LocalReputation {
    fn pool_panel(&self, verdicts: &[(Party, bool)], silent: &[Party]) -> Option<MajorityOutcome> {
        let outcome = pooled_outcome(verdicts, silent)?;
        let mut view = self.snapshot.lock().expect("reputation lock poisoned");
        // Each voter moves by its net agreement with the majority: +1 per
        // agreeing verdict, -1 per dissenting one.
        Arc::make_mut(&mut view).publish_round(verdicts, |voter, old| {
            let agreement: i64 = verdicts
                .iter()
                .filter(|&&(party, _)| party == voter)
                .map(|&(_, vote)| if vote == outcome.accepted { 1 } else { -1 })
                .sum();
            old + agreement
        });
        Some(outcome)
    }

    fn snapshot(&self) -> Arc<ReputationSnapshot> {
        Arc::clone(
            &self
                .snapshot
                .lock()
                .expect("reputation snapshot lock poisoned"),
        )
    }
}

/// A PN-counter: separate grow-only increment and decrement tallies whose
/// difference is the counter's value. Merging takes the componentwise
/// maximum, which is the state-based CRDT join — commutative, associative
/// and idempotent — provided each component is only ever advanced by its
/// owning replica.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PnCounter {
    /// Times the owning replica observed the verifier agree with the
    /// majority.
    pub increments: u64,
    /// Times the owning replica observed the verifier dissent.
    pub decrements: u64,
}

impl PnCounter {
    /// The counter's value: increments minus decrements.
    pub fn value(&self) -> i64 {
        self.increments as i64 - self.decrements as i64
    }

    /// CRDT join: componentwise maximum.
    pub fn merge(&mut self, other: &PnCounter) {
        self.increments = self.increments.max(other.increments);
        self.decrements = self.decrements.max(other.decrements);
    }
}

/// A replica-sharded, *generation-indexed* map of PN-counters: one
/// [`PnCounter`] per `(verifier, replica, generation)` coordinate, where a
/// replica is a shard of the engine and a generation is a gossip epoch
/// index.
///
/// Generations are what make decay merge-safe. A plain PN counter only
/// grows, so "multiply the value by ½" is not expressible as a lattice
/// join — two replicas decaying at different moments would never converge.
/// Segmenting observations by the (globally agreed, epoch-derived)
/// generation keeps every coordinate grow-only: each replica advances only
/// its own `(replica, generation)` cells, closed generations are
/// immutable, and [`DecayingPnCounterMap::merge`] (coordinatewise
/// [`PnCounter::merge`] plus a max of the generation cursors) remains a
/// join — commutative, associative and idempotent, property-tested in
/// `tests/proptests.rs`. Decay is then a pure *read-side* weighting:
/// [`DecayingPnCounterMap::decayed_value`] halves each generation's
/// contribution per generation of age under
/// [`ReputationDecay::HalfLife`], and [`ReputationDecay::None`] reads the
/// undecayed sum (exactly the pre-decay PN-counter semantics).
///
/// The map is kept in `BTreeMap`s so iteration — and therefore the wire
/// encoding used by [`Message::Gossip`] — is deterministic.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DecayingPnCounterMap {
    current_gen: u64,
    slots: BTreeMap<Party, BTreeMap<u64, BTreeMap<u64, PnCounter>>>,
}

impl DecayingPnCounterMap {
    /// Creates an empty map at generation 0.
    pub fn new() -> DecayingPnCounterMap {
        DecayingPnCounterMap::default()
    }

    /// The map's generation cursor: records land in this generation.
    pub fn current_generation(&self) -> u64 {
        self.current_gen
    }

    /// Records one observation made by `replica` about `verifier` in the
    /// current generation: `agreed` advances the increment tally, dissent
    /// the decrement tally.
    pub fn record(&mut self, replica: u64, verifier: Party, agreed: bool) {
        let slot = self
            .slots
            .entry(verifier)
            .or_default()
            .entry(replica)
            .or_default()
            .entry(self.current_gen)
            .or_default();
        if agreed {
            slot.increments += 1;
        } else {
            slot.decrements += 1;
        }
    }

    /// The counter at one `(verifier, replica, generation)` coordinate,
    /// or `None` if no slot exists there yet.
    pub fn get_counter(&self, replica: u64, verifier: Party, generation: u64) -> Option<PnCounter> {
        self.slots
            .get(&verifier)?
            .get(&replica)?
            .get(&generation)
            .copied()
    }

    /// Replaces the counter at one `(verifier, replica, generation)`
    /// coordinate. This exists for wire decoding and for tests; real
    /// replicas only ever advance their own coordinates through
    /// [`DecayingPnCounterMap::record`], which is what keeps the merge a
    /// CRDT join.
    pub fn set_counter(
        &mut self,
        replica: u64,
        verifier: Party,
        generation: u64,
        counter: PnCounter,
    ) {
        self.slots
            .entry(verifier)
            .or_default()
            .entry(replica)
            .or_default()
            .insert(generation, counter);
    }

    /// Sets the generation cursor (wire decoding; replicas advance through
    /// [`DecayingPnCounterMap::advance_to`]).
    pub fn set_generation(&mut self, generation: u64) {
        self.current_gen = generation;
    }

    /// Advances the generation cursor to `max(current, generation)` and,
    /// under [`ReputationDecay::HalfLife`], prunes generations old enough
    /// to contribute nothing. Replicas advance in lockstep at engine-wide
    /// epoch boundaries, so pruning is deterministic — and because
    /// [`DecayingPnCounterMap::decayed_value`] already ignores generations
    /// past retention, pruning never changes an observable score.
    pub fn advance_to(&mut self, generation: u64, decay: ReputationDecay) {
        self.current_gen = self.current_gen.max(generation);
        if let Some(keep_from) = retention_floor(self.current_gen, decay) {
            for replicas in self.slots.values_mut() {
                for gens in replicas.values_mut() {
                    gens.retain(|&g, _| g >= keep_from);
                }
            }
        }
    }

    /// CRDT join: coordinatewise componentwise maximum, plus a max of the
    /// generation cursors.
    pub fn merge(&mut self, other: &DecayingPnCounterMap) {
        self.current_gen = self.current_gen.max(other.current_gen);
        for (&verifier, replicas) in &other.slots {
            let own = self.slots.entry(verifier).or_default();
            for (&replica, gens) in replicas {
                let own_gens = own.entry(replica).or_default();
                for (&generation, counter) in gens {
                    own_gens.entry(generation).or_default().merge(counter);
                }
            }
        }
    }

    /// The verifier's undecayed global value: the sum of its counters
    /// across every replica and generation.
    pub fn value(&self, verifier: Party) -> i64 {
        self.decayed_value(verifier, ReputationDecay::None)
    }

    /// The verifier's global value under `decay`: per generation, the
    /// summed counter values across replicas, weighted by
    /// `1 / 2^(current_gen - generation)` (truncating division, so old
    /// single observations fade to exactly zero) and dropped entirely at
    /// `retention` generations of age.
    ///
    /// This runs for every registered verifier on each snapshot
    /// publication, so the undecayed read is a plain allocation-free sum;
    /// only the half-life read pays for a per-generation aggregation
    /// (truncating division does not distribute over addition, so
    /// generations must be summed before weighting).
    pub fn decayed_value(&self, verifier: Party, decay: ReputationDecay) -> i64 {
        let Some(replicas) = self.slots.get(&verifier) else {
            return 0;
        };
        let ReputationDecay::HalfLife { retention } = decay else {
            return replicas
                .values()
                .flat_map(BTreeMap::values)
                .map(PnCounter::value)
                .sum();
        };
        let mut by_generation: BTreeMap<u64, i64> = BTreeMap::new();
        for gens in replicas.values() {
            for (&generation, counter) in gens {
                *by_generation.entry(generation).or_insert(0) += counter.value();
            }
        }
        by_generation
            .iter()
            .map(|(&generation, &raw)| {
                let age = self.current_gen.saturating_sub(generation);
                if age >= u64::from(retention) || age >= 63 {
                    0
                } else {
                    raw / (1i64 << age)
                }
            })
            .sum()
    }

    /// Every verifier with at least one slot, sorted.
    pub fn verifiers(&self) -> Vec<Party> {
        self.slots.keys().copied().collect()
    }

    /// Number of `(verifier, replica, generation)` slots.
    pub fn len(&self) -> usize {
        self.slots
            .values()
            .flat_map(BTreeMap::values)
            .map(BTreeMap::len)
            .sum()
    }

    /// Returns `true` if no slot exists yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates every `(verifier, replica, generation, counter)` slot in
    /// sorted order (the wire-encoding order).
    pub fn iter_slots(&self) -> impl Iterator<Item = (Party, u64, u64, PnCounter)> + '_ {
        self.slots.iter().flat_map(|(&verifier, replicas)| {
            replicas.iter().flat_map(move |(&replica, gens)| {
                gens.iter()
                    .map(move |(&generation, &counter)| (verifier, replica, generation, counter))
            })
        })
    }

    /// The sub-map holding only `replica`'s own coordinates (every
    /// generation), carrying the same generation cursor — the delta a
    /// shard publishes at an epoch boundary. Bounded by the verifiers the
    /// shard has seen, not by the engine-wide merged state.
    pub fn replica_slice(&self, replica: u64) -> DecayingPnCounterMap {
        let mut out = DecayingPnCounterMap {
            current_gen: self.current_gen,
            slots: BTreeMap::new(),
        };
        for (&verifier, replicas) in &self.slots {
            if let Some(gens) = replicas.get(&replica) {
                out.slots
                    .entry(verifier)
                    .or_default()
                    .insert(replica, gens.clone());
            }
        }
        out
    }
}

/// The oldest generation still inside the retention window at
/// `generation` under `decay`, or `None` when nothing is ever pruned.
/// Shared by [`DecayingPnCounterMap::advance_to`] and the gossip hub's
/// slot-index pruning, so the merged state and the per-slot version index
/// can never desynchronize — versioned pulls are only sound if a slot is
/// pruned from both (or neither).
fn retention_floor(generation: u64, decay: ReputationDecay) -> Option<u64> {
    match decay {
        ReputationDecay::None => None,
        ReputationDecay::HalfLife { retention } => {
            Some(generation.saturating_sub(u64::from(retention).saturating_sub(1)))
        }
    }
}

/// A per-source version vector: source shard (replica id) → the highest
/// hub version of that replica's rows the holder has merged.
///
/// The gossip hub bumps a replica's version every time a publish actually
/// changes that replica's rows of the merged state, and remembers per
/// `(verifier, generation)` slot the version at which it last changed.
/// A shard pulling with its vector as a watermark therefore receives only
/// the slots it has not seen — the delta-state replication trick of the
/// delta-CRDT literature — instead of the hub's full merged snapshot, so
/// pull payloads are bounded by unseen updates rather than by
/// verifiers × shards × retained generations. An up-to-date shard pulls
/// for zero wire bytes: the hub sends no frame at all.
///
/// # Examples
///
/// ```
/// use ra_authority::VersionVector;
///
/// let mut seen = VersionVector::new();
/// assert_eq!(seen.get(3), 0, "never-seen sources are at version 0");
/// seen.set(3, 2);
/// let mut newer = VersionVector::new();
/// newer.set(3, 1);
/// newer.set(4, 7);
/// seen.merge(&newer);
/// assert_eq!(seen.get(3), 2, "merge is a pointwise max");
/// assert_eq!(seen.get(4), 7);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VersionVector {
    entries: BTreeMap<u64, u64>,
}

impl VersionVector {
    /// An empty vector: every source is at version 0.
    pub fn new() -> VersionVector {
        VersionVector::default()
    }

    /// The recorded version for `replica` (0 when never seen).
    pub fn get(&self, replica: u64) -> u64 {
        self.entries.get(&replica).copied().unwrap_or(0)
    }

    /// Sets the version for `replica`.
    pub fn set(&mut self, replica: u64, version: u64) {
        self.entries.insert(replica, version);
    }

    /// Pointwise maximum — the join of two vectors.
    pub fn merge(&mut self, other: &VersionVector) {
        for (&replica, &version) in &other.entries {
            let entry = self.entries.entry(replica).or_insert(0);
            *entry = (*entry).max(version);
        }
    }

    /// Iterates `(replica, version)` entries in replica order (the wire
    /// encoding order).
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.entries.iter().map(|(&r, &v)| (r, v))
    }

    /// Number of sources with a recorded version.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no source has a recorded version yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The hub side of the versioned gossip protocol: the merged CRDT state
/// plus the per-generation change index that lets pulls ship deltas.
#[derive(Debug, Default)]
struct HubState {
    merged: DecayingPnCounterMap,
    /// Per replica: the version of that replica's rows (bumped on every
    /// publish that changes them).
    versions: VersionVector,
    /// Per replica: `(verifier, generation)` → the version at which that
    /// slot of the merged state last changed.
    slot_versions: BTreeMap<u64, BTreeMap<(Party, u64), u64>>,
}

impl HubState {
    /// Joins `delta` into the merged state, bumping the version of every
    /// replica whose rows actually changed and indexing each changed slot
    /// under the new version. Re-delivering already-merged state changes
    /// nothing — including the versions, so idle re-publishes never make
    /// peers re-pull.
    fn ingest(&mut self, delta: &DecayingPnCounterMap) {
        let mut bumped: BTreeMap<u64, u64> = BTreeMap::new();
        for (verifier, replica, generation, counter) in delta.iter_slots() {
            let own = self.merged.get_counter(replica, verifier, generation);
            let mut joined = own.unwrap_or_default();
            joined.merge(&counter);
            if Some(joined) != own {
                self.merged
                    .set_counter(replica, verifier, generation, joined);
                let version = *bumped
                    .entry(replica)
                    .or_insert_with(|| self.versions.get(replica) + 1);
                self.slot_versions
                    .entry(replica)
                    .or_default()
                    .insert((verifier, generation), version);
            }
        }
        for (replica, version) in bumped {
            self.versions.set(replica, version);
        }
        if delta.current_generation() > self.merged.current_generation() {
            self.merged.set_generation(delta.current_generation());
        }
    }

    /// The slots `seen` has not merged yet, excluding `for_shard`'s own
    /// rows (the hub only ever knows a subset of what the shard itself
    /// holds, so shipping them back would be pure redundancy). The delta
    /// carries the hub's generation cursor.
    fn delta_since(&self, for_shard: u64, seen: &VersionVector) -> DecayingPnCounterMap {
        let mut out = DecayingPnCounterMap::new();
        out.set_generation(self.merged.current_generation());
        for (&replica, slots) in &self.slot_versions {
            if replica == for_shard {
                continue;
            }
            let watermark = seen.get(replica);
            if self.versions.get(replica) <= watermark {
                continue;
            }
            for (&(verifier, generation), &version) in slots {
                if version > watermark {
                    if let Some(counter) = self.merged.get_counter(replica, verifier, generation) {
                        out.set_counter(replica, verifier, generation, counter);
                    }
                }
            }
        }
        out
    }

    /// Prunes generations old enough to contribute nothing under `decay`
    /// from the merged state *and* the change index, so hub memory — and
    /// with it the worst-case pull — stays bounded by the retention
    /// window. Pruned slots are never shipped again; that is sound because
    /// [`DecayingPnCounterMap::decayed_value`] already ignores them.
    fn prune(&mut self, decay: ReputationDecay) {
        let generation = self.merged.current_generation();
        self.merged.advance_to(generation, decay);
        if let Some(keep_from) = retention_floor(generation, decay) {
            for slots in self.slot_versions.values_mut() {
                slots.retain(|&(_, g), _| g >= keep_from);
            }
        }
    }
}

/// The shared rendezvous of the gossip backends: the join of every state
/// published so far. Shards touch it only at epoch boundaries (publish /
/// pull), never on the consult hot path.
///
/// The plane owns a dedicated inter-shard transport (a
/// [`Bus`](crate::Bus) unless built with
/// [`GossipPlane::over_transport_with`]): every publish is a real framed
/// [`Message::Gossip`] send from `Party::Shard(s)` to [`GOSSIP_HUB`],
/// every pull a framed send back, so control-plane bytes land in the same
/// Lemma 1 accounting as consultation traffic (and are subject to the
/// same fault injection — a dropped frame is simply never merged).
///
/// Pulls are *versioned*: the hub indexes every merged slot by the
/// [`VersionVector`] version at which it last changed, and
/// [`GossipPlane::pull_into`] ships only the slots above the caller's
/// watermark — nothing at all when the caller is up to date. A pull reply
/// dropped by fault injection leaves the caller's watermark untouched, so
/// the missed delta is simply re-shipped by the next successful pull.
#[derive(Debug)]
pub struct GossipPlane {
    hub_state: Mutex<HubState>,
    decay: ReputationDecay,
    bus: Arc<dyn Transport>,
    hub: Mutex<Endpoint>,
    shard_endpoints: Mutex<HashMap<u64, Endpoint>>,
}

impl Default for GossipPlane {
    fn default() -> GossipPlane {
        GossipPlane::new()
    }
}

impl GossipPlane {
    /// Creates an empty plane over a fresh perfect [`Bus`](crate::Bus),
    /// with no decay.
    pub fn new() -> GossipPlane {
        GossipPlane::over_transport_with(ReputationDecay::None, Arc::new(crate::bus::Bus::new()))
    }

    /// Creates an empty plane whose merges travel over `transport`, a
    /// dedicated inter-shard network, as framed [`Message::Gossip`]
    /// sends: a [`Bus`](crate::Bus) for perfect delivery, or a
    /// [`crate::SimNet`] so gossip frames can be delayed, dropped, or cut
    /// off by a partition schedule like any other traffic.
    ///
    /// The plane knows the engine's decay policy and prunes aged-out
    /// generations from its merged state after every publish. Without
    /// this the hub — which only ever joins — would accumulate one
    /// generation per epoch forever, and the pull snapshots it frames onto
    /// the transport would grow without bound. Pruning only drops
    /// generations [`DecayingPnCounterMap::decayed_value`] already
    /// ignores, so no observable score changes.
    pub fn over_transport_with(
        decay: ReputationDecay,
        transport: Arc<dyn Transport>,
    ) -> GossipPlane {
        let hub = transport.register(GOSSIP_HUB);
        GossipPlane {
            hub_state: Mutex::new(HubState::default()),
            decay,
            bus: transport,
            hub: Mutex::new(hub),
            shard_endpoints: Mutex::new(HashMap::new()),
        }
    }

    /// The inter-shard gossip bus — byte accounting and fault injection
    /// for the control plane.
    pub fn gossip_bus(&self) -> &dyn Transport {
        &*self.bus
    }

    /// Registers `shard`'s endpoint on first use.
    fn ensure_shard(&self, shard: u64) {
        let mut endpoints = self
            .shard_endpoints
            .lock()
            .expect("gossip endpoints lock poisoned");
        endpoints
            .entry(shard)
            .or_insert_with(|| self.bus.register(Party::Shard(shard)));
    }

    /// Joins `delta` (normally a shard's
    /// [`DecayingPnCounterMap::replica_slice`], taken by value so the
    /// frame is delivered by move — no payload clone on the publish path)
    /// into the plane. The delta travels as a framed [`Message::Gossip`]
    /// from `Party::Shard(from_shard)` to [`GOSSIP_HUB`]; a frame dropped
    /// by fault injection is accounted but never merged.
    pub fn publish_from(&self, from_shard: u64, delta: DecayingPnCounterMap) {
        self.ensure_shard(from_shard);
        self.bus
            .send(
                Party::Shard(from_shard),
                GOSSIP_HUB,
                Message::Gossip {
                    delta,
                    versions: VersionVector::new(),
                },
            )
            .expect("gossip hub endpoint registered");
        // Land any latency-delayed frames before the hub drains (no-op on
        // the perfect bus).
        self.bus.settle();
        let endpoint = self.hub.lock().expect("gossip hub lock poisoned");
        let mut hub_state = self.hub_state.lock().expect("gossip plane lock poisoned");
        for (_, message) in endpoint.drain() {
            if let Message::Gossip { delta, .. } = message {
                hub_state.ingest(&delta);
            }
        }
        // Keep the hub state — and with it every future pull delta —
        // bounded under decay.
        hub_state.prune(self.decay);
    }

    /// Joins everything `seen` has not witnessed yet into `state`, and
    /// advances `seen` to the hub's current versions. The delta travels
    /// as a framed [`Message::Gossip`] from [`GOSSIP_HUB`] to
    /// `Party::Shard(to_shard)` — unless the caller is already up to
    /// date, in which case *no frame is sent at all*: an idle pull costs
    /// zero wire bytes instead of re-framing the full merged snapshot.
    pub fn pull_into(
        &self,
        to_shard: u64,
        state: &mut DecayingPnCounterMap,
        seen: &mut VersionVector,
    ) {
        let (delta, versions) = {
            let hub = self.hub_state.lock().expect("gossip plane lock poisoned");
            (hub.delta_since(to_shard, seen), hub.versions.clone())
        };
        self.ensure_shard(to_shard);
        if delta.is_empty() && delta.current_generation() <= state.current_generation() {
            // Nothing unseen — no slots, and the hub's generation cursor
            // is not ahead of the caller's — so no frame at all. An empty
            // delta proves every hub version is already covered (its
            // changes were merged earlier, pruned, or are the puller's own
            // rows), so the watermark still advances. (A cursor-only
            // advance still ships a slotless frame: decayed reads depend
            // on the local cursor, so it must propagate even when no
            // counter changed.)
            seen.merge(&versions);
            return;
        }
        self.bus
            .send(
                GOSSIP_HUB,
                Party::Shard(to_shard),
                Message::Gossip { delta, versions },
            )
            .expect("gossip shard endpoint registered");
        self.bus.settle();
        let endpoints = self
            .shard_endpoints
            .lock()
            .expect("gossip endpoints lock poisoned");
        let endpoint = endpoints
            .get(&to_shard)
            .expect("shard endpoint ensured above");
        // A frame dropped by fault injection never reaches the drain: the
        // state and the watermark both stay put, and the missed delta is
        // re-shipped on the next clean pull.
        for (_, message) in endpoint.drain() {
            if let Message::Gossip { delta, versions } = message {
                state.merge(&delta);
                seen.merge(&versions);
            }
        }
    }
}

/// A gossiping reputation backend: one per shard, all sharing a
/// [`GossipPlane`].
///
/// On the consult hot path ([`ReputationBackend::pool_panel`]) only
/// this shard's own mutex is taken; observations land in the shard's replica slots of a local
/// [`DecayingPnCounterMap`]. At epoch boundaries — every `every`
/// consultations when driven by [`crate::ShardedAuthority`], or on an
/// explicit [`GossipReputation::sync`] — the shard's own slice is
/// published to the plane and the plane's join is pulled back, so a
/// verifier voted out anywhere is excluded everywhere within one epoch. A
/// verifier's score is [`INITIAL_SCORE`] plus the (possibly decayed)
/// summed counter values across all replicas this shard has seen.
#[derive(Debug)]
pub struct GossipReputation {
    shard: u64,
    plane: Arc<GossipPlane>,
    decay: ReputationDecay,
    local: Mutex<DecayingPnCounterMap>,
    /// Versioned-pull watermark: the highest hub version of every peer
    /// replica's rows this shard has merged ([`GossipPlane::pull_into`]).
    seen: Mutex<VersionVector>,
    /// Latest immutable score view, published under the `local` lock:
    /// rebuilt after every epoch pull and generation advance, and updated
    /// in place for the voters of every pooled round.
    snapshot: Mutex<Arc<ReputationSnapshot>>,
}

impl GossipReputation {
    /// Creates the backend for `shard`, wired to the shared `plane`, with
    /// no decay.
    pub fn new(shard: u64, plane: Arc<GossipPlane>) -> GossipReputation {
        GossipReputation::with_config(shard, plane, VoteRule::Simple, ReputationDecay::None)
    }

    /// Creates the backend for `shard` with an explicit decay policy. The
    /// `rule` is ignored: [`VoteRule`] has one variant, and the argument
    /// stays only because the end-to-end benchmark package passes it.
    ///
    /// # Panics
    ///
    /// Panics on [`ReputationDecay::HalfLife`] with a zero retention — a
    /// zero-generation memory would silently zero every score.
    pub fn with_config(
        shard: u64,
        plane: Arc<GossipPlane>,
        _rule: VoteRule,
        decay: ReputationDecay,
    ) -> GossipReputation {
        if let ReputationDecay::HalfLife { retention } = decay {
            assert!(retention > 0, "decay retention must be positive");
        }
        GossipReputation {
            shard,
            plane,
            decay,
            local: Mutex::new(DecayingPnCounterMap::new()),
            seen: Mutex::new(VersionVector::new()),
            snapshot: Mutex::new(Arc::new(ReputationSnapshot::default())),
        }
    }

    /// Publishes a fresh snapshot of `local`. Callers hold the local lock,
    /// so a snapshot can only ever capture a fully applied round, fully
    /// merged epoch, or fully advanced generation — never the middle of
    /// one.
    fn republish(&self, local: &DecayingPnCounterMap) {
        let scores = local
            .verifiers()
            .into_iter()
            .map(|p| (p, INITIAL_SCORE + local.decayed_value(p, self.decay)))
            .collect();
        publish(&self.snapshot, scores);
    }

    /// Publishes this shard's own slice to the plane (first half of an
    /// epoch merge). The full slice is re-published every time — pushes
    /// are fire-and-forget, so the redundancy is what lets a push dropped
    /// by fault injection heal on the next epoch.
    pub fn push(&self) {
        let slice = {
            let local = self.local.lock().expect("gossip local lock poisoned");
            local.replica_slice(self.shard)
        };
        self.plane.publish_from(self.shard, slice);
    }

    /// Pulls everything this shard has not seen from the plane's join
    /// into its local state (second half of an epoch merge). Versioned: an
    /// up-to-date shard pulls for zero wire bytes.
    pub fn pull(&self) {
        let mut local = self.local.lock().expect("gossip local lock poisoned");
        let mut seen = self.seen.lock().expect("gossip watermark lock poisoned");
        self.plane.pull_into(self.shard, &mut local, &mut seen);
        self.republish(&local);
    }

    /// One-shard epoch merge: publish, then pull. Brings this shard up to
    /// date with everything published so far; for a barrier merge across
    /// all shards (everyone sees everyone), push all shards first and pull
    /// all shards second — [`crate::ShardedAuthority::sync_reputation`]
    /// does exactly that.
    pub fn sync(&self) {
        self.push();
        self.pull();
    }

    /// Advances this shard's generation cursor (new observations land in
    /// the new generation; old generations start decaying under
    /// [`ReputationDecay::HalfLife`]). Driven by
    /// [`crate::ShardedAuthority`] at engine-wide epoch boundaries so all
    /// shards advance in lockstep.
    pub fn advance_generation(&self, generation: u64) {
        let mut local = self.local.lock().expect("gossip local lock poisoned");
        local.advance_to(generation, self.decay);
        self.republish(&local);
    }

    /// The shard's current generation cursor.
    pub fn current_generation(&self) -> u64 {
        self.local
            .lock()
            .expect("gossip local lock poisoned")
            .current_generation()
    }
}

impl ReputationBackend for GossipReputation {
    fn pool_panel(&self, verdicts: &[(Party, bool)], silent: &[Party]) -> Option<MajorityOutcome> {
        let outcome = pooled_outcome(verdicts, silent)?;
        let mut local = self.local.lock().expect("gossip local lock poisoned");
        for &(verifier, vote) in verdicts {
            local.record(self.shard, verifier, vote == outcome.accepted);
        }
        // The round moved only the voters' counters, so only their scores
        // are rewritten, in place, still under the local lock.
        let mut view = self.snapshot.lock().expect("gossip snapshot lock poisoned");
        Arc::make_mut(&mut view).publish_round(verdicts, |voter, _| {
            INITIAL_SCORE + local.decayed_value(voter, self.decay)
        });
        Some(outcome)
    }

    fn snapshot(&self) -> Arc<ReputationSnapshot> {
        Arc::clone(&self.snapshot.lock().expect("gossip snapshot lock poisoned"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::Bus;

    fn v(i: u64) -> Party {
        Party::Verifier(i)
    }

    /// Verifiers `0..panel` that `backend` trusts, in id order.
    fn trusted(backend: &dyn ReputationBackend, panel: u64) -> Vec<Party> {
        (0..panel)
            .map(v)
            .filter(|&p| backend.is_trusted(p))
            .collect()
    }

    #[test]
    fn majority_decides_and_updates() {
        let store = LocalReputation::new();
        let outcome = store.pool_verdicts(&[(v(0), true), (v(1), true), (v(2), false)]);
        assert!(outcome.accepted);
        assert_eq!(outcome.accept_votes, 2);
        assert_eq!(outcome.dissenters, vec![v(2)]);
        assert_eq!(store.score(v(0)), INITIAL_SCORE + 1);
        assert_eq!(store.score(v(2)), INITIAL_SCORE - 1);
    }

    #[test]
    fn ties_reject() {
        let store = LocalReputation::new();
        let outcome = store.pool_verdicts(&[(v(0), true), (v(1), false)]);
        assert!(!outcome.accepted, "ties resolve to the safe side");
    }

    #[test]
    fn even_split_penalizes_accept_voters() {
        // A 2-2 tie rejects, so the accept voters are the dissenters and
        // lose a point while the reject voters gain one.
        let store = LocalReputation::new();
        let outcome =
            store.pool_verdicts(&[(v(0), true), (v(1), true), (v(2), false), (v(3), false)]);
        assert!(!outcome.accepted);
        assert_eq!(outcome.dissenters, vec![v(0), v(1)]);
        assert_eq!(store.score(v(0)), INITIAL_SCORE - 1);
        assert_eq!(store.score(v(1)), INITIAL_SCORE - 1);
        assert_eq!(store.score(v(2)), INITIAL_SCORE + 1);
        assert_eq!(store.score(v(3)), INITIAL_SCORE + 1);
    }

    #[test]
    fn persistent_deviants_get_excluded() {
        let store = LocalReputation::new();
        // Verifier 2 always disagrees with the honest majority.
        for _ in 0..INITIAL_SCORE {
            store.pool_verdicts(&[(v(0), true), (v(1), true), (v(2), false)]);
        }
        assert!(!store.is_trusted(v(2)));
        assert!(store.is_trusted(v(0)));
        assert_eq!(trusted(&store, 3), vec![v(0), v(1)]);
    }

    #[test]
    fn recovery_is_possible() {
        let store = LocalReputation::new();
        for _ in 0..3 {
            store.pool_verdicts(&[(v(0), true), (v(1), true), (v(2), false)]);
        }
        let before = store.score(v(2));
        for _ in 0..5 {
            store.pool_verdicts(&[(v(0), true), (v(1), true), (v(2), true)]);
        }
        assert!(store.score(v(2)) > before);
    }

    #[test]
    fn recovered_verifier_reappears_in_trusted_set() {
        let store = LocalReputation::new();
        // Drive verifier 2 to the exclusion threshold…
        for _ in 0..INITIAL_SCORE {
            store.pool_verdicts(&[(v(0), true), (v(1), true), (v(2), false)]);
        }
        assert_eq!(trusted(&store, 3), vec![v(0), v(1)]);
        // …then let it agree with the majority until it climbs back over.
        store.pool_verdicts(&[(v(0), true), (v(1), true), (v(2), true)]);
        assert!(store.is_trusted(v(2)));
        assert_eq!(trusted(&store, 3), vec![v(0), v(1), v(2)]);
    }

    #[test]
    #[should_panic(expected = "at least one verdict")]
    fn empty_pool_panics() {
        LocalReputation::new().pool_verdicts(&[]);
    }

    #[test]
    fn backends_agree_through_the_trait() {
        // The same verdict stream produces the same scores whether the
        // backend is local or a single-shard gossip instance.
        let local = LocalReputation::new();
        let gossip = GossipReputation::new(0, Arc::new(GossipPlane::new()));
        let rounds = [
            vec![(v(0), true), (v(1), true), (v(2), false)],
            vec![(v(0), false), (v(1), false), (v(2), false)],
            vec![(v(0), true), (v(1), false)],
        ];
        for round in &rounds {
            let a = ReputationBackend::pool_verdicts(&local, round);
            let b = gossip.pool_verdicts(round);
            assert_eq!(a, b);
        }
        for i in 0..3 {
            assert_eq!(
                ReputationBackend::score(&local, v(i)),
                gossip.score(v(i)),
                "verifier {i}"
            );
        }
        assert_eq!(trusted(&local, 3), trusted(&gossip, 3));
    }

    #[test]
    fn reads_have_no_side_effects() {
        // Reads of a verifier nobody has seen.
        fn read_unseen(backend: &dyn ReputationBackend) {
            assert_eq!(backend.score(v(7)), INITIAL_SCORE);
            assert!(backend.is_trusted(v(7)));
        }
        fn assert_reads_match_snapshot(backend: &dyn ReputationBackend) {
            let snapshot = backend.snapshot();
            for i in 0..8 {
                assert_eq!(backend.score(v(i)), snapshot.score(v(i)));
                assert_eq!(backend.is_trusted(v(i)), snapshot.is_trusted(v(i)));
            }
        }
        let round = [(v(0), true), (v(1), true), (v(2), false)];

        let local = |reads: bool| {
            let store = LocalReputation::new();
            store.pool_verdicts(&round);
            if reads {
                read_unseen(&store);
            }
            assert_reads_match_snapshot(&store);
            store.snapshot()
        };
        assert_eq!(local(false), local(true));

        let gossip = |reads: bool| {
            let plane = Arc::new(GossipPlane::new());
            let a = GossipReputation::new(0, Arc::clone(&plane));
            let b = GossipReputation::new(1, Arc::clone(&plane));
            a.pool_verdicts(&round);
            if reads {
                read_unseen(&b);
            }
            a.sync();
            b.sync();
            a.sync();
            assert_reads_match_snapshot(&a);
            assert_reads_match_snapshot(&b);
            let bus = plane.gossip_bus();
            (
                bus.total_bytes(),
                bus.message_count(),
                a.snapshot(),
                b.snapshot(),
            )
        };
        assert_eq!(gossip(false), gossip(true));
    }

    #[test]
    fn pn_counter_map_sums_across_replicas() {
        let mut map = DecayingPnCounterMap::new();
        map.record(0, v(7), false);
        map.record(1, v(7), false);
        map.record(2, v(7), true);
        assert_eq!(map.value(v(7)), -1);
        assert_eq!(map.verifiers(), vec![v(7)]);
        assert_eq!(map.len(), 3);
    }

    #[test]
    fn decayed_value_halves_per_generation() {
        let mut map = DecayingPnCounterMap::new();
        let decay = ReputationDecay::HalfLife { retention: 4 };
        for _ in 0..8 {
            map.record(0, v(1), false); // -8 in generation 0
        }
        assert_eq!(map.decayed_value(v(1), decay), -8);
        map.advance_to(1, decay);
        assert_eq!(map.decayed_value(v(1), decay), -4);
        map.advance_to(2, decay);
        assert_eq!(map.decayed_value(v(1), decay), -2);
        map.advance_to(3, decay);
        assert_eq!(map.decayed_value(v(1), decay), -1);
        // At retention the generation stops counting (and is pruned).
        map.advance_to(4, decay);
        assert_eq!(map.decayed_value(v(1), decay), 0);
        assert!(map.is_empty(), "pruned at retention");
        // Undecayed reads of the same data would have kept the full -8.
        let mut undecayed = DecayingPnCounterMap::new();
        for _ in 0..8 {
            undecayed.record(0, v(1), false);
        }
        undecayed.advance_to(4, ReputationDecay::None);
        assert_eq!(undecayed.value(v(1)), -8);
    }

    #[test]
    fn decay_forgives_single_ancient_dissent() {
        // A lone dissent decays to zero after one generation (truncating
        // division), so a single ancient mistake stops mattering.
        let decay = ReputationDecay::HalfLife { retention: 8 };
        let mut map = DecayingPnCounterMap::new();
        map.record(0, v(1), false);
        map.advance_to(1, decay);
        assert_eq!(map.decayed_value(v(1), decay), 0);
    }

    #[test]
    fn pruning_does_not_change_observable_value() {
        let decay = ReputationDecay::HalfLife { retention: 3 };
        let mut pruned = DecayingPnCounterMap::new();
        let mut unpruned = DecayingPnCounterMap::new();
        for gen in 0..6u64 {
            for _ in 0..4 {
                pruned.record(0, v(1), gen % 2 == 0);
                unpruned.record(0, v(1), gen % 2 == 0);
            }
            pruned.advance_to(gen + 1, decay);
            unpruned.advance_to(gen + 1, ReputationDecay::None);
            unpruned.set_generation(gen + 1);
            assert_eq!(
                pruned.decayed_value(v(1), decay),
                unpruned.decayed_value(v(1), decay),
                "generation {gen}"
            );
        }
        assert!(pruned.len() < unpruned.len(), "pruning reclaimed slots");
    }

    #[test]
    fn replica_slice_extracts_own_rows() {
        let mut map = DecayingPnCounterMap::new();
        map.record(0, v(1), true);
        map.record(1, v(1), false);
        map.record(0, v(2), false);
        let slice = map.replica_slice(0);
        assert_eq!(slice.len(), 2);
        assert_eq!(slice.value(v(1)), 1, "replica 1's dissent not included");
        assert_eq!(slice.value(v(2)), -1);
        assert_eq!(slice.current_generation(), map.current_generation());
    }

    #[test]
    fn gossip_exclusion_crosses_shards_after_sync() {
        let plane = Arc::new(GossipPlane::new());
        let a = GossipReputation::new(0, plane.clone());
        let b = GossipReputation::new(1, plane);
        // Verifier 2 dissents INITIAL times — all observed on shard 0.
        for _ in 0..INITIAL_SCORE {
            a.pool_verdicts(&[(v(0), true), (v(1), true), (v(2), false)]);
        }
        assert!(!a.is_trusted(v(2)), "observing shard excludes immediately");
        assert!(b.is_trusted(v(2)), "peer shard has not gossiped yet");
        a.push();
        b.pull();
        assert!(!b.is_trusted(v(2)), "one epoch propagates the exclusion");
        assert_eq!(trusted(&b, 3), vec![v(0), v(1)]);
    }

    #[test]
    fn gossip_sync_is_idempotent() {
        let plane = Arc::new(GossipPlane::new());
        let a = GossipReputation::new(0, plane.clone());
        let b = GossipReputation::new(1, plane);
        a.pool_verdicts(&[(v(0), true), (v(1), false)]);
        b.pool_verdicts(&[(v(0), true), (v(1), true)]);
        for _ in 0..3 {
            a.sync();
            b.sync();
        }
        let score_a = a.score(v(1));
        a.sync();
        assert_eq!(a.score(v(1)), score_a, "re-syncing changes nothing");
        assert_eq!(a.score(v(0)), b.score(v(0)));
        assert_eq!(a.score(v(1)), b.score(v(1)));
    }

    #[test]
    fn bus_carried_plane_reaches_the_same_state_and_accounts_bytes() {
        // The same observations through the default plane (a fresh
        // `Bus`) and one built over an explicit transport converge on
        // identical scores, and the gossip traffic is byte-accounted.
        let free = Arc::new(GossipPlane::new());
        // Per-pair sums are read off the delivery log.
        let framed = Arc::new(GossipPlane::over_transport_with(
            ReputationDecay::None,
            Arc::new(Bus::new().with_delivery_log()),
        ));
        let run = |plane: &Arc<GossipPlane>| {
            let a = GossipReputation::new(0, plane.clone());
            let b = GossipReputation::new(1, plane.clone());
            for _ in 0..4 {
                a.pool_verdicts(&[(v(0), true), (v(1), false)]);
                b.pool_verdicts(&[(v(0), true), (v(1), true)]);
            }
            a.push();
            b.push();
            a.pull();
            b.pull();
            (a.score(v(0)), a.score(v(1)), b.score(v(0)), b.score(v(1)))
        };
        assert_eq!(run(&free), run(&framed));
        let bus = framed.gossip_bus();
        assert_eq!(bus.message_count(), 4, "2 pushes + 2 pulls");
        assert!(bus.total_bytes() > 0, "gossip frames are byte-accounted");
        assert_eq!(
            bus.delivered_bytes(),
            bus.total_bytes(),
            "no faults injected: everything delivered"
        );
        // Per-pair accounting: shard 0's push went to the hub.
        assert!(bus.bytes_between(Party::Shard(0), GOSSIP_HUB) > 0);
        assert!(bus.bytes_between(GOSSIP_HUB, Party::Shard(0)) > 0);
    }

    #[test]
    fn dropped_gossip_frame_is_never_merged() {
        let plane = Arc::new(GossipPlane::over_transport_with(
            ReputationDecay::None,
            Arc::new(Bus::new()),
        ));
        let a = GossipReputation::new(0, plane.clone());
        let b = GossipReputation::new(1, plane.clone());
        for _ in 0..INITIAL_SCORE {
            a.pool_verdicts(&[(v(0), true), (v(1), true), (v(2), false)]);
        }
        // Pre-register shard 0's endpoint (first contact), then cut its
        // uplink to the hub: the push frame is accounted but dropped.
        a.push();
        let before_total = {
            let bus = plane.gossip_bus();
            bus.drop_link(Party::Shard(0), GOSSIP_HUB);
            bus.total_bytes()
        };
        // A fresh batch of dissents that never reaches the hub.
        a.pool_verdicts(&[(v(0), true), (v(1), true), (v(2), false)]);
        a.push();
        b.pull();
        let bus = plane.gossip_bus();
        assert!(bus.total_bytes() > before_total, "dropped frame accounted");
        assert!(
            bus.delivered_bytes() < bus.total_bytes(),
            "dropped frame excluded from delivered bytes"
        );
        // The pull b received reflects only the first (delivered) push.
        assert_eq!(b.score(v(2)), INITIAL_SCORE - INITIAL_SCORE);
    }

    #[test]
    fn cursor_only_advance_still_reaches_a_caught_up_puller() {
        // Shard A advances its decay generation with no new observations
        // and pushes; shard B is fully caught up on slots. B's pull must
        // still receive the new generation cursor (a slotless frame —
        // decayed reads depend on the local cursor).
        let decay = ReputationDecay::HalfLife { retention: 4 };
        let plane = Arc::new(GossipPlane::over_transport_with(
            decay,
            Arc::new(Bus::new().with_delivery_log()),
        ));
        let a = GossipReputation::with_config(0, plane.clone(), VoteRule::Simple, decay);
        let b = GossipReputation::with_config(1, plane.clone(), VoteRule::Simple, decay);
        for _ in 0..4 {
            a.pool_verdicts(&[(v(0), true), (v(1), true), (v(2), false)]);
        }
        a.push();
        b.pull();
        assert_eq!(b.score(v(2)), INITIAL_SCORE - 4, "b caught up on slots");
        // Cursor-only advance on a: generation moves, no counter changes.
        a.advance_generation(2);
        a.push();
        b.pull();
        assert_eq!(
            b.current_generation(),
            2,
            "the generation cursor must propagate even without new slots"
        );
        assert_eq!(
            b.score(v(2)),
            INITIAL_SCORE - 1,
            "b now decays the old dissents like a itself does"
        );
        // And once cursors agree, an idle pull is frameless again.
        let bus = plane.gossip_bus();
        let before = bus.bytes_between(GOSSIP_HUB, Party::Shard(1));
        assert!(before > 0, "the earlier pulls shipped frames");
        b.pull();
        assert_eq!(
            bus.bytes_between(GOSSIP_HUB, Party::Shard(1)),
            before,
            "caught-up pulls stay zero-byte"
        );
    }

    #[test]
    #[should_panic(expected = "decay retention must be positive")]
    fn zero_retention_rejected() {
        GossipReputation::with_config(
            0,
            Arc::new(GossipPlane::new()),
            VoteRule::Simple,
            ReputationDecay::HalfLife { retention: 0 },
        );
    }

    #[test]
    fn decaying_backend_forgives_after_enough_generations() {
        let plane = Arc::new(GossipPlane::new());
        let decay = ReputationDecay::HalfLife { retention: 4 };
        let backend = GossipReputation::with_config(0, plane, VoteRule::Simple, decay);
        for _ in 0..INITIAL_SCORE {
            backend.pool_verdicts(&[(v(0), true), (v(1), true), (v(2), false)]);
        }
        assert!(!backend.is_trusted(v(2)), "freshly excluded");
        // Four generations later the dissent has fully decayed away.
        for generation in 1..=4 {
            backend.advance_generation(generation);
        }
        assert!(
            backend.is_trusted(v(2)),
            "ancient dissent is forgiven under decay"
        );
        assert_eq!(backend.score(v(2)), INITIAL_SCORE);
    }

    #[test]
    fn snapshots_track_published_scores() {
        let store = LocalReputation::new();
        let empty = store.snapshot();
        assert!(empty.is_empty());
        assert_eq!(empty.version(), 0);
        assert_eq!(
            empty.score(v(7)),
            INITIAL_SCORE,
            "unseen defaults match live"
        );
        store.pool_verdicts(&[(v(0), true), (v(1), true), (v(2), false)]);
        let after = store.snapshot();
        assert_eq!(after.version(), 1);
        assert_eq!(after.len(), 3);
        for verifier in [v(0), v(1), v(2)] {
            assert_eq!(after.score(verifier), store.score(verifier));
            assert_eq!(after.is_trusted(verifier), store.is_trusted(verifier));
        }
        // The stale Arc is immutable: later rounds never reach into it.
        // The second round is a tie, which rejects — so v2's reject vote
        // now agrees with the majority and wins its point back.
        store.pool_verdicts(&[(v(2), false), (v(0), true)]);
        assert_eq!(after.score(v(2)), INITIAL_SCORE - 1, "stale view unchanged");
        assert_eq!(store.snapshot().score(v(2)), INITIAL_SCORE);
    }

    #[test]
    fn silent_members_leave_a_close_vote_undecided_and_are_never_charged() {
        let plane = Arc::new(GossipPlane::new());
        let backends: [Box<dyn ReputationBackend>; 2] = [
            Box::new(LocalReputation::new()),
            Box::new(GossipReputation::new(0, plane)),
        ];
        for store in backends {
            // W = 5: 2 accepts against 1 reject with 2 silent could go
            // either way, so nothing is decided and nothing moves.
            let version = store.snapshot().version();
            let round = [(v(0), true), (v(1), true), (v(2), false)];
            assert_eq!(store.pool_panel(&round, &[v(3), v(4)]), None);
            assert_eq!(store.snapshot().version(), version);
            assert_eq!(store.score(v(0)), INITIAL_SCORE);
            // 3 of 5 accept: a majority of the whole panel adopts, and
            // the silent pair keeps its score.
            let round = [(v(0), true), (v(1), true), (v(2), true)];
            let outcome = store.pool_panel(&round, &[v(3), v(4)]).unwrap();
            assert!(outcome.accepted);
            assert_eq!(store.score(v(3)), INITIAL_SCORE);
            // Accept plus silent weight at most half rejects.
            let round = [(v(0), false), (v(1), false), (v(2), true)];
            let outcome = store.pool_panel(&round, &[v(3)]).unwrap();
            assert!(!outcome.accepted);
            assert_eq!(outcome.dissenters, vec![v(2)]);
            assert_eq!(store.score(v(3)), INITIAL_SCORE);
        }
        // One vote each: one silent member cannot swing a 3:1 vote.
        let round = [(v(2), true), (v(3), true), (v(4), true), (v(5), false)];
        let simple = LocalReputation::new();
        assert!(simple.pool_panel(&round, &[v(0)]).unwrap().accepted);
    }

    #[test]
    fn gossip_snapshot_includes_merged_epochs() {
        let plane = Arc::new(GossipPlane::new());
        let a = GossipReputation::new(0, Arc::clone(&plane));
        let b = GossipReputation::new(1, Arc::clone(&plane));
        for _ in 0..3 {
            a.pool_verdicts(&[(v(0), true), (v(1), true), (v(2), false)]);
        }
        let b_before = b.snapshot();
        assert_eq!(
            b_before.score(v(2)),
            INITIAL_SCORE,
            "b has not merged a's epoch yet"
        );
        a.push();
        b.pull();
        let b_after = b.snapshot();
        assert_eq!(b_after.score(v(2)), INITIAL_SCORE - 3, "pull republishes");
        assert_eq!(
            b_before.score(v(2)),
            INITIAL_SCORE,
            "the pre-pull snapshot is unchanged by the merge"
        );
        assert!(b_after.version() > b_before.version());
    }

    #[test]
    fn concurrent_snapshots_never_observe_a_half_merged_epoch() {
        // Every round is the tie `[(v0, true), (v1, false)]`, which
        // rejects: v0 loses a point, v1 gains one. So for any view built
        // from WHOLE rounds — however many — the two scores always sum to
        // 2 * INITIAL_SCORE. A snapshot cut mid-round or mid-merge would
        // break that invariant; this hammers snapshot reads against a
        // writer applying rounds and epoch merges and checks the sum on
        // every read.
        use std::sync::atomic::{AtomicBool, Ordering};
        let plane = Arc::new(GossipPlane::new());
        let writer_backend = Arc::new(GossipReputation::new(0, Arc::clone(&plane)));
        let reader_backend = Arc::clone(&writer_backend);
        let done = Arc::new(AtomicBool::new(false));
        let writer_done = Arc::clone(&done);
        let writer = std::thread::spawn(move || {
            for round in 0..200u64 {
                writer_backend.pool_verdicts(&[(v(0), true), (v(1), false)]);
                if round % 16 == 0 {
                    writer_backend.sync();
                }
            }
            writer_done.store(true, Ordering::SeqCst);
        });
        let mut last_version = 0u64;
        loop {
            // Read the flag before the snapshot so the final iteration is
            // guaranteed to validate the writer's finished state.
            let finished = done.load(Ordering::SeqCst);
            let snap = reader_backend.snapshot();
            if !snap.is_empty() {
                assert_eq!(
                    snap.score(v(0)) + snap.score(v(1)),
                    2 * INITIAL_SCORE,
                    "snapshot v{} shows a torn round or half-merged epoch",
                    snap.version()
                );
                assert!(snap.version() >= last_version, "versions are monotone");
                last_version = snap.version();
            }
            if finished {
                break;
            }
        }
        writer.join().unwrap();
        let final_snap = reader_backend.snapshot();
        assert_eq!(final_snap.score(v(0)), INITIAL_SCORE - 200);
        assert_eq!(final_snap.score(v(1)), INITIAL_SCORE + 200);
    }

    /// One round of a random verdict stream over verifiers `0..4`. `bits`
    /// picks the majority's direction, an honest verifier that sits the
    /// round out (absent or silent), each honest verifier's rare slip
    /// once the deviant has turned, a repeated verdict, and — for the
    /// gossip backend — a generation advance. The `deviant` dissents
    /// alone before round `turn` and agrees after it, so long streams
    /// exclude it and then readmit it.
    fn stream_round(
        bits: u64,
        round: usize,
        deviant: u64,
        turn: usize,
    ) -> (Vec<(Party, bool)>, Vec<Party>) {
        let majority = bits & 1 == 1;
        let sitter = (bits >> 1) & 3;
        let sits_out = (bits >> 3) & 3 == 0 && sitter != deviant;
        let mut verdicts = Vec::new();
        let mut silent = Vec::new();
        for i in 0..4u64 {
            if sits_out && i == sitter {
                if bits & (1 << 5) != 0 {
                    silent.push(v(i));
                }
                continue;
            }
            let vote = if i == deviant {
                majority != (round < turn)
            } else {
                let slip = round >= turn && (bits >> (8 + 4 * i)) & 15 == 15;
                majority != slip
            };
            verdicts.push((v(i), vote));
        }
        if (bits >> 24) & 15 == 0 {
            verdicts.push(verdicts[0]);
        }
        (verdicts, silent)
    }

    proptest::proptest! {
        /// Publishing a round in place equals the old full publish —
        /// clone and compare the whole maps for the local store, rebuild
        /// from the CRDT state for the gossip backend — in every score,
        /// `version` and `panel_version`, and a snapshot held across later
        /// rounds never changes.
        #[test]
        fn in_place_publish_matches_the_full_publish(
            mut stream in proptest::arbitrary::any::<u64>(),
            rounds in 20usize..120,
            deviant in 0u64..4,
            turn in 24usize..36,
            decaying in proptest::arbitrary::any::<bool>(),
        ) {
            let decay = if decaying {
                ReputationDecay::HalfLife { retention: 3 }
            } else {
                ReputationDecay::None
            };
            let local = LocalReputation::new();
            let plane = Arc::new(GossipPlane::new());
            let gossip = GossipReputation::with_config(0, plane, VoteRule::Simple, decay);
            let local_ref = Mutex::new(Arc::new(ReputationSnapshot::default()));
            let gossip_ref = Mutex::new(Arc::new(ReputationSnapshot::default()));
            let mut local_scores: HashMap<Party, i64> = HashMap::new();
            let mut held = Vec::new();
            let mut panel_moves = 0;
            for round in 0..rounds {
                let bits = rand::splitmix64(&mut stream);
                let (verdicts, silent) = stream_round(bits, round, deviant, turn);
                if let Some(outcome) = local.pool_panel(&verdicts, &silent) {
                    for &(verifier, vote) in &verdicts {
                        *local_scores.entry(verifier).or_insert(INITIAL_SCORE) +=
                            if vote == outcome.accepted { 1 } else { -1 };
                    }
                    publish(&local_ref, local_scores.clone());
                }
                let rebuilt = || {
                    let state = gossip.local.lock().unwrap();
                    state
                        .verifiers()
                        .into_iter()
                        .map(|p| (p, INITIAL_SCORE + state.decayed_value(p, decay)))
                        .collect()
                };
                if gossip.pool_panel(&verdicts, &silent).is_some() {
                    publish(&gossip_ref, rebuilt());
                }
                if (bits >> 28) & 15 == 0 {
                    gossip.advance_generation(round as u64);
                    publish(&gossip_ref, rebuilt());
                }
                let (local_now, gossip_now) = (local.snapshot(), gossip.snapshot());
                proptest::prop_assert_eq!(&*local_now, &**local_ref.lock().unwrap());
                proptest::prop_assert_eq!(&*gossip_now, &**gossip_ref.lock().unwrap());
                panel_moves = local_now.panel_version() + gossip_now.panel_version();
                if round % 7 == 0 {
                    held.push(((*local_now).clone(), local_now));
                    held.push(((*gossip_now).clone(), gossip_now));
                }
            }
            for (copy, view) in &held {
                proptest::prop_assert_eq!(copy, &**view);
            }
            // Long streams exclude the deviant and readmit it.
            if rounds >= 2 * turn + 24 {
                proptest::prop_assert!(panel_moves >= 2, "panel moved {panel_moves} times");
            }
        }
    }
}
