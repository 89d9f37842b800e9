//! Protocol messages of the rationality authority, with exact wire
//! encodings.
//!
//! The flows mirror Fig. 1 of the paper: an agent requests advice, the
//! inventor sends advice-with-proof; agents fetch verification procedures
//! from verifiers (modelled as verdict requests/responses since procedures
//! are code); shards gossip reputation. Every payload —
//! including recursive §3 proof trees — encodes to real bytes so the bus
//! can account for communication exactly.
//!
//! Each tagged enum's and plain struct's format is one row list in the
//! [`wire_codec!`] block below: its tags and field order appear once,
//! and both directions are generated from them. The §3 proof trees
//! (`Term`, `Prop`, `Proof`) are declared `recursive`, so the decoding
//! cursor caps their depth. The impls written by hand after the block
//! are the formats that state a rule a table cannot: a slice encoder on
//! the hot path, a validated value, a size cap and digest preimage, one
//! flat tag space over a nested enum, and a strictly ordered gossip map.

use ra_exact::{Matrix, Rational};
use ra_games::{BimatrixGame, MixedStrategy, StrategicGame, StrategyProfile};
use ra_proofs::kernel::{NotAboveWitness, ProfileVerdict, Proof, Prop, Term};
use ra_proofs::{OnlineAdviceCertificate, P2Advice, ParticipationCertificate, SupportCertificate};
use ra_solvers::{EquilibriumRoot, ParticipationParams};

use std::sync::Arc;

use crate::inventor::GameSpec;
use crate::reputation::{DecayingPnCounterMap, PnCounter, VersionVector};
use crate::verifier::VerdictReason;
use crate::wire::{get_len_prefix, get_varint, put_varint, wire_codec, Wire, WireBytes, WireError};

/// Identity of a protocol party.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Party {
    /// A game inventor.
    Inventor(u64),
    /// A participating agent.
    Agent(u64),
    /// A verification-procedure provider.
    Verifier(u64),
    /// A shard's control-plane endpoint on the inter-shard gossip bus
    /// (reputation merges travel as [`Message::Gossip`] frames between
    /// these identities and [`crate::GOSSIP_HUB`]).
    Shard(u64),
}

impl std::fmt::Display for Party {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Party::Inventor(i) => write!(f, "inventor-{i}"),
            Party::Agent(i) => write!(f, "agent-{i}"),
            Party::Verifier(i) => write!(f, "verifier-{i}"),
            Party::Shard(i) => write!(f, "shard-{i}"),
        }
    }
}

/// Advice payloads, one per case-study certificate family. Each carries
/// only what the inventor adds: every party to a consult holds its
/// [`GameSpec`], and the checkers take the game from there.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Advice {
    /// §3: a kernel proof whose root claims an equilibrium (`NashIntro`,
    /// `MaxNashIntro` or `MinNashIntro`). The proof is the whole advice:
    /// the advised profile is the root's ([`Proof::equilibrium_profile`]),
    /// and [`kernel_check`](crate::kernel_check) rejects any other root.
    PureNash(Proof),
    /// §4 P1: the two supports.
    Support(SupportCertificate),
    /// §4 P2: the agent's own data plus λ values.
    Private(P2Advice),
    /// §5: the participation probability.
    Participation(ParticipationCertificate),
    /// §6: online link advice with its equilibrium assignment.
    Online(OnlineAdviceCertificate),
}

/// A protocol message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Message {
    /// Agent → inventor: request advice for a game.
    AdviceRequest {
        /// Which game.
        game_id: u64,
    },
    /// Inventor → agent: advice plus proof.
    AdviceWithProof {
        /// Which game.
        game_id: u64,
        /// The advice payload.
        advice: Box<Advice>,
    },
    /// Agent → verifier: please check this advice. The payload is shared
    /// (`Arc`) because one consultation fans the *same* advice out to the
    /// whole verifier panel: each frame costs a reference-count bump
    /// instead of a deep clone of the proof tree, while the wire encoding
    /// is identical to an owned payload.
    VerdictRequest {
        /// Which game.
        game_id: u64,
        /// The advice to check.
        advice: Arc<Advice>,
    },
    /// Verifier → agent: verdict. Encodes as the tag, the `game_id`
    /// varint, the `accepted` byte and one reason byte. The decoder does
    /// not check that `accepted` agrees with `detail`: a Byzantine
    /// verifier may send any pair, and judging it is the agent's job.
    Verdict {
        /// Which game.
        game_id: u64,
        /// Accept or reject.
        accepted: bool,
        /// Which checker answered, or why none could. It carries no
        /// payload: whatever a checker derives is deterministic in the
        /// `(spec, advice)` pair the agent already holds.
        detail: VerdictReason,
    },
    /// Agent → inventor (P2): "is this pure strategy in my opponent's
    /// support?" — the Fig. 4 oracle query.
    SupportQuery {
        /// Which game.
        game_id: u64,
        /// The queried strategy index.
        index: usize,
    },
    /// Inventor → agent (P2): the one-bit oracle answer.
    SupportAnswer {
        /// Which game.
        game_id: u64,
        /// The queried strategy index.
        index: usize,
        /// Membership bit.
        in_support: bool,
    },
    /// Shard ↔ gossip hub: one reputation-plane merge frame. Pushes carry
    /// a shard's own PN-counter slice to [`crate::GOSSIP_HUB`]; pulls
    /// carry only the slots above the puller's [`VersionVector`]
    /// watermark back (the hub's versions ride along so the puller can
    /// advance its watermark). The sender's identity rides the bus
    /// envelope (every delivery is `(from, message)`), so the frame is
    /// just the payload. Framing these as real bus sends is what puts the
    /// control plane inside the Lemma 1 byte accounting.
    Gossip {
        /// The PN-counter delta being merged.
        delta: DecayingPnCounterMap,
        /// The sender's per-replica versions: the hub's current versions
        /// on a pull (the puller's new watermark), empty on a push.
        versions: VersionVector,
    },
    /// A retry envelope around another protocol message.
    ///
    /// A consult's first attempt at each hop travels bare: every Fig. 1
    /// message already carries its `game_id`, which identifies the
    /// session, and receivers read a bare frame as attempt 0. Retries
    /// (`attempt ≥ 1`) and the replies they provoke ship inside this
    /// frame, so receivers can dedup them idempotently: `session` is the
    /// consultation (the game id, unique per authority) and `attempt` the
    /// 0-based retransmission sequence number for this hop. Replies echo
    /// the request's `attempt`, so the ledger classifies both directions
    /// of a retry as retransmit bytes ([`Message::is_retransmit`]). The
    /// envelope never nests: `inner` holding another `Resilient` frame is
    /// a decode error, rejected before recursing.
    Resilient {
        /// Consultation id the frame belongs to.
        session: u64,
        /// 0-based retransmission sequence number; 0 is the first try.
        attempt: u32,
        /// The wrapped protocol message.
        inner: Box<Message>,
    },
}

impl Message {
    /// Whether this frame is a retransmission (a resilient envelope with
    /// a non-zero attempt number, or a reply echoing one). Transports
    /// call this at their accounting sites to split retransmit bytes from
    /// goodput; every non-enveloped message is goodput by definition.
    pub fn is_retransmit(&self) -> bool {
        matches!(self, Message::Resilient { attempt, .. } if *attempt > 0)
    }
}

/// The wire tag of [`Message::Resilient`], which its decoder also peeks
/// for to refuse a nested envelope.
const RESILIENT_TAG: u8 = 9;

wire_codec! {
    enum Party {
        0 => Inventor(id),
        1 => Agent(id),
        2 => Verifier(id),
        3 => Shard(id),
    }

    recursive enum Term {
        0 => Const(value),
        1 => Utility { agent, profile },
        2 => Add(a, b),
        3 => Sub(a, b),
        4 => Mul(a, b),
    }

    recursive enum Prop {
        0 => Le(a, b),
        1 => Lt(a, b),
        2 => Eq(a, b),
        3 => IsStrat(s),
        4 => EqStrat(a, b),
        5 => LeStrat(a, b),
        6 => NoComp(a, b),
        7 => IsNash(s),
        8 => NotNash(s),
        9 => IsMaxNash(s),
        10 => IsMinNash(s),
        11 => And(ps),
        12 => Or(ps),
    }

    recursive enum Proof {
        0 => EvalAtom(p),
        1 => AndIntro(ps),
        2 => OrIntro { disjuncts, index, witness },
        3 => NashIntro { profile },
        4 => NashRefute { profile, agent, strategy },
        5 => MaxNashIntro { profile, nash, classification },
        6 => MinNashIntro { profile, nash, classification },
    }

    enum EquilibriumRoot {
        0 => Exact(p),
        1 => Bracket { lo, hi },
    }

    enum Advice {
        0 => PureNash(proof),
        1 => Support(c),
        2 => Private(a),
        3 => Participation(c),
        4 => Online(c),
    }

    struct SupportCertificate { row_support, col_support }
    struct P2Advice { own_strategy, lambda_own, lambda_opp }
    struct ParticipationCertificate { root }
    struct OnlineAdviceCertificate { assignment, suggested_link }

    // The preimage of `crate::cache::spec_digest`, so identical specs
    // must encode to identical bytes. The strategic tag also starts the
    // preimage of `StrategicGame::spec_digest`.
    enum GameSpec {
        (StrategicGame::SPEC_TAG) => Strategic(game),
        1 => Bimatrix(game),
        2 => Participation(params),
        3 => ParallelLinks {
            current_loads,
            own_load,
            expected_future_load,
            expected_future_agents,
        },
    }

    // Tags 0 and 5 are retired and decode as bad tags.
    enum Message {
        1 => AdviceRequest { game_id },
        2 => AdviceWithProof { game_id, advice },
        3 => VerdictRequest { game_id, advice },
        4 => Verdict { game_id, accepted, detail },
        6 => SupportQuery { game_id, index },
        7 => SupportAnswer { game_id, index, in_support },
        8 => Gossip { delta, versions },
        (RESILIENT_TAG) => Resilient { session, attempt, inner = unnested_inner },
    }

    struct PnCounter { increments, decrements }
}

/// The message inside a [`Message::Resilient`] envelope. A nested
/// envelope is refused *before* recursing, so a hostile byte chain of
/// repeated envelope tags fails with a decode error, not a stack overflow.
fn unnested_inner(buf: &mut WireBytes) -> Result<Box<Message>, WireError> {
    match buf.peek_u8() {
        Some(RESILIENT_TAG) => Err(WireError::Malformed(
            "nested resilient envelope".to_string(),
        )),
        _ => Wire::decode(buf),
    }
}

impl Wire for StrategyProfile {
    fn encode(&self, buf: &mut Vec<u8>) {
        // Byte-identical to encoding `strategies().to_vec()`, without the
        // intermediate clone (this runs on the consult hot path for every
        // advice frame).
        let strategies = self.strategies();
        put_varint(buf, strategies.len() as u64);
        for strategy in strategies {
            strategy.encode(buf);
        }
    }
    fn decode(buf: &mut WireBytes) -> Result<StrategyProfile, WireError> {
        Ok(StrategyProfile::new(Vec::<usize>::decode(buf)?))
    }
}

impl Wire for MixedStrategy {
    fn encode(&self, buf: &mut Vec<u8>) {
        // As with `StrategyProfile`: the slice encodes directly, skipping
        // the `to_vec` clone of every probability.
        let probs = self.probs();
        put_varint(buf, probs.len() as u64);
        for prob in probs {
            prob.encode(buf);
        }
    }
    fn decode(buf: &mut WireBytes) -> Result<MixedStrategy, WireError> {
        let probs = Vec::<Rational>::decode(buf)?;
        MixedStrategy::try_new(probs)
            .map_err(|e| WireError::Malformed(format!("mixed strategy: {e}")))
    }
}

/// One flat tag space over the nested enum: `0` is `NotNash`, and `1`
/// and `2` are the two `NotStrictlyBetter` witnesses.
impl Wire for ProfileVerdict {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            ProfileVerdict::NotNash { agent, strategy } => {
                buf.push(0);
                agent.encode(buf);
                strategy.encode(buf);
            }
            ProfileVerdict::NotStrictlyBetter(NotAboveWitness::PrefersCandidate { agent }) => {
                buf.push(1);
                agent.encode(buf);
            }
            ProfileVerdict::NotStrictlyBetter(NotAboveWitness::LeCandidate) => {
                buf.push(2);
            }
        }
    }
    fn decode(buf: &mut WireBytes) -> Result<ProfileVerdict, WireError> {
        Ok(match buf.get_u8()? {
            0 => ProfileVerdict::NotNash {
                agent: usize::decode(buf)?,
                strategy: usize::decode(buf)?,
            },
            1 => ProfileVerdict::NotStrictlyBetter(NotAboveWitness::PrefersCandidate {
                agent: usize::decode(buf)?,
            }),
            2 => ProfileVerdict::NotStrictlyBetter(NotAboveWitness::LeCandidate),
            t => return Err(WireError::BadTag(t)),
        })
    }
}

/// One byte: the reason's index in [`VerdictReason::ALL`].
impl Wire for VerdictReason {
    fn encode(&self, buf: &mut Vec<u8>) {
        let index = VerdictReason::ALL.iter().position(|r| r == self);
        buf.push(index.expect("ALL lists every reason") as u8);
    }
    fn decode(buf: &mut WireBytes) -> Result<VerdictReason, WireError> {
        let code = buf.get_u8()?;
        let reason = VerdictReason::ALL.get(usize::from(code));
        reason.copied().ok_or(WireError::BadTag(code))
    }
}

/// A gossip map's encoder writes each key once, in order, so a frame
/// whose keys are not strictly increasing would decode to a value that
/// re-encodes to other bytes. Its decoder refuses it with this error.
fn keys_out_of_order() -> WireError {
    WireError::Malformed("gossip keys not strictly increasing".to_owned())
}

impl Wire for DecayingPnCounterMap {
    /// Generation cursor, then a flat length-prefixed sequence of
    /// `(verifier, replica, generation, counter)` slots in sorted order
    /// (the map's `BTreeMap` backing makes the encoding deterministic, so
    /// gossip byte counts are reproducible).
    fn encode(&self, buf: &mut Vec<u8>) {
        put_varint(buf, self.current_generation());
        put_varint(buf, self.len() as u64);
        for (verifier, replica, generation, counter) in self.iter_slots() {
            verifier.encode(buf);
            put_varint(buf, replica);
            put_varint(buf, generation);
            counter.encode(buf);
        }
    }
    fn decode(buf: &mut WireBytes) -> Result<DecayingPnCounterMap, WireError> {
        let mut map = DecayingPnCounterMap::new();
        map.set_generation(get_varint(buf)?);
        let mut last = None;
        for _ in 0..get_len_prefix(buf)? {
            let key = (Party::decode(buf)?, get_varint(buf)?, get_varint(buf)?);
            if last >= Some(key) {
                return Err(keys_out_of_order());
            }
            last = Some(key);
            let (verifier, replica, generation) = key;
            map.set_counter(replica, verifier, generation, PnCounter::decode(buf)?);
        }
        Ok(map)
    }
}

impl Wire for VersionVector {
    /// Length-prefixed `(replica, version)` varint pairs in replica order
    /// (deterministic, like every gossip encoding, so control-plane byte
    /// counts are reproducible).
    fn encode(&self, buf: &mut Vec<u8>) {
        put_varint(buf, self.len() as u64);
        for (replica, version) in self.iter() {
            put_varint(buf, replica);
            put_varint(buf, version);
        }
    }
    fn decode(buf: &mut WireBytes) -> Result<VersionVector, WireError> {
        let mut out = VersionVector::new();
        let mut last = None;
        for _ in 0..get_len_prefix(buf)? {
            let replica = get_varint(buf)?;
            if last >= Some(replica) {
                return Err(keys_out_of_order());
            }
            last = Some(replica);
            out.set(replica, get_varint(buf)?);
        }
        Ok(out)
    }
}

impl Wire for ParticipationParams {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.n.encode(buf);
        self.k.encode(buf);
        self.v.encode(buf);
        self.c.encode(buf);
    }
    fn decode(buf: &mut WireBytes) -> Result<ParticipationParams, WireError> {
        let n = u64::decode(buf)?;
        let k = u64::decode(buf)?;
        let v = Rational::decode(buf)?;
        let c = Rational::decode(buf)?;
        ParticipationParams::new(n, k, v, c).map_err(|e| WireError::Malformed(e.to_string()))
    }
}

impl Wire for StrategicGame {
    /// Strategy counts, then every profile's per-agent payoff vector in
    /// odometer order; see [`StrategicGame::encode_canonical`]. Equal games
    /// encode to equal bytes.
    fn encode(&self, buf: &mut Vec<u8>) {
        self.encode_canonical(buf);
    }
    fn decode(buf: &mut WireBytes) -> Result<StrategicGame, WireError> {
        let agents = get_len_prefix(buf)?;
        if agents == 0 {
            return Err(WireError::Malformed(
                "strategic game with zero agents".to_owned(),
            ));
        }
        let mut counts = Vec::with_capacity(agents.min(64));
        for _ in 0..agents {
            let count = get_varint(buf)? as usize;
            if count == 0 {
                return Err(WireError::Malformed(
                    "agent with zero strategies".to_owned(),
                ));
            }
            counts.push(count);
        }
        // One utility per agent per profile, read straight into the flat
        // table. Every rational takes at least two bytes, so a frame can
        // only reserve room it could fill.
        let entries = counts
            .iter()
            .try_fold(1usize, |acc, &c| acc.checked_mul(c))
            .filter(|&total| total <= 1 << 20)
            .and_then(|profiles| profiles.checked_mul(agents))
            .ok_or(WireError::Malformed("profile space too large".to_owned()))?;
        let mut table = Vec::with_capacity(entries.min(buf.len() / 2));
        for _ in 0..entries {
            table.push(Rational::decode(buf)?);
        }
        Ok(StrategicGame::from_payoff_table(counts, table))
    }
}

impl Wire for BimatrixGame {
    /// Row/column counts, then the `A` matrix row-major, then `B`.
    fn encode(&self, buf: &mut Vec<u8>) {
        put_varint(buf, self.rows() as u64);
        put_varint(buf, self.cols() as u64);
        for i in 0..self.rows() {
            for j in 0..self.cols() {
                self.a(i, j).encode(buf);
            }
        }
        for i in 0..self.rows() {
            for j in 0..self.cols() {
                self.b(i, j).encode(buf);
            }
        }
    }
    fn decode(buf: &mut WireBytes) -> Result<BimatrixGame, WireError> {
        let rows = get_len_prefix(buf)?;
        let cols = get_len_prefix(buf)?;
        if rows == 0 || cols == 0 {
            return Err(WireError::Malformed("empty bimatrix game".to_owned()));
        }
        if rows.saturating_mul(cols) > 1 << 20 {
            return Err(WireError::Malformed("bimatrix game too large".to_owned()));
        }
        let decode_matrix = |buf: &mut WireBytes| -> Result<Matrix, WireError> {
            let mut out = Vec::with_capacity(rows);
            for _ in 0..rows {
                let mut row = Vec::with_capacity(cols);
                for _ in 0..cols {
                    row.push(Rational::decode(buf)?);
                }
                out.push(row);
            }
            Ok(Matrix::from_rows(out))
        };
        let a = decode_matrix(buf)?;
        let b = decode_matrix(buf)?;
        Ok(BimatrixGame::new(a, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ra_exact::rat;
    use ra_solvers::{prove_is_nash, prove_max_nash};

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(v: T) -> usize {
        let bytes = v.to_bytes();
        let mut buf = bytes.clone();
        let decoded = T::decode(&mut buf).expect("decodes");
        assert_eq!(decoded, v);
        assert!(!buf.has_remaining());
        bytes.len()
    }

    #[test]
    fn party_round_trips() {
        round_trip(Party::Inventor(0));
        round_trip(Party::Agent(12345));
        round_trip(Party::Verifier(7));
        round_trip(Party::Shard(3));
        round_trip(crate::reputation::GOSSIP_HUB);
    }

    fn sample_delta() -> DecayingPnCounterMap {
        let mut delta = DecayingPnCounterMap::new();
        delta.record(0, Party::Verifier(2), false);
        delta.record(0, Party::Verifier(2), false);
        delta.record(0, Party::Verifier(1), true);
        delta.set_generation(3);
        delta.record(1, Party::Verifier(2), true);
        delta
    }

    fn sample_versions() -> VersionVector {
        let mut versions = VersionVector::new();
        versions.set(0, 3);
        versions.set(2, 1);
        versions
    }

    #[test]
    fn gossip_message_round_trips() {
        let msg = Message::Gossip {
            delta: sample_delta(),
            versions: sample_versions(),
        };
        let size = round_trip(msg);
        // Lemma 1 sanity: a 3-slot delta is tens of bytes, so control-plane
        // frames stay the same order of magnitude as consultation frames.
        assert!(size < 64, "3-slot gossip frame took {size} bytes");
        round_trip(Message::Gossip {
            delta: DecayingPnCounterMap::new(),
            versions: VersionVector::new(),
        });
    }

    #[test]
    fn version_vector_round_trips() {
        round_trip(VersionVector::new());
        let mut versions = VersionVector::new();
        versions.set(u64::MAX, u64::MAX);
        versions.set(0, 1);
        let size = round_trip(versions);
        assert!(size < 32, "version vectors are a handful of varints");
    }

    /// One `(verifier, replica, generation, counter)` gossip slot.
    fn slot(bytes: &mut Vec<u8>, verifier: u64, replica: u64, generation: u64) {
        Party::Verifier(verifier).encode(bytes);
        for v in [replica, generation, 1, 0] {
            put_varint(bytes, v);
        }
    }

    #[test]
    fn gossip_maps_with_repeated_or_unsorted_keys_are_malformed() {
        let counters = |slots: &[(u64, u64, u64)]| {
            let mut bytes = vec![3, slots.len() as u8];
            for &(verifier, replica, generation) in slots {
                slot(&mut bytes, verifier, replica, generation);
            }
            DecayingPnCounterMap::decode(&mut WireBytes::from(bytes))
        };
        let sorted = counters(&[(1, 0, 0), (1, 0, 3), (1, 1, 0), (2, 0, 0)]);
        assert_eq!(sorted.map(|map| map.len()), Ok(4));
        for slots in [
            [(1, 0, 3), (1, 0, 3)],
            [(1, 0, 3), (1, 0, 2)],
            [(1, 1, 0), (1, 0, 5)],
            [(2, 0, 0), (1, 0, 0)],
        ] {
            assert!(
                matches!(counters(&slots), Err(WireError::Malformed(_))),
                "{slots:?}"
            );
        }
        let versions = |pairs: &[(u8, u8)]| {
            let mut bytes = vec![pairs.len() as u8];
            for &(replica, version) in pairs {
                bytes.extend([replica, version]);
            }
            VersionVector::decode(&mut WireBytes::from(bytes))
        };
        assert_eq!(versions(&[(0, 3), (2, 1)]), Ok(sample_versions()));
        for pairs in [[(2, 1), (2, 1)], [(2, 1), (0, 3)]] {
            assert!(
                matches!(versions(&pairs), Err(WireError::Malformed(_))),
                "{pairs:?}"
            );
        }
    }

    #[test]
    fn truncated_gossip_payload_rejected() {
        let msg = Message::Gossip {
            delta: sample_delta(),
            versions: sample_versions(),
        };
        let bytes = msg.to_bytes();
        // Every strict prefix must fail cleanly (never panic, never
        // succeed): the slot count promises more data than remains.
        for cut in 1..bytes.len() {
            let mut truncated = bytes.slice(0..cut);
            assert!(
                Message::decode(&mut truncated).is_err(),
                "prefix of {cut} bytes decoded successfully"
            );
        }
    }

    #[test]
    fn resilient_envelope_round_trips_and_flags_retransmits() {
        let first = Message::Resilient {
            session: 7,
            attempt: 0,
            inner: Box::new(Message::AdviceRequest { game_id: 7 }),
        };
        assert!(!first.is_retransmit(), "attempt 0 is the first try");
        assert!(!Message::AdviceRequest { game_id: 7 }.is_retransmit());
        let size = round_trip(first);
        // The envelope adds a tag byte plus two varints to the inner
        // frame: single-digit overhead, so Lemma 1 tables stay honest.
        assert!(size < 16, "tiny envelope, got {size} bytes");
        let retry = Message::Resilient {
            session: u64::MAX,
            attempt: 3,
            inner: Box::new(Message::Verdict {
                game_id: 9,
                accepted: true,
                detail: VerdictReason::Verified(crate::verifier::Check::Online),
            }),
        };
        assert!(retry.is_retransmit());
        round_trip(retry);
    }

    #[test]
    fn truncated_resilient_envelope_rejected() {
        let msg = Message::Resilient {
            session: 3,
            attempt: 1,
            inner: Box::new(Message::SupportAnswer {
                game_id: 3,
                index: 2,
                in_support: true,
            }),
        };
        let bytes = msg.to_bytes();
        for cut in 1..bytes.len() {
            let mut truncated = bytes.slice(0..cut);
            assert!(
                Message::decode(&mut truncated).is_err(),
                "prefix of {cut} bytes decoded successfully"
            );
        }
    }

    #[test]
    fn nested_resilient_envelope_rejected_without_recursing() {
        // A hostile chain of envelope tags must fail with a decode error
        // on the *first* nesting, long before the stack could overflow.
        let mut attack = Vec::new();
        for _ in 0..1_000_000 {
            attack.push(9u8); // Message::Resilient tag
            put_varint(&mut attack, 1); // session
            put_varint(&mut attack, 0); // attempt
        }
        let mut buf = WireBytes::from(attack);
        assert!(matches!(
            Message::decode(&mut buf),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn oversized_gossip_slot_count_rejected() {
        // Frame claiming u64::MAX slots: the defensive length cap must
        // reject it as malformed instead of attempting the allocation.
        let mut attack = Vec::new();
        attack.push(8u8); // Message::Gossip tag
        put_varint(&mut attack, 0); // generation cursor
        put_varint(&mut attack, u64::MAX); // hostile slot count
        let mut buf = WireBytes::from(attack);
        assert!(matches!(
            Message::decode(&mut buf),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn support_certificate_size_matches_lemma1_order() {
        // The P1 certificate for an n × m game is O(n + m) small on the
        // wire: a handful of bytes, independent of the payoff values.
        let cert = SupportCertificate {
            row_support: vec![0, 2],
            col_support: vec![1],
        };
        let size = round_trip(Advice::Support(cert));
        assert!(size < 16, "tiny certificate, got {size} bytes");
    }

    #[test]
    fn recursive_proofs_round_trip() {
        let game = ra_games::named::coordination_game(3);
        let max_proof = prove_max_nash(&game, &vec![2, 2].into()).unwrap();
        round_trip(max_proof);
        round_trip(prove_is_nash(vec![0, 1].into()));
        let or = Proof::OrIntro {
            disjuncts: vec![
                Prop::IsNash(vec![0, 0].into()),
                Prop::Lt(Term::constant(rat(1, 2)), Term::constant(rat(2, 3))),
            ],
            index: 1,
            witness: Box::new(Proof::EvalAtom(Prop::Lt(
                Term::constant(rat(1, 2)),
                Term::constant(rat(2, 3)),
            ))),
        };
        round_trip(or);
    }

    #[test]
    fn all_advice_variants_round_trip() {
        // §3 advice is its proof: 5 bytes for a 2-player profile (advice
        // tag, rule tag, length, two strategies) and 6 for a 3-player one.
        let two = round_trip(Advice::PureNash(prove_is_nash(vec![1, 1].into())));
        assert_eq!(two, 5);
        let three = round_trip(Advice::PureNash(prove_is_nash(vec![1, 1, 1].into())));
        assert_eq!(three, 6);
        round_trip(Advice::Private(P2Advice {
            own_strategy: MixedStrategy::try_new(vec![rat(1, 3), rat(2, 3)]).unwrap(),
            lambda_own: rat(5, 8),
            lambda_opp: rat(-1, 2),
        }));
        // §5 and §6 advice carry only the inventor's answer, never the
        // spec: the root is 5 bytes (advice tag, root tag, the canonical
        // 1/4), and the assignment of own load and two future loads with
        // its link is 6 (advice tag, length, three links, the link).
        let exact = round_trip(Advice::Participation(ParticipationCertificate {
            root: EquilibriumRoot::Exact(rat(1, 4)),
        }));
        assert_eq!(exact, 5);
        round_trip(Advice::Participation(ParticipationCertificate {
            root: EquilibriumRoot::Bracket {
                lo: rat(1, 5),
                hi: rat(2, 5),
            },
        }));
        let online = round_trip(Advice::Online(
            ra_solvers::honest_online_advice(&ra_proofs::OnlineInstance {
                current_loads: &[rat(3, 1), rat(1, 2)],
                own_load: &rat(7, 3),
                expected_future_load: &rat(1, 1),
                expected_future_agents: 2,
            })
            .unwrap(),
        ));
        assert_eq!(online, 6);
    }

    #[test]
    fn all_message_variants_round_trip() {
        round_trip(Message::AdviceRequest { game_id: 9 });
        round_trip(Message::AdviceWithProof {
            game_id: 9,
            advice: Box::new(Advice::Support(SupportCertificate {
                row_support: vec![0],
                col_support: vec![1],
            })),
        });
        for detail in VerdictReason::ALL {
            for accepted in [false, true] {
                let size = round_trip(Message::Verdict {
                    game_id: 9,
                    accepted,
                    detail,
                });
                assert_eq!(size, 4, "tag, game id, accepted, reason: {detail:?}");
            }
        }
    }

    #[test]
    fn unassigned_reason_bytes_are_bad_tags() {
        for (reason, byte) in [
            (VerdictReason::AdviceTypeMismatch, 8),
            (VerdictReason::RubberStamped, 9),
            (VerdictReason::Refused, 10),
        ] {
            assert_eq!(reason.to_bytes().to_vec(), [byte], "{reason}");
        }
        let frame = Message::Verdict {
            game_id: 300,
            accepted: true,
            detail: VerdictReason::Refused,
        }
        .to_bytes()
        .to_vec();
        let reason_at = frame.len() - 1;
        for code in 0..=u8::MAX {
            let mut bytes = frame.clone();
            bytes[reason_at] = code;
            let decoded = Message::decode(&mut WireBytes::from(bytes));
            match VerdictReason::ALL.get(usize::from(code)).copied() {
                Some(detail) => assert_eq!(
                    decoded,
                    Ok(Message::Verdict {
                        game_id: 300,
                        accepted: true,
                        detail,
                    })
                ),
                None => assert_eq!(decoded, Err(WireError::BadTag(code))),
            }
        }
    }

    #[test]
    fn hostile_nesting_rejected_not_crashing() {
        // A flood of Term::Add tags used to blow the stack; it must now be
        // a clean decode error. Depth-first, each 0x02 opens another level.
        let mut attack = WireBytes::from(vec![2u8; 2_000_000]);
        assert!(matches!(
            Term::decode(&mut attack),
            Err(WireError::Malformed(_))
        ));
        // Same shape through Prop (And-of-And) and Proof (AndIntro chains):
        // tag 11 + varint length 1, repeated.
        let mut and_chain = Vec::new();
        for _ in 0..100_000 {
            and_chain.extend_from_slice(&[11u8, 1]);
        }
        let mut attack = WireBytes::from(and_chain);
        assert!(matches!(
            Prop::decode(&mut attack),
            Err(WireError::Malformed(_))
        ));
        let mut proof_chain = Vec::new();
        for _ in 0..100_000 {
            proof_chain.extend_from_slice(&[1u8, 1]);
        }
        let mut attack = WireBytes::from(proof_chain);
        assert!(matches!(
            Proof::decode(&mut attack),
            Err(WireError::Malformed(_))
        ));
        // Legitimately deep-but-bounded trees still round-trip.
        let mut term = Term::constant(rat(1, 1));
        for _ in 0..200 {
            term = Term::Add(Box::new(term), Box::new(Term::constant(rat(1, 1))));
        }
        round_trip(Prop::Le(term, Term::constant(rat(500, 1))));
    }

    #[test]
    fn corrupted_messages_rejected() {
        let msg = Message::AdviceRequest { game_id: 1 };
        let bytes = msg.to_bytes();
        let mut truncated = bytes.slice(0..bytes.len() - 1);
        // Either decodes to something else or errors — but with one byte cut
        // from a varint tail it must error.
        assert!(Message::decode(&mut truncated).is_err() || truncated.has_remaining());
        let mut bad_tag = WireBytes::from(vec![99u8]);
        assert!(matches!(
            Message::decode(&mut bad_tag),
            Err(WireError::BadTag(99))
        ));
        // Advice tag 5 (a dominant-strategy claim no inventor emitted and
        // no verifier checked) is no longer a variant.
        let mut retired = WireBytes::from(vec![5u8, 1, 4, 0]);
        assert_eq!(Advice::decode(&mut retired), Err(WireError::BadTag(5)));
    }

    #[test]
    fn retired_message_tags_are_bad_tags() {
        // Message tags 0 (a game announcement) and 5 (a verdict report)
        // were never sent or read, and are no longer variants.
        for (tag, body) in [(0u8, vec![9, 0, 0]), (5, vec![2, 3, 9, 1])] {
            let mut frame = WireBytes::from([vec![tag], body].concat());
            assert_eq!(Message::decode(&mut frame), Err(WireError::BadTag(tag)));
        }
    }

    fn sample_specs() -> Vec<GameSpec> {
        vec![
            GameSpec::Strategic(ra_games::named::prisoners_dilemma().to_strategic()),
            GameSpec::Strategic(StrategicGame::from_payoff_fn(vec![2, 3, 2], |p| {
                (0..3)
                    .map(|agent| rat((p.strategy_of(agent) + agent) as i64, 2))
                    .collect()
            })),
            GameSpec::Bimatrix(ra_games::named::matching_pennies()),
            GameSpec::Participation(ParticipationParams::paper_example()),
            GameSpec::ParallelLinks {
                current_loads: vec![rat(1, 2), rat(3, 1), rat(0, 1)],
                own_load: rat(5, 4),
                expected_future_load: rat(1, 1),
                expected_future_agents: 7,
            },
        ]
    }

    #[test]
    fn game_specs_round_trip() {
        for spec in sample_specs() {
            round_trip(spec);
        }
    }

    #[test]
    fn memoized_spec_digest_survives_clones_and_the_wire() {
        let mut digests = Vec::new();
        for spec in sample_specs() {
            let expected = crate::crypto::sha256(spec.to_bytes().as_slice());
            let GameSpec::Strategic(fresh) = &spec else {
                continue;
            };
            let cold_clone = fresh.clone();
            let mut bytes = fresh.to_bytes();
            let decoded = StrategicGame::decode(&mut bytes).expect("decodes");
            assert_eq!(fresh.spec_digest(), expected, "fresh game");
            assert_eq!(fresh.clone().spec_digest(), expected, "warm clone");
            assert_eq!(decoded.spec_digest(), expected, "wire copy");
            assert_eq!(crate::cache::spec_digest(&spec), expected, "spec_digest");
            // `fresh` is warm now, `cold_clone` has never been hashed.
            assert_eq!(*fresh, cold_clone);
            assert_eq!(cold_clone.spec_digest(), expected, "cold clone");
            digests.push(expected);
        }
        digests.push(ra_games::named::stag_hunt(3).spec_digest());
        digests.sort_unstable();
        digests.dedup();
        assert_eq!(digests.len(), 3, "distinct games share a digest");
    }

    #[test]
    fn game_spec_encoding_is_deterministic() {
        for spec in sample_specs() {
            assert_eq!(
                spec.to_bytes().as_slice(),
                spec.clone().to_bytes().as_slice()
            );
        }
    }

    #[test]
    fn truncated_game_specs_rejected() {
        for spec in sample_specs() {
            let bytes = spec.to_bytes();
            for cut in 0..bytes.len() {
                let mut truncated = bytes.slice(0..cut);
                assert!(
                    GameSpec::decode(&mut truncated).is_err(),
                    "prefix of {cut} bytes decoded successfully"
                );
            }
        }
    }

    #[test]
    fn degenerate_game_specs_rejected() {
        // Strategic game claiming zero agents.
        let mut zero_agents = WireBytes::from(vec![0u8, 0]);
        assert!(matches!(
            GameSpec::decode(&mut zero_agents),
            Err(WireError::Malformed(_))
        ));
        // Strategic game with an astronomically large profile space: the
        // counts alone must be refused before any payoff allocation.
        let mut huge = vec![0u8];
        put_varint(&mut huge, 8);
        for _ in 0..8 {
            put_varint(&mut huge, 1 << 12);
        }
        let mut huge = WireBytes::from(huge);
        assert!(matches!(
            GameSpec::decode(&mut huge),
            Err(WireError::Malformed(_))
        ));
        // Empty bimatrix game.
        let mut empty = WireBytes::from(vec![1u8, 0, 0]);
        assert!(matches!(
            GameSpec::decode(&mut empty),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn participation_specs_past_the_firm_cap_are_refused() {
        let cap = ParticipationParams::MAX_FIRMS;
        // The encoder writes whatever the fields hold; only the decoder
        // validates. 2³² + 2 firms would wrap `n − k` as an `i32` exponent.
        for (n, accepted) in [(cap, true), (cap + 1, false), ((1 << 32) + 2, false)] {
            let spec = GameSpec::Participation(ParticipationParams {
                n,
                k: 2,
                ..ParticipationParams::paper_example()
            });
            let decoded = GameSpec::decode(&mut spec.to_bytes());
            match decoded {
                Ok(decoded) => assert!(accepted && decoded == spec, "n = {n}"),
                Err(e) => assert!(!accepted && matches!(e, WireError::Malformed(_)), "n = {n}"),
            }
        }
    }
}
