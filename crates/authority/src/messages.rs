//! Protocol messages of the rationality authority, with exact wire
//! encodings.
//!
//! The flows mirror Fig. 1 of the paper: an agent requests advice, the
//! inventor sends advice-with-proof; agents fetch verification procedures
//! from verifiers (modelled as verdict requests/responses since procedures
//! are code); shards gossip reputation. Every payload —
//! including recursive §3 proof trees — encodes to real bytes so the bus
//! can account for communication exactly.

use ra_exact::{Matrix, Rational};
use ra_games::{BimatrixGame, MixedStrategy, StrategicGame, StrategyProfile};
use ra_proofs::kernel::{NotAboveWitness, ProfileVerdict, Proof, Prop, Term};
use ra_proofs::{
    OnlineAdviceCertificate, P2Advice, ParticipationCertificate, PureNashCertificate,
    SupportCertificate,
};
use ra_solvers::{EquilibriumRoot, ParticipationParams};

use std::sync::Arc;

use crate::inventor::GameSpec;
use crate::reputation::{DecayingPnCounterMap, PnCounter, VersionVector};
use crate::verifier::VerdictReason;
use crate::wire::{get_varint, put_varint, Wire, WireBytes, WireError};

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

impl Wire for Party {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Party::Inventor(i) => {
                buf.push(0);
                put_varint(buf, *i);
            }
            Party::Agent(i) => {
                buf.push(1);
                put_varint(buf, *i);
            }
            Party::Verifier(i) => {
                buf.push(2);
                put_varint(buf, *i);
            }
            Party::Shard(i) => {
                buf.push(3);
                put_varint(buf, *i);
            }
        }
    }
    fn decode(buf: &mut WireBytes) -> Result<Party, WireError> {
        if !buf.has_remaining() {
            return Err(WireError::UnexpectedEnd);
        }
        let tag = buf.get_u8();
        let id = get_varint(buf)?;
        match tag {
            0 => Ok(Party::Inventor(id)),
            1 => Ok(Party::Agent(id)),
            2 => Ok(Party::Verifier(id)),
            3 => Ok(Party::Shard(id)),
            t => Err(WireError::BadTag(t)),
        }
    }
}

/// One byte: the reason's index in [`VerdictReason::ALL`].
impl Wire for VerdictReason {
    fn encode(&self, buf: &mut Vec<u8>) {
        let index = VerdictReason::ALL.iter().position(|r| r == self);
        buf.push(index.expect("ALL lists every reason") as u8);
    }
    fn decode(buf: &mut WireBytes) -> Result<VerdictReason, WireError> {
        if !buf.has_remaining() {
            return Err(WireError::UnexpectedEnd);
        }
        let code = buf.get_u8();
        let reason = VerdictReason::ALL.get(usize::from(code));
        reason.copied().ok_or(WireError::BadTag(code))
    }
}

/// Advice payloads, one per case-study certificate family. Each carries
/// only what the inventor adds: every party to a consult holds its
/// [`GameSpec`], and the checkers take the game from there.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Advice {
    /// §3: a pure-profile advice with a kernel proof.
    PureNash(PureNashCertificate),
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

// ---- Wire impls for foreign certificate types -------------------------------

/// Maximum nesting depth accepted when decoding the recursive proof payloads
/// (`Term`/`Prop`/`Proof`). Honest certificates are a handful of levels deep;
/// without a cap, hostile wire bytes (e.g. millions of repeated `Term::Add`
/// tags) would abort the process via stack overflow instead of returning a
/// [`WireError`].
const MAX_PROOF_NESTING: u32 = 256;

fn deeper(depth: u32) -> Result<u32, WireError> {
    if depth >= MAX_PROOF_NESTING {
        Err(WireError::Malformed(format!(
            "proof nesting deeper than {MAX_PROOF_NESTING}"
        )))
    } else {
        Ok(depth + 1)
    }
}

/// Length-prefixed sequence of depth-tracked elements (same hostile-length
/// cap as `Vec::<T>::decode`, via the shared prefix reader).
fn decode_seq<T>(
    buf: &mut WireBytes,
    depth: u32,
    elem: impl Fn(&mut WireBytes, u32) -> Result<T, WireError>,
) -> Result<Vec<T>, WireError> {
    let len = crate::wire::get_len_prefix(buf)?;
    let mut out = Vec::with_capacity(len.min(1024));
    for _ in 0..len {
        out.push(elem(buf, depth)?);
    }
    Ok(out)
}

fn decode_term(buf: &mut WireBytes, depth: u32) -> Result<Term, WireError> {
    if !buf.has_remaining() {
        return Err(WireError::UnexpectedEnd);
    }
    Ok(match buf.get_u8() {
        0 => Term::Const(Rational::decode(buf)?),
        1 => Term::Utility {
            agent: usize::decode(buf)?,
            profile: StrategyProfile::decode(buf)?,
        },
        2 => {
            let d = deeper(depth)?;
            Term::Add(
                Box::new(decode_term(buf, d)?),
                Box::new(decode_term(buf, d)?),
            )
        }
        3 => {
            let d = deeper(depth)?;
            Term::Sub(
                Box::new(decode_term(buf, d)?),
                Box::new(decode_term(buf, d)?),
            )
        }
        4 => {
            let d = deeper(depth)?;
            Term::Mul(
                Box::new(decode_term(buf, d)?),
                Box::new(decode_term(buf, d)?),
            )
        }
        t => return Err(WireError::BadTag(t)),
    })
}

fn decode_prop(buf: &mut WireBytes, depth: u32) -> Result<Prop, WireError> {
    if !buf.has_remaining() {
        return Err(WireError::UnexpectedEnd);
    }
    Ok(match buf.get_u8() {
        0 => {
            let d = deeper(depth)?;
            Prop::Le(decode_term(buf, d)?, decode_term(buf, d)?)
        }
        1 => {
            let d = deeper(depth)?;
            Prop::Lt(decode_term(buf, d)?, decode_term(buf, d)?)
        }
        2 => {
            let d = deeper(depth)?;
            Prop::Eq(decode_term(buf, d)?, decode_term(buf, d)?)
        }
        3 => Prop::IsStrat(StrategyProfile::decode(buf)?),
        4 => Prop::EqStrat(StrategyProfile::decode(buf)?, StrategyProfile::decode(buf)?),
        5 => Prop::LeStrat(StrategyProfile::decode(buf)?, StrategyProfile::decode(buf)?),
        6 => Prop::NoComp(StrategyProfile::decode(buf)?, StrategyProfile::decode(buf)?),
        7 => Prop::IsNash(StrategyProfile::decode(buf)?),
        8 => Prop::NotNash(StrategyProfile::decode(buf)?),
        9 => Prop::IsMaxNash(StrategyProfile::decode(buf)?),
        10 => Prop::IsMinNash(StrategyProfile::decode(buf)?),
        11 => Prop::And(decode_seq(buf, deeper(depth)?, decode_prop)?),
        12 => Prop::Or(decode_seq(buf, deeper(depth)?, decode_prop)?),
        t => return Err(WireError::BadTag(t)),
    })
}

fn decode_proof(buf: &mut WireBytes, depth: u32) -> Result<Proof, WireError> {
    if !buf.has_remaining() {
        return Err(WireError::UnexpectedEnd);
    }
    Ok(match buf.get_u8() {
        0 => Proof::EvalAtom(decode_prop(buf, deeper(depth)?)?),
        1 => Proof::AndIntro(decode_seq(buf, deeper(depth)?, decode_proof)?),
        2 => {
            let d = deeper(depth)?;
            Proof::OrIntro {
                disjuncts: decode_seq(buf, d, decode_prop)?,
                index: usize::decode(buf)?,
                witness: Box::new(decode_proof(buf, d)?),
            }
        }
        3 => Proof::NashIntro {
            profile: StrategyProfile::decode(buf)?,
        },
        4 => Proof::NashRefute {
            profile: StrategyProfile::decode(buf)?,
            agent: usize::decode(buf)?,
            strategy: usize::decode(buf)?,
        },
        5 => {
            let d = deeper(depth)?;
            Proof::MaxNashIntro {
                profile: StrategyProfile::decode(buf)?,
                nash: Box::new(decode_proof(buf, d)?),
                classification: Vec::<ProfileVerdict>::decode(buf)?,
            }
        }
        6 => {
            let d = deeper(depth)?;
            Proof::MinNashIntro {
                profile: StrategyProfile::decode(buf)?,
                nash: Box::new(decode_proof(buf, d)?),
                classification: Vec::<ProfileVerdict>::decode(buf)?,
            }
        }
        t => return Err(WireError::BadTag(t)),
    })
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

impl Wire for Term {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Term::Const(v) => {
                buf.push(0);
                v.encode(buf);
            }
            Term::Utility { agent, profile } => {
                buf.push(1);
                agent.encode(buf);
                profile.encode(buf);
            }
            Term::Add(a, b) => {
                buf.push(2);
                a.encode(buf);
                b.encode(buf);
            }
            Term::Sub(a, b) => {
                buf.push(3);
                a.encode(buf);
                b.encode(buf);
            }
            Term::Mul(a, b) => {
                buf.push(4);
                a.encode(buf);
                b.encode(buf);
            }
        }
    }
    fn decode(buf: &mut WireBytes) -> Result<Term, WireError> {
        decode_term(buf, 0)
    }
}

impl Wire for Prop {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Prop::Le(a, b) => {
                buf.push(0);
                a.encode(buf);
                b.encode(buf);
            }
            Prop::Lt(a, b) => {
                buf.push(1);
                a.encode(buf);
                b.encode(buf);
            }
            Prop::Eq(a, b) => {
                buf.push(2);
                a.encode(buf);
                b.encode(buf);
            }
            Prop::IsStrat(s) => {
                buf.push(3);
                s.encode(buf);
            }
            Prop::EqStrat(a, b) => {
                buf.push(4);
                a.encode(buf);
                b.encode(buf);
            }
            Prop::LeStrat(a, b) => {
                buf.push(5);
                a.encode(buf);
                b.encode(buf);
            }
            Prop::NoComp(a, b) => {
                buf.push(6);
                a.encode(buf);
                b.encode(buf);
            }
            Prop::IsNash(s) => {
                buf.push(7);
                s.encode(buf);
            }
            Prop::NotNash(s) => {
                buf.push(8);
                s.encode(buf);
            }
            Prop::IsMaxNash(s) => {
                buf.push(9);
                s.encode(buf);
            }
            Prop::IsMinNash(s) => {
                buf.push(10);
                s.encode(buf);
            }
            Prop::And(ps) => {
                buf.push(11);
                ps.encode(buf);
            }
            Prop::Or(ps) => {
                buf.push(12);
                ps.encode(buf);
            }
        }
    }
    fn decode(buf: &mut WireBytes) -> Result<Prop, WireError> {
        decode_prop(buf, 0)
    }
}

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
        if !buf.has_remaining() {
            return Err(WireError::UnexpectedEnd);
        }
        Ok(match buf.get_u8() {
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

impl Wire for Proof {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Proof::EvalAtom(p) => {
                buf.push(0);
                p.encode(buf);
            }
            Proof::AndIntro(ps) => {
                buf.push(1);
                ps.encode(buf);
            }
            Proof::OrIntro {
                disjuncts,
                index,
                witness,
            } => {
                buf.push(2);
                disjuncts.encode(buf);
                index.encode(buf);
                witness.encode(buf);
            }
            Proof::NashIntro { profile } => {
                buf.push(3);
                profile.encode(buf);
            }
            Proof::NashRefute {
                profile,
                agent,
                strategy,
            } => {
                buf.push(4);
                profile.encode(buf);
                agent.encode(buf);
                strategy.encode(buf);
            }
            Proof::MaxNashIntro {
                profile,
                nash,
                classification,
            } => {
                buf.push(5);
                profile.encode(buf);
                nash.encode(buf);
                classification.encode(buf);
            }
            Proof::MinNashIntro {
                profile,
                nash,
                classification,
            } => {
                buf.push(6);
                profile.encode(buf);
                nash.encode(buf);
                classification.encode(buf);
            }
        }
    }
    fn decode(buf: &mut WireBytes) -> Result<Proof, WireError> {
        decode_proof(buf, 0)
    }
}

impl Wire for PnCounter {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_varint(buf, self.increments);
        put_varint(buf, self.decrements);
    }
    fn decode(buf: &mut WireBytes) -> Result<PnCounter, WireError> {
        Ok(PnCounter {
            increments: get_varint(buf)?,
            decrements: get_varint(buf)?,
        })
    }
}

impl Wire for DecayingPnCounterMap {
    /// Generation cursor, then a flat length-prefixed sequence of
    /// `(verifier, replica, generation, counter)` slots in sorted order
    /// (the map's `BTreeMap` backing makes the encoding deterministic, so
    /// gossip byte counts are reproducible).
    fn encode(&self, buf: &mut Vec<u8>) {
        put_varint(buf, self.current_generation());
        let slots: Vec<_> = self.iter_slots().collect();
        put_varint(buf, slots.len() as u64);
        for (verifier, replica, generation, counter) in slots {
            verifier.encode(buf);
            put_varint(buf, replica);
            put_varint(buf, generation);
            counter.encode(buf);
        }
    }
    fn decode(buf: &mut WireBytes) -> Result<DecayingPnCounterMap, WireError> {
        let mut map = DecayingPnCounterMap::new();
        map.set_generation(get_varint(buf)?);
        let len = crate::wire::get_len_prefix(buf)?;
        for _ in 0..len {
            let verifier = Party::decode(buf)?;
            let replica = get_varint(buf)?;
            let generation = get_varint(buf)?;
            let counter = PnCounter::decode(buf)?;
            map.set_counter(replica, verifier, generation, counter);
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
        let len = crate::wire::get_len_prefix(buf)?;
        let mut out = VersionVector::new();
        for _ in 0..len {
            let replica = get_varint(buf)?;
            let version = get_varint(buf)?;
            out.set(replica, version);
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
        ParticipationParams::new(n, k, v, c).map_err(WireError::Malformed)
    }
}

impl Wire for EquilibriumRoot {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            EquilibriumRoot::Exact(p) => {
                buf.push(0);
                p.encode(buf);
            }
            EquilibriumRoot::Bracket { lo, hi } => {
                buf.push(1);
                lo.encode(buf);
                hi.encode(buf);
            }
        }
    }
    fn decode(buf: &mut WireBytes) -> Result<EquilibriumRoot, WireError> {
        if !buf.has_remaining() {
            return Err(WireError::UnexpectedEnd);
        }
        Ok(match buf.get_u8() {
            0 => EquilibriumRoot::Exact(Rational::decode(buf)?),
            1 => EquilibriumRoot::Bracket {
                lo: Rational::decode(buf)?,
                hi: Rational::decode(buf)?,
            },
            t => return Err(WireError::BadTag(t)),
        })
    }
}

impl Wire for Advice {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Advice::PureNash(c) => {
                buf.push(0);
                c.profile.encode(buf);
                c.proof.encode(buf);
            }
            Advice::Support(c) => {
                buf.push(1);
                c.row_support.encode(buf);
                c.col_support.encode(buf);
            }
            Advice::Private(a) => {
                buf.push(2);
                a.own_strategy.encode(buf);
                a.lambda_own.encode(buf);
                a.lambda_opp.encode(buf);
            }
            Advice::Participation(c) => {
                buf.push(3);
                c.root.encode(buf);
            }
            Advice::Online(c) => {
                buf.push(4);
                c.assignment.encode(buf);
                c.suggested_link.encode(buf);
            }
        }
    }
    fn decode(buf: &mut WireBytes) -> Result<Advice, WireError> {
        if !buf.has_remaining() {
            return Err(WireError::UnexpectedEnd);
        }
        Ok(match buf.get_u8() {
            0 => Advice::PureNash(PureNashCertificate {
                profile: StrategyProfile::decode(buf)?,
                proof: Proof::decode(buf)?,
            }),
            1 => Advice::Support(SupportCertificate {
                row_support: Vec::<usize>::decode(buf)?,
                col_support: Vec::<usize>::decode(buf)?,
            }),
            2 => Advice::Private(P2Advice {
                own_strategy: MixedStrategy::decode(buf)?,
                lambda_own: Rational::decode(buf)?,
                lambda_opp: Rational::decode(buf)?,
            }),
            3 => Advice::Participation(ParticipationCertificate {
                root: EquilibriumRoot::decode(buf)?,
            }),
            4 => Advice::Online(OnlineAdviceCertificate {
                assignment: Vec::<usize>::decode(buf)?,
                suggested_link: usize::decode(buf)?,
            }),
            t => return Err(WireError::BadTag(t)),
        })
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
        let agents = crate::wire::get_len_prefix(buf)?;
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
        let mut table = Vec::with_capacity(entries.min(buf.remaining() / 2));
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
        let rows = crate::wire::get_len_prefix(buf)?;
        let cols = crate::wire::get_len_prefix(buf)?;
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

impl Wire for GameSpec {
    /// Tagged by family (`0` strategic, `1` bimatrix, `2` participation,
    /// `3` parallel links). This canonical encoding is the preimage of
    /// [`crate::cache::spec_digest`], so it must stay deterministic:
    /// identical specs must produce identical bytes on every encode. The
    /// strategic tag is [`StrategicGame::SPEC_TAG`], the same byte that
    /// starts the preimage of [`StrategicGame::spec_digest`].
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            GameSpec::Strategic(game) => {
                buf.push(StrategicGame::SPEC_TAG);
                game.encode(buf);
            }
            GameSpec::Bimatrix(game) => {
                buf.push(1);
                game.encode(buf);
            }
            GameSpec::Participation(params) => {
                buf.push(2);
                params.encode(buf);
            }
            GameSpec::ParallelLinks {
                current_loads,
                own_load,
                expected_future_load,
                expected_future_agents,
            } => {
                buf.push(3);
                current_loads.encode(buf);
                own_load.encode(buf);
                expected_future_load.encode(buf);
                expected_future_agents.encode(buf);
            }
        }
    }
    fn decode(buf: &mut WireBytes) -> Result<GameSpec, WireError> {
        if !buf.has_remaining() {
            return Err(WireError::UnexpectedEnd);
        }
        Ok(match buf.get_u8() {
            StrategicGame::SPEC_TAG => GameSpec::Strategic(StrategicGame::decode(buf)?),
            1 => GameSpec::Bimatrix(BimatrixGame::decode(buf)?),
            2 => GameSpec::Participation(ParticipationParams::decode(buf)?),
            3 => GameSpec::ParallelLinks {
                current_loads: Vec::<Rational>::decode(buf)?,
                own_load: Rational::decode(buf)?,
                expected_future_load: Rational::decode(buf)?,
                expected_future_agents: usize::decode(buf)?,
            },
            t => return Err(WireError::BadTag(t)),
        })
    }
}

impl Wire for Message {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Message::AdviceRequest { game_id } => {
                buf.push(1);
                game_id.encode(buf);
            }
            Message::AdviceWithProof { game_id, advice } => {
                buf.push(2);
                game_id.encode(buf);
                advice.encode(buf);
            }
            Message::VerdictRequest { game_id, advice } => {
                buf.push(3);
                game_id.encode(buf);
                advice.encode(buf);
            }
            Message::Verdict {
                game_id,
                accepted,
                detail,
            } => {
                buf.push(4);
                game_id.encode(buf);
                accepted.encode(buf);
                detail.encode(buf);
            }
            Message::SupportQuery { game_id, index } => {
                buf.push(6);
                game_id.encode(buf);
                index.encode(buf);
            }
            Message::SupportAnswer {
                game_id,
                index,
                in_support,
            } => {
                buf.push(7);
                game_id.encode(buf);
                index.encode(buf);
                in_support.encode(buf);
            }
            Message::Gossip { delta, versions } => {
                buf.push(8);
                delta.encode(buf);
                versions.encode(buf);
            }
            Message::Resilient {
                session,
                attempt,
                inner,
            } => {
                buf.push(9);
                session.encode(buf);
                u64::from(*attempt).encode(buf);
                inner.encode(buf);
            }
        }
    }
    fn decode(buf: &mut WireBytes) -> Result<Message, WireError> {
        if !buf.has_remaining() {
            return Err(WireError::UnexpectedEnd);
        }
        Ok(match buf.get_u8() {
            1 => Message::AdviceRequest {
                game_id: u64::decode(buf)?,
            },
            2 => Message::AdviceWithProof {
                game_id: u64::decode(buf)?,
                advice: Box::new(Advice::decode(buf)?),
            },
            3 => Message::VerdictRequest {
                game_id: u64::decode(buf)?,
                advice: Arc::new(Advice::decode(buf)?),
            },
            4 => Message::Verdict {
                game_id: u64::decode(buf)?,
                accepted: bool::decode(buf)?,
                detail: VerdictReason::decode(buf)?,
            },
            6 => Message::SupportQuery {
                game_id: u64::decode(buf)?,
                index: usize::decode(buf)?,
            },
            7 => Message::SupportAnswer {
                game_id: u64::decode(buf)?,
                index: usize::decode(buf)?,
                in_support: bool::decode(buf)?,
            },
            8 => Message::Gossip {
                delta: DecayingPnCounterMap::decode(buf)?,
                versions: VersionVector::decode(buf)?,
            },
            9 => {
                let session = u64::decode(buf)?;
                let attempt = u32::try_from(u64::decode(buf)?)
                    .map_err(|_| WireError::Malformed("attempt exceeds u32".to_string()))?;
                // Reject a nested envelope *before* recursing: a hostile
                // byte chain of repeated tag-9 frames must fail with a
                // decode error, not a stack overflow.
                match buf.peek_u8() {
                    None => return Err(WireError::UnexpectedEnd),
                    Some(9) => {
                        return Err(WireError::Malformed(
                            "nested resilient envelope".to_string(),
                        ))
                    }
                    Some(_) => {}
                }
                Message::Resilient {
                    session,
                    attempt,
                    inner: Box::new(Message::decode(buf)?),
                }
            }
            t => return Err(WireError::BadTag(t)),
        })
    }
}

impl<T: Wire> Wire for Box<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        (**self).encode(buf);
    }
    fn decode(buf: &mut WireBytes) -> Result<Box<T>, WireError> {
        Ok(Box::new(T::decode(buf)?))
    }
}

impl<T: Wire> Wire for Arc<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        (**self).encode(buf);
    }
    fn decode(buf: &mut WireBytes) -> Result<Arc<T>, WireError> {
        Ok(Arc::new(T::decode(buf)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ra_exact::rat;
    use ra_proofs::{prove_is_nash, prove_max_nash};

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
        round_trip(Advice::PureNash(PureNashCertificate {
            profile: vec![1, 1].into(),
            proof: prove_is_nash(vec![1, 1].into()),
        }));
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
            ra_proofs::honest_online_advice(&ra_proofs::OnlineInstance {
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
}
