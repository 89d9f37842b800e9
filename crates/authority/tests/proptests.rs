//! Property-based tests for the authority infrastructure: wire-format
//! round-trips and fuzz, reputation dynamics, gossip CRDT laws, ledger
//! tampering.

use std::sync::Arc;

use proptest::prelude::*;
use ra_authority::WireBytes;
use ra_authority::{
    frame_pool_misses, sha256, sha256_wire, spec_digest, with_frame_scratch, Advice, Bus,
    CertCache, CertCacheConfig, DecayingPnCounterMap, GameSpec, GossipPlane, GossipReputation,
    Inventor, InventorBehavior, LinkProfile, LocalReputation, Message, NetEvent, Party,
    RationalityAuthority, ReputationBackend, ReputationDecay, ResilienceConfig, SigningKey, SimNet,
    SimNetConfig, StatisticsLedger, Transport, VerdictReason, VerifierBehavior, VersionVector,
    Wire,
};
use ra_exact::{rat, Matrix, Rational};
use ra_games::{BimatrixGame, MixedStrategy, StrategicGame, StrategyProfile};
use ra_proofs::kernel::{NotAboveWitness, ProfileVerdict, Proof, Prop, Term};
use ra_proofs::{OnlineAdviceCertificate, P2Advice, ParticipationCertificate, SupportCertificate};
use ra_solvers::{EquilibriumRoot, ParticipationParams};

/// A splitmix-style finalizer: the deterministic seed-to-payoff hash that
/// lets arbitrary game specs be generated without `prop_flat_map` (payoffs
/// are derived from one generated seed inside `prop_map`).
fn mix(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h
}

/// A small rational derived from a hash: numerators in -10..=10,
/// denominators in 1..=6.
fn hashed_rational(h: u64) -> Rational {
    rat((h % 21) as i64 - 10, ((h >> 8) % 6 + 1) as i64)
}

/// Arbitrary strategic games of up to three agents with up to three
/// strategies each. About one payoff in eleven is scaled past `u64`, so
/// the encoder's multi-limb path is hashed too.
fn arb_strategic_game() -> impl Strategy<Value = StrategicGame> {
    (prop::collection::vec(1usize..4, 1..4), any::<u64>()).prop_map(|(counts, seed)| {
        let agents = counts.len();
        let wide = rat(i64::MAX, 1) * rat(i64::MAX, 3);
        StrategicGame::from_payoff_fn(counts, move |profile| {
            (0..agents)
                .map(|agent| {
                    let mut h = seed ^ mix(agent as u64 + 7);
                    for a in 0..agents {
                        h = mix(h ^ (((a as u64) << 32) | profile.strategy_of(a) as u64));
                    }
                    let payoff = hashed_rational(h);
                    if h % 11 == 0 {
                        payoff * wide.clone()
                    } else {
                        payoff
                    }
                })
                .collect()
        })
    })
}

/// Arbitrary specs over all four case-study families, with payoffs and
/// parameters derived deterministically from generated seeds.
fn arb_game_spec() -> impl Strategy<Value = GameSpec> {
    prop_oneof![
        (prop::collection::vec(1usize..4, 1..4), any::<u64>()).prop_map(|(counts, seed)| {
            let agents = counts.len();
            GameSpec::Strategic(StrategicGame::from_payoff_fn(counts, move |profile| {
                (0..agents)
                    .map(|agent| {
                        let mut h = seed ^ mix(agent as u64 + 1);
                        for a in 0..agents {
                            h = mix(h ^ (((a as u64) << 32) | profile.strategy_of(a) as u64));
                        }
                        hashed_rational(h)
                    })
                    .collect()
            }))
        }),
        (1usize..4, 1usize..4, any::<u64>()).prop_map(|(rows, cols, seed)| {
            let matrix = |salt: u64| {
                Matrix::from_rows(
                    (0..rows)
                        .map(|r| {
                            (0..cols)
                                .map(|c| {
                                    hashed_rational(mix(seed
                                        ^ salt
                                        ^ (((r as u64) << 16) | c as u64)))
                                })
                                .collect()
                        })
                        .collect(),
                )
            };
            GameSpec::Bimatrix(BimatrixGame::new(matrix(1), matrix(2)))
        }),
        (2u64..6, any::<u64>()).prop_map(|(n, seed)| {
            let k = 2 + seed % (n - 1);
            let v = rat((seed % 9 + 2) as i64, 1);
            let c = rat(1, (seed % 3 + 1) as i64);
            GameSpec::Participation(ParticipationParams::new(n, k, v, c).expect("valid params"))
        }),
        (
            prop::collection::vec(0i64..8, 1..5),
            1i64..5,
            0i64..5,
            1usize..6
        )
            .prop_map(|(loads, own, future, agents)| GameSpec::ParallelLinks {
                current_loads: loads.into_iter().map(|l| rat(l, 1)).collect(),
                own_load: rat(own, 1),
                expected_future_load: rat(future, 2),
                expected_future_agents: agents,
            }),
    ]
}

/// Raw observation events for building a [`DecayingPnCounterMap`]: each is
/// one `(replica, verifier, agreed, advance)` step — a recording, the only
/// way real shards ever advance their counters, optionally followed by a
/// generation advance (the epoch clock ticking), so arbitrary maps spread
/// observations across generations exactly like live shards do.
fn arb_counter_events() -> impl Strategy<Value = Vec<(u64, u64, bool, bool)>> {
    prop::collection::vec((0u64..4, 0u64..6, any::<bool>(), any::<bool>()), 0..40)
}

fn counter_map(events: &[(u64, u64, bool, bool)]) -> DecayingPnCounterMap {
    let mut map = DecayingPnCounterMap::new();
    for &(replica, verifier, agreed, advance) in events {
        map.record(replica, Party::Verifier(verifier), agreed);
        if advance {
            map.advance_to(map.current_generation() + 1, ReputationDecay::None);
        }
    }
    map
}

fn arb_version_vector() -> impl Strategy<Value = VersionVector> {
    prop::collection::vec((0u64..8, 0u64..64), 0..6).prop_map(|entries| {
        let mut versions = VersionVector::new();
        for (replica, version) in entries {
            versions.set(replica, version);
        }
        versions
    })
}

/// Every `VerdictReason` variant, uniformly.
fn arb_verdict_reason() -> impl Strategy<Value = VerdictReason> {
    (0..VerdictReason::ALL.len()).prop_map(|code| VerdictReason::ALL[code])
}

/// A proof tree with every recursive proof type in it, shaped by `seed`:
/// the decoder does not judge proofs, so it need not be a valid one.
fn sample_proof(seed: u64) -> Proof {
    let profile = StrategyProfile::new(vec![(seed % 3) as usize, (seed / 3 % 2) as usize]);
    let atom = Prop::Le(
        Term::Add(
            Box::new(Term::utility((seed % 2) as usize, profile.clone())),
            Box::new(Term::constant(hashed_rational(mix(seed)))),
        ),
        Term::constant(hashed_rational(seed)),
    );
    Proof::OrIntro {
        disjuncts: vec![Prop::IsNash(profile), atom.clone()],
        index: 1,
        witness: Box::new(Proof::EvalAtom(atom)),
    }
}

/// §3 advice: a maximality or minimality root, on `seed`'s low bit, over
/// [`sample_proof`] and one classification entry of each verdict kind.
fn equilibrium_rooted_proof(seed: u64) -> Proof {
    let profile = StrategyProfile::new(vec![(seed % 4) as usize, 0]);
    let nash = Box::new(sample_proof(seed));
    let classification = vec![
        ProfileVerdict::NotNash {
            agent: (seed % 2) as usize,
            strategy: (seed / 2 % 3) as usize,
        },
        ProfileVerdict::NotStrictlyBetter(NotAboveWitness::PrefersCandidate {
            agent: (seed / 6 % 2) as usize,
        }),
        ProfileVerdict::NotStrictlyBetter(NotAboveWitness::LeCandidate),
    ];
    if seed & 1 == 0 {
        Proof::MaxNashIntro {
            profile,
            nash,
            classification,
        }
    } else {
        Proof::MinNashIntro {
            profile,
            nash,
            classification,
        }
    }
}

/// Every advice family: a PureNash proof tree, P1 supports, P2 data, a §5
/// root and §6 link advice.
fn arb_advice() -> impl Strategy<Value = Advice> {
    prop_oneof![
        any::<u64>().prop_map(|seed| Advice::PureNash(equilibrium_rooted_proof(seed))),
        (
            prop::collection::vec(0usize..8, 1..4),
            prop::collection::vec(0usize..8, 1..4)
        )
            .prop_map(|(mut r, mut c)| {
                r.sort_unstable();
                r.dedup();
                c.sort_unstable();
                c.dedup();
                Advice::Support(SupportCertificate {
                    row_support: r,
                    col_support: c,
                })
            }),
        (1i64..8, any::<u64>()).prop_map(|(k, seed)| Advice::Private(P2Advice {
            own_strategy: MixedStrategy::try_new(vec![rat(k, 8), rat(8 - k, 8)])
                .expect("a distribution"),
            lambda_own: hashed_rational(seed),
            lambda_opp: hashed_rational(mix(seed)),
        })),
        (any::<u64>(), any::<bool>()).prop_map(|(seed, exact)| {
            let lo = hashed_rational(seed);
            let root = if exact {
                EquilibriumRoot::Exact(lo)
            } else {
                EquilibriumRoot::Bracket {
                    hi: lo.clone() + rat(1, 3),
                    lo,
                }
            };
            Advice::Participation(ParticipationCertificate { root })
        }),
        (prop::collection::vec(0usize..4, 1..5), 0usize..4).prop_map(
            |(assignment, suggested_link)| Advice::Online(OnlineAdviceCertificate {
                assignment,
                suggested_link,
            })
        ),
    ]
}

/// Every message but the retry envelope, with every advice family and
/// gossip frames built the way shards build them.
fn arb_bare_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        any::<u64>().prop_map(|game_id| Message::AdviceRequest { game_id }),
        (any::<u64>(), arb_advice()).prop_map(|(game_id, advice)| Message::AdviceWithProof {
            game_id,
            advice: Box::new(advice),
        }),
        (any::<u64>(), arb_advice()).prop_map(|(game_id, advice)| Message::VerdictRequest {
            game_id,
            advice: Arc::new(advice),
        }),
        (any::<u64>(), any::<bool>(), arb_verdict_reason()).prop_map(
            |(game_id, accepted, detail)| Message::Verdict {
                game_id,
                accepted,
                detail,
            }
        ),
        (any::<u64>(), any::<usize>())
            .prop_map(|(game_id, index)| Message::SupportQuery { game_id, index }),
        (any::<u64>(), 0usize..300, any::<bool>()).prop_map(|(game_id, index, in_support)| {
            Message::SupportAnswer {
                game_id,
                index,
                in_support,
            }
        }),
        (arb_counter_events(), arb_version_vector()).prop_map(|(events, versions)| {
            Message::Gossip {
                delta: counter_map(&events),
                versions,
            }
        }),
    ]
}

/// Every message, about one in four wrapped in a retry envelope.
fn arb_message() -> impl Strategy<Value = Message> {
    (arb_bare_message(), any::<u64>(), 0u32..8).prop_map(|(inner, session, attempt)| {
        if session % 4 == 0 {
            Message::Resilient {
                session,
                attempt,
                inner: Box::new(inner),
            }
        } else {
            inner
        }
    })
}

proptest! {
    /// Every message round-trips exactly, with no trailing bytes.
    #[test]
    fn messages_round_trip(msg in arb_message()) {
        let bytes = msg.to_bytes();
        let mut buf = bytes.clone();
        let decoded = Message::decode(&mut buf).expect("round trip");
        prop_assert_eq!(decoded, msg);
        prop_assert_eq!(buf.len(), 0);
    }

    /// The pooled frame scratch encodes every message byte-identically to
    /// a fresh `Vec`, and once warmed for a message size the steady state
    /// performs zero frame-buffer allocations.
    #[test]
    fn pooled_frame_encoding_matches_fresh(msg in arb_message()) {
        let mut fresh = Vec::new();
        msg.encode(&mut fresh);
        let pooled = with_frame_scratch(|buf| {
            msg.encode(buf);
            buf.clone()
        });
        prop_assert_eq!(&pooled, &fresh);
        prop_assert_eq!(msg.encoded_len(), fresh.len());
        // Steady state: the scratch now fits this message, so repeated
        // length measurements (what `Bus::send` does per frame) must not
        // touch the allocator again.
        let misses_before = frame_pool_misses();
        for _ in 0..8 {
            prop_assert_eq!(msg.encoded_len(), fresh.len());
        }
        prop_assert_eq!(
            frame_pool_misses(),
            misses_before,
            "steady-state frame measurement allocated"
        );
    }

    /// `Bus::send_batch` accounting is byte-identical to N sequential
    /// `send`s of the same frames, for arbitrary traffic mixes.
    #[test]
    fn send_batch_matches_sequential_sends(
        game_ids in prop::collection::vec(any::<u64>(), 1..20),
        targets in prop::collection::vec(0u64..3, 1..20),
    ) {
        let a = Party::Agent(0);
        let build = || {
            let bus = Bus::new().with_delivery_log();
            // Endpoints must stay alive or the queues disconnect.
            let mut endpoints = vec![bus.register(a)];
            for id in 0..3u64 {
                endpoints.push(bus.register(Party::Verifier(id)));
            }
            // One dropped link in the mix.
            bus.drop_link(a, Party::Verifier(2));
            (bus, endpoints)
        };
        let (batched, _batched_eps) = build();
        let (sequential, _sequential_eps) = build();
        let mut batch: Vec<(Party, Party, Message)> = game_ids
            .iter()
            .zip(targets.iter().cycle())
            .map(|(&g, &t)| (a, Party::Verifier(t), Message::AdviceRequest { game_id: g }))
            .collect();
        let replay = batch.clone();
        batched.send_batch(&mut batch).unwrap();
        for (from, to, msg) in replay {
            sequential.send(from, to, msg).unwrap();
        }
        let batched_log = checked_log(&batched);
        prop_assert!(!batched_log.is_empty(), "every frame is accounted");
        prop_assert_eq!(batched_log, checked_log(&sequential));
        prop_assert_eq!(batched.total_bytes(), sequential.total_bytes());
        prop_assert_eq!(batched.delivered_bytes(), sequential.delivered_bytes());
        for t in 0..3u64 {
            prop_assert_eq!(
                batched.bytes_between(a, Party::Verifier(t)),
                sequential.bytes_between(a, Party::Verifier(t))
            );
        }
    }

    /// Decoding arbitrary bytes never panics — it errors or produces a
    /// value that re-encodes to a prefix-consistent message.
    #[test]
    fn decoder_is_total(raw in prop::collection::vec(any::<u8>(), 0..200)) {
        let mut buf = WireBytes::from(raw);
        let _ = Message::decode(&mut buf); // must not panic
    }

    /// The law's second direction: a decoder accepts only what its encoder
    /// writes. Whatever `Message::decode` accepts from a frame with one
    /// byte flipped, inserted or deleted, the bytes it consumed are
    /// exactly the encoding of the message it returned.
    #[test]
    fn decoded_frames_are_their_own_encoding(
        msg in arb_message(),
        edit in 0u8..3,
        at in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let mut frame = msg.to_bytes().to_vec();
        let at = at % (frame.len() + 1);
        match edit {
            0 if at < frame.len() => frame[at] ^= byte.max(1),
            1 => frame.insert(at, byte),
            _ if at < frame.len() => {
                frame.remove(at);
            }
            _ => {}
        }
        let mut buf = WireBytes::from(frame.clone());
        if let Ok(decoded) = Message::decode(&mut buf) {
            let consumed = &frame[..frame.len() - buf.len()];
            prop_assert_eq!(consumed, &decoded.to_bytes().to_vec()[..]);
        }
    }

    /// Rational wire encoding round-trips arbitrary values.
    #[test]
    fn rationals_round_trip(n in any::<i64>(), d in 1i64..=i64::MAX) {
        let r = Rational::new(n, d);
        let bytes = r.to_bytes();
        let mut buf = bytes;
        prop_assert_eq!(Rational::decode(&mut buf).unwrap(), r);
    }
}

/// At the edges of the machine-word representation, every rational
/// round-trips through the wire in its minimal form: the integer bit is
/// set exactly when the denominator is 1, each magnitude's last LEB128
/// group is non-zero (unless the magnitude is 0), and so the frame is
/// exactly `1 + leb_len(|num|) + [den ≠ 1] · leb_len(den)` bytes.
#[test]
fn rational_encoding_round_trips_minimally_at_word_edges() {
    use ra_exact::BigInt;
    let edges: Vec<BigInt> = [
        0i128,
        1,
        -1,
        i64::MAX.into(),
        i64::MIN.into(),
        i64::MIN as i128 + 1,
        i64::MAX as i128 + 1,
        u64::MAX.into(),
        -i128::from(u64::MAX),
        1 << 64,
        3_037_000_500,
        i128::MAX,
        i128::MIN,
    ]
    .into_iter()
    .map(BigInt::from)
    .chain(["-123456789012345678901234567890123456789".parse().unwrap()])
    .collect();
    let leb_len = |v: &BigInt| v.bits().div_ceil(7).max(1) as usize;
    for num in &edges {
        for den in edges.iter().filter(|d| !d.is_zero()) {
            let r = Rational::from_bigints(num.clone(), den.clone());
            let bytes = r.to_bytes();
            let frame = bytes.as_slice();
            let integer = r.is_integer();
            assert_eq!(
                frame[0],
                u8::from(r.is_negative()) | u8::from(integer) << 1,
                "{r}"
            );
            let num_len = leb_len(r.numer());
            let den_len = if integer { 0 } else { leb_len(r.denom()) };
            assert_eq!(frame.len(), 1 + num_len + den_len, "{r}");
            for magnitude in [&frame[1..1 + num_len], &frame[1 + num_len..]] {
                if let [.., head, last] = magnitude {
                    assert!(head & 0x80 != 0 && *last != 0, "{r}: {frame:02x?}");
                }
            }
            let mut buf = bytes;
            assert_eq!(Rational::decode(&mut buf).unwrap(), r);
            assert!(!buf.has_remaining());
        }
    }
}

proptest! {
    /// Reputation: agreeing with the majority never lowers a score;
    /// disagreeing never raises it; scores move by exactly one per pool.
    #[test]
    fn reputation_update_rule(votes in prop::collection::vec(any::<bool>(), 1..9)) {
        let store = LocalReputation::new();
        let verdicts: Vec<(Party, bool)> = votes
            .iter()
            .enumerate()
            .map(|(i, &v)| (Party::Verifier(i as u64), v))
            .collect();
        let before: Vec<i64> =
            verdicts.iter().map(|&(p, _)| store.score(p)).collect();
        let outcome = store.pool_verdicts(&verdicts);
        let accepts = votes.iter().filter(|&&v| v).count();
        prop_assert_eq!(outcome.accepted, accepts > votes.len() - accepts);
        for (i, &(p, vote)) in verdicts.iter().enumerate() {
            let delta = store.score(p) - before[i];
            if vote == outcome.accepted {
                prop_assert_eq!(delta, 1);
            } else {
                prop_assert_eq!(delta, -1);
            }
        }
    }

    /// Gossip CRDT: merge is commutative — either merge order converges
    /// on the same state.
    #[test]
    fn pn_counter_merge_commutes(
        a in arb_counter_events(),
        b in arb_counter_events(),
    ) {
        let (a, b) = (counter_map(&a), counter_map(&b));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(ab, ba);
    }

    /// Gossip CRDT: merge is associative — grouping of merges is
    /// irrelevant, so gossip rounds can batch deltas arbitrarily.
    #[test]
    fn pn_counter_merge_is_associative(
        a in arb_counter_events(),
        b in arb_counter_events(),
        c in arb_counter_events(),
    ) {
        let (a, b, c) = (counter_map(&a), counter_map(&b), counter_map(&c));
        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(ab_c, a_bc);
    }

    /// Gossip CRDT: merge is idempotent — re-delivering the same state
    /// (a re-sync, a duplicated gossip message) changes nothing.
    #[test]
    fn pn_counter_merge_is_idempotent(
        a in arb_counter_events(),
        b in arb_counter_events(),
    ) {
        let (a, b) = (counter_map(&a), counter_map(&b));
        let mut once = a.clone();
        once.merge(&b);
        let mut twice = once.clone();
        twice.merge(&b);
        prop_assert_eq!(&twice, &once);
        let mut self_merge = a.clone();
        self_merge.merge(&a);
        prop_assert_eq!(self_merge, a);
    }

    /// Decay is a pure read-side weighting over the merged lattice state:
    /// merging in either order yields identical decayed reads (merge laws
    /// above give identical *states*; this pins the read path), and aging
    /// any map by `retention` generations with no new observations decays
    /// every verifier to exactly zero — ancient history is forgiven — with
    /// the aged-out generations pruned from the map.
    #[test]
    fn decay_reads_are_merge_stable_and_eventually_forgive(
        a in arb_counter_events(),
        b in arb_counter_events(),
        retention in 1u32..6,
    ) {
        let (a, b) = (counter_map(&a), counter_map(&b));
        let decay = ReputationDecay::HalfLife { retention };
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        for verifier in ab.verifiers() {
            prop_assert_eq!(
                ab.decayed_value(verifier, decay),
                ba.decayed_value(verifier, decay),
                "merge order changed a decayed read for {}", verifier
            );
        }
        let mut aged = ab.clone();
        aged.advance_to(aged.current_generation() + u64::from(retention), decay);
        for verifier in ab.verifiers() {
            prop_assert_eq!(
                aged.decayed_value(verifier, decay),
                0,
                "verifier {} not forgiven after {} generations", verifier, retention
            );
        }
        prop_assert!(aged.is_empty(), "aged-out generations are pruned");
    }

    /// The gossip wire payload round-trips arbitrary PN-counter delta
    /// maps exactly — generation cursor, slots, tallies and version
    /// vector — with no trailing bytes, both bare and framed as a
    /// `Message::Gossip`.
    #[test]
    fn gossip_delta_maps_round_trip(
        events in arb_counter_events(),
        versions in arb_version_vector(),
    ) {
        let delta = counter_map(&events);
        let bytes = delta.to_bytes();
        let mut buf = bytes.clone();
        let decoded = DecayingPnCounterMap::decode(&mut buf).expect("delta decodes");
        prop_assert_eq!(&decoded, &delta);
        prop_assert_eq!(buf.len(), 0);
        prop_assert_eq!(decoded.current_generation(), delta.current_generation());
        let msg = Message::Gossip { delta, versions };
        let framed = msg.to_bytes();
        let mut buf = framed.clone();
        prop_assert_eq!(Message::decode(&mut buf).expect("frame decodes"), msg);
        prop_assert_eq!(buf.len(), 0);
    }

    /// Truncating a gossip frame anywhere yields a clean decode error,
    /// never a panic or a silent success.
    #[test]
    fn truncated_gossip_frames_rejected(
        events in arb_counter_events(),
        versions in arb_version_vector(),
        cut_fraction in 0.0f64..1.0,
    ) {
        let delta = counter_map(&events);
        let msg = Message::Gossip { delta, versions };
        let bytes = msg.to_bytes();
        let cut = ((bytes.len() as f64) * cut_fraction) as usize;
        if cut < bytes.len() {
            let mut truncated = bytes.slice(0..cut);
            prop_assert!(Message::decode(&mut truncated).is_err());
        }
    }

    /// The versioned-pull protocol is *transparent*: an arbitrary
    /// interleaving of per-replica recordings, pushes and watermarked
    /// pulls leaves every replica in exactly the state a full-snapshot
    /// merge would have produced — the incremental deltas lose nothing
    /// and invent nothing.
    ///
    /// Script actions per step: record an observation on a replica, then
    /// 0 = push that replica, 1 = pull it, 2 = barrier-sync all replicas,
    /// 3 = do nothing.
    #[test]
    fn watermarked_pulls_match_full_snapshot_merges(
        script in prop::collection::vec(
            (0usize..3, 0u64..5, any::<bool>(), 0u8..4),
            1..60,
        ),
    ) {
        const REPLICAS: usize = 3;
        let plane = GossipPlane::over_transport_with(ReputationDecay::None, Arc::new(Bus::new()));
        let mut locals = vec![DecayingPnCounterMap::new(); REPLICAS];
        let mut seens = vec![VersionVector::new(); REPLICAS];
        // Reference: the plain join of everything ever published, merged
        // wholesale into a snapshot per replica.
        let mut reference_hub = DecayingPnCounterMap::new();
        let mut references = vec![DecayingPnCounterMap::new(); REPLICAS];
        let push =
            |r: usize,
             locals: &[DecayingPnCounterMap],
             reference_hub: &mut DecayingPnCounterMap| {
                plane.publish_from(r as u64, locals[r].replica_slice(r as u64));
                reference_hub.merge(&locals[r].replica_slice(r as u64));
            };
        let pull = |r: usize,
                    locals: &mut [DecayingPnCounterMap],
                    seens: &mut [VersionVector],
                    references: &mut [DecayingPnCounterMap],
                    reference_hub: &DecayingPnCounterMap| {
            plane.pull_into(r as u64, &mut locals[r], &mut seens[r]);
            references[r].merge(reference_hub);
        };
        for &(replica, verifier, agreed, action) in &script {
            locals[replica].record(replica as u64, Party::Verifier(verifier), agreed);
            references[replica].record(replica as u64, Party::Verifier(verifier), agreed);
            match action {
                0 => push(replica, &locals, &mut reference_hub),
                1 => pull(replica, &mut locals, &mut seens, &mut references, &reference_hub),
                2 => {
                    for r in 0..REPLICAS {
                        push(r, &locals, &mut reference_hub);
                    }
                    for r in 0..REPLICAS {
                        pull(r, &mut locals, &mut seens, &mut references, &reference_hub);
                    }
                }
                _ => {}
            }
        }
        // Final barrier, then every replica must agree with its
        // full-snapshot twin on every verifier's exact slots.
        for r in 0..REPLICAS {
            push(r, &locals, &mut reference_hub);
        }
        for r in 0..REPLICAS {
            pull(r, &mut locals, &mut seens, &mut references, &reference_hub);
        }
        for r in 0..REPLICAS {
            prop_assert_eq!(
                &locals[r],
                &references[r],
                "replica {} diverged from the full-snapshot merge",
                r
            );
        }
    }

    /// Ledger: any single-record value tamper is detected by audit.
    #[test]
    fn ledger_tamper_detected(
        rounds in 2usize..8,
        tamper_at in 0usize..8,
        new_value in -1000i64..1000,
    ) {
        let key = SigningKey::derive("inventor");
        let mut ledger = StatisticsLedger::new();
        for r in 0..rounds {
            ledger.publish(&key, (r + 1) as u64, vec![Rational::from(r as i64)]);
        }
        prop_assert!(ledger.audit(&key).is_ok());
        let idx = tamper_at % rounds;
        let mut tampered = ledger.clone();
        // Direct field surgery is not possible from outside (fields are
        // public in the record struct); emulate an attacker rewriting one
        // published value.
        let mut records = tampered.records().to_vec();
        if records[idx].values[0] == Rational::from(new_value) {
            return Ok(()); // no-op tamper
        }
        records[idx].values[0] = Rational::from(new_value);
        // Rebuild a ledger bytewise: audit must fail at or after idx.
        tampered = StatisticsLedger::new();
        let _ = tampered;
        let rebuilt = LedgerProbe { records };
        prop_assert!(rebuilt.audit_fails(&key));
    }

    /// The spec digest is content-addressed and canonical: pooled and
    /// fresh buffers encode identical bytes, the digest is exactly the
    /// SHA-256 of those bytes, and a decode/re-digest round trip is a
    /// fixed point.
    #[test]
    fn spec_digest_is_canonical_and_stable(spec in arb_game_spec()) {
        let mut fresh = Vec::new();
        spec.encode(&mut fresh);
        let pooled = with_frame_scratch(|buf| {
            spec.encode(buf);
            buf.clone()
        });
        prop_assert_eq!(&pooled, &fresh, "pooled and fresh encodings differ");
        prop_assert_eq!(spec_digest(&spec), sha256(&fresh));
        prop_assert_eq!(sha256_wire(&spec), spec_digest(&spec));
        let mut buf = spec.to_bytes();
        let decoded = GameSpec::decode(&mut buf).expect("canonical bytes decode");
        prop_assert_eq!(buf.len(), 0, "trailing bytes after decode");
        prop_assert_eq!(spec_digest(&decoded), spec_digest(&spec));
        prop_assert_eq!(decoded, spec);
    }

    /// A strategic game's memoized digest is the SHA-256 of a fresh
    /// encoding of its spec, whether read cold (the first touch computes
    /// it) or warm (a load), and `spec_digest` serves the same value.
    #[test]
    fn strategic_digest_memo_matches_a_fresh_encoding(game in arb_strategic_game()) {
        let spec = GameSpec::Strategic(game.clone());
        let mut fresh = Vec::new();
        spec.encode(&mut fresh);
        let expected = sha256(&fresh);
        let cold = game.spec_digest();
        let warm = game.spec_digest();
        prop_assert_eq!(cold, expected, "cold read");
        prop_assert_eq!(warm, expected, "warm read");
        prop_assert_eq!(spec_digest(&spec), expected);
    }

    /// A certificate-cache hit is observably identical to a cold
    /// consultation: advice, certificate adoption, majority and advice
    /// bytes all match what a cacheless twin authority produces for the
    /// same consultation stream, for arbitrary specs of every family.
    #[test]
    fn replay_cache_hits_equal_cold_consultations(
        spec in arb_game_spec(),
        agents in 1u64..5,
    ) {
        let panel = [VerifierBehavior::Honest; 3];
        let mut cold =
            RationalityAuthority::new(Inventor::new(0, InventorBehavior::Honest), &panel);
        let cache = Arc::new(CertCache::new(CertCacheConfig::replay(64)));
        let mut warm =
            RationalityAuthority::new(Inventor::new(0, InventorBehavior::Honest), &panel);
        warm.set_cert_cache(Arc::clone(&cache));
        // Prime the cache, then every later consult is a cache hit
        // (unless the inventor stayed silent — no advice, nothing cached).
        let primed = warm.consult(0, &spec);
        let reference = cold.consult(0, &spec);
        prop_assert_eq!(primed.adopted, reference.adopted);
        for agent in 1..=agents {
            let hit = warm.consult(agent, &spec);
            let fresh = cold.consult(agent, &spec);
            if primed.advice.is_some() {
                prop_assert!(hit.cached, "second consult of a cached spec must hit");
                prop_assert_eq!(hit.session_bytes, 0, "hits ship zero bytes");
            } else {
                prop_assert!(!hit.cached, "silent outcomes are never cached");
            }
            prop_assert_eq!(&hit.advice, &fresh.advice);
            prop_assert_eq!(hit.adopted, fresh.adopted);
            prop_assert_eq!(&hit.majority, &fresh.majority);
            prop_assert_eq!(hit.advice_bytes, fresh.advice_bytes);
        }
        prop_assert_eq!(
            cache.stats().replay_failures, 0,
            "honest kernel replays always agree with their stored verdict"
        );
    }

    /// Bus byte accounting equals the sum of encoded message sizes.
    #[test]
    fn bus_accounting_exact(game_ids in prop::collection::vec(any::<u64>(), 1..20)) {
        let bus = Bus::new();
        let a = Party::Agent(0);
        let b = Party::Inventor(0);
        let _ep_a = bus.register(a);
        let _ep_b = bus.register(b);
        let mut expected = 0usize;
        for &g in &game_ids {
            let msg = Message::AdviceRequest { game_id: g };
            expected += msg.encoded_len();
            bus.send(a, b, msg).unwrap();
        }
        prop_assert_eq!(bus.total_bytes(), expected);
        prop_assert_eq!(bus.message_count(), game_ids.len());
    }
}

/// Minimal attacker-view of a ledger for the tamper test (drives the same
/// audit logic through the public API).
struct LedgerProbe {
    records: Vec<ra_authority::StatisticsRecord>,
}

impl LedgerProbe {
    fn audit_fails(&self, key: &SigningKey) -> bool {
        // Re-run the audit rules manually via the public record API.
        let mut prev_hash = [0u8; 32];
        for record in &self.records {
            if record.prev_hash != prev_hash {
                return true;
            }
            // Reconstruct the signed message exactly as publish() did.
            let mut bytes = Vec::new();
            bytes.extend_from_slice(&record.round.to_be_bytes());
            for v in &record.values {
                bytes.extend_from_slice(v.to_string().as_bytes());
                bytes.push(b'|');
            }
            bytes.extend_from_slice(&record.prev_hash);
            if !key.verify(&bytes, &record.signature) {
                return true;
            }
            prev_hash = record.hash();
        }
        false
    }
}

// ---------------------------------------------------------------------------
// Network-vs-serial ledger equivalence (the bus against a reference model).
// ---------------------------------------------------------------------------

/// One bus operation in the model-based equivalence test. Party indices
/// are drawn from a small universe (see [`universe_party`]) so traffic
/// mixes routinely hit unknown parties, dropped links, replaced endpoints
/// and disconnections.
#[derive(Clone, Debug)]
enum BusOp {
    /// Register (or re-register) a party.
    Register(u64),
    /// Remove a party's registration via `Bus::disconnect`.
    Disconnect(u64),
    /// Drop a party's `Endpoint` handle while leaving it registered, so
    /// later sends fail with `Disconnected` (accounted, undelivered).
    DropEndpoint(u64),
    /// Inject a fault-drop rule `from → to`.
    DropLink(u64, u64),
    /// Clear all drop rules.
    Heal,
    /// One `Bus::send`.
    Send(u64, u64, u64),
    /// One `Bus::send_batch` of `(from, to, game_id)` frames.
    SendBatch(Vec<(u64, u64, u64)>),
}

/// Maps a universe index to a concrete party, mixing variants so the
/// ledger keys see different tags.
fn universe_party(idx: u64) -> Party {
    match idx % 6 {
        0 => Party::Agent(0),
        1 => Party::Agent(1),
        2 => Party::Agent(2),
        3 => Party::Verifier(0),
        4 => Party::Verifier(1),
        _ => Party::Inventor(0),
    }
}

fn arb_bus_op() -> impl Strategy<Value = BusOp> {
    prop_oneof![
        (0u64..6).prop_map(BusOp::Register),
        (0u64..6).prop_map(BusOp::Disconnect),
        (0u64..6).prop_map(BusOp::DropEndpoint),
        ((0u64..6), (0u64..6)).prop_map(|(f, t)| BusOp::DropLink(f, t)),
        Just(BusOp::Heal),
        ((0u64..6), (0u64..6), any::<u64>()).prop_map(|(f, t, g)| BusOp::Send(f, t, g)),
        prop::collection::vec(((0u64..6), (0u64..6), any::<u64>()), 0..6)
            .prop_map(BusOp::SendBatch),
    ]
}

/// `transport`'s delivery log, checked complete: one record per frame the
/// ledger counted, so while any frame was sent a comparison against it
/// cannot pass by comparing two empty logs.
fn checked_log(transport: &dyn Transport) -> Vec<ra_authority::DeliveryRecord> {
    let log = transport.delivery_log();
    assert_eq!(
        log.len(),
        transport.message_count(),
        "the log records every frame"
    );
    log
}

/// A serial ledger, replayed as a reference model: one record vector,
/// running totals and a pair map updated one send at a time — unknown
/// parties short-circuit before accounting, fault-dropped and
/// dead-endpoint sends are accounted as undelivered.
#[derive(Default)]
struct SerialLedgerModel {
    records: Vec<ra_authority::DeliveryRecord>,
    total_bytes: usize,
    delivered_bytes: usize,
    pair_bytes: std::collections::HashMap<(Party, Party), usize>,
    registered: std::collections::HashSet<Party>,
    dead_endpoints: std::collections::HashSet<Party>,
    drop_rules: std::collections::HashSet<(Party, Party)>,
}

impl SerialLedgerModel {
    /// Replays one send; returns what the real bus must return for it.
    fn send(&mut self, from: Party, to: Party, bytes: usize) -> Result<(), ra_authority::BusError> {
        let dropped = self.drop_rules.contains(&(from, to));
        let result = if dropped {
            Ok(())
        } else if !self.registered.contains(&to) {
            // Unknown party: short-circuit before any accounting.
            return Err(ra_authority::BusError::UnknownParty(to));
        } else if self.dead_endpoints.contains(&to) {
            Err(ra_authority::BusError::Disconnected(to))
        } else {
            Ok(())
        };
        let delivered = !dropped && result.is_ok();
        self.total_bytes += bytes;
        if delivered {
            self.delivered_bytes += bytes;
        }
        *self.pair_bytes.entry((from, to)).or_insert(0) += bytes;
        self.records.push(ra_authority::DeliveryRecord {
            from,
            to,
            bytes,
            delivered,
        });
        result
    }
}

proptest! {
    /// The tentpole equivalence: for arbitrary operation sequences —
    /// registration churn, disconnects, dead endpoints, drop rules and
    /// mixed `send`/`send_batch` traffic — the bus ledger's accessors
    /// are field-equal to the serial ledger replayed as a model: same
    /// delivery log, same totals, same per-pair bytes, same errors. (The
    /// id keeps the name it had when the bus ledger was sender-striped.)
    #[test]
    fn striped_ledger_matches_serial_model(
        ops in prop::collection::vec(arb_bus_op(), 1..40),
    ) {
        let bus = Bus::new().with_delivery_log();
        let mut model = SerialLedgerModel::default();
        // Endpoints held here stay connected; removing one frees its
        // queue while the registration stays (the Disconnected case).
        let mut live_endpoints: std::collections::HashMap<u64, ra_authority::Endpoint> =
            std::collections::HashMap::new();
        for op in ops {
            match op {
                BusOp::Register(idx) => {
                    let p = universe_party(idx);
                    live_endpoints.insert(idx, bus.register(p));
                    model.registered.insert(p);
                    model.dead_endpoints.remove(&p);
                }
                BusOp::Disconnect(idx) => {
                    let p = universe_party(idx);
                    bus.disconnect(p);
                    live_endpoints.remove(&idx);
                    model.registered.remove(&p);
                    model.dead_endpoints.remove(&p);
                }
                BusOp::DropEndpoint(idx) => {
                    let p = universe_party(idx);
                    live_endpoints.remove(&idx);
                    if model.registered.contains(&p) {
                        model.dead_endpoints.insert(p);
                    }
                }
                BusOp::DropLink(f, t) => {
                    let (f, t) = (universe_party(f), universe_party(t));
                    bus.drop_link(f, t);
                    model.drop_rules.insert((f, t));
                }
                BusOp::Heal => {
                    bus.heal();
                    model.drop_rules.clear();
                }
                BusOp::Send(f, t, game_id) => {
                    let (f, t) = (universe_party(f), universe_party(t));
                    let msg = Message::AdviceRequest { game_id };
                    let bytes = msg.encoded_len();
                    prop_assert_eq!(bus.send(f, t, msg), model.send(f, t, bytes));
                }
                BusOp::SendBatch(frames) => {
                    let mut batch: Vec<(Party, Party, Message)> = frames
                        .iter()
                        .map(|&(f, t, g)| {
                            (
                                universe_party(f),
                                universe_party(t),
                                Message::AdviceRequest { game_id: g },
                            )
                        })
                        .collect();
                    let mut first_error = Ok(());
                    for (f, t, msg) in &batch {
                        let result = model.send(*f, *t, msg.encoded_len());
                        if first_error.is_ok() {
                            first_error = result;
                        }
                    }
                    prop_assert_eq!(bus.send_batch(&mut batch), first_error);
                }
            }
        }
        // Field equality of every accounting view.
        prop_assert_eq!(checked_log(&bus), model.records);
        prop_assert_eq!(bus.total_bytes(), model.total_bytes);
        prop_assert_eq!(bus.delivered_bytes(), model.delivered_bytes);
        prop_assert_eq!(bus.message_count(), bus.delivery_log().len());
        for f in 0..6u64 {
            for t in 0..6u64 {
                let pair = (universe_party(f), universe_party(t));
                prop_assert_eq!(
                    bus.bytes_between(pair.0, pair.1),
                    model.pair_bytes.get(&pair).copied().unwrap_or(0),
                    "pair {} -> {}", pair.0, pair.1
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Bus vs lossless SimNet equivalence (the PR 9 transport boundary).
// ---------------------------------------------------------------------------

/// Replays an operation sequence over any [`Transport`], calling
/// `before(i)` ahead of op `i`, and returns every observable: per-op
/// results, the full delivery log, the counters, the per-pair matrix, and
/// what each still-live endpoint actually received.
#[allow(clippy::type_complexity)]
fn replay_ops(
    transport: &dyn Transport,
    ops: &[BusOp],
    before: &mut dyn FnMut(usize),
) -> (
    Vec<Result<(), ra_authority::BusError>>,
    Vec<ra_authority::DeliveryRecord>,
    usize,
    usize,
    Vec<usize>,
    Vec<(u64, Vec<(Party, Message)>)>,
) {
    let mut results = Vec::new();
    let mut live_endpoints: std::collections::HashMap<u64, ra_authority::Endpoint> =
        std::collections::HashMap::new();
    for (i, op) in ops.iter().enumerate() {
        before(i);
        match op {
            BusOp::Register(idx) => {
                live_endpoints.insert(*idx, transport.register(universe_party(*idx)));
            }
            BusOp::Disconnect(idx) => {
                transport.disconnect(universe_party(*idx));
                live_endpoints.remove(idx);
            }
            BusOp::DropEndpoint(idx) => {
                live_endpoints.remove(idx);
            }
            BusOp::DropLink(f, t) => {
                transport.drop_link(universe_party(*f), universe_party(*t));
            }
            BusOp::Heal => transport.heal(),
            BusOp::Send(f, t, game_id) => {
                results.push(transport.send(
                    universe_party(*f),
                    universe_party(*t),
                    Message::AdviceRequest { game_id: *game_id },
                ));
            }
            BusOp::SendBatch(frames) => {
                let mut batch: Vec<(Party, Party, Message)> = frames
                    .iter()
                    .map(|&(f, t, g)| {
                        (
                            universe_party(f),
                            universe_party(t),
                            Message::AdviceRequest { game_id: g },
                        )
                    })
                    .collect();
                results.push(transport.send_batch(&mut batch));
            }
        }
    }
    transport.settle();
    let pair_matrix: Vec<usize> = (0..6u64)
        .flat_map(|f| (0..6u64).map(move |t| (f, t)))
        .map(|(f, t)| transport.bytes_between(universe_party(f), universe_party(t)))
        .collect();
    let mut inboxes: Vec<(u64, Vec<(Party, Message)>)> = live_endpoints
        .iter()
        .map(|(&idx, ep)| (idx, ep.drain()))
        .collect();
    inboxes.sort_by_key(|(idx, _)| *idx);
    (
        results,
        checked_log(transport),
        transport.total_bytes(),
        transport.delivered_bytes(),
        pair_matrix,
        inboxes,
    )
}

proptest! {
    /// The PR 9 equivalence: over arbitrary traffic mixes — registration
    /// churn, dead endpoints, drop rules, mixed send/send_batch — a
    /// lossless zero-latency [`SimNet`] is byte-identical to the [`Bus`]
    /// at the [`Transport`] boundary: same per-op results, same delivery
    /// log (field-equal records in the same order), same totals, same
    /// per-pair bytes, and the same frames in every inbox.
    #[test]
    fn lossless_simnet_is_byte_identical_to_bus(
        ops in prop::collection::vec(arb_bus_op(), 1..40),
        seed in any::<u64>(),
    ) {
        let bus = Bus::new().with_delivery_log();
        let sim = SimNet::lossless(seed).with_delivery_log();
        let over_bus = replay_ops(&bus, &ops, &mut |_| {});
        let over_sim = replay_ops(&sim, &ops, &mut |_| {});
        prop_assert_eq!(&over_bus.0, &over_sim.0, "per-op results diverged");
        prop_assert_eq!(&over_bus.1, &over_sim.1, "delivery logs diverged");
        prop_assert_eq!(over_bus.2, over_sim.2, "total_bytes diverged");
        prop_assert_eq!(over_bus.3, over_sim.3, "delivered_bytes diverged");
        prop_assert_eq!(&over_bus.4, &over_sim.4, "per-pair bytes diverged");
        prop_assert_eq!(&over_bus.5, &over_sim.5, "delivered inboxes diverged");
    }

    /// A scripted split is exactly its drop rules: a lossless [`SimNet`]
    /// whose schedule splits `left` from `right` before op `split_at` (and
    /// heals before op `split_at + heal_gap`) is byte-identical to a
    /// [`Bus`] given every left×right pair as a drop rule, in both
    /// directions, before the same op (and healed before the same op).
    #[test]
    fn a_scheduled_split_is_its_drop_rules(
        ops in prop::collection::vec(arb_bus_op(), 1..40),
        left in prop::collection::vec(0u64..6, 1..3),
        right in prop::collection::vec(0u64..6, 1..3),
        split_at in 0usize..40,
        heal_gap in 0usize..60,
        seed in any::<u64>(),
    ) {
        let heal_at = split_at + heal_gap;
        let parties = |side: &[u64]| side.iter().map(|&i| universe_party(i)).collect::<Vec<_>>();
        let (left, right) = (parties(&left), parties(&right));
        let bus = Bus::new().with_delivery_log();
        let over_bus = replay_ops(&bus, &ops, &mut |i| {
            if i == split_at {
                for &l in &left {
                    for &r in &right {
                        bus.drop_link(l, r);
                        bus.drop_link(r, l);
                    }
                }
            }
            if i == heal_at {
                bus.heal();
            }
        });
        // The split fires at tick 1 and the heal at tick 2; a lossless
        // net's clock moves only when advanced.
        let sim = SimNet::new(SimNetConfig {
            seed,
            schedule: vec![
                NetEvent::Split { at: 1, left, right },
                NetEvent::Heal { at: 2 },
            ],
            ..SimNetConfig::default()
        })
        .with_delivery_log();
        let over_sim = replay_ops(&sim, &ops, &mut |i| {
            if i == split_at {
                sim.advance(1);
            }
            if i == heal_at {
                sim.advance(1);
            }
        });
        prop_assert_eq!(&over_bus.0, &over_sim.0, "per-op results diverged");
        prop_assert_eq!(&over_bus.1, &over_sim.1, "delivery logs diverged");
        prop_assert_eq!(over_bus.2, over_sim.2, "total_bytes diverged");
        prop_assert_eq!(over_bus.3, over_sim.3, "delivered_bytes diverged");
        prop_assert_eq!(&over_bus.4, &over_sim.4, "per-pair bytes diverged");
        prop_assert_eq!(&over_bus.5, &over_sim.5, "delivered inboxes diverged");
    }
}

proptest! {
    /// One trusted set: over random pool histories on both backends —
    /// deviant voters excluded, undecided rounds with silent members, a
    /// peer shard's gossiped dissent, votes from unregistered ids, and
    /// verifiers outside `reach` never pooled at all — the authority's
    /// trusted read is its registered panel filtered by `is_trusted`.
    #[test]
    fn trusted_verifiers_is_the_panel_filtered_by_is_trusted(
        panel in 1usize..6,
        gossip in any::<bool>(),
        reach in any::<u8>(),
        deviants in any::<u8>(),
        rounds in prop::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 0..64),
    ) {
        let plane = Arc::new(GossipPlane::new());
        let shard = Arc::new(GossipReputation::new(0, Arc::clone(&plane)));
        let peer = GossipReputation::new(1, plane);
        let backend: Arc<dyn ReputationBackend> = if gossip {
            shard.clone()
        } else {
            Arc::new(LocalReputation::new())
        };
        let authority = RationalityAuthority::with_transport(
            Inventor::new(0, InventorBehavior::Honest),
            &vec![VerifierBehavior::Honest; panel],
            Arc::clone(&backend),
            Arc::new(Bus::new()),
        );
        let ids = |mask: u8| (0..8u64).filter(move |i| mask >> i & 1 == 1);
        for (voters, silent, on_peer) in rounds {
            let verdicts: Vec<(Party, bool)> = ids(voters & reach)
                .map(|i| (Party::Verifier(i), deviants >> i & 1 == 0))
                .collect();
            if verdicts.is_empty() {
                continue;
            }
            let silent: Vec<Party> = ids(silent & reach & !voters).map(Party::Verifier).collect();
            if gossip && on_peer {
                peer.pool_panel(&verdicts, &silent);
                peer.push();
                shard.pull();
            } else {
                backend.pool_panel(&verdicts, &silent);
            }
        }
        let registered = (0..panel as u64).map(Party::Verifier);
        let expected: Vec<Party> =
            registered.filter(|&v| authority.reputation().is_trusted(v)).collect();
        let read = authority.trusted_verifiers();
        for i in (0..panel as u64).filter(|i| reach >> i & 1 == 0) {
            prop_assert!(read.contains(&Party::Verifier(i)), "never-pooled V{} missing", i);
        }
        prop_assert_eq!(read, expected);
    }
}

/// A resilient authority over a seeded [`SimNet`] with the given link
/// profile, ready for the retransmit-accounting properties below.
fn resilient_over_simnet(seed: u64, link: LinkProfile) -> RationalityAuthority {
    let net = SimNet::new(SimNetConfig {
        seed,
        default_link: link,
        ..SimNetConfig::default()
    });
    let mut authority = RationalityAuthority::with_transport(
        Inventor::new(0, InventorBehavior::Honest),
        &[VerifierBehavior::Honest; 3],
        Arc::new(LocalReputation::new()),
        Arc::new(net),
    );
    authority.set_resilience(Some(ResilienceConfig::default()));
    authority
}

proptest! {
    /// Lemma 1's resilient ledger split: over arbitrary loss seeds,
    /// drop/duplicate probabilities and latency windows, every wire byte
    /// is classified exactly once — `total == goodput + retransmit` —
    /// whether the sessions completed, degraded or starved.
    #[test]
    fn retransmit_accounting_is_exhaustive_and_exclusive(
        seed in any::<u64>(),
        loss in 0.0f64..0.5,
        dup in 0.0f64..0.3,
        latency in 0u64..3,
        rounds in 1usize..6,
    ) {
        let mut authority = resilient_over_simnet(seed, LinkProfile {
            latency_min: 0,
            latency_max: latency,
            drop_prob: loss,
            duplicate_probability: dup,
        });
        let spec = GameSpec::Strategic(ra_games::named::prisoners_dilemma().to_strategic());
        for round in 0..rounds as u64 {
            // Budget exhaustion is a legal outcome at high loss; the
            // ledger invariant must hold either way.
            let _ = authority.try_consult(round, &spec);
        }
        let bus = authority.bus();
        prop_assert!(bus.total_bytes() > 0, "sessions moved frames");
        prop_assert_eq!(
            bus.total_bytes(),
            bus.goodput_bytes() + bus.retransmit_bytes(),
            "every byte classified exactly once"
        );
        prop_assert!(bus.retransmit_bytes() <= bus.total_bytes());
    }

    /// A zero-loss run never bills retransmit bytes: the retry machinery
    /// is pure insurance, spent only when the network actually misbehaves.
    #[test]
    fn zero_loss_runs_report_zero_retransmit_bytes(
        seed in any::<u64>(),
        dup in 0.0f64..=1.0,
        rounds in 1usize..6,
    ) {
        let mut authority = resilient_over_simnet(seed, LinkProfile::duplicating(dup));
        let spec = GameSpec::Strategic(ra_games::named::prisoners_dilemma().to_strategic());
        for round in 0..rounds as u64 {
            let outcome = authority
                .try_consult(round, &spec)
                .expect("no loss, no starvation");
            prop_assert_eq!(outcome.attempts, 0, "nothing to retry");
        }
        let bus = authority.bus();
        prop_assert_eq!(bus.retransmit_bytes(), 0);
        prop_assert_eq!(bus.goodput_bytes(), bus.total_bytes());
    }
}
