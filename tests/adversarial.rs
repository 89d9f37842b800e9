//! Adversarial integration tests: systematic corruption of every advice
//! channel, spanning crates. The framework-level invariant under test:
//! **no corrupted advice is ever adopted, and every honest advice is.**

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rationality_authority::exact::{rat, Rational};
use rationality_authority::games::{GameGenerator, MixedProfile, MixedStrategy};
use rationality_authority::proofs::kernel::{check, NotAboveWitness, ProfileVerdict, Proof};
use rationality_authority::proofs::{
    verify_online_advice, verify_private_advice, verify_support_certificate, OnlineInstance,
    P2Advice, P2Config, P2Outcome, P2Rejection, SupportCertificate,
};
use rationality_authority::solvers::{
    enumerate_equilibria, honest_online_advice, honest_row_advice, prove_max_nash,
    EnumerationOptions,
};

/// Exhaustively corrupt a maximality proof's classification entries; every
/// single-field mutation must be rejected (or, if it accidentally forms
/// another valid witness, acceptance must preserve the true conclusion).
#[test]
fn max_proof_mutation_fuzz() {
    let game = rationality_authority::games::named::coordination_game(3);
    let candidate: rationality_authority::games::StrategyProfile = vec![2, 2].into();
    let honest = prove_max_nash(&game, &candidate).expect("provable");
    assert!(check(&game, &honest).is_ok());
    let Proof::MaxNashIntro {
        profile,
        nash,
        classification,
    } = honest
    else {
        panic!("unexpected proof shape");
    };
    let mut rejected = 0;
    let mut accepted = 0;
    for idx in 0..classification.len() {
        // Mutation 1: replace the verdict with a bogus deviation witness.
        for agent in 0..2 {
            for strategy in 0..3 {
                let mut mutated = classification.clone();
                mutated[idx] = ProfileVerdict::NotNash { agent, strategy };
                let proof = Proof::MaxNashIntro {
                    profile: profile.clone(),
                    nash: nash.clone(),
                    classification: mutated,
                };
                match check(&game, &proof) {
                    Ok(theorem) => {
                        accepted += 1;
                        // Sound acceptance: the conclusion must still be a
                        // true statement about the game.
                        assert!(game.is_maximal_nash(&candidate));
                        let _ = theorem;
                    }
                    Err(_) => rejected += 1,
                }
            }
        }
        // Mutation 2: swap in the always-cheap LeCandidate witness.
        let mut mutated = classification.clone();
        mutated[idx] = ProfileVerdict::NotStrictlyBetter(NotAboveWitness::LeCandidate);
        let proof = Proof::MaxNashIntro {
            profile: profile.clone(),
            nash: nash.clone(),
            classification: mutated,
        };
        if check(&game, &proof).is_err() {
            rejected += 1;
        } else {
            accepted += 1;
        }
    }
    assert!(rejected > 0, "some mutations must be caught");
    // The candidate IS maximal, so sound acceptances are fine; what matters
    // is that they were verified, not trusted.
    assert!(accepted + rejected > 0);
}

/// Feed the P1 verifier every possible support pair for small games: the
/// set of accepted pairs must exactly equal the set of genuine equilibrium
/// support pairs (restricted to non-degenerate ones).
#[test]
fn p1_acceptance_set_is_exactly_the_equilibria() {
    for seed in 0..25u64 {
        let game = GameGenerator::seeded(seed).bimatrix(3, 3, -9..=9);
        let (eqs, _) = enumerate_equilibria(&game, &EnumerationOptions::default());
        for r_mask in 1u8..8 {
            for c_mask in 1u8..8 {
                let cert = SupportCertificate {
                    row_support: (0..3).filter(|i| r_mask & (1 << i) != 0).collect(),
                    col_support: (0..3).filter(|j| c_mask & (1 << j) != 0).collect(),
                };
                if let Ok(verified) = verify_support_certificate(&game, &cert) {
                    // Accepted ⇒ genuine equilibrium with these supports.
                    assert!(game.is_nash(&verified.profile), "seed {seed}");
                    assert!(
                        eqs.iter().any(|e| e.row_support == cert.row_support
                            && e.col_support == cert.col_support),
                        "seed {seed}: accepted support pair unknown to enumeration"
                    );
                }
            }
        }
    }
}

/// Randomly corrupt online-advice certificates field by field, or judge
/// them against another instance than the one they were built for.
#[test]
fn online_advice_mutation_fuzz() {
    let mut rng = StdRng::seed_from_u64(77);
    for _ in 0..200 {
        let m = rng.random_range(2..6);
        let current: Vec<Rational> = (0..m)
            .map(|_| Rational::from(rng.random_range(0..100)))
            .collect();
        let own = Rational::from(rng.random_range(1..100));
        let future = Rational::from(rng.random_range(0..50));
        let agents = rng.random_range(0..6);
        let instance = OnlineInstance {
            current_loads: &current,
            own_load: &own,
            expected_future_load: &future,
            expected_future_agents: agents,
        };
        let honest = honest_online_advice(&instance).expect("instance has links");
        assert!(verify_online_advice(&instance, &honest).is_ok());
        // Corrupt one random field of the certificate or of the instance.
        let (mut corrupted, mut judged) = (honest.clone(), instance);
        let heavier = &own + &Rational::from(1000);
        match rng.random_range(0..4) {
            0 => corrupted.suggested_link = (corrupted.suggested_link + 1) % m,
            1 => {
                let idx = rng.random_range(0..corrupted.assignment.len());
                corrupted.assignment[idx] = (corrupted.assignment[idx] + 1) % m;
            }
            2 => judged.own_load = &heavier,
            _ => {
                judged.expected_future_agents += 1; // length mismatch
            }
        }
        if corrupted == honest && judged == instance {
            continue;
        }
        if let Ok(verified) = verify_online_advice(&judged, &corrupted) {
            // Rare sound acceptances (e.g. swapping equal loads between
            // equally-loaded links): the verified assignment must still be
            // an equilibrium — re-check the Nash property independently.
            let mut final_loads = current.clone();
            for (idx, &link) in corrupted.assignment.iter().enumerate() {
                let w = if idx == 0 { judged.own_load } else { &future };
                final_loads[link] = &final_loads[link] + w;
            }
            assert_eq!(verified.predicted_loads, final_loads);
        }
    }
}

/// P2 with λ-corrupted advice: the row advice of battle of the sexes'
/// mixed equilibrium with λ_opp perturbed, checked against an honest
/// oracle. Both columns are in that support and each earns the true λ₂
/// against the advised row mix, so the first pair of answers exposes the
/// lie at its first query, whatever indices the seed draws.
#[test]
fn p2_session_catches_lambda_corruption() {
    let game = rationality_authority::games::named::battle_of_the_sexes();
    let eq = MixedProfile {
        row: MixedStrategy::try_new(vec![rat(2, 3), rat(1, 3)]).unwrap(),
        col: MixedStrategy::try_new(vec![rat(1, 3), rat(2, 3)]).unwrap(),
    };
    assert!(game.is_nash(&eq));
    let honest = honest_row_advice(&game, &eq);
    assert_eq!(honest.lambda_opp, rat(2, 3));
    let support = eq.col.support();
    for lambda_opp in [rat(1, 2), rat(1, 1)] {
        let advice = P2Advice {
            lambda_opp,
            ..honest.clone()
        };
        for seed in 0..20 {
            let mut queried = Vec::new();
            let mut oracle = |j| {
                queried.push(j);
                Some(support.contains(&j))
            };
            let mut rng = StdRng::seed_from_u64(seed);
            let outcome =
                verify_private_advice(&game, &advice, &mut oracle, &mut rng, &P2Config::default());
            let P2Outcome::Rejected { reason } = outcome else {
                panic!("λ-corrupted advice not rejected (seed {seed}): {outcome:?}");
            };
            assert_eq!(queried.len(), 2, "one pair decides (seed {seed})");
            assert_eq!(
                reason,
                P2Rejection::InSupportPayoffMismatch {
                    index: queried[0],
                    actual: rat(2, 3)
                },
                "seed {seed}"
            );
        }
    }
}

/// The reputation system under a coordinated 2-vs-3 attack: two colluding
/// verifiers rubber-stamp corrupt advice for many rounds. They must lose
/// reputation monotonically and eventually be excluded, while no corrupt
/// advice is ever adopted.
#[test]
fn colluding_verifiers_get_ground_down() {
    use rationality_authority::authority::{
        GameSpec, Inventor, InventorBehavior, Party, RationalityAuthority, VerifierBehavior,
    };
    let mut authority = RationalityAuthority::new(
        Inventor::new(0, InventorBehavior::Corrupt),
        &[
            VerifierBehavior::Honest,
            VerifierBehavior::Honest,
            VerifierBehavior::Honest,
            VerifierBehavior::AlwaysAccept,
            VerifierBehavior::AlwaysAccept,
        ],
    );
    let spec = GameSpec::Strategic(
        rationality_authority::games::named::prisoners_dilemma().to_strategic(),
    );
    let mut last_scores = [i64::MAX; 2];
    for round in 0..12 {
        let outcome = authority.consult(round, &spec);
        assert!(!outcome.adopted, "corrupt advice adopted at round {round}");
        for (i, v) in [Party::Verifier(3), Party::Verifier(4)]
            .into_iter()
            .enumerate()
        {
            let score = authority.reputation().score(v);
            assert!(score <= last_scores[i], "collider reputation must not rise");
            last_scores[i] = score;
        }
    }
    assert!(!authority.reputation().is_trusted(Party::Verifier(3)));
    assert!(!authority.reputation().is_trusted(Party::Verifier(4)));
}

/// Frames a third party forges into a consult. Game ids are sequential,
/// so anyone can predict a consult's id: the first consult of a fresh
/// authority is game 1.
mod forged {
    use std::sync::Arc;

    use rationality_authority::authority::{
        Bus, BusError, DeliveryRecord, Endpoint, GameSpec, Inventor, InventorBehavior,
        LocalReputation, Message, Party, RationalityAuthority, SessionOutcome, Transport,
        VerifierBehavior,
    };
    use rationality_authority::games::named::prisoners_dilemma;

    /// A `Bus` with a third party on it: whenever a consult sends a frame
    /// that `trigger` picks, the third party first injects `forged`.
    #[derive(Debug)]
    struct Forger {
        bus: Bus,
        trigger: fn(&Message) -> bool,
        forged: (Party, Party, Message),
    }

    impl Forger {
        fn inject(&self, message: &Message) {
            if (self.trigger)(message) {
                let (from, to, forged) = self.forged.clone();
                let _ = self.bus.send(from, to, forged);
            }
        }
    }

    impl Transport for Forger {
        fn register(&self, party: Party) -> Endpoint {
            self.bus.register(party)
        }
        fn disconnect(&self, party: Party) {
            self.bus.disconnect(party)
        }
        fn send(&self, from: Party, to: Party, message: Message) -> Result<(), BusError> {
            self.inject(&message);
            self.bus.send(from, to, message)
        }
        fn send_batch(&self, batch: &mut Vec<(Party, Party, Message)>) -> Result<(), BusError> {
            for (_, _, message) in batch.iter() {
                self.inject(message);
            }
            self.bus.send_batch(batch)
        }
        fn drop_link(&self, from: Party, to: Party) {
            self.bus.drop_link(from, to)
        }
        fn heal(&self) {
            self.bus.heal()
        }
        fn settle(&self) {
            self.bus.settle()
        }
        fn total_bytes(&self) -> usize {
            self.bus.total_bytes()
        }
        fn delivered_bytes(&self) -> usize {
            self.bus.delivered_bytes()
        }
        fn bytes_between(&self, from: Party, to: Party) -> usize {
            self.bus.bytes_between(from, to)
        }
        fn delivery_log(&self) -> Vec<DeliveryRecord> {
            self.bus.delivery_log()
        }
        fn message_count(&self) -> usize {
            self.bus.message_count()
        }
        fn retransmit_bytes(&self) -> usize {
            self.bus.retransmit_bytes()
        }
    }

    fn spec() -> GameSpec {
        GameSpec::Strategic(prisoners_dilemma().to_strategic())
    }

    /// Agent 0's first consult about the prisoner's dilemma, with an
    /// honest inventor and three honest verifiers, over a `Forger`.
    fn consult(trigger: fn(&Message) -> bool, forged: (Party, Party, Message)) -> SessionOutcome {
        let forger = Forger {
            bus: Bus::new(),
            trigger,
            forged,
        };
        let mut authority = RationalityAuthority::with_transport(
            Inventor::new(0, InventorBehavior::Honest),
            &[VerifierBehavior::Honest; 3],
            Arc::new(LocalReputation::new()),
            Arc::new(forger),
        );
        authority.consult(0, &spec())
    }

    /// On seeing the agent's advice request, `Verifier(0)` sends the
    /// agent corrupt advice under the consult's game id, ahead of the
    /// inventor's answer. The agent takes advice only from the inventor it
    /// asked, so it adopts the honest advice.
    #[test]
    fn advice_forged_by_a_verifier_is_ignored() {
        let corrupt = Inventor::new(0, InventorBehavior::Corrupt).advise(&spec());
        let honest = Inventor::new(0, InventorBehavior::Honest).advise(&spec());
        assert_ne!(corrupt, honest);
        let forged = Message::AdviceWithProof {
            game_id: 1,
            advice: Box::new(corrupt.expect("a corrupt inventor still advises")),
        };
        let outcome = consult(
            |m| matches!(m, Message::AdviceRequest { .. }),
            (Party::Verifier(0), Party::Agent(0), forged),
        );
        assert_eq!(outcome.advice, honest, "the inventor's advice is kept");
        assert!(outcome.adopted);
        assert_eq!(outcome.verdict_details.len(), 3);
    }

    /// A stranger asks `Verifier(0)` for a verdict under the consult's
    /// game id just before the agent does. A verifier answers only the
    /// consult's agent, so the stranger neither uses up the verifier's
    /// attempt nor makes the agent retry.
    #[test]
    fn a_strangers_verdict_request_does_not_silence_a_verifier() {
        let advice = Inventor::new(0, InventorBehavior::Honest).advise(&spec());
        let stranger = Message::VerdictRequest {
            game_id: 1,
            advice: Arc::new(advice.expect("honest advice")),
        };
        let outcome = consult(
            |m| matches!(m, Message::VerdictRequest { .. }),
            (Party::Agent(66), Party::Verifier(0), stranger),
        );
        assert!(outcome.adopted);
        assert_eq!(outcome.verdict_details.len(), 3);
        assert_eq!(outcome.attempts, 0, "no verifier was silenced");
    }
}
