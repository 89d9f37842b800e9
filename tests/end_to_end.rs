//! Cross-crate integration tests: full consultation flows, determinism,
//! wire-level replay, and the separation-of-concerns guarantees.

use rationality_authority::authority::{
    Advice, GameSpec, Inventor, InventorBehavior, Message, Party, RationalityAuthority,
    VerifierBehavior, Wire,
};
use rationality_authority::exact::rat;
use rationality_authority::games::named::{battle_of_the_sexes, prisoners_dilemma, stag_hunt};
use rationality_authority::games::GameGenerator;
use rationality_authority::proofs::kernel::check;
use rationality_authority::solvers::{prove_max_nash, ParticipationParams};

fn all_specs() -> Vec<GameSpec> {
    vec![
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
    ]
}

#[test]
fn honest_flow_all_case_studies() {
    for spec in all_specs() {
        let mut authority = RationalityAuthority::new(
            Inventor::new(0, InventorBehavior::Honest),
            &[VerifierBehavior::Honest; 5],
        );
        let outcome = authority.consult(0, &spec);
        assert!(outcome.adopted, "{spec:?}");
        assert_eq!(outcome.majority.unwrap().accept_votes, 5);
    }
}

#[test]
fn corrupt_flow_all_case_studies() {
    for spec in all_specs() {
        let mut authority = RationalityAuthority::new(
            Inventor::new(0, InventorBehavior::Corrupt),
            &[VerifierBehavior::Honest; 5],
        );
        let outcome = authority.consult(0, &spec);
        assert!(!outcome.adopted, "{spec:?}");
    }
}

/// Determinism: identical sessions produce identical byte traffic.
#[test]
fn sessions_are_deterministic() {
    let run = || {
        let mut authority = RationalityAuthority::new(
            Inventor::new(0, InventorBehavior::Honest),
            &[VerifierBehavior::Honest; 3],
        );
        let mut bytes = Vec::new();
        for spec in all_specs() {
            let outcome = authority.consult(0, &spec);
            bytes.push((outcome.advice_bytes, outcome.session_bytes, outcome.adopted));
        }
        bytes
    };
    assert_eq!(run(), run());
}

/// Advice survives a genuine serialize → deserialize round trip and still
/// verifies — i.e. verification works on what actually crosses the wire.
#[test]
fn advice_verifies_after_wire_round_trip() {
    let inventor = Inventor::new(0, InventorBehavior::Honest);
    for spec in all_specs() {
        let Some(advice) = inventor.advise(&spec) else {
            continue;
        };
        let msg = Message::AdviceWithProof {
            game_id: 1,
            advice: Box::new(advice),
        };
        let bytes = msg.to_bytes();
        let mut buf = bytes.clone();
        let decoded = Message::decode(&mut buf).expect("decodes");
        let Message::AdviceWithProof { advice, .. } = decoded else {
            panic!("wrong message kind");
        };
        let verifier =
            rationality_authority::authority::VerifierService::new(0, VerifierBehavior::Honest);
        let (accepted, detail) = verifier.verify(&spec, &advice);
        assert!(accepted, "{spec:?}: {detail}");
    }
}

/// A man-in-the-middle who flips bytes in the advice message cannot get a
/// corrupted message adopted: it either fails to decode or fails
/// verification. (Acceptance of a mutated-but-valid message must still be a
/// true equilibrium — checked for the strategic case.)
#[test]
fn bitflip_fuzz_on_the_wire() {
    let game = prisoners_dilemma().to_strategic();
    let spec = GameSpec::Strategic(game.clone());
    let inventor = Inventor::new(0, InventorBehavior::Honest);
    let advice = inventor.advise(&spec).unwrap();
    let msg = Message::AdviceWithProof {
        game_id: 1,
        advice: Box::new(advice),
    };
    let bytes = msg.to_bytes();
    let verifier =
        rationality_authority::authority::VerifierService::new(0, VerifierBehavior::Honest);
    let mut accepted_mutants = 0;
    for i in 0..bytes.len() {
        for bit in 0..8 {
            let mut mutated = bytes.to_vec();
            mutated[i] ^= 1 << bit;
            let mut buf = rationality_authority::authority::WireBytes::from(mutated);
            let Ok(Message::AdviceWithProof { advice, .. }) = Message::decode(&mut buf) else {
                continue;
            };
            if !buf.is_empty() {
                continue; // trailing garbage — a framed transport drops it
            }
            let (ok, _) = verifier.verify(&spec, &advice);
            if ok {
                accepted_mutants += 1;
                // Acceptance must still be sound: the advised profile is a
                // genuine equilibrium of the game.
                if let Advice::PureNash(proof) = advice.as_ref() {
                    let profile = proof.equilibrium_profile().expect("an equilibrium root");
                    assert!(
                        game.is_pure_nash(profile),
                        "unsound acceptance at byte {i} bit {bit}"
                    );
                }
            }
        }
    }
    // Mutants that survive must be semantically identical (or another true
    // statement); there should be very few of them.
    assert!(
        accepted_mutants <= 8,
        "too many accepted mutants: {accepted_mutants}"
    );
}

/// §3 maximality proofs flow end-to-end: the inventor can ship an IsMaxNash
/// certificate and the kernel accepts it only for truly maximal equilibria.
#[test]
fn maximal_advice_end_to_end() {
    let game = stag_hunt(4);
    let maximal: rationality_authority::games::StrategyProfile = vec![1, 1, 1, 1].into();
    let proof = prove_max_nash(&game, &maximal).expect("all-stag is maximal");
    assert_eq!(proof.equilibrium_profile(), Some(&maximal));
    let theorem = check(&game, &proof).expect("verifies");
    assert!(theorem.applies_to(&game));
    // The same certificate fails against a different game.
    let other = stag_hunt(3);
    assert!(!theorem.applies_to(&other));
}

/// Reputation isolates a saboteur over many random games while the
/// honest panel keeps serving correct verdicts. It dissents from the
/// majority once per consult, so its score falls from 10 to the exclusion
/// threshold 0 at exactly the tenth.
#[test]
fn long_run_reputation_dynamics() {
    let mut authority = RationalityAuthority::new(
        Inventor::new(0, InventorBehavior::Honest),
        &[
            VerifierBehavior::Honest,
            VerifierBehavior::Honest,
            VerifierBehavior::Honest,
            VerifierBehavior::AlwaysReject,
        ],
    );
    let mut consultations = 0u64;
    for seed in 0..120u64 {
        let game = GameGenerator::seeded(seed).strategic(vec![2, 2], -9..=9);
        if game.pure_nash_equilibria().is_empty() {
            continue;
        }
        let outcome = authority.consult(seed, &GameSpec::Strategic(game));
        assert!(
            outcome.adopted,
            "honest majority always adopts (seed {seed})"
        );
        consultations += 1;
        if !authority.reputation().is_trusted(Party::Verifier(3)) {
            break;
        }
    }
    assert_eq!(consultations, 10, "excluded at the tenth consultation");
    assert!(
        !authority.reputation().is_trusted(Party::Verifier(3)),
        "the rejecting verifier must eventually be excluded"
    );
}

/// The kernel check and StrategicGame::is_pure_nash can never disagree —
/// across many random games and every profile. This is the cross-crate
/// soundness anchor.
#[test]
fn kernel_and_definition_agree_everywhere() {
    for seed in 0..60u64 {
        let game = GameGenerator::seeded(seed).strategic(vec![3, 2, 2], -7..=7);
        for profile in game.profiles() {
            let claim = rationality_authority::solvers::prove_is_nash(profile.clone());
            assert_eq!(
                check(&game, &claim).is_ok(),
                game.is_pure_nash(&profile),
                "seed {seed}, profile {profile}"
            );
        }
    }
}
