//! Workspace smoke test: exercises the facade crate's re-exports end to
//! end, so a broken `pub use` in `src/lib.rs` (or a crate dropped from the
//! workspace DAG) fails tier-1 instead of being discovered downstream.
//!
//! Everything here goes through `rationality_authority::*` paths on
//! purpose — do not shortcut to the `ra_*` crates.

use rationality_authority::authority::{Bus, Message, Party, Transport, Wire};
use rationality_authority::exact::rat;
use rationality_authority::games::named::prisoners_dilemma;
use rationality_authority::proofs::kernel::check;
use rationality_authority::solvers::{analyze_pure_nash, prove_is_nash};
use rationality_authority::{auctions, congestion};

#[test]
fn facade_certificate_pipeline() {
    // Inventor side (untrusted): find the equilibrium the expensive way.
    let game = prisoners_dilemma().to_strategic();
    let analysis = analyze_pure_nash(&game);
    let profile = analysis
        .equilibria
        .first()
        .expect("PD has (defect, defect)")
        .clone();

    // Ship it as a checkable proof.
    let proof = prove_is_nash(profile);

    // Agent side (trusted kernel): re-check the claim.
    let theorem = check(&game, &proof).expect("honest certificate verifies");
    assert!(theorem.applies_to(&game));
}

#[test]
fn facade_rejects_dishonest_certificate() {
    let game = prisoners_dilemma().to_strategic();
    // (cooperate, cooperate) is not an equilibrium; the kernel must say so.
    let lie = prove_is_nash(vec![0, 0].into());
    assert!(check(&game, &lie).is_err());
}

#[test]
fn facade_bus_and_wire_round_trip() {
    let bus = Bus::new().with_delivery_log();
    let inventor = Party::Inventor(1);
    let agent = Party::Agent(1);
    bus.register(inventor);
    let agent_ep = bus.register(agent);
    let msg = Message::AdviceRequest { game_id: 42 };
    let encoded_len = msg.encoded_len();
    bus.send(agent, inventor, msg.clone()).ok();
    bus.send(inventor, agent, msg.clone()).unwrap();
    let (from, received) = agent_ep.try_recv().expect("delivered");
    assert_eq!(from, inventor);
    assert_eq!(received, msg);
    assert_eq!(bus.bytes_between(inventor, agent), encoded_len);
}

#[test]
fn facade_exact_and_case_study_crates_are_wired() {
    // exact
    assert_eq!(rat(1, 2) + rat(1, 3), rat(5, 6));
    // congestion: Graham's bound holds for the greedy assignment.
    let loads = [4u64, 7, 1, 9, 3];
    let m = 2;
    let greedy = congestion::greedy_assign(&loads, m).makespan();
    let opt = congestion::opt_makespan_exact(&loads, m);
    assert!(greedy <= (2 * m as u64 - 1) * opt / m as u64 + opt);
    // auctions: the paper's running example constructs.
    let _ = auctions::ParticipationGame::paper_example();
}
