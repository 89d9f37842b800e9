//! The participation game (§5): offline certificates, online last-mover
//! advice, and the firms' cross-check.
//!
//! Run with: `cargo run --example auction_participation`

use rationality_authority::auctions::{
    exact_online_expected_gain, last_mover_advice, last_mover_gain, verify_last_mover_advice,
    ParticipationGame,
};
use rationality_authority::exact::rat;
use rationality_authority::proofs::{
    verify_participation_certificate, ParticipationCertificate, ParticipationVerified,
};
use rationality_authority::solvers::EquilibriumRoot;

fn main() {
    // The paper's worked example: n = 3 firms, threshold k = 2,
    // v = 8, c = 3 (c/v = 3/8).
    let game = ParticipationGame::paper_example();
    let params = game.params().clone();
    println!(
        "Participation game: n = {}, k = {}, v = {}, c = {}",
        params.n, params.k, params.v, params.c
    );

    // ---- Offline: the inventor's certificate ------------------------------
    let cert = game
        .inventor_advice(&rat(1, 1 << 30))
        .expect("equilibrium exists");
    let p = verify_participation_certificate(&params, &cert, &rat(1, 1 << 20))
        .expect("honest certificate verifies");
    let verified = ParticipationVerified::at(&params, p);
    println!(
        "\n[offline] advised participation probability p = {}",
        verified.p
    );
    println!("  A_k (≥1 other in | f in)   = {}", verified.a_k);
    println!("  C_k (≥2 others in | f out) = {}", verified.c_k);
    println!(
        "  expected equilibrium gain  = {}  (the paper's v/16)",
        verified.expected_gain
    );

    // A perturbed p is caught:
    let bogus = ParticipationCertificate {
        root: EquilibriumRoot::Exact(rat(1, 3)),
    };
    assert!(verify_participation_certificate(&params, &bogus, &rat(1, 1024)).is_err());
    println!("  (a perturbed p = 1/3 was rejected by Eq. (5))");

    // The cross-check: both symmetric equilibria verify individually, so a
    // dishonest prover could split the firms across them — unless they
    // compare notes, which passes iff all advised roots are identical.
    let cross_check_advice =
        |certs: &[ParticipationCertificate]| certs.windows(2).all(|w| w[0].root == w[1].root);
    let other = ParticipationCertificate {
        root: EquilibriumRoot::Exact(rat(3, 4)),
    };
    assert!(verify_participation_certificate(&params, &other, &rat(1, 1024)).is_ok());
    assert!(cross_check_advice(&[cert.clone(), cert.clone()]));
    assert!(!cross_check_advice(&[cert.clone(), other]));
    println!("  (split advice p = 1/4 vs p = 3/4 caught by the firms' cross-check)");

    // ---- Online: last-mover advice ----------------------------------------
    println!("\n[online] last firm to decide, by observed entry count:");
    for prior in 0..3 {
        let advice = last_mover_advice(&params, prior);
        let gain = verify_last_mover_advice(&params, &advice).expect("honest advice optimal");
        let flipped = last_mover_gain(&params, prior, !advice.participate);
        println!(
            "  {prior} prior entrant(s): advice p = {} -> gain {gain} (flipping would yield {flipped})",
            u8::from(advice.participate),
        );
    }

    // The expected-gain comparison of the paper.
    let online = exact_online_expected_gain(&params, &rat(1, 4));
    println!("\nExpected gain per firm, random arrival order:");
    println!("  offline equilibrium play: v/16       = {}", rat(1, 2));
    println!("  paper's online lower bound: 5v/24    = {}", rat(5, 3));
    println!("  exact online value computed here     = {online}");
    assert!(online > rat(5, 3));
}
