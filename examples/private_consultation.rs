//! Private consultation: the P1 vs P2 interactive proofs of §4.
//!
//! A bimatrix game's mixed equilibrium is PPAD-hard to compute, but easy to
//! verify given the right certificate. P1 reveals both supports; P2 reveals
//! only the agent's own data plus the equilibrium values, probing the
//! opponent's support through one-bit oracle answers. This example runs
//! both on the same game and prints the disclosure, reproducing the
//! Remark 2 privacy comparison: P1's is the column mask the certificate
//! ships, P2's is counted at the oracle this example answers.
//!
//! Run with: `cargo run --example private_consultation`

use rand::rngs::StdRng;
use rand::SeedableRng;

use rationality_authority::games::GameGenerator;
use rationality_authority::proofs::{
    verify_private_advice, verify_support_certificate, P2Config, P2Outcome, SupportCertificate,
};
use rationality_authority::solvers::{find_one_equilibrium, honest_row_advice};

fn main() {
    // A random 6×6 bimatrix game — large enough that nobody wants to solve
    // it by hand.
    let game = GameGenerator::seeded(2011).bimatrix(6, 6, -50..=50);
    println!("Game: random 6x6 bimatrix (seed 2011)");

    // Inventor side: the expensive computation (support enumeration).
    let eq = find_one_equilibrium(&game).expect("equilibrium exists (Nash)");
    println!(
        "Inventor found an equilibrium: row support {:?}, column support {:?}",
        eq.row_support, eq.col_support
    );

    // ---- P1: support certificate ----------------------------------------
    let cert = SupportCertificate {
        row_support: eq.row_support.clone(),
        col_support: eq.col_support.clone(),
    };
    let p1 = verify_support_certificate(&game, &cert).expect("honest P1 verifies");
    // The certificate is two masks, one bit per pure strategy; the column
    // mask is the opponent's whole support.
    let p1_opponent_bits = game.cols();
    println!("\n[P1] verification accepted");
    println!("  λ1 = {}, λ2 = {}", p1.lambda1, p1.lambda2);
    println!("  bits communicated:        {}", cert.encoded_bits(&game));
    println!("  opponent bits disclosed:  {p1_opponent_bits}  (the whole column support!)");

    // ---- P2: private interactive proof -----------------------------------
    let advice = honest_row_advice(&game, &eq.profile);
    // The inventor answers each membership query from its true support,
    // and each answer discloses one bit.
    let mut p2_opponent_bits = 0;
    let mut oracle = |j| {
        p2_opponent_bits += 1;
        Some(eq.col_support.contains(&j))
    };
    let mut rng = StdRng::seed_from_u64(7);
    let outcome = verify_private_advice(
        &game,
        &advice,
        &mut oracle,
        &mut rng,
        &P2Config {
            required_conclusive: 3,
            max_queries: 1000,
        },
    );
    match &outcome {
        P2Outcome::Accepted { conclusive_tests } => {
            println!("\n[P2] verification accepted");
            println!("  conclusive pair tests:    {conclusive_tests}");
            println!("  oracle queries:           {p2_opponent_bits}");
            println!("  opponent bits disclosed:  {p2_opponent_bits}  (one bit per oracle answer)");
        }
        other => panic!("honest P2 run must accept, got {other:?}"),
    }

    // ---- The punchline ---------------------------------------------------
    println!(
        "\nP1 disclosed the opponent's entire support ({p1_opponent_bits} bits); \
         P2 disclosed {p2_opponent_bits} bits and never shipped the support at all."
    );

    // A dishonest λ is caught by P2's random probing:
    let mut dishonest = advice;
    dishonest.lambda_opp = &dishonest.lambda_opp + &rationality_authority::exact::rat(1, 3);
    let mut oracle = |j| Some(eq.col_support.contains(&j));
    let mut rng = StdRng::seed_from_u64(8);
    let outcome = verify_private_advice(
        &game,
        &dishonest,
        &mut oracle,
        &mut rng,
        &P2Config::default(),
    );
    assert!(!outcome.is_accepted());
    println!("A perturbed λ2 was rejected by P2, as it should be.");
}
