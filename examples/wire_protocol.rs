//! The P2 interactive proof as an actual wire protocol.
//!
//! Unlike `private_consultation` (which runs the verifier locally), this
//! example pushes every advice message, oracle query and one-bit answer
//! through the byte-accounted message bus — the deployment shape of
//! Fig. 1. The bus log then shows exactly how much opponent information
//! ever crossed the wire.
//!
//! Run with: `cargo run --example wire_protocol`

use rand::rngs::StdRng;
use rand::SeedableRng;

use rationality_authority::authority::{run_p2_session, Bus, P2Prover, Transport};
use rationality_authority::games::{GameGenerator, MixedProfile, MixedStrategy};
use rationality_authority::solvers::find_one_equilibrium;

fn main() {
    let game = GameGenerator::seeded(4242).bimatrix(5, 5, -30..=30);
    let eq = find_one_equilibrium(&game).expect("equilibrium exists");
    println!(
        "Game: random 5x5 bimatrix; equilibrium supports {:?} / {:?}",
        eq.row_support, eq.col_support
    );

    // ---- Honest prover ----------------------------------------------------
    let bus = Bus::new();
    let prover = P2Prover::honest(0, eq.profile.clone());
    let mut rng = StdRng::seed_from_u64(17);
    let outcome = run_p2_session(&bus, &game, &prover, /*agent*/ 0, 3, 500, &mut rng);
    println!("\n[honest prover over the bus]");
    println!("  accepted:                {}", outcome.accepted);
    println!("  oracle queries:          {}", outcome.queries);
    println!("  session bytes on wire:   {}", outcome.session_bytes);
    println!(
        "  opponent-revealing bytes: {} ({} one-bit answers, framed)",
        outcome.opponent_answer_bytes, outcome.queries
    );
    assert!(outcome.accepted);

    // ---- A maximally dishonest oracle --------------------------------------
    // Construct a game with a strictly dominated column so membership lies
    // are detectable, then let the prover invert every answer.
    let game = rationality_authority::games::BimatrixGame::from_i64_tables(
        &[&[2, 0, 0], &[0, 1, 0]],
        &[&[1, 0, -1], &[0, 2, -1]],
    );
    let profile = MixedProfile {
        row: MixedStrategy::try_new(vec![
            rationality_authority::exact::rat(2, 3),
            rationality_authority::exact::rat(1, 3),
        ])
        .unwrap(),
        col: MixedStrategy::try_new(vec![
            rationality_authority::exact::rat(1, 3),
            rationality_authority::exact::rat(2, 3),
            rationality_authority::exact::rat(0, 1),
        ])
        .unwrap(),
    };
    assert!(game.is_nash(&profile));
    let bus = Bus::new();
    let prover = P2Prover::lying(1, profile);
    let mut caught = 0;
    let runs = 10;
    for seed in 0..runs {
        let mut rng = StdRng::seed_from_u64(seed);
        let outcome = run_p2_session(&bus, &game, &prover, seed, 3, 200, &mut rng);
        if !outcome.accepted {
            caught += 1;
        }
    }
    println!("\n[lying prover] caught in {caught}/{runs} sessions");
    assert!(caught >= 7);
    println!(
        "\nTotal wire traffic across all sessions: {} bytes",
        bus.total_bytes()
    );
}
