//! The P2 interactive proof as an actual wire protocol.
//!
//! Unlike `private_consultation` (which runs the verifier locally), this
//! example runs §4's private consultation on the authority's consult
//! stages: the advice, then one query stage per membership query, each a
//! round trip through the byte-accounted message bus — the deployment
//! shape of Fig. 1. The bus ledger then shows exactly how much opponent
//! information ever crossed the wire.
//!
//! Run with: `cargo run --example wire_protocol`

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use rationality_authority::authority::{
    Bus, Inventor, InventorBehavior, LocalReputation, Party, RationalityAuthority,
};
use rationality_authority::games::{BimatrixGame, GameGenerator};
use rationality_authority::proofs::{P2Config, P2Outcome};
use rationality_authority::solvers::find_one_equilibrium;

/// An authority with no verifier panel — the P2 agent checks the advice
/// itself — over a bus that logs every frame.
fn authority(inventor: InventorBehavior) -> RationalityAuthority {
    RationalityAuthority::with_transport(
        Inventor::new(0, inventor),
        &[],
        Arc::new(LocalReputation::new()),
        Arc::new(Bus::new().with_delivery_log()),
    )
}

fn main() {
    let game = GameGenerator::seeded(4242).bimatrix(5, 5, -30..=30);
    let eq = find_one_equilibrium(&game).expect("equilibrium exists");
    println!(
        "Game: random 5x5 bimatrix; equilibrium supports {:?} / {:?}",
        eq.row_support, eq.col_support
    );

    // ---- Honest prover ----------------------------------------------------
    let mut honest = authority(InventorBehavior::Honest);
    let mut rng = StdRng::seed_from_u64(17);
    let config = P2Config {
        required_conclusive: 3,
        max_queries: 500,
    };
    let outcome = honest
        .try_consult_private(/*agent*/ 0, &game, &config, &mut rng)
        .expect("the default budget reports, never errs");
    let queries = outcome.queries;
    // Everything the prover sent the agent but the advice frame is a
    // framed one-bit answer.
    let answer_bytes = honest
        .bus()
        .bytes_between(Party::Inventor(0), Party::Agent(0))
        - outcome.advice_bytes;
    println!("\n[honest prover over the bus]");
    println!("  accepted:                {}", outcome.adopted);
    println!("  oracle queries:          {queries}");
    println!("  session bytes on wire:   {}", outcome.session_bytes);
    println!("  opponent-revealing bytes: {answer_bytes} ({queries} one-bit answers, framed)");
    assert!(outcome.adopted);
    assert!(answer_bytes < outcome.session_bytes);

    // ---- A maximally dishonest oracle --------------------------------------
    // A game with a strictly dominated column, so membership lies are
    // detectable; the corrupt prover inverts every answer.
    let game =
        BimatrixGame::from_i64_tables(&[&[2, 0, 0], &[0, 1, 0]], &[&[1, 0, -1], &[0, 2, -1]]);
    let mut lying = authority(InventorBehavior::Corrupt);
    let config = P2Config {
        required_conclusive: 3,
        max_queries: 200,
    };
    let mut caught = 0;
    let runs = 10;
    for seed in 0..runs {
        let mut rng = StdRng::seed_from_u64(seed);
        let outcome = lying
            .try_consult_private(seed, &game, &config, &mut rng)
            .expect("the default budget reports, never errs");
        assert!(!outcome.adopted);
        if matches!(outcome.verdict, Some(P2Outcome::Rejected { .. })) {
            caught += 1;
        }
    }
    println!("\n[lying prover] caught in {caught}/{runs} sessions");
    assert!(caught >= 7);
    println!(
        "\nTotal wire traffic across all sessions: {} bytes",
        honest.bus().total_bytes() + lying.bus().total_bytes()
    );
}
