//! Regenerates the Fig. 5 example and Remark 2's non-identifiability
//! demonstration.
//!
//! The game:
//! ```text
//!        C     D
//!  A   1,1   1,1
//!  B   0,1   2,0
//! ```
//! The P2 prover tells the row agent only: support {A}, probabilities
//! (1, 0), λ1 = λ2 = 1. Remark 2: the row agent cannot reconstruct the
//! column agent's strategy — any (q_C, q_D) with q_D ≤ 1/2 completes an
//! equilibrium, and all of them induce the *same* advice.
//!
//! Usage: `cargo run -p ra-bench --release --bin fig5_remark2`

use ra_exact::rat;
use ra_games::named::fig5_game;
use ra_games::{MixedProfile, MixedStrategy};
use ra_solvers::{enumerate_equilibria, honest_row_advice, EnumerationOptions};

fn main() {
    let game = fig5_game();
    println!("Fig. 5 game (row payoffs | column payoffs):");
    println!("        C       D");
    for (i, name) in ["A", "B"].iter().enumerate() {
        print!("  {name}  ");
        for j in 0..2 {
            print!("{}, {}   ", game.a(i, j), game.b(i, j));
        }
        println!();
    }

    println!("\nEquilibria found by support enumeration:");
    let (eqs, _) = enumerate_equilibria(&game, &EnumerationOptions::default());
    for eq in &eqs {
        println!(
            "  row {:?} (probs {:?})  col {:?} (probs {:?})  λ1 = {}, λ2 = {}",
            eq.row_support,
            eq.profile.row.probs(),
            eq.col_support,
            eq.profile.col.probs(),
            eq.lambda1,
            eq.lambda2
        );
    }

    println!("\nRemark 2 — the equilibrium continuum (row = pure A, any q_D ≤ 1/2):");
    let mut advices = Vec::new();
    for (qc, qd) in [
        (rat(1, 1), rat(0, 1)),
        (rat(7, 8), rat(1, 8)),
        (rat(3, 4), rat(1, 4)),
        (rat(5, 8), rat(3, 8)),
        (rat(1, 2), rat(1, 2)),
    ] {
        let profile = MixedProfile {
            row: MixedStrategy::pure(2, 0),
            col: MixedStrategy::try_new(vec![qc.clone(), qd.clone()]).unwrap(),
        };
        let is_nash = game.is_nash(&profile);
        let advice = honest_row_advice(&game, &profile);
        println!(
            "  col = ({qc}, {qd}): equilibrium = {is_nash}, row advice = \
             (support {{A}}, λ1 = {}, λ2 = {})",
            advice.lambda_own, advice.lambda_opp
        );
        assert!(is_nash);
        advices.push(advice);
    }
    // And one beyond the continuum boundary:
    let beyond = MixedProfile {
        row: MixedStrategy::pure(2, 0),
        col: MixedStrategy::try_new(vec![rat(1, 4), rat(3, 4)]).unwrap(),
    };
    println!(
        "  col = (1/4, 3/4): equilibrium = {} (q_D > 1/2 breaks it — row prefers B)",
        game.is_nash(&beyond)
    );
    assert!(!game.is_nash(&beyond));

    assert!(advices.windows(2).all(|w| w[0] == w[1]));
    println!(
        "\npaper check — all equilibria in the continuum induce the IDENTICAL row-agent\n\
         advice: the row agent provably cannot tell which column strategy is in play."
    );
}
