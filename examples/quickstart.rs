//! Quickstart: one complete consultation through the rationality authority.
//!
//! An ordinary agent faces a prisoner's dilemma. It cannot (or will not)
//! analyse the game itself, so it consults a *possibly biased* game
//! inventor and verifies the returned advice through a trusted verifier
//! panel before acting.
//!
//! Run with: `cargo run --example quickstart`

use rationality_authority::authority::{
    Check, GameSpec, Inventor, InventorBehavior, RationalityAuthority, VerdictReason,
    VerifierBehavior,
};
use rationality_authority::games::named::prisoners_dilemma;

fn main() {
    // The game under consultation (§2 strategic form, exact payoffs).
    let game = prisoners_dilemma().to_strategic();
    println!("Game: prisoner's dilemma, {} profiles", game.num_profiles());

    // --- Honest inventor -----------------------------------------------
    let mut authority = RationalityAuthority::new(
        Inventor::new(0, InventorBehavior::Honest),
        &[VerifierBehavior::Honest; 3],
    );
    let outcome = authority.consult(0, &GameSpec::Strategic(game.clone()));
    println!("\n[honest inventor]");
    println!("  advice bytes on the wire: {}", outcome.advice_bytes);
    println!("  session bytes total:      {}", outcome.session_bytes);
    // Each verdict is a bit plus a one-byte reason; `Display` spells the
    // reason out.
    for (verifier, accepted, detail) in &outcome.verdict_details {
        println!(
            "  {verifier}: {} — {detail}",
            if *accepted { "ACCEPT" } else { "REJECT" }
        );
        assert_eq!(*detail, VerdictReason::Verified(Check::PureNash));
    }
    assert!(outcome.adopted, "honest advice must be adopted");
    println!("  agent adopts the advice: play (defect, defect)");

    // --- Corrupt inventor ----------------------------------------------
    let mut authority = RationalityAuthority::new(
        Inventor::new(0, InventorBehavior::Corrupt),
        &[VerifierBehavior::Honest; 3],
    );
    let outcome = authority.consult(0, &GameSpec::Strategic(game));
    println!("\n[corrupt inventor]");
    for (verifier, accepted, detail) in &outcome.verdict_details {
        println!(
            "  {verifier}: {} — {detail}",
            if *accepted { "ACCEPT" } else { "REJECT" }
        );
        assert_eq!(*detail, VerdictReason::Rejected(Check::PureNash));
    }
    assert!(!outcome.adopted, "corrupt advice must be rejected");
    println!("  agent refuses the advice — the rationality authority did its job");
}
