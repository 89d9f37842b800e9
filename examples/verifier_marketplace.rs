//! The verifier marketplace: majority trust, reputation, and the audit
//! trail.
//!
//! Verifiers "profit from selling general purpose verification procedures
//! … and therefore would like to have a good long-lasting reputation".
//! This example runs many consultations through a mixed panel — honest,
//! bought (always-accept) and saboteur (always-reject) — and shows
//! the reputation system excluding the bad ones while the majority keeps
//! agents safe. It also demonstrates the signed statistics ledger that
//! keeps the *inventor* accountable (§6 footnote 3).
//!
//! Run with: `cargo run --example verifier_marketplace`

use rationality_authority::authority::{
    GameSpec, Inventor, InventorBehavior, Party, RationalityAuthority, SigningKey,
    StatisticsLedger, VerifierBehavior,
};
use rationality_authority::exact::Rational;
use rationality_authority::games::GameGenerator;

fn main() {
    let panel = [
        VerifierBehavior::Honest,
        VerifierBehavior::Honest,
        VerifierBehavior::Honest,
        VerifierBehavior::AlwaysAccept,
        VerifierBehavior::AlwaysReject,
        VerifierBehavior::AlwaysReject,
    ];
    let mut authority =
        RationalityAuthority::new(Inventor::new(0, InventorBehavior::Honest), &panel);

    println!("Panel: 3 honest, 1 bought, 2 saboteur verifiers.");
    println!("Running 40 consultations on random games...\n");
    let mut adopted = 0;
    for round in 0..40u64 {
        let game = GameGenerator::seeded(round).strategic(vec![3, 3], -9..=9);
        if game.pure_nash_equilibria().is_empty() {
            continue; // the honest inventor declines these
        }
        let outcome = authority.consult(round, &GameSpec::Strategic(game));
        if outcome.adopted {
            adopted += 1;
        }
    }
    println!("Adopted {adopted} honest advices despite the faulty minority.\n");

    println!("Reputation scores after the run:");
    for i in 0..panel.len() as u64 {
        let v = Party::Verifier(i);
        let trusted = authority.reputation().is_trusted(v);
        println!(
            "  {v}: score {:>4}  {}",
            authority.reputation().score(v),
            if trusted { "(trusted)" } else { "(EXCLUDED)" }
        );
    }
    let trusted = authority.trusted_verifiers();
    println!("\nStill consulted: {trusted:?}");
    assert!(trusted.contains(&Party::Verifier(0)));
    assert!(
        !trusted.contains(&Party::Verifier(4)) && !trusted.contains(&Party::Verifier(5)),
        "saboteurs must be excluded"
    );

    // ---- The inventor-side audit trail -------------------------------------
    println!("\nSigned statistics ledger (inventor accountability):");
    let key = SigningKey::derive("inventor-0");
    let mut ledger = StatisticsLedger::new();
    for round in 1..=5u64 {
        ledger.publish(&key, round, vec![Rational::from(490 + round as i64)]);
    }
    assert!(ledger.audit(&key).is_ok());
    println!("  5 rounds published and audited clean.");
    // An impostor's key fails the audit:
    let impostor = SigningKey::derive("impostor");
    assert!(ledger.audit(&impostor).is_err());
    println!("  An impostor key fails the audit — records are attributable.");
}
