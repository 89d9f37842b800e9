//! Regenerates every worked number in §5 (the participation game).
//!
//! * Eq. (4): `c = v(n−1)p(1−p)^{n−2}` at the advised `p`.
//! * The worked example `c/v = 3/8, n = 3 ⇒ p = 1/4`, expected gain `v/16`.
//! * Eq. (5) conditional probabilities `A_k, B_k, C_k, D_k`.
//! * The online variant: last-mover gains, the paper's `5v/24` lower bound
//!   and the exact online expectation, vs the offline `v/16`.
//!
//! Usage: `cargo run -p ra-bench --release --bin sec5_numbers`
#![allow(clippy::result_large_err)]

use ra_auctions::{
    exact_online_expected_gain, last_mover_advice, last_mover_gain, ParticipationGame,
};
use ra_bench::{timed, write_csv};
use ra_exact::{rat, Rational};
use ra_proofs::{verify_participation_certificate, ParticipationVerified};
use ra_solvers::{solve_participation_equilibrium, ParticipationParams};

fn main() {
    let game = ParticipationGame::paper_example();
    let params = game.params().clone();
    println!(
        "§5 worked example: n = {}, k = {}, v = {}, c = {} (c/v = {})\n",
        params.n,
        params.k,
        params.v,
        params.c,
        &params.c / &params.v
    );

    // Offline equilibrium and certificate verification.
    let (cert, t_solve) = timed(|| game.inventor_advice(&rat(1, 1 << 30)).unwrap());
    let (p, t_verify) =
        timed(|| verify_participation_certificate(&params, &cert, &rat(1, 1 << 20)).unwrap());
    let verified = ParticipationVerified::at(&params, p);
    println!("advised p                 = {}   (paper: 1/4)", verified.p);
    println!(
        "A_k = Pr[≥1 other | in]   = {}   (paper: 7/16)",
        verified.a_k
    );
    println!(
        "B_k = Pr[0 others | in]   = {}   (paper: 9/16)",
        verified.b_k
    );
    println!(
        "C_k = Pr[≥2 others | out] = {}   (paper: 1/16)",
        verified.c_k
    );
    println!(
        "D_k = Pr[≤1 other | out]  = {}   (paper: 15/16)",
        verified.d_k
    );
    println!(
        "expected gain             = {}   (paper: v/16 = 1/2 at v = 8)",
        verified.expected_gain
    );
    println!(
        "solver time {} vs verifier time {}",
        ra_bench::fmt_secs(t_solve),
        ra_bench::fmt_secs(t_verify)
    );
    assert_eq!(verified.p, rat(1, 4));
    assert_eq!(verified.expected_gain, rat(1, 2));

    // Online last-mover table.
    println!("\nonline last-mover advice (k = 2):");
    println!(
        "{:>16} {:>8} {:>12} {:>14}",
        "prior entrants", "advice", "gain", "flipped gain"
    );
    for prior in 0..3usize {
        let advice = last_mover_advice(&params, prior);
        let gain = last_mover_gain(&params, prior, advice.participate);
        let flipped = last_mover_gain(&params, prior, !advice.participate);
        println!(
            "{:>16} {:>8} {:>12} {:>14}",
            prior,
            if advice.participate { "p = 1" } else { "p = 0" },
            gain.to_string(),
            flipped.to_string()
        );
    }

    // Expected-gain comparison.
    let online = exact_online_expected_gain(&params, &rat(1, 4));
    println!("\nexpected gain per firm (random arrival order):");
    println!("  offline equilibrium (v/16):       {}", rat(1, 2));
    println!("  paper online lower bound (5v/24): {}", rat(5, 3));
    println!("  exact online value:               {online} (= 21v/64)");
    assert_eq!(online, rat(21, 8));

    // General-k sweep: solve + verify across parameterisations.
    println!("\ngeneral-k sweep (solver → verifier round trip):");
    println!(
        "{:>4} {:>4} {:>6} {:>6} {:>14} {:>12} {:>12}",
        "n", "k", "v", "c", "p (≈)", "solve", "verify"
    );
    let mut rows = Vec::new();
    for (n, k, v, c) in [
        (3u64, 2u64, 8i64, 3i64),
        (5, 2, 10, 1),
        (8, 3, 12, 1),
        (10, 5, 20, 1),
        (12, 2, 9, 2),
        (15, 4, 30, 1),
    ] {
        let params = ParticipationParams::new(n, k, Rational::from(v), Rational::from(c)).unwrap();
        let tol = rat(1, 1 << 26);
        let (roots, t_solve) = timed(|| solve_participation_equilibrium(&params, &tol));
        let Ok(roots) = roots else {
            println!(
                "{n:>4} {k:>4} {v:>6} {c:>6} {:>14} {:>12} {:>12}",
                "none", "-", "-"
            );
            continue;
        };
        let cert = ra_proofs::ParticipationCertificate {
            root: roots[0].clone(),
        };
        let (res, t_verify) = timed(|| verify_participation_certificate(&params, &cert, &tol));
        assert!(res.is_ok());
        let p_approx = roots[0].value().to_f64();
        println!(
            "{n:>4} {k:>4} {v:>6} {c:>6} {p_approx:>14.6} {:>12} {:>12}",
            ra_bench::fmt_secs(t_solve),
            ra_bench::fmt_secs(t_verify)
        );
        rows.push(format!(
            "{n},{k},{v},{c},{p_approx:.8},{t_solve:.9},{t_verify:.9}"
        ));
    }
    let path = write_csv("sec5", "n,k,v,c,p,solve_secs,verify_secs", &rows);
    println!("\nwrote {}", path.display());
}
