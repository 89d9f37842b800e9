//! §5: every root the bisection solver returns passes the Eq. (5) checker.

mod tests {
    use ra_exact::{rat, Rational};
    use ra_proofs::{verify_participation_certificate, ParticipationCertificate};

    use crate::{solve_participation_equilibrium, ParticipationParams};

    #[test]
    fn bracket_certificates() {
        // Irrational roots: n = 5, k = 2, v = 10, c = 1.
        let params = ParticipationParams::new(5, 2, Rational::from(10), Rational::from(1)).unwrap();
        let tol = rat(1, 1 << 20);
        let roots = solve_participation_equilibrium(&params, &tol).unwrap();
        for root in roots {
            let cert = ParticipationCertificate { root };
            assert!(verify_participation_certificate(&params, &cert, &tol).is_ok());
        }
    }

    #[test]
    fn solver_to_verifier_round_trip() {
        for (n, k, v, c) in [(4u64, 2u64, 12i64, 2i64), (6, 3, 20, 3), (8, 2, 9, 1)] {
            let params =
                ParticipationParams::new(n, k, Rational::from(v), Rational::from(c)).unwrap();
            let tol = rat(1, 1 << 22);
            if let Ok(roots) = solve_participation_equilibrium(&params, &tol) {
                for root in roots {
                    verify_participation_certificate(
                        &params,
                        &ParticipationCertificate { root },
                        &tol,
                    )
                    .unwrap_or_else(|e| panic!("n={n} k={k}: {e}"));
                }
            }
        }
    }
}
