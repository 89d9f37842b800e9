//! §4 P1: every enumerated equilibrium's supports pass the P1 checker.

mod tests {
    use ra_games::GameGenerator;
    use ra_proofs::{verify_support_certificate, P1Error, SupportCertificate};

    use crate::{enumerate_equilibria, EnumerationOptions};

    #[test]
    fn transcript_matches_lemma1_bits() {
        let game = GameGenerator::seeded(5).bimatrix(4, 6, -9..=9);
        let (eqs, _) = enumerate_equilibria(&game, &EnumerationOptions::default());
        let eq = &eqs[0];
        let cert = SupportCertificate {
            row_support: eq.row_support.clone(),
            col_support: eq.col_support.clone(),
        };
        assert!(verify_support_certificate(&game, &cert).is_ok());
        // P1's whole transcript is one prover message, the certificate:
        // one mask bit per pure strategy, n + m bits, of which the column
        // mask (m bits) reveals the opponent's support to the row agent.
        assert_eq!(cert.encoded_bits(&game), 4 + 6);
    }

    #[test]
    fn round_trip_with_solvers_on_random_games() {
        let mut accepted = 0;
        for seed in 0..60 {
            let game = GameGenerator::seeded(seed).bimatrix(3, 3, -12..=12);
            let (eqs, _) = enumerate_equilibria(&game, &EnumerationOptions::default());
            for eq in &eqs {
                let cert = SupportCertificate {
                    row_support: eq.row_support.clone(),
                    col_support: eq.col_support.clone(),
                };
                match verify_support_certificate(&game, &cert) {
                    Ok(v) => {
                        accepted += 1;
                        assert_eq!(v.profile, eq.profile, "seed {seed}");
                        assert_eq!(v.lambda1, eq.lambda1, "seed {seed}");
                        assert_eq!(v.lambda2, eq.lambda2, "seed {seed}");
                    }
                    // Degenerate supports are allowed to be rejected as such.
                    Err(P1Error::Degenerate) => {}
                    Err(other) => panic!("seed {seed}: unexpected rejection {other}"),
                }
            }
        }
        assert!(accepted > 50, "most enumerated equilibria verify via P1");
    }
}
