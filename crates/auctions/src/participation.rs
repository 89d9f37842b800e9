//! The Participation game (§5, offline version).
//!
//! `n` firms decide whether to enter an auction with participation fee `c`
//! and prize value `v`; the prize materialises only if at least `k` firms
//! enter. Entering when fewer than `k` enter costs the fee; staying out when
//! `≥ k` enter yields `v` for free. This wraps the raw payoff rules around
//! [`SymmetricBinaryGame`], ties them to the solver's
//! [`ParticipationParams`], and produces the inventor's verifiable advice.

use ra_exact::Rational;
use ra_games::SymmetricBinaryGame;
use ra_proofs::ParticipationCertificate;
use ra_solvers::{solve_participation_equilibrium, ParticipationParams, ParticipationSolveError};

/// The participation game: parameters plus the induced symmetric game.
#[derive(Clone, Debug)]
pub struct ParticipationGame {
    params: ParticipationParams,
    game: SymmetricBinaryGame,
}

impl ParticipationGame {
    /// Builds the game from validated parameters.
    pub fn new(params: ParticipationParams) -> ParticipationGame {
        let (v, c, k) = (params.v.clone(), params.c.clone(), params.k as usize);
        let game = SymmetricBinaryGame::from_fn(params.n as usize, move |own, others_in| {
            let total = others_in + own as usize;
            match own {
                1 if total >= k => &v - &c,
                1 => -&c,
                0 if others_in >= k => v.clone(),
                _ => Rational::zero(),
            }
        });
        ParticipationGame { params, game }
    }

    /// The paper's worked example (`n = 3`, `k = 2`, `c/v = 3/8`).
    pub fn paper_example() -> ParticipationGame {
        ParticipationGame::new(ParticipationParams::paper_example())
    }

    /// Game parameters.
    pub fn params(&self) -> &ParticipationParams {
        &self.params
    }

    /// The underlying symmetric game.
    pub fn symmetric_game(&self) -> &SymmetricBinaryGame {
        &self.game
    }

    /// Expected payoff of one firm when everyone participates independently
    /// with probability `p` (by symmetry every firm gets the same).
    pub fn expected_gain_at(&self, p: &Rational) -> Rational {
        // At equilibrium both actions tie; off equilibrium report the mix.
        let in_pay = self.game.expected_payoff(1, p);
        let out_pay = self.game.expected_payoff(0, p);
        p * &in_pay + (Rational::one() - p) * &out_pay
    }

    /// The inventor's job: compute the symmetric equilibrium advice and
    /// package it as a verifiable certificate (smallest interior root, the
    /// conventional advice).
    ///
    /// # Errors
    ///
    /// Propagates [`ParticipationSolveError`] when no interior equilibrium
    /// exists.
    pub fn inventor_advice(
        &self,
        tolerance: &Rational,
    ) -> Result<ParticipationCertificate, ParticipationSolveError> {
        let roots = solve_participation_equilibrium(&self.params, tolerance)?;
        Ok(ParticipationCertificate {
            root: roots
                .into_iter()
                .next()
                .expect("solver returns at least one root"),
        })
    }

    /// Consistency check: the indifference function of the solver parameters
    /// agrees with the symmetric game's indifference gap (they were derived
    /// independently — Eq. (4) algebra vs. direct expectation).
    pub fn indifference_consistent_at(&self, p: &Rational) -> bool {
        self.game.indifference_gap(p) == self.params.indifference_fn(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ra_exact::rat;
    use ra_proofs::{verify_participation_certificate, ParticipationVerified};

    #[test]
    fn paper_equilibrium_and_gain() {
        let game = ParticipationGame::paper_example();
        let p = rat(1, 4);
        assert!(game.symmetric_game().is_symmetric_equilibrium(&p));
        // Expected gain at the equilibrium: v/16 = 1/2 for v = 8.
        assert_eq!(game.expected_gain_at(&p), rat(1, 2));
    }

    #[test]
    fn advice_round_trip() {
        let game = ParticipationGame::paper_example();
        let cert = game.inventor_advice(&rat(1, 1 << 24)).unwrap();
        let p = verify_participation_certificate(game.params(), &cert, &rat(1, 1 << 20)).unwrap();
        assert_eq!(p, rat(1, 4));
        let verified = ParticipationVerified::at(game.params(), p);
        assert_eq!(verified.expected_gain, rat(1, 2));
    }

    #[test]
    fn indifference_derivations_agree() {
        // The symmetric-game expectation and the Eq. (4)/(5) closed form
        // must agree everywhere, for several parameterisations.
        for (n, k, v, c) in [
            (3u64, 2u64, 8i64, 3i64),
            (5, 2, 10, 1),
            (6, 4, 16, 1),
            (4, 4, 9, 2),
        ] {
            let params =
                ParticipationParams::new(n, k, Rational::from(v), Rational::from(c)).unwrap();
            let game = ParticipationGame::new(params);
            for num in 0..=10i64 {
                let p = rat(num, 10);
                assert!(
                    game.indifference_consistent_at(&p),
                    "n={n} k={k} p={p}: gap {} vs closed form {}",
                    game.symmetric_game().indifference_gap(&p),
                    game.params().indifference_fn(&p)
                );
            }
        }
    }

    #[test]
    fn no_advice_when_fee_too_high() {
        let params = ParticipationParams::new(3, 2, Rational::from(8), Rational::from(5)).unwrap();
        let game = ParticipationGame::new(params);
        assert!(game.inventor_advice(&rat(1, 1024)).is_err());
        // p = 0 remains an equilibrium of the symmetric game.
        assert!(game
            .symmetric_game()
            .is_symmetric_equilibrium(&Rational::zero()));
    }

    #[test]
    fn general_k_consistency_with_strategic_expansion() {
        let params = ParticipationParams::new(4, 3, Rational::from(10), Rational::from(2)).unwrap();
        let game = ParticipationGame::new(params);
        let strategic = game.symmetric_game().to_strategic();
        // Pure profile with exactly 3 participants is a Nash equilibrium:
        // each participant gets v−c=8>0 (leaving → k unmet → others... the
        // leaver gets 0); the outsider joining gets v−c=8 vs currently
        // v=10 — prefers to stay out.
        assert!(strategic.is_pure_nash(&vec![1, 1, 1, 0].into()));
        // Exactly 2 participants: not an equilibrium (they pay c).
        assert!(!strategic.is_pure_nash(&vec![1, 1, 0, 0].into()));
    }
}
