//! Dominant-strategy certificates (auction case studies).
//!
//! The related-work section of the paper cites Tadjouddine's result that
//! verifying dominant-strategy equilibria is NP-complete for succinct game
//! representations; for explicitly tabulated games the check is linear in
//! the table, which is what this verifier does. The sealed-bid and GSP
//! auctions use these certificates to ship "bidding truthfully is
//! dominant" advice, and to refute it where it is false.

use std::fmt;

use ra_games::{Dominance, ProfileIter, StrategicGame, Strategy, StrategyProfile};

/// A claim that `strategy` is a dominant strategy for `agent`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DominanceCertificate {
    /// The agent the advice is for.
    pub agent: usize,
    /// The claimed dominant strategy.
    pub strategy: Strategy,
    /// Strict or weak dominance.
    pub kind: Dominance,
}

/// Rejection reasons for dominance certificates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DominanceError {
    /// Agent or strategy out of range.
    OutOfRange,
    /// A counterexample: against `opponents`, `better_strategy` beats (or
    /// ties, under strict dominance) the claimed strategy.
    CounterExample {
        /// The opponents' strategies (the agent's own slot is arbitrary).
        opponents: StrategyProfile,
        /// The strategy that defeats the claim there.
        better_strategy: Strategy,
    },
}

impl fmt::Display for DominanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DominanceError::OutOfRange => write!(f, "agent or strategy out of range"),
            DominanceError::CounterExample {
                opponents,
                better_strategy,
            } => write!(
                f,
                "dominance fails against {opponents}: strategy {better_strategy} does better"
            ),
        }
    }
}

impl std::error::Error for DominanceError {}

/// Verifies a dominance certificate by scanning all opponent profiles —
/// `O(|A_{−i}| · |A_i|)` exact comparisons on the explicit table.
///
/// # Errors
///
/// Returns the first counterexample found.
///
/// # Examples
///
/// ```
/// use ra_games::named::prisoners_dilemma;
/// use ra_games::Dominance;
/// use ra_auctions::{verify_dominance_certificate, DominanceCertificate};
///
/// let game = prisoners_dilemma().to_strategic();
/// let cert = DominanceCertificate { agent: 0, strategy: 1, kind: Dominance::Strict };
/// assert!(verify_dominance_certificate(&game, &cert).is_ok());
/// let bogus = DominanceCertificate { agent: 0, strategy: 0, kind: Dominance::Weak };
/// assert!(verify_dominance_certificate(&game, &bogus).is_err());
/// ```
pub fn verify_dominance_certificate(
    game: &StrategicGame,
    certificate: &DominanceCertificate,
) -> Result<(), DominanceError> {
    let agent = certificate.agent;
    if agent >= game.num_agents() || certificate.strategy >= game.strategy_counts()[agent] {
        return Err(DominanceError::OutOfRange);
    }
    let mut opponent_counts = game.strategy_counts().to_vec();
    opponent_counts[agent] = 1;
    for opponents in ProfileIter::new(opponent_counts) {
        let with_claim = opponents.with_strategy(agent, certificate.strategy);
        let claim_payoff = game.payoff(agent, &with_claim);
        for other in 0..game.strategy_counts()[agent] {
            if other == certificate.strategy {
                continue;
            }
            let other_payoff = game.payoff(agent, &opponents.with_strategy(agent, other));
            let ok = match certificate.kind {
                Dominance::Strict => claim_payoff > other_payoff,
                Dominance::Weak => claim_payoff >= other_payoff,
            };
            if !ok {
                return Err(DominanceError::CounterExample {
                    opponents,
                    better_strategy: other,
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ra_exact::Rational;
    use ra_games::named::{matching_pennies, prisoners_dilemma};

    #[test]
    fn prisoners_dilemma_defection_certified() {
        let game = prisoners_dilemma().to_strategic();
        for agent in 0..2 {
            for kind in [Dominance::Strict, Dominance::Weak] {
                let cert = DominanceCertificate {
                    agent,
                    strategy: 1,
                    kind,
                };
                assert!(verify_dominance_certificate(&game, &cert).is_ok());
            }
        }
    }

    #[test]
    fn counterexample_reported() {
        let game = matching_pennies().to_strategic();
        let cert = DominanceCertificate {
            agent: 0,
            strategy: 0,
            kind: Dominance::Weak,
        };
        let err = verify_dominance_certificate(&game, &cert).unwrap_err();
        assert!(matches!(
            err,
            DominanceError::CounterExample {
                better_strategy: 1,
                ..
            }
        ));
    }

    #[test]
    fn weak_vs_strict_distinction() {
        // Strategy 1 ties against column 0, wins against column 1.
        let r = Rational::from;
        let game = StrategicGame::from_tables(
            &[vec![r(1), r(0)], vec![r(1), r(1)]],
            &[vec![r(0), r(0)], vec![r(0), r(0)]],
        );
        let weak = DominanceCertificate {
            agent: 0,
            strategy: 1,
            kind: Dominance::Weak,
        };
        let strict = DominanceCertificate {
            agent: 0,
            strategy: 1,
            kind: Dominance::Strict,
        };
        assert!(verify_dominance_certificate(&game, &weak).is_ok());
        assert!(matches!(
            verify_dominance_certificate(&game, &strict),
            Err(DominanceError::CounterExample { .. })
        ));
    }

    #[test]
    fn out_of_range_rejected() {
        let game = prisoners_dilemma().to_strategic();
        let cert = DominanceCertificate {
            agent: 7,
            strategy: 0,
            kind: Dominance::Weak,
        };
        assert_eq!(
            verify_dominance_certificate(&game, &cert),
            Err(DominanceError::OutOfRange)
        );
        let cert = DominanceCertificate {
            agent: 0,
            strategy: 9,
            kind: Dominance::Weak,
        };
        assert_eq!(
            verify_dominance_certificate(&game, &cert),
            Err(DominanceError::OutOfRange)
        );
    }

    #[test]
    fn agrees_with_games_crate_predicate() {
        for seed in 0..40 {
            let game = ra_games::GameGenerator::seeded(seed).strategic(vec![3, 3], -5..=5);
            for agent in 0..2 {
                for s in 0..3 {
                    for kind in [Dominance::Strict, Dominance::Weak] {
                        let cert = DominanceCertificate {
                            agent,
                            strategy: s,
                            kind,
                        };
                        assert_eq!(
                            verify_dominance_certificate(&game, &cert).is_ok(),
                            ra_games::is_dominant_strategy(&game, agent, s, kind),
                            "seed {seed} agent {agent} strategy {s} {kind:?}"
                        );
                    }
                }
            }
        }
    }
}
