//! Game inventors — honest and biased.
//!
//! The inventor is *not trusted*: it "may possibly gain revenues from the
//! game" and may misadvise. The honest implementation runs the `ra-solvers`
//! machinery and packages certificates; the dishonest variants produce the
//! specific corruptions the paper worries about, so the end-to-end tests can
//! show each one being caught by verification.

use ra_exact::{rat, Rational};
use ra_games::{BimatrixGame, StrategicGame};
use ra_proofs::{OnlineInstance, P2Advice, ParticipationCertificate, SupportCertificate};
use ra_solvers::{
    find_one_equilibrium, honest_online_advice, honest_row_advice, prove_is_nash,
    solve_participation_equilibrium, EquilibriumRoot, ParticipationParams,
};

use crate::messages::{Advice, Party};

/// The game being consulted about, as the session layer sees it.
///
/// Implements [`crate::wire::Wire`] (see `messages.rs`): the canonical
/// encoding is what [`crate::cache::spec_digest`] hashes, so two specs are
/// cache-equivalent exactly when they are `==`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GameSpec {
    /// A §3 strategic-form game; advice = a pure profile with kernel proof.
    Strategic(StrategicGame),
    /// A §4 bimatrix game; advice = a P1 support certificate.
    Bimatrix(BimatrixGame),
    /// The §5 participation game; advice = the equilibrium probability.
    Participation(ParticipationParams),
    /// A §6 parallel-links arrival; advice = a link with its equilibrium
    /// assignment.
    ParallelLinks {
        /// Published link loads at arrival time.
        current_loads: Vec<Rational>,
        /// The arriving agent's load.
        own_load: Rational,
        /// Expected per-agent future load (running average).
        expected_future_load: Rational,
        /// Agents still expected.
        expected_future_agents: usize,
    },
}

/// How the inventor behaves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InventorBehavior {
    /// Computes genuine equilibria and honest certificates.
    Honest,
    /// Produces deliberately corrupted advice (wrong profile / perturbed
    /// support / perturbed probability / rerouted link).
    Corrupt,
    /// Refuses to answer (models an unavailable inventor).
    Silent,
}

/// A game inventor.
#[derive(Clone, Debug)]
pub struct Inventor {
    /// Protocol identity.
    pub id: Party,
    /// Behaviour under test.
    pub behavior: InventorBehavior,
}

impl Inventor {
    /// Creates an inventor with the given identity number and behaviour.
    pub fn new(id: u64, behavior: InventorBehavior) -> Inventor {
        Inventor {
            id: Party::Inventor(id),
            behavior,
        }
    }

    /// Produces advice for a game (or `None` if silent / no equilibrium
    /// could be produced).
    pub fn advise(&self, spec: &GameSpec) -> Option<Advice> {
        match self.behavior {
            InventorBehavior::Silent => None,
            InventorBehavior::Honest => self.advise_honestly(spec),
            InventorBehavior::Corrupt => self.advise_corruptly(spec),
        }
    }

    /// §4 P2 advice for the row agent of `game`, with the prover's answer
    /// to a membership query about each column, both from one
    /// equilibrium (`None` as for [`Inventor::advise`]). A corrupt prover
    /// inverts every answer.
    pub(crate) fn advise_private(&self, game: &BimatrixGame) -> Option<(P2Advice, Vec<bool>)> {
        let lies = match self.behavior {
            InventorBehavior::Silent => return None,
            InventorBehavior::Honest => false,
            InventorBehavior::Corrupt => true,
        };
        let profile = find_one_equilibrium(game)?.profile;
        let answers = (0..game.cols())
            .map(|j| !profile.col.prob(j).is_zero() ^ lies)
            .collect();
        Some((honest_row_advice(game, &profile), answers))
    }

    fn advise_honestly(&self, spec: &GameSpec) -> Option<Advice> {
        match spec {
            GameSpec::Strategic(game) => {
                // Only one equilibrium is shipped, so stop at the first.
                let profile = game.find_profile(|p| game.is_pure_nash(p))?;
                Some(Advice::PureNash(prove_is_nash(profile)))
            }
            GameSpec::Bimatrix(game) => {
                let eq = find_one_equilibrium(game)?;
                Some(Advice::Support(SupportCertificate {
                    row_support: eq.row_support,
                    col_support: eq.col_support,
                }))
            }
            GameSpec::Participation(params) => {
                let roots = solve_participation_equilibrium(params, &rat(1, 1 << 30)).ok()?;
                Some(Advice::Participation(ParticipationCertificate {
                    root: roots.into_iter().next()?,
                }))
            }
            GameSpec::ParallelLinks {
                current_loads,
                own_load,
                expected_future_load,
                expected_future_agents,
            } => honest_online_advice(&OnlineInstance {
                current_loads,
                own_load,
                expected_future_load,
                expected_future_agents: *expected_future_agents,
            })
            .ok()
            .map(Advice::Online),
        }
    }

    /// Corruption strategies, one per case study. Each is the "most
    /// tempting" lie: small, plausible, and profitable if undetected.
    fn advise_corruptly(&self, spec: &GameSpec) -> Option<Advice> {
        match spec {
            GameSpec::Strategic(game) => {
                // Advise a non-equilibrium profile, with a (doomed) proof.
                let profile = game.find_profile(|p| !game.is_pure_nash(p))?;
                Some(Advice::PureNash(prove_is_nash(profile)))
            }
            GameSpec::Bimatrix(game) => {
                // Take the real equilibrium's supports and flip one column
                // membership.
                let eq = find_one_equilibrium(game)?;
                let mut col = eq.col_support.clone();
                match col.iter().position(|&j| j == 0) {
                    Some(pos) if col.len() > 1 => {
                        col.remove(pos);
                    }
                    _ => {
                        if !col.contains(&0) {
                            col.insert(0, 0);
                        } else {
                            // Single-column support containing 0: move it.
                            col = vec![1 % game.cols()];
                        }
                    }
                }
                Some(Advice::Support(SupportCertificate {
                    row_support: eq.row_support,
                    col_support: col,
                }))
            }
            GameSpec::Participation(params) => {
                // Perturb the true probability by a small amount.
                let roots = solve_participation_equilibrium(params, &rat(1, 1 << 30)).ok()?;
                let root = match roots.into_iter().next()? {
                    EquilibriumRoot::Exact(p) => EquilibriumRoot::Exact(p + rat(1, 50)),
                    EquilibriumRoot::Bracket { lo, hi } => EquilibriumRoot::Bracket {
                        lo: lo + rat(1, 50),
                        hi: hi + rat(1, 50),
                    },
                };
                Some(Advice::Participation(ParticipationCertificate { root }))
            }
            GameSpec::ParallelLinks {
                current_loads,
                own_load,
                expected_future_load,
                expected_future_agents,
            } => {
                // Honest assignment but reroute the suggestion — steering
                // the agent onto a worse link.
                let mut cert = honest_online_advice(&OnlineInstance {
                    current_loads,
                    own_load,
                    expected_future_load,
                    expected_future_agents: *expected_future_agents,
                })
                .ok()?;
                cert.suggested_link = (cert.suggested_link + 1) % current_loads.len();
                Some(Advice::Online(cert))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ra_games::named::{matching_pennies, prisoners_dilemma};

    #[test]
    fn honest_strategic_advice() {
        let inventor = Inventor::new(0, InventorBehavior::Honest);
        let spec = GameSpec::Strategic(prisoners_dilemma().to_strategic());
        match inventor.advise(&spec) {
            Some(Advice::PureNash(proof)) => {
                assert_eq!(proof.equilibrium_profile(), Some(&vec![1, 1].into()));
            }
            other => panic!("unexpected advice {other:?}"),
        }
    }

    #[test]
    fn honest_strategic_advice_is_the_first_enumerated_equilibrium() {
        let inventor = Inventor::new(0, InventorBehavior::Honest);
        let shapes = [vec![3, 3], vec![4, 2], vec![2, 2, 3]];
        let mut without_equilibrium = 0;
        for seed in 0..60u64 {
            let counts = shapes[seed as usize % shapes.len()].clone();
            let game = ra_games::GameGenerator::seeded(seed).strategic(counts, -9..=9);
            let expected = ra_solvers::analyze_pure_nash(&game)
                .equilibria
                .first()
                .cloned();
            without_equilibrium += usize::from(expected.is_none());
            let advised = match inventor.advise(&GameSpec::Strategic(game)) {
                Some(Advice::PureNash(proof)) => proof.equilibrium_profile().cloned(),
                None => None,
                other => panic!("unexpected advice {other:?}"),
            };
            assert_eq!(advised, expected, "seed {seed}");
        }
        assert!(
            without_equilibrium > 0,
            "no game without a pure equilibrium"
        );
    }

    #[test]
    fn honest_declines_when_no_pure_equilibrium() {
        let inventor = Inventor::new(0, InventorBehavior::Honest);
        let spec = GameSpec::Strategic(matching_pennies().to_strategic());
        assert!(inventor.advise(&spec).is_none());
    }

    #[test]
    fn silent_inventor_says_nothing() {
        let inventor = Inventor::new(0, InventorBehavior::Silent);
        let spec = GameSpec::Strategic(prisoners_dilemma().to_strategic());
        assert!(inventor.advise(&spec).is_none());
    }

    #[test]
    fn corrupt_advice_differs_from_honest() {
        let honest = Inventor::new(0, InventorBehavior::Honest);
        let corrupt = Inventor::new(1, InventorBehavior::Corrupt);
        let spec = GameSpec::Bimatrix(matching_pennies());
        let h = honest.advise(&spec).unwrap();
        let c = corrupt.advise(&spec).unwrap();
        assert_ne!(h, c);
        let spec = GameSpec::Participation(ParticipationParams::paper_example());
        assert_ne!(
            honest.advise(&spec).unwrap(),
            corrupt.advise(&spec).unwrap()
        );
    }
}
