//! Terms of the proof language.
//!
//! A [`Term`] is a closed arithmetic expression over a fixed game: rational
//! constants, utility lookups `u(i, Si)` (Fig. 2's `u`), and arithmetic. The
//! kernel evaluates terms exactly; there are no free variables, so
//! evaluation is total once the profile indices are in range.

use std::fmt;

use ra_exact::Rational;
use ra_games::{StrategicGame, StrategyProfile};

/// A closed arithmetic term over a game's utility tensor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Term {
    /// A rational constant.
    Const(Rational),
    /// `u(agent, profile)` — the agent's utility under the profile.
    Utility {
        /// The agent whose utility is read.
        agent: usize,
        /// The pure profile at which it is read.
        profile: StrategyProfile,
    },
    /// Sum of two terms.
    Add(Box<Term>, Box<Term>),
    /// Difference of two terms.
    Sub(Box<Term>, Box<Term>),
    /// Product of two terms.
    Mul(Box<Term>, Box<Term>),
}

/// Error raised when a term refers outside the game.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TermError {
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for TermError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "term error: {}", self.message)
    }
}

impl std::error::Error for TermError {}

impl Term {
    /// Convenience constructor for a utility lookup.
    pub fn utility(agent: usize, profile: StrategyProfile) -> Term {
        Term::Utility { agent, profile }
    }

    /// Convenience constructor for a constant.
    pub fn constant(v: Rational) -> Term {
        Term::Const(v)
    }

    /// Exact evaluation against a game.
    ///
    /// # Errors
    ///
    /// Returns [`TermError`] if a utility lookup is out of range for the
    /// game (invalid agent or profile).
    pub fn eval(&self, game: &StrategicGame) -> Result<Rational, TermError> {
        match self {
            Term::Const(v) => Ok(v.clone()),
            Term::Utility { agent, profile } => {
                if *agent >= game.num_agents() {
                    return Err(TermError {
                        message: format!("agent {agent} out of range"),
                    });
                }
                if !profile.is_valid_for(game.strategy_counts()) {
                    return Err(TermError {
                        message: format!("profile {profile} invalid for game"),
                    });
                }
                Ok(game.payoff(*agent, profile).clone())
            }
            Term::Add(a, b) => Ok(a.eval(game)? + b.eval(game)?),
            Term::Sub(a, b) => Ok(a.eval(game)? - b.eval(game)?),
            Term::Mul(a, b) => Ok(a.eval(game)? * b.eval(game)?),
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Const(v) => write!(f, "{v}"),
            Term::Utility { agent, profile } => write!(f, "u({agent}, {profile})"),
            Term::Add(a, b) => write!(f, "({a} + {b})"),
            Term::Sub(a, b) => write!(f, "({a} - {b})"),
            Term::Mul(a, b) => write!(f, "({a} * {b})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ra_exact::rat;
    use ra_games::named::prisoners_dilemma;

    #[test]
    fn evaluates_utilities() {
        let game = prisoners_dilemma().to_strategic();
        let t = Term::utility(0, vec![1, 0].into());
        assert_eq!(t.eval(&game).unwrap(), rat(0, 1));
        let t2 = Term::Add(
            Box::new(Term::utility(0, vec![1, 1].into())),
            Box::new(Term::Const(rat(5, 1))),
        );
        assert_eq!(t2.eval(&game).unwrap(), rat(3, 1));
    }

    #[test]
    fn arithmetic() {
        let game = prisoners_dilemma().to_strategic();
        let t = Term::Mul(
            Box::new(Term::Sub(
                Box::new(Term::Const(rat(7, 2))),
                Box::new(Term::Const(rat(1, 2))),
            )),
            Box::new(Term::Const(rat(2, 3))),
        );
        assert_eq!(t.eval(&game).unwrap(), rat(2, 1));
    }

    #[test]
    fn out_of_range_errors() {
        let game = prisoners_dilemma().to_strategic();
        assert!(Term::utility(5, vec![0, 0].into()).eval(&game).is_err());
        assert!(Term::utility(0, vec![0, 7].into()).eval(&game).is_err());
        assert!(Term::utility(0, vec![0].into()).eval(&game).is_err());
    }

    #[test]
    fn display_is_readable() {
        let t = Term::Sub(
            Box::new(Term::utility(0, vec![1, 0].into())),
            Box::new(Term::Const(rat(1, 2))),
        );
        assert_eq!(format!("{t}"), "(u(0, (1, 0)) - 1/2)");
    }
}
