//! Strategy dominance and dominant-strategy equilibria.
//!
//! Tadjouddine [29] (cited in the paper's related work) shows that verifying
//! a *Nash* equilibrium is polynomial while verifying a *dominant strategy*
//! equilibrium is NP-complete in general representations; for explicitly
//! tabulated games both are polynomial in the table size. These helpers feed
//! the auction case studies (second-price truthfulness certificates).

use crate::profile::{Agent, ProfileIter, Strategy, StrategyProfile};
use crate::strategic::StrategicGame;

/// Kind of dominance being claimed or tested.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Dominance {
    /// Strictly better against every opponent profile.
    Strict,
    /// Weakly better against every opponent profile (and the definitions
    /// here do not require strictness anywhere).
    Weak,
}

/// Returns `true` if `strategy` of `agent` dominates `other` in the given
/// sense, i.e. for every combination of the other agents' strategies the
/// payoff of `strategy` is (strictly/weakly) better than `other`'s.
///
/// # Panics
///
/// Panics if indices are out of range.
pub fn dominates(
    game: &StrategicGame,
    agent: Agent,
    strategy: Strategy,
    other: Strategy,
    kind: Dominance,
) -> bool {
    assert!(agent < game.num_agents(), "agent out of range");
    let counts = game.strategy_counts();
    assert!(
        strategy < counts[agent] && other < counts[agent],
        "strategy out of range"
    );
    if strategy == other {
        // A strategy never strictly dominates itself; it trivially weakly
        // "dominates" itself, but callers almost always mean distinct
        // strategies, so be conservative for Strict only.
        return kind == Dominance::Weak;
    }
    // Iterate over opponents' joint strategies by enumerating full profiles
    // with the agent's coordinate pinned afterwards.
    let mut opponent_counts = counts.to_vec();
    opponent_counts[agent] = 1;
    ProfileIter::new(opponent_counts).all(|p| {
        let with_s = p.with_strategy(agent, strategy);
        let with_o = p.with_strategy(agent, other);
        match kind {
            Dominance::Strict => game.payoff(agent, &with_s) > game.payoff(agent, &with_o),
            Dominance::Weak => game.payoff(agent, &with_s) >= game.payoff(agent, &with_o),
        }
    })
}

/// Returns `true` if `strategy` is a dominant strategy for `agent`:
/// it dominates every *other* strategy of that agent in the given sense.
pub fn is_dominant_strategy(
    game: &StrategicGame,
    agent: Agent,
    strategy: Strategy,
    kind: Dominance,
) -> bool {
    (0..game.strategy_counts()[agent])
        .filter(|&o| o != strategy)
        .all(|o| dominates(game, agent, strategy, o, kind))
}

/// Finds each agent's dominant strategies (possibly empty).
pub fn dominant_strategies(game: &StrategicGame, kind: Dominance) -> Vec<Vec<Strategy>> {
    (0..game.num_agents())
        .map(|agent| {
            (0..game.strategy_counts()[agent])
                .filter(|&s| is_dominant_strategy(game, agent, s, kind))
                .collect()
        })
        .collect()
}

/// Returns a dominant-strategy equilibrium if every agent has a dominant
/// strategy (taking the lowest-indexed one for each agent).
///
/// A dominant-strategy equilibrium is in particular a pure Nash equilibrium
/// (weak dominance suffices for that implication).
pub fn dominant_strategy_equilibrium(
    game: &StrategicGame,
    kind: Dominance,
) -> Option<StrategyProfile> {
    let per_agent = dominant_strategies(game, kind);
    let choice: Option<Vec<Strategy>> = per_agent.iter().map(|ds| ds.first().copied()).collect();
    choice.map(StrategyProfile::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ra_exact::Rational;

    fn r(v: i64) -> Rational {
        Rational::from(v)
    }

    fn prisoners_dilemma() -> StrategicGame {
        StrategicGame::from_tables(
            &[vec![r(-1), r(-3)], vec![r(0), r(-2)]],
            &[vec![r(-1), r(0)], vec![r(-3), r(-2)]],
        )
    }

    #[test]
    fn defection_strictly_dominates() {
        let g = prisoners_dilemma();
        for agent in 0..2 {
            assert!(dominates(&g, agent, 1, 0, Dominance::Strict));
            assert!(!dominates(&g, agent, 0, 1, Dominance::Weak));
            assert!(is_dominant_strategy(&g, agent, 1, Dominance::Strict));
        }
        let eq = dominant_strategy_equilibrium(&g, Dominance::Strict).unwrap();
        assert_eq!(eq, StrategyProfile::new(vec![1, 1]));
        assert!(g.is_pure_nash(&eq), "dominant strategy equilibrium is Nash");
    }

    #[test]
    fn weak_but_not_strict() {
        // Strategy 1 ties in one column and wins in the other.
        let g = StrategicGame::from_tables(
            &[vec![r(1), r(0)], vec![r(1), r(1)]],
            &[vec![r(0), r(0)], vec![r(0), r(0)]],
        );
        assert!(dominates(&g, 0, 1, 0, Dominance::Weak));
        assert!(!dominates(&g, 0, 1, 0, Dominance::Strict));
        assert!(is_dominant_strategy(&g, 0, 1, Dominance::Weak));
        assert!(!is_dominant_strategy(&g, 0, 1, Dominance::Strict));
    }

    #[test]
    fn no_dominant_strategy_in_matching_pennies() {
        let g = StrategicGame::from_tables(
            &[vec![r(1), r(-1)], vec![r(-1), r(1)]],
            &[vec![r(-1), r(1)], vec![r(1), r(-1)]],
        );
        assert_eq!(
            dominant_strategies(&g, Dominance::Weak),
            vec![Vec::<usize>::new(); 2]
        );
        assert!(dominant_strategy_equilibrium(&g, Dominance::Weak).is_none());
    }

    #[test]
    fn self_dominance_convention() {
        let g = prisoners_dilemma();
        assert!(!dominates(&g, 0, 1, 1, Dominance::Strict));
        assert!(dominates(&g, 0, 1, 1, Dominance::Weak));
    }

    #[test]
    fn three_player_dominance() {
        // Each agent's strategy 1 adds 1 to own payoff regardless of others.
        let g = StrategicGame::from_payoff_fn(vec![2, 2, 2], |p| {
            (0..3).map(|i| Rational::from(p.strategy_of(i))).collect()
        });
        let eq = dominant_strategy_equilibrium(&g, Dominance::Strict).unwrap();
        assert_eq!(eq, StrategyProfile::new(vec![1, 1, 1]));
    }
}
