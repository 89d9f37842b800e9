//! Strategy profiles and profile enumeration.
//!
//! A *strategy profile* (Fig. 2's `Si`) assigns one pure strategy to every
//! agent. The §3 proof scheme enumerates all profiles (`allStrat`), so the
//! iterator here is the backbone of both the inventor's exhaustive search and
//! the kernel's `ForallProfiles` checking rule.

use std::fmt;

/// Identifier of an agent (player) — an index into the game's agent list.
pub type Agent = usize;

/// Identifier of a pure strategy — an index into an agent's strategy set.
pub type Strategy = usize;

/// A pure strategy profile: one strategy index per agent.
///
/// # Examples
///
/// ```
/// use ra_games::StrategyProfile;
///
/// let s = StrategyProfile::new(vec![0, 2, 1]);
/// assert_eq!(s.strategy_of(1), 2);
/// let t = s.with_strategy(1, 0);
/// assert_eq!(t.strategies(), &[0, 0, 1]);
/// assert_eq!(s.strategies(), &[0, 2, 1], "original is unchanged");
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StrategyProfile(Vec<Strategy>);

impl StrategyProfile {
    /// Creates a profile from per-agent strategy indices.
    pub fn new(strategies: Vec<Strategy>) -> StrategyProfile {
        StrategyProfile(strategies)
    }

    /// The all-zeros profile for `n` agents.
    pub fn zeros(n: usize) -> StrategyProfile {
        StrategyProfile(vec![0; n])
    }

    /// Number of agents covered by this profile.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Returns `true` if the profile covers no agents.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Strategy played by `agent`.
    ///
    /// # Panics
    ///
    /// Panics if `agent` is out of range.
    pub fn strategy_of(&self, agent: Agent) -> Strategy {
        self.0[agent]
    }

    /// All strategies as a slice.
    pub fn strategies(&self) -> &[Strategy] {
        &self.0
    }

    /// The paper's `change(Si, si, i)`: a copy of the profile in which agent
    /// `agent` plays `strategy` instead.
    ///
    /// # Panics
    ///
    /// Panics if `agent` is out of range.
    pub fn with_strategy(&self, agent: Agent, strategy: Strategy) -> StrategyProfile {
        let mut out = self.0.clone();
        out[agent] = strategy;
        StrategyProfile(out)
    }

    /// Steps this profile to the next one in odometer order (agent 0's
    /// strategy fastest), in place. Returns `false`, leaving the all-zeros
    /// profile, once the last profile of a game with these strategy
    /// counts has been passed.
    ///
    /// # Examples
    ///
    /// ```
    /// use ra_games::StrategyProfile;
    ///
    /// let mut s = StrategyProfile::zeros(2);
    /// assert!(s.advance(&[2, 2]));
    /// assert_eq!(s.strategies(), &[1, 0]);
    /// assert!(s.advance(&[2, 2]) && s.advance(&[2, 2]));
    /// assert_eq!(s.strategies(), &[1, 1]);
    /// assert!(!s.advance(&[2, 2]), "(1, 1) is the last profile");
    /// ```
    pub fn advance(&mut self, strategy_counts: &[usize]) -> bool {
        for (strategy, &count) in self.0.iter_mut().zip(strategy_counts) {
            *strategy += 1;
            if *strategy < count {
                return true;
            }
            *strategy = 0;
        }
        false
    }

    /// Checks Fig. 2's `isStrat(n, TSi, Si)`: the profile has the right arity
    /// and every strategy index is within its agent's strategy set.
    pub fn is_valid_for(&self, strategy_counts: &[usize]) -> bool {
        self.0.len() == strategy_counts.len()
            && self.0.iter().zip(strategy_counts).all(|(&s, &c)| s < c)
    }
}

impl fmt::Display for StrategyProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, s) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{s}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Debug for StrategyProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl From<Vec<Strategy>> for StrategyProfile {
    fn from(v: Vec<Strategy>) -> StrategyProfile {
        StrategyProfile::new(v)
    }
}

impl From<&[Strategy]> for StrategyProfile {
    fn from(v: &[Strategy]) -> StrategyProfile {
        StrategyProfile::new(v.to_vec())
    }
}

/// Iterator over every pure strategy profile of a game (odometer order).
///
/// This realizes Fig. 2's `allStrat` enumeration: the sequence visits each
/// valid profile exactly once.
///
/// # Examples
///
/// ```
/// use ra_games::ProfileIter;
///
/// let all: Vec<_> = ProfileIter::new(vec![2, 3]).collect();
/// assert_eq!(all.len(), 6);
/// assert_eq!(all[0].strategies(), &[0, 0]);
/// assert_eq!(all[5].strategies(), &[1, 2]);
/// ```
#[derive(Clone, Debug)]
pub struct ProfileIter {
    counts: Vec<usize>,
    current: Option<StrategyProfile>,
}

impl ProfileIter {
    /// Creates an iterator over all profiles for the given per-agent
    /// strategy counts. Empty if any agent has zero strategies.
    pub fn new(counts: Vec<usize>) -> ProfileIter {
        let current = if counts.contains(&0) {
            None
        } else {
            Some(StrategyProfile::zeros(counts.len()))
        };
        ProfileIter { counts, current }
    }

    /// Total number of profiles this iterator will yield.
    pub fn total(&self) -> u128 {
        profile_count(&self.counts)
    }
}

/// The number of profiles of a game with these strategy counts.
pub(crate) fn profile_count(strategy_counts: &[usize]) -> u128 {
    strategy_counts.iter().map(|&c| c as u128).product()
}

impl Iterator for ProfileIter {
    type Item = StrategyProfile;

    /// Yields a copy of the current profile and steps it with
    /// [`StrategyProfile::advance`]. When every position wraps (including
    /// the zero-agent case), the iterator ends.
    fn next(&mut self) -> Option<StrategyProfile> {
        let current = self.current.as_mut()?;
        let out = current.clone();
        if !current.advance(&self.counts) {
            self.current = None;
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn change_matches_paper_semantics() {
        let s = StrategyProfile::new(vec![1, 1, 1]);
        let t = s.with_strategy(2, 0);
        assert_eq!(t, StrategyProfile::new(vec![1, 1, 0]));
        assert_ne!(s, t);
    }

    #[test]
    fn validity_check() {
        let counts = [2, 3];
        assert!(StrategyProfile::new(vec![1, 2]).is_valid_for(&counts));
        assert!(!StrategyProfile::new(vec![2, 0]).is_valid_for(&counts));
        assert!(!StrategyProfile::new(vec![0]).is_valid_for(&counts));
        assert!(!StrategyProfile::new(vec![0, 0, 0]).is_valid_for(&counts));
    }

    #[test]
    fn enumeration_is_exhaustive_and_unique() {
        let iter = ProfileIter::new(vec![2, 3, 2]);
        assert_eq!(iter.total(), 12);
        let all: Vec<_> = iter.collect();
        assert_eq!(all.len(), 12);
        let mut dedup = all.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 12, "no duplicates");
        for p in &all {
            assert!(p.is_valid_for(&[2, 3, 2]));
        }
    }

    #[test]
    fn zero_strategy_agent_yields_nothing() {
        let mut iter = ProfileIter::new(vec![2, 0]);
        assert_eq!(iter.total(), 0);
        assert!(iter.next().is_none());
    }

    #[test]
    fn zero_agent_game_has_one_empty_profile() {
        let all: Vec<_> = ProfileIter::new(vec![]).collect();
        assert_eq!(all.len(), 1);
        assert!(all[0].is_empty());
    }

    #[test]
    fn display_formats() {
        let s = StrategyProfile::new(vec![0, 2]);
        assert_eq!(format!("{s}"), "(0, 2)");
        assert_eq!(format!("{s:?}"), "(0, 2)");
    }
}
