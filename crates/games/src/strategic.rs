//! Strategic-form (normal-form) games.
//!
//! Implements §2 of the paper: a game `⟨N, A = (Ai), U = (ui)⟩` with a finite
//! agent set, finite strategy sets and rational-valued utility functions,
//! together with the pure-Nash-equilibrium machinery of Fig. 2:
//! `isNash`, `isMaxNash`, the `≥u` partial order on profiles (`leStrat`) and
//! profile incomparability (`noComp`).

use std::fmt;
use std::sync::OnceLock;

use ra_exact::{put_varint, sha256, Rational};

use crate::profile::{profile_count, Agent, ProfileIter, Strategy, StrategyProfile};

/// A finite strategic-form game with rational payoffs.
///
/// Payoffs are stored densely in one flat table: profile by profile, in
/// the odometer order that [`ProfileIter`] produces, and within a profile
/// agent by agent, so agent `i`'s utility under the profile at flat index
/// `p` sits at `p * num_agents + i`.
///
/// # Examples
///
/// ```
/// use ra_games::StrategicGame;
/// use ra_exact::Rational;
///
/// // Prisoner's dilemma: strategy 0 = cooperate, 1 = defect.
/// let g = StrategicGame::from_payoff_fn(vec![2, 2], |profile| {
///     let table = [[(-1, -1), (-3, 0)], [(0, -3), (-2, -2)]];
///     let (a, b) = table[profile.strategy_of(0)][profile.strategy_of(1)];
///     vec![Rational::from(a), Rational::from(b)]
/// });
/// let dd = vec![1, 1].into();
/// assert!(g.is_pure_nash(&dd));
/// assert_eq!(g.pure_nash_equilibria(), vec![dd]);
/// ```
#[derive(Clone)]
pub struct StrategicGame {
    strategy_counts: Vec<usize>,
    /// `payoffs[flat_profile_index * num_agents + agent]`.
    payoffs: Vec<Rational>,
    /// [`StrategicGame::spec_digest`], filled on first use. The game has
    /// no `&mut` API, so it can never go stale; clones carry it along.
    /// Only this crate fills it, always from the game's own bytes, so no
    /// caller can plant a digest that names another game.
    spec_digest: OnceLock<[u8; 32]>,
}

/// Equality is over the game itself; whether the digest memo is warm does
/// not matter.
impl PartialEq for StrategicGame {
    fn eq(&self, other: &StrategicGame) -> bool {
        self.strategy_counts == other.strategy_counts && self.payoffs == other.payoffs
    }
}

impl Eq for StrategicGame {}

impl StrategicGame {
    /// Builds a game by evaluating `payoff` on every pure profile, in
    /// odometer order. The closure sees one profile that is stepped in
    /// place between calls, so building a game allocates no profile per
    /// entry.
    ///
    /// `payoff` must return one utility per agent.
    ///
    /// # Panics
    ///
    /// Panics if `payoff` returns a vector whose length differs from the
    /// number of agents, or if the profile space is astronomically large
    /// (greater than `2^32` profiles).
    pub fn from_payoff_fn(
        strategy_counts: Vec<usize>,
        mut payoff: impl FnMut(&StrategyProfile) -> Vec<Rational>,
    ) -> StrategicGame {
        let total = profile_count(&strategy_counts);
        assert!(total <= 1 << 32, "profile space too large to materialize");
        let n = strategy_counts.len();
        let mut payoffs = Vec::with_capacity(total as usize * n);
        if total > 0 {
            let mut profile = StrategyProfile::zeros(n);
            loop {
                let u = payoff(&profile);
                assert_eq!(u.len(), n, "payoff function arity mismatch");
                payoffs.extend(u);
                if !profile.advance(&strategy_counts) {
                    break;
                }
            }
        }
        StrategicGame::from_payoff_table(strategy_counts, payoffs)
    }

    /// Builds a game from its flat payoff table: profile by profile in
    /// odometer order, and within a profile agent by agent (the layout
    /// [`StrategicGame::encode_canonical`] writes).
    ///
    /// # Panics
    ///
    /// Panics unless `payoffs` holds exactly one utility per agent per
    /// profile.
    pub fn from_payoff_table(strategy_counts: Vec<usize>, payoffs: Vec<Rational>) -> StrategicGame {
        assert_eq!(
            profile_count(&strategy_counts).checked_mul(strategy_counts.len() as u128),
            Some(payoffs.len() as u128),
            "payoff table must hold one utility per agent per profile"
        );
        StrategicGame {
            strategy_counts,
            payoffs,
            spec_digest: OnceLock::new(),
        }
    }

    /// Builds a two-agent game from payoff tables (`a[i][j]`, `b[i][j]`).
    ///
    /// # Panics
    ///
    /// Panics if the tables are ragged or of different shapes.
    pub fn from_tables(a: &[Vec<Rational>], b: &[Vec<Rational>]) -> StrategicGame {
        let rows = a.len();
        let cols = a.first().map_or(0, Vec::len);
        assert_eq!(rows, b.len(), "payoff tables must have equal shape");
        assert!(
            a.iter().chain(b.iter()).all(|r| r.len() == cols),
            "payoff tables must be rectangular and equal"
        );
        StrategicGame::from_payoff_fn(vec![rows, cols], |p| {
            let (i, j) = (p.strategy_of(0), p.strategy_of(1));
            vec![a[i][j].clone(), b[i][j].clone()]
        })
    }

    /// Number of agents `n = |N|`.
    pub fn num_agents(&self) -> usize {
        self.strategy_counts.len()
    }

    /// Per-agent strategy counts (Fig. 2's `TSi`).
    pub fn strategy_counts(&self) -> &[usize] {
        &self.strategy_counts
    }

    /// Number of pure strategy profiles: the product of the strategy
    /// counts, so a game with no agents has its one empty profile.
    pub fn num_profiles(&self) -> usize {
        self.strategy_counts.iter().product()
    }

    /// Iterator over all pure strategy profiles.
    pub fn profiles(&self) -> ProfileIter {
        ProfileIter::new(self.strategy_counts.clone())
    }

    /// The first profile, in odometer order, that satisfies `pred`. The
    /// search steps one profile in place, so it allocates that profile
    /// and nothing per profile visited.
    pub fn find_profile(
        &self,
        mut pred: impl FnMut(&StrategyProfile) -> bool,
    ) -> Option<StrategyProfile> {
        if self.num_profiles() == 0 {
            return None;
        }
        let mut profile = StrategyProfile::zeros(self.num_agents());
        loop {
            if pred(&profile) {
                return Some(profile);
            }
            if !profile.advance(&self.strategy_counts) {
                return None;
            }
        }
    }

    /// The tag byte that precedes a strategic game in a game spec's
    /// canonical encoding (the other spec families take `1`, `2`, …). The
    /// [`spec_digest`](StrategicGame::spec_digest) preimage starts with it,
    /// so the digest equals the SHA-256 of the whole spec's bytes.
    pub const SPEC_TAG: u8 = 0;

    /// Appends the game's canonical bytes: the agent count and each
    /// agent's strategy count as varints, then each profile's per-agent
    /// payoffs in [`profiles`](StrategicGame::profiles) (odometer) order as
    /// [`Rational::encode_canonical`] bytes — exactly the order
    /// [`StrategicGame::from_payoff_fn`] evaluates, so equal games write
    /// equal bytes.
    pub fn encode_canonical(&self, buf: &mut Vec<u8>) {
        put_varint(buf, self.strategy_counts.len() as u64);
        for &count in &self.strategy_counts {
            put_varint(buf, count as u64);
        }
        for utility in &self.payoffs {
            utility.encode_canonical(buf);
        }
    }

    /// The SHA-256 of [`SPEC_TAG`](StrategicGame::SPEC_TAG) followed by
    /// the game's [canonical bytes](StrategicGame::encode_canonical): the
    /// content digest of the game as a spec. Equal games have equal
    /// digests, whichever object they live in.
    ///
    /// The first call encodes the game once and hashes the bytes in place;
    /// the value is memoized, so every later call (on this game or a clone
    /// made after it) is a load.
    pub fn spec_digest(&self) -> [u8; 32] {
        *self.spec_digest.get_or_init(|| {
            // Sized for small payoffs (an integer below 128 takes 2 bytes),
            // so the usual game encodes without regrowing.
            let mut buf = Vec::with_capacity(16 + 3 * self.payoffs.len());
            buf.push(Self::SPEC_TAG);
            self.encode_canonical(&mut buf);
            sha256(&buf)
        })
    }

    /// The table index of agent 0's utility under `profile`; agent `i`'s
    /// follows at offset `i`.
    fn flat_index(&self, profile: &StrategyProfile) -> usize {
        debug_assert!(profile.is_valid_for(&self.strategy_counts));
        let mut idx = 0usize;
        let mut stride = self.num_agents();
        for (agent, &count) in self.strategy_counts.iter().enumerate() {
            idx += profile.strategy_of(agent) * stride;
            stride *= count;
        }
        idx
    }

    /// Utility `u_i(s)` of `agent` under `profile` (Fig. 2's `u(i, Si)`).
    ///
    /// # Panics
    ///
    /// Panics if the profile is invalid for this game.
    pub fn payoff(&self, agent: Agent, profile: &StrategyProfile) -> &Rational {
        assert!(
            profile.is_valid_for(&self.strategy_counts),
            "profile invalid for game"
        );
        &self.payoffs[self.flat_index(profile) + agent]
    }

    /// All agents' utilities under `profile`.
    ///
    /// # Panics
    ///
    /// Panics if the profile is invalid for this game.
    pub fn payoffs(&self, profile: &StrategyProfile) -> &[Rational] {
        assert!(
            profile.is_valid_for(&self.strategy_counts),
            "profile invalid for game"
        );
        let base = self.flat_index(profile);
        &self.payoffs[base..base + self.num_agents()]
    }

    /// Fig. 2's `isNash(n, u, Si, TSi)`: no agent gains by a unilateral
    /// deviation.
    ///
    /// Returns `false` (rather than panicking) for profiles that fail
    /// `isStrat`, mirroring the predicate in the proof scheme.
    pub fn is_pure_nash(&self, profile: &StrategyProfile) -> bool {
        if !profile.is_valid_for(&self.strategy_counts) {
            return false;
        }
        self.improving_deviation(profile).is_none()
    }

    /// Finds a unilateral improving deviation `(agent, strategy)` if one
    /// exists — the *counterexample witness* used by §3 certificates for
    /// non-equilibrium profiles. Agents are scanned in order, and each
    /// agent's strategies in increasing order, so the first improving pair
    /// is reported.
    ///
    /// Costs `Σ_i |A_i|` payoff reads and no allocation: agent `i`'s
    /// deviations lie at a fixed stride from `profile` in the flat table.
    ///
    /// # Panics
    ///
    /// Panics if the profile is invalid for this game.
    pub fn improving_deviation(&self, profile: &StrategyProfile) -> Option<(Agent, Strategy)> {
        assert!(
            profile.is_valid_for(&self.strategy_counts),
            "profile invalid for game"
        );
        let base = self.flat_index(profile);
        let mut stride = self.num_agents();
        for (agent, &count) in self.strategy_counts.iter().enumerate() {
            let own = profile.strategy_of(agent);
            let current = &self.payoffs[base + agent];
            // Agent `agent`'s utility when it plays strategy 0 instead.
            let origin = base + agent - own * stride;
            let improving = (0..count)
                .filter(|&s| s != own)
                .find(|&s| self.payoffs[origin + s * stride] > *current);
            if let Some(s) = improving {
                return Some((agent, s));
            }
            stride *= count;
        }
        None
    }

    /// Best responses of `agent` against the others' strategies in `profile`
    /// (the strategy of `agent` inside `profile` is ignored).
    pub fn best_responses(&self, agent: Agent, profile: &StrategyProfile) -> Vec<Strategy> {
        let mut best: Option<&Rational> = None;
        let mut out = Vec::new();
        for s in 0..self.strategy_counts[agent] {
            let u = self.payoff(agent, &profile.with_strategy(agent, s));
            match best {
                Some(b) if u < b => {}
                Some(b) if u == b => out.push(s),
                _ => {
                    best = Some(u);
                    out = vec![s];
                }
            }
        }
        // Second pass to collect all maximizers exactly.
        if let Some(b) = best {
            let b = b.clone();
            out = (0..self.strategy_counts[agent])
                .filter(|&s| *self.payoff(agent, &profile.with_strategy(agent, s)) == b)
                .collect();
        }
        out
    }

    /// All pure Nash equilibria, by exhaustive enumeration.
    ///
    /// This is the *inventor-side* intractable computation of §3 — cost grows
    /// with the full profile space. Verification of a claimed equilibrium via
    /// [`StrategicGame::is_pure_nash`] touches only `Σ_i |A_i|` profiles.
    pub fn pure_nash_equilibria(&self) -> Vec<StrategyProfile> {
        self.profiles().filter(|p| self.is_pure_nash(p)).collect()
    }

    /// Fig. 2's `leStrat(n, u, Si1, Si2)`: `s1 ≤u s2`, i.e. every agent
    /// weakly prefers `s2`.
    pub fn profile_le(&self, s1: &StrategyProfile, s2: &StrategyProfile) -> bool {
        (0..self.num_agents()).all(|i| self.payoff(i, s1) <= self.payoff(i, s2))
    }

    /// Fig. 2's `noComp`: the profiles are incomparable under `≤u`
    /// (some agent strictly prefers each side).
    pub fn profiles_incomparable(&self, s1: &StrategyProfile, s2: &StrategyProfile) -> bool {
        !self.profile_le(s1, s2) && !self.profile_le(s2, s1)
    }

    /// Fig. 2's `isMaxNash`: `profile` is a Nash equilibrium and no other
    /// Nash equilibrium is strictly greater under `≥u`.
    pub fn is_maximal_nash(&self, profile: &StrategyProfile) -> bool {
        if !self.is_pure_nash(profile) {
            return false;
        }
        self.pure_nash_equilibria().iter().all(|other| {
            other == profile || !self.profile_le(profile, other) || self.profile_le(other, profile)
        })
    }

    /// Minimal-equilibrium variant (footnote 1 of the paper).
    pub fn is_minimal_nash(&self, profile: &StrategyProfile) -> bool {
        if !self.is_pure_nash(profile) {
            return false;
        }
        self.pure_nash_equilibria().iter().all(|other| {
            other == profile || !self.profile_le(other, profile) || self.profile_le(profile, other)
        })
    }
}

impl fmt::Debug for StrategicGame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "StrategicGame({} agents, strategy counts {:?}, {} profiles)",
            self.num_agents(),
            self.strategy_counts,
            self.num_profiles()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(v: i64) -> Rational {
        Rational::from(v)
    }

    /// Prisoner's dilemma; unique PNE at (defect, defect).
    fn prisoners_dilemma() -> StrategicGame {
        StrategicGame::from_tables(
            &[vec![r(-1), r(-3)], vec![r(0), r(-2)]],
            &[vec![r(-1), r(0)], vec![r(-3), r(-2)]],
        )
    }

    /// Matching pennies; no PNE.
    fn matching_pennies() -> StrategicGame {
        StrategicGame::from_tables(
            &[vec![r(1), r(-1)], vec![r(-1), r(1)]],
            &[vec![r(-1), r(1)], vec![r(1), r(-1)]],
        )
    }

    #[test]
    fn payoff_lookup() {
        let g = prisoners_dilemma();
        assert_eq!(*g.payoff(0, &vec![0, 1].into()), r(-3));
        assert_eq!(*g.payoff(1, &vec![0, 1].into()), r(0));
        assert_eq!(g.payoffs(&vec![1, 1].into()), &[r(-2), r(-2)]);
    }

    #[test]
    #[should_panic(expected = "profile invalid")]
    fn invalid_profile_panics_on_payoff() {
        let g = prisoners_dilemma();
        let _ = g.payoff(0, &vec![2, 0].into());
    }

    #[test]
    fn nash_detection() {
        let g = prisoners_dilemma();
        assert!(g.is_pure_nash(&vec![1, 1].into()));
        assert!(!g.is_pure_nash(&vec![0, 0].into()));
        assert_eq!(
            g.pure_nash_equilibria(),
            vec![StrategyProfile::new(vec![1, 1])]
        );
        assert!(matching_pennies().pure_nash_equilibria().is_empty());
    }

    #[test]
    fn invalid_profile_is_not_nash() {
        let g = prisoners_dilemma();
        assert!(!g.is_pure_nash(&vec![5, 5].into()));
    }

    #[test]
    fn improving_deviation_is_sound() {
        let g = prisoners_dilemma();
        let p: StrategyProfile = vec![0, 0].into();
        let (agent, s) = g.improving_deviation(&p).expect("not an equilibrium");
        assert!(g.payoff(agent, &p.with_strategy(agent, s)) > g.payoff(agent, &p));
    }

    /// The scan `improving_deviation` replaced: one cloned profile and one
    /// checked payoff lookup per deviation.
    fn cloning_deviation_scan(
        g: &StrategicGame,
        profile: &StrategyProfile,
    ) -> Option<(Agent, Strategy)> {
        for agent in 0..g.num_agents() {
            let current = g.payoff(agent, profile);
            for s in 0..g.strategy_counts()[agent] {
                if s != profile.strategy_of(agent)
                    && g.payoff(agent, &profile.with_strategy(agent, s)) > current
                {
                    return Some((agent, s));
                }
            }
        }
        None
    }

    #[test]
    fn strided_deviation_scan_matches_cloning_scan() {
        let shapes = [vec![3, 4], vec![5, 2], vec![2, 3, 4], vec![3, 3, 3]];
        for (seed, counts) in (0..60u64).zip(shapes.iter().cycle().cloned()) {
            let g = crate::GameGenerator::seeded(seed).strategic(counts, -4..=4);
            for p in g.profiles() {
                assert_eq!(
                    g.improving_deviation(&p),
                    cloning_deviation_scan(&g, &p),
                    "seed {seed}, profile {p}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "profile invalid")]
    fn invalid_profile_panics_on_improving_deviation() {
        // (2, 0) would alias the row of (0, 1) without the range check.
        let _ = prisoners_dilemma().improving_deviation(&vec![2, 0].into());
    }

    #[test]
    fn best_responses_collects_ties() {
        // Agent 0 indifferent between both strategies.
        let g = StrategicGame::from_tables(&[vec![r(1)], vec![r(1)]], &[vec![r(0)], vec![r(0)]]);
        assert_eq!(g.best_responses(0, &vec![0, 0].into()), vec![0, 1]);
    }

    #[test]
    fn profile_order_and_incomparability() {
        // Coordination game with Pareto-ranked equilibria.
        let g = StrategicGame::from_tables(
            &[vec![r(2), r(0)], vec![r(0), r(1)]],
            &[vec![r(2), r(0)], vec![r(0), r(1)]],
        );
        let top: StrategyProfile = vec![0, 0].into();
        let bottom: StrategyProfile = vec![1, 1].into();
        assert!(g.profile_le(&bottom, &top));
        assert!(!g.profile_le(&top, &bottom));
        assert!(!g.profiles_incomparable(&top, &bottom));
        assert!(g.is_maximal_nash(&top));
        assert!(!g.is_maximal_nash(&bottom));
        assert!(g.is_minimal_nash(&bottom));
        assert!(!g.is_minimal_nash(&top));
    }

    #[test]
    fn incomparable_profiles_detected() {
        let g = StrategicGame::from_tables(
            &[vec![r(1), r(0)], vec![r(0), r(0)]],
            &[vec![r(0), r(0)], vec![r(1), r(0)]],
        );
        // (0,0) favours agent 0; (1,0) favours agent 1.
        assert!(g.profiles_incomparable(&vec![0, 0].into(), &vec![1, 0].into()));
    }

    #[test]
    fn three_agent_game() {
        // Majority coordination: utility 1 to everyone if all agree.
        let g = StrategicGame::from_payoff_fn(vec![2, 2, 2], |p| {
            let all_same = p.strategies().iter().all(|&s| s == p.strategy_of(0));
            vec![r(all_same as i64); 3]
        });
        let eqs = g.pure_nash_equilibria();
        assert!(eqs.contains(&vec![0, 0, 0].into()));
        assert!(eqs.contains(&vec![1, 1, 1].into()));
        // Profiles with a lone dissenter: the dissenter cannot improve alone
        // (still not unanimous after switching? it becomes unanimous — so
        // those are NOT equilibria), but 2-1 splits where the majority
        // member's switch can't reach unanimity are.
        assert!(!g.is_pure_nash(&vec![0, 0, 1].into()));
    }

    #[test]
    fn in_place_walks_visit_the_iterator_order() {
        for counts in [vec![], vec![3], vec![2, 0], vec![3, 4], vec![2, 3, 2]] {
            let mut seen = Vec::new();
            let g = StrategicGame::from_payoff_fn(counts.clone(), |p| {
                seen.push(p.clone());
                vec![Rational::from(seen.len()); p.len()]
            });
            assert_eq!(seen, ProfileIter::new(counts.clone()).collect::<Vec<_>>());
            let table = StrategicGame::from_payoff_table(counts.clone(), g.payoffs.clone());
            assert_eq!(table, g, "{counts:?}");
            for p in &seen {
                assert_eq!(g.find_profile(|q| q == p).as_ref(), Some(p), "{counts:?}");
            }
            assert_eq!(g.find_profile(|_| false), None, "{counts:?}");
        }
    }

    #[test]
    #[should_panic(expected = "one utility per agent per profile")]
    fn payoff_table_of_the_wrong_length_panics() {
        let _ = StrategicGame::from_payoff_table(vec![2, 2], vec![r(0); 7]);
    }

    #[test]
    fn from_tables_rejects_ragged() {
        let result = std::panic::catch_unwind(|| {
            StrategicGame::from_tables(&[vec![r(1), r(2)], vec![r(3)]], &[vec![r(1), r(2)]])
        });
        assert!(result.is_err());
    }
}
