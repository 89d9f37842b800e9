//! Proof objects — the untrusted data the inventor ships to agents.
//!
//! A [`Proof`] is a tree of rule applications. The rules mirror the §3 proof
//! scheme (Fig. 2): equilibrium introduction checks every unilateral
//! deviation, refutation carries a single improving-deviation witness, and
//! maximality carries a *complete classification* of the profile space
//! (`allStrat` / `allNash` / `NashMax`) where each entry is a constant-time
//! checkable witness.
//!
//! Proofs can be arbitrarily wrong — they are produced by a possibly biased
//! inventor. Soundness lives entirely in the checker.

use ra_games::{Strategy, StrategyProfile};

use super::prop::Prop;

/// Witness that a Nash equilibrium `other` does not strictly dominate the
/// maximality candidate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NotAboveWitness {
    /// Some agent strictly prefers the candidate to `other`
    /// (hence ¬(candidate ≤u other)).
    PrefersCandidate {
        /// The witnessing agent.
        agent: usize,
    },
    /// `other ≤u candidate` — the candidate is at least as good everywhere,
    /// so `other` cannot strictly dominate it.
    LeCandidate,
}

/// Per-profile verdict inside a maximality/minimality proof.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProfileVerdict {
    /// The profile is not an equilibrium; `(agent, strategy)` is an
    /// improving unilateral deviation.
    NotNash {
        /// Deviating agent.
        agent: usize,
        /// The strategy it deviates to.
        strategy: Strategy,
    },
    /// The profile may be an equilibrium, but it does not strictly dominate
    /// (for max proofs) / is not strictly dominated by (for min proofs) the
    /// candidate.
    NotStrictlyBetter(NotAboveWitness),
}

/// A proof tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Proof {
    /// Decide an atomic proposition ([`Prop::is_atomic`]) by direct
    /// evaluation in the kernel.
    EvalAtom(Prop),
    /// Prove a conjunction from proofs of all conjuncts.
    AndIntro(Vec<Proof>),
    /// Prove `Or(disjuncts)` from a proof of the disjunct at `index`.
    OrIntro {
        /// The full disjunction being proved.
        disjuncts: Vec<Prop>,
        /// Which disjunct the witness establishes.
        index: usize,
        /// Proof of that disjunct.
        witness: Box<Proof>,
    },
    /// Prove `IsNash(profile)`. The kernel exhaustively checks all
    /// unilateral deviations (cost `Σ_i (|A_i| − 1)` utility comparisons —
    /// polynomial, unlike finding the equilibrium).
    NashIntro {
        /// The claimed equilibrium.
        profile: StrategyProfile,
    },
    /// Prove `NotNash(profile)` from one improving-deviation witness
    /// (constant-time check).
    NashRefute {
        /// The profile being refuted.
        profile: StrategyProfile,
        /// Deviating agent.
        agent: usize,
        /// Improving strategy for that agent.
        strategy: Strategy,
    },
    /// Prove `IsMaxNash(profile)`: a Nash sub-proof plus one verdict per
    /// profile of the game, in the canonical [`ra_games::ProfileIter`]
    /// order. This is the machine-checkable form of Fig. 2's
    /// `allStrat → allNash → NashMax` pipeline.
    MaxNashIntro {
        /// The claimed maximal equilibrium.
        profile: StrategyProfile,
        /// Proof that it is an equilibrium at all.
        nash: Box<Proof>,
        /// One verdict for every profile, in enumeration order.
        classification: Vec<ProfileVerdict>,
    },
    /// Prove `IsMinNash(profile)` — the dual of [`Proof::MaxNashIntro`]
    /// (footnote 1 of the paper).
    MinNashIntro {
        /// The claimed minimal equilibrium.
        profile: StrategyProfile,
        /// Proof that it is an equilibrium at all.
        nash: Box<Proof>,
        /// One verdict for every profile, in enumeration order.
        classification: Vec<ProfileVerdict>,
    },
}

impl Proof {
    /// The proposition this proof claims to establish: what it proves
    /// once the kernel's rules accept it, and the proposition of the
    /// theorem [`check`](super::check) mints.
    pub fn claims(&self) -> Prop {
        match self {
            Proof::EvalAtom(p) => p.clone(),
            Proof::AndIntro(ps) => Prop::And(ps.iter().map(Proof::claims).collect()),
            Proof::OrIntro { disjuncts, .. } => Prop::Or(disjuncts.clone()),
            Proof::NashIntro { profile } => Prop::IsNash(profile.clone()),
            Proof::NashRefute { profile, .. } => Prop::NotNash(profile.clone()),
            Proof::MaxNashIntro { profile, .. } => Prop::IsMaxNash(profile.clone()),
            Proof::MinNashIntro { profile, .. } => Prop::IsMinNash(profile.clone()),
        }
    }

    /// The profile of the root's equilibrium claim: `Some` exactly when
    /// the root rule is `NashIntro`, `MaxNashIntro` or `MinNashIntro`.
    /// §3 advice is such a proof, and this is the profile it advises.
    pub fn equilibrium_profile(&self) -> Option<&StrategyProfile> {
        match self {
            Proof::NashIntro { profile }
            | Proof::MaxNashIntro { profile, .. }
            | Proof::MinNashIntro { profile, .. } => Some(profile),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claims_shape() {
        let s: StrategyProfile = vec![0, 1].into();
        let p = Proof::NashIntro { profile: s.clone() };
        assert_eq!(p.claims(), Prop::IsNash(s.clone()));
        let r = Proof::NashRefute {
            profile: s.clone(),
            agent: 0,
            strategy: 1,
        };
        assert_eq!(r.claims(), Prop::NotNash(s.clone()));
        let and = Proof::AndIntro(vec![p, r]);
        assert_eq!(
            and.claims(),
            Prop::And(vec![Prop::IsNash(s.clone()), Prop::NotNash(s)])
        );
    }
}
