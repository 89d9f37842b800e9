//! # ra-games — strategic-form game substrate
//!
//! Finite games with exact rational payoffs, following §2 and Fig. 2 of
//! *"Rationality Authority for Provable Rational Behavior"*:
//!
//! * [`StrategyProfile`] / [`ProfileIter`] — profiles and `allStrat`
//!   enumeration;
//! * [`StrategicGame`] — `⟨N, A, U⟩` with `isNash` / `isMaxNash` / `≤u`;
//! * [`BimatrixGame`] / [`MixedStrategy`] — the §4 two-agent setting with
//!   exact mixed-equilibrium checking;
//! * [`SymmetricBinaryGame`] — the §5 symmetric participation setting,
//!   and [`ParticipationParams`] / [`EquilibriumRoot`] — its parameters
//!   and the equilibrium probability a certificate carries;
//! * [`dominates`] / [`dominant_strategy_equilibrium`] and the [`named`]
//!   example games.
//!
//! Everything here is *definition-level*: the expensive equilibrium solvers
//! live in `ra-solvers`, and certificates/verification in `ra-proofs`.

#![forbid(unsafe_code)]
#![deny(
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::cast_sign_loss
)]
#![warn(missing_docs)]

mod bimatrix;
mod dominance;
mod generators;
pub mod named;
mod participation;
mod profile;
mod strategic;
mod symmetric;

pub use bimatrix::{BimatrixGame, MixedProfile, MixedStrategy, MixedStrategyError};
pub use dominance::{
    dominant_strategies, dominant_strategy_equilibrium, dominates, is_dominant_strategy, Dominance,
};
pub use generators::GameGenerator;
pub use participation::{EquilibriumRoot, ParticipationParams, ParticipationParamsError};
pub use profile::{Agent, ProfileIter, Strategy, StrategyProfile};
pub use strategic::StrategicGame;
pub use symmetric::SymmetricBinaryGame;
