//! # ra-solvers — inventor-side equilibrium computation
//!
//! The rationality-authority design splits game analysis into an expensive,
//! untrusted *computation* step (done by the game inventor) and a cheap,
//! trusted *verification* step (done by agents with verifier-supplied
//! procedures). This crate is the inventor's toolbox:
//!
//! * [`analyze_pure_nash`] — exhaustive pure-equilibrium enumeration with
//!   maximal/minimal classification (§3);
//! * [`enumerate_equilibria`] / [`find_one_equilibrium`] — support
//!   enumeration for bimatrix games (§4);
//! * [`lemke_howson()`] — complementary pivoting with exact arithmetic (§4);
//! * [`solve_zero_sum`] — exact minimax for zero-sum games by an exact
//!   simplex (Bland's rule);
//! * [`solve_participation_equilibrium`] — root isolation by exact
//!   bisection for the participation game's symmetric equilibrium (§5);
//! * [`best_response_dynamics`] — improvement paths (used by the congestion
//!   case study of §6);
//! * the provers that package those outputs as `ra-proofs` certificates:
//!   [`prove_is_nash`] and its §3 siblings, [`honest_row_advice`] (§4 P2)
//!   and [`honest_online_advice`] (§6).
//!
//! Nothing in this crate is trusted by agents: it depends on `ra-proofs`
//! for the certificate types, and `ra-proofs` re-checks everything it
//! builds without ever linking it.

#![forbid(unsafe_code)]
#![deny(
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::cast_sign_loss
)]
#![warn(missing_docs)]

/// The provers, one module per `ra-proofs` checker they feed, tested by round trips.
mod certificates {
    pub mod online_advice;
    #[cfg(test)]
    mod participation;
    pub mod private;
    pub mod pure_nash;
    #[cfg(test)]
    mod support;
}
mod dynamics;
mod lemke_howson;
mod lp;
mod participation;
mod pure_enum;
mod support_enum;
mod zero_sum;

pub use certificates::online_advice::honest_online_advice;
pub use certificates::private::honest_row_advice;
pub use certificates::pure_nash::{prove_is_nash, prove_max_nash, prove_min_nash, prove_not_nash};
pub use dynamics::{best_response_dynamics, DynamicsOutcome};
pub use lemke_howson::{lemke_howson, lemke_howson_all, LemkeHowsonError};
pub use lp::LpError;
pub use participation::{solve_participation_equilibrium, ParticipationSolveError};
pub use pure_enum::{analyze_pure_nash, PureNashAnalysis};
pub use ra_games::{EquilibriumRoot, ParticipationParams, ParticipationParamsError};
pub use support_enum::{
    enumerate_equilibria, find_one_equilibrium, EnumerationOptions, EnumerationStats,
    SupportEquilibrium,
};
pub use zero_sum::{solve_zero_sum, MinimaxSolution, ZeroSumError};
