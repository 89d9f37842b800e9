//! # ra-auctions — auction case studies with verifiable advice (§5)
//!
//! * [`ParticipationGame`] — the paper's running example: entry fee `c`,
//!   prize `v`, threshold `k`; the inventor computes the hard-to-find
//!   symmetric equilibrium probability and ships it as a checkable
//!   certificate.
//! * [`last_mover_advice`] / [`exact_online_expected_gain`] — the on-line
//!   variant where the last-deciding firm gets provably optimal `p ∈ {0,1}`
//!   advice (and flipping it provably loses).
//! * [`SealedBidAuction`] — first/second-price auctions expanded to explicit
//!   games, with truthfulness claims checked by dominance certificates.
//! * [`GspAuction`] — the generalized second-price keyword auction from the
//!   paper's introduction, where "bid your value" is the seductive advice
//!   the verifiers refute.
//! * [`Lottery`] / [`verify_lottery_advisory`] — the Discussion section's
//!   fake-raffle advisory.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod certificates {
    pub mod dominant;
}
mod gsp;
mod lottery;
mod online_participation;
mod participation;
mod sealed_bid;

pub use certificates::dominant::{
    verify_dominance_certificate, DominanceCertificate, DominanceError,
};
pub use gsp::GspAuction;
pub use lottery::{verify_lottery_advisory, Area, Lottery, LotteryAdvisory, LotteryAdvisoryError};
pub use online_participation::{
    exact_online_expected_gain, last_mover_advice, last_mover_gain, simulate_online_expected_gain,
    verify_last_mover_advice, LastMoverAdvice,
};
pub use participation::ParticipationGame;
pub use sealed_bid::{AuctionRule, SealedBidAuction};
