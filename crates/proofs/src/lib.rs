//! # ra-proofs — certificates, interactive proofs and the proof kernel
//!
//! This crate is the heart of the rationality authority: everything an agent
//! needs to *verify* advice without trusting the (possibly biased) game
//! inventor who produced it, and nothing else. The provers that build the
//! advice live in `ra-solvers`, which depends on this crate; this crate
//! never links them, not even in its tests.
//!
//! Two layers:
//!
//! 1. **Kernel** ([`kernel`]) — a minimal LCF-style proof checker over the
//!    Fig. 2 vocabulary (`isStrat`, `isNash`, `isMaxNash`, `≤u`, …). The
//!    checker is the stand-in for the paper's use of Coq;
//!    [`kernel::CheckedProp`] values can only be minted by [`kernel::check`].
//! 2. **Certificates** — one verifiable advice format and its checker per
//!    case study: §4's P1 support certificates and P2 private interactive
//!    proofs, §5 participation-probability certificates and §6 online
//!    congestion advice (§3's proofs are the kernel's own).
//!
//! Every checker returns a verdict and measures nothing. The figures the
//! paper states about them are computed where they are reported, from
//! data the caller already holds: Lemma 1's `n + m` bits by
//! [`SupportCertificate::encoded_bits`] and the `lemma1_table` bench;
//! Remark 2–3's queries and disclosed answer bits by counting in the
//! oracle closure passed to [`verify_private_advice`] (the
//! `remark3_queries` bench, the examples, and
//! `ra_authority::PrivateOutcome::queries` for a consult over the wire);
//! §3's `Σᵢ|Aᵢ|` lookups per `isNash` check and proof sizes by the
//! `sec3_certificates` bench.
//!
//! ## Example: verify advice without trusting the inventor
//!
//! ```
//! use ra_games::named::prisoners_dilemma;
//! use ra_proofs::kernel::{check, Proof};
//!
//! let game = prisoners_dilemma().to_strategic();
//! // Inventor side (untrusted): claims (defect, defect) is an equilibrium.
//! // The proof is the whole §3 advice: its root names the profile.
//! let proof = Proof::NashIntro { profile: vec![1, 1].into() };
//! assert_eq!(proof.equilibrium_profile(), Some(&vec![1, 1].into()));
//! // Agent side (trusted kernel): re-check the claim.
//! let theorem = check(&game, &proof).expect("honest proof");
//! assert!(theorem.applies_to(&game));
//! ```

#![forbid(unsafe_code)]
#![deny(
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::cast_sign_loss
)]
#![warn(missing_docs)]
// Rejections deliberately carry the full offending proposition/profile so
// agents can audit *why* advice was refused; the error path is cold.
#![allow(clippy::result_large_err)]

mod certificates;
pub mod kernel;

pub use certificates::online_advice::{
    verify_online_advice, OnlineAdviceCertificate, OnlineAdviceError, OnlineAdviceVerified,
    OnlineInstance,
};
pub use certificates::participation::{
    verify_participation_certificate, ParticipationCertificate, ParticipationError,
    ParticipationVerified,
};
pub use certificates::private::{
    verify_private_advice, P2Advice, P2Config, P2Outcome, P2Rejection,
};
pub use certificates::support::{
    verify_support_certificate, P1Error, P1Verified, SupportCertificate, SupportDefect,
};
