//! # ra-exact — exact arithmetic substrate
//!
//! Arbitrary-precision integers, exact rationals, dense matrices with an
//! exact linear solver, and binomial combinatorics over ℚ — plus the
//! byte-level leaves every crate above needs: the canonical varint writer,
//! the canonical rational writer and reader, and SHA-256.
//!
//! This crate exists because the rationality-authority verifiers (the
//! `ra-proofs` consumers) must be *sound*: accepting a certificate is a
//! mathematical statement, so no floating-point rounding may occur on the
//! verification path. Everything an inventor claims — mixed strategy
//! probabilities, equilibrium payoffs λ, participation probabilities — is
//! expressed and re-checked in exact rational arithmetic.
//!
//! ## Quick tour
//!
//! ```
//! use ra_exact::{rat, Matrix, solve_linear_system};
//!
//! // Indifference system for a 2-support mixed equilibrium.
//! let a = Matrix::from_rows(vec![
//!     vec![rat(1, 1), rat(3, 1)],
//!     vec![rat(1, 1), rat(1, 1)],
//! ]);
//! let x = solve_linear_system(&a, &[rat(2, 1), rat(1, 1)])
//!     .unique()
//!     .unwrap();
//! assert_eq!(x, vec![rat(1, 2), rat(1, 2)]);
//! ```

#![forbid(unsafe_code)]
#![deny(
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::cast_sign_loss
)]
#![warn(missing_docs)]

mod bigint;
mod binomial;
mod encoding;
mod linalg;
mod matrix;
mod rational;
mod sha256;

pub use bigint::{BigInt, ParseExactError, Sign};
pub use binomial::{
    binomial, binomial_pmf, binomial_tail_at_least, binomial_tail_at_most, factorial,
};
pub use encoding::{put_varint, RationalDecodeError};
pub use linalg::{solve_linear_system, LinearSolution};
pub use matrix::Matrix;
pub use rational::{rat, Rational};
pub use sha256::sha256;
