//! Certificate formats and their verifiers — one module per case study.
//! The provers that build them live in `ra-solvers`.
//!
//! | module | paper section | certificate | verifier cost |
//! |---|---|---|---|
//! | [`crate::kernel`] | §3 | kernel proof objects | `O(Σ|Aᵢ|)` per Nash claim, `O(|A|)` for maximality |
//! | [`support`] | §4 P1 | both supports (`n + m` bits) | one exact `(k+1)×(k+1)` solve per agent |
//! | [`private`] | §4 P2 | own data + λs + oracle access | expected `O(n)` queries, constant for large supports |
//! | [`participation`] | §5 | equilibrium probability (exact or bracket) | Eq. (5) at the root, or at both bracket ends |
//! | [`online_advice`] | §6 | statistics + Nash assignment | `O(loads · links)` |

pub mod online_advice;
pub mod participation;
pub mod private;
pub mod support;
