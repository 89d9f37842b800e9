//! The proof kernel: terms, propositions, proof rules and the trusted
//! checker.
//!
//! This is the workspace's stand-in for the paper's use of Coq (§3): a
//! small, auditable core that checks inventor-supplied proof objects. The
//! LCF discipline is encoded in the type system — [`CheckedProp`] values can
//! only be minted by [`check`]; [`verdict`] runs the same rules and mints
//! nothing.

mod checker;
mod proof;
mod prop;
mod term;

pub use checker::{check, verdict, CheckedProp, ProofError};
pub use proof::{NotAboveWitness, ProfileVerdict, Proof};
pub use prop::Prop;
pub use term::{Term, TermError};
