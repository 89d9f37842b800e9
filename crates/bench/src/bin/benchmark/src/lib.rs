//! The authority's end-to-end benchmark, as a library the `benchmark`
//! binary and its tests share.
//!
//! A run drives a 2-shard `ShardedAuthority` through its public API over
//! one of five closed-loop workloads ([`workloads`]), checks every outcome
//! against the trusted kernel ([`oracle`]), and reports either the
//! end-to-end metrics or, traced, a per-layer breakdown of a consult
//! ([`trace`]); the declared metrics live in [`report`]. See `README.md`
//! beside this package for the metrics, bounds and workloads.

pub mod alloc;
pub mod oracle;
pub mod report;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;
