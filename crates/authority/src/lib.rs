//! # ra-authority — the rationality authority infrastructure
//!
//! The distributed-system layer of the paper (Fig. 1): separation of
//! **inventors** (untrusted advice producers), **agents** (advice
//! consumers) and **verifiers** (trusted-by-reputation procedure
//! providers), wired together over a byte-accounted message bus.
//!
//! * [`Transport`] / [`Network`] / [`Message`] / [`Wire`] — the
//!   pluggable network boundary with exact wire encodings (Lemma 1's bits
//!   are measured, not asserted). One [`Network`] implements it over two
//!   link models: [`Bus`] is the canonical network over [`Perfect`]
//!   links, [`SimNet`] the network over [`Simulated`] links, a
//!   deterministic seeded lossy model (per-link latency windows, drop
//!   probabilities, scripted partition/heal schedules on a virtual clock)
//!   that is byte-identical to the bus when configured lossless;
//! * [`Inventor`] / [`VerifierService`] — honest and faulty behaviours for
//!   every case study of the paper; a verifier answers with a bit and a
//!   payload-free, one-byte [`VerdictReason`];
//! * [`ReputationBackend`] — the pluggable reputation plane: majority
//!   voting (simple or stake-weighted, [`VoteRule`]) and reputation
//!   updates ("the reputation of the verifiers can be updated according
//!   to the majority of their results"), with a process-local
//!   [`LocalReputation`] backend and a cross-shard [`GossipReputation`]
//!   backend that merges CRDT PN-counter deltas
//!   ([`DecayingPnCounterMap`], generation-indexed so scores can decay —
//!   [`ReputationDecay`]) through a [`GossipPlane`] at epoch boundaries —
//!   always over the plane's own byte-accounted inter-shard transport
//!   ([`GossipPlane::over_transport_with`]; a [`Bus`] by default). Every
//!   read comes off the published [`ReputationSnapshot`];
//! * [`StatisticsLedger`] — the signed, hash-chained statistics stream of
//!   §6 footnote 3;
//! * [`RationalityAuthority`] — the per-consultation Fig. 1 protocol over
//!   one transport, with game-id assignment, and the §4 P2 private
//!   consultation on the same stages;
//! * [`CertCache`] — the content-addressed certificate cache: a
//!   consultation is memoized under the SHA-256 digest of its game spec's
//!   canonical wire encoding ([`spec_digest`]) in a sharded LRU, and a
//!   later consultation of the same spec is served from the cache — after
//!   re-running the trusted checker ([`kernel_check`]) under
//!   [`CacheMode::Replay`], or directly under [`CacheMode::Trust`].
//!   Off by default ([`CertCacheConfig`]); enable it per engine with
//!   [`ShardedAuthority::with_transports`];
//! * [`ShardedAuthority`] — the sharded multi-bus session engine, built
//!   with [`ShardedAuthority::new`] (isolated shards over perfect buses) or
//!   [`ShardedAuthority::with_transports`] (everything explicit): routed
//!   single consultations and batched fan-out across shards over a
//!   persistent, shard-pinned worker pool (gated by the default-on
//!   `parallel` cargo feature; `--no-default-features` builds run batches
//!   inline, single-threaded, with identical outcomes), with the
//!   reputation scope chosen per engine via [`ReputationPolicy`] —
//!   cross-shard gossip pulls are incremental, watermarked by a
//!   [`VersionVector`] per shard;
//! * [`sha256`] / [`SigningKey`] — the from-scratch crypto
//!   substrate (an offline stand-in for real signatures; the workspace
//!   builds without registry access, see `docs/ARCHITECTURE.md`).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod audit;
mod bus;
mod cache;
mod crypto;
mod inventor;
mod messages;
#[cfg(feature = "parallel")]
mod pool;
mod reputation;
mod session;
mod shard;
mod simnet;
mod transport;
mod verifier;
mod wire;

pub use audit::{AuditError, StatisticsLedger, StatisticsRecord};
pub use bus::{Bus, LinkModel, Network, Perfect};
pub use cache::{spec_digest, CacheMode, CacheStats, CertCache, CertCacheConfig};
pub use crypto::{hmac_sha256, sha256, sha256_wire, to_hex, Digest, Signature, SigningKey};
pub use inventor::{GameSpec, Inventor, InventorBehavior};
pub use messages::{Advice, Message, Party};
pub use reputation::{
    DecayingPnCounterMap, GossipPlane, GossipReputation, LocalReputation, MajorityOutcome,
    PnCounter, ReputationBackend, ReputationDecay, ReputationSnapshot, VersionVector, VoteRule,
    EXCLUSION_THRESHOLD, GOSSIP_HUB, INITIAL_SCORE,
};
pub use session::{
    BackoffConfig, ConsultError, ConsultResult, ConsultStage, PanelOutcome, PrivateOutcome,
    RationalityAuthority, ResilienceConfig, SessionOutcome,
};
pub use shard::{ReputationConfig, ReputationPolicy, ShardStats, ShardedAuthority, TransportSite};
pub use simnet::{LinkProfile, NetEvent, SimNet, SimNetConfig, Simulated};
pub use transport::{BusError, DeliveryRecord, Endpoint, Transport};
pub use verifier::{kernel_check, Check, VerdictReason, VerifierBehavior, VerifierService};
pub use wire::{
    frame_pool_misses, get_varint, put_varint, with_frame_scratch, Wire, WireBytes, WireError,
};
