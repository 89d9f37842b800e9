//! Cross-shard reputation gossip: exclusion anywhere becomes exclusion
//! everywhere — and the merge traffic itself is byte-accounted.
//!
//! A four-shard engine serves a panel with one persistent saboteur
//! (`AlwaysReject` against an honest inventor). All early consultations
//! come from agents pinned to one shard, so only that shard *observes*
//! the deviance. Under `ReputationPolicy::Isolated` the saboteur keeps
//! serving the other three shards indefinitely; under
//! `ReputationPolicy::Adaptive` with `check_every == every` (fixed-cadence
//! gossip) the shards merge PN-counter deltas at epoch boundaries — as real framed `Message::Gossip` sends on a dedicated
//! inter-shard bus, so `shard_stats()` reports the control-plane bytes
//! next to the consultation bytes — and the saboteur is voted out
//! engine-wide within one epoch, with no cross-shard lock ever taken on
//! the consult hot path. Checking more often than once per epoch makes the
//! engine react to the dissent burst and sync before the epoch is up.
//!
//! Run with: `cargo run --example reputation_gossip`

use std::sync::Arc;

use rationality_authority::authority::{
    Bus, CertCacheConfig, GameSpec, InventorBehavior, Party, ReputationPolicy, ShardedAuthority,
    Transport, TransportSite, VerifierBehavior,
};
use rationality_authority::games::named::prisoners_dilemma;

const EPOCH: usize = 8;

/// A four-shard engine over perfect buses under `policy`. The gossip
/// hub's bus keeps its delivery log, which the per-pair pull sums below
/// are read from.
fn engine_with(panel: &[VerifierBehavior], policy: ReputationPolicy) -> ShardedAuthority {
    ShardedAuthority::with_transports(
        4,
        InventorBehavior::Honest,
        panel,
        policy.into(),
        CertCacheConfig::default(),
        &|site| match site {
            TransportSite::GossipHub => {
                Arc::new(Bus::new().with_delivery_log()) as Arc<dyn Transport>
            }
            TransportSite::Shard(_) => Arc::new(Bus::new()),
        },
    )
}

fn trust_row(engine: &ShardedAuthority, saboteur: Party) -> String {
    (0..engine.shard_count())
        .map(|s| {
            let trusted = engine.with_shard(s, |a| a.reputation().is_trusted(saboteur));
            format!(
                "shard {s}: {}",
                if trusted { "trusted " } else { "EXCLUDED" }
            )
        })
        .collect::<Vec<_>>()
        .join("   ")
}

fn main() {
    let panel = [
        VerifierBehavior::Honest,
        VerifierBehavior::Honest,
        VerifierBehavior::AlwaysReject, // Verifier(2), the saboteur
    ];
    let saboteur = Party::Verifier(2);
    let spec = GameSpec::Strategic(prisoners_dilemma().to_strategic());

    let engine = engine_with(
        &panel,
        ReputationPolicy::Adaptive {
            every: EPOCH,
            check_every: EPOCH,
            burst: 1,
        },
    );
    println!(
        "4 shards, panel = [Honest, Honest, AlwaysReject], \
         gossip every {EPOCH} consultations\n"
    );

    // Agents that all hash to the same home shard: only it sees dissent.
    let home = engine.shard_of(0);
    let mut pinned = (0..u64::MAX).filter(|&a| engine.shard_of(a) == home);
    println!("consulting only agents homed on shard {home}…");
    let mut consultations = 0;
    while engine.with_shard(home, |a| a.reputation().is_trusted(saboteur)) {
        engine.consult(pinned.next().expect("pinned agents"), &spec);
        consultations += 1;
        assert!(
            consultations <= 32,
            "home shard never excluded the saboteur"
        );
    }
    println!("after {consultations} consultations the observing shard votes it out:");
    println!("  {}\n", trust_row(&engine, saboteur));

    // One more epoch of traffic carries the exclusion everywhere.
    while !(0..engine.shard_count())
        .all(|s| engine.with_shard(s, |a| !a.reputation().is_trusted(saboteur)))
    {
        engine.consult(pinned.next().expect("pinned agents"), &spec);
        consultations += 1;
        assert!(consultations <= 64, "gossip never propagated the exclusion");
    }
    println!("after {consultations} consultations (≤ one epoch later) gossip has spread it:");
    println!("  {}\n", trust_row(&engine, saboteur));

    // A consultation on a foreign shard now runs without the saboteur.
    let away = (0..u64::MAX)
        .find(|&a| engine.shard_of(a) != home)
        .expect("an agent homed elsewhere");
    let outcome = engine.consult(away, &spec);
    println!(
        "agent {away} (shard {}) consults: adopted={}, verifiers answering={}",
        engine.shard_of(away),
        outcome.adopted,
        outcome.verdict_details.len()
    );
    assert!(outcome.adopted);
    assert_eq!(outcome.verdict_details.len(), 2, "saboteur engine-wide out");

    // The control plane is measurable: every epoch merge crossed the
    // dedicated inter-shard bus as framed sends.
    let stats = engine.shard_stats();
    println!(
        "\nLemma 1 accounting — consultation plane: {} bytes in {} messages; \
         gossip plane: {} bytes in {} messages ({:.1} gossip bytes/consultation)",
        stats.total_bytes,
        stats.message_count,
        stats.gossip_bytes,
        stats.gossip_messages,
        stats.gossip_bytes as f64 / consultations as f64,
    );
    assert!(stats.gossip_bytes > 0, "merges are real framed sends");

    // Pulls are version-vectored: each shard keeps a watermark of the hub
    // versions it has merged, and the hub ships only unseen slots. Once
    // the engine has converged, a re-sync costs the (tiny, unchanged)
    // push frames and *zero* pull bytes — no snapshot re-framing.
    let bus = engine.gossip_bus().expect("gossip engine has a bus");
    let pull_bytes = |bus: &dyn Transport| {
        (0..engine.shard_count() as u64)
            .map(|s| {
                bus.bytes_between(
                    rationality_authority::authority::GOSSIP_HUB,
                    Party::Shard(s),
                )
            })
            .sum::<usize>()
    };
    engine.sync_reputation();
    let converged = pull_bytes(bus);
    assert!(converged > 0, "the hub's bus logs the pulls it answered");
    engine.sync_reputation();
    let idle = pull_bytes(bus) - converged;
    println!(
        "\nversioned pulls — pull bytes after convergence: {converged}; \
         an idle re-sync adds {idle} pull bytes (the hub answers \
         watermarked pulls with nothing)"
    );
    assert_eq!(idle, 0, "up-to-date shards pull for free");

    // An adaptive engine reacts to the dissent burst instead of waiting
    // out the epoch: same cadence ceiling, earlier engine-wide exclusion.
    let adaptive = engine_with(
        &panel,
        ReputationPolicy::Adaptive {
            every: 64,
            check_every: 4,
            burst: 2,
        },
    );
    let mut pinned = (0..u64::MAX).filter(|&a| adaptive.shard_of(a) == home);
    let mut adaptive_consultations = 0;
    while !(0..adaptive.shard_count())
        .all(|s| adaptive.with_shard(s, |a| !a.reputation().is_trusted(saboteur)))
    {
        adaptive.consult(pinned.next().expect("pinned agents"), &spec);
        adaptive_consultations += 1;
        assert!(adaptive_consultations <= 64, "burst trigger never fired");
    }
    println!(
        "\nAdaptive {{ every: 64, check_every: 4, burst: 2 }} excludes engine-wide \
         after {adaptive_consultations} consultations — before its 64-consultation \
         epoch ever elapses."
    );

    // Contrast: the isolated policy never propagates the exclusion.
    let isolated = ShardedAuthority::new(4, InventorBehavior::Honest, &panel);
    let mut pinned = (0..u64::MAX).filter(|&a| isolated.shard_of(a) == home);
    let mut drained = 0;
    while isolated.with_shard(home, |a| a.reputation().is_trusted(saboteur)) {
        isolated.consult(pinned.next().expect("pinned agents"), &spec);
        drained += 1;
        assert!(drained <= 32, "home shard never excluded the saboteur");
    }
    println!("\nsame traffic under ReputationPolicy::Isolated:");
    println!("  {}", trust_row(&isolated, saboteur));
    let still_serving = (0..isolated.shard_count())
        .filter(|&s| isolated.with_shard(s, |a| a.reputation().is_trusted(saboteur)))
        .count();
    assert_eq!(still_serving, 3, "isolated shards keep trusting");
    println!(
        "\nthe saboteur still serves {still_serving}/4 shards under Isolated — \
         the gap the gossip plane closes."
    );
}
