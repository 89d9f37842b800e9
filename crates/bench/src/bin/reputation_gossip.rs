//! Measures the cost and the payoff of the cross-shard reputation plane:
//! consultation throughput under isolated shards vs fixed-cadence gossip
//! (`ReputationPolicy::Adaptive` with `check_every == every`) vs adaptive
//! gossip that checks four times per epoch, at 1/2/4/8 shards, the *control-plane* bytes the gossip merges put on the
//! dedicated inter-shard bus (per consultation — the Lemma 1 accounting
//! now covers its own coordination traffic), and how many consultations /
//! how many total wire bytes it takes to exclude a persistently deviant
//! verifier on *every* shard under each policy.
//!
//! The acceptance bars: gossip throughput ≥ 0.9× isolated at 8 shards
//! (ISSUE 3 — the epoch merge is amortized off the consult hot path), and
//! gossip bytes per consultation non-zero under either gossip policy but
//! exactly zero under `Isolated` (ISSUE 4 — merges are real framed
//! sends). Results go to `results/reputation_gossip.csv` and, in the
//! machine-readable perf-trajectory format, `BENCH_reputation_gossip.json`
//! at the workspace root (schema: docs/BENCHMARKS.md).
//!
//! Usage: `cargo run -p ra-bench --release --bin reputation_gossip [-- N [EVERY]]`
//! where `N` is the batch size (default 512; CI uses a small value) and
//! `EVERY` the gossip epoch in consultations (default 32).

use std::sync::Arc;

use ra_authority::{
    Bus, CertCacheConfig, GameSpec, InventorBehavior, Party, ReputationPolicy, ShardedAuthority,
    VerifierBehavior,
};
use ra_bench::{build_batch, count_arg, timed, write_bench, write_csv_rows, Row, Spread};
use ra_games::named::prisoners_dilemma;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Hard cap on the exclusion experiment (the isolated engine may need a
/// dissent on every shard; this bounds pathological routing).
const EXCLUSION_CAP: u64 = 10_000;

/// An engine with an honest inventor over perfect buses and no
/// certificate cache.
fn bus_engine(
    shards: usize,
    panel: &[VerifierBehavior],
    policy: ReputationPolicy,
) -> ShardedAuthority {
    ShardedAuthority::with_transports(
        shards,
        InventorBehavior::Honest,
        panel,
        policy.into(),
        CertCacheConfig::default(),
        &|_| Arc::new(Bus::new()),
    )
}

/// Fixed-cadence gossip: every check falls on an epoch boundary, so the
/// dissent burst never decides a sync.
fn gossip(every: usize) -> ReputationPolicy {
    ReputationPolicy::Adaptive {
        every,
        check_every: every,
        burst: 1,
    }
}

/// The three policies compared, by name, at epoch `every`: the adaptive
/// variant checks four times per epoch and syncs early on 4+ dissenting
/// votes.
fn policies(every: usize) -> [(&'static str, ReputationPolicy); 3] {
    let check_every = if every % 4 == 0 { every / 4 } else { 1 };
    [
        ("isolated", ReputationPolicy::Isolated),
        ("gossip", gossip(every)),
        (
            "adaptive",
            ReputationPolicy::Adaptive {
                every,
                check_every,
                burst: 4,
            },
        ),
    ]
}

/// Consultations (round-robin agents) and total wire bytes (consultation
/// plane + delivered gossip frames) until `Party::Verifier(2)` — an
/// `AlwaysReject` saboteur against an honest inventor — is distrusted on
/// every shard, or `None` if that never happens within `EXCLUSION_CAP`
/// (reported as `null` in the JSON and an empty CSV field, so a
/// propagation regression shows up as a visibly broken data point, not a
/// big number).
fn cost_to_global_exclusion(shards: usize, policy: ReputationPolicy) -> Option<(u64, usize)> {
    let panel = [
        VerifierBehavior::Honest,
        VerifierBehavior::Honest,
        VerifierBehavior::AlwaysReject,
    ];
    let engine = bus_engine(shards, &panel, policy);
    let saboteur = Party::Verifier(2);
    let spec = GameSpec::Strategic(prisoners_dilemma().to_strategic());
    for consultations in 1..=EXCLUSION_CAP {
        engine.consult(consultations - 1, &spec);
        let excluded_everywhere = (0..engine.shard_count())
            .all(|s| engine.with_shard(s, |a| !a.reputation().is_trusted(saboteur)));
        if excluded_everywhere {
            let stats = engine.shard_stats();
            return Some((consultations, stats.total_bytes + stats.gossip_bytes));
        }
    }
    None
}

/// One measured `(shards, policy)` configuration.
fn result_row(
    shards: usize,
    policy: &str,
    consultations: u64,
    every: usize,
    secs: f64,
    gossip_bytes: usize,
    exclusion: Option<(u64, usize)>,
) -> Row {
    Row::new()
        .int("shards", shards as u64)
        .label("policy", policy)
        .int("consultations", consultations)
        .int("gossip_every", every as u64)
        .fixed("secs", secs, 9)
        .fixed(
            "consults_per_sec",
            consultations as f64 / secs.max(1e-12),
            3,
        )
        .int("gossip_bytes", gossip_bytes as u64)
        .fixed(
            "gossip_bytes_per_consult",
            gossip_bytes as f64 / consultations as f64,
            3,
        )
        .int_or_null("global_exclusion_after", exclusion.map(|(n, _)| n))
        .int_or_null(
            "bytes_to_global_exclusion",
            exclusion.map(|(_, bytes)| bytes as u64),
        )
}

fn main() {
    let batch_size = count_arg(1, "N, batch size", 512);
    let every = count_arg(2, "EVERY, gossip epoch in consultations", 32);
    // A batch smaller than the epoch would never cross a merge boundary,
    // making every gossip column vacuously zero; clamp so the smallest
    // documented invocations still measure the control plane.
    let every = every.min(batch_size) as usize;
    let requests = build_batch(batch_size);
    println!(
        "Reputation plane — {batch_size} consultations per configuration, gossip \
         epoch {every}, honest inventor, 3 honest verifiers per shard:\n"
    );
    let mut results = Vec::new();
    let mut rates = std::collections::HashMap::new();
    for shards in SHARD_COUNTS {
        for (name, policy) in policies(every) {
            let engine = bus_engine(shards, &[VerifierBehavior::Honest; 3], policy);
            let (outcomes, secs) = timed(|| engine.consult_batch(&requests));
            assert!(
                outcomes.iter().all(|o| o.adopted),
                "honest infrastructure adopts everything"
            );
            let stats = engine.shard_stats();
            // ISSUE 4 acceptance: merges are framed sends, visible to the
            // accounting exactly when a gossip policy is active.
            assert_eq!(
                stats.gossip_bytes > 0,
                policy != ReputationPolicy::Isolated,
                "gossip byte accounting does not match the policy"
            );
            rates.insert((shards, name), batch_size as f64 / secs.max(1e-12));
            let row = result_row(
                shards,
                name,
                batch_size,
                every,
                secs,
                stats.gossip_bytes,
                cost_to_global_exclusion(shards, policy),
            );
            row.print(results.is_empty());
            results.push(row);
        }
    }
    let ratio_at_8 = rates[&(8usize, "gossip")] / rates[&(8usize, "isolated")];

    // Fixed 512-consultation column at 8 shards, independent of the CLI
    // batch size: the worker fan-out regression that motivated the
    // persistent shard pool only shows at large batches (many epoch
    // chunks), so the perf trajectory needs a stable large-batch point
    // even when CI sweeps a small one. Also measures the versioned-pull
    // payoff: an idle re-sync after the batch must ship zero pull bytes.
    const BIG_BATCH: u64 = 512;
    const BIG_EVERY: usize = 32;
    /// Fresh engines per repeat; the best (smallest) wall time of the
    /// repeats is reported, so a scheduler hiccup in one run does not
    /// masquerade as a fan-out regression in the trajectory.
    const BIG_REPEATS: usize = 3;
    let big_requests = build_batch(BIG_BATCH);
    // Returns the last repeat's engine: the batch's bytes are the same in
    // every repeat (batch == sequential), only its wall time varies.
    let best_of = |policy| {
        let mut engine = None;
        let best = Spread::of((0..BIG_REPEATS).map(|_| {
            let fresh = bus_engine(8, &[VerifierBehavior::Honest; 3], policy);
            let (outcomes, secs) = timed(|| fresh.consult_batch(&big_requests));
            assert!(outcomes.iter().all(|o| o.adopted));
            engine = Some(fresh);
            secs
        }))
        .min;
        (engine.expect("at least one repeat ran"), best)
    };
    let (_, iso_secs) = best_of(ReputationPolicy::Isolated);
    let (gossip_engine, gos_secs) = best_of(gossip(BIG_EVERY));
    let isolated_512 = BIG_BATCH as f64 / iso_secs.max(1e-12);
    let gossip_512 = BIG_BATCH as f64 / gos_secs.max(1e-12);
    let ratio_512 = gossip_512 / isolated_512;
    // Snapshot the batch's own control-plane bytes before the idle-sync
    // experiment below adds its (post-measurement) push frames, so the
    // archived row stays comparable with the sweep rows.
    let gossip_bytes_512 = gossip_engine.shard_stats().gossip_bytes;
    // Idle-sync pull bytes: flush the tail of the batch, then re-sync an
    // already-converged engine — the hub answers every watermarked pull
    // with nothing, so the delta must be exactly zero.
    gossip_engine.sync_reputation();
    let bus = gossip_engine.gossip_bus().expect("gossip engine has a bus");
    let pull_bytes = |bus: &dyn ra_authority::Transport| {
        (0..8)
            .map(|s| bus.bytes_between(ra_authority::GOSSIP_HUB, Party::Shard(s)))
            .sum::<usize>()
    };
    let before_idle = pull_bytes(bus);
    gossip_engine.sync_reputation();
    let idle_sync_pull_bytes = pull_bytes(bus) - before_idle;
    println!(
        "\nbatch_512 column — 8 shards, {BIG_BATCH} consultations, epoch {BIG_EVERY}: \
         isolated {isolated_512:.0}/s, gossip {gossip_512:.0}/s \
         (ratio {ratio_512:.2}x), idle-sync pull bytes {idle_sync_pull_bytes}"
    );

    let mut csv_rows = results.clone();
    csv_rows.push(result_row(
        8, "isolated", BIG_BATCH, BIG_EVERY, iso_secs, 0, None,
    ));
    csv_rows.push(result_row(
        8,
        "gossip",
        BIG_BATCH,
        BIG_EVERY,
        gos_secs,
        gossip_bytes_512,
        None,
    ));
    let csv_path = write_csv_rows("reputation_gossip", &csv_rows);
    let json_path = write_bench(
        "reputation_gossip",
        Row::new()
            .label("unit", "consults_per_sec")
            .int("batch_size", batch_size)
            .int("gossip_every", every as u64)
            .fixed("gossip_over_isolated_at_8_shards", ratio_at_8, 4)
            .object(
                "batch_512",
                Row::new()
                    .int("shards", 8)
                    .int("consultations", BIG_BATCH)
                    .int("gossip_every", BIG_EVERY as u64)
                    .fixed("isolated_consults_per_sec", isolated_512, 3)
                    .fixed("gossip_consults_per_sec", gossip_512, 3)
                    .fixed("gossip_over_isolated_at_8_shards", ratio_512, 4)
                    .int("idle_sync_pull_bytes", idle_sync_pull_bytes as u64),
            )
            .rows("results", results),
    );
    println!("\nwrote {}", csv_path.display());
    println!("wrote {}", json_path.display());
    println!(
        "\nroadmap check — gossip/isolated throughput at 8 shards: {ratio_at_8:.2}x \
         at the swept batch size, {ratio_512:.2}x at 512 (the `batch_512` \
         trajectory column; the persistent shard pool removed the per-epoch \
         worker respawns that used to hold this near 0.65x). The consult hot \
         path still only pays an atomic bump, merge frames are *measured* on \
         the inter-shard bus — and pulls are version-vectored, so an \
         up-to-date shard pays {idle_sync_pull_bytes} pull bytes instead of \
         re-receiving the merged snapshot. The adaptive policy trades a few \
         early merges for faster engine-wide exclusion of deviant verifiers."
    );
}
