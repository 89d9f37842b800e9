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
//! machine-readable perf-trajectory format,
//! `results/BENCH_reputation_gossip.json` (schema: docs/BENCHMARKS.md).
//!
//! Usage: `cargo run -p ra-bench --release --bin reputation_gossip [-- N [EVERY]]`
//! where `N` is the batch size (default 512; CI uses a small value) and
//! `EVERY` the gossip epoch in consultations (default 32).

use std::sync::Arc;

use ra_authority::{
    Bus, CertCacheConfig, GameSpec, InventorBehavior, Party, ReputationPolicy, ShardedAuthority,
    VerifierBehavior,
};
use ra_bench::{fmt_secs, timed, write_csv, write_json};
use ra_games::named::{battle_of_the_sexes, prisoners_dilemma, stag_hunt};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Hard cap on the exclusion experiment (the isolated engine may need a
/// dissent on every shard; this bounds pathological routing).
const EXCLUSION_CAP: u64 = 10_000;

fn build_batch(n: u64) -> Vec<(u64, Arc<GameSpec>)> {
    let specs = [
        GameSpec::Strategic(prisoners_dilemma().to_strategic()),
        GameSpec::Bimatrix(battle_of_the_sexes()),
        GameSpec::Strategic(stag_hunt(3)),
    ]
    .map(Arc::new);
    (0..n)
        .map(|agent| {
            (
                agent,
                Arc::clone(&specs[(agent % specs.len() as u64) as usize]),
            )
        })
        .collect()
}

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
/// (reported as -1 in the CSV and `null` in the JSON, so a propagation
/// regression shows up as a visibly broken data point, not a big number).
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

fn main() {
    let mut args = std::env::args().skip(1);
    let batch_size: u64 = args
        .next()
        .map(|s| s.parse().expect("batch size must be an integer"))
        .unwrap_or(512);
    let every: usize = args
        .next()
        .map(|s| s.parse().expect("gossip epoch must be an integer"))
        .unwrap_or(32);
    // A batch smaller than the epoch would never cross a merge boundary,
    // making every gossip column vacuously zero; clamp so the smallest
    // documented invocations still measure the control plane.
    let every = every.clamp(1, batch_size.max(1) as usize);
    let requests = build_batch(batch_size);
    println!(
        "Reputation plane — {batch_size} consultations per configuration, gossip \
         epoch {every}, honest inventor, 3 honest verifiers per shard:\n"
    );
    println!(
        "{:>7} {:>9} {:>12} {:>14} {:>13} {:>11} {:>16} {:>16}",
        "shards",
        "policy",
        "wall time",
        "consults/sec",
        "gossip bytes",
        "b/consult",
        "excluded after",
        "bytes to excl."
    );
    let mut rows = Vec::new();
    let mut json_entries = Vec::new();
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
            let gossip_per_consult = stats.gossip_bytes as f64 / batch_size as f64;
            let rate = batch_size as f64 / secs.max(1e-12);
            rates.insert((shards, name), rate);
            let exclusion = cost_to_global_exclusion(shards, policy);
            let (excl_csv, excl_bytes_csv) =
                exclusion.map_or((-1, -1), |(n, b)| (n as i64, b as i64));
            let excl_json = exclusion.map_or_else(|| String::from("null"), |(n, _)| n.to_string());
            let excl_bytes_json =
                exclusion.map_or_else(|| String::from("null"), |(_, b)| b.to_string());
            println!(
                "{:>7} {:>9} {:>12} {:>14.0} {:>13} {:>11.1} {:>16} {:>16}",
                shards,
                name,
                fmt_secs(secs),
                rate,
                stats.gossip_bytes,
                gossip_per_consult,
                exclusion.map_or_else(|| String::from("never"), |(n, _)| n.to_string()),
                exclusion.map_or_else(|| String::from("-"), |(_, b)| b.to_string()),
            );
            rows.push(format!(
                "{shards},{},{batch_size},{every},{secs:.9},{rate:.3},{},{gossip_per_consult:.3},\
                 {excl_csv},{excl_bytes_csv}",
                name, stats.gossip_bytes,
            ));
            json_entries.push(format!(
                "{{\"shards\":{shards},\"policy\":\"{}\",\"consultations\":{batch_size},\
                 \"gossip_every\":{every},\"secs\":{secs:.9},\"consults_per_sec\":{rate:.3},\
                 \"gossip_bytes\":{},\"gossip_bytes_per_consult\":{gossip_per_consult:.3},\
                 \"global_exclusion_after\":{excl_json},\
                 \"bytes_to_global_exclusion\":{excl_bytes_json}}}",
                name, stats.gossip_bytes,
            ));
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
    let rate_512 = |policy| {
        let mut best: Option<(ShardedAuthority, f64)> = None;
        for _ in 0..BIG_REPEATS {
            let engine = bus_engine(8, &[VerifierBehavior::Honest; 3], policy);
            let (outcomes, secs) = timed(|| engine.consult_batch(&big_requests));
            assert!(outcomes.iter().all(|o| o.adopted));
            let improved = match &best {
                None => true,
                Some((_, best_secs)) => secs < *best_secs,
            };
            if improved {
                best = Some((engine, secs));
            }
        }
        let (engine, secs) = best.expect("at least one repeat ran");
        (engine, BIG_BATCH as f64 / secs.max(1e-12), secs)
    };
    let (_, isolated_512, iso_secs) = rate_512(ReputationPolicy::Isolated);
    let (gossip_engine, gossip_512, gos_secs) = rate_512(gossip(BIG_EVERY));
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
    rows.push(format!(
        "8,isolated,{BIG_BATCH},{BIG_EVERY},{iso_secs:.9},{isolated_512:.3},0,0.000,-1,-1"
    ));
    rows.push(format!(
        "8,gossip,{BIG_BATCH},{BIG_EVERY},{gos_secs:.9},{gossip_512:.3},\
         {gossip_bytes_512},{:.3},-1,-1",
        gossip_bytes_512 as f64 / BIG_BATCH as f64,
    ));

    let csv_path = write_csv(
        "reputation_gossip",
        "shards,policy,consultations,gossip_every,secs,consults_per_sec,gossip_bytes,\
         gossip_bytes_per_consult,global_exclusion_after,bytes_to_global_exclusion",
        &rows,
    );
    let json_path = write_json(
        "BENCH_reputation_gossip",
        &format!(
            "{{\"bench\":\"reputation_gossip\",\"unit\":\"consults_per_sec\",\
             \"batch_size\":{batch_size},\"gossip_every\":{every},\
             \"gossip_over_isolated_at_8_shards\":{ratio_at_8:.4},\
             \"batch_512\":{{\"shards\":8,\"consultations\":{BIG_BATCH},\
             \"gossip_every\":{BIG_EVERY},\
             \"isolated_consults_per_sec\":{isolated_512:.3},\
             \"gossip_consults_per_sec\":{gossip_512:.3},\
             \"gossip_over_isolated_at_8_shards\":{ratio_512:.4},\
             \"idle_sync_pull_bytes\":{idle_sync_pull_bytes}}},\
             \"results\":[{}]}}",
            json_entries.join(",")
        ),
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
