//! Chaos soak over [`SimNet`]: the resilient consultation protocol
//! (deadline budget, retransmit/backoff, quorum degradation) swept across
//! a loss × latency × deadline grid, the saboteur campaign over a lossy
//! gossip hub, and the partition/heal reconciliation cost — all on the
//! virtual clock, so every number is machine-independent and
//! seed-deterministic.
//!
//! 1. **Cells.** Each cell is a fresh seeded network carrying a full
//!    [`RationalityAuthority`] — honest inventor, honest panel of three,
//!    `quorum = 2` — driven through a soak of consultations via
//!    `try_consult`. Per cell the soak reports:
//!    - **completion rate** — consults that returned `Ok` (full or
//!      degraded) over the soak size; the headline robustness number.
//!    - **degraded rate** — `Ok` closes decided without the full panel.
//!    - **attempt and tick tails** — p50/p99 of per-session send attempts,
//!      and of the virtual ticks each `try_consult` spends.
//!    - **retransmit overhead** — the ledger's retransmit-byte share of
//!      total accounted bytes, i.e. what loss costs beyond Lemma 1 goodput.
//! 2. **Campaign cells** — the scenario suite's saboteur-panel campaign
//!    over a gossip hub at increasing loss rates: adopted count, shards
//!    that excluded the saboteur, delivered vs accounted gossip bytes.
//! 3. **Reconciliation** — a scripted partition/heal at the gossip-plane
//!    level: bytes shipped to reconcile a stalled watermark vs the
//!    full-snapshot pull a fresh shard needs for the same hub state.
//!
//! The moderate cell — 20% per-link loss, LAN latency, default deadline —
//! is the CI gate: its completion rate must hold at or above 99%. The bin
//! asserts this itself, and that reconciliation ships something but less
//! than a full snapshot, so a local run fails the same way CI does.
//!
//! The seed comes from `RA_SCENARIO_SEED` (decimal) when set — the same
//! replay handle the scenario suite uses — and defaults to the same fixed
//! campaign seed.
//!
//! Results go to `results/chaos.csv` (the grid cells) and, schema-gated in
//! CI, `BENCH_chaos.json` at the workspace root.
//!
//! Usage: `cargo run -p ra-bench --release --bin chaos [-- N]` where `N`
//! is the consults-per-cell soak budget (default 64).

use std::sync::Arc;

use ra_authority::{
    Bus, CertCacheConfig, DecayingPnCounterMap, GameSpec, GossipPlane, Inventor, InventorBehavior,
    LinkProfile, LocalReputation, PanelOutcome, Party, RationalityAuthority, ReputationConfig,
    ReputationDecay, ReputationPolicy, ResilienceConfig, ShardedAuthority, SimNet, SimNetConfig,
    Transport, TransportSite, VerifierBehavior, VersionVector, GOSSIP_HUB,
};
use ra_bench::{count_arg, percentile, scenario_seed, write_bench, write_csv_rows, Row};
use ra_games::named::prisoners_dilemma;

/// Consultations per campaign cell, independent of the soak budget.
const CAMPAIGN_CONSULTS: u64 = 64;

/// Runs one soak cell: `consults` resilient consultations over a fresh
/// seeded network with per-link loss `loss` and the given latency window,
/// under a per-session deadline budget of `deadline` virtual ticks.
/// Returns the cell's completion rate and its row.
fn run_cell(
    latency: &'static str,
    window: (u64, u64),
    loss: f64,
    deadline: u64,
    consults: u64,
    cell_seed: u64,
) -> (f64, Row) {
    let net = Arc::new(SimNet::new(SimNetConfig {
        seed: cell_seed,
        default_link: LinkProfile {
            latency_min: window.0,
            latency_max: window.1,
            drop_prob: loss,
            duplicate_probability: 0.0,
        },
        ..SimNetConfig::default()
    }));
    let mut authority = RationalityAuthority::with_transport(
        Inventor::new(0, InventorBehavior::Honest),
        &[VerifierBehavior::Honest; 3],
        Arc::new(LocalReputation::new()),
        Arc::clone(&net) as Arc<dyn Transport>,
    );
    authority.set_resilience(Some(ResilienceConfig {
        deadline,
        quorum: 2,
        seed: cell_seed,
        ..ResilienceConfig::default()
    }));
    let spec = GameSpec::Strategic(prisoners_dilemma().to_strategic());
    let mut completed = 0u64;
    let mut degraded = 0u64;
    let mut attempts: Vec<u64> = Vec::with_capacity(consults as usize);
    let mut ticks: Vec<u64> = Vec::with_capacity(consults as usize);
    for agent in 0..consults {
        let start = net.now();
        let result = authority.try_consult(agent, &spec);
        ticks.push(net.now() - start);
        match result {
            Ok(outcome) => {
                completed += 1;
                if matches!(outcome.panel, PanelOutcome::Degraded { .. }) {
                    degraded += 1;
                }
                attempts.push(outcome.attempts);
            }
            Err(ra_authority::ConsultError::Deadline {
                attempts: spent, ..
            }) => attempts.push(spent),
        }
    }
    attempts.sort_unstable();
    ticks.sort_unstable();
    let completion_rate = completed as f64 / consults as f64;
    let (retransmit_bytes, total_bytes) = (net.retransmit_bytes(), net.total_bytes());
    let retransmit_share = if total_bytes == 0 {
        0.0
    } else {
        retransmit_bytes as f64 / total_bytes as f64
    };
    let row = Row::new()
        .label("latency", latency)
        .fixed("loss", loss, 2)
        .int("deadline", deadline)
        .int("consults", consults)
        .int("completed", completed)
        .int("degraded", degraded)
        .fixed("completion_rate", completion_rate, 4)
        .json_only()
        .fixed("degraded_rate", degraded as f64 / consults as f64, 4)
        .json_only()
        .int("p50_attempts", percentile(&attempts, 0.50))
        .int("p99_attempts", percentile(&attempts, 0.99))
        .int("p50_ticks", percentile(&ticks, 0.50))
        .json_only()
        .int("p99_ticks", percentile(&ticks, 0.99))
        .json_only()
        .int("goodput_bytes", net.goodput_bytes() as u64)
        .int("retransmit_bytes", retransmit_bytes as u64)
        .int("total_bytes", total_bytes as u64)
        .fixed("retransmit_share", retransmit_share, 4)
        .json_only();
    (completion_rate, row)
}

/// The scenario suite's saboteur campaign with gossip loss rate `loss`.
fn run_campaign_cell(loss: f64, cell_seed: u64) -> Row {
    let panel = [
        VerifierBehavior::Honest,
        VerifierBehavior::Honest,
        VerifierBehavior::AlwaysReject,
    ];
    let engine = ShardedAuthority::with_transports(
        2,
        InventorBehavior::Honest,
        &panel,
        ReputationConfig {
            policy: ReputationPolicy::Adaptive {
                every: 2,
                check_every: 2,
                burst: 1,
            },
            ..ReputationConfig::default()
        },
        CertCacheConfig::default(),
        &|site| match site {
            TransportSite::GossipHub => {
                let net = SimNet::new(SimNetConfig {
                    seed: cell_seed,
                    default_link: LinkProfile::lossy(loss),
                    ..SimNetConfig::default()
                });
                Arc::new(net) as Arc<dyn Transport>
            }
            TransportSite::Shard(_) => Arc::new(Bus::new()) as Arc<dyn Transport>,
        },
    );
    let spec = GameSpec::Strategic(prisoners_dilemma().to_strategic());
    let adopted = (0..CAMPAIGN_CONSULTS)
        .filter(|&agent| engine.consult(agent, &spec).adopted)
        .count();
    engine.sync_reputation();
    let saboteur = Party::Verifier(2);
    let excluded_shards = (0..engine.shard_count())
        .filter(|&s| !engine.with_shard(s, |a| a.reputation().is_trusted(saboteur)))
        .count();
    let hub = engine.gossip_bus().expect("gossip engine");
    Row::new()
        .fixed("loss", loss, 2)
        .int("consults", CAMPAIGN_CONSULTS)
        .int("adopted", adopted as u64)
        .int("excluded_shards", excluded_shards as u64)
        .int("gossip_delivered_bytes", hub.delivered_bytes() as u64)
        .int("gossip_total_bytes", hub.total_bytes() as u64)
}

/// Partition/heal reconciliation economics at the gossip-plane level.
/// Returns `(reconciliation_bytes, full_snapshot_bytes)`.
fn run_reconciliation(cell_seed: u64) -> (usize, usize) {
    let net = Arc::new(SimNet::lossless(cell_seed).with_delivery_log());
    let plane = GossipPlane::over_transport_with(
        ReputationDecay::None,
        Arc::clone(&net) as Arc<dyn Transport>,
    );
    let delivered_to = |shard: u64| -> usize {
        net.delivery_log()
            .iter()
            .filter(|r| r.delivered && r.from == GOSSIP_HUB && r.to == Party::Shard(shard))
            .map(|r| r.bytes)
            .sum()
    };
    let mut states: Vec<DecayingPnCounterMap> =
        (0..3).map(|_| DecayingPnCounterMap::new()).collect();
    let mut seens: Vec<VersionVector> = (0..3).map(|_| VersionVector::new()).collect();
    for shard in 0..3u64 {
        let s = shard as usize;
        states[s].record(shard, Party::Verifier(shard), true);
        plane.publish_from(shard, states[s].replica_slice(shard));
    }
    for shard in 0..3u64 {
        let s = shard as usize;
        plane.pull_into(shard, &mut states[s], &mut seens[s]);
    }
    net.drop_link(Party::Shard(2), GOSSIP_HUB);
    net.drop_link(GOSSIP_HUB, Party::Shard(2));
    for round in 0..4u64 {
        for shard in 0..2u64 {
            let s = shard as usize;
            states[s].record(shard, Party::Verifier(10 + round * 2 + shard), true);
            plane.publish_from(shard, states[s].replica_slice(shard));
        }
    }
    net.heal();
    let before = delivered_to(2);
    plane.pull_into(2, &mut states[2], &mut seens[2]);
    let reconciliation = delivered_to(2) - before;
    let mut fresh_state = DecayingPnCounterMap::new();
    let mut fresh_seen = VersionVector::new();
    plane.pull_into(9, &mut fresh_state, &mut fresh_seen);
    (reconciliation, delivered_to(9))
}

fn main() {
    let consults = count_arg(1, "N, consults per cell", 64);
    let seed = scenario_seed();
    println!("Chaos soak over SimNet — seed {seed}, {consults} consults per cell.\n");

    let latencies = [("lan", (1, 3)), ("wan", (8, 24))];
    let losses = [0.0, 0.05, 0.20, 0.35];
    let deadlines = [512, 4096];
    let moderate = ("lan", 0.20, 4096u64);

    let mut cells = Vec::new();
    let mut moderate_rate = None;
    for (li, &(latency, window)) in latencies.iter().enumerate() {
        for (fi, &loss) in losses.iter().enumerate() {
            for (di, &deadline) in deadlines.iter().enumerate() {
                let salt = (li * 64 + fi * 8 + di) as u64;
                let (completion_rate, row) =
                    run_cell(latency, window, loss, deadline, consults, seed ^ salt);
                row.print(cells.is_empty());
                if (latency, loss, deadline) == moderate {
                    moderate_rate = Some(completion_rate);
                }
                cells.push(row);
            }
        }
    }
    let moderate_rate = moderate_rate.expect("the moderate cell is in the grid");
    assert!(
        moderate_rate >= 0.99,
        "moderate cell (20% loss, lan, deadline 4096) completed {moderate_rate:.4} < 0.99"
    );

    println!(
        "\nsaboteur campaign over a lossy gossip hub ({CAMPAIGN_CONSULTS} consults, 2 shards):"
    );
    let mut campaign_cells = Vec::new();
    for (i, loss) in [0.0, 0.2, 0.5].into_iter().enumerate() {
        let row = run_campaign_cell(loss, seed ^ (0x100 + i as u64));
        row.print(campaign_cells.is_empty());
        campaign_cells.push(row);
    }

    let (reconciliation, full_snapshot) = run_reconciliation(seed ^ 0x5107);
    assert!(
        reconciliation > 0 && reconciliation < full_snapshot,
        "reconciliation must ship the missed slots and beat the full snapshot"
    );
    println!(
        "\npartition/heal reconciliation: {reconciliation} B incremental vs \
         {full_snapshot} B full-snapshot pull"
    );

    let csv_path = write_csv_rows("chaos", &cells);
    let json_path = write_bench(
        "chaos",
        Row::new()
            .label("unit", "virtual_ticks")
            .int("seed", seed)
            .int("consults_per_cell", consults)
            .object(
                "moderate_cell",
                Row::new()
                    .label("latency", moderate.0)
                    .fixed("loss", moderate.1, 2)
                    .int("deadline", moderate.2)
                    .fixed("completion_rate", moderate_rate, 4),
            )
            .rows("cells", cells)
            .rows("campaign_cells", campaign_cells)
            .object(
                "reconciliation",
                Row::new()
                    .int("reconciliation_bytes", reconciliation as u64)
                    .int("full_snapshot_bytes", full_snapshot as u64),
            ),
    );
    println!("\nwrote {}", csv_path.display());
    println!("wrote {}", json_path.display());
    println!(
        "\nreading the numbers — zero-loss cells must complete 100% with zero\n\
         retransmit bytes and attempt counts pinned at zero; under loss the\n\
         backoff schedule converts drops into retries, so completion holds near\n\
         1.0 while the retransmit share, p99 attempts and p99 ticks grow with the\n\
         loss rate. The short deadline trades completion for promptness: cells\n\
         that fail there fail with a typed deadline error, never a silent\n\
         minority vote. The moderate cell (20% loss) is the CI gate at >= 0.99.\n\
         In the campaign cells adoption must stay at 100% at every loss rate\n\
         (loss delays exclusion news, it never corrupts verdicts), and\n\
         reconciliation must stay strictly cheaper than a full-snapshot pull."
    );
}
