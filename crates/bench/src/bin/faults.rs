//! Fault-injection benchmark over [`SimNet`]: tail latency under
//! realistic RTT/loss cells, the lossy gossip campaign's adoption and
//! byte economics, and the partition/heal reconciliation cost.
//!
//! Three sections, all on the virtual clock (ticks, not wall time — the
//! numbers are machine-independent and seed-deterministic):
//!
//! 1. **RTT cells** — request/reply exchanges between two endpoints over
//!    a link profile cross product (LAN/WAN/satellite latency windows ×
//!    loss rates), with a retransmit timer of `2 × latency_max` per lost
//!    frame. Reported as p50/p95/p99 round-trip virtual ticks plus
//!    retry and byte counters.
//! 2. **Campaign cells** — the saboteur-panel consultation campaign from
//!    the scenario suite run over a lossy gossip hub at increasing loss
//!    rates: adopted rate, exclusion spread, delivered vs accounted
//!    gossip bytes.
//! 3. **Reconciliation** — a scripted partition/heal at the gossip-plane
//!    level: bytes shipped to reconcile a stalled watermark vs the
//!    full-snapshot pull a fresh shard needs for the same hub state.
//!
//! The seed comes from `RA_SCENARIO_SEED` (decimal) when set — the same
//! replay handle the scenario suite uses — and defaults to the same
//! fixed campaign seed.
//!
//! Results go to `results/faults.csv` and, schema-gated in CI,
//! `BENCH_faults.json` at the workspace root.
//!
//! Usage: `cargo run -p ra-bench --release --bin faults [-- N]` where
//! `N` is the exchanges-per-RTT-cell budget (default 400).

use std::sync::Arc;

use ra_authority::{
    Bus, CertCacheConfig, DecayingPnCounterMap, GameSpec, GossipPlane, InventorBehavior,
    LinkProfile, Message, Party, ReputationConfig, ReputationDecay, ReputationPolicy,
    ShardedAuthority, SimNet, SimNetConfig, Transport, TransportSite, VerifierBehavior,
    VersionVector, GOSSIP_HUB,
};
use ra_bench::{percentile, scenario_seed, write_csv, write_json};
use ra_games::named::prisoners_dilemma;

/// One measured RTT cell.
struct RttCell {
    profile: &'static str,
    loss: f64,
    latency_min: u64,
    latency_max: u64,
    exchanges: u64,
    retries: u64,
    p50_ticks: u64,
    p95_ticks: u64,
    p99_ticks: u64,
    delivered_bytes: usize,
    total_bytes: usize,
}

/// Runs one RTT cell: `exchanges` query/reply round trips between two
/// endpoints, with a retransmit timer of `2 × latency_max` charged to the
/// virtual clock for every lost frame.
fn run_rtt_cell(
    profile: &'static str,
    link: LinkProfile,
    exchanges: u64,
    cell_seed: u64,
) -> RttCell {
    let net = SimNet::new(SimNetConfig {
        seed: cell_seed,
        default_link: link,
        ..SimNetConfig::default()
    });
    let a = Party::Agent(1);
    let b = Party::Agent(2);
    let ep_a = net.register(a);
    let ep_b = net.register(b);
    let rto = 2 * link.latency_max.max(1);
    let mut retries = 0u64;
    let mut rtts: Vec<u64> = Vec::with_capacity(exchanges as usize);
    for game_id in 0..exchanges {
        let t0 = net.now();
        // Query leg, with retransmits until the responder holds the frame.
        loop {
            net.send(a, b, Message::AdviceRequest { game_id })
                .expect("registered");
            net.settle();
            if !ep_b.drain().is_empty() {
                break;
            }
            retries += 1;
            net.advance_to(net.now() + rto);
        }
        // Reply leg, same discipline.
        loop {
            net.send(b, a, Message::AdviceRequest { game_id })
                .expect("registered");
            net.settle();
            if !ep_a.drain().is_empty() {
                break;
            }
            retries += 1;
            net.advance_to(net.now() + rto);
        }
        rtts.push(net.now() - t0);
    }
    rtts.sort_unstable();
    RttCell {
        profile,
        loss: link.drop_prob,
        latency_min: link.latency_min,
        latency_max: link.latency_max,
        exchanges,
        retries,
        p50_ticks: percentile(&rtts, 0.50),
        p95_ticks: percentile(&rtts, 0.95),
        p99_ticks: percentile(&rtts, 0.99),
        delivered_bytes: net.delivered_bytes(),
        total_bytes: net.total_bytes(),
    }
}

/// One measured campaign cell.
struct CampaignCell {
    loss: f64,
    consults: u64,
    adopted: u64,
    excluded_shards: usize,
    gossip_delivered_bytes: usize,
    gossip_total_bytes: usize,
}

/// The scenario suite's saboteur campaign at gossip loss rate `loss`.
fn run_campaign_cell(loss: f64, consults: u64, cell_seed: u64) -> CampaignCell {
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
    let mut adopted = 0u64;
    for agent in 0..consults {
        if engine.consult(agent, &spec).adopted {
            adopted += 1;
        }
    }
    engine.sync_reputation();
    let saboteur = Party::Verifier(2);
    let excluded_shards = (0..engine.shard_count())
        .filter(|&s| !engine.with_shard(s, |a| a.reputation().is_trusted(saboteur)))
        .count();
    let hub = engine.gossip_bus().expect("gossip engine");
    CampaignCell {
        loss,
        consults,
        adopted,
        excluded_shards,
        gossip_delivered_bytes: hub.delivered_bytes(),
        gossip_total_bytes: hub.total_bytes(),
    }
}

/// Partition/heal reconciliation economics at the gossip-plane level.
/// Returns `(reconciliation_bytes, full_snapshot_bytes)`.
fn run_reconciliation(cell_seed: u64) -> (usize, usize) {
    let net = Arc::new(SimNet::lossless(cell_seed));
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
    net.split(&[Party::Shard(2)], &[GOSSIP_HUB]);
    for round in 0..4u64 {
        for shard in 0..2u64 {
            let s = shard as usize;
            states[s].record(shard, Party::Verifier(10 + round * 2 + shard), true);
            plane.publish_from(shard, states[s].replica_slice(shard));
        }
    }
    net.heal_partitions();
    let before = delivered_to(2);
    plane.pull_into(2, &mut states[2], &mut seens[2]);
    let reconciliation = delivered_to(2) - before;
    let mut fresh_state = DecayingPnCounterMap::new();
    let mut fresh_seen = VersionVector::new();
    plane.pull_into(9, &mut fresh_state, &mut fresh_seen);
    (reconciliation, delivered_to(9))
}

fn main() {
    let exchanges: u64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("exchange budget must be an integer"))
        .unwrap_or(400);
    let seed = scenario_seed();
    println!(
        "Fault-injection benchmark over SimNet — seed {seed}, {exchanges} exchanges per RTT cell.\n"
    );

    // 1. RTT cells: latency windows × loss rates.
    let latencies = [("lan", 1, 3), ("wan", 20, 60), ("satellite", 250, 350)];
    let losses = [0.0, 0.01, 0.10];
    println!(
        "{:>10} {:>6} {:>9} {:>8} {:>10} {:>10} {:>10} {:>12} {:>12}",
        "profile",
        "loss",
        "latency",
        "retries",
        "p50 ticks",
        "p95 ticks",
        "p99 ticks",
        "delivered B",
        "accounted B"
    );
    let mut rows = Vec::new();
    let mut rtt_json = Vec::new();
    for (ci, &(name, lo, hi)) in latencies.iter().enumerate() {
        for (ri, &loss) in losses.iter().enumerate() {
            let link = LinkProfile {
                latency_min: lo,
                latency_max: hi,
                drop_prob: loss,
                duplicate_probability: 0.0,
            };
            let cell = run_rtt_cell(name, link, exchanges, seed ^ ((ci * 8 + ri) as u64));
            println!(
                "{:>10} {:>6.2} {:>4}..{:<4} {:>8} {:>10} {:>10} {:>10} {:>12} {:>12}",
                cell.profile,
                cell.loss,
                cell.latency_min,
                cell.latency_max,
                cell.retries,
                cell.p50_ticks,
                cell.p95_ticks,
                cell.p99_ticks,
                cell.delivered_bytes,
                cell.total_bytes
            );
            rows.push(format!(
                "rtt,{},{:.2},{},{},{},{},{},{},{},{},{}",
                cell.profile,
                cell.loss,
                cell.latency_min,
                cell.latency_max,
                cell.exchanges,
                cell.retries,
                cell.p50_ticks,
                cell.p95_ticks,
                cell.p99_ticks,
                cell.delivered_bytes,
                cell.total_bytes
            ));
            rtt_json.push(format!(
                "{{\"profile\":\"{}\",\"loss\":{:.2},\"latency_min\":{},\
                 \"latency_max\":{},\"exchanges\":{},\"retries\":{},\
                 \"p50_ticks\":{},\"p95_ticks\":{},\"p99_ticks\":{},\
                 \"delivered_bytes\":{},\"total_bytes\":{}}}",
                cell.profile,
                cell.loss,
                cell.latency_min,
                cell.latency_max,
                cell.exchanges,
                cell.retries,
                cell.p50_ticks,
                cell.p95_ticks,
                cell.p99_ticks,
                cell.delivered_bytes,
                cell.total_bytes
            ));
        }
    }

    // 2. Campaign cells over an increasingly lossy gossip hub.
    println!("\nsaboteur campaign over a lossy gossip hub (64 consults, 2 shards):");
    println!(
        "{:>6} {:>8} {:>8} {:>9} {:>12} {:>12}",
        "loss", "consults", "adopted", "excluded", "delivered B", "accounted B"
    );
    let mut campaign_json = Vec::new();
    for (i, &loss) in [0.0, 0.2, 0.5].iter().enumerate() {
        let cell = run_campaign_cell(loss, 64, seed ^ (0x100 + i as u64));
        println!(
            "{:>6.1} {:>8} {:>8} {:>9} {:>12} {:>12}",
            cell.loss,
            cell.consults,
            cell.adopted,
            cell.excluded_shards,
            cell.gossip_delivered_bytes,
            cell.gossip_total_bytes
        );
        rows.push(format!(
            "campaign,gossip,{:.2},,,{},,,,{},{}",
            cell.loss, cell.consults, cell.gossip_delivered_bytes, cell.gossip_total_bytes
        ));
        campaign_json.push(format!(
            "{{\"loss\":{:.2},\"consults\":{},\"adopted\":{},\
             \"excluded_shards\":{},\"gossip_delivered_bytes\":{},\
             \"gossip_total_bytes\":{}}}",
            cell.loss,
            cell.consults,
            cell.adopted,
            cell.excluded_shards,
            cell.gossip_delivered_bytes,
            cell.gossip_total_bytes
        ));
    }

    // 3. Partition/heal reconciliation economics.
    let (reconciliation, full_snapshot) = run_reconciliation(seed ^ 0x5107);
    assert!(
        reconciliation > 0 && reconciliation < full_snapshot,
        "reconciliation must ship the missed slots and beat the full snapshot"
    );
    println!(
        "\npartition/heal reconciliation: {reconciliation} B incremental vs \
         {full_snapshot} B full-snapshot pull"
    );

    let csv_path = write_csv(
        "faults",
        "section,profile,loss,latency_min,latency_max,count,retries,p50_ticks,p95_ticks,p99_ticks,delivered_bytes,total_bytes",
        &rows,
    );
    let json_path = write_json(
        "BENCH_faults",
        &format!(
            "{{\"bench\":\"faults\",\"unit\":\"virtual_ticks\",\"seed\":{seed},\
             \"exchanges_per_cell\":{exchanges},\
             \"rtt_cells\":[{}],\
             \"campaign_cells\":[{}],\
             \"reconciliation\":{{\"reconciliation_bytes\":{reconciliation},\
             \"full_snapshot_bytes\":{full_snapshot}}}}}",
            rtt_json.join(","),
            campaign_json.join(",")
        ),
    );
    println!("\nwrote {}", csv_path.display());
    println!("wrote {}", json_path.display());
    println!(
        "\nreading the numbers — lossless cells must show zero retries and p99 == the\n\
         latency ceiling; under loss the retransmit timer dominates the tail, so p99\n\
         growing with loss is expected while p50 stays near the clean RTT. In the\n\
         campaign cells adoption must stay at 100% at every loss rate (loss delays\n\
         exclusion news, it never corrupts verdicts), and reconciliation must stay\n\
         strictly cheaper than a full-snapshot pull."
    );
}
