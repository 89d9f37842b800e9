//! The fault-injection scenario campaign: the unchanged Fig. 1 protocol
//! and Lemma 1 accounting exercised over [`SimNet`] — loss, latency,
//! reordering, scripted partitions and shard failure — next to the
//! byte-identity guarantee that a lossless `SimNet` engine is
//! indistinguishable from the canonical [`Bus`] engine.
//!
//! Every scenario is seeded and deterministic. The seed comes from
//! `RA_SCENARIO_SEED` (decimal) when set, so CI can pin it and a failing
//! run can be replayed locally; every assertion message carries the seed.

use std::sync::Arc;

use rationality_authority::authority::{
    Bus, CertCacheConfig, DecayingPnCounterMap, DeliveryRecord, GameSpec, GossipPlane,
    InventorBehavior, Party, ReputationConfig, ReputationDecay, ReputationPolicy, ShardStats,
    ShardedAuthority, SimNet, Transport, TransportSite, VerifierBehavior, VersionVector,
    GOSSIP_HUB,
};
use rationality_authority::exact::rat;
use rationality_authority::games::named::{battle_of_the_sexes, prisoners_dilemma, stag_hunt};
use rationality_authority::solvers::ParticipationParams;

/// The campaign seed: `RA_SCENARIO_SEED` when set (CI pins it and echoes
/// it on failure), a fixed default otherwise.
fn scenario_seed() -> u64 {
    std::env::var("RA_SCENARIO_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xDEC0DE)
}

/// A panel with a persistent saboteur, so reputation evolves and panel
/// churn (exclusion) is reachable in every scenario.
fn saboteur_panel() -> [VerifierBehavior; 3] {
    [
        VerifierBehavior::Honest,
        VerifierBehavior::Honest,
        VerifierBehavior::AlwaysReject,
    ]
}

const SABOTEUR: Party = Party::Verifier(2);

fn specs() -> Vec<Arc<GameSpec>> {
    vec![
        Arc::new(GameSpec::Strategic(prisoners_dilemma().to_strategic())),
        Arc::new(GameSpec::Strategic(stag_hunt(3))),
        Arc::new(GameSpec::Bimatrix(battle_of_the_sexes())),
        Arc::new(GameSpec::Participation(ParticipationParams::paper_example())),
        Arc::new(GameSpec::ParallelLinks {
            current_loads: vec![rat(4, 1), rat(0, 1), rat(9, 2)],
            own_load: rat(7, 2),
            expected_future_load: rat(2, 1),
            expected_future_agents: 5,
        }),
    ]
}

fn batch_requests(n: u64) -> Vec<(u64, Arc<GameSpec>)> {
    let specs = specs();
    (0..n)
        .map(|agent| {
            (
                agent,
                Arc::clone(&specs[(agent % specs.len() as u64) as usize]),
            )
        })
        .collect()
}

/// Strips the execution-shape-dependent pool gauge so stats can be
/// compared across engines.
fn comparable(mut stats: ShardStats) -> ShardStats {
    stats.frame_pool_misses = 0;
    stats
}

fn gossip_config(every: usize) -> ReputationConfig {
    ReputationConfig {
        policy: ReputationPolicy::Adaptive {
            every,
            check_every: every,
            burst: 1,
        },
        ..ReputationConfig::default()
    }
}

/// `transport`'s delivery log, checked to be kept and complete: one
/// record per accounted frame, and at least one, so a comparison against
/// it cannot pass by comparing two empty logs.
fn checked_log(transport: &dyn Transport) -> Vec<DeliveryRecord> {
    let log = transport.delivery_log();
    assert_eq!(
        log.len(),
        transport.message_count(),
        "the log records every frame"
    );
    assert!(!log.is_empty(), "the network keeps a delivery log");
    log
}

/// Bytes the hub actually delivered to `shard` as pull frames — the
/// partition scenarios need delivered-only sums, which `bytes_between`
/// (accounted bytes, delivered or not) deliberately does not give.
fn delivered_pull_bytes(transport: &dyn Transport, shard: u64) -> usize {
    checked_log(transport)
        .iter()
        .filter(|r| r.delivered && r.from == GOSSIP_HUB && r.to == Party::Shard(shard))
        .map(|r| r.bytes)
        .sum()
}

fn saboteur_scores(engine: &ShardedAuthority) -> Vec<i64> {
    (0..engine.shard_count())
        .map(|s| engine.with_shard(s, |a| a.reputation().score(SABOTEUR)))
        .collect()
}

// ---------------------------------------------------------------------------
// Byte identity: lossless SimNet engine == Bus engine, end to end.
// ---------------------------------------------------------------------------

/// The tentpole acceptance criterion: an engine whose every network —
/// four session buses and the gossip hub — is a lossless [`SimNet`] is
/// byte-identical to the default [`Bus`] engine across a full mixed
/// batch: same adoption decisions, same per-shard delivery logs, same
/// gossip-plane delivery log, same stats. Every network keeps its log.
#[test]
fn lossless_simnet_engine_is_byte_identical_to_bus_engine() {
    let seed = scenario_seed();
    let requests = batch_requests(64);
    let over_bus = ShardedAuthority::with_transports(
        4,
        InventorBehavior::Honest,
        &saboteur_panel(),
        gossip_config(8),
        CertCacheConfig::default(),
        &|_| Arc::new(Bus::new().with_delivery_log()),
    );
    let over_sim = ShardedAuthority::with_transports(
        4,
        InventorBehavior::Honest,
        &saboteur_panel(),
        gossip_config(8),
        CertCacheConfig::default(),
        &|site| {
            let salt = match site {
                TransportSite::Shard(s) => s as u64,
                TransportSite::GossipHub => u64::MAX,
            };
            Arc::new(SimNet::lossless(seed ^ salt).with_delivery_log()) as Arc<dyn Transport>
        },
    );

    let bus_outcomes = over_bus.consult_batch(&requests);
    let sim_outcomes = over_sim.consult_batch(&requests);
    let decisions = |outcomes: &[rationality_authority::authority::SessionOutcome]| {
        outcomes.iter().map(|o| o.adopted).collect::<Vec<_>>()
    };
    assert_eq!(
        decisions(&bus_outcomes),
        decisions(&sim_outcomes),
        "adoption decisions diverged between Bus and lossless SimNet (seed {seed})"
    );
    assert_eq!(
        comparable(over_bus.shard_stats()),
        comparable(over_sim.shard_stats()),
        "engine stats diverged (seed {seed})"
    );
    for s in 0..4 {
        let bus_log = over_bus.with_shard(s, |a| checked_log(a.bus()));
        let sim_log = over_sim.with_shard(s, |a| checked_log(a.bus()));
        assert_eq!(
            bus_log, sim_log,
            "shard {s} session delivery logs diverged (seed {seed})"
        );
    }
    let bus_gossip = checked_log(over_bus.gossip_bus().expect("gossip engine"));
    let sim_gossip = checked_log(over_sim.gossip_bus().expect("gossip engine"));
    assert_eq!(
        bus_gossip, sim_gossip,
        "gossip-plane delivery logs diverged (seed {seed})"
    );
}

/// Batch == sequential determinism holds over SimNet exactly as it does
/// over the bus (the existing determinism suite's core property, replayed
/// at the trait boundary).
#[test]
fn batch_matches_sequential_over_simnet() {
    let seed = scenario_seed();
    let requests = batch_requests(48);
    let engine_factory = |salt: u64| {
        ShardedAuthority::with_transports(
            4,
            InventorBehavior::Honest,
            &saboteur_panel(),
            gossip_config(8),
            CertCacheConfig::default(),
            &|site| {
                let site_salt = match site {
                    TransportSite::Shard(s) => s as u64,
                    TransportSite::GossipHub => u64::MAX,
                };
                Arc::new(SimNet::lossless(seed ^ salt ^ site_salt)) as Arc<dyn Transport>
            },
        )
    };
    let batched = engine_factory(1);
    let sequential = engine_factory(2);
    let batch_outcomes = batched.consult_batch(&requests);
    let sequential_outcomes: Vec<_> = requests
        .iter()
        .map(|(agent, spec)| sequential.consult(*agent, spec.as_ref()))
        .collect();
    assert_eq!(
        batch_outcomes.iter().map(|o| o.adopted).collect::<Vec<_>>(),
        sequential_outcomes
            .iter()
            .map(|o| o.adopted)
            .collect::<Vec<_>>(),
        "batched and sequential runs diverged over SimNet (seed {seed})"
    );
    assert_eq!(
        comparable(batched.shard_stats()),
        comparable(sequential.shard_stats()),
        "stats diverged between batched and sequential SimNet runs (seed {seed})"
    );
}

// ---------------------------------------------------------------------------
// Partition / heal: gossip exclusion propagates by version-vector
// reconciliation, idle pulls stay free, and no full snapshot is re-shipped.
// ---------------------------------------------------------------------------

#[test]
fn gossip_exclusion_propagates_across_a_healed_partition() {
    let seed = scenario_seed();
    let hub_net = Arc::new(SimNet::lossless(seed).with_delivery_log());
    let hub_for_engine = Arc::clone(&hub_net);
    let engine = ShardedAuthority::with_transports(
        4,
        InventorBehavior::Honest,
        &saboteur_panel(),
        gossip_config(4),
        CertCacheConfig::default(),
        &move |site| match site {
            TransportSite::GossipHub => Arc::clone(&hub_for_engine) as Arc<dyn Transport>,
            TransportSite::Shard(_) => Arc::new(Bus::new()) as Arc<dyn Transport>,
        },
    );
    let spec = GameSpec::Strategic(prisoners_dilemma().to_strategic());
    let hub = engine.gossip_bus().expect("gossip engine");

    // Phase A: healthy cluster, kept short enough that the saboteur is
    // still trusted everywhere (8 dissents against INITIAL_SCORE = 10).
    // Every shard converges on the same — still positive — score.
    for agent in 0..8u64 {
        engine.consult(agent, &spec);
    }
    engine.sync_reputation();
    let converged = saboteur_scores(&engine);
    assert!(
        converged.windows(2).all(|w| w[0] == w[1]),
        "healthy cluster must converge, got {converged:?} (seed {seed})"
    );
    assert!(
        engine.with_shard(0, |a| a.reputation().is_trusted(SABOTEUR)),
        "phase A must leave the saboteur trusted, got {converged:?} (seed {seed})"
    );
    assert!(
        delivered_pull_bytes(hub, 0) > 0,
        "phase A produced pull traffic (seed {seed})"
    );

    // Phase B: cut shard 0 off the hub. Consultations keep landing on the
    // other shards until the saboteur is excluded there; shard 0 sees
    // nothing of it.
    hub_net.drop_link(Party::Shard(0), GOSSIP_HUB);
    hub_net.drop_link(GOSSIP_HUB, Party::Shard(0));
    let mut driven = 0u64;
    for agent in 8..2048u64 {
        if engine.shard_of(agent) != 0 {
            engine.consult(agent, &spec);
            driven += 1;
        }
        if driven >= 24 {
            break;
        }
    }
    engine.sync_reputation();
    let partitioned = saboteur_scores(&engine);
    assert!(
        !engine.with_shard(1, |a| a.reputation().is_trusted(SABOTEUR)),
        "connected shards exclude the saboteur, got {partitioned:?} (seed {seed})"
    );
    assert!(
        engine.with_shard(0, |a| a.reputation().is_trusted(SABOTEUR)),
        "partitioned shard 0 must still hold the stale panel (seed {seed})"
    );

    // During the partition, idle pulls to up-to-date connected shards stay
    // zero-byte, and nothing is delivered to shard 0 at all.
    let idle_before: Vec<usize> = (0..4).map(|s| delivered_pull_bytes(hub, s)).collect();
    engine.sync_reputation();
    let idle_after: Vec<usize> = (0..4).map(|s| delivered_pull_bytes(hub, s)).collect();
    assert_eq!(
        idle_before, idle_after,
        "idle pulls must ship zero bytes during the partition (seed {seed})"
    );

    // Phase C: heal. The next sync reconciles shard 0 through its stalled
    // version vector — it receives exactly the slots it missed, not the
    // full merged snapshot — and adopts the exclusion.
    hub_net.heal();
    let before_heal_pull = delivered_pull_bytes(hub, 0);
    engine.sync_reputation();
    let reconciliation = delivered_pull_bytes(hub, 0) - before_heal_pull;
    assert!(
        reconciliation > 0,
        "the healed shard must receive the missed deltas (seed {seed})"
    );
    let healed = saboteur_scores(&engine);
    assert!(
        healed.windows(2).all(|w| w[0] == w[1]),
        "exclusion must propagate to the healed shard, got {healed:?} (seed {seed})"
    );
    assert!(
        !engine.with_shard(0, |a| a.reputation().is_trusted(SABOTEUR)),
        "shard 0 must exclude the saboteur after reconciliation (seed {seed})"
    );
}

#[test]
fn shard_failure_and_rejoin_recovers_watermarks() {
    let seed = scenario_seed();
    let hub_net = Arc::new(SimNet::lossless(seed ^ 0xF417).with_delivery_log());
    let hub_for_engine = Arc::clone(&hub_net);
    let engine = ShardedAuthority::with_transports(
        4,
        InventorBehavior::Honest,
        &saboteur_panel(),
        gossip_config(4),
        CertCacheConfig::default(),
        &move |site| match site {
            TransportSite::GossipHub => Arc::clone(&hub_for_engine) as Arc<dyn Transport>,
            TransportSite::Shard(_) => Arc::new(Bus::new()) as Arc<dyn Transport>,
        },
    );
    let spec = GameSpec::Strategic(prisoners_dilemma().to_strategic());
    let hub = engine.gossip_bus().expect("gossip engine");

    // Short healthy phase: every shard converges, saboteur still trusted.
    for agent in 0..8u64 {
        engine.consult(agent, &spec);
    }
    engine.sync_reputation();

    // "Fail" shard 2's gossip uplink in both directions: its publishes
    // are lost and its pulls never arrive — the watermark stalls. Traffic
    // is steered away from shard 2, so everything it should know about
    // the saboteur's slide to exclusion happens elsewhere.
    hub.drop_link(Party::Shard(2), GOSSIP_HUB);
    hub.drop_link(GOSSIP_HUB, Party::Shard(2));
    let mut driven = 0u64;
    for agent in 8..2048u64 {
        if engine.shard_of(agent) != 2 {
            engine.consult(agent, &spec);
            driven += 1;
        }
        if driven >= 24 {
            break;
        }
    }
    engine.sync_reputation();
    let during = saboteur_scores(&engine);
    assert_ne!(
        during[2], during[1],
        "the failed shard must fall behind while cut off (seed {seed})"
    );

    // Rejoin: heal the links and sync. The shard re-publishes its full
    // replica slice (publishes are idempotent joins) and its stalled
    // watermark pulls everything it missed.
    hub.heal();
    engine.sync_reputation();
    let after = saboteur_scores(&engine);
    assert!(
        after.windows(2).all(|w| w[0] == w[1]),
        "rejoin must restore convergence, got {after:?} (seed {seed})"
    );

    // Watermarks are fully recovered: one more sync is an idle sync, and
    // idle pulls ship zero bytes to every shard.
    let idle_before: Vec<usize> = (0..4).map(|s| delivered_pull_bytes(hub, s)).collect();
    engine.sync_reputation();
    let idle_after: Vec<usize> = (0..4).map(|s| delivered_pull_bytes(hub, s)).collect();
    assert_eq!(
        idle_before, idle_after,
        "recovered watermarks make the next sync free (seed {seed})"
    );
}

/// The precise half of the reconciliation guarantee, measured at the
/// plane level: after a heal, a stalled shard's pull ships exactly the
/// version-vector slots it missed — more than nothing, but strictly less
/// than the full-snapshot pull a fresh (empty-watermark) shard needs for
/// the same hub state.
#[test]
fn healed_partition_reconciliation_ships_only_unseen_slots() {
    let seed = scenario_seed();
    let net = Arc::new(SimNet::lossless(seed ^ 0x5107).with_delivery_log());
    let plane = GossipPlane::over_transport_with(
        ReputationDecay::None,
        Arc::clone(&net) as Arc<dyn Transport>,
    );

    let mut states: Vec<DecayingPnCounterMap> =
        (0..3).map(|_| DecayingPnCounterMap::new()).collect();
    let mut seens: Vec<VersionVector> = (0..3).map(|_| VersionVector::new()).collect();

    // Phase A: every shard records one observation, publishes its replica
    // slice, and pulls — the cluster converges and watermarks advance.
    for shard in 0..3u64 {
        let s = shard as usize;
        states[s].record(shard, Party::Verifier(shard), true);
        plane.publish_from(shard, states[s].replica_slice(shard));
    }
    for shard in 0..3u64 {
        let s = shard as usize;
        plane.pull_into(shard, &mut states[s], &mut seens[s]);
    }

    // Phase B: shard 2 loses the hub. Shards 0 and 1 keep recording
    // genuinely new slots (new verifiers) and publishing them.
    net.drop_link(Party::Shard(2), GOSSIP_HUB);
    net.drop_link(GOSSIP_HUB, Party::Shard(2));
    for round in 0..4u64 {
        for shard in 0..2u64 {
            let s = shard as usize;
            states[s].record(
                shard,
                Party::Verifier(10 + round * 2 + shard),
                round % 2 == 0,
            );
            plane.publish_from(shard, states[s].replica_slice(shard));
        }
    }
    // The partitioned shard's pull frame is accounted but dropped: no
    // delivered bytes, and — critically — the watermark stays put, so the
    // missed delta is still owed.
    let dropped_watermark = seens[2].clone();
    let before = delivered_pull_bytes(&*net, 2);
    plane.pull_into(2, &mut states[2], &mut seens[2]);
    assert_eq!(
        delivered_pull_bytes(&*net, 2),
        before,
        "a partitioned pull must deliver nothing (seed {seed})"
    );
    assert_eq!(
        seens[2], dropped_watermark,
        "a dropped pull frame must leave the watermark untouched (seed {seed})"
    );

    // Heal: the reconciliation pull ships only the slots shard 2 missed.
    net.heal();
    plane.pull_into(2, &mut states[2], &mut seens[2]);
    let reconciliation = delivered_pull_bytes(&*net, 2) - before;
    assert!(
        reconciliation > 0,
        "reconciliation must ship the missed slots (seed {seed})"
    );

    // A fresh shard with an empty watermark needs the full snapshot —
    // strictly more bytes than the incremental reconciliation.
    let mut fresh_state = DecayingPnCounterMap::new();
    let mut fresh_seen = VersionVector::new();
    plane.pull_into(9, &mut fresh_state, &mut fresh_seen);
    let full_snapshot = delivered_pull_bytes(&*net, 9);
    assert!(
        reconciliation < full_snapshot,
        "reconciliation ({reconciliation} B) must be strictly smaller than a \
         full-snapshot pull ({full_snapshot} B) (seed {seed})"
    );

    // The healed shard converged to exactly the fresh shard's view.
    for verifier in (0..3).chain(10..18).map(Party::Verifier) {
        assert_eq!(
            states[2].value(verifier),
            fresh_state.value(verifier),
            "healed and fresh shards must agree on {verifier:?} (seed {seed})"
        );
    }

    // And now that the watermark is recovered, the next pull is free.
    let after = delivered_pull_bytes(&*net, 2);
    plane.pull_into(2, &mut states[2], &mut seens[2]);
    assert_eq!(
        delivered_pull_bytes(&*net, 2),
        after,
        "an up-to-date pull after reconciliation must ship zero bytes (seed {seed})"
    );
}

// ---------------------------------------------------------------------------
// Certificate-cache soundness when panel changes race message loss.
// ---------------------------------------------------------------------------

/// Under a lossy gossip plane, shards learn of the saboteur's exclusion
/// at different times. The certificate cache must never let a stale
/// cached consultation resurrect an excluded verifier: once a shard's
/// panel has dropped the saboteur, no consultation served by that shard —
/// cached or fresh — may carry a saboteur verdict.
#[test]
fn replay_cache_stays_sound_when_panel_churn_races_loss() {
    let seed = scenario_seed();
    let engine = ShardedAuthority::with_transports(
        2,
        InventorBehavior::Honest,
        &saboteur_panel(),
        gossip_config(2),
        CertCacheConfig::replay(256),
        &|site| match site {
            TransportSite::GossipHub => {
                // 40% gossip loss: exclusion news reaches the shards
                // erratically, racing the cached entries' panels.
                let net = SimNet::lossless(seed ^ 0xCAFE);
                net.set_link(
                    GOSSIP_HUB,
                    Party::Shard(0),
                    rationality_authority::authority::LinkProfile::lossy(0.4),
                );
                net.set_link(
                    GOSSIP_HUB,
                    Party::Shard(1),
                    rationality_authority::authority::LinkProfile::lossy(0.4),
                );
                Arc::new(net) as Arc<dyn Transport>
            }
            TransportSite::Shard(_) => Arc::new(Bus::new()) as Arc<dyn Transport>,
        },
    );
    let spec = GameSpec::Strategic(prisoners_dilemma().to_strategic());
    // A family of pairwise-distinct specs, so phase B's consultations all
    // miss the cache and run the full protocol — each one a fresh dissent
    // pushing the saboteur towards exclusion.
    let fresh_spec = |i: u64| GameSpec::ParallelLinks {
        current_loads: vec![rat((i % 5) as i64, 1), rat(((i / 5) % 7) as i64, 2)],
        own_load: rat((i % 3) as i64 + 1, 1),
        expected_future_load: rat(2, 1),
        expected_future_agents: 3 + (i % 4) as usize,
    };

    // Phase A: prime the cache with one spec while the panel is intact.
    // The cached entry remembers the pre-exclusion panel that voted.
    for agent in 0..16u64 {
        assert!(
            engine.consult(agent, &spec).adopted,
            "honest advice adopted (seed {seed})"
        );
    }
    // Phase B: distinct specs force full protocol runs; the saboteur's
    // dissents accumulate while lossy gossip spreads the news erratically.
    for agent in 16..80u64 {
        engine.consult(agent, &fresh_spec(agent));
    }
    engine.sync_reputation();
    // Phase C: the primed spec again, now against a changed panel. A hit
    // minted by another panel must be invalidated (`stale`) and re-run:
    // every cached outcome's voters are the serving shard's trusted
    // panel, and no consultation on a shard that has excluded the
    // saboteur may carry its verdict.
    let mut served_warm = 0;
    for agent in 80..112u64 {
        let shard = engine.shard_of(agent);
        let excluded_before = !engine.with_shard(shard, |a| a.reputation().is_trusted(SABOTEUR));
        let trusted = engine.with_shard(shard, |a| a.trusted_verifiers());
        let outcome = engine.consult(agent, &spec);
        if outcome.cached {
            served_warm += 1;
            let voters: Vec<Party> = outcome.verdict_details.iter().map(|d| d.0).collect();
            assert_eq!(
                voters, trusted,
                "agent {agent} on shard {shard} was served another panel's vote (seed {seed})"
            );
        }
        if excluded_before {
            assert!(
                !outcome
                    .verdict_details
                    .iter()
                    .any(|(party, _, _)| *party == SABOTEUR),
                "agent {agent} on shard {shard} saw an excluded verifier's \
                 verdict (cached: {}) (seed {seed})",
                outcome.cached
            );
        }
        assert!(outcome.adopted, "honest advice adopted (seed {seed})");
    }

    assert!(
        served_warm > 0,
        "phase C must serve hits to check their panels (seed {seed})"
    );
    let stats = engine.cache_stats();
    assert!(
        stats.hits > 0,
        "the campaign must actually exercise the cache (seed {seed}, {stats:?})"
    );
    assert!(
        stats.stale > 0,
        "panel churn must invalidate stale entries (seed {seed}, {stats:?})"
    );
    let hub = engine.gossip_bus().expect("gossip engine");
    assert!(
        hub.delivered_bytes() < hub.total_bytes(),
        "the lossy plane must actually drop gossip frames (seed {seed})"
    );
    assert!(
        !engine.with_shard(0, |a| a.reputation().is_trusted(SABOTEUR))
            || !engine.with_shard(1, |a| a.reputation().is_trusted(SABOTEUR)),
        "phase B's dissents must exclude the saboteur somewhere (seed {seed})"
    );
}

// ---------------------------------------------------------------------------
// Scripted schedules and seed determinism.
// ---------------------------------------------------------------------------

/// A scripted partition/heal schedule fires as the virtual clock crosses
/// its timestamps, without any manual split/heal calls.
#[test]
fn scripted_schedule_drives_partition_and_heal() {
    use rationality_authority::authority::{LinkProfile, NetEvent, SimNetConfig};
    let seed = scenario_seed();
    let a = Party::Agent(1);
    let b = Party::Agent(2);
    let net = SimNet::new(SimNetConfig {
        seed,
        default_link: LinkProfile::with_latency(10, 10),
        schedule: vec![
            NetEvent::Split {
                at: 50,
                left: vec![a],
                right: vec![b],
            },
            NetEvent::Heal { at: 100 },
        ],
    });
    net.register(a);
    let ep = net.register(b);
    let msg = |g| rationality_authority::authority::Message::AdviceRequest { game_id: g };

    net.send(a, b, msg(1)).unwrap();
    net.settle();
    assert_eq!(ep.drain().len(), 1, "pre-split delivery (seed {seed})");

    net.advance_to(60);
    net.send(a, b, msg(2)).unwrap();
    net.settle();
    assert!(
        ep.try_recv().is_none(),
        "the scripted split must cut the link (seed {seed})"
    );

    net.advance_to(120);
    net.send(a, b, msg(3)).unwrap();
    net.settle();
    assert_eq!(ep.drain().len(), 1, "post-heal delivery (seed {seed})");
    assert!(net.delivered_bytes() < net.total_bytes());
}

/// Replaying the lossy cache campaign with the same seed produces the
/// same gossip delivery log; a different seed produces a different one.
/// This is the property that makes `RA_SCENARIO_SEED` a replay handle.
#[test]
fn lossy_campaign_is_seed_deterministic() {
    let run = |seed: u64| {
        let engine = ShardedAuthority::with_transports(
            2,
            InventorBehavior::Honest,
            &saboteur_panel(),
            gossip_config(2),
            CertCacheConfig::default(),
            &|site| match site {
                TransportSite::GossipHub => {
                    let net = SimNet::new(rationality_authority::authority::SimNetConfig {
                        seed,
                        default_link: rationality_authority::authority::LinkProfile::lossy(0.3),
                        ..Default::default()
                    })
                    .with_delivery_log();
                    Arc::new(net) as Arc<dyn Transport>
                }
                TransportSite::Shard(_) => Arc::new(Bus::new()) as Arc<dyn Transport>,
            },
        );
        let spec = GameSpec::Strategic(prisoners_dilemma().to_strategic());
        for agent in 0..48u64 {
            engine.consult(agent, &spec);
        }
        engine.sync_reputation();
        let hub = engine.gossip_bus().expect("gossip engine");
        (checked_log(hub), saboteur_scores(&engine))
    };
    let seed = scenario_seed();
    assert_eq!(
        run(seed),
        run(seed),
        "same seed must replay identically (seed {seed})"
    );
    assert_ne!(
        run(seed).0,
        run(seed ^ 1).0,
        "different seeds must sample different fates (seed {seed})"
    );
}

// ---------------------------------------------------------------------------
// Session resilience: degraded closes, and silence that costs nothing.
// ---------------------------------------------------------------------------

/// A scripted partition cuts one verifier off mid-session; the resilient
/// consult retries until its budget is spent, closes degraded (the two
/// live verdicts decide the panel of three) without charging the cut
/// verifier, and — once the partition heals after the deadline — the next consult
/// closes full again on the same network.
#[test]
fn midsession_partition_degrades_then_heals_to_full() {
    use rationality_authority::authority::{
        Inventor, LinkProfile, LocalReputation, NetEvent, PanelOutcome, RationalityAuthority,
        ResilienceConfig, SimNetConfig, INITIAL_SCORE,
    };
    let seed = scenario_seed();
    let agent = Party::Agent(0);
    let cut = Party::Verifier(2);
    // Exact 2-tick links make the session's schedule predictable: the
    // advice stage completes around tick 4, so a split at tick 5 lands
    // squarely inside the panel stage — a genuinely mid-session cut.
    let net = Arc::new(SimNet::new(SimNetConfig {
        seed,
        default_link: LinkProfile::with_latency(2, 2),
        schedule: vec![NetEvent::Split {
            at: 5,
            left: vec![agent],
            right: vec![cut],
        }],
    }));
    let mut authority = RationalityAuthority::with_transport(
        Inventor::new(0, InventorBehavior::Honest),
        &[VerifierBehavior::Honest; 3],
        Arc::new(LocalReputation::new()),
        Arc::clone(&net) as Arc<dyn Transport>,
    );
    authority.set_resilience(Some(ResilienceConfig {
        deadline: 512,
        quorum: 2,
        max_attempts: 4,
        ..ResilienceConfig::default()
    }));
    let spec = GameSpec::Strategic(prisoners_dilemma().to_strategic());
    let degraded = authority
        .try_consult(0, &spec)
        .unwrap_or_else(|e| panic!("quorum of 2 was reachable ({e}, seed {seed})"));
    assert!(degraded.adopted, "seed {seed}");
    assert_eq!(
        degraded.panel,
        PanelOutcome::Degraded { missing: vec![cut] },
        "seed {seed}"
    );
    assert!(
        degraded.attempts > 0,
        "the cut forced retries (seed {seed})"
    );
    assert!(
        authority.bus().retransmit_bytes() > 0,
        "retries billed as retransmit bytes (seed {seed})"
    );
    assert_eq!(
        authority.reputation().score(cut),
        INITIAL_SCORE,
        "silence is not evidence, so the cut verifier is not charged (seed {seed})"
    );
    // The partition outlived the session's whole deadline budget; heal it
    // and the very next consult closes full on the same transport.
    net.heal();
    let healed = authority
        .try_consult(0, &spec)
        .unwrap_or_else(|e| panic!("healed network completes ({e}, seed {seed})"));
    assert_eq!(healed.panel, PanelOutcome::Full, "seed {seed}");
    assert_eq!(healed.verdict_details.len(), 3, "seed {seed}");
    assert!(healed.adopted, "seed {seed}");
}

/// Persistent unresponsiveness is not a trust event. The name records
/// the behaviour this test once pinned: a verifier that stopped answering
/// was bled one point per degraded close until excluded. Silence is not
/// evidence — the network may be at fault — so the dark verifier stays
/// trusted, the panel version never moves, and entries minted under the
/// healthy panel keep hitting. The panel guard itself is exercised by
/// `replay_cache_stays_sound_when_panel_churn_races_loss`.
#[test]
fn unresponsive_verifier_excluded_and_replay_cache_invalidated() {
    use rationality_authority::authority::{
        CertCache, Inventor, PanelOutcome, RationalityAuthority, ResilienceConfig, INITIAL_SCORE,
    };
    let seed = scenario_seed();
    let primed = GameSpec::Strategic(prisoners_dilemma().to_strategic());
    let churn = GameSpec::Bimatrix(battle_of_the_sexes());
    let silent = Party::Verifier(2);
    let mut authority = RationalityAuthority::new(
        Inventor::new(0, InventorBehavior::Honest),
        &[VerifierBehavior::Honest; 3],
    );
    authority.set_cert_cache(Arc::new(CertCache::new(CertCacheConfig::replay(64))));
    authority.set_resilience(Some(ResilienceConfig {
        quorum: 2,
        max_attempts: 2,
        ..ResilienceConfig::default()
    }));
    // Prime under the full, healthy panel.
    let cold = authority.try_consult(0, &primed).expect("healthy panel");
    assert_eq!(cold.panel, PanelOutcome::Full, "seed {seed}");
    // The verifier goes dark: every churn consult closes degraded, is
    // decided by the two live verifiers, and is never memoized.
    authority.bus().drop_link(Party::Agent(0), silent);
    let version_before = authority.reputation().snapshot().panel_version();
    let score_before = authority.reputation().score(silent);
    for _ in 0..2 * INITIAL_SCORE {
        let outcome = authority
            .try_consult(0, &churn)
            .expect("quorum of 2 still met");
        assert!(outcome.adopted, "seed {seed}");
        assert!(!outcome.cached, "seed {seed}");
        assert_eq!(
            outcome.panel,
            PanelOutcome::Degraded {
                missing: vec![silent]
            },
            "seed {seed}"
        );
    }
    assert_eq!(
        authority.reputation().score(silent),
        score_before,
        "silence costs nothing (seed {seed})"
    );
    assert_eq!(
        authority.reputation().snapshot().panel_version(),
        version_before,
        "the panel never changed (seed {seed})"
    );
    // The primed entry was minted under this very panel, so it still hits.
    let probe = authority.try_consult(0, &primed).expect("warm");
    assert!(
        probe.cached,
        "an unchanged panel keeps hitting (seed {seed})"
    );
    assert_eq!(probe.verdict_details.len(), 3, "seed {seed}");
    let stats = authority.cert_cache().expect("cache attached").stats();
    assert_eq!(stats.stale, 0, "no panel-guard miss (seed {seed})");
}

// ---------------------------------------------------------------------------
// Soundness under cut links: adopt only on a majority of the whole trusted
// panel, and never charge a verifier for silence.
// ---------------------------------------------------------------------------

/// A rubber-stamper beside two honest verifiers, the agent's request links
/// to both honest verifiers cut, and a corrupt inventor: the one voice
/// that arrives is the bought one.
fn cut_off_honest_majority(
    inventor: InventorBehavior,
) -> rationality_authority::authority::RationalityAuthority {
    use rationality_authority::authority::{Inventor, RationalityAuthority};
    let authority = RationalityAuthority::new(
        Inventor::new(0, inventor),
        &[
            VerifierBehavior::AlwaysAccept,
            VerifierBehavior::Honest,
            VerifierBehavior::Honest,
        ],
    );
    for verifier in [Party::Verifier(1), Party::Verifier(2)] {
        authority.bus().drop_link(Party::Agent(0), verifier);
    }
    authority
}

/// Asserts that every listed verifier is trusted at its initial score.
fn assert_uncharged(
    authority: &rationality_authority::authority::RationalityAuthority,
    honest: &[Party],
) {
    for &verifier in honest {
        assert_eq!(
            authority.reputation().score(verifier),
            rationality_authority::authority::INITIAL_SCORE,
            "{verifier:?} was charged"
        );
    }
}

/// The default budget refuses the rubber-stamper's lone accept: one voice
/// of three decides nothing, so the consult is undecided, not adopted.
#[test]
fn cut_links_never_pass_corrupt_advice_under_the_default_budget() {
    use rationality_authority::authority::{kernel_check, PanelOutcome};
    let spec = GameSpec::Strategic(prisoners_dilemma().to_strategic());
    let mut authority = cut_off_honest_majority(InventorBehavior::Corrupt);
    authority.set_resilience(None);
    let outcome = authority.consult(0, &spec);
    let advice = outcome.advice.as_ref().expect("the inventor answered");
    assert!(!kernel_check(&spec, advice).0, "the advice is corrupt");
    assert!(!outcome.adopted, "a lone rubber stamp is not a majority");
    assert_eq!(outcome.majority, None);
    assert_eq!(
        outcome.panel,
        PanelOutcome::Undecided {
            missing: vec![Party::Verifier(1), Party::Verifier(2)]
        }
    );
    assert_uncharged(&authority, &[Party::Verifier(1), Party::Verifier(2)]);
}

/// The same cut under a caller-set default budget is a typed deadline:
/// the retries never reach the honest verifiers, and nothing is adopted.
#[test]
fn cut_links_never_pass_corrupt_advice_under_a_caller_budget() {
    use rationality_authority::authority::{ConsultError, ConsultStage, ResilienceConfig};
    let spec = GameSpec::Strategic(prisoners_dilemma().to_strategic());
    let mut authority = cut_off_honest_majority(InventorBehavior::Corrupt);
    authority.set_resilience(Some(ResilienceConfig::default()));
    let ConsultError::Deadline {
        stage,
        received,
        missing,
        ..
    } = authority
        .try_consult(0, &spec)
        .expect_err("undecided under a caller budget");
    assert_eq!((stage, received), (ConsultStage::Panel, 1));
    assert_eq!(missing, vec![Party::Verifier(1), Party::Verifier(2)]);
    assert_uncharged(&authority, &[Party::Verifier(1), Party::Verifier(2)]);
}

/// A network adversary cannot talk an honest majority out of the panel:
/// ten consults with both honest verifiers cut off charge nobody, and
/// once the links heal all three verifiers vote again.
#[test]
fn cut_links_never_exclude_the_silent_honest_majority() {
    use rationality_authority::authority::ResilienceConfig;
    let spec = GameSpec::Strategic(prisoners_dilemma().to_strategic());
    let mut authority = cut_off_honest_majority(InventorBehavior::Honest);
    authority.set_resilience(Some(ResilienceConfig::default()));
    for _ in 0..10 {
        assert!(authority.try_consult(0, &spec).is_err());
    }
    let honest = [Party::Verifier(1), Party::Verifier(2)];
    assert!(honest.iter().all(|&v| authority.reputation().is_trusted(v)));
    assert_uncharged(&authority, &honest);
    let all = vec![Party::Verifier(0), Party::Verifier(1), Party::Verifier(2)];
    assert_eq!(
        authority.trusted_verifiers(),
        all,
        "never pooled, still trusted"
    );
    authority.bus().heal();
    let outcome = authority.try_consult(0, &spec).expect("healed links");
    assert!(outcome.adopted);
    assert_eq!(authority.trusted_verifiers(), all);
}

/// One trusted set: an honest panel whose V1 and V2 are cut off for ten
/// default-budget consults is never pooled, and every member stays in
/// the trusted read that the next consult's panel is built from.
#[test]
fn never_pooled_verifiers_stay_in_the_trusted_set() {
    use rationality_authority::authority::{Inventor, PanelOutcome, RationalityAuthority};
    let spec = GameSpec::Strategic(prisoners_dilemma().to_strategic());
    let mut authority = RationalityAuthority::new(
        Inventor::new(0, InventorBehavior::Honest),
        &[VerifierBehavior::Honest; 3],
    );
    for verifier in [Party::Verifier(1), Party::Verifier(2)] {
        authority.bus().drop_link(Party::Agent(0), verifier);
    }
    for _ in 0..10 {
        let outcome = authority.consult(0, &spec);
        assert!(matches!(outcome.panel, PanelOutcome::Undecided { .. }));
    }
    assert_eq!(
        authority.trusted_verifiers(),
        vec![Party::Verifier(0), Party::Verifier(1), Party::Verifier(2)]
    );
}

/// A majority quorum is not a majority of the panel: five verifiers, two
/// of them bought, quorum 3, and two honest verifiers cut off. The 2:1
/// vote that arrives could be swung by the two silent votes, so it is
/// undecided.
#[test]
fn a_quorum_of_three_cannot_adopt_on_a_two_to_one_vote() {
    use rationality_authority::authority::{
        ConsultError, Inventor, RationalityAuthority, ResilienceConfig,
    };
    let spec = GameSpec::Strategic(prisoners_dilemma().to_strategic());
    let mut authority = RationalityAuthority::new(
        Inventor::new(0, InventorBehavior::Corrupt),
        &[
            VerifierBehavior::AlwaysAccept,
            VerifierBehavior::AlwaysAccept,
            VerifierBehavior::Honest,
            VerifierBehavior::Honest,
            VerifierBehavior::Honest,
        ],
    );
    authority.set_resilience(Some(ResilienceConfig {
        quorum: 3,
        ..ResilienceConfig::default()
    }));
    let cut = [Party::Verifier(3), Party::Verifier(4)];
    for verifier in cut {
        authority.bus().drop_link(Party::Agent(0), verifier);
    }
    let ConsultError::Deadline {
        received,
        quorum,
        missing,
        ..
    } = authority
        .try_consult(0, &spec)
        .expect_err("a 2:1 vote with two silent is undecided");
    assert_eq!((received, quorum), (3, 3));
    assert_eq!(missing, cut.to_vec());
    assert_uncharged(
        &authority,
        &[Party::Verifier(2), Party::Verifier(3), Party::Verifier(4)],
    );
}

/// The default budget is as deterministic as a caller-set one: over lossy
/// links with some agents cut off from one or two verifiers, a sharded
/// batch equals sequential consults outcome for outcome and byte for
/// byte, and neither `consult` nor `consult_batch` panics on an
/// undecided close.
#[test]
fn default_budget_batches_match_sequential_over_cut_lossy_links() {
    use rationality_authority::authority::{
        ConsultResult, LinkProfile, PanelOutcome, SessionOutcome, SimNetConfig,
    };
    let seed = scenario_seed();
    let requests = batch_requests(48);
    let build = || {
        let engine = ShardedAuthority::with_transports(
            2,
            InventorBehavior::Honest,
            &saboteur_panel(),
            ReputationConfig::default(),
            CertCacheConfig::default(),
            &|site| {
                let salt = match site {
                    TransportSite::Shard(s) => s as u64,
                    TransportSite::GossipHub => u64::MAX,
                };
                Arc::new(SimNet::new(SimNetConfig {
                    seed: seed ^ salt,
                    default_link: LinkProfile::lossy(0.2),
                    ..SimNetConfig::default()
                })) as Arc<dyn Transport>
            },
        );
        engine.set_resilience(None);
        for (agent, _) in &requests {
            let cut: &[u64] = match agent % 4 {
                0 => &[0],
                1 => &[0, 1],
                _ => &[],
            };
            for &v in cut {
                engine.with_shard(engine.shard_of(*agent), |a| {
                    a.bus().drop_link(Party::Agent(*agent), Party::Verifier(v))
                });
            }
        }
        engine
    };
    let (batched, sequential) = (build(), build());
    let from_batch = batched.try_consult_batch(&requests);
    let from_seq: Vec<ConsultResult> = requests
        .iter()
        .map(|(agent, spec)| sequential.try_consult(*agent, spec))
        .collect();
    let same = |b: &SessionOutcome, s: &SessionOutcome| {
        assert_eq!(b.adopted, s.adopted, "seed {seed}");
        assert_eq!(b.majority, s.majority, "seed {seed}");
        assert_eq!(b.session_bytes, s.session_bytes, "seed {seed}");
        assert_eq!(b.attempts, s.attempts, "seed {seed}");
        assert_eq!(b.panel, s.panel, "seed {seed}");
    };
    let mut undecided = 0;
    for (b, s) in from_batch.iter().zip(&from_seq) {
        let (b, s) = (
            b.as_ref().expect("the default budget never errors"),
            s.as_ref().expect("the default budget never errors"),
        );
        same(b, s);
        if matches!(b.panel, PanelOutcome::Undecided { .. }) {
            assert!(!b.adopted, "seed {seed}");
            undecided += 1;
        }
    }
    assert!(
        undecided > 0,
        "the cuts leave some votes undecided (seed {seed})"
    );
    assert_eq!(
        comparable(batched.shard_stats()),
        comparable(sequential.shard_stats()),
        "seed {seed}"
    );
    // The panicking entry points return the same outcomes.
    let (batched, sequential) = (build(), build());
    let from_batch = batched.consult_batch(&requests);
    for ((agent, spec), b) in requests.iter().zip(&from_batch) {
        same(b, &sequential.consult(*agent, spec));
    }
}

// ---------------------------------------------------------------------------
// §4 P2 on the consult stages: the advice, then one Query stage per Fig. 4
// membership query, with an unanswered query unknown, never "out".
// ---------------------------------------------------------------------------

mod p2 {
    use super::exhaustive::LossScript;
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rationality_authority::authority::{
        ConsultError, ConsultStage, Inventor, LinkProfile, LocalReputation, Message,
        PrivateOutcome, RationalityAuthority, ResilienceConfig, SimNetConfig, Wire,
    };
    use rationality_authority::games::{BimatrixGame, GameGenerator};
    use rationality_authority::proofs::{
        honest_row_advice, verify_private_advice, HonestOracle, LyingOracle, P2Config, P2Outcome,
        SupportOracle, TranscriptEvent,
    };
    use rationality_authority::solvers::find_one_equilibrium;

    const INVENTOR: Party = Party::Inventor(0);
    const AGENT: Party = Party::Agent(0);

    /// An authority with no verifier panel whose inventor proves P2
    /// claims over `transport`.
    pub(super) fn p2_authority(
        inventor: InventorBehavior,
        transport: Arc<dyn Transport>,
    ) -> RationalityAuthority {
        RationalityAuthority::with_transport(
            Inventor::new(0, inventor),
            &[],
            Arc::new(LocalReputation::new()),
            transport,
        )
    }

    pub(super) fn p2_config(required_conclusive: u64, max_queries: u64) -> P2Config {
        P2Config {
            required_conclusive,
            max_queries,
        }
    }

    /// The random 5×5 game of the `wire_protocol` example.
    pub(super) fn five_by_five() -> BimatrixGame {
        GameGenerator::seeded(4242).bimatrix(5, 5, -30..=30)
    }

    /// A 2×3 game whose unique mixed equilibrium leaves column 2 strictly
    /// outside the support, so membership lies about it are detectable.
    pub(super) fn dominated_column_game() -> BimatrixGame {
        BimatrixGame::from_i64_tables(&[&[2, 0, 0], &[0, 1, 0]], &[&[1, 0, -1], &[0, 2, -1]])
    }

    /// Bytes the inventor put on the wire for the agent's oracle answers:
    /// everything it sent the agent but the advice frame.
    fn opponent_answer_bytes(authority: &RationalityAuthority, outcome: &PrivateOutcome) -> usize {
        authority.bus().bytes_between(INVENTOR, AGENT) - outcome.advice_bytes
    }

    /// Runs one P2 consult of agent 0 under `seed` and `config` on a fresh
    /// authority over a logged lossless [`Bus`], runs the local Fig. 4
    /// verifier on the honest row advice for `game` with `oracle` under the
    /// same seed, and asserts the consult reached the same verdict by the
    /// same transcript. Its frames must be the transcript's exactly: one
    /// advice request and one advice frame, then one query frame out and
    /// one answer frame back per query, each first attempt travelling bare.
    pub(super) fn assert_matches_local(
        inventor: InventorBehavior,
        game: &BimatrixGame,
        oracle: &mut dyn SupportOracle,
        seed: u64,
        config: P2Config,
    ) -> (RationalityAuthority, PrivateOutcome) {
        let mut authority = p2_authority(inventor, Arc::new(Bus::new().with_delivery_log()));
        let mut rng = StdRng::seed_from_u64(seed);
        let outcome = authority
            .try_consult_private(0, game, &config, &mut rng)
            .expect("a lossless bus answers every query");
        let advice = honest_row_advice(game, &find_one_equilibrium(game).unwrap().profile);
        let mut rng = StdRng::seed_from_u64(seed);
        let local = verify_private_advice(game, &advice, oracle, &mut rng, &config);
        assert_eq!(outcome.verdict.as_ref(), Some(&local), "seed {seed}");
        assert_eq!(outcome.advice.as_ref(), Some(&advice), "seed {seed}");
        assert_eq!(outcome.adopted, local.is_accepted(), "seed {seed}");
        assert_eq!(outcome.attempts, 0, "seed {seed}");
        let (mut asked, mut answered) = (Message::AdviceRequest { game_id: 1 }.encoded_len(), 0);
        let mut events = local.transcript().events().iter();
        while let Some(event) = events.next() {
            if let TranscriptEvent::Query { index, .. } = *event {
                let Some(TranscriptEvent::Answer {
                    in_support: Some(in_support),
                }) = events.next()
                else {
                    panic!("every query is answered on a lossless bus (seed {seed})");
                };
                asked += Message::SupportQuery { game_id: 1, index }.encoded_len();
                answered += Message::SupportAnswer {
                    game_id: 1,
                    index,
                    in_support: *in_support,
                }
                .encoded_len();
            }
        }
        let bus = authority.bus();
        assert_eq!(bus.bytes_between(AGENT, INVENTOR), asked, "seed {seed}");
        assert_eq!(opponent_answer_bytes(&authority, &outcome), answered);
        assert_eq!(
            outcome.session_bytes,
            asked + outcome.advice_bytes + answered
        );
        assert_eq!(bus.total_bytes(), outcome.session_bytes, "seed {seed}");
        (authority, outcome)
    }

    fn queries(outcome: &PrivateOutcome) -> u64 {
        outcome
            .verdict
            .as_ref()
            .map_or(0, |v| v.transcript().num_queries())
    }

    #[test]
    fn honest_p2_session_accepts() {
        let game = battle_of_the_sexes();
        let support = find_one_equilibrium(&game).unwrap().col_support;
        let mut oracle = HonestOracle::new(support);
        let (authority, outcome) = assert_matches_local(
            InventorBehavior::Honest,
            &game,
            &mut oracle,
            1,
            p2_config(3, 100),
        );
        assert!(outcome.adopted, "{:?}", outcome.verdict);
        assert!(queries(&outcome) >= 6);
        // Opponent-revealing traffic is a small fraction of the session,
        // and every one of those bytes frames exactly one membership bit.
        assert!(opponent_answer_bytes(&authority, &outcome) < outcome.session_bytes);
    }

    #[test]
    fn lying_prover_wrong_lambda_detected_via_wire() {
        // A corrupt prover inverts every membership answer. With full
        // support that is only inconclusive, so use a game with a dominated
        // column, whose false "in" answer exposes the lie.
        let game = dominated_column_game();
        let support = find_one_equilibrium(&game).unwrap().col_support;
        let mut rejections = 0;
        for seed in 0..20 {
            // The local lying oracle over all columns, under the same seed,
            // must agree.
            let mut oracle = LyingOracle::new(support.clone(), 0..game.cols());
            let (_, outcome) = assert_matches_local(
                InventorBehavior::Corrupt,
                &game,
                &mut oracle,
                seed,
                p2_config(3, 200),
            );
            if matches!(outcome.verdict, Some(P2Outcome::Rejected { .. })) {
                rejections += 1;
            }
            assert!(!outcome.adopted, "seed {seed}");
        }
        assert!(
            rejections >= 15,
            "lying prover caught in {rejections}/20 sessions"
        );
    }

    #[test]
    fn session_is_deterministic_per_seed() {
        let game = battle_of_the_sexes();
        let run = |seed: u64| {
            let mut authority = p2_authority(InventorBehavior::Honest, Arc::new(Bus::new()));
            let mut rng = StdRng::seed_from_u64(seed);
            let o = authority
                .try_consult_private(0, &game, &p2_config(3, 100), &mut rng)
                .unwrap();
            (o.verdict, o.session_bytes)
        };
        assert_eq!(run(9), run(9));
        let support = find_one_equilibrium(&game).unwrap().col_support;
        let mut oracle = HonestOracle::new(support);
        let config = p2_config(3, 100);
        let (_, o) = assert_matches_local(InventorBehavior::Honest, &game, &mut oracle, 9, config);
        assert_eq!((o.verdict, o.session_bytes), run(9));
    }

    #[test]
    fn lost_advice_frame_is_undecided_not_a_panic() {
        let game = battle_of_the_sexes();
        for budget in [None, Some(ResilienceConfig::default())] {
            let mut authority = p2_authority(InventorBehavior::Honest, Arc::new(Bus::new()));
            authority.set_resilience(budget);
            authority.bus().drop_link(INVENTOR, AGENT);
            let mut rng = StdRng::seed_from_u64(1);
            let result = authority.try_consult_private(0, &game, &p2_config(3, 100), &mut rng);
            match (budget, result) {
                (None, Ok(outcome)) => {
                    assert!(!outcome.adopted);
                    assert!(outcome.advice.is_none() && outcome.verdict.is_none());
                    assert_eq!(outcome.attempts, 7, "eight advice requests");
                    assert!(outcome.session_bytes > 0, "the lost frames are accounted");
                }
                (Some(_), Err(ConsultError::Deadline { stage, missing, .. })) => {
                    assert_eq!(stage, ConsultStage::Advice);
                    assert_eq!(missing, vec![INVENTOR]);
                }
                (budget, result) => panic!("{budget:?}: {result:?}"),
            }
        }
    }

    #[test]
    fn query_budget_respected() {
        // The P2 query budget runs out before 50 conclusive tests: an
        // undecided verdict that is no network deadline, so a caller-set
        // budget reports it too.
        let game = battle_of_the_sexes();
        let mut authority = p2_authority(InventorBehavior::Honest, Arc::new(Bus::new()));
        authority.set_resilience(Some(ResilienceConfig::default()));
        let mut rng = StdRng::seed_from_u64(3);
        let outcome = authority
            .try_consult_private(0, &game, &p2_config(50, 4), &mut rng)
            .expect("every query was answered");
        assert!(!outcome.adopted);
        assert!(matches!(outcome.verdict, Some(P2Outcome::Undecided { .. })));
        assert!(queries(&outcome) <= 4);
    }

    /// The lossless differential at the campaign seed: three games, an
    /// honest and a lying prover, two budgets.
    #[test]
    fn lossless_p2_consults_match_the_local_verifier() {
        let seed = scenario_seed();
        for game in [
            five_by_five(),
            battle_of_the_sexes(),
            dominated_column_game(),
        ] {
            let support = find_one_equilibrium(&game).unwrap().col_support;
            for (k, q) in [(3, 100), (50, 4)] {
                for run in 0..4 {
                    let seed = seed.wrapping_add(run);
                    let oracles: [(InventorBehavior, Box<dyn SupportOracle>); 2] = [
                        (
                            InventorBehavior::Honest,
                            Box::new(HonestOracle::new(support.clone())),
                        ),
                        (
                            InventorBehavior::Corrupt,
                            Box::new(LyingOracle::new(support.clone(), 0..game.cols())),
                        ),
                    ];
                    for (inventor, mut oracle) in oracles {
                        assert_matches_local(inventor, &game, &mut *oracle, seed, p2_config(k, q));
                    }
                }
            }
        }
    }

    /// Honest P2 over 20% loss with 1–3 ticks of latency: every query
    /// stage retries under the default budget, so an honest prover is
    /// never rejected and almost always accepted.
    #[test]
    fn honest_p2_consults_survive_a_lossy_network() {
        let seed = scenario_seed();
        let game = five_by_five();
        let net = Arc::new(SimNet::new(SimNetConfig {
            seed,
            default_link: LinkProfile {
                latency_min: 1,
                latency_max: 3,
                drop_prob: 0.2,
                duplicate_probability: 0.0,
            },
            ..SimNetConfig::default()
        }));
        let mut authority = p2_authority(InventorBehavior::Honest, net);
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut accepted, mut retries) = (0, 0);
        for agent in 0..32 {
            let outcome = authority
                .try_consult_private(agent, &game, &p2_config(3, 500), &mut rng)
                .expect("the default budget reports, not errs");
            match &outcome.verdict {
                Some(P2Outcome::Accepted { .. }) => accepted += 1,
                Some(P2Outcome::Rejected { reason, .. }) => {
                    panic!("honest advice rejected: {reason} (seed {seed})")
                }
                _ => {}
            }
            retries += outcome.attempts;
        }
        assert!(accepted >= 30, "{accepted}/32 accepted (seed {seed})");
        assert!(retries > 0, "20% loss forces retries (seed {seed})");
    }

    /// A network adversary that drops every answer to the first query
    /// steers nothing: that query stays unknown, so no consult accepts or
    /// rejects, the transcript ends with the unanswered query and counts
    /// no opponent bit, and a caller-set budget reports a Query-stage
    /// deadline.
    #[test]
    fn dropped_answers_never_decide_a_p2_consult() {
        let seed = scenario_seed();
        for game in [five_by_five(), dominated_column_game()] {
            for inventor in [InventorBehavior::Honest, InventorBehavior::Corrupt] {
                // Frames 0 and 1 are the advice request and the advice;
                // each of the first query's eight attempts is a query
                // frame and an answer frame, so its answers are frames 3,
                // 5, ..., 17.
                let mask = (0..8).map(|attempt| 1u128 << (3 + 2 * attempt)).sum();
                let drop_answers = || Arc::new(LossScript::new(mask, &[])) as Arc<dyn Transport>;
                let mut authority = p2_authority(inventor, drop_answers());
                let mut rng = StdRng::seed_from_u64(seed);
                let config = p2_config(3, 100);
                let outcome = authority
                    .try_consult_private(0, &game, &config, &mut rng)
                    .expect("the default budget reports, not errs");
                assert!(!outcome.adopted, "seed {seed}");
                let Some(P2Outcome::Undecided { transcript, .. }) = &outcome.verdict else {
                    panic!("{:?} decided on no answers (seed {seed})", outcome.verdict);
                };
                assert_eq!(transcript.num_queries(), 1, "seed {seed}");
                assert_eq!(transcript.opponent_bits_disclosed(), 0);
                assert_eq!(
                    transcript.events().last(),
                    Some(&TranscriptEvent::Answer { in_support: None })
                );
                assert_eq!(outcome.attempts, 7, "eight tries of the one query");
                assert_eq!(opponent_answer_bytes(&authority, &outcome), 0);

                let mut authority = p2_authority(inventor, drop_answers());
                authority.set_resilience(Some(ResilienceConfig::default()));
                let mut rng = StdRng::seed_from_u64(seed);
                let ConsultError::Deadline { stage, missing, .. } = authority
                    .try_consult_private(0, &game, &config, &mut rng)
                    .expect_err("a caller budget reports the starved query");
                assert_eq!(stage, ConsultStage::Query, "seed {seed}");
                assert_eq!(missing, vec![INVENTOR]);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Every loss pattern of a short consult. Under a caller budget of one or two
// attempts every dropped frame is final, so enumerating which frames are lost
// checks the Fig. 1 and §4 P2 invariants for every schedule of a small panel,
// not for a sample of them (the small-scope hypothesis: every setup that
// broke these invariants before was a small panel with a few dropped frames).
// ---------------------------------------------------------------------------

mod exhaustive {
    use super::*;
    use std::sync::Mutex;

    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rationality_authority::authority::{
        kernel_check, Advice, BusError, ConsultError, ConsultResult, ConsultStage, DeliveryRecord,
        Endpoint, Inventor, LocalReputation, Message, PanelOutcome, PrivateOutcome,
        RationalityAuthority, ResilienceConfig, SessionOutcome, VerdictReason, Wire, INITIAL_SCORE,
    };
    use rationality_authority::games::BimatrixGame;
    use rationality_authority::proofs::{
        verify_private_advice, HonestOracle, LyingOracle, P2Advice, P2Config, P2Outcome,
        SupportOracle, TranscriptEvent,
    };
    use rationality_authority::solvers::find_one_equilibrium;

    use super::p2::{
        assert_matches_local, dominated_column_game, five_by_five, p2_authority, p2_config,
    };

    /// One frame handed to a [`LossScript`], with its fate.
    #[derive(Clone, Debug, PartialEq)]
    struct Frame {
        from: Party,
        to: Party,
        message: Message,
        dropped: bool,
    }

    /// What a consult put on a [`LossScript`]: every numbered frame in
    /// send order, and the delivery log of the frames it let through.
    #[derive(Debug, PartialEq)]
    struct Trace {
        frames: Vec<Frame>,
        ledger: Vec<DeliveryRecord>,
    }

    impl Trace {
        /// Whether a frame `party` sent or was sent was dropped.
        fn dropped_a_frame_of(&self, party: Party) -> bool {
            self.frames
                .iter()
                .any(|f| f.dropped && (f.from == party || f.to == party))
        }
    }

    /// A logged [`Bus`] that loses frames on a script: it numbers the
    /// frames it is given in send order and swallows frame i, before it
    /// is accounted, iff bit i of `mask` is set. Frames from or to a
    /// `silent` party are swallowed unnumbered, so a silent verifier never
    /// answers and its requests take no mask bit.
    #[derive(Debug)]
    pub(super) struct LossScript {
        bus: Bus,
        mask: u128,
        silent: Vec<Party>,
        frames: Mutex<Vec<Frame>>,
    }

    impl LossScript {
        pub(super) fn new(mask: u128, silent: &[Party]) -> LossScript {
            LossScript {
                bus: Bus::new().with_delivery_log(),
                mask,
                silent: silent.to_vec(),
                frames: Mutex::new(Vec::new()),
            }
        }

        /// Takes the frames numbered so far, and copies the ledger.
        fn take_trace(&self) -> Trace {
            let frames = std::mem::take(&mut *self.frames.lock().expect("frame log lock"));
            Trace {
                frames,
                ledger: self.bus.delivery_log(),
            }
        }

        /// Numbers and logs one frame; returns whether it is lost.
        fn swallows(&self, from: Party, to: Party, message: &Message) -> bool {
            if self.silent.contains(&from) || self.silent.contains(&to) {
                return true;
            }
            let mut frames = self.frames.lock().expect("frame log lock");
            let bit = self.mask.checked_shr(frames.len() as u32).unwrap_or(0);
            let dropped = bit & 1 == 1;
            frames.push(Frame {
                from,
                to,
                message: message.clone(),
                dropped,
            });
            dropped
        }
    }

    impl Transport for LossScript {
        fn register(&self, party: Party) -> Endpoint {
            self.bus.register(party)
        }
        fn disconnect(&self, party: Party) {
            self.bus.disconnect(party)
        }
        fn send(&self, from: Party, to: Party, message: Message) -> Result<(), BusError> {
            if self.swallows(from, to, &message) {
                return Ok(());
            }
            self.bus.send(from, to, message)
        }
        fn send_batch(&self, batch: &mut Vec<(Party, Party, Message)>) -> Result<(), BusError> {
            batch.retain(|(from, to, message)| !self.swallows(*from, *to, message));
            self.bus.send_batch(batch)
        }
        fn drop_link(&self, from: Party, to: Party) {
            self.bus.drop_link(from, to)
        }
        fn heal(&self) {
            self.bus.heal()
        }
        fn settle(&self) {
            self.bus.settle()
        }
        fn total_bytes(&self) -> usize {
            self.bus.total_bytes()
        }
        fn delivered_bytes(&self) -> usize {
            self.bus.delivered_bytes()
        }
        fn bytes_between(&self, from: Party, to: Party) -> usize {
            self.bus.bytes_between(from, to)
        }
        fn delivery_log(&self) -> Vec<DeliveryRecord> {
            self.bus.delivery_log()
        }
        fn message_count(&self) -> usize {
            self.bus.message_count()
        }
        fn retransmit_bytes(&self) -> usize {
            self.bus.retransmit_bytes()
        }
    }

    /// Runs `run` once per distinct loss pattern and returns how many
    /// runs that took. `run(mask)` consults with the frames in `mask`
    /// lost and returns how many frames it numbered. A bit past the last
    /// frame a run sends changes nothing, so the distinct runs are the
    /// drop sets of sent frames, and every mask over every frame a consult
    /// can send is covered: each drop set is reached once, by adding its
    /// frames in send order.
    fn for_each_loss_pattern(mut run: impl FnMut(u128) -> usize) -> usize {
        fn visit(mask: u128, next: usize, run: &mut dyn FnMut(u128) -> usize) -> usize {
            let sent = run(mask);
            assert!(sent <= 128, "a mask numbers at most 128 frames");
            let mut runs = 1;
            for i in next..sent {
                runs += visit(mask | 1 << i, i + 1, run);
            }
            runs
        }
        visit(0, 0, &mut run)
    }

    /// Whether two consults ended identically, field for field.
    fn same_result(a: &ConsultResult, b: &ConsultResult) -> bool {
        fn fields(outcome: &SessionOutcome) -> impl PartialEq + '_ {
            let SessionOutcome {
                advice,
                majority,
                adopted,
                advice_bytes,
                session_bytes,
                verdict_details,
                cached,
                panel,
                attempts,
            } = outcome;
            (
                advice,
                majority,
                adopted,
                advice_bytes,
                session_bytes,
                verdict_details,
                cached,
                panel,
                attempts,
            )
        }
        match (a, b) {
            (Ok(a), Ok(b)) => fields(a) == fields(b),
            (Err(a), Err(b)) => a == b,
            _ => false,
        }
    }

    /// A caller budget of `max_attempts` sends per hop.
    fn budget(max_attempts: u32) -> ResilienceConfig {
        ResilienceConfig {
            max_attempts,
            ..ResilienceConfig::default()
        }
    }

    // -- Fig. 1 ---------------------------------------------------------------

    /// A panel member as the enumeration places it. A verifier that may
    /// answer either way is covered by `Accept` and `Reject` both.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Member {
        Honest,
        Accept,
        Reject,
        Silent,
    }

    /// Every panel of `size` with an honest majority: the honest members
    /// first, then one multiset of faulty kinds. Every loss pattern is
    /// enumerated, so where the faulty members sit does not matter: moving
    /// one only renumbers the frames.
    fn honest_majority_panels(size: usize) -> Vec<Vec<Member>> {
        fn multisets(kinds: &[Member], size: usize) -> Vec<Vec<Member>> {
            if size == 0 {
                return vec![Vec::new()];
            }
            let mut out = Vec::new();
            for (i, &kind) in kinds.iter().enumerate() {
                for mut rest in multisets(&kinds[i..], size - 1) {
                    rest.insert(0, kind);
                    out.push(rest);
                }
            }
            out
        }
        let faulty = [Member::Accept, Member::Reject, Member::Silent];
        (0..=(size - 1) / 2)
            .flat_map(|f| multisets(&faulty, f))
            .map(|kinds| {
                let mut panel = vec![Member::Honest; size - kinds.len()];
                panel.extend(kinds);
                panel
            })
            .collect()
    }

    /// One spec per `kernel_check` arm.
    fn one_spec_per_check() -> [GameSpec; 4] {
        [
            GameSpec::Strategic(prisoners_dilemma().to_strategic()),
            GameSpec::Bimatrix(battle_of_the_sexes()),
            GameSpec::Participation(ParticipationParams::paper_example()),
            GameSpec::ParallelLinks {
                current_loads: vec![rat(4, 1), rat(0, 1), rat(9, 2)],
                own_load: rat(7, 2),
                expected_future_load: rat(2, 1),
                expected_future_agents: 5,
            },
        ]
    }

    /// One Fig. 1 setup: a panel, an inventor, a spec and a budget.
    #[derive(Clone)]
    struct Fig1Case {
        panel: Vec<Member>,
        inventor: InventorBehavior,
        spec: GameSpec,
        budget: Option<ResilienceConfig>,
    }

    impl Fig1Case {
        fn silent(&self) -> Vec<Party> {
            (0..self.panel.len())
                .filter(|&i| self.panel[i] == Member::Silent)
                .map(|i| Party::Verifier(i as u64))
                .collect()
        }

        fn is_silent(&self, party: Party) -> bool {
            match party {
                Party::Inventor(_) => self.inventor == InventorBehavior::Silent,
                party => self.silent().contains(&party),
            }
        }

        /// One consult of agent 0 on a fresh authority over a fresh
        /// script losing `mask`: its result, its trace, and every
        /// verifier's score after it.
        fn consult(&self, mask: u128) -> (ConsultResult, Trace, Vec<i64>) {
            let net = Arc::new(LossScript::new(mask, &self.silent()));
            let behaviors: Vec<VerifierBehavior> = self
                .panel
                .iter()
                .map(|member| match member {
                    Member::Accept => VerifierBehavior::AlwaysAccept,
                    Member::Reject => VerifierBehavior::AlwaysReject,
                    Member::Honest | Member::Silent => VerifierBehavior::Honest,
                })
                .collect();
            let mut authority = RationalityAuthority::with_transport(
                Inventor::new(0, self.inventor),
                &behaviors,
                Arc::new(LocalReputation::new()),
                net.clone(),
            );
            authority.set_resilience(self.budget);
            let result = authority.try_consult(0, &self.spec);
            let scores = (0..self.panel.len() as u64)
                .map(|i| authority.reputation().score(Party::Verifier(i)))
                .collect();
            (result, net.take_trace(), scores)
        }

        /// How many distinct loss patterns the consult has. With `a`
        /// attempts a hop succeeds in 2^a - 1 ways (on the first try, or
        /// on a retry after either frame of each earlier try was lost) and
        /// fails in 2^a. So the advice stage fails in 2^a ways and
        /// otherwise each answering verifier ends in 2^(a+1) - 1. A silent
        /// inventor's consult sends only its a advice requests.
        fn loss_patterns(&self) -> usize {
            let a = self.budget.map_or(8, |b| b.max_attempts);
            let answering = (self.panel.len() - self.silent().len()) as u32;
            match self.inventor {
                InventorBehavior::Silent => 1 << a,
                _ => (1 << a) + ((1 << a) - 1) * ((1 << (a + 1)) - 1usize).pow(answering),
            }
        }

        fn label(&self, mask: u128) -> String {
            let spec = match &self.spec {
                GameSpec::Strategic(_) => "strategic",
                GameSpec::Bimatrix(_) => "bimatrix",
                GameSpec::Participation(_) => "participation",
                GameSpec::ParallelLinks { .. } => "parallel links",
            };
            format!(
                "{:?} inventor, panel {:?}, {spec}, {:?}, mask {mask:#b}",
                self.inventor,
                self.panel,
                self.budget.map(|b| b.max_attempts)
            )
        }

        /// Checks one run's invariants and its replay; returns how many
        /// frames it numbered.
        fn check(&self, mask: u128) -> usize {
            let at = || self.label(mask);
            let (result, trace, scores) = self.consult(mask);
            let missing = match &result {
                Ok(outcome) => {
                    if outcome.adopted {
                        let advice = outcome.advice.as_ref().expect("adopted advice");
                        assert!(kernel_check(&self.spec, advice).0, "{}", at());
                    }
                    match &outcome.panel {
                        PanelOutcome::Full => Vec::new(),
                        PanelOutcome::Degraded { missing }
                        | PanelOutcome::Undecided { missing } => missing.clone(),
                    }
                }
                Err(ConsultError::Deadline { missing, .. }) => missing.clone(),
            };
            for party in missing {
                assert!(
                    self.is_silent(party) || trace.dropped_a_frame_of(party),
                    "{party:?} reported missing, {}",
                    at()
                );
            }
            for (member, score) in self.panel.iter().zip(&scores) {
                assert!(
                    *member != Member::Honest || *score >= INITIAL_SCORE,
                    "an honest verifier was charged: {scores:?}, {}",
                    at()
                );
            }
            let (again, retrace, rescored) = self.consult(mask);
            assert!(same_result(&result, &again), "{}", at());
            assert!(trace == retrace, "{}", at());
            assert_eq!(scores, rescored, "{}", at());
            trace.frames.len()
        }

        /// The lossless run, under this budget and the default one: an
        /// honest majority decides as the kernel does, each member answers
        /// as its kind does, and a consult with no silent party is `Full`
        /// at the Lemma 1 closed form; a silent inventor starves the
        /// advice stage.
        fn check_lossless(&self) {
            for budget in [self.budget, None] {
                let case = Fig1Case {
                    budget,
                    ..self.clone()
                };
                let at = || case.label(0);
                let result = case.consult(0).0;
                if self.inventor == InventorBehavior::Silent {
                    let missing = vec![Party::Inventor(0)];
                    match result {
                        Ok(outcome) => {
                            assert!(budget.is_none(), "{}", at());
                            assert!(!outcome.adopted && outcome.advice.is_none(), "{}", at());
                            assert_eq!(outcome.panel, PanelOutcome::Undecided { missing });
                        }
                        Err(ConsultError::Deadline {
                            stage,
                            missing: starved,
                            ..
                        }) => {
                            assert!(budget.is_some(), "{}", at());
                            assert_eq!((stage, starved), (ConsultStage::Advice, missing));
                        }
                    }
                    continue;
                }
                let outcome = result.unwrap_or_else(|e| panic!("{e}: {}", at()));
                let advice = outcome.advice.as_ref().expect("the inventor answered");
                let (sound, reason) = kernel_check(&self.spec, advice);
                assert_eq!(sound, self.inventor == InventorBehavior::Honest, "{}", at());
                assert_eq!(outcome.adopted, sound, "{}", at());
                let answers: Vec<(Party, bool, VerdictReason)> = (self.panel.iter().enumerate())
                    .filter_map(|(i, member)| {
                        let (accepted, reason) = match member {
                            Member::Honest => (sound, reason),
                            Member::Accept => (true, VerdictReason::RubberStamped),
                            Member::Reject => (false, VerdictReason::Refused),
                            Member::Silent => return None,
                        };
                        Some((Party::Verifier(i as u64), accepted, reason))
                    })
                    .collect();
                assert_eq!(outcome.verdict_details, answers, "{}", at());
                let silent = self.silent();
                if !silent.is_empty() {
                    let missing = silent;
                    assert_eq!(outcome.panel, PanelOutcome::Degraded { missing });
                    continue;
                }
                assert_eq!(outcome.panel, PanelOutcome::Full, "{}", at());
                let (k, id_len) = (self.panel.len(), 1u64.encoded_len());
                assert_eq!(
                    outcome.session_bytes,
                    (1 + id_len) + (k + 1) * outcome.advice_bytes + k * (3 + id_len),
                    "{}",
                    at()
                );
            }
        }
    }

    /// Checks every Fig. 1 setup with a panel of `size` under a caller
    /// budget of `max_attempts`, for every loss pattern; returns how many
    /// consults ran (each is also replayed once).
    fn enumerate_fig1(size: usize, max_attempts: u32) -> usize {
        let mut runs = 0;
        for panel in honest_majority_panels(size) {
            for inventor in [
                InventorBehavior::Honest,
                InventorBehavior::Corrupt,
                InventorBehavior::Silent,
            ] {
                for spec in one_spec_per_check() {
                    let case = Fig1Case {
                        panel: panel.clone(),
                        inventor,
                        spec,
                        budget: Some(budget(max_attempts)),
                    };
                    case.check_lossless();
                    let patterns = for_each_loss_pattern(|mask| case.check(mask));
                    assert_eq!(patterns, case.loss_patterns(), "{}", case.label(0));
                    runs += patterns;
                }
            }
        }
        println!("Fig. 1, panel of {size}, {max_attempts} attempt(s): {runs} consults");
        runs
    }

    #[test]
    fn every_loss_pattern_of_a_single_attempt_consult() {
        assert_eq!(enumerate_fig1(3, 1), 816);
        assert_eq!(enumerate_fig1(5, 1), 14_064);
    }

    #[test]
    #[ignore = "26k consults, about 3-4.5 s in debug: run in release with --include-ignored"]
    fn every_loss_pattern_of_a_two_attempt_three_panel_consult() {
        assert_eq!(enumerate_fig1(3, 2), 26_064);
    }

    #[test]
    #[ignore = "2.6M consults: run in release with --include-ignored"]
    fn every_loss_pattern_of_a_two_attempt_five_panel_consult() {
        assert_eq!(enumerate_fig1(5, 2), 2_601_792);
    }

    // -- §4 P2 ------------------------------------------------------------------

    /// One P2 setup: a game, a prover, the Fig. 4 budget and a caller
    /// budget.
    struct P2Case {
        game: BimatrixGame,
        inventor: InventorBehavior,
        config: P2Config,
        max_attempts: u32,
        seed: u64,
    }

    /// What the agent could have learnt from the frames a script
    /// delivered: the first advice to arrive, and per query stage (each
    /// opens with a bare query) the first answer to arrive, if any did.
    fn delivered(frames: &[Frame]) -> (Option<P2Advice>, Vec<Option<bool>>) {
        let (mut advice, mut answers) = (None, Vec::new());
        for frame in frames {
            let message = match &frame.message {
                Message::Resilient { inner, .. } => inner.as_ref(),
                bare => {
                    if let Message::SupportQuery { .. } = bare {
                        answers.push(None);
                    }
                    bare
                }
            };
            match message {
                _ if frame.dropped => {}
                Message::AdviceWithProof { advice: a, .. } if advice.is_none() => {
                    if let Advice::Private(a) = a.as_ref() {
                        advice = Some(a.clone());
                    }
                }
                Message::SupportAnswer { in_support, .. } => {
                    let stage = answers.last_mut().expect("an answer follows a query");
                    stage.get_or_insert(*in_support);
                }
                _ => {}
            }
        }
        (advice, answers)
    }

    impl P2Case {
        fn consult(&self, mask: u128) -> (Result<PrivateOutcome, ConsultError>, Trace) {
            let net = Arc::new(LossScript::new(mask, &[]));
            let mut authority = p2_authority(self.inventor, net.clone());
            authority.set_resilience(Some(budget(self.max_attempts)));
            let mut rng = StdRng::seed_from_u64(self.seed);
            let result = authority.try_consult_private(0, &self.game, &self.config, &mut rng);
            (result, net.take_trace())
        }

        fn label(&self, mask: u128) -> String {
            format!(
                "{:?} prover, {}x{} game, {:?}, {} attempt(s), seed {}, mask {mask:#b}",
                self.inventor,
                self.game.rows(),
                self.game.cols(),
                self.config,
                self.max_attempts,
                self.seed
            )
        }

        /// Checks one run against the local Fig. 4 verifier fed exactly
        /// the answers that arrived, and its replay; returns how many
        /// frames it numbered.
        fn check(&self, mask: u128) -> usize {
            let at = || self.label(mask);
            let (result, trace) = self.consult(mask);
            let (advice, answers) = delivered(&trace.frames);
            let mut stage = 0;
            let mut oracle = |_| {
                stage += 1;
                answers.get(stage - 1).copied().flatten()
            };
            let local = advice.as_ref().map(|advice| {
                let mut rng = StdRng::seed_from_u64(self.seed);
                verify_private_advice(&self.game, advice, &mut oracle, &mut rng, &self.config)
            });
            let verdict = match &result {
                Ok(outcome) => {
                    assert_eq!(outcome.advice, advice, "{}", at());
                    assert_eq!(outcome.verdict, local, "{}", at());
                    outcome.verdict.as_ref()
                }
                Err(ConsultError::Deadline { stage, .. }) => {
                    let unanswered = local.as_ref().map(|v| v.transcript().events().last());
                    match stage {
                        ConsultStage::Advice => assert_eq!(unanswered, None, "{}", at()),
                        _ => assert_eq!(
                            unanswered,
                            Some(Some(&TranscriptEvent::Answer { in_support: None })),
                            "{}",
                            at()
                        ),
                    }
                    None
                }
            };
            let decided = verdict.is_some_and(|v| !matches!(v, P2Outcome::Undecided { .. }));
            assert!(
                !(decided && answers.contains(&None)),
                "a dropped answer decided: {}",
                at()
            );
            let rejected = matches!(verdict, Some(P2Outcome::Rejected { .. }));
            assert!(
                !(rejected && self.inventor == InventorBehavior::Honest),
                "an honest prover was rejected: {}",
                at()
            );
            let (again, retrace) = self.consult(mask);
            assert_eq!(format!("{result:?}"), format!("{again:?}"), "{}", at());
            assert!(trace == retrace, "{}", at());
            trace.frames.len()
        }

        /// The lossless run is the one `assert_matches_local` pins; a
        /// silent prover starves the advice stage.
        fn check_lossless(&self) {
            let at = || self.label(0);
            let result = self.consult(0).0;
            if self.inventor == InventorBehavior::Silent {
                let starved = matches!(
                    result,
                    Err(ConsultError::Deadline {
                        stage: ConsultStage::Advice,
                        ..
                    })
                );
                assert!(starved, "{}", at());
                return;
            }
            let support = find_one_equilibrium(&self.game).unwrap().col_support;
            let mut oracle: Box<dyn SupportOracle> = match self.inventor {
                InventorBehavior::Honest => Box::new(HonestOracle::new(support)),
                _ => Box::new(LyingOracle::new(support, 0..self.game.cols())),
            };
            let (_, local) = assert_matches_local(
                self.inventor,
                &self.game,
                &mut *oracle,
                self.seed,
                self.config,
            );
            let outcome = result.unwrap_or_else(|e| panic!("{e}: {}", at()));
            assert_eq!(outcome.verdict, local.verdict, "{}", at());
            assert_eq!(outcome.session_bytes, local.session_bytes, "{}", at());
            assert_eq!(outcome.attempts, 0, "{}", at());
        }
    }

    /// Checks every P2 setup (battle of the sexes, the `wire_protocol`
    /// 5×5 game and the dominated-column game, each prover kind) under
    /// `config` and a caller budget of `max_attempts`, for every loss
    /// pattern; returns how many consults ran (each is also replayed).
    fn enumerate_p2(config: P2Config, max_attempts: u32) -> usize {
        let mut runs = 0;
        for game in [
            battle_of_the_sexes(),
            five_by_five(),
            dominated_column_game(),
        ] {
            for inventor in [
                InventorBehavior::Honest,
                InventorBehavior::Corrupt,
                InventorBehavior::Silent,
            ] {
                let case = P2Case {
                    game: game.clone(),
                    inventor,
                    config,
                    max_attempts,
                    seed: scenario_seed(),
                };
                case.check_lossless();
                runs += for_each_loss_pattern(|mask| case.check(mask));
            }
        }
        println!("P2, {config:?}, {max_attempts} attempt(s): {runs} consults");
        runs
    }

    #[test]
    fn every_loss_pattern_of_a_p2_consult() {
        enumerate_p2(p2_config(3, 24), 1);
        enumerate_p2(p2_config(2, 4), 2);
    }

    #[test]
    #[ignore = "20k P2 consults: run in release with --include-ignored"]
    fn every_loss_pattern_of_a_longer_p2_consult() {
        enumerate_p2(p2_config(3, 6), 2);
    }
}
