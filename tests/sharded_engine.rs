//! Integration tests for the sharded multi-bus session engine: routing,
//! batch/sequential determinism, parity with the single-bus
//! `RationalityAuthority`, and cross-shard reputation gossip.

use std::sync::Arc;

use rationality_authority::authority::{
    Bus, CertCacheConfig, GameSpec, InventorBehavior, Party, ReputationConfig, ReputationDecay,
    ReputationPolicy, SessionOutcome, ShardStats, ShardedAuthority, VerifierBehavior, VoteRule,
};
use rationality_authority::exact::rat;
use rationality_authority::games::named::{battle_of_the_sexes, prisoners_dilemma, stag_hunt};
use rationality_authority::solvers::ParticipationParams;

/// An engine with an honest inventor over perfect buses and no
/// certificate cache.
fn bus_engine(
    shards: usize,
    panel: &[VerifierBehavior],
    config: ReputationConfig,
) -> ShardedAuthority {
    ShardedAuthority::with_transports(
        shards,
        InventorBehavior::Honest,
        panel,
        config,
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

/// 64 consultations over every case-study family, agents 0..64.
fn batch_requests() -> Vec<(u64, Arc<GameSpec>)> {
    let specs = [
        GameSpec::Strategic(prisoners_dilemma().to_strategic()),
        GameSpec::Strategic(stag_hunt(3)),
        GameSpec::Bimatrix(battle_of_the_sexes()),
        GameSpec::Participation(ParticipationParams::paper_example()),
        GameSpec::ParallelLinks {
            current_loads: vec![rat(4, 1), rat(0, 1), rat(9, 2)],
            own_load: rat(7, 2),
            expected_future_load: rat(2, 1),
            expected_future_agents: 5,
        },
    ];
    let specs = specs.map(Arc::new);
    (0..64u64)
        .map(|agent| {
            (
                agent,
                Arc::clone(&specs[(agent % specs.len() as u64) as usize]),
            )
        })
        .collect()
}

/// Strips the execution-shape-dependent `frame_pool_misses` gauge (pool
/// workers warm their own thread-local scratch) so the shape-independent
/// byte counters can be compared between batched and sequential runs.
fn comparable(mut stats: ShardStats) -> ShardStats {
    stats.frame_pool_misses = 0;
    stats
}

fn adoption_decisions(outcomes: &[SessionOutcome]) -> Vec<bool> {
    outcomes.iter().map(|o| o.adopted).collect()
}

/// The acceptance-criteria determinism property: a 64-consultation batch
/// on 4 shards produces, per (agent, spec), the same adoption decisions as
/// sequential single-shard consultations — regardless of how the batch
/// workers interleave.
#[test]
fn batch_on_four_shards_matches_single_shard_sequential() {
    // A panel with a persistent saboteur, so reputation actually evolves
    // during the run and the comparison is not vacuous.
    let panel = [
        VerifierBehavior::Honest,
        VerifierBehavior::Honest,
        VerifierBehavior::AlwaysReject,
    ];
    let requests = batch_requests();

    let sharded = ShardedAuthority::new(4, InventorBehavior::Honest, &panel);
    let batch_outcomes = sharded.consult_batch(&requests);
    assert_eq!(batch_outcomes.len(), 64);

    let single = ShardedAuthority::new(1, InventorBehavior::Honest, &panel);
    let sequential_outcomes: Vec<SessionOutcome> = requests
        .iter()
        .map(|(agent, spec)| single.consult(*agent, spec.as_ref()))
        .collect();

    assert_eq!(
        adoption_decisions(&batch_outcomes),
        adoption_decisions(&sequential_outcomes),
        "sharding must not change any adoption decision"
    );
    // Honest majority everywhere: everything is adopted in both engines.
    assert!(batch_outcomes.iter().all(|o| o.adopted));
}

/// Repeating the batch on identically configured engines is bitwise
/// deterministic in decisions, votes, and byte accounting.
#[test]
fn batches_are_reproducible_across_engines() {
    let requests = batch_requests();
    let run = || {
        let engine =
            ShardedAuthority::new(4, InventorBehavior::Honest, &[VerifierBehavior::Honest; 3]);
        let outcomes = engine.consult_batch(&requests);
        let trace: Vec<(bool, usize, usize)> = outcomes
            .iter()
            .map(|o| (o.adopted, o.advice_bytes, o.session_bytes))
            .collect();
        let stats = engine.shard_stats();
        (trace, stats.shard_bytes, stats.message_count)
    };
    assert_eq!(run(), run());
}

/// Corrupt advice is rejected on every shard, exactly as on one bus.
#[test]
fn corrupt_inventor_rejected_across_shards() {
    let requests = batch_requests();
    let engine =
        ShardedAuthority::new(4, InventorBehavior::Corrupt, &[VerifierBehavior::Honest; 5]);
    for (outcome, (agent, _)) in engine.consult_batch(&requests).iter().zip(&requests) {
        assert!(!outcome.adopted, "agent {agent} adopted corrupt advice");
    }
}

/// The acceptance-criteria determinism property under gossip: the same
/// 64-consultation batch on the same 4 shards, now with fixed-cadence
/// gossip and an epoch shorter than the batch (so
/// merges land mid-stream), still matches routed sequential consultations
/// outcome for outcome.
#[test]
fn gossip_batch_matches_sequential_on_four_shards() {
    let panel = [
        VerifierBehavior::Honest,
        VerifierBehavior::Honest,
        VerifierBehavior::AlwaysReject,
    ];
    let config = ReputationConfig::from(gossip(16));
    let requests = batch_requests();

    let batched = bus_engine(4, &panel, config);
    let batch_outcomes = batched.consult_batch(&requests);

    let sequential = bus_engine(4, &panel, config);
    let sequential_outcomes: Vec<SessionOutcome> = requests
        .iter()
        .map(|(agent, spec)| sequential.consult(*agent, spec.as_ref()))
        .collect();

    assert_eq!(
        adoption_decisions(&batch_outcomes),
        adoption_decisions(&sequential_outcomes),
        "gossip must not break batch/sequential equality"
    );
    for (b, s) in batch_outcomes.iter().zip(&sequential_outcomes) {
        assert_eq!(b.majority, s.majority);
        assert_eq!(b.session_bytes, s.session_bytes);
    }
    assert_eq!(
        batched.shard_stats().shard_bytes,
        sequential.shard_stats().shard_bytes
    );
}

/// The acceptance-criteria propagation property: a verifier that falls to
/// the exclusion threshold on ONE shard (all dissents observed there)
/// stops being consulted on EVERY shard within one gossip epoch.
#[test]
fn exclusion_propagates_to_all_shards_within_one_epoch() {
    let panel = [
        VerifierBehavior::Honest,
        VerifierBehavior::Honest,
        VerifierBehavior::AlwaysReject,
    ];
    let every = 8;
    let engine = bus_engine(4, &panel, gossip(every).into());
    let saboteur = Party::Verifier(2);
    let spec = GameSpec::Strategic(prisoners_dilemma().to_strategic());
    // Agents all pinned to one home shard, so every dissent lands there.
    let home = engine.shard_of(0);
    let pinned: Vec<u64> = (0..10_000u64)
        .filter(|&a| engine.shard_of(a) == home)
        .collect();
    let mut agents = pinned.iter().copied();

    // Drain the saboteur's score through home-shard consultations only,
    // until the observing shard itself excludes it.
    let mut consultations = 0usize;
    while engine.with_shard(home, |a| a.reputation().is_trusted(saboteur)) {
        engine.consult(agents.next().expect("enough pinned agents"), &spec);
        consultations += 1;
        assert!(
            consultations <= 32,
            "home shard never excluded the saboteur"
        );
    }
    // Within at most one more epoch of (still pinned) consultations, the
    // boundary sync spreads the exclusion engine-wide.
    for _ in 0..every {
        let excluded_everywhere = (0..engine.shard_count())
            .all(|s| engine.with_shard(s, |a| !a.reputation().is_trusted(saboteur)));
        if excluded_everywhere {
            break;
        }
        engine.consult(agents.next().expect("enough pinned agents"), &spec);
    }
    for s in 0..engine.shard_count() {
        assert!(
            engine.with_shard(s, |a| !a.reputation().is_trusted(saboteur)),
            "shard {s} still trusts the saboteur one epoch after exclusion"
        );
    }
    // A consultation routed to a *different* shard no longer involves the
    // saboteur: only the two honest panel members answer.
    let away_agent = (0..10_000u64)
        .find(|&a| engine.shard_of(a) != home)
        .expect("some agent routes elsewhere");
    let outcome = engine.consult(away_agent, &spec);
    assert!(outcome.adopted);
    assert_eq!(
        outcome.verdict_details.len(),
        2,
        "excluded verifier was still consulted on a foreign shard"
    );
}

/// Under `Isolated` the same scenario does NOT propagate: the deviant
/// keeps serving other shards — the gap the gossip plane closes.
#[test]
fn isolated_policy_keeps_exclusion_local() {
    let panel = [
        VerifierBehavior::Honest,
        VerifierBehavior::Honest,
        VerifierBehavior::AlwaysReject,
    ];
    let engine = ShardedAuthority::new(4, InventorBehavior::Honest, &panel);
    let saboteur = Party::Verifier(2);
    let spec = GameSpec::Strategic(prisoners_dilemma().to_strategic());
    let home = engine.shard_of(0);
    let mut pinned = (0..10_000u64).filter(|&a| engine.shard_of(a) == home);
    let mut consultations = 0;
    while engine.with_shard(home, |a| a.reputation().is_trusted(saboteur)) {
        engine.consult(pinned.next().expect("enough pinned agents"), &spec);
        consultations += 1;
        assert!(
            consultations <= 32,
            "home shard never excluded the saboteur"
        );
    }
    for s in 0..engine.shard_count() {
        let trusted = engine.with_shard(s, |a| a.reputation().is_trusted(saboteur));
        assert_eq!(s != home, trusted, "isolated shards share no reputation");
    }
}

/// The acceptance-criteria determinism property for the full reputation
/// configuration space: half-life decay and the adaptive dissent-burst
/// policy (separately and combined) both preserve
/// batch/sequential equality — outcomes, majorities, per-session bytes,
/// per-shard consultation bytes AND control-plane gossip bytes.
#[test]
fn weighted_decaying_adaptive_batches_match_sequential() {
    let panel = [
        VerifierBehavior::Honest,
        VerifierBehavior::Honest,
        VerifierBehavior::AlwaysReject,
    ];
    let configs = [
        ReputationConfig {
            policy: gossip(8),
            vote_rule: VoteRule::Simple,
            decay: ReputationDecay::HalfLife { retention: 3 },
        },
        ReputationConfig {
            policy: ReputationPolicy::Adaptive {
                every: 32,
                check_every: 4,
                burst: 2,
            },
            vote_rule: VoteRule::Simple,
            decay: ReputationDecay::HalfLife { retention: 4 },
        },
        // Fixed cadence at both burst extremes: with check_every == every
        // every check is an epoch boundary, so the burst never decides a
        // sync and the two runs must agree (asserted after the loop).
        ReputationConfig {
            policy: gossip(16),
            vote_rule: VoteRule::Simple,
            decay: ReputationDecay::None,
        },
        ReputationConfig {
            policy: ReputationPolicy::Adaptive {
                every: 16,
                check_every: 16,
                burst: u64::MAX,
            },
            vote_rule: VoteRule::Simple,
            decay: ReputationDecay::None,
        },
    ];
    let requests = batch_requests();
    let mut runs = Vec::new();
    for config in configs {
        let batched = bus_engine(4, &panel, config);
        let batch_outcomes = batched.consult_batch(&requests);
        let sequential = bus_engine(4, &panel, config);
        let sequential_outcomes: Vec<SessionOutcome> = requests
            .iter()
            .map(|(agent, spec)| sequential.consult(*agent, spec.as_ref()))
            .collect();
        assert_eq!(
            adoption_decisions(&batch_outcomes),
            adoption_decisions(&sequential_outcomes),
            "{config:?}: batching changed an adoption decision"
        );
        for (b, s) in batch_outcomes.iter().zip(&sequential_outcomes) {
            assert_eq!(b.majority, s.majority, "{config:?}");
            assert_eq!(b.session_bytes, s.session_bytes, "{config:?}");
        }
        assert_eq!(
            comparable(batched.shard_stats()),
            comparable(sequential.shard_stats()),
            "{config:?}: execution shape leaked into byte accounting"
        );
        let trace: Vec<_> = batch_outcomes
            .iter()
            .map(|o| (o.adopted, o.majority.clone(), o.session_bytes))
            .collect();
        runs.push((trace, comparable(batched.shard_stats())));
    }
    assert!(
        runs[3].1.gossip_bytes > 0,
        "64 consultations cross 4 epochs"
    );
    assert_eq!(
        runs[2], runs[3],
        "burst decided a sync although every check is an epoch boundary"
    );
}

/// The acceptance-criteria accounting property: under a gossip policy the
/// epoch merges are real framed sends on a dedicated inter-shard bus, so
/// `shard_stats()` reports non-zero control-plane bytes; under `Isolated`
/// there is no gossip bus and the figure is exactly zero.
#[test]
fn gossip_merge_traffic_is_byte_accounted() {
    let requests = batch_requests();
    for policy in [
        gossip(16),
        ReputationPolicy::Adaptive {
            every: 16,
            check_every: 4,
            burst: 2,
        },
    ] {
        let engine = bus_engine(4, &[VerifierBehavior::Honest; 3], policy.into());
        engine.consult_batch(&requests);
        let stats = engine.shard_stats();
        assert!(
            stats.gossip_bytes > 0,
            "{policy:?}: merges left no trace in the accounting"
        );
        assert!(stats.gossip_messages > 0);
        let bus = engine.gossip_bus().expect("gossip engine exposes its bus");
        assert_eq!(stats.gossip_bytes, bus.delivered_bytes());
        // Control-plane frames stay small relative to consultations: the
        // whole point of Lemma 1 is that coordination is cheap.
        assert!(stats.gossip_bytes < stats.total_bytes);
    }
    let isolated =
        ShardedAuthority::new(4, InventorBehavior::Honest, &[VerifierBehavior::Honest; 3]);
    isolated.consult_batch(&requests);
    let stats = isolated.shard_stats();
    assert_eq!(stats.gossip_bytes, 0, "isolated engines gossip nothing");
    assert_eq!(stats.gossip_messages, 0);
    assert!(isolated.gossip_bus().is_none());
}

/// Agents are pinned: per-shard reputation stores only ever see traffic
/// from their own agents, and routing is stable across engines.
#[test]
fn routing_is_deterministic_and_pinned() {
    let a = ShardedAuthority::new(8, InventorBehavior::Honest, &[VerifierBehavior::Honest]);
    let b = ShardedAuthority::new(8, InventorBehavior::Honest, &[VerifierBehavior::Honest]);
    for agent in 0..512u64 {
        assert_eq!(a.shard_of(agent), b.shard_of(agent));
    }
    let spec = GameSpec::Strategic(prisoners_dilemma().to_strategic());
    a.consult(17, &spec);
    a.consult(17, &spec);
    let home = a.shard_of(17);
    let bytes = a.shard_stats().shard_bytes;
    for (shard, &shard_bytes) in bytes.iter().enumerate() {
        assert_eq!(shard != home, shard_bytes == 0);
    }
}
