//! Engine memory is bounded by live state, not by traffic or by the
//! number of agents served: once every recurring agent has been served,
//! further consultations over the same agents retain no more heap, and
//! agents that consult once and never return leave nothing behind — over
//! a perfect `Bus` and over a lossy simulated network under the resilient
//! protocol alike.
//!
//! The binary installs a counting global allocator, so it holds this one
//! test alone: another test's allocations would mix into the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::Arc;

use ra_authority::{
    Bus, CertCacheConfig, GameSpec, InventorBehavior, LinkProfile, ReputationConfig,
    ResilienceConfig, ShardedAuthority, SimNet, SimNetConfig, Transport, TransportSite,
    VerifierBehavior,
};
use ra_games::named::{battle_of_the_sexes, prisoners_dilemma, stag_hunt};
use ra_solvers::ParticipationParams;

/// Counts the bytes currently allocated through it.
struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            LIVE.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const AGENTS: u64 = 256;
const SHARDS: usize = 2;
/// Consultations that serve every agent a few times before the baseline.
const WARM: usize = 1024;
/// Live heap may grow by at most this much over `4 * WARM` more
/// consultations.
const SLACK: isize = 64 * 1024;

fn specs() -> Vec<Arc<GameSpec>> {
    vec![
        Arc::new(GameSpec::Strategic(prisoners_dilemma().to_strategic())),
        Arc::new(GameSpec::Strategic(stag_hunt(3))),
        Arc::new(GameSpec::Bimatrix(battle_of_the_sexes())),
        Arc::new(GameSpec::Participation(ParticipationParams::paper_example())),
    ]
}

/// Who sends the consultations.
#[derive(Clone, Copy, Debug)]
enum Population {
    /// `AGENTS` agents in a round robin, each served many times.
    Recurring,
    /// A new agent for every consultation, never seen again.
    FirstContact,
}

impl Population {
    /// The agent of consultation `i`.
    fn agent(self, i: usize) -> u64 {
        match self {
            Population::Recurring => i as u64 % AGENTS,
            Population::FirstContact => i as u64,
        }
    }
}

/// Consultations `range` from `population`, cycling the specs.
fn requests(population: Population, range: std::ops::Range<usize>) -> Vec<(u64, Arc<GameSpec>)> {
    let specs = specs();
    range
        .map(|i| (population.agent(i), Arc::clone(&specs[i % specs.len()])))
        .collect()
}

/// Live heap retained by `4 * WARM` consultations after `WARM` of them.
fn retained(engine: &ShardedAuthority, population: Population) -> isize {
    let warm = requests(population, 0..WARM);
    let more = requests(population, WARM..5 * WARM);
    drop(engine.consult_batch(&warm));
    let base = LIVE.load(Ordering::Relaxed);
    drop(engine.consult_batch(&more));
    LIVE.load(Ordering::Relaxed) - base
}

fn engine(transport_for: &dyn Fn(TransportSite) -> Arc<dyn Transport>) -> ShardedAuthority {
    ShardedAuthority::with_transports(
        SHARDS,
        InventorBehavior::Honest,
        &[VerifierBehavior::Honest; 3],
        ReputationConfig::default(),
        CertCacheConfig::default(),
        transport_for,
    )
}

/// No shard network kept a per-frame history, though frames were sent.
fn assert_no_history(engine: &ShardedAuthority) {
    for s in 0..SHARDS {
        engine.with_shard(s, |a| {
            assert!(a.bus().message_count() > 0, "shard {s} sent frames");
            assert!(a.bus().delivery_log().is_empty(), "shard {s} kept a log");
        });
    }
}

/// An engine whose shards run the resilient protocol over 20%-loss,
/// 1–3-tick simulated links.
fn lossy_engine() -> ShardedAuthority {
    let lossy = engine(&|site| match site {
        TransportSite::Shard(s) => Arc::new(SimNet::new(SimNetConfig {
            seed: 0xB0_0DED ^ s as u64,
            default_link: LinkProfile {
                latency_min: 1,
                latency_max: 3,
                drop_prob: 0.2,
                duplicate_probability: 0.0,
            },
            ..SimNetConfig::default()
        })),
        TransportSite::GossipHub => Arc::new(Bus::new()),
    });
    lossy.set_resilience(Some(ResilienceConfig {
        quorum: 2,
        max_attempts: 32,
        ..ResilienceConfig::default()
    }));
    lossy
}

#[test]
fn state_stays_bounded_as_consultations_repeat() {
    for population in [Population::Recurring, Population::FirstContact] {
        let over_bus = engine(&|_| Arc::new(Bus::new()));
        let bus_growth = retained(&over_bus, population);
        assert_no_history(&over_bus);
        drop(over_bus);

        let lossy = lossy_engine();
        let lossy_growth = retained(&lossy, population);
        assert_no_history(&lossy);
        assert!(
            lossy.with_shard(0, |a| a.bus().retransmit_bytes()) > 0,
            "the lossy links forced retransmissions"
        );
        drop(lossy);

        assert!(
            bus_growth <= SLACK,
            "a Bus engine retained {bus_growth} B over {} more {population:?} consultations",
            4 * WARM
        );
        assert!(
            lossy_growth <= SLACK,
            "a lossy SimNet engine retained {lossy_growth} B over {} more {population:?} \
             consultations",
            4 * WARM
        );
    }
}
