//! The five workloads: their inputs, generated from the seed, and the
//! engine each one runs against.
//!
//! The engine receives only the generated requests. Every workload drives
//! a 2-shard [`ShardedAuthority`] from one client thread. Timed rounds
//! consult one request at a time on that thread; only the traced run's
//! batched pass wakes the pool, whose two pinned workers plus the blocked
//! dispatcher stay within two cores.

use std::collections::HashSet;
use std::sync::Arc;

use ra_authority::{
    Bus, CertCacheConfig, GameSpec, InventorBehavior, LinkProfile, ReputationConfig,
    ReputationDecay, ReputationPolicy, ResilienceConfig, ShardedAuthority, SimNet, SimNetConfig,
    Transport, TransportSite, VerifierBehavior, VoteRule,
};
use ra_exact::rat;
use ra_games::named::{battle_of_the_sexes, prisoners_dilemma, stag_hunt};
use ra_games::StrategicGame;
use ra_solvers::ParticipationParams;

use crate::trace::Traced;

/// One consultation request: agent id and the game it asks about.
pub type Request = (u64, Arc<GameSpec>);

/// Shards of every workload's engine.
const SHARDS: usize = 2;

/// Requests per `try_consult_batch` call in the traced run's batched pass.
pub const BATCH: usize = 512;

const SMALL_PANEL: [VerifierBehavior; 3] = [VerifierBehavior::Honest; 3];
const ZIPF_PANEL: [VerifierBehavior; 5] = [
    VerifierBehavior::Honest,
    VerifierBehavior::Honest,
    VerifierBehavior::Honest,
    VerifierBehavior::Honest,
    VerifierBehavior::AlwaysReject,
];
const ZIPF_EXPONENT: f64 = 1.1;

// Salts that split the one `--seed` into independent input streams.
const AGENT_SALT: u64 = 0xA6E7;
const PICK_SALT: u64 = 0x919C;
const FRESH_SALT: u64 = 0xF2E5;
const CATALOG_SALT: u64 = 0xCA7A;
const ZIPF_SALT: u64 = 0x21BF;
const NET_SALT: u64 = 0x5E7;
const RESILIENCE_SALT: u64 = 0x2E51;
const ROUND_SALT: u64 = 0x20_0000;

/// A named workload of the benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Five small paper-size specs, round-robin, from 256 recurring agents.
    SteadySmall,
    /// The same spec mix, every request from a first-contact agent.
    ChurnSmall,
    /// 1024 distinct 16×16 coordination games, cycled, cache off.
    ColdLarge,
    /// Zipf(1.1) over 2048 16×16 games through a replay cache, with a
    /// saboteur verifier and adaptive gossip.
    ZipfReplay,
    /// The small spec mix over a 20%-loss simulated network, resilient.
    LossyResilient,
}

/// Request counts and sizes of one workload's run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Plan {
    /// Recurring agents (registered during warm-up).
    pub agents: usize,
    /// Untimed warm-up (or cache prime) requests per round.
    pub warmup: usize,
    /// Timed requests per round.
    pub requests: usize,
    /// Requests of each sequential pass of a traced round.
    pub trace_requests: usize,
    /// Distinct games in the catalog (large workloads only).
    pub catalog: usize,
    /// Certificate-cache capacity (0: cache off).
    pub cache_capacity: usize,
    /// Wall seconds of one timed round, set-up and oracle included, as
    /// measured when the benchmark was defined (2 vCPUs). Only sizes the
    /// round count; see [`Plan::rounds`].
    pub round_s: f64,
    /// The same for one traced round.
    pub trace_round_s: f64,
}

/// Fewest rounds of a timed run, so each step has a few tries at a quiet
/// spell.
const MIN_TIMED_ROUNDS: usize = 5;

impl Plan {
    /// Rounds in a run of about `seconds` at the defining commit. The count
    /// depends on the budget only, so every commit does the same work.
    pub fn rounds(&self, seconds: f64, trace: bool) -> usize {
        let (round_s, min) = if trace {
            (self.trace_round_s, 1)
        } else {
            (self.round_s, MIN_TIMED_ROUNDS)
        };
        ((seconds / round_s).round() as usize).max(min)
    }
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 5] = [
        Workload::SteadySmall,
        Workload::ChurnSmall,
        Workload::ColdLarge,
        Workload::ZipfReplay,
        Workload::LossyResilient,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SteadySmall => "steady-small",
            Workload::ChurnSmall => "churn-small",
            Workload::ColdLarge => "cold-large",
            Workload::ZipfReplay => "zipf-replay",
            Workload::LossyResilient => "lossy-resilient",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's sizes. Timed request counts are fixed, not derived
    /// from a time budget, so every round leaves the engine in the same
    /// state on every commit; `smoke` shrinks everything for tests.
    pub fn plan(self, smoke: bool) -> Plan {
        let full = match self {
            Workload::SteadySmall => Plan {
                agents: 256,
                warmup: 256,
                requests: 8192,
                trace_requests: 2000,
                catalog: 0,
                cache_capacity: 0,
                round_s: 0.45,
                trace_round_s: 0.5,
            },
            Workload::ChurnSmall => Plan {
                agents: 256,
                warmup: 4096,
                requests: 4096,
                trace_requests: 2000,
                catalog: 0,
                cache_capacity: 0,
                round_s: 0.9,
                trace_round_s: 1.7,
            },
            Workload::ColdLarge => Plan {
                agents: 256,
                warmup: 256,
                requests: 2048,
                trace_requests: 2000,
                catalog: 1024,
                cache_capacity: 0,
                round_s: 0.55,
                trace_round_s: 2.5,
            },
            Workload::ZipfReplay => Plan {
                agents: 256,
                warmup: 2048,
                requests: 2048,
                trace_requests: 2000,
                catalog: 2048,
                cache_capacity: 256,
                round_s: 1.0,
                trace_round_s: 3.7,
            },
            Workload::LossyResilient => Plan {
                agents: 256,
                warmup: 256,
                requests: 8192,
                trace_requests: 2000,
                catalog: 0,
                cache_capacity: 0,
                round_s: 0.5,
                trace_round_s: 0.7,
            },
        };
        if !smoke {
            return full;
        }
        Plan {
            agents: 16,
            warmup: full.warmup.min(32),
            requests: 64,
            trace_requests: 64,
            catalog: full.catalog.min(48),
            cache_capacity: full.cache_capacity.min(16),
            ..full
        }
    }

    /// The verifier panel of every shard.
    pub fn panel(self) -> &'static [VerifierBehavior] {
        match self {
            Workload::ZipfReplay => &ZIPF_PANEL,
            _ => &SMALL_PANEL,
        }
    }

    /// The reputation plane: adaptive gossip with decay on `zipf-replay`,
    /// isolated shards elsewhere.
    pub fn reputation(self) -> ReputationConfig {
        match self {
            Workload::ZipfReplay => ReputationConfig {
                policy: ReputationPolicy::Adaptive {
                    every: 64,
                    check_every: 16,
                    burst: 4,
                },
                vote_rule: VoteRule::Simple,
                decay: ReputationDecay::HalfLife { retention: 4 },
            },
            _ => ReputationConfig::default(),
        }
    }

    fn cache(self, plan: &Plan) -> CertCacheConfig {
        if plan.cache_capacity == 0 {
            CertCacheConfig::default()
        } else {
            CertCacheConfig::replay(plan.cache_capacity)
        }
    }

    /// The resilience budget (`lossy-resilient` only). The attempt cap is
    /// set above what the 4096-tick deadline admits (about 21 sends under
    /// the default backoff), so the deadline alone bounds retries. A round
    /// trip then fails all its tries with odds near 0.36^21 ≈ 5e-10 at 20%
    /// loss, so no request fails; capped at 16 tries, one consult in about
    /// three million measured starved.
    fn resilience(self, seed: u64) -> Option<ResilienceConfig> {
        (self == Workload::LossyResilient).then(|| ResilienceConfig {
            deadline: 4096,
            quorum: 2,
            max_attempts: 32,
            seed: derive(seed, RESILIENCE_SALT),
            ..ResilienceConfig::default()
        })
    }

    /// A fresh engine for one round. With `traced`, every transport site
    /// is wrapped so its calls record spans.
    pub fn engine(self, plan: &Plan, seed: u64, traced: bool) -> ShardedAuthority {
        let lossy = self == Workload::LossyResilient;
        let transport_for = |site: TransportSite| -> Arc<dyn Transport> {
            let inner: Arc<dyn Transport> = match site {
                TransportSite::Shard(shard) if lossy => Arc::new(SimNet::new(SimNetConfig {
                    seed: derive(seed, NET_SALT ^ ((shard as u64) << 32)),
                    default_link: LinkProfile {
                        latency_min: 1,
                        latency_max: 3,
                        drop_prob: 0.2,
                        duplicate_probability: 0.0,
                    },
                    ..SimNetConfig::default()
                })),
                _ => Arc::new(Bus::new()),
            };
            if traced {
                Arc::new(Traced::new(inner, site))
            } else {
                inner
            }
        };
        let engine = ShardedAuthority::with_transports(
            SHARDS,
            InventorBehavior::Honest,
            self.panel(),
            self.reputation(),
            self.cache(plan),
            &transport_for,
        );
        engine.set_resilience(self.resilience(seed));
        engine
    }
}

/// One round's generated requests.
pub struct Inputs {
    /// Untimed warm-up (or cache prime) requests.
    pub warmup: Vec<Request>,
    /// Timed requests; traced rounds use a prefix of them.
    pub timed: Vec<Request>,
}

impl Inputs {
    /// Generates `workload`'s requests from `seed`: the same seed gives the
    /// same requests.
    pub fn generate(workload: Workload, plan: &Plan, seed: u64) -> Inputs {
        let mut agent_stream = derive(seed, AGENT_SALT);
        let agents: Vec<u64> = (0..plan.agents)
            .map(|_| rand::splitmix64(&mut agent_stream))
            .collect();
        let mut pick_stream = derive(seed, PICK_SALT);
        let mut pick =
            || agents[(rand::splitmix64(&mut pick_stream) % agents.len() as u64) as usize];
        let small = small_specs();
        let catalog = catalog(plan.catalog, derive(seed, CATALOG_SALT));
        // Warm-up registers every recurring agent, cycling the specs.
        let cycled = |specs: &[Arc<GameSpec>]| -> Vec<Request> {
            (0..plan.warmup)
                .map(|i| {
                    (
                        agents[i % agents.len()],
                        Arc::clone(&specs[i % specs.len()]),
                    )
                })
                .collect()
        };
        match workload {
            Workload::SteadySmall | Workload::LossyResilient => Inputs {
                warmup: cycled(&small),
                timed: (0..plan.requests)
                    .map(|j| (pick(), Arc::clone(&small[j % small.len()])))
                    .collect(),
            },
            Workload::ChurnSmall => {
                let mut seen: HashSet<u64> = agents.iter().copied().collect();
                let mut fresh_stream = derive(seed, FRESH_SALT);
                let mut fresh = || loop {
                    let id = rand::splitmix64(&mut fresh_stream);
                    if seen.insert(id) {
                        return id;
                    }
                };
                // Past the recurring agents, warm-up agents are first
                // contacts too, so the timed stream registers into buses
                // that already route thousands of endpoints.
                let warmup = (0..plan.warmup)
                    .map(|i| {
                        let agent = agents.get(i).copied().unwrap_or_else(&mut fresh);
                        (agent, Arc::clone(&small[i % small.len()]))
                    })
                    .collect();
                Inputs {
                    warmup,
                    timed: (0..plan.requests)
                        .map(|j| (fresh(), Arc::clone(&small[j % small.len()])))
                        .collect(),
                }
            }
            Workload::ColdLarge => Inputs {
                warmup: cycled(&catalog),
                timed: (0..plan.requests)
                    .map(|j| (pick(), Arc::clone(&catalog[j % catalog.len()])))
                    .collect(),
            },
            Workload::ZipfReplay => {
                let zipf = Zipf::new(catalog.len(), ZIPF_EXPONENT);
                let mut zipf_stream = derive(seed, ZIPF_SALT);
                let warmup = (0..plan.warmup)
                    .map(|i| {
                        let rank = zipf.sample(&mut zipf_stream);
                        (agents[i % agents.len()], Arc::clone(&catalog[rank]))
                    })
                    .collect();
                let timed = (0..plan.requests)
                    .map(|_| {
                        let rank = zipf.sample(&mut zipf_stream);
                        (pick(), Arc::clone(&catalog[rank]))
                    })
                    .collect();
                Inputs { warmup, timed }
            }
        }
    }
}

/// The five paper-size specs of the session tests: one per `kernel_check`
/// arm (§3 strategic twice, §4 bimatrix, §5 participation, §6 links).
fn small_specs() -> Vec<Arc<GameSpec>> {
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

/// `size` distinct 16×16 coordination games. Game `k` pays both players
/// `offset + k + 1 + a` on the diagonal `(a, a)` and 0 elsewhere, so each
/// has its own spec digest. Solving one scans every profile's deviations;
/// checking a certificate reads one row and one column.
fn catalog(size: usize, mut stream: u64) -> Vec<Arc<GameSpec>> {
    let offset = rand::splitmix64(&mut stream) % (1 << 20);
    (0..size as u64)
        .map(|k| {
            let game = StrategicGame::from_payoff_fn(vec![16, 16], |profile| {
                let (a, b) = (profile.strategy_of(0), profile.strategy_of(1));
                let payoff = if a == b {
                    rat((offset + k + 1 + a as u64) as i64, 1)
                } else {
                    rat(0, 1)
                };
                vec![payoff.clone(), payoff]
            });
            Arc::new(GameSpec::Strategic(game))
        })
        .collect()
}

/// A Zipf(s) sampler over ranks `0..n`: rank `r` is drawn with probability
/// proportional to `1 / (r + 1)^s`.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Zipf {
        let mut total = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|rank| {
                total += 1.0 / ((rank + 1) as f64).powf(s);
                total
            })
            .collect();
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    fn sample(&self, stream: &mut u64) -> usize {
        let u = (rand::splitmix64(stream) >> 11) as f64 / (1u64 << 53) as f64;
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// The seed of round `round` of a run under `seed`: every round draws
/// fresh inputs, so a run's medians span several input sets.
pub fn round_seed(seed: u64, round: usize) -> u64 {
    derive(seed, ROUND_SALT + round as u64)
}

/// A stream state for `salt`'s share of `seed`.
fn derive(seed: u64, salt: u64) -> u64 {
    let mut state = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    rand::splitmix64(&mut state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::highest_supported_percentile;

    #[test]
    fn traced_passes_are_long_enough_for_p99() {
        for workload in Workload::ALL {
            let n = workload.plan(false).trace_requests;
            assert!(
                highest_supported_percentile(n) >= Some(99.0),
                "{}",
                workload.name()
            );
        }
    }

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        for workload in Workload::ALL {
            let plan = workload.plan(true);
            let [a, b, c] = [1, 1, 2].map(|seed| Inputs::generate(workload, &plan, seed));
            assert_eq!(a.warmup, b.warmup);
            assert_eq!(a.timed, b.timed);
            assert_ne!(a.timed, c.timed, "{}", workload.name());
        }
    }

    #[test]
    fn churn_agents_never_repeat() {
        let plan = Workload::ChurnSmall.plan(false);
        let inputs = Inputs::generate(Workload::ChurnSmall, &plan, 3);
        let mut agents: Vec<u64> = inputs
            .warmup
            .iter()
            .chain(&inputs.timed)
            .map(|r| r.0)
            .collect();
        let count = agents.len();
        agents.sort_unstable();
        agents.dedup();
        assert_eq!(agents.len(), count);
    }
}
