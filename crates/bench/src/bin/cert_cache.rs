//! Measures the content-addressed certificate cache under Zipf-distributed
//! game popularity: how much of a consultation stream the spec-digest
//! memoization absorbs, and what a hit costs next to the full Fig. 1
//! protocol.
//!
//! For each Zipf exponent `s ∈ {0.8, 1.1}` × catalog size `{64, 1k, 16k}`
//! × cache mode `{Replay, Trust}`, the same drawn consultation stream is
//! run through two 4-shard engines: a **cold** pass on a cache-disabled
//! engine (every consult pays the full protocol — the baseline the cache
//! is up against) and a **warm** pass on an engine with a shared
//! capacity-4096 cache primed by one untimed run of the identical
//! stream. Hit rates come from the engine's own `cache_stats()`
//! deltas; throughput is wall-clock consults/sec. Results go to
//! `results/cert_cache.csv` and, in the perf-trajectory format,
//! `BENCH_cert_cache.json` at the workspace root — the headline block is
//! the warm-over-cold Trust speedup on the Zipf(1.1)/1k-catalog stream,
//! and CI gates that stream's warm hit rate.
//!
//! Usage: `cargo run -p ra-bench --release --bin cert_cache [-- DRAWS]`
//! where `DRAWS` is the consultations per pass (default 4096; CI uses a
//! small value).

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ra_authority::{
    Bus, CacheMode, CertCacheConfig, GameSpec, InventorBehavior, ReputationConfig,
    ShardedAuthority, VerifierBehavior,
};
use ra_bench::{fmt_secs, timed, write_csv, write_json};
use ra_exact::rat;
use ra_games::StrategicGame;

const ZIPF_EXPONENTS: [f64; 2] = [0.8, 1.1];
const CATALOG_SIZES: [usize; 3] = [64, 1024, 16384];
const CACHE_CAPACITY: usize = 4096;
const SHARDS: usize = 4;

/// The catalog's `rank`-th game: a 16×16 coordination game whose diagonal
/// payoffs encode the rank, so every rank has a distinct canonical
/// encoding (and therefore a distinct spec digest). The size is the
/// point: *solving* scans every profile's deviations (O(k³) utility
/// lookups) while a cache hit reads the game's memoized spec digest and
/// probes the LRU — the game's first touch encodes and hashes its O(k²)
/// bytes once — the same verify-is-cheaper-than-compute asymmetry the
/// paper builds on, so the cache's win grows with the game.
fn catalog_game(rank: usize) -> GameSpec {
    GameSpec::Strategic(StrategicGame::from_payoff_fn(vec![16, 16], |profile| {
        let (a, b) = (profile.strategy_of(0), profile.strategy_of(1));
        let payoff = if a == b {
            rat((rank + 1 + a) as i64, 1)
        } else {
            rat(0, 1)
        };
        vec![payoff.clone(), payoff]
    }))
}

/// A Zipf(s) sampler over ranks `0..n` via a precomputed normalized CDF:
/// rank `r` is drawn with probability proportional to `1 / (r + 1)^s`.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0f64;
        for rank in 0..n {
            total += 1.0 / ((rank + 1) as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.random_range(0.0..=1.0);
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

struct PassResult {
    secs: f64,
    rate: f64,
    hit_rate: f64,
}

fn main() {
    let draws: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("draw count must be an integer"))
        .unwrap_or(4096);
    println!(
        "Certificate cache under Zipf popularity — {draws} draws per pass, \
         {SHARDS} shards, shared capacity-{CACHE_CAPACITY} cache:\n"
    );
    println!(
        "{:>7} {:>5} {:>8} {:>11} {:>15} {:>11} {:>15} {:>10}",
        "mode", "s", "catalog", "cold", "cold cons/s", "warm", "warm cons/s", "warm hit"
    );
    let mut rows = Vec::new();
    let mut json_entries = Vec::new();
    let mut headline = None;
    for mode in [CacheMode::Replay, CacheMode::Trust] {
        for s in ZIPF_EXPONENTS {
            for catalog_size in CATALOG_SIZES {
                let zipf = Zipf::new(catalog_size, s);
                // Seeded per configuration, so the stream is reproducible
                // and identical across the two modes.
                let mut rng =
                    StdRng::seed_from_u64(0xCAC4E ^ catalog_size as u64 ^ (s * 10.0) as u64);
                let ranks: Vec<usize> = (0..draws).map(|_| zipf.sample(&mut rng)).collect();
                let specs: Vec<GameSpec> = ranks.iter().map(|&r| catalog_game(r)).collect();
                let cache = CertCacheConfig {
                    enabled: true,
                    capacity: CACHE_CAPACITY,
                    mode,
                };
                let baseline = ShardedAuthority::new(
                    SHARDS,
                    InventorBehavior::Honest,
                    &[VerifierBehavior::Honest; 3],
                );
                let engine = ShardedAuthority::with_transports(
                    SHARDS,
                    InventorBehavior::Honest,
                    &[VerifierBehavior::Honest; 3],
                    ReputationConfig::default(),
                    cache,
                    &|_| Arc::new(Bus::new()),
                );
                let pass = |engine: &ShardedAuthority, baseline_hits: u64| {
                    let (_, secs) = timed(|| {
                        for (agent, spec) in specs.iter().enumerate() {
                            let outcome = engine.consult(agent as u64, spec);
                            assert!(outcome.adopted, "coordination games always adopt");
                        }
                    });
                    PassResult {
                        secs,
                        rate: draws as f64 / secs.max(1e-12),
                        hit_rate: (engine.cache_stats().hits - baseline_hits) as f64 / draws as f64,
                    }
                };
                // Cold: the cache-disabled engine, so every consult is
                // the full Fig. 1 protocol. Warm: prime the cached
                // engine with one untimed pass of the same stream, then
                // time the replayed stream against the populated cache.
                let cold = pass(&baseline, 0);
                let _prime = pass(&engine, 0);
                let warm = pass(&engine, engine.cache_stats().hits);
                let stats = engine.shard_stats();
                let mode_name = format!("{mode:?}");
                println!(
                    "{:>7} {:>5} {:>8} {:>11} {:>15.0} {:>11} {:>15.0} {:>10.3}",
                    mode_name,
                    s,
                    catalog_size,
                    fmt_secs(cold.secs),
                    cold.rate,
                    fmt_secs(warm.secs),
                    warm.rate,
                    warm.hit_rate
                );
                rows.push(format!(
                    "{mode_name},{s},{catalog_size},{draws},{:.9},{:.3},{:.6},{:.9},{:.3},{:.6},{},{},{},{},{}",
                    cold.secs,
                    cold.rate,
                    cold.hit_rate,
                    warm.secs,
                    warm.rate,
                    warm.hit_rate,
                    stats.cache.hits,
                    stats.cache.misses,
                    stats.cache.evictions,
                    stats.cache.replay_failures,
                    stats.frame_pool_misses
                ));
                json_entries.push(format!(
                    "{{\"mode\":\"{mode_name}\",\"zipf_s\":{s},\"catalog\":{catalog_size},\
                     \"draws\":{draws},\
                     \"cold_secs\":{:.9},\"cold_consults_per_sec\":{:.3},\
                     \"cold_hit_rate\":{:.6},\
                     \"warm_secs\":{:.9},\"warm_consults_per_sec\":{:.3},\
                     \"warm_hit_rate\":{:.6},\
                     \"hits\":{},\"misses\":{},\"evictions\":{},\
                     \"replay_failures\":{},\"frame_pool_misses\":{}}}",
                    cold.secs,
                    cold.rate,
                    cold.hit_rate,
                    warm.secs,
                    warm.rate,
                    warm.hit_rate,
                    stats.cache.hits,
                    stats.cache.misses,
                    stats.cache.evictions,
                    stats.cache.replay_failures,
                    stats.frame_pool_misses
                ));
                if mode == CacheMode::Trust && s == 1.1 && catalog_size == 1024 {
                    headline = Some((cold, warm));
                }
            }
        }
    }
    let (cold, warm) = headline.expect("the headline configuration always runs");
    let speedup = warm.rate / cold.rate.max(1e-12);
    println!(
        "\nheadline — Trust, Zipf(1.1), 1k catalog: warm {:.0} consults/sec over cold \
         {:.0} ({speedup:.1}x), warm hit rate {:.3}",
        warm.rate, cold.rate, warm.hit_rate
    );

    let csv_path = write_csv(
        "cert_cache",
        "mode,zipf_s,catalog,draws,cold_secs,cold_consults_per_sec,cold_hit_rate,\
         warm_secs,warm_consults_per_sec,warm_hit_rate,hits,misses,evictions,\
         replay_failures,frame_pool_misses",
        &rows,
    );
    let json_path = write_json(
        "BENCH_cert_cache",
        &format!(
            "{{\"bench\":\"cert_cache\",\"unit\":\"consults_per_sec\",\
             \"draws\":{draws},\"capacity\":{CACHE_CAPACITY},\"shards\":{SHARDS},\
             \"headline\":{{\"mode\":\"Trust\",\"zipf_s\":1.1,\"catalog\":1024,\
             \"cold_consults_per_sec\":{:.3},\"warm_consults_per_sec\":{:.3},\
             \"warm_hit_rate\":{:.6},\"warm_trust_over_cold\":{speedup:.3}}},\
             \"results\":[{}]}}",
            cold.rate,
            warm.rate,
            warm.hit_rate,
            json_entries.join(",")
        ),
    );
    println!("\nwrote {}", csv_path.display());
    println!("wrote {}", json_path.display());
}
