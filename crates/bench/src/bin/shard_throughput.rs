//! Measures consultation throughput of the sharded session engine as the
//! shard count grows: the ROADMAP's "sharding/batching of verification
//! sessions across buses" scale goal, made a number.
//!
//! For each shard count in {1, 2, 4, 8} the same batch of consultations
//! (agents 0..N, cycling over cheap §3 and §4 game specs) is fanned out
//! with `ShardedAuthority::consult_batch`, and the wall-clock rate is
//! reported. A fixed 512-consult batch is also run over `Bus` and over a
//! lossless `SimNet` at 1 and 2 shards, so the two in-process backends
//! are measured against each other. Results go to
//! `results/shard_throughput.csv` and, in the machine-readable
//! perf-trajectory format, `BENCH_shard_throughput.json`.
//!
//! Usage: `cargo run -p ra-bench --release --bin shard_throughput [-- N]`
//! where `N` is the batch size (default 512; CI uses a small value).

use std::sync::Arc;

use ra_authority::{
    Bus, CertCacheConfig, GameSpec, InventorBehavior, ReputationConfig, ShardedAuthority, SimNet,
    Transport, TransportSite, VerifierBehavior,
};
use ra_bench::{fmt_secs, percentile, scenario_seed, timed, write_csv, write_json};
use ra_games::named::{battle_of_the_sexes, prisoners_dilemma, stag_hunt};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

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

/// Alternating repeats per backend in the Bus-vs-SimNet comparison.
const TRANSPORT_REPEATS: usize = 5;

/// Runs `requests` at 1 and 2 shards over `with_transports`, once with a
/// `Bus` per shard and once with a lossless `SimNet` per shard, in
/// `TRANSPORT_REPEATS` alternating pairs. Both backends register in O(1)
/// and share the ledger, so the ratio of their median rates compares
/// their send and settle paths. Returns one JSON cell per shard count.
///
/// # Panics
///
/// If any advice goes unadopted, or the two backends put different byte
/// totals on the wire (they are pinned byte-identical).
fn lossless_simnet_over_bus(requests: &[(u64, Arc<GameSpec>)]) -> Vec<String> {
    let seed = scenario_seed();
    let mut cells = Vec::new();
    for shards in [1usize, 2] {
        let mut rates = [Vec::new(), Vec::new()];
        let mut wire_bytes = [0usize; 2];
        for _ in 0..TRANSPORT_REPEATS {
            for (slot, lossless) in [(0, false), (1, true)] {
                let engine = ShardedAuthority::with_transports(
                    shards,
                    InventorBehavior::Honest,
                    &[VerifierBehavior::Honest; 3],
                    ReputationConfig::default(),
                    CertCacheConfig::default(),
                    &|site| -> Arc<dyn Transport> {
                        if !lossless {
                            return Arc::new(Bus::new());
                        }
                        let salt = match site {
                            TransportSite::Shard(s) => s as u64,
                            TransportSite::GossipHub => u64::MAX,
                        };
                        Arc::new(SimNet::lossless(seed ^ salt))
                    },
                );
                let (outcomes, secs) = timed(|| engine.consult_batch(requests));
                assert!(outcomes.iter().all(|o| o.adopted));
                rates[slot].push(requests.len() as f64 / secs.max(1e-12));
                wire_bytes[slot] = engine.total_bytes();
            }
        }
        assert_eq!(
            wire_bytes[0], wire_bytes[1],
            "a lossless SimNet is byte-identical to Bus"
        );
        let [bus, simnet] = rates.map(|mut r| {
            r.sort_by(f64::total_cmp);
            [r[0], percentile(&r, 0.5), r[r.len() - 1]]
        });
        let ratio = simnet[1] / bus[1].max(1e-12);
        println!(
            "lossless SimNet over Bus — {shards} shard(s), {} consultations: \
             {:.0} vs {:.0} consults/sec (median of {TRANSPORT_REPEATS}), {ratio:.2}x",
            requests.len(),
            simnet[1],
            bus[1]
        );
        let span = |[min, median, max]: [f64; 3]| {
            format!("{{\"min\":{min:.3},\"median\":{median:.3},\"max\":{max:.3}}}")
        };
        cells.push(format!(
            "{{\"shards\":{shards},\"bus_consults_per_sec\":{},\
             \"simnet_consults_per_sec\":{},\"ratio\":{ratio:.3},\"wire_bytes\":{}}}",
            span(bus),
            span(simnet),
            wire_bytes[0]
        ));
    }
    cells
}

fn main() {
    let batch_size: u64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("batch size must be an integer"))
        .unwrap_or(512);
    let requests = build_batch(batch_size);
    println!(
        "Sharded session engine — {batch_size} consultations per shard count, \
         honest inventor, 3 honest verifiers per shard:\n"
    );
    println!(
        "{:>7} {:>14} {:>16} {:>12} {:>12}",
        "shards", "wall time", "consults/sec", "adopted", "wire bytes"
    );
    let mut rows = Vec::new();
    let mut json_entries = Vec::new();
    for shards in SHARD_COUNTS {
        let engine = ShardedAuthority::new(
            shards,
            InventorBehavior::Honest,
            &[VerifierBehavior::Honest; 3],
        );
        let (outcomes, secs) = timed(|| engine.consult_batch(&requests));
        let adopted = outcomes.iter().filter(|o| o.adopted).count();
        assert_eq!(
            adopted,
            outcomes.len(),
            "honest infrastructure adopts everything"
        );
        let rate = batch_size as f64 / secs.max(1e-12);
        println!(
            "{:>7} {:>14} {:>16.0} {:>12} {:>12}",
            shards,
            fmt_secs(secs),
            rate,
            adopted,
            engine.total_bytes()
        );
        rows.push(format!(
            "{shards},{batch_size},{secs:.9},{rate:.3},{adopted},{}",
            engine.total_bytes()
        ));
        json_entries.push(format!(
            "{{\"shards\":{shards},\"consultations\":{batch_size},\"secs\":{secs:.9},\
             \"consults_per_sec\":{rate:.3},\"adopted\":{adopted},\"wire_bytes\":{}}}",
            engine.total_bytes()
        ));
    }
    // Fixed 512-consultation column, independent of the CLI batch size:
    // large batches are where the persistent worker pool pays off, so the
    // perf trajectory keeps a stable large-batch point even when CI
    // sweeps a small one. Measured at 1 shard and at 8 so the column
    // carries its own scaling ratio — the number the ROADMAP (and the CI
    // scaling gate) watches.
    const BIG_BATCH: u64 = 512;
    let big_requests = build_batch(BIG_BATCH);
    let mut big_rates = [0.0f64; 2];
    let mut big_secs = 0.0f64;
    for (slot, shards) in [(0, 1usize), (1, 8)] {
        let engine = ShardedAuthority::new(
            shards,
            InventorBehavior::Honest,
            &[VerifierBehavior::Honest; 3],
        );
        let (outcomes, secs) = timed(|| engine.consult_batch(&big_requests));
        assert!(outcomes.iter().all(|o| o.adopted));
        big_rates[slot] = BIG_BATCH as f64 / secs.max(1e-12);
        if shards == 8 {
            big_secs = secs;
        }
        println!(
            "\nbatch_512 column — {shards} shard(s), {BIG_BATCH} consultations: {} at \
             {:.0} consults/sec",
            fmt_secs(secs),
            big_rates[slot]
        );
        rows.push(format!(
            "{shards},{BIG_BATCH},{secs:.9},{:.3},{},{}",
            big_rates[slot],
            outcomes.len(),
            engine.total_bytes()
        ));
    }
    let scaling = big_rates[1] / big_rates[0].max(1e-12);
    let transport_cells = lossless_simnet_over_bus(&big_requests);
    // On a single-core machine the 8-over-1 ratio is meaningless (the
    // worker pool just time-slices), so the JSON records the core count
    // and the CI scaling gate skips when it reads 1.
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("batch_512 scaling, 8 shards over 1: {scaling:.2}x ({cores} core(s))");

    let csv_path = write_csv(
        "shard_throughput",
        "shards,consultations,secs,consults_per_sec,adopted,wire_bytes",
        &rows,
    );
    let json_path = write_json(
        "BENCH_shard_throughput",
        &format!(
            "{{\"bench\":\"shard_throughput\",\"unit\":\"consults_per_sec\",\
             \"batch_size\":{batch_size},\
             \"batch_512\":{{\"shards\":8,\"consultations\":{BIG_BATCH},\
             \"secs\":{big_secs:.9},\"consults_per_sec\":{:.3},\
             \"one_shard_consults_per_sec\":{:.3},\
             \"scaling_8x_over_1x\":{scaling:.3},\"cores\":{cores}}},\
             \"lossless_simnet_over_bus\":{{\"consultations\":{BIG_BATCH},\
             \"repeats\":{TRANSPORT_REPEATS},\"cells\":[{}]}},\
             \"results\":[{}]}}",
            big_rates[1],
            big_rates[0],
            transport_cells.join(","),
            json_entries.join(",")
        ),
    );
    println!("\nwrote {}", csv_path.display());
    println!("wrote {}", json_path.display());
    println!(
        "\nroadmap check — outcomes are shard-count-independent (deterministic routing\n\
         and per-shard ordering); throughput should scale with shards until the batch\n\
         or the hardware runs out of parallelism."
    );
}
