//! Open-loop load harness: Poisson and bursty arrivals from thousands of
//! simulated agents against a [`ShardedAuthority`], with per-shard bounded
//! queues and shed counters.
//!
//! Closed-loop benches (`shard_throughput`) issue the next consultation
//! only when the previous one finishes, so they can never observe queueing
//! delay — the failure mode that matters for the ROADMAP's "millions of
//! users" claim. Here arrivals are generated on a wall-clock schedule that
//! does not wait for service: a generator thread paces an arrival process
//! (exponential inter-arrivals for Poisson; fixed-size back-to-back bursts
//! with exponential gaps for bursty) and `try_send`s each request into the
//! bounded queue of its target shard worker. A full queue **sheds** the
//! request — counted, not blocked — exactly like an admission-controlled
//! front door. Workers drain their queue into `ShardedAuthority::consult`
//! and record sojourn time (arrival to completion), reported as
//! p50/p95/p99 per cell.
//!
//! Before the cells run, a closed-loop calibration measures the engine's
//! service capacity on this machine; arrival rates are then set relative
//! to it (a moderate cell below capacity, an overload cell above it), so
//! the harness exercises both the low-queueing and the shedding regimes
//! on any hardware.
//!
//! Results go to `results/load.csv` and, schema-gated in CI,
//! `BENCH_load.json` at the workspace root.
//!
//! Usage: `cargo run -p ra-bench --release --bin load [-- N]` where `N`
//! is the per-cell arrival budget (default 4000; CI uses a small value).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, TrySendError};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use ra_authority::{GameSpec, InventorBehavior, ShardedAuthority, VerifierBehavior};
use ra_bench::{percentile, timed, write_csv, write_json};
use ra_games::named::{battle_of_the_sexes, prisoners_dilemma, stag_hunt};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Engine shards, and with them harness workers/queues (one bounded
/// queue per shard worker).
const SHARDS: usize = 4;
/// Distinct simulated agents cycling through the arrival stream.
const AGENTS: u64 = 2000;
/// Bounded per-shard queue depth; a full queue sheds.
const QUEUE_CAP: usize = 64;
/// Arrivals per burst in the bursty process.
const BURST: u64 = 16;

/// One draw from Exp(rate): the Poisson process's inter-arrival gap.
fn exp_gap(rng: &mut StdRng, rate: f64) -> f64 {
    let u: f64 = rng.random_range(0.0..=1.0);
    -(1.0 - u).max(1e-12).ln() / rate
}

fn specs() -> Vec<Arc<GameSpec>> {
    vec![
        Arc::new(GameSpec::Strategic(prisoners_dilemma().to_strategic())),
        Arc::new(GameSpec::Bimatrix(battle_of_the_sexes())),
        Arc::new(GameSpec::Strategic(stag_hunt(3))),
    ]
}

/// Closed-loop capacity of the engine on this machine, in consults/sec:
/// the yardstick the open-loop arrival rates are set against.
fn calibrate(specs: &[Arc<GameSpec>], n: u64) -> f64 {
    let engine = ShardedAuthority::new(
        SHARDS,
        InventorBehavior::Honest,
        &[VerifierBehavior::Honest; 3],
    );
    let requests: Vec<(u64, Arc<GameSpec>)> = (0..n)
        .map(|i| {
            (
                i % AGENTS,
                Arc::clone(&specs[(i % specs.len() as u64) as usize]),
            )
        })
        .collect();
    let (outcomes, secs) = timed(|| engine.consult_batch(&requests));
    assert!(outcomes.iter().all(|o| o.adopted));
    n as f64 / secs.max(1e-12)
}

/// One measured cell of the harness.
struct Cell {
    process: &'static str,
    target_rate: f64,
    offered: u64,
    completed: u64,
    shed: u64,
    secs: f64,
    throughput: f64,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
}

/// Runs one open-loop cell: `total` arrivals from `process` at long-run
/// `rate`, against a fresh engine (so cache warmth and reputation state
/// never leak between cells).
fn run_cell(
    process: &'static str,
    rate: f64,
    total: u64,
    specs: &[Arc<GameSpec>],
    seed: u64,
) -> Cell {
    let engine = Arc::new(ShardedAuthority::new(
        SHARDS,
        InventorBehavior::Honest,
        &[VerifierBehavior::Honest; 3],
    ));
    let shed_count = Arc::new(AtomicU64::new(0));
    let mut queues = Vec::with_capacity(SHARDS);
    let mut workers = Vec::with_capacity(SHARDS);
    for _ in 0..SHARDS {
        let (tx, rx) = sync_channel::<(u64, Arc<GameSpec>, Instant)>(QUEUE_CAP);
        queues.push(tx);
        let engine = Arc::clone(&engine);
        workers.push(thread::spawn(move || {
            let mut sojourns_us = Vec::new();
            while let Ok((agent, spec, arrival)) = rx.recv() {
                engine.consult(agent, &spec);
                sojourns_us.push(arrival.elapsed().as_secs_f64() * 1e6);
            }
            sojourns_us
        }));
    }

    let mut rng = StdRng::seed_from_u64(seed);
    let start = Instant::now();
    // Absolute schedule in seconds since `start`: sleeping can overshoot,
    // but the schedule does not drift — a late generator catches up by
    // sending immediately, which is exactly open-loop semantics.
    let mut next_arrival = 0.0f64;
    let mut in_burst = 0u64;
    for i in 0..total {
        let now = start.elapsed().as_secs_f64();
        if next_arrival > now {
            thread::sleep(Duration::from_secs_f64(next_arrival - now));
        }
        let agent = rng.random_range(0..AGENTS);
        let spec = Arc::clone(&specs[(i % specs.len() as u64) as usize]);
        match queues[agent as usize % SHARDS].try_send((agent, spec, Instant::now())) {
            Ok(()) => {}
            Err(TrySendError::Full(_)) => {
                shed_count.fetch_add(1, Ordering::Relaxed);
            }
            Err(TrySendError::Disconnected(_)) => {
                unreachable!("workers outlive the generator")
            }
        }
        next_arrival += match process {
            "poisson" => exp_gap(&mut rng, rate),
            _ => {
                // Bursty: BURST back-to-back arrivals, then one
                // exponential gap with mean BURST/rate, so the long-run
                // rate still equals `rate`.
                in_burst += 1;
                if in_burst < BURST {
                    0.0
                } else {
                    in_burst = 0;
                    exp_gap(&mut rng, rate / BURST as f64)
                }
            }
        };
    }
    drop(queues);
    let mut sojourns_us: Vec<f64> = Vec::new();
    for w in workers {
        sojourns_us.extend(w.join().expect("worker panicked"));
    }
    let secs = start.elapsed().as_secs_f64();
    sojourns_us.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let completed = sojourns_us.len() as u64;
    let shed = shed_count.load(Ordering::Relaxed);
    assert_eq!(completed + shed, total, "every arrival completes or sheds");
    Cell {
        process,
        target_rate: rate,
        offered: total,
        completed,
        shed,
        secs,
        throughput: completed as f64 / secs.max(1e-12),
        p50_us: percentile(&sojourns_us, 0.50),
        p95_us: percentile(&sojourns_us, 0.95),
        p99_us: percentile(&sojourns_us, 0.99),
    }
}

fn main() {
    let total: u64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("arrival budget must be an integer"))
        .unwrap_or(4000);
    let specs = specs();
    let capacity = calibrate(&specs, total.clamp(200, 2000));
    println!(
        "Open-loop load — {SHARDS} shards, {AGENTS} simulated agents, queue depth \
         {QUEUE_CAP}, {total} arrivals per cell.\n\
         Closed-loop calibration: {capacity:.0} consults/sec.\n"
    );
    // One cell below capacity (queueing should be mild) and one above it
    // (the bounded queues must shed), for each arrival process.
    let rates = [("moderate", capacity * 0.6), ("overload", capacity * 1.5)];
    println!(
        "{:>8} {:>9} {:>12} {:>9} {:>9} {:>7} {:>12} {:>9} {:>9} {:>9}",
        "process",
        "regime",
        "rate/s",
        "offered",
        "completed",
        "shed",
        "thruput/s",
        "p50 µs",
        "p95 µs",
        "p99 µs"
    );
    let mut rows = Vec::new();
    let mut json_cells = Vec::new();
    for (ci, process) in ["poisson", "bursty"].into_iter().enumerate() {
        for (ri, (regime, rate)) in rates.iter().enumerate() {
            let cell = run_cell(
                process,
                *rate,
                total,
                &specs,
                0xC0FFEE + (ci * 2 + ri) as u64,
            );
            println!(
                "{:>8} {:>9} {:>12.0} {:>9} {:>9} {:>7} {:>12.0} {:>9.0} {:>9.0} {:>9.0}",
                cell.process,
                regime,
                cell.target_rate,
                cell.offered,
                cell.completed,
                cell.shed,
                cell.throughput,
                cell.p50_us,
                cell.p95_us,
                cell.p99_us
            );
            rows.push(format!(
                "{},{},{:.3},{},{},{},{:.6},{:.3},{:.1},{:.1},{:.1}",
                cell.process,
                regime,
                cell.target_rate,
                cell.offered,
                cell.completed,
                cell.shed,
                cell.secs,
                cell.throughput,
                cell.p50_us,
                cell.p95_us,
                cell.p99_us
            ));
            json_cells.push(format!(
                "{{\"process\":\"{}\",\"regime\":\"{}\",\"target_rate\":{:.3},\
                 \"offered\":{},\"completed\":{},\"shed\":{},\"secs\":{:.6},\
                 \"throughput_per_sec\":{:.3},\"p50_us\":{:.1},\"p95_us\":{:.1},\
                 \"p99_us\":{:.1}}}",
                cell.process,
                regime,
                cell.target_rate,
                cell.offered,
                cell.completed,
                cell.shed,
                cell.secs,
                cell.throughput,
                cell.p50_us,
                cell.p95_us,
                cell.p99_us
            ));
        }
    }
    let csv_path = write_csv(
        "load",
        "process,regime,target_rate,offered,completed,shed,secs,throughput,p50_us,p95_us,p99_us",
        &rows,
    );
    let json_path = write_json(
        "BENCH_load",
        &format!(
            "{{\"bench\":\"load\",\"unit\":\"microseconds\",\"shards\":{SHARDS},\
             \"agents\":{AGENTS},\"queue_capacity\":{QUEUE_CAP},\"burst\":{BURST},\
             \"arrivals_per_cell\":{total},\
             \"calibrated_capacity_per_sec\":{capacity:.3},\
             \"cells\":[{}]}}",
            json_cells.join(",")
        ),
    );
    println!("\nwrote {}", csv_path.display());
    println!("wrote {}", json_path.display());
    println!(
        "\nreading the numbers — in the moderate cells shed should be (near) zero and\n\
         the percentiles close to pure service time; in the overload cells the bounded\n\
         queues cap the percentiles while the shed counter absorbs the excess. A p99\n\
         blow-up in the moderate Poisson cell is the regression signal: it means the\n\
         consult path is serializing somewhere it should not."
    );
}
