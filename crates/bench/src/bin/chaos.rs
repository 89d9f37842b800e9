//! Chaos soak over [`SimNet`]: the resilient consultation protocol
//! (deadline budget, retransmit/backoff, quorum degradation) swept across
//! a loss × latency × deadline grid, on the virtual clock.
//!
//! Each cell is a fresh seeded network carrying a full [`RationalityAuthority`]
//! — honest inventor, honest panel of three, `quorum = 2` — driven through a
//! soak of consultations via `try_consult`. Per cell the soak reports:
//!
//! - **completion rate** — consults that returned `Ok` (full or degraded)
//!   over the soak size; the headline robustness number.
//! - **degraded rate** — `Ok` closes that settled at quorum rather than the
//!   full panel.
//! - **attempt tail** — p50/p99 of per-session send attempts, the latency
//!   proxy on a virtual clock.
//! - **retransmit overhead** — the ledger's retransmit-byte share of total
//!   accounted bytes, i.e. what loss costs beyond Lemma 1 goodput.
//!
//! The moderate cell — 20% per-link loss, LAN latency, default deadline —
//! is the CI gate: its completion rate must hold at or above 99%. The bin
//! asserts this itself so a local run fails the same way CI does.
//!
//! The seed comes from `RA_SCENARIO_SEED` (decimal) when set — the same
//! replay handle the scenario suite uses — and defaults to the same fixed
//! campaign seed.
//!
//! Results go to `results/chaos.csv` and, schema-gated in CI,
//! `BENCH_chaos.json` at the workspace root.
//!
//! Usage: `cargo run -p ra-bench --release --bin chaos [-- N]` where `N`
//! is the consults-per-cell soak budget (default 64).

use std::sync::Arc;

use ra_authority::{
    GameSpec, Inventor, InventorBehavior, LinkProfile, LocalReputation, PanelOutcome,
    RationalityAuthority, ResilienceConfig, SimNet, SimNetConfig, Transport, VerifierBehavior,
};
use ra_bench::{percentile, scenario_seed, write_csv, write_json};
use ra_games::named::prisoners_dilemma;

/// One measured soak cell.
struct ChaosCell {
    latency: &'static str,
    loss: f64,
    deadline: u64,
    consults: u64,
    completed: u64,
    degraded: u64,
    p50_attempts: u64,
    p99_attempts: u64,
    goodput_bytes: usize,
    retransmit_bytes: usize,
    total_bytes: usize,
}

impl ChaosCell {
    fn completion_rate(&self) -> f64 {
        self.completed as f64 / self.consults as f64
    }

    fn degraded_rate(&self) -> f64 {
        self.degraded as f64 / self.consults as f64
    }

    fn retransmit_share(&self) -> f64 {
        if self.total_bytes == 0 {
            return 0.0;
        }
        self.retransmit_bytes as f64 / self.total_bytes as f64
    }
}

/// Runs one soak cell: `consults` resilient consultations over a fresh
/// seeded network with per-link loss `loss` and the given latency window,
/// under a per-session deadline budget of `deadline` virtual ticks.
fn run_cell(
    latency: &'static str,
    window: (u64, u64),
    loss: f64,
    deadline: u64,
    consults: u64,
    cell_seed: u64,
) -> ChaosCell {
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
    for agent in 0..consults {
        match authority.try_consult(agent, &spec) {
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
    ChaosCell {
        latency,
        loss,
        deadline,
        consults,
        completed,
        degraded,
        p50_attempts: percentile(&attempts, 0.50),
        p99_attempts: percentile(&attempts, 0.99),
        goodput_bytes: net.goodput_bytes(),
        retransmit_bytes: net.retransmit_bytes(),
        total_bytes: net.total_bytes(),
    }
}

fn main() {
    let consults: u64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("soak budget must be an integer"))
        .unwrap_or(64);
    let seed = scenario_seed();
    println!("Chaos soak over SimNet — seed {seed}, {consults} consults per cell.\n");

    let latencies = [("lan", (1, 3)), ("wan", (8, 24))];
    let losses = [0.0, 0.05, 0.20, 0.35];
    let deadlines = [512, 4096];
    let moderate = ("lan", 0.20, 4096u64);

    println!(
        "{:>6} {:>6} {:>9} {:>11} {:>9} {:>8} {:>8} {:>12} {:>12}",
        "link",
        "loss",
        "deadline",
        "completion",
        "degraded",
        "p50 att",
        "p99 att",
        "retx B",
        "total B"
    );
    let mut rows = Vec::new();
    let mut cells_json = Vec::new();
    let mut moderate_rate = None;
    for (li, &(latency, window)) in latencies.iter().enumerate() {
        for (fi, &loss) in losses.iter().enumerate() {
            for (di, &deadline) in deadlines.iter().enumerate() {
                let salt = (li * 64 + fi * 8 + di) as u64;
                let cell = run_cell(latency, window, loss, deadline, consults, seed ^ salt);
                println!(
                    "{:>6} {:>6.2} {:>9} {:>11.4} {:>9.4} {:>8} {:>8} {:>12} {:>12}",
                    cell.latency,
                    cell.loss,
                    cell.deadline,
                    cell.completion_rate(),
                    cell.degraded_rate(),
                    cell.p50_attempts,
                    cell.p99_attempts,
                    cell.retransmit_bytes,
                    cell.total_bytes
                );
                if (cell.latency, cell.loss, cell.deadline) == moderate {
                    moderate_rate = Some(cell.completion_rate());
                }
                rows.push(format!(
                    "{},{:.2},{},{},{},{},{},{},{},{},{}",
                    cell.latency,
                    cell.loss,
                    cell.deadline,
                    cell.consults,
                    cell.completed,
                    cell.degraded,
                    cell.p50_attempts,
                    cell.p99_attempts,
                    cell.goodput_bytes,
                    cell.retransmit_bytes,
                    cell.total_bytes
                ));
                cells_json.push(format!(
                    "{{\"latency\":\"{}\",\"loss\":{:.2},\"deadline\":{},\
                     \"consults\":{},\"completed\":{},\"degraded\":{},\
                     \"completion_rate\":{:.4},\"degraded_rate\":{:.4},\
                     \"p50_attempts\":{},\"p99_attempts\":{},\
                     \"goodput_bytes\":{},\"retransmit_bytes\":{},\
                     \"total_bytes\":{},\"retransmit_share\":{:.4}}}",
                    cell.latency,
                    cell.loss,
                    cell.deadline,
                    cell.consults,
                    cell.completed,
                    cell.degraded,
                    cell.completion_rate(),
                    cell.degraded_rate(),
                    cell.p50_attempts,
                    cell.p99_attempts,
                    cell.goodput_bytes,
                    cell.retransmit_bytes,
                    cell.total_bytes,
                    cell.retransmit_share()
                ));
            }
        }
    }

    let moderate_rate = moderate_rate.expect("the moderate cell is in the grid");
    assert!(
        moderate_rate >= 0.99,
        "moderate cell (20% loss, lan, deadline 4096) completed {moderate_rate:.4} < 0.99"
    );

    let csv_path = write_csv(
        "chaos",
        "latency,loss,deadline,consults,completed,degraded,p50_attempts,p99_attempts,goodput_bytes,retransmit_bytes,total_bytes",
        &rows,
    );
    let json_path = write_json(
        "BENCH_chaos",
        &format!(
            "{{\"bench\":\"chaos\",\"unit\":\"virtual_ticks\",\"seed\":{seed},\
             \"consults_per_cell\":{consults},\
             \"moderate_cell\":{{\"latency\":\"lan\",\"loss\":0.20,\"deadline\":4096,\
             \"completion_rate\":{moderate_rate:.4}}},\
             \"cells\":[{}]}}",
            cells_json.join(",")
        ),
    );
    println!("\nwrote {}", csv_path.display());
    println!("wrote {}", json_path.display());
    println!(
        "\nreading the numbers — zero-loss cells must complete 100% with zero\n\
         retransmit bytes and attempt counts pinned at zero; under loss the\n\
         backoff schedule converts drops into retries, so completion holds near\n\
         1.0 while the retransmit share and p99 attempts grow with the loss\n\
         rate. The short deadline trades completion for promptness: cells that\n\
         fail there fail with a typed deadline error, never a silent minority\n\
         vote. The moderate cell (20% loss) is the CI gate at >= 0.99."
    );
}
