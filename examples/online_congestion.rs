//! Online congestion (§6): greedy vs the inventor's verified advice.
//!
//! First the Fig. 6 story — why greedy arrival-time best-replies disappoint
//! in hindsight — then a parallel-links run where every arriving agent
//! verifies the inventor's advice certificate before obeying it, and a
//! mini Fig. 7 sweep.
//!
//! Run with: `cargo run --example online_congestion --release`

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rationality_authority::congestion::{
    fig6_outcome, greedy_assign, inventor_assign, run_fig7, Fig7Config,
};
use rationality_authority::exact::Rational;
use rationality_authority::proofs::{verify_online_advice, OnlineInstance};
use rationality_authority::solvers::honest_online_advice;

fn main() {
    // ---- Fig. 6 ----------------------------------------------------------
    println!("Fig. 6 — greedy is not hindsight-optimal (identity delays, unit loads):");
    for k in [1u64, 5, 20] {
        let (experienced, hindsight) = fig6_outcome(k);
        println!(
            "  k = {k:>2}: greedy agent ends with delay {experienced}, \
             hindsight best-reply {hindsight}"
        );
    }

    // ---- One verified online run ------------------------------------------
    println!("\nParallel links: 20 agents, 4 links, every advice verified:");
    let mut rng = StdRng::seed_from_u64(42);
    let loads: Vec<u64> = (0..20).map(|_| rng.random_range(0..=1000)).collect();
    let mut link_loads = vec![Rational::zero(); 4];
    let mut observed = 0u64;
    for (i, &w) in loads.iter().enumerate() {
        observed += w;
        let average = Rational::new(observed as i64, (i + 1) as i64);
        let own = Rational::from(w as i64);
        let instance = OnlineInstance {
            current_loads: &link_loads,
            own_load: &own,
            expected_future_load: &average,
            expected_future_agents: loads.len() - i - 1,
        };
        let cert = honest_online_advice(&instance).expect("the instance has links");
        // The agent trusts nothing: it checks the Nash property of the
        // shipped assignment against the instance it holds before moving.
        let verified = verify_online_advice(&instance, &cert).expect("honest certificate verifies");
        link_loads[verified.link] = &link_loads[verified.link] + &own;
        if i < 3 || i == loads.len() - 1 {
            println!(
                "  agent {i:>2} (load {w:>4}): verified advice -> link {} \
                 (predicted delay {})",
                verified.link, verified.predicted_own_delay
            );
        } else if i == 3 {
            println!("  ...");
        }
    }
    let final_makespan = link_loads.iter().max().unwrap();
    let greedy = greedy_assign(&loads, 4).makespan();
    let inventor = inventor_assign(&loads, 4).makespan();
    println!("  final makespan (advised): {final_makespan}");
    println!("  greedy would have ended at {greedy}, pure-inventor at {inventor}");

    // ---- Mini Fig. 7 -------------------------------------------------------
    println!("\nMini Fig. 7 (300 agents, 30 iterations/point):");
    let config = Fig7Config {
        num_agents: 300,
        load_range: (0, 1000),
        link_counts: vec![2, 10, 40, 120],
        iterations: 30,
        seed: 2011,
    };
    println!(
        "  {:>5} {:>22} {:>18} {:>8}",
        "m", "inventor better (%)", "greedy better (%)", "ties (%)"
    );
    for point in run_fig7(&config) {
        println!(
            "  {:>5} {:>22.1} {:>18.1} {:>8.1}",
            point.m,
            point.inventor_strictly_better_pct,
            point.greedy_strictly_better_pct,
            point.tie_pct
        );
    }
    println!("\nRun `cargo run -p ra-bench --release --bin fig7` for the full paper sweep.");
}
