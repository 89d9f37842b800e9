//! The Fig. 7 experiment harness.
//!
//! Paper setup: 1000 agents, loads uniform in `[0, 1000]`, `m = 2..500`
//! equispeed parallel links. For each `m`, run many iterations; in each,
//! compare the final makespan when every agent follows the inventor's
//! statistics-informed advice against the greedy (least-loaded) strategy,
//! and report the percentage of iterations in which the advised assignment
//! is *strictly* better. The paper's chart rises from ~60% at tiny `m`
//! toward ~100% for large `m`, with isolated reversals (Remark 4).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::parallel::{greedy_assign, inventor_assign};

/// Configuration of a Fig. 7 run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fig7Config {
    /// Number of agents per iteration (paper: 1000).
    pub num_agents: usize,
    /// Inclusive load range (paper: 0..=1000).
    pub load_range: (u64, u64),
    /// Link counts to sweep (paper: 2..=500).
    pub link_counts: Vec<usize>,
    /// Iterations per link count.
    pub iterations: usize,
    /// Base RNG seed; every (m, iteration) derives its own stream.
    pub seed: u64,
}

impl Fig7Config {
    /// The paper's exact parameters (1000 agents, `m = 2..500`). At 100
    /// iterations per point this takes a while; see [`Fig7Config::quick`]
    /// for a sparse sweep.
    pub fn paper() -> Fig7Config {
        Fig7Config {
            num_agents: 1000,
            load_range: (0, 1000),
            link_counts: (2..=500).collect(),
            iterations: 100,
            seed: 2011,
        }
    }

    /// A sparse sweep reproducing the curve's shape in seconds.
    pub fn quick() -> Fig7Config {
        Fig7Config {
            num_agents: 1000,
            load_range: (0, 1000),
            link_counts: vec![
                2, 5, 10, 25, 42, 92, 142, 192, 242, 292, 332, 342, 392, 442, 492,
            ],
            iterations: 100,
            seed: 2011,
        }
    }
}

/// One point of the Fig. 7 series.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Fig7Point {
    /// Number of links `m`.
    pub m: usize,
    /// Percentage of iterations where the inventor's final makespan is
    /// strictly smaller than greedy's (the paper's y-axis).
    pub inventor_strictly_better_pct: f64,
    /// Percentage where greedy is strictly better (Remark 4's reversals).
    pub greedy_strictly_better_pct: f64,
    /// Percentage of exact ties.
    pub tie_pct: f64,
    /// Mean makespan ratio greedy / inventor across iterations.
    pub mean_makespan_ratio: f64,
}

/// Runs one Fig. 7 iteration; returns `(greedy makespan, inventor makespan)`.
pub fn fig7_iteration(
    num_agents: usize,
    load_range: (u64, u64),
    m: usize,
    rng: &mut StdRng,
) -> (u64, u64) {
    let loads: Vec<u64> = (0..num_agents)
        .map(|_| rng.random_range(load_range.0..=load_range.1))
        .collect();
    let greedy = greedy_assign(&loads, m).makespan();
    let inventor = inventor_assign(&loads, m).makespan();
    (greedy, inventor)
}

/// Runs the full experiment, one point per link count, parallelised across
/// link counts with scoped threads (worker count scaled to the available
/// parallelism). Every point is seeded independently, so the results do
/// not depend on which worker computes which point.
pub fn run_fig7(config: &Fig7Config) -> Vec<Fig7Point> {
    let num_workers = std::thread::available_parallelism()
        .map_or(4, |n| n.get())
        .min(16);
    let next = std::sync::atomic::AtomicUsize::new(0);
    let results_cell: Vec<std::sync::Mutex<Option<Fig7Point>>> = config
        .link_counts
        .iter()
        .map(|_| std::sync::Mutex::new(None))
        .collect();
    std::thread::scope(|scope| {
        for _ in 0..num_workers {
            scope.spawn(|| loop {
                let idx = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if idx >= config.link_counts.len() {
                    break;
                }
                let m = config.link_counts[idx];
                *results_cell[idx].lock().expect("result lock poisoned") =
                    Some(run_point(config, m));
            });
        }
    });
    results_cell
        .into_iter()
        .map(|cell| {
            cell.into_inner()
                .expect("result lock poisoned")
                .expect("every point computed")
        })
        .collect()
}

fn run_point(config: &Fig7Config, m: usize) -> Fig7Point {
    let mut inventor_wins = 0usize;
    let mut greedy_wins = 0usize;
    let mut ties = 0usize;
    let mut ratio_sum = 0.0f64;
    for iter in 0..config.iterations {
        // Independent, reproducible stream per (m, iteration).
        let mut rng = StdRng::seed_from_u64(
            config.seed ^ (m as u64).wrapping_mul(0x9e3779b97f4a7c15) ^ iter as u64,
        );
        let (greedy, inventor) = fig7_iteration(config.num_agents, config.load_range, m, &mut rng);
        match inventor.cmp(&greedy) {
            std::cmp::Ordering::Less => inventor_wins += 1,
            std::cmp::Ordering::Greater => greedy_wins += 1,
            std::cmp::Ordering::Equal => ties += 1,
        }
        ratio_sum += greedy as f64 / inventor.max(1) as f64;
    }
    let total = config.iterations as f64;
    Fig7Point {
        m,
        inventor_strictly_better_pct: 100.0 * inventor_wins as f64 / total,
        greedy_strictly_better_pct: 100.0 * greedy_wins as f64 / total,
        tie_pct: 100.0 * ties as f64 / total,
        mean_makespan_ratio: ratio_sum / total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iteration_is_deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(5);
        let mut b = StdRng::seed_from_u64(5);
        assert_eq!(
            fig7_iteration(100, (0, 1000), 10, &mut a),
            fig7_iteration(100, (0, 1000), 10, &mut b)
        );
    }

    #[test]
    fn small_run_shape() {
        // Scaled-down experiment: the inventor should already win most
        // iterations at moderate m (the paper's qualitative claim).
        let config = Fig7Config {
            num_agents: 200,
            load_range: (0, 1000),
            link_counts: vec![2, 40],
            iterations: 30,
            seed: 7,
        };
        let points = run_fig7(&config);
        assert_eq!(points.len(), 2);
        for p in &points {
            let total = p.inventor_strictly_better_pct + p.greedy_strictly_better_pct + p.tie_pct;
            assert!((total - 100.0).abs() < 1e-9);
        }
        let at_m40 = points.iter().find(|p| p.m == 40).unwrap();
        assert!(
            at_m40.inventor_strictly_better_pct >= 60.0,
            "inventor wins {}% at m = 40",
            at_m40.inventor_strictly_better_pct
        );
        assert!(at_m40.mean_makespan_ratio >= 1.0);
    }

    #[test]
    fn run_is_reproducible() {
        let config = Fig7Config {
            num_agents: 100,
            load_range: (0, 1000),
            link_counts: vec![5, 15],
            iterations: 10,
            seed: 99,
        };
        assert_eq!(run_fig7(&config), run_fig7(&config));
    }
}
