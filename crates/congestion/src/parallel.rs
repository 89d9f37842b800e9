//! Parallel-links load balancing (§6, "Greedy Strategies for Parallel
//! Links").
//!
//! `m` identical (equispeed) links from `s` to `t`; agent `i` arrives with
//! load `w_i` and irrevocably picks a link. Two strategies compete:
//!
//! * **greedy** — take the least-loaded link at arrival (Lemma 2 gives the
//!   `(2 − 1/m)·OPT` makespan guarantee);
//! * **inventor advice** — compute a Nash (LPT) assignment of your own load
//!   plus the `n − i` expected future loads onto the current link loads, and
//!   take the link your load received.
//!
//! Loads are integers (the Fig. 7 workload draws uniformly from
//! `[0, 1000]`), so makespans are exact `u64`s and the greedy-vs-inventor
//! comparison has no floating-point ambiguity.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// An assignment of a load sequence to links.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Assignment {
    /// Link chosen for each load, in input order.
    pub link_of: Vec<usize>,
    /// Final total load per link.
    pub link_loads: Vec<u64>,
}

impl Assignment {
    /// The makespan: maximum final link load.
    pub fn makespan(&self) -> u64 {
        self.link_loads.iter().copied().max().unwrap_or(0)
    }
}

/// Greedy online assignment: each load (in arrival order) goes to the
/// currently least-loaded link, ties to the lowest index.
///
/// # Panics
///
/// Panics if `m == 0`.
pub fn greedy_assign(loads: &[u64], m: usize) -> Assignment {
    assert!(m > 0, "need at least one link");
    let mut link_loads = vec![0u64; m];
    // Min-heap of (load, link index) — O(n log m).
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = (0..m).map(|j| Reverse((0u64, j))).collect();
    let mut link_of = Vec::with_capacity(loads.len());
    for &w in loads {
        let Reverse((load, j)) = heap.pop().expect("heap never empties");
        link_of.push(j);
        let new_load = load + w;
        link_loads[j] = new_load;
        heap.push(Reverse((new_load, j)));
    }
    Assignment {
        link_of,
        link_loads,
    }
}

/// Offline LPT (longest processing time) assignment: sort descending, then
/// greedy. The classic `(4/3 − 1/(3m))·OPT` heuristic; also the shape of the
/// inventor's equilibrium assignment.
///
/// # Panics
///
/// Panics if `m == 0`.
pub fn lpt_assign(loads: &[u64], m: usize) -> Assignment {
    assert!(m > 0, "need at least one link");
    let mut order: Vec<usize> = (0..loads.len()).collect();
    order.sort_by(|&a, &b| loads[b].cmp(&loads[a]).then(a.cmp(&b)));
    let mut link_loads = vec![0u64; m];
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = (0..m).map(|j| Reverse((0u64, j))).collect();
    let mut link_of = vec![0usize; loads.len()];
    for idx in order {
        let Reverse((load, j)) = heap.pop().expect("heap never empties");
        link_of[idx] = j;
        let new_load = load + loads[idx];
        link_loads[j] = new_load;
        heap.push(Reverse((new_load, j)));
    }
    Assignment {
        link_of,
        link_loads,
    }
}

/// The inventor's advice for one arriving agent (§6): LPT-assign the agent's
/// own load plus `future_agents` copies of the expected future load onto the
/// current link loads, and return the link the agent's own load received.
///
/// The expected future load is the running average `observed_sum /
/// observations`. Every load is scaled by `observations` (in `u128`, where
/// no `u64` product overflows), so the computation is exact and gives the
/// advice of `ra_solvers::honest_online_advice` on the same instance, ties
/// included: loads go greatest first, the agent's own before equal future
/// loads, each onto the least-loaded link (the lowest index on ties). The
/// own load's link is the answer, so only the future loads above it are
/// placed at all.
///
/// # Panics
///
/// Panics if `current_loads` is empty or `observations` is zero, or if a
/// scaled link load passes `u128::MAX` (which takes loads and observation
/// counts near `u64::MAX`).
pub fn inventor_suggested_link(
    current_loads: &[u64],
    own_load: u64,
    observed_sum: u64,
    observations: u64,
    future_agents: usize,
) -> usize {
    assert!(!current_loads.is_empty(), "need at least one link");
    assert!(observations > 0, "an average needs an observation");
    let scale = u128::from(observations);
    let mut heap: BinaryHeap<Reverse<(u128, usize)>> = current_loads
        .iter()
        .enumerate()
        .map(|(j, &l)| Reverse((u128::from(l) * scale, j)))
        .collect();
    let future = u128::from(observed_sum);
    if future > u128::from(own_load) * scale {
        for _ in 0..future_agents {
            let mut least = heap.peek_mut().expect("at least one link");
            least.0 .0 = least
                .0
                 .0
                .checked_add(future)
                .expect("scaled load fits u128");
        }
    }
    let Reverse((_, link)) = heap.peek().expect("at least one link");
    *link
}

/// Runs the full §6 online process with every agent obeying the inventor
/// (`p = 1` in the paper's obedience model): the inventor maintains the
/// running average of observed loads and advises each arrival.
///
/// # Panics
///
/// Panics if `m == 0`.
pub fn inventor_assign(loads: &[u64], m: usize) -> Assignment {
    assert!(m > 0, "need at least one link");
    let n = loads.len();
    let mut link_loads = vec![0u64; m];
    let mut link_of = Vec::with_capacity(n);
    let mut observed_sum: u64 = 0;
    for (i, &w) in loads.iter().enumerate() {
        observed_sum += w;
        // The expected future load is the average of the loads seen so far
        // (w_1..w_i, including the arrival).
        let link = inventor_suggested_link(&link_loads, w, observed_sum, (i + 1) as u64, n - i - 1);
        link_of.push(link);
        link_loads[link] += w;
    }
    Assignment {
        link_of,
        link_loads,
    }
}

/// Mixed-obedience play (§6's model): each agent independently follows the
/// inventor's advice with probability `p`, otherwise plays greedy.
///
/// # Panics
///
/// Panics if `m == 0` or `p ∉ [0, 1]`.
pub fn mixed_obedience_assign(
    loads: &[u64],
    m: usize,
    p: f64,
    rng: &mut dyn rand::RngCore,
) -> Assignment {
    use rand::Rng;
    assert!(m > 0, "need at least one link");
    assert!((0.0..=1.0).contains(&p), "obedience probability in [0,1]");
    let n = loads.len();
    let mut link_loads = vec![0u64; m];
    let mut link_of = Vec::with_capacity(n);
    let mut observed_sum: u64 = 0;
    for (i, &w) in loads.iter().enumerate() {
        observed_sum += w;
        let link = if rng.random_bool(p) {
            inventor_suggested_link(&link_loads, w, observed_sum, (i + 1) as u64, n - i - 1)
        } else {
            (0..m).min_by_key(|&j| (link_loads[j], j)).expect("m > 0")
        };
        link_of.push(link);
        link_loads[link] += w;
    }
    Assignment {
        link_of,
        link_loads,
    }
}

/// The standard lower bound on the optimum makespan:
/// `max(⌈Σw / m⌉, max w)`.
pub fn opt_makespan_lower_bound(loads: &[u64], m: usize) -> u64 {
    let total: u64 = loads.iter().sum();
    let avg_ceil = total.div_ceil(m as u64);
    let max_load = loads.iter().copied().max().unwrap_or(0);
    avg_ceil.max(max_load)
}

/// Exact optimum makespan by branch-and-bound — exponential, for small
/// instances (tests of Lemma 2's tightness).
///
/// # Panics
///
/// Panics if `m == 0` or the instance is large (`loads.len() > 16`).
pub fn opt_makespan_exact(loads: &[u64], m: usize) -> u64 {
    assert!(m > 0, "need at least one link");
    assert!(loads.len() <= 16, "exact OPT limited to 16 loads");
    let mut sorted: Vec<u64> = loads.to_vec();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let mut best = lpt_assign(loads, m).makespan();
    let lower = opt_makespan_lower_bound(loads, m);
    let mut links = vec![0u64; m];
    fn rec(sorted: &[u64], idx: usize, links: &mut Vec<u64>, best: &mut u64, lower: u64) {
        if *best == lower {
            return; // provably optimal already
        }
        if idx == sorted.len() {
            let mk = links.iter().copied().max().unwrap_or(0);
            if mk < *best {
                *best = mk;
            }
            return;
        }
        let w = sorted[idx];
        let mut seen = std::collections::HashSet::new();
        for j in 0..links.len() {
            if !seen.insert(links[j]) {
                continue; // symmetric branch
            }
            if links[j] + w >= *best {
                continue; // bound
            }
            links[j] += w;
            rec(sorted, idx + 1, links, best, lower);
            links[j] -= w;
        }
    }
    rec(&sorted, 0, &mut links, &mut best, lower);
    best
}

/// Checks Lemma 2: every greedy assignment satisfies
/// `makespan ≤ (2 − 1/m)·OPT`. Uses the exact OPT when feasible, otherwise
/// the lower bound (which only makes the check stricter on the greedy side
/// being *compared against a smaller denominator*, i.e. the inequality
/// `greedy ≤ (2 − 1/m)·lower_bound ≤ (2 − 1/m)·OPT` is the strong form).
pub fn greedy_satisfies_lemma2(loads: &[u64], m: usize) -> bool {
    let greedy = greedy_assign(loads, m).makespan();
    let opt = if loads.len() <= 14 {
        opt_makespan_exact(loads, m)
    } else {
        opt_makespan_lower_bound(loads, m)
    };
    // greedy ≤ (2 − 1/m)·opt  ⟺  greedy·m ≤ (2m − 1)·opt  (integers).
    (greedy as u128) * (m as u128) <= (2 * m as u128 - 1) * (opt as u128)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn greedy_least_loaded() {
        let a = greedy_assign(&[4, 3, 2, 5], 2);
        // 4→link0, 3→link1, 2→link1 (3<4), 5→link0? loads (4,5): link0.
        assert_eq!(a.link_of, vec![0, 1, 1, 0]);
        assert_eq!(a.link_loads, vec![9, 5]);
        assert_eq!(a.makespan(), 9);
    }

    #[test]
    fn lpt_classic_example() {
        // LPT on {7,7,6,6,5,5} with 3 links: pairs to 12 each — wait:
        // 7,7,6 → links 0,1,2; then 6→link2? no: loads (7,7,6): 6 to link2
        // (6) → 12; 5 → link0/1 → 12; 5 → 12. Makespan 12 (optimal).
        let a = lpt_assign(&[7, 7, 6, 6, 5, 5], 3);
        assert_eq!(a.makespan(), 12);
        assert_eq!(opt_makespan_exact(&[7, 7, 6, 6, 5, 5], 3), 12);
    }

    #[test]
    fn exact_opt_beats_greedy_sometimes() {
        // Classic greedy-bad instance: loads 1,1,...,1,m with m links.
        let m = 4;
        let mut loads = vec![1u64; m * (m - 1)];
        loads.push(m as u64);
        let greedy = greedy_assign(&loads, m).makespan();
        let opt = opt_makespan_exact(&loads, m);
        assert_eq!(opt, m as u64);
        assert_eq!(greedy, 2 * m as u64 - 1, "greedy hits the Lemma 2 bound");
        assert!(greedy_satisfies_lemma2(&loads, m));
    }

    #[test]
    fn lemma2_bound_on_random_instances() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for _ in 0..200 {
            let n = rng.random_range(1..12);
            let m = rng.random_range(1..6);
            let loads: Vec<u64> = (0..n).map(|_| rng.random_range(0..100)).collect();
            assert!(greedy_satisfies_lemma2(&loads, m), "loads {loads:?}, m {m}");
        }
    }

    #[test]
    fn opt_lower_bound_is_a_lower_bound() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..100 {
            let n = rng.random_range(1..10);
            let m = rng.random_range(1..5);
            let loads: Vec<u64> = (0..n).map(|_| rng.random_range(0..50)).collect();
            assert!(opt_makespan_lower_bound(&loads, m) <= opt_makespan_exact(&loads, m));
        }
    }

    #[test]
    fn inventor_advice_differs_from_greedy_when_small_load_arrives() {
        // Current loads equal; a tiny load arrives with many big future
        // loads expected: the inventor reserves the emptiest links for the
        // big loads... with equal links the advice coincides; construct an
        // uneven case instead.
        // Links: [10, 0, 0]; own load 1; expect 2 future loads of ~10.
        // LPT: 10s go to links 1 and 2 (→ 10,10,10), then own 1 goes to
        // link 0 (tie at 10, lowest index... all equal → link 0).
        // Greedy would put the 1 on link 1 (least loaded).
        let advised = inventor_suggested_link(&[10, 0, 0], 1, 10, 1, 2);
        assert_eq!(advised, 0);
        // Greedy choice:
        let greedy = (0..3).min_by_key(|&j| ([10u64, 0, 0][j], j)).unwrap();
        assert_eq!(greedy, 1);
    }

    #[test]
    fn inventor_assign_makespan_reasonable() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let loads: Vec<u64> = (0..200).map(|_| rng.random_range(0..=1000)).collect();
        let m = 10;
        let inventor = inventor_assign(&loads, m).makespan();
        let lower = opt_makespan_lower_bound(&loads, m);
        // Sanity: within the greedy guarantee of OPT.
        assert!(inventor as u128 * m as u128 <= (2 * m as u128 - 1) * lower as u128 * 2);
        // Totals conserved.
        let total: u64 = loads.iter().sum();
        assert_eq!(
            inventor_assign(&loads, m).link_loads.iter().sum::<u64>(),
            total
        );
    }

    #[test]
    fn mixed_obedience_extremes_match_pure_strategies() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let loads: Vec<u64> = (0..100).map(|_| rng.random_range(0..=1000)).collect();
        let m = 7;
        let mut rng_a = rand::rngs::StdRng::seed_from_u64(1);
        let all_obey = mixed_obedience_assign(&loads, m, 1.0, &mut rng_a);
        assert_eq!(all_obey, inventor_assign(&loads, m));
        let mut rng_b = rand::rngs::StdRng::seed_from_u64(1);
        let none_obey = mixed_obedience_assign(&loads, m, 0.0, &mut rng_b);
        assert_eq!(none_obey, greedy_assign(&loads, m));
    }

    #[test]
    fn single_link_everything_coincides() {
        let loads = [5u64, 3, 8];
        assert_eq!(greedy_assign(&loads, 1).makespan(), 16);
        assert_eq!(inventor_assign(&loads, 1).makespan(), 16);
        assert_eq!(opt_makespan_exact(&loads, 1), 16);
    }

    #[test]
    #[should_panic(expected = "at least one link")]
    fn zero_links_panics() {
        let _ = greedy_assign(&[1], 0);
    }
}
