//! Criterion bench: the §6 parallel-links strategies (Fig. 7 inner loop)
//! and the online-advice certificate verification.
//!
//! Includes the ablation: inventor advice with running-average
//! statistics vs the known-distribution prior (the paper describes both
//! inventor models).
//!
//! Run with `cargo bench -p ra-bench --bench congestion`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ra_congestion::{greedy_assign, inventor_assign, inventor_suggested_link, lpt_assign};
use ra_exact::Rational;
use ra_proofs::{verify_online_advice, OnlineInstance};
use ra_solvers::honest_online_advice;

fn loads(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.random_range(0..=1000)).collect()
}

fn bench_strategies(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig7_inner");
    for m in [10usize, 100, 500] {
        let ws = loads(1000, 99);
        group.bench_with_input(BenchmarkId::new("greedy", m), &m, |b, &m| {
            b.iter(|| greedy_assign(black_box(&ws), m))
        });
        group.bench_with_input(BenchmarkId::new("inventor/running_avg", m), &m, |b, &m| {
            b.iter(|| inventor_assign(black_box(&ws), m))
        });
        // Ablation: known-distribution prior — the inventor knows the true
        // mean (500) instead of estimating it online.
        group.bench_with_input(BenchmarkId::new("inventor/known_prior", m), &m, |b, &m| {
            b.iter(|| {
                let n = ws.len();
                let mut link_loads = vec![0u64; m];
                for (i, &w) in ws.iter().enumerate() {
                    let link = inventor_suggested_link(&link_loads, w, 500, 1, n - i - 1);
                    link_loads[link] += w;
                }
                link_loads
            })
        });
        group.bench_with_input(BenchmarkId::new("offline/lpt", m), &m, |b, &m| {
            b.iter(|| lpt_assign(black_box(&ws), m))
        });
    }
    group.finish();
}

fn bench_advice_verification(c: &mut Criterion) {
    let mut group = c.benchmark_group("online_advice");
    for future in [10usize, 100, 500] {
        let current: Vec<Rational> = (0..20).map(|i| Rational::from(i * 37 % 900)).collect();
        let (own, average) = (Rational::from(650), Rational::new(1001, 2));
        let instance = OnlineInstance {
            current_loads: &current,
            own_load: &own,
            expected_future_load: &average,
            expected_future_agents: future,
        };
        let cert = honest_online_advice(&instance).expect("instance has links");
        group.bench_with_input(
            BenchmarkId::new("verify_certificate", future),
            &future,
            |b, _| b.iter(|| verify_online_advice(black_box(&instance), black_box(&cert)).unwrap()),
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_strategies, bench_advice_verification
}
criterion_main!(benches);
