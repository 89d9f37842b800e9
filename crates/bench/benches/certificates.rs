//! Criterion bench: §3 kernel certificate checking vs exhaustive search,
//! and the §5 participation solve-vs-verify pair.
//!
//! Run with `cargo bench -p ra-bench --bench certificates`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use ra_exact::{rat, Rational};
use ra_games::GameGenerator;
use ra_proofs::kernel::{check, verdict};
use ra_proofs::{verify_participation_certificate, ParticipationCertificate};
use ra_solvers::{
    analyze_pure_nash, prove_is_nash, prove_max_nash, solve_participation_equilibrium,
    ParticipationParams,
};

fn bench_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("sec3");
    for s in [4usize, 8, 16, 32] {
        let (game, eq, maximal) = (0..50u64)
            .find_map(|seed| {
                let game =
                    GameGenerator::seeded(s as u64 * 31 + seed).strategic(vec![s, s], -1000..=1000);
                let analysis = analyze_pure_nash(&game);
                let eq = analysis.equilibria.first()?.clone();
                let maximal = analysis.maximal.first()?.clone();
                Some((game, eq, maximal))
            })
            .expect("instance with equilibria");
        let nash_proof = prove_is_nash(eq);
        let max_proof = prove_max_nash(&game, &maximal).expect("maximal provable");
        group.bench_with_input(BenchmarkId::new("search/exhaustive", s), &s, |b, _| {
            b.iter(|| analyze_pure_nash(black_box(&game)))
        });
        // The honest inventor's search: stop at the first equilibrium.
        group.bench_with_input(
            BenchmarkId::new("search/first_equilibrium", s),
            &s,
            |b, _| {
                b.iter(|| {
                    let game = black_box(&game);
                    game.find_profile(|p| game.is_pure_nash(p)).unwrap()
                })
            },
        );
        // The verifier's entry: the kernel rules alone, no digest.
        group.bench_with_input(BenchmarkId::new("verdict/is_nash", s), &s, |b, _| {
            b.iter(|| verdict(black_box(&game), black_box(&nash_proof)).unwrap())
        });
        // The minting entry: the same rules plus the spec digest, which is
        // memoized after the first iteration.
        group.bench_with_input(BenchmarkId::new("check/is_nash", s), &s, |b, _| {
            b.iter(|| check(black_box(&game), black_box(&nash_proof)).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("check/is_max_nash", s), &s, |b, _| {
            b.iter(|| check(black_box(&game), black_box(&max_proof)).unwrap())
        });
    }
    group.finish();
}

fn bench_participation(c: &mut Criterion) {
    let mut group = c.benchmark_group("sec5");
    for n in [5u64, 10, 20, 40] {
        let params = ParticipationParams::new(n, 2, Rational::from(10), Rational::from(1)).unwrap();
        let tol = rat(1, 1 << 24);
        let roots = solve_participation_equilibrium(&params, &tol).unwrap();
        let cert = ParticipationCertificate {
            root: roots[0].clone(),
        };
        group.bench_with_input(BenchmarkId::new("solve/bisection", n), &n, |b, _| {
            b.iter(|| solve_participation_equilibrium(black_box(&params), &tol).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("verify/eq5", n), &n, |b, _| {
            b.iter(|| {
                verify_participation_certificate(black_box(&params), black_box(&cert), &tol)
                    .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_kernel, bench_participation
}
criterion_main!(benches);
