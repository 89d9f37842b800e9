//! Criterion bench: the authority-infrastructure substrate — P2 interactive
//! verification, wire codec throughput, transport topology and send cost,
//! exact arithmetic, and full end-to-end consultation sessions.
//!
//! Includes the ablation: exact-rational vs f64 linear solving on
//! the P1 indifference system (the price of soundness).
//!
//! Run with `cargo bench -p ra-bench --bench infrastructure`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use rand::rngs::StdRng;
use rand::SeedableRng;

use ra_authority::{
    Bus, GameSpec, Inventor, InventorBehavior, Message, Party, RationalityAuthority, SimNet,
    Transport, VerifierBehavior, Wire,
};
use ra_bench::game_with_support_size;
use ra_exact::{rat, solve_linear_system, Matrix, Rational};
use ra_games::named::prisoners_dilemma;
use ra_games::{GameGenerator, MixedProfile, MixedStrategy};
use ra_proofs::{honest_row_advice, verify_private_advice, HonestOracle, P2Config};

fn bench_p2(c: &mut Criterion) {
    let mut group = c.benchmark_group("p2");
    let m = 51;
    for s in [3usize, 17, 51] {
        let game = game_with_support_size(m, s);
        let mut probs = vec![Rational::zero(); m];
        for p in probs.iter_mut().take(s) {
            *p = Rational::new(1, s as i64);
        }
        let profile = MixedProfile {
            row: MixedStrategy::try_new(probs.clone()).unwrap(),
            col: MixedStrategy::try_new(probs).unwrap(),
        };
        let advice = honest_row_advice(&game, &profile);
        let support = profile.col.support();
        group.bench_with_input(BenchmarkId::new("verify", s), &s, |b, _| {
            b.iter(|| {
                let mut oracle = HonestOracle::new(support.clone());
                let mut rng = StdRng::seed_from_u64(5);
                verify_private_advice(
                    black_box(&game),
                    black_box(&advice),
                    &mut oracle,
                    &mut rng,
                    &P2Config::default(),
                )
            })
        });
    }
    group.finish();
}

fn bench_wire(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire");
    let game = ra_games::named::coordination_game(4);
    let proof = ra_proofs::prove_max_nash(&game, &vec![3, 3].into()).unwrap();
    let msg = Message::AdviceWithProof {
        game_id: 7,
        advice: Box::new(ra_authority::Advice::PureNash(
            ra_proofs::PureNashCertificate {
                profile: vec![3, 3].into(),
                proof,
            },
        )),
    };
    let bytes = msg.to_bytes();
    group.bench_function("encode_max_proof", |b| {
        b.iter(|| black_box(&msg).to_bytes())
    });
    group.bench_function("decode_max_proof", |b| {
        b.iter(|| {
            let mut buf = bytes.clone();
            Message::decode(&mut buf).unwrap()
        })
    });
    group.finish();
}

/// `transport` already routing `n` agents.
fn routing<T: Transport>(transport: T, n: u64) -> T {
    for k in 0..n {
        transport.register(Party::Agent(k));
    }
    transport
}

/// First contact: one `register` on a transport that already routes N
/// endpoints (re-registering the same fresh party keeps N fixed), and one
/// `send` on a large bus for contrast.
fn bench_transport(c: &mut Criterion) {
    let mut group = c.benchmark_group("transport");
    for n in [0u64, 1024, 4096] {
        let bus = routing(Bus::new(), n);
        group.bench_with_input(BenchmarkId::new("bus_register", n), &n, |b, &n| {
            b.iter(|| bus.register(black_box(Party::Agent(n))))
        });
        let net = routing(SimNet::lossless(0), n);
        group.bench_with_input(BenchmarkId::new("simnet_register", n), &n, |b, &n| {
            b.iter(|| net.register(black_box(Party::Agent(n))))
        });
    }
    let n = 4096;
    let bus = routing(Bus::new(), n);
    let hub = Party::Verifier(0);
    let _hub_ep = bus.register(hub);
    group.bench_with_input(BenchmarkId::new("bus_send", n), &n, |b, _| {
        b.iter(|| {
            bus.send(
                Party::Agent(0),
                hub,
                black_box(Message::AdviceRequest { game_id: 1 }),
            )
            .unwrap()
        })
    });
    group.finish();
}

/// The soundness ablation: exact ℚ Gaussian elimination vs naive f64 on the
/// same indifference-style systems.
fn bench_exact_vs_f64(c: &mut Criterion) {
    let mut group = c.benchmark_group("linsys");
    for k in [3usize, 6, 10] {
        let game = GameGenerator::seeded(k as u64).bimatrix(k, k, -100..=100);
        let a = Matrix::from_fn(k + 1, k + 1, |r, cix| {
            if r < k {
                if cix < k {
                    game.a(r, cix).clone()
                } else {
                    Rational::from(-1)
                }
            } else if cix < k {
                Rational::one()
            } else {
                Rational::zero()
            }
        });
        let mut rhs = vec![Rational::zero(); k + 1];
        rhs[k] = Rational::one();
        let a_f64: Vec<Vec<f64>> = (0..k + 1)
            .map(|r| (0..k + 1).map(|cix| a[(r, cix)].to_f64()).collect())
            .collect();
        let rhs_f64: Vec<f64> = rhs.iter().map(Rational::to_f64).collect();
        group.bench_with_input(BenchmarkId::new("exact", k), &k, |b, _| {
            b.iter(|| solve_linear_system(black_box(&a), black_box(&rhs)))
        });
        group.bench_with_input(BenchmarkId::new("f64", k), &k, |b, _| {
            b.iter(|| f64_gauss(black_box(&a_f64), black_box(&rhs_f64)))
        });
    }
    group.finish();
}

/// Plain f64 Gaussian elimination with partial pivoting (bench-only).
fn f64_gauss(a: &[Vec<f64>], b: &[f64]) -> Option<Vec<f64>> {
    let n = a.len();
    let mut m: Vec<Vec<f64>> = a
        .iter()
        .zip(b)
        .map(|(row, &rhs)| {
            let mut r = row.clone();
            r.push(rhs);
            r
        })
        .collect();
    for col in 0..n {
        let pivot =
            (col..n).max_by(|&x, &y| m[x][col].abs().partial_cmp(&m[y][col].abs()).unwrap())?;
        if m[pivot][col].abs() < 1e-12 {
            return None;
        }
        m.swap(pivot, col);
        for r in 0..n {
            if r == col {
                continue;
            }
            let f = m[r][col] / m[col][col];
            let pivot_row = m[col].clone();
            for (cix, cell) in m[r].iter_mut().enumerate().skip(col) {
                *cell -= f * pivot_row[cix];
            }
        }
    }
    Some((0..n).map(|i| m[i][n] / m[i][i]).collect())
}

fn bench_session(c: &mut Criterion) {
    let mut group = c.benchmark_group("session");
    group.bench_function("end_to_end_strategic", |b| {
        let spec = GameSpec::Strategic(prisoners_dilemma().to_strategic());
        b.iter(|| {
            let mut authority = RationalityAuthority::new(
                Inventor::new(0, InventorBehavior::Honest),
                &[VerifierBehavior::Honest; 3],
            );
            authority.consult(0, black_box(&spec))
        })
    });
    group.bench_function("end_to_end_participation", |b| {
        let spec = GameSpec::Participation(ra_solvers::ParticipationParams::paper_example());
        b.iter(|| {
            let mut authority = RationalityAuthority::new(
                Inventor::new(0, InventorBehavior::Honest),
                &[VerifierBehavior::Honest; 3],
            );
            authority.consult(0, black_box(&spec))
        })
    });
    group.finish();
}

fn bench_exact_arith(c: &mut Criterion) {
    let mut group = c.benchmark_group("exact");
    let a: ra_exact::BigInt = "123456789012345678901234567890123456789".parse().unwrap();
    let b_int: ra_exact::BigInt = "987654321098765432109876543210".parse().unwrap();
    group.bench_function("bigint_mul", |bench| {
        bench.iter(|| black_box(&a) * black_box(&b_int))
    });
    group.bench_function("bigint_divrem", |bench| {
        bench.iter(|| black_box(&a).div_rem(black_box(&b_int)))
    });
    let x = rat(355, 113);
    let y = rat(-833_719, 265_381);
    group.bench_function("rational_mul", |bench| {
        bench.iter(|| black_box(&x) * black_box(&y))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_p2, bench_wire, bench_transport, bench_exact_vs_f64, bench_session,
        bench_exact_arith
}
criterion_main!(benches);
