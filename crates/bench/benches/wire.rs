//! Criterion bench: the wire layer's consult hot path — message
//! encode/decode round-trips, varint packing and the canonical rational
//! format, with the pooled frame-scratch length measurement benched
//! against a fresh-`Vec` serialization so the frame-pooling win stays
//! visible in `results/criterion.jsonl` and not just end-to-end.
//!
//! Run with `cargo bench -p ra-bench --bench wire`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use ra_authority::{
    get_varint, put_varint, with_frame_scratch, Advice, Check, Message, VerdictReason, Wire,
    WireBytes,
};
use ra_exact::{rat, BigInt, Rational};
use ra_proofs::SupportCertificate;

/// The four Fig. 1 frames `Bus::send` measures on a consult: the request
/// the agent opens with, the proof-carrying advice, its fan-out to the
/// panel, and the one-byte-reason verdict each verifier sends back.
fn hot_messages() -> Vec<(&'static str, Message)> {
    let advice = Advice::Support(SupportCertificate {
        row_support: vec![0, 2, 5, 9],
        col_support: vec![1, 3, 4],
    });
    vec![
        (
            "advice_request",
            Message::AdviceRequest {
                game_id: 0xDEAD_BEEF,
            },
        ),
        (
            "advice_with_proof",
            Message::AdviceWithProof {
                game_id: 0xDEAD_BEEF,
                advice: Box::new(advice.clone()),
            },
        ),
        (
            "verdict_request",
            Message::VerdictRequest {
                game_id: 0xDEAD_BEEF,
                advice: Arc::new(advice),
            },
        ),
        (
            "verdict",
            Message::Verdict {
                game_id: 0xDEAD_BEEF,
                accepted: true,
                detail: VerdictReason::Verified(Check::Support),
            },
        ),
    ]
}

fn bench_frames(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire");
    for (name, msg) in hot_messages() {
        // What the pre-pooling bus paid per frame: a fresh allocation.
        group.bench_with_input(BenchmarkId::new("encode/fresh_vec", name), &msg, |b, m| {
            b.iter(|| black_box(m).to_bytes())
        });
        // What it pays now: encode into the recycled thread-local scratch.
        group.bench_with_input(BenchmarkId::new("encode/pooled", name), &msg, |b, m| {
            b.iter(|| black_box(m).encoded_len())
        });
        let bytes = msg.to_bytes();
        group.bench_with_input(BenchmarkId::new("decode", name), &bytes, |b, bytes| {
            b.iter(|| {
                let mut cursor = bytes.clone();
                Message::decode(black_box(&mut cursor)).unwrap()
            })
        });
    }
    group.finish();
}

fn bench_varints(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire");
    let values: Vec<u64> = (0..64).map(|i| (1u64 << i).wrapping_sub(i)).collect();
    group.bench_function("varint/round_trip_64", |b| {
        b.iter(|| {
            with_frame_scratch(|buf| {
                for &v in &values {
                    put_varint(buf, black_box(v));
                }
                let mut cursor = WireBytes::from(buf.clone());
                let mut sum = 0u64;
                while !cursor.is_empty() {
                    sum = sum.wrapping_add(get_varint(&mut cursor).unwrap());
                }
                sum
            })
        })
    });
    group.finish();
}

/// The canonical rational format both ways: `small` is 64 paper-size
/// payoffs and probabilities (one-word magnitudes), `wide` is 64 values
/// whose numerators span two or three limbs.
fn bench_rationals(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire");
    let small: Vec<Rational> = (0..64).map(|i| rat(i % 9 - 4, 1 + i % 4)).collect();
    let wide: Vec<Rational> = (0..64)
        .map(|i| {
            let num = BigInt::one().shl(64 + 2 * i as u32) + BigInt::from(i);
            Rational::from_bigints(num, BigInt::from(3 + 2 * i))
        })
        .collect();
    for (name, values) in [("small", small), ("wide", wide)] {
        group.bench_with_input(
            BenchmarkId::new("rational_round_trip", name),
            &values,
            |b, values| {
                b.iter(|| {
                    with_frame_scratch(|buf| {
                        for v in values {
                            black_box(v).encode(buf);
                        }
                        let mut cursor = WireBytes::from(buf.as_slice());
                        while !cursor.is_empty() {
                            black_box(Rational::decode(&mut cursor).unwrap());
                        }
                    })
                })
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_frames, bench_varints, bench_rationals
}
criterion_main!(benches);
