//! Every concrete numbered claim in the paper, as an executable test.
//!
//! These are the repository's ground truth: if a refactor breaks any of the
//! paper's worked numbers, figures or lemmas, this suite fails.

use rationality_authority::auctions::{
    exact_online_expected_gain, last_mover_advice, last_mover_gain, ParticipationGame,
};
use rationality_authority::congestion::{
    fig6_outcome, fig7_iteration, greedy_assign, greedy_satisfies_lemma2, inventor_suggested_link,
    opt_makespan_exact,
};
use rationality_authority::exact::{rat, Rational};
use rationality_authority::games::named::fig5_game;
use rationality_authority::games::{MixedProfile, MixedStrategy};
use rationality_authority::proofs::{
    verify_participation_certificate, verify_support_certificate, OnlineInstance,
    SupportCertificate,
};
use rationality_authority::solvers::{
    honest_online_advice, honest_row_advice, solve_participation_equilibrium, EquilibriumRoot,
    ParticipationParams,
};

/// §5: "For c/v = 3/8, n = 3, and p = 1/4, the firm's expected gain is
/// v(1 − (3/4)² − 2·(1/4)·(3/4)) = v/16."
#[test]
fn section5_worked_gain() {
    let v = Rational::from(8);
    let direct =
        &v * (Rational::one() - rat(3, 4).pow(2) - Rational::from(2) * rat(1, 4) * rat(3, 4));
    assert_eq!(direct, &v * &rat(1, 16));
    let game = ParticipationGame::paper_example();
    assert_eq!(game.expected_gain_at(&rat(1, 4)), direct);
}

/// §5, Eq. (4): the indifference condition reduces to
/// c = v(n−1)p(1−p)^{n−2}.
#[test]
fn section5_eq4_reduction() {
    for (n, v, c) in [(3u64, 8i64, 3i64), (4, 10, 2), (6, 7, 1)] {
        let params = ParticipationParams::new(n, 2, Rational::from(v), Rational::from(c)).unwrap();
        let game = ParticipationGame::new(params.clone());
        for num in 1..10i64 {
            let p = rat(num, 10);
            // Direct expectation difference == closed form of Eq. (4).
            let gap = game.symmetric_game().indifference_gap(&p);
            let closed = Rational::from(v)
                * Rational::from((n - 1) as i64)
                * &p
                * (Rational::one() - &p).pow((n - 2) as i32)
                - Rational::from(c);
            assert_eq!(gap, closed, "n={n} p={p}");
        }
    }
}

/// §5 online: "If the advice is p = 1, firm f will gain v − c = 5v/8 and if
/// p = 0 [with ≥ k prior entrants], firm f will gain v"; flipping loses.
#[test]
fn section5_online_gains() {
    let params = ParticipationParams::paper_example(); // v = 8 ⇒ 5v/8 = 5
    assert_eq!(last_mover_gain(&params, 1, true), rat(5, 1));
    assert_eq!(last_mover_gain(&params, 2, false), rat(8, 1));
    for prior in 0..3 {
        let a = last_mover_advice(&params, prior);
        assert!(
            last_mover_gain(&params, prior, a.participate)
                > last_mover_gain(&params, prior, !a.participate)
        );
    }
}

/// §5 online: "the expected gain of any firm after advice is at least
/// 1/3 · 5v/8 = 5v/24, still better than v/16 in the off-line case."
#[test]
fn section5_online_beats_bound_and_offline() {
    let params = ParticipationParams::paper_example();
    let online = exact_online_expected_gain(&params, &rat(1, 4));
    let v = &params.v;
    assert!(online >= v * &rat(5, 24), "at least 5v/24");
    assert!(online > v * &rat(1, 16), "better than offline v/16");
    assert_eq!(online, v * &rat(21, 64), "exact value");
}

/// Fig. 5 / Remark 2: with the row advice fixed, any column mix with
/// q_D ≤ 1/2 is an equilibrium with λ2 = 1 — and they are indistinguishable
/// to the row agent.
#[test]
fn fig5_remark2() {
    let game = fig5_game();
    let mut advices = Vec::new();
    for qd_num in 0..=4i64 {
        let qd = rat(qd_num, 8);
        let profile = MixedProfile {
            row: MixedStrategy::pure(2, 0),
            col: MixedStrategy::try_new(vec![Rational::one() - &qd, qd]).unwrap(),
        };
        assert!(game.is_nash(&profile));
        assert_eq!(game.equilibrium_values(&profile), (rat(1, 1), rat(1, 1)));
        advices.push(honest_row_advice(&game, &profile));
    }
    assert!(advices.windows(2).all(|w| w[0] == w[1]));
    // Beyond q_D = 1/2 the profile stops being an equilibrium.
    let beyond = MixedProfile {
        row: MixedStrategy::pure(2, 0),
        col: MixedStrategy::try_new(vec![rat(3, 8), rat(5, 8)]).unwrap(),
    };
    assert!(!game.is_nash(&beyond));
}

/// Lemma 1: the P1 certificate is O(n + m) bits and the verifier solves one
/// (k+1)×(k+1) system — asserted here as "bits equal n + m" plus acceptance.
#[test]
fn lemma1_bits() {
    let game = rationality_authority::games::GameGenerator::seeded(3).bimatrix(5, 7, -20..=20);
    let eq = rationality_authority::solvers::find_one_equilibrium(&game).unwrap();
    let cert = SupportCertificate {
        row_support: eq.row_support,
        col_support: eq.col_support,
    };
    assert_eq!(cert.encoded_bits(&game), 12);
    assert!(verify_support_certificate(&game, &cert).is_ok());
}

/// Fig. 6: greedy delay 2k+3 vs hindsight 2k+2.
#[test]
fn fig6_numbers() {
    for k in 1..12u64 {
        let (experienced, hindsight) = fig6_outcome(k);
        assert_eq!(experienced, Rational::from((2 * k + 3) as i64));
        assert_eq!(hindsight, Rational::from((2 * k + 2) as i64));
    }
}

/// Lemma 2: greedy ≤ (2 − 1/m)·OPT, tight on the classic instance.
#[test]
fn lemma2_bound_and_tightness() {
    // Tight family: m(m−1) unit loads then one load of size m. OPT = m
    // (big load alone, units spread m per remaining link); greedy ends at
    // 2m − 1.
    for m in 2usize..6 {
        let mut loads = vec![1u64; m * (m - 1)];
        loads.push(m as u64);
        let opt = m as u64;
        if loads.len() <= 16 {
            assert_eq!(
                opt_makespan_exact(&loads, m),
                opt,
                "analytic OPT checked at m={m}"
            );
        }
        let greedy = greedy_assign(&loads, m).makespan();
        assert_eq!(
            greedy as u128 * m as u128,
            (2 * m as u128 - 1) * opt as u128,
            "tight at m={m}"
        );
    }
    // And the bound holds on arbitrary small instances (exact OPT).
    for seed in 0..30u64 {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = rng.random_range(1..12);
        let m = rng.random_range(1..5);
        let loads: Vec<u64> = (0..n).map(|_| rng.random_range(0..50)).collect();
        assert!(greedy_satisfies_lemma2(&loads, m), "seed {seed}");
    }
}

/// Fig. 7's qualitative claim at a reduced scale: "for sufficiently large
/// number of links, obeying the inventor's suggestion outperforms
/// greediness in the vast majority of iterations."
#[test]
fn fig7_shape_reduced() {
    use rand::SeedableRng;
    let mut inventor_wins = 0;
    let total = 60;
    for seed in 0..total {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (greedy, inventor) = fig7_iteration(400, (0, 1000), 60, &mut rng);
        if inventor < greedy {
            inventor_wins += 1;
        }
    }
    assert!(
        inventor_wins * 100 >= total * 85,
        "inventor won {inventor_wins}/{total} at m = 60"
    );
}

/// The authority's §6 advice (`honest_online_advice`, in rationals) for an
/// agent of own load `own` arriving at integer link `loads`, with
/// `future_agents` more expected at the running average `observed_sum /
/// observations` each.
fn authority_link(
    loads: &[u64],
    own: u64,
    observed_sum: u64,
    observations: u64,
    future_agents: usize,
) -> usize {
    let rational = |v: u64| Rational::from(i64::try_from(v).unwrap());
    let current: Vec<Rational> = loads.iter().map(|&l| rational(l)).collect();
    let own = rational(own);
    let expected = &rational(observed_sum) / &rational(observations);
    let instance = OnlineInstance {
        current_loads: &current,
        own_load: &own,
        expected_future_load: &expected,
        expected_future_agents: future_agents,
    };
    honest_online_advice(&instance)
        .expect("the instance has links")
        .suggested_link
}

/// Fig. 7 simulates the inventor with `inventor_suggested_link`, in
/// integers for speed; it must advise exactly what the authority's inventor
/// does. Small random instances tie often, and a tie is where an inexact
/// average would break away.
#[test]
fn fig7_inventor_gives_the_authority_inventors_advice() {
    use rand::{Rng, SeedableRng};
    // Three future loads of 20/3 fill link 0 to exactly 20, tying link 1:
    // the own load (0) takes the lower index.
    assert_eq!(authority_link(&[0, 20], 0, 20, 3, 3), 0);
    assert_eq!(inventor_suggested_link(&[0, 20], 0, 20, 3, 3), 0);
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    for case in 0..4_000 {
        let links = rng.random_range(1..6usize);
        let loads: Vec<u64> = (0..links).map(|_| rng.random_range(0..30u64)).collect();
        let own = rng.random_range(0..30u64);
        let observations = rng.random_range(1..6u64);
        let observed_sum = rng.random_range(0..30 * observations);
        let future_agents = rng.random_range(0..6usize);
        assert_eq!(
            inventor_suggested_link(&loads, own, observed_sum, observations, future_agents),
            authority_link(&loads, own, observed_sum, observations, future_agents),
            "case {case}: links {loads:?}, own {own}, average {observed_sum}/{observations}, \
             {future_agents} future agents"
        );
    }
}

/// The participation solver and Eq. (5) verifier agree on the paper's
/// second root too (p = 3/4).
#[test]
fn both_symmetric_equilibria_verify() {
    let params = ParticipationParams::paper_example();
    let roots = solve_participation_equilibrium(&params, &rat(1, 1 << 26)).unwrap();
    assert_eq!(
        roots,
        vec![
            EquilibriumRoot::Exact(rat(1, 4)),
            EquilibriumRoot::Exact(rat(3, 4))
        ]
    );
    for root in roots {
        let cert = rationality_authority::proofs::ParticipationCertificate { root };
        assert!(verify_participation_certificate(&params, &cert, &rat(1, 1024)).is_ok());
    }
}
