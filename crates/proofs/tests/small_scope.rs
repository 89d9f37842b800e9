//! Bounded-exhaustive soundness of the trusted checkers: every game of a
//! small scope, checked against the definition the checker claims. The
//! oracle is written here from the payoff tables and `Rational`
//! arithmetic alone; it calls no `is_nash`, no kernel and no solver, so a
//! bug the checker shares with the engine cannot hide in it.
//!
//! - P1 (Fig. 3): every support pair of every 2×2 game over {0, 1, 2} and
//!   of every 2×3 and 3×2 game over {0, 1}. An accepted certificate's
//!   profile is a pair of distributions, positive exactly on the claimed
//!   supports, that leaves no agent a profitable pure deviation; and every
//!   game has an accepted certificate.
//! - §3 pure Nash: every pure profile of every 2×2 and 2×3 game over
//!   {0, 1}. The kernel proves `IsNash` exactly when no agent has an
//!   improving deviation, and no single-field mutation of an accepted
//!   proof proves anything false.
//! - §6 online advice: every instance on 1–3 identical links with current
//!   loads in {0, 1, 2}, own load in {1, 2}, future load in {0, 1, 2} and
//!   0–2 future agents, against every assignment of 1 + F loads for every
//!   F in 0–2. The checker accepts exactly the assignments of the
//!   instance's own 1 + F loads, with the suggestion on the own load's
//!   link, that leave no non-zero load a strictly shorter final load
//!   elsewhere.
//!
//! The 3×3 families over {0, 1} (262,144 games each) and the §6 scope on
//! up to 4 links are `#[ignore]`d; CI runs them in release with
//! `--include-ignored`.

use ra_exact::Rational;
use ra_games::{BimatrixGame, StrategicGame, StrategyProfile};
use ra_proofs::kernel::{verdict, Proof, Prop};
use ra_proofs::{
    verify_online_advice, verify_support_certificate, OnlineAdviceCertificate, OnlineInstance,
    SupportCertificate,
};

/// Calls `check(a, b)` once for every pair of `rows × cols` payoff tables
/// with entries in `0..values`; returns how many games that was.
fn for_each_game(
    rows: usize,
    cols: usize,
    values: i64,
    mut check: impl FnMut(&[Vec<i64>], &[Vec<i64>]),
) -> u64 {
    let cells = rows * cols;
    let games = (values as u64).pow(2 * cells as u32);
    let (mut a, mut b) = (vec![vec![0; cols]; rows], vec![vec![0; cols]; rows]);
    for code in 0..games {
        let mut digits = code;
        for cell in 0..2 * cells {
            let table = if cell < cells { &mut a } else { &mut b };
            let cell = cell % cells;
            table[cell / cols][cell % cols] = (digits % values as u64) as i64;
            digits /= values as u64;
        }
        check(&a, &b);
    }
    games
}

/// Every non-empty subset of `0..n`, each sorted.
fn supports(n: usize) -> Vec<Vec<usize>> {
    (1..1u32 << n)
        .map(|set| (0..n).filter(|&i| set >> i & 1 == 1).collect())
        .collect()
}

fn dot(payoffs: impl Iterator<Item = i64>, probs: &[Rational]) -> Rational {
    payoffs.zip(probs).fold(Rational::zero(), |sum, (v, p)| {
        &sum + &(&Rational::from(v) * p)
    })
}

/// Whether `probs` is a distribution positive exactly on `support`.
fn distribution_on(probs: &[Rational], support: &[usize]) -> bool {
    let total = probs.iter().fold(Rational::zero(), |sum, p| &sum + p);
    total == Rational::one()
        && (0..probs.len()).all(|i| {
            if support.contains(&i) {
                probs[i].is_positive()
            } else {
                probs[i].is_zero()
            }
        })
}

/// Whether no agent gains by a pure deviation from the mixed profile
/// `(x, y)`: every row earns at most x·A·y against y, and every column at
/// most x·B·y against x.
fn no_profitable_pure_deviation(
    a: &[Vec<i64>],
    b: &[Vec<i64>],
    x: &[Rational],
    y: &[Rational],
) -> bool {
    let row_earns: Vec<Rational> = a.iter().map(|row| dot(row.iter().copied(), y)).collect();
    let col_earns: Vec<Rational> = (0..y.len())
        .map(|j| dot(b.iter().map(|row| row[j]), x))
        .collect();
    let row_value = row_earns
        .iter()
        .zip(x)
        .fold(Rational::zero(), |sum, (e, p)| &sum + &(e * p));
    let col_value = col_earns
        .iter()
        .zip(y)
        .fold(Rational::zero(), |sum, (e, p)| &sum + &(e * p));
    row_earns.iter().all(|e| e <= &row_value) && col_earns.iter().all(|e| e <= &col_value)
}

fn slices(table: &[Vec<i64>]) -> Vec<&[i64]> {
    table.iter().map(Vec::as_slice).collect()
}

/// Runs the P1 checker on every support pair of every `rows × cols` game
/// over `0..values`; returns (games, checks).
fn enumerate_p1(rows: usize, cols: usize, values: i64) -> (u64, u64) {
    let (row_supports, col_supports) = (supports(rows), supports(cols));
    let mut checks = 0;
    let games = for_each_game(rows, cols, values, |a, b| {
        let game = BimatrixGame::from_i64_tables(&slices(a), &slices(b));
        let mut accepted = 0;
        for s1 in &row_supports {
            for s2 in &col_supports {
                checks += 1;
                let certificate = SupportCertificate {
                    row_support: s1.clone(),
                    col_support: s2.clone(),
                };
                let Ok(verified) = verify_support_certificate(&game, &certificate) else {
                    continue;
                };
                accepted += 1;
                let (x, y) = (verified.profile.row.probs(), verified.profile.col.probs());
                assert!(
                    distribution_on(x, s1) && distribution_on(y, s2),
                    "A {a:?}, B {b:?}: accepted {s1:?} × {s2:?} with ({x:?}, {y:?})"
                );
                assert!(
                    no_profitable_pure_deviation(a, b, x, y),
                    "A {a:?}, B {b:?}: unsound accept of {s1:?} × {s2:?}: ({x:?}, {y:?})"
                );
            }
        }
        assert!(accepted > 0, "A {a:?}, B {b:?}: no certificate accepted");
    });
    println!("P1, {rows}x{cols} over 0..{values}: {games} games, {checks} checks");
    (games, checks)
}

#[test]
fn p1_every_support_pair_of_every_2x2_game_over_0_to_2() {
    assert_eq!(enumerate_p1(2, 2, 3), (6_561, 59_049));
}

#[test]
fn p1_every_support_pair_of_every_2x3_game_over_0_1() {
    assert_eq!(enumerate_p1(2, 3, 2), (4_096, 86_016));
}

#[test]
fn p1_every_support_pair_of_every_3x2_game_over_0_1() {
    assert_eq!(enumerate_p1(3, 2, 2), (4_096, 86_016));
}

#[test]
#[ignore = "12.8M checks: run in release with --include-ignored"]
fn p1_every_support_pair_of_every_3x3_game_over_0_1() {
    assert_eq!(enumerate_p1(3, 3, 2), (262_144, 12_845_056));
}

/// Whether the pure profile `(i, j)` of the game with tables `a`, `b` is
/// in range and no agent has an improving deviation from it.
fn is_pure_equilibrium(a: &[Vec<i64>], b: &[Vec<i64>], profile: &[usize]) -> bool {
    let &[i, j] = profile else {
        return false;
    };
    i < a.len()
        && j < a[0].len()
        && a.iter().all(|row| row[j] <= a[i][j])
        && b[i].iter().all(|&v| v <= b[i][j])
}

/// Every `IsNash` proof an inventor could have shipped instead of `profile`'s
/// with one field changed: each coordinate set to each other strategy or
/// to one past the last, and the profile cut short or extended.
fn mutations(profile: &[usize], counts: &[usize]) -> Vec<Vec<usize>> {
    let mut out: Vec<Vec<usize>> = vec![profile[..1].to_vec(), [profile, &[0]].concat()];
    for (agent, &count) in counts.iter().enumerate() {
        for strategy in (0..=count).filter(|&s| s != profile[agent]) {
            let mut mutated = profile.to_vec();
            mutated[agent] = strategy;
            out.push(mutated);
        }
    }
    out
}

/// Runs the kernel on the `IsNash` proof of every pure profile of every
/// `rows × cols` game over {0, 1}, and on every single-field mutation of
/// each accepted one; returns (games, checks).
fn enumerate_pure_nash(rows: usize, cols: usize) -> (u64, u64) {
    let mut checks = 0;
    let games = for_each_game(rows, cols, 2, |a, b| {
        let game = StrategicGame::from_payoff_fn(vec![rows, cols], |p| {
            let (i, j) = (p.strategy_of(0), p.strategy_of(1));
            vec![Rational::from(a[i][j]), Rational::from(b[i][j])]
        });
        for i in 0..rows {
            for j in 0..cols {
                checks += 1;
                let profile: StrategyProfile = vec![i, j].into();
                let proof = Proof::NashIntro {
                    profile: profile.clone(),
                };
                let proved = verdict(&game, &proof).ok().map(|()| proof.claims());
                let nash = is_pure_equilibrium(a, b, &[i, j]);
                let claim = Prop::IsNash(profile);
                assert_eq!(
                    proved.as_ref(),
                    nash.then_some(&claim),
                    "A {a:?}, B {b:?}, ({i}, {j})"
                );
                if !nash {
                    continue;
                }
                // A mutated profile is another claim, so an accepted
                // mutation must prove exactly that claim, and it must hold.
                for mutated in mutations(&[i, j], &[rows, cols]) {
                    checks += 1;
                    let proof = Proof::NashIntro {
                        profile: mutated.clone().into(),
                    };
                    if verdict(&game, &proof).is_ok() {
                        assert_eq!(proof.claims(), Prop::IsNash(mutated.clone().into()));
                        assert!(
                            is_pure_equilibrium(a, b, &mutated),
                            "A {a:?}, B {b:?}: mutation {mutated:?} of ({i}, {j}) accepted"
                        );
                    }
                }
            }
        }
    });
    println!("pure Nash, {rows}x{cols} over 0..2: {games} games, {checks} checks");
    (games, checks)
}

#[test]
fn pure_nash_every_profile_of_every_2x2_game_over_0_1() {
    assert_eq!(enumerate_pure_nash(2, 2), (256, 4_480));
}

#[test]
fn pure_nash_every_profile_of_every_2x3_game_over_0_1() {
    assert_eq!(enumerate_pure_nash(2, 3), (4_096, 105_216));
}

#[test]
#[ignore = "9.7M checks: run in release with --include-ignored"]
fn pure_nash_every_profile_of_every_3x3_game_over_0_1() {
    assert_eq!(enumerate_pure_nash(3, 3), (262_144, 9_732_096));
}

/// Every vector of `len` entries in `0..base`, in odometer order.
fn tuples(len: u32, base: usize) -> impl Iterator<Item = Vec<usize>> {
    (0..base.pow(len)).map(move |mut code| {
        (0..len)
            .map(|_| {
                let digit = code % base;
                code /= base;
                digit
            })
            .collect()
    })
}

/// Whether `assignment` (entry 0 the own load, the rest future loads) is a
/// Nash equilibrium on identical links: moving any non-zero load to any
/// other link leaves it a final load no smaller than where it is.
fn is_online_equilibrium(
    current: &[Rational],
    own: &Rational,
    future: &Rational,
    assignment: &[usize],
) -> bool {
    let weight = |index: usize| if index == 0 { own } else { future };
    let mut finals = current.to_vec();
    for (index, &link) in assignment.iter().enumerate() {
        finals[link] = &finals[link] + weight(index);
    }
    assignment.iter().enumerate().all(|(index, &from)| {
        let w = weight(index);
        w.is_zero()
            || (0..finals.len()).filter(|&to| to != from).all(|to| {
                let mut moved = finals.clone();
                moved[from] = &moved[from] - w;
                moved[to] = &moved[to] + w;
                moved[to] >= finals[from]
            })
    })
}

/// Runs the §6 checker on every instance with up to `max_links` links,
/// current loads and future loads in `0..values`, own loads in
/// `1..values` and `0..=max_future` future agents, against every
/// assignment of `1 + F` loads for each `F` in `0..=max_future`, each with
/// its own-load link and one other link as the suggestion; returns
/// (instances, checks, accepted).
fn enumerate_online(max_links: u32, values: i64, max_future: u32) -> (u64, u64, u64) {
    let (mut instances, mut checks, mut accepted) = (0, 0, 0);
    let value = Rational::from;
    for m in 1..=max_links {
        for loads in tuples(m, values as usize) {
            let current: Vec<Rational> = loads.iter().map(|&l| value(l as i64)).collect();
            for (own, future) in (1..values).flat_map(|o| (0..values).map(move |f| (o, f))) {
                let (own, future) = (value(own), value(future));
                for agents in 0..=max_future {
                    instances += 1;
                    let instance = OnlineInstance {
                        current_loads: &current,
                        own_load: &own,
                        expected_future_load: &future,
                        expected_future_agents: agents as usize,
                    };
                    for shipped in 0..=max_future {
                        for assignment in tuples(1 + shipped, m as usize) {
                            let fits = shipped == agents;
                            let nash =
                                fits && is_online_equilibrium(&current, &own, &future, &assignment);
                            let own_link = assignment[0];
                            let other_link = (m > 1).then_some((own_link + 1) % m as usize);
                            for suggested_link in std::iter::once(own_link).chain(other_link) {
                                checks += 1;
                                let cert = OnlineAdviceCertificate {
                                    assignment: assignment.clone(),
                                    suggested_link,
                                };
                                let verdict = verify_online_advice(&instance, &cert);
                                assert_eq!(
                                    verdict.is_ok(),
                                    nash && suggested_link == own_link,
                                    "{instance:?}, {cert:?}: {verdict:?}"
                                );
                                if let Ok(verified) = verdict {
                                    assert_eq!(verified.link, own_link);
                                    accepted += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    println!(
        "online advice, up to {max_links} links over 0..{values}: \
         {instances} instances, {checks} checks, {accepted} accepted"
    );
    (instances, checks, accepted)
}

#[test]
fn online_every_assignment_of_every_instance_on_up_to_3_links() {
    assert_eq!(enumerate_online(3, 3, 2), (702, 42_606, 2_869));
}

#[test]
#[ignore = "9.1M checks: run in release with --include-ignored"]
fn online_every_assignment_of_every_instance_on_up_to_4_links() {
    assert_eq!(enumerate_online(4, 4, 3), (16_320, 9_139_968, 223_775));
}
