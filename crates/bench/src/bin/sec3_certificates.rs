//! Regenerates the §3 measurements: kernel certificate checking vs
//! exhaustive equilibrium search, as the strategy space grows.
//!
//! The §3 proof scheme enumerates all profiles; its value is that the
//! *checking* of an `isNash` claim costs only `Σ_i (|A_i| − 1)` utility
//! comparisons while *finding* equilibria costs the whole profile space
//! times that. Maximality proofs necessarily touch every profile but with
//! O(1) witness checks each, still ~`Σ|A_i|`-times cheaper than the search.
//!
//! `nash lkps` is `Σ_i |A_i|`, the payoffs an `isNash` check reads (each
//! agent's own and its `|A_i| − 1` deviations), and `proof size` counts
//! the maximality proof's rule applications; both are computed here from
//! the game and the proof, since the kernel only returns a verdict.
//!
//! Every cell is the [`Spread`] of [`SAMPLES`] timed runs, so no figure
//! rests on one call's warm-up. The search and the kernel's unbound
//! [`verdict`] entry (the one a verifier runs) repeat on one game. `nash
//! check` and `max check` mint the theorem, which adds the game's SHA-256
//! spec digest (one pass over the whole payoff tensor); a game memoizes
//! its digest, and clones carry the memo, so each of their samples checks
//! a freshly generated copy of the game and pays that first contact.
//!
//! Usage: `cargo run -p ra-bench --release --bin sec3_certificates`

use ra_bench::{fmt_secs, timed, write_csv, Spread};
use ra_games::{GameGenerator, StrategicGame};
use ra_proofs::kernel::{check, verdict, Proof};
use ra_solvers::{analyze_pure_nash, prove_is_nash, prove_max_nash};

/// Timed runs behind every cell.
const SAMPLES: usize = 7;

/// The random `s × s` game of `seed`, built afresh (no digest memo).
fn game_of(seed: u64, s: usize) -> StrategicGame {
    GameGenerator::seeded(seed).strategic(vec![s, s], -1000..=1000)
}

/// The spread of `SAMPLES` timings of `run`, each on the input `setup`
/// makes for it (untimed).
fn sampled<I, T>(mut setup: impl FnMut() -> I, mut run: impl FnMut(I) -> T) -> Spread {
    Spread::of((0..SAMPLES).map(|_| {
        let input = setup();
        timed(|| run(input)).1
    }))
}

/// `spread`'s median with its range, for the stdout table.
fn cell(spread: &Spread) -> String {
    format!(
        "{} [{}–{}]",
        fmt_secs(spread.median),
        fmt_secs(spread.min),
        fmt_secs(spread.max)
    )
}

fn main() {
    println!(
        "§3 — certificate checking vs exhaustive search (2 agents, s strategies each;\n\
         median [min–max] of {SAMPLES} runs):\n"
    );
    println!(
        "{:>4} {:>9} {:>30} {:>30} {:>30} {:>30} {:>10} {:>10}",
        "s",
        "profiles",
        "search",
        "nash verdict",
        "nash check",
        "max check",
        "nash lkps",
        "proof size"
    );
    let mut rows = Vec::new();
    for s in [2usize, 4, 8, 16, 32, 64] {
        // A uniform random game has a pure equilibrium with probability
        // ≈ 1 − 1/e; scan seeds until one does.
        let (seed, game, analysis) = (0..50u64)
            .map(|k| s as u64 * 100 + k)
            .find_map(|seed| {
                let game = game_of(seed, s);
                let analysis = analyze_pure_nash(&game);
                (!analysis.equilibria.is_empty()).then_some((seed, game, analysis))
            })
            .expect("a seed with a pure equilibrium exists");
        let search = sampled(|| (), |()| analyze_pure_nash(&game));
        let nash_proof = prove_is_nash(analysis.equilibria[0].clone());
        let nash_verdict = sampled(|| (), |()| verdict(&game, &nash_proof).unwrap());
        let nash_check = sampled(
            || game_of(seed, s),
            |fresh| check(&fresh, &nash_proof).unwrap(),
        );
        let lookups: usize = game.strategy_counts().iter().sum();
        let (max_check, proof_size) = match analysis.maximal.first() {
            Some(candidate) => {
                let proof = prove_max_nash(&game, candidate).unwrap();
                let spread = sampled(|| game_of(seed, s), |fresh| check(&fresh, &proof).unwrap());
                (spread, rules(&proof))
            }
            None => (Spread::of([0.0]), 0),
        };
        println!(
            "{s:>4} {:>9} {:>30} {:>30} {:>30} {:>30} {:>10} {:>10}",
            game.num_profiles(),
            cell(&search),
            cell(&nash_verdict),
            cell(&nash_check),
            cell(&max_check),
            lookups,
            proof_size
        );
        rows.push(format!(
            "{s},{},{SAMPLES},{},{},{},{},{lookups},{proof_size}",
            game.num_profiles(),
            csv(&search),
            csv(&nash_verdict),
            csv(&nash_check),
            csv(&max_check),
        ));
    }
    let spread = |cell: &str| format!("{cell}_median_secs,{cell}_min_secs,{cell}_max_secs");
    let header = format!(
        "strategies,profiles,samples,{},{},{},{},nash_check_lookups,max_proof_size",
        spread("search"),
        spread("nash_verdict"),
        spread("nash_check"),
        spread("max_check"),
    );
    let path = write_csv("sec3", &header, &rows);
    println!("\nwrote {}", path.display());
    println!(
        "\npaper check — an isNash certificate checks in Θ(s) lookups while the search\n\
         costs Θ(s²·s) = Θ(s³) lookups for 2 agents; the measured gap widens accordingly.\n\
         Maximality certificates cost Θ(s²) (one witness per profile) — still a factor\n\
         Θ(s) below the search, and the checker never trusts the inventor's labels."
    );
}

/// The rule applications in `proof`: one per node, plus one per
/// classification verdict of a maximality or minimality proof.
fn rules(proof: &Proof) -> usize {
    match proof {
        Proof::EvalAtom(_) | Proof::NashIntro { .. } | Proof::NashRefute { .. } => 1,
        Proof::AndIntro(parts) => 1 + parts.iter().map(rules).sum::<usize>(),
        Proof::OrIntro { witness, .. } => 1 + rules(witness),
        Proof::MaxNashIntro {
            nash,
            classification,
            ..
        }
        | Proof::MinNashIntro {
            nash,
            classification,
            ..
        } => 1 + rules(nash) + classification.len(),
    }
}

/// `spread`'s median, min and max seconds as three CSV fields.
fn csv(spread: &Spread) -> String {
    format!("{:.9},{:.9},{:.9}", spread.median, spread.min, spread.max)
}
