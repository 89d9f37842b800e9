//! # ra-bench — experiment regeneration and benchmarks
//!
//! One binary per table/figure of the paper plus Criterion
//! micro-benchmarks; `docs/BENCHMARKS.md` at the workspace root indexes
//! every binary and its output schema. Shared helpers live here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Instant;

/// Times a closure, returning `(result, seconds)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Formats seconds human-readably (µs/ms/s).
pub fn fmt_secs(s: f64) -> String {
    if s < 1e-3 {
        format!("{:.1}µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{s:.2}s")
    }
}

/// Nearest-rank percentile `q` (in `[0, 1]`) of an ascending-sorted
/// slice; the type's default (zero) for an empty slice.
pub fn percentile<T: Copy + Default>(sorted: &[T], q: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// The campaign seed shared with the scenario suite: `RA_SCENARIO_SEED`
/// (decimal) when set, else the fixed default campaign seed.
pub fn scenario_seed() -> u64 {
    parse_seed(std::env::var("RA_SCENARIO_SEED").ok().as_deref())
}

/// Parses a decimal seed, falling back to the default campaign seed when
/// it is absent or malformed.
fn parse_seed(var: Option<&str>) -> u64 {
    var.and_then(|s| s.parse().ok()).unwrap_or(0xDEC0DE)
}

/// The workspace root: the nearest ancestor of this crate's manifest dir
/// whose `Cargo.toml` declares `[workspace]`. Falls back to the manifest
/// dir itself if no workspace manifest is found (e.g. the crate is vendored
/// standalone), so the crate never panics over directory layout.
pub fn workspace_root() -> std::path::PathBuf {
    let manifest_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest_dir
        .ancestors()
        .find(|dir| {
            std::fs::read_to_string(dir.join("Cargo.toml"))
                .map(|manifest| manifest.contains("[workspace]"))
                .unwrap_or(false)
        })
        .unwrap_or(manifest_dir)
        .to_path_buf()
}

/// Writes CSV rows to `results/<name>.csv` under the workspace root,
/// creating the directory if needed and returning the path written.
///
/// # Panics
///
/// Panics on I/O errors — acceptable in experiment binaries.
pub fn write_csv(name: &str, header: &str, rows: &[String]) -> std::path::PathBuf {
    let dir = workspace_root().join("results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join(format!("{name}.csv"));
    let mut contents = String::from(header);
    contents.push('\n');
    for row in rows {
        contents.push_str(row);
        contents.push('\n');
    }
    std::fs::write(&path, contents).expect("write csv");
    path
}

/// Writes `contents` to `<name>.json`, creating directories as needed and
/// returning the path written. Callers are responsible for producing
/// valid JSON.
///
/// Names prefixed `BENCH_` form the machine-readable perf trajectory and
/// land at the **workspace root**, where they are versioned in git (and
/// grep-asserted by CI) so every PR carries its own throughput snapshot.
/// Everything else lands under `results/`, which stays untracked.
///
/// # Panics
///
/// Panics on I/O errors — acceptable in experiment binaries.
pub fn write_json(name: &str, contents: &str) -> std::path::PathBuf {
    let dir = if name.starts_with("BENCH_") {
        workspace_root()
    } else {
        let dir = workspace_root().join("results");
        std::fs::create_dir_all(&dir).expect("create results dir");
        dir
    };
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, contents).expect("write json");
    path
}

/// Constructs an `m × m` bimatrix game whose unique equilibrium mixes
/// uniformly over the first `support_size` strategies of each agent
/// (a generalized rock-paper-scissors block padded with strictly dominated
/// strategies). `support_size` must be odd and `≥ 1`.
///
/// # Panics
///
/// Panics if `support_size` is even, zero, or exceeds `m`.
pub fn game_with_support_size(m: usize, support_size: usize) -> ra_games::BimatrixGame {
    assert!(
        support_size >= 1 && support_size <= m,
        "support size in range"
    );
    assert!(
        support_size % 2 == 1,
        "odd support for a unique cyclic equilibrium"
    );
    use ra_exact::Rational;
    let s = support_size;
    let a = ra_exact::Matrix::from_fn(m, m, |i, j| {
        if i < s && j < s {
            // Cyclic zero-sum block: beats the next (s-1)/2, loses to the
            // previous (s-1)/2.
            let diff = (j + s - i) % s;
            if diff == 0 {
                Rational::zero()
            } else if diff <= (s - 1) / 2 {
                Rational::from(-1)
            } else {
                Rational::from(1)
            }
        } else if i >= s {
            Rational::from(-10) // dominated row
        } else {
            Rational::from(10) // column j >= s is bad for the column agent
        }
    });
    let b = ra_exact::Matrix::from_fn(m, m, |i, j| -&a[(i, j)]);
    ra_games::BimatrixGame::new(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ra_games::{MixedProfile, MixedStrategy};

    #[test]
    fn support_game_has_uniform_equilibrium() {
        for (m, s) in [(5, 3), (8, 5), (6, 1), (7, 7)] {
            let game = game_with_support_size(m, s);
            let mut probs = vec![ra_exact::Rational::zero(); m];
            for p in probs.iter_mut().take(s) {
                *p = ra_exact::Rational::new(1, s as i64);
            }
            let profile = MixedProfile {
                row: MixedStrategy::try_new(probs.clone()).unwrap(),
                col: MixedStrategy::try_new(probs).unwrap(),
            };
            assert!(game.is_nash(&profile), "m={m} s={s}");
        }
    }

    #[test]
    fn workspace_root_has_workspace_manifest() {
        let root = workspace_root();
        let manifest = std::fs::read_to_string(root.join("Cargo.toml")).unwrap();
        assert!(manifest.contains("[workspace]"));
        // Robust against crate depth: not derived by counting ancestors.
        assert!(root
            .join("crates")
            .join("bench")
            .join("Cargo.toml")
            .exists());
    }

    #[test]
    fn write_csv_creates_results_dir() {
        let path = write_csv(
            "smoke_write_csv",
            "a,b",
            &[String::from("1,2"), String::from("3,4")],
        );
        let contents = std::fs::read_to_string(&path).unwrap();
        assert_eq!(contents, "a,b\n1,2\n3,4\n");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn write_json_creates_results_dir() {
        let path = write_json("smoke_write_json", "{\"ok\":true}");
        assert!(path.parent().unwrap().ends_with("results"));
        let contents = std::fs::read_to_string(&path).unwrap();
        assert_eq!(contents, "{\"ok\":true}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bench_prefixed_json_lands_at_the_workspace_root() {
        let path = write_json("BENCH_smoke", "{\"ok\":true}");
        assert_eq!(path.parent().unwrap(), workspace_root());
        let contents = std::fs::read_to_string(&path).unwrap();
        assert_eq!(contents, "{\"ok\":true}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 0.0), 1);
        assert_eq!(percentile(&sorted, 0.5), 51);
        assert_eq!(percentile(&sorted, 0.99), 99);
        assert_eq!(percentile(&sorted, 1.0), 100);
        assert_eq!(percentile(&[2.5, 7.5], 0.5), 7.5);
        assert_eq!(percentile::<u64>(&[], 0.5), 0);
        assert_eq!(percentile::<f64>(&[], 0.99), 0.0);
    }

    #[test]
    fn seed_parses_decimal_or_falls_back() {
        assert_eq!(parse_seed(Some("14598366")), 14598366);
        assert_eq!(parse_seed(None), 0xDEC0DE);
        assert_eq!(parse_seed(Some("0x1F")), 0xDEC0DE);
        assert_eq!(parse_seed(Some("")), 0xDEC0DE);
    }

    #[test]
    fn timing_helpers() {
        let (v, secs) = timed(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
        assert!(fmt_secs(0.0000005).ends_with("µs"));
        assert!(fmt_secs(0.005).ends_with("ms"));
        assert!(fmt_secs(2.5).ends_with('s'));
    }
}
