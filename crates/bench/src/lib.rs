//! # ra-bench — experiment regeneration and benchmarks
//!
//! One binary per table/figure of the paper plus Criterion
//! micro-benchmarks; `docs/BENCHMARKS.md` at the workspace root indexes
//! every binary and its output schema. Shared helpers live here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use ra_authority::GameSpec;

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

/// The element at index `round(q · (n − 1))` of an ascending-sorted
/// slice of length `n`, for `q` in `[0, 1]`; the type's default (zero)
/// for an empty slice. This rounds to the nearest *index*, which is not
/// the nearest-rank definition (`⌈q · n⌉`-th element): p50 of `1..=100`
/// is 51 here, where nearest-rank gives 50.
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

/// The binary's `position`-th command-line argument as a positive count,
/// or `default` when it is absent. `what` names the argument in the usage
/// message.
///
/// Exits with status 2 and a usage message when the argument is zero or
/// not a decimal integer: every scale binary divides by its budget, and a
/// zero budget would write `NaN` rates.
pub fn count_arg(position: usize, what: &str, default: u64) -> u64 {
    let raw = std::env::args().nth(position);
    parse_count(raw.as_deref(), default).unwrap_or_else(|| {
        let bin = std::env::args().next().unwrap_or_default();
        eprintln!(
            "usage: {bin}: argument {position} ({what}) must be a positive integer \
             (default {default}), got {:?}",
            raw.unwrap_or_default()
        );
        std::process::exit(2)
    })
}

/// Parses a positive decimal count; `default` when absent, `None` when
/// zero or malformed.
fn parse_count(raw: Option<&str>, default: u64) -> Option<u64> {
    match raw {
        None => Some(default),
        Some(s) => s.parse().ok().filter(|&n| n > 0),
    }
}

/// Minimum, median and maximum of repeated wall-clock samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spread {
    /// The smallest sample (best of n, for times).
    pub min: f64,
    /// The [`percentile`] at `0.5` of the sorted samples.
    pub median: f64,
    /// The largest sample.
    pub max: f64,
}

impl Spread {
    /// Sorts `samples` and summarizes them.
    ///
    /// # Panics
    ///
    /// Panics when `samples` is empty.
    pub fn of(samples: impl IntoIterator<Item = f64>) -> Spread {
        let mut sorted: Vec<f64> = samples.into_iter().collect();
        sorted.sort_by(f64::total_cmp);
        Spread {
            min: *sorted.first().expect("at least one sample"),
            median: percentile(&sorted, 0.5),
            max: sorted[sorted.len() - 1],
        }
    }

    /// The spread as a JSON object `{"min","median","max"}` at `digits`
    /// decimals.
    pub fn row(&self, digits: usize) -> Row {
        Row::new()
            .fixed("min", self.min, digits)
            .fixed("median", self.median, digits)
            .fixed("max", self.max, digits)
    }
}

/// `n` consultation requests, agent `i` asking about the `i mod 3`-th of
/// three cheap specs (§3 prisoner's dilemma, §4 battle of the sexes, §3
/// stag hunt), shared by `Arc` across the batch.
pub fn build_batch(n: u64) -> Vec<(u64, Arc<GameSpec>)> {
    use ra_games::named::{battle_of_the_sexes, prisoners_dilemma, stag_hunt};
    let specs = [
        GameSpec::Strategic(prisoners_dilemma().to_strategic()),
        GameSpec::Bimatrix(battle_of_the_sexes()),
        GameSpec::Strategic(stag_hunt(3)),
    ]
    .map(Arc::new);
    (0..n)
        .map(|agent| (agent, Arc::clone(&specs[(agent % 3) as usize])))
        .collect()
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
/// returning the path written. Scale binaries reach it only through
/// [`write_bench`], so every `BENCH_*.json` carries the one envelope.
///
/// Names prefixed `BENCH_` form the machine-readable perf trajectory and
/// land at the **workspace root**, where they are versioned in git (and
/// grep-asserted by CI) so every PR carries its own throughput snapshot.
/// Everything else lands under `results/`, which stays untracked.
///
/// # Panics
///
/// Panics on I/O errors — acceptable in experiment binaries.
fn write_json(name: &str, contents: &str) -> PathBuf {
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

/// The cores this machine offers to the shard worker pool, as
/// `std::thread::available_parallelism` reports them (1 if unknown).
pub fn cores() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
}

/// One field value of a [`Row`].
#[derive(Clone, Debug, PartialEq)]
enum Value {
    Label(String),
    Int(u64),
    /// A finite float and its printed decimals.
    Fixed(f64, usize),
    Null,
    Object(Row),
    List(Vec<Row>),
}

/// Which renderings of a [`Row`] show a field.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Shown {
    Everywhere,
    JsonOnly,
    CsvOnly,
}

/// One output record of a scale binary, declared once as named fields
/// (each float with its own printed precision) and rendered three ways: a
/// table line on stdout, a CSV line and a JSON object. The table and the
/// JSON object show every field not marked [`Row::csv_only`]; the CSV
/// line shows the scalar fields not marked [`Row::json_only`]. All three
/// keep declaration order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Row {
    fields: Vec<(&'static str, Value, Shown)>,
}

impl Row {
    /// An empty row.
    pub fn new() -> Row {
        Row::default()
    }

    fn push(mut self, name: &'static str, value: Value) -> Row {
        self.fields.push((name, value, Shown::Everywhere));
        self
    }

    /// A text field, JSON-escaped in the JSON rendering.
    pub fn label(self, name: &'static str, value: &str) -> Row {
        self.push(name, Value::Label(value.to_owned()))
    }

    /// An integer field.
    pub fn int(self, name: &'static str, value: u64) -> Row {
        self.push(name, Value::Int(value))
    }

    /// An integer field that may be absent: `null` in JSON, empty in CSV.
    pub fn int_or_null(self, name: &'static str, value: Option<u64>) -> Row {
        self.push(name, value.map_or(Value::Null, Value::Int))
    }

    /// A float field printed with `digits` decimals.
    ///
    /// # Panics
    ///
    /// Panics if `value` is `NaN` or infinite: JSON has no spelling for
    /// either, and a gate comparing against one passes vacuously.
    pub fn fixed(self, name: &'static str, value: f64, digits: usize) -> Row {
        assert!(
            value.is_finite(),
            "non-finite float {value} in field `{name}`"
        );
        self.push(name, Value::Fixed(value, digits))
    }

    /// A nested JSON object (JSON only).
    pub fn object(self, name: &'static str, value: Row) -> Row {
        self.push(name, Value::Object(value))
    }

    /// A JSON array of objects (JSON only).
    pub fn rows(self, name: &'static str, value: Vec<Row>) -> Row {
        self.push(name, Value::List(value))
    }

    fn mark_last(mut self, shown: Shown) -> Row {
        self.fields.last_mut().expect("a field to mark").2 = shown;
        self
    }

    /// Shows the last field in the table and JSON but not the CSV.
    pub fn json_only(self) -> Row {
        self.mark_last(Shown::JsonOnly)
    }

    /// Shows the last field in the CSV only.
    pub fn csv_only(self) -> Row {
        self.mark_last(Shown::CsvOnly)
    }

    /// The scalar fields as `(name, text)`, skipping those `hidden`
    /// marks: the CSV hides `JsonOnly`, the table hides `CsvOnly`.
    fn scalars(&self, hidden: Shown) -> impl Iterator<Item = (&'static str, String)> + '_ {
        self.fields.iter().filter_map(move |(name, value, shown)| {
            let text = match value {
                Value::Label(text) => text.clone(),
                Value::Int(n) => n.to_string(),
                Value::Fixed(x, digits) => format!("{x:.digits$}"),
                Value::Null => String::new(),
                Value::Object(_) | Value::List(_) => return None,
            };
            (*shown != hidden).then_some((*name, text))
        })
    }

    fn csv_header(&self) -> String {
        let names: Vec<&str> = self
            .scalars(Shown::JsonOnly)
            .map(|(name, _)| name)
            .collect();
        names.join(",")
    }

    fn csv(&self) -> String {
        let values: Vec<String> = self
            .scalars(Shown::JsonOnly)
            .map(|(_, text)| text)
            .collect();
        values.join(",")
    }

    fn json(&self) -> String {
        let fields: Vec<String> = self
            .fields
            .iter()
            .filter(|(_, _, shown)| *shown != Shown::CsvOnly)
            .map(|(name, value, _)| {
                let value = match value {
                    Value::Label(text) => json_string(text),
                    Value::Int(n) => n.to_string(),
                    Value::Fixed(x, digits) => format!("{x:.digits$}"),
                    Value::Null => String::from("null"),
                    Value::Object(row) => row.json(),
                    Value::List(rows) => {
                        let items: Vec<String> = rows.iter().map(Row::json).collect();
                        format!("[{}]", items.join(","))
                    }
                };
                format!("{}:{value}", json_string(name))
            })
            .collect();
        format!("{{{}}}", fields.join(","))
    }

    /// The table line (or, with `header`, the line of column names).
    fn table_line(&self, header: bool) -> String {
        let cells: Vec<String> = self
            .scalars(Shown::CsvOnly)
            .map(|(name, text)| {
                let width = name.len().max(TABLE_MIN_WIDTH);
                format!("{:>width$}", if header { name } else { &text })
            })
            .collect();
        cells.join(" ")
    }

    /// Prints the table line to stdout, preceded by the column names when
    /// `header` is set.
    pub fn print(&self, header: bool) {
        if header {
            println!("{}", self.table_line(true));
        }
        println!("{}", self.table_line(false));
    }
}

/// Narrowest table column, so short names still align typical values.
const TABLE_MIN_WIDTH: usize = 11;

/// `text` as a quoted JSON string.
fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The shared envelope of every `BENCH_*.json`: `bench` and `cores`,
/// then the fields of `body`.
fn envelope(bench: &str, body: Row) -> Row {
    let mut row = Row::new().label("bench", bench).int("cores", cores());
    row.fields.extend(body.fields);
    row
}

/// Writes `BENCH_<bench>.json` at the workspace root: `body` inside the
/// shared envelope (`bench`, `cores`). Returns the path written.
///
/// # Panics
///
/// Panics on I/O errors — acceptable in experiment binaries.
pub fn write_bench(bench: &str, body: Row) -> PathBuf {
    write_json(&format!("BENCH_{bench}"), &envelope(bench, body).json())
}

/// Writes `rows` to `results/<name>.csv` under their shared CSV header.
///
/// # Panics
///
/// Panics if `rows` is empty or the rows disagree on their CSV header,
/// and on I/O errors.
pub fn write_csv_rows(name: &str, rows: &[Row]) -> PathBuf {
    let header = rows.first().expect("at least one CSV row").csv_header();
    let lines: Vec<String> = rows
        .iter()
        .map(|row| {
            assert_eq!(
                row.csv_header(),
                header,
                "every CSV row has the same columns"
            );
            row.csv()
        })
        .collect();
    write_csv(name, &header, &lines)
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
    fn percentile_rounds_to_the_nearest_index() {
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
    fn spread_sorts_its_samples() {
        let spread = Spread::of([3.0, 1.0, 5.0, 2.0, 4.0]);
        assert_eq!((spread.min, spread.median, spread.max), (1.0, 3.0, 5.0));
        assert_eq!(
            spread.row(1).json(),
            "{\"min\":1.0,\"median\":3.0,\"max\":5.0}"
        );
    }

    #[test]
    fn count_args_are_positive_integers() {
        assert_eq!(parse_count(None, 64), Some(64));
        assert_eq!(parse_count(Some("400"), 64), Some(400));
        assert_eq!(parse_count(Some("0"), 64), None);
        assert_eq!(parse_count(Some("-3"), 64), None);
        assert_eq!(parse_count(Some("ten"), 64), None);
    }

    #[test]
    fn batch_cycles_three_shared_specs() {
        let batch = build_batch(7);
        assert_eq!(batch.len(), 7);
        assert!(batch
            .iter()
            .enumerate()
            .all(|(i, (agent, _))| *agent == i as u64));
        assert!(Arc::ptr_eq(&batch[0].1, &batch[3].1));
        assert!(!Arc::ptr_eq(&batch[0].1, &batch[1].1));
        assert!(!Arc::ptr_eq(&batch[1].1, &batch[2].1));
    }

    #[test]
    fn a_row_renders_csv_and_json_with_the_same_fields_in_order() {
        let row = Row::new()
            .label("mode", "Replay")
            .fixed("zipf_s", 1.1, 1)
            .int("hits", 8128)
            .fixed("rate", 0.984375, 4);
        assert_eq!(row.csv_header(), "mode,zipf_s,hits,rate");
        assert_eq!(row.csv(), "Replay,1.1,8128,0.9844");
        assert_eq!(
            row.json(),
            "{\"mode\":\"Replay\",\"zipf_s\":1.1,\"hits\":8128,\"rate\":0.9844}"
        );
        assert_eq!(
            row.table_line(true).split_whitespace().collect::<Vec<_>>(),
            ["mode", "zipf_s", "hits", "rate"]
        );
        assert_eq!(
            row.table_line(false).split_whitespace().collect::<Vec<_>>(),
            ["Replay", "1.1", "8128", "0.9844"]
        );
    }

    #[test]
    fn precision_is_kept_per_field() {
        let row = Row::new()
            .fixed("a", 0.984375, 4)
            .fixed("b", 0.984375, 2)
            .fixed("c", 1.0, 6)
            .fixed("d", 2.5, 0);
        assert_eq!(row.csv(), "0.9844,0.98,1.000000,2");
        assert_eq!(
            row.json(),
            "{\"a\":0.9844,\"b\":0.98,\"c\":1.000000,\"d\":2}"
        );
    }

    #[test]
    fn none_renders_as_null_in_json_and_empty_in_csv() {
        let row = Row::new()
            .int_or_null("after", None)
            .int_or_null("bytes", Some(7));
        assert_eq!(row.json(), "{\"after\":null,\"bytes\":7}");
        assert_eq!(row.csv(), ",7");
    }

    #[test]
    fn labels_are_json_escaped() {
        let row = Row::new().label("name", "a \"quoted\" \\ path\n");
        assert_eq!(row.json(), r#"{"name":"a \"quoted\" \\ path\u000a"}"#);
    }

    #[test]
    fn json_only_and_csv_only_fields_split_the_renderings() {
        let row = Row::new()
            .int("shared", 1)
            .fixed("rate", 0.5, 2)
            .json_only()
            .int("legacy", 2)
            .csv_only()
            .object("nested", Row::new().int("x", 3))
            .rows("cells", vec![Row::new().int("y", 4)]);
        assert_eq!(row.csv_header(), "shared,legacy");
        assert_eq!(row.csv(), "1,2");
        assert_eq!(
            row.json(),
            "{\"shared\":1,\"rate\":0.50,\"nested\":{\"x\":3},\"cells\":[{\"y\":4}]}"
        );
        assert_eq!(
            row.table_line(true).split_whitespace().collect::<Vec<_>>(),
            ["shared", "rate"]
        );
    }

    #[test]
    fn the_envelope_carries_bench_and_cores() {
        let json = envelope("chaos", Row::new().label("unit", "virtual_ticks")).json();
        assert_eq!(
            json,
            format!(
                "{{\"bench\":\"chaos\",\"cores\":{},\"unit\":\"virtual_ticks\"}}",
                cores()
            )
        );
        assert!(cores() >= 1);
    }

    #[test]
    fn non_finite_floats_are_refused() {
        // A zero-draw hit rate (0/0) once wrote `NaN`, and `NaN < 0.5` let
        // the CI floor pass.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let refused = std::panic::catch_unwind(|| Row::new().fixed("warm_hit_rate", bad, 6));
            assert!(refused.is_err(), "{bad} must not reach a BENCH file");
        }
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
