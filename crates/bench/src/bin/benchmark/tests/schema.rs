//! Holds the benchmark to its declaration in the repository's
//! `BENCHMARK.json`: the metric names and units it prints, plain and
//! traced, and the exact metrics repeating under one seed.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use ra_benchmark::report::{MetricDef, END_TO_END, PER_LAYER};
use ra_benchmark::workloads::Workload;

/// Just enough JSON for `BENCHMARK.json` and the result line.
#[derive(Clone, Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            at: 0,
        };
        let value = parser.value();
        parser.skip_space();
        assert_eq!(parser.at, text.len(), "trailing text after JSON value");
        value
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Object(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("no key {key:?}")),
            _ => panic!("not an object: {self:?}"),
        }
    }

    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Object(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("not an object: {self:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::String(s) => s,
            _ => panic!("not a string: {self:?}"),
        }
    }

    fn number(&self) -> f64 {
        match self {
            Json::Number(n) => *n,
            _ => panic!("not a number: {self:?}"),
        }
    }

    fn array(&self) -> &[Json] {
        match self {
            Json::Array(items) => items,
            _ => panic!("not an array: {self:?}"),
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_space(&mut self) {
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> bool {
        self.skip_space();
        let found = self.bytes.get(self.at) == Some(&byte);
        if found {
            self.at += 1;
        }
        found
    }

    fn literal(&mut self, word: &str, value: Json) -> Json {
        assert!(
            self.bytes[self.at..].starts_with(word.as_bytes()),
            "bad literal"
        );
        self.at += word.len();
        value
    }

    fn value(&mut self) -> Json {
        self.skip_space();
        match self.bytes[self.at] {
            b'{' => {
                self.at += 1;
                let mut fields = Vec::new();
                if !self.eat(b'}') {
                    loop {
                        self.skip_space();
                        let key = self.string();
                        assert!(self.eat(b':'), "expected ':'");
                        fields.push((key, self.value()));
                        if self.eat(b'}') {
                            break;
                        }
                        assert!(self.eat(b','), "expected ','");
                    }
                }
                Json::Object(fields)
            }
            b'[' => {
                self.at += 1;
                let mut items = Vec::new();
                if !self.eat(b']') {
                    loop {
                        items.push(self.value());
                        if self.eat(b']') {
                            break;
                        }
                        assert!(self.eat(b','), "expected ','");
                    }
                }
                Json::Array(items)
            }
            b'"' => Json::String(self.string()),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            _ => {
                let start = self.at;
                while self
                    .bytes
                    .get(self.at)
                    .is_some_and(|b| b"+-.eE".contains(b) || b.is_ascii_digit())
                {
                    self.at += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.at]).unwrap();
                Json::Number(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number {text:?}")),
                )
            }
        }
    }

    fn string(&mut self) -> String {
        assert_eq!(self.bytes[self.at], b'"', "expected a string");
        self.at += 1;
        let mut out = Vec::new();
        loop {
            let byte = self.bytes[self.at];
            self.at += 1;
            match byte {
                b'"' => return String::from_utf8(out).expect("UTF-8 string"),
                b'\\' => {
                    let escaped = self.bytes[self.at];
                    self.at += 1;
                    out.push(match escaped {
                        b'n' => b'\n',
                        b't' => b'\t',
                        other => other,
                    });
                }
                other => out.push(other),
            }
        }
    }
}

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../../../BENCHMARK.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    Json::parse(&text)
}

/// `(name, unit)` pairs of one `BENCHMARK.json` metric list.
fn declared(json: &Json, list: &str) -> Vec<(String, String)> {
    json.get(list)
        .array()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_owned(),
                m.get("unit").str().to_owned(),
            )
        })
        .collect()
}

fn pairs(defs: &[MetricDef]) -> Vec<(String, String)> {
    defs.iter()
        .map(|d| (d.name.to_owned(), d.unit.to_owned()))
        .collect()
}

/// Runs the benchmark binary in a scratch directory, returning its output
/// and its parsed last line.
fn run(args: &[&str]) -> (Output, Json) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let output = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    let last = stdout.lines().last().unwrap_or_default().to_owned();
    assert!(output.status.success(), "{args:?} failed:\n{stdout}");
    (output, Json::parse(&last))
}

/// A smoke run's metrics as `name -> (value, unit)`, after checking the
/// result line's shape.
fn smoke(workload: &str, trace: &str) -> BTreeMap<String, (f64, String)> {
    let (_, result) = run(&[
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "0",
        "--trace",
        trace,
        "--smoke",
    ]);
    assert_eq!(result.keys(), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), &Json::Bool(true));
    assert_eq!(result.get("failed").number(), 0.0);
    assert!(result.get("attempted").number() >= 1.0);
    let metrics = result.get("metrics");
    metrics
        .keys()
        .into_iter()
        .map(|name| {
            let metric = metrics.get(name);
            assert_eq!(metric.keys(), ["value", "unit"]);
            let unit = metric.get("unit").str().to_owned();
            (name.to_owned(), (metric.get("value").number(), unit))
        })
        .collect()
}

#[test]
fn declared_metrics_and_workloads_match_benchmark_json() {
    let json = benchmark_json();
    assert_eq!(declared(&json, "end_to_end"), pairs(&END_TO_END));
    assert_eq!(declared(&json, "per_layer"), pairs(&PER_LAYER));
    let workloads: Vec<&str> = json
        .get("workloads")
        .array()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}

/// Every workload's plain and traced smoke output prints exactly the
/// declared metrics with their units, and two runs under one seed agree
/// on every exact metric.
#[test]
fn smoke_runs_print_the_declared_metrics_and_repeat_exactly() {
    let json = benchmark_json();
    for workload in Workload::ALL.map(Workload::name) {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let defs: &[MetricDef] = if trace == "0" {
                &END_TO_END
            } else {
                &PER_LAYER
            };
            let first = smoke(workload, trace);
            let printed: Vec<(String, String)> = first
                .iter()
                .map(|(name, (_, unit))| (name.clone(), unit.clone()))
                .collect();
            let mut expected = declared(&json, list);
            expected.sort();
            assert_eq!(printed, expected, "{workload} --trace {trace}");
            let second = smoke(workload, trace);
            for def in defs.iter().filter(|def| def.exact) {
                assert_eq!(
                    first[def.name].0, second[def.name].0,
                    "{workload}: exact metric {} differs between runs",
                    def.name
                );
            }
        }
        let spans = Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("results/benchmark-trace-{workload}.jsonl"));
        let spans = std::fs::read_to_string(&spans).expect("a traced run writes its spans");
        for line in spans.lines() {
            let span = Json::parse(line);
            assert_eq!(
                span.keys(),
                ["id", "name", "start_ns", "end_ns", "parent", "request", "shadow"]
            );
            assert!(
                span.get("request").number() >= 0.0,
                "every span has a request"
            );
        }
    }
}

#[test]
fn bad_arguments_are_refused_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "steady-small", "--trace", "2"],
        &["--workload", "steady-small", "--seconds", "1e300"],
        &["--seed", "1"],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_benchmark"))
            .args(args)
            .output()
            .expect("benchmark binary runs");
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?}");
    }
}
