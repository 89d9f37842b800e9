//! One run of one workload: timed rounds for the end-to-end metrics, or
//! traced rounds for the per-layer breakdown.
//!
//! Every round starts from a fresh engine and a warm-up, then handles a
//! fixed number of requests, generated from its own seed. A run's rounds,
//! and so its work, follow from `--seed` and `--seconds` alone, never from
//! how fast the program is: a faster commit does the same work sooner.
//!
//! Timed rounds split their work into the same fixed steps every round,
//! and a run's time for the work is the sum of each step's fastest round
//! ([`fastest_steps`]). The host this benchmark was defined on runs a
//! thread at one of two speeds, about 1.5× apart, switching every few
//! seconds; a median over rounds lands in whichever speed held for most
//! of the run, while each step's best round repeats. Counts and sizes
//! report their median over rounds, and so does every traced metric.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use ra_authority::{ConsultResult, PanelOutcome, ShardedAuthority};

use crate::alloc;
use crate::oracle::Oracle;
use crate::report::{Report, END_TO_END, PER_LAYER};
use crate::stats::{fastest_steps, mean, median, median_of_rounds, percentile, sorted};
use crate::trace::{self, Shadow, Span};
use crate::workloads::{round_seed, Inputs, Plan, Request, Workload, BATCH};

/// Where traced runs write their spans, relative to the working directory.
const TRACE_DIR: &str = "results";

/// Requests per timed step: a few milliseconds of work, short beside the
/// host's spells at one speed.
pub const WINDOW: usize = 64;

/// What to run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Time budget, which sets the number of rounds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of timed run.
    pub trace: bool,
    /// Test-sized run: one round of at most 64 requests.
    pub smoke: bool,
}

/// Samples one round contributes, by metric name; a name may repeat.
type Samples = Vec<(&'static str, f64)>;

/// Each metric's samples, one per round, by name.
type PerRound = BTreeMap<&'static str, Vec<f64>>;

/// Runs `options`, printing a readable summary, and returns the result.
pub fn run(options: &Options) -> Report {
    let workload = options.workload;
    let plan = workload.plan(options.smoke);
    let rounds = if options.smoke {
        1
    } else {
        plan.rounds(options.seconds, options.trace)
    };
    let mut oracle = Oracle::default();
    let mut problems = Vec::new();
    let (defs, per_round, values): (&[_], _, _) = if options.trace {
        let per_round = traced_run(
            workload,
            &plan,
            options.seed,
            rounds,
            &mut oracle,
            &mut problems,
        );
        let medians = per_round
            .iter()
            .filter_map(|(&name, samples)| Some((name, median(samples)?)))
            .collect();
        (&PER_LAYER, per_round, medians)
    } else {
        let (per_round, values) = timed_run(workload, &plan, options.seed, rounds, &mut oracle);
        (&END_TO_END, per_round, values)
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "workload {} seed {} {} rounds {rounds} requests/round {} cores {cores}",
        workload.name(),
        options.seed,
        if options.trace { "traced" } else { "timed" },
        if options.trace {
            plan.trace_requests
        } else {
            plan.requests
        },
    );
    for def in defs {
        let (Some(value), Some(summary)) = (
            values.get(def.name),
            per_round.get(def.name).and_then(|s| median_of_rounds(s)),
        ) else {
            continue;
        };
        println!(
            "  {:<40} {value:>14.4} {:<5} per round: median {:.4} q1 {:.4} q3 {:.4}",
            def.name, def.unit, summary.median, summary.q1, summary.q3
        );
    }
    if let Some(problem) = oracle.first_problem.iter().chain(&problems).next() {
        println!("  PROBLEM: {problem}");
    }
    Report::new(
        defs,
        &values,
        oracle.correct() && problems.is_empty(),
        oracle.checked,
        oracle.failed(),
    )
}

/// Bytes on every wire of `engine`: each shard's transport plus the gossip
/// hub.
fn wire_bytes(engine: &ShardedAuthority) -> usize {
    engine.total_bytes() + engine.gossip_bus().map_or(0, |hub| hub.total_bytes())
}

/// The timed rounds of a run: each metric's per-round samples, and its
/// value for the run. `setup_s` and `consults_per_sec` come from each
/// step's fastest round; the counts and sizes are medians over rounds.
fn timed_run(
    workload: Workload,
    plan: &Plan,
    seed: u64,
    rounds: usize,
    oracle: &mut Oracle,
) -> (PerRound, BTreeMap<&'static str, f64>) {
    let mut per_round = PerRound::new();
    let (mut setups, mut windows) = (Vec::new(), Vec::new());
    for round in 0..rounds {
        let timed = timed_round(workload, plan, round_seed(seed, round), oracle);
        let timed_s: f64 = timed.windows.iter().sum();
        for (name, value) in [
            ("setup_s", timed.setup_steps.iter().sum()),
            ("consults_per_sec", plan.requests as f64 / timed_s),
            ("bytes_per_consult", timed.bytes_per_consult),
            ("peak_heap_mib", timed.peak_heap_mib),
        ] {
            per_round.entry(name).or_default().push(value);
        }
        setups.push(timed.setup_steps);
        windows.push(timed.windows);
    }
    let mut values = BTreeMap::new();
    if let (Some(setup_s), Some(timed_s)) = (fastest_steps(&setups), fastest_steps(&windows)) {
        values.insert("setup_s", setup_s);
        values.insert("consults_per_sec", plan.requests as f64 / timed_s);
    }
    for name in ["bytes_per_consult", "peak_heap_mib"] {
        if let Some(value) = per_round.get(name).and_then(|s| median(s)) {
            values.insert(name, value);
        }
    }
    (per_round, values)
}

/// What one timed round measured.
struct TimedRound {
    /// Seconds of each set-up step: input generation with the engine
    /// build, then each warm-up window.
    setup_steps: Vec<f64>,
    /// Seconds of each timed window.
    windows: Vec<f64>,
    bytes_per_consult: f64,
    peak_heap_mib: f64,
}

/// One timed round, from one client thread, one consult at a time: set
/// up, then the timed requests in windows of [`WINDOW`]. The oracle runs
/// between windows, outside the timed calls, and so does the live-heap
/// sample: no consult is in flight then, so the sum of the allocator's
/// counters is exact.
fn timed_round(workload: Workload, plan: &Plan, seed: u64, oracle: &mut Oracle) -> TimedRound {
    let start = Instant::now();
    let inputs = Inputs::generate(workload, plan, seed);
    let heap_base = alloc::live();
    let engine = workload.engine(plan, seed, false);
    let mut setup_steps = vec![start.elapsed().as_secs_f64()];
    for window in inputs.warmup.chunks(WINDOW) {
        let (seconds, results) = consult_window(&engine, window);
        setup_steps.push(seconds);
        oracle.count_errors(&results);
    }
    let bytes_before = wire_bytes(&engine);
    let mut heap_peak = alloc::live();
    let mut windows = Vec::with_capacity(inputs.timed.len().div_ceil(WINDOW));
    for window in inputs.timed.chunks(WINDOW) {
        let (seconds, results) = consult_window(&engine, window);
        windows.push(seconds);
        oracle.check_batch(window, &results);
        drop(results);
        heap_peak = heap_peak.max(alloc::live());
    }
    let bytes = wire_bytes(&engine) - bytes_before;
    oracle.check_ledgers(&engine);
    TimedRound {
        setup_steps,
        windows,
        bytes_per_consult: bytes as f64 / inputs.timed.len() as f64,
        peak_heap_mib: heap_peak.saturating_sub(heap_base) as f64 / (1024.0 * 1024.0),
    }
}

/// Consults `requests` one after another on the calling thread, returning
/// the seconds they took and their results.
fn consult_window(engine: &ShardedAuthority, requests: &[Request]) -> (f64, Vec<ConsultResult>) {
    let start = Instant::now();
    let results = requests
        .iter()
        .map(|(agent, spec)| engine.try_consult(*agent, spec))
        .collect();
    (start.elapsed().as_secs_f64(), results)
}

/// The traced rounds of a run: each per-layer metric's samples, one per
/// round. Only the first round writes its spans.
fn traced_run(
    workload: Workload,
    plan: &Plan,
    seed: u64,
    rounds: usize,
    oracle: &mut Oracle,
    problems: &mut Vec<String>,
) -> PerRound {
    let mut per_round = PerRound::new();
    for round in 0..rounds {
        let spans_to = (round == 0).then(|| {
            Path::new(TRACE_DIR).join(format!("benchmark-trace-{}.jsonl", workload.name()))
        });
        let samples = traced_round(
            workload,
            plan,
            round_seed(seed, round),
            oracle,
            spans_to.as_deref(),
            problems,
        );
        for (name, value) in samples {
            per_round.entry(name).or_default().push(value);
        }
    }
    per_round
}

/// Engine counters read before and after the traced pass.
#[derive(Clone, Copy, Debug, Default)]
struct Counters {
    hits: u64,
    stale: u64,
    evictions: u64,
    replay_failures: u64,
    frame_pool_misses: u64,
    frames: usize,
    goodput: usize,
    retransmit: usize,
    gossip_bytes: usize,
    panel_version: u64,
}

impl Counters {
    fn read(engine: &ShardedAuthority) -> Counters {
        let stats = engine.shard_stats();
        let mut counters = Counters {
            hits: stats.cache.hits,
            stale: stats.cache.stale,
            evictions: stats.cache.evictions,
            replay_failures: stats.cache.replay_failures,
            frame_pool_misses: stats.frame_pool_misses,
            frames: stats.message_count,
            gossip_bytes: engine.gossip_bus().map_or(0, |hub| hub.total_bytes()),
            ..Counters::default()
        };
        for shard in 0..engine.shard_count() {
            engine.with_shard(shard, |authority| {
                counters.goodput += authority.bus().goodput_bytes();
                counters.retransmit += authority.bus().retransmit_bytes();
                counters.panel_version += authority.reputation().snapshot().panel_version();
            });
        }
        counters
    }
}

/// What the traced pass's outcomes say, beside the spans.
#[derive(Default)]
struct OutcomeStats {
    attempts: Vec<f64>,
    degraded: u64,
    advice_bytes: Vec<f64>,
    votes: u64,
    dissents: u64,
}

impl OutcomeStats {
    fn observe(&mut self, result: &ConsultResult) {
        let Ok(outcome) = result else {
            return;
        };
        self.attempts.push(outcome.attempts as f64);
        if matches!(outcome.panel, PanelOutcome::Degraded { .. }) {
            self.degraded += 1;
        }
        if outcome.advice.is_some() {
            self.advice_bytes.push(outcome.advice_bytes as f64);
        }
        if let (false, Some(majority)) = (outcome.cached, &outcome.majority) {
            self.votes += (majority.accept_votes + majority.reject_votes) as u64;
            self.dissents += majority.dissenters.len() as u64;
        }
    }
}

/// The untraced sequential pass: per-consult latency and virtual ticks,
/// and how the requests spread over the shards.
struct SequentialPass {
    latencies_us: Vec<f64>,
    ticks: Vec<f64>,
    per_shard: Vec<f64>,
}

fn sequential_pass(
    engine: &ShardedAuthority,
    requests: &[Request],
    oracle: &mut Oracle,
) -> SequentialPass {
    let mut pass = SequentialPass {
        latencies_us: Vec::with_capacity(requests.len()),
        ticks: Vec::with_capacity(requests.len()),
        per_shard: vec![0.0; engine.shard_count()],
    };
    for (agent, spec) in requests {
        let shard = engine.shard_of(*agent);
        pass.per_shard[shard] += 1.0;
        let clock = || engine.with_shard(shard, |authority| authority.bus().now());
        let tick_before = clock();
        let consult_start = Instant::now();
        let result = engine.try_consult(*agent, spec);
        pass.latencies_us
            .push(consult_start.elapsed().as_secs_f64() * 1e6);
        pass.ticks.push((clock() - tick_before) as f64);
        oracle.check(spec, &result);
    }
    pass
}

/// Seconds the same requests take in batches through the worker pool.
fn batch_pass(engine: &ShardedAuthority, requests: &[Request], oracle: &mut Oracle) -> f64 {
    let mut seconds = 0.0;
    for chunk in requests.chunks(BATCH) {
        let batch_start = Instant::now();
        let results = engine.try_consult_batch(chunk);
        seconds += batch_start.elapsed().as_secs_f64();
        oracle.check_batch(chunk, &results);
    }
    seconds
}

/// The traced sequential pass: spans, engine counters around it, and what
/// its outcomes say.
struct TracedPass {
    spans: Vec<Span>,
    before: Counters,
    after: Counters,
    outcomes: OutcomeStats,
    advice_mismatches: usize,
}

fn traced_pass(
    engine: &ShardedAuthority,
    shadow: &Shadow,
    requests: &[Request],
    oracle: &mut Oracle,
) -> TracedPass {
    let mut outcomes = OutcomeStats::default();
    let mut advice_mismatches = 0;
    let before = Counters::read(engine);
    trace::start();
    for (request, (agent, spec)) in requests.iter().enumerate() {
        let result = trace::request(request as u64, || {
            let result = trace::span("session.consult", false, || {
                engine.try_consult(*agent, spec)
            });
            if let Ok(outcome) = &result {
                if !shadow.rerun(spec, outcome) {
                    advice_mismatches += 1;
                }
            }
            result
        });
        outcomes.observe(&result);
        oracle.check(spec, &result);
    }
    let spans = trace::stop();
    TracedPass {
        spans,
        before,
        after: Counters::read(engine),
        outcomes,
        advice_mismatches,
    }
}

/// The layers a consult's time is charged to; whatever they leave of the
/// consult's mean is `session.unexplained_us_per_consult`.
const LAYERS: [&str; 6] = [
    "verifier",
    "inventor",
    "cache",
    "transport",
    "wire",
    "reputation",
];

/// One traced round, over a prefix of the timed requests:
///
/// 1. an untraced sequential pass, for consult latency and virtual ticks;
/// 2. an untraced batched pass of the same requests, for the pool's
///    speed-up over the sequential pass;
/// 3. a traced sequential pass, whose spans give the per-layer costs.
///
/// Each pass starts from a fresh engine after the same warm-up, run
/// sequentially so every pass meets the same engine state.
fn traced_round(
    workload: Workload,
    plan: &Plan,
    seed: u64,
    oracle: &mut Oracle,
    spans_to: Option<&Path>,
    problems: &mut Vec<String>,
) -> Samples {
    let inputs = Inputs::generate(workload, plan, seed);
    let requests = &inputs.timed[..plan.trace_requests];
    let warmed = |traced: bool, oracle: &mut Oracle| {
        let engine = workload.engine(plan, seed, traced);
        for (agent, spec) in &inputs.warmup {
            oracle.check(spec, &engine.try_consult(*agent, spec));
        }
        engine
    };
    let plain = sequential_pass(&warmed(false, oracle), requests, oracle);
    let batch_s = batch_pass(&warmed(false, oracle), requests, oracle);
    let engine = warmed(true, oracle);
    let traced = traced_pass(&engine, &Shadow::new(workload, plan), requests, oracle);
    oracle.check_ledgers(&engine);
    drop(engine);

    if traced.advice_mismatches > 0 {
        problems.push(format!(
            "{} shadow advice re-runs differ from the served advice",
            traced.advice_mismatches
        ));
    }
    if let Err(e) = trace::check_integrity(&traced.spans) {
        problems.push(format!("trace integrity: {e}"));
    }
    if let Some(path) = spans_to {
        let written = std::fs::create_dir_all(TRACE_DIR)
            .and_then(|()| trace::write_jsonl(path, &traced.spans));
        if let Err(e) = written {
            problems.push(format!("writing {}: {e}", path.display()));
        }
    }
    layer_samples(&plain, batch_s, &traced, problems)
}

/// The per-layer metrics of one traced round.
fn layer_samples(
    plain: &SequentialPass,
    batch_s: f64,
    traced: &TracedPass,
    problems: &mut Vec<String>,
) -> Samples {
    let n = plain.latencies_us.len() as f64;
    let (before, after, outcomes) = (&traced.before, &traced.after, &traced.outcomes);
    let by_name = trace::durations_by_name(&traced.spans);
    let durations = |name: &str| by_name.get(name).map_or(&[][..], Vec::as_slice);
    let us_where = |keep: &dyn Fn(&str) -> bool| {
        by_name
            .iter()
            .filter(|(name, _)| keep(name))
            .flat_map(|(_, ns)| ns)
            .sum::<u64>() as f64
            / 1e3
            / n
    };
    let us_of = |names: &[&str]| us_where(&|name| names.contains(&name));
    let layer_us = |layer: &str| us_where(&|name| trace::layer_of(name) == Some(layer));
    let calls_of = |keep: &dyn Fn(&str) -> bool| {
        by_name
            .iter()
            .filter(|(name, _)| keep(name))
            .map(|(_, ns)| ns.len())
            .sum::<usize>() as f64
            / n
    };
    let p50_us = |name: &str| {
        let us: Vec<f64> = durations(name).iter().map(|&ns| ns as f64 / 1e3).collect();
        percentile(&sorted(&us), 50.0).unwrap_or(0.0)
    };

    let consult_mean_us = us_of(&["session.consult"]);
    let explained: f64 = LAYERS.iter().map(|layer| layer_us(layer)).sum();
    // Every span below the consult is charged to exactly one layer.
    let charged = us_where(&|name| trace::layer_of(name).is_some());
    if (charged - explained).abs() > 1e-9 * charged.max(1.0) {
        problems.push(format!(
            "spans outside the layers {LAYERS:?}: {:.4} us per consult",
            charged - explained
        ));
    }
    let latencies = sorted(&plain.latencies_us);
    let ticks = sorted(&plain.ticks);
    let attempts = sorted(&outcomes.attempts);
    let per_1k = |count: u64| count as f64 * 1000.0 / n;
    let ratio = |part: u64, whole: u64| {
        if whole == 0 {
            0.0
        } else {
            part as f64 / whole as f64
        }
    };
    let max_shard = plain.per_shard.iter().copied().fold(0.0, f64::max);

    Vec::from([
        ("verifier.us_per_consult", layer_us("verifier")),
        (
            "verifier.kernel_check_p50_us",
            p50_us("verifier.kernel_check"),
        ),
        (
            "verifier.checks_per_consult",
            calls_of(&|name| name == "verifier.kernel_check"),
        ),
        ("inventor.us_per_consult", layer_us("inventor")),
        ("inventor.advise_p50_us", p50_us("inventor.advise")),
        (
            "inventor.calls_per_consult",
            calls_of(&|name| name == "inventor.advise"),
        ),
        ("cache.us_per_consult", layer_us("cache")),
        ("cache.digest_p50_us", p50_us("cache.spec_digest")),
        ("cache.hit_ratio", (after.hits - before.hits) as f64 / n),
        ("cache.stale_per_1k", per_1k(after.stale - before.stale)),
        (
            "cache.evictions_per_1k",
            per_1k(after.evictions - before.evictions),
        ),
        (
            "cache.replay_failures",
            (after.replay_failures - before.replay_failures) as f64,
        ),
        ("transport.us_per_consult", layer_us("transport")),
        (
            "transport.register_us_per_consult",
            us_of(&["transport.register"]),
        ),
        ("transport.register_p50_us", p50_us("transport.register")),
        (
            "transport.send_us_per_consult",
            us_of(&["transport.send", "transport.send_batch"]),
        ),
        (
            "transport.settle_us_per_consult",
            us_of(&["transport.settle", "transport.advance"]),
        ),
        (
            "transport.calls_per_consult",
            calls_of(&|name| name.starts_with("transport.")),
        ),
        (
            "transport.frames_per_consult",
            (after.frames - before.frames) as f64 / n,
        ),
        (
            "transport.goodput_bytes_per_consult",
            (after.goodput - before.goodput) as f64 / n,
        ),
        (
            "transport.retransmit_bytes_per_consult",
            (after.retransmit - before.retransmit) as f64 / n,
        ),
        (
            "session.consult_p50_us",
            percentile(&latencies, 50.0).unwrap_or(0.0),
        ),
        (
            "session.consult_p99_us",
            percentile(&latencies, 99.0).unwrap_or(0.0),
        ),
        (
            "session.unexplained_us_per_consult",
            consult_mean_us - explained,
        ),
        (
            "session.attempts_p99",
            percentile(&attempts, 99.0).unwrap_or(0.0),
        ),
        ("session.degraded_ratio", outcomes.degraded as f64 / n),
        ("session.ticks_p50", percentile(&ticks, 50.0).unwrap_or(0.0)),
        ("session.ticks_p99", percentile(&ticks, 99.0).unwrap_or(0.0)),
        ("wire.us_per_consult", layer_us("wire")),
        (
            "wire.advice_bytes",
            mean(&outcomes.advice_bytes).unwrap_or(0.0),
        ),
        (
            "wire.frame_pool_misses",
            (after.frame_pool_misses - before.frame_pool_misses) as f64,
        ),
        ("reputation.us_per_consult", layer_us("reputation")),
        (
            "reputation.gossip_us_per_consult",
            us_where(&|name| name.starts_with("gossip.")),
        ),
        (
            "reputation.gossip_bytes_per_consult",
            (after.gossip_bytes - before.gossip_bytes) as f64 / n,
        ),
        (
            "reputation.panel_changes",
            (after.panel_version - before.panel_version) as f64,
        ),
        (
            "reputation.dissent_ratio",
            ratio(outcomes.dissents, outcomes.votes),
        ),
        (
            "shard.parallel_speedup",
            plain.latencies_us.iter().sum::<f64>() / 1e6 / batch_s,
        ),
        (
            "shard.imbalance",
            max_shard * plain.per_shard.len() as f64 / n,
        ),
        (
            "trace.overhead_ratio",
            p50_us("session.consult") / percentile(&latencies, 50.0).unwrap_or(f64::NAN),
        ),
    ])
}
