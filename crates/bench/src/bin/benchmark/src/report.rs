//! The declared metrics and the one-line JSON result.
//!
//! Names and units here must match `BENCHMARK.json` in both directions;
//! the schema test holds them to it.

use std::collections::BTreeMap;

/// One declared metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricDef {
    /// The metric's name in the result line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// Whether one seed always gives the same value (a count, not a time).
    pub exact: bool,
}

const fn metric(name: &'static str, unit: &'static str, exact: bool) -> MetricDef {
    MetricDef { name, unit, exact }
}

/// Metrics of an untraced run (`--trace 0`).
pub const END_TO_END: [MetricDef; 4] = [
    metric("setup_s", "s", false),
    metric("consults_per_sec", "1/s", false),
    metric("bytes_per_consult", "B", true),
    metric("peak_heap_mib", "MiB", false),
];

/// Metrics of a traced run (`--trace 1`).
pub const PER_LAYER: [MetricDef; 39] = [
    metric("verifier.us_per_consult", "us", false),
    metric("verifier.kernel_check_p50_us", "us", false),
    metric("verifier.checks_per_consult", "count", true),
    metric("inventor.us_per_consult", "us", false),
    metric("inventor.advise_p50_us", "us", false),
    metric("inventor.calls_per_consult", "count", true),
    metric("cache.us_per_consult", "us", false),
    metric("cache.digest_p50_us", "us", false),
    metric("cache.hit_ratio", "ratio", true),
    metric("cache.stale_per_1k", "count", true),
    metric("cache.evictions_per_1k", "count", true),
    metric("cache.replay_failures", "count", true),
    metric("transport.us_per_consult", "us", false),
    metric("transport.register_us_per_consult", "us", false),
    metric("transport.register_p50_us", "us", false),
    metric("transport.send_us_per_consult", "us", false),
    metric("transport.settle_us_per_consult", "us", false),
    metric("transport.calls_per_consult", "count", true),
    metric("transport.frames_per_consult", "count", true),
    metric("transport.goodput_bytes_per_consult", "B", true),
    metric("transport.retransmit_bytes_per_consult", "B", true),
    metric("session.consult_p50_us", "us", false),
    metric("session.consult_p99_us", "us", false),
    metric("session.unexplained_us_per_consult", "us", false),
    metric("session.attempts_p99", "count", true),
    metric("session.degraded_ratio", "ratio", true),
    metric("session.ticks_p50", "ticks", true),
    metric("session.ticks_p99", "ticks", true),
    metric("wire.us_per_consult", "us", false),
    metric("wire.advice_bytes", "B", true),
    metric("wire.frame_pool_misses", "count", true),
    metric("reputation.us_per_consult", "us", false),
    metric("reputation.gossip_us_per_consult", "us", false),
    metric("reputation.gossip_bytes_per_consult", "B", true),
    metric("reputation.panel_changes", "count", true),
    metric("reputation.dissent_ratio", "ratio", true),
    metric("shard.parallel_speedup", "ratio", false),
    metric("shard.imbalance", "ratio", true),
    metric("trace.overhead_ratio", "ratio", false),
];

/// The result of one run: the last line the benchmark prints.
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    /// Whether every outcome and every internal check was correct.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: consult errors plus oracle violations.
    pub failed: u64,
    /// Every declared metric with its value, in declaration order.
    pub metrics: Vec<(MetricDef, f64)>,
}

impl Report {
    /// A report of `values` for exactly the metrics in `defs`. A missing
    /// or non-finite value makes the report incorrect and reads 0.
    pub fn new(
        defs: &[MetricDef],
        values: &BTreeMap<&'static str, f64>,
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> Report {
        let mut correct = correct && values.len() == defs.len();
        let metrics = defs
            .iter()
            .map(|def| {
                let value = values.get(def.name).copied().filter(|v| v.is_finite());
                correct &= value.is_some();
                (*def, value.unwrap_or(0.0))
            })
            .collect();
        Report {
            correct,
            attempted,
            failed,
            metrics,
        }
    }

    /// The process exit code: 0 only when correct and nothing failed.
    pub fn exit_code(&self) -> i32 {
        if self.correct && self.failed == 0 {
            0
        } else {
            1
        }
    }

    /// The one-line JSON form.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(def, value)| {
                format!(
                    "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                    def.name, def.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn values(defs: &[MetricDef]) -> BTreeMap<&'static str, f64> {
        defs.iter().map(|d| (d.name, 1.5)).collect()
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|d| d.name)
            .collect();
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "a metric name is used twice");
        for def in END_TO_END.iter().chain(&PER_LAYER) {
            let ok = |c: char, extra: &str| c.is_ascii_alphanumeric() || extra.contains(c);
            assert!(def.name.len() <= 64 && def.name.chars().all(|c| ok(c, "_.-")));
            assert!(def.unit.len() <= 16 && def.unit.chars().all(|c| ok(c, "_/%.-")));
        }
    }

    #[test]
    fn json_line_has_every_metric_with_its_unit() {
        let report = Report::new(&END_TO_END, &values(&END_TO_END), true, 10, 0);
        assert_eq!(report.exit_code(), 0);
        let json = report.json();
        assert!(json.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0,"));
        assert!(json.contains("\"consults_per_sec\": {\"value\": 1.5, \"unit\": \"1/s\"}"));
    }

    #[test]
    fn failures_and_gaps_make_the_exit_non_zero() {
        let failed = Report::new(&END_TO_END, &values(&END_TO_END), true, 10, 3);
        assert_eq!(failed.exit_code(), 1, "flagged outcomes fail the run");
        let mut partial = values(&END_TO_END);
        partial.remove("setup_s");
        let report = Report::new(&END_TO_END, &partial, true, 10, 0);
        assert!(!report.correct);
        assert_eq!(report.exit_code(), 1);
        let mut infinite = values(&END_TO_END);
        infinite.insert("setup_s", f64::INFINITY);
        assert!(!Report::new(&END_TO_END, &infinite, true, 10, 0).correct);
    }
}
