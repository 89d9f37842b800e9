//! Spans for the traced run, recorded from the benchmark's own files.
//!
//! Two kinds of span are recorded around calls into the engine's layers:
//!
//! * **in-program**: every transport site of a traced engine is wrapped in
//!   [`Traced`], which times `register`, `send`, `send_batch`, `settle`
//!   and `advance` while the consult runs, as children of its
//!   `session.consult` span;
//! * **shadow**: after each consult, [`Shadow::rerun`] repeats the stages
//!   that consult ran (advice, advice-frame length, each honest verdict,
//!   spec digest and cache checks, vote pooling) through the same public
//!   calls on the same inputs, so their cost is measured beside the
//!   consult rather than inside it.
//!
//! Spans stay in a thread-local buffer and are written out at the end.
//! Consults of the traced pass run on the calling thread, so one buffer
//! sees every span of a request.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fs::File;
use std::hint::black_box;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use ra_authority::{
    kernel_check, spec_digest, BusError, DeliveryRecord, Endpoint, GameSpec, GossipPlane,
    GossipReputation, Inventor, InventorBehavior, LocalReputation, Message, PanelOutcome, Party,
    ReputationBackend, ReputationPolicy, SessionOutcome, Transport, TransportSite,
    VerifierBehavior, Wire,
};

use crate::workloads::{Plan, Workload};

/// One timed interval. Its id is its index in the recorded sequence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// `layer.operation`, e.g. `transport.send`.
    pub name: &'static str,
    /// Start, in nanoseconds since recording started.
    pub start_ns: u64,
    /// End, in nanoseconds since recording started.
    pub end_ns: u64,
    /// The enclosing span's id.
    pub parent: Option<usize>,
    /// The request this span belongs to.
    pub request: Option<u64>,
    /// Whether this is a shadow re-run rather than a call the consult made.
    pub shadow: bool,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    epoch: Instant,
    request: Option<u64>,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

fn now_ns(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// Starts recording spans on this thread, discarding any earlier ones.
pub fn start() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            epoch: Instant::now(),
            request: None,
            spans: Vec::new(),
            open: Vec::new(),
        })
    });
}

/// Stops recording on this thread and returns the spans.
pub fn stop() -> Vec<Span> {
    RECORDER.with(|r| r.borrow_mut().take().map_or_else(Vec::new, |rec| rec.spans))
}

/// Runs `f` as request `id`, under a `bench.request` root span.
pub fn request<R>(id: u64, f: impl FnOnce() -> R) -> R {
    set_request(Some(id));
    let result = span("bench.request", false, f);
    set_request(None);
    result
}

fn set_request(id: Option<u64>) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.request = id;
        }
    });
}

/// Runs `f` inside a span named `name` when this thread is recording.
pub fn span<R>(name: &'static str, shadow: bool, f: impl FnOnce() -> R) -> R {
    let id = RECORDER.with(|r| {
        r.borrow_mut().as_mut().map(|rec| {
            let id = rec.spans.len();
            let now = now_ns(rec.epoch);
            rec.spans.push(Span {
                name,
                start_ns: now,
                end_ns: now,
                parent: rec.open.last().copied(),
                request: rec.request,
                shadow,
            });
            rec.open.push(id);
            id
        })
    });
    let result = f();
    if let Some(id) = id {
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                let closed = rec.open.pop();
                debug_assert_eq!(closed, Some(id), "spans close innermost first");
                rec.spans[id].end_ns = now_ns(rec.epoch);
            }
        });
    }
    result
}

/// Span names of one transport site's operations.
#[derive(Debug)]
struct OpNames {
    register: &'static str,
    send: &'static str,
    send_batch: &'static str,
    settle: &'static str,
    advance: &'static str,
}

static SHARD_OPS: OpNames = OpNames {
    register: "transport.register",
    send: "transport.send",
    send_batch: "transport.send_batch",
    settle: "transport.settle",
    advance: "transport.advance",
};

static GOSSIP_OPS: OpNames = OpNames {
    register: "gossip.register",
    send: "gossip.send",
    send_batch: "gossip.send_batch",
    settle: "gossip.settle",
    advance: "gossip.advance",
};

/// A transport that records a span around each of its inner transport's
/// `register`, `send`, `send_batch`, `settle` and `advance` calls; every
/// other call passes straight through.
#[derive(Debug)]
pub struct Traced {
    inner: Arc<dyn Transport>,
    ops: &'static OpNames,
}

impl Traced {
    /// Wraps the transport serving `site`.
    pub fn new(inner: Arc<dyn Transport>, site: TransportSite) -> Traced {
        let ops = match site {
            TransportSite::Shard(_) => &SHARD_OPS,
            TransportSite::GossipHub => &GOSSIP_OPS,
        };
        Traced { inner, ops }
    }
}

impl Transport for Traced {
    fn register(&self, party: Party) -> Endpoint {
        span(self.ops.register, false, || self.inner.register(party))
    }

    fn disconnect(&self, party: Party) {
        self.inner.disconnect(party)
    }

    fn send(&self, from: Party, to: Party, message: Message) -> Result<(), BusError> {
        span(self.ops.send, false, || self.inner.send(from, to, message))
    }

    fn send_batch(&self, batch: &mut Vec<(Party, Party, Message)>) -> Result<(), BusError> {
        span(self.ops.send_batch, false, || self.inner.send_batch(batch))
    }

    fn drop_link(&self, from: Party, to: Party) {
        self.inner.drop_link(from, to)
    }

    fn heal(&self) {
        self.inner.heal()
    }

    fn settle(&self) {
        span(self.ops.settle, false, || self.inner.settle())
    }

    fn total_bytes(&self) -> usize {
        self.inner.total_bytes()
    }

    fn delivered_bytes(&self) -> usize {
        self.inner.delivered_bytes()
    }

    fn bytes_between(&self, from: Party, to: Party) -> usize {
        self.inner.bytes_between(from, to)
    }

    fn delivery_log(&self) -> Vec<DeliveryRecord> {
        self.inner.delivery_log()
    }

    fn message_count(&self) -> usize {
        self.inner.message_count()
    }

    fn retransmit_bytes(&self) -> usize {
        self.inner.retransmit_bytes()
    }

    fn goodput_bytes(&self) -> usize {
        self.inner.goodput_bytes()
    }

    fn now(&self) -> u64 {
        self.inner.now()
    }

    fn advance(&self, ticks: u64) {
        span(self.ops.advance, false, || self.inner.advance(ticks))
    }
}

/// The public calls a consult's stages make, for re-running them as
/// shadow spans.
pub struct Shadow {
    inventor: Inventor,
    honest: Vec<Party>,
    cache: bool,
    reputation: Arc<dyn ReputationBackend>,
}

impl Shadow {
    /// Shadow stages for `workload`'s engine: the same inventor behaviour,
    /// panel, cache setting and kind of reputation backend.
    pub fn new(workload: Workload, plan: &Plan) -> Shadow {
        let config = workload.reputation();
        let reputation: Arc<dyn ReputationBackend> = match config.policy {
            ReputationPolicy::Isolated => Arc::new(LocalReputation::with_rule(config.vote_rule)),
            _ => Arc::new(GossipReputation::with_config(
                0,
                Arc::new(GossipPlane::new()),
                config.vote_rule,
                config.decay,
            )),
        };
        Shadow {
            inventor: Inventor::new(0, InventorBehavior::Honest),
            honest: workload
                .panel()
                .iter()
                .enumerate()
                .filter(|(_, b)| **b == VerifierBehavior::Honest)
                .map(|(i, _)| Party::Verifier(i as u64))
                .collect(),
            cache: plan.cache_capacity > 0,
            reputation,
        }
    }

    /// Re-runs, as shadow spans, the stages `outcome`'s consult ran on
    /// `spec`. Returns whether the re-computed advice equals the served
    /// advice (a cache hit serves stored advice and computes none).
    pub fn rerun(&self, spec: &GameSpec, outcome: &SessionOutcome) -> bool {
        if self.cache {
            span("cache.spec_digest", true, || black_box(spec_digest(spec)));
        }
        if outcome.cached {
            if let Some(advice) = &outcome.advice {
                span("cache.replay_check", true, || {
                    black_box(kernel_check(spec, advice))
                });
            }
            return true;
        }
        let advice = span("inventor.advise", true, || self.inventor.advise(spec));
        if advice != outcome.advice {
            return false;
        }
        let Some(advice) = advice else {
            return true;
        };
        let frame = Message::AdviceWithProof {
            game_id: 0,
            advice: Box::new(advice.clone()),
        };
        span("wire.encoded_len", true, || black_box(frame.encoded_len()));
        for (verifier, _, _) in &outcome.verdict_details {
            if self.honest.contains(verifier) {
                span("verifier.kernel_check", true, || {
                    black_box(kernel_check(spec, &advice))
                });
            }
        }
        if self.cache && outcome.panel == PanelOutcome::Full {
            span("cache.insert_check", true, || {
                black_box(kernel_check(spec, &advice))
            });
        }
        if outcome.majority.is_some() {
            let verdicts: Vec<(Party, bool)> = outcome
                .verdict_details
                .iter()
                .map(|(party, accepted, _)| (*party, *accepted))
                .collect();
            span("reputation.pool_verdicts", true, || {
                black_box(self.reputation.pool_verdicts(&verdicts))
            });
        }
        true
    }
}

/// The layer a span's time is charged to: the name's prefix, with the
/// gossip hub's transport charged to the reputation plane it carries.
/// `None` for the benchmark's own root and the consult itself.
pub fn layer_of(name: &str) -> Option<&str> {
    match name.split('.').next()? {
        "bench" | "session" => None,
        "gossip" => Some("reputation"),
        layer => Some(layer),
    }
}

/// Span durations in nanoseconds, grouped by span name.
pub fn durations_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<u64>> {
    let mut by_name: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for span in spans {
        by_name
            .entry(span.name)
            .or_default()
            .push(span.duration_ns());
    }
    by_name
}

/// Checks that every span carries a request id, that each child lies
/// inside its parent's interval and request, and that parents precede
/// their children.
pub fn check_integrity(spans: &[Span]) -> Result<(), String> {
    for (id, span) in spans.iter().enumerate() {
        if span.request.is_none() {
            return Err(format!("span {id} ({}) has no request id", span.name));
        }
        if span.end_ns < span.start_ns {
            return Err(format!("span {id} ({}) ends before it starts", span.name));
        }
        let Some(parent_id) = span.parent else {
            continue;
        };
        let Some(parent) = spans.get(parent_id).filter(|_| parent_id < id) else {
            return Err(format!("span {id} ({}) has no earlier parent", span.name));
        };
        if parent.request != span.request {
            return Err(format!("span {id} ({}) crosses requests", span.name));
        }
        if span.start_ns < parent.start_ns || span.end_ns > parent.end_ns {
            return Err(format!(
                "span {id} ({}) lies outside its parent {parent_id} ({})",
                span.name, parent.name
            ));
        }
    }
    Ok(())
}

/// Writes `spans` as JSON lines `{id, name, start_ns, end_ns, parent,
/// request, shadow}`.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> io::Result<()> {
    let mut out = BufWriter::new(File::create(path)?);
    let or_null = |v: Option<u64>| v.map_or_else(|| "null".to_owned(), |v| v.to_string());
    for (id, span) in spans.iter().enumerate() {
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\
             \"request\":{},\"shadow\":{}}}",
            span.name,
            span.start_ns,
            span.end_ns,
            or_null(span.parent.map(|p| p as u64)),
            or_null(span.request),
            span.shadow
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_carry_the_request() {
        start();
        span("bench.outside", false, || ());
        request(7, || {
            span("session.consult", false, || {
                span("transport.send", false, || ())
            });
            span("inventor.advise", true, || ());
        });
        let spans = stop();
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "bench.outside",
                "bench.request",
                "session.consult",
                "transport.send",
                "inventor.advise"
            ]
        );
        assert_eq!(spans[0].request, None);
        assert!(spans[1..].iter().all(|s| s.request == Some(7)));
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!(spans[4].parent, Some(1));
        assert!(spans[4].shadow);
        assert!(check_integrity(&spans)
            .unwrap_err()
            .contains("no request id"));
        let mut all_in_requests = spans.clone();
        all_in_requests[0].request = Some(6);
        assert_eq!(check_integrity(&all_in_requests), Ok(()));
    }

    #[test]
    fn a_child_outside_its_parent_is_flagged() {
        let span = |start_ns, end_ns, parent| Span {
            name: "transport.send",
            start_ns,
            end_ns,
            parent,
            request: Some(1),
            shadow: false,
        };
        assert_eq!(
            check_integrity(&[span(0, 10, None), span(2, 8, Some(0))]),
            Ok(())
        );
        assert!(check_integrity(&[span(0, 10, None), span(5, 11, Some(0))]).is_err());
    }

    #[test]
    fn nothing_is_recorded_unless_started() {
        assert_eq!(span("transport.send", false, || 3), 3);
        assert!(stop().is_empty());
    }

    #[test]
    fn gossip_time_is_charged_to_reputation() {
        assert_eq!(layer_of("gossip.send"), Some("reputation"));
        assert_eq!(layer_of("transport.settle"), Some("transport"));
        assert_eq!(layer_of("session.consult"), None);
    }
}
