//! The in-memory network — the one [`Transport`] implementation.
//!
//! An in-process stand-in for the distributed deployment of Fig. 1:
//! parties register endpoints, messages are serialized to real bytes
//! (so Lemma 1's communication claims are measured), delivered into
//! each recipient's [`Endpoint`] queue, and counted. Fault injection
//! (drop rules) supports the dishonest-party experiments.
//!
//! [`Network`] is generic over a sealed [`LinkModel`] that decides each
//! routed frame's fate; routing, accounting and the `Transport` surface
//! are shared. There are two models:
//!
//! * [`Perfect`] — zero-sized: every frame is delivered inside `send`,
//!   nothing is sampled and the clock never moves. [`Bus`] is the network
//!   over perfect links, the canonical backend.
//! * [`Simulated`](crate::Simulated) — per-link latency, loss and
//!   duplication sampled from a seeded stream, a scripted partition/heal
//!   schedule and a virtual clock (see [`crate::SimNet`]).
//!
//! Each network holds one `Mutex` over everything it mutates: the
//! routing table, the drop rules, the [`Ledger`](crate::transport) and
//! the link model's state. Every network in the engine is driven by one
//! thread at a time (a shard's under its shard lock, the gossip hub from
//! `sync_reputation`), so finer locking bought no throughput. Every
//! method takes the lock once. The only lock taken under it is a
//! recipient's queue lock, a leaf held just for the push, so there is no
//! lock order to keep. A send or a whole batch routes, samples and
//! accounts under one acquisition, which keeps a simulated link's random
//! stream in send order; the accessors (`total_bytes`, `delivered_bytes`,
//! `bytes_between`, `delivery_log`, `message_count`) each read one
//! consistent snapshot, so under concurrency they are individually
//! consistent with some linearization of the accounted sends.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard, Weak};

use crate::messages::{Message, Party};
use crate::transport::{BusError, DeliveryRecord, Endpoint, Ledger, Transport};
use crate::wire::Wire;

/// The network's handle on a registered [`Endpoint`]'s queue. Weak, so
/// dropping the endpoint frees the queue and later deliveries fail.
pub type Inbox = Weak<Mutex<VecDeque<(Party, Message)>>>;

/// Appends a frame to `inbox`; false if its endpoint was dropped.
pub(crate) fn push(inbox: &Inbox, from: Party, message: Message) -> bool {
    let Some(queue) = inbox.upgrade() else {
        return false;
    };
    queue
        .lock()
        .expect("inbox lock poisoned")
        .push_back((from, message));
    true
}

/// Fault injection: `(from, to)` pairs whose messages are dropped.
pub type DropRules = HashSet<(Party, Party)>;

/// What a link model decided for a frame whose destination is routed.
#[derive(Debug)]
pub enum Fate {
    /// Lost on the link: accounted undelivered.
    Lost,
    /// Delivered after `delay` ticks (inside `send` when zero), twice when
    /// `duplicate`.
    Deliver {
        /// Ticks until delivery.
        delay: u64,
        /// Whether a byte-identical copy follows the frame.
        duplicate: bool,
    },
}

pub(crate) mod sealed {
    use super::{DropRules, Fate, Inbox, Message, Party};

    /// The hooks the network's one send path calls on its link model,
    /// always under the network's lock. Public in a crate-private module,
    /// so only this crate's two models implement it; every provided
    /// method is the perfect link's behaviour.
    pub trait Hooks {
        /// The fate of one frame on the `from → to` link.
        fn fate(&mut self, _from: Party, _to: Party) -> Fate {
            Fate::Deliver {
                delay: 0,
                duplicate: false,
            }
        }

        /// Puts a frame in flight for `delay > 0` ticks.
        fn queue(&mut self, delay: u64, from: Party, inbox: Inbox, message: Message);

        /// Delivers every in-flight frame (see `Transport::settle`); a
        /// scheduled split or heal edits `drop_rules`.
        fn settle(&mut self, _drop_rules: &mut DropRules) {}

        /// The virtual clock.
        fn now(&self) -> u64 {
            0
        }

        /// Advances the virtual clock by `ticks` (see
        /// `Transport::advance`); a scheduled split or heal edits
        /// `drop_rules`.
        fn advance(&mut self, _ticks: u64, _drop_rules: &mut DropRules) {}
    }
}

/// How a [`Network`]'s links treat routed frames. Sealed: the models are
/// [`Perfect`] and [`Simulated`](crate::Simulated).
pub trait LinkModel: sealed::Hooks + std::fmt::Debug + Send + Sync {}

/// The perfect link: zero latency, zero loss, no clock and no RNG. A
/// zero-sized model, so a [`Bus`]'s lock holds only routing and the
/// ledger.
#[derive(Clone, Copy, Debug, Default)]
pub struct Perfect;

impl LinkModel for Perfect {}

impl sealed::Hooks for Perfect {
    fn queue(&mut self, _: u64, _: Party, _: Inbox, _: Message) {
        unreachable!("a perfect link delivers inside send")
    }
}

/// Everything a [`Network`] mutates, behind its one lock.
#[derive(Debug, Default)]
pub(crate) struct NetState<M> {
    endpoints: HashMap<Party, Inbox>,
    pub(crate) drop_rules: DropRules,
    ledger: Ledger,
    /// The link model, which decides each routed frame's fate.
    pub(crate) link: M,
}

impl<M: LinkModel> NetState<M> {
    /// The one send step: drop rule, then the destination
    /// lookup (an unknown party errors before any accounting), then the
    /// link model's fate, then delivery — inside this call when the delay
    /// is zero, which is the only case a dropped `Endpoint` is detected —
    /// and accounting of each frame put on the wire.
    fn transmit(&mut self, from: Party, to: Party, message: Message) -> Result<(), BusError> {
        let bytes = message.encoded_len();
        let retransmit = message.is_retransmit();
        if self.drop_rules.contains(&(from, to)) {
            self.ledger.account(from, to, bytes, false, retransmit);
            return Ok(());
        }
        let inbox = self.endpoints.get(&to).ok_or(BusError::UnknownParty(to))?;
        let (delay, duplicate) = match self.link.fate(from, to) {
            Fate::Lost => {
                self.ledger.account(from, to, bytes, false, retransmit);
                return Ok(());
            }
            Fate::Deliver { delay, duplicate } => (delay, duplicate),
        };
        // A delayed frame is accounted delivered when it is queued: its
        // fate is already decided and it lands at settle.
        let link = &mut self.link;
        let mut deliver = |message: Message| {
            if delay == 0 {
                push(inbox, from, message)
            } else {
                link.queue(delay, from, inbox.clone(), message);
                true
            }
        };
        // At-least-once duplication: the copy shares the sampled delay and
        // is accounted as its own record.
        let copy = duplicate.then(|| message.clone());
        let delivered = deliver(message);
        self.ledger.account(from, to, bytes, delivered, retransmit);
        if let Some(copy) = copy {
            let copy_delivered = deliver(copy);
            self.ledger
                .account(from, to, bytes, copy_delivered, retransmit);
        }
        if delivered {
            Ok(())
        } else {
            Err(BusError::Disconnected(to))
        }
    }
}

/// The in-memory network over links of model `M`: one lock over the
/// routing table, the ledger and the link model, and one send path. Use
/// it through [`Bus`] or [`SimNet`](crate::SimNet).
#[derive(Debug, Default)]
pub struct Network<M: LinkModel> {
    state: Mutex<NetState<M>>,
}

/// The synchronous in-memory network: a [`Network`] over [`Perfect`]
/// links. Delivery is synchronous — a sent frame is immediately visible
/// to its destination endpoint — so [`Transport::settle`] is a no-op here.
///
/// # Examples
///
/// ```
/// use ra_authority::{Bus, Message, Party, Transport};
///
/// let bus = Bus::new();
/// let inventor = Party::Inventor(0);
/// let agent = Party::Agent(0);
/// bus.register(inventor);
/// let agent_ep = bus.register(agent);
/// bus.send(inventor, agent, Message::AdviceRequest { game_id: 1 }).unwrap();
/// let (from, msg) = agent_ep.try_recv().unwrap();
/// assert_eq!(from, inventor);
/// assert_eq!(msg, Message::AdviceRequest { game_id: 1 });
/// assert!(bus.total_bytes() > 0);
/// ```
pub type Bus = Network<Perfect>;

impl Bus {
    /// Creates an empty bus.
    pub fn new() -> Bus {
        Bus::default()
    }
}

impl<M: LinkModel> Network<M> {
    /// Keeps the per-frame delivery log ([`Transport::delivery_log`])
    /// from now on, and with it the per-pair sums
    /// ([`Transport::bytes_between`]) read off it. Off by default: the
    /// ledger then holds only the running totals and the frame count, so
    /// its memory grows neither with traffic nor with the number of
    /// parties served, and `bytes_between` reads 0.
    ///
    /// ```
    /// use ra_authority::{Bus, Message, Party, Transport};
    ///
    /// let bus = Bus::new().with_delivery_log();
    /// bus.register(Party::Agent(1));
    /// let _ep = bus.register(Party::Agent(2));
    /// bus.send(Party::Agent(1), Party::Agent(2), Message::AdviceRequest { game_id: 1 })
    ///     .unwrap();
    /// assert_eq!(bus.delivery_log().len(), bus.message_count());
    /// ```
    pub fn with_delivery_log(mut self) -> Self {
        self.state
            .get_mut()
            .expect("network lock poisoned")
            .ledger
            .keep_log();
        self
    }

    /// An empty network over `model`'s links.
    pub(crate) fn with_model(model: M) -> Network<M> {
        Network {
            state: Mutex::new(NetState {
                endpoints: HashMap::new(),
                drop_rules: DropRules::new(),
                ledger: Ledger::default(),
                link: model,
            }),
        }
    }

    /// The network's one lock.
    pub(crate) fn state(&self) -> MutexGuard<'_, NetState<M>> {
        self.state.lock().expect("network lock poisoned")
    }
}

impl<M: LinkModel> Transport for Network<M> {
    /// Frames already in flight keep the queue they captured at send
    /// time, so re-registering does not redirect them.
    fn register(&self, party: Party) -> Endpoint {
        let queue = Arc::default();
        self.state().endpoints.insert(party, Arc::downgrade(&queue));
        Endpoint { party, queue }
    }

    fn disconnect(&self, party: Party) {
        self.state().endpoints.remove(&party);
    }

    fn send(&self, from: Party, to: Party, message: Message) -> Result<(), BusError> {
        self.state().transmit(from, to, message)
    }

    /// Holds the network's lock across the whole batch. The counters,
    /// the log records (when kept) and the sampled fates come out exactly
    /// as from the equivalent sequence of [`Transport::send`] calls.
    fn send_batch(&self, batch: &mut Vec<(Party, Party, Message)>) -> Result<(), BusError> {
        if batch.is_empty() {
            return Ok(());
        }
        let mut state = self.state();
        let mut first_error = Ok(());
        for (from, to, message) in batch.drain(..) {
            let result = state.transmit(from, to, message);
            if first_error.is_ok() {
                first_error = result;
            }
        }
        first_error
    }

    fn drop_link(&self, from: Party, to: Party) {
        self.state().drop_rules.insert((from, to));
    }

    fn heal(&self) {
        self.state().drop_rules.clear();
    }

    fn settle(&self) {
        let state = &mut *self.state();
        state.link.settle(&mut state.drop_rules);
    }

    fn total_bytes(&self) -> usize {
        self.state().ledger.total_bytes()
    }

    fn delivered_bytes(&self) -> usize {
        self.state().ledger.delivered_bytes()
    }

    fn bytes_between(&self, from: Party, to: Party) -> usize {
        self.state().ledger.bytes_between(from, to)
    }

    fn delivery_log(&self) -> Vec<DeliveryRecord> {
        self.state().ledger.delivery_log()
    }

    fn message_count(&self) -> usize {
        self.state().ledger.message_count()
    }

    fn retransmit_bytes(&self) -> usize {
        self.state().ledger.retransmit_bytes()
    }

    fn now(&self) -> u64 {
        self.state().link.now()
    }

    fn advance(&self, ticks: u64) {
        let state = &mut *self.state();
        state.link.advance(ticks, &mut state.drop_rules);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::checked_log;
    use crate::SimNet;
    use std::sync::Arc;

    /// The same empty network under each link model, keeping its delivery
    /// log: the concurrency tests run against both, since both route and
    /// account under the network's one lock.
    fn both_models() -> [Arc<dyn Transport>; 2] {
        [
            Arc::new(Bus::new().with_delivery_log()),
            Arc::new(SimNet::lossless(0).with_delivery_log()),
        ]
    }

    #[test]
    fn delivery_and_accounting() {
        let bus = Bus::new().with_delivery_log();
        let a = Party::Agent(1);
        let b = Party::Agent(2);
        bus.register(a);
        let ep_b = bus.register(b);
        bus.send(a, b, Message::AdviceRequest { game_id: 7 })
            .unwrap();
        bus.send(a, b, Message::AdviceRequest { game_id: 8 })
            .unwrap();
        let drained = ep_b.drain();
        assert_eq!(drained.len(), 2);
        assert_eq!(bus.message_count(), 2);
        assert_eq!(bus.total_bytes(), bus.bytes_between(a, b));
        assert!(bus.total_bytes() >= 4);
    }

    #[test]
    fn counters_agree_with_log_scan() {
        // The running aggregates must stay consistent with what a full
        // scan of the delivery log would compute (the pre-refactor
        // semantics), including dropped messages and unknown parties.
        let bus = Bus::new().with_delivery_log();
        let a = Party::Agent(1);
        let b = Party::Agent(2);
        let c = Party::Verifier(3);
        let _ep_a = bus.register(a);
        let _ep_b = bus.register(b);
        let _ep_c = bus.register(c);
        bus.drop_link(a, c);
        bus.send(a, b, Message::AdviceRequest { game_id: 1 })
            .unwrap();
        bus.send(a, c, Message::AdviceRequest { game_id: 2 })
            .unwrap();
        bus.send(b, a, Message::AdviceRequest { game_id: 3 })
            .unwrap();
        let _ = bus.send(a, Party::Agent(99), Message::AdviceRequest { game_id: 4 });
        let log = checked_log(&bus);
        assert_eq!(bus.message_count(), log.len());
        assert_eq!(
            bus.total_bytes(),
            log.iter().map(|r| r.bytes).sum::<usize>()
        );
        for (from, to) in [(a, b), (a, c), (b, a), (b, c)] {
            assert_eq!(
                bus.bytes_between(from, to),
                log.iter()
                    .filter(|r| r.from == from && r.to == to)
                    .map(|r| r.bytes)
                    .sum::<usize>()
            );
        }
    }

    #[test]
    fn delivered_bytes_excludes_drops_and_failures() {
        // PR 2 made failed sends record as undelivered; delivered_bytes
        // must exclude those and fault-injected drops, while total_bytes
        // keeps counting every attempt.
        let bus = Bus::new().with_delivery_log();
        let a = Party::Agent(1);
        let b = Party::Agent(2);
        let c = Party::Verifier(3);
        bus.register(a);
        let _ep_b = bus.register(b);
        let ep_c = bus.register(c);
        drop(ep_c);
        bus.drop_link(a, b);
        bus.send(a, b, Message::AdviceRequest { game_id: 1 })
            .unwrap(); // dropped by fault injection
        let _ = bus.send(a, c, Message::AdviceRequest { game_id: 2 }); // disconnected
        let _ = bus.send(a, Party::Agent(99), Message::AdviceRequest { game_id: 3 }); // unknown
        assert_eq!(bus.delivered_bytes(), 0);
        assert!(bus.total_bytes() > 0);
        bus.heal();
        bus.send(a, b, Message::AdviceRequest { game_id: 4 })
            .unwrap();
        let log = checked_log(&bus);
        assert_eq!(
            bus.delivered_bytes(),
            log.iter()
                .filter(|r| r.delivered)
                .map(|r| r.bytes)
                .sum::<usize>(),
            "running delivered counter matches a log scan"
        );
        assert!(bus.delivered_bytes() < bus.total_bytes());
    }

    /// The traffic mix the batch/sequential equivalence tests replay:
    /// clean deliveries, a fault-injected drop, an unknown destination and
    /// a disconnected endpoint, across several pairs.
    fn adversarial_traffic() -> Vec<(Party, Party, Message)> {
        let a = Party::Agent(1);
        let b = Party::Agent(2);
        let c = Party::Verifier(3);
        vec![
            (a, b, Message::AdviceRequest { game_id: 1 }),
            (a, c, Message::AdviceRequest { game_id: 2 }), // dropped link
            (b, a, Message::AdviceRequest { game_id: 3 }),
            (a, Party::Agent(99), Message::AdviceRequest { game_id: 4 }), // unknown
            (b, c, Message::AdviceRequest { game_id: 5 }),                // disconnected
            (a, b, Message::AdviceRequest { game_id: 6 }),
        ]
    }

    /// Builds a bus with the fixture topology for `adversarial_traffic`:
    /// a↔b live, a→c fault-dropped, c's endpoint dropped (disconnected).
    /// The bus keeps its delivery log.
    fn adversarial_bus() -> (Bus, Endpoint, Endpoint) {
        let bus = Bus::new().with_delivery_log();
        let ep_a = bus.register(Party::Agent(1));
        let ep_b = bus.register(Party::Agent(2));
        let ep_c = bus.register(Party::Verifier(3));
        drop(ep_c);
        bus.drop_link(Party::Agent(1), Party::Verifier(3));
        (bus, ep_a, ep_b)
    }

    #[test]
    fn send_batch_accounting_matches_sequential_sends() {
        // The tentpole contract: one send_batch produces byte-identical
        // DeliveryRecords, counters and per-pair sums to N sequential
        // sends of the same messages — including drop rules, unknown
        // parties and disconnected endpoints.
        let (batched, batched_a, batched_b) = adversarial_bus();
        let (sequential, seq_a, seq_b) = adversarial_bus();
        let mut batch = adversarial_traffic();
        let first_batch_error = batched.send_batch(&mut batch);
        assert!(batch.is_empty(), "the batch buffer is drained for reuse");
        let mut first_seq_error = Ok(());
        for (from, to, message) in adversarial_traffic() {
            let result = sequential.send(from, to, message);
            if first_seq_error.is_ok() {
                first_seq_error = result;
            }
        }
        assert_eq!(first_batch_error, first_seq_error);
        assert_eq!(checked_log(&batched), checked_log(&sequential));
        assert_eq!(batched.total_bytes(), sequential.total_bytes());
        assert_eq!(batched.delivered_bytes(), sequential.delivered_bytes());
        assert_eq!(batched.message_count(), sequential.message_count());
        for from in [Party::Agent(1), Party::Agent(2)] {
            for to in [Party::Agent(1), Party::Agent(2), Party::Verifier(3)] {
                assert_eq!(
                    batched.bytes_between(from, to),
                    sequential.bytes_between(from, to),
                    "{from} -> {to}"
                );
            }
        }
        // Delivery itself matches too: the same messages reach the same
        // endpoints in the same order.
        assert_eq!(batched_a.drain(), seq_a.drain());
        assert_eq!(batched_b.drain(), seq_b.drain());
    }

    #[test]
    fn send_batch_attempts_everything_after_a_failure() {
        let (bus, _ep_a, ep_b) = adversarial_bus();
        let mut batch = vec![
            (
                Party::Agent(1),
                Party::Agent(99),
                Message::AdviceRequest { game_id: 1 },
            ),
            (
                Party::Agent(1),
                Party::Agent(2),
                Message::AdviceRequest { game_id: 2 },
            ),
        ];
        assert_eq!(
            bus.send_batch(&mut batch),
            Err(BusError::UnknownParty(Party::Agent(99))),
            "the first failure is reported"
        );
        assert_eq!(
            bus.message_count(),
            1,
            "the unknown-party send is unaccounted, exactly like `send`"
        );
        let delivered = ep_b.drain();
        assert_eq!(delivered.len(), 1, "the later message still delivered");
        assert_eq!(delivered[0].1, Message::AdviceRequest { game_id: 2 });
    }

    #[test]
    fn empty_batch_is_free() {
        let bus = Bus::new();
        assert_eq!(bus.send_batch(&mut Vec::new()), Ok(()));
        assert_eq!(bus.message_count(), 0);
        assert_eq!(bus.total_bytes(), 0);
    }

    #[test]
    fn drain_into_reuses_the_buffer() {
        let bus = Bus::new();
        let a = Party::Agent(1);
        let b = Party::Agent(2);
        bus.register(a);
        let ep_b = bus.register(b);
        let mut buf = Vec::new();
        bus.send(a, b, Message::AdviceRequest { game_id: 1 })
            .unwrap();
        bus.send(a, b, Message::AdviceRequest { game_id: 2 })
            .unwrap();
        assert_eq!(ep_b.drain_into(&mut buf), 2);
        assert_eq!(buf.len(), 2);
        // Appends without clearing: callers own the clear, which is what
        // lets one buffer live across a whole receive loop.
        bus.send(a, b, Message::AdviceRequest { game_id: 3 })
            .unwrap();
        assert_eq!(ep_b.drain_into(&mut buf), 1);
        assert_eq!(buf.len(), 3);
        let capacity = buf.capacity();
        buf.clear();
        bus.send(a, b, Message::AdviceRequest { game_id: 4 })
            .unwrap();
        assert_eq!(ep_b.drain_into(&mut buf), 1);
        assert_eq!(buf.capacity(), capacity, "no reallocation on reuse");
    }

    #[test]
    fn unknown_party_rejected() {
        let bus = Bus::new();
        let a = Party::Agent(1);
        bus.register(a);
        assert_eq!(
            bus.send(a, Party::Verifier(9), Message::AdviceRequest { game_id: 1 }),
            Err(BusError::UnknownParty(Party::Verifier(9)))
        );
    }

    #[test]
    fn disconnected_endpoint_reported() {
        let bus = Bus::new().with_delivery_log();
        let a = Party::Agent(1);
        let b = Party::Agent(2);
        bus.register(a);
        let ep_b = bus.register(b);
        drop(ep_b);
        assert_eq!(
            bus.send(a, b, Message::AdviceRequest { game_id: 1 }),
            Err(BusError::Disconnected(b))
        );
        // The failed attempt is still accounted in the audit log, and is
        // recorded as undelivered.
        assert_eq!(bus.message_count(), 1);
        assert!(bus.bytes_between(a, b) > 0);
        assert!(!checked_log(&bus)[0].delivered);
    }

    #[test]
    fn disconnect_unregisters_the_party() {
        // `disconnect` removes the registration outright: later sends see
        // UnknownParty (unaccounted), unlike a dropped Endpoint whose
        // failed sends are accounted as undelivered. Re-registering
        // restores delivery.
        let bus = Bus::new();
        let a = Party::Agent(1);
        let b = Party::Agent(2);
        bus.register(a);
        let ep_b = bus.register(b);
        bus.send(a, b, Message::AdviceRequest { game_id: 1 })
            .unwrap();
        bus.disconnect(b);
        assert_eq!(
            bus.send(a, b, Message::AdviceRequest { game_id: 2 }),
            Err(BusError::UnknownParty(b))
        );
        assert_eq!(bus.message_count(), 1, "unknown-party send unaccounted");
        // The pre-disconnect message is still queued on the old endpoint.
        assert_eq!(ep_b.drain().len(), 1);
        let ep_b2 = bus.register(b);
        bus.send(a, b, Message::AdviceRequest { game_id: 3 })
            .unwrap();
        assert_eq!(ep_b2.drain().len(), 1);
        assert_eq!(bus.message_count(), 2);
        // Disconnecting a never-registered party is a no-op.
        bus.disconnect(Party::Verifier(42));
    }

    #[test]
    fn reregistration_replaces_old_endpoint() {
        let bus = Bus::new();
        let a = Party::Agent(1);
        let b = Party::Agent(2);
        bus.register(a);
        let old_ep = bus.register(b);
        let new_ep = bus.register(b);
        bus.send(a, b, Message::AdviceRequest { game_id: 5 })
            .unwrap();
        // The replaced endpoint receives nothing; the new one receives.
        assert!(old_ep.try_recv().is_none());
        let (from, msg) = new_ep.try_recv().unwrap();
        assert_eq!(from, a);
        assert_eq!(msg, Message::AdviceRequest { game_id: 5 });
        // Dropping the *old* endpoint must not disconnect the party.
        drop(old_ep);
        bus.send(a, b, Message::AdviceRequest { game_id: 6 })
            .unwrap();
        assert!(new_ep.try_recv().is_some());
    }

    #[test]
    fn fault_injection_drops_silently() {
        for bus in both_models() {
            let a = Party::Agent(1);
            let b = Party::Agent(2);
            bus.register(a);
            let ep_b = bus.register(b);
            bus.drop_link(a, b);
            // Duplicate rules are idempotent (set semantics) and heal()
            // still clears everything.
            bus.drop_link(a, b);
            bus.send(a, b, Message::AdviceRequest { game_id: 1 })
                .unwrap();
            assert!(ep_b.try_recv().is_none());
            let log = checked_log(bus.as_ref());
            assert_eq!(log.len(), 1);
            assert!(!log[0].delivered);
            bus.heal();
            bus.send(a, b, Message::AdviceRequest { game_id: 2 })
                .unwrap();
            assert!(ep_b.try_recv().is_some());
        }
    }

    #[test]
    fn stress_merged_ledger_accounts_every_thread() {
        // 8 threads hammer `send` and `send_batch` against an always-live
        // hub while a flaky party is concurrently disconnected and
        // re-registered. Each thread classifies its own attempts by the
        // returned result — Ok and Disconnected are accounted (the latter
        // undelivered), UnknownParty is not — and the shared ledger must
        // equal the per-thread sums exactly.
        for bus in both_models() {
            stress_merged_ledger(bus);
        }
    }

    fn stress_merged_ledger(bus: Arc<dyn Transport>) {
        use std::sync::atomic::{AtomicBool, Ordering};

        const THREADS: u64 = 8;
        const ROUNDS: u64 = 60;
        let hub = Party::Verifier(0);
        let flaky = Party::Verifier(1);
        let hub_ep = bus.register(hub);
        let _flaky_ep = bus.register(flaky);

        let stop = Arc::new(AtomicBool::new(false));
        let toggler = {
            let bus = Arc::clone(&bus);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                // Keep re-registered endpoints alive so sends that land
                // between register and the next disconnect deliver; the
                // windows in between yield UnknownParty errors.
                let mut keep = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    bus.disconnect(flaky);
                    keep.push(bus.register(flaky));
                    std::thread::yield_now();
                }
                keep
            })
        };

        struct Tally {
            accounted_msgs: usize,
            accounted_bytes: usize,
            delivered_msgs: usize,
            delivered_bytes: usize,
            hub_msgs: usize,
        }
        let mut workers = Vec::new();
        for i in 0..THREADS {
            let bus = Arc::clone(&bus);
            workers.push(std::thread::spawn(move || {
                let me = Party::Agent(i);
                bus.register(me);
                let mut tally = Tally {
                    accounted_msgs: 0,
                    accounted_bytes: 0,
                    delivered_msgs: 0,
                    delivered_bytes: 0,
                    hub_msgs: 0,
                };
                let mut batch = Vec::new();
                for g in 0..ROUNDS {
                    let msg = Message::AdviceRequest { game_id: g };
                    let bytes = msg.encoded_len();
                    match g % 3 {
                        // Single sends to the hub always deliver.
                        0 => {
                            bus.send(me, hub, msg).unwrap();
                            tally.accounted_msgs += 1;
                            tally.accounted_bytes += bytes;
                            tally.delivered_msgs += 1;
                            tally.delivered_bytes += bytes;
                            tally.hub_msgs += 1;
                        }
                        // Batched fan-out to the hub: 3 frames, 1 lock.
                        1 => {
                            batch.clear();
                            for _ in 0..3 {
                                batch.push((me, hub, msg.clone()));
                            }
                            bus.send_batch(&mut batch).unwrap();
                            tally.accounted_msgs += 3;
                            tally.accounted_bytes += 3 * bytes;
                            tally.delivered_msgs += 3;
                            tally.delivered_bytes += 3 * bytes;
                            tally.hub_msgs += 3;
                        }
                        // Sends racing the disconnect/re-register toggler:
                        // classify by result.
                        _ => match bus.send(me, flaky, msg) {
                            Ok(()) => {
                                tally.accounted_msgs += 1;
                                tally.accounted_bytes += bytes;
                                tally.delivered_msgs += 1;
                                tally.delivered_bytes += bytes;
                            }
                            Err(BusError::Disconnected(_)) => {
                                tally.accounted_msgs += 1;
                                tally.accounted_bytes += bytes;
                            }
                            Err(BusError::UnknownParty(_)) => {}
                        },
                    }
                }
                tally
            }));
        }
        let tallies: Vec<Tally> = workers.into_iter().map(|h| h.join().unwrap()).collect();
        stop.store(true, Ordering::Relaxed);
        let _keepalive = toggler.join().unwrap();

        let accounted_msgs: usize = tallies.iter().map(|t| t.accounted_msgs).sum();
        let accounted_bytes: usize = tallies.iter().map(|t| t.accounted_bytes).sum();
        let delivered_msgs: usize = tallies.iter().map(|t| t.delivered_msgs).sum();
        let delivered_bytes: usize = tallies.iter().map(|t| t.delivered_bytes).sum();
        let hub_msgs: usize = tallies.iter().map(|t| t.hub_msgs).sum();

        assert_eq!(bus.message_count(), accounted_msgs);
        assert_eq!(bus.total_bytes(), accounted_bytes);
        assert_eq!(bus.delivered_bytes(), delivered_bytes);
        let log = checked_log(&*bus);
        assert_eq!(log.len(), accounted_msgs);
        assert_eq!(
            log.iter().filter(|r| r.delivered).count(),
            delivered_msgs,
            "delivery log length matches the delivered count"
        );
        assert_eq!(
            log.iter().map(|r| r.bytes).sum::<usize>(),
            accounted_bytes,
            "merged log bytes equal the sum of per-thread sent bytes"
        );
        assert_eq!(hub_ep.drain().len(), hub_msgs);
        // Per-pair sums match the log too.
        for i in 0..THREADS {
            let me = Party::Agent(i);
            assert_eq!(
                bus.bytes_between(me, hub),
                log.iter()
                    .filter(|r| r.from == me && r.to == hub)
                    .map(|r| r.bytes)
                    .sum::<usize>()
            );
        }
    }

    #[test]
    fn registration_churn_racing_sends_delivers_everything() {
        // One registrar admits 2000 fresh parties while four senders mix
        // `send` and `send_batch` to the hub and to agents the registrar
        // has already published through a high-water mark. The registrar's
        // Release store after each `register` pairs with the senders'
        // Acquire load, so a published registration happens-before every
        // send to it: each such send returns Ok, lands on its endpoint, and
        // is accounted exactly once.
        for bus in both_models() {
            registration_churn_racing_sends(bus);
        }
    }

    fn registration_churn_racing_sends(bus: Arc<dyn Transport>) {
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
        use std::sync::Barrier;

        const FRESH: u64 = 2000;
        const SENDERS: u64 = 4;
        const MIN_ROUNDS: u64 = 200;
        const MAX_ROUNDS: u64 = 5000;
        let fresh = |k: u64| Party::Agent(10_000 + k);
        let hub = Party::Verifier(0);
        let hub_ep = bus.register(hub);
        let published = Arc::new(AtomicU64::new(0));
        let done = Arc::new(AtomicBool::new(false));
        // Every thread starts at once, so registration overlaps the sends.
        let start = Arc::new(Barrier::new(SENDERS as usize + 1));

        let registrar = {
            let bus = Arc::clone(&bus);
            let published = Arc::clone(&published);
            let done = Arc::clone(&done);
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                let mut endpoints = Vec::new();
                for k in 0..FRESH {
                    endpoints.push(bus.register(fresh(k)));
                    published.store(k + 1, Ordering::Release);
                }
                done.store(true, Ordering::Release);
                endpoints
            })
        };

        struct Tally {
            msgs: usize,
            bytes: usize,
            sent_to: HashMap<Party, usize>,
        }
        let mut senders = Vec::new();
        for i in 0..SENDERS {
            let bus = Arc::clone(&bus);
            let published = Arc::clone(&published);
            let done = Arc::clone(&done);
            let start = Arc::clone(&start);
            senders.push(std::thread::spawn(move || {
                start.wait();
                let me = Party::Agent(i);
                let mut tally = Tally {
                    msgs: 0,
                    bytes: 0,
                    sent_to: HashMap::new(),
                };
                let mut batch = Vec::new();
                for round in 0..MAX_ROUNDS {
                    if round >= MIN_ROUNDS && done.load(Ordering::Acquire) {
                        break;
                    }
                    let n = published.load(Ordering::Acquire);
                    // The hub until anything is published, then a spread
                    // of published agents, including the newest one.
                    let pick = |salt: u64| if n == 0 { hub } else { fresh(salt % n) };
                    let msg = Message::AdviceRequest { game_id: round };
                    let bytes = msg.encoded_len();
                    let dests = if round % 2 == 0 {
                        let to = pick(round * 7919 + i);
                        bus.send(me, to, msg).unwrap();
                        vec![to]
                    } else {
                        let dests = vec![hub, pick(n.wrapping_sub(1)), pick(round * 31 + i)];
                        batch.extend(dests.iter().map(|&to| (me, to, msg.clone())));
                        bus.send_batch(&mut batch).unwrap();
                        dests
                    };
                    for to in dests {
                        tally.msgs += 1;
                        tally.bytes += bytes;
                        *tally.sent_to.entry(to).or_insert(0) += 1;
                    }
                }
                tally
            }));
        }
        let tallies: Vec<Tally> = senders.into_iter().map(|h| h.join().unwrap()).collect();
        let endpoints = registrar.join().unwrap();

        let msgs: usize = tallies.iter().map(|t| t.msgs).sum();
        let bytes: usize = tallies.iter().map(|t| t.bytes).sum();
        let sent_to = |party: Party| -> usize {
            tallies
                .iter()
                .map(|t| t.sent_to.get(&party).copied().unwrap_or(0))
                .sum()
        };
        assert_eq!(bus.message_count(), msgs);
        assert_eq!(bus.total_bytes(), bytes);
        assert_eq!(bus.delivered_bytes(), bytes, "every send was delivered");
        let log = checked_log(&*bus);
        assert_eq!(log.len(), msgs);
        assert!(log.iter().all(|r| r.delivered));
        assert_eq!(hub_ep.drain().len(), sent_to(hub));
        assert_eq!(endpoints.len() as u64, FRESH);
        for ep in &endpoints {
            assert_eq!(ep.drain().len(), sent_to(ep.party), "{}", ep.party);
        }
    }

    #[test]
    fn without_a_log_the_network_keeps_counters_and_empty_queues() {
        // The default network keeps no per-frame history: the frame count
        // stays exact, and a drained inbox gives its buffer back.
        let [bus, sim] = [
            Arc::new(Bus::new()) as Arc<dyn Transport>,
            Arc::new(SimNet::new(crate::SimNetConfig {
                seed: 5,
                default_link: crate::LinkProfile::with_latency(1, 3),
                ..crate::SimNetConfig::default()
            })),
        ];
        for net in [bus, sim] {
            let a = Party::Agent(1);
            let b = Party::Agent(2);
            net.register(a);
            let ep = net.register(b);
            let mut batch = Vec::new();
            for g in 0..40 {
                batch.push((a, b, Message::AdviceRequest { game_id: g }));
            }
            net.send_batch(&mut batch).unwrap();
            net.send(a, b, Message::AdviceRequest { game_id: 40 })
                .unwrap();
            net.settle();
            assert_eq!(net.message_count(), 41, "{net:?}");
            assert!(net.delivery_log().is_empty(), "{net:?}");
            assert!(ep.queue().capacity() > 0);
            let mut out = Vec::new();
            assert_eq!(ep.drain_into(&mut out), 41);
            assert_eq!(ep.queue().capacity(), 0, "drain_into frees the queue");
            for g in 0..3 {
                net.send(a, b, Message::AdviceRequest { game_id: g })
                    .unwrap();
            }
            net.settle();
            while ep.try_recv().is_some() {}
            assert_eq!(ep.queue().capacity(), 0, "try_recv frees the queue");
        }
    }

    #[test]
    fn concurrent_senders() {
        let bus = Arc::new(Bus::new());
        let hub = Party::Verifier(0);
        let ep = bus.register(hub);
        let mut handles = Vec::new();
        for i in 0..8u64 {
            let bus = Arc::clone(&bus);
            handles.push(std::thread::spawn(move || {
                let me = Party::Agent(i);
                bus.register(me);
                for g in 0..50 {
                    bus.send(me, hub, Message::AdviceRequest { game_id: g })
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(ep.drain().len(), 400);
        assert_eq!(bus.message_count(), 400);
    }
}
