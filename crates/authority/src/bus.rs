//! The synchronous in-memory bus — the canonical [`Transport`] backend.
//!
//! An in-process stand-in for the distributed deployment of Fig. 1:
//! parties register endpoints, messages are serialized to real bytes
//! (so Lemma 1's communication claims are measured), delivered through
//! unbounded channels, and logged. Fault injection (drop rules)
//! supports the dishonest-party experiments. Delivery is synchronous —
//! a sent frame is immediately visible to its destination endpoint —
//! so [`Transport::settle`] is a no-op here; the simulated lossy
//! alternative lives in [`crate::SimNet`].
//!
//! Routing state (endpoints + drop rules) sits behind one [`RwLock`]:
//! sends share the read guard, while `register`/`disconnect`/`drop_link`/
//! `heal` take the write guard and edit the maps in place, so first
//! contact costs O(1) however many endpoints the bus already routes.
//! Writers never touch a ledger stripe and unbounded channel pushes never
//! block, so the lock order is acyclic and no send holds a writer off for
//! long. Byte accounting lives in the striped [`Ledger`](crate::transport)
//! shared with every other transport backend: running totals are atomics,
//! and the append-only delivery log plus the per-pair byte map are
//! partitioned across sender-keyed stripes so concurrent senders on
//! different stripes never contend. The accessors (`total_bytes`,
//! `delivered_bytes`, `bytes_between`, `delivery_log`, `message_count`)
//! merge the stripes in a deterministic order (a global sequence number
//! stamped at accounting time), so their results are observably identical
//! to the old single-lock ledger: on a quiescent bus every accessor is
//! exact, and under concurrency each accessor is individually consistent
//! with some linearization of the accounted sends.

use std::collections::{HashMap, HashSet};

use std::sync::mpsc::{channel, Sender};
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::messages::{Message, Party};
use crate::transport::{BusError, DeliveryRecord, Endpoint, Ledger, Transport};
use crate::wire::Wire;

/// Everything a send needs to decide where a message goes. Read under
/// the bus's shared guard by every send; mutated in place, one entry at a
/// time, by the topology operations.
#[derive(Debug, Default)]
struct Routing {
    endpoints: HashMap<Party, Sender<(Party, Message)>>,
    /// Fault injection: `(from, to)` pairs whose messages are dropped.
    drop_rules: HashSet<(Party, Party)>,
}

/// The synchronous in-memory network.
///
/// # Examples
///
/// ```
/// use ra_authority::{Bus, Message, Party};
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
#[derive(Debug, Default)]
pub struct Bus {
    /// The routing table. Sends (and whole batches) hold the read guard
    /// across lookup, channel push and accounting; topology changes hold
    /// the write guard for a single map insert or remove.
    routing: RwLock<Routing>,
    /// The striped Lemma 1 ledger shared with every transport backend.
    ledger: Ledger,
}

impl Bus {
    /// Creates an empty bus.
    pub fn new() -> Bus {
        Bus::default()
    }

    /// Shared access for sends: many senders hold it at once.
    fn routing(&self) -> RwLockReadGuard<'_, Routing> {
        self.routing.read().expect("bus lock poisoned")
    }

    /// Exclusive access for the O(1) topology operations.
    fn routing_mut(&self) -> RwLockWriteGuard<'_, Routing> {
        self.routing.write().expect("bus lock poisoned")
    }

    /// Registers a party; returns its receiving endpoint. Re-registering
    /// replaces the old endpoint: the previous one stops receiving.
    pub fn register(&self, party: Party) -> Endpoint {
        let (tx, rx) = channel();
        self.routing_mut().endpoints.insert(party, tx);
        Endpoint {
            party,
            receiver: rx,
        }
    }

    /// Removes `party`'s registration. Later sends to it fail with
    /// [`BusError::UnknownParty`] (unaccounted, like any unknown
    /// destination) until it registers again; its existing [`Endpoint`]
    /// keeps any messages already queued. A no-op for unknown parties.
    pub fn disconnect(&self, party: Party) {
        self.routing_mut().endpoints.remove(&party);
    }

    /// Sends `message` from `from` to `to`, accounting its serialized size.
    ///
    /// Takes the routing read guard, which never waits on another send;
    /// accounting touches only the sender's ledger stripe plus atomic
    /// counters.
    ///
    /// # Errors
    ///
    /// [`BusError::UnknownParty`] if `to` is not registered;
    /// [`BusError::Disconnected`] if `to`'s endpoint was dropped.
    pub fn send(&self, from: Party, to: Party, message: Message) -> Result<(), BusError> {
        let bytes = message.encoded_len();
        let retransmit = message.is_retransmit();
        let routing = self.routing();
        let dropped = routing.drop_rules.contains(&(from, to));
        let result = if dropped {
            Ok(())
        } else {
            let tx = routing
                .endpoints
                .get(&to)
                .ok_or(BusError::UnknownParty(to))?;
            tx.send((from, message))
                .map_err(|_| BusError::Disconnected(to))
        };
        let delivered = !dropped && result.is_ok();
        self.ledger.account(from, to, bytes, delivered, retransmit);
        result
    }

    /// Sends every `(from, to, message)` in `batch` — draining it, so
    /// callers can reuse the buffer's allocation — resolving routing under
    /// one read guard and holding each ledger stripe across runs of
    /// same-stripe senders (a verdict-request fan-out has one sender, so
    /// it locks its stripe exactly once).
    ///
    /// Accounting is byte-identical to the equivalent sequence of
    /// [`Bus::send`] calls: the same [`DeliveryRecord`]s in the same
    /// order, the same running total/delivered counters, and the same
    /// per-pair byte map. Every send is attempted (and accounted) even
    /// after an earlier one fails, which is also what a loop of individual
    /// `send` calls does; the first error is returned.
    ///
    /// # Errors
    ///
    /// [`BusError::UnknownParty`] / [`BusError::Disconnected`] for the
    /// first message in the batch that failed.
    pub fn send_batch(&self, batch: &mut Vec<(Party, Party, Message)>) -> Result<(), BusError> {
        if batch.is_empty() {
            return Ok(());
        }
        let mut first_error = Ok(());
        let routing = self.routing();
        // The stripe guard is cached across consecutive same-stripe
        // senders; ledger stripes are leaf locks taken one at a time, so
        // this cannot deadlock against concurrent senders.
        let mut held = None;
        for (from, to, message) in batch.drain(..) {
            let bytes = message.encoded_len();
            let retransmit = message.is_retransmit();
            let dropped = routing.drop_rules.contains(&(from, to));
            let result = if dropped {
                Ok(())
            } else {
                match routing.endpoints.get(&to) {
                    None => {
                        // `send` short-circuits before any accounting on an
                        // unknown party; mirror that so the ledger stays
                        // byte-identical to N sequential sends.
                        if first_error.is_ok() {
                            first_error = Err(BusError::UnknownParty(to));
                        }
                        continue;
                    }
                    Some(tx) => tx
                        .send((from, message))
                        .map_err(|_| BusError::Disconnected(to)),
                }
            };
            let delivered = !dropped && result.is_ok();
            if first_error.is_ok() {
                if let Err(e) = result {
                    first_error = Err(e);
                }
            }
            self.ledger
                .account_cached(&mut held, from, to, bytes, delivered, retransmit);
        }
        first_error
    }

    /// Injects a drop rule: all messages `from → to` are silently dropped.
    pub fn drop_link(&self, from: Party, to: Party) {
        self.routing_mut().drop_rules.insert((from, to));
    }

    /// Removes all drop rules.
    pub fn heal(&self) {
        self.routing_mut().drop_rules.clear();
    }

    /// Total bytes put on the wire (delivered or not). O(1), lock-free.
    pub fn total_bytes(&self) -> usize {
        self.ledger.total_bytes()
    }

    /// Bytes of messages that actually reached their endpoint — attempts
    /// dropped by fault injection or failed sends (undelivered per
    /// [`DeliveryRecord::delivered`]) are excluded. This is the figure
    /// Lemma 1 tables should cite for *communicated* bits; `total_bytes`
    /// additionally counts wasted attempts. O(1), lock-free.
    pub fn delivered_bytes(&self) -> usize {
        self.ledger.delivered_bytes()
    }

    /// Bytes sent from `from` to `to`. O(1): per-pair sums live on the
    /// sender's stripe, so this locks exactly one stripe.
    pub fn bytes_between(&self, from: Party, to: Party) -> usize {
        self.ledger.bytes_between(from, to)
    }

    /// A copy of the full delivery log, merged across stripes back into
    /// global send order (each record carries the sequence number stamped
    /// when it was accounted, so the merge is deterministic).
    pub fn delivery_log(&self) -> Vec<DeliveryRecord> {
        self.ledger.delivery_log()
    }

    /// Number of messages sent (delivered or dropped). O(1), lock-free.
    pub fn message_count(&self) -> usize {
        self.ledger.message_count()
    }

    /// Bytes attributable to protocol retransmissions (resilient
    /// envelopes with `attempt > 0`). O(1), lock-free.
    pub fn retransmit_bytes(&self) -> usize {
        self.ledger.retransmit_bytes()
    }

    /// First-attempt protocol bytes: `total_bytes - retransmit_bytes`.
    /// O(1), lock-free.
    pub fn goodput_bytes(&self) -> usize {
        self.ledger.total_bytes() - self.ledger.retransmit_bytes()
    }
}

/// The canonical backend: every trait method delegates to the inherent
/// one, and [`Transport::settle`] is free because delivery is synchronous.
impl Transport for Bus {
    fn register(&self, party: Party) -> Endpoint {
        Bus::register(self, party)
    }

    fn disconnect(&self, party: Party) {
        Bus::disconnect(self, party);
    }

    fn send(&self, from: Party, to: Party, message: Message) -> Result<(), BusError> {
        Bus::send(self, from, to, message)
    }

    fn send_batch(&self, batch: &mut Vec<(Party, Party, Message)>) -> Result<(), BusError> {
        Bus::send_batch(self, batch)
    }

    fn drop_link(&self, from: Party, to: Party) {
        Bus::drop_link(self, from, to);
    }

    fn heal(&self) {
        Bus::heal(self);
    }

    fn settle(&self) {}

    fn total_bytes(&self) -> usize {
        Bus::total_bytes(self)
    }

    fn delivered_bytes(&self) -> usize {
        Bus::delivered_bytes(self)
    }

    fn bytes_between(&self, from: Party, to: Party) -> usize {
        Bus::bytes_between(self, from, to)
    }

    fn delivery_log(&self) -> Vec<DeliveryRecord> {
        Bus::delivery_log(self)
    }

    fn message_count(&self) -> usize {
        Bus::message_count(self)
    }

    fn retransmit_bytes(&self) -> usize {
        Bus::retransmit_bytes(self)
    }

    fn goodput_bytes(&self) -> usize {
        Bus::goodput_bytes(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_and_accounting() {
        let bus = Bus::new();
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
        let bus = Bus::new();
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
        let log = bus.delivery_log();
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
        let bus = Bus::new();
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
        let log = bus.delivery_log();
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
    fn adversarial_bus() -> (Bus, Endpoint, Endpoint) {
        let bus = Bus::new();
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
        assert_eq!(batched.delivery_log(), sequential.delivery_log());
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
        let bus = Bus::new();
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
        assert!(!bus.delivery_log()[0].delivered);
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
        let bus = Bus::new();
        let a = Party::Agent(1);
        let b = Party::Agent(2);
        bus.register(a);
        let ep_b = bus.register(b);
        bus.drop_link(a, b);
        // Duplicate rules are idempotent (set semantics) and heal() still
        // clears everything.
        bus.drop_link(a, b);
        bus.send(a, b, Message::AdviceRequest { game_id: 1 })
            .unwrap();
        assert!(ep_b.try_recv().is_none());
        let log = bus.delivery_log();
        assert_eq!(log.len(), 1);
        assert!(!log[0].delivered);
        bus.heal();
        bus.send(a, b, Message::AdviceRequest { game_id: 2 })
            .unwrap();
        assert!(ep_b.try_recv().is_some());
    }

    #[test]
    fn stress_merged_ledger_accounts_every_thread() {
        // 8 threads hammer `send` and `send_batch` against an always-live
        // hub while a flaky party is concurrently disconnected and
        // re-registered. Each thread classifies its own attempts by the
        // returned result — Ok and Disconnected are accounted (the latter
        // undelivered), UnknownParty is not — and the merged striped
        // ledger must equal the per-thread sums exactly.
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        const THREADS: u64 = 8;
        const ROUNDS: u64 = 60;
        let bus = Arc::new(Bus::new());
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
                        // Batched fan-out to the hub: 3 frames, 1 stripe.
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
        let log = bus.delivery_log();
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
        // Per-pair sums survive the merge too.
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
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
        use std::sync::{Arc, Barrier};

        const FRESH: u64 = 2000;
        const SENDERS: u64 = 4;
        const MIN_ROUNDS: u64 = 200;
        const MAX_ROUNDS: u64 = 5000;
        let fresh = |k: u64| Party::Agent(10_000 + k);
        let bus = Arc::new(Bus::new());
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
        let log = bus.delivery_log();
        assert_eq!(log.len(), msgs);
        assert!(log.iter().all(|r| r.delivered));
        assert_eq!(hub_ep.drain().len(), sent_to(hub));
        assert_eq!(endpoints.len() as u64, FRESH);
        for ep in &endpoints {
            assert_eq!(ep.drain().len(), sent_to(ep.party), "{}", ep.party);
        }
    }

    #[test]
    fn concurrent_senders() {
        use std::sync::Arc;
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
