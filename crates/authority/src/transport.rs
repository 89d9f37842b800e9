//! The pluggable transport layer.
//!
//! Everything the Fig. 1 protocol needs from a network is behind the
//! [`Transport`] trait: endpoint registration, byte-accounted sends
//! (single and batched), fault injection, and the Lemma 1 ledger view
//! (totals, and the delivery log with its per-pair sums when a network
//! keeps one). The crate implements it once, for
//! [`Network`](crate::Network): one lock over the routing table, the
//! [`Ledger`] and the link model's state, and one send path, generic over
//! a link model that decides each routed frame's fate. The two instances
//! are:
//!
//! * [`Bus`](crate::Bus) — the network over perfect links, the canonical
//!   synchronous backend: every send delivers (or faults) immediately,
//!   `settle` is a no-op.
//! * [`SimNet`](crate::SimNet) — the network over simulated links: a
//!   deterministic seeded simulation with per-link latency, drop
//!   probability, reordering, and scripted partition/heal schedules on a
//!   virtual clock (a partition is the drop rules that cut it); in-flight
//!   frames land when the clock advances ([`Transport::settle`]).
//!
//! Configured lossless and zero-latency, a `SimNet` is **byte-identical**
//! to a `Bus`: its link model samples nothing and every frame takes the
//! same routing and accounting code, so the delivery log, the running
//! totals and the per-pair sums of any traffic mix are field-equal — the
//! equivalence proptest in `tests/proptests.rs` pins exactly that at this
//! trait boundary.
//!
//! The ledger keeps counters, not history: running totals and a frame
//! count are all Lemma 1 needs, so its size does not depend on how many
//! parties ever talked. The per-frame delivery log, and the per-pair sums
//! [`Transport::bytes_between`] reads off it, are kept only by a network
//! built with
//! [`Network::with_delivery_log`](crate::Network::with_delivery_log).
//!
//! The receive side stays concrete: an [`Endpoint`] is its party's slot in
//! the network's own state, handed out by `register` and identical across
//! link models, which is what lets [`crate::RationalityAuthority`] and the
//! gossip plane drain inboxes without caring which transport queued the
//! frames. A send pushes into the slot under the lock it already holds,
//! and a drain takes that same lock. Dropping the endpoint closes its slot,
//! so later sends to it are detected as disconnected, and a drained queue
//! holds no allocation. Protocol
//! loops call [`Transport::settle`] before every drain; on a `Bus` that
//! costs nothing, on a `SimNet` it flushes the frames whose delivery time
//! has come.

use std::collections::VecDeque;
use std::mem;
use std::sync::Arc;

use crate::messages::{Message, Party};

/// A delivery record for the audit log and byte accounting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeliveryRecord {
    /// Sender.
    pub from: Party,
    /// Recipient.
    pub to: Party,
    /// Serialized size in bytes.
    pub bytes: usize,
    /// Whether the message was actually delivered (or dropped by fault
    /// injection / simulated loss).
    pub delivered: bool,
}

/// Errors from transport operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BusError {
    /// The destination party has no registered endpoint.
    UnknownParty(Party),
    /// The destination endpoint was dropped.
    Disconnected(Party),
}

impl std::fmt::Display for BusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BusError::UnknownParty(p) => write!(f, "no endpoint registered for {p}"),
            BusError::Disconnected(p) => write!(f, "endpoint for {p} disconnected"),
        }
    }
}

impl std::error::Error for BusError {}

/// A receiving endpoint handed to a registered party. Identical across
/// link models: frames a [`Bus`](crate::Bus) delivers synchronously and
/// frames a [`SimNet`](crate::SimNet) delivers at `settle` time drain
/// through the same queue.
///
/// The queue is a slot of the network's own state, read under the
/// network's one lock; dropping the endpoint closes the slot.
pub struct Endpoint {
    /// The party this endpoint belongs to.
    pub party: Party,
    pub(crate) slot: Slot,
    pub(crate) network: Arc<dyn MailboxLock>,
}

impl Endpoint {
    /// Runs `f` on this endpoint's queue under the network's lock.
    fn with_queue<R>(&self, f: impl FnOnce(&mut VecDeque<(Party, Message)>) -> R) -> R {
        let (mut f, mut result) = (Some(f), None);
        self.network.with_mailboxes(&mut |mailboxes| {
            result = f.take().map(|f| f(mailboxes.queue(self.slot)));
        });
        result.expect("with_mailboxes runs its closure")
    }

    /// Receives the next message if one is queued: `(sender, message)`.
    /// Taking the last one frees the queue's buffer.
    pub fn try_recv(&self) -> Option<(Party, Message)> {
        self.with_queue(|queue| {
            let next = queue.pop_front();
            if queue.is_empty() {
                *queue = VecDeque::new();
            }
            next
        })
    }

    /// Drains all queued messages.
    pub fn drain(&self) -> Vec<(Party, Message)> {
        let mut out = Vec::new();
        self.drain_into(&mut out);
        out
    }

    /// Drains all queued messages, appending them to `out`; returns how
    /// many were appended. Receive loops that run per consultation reuse
    /// one buffer across calls instead of allocating a fresh `Vec` per
    /// drain — the [`crate::RationalityAuthority`] hot path does exactly
    /// that.
    pub fn drain_into(&self, out: &mut Vec<(Party, Message)>) -> usize {
        self.with_queue(|queue| {
            let count = queue.len();
            out.extend(mem::take(queue));
            count
        })
    }

    /// The capacity of this endpoint's queue buffer.
    #[cfg(test)]
    pub(crate) fn queue_capacity(&self) -> usize {
        self.with_queue(|queue| queue.capacity())
    }
}

impl Drop for Endpoint {
    fn drop(&mut self) {
        let slot = self.slot;
        self.network
            .with_mailboxes(&mut |mailboxes| mailboxes.close(slot));
    }
}

impl std::fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Endpoint")
            .field("party", &self.party)
            .field("slot", &self.slot)
            .finish_non_exhaustive()
    }
}

/// An endpoint's place in its network's [`Mailboxes`]: valid while the
/// slot's generation is the one it was opened at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Slot {
    pub(crate) index: u32,
    generation: u32,
}

/// Every registered endpoint's queue, held in the network's state and
/// indexed by [`Slot`]. A closed slot is reused by the next registration
/// under a new generation, so a frame routed or in flight to the old
/// endpoint never reaches the new one.
#[derive(Debug, Default)]
pub struct Mailboxes {
    slots: Vec<Mailbox>,
    /// Closed slots, reused last closed first.
    free: Vec<u32>,
}

#[derive(Debug, Default)]
struct Mailbox {
    queue: VecDeque<(Party, Message)>,
    /// Bumped when the slot closes.
    generation: u32,
}

impl Mailboxes {
    /// Opens an empty slot for a new endpoint.
    pub(crate) fn open(&mut self) -> Slot {
        let index = self.free.pop().unwrap_or_else(|| {
            self.slots.push(Mailbox::default());
            u32::try_from(self.slots.len() - 1).expect("fewer than 2^32 endpoints")
        });
        Slot {
            index,
            generation: self.slots[index as usize].generation,
        }
    }

    /// Closes `slot`, freeing its queue; every handle on it goes stale.
    fn close(&mut self, slot: Slot) {
        let mailbox = &mut self.slots[slot.index as usize];
        mailbox.generation += 1;
        mailbox.queue = VecDeque::new();
        // A slot that has reached the last generation is never reopened,
        // so no handle on it can ever match again.
        if mailbox.generation < u32::MAX {
            self.free.push(slot.index);
        }
    }

    /// Appends a frame to `slot`'s queue; false if the slot was closed.
    pub(crate) fn push(&mut self, slot: Slot, from: Party, message: Message) -> bool {
        let mailbox = &mut self.slots[slot.index as usize];
        if mailbox.generation != slot.generation {
            return false;
        }
        mailbox.queue.push_back((from, message));
        true
    }

    /// The queue of `slot`, which its live endpoint holds open.
    fn queue(&mut self, slot: Slot) -> &mut VecDeque<(Party, Message)> {
        let mailbox = &mut self.slots[slot.index as usize];
        debug_assert_eq!(
            mailbox.generation, slot.generation,
            "a live endpoint's slot"
        );
        &mut mailbox.queue
    }
}

/// A network's lock over its [`Mailboxes`], with the link model erased,
/// so [`Endpoint`] is one type over every network.
pub(crate) trait MailboxLock: Send + Sync {
    /// Runs `f` on the mailboxes under the network's lock.
    fn with_mailboxes(&self, f: &mut dyn FnMut(&mut Mailboxes));
}

/// The Lemma 1 ledger of a [`Network`](crate::Network): the running
/// totals, the frame count and, only when the network was built with
/// [`with_delivery_log`](crate::Network::with_delivery_log), the
/// append-only delivery log in send order, from which the per-pair sums
/// are read. Without the log its size is fixed: nothing in it grows with
/// traffic or with the number of parties. It lives in the network's one
/// state lock, so every accessor reads a single consistent snapshot.
///
/// [`Bus`](crate::Bus) and [`SimNet`](crate::SimNet) are one network over
/// two link models, so they account through this one type on one send
/// path, which is what makes the lossless-SimNet ≡ Bus byte identity a
/// structural property rather than a re-implementation that could drift.
#[derive(Debug, Default)]
pub(crate) struct Ledger {
    /// The per-frame log; `None` unless the network opted in.
    records: Option<Vec<DeliveryRecord>>,
    frames: usize,
    total_bytes: usize,
    delivered_bytes: usize,
    /// Bytes attributable to protocol retransmissions (resilient envelopes
    /// with a non-zero attempt number, and the replies they provoke).
    /// Subtracting this from `total_bytes` yields the goodput figure a
    /// Lemma 1 table should cite for first-attempt protocol traffic.
    retransmit_bytes: usize,
}

impl Ledger {
    /// Starts keeping the per-frame log: every frame accounted from now on
    /// is recorded.
    pub(crate) fn keep_log(&mut self) {
        self.records.get_or_insert_with(Vec::new);
    }

    /// Accounts one attempted send. The caller already decided
    /// `delivered` and `retransmit`.
    pub(crate) fn account(
        &mut self,
        from: Party,
        to: Party,
        bytes: usize,
        delivered: bool,
        retransmit: bool,
    ) {
        self.frames += 1;
        self.total_bytes += bytes;
        if delivered {
            self.delivered_bytes += bytes;
        }
        if retransmit {
            self.retransmit_bytes += bytes;
        }
        if let Some(records) = &mut self.records {
            records.push(DeliveryRecord {
                from,
                to,
                bytes,
                delivered,
            });
        }
    }

    /// Total bytes put on the wire (delivered or not).
    pub(crate) fn total_bytes(&self) -> usize {
        self.total_bytes
    }

    /// Bytes of messages that actually reached their endpoint.
    pub(crate) fn delivered_bytes(&self) -> usize {
        self.delivered_bytes
    }

    /// Bytes attributable to retransmissions.
    pub(crate) fn retransmit_bytes(&self) -> usize {
        self.retransmit_bytes
    }

    /// Bytes sent from `from` to `to`, summed over the delivery log; 0
    /// unless the log is kept.
    pub(crate) fn bytes_between(&self, from: Party, to: Party) -> usize {
        self.records
            .iter()
            .flatten()
            .filter(|r| r.from == from && r.to == to)
            .map(|r| r.bytes)
            .sum()
    }

    /// A copy of the delivery log, in send order; empty unless kept.
    pub(crate) fn delivery_log(&self) -> Vec<DeliveryRecord> {
        self.records.clone().unwrap_or_default()
    }

    /// Number of messages sent (delivered or dropped).
    pub(crate) fn message_count(&self) -> usize {
        self.frames
    }
}

/// The network boundary under the Fig. 1 protocol: registration, byte
/// accounted sends, fault injection and the Lemma 1 ledger view.
///
/// The engine layers ([`crate::RationalityAuthority`],
/// [`crate::GossipPlane`], [`crate::ShardedAuthority`]) are parameterized
/// by `Arc<dyn Transport>`, so the same protocol, tests and accounting run
/// unchanged over the synchronous [`Bus`](crate::Bus) or the simulated
/// lossy [`SimNet`](crate::SimNet) — the one [`Network`](crate::Network)
/// over its two link models — or over a caller's own implementation (a
/// tracing wrapper, say). The network has this one method set: callers
/// bring the trait into scope (`use ra_authority::Transport`).
///
/// # Contract
///
/// * `send`/`send_batch` account the serialized size of every attempted
///   message into the ledger — except sends to an unknown party, which
///   error *before* accounting. A message suppressed by fault injection
///   (drop rule, simulated loss) returns `Ok(())` and accounts
///   as undelivered, exactly like a packet lost on a real wire.
/// * `send_batch` drains its buffer, attempts every message even after a
///   failure, returns the first error, and produces byte-identical
///   accounting to the equivalent sequence of `send` calls.
/// * `settle` makes every frame whose delivery time has been reached
///   visible to its destination endpoint. A synchronous backend delivers
///   inside `send` and settles for free; a simulated network flushes its
///   in-flight queue in timestamp order, advancing its virtual clock.
///   Nothing stays in flight after `settle` returns. Receive loops must
///   settle before draining.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use ra_authority::{Bus, Message, Party, SimNet, Transport};
///
/// // The same traffic over either link model, through the trait:
/// for transport in [
///     Arc::new(Bus::new()) as Arc<dyn Transport>,
///     Arc::new(SimNet::lossless(1)) as Arc<dyn Transport>,
/// ] {
///     let a = Party::Agent(1);
///     let b = Party::Agent(2);
///     transport.register(a);
///     let ep = transport.register(b);
///     transport.send(a, b, Message::AdviceRequest { game_id: 7 }).unwrap();
///     transport.settle();
///     assert!(ep.try_recv().is_some());
///     assert!(transport.delivered_bytes() > 0);
/// }
/// ```
pub trait Transport: std::fmt::Debug + Send + Sync {
    /// Registers a party; returns its receiving endpoint. Re-registering
    /// replaces the old endpoint: the previous one stops receiving.
    fn register(&self, party: Party) -> Endpoint;

    /// Removes `party`'s registration. Later sends to it fail with
    /// [`BusError::UnknownParty`] (unaccounted, like any unknown
    /// destination) until it registers again; its existing [`Endpoint`]
    /// keeps any messages already queued. A no-op for unknown parties.
    fn disconnect(&self, party: Party);

    /// Sends `message` from `from` to `to`, accounting its serialized
    /// size.
    ///
    /// # Errors
    ///
    /// [`BusError::UnknownParty`] if `to` is not registered;
    /// [`BusError::Disconnected`] if `to`'s endpoint was dropped (only
    /// detectable at send time on a synchronous backend).
    fn send(&self, from: Party, to: Party, message: Message) -> Result<(), BusError>;

    /// Sends every `(from, to, message)` in `batch` — draining it, so
    /// callers can reuse the buffer's allocation. Accounting is
    /// byte-identical to the equivalent sequence of [`Transport::send`]
    /// calls; every send is attempted even after an earlier one fails.
    ///
    /// # Errors
    ///
    /// The first [`BusError`] among the attempted messages.
    fn send_batch(&self, batch: &mut Vec<(Party, Party, Message)>) -> Result<(), BusError>;

    /// Injects a drop rule: all messages `from → to` are silently dropped
    /// (accounted as undelivered).
    fn drop_link(&self, from: Party, to: Party);

    /// Removes every drop rule, those of a scripted partition included.
    fn heal(&self);

    /// Delivers every in-flight frame whose time has come. A no-op on a
    /// synchronous backend; on a [`SimNet`](crate::SimNet) this flushes
    /// the pending queue in `(deliver_at, send order)` order and advances
    /// the virtual clock to the latest delivery.
    fn settle(&self);

    /// Total bytes put on the wire (delivered or not).
    fn total_bytes(&self) -> usize;

    /// Bytes of messages that actually reached their endpoint — attempts
    /// dropped by fault injection, lost in simulation, or failed
    /// (undelivered per [`DeliveryRecord::delivered`]) are excluded. This
    /// is the figure Lemma 1 tables should cite for *communicated* bits;
    /// `total_bytes` additionally counts wasted attempts.
    fn delivered_bytes(&self) -> usize;

    /// Bytes sent from `from` to `to` (delivered or not), read off the
    /// delivery log. Like [`Transport::delivery_log`], it needs a network
    /// that keeps one: without the log it returns 0, since a per-pair sum
    /// for every pair that ever talked would grow with the population.
    fn bytes_between(&self, from: Party, to: Party) -> usize;

    /// A copy of the full delivery log, in send order. Empty unless the
    /// network keeps one: a [`Network`](crate::Network) keeps it only when
    /// built with [`with_delivery_log`](crate::Network::with_delivery_log).
    fn delivery_log(&self) -> Vec<DeliveryRecord>;

    /// Number of messages sent (delivered or dropped).
    fn message_count(&self) -> usize;

    /// Bytes attributable to protocol retransmissions: resilient
    /// envelopes carrying a non-zero attempt number, and replies echoing
    /// one. Zero on any run that never retransmits, regardless of loss.
    fn retransmit_bytes(&self) -> usize;

    /// First-attempt protocol bytes: [`Transport::total_bytes`] minus
    /// [`Transport::retransmit_bytes`]. The ledger maintains the identity
    /// `total_bytes == goodput_bytes + retransmit_bytes` by construction,
    /// so Lemma 1 tables can split communicated bits from retry overhead.
    fn goodput_bytes(&self) -> usize {
        self.total_bytes() - self.retransmit_bytes()
    }

    /// The backend's virtual clock, in ticks. A synchronous backend has
    /// no clock and reports 0 forever; a [`SimNet`](crate::SimNet)
    /// reports the tick its last `settle`/`advance` reached. Resilient
    /// consults read this to deplete deadline budgets.
    fn now(&self) -> u64 {
        0
    }

    /// Advances the virtual clock by `ticks`, delivering every in-flight
    /// frame that comes due — the hook a retransmit loop uses to wait out
    /// a backoff interval. A no-op on a synchronous backend (where every
    /// send already settled and waiting cannot change anything).
    fn advance(&self, _ticks: u64) {}
}

/// `net`'s delivery log, checked to be kept and complete: one record per
/// accounted frame, and at least one, so a comparison against it cannot
/// pass by comparing two empty logs.
#[cfg(test)]
pub(crate) fn checked_log(net: &dyn Transport) -> Vec<DeliveryRecord> {
    let log = net.delivery_log();
    assert_eq!(
        log.len(),
        net.message_count(),
        "the log records every frame"
    );
    assert!(!log.is_empty(), "the network keeps a delivery log");
    log
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_merges_like_a_serial_log() {
        let mut ledger = Ledger::default();
        ledger.keep_log();
        let a = Party::Agent(1);
        let b = Party::Verifier(2);
        ledger.account(a, b, 10, true, false);
        ledger.account(b, a, 7, false, false);
        ledger.account(a, b, 5, true, true);
        assert_eq!(ledger.total_bytes(), 22);
        assert_eq!(ledger.delivered_bytes(), 15);
        assert_eq!(ledger.retransmit_bytes(), 5);
        assert_eq!(ledger.message_count(), 3);
        assert_eq!(ledger.bytes_between(a, b), 15);
        assert_eq!(ledger.bytes_between(b, a), 7);
        let log = ledger.delivery_log();
        assert_eq!(log.len(), 3);
        assert_eq!(
            log.iter().map(|r| r.bytes).collect::<Vec<_>>(),
            vec![10, 7, 5],
            "the log preserves send order"
        );
    }
}
