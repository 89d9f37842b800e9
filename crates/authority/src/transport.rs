//! The pluggable transport layer.
//!
//! Everything the Fig. 1 protocol needs from a network is behind the
//! [`Transport`] trait: endpoint registration, byte-accounted sends
//! (single and batched), fault injection, and the Lemma 1 ledger view
//! (totals, per-pair sums, the merged delivery log). The crate implements
//! it once, for [`Network`](crate::Network): one routing table, one send
//! path and one striped [`Ledger`], generic over a link model that decides
//! each routed frame's fate. The two instances are:
//!
//! * [`Bus`](crate::Bus) — the network over perfect links, the canonical
//!   synchronous backend: every send delivers (or faults) immediately,
//!   `settle` is a no-op.
//! * [`SimNet`](crate::SimNet) — the network over simulated links: a
//!   deterministic seeded simulation with per-link latency, drop
//!   probability, reordering, and scripted partition/heal schedules on a
//!   virtual clock; in-flight frames land when the clock advances
//!   ([`Transport::settle`]).
//!
//! Configured lossless and zero-latency, a `SimNet` is **byte-identical**
//! to a `Bus`: its link model samples nothing and every frame takes the
//! same routing and accounting code, so the delivery log, the running
//! totals and the per-pair sums of any traffic mix are field-equal — the
//! equivalence proptest in `tests/proptests.rs` pins exactly that at this
//! trait boundary.
//!
//! The receive side stays concrete: an [`Endpoint`] is a plain mpsc
//! receiver handed out by `register`, identical across link models, which
//! is what lets [`crate::RationalityAuthority`] and the gossip plane drain
//! inboxes without caring which transport queued the frames. Protocol
//! loops call [`Transport::settle`] before every drain; on a `Bus` that
//! costs nothing, on a `SimNet` it flushes the frames whose delivery time
//! has come.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::{Mutex, MutexGuard};

use crate::messages::{Message, Party};

/// Number of ledger stripes. A power of two so the sender-hash maps to a
/// stripe with a mask; 8 covers the worker parallelism the shard pool
/// actually runs (one authority per shard) without oversizing the
/// merge that read accessors pay.
pub(crate) const LEDGER_STRIPES: usize = 8;

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
/// through the same channel.
#[derive(Debug)]
pub struct Endpoint {
    /// The party this endpoint belongs to.
    pub party: Party,
    pub(crate) receiver: Receiver<(Party, Message)>,
}

impl Endpoint {
    /// Receives the next message if one is queued: `(sender, message)`.
    pub fn try_recv(&self) -> Option<(Party, Message)> {
        self.receiver.try_recv().ok()
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
        let before = out.len();
        while let Some(m) = self.try_recv() {
            out.push(m);
        }
        out.len() - before
    }
}

/// Deterministic sender-to-stripe hash: the shared avalanche finalizer
/// ([`rand::mix64`]) over the party's variant tag and id. Independent of
/// process randomness so a given traffic mix always lands in the same
/// stripes.
pub(crate) fn stripe_of(party: Party) -> usize {
    let (tag, id) = match party {
        Party::Inventor(i) => (0u64, i),
        Party::Agent(i) => (1, i),
        Party::Verifier(i) => (2, i),
        Party::Shard(i) => (3, i),
    };
    (rand::mix64((tag << 56) ^ id ^ 0x9E37_79B9_7F4A_7C15) as usize) & (LEDGER_STRIPES - 1)
}

/// One stripe of the decomposed ledger: a slice of the append-only audit
/// log (records stamped with their global sequence number so reads can
/// merge deterministically) plus the per-pair byte sums for the senders
/// that hash to this stripe.
#[derive(Debug, Default)]
pub(crate) struct LedgerStripe {
    records: Vec<(u64, DeliveryRecord)>,
    pair_bytes: HashMap<(Party, Party), usize>,
}

/// The striped Lemma 1 ledger of a [`Network`](crate::Network).
///
/// Running totals are atomics, and the append-only delivery log plus the
/// per-pair byte map are partitioned across sender-keyed stripes so
/// concurrent senders on different stripes never contend. The accessors
/// merge the stripes in a deterministic order (a global sequence number
/// stamped at accounting time), so their results are observably identical
/// to a single-lock serial ledger: on a quiescent transport every
/// accessor is exact, and under concurrency each accessor is individually
/// consistent with some linearization of the accounted sends.
///
/// [`Bus`](crate::Bus) and [`SimNet`](crate::SimNet) are one network over
/// two link models, so they account through this one type on one send
/// path, which is what makes the lossless-SimNet ≡ Bus byte identity a
/// structural property rather than a re-implementation that could drift.
#[derive(Debug, Default)]
pub(crate) struct Ledger {
    /// Sender-striped audit log + per-pair sums; see [`LedgerStripe`].
    stripes: [Mutex<LedgerStripe>; LEDGER_STRIPES],
    /// Global order of accounted records; stamped into each stripe entry
    /// so `delivery_log` can merge stripes back into send order.
    seq: AtomicU64,
    /// Running totals mirrored out of the stripes so the O(1) accessors
    /// stay lock-free.
    total_bytes: AtomicUsize,
    delivered_bytes: AtomicUsize,
    record_count: AtomicUsize,
    /// Bytes attributable to protocol retransmissions (resilient envelopes
    /// with a non-zero attempt number, and the replies they provoke).
    /// Subtracting this from `total_bytes` yields the goodput figure a
    /// Lemma 1 table should cite for first-attempt protocol traffic.
    retransmit_bytes: AtomicUsize,
}

/// A cached stripe guard for batched accounting: consecutive same-stripe
/// senders reuse one lock acquisition (a verdict-request fan-out has one
/// sender, so it locks its stripe exactly once per batch).
pub(crate) type StripeGuard<'a> = Option<(usize, MutexGuard<'a, LedgerStripe>)>;

impl Ledger {
    /// Accounts one attempted send without a cached stripe guard. The
    /// caller already decided `delivered` and `retransmit`; this stamps
    /// the global sequence number, bumps the atomic totals and appends to
    /// the sender's stripe.
    #[cfg(test)]
    pub(crate) fn account(
        &self,
        from: Party,
        to: Party,
        bytes: usize,
        delivered: bool,
        retransmit: bool,
    ) {
        let mut held = None;
        self.account_cached(&mut held, from, to, bytes, delivered, retransmit);
    }

    /// [`Ledger::account`] with a caller-held stripe guard cached across
    /// consecutive same-stripe senders. Ledger stripes are leaf locks
    /// taken one at a time, so holding one across a batch cannot deadlock
    /// against concurrent senders.
    pub(crate) fn account_cached<'a>(
        &'a self,
        held: &mut StripeGuard<'a>,
        from: Party,
        to: Party,
        bytes: usize,
        delivered: bool,
        retransmit: bool,
    ) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        self.total_bytes.fetch_add(bytes, Ordering::Relaxed);
        if delivered {
            self.delivered_bytes.fetch_add(bytes, Ordering::Relaxed);
        }
        if retransmit {
            self.retransmit_bytes.fetch_add(bytes, Ordering::Relaxed);
        }
        self.record_count.fetch_add(1, Ordering::Relaxed);
        let idx = stripe_of(from);
        let stripe = match held {
            Some((held_idx, ref mut guard)) if *held_idx == idx => &mut **guard,
            _ => {
                *held = Some((idx, self.stripes[idx].lock().expect("ledger lock poisoned")));
                let (_, ref mut guard) = held.as_mut().expect("just set");
                &mut **guard
            }
        };
        *stripe.pair_bytes.entry((from, to)).or_insert(0) += bytes;
        stripe.records.push((
            seq,
            DeliveryRecord {
                from,
                to,
                bytes,
                delivered,
            },
        ));
    }

    /// Total bytes put on the wire (delivered or not). O(1), lock-free.
    pub(crate) fn total_bytes(&self) -> usize {
        self.total_bytes.load(Ordering::Relaxed)
    }

    /// Bytes of messages that actually reached their endpoint. O(1),
    /// lock-free.
    pub(crate) fn delivered_bytes(&self) -> usize {
        self.delivered_bytes.load(Ordering::Relaxed)
    }

    /// Bytes attributable to retransmissions. O(1), lock-free.
    pub(crate) fn retransmit_bytes(&self) -> usize {
        self.retransmit_bytes.load(Ordering::Relaxed)
    }

    /// Bytes sent from `from` to `to`. O(1): per-pair sums live on the
    /// sender's stripe, so this locks exactly one stripe.
    pub(crate) fn bytes_between(&self, from: Party, to: Party) -> usize {
        self.stripes[stripe_of(from)]
            .lock()
            .expect("ledger lock poisoned")
            .pair_bytes
            .get(&(from, to))
            .copied()
            .unwrap_or(0)
    }

    /// A copy of the full delivery log, merged across stripes back into
    /// global send order.
    pub(crate) fn delivery_log(&self) -> Vec<DeliveryRecord> {
        let mut tagged: Vec<(u64, DeliveryRecord)> = Vec::with_capacity(self.message_count());
        for stripe in &self.stripes {
            let stripe = stripe.lock().expect("ledger lock poisoned");
            tagged.extend(stripe.records.iter().cloned());
        }
        // Within a stripe records are already seq-ascending (appends hold
        // the stripe lock), so an unstable sort cannot reorder equals —
        // and seqs are unique anyway.
        tagged.sort_unstable_by_key(|(seq, _)| *seq);
        tagged.into_iter().map(|(_, record)| record).collect()
    }

    /// Number of messages sent (delivered or dropped). O(1), lock-free.
    pub(crate) fn message_count(&self) -> usize {
        self.record_count.load(Ordering::Relaxed)
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
///   (drop rule, partition, simulated loss) returns `Ok(())` and accounts
///   as undelivered, exactly like a packet lost on a real wire.
/// * `send_batch` drains its buffer, attempts every message even after a
///   failure, returns the first error, and produces byte-identical
///   accounting to the equivalent sequence of `send` calls.
/// * `settle` makes every frame whose delivery time has been reached
///   visible to its destination endpoint. A synchronous backend delivers
///   inside `send` and settles for free; a simulated network flushes its
///   in-flight queue in timestamp order, advancing its virtual clock.
///   Receive loops must settle before draining.
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

    /// Removes all fault injection: drop rules, and on a simulated
    /// network also every active partition.
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

    /// Bytes sent from `from` to `to`.
    fn bytes_between(&self, from: Party, to: Party) -> usize;

    /// A copy of the full delivery log, merged back into global send
    /// order.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripe_hash_is_pinned() {
        // The sender→stripe assignment after the mix64 dedup must equal
        // the pre-refactor inline finalizer bit-for-bit: these constants
        // were computed from the original `bus.rs` implementation.
        let cases = [
            (Party::Inventor(0), 6),
            (Party::Inventor(1), 7),
            (Party::Agent(0), 3),
            (Party::Agent(1), 2),
            (Party::Agent(2), 1),
            (Party::Verifier(0), 4),
            (Party::Verifier(1), 5),
            (Party::Verifier(2), 6),
            (Party::Shard(0), 1),
            (Party::Shard(5), 4),
            (Party::Shard(u64::MAX), 1),
        ];
        for (party, stripe) in cases {
            assert_eq!(stripe_of(party), stripe, "{party:?}");
        }
    }

    #[test]
    fn ledger_merges_like_a_serial_log() {
        let ledger = Ledger::default();
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
            "merged log preserves send order across stripes"
        );
    }

    #[test]
    fn cached_guard_accounts_identically() {
        let serial = Ledger::default();
        let cached = Ledger::default();
        let a = Party::Agent(1);
        let b = Party::Agent(2);
        let traffic = [
            (a, b, 4, true, false),
            (a, b, 9, false, true),
            (b, a, 2, true, false),
        ];
        for (from, to, bytes, delivered, retransmit) in traffic {
            serial.account(from, to, bytes, delivered, retransmit);
        }
        let mut held = None;
        for (from, to, bytes, delivered, retransmit) in traffic {
            cached.account_cached(&mut held, from, to, bytes, delivered, retransmit);
        }
        drop(held);
        assert_eq!(serial.delivery_log(), cached.delivery_log());
        assert_eq!(serial.total_bytes(), cached.total_bytes());
        assert_eq!(serial.delivered_bytes(), cached.delivered_bytes());
        assert_eq!(serial.retransmit_bytes(), cached.retransmit_bytes());
        assert_eq!(serial.bytes_between(a, b), cached.bytes_between(a, b));
    }
}
