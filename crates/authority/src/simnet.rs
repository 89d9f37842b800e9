//! The simulated link model — a deterministic lossy [`Network`].
//!
//! [`SimNet`] puts a fault-injectable, latency-shaped network under the
//! unchanged Fig. 1 protocol: per-link latency windows and drop
//! probabilities ([`LinkProfile`]), scripted partition/heal schedules
//! ([`NetEvent`]), and a **virtual clock** in abstract ticks. A partition
//! is nothing but drop rules: a scheduled split inserts one for every
//! pair it cuts, in both directions, and a heal clears them. Sends do
//! not advance the clock; a frame with sampled latency `d` is queued to
//! land at `now + d` (saturating at `u64::MAX`), and
//! [`Transport::settle`](crate::Transport::settle) (or
//! [`SimNet::advance_to`]) flushes due frames in `(deliver_at, send
//! order)` order, advancing `now`. Two frames on links with overlapping
//! latency windows can therefore arrive in either order — the reordering
//! window is the jitter interval itself.
//!
//! Routing, fault injection by drop rule, the send path and the ledger
//! are the shared [`Network`]'s; this module is only the [`Simulated`]
//! link model that decides each routed frame's fate and applies the
//! schedule to the network's drop rules.
//!
//! Everything is **seeded and deterministic**: loss and latency are
//! sampled from one SplitMix64 stream (the shared [`rand::splitmix64`]
//! step) in send order under the network's one lock, so the same seed and
//! the same traffic always produce the same deliveries, the same ledger
//! and the same virtual timestamps.
//!
//! **Byte identity with [`Bus`](crate::Bus):** under the default
//! [`LinkProfile`] (zero latency, zero loss) a send samples *nothing* —
//! the RNG is untouched — and delivers synchronously, so the frame takes
//! the bus's own path through the shared routing and accounting code. The
//! equivalence proptest in `tests/proptests.rs` replays arbitrary
//! adversarial traffic over both link models and asserts field equality.
//!
//! Accounting happens at **send time**: a frame lost to sampling or a
//! drop rule is accounted undelivered immediately (the sender paid for
//! the bytes; Lemma 1's `delivered_bytes` excludes them), and a
//! latency-delayed frame is accounted delivered when it is queued — its
//! destination queue is captured at send time, so a party that
//! re-registers or disconnects mid-flight still receives nothing on its
//! *new* endpoint while the ledger keeps the optimistic delivered mark
//! (the simulation's one divergence from an infinitely observant wire,
//! and only reachable with non-zero latency).

use std::collections::{BinaryHeap, HashMap};

use crate::bus::{push, sealed, DropRules, Fate, Inbox, LinkModel, Network};
use crate::messages::{Message, Party};

/// The latency/loss shape of one directed link (or of every link, as
/// [`SimNetConfig::default_link`]).
///
/// Latency is a uniform window `[latency_min, latency_max]` in virtual
/// ticks; `latency_max > latency_min` creates jitter, which is also the
/// reordering window. `drop_prob` is sampled per frame, and a frame that
/// survives loss is *duplicated* with probability
/// `duplicate_probability` (the other half of at-least-once delivery:
/// the copy shares the original's sampled delay and is accounted as its
/// own delivered record). The default is the perfect link: zero ticks,
/// zero loss, zero duplication — and, deliberately, zero RNG draws, so a
/// fully-default `SimNet` is byte-identical to a `Bus`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkProfile {
    /// Minimum one-way latency in virtual ticks.
    pub latency_min: u64,
    /// Maximum one-way latency in virtual ticks (inclusive).
    pub latency_max: u64,
    /// Per-frame loss probability in `[0, 1]`.
    pub drop_prob: f64,
    /// Probability in `[0, 1]` that a surviving frame is delivered twice.
    pub duplicate_probability: f64,
}

impl Default for LinkProfile {
    fn default() -> LinkProfile {
        LinkProfile {
            latency_min: 0,
            latency_max: 0,
            drop_prob: 0.0,
            duplicate_probability: 0.0,
        }
    }
}

impl LinkProfile {
    /// The perfect link: zero latency, zero loss (the default).
    pub fn lossless() -> LinkProfile {
        LinkProfile::default()
    }

    /// A link with a uniform latency window and no loss.
    pub fn with_latency(min: u64, max: u64) -> LinkProfile {
        LinkProfile {
            latency_min: min,
            latency_max: max,
            ..LinkProfile::default()
        }
    }

    /// A zero-latency link that loses each frame with probability `p`.
    pub fn lossy(p: f64) -> LinkProfile {
        LinkProfile {
            drop_prob: p,
            ..LinkProfile::default()
        }
    }

    /// A zero-latency, zero-loss link that duplicates each frame with
    /// probability `p` — at-least-once delivery without the losses, for
    /// pinning that receiver-side dedup makes duplicated traffic
    /// outcome-identical to lossless traffic.
    pub fn duplicating(p: f64) -> LinkProfile {
        LinkProfile {
            duplicate_probability: p,
            ..LinkProfile::default()
        }
    }

    /// Validates the profile's invariants.
    fn check(&self) {
        assert!(
            self.latency_min <= self.latency_max,
            "latency window inverted: [{}, {}]",
            self.latency_min,
            self.latency_max
        );
        assert!(
            (0.0..=1.0).contains(&self.drop_prob),
            "drop probability {} outside [0, 1]",
            self.drop_prob
        );
        assert!(
            (0.0..=1.0).contains(&self.duplicate_probability),
            "duplicate probability {} outside [0, 1]",
            self.duplicate_probability
        );
    }
}

/// One entry of a scripted fault schedule, applied when the virtual clock
/// first reaches `at` (during a
/// [`Transport::settle`](crate::Transport::settle) or
/// [`SimNet::advance_to`] — sends themselves never advance the clock).
#[derive(Clone, Debug)]
pub enum NetEvent {
    /// Partition the network: a drop rule for every pair of a party on
    /// `left` and a party on `right`, in both directions, so every frame
    /// between the sides is dropped until a heal.
    Split {
        /// Virtual tick at which the partition starts.
        at: u64,
        /// One side of the cut.
        left: Vec<Party>,
        /// The other side.
        right: Vec<Party>,
    },
    /// Clear every drop rule: a split's, and any set with
    /// [`Transport::drop_link`](crate::Transport::drop_link).
    Heal {
        /// Virtual tick at which the network heals.
        at: u64,
    },
}

impl NetEvent {
    /// The virtual tick this event fires at.
    fn at(&self) -> u64 {
        match self {
            NetEvent::Split { at, .. } | NetEvent::Heal { at } => *at,
        }
    }
}

/// Construction parameters for a [`SimNet`].
#[derive(Clone, Debug, Default)]
pub struct SimNetConfig {
    /// Seed of the deterministic loss/latency stream.
    pub seed: u64,
    /// Profile of every link without an override
    /// ([`SimNet::set_link`]).
    pub default_link: LinkProfile,
    /// Scripted partition/heal events, applied as the clock crosses their
    /// timestamps (any order; sorted at construction).
    pub schedule: Vec<NetEvent>,
}

/// A frame in flight: destination queue captured at send time, ordered by
/// `(deliver_at, seq)` so the pending queue pops in virtual-time order
/// with send order breaking ties.
#[derive(Debug)]
struct PendingFrame {
    deliver_at: u64,
    seq: u64,
    from: Party,
    inbox: Inbox,
    message: Message,
}

impl PartialEq for PendingFrame {
    fn eq(&self, other: &PendingFrame) -> bool {
        self.deliver_at == other.deliver_at && self.seq == other.seq
    }
}

impl Eq for PendingFrame {}

impl PartialOrd for PendingFrame {
    fn partial_cmp(&self, other: &PendingFrame) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for PendingFrame {
    /// Reversed comparison: `BinaryHeap` is a max-heap, so the earliest
    /// `(deliver_at, seq)` must compare greatest.
    fn cmp(&self, other: &PendingFrame) -> std::cmp::Ordering {
        (other.deliver_at, other.seq).cmp(&(self.deliver_at, self.seq))
    }
}

/// The simulated link model: per-link loss, latency and duplication
/// sampled from a seeded stream, a scripted schedule, the
/// in-flight queue and a virtual clock. It lives inside its network's one
/// lock, which keeps the sampled stream strictly in send order — what
/// makes runs replayable.
#[derive(Debug)]
pub struct Simulated {
    default_link: LinkProfile,
    links: HashMap<(Party, Party), LinkProfile>,
    pending: BinaryHeap<PendingFrame>,
    now: u64,
    rng: u64,
    frame_seq: u64,
    /// Sorted by [`NetEvent::at`]; `next_event` indexes the first not yet
    /// applied.
    schedule: Vec<NetEvent>,
    next_event: usize,
}

impl Simulated {
    /// A uniform draw from `[0, 1)`, same mapping as the rand shim's
    /// `random_bool`.
    fn random_unit(&mut self) -> f64 {
        (rand::splitmix64(&mut self.rng) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform draw from `[min, max]`: no draw for a fixed latency, one
    /// otherwise. The window `[0, u64::MAX]` is the raw draw, since its
    /// width does not fit in a `u64`.
    fn random_latency(&mut self, min: u64, max: u64) -> u64 {
        if max == min {
            return min;
        }
        let draw = rand::splitmix64(&mut self.rng);
        match (max - min).checked_add(1) {
            Some(width) => min + draw % width,
            None => draw,
        }
    }

    /// Delivers every pending frame due at or before `target`, advances
    /// the clock to `target`, and applies schedule events the clock
    /// crossed to `drop_rules`. Delivery failures
    /// (receiver dropped mid-flight) are swallowed: the frame was
    /// accounted at send time.
    fn run_until(&mut self, target: u64, drop_rules: &mut DropRules) {
        while self
            .pending
            .peek()
            .is_some_and(|frame| frame.deliver_at <= target)
        {
            let frame = self.pending.pop().expect("peeked");
            push(&frame.inbox, frame.from, frame.message);
        }
        self.now = self.now.max(target);
        while self.next_event < self.schedule.len()
            && self.schedule[self.next_event].at() <= self.now
        {
            match &self.schedule[self.next_event] {
                NetEvent::Split { left, right, .. } => {
                    for &l in left {
                        for &r in right {
                            drop_rules.insert((l, r));
                            drop_rules.insert((r, l));
                        }
                    }
                }
                NetEvent::Heal { .. } => drop_rules.clear(),
            }
            self.next_event += 1;
        }
    }
}

impl LinkModel for Simulated {}

impl sealed::Hooks for Simulated {
    /// Samples the RNG only when the link actually has loss, jitter or
    /// duplication — a perfect link leaves the stream untouched.
    fn fate(&mut self, from: Party, to: Party) -> Fate {
        let profile = self
            .links
            .get(&(from, to))
            .copied()
            .unwrap_or(self.default_link);
        if profile.drop_prob > 0.0 && self.random_unit() < profile.drop_prob {
            return Fate::Lost;
        }
        let delay = self.random_latency(profile.latency_min, profile.latency_max);
        // Decided after loss, so only surviving frames can double up.
        let duplicate = profile.duplicate_probability > 0.0
            && self.random_unit() < profile.duplicate_probability;
        Fate::Deliver { delay, duplicate }
    }

    fn queue(&mut self, delay: u64, from: Party, inbox: Inbox, message: Message) {
        self.frame_seq += 1;
        self.pending.push(PendingFrame {
            deliver_at: self.now.saturating_add(delay),
            seq: self.frame_seq,
            from,
            inbox,
            message,
        });
    }

    /// The clock jumps to the latest pending delivery time, so per-phase
    /// virtual elapsed time is the *max* of the fan-out's latencies and
    /// nothing stays in flight.
    fn settle(&mut self, drop_rules: &mut DropRules) {
        let target = self
            .pending
            .iter()
            .map(|frame| frame.deliver_at)
            .max()
            .unwrap_or(self.now)
            .max(self.now);
        self.run_until(target, drop_rules);
    }

    fn now(&self) -> u64 {
        self.now
    }

    fn advance(&mut self, ticks: u64, drop_rules: &mut DropRules) {
        self.run_until(self.now.saturating_add(ticks), drop_rules);
    }
}

/// The deterministic simulated network: a [`Network`] over
/// [`Simulated`] links.
///
/// # Examples
///
/// A lossless `SimNet` behaves exactly like a [`Bus`](crate::Bus):
///
/// ```
/// use ra_authority::{Message, Party, SimNet, Transport};
///
/// let net = SimNet::lossless(42);
/// let a = Party::Agent(1);
/// let b = Party::Agent(2);
/// net.register(a);
/// let ep = net.register(b);
/// net.send(a, b, Message::AdviceRequest { game_id: 1 }).unwrap();
/// // Zero latency: already delivered, settle is a formality.
/// assert!(ep.try_recv().is_some());
/// assert_eq!(net.total_bytes(), net.delivered_bytes());
/// ```
///
/// With latency, frames are in flight until the clock advances:
///
/// ```
/// use ra_authority::{LinkProfile, Message, Party, SimNet, SimNetConfig, Transport};
///
/// let net = SimNet::new(SimNetConfig {
///     seed: 7,
///     default_link: LinkProfile::with_latency(100, 250),
///     ..SimNetConfig::default()
/// });
/// let a = Party::Agent(1);
/// let b = Party::Agent(2);
/// net.register(a);
/// let ep = net.register(b);
/// net.send(a, b, Message::AdviceRequest { game_id: 1 }).unwrap();
/// assert!(ep.try_recv().is_none(), "still in flight");
/// net.settle();
/// assert!(ep.try_recv().is_some());
/// assert!((100..=250).contains(&net.now()), "clock advanced by one RTT leg");
/// ```
pub type SimNet = Network<Simulated>;

impl SimNet {
    /// Builds a network from `config`.
    ///
    /// # Panics
    ///
    /// Panics if the default [`LinkProfile`] has an inverted latency
    /// window or a probability outside `[0, 1]`.
    pub fn new(config: SimNetConfig) -> SimNet {
        config.default_link.check();
        let mut schedule = config.schedule;
        schedule.sort_by_key(NetEvent::at);
        Network::with_model(Simulated {
            default_link: config.default_link,
            links: HashMap::new(),
            pending: BinaryHeap::new(),
            now: 0,
            rng: config.seed,
            frame_seq: 0,
            schedule,
            next_event: 0,
        })
    }

    /// A perfect network: zero latency, zero loss, no schedule — sends
    /// never touch the RNG, so this is byte-identical to a
    /// [`Bus`](crate::Bus) (the seed only matters if lossy links are
    /// set later).
    pub fn lossless(seed: u64) -> SimNet {
        SimNet::new(SimNetConfig {
            seed,
            ..SimNetConfig::default()
        })
    }

    /// Number of frames sent but not yet delivered.
    pub fn in_flight(&self) -> usize {
        self.state().link.pending.len()
    }

    /// Advances the virtual clock to `tick` (if ahead of it), delivering
    /// every frame due on the way and applying schedule events the clock
    /// crosses.
    pub fn advance_to(&self, tick: u64) {
        let state = &mut *self.state();
        state.link.run_until(tick, &mut state.drop_rules);
    }

    /// Overrides the profile of the directed `from → to` link.
    ///
    /// # Panics
    ///
    /// Panics if the profile is invalid (see [`SimNet::new`]).
    pub fn set_link(&self, from: Party, to: Party, profile: LinkProfile) {
        profile.check();
        self.state().link.links.insert((from, to), profile);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{checked_log, BusError, Transport};

    fn msg(game_id: u64) -> Message {
        Message::AdviceRequest { game_id }
    }

    #[test]
    fn lossless_simnet_is_rng_free_and_synchronous() {
        let net = SimNet::lossless(123);
        let a = Party::Agent(1);
        let b = Party::Agent(2);
        net.register(a);
        let ep = net.register(b);
        for g in 0..10 {
            net.send(a, b, msg(g)).unwrap();
        }
        // Delivered without any settle, like the bus.
        assert_eq!(ep.drain().len(), 10);
        assert_eq!(net.in_flight(), 0);
        assert_eq!(net.now(), 0, "zero-latency sends never move the clock");
        // The RNG stream was never touched.
        assert_eq!(net.state().link.rng, 123, "perfect links sample nothing");
        assert_eq!(net.total_bytes(), net.delivered_bytes());
    }

    #[test]
    fn latency_holds_frames_until_settle() {
        let net = SimNet::new(SimNetConfig {
            seed: 1,
            default_link: LinkProfile::with_latency(10, 10),
            ..SimNetConfig::default()
        });
        let a = Party::Agent(1);
        let b = Party::Agent(2);
        net.register(a);
        let ep = net.register(b);
        net.send(a, b, msg(1)).unwrap();
        net.send(a, b, msg(2)).unwrap();
        assert_eq!(net.in_flight(), 2);
        assert!(ep.try_recv().is_none());
        // Fixed latency: no sampling, the clock lands exactly on 10.
        net.settle();
        assert_eq!(net.now(), 10);
        let got = ep.drain();
        assert_eq!(
            got.iter().map(|(_, m)| m.clone()).collect::<Vec<_>>(),
            vec![msg(1), msg(2)],
            "equal delivery times preserve send order"
        );
        // Accounted as delivered at send time.
        assert_eq!(net.delivered_bytes(), net.total_bytes());
    }

    #[test]
    fn jitter_can_reorder_across_links() {
        // a→c slow, b→c fast: b's later frame overtakes a's.
        let c = Party::Verifier(0);
        let a = Party::Agent(1);
        let b = Party::Agent(2);
        let net = SimNet::lossless(5);
        net.set_link(a, c, LinkProfile::with_latency(100, 100));
        net.set_link(b, c, LinkProfile::with_latency(1, 1));
        net.register(a);
        net.register(b);
        let ep = net.register(c);
        net.send(a, c, msg(1)).unwrap();
        net.send(b, c, msg(2)).unwrap();
        net.settle();
        let got: Vec<Party> = ep.drain().into_iter().map(|(from, _)| from).collect();
        assert_eq!(got, vec![b, a], "the fast link's frame arrives first");
        assert_eq!(net.now(), 100);
    }

    #[test]
    fn loss_is_sampled_and_accounted_undelivered() {
        let net = SimNet::new(SimNetConfig {
            seed: 99,
            default_link: LinkProfile::lossy(0.5),
            ..SimNetConfig::default()
        })
        .with_delivery_log();
        let a = Party::Agent(1);
        let b = Party::Agent(2);
        net.register(a);
        let ep = net.register(b);
        let sends = 400u64;
        for g in 0..sends {
            net.send(a, b, msg(g)).unwrap();
        }
        net.settle();
        let arrived = ep.drain().len();
        assert!(
            (120..=280).contains(&arrived),
            "~half of {sends} frames should land, got {arrived}"
        );
        assert!(net.delivered_bytes() < net.total_bytes());
        let log = checked_log(&net);
        assert_eq!(log.len(), sends as usize);
        assert_eq!(log.iter().filter(|r| r.delivered).count(), arrived);
    }

    #[test]
    fn same_seed_same_fate() {
        let run = |seed: u64| {
            let net = SimNet::new(SimNetConfig {
                seed,
                default_link: LinkProfile {
                    latency_min: 1,
                    latency_max: 50,
                    drop_prob: 0.3,
                    duplicate_probability: 0.1,
                },
                ..SimNetConfig::default()
            })
            .with_delivery_log();
            let a = Party::Agent(1);
            let b = Party::Agent(2);
            net.register(a);
            let ep = net.register(b);
            for g in 0..64 {
                net.send(a, b, msg(g)).unwrap();
            }
            net.settle();
            (checked_log(&net), ep.drain(), net.now())
        };
        assert_eq!(run(7), run(7), "identical seeds replay identically");
        let (log_a, ..) = run(7);
        let (log_b, ..) = run(8);
        assert_ne!(log_a, log_b, "different seeds shuffle the fates");
    }

    #[test]
    fn duplicates_are_sampled_delivered_and_accounted() {
        let net = SimNet::new(SimNetConfig {
            seed: 21,
            default_link: LinkProfile::duplicating(0.5),
            ..SimNetConfig::default()
        });
        let a = Party::Agent(1);
        let b = Party::Agent(2);
        net.register(a);
        let ep = net.register(b);
        let sends = 200u64;
        for g in 0..sends {
            net.send(a, b, msg(g)).unwrap();
        }
        net.settle();
        let got = ep.drain();
        let arrived = got.len() as u64;
        assert!(
            (sends + 40..=sends + 160).contains(&arrived),
            "~half of {sends} frames should double up, got {arrived}"
        );
        // Every frame (original or copy) is its own delivered record, so
        // the ledger sees the duplicated traffic Lemma 1 must pay for.
        assert_eq!(net.message_count(), arrived as usize);
        assert_eq!(net.delivered_bytes(), net.total_bytes());
        // Copies are byte-identical to their originals, arrive adjacent
        // on a zero-latency link, and every original still lands exactly
        // once or twice — never zero, never three times.
        let mut counts = vec![0u64; sends as usize];
        for (from, m) in &got {
            assert_eq!(*from, a);
            let Message::AdviceRequest { game_id } = m else {
                panic!("unexpected frame {m:?}");
            };
            counts[*game_id as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c == 1 || c == 2));
    }

    #[test]
    fn duplicated_latency_frames_share_their_delay() {
        // Probability 1 duplication over a fixed-latency link: both
        // copies are in flight until the shared delivery tick.
        let net = SimNet::new(SimNetConfig {
            seed: 4,
            default_link: LinkProfile {
                latency_min: 10,
                latency_max: 10,
                drop_prob: 0.0,
                duplicate_probability: 1.0,
            },
            ..SimNetConfig::default()
        });
        let a = Party::Agent(1);
        let b = Party::Agent(2);
        net.register(a);
        let ep = net.register(b);
        net.send(a, b, msg(1)).unwrap();
        assert_eq!(net.in_flight(), 2, "original + copy queued");
        assert!(ep.try_recv().is_none());
        net.settle();
        assert_eq!(net.now(), 10);
        let got = ep.drain();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0], got[1], "the copy is byte-identical");
    }

    #[test]
    fn latency_windows_at_the_u64_edge_land_at_their_sampled_tick() {
        // Every windowed case samples the first draw of this stream.
        const SEED: u64 = 11;
        let draw = rand::splitmix64(&mut SEED.clone());
        let cases = [
            // The whole u64 window: its width does not fit in a u64, so
            // the raw draw is the delay.
            (LinkProfile::with_latency(0, u64::MAX), 0, draw),
            // A maximal fixed latency from tick 10 saturates at the end of
            // time instead of wrapping round to tick 9.
            (LinkProfile::with_latency(u64::MAX, u64::MAX), 10, u64::MAX),
            // One tick inside both edges: the plain modular draw, which
            // saturating arithmetic must leave alone.
            (
                LinkProfile::with_latency(1, u64::MAX - 1),
                5,
                5 + 1 + draw % (u64::MAX - 1),
            ),
        ];
        for (profile, start, deliver_at) in cases {
            let net = SimNet::new(SimNetConfig {
                seed: SEED,
                default_link: profile,
                ..SimNetConfig::default()
            });
            let a = Party::Agent(1);
            let b = Party::Agent(2);
            net.register(a);
            let ep = net.register(b);
            net.advance_to(start);
            net.send(a, b, msg(1)).unwrap();
            assert_eq!(net.in_flight(), 1, "{profile:?}: in flight");
            assert!(ep.try_recv().is_none(), "{profile:?}: not yet delivered");
            net.settle();
            assert_eq!(net.now(), deliver_at, "{profile:?}: delivery tick");
            assert_eq!(ep.drain().len(), 1, "{profile:?}: delivered once");
        }
    }

    #[test]
    fn scheduled_partition_blocks_and_heals() {
        let a = Party::Agent(1);
        let b = Party::Agent(2);
        let net = SimNet::new(SimNetConfig {
            seed: 0,
            schedule: vec![
                NetEvent::Split {
                    at: 100,
                    left: vec![a],
                    right: vec![b],
                },
                NetEvent::Heal { at: 200 },
            ],
            ..SimNetConfig::default()
        })
        .with_delivery_log();
        net.register(a);
        let ep = net.register(b);
        net.send(a, b, msg(1)).unwrap();
        assert_eq!(ep.drain().len(), 1, "before the split: delivered");
        net.advance_to(100);
        assert_eq!(
            net.state().drop_rules,
            DropRules::from([(a, b), (b, a)]),
            "the split is its drop rules"
        );
        net.send(a, b, msg(2)).unwrap();
        net.send(b, a, msg(3)).unwrap();
        assert!(ep.try_recv().is_none(), "partitioned: both directions cut");
        net.advance_to(200);
        net.send(a, b, msg(4)).unwrap();
        assert_eq!(ep.drain().len(), 1, "healed: delivery resumes");
        // The partitioned attempts are accounted, undelivered.
        let log = checked_log(&net);
        assert_eq!(log.len(), 4);
        assert_eq!(log.iter().filter(|r| !r.delivered).count(), 2);
    }

    #[test]
    fn unknown_party_unaccounted_and_disconnect_detected() {
        let net = SimNet::lossless(0);
        let a = Party::Agent(1);
        net.register(a);
        assert_eq!(
            net.send(a, Party::Verifier(9), msg(1)),
            Err(BusError::UnknownParty(Party::Verifier(9)))
        );
        assert_eq!(net.message_count(), 0, "unknown-party send unaccounted");
        let b = Party::Agent(2);
        let ep = net.register(b);
        drop(ep);
        assert_eq!(net.send(a, b, msg(2)), Err(BusError::Disconnected(b)));
        assert_eq!(net.message_count(), 1, "failed send accounted undelivered");
        assert_eq!(net.delivered_bytes(), 0);
    }

    #[test]
    fn settle_is_idempotent_and_advance_is_monotonic() {
        let net = SimNet::new(SimNetConfig {
            seed: 3,
            default_link: LinkProfile::with_latency(5, 5),
            ..SimNetConfig::default()
        });
        let a = Party::Agent(1);
        let b = Party::Agent(2);
        net.register(a);
        let ep = net.register(b);
        net.send(a, b, msg(1)).unwrap();
        net.settle();
        net.settle();
        assert_eq!(net.now(), 5);
        net.advance_to(3);
        assert_eq!(net.now(), 5, "the clock never runs backwards");
        assert_eq!(ep.drain().len(), 1);
        // Nothing stays in flight after a settle, even on a jittered,
        // duplicating link.
        net.set_link(
            a,
            b,
            LinkProfile {
                latency_min: 1,
                latency_max: 40,
                drop_prob: 0.0,
                duplicate_probability: 0.5,
            },
        );
        for g in 0..32 {
            net.send(a, b, msg(g)).unwrap();
        }
        assert!(net.in_flight() >= 32);
        net.settle();
        assert_eq!(net.in_flight(), 0, "settle drains the whole queue");
    }
}
