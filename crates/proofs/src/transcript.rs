//! Communication transcripts and privacy accounting.
//!
//! Lemma 1 of the paper bounds P1's communication at `O(n + m)` bits, and
//! Remarks 2–3 argue P2 reveals strictly less than P1 while making few
//! oracle queries. To make those claims *measurable* rather than asserted,
//! every interactive verification in this crate logs its messages into a
//! [`Transcript`] with explicit bit counts and disclosure tags.

use std::fmt;

/// Who learns a given piece of information.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Disclosure {
    /// Only the advised agent itself learns it (its own data).
    OwnData,
    /// Information about the *other* agents (supports, probabilities) —
    /// exactly what P2 is designed to avoid leaking.
    OpponentData,
    /// Aggregate/equilibrium values (the λ payoffs) — revealed by both P1
    /// and P2.
    EquilibriumValue,
}

/// One logged protocol event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TranscriptEvent {
    /// Prover → agent message.
    ProverMessage {
        /// Bits transferred.
        bits: u64,
        /// What kind of information the bits disclose.
        disclosure: Disclosure,
        /// Human-readable description.
        label: String,
    },
    /// Agent → prover oracle query (an index, `⌈log₂ range⌉` bits).
    Query {
        /// Bits transferred.
        bits: u64,
        /// The queried index.
        index: usize,
    },
    /// Prover → agent oracle answer: one bit of opponent information, or
    /// none when the answer never arrived.
    Answer {
        /// The membership bit; `None` for an unanswered query.
        in_support: Option<bool>,
    },
}

/// A complete record of one interactive verification.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Transcript {
    events: Vec<TranscriptEvent>,
}

impl Transcript {
    /// Creates an empty transcript.
    pub fn new() -> Transcript {
        Transcript::default()
    }

    /// Logs a prover message.
    pub fn prover_message(&mut self, bits: u64, disclosure: Disclosure, label: impl Into<String>) {
        self.events.push(TranscriptEvent::ProverMessage {
            bits,
            disclosure,
            label: label.into(),
        });
    }

    /// Logs a query for `index` out of `range` possibilities.
    pub fn query(&mut self, index: usize, range: usize) {
        let bits = usize::BITS as u64 - (range.max(2) - 1).leading_zeros() as u64;
        self.events.push(TranscriptEvent::Query { bits, index });
    }

    /// Logs an oracle answer (`None`: the query went unanswered).
    pub fn answer(&mut self, in_support: Option<bool>) {
        self.events.push(TranscriptEvent::Answer { in_support });
    }

    /// All events, in order.
    pub fn events(&self) -> &[TranscriptEvent] {
        &self.events
    }

    /// Number of oracle queries made.
    pub fn num_queries(&self) -> u64 {
        self.events
            .iter()
            .filter(|e| matches!(e, TranscriptEvent::Query { .. }))
            .count() as u64
    }

    /// Total bits communicated in either direction.
    pub fn total_bits(&self) -> u64 {
        self.events
            .iter()
            .map(|e| match e {
                TranscriptEvent::ProverMessage { bits, .. } => *bits,
                TranscriptEvent::Query { bits, .. } => *bits,
                TranscriptEvent::Answer { in_support } => u64::from(in_support.is_some()),
            })
            .sum()
    }

    /// Bits of *opponent* information disclosed to the agent — the privacy
    /// metric distinguishing P1 (whole supports) from P2 (one bit per
    /// query).
    pub fn opponent_bits_disclosed(&self) -> u64 {
        self.events
            .iter()
            .map(|e| match e {
                TranscriptEvent::ProverMessage {
                    bits,
                    disclosure: Disclosure::OpponentData,
                    ..
                } => *bits,
                TranscriptEvent::Answer {
                    in_support: Some(_),
                } => 1,
                _ => 0,
            })
            .sum()
    }
}

impl fmt::Display for Transcript {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "transcript: {} events, {} bits total, {} opponent bits",
            self.events.len(),
            self.total_bits(),
            self.opponent_bits_disclosed()
        )?;
        for e in &self.events {
            match e {
                TranscriptEvent::ProverMessage {
                    bits,
                    disclosure,
                    label,
                } => writeln!(f, "  prover → agent: {label} ({bits} bits, {disclosure:?})")?,
                TranscriptEvent::Query { bits, index } => {
                    writeln!(f, "  agent → prover: query index {index} ({bits} bits)")?
                }
                TranscriptEvent::Answer {
                    in_support: Some(in_support),
                } => writeln!(f, "  prover → agent: answer {in_support} (1 bit)")?,
                TranscriptEvent::Answer { in_support: None } => {
                    writeln!(f, "  prover → agent: no answer (0 bits)")?
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting() {
        let mut t = Transcript::new();
        t.prover_message(8, Disclosure::OwnData, "own support");
        t.prover_message(16, Disclosure::EquilibriumValue, "lambdas");
        t.prover_message(4, Disclosure::OpponentData, "opponent support mask");
        t.query(3, 8); // 3 bits
        t.answer(Some(true));
        t.query(5, 8); // 3 bits, never answered
        t.answer(None);
        assert_eq!(t.num_queries(), 2);
        assert_eq!(t.total_bits(), 8 + 16 + 4 + 3 + 1 + 3);
        assert_eq!(t.opponent_bits_disclosed(), 4 + 1);
        assert_eq!(t.events().len(), 7);
    }

    #[test]
    fn query_bit_width() {
        let mut t = Transcript::new();
        t.query(0, 2); // 1 bit
        t.query(0, 1024); // 10 bits
        assert_eq!(t.total_bits(), 11);
    }

    #[test]
    fn display_contains_summary() {
        let mut t = Transcript::new();
        t.answer(Some(false));
        t.answer(None);
        let s = t.to_string();
        assert!(s.contains("1 bits total"));
        assert!(s.contains("answer false"));
        assert!(s.contains("no answer"));
    }
}
