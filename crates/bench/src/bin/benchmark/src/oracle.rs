//! The correctness oracle, run on every outcome after it is timed.
//!
//! Every workload's panel is majority-honest and its inventor honest, so
//! the paper's guarantee becomes an exact check: an agent adopts advice
//! exactly when the trusted kernel accepts it, and an honest inventor
//! always advises. On every transport the Lemma 1 ledger must split
//! exactly into goodput and retransmit bytes.

use ra_authority::{kernel_check, ConsultResult, GameSpec, ShardedAuthority, Transport};

use crate::workloads::Request;

/// Tallies of the outcomes checked so far.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Oracle {
    /// Outcomes checked.
    pub checked: u64,
    /// Consults that returned a `ConsultError`.
    pub errors: u64,
    /// Outcomes that broke the adoption or advice rule.
    pub violations: u64,
    /// Ledgers whose goodput and retransmit bytes do not sum to the total.
    pub ledger_mismatches: u64,
    /// The first problem found, for the report.
    pub first_problem: Option<String>,
}

impl Oracle {
    /// Checks the outcome of consulting about `spec`.
    pub fn check(&mut self, spec: &GameSpec, result: &ConsultResult) {
        self.checked += 1;
        let problem = match result {
            Err(e) => {
                self.errors += 1;
                format!("consult failed: {e}")
            }
            Ok(outcome) => {
                let Some(advice) = &outcome.advice else {
                    self.violations += 1;
                    self.note("an honest inventor gave no advice".to_owned());
                    return;
                };
                let (kernel_accepts, detail) = kernel_check(spec, advice);
                if outcome.adopted == kernel_accepts {
                    return;
                }
                self.violations += 1;
                format!(
                    "adopted = {} but the kernel says {kernel_accepts} ({detail})",
                    outcome.adopted
                )
            }
        };
        self.note(problem);
    }

    /// Checks a batch's results against its requests, slot by slot.
    pub fn check_batch(&mut self, requests: &[Request], results: &[ConsultResult]) {
        for ((_, spec), result) in requests.iter().zip(results) {
            self.check(spec, result);
        }
    }

    /// Counts the errors among warm-up results, without the kernel check.
    pub fn count_errors(&mut self, results: &[ConsultResult]) {
        for result in results {
            self.checked += 1;
            if let Err(e) = result {
                self.errors += 1;
                self.note(format!("warm-up consult failed: {e}"));
            }
        }
    }

    /// Checks `total == goodput + retransmit` on every transport of
    /// `engine`: each shard's and the gossip hub's.
    pub fn check_ledgers(&mut self, engine: &ShardedAuthority) {
        for shard in 0..engine.shard_count() {
            engine.with_shard(shard, |authority| self.check_ledger(authority.bus()));
        }
        if let Some(hub) = engine.gossip_bus() {
            self.check_ledger(hub);
        }
    }

    fn check_ledger(&mut self, transport: &dyn Transport) {
        let (total, goodput, retransmit) = (
            transport.total_bytes(),
            transport.goodput_bytes(),
            transport.retransmit_bytes(),
        );
        if total != goodput + retransmit {
            self.ledger_mismatches += 1;
            self.note(format!(
                "ledger total {total} != goodput {goodput} + retransmit {retransmit}"
            ));
        }
    }

    fn note(&mut self, problem: String) {
        self.first_problem.get_or_insert(problem);
    }

    /// Failed operations: consult errors plus oracle violations.
    pub fn failed(&self) -> u64 {
        self.errors + self.violations
    }

    /// Whether nothing failed and every ledger balanced.
    pub fn correct(&self) -> bool {
        self.failed() == 0 && self.ledger_mismatches == 0
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use ra_authority::{InventorBehavior, VerifierBehavior};
    use ra_games::named::prisoners_dilemma;

    use super::*;

    fn requests() -> Vec<Request> {
        let spec = Arc::new(GameSpec::Strategic(prisoners_dilemma().to_strategic()));
        (0..8).map(|agent| (agent, Arc::clone(&spec))).collect()
    }

    #[test]
    fn a_bought_panel_adopting_corrupt_advice_is_flagged() {
        let engine = ShardedAuthority::new(
            2,
            InventorBehavior::Corrupt,
            &[VerifierBehavior::AlwaysAccept; 3],
        );
        let requests = requests();
        let results = engine.try_consult_batch(&requests);
        let mut oracle = Oracle::default();
        oracle.check_batch(&requests, &results);
        oracle.check_ledgers(&engine);
        assert_eq!(oracle.checked, 8);
        assert_eq!(
            oracle.violations, 8,
            "every adoption contradicts the kernel"
        );
        assert_eq!(oracle.failed(), 8, "violations count as failed operations");
        assert!(!oracle.correct());
        assert!(oracle.first_problem.unwrap().contains("kernel says false"));
    }

    #[test]
    fn an_honest_engine_passes() {
        let engine =
            ShardedAuthority::new(2, InventorBehavior::Honest, &[VerifierBehavior::Honest; 3]);
        let requests = requests();
        let results = engine.try_consult_batch(&requests);
        let mut oracle = Oracle::default();
        oracle.check_batch(&requests, &results);
        oracle.check_ledgers(&engine);
        assert_eq!((oracle.checked, oracle.failed()), (8, 0));
        assert!(oracle.correct());
    }

    #[test]
    fn a_silent_inventor_is_flagged() {
        let engine =
            ShardedAuthority::new(2, InventorBehavior::Silent, &[VerifierBehavior::Honest; 3]);
        let requests = requests();
        let results = engine.try_consult_batch(&requests);
        let mut oracle = Oracle::default();
        oracle.check_batch(&requests, &results);
        assert_eq!(oracle.violations, 8);
    }
}
