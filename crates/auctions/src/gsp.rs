//! The generalized second-price (GSP) ad auction.
//!
//! The paper's introduction motivates the rationality authority with
//! auctions, citing Google's keyword auction [5, 11] (Edelman, Ostrovsky,
//! Schwarz: *Internet advertising and the generalized second-price
//! auction*). GSP is the canonical example of "every variant of an auction
//! introduces the need for a new proof": unlike Vickrey, truthful bidding
//! is **not** dominant in GSP — an inventor shipping the familiar
//! "bid your value" advice here is exactly the plausible-but-wrong
//! consultation the verification machinery must catch.
//!
//! This module builds explicit GSP instances, expands them to
//! [`StrategicGame`]s, and exposes the classic counterexample: the
//! dominance certificate for truthful bidding verifies under second-price
//! (single slot) and is *refuted* under GSP with two slots.

use ra_exact::Rational;
use ra_games::{Dominance, StrategicGame};

use crate::DominanceCertificate;

/// A GSP instance: `slots.len()` ad positions with click-through rates
/// (CTRs), bidders with per-click valuations, integer bid levels
/// `0..=max_bid`.
///
/// Allocation: bidders sorted by bid (ties toward the lower index) fill the
/// slots in CTR order; the bidder in slot `s` pays the *next* bid down per
/// click.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GspAuction {
    /// Click-through rate of each slot, best first (non-increasing),
    /// as exact rationals in `[0, 1]`.
    pub slot_ctrs: Vec<Rational>,
    /// Each bidder's per-click valuation.
    pub valuations: Vec<u64>,
    /// Bids range over `0..=max_bid`.
    pub max_bid: u64,
}

impl GspAuction {
    /// Validated constructor.
    ///
    /// # Panics
    ///
    /// Panics if there are fewer bidders than slots + 1 (GSP needs a
    /// price-setting loser for the last slot to be interesting), if CTRs
    /// are not non-increasing in `[0, 1]`, or if a valuation exceeds
    /// `max_bid`.
    pub fn new(slot_ctrs: Vec<Rational>, valuations: Vec<u64>, max_bid: u64) -> GspAuction {
        assert!(!slot_ctrs.is_empty(), "at least one slot");
        assert!(
            valuations.len() > slot_ctrs.len(),
            "need more bidders than slots (a price-setter for the last slot)"
        );
        assert!(
            slot_ctrs.windows(2).all(|w| w[0] >= w[1]),
            "CTRs must be non-increasing"
        );
        assert!(
            slot_ctrs
                .iter()
                .all(|c| !c.is_negative() && c <= &Rational::one()),
            "CTRs must lie in [0, 1]"
        );
        assert!(
            valuations.iter().all(|&v| v <= max_bid),
            "valuations must be expressible as bids"
        );
        GspAuction {
            slot_ctrs,
            valuations,
            max_bid,
        }
    }

    /// Number of bidders.
    pub fn num_bidders(&self) -> usize {
        self.valuations.len()
    }

    /// Outcome of one bid profile: for each bidder, `(slot, price_per_click)`
    /// or `None` if unplaced.
    pub fn allocate(&self, bids: &[u64]) -> Vec<Option<(usize, u64)>> {
        assert_eq!(bids.len(), self.num_bidders(), "one bid per bidder");
        // Rank bidders by (bid desc, index asc).
        let mut order: Vec<usize> = (0..bids.len()).collect();
        order.sort_by(|&a, &b| bids[b].cmp(&bids[a]).then(a.cmp(&b)));
        let mut out = vec![None; bids.len()];
        for (slot, &bidder) in order.iter().take(self.slot_ctrs.len()).enumerate() {
            // Price per click = the next-ranked bid (0 if none).
            let price = order.get(slot + 1).map_or(0, |&next| bids[next]);
            out[bidder] = Some((slot, price));
        }
        out
    }

    /// Expands the auction into an explicit strategic game; utility of a
    /// placed bidder is `ctr · (valuation − price)`.
    pub fn to_strategic(&self) -> StrategicGame {
        let n = self.num_bidders();
        let strategies = vec![(self.max_bid + 1) as usize; n];
        let this = self.clone();
        StrategicGame::from_payoff_fn(strategies, move |profile| {
            let bids: Vec<u64> = (0..n).map(|i| profile.strategy_of(i) as u64).collect();
            let allocation = this.allocate(&bids);
            (0..n)
                .map(|i| match &allocation[i] {
                    Some((slot, price)) => {
                        &this.slot_ctrs[*slot]
                            * (Rational::from(this.valuations[i] as i64)
                                - Rational::from(*price as i64))
                    }
                    None => Rational::zero(),
                })
                .collect()
        })
    }

    /// The tempting-but-wrong advice: "bid your valuation, it is weakly
    /// dominant" — true for one slot (where GSP *is* second-price), false
    /// in general.
    pub fn truthful_dominance_certificate(&self, agent: usize) -> DominanceCertificate {
        DominanceCertificate {
            agent,
            strategy: self.valuations[agent] as usize,
            kind: Dominance::Weak,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify_dominance_certificate;
    use ra_exact::rat;

    /// The classic EOS counterexample shape: two slots with CTRs 1 and 1/2,
    /// three bidders.
    fn eos_instance() -> GspAuction {
        GspAuction::new(vec![rat(1, 1), rat(1, 2)], vec![8, 5, 2], 10)
    }

    #[test]
    fn allocation_and_prices() {
        let auction = eos_instance();
        // Truthful bids (8, 5, 2): bidder 0 → slot 0 at price 5,
        // bidder 1 → slot 1 at price 2, bidder 2 unplaced.
        let alloc = auction.allocate(&[8, 5, 2]);
        assert_eq!(alloc[0], Some((0, 5)));
        assert_eq!(alloc[1], Some((1, 2)));
        assert_eq!(alloc[2], None);
        // Ties go to the lower index.
        let alloc = auction.allocate(&[5, 5, 5]);
        assert_eq!(alloc[0], Some((0, 5)));
        assert_eq!(alloc[1], Some((1, 5)));
    }

    #[test]
    fn utilities_match_ctr_times_surplus() {
        let auction = eos_instance();
        let game = auction.to_strategic();
        // Bids (8, 5, 2): u0 = 1·(8−5) = 3; u1 = 1/2·(5−2) = 3/2; u2 = 0.
        let payoffs = game.payoffs(&vec![8usize, 5, 2].into());
        assert_eq!(payoffs[0], rat(3, 1));
        assert_eq!(payoffs[1], rat(3, 2));
        assert_eq!(payoffs[2], rat(0, 1));
    }

    #[test]
    fn truthful_bidding_not_dominant_in_gsp() {
        // The headline fact: bidder 0 can profit by shading its bid below
        // bidder 1's — taking slot 2 cheaply instead of slot 1 expensively.
        // Against bids (·, 5, 2): truthful 8 → u = 1·(8−5) = 3;
        // shading to 4 → slot 1 at price 2 → u = 1/2·(8−2) = 3.
        // With CTRs (1, 0.6) shading strictly wins; use those.
        let auction = GspAuction::new(vec![rat(1, 1), rat(3, 5)], vec![8, 5, 2], 10);
        let game = auction.to_strategic();
        // Truthful u0 = 3; shaded-to-4 u0 = 3/5·(8−2) = 18/5 > 3.
        let truthful = game.payoff(0, &vec![8usize, 5, 2].into()).clone();
        let shaded = game.payoff(0, &vec![4usize, 5, 2].into()).clone();
        assert_eq!(truthful, rat(3, 1));
        assert_eq!(shaded, rat(18, 5));
        assert!(shaded > truthful);
        // And the certificate machinery catches the inventor's false claim.
        let cert = auction.truthful_dominance_certificate(0);
        assert!(verify_dominance_certificate(&game, &cert).is_err());
    }

    #[test]
    fn single_slot_gsp_is_second_price() {
        // With one slot GSP degenerates to Vickrey: truthful bidding is
        // weakly dominant and the certificate verifies.
        let auction = GspAuction::new(vec![rat(1, 1)], vec![4, 2], 6);
        let game = auction.to_strategic();
        for agent in 0..2 {
            let cert = auction.truthful_dominance_certificate(agent);
            verify_dominance_certificate(&game, &cert)
                .unwrap_or_else(|e| panic!("agent {agent}: {e}"));
        }
    }

    #[test]
    fn truthful_profile_can_still_be_nash() {
        // Truthfulness is not dominant, but for the EOS instance the
        // truthful profile happens to be a Nash equilibrium — the subtlety
        // that makes naive advice so seductive.
        let auction = eos_instance();
        let game = auction.to_strategic();
        assert!(game.is_pure_nash(&vec![8usize, 5, 2].into()));
    }

    #[test]
    fn pure_equilibria_exist() {
        let auction = eos_instance();
        let game = auction.to_strategic();
        let eqs = game.pure_nash_equilibria();
        assert!(!eqs.is_empty(), "GSP has pure equilibria (EOS Theorem 1)");
    }

    #[test]
    #[should_panic(expected = "more bidders than slots")]
    fn too_few_bidders_rejected() {
        let _ = GspAuction::new(vec![rat(1, 1), rat(1, 2)], vec![3, 2], 5);
    }

    #[test]
    #[should_panic(expected = "non-increasing")]
    fn increasing_ctrs_rejected() {
        let _ = GspAuction::new(vec![rat(1, 2), rat(1, 1)], vec![3, 2, 1], 5);
    }
}
