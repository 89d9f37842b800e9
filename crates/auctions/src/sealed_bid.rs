//! Sealed-bid auctions as explicit strategic games.
//!
//! The paper's introduction motivates the rationality authority with
//! auctions: "every variant of an auction introduces the need for a new
//! proof that, say, reconfirms that the second price auction is the best to
//! use". Here both first- and second-price sealed-bid auctions are expanded
//! into explicit [`StrategicGame`]s, so the dominance certificates of
//! `ra-proofs` can *prove* (or refute) truthfulness claims per instance.

use ra_exact::Rational;
use ra_games::{Dominance, StrategicGame};

use crate::DominanceCertificate;

/// Payment rule of a sealed-bid auction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AuctionRule {
    /// Winner pays its own bid.
    FirstPrice,
    /// Winner pays the highest losing bid (Vickrey).
    SecondPrice,
}

/// A sealed-bid auction instance with integer private valuations and bid
/// levels `0..=max_bid`. Ties are broken toward the lowest bidder index.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SealedBidAuction {
    /// Each bidder's (privately known) valuation.
    pub valuations: Vec<u64>,
    /// Bids range over `0..=max_bid`.
    pub max_bid: u64,
    /// Payment rule.
    pub rule: AuctionRule,
}

impl SealedBidAuction {
    /// Validated constructor.
    ///
    /// # Panics
    ///
    /// Panics if there are fewer than two bidders or a valuation exceeds
    /// `max_bid` (truthful bidding must be an available strategy).
    pub fn new(valuations: Vec<u64>, max_bid: u64, rule: AuctionRule) -> SealedBidAuction {
        assert!(valuations.len() >= 2, "auction needs at least two bidders");
        assert!(
            valuations.iter().all(|&v| v <= max_bid),
            "valuations must be expressible as bids"
        );
        SealedBidAuction {
            valuations,
            max_bid,
            rule,
        }
    }

    /// Number of bidders.
    pub fn num_bidders(&self) -> usize {
        self.valuations.len()
    }

    /// Expands the auction into an explicit strategic game
    /// (strategy `b` of bidder `i` = bidding `b`).
    pub fn to_strategic(&self) -> StrategicGame {
        let n = self.num_bidders();
        let strategies = vec![(self.max_bid + 1) as usize; n];
        let valuations = self.valuations.clone();
        let rule = self.rule;
        StrategicGame::from_payoff_fn(strategies, move |profile| {
            let bids: Vec<u64> = (0..n).map(|i| profile.strategy_of(i) as u64).collect();
            let winner = (0..n)
                .max_by(|&a, &b| bids[a].cmp(&bids[b]).then(b.cmp(&a)))
                .expect("at least one bidder");
            let price = match rule {
                AuctionRule::FirstPrice => bids[winner],
                AuctionRule::SecondPrice => bids
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != winner)
                    .map(|(_, &b)| b)
                    .max()
                    .unwrap_or(0),
            };
            (0..n)
                .map(|i| {
                    if i == winner {
                        Rational::from(valuations[i] as i64) - Rational::from(price as i64)
                    } else {
                        Rational::zero()
                    }
                })
                .collect()
        })
    }

    /// The inventor's advice for bidder `agent`: "bid your valuation, it is
    /// weakly dominant" — packaged as a checkable certificate. Only honest
    /// for second-price auctions; shipping it for a first-price auction is
    /// exactly the kind of bias the verifier catches.
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

    #[test]
    fn second_price_truthfulness_certified() {
        let auction = SealedBidAuction::new(vec![3, 5], 6, AuctionRule::SecondPrice);
        let game = auction.to_strategic();
        for agent in 0..2 {
            let cert = auction.truthful_dominance_certificate(agent);
            verify_dominance_certificate(&game, &cert)
                .unwrap_or_else(|e| panic!("agent {agent}: {e}"));
        }
    }

    #[test]
    fn first_price_truthfulness_refuted() {
        // Truthful bidding in a first-price auction yields zero utility;
        // shading the bid is strictly better in some profiles.
        let auction = SealedBidAuction::new(vec![3, 5], 6, AuctionRule::FirstPrice);
        let game = auction.to_strategic();
        let cert = auction.truthful_dominance_certificate(1);
        assert!(verify_dominance_certificate(&game, &cert).is_err());
    }

    #[test]
    fn payoffs_match_rules() {
        let auction = SealedBidAuction::new(vec![4, 2], 5, AuctionRule::SecondPrice);
        let game = auction.to_strategic();
        // Bids (4, 2): bidder 0 wins, pays 2 → utility 2; loser 0.
        assert_eq!(game.payoffs(&vec![4, 2].into()), &[rat(2, 1), rat(0, 1)]);
        // Tie at 3: lowest index wins, pays 3 → utility 4−3 = 1.
        assert_eq!(game.payoffs(&vec![3, 3].into()), &[rat(1, 1), rat(0, 1)]);
        let first = SealedBidAuction::new(vec![4, 2], 5, AuctionRule::FirstPrice);
        let game = first.to_strategic();
        // Bids (4, 2): winner pays own bid 4 → utility 0.
        assert_eq!(game.payoffs(&vec![4, 2].into()), &[rat(0, 1), rat(0, 1)]);
        // Overbidding beyond valuation can go negative.
        assert_eq!(game.payoffs(&vec![5, 2].into()), &[rat(-1, 1), rat(0, 1)]);
    }

    #[test]
    fn truthful_profile_is_nash_in_second_price() {
        for valuations in [vec![3u64, 5], vec![2, 2, 4], vec![1, 6, 3]] {
            let max = 7;
            let auction = SealedBidAuction::new(valuations.clone(), max, AuctionRule::SecondPrice);
            let game = auction.to_strategic();
            let truthful: ra_games::StrategyProfile = valuations
                .iter()
                .map(|&v| v as usize)
                .collect::<Vec<_>>()
                .into();
            assert!(game.is_pure_nash(&truthful), "valuations {valuations:?}");
        }
    }

    #[test]
    fn three_bidder_second_price_dominance() {
        let auction = SealedBidAuction::new(vec![2, 4, 3], 5, AuctionRule::SecondPrice);
        let game = auction.to_strategic();
        for agent in 0..3 {
            let cert = auction.truthful_dominance_certificate(agent);
            assert!(
                verify_dominance_certificate(&game, &cert).is_ok(),
                "agent {agent}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least two bidders")]
    fn single_bidder_rejected() {
        let _ = SealedBidAuction::new(vec![3], 5, AuctionRule::SecondPrice);
    }

    #[test]
    #[should_panic(expected = "expressible as bids")]
    fn valuation_above_max_bid_rejected() {
        let _ = SealedBidAuction::new(vec![3, 9], 5, AuctionRule::SecondPrice);
    }
}
