//! The P2 interactive proof run *over the bus* — §4's private consultation
//! as an actual protocol, with every query and answer crossing the wire.
//!
//! The in-crate [`crate::messages::Message::SupportQuery`] /
//! [`crate::messages::Message::SupportAnswer`] pair realizes Fig. 4's
//! oracle; the inventor end answers from its (secret) equilibrium, and the
//! agent end *is* `ra_proofs::verify_private_advice`, run against a
//! membership oracle whose every query is a wire round trip. Byte
//! accounting on the bus then *measures* the privacy claim: the only
//! opponent information on the wire is the advice-free answer bits.

use ra_games::{BimatrixGame, MixedProfile};
use ra_proofs::{verify_private_advice, P2Advice, P2Config, P2Outcome, P2Rejection, SupportOracle};

use crate::messages::{Advice, Message, Party};
use crate::transport::{Endpoint, Transport};
use crate::wire::Wire;

/// The game id every P2 session frame carries.
const GAME_ID: u64 = 1;

/// The inventor's secret state for a P2 session: the full equilibrium.
#[derive(Clone, Debug)]
pub struct P2Prover {
    /// Protocol identity.
    pub id: Party,
    equilibrium: MixedProfile,
    /// If `true`, the prover lies about every membership query (a maximally
    /// dishonest oracle, for fault-injection runs).
    pub lies: bool,
}

impl P2Prover {
    /// An honest prover holding the true equilibrium.
    pub fn honest(id: u64, equilibrium: MixedProfile) -> P2Prover {
        P2Prover {
            id: Party::Inventor(id),
            equilibrium,
            lies: false,
        }
    }

    /// A prover that inverts every oracle answer.
    pub fn lying(id: u64, equilibrium: MixedProfile) -> P2Prover {
        P2Prover {
            id: Party::Inventor(id),
            equilibrium,
            lies: true,
        }
    }

    /// The advice message for the row agent (own data + λ values only).
    pub fn row_advice(&self, game: &BimatrixGame) -> P2Advice {
        ra_proofs::honest_row_advice(game, &self.equilibrium)
    }

    fn answer(&self, index: usize) -> bool {
        let truthful = !self.equilibrium.col.prob(index).is_zero();
        truthful ^ self.lies
    }
}

/// Outcome of a P2 session over the bus.
#[derive(Clone, Debug)]
pub struct P2SessionOutcome {
    /// Accepted / rejected (with the protocol-level reason).
    pub accepted: bool,
    /// Rejection reason if any.
    pub rejection: Option<P2Rejection>,
    /// Oracle queries that crossed the wire.
    pub queries: u64,
    /// Total session bytes on the bus.
    pub session_bytes: usize,
    /// Bytes of opponent-revealing traffic (the answer messages).
    pub opponent_answer_bytes: usize,
}

/// Fig. 4's membership oracle with the prover remoted: each query is a
/// framed [`Message::SupportQuery`] from the agent, answered by the
/// prover with a framed [`Message::SupportAnswer`]. An answer that never
/// arrives reads as "out of support".
struct WireOracle<'a> {
    bus: &'a dyn Transport,
    prover: &'a P2Prover,
    agent: Party,
    agent_ep: Endpoint,
    prover_ep: Endpoint,
    /// Bytes of the answer frames the prover put on the wire.
    opponent_answer_bytes: usize,
}

impl SupportOracle for WireOracle<'_> {
    fn is_in_opponent_support(&mut self, index: usize) -> bool {
        let query = Message::SupportQuery {
            game_id: GAME_ID,
            index,
        };
        self.bus
            .send(self.agent, self.prover.id, query)
            .expect("prover registered");
        // Prover end: answer the queued queries (settle first so a latency
        // transport has landed the frame).
        self.bus.settle();
        for (from, msg) in self.prover_ep.drain() {
            if let Message::SupportQuery { index, .. } = msg {
                let reply = Message::SupportAnswer {
                    game_id: GAME_ID,
                    index,
                    in_support: self.prover.answer(index),
                };
                self.opponent_answer_bytes += reply.encoded_len();
                self.bus
                    .send(self.prover.id, from, reply)
                    .expect("agent registered");
            }
        }
        // Agent end: the last answer about this index counts.
        self.bus.settle();
        self.agent_ep
            .drain()
            .into_iter()
            .filter_map(|(_, msg)| match msg {
                Message::SupportAnswer {
                    index: answered,
                    in_support,
                    ..
                } if answered == index => Some(in_support),
                _ => None,
            })
            .last()
            .unwrap_or(false)
    }
}

/// Runs a full P2 consultation for the **row agent** over `bus`:
/// advice delivery, then [`verify_private_advice`] with every oracle
/// query a wire round trip, until `required_conclusive` conclusive pair
/// tests or `max_queries` queries.
///
/// If the advice frame is lost, the session is undecided: not accepted,
/// no rejection reason, no queries (its bytes still count).
pub fn run_p2_session(
    bus: &dyn Transport,
    game: &BimatrixGame,
    prover: &P2Prover,
    agent_id: u64,
    required_conclusive: u64,
    max_queries: u64,
    rng: &mut dyn rand::RngCore,
) -> P2SessionOutcome {
    let agent = Party::Agent(agent_id);
    let agent_ep = bus.register(agent);
    let prover_ep = bus.register(prover.id);
    let bytes_before = bus.total_bytes();

    // 1. Advice delivery (own data + λs — no opponent information).
    bus.send(
        prover.id,
        agent,
        Message::AdviceWithProof {
            game_id: GAME_ID,
            advice: Box::new(Advice::Private(prover.row_advice(game))),
        },
    )
    .expect("agent registered");
    bus.settle();
    let advice = agent_ep.drain().into_iter().find_map(|(_, msg)| match msg {
        Message::AdviceWithProof { advice, .. } => match *advice {
            Advice::Private(advice) => Some(advice),
            _ => None,
        },
        _ => None,
    });
    let Some(advice) = advice else {
        return P2SessionOutcome {
            accepted: false,
            rejection: None,
            queries: 0,
            session_bytes: bus.total_bytes() - bytes_before,
            opponent_answer_bytes: 0,
        };
    };

    // 2. Fig. 4's verifier, with the oracle remoted.
    let mut oracle = WireOracle {
        bus,
        prover,
        agent,
        agent_ep,
        prover_ep,
        opponent_answer_bytes: 0,
    };
    let config = P2Config {
        required_conclusive,
        max_queries,
    };
    let outcome = verify_private_advice(game, &advice, &mut oracle, rng, &config);
    P2SessionOutcome {
        accepted: outcome.is_accepted(),
        queries: outcome.transcript().num_queries(),
        rejection: match outcome {
            P2Outcome::Rejected { reason, .. } => Some(reason),
            _ => None,
        },
        session_bytes: bus.total_bytes() - bytes_before,
        opponent_answer_bytes: oracle.opponent_answer_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::Bus;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use ra_exact::rat;
    use ra_games::named::battle_of_the_sexes;
    use ra_games::MixedStrategy;
    use ra_proofs::{HonestOracle, LyingOracle};

    /// Runs the local Fig. 4 verifier on `prover`'s advice with an
    /// in-process oracle under `seed`, and asserts the wire session
    /// reached the same verdict after the same number of queries.
    fn assert_matches_local(
        outcome: &P2SessionOutcome,
        game: &BimatrixGame,
        prover: &P2Prover,
        oracle: &mut dyn SupportOracle,
        seed: u64,
        config: P2Config,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let local =
            verify_private_advice(game, &prover.row_advice(game), oracle, &mut rng, &config);
        assert_eq!(outcome.accepted, local.is_accepted(), "seed {seed}");
        let local_rejection = match &local {
            P2Outcome::Rejected { reason, .. } => Some(reason),
            _ => None,
        };
        assert_eq!(outcome.rejection.as_ref(), local_rejection, "seed {seed}");
        assert_eq!(
            outcome.queries,
            local.transcript().num_queries(),
            "seed {seed}"
        );
    }

    fn bos_equilibrium() -> (BimatrixGame, MixedProfile) {
        let game = battle_of_the_sexes();
        let profile = MixedProfile {
            row: MixedStrategy::try_new(vec![rat(2, 3), rat(1, 3)]).unwrap(),
            col: MixedStrategy::try_new(vec![rat(1, 3), rat(2, 3)]).unwrap(),
        };
        assert!(game.is_nash(&profile));
        (game, profile)
    }

    #[test]
    fn honest_p2_session_accepts() {
        let (game, eq) = bos_equilibrium();
        let bus = Bus::new();
        let prover = P2Prover::honest(0, eq);
        let mut rng = StdRng::seed_from_u64(1);
        let outcome = run_p2_session(&bus, &game, &prover, 0, 3, 100, &mut rng);
        assert!(outcome.accepted, "{:?}", outcome.rejection);
        assert!(outcome.queries >= 6);
        assert!(outcome.session_bytes > 0);
        // Opponent-revealing traffic is a small fraction of the session —
        // and every one of those bytes carries exactly one membership bit.
        assert!(outcome.opponent_answer_bytes < outcome.session_bytes);
    }

    #[test]
    fn lying_prover_wrong_lambda_detected_via_wire() {
        // A prover whose equilibrium does not match its λ claims: use the
        // true mixed equilibrium for λ but lie on every membership answer.
        // With full support {0,1}, "all out" answers are only inconclusive —
        // so instead lie about a dominated-column game (index 2 earns less).
        let game =
            BimatrixGame::from_i64_tables(&[&[2, 0, 0], &[0, 1, 0]], &[&[1, 0, -1], &[0, 2, -1]]);
        let eq = MixedProfile {
            row: MixedStrategy::try_new(vec![rat(2, 3), rat(1, 3)]).unwrap(),
            col: MixedStrategy::try_new(vec![rat(1, 3), rat(2, 3), rat(0, 1)]).unwrap(),
        };
        assert!(game.is_nash(&eq));
        let bus = Bus::new();
        let prover = P2Prover::lying(0, eq.clone());
        let config = P2Config {
            required_conclusive: 3,
            max_queries: 200,
        };
        let mut rejections = 0;
        for seed in 0..20 {
            let mut rng = StdRng::seed_from_u64(seed);
            let outcome = run_p2_session(&bus, &game, &prover, seed, 3, 200, &mut rng);
            if !outcome.accepted {
                rejections += 1;
            }
            // The prover inverts every answer: the local lying oracle
            // over all columns, under the same seed, must agree.
            let mut oracle = LyingOracle::new(eq.col.support(), 0..game.cols());
            assert_matches_local(&outcome, &game, &prover, &mut oracle, seed, config);
        }
        assert!(
            rejections >= 15,
            "lying prover caught in {rejections}/20 sessions"
        );
    }

    #[test]
    fn session_is_deterministic_per_seed() {
        let (game, eq) = bos_equilibrium();
        let prover = P2Prover::honest(0, eq.clone());
        let run = |seed: u64| {
            let bus = Bus::new();
            let mut rng = StdRng::seed_from_u64(seed);
            run_p2_session(&bus, &game, &prover, 0, 3, 100, &mut rng)
        };
        let o = run(9);
        let again = run(9);
        assert_eq!(
            (o.accepted, o.queries, o.session_bytes),
            (again.accepted, again.queries, again.session_bytes)
        );
        let config = P2Config {
            required_conclusive: 3,
            max_queries: 100,
        };
        let mut oracle = HonestOracle::new(eq.col.support());
        assert_matches_local(&o, &game, &prover, &mut oracle, 9, config);
    }

    #[test]
    fn lost_advice_frame_is_undecided_not_a_panic() {
        let (game, eq) = bos_equilibrium();
        let bus = Bus::new();
        let prover = P2Prover::honest(0, eq);
        bus.drop_link(prover.id, Party::Agent(0));
        let mut rng = StdRng::seed_from_u64(1);
        let outcome = run_p2_session(&bus, &game, &prover, 0, 3, 100, &mut rng);
        assert!(!outcome.accepted);
        assert_eq!(outcome.rejection, None);
        assert_eq!(outcome.queries, 0);
        assert_eq!(outcome.opponent_answer_bytes, 0);
        assert!(
            outcome.session_bytes > 0,
            "the lost frame is still accounted"
        );
    }

    #[test]
    fn query_budget_respected() {
        let (game, eq) = bos_equilibrium();
        let bus = Bus::new();
        let prover = P2Prover::honest(0, eq);
        let mut rng = StdRng::seed_from_u64(3);
        let outcome = run_p2_session(&bus, &game, &prover, 0, 50, 4, &mut rng);
        assert!(!outcome.accepted);
        assert!(outcome.queries <= 4);
    }
}
