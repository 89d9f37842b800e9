//! §6 certificates: verifiable link advice for online parallel-link games.
//!
//! The inventor observes the current link loads (published, signed — see
//! `ra-authority::audit`), knows the arriving agent's load and how many
//! agents are still expected, and computes a Nash-equilibrium assignment of
//! the agent's load plus the expected future loads (greatest load first onto
//! least-loaded links). The advice is "take the link your load got in that
//! assignment", and the *proof* is the assignment itself: the agent verifies
//! the Nash property of the assignment locally — no trust in the inventor's
//! computation needed.
//!
//! The certificate carries only what the inventor adds. The loads and the
//! future model form the [`OnlineInstance`] the agent consulted about, and
//! the checker takes it from its caller, so an assignment is always judged
//! against the whole instance it is advice for.

use std::fmt;

use ra_exact::Rational;

/// The §6 instance an arriving agent consults about, borrowed from whoever
/// holds it: every party to a consult has these fields before any advice
/// is sent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OnlineInstance<'a> {
    /// Link loads at the agent's arrival time (the published statistics).
    pub current_loads: &'a [Rational],
    /// The arriving agent's own load `w_i`.
    pub own_load: &'a Rational,
    /// The estimate of each future agent's load (the running average `w̄_i`
    /// in the paper's second model).
    pub expected_future_load: &'a Rational,
    /// Number of agents still expected to arrive (`n − i`).
    pub expected_future_agents: usize,
}

impl OnlineInstance<'_> {
    /// The load at `index` of an assignment: the agent's own at 0, the
    /// expected future load elsewhere.
    fn load(&self, index: usize) -> &Rational {
        if index == 0 {
            self.own_load
        } else {
            self.expected_future_load
        }
    }
}

/// A §6 advice certificate for one [`OnlineInstance`] on `m` parallel links.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OnlineAdviceCertificate {
    /// The claimed equilibrium assignment: entry 0 is the link assigned to
    /// the agent's own load; entries `1..` are links for the expected
    /// future loads.
    pub assignment: Vec<usize>,
    /// The advised link (must equal `assignment[0]`).
    pub suggested_link: usize,
}

/// Rejection reasons for online advice.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OnlineAdviceError {
    /// An instance with no links or a negative load, or an assignment of
    /// the wrong length or onto a link that does not exist.
    Malformed {
        /// Description.
        reason: String,
    },
    /// The advised link differs from the assignment's own-load entry.
    SuggestionMismatch,
    /// The assignment is not a Nash equilibrium of the induced
    /// load-balancing game: some assigned load would strictly reduce its
    /// completion delay by moving.
    NotEquilibrium {
        /// Index into the assignment (0 = own load).
        load_index: usize,
        /// A strictly better link for that load.
        better_link: usize,
    },
}

impl fmt::Display for OnlineAdviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OnlineAdviceError::Malformed { reason } => write!(f, "malformed advice: {reason}"),
            OnlineAdviceError::SuggestionMismatch => {
                write!(
                    f,
                    "suggested link differs from the assignment's own-load link"
                )
            }
            OnlineAdviceError::NotEquilibrium {
                load_index,
                better_link,
            } => write!(
                f,
                "assignment not an equilibrium: load #{load_index} prefers link {better_link}"
            ),
        }
    }
}

impl std::error::Error for OnlineAdviceError {}

/// Verified online advice: the link to take plus the final loads the
/// equilibrium assignment predicts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OnlineAdviceVerified {
    /// The advised link.
    pub link: usize,
    /// Predicted final load per link under the certified assignment.
    pub predicted_loads: Vec<Rational>,
    /// Predicted delay the agent will experience (its link's final load,
    /// identity delay functions as in Fig. 7's setting).
    pub predicted_own_delay: Rational,
}

/// Verifies a §6 advice certificate for `instance`.
///
/// The assignment must place the instance's own load and exactly
/// `expected_future_agents` future loads. The Nash property checked is
/// the standard one for load balancing on identical (equispeed) links: no
/// single assigned load can move to another link and end up with a
/// strictly smaller completed load (`target + w < source`, i.e. the move
/// lowers the delay the moved load experiences). The check costs
/// `O((1 + future) · m)` — independent of how the inventor *found* the
/// assignment.
///
/// # Errors
///
/// See [`OnlineAdviceError`].
pub fn verify_online_advice(
    instance: &OnlineInstance<'_>,
    certificate: &OnlineAdviceCertificate,
) -> Result<OnlineAdviceVerified, OnlineAdviceError> {
    let malformed = |reason: &str| {
        Err(OnlineAdviceError::Malformed {
            reason: reason.to_owned(),
        })
    };
    let m = instance.current_loads.len();
    if m == 0 {
        return malformed("no links");
    }
    if instance.current_loads.iter().any(Rational::is_negative) {
        return malformed("negative link load");
    }
    if instance.own_load.is_negative() || instance.expected_future_load.is_negative() {
        return malformed("negative agent load");
    }
    let assignment = &certificate.assignment;
    if assignment.len().checked_sub(1) != Some(instance.expected_future_agents) {
        return Err(OnlineAdviceError::Malformed {
            reason: format!(
                "assignment covers {} loads, expected 1 + {}",
                assignment.len(),
                instance.expected_future_agents
            ),
        });
    }
    if assignment.iter().any(|&l| l >= m) {
        return malformed("assignment refers to a non-existent link");
    }
    if certificate.suggested_link != assignment[0] {
        return Err(OnlineAdviceError::SuggestionMismatch);
    }
    // Predicted final loads.
    let mut final_loads = instance.current_loads.to_vec();
    for (idx, &link) in assignment.iter().enumerate() {
        final_loads[link] = &final_loads[link] + instance.load(idx);
    }
    // Nash property: no assigned load strictly gains by moving.
    for (idx, &link) in assignment.iter().enumerate() {
        let w = instance.load(idx);
        if w.is_zero() {
            continue;
        }
        let here = &final_loads[link];
        for (target, target_load) in final_loads.iter().enumerate() {
            if target != link && &(target_load + w) < here {
                return Err(OnlineAdviceError::NotEquilibrium {
                    load_index: idx,
                    better_link: target,
                });
            }
        }
    }
    let link = certificate.suggested_link;
    let predicted_own_delay = final_loads[link].clone();
    Ok(OnlineAdviceVerified {
        link,
        predicted_loads: final_loads,
        predicted_own_delay,
    })
}

/// The honest inventor's construction: LPT/greedy Nash assignment of the
/// agent's load plus the expected future loads onto the current link loads
/// (each load, greatest first, goes to the least-loaded link — ties to the
/// lowest index).
///
/// This is exactly the strategy of the Fig. 7 simulation; the returned
/// certificate always verifies for `instance`.
///
/// # Errors
///
/// [`OnlineAdviceError::Malformed`] if the instance has no links, or if
/// its `1 + expected_future_agents` loads overflow a `usize` or cannot be
/// allocated.
pub fn honest_online_advice(
    instance: &OnlineInstance<'_>,
) -> Result<OnlineAdviceCertificate, OnlineAdviceError> {
    let malformed = |reason: &str| OnlineAdviceError::Malformed {
        reason: reason.to_owned(),
    };
    if instance.current_loads.is_empty() {
        return Err(malformed("no links"));
    }
    let count = instance
        .expected_future_agents
        .checked_add(1)
        .ok_or_else(|| malformed("too many expected agents"))?;
    let mut order: Vec<usize> = Vec::new();
    let mut assignment: Vec<usize> = Vec::new();
    for buffer in [&mut order, &mut assignment] {
        buffer
            .try_reserve_exact(count)
            .map_err(|_| malformed("too many expected agents to assign"))?;
    }
    // Order loads greatest-first; remember which is the agent's own.
    order.extend(0..count);
    order.sort_by(|&a, &b| instance.load(b).cmp(instance.load(a)).then(a.cmp(&b)));
    let mut loads = instance.current_loads.to_vec();
    assignment.resize(count, 0);
    for idx in order {
        let best = (0..loads.len())
            .min_by(|&a, &b| loads[a].cmp(&loads[b]).then(a.cmp(&b)))
            .expect("at least one link");
        assignment[idx] = best;
        loads[best] = &loads[best] + instance.load(idx);
    }
    Ok(OnlineAdviceCertificate {
        suggested_link: assignment[0],
        assignment,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ra_exact::rat;

    fn r(v: i64) -> Rational {
        Rational::from(v)
    }

    fn instance<'a>(
        current_loads: &'a [Rational],
        own_load: &'a Rational,
        expected_future_load: &'a Rational,
        expected_future_agents: usize,
    ) -> OnlineInstance<'a> {
        OnlineInstance {
            current_loads,
            own_load,
            expected_future_load,
            expected_future_agents,
        }
    }

    #[test]
    fn honest_advice_verifies() {
        let (loads, own, future) = ([r(3), r(1), r(2)], r(4), r(2));
        let inst = instance(&loads, &own, &future, 3);
        let cert = honest_online_advice(&inst).unwrap();
        let verified = verify_online_advice(&inst, &cert).unwrap();
        assert_eq!(verified.link, cert.suggested_link);
        // Total predicted load conserved: 6 existing + 4 + 3·2 = 16.
        let total: Rational = verified
            .predicted_loads
            .iter()
            .fold(Rational::zero(), |a, b| a + b);
        assert_eq!(total, r(16));
    }

    #[test]
    fn lpt_places_big_load_on_least_loaded() {
        // Own load 10 dominates: goes to the emptiest link (index 1).
        let (loads, own, future) = ([r(3), r(0), r(2)], r(10), r(1));
        let inst = instance(&loads, &own, &future, 2);
        let cert = honest_online_advice(&inst).unwrap();
        assert_eq!(cert.suggested_link, 1);
        assert!(verify_online_advice(&inst, &cert).is_ok());
    }

    #[test]
    fn tampered_suggestion_rejected() {
        let (loads, one) = ([r(5), r(0)], r(1));
        let inst = instance(&loads, &one, &one, 1);
        let mut cert = honest_online_advice(&inst).unwrap();
        cert.suggested_link = 1 - cert.suggested_link;
        assert_eq!(
            verify_online_advice(&inst, &cert),
            Err(OnlineAdviceError::SuggestionMismatch)
        );
    }

    #[test]
    fn non_equilibrium_assignment_rejected() {
        // Force the agent's load onto the heavily loaded link.
        let (loads, own, future) = ([r(10), r(0)], r(2), r(0));
        let cert = OnlineAdviceCertificate {
            assignment: vec![0],
            suggested_link: 0,
        };
        assert_eq!(
            verify_online_advice(&instance(&loads, &own, &future, 0), &cert),
            Err(OnlineAdviceError::NotEquilibrium {
                load_index: 0,
                better_link: 1
            })
        );
    }

    #[test]
    fn malformed_certificates_rejected() {
        let (loads, one) = ([r(1), r(2)], r(1));
        let good_instance = instance(&loads, &one, &one, 1);
        let good = honest_online_advice(&good_instance).unwrap();
        let malformed = |inst: &OnlineInstance<'_>, cert: &OnlineAdviceCertificate| {
            matches!(
                verify_online_advice(inst, cert),
                Err(OnlineAdviceError::Malformed { .. })
            )
        };
        assert!(malformed(&instance(&[], &one, &one, 1), &good));
        let mut short = good.clone();
        short.assignment.pop();
        assert!(malformed(&good_instance, &short));
        let mut bad_link = good.clone();
        bad_link.assignment[0] = 9;
        assert!(malformed(&good_instance, &bad_link));
        assert!(malformed(&instance(&loads, &r(-1), &one, 1), &good));
        // Advice for a different future: too few or too many future loads.
        assert!(malformed(&instance(&loads, &one, &one, 0), &good));
        assert!(malformed(&instance(&loads, &one, &one, 2), &good));
        assert!(malformed(&instance(&loads, &one, &one, usize::MAX), &good));
    }

    #[test]
    fn instances_the_inventor_cannot_serve_are_malformed() {
        // Each is rejected by arithmetic alone, before any allocation.
        let (loads, one) = ([r(1), r(2)], r(1));
        for inst in [
            instance(&[], &one, &one, 1),
            instance(&loads, &one, &one, usize::MAX),
            instance(&loads, &one, &one, usize::MAX / 8),
        ] {
            assert!(
                matches!(
                    honest_online_advice(&inst),
                    Err(OnlineAdviceError::Malformed { .. })
                ),
                "{inst:?}"
            );
        }
    }

    #[test]
    fn zero_future_agents_is_last_mover() {
        // Last mover: pure least-loaded placement, trivially an equilibrium.
        let (loads, own, future) = ([r(7), r(3), r(5)], r(2), r(0));
        let inst = instance(&loads, &own, &future, 0);
        let cert = honest_online_advice(&inst).unwrap();
        assert_eq!(cert.suggested_link, 1);
        let v = verify_online_advice(&inst, &cert).unwrap();
        assert_eq!(v.predicted_own_delay, r(5));
    }

    #[test]
    fn fractional_loads() {
        let (loads, own, future) = ([rat(1, 2), rat(3, 4)], rat(5, 4), rat(1, 3));
        let inst = instance(&loads, &own, &future, 2);
        assert!(verify_online_advice(&inst, &honest_online_advice(&inst).unwrap()).is_ok());
    }

    #[test]
    fn equilibria_other_than_lpt_also_accepted() {
        // The verifier checks the Nash property, not LPT provenance:
        // swapping two equal future loads keeps the equilibrium.
        let (loads, two) = ([r(0), r(0)], r(2));
        let inst = instance(&loads, &two, &two, 1);
        let mut cert = honest_online_advice(&inst).unwrap();
        cert.assignment.swap(0, 1);
        cert.suggested_link = cert.assignment[0];
        assert!(verify_online_advice(&inst, &cert).is_ok());
    }
}
