//! §6 certificates: verifiable link advice for online parallel-link games.
//!
//! The inventor observes the current link loads (published, signed — see
//! `ra-authority::audit`), knows the arriving agent's load and how many
//! agents are still expected, and computes a Nash-equilibrium assignment of
//! the agent's load plus the expected future loads (`ra-solvers`). The
//! advice is "take the link your load got in that assignment", and the
//! *proof* is the assignment itself: the agent verifies its Nash property
//! locally — no trust in the inventor's computation needed.
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
    pub fn load(&self, index: usize) -> &Rational {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn r(v: i64) -> Rational {
        Rational::from(v)
    }

    #[test]
    fn non_equilibrium_assignment_rejected() {
        // Force the agent's load onto the heavily loaded link.
        let (loads, own, future) = ([r(10), r(0)], r(2), r(0));
        let instance = OnlineInstance {
            current_loads: &loads,
            own_load: &own,
            expected_future_load: &future,
            expected_future_agents: 0,
        };
        let cert = OnlineAdviceCertificate {
            assignment: vec![0],
            suggested_link: 0,
        };
        assert_eq!(
            verify_online_advice(&instance, &cert),
            Err(OnlineAdviceError::NotEquilibrium {
                load_index: 0,
                better_link: 1
            })
        );
    }
}
