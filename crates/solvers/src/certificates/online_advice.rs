//! §6 advice: the honest inventor's equilibrium assignment for an
//! online parallel-links instance.

use ra_proofs::{OnlineAdviceCertificate, OnlineAdviceError, OnlineInstance};

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
    use ra_exact::{rat, Rational};
    use ra_proofs::verify_online_advice;

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
