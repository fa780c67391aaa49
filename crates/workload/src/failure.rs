//! Failure plans: rate-based crash scheduling.

use acp_sim::{FailureSchedule, SimTime};
use acp_types::SiteId;
use rand::rngs::StdRng;

/// A rate-based description of failures over a run.
#[derive(Clone, Copy, Debug)]
pub struct FailurePlan {
    /// Expected crashes per simulated second, across all sites.
    pub crashes_per_second: f64,
    /// Maximum outage length.
    pub max_outage: SimTime,
}

impl FailurePlan {
    /// No failures.
    #[must_use]
    pub fn none() -> Self {
        FailurePlan {
            crashes_per_second: 0.0,
            max_outage: SimTime::from_millis(1),
        }
    }

    /// Materialize into a schedule over `sites` for a run of length
    /// `horizon`.
    pub fn schedule(
        &self,
        rng: &mut StdRng,
        sites: &[SiteId],
        horizon: SimTime,
    ) -> FailureSchedule {
        let seconds = horizon.as_micros() as f64 / 1_000_000.0;
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let count = (self.crashes_per_second * seconds).round() as usize;
        if count == 0 {
            return FailureSchedule::none();
        }
        FailureSchedule::random(rng, sites, horizon, count, self.max_outage)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn none_produces_no_outages() {
        let mut rng = StdRng::seed_from_u64(1);
        let sites = [SiteId::new(0), SiteId::new(1)];
        let s = FailurePlan::none().schedule(&mut rng, &sites, SimTime::from_millis(500));
        assert!(s.outages.is_empty());
    }

    #[test]
    fn rate_scales_with_horizon() {
        let mut rng = StdRng::seed_from_u64(2);
        let sites = [SiteId::new(0), SiteId::new(1), SiteId::new(2)];
        let plan = FailurePlan {
            crashes_per_second: 10.0,
            max_outage: SimTime::from_millis(5),
        };
        let short = plan.schedule(&mut rng, &sites, SimTime::from_millis(100));
        let long = plan.schedule(&mut rng, &sites, SimTime::from_millis(1000));
        assert_eq!(short.outages.len(), 1);
        assert_eq!(long.outages.len(), 10);
    }
}
