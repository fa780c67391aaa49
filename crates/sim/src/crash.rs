//! Failure schedules: pre-planned crash/recover sequences for
//! randomized campaigns.
//!
//! ## Overlap semantics
//!
//! A schedule may contain any number of outages per site, including
//! back-to-back and overlapping ones (a "double crash": the site fails
//! again while it is still down or the instant it comes back). The
//! defined meaning is the **union**: a site is down at time `t` iff `t`
//! falls inside at least one of its `[crash_at, recover_at)` intervals.
//! [`FailureSchedule::apply`] enforces this by merging each site's
//! overlapping or adjacent intervals before scheduling, so the world
//! never sees a recovery event that lands inside a later outage (which
//! would otherwise resurrect the site mid-outage — the bug this
//! normalization exists to prevent).
//!
//! A second crash strictly *after* a recovery, however close, is kept as
//! a distinct outage: the site runs its recovery procedure, may get
//! partway through re-resolving in-doubt transactions, and crashes
//! again. That is the crash-during-recovery schedule the double-crash
//! sweeps in `tests/double_crash.rs` exercise; recovery must be
//! idempotent under it.

use crate::process::Process;
use crate::time::SimTime;
use crate::world::World;
use acp_types::SiteId;
use rand::rngs::StdRng;
use rand::Rng;

/// One planned outage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Outage {
    /// The site that fails.
    pub site: SiteId,
    /// When it crashes.
    pub crash_at: SimTime,
    /// When it recovers (the paper assumes every failed site
    /// "will, eventually, recover").
    pub recover_at: SimTime,
}

/// A set of planned outages to apply to a world.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FailureSchedule {
    /// The outages, in no particular order.
    pub outages: Vec<Outage>,
}

impl FailureSchedule {
    /// No failures.
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// A single outage.
    #[must_use]
    pub fn single(site: SiteId, crash_at: SimTime, recover_at: SimTime) -> Self {
        assert!(recover_at > crash_at, "recovery must follow the crash");
        FailureSchedule {
            outages: vec![Outage {
                site,
                crash_at,
                recover_at,
            }],
        }
    }

    /// Add an outage. Outages of the same site may overlap or touch;
    /// see the module docs for the union semantics this implies.
    pub fn push(&mut self, site: SiteId, crash_at: SimTime, recover_at: SimTime) {
        assert!(recover_at > crash_at, "recovery must follow the crash");
        self.outages.push(Outage {
            site,
            crash_at,
            recover_at,
        });
    }

    /// A crash-during-recovery schedule: the site crashes, recovers at
    /// `first_recover`, gets `redo_window` of virtual time to re-run its
    /// recovery procedure, then crashes again for `second_outage`.
    ///
    /// With `redo_window` zero the two outages touch and merge into one
    /// (the recovery at the boundary never runs); any positive window
    /// interrupts an in-progress recovery, which must be idempotent.
    #[must_use]
    pub fn double_crash(
        site: SiteId,
        crash_at: SimTime,
        first_recover: SimTime,
        redo_window: SimTime,
        second_outage: SimTime,
    ) -> Self {
        assert!(
            second_outage > SimTime::ZERO,
            "second outage must be nonempty"
        );
        let mut s = Self::single(site, crash_at, first_recover);
        let second_crash = first_recover + redo_window;
        s.push(site, second_crash, second_crash + second_outage);
        s
    }

    /// Each site's down intervals under the union semantics: overlapping
    /// or adjacent outages merged, sorted by crash time. This is exactly
    /// what [`FailureSchedule::apply`] schedules.
    #[must_use]
    pub fn merged(&self) -> Vec<Outage> {
        let mut sorted = self.outages.clone();
        sorted.sort_by_key(|o| (o.site, o.crash_at, o.recover_at));
        let mut out: Vec<Outage> = Vec::with_capacity(sorted.len());
        for o in sorted {
            match out.last_mut() {
                Some(prev) if prev.site == o.site && o.crash_at <= prev.recover_at => {
                    prev.recover_at = prev.recover_at.max(o.recover_at);
                }
                _ => out.push(o),
            }
        }
        out
    }

    /// Is `site` down at time `t` under this schedule (union semantics)?
    #[must_use]
    pub fn is_down_at(&self, site: SiteId, t: SimTime) -> bool {
        self.outages
            .iter()
            .any(|o| o.site == site && o.crash_at <= t && t < o.recover_at)
    }

    /// Generate `count` random outages across `sites` within
    /// `[0, horizon)`, each lasting at most `max_outage`.
    #[must_use]
    pub fn random(
        rng: &mut StdRng,
        sites: &[SiteId],
        horizon: SimTime,
        count: usize,
        max_outage: SimTime,
    ) -> Self {
        assert!(!sites.is_empty(), "need at least one site");
        assert!(horizon > SimTime::ZERO && max_outage > SimTime::ZERO);
        let mut schedule = FailureSchedule::none();
        for _ in 0..count {
            let site = sites[rng.random_range(0..sites.len())];
            let crash_at = SimTime::from_micros(rng.random_range(0..horizon.as_micros()));
            let outage = SimTime::from_micros(rng.random_range(1..=max_outage.as_micros()));
            schedule.push(site, crash_at, crash_at + outage);
        }
        schedule
    }

    /// Enqueue every outage in a world, after merging overlapping and
    /// adjacent same-site outages (union semantics — see module docs).
    pub fn apply<P: Process>(&self, world: &mut World<P>) {
        for o in self.merged() {
            world.schedule_crash(o.site, o.crash_at);
            world.schedule_recover(o.site, o.recover_at);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn random_schedules_are_reproducible_and_bounded() {
        let sites = [SiteId::new(0), SiteId::new(1), SiteId::new(2)];
        let horizon = SimTime::from_millis(100);
        let max_outage = SimTime::from_millis(10);
        let make = || {
            let mut rng = StdRng::seed_from_u64(5);
            FailureSchedule::random(&mut rng, &sites, horizon, 20, max_outage)
        };
        let a = make();
        assert_eq!(a, make());
        assert_eq!(a.outages.len(), 20);
        for o in &a.outages {
            assert!(o.crash_at < horizon);
            assert!(o.recover_at > o.crash_at);
            assert!(o.recover_at - o.crash_at <= max_outage);
            assert!(sites.contains(&o.site));
        }
    }

    #[test]
    #[should_panic(expected = "recovery must follow the crash")]
    fn rejects_backwards_outage() {
        let _ = FailureSchedule::single(SiteId::new(0), SimTime(10), SimTime(10));
    }

    #[test]
    fn overlapping_same_site_outages_merge_to_union() {
        let s = SiteId::new(3);
        let mut sched = FailureSchedule::single(s, SimTime(10), SimTime(30));
        // Second crash lands while the site is still down.
        sched.push(s, SimTime(20), SimTime(50));
        let merged = sched.merged();
        assert_eq!(
            merged,
            vec![Outage {
                site: s,
                crash_at: SimTime(10),
                recover_at: SimTime(50),
            }]
        );
        for (t, down) in [(9, false), (10, true), (35, true), (49, true), (50, false)] {
            assert_eq!(sched.is_down_at(s, SimTime(t)), down, "t={t}");
        }
    }

    #[test]
    fn back_to_back_outages_fuse_at_the_boundary() {
        let s = SiteId::new(1);
        let mut sched = FailureSchedule::single(s, SimTime(10), SimTime(20));
        sched.push(s, SimTime(20), SimTime(40));
        assert_eq!(sched.merged().len(), 1);
        assert_eq!(sched.merged()[0].recover_at, SimTime(40));
    }

    #[test]
    fn disjoint_outages_and_other_sites_stay_separate() {
        let a = SiteId::new(0);
        let b = SiteId::new(1);
        let mut sched = FailureSchedule::single(a, SimTime(10), SimTime(20));
        sched.push(a, SimTime(25), SimTime(30)); // crash during recovery window
        sched.push(b, SimTime(12), SimTime(28)); // overlaps in time, not site
        let merged = sched.merged();
        assert_eq!(merged.len(), 3);
        assert!(!sched.is_down_at(a, SimTime(22)));
        assert!(sched.is_down_at(a, SimTime(27)));
        assert!(sched.is_down_at(b, SimTime(22)));
    }

    #[test]
    fn double_crash_constructor_shapes() {
        let s = SiteId::new(2);
        // Positive redo window: two distinct outages.
        let sched =
            FailureSchedule::double_crash(s, SimTime(100), SimTime(200), SimTime(50), SimTime(80));
        assert_eq!(
            sched.merged(),
            vec![
                Outage {
                    site: s,
                    crash_at: SimTime(100),
                    recover_at: SimTime(200)
                },
                Outage {
                    site: s,
                    crash_at: SimTime(250),
                    recover_at: SimTime(330)
                },
            ]
        );
        // Zero redo window: the boundary recovery never happens.
        let sched = FailureSchedule::double_crash(
            s,
            SimTime(100),
            SimTime(200),
            SimTime::ZERO,
            SimTime(80),
        );
        assert_eq!(
            sched.merged(),
            vec![Outage {
                site: s,
                crash_at: SimTime(100),
                recover_at: SimTime(280)
            }]
        );
    }

    #[test]
    fn world_down_status_matches_union_for_overlapping_outages() {
        use crate::network::NetworkConfig;
        use crate::process::Context;
        use acp_types::Message;

        struct Idle;
        impl Process for Idle {
            fn on_message(&mut self, _m: &Message, _ctx: &mut Context) {}
        }

        let s = SiteId::new(0);
        let mut sched = FailureSchedule::single(s, SimTime(10), SimTime(30));
        sched.push(s, SimTime(20), SimTime(50)); // overlap: union is [10, 50)
        let mut w = World::new(NetworkConfig::reliable(SimTime(1)), 0);
        w.add(s, Idle);
        sched.apply(&mut w);

        // Without normalization the recovery at 30 would resurrect the
        // site inside the second outage.
        w.run_until(SimTime(35));
        assert!(
            !w.is_up(s),
            "site must still be down at t=35 (union of outages)"
        );
        w.run_until(SimTime(60));
        assert!(w.is_up(s));
    }
}
