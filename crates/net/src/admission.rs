//! Admission control: refuse work at the door instead of collapsing
//! under it.
//!
//! The engines run no-wait 2PL, so contention does not queue — it
//! aborts. Past the saturation knee an open-loop generator therefore
//! turns extra offered load directly into abort/retry storms: every
//! admitted transaction grabs locks, collides, forces an abort record
//! and retries, and *goodput falls as offered load rises*. The repair
//! is classic: bound the in-flight population near the knee and shed
//! the excess at the door, before it costs any forces, messages or
//! lock footprint. Shed-vs-queue is deliberate — queuing an open-loop
//! arrival stream past saturation only moves the collapse into the
//! queue (latency grows without bound while goodput still falls);
//! shedding keeps the admitted population at the goodput-maximizing
//! level and pushes the excess back to the generator's retry policy,
//! which is the component with enough context to back off.
//!
//! An [`AdmissionController`] is a pure predicate over one observable
//! load signal — the cluster-wide
//! [`InflightGauge`](crate::reactor::InflightGauge) reading — so the
//! same controller drives the reactor, the multi-reactor shards, and
//! the deterministic overload model the figure pipeline replays. A refusal is always *counted*
//! (`ReactorStats::admission_sheds`, the `admission_shed` grid counter
//! and an [`AdmissionShed`](acp_obs::ProtocolEvent::AdmissionShed)
//! trace event) and *observable* by the client: the reply channel is
//! dropped, so the generator's `recv` fails fast and the rejection
//! feeds its retry policy rather than vanishing.

/// Bounds for an [`AdmissionController`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Admit a new transaction only while fewer than this many client
    /// commits are in flight cluster-wide. This is the knob that turns
    /// the overload cliff into a plateau: set it near the knee of the
    /// goodput curve.
    pub max_inflight: u64,
}

impl AdmissionConfig {
    /// Bound the in-flight population.
    #[must_use]
    pub fn bounded(max_inflight: u64) -> AdmissionConfig {
        AdmissionConfig { max_inflight }
    }
}

/// The admission predicate. Pure and stateless: counting sheds is the
/// host's job (the controller cannot know whether the caller acted on
/// its verdict), which is also what keeps it reusable inside the
/// deterministic overload model of the figure pipeline.
#[derive(Clone, Copy, Debug)]
pub struct AdmissionController {
    config: AdmissionConfig,
}

impl AdmissionController {
    /// A controller enforcing `config`.
    #[must_use]
    pub fn new(config: AdmissionConfig) -> AdmissionController {
        AdmissionController { config }
    }

    /// The bounds being enforced.
    #[must_use]
    pub fn config(&self) -> AdmissionConfig {
        self.config
    }

    /// Should a new transaction be admitted given `inflight` commits
    /// outstanding?
    #[must_use]
    pub fn admit(&self, inflight: u64) -> bool {
        inflight < self.config.max_inflight
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admits_below_the_bound_only() {
        let c = AdmissionController::new(AdmissionConfig::bounded(4));
        assert!(c.admit(0));
        assert!(c.admit(3));
        assert!(!c.admit(4), "in-flight at the bound is refused");
        assert!(!c.admit(7));
    }

    #[test]
    fn an_idle_cluster_always_admits() {
        // The byte-identity guarantee: a single clean transaction sees
        // zero in-flight, so any bound >= 1 admits it and the trace is
        // untouched.
        for limit in 1..10 {
            let c = AdmissionController::new(AdmissionConfig::bounded(limit));
            assert!(c.admit(0));
        }
    }
}
