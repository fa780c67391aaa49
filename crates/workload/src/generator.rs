//! The open-loop transaction generator: arrivals x keys x shape.
//!
//! [`OpenLoopPlan`] fuses the three sampled dimensions into one
//! reproducible schedule: *when* each transaction arrives (Poisson,
//! [`crate::arrival`]), *what* it touches (zipfian keys,
//! [`crate::keyspace`]), and *where* it runs (how many partitions, and
//! which). The output is pure data — a sorted `Vec<PlannedTxn>` — so
//! the same plan can drive the reactor at one shard or N,
//! a socket cluster, or a closed-form model, and two backends fed
//! the same plan are comparable point by point.

use crate::arrival::OpenLoopArrivals;
use crate::keyspace::ZipfKeyspace;
use acp_types::SiteId;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// How many partitions a transaction spans and how many keys it
/// touches on each.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TxnShape {
    /// Minimum participant partitions.
    pub min_partitions: usize,
    /// Maximum participant partitions (inclusive).
    pub max_partitions: usize,
    /// Keys written per participant partition.
    pub keys_per_partition: usize,
}

impl Default for TxnShape {
    fn default() -> Self {
        TxnShape {
            min_partitions: 2,
            max_partitions: 3,
            keys_per_partition: 2,
        }
    }
}

/// One planned open-loop transaction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlannedTxn {
    /// Arrival instant, microseconds from run start.
    pub arrival_us: u64,
    /// Participant sites, sorted and distinct.
    pub participants: Vec<SiteId>,
    /// Keys per participant, `keys_per_partition` each, in participant
    /// order (flattened).
    pub keys: Vec<String>,
    /// Per-transaction identity: seeds the retry policy's jitter.
    pub salt: u64,
}

/// A full open-loop workload configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OpenLoopPlan {
    /// Arrival process (offered rate, count, seed).
    pub arrivals: OpenLoopArrivals,
    /// Key population size.
    pub key_population: u64,
    /// Zipfian skew exponent (0 = uniform).
    pub key_skew: f64,
    /// Transaction shape.
    pub shape: TxnShape,
}

impl OpenLoopPlan {
    /// Generate the planned transactions over a pool of participant
    /// sites, sorted by arrival time.
    ///
    /// # Panics
    /// If the shape asks for more partitions than `sites` offers, or
    /// for zero partitions or keys.
    #[must_use]
    pub fn generate(&self, sites: &[SiteId]) -> Vec<PlannedTxn> {
        assert!(self.shape.min_partitions >= 1, "need at least 1 partition");
        assert!(self.shape.keys_per_partition >= 1, "need at least 1 key");
        assert!(self.shape.max_partitions >= self.shape.min_partitions);
        assert!(
            self.shape.max_partitions <= sites.len(),
            "shape spans {} partitions but only {} sites exist",
            self.shape.max_partitions,
            sites.len()
        );
        let schedule = self.arrivals.schedule_us();
        // Shapes and keys come from an rng derived from — but distinct
        // from — the arrival seed, so changing the offered rate does
        // not reshuffle which keys each transaction touches.
        let mut rng = StdRng::seed_from_u64(self.arrivals.seed ^ 0x6b65_7973);
        let keyspace = ZipfKeyspace::new(self.key_population, self.key_skew);
        let mut out = Vec::with_capacity(schedule.len());
        for (i, arrival_us) in schedule.into_iter().enumerate() {
            let n = rng.random_range(self.shape.min_partitions..=self.shape.max_partitions);
            let mut pool = sites.to_vec();
            pool.shuffle(&mut rng);
            let mut participants: Vec<SiteId> = pool.into_iter().take(n).collect();
            participants.sort();
            let keys = (0..n * self.shape.keys_per_partition)
                .map(|_| keyspace.sample_key(&mut rng))
                .collect();
            out.push(PlannedTxn {
                arrival_us,
                participants,
                keys,
                salt: acp_core::harness::jitter_hash(self.arrivals.seed, 0x706c_616e, i as u64),
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sites(n: u32) -> Vec<SiteId> {
        (1..=n).map(SiteId::new).collect()
    }

    fn plan(rate: f64, seed: u64) -> OpenLoopPlan {
        OpenLoopPlan {
            arrivals: OpenLoopArrivals {
                rate_per_sec: rate,
                count: 200,
                seed,
            },
            key_population: 100_000,
            key_skew: 0.99,
            shape: TxnShape::default(),
        }
    }

    #[test]
    fn plans_are_sorted_sized_and_deterministic() {
        let p = plan(1000.0, 5);
        let txns = p.generate(&sites(6));
        assert_eq!(txns.len(), 200);
        assert!(txns.windows(2).all(|w| w[0].arrival_us <= w[1].arrival_us));
        for t in &txns {
            assert!((2..=3).contains(&t.participants.len()));
            assert_eq!(t.keys.len(), t.participants.len() * 2);
            let mut dedup = t.participants.clone();
            dedup.dedup();
            assert_eq!(dedup.len(), t.participants.len());
        }
        assert_eq!(txns, p.generate(&sites(6)));
    }

    #[test]
    fn rate_changes_keep_shapes_and_keys_fixed() {
        // Open-loop sweeps vary only the offered rate; the work itself
        // (shapes, keys) must stay identical across sweep cells.
        let slow = plan(500.0, 5).generate(&sites(6));
        let fast = plan(5000.0, 5).generate(&sites(6));
        for (a, b) in slow.iter().zip(&fast) {
            assert_eq!(a.participants, b.participants);
            assert_eq!(a.keys, b.keys);
            assert_eq!(a.salt, b.salt);
        }
    }

    #[test]
    fn salts_are_distinct_per_txn() {
        let txns = plan(1000.0, 8).generate(&sites(4));
        let mut salts: Vec<u64> = txns.iter().map(|t| t.salt).collect();
        salts.sort_unstable();
        salts.dedup();
        assert_eq!(salts.len(), txns.len());
    }
}
