//! The seeded plan of one epoch: which keys each transaction writes,
//! when it is due, who votes No and which pairs collide; and, from the
//! workload alone, the transaction count, when which site crashes and
//! where the slices begin. A pure function of `(workload, seed, epoch)`.

use crate::spec::{Faults, Load, Slicing, Workload, KEY_POPULATION};
use acp_types::Outcome;
use acp_workload::{OpenLoopArrivals, ZipfKeyspace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::time::Duration;

/// Participants per transaction: sites 1, 2, 3 (PrN, PrA, PrC).
pub const PARTICIPANTS: usize = 3;

/// One planned transaction.
#[derive(Clone, Debug)]
pub struct PlannedTxn {
    /// When it is due, from the start of its phase (zero in a closed
    /// loop, where the previous burst's replies set the pace).
    pub due: Duration,
    /// The key written at each participant.
    pub keys: [Vec<u8>; PARTICIPANTS],
    /// The value written under every key (identifies the transaction).
    pub value: Vec<u8>,
    /// This participant is told to vote No.
    pub no_vote_at: Option<usize>,
    /// This transaction's key at that participant is the hot key its
    /// predecessor holds; it is staged together with the predecessor,
    /// loses the no-wait lock, and so votes No there.
    pub collides_at: Option<usize>,
}

impl PlannedTxn {
    /// The only outcome the plan allows when no crash interferes.
    pub fn expected(&self) -> Outcome {
        if self.no_vote_at.is_some() || self.collides_at.is_some() {
            Outcome::Abort
        } else {
            Outcome::Commit
        }
    }
}

/// A planned crash: `site` goes down `at` after the measured phase
/// starts.
#[derive(Clone, Copy, Debug)]
pub struct PlannedCrash {
    pub at: Duration,
    pub site: u32,
}

/// Everything one epoch executes.
#[derive(Clone, Debug)]
pub struct Plan {
    pub warmup: Vec<PlannedTxn>,
    pub measured: Vec<PlannedTxn>,
    pub crashes: Vec<PlannedCrash>,
    /// Where the slices of the measured phase begin and end: indices
    /// into `measured`, ascending. Cut by time, what is left after the
    /// last whole slice is in none.
    pub slice_bounds: Vec<usize>,
}

/// SplitMix64 step: derives the per-epoch seed so epochs of one run
/// differ while the run stays a function of its `--seed`.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

struct Keys {
    space: ZipfKeyspace,
    rng: StdRng,
    used: HashSet<Vec<u8>>,
}

impl Keys {
    /// A key nothing else in this epoch writes.
    fn fresh(&mut self) -> Vec<u8> {
        loop {
            let key = self.space.sample_key(&mut self.rng).into_bytes();
            if self.used.insert(key.clone()) {
                return key;
            }
        }
    }
}

fn phase(load: Load, count: usize, seed: u64, keys: &mut Keys, tag: &str) -> Vec<PlannedTxn> {
    let dues: Vec<Duration> = match load {
        Load::ClosedBurst { .. } => vec![Duration::ZERO; count],
        Load::Open { rate } => OpenLoopArrivals {
            rate_per_sec: rate,
            count,
            seed,
        }
        .schedule_us()
        .into_iter()
        .map(Duration::from_micros)
        .collect(),
    };
    dues.into_iter()
        .enumerate()
        .map(|(i, due)| PlannedTxn {
            due,
            keys: std::array::from_fn(|_| keys.fresh()),
            value: format!("{tag}{i}").into_bytes(),
            no_vote_at: None,
            collides_at: None,
        })
        .collect()
}

fn inject(faults: &Faults, measured: &mut [PlannedTxn], rng: &mut StdRng) -> Vec<PlannedCrash> {
    let every = faults.every;
    let no_vote_class = rng.random_range(0..every);
    let collide_class = (no_vote_class + every / 2) % every;
    let site_turn = rng.random_range(0..PARTICIPANTS);
    for i in 0..measured.len() {
        let site = (i / every + site_turn) % PARTICIPANTS;
        if i % every == no_vote_class {
            measured[i].no_vote_at = Some(site);
        } else if i % every == collide_class && i > 0 {
            // Hot keys are taken in turn, so the same one comes round
            // only every `hot_keys * every` transactions: long after
            // its previous holder has resolved, crash or no crash.
            let hot = format!("hot-{:02}", (i / every) % faults.hot_keys).into_bytes();
            measured[i - 1].keys[site] = hot.clone();
            measured[i].keys[site] = hot;
            measured[i].collides_at = Some(site);
        }
    }
    // Not seeded, so that the k-th slice of every epoch holds the same
    // site's crash (`Slicing::Every`); what a crash finds in flight is
    // the arrivals' doing. None in what is left after the last whole
    // period: a site still down when the last reply is in would be
    // down at shutdown, its store unrecovered.
    let span = measured.last().map_or(Duration::ZERO, |t| t.due);
    (0u32..)
        .take_while(|&k| faults.crash_period * (k + 1) <= span)
        .map(|k| PlannedCrash {
            at: faults.crash_period * k + faults.crash_period / 2,
            // Coordinator, PrN, PrA, PrC in turn.
            site: k % 4,
        })
        .collect()
}

fn slice_bounds(slicing: Slicing, measured: &[PlannedTxn]) -> Vec<usize> {
    match slicing {
        Slicing::Txns(n) => (0..measured.len())
            .step_by(n.max(1))
            .chain([measured.len()])
            .collect(),
        Slicing::Every(period) => {
            let span = measured.last().map_or(Duration::ZERO, |t| t.due);
            (0u32..)
                .map(|k| period * k)
                .take_while(|&t| t <= span)
                .map(|t| measured.partition_point(|m| m.due < t))
                .collect()
        }
    }
}

/// Generate epoch `epoch` of a run seeded with `seed`.
pub fn generate(w: &Workload, txns: usize, warmup: usize, seed: u64, epoch: usize) -> Plan {
    let seed = mix(seed, epoch as u64);
    let mut keys = Keys {
        space: ZipfKeyspace::new(KEY_POPULATION, 0.0),
        rng: StdRng::seed_from_u64(mix(seed, 1)),
        used: HashSet::with_capacity((txns + warmup) * PARTICIPANTS),
    };
    let warm = phase(w.load, warmup, mix(seed, 2), &mut keys, "w");
    let mut measured = phase(w.load, txns, mix(seed, 3), &mut keys, "m");
    let crashes = match &w.faults {
        Some(f) => inject(f, &mut measured, &mut StdRng::seed_from_u64(mix(seed, 4))),
        None => Vec::new(),
    };
    let slice_bounds = slice_bounds(w.slicing, &measured);
    Plan {
        warmup: warm,
        measured,
        crashes,
        slice_bounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::workload;

    #[test]
    fn same_seed_same_plan_and_the_count_is_the_workloads() {
        let w = workload("reactor_faults1k").unwrap();
        let a = generate(w, w.txns, w.warmup, 7, 3);
        let b = generate(w, w.txns, w.warmup, 7, 3);
        let c = generate(w, w.txns, w.warmup, 8, 3);
        assert_eq!(a.measured.len(), w.txns);
        assert_eq!(c.measured.len(), w.txns);
        let keys = |p: &Plan| {
            p.measured
                .iter()
                .map(|t| t.keys.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(keys(&a), keys(&b));
        assert_ne!(keys(&a), keys(&c));
    }

    #[test]
    fn fault_plan_aborts_a_quarter_and_crashes_every_site() {
        let w = workload("reactor_faults1k").unwrap();
        let p = generate(w, w.txns, w.warmup, 1, 0);
        let aborts = p
            .measured
            .iter()
            .filter(|t| t.expected() == Outcome::Abort)
            .count();
        assert!((w.txns / 4 - 2..=w.txns / 4).contains(&aborts), "{aborts}");
        for site in 0..4 {
            assert!(p.crashes.iter().any(|c| c.site == site));
        }
        // One crash inside every slice, the coordinator's in the first.
        let f = w.faults.unwrap();
        assert!(p.slice_bounds.len() >= 12, "{:?}", p.slice_bounds);
        for (k, b) in p.slice_bounds.windows(2).enumerate() {
            let (from, to) = (p.measured[b[0]].due, p.measured[b[1]].due);
            let inside: Vec<_> = p
                .crashes
                .iter()
                .filter(|c| from <= c.at && c.at < to)
                .collect();
            assert_eq!(inside.len(), 1, "slice {k}");
            assert_eq!(inside[0].site, k as u32 % 4);
            assert!(to - from > f.crash_period * 9 / 10);
        }
        // A collider shares exactly its predecessor's key, nowhere else.
        for (i, t) in p.measured.iter().enumerate() {
            if let Some(s) = t.collides_at {
                assert_eq!(t.keys[s], p.measured[i - 1].keys[s]);
                assert!(p.measured[i - 1].expected() == Outcome::Commit);
            }
        }
    }
}
