//! The sharded protocol table.
//!
//! The coordinator's volatile protocol table used to be a single
//! `BTreeMap<TxnId, TxnState>`. That is fine when one thread owns the
//! engine and drives a handful of transactions, but it is the hot-path
//! contention point the reactor runtime must remove: one coordinator
//! site drives thousands of concurrent transactions, and auxiliary
//! readers (table-size probes) must not serialize
//! against protocol progress.
//!
//! [`ShardedTable`] splits the map into independently locked shards
//! keyed by `txn.raw() % shard_count` — the same recipe as the model
//! checker's sharded seen-set, and the same recipe the multi-reactor
//! runtime uses to partition coordinator work across event loops
//! ([`shard_of`] is the single definition of that ownership map).
//! Every host builds its table with [`ShardedTable::new`], the
//! [`TABLE_SHARDS`] spread; [`ShardedTable::with_shards`] is for tests.
//! Each shard is a `Mutex<BTreeMap<..>>`; a cached atomic length makes
//! the size probe lock-free.
//! All access is closure-scoped ([`ShardedTable::with`] /
//! [`ShardedTable::with_mut`]) so a shard lock can never be held across
//! a call back into the engine — the discipline that keeps the engine
//! deadlock-free no matter which host drives it.
//!
//! Iteration order is deterministic — shard 0..N in index order, each
//! shard's `BTreeMap` in key order — a pure function of the table's
//! *content*, which is all the model checker's fingerprints require.

use acp_types::TxnId;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Default number of shards. Matches the checker's seen-set sharding;
/// plenty of spread for thousands of in-flight transactions while
/// keeping the all-shards walk (fingerprints, snapshots) cheap.
pub const TABLE_SHARDS: usize = 64;

/// The shard owning `txn` when work is split `n_shards` ways:
/// `txn.raw() % n_shards`. This is THE ownership map — the table's
/// internal sharding, the multi-reactor's coordinator partitioner and
/// the E14 report all call this one function, so "which shard owns
/// transaction t" has a single answer everywhere.
#[must_use]
pub fn shard_of(txn: TxnId, n_shards: usize) -> usize {
    debug_assert!(n_shards > 0, "shard_of with zero shards");
    (txn.raw() % n_shards.max(1) as u64) as usize
}

/// A map from [`TxnId`] to `V`, split across independently locked
/// shards. See the module docs.
pub struct ShardedTable<V> {
    shards: Vec<Mutex<BTreeMap<TxnId, V>>>,
    len: AtomicUsize,
}

impl<V> Default for ShardedTable<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> ShardedTable<V> {
    /// An empty table with the default [`TABLE_SHARDS`] spread.
    #[must_use]
    pub fn new() -> Self {
        Self::with_shards(TABLE_SHARDS)
    }

    /// An empty table with an explicit shard count (≥ 1). The
    /// multi-reactor runtime sizes per-slice tables to its reactor
    /// count so table ownership and reactor ownership coincide.
    #[must_use]
    pub fn with_shards(n_shards: usize) -> Self {
        let n = n_shards.max(1);
        ShardedTable {
            shards: (0..n).map(|_| Mutex::new(BTreeMap::new())).collect(),
            len: AtomicUsize::new(0),
        }
    }

    /// Number of shards the table spreads across.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard index owning `txn` in this table.
    #[must_use]
    pub fn shard_of(&self, txn: TxnId) -> usize {
        shard_of(txn, self.shards.len())
    }

    fn shard(&self, txn: TxnId) -> &Mutex<BTreeMap<TxnId, V>> {
        &self.shards[self.shard_of(txn)]
    }

    fn lock(m: &Mutex<BTreeMap<TxnId, V>>) -> std::sync::MutexGuard<'_, BTreeMap<TxnId, V>> {
        // A panic mid-closure poisons the shard; the map itself is still
        // structurally sound (BTreeMap mutations are not interrupted by
        // unwinding observers), so recover the guard rather than
        // cascading the panic into every later accessor.
        m.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Insert, returning the previous value if one existed.
    pub fn insert(&self, txn: TxnId, value: V) -> Option<V> {
        let prev = Self::lock(self.shard(txn)).insert(txn, value);
        if prev.is_none() {
            self.len.fetch_add(1, Ordering::Relaxed);
        }
        prev
    }

    /// Remove and return the entry.
    pub fn remove(&self, txn: TxnId) -> Option<V> {
        let prev = Self::lock(self.shard(txn)).remove(&txn);
        if prev.is_some() {
            self.len.fetch_sub(1, Ordering::Relaxed);
        }
        prev
    }

    /// Is `txn` present?
    #[must_use]
    pub fn contains(&self, txn: TxnId) -> bool {
        Self::lock(self.shard(txn)).contains_key(&txn)
    }

    /// Number of entries (lock-free read of a cached counter).
    #[must_use]
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Is the table empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every entry.
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut m = Self::lock(shard);
            self.len.fetch_sub(m.len(), Ordering::Relaxed);
            m.clear();
        }
    }

    /// Run `f` over the entry for `txn` (or `None`), holding only that
    /// shard's lock. `f` must not call back into the table.
    pub fn with<R>(&self, txn: TxnId, f: impl FnOnce(Option<&V>) -> R) -> R {
        f(Self::lock(self.shard(txn)).get(&txn))
    }

    /// Like [`ShardedTable::with`] with mutable access.
    pub fn with_mut<R>(&self, txn: TxnId, f: impl FnOnce(Option<&mut V>) -> R) -> R {
        f(Self::lock(self.shard(txn)).get_mut(&txn))
    }

    /// Visit every entry in deterministic (shard, key) order, one shard
    /// lock at a time. `f` must not call back into the table.
    pub fn for_each(&self, mut f: impl FnMut(TxnId, &V)) {
        for shard in &self.shards {
            for (txn, v) in Self::lock(shard).iter() {
                f(*txn, v);
            }
        }
    }

    /// First key whose entry satisfies `pred`, in deterministic
    /// iteration order.
    pub fn find(&self, mut pred: impl FnMut(TxnId, &V) -> bool) -> Option<TxnId> {
        for shard in &self.shards {
            for (txn, v) in Self::lock(shard).iter() {
                if pred(*txn, v) {
                    return Some(*txn);
                }
            }
        }
        None
    }

    /// All keys, globally sorted (not shard order — callers expect the
    /// unsharded map's presentation).
    #[must_use]
    pub fn keys_sorted(&self) -> Vec<TxnId> {
        let mut keys = Vec::with_capacity(self.len());
        for shard in &self.shards {
            keys.extend(Self::lock(shard).keys().copied());
        }
        keys.sort_unstable();
        keys
    }
}

impl<V: Clone> Clone for ShardedTable<V> {
    fn clone(&self) -> Self {
        let table = ShardedTable::with_shards(self.shards.len());
        for shard in &self.shards {
            for (txn, v) in Self::lock(shard).iter() {
                table.insert(*txn, v.clone());
            }
        }
        table
    }
}

impl<V: std::fmt::Debug> std::fmt::Debug for ShardedTable<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut m = f.debug_map();
        for shard in &self.shards {
            for (txn, v) in Self::lock(shard).iter() {
                m.entry(txn, v);
            }
        }
        m.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn basic_map_semantics() {
        let t: ShardedTable<u64> = ShardedTable::new();
        assert!(t.is_empty());
        assert_eq!(t.insert(TxnId::new(1), 10), None);
        assert_eq!(t.insert(TxnId::new(65), 20), None); // same shard as 1
        assert_eq!(t.insert(TxnId::new(1), 11), Some(10));
        assert_eq!(t.len(), 2);
        assert!(t.contains(TxnId::new(65)));
        assert_eq!(t.with(TxnId::new(1), |v| v.copied()), Some(11));
        t.with_mut(TxnId::new(1), |v| *v.unwrap() += 1);
        assert_eq!(t.remove(TxnId::new(1)), Some(12));
        assert_eq!(t.remove(TxnId::new(1)), None);
        assert_eq!(t.len(), 1);
        t.clear();
        assert!(t.is_empty());
    }

    #[test]
    fn iteration_is_deterministic_shard_then_key_order() {
        let t: ShardedTable<u64> = ShardedTable::new();
        for raw in [130u64, 2, 66, 1, 65] {
            t.insert(TxnId::new(raw), raw);
        }
        let mut seen = Vec::new();
        t.for_each(|txn, _| seen.push(txn.raw()));
        // Shard 1 holds {1, 65}, shard 2 holds {2, 66, 130}; within a
        // shard the BTreeMap yields ascending keys.
        assert_eq!(seen, vec![1, 65, 2, 66, 130]);
        assert_eq!(
            t.keys_sorted().iter().map(|t| t.raw()).collect::<Vec<_>>(),
            vec![1, 2, 65, 66, 130]
        );
    }

    #[test]
    fn clone_preserves_content_and_len() {
        let t: ShardedTable<String> = ShardedTable::new();
        for raw in 0..100 {
            t.insert(TxnId::new(raw), format!("v{raw}"));
        }
        let c = t.clone();
        assert_eq!(c.len(), 100);
        assert_eq!(format!("{t:?}"), format!("{c:?}"));
    }

    /// Satellite: the shard count is a config knob, not a constant, and
    /// ownership is the one public `shard_of` map at every count.
    #[test]
    fn configurable_shard_count_preserves_semantics() {
        for n in [1usize, 2, 3, 64] {
            let t: ShardedTable<u64> = ShardedTable::with_shards(n);
            assert_eq!(t.shard_count(), n);
            for raw in 0..50u64 {
                t.insert(TxnId::new(raw), raw * 2);
            }
            assert_eq!(t.len(), 50);
            for raw in 0..50u64 {
                let txn = TxnId::new(raw);
                assert_eq!(t.shard_of(txn), shard_of(txn, n));
                assert_eq!(t.with(txn, |v| v.copied()), Some(raw * 2));
            }
            // keys_sorted is shard-count independent.
            assert_eq!(t.keys_sorted().len(), 50);
            let sorted: Vec<u64> = t.keys_sorted().iter().map(|t| t.raw()).collect();
            assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        }
    }

    /// The cached length is exact across inserts, removes and clear.
    #[test]
    fn len_tracks_inserts_and_removes() {
        let t: ShardedTable<u64> = ShardedTable::with_shards(4);
        for raw in 0..16u64 {
            t.insert(TxnId::new(raw), raw);
        }
        assert_eq!(t.len(), 16);
        // A re-insert replaces; it does not count twice.
        assert_eq!(t.insert(TxnId::new(0), 0), Some(0));
        assert_eq!(t.len(), 16);
        // Remove everything owned by shard 2.
        for raw in (0..16u64).filter(|r| shard_of(TxnId::new(*r), 4) == 2) {
            t.remove(TxnId::new(raw));
        }
        assert_eq!(t.len(), 12);
        assert_eq!(t.remove(TxnId::new(2)), None, "a second remove is a no-op");
        assert_eq!(t.len(), 12);
        t.clear();
        assert_eq!(t.len(), 0);
    }

    /// The satellite's concurrent-access stress test: writer threads
    /// hammer disjoint key ranges while readers sweep the whole table;
    /// the final content and the cached lengths must both be exact.
    #[test]
    fn concurrent_access_stress() {
        let t: Arc<ShardedTable<u64>> = Arc::new(ShardedTable::new());
        const WRITERS: u64 = 8;
        const PER_WRITER: u64 = 500;

        let mut handles = Vec::new();
        for w in 0..WRITERS {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                for i in 0..PER_WRITER {
                    let txn = TxnId::new(w * 10_000 + i);
                    t.insert(txn, 0);
                    for _ in 0..4 {
                        t.with_mut(txn, |v| *v.unwrap() += 1);
                    }
                    // Every other entry is removed again, exercising the
                    // len counter in both directions under contention.
                    if i % 2 == 0 {
                        assert_eq!(t.remove(txn), Some(4));
                    }
                }
            }));
        }
        // Concurrent readers: sweeps must never observe torn state and
        // never deadlock against the writers.
        for _ in 0..2 {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                for _ in 0..200 {
                    let mut n = 0usize;
                    t.for_each(|_, v| {
                        assert!(*v <= 4);
                        n += 1;
                    });
                    assert!(n <= (WRITERS * PER_WRITER) as usize);
                }
            }));
        }
        for h in handles {
            h.join().expect("stress thread");
        }

        let expected = (WRITERS * PER_WRITER / 2) as usize;
        assert_eq!(t.len(), expected);
        let mut n = 0usize;
        t.for_each(|txn, v| {
            assert_eq!(*v, 4, "entry {txn} saw a lost update");
            n += 1;
        });
        assert_eq!(n, expected, "cached len disagrees with a full walk");
    }
}
