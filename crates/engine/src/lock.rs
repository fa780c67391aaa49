//! No-wait strict two-phase locking.
//!
//! Locks are acquired at access time and held until the transaction
//! terminates (strictness — required so that a prepared transaction's
//! effects stay invisible while it is in doubt, which is exactly the
//! blocking behaviour 2PC is infamous for). Conflicting requests fail
//! immediately instead of queueing: no waiting ⇒ no deadlocks, at the
//! cost of aborts under contention.

use crate::error::EngineError;
use acp_types::TxnId;
use std::collections::HashMap;

/// Lock modes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LockMode {
    /// Shared (read) — compatible with other shared locks.
    Shared,
    /// Exclusive (write) — compatible with nothing.
    Exclusive,
}

/// Who holds a key. An exclusive lock's one holder and a shared lock's
/// first are kept inline; only a shared lock's further readers need a
/// list, so a key one transaction reads allocates nothing.
#[derive(Clone, Debug)]
enum LockState {
    Exclusive(TxnId),
    Shared(TxnId, Vec<TxnId>),
}

impl LockState {
    fn held_by(&self, txn: TxnId) -> bool {
        match self {
            LockState::Exclusive(holder) => *holder == txn,
            LockState::Shared(first, others) => *first == txn || others.contains(&txn),
        }
    }
}

/// A per-site lock table.
#[derive(Clone, Debug, Default)]
pub struct LockTable {
    /// Nothing iterates the table, and a hash map keeps its capacity as
    /// keys are locked and freed.
    locks: HashMap<Vec<u8>, LockState>,
    /// Buffers of freed keys, for the next new lock to refill. It never
    /// holds more than the peak number of locked keys, which the host's
    /// admission bounds.
    spare_keys: Vec<Vec<u8>>,
}

impl LockTable {
    /// An empty lock table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Acquire (or upgrade) a lock. Idempotent for locks already held in
    /// a sufficient mode. Fails immediately on conflict.
    pub fn acquire(&mut self, txn: TxnId, key: &[u8], mode: LockMode) -> Result<(), EngineError> {
        let Some(state) = self.locks.get_mut(key) else {
            let state = match mode {
                LockMode::Exclusive => LockState::Exclusive(txn),
                LockMode::Shared => LockState::Shared(txn, Vec::new()),
            };
            let mut owned = self.spare_keys.pop().unwrap_or_default();
            owned.clear();
            owned.extend_from_slice(key);
            self.locks.insert(owned, state);
            return Ok(());
        };
        let holder = match (&mut *state, mode) {
            // Re-acquire in same or weaker mode.
            (LockState::Exclusive(holder), _) if *holder == txn => return Ok(()),
            (LockState::Exclusive(holder), _) => *holder,
            (LockState::Shared(first, others), LockMode::Shared) => {
                if *first != txn && !others.contains(&txn) {
                    others.push(txn);
                }
                return Ok(());
            }
            // Upgrade shared → exclusive, only as sole holder.
            (LockState::Shared(first, others), LockMode::Exclusive) => {
                let mut holders = std::iter::once(&*first).chain(&*others);
                match holders.find(|h| **h != txn) {
                    Some(other) => *other,
                    None => {
                        *state = LockState::Exclusive(txn);
                        return Ok(());
                    }
                }
            }
        };
        Err(EngineError::LockConflict {
            requester: txn,
            holder,
            key: key.to_vec(),
        })
    }

    /// Release `txn`'s lock on `key`, if it holds one. A transaction
    /// terminates by releasing each key it touched (called at
    /// commit/abort — the shrinking phase happens all at once, as
    /// strict 2PL requires), so the cost is its own keys, not the table.
    pub fn release(&mut self, txn: TxnId, key: &[u8]) {
        let free = match self.locks.get_mut(key) {
            Some(LockState::Exclusive(holder)) => *holder == txn,
            // The first holder's place passes to another reader.
            Some(LockState::Shared(first, others)) if *first == txn => match others.pop() {
                Some(next) => {
                    *first = next;
                    false
                }
                None => true,
            },
            Some(LockState::Shared(_, others)) => {
                others.retain(|h| *h != txn);
                false
            }
            None => false,
        };
        if free {
            let (owned, _) = self.locks.remove_entry(key).expect("held above");
            self.spare_keys.push(owned);
        }
    }

    /// Does `txn` hold a lock on `key`?
    #[must_use]
    pub fn holds(&self, txn: TxnId, key: &[u8]) -> bool {
        self.locks.get(key).is_some_and(|s| s.held_by(txn))
    }

    /// Number of locked keys.
    #[must_use]
    pub fn locked_keys(&self) -> usize {
        self.locks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u64) -> TxnId {
        TxnId::new(n)
    }

    #[test]
    fn shared_locks_are_compatible() {
        let mut lt = LockTable::new();
        lt.acquire(t(1), b"k", LockMode::Shared).unwrap();
        lt.acquire(t(2), b"k", LockMode::Shared).unwrap();
        assert!(lt.holds(t(1), b"k"));
        assert!(lt.holds(t(2), b"k"));
    }

    #[test]
    fn exclusive_conflicts_with_everything() {
        let mut lt = LockTable::new();
        lt.acquire(t(1), b"k", LockMode::Exclusive).unwrap();
        assert!(matches!(
            lt.acquire(t(2), b"k", LockMode::Shared),
            Err(EngineError::LockConflict { holder, .. }) if holder == t(1)
        ));
        assert!(lt.acquire(t(2), b"k", LockMode::Exclusive).is_err());
        // Re-acquisition by the holder is fine, in either mode.
        lt.acquire(t(1), b"k", LockMode::Exclusive).unwrap();
        lt.acquire(t(1), b"k", LockMode::Shared).unwrap();
    }

    #[test]
    fn upgrade_only_as_sole_holder() {
        let mut lt = LockTable::new();
        lt.acquire(t(1), b"k", LockMode::Shared).unwrap();
        lt.acquire(t(1), b"k", LockMode::Exclusive).unwrap(); // sole → ok

        let mut lt = LockTable::new();
        lt.acquire(t(1), b"k", LockMode::Shared).unwrap();
        lt.acquire(t(2), b"k", LockMode::Shared).unwrap();
        assert!(lt.acquire(t(1), b"k", LockMode::Exclusive).is_err());
    }

    #[test]
    fn release_frees_conflicts() {
        let mut lt = LockTable::new();
        lt.acquire(t(1), b"k", LockMode::Exclusive).unwrap();
        lt.acquire(t(1), b"j", LockMode::Shared).unwrap();
        lt.release(t(1), b"k");
        lt.release(t(1), b"j");
        assert_eq!(lt.locked_keys(), 0);
        lt.acquire(t(2), b"k", LockMode::Exclusive).unwrap();
    }

    impl LockTable {
        pub(crate) fn spare_keys(&self) -> Vec<&[u8]> {
            self.spare_keys.iter().map(Vec::as_slice).collect()
        }
    }

    /// A freed key's buffer is refilled by the next new lock, whatever
    /// the new key's length, and the lock is on exactly that key.
    #[test]
    fn a_recycled_key_buffer_locks_exactly_its_new_key() {
        let mut lt = LockTable::new();
        lt.acquire(t(1), b"medium", LockMode::Exclusive).unwrap();
        lt.release(t(1), b"medium");
        assert_eq!(lt.spare_keys(), [b"medium".as_slice()]);

        lt.acquire(t(2), b"a-much-longer-key", LockMode::Exclusive)
            .unwrap();
        assert!(lt.spare_keys().is_empty(), "the buffer was reused");
        assert!(lt.holds(t(2), b"a-much-longer-key"));
        assert!(!lt.holds(t(2), b"medium"));
        lt.acquire(t(3), b"medium", LockMode::Exclusive).unwrap();
        assert_eq!(lt.locked_keys(), 2);

        lt.release(t(2), b"a-much-longer-key");
        lt.acquire(t(4), b"k", LockMode::Shared).unwrap();
        assert!(lt.holds(t(4), b"k"));
        for stale in [b"a-much-longer-key".as_slice(), b"a", b"ka"] {
            assert!(!lt.holds(t(4), stale));
            lt.acquire(t(5), stale, LockMode::Exclusive).unwrap();
        }
    }

    /// On a recycled buffer a conflict still names the holder and the
    /// key, and a sole shared holder still upgrades.
    #[test]
    fn recycled_keys_conflict_and_upgrade_as_fresh_ones() {
        let mut lt = LockTable::new();
        let keys = [b"x".as_slice(), b"y"];
        for key in keys {
            lt.acquire(t(1), key, LockMode::Exclusive).unwrap();
        }
        for key in keys {
            lt.release(t(1), key);
        }
        assert_eq!(lt.spare_keys().len(), 2);

        lt.acquire(t(2), b"held", LockMode::Exclusive).unwrap();
        match lt.acquire(t(3), b"held", LockMode::Shared) {
            Err(EngineError::LockConflict {
                requester,
                holder,
                key,
            }) => {
                assert_eq!((requester, holder), (t(3), t(2)));
                assert_eq!(key, b"held");
            }
            other => panic!("no conflict: {other:?}"),
        }

        lt.acquire(t(4), b"read", LockMode::Shared).unwrap();
        lt.acquire(t(4), b"read", LockMode::Exclusive).unwrap();
        assert!(lt.acquire(t(5), b"read", LockMode::Shared).is_err());
        assert!(lt.spare_keys().is_empty());
    }

    #[test]
    fn release_keeps_other_holders() {
        let mut lt = LockTable::new();
        lt.acquire(t(1), b"k", LockMode::Shared).unwrap();
        lt.acquire(t(2), b"k", LockMode::Shared).unwrap();
        lt.release(t(1), b"k");
        lt.release(t(1), b"k"); // releasing twice (a key read and written) is harmless
        lt.release(t(3), b"k"); // and so is releasing what one never held
        assert!(lt.holds(t(2), b"k"));
        assert!(!lt.holds(t(1), b"k"));
    }
}
