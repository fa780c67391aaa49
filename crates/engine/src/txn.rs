//! Transaction contexts: buffered write sets and lifecycle phases.

use acp_types::TxnId;
use std::collections::BTreeMap;

/// Lifecycle of a local subtransaction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TxnPhase {
    /// Executing reads and (buffered) writes.
    Active,
    /// Write set forced to the log; the site has voted "Yes" and may no
    /// longer unilaterally abort. Locks are pinned.
    Prepared,
}

/// A buffered update: before image (for audit/undo information in the
/// log) and after image (the new value; `None` deletes).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BufferedWrite {
    /// Value before this transaction's first write to the key.
    pub before: Option<Vec<u8>>,
    /// Value after (None = delete).
    pub after: Option<Vec<u8>>,
}

/// Per-transaction execution state.
#[derive(Clone, Debug)]
pub struct TxnContext {
    /// The transaction id.
    pub id: TxnId,
    /// Current phase.
    pub phase: TxnPhase,
    /// Buffered writes, keyed by key. Later writes to the same key keep
    /// the original before image.
    pub writes: BTreeMap<Vec<u8>, BufferedWrite>,
    /// Keys read under a shared lock. With the write set, every key
    /// this transaction may hold a lock on — what termination releases.
    pub reads: Vec<Vec<u8>>,
}

impl TxnContext {
    /// A fresh active transaction.
    #[must_use]
    pub fn new(id: TxnId) -> Self {
        TxnContext {
            id,
            phase: TxnPhase::Active,
            writes: BTreeMap::new(),
            reads: Vec::new(),
        }
    }

    /// Buffer a write. `before` is the committed value at first touch.
    pub fn buffer_write(&mut self, key: &[u8], before: Option<Vec<u8>>, after: Option<Vec<u8>>) {
        match self.writes.get_mut(key) {
            Some(w) => w.after = after, // keep original before image
            None => {
                self.writes
                    .insert(key.to_vec(), BufferedWrite { before, after });
            }
        }
    }

    /// This transaction's view of `key`: buffered write if any, else
    /// `None` (caller falls back to the store).
    #[must_use]
    pub fn own_view(&self, key: &[u8]) -> Option<&BufferedWrite> {
        self.writes.get(key)
    }

    /// Is the write set empty (a read-only transaction)?
    #[must_use]
    pub fn is_read_only(&self) -> bool {
        self.writes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rewrites_keep_first_before_image() {
        let mut t = TxnContext::new(TxnId::new(1));
        t.buffer_write(b"k", Some(b"old".to_vec()), Some(b"v1".to_vec()));
        t.buffer_write(b"k", Some(b"v1".to_vec()), Some(b"v2".to_vec()));
        let w = t.own_view(b"k").unwrap();
        assert_eq!(w.before.as_deref(), Some(b"old".as_slice()));
        assert_eq!(w.after.as_deref(), Some(b"v2".as_slice()));
    }

    #[test]
    fn read_only_detection() {
        let mut t = TxnContext::new(TxnId::new(1));
        assert!(t.is_read_only());
        t.buffer_write(b"k", None, Some(b"v".to_vec()));
        assert!(!t.is_read_only());
    }
}
