//! Transaction contexts: buffered write sets and lifecycle phases.

use acp_types::TxnId;

/// Lifecycle of a local subtransaction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TxnPhase {
    /// Executing reads and (buffered) writes.
    Active,
    /// Write set staged in the log; the site may vote "Yes" once it is
    /// durable and may no longer unilaterally abort. Locks are pinned.
    Prepared,
}

/// A buffered update of one key: before image (for audit/undo
/// information in the log) and after image (the new value; `None`
/// deletes).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BufferedWrite {
    /// The key written.
    pub key: Vec<u8>,
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
    /// Buffered writes, one per key, in key order. Later writes to the
    /// same key keep the original before image. A vector, not a map,
    /// so that prepare can lend each write's buffers to its log record.
    pub writes: Vec<BufferedWrite>,
    /// Keys read under a shared lock. With the write set, every key
    /// this transaction may hold a lock on — what termination releases.
    pub reads: Vec<Vec<u8>>,
    /// Key buffers of reads by earlier transactions in this context,
    /// for [`TxnContext::note_read`] to refill.
    spare_reads: Vec<Vec<u8>>,
}

impl TxnContext {
    /// A fresh active transaction.
    #[must_use]
    pub fn new(id: TxnId) -> Self {
        TxnContext {
            id,
            phase: TxnPhase::Active,
            writes: Vec::new(),
            reads: Vec::new(),
            spare_reads: Vec::new(),
        }
    }

    /// Empty the context for reuse by another transaction: no write,
    /// read or phase of this one stays, the write and
    /// read sets keep their capacity, and the read keys' buffers are
    /// kept for later reads to refill.
    pub fn clear(&mut self) {
        self.phase = TxnPhase::Active;
        self.writes.clear();
        self.spare_reads.append(&mut self.reads);
    }

    /// Note a read of `key`, copied into a buffer an earlier read left
    /// behind when there is one.
    pub fn note_read(&mut self, key: &[u8]) {
        let mut owned = self.spare_reads.pop().unwrap_or_default();
        owned.clear();
        owned.extend_from_slice(key);
        self.reads.push(owned);
    }

    /// Buffer a write, taking over its buffers. `before` is the
    /// committed value at first touch.
    pub fn buffer_write(&mut self, key: Vec<u8>, before: Option<Vec<u8>>, after: Option<Vec<u8>>) {
        match self.position(&key) {
            Ok(i) => self.writes[i].after = after, // keep original before image
            Err(i) => self.writes.insert(i, BufferedWrite { key, before, after }),
        }
    }

    /// This transaction's view of `key`: buffered write if any, else
    /// `None` (caller falls back to the store).
    #[must_use]
    pub fn own_view(&self, key: &[u8]) -> Option<&BufferedWrite> {
        self.position(key).ok().map(|i| &self.writes[i])
    }

    /// Where `key`'s write is (`Ok`) or would go (`Err`).
    fn position(&self, key: &[u8]) -> Result<usize, usize> {
        self.writes.binary_search_by(|w| w.key.as_slice().cmp(key))
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
        t.buffer_write(b"k".to_vec(), Some(b"old".to_vec()), Some(b"v1".to_vec()));
        t.buffer_write(b"k".to_vec(), Some(b"v1".to_vec()), Some(b"v2".to_vec()));
        let w = t.own_view(b"k").unwrap();
        assert_eq!(w.before.as_deref(), Some(b"old".as_slice()));
        assert_eq!(w.after.as_deref(), Some(b"v2".as_slice()));
    }

    #[test]
    fn read_only_detection() {
        let mut t = TxnContext::new(TxnId::new(1));
        assert!(t.is_read_only());
        t.buffer_write(b"k".to_vec(), None, Some(b"v".to_vec()));
        assert!(!t.is_read_only());
    }
}
