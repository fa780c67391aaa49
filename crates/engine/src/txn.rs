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

/// A write's key or value, as its caller hands it to
/// [`TxnContext::buffer_write`].
#[derive(Debug)]
pub enum WriteBytes<'a> {
    /// Bytes to copy.
    Borrowed(&'a [u8]),
    /// A buffer the caller lends: copied from, like a borrowed slice,
    /// when the context has a buffer to copy into, and otherwise kept,
    /// with an empty buffer left in its place. So a context with no
    /// buffers yet (a new one, as after a crash) allocates none.
    Lent(&'a mut Vec<u8>),
}

impl WriteBytes<'_> {
    /// The bytes.
    #[must_use]
    pub fn as_slice(&self) -> &[u8] {
        match self {
            WriteBytes::Borrowed(bytes) => bytes,
            WriteBytes::Lent(buf) => buf,
        }
    }
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
    /// Buffers of the keys, images and read keys of earlier
    /// transactions in this context, for later writes and reads to
    /// refill: never more than one transaction held at once.
    spare: Vec<Vec<u8>>,
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
            spare: Vec::new(),
        }
    }

    /// Empty the context for reuse by another transaction: no write,
    /// read or phase of this one stays, the write and read sets keep
    /// their capacity, and every key and image buffer is kept for later
    /// writes and reads to refill — stacked so that the next
    /// transaction's writes take this one's key, before and after
    /// buffers in that order, and its reads the read keys, so a buffer
    /// mostly refills with bytes of the length it held.
    pub fn clear(&mut self) {
        self.phase = TxnPhase::Active;
        self.spare.append(&mut self.reads);
        for w in self.writes.drain(..).rev() {
            self.spare.extend(w.after);
            self.spare.extend(w.before);
            self.spare.push(w.key);
        }
    }

    /// Note a read of `key`, copied into a spare buffer when there is
    /// one.
    pub fn note_read(&mut self, key: &[u8]) {
        let owned = refill(&mut self.spare, None, WriteBytes::Borrowed(key));
        self.reads.push(owned);
    }

    /// Buffer a write, copying key and value into spare buffers when
    /// there are any (a rewrite refills the key's own after image), or
    /// else keeping lent ones. `before` gives the committed value of the
    /// key, and is called only on the key's first write: a later one
    /// keeps the first before image.
    pub fn buffer_write<'s>(
        &mut self,
        key: WriteBytes<'_>,
        before: impl FnOnce(&[u8]) -> Option<&'s [u8]>,
        after: Option<WriteBytes<'_>>,
    ) {
        let at = self.position(key.as_slice());
        let spare = &mut self.spare;
        match at {
            Ok(i) => {
                let old = self.writes[i].after.take();
                self.writes[i].after = match after {
                    Some(after) => Some(refill(spare, old, after)),
                    None => {
                        spare.extend(old);
                        None
                    }
                };
            }
            Err(i) => {
                let key = refill(spare, None, key);
                let before = before(&key).map(|b| refill(spare, None, WriteBytes::Borrowed(b)));
                let after = after.map(|a| refill(spare, None, a));
                self.writes.insert(i, BufferedWrite { key, before, after });
            }
        }
    }

    /// Re-stage a write of a recovered write set, taking over its
    /// buffers: as [`TxnContext::buffer_write`], a later write of a key
    /// replaces its after image and keeps its before image.
    pub fn restage(&mut self, key: Vec<u8>, before: Option<Vec<u8>>, after: Option<Vec<u8>>) {
        match self.position(&key) {
            Ok(i) => self.writes[i].after = after,
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

/// `bytes`, copied into `buf`, else into a spare buffer; with neither,
/// the lent buffer itself, or a new copy of borrowed bytes.
fn refill(spare: &mut Vec<Vec<u8>>, buf: Option<Vec<u8>>, bytes: WriteBytes<'_>) -> Vec<u8> {
    match buf.or_else(|| spare.pop()) {
        Some(mut buf) => {
            buf.clear();
            buf.extend_from_slice(bytes.as_slice());
            buf
        }
        None => match bytes {
            WriteBytes::Borrowed(bytes) => bytes.to_vec(),
            WriteBytes::Lent(buf) => std::mem::take(buf),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(bytes: &[u8]) -> WriteBytes<'_> {
        WriteBytes::Borrowed(bytes)
    }

    #[test]
    fn rewrites_keep_first_before_image() {
        let mut t = TxnContext::new(TxnId::new(1));
        t.buffer_write(b(b"k"), |_| Some(b"old".as_slice()), Some(b(b"v1")));
        let second = |_: &[u8]| unreachable!("a rewrite reads no before image");
        t.buffer_write(b(b"k"), second, Some(b(b"v2")));
        let w = t.own_view(b"k").unwrap();
        assert_eq!(w.before.as_deref(), Some(b"old".as_slice()));
        assert_eq!(w.after.as_deref(), Some(b"v2".as_slice()));
    }

    #[test]
    fn read_only_detection() {
        let mut t = TxnContext::new(TxnId::new(1));
        assert!(t.is_read_only());
        t.buffer_write(b(b"k"), |_| None, Some(b(b"v")));
        assert!(!t.is_read_only());
    }

    /// A reused context refills the buffers its last transaction left,
    /// longer and shorter ones alike, and no stale byte reaches a key or
    /// an image.
    #[test]
    fn a_cleared_context_refills_its_buffers_without_stale_bytes() {
        let mut t = TxnContext::new(TxnId::new(1));
        let before = |_: &[u8]| Some(b"a-long-before".as_slice());
        t.buffer_write(b(b"a-long-key"), before, Some(b(b"x")));
        t.buffer_write(b(b"b"), |_| None, None);
        t.note_read(b"r");
        t.clear();
        assert!(t.writes.is_empty() && t.reads.is_empty());
        assert_eq!(t.spare.len(), 5, "two keys, two images and a read key");

        let after = b(b"a-much-longer-value");
        t.buffer_write(b(b"c"), |_| Some(b"old".as_slice()), Some(after));
        t.note_read(b"read-key");
        let w = t.own_view(b"c").unwrap();
        assert_eq!(w.key, b"c");
        assert_eq!(w.before.as_deref(), Some(b"old".as_slice()));
        assert_eq!(w.after.as_deref(), Some(b"a-much-longer-value".as_slice()));
        assert_eq!(t.reads, [b"read-key".to_vec()]);
        assert_eq!(t.spare.len(), 1, "four buffers refilled");
        t.buffer_write(b(b"c"), |_| unreachable!(), None);
        assert_eq!(t.own_view(b"c").unwrap().after, None);
        assert_eq!(t.spare.len(), 2, "a delete gives its after image back");
    }

    /// A context with no spare buffer keeps a lent one and leaves an
    /// empty one in its place; one with spare buffers copies from the
    /// lent ones and leaves them with their caller.
    #[test]
    fn a_lent_buffer_is_kept_only_when_no_spare_one_is() {
        let mut t = TxnContext::new(TxnId::new(1));
        let (mut key, mut value) = (b"k".to_vec(), b"v".to_vec());
        let lent = (key.as_ptr(), value.as_ptr());
        let after = Some(WriteBytes::Lent(&mut value));
        t.buffer_write(WriteBytes::Lent(&mut key), |_| None, after);
        assert_eq!((key.capacity(), value.capacity()), (0, 0), "kept");
        let w = t.own_view(b"k").unwrap();
        assert_eq!((w.key.as_ptr(), w.after.as_ref().unwrap().as_ptr()), lent);

        t.clear();
        let (mut key, mut value) = (b"j".to_vec(), b"w".to_vec());
        let after = Some(WriteBytes::Lent(&mut value));
        t.buffer_write(WriteBytes::Lent(&mut key), |_| None, after);
        assert_eq!((key, value), (b"j".to_vec(), b"w".to_vec()), "copied");
        let w = t.own_view(b"j").unwrap();
        assert_eq!((w.key.as_ptr(), w.after.as_ref().unwrap().as_ptr()), lent);
        assert_eq!(w.after.as_deref(), Some(b"w".as_slice()));
    }
}
