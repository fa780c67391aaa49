//! The committed key-value state.

use std::collections::BTreeMap;

/// An ordered key-value store holding only *committed* data.
///
/// Uncommitted updates never touch the store (no-steal); they live in
/// the owning transaction's write set until commit.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KvStore {
    map: BTreeMap<Vec<u8>, Vec<u8>>,
    /// Key and value bytes held, summed over the entries.
    bytes: usize,
}

impl KvStore {
    /// An empty store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Committed value for `key`.
    #[must_use]
    pub fn get(&self, key: &[u8]) -> Option<&[u8]> {
        self.map.get(key).map(Vec::as_slice)
    }

    /// Install a committed update: `Some(v)` upserts, `None` deletes.
    /// The store takes over the buffers; nothing is copied.
    pub fn install(&mut self, key: Vec<u8>, value: Option<Vec<u8>>) {
        let held = key.len();
        if let Some(v) = value {
            self.bytes += held + v.len();
            if let Some(old) = self.map.insert(key, v) {
                self.bytes -= held + old.len();
            }
        } else if let Some(old) = self.map.remove(&key) {
            self.bytes -= held + old.len();
        }
    }

    /// Number of live keys.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Key and value bytes held, summed over the entries.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Is the store empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterate over committed entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&[u8], &[u8])> {
        self.map.iter().map(|(k, v)| (k.as_slice(), v.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upsert_and_delete() {
        let mut s = KvStore::new();
        s.install(b"a".to_vec(), Some(b"1".to_vec()));
        s.install(b"b".to_vec(), Some(b"2".to_vec()));
        assert_eq!(s.get(b"a"), Some(b"1".as_slice()));
        s.install(b"a".to_vec(), Some(b"9".to_vec()));
        assert_eq!(s.get(b"a"), Some(b"9".as_slice()));
        assert_eq!(s.bytes(), 4);
        s.install(b"a".to_vec(), None);
        assert_eq!(s.get(b"a"), None);
        assert_eq!(s.len(), 1);
        assert_eq!(s.bytes(), 2);
    }

    #[test]
    fn iteration_is_key_ordered() {
        let mut s = KvStore::new();
        s.install(b"c".to_vec(), Some(b"3".to_vec()));
        s.install(b"a".to_vec(), Some(b"1".to_vec()));
        let keys: Vec<&[u8]> = s.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![b"a".as_slice(), b"c".as_slice()]);
    }
}
