//! The committed key-value state, laid out so that neither a commit nor
//! a restart allocates per entry.

use acp_wal::CheckpointSink;
use std::fmt;

/// Arena bytes in front of each entry: its key's and its value's
/// lengths, as little-endian `u32`s — the eight bytes a store-file
/// checkpoint spends on them too, so a restart can size the arena from
/// the file.
const HEADER: usize = 8;

/// An index slot that holds no entry. No entry starts there: the arena
/// stays below 4 GiB.
const EMPTY: u32 = u32::MAX;

/// A key-value store holding only *committed* data.
///
/// Uncommitted updates never touch the store (no-steal); they live in
/// the owning transaction's write set until commit.
///
/// Every entry lies in one byte arena: its key's and its value's
/// lengths (8 bytes), its key, its value, back to back. The index is an
/// open-addressed table of the entries' arena offsets, probed linearly
/// from a fixed-seed hash of the key, with keys compared in the arena;
/// it allocates only when it grows, and a delete shifts its probe run
/// back instead of leaving a tombstone. An overwrite by a value of the same
/// length is made in place. Any other overwrite, and a delete, leave
/// the old entry's bytes dead; once the dead bytes outweigh the live
/// ones the arena is compacted in place. Key order costs a sort, which
/// only [`KvStore::iter`] pays.
///
/// The hash is fixed so that a run repeats exactly; it does not
/// protect against keys crafted to collide, which would make their
/// probes long (not wrong).
#[derive(Clone, Default)]
pub struct KvStore {
    arena: Vec<u8>,
    /// Arena offsets of the live entries, or [`EMPTY`]. Its length is
    /// zero or a power of two, and at most three quarters of it is full.
    index: Vec<u32>,
    /// Live entries.
    len: usize,
    /// Key and value bytes held, summed over the live entries.
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
        let slot = self.find(key).ok()?;
        Some(self.entry_at(self.index[slot]).1)
    }

    /// Install a committed update, copying it into the arena: `Some(v)`
    /// upserts, `None` deletes.
    pub fn install(&mut self, key: &[u8], value: Option<&[u8]>) {
        match (self.find(key), value) {
            (Ok(slot), Some(value)) => {
                let at = self.index[slot] as usize;
                let old = self.lens_at(at).1;
                if old == value.len() {
                    let start = at + HEADER + key.len();
                    self.arena[start..start + old].copy_from_slice(value);
                    return;
                }
                self.bytes = self.bytes - old + value.len();
                self.index[slot] = self.push(key, value);
            }
            (Ok(slot), None) => {
                let old = self.lens_at(self.index[slot] as usize).1;
                self.bytes -= key.len() + old;
                self.len -= 1;
                self.remove(slot);
            }
            (Err(_), Some(value)) => {
                if !fits(self.len + 1, self.index.len()) {
                    self.rehash(slots_for(self.len + 1));
                }
                let Err(slot) = self.find(key) else {
                    unreachable!("the key was absent")
                };
                self.index[slot] = self.push(key, value);
                self.len += 1;
                self.bytes += key.len() + value.len();
            }
            (Err(_), None) => return,
        }
        if self.dead() > self.arena.len() - self.dead() {
            self.compact();
        }
    }

    /// Number of live keys.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Key and value bytes held, summed over the entries.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Is the store empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterate over committed entries in key order. Only this call
    /// sorts: it collects the live entries' offsets, into one
    /// allocation, and sorts them by key.
    pub fn iter(&self) -> impl Iterator<Item = (&[u8], &[u8])> {
        let mut order = Vec::with_capacity(self.len);
        order.extend(self.live());
        order.sort_unstable_by(|&a, &b| self.entry_at(a).0.cmp(self.entry_at(b).0));
        order.into_iter().map(|at| self.entry_at(at))
    }

    /// The arena's length, dead bytes included: only a compaction
    /// shortens it.
    #[cfg(test)]
    pub(crate) fn arena_len(&self) -> usize {
        self.arena.len()
    }

    /// The live entries' offsets, in index order.
    fn live(&self) -> impl Iterator<Item = u32> + '_ {
        self.index.iter().copied().filter(|&at| at != EMPTY)
    }

    /// The lengths of the key and the value of the entry at `at`.
    fn lens_at(&self, at: usize) -> (usize, usize) {
        let word = |i: usize| {
            let bytes = self.arena[i..i + 4].try_into().expect("4 bytes");
            u32::from_le_bytes(bytes) as usize
        };
        (word(at), word(at + 4))
    }

    /// The key and the value of the entry at `at`.
    fn entry_at(&self, at: u32) -> (&[u8], &[u8]) {
        let at = at as usize;
        let (key, value) = self.lens_at(at);
        let key_at = at + HEADER;
        let value_at = key_at + key;
        (
            &self.arena[key_at..value_at],
            &self.arena[value_at..value_at + value],
        )
    }

    /// Append an entry to the arena and return its offset.
    fn push(&mut self, key: &[u8], value: &[u8]) -> u32 {
        let at = u32::try_from(self.arena.len())
            .ok()
            .filter(|&at| at != EMPTY)
            .expect("a store's arena stays below 4 GiB");
        for part in [key, value] {
            let len = u32::try_from(part.len()).expect("a key or value is below 4 GiB");
            self.arena.extend_from_slice(&len.to_le_bytes());
        }
        self.arena.extend_from_slice(key);
        self.arena.extend_from_slice(value);
        at
    }

    /// Arena bytes no live entry holds.
    fn dead(&self) -> usize {
        self.arena.len() - self.bytes - HEADER * self.len
    }

    /// The slot that holds `key`'s entry (`Ok`), or the empty slot its
    /// probe ends at (`Err`; an empty index has none, and any insert
    /// grows it first).
    fn find(&self, key: &[u8]) -> Result<usize, usize> {
        if self.index.is_empty() {
            return Err(0);
        }
        let mask = self.index.len() - 1;
        let mut slot = hash(key) as usize & mask;
        loop {
            match self.index[slot] {
                EMPTY => return Err(slot),
                at if self.entry_at(at).0 == key => return Ok(slot),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Empty `hole` and shift back the entries of its probe run that
    /// may sit there, so that every entry stays reachable from its home
    /// slot without a tombstone.
    fn remove(&mut self, mut hole: usize) {
        let mask = self.index.len() - 1;
        let mut next = (hole + 1) & mask;
        while self.index[next] != EMPTY {
            let home = hash(self.entry_at(self.index[next]).0) as usize & mask;
            // Move it if `hole` lies on its probe path: from `home` up
            // to, not including, `next`.
            if next.wrapping_sub(home) & mask >= next.wrapping_sub(hole) & mask {
                self.index[hole] = self.index[next];
                hole = next;
            }
            next = (next + 1) & mask;
        }
        self.index[hole] = EMPTY;
    }

    /// A new index of `slots` slots, holding the same entries.
    fn rehash(&mut self, slots: usize) {
        let old = std::mem::replace(&mut self.index, vec![EMPTY; slots]);
        for at in old.into_iter().filter(|&at| at != EMPTY) {
            let Err(slot) = self.find(self.entry_at(at).0) else {
                unreachable!("keys are unique")
            };
            self.index[slot] = at;
        }
    }

    /// Move the live entries to the front of the arena, in arena order,
    /// and point the index at their new offsets. An entry is live if
    /// its key's slot holds its offset. Entries only move down, onto
    /// bytes that no unvisited entry uses.
    fn compact(&mut self) {
        let (mut read, mut write) = (0, 0);
        while read < self.arena.len() {
            let (key, value) = self.lens_at(read);
            let size = HEADER + key + value;
            let found = self.find(&self.arena[read + HEADER..read + HEADER + key]);
            if let Some(slot) = found.ok().filter(|&slot| self.index[slot] as usize == read) {
                self.arena.copy_within(read..read + size, write);
                self.index[slot] = write as u32;
                write += size;
            }
            read += size;
        }
        self.arena.truncate(write);
    }
}

/// Can `slots` index slots hold `entries` entries?
fn fits(entries: usize, slots: usize) -> bool {
    entries * 4 <= slots * 3
}

/// The smallest index that holds `entries` entries.
fn slots_for(entries: usize) -> usize {
    let mut slots = 8;
    while !fits(entries, slots) {
        slots *= 2;
    }
    slots
}

/// A fixed-seed 64-bit hash: each 8-byte word is folded in with a
/// multiply, and a final mix spreads every bit into the low ones the
/// index keeps.
fn hash(key: &[u8]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let fold =
        |h: u64, word: [u8; 8]| (h.rotate_left(5) ^ u64::from_le_bytes(word)).wrapping_mul(K);
    let mut words = key.chunks_exact(8);
    let mut h = (&mut words).fold(key.len() as u64, |h, w| {
        fold(h, w.try_into().expect("8 bytes"))
    });
    let rest = words.remainder();
    if !rest.is_empty() {
        let mut word = [0; 8];
        word[..rest.len()].copy_from_slice(rest);
        h = fold(h, word);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^ (h >> 33)
}

impl fmt::Debug for KvStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl CheckpointSink for KvStore {
    /// Make room for `entries` more entries holding `bytes` key and
    /// value bytes in all, so that installing them allocates nothing.
    fn reserve(&mut self, entries: usize, bytes: usize) {
        self.arena.reserve(bytes + HEADER * entries);
        let slots = slots_for(self.len + entries);
        if slots > self.index.len() {
            self.rehash(slots);
        }
    }

    fn entry(&mut self, key: &[u8], value: &[u8]) {
        self.install(key, Some(value));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upsert_and_delete() {
        let mut s = KvStore::new();
        s.install(b"a", Some(b"1"));
        s.install(b"b", Some(b"2"));
        assert_eq!(s.get(b"a"), Some(b"1".as_slice()));
        s.install(b"a", Some(b"9"));
        assert_eq!(s.get(b"a"), Some(b"9".as_slice()));
        assert_eq!(s.bytes(), 4);
        s.install(b"a", None);
        assert_eq!(s.get(b"a"), None);
        assert_eq!(s.len(), 1);
        assert_eq!(s.bytes(), 2);
    }

    #[test]
    fn iteration_is_key_ordered() {
        let mut s = KvStore::new();
        s.install(b"c", Some(b"3"));
        s.install(b"a", Some(b"1"));
        let keys: Vec<&[u8]> = s.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![b"a".as_slice(), b"c".as_slice()]);
    }

    /// An overwrite of the same length stays in place; a longer one
    /// leaves the old bytes dead until they outweigh the live ones, and
    /// the compaction leaves only the live entries.
    #[test]
    fn dead_bytes_are_compacted_once_they_outweigh_the_live_ones() {
        let mut s = KvStore::new();
        s.install(b"a", Some(b"1"));
        s.install(b"b", Some(b"2"));
        s.install(b"a", Some(b"3"));
        assert_eq!((s.arena.len(), s.dead()), (20, 0), "in place");
        s.install(b"a", Some(b"33"));
        assert_eq!((s.arena.len(), s.dead()), (31, 10));
        s.install(b"b", None);
        assert_eq!((s.arena.len(), s.dead()), (11, 0), "20 dead > 11 live");
        assert_eq!(
            s.iter().collect::<Vec<_>>(),
            [(b"a".as_slice(), b"33".as_slice())]
        );
    }

    /// A reserved store installs what it reserved without growing.
    #[test]
    fn a_reservation_covers_its_entries() {
        let mut s = KvStore::new();
        s.reserve(100, 100 * 7);
        let (arena, index) = (s.arena.capacity(), s.index.len());
        for i in 0..100u32 {
            s.install(format!("k{i:03}").as_bytes(), Some(b"val"));
        }
        assert_eq!((s.arena.capacity(), s.index.len()), (arena, index));
        assert_eq!(s.len(), 100);
    }
}
