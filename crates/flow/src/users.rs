//! Borrowed views over a set of user ids in one of two encodings.
//!
//! The coverage tables upstream store each per-location user set in
//! whichever encoding is smaller — explicit sorted ids or a packed
//! bitset window — and the matching kernel must consume either of them
//! without decoding into a temporary buffer.
//! [`UserList`] is that zero-copy bridge: a `Copy` view plus an
//! ascending iterator, so trial insertions and station commits walk
//! compressed lists exactly as they walked plain slices.

/// A borrowed, strictly ascending set of user ids.
///
/// Both variants decode to the same logical sequence: user ids in
/// strictly increasing order, no duplicates. [`iter`](UserList::iter)
/// is allocation-free for either.
///
/// # Examples
///
/// ```
/// use uavnet_flow::UserList;
///
/// let ids = UserList::Ids(&[3, 4, 5, 9]);
/// let bits = UserList::Bits { base: 3, words: &[0b1000111] };
/// assert_eq!(ids.to_vec(), vec![3, 4, 5, 9]);
/// assert_eq!(bits.to_vec(), ids.to_vec());
/// ```
#[derive(Debug, Clone, Copy)]
pub enum UserList<'a> {
    /// Explicit sorted ids.
    Ids(&'a [u32]),
    /// Packed bitset over the window `base .. base + 64 * words.len()`:
    /// bit `i` of the window marks user `base + i`.
    Bits {
        /// First user id of the window.
        base: u32,
        /// The window's bits, 64 per word, LSB first.
        words: &'a [u64],
    },
}

impl<'a> UserList<'a> {
    /// Number of user ids in the list (`O(words)` for a bitset —
    /// callers on a hot path should carry precomputed counts).
    pub fn count(&self) -> usize {
        match self {
            UserList::Ids(ids) => ids.len(),
            UserList::Bits { words, .. } => words.iter().map(|w| w.count_ones() as usize).sum(),
        }
    }

    /// Whether the list holds no ids.
    pub fn is_empty(&self) -> bool {
        match self {
            UserList::Ids(ids) => ids.is_empty(),
            UserList::Bits { words, .. } => words.iter().all(|&w| w == 0),
        }
    }

    /// The largest id in the list, or `None` when empty. `O(1)` for
    /// ids, `O(words)` for bitsets — used to validate id ranges without
    /// a full decode.
    pub fn max_id(&self) -> Option<u32> {
        match self {
            UserList::Ids(ids) => ids.last().copied(),
            UserList::Bits { base, words } => words
                .iter()
                .enumerate()
                .rev()
                .find(|(_, &w)| w != 0)
                .map(|(i, &w)| base + i as u32 * 64 + (63 - w.leading_zeros())),
        }
    }

    /// Whether `id` is in the list: binary search for ids, one bit test
    /// for bitsets.
    pub fn contains(&self, id: u32) -> bool {
        match self {
            UserList::Ids(ids) => ids.binary_search(&id).is_ok(),
            UserList::Bits { base, words } => {
                let Some(off) = id.checked_sub(*base) else {
                    return false;
                };
                words
                    .get(off as usize / 64)
                    .is_some_and(|w| w >> (off % 64) & 1 == 1)
            }
        }
    }

    /// An ascending iterator over the ids; allocation-free.
    pub fn iter(&self) -> UserListIter<'a> {
        UserListIter {
            inner: match *self {
                UserList::Ids(ids) => IterInner::Ids(ids.iter()),
                UserList::Bits { base, words } => IterInner::Bits {
                    words,
                    base,
                    word: 0,
                    bits: words.first().copied().unwrap_or(0),
                },
            },
        }
    }

    /// Internal iteration in ascending order: calls `f` for each id
    /// until it returns `false` or the list is exhausted.
    ///
    /// This is the hot-path twin of [`iter`](UserList::iter): the
    /// encoding is matched once and each arm runs a tight loop over
    /// its concrete representation, where the external iterator pays
    /// an encoding dispatch per element. The matching kernel's
    /// pre-pass and BFS walk lists through this.
    #[inline(always)]
    pub fn for_each_while(self, mut f: impl FnMut(u32) -> bool) {
        match self {
            UserList::Ids(ids) => {
                for &u in ids {
                    if !f(u) {
                        return;
                    }
                }
            }
            UserList::Bits { base, words } => {
                for (i, &w) in words.iter().enumerate() {
                    let mut bits = w;
                    while bits != 0 {
                        let u = base + i as u32 * 64 + bits.trailing_zeros();
                        if !f(u) {
                            return;
                        }
                        bits &= bits - 1;
                    }
                }
            }
        }
    }

    /// Decodes into an owned vector (tests and slow paths only).
    pub fn to_vec(&self) -> Vec<u32> {
        self.iter().collect()
    }
}

impl<'a> From<&'a [u32]> for UserList<'a> {
    fn from(ids: &'a [u32]) -> Self {
        UserList::Ids(ids)
    }
}

impl<'a> IntoIterator for UserList<'a> {
    type Item = u32;
    type IntoIter = UserListIter<'a>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Ascending iterator over a [`UserList`]; see [`UserList::iter`].
#[derive(Debug, Clone)]
pub struct UserListIter<'a> {
    inner: IterInner<'a>,
}

#[derive(Debug, Clone)]
enum IterInner<'a> {
    Ids(std::slice::Iter<'a, u32>),
    Bits {
        words: &'a [u64],
        base: u32,
        word: usize,
        bits: u64,
    },
}

impl Iterator for UserListIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        match &mut self.inner {
            IterInner::Ids(iter) => iter.next().copied(),
            IterInner::Bits {
                words,
                base,
                word,
                bits,
            } => {
                while *bits == 0 {
                    *word += 1;
                    *bits = *words.get(*word)?;
                }
                let tz = bits.trailing_zeros();
                *bits &= *bits - 1;
                Some(*base + *word as u32 * 64 + tz)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_encodings_decode_identically() {
        let want = vec![0u32, 1, 2, 63, 64, 65, 130];
        let ids = UserList::Ids(&[0, 1, 2, 63, 64, 65, 130]);
        let mut words = [0u64; 3];
        for &u in &want {
            words[u as usize / 64] |= 1 << (u % 64);
        }
        let bits = UserList::Bits {
            base: 0,
            words: &words,
        };
        for list in [ids, bits] {
            assert_eq!(list.to_vec(), want);
            assert_eq!(list.count(), want.len());
            assert_eq!(list.max_id(), Some(130));
            assert!(!list.is_empty());
            for id in 0..200 {
                assert_eq!(list.contains(id), want.contains(&id), "id {id}");
            }
        }
    }

    #[test]
    fn bits_window_offsets() {
        // A window starting mid-id-space: bit i marks base + i.
        let list = UserList::Bits {
            base: 1000,
            words: &[0b101, 0b1],
        };
        assert_eq!(list.to_vec(), vec![1000, 1002, 1064]);
        assert_eq!(list.max_id(), Some(1064));
    }

    #[test]
    fn empty_lists() {
        for list in [
            UserList::Ids(&[]),
            UserList::Bits {
                base: 7,
                words: &[],
            },
            UserList::Bits {
                base: 7,
                words: &[0, 0],
            },
        ] {
            assert!(list.is_empty());
            assert_eq!(list.count(), 0);
            assert_eq!(list.max_id(), None);
            assert_eq!(list.to_vec(), Vec::<u32>::new());
        }
    }

    #[test]
    fn iterator_is_resumable_and_ascending() {
        let list = UserList::Bits {
            base: 0,
            words: &[0b1_1110_0000, 0, 0b11 << 2],
        };
        let got: Vec<u32> = list.into_iter().collect();
        assert_eq!(got, vec![5, 6, 7, 8, 130, 131]);
        assert!(got.windows(2).all(|w| w[0] < w[1]));
    }
}
