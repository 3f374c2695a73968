//! Compressed, SoA-layout coverage tables.
//!
//! The naive representation — `coverage[class][location]` as a
//! `Vec<Vec<Vec<u32>>>` — costs one heap allocation per (class,
//! location) pair plus 4 bytes per covered user, which is
//! O(users × locations) in dense zones and the memory wall that kept
//! `--scale` below a million users. [`CoverageTables`] stores the same
//! logical lists in two shared arenas with a per-list encoding chosen
//! by size:
//!
//! * **Ids** — the sorted ids verbatim (4 bytes/user); wins for short
//!   scattered lists;
//! * **Bits** — a packed bitset window from the 64-aligned floor of the
//!   first id to the last id (8 bytes per 64 ids of span); wins for
//!   dense discs.
//!
//! Reads come back as a borrowed [`UserList`], which the matching
//! kernel walks without decoding, so gain queries stay allocation-free.
//! Under `debug-validate` every encoded list is decoded and checked
//! bit-identical against the uncompressed input when it is pushed.

use uavnet_flow::UserList;

/// Per-list encoding tag; the builder picks the smaller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Enc {
    Ids,
    Bits,
}

/// Memory accounting for one instance's coverage tables, in bytes.
///
/// `uncompressed_bytes` is what the former `Vec<Vec<u32>>`-per-list
/// layout would occupy (one `Vec` header plus 4 bytes per id per
/// list); `compressed_bytes` is the arena + per-list metadata cost of
/// this store. Emitted per scale in `BENCH_sweep.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoverageMemory {
    /// Bytes held by the compressed store (arenas + per-list metadata).
    pub compressed_bytes: usize,
    /// Bytes the uncompressed `Vec<Vec<u32>>` layout would hold.
    pub uncompressed_bytes: usize,
    /// Total number of (class, location) lists.
    pub lists: usize,
    /// Lists stored as explicit ids.
    pub ids_lists: usize,
    /// Lists stored as packed bitset windows.
    pub bitset_lists: usize,
}

/// Coverage lists for every (radio class, location) pair, compressed
/// per list and stored structure-of-arrays.
///
/// Lists are pushed in row-major order (`class * locations + loc`) by
/// the instance builder. A mobility or surge patch never edits a list
/// in place: it writes a new store in the same order, so a patched
/// store equals a fresh build field for field. [`list`](CoverageTables::list) returns a borrowed
/// view; [`count`](CoverageTables::count) is an O(1) table lookup (the
/// decoded length is cached), which is what the CELF upper bound reads.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageTables {
    classes: usize,
    locations: usize,
    // Per-list metadata, indexed by `class * locations + loc`.
    enc: Vec<Enc>,
    start: Vec<usize>,
    len: Vec<u32>,
    count: Vec<u32>,
    base: Vec<u32>,
    // Shared arenas, one per encoding.
    ids: Vec<u32>,
    words: Vec<u64>,
    uncompressed_bytes: usize,
}

impl CoverageTables {
    /// Starts an empty store expecting `classes × locations` lists.
    pub(crate) fn with_shape(classes: usize, locations: usize) -> Self {
        let entries = classes * locations;
        CoverageTables {
            classes,
            locations,
            enc: Vec::with_capacity(entries),
            start: Vec::with_capacity(entries),
            len: Vec::with_capacity(entries),
            count: Vec::with_capacity(entries),
            base: Vec::with_capacity(entries),
            ids: Vec::new(),
            words: Vec::new(),
            uncompressed_bytes: 0,
        }
    }

    /// Appends the next list in row-major (class-major) order. `list`
    /// must be sorted ascending without duplicates.
    pub(crate) fn push_list(&mut self, list: &[u32]) {
        debug_assert!(
            list.windows(2).all(|w| w[0] < w[1]),
            "coverage list must be sorted and deduplicated"
        );
        debug_assert!(
            self.enc.len() < self.classes * self.locations,
            "more lists than classes × locations"
        );
        self.count.push(list.len() as u32);
        self.uncompressed_bytes += std::mem::size_of::<Vec<u32>>() + 4 * list.len();
        let (Some(&first), Some(&last)) = (list.first(), list.last()) else {
            self.enc.push(Enc::Ids);
            self.start.push(self.ids.len());
            self.len.push(0);
            self.base.push(0);
            return;
        };
        // Bitset windows start at a multiple of 64 (≤ 8 extra bytes)
        // so the matching kernel can intersect list words directly
        // with its word-aligned free-user bitset.
        let bits_base = first & !63;
        let span = (last - bits_base) as usize + 1;
        let num_words = span.div_ceil(64);
        if 4 * list.len() <= 8 * num_words {
            self.enc.push(Enc::Ids);
            self.start.push(self.ids.len());
            self.len.push(list.len() as u32);
            self.base.push(0);
            self.ids.extend_from_slice(list);
        } else {
            self.enc.push(Enc::Bits);
            self.start.push(self.words.len());
            self.len.push(num_words as u32);
            self.base.push(bits_base);
            self.words.resize(self.words.len() + num_words, 0);
            let at = self.words.len() - num_words;
            for &u in list {
                let off = (u - bits_base) as usize;
                self.words[at + off / 64] |= 1 << (off % 64);
            }
        }
        #[cfg(feature = "debug-validate")]
        {
            let i = self.enc.len() - 1;
            let decoded = self.list(i / self.locations, i % self.locations).to_vec();
            assert_eq!(
                decoded, list,
                "debug-validate: compressed coverage list diverges at entry {i}"
            );
        }
    }

    /// Appends entry `i` of `from` as already encoded: the same bytes
    /// [`push_list`](Self::push_list) would append for its decoded list.
    fn push_encoded(&mut self, from: &CoverageTables, i: usize) {
        let (s, l) = (from.start[i], from.len[i] as usize);
        self.enc.push(from.enc[i]);
        self.len.push(from.len[i]);
        self.count.push(from.count[i]);
        self.base.push(from.base[i]);
        self.uncompressed_bytes += std::mem::size_of::<Vec<u32>>() + 4 * from.count[i] as usize;
        let start = match from.enc[i] {
            Enc::Ids => {
                self.ids.extend_from_slice(&from.ids[s..s + l]);
                self.ids.len() - l
            }
            Enc::Bits => {
                self.words.extend_from_slice(&from.words[s..s + l]);
                self.words.len() - l
            }
        };
        self.start.push(start);
    }

    /// This store with membership edits applied. Each `(entry, user,
    /// member)` adds (`member`) or removes one user id from the list at
    /// row-major `entry`; an edit that already holds changes nothing.
    /// `edits` must be sorted by entry, then user. Unedited lists are
    /// copied forward as already encoded and edited ones decoded,
    /// edited and re-encoded through [`push_list`](Self::push_list),
    /// all in row-major order, so the result equals a fresh build of
    /// the edited lists byte for byte — with no garbage to compact.
    pub(crate) fn with_edits(&self, edits: &[(usize, u32, bool)]) -> Self {
        debug_assert!(
            edits
                .windows(2)
                .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)),
            "coverage edits must be sorted by (entry, user) without repeats"
        );
        let mut out = CoverageTables::with_shape(self.classes, self.locations);
        out.ids.reserve(self.ids.len());
        out.words.reserve(self.words.len());
        let mut list = Vec::new();
        let mut rest = edits;
        for i in 0..self.enc.len() {
            let n = rest.iter().take_while(|e| e.0 == i).count();
            if n == 0 {
                out.push_encoded(self, i);
                continue;
            }
            let (group, tail) = rest.split_at(n);
            rest = tail;
            // Merge the old list with the edits, both ascending.
            let mut pending = group.iter().map(|&(_, id, member)| (id, member)).peekable();
            list.clear();
            self.list(i / self.locations, i % self.locations)
                .for_each_while(|id| {
                    while let Some((add, member)) = pending.next_if(|&(e, _)| e < id) {
                        if member {
                            list.push(add);
                        }
                    }
                    if pending.next_if(|&(e, _)| e == id) != Some((id, false)) {
                        list.push(id);
                    }
                    true
                });
            list.extend(pending.filter(|&(_, member)| member).map(|(id, _)| id));
            out.push_list(&list);
        }
        out.finish()
    }

    /// Seals the store; panics if the number of pushed lists does not
    /// match the declared shape.
    pub(crate) fn finish(self) -> Self {
        assert_eq!(
            self.enc.len(),
            self.classes * self.locations,
            "coverage table shape mismatch"
        );
        self
    }

    /// Number of radio classes.
    #[inline]
    pub fn num_classes(&self) -> usize {
        self.classes
    }

    /// Number of candidate locations.
    #[inline]
    pub fn num_locations(&self) -> usize {
        self.locations
    }

    /// The coverage list for `(class, loc)` as a borrowed view.
    ///
    /// # Panics
    ///
    /// Panics if `class` or `loc` is out of range.
    #[inline]
    pub fn list(&self, class: usize, loc: usize) -> UserList<'_> {
        assert!(class < self.classes && loc < self.locations);
        let i = class * self.locations + loc;
        let s = self.start[i];
        let l = self.len[i] as usize;
        match self.enc[i] {
            Enc::Ids => UserList::Ids(&self.ids[s..s + l]),
            Enc::Bits => UserList::Bits {
                base: self.base[i],
                words: &self.words[s..s + l],
            },
        }
    }

    /// Number of users in the `(class, loc)` list — O(1), the decoded
    /// length is cached at build time.
    ///
    /// # Panics
    ///
    /// Panics if `class` or `loc` is out of range.
    #[inline]
    pub fn count(&self, class: usize, loc: usize) -> usize {
        assert!(class < self.classes && loc < self.locations);
        self.count[class * self.locations + loc] as usize
    }

    /// Decodes every list into the legacy `[class][location]` layout
    /// (tests and the differential oracle only).
    pub fn decode_all(&self) -> Vec<Vec<Vec<u32>>> {
        (0..self.classes)
            .map(|c| {
                (0..self.locations)
                    .map(|l| self.list(c, l).to_vec())
                    .collect()
            })
            .collect()
    }

    /// Memory accounting for this store; see [`CoverageMemory`].
    pub fn memory(&self) -> CoverageMemory {
        let entries = self.enc.len();
        let metadata = entries
            * (std::mem::size_of::<Enc>()
                + std::mem::size_of::<usize>()
                + 2 * std::mem::size_of::<u32>()
                + std::mem::size_of::<u32>());
        let arenas = 4 * self.ids.len() + 8 * self.words.len();
        CoverageMemory {
            compressed_bytes: metadata + arenas,
            uncompressed_bytes: self.uncompressed_bytes,
            lists: entries,
            ids_lists: self.enc.iter().filter(|&&e| e == Enc::Ids).count(),
            bitset_lists: self.enc.iter().filter(|&&e| e == Enc::Bits).count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_of(lists: &[&[u32]]) -> CoverageTables {
        let mut t = CoverageTables::with_shape(1, lists.len());
        for l in lists {
            t.push_list(l);
        }
        t.finish()
    }

    #[test]
    fn roundtrips_every_encoding() {
        let dense: Vec<u32> = (10..200).collect(); // contiguous → bits
        let mostly_dense: Vec<u32> = (0..200).filter(|v| v % 7 != 0).collect(); // bits
        let sparse = vec![5u32, 900, 40_000]; // ids
        let lists: Vec<&[u32]> = vec![&dense, &mostly_dense, &sparse, &[]];
        let t = store_of(&lists);
        for (i, l) in lists.iter().enumerate() {
            assert_eq!(t.list(0, i).to_vec(), *l, "list {i}");
            assert_eq!(t.count(0, i), l.len());
        }
        let mem = t.memory();
        assert_eq!(mem.lists, 4);
        assert_eq!(mem.bitset_lists, 2, "dense lists should pick bits");
        assert_eq!(mem.ids_lists, 2, "sparse + empty should pick ids");
        assert!(mem.compressed_bytes < mem.uncompressed_bytes);
    }

    #[test]
    fn encoding_picks_minimal_bytes() {
        // 3 ids spanning 11: ids = 12 B, one bitset word = 8 B → bits.
        let t = store_of(&[&[0, 5, 10]]);
        assert_eq!(t.memory().bitset_lists, 1);
        // 2 ids far apart: ids = 8 B, bits huge → ids.
        let t = store_of(&[&[0, 1_000_000]]);
        assert_eq!(t.memory().ids_lists, 1);
        // 2 ids in one word: ids = 8 B ties bits = 8 B → ids.
        let t = store_of(&[&[3, 9]]);
        assert_eq!(t.memory().ids_lists, 1);
    }

    #[test]
    fn decode_all_matches_inputs() {
        let lists: Vec<Vec<u32>> = vec![vec![1, 2, 3], vec![], vec![0, 64, 128]];
        let mut t = CoverageTables::with_shape(3, 1);
        for l in &lists {
            t.push_list(l);
        }
        let t = t.finish();
        let decoded = t.decode_all();
        for (c, l) in lists.iter().enumerate() {
            assert_eq!(&decoded[c][0], l);
        }
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn finish_checks_shape() {
        let t = CoverageTables::with_shape(2, 3);
        t.finish();
    }
}
