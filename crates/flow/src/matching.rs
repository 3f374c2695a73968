//! Incremental capacitated bipartite matching with trial insertions.
//!
//! Specializes the assignment flow network of §II-D: *users* have unit
//! capacity, *stations* (deployed UAVs) have capacity `C_k`. Stations
//! are added one at a time and saturated by augmenting paths (Kuhn's
//! algorithm generalized to capacitated right-vertices), which keeps the
//! matching maximum after every insertion. A station can also be
//! *evaluated*: inserted, saturated, its gain recorded, and every change
//! rolled back — the primitive behind the greedy marginal-gain oracle
//! `n_{k,l} − n_{k−1}` in Algorithm 2.
//!
//! The structure is allocation-free on the query path: station
//! adjacency lives in two flattened arenas (plain ids, or the words of
//! a 64-aligned bitset list copied verbatim at commit time), the BFS
//! queue and the rollback log are persistent scratch buffers that are
//! reused (never freed) across searches, and [`evaluate_station`]
//! (CapacitatedMatching::evaluate_station) borrows the candidate user
//! list instead of copying it into a temporary station. A free-user
//! bitset mirrors the assignment so pre-passes intersect bitset lists
//! word-by-word instead of probing users one at a time. After warm-up,
//! repeated gain queries and commits perform no heap allocation, which
//! is what makes the subset-sweep oracle loop cheap enough to run
//! millions of times.

use crate::users::UserList;

/// Identifier of a station returned by
/// [`CapacitatedMatching::add_station`].
pub type StationId = usize;

/// An all-ones free-user bitset for `num_users` users, with the bits
/// past the last user masked off so word-wise intersections never
/// fabricate a phantom free user.
fn all_free_words(num_users: usize) -> Vec<u64> {
    let mut words = vec![!0u64; num_users.div_ceil(64)];
    let tail = num_users % 64;
    if tail != 0 {
        if let Some(last) = words.last_mut() {
            *last = (1u64 << tail) - 1;
        }
    }
    words
}

/// Where one committed station's adjacency lives: a span of the id
/// arena, or — for 64-aligned bitset lists — a span of the word arena
/// (committing is then a word memcpy and the saturation pre-pass
/// intersects directly with the free-user bitset).
#[derive(Debug, Clone, Copy)]
enum StationAdj {
    Ids { start: usize, len: usize },
    Words { start: usize, len: usize, base: u32 },
}

/// Work counts of a [`CapacitatedMatching`], summed over its lifetime
/// ([`reset`](CapacitatedMatching::reset) keeps them).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MatchingCounts {
    /// Augmenting-path BFS runs started, successful or not.
    pub bfs_restarts: u64,
    /// Users claimed by the free-user pre-pass of
    /// [`saturate`](CapacitatedMatching::saturate) and trial
    /// insertions: length-1 augmenting paths applied without a BFS.
    pub prepass_hits: u64,
}

/// A maximum capacitated matching maintained incrementally.
///
/// # Examples
///
/// ```
/// use uavnet_flow::CapacitatedMatching;
///
/// let mut m = CapacitatedMatching::new(4);
/// // A station with capacity 2 covering users 0, 1, 2.
/// let s0 = m.add_station(2, &[0, 1, 2]);
/// assert_eq!(m.saturate(s0), 2);
/// // A second station covering users 2, 3 picks up the rest.
/// let s1 = m.add_station(2, &[2, 3]);
/// assert_eq!(m.saturate(s1), 2);
/// assert_eq!(m.matched_count(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct CapacitatedMatching {
    user_station: Vec<Option<StationId>>,
    // Mirror of `user_station`: bit u set ⇔ user u unmatched. Lets the
    // pre-passes intersect 64-aligned bitset coverage lists one word
    // at a time, skipping matched users wholesale.
    free: Vec<u64>,
    station_cap: Vec<u32>,
    station_load: Vec<u32>,
    // Station adjacency: per-station span into one of two shared
    // arenas, kept in whichever representation the caller's list
    // already had (ids stay ids, aligned bitsets stay words).
    station_adj: Vec<StationAdj>,
    adj: Vec<u32>,
    adj_words: Vec<u64>,
    matched: usize,
    // BFS scratch, one slot per station plus one for the trial station
    // (stamped visited marks avoid clearing between searches).
    visit_mark: Vec<u64>,
    epoch: u64,
    parent_station: Vec<usize>,
    parent_user: Vec<u32>,
    // Persistent scratch: BFS queue (head index instead of pop_front)
    // and the `(user, previous station)` log a trial insertion unwinds.
    queue: Vec<usize>,
    rollback: Vec<(u32, Option<StationId>)>,
    counts: MatchingCounts,
}

impl CapacitatedMatching {
    /// Creates an empty matching over `num_users` users.
    pub fn new(num_users: usize) -> Self {
        CapacitatedMatching {
            user_station: vec![None; num_users],
            free: all_free_words(num_users),
            station_cap: Vec::new(),
            station_load: Vec::new(),
            station_adj: Vec::new(),
            adj: Vec::new(),
            adj_words: Vec::new(),
            matched: 0,
            // One scratch slot exists beyond the last real station so a
            // trial station (id == num_stations) can use it.
            visit_mark: vec![0],
            epoch: 0,
            parent_station: vec![usize::MAX],
            parent_user: vec![u32::MAX],
            queue: Vec::new(),
            rollback: Vec::new(),
            counts: MatchingCounts::default(),
        }
    }

    /// Number of users.
    #[inline]
    pub fn num_users(&self) -> usize {
        self.user_station.len()
    }

    /// Number of stations added so far.
    #[inline]
    pub fn num_stations(&self) -> usize {
        self.station_cap.len()
    }

    /// Total number of matched (served) users.
    #[inline]
    pub fn matched_count(&self) -> usize {
        self.matched
    }

    /// The station serving each user (`None` = unserved).
    #[inline]
    pub fn assignment(&self) -> &[Option<StationId>] {
        &self.user_station
    }

    /// Load (users currently served) of a station.
    ///
    /// # Panics
    ///
    /// Panics if `st` is out of range.
    #[inline]
    pub fn station_load(&self, st: StationId) -> u32 {
        self.station_load[st]
    }

    /// Capacity of a station.
    ///
    /// # Panics
    ///
    /// Panics if `st` is out of range.
    #[inline]
    pub fn station_cap(&self, st: StationId) -> u32 {
        self.station_cap[st]
    }

    /// The work of every saturation and trial insertion so far.
    #[inline]
    pub fn counts(&self) -> MatchingCounts {
        self.counts
    }

    /// Clears all stations and assignments while keeping every buffer's
    /// capacity, so a reused instance performs no fresh allocations.
    /// The user count and the [`counts`](Self::counts) are unchanged.
    ///
    /// Costs the total length of the stations' adjacency lists, not the
    /// user count: a matched user is always held through an adjacency
    /// edge of its station (trial insertions unwind their own changes),
    /// so freeing every listed user frees every matched one. A word
    /// station a search flipped to ids lists the same users, and a
    /// deactivated station holds none (walking its list is harmless).
    pub fn reset(&mut self) {
        for &adj in &self.station_adj {
            match adj {
                StationAdj::Ids { start, len } => {
                    for &u in &self.adj[start..start + len] {
                        let u = u as usize;
                        self.user_station[u] = None;
                        self.free[u / 64] |= 1u64 << (u % 64);
                    }
                }
                StationAdj::Words { start, len, base } => {
                    let w0 = (base / 64) as usize;
                    for (wi, &word) in self.adj_words[start..start + len].iter().enumerate() {
                        let mut matched = word & !self.free[w0 + wi];
                        self.free[w0 + wi] |= word;
                        while matched != 0 {
                            let u = (w0 + wi) * 64 + matched.trailing_zeros() as usize;
                            matched &= matched - 1;
                            self.user_station[u] = None;
                        }
                    }
                }
            }
        }
        #[cfg(feature = "debug-validate")]
        {
            assert!(
                self.user_station.iter().all(Option::is_none),
                "debug-validate: reset left a user matched"
            );
            assert!(
                self.free == all_free_words(self.user_station.len()),
                "debug-validate: reset left a user's free bit clear"
            );
        }
        self.station_cap.clear();
        self.station_load.clear();
        self.station_adj.clear();
        self.adj.clear();
        self.adj_words.clear();
        self.matched = 0;
        self.visit_mark.truncate(1);
        self.parent_station.truncate(1);
        self.parent_user.truncate(1);
        // `epoch` keeps counting up: stale marks in the retained slot
        // can never collide with a future epoch.
        self.queue.clear();
        self.rollback.clear();
    }

    /// Adds a station with capacity `cap` able to cover `users`, without
    /// matching anyone yet; call [`saturate`](Self::saturate) to let it
    /// take load. The user list is copied into the internal CSR arena
    /// (one amortized `extend`, no per-station `Vec`).
    ///
    /// # Panics
    ///
    /// Panics if any user id is out of range.
    pub fn add_station(&mut self, cap: u32, users: &[u32]) -> StationId {
        self.add_station_list(cap, UserList::Ids(users))
    }

    /// [`add_station`](Self::add_station) over any [`UserList`]
    /// encoding: id slices and 64-aligned bitset windows are copied
    /// into their arena verbatim (one `extend_from_slice` each — no
    /// per-user decode); unaligned bitsets are decoded.
    ///
    /// # Panics
    ///
    /// Panics if any user id is out of range.
    pub fn add_station_list(&mut self, cap: u32, users: UserList<'_>) -> StationId {
        let n = self.num_users();
        if let Some(max) = users.max_id() {
            assert!((max as usize) < n, "user {max} out of range for {n} users");
        }
        self.station_cap.push(cap);
        self.station_load.push(0);
        match users {
            UserList::Ids(ids) => {
                self.station_adj.push(StationAdj::Ids {
                    start: self.adj.len(),
                    len: ids.len(),
                });
                self.adj.extend_from_slice(ids);
            }
            UserList::Bits { base, words } if base % 64 == 0 => {
                self.station_adj.push(StationAdj::Words {
                    start: self.adj_words.len(),
                    len: words.len(),
                    base,
                });
                self.adj_words.extend_from_slice(words);
            }
            other => {
                let start = self.adj.len();
                other.for_each_while(|u| {
                    self.adj.push(u);
                    true
                });
                self.station_adj.push(StationAdj::Ids {
                    start,
                    len: self.adj.len() - start,
                });
            }
        }
        self.visit_mark.push(0);
        self.parent_station.push(usize::MAX);
        self.parent_user.push(u32::MAX);
        self.station_cap.len() - 1
    }

    /// One augmenting-path BFS from `st`, applying the augmentation if
    /// one is found. With `trial = Some(users)`, `st` is the phantom
    /// station `num_stations` whose adjacency is the borrowed `users`
    /// list; its capacity is enforced by the caller and its load is
    /// never stored. With `record`, every user reassignment is pushed
    /// onto the persistent rollback log for the caller to unwind.
    fn augment_once(&mut self, st: usize, trial: Option<UserList<'_>>, record: bool) -> bool {
        self.counts.bfs_restarts += 1;
        self.epoch += 1;
        let epoch = self.epoch;
        let trial_id = self.station_cap.len();
        self.visit_mark[st] = epoch;
        self.queue.clear();
        self.queue.push(st);
        let mut head = 0;
        while head < self.queue.len() {
            let x = self.queue[head];
            head += 1;
            if x == trial_id {
                // The trial list borrows caller data, so iterating it
                // while mutating `self` needs no indexed re-borrows.
                let t = trial.expect("trial station visited outside a trial search");
                let mut augmented = false;
                t.for_each_while(|u| {
                    augmented = self.relax_user(u, x, st, trial_id, epoch, record);
                    !augmented
                });
                if augmented {
                    return true;
                }
            } else {
                match self.station_adj[x] {
                    StationAdj::Ids { start, len } => {
                        for idx in start..start + len {
                            let u = self.adj[idx];
                            if self.relax_user(u, x, st, trial_id, epoch, record) {
                                return true;
                            }
                        }
                    }
                    StationAdj::Words { start, len, base } => {
                        // A station one restart visits will be rescanned
                        // by many more: decode once into the ids arena
                        // and flip, so every later walk is a slice scan.
                        // (Representation-only — never rolled back.)
                        let ids_start = self.adj.len();
                        for wi in 0..len {
                            let mut bits = self.adj_words[start + wi];
                            while bits != 0 {
                                let u = base + wi as u32 * 64 + bits.trailing_zeros();
                                bits &= bits - 1;
                                self.adj.push(u);
                            }
                        }
                        let ids_len = self.adj.len() - ids_start;
                        self.station_adj[x] = StationAdj::Ids {
                            start: ids_start,
                            len: ids_len,
                        };
                        for idx in ids_start..ids_start + ids_len {
                            let u = self.adj[idx];
                            if self.relax_user(u, x, st, trial_id, epoch, record) {
                                return true;
                            }
                        }
                    }
                }
            }
        }
        false
    }

    /// BFS step on one `station x → user u` edge. Applies and returns
    /// `true` when `u` is free (augmenting path found, reassignment
    /// walked back along the parent chain to `st`); otherwise enqueues
    /// `u`'s current station if unvisited this epoch.
    ///
    /// `inline(always)`: this is the per-element body of every BFS
    /// adjacency walk — an outlined call here costs double-digit
    /// percents on the large sweeps.
    #[inline(always)]
    fn relax_user(
        &mut self,
        u: u32,
        x: usize,
        st: usize,
        trial_id: usize,
        epoch: u64,
        record: bool,
    ) -> bool {
        match self.user_station[u as usize] {
            None => {
                // Only the entry user of the chain was free; everyone
                // else merely changes station.
                self.free[(u / 64) as usize] &= !(1u64 << (u % 64));
                let mut user = u;
                let mut station = x;
                loop {
                    let old = self.user_station[user as usize];
                    if record {
                        self.rollback.push((user, old));
                    }
                    self.user_station[user as usize] = Some(station);
                    if station == st {
                        break;
                    }
                    let pu = self.parent_user[station];
                    let ps = self.parent_station[station];
                    user = pu;
                    station = ps;
                }
                if st != trial_id {
                    self.station_load[st] += 1;
                }
                self.matched += 1;
                true
            }
            Some(y) => {
                if self.visit_mark[y] != epoch {
                    self.visit_mark[y] = epoch;
                    self.parent_station[y] = x;
                    self.parent_user[y] = u;
                    self.queue.push(y);
                }
                false
            }
        }
    }

    /// Augments from `st` until its capacity is full or no augmenting
    /// path remains. Returns the number of newly matched users.
    ///
    /// Adding stations one at a time and saturating each keeps the
    /// matching maximum over all stations added so far (Kuhn's
    /// incremental argument).
    ///
    /// # Panics
    ///
    /// Panics if `st` is out of range.
    pub fn saturate(&mut self, st: StationId) -> u32 {
        assert!(st < self.num_stations(), "station {st} out of range");
        let mut gained = 0;
        // Pre-pass: claim unmatched covered users in adjacency order.
        // A restart-BFS would do exactly this anyway — its level-1 scan
        // returns the earliest free adjacent user before any
        // displacement path is explored — so the final assignment is
        // bit-for-bit the same, minus one BFS restart per claimed user.
        match self.station_adj[st] {
            StationAdj::Ids { start, len } => {
                for idx in start..start + len {
                    if self.station_load[st] >= self.station_cap[st] {
                        break;
                    }
                    let u = self.adj[idx] as usize;
                    if self.user_station[u].is_none() {
                        self.user_station[u] = Some(st);
                        self.free[u / 64] &= !(1u64 << (u % 64));
                        self.station_load[st] += 1;
                        self.matched += 1;
                        gained += 1;
                    }
                }
            }
            // Word stations intersect with the free bitset: every
            // surviving bit is a free covered user, claimed without a
            // per-user assignment lookup. The claim order (ascending)
            // matches the decoded adjacency order exactly.
            StationAdj::Words { start, len, base } => {
                let w0 = (base / 64) as usize;
                'words: for wi in 0..len {
                    let mut bits = self.adj_words[start + wi] & self.free[w0 + wi];
                    while bits != 0 {
                        if self.station_load[st] >= self.station_cap[st] {
                            break 'words;
                        }
                        let u = base + wi as u32 * 64 + bits.trailing_zeros();
                        bits &= bits - 1;
                        self.user_station[u as usize] = Some(st);
                        self.free[w0 + wi] &= !(1u64 << (u % 64));
                        self.station_load[st] += 1;
                        self.matched += 1;
                        gained += 1;
                    }
                }
            }
        }
        self.counts.prepass_hits += u64::from(gained);
        while self.station_load[st] < self.station_cap[st] && self.augment_once(st, None, false) {
            gained += 1;
        }
        #[cfg(feature = "debug-validate")]
        self.assert_consistent();
        gained
    }

    /// Full-state audit: every user's assignment is mirrored in its
    /// station's load, no station exceeds its capacity and the matched
    /// tally agrees. Compiled only under `debug-validate`.
    #[cfg(feature = "debug-validate")]
    fn assert_consistent(&self) {
        let mut loads = vec![0u32; self.num_stations()];
        let mut matched = 0usize;
        for &st in self.user_station.iter().flatten() {
            loads[st] += 1;
            matched += 1;
        }
        assert_eq!(
            matched, self.matched,
            "debug-validate: matched count drifted"
        );
        for (st, &load) in loads.iter().enumerate() {
            assert_eq!(
                load, self.station_load[st],
                "debug-validate: station {st} load drifted"
            );
            assert!(
                load <= self.station_cap[st],
                "debug-validate: station {st} over capacity"
            );
        }
        for (u, st) in self.user_station.iter().enumerate() {
            let bit = self.free[u / 64] >> (u % 64) & 1 == 1;
            assert_eq!(
                bit,
                st.is_none(),
                "debug-validate: free bit drifted for user {u}"
            );
        }
    }

    /// Trial insertion: how many extra users would a station with
    /// capacity `cap` covering `users` serve, on top of the current
    /// matching? The matching is left exactly as it was.
    ///
    /// The candidate list is only borrowed: the search runs against a
    /// phantom station whose adjacency is `users` itself, and all
    /// reassignments are unwound from the persistent rollback log, so a
    /// warm structure performs no allocation per call.
    ///
    /// # Panics
    ///
    /// Panics if any user id is out of range.
    pub fn evaluate_station(&mut self, cap: u32, users: &[u32]) -> u32 {
        self.evaluate_station_list(cap, UserList::Ids(users))
    }

    /// [`evaluate_station`](Self::evaluate_station) over any
    /// [`UserList`] encoding. The compressed list is never decoded into
    /// a buffer: 64-aligned bitset lists are intersected word-wise with
    /// the free-user bitset in the pre-pass, everything else (and the
    /// phantom-station BFS) walks the list in place.
    ///
    /// # Panics
    ///
    /// Panics if any user id is out of range.
    pub fn evaluate_station_list(&mut self, cap: u32, users: UserList<'_>) -> u32 {
        let n = self.num_users();
        if let Some(max) = users.max_id() {
            assert!((max as usize) < n, "user {max} out of range for {n} users");
        }
        let trial_id = self.station_cap.len();
        self.rollback.clear();
        let mut gained = 0;
        // Pre-pass: claim unmatched covered users directly. Each is a
        // length-1 augmenting path, so applying them first leaves the
        // final matching value unchanged while skipping one full BFS
        // restart per claimed user (the dominant cost when the trial
        // station lands on fresh territory).
        match users {
            // 64-aligned bitset windows (what the coverage tables emit)
            // intersect word-by-word with the free bitset: matched
            // users vanish 64 at a time and every surviving bit is a
            // claimable free user — no per-user assignment lookups.
            UserList::Bits { base, words } if base % 64 == 0 => {
                let w0 = (base / 64) as usize;
                'words: for (i, &w) in words.iter().enumerate() {
                    let mut bits = w & self.free[w0 + i];
                    while bits != 0 {
                        if gained >= cap {
                            break 'words;
                        }
                        let u = base + i as u32 * 64 + bits.trailing_zeros();
                        bits &= bits - 1;
                        self.rollback.push((u, None));
                        self.user_station[u as usize] = Some(trial_id);
                        self.free[w0 + i] &= !(1u64 << (u % 64));
                        self.matched += 1;
                        gained += 1;
                    }
                }
            }
            _ => users.for_each_while(|u| {
                if gained >= cap {
                    return false;
                }
                if self.user_station[u as usize].is_none() {
                    self.rollback.push((u, None));
                    self.user_station[u as usize] = Some(trial_id);
                    self.free[(u / 64) as usize] &= !(1u64 << (u % 64));
                    self.matched += 1;
                    gained += 1;
                }
                true
            }),
        }
        self.counts.prepass_hits += u64::from(gained);
        while gained < cap && self.augment_once(trial_id, Some(users), true) {
            gained += 1;
        }
        // Roll back user assignments in reverse order of application.
        while let Some((user, old)) = self.rollback.pop() {
            self.user_station[user as usize] = old;
            if old.is_none() {
                self.free[(user / 64) as usize] |= 1u64 << (user % 64);
            }
        }
        self.matched -= gained as usize;
        // The rollback must have restored the pre-trial matching
        // exactly — a drift here corrupts every later gain query.
        #[cfg(feature = "debug-validate")]
        self.assert_consistent();
        gained
    }

    /// [`evaluate_station_list`](Self::evaluate_station_list) without
    /// adding to [`counts`](Self::counts), for a validating caller that
    /// re-derives an answer it already holds.
    #[cfg(feature = "debug-validate")]
    pub fn evaluate_station_list_uncounted(&mut self, cap: u32, users: UserList<'_>) -> u32 {
        let counts = self.counts;
        let gained = self.evaluate_station_list(cap, users);
        self.counts = counts;
        gained
    }

    /// Extends the user universe to `new_num_users`; new users start
    /// unmatched. The free-user bitset is re-derived from
    /// `user_station` instead of widened in place: the old last word
    /// had its tail bits masked *off*, and those positions now name
    /// real users that must read as free — widening the mask would
    /// leave them permanently invisible to the word-AND pre-passes.
    ///
    /// # Panics
    ///
    /// Panics if `new_num_users` is smaller than the current user
    /// count (the kernel never forgets users).
    pub fn grow_users(&mut self, new_num_users: usize) {
        let old = self.num_users();
        assert!(
            new_num_users >= old,
            "cannot shrink users from {old} to {new_num_users}"
        );
        self.user_station.resize(new_num_users, None);
        self.free = all_free_words(new_num_users);
        for (u, st) in self.user_station.iter().enumerate() {
            if st.is_some() {
                self.free[u / 64] &= !(1u64 << (u % 64));
            }
        }
        #[cfg(feature = "debug-validate")]
        self.assert_consistent();
    }

    /// Takes a station out of service: every user it currently serves
    /// is released back to the free pool, its load drops to zero and
    /// its capacity is zeroed so no later pass re-saturates it. The
    /// station id stays valid (ids are stable); only its ability to
    /// carry load is gone. Returns the number of users released.
    ///
    /// # Panics
    ///
    /// Panics if `st` is out of range.
    pub fn deactivate_station(&mut self, st: StationId) -> u32 {
        assert!(st < self.num_stations(), "station {st} out of range");
        let mut released = 0u32;
        match self.station_adj[st] {
            StationAdj::Ids { start, len } => {
                for idx in start..start + len {
                    let u = self.adj[idx] as usize;
                    if self.user_station[u] == Some(st) {
                        self.user_station[u] = None;
                        self.free[u / 64] |= 1u64 << (u % 64);
                        released += 1;
                    }
                }
            }
            StationAdj::Words { start, len, base } => {
                for wi in 0..len {
                    let mut bits = self.adj_words[start + wi];
                    while bits != 0 {
                        let u = (base + wi as u32 * 64 + bits.trailing_zeros()) as usize;
                        bits &= bits - 1;
                        if self.user_station[u] == Some(st) {
                            self.user_station[u] = None;
                            self.free[u / 64] |= 1u64 << (u % 64);
                            released += 1;
                        }
                    }
                }
            }
        }
        // Every user a station serves is in its adjacency, so the walk
        // must have found exactly the station's load.
        debug_assert_eq!(released, self.station_load[st]);
        self.matched -= released as usize;
        self.station_load[st] = 0;
        self.station_cap[st] = 0;
        #[cfg(feature = "debug-validate")]
        self.assert_consistent();
        released
    }

    /// One maximality-restoring pass: saturates every station that
    /// still has residual capacity, in id order, and returns the
    /// number of newly matched users.
    ///
    /// Starting from *any* valid matching (no over-capacity load,
    /// every assignment covered), a single pass suffices: by the
    /// standard augmenting-path lemma, a station with no augmenting
    /// path cannot gain one from later augmentations (no user ever
    /// becomes free during the pass), so after the pass no deficient
    /// station has an augmenting path and the matching is maximum.
    pub fn resaturate(&mut self) -> u32 {
        let mut gained = 0;
        for st in 0..self.num_stations() {
            if self.station_load[st] < self.station_cap[st] {
                gained += self.saturate(st);
            }
        }
        gained
    }

    /// Builds a matching from scratch: adds every `(capacity, coverable
    /// users)` station in order, saturating each, and returns the
    /// structure. The result is a *maximum* assignment.
    pub fn solve(num_users: usize, stations: &[(u32, Vec<u32>)]) -> Self {
        let mut m = CapacitatedMatching::new(num_users);
        for (cap, users) in stations {
            let st = m.add_station(*cap, users);
            m.saturate(st);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlowNetwork;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Reference solver: max-flow on the 4-layer network of §II-D.
    fn flow_reference(num_users: usize, stations: &[(u32, Vec<u32>)]) -> i64 {
        let k = stations.len();
        let s = 0;
        let t = 1 + num_users + k;
        let mut net = FlowNetwork::new(t + 1);
        for u in 0..num_users {
            net.add_arc(s, 1 + u, 1);
        }
        for (i, (cap, users)) in stations.iter().enumerate() {
            let st_node = 1 + num_users + i;
            for &u in users {
                net.add_arc(1 + u as usize, st_node, 1);
            }
            net.add_arc(st_node, t, *cap as i64);
        }
        net.max_flow(s, t)
    }

    #[test]
    fn simple_saturation() {
        let mut m = CapacitatedMatching::new(3);
        let st = m.add_station(2, &[0, 1, 2]);
        assert_eq!(m.saturate(st), 2);
        assert_eq!(m.matched_count(), 2);
        assert_eq!(m.station_load(st), 2);
    }

    #[test]
    fn counts_split_prepass_claims_from_bfs_runs_and_survive_reset() {
        // The pre-passes claim all four users; then nobody is free, so
        // the trial runs one BFS that finds no augmenting path.
        let mut m = CapacitatedMatching::new(4);
        let a = m.add_station(2, &[0, 1, 2]);
        m.saturate(a);
        let b = m.add_station(2, &[2, 3]);
        m.saturate(b);
        assert_eq!(m.evaluate_station(1, &[0]), 0);
        let expected = MatchingCounts {
            bfs_restarts: 1,
            prepass_hits: 4,
        };
        assert_eq!(m.counts(), expected);
        m.reset();
        assert_eq!(m.counts(), expected);
    }

    #[test]
    fn augmenting_path_reassigns() {
        // Station A covers {0,1} cap 1; B covers {1} cap 1.
        // Greedy could give A user 1 and strand B; augmentation fixes it.
        let mut m = CapacitatedMatching::new(2);
        let a = m.add_station(1, &[1, 0]); // list order tempts A to take 1
        m.saturate(a);
        let b = m.add_station(1, &[1]);
        assert_eq!(m.saturate(b), 1);
        assert_eq!(m.matched_count(), 2);
        assert_eq!(m.assignment()[1], Some(b));
        assert_eq!(m.assignment()[0], Some(a));
    }

    #[test]
    fn chain_of_reassignments() {
        // A:{1,0} B:{1,2} C:{1}, all cap 1. A grabs user 1 first, B
        // displaces it to take 1 via a swap or takes 2 directly; adding
        // C must trigger a chain C←1, B←2 (or equivalent) so that all
        // three users 0, 1, 2 end up served.
        let mut m = CapacitatedMatching::new(3);
        let a = m.add_station(1, &[1, 0]);
        m.saturate(a);
        let b = m.add_station(1, &[1, 2]);
        m.saturate(b);
        let c = m.add_station(1, &[1]);
        assert_eq!(m.saturate(c), 1);
        assert_eq!(m.matched_count(), 3);
        // Every user served by a station that covers it.
        assert_eq!(m.assignment().iter().filter(|a| a.is_some()).count(), 3);
    }

    #[test]
    fn capacity_limits_load() {
        let mut m = CapacitatedMatching::new(5);
        let st = m.add_station(3, &[0, 1, 2, 3, 4]);
        assert_eq!(m.saturate(st), 3);
        assert_eq!(m.station_load(st), 3);
        assert_eq!(m.station_cap(st), 3);
    }

    #[test]
    fn zero_capacity_station() {
        let mut m = CapacitatedMatching::new(2);
        let st = m.add_station(0, &[0, 1]);
        assert_eq!(m.saturate(st), 0);
        assert_eq!(m.matched_count(), 0);
    }

    #[test]
    fn evaluate_leaves_state_untouched() {
        let mut m = CapacitatedMatching::new(4);
        let a = m.add_station(1, &[0, 1]);
        m.saturate(a);
        let before: Vec<_> = m.assignment().to_vec();
        let loads: Vec<_> = (0..m.num_stations()).map(|s| m.station_load(s)).collect();

        let gain = m.evaluate_station(2, &[0, 1, 2]);
        assert_eq!(gain, 2);

        assert_eq!(m.assignment(), &before[..]);
        assert_eq!(m.num_stations(), 1);
        assert_eq!(m.matched_count(), 1);
        for (s, &l) in loads.iter().enumerate() {
            assert_eq!(m.station_load(s), l);
        }
    }

    #[test]
    fn evaluate_matches_actual_insertion() {
        let mut rng = SmallRng::seed_from_u64(42);
        for _ in 0..50 {
            let num_users = rng.gen_range(1..20);
            let mut m = CapacitatedMatching::new(num_users);
            // Seed with a few random stations.
            for _ in 0..rng.gen_range(0..4) {
                let cap = rng.gen_range(0..4);
                let users: Vec<u32> = (0..num_users as u32)
                    .filter(|_| rng.gen_bool(0.4))
                    .collect();
                let st = m.add_station(cap, &users);
                m.saturate(st);
            }
            let cap = rng.gen_range(0..5);
            let users: Vec<u32> = (0..num_users as u32)
                .filter(|_| rng.gen_bool(0.5))
                .collect();
            let predicted = m.evaluate_station(cap, &users);
            let st = m.add_station(cap, &users);
            let actual = m.saturate(st);
            assert_eq!(predicted, actual);
        }
    }

    #[test]
    fn matches_flow_reference_on_random_instances() {
        let mut rng = SmallRng::seed_from_u64(7);
        for round in 0..60 {
            let num_users = rng.gen_range(1..25);
            let num_stations = rng.gen_range(0..6);
            let stations: Vec<(u32, Vec<u32>)> = (0..num_stations)
                .map(|_| {
                    let cap = rng.gen_range(0..6);
                    let users = (0..num_users as u32)
                        .filter(|_| rng.gen_bool(0.3))
                        .collect();
                    (cap, users)
                })
                .collect();
            let m = CapacitatedMatching::solve(num_users, &stations);
            let reference = flow_reference(num_users, &stations);
            assert_eq!(m.matched_count() as i64, reference, "round {round}");
        }
    }

    #[test]
    fn assignment_respects_coverage_and_capacity() {
        let mut rng = SmallRng::seed_from_u64(99);
        for _ in 0..30 {
            let num_users = rng.gen_range(1..30);
            let stations: Vec<(u32, Vec<u32>)> = (0..rng.gen_range(1..5))
                .map(|_| {
                    let cap = rng.gen_range(1..5);
                    let users = (0..num_users as u32)
                        .filter(|_| rng.gen_bool(0.4))
                        .collect();
                    (cap, users)
                })
                .collect();
            let m = CapacitatedMatching::solve(num_users, &stations);
            let mut loads = vec![0u32; stations.len()];
            for (u, st) in m.assignment().iter().enumerate() {
                if let Some(st) = *st {
                    assert!(
                        stations[st].1.contains(&(u as u32)),
                        "user {u} not coverable by station {st}"
                    );
                    loads[st] += 1;
                }
            }
            for (st, &l) in loads.iter().enumerate() {
                assert!(l <= stations[st].0, "station {st} over capacity");
                assert_eq!(l, m.station_load(st));
            }
        }
    }

    #[test]
    fn evaluate_then_reset_yields_reusable_empty_matching() {
        let mut m = CapacitatedMatching::new(6);
        let a = m.add_station(2, &[0, 1, 2]);
        m.saturate(a);
        let b = m.add_station(1, &[2, 3]);
        m.saturate(b);
        assert!(m.evaluate_station(3, &[3, 4, 5]) > 0);

        m.reset();
        assert_eq!(m.num_stations(), 0);
        assert_eq!(m.matched_count(), 0);
        assert_eq!(m.num_users(), 6);
        assert!(m.assignment().iter().all(|a| a.is_none()));

        // The reused structure behaves exactly like a fresh one.
        let st = m.add_station(2, &[0, 1, 2]);
        assert_eq!(m.evaluate_station(2, &[1, 3]), 2);
        assert_eq!(m.saturate(st), 2);
        assert_eq!(m.matched_count(), 2);
        let mut fresh = CapacitatedMatching::new(6);
        let fs = fresh.add_station(2, &[0, 1, 2]);
        fresh.saturate(fs);
        assert_eq!(fresh.assignment(), m.assignment());
    }

    #[test]
    fn reset_frees_every_user_its_stations_matched() {
        let n = 200;
        // 64-aligned bitset windows stay in the word arena.
        let (half_taken, saturated) = ([!0u64, (1 << 36) - 1], [!0u64]);
        let (held, deactivated, partial): (Vec<u32>, Vec<u32>, Vec<u32>) = (
            (20..45).collect(),
            (192..200).collect(),
            (100..110).collect(),
        );
        let stations = [
            // Users 0..100, half of them taken.
            (
                50,
                UserList::Bits {
                    base: 0,
                    words: &half_taken,
                },
            ),
            // Users 128..192, saturated.
            (
                64,
                UserList::Bits {
                    base: 128,
                    words: &saturated,
                },
            ),
            // Users 20..45, all held by station 0: its augmenting paths
            // walk station 0's list, which flips it to ids.
            (10, UserList::Ids(&held)),
            // Users 192..200, saturated, then deactivated.
            (8, UserList::Ids(&deactivated)),
            // Users 100..110, below capacity.
            (20, UserList::Ids(&partial)),
        ];
        let commit_all = |m: &mut CapacitatedMatching| {
            for &(cap, users) in &stations {
                let st = m.add_station_list(cap, users);
                m.saturate(st);
            }
            m.deactivate_station(3);
        };
        let mut m = CapacitatedMatching::new(n);
        commit_all(&mut m);
        assert!(
            matches!(m.station_adj[0], StationAdj::Ids { .. }),
            "a search must have flipped station 0 to ids"
        );
        assert!(matches!(m.station_adj[1], StationAdj::Words { .. }));
        assert_eq!(m.station_load(2), 10);
        assert_eq!(m.matched_count(), 50 + 64 + 10 + 10);
        // Trial insertions of both encodings leave nothing behind.
        let words = [!0u64, !0];
        assert!(
            m.evaluate_station_list(
                30,
                UserList::Bits {
                    base: 64,
                    words: &words
                }
            ) > 0
        );
        assert!(m.evaluate_station(5, &[0, 1, 150, 199]) > 0);

        for _ in 0..2 {
            m.reset();
            assert_eq!(m.num_stations(), 0);
            assert_eq!(m.matched_count(), 0);
            assert!(m.assignment().iter().all(Option::is_none));
            assert_eq!(m.free, all_free_words(n));
            // Replaying the stations gives the fresh matching's result.
            commit_all(&mut m);
            let mut fresh = CapacitatedMatching::new(n);
            commit_all(&mut fresh);
            assert_eq!(m.assignment(), fresh.assignment());
            assert_eq!(m.matched_count(), fresh.matched_count());
            for st in 0..stations.len() {
                assert_eq!(m.station_load(st), fresh.station_load(st));
            }
        }
    }

    #[test]
    fn trial_station_can_be_revisited_in_chained_augmentations() {
        // The trial station takes user 1 first; its second augmenting
        // path must route through its own earlier assignment (the BFS
        // revisits the phantom id), then everything rolls back.
        let mut m = CapacitatedMatching::new(3);
        let a = m.add_station(1, &[0, 1]);
        m.saturate(a); // a ← user 0
        let before = m.assignment().to_vec();
        let gain = m.evaluate_station(2, &[1, 2]);
        assert_eq!(gain, 2);
        assert_eq!(m.assignment(), &before[..]);
        assert_eq!(m.matched_count(), 1);
    }

    /// Packs a sorted id slice into a bitset window based at the first id.
    fn bits_of(ids: &[u32]) -> (u32, Vec<u64>) {
        let base = ids.first().copied().unwrap_or(0);
        let span = ids.last().map_or(0, |&l| (l - base) as usize + 1);
        let mut words = vec![0u64; span.div_ceil(64)];
        for &u in ids {
            let off = (u - base) as usize;
            words[off / 64] |= 1 << (off % 64);
        }
        (base, words)
    }

    #[test]
    fn list_encodings_evaluate_and_commit_identically() {
        let mut rng = SmallRng::seed_from_u64(2024);
        for _ in 0..40 {
            let num_users = rng.gen_range(1..40);
            let mut seed = CapacitatedMatching::new(num_users);
            for _ in 0..rng.gen_range(0..4) {
                let cap = rng.gen_range(0..5);
                let users: Vec<u32> = (0..num_users as u32)
                    .filter(|_| rng.gen_bool(0.4))
                    .collect();
                let st = seed.add_station(cap, &users);
                seed.saturate(st);
            }
            let cap = rng.gen_range(0..6);
            let ids: Vec<u32> = (0..num_users as u32)
                .filter(|_| rng.gen_bool(0.5))
                .collect();
            let (base, words) = bits_of(&ids);
            let lists = [
                UserList::Ids(&ids),
                UserList::Bits {
                    base,
                    words: &words,
                },
            ];
            // Same gain from every encoding, and the committed matching
            // is bit-for-bit the slice-path result.
            let mut reference = seed.clone();
            let want = reference.evaluate_station(cap, &ids);
            let rst = reference.add_station(cap, &ids);
            reference.saturate(rst);
            for list in lists {
                let mut m = seed.clone();
                assert_eq!(m.evaluate_station_list(cap, list), want);
                assert_eq!(m.assignment(), seed.assignment(), "trial must roll back");
                let st = m.add_station_list(cap, list);
                m.saturate(st);
                assert_eq!(m.assignment(), reference.assignment());
                assert_eq!(m.matched_count(), reference.matched_count());
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_user_id() {
        let mut m = CapacitatedMatching::new(2);
        m.add_station(1, &[2]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn evaluate_rejects_bad_user_id() {
        let mut m = CapacitatedMatching::new(2);
        m.evaluate_station(1, &[5]);
    }

    #[test]
    fn grow_users_unmasks_tail_word() {
        // 3 users: the first free word is ..0111. Growing to 70 users
        // must make users 3..70 visible to the word-AND pre-pass — a
        // widened mask would leave 3..63 permanently "matched".
        let mut m = CapacitatedMatching::new(3);
        let a = m.add_station(3, &[0, 1, 2]);
        m.saturate(a);
        m.grow_users(70);
        assert_eq!(m.num_users(), 70);
        assert_eq!(m.matched_count(), 3);
        // A 64-aligned bitset station covering the grown tail must be
        // able to claim it through the word-wise pre-pass.
        let words = [!0u64, (1u64 << 6) - 1]; // users 0..70
        let st = m.add_station_list(
            67,
            UserList::Bits {
                base: 0,
                words: &words,
            },
        );
        assert_eq!(m.saturate(st), 67);
        assert_eq!(m.matched_count(), 70);
    }

    #[test]
    fn grow_users_matches_fresh_matching() {
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..30 {
            let n0 = rng.gen_range(1..40);
            let n1 = n0 + rng.gen_range(0..80usize);
            let stations: Vec<(u32, Vec<u32>)> = (0..rng.gen_range(1..5))
                .map(|_| {
                    let cap = rng.gen_range(0..6);
                    let users = (0..n0 as u32).filter(|_| rng.gen_bool(0.4)).collect();
                    (cap, users)
                })
                .collect();
            let mut grown = CapacitatedMatching::solve(n0, &stations);
            grown.grow_users(n1);
            let late_cap = rng.gen_range(1..6);
            let late: Vec<u32> = (0..n1 as u32).filter(|_| rng.gen_bool(0.4)).collect();
            let st = grown.add_station(late_cap, &late);
            grown.saturate(st);

            let mut all = stations.clone();
            all.push((late_cap, late));
            let fresh = CapacitatedMatching::solve(n1, &all);
            assert_eq!(grown.matched_count(), fresh.matched_count());
        }
    }

    #[test]
    fn deactivate_releases_exactly_its_users() {
        let mut m = CapacitatedMatching::new(4);
        let a = m.add_station(2, &[0, 1]);
        m.saturate(a);
        let b = m.add_station(2, &[2, 3]);
        m.saturate(b);
        assert_eq!(m.matched_count(), 4);
        assert_eq!(m.deactivate_station(a), 2);
        assert_eq!(m.matched_count(), 2);
        assert_eq!(m.station_load(a), 0);
        assert_eq!(m.station_cap(a), 0);
        assert_eq!(m.assignment()[0], None);
        assert_eq!(m.assignment()[1], None);
        assert_eq!(m.assignment()[2], Some(b));
        // Re-deactivating is a no-op.
        assert_eq!(m.deactivate_station(a), 0);
        // A replacement station can re-claim the released users.
        let c = m.add_station(2, &[0, 1]);
        assert_eq!(m.saturate(c), 2);
        assert_eq!(m.matched_count(), 4);
    }

    #[test]
    fn deactivate_word_station_releases_users() {
        let words = [0b1111u64];
        let mut m = CapacitatedMatching::new(4);
        let st = m.add_station_list(
            3,
            UserList::Bits {
                base: 0,
                words: &words,
            },
        );
        m.saturate(st);
        assert_eq!(m.matched_count(), 3);
        assert_eq!(m.deactivate_station(st), 3);
        assert_eq!(m.matched_count(), 0);
        assert!(m.assignment().iter().all(|a| a.is_none()));
    }

    #[test]
    fn resaturate_restores_maximum_after_deactivation() {
        let mut rng = SmallRng::seed_from_u64(23);
        for round in 0..40 {
            let num_users = rng.gen_range(1..30);
            let stations: Vec<(u32, Vec<u32>)> = (0..rng.gen_range(2..6))
                .map(|_| {
                    let cap = rng.gen_range(0..5);
                    let users = (0..num_users as u32)
                        .filter(|_| rng.gen_bool(0.35))
                        .collect();
                    (cap, users)
                })
                .collect();
            let mut m = CapacitatedMatching::solve(num_users, &stations);
            let dead = rng.gen_range(0..stations.len());
            m.deactivate_station(dead);
            m.resaturate();

            // The incremental result must equal a cold rebuild without
            // the dead station (max matching value is unique).
            let survivors: Vec<(u32, Vec<u32>)> = stations
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != dead)
                .map(|(_, s)| s.clone())
                .collect();
            let fresh = CapacitatedMatching::solve(num_users, &survivors);
            assert_eq!(m.matched_count(), fresh.matched_count(), "round {round}");
        }
    }

    #[test]
    fn resaturate_after_grow_equals_cold_solve() {
        let mut rng = SmallRng::seed_from_u64(31);
        for round in 0..30 {
            let n0 = rng.gen_range(1..25);
            let n1 = n0 + rng.gen_range(1..70usize);
            // Stations whose coverage extends past the original user
            // count (as coverage tables would after a surge rebuild).
            let full: Vec<(u32, Vec<u32>)> = (0..rng.gen_range(1..5))
                .map(|_| {
                    let cap = rng.gen_range(0..6);
                    let users = (0..n1 as u32).filter(|_| rng.gen_bool(0.4)).collect();
                    (cap, users)
                })
                .collect();
            // Seed the standing matching on the truncated universe.
            let truncated: Vec<(u32, Vec<u32>)> = full
                .iter()
                .map(|(c, us)| (*c, us.iter().copied().filter(|&u| u < n0 as u32).collect()))
                .collect();
            let mut m = CapacitatedMatching::solve(n0, &truncated);
            m.grow_users(n1);
            // Surged users appear as fresh stations carrying the new
            // coverage (the loop re-adds refreshed stations this way).
            for (i, (cap, users)) in full.iter().enumerate() {
                m.deactivate_station(i);
                let st = m.add_station(*cap, users);
                assert_eq!(st, full.len() + i);
            }
            m.resaturate();
            let fresh = CapacitatedMatching::solve(n1, &full);
            assert_eq!(m.matched_count(), fresh.matched_count(), "round {round}");
        }
    }
}
