//! Lazy greedy for monotone submodular maximization under matroid-style
//! feasibility constraints.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A stateful marginal-gain oracle for a monotone submodular objective.
///
/// The greedy calls [`gain`](MarginalOracle::gain) to evaluate the
/// marginal value of adding an element to the current solution and
/// [`commit`](MarginalOracle::commit) when an element is chosen.
///
/// **Lazy-evaluation contract:** a gain computed earlier (against a
/// smaller solution, or an earlier iteration) must upper-bound the gain
/// of the same element now. Plain submodular functions satisfy this;
/// the paper's capacity-ordered variant does too because UAVs are
/// committed in non-increasing capacity order. The greedy
/// debug-asserts the contract.
pub trait MarginalOracle {
    /// Marginal gain of adding `e` to the current solution.
    fn gain(&mut self, e: usize) -> u64;

    /// Incorporates `e` into the solution.
    fn commit(&mut self, e: usize);

    /// Hook invoked when the greedy starts selecting its `k`-th element
    /// (0-based), before any gains for that pick are evaluated.
    fn begin_iteration(&mut self, _k: usize) {}

    /// Whether gains cached while selecting element `prev` remain valid
    /// upper bounds while selecting element `next` (`next = prev + 1`).
    ///
    /// Return `false` when the objective changes between picks in a
    /// way that may *increase* an element's gain — e.g. the paper's
    /// coverage oracle deploys a different radio class next, so a
    /// location's reachable-user set grows. The greedy then discards
    /// every cached bound and re-evaluates lazily from scratch.
    fn bounds_carry_over(&self, _prev: usize, _next: usize) -> bool {
        true
    }

    /// A cheap *admissible* upper bound on [`gain`](Self::gain) of `e`
    /// against the oracle's current state — e.g. `min(capacity,
    /// |coverable users|)` for the coverage oracle. The greedy seeds its
    /// heap with these instead of `u64::MAX`, so elements whose bound
    /// never reaches the top are never evaluated at all. Must satisfy
    /// `gain(e) <= gain_upper_bound(e)` whenever the bound is computed
    /// (at seeding and at every cache invalidation); the default is the
    /// trivial bound. The selected elements are identical for any
    /// admissible bound — tighter bounds only skip evaluations.
    fn gain_upper_bound(&self, _e: usize) -> u64 {
        u64::MAX
    }
}

/// Options for [`lazy_greedy`].
#[derive(Debug, Clone, Copy)]
pub struct GreedyOptions {
    /// Maximum number of elements to select.
    pub max_picks: usize,
    /// If `false`, stop as soon as the best available gain is zero; if
    /// `true`, keep selecting zero-gain feasible elements until
    /// `max_picks` (the paper's Algorithm 2 runs a fixed `L_max`
    /// iterations, so its feasible seed nodes are always included even
    /// when their marginal coverage is zero).
    pub allow_zero_gain: bool,
}

/// Work counts of [`lazy_greedy_with`], summed over every run in one
/// [`LazyGreedyWorkspace`]. Oracle evaluations are not counted here:
/// the oracle sees each [`gain`](MarginalOracle::gain) call itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GreedyCounts {
    /// Heap pops whose cached gain was still current, so the element
    /// won without another oracle evaluation (CELF bound hits).
    pub bound_hits: u64,
    /// Full heap re-seeds after
    /// [`bounds_carry_over`](MarginalOracle::bounds_carry_over)
    /// returned `false`.
    pub bound_reseeds: u64,
    /// Elements committed.
    pub commits: u64,
}

/// Reusable buffers for [`lazy_greedy_with`].
///
/// The greedy's upper-bound heap and chosen-set vector are the only
/// allocations a run needs; keeping them in a workspace lets a caller
/// that runs the greedy many times (e.g. once per seed subset of the
/// sweep) amortize them down to zero per-run allocations after warm-up.
#[derive(Debug, Default)]
pub struct LazyGreedyWorkspace {
    heap: BinaryHeap<(u64, Reverse<usize>, usize)>,
    // Scratch for re-seeding the heap when cached bounds are invalidated.
    stale: Vec<usize>,
    chosen: Vec<usize>,
    counts: GreedyCounts,
}

impl LazyGreedyWorkspace {
    /// An empty workspace; buffers grow on first use and are then
    /// reused across runs.
    pub fn new() -> Self {
        Self::default()
    }

    /// The work of every run so far.
    pub fn counts(&self) -> GreedyCounts {
        self.counts
    }
}

/// Fisher–Nemhauser–Wolsey greedy with lazy marginal evaluation.
///
/// Selects up to `options.max_picks` elements from `ground`, each time
/// adding a feasible element of maximum marginal gain. `feasible(set,
/// e)` must implement a *hereditary* constraint (e.g. the intersection
/// of matroids via [`Matroid::can_extend`]): once an element is
/// infeasible against the current set it must stay infeasible against
/// any superset — the greedy prunes on that assumption.
///
/// Under the intersection of `ρ` matroids this achieves the classic
/// `1/(ρ+1)` approximation for monotone submodular objectives.
///
/// Allocates a fresh workspace per call; use [`lazy_greedy_with`] to
/// reuse buffers across many runs.
///
/// [`Matroid::can_extend`]: crate::Matroid::can_extend
///
/// # Examples
///
/// ```
/// use uavnet_matroid::{lazy_greedy, GreedyOptions, MarginalOracle, Matroid, UniformMatroid};
///
/// // Weighted coverage: each element covers a set of items.
/// struct Cover {
///     sets: Vec<Vec<usize>>,
///     covered: Vec<bool>,
/// }
/// impl MarginalOracle for Cover {
///     fn gain(&mut self, e: usize) -> u64 {
///         self.sets[e].iter().filter(|&&i| !self.covered[i]).count() as u64
///     }
///     fn commit(&mut self, e: usize) {
///         for &i in &self.sets[e] {
///             self.covered[i] = true;
///         }
///     }
/// }
///
/// let mut oracle = Cover {
///     sets: vec![vec![0, 1, 2], vec![2, 3], vec![0, 1]],
///     covered: vec![false; 4],
/// };
/// let matroid = UniformMatroid::new(3, 2);
/// let picks = lazy_greedy(
///     &mut oracle,
///     &[0, 1, 2],
///     |set, e| matroid.can_extend(set, e),
///     GreedyOptions { max_picks: 2, allow_zero_gain: false },
/// );
/// assert_eq!(picks, vec![0, 1]); // covers all four items
/// ```
pub fn lazy_greedy<O, F>(
    oracle: &mut O,
    ground: &[usize],
    feasible: F,
    options: GreedyOptions,
) -> Vec<usize>
where
    O: MarginalOracle,
    F: FnMut(&[usize], usize) -> bool,
{
    let mut workspace = LazyGreedyWorkspace::new();
    lazy_greedy_with(&mut workspace, oracle, ground, feasible, options);
    workspace.chosen
}

/// [`lazy_greedy`] running inside a caller-owned [`LazyGreedyWorkspace`],
/// so repeated runs reuse the heap and chosen-set buffers instead of
/// reallocating them. Returns the chosen elements as a slice into the
/// workspace (valid until the next run).
pub fn lazy_greedy_with<'w, O, F>(
    workspace: &'w mut LazyGreedyWorkspace,
    oracle: &mut O,
    ground: &[usize],
    mut feasible: F,
    options: GreedyOptions,
) -> &'w [usize]
where
    O: MarginalOracle,
    F: FnMut(&[usize], usize) -> bool,
{
    // Heap entries: (cached gain, element, pick index when computed).
    // `Reverse` on the element makes ties deterministic (smallest id
    // first), matching the eager reference implementation in tests.
    const NEVER: usize = usize::MAX;
    let LazyGreedyWorkspace {
        heap,
        stale,
        chosen,
        counts,
    } = workspace;
    heap.clear();
    heap.extend(
        ground
            .iter()
            .map(|&e| (oracle.gain_upper_bound(e), Reverse(e), NEVER)),
    );
    chosen.clear();

    for k in 0..options.max_picks {
        oracle.begin_iteration(k);
        if k > 0 && !oracle.bounds_carry_over(k - 1, k) {
            // Cached gains may now under-report; reset every entry to
            // a fresh admissible bound so each is recomputed before use.
            counts.bound_reseeds += 1;
            stale.clear();
            stale.extend(heap.drain().map(|(_, Reverse(e), _)| e));
            heap.extend(
                stale
                    .iter()
                    .map(|&e| (oracle.gain_upper_bound(e), Reverse(e), NEVER)),
            );
        }
        let mut pick = None;
        while let Some((cached, Reverse(e), computed_at)) = heap.pop() {
            if chosen.contains(&e) {
                continue;
            }
            if !feasible(chosen, e) {
                // Hereditary constraints: infeasible now ⇒ infeasible
                // forever; drop the element.
                continue;
            }
            if computed_at == k {
                // CELF bound hit: the cached gain is still current, so
                // the element wins without another oracle evaluation.
                counts.bound_hits += 1;
                pick = Some((e, cached));
                break;
            }
            let g = oracle.gain(e);
            // Holds both for gains cached at an earlier pick (the lazy
            // contract) and for never-evaluated entries, whose `cached`
            // is the oracle's admissible upper bound.
            debug_assert!(
                g <= cached,
                "lazy contract violated for element {e}: {g} > cached {cached}"
            );
            heap.push((g, Reverse(e), k));
        }
        match pick {
            Some((_, 0)) if !options.allow_zero_gain => break,
            Some((e, _)) => {
                counts.commits += 1;
                chosen.push(e);
                oracle.commit(e);
            }
            None => break, // no feasible element left
        }
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Matroid, NestedFamilyMatroid, PartitionMatroid, UniformMatroid};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Unweighted set-cover oracle used across the tests.
    struct Cover {
        sets: Vec<Vec<usize>>,
        covered: Vec<bool>,
    }

    impl Cover {
        fn new(sets: Vec<Vec<usize>>, universe: usize) -> Self {
            Cover {
                sets,
                covered: vec![false; universe],
            }
        }
        fn covered_count(&self) -> usize {
            self.covered.iter().filter(|&&c| c).count()
        }
    }

    impl MarginalOracle for Cover {
        fn gain(&mut self, e: usize) -> u64 {
            self.sets[e].iter().filter(|&&i| !self.covered[i]).count() as u64
        }
        fn commit(&mut self, e: usize) {
            for &i in &self.sets[e] {
                self.covered[i] = true;
            }
        }
    }

    /// Eager reference greedy: recompute every gain each round, pick
    /// the max (ties: smallest element id).
    fn eager_greedy(
        sets: &[Vec<usize>],
        universe: usize,
        feasible: impl Fn(&[usize], usize) -> bool,
        max_picks: usize,
    ) -> Vec<usize> {
        let mut covered = vec![false; universe];
        let mut chosen: Vec<usize> = Vec::new();
        for _ in 0..max_picks {
            let mut best: Option<(u64, usize)> = None;
            for (e, set) in sets.iter().enumerate() {
                if chosen.contains(&e) || !feasible(&chosen, e) {
                    continue;
                }
                let g = set.iter().filter(|&&i| !covered[i]).count() as u64;
                let better = match best {
                    None => true,
                    Some((bg, be)) => g > bg || (g == bg && e < be),
                };
                if better {
                    best = Some((g, e));
                }
            }
            match best {
                Some((g, e)) if g > 0 => {
                    chosen.push(e);
                    for &i in &sets[e] {
                        covered[i] = true;
                    }
                }
                _ => break,
            }
        }
        chosen
    }

    #[test]
    fn picks_greedy_order() {
        let sets = vec![vec![0, 1], vec![0, 1, 2, 3], vec![4]];
        let mut oracle = Cover::new(sets, 5);
        let picks = lazy_greedy(
            &mut oracle,
            &[0, 1, 2],
            |_, _| true,
            GreedyOptions {
                max_picks: 2,
                allow_zero_gain: false,
            },
        );
        assert_eq!(picks, vec![1, 2]);
        assert_eq!(oracle.covered_count(), 5);
    }

    #[test]
    fn workspace_counts_accumulate_across_runs() {
        let sets = vec![vec![0, 1], vec![0, 1, 2, 3], vec![4]];
        let options = GreedyOptions {
            max_picks: 2,
            allow_zero_gain: false,
        };
        let run = |ws: &mut LazyGreedyWorkspace| {
            let mut oracle = Cover::new(sets.clone(), 5);
            lazy_greedy_with(ws, &mut oracle, &[0, 1, 2], |_, _| true, options).len()
        };
        let mut ws = LazyGreedyWorkspace::new();
        assert_eq!(run(&mut ws), 2);
        let once = ws.counts();
        // Every pick is a bound hit: it wins only once its gain is current.
        assert_eq!(
            once,
            GreedyCounts {
                bound_hits: 2,
                bound_reseeds: 0,
                commits: 2,
            }
        );
        run(&mut ws);
        assert_eq!(ws.counts().commits, 2 * once.commits);
        assert_eq!(ws.counts().bound_hits, 2 * once.bound_hits);
    }

    #[test]
    fn stops_at_zero_gain_when_disallowed() {
        let sets = vec![vec![0], vec![0], vec![0]];
        let mut oracle = Cover::new(sets, 1);
        let picks = lazy_greedy(
            &mut oracle,
            &[0, 1, 2],
            |_, _| true,
            GreedyOptions {
                max_picks: 3,
                allow_zero_gain: false,
            },
        );
        assert_eq!(picks.len(), 1);
    }

    #[test]
    fn continues_at_zero_gain_when_allowed() {
        let sets = vec![vec![0], vec![0], vec![0]];
        let mut oracle = Cover::new(sets, 1);
        let picks = lazy_greedy(
            &mut oracle,
            &[0, 1, 2],
            |_, _| true,
            GreedyOptions {
                max_picks: 3,
                allow_zero_gain: true,
            },
        );
        assert_eq!(picks.len(), 3);
    }

    #[test]
    fn respects_partition_matroid() {
        // Elements 0,1 are in part 0 (budget 1): only one may be taken.
        let sets = vec![vec![0, 1, 2], vec![3, 4, 5], vec![6]];
        let m = PartitionMatroid::new(vec![0, 0, 1], vec![1, 1]);
        let mut oracle = Cover::new(sets, 7);
        let picks = lazy_greedy(
            &mut oracle,
            &[0, 1, 2],
            |set, e| m.can_extend(set, e),
            GreedyOptions {
                max_picks: 3,
                allow_zero_gain: false,
            },
        );
        assert_eq!(picks.len(), 2);
        assert!(picks.contains(&2));
        assert!(!(picks.contains(&0) && picks.contains(&1)));
    }

    #[test]
    fn respects_two_matroid_intersection() {
        let sets = vec![vec![0], vec![1], vec![2], vec![3]];
        let part = PartitionMatroid::new(vec![0, 0, 1, 1], vec![1, 1]);
        let unif = UniformMatroid::new(4, 1);
        let mut oracle = Cover::new(sets, 4);
        let picks = lazy_greedy(
            &mut oracle,
            &[0, 1, 2, 3],
            |set, e| part.can_extend(set, e) && unif.can_extend(set, e),
            GreedyOptions {
                max_picks: 4,
                allow_zero_gain: false,
            },
        );
        assert_eq!(picks.len(), 1);
    }

    #[test]
    fn respects_nested_matroid_depth_budgets() {
        // Deep elements are more valuable but capped at one.
        let sets = vec![vec![0, 1, 2], vec![3, 4, 5], vec![6]];
        let m = NestedFamilyMatroid::new(vec![Some(1), Some(1), Some(0)], vec![3, 1]);
        let mut oracle = Cover::new(sets, 7);
        let picks = lazy_greedy(
            &mut oracle,
            &[0, 1, 2],
            |set, e| m.can_extend(set, e),
            GreedyOptions {
                max_picks: 3,
                allow_zero_gain: false,
            },
        );
        // Only one of {0, 1} (depth 1) plus element 2.
        assert_eq!(picks.len(), 2);
        assert!(picks.contains(&2));
    }

    #[test]
    fn matches_eager_greedy_on_random_instances() {
        let mut rng = SmallRng::seed_from_u64(2023);
        for round in 0..40 {
            let universe = rng.gen_range(1..30);
            let num_sets = rng.gen_range(1..12);
            let sets: Vec<Vec<usize>> = (0..num_sets)
                .map(|_| (0..universe).filter(|_| rng.gen_bool(0.3)).collect())
                .collect();
            let max_picks = rng.gen_range(1..=num_sets);
            // Random partition matroid over the sets.
            let parts: Vec<usize> = (0..num_sets).map(|_| rng.gen_range(0..3)).collect();
            let budgets = vec![rng.gen_range(1..3); 3];
            let m = PartitionMatroid::new(parts, budgets);

            let mut oracle = Cover::new(sets.clone(), universe);
            let ground: Vec<usize> = (0..num_sets).collect();
            let lazy = lazy_greedy(
                &mut oracle,
                &ground,
                |set, e| m.can_extend(set, e),
                GreedyOptions {
                    max_picks,
                    allow_zero_gain: false,
                },
            );
            let eager = eager_greedy(&sets, universe, |set, e| m.can_extend(set, e), max_picks);
            assert_eq!(lazy, eager, "round {round}");
        }
    }

    #[test]
    fn greedy_achieves_half_opt_under_one_matroid() {
        // 1/(ρ+1) = 1/2 guarantee under a single matroid: verify against
        // brute force on random small instances.
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..30 {
            let universe = rng.gen_range(1..12);
            let num_sets = rng.gen_range(1..8);
            let sets: Vec<Vec<usize>> = (0..num_sets)
                .map(|_| (0..universe).filter(|_| rng.gen_bool(0.35)).collect())
                .collect();
            let rank = rng.gen_range(1..=num_sets);
            let m = UniformMatroid::new(num_sets, rank);

            let mut oracle = Cover::new(sets.clone(), universe);
            let ground: Vec<usize> = (0..num_sets).collect();
            let picks = lazy_greedy(
                &mut oracle,
                &ground,
                |set, e| m.can_extend(set, e),
                GreedyOptions {
                    max_picks: rank,
                    allow_zero_gain: false,
                },
            );
            let greedy_val = oracle.covered_count();

            // Brute-force optimum over all ≤rank subsets.
            let mut opt = 0;
            for mask in 0usize..1 << num_sets {
                if (mask.count_ones() as usize) > rank {
                    continue;
                }
                let mut cov = vec![false; universe];
                for (e, set) in sets.iter().enumerate() {
                    if mask >> e & 1 == 1 {
                        for &i in set {
                            cov[i] = true;
                        }
                    }
                }
                opt = opt.max(cov.iter().filter(|&&c| c).count());
            }
            assert!(
                2 * greedy_val >= opt,
                "greedy {greedy_val} < OPT/2 (OPT={opt}); picks={picks:?}"
            );
        }
    }

    /// [`Cover`] plus a query counter and an optional admissible bound:
    /// `|set|` (a set can never newly cover more items than it
    /// contains), or the trivial `u64::MAX` when disabled.
    struct BoundedCover {
        inner: Cover,
        use_bound: bool,
        queries: u64,
    }

    impl MarginalOracle for BoundedCover {
        fn gain(&mut self, e: usize) -> u64 {
            self.queries += 1;
            self.inner.gain(e)
        }
        fn commit(&mut self, e: usize) {
            self.inner.commit(e);
        }
        fn gain_upper_bound(&self, e: usize) -> u64 {
            if self.use_bound {
                self.inner.sets[e].len() as u64
            } else {
                u64::MAX
            }
        }
    }

    #[test]
    fn admissible_bounds_pick_identically_with_fewer_queries() {
        let mut rng = SmallRng::seed_from_u64(11);
        let mut strictly_fewer = 0;
        for round in 0..40 {
            let universe = rng.gen_range(1..30);
            let num_sets = rng.gen_range(1..12);
            let sets: Vec<Vec<usize>> = (0..num_sets)
                .map(|_| (0..universe).filter(|_| rng.gen_bool(0.3)).collect())
                .collect();
            let max_picks = rng.gen_range(1..=num_sets);
            let ground: Vec<usize> = (0..num_sets).collect();
            let options = GreedyOptions {
                max_picks,
                allow_zero_gain: false,
            };

            let run = |use_bound: bool| {
                let mut oracle = BoundedCover {
                    inner: Cover::new(sets.clone(), universe),
                    use_bound,
                    queries: 0,
                };
                let picks = lazy_greedy(&mut oracle, &ground, |_, _| true, options);
                (picks, oracle.queries)
            };
            let (unbounded_picks, unbounded_queries) = run(false);
            let (bounded_picks, bounded_queries) = run(true);
            assert_eq!(bounded_picks, unbounded_picks, "round {round}");
            // An admissible bound only ever *skips* evaluations.
            assert!(
                bounded_queries <= unbounded_queries,
                "round {round}: {bounded_queries} > {unbounded_queries}"
            );
            if bounded_queries < unbounded_queries {
                strictly_fewer += 1;
            }
        }
        assert!(strictly_fewer > 0, "bounds never pruned a single query");
    }

    #[test]
    fn empty_ground_set() {
        let mut oracle = Cover::new(vec![], 0);
        let picks = lazy_greedy(
            &mut oracle,
            &[],
            |_, _| true,
            GreedyOptions {
                max_picks: 5,
                allow_zero_gain: true,
            },
        );
        assert!(picks.is_empty());
    }

    #[test]
    fn max_picks_zero() {
        let mut oracle = Cover::new(vec![vec![0]], 1);
        let picks = lazy_greedy(
            &mut oracle,
            &[0],
            |_, _| true,
            GreedyOptions {
                max_picks: 0,
                allow_zero_gain: true,
            },
        );
        assert!(picks.is_empty());
    }
}
