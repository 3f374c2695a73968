//! Algorithm 1: the optimal segment budget `(L_max, p*_1 … p*_{s+1})`.
//!
//! Given `K` UAVs and the seed count `s`, Algorithm 1 finds the largest
//! subpath length `L ≤ K` such that the relay bound
//! `g(L, p_1 … p_{s+1})` (Eq. 2) stays within the fleet, choosing the
//! segment sizes that minimize `g`. The paper shows the minimizing
//! sizes are balanced: middle segments differ by at most one, and the
//! two outer segments differ by at most one, which reduces the search
//! to `O(s·L)` combinations per guess of `L`.

use crate::segments::{g_upper_bound, h_max, q_budgets};
use crate::CoreError;

/// The output of Algorithm 1, consumed by Algorithm 2.
///
/// # Examples
///
/// ```
/// use uavnet_core::SegmentPlan;
/// # fn main() -> Result<(), uavnet_core::CoreError> {
/// let plan = SegmentPlan::optimal(20, 3)?;
/// assert!(plan.l_max() >= 3 && plan.l_max() <= 20);
/// assert!(plan.g() <= 20);
/// assert_eq!(plan.p().len(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentPlan {
    k: usize,
    s: usize,
    l_max: usize,
    p: Vec<usize>,
    g: usize,
}

impl SegmentPlan {
    /// Runs Algorithm 1 for `k` UAVs and seed count `s`.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameters`] if `s == 0` or `s > k`.
    pub fn optimal(k: usize, s: usize) -> Result<Self, CoreError> {
        if s == 0 {
            return Err(CoreError::InvalidParameters("s must be positive".into()));
        }
        if s > k {
            return Err(CoreError::InvalidParameters(format!(
                "s = {s} exceeds the fleet size K = {k}"
            )));
        }
        let _span = uavnet_obs::phases::ALG1_PLAN.span();
        // Binary search the largest feasible L in [s, k]: the minimal
        // relay bound is non-decreasing in L, and L = s is always
        // feasible (g = s ≤ k).
        let (mut lo, mut hi) = (s, k + 1); // invariant: lo feasible, hi infeasible
        while lo + 1 < hi {
            let mid = (lo + hi) / 2;
            let (g, _) = Self::min_g_for(mid, s);
            if g <= k {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let (g, p) = Self::min_g_for(lo, s);
        debug_assert!(g <= k);
        #[cfg(feature = "debug-validate")]
        crate::verify::check_relay_bound(&p)
            .expect("debug-validate: Lemma 2 closed form diverged from its Q-sum derivation");
        Ok(SegmentPlan {
            k,
            s,
            l_max: lo,
            p,
            g,
        })
    }

    /// The minimal relay bound over balanced segment assignments for a
    /// fixed subpath length `l`, with the minimizing sizes.
    ///
    /// # Panics
    ///
    /// Panics if `l < s` or `s == 0`.
    pub fn min_g_for(l: usize, s: usize) -> (usize, Vec<usize>) {
        assert!(s >= 1, "s must be positive");
        assert!(l >= s, "L = {l} must be at least s = {s}");
        let d = l - s; // nodes to distribute over s + 1 segments
        let mut best: Option<(usize, Vec<usize>)> = None;
        if s == 1 {
            // No middle segments: split D between the two outer ones.
            let p = vec![d / 2, d.div_ceil(2)];
            return (g_upper_bound(&p), p);
        }
        // Middle segments take value `p` or `p + 1` (j of them larger).
        for p_base in 0..=d {
            for j in 0..=(s - 2) {
                let middle_total = (s - 1) * p_base + j;
                if middle_total > d {
                    continue;
                }
                let rest = d - middle_total;
                let mut p = Vec::with_capacity(s + 1);
                p.push(rest / 2);
                for i in 0..s - 1 {
                    p.push(if i < j { p_base + 1 } else { p_base });
                }
                p.push(rest.div_ceil(2));
                let g = g_upper_bound(&p);
                if best.as_ref().is_none_or(|(bg, _)| g < *bg) {
                    best = Some((g, p));
                }
            }
        }
        // INVARIANT (unwrap audit): the loop always visits p_base = 0,
        // j = 0, whose middle_total = (s − 1)·0 + 0 = 0 ≤ d for every
        // d ≥ 0, so `best` is set on that iteration at the latest. Not
        // reachable from any caller input: `s ≥ 1` and `l ≥ s` are
        // asserted above (documented preconditions), and the pipeline
        // only calls this through `optimal`, which validates both.
        best.expect("p_base = 0, j = 0 is always admissible")
    }

    /// The fleet size `K` this plan was computed for.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// The seed count `s`.
    #[inline]
    pub fn s(&self) -> usize {
        self.s
    }

    /// The maximal feasible subpath length `L_max`.
    #[inline]
    pub fn l_max(&self) -> usize {
        self.l_max
    }

    /// The optimal segment sizes `p*_1 … p*_{s+1}`.
    #[inline]
    pub fn p(&self) -> &[usize] {
        &self.p
    }

    /// The relay bound `g(L_max, p*)` — number of UAVs that suffice to
    /// connect any `M2`-independent set (≤ K by construction).
    #[inline]
    pub fn g(&self) -> usize {
        self.g
    }

    /// The hop budgets `Q_0 … Q_{h_max}` of Eq. 1 for this plan.
    pub fn budgets(&self) -> Vec<usize> {
        q_budgets(self.l_max, &self.p)
    }

    /// The deepest admissible hop distance `h_max`.
    pub fn h_max(&self) -> usize {
        h_max(&self.p)
    }

    /// The split count `Δ = ⌈(2K − 2) / L_max⌉` from the analysis.
    pub fn delta(&self) -> usize {
        if self.k <= 1 {
            return 1;
        }
        (2 * self.k - 2).div_ceil(self.l_max).max(1)
    }

    /// The proven approximation ratio `1 / (3Δ)` (Theorem 1).
    pub fn approx_ratio(&self) -> f64 {
        1.0 / (3.0 * self.delta() as f64)
    }

    /// Theorem 1's closed-form lower bound on `L_max`:
    /// `L_1 = ⌊√(4sK + 4s² − 8.5s)⌋ − 2s + 2`.
    pub fn theoretical_l1(k: usize, s: usize) -> isize {
        let inner = 4.0 * s as f64 * k as f64 + 4.0 * (s * s) as f64 - 8.5 * s as f64;
        inner.max(0.0).sqrt().floor() as isize - 2 * s as isize + 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force reference: minimal g over *all* compositions of
    /// `l − s` into `s + 1` parts.
    fn min_g_bruteforce(l: usize, s: usize) -> usize {
        fn rec(remaining: usize, parts_left: usize, current: &mut Vec<usize>, best: &mut usize) {
            if parts_left == 1 {
                current.push(remaining);
                *best = (*best).min(g_upper_bound(current));
                current.pop();
                return;
            }
            for x in 0..=remaining {
                current.push(x);
                rec(remaining - x, parts_left - 1, current, best);
                current.pop();
            }
        }
        let mut best = usize::MAX;
        rec(l - s, s + 1, &mut Vec::new(), &mut best);
        best
    }

    #[test]
    fn balanced_search_matches_bruteforce() {
        for s in 1..=4usize {
            for l in s..=s + 8 {
                let (g, p) = SegmentPlan::min_g_for(l, s);
                assert_eq!(p.len(), s + 1);
                assert_eq!(p.iter().sum::<usize>(), l - s, "s={s} l={l}");
                assert_eq!(g, min_g_bruteforce(l, s), "s={s} l={l}");
            }
        }
    }

    #[test]
    fn min_g_monotone_in_l() {
        for s in 1..=4usize {
            let mut last = 0;
            for l in s..=s + 20 {
                let (g, _) = SegmentPlan::min_g_for(l, s);
                assert!(g >= last, "s={s} l={l}");
                last = g;
            }
        }
    }

    #[test]
    fn optimal_is_maximal_feasible() {
        for s in 1..=4usize {
            for k in s..=30 {
                let plan = SegmentPlan::optimal(k, s).unwrap();
                assert!(plan.g() <= k, "s={s} k={k}");
                // The next larger L must be infeasible (or L = K).
                if plan.l_max() < k {
                    let (g_next, _) = SegmentPlan::min_g_for(plan.l_max() + 1, s);
                    assert!(g_next > k, "s={s} k={k}: L_max not maximal");
                }
                // Linear-scan cross-check of the binary search.
                let linear = (s..=k)
                    .take_while(|&l| SegmentPlan::min_g_for(l, s).0 <= k)
                    .last()
                    .unwrap();
                assert_eq!(plan.l_max(), linear, "s={s} k={k}");
            }
        }
    }

    #[test]
    fn degenerate_k_equals_s() {
        let plan = SegmentPlan::optimal(3, 3).unwrap();
        assert_eq!(plan.l_max(), 3);
        assert_eq!(plan.p(), &[0, 0, 0, 0]);
        assert_eq!(plan.g(), 3);
        assert_eq!(plan.budgets(), vec![3]);
        assert_eq!(plan.h_max(), 0);
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(SegmentPlan::optimal(5, 0).is_err());
        assert!(SegmentPlan::optimal(2, 3).is_err());
    }

    #[test]
    fn paper_scale_k20_s3() {
        let plan = SegmentPlan::optimal(20, 3).unwrap();
        // With K = 20, s = 3 the plan must hold a two-digit subpath.
        assert!(plan.l_max() >= 9, "L_max = {}", plan.l_max());
        assert!(plan.g() <= 20);
        assert_eq!(plan.s(), 3);
        assert_eq!(plan.k(), 20);
        let q = plan.budgets();
        assert_eq!(q[0], plan.l_max());
        // Δ and the ratio are consistent.
        assert_eq!(plan.delta(), (2 * 20 - 2usize).div_ceil(plan.l_max()));
        assert!((plan.approx_ratio() - 1.0 / (3.0 * plan.delta() as f64)).abs() < 1e-12);
    }

    #[test]
    fn l_max_grows_with_s_and_k() {
        // Larger s ⇒ more seeds ⇒ longer feasible subpaths; larger K
        // likewise.
        let l = |k, s| SegmentPlan::optimal(k, s).unwrap().l_max();
        assert!(l(20, 2) >= l(20, 1));
        assert!(l(20, 3) >= l(20, 2));
        assert!(l(40, 3) >= l(20, 3));
    }

    #[test]
    fn theoretical_l1_is_a_lower_bound() {
        for s in 1..=4usize {
            for k in (s.max(2))..=60 {
                let plan = SegmentPlan::optimal(k, s).unwrap();
                let l1 = SegmentPlan::theoretical_l1(k, s);
                assert!(
                    plan.l_max() as isize >= l1,
                    "s={s} k={k}: L_max={} < L1={l1}",
                    plan.l_max()
                );
            }
        }
    }

    #[test]
    fn ratio_improves_with_s() {
        let r = |s| SegmentPlan::optimal(20, s).unwrap().approx_ratio();
        assert!(r(3) >= r(1));
        assert!(r(4) >= r(2));
    }
}
