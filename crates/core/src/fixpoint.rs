//! Fixed points and fragment set reduction — §3.1 of the paper.
//!
//! * [`fixed_point_naive`] — §3.1.1: iterate `H := H ⋈ F` until the set
//!   stabilizes, paying a *fixed-point check* per iteration.
//! * [`reduce`] — Definition 10, `⊖(F)`: drop every fragment subsumed by
//!   the join of two other (distinct) fragments of the set.
//!   (The printed definition reads `{f | ∃ f',f'' …}` but the prose,
//!   Figure 4 and the §4.2 worked example all *eliminate* those fragments;
//!   we implement the evidently-intended complement.)
//! * [`fixed_point_reduced`] — §3.1.2 + Theorem 1: `|⊖(F)|` iterations are
//!   always enough, so run exactly that many with no stabilization checks.
//! * [`powerset_via_fixpoint`] — Theorem 2: `F1 ⋈* F2 = F1⁺ ⋈ F2⁺`.
//!
//! Each operator has one implementation, a method on [`Exec`]
//! ([`Exec::reduce`], [`Exec::fixed_point`],
//! [`Exec::filtered_fixed_point`]); the functions above run it unlimited.
//!
//! Monotonicity (`F ⊆ F ⋈ F`, from idempotency of `⋈` on elements) makes
//! the iteration sequence `F ⊆ F⋈F ⊆ F⋈F⋈F ⊆ …` an increasing chain over a
//! finite universe, so the fixed point always exists and the naive loop
//! terminates.

use crate::budget::Breach;
use crate::exec::Exec;
use crate::filter::{select, FilterExpr};
use crate::join::fragment_join;
use crate::nav::Nav;
use crate::set::FragmentSet;
use crate::stats::EvalStats;

/// How a fixed point should be computed — the choice §3.1 is about.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, Default, serde::Serialize, serde::Deserialize,
)]
pub enum FixpointMode {
    /// Iterate until the set stabilizes, checking after every round.
    #[default]
    Naive,
    /// Pre-compute `k = |⊖(F)|` (Theorem 1) and run exactly `k` rounds
    /// (i.e. `k−1` pairwise joins) without stabilization checks.
    Reduced,
}

/// `F⁺` by iteration-until-stable (§3.1.1).
///
/// Each round computes `H := H ⋈ F` and compares cardinalities; because
/// the chain is increasing (every element of `H` survives via idempotent
/// self-joins), `|H|` unchanged ⇔ `H` unchanged.
pub fn fixed_point_naive<'n>(
    nav: impl Into<Nav<'n>>,
    f: &FragmentSet,
    stats: &mut EvalStats,
) -> FragmentSet {
    fixed_point(nav, f, FixpointMode::Naive, stats)
}

/// `⊖(F)` — Definition 10. Keeps exactly the fragments *not* contained in
/// the join of two other distinct fragments of `F`.
///
/// Cost is O(|F|³) joins/subset-tests in the worst case; `stats`
/// accumulates `reduce_checks` so the §5 cost-model discussion can be
/// quantified. Pairs are enumerated once (f', f'' unordered) since `⋈` is
/// commutative.
pub fn reduce<'n>(nav: impl Into<Nav<'n>>, f: &FragmentSet, stats: &mut EvalStats) -> FragmentSet {
    Exec::unlimited(nav.into(), |x| x.reduce(f, stats))
}

/// The reduction factor `RF = (a − b) / a` of §5, where `a = |F|` and
/// `b = |⊖(F)|`. `RF = 0` means no reduction; values near 1 mean the set
/// collapses almost entirely.
pub fn reduction_factor<'n>(
    nav: impl Into<Nav<'n>>,
    f: &FragmentSet,
    stats: &mut EvalStats,
) -> f64 {
    if f.is_empty() {
        return 0.0;
    }
    let a = f.len() as f64;
    let b = reduce(nav, f, stats).len() as f64;
    (a - b) / a
}

/// `F⁺` via Theorem 1 (§3.1.2): compute `k = |⊖(F)|`, then perform exactly
/// `k` rounds of `⋈` with `F` — `⋈_k(F)` in the paper's notation, i.e.
/// `k − 1` pairwise-join applications starting from `F` — with **no**
/// per-round stabilization checks.
///
/// # Soundness note (deviation from the paper)
///
/// Theorem 1 as literally stated is **false for general fragment sets**:
/// Definition 10 eliminates fragments *simultaneously*, so two large
/// fragments can eliminate each other through a third, driving `|⊖(F)|`
/// below the true iteration requirement. Counterexample (verified in
/// `theorem1_counterexample_for_overlapping_fragments`): on the tree
/// `n0 → n1 → n2` with sibling `n3`, take
/// `F = {⟨n3⟩, ⟨n1,n2⟩, ⟨n0,n1,n2⟩}`. Then `⟨n1,n2⟩ ⊆ ⟨n3⟩ ⋈ ⟨n0,n1,n2⟩`
/// and `⟨n0,n1,n2⟩ ⊆ ⟨n3⟩ ⋈ ⟨n1,n2⟩`, so `⊖(F) = {⟨n3⟩}` and `k = 1`,
/// yet `F⁺` needs two rounds to pick up `⟨n0,n1,n2,n3⟩`.
///
/// The theorem *does* hold in the paper's usage context — operand sets
/// produced by keyword selection, i.e. **distinct single-node fragments**
/// — where mutual elimination of this kind cannot arise (a node on the
/// path between two others cannot in turn contain one of them). Our
/// implementation therefore runs the `k − 1` unchecked rounds and then
/// performs **one** final stabilization check, falling back to checked
/// iteration only if the set is still growing; the fallback never fires
/// for singleton-node inputs (property-tested), so the paper's claimed
/// saving of per-round checks is preserved exactly where the paper
/// applies it.
pub fn fixed_point_reduced<'n>(
    nav: impl Into<Nav<'n>>,
    f: &FragmentSet,
    stats: &mut EvalStats,
) -> FragmentSet {
    fixed_point(nav, f, FixpointMode::Reduced, stats)
}

/// `F⁺` with the mode chosen by the caller.
pub fn fixed_point<'n>(
    nav: impl Into<Nav<'n>>,
    f: &FragmentSet,
    mode: FixpointMode,
    stats: &mut EvalStats,
) -> FragmentSet {
    Exec::unlimited(nav.into(), |x| x.fixed_point(f, mode, None, stats))
}

/// Theorem 2: `F1 ⋈* F2 = F1⁺ ⋈ F2⁺` — the rewrite that makes powerset
/// join implementable.
pub fn powerset_via_fixpoint<'n>(
    nav: impl Into<Nav<'n>>,
    f1: &FragmentSet,
    f2: &FragmentSet,
    mode: FixpointMode,
    stats: &mut EvalStats,
) -> FragmentSet {
    if f1.is_empty() || f2.is_empty() {
        return FragmentSet::new();
    }
    Exec::unlimited(nav.into(), |x| {
        let p1 = x.fixed_point(f1, mode, None, stats)?;
        let p2 = x.fixed_point(f2, mode, None, stats)?;
        x.pairwise_join(&p1, &p2, stats)
    })
}

impl Exec<'_> {
    /// `⊖(F)` (Definition 10), recorded as one `reduce` span. `⊖` is
    /// O(|F|³), so a checkpoint runs per candidate fragment and every
    /// inner join is charged.
    pub fn reduce(&self, f: &FragmentSet, stats: &mut EvalStats) -> Result<FragmentSet, Breach> {
        self.tracer.scoped("reduce", stats, |stats| {
            let frags = f.as_slice();
            let n = frags.len();
            if n <= 2 {
                // "For |F| <= 2 the proof is trivial, since for any
                // fragment set to be reduced, the set should contain at
                // least three elements."
                return Ok(f.clone());
            }
            let mut keep = FragmentSet::new();
            'cand: for (ci, cand) in frags.iter().enumerate() {
                self.gov.checkpoint()?;
                for i in 0..n {
                    if i == ci {
                        continue;
                    }
                    for j in (i + 1)..n {
                        if j == ci {
                            continue;
                        }
                        stats.reduce_checks += 1;
                        self.gov
                            .charge_join((frags[i].size() + frags[j].size()) as u64)?;
                        let joined = fragment_join(self.nav, &frags[i], &frags[j], stats);
                        if cand.is_subfragment_of(&joined) {
                            continue 'cand; // eliminated
                        }
                    }
                }
                keep.insert(cand.clone());
            }
            Ok(keep)
        })
    }

    /// `F⁺` in `mode`: a `fixpoint-naive` span with one `round` child per
    /// iteration, or a `fixpoint-reduced` span with a `reduce` child, the
    /// unchecked `round`s and a `safety-check` (see
    /// [`fixed_point_reduced`]). A checkpoint runs before every round.
    ///
    /// With a memo in the context and `term` naming the keyword `f` was
    /// selected by, the tier (b) cache is probed under
    /// `(generation, doc, term, mode)` first. A hit replays the stored
    /// [`EvalStats`] delta, so cached and uncached runs report identical
    /// compute counters; a miss computes, then stores the set with the
    /// delta it cost. The stored delta's `budget_checkpoints` carries the
    /// governor checkpoints the computation passed (the compute itself
    /// never writes that field), so the budgeted evaluator reports the
    /// same checkpoint total whether or not the work was skipped.
    pub fn fixed_point(
        &self,
        f: &FragmentSet,
        mode: FixpointMode,
        term: Option<&str>,
        stats: &mut EvalStats,
    ) -> Result<FragmentSet, Breach> {
        let compute = |stats: &mut EvalStats| match mode {
            FixpointMode::Naive => self.tracer.scoped("fixpoint-naive", stats, |stats| {
                if f.is_empty() {
                    return Ok(FragmentSet::new());
                }
                self.iterate(f.clone(), f, None, stats)
            }),
            FixpointMode::Reduced => self.tracer.scoped("fixpoint-reduced", stats, |stats| {
                self.reduced_fixed_point(f, stats)
            }),
        };
        let (Some(c), Some(term)) = (self.cache, term) else {
            return compute(stats);
        };
        if let Some((set, delta)) = c.cache.get_fixpoint(c.gen, c.doc, term, mode) {
            self.tracer.scoped_lazy(
                || format!("fixpoint-cache:{term}"),
                stats,
                |stats| {
                    stats.cache_hits += 1;
                    *stats += delta;
                },
            );
            return Ok(set);
        }
        stats.cache_misses += 1;
        let before = *stats;
        let checkpoints_before = self.gov.checkpoints_passed();
        let out = compute(stats)?;
        let mut delta = stats.delta_since(&before);
        delta.budget_checkpoints = self.gov.checkpoints_passed() - checkpoints_before;
        c.cache.put_fixpoint(c.gen, c.doc, term, mode, &out, delta);
        Ok(out)
    }

    /// Fixed point with per-iteration anti-monotonic filtering (§3.3's
    /// expansion): the closure of `σ_anti(f)` under `H := σ_anti(H ⋈ F) ∪
    /// H`, recorded as a `filtered-fixpoint` span with one `round` child
    /// per iteration.
    pub fn filtered_fixed_point(
        &self,
        f: &FragmentSet,
        anti: &FilterExpr,
        stats: &mut EvalStats,
    ) -> Result<FragmentSet, Breach> {
        self.tracer.scoped("filtered-fixpoint", stats, |stats| {
            let base = select(self.doc(), anti, f, stats);
            if base.is_empty() {
                return Ok(FragmentSet::new());
            }
            self.iterate(base.clone(), &base, Some(anti), stats)
        })
    }

    /// Theorem 1's `k − 1` unchecked rounds, the single safety check, and
    /// the general-set fallback (see [`fixed_point_reduced`]).
    fn reduced_fixed_point(
        &self,
        f: &FragmentSet,
        stats: &mut EvalStats,
    ) -> Result<FragmentSet, Breach> {
        if f.is_empty() {
            return Ok(FragmentSet::new());
        }
        let k = self.reduce(f, stats)?.len();
        let mut h = f.clone();
        for _ in 1..k {
            self.gov.checkpoint()?;
            h = self.round(&h, f, None, stats)?;
        }
        stats.fixpoint_checks += 1;
        let verify = self
            .tracer
            .scoped("safety-check", stats, |stats| {
                self.pairwise_join(&h, f, stats)
            })?
            .union(&h);
        if verify.len() == h.len() {
            return Ok(h);
        }
        // General-set fallback: continue with checked iteration.
        self.iterate(verify, f, None, stats)
    }

    /// Checked iteration from `h` until `|H|` stops growing: a checkpoint
    /// before and a fixed-point check after every [`Exec::round`].
    fn iterate(
        &self,
        mut h: FragmentSet,
        f: &FragmentSet,
        anti: Option<&FilterExpr>,
        stats: &mut EvalStats,
    ) -> Result<FragmentSet, Breach> {
        loop {
            self.gov.checkpoint()?;
            let next = self.round(&h, f, anti, stats)?;
            stats.fixpoint_checks += 1;
            if next.len() == h.len() {
                return Ok(h);
            }
            h = next;
        }
    }

    /// One `round` span: `H ⋈ F`, filtered by `anti` when given, unioned
    /// with `H`.
    fn round(
        &self,
        h: &FragmentSet,
        f: &FragmentSet,
        anti: Option<&FilterExpr>,
        stats: &mut EvalStats,
    ) -> Result<FragmentSet, Breach> {
        self.tracer.scoped("round", stats, |stats| {
            stats.fixpoint_iterations += 1;
            let joined = self.pairwise_join(h, f, stats)?;
            Ok(match anti {
                Some(p) => select(self.doc(), p, &joined, stats),
                None => joined,
            }
            .union(h))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::Fragment;
    use crate::join::{pairwise_join, powerset_join};
    use xfrag_doc::{DocumentBuilder, NodeId};

    /// The Figure 4 tree: a root with children n1, n5, n7 where n1 has
    /// children n2,n3,n4 — we reconstruct the shape the example needs:
    /// n3 ⊆ n1 ⋈ n5 and n6 ⊆ n1 ⋈ n7. A simple concrete realization:
    ///
    /// ```text
    ///        n0
    ///     ┌──┼────────┐
    ///     n1 n3*      n6*
    ///     n2 n4       n7
    ///        n5
    /// ```
    ///
    /// is awkward; instead use a chain-like layout where paths create the
    /// required containments:
    ///
    /// n0 ── n1 ── n2 ── n3(child n4), n2 ── n5, n0 ── n6 ── n7
    fn figure4_doc() -> xfrag_doc::Document {
        let mut b = DocumentBuilder::new();
        b.begin("n0");
        {
            b.begin("n1");
            {
                b.begin("n2");
                b.begin("n3");
                b.leaf("n4", "");
                b.end();
                b.leaf("n5", "");
                b.end();
            }
            b.end();
            b.begin("n6");
            b.leaf("n7", "");
            b.end();
        }
        b.end();
        b.finish().unwrap()
    }

    fn node(n: u32) -> Fragment {
        Fragment::node(NodeId(n))
    }

    /// Figure 4 analogue: F = {⟨n1⟩,⟨n3⟩,⟨n5⟩,⟨n6⟩,⟨n7⟩} where
    /// n3 lies on the path n1…n5?? — in our realization:
    /// F = {n1, n2, n4, n5, n6}: n2 ⊆ n1⋈n4 (path n1-n2-n3-n4) and
    /// n3-free; check ⊖ removes exactly the path-subsumed singletons.
    #[test]
    fn reduce_eliminates_path_subsumed() {
        let d = figure4_doc();
        let mut st = EvalStats::new();
        // n2 is on path(n1, n4); n3 is on path(n2, n4) etc.
        let f = FragmentSet::from_iter([node(1), node(2), node(4), node(5), node(6)]);
        let r = reduce(&d, &f, &mut st);
        // n2 ⊆ n1 ⋈ n4 → eliminated. n1,n4,n5,n6: n1 on path(?)—
        // n1 is not contained in any join of two others unless both are
        // inside its subtree... n4 ⋈ n5 = {n2,n3,n4,n5} excludes n1;
        // n4 ⋈ n6 = path via root: {0,1,2,3,4,6} contains n1! So n1 is
        // eliminated too.
        assert!(!r.contains(&node(2)));
        assert!(!r.contains(&node(1)));
        assert!(r.contains(&node(4)));
        assert!(r.contains(&node(5)));
        assert!(r.contains(&node(6)));
        assert_eq!(r.len(), 3);
        assert!(st.reduce_checks > 0);
    }

    #[test]
    fn reduce_small_sets_unchanged() {
        let d = figure4_doc();
        let mut st = EvalStats::new();
        let f = FragmentSet::from_iter([node(4), node(7)]);
        assert_eq!(reduce(&d, &f, &mut st), f);
        let one = FragmentSet::from_iter([node(4)]);
        assert_eq!(reduce(&d, &one, &mut st), one);
        assert_eq!(reduce(&d, &FragmentSet::new(), &mut st), FragmentSet::new());
    }

    #[test]
    fn naive_fixed_point_closes_under_join() {
        let d = figure4_doc();
        let mut st = EvalStats::new();
        let f = FragmentSet::from_iter([node(4), node(5), node(7)]);
        let fp = fixed_point_naive(&d, &f, &mut st);
        // Every pairwise join of fixed-point members is in the fixed point.
        let again = pairwise_join(&d, &fp, &fp, &mut st).union(&fp);
        assert_eq!(again, fp);
        // And it contains the original set.
        for x in f.iter() {
            assert!(fp.contains(x));
        }
    }

    #[test]
    fn reduced_matches_naive() {
        let d = figure4_doc();
        let mut st = EvalStats::new();
        for set in [
            vec![node(4)],
            vec![node(4), node(5)],
            vec![node(1), node(2), node(4), node(5), node(6)],
            vec![node(0), node(4), node(7)],
            vec![node(2), node(3), node(4)],
        ] {
            let f = FragmentSet::from_iter(set);
            let a = fixed_point_naive(&d, &f, &mut st);
            let b = fixed_point_reduced(&d, &f, &mut st);
            assert_eq!(a, b, "mismatch for {f:?}");
        }
    }

    #[test]
    fn theorem1_iteration_count_suffices() {
        let d = figure4_doc();
        let mut st = EvalStats::new();
        let f = FragmentSet::from_iter([node(1), node(2), node(4), node(5), node(6)]);
        let k = reduce(&d, &f, &mut st).len();
        assert_eq!(k, 3);
        // ⋈_k(F) must equal ⋈_{k+1}(F).
        let mut h = f.clone();
        for _ in 1..k {
            h = pairwise_join(&d, &h, &f, &mut st).union(&h);
        }
        let once_more = pairwise_join(&d, &h, &f, &mut st).union(&h);
        assert_eq!(h, once_more);
    }

    #[test]
    fn theorem2_fixpoint_rewrite_equals_powerset() {
        let d = figure4_doc();
        let mut st = EvalStats::new();
        let f1 = FragmentSet::from_iter([node(4), node(5)]);
        let f2 = FragmentSet::from_iter([node(2), node(7)]);
        let oracle = powerset_join(&d, &f1, &f2, &mut st).unwrap();
        for mode in [FixpointMode::Naive, FixpointMode::Reduced] {
            let got = powerset_via_fixpoint(&d, &f1, &f2, mode, &mut st);
            assert_eq!(got, oracle, "mode {mode:?}");
        }
    }

    #[test]
    fn fixpoint_of_empty_is_empty() {
        let d = figure4_doc();
        let mut st = EvalStats::new();
        assert!(fixed_point_naive(&d, &FragmentSet::new(), &mut st).is_empty());
        assert!(fixed_point_reduced(&d, &FragmentSet::new(), &mut st).is_empty());
        let f1 = FragmentSet::from_iter([node(4)]);
        assert!(
            powerset_via_fixpoint(&d, &f1, &FragmentSet::new(), FixpointMode::Naive, &mut st)
                .is_empty()
        );
    }

    #[test]
    fn reduction_factor_bounds() {
        let d = figure4_doc();
        let mut st = EvalStats::new();
        assert_eq!(reduction_factor(&d, &FragmentSet::new(), &mut st), 0.0);
        let f = FragmentSet::from_iter([node(1), node(2), node(4), node(5), node(6)]);
        let rf = reduction_factor(&d, &f, &mut st);
        assert!((rf - 0.4).abs() < 1e-9, "5 → 3 gives RF = 0.4, got {rf}");
        let irreducible = FragmentSet::from_iter([node(4), node(7)]);
        assert_eq!(reduction_factor(&d, &irreducible, &mut st), 0.0);
    }

    #[test]
    fn naive_counts_checks_reduced_does_not() {
        let d = figure4_doc();
        let f = FragmentSet::from_iter([node(1), node(2), node(4), node(5), node(6)]);
        let mut st_naive = EvalStats::new();
        fixed_point_naive(&d, &f, &mut st_naive);
        assert!(st_naive.fixpoint_checks > 1);
        assert_eq!(st_naive.reduce_checks, 0);
        let mut st_red = EvalStats::new();
        fixed_point_reduced(&d, &f, &mut st_red);
        assert_eq!(
            st_red.fixpoint_checks, 1,
            "reduced mode performs only the single safety check"
        );
        assert!(st_red.reduce_checks > 0);
    }

    /// The Theorem 1 counterexample for general (overlapping, multi-node)
    /// fragment sets — see the soundness note on [`fixed_point_reduced`].
    /// Tree: n0 → n1 → n2, with n3 a second child of n0.
    #[test]
    fn theorem1_counterexample_for_overlapping_fragments() {
        let mut b = DocumentBuilder::new();
        b.begin("n0");
        b.begin("n1");
        b.leaf("n2", "");
        b.end();
        b.leaf("n3", "");
        b.end();
        let d = b.finish().unwrap();
        let mut st = EvalStats::new();
        let f12 = crate::fragment::Fragment::from_nodes(&d, [NodeId(1), NodeId(2)]).unwrap();
        let f012 =
            crate::fragment::Fragment::from_nodes(&d, [NodeId(0), NodeId(1), NodeId(2)]).unwrap();
        let f = FragmentSet::from_iter([node(3), f12, f012]);
        // Simultaneous elimination: both multi-node fragments are inside
        // ⟨n3⟩ ⋈ (the other), so Definition 10 keeps only ⟨n3⟩.
        let r = reduce(&d, &f, &mut st);
        assert_eq!(r.len(), 1, "⊖(F) = {{⟨n3⟩}}: k = 1 underestimates");
        // Yet the fixed point needs a second round for ⟨n0,n1,n2,n3⟩ —
        // the safety fallback keeps the result correct.
        let naive = fixed_point_naive(&d, &f, &mut st);
        assert_eq!(naive.len(), 4);
        let reduced = fixed_point_reduced(&d, &f, &mut st);
        assert_eq!(reduced, naive);
    }
}
