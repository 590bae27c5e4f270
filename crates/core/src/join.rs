//! The three join operations of §2.2.
//!
//! * [`fragment_join`] — Definition 4: the *minimal* fragment containing
//!   both operands. In a tree, the minimal connected superset of two
//!   connected sets is `f1 ∪ f2 ∪ path(root(f1), root(f2))`: every node of
//!   each operand is already connected to its own root, the unique tree
//!   path between the two roots is contained in *every* connected superset
//!   of both, and adding exactly that path yields a connected set — hence
//!   minimality. The result's root is `lca(root(f1), root(f2))`.
//! * [`pairwise_join`] — Definition 5: elementwise join of two sets.
//! * [`powerset_join`] — Definition 6, implemented literally by subset
//!   enumeration. Exponential by design; it is the executable *oracle*
//!   against which Theorem 2's fixed-point rewrite is property-tested, and
//!   the paper's §4.1 "brute force" strategy.

use crate::budget::Breach;
use crate::exec::Exec;
use crate::fragment::Fragment;
use crate::nav::Nav;
use crate::set::FragmentSet;
use crate::stats::EvalStats;
use xfrag_doc::NodeId;

/// `f1 ⋈ f2` (Definition 4).
///
/// ```
/// use xfrag_core::{fragment_join, EvalStats, Fragment};
/// use xfrag_doc::{parse_str, NodeId};
///
/// // r(0) -> a(1) -> b(2); r -> c(3)
/// let doc = parse_str("<r><a><b/></a><c/></r>").unwrap();
/// let mut stats = EvalStats::new();
/// let j = fragment_join(
///     &doc,
///     &Fragment::node(NodeId(2)),
///     &Fragment::node(NodeId(3)),
///     &mut stats,
/// );
/// // Minimal connected superset: both nodes plus the path through the root.
/// assert_eq!(j.nodes(), &[NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
/// assert_eq!(j.root(), NodeId(0));
/// ```
pub fn fragment_join<'n>(
    nav: impl Into<Nav<'n>>,
    f1: &Fragment,
    f2: &Fragment,
    stats: &mut EvalStats,
) -> Fragment {
    let nav = nav.into();
    stats.joins += 1;
    stats.nodes_merged += (f1.size() + f2.size()) as u64;

    // Fast path: containment (absorption law f1 ⋈ f2 = f1 when f2 ⊆ f1).
    if f2.is_subfragment_of(f1) {
        return f1.clone();
    }
    if f1.is_subfragment_of(f2) {
        return f2.clone();
    }

    let path = nav.path(f1.root(), f2.root(), stats);
    // Merge the two sorted operand node lists, then splice in path nodes.
    let mut merged: Vec<NodeId> = Vec::with_capacity(f1.size() + f2.size() + path.len());
    let (a, b) = (f1.nodes(), f2.nodes());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                merged.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                merged.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                merged.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    merged.extend_from_slice(&a[i..]);
    merged.extend_from_slice(&b[j..]);
    for n in path {
        if merged.binary_search(&n).is_err() {
            let pos = merged.partition_point(|&m| m < n);
            merged.insert(pos, n);
        }
    }
    Fragment::from_sorted_unchecked(merged)
}

/// N-ary fragment join `⋈{f1, …, fn}` — well-defined by associativity and
/// commutativity (Definition 6 uses it to fold subset unions).
pub fn fragment_join_all<'a, 'n>(
    nav: impl Into<Nav<'n>>,
    frags: impl IntoIterator<Item = &'a Fragment>,
    stats: &mut EvalStats,
) -> Option<Fragment> {
    let nav = nav.into();
    let mut it = frags.into_iter();
    let first = it.next()?.clone();
    Some(it.fold(first, |acc, f| fragment_join(nav, &acc, f, stats)))
}

/// Optimized n-ary join: computes `⋈{f1, …, fn}` in one pass instead of
/// folding binary joins.
///
/// The minimal connected superset of connected sets `f1 … fn` is their
/// union plus the Steiner span of their roots, and in a tree the Steiner
/// span of a node set equals the union of the paths from each node to the
/// set's common LCA (any pairwise path `r_i → r_j` factors through
/// `lca(r_i, r_j)`, which lies on both root-to-global-LCA paths).
/// A property test checks equality with the binary fold.
///
/// Cost: O(Σ|fi| + n · depth) versus the fold's O(n · result size).
/// Counts as `n − 1` joins in `stats` to stay comparable with the fold.
pub fn fragment_join_many<'a, 'n>(
    nav: impl Into<Nav<'n>>,
    frags: impl IntoIterator<Item = &'a Fragment>,
    stats: &mut EvalStats,
) -> Option<Fragment> {
    let nav = nav.into();
    let frags: Vec<&Fragment> = frags.into_iter().collect();
    match frags.len() {
        0 => return None,
        1 => return Some(frags[0].clone()),
        _ => {}
    }
    stats.joins += (frags.len() - 1) as u64;
    let mut nodes: Vec<NodeId> = Vec::with_capacity(frags.iter().map(|f| f.size()).sum());
    for f in &frags {
        stats.nodes_merged += f.size() as u64;
        nodes.extend_from_slice(f.nodes());
    }
    // Common LCA of all roots.
    let mut lca = frags[0].root();
    for f in &frags[1..] {
        lca = nav.lca(lca, f.root(), stats);
    }
    // Paths from every root up to the common LCA.
    for f in &frags {
        let mut x = f.root();
        while x != lca {
            nodes.push(x);
            // invariant: x != lca and lca is an ancestor of x (it is the
            // common LCA of all roots), so x cannot be the document root
            // and always has a parent.
            x = nav.parent(x, stats).expect("non-root on path to LCA");
        }
    }
    nodes.push(lca);
    nodes.sort_unstable();
    nodes.dedup();
    Some(Fragment::from_sorted_unchecked(nodes))
}

/// `F1 ⋈ F2` (Definition 5): pairwise fragment join.
pub fn pairwise_join<'n>(
    nav: impl Into<Nav<'n>>,
    f1: &FragmentSet,
    f2: &FragmentSet,
    stats: &mut EvalStats,
) -> FragmentSet {
    Exec::unlimited(nav.into(), |x| x.pairwise_join(f1, f2, stats))
}

/// Inputs larger than this are rejected by [`powerset_join`]: the literal
/// operator enumerates `2^|F|` subsets and exists as a correctness oracle,
/// not a production path.
pub const POWERSET_LIMIT: usize = 16;

/// Error for oracle-size violations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PowersetTooLarge {
    /// Size of the offending operand.
    pub len: usize,
}

impl std::fmt::Display for PowersetTooLarge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "powerset join operand has {} fragments (limit {POWERSET_LIMIT}); use the fixed-point rewrite",
            self.len
        )
    }
}

impl std::error::Error for PowersetTooLarge {}

impl PowersetTooLarge {
    /// Reject the first of `sets` too large for literal enumeration.
    pub(crate) fn check<'s>(
        sets: impl IntoIterator<Item = &'s FragmentSet>,
    ) -> Result<(), PowersetTooLarge> {
        match sets.into_iter().find(|s| s.len() > POWERSET_LIMIT) {
            Some(s) => Err(PowersetTooLarge { len: s.len() }),
            None => Ok(()),
        }
    }
}

/// `F1 ⋈* F2` (Definition 6), by literal subset enumeration.
pub fn powerset_join<'n>(
    nav: impl Into<Nav<'n>>,
    f1: &FragmentSet,
    f2: &FragmentSet,
    stats: &mut EvalStats,
) -> Result<FragmentSet, PowersetTooLarge> {
    PowersetTooLarge::check([f1, f2])?;
    Ok(Exec::unlimited(nav.into(), |x| {
        x.powerset_join(f1, f2, stats)
    }))
}

impl Exec<'_> {
    /// `F1 ⋈ F2` (Definition 5). Every join kernel is charged, and the
    /// loop aborts with the breach as soon as the budget trips. Opens no
    /// span of its own: callers that show the join as a stage wrap it in
    /// a `pairwise-join` span.
    pub fn pairwise_join(
        &self,
        f1: &FragmentSet,
        f2: &FragmentSet,
        stats: &mut EvalStats,
    ) -> Result<FragmentSet, Breach> {
        let mut out = FragmentSet::new();
        for a in f1.iter() {
            for b in f2.iter() {
                self.gov.charge_join((a.size() + b.size()) as u64)?;
                let j = fragment_join(self.nav, a, b, stats);
                self.gov.charge_fragments(1)?;
                stats.fragments_emitted += 1;
                if !out.insert(j) {
                    stats.duplicates_collapsed += 1;
                }
            }
        }
        Ok(out)
    }

    /// Left-to-right pairwise fold `F1 ⋈ F2 ⋈ … ⋈ Fm`, recorded as one
    /// `join-fold` span with a checkpoint and a `pairwise-join` child per
    /// step.
    pub fn join_fold(
        &self,
        sets: Vec<FragmentSet>,
        stats: &mut EvalStats,
    ) -> Result<FragmentSet, Breach> {
        self.tracer.scoped("join-fold", stats, |stats| {
            let mut it = sets.into_iter();
            // invariant: callers pass one set per query term and reject
            // term-less queries before reaching this fold.
            let mut acc = it.next().expect("at least one operand");
            for f in it {
                self.gov.checkpoint()?;
                acc = self.tracer.scoped("pairwise-join", stats, |stats| {
                    self.pairwise_join(&acc, &f, stats)
                })?;
            }
            Ok(acc)
        })
    }

    /// `F1 ⋈* F2` (Definition 6) by literal subset enumeration, recorded
    /// as one `powerset-join` span: a checkpoint per left subset, every
    /// n-ary join charged. Operands over [`POWERSET_LIMIT`] report
    /// [`Breach::PowersetLimit`], so the degradation ladder treats an
    /// over-large enumeration like any other exhausted budget.
    pub fn powerset_join(
        &self,
        f1: &FragmentSet,
        f2: &FragmentSet,
        stats: &mut EvalStats,
    ) -> Result<FragmentSet, Breach> {
        self.tracer.scoped("powerset-join", stats, |stats| {
            if PowersetTooLarge::check([f1, f2]).is_err() {
                return Err(Breach::PowersetLimit);
            }
            let mut out = FragmentSet::new();
            let a: Vec<&Fragment> = f1.iter().collect();
            let b: Vec<&Fragment> = f2.iter().collect();
            for ma in 1u32..(1 << a.len()) {
                self.gov.checkpoint()?;
                for mb in 1u32..(1 << b.len()) {
                    let chosen = masked(&a, ma).chain(masked(&b, mb));
                    self.emit_join_many(chosen, &mut out, stats)?;
                }
            }
            Ok(out)
        })
    }

    /// §4.1 brute force, the m-ary powerset join: every choice of one
    /// non-empty subset per operand, each union joined, recorded as one
    /// `brute-force` span. An over-large operand reports
    /// [`Breach::PowersetLimit`].
    pub fn brute_force(
        &self,
        operands: &[FragmentSet],
        stats: &mut EvalStats,
    ) -> Result<FragmentSet, Breach> {
        self.tracer.scoped("brute-force", stats, |stats| {
            if PowersetTooLarge::check(operands).is_err() {
                return Err(Breach::PowersetLimit);
            }
            let slices: Vec<Vec<&Fragment>> = operands.iter().map(|s| s.iter().collect()).collect();
            let mut out = FragmentSet::new();
            // Odometer over non-empty subset masks of each operand.
            let mut masks: Vec<u32> = vec![1; slices.len()];
            loop {
                let chosen = slices.iter().zip(&masks).flat_map(|(fs, &m)| masked(fs, m));
                self.emit_join_many(chosen, &mut out, stats)?;
                let mut i = 0;
                loop {
                    if i == masks.len() {
                        return Ok(out);
                    }
                    masks[i] += 1;
                    if masks[i] < (1u32 << slices[i].len()) {
                        break;
                    }
                    masks[i] = 1;
                    i += 1;
                }
            }
        })
    }

    /// Join one enumerated subset union with [`fragment_join_many`],
    /// charge it, and insert it into `out`.
    fn emit_join_many<'f>(
        &self,
        chosen: impl Iterator<Item = &'f Fragment>,
        out: &mut FragmentSet,
        stats: &mut EvalStats,
    ) -> Result<(), Breach> {
        // invariant: both enumerations only produce non-zero masks, so at
        // least one fragment is always chosen.
        let joined = fragment_join_many(self.nav, chosen, stats).expect("non-empty selection");
        self.gov.charge_join(joined.size() as u64)?;
        self.gov.charge_fragments(1)?;
        stats.fragments_emitted += 1;
        if !out.insert(joined) {
            stats.duplicates_collapsed += 1;
        }
        Ok(())
    }
}

/// The fragments of `frags` selected by the bit mask `mask`.
fn masked<'s, 'f>(frags: &'s [&'f Fragment], mask: u32) -> impl Iterator<Item = &'f Fragment> + 's {
    frags
        .iter()
        .enumerate()
        .filter(move |(i, _)| mask & (1 << i) != 0)
        .map(|(_, f)| *f)
}

/// The unique *candidate fragment sets* of a powerset join — the second
/// column of the paper's Table 1: each distinct union `F1' ∪ F2'` of
/// non-empty subsets, paired with the fragment its n-ary join produces.
/// Returned in first-encountered order (enumeration by ascending masks).
pub fn powerset_join_candidates<'n>(
    nav: impl Into<Nav<'n>>,
    f1: &FragmentSet,
    f2: &FragmentSet,
    stats: &mut EvalStats,
) -> Result<Vec<(Vec<Fragment>, Fragment)>, PowersetTooLarge> {
    let nav = nav.into();
    PowersetTooLarge::check([f1, f2])?;
    let a: Vec<&Fragment> = f1.iter().collect();
    let b: Vec<&Fragment> = f2.iter().collect();
    let mut seen: std::collections::HashSet<Vec<Fragment>> = Default::default();
    let mut out = Vec::new();
    for ma in 1u32..(1 << a.len()) {
        for mb in 1u32..(1 << b.len()) {
            let mut union: Vec<Fragment> = masked(&a, ma).cloned().collect();
            for f in masked(&b, mb) {
                if !union.contains(f) {
                    union.push(f.clone());
                }
            }
            union.sort();
            if seen.insert(union.clone()) {
                // invariant: ma is non-zero, so union holds at least one
                // fragment from f1.
                let joined =
                    fragment_join_all(nav, union.iter(), stats).expect("non-empty candidate");
                out.push((union, joined));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xfrag_doc::{Document, DocumentBuilder};

    /// The tree of the paper's Figure 3(a), renumbered to pre-order from 0:
    ///
    /// ```text
    ///            n0
    ///      ┌─────┼─────┐
    ///      n1    n7    n9
    ///      │     │
    ///      n2    n8
    ///    ┌─┴─┐
    ///    n3  n5
    ///    │   │
    ///    n4  n6
    /// ```
    ///
    /// (The paper labels these n1..n10; the mapping is paper nᵢ → ours
    /// n(i-1) because our ids are 0-based pre-order ranks.)
    pub(crate) fn figure3_doc() -> Document {
        let mut b = DocumentBuilder::new();
        b.begin("n0");
        {
            b.begin("n1");
            {
                b.begin("n2");
                b.begin("n3");
                b.leaf("n4", "");
                b.end();
                b.begin("n5");
                b.leaf("n6", "");
                b.end();
                b.end();
            }
            b.end();
            b.begin("n7");
            b.leaf("n8", "");
            b.end();
            b.leaf("n9", "");
        }
        b.end();
        b.finish().unwrap()
    }

    fn frag(doc: &Document, ns: &[u32]) -> Fragment {
        Fragment::from_nodes(doc, ns.iter().map(|&n| NodeId(n))).unwrap()
    }

    /// Figure 3(b): ⟨n4,n5⟩ ⋈ ⟨n7,n9⟩ = ⟨n3,n4,n5,n6,n7,n9⟩ in paper
    /// numbering, i.e. ⟨n3,n4⟩ ⋈ ⟨n6,n8⟩ = ⟨n2..n6,n8⟩ in ours.
    #[test]
    fn figure3b_fragment_join() {
        let d = figure3_doc();
        let f1 = frag(&d, &[3, 4]);
        let f2 = frag(&d, &[5, 6]); // paper ⟨n6,n7⟩
        let mut st = EvalStats::new();
        let j = fragment_join(&d, &f1, &f2, &mut st);
        assert_eq!(j, frag(&d, &[2, 3, 4, 5, 6]));
        assert_eq!(j.root(), NodeId(2));
        assert_eq!(st.joins, 1);
    }

    #[test]
    fn join_of_disjoint_subtrees_passes_root() {
        let d = figure3_doc();
        let mut st = EvalStats::new();
        let j = fragment_join(&d, &frag(&d, &[4]), &frag(&d, &[8]), &mut st);
        assert_eq!(j, frag(&d, &[0, 1, 2, 3, 4, 7, 8]));
    }

    #[test]
    fn join_laws_idempotent_commutative_absorptive() {
        let d = figure3_doc();
        let mut st = EvalStats::new();
        let f1 = frag(&d, &[2, 3, 4]);
        let f2 = frag(&d, &[5]);
        // Idempotency
        assert_eq!(fragment_join(&d, &f1, &f1, &mut st), f1);
        // Commutativity
        assert_eq!(
            fragment_join(&d, &f1, &f2, &mut st),
            fragment_join(&d, &f2, &f1, &mut st)
        );
        // Absorption: f2' ⊆ f1 ⇒ f1 ⋈ f2' = f1
        let sub = frag(&d, &[3, 4]);
        assert_eq!(fragment_join(&d, &f1, &sub, &mut st), f1);
    }

    #[test]
    fn join_associative_on_example() {
        let d = figure3_doc();
        let mut st = EvalStats::new();
        let (a, b, c) = (frag(&d, &[4]), frag(&d, &[6]), frag(&d, &[9]));
        let left = fragment_join(&d, &fragment_join(&d, &a, &b, &mut st), &c, &mut st);
        let right = fragment_join(&d, &a, &fragment_join(&d, &b, &c, &mut st), &mut st);
        assert_eq!(left, right);
    }

    #[test]
    fn join_all_folds() {
        let d = figure3_doc();
        let mut st = EvalStats::new();
        let fs = [frag(&d, &[4]), frag(&d, &[6]), frag(&d, &[8])];
        let j = fragment_join_all(&d, fs.iter(), &mut st).unwrap();
        assert_eq!(j, frag(&d, &[0, 1, 2, 3, 4, 5, 6, 7, 8]));
        assert!(fragment_join_all(&d, [].iter(), &mut st).is_none());
    }

    #[test]
    fn join_many_matches_fold() {
        let d = figure3_doc();
        let mut st = EvalStats::new();
        for fs in [
            vec![frag(&d, &[4])],
            vec![frag(&d, &[4]), frag(&d, &[6])],
            vec![frag(&d, &[4]), frag(&d, &[6]), frag(&d, &[8])],
            vec![frag(&d, &[2, 3, 4]), frag(&d, &[9]), frag(&d, &[5, 6])],
            vec![frag(&d, &[0]), frag(&d, &[4]), frag(&d, &[4])],
        ] {
            let fold = fragment_join_all(&d, fs.iter(), &mut st);
            let many = fragment_join_many(&d, fs.iter(), &mut st);
            assert_eq!(fold, many, "inputs {fs:?}");
        }
        assert!(fragment_join_many(&d, [].iter(), &mut st).is_none());
        // Join accounting matches the fold convention: n − 1 joins.
        let mut st2 = EvalStats::new();
        let fs = [frag(&d, &[4]), frag(&d, &[6]), frag(&d, &[8])];
        fragment_join_many(&d, fs.iter(), &mut st2);
        assert_eq!(st2.joins, 2);
    }

    /// Figure 3(c): pairwise join of F1 = {f11, f12}, F2 = {f21, f22}
    /// produces the four pairwise joins.
    #[test]
    fn figure3c_pairwise() {
        let d = figure3_doc();
        let mut st = EvalStats::new();
        let f11 = frag(&d, &[3, 4]);
        let f12 = frag(&d, &[9]);
        let f21 = frag(&d, &[5, 6]);
        let f22 = frag(&d, &[8]);
        let s1 = FragmentSet::from_iter([f11.clone(), f12.clone()]);
        let s2 = FragmentSet::from_iter([f21.clone(), f22.clone()]);
        let out = pairwise_join(&d, &s1, &s2, &mut st);
        let expect = FragmentSet::from_iter([
            fragment_join(&d, &f11, &f21, &mut st),
            fragment_join(&d, &f11, &f22, &mut st),
            fragment_join(&d, &f12, &f21, &mut st),
            fragment_join(&d, &f12, &f22, &mut st),
        ]);
        assert_eq!(out, expect);
        assert_eq!(st.fragments_emitted, 4);
    }

    #[test]
    fn pairwise_laws() {
        let d = figure3_doc();
        let mut st = EvalStats::new();
        let s1 = FragmentSet::from_iter([frag(&d, &[4]), frag(&d, &[6])]);
        let s2 = FragmentSet::from_iter([frag(&d, &[8]), frag(&d, &[9])]);
        let s3 = FragmentSet::from_iter([frag(&d, &[2])]);
        // Commutativity
        assert_eq!(
            pairwise_join(&d, &s1, &s2, &mut st),
            pairwise_join(&d, &s2, &s1, &mut st)
        );
        // Associativity
        let l = pairwise_join(&d, &pairwise_join(&d, &s1, &s2, &mut st), &s3, &mut st);
        let r = pairwise_join(&d, &s1, &pairwise_join(&d, &s2, &s3, &mut st), &mut st);
        assert_eq!(l, r);
        // Monotonicity: F1 ⋈ F1 ⊇ F1
        let sq = pairwise_join(&d, &s1, &s1, &mut st);
        for f in s1.iter() {
            assert!(sq.contains(f));
        }
        // Distributivity over union
        let l = pairwise_join(&d, &s1, &s2.union(&s3), &mut st);
        let r = pairwise_join(&d, &s1, &s2, &mut st).union(&pairwise_join(&d, &s1, &s3, &mut st));
        assert_eq!(l, r);
    }

    /// Pairwise join is NOT idempotent (the paper notes counterexamples
    /// exist): joining two separated nodes creates a larger fragment not
    /// in the original set.
    #[test]
    fn pairwise_not_idempotent() {
        let d = figure3_doc();
        let mut st = EvalStats::new();
        let s = FragmentSet::from_iter([frag(&d, &[4]), frag(&d, &[6])]);
        let sq = pairwise_join(&d, &s, &s, &mut st);
        assert_ne!(sq, s);
        assert!(sq.contains(&frag(&d, &[2, 3, 4, 5, 6])));
    }

    /// Figure 3(d): powerset join produces strictly more fragments than
    /// pairwise join on the same operands.
    #[test]
    fn figure3d_powerset_superset_of_pairwise() {
        let d = figure3_doc();
        let mut st = EvalStats::new();
        let s1 = FragmentSet::from_iter([frag(&d, &[3, 4]), frag(&d, &[9])]);
        let s2 = FragmentSet::from_iter([frag(&d, &[5, 6]), frag(&d, &[8])]);
        let pw = pairwise_join(&d, &s1, &s2, &mut st);
        let ps = powerset_join(&d, &s1, &s2, &mut st).unwrap();
        for f in pw.iter() {
            assert!(ps.contains(f), "powerset must contain pairwise result {f}");
        }
        assert!(ps.len() > pw.len());
    }

    #[test]
    fn powerset_singletons_degenerates_to_pairwise() {
        let d = figure3_doc();
        let mut st = EvalStats::new();
        let s1 = FragmentSet::from_iter([frag(&d, &[4])]);
        let s2 = FragmentSet::from_iter([frag(&d, &[6])]);
        let ps = powerset_join(&d, &s1, &s2, &mut st).unwrap();
        assert_eq!(ps, pairwise_join(&d, &s1, &s2, &mut st));
    }

    #[test]
    fn powerset_rejects_oversized() {
        let d = figure3_doc();
        let mut st = EvalStats::new();
        let big = FragmentSet::from_iter((0..10).flat_map(|i| {
            (0..2).map(move |j| Fragment::node(NodeId(i * 1000 + j))) // ids unused
        }));
        let s2 = FragmentSet::from_iter([frag(&d, &[6])]);
        assert!(powerset_join(&d, &big, &s2, &mut st).is_err());
    }

    #[test]
    fn candidates_unique_and_consistent() {
        let d = figure3_doc();
        let mut st = EvalStats::new();
        let s1 = FragmentSet::from_iter([frag(&d, &[4]), frag(&d, &[6])]);
        let s2 = FragmentSet::from_iter([frag(&d, &[6]), frag(&d, &[8])]);
        let cands = powerset_join_candidates(&d, &s1, &s2, &mut st).unwrap();
        // Candidate unions must be unique.
        let mut seen = std::collections::HashSet::new();
        for (u, _) in &cands {
            assert!(seen.insert(u.clone()));
        }
        // And their joins must reproduce the powerset-join output set.
        let ps = powerset_join(&d, &s1, &s2, &mut st).unwrap();
        let from_cands = FragmentSet::from_iter(cands.into_iter().map(|(_, f)| f));
        assert_eq!(ps, from_cands);
    }
}
