//! Index-time statistics for the §5 cost model.
//!
//! The planner (core) needs, per term: how much `⊖` (fragment-set
//! reduce) would shrink the operand set (the paper's reduction factor
//! `RF = (a − b)/a`), how deep the postings sit, and a cheap overlap
//! summary for join-cardinality guesses. All three are computable at
//! `xfrag index` time from the structural labels alone, because every
//! posting is a *single-node* fragment: the join of two single-node
//! fragments ⟨a⟩ ⋈ ⟨b⟩ is exactly the inclusive tree path between
//! `a` and `b`, and membership of a third node on that path is O(1)
//! label arithmetic — no fragment materialization at all.
//!
//! The RF estimate here computes the same `(eliminated, candidates)`
//! as `core::cost::estimate_rf` (same stride, same candidate and pair
//! pools, same elimination predicate) in O(k²) label arithmetic per
//! term instead of O(k³) pair checks, and the segment stores those raw
//! integers rather than a rounded ratio, so a plan computed from a v2
//! segment is bit-identical to one computed live from in-memory
//! postings.

use crate::label::StructLabels;
use crate::store::fnv1a;
use crate::tree::NodeId;

/// Sample size used for the index-time RF estimate. Must match the
/// query-time estimator's sample (`CostModel::rf_sample` defaults to
/// this) for segment-backed and in-memory plans to agree exactly; the
/// planner only trusts segment stats when the samples match.
pub const RF_SAMPLE: usize = 32;

/// Number of buckets in the per-document depth histogram; depths at or
/// beyond the last bucket are clamped into it.
pub const DEPTH_BUCKETS: usize = 16;

/// Per-term statistics persisted in a v2 `.xidx` segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TermStats {
    /// Sampled candidates eliminated by some sampled pair's join.
    pub rf_eliminated: u16,
    /// Sampled candidate count (0 when the set is too small to reduce).
    pub rf_candidates: u16,
    /// Minimum posting depth (root = 0); 0 when the term has no postings.
    pub depth_min: u32,
    /// Maximum posting depth; 0 when the term has no postings.
    pub depth_max: u32,
    /// 64-bit bitmap of hashed posting node ids, for overlap estimates.
    pub sketch: u64,
}

impl TermStats {
    /// The sampled reduction factor `RF = eliminated / candidates`
    /// (0 when nothing was sampled — sets of ≤ 2 never reduce).
    pub fn rf(&self) -> f64 {
        if self.rf_candidates == 0 {
            0.0
        } else {
            self.rf_eliminated as f64 / self.rf_candidates as f64
        }
    }

    /// Depth spread of the postings (`depth_max − depth_min`).
    pub fn depth_span(&self) -> u32 {
        self.depth_max.saturating_sub(self.depth_min)
    }

    /// Estimated number of shared posting nodes with another term:
    /// popcount of the sketch intersection (an upper-bound style guess,
    /// good enough to rank join cardinalities).
    pub fn overlap_estimate(&self, other: &TermStats) -> u32 {
        (self.sketch & other.sketch).count_ones()
    }
}

/// Document-level + per-term statistics, as stored in a segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentStats {
    /// Node count per depth bucket (depth clamped to the last bucket);
    /// sums to the document's node count.
    pub depth_hist: [u32; DEPTH_BUCKETS],
    /// Per-term stats, parallel to the segment's lexicographic term
    /// directory.
    pub terms: Vec<TermStats>,
}

/// 64-bit membership sketch of a posting list: one hashed bit per node.
pub fn term_sketch(postings: &[NodeId]) -> u64 {
    let mut sketch = 0u64;
    for n in postings {
        sketch |= 1u64 << (fnv1a(&n.0.to_le_bytes()) % 64);
    }
    sketch
}

/// Depth histogram over every node of the document.
pub fn depth_histogram(labels: &StructLabels) -> [u32; DEPTH_BUCKETS] {
    let mut hist = [0u32; DEPTH_BUCKETS];
    for i in 0..labels.len() {
        let d = (labels.depth(NodeId(i as u32)) as usize).min(DEPTH_BUCKETS - 1);
        hist[d] += 1;
    }
    hist
}

/// Is the pooled candidate `postings[ci]` inside the join of some pair
/// of *other* pooled postings?
///
/// Every posting is a single-node fragment, so `⟨c⟩ ⊆ ⟨a⟩ ⋈ ⟨b⟩` holds
/// iff `c` lies on the tree path between `a` and `b`: `c` is an
/// ancestor-or-self of one endpoint (say `a`, so `a` sits in `c`'s
/// subtree) and `lca(a, b)` is an ancestor-or-self of `c` — i.e. `b`
/// leaves `c`'s subtree or branches off at `c` into a different child
/// than `a`. So with `D` the other pooled postings strictly below `c`,
/// `c` is eliminated iff `D` is non-empty and either some other posting
/// lies outside `c`'s subtree or two members of `D` sit under different
/// children of `c`. A pooled duplicate of `c` itself eliminates it
/// outright (`⟨c⟩ ⋈ ⟨x⟩` always contains `c`, and a pool of more than
/// two postings always has a third to pair it with). One pass over the
/// pool per candidate: O(k) label lookups instead of O(k²) pairs.
fn is_eliminated(labels: &StructLabels, postings: &[NodeId], pool: &[usize], ci: usize) -> bool {
    let c = postings[ci];
    let dc = labels.depth(c) as usize;
    let (mut below_child, mut outside) = (None, false);
    for &oi in pool {
        if oi == ci {
            continue;
        }
        let o = postings[oi];
        if o == c {
            return true;
        }
        let lo = labels.label(o);
        if lo.len() > dc && lo[dc] == c.0 {
            // `o` is a strict descendant of `c`, so `lo[dc + 1]` exists
            // and names the child of `c` it sits under.
            match below_child {
                None => below_child = Some(lo[dc + 1]),
                Some(child) if child != lo[dc + 1] => return true,
                Some(_) => {}
            }
        } else {
            outside = true;
        }
    }
    outside && below_child.is_some()
}

/// Compute the stats for one term's posting list.
///
/// The RF sample mirrors the query-time estimator exactly: evenly-strided
/// candidate and pair pools of up to [`RF_SAMPLE`] postings each, a
/// candidate counts as eliminated when *any* sampled pair's join
/// contains it, and sets of ≤ 2 postings never reduce.
pub fn compute_term_stats(labels: &StructLabels, postings: &[NodeId]) -> TermStats {
    let (depth_min, depth_max) = postings.iter().fold((u32::MAX, 0u32), |(lo, hi), &n| {
        let d = labels.depth(n);
        (lo.min(d), hi.max(d))
    });
    let (depth_min, depth_max) = if postings.is_empty() {
        (0, 0)
    } else {
        (depth_min, depth_max)
    };

    let n = postings.len();
    let (mut eliminated, mut candidates) = (0u16, 0u16);
    if n > 2 {
        let stride = n.div_ceil(RF_SAMPLE).max(1);
        let pool: Vec<usize> = (0..n).step_by(stride).collect();
        candidates = pool.len() as u16;
        eliminated = pool
            .iter()
            .filter(|&&ci| is_eliminated(labels, postings, &pool, ci))
            .count() as u16;
    }

    TermStats {
        rf_eliminated: eliminated,
        rf_candidates: candidates,
        depth_min,
        depth_max,
        sketch: term_sketch(postings),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DocumentBuilder;
    use crate::parse::parse_str;
    use crate::tree::Document;
    use proptest::prelude::*;

    /// Is `c` on the inclusive tree path between `a` and `b`? Equivalent
    /// to `⟨c⟩ ⊆ ⟨a⟩ ⋈ ⟨b⟩` for single-node fragments.
    fn on_path(labels: &StructLabels, c: NodeId, a: NodeId, b: NodeId) -> bool {
        (labels.is_ancestor_or_self(c, a) || labels.is_ancestor_or_self(c, b))
            && labels.is_ancestor_or_self(labels.lca(a, b), c)
    }

    /// The O(k³) kernel `compute_term_stats` replaced: every candidate
    /// against every pair of the pool, step for step as
    /// `core::cost::estimate_rf` does it.
    fn reference_term_stats(labels: &StructLabels, postings: &[NodeId]) -> TermStats {
        let (depth_min, depth_max) = postings.iter().fold((u32::MAX, 0u32), |(lo, hi), &n| {
            let d = labels.depth(n);
            (lo.min(d), hi.max(d))
        });
        let (depth_min, depth_max) = if postings.is_empty() {
            (0, 0)
        } else {
            (depth_min, depth_max)
        };
        let n = postings.len();
        let (mut eliminated, mut candidates) = (0u16, 0u16);
        if n > 2 {
            let stride = n.div_ceil(RF_SAMPLE).max(1);
            let pool: Vec<usize> = (0..n).step_by(stride).collect();
            candidates = pool.len() as u16;
            'cand: for &ci in &pool {
                for (ii, &i) in pool.iter().enumerate() {
                    if i == ci {
                        continue;
                    }
                    for &j in &pool[ii + 1..] {
                        if j == ci {
                            continue;
                        }
                        if on_path(labels, postings[ci], postings[i], postings[j]) {
                            eliminated += 1;
                            continue 'cand;
                        }
                    }
                }
            }
        }
        TermStats {
            rf_eliminated: eliminated,
            rf_candidates: candidates,
            depth_min,
            depth_max,
            sketch: term_sketch(postings),
        }
    }

    /// Emit the tree `children[0]` roots, in pre-order.
    fn from_children(children: &[Vec<usize>]) -> Document {
        fn emit(b: &mut DocumentBuilder, children: &[Vec<usize>], v: usize) {
            b.begin(format!("e{v}"));
            for &c in &children[v] {
                emit(b, children, c);
            }
            b.end();
        }
        let mut b = DocumentBuilder::new();
        emit(&mut b, children, 0);
        b.finish().expect("generated tree is valid")
    }

    /// Node `i + 1` hangs under `parent(i)`, which must be `≤ i`.
    fn tree(n: usize, parent: impl Fn(usize) -> usize) -> Document {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
        for i in 0..n - 1 {
            children[parent(i)].push(i + 1);
        }
        from_children(&children)
    }

    /// The docgen shape: an article of titled sections, subsections and
    /// paragraph leaves, with fan-outs drawn from `fanouts`.
    fn docgen_like(fanouts: &[usize]) -> Document {
        let mut next = fanouts.iter().cycle().copied();
        let mut next = move |lo: usize, hi: usize| lo + next.next().unwrap_or(0) % (hi - lo + 1);
        let mut b = DocumentBuilder::new();
        b.begin("article");
        b.leaf("title", "t");
        for _ in 0..next(1, 5) {
            b.begin("section");
            b.leaf("title", "t");
            for _ in 0..next(2, 4) {
                b.begin("subsection");
                b.leaf("title", "t");
                for _ in 0..next(3, 8) {
                    b.leaf("par", "w");
                }
                b.end();
            }
            b.end();
        }
        b.end();
        b.finish().expect("generated tree is valid")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The O(k²) kernel agrees with the O(k³) reference on every
        /// field, over random trees, deep chains, wide stars and
        /// docgen-shaped articles, for raw posting lists (unsorted, with
        /// duplicates) and for the sorted, unique lists an index holds.
        #[test]
        fn kernel_matches_the_cubic_reference(
            shape in 0..4usize,
            size in 1..400usize,
            choices in prop::collection::vec(any::<usize>(), 400),
            raw in prop::collection::vec(any::<u32>(), 0..=300),
        ) {
            let d = match shape {
                0 => tree(size, |i| choices[i] % (i + 1)),
                1 => tree(size, |i| i),
                2 => tree(size, |_| 0),
                _ => docgen_like(&choices),
            };
            let labels = StructLabels::build(&d);
            let mut postings: Vec<NodeId> =
                raw.iter().map(|&x| NodeId(x % d.len() as u32)).collect();
            prop_assert_eq!(
                compute_term_stats(&labels, &postings),
                reference_term_stats(&labels, &postings)
            );
            postings.sort_unstable();
            postings.dedup();
            prop_assert_eq!(
                compute_term_stats(&labels, &postings),
                reference_term_stats(&labels, &postings)
            );
        }
    }

    #[test]
    fn fixed_cases_match_the_cubic_reference() {
        let cases = [
            (
                "<r><a><b><c><d/></c></b></a></r>",
                (0..5).collect::<Vec<u32>>(),
            ),
            ("<r><a/><b/><c/></r>", vec![1, 2, 3]),
            ("<r><a/></r>", vec![]),
            ("<r><a/></r>", vec![0]),
            ("<r><a/></r>", vec![0, 1]),
        ];
        for (xml, ids) in cases {
            let d = parse_str(xml).unwrap();
            let labels = StructLabels::build(&d);
            let postings: Vec<NodeId> = ids.into_iter().map(NodeId).collect();
            assert_eq!(
                compute_term_stats(&labels, &postings),
                reference_term_stats(&labels, &postings),
                "{xml}"
            );
        }
    }

    #[test]
    fn chain_postings_reduce_heavily() {
        // r -> a -> b -> c -> d: every interior node of the chain lies on
        // the path between its neighbours.
        let d = parse_str("<r><a><b><c><d/></c></b></a></r>").unwrap();
        let labels = StructLabels::build(&d);
        let postings: Vec<NodeId> = (0..5).map(NodeId).collect();
        let ts = compute_term_stats(&labels, &postings);
        assert_eq!(ts.rf_candidates, 5);
        // Ends of the chain can never be inside a path of other nodes.
        assert_eq!(ts.rf_eliminated, 3);
        assert!((ts.rf() - 0.6).abs() < 1e-9);
        assert_eq!((ts.depth_min, ts.depth_max), (0, 4));
        assert_eq!(ts.depth_span(), 4);
    }

    #[test]
    fn scattered_leaves_do_not_reduce() {
        let d = parse_str("<r><a/><b/><c/></r>").unwrap();
        let labels = StructLabels::build(&d);
        let postings: Vec<NodeId> = (1..4).map(NodeId).collect();
        let ts = compute_term_stats(&labels, &postings);
        assert_eq!(ts.rf_eliminated, 0);
        assert_eq!(ts.rf(), 0.0);
        assert_eq!((ts.depth_min, ts.depth_max), (1, 1));
    }

    #[test]
    fn tiny_and_empty_sets_have_no_rf_sample() {
        let d = parse_str("<r><a/></r>").unwrap();
        let labels = StructLabels::build(&d);
        for postings in [vec![], vec![NodeId(0)], vec![NodeId(0), NodeId(1)]] {
            let ts = compute_term_stats(&labels, &postings);
            assert_eq!(ts.rf_candidates, 0);
            assert_eq!(ts.rf(), 0.0);
        }
    }

    #[test]
    fn sketch_overlap_tracks_shared_postings() {
        let a = term_sketch(&[NodeId(1), NodeId(2), NodeId(3)]);
        let b = term_sketch(&[NodeId(2), NodeId(3), NodeId(9)]);
        let ta = TermStats {
            rf_eliminated: 0,
            rf_candidates: 0,
            depth_min: 0,
            depth_max: 0,
            sketch: a,
        };
        let tb = TermStats { sketch: b, ..ta };
        assert!(ta.overlap_estimate(&tb) >= 2);
        assert_eq!(ta.overlap_estimate(&ta), a.count_ones());
        assert_eq!(term_sketch(&[]), 0);
    }

    #[test]
    fn depth_histogram_sums_to_node_count_and_clamps() {
        let d = parse_str("<r><a><b/></a><c/></r>").unwrap();
        let labels = StructLabels::build(&d);
        let hist = depth_histogram(&labels);
        assert_eq!(hist.iter().map(|&c| c as usize).sum::<usize>(), d.len());
        assert_eq!(hist[0], 1);
        assert_eq!(hist[1], 2);
        assert_eq!(hist[2], 1);
    }
}
