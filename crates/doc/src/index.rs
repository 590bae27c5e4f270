//! Inverted keyword index: term → postings of node ids.
//!
//! Every query in the model starts with `F_i = σ_{keyword=k_i}(nodes(D))`
//! (§2.3). Scanning all nodes per query term is O(N · |text|); the index
//! makes it a lookup. The paper's own positioning ("no preprocessing of
//! data is carried out and all answer fragments of interest are computed
//! dynamically") refers to *fragment*-level precomputation à la INEX — a
//! plain keyword index is the assumed substrate of every cited system, and
//! we also provide [`InvertedIndex::scan_select`] to evaluate the selection
//! without the index for apples-to-apples baselines.

use crate::label::StructLabels;
use crate::text::{keyword_fields, node_contains, normalize_term, raw_tokens};
use crate::tree::{Document, NodeId};
use std::collections::{BTreeMap, HashMap};
use std::ops::Deref;
use std::sync::Arc;

/// A posting list handed out by a [`PostingsSource`]: either borrowed
/// from an in-memory index or shared out of a lazily-decoded segment.
/// Derefs to `[NodeId]` so callers treat both uniformly.
#[derive(Debug, Clone)]
pub enum Postings<'a> {
    /// A slice borrowed from an [`InvertedIndex`].
    Borrowed(&'a [NodeId]),
    /// A cached decode shared out of a segment.
    Shared(Arc<[NodeId]>),
}

impl Deref for Postings<'_> {
    type Target = [NodeId];

    fn deref(&self) -> &[NodeId] {
        match self {
            Postings::Borrowed(s) => s,
            Postings::Shared(a) => a,
        }
    }
}

/// Anything that can answer `σ_{keyword=k}` selections: the in-memory
/// [`InvertedIndex`], a persistent
/// [`SegmentIndex`](crate::segment::SegmentIndex), or a collection's
/// per-document handle. The query engine is generic over this trait, so
/// indexed and tree-walk evaluation share one code path.
pub trait PostingsSource {
    /// The postings for a (normalized) term, in document order.
    fn postings(&self, term: &str) -> Postings<'_>;

    /// Document frequency of a term. Sources with a directory answer
    /// this without materializing postings.
    fn df(&self, term: &str) -> usize {
        self.postings(term).len()
    }

    /// Structural labels, when this source persists them — the signal
    /// for the engine to use label arithmetic instead of tree walks.
    fn labels(&self) -> Option<&StructLabels> {
        None
    }

    /// Whether looking `term` up now would lazily materialize it (used
    /// for `index:load:{term}` trace provenance).
    fn needs_load(&self, term: &str) -> bool {
        let _ = term;
        false
    }

    /// Whether this source was decoded from a persistent segment.
    fn persistent(&self) -> bool {
        false
    }

    /// Index-time planner statistics for a term, when this source
    /// persists them (v2 segments). Sources without stats return `None`
    /// and the planner estimates live from the postings instead.
    fn term_stats(&self, term: &str) -> Option<crate::stats::TermStats> {
        let _ = term;
        None
    }
}

impl PostingsSource for InvertedIndex {
    fn postings(&self, term: &str) -> Postings<'_> {
        Postings::Borrowed(self.lookup(term))
    }
}

/// Immutable inverted index over one document.
///
/// Postings are sorted by node id (document order) and deduplicated.
#[derive(Debug, Clone, Default)]
pub struct InvertedIndex {
    postings: BTreeMap<String, Vec<NodeId>>,
    doc_len: usize,
}

impl InvertedIndex {
    /// Build the index for a document: O(total tokens), one pass.
    ///
    /// Each node's `keywords(n)` — the tokens of its tag, attribute names
    /// and values, and direct text — are lowered into one reused buffer
    /// and looked up by `&str`, so only a term's first occurrence
    /// allocates its key. Nodes are visited in ascending id order, so a
    /// posting list gets `n` at most once by skipping a token whose list
    /// already ends with `n`; postings come out sorted and unique.
    pub fn build(doc: &Document) -> Self {
        let mut postings: HashMap<String, Vec<NodeId>> = HashMap::new();
        let mut buf = String::new();
        for n in doc.node_ids() {
            for token in keyword_fields(doc, n).flat_map(raw_tokens) {
                buf.clear();
                if token.is_ascii() {
                    buf.push_str(token);
                    buf.make_ascii_lowercase();
                } else {
                    // Whole-token Unicode lowering: final sigma depends on
                    // the token's context, so no per-char shortcut.
                    buf.push_str(&token.to_lowercase());
                }
                match postings.get_mut(buf.as_str()) {
                    Some(list) if list.last() == Some(&n) => {}
                    Some(list) => list.push(n),
                    None => {
                        postings.insert(buf.clone(), vec![n]);
                    }
                }
            }
        }
        InvertedIndex {
            postings: postings.into_iter().collect(),
            doc_len: doc.len(),
        }
    }

    /// Number of distinct terms.
    pub fn term_count(&self) -> usize {
        self.postings.len()
    }

    /// Number of nodes in the indexed document.
    pub fn doc_len(&self) -> usize {
        self.doc_len
    }

    /// The postings for a (normalized) term, in document order.
    pub fn lookup(&self, term: &str) -> &[NodeId] {
        self.postings.get(term).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Normalize a raw user term and look it up.
    pub fn lookup_raw(&self, raw: &str) -> &[NodeId] {
        match normalize_term(raw) {
            Some(t) => self.lookup(&t),
            None => &[],
        }
    }

    /// Document frequency of a term (posting length).
    pub fn df(&self, term: &str) -> usize {
        self.lookup(term).len()
    }

    /// Iterate all `(term, postings)` pairs in lexicographic term order.
    pub fn terms(&self) -> impl Iterator<Item = (&str, &[NodeId])> {
        self.postings
            .iter()
            .map(|(t, p)| (t.as_str(), p.as_slice()))
    }

    /// Evaluate `σ_{keyword=k}(nodes(D))` by scanning the document instead
    /// of using the index. Provided so the benchmark harness can cost the
    /// index against the paper's "no preprocessing" stance.
    pub fn scan_select(doc: &Document, raw_term: &str) -> Vec<NodeId> {
        match normalize_term(raw_term) {
            Some(t) => doc
                .node_ids()
                .filter(|&n| node_contains(doc, n, &t))
                .collect(),
            None => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DocumentBuilder;
    use crate::text::keywords;
    use proptest::prelude::*;

    /// Words that stress lowering: ASCII case pairs, digits, repeats,
    /// and non-ASCII whose lower case differs from a per-char mapping
    /// (`İ` grows a combining dot, `Σ` lowers to final `ς` only at the
    /// end of a word, `ß` has no single-char upper case).
    const WORDS: [&str; 18] = [
        "Alpha",
        "alpha",
        "ALPHA",
        "x42",
        "42",
        "dup",
        "MiXeD9",
        "İ",
        "İstanbul",
        "ß",
        "STRASSE",
        "ΟΔΟΣ",
        "ΣΑΣ",
        "οδος",
        "Ünïcode",
        "ünïcode",
        "東京",
        "a_b",
    ];
    /// Separators between words; the empty one glues two words into a
    /// single mixed token (`AlphaΟΔΟΣ`).
    const SEPS: [&str; 8] = [" ", "", ",", "-", ".", "!", "'", "  "];

    /// A string of 0–5 pool words joined by pool separators.
    fn field(picks: &[usize]) -> String {
        let mut out = String::new();
        for (i, &p) in picks.iter().enumerate() {
            if i > 0 {
                out.push_str(SEPS[p % SEPS.len()]);
            }
            out.push_str(WORDS[(p / SEPS.len()) % WORDS.len()]);
        }
        out
    }

    /// The index as `keywords(n)` defines it: a per-node token set,
    /// pushed in node order.
    fn reference_index(doc: &Document) -> BTreeMap<String, Vec<NodeId>> {
        let mut postings: BTreeMap<String, Vec<NodeId>> = BTreeMap::new();
        for n in doc.node_ids() {
            for term in keywords(doc, n) {
                postings.entry(term).or_default().push(n);
            }
        }
        postings
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The one-pass build equals the `keywords()` reference term
        /// for term: same term set, same sorted unique postings.
        #[test]
        fn build_matches_the_keywords_reference(
            nodes in prop::collection::vec(
                (
                    prop::collection::vec(any::<usize>(), 1..3),
                    prop::collection::vec(
                        (
                            prop::collection::vec(any::<usize>(), 1..3),
                            prop::collection::vec(any::<usize>(), 0..5),
                        ),
                        0..3,
                    ),
                    prop::collection::vec(any::<usize>(), 0..12),
                    any::<usize>(),
                ),
                1..40,
            ),
        ) {
            // Node `i + 1` hangs under node `parent % (i + 1)`; built
            // recursively so ids come out in pre-order.
            let mut children: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
            for (i, node) in nodes.iter().enumerate().skip(1) {
                children[node.3 % i].push(i);
            }
            type Spec = (Vec<usize>, Vec<(Vec<usize>, Vec<usize>)>, Vec<usize>, usize);
            fn emit(b: &mut DocumentBuilder, nodes: &[Spec], children: &[Vec<usize>], v: usize) {
                let (tag, attrs, text, _) = &nodes[v];
                b.begin(field(tag));
                for (k, val) in attrs {
                    b.attr(field(k), field(val));
                }
                b.text(field(text));
                for &c in &children[v] {
                    emit(b, nodes, children, c);
                }
                b.end();
            }
            let mut b = DocumentBuilder::new();
            emit(&mut b, &nodes, &children, 0);
            let d = b.finish().unwrap();
            let built = InvertedIndex::build(&d);
            let reference = reference_index(&d);
            prop_assert_eq!(built.term_count(), reference.len());
            for ((term, postings), (ref_term, ref_postings)) in built.terms().zip(&reference) {
                prop_assert_eq!(term, ref_term.as_str());
                prop_assert_eq!(postings, ref_postings.as_slice());
            }
        }
    }

    fn doc() -> Document {
        let mut b = DocumentBuilder::new();
        b.begin("article"); // n0
        b.leaf("title", "XQuery optimization"); // n1
        b.begin("section"); // n2
        b.leaf("par", "cost models for XQuery"); // n3
        b.leaf("par", "join ordering"); // n4
        b.end();
        b.end();
        b.finish().unwrap()
    }

    #[test]
    fn build_and_lookup() {
        let d = doc();
        let idx = InvertedIndex::build(&d);
        assert_eq!(idx.lookup("xquery"), &[NodeId(1), NodeId(3)]);
        assert_eq!(idx.lookup("join"), &[NodeId(4)]);
        assert_eq!(idx.lookup("nothing"), &[] as &[NodeId]);
        // Tag names are indexed too.
        assert_eq!(idx.lookup("par"), &[NodeId(3), NodeId(4)]);
    }

    #[test]
    fn lookup_raw_normalizes() {
        let d = doc();
        let idx = InvertedIndex::build(&d);
        assert_eq!(idx.lookup_raw("XQuery"), &[NodeId(1), NodeId(3)]);
        assert_eq!(idx.lookup_raw("  "), &[] as &[NodeId]);
    }

    #[test]
    fn scan_select_agrees_with_index() {
        let d = doc();
        let idx = InvertedIndex::build(&d);
        for term in ["xquery", "join", "optimization", "par", "absent"] {
            assert_eq!(
                InvertedIndex::scan_select(&d, term),
                idx.lookup(term).to_vec(),
                "term {term}"
            );
        }
    }

    #[test]
    fn df_and_counts() {
        let d = doc();
        let idx = InvertedIndex::build(&d);
        assert_eq!(idx.df("xquery"), 2);
        assert_eq!(idx.doc_len(), 5);
        assert!(idx.term_count() >= 8);
    }

    #[test]
    fn postings_sorted_unique() {
        let mut b = DocumentBuilder::new();
        b.begin("a");
        b.text("dup dup dup");
        b.leaf("b", "dup");
        b.end();
        let d = b.finish().unwrap();
        let idx = InvertedIndex::build(&d);
        assert_eq!(idx.lookup("dup"), &[NodeId(0), NodeId(1)]);
    }
}
