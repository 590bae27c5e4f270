//! Multi-document collections.
//!
//! The paper's closing claim is that the model "can accommodate a very
//! large collection of XML documents". Fragments never span documents
//! (Definition 2 is per-tree), so a collection is evaluated document by
//! document — but indexing, term statistics and result bookkeeping need a
//! collection-level substrate, which this module provides.
//!
//! Each document's index is either built in memory ([`Collection::add`],
//! the legacy/tree-walk path) or decoded from a persistent `.xidx`
//! segment ([`Collection::add_with_segment`]), in which case term
//! selections run off lazily-materialized postings and structural
//! arithmetic runs off prefix labels. [`Collection::index`] hands out a
//! uniform [`IndexHandle`] over both.
//!
//! A document and its index depend only on that document's bytes, so
//! both are held behind `Arc`s: [`Collection::share`] hands a loaded
//! document out and [`Collection::add_shared`] adopts it into another
//! collection without re-reading, re-decoding or re-indexing it — how a
//! hot reload reuses the documents a delta left untouched.

use crate::index::{InvertedIndex, Postings, PostingsSource};
use crate::label::StructLabels;
use crate::segment::SegmentIndex;
use crate::tree::Document;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Identifier of a document within a [`Collection`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DocId(pub u32);

impl std::fmt::Display for DocId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "d{}", self.0)
    }
}

/// One document's index: in-memory or segment-backed.
#[derive(Debug)]
enum DocIndex {
    Mem(InvertedIndex),
    // Boxed: the stats block makes SegmentIndex an order of magnitude
    // larger than InvertedIndex's map header.
    Seg(Box<SegmentIndex>),
}

impl DocIndex {
    /// The distinct terms the index holds, for collection statistics.
    fn term_names(&self) -> Box<dyn Iterator<Item = &str> + '_> {
        match self {
            DocIndex::Mem(m) => Box::new(m.terms().map(|(t, _)| t)),
            DocIndex::Seg(s) => Box::new(s.term_names()),
        }
    }
}

/// One loaded document together with its index, shareable between
/// collections ([`Collection::share`] / [`Collection::add_shared`]).
/// Cloning is two reference-count bumps.
#[derive(Debug, Clone)]
pub struct SharedDoc {
    doc: Arc<Document>,
    index: Arc<DocIndex>,
}

/// A borrowed view of one document's index, uniform over the in-memory
/// and segment-backed representations. Copyable; implements
/// [`PostingsSource`] so it plugs straight into the query engine.
#[derive(Debug, Clone, Copy)]
pub struct IndexHandle<'a>(&'a DocIndex);

impl<'a> IndexHandle<'a> {
    /// The postings for a (normalized) term, in document order.
    pub fn postings(&self, term: &str) -> Postings<'a> {
        match self.0 {
            DocIndex::Mem(m) => Postings::Borrowed(m.lookup(term)),
            DocIndex::Seg(s) => Postings::Shared(s.lookup(term)),
        }
    }

    /// Document frequency of a term (no posting materialization for
    /// segment-backed indexes).
    pub fn df(&self, term: &str) -> usize {
        match self.0 {
            DocIndex::Mem(m) => m.df(term),
            DocIndex::Seg(s) => s.df(term),
        }
    }

    /// Whether the document contains the term at all.
    pub fn has_term(&self, term: &str) -> bool {
        match self.0 {
            DocIndex::Mem(m) => !m.lookup(term).is_empty(),
            DocIndex::Seg(s) => s.has_term(term),
        }
    }

    /// Number of distinct terms.
    pub fn term_count(&self) -> usize {
        match self.0 {
            DocIndex::Mem(m) => m.term_count(),
            DocIndex::Seg(s) => s.term_count(),
        }
    }

    /// Structural labels, for segment-backed indexes.
    pub fn labels(&self) -> Option<&'a StructLabels> {
        match self.0 {
            DocIndex::Mem(_) => None,
            DocIndex::Seg(s) => Some(s.labels()),
        }
    }

    /// The backing segment, if this index is segment-backed.
    pub fn segment(&self) -> Option<&'a SegmentIndex> {
        match self.0 {
            DocIndex::Mem(_) => None,
            DocIndex::Seg(s) => Some(s),
        }
    }
}

impl PostingsSource for IndexHandle<'_> {
    fn postings(&self, term: &str) -> Postings<'_> {
        IndexHandle::postings(self, term)
    }

    fn df(&self, term: &str) -> usize {
        IndexHandle::df(self, term)
    }

    fn labels(&self) -> Option<&StructLabels> {
        IndexHandle::labels(self)
    }

    fn needs_load(&self, term: &str) -> bool {
        match self.0 {
            DocIndex::Mem(_) => false,
            DocIndex::Seg(s) => !s.is_loaded(term),
        }
    }

    fn persistent(&self) -> bool {
        matches!(self.0, DocIndex::Seg(_))
    }

    fn term_stats(&self, term: &str) -> Option<crate::stats::TermStats> {
        match self.0 {
            DocIndex::Mem(_) => None,
            DocIndex::Seg(s) => s.term_stats(term),
        }
    }
}

/// A named set of documents with per-document indexes and collection-wide
/// term statistics.
#[derive(Debug, Default)]
pub struct Collection {
    names: Vec<String>,
    docs: Vec<SharedDoc>,
    /// term → number of documents containing it.
    doc_freq: BTreeMap<String, u32>,
}

impl Collection {
    /// An empty collection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a document under a display name, building its index in
    /// memory; returns its id.
    pub fn add(&mut self, name: impl Into<String>, doc: Document) -> DocId {
        let index = InvertedIndex::build(&doc);
        self.push(name.into(), doc, DocIndex::Mem(index))
    }

    /// Add a document backed by a decoded index segment: term statistics
    /// come from the segment's directory, postings stay lazy, and the
    /// query engine uses its labels for structural arithmetic.
    pub fn add_with_segment(
        &mut self,
        name: impl Into<String>,
        doc: Document,
        segment: SegmentIndex,
    ) -> DocId {
        self.push(name.into(), doc, DocIndex::Seg(Box::new(segment)))
    }

    /// A shareable handle on an already-loaded document and its index.
    #[track_caller]
    pub fn share(&self, id: DocId) -> SharedDoc {
        self.docs[id.0 as usize].clone()
    }

    /// Add a document another collection already loaded, without
    /// copying it: both collections then hold the same tree and index
    /// (lazily materialized postings included). Term statistics are
    /// rebuilt from the shared index's term list.
    pub fn add_shared(&mut self, name: impl Into<String>, shared: SharedDoc) -> DocId {
        for term in shared.index.term_names() {
            *self.doc_freq.entry(term.to_string()).or_insert(0) += 1;
        }
        let id = DocId(self.docs.len() as u32);
        self.names.push(name.into());
        self.docs.push(shared);
        id
    }

    fn push(&mut self, name: String, doc: Document, index: DocIndex) -> DocId {
        let shared = SharedDoc {
            doc: Arc::new(doc),
            index: Arc::new(index),
        };
        self.add_shared(name, shared)
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Whether the collection has no documents.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// The document ids in insertion order.
    pub fn ids(&self) -> impl ExactSizeIterator<Item = DocId> {
        (0..self.docs.len() as u32).map(DocId)
    }

    /// The document behind an id.
    #[track_caller]
    pub fn doc(&self, id: DocId) -> &Document {
        &self.docs[id.0 as usize].doc
    }

    /// The per-document index behind an id. (Named for the domain object,
    /// not `std::ops::Index` — a collection is not indexable by `DocId`
    /// into one canonical output type.)
    #[track_caller]
    #[allow(clippy::should_implement_trait)]
    pub fn index(&self, id: DocId) -> IndexHandle<'_> {
        IndexHandle(&self.docs[id.0 as usize].index)
    }

    /// The display name behind an id.
    #[track_caller]
    pub fn name(&self, id: DocId) -> &str {
        &self.names[id.0 as usize]
    }

    /// Collection-level document frequency of a (normalized) term.
    pub fn doc_freq(&self, term: &str) -> u32 {
        self.doc_freq.get(term).copied().unwrap_or(0)
    }

    /// Documents containing *all* the given terms — the candidates a
    /// conjunctive query can possibly answer from. Directory-only for
    /// segment-backed documents: no postings are materialized.
    pub fn candidate_docs<'a>(&'a self, terms: &'a [String]) -> impl Iterator<Item = DocId> + 'a {
        self.ids()
            .filter(move |&id| terms.iter().all(|t| self.index(id).has_term(t)))
    }

    /// Total node count across all documents.
    pub fn total_nodes(&self) -> usize {
        self.docs.iter().map(|d| d.doc.len()).sum()
    }

    /// How many documents are segment-backed.
    pub fn segment_count(&self) -> usize {
        self.docs
            .iter()
            .filter(|d| matches!(*d.index, DocIndex::Seg(_)))
            .count()
    }

    /// Total encoded bytes across all loaded index segments.
    pub fn index_bytes(&self) -> u64 {
        self.docs
            .iter()
            .map(|d| match &*d.index {
                DocIndex::Mem(_) => 0,
                DocIndex::Seg(s) => s.bytes_len() as u64,
            })
            .sum()
    }

    /// Total terms lazily materialized across all segments so far.
    pub fn index_terms_loaded(&self) -> u64 {
        self.docs
            .iter()
            .map(|d| match &*d.index {
                DocIndex::Mem(_) => 0,
                DocIndex::Seg(s) => s.terms_loaded(),
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_str;
    use crate::segment::encode_segment;

    fn collection() -> Collection {
        let mut c = Collection::new();
        c.add("a.xml", parse_str("<a><p>alpha beta</p></a>").unwrap());
        c.add(
            "b.xml",
            parse_str("<b><p>alpha</p><p>gamma</p></b>").unwrap(),
        );
        c.add("c.xml", parse_str("<c><p>delta</p></c>").unwrap());
        c
    }

    #[test]
    fn add_and_lookup() {
        let c = collection();
        assert_eq!(c.len(), 3);
        assert_eq!(c.name(DocId(1)), "b.xml");
        assert_eq!(c.doc(DocId(0)).len(), 2);
        assert_eq!(c.index(DocId(1)).df("alpha"), 1);
        assert_eq!(c.total_nodes(), 2 + 3 + 2);
        assert_eq!(c.segment_count(), 0);
        assert_eq!(c.index_bytes(), 0);
    }

    #[test]
    fn collection_doc_freq() {
        let c = collection();
        assert_eq!(c.doc_freq("alpha"), 2);
        assert_eq!(c.doc_freq("delta"), 1);
        assert_eq!(c.doc_freq("absent"), 0);
        // Tag names count as terms too.
        assert_eq!(c.doc_freq("p"), 3);
    }

    #[test]
    fn candidate_docs_conjunctive() {
        let c = collection();
        let terms = vec!["alpha".to_string(), "beta".to_string()];
        let hits: Vec<DocId> = c.candidate_docs(&terms).collect();
        assert_eq!(hits, vec![DocId(0)]);
        let terms = vec!["alpha".to_string()];
        assert_eq!(c.candidate_docs(&terms).count(), 2);
        let terms = vec!["alpha".to_string(), "zzz".to_string()];
        assert_eq!(c.candidate_docs(&terms).count(), 0);
    }

    #[test]
    fn empty_collection() {
        let c = Collection::new();
        assert!(c.is_empty());
        assert_eq!(c.ids().count(), 0);
        assert_eq!(c.doc_freq("x"), 0);
    }

    #[test]
    fn segment_backed_documents_match_memory_backed_ones() {
        let xml_a = "<a><p>alpha beta</p></a>";
        let xml_b = "<b><p>alpha</p><p>gamma</p></b>";
        let mut mem = Collection::new();
        mem.add("a.xml", parse_str(xml_a).unwrap());
        mem.add("b.xml", parse_str(xml_b).unwrap());
        let mut seg = Collection::new();
        for (name, xml) in [("a.xml", xml_a), ("b.xml", xml_b)] {
            let d = parse_str(xml).unwrap();
            let s = SegmentIndex::from_bytes(&encode_segment(&d)).unwrap();
            seg.add_with_segment(name, d, s);
        }
        assert_eq!(seg.segment_count(), 2);
        assert!(seg.index_bytes() > 0);
        assert_eq!(seg.index_terms_loaded(), 0);
        for term in ["alpha", "beta", "gamma", "p", "absent"] {
            assert_eq!(seg.doc_freq(term), mem.doc_freq(term), "doc_freq {term}");
            for id in mem.ids() {
                assert_eq!(
                    &*seg.index(id).postings(term),
                    &*mem.index(id).postings(term),
                    "postings {term} {id}"
                );
                assert_eq!(seg.index(id).df(term), mem.index(id).df(term));
                assert_eq!(seg.index(id).has_term(term), mem.index(id).has_term(term));
            }
        }
        // Lookups above materialized some terms lazily.
        assert!(seg.index_terms_loaded() > 0);
        assert!(seg.index(DocId(0)).labels().is_some());
        assert!(mem.index(DocId(0)).labels().is_none());
        // Candidate filtering agrees and stays directory-only.
        let terms = vec!["alpha".to_string()];
        assert_eq!(
            seg.candidate_docs(&terms).collect::<Vec<_>>(),
            mem.candidate_docs(&terms).collect::<Vec<_>>()
        );
    }

    #[test]
    fn shared_documents_match_fresh_copies() {
        let xml = [
            "<a><p>alpha beta</p></a>",
            "<b><p>alpha</p><p>gamma</p></b>",
            "<c><p>delta alpha</p></c>",
            "<d><q>beta gamma</q></d>",
        ];
        // Odd positions segment-backed, even ones in memory.
        let add = |c: &mut Collection, i: usize| {
            let d = parse_str(xml[i]).unwrap();
            let name = format!("{i}.xml");
            if i % 2 == 1 {
                let s = SegmentIndex::from_bytes(&encode_segment(&d)).unwrap();
                c.add_with_segment(name, d, s)
            } else {
                c.add(name, d)
            }
        };
        let mut old = Collection::new();
        for i in 0..xml.len() {
            add(&mut old, i);
        }
        // The next collection drops document 0, shares 1..=3 in a new
        // order, and matches one built from fresh copies in that order.
        let order = [3, 1, 2];
        let mut shared = Collection::new();
        let mut fresh = Collection::new();
        for &i in &order {
            let id = shared.add_shared(format!("{i}.xml"), old.share(DocId(i as u32)));
            add(&mut fresh, i);
            let (a, b) = (old.share(DocId(i as u32)), shared.share(id));
            assert!(Arc::ptr_eq(&a.doc, &b.doc), "doc {i} copied");
            assert!(Arc::ptr_eq(&a.index, &b.index), "index {i} copied");
            assert_eq!(shared.name(id), format!("{i}.xml"));
        }
        assert_eq!(shared.len(), fresh.len());
        assert_eq!(shared.segment_count(), fresh.segment_count());
        assert_eq!(shared.segment_count(), 2);
        assert_eq!(shared.index_bytes(), fresh.index_bytes());
        assert_eq!(shared.total_nodes(), fresh.total_nodes());
        let terms = ["alpha", "beta", "gamma", "delta", "p", "q", "a", "absent"];
        for term in terms {
            assert_eq!(
                shared.doc_freq(term),
                fresh.doc_freq(term),
                "doc_freq {term}"
            );
            for id in fresh.ids() {
                assert_eq!(
                    &*shared.index(id).postings(term),
                    &*fresh.index(id).postings(term),
                    "postings {term} {id}"
                );
            }
        }
        assert_eq!(shared.doc_freq("a"), 0, "dropped document still counted");
        for q in [&["alpha"][..], &["beta", "gamma"], &["alpha", "zzz"]] {
            let q: Vec<String> = q.iter().map(|t| t.to_string()).collect();
            assert_eq!(
                shared.candidate_docs(&q).collect::<Vec<_>>(),
                fresh.candidate_docs(&q).collect::<Vec<_>>(),
                "candidates {q:?}"
            );
        }
        // Lazily loaded postings live in the shared segment, so loads
        // through either collection show up in both.
        assert_eq!(shared.index_terms_loaded(), old.index_terms_loaded());
        assert!(old.index_terms_loaded() > 0);
    }
}
