//! Keyword extraction — the paper's `keywords(n)` function.
//!
//! Definition 1 gives each node a function `keywords(n)` returning the
//! representative keywords of the component, and the paper (following
//! XRank and keyword-proximity work) "does not distinguish between
//! tag/attribute names and text contents". Accordingly a node's keywords
//! are the union of the tokens of its tag name, attribute names, attribute
//! values, and direct text content.
//!
//! Tokenization is deliberately simple and deterministic: Unicode
//! alphanumeric runs, lower-cased. No stemming, no stop words — those are
//! IR concerns the paper explicitly leaves to ranking systems.

use crate::tree::{Document, NodeId};
use std::collections::BTreeSet;

/// Split a string into lower-cased alphanumeric tokens.
///
/// ```
/// use xfrag_doc::text::tokenize;
/// let toks: Vec<String> = tokenize("XQuery-based optimization, 2nd ed.").collect();
/// assert_eq!(toks, ["xquery", "based", "optimization", "2nd", "ed"]);
/// ```
pub fn tokenize(s: &str) -> impl Iterator<Item = String> + '_ {
    raw_tokens(s).map(|t| t.to_lowercase())
}

/// The alphanumeric runs of a string, before lower-casing: the token
/// boundaries [`tokenize`] uses.
pub(crate) fn raw_tokens(s: &str) -> impl Iterator<Item = &str> + '_ {
    s.split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty())
}

/// Normalize a single query term the same way document text is tokenized.
/// Multi-token inputs keep only their first token; empty input yields `None`.
pub fn normalize_term(s: &str) -> Option<String> {
    tokenize(s).next()
}

/// The strings `keywords(n)` draws on: the node's tag name, each
/// attribute's name and value, and its direct text, in that order.
pub(crate) fn keyword_fields(doc: &Document, n: NodeId) -> impl Iterator<Item = &str> {
    let node = doc.node(n);
    std::iter::once(node.tag.as_str())
        .chain(
            node.attrs
                .iter()
                .flat_map(|(k, v)| [k.as_str(), v.as_str()]),
        )
        .chain(std::iter::once(node.text.as_str()))
}

/// The `keywords(n)` of Definition 1: every distinct token in the node's
/// tag name, attribute names/values, and direct text.
pub fn keywords(doc: &Document, n: NodeId) -> BTreeSet<String> {
    keyword_fields(doc, n).flat_map(tokenize).collect()
}

/// `k ∈ keywords(n)` — does query term `k` (already normalized) appear in
/// the textual contents associated with node `n`?
pub fn node_contains(doc: &Document, n: NodeId, term: &str) -> bool {
    keyword_fields(doc, n).flat_map(tokenize).any(|t| t == term)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DocumentBuilder;

    fn doc() -> Document {
        let mut b = DocumentBuilder::new();
        b.begin("Section");
        b.attr("Title", "Query Optimization");
        b.text("XQuery engines and their COST models.");
        b.end();
        b.finish().unwrap()
    }

    #[test]
    fn tokenize_handles_punctuation_and_case() {
        let toks: Vec<_> = tokenize("Hello, World! foo_bar 42x").collect();
        assert_eq!(toks, ["hello", "world", "foo", "bar", "42x"]);
    }

    #[test]
    fn tokenize_unicode() {
        let toks: Vec<_> = tokenize("naïve Größe 東京").collect();
        assert_eq!(toks, ["naïve", "größe", "東京"]);
    }

    #[test]
    fn tokenize_empty() {
        assert_eq!(tokenize("  ,,, !!").count(), 0);
        assert_eq!(tokenize("").count(), 0);
    }

    #[test]
    fn keywords_merge_tag_attrs_text() {
        let d = doc();
        let kw = keywords(&d, NodeId(0));
        for expect in [
            "section",
            "title",
            "query",
            "optimization",
            "xquery",
            "cost",
            "models",
        ] {
            assert!(kw.contains(expect), "missing {expect}");
        }
    }

    #[test]
    fn node_contains_is_case_insensitive_via_normalization() {
        let d = doc();
        assert!(node_contains(&d, NodeId(0), "xquery"));
        assert!(node_contains(&d, NodeId(0), "cost"));
        assert!(node_contains(&d, NodeId(0), "section"));
        assert!(!node_contains(&d, NodeId(0), "join"));
    }

    #[test]
    fn normalize_term_behaviour() {
        assert_eq!(normalize_term("XQuery"), Some("xquery".into()));
        assert_eq!(normalize_term("  two words "), Some("two".into()));
        assert_eq!(normalize_term(" ,. "), None);
    }
}
