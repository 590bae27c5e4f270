//! In-process replay over a committed generation: the correctness
//! oracle, and the traced run that splits a request into layers.
//!
//! Only public library functions are called, and only around them is
//! time taken: generation loading (`manifest::load_generation`,
//! `store::decode`, `SegmentIndex::from_bytes`), planning
//! (`PlanCache::get_or_plan`), evaluation
//! (`evaluate_collection_planned_cached_traced_routed`, whose `doc:*`
//! and `index:load:*` spans split it further when a recording tracer is
//! given), ranking (`top_k_collection`) and `snippet`.

use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

use xfrag_core::rank::RankConfig;
use xfrag_core::snippet::{snippet, SnippetConfig};
use xfrag_core::{
    evaluate_collection_planned_cached_traced_routed, top_k_collection, Budget, CancelToken,
    CollectionResult, CostModel, EvalStats, ExecPolicy, FilterExpr, GenerationTag, PlanCache,
    Query, QueryCache, RecordingSink, Span, StrategyChoice, Tracer,
};
use xfrag_doc::manifest::{self, GenerationLoad};
use xfrag_doc::{store, Collection, DocId, SegmentIndex};

use crate::wire::Hit;
use crate::workload::QuerySpec;

/// The server's default `--cache-mb`; an in-process engine gets one
/// arena of this size.
pub const CACHE_MB: u64 = 64;
/// Ranked answers per reply (the protocol's default `top_k`).
const TOP_K: usize = 10;

/// Time spent loading one generation, by library call.
#[derive(Debug, Clone, Copy, Default)]
pub struct LoadTimes {
    pub manifest: Duration,
    pub decode: Duration,
    pub open: Duration,
}

/// Load the newest committed generation in `dir` the way `xfrag serve`
/// does: documents in display-name order, each with its `.xidx` segment.
pub fn load_generation(dir: &Path) -> Result<(Collection, LoadTimes), String> {
    let mut times = LoadTimes::default();
    let t = Instant::now();
    let loaded = manifest::load_generation(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    times.manifest = t.elapsed();
    let m = match loaded {
        GenerationLoad::Committed { manifest, .. } => manifest,
        _ => return Err(format!("{}: no committed generation", dir.display())),
    };
    let mut segments = HashMap::new();
    let mut docs = Vec::new();
    for e in &m.files {
        let display = manifest::split_generation_file(&e.name)
            .map_or_else(|| e.name.clone(), |(display, _)| display);
        match display.strip_suffix(".xidx") {
            Some(stem) => {
                segments.insert(stem.to_string(), e.name.clone());
            }
            None => docs.push((display, e.name.clone())),
        }
    }
    docs.sort();
    let read = |name: &str| std::fs::read(dir.join(name)).map_err(|e| format!("{name}: {e}"));
    let mut coll = Collection::new();
    for (display, file) in docs {
        let bytes = read(&file)?;
        let t = Instant::now();
        let doc = store::decode(&bytes).map_err(|e| format!("{file}: {e}"))?;
        times.decode += t.elapsed();
        let stem = display.strip_suffix(".xfrg").unwrap_or(&display);
        let seg_file = segments
            .get(stem)
            .ok_or_else(|| format!("{display}: no index segment"))?;
        let seg_bytes = read(seg_file)?;
        let t = Instant::now();
        let seg = SegmentIndex::from_bytes(&seg_bytes).map_err(|e| format!("{seg_file}: {e}"))?;
        times.open += t.elapsed();
        coll.add_with_segment(display, doc, seg);
    }
    Ok((coll, times))
}

/// What one replayed request produced and what each layer cost.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub hits: Vec<Hit>,
    pub stats: EvalStats,
    pub plan: Duration,
    pub eval: Duration,
    pub rank: Duration,
    pub snippet: Duration,
    /// Top-level spans of the evaluation (empty when untraced).
    pub spans: Vec<Span>,
}

/// One server replica's evaluation path, in process: its own result
/// cache and plan cache over one generation.
pub struct Engine<'c> {
    coll: &'c Collection,
    docs: Vec<DocId>,
    cache: QueryCache,
    plans: PlanCache,
    tag: GenerationTag,
    timeout_ms: Option<u64>,
}

impl<'c> Engine<'c> {
    pub fn new(coll: &'c Collection, cache_mb: u64, timeout_ms: Option<u64>) -> Self {
        let tag = GenerationTag::fresh();
        Engine {
            coll,
            docs: coll.ids().collect(),
            cache: QueryCache::with_capacity_mb(cache_mb),
            plans: PlanCache::new(tag),
            tag,
            timeout_ms,
        }
    }

    /// Evaluate, rank and snippet one request; with `sink`, evaluation
    /// spans are recorded and returned.
    pub fn run(&self, spec: &QuerySpec, sink: Option<&RecordingSink>) -> Result<Outcome, String> {
        let coll = self.coll;
        let q = Query::new(spec.terms.iter(), FilterExpr::MaxSize(spec.size));
        // The server's policy: the request's deadline (if any), a cancel
        // token, ladder degradation.
        let mut budget = Budget::unlimited();
        budget.wall_clock = self.timeout_ms.map(Duration::from_millis);
        let policy = ExecPolicy::with_budget(budget).with_cancel(CancelToken::new());
        let model = CostModel::default();
        let mut out = Outcome::default();

        let t = Instant::now();
        for id in coll.candidate_docs(&q.terms) {
            std::hint::black_box(self.plans.get_or_plan(
                self.tag,
                id.0 as u64,
                coll.doc(id),
                &coll.index(id),
                &q,
                &model,
            ));
        }
        out.plan = t.elapsed();

        let tracer = match sink {
            Some(s) => Tracer::new(s),
            None => Tracer::disabled(),
        };
        let t = Instant::now();
        let r = evaluate_collection_planned_cached_traced_routed(
            coll,
            &q,
            StrategyChoice::Auto,
            &policy,
            &tracer,
            Some((&self.cache, self.tag)),
            &self.docs,
            Some((&self.plans, self.tag)),
            None,
        )
        .map_err(|e| format!("{spec:?}: {e}"))?;
        out.eval = t.elapsed();
        if r.is_degraded() {
            return Err(format!("{spec:?}: in-process evaluation degraded"));
        }
        out.stats = r.stats;
        if let Some(s) = sink {
            out.spans = s.take();
        }

        let ranked = CollectionResult {
            answers: r.answers,
            docs_pruned: r.docs_pruned,
            docs_failed: r.docs_failed,
            stats: r.stats,
        };
        let t = Instant::now();
        let top = top_k_collection(coll, &ranked, &q, &RankConfig::default(), TOP_K);
        out.rank = t.elapsed();

        let t = Instant::now();
        let cfg = SnippetConfig::default();
        for (doc, f, _) in &top {
            std::hint::black_box(snippet(coll.doc(*doc), f, &q.terms, &cfg));
        }
        out.snippet = t.elapsed();

        out.hits = top
            .iter()
            .map(|(doc, f, _)| {
                (
                    coll.name(*doc).to_string(),
                    f.nodes().iter().map(|n| n.0).collect(),
                )
            })
            .collect();
        Ok(out)
    }
}

/// Sum of the wall times of every span (at any depth) whose stage
/// starts with `prefix`.
pub fn span_time(spans: &[Span], prefix: &str) -> Duration {
    spans
        .iter()
        .map(|s| {
            if s.stage.starts_with(prefix) {
                s.wall
            } else {
                span_time(&s.children, prefix)
            }
        })
        .sum()
}

/// Number of spans (at any depth) whose stage starts with `prefix`.
pub fn span_count(spans: &[Span], prefix: &str) -> usize {
    spans
        .iter()
        .map(|s| usize::from(s.stage.starts_with(prefix)) + span_count(&s.children, prefix))
        .sum()
}

/// Compare a served answer list with the oracle's; `None` when equal.
pub fn diff(served: &[Hit], expected: &[Hit]) -> Option<String> {
    if served == expected {
        return None;
    }
    if served.len() != expected.len() {
        return Some(format!(
            "{} answer(s) served, {} expected",
            served.len(),
            expected.len()
        ));
    }
    let (i, (s, e)) = served
        .iter()
        .zip(expected)
        .enumerate()
        .find(|(_, (s, e))| s != e)?;
    Some(format!("answer {i}: served {s:?}, expected {e:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hit(doc: &str, nodes: &[u32]) -> Hit {
        (doc.to_string(), nodes.to_vec())
    }

    #[test]
    fn oracle_diff_names_the_first_difference() {
        let a = vec![hit("d1", &[1, 2]), hit("d2", &[3])];
        assert_eq!(diff(&a, &a), None);
        let b = vec![hit("d1", &[1, 2]), hit("d2", &[4])];
        assert!(diff(&a, &b).unwrap().starts_with("answer 1:"));
        assert!(diff(&a, &a[..1])
            .unwrap()
            .contains("2 answer(s) served, 1 expected"));
        let swapped = vec![a[1].clone(), a[0].clone()];
        assert!(diff(&swapped, &a).unwrap().starts_with("answer 0:"));
    }

    #[test]
    fn span_helpers_walk_the_tree() {
        let leaf =
            |stage: &str, us: u64| Span::leaf(stage, Duration::from_micros(us), EvalStats::new());
        let mut doc = leaf("doc:a", 100);
        let mut lookup = leaf("term-lookup:x", 30);
        lookup.children.push(leaf("index:load:x", 20));
        doc.children.push(lookup);
        doc.children.push(leaf("index:load:y", 5));
        let spans = vec![doc, leaf("doc:b", 50)];
        assert_eq!(span_count(&spans, "doc:"), 2);
        assert_eq!(span_count(&spans, "index:load:"), 2);
        assert_eq!(span_time(&spans, "index:load:"), Duration::from_micros(25));
        assert_eq!(span_time(&spans, "doc:"), Duration::from_micros(150));
    }
}
