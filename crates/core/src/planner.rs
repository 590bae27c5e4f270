//! The §5 cost-based strategy picker.
//!
//! The paper sketches the decision an optimizer must make — estimate the
//! reduction factor `RF = (a − b)/a` and join cardinalities, then choose
//! between brute-force, fixed-point and push-down evaluation — but
//! leaves the optimizer itself to future work. This module closes that
//! loop:
//!
//! * [`StrategyChoice`] — `auto` (the new default) or a forced
//!   [`Strategy`]; forcing bypasses the planner entirely.
//! * [`plan_query`] — per (query, document): profile every operand from
//!   v2 segment statistics when available (free) or a live sampled
//!   estimate (cheap), cost all four strategies with the planner-grade
//!   formulas in [`CostModel`], and pick the minimum, breaking ties
//!   toward the more conservative strategy. Deterministic and a function
//!   of document content only, so shard routing and scatter-gather
//!   merges stay byte-identical.
//! * **Adaptive re-planning** — an auto pick runs under a *guard*
//!   budget derived from its own estimates (`8× + slack`). The guard
//!   swaps only the governor's caps (cache keys and tier gates still see
//!   the caller's policy), so a guarded run that completes is
//!   byte-identical to a forced run. If the guard trips, actuals
//!   diverged from estimates: the evaluation aborts at that governor
//!   checkpoint and re-runs under the conservative strategy
//!   ([`Strategy::PushDown`]) with the caller's full policy — literally
//!   the forced-push-down call, so the reply is indistinguishable from
//!   having forced it from the start. Guards are only armed under
//!   unlimited, non-cancellable policies; with a real budget or cancel
//!   token the degradation ladder is already the adaptive mechanism.
//! * [`PlanCache`] / [`PickCounters`] — serve-side plan memoization
//!   (invalidated by generation tag on hot reload) and pick-distribution
//!   observability.
//!
//! The `plan:choose` and `plan:replan` spans record the planner's work
//! against scratch counters: planning cost is visible in traces but
//! never leaks into a result's [`EvalStats`], which must stay
//! byte-identical to forced evaluation.

use crate::budget::{Budget, ExecPolicy, Governor};
use crate::cache::{CacheRef, GenerationTag};
use crate::cost::{estimate_rf, CostEstimate, CostModel};
use crate::exec::Exec;
use crate::fixpoint::FixpointMode;
use crate::nav::Nav;
use crate::query::{
    evaluate_budgeted_cached_traced, evaluate_ladder, Query, QueryError, QueryResult, Strategy,
};
use crate::set::FragmentSet;
use crate::stats::EvalStats;
use crate::trace::Tracer;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use xfrag_doc::{Document, PostingsSource};

/// What the user asked for: let the planner pick, or force a strategy.
///
/// `auto` is deliberately *not* a [`Strategy`] variant: the executed
/// strategy is always one of the four concrete ones (cache keys, EXPLAIN
/// and the differential suite all see a concrete strategy), and `auto`
/// only exists at the request layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum StrategyChoice {
    /// Let the planner pick per (query, document). The default.
    #[default]
    Auto,
    /// Force one strategy, bypassing the planner.
    Forced(Strategy),
}

impl StrategyChoice {
    /// Short stable name for CLI output and protocol echoes.
    pub fn name(self) -> &'static str {
        match self {
            StrategyChoice::Auto => "auto",
            StrategyChoice::Forced(s) => s.name(),
        }
    }
}

impl std::str::FromStr for StrategyChoice {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s == "auto" {
            return Ok(StrategyChoice::Auto);
        }
        s.parse::<Strategy>()
            .map(StrategyChoice::Forced)
            .map_err(|e| e.replace("(expected", "(expected auto,"))
    }
}

/// One operand's statistical profile, as the planner saw it.
#[derive(Debug, Clone, PartialEq)]
pub struct OperandProfile {
    /// The query term.
    pub term: String,
    /// Posting count (document frequency).
    pub n: u64,
    /// Sampled reduction factor `RF = (a − b)/a` of the operand set.
    pub rf: f64,
    /// Depth spread of the postings (`depth_max − depth_min`).
    pub depth_span: u64,
    /// Whether the profile came from persisted v2 segment statistics
    /// (`false` = estimated live from the postings).
    pub from_segment: bool,
}

/// The planner's verdict for one (query, document) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanDecision {
    /// The strategy the cost model picked.
    pub picked: Strategy,
    /// The strategy whose execution produced the answer: equals `picked`
    /// unless a guard trip re-planned to the conservative strategy.
    pub effective: Strategy,
    /// Whether a mid-query guard trip forced the conservative fallback.
    pub replanned: bool,
    /// Per-operand profiles, in query-term order.
    pub operands: Vec<OperandProfile>,
    /// Estimated cost per strategy, in [`Strategy::ALL`] order.
    pub estimates: [CostEstimate; 4],
    /// The divergence guard derived from the picked estimate; `None`
    /// when no guard can be armed (unbounded estimate or short-circuit).
    pub guard: Option<Budget>,
    /// One line of human-readable justification for EXPLAIN.
    pub rationale: String,
}

impl PlanDecision {
    /// A decision record for a forced strategy (no planning happened).
    pub fn forced(strategy: Strategy) -> Self {
        PlanDecision {
            picked: strategy,
            effective: strategy,
            replanned: false,
            operands: Vec::new(),
            estimates: [CostEstimate {
                joins: 0,
                fragments: 0,
            }; 4],
            guard: None,
            rationale: format!("forced by --strategy {}", strategy.name()),
        }
    }

    /// The estimate for one strategy.
    pub fn estimate_for(&self, strategy: Strategy) -> CostEstimate {
        let i = Strategy::ALL
            .iter()
            .position(|&s| s == strategy)
            .expect("Strategy::ALL is exhaustive");
        self.estimates[i]
    }

    /// The maximum operand RF — the number the §5 rule compares against
    /// its threshold.
    pub fn rf_max(&self) -> f64 {
        self.operands.iter().map(|o| o.rf).fold(0.0, f64::max)
    }

    /// Whether any operand profile came from segment statistics.
    pub fn from_segment_stats(&self) -> bool {
        self.operands.iter().any(|o| o.from_segment)
    }
}

/// Guard headroom: estimates may be off by this factor before the run
/// is declared divergent. Calibrated so benign corpora never trip while
/// closure blow-ups trip within milliseconds.
const GUARD_FACTOR: u64 = 8;
/// Flat slack added to every guard cap, so tiny estimates (where a
/// factor is meaningless) still leave room for real fixed costs.
const GUARD_SLACK: u64 = 1024;

/// The fragment-size cap implied by a filter's anti-monotonic part, if
/// any: the push-down estimate uses it to bound closure growth.
fn anti_size_cap(filter: &crate::filter::FilterExpr) -> Option<u64> {
    use crate::filter::FilterExpr;
    match filter {
        FilterExpr::MaxSize(s) => Some(*s as u64),
        // A fragment of diameter ≤ d on one tree path has ≤ d + 1 nodes;
        // branching fragments can exceed that, but as a *planning* cap it
        // ranks push-down correctly.
        FilterExpr::MaxDiameter(d) => Some(*d as u64 + 1),
        FilterExpr::And(fs) => fs.iter().filter_map(anti_size_cap).min(),
        _ => None,
    }
}

/// Cost one strategy over the profiled operands.
fn strategy_estimate(
    model: &CostModel,
    strategy: Strategy,
    operands: &[OperandProfile],
    filter: &crate::filter::FilterExpr,
) -> CostEstimate {
    fn pow2cap(k: u64) -> u64 {
        if k >= 63 {
            u64::MAX
        } else {
            (1u64 << k).saturating_sub(1)
        }
    }
    match strategy {
        Strategy::BruteForce => {
            // Literal subset enumeration refuses oversized operands.
            if operands
                .iter()
                .any(|o| o.n > crate::join::POWERSET_LIMIT as u64)
            {
                return CostEstimate {
                    joins: u64::MAX,
                    fragments: u64::MAX,
                };
            }
            let candidates = operands
                .iter()
                .fold(1u64, |acc, o| acc.saturating_mul(pow2cap(o.n).max(1)));
            CostEstimate {
                joins: candidates,
                fragments: candidates,
            }
        }
        Strategy::FixedPointNaive | Strategy::FixedPointReduced | Strategy::PushDown => {
            let mode = match strategy {
                Strategy::FixedPointReduced => FixpointMode::Reduced,
                _ => FixpointMode::Naive,
            };
            // Push-down benefits only through the anti-monotonic filter
            // part: the pushed selection caps how far closures can grow.
            let cap = if strategy == Strategy::PushDown {
                let (anti, _) = filter.split_anti_monotonic();
                anti_size_cap(&anti)
            } else {
                None
            };
            let mut joins = 0u64;
            let mut fold_acc: Option<u64> = None;
            for o in operands {
                let mut est = model.planner_fixpoint_estimate(o.n, o.rf, o.depth_span, mode);
                if let Some(cap) = cap {
                    let m = est.fragments.min(o.n.saturating_mul(cap).max(1));
                    if m < est.fragments {
                        let iters = o.depth_span.saturating_add(2);
                        est = CostEstimate {
                            joins: est.joins.min(iters.saturating_mul(m).saturating_mul(o.n)),
                            fragments: m,
                        };
                    }
                }
                joins = joins.saturating_add(est.joins);
                fold_acc = Some(match fold_acc {
                    None => est.fragments,
                    Some(acc) => {
                        // Pairwise fold: |acc| · |next| joins, same output
                        // cardinality bound.
                        let pairs = acc.saturating_mul(est.fragments.max(1));
                        joins = joins.saturating_add(pairs);
                        pairs
                    }
                });
            }
            CostEstimate {
                joins,
                fragments: fold_acc.unwrap_or(0),
            }
        }
    }
}

/// Profile one operand: from segment statistics when they exist and were
/// sampled compatibly, otherwise live from the postings.
fn profile_operand<I: PostingsSource + ?Sized>(
    doc: &Document,
    index: &I,
    term: &str,
    model: &CostModel,
    scratch: &mut EvalStats,
) -> OperandProfile {
    let n = index.df(term) as u64;
    if model.rf_sample == xfrag_doc::stats::RF_SAMPLE {
        if let Some(ts) = index.term_stats(term) {
            return OperandProfile {
                term: term.to_string(),
                n,
                rf: ts.rf(),
                depth_span: ts.depth_span() as u64,
                from_segment: true,
            };
        }
    }
    let postings = index.postings(term);
    let (lo, hi) = postings.iter().fold((u32::MAX, 0u32), |(lo, hi), &p| {
        let d = doc.depth(p);
        (lo.min(d), hi.max(d))
    });
    let depth_span = if postings.is_empty() {
        0
    } else {
        (hi - lo) as u64
    };
    let f = FragmentSet::of_nodes(postings.iter().copied());
    let rf = estimate_rf(doc, &f, model.rf_sample, scratch);
    OperandProfile {
        term: term.to_string(),
        n,
        rf,
        depth_span,
        from_segment: false,
    }
}

/// Pick a strategy for `query` on `doc`: profile the operands, cost all
/// four strategies, take the minimum estimated joins, and derive the
/// divergence guard. Ties break toward the more conservative strategy
/// (push-down first), so a tie preserves the pre-planner default.
///
/// Deterministic, and a function of the document content and query only
/// — never of cache state, budgets or which replica is asking — so
/// every shard and replica picks identically.
pub fn plan_query<I: PostingsSource + ?Sized>(
    doc: &Document,
    index: &I,
    query: &Query,
    model: &CostModel,
    scratch: &mut EvalStats,
) -> PlanDecision {
    let operands: Vec<OperandProfile> = query
        .terms
        .iter()
        .map(|t| profile_operand(doc, index, t, model, scratch))
        .collect();

    let estimates: [CostEstimate; 4] =
        Strategy::ALL.map(|s| strategy_estimate(model, s, &operands, &query.filter));

    if let Some(empty) = operands.iter().find(|o| o.n == 0) {
        // Conjunctive semantics: every strategy short-circuits to ∅
        // before any governed work. Nothing to guard, nothing to gain.
        return PlanDecision {
            picked: Strategy::PushDown,
            effective: Strategy::PushDown,
            replanned: false,
            rationale: format!("term {:?} has no postings; answer is empty", empty.term),
            operands,
            estimates,
            guard: None,
        };
    }

    // Conservative-first order: on ties the earlier strategy wins.
    const PREFERENCE: [Strategy; 4] = [
        Strategy::PushDown,
        Strategy::FixedPointReduced,
        Strategy::FixedPointNaive,
        Strategy::BruteForce,
    ];
    let pos = |s: Strategy| {
        Strategy::ALL
            .iter()
            .position(|&x| x == s)
            .expect("Strategy::ALL is exhaustive")
    };
    let picked = PREFERENCE
        .into_iter()
        .min_by_key(|&s| estimates[pos(s)].joins)
        .expect("four candidates");
    let est = estimates[pos(picked)];

    let guard = (est.joins < u64::MAX / GUARD_FACTOR).then(|| {
        Budget::unlimited()
            .with_max_joins(est.joins.saturating_mul(GUARD_FACTOR) + GUARD_SLACK)
            .with_max_fragments(est.fragments.saturating_mul(GUARD_FACTOR) + GUARD_SLACK)
    });

    let rf_max = operands.iter().map(|o| o.rf).fold(0.0, f64::max);
    let src = if operands.iter().any(|o| o.from_segment) {
        "segment stats"
    } else {
        "live sample"
    };
    let rationale = format!(
        "min estimated joins ({} ≈ {}; max RF {:.2} via {src})",
        picked.name(),
        est.joins,
        rf_max,
    );
    PlanDecision {
        picked,
        effective: picked,
        replanned: false,
        operands,
        estimates,
        guard,
        rationale,
    }
}

/// Execute a previously-made [`PlanDecision`], arming its guard when the
/// policy allows, and re-planning to the conservative strategy on a
/// guard trip. Updates `decision.effective`/`replanned` to what actually
/// ran.
pub(crate) fn evaluate_decided<I: PostingsSource + ?Sized>(
    doc: &Document,
    index: &I,
    query: &Query,
    decision: &mut PlanDecision,
    policy: &ExecPolicy,
    tracer: &Tracer<'_>,
    cache: Option<CacheRef<'_>>,
) -> Result<QueryResult, QueryError> {
    // Arming condition: with a real budget or a cancel token, a breach is
    // a resource decision (the ladder handles it) — not divergence
    // evidence. Only the unlimited case can attribute a breach to a bad
    // estimate.
    let guard = if !policy.budget.is_limited() && policy.cancel.is_none() {
        decision.guard
    } else {
        None
    };
    let Some(guard) = guard else {
        return evaluate_budgeted_cached_traced(
            doc,
            index,
            query,
            decision.picked,
            policy,
            tracer,
            cache,
        );
    };
    // The guard swaps only the governor's caps; the ladder still keys the
    // cache and gates its tiers on the caller's policy.
    let gov = Governor::new(guard, policy.cancel.clone()).with_fault(policy.fault.clone());
    let x = Exec::new(Nav::new(doc, index.labels()), &gov, tracer).with_cache(cache);
    match evaluate_ladder(&x, index, query, decision.picked, policy, true) {
        Ok(r) => Ok(r),
        Err(QueryError::BudgetExceeded(breach)) => {
            // Actuals diverged from the estimates. Fall back to the
            // conservative strategy under the caller's full policy —
            // exactly the forced-push-down call, so the reply is
            // byte-identical to having forced it from the start. The
            // abandoned attempt is visible only in the trace.
            decision.replanned = true;
            decision.effective = Strategy::PushDown;
            let mut scratch = EvalStats::new();
            tracer.scoped_lazy(
                || {
                    format!(
                        "plan:replan:{}→push-down ({breach})",
                        decision.picked.name()
                    )
                },
                &mut scratch,
                |_| (),
            );
            evaluate_budgeted_cached_traced(
                doc,
                index,
                query,
                Strategy::PushDown,
                policy,
                tracer,
                cache,
            )
        }
        Err(e) => Err(e),
    }
}

/// Evaluate under a [`StrategyChoice`]: forced choices go straight to
/// the forced path; `auto` plans (under a `plan:choose` span), executes
/// with the guard, and re-plans on divergence. Returns the result
/// together with the decision that produced it.
#[allow(clippy::too_many_arguments)]
pub fn evaluate_planned_cached_traced<I: PostingsSource + ?Sized>(
    doc: &Document,
    index: &I,
    query: &Query,
    choice: StrategyChoice,
    policy: &ExecPolicy,
    tracer: &Tracer<'_>,
    cache: Option<CacheRef<'_>>,
    model: &CostModel,
) -> Result<(QueryResult, PlanDecision), QueryError> {
    match choice {
        StrategyChoice::Forced(s) => {
            let r = evaluate_budgeted_cached_traced(doc, index, query, s, policy, tracer, cache)?;
            Ok((r, PlanDecision::forced(s)))
        }
        StrategyChoice::Auto => {
            // Plan work accrues to scratch counters: visible in the
            // `plan:choose` span, never in the result's stats.
            let mut scratch = EvalStats::new();
            let mut decision = tracer.scoped("plan:choose", &mut scratch, |scratch| {
                plan_query(doc, index, query, model, scratch)
            });
            let r = evaluate_decided(doc, index, query, &mut decision, policy, tracer, cache)?;
            Ok((r, decision))
        }
    }
}

/// Lifetime pick counters for one serving unit (a replica), mirroring
/// the replica counter pattern: cheap relaxed atomics, snapshot on
/// `stats`.
#[derive(Debug, Default)]
pub struct PickCounters {
    brute: AtomicU64,
    naive: AtomicU64,
    reduced: AtomicU64,
    push_down: AtomicU64,
    forced: AtomicU64,
    replans: AtomicU64,
}

/// A point-in-time copy of [`PickCounters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PickSnapshot {
    /// Auto picks that chose brute-force.
    pub brute: u64,
    /// Auto picks that chose the naive fixed point.
    pub naive: u64,
    /// Auto picks that chose the reduced fixed point.
    pub reduced: u64,
    /// Auto picks that chose push-down.
    pub push_down: u64,
    /// Requests that forced a strategy (no planning).
    pub forced: u64,
    /// Mid-query re-plans (guard trips).
    pub replans: u64,
}

impl PickCounters {
    /// Record what a decision picked (and whether it re-planned).
    pub fn record(&self, decision: &PlanDecision) {
        match decision.picked {
            Strategy::BruteForce => &self.brute,
            Strategy::FixedPointNaive => &self.naive,
            Strategy::FixedPointReduced => &self.reduced,
            Strategy::PushDown => &self.push_down,
        }
        .fetch_add(1, Ordering::Relaxed);
        if decision.replanned {
            self.replans.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Record a forced-strategy request (planner bypassed).
    pub fn record_forced(&self) {
        self.forced.fetch_add(1, Ordering::Relaxed);
    }

    /// Read every counter.
    pub fn snapshot(&self) -> PickSnapshot {
        PickSnapshot {
            brute: self.brute.load(Ordering::Relaxed),
            naive: self.naive.load(Ordering::Relaxed),
            reduced: self.reduced.load(Ordering::Relaxed),
            push_down: self.push_down.load(Ordering::Relaxed),
            forced: self.forced.load(Ordering::Relaxed),
            replans: self.replans.load(Ordering::Relaxed),
        }
    }

    /// Fold another snapshot's counts into per-shard aggregates.
    pub fn merge(a: PickSnapshot, b: PickSnapshot) -> PickSnapshot {
        PickSnapshot {
            brute: a.brute + b.brute,
            naive: a.naive + b.naive,
            reduced: a.reduced + b.reduced,
            push_down: a.push_down + b.push_down,
            forced: a.forced + b.forced,
            replans: a.replans + b.replans,
        }
    }
}

/// Plans are deterministic per (generation, document, query), so serve
/// memoizes them: planning costs an RF sample per cold term, and a hot
/// shard sees the same few queries repeatedly. Hot reload mints a fresh
/// [`GenerationTag`], which empties the cache on first use — cached
/// plans can never outlive the corpus state they were computed from.
#[derive(Debug)]
pub struct PlanCache {
    inner: Mutex<(GenerationTag, HashMap<PlanKey, PlanDecision>)>,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PlanKey {
    doc: u64,
    terms: Vec<String>,
    filter: String,
}

impl PlanCache {
    /// An empty cache bound to `gen`.
    pub fn new(gen: GenerationTag) -> Self {
        PlanCache {
            inner: Mutex::new((gen, HashMap::new())),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// Look up (or compute and remember) the decision for `query` on
    /// document `doc_id` under `gen`. A generation change clears every
    /// cached plan first.
    pub fn get_or_plan<I: PostingsSource + ?Sized>(
        &self,
        gen: GenerationTag,
        doc_id: u64,
        doc: &Document,
        index: &I,
        query: &Query,
        model: &CostModel,
    ) -> PlanDecision {
        let key = PlanKey {
            doc: doc_id,
            terms: {
                let mut t = query.terms.clone();
                t.sort();
                t
            },
            filter: format!("{:?}", query.filter),
        };
        {
            let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            if inner.0 != gen {
                inner.0 = gen;
                inner.1.clear();
                self.invalidations.fetch_add(1, Ordering::Relaxed);
            }
            if let Some(d) = inner.1.get(&key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                // Execution state never comes from the cache.
                let mut d = d.clone();
                d.effective = d.picked;
                d.replanned = false;
                return d;
            }
        }
        let mut scratch = EvalStats::new();
        let decision = plan_query(doc, index, query, model, &mut scratch);
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if inner.0 == gen {
            inner.1.insert(key, decision.clone());
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        decision
    }

    /// (hits, misses, generation invalidations) so far.
    pub fn counters(&self) -> (u64, u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            self.invalidations.load(Ordering::Relaxed),
        )
    }

    /// Number of currently cached plans.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).1.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::FilterExpr;
    use xfrag_doc::{parse_str, InvertedIndex, SegmentIndex};

    fn doc_and_index() -> (Document, InvertedIndex) {
        let d = parse_str(
            "<r><a>alpha beta</a><b><c>alpha</c><d>beta gamma</d></b><e>alpha gamma</e></r>",
        )
        .unwrap();
        let i = InvertedIndex::build(&d);
        (d, i)
    }

    #[test]
    fn choice_parses_auto_and_delegates_aliases() {
        assert_eq!("auto".parse::<StrategyChoice>(), Ok(StrategyChoice::Auto));
        for s in Strategy::ALL {
            assert_eq!(
                s.name().parse::<StrategyChoice>(),
                Ok(StrategyChoice::Forced(s))
            );
        }
        assert_eq!(
            "pushdown".parse::<StrategyChoice>(),
            Ok(StrategyChoice::Forced(Strategy::PushDown))
        );
        let err = "bogus".parse::<StrategyChoice>().unwrap_err();
        assert!(err.contains("auto"), "error mentions auto: {err}");
        assert_eq!(StrategyChoice::default(), StrategyChoice::Auto);
        assert_eq!(StrategyChoice::Auto.name(), "auto");
    }

    #[test]
    fn plan_is_deterministic_and_content_only() {
        let (d, i) = doc_and_index();
        let q = Query::parse("alpha beta", FilterExpr::True);
        let cm = CostModel::default();
        let mut s1 = EvalStats::new();
        let mut s2 = EvalStats::new();
        let d1 = plan_query(&d, &i, &q, &cm, &mut s1);
        let d2 = plan_query(&d, &i, &q, &cm, &mut s2);
        assert_eq!(d1, d2);
        assert_eq!(d1.picked, d1.effective);
        assert!(!d1.replanned);
        assert!(d1.guard.is_some());
    }

    #[test]
    fn segment_and_memory_paths_pick_identically() {
        let (d, i) = doc_and_index();
        let seg = SegmentIndex::from_bytes(&xfrag_doc::encode_segment(&d)).unwrap();
        let cm = CostModel::default();
        for terms in ["alpha", "alpha beta", "alpha beta gamma", "beta gamma"] {
            let q = Query::parse(terms, FilterExpr::True);
            let mut s = EvalStats::new();
            let mem = plan_query(&d, &i, &q, &cm, &mut s);
            let segd = plan_query(&d, &seg, &q, &cm, &mut s);
            assert_eq!(mem.picked, segd.picked, "terms {terms:?}");
            assert_eq!(mem.estimates, segd.estimates, "terms {terms:?}");
            assert!(segd.from_segment_stats());
            assert!(!mem.from_segment_stats());
            for (m, s) in mem.operands.iter().zip(&segd.operands) {
                assert!((m.rf - s.rf).abs() < 1e-12, "rf {} vs {}", m.rf, s.rf);
                assert_eq!(m.depth_span, s.depth_span);
                assert_eq!(m.n, s.n);
            }
        }
    }

    #[test]
    fn empty_operand_short_circuits_conservatively() {
        let (d, i) = doc_and_index();
        let q = Query::parse("alpha nosuchterm", FilterExpr::True);
        let mut s = EvalStats::new();
        let dec = plan_query(&d, &i, &q, &CostModel::default(), &mut s);
        assert_eq!(dec.picked, Strategy::PushDown);
        assert!(dec.guard.is_none());
        assert!(dec.rationale.contains("no postings"));
    }

    #[test]
    fn pick_counters_and_plan_cache_account() {
        let (d, i) = doc_and_index();
        let q = Query::parse("alpha beta", FilterExpr::True);
        let cm = CostModel::default();
        let gen1 = GenerationTag::fresh();
        let cache = PlanCache::new(gen1);
        let d1 = cache.get_or_plan(gen1, 0, &d, &i, &q, &cm);
        let d2 = cache.get_or_plan(gen1, 0, &d, &i, &q, &cm);
        assert_eq!(d1, d2);
        assert_eq!(cache.counters(), (1, 1, 0));
        assert_eq!(cache.len(), 1);
        // A new generation invalidates every cached plan.
        let gen2 = GenerationTag::fresh();
        let _ = cache.get_or_plan(gen2, 0, &d, &i, &q, &cm);
        assert_eq!(cache.counters(), (1, 2, 1));
        assert_eq!(cache.len(), 1);

        let picks = PickCounters::default();
        picks.record(&d1);
        picks.record_forced();
        let snap = picks.snapshot();
        assert_eq!(snap.forced, 1);
        assert_eq!(
            snap.brute + snap.naive + snap.reduced + snap.push_down,
            1,
            "exactly one auto pick recorded"
        );
    }
}
