//! One executor, many entry points: the unbudgeted evaluator and the
//! degradation ladder run the same strategy dispatch, and `plan::execute`
//! and the governed plan interpreter are the same interpreter. Under an
//! unlimited budget each pair must agree on answers and on every
//! [`EvalStats`] counter — the governed side may only add budget
//! checkpoints.
//!
//! Inputs: the Figure 1 document and three generated corpora, queries of
//! m = 1..4 keywords, three filters (one anti-monotonic, one mixed),
//! strict leaf semantics on and off, all four §4 strategies, and every
//! stage of the standard optimizer pipeline. Two more tests pin what
//! still differs between the entry points: the unbudgeted evaluator's
//! trace has no ladder in it, and only the governed interpreter refuses
//! wide unfiltered closures.

use xfrag::core::cost::CostModel;
use xfrag::core::plan::{execute, execute_traced};
use xfrag::core::trace::{RecordingSink, Span};
use xfrag::core::{
    evaluate, evaluate_budgeted, evaluate_traced, Breach, Budget, EvalStats, ExecPolicy,
    FilterExpr, Governor, LogicalPlan, Optimizer, Query, QueryError, Strategy, Tracer,
};
use xfrag::corpus::docgen::{generate, DocGenConfig};
use xfrag::corpus::figure1;
use xfrag::doc::{parse_str, Document, InvertedIndex};

/// A document with the four query terms it is probed with.
fn corpora() -> Vec<(String, Document, [&'static str; 4])> {
    let fig = figure1();
    let mut out = vec![(
        "figure1".to_string(),
        fig.doc,
        ["xquery", "optimization", "section", "equivalent"],
    )];
    for seed in [3, 17, 29] {
        let cfg = DocGenConfig {
            seed,
            ..DocGenConfig::default()
        }
        .with_approx_nodes(200)
        .plant_near("kwone", "kwtwo", 1)
        .plant("kwone", 2)
        .plant("kwtwo", 1)
        .plant("kwthree", 3)
        .plant("kwfour", 2);
        out.push((
            format!("docgen seed {seed}"),
            generate(&cfg),
            ["kwone", "kwtwo", "kwthree", "kwfour"],
        ));
    }
    out
}

fn filters() -> [FilterExpr; 3] {
    [
        FilterExpr::True,
        FilterExpr::MaxSize(5),
        FilterExpr::and([FilterExpr::MaxSize(6), FilterExpr::MinSize(2)]),
    ]
}

#[test]
fn evaluate_equals_unlimited_ladder() {
    for (name, doc, terms) in corpora() {
        let idx = InvertedIndex::build(&doc);
        for t in terms {
            assert!(idx.df(t) > 0, "{name}: {t} must occur");
        }
        for m in 1..=4 {
            for filter in filters() {
                for strict in [false, true] {
                    let mut q = Query::new(&terms[..m], filter.clone());
                    q.strict_leaf_semantics = strict;
                    for s in Strategy::ALL {
                        let case = format!("{name} m={m} {filter} strict={strict} {s:?}");
                        // Operands stay within the brute-force size
                        // guard, so neither side degrades or errs.
                        let plain =
                            evaluate(&doc, &idx, &q, s).unwrap_or_else(|e| panic!("{case}: {e}"));
                        let ladder = evaluate_budgeted(&doc, &idx, &q, s, &ExecPolicy::unlimited())
                            .unwrap_or_else(|e| panic!("{case}: {e}"));
                        assert!(!ladder.degradation.is_degraded(), "{case}");
                        assert_eq!(plain.fragments, ladder.fragments, "{case}");
                        assert_eq!(plain.stats.budget_checkpoints, 0, "{case}");
                        let mut governed = ladder.stats;
                        governed.budget_checkpoints = 0;
                        assert_eq!(plain.stats, governed, "{case}");
                    }
                }
            }
        }
    }
}

#[test]
fn execute_equals_governed_interpreter() {
    let mut compared = 0;
    for (name, doc, terms) in corpora() {
        let idx = InvertedIndex::build(&doc);
        for m in 1..=4 {
            for filter in filters() {
                let q = Query::new(&terms[..m], filter.clone());
                let optimizer = Optimizer::standard(&doc, &idx, CostModel::default());
                let stages = optimizer.optimize_traced(LogicalPlan::for_query(&q).unwrap());
                for (stage, plan) in stages {
                    let case = format!("{name} m={m} {filter} stage {stage}");
                    let mut st_plain = EvalStats::new();
                    let plain = execute(&plan, &doc, &idx, &mut st_plain);
                    let gov = Governor::unlimited();
                    let mut st_gov = EvalStats::new();
                    let governed =
                        execute_traced(&plan, &doc, &idx, &mut st_gov, &gov, &Tracer::disabled());
                    match (plain, governed) {
                        (Ok(a), Ok(b)) => {
                            assert_eq!(a, b, "{case}");
                            assert_eq!(st_plain, st_gov, "{case}");
                            compared += 1;
                        }
                        // An m ≥ 3 initial plan can feed an over-large
                        // join result to the literal powerset: its size
                        // guard trips in both.
                        (Err(QueryError::PowersetTooLarge(_)), Err(Breach::PowersetLimit)) => {}
                        (a, b) => panic!("{case}: {:?} vs {b:?}", a.map(|s| s.len())),
                    }
                }
            }
        }
    }
    assert_eq!(compared, 174, "plan stages both interpreters completed");
}

#[test]
fn unbudgeted_trace_has_no_ladder() {
    fn stages(spans: &[Span], out: &mut Vec<String>) {
        for s in spans {
            out.push(s.stage.clone());
            stages(&s.children, out);
        }
    }
    let (name, doc, terms) = corpora().swap_remove(1);
    let idx = InvertedIndex::build(&doc);
    let q = Query::new(&terms[..3], FilterExpr::MaxSize(5));
    for s in Strategy::ALL {
        let sink = RecordingSink::new();
        evaluate_traced(&doc, &idx, &q, s, &Tracer::new(&sink)).unwrap();
        let spans = sink.take();
        let mut all = Vec::new();
        stages(&spans, &mut all);
        assert!(all.iter().any(|st| st == "select-top"), "{name} {s:?}");
        assert!(
            !all.iter().any(|st| st.starts_with("rung:")),
            "{name} {s:?}: {all:?}"
        );
        if s == Strategy::PushDown {
            // Each operand's closure is joined in as soon as it is built.
            let top: Vec<&str> = spans
                .iter()
                .map(|sp| sp.stage.as_str())
                .filter(|st| !st.starts_with("term-lookup:"))
                .collect();
            assert_eq!(
                top,
                [
                    "push-down-operand",
                    "push-down-operand",
                    "pairwise-join",
                    "push-down-operand",
                    "pairwise-join",
                    "select-top"
                ],
                "{name}"
            );
        }
    }
}

#[test]
fn only_an_unbounded_governor_refuses_wide_closures() {
    // Twenty nested elements that all contain the term: the closure is
    // the 210 contiguous sub-chains, over an operand of 20 fragments.
    let xml = format!("{}{}", "<e>wide".repeat(20), "</e>".repeat(20));
    let doc = parse_str(&xml).unwrap();
    let idx = InvertedIndex::build(&doc);
    let plan = LogicalPlan::for_query(&Query::new(["wide"], FilterExpr::True)).unwrap();

    let mut st = EvalStats::new();
    let closure = execute(&plan, &doc, &idx, &mut st).unwrap();
    assert_eq!(closure.len(), 210);

    let off = Tracer::disabled();
    let unbounded = Governor::unlimited();
    let refused = execute_traced(&plan, &doc, &idx, &mut EvalStats::new(), &unbounded, &off);
    assert_eq!(refused, Err(Breach::PowersetLimit));

    let bounded = Governor::new(Budget::unlimited().with_max_joins(1 << 30), None);
    let mut st_bounded = EvalStats::new();
    let got = execute_traced(&plan, &doc, &idx, &mut st_bounded, &bounded, &off);
    assert_eq!(got, Ok(closure));
    assert_eq!(st_bounded, st);
}
