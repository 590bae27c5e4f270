//! The one execution context every algebra operator runs under.
//!
//! The paper evaluates a query as one algebraic expression; how far an
//! evaluation may go, what it records and what it may reuse are
//! properties of the *run*, not of the operators. [`Exec`] bundles them:
//! structural navigation over the document, the [`Governor`] charged for
//! every join, the [`Tracer`] recording spans, and the optional tier (b)
//! fixed-point cache. Each operator has exactly one implementation, a
//! method on `Exec`:
//!
//! | Operator | Method | Paper |
//! |---|---|---|
//! | pairwise join | [`Exec::pairwise_join`] | Definition 5 |
//! | powerset join | [`Exec::powerset_join`] | Definition 6 |
//! | brute force (m-ary `⋈*`) | [`Exec::brute_force`] | §4.1 |
//! | m-way pairwise fold | [`Exec::join_fold`] | §2.3 |
//! | `⊖` | [`Exec::reduce`] | Definition 10 |
//! | `F⁺`, naive or reduced | [`Exec::fixed_point`] | §3.1, Theorem 1 |
//! | filtered `F⁺` | [`Exec::filtered_fixed_point`] | §3.3 |
//!
//! The plain paper-API functions ([`crate::pairwise_join`],
//! [`crate::fixed_point_naive`], [`crate::reduce`], …) run these methods
//! through [`Exec::unlimited`]; the strategy dispatch, the degradation
//! ladder and the plan interpreter pass the context they were given.

use crate::budget::{Breach, Governor};
use crate::cache::CacheRef;
use crate::nav::Nav;
use crate::trace::Tracer;
use xfrag_doc::Document;

/// Navigation, budget, tracing and fixed-point memoization for one
/// evaluation. `Copy`, and passed to operators by reference.
#[derive(Clone, Copy)]
pub struct Exec<'a> {
    /// Structural navigation: tree walks, or label arithmetic when the
    /// postings source persists labels.
    pub nav: Nav<'a>,
    /// Budget enforcement: every join kernel is charged and every
    /// fixed-point round passes a checkpoint.
    pub gov: &'a Governor,
    /// Span recording; [`Tracer::disabled`] makes every span free.
    pub tracer: &'a Tracer<'a>,
    /// The tier (b) fixed-point memo. Set it only under governors that
    /// cannot trip on work limits or cancellation: a memo hit skips the
    /// charges the computation would have made, which would move where a
    /// limited budget trips.
    pub cache: Option<CacheRef<'a>>,
}

impl<'a> Exec<'a> {
    /// A context without a fixed-point memo.
    pub fn new(nav: Nav<'a>, gov: &'a Governor, tracer: &'a Tracer<'a>) -> Self {
        Exec {
            nav,
            gov,
            tracer,
            cache: None,
        }
    }

    /// The same context with `cache` as its tier (b) memo.
    pub fn with_cache(self, cache: Option<CacheRef<'a>>) -> Self {
        Exec { cache, ..self }
    }

    /// The document being evaluated.
    pub fn doc(&self) -> &'a Document {
        self.nav.doc()
    }

    /// Run `f` under an unlimited governor, the disabled tracer and no
    /// memo — the context of the plain paper-API functions.
    pub fn unlimited<T>(nav: Nav<'_>, f: impl FnOnce(&Exec<'_>) -> Result<T, Breach>) -> T {
        let (gov, tracer) = (Governor::unlimited(), Tracer::disabled());
        match f(&Exec::new(nav, &gov, &tracer)) {
            Ok(out) => out,
            // invariant: an unlimited governor has no limits, no deadline
            // and no cancel token, so no charge can breach, and callers
            // check operand sizes before a literal powerset enumeration.
            Err(_) => unreachable!("unlimited governor breached"),
        }
    }
}
