#![warn(missing_docs)]

//! # xfrag-rel — the relational implementation
//!
//! The paper closes §7 claiming "the model can be easily implemented on
//! top of an existing relational database" (its reference \[13\] sketches
//! the framework). This crate substantiates the claim end-to-end:
//!
//! * a small but real in-memory relational engine — typed [`Value`]s and
//!   [`Schema`]s, [`Relation`]s with selection / projection / equi-join /
//!   union / distinct / grouped aggregation, hash and B-tree column
//!   indexes with a lazy cache ([`relation`], [`index`]);
//! * the document encoding of [`encode`] — a `node` table
//!   `(id, parent, depth, size, tag)`, a `keyword` postings table
//!   `(term, node)`, and the ancestor-or-self closure `anc
//!   (node, ancestor, adepth)` that makes paths and LCAs joins rather
//!   than pointer chasing;
//! * the tree algebra over those tables ([`algebra`]): fragments as a
//!   `(fid, node)` relation, fragment join via closure-table joins,
//!   pairwise join, fixed points and size/height/width selections as
//!   grouped aggregates;
//! * [`eval::evaluate_relational`] — the full query pipeline, returning
//!   ordinary [`xfrag_core::FragmentSet`]s so the differential tests can
//!   compare it against the native engine answer for answer.

pub mod algebra;
pub mod database;
pub mod edge;
pub mod encode;
pub mod eval;
pub mod index;
pub mod predicate;
pub mod relation;
pub mod schema;
pub mod value;

pub use database::Database;
pub use encode::encode_document;
pub use eval::evaluate_relational;
pub use predicate::Predicate;
pub use relation::Relation;
pub use schema::{ColType, Column, Schema};
pub use value::Value;
