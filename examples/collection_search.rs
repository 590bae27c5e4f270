//! Collection-scale search: many documents, conjunctive pruning at the
//! document level, per-document evaluation, and cross-document top-k
//! ranking — "can accommodate a very large collection of XML
//! documents" (§7), demonstrated.
//!
//! ```sh
//! cargo run --example collection_search
//! ```

use xfrag::core::collection::{evaluate_collection, top_k_collection};
use xfrag::core::rank::RankConfig;
use xfrag::corpus::docgen::{generate, DocGenConfig};
use xfrag::doc::Collection;
use xfrag::prelude::*;

fn main() {
    // Fifty generated articles; the query terms are planted in a handful.
    let mut coll = Collection::new();
    for i in 0..50u64 {
        let mut cfg = DocGenConfig {
            seed: 1000 + i,
            ..DocGenConfig::default()
        }
        .with_approx_nodes(400);
        if i % 7 == 0 {
            cfg = cfg.plant_near("lineage", "workflow", 1);
        }
        if i % 11 == 0 {
            cfg = cfg.plant("lineage", 2);
        }
        coll.add(format!("article-{i:02}.xml"), generate(&cfg));
    }
    println!(
        "collection: {} documents, {} total nodes",
        coll.len(),
        coll.total_nodes()
    );
    println!(
        "doc-frequency: lineage in {} docs, workflow in {} docs",
        coll.doc_freq("lineage"),
        coll.doc_freq("workflow")
    );

    let query = Query::new(["lineage", "workflow"], FilterExpr::MaxSize(6));

    let seq = evaluate_collection(&coll, &query, Strategy::PushDown).unwrap();
    println!(
        "\n{} fragments from {} documents ({} pruned before any join), {} joins",
        seq.total_fragments(),
        seq.answers.len(),
        seq.docs_pruned,
        seq.stats.joins
    );

    println!("\ntop answers across the collection:");
    for (doc, frag, score) in top_k_collection(&coll, &seq, &query, &RankConfig::default(), 5) {
        println!(
            "  {:16} score {:.3}  {} ({} nodes)",
            coll.name(doc),
            score,
            frag,
            frag.size()
        );
    }
}
