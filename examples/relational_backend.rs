//! The §7 claim in action: the same query answered by the native engine
//! and by the relational implementation (node/keyword/closure tables),
//! with the table encoding shown.
//!
//! ```sh
//! cargo run --example relational_backend
//! ```

use xfrag::prelude::*;
use xfrag::rel::{encode_document, evaluate_relational};

fn main() {
    let doc = parse_str(
        r#"<thesis>
             <chapter><title>Background</title>
               <par>Relational engines execute set-oriented plans.</par>
             </chapter>
             <chapter><title>Approach</title>
               <par>We encode tree joins as closure-table joins.</par>
               <par>Set-oriented evaluation covers relational backends.</par>
             </chapter>
           </thesis>"#,
    )
    .unwrap();

    let db = encode_document(&doc);
    println!("tables: {:?}", db.table_names());
    for t in ["node", "keyword", "anc"] {
        println!("  {t}: {} rows", db.table(t).len());
    }
    println!("\nnode table:\n{}", db.table("node"));

    let index = InvertedIndex::build(&doc);
    let query = Query::parse("relational joins", FilterExpr::MaxSize(5));

    let native = evaluate(&doc, &index, &query, Strategy::PushDown).unwrap();
    let relational = evaluate_relational(&db, &doc, &query).unwrap();

    println!("native answers:     {:?}", native.fragments);
    println!("relational answers: {relational:?}");
    assert_eq!(relational, native.fragments, "the two engines must agree");
    println!("\n✓ native and relational engines agree on every fragment.");
}
