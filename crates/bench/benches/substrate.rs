//! Substrate micro-benchmarks: XML parsing, index construction, the join
//! kernel, pairwise joins, collection evaluation, and serialization —
//! the costs everything above is built on.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use xfrag_core::{fragment_join, pairwise_join, EvalStats, Fragment, FragmentSet};
use xfrag_corpus::docgen::{generate, DocGenConfig};
use xfrag_doc::serialize::{document_to_xml, WriteOptions};
use xfrag_doc::{parse_str, InvertedIndex, NodeId};

fn bench_parse_and_index(c: &mut Criterion) {
    let doc = generate(&DocGenConfig::default().with_approx_nodes(5_000));
    let xml = document_to_xml(&doc, WriteOptions::default());
    let mut group = c.benchmark_group("substrate/io");
    group.throughput(Throughput::Bytes(xml.len() as u64));
    group.bench_function("parse", |b| {
        b.iter(|| black_box(parse_str(black_box(&xml)).unwrap()))
    });
    group.bench_function("serialize", |b| {
        b.iter(|| black_box(document_to_xml(black_box(&doc), WriteOptions::default())))
    });
    group.bench_function("index", |b| {
        b.iter(|| black_box(InvertedIndex::build(black_box(&doc))))
    });
    group.finish();
}

fn bench_store(c: &mut Criterion) {
    use xfrag_doc::store;
    let doc = generate(&DocGenConfig::default().with_approx_nodes(5_000));
    let blob = store::encode(&doc);
    let mut group = c.benchmark_group("substrate/store");
    group.throughput(Throughput::Bytes(blob.len() as u64));
    group.bench_function("encode", |b| {
        b.iter(|| black_box(store::encode(black_box(&doc))))
    });
    group.bench_function("decode", |b| {
        b.iter(|| black_box(store::decode(black_box(&blob)).unwrap()))
    });
    group.finish();
}

fn bench_collection(c: &mut Criterion) {
    use xfrag_core::collection::evaluate_collection;
    use xfrag_core::{FilterExpr, Query};
    use xfrag_doc::Collection;

    let mut coll = Collection::new();
    for i in 0..40u64 {
        let mut cfg = DocGenConfig {
            seed: 7_000 + i,
            ..DocGenConfig::default()
        }
        .with_approx_nodes(500);
        if i % 3 == 0 {
            cfg = cfg.plant_near("kwalpha", "kwbeta", 1);
        }
        coll.add(format!("d{i}"), generate(&cfg));
    }
    let query = Query::new(["kwalpha", "kwbeta"], FilterExpr::MaxSize(5));
    let mut group = c.benchmark_group("substrate/collection");
    group.sample_size(10);
    group.bench_function("sequential", |b| {
        b.iter(|| {
            black_box(
                evaluate_collection(&coll, black_box(&query), xfrag_core::Strategy::PushDown)
                    .unwrap(),
            )
        })
    });
    group.finish();
}

fn bench_join_kernel(c: &mut Criterion) {
    let doc = generate(&DocGenConfig::default().with_approx_nodes(10_000));
    let n = doc.len() as u32;
    let f1 = Fragment::node(NodeId(n / 3));
    let f2 = Fragment::node(NodeId(2 * n / 3));
    let big1 = Fragment::subtree(&doc, doc.children(doc.root())[0]);
    let big2 = Fragment::subtree(&doc, *doc.children(doc.root()).last().unwrap());
    let mut group = c.benchmark_group("substrate/join");
    group.bench_function("singletons", |b| {
        b.iter(|| {
            let mut st = EvalStats::new();
            black_box(fragment_join(&doc, black_box(&f1), black_box(&f2), &mut st))
        })
    });
    group.bench_function("subtrees", |b| {
        b.iter(|| {
            let mut st = EvalStats::new();
            black_box(fragment_join(
                &doc,
                black_box(&big1),
                black_box(&big2),
                &mut st,
            ))
        })
    });
    group.finish();
}

fn bench_pairwise(c: &mut Criterion) {
    let doc = generate(&DocGenConfig::default().with_approx_nodes(20_000));
    let n = doc.len() as u32;
    let f1 = FragmentSet::of_nodes((0..120).map(|i| NodeId(i * (n / 130) + 1)));
    let f2 = FragmentSet::of_nodes((0..120).map(|i| NodeId(i * (n / 130) + 2)));
    let mut group = c.benchmark_group("substrate/pairwise");
    group.sample_size(10);
    group.bench_function("sequential", |b| {
        b.iter(|| {
            let mut st = EvalStats::new();
            black_box(pairwise_join(&doc, black_box(&f1), black_box(&f2), &mut st))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_parse_and_index,
    bench_store,
    bench_collection,
    bench_join_kernel,
    bench_pairwise
);
criterion_main!(benches);
