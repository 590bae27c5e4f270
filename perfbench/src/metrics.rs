//! The benchmark's metrics: the tables `BENCHMARK.json` mirrors, the
//! result line, and how each value is derived from a run.

use std::collections::HashMap;
use std::path::Path;
use std::time::Duration;

use xfrag_core::{EvalStats, RecordingSink};

use crate::check::Checks;
use crate::drive::{ms, Sample, Served};
use crate::inproc::{self, load_generation, Engine, Outcome, CACHE_MB};
use crate::stats::{mean, median, percentile, ratio};
use crate::workload::{Stream, Workload};

/// Timed requests the traced replay covers, from the start of the window.
const REPLAY_CAP: usize = 5_000;
/// Generation loads timed per traced run; load times are their medians.
const LOAD_REPS: usize = 3;

/// End-to-end metrics: name, unit, which way is better, and the share
/// of the parent's median by which a change may worsen it.
pub const END_TO_END: [(&str, &str, &str, f64); 5] = [
    ("setup_s", "s", "lower", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.15),
    ("latency_p95_ms", "ms", "lower", 0.25),
    ("throughput_qps", "1/s", "higher", 0.15),
    ("server_rss_mb", "MiB", "lower", 0.25),
];

/// Per-layer metrics: name, unit, which way is better, and which
/// end-to-end metric on which workload it should move.
#[rustfmt::skip]
pub const PER_LAYER: [(&str, &str, &str, &str); 33] = [
    ("serve.server_ms_mean", "ms", "lower", "latency_p50_ms on every workload"),
    ("serve.wire_ms_mean", "ms", "lower", "latency_p50_ms on hot-zipf by the same absolute amount as on cold-distinct"),
    ("serve.hedges_per_1k", "1/1000req", "lower", "latency_p95_ms on reload-churn"),
    ("serve.hedge_wins", "count", "higher", "latency_p95_ms on reload-churn"),
    ("breaker.opens", "count", "lower", "latency_p95_ms on reload-churn"),
    ("serve.reload_ms_p50", "ms", "lower", "latency_p95_ms on reload-churn (the reload verb, timed at the client)"),
    ("manifest.commit_ms_p50", "ms", "lower", "latency_p95_ms on reload-churn (`xfrag index --delta`, timed as a process)"),
    ("planner.plan_us_p50", "us", "lower", "latency_p50_ms on cold-distinct"),
    ("planner.cache_hit_ratio", "ratio", "higher", "latency_p50_ms on cold-distinct"),
    ("planner.replans", "count", "lower", "latency_p50_ms on cold-distinct"),
    ("cache.result_hit_ratio", "ratio", "higher", "throughput_qps on hot-zipf, and server_rss_mb"),
    ("cache.fixpoint_hit_ratio", "ratio", "higher", "throughput_qps on hot-zipf, and server_rss_mb"),
    ("cache.postings_hit_ratio", "ratio", "higher", "throughput_qps on hot-zipf, and server_rss_mb"),
    ("cache.evictions_per_1k", "1/1000req", "lower", "throughput_qps on hot-zipf, and server_rss_mb"),
    ("cache.bytes_mb", "MiB", "lower", "throughput_qps on hot-zipf, and server_rss_mb"),
    ("cache.carry_kept_ratio", "ratio", "higher", "latency_p95_ms on reload-churn"),
    ("segment.load_us_per_req", "us", "lower", "latency_p50_ms on cold-distinct, and serve.reload_ms_p50"),
    ("segment.terms_loaded", "terms/req", "lower", "latency_p50_ms on cold-distinct, and serve.reload_ms_p50"),
    ("segment.open_ms", "ms", "lower", "latency_p50_ms on cold-distinct, and serve.reload_ms_p50"),
    ("manifest.load_generation_ms", "ms", "lower", "setup_s and serve.reload_ms_p50"),
    ("store.decode_ms", "ms", "lower", "setup_s and serve.reload_ms_p50"),
    ("collection.eval_ms_p50", "ms", "lower", "latency_p50_ms and throughput_qps on cold-distinct"),
    ("collection.docs_per_req", "docs/req", "lower", "latency_p50_ms and throughput_qps on cold-distinct"),
    ("collection.doc_ms_max_over_sum", "ratio", "lower", "latency_p50_ms and throughput_qps on cold-distinct (parallel headroom)"),
    ("fixpoint.iterations_per_req", "count/req", "lower", "latency_p50_ms on cold-distinct; no move on hot-zipf"),
    ("join.joins_per_req", "count/req", "lower", "latency_p50_ms on cold-distinct; no move on hot-zipf"),
    ("join.label_ops_per_req", "count/req", "lower", "latency_p50_ms on cold-distinct; no move on hot-zipf"),
    ("join.dup_ratio", "ratio", "lower", "latency_p50_ms on cold-distinct; no move on hot-zipf"),
    ("filter.prune_ratio", "ratio", "lower", "latency_p50_ms on cold-distinct; no move on hot-zipf"),
    ("rank.top_k_us_p50", "us", "lower", "latency_p50_ms on hot-zipf"),
    ("snippet.us_per_req", "us", "lower", "latency_p50_ms on hot-zipf"),
    ("loadgen.late_ms_p99", "ms", "lower", "none: the open-loop generator's own lateness (benchmark validity)"),
    ("trace.overhead_share", "ratio", "lower", "none: the recording tracer's cost over a disabled one (benchmark validity)"),
];

/// One measured value with the number of samples behind it.
#[derive(Debug, Clone, Copy)]
pub struct Value {
    pub value: f64,
    pub n: usize,
}

pub fn val(value: f64, n: usize) -> Value {
    Value { value, n }
}

pub type Metrics = HashMap<&'static str, Value>;

/// The result line: `correct`, `attempted`, `failed`, and the
/// per-layer metrics when `trace`, else the end-to-end ones.
pub fn result_line(
    checks: &Checks,
    end_to_end: &Metrics,
    per_layer: &Metrics,
    trace: bool,
) -> String {
    let fields: Vec<String> = if trace {
        PER_LAYER
            .iter()
            .map(|(name, unit, ..)| metric_json(name, unit, per_layer.get(name)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|(name, unit, ..)| metric_json(name, unit, end_to_end.get(name)))
            .collect()
    };
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        fields.join(",")
    )
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn metric_json(name: &str, unit: &str, v: Option<&Value>) -> String {
    let value = v.map_or(0.0, |v| v.value);
    // `{:?}` prints every digit an f64 holds; JSON has no NaN.
    let value = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}")
}

/// The end-to-end metrics of one run.
pub fn end_to_end(setup: &[f64], s: &Served, lat: &[f64]) -> Metrics {
    let n = lat.len();
    let ok = s.window.samples.iter().filter(|x| x.ok).count();
    HashMap::from([
        ("setup_s", val(median(setup), setup.len())),
        (
            "latency_p50_ms",
            val(percentile(lat, 50.0).unwrap_or(0.0), n),
        ),
        (
            "latency_p95_ms",
            val(percentile(lat, 95.0).unwrap_or(0.0), n),
        ),
        (
            "throughput_qps",
            val(ok as f64 / s.window.elapsed.as_secs_f64(), ok),
        ),
        ("server_rss_mb", val(s.rss_mb, 1)),
    ])
}

/// Layer metrics from the server's own counters over the timed window
/// (carry-over over the whole run), and from the load generator.
pub fn server_layers(w: Workload, s: &Served, samples: &[Sample]) -> Metrics {
    let d = s.after.since(&s.before);
    let carry = s.last.since(&s.before);
    let lat: Vec<f64> = samples.iter().map(|x| x.latency_ms).collect();
    let late: Vec<f64> = samples.iter().map(|x| x.late_ms).collect();
    let server_ms = ratio(d.latency_total_ns, d.queries) / 1e6;
    let q = d.queries as usize;
    let per_1k = |x: f64| 1e3 * ratio(x, d.queries);
    let hits = |h: f64, m: f64| val(ratio(h, h + m), (h + m) as usize);
    let carried = carry.carry_kept + carry.carry_rekeyed;
    let reloads: Vec<f64> = s.cycles.iter().map(|c| c.reload_ms).collect();
    let commits: Vec<f64> = s.cycles.iter().map(|c| c.commit_ms).collect();
    let late_n = if w.connections().is_some() {
        0
    } else {
        late.len()
    };
    HashMap::from([
        ("serve.server_ms_mean", val(server_ms, q)),
        ("serve.wire_ms_mean", val(mean(&lat) - server_ms, lat.len())),
        ("serve.hedges_per_1k", val(per_1k(d.hedges), q)),
        ("serve.hedge_wins", val(d.hedge_wins, q)),
        ("breaker.opens", val(d.breaker_opens, q)),
        ("serve.reload_ms_p50", val(median(&reloads), reloads.len())),
        (
            "manifest.commit_ms_p50",
            val(median(&commits), commits.len()),
        ),
        (
            "planner.cache_hit_ratio",
            hits(d.plans_cached, d.plans_planned),
        ),
        ("planner.replans", val(d.replans, q)),
        (
            "cache.result_hit_ratio",
            hits(d.result_hits, d.result_misses),
        ),
        (
            "cache.fixpoint_hit_ratio",
            hits(d.fixpoint_hits, d.fixpoint_misses),
        ),
        (
            "cache.postings_hit_ratio",
            hits(d.postings_hits, d.postings_misses),
        ),
        ("cache.evictions_per_1k", val(per_1k(d.evictions), q)),
        (
            "cache.bytes_mb",
            val(s.after.cache_bytes / f64::from(1u32 << 20), 1),
        ),
        (
            "cache.carry_kept_ratio",
            val(
                ratio(carried, carried + carry.carry_evicted),
                s.cycles.len(),
            ),
        ),
        (
            "loadgen.late_ms_p99",
            val(percentile(&late, 99.0).unwrap_or(0.0), late_n),
        ),
    ])
}

/// Replay warm-up plus the timed requests in process, once with a
/// recording tracer and once without, and derive the in-process layer
/// metrics from the traced pass.
pub fn traced_layers(
    dir: &Path,
    stream: &Stream,
    samples: &[Sample],
    timeout: Option<u64>,
    layer: &mut Metrics,
) -> Result<(), String> {
    let mut loads = Vec::new();
    for _ in 0..LOAD_REPS {
        loads.push(load_generation(dir)?);
    }
    let load_ms = |f: fn(&inproc::LoadTimes) -> Duration| -> f64 {
        median(&loads.iter().map(|(_, t)| ms(f(t))).collect::<Vec<_>>())
    };
    layer.insert(
        "manifest.load_generation_ms",
        val(load_ms(|t| t.manifest), LOAD_REPS),
    );
    layer.insert("store.decode_ms", val(load_ms(|t| t.decode), LOAD_REPS));
    layer.insert("segment.open_ms", val(load_ms(|t| t.open), LOAD_REPS));
    let coll = &loads[0].0;
    let timed: Vec<usize> = samples.iter().take(REPLAY_CAP).map(|s| s.spec).collect();

    let replay = |sink: Option<&RecordingSink>| -> Result<Vec<Outcome>, String> {
        let engine = Engine::new(coll, CACHE_MB, timeout);
        for &spec in &stream.warmup {
            engine.run(&stream.specs[spec], sink)?;
        }
        timed
            .iter()
            .map(|&spec| engine.run(&stream.specs[spec], sink))
            .collect()
    };
    let sink = RecordingSink::new();
    let traced = replay(Some(&sink))?;
    let plain = replay(None)?;
    let eval_sum = |o: &[Outcome]| o.iter().map(|x| x.eval.as_secs_f64()).sum::<f64>();
    let n = traced.len();
    let per = |f: fn(&Outcome) -> f64| traced.iter().map(f).collect::<Vec<f64>>();
    let total = traced.iter().fold(EvalStats::new(), |mut acc, o| {
        acc += o.stats;
        acc
    });
    let per_req = |x: u64| ratio(x as f64, n as f64);
    let doc_skew: Vec<f64> = traced
        .iter()
        .filter_map(|o| {
            let docs: Vec<f64> = o
                .spans
                .iter()
                .filter(|s| s.stage.starts_with("doc:"))
                .map(|s| s.wall.as_secs_f64())
                .collect();
            let sum: f64 = docs.iter().sum();
            (sum > 0.0).then(|| docs.iter().cloned().fold(0.0, f64::max) / sum)
        })
        .collect();

    layer.insert("planner.plan_us_p50", val(median(&per(|o| us(o.plan))), n));
    layer.insert(
        "segment.load_us_per_req",
        val(
            mean(&per(|o| us(inproc::span_time(&o.spans, "index:load:")))),
            n,
        ),
    );
    layer.insert(
        "segment.terms_loaded",
        val(
            mean(&per(|o| inproc::span_count(&o.spans, "index:load:") as f64)),
            n,
        ),
    );
    layer.insert(
        "collection.eval_ms_p50",
        val(median(&per(|o| ms(o.eval))), n),
    );
    layer.insert(
        "collection.docs_per_req",
        val(
            mean(&per(|o| inproc::span_count(&o.spans, "doc:") as f64)),
            n,
        ),
    );
    layer.insert(
        "collection.doc_ms_max_over_sum",
        val(mean(&doc_skew), doc_skew.len()),
    );
    layer.insert(
        "fixpoint.iterations_per_req",
        val(per_req(total.fixpoint_iterations), n),
    );
    layer.insert("join.joins_per_req", val(per_req(total.joins), n));
    layer.insert("join.label_ops_per_req", val(per_req(total.label_ops), n));
    layer.insert(
        "join.dup_ratio",
        val(
            ratio(
                total.duplicates_collapsed as f64,
                total.fragments_emitted as f64,
            ),
            n,
        ),
    );
    layer.insert(
        "filter.prune_ratio",
        val(
            ratio(total.filter_pruned as f64, total.filter_evals as f64),
            n,
        ),
    );
    layer.insert("rank.top_k_us_p50", val(median(&per(|o| us(o.rank))), n));
    layer.insert("snippet.us_per_req", val(mean(&per(|o| us(o.snippet))), n));
    let (t, p) = (eval_sum(&traced), eval_sum(&plain));
    layer.insert("trace.overhead_share", val(ratio(t - p, p), n));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire;
    use crate::workload;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let e2e = HashMap::from([("setup_s", val(0.8127, 3))]);
        let result = |trace| result_line(&Checks::default(), &e2e, &HashMap::new(), trace);
        let line = result(false);
        let v = wire::parse_json(&line).unwrap();
        match &v {
            serde::JsonValue::Object(f) => {
                let keys: Vec<&str> = f.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            }
            _ => panic!("{line}"),
        }
        assert_eq!(wire::num(&v, &["metrics", "setup_s", "value"]), 0.8127);
        let count = |line: &str| match wire::at(&wire::parse_json(line).unwrap(), &["metrics"]) {
            Some(serde::JsonValue::Object(m)) => m.len(),
            _ => panic!("{line}"),
        };
        assert_eq!(count(&line), END_TO_END.len());
        assert_eq!(count(&result(true)), PER_LAYER.len());
    }

    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).unwrap();
        let v = wire::parse_json(&text).unwrap();
        let list = |key: &str| match wire::at(&v, &[key]) {
            Some(serde::JsonValue::Array(a)) => a.clone(),
            _ => panic!("{key} missing"),
        };
        let s = |x: &serde::JsonValue, k: &str| match wire::at(x, &[k]) {
            Some(serde::JsonValue::Str(s)) => s.clone(),
            _ => panic!("{k} missing"),
        };
        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (m, (name, unit, better, bound)) in e2e.iter().zip(END_TO_END) {
            assert_eq!(
                (s(m, "name"), s(m, "unit"), s(m, "better")),
                (name.into(), unit.into(), better.into())
            );
            assert_eq!(wire::num(m, &["bound"]), bound);
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (m, (name, unit, better, _)) in layers.iter().zip(PER_LAYER) {
            assert_eq!(
                (s(m, "name"), s(m, "unit"), s(m, "better")),
                (name.into(), unit.into(), better.into())
            );
        }
        let workloads = list("workloads");
        let names: Vec<String> = workloads.iter().map(|x| s(x, "name")).collect();
        assert_eq!(names, workload::ALL.map(|w| w.name().to_string()));
        for (x, w) in workloads.iter().zip(workload::ALL) {
            assert_eq!(s(x, "why"), w.why());
        }
    }
}
