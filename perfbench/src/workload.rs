//! The three workloads and their seeded request streams.

use std::collections::HashSet;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use xfrag_corpus::zipf::Zipf;

use crate::corpus::mix;

/// Which traffic mix a run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HotZipf,
    ColdDistinct,
    ReloadChurn,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const ALL: [Workload; 3] = [
    Workload::HotZipf,
    Workload::ColdDistinct,
    Workload::ReloadChurn,
];

/// Zipf exponent over the hot pool.
const ZIPF_S: f64 = 1.1;
/// Term pairs in the hot pool (each under every size filter).
const HOT_PAIRS: usize = 16;
/// Vocabulary ranks the hot pool draws from: frequent enough that most
/// pairs have answers, rare enough that no pair is pathological.
const HOT_RANKS: (usize, usize) = (120, 400);
/// Vocabulary ranks the cold stream draws from.
const COLD_RANKS: (usize, usize) = (150, 600);
/// Size filters (`σ size ≤ n`) queries carry.
const SIZES: [u32; 2] = [3, 4];
/// Open-loop arrival rate of `reload-churn`, requests per second.
pub const CHURN_RATE: f64 = 40.0;
/// Time between two writer cycles (rewrite, commit, reload).
pub const CHURN_PERIOD: Duration = Duration::from_millis(500);
/// Deadline every `cold-distinct` and `reload-churn` query carries; far
/// above any healthy evaluation, so it only ends pathological requests.
const TIMEOUT_MS: u64 = 5_000;

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotZipf => "hot-zipf",
            Workload::ColdDistinct => "cold-distinct",
            Workload::ReloadChurn => "reload-churn",
        }
    }

    /// Why the workload exists: which layers it loads.
    pub fn why(self) -> &'static str {
        match self {
            Workload::HotZipf => {
                "Zipf 1.1 over 32 warmed queries, closed loop on 2 connections: result-cache \
                 hits, so socket I/O, protocol, gather, rank and snippet dominate"
            }
            Workload::ColdDistinct => {
                "distinct mid-frequency term pairs, closed loop on 1 connection: the result \
                 cache never hits, so planner, postings and join kernels dominate"
            }
            Workload::ReloadChurn => {
                "open loop at 40 req/s on --shards 2 --replicas 2 while a second connection \
                 rewrites a document, commits a delta and reloads every 0.5 s"
            }
        }
    }

    /// Extra `xfrag serve` flags.
    pub fn serve_args(self) -> &'static [&'static str] {
        match self {
            Workload::ReloadChurn => &["--shards", "2", "--replicas", "2"],
            _ => &[],
        }
    }

    /// Closed-loop connections, or `None` for the open loop.
    pub fn connections(self) -> Option<usize> {
        match self {
            Workload::HotZipf => Some(2),
            Workload::ColdDistinct => Some(1),
            Workload::ReloadChurn => None,
        }
    }

    /// The per-request deadline this workload's queries carry.
    pub fn timeout_ms(self) -> Option<u64> {
        match self {
            Workload::HotZipf => None,
            _ => Some(TIMEOUT_MS),
        }
    }

    pub fn loop_description(self) -> String {
        match self.connections() {
            Some(n) => format!("closed loop, {n} connection(s)"),
            None => format!("open loop, {CHURN_RATE} req/s on 1 connection + 1 writer connection"),
        }
    }
}

/// One query: two keywords under a size filter.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct QuerySpec {
    pub terms: [String; 2],
    pub size: u32,
}

impl QuerySpec {
    fn new(a: usize, b: usize, size: u32) -> Self {
        QuerySpec {
            terms: [format!("term{a}"), format!("term{b}")],
            size,
        }
    }

    /// The request line (without the newline).
    pub fn line(&self, id: u64, timeout_ms: Option<u64>) -> String {
        let timeout = timeout_ms.map_or(String::new(), |t| format!(",\"timeout_ms\":{t}"));
        format!(
            "{{\"kind\":\"query\",\"id\":{id},\"keywords\":[\"{}\",\"{}\"],\"size\":{}{timeout}}}",
            self.terms[0], self.terms[1], self.size
        )
    }
}

/// A workload's requests: the distinct queries, the warm-up order, and
/// the timed stream as indices into `specs`.
#[derive(Debug, Clone)]
pub struct Stream {
    pub specs: Vec<QuerySpec>,
    /// Sent once, untimed, before the timed window.
    pub warmup: Vec<usize>,
    /// Timed requests, in send order; a run uses a prefix.
    pub timed: Vec<usize>,
    /// Whether the timed sequence repeats once used up; a stream of
    /// distinct requests ends instead.
    pub wraps: bool,
}

impl Stream {
    /// The spec of the `k`th timed request.
    pub fn request(&self, k: usize) -> Option<usize> {
        match self.timed.len() {
            0 => None,
            n if self.wraps => Some(self.timed[k % n]),
            _ => self.timed.get(k).copied(),
        }
    }
}

/// Draw `k` distinct values from `lo..hi`.
fn distinct_ranks(rng: &mut StdRng, (lo, hi): (usize, usize), k: usize) -> Vec<usize> {
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(k);
    while out.len() < k {
        let r = rng.random_range(lo..hi);
        if seen.insert(r) {
            out.push(r);
        }
    }
    out
}

/// The hot pool: `HOT_PAIRS` disjoint term pairs × every size filter.
fn hot_pool(rng: &mut StdRng) -> Vec<QuerySpec> {
    let ranks = distinct_ranks(rng, HOT_RANKS, HOT_PAIRS * 2);
    ranks
        .chunks(2)
        .flat_map(|p| SIZES.iter().map(move |&s| QuerySpec::new(p[0], p[1], s)))
        .collect()
}

/// Build the request stream for `w`, long enough for `max_requests`.
pub fn stream(w: Workload, seed: u64, max_requests: usize) -> Stream {
    let mut rng = StdRng::seed_from_u64(mix(seed, 0x5EED_0000 + w as u64));
    match w {
        Workload::HotZipf | Workload::ReloadChurn => {
            let specs = hot_pool(&mut rng);
            let zipf = Zipf::new(specs.len(), ZIPF_S);
            let timed = (0..max_requests)
                .map(|_| zipf.sample(&mut rng) - 1)
                .collect();
            Stream {
                warmup: (0..specs.len()).collect(),
                specs,
                timed,
                wraps: true,
            }
        }
        Workload::ColdDistinct => {
            // Passes over a shuffled vocabulary slice, pairing neighbours:
            // the first pass touches every term once, so postings and
            // fixed points start cold as well as results.
            let terms: Vec<usize> = (COLD_RANKS.0..COLD_RANKS.1).collect();
            let mut seen = HashSet::new();
            let mut specs = Vec::with_capacity(max_requests);
            let mut pass = 0usize;
            while specs.len() < max_requests {
                let mut order = terms.clone();
                for i in (1..order.len()).rev() {
                    order.swap(i, rng.random_range(0..=i));
                }
                let size = SIZES[pass % SIZES.len()];
                for p in order.chunks_exact(2) {
                    let (a, b) = (p[0].min(p[1]), p[0].max(p[1]));
                    if specs.len() < max_requests && seen.insert((a, b, size)) {
                        specs.push(QuerySpec::new(a, b, size));
                    }
                }
                pass += 1;
            }
            Stream {
                timed: (0..specs.len()).collect(),
                warmup: Vec::new(),
                specs,
                wraps: false,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for w in ALL {
            let a = stream(w, 7, 500);
            let b = stream(w, 7, 500);
            assert_eq!(a.specs, b.specs, "{}", w.name());
            assert_eq!(a.timed, b.timed, "{}", w.name());
            let c = stream(w, 8, 500);
            assert_ne!(a.specs, c.specs, "{}", w.name());
        }
    }

    #[test]
    fn cold_requests_never_repeat() {
        let s = stream(Workload::ColdDistinct, 3, 2_000);
        assert_eq!(s.timed.len(), 2_000);
        let distinct: HashSet<&QuerySpec> = s.timed.iter().map(|&i| &s.specs[i]).collect();
        assert_eq!(distinct.len(), 2_000);
        assert!(s.warmup.is_empty());
        assert_eq!(s.request(1_999), Some(1_999));
        assert_eq!(s.request(2_000), None);
    }

    #[test]
    fn hot_stream_is_skewed_over_a_warmed_pool() {
        let s = stream(Workload::HotZipf, 3, 5_000);
        assert_eq!(s.specs.len(), HOT_PAIRS * SIZES.len());
        assert_eq!(s.warmup.len(), s.specs.len());
        let mut counts = vec![0usize; s.specs.len()];
        for &i in &s.timed {
            counts[i] += 1;
        }
        assert!(counts[0] > counts[s.specs.len() - 1] * 5, "{counts:?}");
        assert_eq!(s.request(5_000), s.request(0));
    }

    #[test]
    fn request_line_is_protocol_json() {
        let q = QuerySpec::new(12, 7, 3);
        assert_eq!(
            q.line(5, Some(100)),
            r#"{"kind":"query","id":5,"keywords":["term12","term7"],"size":3,"timeout_ms":100}"#
        );
        assert_eq!(
            q.line(1, None),
            r#"{"kind":"query","id":1,"keywords":["term12","term7"],"size":3}"#
        );
    }

    #[test]
    fn names_round_trip() {
        for w in ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("hot"), None);
    }
}
