//! `perfbench` — the socket-level benchmark of `xfrag serve`.
//!
//! Run from the root of an xfrag checkout:
//!
//! ```text
//! cargo run --release --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload hot-zipf|cold-distinct|reload-churn --seed N --seconds S --trace 0|1
//! ```
//!
//! One run builds `xfrag` from the checkout (refusing a stale binary),
//! generates a seeded corpus with `xfrag_corpus::docgen`, commits it
//! with the real `xfrag index`, boots the real `xfrag serve --port 0`,
//! and drives the workload over persistent TCP connections, timing
//! every request at the client. Tracing stays off in the server; the
//! per-layer numbers come from the server's `stats` counters and from
//! an in-process replay of the same requests over the same committed
//! generation (see `inproc`). Every reply is checked against that
//! replay's answers, and every repeat of a request must reproduce the
//! same answer bytes.
//!
//! The report goes to stdout; its last line is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics` — the end-to-end
//! metrics with `--trace 0`, the per-layer ones with `--trace 1`. The
//! exit code is 1 on any failed or wrong reply, 2 on bad arguments.

mod check;
mod corpus;
mod drive;
mod inproc;
mod metrics;
mod server;
mod stats;
mod wire;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use check::{state_at, Checks, Verifier};
use corpus::{Corpus, DOCS, NODES_PER_DOC};
use drive::{Served, Writer};
use inproc::{load_generation, Engine, CACHE_MB};
use metrics::{Metrics, END_TO_END, PER_LAYER};
use server::Server;
use stats::{percentile, ratio};
use wire::Conn;
use workload::{Stream, Workload};

/// Index + boot cycles per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Timed requests the stream holds (a hot stream repeats after them).
const STREAM_LEN: usize = 20_000;

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse().ok().filter(|&s| s > 0).ok_or_else(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload hot-zipf|cold-distinct|reload-churn \
                 --seed N [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let report = std::env::current_dir()
        .map_err(|e| format!("cwd: {e}"))
        .and_then(|root| run(&args, &root, stats::MIN_SAMPLES));
    match report {
        Ok(report) => {
            for line in &report.lines {
                println!("# {line}");
            }
            println!("{}", report.result_line(args.trace));
            if report.checks.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A finished run: report lines, both metric sets, and the checks.
struct Report {
    lines: Vec<String>,
    end_to_end: Metrics,
    per_layer: Metrics,
    checks: Checks,
}

impl Report {
    fn result_line(&self, trace: bool) -> String {
        metrics::result_line(&self.checks, &self.end_to_end, &self.per_layer, trace)
    }
}

/// A directory for one run's files inside the checkout, removed at the
/// end of the run whatever its outcome.
struct WorkDir(PathBuf);

impl WorkDir {
    fn at(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent); // only if no other run uses it
        }
    }
}

/// One run against the checkout at `root`; its timed window must hold
/// at least `floor` requests.
fn run(a: &Args, root: &Path, floor: usize) -> Result<Report, String> {
    let w = a.workload;
    if !root.join("crates/cli/Cargo.toml").is_file() {
        return Err("run from the root of an xfrag checkout".into());
    }
    let bin = server::build_xfrag(root)?;
    let work = WorkDir(root.join(".bench_work").join(format!(
        "{}-{}-{}",
        w.name(),
        a.seed,
        std::process::id()
    )));
    let corpus = Corpus::new(a.seed);
    let src = work.at("src");
    corpus
        .write_sources(&src)
        .map_err(|e| format!("writing sources: {e}"))?;
    let stream = workload::stream(w, a.seed, STREAM_LEN);
    let mut lines = vec![
        format!(
            "perfbench workload={} seed={} seconds={} trace={} nproc={}",
            w.name(),
            a.seed,
            a.seconds,
            u8::from(a.trace),
            std::thread::available_parallelism().map_or(1, usize::from)
        ),
        format!(
            "corpus: {DOCS} docgen documents x ~{NODES_PER_DOC} nodes; loop: {}; server: xfrag serve {}",
            w.loop_description(),
            w.serve_args().join(" ")
        ),
        format!("why: {}", w.why()),
    ];

    let (server, setup, drains) = set_up(&bin, &src, &work, w)?;
    let dir = work.at(&format!("corpus-{}", SETUP_REPS - 1));
    let writer = Writer::new(&bin, corpus, &src, &dir, server.addr);
    let s = drive::measure(w, a.seconds, server, writer, &stream, floor)?;
    let checks = verify(w, &bin, corpus, &work, &dir, &stream, &s)?;
    let overlapped = s
        .window
        .samples
        .iter()
        .filter(|x| state_at(&s.cycles, x.sent, x.done).is_none())
        .count();
    lines.push(format!(
        "checked {} replies against the in-process oracle ({overlapped} overlapped a reload \
         and may match either corpus state): {} failed, failed_share = {:.6}",
        checks.attempted,
        checks.failed,
        ratio(checks.failed as f64, checks.attempted as f64)
    ));
    lines.extend(checks.notes.iter().map(|n| format!("FAILED {n}")));
    lines.push(format!(
        "{} set-up server(s) drained with 0 in flight; measured server {}",
        drains.len(),
        s.drain
    ));
    lines.push(format!(
        "server peak RSS: {:.1} MiB after the workload's traffic, {:.1} MiB before shutdown ({} reloads)",
        s.rss_mb,
        s.rss_end_mb,
        s.cycles.len()
    ));

    let samples = s.window.in_send_order();
    let lat: Vec<f64> = samples.iter().map(|x| x.latency_ms).collect();
    let quantiles = [10.0, 50.0, 90.0, 95.0, 99.0]
        .map(|p| format!("p{p}={:.2}", percentile(&lat, p).unwrap_or(0.0)));
    lines.push(format!("latency ms: {}", quantiles.join(" ")));
    if !stats::supports(lat.len(), 95.0) {
        lines.push("latency_p95_ms has fewer than 10 samples beyond it".into());
    }
    let end_to_end = metrics::end_to_end(&setup, &s, &lat);
    let mut per_layer = metrics::server_layers(w, &s, &samples);
    if a.trace {
        metrics::traced_layers(&dir, &stream, &samples, w.timeout_ms(), &mut per_layer)?;
    }
    for (name, unit, _, bound) in END_TO_END {
        let v = end_to_end[name];
        lines.push(format!(
            "end-to-end {name} = {:.4} {unit} (n={}, bound {bound})",
            v.value, v.n
        ));
    }
    for (name, unit, _, moves) in PER_LAYER {
        lines.push(match per_layer.get(name) {
            Some(v) => format!(
                "per-layer {name} = {:.4} {unit} (n={}); should move {moves}",
                v.value, v.n
            ),
            None => format!("per-layer {name}: traced run only (--trace 1)"),
        });
    }
    Ok(Report {
        lines,
        end_to_end,
        per_layer,
        checks,
    })
}

/// Commit a fresh corpus and boot a server to its first ok reply,
/// `SETUP_REPS` times; returns the last server (the one measured), the
/// set-up times, and the earlier servers' drain summaries.
fn set_up(
    bin: &Path,
    src: &Path,
    work: &WorkDir,
    w: Workload,
) -> Result<(Server, Vec<f64>, Vec<String>), String> {
    let mut times = Vec::new();
    let mut drains = Vec::new();
    let mut running: Option<Server> = None;
    for rep in 0..SETUP_REPS {
        if let Some(s) = running.take() {
            drains.push(s.shutdown()?);
        }
        let t = Instant::now();
        let dir = work.at(&format!("corpus-{rep}"));
        server::index(bin, src, &dir, false)?;
        let s = Server::start(
            bin,
            &dir,
            w.serve_args(),
            &work.at(&format!("serve-{rep}.log")),
        )?;
        let reply = Conn::connect(s.addr)
            .and_then(|mut c| c.call(r#"{"kind":"health","id":0}"#))
            .map_err(|e| format!("health: {e}"))?;
        if !reply.contains("\"status\":\"ok\"") {
            return Err(format!("server unhealthy: {reply}"));
        }
        times.push(t.elapsed().as_secs_f64());
        running = Some(s);
    }
    Ok((running.expect("SETUP_REPS > 0"), times, drains))
}

/// Check every reply against the in-process oracle over the committed
/// generation of the corpus state that served it.
fn verify(
    w: Workload,
    bin: &Path,
    corpus: Corpus,
    work: &WorkDir,
    dir: &Path,
    stream: &Stream,
    s: &Served,
) -> Result<Checks, String> {
    let (served, _) = load_generation(dir)?;
    // The closed loops serve one state (their probes come after the
    // window); churn serves both, so the one it did not end in is
    // committed here too.
    let other = if w == Workload::ReloadChurn {
        let (src, dir) = (work.at("src-other"), work.at("corpus-other"));
        corpus
            .write_sources(&src)
            .map_err(|e| format!("writing sources: {e}"))?;
        let doc = corpus.churn_doc();
        let version = 1 - s.final_state as u64;
        std::fs::write(src.join(Corpus::file_name(doc)), corpus.xml(doc, version))
            .map_err(|e| format!("writing sources: {e}"))?;
        server::index(bin, &src, &dir, false)?;
        Some(load_generation(&dir)?.0)
    } else {
        None
    };
    let colls = match &other {
        None => vec![&served],
        Some(o) if s.final_state == 0 => vec![&served, o],
        Some(o) => vec![o, &served],
    };
    let engines = colls
        .iter()
        .map(|c| Engine::new(c, CACHE_MB, w.timeout_ms()))
        .collect();
    let mut v = Verifier::new(engines, &stream.specs);
    for &(spec, ok, body) in &s.warm {
        v.check(spec, Some(0), ok, body, &s.bodies)?;
    }
    for x in &s.window.samples {
        let state = state_at(&s.cycles, x.sent, x.done);
        v.check(x.spec, state, x.ok, x.body, &s.bodies)?;
    }
    for &(spec, ok, body) in &s.verified {
        v.check(spec, Some(s.final_state), ok, body, &s.bodies)?;
    }
    Ok(v.checks)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = parse_args(&argv(
            "--workload cold-distinct --seed 9 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::ColdDistinct);
        assert_eq!((a.seed, a.seconds, a.trace), (9, 3, true));
        assert!(parse_args(&argv("--seed 1")).is_err());
        assert!(parse_args(&argv("--workload warm --seed 1")).is_err());
        assert!(parse_args(&argv("--workload hot-zipf --seed 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload hot-zipf --seed 1 --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload hot-zipf --seed")).is_err());
    }

    fn tiny_run(w: Workload) {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
        let a = Args {
            workload: w,
            seed: 5,
            seconds: 1,
            trace: true,
        };
        let r = run(&a, root, 20).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        assert_eq!(r.checks.failed, 0, "{:?}", r.checks.notes);
        assert!(r.checks.attempted >= 20);
        for (name, ..) in END_TO_END {
            assert!(r.end_to_end[name].value > 0.0, "{name} is zero");
        }
        for (name, ..) in PER_LAYER {
            assert!(r.per_layer.contains_key(name), "{name} missing");
        }
        assert!(r.result_line(true).contains("\"correct\":true"));
    }

    #[test]
    fn tiny_end_to_end_hot_zipf() {
        tiny_run(Workload::HotZipf);
    }

    #[test]
    fn tiny_end_to_end_cold_distinct() {
        tiny_run(Workload::ColdDistinct);
    }

    #[test]
    fn tiny_end_to_end_reload_churn() {
        tiny_run(Workload::ReloadChurn);
    }
}
