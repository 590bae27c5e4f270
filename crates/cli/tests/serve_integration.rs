//! End-to-end tests for `xfrag serve`: the deterministic fault suite
//! and a concurrent soak test (ISSUE 3 tentpole + satellite d).
//!
//! Each test boots the real binary with `--port 0`, reads the
//! `listening on <addr>` line, and drives it over raw TCP with
//! newline-delimited JSON. The fault suite leans on two server
//! guarantees: fault injection is deterministic by spec (serial
//! requests hit per-site counters in order), and responses carry no
//! wall-clock values — so a request unaffected by a fault must be
//! *byte-identical* to the same request against a fault-free server.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

fn corpus(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xfrag-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("a.xml"),
        "<doc><title>xml search alpha</title><p>ranked xml search over fragments</p></doc>",
    )
    .unwrap();
    std::fs::write(
        dir.join("b.xml"),
        "<doc><title>beta</title><sec><p>xml algebra</p><p>search trees</p></sec></doc>",
    )
    .unwrap();
    std::fs::write(
        dir.join("c.xml"),
        "<doc><p>gamma xml</p><p>keyword search</p><p>gamma filler</p></doc>",
    )
    .unwrap();
    dir
}

/// One NDJSON client connection.
struct Conn {
    w: TcpStream,
    r: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: &str) -> Conn {
        let s = TcpStream::connect(addr).expect("connect to server");
        s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        Conn {
            r: BufReader::new(s.try_clone().unwrap()),
            w: s,
        }
    }

    fn rpc(&mut self, json: &str) -> String {
        self.w.write_all(json.as_bytes()).unwrap();
        self.w.write_all(b"\n").unwrap();
        self.w.flush().unwrap();
        let mut line = String::new();
        self.r.read_line(&mut line).expect("read response line");
        assert!(!line.is_empty(), "server hung up instead of replying");
        line.trim_end().to_string()
    }
}

/// A running `xfrag serve` child. Killed on drop so a failing assertion
/// never leaks a listener into later tests.
struct Server {
    child: Child,
    addr: String,
    out: BufReader<ChildStdout>,
}

impl Server {
    fn start(dir: &Path, extra: &[&str]) -> Server {
        let mut child = Command::new(env!("CARGO_BIN_EXE_xfrag"))
            .arg("serve")
            .arg(dir)
            .args(["--port", "0"])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn server");
        let mut out = BufReader::new(child.stdout.take().unwrap());
        let mut line = String::new();
        out.read_line(&mut line).expect("read startup line");
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected startup line: {line:?}"))
            .to_string();
        Server { child, addr, out }
    }

    fn connect(&self) -> Conn {
        Conn::open(&self.addr)
    }

    fn rpc(&self, json: &str) -> String {
        self.connect().rpc(json)
    }

    /// Send `shutdown`, wait for exit, return (status, drain summary).
    fn shutdown_and_wait(mut self) -> (ExitStatus, String) {
        let reply = self.rpc(r#"{"kind":"shutdown","id":999}"#);
        assert!(reply.contains(r#""note":"draining""#), "{reply}");
        let status = self.child.wait().expect("wait for server exit");
        let mut rest = String::new();
        self.out.read_to_string(&mut rest).unwrap();
        (status, rest)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
    }
}

/// Commit a new corpus generation with the real `xfrag index` binary.
fn run_index(src: &Path, out: &Path) -> String {
    let o = Command::new(env!("CARGO_BIN_EXE_xfrag"))
        .arg("index")
        .arg(src)
        .arg(out)
        .output()
        .expect("run xfrag index");
    assert!(
        o.status.success(),
        "index failed: {}",
        String::from_utf8_lossy(&o.stderr)
    );
    String::from_utf8_lossy(&o.stdout).into_owned()
}

/// An empty scratch directory for a generation-committed corpus.
fn gen_corpus(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xfrag-gen-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Pull a string field's value out of a response line (no escapes in
/// the fields we probe).
fn field_str<'a>(line: &'a str, name: &str) -> &'a str {
    let pat = format!("\"{name}\":\"");
    let start = line
        .find(&pat)
        .unwrap_or_else(|| panic!("no {name} in {line}"))
        + pat.len();
    let end = line[start..].find('"').unwrap() + start;
    &line[start..end]
}

/// The fixed serial request sequence used by the determinism suite.
/// Every query matches all three corpus docs, so per-request fault-site
/// hits are: `serve:worker` 1, `collection:doc` 3, `query:eval` 3.
const QUERIES: [&str; 4] = [
    r#"{"kind":"query","id":1,"keywords":["xml","search"]}"#,
    r#"{"kind":"query","id":2,"keywords":["xml","search"],"top_k":2}"#,
    r#"{"kind":"query","id":3,"keywords":["xml","search"],"size":6}"#,
    r#"{"kind":"query","id":4,"keywords":["xml"]}"#,
];

fn run_serial(dir: &Path, extra: &[&str]) -> (Vec<String>, ExitStatus, String) {
    let srv = Server::start(dir, extra);
    let mut conn = srv.connect();
    let replies = QUERIES.iter().map(|q| conn.rpc(q)).collect();
    drop(conn);
    let (status, summary) = srv.shutdown_and_wait();
    (replies, status, summary)
}

#[test]
fn fault_injection_is_deterministic_and_isolated() {
    let dir = corpus("det");
    let (base, st, sum) = run_serial(&dir, &[]);
    assert!(st.success(), "fault-free server exited {st:?}");
    assert!(sum.contains("0 in flight"), "{sum}");
    // 4 queries + the shutdown request itself, nothing degraded or worse.
    assert!(
        sum.contains("(5 ok, 0 degraded, 0 shed, 0 timeout, 0 error)"),
        "{sum}"
    );
    for (i, r) in base.iter().enumerate() {
        assert_eq!(field_str(r, "status"), "ok", "baseline[{i}]: {r}");
    }
    // The whole suite is vacuous unless a clean replay is byte-identical.
    let (again, ..) = run_serial(&dir, &[]);
    assert_eq!(base, again, "fault-free replay is not deterministic");

    // (affected request index, expected status, expected detail).
    // Hit arithmetic: serve:worker fires once per request, so hit 2 is
    // request 2; collection:doc / query:eval fire once per candidate
    // doc (3 per request), so hit 4 lands on request 1's second doc.
    struct Case {
        inject: &'static str,
        affected: usize,
        status: &'static str,
        detail: &'static str,
    }
    let cases = [
        Case {
            inject: "serve:worker@2=panic",
            affected: 2,
            status: "error",
            detail: "worker panicked (isolated): xfrag-injected-fault",
        },
        Case {
            inject: "collection:doc@4=cancel",
            affected: 1,
            status: "error",
            detail: "query cancelled",
        },
        Case {
            inject: "query:eval@4=panic",
            affected: 1,
            status: "degraded",
            detail: "b.xml failed: xfrag-injected-fault",
        },
    ];
    for c in &cases {
        let (replies, st, sum) = run_serial(&dir, &["--inject", c.inject]);
        assert!(st.success(), "{}: server died: {st:?}", c.inject);
        assert!(sum.contains("0 in flight"), "{}: {sum}", c.inject);
        for (i, r) in replies.iter().enumerate() {
            if i == c.affected {
                assert_eq!(field_str(r, "status"), c.status, "{}: {r}", c.inject);
                assert!(r.contains(c.detail), "{}: {r}", c.inject);
            } else {
                // The core guarantee: a concurrent-in-spirit request the
                // fault did not touch is byte-for-byte what a fault-free
                // server would have said.
                assert_eq!(r, &base[i], "{}: unaffected reply {i} drifted", c.inject);
            }
        }
    }

    // An injected delay (no deadline configured) perturbs timing only:
    // every response byte must match the fault-free run.
    let (delayed, st, _) = run_serial(&dir, &["--inject", "serve:worker@1=delay:30"]);
    assert!(st.success());
    assert_eq!(delayed, base, "a pure delay changed response bytes");
}

#[test]
fn quarantine_keeps_the_server_up() {
    let dir = corpus("quar");
    // One organically corrupt file, plus an injected read error on the
    // second file in sorted load order (b.xml).
    std::fs::write(dir.join("zz_broken.xml"), "<doc><unclosed>").unwrap();
    let srv = Server::start(&dir, &["--inject", "serve:load@1=read-error"]);
    let mut conn = srv.connect();

    let health = conn.rpc(r#"{"kind":"health","id":1}"#);
    assert!(health.contains("\"docs\":2"), "{health}");
    assert!(
        health.contains("b.xml") && health.contains("zz_broken.xml"),
        "quarantine list wrong: {health}"
    );

    // Queries keep working over the surviving docs.
    let q = conn.rpc(r#"{"kind":"query","id":2,"keywords":["xml","search"]}"#);
    assert_eq!(field_str(&q, "status"), "ok", "{q}");
    assert!(q.contains("a.xml") && q.contains("c.xml"), "{q}");
    assert!(!q.contains("b.xml"), "quarantined doc answered: {q}");

    drop(conn);
    let (st, sum) = srv.shutdown_and_wait();
    assert!(st.success());
    assert!(sum.contains("2 file(s) quarantined"), "{sum}");
}

#[test]
fn shed_timeout_and_drain_rejection_paths() {
    let dir = corpus("shed");
    // One worker stalled 600 ms on each of the first two jobs makes the
    // depth-1 queue's state deterministic under generous sleeps.
    let srv = Server::start(
        &dir,
        &[
            "--workers",
            "1",
            "--queue-depth",
            "1",
            "--inject",
            "serve:worker@0=delay:600,serve:worker@1=delay:600",
        ],
    );
    let addr = srv.addr.clone();
    let occupy = std::thread::spawn({
        let a = addr.clone();
        move || Conn::open(&a).rpc(r#"{"kind":"query","id":11,"keywords":["xml"]}"#)
    });
    std::thread::sleep(Duration::from_millis(150));
    let queued = std::thread::spawn({
        let a = addr.clone();
        move || Conn::open(&a).rpc(r#"{"kind":"query","id":12,"keywords":["xml"]}"#)
    });
    std::thread::sleep(Duration::from_millis(150));

    // Worker busy + queue full => immediate shed with a shed reply.
    let shed = srv.rpc(r#"{"kind":"query","id":13,"keywords":["xml"]}"#);
    assert_eq!(field_str(&shed, "status"), "shed", "{shed}");
    assert!(shed.starts_with("{\"id\":13,"), "{shed}");
    assert!(shed.contains("queue full (depth 1)"), "{shed}");

    // The shed didn't cost the admitted requests anything.
    assert_eq!(field_str(&occupy.join().unwrap(), "status"), "ok");
    assert_eq!(field_str(&queued.join().unwrap(), "status"), "ok");

    // An already-expired deadline surfaces as `timeout`, not an error.
    let to = srv.rpc(r#"{"kind":"query","id":14,"keywords":["xml"],"timeout_ms":0}"#);
    assert_eq!(field_str(&to, "status"), "timeout", "{to}");
    assert!(to.contains("deadline of 0 ms"), "{to}");

    // A connection opened before shutdown still gets answered — with a
    // structured drain rejection, not a hangup.
    let mut pre = srv.connect();
    let mut sc = srv.connect();
    let r = sc.rpc(r#"{"kind":"shutdown","id":90}"#);
    assert!(r.contains("draining"), "{r}");
    let rejected = pre.rpc(r#"{"kind":"query","id":15,"keywords":["xml"]}"#);
    assert_eq!(
        field_str(&rejected, "status"),
        "shutting-down",
        "{rejected}"
    );
    drop(pre);
    drop(sc);
    let mut srv = srv;
    let st = srv.child.wait().expect("server exit");
    let mut sum = String::new();
    srv.out.read_to_string(&mut sum).unwrap();
    assert!(st.success(), "server exited {st:?}");
    assert!(sum.contains("1 shed"), "{sum}");
    assert!(sum.contains("1 timeout"), "{sum}");
    assert!(sum.contains("0 in flight"), "{sum}");
}

#[test]
fn soak_concurrent_clients_lose_no_responses() {
    let dir = corpus("soak");
    // Two workers, a tight queue, two injected panics and two stalls:
    // the storm below must still produce exactly one well-formed reply
    // per request, and the drain must end with zero in flight.
    let srv = Server::start(
        &dir,
        &[
            "--workers",
            "2",
            "--queue-depth",
            "2",
            "--inject",
            "serve:worker@0=delay:300,serve:worker@3=panic,serve:worker@6=panic,serve:worker@10=delay:300",
        ],
    );

    const THREADS: u64 = 6;
    const PER_THREAD: u64 = 5;
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let addr = srv.addr.clone();
        handles.push(std::thread::spawn(move || {
            let mut conn = Conn::open(&addr);
            let mut replies = Vec::new();
            for i in 0..PER_THREAD {
                let id = t * 100 + i;
                let req = format!(
                    r#"{{"kind":"query","id":{id},"keywords":["xml","search"],"top_k":2}}"#
                );
                replies.push((id, conn.rpc(&req)));
            }
            replies
        }));
    }

    let mut total = 0usize;
    let mut by_status: std::collections::BTreeMap<String, usize> = Default::default();
    for h in handles {
        for (id, reply) in h.join().expect("client thread") {
            total += 1;
            // Exactly this request's reply, on this request's connection.
            assert!(reply.starts_with(&format!("{{\"id\":{id},")), "{reply}");
            let status = field_str(&reply, "status").to_string();
            match status.as_str() {
                "ok" | "degraded" => {}
                "shed" => assert!(reply.contains("queue full"), "{reply}"),
                // Keywords are always present and valid here, so the only
                // organic error path is an isolated worker panic.
                "error" => assert!(reply.contains("worker panicked (isolated)"), "{reply}"),
                other => panic!("unexpected status {other:?}: {reply}"),
            }
            *by_status.entry(status).or_default() += 1;
        }
    }
    assert_eq!(
        total,
        (THREADS * PER_THREAD) as usize,
        "lost responses: {by_status:?}"
    );

    // Post-storm: the pool healed (both panicked workers respawned) and
    // nothing is stuck in the queue.
    let health = srv.rpc(r#"{"kind":"health","id":900}"#);
    assert!(health.contains("\"workers\":2"), "{health}");
    assert!(
        health.contains("\"queued\":0,\"in_flight\":0"),
        "work stuck after storm: {health}"
    );
    let stats = srv.rpc(r#"{"kind":"stats","id":901}"#);
    assert!(stats.contains("\"worker_panics\":2"), "{stats}");

    let (st, sum) = srv.shutdown_and_wait();
    assert!(st.success(), "server exited {st:?}");
    assert!(sum.contains("2 worker panic(s)"), "{sum}");
    assert!(sum.contains("0 in flight"), "{sum}");
}

#[test]
fn hot_reload_swaps_generations_under_concurrent_load() {
    let src = corpus("reload-src");
    let out = gen_corpus("reload");
    run_index(&src, &out);
    let srv = Server::start(&out, &[]);
    let health = srv.rpc(r#"{"kind":"health","id":1}"#);
    assert!(health.contains("\"generation\":1"), "{health}");

    // The next generation, with a changed document.
    std::fs::write(
        src.join("a.xml"),
        "<doc><title>xml search alpha two</title><p>ranked xml search regenerated</p></doc>",
    )
    .unwrap();
    run_index(&src, &out);

    // The ISSUE's acceptance bar: a reload landing in the middle of the
    // 6×5 concurrent soak drops zero in-flight requests.
    const THREADS: u64 = 6;
    const PER_THREAD: u64 = 5;
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let addr = srv.addr.clone();
        handles.push(std::thread::spawn(move || {
            let mut conn = Conn::open(&addr);
            let mut replies = Vec::new();
            for i in 0..PER_THREAD {
                let id = t * 100 + i;
                let req = format!(
                    r#"{{"kind":"query","id":{id},"keywords":["xml","search"],"top_k":2}}"#
                );
                replies.push((id, conn.rpc(&req)));
            }
            replies
        }));
    }
    std::thread::sleep(Duration::from_millis(30));
    let reload = srv.rpc(r#"{"kind":"reload","id":50}"#);
    assert_eq!(field_str(&reload, "status"), "ok", "{reload}");
    assert!(reload.contains("serving generation 2"), "{reload}");

    let mut total = 0usize;
    for h in handles {
        for (id, reply) in h.join().expect("client thread") {
            total += 1;
            assert!(reply.starts_with(&format!("{{\"id\":{id},")), "{reply}");
            assert_eq!(field_str(&reply, "status"), "ok", "{reply}");
            // Display names stay stable across generations.
            assert!(reply.contains("a.xfrg"), "{reply}");
        }
    }
    assert_eq!(total, (THREADS * PER_THREAD) as usize, "lost responses");

    let stats = srv.rpc(r#"{"kind":"stats","id":60}"#);
    assert!(stats.contains("\"generation\":2"), "{stats}");
    assert!(
        stats.contains("\"reloads\":{\"ok\":1,\"failed\":0}"),
        "{stats}"
    );
    // Post-reload queries answer from the new generation's content.
    let q = srv.rpc(r#"{"kind":"query","id":61,"keywords":["regenerated"]}"#);
    assert_eq!(field_str(&q, "status"), "ok", "{q}");
    assert!(q.contains("a.xfrg"), "{q}");

    let (st, sum) = srv.shutdown_and_wait();
    assert!(st.success(), "server exited {st:?}");
    assert!(sum.contains("0 in flight"), "{sum}");
}

/// Pull a numeric field's value out of a response line.
fn field_u64(hay: &str, name: &str) -> u64 {
    let pat = format!("\"{name}\":");
    let start = hay
        .find(&pat)
        .unwrap_or_else(|| panic!("no {name} in {hay}"))
        + pat.len();
    hay[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap()
}

/// Result-tier `(hits, misses)` from a `stats` reply's cache section.
fn result_tier(stats: &str) -> (u64, u64) {
    let c = &stats[stats
        .find("\"cache\":{")
        .expect("stats line has a cache section")..];
    let r = &c[c
        .find("\"result\":{")
        .expect("cache section has a result tier")..];
    (field_u64(r, "hits"), field_u64(r, "misses"))
}

/// The `"answers":[...]`-to-end tail of a query reply — the part that must
/// not change between a computed answer and a cache replay (the `stats`
/// field legitimately differs: that's where the hit counters live).
fn answers_of(reply: &str) -> &str {
    let start = reply.find("\"answers\":").expect("query reply has answers");
    let end = reply.find(",\"stats\":").unwrap_or(reply.len());
    &reply[start..end]
}

/// ISSUE 5 satellite: hot reload invalidates the query cache implicitly
/// (generation-keyed entries from the old snapshot are never served
/// again), under the same 6×5 concurrent soak as the reload test, and
/// the per-tier counters reconcile across the swap.
#[test]
fn hot_reload_invalidates_cache_under_concurrent_load() {
    let src = corpus("cache-reload-src");
    let out = gen_corpus("cache-reload");
    run_index(&src, &out);
    let srv = Server::start(&out, &["--cache-mb", "16"]);

    // Warm the result tier: the second identical request replays the
    // first's answer bytes and says so in its stats.
    let q_alpha = r#"{"kind":"query","id":7,"keywords":["alpha"]}"#;
    let cold = srv.rpc(q_alpha);
    assert_eq!(field_str(&cold, "status"), "ok", "{cold}");
    assert_eq!(field_u64(&cold, "cache_hits"), 0, "{cold}");
    let warm = srv.rpc(q_alpha);
    assert_eq!(
        answers_of(&warm),
        answers_of(&cold),
        "cache replay changed the answer"
    );
    assert!(field_u64(&warm, "cache_hits") >= 1, "{warm}");
    let stats = srv.rpc(r#"{"kind":"stats","id":8}"#);
    let (h0, m0) = result_tier(&stats);
    assert!(h0 >= 1 && m0 >= 1, "warm-up not visible in stats: {stats}");

    // Commit generation 2 with changed content for the cached query.
    std::fs::write(
        src.join("a.xml"),
        "<doc><title>alpha regenerated</title><p>ranked xml search regenerated</p></doc>",
    )
    .unwrap();
    run_index(&src, &out);

    // Reload lands in the middle of the 6×5 soak, every query of which
    // is cache-eligible and most of which are cache hits.
    const THREADS: u64 = 6;
    const PER_THREAD: u64 = 5;
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let addr = srv.addr.clone();
        handles.push(std::thread::spawn(move || {
            let mut conn = Conn::open(&addr);
            let mut replies = Vec::new();
            for i in 0..PER_THREAD {
                let id = t * 100 + i;
                let req = format!(
                    r#"{{"kind":"query","id":{id},"keywords":["xml","search"],"top_k":2}}"#
                );
                replies.push((id, conn.rpc(&req)));
            }
            replies
        }));
    }
    std::thread::sleep(Duration::from_millis(30));
    let reload = srv.rpc(r#"{"kind":"reload","id":50}"#);
    assert_eq!(field_str(&reload, "status"), "ok", "{reload}");
    assert!(reload.contains("serving generation 2"), "{reload}");

    let mut total = 0usize;
    for h in handles {
        for (id, reply) in h.join().expect("client thread") {
            total += 1;
            assert!(reply.starts_with(&format!("{{\"id\":{id},")), "{reply}");
            assert_eq!(field_str(&reply, "status"), "ok", "{reply}");
        }
    }
    assert_eq!(total, (THREADS * PER_THREAD) as usize, "lost responses");

    // The acceptance bar: the old generation's cached answer is never
    // served again. The first post-reload run of the warmed query must
    // be a clean miss that computes the *new* content...
    let stats = srv.rpc(r#"{"kind":"stats","id":51}"#);
    let (h1, m1) = result_tier(&stats);
    let post = srv.rpc(q_alpha);
    assert_eq!(field_str(&post, "status"), "ok", "{post}");
    assert_eq!(
        field_u64(&post, "cache_hits"),
        0,
        "stale hit after reload: {post}"
    );
    assert!(
        post.contains("regenerated"),
        "stale content after reload: {post}"
    );
    assert_ne!(
        answers_of(&post),
        answers_of(&cold),
        "old-generation answer served"
    );
    let stats = srv.rpc(r#"{"kind":"stats","id":52}"#);
    let (h2, m2) = result_tier(&stats);
    assert_eq!(h2, h1, "result-tier hits moved on a post-reload miss");
    assert!(m2 > m1, "post-reload probe not counted as a miss: {stats}");

    // ...and the new generation caches normally from then on.
    let post2 = srv.rpc(q_alpha);
    assert!(field_u64(&post2, "cache_hits") >= 1, "{post2}");
    assert_eq!(answers_of(&post2), answers_of(&post));
    let stats = srv.rpc(r#"{"kind":"stats","id":53}"#);
    let (h3, _) = result_tier(&stats);
    assert!(h3 > h2, "new-generation hit not counted: {stats}");
    assert!(field_u64(&stats, "insertions") >= 1, "{stats}");
    assert!(field_u64(&stats, "entries") >= 1, "{stats}");

    let (st, sum) = srv.shutdown_and_wait();
    assert!(st.success(), "server exited {st:?}");
    assert!(sum.contains("0 in flight"), "{sum}");
}

/// Commit a delta generation with the real `xfrag index --delta` binary.
fn run_delta(src: &Path, out: &Path) -> String {
    let o = Command::new(env!("CARGO_BIN_EXE_xfrag"))
        .args(["index", "--delta"])
        .arg(src)
        .arg(out)
        .output()
        .expect("run xfrag index --delta");
    assert!(
        o.status.success(),
        "delta index failed: {}",
        String::from_utf8_lossy(&o.stderr)
    );
    String::from_utf8_lossy(&o.stdout).into_owned()
}

/// ISSUE 6 satellite: a 1-document delta reload under the 6×5 soak
/// carries cache entries for the two untouched documents across the
/// generation bump. The warmed query's hit rate dips by exactly the
/// changed fraction (1 of 3 per-doc result entries evicted), not to
/// zero, and in-flight soak requests all finish on their snapshot.
#[test]
fn delta_reload_carries_cache_for_unchanged_documents() {
    let src = corpus("delta-reload-src");
    let out = gen_corpus("delta-reload");
    run_index(&src, &out);
    let srv = Server::start(&out, &["--cache-mb", "16"]);

    // Warm a measurement query the soak never issues: `xml` matches all
    // three documents, so its result tier holds one entry per doc.
    let q_xml = r#"{"kind":"query","id":7,"keywords":["xml"]}"#;
    let cold = srv.rpc(q_xml);
    assert_eq!(field_str(&cold, "status"), "ok", "{cold}");
    let warm = srv.rpc(q_xml);
    assert_eq!(answers_of(&warm), answers_of(&cold));
    assert!(field_u64(&warm, "cache_hits") >= 3, "{warm}");

    // A 1-document delta: only a.xml changes; b and c are carried.
    std::fs::write(
        src.join("a.xml"),
        "<doc><title>xml search alpha two</title><p>ranked xml search regenerated</p></doc>",
    )
    .unwrap();
    let msg = run_delta(&src, &out);
    assert!(
        msg.contains("committed delta generation 2 (parent 1): 2 carried, 1 rewritten"),
        "{msg}"
    );

    // Reload lands in the middle of the 6×5 concurrent soak.
    const THREADS: u64 = 6;
    const PER_THREAD: u64 = 5;
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let addr = srv.addr.clone();
        handles.push(std::thread::spawn(move || {
            let mut conn = Conn::open(&addr);
            let mut replies = Vec::new();
            for i in 0..PER_THREAD {
                let id = t * 100 + i;
                let req = format!(
                    r#"{{"kind":"query","id":{id},"keywords":["xml","search"],"top_k":2}}"#
                );
                replies.push((id, conn.rpc(&req)));
            }
            replies
        }));
    }
    std::thread::sleep(Duration::from_millis(30));
    let reload = srv.rpc(r#"{"kind":"reload","id":50}"#);
    assert_eq!(field_str(&reload, "status"), "ok", "{reload}");
    assert!(reload.contains("serving generation 2"), "{reload}");

    let mut total = 0usize;
    for h in handles {
        for (id, reply) in h.join().expect("client thread") {
            total += 1;
            // In-flight requests finish on whichever snapshot they
            // pinned — never dropped, never torn across generations.
            assert!(reply.starts_with(&format!("{{\"id\":{id},")), "{reply}");
            assert_eq!(field_str(&reply, "status"), "ok", "{reply}");
        }
    }
    assert_eq!(total, (THREADS * PER_THREAD) as usize, "lost responses");

    // Delta lineage is visible, and carry-over really moved entries.
    let stats = srv.rpc(r#"{"kind":"stats","id":51}"#);
    assert!(stats.contains("\"generation\":2"), "{stats}");
    assert!(
        stats.contains(
            "\"parent_chain\":[1],\"chain_depth\":1,\"docs_carried\":2,\"docs_rewritten\":1"
        ),
        "{stats}"
    );
    assert!(field_u64(&stats, "kept") >= 3, "nothing carried: {stats}");
    assert!(
        field_u64(&stats, "evicted") >= 1,
        "changed doc kept: {stats}"
    );

    // The dip bar: re-running the warmed query misses only the changed
    // document — exactly the changed fraction, not a cold start.
    let (h1, m1) = result_tier(&stats);
    let post = srv.rpc(q_xml);
    assert_eq!(field_str(&post, "status"), "ok", "{post}");
    // At least the two carried result entries hit (the per-request
    // counter aggregates all tiers, so soak-warmed postings for the
    // changed doc may add to it).
    assert!(
        field_u64(&post, "cache_hits") >= 2,
        "carried entries not hit: {post}"
    );
    assert!(post.contains("regenerated"), "stale content: {post}");
    let stats = srv.rpc(r#"{"kind":"stats","id":52}"#);
    let (h2, m2) = result_tier(&stats);
    assert_eq!(h2 - h1, 2, "hit rate dipped below 2/3: {stats}");
    assert_eq!(m2 - m1, 1, "more than the changed fraction missed: {stats}");

    // Carried hits splice in byte-identically: once the changed doc is
    // re-cached, a full-hit replay matches the mixed computed/carried
    // answer byte for byte.
    let post2 = srv.rpc(q_xml);
    assert!(field_u64(&post2, "cache_hits") >= 3, "{post2}");
    assert_eq!(answers_of(&post2), answers_of(&post));

    let (st, sum) = srv.shutdown_and_wait();
    assert!(st.success(), "server exited {st:?}");
    assert!(sum.contains("0 in flight"), "{sum}");
}

/// `--no-cache` keeps the cache section of `stats` null and serves every
/// request computed fresh — the escape hatch the runbook documents.
#[test]
fn no_cache_flag_disables_caching_entirely() {
    let dir = corpus("nocache");
    let srv = Server::start(&dir, &["--no-cache"]);
    let q = r#"{"kind":"query","id":1,"keywords":["xml","search"]}"#;
    let a = srv.rpc(q);
    let b = srv.rpc(q);
    assert_eq!(a, b, "uncached replies must be byte-identical");
    assert_eq!(field_u64(&a, "cache_hits"), 0, "{a}");
    assert_eq!(field_u64(&b, "cache_hits"), 0, "{b}");
    let stats = srv.rpc(r#"{"kind":"stats","id":2}"#);
    assert!(stats.contains("\"cache\":null"), "{stats}");
    let (st, _) = srv.shutdown_and_wait();
    assert!(st.success());
}

#[test]
fn corrupt_next_generation_never_replaces_the_serving_one() {
    let src = corpus("corrupt-src");
    let out = gen_corpus("corrupt");
    run_index(&src, &out);
    let srv = Server::start(&out, &[]);

    // Commit generation 2, then tear one of its data files.
    run_index(&src, &out);
    let victim = out.join("a.g000002.xfrg");
    let bytes = std::fs::read(&victim).unwrap();
    std::fs::write(&victim, &bytes[..bytes.len() / 2]).unwrap();

    let reload = srv.rpc(r#"{"kind":"reload","id":1}"#);
    assert_eq!(field_str(&reload, "status"), "error", "{reload}");
    assert!(reload.contains("reload failed"), "{reload}");
    assert!(reload.contains("generation 2 rejected"), "{reload}");

    // Still serving generation 1, and still answering.
    let stats = srv.rpc(r#"{"kind":"stats","id":2}"#);
    assert!(stats.contains("\"generation\":1"), "{stats}");
    assert!(
        stats.contains("\"reloads\":{\"ok\":0,\"failed\":1}"),
        "{stats}"
    );
    let q = srv.rpc(r#"{"kind":"query","id":3,"keywords":["xml","search"]}"#);
    assert_eq!(field_str(&q, "status"), "ok", "{q}");

    // Repairing the generation makes the same reload succeed.
    std::fs::write(&victim, &bytes).unwrap();
    let reload = srv.rpc(r#"{"kind":"reload","id":4}"#);
    assert_eq!(field_str(&reload, "status"), "ok", "{reload}");
    assert!(reload.contains("serving generation 2"), "{reload}");

    let (st, _) = srv.shutdown_and_wait();
    assert!(st.success());
}

#[test]
fn stats_surfaces_quarantine_detail_and_generation() {
    let dir = corpus("statsq");
    std::fs::write(dir.join("zz_broken.xml"), "<doc><unclosed>").unwrap();
    let srv = Server::start(&dir, &[]);

    let stats = srv.rpc(r#"{"kind":"stats","id":1}"#);
    // Legacy (unversioned) corpora serve as generation 0.
    assert!(stats.contains("\"generation\":0"), "{stats}");
    assert!(
        stats.contains("\"reloads\":{\"ok\":0,\"failed\":0}"),
        "{stats}"
    );
    // Quarantine entries carry the file name AND the reason.
    assert!(stats.contains("\"file\":\"zz_broken.xml\""), "{stats}");
    assert!(stats.contains("\"reason\":\""), "{stats}");

    let (st, sum) = srv.shutdown_and_wait();
    assert!(st.success());
    assert!(sum.contains("1 file(s) quarantined"), "{sum}");
}

#[test]
fn watch_mode_hot_reloads_without_a_reload_request() {
    let src = corpus("watch-src");
    let out = gen_corpus("watch");
    run_index(&src, &out);
    let srv = Server::start(&out, &["--watch-ms", "50"]);
    assert!(srv
        .rpc(r#"{"kind":"health","id":1}"#)
        .contains("\"generation\":1"));

    run_index(&src, &out);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = srv.rpc(r#"{"kind":"stats","id":2}"#);
        if stats.contains("\"generation\":2") {
            assert!(
                stats.contains("\"reloads\":{\"ok\":1,\"failed\":0}"),
                "{stats}"
            );
            break;
        }
        assert!(
            Instant::now() < deadline,
            "watcher never picked up generation 2: {stats}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    let (st, _) = srv.shutdown_and_wait();
    assert!(st.success());
}

/// Satellite (f): `xfrag request --retries` rides out a shed and
/// succeeds once the queue clears; exhausted retries exit 3.
#[test]
fn request_retries_shed_then_succeeds() {
    let dir = corpus("retry");
    // One worker stalled 600 ms with a single-slot queue: the first
    // attempt below is deterministically shed, later attempts land.
    let srv = Server::start(
        &dir,
        &[
            "--workers",
            "1",
            "--queue-depth",
            "1",
            "--inject",
            "serve:worker@0=delay:600",
        ],
    );
    let addr = srv.addr.clone();
    let occupy = std::thread::spawn({
        let a = addr.clone();
        move || Conn::open(&a).rpc(r#"{"kind":"query","id":1,"keywords":["xml"]}"#)
    });
    std::thread::sleep(Duration::from_millis(150));
    let queued = std::thread::spawn({
        let a = addr.clone();
        move || Conn::open(&a).rpc(r#"{"kind":"query","id":2,"keywords":["xml"]}"#)
    });
    std::thread::sleep(Duration::from_millis(150));

    let o = Command::new(env!("CARGO_BIN_EXE_xfrag"))
        .args([
            "request",
            &addr,
            r#"{"kind":"query","id":3,"keywords":["xml"]}"#,
            "--retries",
            "6",
            "--backoff-ms",
            "200",
        ])
        .output()
        .expect("run xfrag request");
    let stdout = String::from_utf8_lossy(&o.stdout);
    let stderr = String::from_utf8_lossy(&o.stderr);
    assert!(
        o.status.success(),
        "request exited {:?}: {stderr}",
        o.status
    );
    assert!(stdout.contains("\"status\":\"ok\""), "{stdout}");
    // It really was shed first: the retry log names the shed reply.
    assert!(stderr.contains("retry 1/6"), "{stderr}");
    assert!(stderr.contains("shed"), "{stderr}");

    occupy.join().unwrap();
    queued.join().unwrap();
    let (st, _) = srv.shutdown_and_wait();
    assert!(st.success());
}

#[test]
fn request_retry_exit_codes_distinguish_retryable_from_permanent() {
    // A port with no listener: connection refused is retryable, so with
    // retries armed the client exhausts them and exits 3.
    let dead = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let a = l.local_addr().unwrap().to_string();
        drop(l);
        a
    };
    let o = Command::new(env!("CARGO_BIN_EXE_xfrag"))
        .args([
            "request",
            &dead,
            r#"{"kind":"health","id":1}"#,
            "--retries",
            "2",
            "--backoff-ms",
            "10",
        ])
        .output()
        .unwrap();
    assert_eq!(o.status.code(), Some(3), "{o:?}");
    let stderr = String::from_utf8_lossy(&o.stderr);
    assert!(stderr.contains("retries exhausted"), "{stderr}");
    assert!(stderr.contains("3 attempt(s)"), "{stderr}");

    // Without --retries the same failure is permanent: exit 1, exactly
    // the pre-retry behavior scripts already rely on.
    let o = Command::new(env!("CARGO_BIN_EXE_xfrag"))
        .args(["request", &dead, r#"{"kind":"health","id":1}"#])
        .output()
        .unwrap();
    assert_eq!(o.status.code(), Some(1), "{o:?}");
}

/// Sum one counter across every `"plans"` object in a stats line. The
/// schema repeats the object at shard level (the sum of that shard's
/// replicas) and at replica level, so the grand total over all replicas
/// is half the raw sum.
fn plans_total(stats: &str, name: &str) -> u64 {
    let mut sum = 0;
    let mut rest = stats;
    while let Some(i) = rest.find("\"plans\":{") {
        let obj = &rest[i..];
        sum += field_u64(obj, name);
        rest = &obj["\"plans\":{".len()..];
    }
    sum / 2
}

/// ISSUE 10 satellite: the planner in the full serving topology. `auto`
/// is the wire default and byte-identical (answer payload) to every
/// forced strategy; per-shard `plans` counters account for auto picks,
/// forced requests and plan-cache traffic under the 6×5 concurrent
/// soak; and a hot reload's fresh generation invalidates memoized plans.
#[test]
fn planner_auto_default_under_sharded_soak() {
    let src = corpus("planner-src");
    let out = gen_corpus("planner");
    run_index(&src, &out);
    let srv = Server::start(
        &out,
        &["--shards", "2", "--replicas", "2", "--cache-mb", "16"],
    );

    // Omitting `strategy` means auto, and saying `"auto"` is the same
    // request.
    let auto = srv.rpc(r#"{"kind":"query","id":1,"keywords":["xml","search"]}"#);
    assert_eq!(field_str(&auto, "status"), "ok", "{auto}");
    let explicit =
        srv.rpc(r#"{"kind":"query","id":2,"keywords":["xml","search"],"strategy":"auto"}"#);
    assert_eq!(
        answers_of(&explicit),
        answers_of(&auto),
        "auto not the default"
    );

    // Byte-identity across the strategy matrix: whatever the planner
    // picked per document, the merged answer payload must equal every
    // forced strategy's.
    for s in ["brute", "naive", "reduced", "pushdown"] {
        let forced = srv.rpc(&format!(
            r#"{{"kind":"query","id":3,"keywords":["xml","search"],"strategy":"{s}"}}"#
        ));
        assert_eq!(field_str(&forced, "status"), "ok", "{forced}");
        assert_eq!(
            answers_of(&forced),
            answers_of(&auto),
            "forced {s} diverged from auto"
        );
    }

    // Pick accounting so far: 2 auto requests and 4 forced requests,
    // each evaluating 3 documents. Hedged sub-jobs can only add counts,
    // so the bounds are one-sided.
    let stats = srv.rpc(r#"{"kind":"stats","id":4}"#);
    let auto_picks = |stats: &str| {
        ["brute", "naive", "reduced", "push_down"]
            .iter()
            .map(|k| plans_total(stats, k))
            .sum::<u64>()
    };
    let picks0 = auto_picks(&stats);
    assert!(picks0 >= 6, "expected ≥ 6 auto picks: {stats}");
    assert!(
        plans_total(&stats, "forced") >= 12,
        "expected ≥ 12 forced picks: {stats}"
    );
    assert!(
        plans_total(&stats, "planned") >= 3,
        "every document should have been planned once: {stats}"
    );
    assert_eq!(
        plans_total(&stats, "replans"),
        0,
        "serve requests are budgeted; the guard must never arm: {stats}"
    );

    // The 6×5 soak on the default (auto) path: no responses lost, and
    // repeated queries start hitting the per-replica plan cache.
    const THREADS: u64 = 6;
    const PER_THREAD: u64 = 5;
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let addr = srv.addr.clone();
        handles.push(std::thread::spawn(move || {
            let mut conn = Conn::open(&addr);
            let mut replies = Vec::new();
            for i in 0..PER_THREAD {
                let id = t * 100 + i;
                let req = format!(
                    r#"{{"kind":"query","id":{id},"keywords":["xml","search"],"top_k":2}}"#
                );
                replies.push((id, conn.rpc(&req)));
            }
            replies
        }));
    }
    let mut total = 0usize;
    for h in handles {
        for (id, reply) in h.join().expect("client thread") {
            total += 1;
            assert!(reply.starts_with(&format!("{{\"id\":{id},")), "{reply}");
            assert_eq!(field_str(&reply, "status"), "ok", "{reply}");
        }
    }
    assert_eq!(total, (THREADS * PER_THREAD) as usize, "lost responses");

    let stats = srv.rpc(r#"{"kind":"stats","id":5}"#);
    assert!(
        auto_picks(&stats) > picks0,
        "soak picks not recorded: {stats}"
    );
    assert!(
        plans_total(&stats, "cached") >= 1,
        "30 identical requests never hit a plan cache: {stats}"
    );
    let inv0 = plans_total(&stats, "invalidations");

    // A hot reload mints a fresh generation; memoized plans must die
    // with the old one — the first post-reload plan on a serving
    // replica records an invalidation, and answers track new content.
    std::fs::write(
        src.join("a.xml"),
        "<doc><title>xml regenerated</title><p>planner search regenerated</p></doc>",
    )
    .unwrap();
    run_index(&src, &out);
    let reload = srv.rpc(r#"{"kind":"reload","id":90}"#);
    assert_eq!(field_str(&reload, "status"), "ok", "{reload}");
    assert!(reload.contains("serving generation 2"), "{reload}");

    let fresh = srv.rpc(r#"{"kind":"query","id":91,"keywords":["xml","search"]}"#);
    assert_eq!(field_str(&fresh, "status"), "ok", "{fresh}");
    assert!(
        fresh.contains("regenerated"),
        "stale content after reload: {fresh}"
    );
    let stats = srv.rpc(r#"{"kind":"stats","id":92}"#);
    assert!(
        plans_total(&stats, "invalidations") > inv0,
        "reload did not invalidate cached plans: {stats}"
    );

    let (st, sum) = srv.shutdown_and_wait();
    assert!(st.success(), "server exited {st:?}");
    assert!(sum.contains("0 in flight"), "{sum}");
}

/// Queries whose answers span every corpus document, for comparing two
/// servers answer for answer.
const PROBES: [&str; 5] = [
    r#"{"kind":"query","id":1,"keywords":["xml","search"]}"#,
    r#"{"kind":"query","id":2,"keywords":["xml"],"top_k":2}"#,
    r#"{"kind":"query","id":3,"keywords":["search"],"size":6}"#,
    r#"{"kind":"query","id":4,"keywords":["gamma"]}"#,
    r#"{"kind":"query","id":5,"keywords":["alpha","xml"]}"#,
];

/// A reload shares the documents a delta left untouched with the
/// previous generation instead of re-reading them. Through a chain of
/// one-document deltas on a sharded, replicated server, every answer
/// must still match a server freshly booted on the same generation.
#[test]
fn delta_reloads_sharing_unchanged_documents_match_a_fresh_boot() {
    let src = corpus("share-src");
    let out = gen_corpus("share");
    run_index(&src, &out);
    let flags = ["--shards", "2", "--replicas", "2"];
    let srv = Server::start(&out, &flags);
    let mut conn = srv.connect();
    for q in PROBES {
        assert_eq!(field_str(&conn.rpc(q), "status"), "ok");
    }

    let a0 = std::fs::read_to_string(src.join("a.xml")).unwrap();
    let edits = [
        (
            "a.xml",
            "<doc><title>xml search alpha two</title><p>xml gamma</p></doc>",
        ),
        (
            "c.xml",
            "<doc><p>gamma search</p><p>xml alpha gamma</p></doc>",
        ),
        ("b.xml", "<doc><sec><p>xml search beta</p></sec></doc>"),
        ("a.xml", &a0),
    ];
    for (step, (file, xml)) in edits.iter().enumerate() {
        let generation = step + 2;
        std::fs::write(src.join(file), xml).unwrap();
        let msg = run_delta(&src, &out);
        assert!(msg.contains("2 carried, 1 rewritten"), "{msg}");
        let reload = conn.rpc(r#"{"kind":"reload","id":50}"#);
        assert_eq!(field_str(&reload, "status"), "ok", "{reload}");
        assert!(
            reload.contains(&format!("serving generation {generation}")),
            "{reload}"
        );
        // The shared segments keep the postings earlier queries
        // materialized; a full reload would start from zero.
        let stats = conn.rpc(r#"{"kind":"stats","id":51}"#);
        assert!(
            field_u64(&stats, "terms_loaded") > 0,
            "nothing shared: {stats}"
        );

        let fresh = Server::start(&out, &flags);
        let mut fconn = fresh.connect();
        for q in PROBES {
            let got = conn.rpc(q);
            let want = fconn.rpc(q);
            assert_eq!(field_str(&got, "status"), "ok", "{got}");
            assert_eq!(
                answers_of(&got),
                answers_of(&want),
                "generation {generation}: {q}"
            );
        }
        drop(fconn);
        let (st, _) = fresh.shutdown_and_wait();
        assert!(st.success());
    }

    drop(conn);
    let (st, sum) = srv.shutdown_and_wait();
    assert!(st.success(), "server exited {st:?}");
    assert!(sum.contains("0 in flight"), "{sum}");
}

/// Reuse never skips verification: a flipped byte in the file of a
/// document the next generation would share still fails the reload, and
/// the server keeps answering from the generation it was serving.
#[test]
fn reload_verifies_the_files_of_shared_documents() {
    let src = corpus("share-verify-src");
    let out = gen_corpus("share-verify");
    run_index(&src, &out);
    let srv = Server::start(&out, &[]);
    let q = r#"{"kind":"query","id":1,"keywords":["xml","search"]}"#;
    let before = srv.rpc(q);
    assert_eq!(field_str(&before, "status"), "ok", "{before}");

    // A one-document delta of a.xml carries b.xml's file over; then a
    // byte of that carried file flips. (`index --delta` verifies its
    // parent generation, so the flip has to come after the commit.)
    std::fs::write(
        src.join("a.xml"),
        "<doc><title>xml search alpha two</title><p>ranked xml search regenerated</p></doc>",
    )
    .unwrap();
    let msg = run_delta(&src, &out);
    assert!(msg.contains("2 carried, 1 rewritten"), "{msg}");
    let victim = out.join("b.g000001.xfrg");
    let bytes = std::fs::read(&victim).unwrap();
    let mut flipped = bytes.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0xff;
    std::fs::write(&victim, &flipped).unwrap();

    let reload = srv.rpc(r#"{"kind":"reload","id":2}"#);
    assert_eq!(field_str(&reload, "status"), "error", "{reload}");
    assert!(reload.contains("reload failed"), "{reload}");
    assert!(reload.contains("b.g000001.xfrg"), "{reload}");
    let stats = srv.rpc(r#"{"kind":"stats","id":3}"#);
    assert!(stats.contains("\"generation\":1"), "{stats}");
    assert!(
        stats.contains("\"reloads\":{\"ok\":0,\"failed\":1}"),
        "{stats}"
    );
    let after = srv.rpc(q);
    assert_eq!(field_str(&after, "status"), "ok", "{after}");
    assert_eq!(
        answers_of(&after),
        answers_of(&before),
        "old generation changed"
    );
    assert!(
        !after.contains("regenerated"),
        "new generation leaked: {after}"
    );

    // Restoring the byte lets the same reload through.
    std::fs::write(&victim, &bytes).unwrap();
    let reload = srv.rpc(r#"{"kind":"reload","id":4}"#);
    assert_eq!(field_str(&reload, "status"), "ok", "{reload}");
    assert!(reload.contains("serving generation 2"), "{reload}");
    assert!(srv.rpc(q).contains("regenerated"));

    let (st, _) = srv.shutdown_and_wait();
    assert!(st.success());
}
