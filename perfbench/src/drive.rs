//! Driving one server over real sockets: warm-up, closed loops on persistent
//! connections or an open loop with a writer beside it, commit and
//! reload probes, and the `stats` scrapes around the timed window.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::corpus::Corpus;
use crate::server::{self, Server};
use crate::wire::{digest, Conn, Hit, ServerStats};
use crate::workload::{self, Stream, Workload};

/// Rewrite → commit → reload cycles after the timed window of the
/// closed-loop workloads. Even, so the corpus ends as it began.
const PROBES: usize = 24;

/// A timed window may run this many times `--seconds` to reach its
/// sample floor; short of that the run fails.
const STRETCH: u32 = 4;

/// One timed request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Index into the stream's `specs`.
    pub spec: usize,
    /// When the request was written to the socket.
    pub sent: Instant,
    /// When its reply had been read.
    pub done: Instant,
    /// Client-observed latency: from the send (closed loop) or from the
    /// due time (open loop) to the reply.
    pub latency_ms: f64,
    /// How late the open-loop generator sent it; 0 in a closed loop.
    pub late_ms: f64,
    pub ok: bool,
    /// Hash of the reply's answer bytes (see [`digest`]).
    pub body: u64,
}

/// Everything one timed window produced.
#[derive(Debug, Default)]
pub struct Window {
    pub samples: Vec<Sample>,
    /// Parsed answers per answer-body hash.
    pub bodies: HashMap<u64, Vec<Hit>>,
    pub elapsed: Duration,
}

impl Window {
    fn absorb(&mut self, other: Window) {
        self.samples.extend(other.samples);
        self.bodies.extend(other.bodies);
    }

    /// Time from `start` to the last reply.
    fn close(mut self, start: Instant) -> Self {
        self.elapsed = self
            .samples
            .iter()
            .map(|s| s.done)
            .max()
            .map_or(Duration::ZERO, |d| d - start);
        self
    }

    /// Samples in send order.
    pub fn in_send_order(&self) -> Vec<Sample> {
        let mut s = self.samples.clone();
        s.sort_by_key(|x| x.sent);
        s
    }
}

/// When a timed window ends: after `seconds`, once it holds at least
/// `floor` requests, and in any case after `STRETCH × seconds`.
#[derive(Debug, Clone, Copy)]
struct Schedule {
    start: Instant,
    seconds: Duration,
    floor: usize,
}

impl Schedule {
    /// A window starting now.
    fn new(seconds: u64, floor: usize) -> Self {
        Schedule {
            start: Instant::now(),
            seconds: Duration::from_secs(seconds),
            floor,
        }
    }

    fn over(&self, at: Instant, count: usize) -> bool {
        let el = at.saturating_duration_since(self.start);
        (el >= self.seconds && count >= self.floor) || el >= self.seconds * STRETCH
    }
}

fn io(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Send each of `specs` once on `conn` and digest the replies; returns
/// `(spec, ok, body)` per request.
fn one_each(
    conn: &mut Conn,
    stream: &Stream,
    specs: &[usize],
    first_id: u64,
    timeout_ms: Option<u64>,
    bodies: &mut HashMap<u64, Vec<Hit>>,
) -> Result<Replies, String> {
    specs
        .iter()
        .enumerate()
        .map(|(k, &spec)| {
            let line = stream.specs[spec].line(first_id + k as u64, timeout_ms);
            let reply = conn.call(&line).map_err(io("untimed request"))?;
            let (ok, body) = digest(&reply, bodies)?;
            Ok((spec, ok, body))
        })
        .collect()
}

/// `conns` closed-loop clients, each sending its next request as soon
/// as the previous reply arrives, sharing one request sequence.
fn closed_loop(
    addr: SocketAddr,
    stream: &Stream,
    conns: usize,
    timeout_ms: Option<u64>,
    span: Schedule,
) -> Result<Window, String> {
    let next = AtomicUsize::new(0);
    let finished = AtomicUsize::new(0);
    let client = || -> Result<Window, String> {
        let mut conn = Conn::connect(addr).map_err(io("connect"))?;
        let mut w = Window::default();
        loop {
            if span.over(Instant::now(), finished.load(Ordering::SeqCst)) {
                break;
            }
            let k = next.fetch_add(1, Ordering::SeqCst);
            let Some(spec) = stream.request(k) else { break };
            let line = stream.specs[spec].line(k as u64 + 1, timeout_ms);
            let sent = Instant::now();
            conn.send(&line).map_err(io("send"))?;
            let reply = conn.recv().map_err(io("reply"))?;
            let done = Instant::now();
            let (ok, body) = digest(&reply, &mut w.bodies)?;
            w.samples.push(Sample {
                spec,
                sent,
                done,
                latency_ms: ms(done - sent),
                late_ms: 0.0,
                ok,
                body,
            });
            finished.fetch_add(1, Ordering::SeqCst);
        }
        Ok(w)
    };
    let mut w = Window::default();
    let results: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns).map(|_| s.spawn(client)).collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    for r in results {
        w.absorb(r?);
    }
    Ok(w.close(span.start))
}

/// Sets a flag when dropped, on every exit path of its owner.
struct Raise<'a>(&'a AtomicBool);

impl Drop for Raise<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// An open loop: requests go out on one connection at `rate` per second
/// regardless of replies (pipelined), and each is timed from its due
/// time. Beside it, `writer` runs every `period` on its own thread until
/// the stream ends; its results are returned in order.
fn open_loop<C: Send>(
    addr: SocketAddr,
    stream: &Stream,
    rate: f64,
    timeout_ms: Option<u64>,
    span: Schedule,
    period: Duration,
    writer: impl FnMut() -> Result<C, String> + Send,
) -> Result<(Window, Vec<C>), String> {
    let mut conn = Conn::connect(addr).map_err(io("connect"))?;
    let mut send_conn = conn.try_clone().map_err(io("clone socket"))?;
    let stop = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel::<(usize, Instant, Instant)>();
    std::thread::scope(|s| {
        let sender = s.spawn(|| -> Result<(), String> {
            let tx = tx; // owned, so the reader sees the end of the stream
            let _done = Raise(&stop);
            for k in 0.. {
                let due = span.start + Duration::from_secs_f64(k as f64 / rate);
                if span.over(due, k) {
                    break;
                }
                let Some(spec) = stream.request(k) else { break };
                let line = stream.specs[spec].line(k as u64 + 1, timeout_ms);
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                let sent = Instant::now();
                send_conn.send(&line).map_err(io("send"))?;
                if tx.send((spec, due, sent)).is_err() {
                    break; // the reader gave up
                }
            }
            Ok(())
        });
        let cycles = s.spawn(|| -> Result<Vec<C>, String> {
            let mut writer = writer;
            let mut out = Vec::new();
            let mut next = span.start + period / 2;
            while !stop.load(Ordering::SeqCst) {
                if Instant::now() < next {
                    std::thread::sleep(Duration::from_millis(10));
                    continue;
                }
                out.push(writer()?);
                next += period;
            }
            Ok(out)
        });
        let mut w = Window::default();
        let read = (|| -> Result<(), String> {
            for (spec, due, sent) in rx {
                let reply = conn.recv().map_err(io("reply"))?;
                let done = Instant::now();
                let (ok, body) = digest(&reply, &mut w.bodies)?;
                w.samples.push(Sample {
                    spec,
                    sent,
                    done,
                    latency_ms: ms(done - due),
                    late_ms: ms(sent - due),
                    ok,
                    body,
                });
            }
            Ok(())
        })();
        // Whatever happened, stop the sender (its channel is gone) and
        // the writer before joining them.
        stop.store(true, Ordering::SeqCst);
        let sent = sender
            .join()
            .unwrap_or_else(|_| Err("sender thread panicked".into()));
        let cycles = cycles
            .join()
            .unwrap_or_else(|_| Err("writer thread panicked".into()));
        read?;
        sent?;
        Ok((w.close(span.start), cycles?))
    })
}

/// One writer cycle: what the commit and the reload took, and when the
/// reload was in progress.
#[derive(Debug, Clone, Copy)]
pub struct Cycle {
    pub commit_ms: f64,
    pub reload_ms: f64,
    pub reload_sent: Instant,
    pub reload_acked: Instant,
    /// Corpus state served once the reload is acknowledged.
    pub state: usize,
}

/// Swaps the churn document between its two versions (corpus states 0
/// and 1): rewrites its source, commits a delta with `xfrag index
/// --delta`, and sends `reload` over its own connection, opened on the
/// first cycle.
pub struct Writer<'a> {
    bin: &'a Path,
    corpus: Corpus,
    src: &'a Path,
    dir: &'a Path,
    addr: SocketAddr,
    conn: Option<Conn>,
    /// The corpus state committed and served so far.
    pub state: usize,
}

impl<'a> Writer<'a> {
    pub fn new(
        bin: &'a Path,
        corpus: Corpus,
        src: &'a Path,
        dir: &'a Path,
        addr: SocketAddr,
    ) -> Self {
        Writer {
            bin,
            corpus,
            src,
            dir,
            addr,
            conn: None,
            state: 0,
        }
    }

    pub fn cycle(&mut self) -> Result<Cycle, String> {
        let state = 1 - self.state;
        let doc = self.corpus.churn_doc();
        std::fs::write(
            self.src.join(Corpus::file_name(doc)),
            self.corpus.xml(doc, state as u64),
        )
        .map_err(|e| format!("rewriting source: {e}"))?;
        let commit = server::index(self.bin, self.src, self.dir, true)?;
        if self.conn.is_none() {
            self.conn = Some(Conn::connect(self.addr).map_err(io("connect"))?);
        }
        let conn = self.conn.as_mut().expect("connected above");
        let reload_sent = Instant::now();
        let reply = conn
            .call(r#"{"kind":"reload","id":0}"#)
            .map_err(io("reload"))?;
        let reload_acked = Instant::now();
        if !reply.contains("\"status\":\"ok\"") {
            return Err(format!("reload failed: {reply}"));
        }
        self.state = state;
        Ok(Cycle {
            commit_ms: ms(commit),
            reload_ms: ms(reload_acked - reload_sent),
            reload_sent,
            reload_acked,
            state,
        })
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Untimed requests: `(spec, ok, answer-body hash)` each.
pub type Replies = Vec<(usize, bool, u64)>;

/// What driving one server produced.
pub struct Served {
    pub warm: Replies,
    pub window: Window,
    pub cycles: Vec<Cycle>,
    pub verified: Replies,
    pub bodies: HashMap<u64, Vec<Hit>>,
    /// `stats` before and after the timed window, and at the end.
    pub before: ServerStats,
    pub after: ServerStats,
    pub last: ServerStats,
    /// Server peak RSS once the workload's traffic is done (before the
    /// closed loops' probes), and before shutdown.
    pub rss_mb: f64,
    pub rss_end_mb: f64,
    pub final_state: usize,
    pub drain: String,
}

/// Warm the server up, run the timed window between two `stats`
/// scrapes, measure commit and reload, and shut the server down.
pub fn measure(
    w: Workload,
    seconds: u64,
    server: Server,
    mut writer: Writer,
    stream: &Stream,
    floor: usize,
) -> Result<Served, String> {
    let timeout = w.timeout_ms();
    let addr = server.addr;
    // Untimed requests go over a control connection, closed while the
    // load runs so only the workload's own connections are open then.
    let control = || Conn::connect(addr).map_err(|e| format!("connect: {e}"));
    let scrape = |c: &mut Conn| -> Result<ServerStats, String> {
        let line = c
            .call(r#"{"kind":"stats","id":0}"#)
            .map_err(|e| format!("stats: {e}"))?;
        ServerStats::parse(&line)
    };
    let mut bodies = HashMap::new();
    let mut ctl = control()?;
    let warm = one_each(
        &mut ctl,
        stream,
        &stream.warmup,
        1_000_000,
        timeout,
        &mut bodies,
    )?;
    let before = scrape(&mut ctl)?;
    drop(ctl);

    let span = Schedule::new(seconds, floor);
    let (window, mut cycles) = match w.connections() {
        Some(n) => (closed_loop(addr, stream, n, timeout, span)?, Vec::new()),
        None => open_loop(
            addr,
            stream,
            workload::CHURN_RATE,
            timeout,
            span,
            workload::CHURN_PERIOD,
            || writer.cycle(),
        )?,
    };
    let mut ctl = control()?;
    let after = scrape(&mut ctl)?;
    if window.samples.len() < floor {
        return Err(format!(
            "only {} timed requests in {:.1} s; at least {floor} are needed",
            window.samples.len(),
            window.elapsed.as_secs_f64(),
        ));
    }
    bodies.extend(window.bodies.iter().map(|(k, v)| (*k, v.clone())));
    // After churn, ask every query of the pool once more, now that the
    // corpus is still: the final generation must answer like the oracle.
    let final_state = writer.state;
    let again: &[usize] = match w {
        Workload::ReloadChurn => &stream.warmup,
        _ => &[],
    };
    let verified = one_each(&mut ctl, stream, again, 2_000_000, timeout, &mut bodies)?;
    // The workload's own peak, taken before the closed loops' probes,
    // which reload far more often than their traffic does.
    let rss_mb = server.peak_rss_mb()?;
    // The closed loops measure commit and reload after their traffic;
    // `PROBES` is even, so they end in `final_state` again.
    if w.connections().is_some() {
        for _ in 0..PROBES {
            cycles.push(writer.cycle()?);
        }
    }
    drop(writer);
    let last = scrape(&mut ctl)?;
    let rss_end_mb = server.peak_rss_mb()?;
    drop(ctl);
    let drain = server.shutdown()?;
    Ok(Served {
        warm,
        window,
        cycles,
        verified,
        bodies,
        before,
        after,
        last,
        rss_mb,
        rss_end_mb,
        final_state,
        drain,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_ends_after_seconds_and_floor_or_at_the_stretch() {
        let span = Schedule::new(2, 200);
        let at = |s: f64| span.start + Duration::from_secs_f64(s);
        assert!(!span.over(at(1.0), 2_000));
        assert!(!span.over(at(2.5), 199));
        assert!(span.over(at(2.5), 200));
        assert!(span.over(at(8.0), 0));
    }
}
