//! Client side of the `xfrag serve` protocol: newline-delimited JSON
//! over one TCP connection, reply parsing, and the `stats` counters the
//! benchmark reads.

use std::collections::hash_map::{Entry, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use serde::JsonValue;

/// How long a client waits for any one reply before the run fails.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// Any JSON value, decoded with the workspace's serde stand-in.
struct Json(JsonValue);

impl<'de> serde::Deserialize<'de> for Json {
    fn deserialize<D: serde::de::Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        d.take_value().map(Json)
    }
}

pub fn parse_json(line: &str) -> Result<JsonValue, String> {
    serde_json::from_str::<Json>(line)
        .map(|j| j.0)
        .map_err(|e| format!("unparseable reply ({e}): {line}"))
}

/// The value at `path` of nested object keys.
pub fn at<'a>(v: &'a JsonValue, path: &[&str]) -> Option<&'a JsonValue> {
    path.iter().try_fold(v, |v, key| match v {
        JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    })
}

/// The number at `path`, or 0 when absent or not a number.
pub fn num(v: &JsonValue, path: &[&str]) -> f64 {
    match at(v, path) {
        Some(JsonValue::UInt(u)) => *u as f64,
        Some(JsonValue::Int(i)) => *i as f64,
        Some(JsonValue::Float(f)) => *f,
        _ => 0.0,
    }
}

fn str_at<'a>(v: &'a JsonValue, path: &[&str]) -> Option<&'a str> {
    match at(v, path) {
        Some(JsonValue::Str(s)) => Some(s),
        _ => None,
    }
}

fn items<'a>(v: &'a JsonValue, path: &[&str]) -> &'a [JsonValue] {
    match at(v, path) {
        Some(JsonValue::Array(a)) => a,
        _ => &[],
    }
}

/// One persistent connection to the server.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    /// Connect with Nagle off on the client side, so every delay the
    /// benchmark sees in a reply comes from the server's socket.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, REPLY_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Send one request line in a single write.
    pub fn send(&mut self, line: &str) -> std::io::Result<()> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.writer.write_all(&buf)
    }

    /// Read one reply line (without the newline).
    pub fn recv(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        line.truncate(line.trim_end_matches(['\r', '\n']).len());
        Ok(line)
    }

    pub fn call(&mut self, line: &str) -> std::io::Result<String> {
        self.send(line)?;
        self.recv()
    }

    /// A second handle on the same socket, for a sender thread while
    /// this one keeps reading.
    pub fn try_clone(&self) -> std::io::Result<Conn> {
        let stream = self.writer.try_clone()?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }
}

/// One ranked answer as the oracle compares it: document and node ids.
pub type Hit = (String, Vec<u32>);

/// The parts of a query reply the benchmark checks.
#[derive(Debug, Clone, PartialEq)]
struct Reply {
    status: String,
    complete: bool,
    answers: Vec<Hit>,
}

impl Reply {
    /// Whether the server answered in full.
    fn is_ok(&self) -> bool {
        self.status == "ok" && self.complete
    }
}

fn parse_reply(line: &str) -> Result<Reply, String> {
    let v = parse_json(line)?;
    let status = str_at(&v, &["status"]).ok_or_else(|| format!("reply without status: {line}"))?;
    let complete = !matches!(at(&v, &["complete"]), Some(JsonValue::Bool(false)));
    let mut answers = Vec::new();
    for a in items(&v, &["answers"]) {
        let doc = str_at(a, &["doc"]).ok_or_else(|| format!("answer without doc: {line}"))?;
        let nodes = items(a, &["nodes"])
            .iter()
            .map(|n| match n {
                JsonValue::UInt(u) => u32::try_from(*u).map_err(|_| format!("bad node id: {line}")),
                _ => Err(format!("bad node id: {line}")),
            })
            .collect::<Result<Vec<u32>, String>>()?;
        answers.push((doc.to_string(), nodes));
    }
    Ok(Reply {
        status: status.to_string(),
        complete,
        answers,
    })
}

/// The `"answers":[…]` bytes of a reply line, scores and snippets
/// included: a request repeated on an unchanged corpus must reproduce
/// them. The protocol fixes the field order (status, answers, note),
/// and JSON escapes every quote inside a string, so the delimiters
/// cannot occur inside an answer.
fn answers_span(line: &str) -> Option<&str> {
    match (line.find("\"answers\":"), line.find(",\"note\":")) {
        (Some(a), Some(b)) if a < b => Some(&line[a..b]),
        _ => None,
    }
}

/// FNV-1a over `bytes`.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// What a load loop keeps of one reply: whether it was a full `ok`, and
/// a hash of its answer bytes. Each distinct answer body is parsed once,
/// into `bodies`, so the loop stays cheap however many replies repeat.
pub fn digest(line: &str, bodies: &mut HashMap<u64, Vec<Hit>>) -> Result<(bool, u64), String> {
    let span = answers_span(line).ok_or_else(|| format!("reply without answers: {line}"))?;
    let body = fnv64(span.as_bytes());
    let ok = match bodies.entry(body) {
        Entry::Occupied(_) => {
            line.contains("\"status\":\"ok\",") && !line.contains(",\"complete\":false,")
        }
        Entry::Vacant(slot) => {
            let r = parse_reply(line)?;
            let ok = r.is_ok();
            slot.insert(r.answers);
            ok
        }
    };
    Ok((ok, body))
}

/// Counters from one `stats` reply, summed across shards and replicas.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServerStats {
    pub queries: f64,
    pub latency_total_ns: f64,
    pub result_hits: f64,
    pub result_misses: f64,
    pub fixpoint_hits: f64,
    pub fixpoint_misses: f64,
    pub postings_hits: f64,
    pub postings_misses: f64,
    pub evictions: f64,
    pub cache_bytes: f64,
    pub carry_kept: f64,
    pub carry_rekeyed: f64,
    pub carry_evicted: f64,
    pub plans_cached: f64,
    pub plans_planned: f64,
    pub replans: f64,
    pub hedges: f64,
    pub hedge_wins: f64,
    pub breaker_opens: f64,
}

impl ServerStats {
    pub fn parse(line: &str) -> Result<ServerStats, String> {
        let v = parse_json(line)?;
        if str_at(&v, &["status"]) != Some("ok") {
            return Err(format!("stats request failed: {line}"));
        }
        let mut s = ServerStats {
            queries: num(&v, &["latency", "count"]),
            latency_total_ns: num(&v, &["latency", "total_ns"]),
            result_hits: num(&v, &["cache", "result", "hits"]),
            result_misses: num(&v, &["cache", "result", "misses"]),
            fixpoint_hits: num(&v, &["cache", "fixpoint", "hits"]),
            fixpoint_misses: num(&v, &["cache", "fixpoint", "misses"]),
            postings_hits: num(&v, &["cache", "postings", "hits"]),
            postings_misses: num(&v, &["cache", "postings", "misses"]),
            evictions: num(&v, &["cache", "evictions"]),
            cache_bytes: num(&v, &["cache", "bytes"]),
            carry_kept: num(&v, &["delta", "carry_over", "kept"]),
            carry_rekeyed: num(&v, &["delta", "carry_over", "rekeyed"]),
            carry_evicted: num(&v, &["delta", "carry_over", "evicted"]),
            ..ServerStats::default()
        };
        for shard in items(&v, &["shards"]) {
            s.plans_cached += num(shard, &["plans", "cached"]);
            s.plans_planned += num(shard, &["plans", "planned"]);
            s.replans += num(shard, &["plans", "replans"]);
            for rep in items(shard, &["replicas"]) {
                s.hedges += num(rep, &["hedges"]);
                s.hedge_wins += num(rep, &["wins"]);
                s.breaker_opens += num(rep, &["opens"]);
            }
        }
        Ok(s)
    }

    /// Counters accumulated since `earlier` (levels such as cache bytes
    /// keep their current value).
    pub fn since(&self, earlier: &ServerStats) -> ServerStats {
        ServerStats {
            queries: self.queries - earlier.queries,
            latency_total_ns: self.latency_total_ns - earlier.latency_total_ns,
            result_hits: self.result_hits - earlier.result_hits,
            result_misses: self.result_misses - earlier.result_misses,
            fixpoint_hits: self.fixpoint_hits - earlier.fixpoint_hits,
            fixpoint_misses: self.fixpoint_misses - earlier.fixpoint_misses,
            postings_hits: self.postings_hits - earlier.postings_hits,
            postings_misses: self.postings_misses - earlier.postings_misses,
            evictions: self.evictions - earlier.evictions,
            cache_bytes: self.cache_bytes,
            carry_kept: self.carry_kept - earlier.carry_kept,
            carry_rekeyed: self.carry_rekeyed - earlier.carry_rekeyed,
            carry_evicted: self.carry_evicted - earlier.carry_evicted,
            plans_cached: self.plans_cached - earlier.plans_cached,
            plans_planned: self.plans_planned - earlier.plans_planned,
            replans: self.replans - earlier.replans,
            hedges: self.hedges - earlier.hedges,
            hedge_wins: self.hedge_wins - earlier.hedge_wins,
            breaker_opens: self.breaker_opens - earlier.breaker_opens,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OK: &str = r#"{"id":3,"status":"ok","answers":[{"doc":"doc01.xfrg","score":1.25,"nodes":[4,5,9],"snippet":"a <<b>> c"},{"doc":"doc07.xfrg","score":0.5,"nodes":[12],"snippet":"x"}],"note":null,"error":null,"stats":{"joins":3},"complete":true,"shards":null}"#;

    #[test]
    fn query_reply_parses_hits_and_answer_bytes() {
        let r = parse_reply(OK).unwrap();
        assert!(r.is_ok());
        assert_eq!(
            r.answers,
            vec![
                ("doc01.xfrg".to_string(), vec![4, 5, 9]),
                ("doc07.xfrg".to_string(), vec![12]),
            ]
        );
        let bytes = answers_span(OK).unwrap();
        assert!(bytes.starts_with("\"answers\":[{\"doc\":\"doc01.xfrg\""));
        assert!(bytes.ends_with("\"snippet\":\"x\"}]"));
    }

    #[test]
    fn digest_parses_each_body_once_and_flags_failures() {
        let mut bodies = HashMap::new();
        let (ok, body) = digest(OK, &mut bodies).unwrap();
        assert!(ok);
        assert_eq!(bodies[&body], parse_reply(OK).unwrap().answers);
        let again = OK.replace("\"id\":3", "\"id\":4");
        assert_eq!(digest(&again, &mut bodies).unwrap(), (true, body));
        let partial = OK.replace("\"complete\":true", "\"complete\":false");
        assert_eq!(digest(&partial, &mut bodies).unwrap(), (false, body));
        let other = OK.replace("[12]", "[13]");
        let (_, other_body) = digest(&other, &mut bodies).unwrap();
        assert_ne!(other_body, body);
        assert_eq!(bodies.len(), 2);
        assert!(digest("{\"id\":1,\"status\":\"ok\"}", &mut bodies).is_err());
    }

    #[test]
    fn partial_or_failed_replies_are_not_ok() {
        let partial = OK.replace("\"complete\":true", "\"complete\":false");
        assert!(!parse_reply(&partial).unwrap().is_ok());
        let shed = r#"{"id":1,"status":"shed","answers":[],"note":"queue full","error":null,"stats":null,"complete":true,"shards":null}"#;
        let r = parse_reply(shed).unwrap();
        assert!(!r.is_ok());
        assert!(r.answers.is_empty());
        assert!(parse_reply("not json").is_err());
        assert!(parse_reply(r#"{"id":1,"answers":[]}"#).is_err());
    }

    #[test]
    fn stats_reply_sums_shards_and_replicas() {
        let line = r#"{"id":1,"status":"ok","generation":2,"latency":{"count":10,"total_ns":5000000,"max_ns":1,"buckets":[]},"cache":{"postings":{"hits":1,"misses":2},"fixpoint":{"hits":3,"misses":4},"result":{"hits":5,"misses":6},"evictions":7,"insertions":0,"bytes":1048576,"entries":0,"shards":[]},"delta":{"parent_chain":[1],"chain_depth":1,"docs_carried":11,"docs_rewritten":1,"carry_over":{"kept":8,"rekeyed":0,"evicted":2}},"index":{"segments":12,"bytes":9,"terms_loaded":40},"shards":[{"shard":0,"plans":{"cached":3,"planned":1,"replans":0},"replicas":[{"replica":0,"hedges":1,"wins":1,"opens":0},{"replica":1,"hedges":2,"wins":0,"opens":1}]},{"shard":1,"plans":{"cached":2,"planned":2,"replans":1},"replicas":[{"replica":0,"hedges":0,"wins":0,"opens":0}]}]}"#;
        let s = ServerStats::parse(line).unwrap();
        assert_eq!(s.queries, 10.0);
        assert_eq!(s.latency_total_ns, 5e6);
        assert_eq!((s.result_hits, s.result_misses), (5.0, 6.0));
        assert_eq!(
            (s.plans_cached, s.plans_planned, s.replans),
            (5.0, 3.0, 1.0)
        );
        assert_eq!((s.hedges, s.hedge_wins, s.breaker_opens), (3.0, 1.0, 1.0));
        assert_eq!((s.carry_kept, s.carry_evicted), (8.0, 2.0));
        let d = s.since(&ServerStats {
            queries: 4.0,
            result_hits: 1.0,
            ..ServerStats::default()
        });
        assert_eq!(
            (d.queries, d.result_hits, d.cache_bytes),
            (6.0, 4.0, 1048576.0)
        );
        let no_cache = line.replace(
            &line[line.find("\"cache\":").unwrap()..line.find(",\"delta\"").unwrap()],
            "\"cache\":null",
        );
        assert_eq!(ServerStats::parse(&no_cache).unwrap().result_hits, 0.0);
    }
}
