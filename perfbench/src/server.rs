//! The shipped `xfrag` binary: building it from this tree, committing
//! corpora with `xfrag index`, and running `xfrag serve` under a guard
//! that always shuts it down, drains it and reaps it.

use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant, SystemTime};

use crate::wire::{self, Conn};

/// Directories whose sources go into the `xfrag` binary.
const BINARY_SOURCES: [&str; 8] = [
    "crates/cli",
    "crates/core",
    "crates/doc",
    "crates/corpus",
    "crates/shims/serde",
    "crates/shims/serde_derive",
    "crates/shims/serde_json",
    "crates/shims/rand",
];

/// How long a shut-down server may take to drain before it is killed.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);

/// Build `xfrag` from the tree at `root` with Cargo and return its path.
/// The CLI is its own workspace member, so it is named explicitly.
pub fn build_xfrag(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let out = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "xfrag-cli",
            "--message-format=json",
        ])
        .current_dir(root)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !out.status.success() {
        return Err(format!("cargo build of xfrag-cli failed ({})", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let bin = executable_from_messages(&stdout).ok_or("cargo reported no `xfrag` executable")?;
    check_fresh(&bin, root)?;
    Ok(bin)
}

/// The `xfrag` executable named in Cargo's JSON build messages.
fn executable_from_messages(messages: &str) -> Option<PathBuf> {
    messages.lines().find_map(|line| {
        let v = wire::parse_json(line).ok()?;
        let is_xfrag = matches!(wire::at(&v, &["target", "name"]), Some(serde::JsonValue::Str(n)) if n == "xfrag");
        match wire::at(&v, &["executable"]) {
            Some(serde::JsonValue::Str(p)) if is_xfrag => Some(PathBuf::from(p)),
            _ => None,
        }
    })
}

/// Refuse a binary older than any source file that goes into it.
fn check_fresh(bin: &Path, root: &Path) -> Result<(), String> {
    let built = mtime(bin).ok_or_else(|| format!("{}: no such binary", bin.display()))?;
    let mut newest: Option<(SystemTime, PathBuf)> = None;
    let mut visit = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    visit.extend(
        BINARY_SOURCES
            .iter()
            .flat_map(|d| [root.join(d).join("Cargo.toml"), root.join(d).join("src")]),
    );
    while let Some(p) = visit.pop() {
        if p.is_dir() {
            let entries = std::fs::read_dir(&p).map_err(|e| format!("{}: {e}", p.display()))?;
            visit.extend(entries.filter_map(|e| e.ok().map(|e| e.path())));
        } else if let Some(t) = mtime(&p) {
            if newest.as_ref().is_none_or(|(n, _)| t > *n) {
                newest = Some((t, p));
            }
        }
    }
    match newest {
        Some((t, p)) if t > built => Err(format!(
            "stale binary {}: {} is newer; rebuild with `cargo build --release -p xfrag-cli`",
            bin.display(),
            p.display()
        )),
        _ => Ok(()),
    }
}

fn mtime(p: &Path) -> Option<SystemTime> {
    std::fs::metadata(p).and_then(|m| m.modified()).ok()
}

/// Commit `src` into `corpus` with `xfrag index` (`--delta` against the
/// latest generation when `delta`); returns the wall time it took.
pub fn index(bin: &Path, src: &Path, corpus: &Path, delta: bool) -> Result<Duration, String> {
    let mut cmd = Command::new(bin);
    cmd.arg("index");
    if delta {
        cmd.arg("--delta");
    }
    let t = Instant::now();
    let out = cmd
        .arg(src)
        .arg(corpus)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", bin.display()))?;
    let took = t.elapsed();
    if !out.status.success() {
        return Err(format!(
            "xfrag index failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok(took)
}

/// A running `xfrag serve`. Dropping it shuts the server down, waits
/// for the drain (killing it only if the drain hangs) and reaps it, so
/// no server outlives its run even when the run fails midway.
pub struct Server {
    child: Option<Child>,
    stdout: Option<BufReader<ChildStdout>>,
    pub addr: SocketAddr,
}

impl Server {
    /// Start `xfrag serve <corpus> --port 0 <args>` and wait until it
    /// listens. Its stderr goes to `log`.
    pub fn start(bin: &Path, corpus: &Path, args: &[&str], log: &Path) -> Result<Server, String> {
        let log = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let mut child = Command::new(bin)
            .arg("serve")
            .arg(corpus)
            .args(["--port", "0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut server = Server {
            child: Some(child),
            stdout: None,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        stdout
            .read_line(&mut line)
            .map_err(|e| format!("reading server banner: {e}"))?;
        server.addr = line
            .trim()
            .strip_prefix("listening on ")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("server did not start (said {:?})", line.trim()))?;
        server.stdout = Some(stdout);
        Ok(server)
    }

    fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// Peak resident set size (VmHWM) so far, in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .map_err(|e| format!("reading server status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in server status".to_string())
    }

    /// Shut down, drain and reap; returns the server's drain summary,
    /// which must report nothing in flight.
    pub fn shutdown(mut self) -> Result<String, String> {
        self.stop()
    }

    fn stop(&mut self) -> Result<String, String> {
        let Some(mut child) = self.child.take() else {
            return Ok(String::new());
        };
        if let Ok(mut c) = Conn::connect(self.addr) {
            let _ = c.call(r#"{"kind":"shutdown","id":0}"#);
        }
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        let mut drained = false;
        while Instant::now() < deadline {
            if let Ok(Some(_)) = child.try_wait() {
                drained = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        if !drained {
            let _ = child.kill();
        }
        let status = child.wait().map_err(|e| format!("reaping server: {e}"))?;
        let mut rest = String::new();
        if let Some(mut out) = self.stdout.take() {
            let _ = out.read_to_string(&mut rest);
        }
        let summary = rest
            .lines()
            .find(|l| l.starts_with("drained:"))
            .unwrap_or_default()
            .to_string();
        if !drained {
            return Err(format!(
                "server did not drain within {DRAIN_TIMEOUT:?}; killed"
            ));
        }
        if !status.success() || !summary.ends_with(" 0 in flight") {
            return Err(format!("unclean server exit ({status}): {summary:?}"));
        }
        Ok(summary)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Err(e) = self.stop() {
            eprintln!("perfbench: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn executable_is_found_in_cargo_messages() {
        let msgs = concat!(
            r#"{"reason":"compiler-artifact","target":{"name":"xfrag_core"},"executable":null}"#,
            "\n",
            r#"{"reason":"compiler-artifact","target":{"name":"xfrag"},"executable":"/t/release/xfrag"}"#,
            "\n",
            r#"{"reason":"build-finished","success":true}"#,
        );
        assert_eq!(
            executable_from_messages(msgs),
            Some(PathBuf::from("/t/release/xfrag"))
        );
        assert_eq!(
            executable_from_messages("{\"reason\":\"build-finished\"}"),
            None
        );
    }

    #[test]
    fn a_binary_older_than_its_sources_is_refused() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("target")
            .join(format!("test-fresh-{}", std::process::id()));
        let src = dir.join("crates/core/src");
        std::fs::create_dir_all(&src).unwrap();
        let bin = dir.join("xfrag");
        std::fs::write(&bin, b"old").unwrap();
        std::thread::sleep(Duration::from_millis(20));
        std::fs::write(src.join("lib.rs"), b"// newer").unwrap();
        let err = check_fresh(&bin, &dir).unwrap_err();
        assert!(err.contains("stale binary"), "{err}");
        std::thread::sleep(Duration::from_millis(20));
        std::fs::write(&bin, b"rebuilt").unwrap();
        assert_eq!(check_fresh(&bin, &dir), Ok(()));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
