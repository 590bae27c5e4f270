//! End-to-end tests driving the actual `xfrag` binary.

use std::path::Path;
use std::process::Command;

fn xfrag() -> Command {
    Command::new(env!("CARGO_BIN_EXE_xfrag"))
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("xfrag-it-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn demo_reproduces_paper_answer() {
    let out = xfrag().arg("demo").output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("4 fragment(s)"), "{stdout}");
    assert!(stdout.contains("⟨n16,n17,n18⟩"), "{stdout}");
}

#[test]
fn search_explain_info_flow() {
    let dir = tmpdir("flow");
    let file = dir.join("doc.xml");
    std::fs::write(
        &file,
        "<article><sec><par>xml retrieval systems</par><par>retrieval models</par></sec></article>",
    )
    .unwrap();

    let out = xfrag()
        .args([
            "search",
            file.to_str().unwrap(),
            "xml",
            "retrieval",
            "--size",
            "3",
            "--ids",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("fragment(s)"), "{stdout}");

    let out = xfrag()
        .args([
            "explain",
            file.to_str().unwrap(),
            "xml",
            "retrieval",
            "--size",
            "3",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("Theorem 2"), "{stdout}");
    assert!(stdout.contains("RF ="), "{stdout}");

    let out = xfrag()
        .args(["info", file.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout).unwrap().contains("nodes:"));

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn compile_and_msearch() {
    let dir = tmpdir("msearch");
    std::fs::write(dir.join("a.xml"), "<a><p>rust engines</p></a>").unwrap();
    std::fs::write(dir.join("b.xml"), "<b><p>rust</p><p>engines</p></b>").unwrap();
    // Compile a third document to the binary format.
    let cxml = dir.join("c.xml");
    std::fs::write(&cxml, "<c><p>rust engines again</p></c>").unwrap();
    let cbin = dir.join("c.xfrg");
    let out = xfrag()
        .args(["compile", cxml.to_str().unwrap(), cbin.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    std::fs::remove_file(&cxml).unwrap(); // msearch must read the .xfrg

    let out = xfrag()
        .args([
            "msearch",
            dir.to_str().unwrap(),
            "rust",
            "engines",
            "--size",
            "3",
            "--ids",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("a.xml"), "{stdout}");
    assert!(stdout.contains("c.xfrg"), "{stdout}");

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn errors_exit_nonzero() {
    // Unknown subcommand → usage on stderr, exit code 2.
    let out = xfrag().arg("frobnicate").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8(out.stderr).unwrap().contains("usage:"));

    // Missing file → exit 1.
    let out = xfrag()
        .args(["search", "/nonexistent/x.xml", "kw"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));

    // Malformed XML → parse error with position.
    let dir = tmpdir("err");
    let bad = dir.join("bad.xml");
    std::fs::write(&bad, "<a><b></a>").unwrap();
    let out = xfrag()
        .args(["search", bad.to_str().unwrap(), "kw"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("XML parse error"));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Run `xfrag` with `args` and assert the full failure contract: the
/// expected exit code, an `error:`-prefixed diagnostic containing
/// `needle` on stderr, and *nothing* on stdout.
fn expect_failure(args: &[&str], code: i32, needle: &str) {
    let out = xfrag().args(args).output().unwrap();
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(
        out.status.code(),
        Some(code),
        "args {args:?}: stderr {err:?}"
    );
    assert!(err.contains("error:"), "args {args:?}: stderr {err:?}");
    assert!(err.contains(needle), "args {args:?}: stderr {err:?}");
    assert!(
        out.stdout.is_empty(),
        "args {args:?}: diagnostics leaked to stdout: {:?}",
        String::from_utf8_lossy(&out.stdout)
    );
}

/// Audit of every CLI failure path: usage errors exit 2 with the usage
/// text, runtime errors exit 1, and diagnostics go to stderr only.
#[test]
fn error_paths_audit() {
    let dir = tmpdir("audit");

    // Usage errors: exit 2, usage text on stderr.
    expect_failure(&["search"], 2, "usage:");
    expect_failure(&["serve"], 2, "serve needs a corpus directory");
    expect_failure(
        &["serve", dir.to_str().unwrap(), "--port", "99999"],
        2,
        "--port",
    );
    expect_failure(&["request"], 2, "request needs a host:port");
    expect_failure(&["request", "h:1"], 2, "request needs a JSON request line");

    // A corrupted .xfrg surfaces the typed store error.
    let bad_bin = dir.join("bad.xfrg");
    std::fs::write(&bad_bin, b"definitely not an XFRG file").unwrap();
    expect_failure(&["search", bad_bin.to_str().unwrap(), "kw"], 1, "corrupted");

    // Directory-level failures.
    expect_failure(
        &["msearch", "/nonexistent-xfrag-dir", "kw"],
        1,
        "cannot access",
    );
    expect_failure(&["serve", "/nonexistent-xfrag-dir"], 1, "cannot access");

    // A corpus where every file is quarantined refuses to serve.
    let quarantine_only = tmpdir("audit-quar");
    std::fs::write(quarantine_only.join("a.xml"), "<a><oops>").unwrap();
    expect_failure(
        &["serve", quarantine_only.to_str().unwrap()],
        1,
        "no loadable documents",
    );

    // A malformed --inject spec fails before binding the port.
    std::fs::write(dir.join("ok.xml"), "<a><p>kw</p></a>").unwrap();
    expect_failure(
        &["serve", dir.to_str().unwrap(), "--inject", "gibberish"],
        1,
        "fault clause",
    );

    // Writing compiled output onto a directory is an I/O error, not a
    // panic, and says which path failed.
    expect_failure(
        &[
            "compile",
            dir.join("ok.xml").to_str().unwrap(),
            dir.to_str().unwrap(),
        ],
        1,
        "cannot access",
    );

    // A one-shot request to a dead address fails cleanly.
    expect_failure(
        &["request", "127.0.0.1:1", r#"{"kind":"health"}"#],
        1,
        "cannot access 127.0.0.1:1",
    );

    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&quarantine_only).unwrap();
}

/// A reader hanging up early (`xfrag ... | head`) must not turn into a
/// panic or a failing exit code.
#[test]
fn broken_pipe_is_not_an_error() {
    let dir = tmpdir("pipe");
    let file = dir.join("wide.xml");
    let mut xml = String::from("<doc>");
    for _ in 0..300 {
        xml.push_str("<sec><par>needle</par></sec>");
    }
    xml.push_str("</doc>");
    std::fs::write(&file, xml).unwrap();

    let mut child = xfrag()
        .args([
            "search",
            file.to_str().unwrap(),
            "needle",
            "--size",
            "1",
            "--ids",
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    // Close the read end before the child finishes evaluating, so its
    // (single, buffered) output write hits EPIPE.
    drop(child.stdout.take());
    let status = child.wait().unwrap();
    assert!(status.success(), "broken pipe became exit {status:?}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Source files of a small seeded corpus: docgen articles with a
/// planted term frequent enough that its RF sample is strided, plus one
/// hand-written document mixing attributes, case and non-ASCII text.
fn write_seeded_corpus(dir: &Path) {
    use xfrag_corpus::docgen::{generate, DocGenConfig};
    use xfrag_doc::serialize::{document_to_xml, WriteOptions};
    std::fs::create_dir_all(dir).unwrap();
    for i in 0..5u64 {
        let cfg = DocGenConfig {
            seed: 0x1D3A + i,
            ..DocGenConfig::default()
        }
        .with_approx_nodes(300)
        .plant("needle", 40 + 10 * i as usize);
        let xml = document_to_xml(&generate(&cfg), WriteOptions { indent: None });
        std::fs::write(dir.join(format!("doc{i}.xml")), xml).unwrap();
    }
    std::fs::write(
        dir.join("mixed.xml"),
        "<Catalog lang=\"EN\"><Item id=\"A-1\">XQuery İstanbul ΟΔΟΣ Straße</Item>\
         <Item id=\"b_2\">xquery ünïcode Ünïcode 42 needle needle</Item></Catalog>",
    )
    .unwrap();
}

/// Every file of a directory, by name.
fn dir_files(dir: &Path) -> std::collections::BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (
                e.file_name().to_string_lossy().into_owned(),
                std::fs::read(e.path()).unwrap(),
            )
        })
        .collect()
}

/// Run `xfrag index [--delta] <src> <out>` and return its stdout.
fn index(delta: bool, src: &Path, out: &Path) -> String {
    let mut cmd = xfrag();
    cmd.arg("index");
    if delta {
        cmd.arg("--delta");
    }
    let out = cmd.args([src, out]).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

/// `xfrag index` compiles documents on every core but must write the
/// same bytes as the sequential build it replaced: the manifest (and so
/// every data-file length and checksum) is pinned, repeated builds are
/// byte-identical, and a one-document delta rewrites exactly that
/// document's pair.
#[test]
fn index_build_is_byte_identical_and_deterministic() {
    // Written by the sequential single-threaded build this one replaced.
    const PINNED_MANIFEST: &str = "\
xfrag-manifest v1
generation 1
file 37610 7ad8c3674a4ef838 doc0.g000001.xfrg
file 54244 e4cff3eb2139c598 doc0.g000001.xidx
file 45254 969cec3fafea1d91 doc1.g000001.xfrg
file 62255 fe57f305740cea02 doc1.g000001.xidx
file 38730 23bd4fcd5f4a71f7 doc2.g000001.xfrg
file 56346 2ecbc2015ca90403 doc2.g000001.xidx
file 43405 934829920add4f8a doc3.g000001.xfrg
file 60452 ebe539ae461b27aa doc3.g000001.xidx
file 34801 bdfbb7bd715771f3 doc4.g000001.xfrg
file 51865 96adb766fecc8536 doc4.g000001.xidx
file 191 33c04304374cf609 mixed.g000001.xfrg
file 781 9862c418f0e725c2 mixed.g000001.xidx
checksum 7a0c1ae008b82260
";
    let dir = tmpdir("index-bytes");
    let src = dir.join("src");
    write_seeded_corpus(&src);
    let first = dir.join("c0");
    index(false, &src, &first);
    let files = dir_files(&first);
    assert_eq!(files.len(), 13, "{:?}", files.keys());
    assert_eq!(
        String::from_utf8_lossy(&files["manifest-000001.xfm"]),
        PINNED_MANIFEST
    );
    for rep in 1..3 {
        let again = dir.join(format!("c{rep}"));
        index(false, &src, &again);
        assert!(dir_files(&again) == files, "rebuild {rep} differs");
    }

    // Change one document; the delta rewrites its pair and nothing else,
    // and the rewritten pair equals a full build of the new source.
    std::fs::write(
        src.join("doc2.xml"),
        "<article><title>rewritten needle</title></article>",
    )
    .unwrap();
    let out = index(true, &src, &first);
    assert!(out.contains("5 carried, 1 rewritten, 0 removed"), "{out}");
    let after = dir_files(&first);
    let new: Vec<&String> = after.keys().filter(|n| !files.contains_key(*n)).collect();
    assert_eq!(
        new,
        [
            "doc2.g000002.xfrg",
            "doc2.g000002.xidx",
            "manifest-000002.xfm"
        ]
    );
    for (name, bytes) in &files {
        assert!(&after[name] == bytes, "{name} changed");
    }
    let fresh = dir.join("fresh");
    index(false, &src, &fresh);
    let fresh = dir_files(&fresh);
    for ext in ["xfrg", "xidx"] {
        assert!(
            after[&format!("doc2.g000002.{ext}")] == fresh[&format!("doc2.g000001.{ext}")],
            "delta-built {ext} differs from a full build"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// With several malformed sources, `xfrag index` reports the first one
/// in sorted order — however the parallel compile interleaved — and
/// commits nothing.
#[test]
fn index_error_names_the_first_malformed_source() {
    let dir = tmpdir("index-malformed");
    let src = dir.join("src");
    std::fs::create_dir_all(&src).unwrap();
    for (name, xml) in [
        ("a.xml", "<r>fine</r>"),
        ("b.xml", "<r><from_b></r>"),
        ("c.xml", "<r>fine too</r>"),
        ("d.xml", "<r><from_d></r>"),
        ("e.xml", "<r>last</r>"),
    ] {
        std::fs::write(src.join(name), xml).unwrap();
    }
    let corpus = dir.join("corpus");
    let out = xfrag()
        .args(["index", src.to_str().unwrap(), corpus.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("<from_b>"), "{stderr}");
    assert!(!stderr.contains("from_d"), "{stderr}");
    assert!(
        !dir_files(&corpus).keys().any(|n| n.ends_with(".xfm")),
        "a manifest was committed"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
