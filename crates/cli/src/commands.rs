//! Command implementations. Each returns the full output as a string so
//! the logic is unit-testable without capturing stdout.

use crate::args::{Command, ProfileMode, SearchArgs};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use xfrag_core::collection::{
    evaluate_collection_planned_cached_traced_routed, top_k_collection, CollectionResult,
};
use xfrag_core::cost::CostModel;
use xfrag_core::plan::{execute_governed, execute_traced};
use xfrag_core::rank::RankConfig;
use xfrag_core::snippet::{snippet, SnippetConfig};
use xfrag_core::trace::{
    format_duration, render_spans, spans_to_json, LatencyHistogram, RecordingSink, Span, Tracer,
};
use xfrag_core::{
    evaluate_planned_cached_traced, overlap, plan_query, CacheRef, EvalStats, ExecPolicy,
    GenerationTag, Governor, LogicalPlan, Optimizer, PlanDecision, Query, QueryCache,
    StrategyChoice,
};
use xfrag_core::{FaultInjector, FaultPlan};
use xfrag_doc::atomic::{write_atomic, WriteFault, WriteFaultHook};
use xfrag_doc::manifest;
use xfrag_doc::serialize::{fragment_to_xml, WriteOptions};
use xfrag_doc::{
    encode_segment, parse_str, segment_file_name, store, Collection, Document, InvertedIndex,
    PostingsSource, SegmentIndex,
};

/// Top-level error type for command execution.
#[derive(Debug)]
pub enum CliError {
    /// An I/O operation on the named path/address failed (read, write,
    /// or connect — the io::Error says which way it went).
    Io(String, std::io::Error),
    /// The input was not well-formed XML.
    Parse(xfrag_doc::ParseError),
    /// A binary .xfrg file was corrupted or unreadable.
    Store(store::StoreError),
    /// Query evaluation failed.
    Query(String),
    /// `xfrag request` exhausted its retry budget on retryable outcomes
    /// (shed/timeout replies, refused connections). Distinguished from
    /// permanent failures by exit code 3 so scripts can tell "try again
    /// later" from "this will never work".
    RetriesExhausted(String),
    /// `xfrag request` got a *partial* reply (`"complete":false`): some
    /// shards were dropped from the merge, so the answers cover only
    /// the surviving shards. The carried string is the full reply line
    /// (printed to stdout; exit code 4) — a partial success, distinct
    /// from shed/timeout (retryable) and from permanent failures.
    PartialResult(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Io(path, e) => write!(f, "cannot access {path}: {e}"),
            CliError::Parse(e) => write!(f, "{e}"),
            CliError::Store(e) => write!(f, "{e}"),
            CliError::Query(e) => write!(f, "{e}"),
            CliError::RetriesExhausted(e) => write!(f, "retries exhausted: {e}"),
            CliError::PartialResult(_) => write!(f, "partial reply: some shards were dropped"),
        }
    }
}

impl std::error::Error for CliError {}

/// Execute a parsed command.
pub fn run(cmd: Command) -> Result<String, CliError> {
    match cmd {
        Command::Search(a) => {
            let doc = load(&a.file)?;
            let seg = file_segment(&a.file, &doc);
            search_with(&doc, seg.as_ref(), &a)
        }
        Command::MultiSearch(a) => {
            let coll = load_dir(&a.file)?;
            multi_search(&coll, &a)
        }
        Command::Compile {
            input,
            output,
            inject,
        } => {
            let doc = load(&input)?;
            let bytes = store::encode(&doc);
            let hook = write_hook(inject.as_deref())?;
            write_atomic(Path::new(&output), &bytes, hook_ref(&hook))
                .map_err(|e| CliError::Io(output.clone(), e))?;
            Ok(format!(
                "compiled {input} ({} nodes) -> {output} ({} bytes)\n",
                doc.len(),
                bytes.len()
            ))
        }
        Command::Index {
            src,
            out,
            delta,
            inject,
        } => {
            if delta {
                delta_index(&src, &out, inject.as_deref())
            } else {
                index_corpus(&src, &out, inject.as_deref())
            }
        }
        Command::Compact { dir, inject } => compact_corpus(&dir, inject.as_deref()),
        Command::Explain(a) => {
            let doc = load(&a.file)?;
            let seg = file_segment(&a.file, &doc);
            explain_with(&doc, seg.as_ref(), &a)
        }
        Command::Info { file } => {
            let doc = load(&file)?;
            Ok(info(&doc))
        }
        Command::Serve(a) => crate::serve::serve(&a),
        Command::Request {
            addr,
            json,
            retries,
            backoff_ms,
            retry_partial,
            retry_budget_ms,
        } => crate::serve::request_with_retry(
            &addr,
            &json,
            retries,
            backoff_ms,
            retry_partial,
            retry_budget_ms,
        ),
        Command::Demo => Ok(demo()),
    }
}

/// Adapts the CLI's [`FaultInjector`] onto the `doc` crate's minimal
/// write-path hook. A newtype because the orphan rule forbids
/// implementing `doc`'s trait on `core`'s foreign type directly; it also
/// keeps `doc` free of any dependency on the fault machinery.
struct InjectorWriteHook(Arc<FaultInjector>);

impl WriteFaultHook for InjectorWriteHook {
    fn check(&self, at: &str) -> Option<WriteFault> {
        use xfrag_core::fault::{FaultAction, PANIC_MARKER};
        match self.0.check(at)? {
            FaultAction::Panic => panic!("{PANIC_MARKER}: injected panic at {at}"),
            FaultAction::Abort => std::process::abort(),
            FaultAction::Delay(d) => {
                std::thread::sleep(d);
                None
            }
            FaultAction::Cancel | FaultAction::ReadError => Some(WriteFault::Error),
            FaultAction::Torn(n) => Some(WriteFault::Torn(n)),
        }
    }
}

/// Build the write-path fault hook from a `--inject` spec.
fn write_hook(spec: Option<&str>) -> Result<Option<InjectorWriteHook>, CliError> {
    match spec {
        None => Ok(None),
        Some(s) => {
            let plan = FaultPlan::parse(s).map_err(CliError::Query)?;
            Ok(Some(InjectorWriteHook(plan.build())))
        }
    }
}

/// The trait-object view `write_atomic` wants.
fn hook_ref(hook: &Option<InjectorWriteHook>) -> Option<&dyn WriteFaultHook> {
    hook.as_ref().map(|h| h as &dyn WriteFaultHook)
}

/// `xfrag index <src-dir> <corpus-dir>`: compile every `.xml` in the
/// source directory into the corpus directory as one new
/// manifest-committed generation. Each document commits as a pair: the
/// `.xfrg` tree and a `.xidx` structural-label inverted-index segment
/// (postings + prefix labels), both checksummed in the manifest so the
/// cold query path runs off persistent postings. Ordering is the
/// crash-safety story: every data file is written atomically under its
/// generation-unique name first, and the manifest — the commit point —
/// last, so a crash anywhere leaves the previous generation untouched
/// and loadable. Generations older than the previous one are pruned
/// after the commit.
fn index_corpus(src: &str, out: &str, inject: Option<&str>) -> Result<String, CliError> {
    let hook = write_hook(inject)?;
    let paths = xml_sources(src)?;
    std::fs::create_dir_all(out).map_err(|e| CliError::Io(out.to_string(), e))?;
    let outp = Path::new(out);
    let generation =
        manifest::latest_generation_number(outp).map_err(|e| CliError::Io(out.to_string(), e))? + 1;
    let mut files = Vec::new();
    compile_sources(
        &paths,
        |_, _| true,
        |c| {
            let name = manifest::generation_file_name(&c.stem, generation);
            files.push(c.data.commit(outp, name, &hook)?);
            if let Some(seg) = &c.segment {
                files.push(seg.commit(outp, segment_file_name(&c.stem, generation), &hook)?);
            }
            Ok(())
        },
    )?;
    let m = manifest::Manifest {
        generation,
        parent: None,
        files,
    };
    manifest::write_manifest(outp, &m, hook_ref(&hook))
        .map_err(|e| CliError::Io(out.to_string(), e))?;
    // Keep the current and previous generations (the previous is the
    // rollback target); everything older is garbage.
    let pruned = if generation >= 2 {
        manifest::prune_generations(outp, generation - 1)
            .map_err(|e| CliError::Io(out.to_string(), e))?
    } else {
        Vec::new()
    };
    let docs = paths.len();
    Ok(format!(
        "committed generation {generation}: {docs} document(s) + {docs} index segment(s) \
         -> {out} ({} old file(s) pruned)\n",
        pruned.len()
    ))
}

/// The bytes of one data file, with the checksum its manifest entry
/// records.
struct DataFile {
    bytes: Vec<u8>,
    checksum: u64,
}

impl DataFile {
    fn new(bytes: Vec<u8>) -> Self {
        let checksum = manifest::checksum(&bytes);
        DataFile { bytes, checksum }
    }

    /// Does `entry` record exactly these bytes?
    fn matches(&self, entry: &manifest::ManifestEntry) -> bool {
        entry.len == self.bytes.len() as u64 && entry.checksum == self.checksum
    }

    /// Write the bytes atomically as `dir/name` and return their
    /// manifest entry.
    fn commit(
        &self,
        dir: &Path,
        name: String,
        hook: &Option<InjectorWriteHook>,
    ) -> Result<manifest::ManifestEntry, CliError> {
        write_atomic(&dir.join(&name), &self.bytes, hook_ref(hook))
            .map_err(|e| CliError::Io(name.clone(), e))?;
        Ok(manifest::ManifestEntry {
            name,
            len: self.bytes.len() as u64,
            checksum: self.checksum,
        })
    }
}

/// One source document, compiled: its encoded `.xfrg` tree and, when
/// the commit asked for a fresh one, its `.xidx` index segment.
struct CompiledDoc {
    stem: String,
    data: DataFile,
    segment: Option<DataFile>,
}

/// Compile `paths` (sorted) on worker threads and hand each result to
/// `commit` on the calling thread, in path order. `wants_segment(stem,
/// data)` tells a worker whether to also build the document's segment.
///
/// Workers only parse, encode, checksum and build segments; every file
/// write — and so every `store:*` fault site — and the manifest commit
/// stay with the caller, in the same order as a sequential build. Work
/// runs in ordered windows of `2 × workers` documents, so memory does
/// not grow with the corpus, and the first failing document in path
/// order decides the error after everything before it was committed.
fn compile_sources(
    paths: &[PathBuf],
    wants_segment: impl Fn(&str, &DataFile) -> bool + Sync,
    mut commit: impl FnMut(CompiledDoc) -> Result<(), CliError>,
) -> Result<(), CliError> {
    let compile = |p: &PathBuf| -> Result<CompiledDoc, CliError> {
        let doc = load(&p.to_string_lossy())?;
        let stem = p
            .file_stem()
            .unwrap_or_default()
            .to_string_lossy()
            .into_owned();
        let data = DataFile::new(store::encode(&doc));
        let segment = wants_segment(&stem, &data).then(|| DataFile::new(encode_segment(&doc)));
        Ok(CompiledDoc {
            stem,
            data,
            segment,
        })
    };
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(paths.len())
        .max(1);
    for window in paths.chunks(2 * workers) {
        let next = AtomicUsize::new(0);
        let slots: Vec<OnceLock<Result<CompiledDoc, CliError>>> =
            window.iter().map(|_| OnceLock::new()).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers.min(window.len()) {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(p) = window.get(i) else { break };
                    let _ = slots[i].set(compile(p));
                });
            }
        });
        for slot in slots {
            // invariant: the scope joined every worker, and together they
            // claimed every index of the window.
            commit(slot.into_inner().expect("every window slot is compiled")?)?;
        }
    }
    Ok(())
}

/// The sorted `.xml` paths of a source directory.
fn xml_sources(src: &str) -> Result<Vec<PathBuf>, CliError> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(src)
        .map_err(|e| CliError::Io(src.to_string(), e))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("xml"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(CliError::Query(format!("no .xml files in {src}")));
    }
    Ok(paths)
}

/// The logical display name a manifest entry serves under:
/// `a.g000002.xfrg` → `a.xfrg`.
fn logical_name(entry_name: &str) -> String {
    manifest::split_generation_file(entry_name)
        .map(|(logical, _)| logical)
        .unwrap_or_else(|| entry_name.to_string())
}

/// `xfrag index --delta <src-dir> <corpus-dir>`: diff the source tree
/// against the latest verified generation (by encoded length + checksum
/// from its manifest) and commit a *delta* generation — only added or
/// changed documents are rewritten; unchanged ones are referenced under
/// their parent generation's file names. Same commit discipline as a
/// full index: data files first (atomic), manifest last.
fn delta_index(src: &str, out: &str, inject: Option<&str>) -> Result<String, CliError> {
    let hook = write_hook(inject)?;
    let paths = xml_sources(src)?;
    let outp = Path::new(out);
    let parent = match manifest::load_generation(outp) {
        Ok(manifest::GenerationLoad::Committed { manifest, .. }) => manifest,
        Ok(_) => {
            return Err(CliError::Query(format!(
                "no committed generation in {out} to delta against; run a full index first"
            )))
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Err(CliError::Query(format!(
                "no committed generation in {out} to delta against; run a full index first"
            )))
        }
        Err(e) => return Err(CliError::Io(out.to_string(), e)),
    };
    let parent_by_logical: std::collections::HashMap<String, &manifest::ManifestEntry> = parent
        .files
        .iter()
        .map(|e| (logical_name(&e.name), e))
        .collect();
    // The parent's files this document can reuse: its `.xfrg` entry when
    // the bytes are unchanged, and with it the parent's `.xidx` segment
    // (byte-identical document bytes imply an identical segment) when
    // the parent has one — a legacy parent generation may not.
    let carried = |stem: &str, data: &DataFile| {
        let doc = parent_by_logical
            .get(&format!("{stem}.xfrg"))
            .filter(|e| data.matches(e))?;
        Some((
            *doc,
            parent_by_logical.get(&format!("{stem}.xidx")).copied(),
        ))
    };
    let generation =
        manifest::latest_generation_number(outp).map_err(|e| CliError::Io(out.to_string(), e))? + 1;
    let mut files = Vec::new();
    let mut src_logicals = std::collections::HashSet::new();
    let (mut carried_docs, mut rewritten) = (0usize, 0usize);
    compile_sources(
        &paths,
        |stem, data| !matches!(carried(stem, data), Some((_, Some(_)))),
        |c| {
            src_logicals.insert(format!("{}.xfrg", c.stem));
            src_logicals.insert(format!("{}.xidx", c.stem));
            let seg = match carried(&c.stem, &c.data) {
                Some((doc, seg)) => {
                    files.push(doc.clone());
                    carried_docs += 1;
                    seg
                }
                None => {
                    let name = manifest::generation_file_name(&c.stem, generation);
                    files.push(c.data.commit(outp, name, &hook)?);
                    rewritten += 1;
                    None
                }
            };
            files.push(match seg {
                Some(seg) => seg.clone(),
                // invariant: `wants_segment` asked for a fresh segment
                // exactly when the parent's cannot be carried.
                None => c
                    .segment
                    .as_ref()
                    .expect("uncarried segment was compiled")
                    .commit(outp, segment_file_name(&c.stem, generation), &hook)?,
            });
            Ok(())
        },
    )?;
    // Removed *documents* only — a parent `.xidx` entry disappears with
    // its document and is not a removal of its own.
    let removed = parent
        .files
        .iter()
        .filter(|e| {
            let logical = logical_name(&e.name);
            logical.ends_with(".xfrg") && !src_logicals.contains(&logical)
        })
        .count();
    let m = manifest::Manifest {
        generation,
        parent: Some(parent.generation),
        files,
    };
    manifest::write_manifest(outp, &m, hook_ref(&hook))
        .map_err(|e| CliError::Io(out.to_string(), e))?;
    // Keep the parent (the rollback target); parent-chain retention in
    // prune_generations keeps everything the delta still references.
    let pruned = manifest::prune_generations(outp, parent.generation)
        .map_err(|e| CliError::Io(out.to_string(), e))?;
    Ok(format!(
        "committed delta generation {generation} (parent {}): {carried_docs} carried, \
         {rewritten} rewritten, {removed} removed -> {out} ({} old file(s) pruned)\n",
        parent.generation,
        pruned.len()
    ))
}

/// `xfrag compact <corpus-dir>`: materialize the latest verified
/// generation — typically the top of a delta chain — as a new *full*
/// generation (every document rewritten under the new generation's
/// names, `parent: None`), bounding chain depth. The old chain survives
/// as the rollback target until the next commit prunes it.
fn compact_corpus(dir: &str, inject: Option<&str>) -> Result<String, CliError> {
    let hook = write_hook(inject)?;
    let dirp = Path::new(dir);
    let current =
        match manifest::load_generation(dirp).map_err(|e| CliError::Io(dir.to_string(), e))? {
            manifest::GenerationLoad::Committed { manifest, .. } => manifest,
            _ => {
                return Err(CliError::Query(format!(
                    "no committed generation in {dir} to compact"
                )))
            }
        };
    let generation =
        manifest::latest_generation_number(dirp).map_err(|e| CliError::Io(dir.to_string(), e))? + 1;
    let mut entries = current.files.clone();
    entries.sort_by_key(|e| logical_name(&e.name));
    let mut files = Vec::new();
    let (mut count, mut segments) = (0usize, 0usize);
    for e in &entries {
        let bytes =
            std::fs::read(dirp.join(&e.name)).map_err(|err| CliError::Io(e.name.clone(), err))?;
        let logical = logical_name(&e.name);
        // `.xidx` index segments keep their kind across compaction; both
        // kinds are renamed under the new generation's infix.
        let name = match logical.strip_suffix(".xidx") {
            Some(stem) => {
                segments += 1;
                segment_file_name(stem, generation)
            }
            None => {
                count += 1;
                let stem = logical.strip_suffix(".xfrg").unwrap_or(&logical);
                manifest::generation_file_name(stem, generation)
            }
        };
        files.push(DataFile::new(bytes).commit(dirp, name, &hook)?);
    }
    let m = manifest::Manifest {
        generation,
        parent: None,
        files,
    };
    manifest::write_manifest(dirp, &m, hook_ref(&hook))
        .map_err(|e| CliError::Io(dir.to_string(), e))?;
    let pruned = manifest::prune_generations(dirp, current.generation)
        .map_err(|e| CliError::Io(dir.to_string(), e))?;
    Ok(format!(
        "compacted generation {} -> {generation}: {count} document(s) + {segments} \
         index segment(s) ({} old file(s) pruned)\n",
        current.generation,
        pruned.len()
    ))
}

pub(crate) fn load(path: &str) -> Result<Document, CliError> {
    if path.ends_with(".xfrg") {
        let bytes = std::fs::read(path).map_err(|e| CliError::Io(path.to_string(), e))?;
        return store::decode(&bytes).map_err(CliError::Store);
    }
    let text = std::fs::read_to_string(path).map_err(|e| CliError::Io(path.to_string(), e))?;
    parse_str(&text).map_err(CliError::Parse)
}

/// Probe for a persistent index segment next to a `.xfrg` file: the
/// same path with an `.xidx` extension. `Ok(None)` when there is no
/// sibling; `Err(why)` when one exists but is unusable (corrupt, or
/// built for a different document) — callers warn and fall back to the
/// in-memory tree-walk index, never fail the load.
pub(crate) fn sibling_segment(path: &Path, doc: &Document) -> Result<Option<SegmentIndex>, String> {
    if path.extension().and_then(|e| e.to_str()) != Some("xfrg") {
        return Ok(None);
    }
    let seg_path = path.with_extension("xidx");
    if !seg_path.exists() {
        return Ok(None);
    }
    load_segment(&seg_path, doc).map(Some)
}

/// Read, decode, and validate one `.xidx` segment against the document
/// it claims to index.
pub(crate) fn load_segment(path: &Path, doc: &Document) -> Result<SegmentIndex, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let seg = SegmentIndex::from_bytes(&bytes).map_err(|e| format!("{}: {e}", path.display()))?;
    if seg.doc_len() != doc.len() {
        return Err(format!(
            "{}: segment covers {} node(s) but the document has {}",
            path.display(),
            seg.doc_len(),
            doc.len()
        ));
    }
    Ok(seg)
}

/// Load every `.xml`/`.xfrg` file in a directory (sorted for
/// determinism). An `.xfrg` with a valid `.xidx` sibling loads
/// segment-backed: lazy postings and label arithmetic on the query path.
fn load_dir(dir: &str) -> Result<Collection, CliError> {
    let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| CliError::Io(dir.to_string(), e))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.extension()
                .and_then(|e| e.to_str())
                .is_some_and(|e| e == "xml" || e == "xfrg")
        })
        .collect();
    paths.sort();
    let mut coll = Collection::new();
    for p in paths {
        let doc = load(&p.to_string_lossy())?;
        let name = p.file_name().unwrap_or_default().to_string_lossy();
        match sibling_segment(&p, &doc) {
            Ok(Some(seg)) => {
                coll.add_with_segment(name, doc, seg);
            }
            Ok(None) => {
                coll.add(name, doc);
            }
            Err(why) => {
                eprintln!("warning: ignoring index segment ({why}); using tree walks");
                coll.add(name, doc);
            }
        }
    }
    Ok(coll)
}

/// A one-shot CLI cache: `--cache-mb N` builds the cache and a fresh
/// generation tag, runs one untraced cold pass to fill it, and lets the
/// reported (warm) pass hit — so `--profile` spans and `--stats` show
/// real hit counters from a single invocation.
fn cli_cache(a: &SearchArgs) -> Option<(QueryCache, GenerationTag)> {
    a.cache_mb
        .map(|mb| (QueryCache::with_capacity_mb(mb), GenerationTag::fresh()))
}

/// `xfrag msearch`.
pub fn multi_search(coll: &Collection, a: &SearchArgs) -> Result<String, CliError> {
    let q = build_query(a);
    let sink = RecordingSink::new();
    let tracer = if a.profile.is_on() {
        Tracer::new(&sink)
    } else {
        Tracer::disabled()
    };
    let cache = cli_cache(a);
    let cache_arg = cache.as_ref().map(|(c, g)| (c, *g));
    let all: Vec<xfrag_doc::DocId> = coll.ids().collect();
    if cache_arg.is_some() {
        // Cold fill pass; the reported pass below runs warm.
        evaluate_collection_planned_cached_traced_routed(
            coll,
            &q,
            a.strategy,
            &exec_policy(a),
            &Tracer::disabled(),
            cache_arg,
            &all,
            None,
            None,
        )
        .map_err(|e| CliError::Query(e.to_string()))?;
    }
    let r = evaluate_collection_planned_cached_traced_routed(
        coll,
        &q,
        a.strategy,
        &exec_policy(a),
        &tracer,
        cache_arg,
        &all,
        None,
        None,
    )
    .map_err(|e| CliError::Query(e.to_string()))?;
    let mut out = String::new();
    writeln!(
        out,
        "{} fragment(s) in {} of {} document(s) ({} pruned) for {:?}",
        r.total_fragments(),
        r.answers.len(),
        coll.len(),
        r.docs_pruned,
        a.keywords
    )
    .unwrap();
    if r.docs_skipped > 0 {
        writeln!(
            out,
            "note: collection budget exhausted — {} candidate document(s) skipped",
            r.docs_skipped
        )
        .unwrap();
    }
    for (id, d) in &r.degraded_docs {
        writeln!(out, "note: {} {}", coll.name(*id), d).unwrap();
    }
    for (id, msg) in &r.docs_failed {
        writeln!(
            out,
            "note: {} failed (panic isolated): {}",
            coll.name(*id),
            msg.lines().next().unwrap_or("")
        )
        .unwrap();
    }
    // Ranking operates on the (possibly partial) answers.
    let ranked = CollectionResult {
        answers: r.answers.clone(),
        docs_pruned: r.docs_pruned,
        docs_failed: r.docs_failed.clone(),
        stats: r.stats,
    };
    let top = top_k_collection(coll, &ranked, &q, &RankConfig::default(), 10);
    for (i, (doc_id, f, score)) in top.iter().enumerate() {
        if a.ids {
            writeln!(out, "[{}] {} {:.3} {}", i + 1, coll.name(*doc_id), score, f).unwrap();
        } else {
            let snip = snippet(coll.doc(*doc_id), f, &q.terms, &SnippetConfig::default());
            writeln!(
                out,
                "--- answer {} from {} (score {:.3}, {} nodes)\n    {}",
                i + 1,
                coll.name(*doc_id),
                score,
                f.size(),
                snip
            )
            .unwrap();
        }
    }
    if a.stats {
        writeln!(out, "stats: {}", r.stats).unwrap();
        if coll.segment_count() > 0 {
            writeln!(
                out,
                "index: segments={} bytes={} terms_loaded={}",
                coll.segment_count(),
                coll.index_bytes(),
                coll.index_terms_loaded()
            )
            .unwrap();
        }
        if let Some((c, _)) = &cache {
            writeln!(out, "cache: {}", c.stats().to_json()).unwrap();
        }
    }
    if a.profile.is_on() {
        let spans = sink.take();
        out.push_str(&profile_block(a.profile, &spans));
        if a.profile == ProfileMode::Text {
            // Collection-level latency aggregation over the per-document
            // spans (one `doc:{name}` top-level span per candidate).
            let hist =
                LatencyHistogram::from_spans(spans.iter().filter(|s| s.stage.starts_with("doc:")));
            if !hist.is_empty() {
                for line in hist.render().lines() {
                    out.push_str("  ");
                    out.push_str(line);
                    out.push('\n');
                }
            }
        }
    }
    Ok(out)
}

fn build_query(a: &SearchArgs) -> Query {
    let mut q = Query::new(a.keywords.iter(), a.filter.clone());
    if a.strict {
        q = q.with_strict_leaf_semantics();
    }
    q
}

fn exec_policy(a: &SearchArgs) -> ExecPolicy {
    ExecPolicy::with_budget(a.budget).with_degrade(a.degrade)
}

/// The strategy tag shown in the result header: the forced name, or
/// `auto→<picked>` (with a re-plan marker) so the planner's choice is
/// always visible.
fn strategy_label(choice: StrategyChoice, decision: &PlanDecision) -> String {
    match choice {
        StrategyChoice::Forced(s) => s.name().to_string(),
        StrategyChoice::Auto if decision.replanned => format!(
            "auto→{} after re-plan from {}",
            decision.effective.name(),
            decision.picked.name()
        ),
        StrategyChoice::Auto => format!("auto→{}", decision.effective.name()),
    }
}

/// Render recorded spans per the `--profile` mode: a `profile:` header
/// with the indented span tree (text) or one JSON line (json).
fn profile_block(mode: ProfileMode, spans: &[Span]) -> String {
    match mode {
        ProfileMode::Off => String::new(),
        ProfileMode::Text => {
            let mut out = String::from("profile:\n");
            for line in render_spans(spans).lines() {
                out.push_str("  ");
                out.push_str(line);
                out.push('\n');
            }
            out
        }
        ProfileMode::Json => format!("profile: {}\n", spans_to_json(spans)),
    }
}

/// Probe the single-file commands' `.xidx` sibling; an unusable
/// segment warns and falls back to tree walks, never fails the command.
fn file_segment(file: &str, doc: &Document) -> Option<SegmentIndex> {
    match sibling_segment(Path::new(file), doc) {
        Ok(seg) => seg,
        Err(why) => {
            eprintln!("warning: ignoring index segment ({why}); using tree walks");
            None
        }
    }
}

/// One-line provenance for `--stats`: how big the persistent segment
/// is and how much of its vocabulary the query actually materialized.
fn segment_stats_line(seg: &SegmentIndex) -> String {
    format!(
        "index: segment bytes={} terms={} terms_loaded={}",
        seg.bytes_len(),
        seg.term_count(),
        seg.terms_loaded()
    )
}

/// `xfrag search`.
pub fn search(doc: &Document, a: &SearchArgs) -> Result<String, CliError> {
    search_with(doc, None, a)
}

/// `xfrag search`, segment-backed when a usable `.xidx` sibling was
/// found: postings stream lazily and structure runs on label arithmetic.
pub fn search_with(
    doc: &Document,
    seg: Option<&SegmentIndex>,
    a: &SearchArgs,
) -> Result<String, CliError> {
    match seg {
        Some(seg) => search_impl(doc, seg, Some(seg), a),
        None => search_impl(doc, &InvertedIndex::build(doc), None, a),
    }
}

fn search_impl<I: PostingsSource + ?Sized>(
    doc: &Document,
    index: &I,
    seg: Option<&SegmentIndex>,
    a: &SearchArgs,
) -> Result<String, CliError> {
    let q = build_query(a);
    let sink = RecordingSink::new();
    let tracer = if a.profile.is_on() {
        Tracer::new(&sink)
    } else {
        Tracer::disabled()
    };
    let cache = cli_cache(a);
    let cache_ref = cache.as_ref().map(|(c, g)| CacheRef {
        cache: c,
        gen: *g,
        doc: 0,
    });
    let model = CostModel::default();
    if let Some(cref) = cache_ref {
        // Cold fill pass; the reported pass below runs warm.
        evaluate_planned_cached_traced(
            doc,
            index,
            &q,
            a.strategy,
            &exec_policy(a),
            &Tracer::disabled(),
            Some(cref),
            &model,
        )
        .map_err(|e| CliError::Query(e.to_string()))?;
    }
    let (result, decision) = evaluate_planned_cached_traced(
        doc,
        index,
        &q,
        a.strategy,
        &exec_policy(a),
        &tracer,
        cache_ref,
        &model,
    )
    .map_err(|e| CliError::Query(e.to_string()))?;
    let answers = if a.maximal {
        overlap::maximal_only(&result.fragments)
    } else {
        result.fragments.clone()
    };

    let mut out = String::new();
    writeln!(
        out,
        "{} fragment(s) for {:?} [{}]",
        answers.len(),
        a.keywords,
        strategy_label(a.strategy, &decision),
    )
    .unwrap();
    if result.degradation.is_degraded() {
        writeln!(out, "note: {}", result.degradation).unwrap();
    }
    for (i, f) in answers.iter().enumerate() {
        if a.ids {
            writeln!(out, "[{}] {}", i + 1, f).unwrap();
        } else {
            writeln!(
                out,
                "--- answer {} (root {}, {} nodes)",
                i + 1,
                f.root(),
                f.size()
            )
            .unwrap();
            writeln!(
                out,
                "{}",
                fragment_to_xml(doc, f.nodes(), WriteOptions::default())
            )
            .unwrap();
        }
    }
    if a.stats {
        writeln!(out, "stats: {}", result.stats).unwrap();
        if a.strategy == StrategyChoice::Auto {
            writeln!(out, "plan: {}", decision.rationale).unwrap();
        }
        if let Some(seg) = seg {
            writeln!(out, "{}", segment_stats_line(seg)).unwrap();
        }
        if let Some((c, _)) = &cache {
            writeln!(out, "cache: {}", c.stats().to_json()).unwrap();
        }
    }
    out.push_str(&profile_block(a.profile, &sink.take()));
    Ok(out)
}

/// `xfrag explain` without a persistent segment; `run` dispatches
/// through [`explain_with`], so outside the unit tests this shorthand
/// has no binary caller.
#[cfg_attr(not(test), allow(dead_code))]
pub fn explain(doc: &Document, a: &SearchArgs) -> Result<String, CliError> {
    explain_with(doc, None, a)
}

/// `xfrag explain`, segment-backed when a usable `.xidx` sibling was
/// found — the rendered stages then cost and execute off the persistent
/// postings, and `label_ops`/`tree_ops` in the per-stage stats show
/// which structural backend answered.
pub fn explain_with(
    doc: &Document,
    seg: Option<&SegmentIndex>,
    a: &SearchArgs,
) -> Result<String, CliError> {
    match seg {
        Some(seg) => explain_impl(doc, seg, Some(seg), a),
        None => explain_impl(doc, &InvertedIndex::build(doc), None, a),
    }
}

fn explain_impl<I: PostingsSource + ?Sized>(
    doc: &Document,
    index: &I,
    seg: Option<&SegmentIndex>,
    a: &SearchArgs,
) -> Result<String, CliError> {
    let q = build_query(a);
    let plan = LogicalPlan::for_query(&q).map_err(|e| CliError::Query(e.to_string()))?;
    let optimizer = Optimizer::standard(doc, index, CostModel::default());

    let mut out = String::new();
    for (stage, p) in optimizer.optimize_traced(plan) {
        writeln!(out, "== {stage} ==").unwrap();
        out.push_str(&p.render());
        let mut st = EvalStats::new();
        // Stage executions honor the user's budget too: un-optimized
        // stages can be the very blow-up the optimizer exists to avoid
        // (the pre-push-down fixpoint of a wide operand set is as large
        // as the powerset), and EXPLAIN must never stall on them.
        let gov = Governor::new(a.budget, None);
        if a.analyze {
            // EXPLAIN ANALYZE: cost-model estimate next to the measured
            // execution — wall-clock, counter deltas, per-operator spans.
            let est = CostModel::default().estimate_plan(&p, doc, index);
            let sink = RecordingSink::new();
            let tracer = Tracer::new(&sink);
            let start = std::time::Instant::now();
            let res = execute_traced(&p, doc, index, &mut st, &gov, &tracer);
            let wall = start.elapsed();
            match res {
                Ok(set) => writeln!(out, "-> {} fragment(s)", set.len()).unwrap(),
                Err(breach) => writeln!(out, "-> not executable at this stage ({breach})").unwrap(),
            }
            writeln!(
                out,
                "analyze: estimate joins≈{} fragments≈{} | actual wall {}, {}",
                est.joins,
                est.fragments,
                format_duration(wall),
                st
            )
            .unwrap();
            for line in render_spans(&sink.take()).lines() {
                writeln!(out, "  {line}").unwrap();
            }
            out.push('\n');
        } else {
            match execute_governed(&p, doc, index, &mut st, &gov) {
                Ok(set) => writeln!(out, "-> {} fragment(s), {}\n", set.len(), st).unwrap(),
                Err(breach) => {
                    writeln!(out, "-> not executable at this stage ({breach})\n").unwrap()
                }
            }
        }
    }
    for (term, a_len, b_len) in xfrag_core::query::operand_reduction_factors(doc, index, &q) {
        let rf = if a_len == 0 {
            0.0
        } else {
            (a_len - b_len) as f64 / a_len as f64
        };
        writeln!(
            out,
            "operand {term:?}: |F| = {a_len}, |⊖(F)| = {b_len}, RF = {rf:.2}"
        )
        .unwrap();
    }
    // The §5 planner's verdict for this (query, document) pair — printed
    // whether or not the strategy was forced, so EXPLAIN always shows
    // what `auto` would do and why.
    let mut plan_scratch = EvalStats::new();
    let dec = plan_query(doc, index, &q, &CostModel::default(), &mut plan_scratch);
    let est_line = xfrag_core::Strategy::ALL
        .iter()
        .map(|&s| format!("{}≈{}", s.name(), dec.estimate_for(s).joins))
        .collect::<Vec<_>>()
        .join(", ");
    writeln!(out, "plan: estimated joins {est_line}").unwrap();
    for o in &dec.operands {
        writeln!(
            out,
            "plan: operand {:?}: n={} RF={:.2} depth-span={} ({})",
            o.term,
            o.n,
            o.rf,
            o.depth_span,
            if o.from_segment {
                "segment stats"
            } else {
                "live sample"
            }
        )
        .unwrap();
    }
    match a.strategy {
        StrategyChoice::Auto => writeln!(
            out,
            "plan: auto picks {} — {}",
            dec.picked.name(),
            dec.rationale
        )
        .unwrap(),
        StrategyChoice::Forced(s) => writeln!(
            out,
            "plan: --strategy forces {}; auto would pick {} — {}",
            s.name(),
            dec.picked.name(),
            dec.rationale
        )
        .unwrap(),
    }
    // Budget checkpoints: re-run the fully optimized plan under a governor
    // for the configured budget and report where governance would bite.
    let plan = LogicalPlan::for_query(&q).map_err(|e| CliError::Query(e.to_string()))?;
    let optimized = Optimizer::standard(doc, index, CostModel::default()).optimize(plan);
    let gov = Governor::new(a.budget, None);
    let mut st = EvalStats::new();
    match execute_governed(&optimized, doc, index, &mut st, &gov) {
        Ok(set) => writeln!(
            out,
            "budget: {} checkpoint(s) passed, {} join(s) charged, {} fragment(s) within budget",
            gov.checkpoints_passed(),
            gov.joins_spent(),
            set.len()
        )
        .unwrap(),
        Err(breach) => writeln!(
            out,
            "budget: tripped ({breach}) after {} checkpoint(s), {} join(s) — \
             `search --degrade ladder` would fall back to a cheaper plan",
            gov.checkpoints_passed(),
            gov.joins_spent()
        )
        .unwrap(),
    }
    // `--cache-mb`: run the query cold (filling a fresh cache), then run
    // it again warm under the tracer — the warm span tree carries
    // cache_hits/cache_misses per stage, the EXPLAIN ANALYZE view of the
    // cache.
    if let Some((cache, gen)) = cli_cache(a) {
        let cref = CacheRef {
            cache: &cache,
            gen,
            doc: 0,
        };
        let policy = exec_policy(a);
        writeln!(out, "== cache (cold fill, then warm re-run) ==").unwrap();
        let model = CostModel::default();
        evaluate_planned_cached_traced(
            doc,
            index,
            &q,
            a.strategy,
            &policy,
            &Tracer::disabled(),
            Some(cref),
            &model,
        )
        .map_err(|e| CliError::Query(e.to_string()))?;
        let sink = RecordingSink::new();
        let tracer = Tracer::new(&sink);
        let (warm, _) = evaluate_planned_cached_traced(
            doc,
            index,
            &q,
            a.strategy,
            &policy,
            &tracer,
            Some(cref),
            &model,
        )
        .map_err(|e| CliError::Query(e.to_string()))?;
        writeln!(
            out,
            "-> {} fragment(s) warm, {}",
            warm.fragments.len(),
            warm.stats
        )
        .unwrap();
        for line in render_spans(&sink.take()).lines() {
            writeln!(out, "  {line}").unwrap();
        }
        writeln!(out, "cache: {}", cache.stats().to_json()).unwrap();
    }
    // Last so `terms_loaded` reflects everything the stages above
    // actually materialized from the persistent segment.
    if let Some(seg) = seg {
        writeln!(out, "{}", segment_stats_line(seg)).unwrap();
    }
    Ok(out)
}

/// `xfrag info`.
pub fn info(doc: &Document) -> String {
    let index = InvertedIndex::build(doc);
    let mut tags: std::collections::BTreeMap<&str, usize> = Default::default();
    for n in doc.node_ids() {
        *tags.entry(doc.tag(n)).or_default() += 1;
    }
    let mut out = String::new();
    writeln!(out, "nodes:  {}", doc.len()).unwrap();
    writeln!(out, "height: {}", doc.height()).unwrap();
    writeln!(out, "terms:  {}", index.term_count()).unwrap();
    writeln!(out, "tags:").unwrap();
    for (tag, count) in tags {
        writeln!(out, "  {tag}: {count}").unwrap();
    }
    out
}

/// `xfrag demo` — the paper's §4 walkthrough on the built-in Figure 1
/// document.
pub fn demo() -> String {
    let fig = xfrag_corpus::figure1();
    let doc = &fig.doc;
    let a = SearchArgs {
        file: "<built-in figure 1>".into(),
        keywords: vec!["XQuery".into(), "optimization".into()],
        filter: xfrag_core::FilterExpr::MaxSize(3),
        strategy: StrategyChoice::Forced(xfrag_core::Strategy::PushDown),
        strict: false,
        maximal: false,
        ids: true,
        stats: true,
        budget: xfrag_core::Budget::unlimited(),
        degrade: xfrag_core::DegradeMode::Ladder,
        profile: ProfileMode::Off,
        analyze: false,
        cache_mb: None,
    };
    let mut out = String::from(
        "Paper §4 example: query {XQuery, optimization}, filter size ≤ 3,\n\
         against the Figure 1 document (82 nodes).\n\n",
    );
    out.push_str(&search(doc, &a).expect("demo query evaluates"));
    out.push_str("\nThe fragment ⟨n16,n17,n18⟩ is the paper's \"fragment of interest\".\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use xfrag_core::{FilterExpr, Strategy};

    fn args(keywords: &[&str], filter: FilterExpr) -> SearchArgs {
        SearchArgs {
            file: String::new(),
            keywords: keywords.iter().map(|s| s.to_string()).collect(),
            filter,
            strategy: StrategyChoice::Forced(Strategy::PushDown),
            strict: false,
            maximal: false,
            ids: true,
            stats: false,
            budget: xfrag_core::Budget::unlimited(),
            degrade: xfrag_core::DegradeMode::Ladder,
            profile: ProfileMode::Off,
            analyze: false,
            cache_mb: None,
        }
    }

    fn doc() -> Document {
        parse_str("<a><b>xml search</b><c>xml ranking</c></a>").unwrap()
    }

    #[test]
    fn search_lists_fragments() {
        let out = search(&doc(), &args(&["xml", "search"], FilterExpr::MaxSize(3))).unwrap();
        assert!(out.contains("fragment(s)"));
        assert!(out.contains("⟨n1⟩"));
    }

    #[test]
    fn search_xml_output() {
        let mut a = args(&["xml", "ranking"], FilterExpr::True);
        a.ids = false;
        let out = search(&doc(), &a).unwrap();
        assert!(out.contains("<c>xml ranking</c>"));
    }

    #[test]
    fn maximal_hides_subfragments() {
        let base = args(&["xml"], FilterExpr::True);
        let all = search(&doc(), &base).unwrap();
        let mut m = base.clone();
        m.maximal = true;
        let max = search(&doc(), &m).unwrap();
        let count = |s: &str| {
            s.lines()
                .next()
                .unwrap()
                .split_whitespace()
                .next()
                .unwrap()
                .parse::<usize>()
                .unwrap()
        };
        assert!(count(&max) < count(&all));
    }

    #[test]
    fn explain_shows_stages_and_rf() {
        let out = explain(&doc(), &args(&["xml", "search"], FilterExpr::MaxSize(2))).unwrap();
        assert!(out.contains("== initial =="));
        assert!(out.contains("Theorem 2"));
        assert!(out.contains("Theorem 3"));
        assert!(out.contains("RF ="));
    }

    #[test]
    fn info_reports_shape() {
        let out = info(&doc());
        assert!(out.contains("nodes:  3"));
        assert!(out.contains("b: 1"));
    }

    #[test]
    fn demo_runs() {
        let out = demo();
        assert!(out.contains("⟨n16,n17,n18⟩"));
        assert!(out.contains("4 fragment(s)"));
    }

    #[test]
    fn search_degrades_under_tight_budget_instead_of_failing() {
        let mut a = args(&["xml"], FilterExpr::True);
        a.budget.max_joins = Some(0);
        let out = search(&doc(), &a).unwrap();
        assert!(out.contains("note: degraded to"), "{out}");
        // With --degrade off the same budget is a hard error.
        a.degrade = xfrag_core::DegradeMode::Off;
        let err = search(&doc(), &a).unwrap_err();
        assert!(err.to_string().contains("budget exceeded"), "{err}");
    }

    #[test]
    fn explain_annotates_budget_checkpoints() {
        let out = explain(&doc(), &args(&["xml", "search"], FilterExpr::MaxSize(2))).unwrap();
        assert!(out.contains("budget:"), "{out}");
        assert!(out.contains("checkpoint(s) passed"), "{out}");
        let mut a = args(&["xml", "search"], FilterExpr::MaxSize(2));
        a.budget.max_joins = Some(0);
        let out = explain(&doc(), &a).unwrap();
        assert!(out.contains("budget: tripped"), "{out}");
    }

    #[test]
    fn stats_flag_prints_counters() {
        let mut a = args(&["xml"], FilterExpr::True);
        a.stats = true;
        let out = search(&doc(), &a).unwrap();
        assert!(out.contains("stats: joins="));
    }

    #[test]
    fn profile_prints_span_tree() {
        let mut a = args(&["xml", "search"], FilterExpr::MaxSize(3));
        a.profile = ProfileMode::Text;
        let out = search(&doc(), &a).unwrap();
        assert!(out.contains("profile:"), "{out}");
        assert!(out.contains("term-lookup:xml"), "{out}");
        assert!(out.contains("rung:full"), "{out}");
        assert!(out.contains("select-top"), "{out}");
        // Profiling must not change the answer.
        let plain = search(&doc(), &args(&["xml", "search"], FilterExpr::MaxSize(3))).unwrap();
        assert!(out.starts_with(plain.lines().next().unwrap()), "{out}");
    }

    #[test]
    fn profile_json_is_machine_readable() {
        let mut a = args(&["xml"], FilterExpr::True);
        a.profile = ProfileMode::Json;
        let out = search(&doc(), &a).unwrap();
        let json_line = out
            .lines()
            .find(|l| l.starts_with("profile: ["))
            .expect("json profile line");
        assert!(json_line.contains("\"stage\":\"rung:full\""), "{out}");
        assert!(json_line.contains("\"wall_ns\":"), "{out}");
        assert!(json_line.ends_with(']'), "{out}");
    }

    #[test]
    fn cached_search_is_byte_identical_and_reports_hits() {
        let base = args(&["xml", "search"], FilterExpr::MaxSize(3));
        let plain = search(&doc(), &base).unwrap();
        let mut cached = base.clone();
        cached.cache_mb = Some(4);
        let warm = search(&doc(), &cached).unwrap();
        assert_eq!(plain, warm, "cache must not change any output byte");

        // With --stats the cache counter line appears and shows hits.
        let mut st = cached.clone();
        st.stats = true;
        let out = search(&doc(), &st).unwrap();
        assert!(out.contains("cache: {\"postings\":"), "{out}");
        assert!(out.contains("cache_hits="), "{out}");
        // Warm pass answered from the result tier: at least one hit.
        assert!(!out.contains("\"result\":{\"hits\":0,"), "{out}");
    }

    #[test]
    fn cached_profile_shows_result_hit_span() {
        let mut a = args(&["xml", "search"], FilterExpr::MaxSize(3));
        a.cache_mb = Some(4);
        a.profile = ProfileMode::Text;
        let out = search(&doc(), &a).unwrap();
        assert!(out.contains("cache:result-hit"), "{out}");
    }

    #[test]
    fn explain_with_cache_renders_warm_pass() {
        let mut a = args(&["xml", "search"], FilterExpr::MaxSize(2));
        a.cache_mb = Some(4);
        let out = explain(&doc(), &a).unwrap();
        assert!(
            out.contains("== cache (cold fill, then warm re-run) =="),
            "{out}"
        );
        assert!(out.contains("cache:result-hit"), "{out}");
        assert!(out.contains("cache: {\"postings\":"), "{out}");
    }

    #[test]
    fn explain_analyze_prints_estimates_and_actuals_per_stage() {
        let mut a = args(&["xml", "search"], FilterExpr::MaxSize(2));
        a.analyze = true;
        let out = explain(&doc(), &a).unwrap();
        let stages = out.matches("== ").count();
        let analyzed = out.matches("analyze: estimate joins≈").count();
        assert!(stages >= 2, "{out}");
        assert_eq!(analyzed, stages, "one analyze line per stage:\n{out}");
        assert!(out.contains("| actual wall "), "{out}");
        assert!(out.contains("joins="), "{out}");
        // Per-operator spans appear under each stage.
        assert!(out.contains("keyword:xml"), "{out}");
    }
}

#[cfg(test)]
mod multi_tests {
    use super::*;
    use crate::args::SearchArgs;
    use xfrag_core::{FilterExpr, Strategy};

    fn margs(dir: &str) -> SearchArgs {
        SearchArgs {
            file: dir.to_string(),
            keywords: vec!["xml".into(), "search".into()],
            filter: FilterExpr::MaxSize(3),
            strategy: StrategyChoice::Forced(Strategy::PushDown),
            strict: false,
            maximal: false,
            ids: true,
            stats: true,
            budget: xfrag_core::Budget::unlimited(),
            degrade: xfrag_core::DegradeMode::Ladder,
            profile: ProfileMode::Off,
            analyze: false,
            cache_mb: None,
        }
    }

    #[test]
    fn msearch_over_directory() {
        let dir = std::env::temp_dir().join(format!("xfrag-msearch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("a.xml"), "<a><p>xml search engines</p></a>").unwrap();
        std::fs::write(dir.join("b.xml"), "<b><p>xml</p><p>search</p></b>").unwrap();
        std::fs::write(dir.join("c.xml"), "<c><p>unrelated</p></c>").unwrap();
        std::fs::write(dir.join("notes.txt"), "ignored").unwrap();
        let coll = load_dir(&dir.to_string_lossy()).unwrap();
        assert_eq!(coll.len(), 3);
        let out = multi_search(&coll, &margs(&dir.to_string_lossy())).unwrap();
        assert!(out.contains("a.xml"), "{out}");
        assert!(out.contains("b.xml"), "{out}");
        assert!(!out.contains("c.xml"), "{out}");
        assert!(out.contains("(1 pruned)"), "{out}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn msearch_profile_includes_per_document_spans_and_histogram() {
        let dir = std::env::temp_dir().join(format!("xfrag-mprof-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("a.xml"), "<a><p>xml search engines</p></a>").unwrap();
        std::fs::write(dir.join("b.xml"), "<b><p>xml</p><p>search</p></b>").unwrap();
        let coll = load_dir(&dir.to_string_lossy()).unwrap();
        let mut a = margs(&dir.to_string_lossy());
        a.profile = ProfileMode::Text;
        let out = multi_search(&coll, &a).unwrap();
        assert!(out.contains("profile:"), "{out}");
        assert!(out.contains("doc:a.xml"), "{out}");
        assert!(out.contains("doc:b.xml"), "{out}");
        assert!(out.contains("latency histogram: 2 sample(s)"), "{out}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compile_then_search_xfrg() {
        let dir = std::env::temp_dir().join(format!("xfrag-compile-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let xml = dir.join("d.xml");
        let bin = dir.join("d.xfrg");
        std::fs::write(&xml, "<d><p>xml search</p></d>").unwrap();
        let out = run(Command::Compile {
            input: xml.to_string_lossy().into_owned(),
            output: bin.to_string_lossy().into_owned(),
            inject: None,
        })
        .unwrap();
        assert!(out.contains("compiled"), "{out}");
        // Searching the compiled form gives the same answer as the XML.
        let d_xml = load(&xml.to_string_lossy()).unwrap();
        let d_bin = load(&bin.to_string_lossy()).unwrap();
        assert_eq!(d_xml, d_bin);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compile_write_fault_leaves_existing_output_byte_identical() {
        // Satellite (a): with a fault injected anywhere on the write
        // path, a pre-existing destination file survives unchanged —
        // the failure happens on the temp file, never in place.
        let dir = std::env::temp_dir().join(format!("xfrag-atomic-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let xml = dir.join("d.xml");
        let bin = dir.join("d.xfrg");
        std::fs::write(&xml, "<d><p>xml search</p></d>").unwrap();
        let original = b"pre-existing bytes that must survive".to_vec();
        for spec in [
            "store:write@0=read-error",
            "store:fsync@0=read-error",
            "store:rename@0=cancel",
            "store:write@0=torn:4",
        ] {
            std::fs::write(&bin, &original).unwrap();
            let err = run(Command::Compile {
                input: xml.to_string_lossy().into_owned(),
                output: bin.to_string_lossy().into_owned(),
                inject: Some(spec.into()),
            })
            .unwrap_err();
            assert!(matches!(err, CliError::Io(..)), "{spec}: {err}");
            assert_eq!(
                std::fs::read(&bin).unwrap(),
                original,
                "{spec}: destination modified"
            );
        }
        // Without a fault the same compile replaces the file.
        run(Command::Compile {
            input: xml.to_string_lossy().into_owned(),
            output: bin.to_string_lossy().into_owned(),
            inject: None,
        })
        .unwrap();
        assert_ne!(std::fs::read(&bin).unwrap(), original);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn index_commits_generations_and_prunes_old_ones() {
        let dir = std::env::temp_dir().join(format!("xfrag-index-{}", std::process::id()));
        let src = dir.join("src");
        let out = dir.join("corpus");
        std::fs::create_dir_all(&src).unwrap();
        std::fs::write(src.join("a.xml"), "<a><p>xml search</p></a>").unwrap();
        std::fs::write(src.join("b.xml"), "<b><p>xml ranking</p></b>").unwrap();
        let outs = out.to_string_lossy().into_owned();
        let srcs = src.to_string_lossy().into_owned();

        let msg = index_corpus(&srcs, &outs, None).unwrap();
        assert!(
            msg.contains("committed generation 1: 2 document(s)"),
            "{msg}"
        );
        assert!(out.join("a.g000001.xfrg").exists());
        assert!(out.join("manifest-000001.xfm").exists());

        let msg = index_corpus(&srcs, &outs, None).unwrap();
        assert!(msg.contains("committed generation 2"), "{msg}");
        // Generation 1 is kept as the rollback target...
        assert!(out.join("manifest-000001.xfm").exists());
        let msg = index_corpus(&srcs, &outs, None).unwrap();
        assert!(msg.contains("committed generation 3"), "{msg}");
        // ...but after generation 3 commits, generation 1 is pruned.
        assert!(!out.join("manifest-000001.xfm").exists());
        assert!(!out.join("a.g000001.xfrg").exists());
        assert!(out.join("manifest-000002.xfm").exists());

        // A failed index attempt leaves the committed generation intact.
        let before = std::fs::read(out.join("a.g000003.xfrg")).unwrap();
        let err = index_corpus(&srcs, &outs, Some("store:rename@0=cancel")).unwrap_err();
        assert!(matches!(err, CliError::Io(..)), "{err}");
        assert_eq!(std::fs::read(out.join("a.g000003.xfrg")).unwrap(), before);
        assert!(!out.join("manifest-000004.xfm").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn delta_index_carries_unchanged_documents_and_compact_materializes() {
        let dir = std::env::temp_dir().join(format!("xfrag-delta-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let src = dir.join("src");
        let out = dir.join("corpus");
        std::fs::create_dir_all(&src).unwrap();
        std::fs::write(src.join("a.xml"), "<a><p>xml search</p></a>").unwrap();
        std::fs::write(src.join("b.xml"), "<b><p>xml ranking</p></b>").unwrap();
        std::fs::write(src.join("c.xml"), "<c><p>xml storage</p></c>").unwrap();
        let outs = out.to_string_lossy().into_owned();
        let srcs = src.to_string_lossy().into_owned();

        // Delta without a committed generation is refused.
        let err = delta_index(&srcs, &outs, None).unwrap_err();
        assert!(err.to_string().contains("full index first"), "{err}");

        index_corpus(&srcs, &outs, None).unwrap();
        // 1-doc change + 1-doc removal.
        std::fs::write(src.join("a.xml"), "<a><p>xml search updated</p></a>").unwrap();
        std::fs::remove_file(src.join("c.xml")).unwrap();
        let msg = delta_index(&srcs, &outs, None).unwrap();
        assert!(
            msg.contains(
                "committed delta generation 2 (parent 1): 1 carried, 1 rewritten, 1 removed"
            ),
            "{msg}"
        );
        // Only the changed document got gen-2 files (tree + index
        // segment); the carried one is still served from gen 1, which
        // the prune retained — its segment rides along.
        assert!(out.join("a.g000002.xfrg").exists());
        assert!(out.join("a.g000002.xidx").exists());
        assert!(!out.join("b.g000002.xfrg").exists());
        assert!(!out.join("b.g000002.xidx").exists());
        assert!(out.join("b.g000001.xfrg").exists());
        assert!(out.join("b.g000001.xidx").exists());
        assert!(out.join("manifest-000001.xfm").exists());
        let m = match manifest::load_generation(Path::new(&outs)).unwrap() {
            manifest::GenerationLoad::Committed { manifest, .. } => manifest,
            other => panic!("{other:?}"),
        };
        assert_eq!(m.generation, 2);
        assert_eq!(m.parent, Some(1));
        // One tree + one segment entry per document.
        assert_eq!(m.files.len(), 4);
        assert_eq!(
            m.files.iter().filter(|e| e.name.ends_with(".xidx")).count(),
            2
        );

        // Compaction rewrites everything as a full generation 3.
        let msg = compact_corpus(&outs, None).unwrap();
        assert!(
            msg.contains("compacted generation 2 -> 3: 2 document(s)"),
            "{msg}"
        );
        let m = match manifest::load_generation(Path::new(&outs)).unwrap() {
            manifest::GenerationLoad::Committed { manifest, .. } => manifest,
            other => panic!("{other:?}"),
        };
        assert_eq!(m.generation, 3);
        assert_eq!(m.parent, None);
        assert!(m.files.iter().all(|e| e.name.contains(".g000003.")));
        // Compacted bytes are identical to what the delta served.
        assert_eq!(
            std::fs::read(out.join("a.g000003.xfrg")).unwrap(),
            std::fs::read(out.join("a.g000002.xfrg")).unwrap()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
