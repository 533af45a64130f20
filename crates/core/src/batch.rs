//! The batch query driver: fan a job list across workers sharing one
//! [`EngineContext`].
//!
//! Mapping workloads are naturally batch-shaped — many membership checks
//! against one mapping, consistency probes across schema variants,
//! composition chains — so the driver takes a list of [`BatchJob`]s and
//! runs them on `workers` threads over a *shared* context: every job
//! fetches its compiled caches ([`SatCache`](xmlmap_patterns::SatCache)
//! indexes, chase plans, determinized automata) from the context, so a
//! batch over `k` distinct schemas pays `k` compilations no matter how
//! many jobs or threads there are.
//!
//! Guarantees:
//!
//! * **Deterministic ordering** — results come back in job order
//!   regardless of the worker count (the fan-out preserves input order).
//! * **Per-job budgets** — every budgeted procedure (consistency,
//!   absolute consistency, subschema) carries its own state budget, so
//!   one pathological query fails alone with a budget error instead of
//!   starving the batch.
//! * **Deterministic results** — every procedure the driver dispatches is
//!   deterministic, so batches whose jobs stay within budget produce
//!   byte-identical [`JobResult`]s on any worker count. The one carve-out:
//!   verdicts memoized by the shared caches are budget-*independent* (see
//!   `AutomataCache`), so a job whose own budget would have been exceeded
//!   can still succeed when a bigger-budget job with the same cache key
//!   happened to run first — budget-exceeded *errors* are never cached,
//!   but whether that under-budgeted job errors or hits the memo depends
//!   on scheduling. Give same-key jobs the same budget to stay fully
//!   deterministic (the jobfile format defaults every budget, so this is
//!   the normal case).
//!
//! The CLI front end is `xmlmap batch <jobfile>`; the jobfile syntax is
//! documented at [`parse_jobfile`].

use crate::consistency::ConsAnswer;
use crate::engine::EngineContext;
use crate::stds::Mapping;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use xmlmap_automata::SubschemaViolation;
use xmlmap_dtd::Dtd;
use xmlmap_patterns::{Pattern, StreamPattern};
use xmlmap_trees::Tree;

/// Default state budget of a budgeted job, and of the CLI's single
/// `consistent`, `abscons` and `subschema` queries.
pub const DEFAULT_BUDGET: usize = 50_000_000;

/// Default middle-document node bound for composition-membership jobs.
pub const DEFAULT_MAX_MIDDLE_NODES: usize = 6;

/// One batch query. Schemas and mappings are `Arc`-shared so a cache-heavy
/// batch (hundreds of jobs over a handful of schemas) holds each parsed
/// artifact once.
#[derive(Clone, Debug)]
pub struct BatchJob {
    /// Display label for result rendering (the jobfile line, for CLI jobs).
    pub label: String,
    /// The query to run.
    pub kind: JobKind,
}

/// The query kinds the driver understands.
#[derive(Clone, Debug)]
pub enum JobKind {
    /// `(source, target) ∈ ⟦mapping⟧`?
    Membership {
        /// The mapping.
        mapping: Arc<Mapping>,
        /// Source document.
        source: Tree,
        /// Candidate target document.
        target: Tree,
    },
    /// `CONS(σ)` — is the mapping consistent?
    Consistent {
        /// The mapping.
        mapping: Arc<Mapping>,
        /// State budget for the type-fixpoint engine.
        budget: usize,
    },
    /// `ABSCONS(σ)` — is the mapping absolutely consistent?
    AbsCons {
        /// The mapping.
        mapping: Arc<Mapping>,
        /// State budget for the type-fixpoint engine.
        budget: usize,
    },
    /// Is every `d1` document a `d2` document?
    Subschema {
        /// Candidate subschema.
        d1: Arc<Dtd>,
        /// Candidate superschema.
        d2: Arc<Dtd>,
        /// State budget for the inclusion fixpoint.
        budget: usize,
    },
    /// Stream-validate a document (and optionally evaluate a pattern) in
    /// O(depth) memory; the document is opened at *run* time and never
    /// materialised as a tree.
    Stream {
        /// The schema to validate against.
        dtd: Arc<Dtd>,
        /// Resolved path of the document to stream.
        path: PathBuf,
        /// Optional downward-fragment pattern (streamability is checked
        /// at jobfile parse time).
        pattern: Option<Pattern>,
    },
    /// Stream-chase a source document into its canonical solution in
    /// O(depth + firings) memory; like [`JobKind::Stream`], the document
    /// is opened at *run* time and never materialised as a tree.
    ChaseStream {
        /// The mapping to chase under (streamability of every std source
        /// is checked at jobfile parse time).
        mapping: Arc<Mapping>,
        /// Resolved path of the source document to stream.
        path: PathBuf,
    },
    /// Open an incremental-chase session over `source`, apply an update
    /// script, and report the final solution verdict. Self-contained (the
    /// session lives and dies inside the job), so batches stay
    /// deterministic across worker counts; long-lived sessions belong to
    /// `xmlmap serve`'s `DELTA` verbs.
    DeltaApply {
        /// The mapping.
        mapping: Arc<Mapping>,
        /// The initial source document.
        source: Tree,
        /// The parsed update script (parse errors surface at jobfile
        /// parse time, like every other malformed job).
        updates: Arc<Vec<crate::chase::Update>>,
    },
    /// Is `(source, target)` in the semantic composition `⟦m12⟧ ∘ ⟦m23⟧`?
    CompositionMember {
        /// First mapping.
        m12: Arc<Mapping>,
        /// Second mapping.
        m23: Arc<Mapping>,
        /// Source document (over `m12.source_dtd`).
        source: Tree,
        /// Target document (over `m23.target_dtd`).
        target: Tree,
        /// Node bound for the middle-document search.
        max_middle_nodes: usize,
    },
}

/// The outcome of one job. `Answer` is a completed yes/no verdict;
/// `Failed` is a clean per-job error (budget exhausted, outside a
/// fragment) that leaves the rest of the batch untouched.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobResult {
    /// The query completed.
    Answer {
        /// The boolean verdict.
        yes: bool,
        /// Human-readable detail (deterministic; no timings, no paths).
        detail: String,
    },
    /// The query could not be answered.
    Failed {
        /// Why (deterministic; budget errors include the job's own budget).
        error: String,
    },
}

impl std::fmt::Display for JobResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobResult::Answer { detail, .. } => write!(f, "{detail}"),
            JobResult::Failed { error } => write!(f, "error: {error}"),
        }
    }
}

/// The default worker count for [`run_batch`] and the daemon: the host's
/// available parallelism, capped at 16.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(16)
}

/// Runs one job against the shared context.
pub fn run_job(ctx: &EngineContext, job: &BatchJob) -> JobResult {
    match &job.kind {
        JobKind::Membership {
            mapping,
            source,
            target,
        } => {
            let yes = mapping.is_solution(source, target);
            JobResult::Answer {
                yes,
                detail: if yes { "solution" } else { "NOT a solution" }.to_string(),
            }
        }
        JobKind::Consistent { mapping, budget } => match ctx.consistent(mapping, *budget) {
            Ok(ConsAnswer::Consistent { source, .. }) => JobResult::Answer {
                yes: true,
                detail: format!("consistent (witness source has {} nodes)", source.size()),
            },
            Ok(ConsAnswer::Inconsistent) => JobResult::Answer {
                yes: false,
                detail: "INCONSISTENT".to_string(),
            },
            Err(e) => JobResult::Failed {
                error: e.to_string(),
            },
        },
        JobKind::AbsCons { mapping, budget } => match ctx.abscons(mapping, *budget) {
            Ok(Ok((answer, procedure))) => JobResult::Answer {
                yes: answer.holds(),
                detail: procedure.detail(&answer),
            },
            Ok(Err(budget_err)) => JobResult::Failed {
                error: budget_err.to_string(),
            },
            Err(outside) => JobResult::Failed {
                error: format!(
                    "outside the exact ABSCONS fragments \
                     (batch runs no bounded search): {outside}"
                ),
            },
        },
        JobKind::Subschema { d1, d2, budget } => match ctx.subschema(d1, d2, *budget) {
            Ok(None) => JobResult::Answer {
                yes: true,
                detail: "subschema holds".to_string(),
            },
            Ok(Some(SubschemaViolation::Document(t))) => JobResult::Answer {
                yes: false,
                detail: format!("NOT a subschema (counterexample has {} nodes)", t.size()),
            },
            Ok(Some(SubschemaViolation::AttributeMismatch { label, left, right })) => {
                JobResult::Answer {
                    yes: false,
                    detail: format!(
                        "NOT a subschema: element {label} has attributes {left:?} vs {right:?}"
                    ),
                }
            }
            Err(e) => JobResult::Failed {
                error: e.to_string(),
            },
        },
        JobKind::Stream { dtd, path, pattern } => match std::fs::File::open(path) {
            Err(e) => JobResult::Failed {
                error: format!("cannot open {}: {e}", path.display()),
            },
            Ok(file) => {
                match ctx.stream_document(dtd, pattern.as_ref(), std::io::BufReader::new(file)) {
                    Err(e) => JobResult::Failed {
                        error: e.to_string(),
                    },
                    Ok(out) => {
                        let shape = format!(
                            "{} elements, depth {}",
                            out.stats.elements, out.stats.peak_depth
                        );
                        match (&out.violation, out.matched) {
                            (Some(v), _) => JobResult::Answer {
                                yes: false,
                                detail: v.clone(),
                            },
                            (None, None) => JobResult::Answer {
                                yes: true,
                                detail: format!("conforms ({shape})"),
                            },
                            (None, Some(true)) => JobResult::Answer {
                                yes: true,
                                detail: format!("conforms and matches ({shape})"),
                            },
                            (None, Some(false)) => JobResult::Answer {
                                yes: false,
                                detail: format!("conforms but does NOT match ({shape})"),
                            },
                        }
                    }
                }
            }
        },
        JobKind::ChaseStream { mapping, path } => match std::fs::File::open(path) {
            Err(e) => JobResult::Failed {
                error: format!("cannot open {}: {e}", path.display()),
            },
            Ok(file) => match ctx.chase_stream(mapping, std::io::BufReader::new(file)) {
                Err(e) => JobResult::Failed {
                    error: e.to_string(),
                },
                Ok(out) => {
                    let shape = format!(
                        "{} firing(s), {} elements, depth {}",
                        out.firings, out.stats.elements, out.stats.peak_depth
                    );
                    match (&out.violation, out.solution) {
                        (Some(v), _) => JobResult::Answer {
                            yes: false,
                            detail: v.clone(),
                        },
                        (None, Some(Ok(tree))) => JobResult::Answer {
                            yes: true,
                            detail: format!("chased ({shape}, target has {} nodes)", tree.size()),
                        },
                        (None, Some(Err(e))) => JobResult::Answer {
                            yes: false,
                            detail: format!("no solution: {e}"),
                        },
                        (None, None) => unreachable!("no violation implies a verdict"),
                    }
                }
            },
        },
        JobKind::DeltaApply {
            mapping,
            source,
            updates,
        } => {
            let mut session = ctx.delta_session(mapping, source.clone());
            match session.apply_all(updates) {
                Err(e) => {
                    ctx.record_delta(session.stats());
                    JobResult::Failed { error: e }
                }
                Ok(applied) => {
                    let stats = session.stats();
                    ctx.record_delta(stats);
                    let shape = format!(
                        "{applied} update(s), {} refire(s), {} skip(s)",
                        stats.refires, stats.skips
                    );
                    match session.canonical_solution() {
                        Ok(solution) => JobResult::Answer {
                            yes: true,
                            detail: format!(
                                "delta-chased ({shape}, target has {} nodes)",
                                solution.size()
                            ),
                        },
                        Err(e) => JobResult::Answer {
                            yes: false,
                            detail: format!("no solution after updates ({shape}): {e}"),
                        },
                    }
                }
            }
        }
        JobKind::CompositionMember {
            m12,
            m23,
            source,
            target,
            max_middle_nodes,
        } => match ctx.composition_member(m12, m23, source, target, *max_middle_nodes) {
            Some(middle) => JobResult::Answer {
                yes: true,
                detail: format!(
                    "in the composition (middle document has {} nodes)",
                    middle.size()
                ),
            },
            None => JobResult::Answer {
                yes: false,
                detail: format!(
                    "NOT in the composition (no middle document within {max_middle_nodes} nodes)"
                ),
            },
        },
    }
}

/// Runs every job over the shared context on `workers` threads, returning
/// results **in job order** regardless of the worker count. `workers <= 1`
/// runs inline on the calling thread.
pub fn run_batch(ctx: &EngineContext, jobs: &[BatchJob], workers: usize) -> Vec<JobResult> {
    par_map_workers(jobs, workers, |job| run_job(ctx, job))
}

/// Applies `f` to every item on exactly `workers` scoped threads (capped at
/// the item count, even on a single-CPU host: the worker count is an
/// interleaving knob as well as a throughput one), returning the outputs in
/// input order. `workers <= 1` runs inline on the calling thread.
///
/// Items are handed out by an atomic cursor, so uneven job costs balance
/// across workers; each worker buffers `(index, output)` pairs and merges
/// once at the end.
fn par_map_workers<T, U, F>(items: &[T], workers: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let workers = workers.min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let buffers: Vec<Mutex<Vec<(usize, U)>>> =
        (0..workers).map(|_| Mutex::new(Vec::new())).collect();
    std::thread::scope(|scope| {
        for buffer in &buffers {
            scope.spawn(|| {
                let mut local: Vec<(usize, U)> = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    local.push((i, f(&items[i])));
                }
                *buffer.lock().unwrap() = local;
            });
        }
    });
    let mut results: Vec<Option<U>> = (0..items.len()).map(|_| None).collect();
    for buffer in buffers {
        for (i, out) in buffer.into_inner().unwrap() {
            results[i] = Some(out);
        }
    }
    results
        .into_iter()
        .map(|slot| slot.expect("workers covered every index"))
        .collect()
}

/// Renders a finished batch in the CLI's stdout format — one
/// `[index] label: result` line per job plus a summary line. Shared by the
/// CLI and the determinism tests so "byte-identical output" means this
/// exact rendering.
pub fn render_batch(jobs: &[BatchJob], results: &[JobResult]) -> String {
    let labeled: Vec<(String, JobResult)> = jobs
        .iter()
        .zip(results)
        .map(|(job, result)| (job.label.clone(), result.clone()))
        .collect();
    render_results(&labeled)
}

/// The rendering behind [`render_batch`], over bare `(label, result)`
/// pairs. `xmlmap client` reassembles daemon responses into this exact
/// format, so a serve/client round trip is byte-equivalent to
/// `xmlmap batch` over the same jobfile.
pub fn render_results(labeled: &[(String, JobResult)]) -> String {
    let mut out = String::new();
    let (mut yes, mut no, mut failed) = (0usize, 0usize, 0usize);
    for (i, (label, result)) in labeled.iter().enumerate() {
        out.push_str(&format!("[{}] {label}: {result}\n", i + 1));
        match result {
            JobResult::Answer { yes: true, .. } => yes += 1,
            JobResult::Answer { yes: false, .. } => no += 1,
            JobResult::Failed { .. } => failed += 1,
        }
    }
    out.push_str(&format!(
        "-- {} job(s): {yes} yes, {no} no, {failed} failed\n",
        labeled.len()
    ));
    out
}

/// Parses a jobfile into jobs, loading referenced files relative to `dir`
/// (normally the jobfile's directory).
///
/// Syntax — one job per line; blank lines and `#` comments are skipped;
/// fields are whitespace-separated; `[budget]` and `[max-middle]`
/// default to [`DEFAULT_BUDGET`] and [`DEFAULT_MAX_MIDDLE_NODES`]:
///
/// ```text
/// member         <mapping> <source.xml> <target.xml>
/// consistent     <mapping> [budget]
/// abscons        <mapping> [budget]
/// subschema      <d1.dtd> <d2.dtd> [budget]
/// compose-member <m12> <m23> <source.xml> <target.xml> [max-middle]
/// stream         <d.dtd> <doc.xml> [pattern...]
/// chase-stream   <mapping> <source.xml>
/// delta-apply    <mapping> <source.xml> <updatefile>
/// ```
///
/// A `stream` job validates `doc.xml` against the schema (and, when the
/// trailing fields give a pattern — they are re-joined with spaces, so
/// patterns may contain whitespace — evaluates membership) in O(depth)
/// memory: the document is opened when the job *runs* and is never
/// loaded as a tree, so jobfiles can point at documents far larger than
/// memory. Patterns must lie in the streamable downward fragment;
/// anything else fails at parse time with a diagnostic.
///
/// A `chase-stream` job streams `source.xml` once, enumerating std
/// firings, and chases them into the canonical solution without ever
/// materialising the source tree. Every std source pattern must lie in
/// the streamable downward fragment; anything else fails at parse time
/// with a diagnostic naming the offending std.
///
/// A `delta-apply` job opens an incremental-chase session over the
/// source document, applies the whole update script
/// ([`crate::chase::parse_updates`] syntax; parse errors fail the
/// jobfile), and reports whether the *final* document has a canonical
/// solution. Each job's session is private to the job, so results stay
/// byte-identical across worker counts.
///
/// Mappings and DTDs are interned by path, so a 200-line jobfile over one
/// mapping parses it once and every job shares the `Arc`. Documents are
/// attribute-normalized against the relevant schema on load (like the
/// single-query CLI commands). On any malformed line or unreadable file
/// the whole parse fails with one clean error *per offending line*; no
/// jobs run.
pub fn parse_jobfile(text: &str, dir: &Path) -> Result<Vec<BatchJob>, Vec<String>> {
    let mut parser = JobParser::new(dir);
    let mut jobs = Vec::new();
    let mut errors = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match parser.parse(line) {
            Ok(job) => jobs.push(job),
            Err(e) => errors.push(format!("line {}: {e}", lineno + 1)),
        }
    }
    if errors.is_empty() {
        Ok(jobs)
    } else {
        Err(errors)
    }
}

/// A line-at-a-time jobfile parser with the same path-interning loader as
/// [`parse_jobfile`]. The `xmlmap serve` daemon keeps one of these alive
/// for its whole lifetime, so a long-lived request stream over a handful
/// of schema files parses each file once; note that interning is by
/// *path*, so a file edited under a running daemon keeps its first-loaded
/// contents until restart.
pub struct JobParser {
    dir: PathBuf,
    mappings: HashMap<String, Arc<Mapping>>,
    dtds: HashMap<String, Arc<Dtd>>,
}

impl JobParser {
    /// A parser resolving job-line paths relative to `dir`.
    pub fn new(dir: &Path) -> JobParser {
        JobParser {
            dir: dir.to_path_buf(),
            mappings: HashMap::new(),
            dtds: HashMap::new(),
        }
    }

    /// Loads a mapping, interned by path. The serve daemon's `DELTA OPEN`
    /// verb uses this so delta sessions share the same per-path mapping
    /// instances as ordinary job lines.
    pub fn load_mapping(&mut self, path: &str) -> Result<Arc<Mapping>, String> {
        if let Some(m) = self.mappings.get(path) {
            return Ok(m.clone());
        }
        let m = Mapping::parse(&self.read_file(path)?).map_err(|e| format!("{path}: {e}"))?;
        let m = Arc::new(m);
        self.mappings.insert(path.to_string(), m.clone());
        Ok(m)
    }

    /// Loads a document and normalizes its attribute order against `dtd`
    /// (the same loading path job lines use). The bytes go straight to
    /// the XML reader, so a document that is not UTF-8 fails with the
    /// position of its first bad byte.
    pub fn load_tree(&self, path: &str, dtd: &Dtd) -> Result<Tree, String> {
        let bytes =
            std::fs::read(self.dir.join(path)).map_err(|e| format!("cannot read {path}: {e}"))?;
        let mut t = xmlmap_trees::xml::parse_bytes(&bytes).map_err(|e| format!("{path}: {e}"))?;
        let _ = dtd.normalize_attrs(&mut t); // tolerate attribute order
        Ok(t)
    }

    /// Reads a raw file relative to the parser's root directory
    /// (updatefiles for `DELTA APPLY`).
    pub(crate) fn read_file(&self, path: &str) -> Result<String, String> {
        std::fs::read_to_string(self.dir.join(path)).map_err(|e| format!("cannot read {path}: {e}"))
    }

    /// Parses one job line (comments and blank lines are errors here —
    /// callers filter them, as [`parse_jobfile`] does).
    pub fn parse(&mut self, line: &str) -> Result<BatchJob, String> {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return Err("empty job line".to_string());
        }
        Ok(BatchJob {
            label: line.to_string(),
            kind: parse_line(line, self)?,
        })
    }

    fn load_dtd(&mut self, path: &str) -> Result<Arc<Dtd>, String> {
        if let Some(d) = self.dtds.get(path) {
            return Ok(d.clone());
        }
        let d = xmlmap_dtd::parse(&self.read_file(path)?).map_err(|e| format!("{path}: {e}"))?;
        let d = Arc::new(d);
        self.dtds.insert(path.to_string(), d.clone());
        Ok(d)
    }

    /// Resolves a document path for streaming: the file is only *opened*
    /// when the job runs, but existence is checked here so a malformed
    /// jobfile still fails cleanly before any job executes.
    fn resolve(&self, path: &str) -> Result<PathBuf, String> {
        let full = self.dir.join(path);
        if !full.is_file() {
            return Err(format!("cannot read {path}: no such file"));
        }
        Ok(full)
    }
}

fn parse_budget(field: Option<&&str>, default: usize) -> Result<usize, String> {
    match field {
        None => Ok(default),
        Some(s) => s
            .parse::<usize>()
            .map_err(|_| format!("`{s}` is not a number")),
    }
}

fn parse_line(line: &str, parser: &mut JobParser) -> Result<JobKind, String> {
    let fields: Vec<&str> = line.split_whitespace().collect();
    match fields.as_slice() {
        ["member", map, src, tgt] => {
            let mapping = parser.load_mapping(map)?;
            let source = parser.load_tree(src, &mapping.source_dtd)?;
            let target = parser.load_tree(tgt, &mapping.target_dtd)?;
            Ok(JobKind::Membership {
                mapping,
                source,
                target,
            })
        }
        ["consistent", map, rest @ ..] if rest.len() <= 1 => Ok(JobKind::Consistent {
            mapping: parser.load_mapping(map)?,
            budget: parse_budget(rest.first(), DEFAULT_BUDGET)?,
        }),
        ["abscons", map, rest @ ..] if rest.len() <= 1 => Ok(JobKind::AbsCons {
            mapping: parser.load_mapping(map)?,
            budget: parse_budget(rest.first(), DEFAULT_BUDGET)?,
        }),
        ["subschema", d1, d2, rest @ ..] if rest.len() <= 1 => Ok(JobKind::Subschema {
            d1: parser.load_dtd(d1)?,
            d2: parser.load_dtd(d2)?,
            budget: parse_budget(rest.first(), DEFAULT_BUDGET)?,
        }),
        ["compose-member", m12, m23, src, tgt, rest @ ..] if rest.len() <= 1 => {
            let m12 = parser.load_mapping(m12)?;
            let m23 = parser.load_mapping(m23)?;
            let source = parser.load_tree(src, &m12.source_dtd)?;
            let target = parser.load_tree(tgt, &m23.target_dtd)?;
            Ok(JobKind::CompositionMember {
                m12,
                m23,
                source,
                target,
                max_middle_nodes: parse_budget(rest.first(), DEFAULT_MAX_MIDDLE_NODES)?,
            })
        }
        ["stream", d, xml, rest @ ..] => {
            let dtd = parser.load_dtd(d)?;
            let path = parser.resolve(xml)?;
            let pattern = if rest.is_empty() {
                None
            } else {
                let text = rest.join(" ");
                let p =
                    xmlmap_patterns::parse(&text).map_err(|e| format!("pattern `{text}`: {e}"))?;
                StreamPattern::check(&p).map_err(|e| format!("pattern `{text}`: {e}"))?;
                Some(p)
            };
            Ok(JobKind::Stream { dtd, path, pattern })
        }
        ["chase-stream", map, xml] => {
            let mapping = parser.load_mapping(map)?;
            let path = parser.resolve(xml)?;
            for (i, s) in mapping.stds.iter().enumerate() {
                StreamPattern::check(&s.source)
                    .map_err(|e| format!("std {i} source `{}`: {e}", s.source))?;
            }
            Ok(JobKind::ChaseStream { mapping, path })
        }
        ["delta-apply", map, src, upd] => {
            let mapping = parser.load_mapping(map)?;
            let source = parser.load_tree(src, &mapping.source_dtd)?;
            let updates = crate::chase::parse_updates(&parser.read_file(upd)?)
                .map_err(|e| format!("{upd}: {e}"))?;
            Ok(JobKind::DeltaApply {
                mapping,
                source,
                updates: Arc::new(updates),
            })
        }
        [op, ..]
            if [
                "member",
                "consistent",
                "abscons",
                "subschema",
                "compose-member",
                "stream",
                "chase-stream",
                "delta-apply",
            ]
            .contains(op) =>
        {
            Err(format!("wrong number of arguments for `{op}`"))
        }
        [op, ..] => Err(format!("unknown operation `{op}`")),
        [] => unreachable!("blank lines are skipped"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_worker_counts_agree() {
        let items: Vec<u64> = (0..500).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * 3).collect();
        for workers in [0, 1, 2, 8, 1000] {
            assert_eq!(par_map_workers(&items, workers, |&x| x * 3), expected);
        }
    }

    const COPY_MAP: &str = "[source]\nroot r\nr -> a*\na @ v\n\
                            [target]\nroot r\nr -> b*\nb @ w\n\
                            [stds]\nr/a(x) --> r/b(x)\n";

    fn fixture(files: &[(&str, &str)]) -> PathBuf {
        // One directory per call: tests run in parallel, and identical
        // file lists may share one address, so neither can name it.
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "xmlmap-batch-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        for (name, contents) in files {
            std::fs::write(dir.join(name), contents).unwrap();
        }
        dir
    }

    #[test]
    fn parse_run_render_roundtrip() {
        let dir = fixture(&[
            ("copy.map", COPY_MAP),
            ("src.xml", r#"<r><a v="1"/><a v="2"/></r>"#),
            ("tgt.xml", r#"<r><b w="1"/><b w="2"/></r>"#),
            ("d.dtd", "root r\nr -> a*\na @ v"),
        ]);
        let jobs = parse_jobfile(
            "# a comment\n\
             member copy.map src.xml tgt.xml\n\
             consistent copy.map\n\
             abscons copy.map 1000000\n\
             subschema d.dtd d.dtd\n",
            &dir,
        )
        .unwrap();
        assert_eq!(jobs.len(), 4);
        let ctx = EngineContext::new();
        let results = run_batch(&ctx, &jobs, 1);
        assert!(matches!(&results[0], JobResult::Answer { yes: true, .. }));
        assert!(matches!(&results[1], JobResult::Answer { yes: true, .. }));
        assert!(matches!(&results[2], JobResult::Answer { yes: true, .. }));
        assert!(matches!(&results[3], JobResult::Answer { yes: true, .. }));
        let rendered = render_batch(&jobs, &results);
        assert!(rendered.contains("[1] member copy.map src.xml tgt.xml: solution"));
        assert!(rendered.ends_with("-- 4 job(s): 4 yes, 0 no, 0 failed\n"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_lines_report_per_line_errors() {
        let dir = fixture(&[("copy.map", COPY_MAP)]);
        let err = parse_jobfile(
            "consistent copy.map\n\
             frobnicate copy.map\n\
             consistent missing.map\n\
             subschema only_one.dtd\n",
            &dir,
        )
        .unwrap_err();
        assert_eq!(err.len(), 3);
        assert!(err[0].contains("line 2") && err[0].contains("unknown operation"));
        assert!(err[1].contains("line 3") && err[1].contains("cannot read"));
        assert!(err[2].contains("line 4") && err[2].contains("wrong number of arguments"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn documents_that_are_not_utf8_fail_with_their_position() {
        let dir = fixture(&[("copy.map", COPY_MAP), ("t.xml", "<r/>"), ("u.txt", "")]);
        std::fs::write(dir.join("vbad.xml"), b"<r><a v=\"\xff\"/></r>").unwrap();
        std::fs::write(dir.join("cbad.xml"), b"<r>\n<!-- \xff --><a v=\"1\"/></r>").unwrap();
        let err = parse_jobfile(
            "member copy.map vbad.xml t.xml\ndelta-apply copy.map cbad.xml u.txt\n",
            &dir,
        )
        .unwrap_err();
        assert_eq!(
            err,
            [
                "line 1: vbad.xml: XML parse error at byte 8 (line 1, column 9): \
                 attribute value is not valid UTF-8 (byte 0 of the value)",
                "line 2: cbad.xml: XML parse error at byte 9 (line 2, column 6): \
                 comment is not valid UTF-8",
            ]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stream_jobs_run_and_report() {
        let dir = fixture(&[
            ("d.dtd", "root r\nr -> a*\na @ v"),
            ("good.xml", r#"<r><a v="1"/><a v="2"/></r>"#),
            ("bad.xml", r#"<r><b/></r>"#),
        ]);
        let jobs = parse_jobfile(
            "stream d.dtd good.xml\n\
             stream d.dtd good.xml r/a(x)\n\
             stream d.dtd bad.xml\n",
            &dir,
        )
        .unwrap();
        let ctx = EngineContext::new();
        let results = run_batch(&ctx, &jobs, 1);
        assert_eq!(
            results[0],
            JobResult::Answer {
                yes: true,
                detail: "conforms (3 elements, depth 2)".to_string()
            }
        );
        assert_eq!(
            results[1],
            JobResult::Answer {
                yes: true,
                detail: "conforms and matches (3 elements, depth 2)".to_string()
            }
        );
        assert!(
            matches!(&results[2], JobResult::Answer { yes: false, detail }
                     if detail.contains("invalid at byte")),
            "{:?}",
            results[2]
        );
        let stats = ctx.stats();
        assert_eq!((stats.stream_jobs, stats.stream_peak_depth), (3, 2));
        assert_eq!(stats.stream_index.misses, 1);

        // Bad lines fail at parse time: missing document, unstreamable
        // pattern.
        let err = parse_jobfile(
            "stream d.dtd missing.xml\n\
             stream d.dtd good.xml r[a(x) -> a(y)]\n",
            &dir,
        )
        .unwrap_err();
        assert_eq!(err.len(), 2);
        assert!(err[0].contains("cannot read missing.xml"), "{}", err[0]);
        assert!(err[1].contains("sibling-order"), "{}", err[1]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chase_stream_jobs_run_and_report() {
        let dir = fixture(&[
            ("copy.map", COPY_MAP),
            (
                "sib.map",
                "[source]\nroot r\nr -> a*\na @ v\n\
                 [target]\nroot r\nr -> b*\nb @ w\n\
                 [stds]\nr[a(x) -> a(y)] --> r[b(x), b(y)]\n",
            ),
            ("src.xml", r#"<r><a v="1"/><a v="2"/></r>"#),
            ("bad.xml", r#"<r><c/></r>"#),
        ]);
        let jobs = parse_jobfile(
            "chase-stream copy.map src.xml\n\
             chase-stream copy.map bad.xml\n",
            &dir,
        )
        .unwrap();
        let ctx = EngineContext::new();
        let results = run_batch(&ctx, &jobs, 1);
        assert_eq!(
            results[0],
            JobResult::Answer {
                yes: true,
                detail: "chased (2 firing(s), 3 elements, depth 2, target has 3 nodes)".to_string()
            }
        );
        assert!(
            matches!(&results[1], JobResult::Answer { yes: false, detail }
                     if detail.contains("invalid at byte")),
            "{:?}",
            results[1]
        );
        assert_eq!(ctx.stats().stream_firings, 2);

        // Unstreamable std sources fail at parse time, naming the std.
        let err = parse_jobfile("chase-stream sib.map src.xml\n", &dir).unwrap_err();
        assert_eq!(err.len(), 1);
        assert!(
            err[0].contains("std 0 source") && err[0].contains("sibling-order"),
            "{}",
            err[0]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn delta_apply_jobs_run_and_report() {
        let dir = fixture(&[
            ("copy.map", COPY_MAP),
            ("src.xml", r#"<r><a v="1"/></r>"#),
            (
                "storm.upd",
                "insert . 1 <a v=\"2\"/>\nsettext 0 v 9\ndelete 1\n",
            ),
            ("bad.upd", "insert . 0 <a v=\"2\"/>\ndelete 5\n"),
            ("unparsable.upd", "frob . 0\n"),
        ]);
        let jobs = parse_jobfile(
            "delta-apply copy.map src.xml storm.upd\n\
             delta-apply copy.map src.xml bad.upd\n",
            &dir,
        )
        .unwrap();
        let ctx = EngineContext::new();
        let results = run_batch(&ctx, &jobs, 1);
        assert_eq!(
            results[0],
            JobResult::Answer {
                yes: true,
                detail: "delta-chased (3 update(s), 4 refire(s), 0 skip(s), target has 2 nodes)"
                    .to_string()
            }
        );
        assert!(
            matches!(&results[1], JobResult::Failed { error } if error.contains("no child 5")),
            "{:?}",
            results[1]
        );
        let stats = ctx.stats();
        assert_eq!(stats.delta_sessions, 2);
        assert_eq!(stats.delta.misses, 1);
        // Unparsable update scripts fail the jobfile, running nothing.
        let err = parse_jobfile("delta-apply copy.map src.xml unparsable.upd\n", &dir).unwrap_err();
        assert_eq!(err.len(), 1);
        assert!(err[0].contains("unknown update op"), "{}", err[0]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mappings_are_interned_by_path() {
        let dir = fixture(&[("copy.map", COPY_MAP)]);
        let jobs = parse_jobfile("consistent copy.map\nconsistent copy.map 42\n", &dir).unwrap();
        let (JobKind::Consistent { mapping: a, .. }, JobKind::Consistent { mapping: b, budget }) =
            (&jobs[0].kind, &jobs[1].kind)
        else {
            panic!("expected two consistency jobs");
        };
        assert!(Arc::ptr_eq(a, b));
        assert_eq!(*budget, 42);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
