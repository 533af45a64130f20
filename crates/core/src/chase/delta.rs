//! Incremental delta-chase (DESIGN.md §8.9).
//!
//! Production exchange traffic is one long-lived source document absorbing
//! a stream of subtree insertions/deletions with solution and
//! certain-answer reads interleaved. The chase builds the canonical
//! solution from independent per-std firings, so an update only
//! invalidates the firings whose witness valuations touch the edited
//! region — everything else can be kept. [`IncrementalChase`] exploits
//! that in six layers:
//!
//! * **firing index / refire frontier** — each std's compiled source
//!   pattern is summarized into a [`TouchProfile`] (its concrete label
//!   footprint, or a wildcard flag), inverted into a label-keyed index.
//!   An edit yields the set of source positions it touched; the labels
//!   those positions occupy select exactly the stds whose plans can reach
//!   the region, and only those are diffed. For patterns with horizontal
//!   operators (not [`CompiledPattern::is_downward`]) the region is
//!   widened to every child of the edit point's parent — inserting `c`
//!   between siblings `a, b` breaks `a → b` even though `c` occurs in
//!   neither pattern, so the label-intersection test alone would be
//!   unsound;
//! * **counted firings, diffed at the edit** — each std keeps its
//!   firings as a map from firing key to the number of source-pattern
//!   embeddings deriving it. For a downward std an edit enumerates only
//!   the embeddings through the edited region
//!   ([`xmlmap_patterns::Matcher::for_each_embedding_through`], pruned
//!   by [`LiveRows`] repaired edit by edit) and counts them out or in; a
//!   count reaching or leaving zero flips the firing. A horizontal std's rows are rebuilt
//!   and its firings re-counted in full at the next read instead:
//!   inserting or deleting a node changes sibling adjacency, which
//!   counting through the region cannot see;
//! * **the shared retractable arena** — the session drives the same
//!   chase arena (`chase::arena`) as the tree and streaming chases. Each
//!   applied firing is an epoch delimited by a checkpoint; rewinding to
//!   any epoch restores the exact arena state by LIFO undo, and since the
//!   arena's union-find never compresses paths, representative choice —
//!   and therefore the output's null labels — replays identically;
//! * **prefix-preserving replay at the read** — the next read (or the
//!   end of an [`IncrementalChase::apply_all`] script) finds each dirty
//!   std's first changed firing, splices the new suffix into the std's
//!   applied sequence in place, rewinds the arena to the longest common
//!   prefix and replays only the suffix. The result is *byte-identical*
//!   to a from-scratch chase of the mutated document: same firing order,
//!   same fresh-null numbering, same error (the first failing firing in
//!   canonical order), same completion sweep;
//! * **the kept solution** — the read's result is a function of the
//!   arena alone, so the session keeps it, shared as an [`Arc`], until a
//!   resync rewinds or replays the arena: a read after edits that
//!   replay nothing runs no completion and materializes nothing;
//! * **per-parent content-model runs** — an edit re-checks its parent's
//!   children word against the source DTD by splicing the parent's kept
//!   [`ContentRun`] and re-stepping it from the edit point, until the
//!   run rejoins the recorded one, instead of re-running the whole word.
//!
//! Deferring the resync to the read is exact, by three facts:
//!
//! 1. the arena state after a firing prefix is a function of that prefix
//!    (rewind is LIFO undo, and nothing else mutates the arena);
//! 2. a std's firing set is a function of the document alone, and the
//!    counts track it edit by edit;
//! 3. the frontier is sound per edit, so a std that no edit since the
//!    last resync selected has an unchanged firing set.
//!
//! So at the read the keys are the sequence a from-scratch enumeration
//! would give, and rewinding to its common prefix with the applied
//! epochs leaves the arena that prefix determines. Resyncing at the read
//! therefore gives the same arena, first-failing-firing error and bytes
//! as resyncing after every edit — a delete and an identical reinsert
//! between two reads replay nothing.
//!
//! Completion (mandatory-child filling), the deferred `≠` check and
//! materialization run on the arena under a mark that is undone, so the
//! applied state stays pristine across updates. They run at a read only
//! when the arena changed since the last one: the arena is then a new
//! firing prefix, and nothing else the solution depends on can change
//! (conformance and the fragment error are checked first).
//!
//! This module keeps only what is incremental: the touch profiles, the
//! update grammar, the session and the replay.

use super::arena::ChaseArena;
use super::compiled::ChaseCache;
use super::ChaseError;
use crate::exchange::CertainAnswersError;
use crate::stds::Mapping;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;
use xmlmap_dtd::ContentRun;
use xmlmap_patterns::{eval, CompiledPattern, LiveRows, Pattern, Valuation};
use xmlmap_trees::{Name, NodeId, Tree, Value};

// ---------------------------------------------------------------------------
// Touch profiles and the firing index
// ---------------------------------------------------------------------------

/// Static match-region summary of one std's source pattern: which source
/// positions a match valuation of the pattern can possibly occupy.
#[derive(Clone, Debug)]
pub struct TouchProfile {
    /// Concrete labels the pattern tests; `None` when any pattern node is
    /// a wildcard (the pattern can witness nodes of every label).
    pub labels: Option<BTreeSet<Name>>,
}

impl TouchProfile {
    /// Can an edit whose region carries `labels` create or destroy
    /// matches of this pattern?
    fn touched(&self, labels: &BTreeSet<Name>) -> bool {
        match &self.labels {
            None => true, // wildcard: every position is a witness candidate
            Some(fp) => fp.iter().any(|l| labels.contains(l)),
        }
    }
}

/// Per-mapping artifact for incremental sessions: the shared chase
/// tables plus one [`TouchProfile`] per std. Cached in memory by
/// [`crate::engine::EngineContext::delta_plan`].
pub struct DeltaPlan {
    pub(crate) chase: Arc<ChaseCache>,
    pub(crate) profiles: Vec<TouchProfile>,
}

impl DeltaPlan {
    /// Profiles `chase`'s std sources (none outside the chase fragment,
    /// where sessions only report the fragment error).
    pub fn new(chase: Arc<ChaseCache>) -> DeltaPlan {
        let profiles = chase
            .plans
            .iter()
            .map(|p| TouchProfile {
                labels: p.source.label_footprint(),
            })
            .collect();
        DeltaPlan { chase, profiles }
    }

    /// Approximate heap footprint of the touch profiles (the chase tables
    /// are accounted where they are cached).
    pub fn approx_bytes(&self) -> u64 {
        let profiles: u64 = self
            .profiles
            .iter()
            .map(|p| {
                p.labels.as_ref().map_or(0, |ls| {
                    ls.iter().map(|l| l.as_str().len() as u64 + 24).sum()
                }) + 16
            })
            .sum();
        profiles
    }
}

// ---------------------------------------------------------------------------
// Updates
// ---------------------------------------------------------------------------

/// One source-document edit, addressed by child-index paths from the root
/// (`.` in the textual form; `0/2` = third child of the root's first
/// child).
#[derive(Clone, Debug, PartialEq)]
pub enum Update {
    /// Graft a copy of `subtree` under the node at `parent`, at child
    /// position `pos`.
    InsertSubtree {
        /// Path of the parent node.
        parent: Vec<usize>,
        /// Child position for the new subtree (existing children shift).
        pos: usize,
        /// The subtree to insert.
        subtree: Tree,
    },
    /// Detach the subtree rooted at `path` (must not be the root).
    DeleteSubtree {
        /// Path of the subtree root.
        path: Vec<usize>,
    },
    /// Overwrite attribute `attr` of the node at `path` with `value`.
    ReplaceText {
        /// Path of the node.
        path: Vec<usize>,
        /// The attribute name (must exist on the node).
        attr: Name,
        /// The new value.
        value: Value,
    },
}

/// Parses an updatefile: one op per line, `#` comments and blank lines
/// skipped.
///
/// ```text
/// insert <parent-path> <pos> <xml-fragment>
/// delete <path>
/// settext <path> <attr> <value>
/// ```
///
/// Paths are `.` (the root) or slash-separated child indices (`1/0/2`).
/// The value of `settext` is the rest of the line, verbatim.
pub fn parse_updates(input: &str) -> Result<Vec<Update>, String> {
    fn path(s: &str, ln: usize) -> Result<Vec<usize>, String> {
        if s == "." {
            return Ok(Vec::new());
        }
        s.split('/')
            .map(|c| {
                c.parse::<usize>()
                    .map_err(|_| format!("line {ln}: bad path component {c:?}"))
            })
            .collect()
    }
    let mut out = Vec::new();
    for (i, line) in input.lines().enumerate() {
        let ln = i + 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (op, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
        let rest = rest.trim();
        match op {
            "insert" => {
                let (p, rest) = rest
                    .split_once(char::is_whitespace)
                    .ok_or_else(|| format!("line {ln}: insert needs <path> <pos> <xml>"))?;
                let (pos, xml) = rest
                    .trim()
                    .split_once(char::is_whitespace)
                    .ok_or_else(|| format!("line {ln}: insert needs <path> <pos> <xml>"))?;
                let subtree = xmlmap_trees::xml::parse(xml.trim())
                    .map_err(|e| format!("line {ln}: bad fragment: {e}"))?;
                out.push(Update::InsertSubtree {
                    parent: path(p, ln)?,
                    pos: pos
                        .parse()
                        .map_err(|_| format!("line {ln}: bad position {pos:?}"))?,
                    subtree,
                });
            }
            "delete" => out.push(Update::DeleteSubtree {
                path: path(rest, ln)?,
            }),
            "settext" => {
                let (p, rest) = rest
                    .split_once(char::is_whitespace)
                    .ok_or_else(|| format!("line {ln}: settext needs <path> <attr> <value>"))?;
                let (attr, value) = rest
                    .trim()
                    .split_once(char::is_whitespace)
                    .ok_or_else(|| format!("line {ln}: settext needs <path> <attr> <value>"))?;
                out.push(Update::ReplaceText {
                    path: path(p, ln)?,
                    attr: Name::new(attr),
                    value: Value::str(value.trim()),
                });
            }
            other => return Err(format!("line {ln}: unknown update op {other:?}")),
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// The session
// ---------------------------------------------------------------------------

/// Running totals of one session, surfaced through the engine stats.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Updates applied.
    pub updates: u64,
    /// Frontier selections: per update, the stds its region analysis
    /// could not rule out (plus every std once at open). A selected
    /// downward std pays one diff at the edit; several selections of a
    /// horizontal std between two reads cost one re-enumeration.
    pub refires: u64,
    /// Stds an update's region analysis proved unaffected.
    pub skips: u64,
    /// Epochs actually replayed at resync (firings re-applied to the
    /// arena after rewinding to the longest unchanged prefix).
    pub replays: u64,
}

/// A firing key: the firing's source tuple in key order. Shared between
/// the counts and the applied sequence.
type Key = Arc<[Value]>;

/// One std's firings in a session: counted, and as last applied.
struct StdFirings {
    /// The std's source variable ids sorted by name: a tuple read in this
    /// order is its firing's key, and keys sort canonically.
    order: Vec<usize>,
    /// Each admitted firing's key → the number of source-pattern
    /// embeddings that derive it. The std's canonical firing sequence is
    /// exactly the keys, in order.
    counts: BTreeMap<Key, u32>,
    /// The canonical sequence at the last resync; the arena's epochs run
    /// through these, std-major.
    applied: Vec<Key>,
    /// Keys whose count went to or from zero since the last resync.
    flipped: Vec<Key>,
    /// `counts` was rebuilt from scratch since the last resync, so
    /// `flipped` does not cover its changes.
    rescanned: bool,
    /// Scratch key, reused across embeddings.
    key: Vec<Value>,
}

impl StdFirings {
    /// An embedding's firing key, in the scratch buffer.
    fn key_of(&mut self, env: &[Option<&Value>]) -> &[Value] {
        self.key.clear();
        self.key.extend(self.order.iter().map(|&v| {
            env[v]
                .expect("a complete match binds every variable")
                .clone()
        }));
        &self.key
    }

    /// Counts one embedding's valuation in (`add`) or out. Only admitted
    /// tuples are counted; a count reaching or leaving zero is noted in
    /// `flipped`.
    fn count(&mut self, chase: &ChaseCache, si: usize, env: &[Option<&Value>], add: bool) {
        if !chase.admits_env(si, env) {
            return;
        }
        self.key_of(env);
        if add {
            if let Some(c) = self.counts.get_mut(&self.key[..]) {
                *c += 1;
                return;
            }
            let key: Key = self.key.as_slice().into();
            self.flipped.push(key.clone());
            self.counts.insert(key, 1);
        } else {
            let c = self
                .counts
                .get_mut(&self.key[..])
                .expect("a retracted embedding was counted in");
            *c -= 1;
            if *c == 0 {
                let (key, _) = self.counts.remove_entry(&self.key[..]).expect("present");
                self.flipped.push(key);
            }
        }
    }

    /// The least key present in exactly one of `applied` and the current
    /// firing set: both sequences agree on every key below it. Consumes
    /// the change record.
    fn first_change(&mut self) -> Option<Key> {
        if std::mem::take(&mut self.rescanned) {
            self.flipped.clear();
            let mut now = self.counts.keys();
            for old in &self.applied {
                match now.next() {
                    Some(k) if k == old => {}
                    Some(k) => return Some(k.min(old).clone()),
                    None => return Some(old.clone()),
                }
            }
            return now.next().cloned();
        }
        let (counts, applied) = (&self.counts, &self.applied);
        self.flipped
            .drain(..)
            .filter(|k| counts.contains_key(k) != applied.binary_search(k).is_ok())
            .min()
    }
}

/// A long-lived incremental chase session over one mapping and one
/// mutable source document.
///
/// After any sequence of updates, [`IncrementalChase::canonical_solution`] and
/// [`IncrementalChase::certain_answers`] agree with a from-scratch
/// [`super::canonical_solution`] of the mutated document — byte-identical
/// trees and identical [`ChaseError`] verdicts, not merely isomorphic
/// ones (pinned by `tests/delta_equiv.rs`).
///
/// A [`NodeId`] read from [`IncrementalChase::doc`] stays valid until the
/// next delete: a delete that leaves more detached nodes than reachable
/// ones compacts the document, renumbering every node in document order.
/// Path-addressed updates ([`IncrementalChase::apply`]) are unaffected.
pub struct IncrementalChase {
    mapping: Mapping,
    plan: Arc<DeltaPlan>,
    doc: Tree,
    /// Nodes reachable from the root; the rest of `doc`'s arena is
    /// detached subtrees awaiting compaction.
    live: usize,
    /// Per-std counted and applied firings.
    firings: Vec<StdFirings>,
    /// Per-std feasibility rows of the source pattern. A downward std's
    /// are repaired edit by edit; a horizontal std's go stale at an edit
    /// and are rebuilt when the read re-counts it.
    rows: Vec<LiveRows>,
    /// The first failing firing's error; the arena holds exactly the
    /// epochs before it, and nothing after it is applied.
    error: Option<ChaseError>,
    arena: ChaseArena,
    /// Stds selected by the frontier since the last resync: their applied
    /// sequences may be stale until the next `resync`.
    dirty: Vec<bool>,
    /// Source nodes currently violating the source DTD (label, attribute
    /// or children-word violations); the document conforms iff empty.
    violations: BTreeSet<NodeId>,
    /// Per-parent content-model runs, built on the first edit under a
    /// conforming parent and spliced by later ones.
    runs: HashMap<NodeId, ContentRun>,
    /// The last read's result — the solution or the `≠` verdict — kept
    /// until a resync rewinds or replays the arena.
    solution: Option<Result<Arc<Tree>, ChaseError>>,
    stats: DeltaStats,
    /// Content-model steps taken by conformance checks.
    #[cfg(test)]
    steps: u64,
    /// Completion sweeps run by reads.
    #[cfg(test)]
    completions: u64,
}

impl IncrementalChase {
    /// Opens a session, compiling a fresh [`DeltaPlan`]. The initial
    /// chase state is built by matching every std once.
    pub fn new(m: &Mapping, doc: Tree) -> IncrementalChase {
        let plan = DeltaPlan::new(Arc::new(ChaseCache::new(m)));
        IncrementalChase::with_plan(m.clone(), doc, Arc::new(plan))
    }

    /// Opens a session over a shared, possibly disk-loaded plan.
    pub fn with_plan(mapping: Mapping, doc: Tree, plan: Arc<DeltaPlan>) -> IncrementalChase {
        let arena = ChaseArena::new(&plan.chase);
        let std_count = plan.chase.std_count();
        let firings = (0..std_count)
            .map(|si| StdFirings {
                order: plan.chase.key_order(si),
                counts: BTreeMap::new(),
                applied: Vec::new(),
                flipped: Vec::new(),
                rescanned: false,
                key: Vec::new(),
            })
            .collect();
        let nodes: Vec<NodeId> = doc.nodes().collect();
        let mut s = IncrementalChase {
            mapping,
            plan,
            live: nodes.len(),
            doc,
            firings,
            rows: Vec::new(),
            error: None,
            arena,
            dirty: vec![true; std_count],
            violations: BTreeSet::new(),
            runs: HashMap::new(),
            solution: None,
            stats: DeltaStats::default(),
            #[cfg(test)]
            steps: 0,
            #[cfg(test)]
            completions: 0,
        };
        s.build_rows();
        for n in nodes {
            s.revalidate(n);
        }
        // The initial enumeration stays eager, so opening pays for it.
        s.stats.refires += std_count as u64;
        for si in 0..std_count {
            s.recount(si);
        }
        s.resync();
        s
    }

    /// The current (mutated) source document.
    pub fn doc(&self) -> &Tree {
        &self.doc
    }

    /// The mapping this session chases under.
    pub fn mapping(&self) -> &Mapping {
        &self.mapping
    }

    /// Running session totals.
    pub fn stats(&self) -> DeltaStats {
        self.stats
    }

    /// Does the current document conform to the source DTD?
    pub fn source_conforms(&self) -> bool {
        self.violations.is_empty()
    }

    /// Resolves a child-index path (empty = the root).
    pub fn resolve_path(&self, path: &[usize]) -> Result<NodeId, String> {
        let mut n = Tree::ROOT;
        for (depth, &i) in path.iter().enumerate() {
            n = *self.doc.children(n).get(i).ok_or_else(|| {
                format!(
                    "path {:?}: no child {} at depth {}",
                    path.iter()
                        .map(usize::to_string)
                        .collect::<Vec<_>>()
                        .join("/"),
                    i,
                    depth
                )
            })?;
        }
        Ok(n)
    }

    /// Applies one path-addressed [`Update`].
    pub fn apply(&mut self, u: &Update) -> Result<(), String> {
        match u {
            Update::InsertSubtree {
                parent,
                pos,
                subtree,
            } => {
                let p = self.resolve_path(parent)?;
                self.insert_subtree(p, *pos, subtree)
            }
            Update::DeleteSubtree { path } => {
                let n = self.resolve_path(path)?;
                self.delete_subtree(n)
            }
            Update::ReplaceText { path, attr, value } => {
                let n = self.resolve_path(path)?;
                self.replace_text(n, attr.as_str(), value.clone())
            }
        }
    }

    /// Applies a whole update script, stopping at the first structurally
    /// invalid op (bad path, bad position, unknown attribute). Returns
    /// the number of ops applied. A successful script is one batch: the
    /// session resyncs once at its end, so its cost (and its replays in
    /// [`IncrementalChase::stats`]) lands inside this call.
    pub fn apply_all(&mut self, updates: &[Update]) -> Result<usize, String> {
        for (i, u) in updates.iter().enumerate() {
            self.apply(u)
                .map_err(|e| format!("update #{}: {e}", i + 1))?;
        }
        self.resync();
        Ok(updates.len())
    }

    /// Grafts a copy of `sub` under `parent` at child position `pos`; the
    /// next read re-chases incrementally.
    pub fn insert_subtree(&mut self, parent: NodeId, pos: usize, sub: &Tree) -> Result<(), String> {
        if pos > self.doc.children(parent).len() {
            return Err(format!(
                "insert position {pos} out of {} children",
                self.doc.children(parent).len()
            ));
        }
        // Best-effort canonical attribute order (an in-memory insert then
        // equals the parse-then-`normalize_attrs` of the same fragment);
        // nodes that cannot be canonicalised surface as violations, exactly
        // like the re-parsed document would.
        let mut sub = sub.clone();
        let dtd = &self.mapping.source_dtd;
        for n in sub.nodes().collect::<Vec<_>>() {
            if let Some(attrs) = dtd.canonical_attrs(sub.label(n), sub.attrs(n)) {
                sub.set_attrs(n, attrs);
            }
        }
        let new_root = self.doc.graft_at(parent, pos, &sub);
        let mut region: BTreeSet<Name> = BTreeSet::new();
        for n in self.doc.descendants_or_self(new_root).collect::<Vec<_>>() {
            region.insert(self.doc.label(n).clone());
            self.revalidate(n);
            self.live += 1;
        }
        self.revalidate_edit(parent, pos, true);
        for (si, rows) in self.rows.iter_mut().enumerate() {
            let pat = &self.plan.chase.plans[si].source;
            if pat.is_downward() {
                rows.grafted(&self.doc, pat, new_root);
            }
        }
        let selected = self.select(&region, parent);
        self.diff(&selected, new_root, true, true);
        Ok(())
    }

    /// Detaches the subtree rooted at `n`; the next read re-chases
    /// incrementally.
    pub fn delete_subtree(&mut self, n: NodeId) -> Result<(), String> {
        let Some(parent) = self.doc.parent(n) else {
            return Err("cannot delete the document root".into());
        };
        let mut region: BTreeSet<Name> = BTreeSet::new();
        for d in self.doc.descendants_or_self(n).collect::<Vec<_>>() {
            region.insert(self.doc.label(d).clone());
            self.violations.remove(&d);
            self.runs.remove(&d);
            self.live -= 1;
        }
        // The retracted embeddings are enumerated while the subtree is
        // still in place.
        let selected = self.select(&region, parent);
        self.diff(&selected, n, true, false);
        let at = self.doc.detach(n);
        for (si, rows) in self.rows.iter_mut().enumerate() {
            let pat = &self.plan.chase.plans[si].source;
            if pat.is_downward() {
                rows.detached(&self.doc, pat, parent, n);
            }
        }
        self.revalidate_edit(parent, at, false);
        if self.doc.size() - self.live > self.live {
            self.compact();
        }
        Ok(())
    }

    /// Overwrites one attribute value; the next read re-chases
    /// incrementally.
    pub fn replace_text(&mut self, n: NodeId, attr: &str, value: Value) -> Result<(), String> {
        if self.doc.attr(n, attr).is_none() {
            return Err(format!(
                "node has no attribute {attr:?} (label {})",
                self.doc.label(n)
            ));
        }
        let region: BTreeSet<Name> = [self.doc.label(n).clone()].into();
        let parent = self.doc.parent(n).unwrap_or(Tree::ROOT);
        let selected = self.select(&region, parent);
        // The embeddings through `n` are counted out under the old value
        // and back in under the new one. Attribute names and children are
        // untouched, so neither the rows nor conformance can change.
        self.diff(&selected, n, false, false);
        self.doc.set_attr(n, attr, value);
        self.diff(&selected, n, false, true);
        Ok(())
    }

    /// The canonical solution of the current document — or why none
    /// exists. Identical (bytes and verdict) to a from-scratch chase.
    ///
    /// The result is kept: until an update makes the next resync rewind or
    /// replay the arena, reads return the same [`Arc`] (or the same `≠`
    /// verdict) without re-running completion or materializing again.
    pub fn canonical_solution(&mut self) -> Result<Arc<Tree>, ChaseError> {
        if !self.violations.is_empty() {
            return Err(ChaseError::SourceNotConforming);
        }
        if let Some(e) = self.plan.chase.fragment_error() {
            return Err(e.clone());
        }
        self.resync();
        if let Some(e) = &self.error {
            return Err(e.clone());
        }
        if self.solution.is_none() {
            #[cfg(test)]
            {
                self.completions += 1;
            }
            self.solution = Some(self.arena.solution(&self.plan.chase).map(Arc::new));
        }
        self.solution.clone().expect("filled above")
    }

    /// Certain answers of a downward `query` over all solutions of the
    /// current document: the null-free matches on the canonical solution.
    pub fn certain_answers(
        &mut self,
        query: &Pattern,
    ) -> Result<Vec<Valuation>, CertainAnswersError> {
        if query.uses_next_sibling() || query.uses_following_sibling() {
            return Err(CertainAnswersError::OrderedQuery);
        }
        let canonical = self
            .canonical_solution()
            .map_err(CertainAnswersError::NoSolution)?;
        Ok(eval::all_matches(&canonical, query)
            .into_iter()
            .filter(|v| v.values().all(|x| x.is_constant()))
            .collect())
    }

    // ---- internals -----------------------------------------------------

    /// Re-checks one node's local DTD rule ([`xmlmap_dtd::Dtd::check_node`])
    /// and updates the violation set. The document conforms iff every
    /// reachable node passes — the same verdict as `Dtd::check`.
    fn revalidate(&mut self, n: NodeId) {
        #[cfg(test)]
        {
            self.steps += self.doc.children(n).len() as u64;
        }
        if self.mapping.source_dtd.check_node(&self.doc, n).is_ok() {
            self.violations.remove(&n);
        } else {
            self.violations.insert(n);
        }
    }

    /// Re-checks `parent` after its child `at` was inserted (`inserted`)
    /// or removed. A conforming parent keeps its label and attributes, so
    /// only its children word can change verdict: its kept run is spliced
    /// and re-stepped from the edit, or built on this first edit under
    /// it. A parent already in violation, a dead step or an unknown label
    /// falls back to [`IncrementalChase::revalidate`] and drops the run.
    fn revalidate_edit(&mut self, parent: NodeId, at: usize, inserted: bool) {
        if !self.violations.contains(&parent) {
            let dtd = &self.mapping.source_dtd;
            let doc = &self.doc;
            let nfa = dtd.content_model(
                dtd.label_id(doc.label(parent))
                    .expect("a conforming node's label is declared"),
            );
            let kids = doc.children(parent);
            let sym = |j: usize| dtd.label_id(doc.label(kids[j]));
            let run = match self.runs.remove(&parent) {
                Some(mut run) => {
                    let steps = if inserted {
                        run.insert(nfa, at, sym)
                    } else {
                        run.delete(nfa, at, sym)
                    };
                    #[cfg(test)]
                    {
                        self.steps += steps.unwrap_or(0) as u64;
                    }
                    steps.map(|_| run)
                }
                None => {
                    #[cfg(test)]
                    {
                        self.steps += kids.len() as u64;
                    }
                    ContentRun::new(nfa, (0..kids.len()).map(sym))
                }
            };
            if let Some(run) = run {
                // Only a conforming parent keeps its run.
                if run.accepts(nfa) {
                    self.runs.insert(parent, run);
                } else {
                    self.violations.insert(parent);
                }
                return;
            }
        }
        self.revalidate(parent);
    }

    /// Builds the rows of every std over the current document.
    fn build_rows(&mut self) {
        self.rows = self
            .plan
            .chase
            .plans
            .iter()
            .map(|p| LiveRows::new(&self.doc, &p.source))
            .collect();
    }

    /// Std `si`'s source pattern.
    fn source(&self, si: usize) -> &CompiledPattern {
        &self.plan.chase.plans[si].source
    }

    /// The refire frontier: selects the stds whose plans can reach the
    /// edited region, marks them dirty for the next resync and returns
    /// them.
    fn select(&mut self, region: &BTreeSet<Name>, edit_parent: NodeId) -> Vec<usize> {
        self.stats.updates += 1;
        // Horizontal patterns additionally observe sibling adjacency at
        // the edit point, so their region includes every child label of
        // the edit parent (computed lazily — only if some std needs it).
        let mut horizontal_region: Option<BTreeSet<Name>> = None;
        let mut selected = Vec::new();
        for (si, profile) in self.plan.profiles.iter().enumerate() {
            let touched = if !self.source(si).is_downward() {
                let wide = horizontal_region.get_or_insert_with(|| {
                    let mut wide = region.clone();
                    wide.extend(
                        self.doc
                            .children(edit_parent)
                            .iter()
                            .map(|&c| self.doc.label(c).clone()),
                    );
                    wide.insert(self.doc.label(edit_parent).clone());
                    wide
                });
                profile.touched(wide)
            } else {
                profile.touched(region)
            };
            if touched {
                self.dirty[si] = true;
                self.stats.refires += 1;
                selected.push(si);
            } else {
                self.stats.skips += 1;
            }
        }
        selected
    }

    /// Counts the embeddings through the edit at `n` — its subtree when
    /// `whole`, else `n` alone — in (`add`) or out, for every selected
    /// downward std. Horizontal stds wait for the read.
    fn diff(&mut self, selected: &[usize], n: NodeId, whole: bool, add: bool) {
        if selected.iter().all(|&si| !self.source(si).is_downward()) {
            return;
        }
        let mut path = vec![n];
        while let Some(p) = self.doc.parent(path[path.len() - 1]) {
            path.push(p);
        }
        path.reverse();
        for &si in selected {
            let chase = &self.plan.chase;
            let pat = &chase.plans[si].source;
            if !pat.is_downward() {
                continue;
            }
            let f = &mut self.firings[si];
            self.rows[si]
                .matcher(&self.doc, pat)
                .for_each_embedding_through(&path, whole, &mut |env| f.count(chase, si, env, add));
        }
    }

    /// Rebuilds std `si`'s counts from every embedding in the document,
    /// enumerated through its rows: the admitted keys, sorted, counted run
    /// by run.
    fn recount(&mut self, si: usize) {
        let chase = &self.plan.chase;
        let pat = &chase.plans[si].source;
        let matcher = self.rows[si].matcher(&self.doc, pat);
        let f = &mut self.firings[si];
        let mut keys: Vec<Key> = Vec::new();
        matcher.for_each_match_dense(Tree::ROOT, &vec![None; pat.var_count()], &mut |env| {
            if chase.admits_env(si, env) {
                keys.push(f.key_of(env).into());
            }
            true
        });
        keys.sort_unstable();
        let mut runs: Vec<(Key, u32)> = Vec::with_capacity(keys.len());
        for key in keys {
            match runs.last_mut() {
                Some((last, n)) if *last == key => *n += 1,
                _ => runs.push((key, 1)),
            }
        }
        f.counts = runs.into_iter().collect();
        f.rescanned = true;
    }

    /// Drops the detached subtrees from the document's arena: the
    /// reachable nodes are renumbered in document order, and the violation
    /// set and kept rows follow them.
    fn compact(&mut self) {
        // Release the old rows before the document moves, so the two
        // generations never coexist.
        self.rows.clear();
        let renumber = self.doc.compact();
        self.violations = std::mem::take(&mut self.violations)
            .into_iter()
            .map(|old| renumber[old.index()].expect("violations are reachable"))
            .collect();
        self.runs = std::mem::take(&mut self.runs)
            .into_iter()
            .map(|(old, run)| (renumber[old.index()].expect("runs are reachable"), run))
            .collect();
        self.build_rows();
    }

    /// Rebuilds the rows of each dirty horizontal std and re-counts it,
    /// finds every dirty std's first changed firing, clears the marks,
    /// splices the changes into the applied sequences in place and replays
    /// the arena from the longest unchanged prefix. A no-op when nothing
    /// is dirty.
    fn resync(&mut self) {
        if !self.dirty.contains(&true) {
            return;
        }
        let mut changes: Vec<(usize, Key)> = Vec::new();
        for si in 0..self.dirty.len() {
            if !std::mem::take(&mut self.dirty[si]) {
                continue;
            }
            if !self.source(si).is_downward() {
                self.rows[si] = LiveRows::new(&self.doc, self.source(si));
                self.recount(si);
            }
            if let Some(k) = self.firings[si].first_change() {
                changes.push((si, k));
            }
        }
        // The longest common prefix of the old and new std-major
        // sequences: every std before the first changed one, then that
        // std's keys below its first change.
        let before = |fs: &[StdFirings], si: usize| -> usize {
            fs[..si].iter().map(|f| f.applied.len()).sum()
        };
        let lcp = match changes.first() {
            Some((si, k)) => {
                before(&self.firings, *si) + self.firings[*si].applied.partition_point(|a| a < k)
            }
            None => before(&self.firings, self.firings.len()),
        };
        let lcp = lcp.min(self.arena.epochs());
        for (si, k) in changes {
            let f = &mut self.firings[si];
            let keep = f.applied.partition_point(|a| *a < k);
            f.applied.truncate(keep);
            f.applied
                .extend(f.counts.range(k..).map(|(key, _)| key.clone()));
        }
        // The kept solution stands only if the arena does: nothing to
        // rewind, nothing to replay and no stored error to retry.
        let total = before(&self.firings, self.firings.len());
        if lcp < self.arena.epochs() || lcp < total || self.error.is_some() {
            self.solution = None;
        }
        self.arena.rewind_to(lcp);
        self.error = None;
        // Replay from epoch `lcp`: find its std and offset, then run on.
        let (mut si, mut at) = (0, lcp);
        while si < self.firings.len() && at >= self.firings[si].applied.len() {
            at -= self.firings[si].applied.len();
            si += 1;
        }
        let mut tuple: Vec<&Value> = Vec::new();
        for (si, f) in self.firings.iter().enumerate().skip(si) {
            // Key position of each variable id: keys back into tuples.
            let mut position = vec![0; f.order.len()];
            for (j, &v) in f.order.iter().enumerate() {
                position[v] = j;
            }
            for key in &f.applied[std::mem::take(&mut at)..] {
                tuple.clear();
                tuple.extend(position.iter().map(|&j| &key[j]));
                if let Err(e) = self.arena.apply_firing(&self.plan.chase, si, &tuple) {
                    self.error = Some(e);
                    return;
                }
                self.stats.replays += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chase::canonical_solution;
    use crate::stds::Std;
    use xmlmap_dtd::Dtd;
    use xmlmap_trees::tree;

    fn dtd(s: &str) -> Dtd {
        xmlmap_dtd::parse(s).unwrap()
    }

    fn mapping(ds: &str, dt: &str, stds: &[&str]) -> Mapping {
        Mapping::new(
            dtd(ds),
            dtd(dt),
            stds.iter().map(|s| Std::parse(s).unwrap()).collect(),
        )
    }

    /// The session must agree with a from-scratch chase of its current
    /// document — byte-identically, error verdicts included.
    fn assert_in_sync(s: &mut IncrementalChase) {
        let fresh = canonical_solution(&s.mapping, s.doc());
        let inc = s.canonical_solution();
        match (&inc, &fresh) {
            (Ok(a), Ok(b)) => assert_eq!(**a, *b, "delta solution diverged"),
            (Err(a), Err(b)) => assert_eq!(a, b, "delta error verdict diverged"),
            _ => panic!("delta {inc:?} vs fresh {fresh:?}"),
        }
    }

    #[test]
    fn inserts_deletes_and_text_edits_track_the_full_chase() {
        let m = mapping(
            "root r\nr -> a*\na @ v",
            "root r\nr -> b*\nb @ w",
            &["r/a(x) --> r/b(x)"],
        );
        let doc = tree!("r" [ "a"("v" = "1"), "a"("v" = "2") ]);
        let mut s = IncrementalChase::new(&m, doc);
        assert_in_sync(&mut s);

        s.insert_subtree(Tree::ROOT, 1, &tree!("a"("v" = "9")))
            .unwrap();
        assert_in_sync(&mut s);
        assert_eq!(
            s.canonical_solution().unwrap().children(Tree::ROOT).len(),
            3
        );

        let second = s.doc().children(Tree::ROOT)[1];
        s.delete_subtree(second).unwrap();
        assert_in_sync(&mut s);

        let first = s.doc().children(Tree::ROOT)[0];
        s.replace_text(first, "v", Value::str("7")).unwrap();
        assert_in_sync(&mut s);
    }

    #[test]
    fn conformance_verdicts_follow_updates() {
        let m = mapping(
            "root r\nr -> a*\na @ v",
            "root r\nr -> b*\nb @ w",
            &["r/a(x) --> r/b(x)"],
        );
        let mut s = IncrementalChase::new(&m, tree!("r"["a"("v" = "1")]));
        // A foreign label breaks conformance...
        s.insert_subtree(Tree::ROOT, 0, &tree!("zzz")).unwrap();
        assert!(!s.source_conforms());
        assert_in_sync(&mut s);
        // ...and deleting it restores the old state exactly.
        let bad = s.doc().children(Tree::ROOT)[0];
        s.delete_subtree(bad).unwrap();
        assert!(s.source_conforms());
        assert_in_sync(&mut s);
    }

    #[test]
    fn retracting_a_unification_splits_slot_cursors() {
        // Two stds funnel values into the same non-repeatable b: deleting
        // one source record must retract its unification.
        let m = mapping(
            "root r\nr -> a*\na @ v",
            "root r\nr -> b\nb @ w",
            &["r/a(x) --> r/b(x)"],
        );
        let doc = tree!("r" [ "a"("v" = "1"), "a"("v" = "1") ]);
        let mut s = IncrementalChase::new(&m, doc);
        assert_in_sync(&mut s);
        // A conflicting value: the chase must now fail...
        s.insert_subtree(Tree::ROOT, 2, &tree!("a"("v" = "2")))
            .unwrap();
        assert!(matches!(
            s.canonical_solution(),
            Err(ChaseError::ValueConflict(_))
        ));
        assert_in_sync(&mut s);
        // ...and deleting the conflicting record heals the session.
        let third = s.doc().children(Tree::ROOT)[2];
        s.delete_subtree(third).unwrap();
        assert_in_sync(&mut s);
        assert!(s.canonical_solution().is_ok());
    }

    #[test]
    fn untouched_stds_are_skipped() {
        let m = mapping(
            "root r\nr -> a*, c*\na @ v\nc @ w",
            "root r\nr -> b*\nb @ w",
            &["r/a(x) --> r/b(x)"],
        );
        let doc = tree!("r" [ "a"("v" = "1"), "c"("w" = "9") ]);
        let mut s = IncrementalChase::new(&m, doc);
        let before = s.stats();
        // Editing a c record cannot touch the a-pattern.
        let c = s.doc().children(Tree::ROOT)[1];
        s.replace_text(c, "w", Value::str("8")).unwrap();
        let after = s.stats();
        assert_eq!(after.skips, before.skips + 1);
        assert_eq!(after.refires, before.refires);
        assert_in_sync(&mut s);
    }

    #[test]
    fn a_delete_and_identical_reinsert_between_reads_replays_nothing() {
        let m = mapping(
            "root r\nr -> a*, c*\na @ v\nc @ w",
            "root r\nr -> b*\nb @ w",
            &["r/a(x) --> r/b(x)", "r/c(y) --> r/b(y)"],
        );
        let doc = tree!("r" [ "a"("v" = "1"), "a"("v" = "2"), "c"("w" = "3") ]);
        let mut s = IncrementalChase::new(&m, doc);
        assert_in_sync(&mut s);
        let before = s.stats();
        let first = s.doc().children(Tree::ROOT)[0];
        let copy = s.doc().subtree(first);
        s.delete_subtree(first).unwrap();
        s.insert_subtree(Tree::ROOT, 0, &copy).unwrap();
        // Both edits selected the a-std and skipped the c-std, as the
        // frontier always has; the selections share one dirty mark...
        let after = s.stats();
        assert_eq!(after.refires, before.refires + 2);
        assert_eq!(after.skips, before.skips + 2);
        assert_eq!(s.dirty, [true, false]);
        // ...so the read re-enumerates the a-std once, finds the applied
        // firing sequence unchanged and replays nothing.
        assert_in_sync(&mut s);
        assert_eq!(s.dirty, [false, false]);
        assert_eq!(s.stats().replays, before.replays);
        assert_eq!(s.stats().refires, after.refires);
    }

    #[test]
    fn delete_reinsert_churn_keeps_the_arena_bounded() {
        let m = mapping(
            "root r\nr -> a*, c*\na -> b*\na @ v\nb @ w\nc @ u",
            "root r\nr -> d*\nd @ p, q",
            &["r/a(x)/b(y) --> r/d(x, y)"],
        );
        let mut doc = Tree::new("r");
        for i in 0..20 {
            let a = doc.add_child(Tree::ROOT, "a", [("v", Value::str(format!("a{i}")))]);
            for j in 0..2 {
                doc.add_child(a, "b", [("w", Value::str(format!("b{i}_{j}")))]);
            }
        }
        for i in 0..50 {
            doc.add_child(Tree::ROOT, "c", [("u", Value::str(format!("c{i}")))]);
        }
        let reachable = doc.size();
        let mut s = IncrementalChase::new(&m, doc);
        let before = s.canonical_solution().unwrap();
        let mut peak = 0;
        for k in 0..5_000 {
            let i = k * 7 % 20;
            let copy = s.doc().subtree(s.doc().children(Tree::ROOT)[i]);
            s.apply(&Update::DeleteSubtree { path: vec![i] }).unwrap();
            s.apply(&Update::InsertSubtree {
                parent: Vec::new(),
                pos: i,
                subtree: copy,
            })
            .unwrap();
            peak = peak.max(s.doc().size());
        }
        // Compaction keeps detached nodes at most as many as reachable
        // ones (plus the one subtree a reinsert adds before the next delete).
        assert!(peak <= 2 * reachable + 3, "arena grew to {peak}");
        assert_eq!(s.doc().nodes().count(), reachable);
        assert_eq!(s.canonical_solution().unwrap(), before);
        assert_in_sync(&mut s);
    }

    #[test]
    fn reads_share_the_kept_solution_until_a_replay() {
        let m = mapping(
            "root r\nr -> a*, c*\na @ v\nc @ w",
            "root r\nr -> b*\nb @ w",
            &["r/a(x) --> r/b(x)"],
        );
        let doc = tree!("r" [ "a"("v" = "1"), "a"("v" = "2"), "c"("w" = "3") ]);
        let mut s = IncrementalChase::new(&m, doc);
        let first = s.canonical_solution().unwrap();
        // A skipped text edit and a delete + identical reinsert replay
        // nothing, so the next read returns the kept solution...
        let c = s.doc().children(Tree::ROOT)[2];
        s.replace_text(c, "w", Value::str("4")).unwrap();
        let a = s.doc().children(Tree::ROOT)[0];
        let copy = s.doc().subtree(a);
        s.delete_subtree(a).unwrap();
        s.insert_subtree(Tree::ROOT, 0, &copy).unwrap();
        let completions = s.completions;
        let second = s.canonical_solution().unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(s.completions, completions, "the read ran no completion");
        // ...and a replaying commit reads a fresh one.
        let replays = s.stats().replays;
        s.insert_subtree(Tree::ROOT, 2, &tree!("a"("v" = "9")))
            .unwrap();
        let third = s.canonical_solution().unwrap();
        assert!(s.stats().replays > replays);
        assert!(!Arc::ptr_eq(&second, &third));
        assert_eq!(third.children(Tree::ROOT).len(), 3);
        assert_in_sync(&mut s);
    }

    #[test]
    fn an_inequality_verdict_is_kept_until_its_conflict_is_retracted() {
        // `b` is unique: every a-value lands in its x, every c-value in
        // its y, and x ≠ y must hold at the read.
        let m = mapping(
            "root r\nr -> a*, c*\na @ v\nc @ w",
            "root r\nr -> b\nb @ x, y",
            &["r/a(x) --> r/b(x, z) ; z != x", "r/c(y) --> r/b(u, y)"],
        );
        let mut s = IncrementalChase::new(&m, tree!("r"["a"("v" = "1")]));
        assert!(s.canonical_solution().is_ok());
        s.insert_subtree(Tree::ROOT, 1, &tree!("c"("w" = "1")))
            .unwrap();
        let violated = s.canonical_solution();
        assert!(
            matches!(violated, Err(ChaseError::InequalityViolated(_))),
            "{violated:?}"
        );
        assert_in_sync(&mut s);
        let completions = s.completions;
        assert_eq!(s.canonical_solution(), violated, "the verdict is kept");
        assert_eq!(s.completions, completions);
        let c = s.doc().children(Tree::ROOT)[1];
        s.delete_subtree(c).unwrap();
        assert!(s.canonical_solution().is_ok(), "the conflict is retracted");
        assert_in_sync(&mut s);
    }

    /// 20 professors with two students each, then `pads` inert records,
    /// all under the root: the root's children word is `prof*, pad*`.
    fn padded(pads: usize) -> (Mapping, Tree) {
        let m = mapping(
            "root r\nr -> prof*, pad*\nprof -> student*\nprof @ name\nstudent @ sid\npad @ a",
            "root r\nr -> st*\nst @ s, p",
            &["r/prof(x)/student(s) --> r/st(s, x)"],
        );
        let mut doc = Tree::new("r");
        for p in 0..20 {
            let prof = doc.add_child(Tree::ROOT, "prof", [("name", Value::str(format!("p{p}")))]);
            for k in 0..2 {
                doc.add_child(prof, "student", [("sid", Value::str(format!("s{p}_{k}")))]);
            }
        }
        for i in 0..pads {
            doc.add_child(
                Tree::ROOT,
                "pad",
                [("a", Value::str(format!("a{}", i % 10)))],
            );
        }
        (m, doc)
    }

    /// Content-model steps of one professor delete + identical reinsert
    /// and its read, on a session whose root already has its run.
    fn professor_commit_steps(pads: usize) -> u64 {
        let (m, doc) = padded(pads);
        let mut s = IncrementalChase::new(&m, doc);
        let commit = |s: &mut IncrementalChase| {
            let prof = s.doc().children(Tree::ROOT)[5];
            let copy = s.doc().subtree(prof);
            s.delete_subtree(prof).unwrap();
            s.insert_subtree(Tree::ROOT, 5, &copy).unwrap();
            s.canonical_solution().unwrap()
        };
        // The first edit under the root builds its run.
        let warm = commit(&mut s);
        let (steps, completions, replays) = (s.steps, s.completions, s.stats().replays);
        let read = commit(&mut s);
        assert!(Arc::ptr_eq(&warm, &read), "the commit replayed nothing");
        assert_eq!(s.stats().replays, replays);
        assert_eq!(s.completions, completions, "the read ran no completion");
        s.steps - steps
    }

    #[test]
    fn a_professor_commit_costs_the_same_steps_at_any_width() {
        let narrow = professor_commit_steps(1_000);
        assert_eq!(narrow, professor_commit_steps(100_000));
        assert!(
            narrow < 1_000,
            "{narrow} steps: the root word was rescanned"
        );
    }

    #[test]
    fn update_script_round_trips() {
        let script = "\
# storm
insert . 0 <a v=\"5\"/>
settext 0 v 6
delete 0
";
        let ups = parse_updates(script).unwrap();
        assert_eq!(ups.len(), 3);
        let m = mapping(
            "root r\nr -> a*\na @ v",
            "root r\nr -> b*\nb @ w",
            &["r/a(x) --> r/b(x)"],
        );
        let mut s = IncrementalChase::new(&m, tree!("r"["a"("v" = "1")]));
        assert_eq!(s.apply_all(&ups).unwrap(), 3);
        assert_in_sync(&mut s);
        assert!(parse_updates("bogus . 0").is_err());
        assert!(parse_updates("insert x 0 <a/>").is_err());
        assert!(s.apply(&Update::DeleteSubtree { path: vec![7] }).is_err());
    }

    #[test]
    fn updates_under_an_out_of_fragment_mapping_keep_the_fragment_error() {
        let m = mapping(
            "root r\nr -> a*\na @ v",
            "root r\nr -> b*\nb @ w",
            &["r/a(x) --> r//b(x)"],
        );
        let mut s = IncrementalChase::new(&m, tree!("r"["a"("v" = "1")]));
        assert_in_sync(&mut s);
        s.insert_subtree(Tree::ROOT, 0, &tree!("a"("v" = "2")))
            .unwrap();
        assert!(matches!(
            s.canonical_solution(),
            Err(ChaseError::OutsideFragment(_))
        ));
        assert_in_sync(&mut s);
    }
}
