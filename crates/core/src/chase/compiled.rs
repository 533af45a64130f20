//! The compiled chase engine.
//!
//! Same three steps as [`super::reference`], restructured around three ideas
//! (DESIGN.md §8.2):
//!
//! * **compiled firing enumeration** — each std's source pattern is
//!   compiled once per mapping; firings come out of the pattern kernel's
//!   dense match-enumeration hook
//!   ([`Matcher::all_match_tuples`](xmlmap_patterns::Matcher::all_match_tuples))
//!   as borrowed value tuples, filtered by source conditions translated to
//!   interned variable ids, std by std on the calling thread;
//! * **union-find unification and arena construction** — the firings are
//!   applied to the shared chase arena (`chase::arena`), whose union-find
//!   of labelled nulls over interned constants makes each unification a
//!   near-O(1) merge, detects `ValueConflict` the moment two distinct
//!   constant classes meet, and checks the deferred `≠` obligations once
//!   against class representatives. The partial document is a flat arena
//!   keyed by `(parent, slot)`, with slot cursors taken from the target
//!   DTD's productions; completion is one ordered sweep that appends
//!   missing mandatory children instead of re-scanning child lists. The
//!   streaming chase and the incremental delta-chase drive the same arena;
//! * **plan compilation** — the fully-specified target pattern of each std
//!   is flattened into a per-mapping instruction sequence (create/reuse a
//!   slot child, unify attribute classes) so the per-firing walk does no
//!   pattern traversal, slot lookup, or variable hashing. All of it lives
//!   in a reusable [`ChaseCache`].
//!
//! The engine replays the reference's traversal order exactly (stds in
//! order, firings in the kernel's sorted order, pattern nodes in preorder),
//! so both engines fail on the same step with the same [`ChaseError`]
//! variant; successful outputs are isomorphic up to null renaming. One
//! deliberate difference: source values are treated as opaque constants
//! even when they are labelled nulls — chasing null-valued sources is
//! outside both engines' contract (the reference would conflate them with
//! its own fresh nulls).

use super::arena::ChaseArena;
use super::ChaseError;
use crate::cond::CompOp;
use crate::stds::Mapping;
use std::borrow::Borrow;
use std::collections::HashMap;
use xmlmap_dtd::Mult;
use xmlmap_patterns::{CompiledPattern, LabelTest, ListItem, Matcher, Pattern, Var};
use xmlmap_trees::{Name, Tree, Value};

/// Per-mapping compiled state for the chase: compiled std source patterns,
/// target-pattern instruction plans, α′₌ variable classes, and the target
/// DTD's slot tables.
///
/// Mirrors how `SatCache` (consistency) and `ShapeCache` (bounded search)
/// amortize per-schema analysis: one cache per [`Mapping`], built once by
/// [`EngineContext::chase_cache`](crate::EngineContext::chase_cache) and
/// read by every chase under that mapping — certain answers, solution
/// reduction, composition membership, the bounded absolute-consistency
/// oracle, the streaming chase and the incremental delta chase.
pub struct ChaseCache {
    /// Static fragment error (not nested-relational / not tree-shaped /
    /// not fully specified), reported before any firing is examined —
    /// in the same order the reference engine checks.
    pub(super) fragment_err: Option<ChaseError>,
    /// Slot tables and attribute lists per target label.
    pub(super) labels: Vec<LabelInfo>,
    /// Index of the target DTD's root label in `labels`.
    pub(super) root: u32,
    /// One compiled plan per std, in mapping order.
    pub(super) plans: Vec<StdPlan>,
}

/// Slot table for one target label: the nested-relational production as an
/// ordered list of `(child label, multiplicity)` cursors, plus the label's
/// attribute names.
pub(super) struct LabelInfo {
    pub(super) name: Name,
    pub(super) attrs: Vec<Name>,
    /// `(labels index of the child, multiplicity)`, in production order.
    pub(super) slots: Vec<(u32, Mult)>,
}

/// Compiled form of one std: source matcher inputs, α′₌ classes, and the
/// flattened target-instantiation program.
pub(super) struct StdPlan {
    pub(super) source: CompiledPattern,
    /// Source conditions over interned source-variable ids; `None` marks a
    /// comparison over a variable the pattern never binds — it never
    /// holds, so the std has no firings at all.
    pub(super) src_conds: Vec<Option<(CompOp, u32, u32)>>,
    /// For each target-pattern variable in first-occurrence order: its α′₌
    /// class and, if shared with the source pattern, the source id.
    pub(super) tvar_classes: Vec<(u32, Option<u32>)>,
    /// Number of α′₌ classes (over target-pattern and condition variables).
    pub(super) class_count: u32,
    /// `≠` obligations in class space, with their display form.
    pub(super) neqs: Vec<(u32, u32, String)>,
    /// Root-label error (wildcard root / root mismatch), raised when the
    /// std first fires — after the firing's α′₌ resolution, like the
    /// reference.
    pub(super) pre_fail: Option<ChaseError>,
    /// Instantiation program, in the reference's preorder traversal order.
    pub(super) ops: Vec<PlanOp>,
    /// Number of plan nodes (target-pattern nodes); node 0 is the root.
    pub(super) plan_nodes: u32,
}

impl StdPlan {
    /// Does a match tuple pass the std's source conditions? A condition
    /// over a variable the pattern never binds admits nothing.
    fn admits<V: Borrow<Value>>(&self, t: &[V]) -> bool {
        self.admits_by(|i| t[i].borrow())
    }

    /// [`StdPlan::admits`] over a tuple read through `value`.
    fn admits_by<'v>(&self, value: impl Fn(usize) -> &'v Value) -> bool {
        self.src_conds.iter().all(|c| {
            c.is_some_and(|(op, l, r)| {
                let (a, b) = (value(l as usize), value(r as usize));
                match op {
                    CompOp::Eq => a == b,
                    CompOp::Neq => a != b,
                }
            })
        })
    }
}

/// One step of a firing's instantiation walk.
pub(super) enum PlanOp {
    /// Unify the α′₌ class values `classes[k]` into attribute slot `k` of
    /// the arena node bound to plan node `node`.
    Unify { node: u32, classes: Box<[u32]> },
    /// Bind plan node `node`: in slot `slot` under the arena node bound to
    /// plan node `parent`, create a fresh child (`repeatable`) or reuse
    /// the existing one (creating it if absent).
    Child {
        parent: u32,
        node: u32,
        label: u32,
        slot: u32,
        repeatable: bool,
    },
    /// A statically-known failure at this traversal position (attribute
    /// arity mismatch, missing slot, wildcard/descendant sub-pattern).
    Fail(ChaseError),
}

impl ChaseCache {
    /// Compiles the chase tables for `m`.
    pub fn new(m: &Mapping) -> ChaseCache {
        let poisoned = |e: ChaseError| ChaseCache {
            fragment_err: Some(e),
            labels: Vec::new(),
            root: 0,
            plans: Vec::new(),
        };
        let Some(nr) = m.target_dtd.nested_relational() else {
            return poisoned(ChaseError::OutsideFragment(
                "target DTD is not nested-relational".into(),
            ));
        };
        if !nr.is_tree_shaped() {
            return poisoned(ChaseError::OutsideFragment(
                "target DTD is not tree-shaped".into(),
            ));
        }
        for s in &m.stds {
            if !s.target.is_fully_specified() {
                return poisoned(ChaseError::OutsideFragment(format!(
                    "target pattern of `{s}` is not fully specified"
                )));
            }
        }

        // Label table with slot cursors from the productions.
        let mut labels: Vec<LabelInfo> = Vec::new();
        let mut index: HashMap<Name, u32> = HashMap::new();
        for l in m.target_dtd.alphabet() {
            index.entry(l.clone()).or_insert_with(|| {
                labels.push(LabelInfo {
                    name: l.clone(),
                    attrs: m.target_dtd.attrs(l).to_vec(),
                    slots: Vec::new(),
                });
                (labels.len() - 1) as u32
            });
        }
        for info in labels.iter_mut() {
            info.slots = nr
                .slots(&info.name.clone())
                .iter()
                .map(|(l, mult)| (index[l], *mult))
                .collect();
        }
        let root = index[m.target_dtd.root()];

        let plans = m
            .stds
            .iter()
            .enumerate()
            .map(|(si, s)| {
                let source = CompiledPattern::new(&s.source);
                let src_conds = s
                    .source_cond
                    .iter()
                    .map(
                        |c| match (source.var_id(&c.left), source.var_id(&c.right)) {
                            (Some(l), Some(r)) => Some((c.op, l, r)),
                            _ => None,
                        },
                    )
                    .collect();

                // α′₌ classes over target-pattern and condition variables
                // (the partition matches the reference's `firing_values`).
                let tvars = s.target.variables();
                let mut var_ix: HashMap<&Var, usize> = HashMap::new();
                for v in tvars
                    .iter()
                    .chain(s.target_cond.iter().flat_map(|c| [&c.left, &c.right]))
                {
                    let next = var_ix.len();
                    var_ix.entry(v).or_insert(next);
                }
                // Each variable's class label; an equality relabels one
                // class into the other (a std has a handful of variables).
                let mut label: Vec<usize> = (0..var_ix.len()).collect();
                for c in s.target_cond.iter().filter(|c| c.op == CompOp::Eq) {
                    let (a, b) = (label[var_ix[&c.left]], label[var_ix[&c.right]]);
                    label.iter_mut().filter(|l| **l == a).for_each(|l| *l = b);
                }
                let mut class_of_label: HashMap<usize, u32> = HashMap::new();
                let mut class_count = 0u32;
                let mut class_for = |ix: usize| -> u32 {
                    *class_of_label.entry(label[ix]).or_insert_with(|| {
                        class_count += 1;
                        class_count - 1
                    })
                };
                let tvar_classes: Vec<(u32, Option<u32>)> = tvars
                    .iter()
                    .map(|v| (class_for(var_ix[v]), source.var_id(v)))
                    .collect();
                let neqs: Vec<(u32, u32, String)> = s
                    .target_cond
                    .iter()
                    .filter(|c| c.op == CompOp::Neq)
                    .map(|c| {
                        (
                            class_for(var_ix[&c.left]),
                            class_for(var_ix[&c.right]),
                            format!("std #{si}: {c}"),
                        )
                    })
                    .collect();
                let class_of_var: HashMap<&Var, u32> =
                    tvars.iter().map(|v| (v, class_for(var_ix[v]))).collect();

                let pre_fail = match &s.target.label {
                    LabelTest::Wildcard => {
                        Some(ChaseError::OutsideFragment("wildcard root".into()))
                    }
                    LabelTest::Label(l) if l != m.target_dtd.root() => {
                        Some(ChaseError::NotEmbeddable(format!(
                            "target pattern of std #{si} is rooted at {l}, \
                             the target DTD root is {}",
                            m.target_dtd.root()
                        )))
                    }
                    LabelTest::Label(_) => None,
                };

                let mut ops = Vec::new();
                let mut plan_nodes = 1u32;
                emit_ops(
                    &s.target,
                    0,
                    root,
                    &labels,
                    &class_of_var,
                    &mut plan_nodes,
                    &mut ops,
                );
                StdPlan {
                    source,
                    src_conds,
                    tvar_classes,
                    class_count,
                    neqs,
                    pre_fail,
                    ops,
                    plan_nodes,
                }
            })
            .collect();

        ChaseCache {
            fragment_err: None,
            labels,
            root,
            plans,
        }
    }

    /// The static fragment error, if the mapping is outside the chase
    /// fragment (reported before any firing is examined).
    pub(crate) fn fragment_error(&self) -> Option<&ChaseError> {
        self.fragment_err.as_ref()
    }

    /// Number of std plans (one per std of the source mapping, in order).
    pub(crate) fn std_count(&self) -> usize {
        self.plans.len()
    }

    /// Filters externally-enumerated match tuples of std `i` by the std's
    /// source conditions and canonicalises the result — sorted in
    /// alphabetical variable order, deduplicated — exactly the firing
    /// sequence [`canonical_solution_cached`] obtains from the arena
    /// kernel. Tuples are indexed by the source pattern's interned
    /// variable ids.
    pub(crate) fn canonical_firings(
        &self,
        i: usize,
        mut tuples: Vec<Box<[Value]>>,
    ) -> Vec<Box<[Value]>> {
        let p = &self.plans[i];
        tuples.retain(|t| p.admits(t));
        let perm = self.key_order(i);
        tuples.sort_unstable_by(|a, b| {
            perm.iter()
                .map(|&i| a[i].cmp(&b[i]))
                .find(|c| *c != std::cmp::Ordering::Equal)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        tuples.dedup();
        tuples
    }

    /// Std `i`'s key order: its source variable ids sorted by variable
    /// name. A tuple read in this order is the firing's sort key — the
    /// kernel's row order is value order under this permutation (see
    /// `Matcher::all_match_tuples`).
    pub(crate) fn key_order(&self, i: usize) -> Vec<usize> {
        let vars = self.plans[i].source.vars();
        let mut perm: Vec<usize> = (0..vars.len()).collect();
        perm.sort_by(|&a, &b| vars[a].cmp(&vars[b]));
        perm
    }

    /// Does a complete dense valuation of std `i`'s source pattern pass
    /// the std's source conditions?
    pub(crate) fn admits_env(&self, i: usize, env: &[Option<&Value>]) -> bool {
        self.plans[i].admits_by(|v| env[v].expect("a complete match binds every variable"))
    }

    /// Approximate heap footprint in bytes: slot/attribute tables, compiled
    /// source patterns, and every plan's instruction sequence.
    pub fn approx_bytes(&self) -> u64 {
        let labels: u64 = self
            .labels
            .iter()
            .map(|info| {
                info.name.as_str().len() as u64
                    + info
                        .attrs
                        .iter()
                        .map(|a| a.as_str().len() as u64 + 24)
                        .sum::<u64>()
                    + info.slots.capacity() as u64 * 8
                    + 72
            })
            .sum();
        let plans: u64 = self
            .plans
            .iter()
            .map(|p| {
                p.source.approx_bytes()
                    + p.src_conds.capacity() as u64 * 16
                    + p.tvar_classes.capacity() as u64 * 12
                    + p.neqs
                        .iter()
                        .map(|(_, _, w)| w.len() as u64 + 32)
                        .sum::<u64>()
                    + p.ops
                        .iter()
                        .map(|op| match op {
                            PlanOp::Unify { classes, .. } => 32 + classes.len() as u64 * 4,
                            PlanOp::Child { .. } => 32,
                            PlanOp::Fail(_) => 64,
                        })
                        .sum::<u64>()
                    + 128
            })
            .sum();
        labels + plans + 64
    }
}

/// Flattens `pat` (rooted at plan node `node`, embedded at target label
/// `label`) into instantiation ops, in the reference engine's traversal
/// order. Returns `false` once a static failure op is emitted — everything
/// after it would be unreachable.
fn emit_ops(
    pat: &Pattern,
    node: u32,
    label: u32,
    labels: &[LabelInfo],
    class_of_var: &HashMap<&Var, u32>,
    plan_nodes: &mut u32,
    ops: &mut Vec<PlanOp>,
) -> bool {
    let info = &labels[label as usize];
    if !pat.vars.is_empty() {
        if pat.vars.len() != info.attrs.len() {
            ops.push(PlanOp::Fail(ChaseError::NotEmbeddable(format!(
                "pattern node {pat} has {} variables but element {} has {} attributes",
                pat.vars.len(),
                info.name,
                info.attrs.len()
            ))));
            return false;
        }
        ops.push(PlanOp::Unify {
            node,
            classes: pat.vars.iter().map(|v| class_of_var[v]).collect(),
        });
    }
    for item in &pat.list {
        let ListItem::Seq { members, .. } = item else {
            ops.push(PlanOp::Fail(ChaseError::OutsideFragment(
                "descendant items are not fully specified".into(),
            )));
            return false;
        };
        // Fully-specified patterns have single-member sequences.
        let child = &members[0];
        let LabelTest::Label(l) = &child.label else {
            ops.push(PlanOp::Fail(ChaseError::OutsideFragment(
                "wildcard label".into(),
            )));
            return false;
        };
        let Some((slot, &(clabel, mult))) = info
            .slots
            .iter()
            .enumerate()
            .find(|(_, (ci, _))| labels[*ci as usize].name == *l)
        else {
            ops.push(PlanOp::Fail(ChaseError::NotEmbeddable(format!(
                "{l} is not a child slot of {}",
                info.name
            ))));
            return false;
        };
        let cnode = *plan_nodes;
        *plan_nodes += 1;
        ops.push(PlanOp::Child {
            parent: node,
            node: cnode,
            label: clabel,
            slot: slot as u32,
            repeatable: mult.repeatable(),
        });
        if !emit_ops(child, cnode, clabel, labels, class_of_var, plan_nodes, ops) {
            return false;
        }
    }
    true
}

/// Builds the canonical solution of `source` under `m`, or proves none
/// exists. Fragment: fully-specified stds, nested-relational tree-shaped
/// target DTD; source conditions only filter firings.
///
/// Compiles a fresh [`ChaseCache`] on every call;
/// [`EngineContext::canonical_solution`](crate::EngineContext::canonical_solution)
/// compiles it once per mapping. This free form stays public only because
/// the benchmark's daemon workload calls it (ROADMAP item 14 moves that
/// caller onto the context).
pub fn canonical_solution(m: &Mapping, source: &Tree) -> Result<Tree, ChaseError> {
    canonical_solution_cached(m, source, &ChaseCache::new(m))
}

/// [`canonical_solution`] against a [`ChaseCache`] built from the same
/// mapping `m`.
pub(crate) fn canonical_solution_cached(
    m: &Mapping,
    source: &Tree,
    cache: &ChaseCache,
) -> Result<Tree, ChaseError> {
    if !m.source_dtd.conforms(source) {
        return Err(ChaseError::SourceNotConforming);
    }
    if let Some(e) = &cache.fragment_err {
        return Err(e.clone());
    }
    debug_assert_eq!(
        cache.plans.len(),
        m.stds.len(),
        "cache built from another mapping"
    );

    // Step 1a: firing enumeration through the compiled kernel, std by std.
    // The instantiation in `chase_firings` mutates one shared partial
    // document, and firing order is what makes the construction
    // deterministic.
    let firings: Vec<Vec<Vec<&Value>>> = cache
        .plans
        .iter()
        .map(|p| {
            if p.src_conds.iter().any(Option::is_none) {
                return Vec::new(); // a condition that can never hold
            }
            let mut tuples = Matcher::new(source, &p.source).all_match_tuples();
            tuples.retain(|t| p.admits(t));
            tuples
        })
        .collect();

    let tree = chase_firings(cache, &firings)?;
    debug_assert!(m.target_dtd.conforms(&tree), "chase output must conform");
    Ok(tree)
}

/// [`canonical_solution_cached`] for callers that enumerated the firings
/// themselves — e.g. the streaming chase, which never materialises the
/// source tree. `per_std[i]` holds std `i`'s raw match tuples (indexed by
/// the source pattern's interned variable ids, any order); they are
/// filtered and canonicalised by [`ChaseCache::canonical_firings`] before
/// instantiation, so the construction — null labels included — is
/// identical to the tree-side chase on the same document.
///
/// The caller is responsible for the checks that precede firing
/// enumeration: source conformance and [`ChaseCache::fragment_error`].
pub(crate) fn canonical_solution_from_firings(
    cache: &ChaseCache,
    per_std: Vec<Vec<Box<[Value]>>>,
) -> Result<Tree, ChaseError> {
    debug_assert_eq!(per_std.len(), cache.plans.len());
    let canonical: Vec<Vec<Box<[Value]>>> = per_std
        .into_iter()
        .enumerate()
        .map(|(i, tuples)| cache.canonical_firings(i, tuples))
        .collect();
    chase_firings(cache, &canonical)
}

/// The chase construction proper: applies every firing of every std to a
/// fresh [`ChaseArena`], then takes its solution (completion, the `≠`
/// check, materialization). `firings[i]` must be std `i`'s canonical
/// firing sequence (the kernel's sorted, deduplicated, condition-filtered
/// order) — the construction replays it verbatim, so identical sequences
/// yield byte-identical trees.
fn chase_firings<T: AsRef<[V]>, V: Borrow<Value>>(
    cache: &ChaseCache,
    firings: &[Vec<T>],
) -> Result<Tree, ChaseError> {
    let mut arena = ChaseArena::new(cache);
    for (si, std_firings) in firings.iter().enumerate() {
        for tuple in std_firings {
            arena.apply_firing(cache, si, tuple.as_ref())?;
        }
    }
    arena.solution(cache)
}
