//! Composition of schema mappings (paper §7–§8).
//!
//! * [`EngineContext::composition_member`](crate::EngineContext::composition_member)
//!   — semantic membership
//!   `(T₁, T₃) ∈ ⟦M₁₂⟧ ∘ ⟦M₂₃⟧` by searching for a middle document
//!   (data complexity EXPTIME-complete for `SM(⇓,⇒)`, Thm 7.3; undecidable
//!   with data comparisons — the search is bounded and exhaustive up to its
//!   bound).
//! * [`compose`] — **syntactic** composition for the closed class of
//!   Thm 8.2: Skolem functions, equalities, fully-specified stds, strictly
//!   nested-relational DTDs. One further (documented) restriction: no `+`
//!   multiplicities in the middle DTD — `ℓ⁺`'s "guaranteed but repeatable"
//!   slot mixes completion and instance nodes in the canonical target and
//!   is rejected rather than handled approximately.
//!
//! ## How syntactic composition works
//!
//! Following \[17\] lifted to trees (DESIGN.md §3.5): build the *symbolic
//! canonical target* of `M₁₂` over the middle DTD — a finite arena whose
//! nodes are (a) the **guaranteed skeleton** (`ℓ`-slots reachable from the
//! root, attribute-free by strictness), (b) **optional skeleton** nodes
//! (`ℓ?`-slots, present iff some std's target creates them), and (c)
//! generic **instances**: per-std subtrees at starred slots, one per
//! firing, carrying that std's terms. Every match of a `Σ₂₃` source
//! pattern into this arena yields one composed std: its premise conjoins a
//! fresh copy of the source pattern of every `Σ₁₂` std the match *charges*
//! (instances entered, optional nodes used), plus the term equalities the
//! match imposes; its conclusion is the `Σ₂₃` target with variables
//! replaced by the matched terms.

use crate::cond::Comparison;
use crate::skolem::{SkolemMapping, SkolemStd, Term, TermPattern};
use crate::stds::Mapping;
use std::collections::BTreeMap;
use xmlmap_dtd::{Dtd, Mult};
use xmlmap_patterns::{LabelTest, ListItem, Pattern, Var};
use xmlmap_trees::{Name, Tree, Value};

/// The core of
/// [`EngineContext::composition_member`](crate::EngineContext::composition_member)
/// over the [`ShapeCache`] of `m12.target_dtd` and the [`ChaseCache`] of
/// `m12`, so repeated membership probes (e.g. over a test suite of tree
/// pairs) enumerate middle-document shapes once per bound and compile the
/// chase once per mapping.
///
/// [`ShapeCache`]: crate::bounded::ShapeCache
/// [`ChaseCache`]: crate::chase::ChaseCache
pub(crate) fn composition_member_cached(
    m12: &Mapping,
    m23: &Mapping,
    t1: &Tree,
    t3: &Tree,
    max_middle_nodes: usize,
    shapes: &crate::bounded::ShapeCache,
    chase: &crate::chase::ChaseCache,
) -> Option<Tree> {
    if !m12.source_dtd.conforms(t1) || !m23.target_dtd.conforms(t3) {
        return None;
    }
    // Fast path via the chase: the canonical solution is universal for
    // M12, so candidate middles factor through instantiations of its
    // nulls. Search assignments of nulls to the joint active domain (or to
    // themselves — a fresh distinct value). This is *complete* when M23's
    // source patterns are downward and wildcard-free (the factoring
    // homomorphism need not preserve sibling order or arities elsewhere),
    // in which case a failed search proves non-membership.
    let m23_downward = m23.stds.iter().all(|s| {
        let f = s.source.features();
        !(f.next_sibling || f.following_sibling || f.wildcard)
    });
    match crate::chase::canonical_solution_cached(m12, t1, chase) {
        Ok(canonical) => {
            if let Some(t2) = instantiate_nulls_search(m12, m23, t1, t3, &canonical) {
                return Some(t2);
            }
            if m23_downward {
                return None;
            }
        }
        Err(crate::chase::ChaseError::OutsideFragment(_)) => {}
        // Any other chase failure proves T1 has no solution at all.
        Err(_) => return None,
    }
    // Exhaustive bounded search.
    let mut pool: Vec<Value> = t1.data_values().chain(t3.data_values()).cloned().collect();
    pool.sort();
    pool.dedup();
    for shape in shapes.shapes(max_middle_nodes).iter() {
        let slots = crate::bounded::attr_slot_count(shape);
        let mut full_pool = pool.clone();
        full_pool.extend((0..slots as u64).map(|i| Value::Null(2_000_000 + i)));
        if full_pool.is_empty() {
            full_pool.push(Value::str("•"));
        }
        let mut found = None;
        crate::bounded::for_each_valued_tree(shape, &full_pool, &mut |t2| {
            if m12.is_solution(t1, t2) && m23.is_solution(t2, t3) {
                found = Some(t2.clone());
                false
            } else {
                true
            }
        });
        if found.is_some() {
            return found;
        }
    }
    None
}

/// Enumerates assignments of the canonical solution's nulls to values from
/// the joint active domain (or leaving them as distinct fresh values), and
/// returns the first instantiation that is a middle witness.
fn instantiate_nulls_search(
    m12: &Mapping,
    m23: &Mapping,
    t1: &Tree,
    t3: &Tree,
    canonical: &Tree,
) -> Option<Tree> {
    let mut nulls: Vec<Value> = canonical
        .data_values()
        .filter(|v| v.is_null())
        .cloned()
        .collect();
    nulls.sort();
    nulls.dedup();
    let mut domain: Vec<Value> = t1.data_values().chain(t3.data_values()).cloned().collect();
    domain.sort();
    domain.dedup();

    // Assignment per null: an index into domain, or "keep" (= itself).
    #[allow(clippy::too_many_arguments)]
    fn go(
        m12: &Mapping,
        m23: &Mapping,
        t1: &Tree,
        t3: &Tree,
        canonical: &Tree,
        nulls: &[Value],
        domain: &[Value],
        assignment: &mut Vec<Option<Value>>,
    ) -> Option<Tree> {
        if assignment.len() == nulls.len() {
            let mut t2 = canonical.clone();
            let node_ids: Vec<_> = t2.nodes().collect();
            for node in node_ids {
                let resolved: Vec<(Name, Value)> = t2
                    .attrs(node)
                    .iter()
                    .map(|(a, v)| {
                        let v2 = match nulls.iter().position(|n| n == v) {
                            Some(i) => assignment[i].clone().unwrap_or_else(|| v.clone()),
                            None => v.clone(),
                        };
                        (a.clone(), v2)
                    })
                    .collect();
                t2.set_attrs(node, resolved);
            }
            if m12.is_solution(t1, &t2) && m23.is_solution(&t2, t3) {
                return Some(t2);
            }
            return None;
        }
        // Keep the null (fresh distinct value) first, then domain values.
        assignment.push(None);
        if let Some(t2) = go(m12, m23, t1, t3, canonical, nulls, domain, assignment) {
            return Some(t2);
        }
        assignment.pop();
        for v in domain {
            assignment.push(Some(v.clone()));
            if let Some(t2) = go(m12, m23, t1, t3, canonical, nulls, domain, assignment) {
                return Some(t2);
            }
            assignment.pop();
        }
        None
    }
    go(
        m12,
        m23,
        t1,
        t3,
        canonical,
        &nulls,
        &domain,
        &mut Vec::new(),
    )
}

/// Why syntactic composition failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ComposeError {
    /// A precondition of the closed class is violated.
    OutsideClass(String),
    /// The two mappings do not share the middle DTD.
    MiddleMismatch,
}

impl std::fmt::Display for ComposeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ComposeError::OutsideClass(s) => write!(f, "outside the closed class: {s}"),
            ComposeError::MiddleMismatch => {
                write!(f, "M12's target DTD differs from M23's source DTD")
            }
        }
    }
}

impl std::error::Error for ComposeError {}

/// Kind of a symbolic-canonical-target node.
#[derive(Clone, Debug)]
enum Kind {
    /// Mandatory skeleton: present in every canonical target.
    Guaranteed,
    /// Optional skeleton: present iff one of these Σ₁₂ stds fires.
    Optional { creators: Vec<usize> },
    /// Generic instance subtree of one Σ₁₂ std (one per firing).
    Instance { std: usize },
}

/// A node of the symbolic canonical target.
struct Sym {
    label: Name,
    /// Attribute terms over the creating std's source variables (empty for
    /// skeleton nodes — strictness keeps them attribute-free).
    terms: Vec<Term>,
    kind: Kind,
    children: Vec<usize>,
}

struct Arena {
    nodes: Vec<Sym>,
}

impl Arena {
    fn push(&mut self, s: Sym) -> usize {
        self.nodes.push(s);
        self.nodes.len() - 1
    }
}

/// State of one partial match of a Σ₂₃ source pattern into the arena.
#[derive(Clone, Default)]
struct MatchState {
    /// φ₂-variable bindings to terms over composed source variables.
    bindings: BTreeMap<Var, Term>,
    /// Premise term equalities collected along the way.
    term_eqs: Vec<(Term, Term)>,
    /// Charged copies: the Σ₁₂ std index per copy (copy id = position).
    copies: Vec<usize>,
}

/// Renames std `i` copy `c`'s variable into the composed namespace.
fn copy_var(v: &Var, i: usize, c: usize) -> Var {
    Var::new(format!("{v}~{i}_{c}"))
}

fn rename_term(t: &Term, i: usize, c: usize) -> Term {
    t.rename(&mut |v| copy_var(v, i, c))
}

fn rename_pattern(p: &Pattern, f: &mut impl FnMut(&Var) -> Var) -> Pattern {
    Pattern {
        label: p.label.clone(),
        vars: p.vars.iter().map(&mut *f).collect(),
        list: p
            .list
            .iter()
            .map(|item| match item {
                ListItem::Descendant(d) => ListItem::Descendant(rename_pattern(d, f)),
                ListItem::Seq { members, ops } => ListItem::Seq {
                    members: members.iter().map(|m| rename_pattern(m, f)).collect(),
                    ops: ops.clone(),
                },
            })
            .collect(),
    }
}

/// Builds the symbolic canonical target of `m12` over its target DTD.
fn build_arena(m12: &SkolemMapping, active: &[usize]) -> Result<(Arena, usize), ComposeError> {
    let dtd = &m12.target_dtd;
    let nr = dtd
        .nested_relational()
        .expect("checked strictly nested-relational");

    let mut arena = Arena { nodes: Vec::new() };

    // 1. Skeleton: all non-starred paths from the root. `kind` carries the
    // presence condition: a One-child inherits its parent's condition, an
    // Opt-child is present iff some std's target pattern reaches it (the
    // chase then completes its mandatory descendants).
    fn build_skeleton(
        arena: &mut Arena,
        nr: &xmlmap_dtd::NestedRelationalView,
        label: &Name,
        kind: Kind,
        path: &[Name],
        m12: &SkolemMapping,
        active: &[usize],
    ) -> usize {
        let id = arena.push(Sym {
            label: label.clone(),
            terms: Vec::new(),
            kind: kind.clone(),
            children: Vec::new(),
        });
        let slots: Vec<(Name, Mult)> = nr.slots(label).to_vec();
        for (child, mult) in slots {
            match mult {
                Mult::One | Mult::Opt => {
                    let mut p2 = path.to_vec();
                    p2.push(child.clone());
                    let child_kind = if mult == Mult::One {
                        kind.clone()
                    } else {
                        let creators = active
                            .iter()
                            .copied()
                            .filter(|&i| pattern_reaches(&m12.stds[i].target, &p2))
                            .collect();
                        Kind::Optional { creators }
                    };
                    let cid = build_skeleton(arena, nr, &child, child_kind, &p2, m12, active);
                    arena.nodes[id].children.push(cid);
                }
                Mult::Star | Mult::Plus => {} // instances only
            }
        }
        id
    }

    let root = build_skeleton(
        &mut arena,
        &nr,
        dtd.root(),
        Kind::Guaranteed,
        &[dtd.root().clone()],
        m12,
        active,
    );

    // 2. Per-std instance subtrees hung along the target patterns.
    for &i in active {
        let std_i = &m12.stds[i];
        let mut fresh_fn = 0usize;
        hang_pattern(
            &mut arena,
            dtd,
            &nr,
            root,
            &std_i.target,
            i,
            &std_i.source.variables(),
            &mut fresh_fn,
            false,
        )?;
    }

    Ok((arena, root))
}

/// Does the fully-specified term pattern contain a node at `path` (labels
/// from the root, inclusive)?
fn pattern_reaches(p: &TermPattern, path: &[Name]) -> bool {
    if path.is_empty() || p.label != path[0] {
        return false;
    }
    if path.len() == 1 {
        return true;
    }
    p.children.iter().any(|c| pattern_reaches(c, &path[1..]))
}

/// Walks a Σ₁₂ target pattern along the arena, creating instance nodes at
/// starred slots; `inside_instance` marks that we are inside std `i`'s
/// instance scope already.
#[allow(clippy::too_many_arguments)]
fn hang_pattern(
    arena: &mut Arena,
    dtd: &Dtd,
    nr: &xmlmap_dtd::NestedRelationalView,
    at: usize,
    pat: &TermPattern,
    i: usize,
    source_vars: &[Var],
    fresh_fn: &mut usize,
    inside_instance: bool,
) -> Result<(), ComposeError> {
    // `at` already corresponds to `pat` (labels match); attach children.
    for child in &pat.children {
        let mult = nr
            .slots(&pat.label)
            .iter()
            .find(|(l, _)| l == &child.label)
            .map(|(_, m)| *m)
            .ok_or_else(|| {
                ComposeError::OutsideClass(format!(
                    "target pattern of Σ12 std #{i} puts {} under {}, not a slot",
                    child.label, pat.label
                ))
            })?;
        match mult {
            Mult::One | Mult::Opt => {
                // Merge into the unique per-parent node. Inside an
                // instance, create the per-instance internal node if absent;
                // at skeleton level, find the existing skeleton child.
                let existing = arena.nodes[at]
                    .children
                    .iter()
                    .copied()
                    .find(|&c| arena.nodes[c].label == child.label);
                let node = match existing {
                    Some(n) => n,
                    None => {
                        debug_assert!(inside_instance, "skeleton contains all unstarred paths");
                        let kind = arena.nodes[at].kind.clone();
                        let n = arena.push(Sym {
                            label: child.label.clone(),
                            terms: Vec::new(),
                            kind,
                            children: Vec::new(),
                        });
                        arena.nodes[at].children.push(n);
                        // Mandatory completion below the new internal node.
                        complete_instance(arena, nr, n, child, i);
                        n
                    }
                };
                if !child.terms.is_empty() {
                    return Err(ComposeError::OutsideClass(format!(
                        "Σ12 std #{i}: unstarred element {} carries terms (strictness \
                         forbids attributes there)",
                        child.label
                    )));
                }
                hang_pattern(
                    arena,
                    dtd,
                    nr,
                    node,
                    child,
                    i,
                    source_vars,
                    fresh_fn,
                    inside_instance,
                )?;
            }
            Mult::Plus => {
                return Err(ComposeError::OutsideClass(format!(
                    "`+` multiplicity on {} in the middle DTD is not supported by \
                     syntactic composition (see module docs)",
                    child.label
                )));
            }
            Mult::Star => {
                // A fresh generic instance per firing.
                let arity = dtd.arity(&child.label);
                let terms = if child.terms.is_empty() && arity > 0 {
                    // Unconstrained attributes: fresh Skolem functions of
                    // the firing (like chase nulls).
                    (0..arity)
                        .map(|k| {
                            *fresh_fn += 1;
                            Term::App(
                                Name::new(format!("n{}_{}_{}", i, *fresh_fn, k)),
                                source_vars.iter().cloned().map(Term::Var).collect(),
                            )
                        })
                        .collect()
                } else if child.terms.len() == arity {
                    child.terms.clone()
                } else {
                    return Err(ComposeError::OutsideClass(format!(
                        "Σ12 std #{i}: {} has arity {} but the pattern carries {} terms",
                        child.label,
                        arity,
                        child.terms.len()
                    )));
                };
                let n = arena.push(Sym {
                    label: child.label.clone(),
                    terms,
                    kind: Kind::Instance { std: i },
                    children: Vec::new(),
                });
                arena.nodes[at].children.push(n);
                // Completion: mandatory One-slots below the instance that
                // the pattern does not mention (attribute-free).
                complete_instance(arena, nr, n, child, i);
                hang_pattern(arena, dtd, nr, n, child, i, source_vars, fresh_fn, true)?;
            }
        }
    }
    Ok(())
}

/// Adds attribute-free mandatory (One) descendants of an instance node that
/// the pattern does not create itself.
fn complete_instance(
    arena: &mut Arena,
    nr: &xmlmap_dtd::NestedRelationalView,
    at: usize,
    pat: &TermPattern,
    i: usize,
) {
    let slots: Vec<(Name, Mult)> = nr.slots(&arena.nodes[at].label).to_vec();
    for (child, mult) in slots {
        if mult == Mult::One && !pat.children.iter().any(|c| c.label == child) {
            let n = arena.push(Sym {
                label: child.clone(),
                terms: Vec::new(),
                kind: Kind::Instance { std: i },
                children: Vec::new(),
            });
            arena.nodes[at].children.push(n);
            // Recurse: One-slots below the completion node.
            let empty = TermPattern::leaf(child, vec![]);
            complete_instance(arena, nr, n, &empty, i);
        }
    }
}

/// Enumerates all matches of a fully-specified source pattern into the
/// arena, calling `out` per complete match.
#[allow(clippy::too_many_arguments)]
fn enum_matches(
    arena: &Arena,
    m12: &SkolemMapping,
    q: &Pattern,
    s: usize,
    ctx: Option<(usize, usize)>, // (std, copy) instance scope
    state: &MatchState,
    out: &mut dyn FnMut(MatchState),
) {
    let sym = &arena.nodes[s];
    let LabelTest::Label(qlabel) = &q.label else {
        return; // wildcard: outside the class (checked by caller)
    };
    if qlabel != &sym.label {
        return;
    }
    if !q.vars.is_empty() && q.vars.len() != sym.terms.len() {
        return;
    }

    // Presence charging / copy allocation.
    let mut branches: Vec<(MatchState, Option<(usize, usize)>)> = Vec::new();
    match &sym.kind {
        Kind::Guaranteed => branches.push((state.clone(), None)),
        Kind::Optional { creators } => {
            for &c in creators {
                let mut st = state.clone();
                st.copies.push(c);
                branches.push((st, None));
            }
        }
        Kind::Instance { std: i } => match ctx {
            Some((ci, copy)) if ci == *i => branches.push((state.clone(), Some((ci, copy)))),
            _ => {
                let mut st = state.clone();
                st.copies.push(*i);
                let copy = st.copies.len() - 1;
                branches.push((st, Some((*i, copy))));
            }
        },
    }

    for (mut st, new_ctx) in branches {
        // Bind variables to (copy-renamed) terms.
        for (v, t) in q.vars.iter().zip(&sym.terms) {
            let (i, copy) = new_ctx.expect("nonempty terms only on instance nodes");
            let term = rename_term(t, i, copy);
            match st.bindings.get(v) {
                None => {
                    st.bindings.insert(v.clone(), term);
                }
                Some(prev) if prev == &term => {}
                Some(prev) => {
                    // Hypothesise the equality in the premise (how [17]
                    // captures matches created by value collapse).
                    st.term_eqs.push((prev.clone(), term));
                }
            }
        }

        // Children items, sequentially.
        fn items(
            arena: &Arena,
            m12: &SkolemMapping,
            q: &Pattern,
            k: usize,
            s: usize,
            ctx: Option<(usize, usize)>,
            st: &MatchState,
            out: &mut dyn FnMut(MatchState),
        ) {
            if k == q.list.len() {
                out(st.clone());
                return;
            }
            let ListItem::Seq { members, ops } = &q.list[k] else {
                return; // // outside the class
            };
            if !ops.is_empty() {
                return; // horizontal ops outside the class
            }
            let child = &members[0];
            for &c in &arena.nodes[s].children {
                enum_matches(arena, m12, child, c, ctx, st, &mut |st2| {
                    items(arena, m12, q, k + 1, s, ctx, &st2, out)
                });
            }
        }
        items(arena, m12, q, 0, s, new_ctx, &st, out);
    }
}

/// Syntactic composition for the closed class (Thm 8.2). The result is a
/// Skolem mapping `M₁₃` with `⟦M₁₃⟧ = ⟦M₁₂⟧ ∘ ⟦M₂₃⟧`.
pub fn compose(m12: &SkolemMapping, m23: &SkolemMapping) -> Result<SkolemMapping, ComposeError> {
    // Class checks.
    for (m, which) in [(m12, "M12"), (m23, "M23")] {
        if !m.source_dtd.is_strictly_nested_relational()
            || !m.target_dtd.is_strictly_nested_relational()
        {
            return Err(ComposeError::OutsideClass(format!(
                "{which}: DTDs must be strictly nested-relational"
            )));
        }
        for (i, s) in m.stds.iter().enumerate() {
            if !s.source.is_fully_specified() {
                return Err(ComposeError::OutsideClass(format!(
                    "{which} std #{i}: source pattern must be fully specified and \
                     wildcard-free"
                )));
            }
        }
    }
    if m12.target_dtd.to_string() != m23.source_dtd.to_string() {
        return Err(ComposeError::MiddleMismatch);
    }

    // Active Σ12 stds: those that can actually fire (source rooted right).
    let active: Vec<usize> = m12
        .stds
        .iter()
        .enumerate()
        .filter(|(_, s)| match &s.source.label {
            LabelTest::Label(l) => l == m12.source_dtd.root(),
            LabelTest::Wildcard => false,
        })
        .map(|(i, _)| i)
        .collect();

    let (arena, root) = build_arena(m12, &active)?;

    let mut composed: Vec<SkolemStd> = Vec::new();
    for std23 in &m23.stds {
        let mut matches: Vec<MatchState> = Vec::new();
        enum_matches(
            &arena,
            m12,
            &std23.source,
            root,
            None,
            &MatchState::default(),
            &mut |st| matches.push(st),
        );
        for st in matches {
            // Premise: conjunction of the charged copies' source patterns.
            let root_label = m12.source_dtd.root().clone();
            let mut source = Pattern {
                label: LabelTest::Label(root_label.clone()),
                vars: Vec::new(),
                list: Vec::new(),
            };
            let mut source_cond: Vec<Comparison> = Vec::new();
            let mut term_eqs = st.term_eqs.clone();
            for (copy, &i) in st.copies.iter().enumerate() {
                let s12 = &m12.stds[i];
                let renamed = rename_pattern(&s12.source, &mut |v| copy_var(v, i, copy));
                // Source patterns share the (attribute-free) root; conjoin
                // their child items.
                source.list.extend(renamed.list);
                for c in &s12.source_cond {
                    source_cond.push(Comparison {
                        left: copy_var(&c.left, i, copy),
                        op: c.op,
                        right: copy_var(&c.right, i, copy),
                    });
                }
                for (a, b) in &s12.source_term_eqs {
                    term_eqs.push((rename_term(a, i, copy), rename_term(b, i, copy)));
                }
            }
            // Σ23's own source conditions, as term equalities via bindings.
            let bind = |v: &Var| -> Term {
                st.bindings
                    .get(v)
                    .cloned()
                    .unwrap_or_else(|| Term::Var(v.clone()))
            };
            for c in &std23.source_cond {
                term_eqs.push((bind(&c.left), bind(&c.right)));
            }
            for (a, b) in &std23.source_term_eqs {
                term_eqs.push((a.substitute(&st.bindings), b.substitute(&st.bindings)));
            }
            // Conclusion: ψ₃ under the bindings.
            let target = std23.target.substitute(&st.bindings);
            let target_term_eqs = std23
                .target_term_eqs
                .iter()
                .map(|(a, b)| (a.substitute(&st.bindings), b.substitute(&st.bindings)))
                .collect();
            let new_std = SkolemStd {
                source,
                source_cond,
                source_term_eqs: term_eqs,
                target,
                target_term_eqs,
            };
            if !composed.contains(&new_std) {
                composed.push(new_std);
            }
        }
    }

    Ok(SkolemMapping {
        source_dtd: m12.source_dtd.clone(),
        target_dtd: m23.target_dtd.clone(),
        stds: composed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stds::Std;
    use crate::EngineContext;
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

    fn skolem(ds: &str, dt: &str, stds: &[&str]) -> SkolemMapping {
        SkolemMapping::from_mapping(&mapping(ds, dt, stds)).unwrap()
    }

    #[test]
    fn semantic_membership_chain() {
        let m12 = mapping(
            "root r\nr -> a*\na @ v",
            "root m\nm -> b*\nb @ w",
            &["r/a(x) --> m/b(x)"],
        );
        let m23 = mapping(
            "root m\nm -> b*\nb @ w",
            "root w\nw -> c*\nc @ u",
            &["m/b(x) --> w/c(x)"],
        );
        let t1 = tree!("r" [ "a"("v" = "1"), "a"("v" = "2") ]);
        let good = tree!("w" [ "c"("u" = "1"), "c"("u" = "2") ]);
        let bad = tree!("w"["c"("u" = "1")]);
        let middle = EngineContext::new()
            .composition_member(&m12, &m23, &t1, &good, 4)
            .expect("in composition");
        assert!(m12.is_solution(&t1, &middle) && m23.is_solution(&middle, &good));
        assert!(EngineContext::new()
            .composition_member(&m12, &m23, &t1, &bad, 4)
            .is_none());
    }

    #[test]
    fn syntactic_composition_of_copy_chain() {
        let s12 = skolem(
            "root r\nr -> a*\na @ v",
            "root m\nm -> b*\nb @ w",
            &["r/a(x) --> m/b(x)"],
        );
        let s23 = skolem(
            "root m\nm -> b*\nb @ w",
            "root w\nw -> c*\nc @ u",
            &["m/b(x) --> w/c(x)"],
        );
        let s13 = compose(&s12, &s23).unwrap();
        assert_eq!(s13.stds.len(), 1);
        // The composed mapping behaves as copy a → c.
        let t1 = tree!("r" [ "a"("v" = "1"), "a"("v" = "2") ]);
        let good = tree!("w" [ "c"("u" = "1"), "c"("u" = "2") ]);
        let bad = tree!("w"["c"("u" = "2")]);
        assert!(s13.is_solution(&t1, &good));
        assert!(!s13.is_solution(&t1, &bad));
    }

    #[test]
    fn composed_equals_semantic_composition_on_samples() {
        // M12 splits a into b and c-instances; M23 joins them back.
        let s12 = skolem(
            "root r\nr -> a*\na @ v, w",
            "root m\nm -> b*, c*\nb @ x\nc @ y",
            &["r/a(x, y) --> m[b(x), c(y)]"],
        );
        let s23 = skolem(
            "root m\nm -> b*, c*\nb @ x\nc @ y",
            "root w\nw -> d*\nd @ u, t",
            &["m[b(x), c(y)] --> w/d(x, y)"],
        );
        let s13 = compose(&s12, &s23).unwrap();
        // Two copies (one per instance entered) appear in the premise.
        assert!(!s13.stds.is_empty());

        let m12 = mapping(
            "root r\nr -> a*\na @ v, w",
            "root m\nm -> b*, c*\nb @ x\nc @ y",
            &["r/a(x, y) --> m[b(x), c(y)]"],
        );
        let m23 = mapping(
            "root m\nm -> b*, c*\nb @ x\nc @ y",
            "root w\nw -> d*\nd @ u, t",
            &["m[b(x), c(y)] --> w/d(x, y)"],
        );
        let t1 = tree!("r"["a"("v" = "1", "w" = "2")]);
        // Semantic composition: the middle has b(1), c(2) ⇒ target needs
        // d(1,2) but also the cross pairs from independent matches: the
        // middle fires m[b(x), c(y)] for every b/c pair — just (1,2) here.
        let good = tree!("w"["d"("u" = "1", "t" = "2")]);
        let bad = tree!("w"["d"("u" = "2", "t" = "1")]);
        assert_eq!(
            EngineContext::new()
                .composition_member(&m12, &m23, &t1, &good, 4)
                .is_some(),
            s13.is_solution(&t1, &good)
        );
        assert_eq!(
            EngineContext::new()
                .composition_member(&m12, &m23, &t1, &bad, 4)
                .is_some(),
            s13.is_solution(&t1, &bad)
        );
        assert!(s13.is_solution(&t1, &good));
        assert!(!s13.is_solution(&t1, &bad));
    }

    #[test]
    fn optional_middle_node_charges_creator() {
        // M12 creates the optional middle node `flag` only when the source
        // has an `a`; M23 fires on `flag`.
        let s12 = skolem(
            "root r\nr -> a*\na @ v",
            "root m\nm -> flag?",
            &["r/a(x) --> m/flag"],
        );
        let s23 = skolem(
            "root m\nm -> flag?",
            "root w\nw -> c*\nc @ u",
            &["m/flag --> w/c(z)"],
        );
        let s13 = compose(&s12, &s23).unwrap();
        assert_eq!(s13.stds.len(), 1);
        // Premise must include M12's source (an `a` must exist).
        let premise = s13.stds[0].source.to_string();
        assert!(premise.contains('a'), "premise: {premise}");

        let empty = tree!("r");
        let with_a = tree!("r"["a"("v" = "1")]);
        let t3_empty = tree!("w");
        let t3_c = tree!("w"["c"("u" = "k")]);
        // Empty source: no flag needed; empty target is fine.
        assert!(s13.is_solution(&empty, &t3_empty));
        // Source with a: flag exists in every middle; target needs a c.
        assert!(!s13.is_solution(&with_a, &t3_empty));
        assert!(s13.is_solution(&with_a, &t3_c));
    }

    #[test]
    fn skeleton_only_match_fires_always() {
        // M23's source touches only the guaranteed skeleton.
        let s12 = skolem(
            "root r\nr -> a*\na @ v",
            "root m\nm -> hub\nhub -> b*\nb @ w",
            &["r/a(x) --> m/hub/b(x)"],
        );
        let s23 = skolem(
            "root m\nm -> hub\nhub -> b*\nb @ w",
            "root w\nw -> mark?",
            &["m/hub --> w/mark"],
        );
        let s13 = compose(&s12, &s23).unwrap();
        assert_eq!(s13.stds.len(), 1);
        // No Σ12 copies were charged: the premise is the bare root.
        assert!(s13.stds[0].source.list.is_empty());
        let empty = tree!("r");
        assert!(s13.is_solution(&empty, &tree!("w"["mark"])));
        assert!(!s13.is_solution(&empty, &tree!("w")));
    }

    #[test]
    fn composition_is_associative_semantically() {
        // Closure under composition means composing twice stays in the
        // class; associativity of ⟦·⟧∘⟦·⟧ then forces the two syntactic
        // bracketings to agree semantically.
        let s12 = skolem(
            "root r\nr -> a*\na @ v",
            "root m\nm -> b*\nb @ w",
            &["r/a(x) --> m/b(x)"],
        );
        let s23 = skolem(
            "root m\nm -> b*\nb @ w",
            "root w\nw -> c*\nc @ u",
            &["m/b(x) --> w/c(x)"],
        );
        let s34 = skolem(
            "root w\nw -> c*\nc @ u",
            "root z\nz -> d*\nd @ t, t2",
            &["w/c(x) --> z/d(x, y)"],
        );
        let left = compose(&compose(&s12, &s23).unwrap(), &s34).unwrap();
        let right = compose(&s12, &compose(&s23, &s34).unwrap()).unwrap();
        // Both stay in the closed class.
        assert!(left.in_closed_class());
        assert!(right.in_closed_class());

        // Compare semantics on a grid of instances.
        let t1s = [
            tree!("r"),
            tree!("r"["a"("v" = "1")]),
            tree!("r" [ "a"("v" = "1"), "a"("v" = "2") ]),
        ];
        let t4s = [
            tree!("z"),
            tree!("z"["d"("t" = "1", "t2" = "n")]),
            tree!("z" [ "d"("t" = "1", "t2" = "n"), "d"("t" = "2", "t2" = "n") ]),
            tree!("z"["d"("t" = "9", "t2" = "n")]),
        ];
        for t1 in &t1s {
            for t4 in &t4s {
                assert_eq!(
                    left.is_solution(t1, t4),
                    right.is_solution(t1, t4),
                    "bracketing disagreement on\n{t1:?}\n{t4:?}"
                );
            }
        }
        // Spot-check correctness of the 3-fold composition itself.
        assert!(left.is_solution(&t1s[1], &t4s[1]));
        assert!(!left.is_solution(&t1s[1], &t4s[0]));
        assert!(!left.is_solution(&t1s[2], &t4s[1]));
    }

    #[test]
    fn rejects_plus_in_middle() {
        let s12 = skolem(
            "root r\nr -> a*\na @ v",
            "root m\nm -> b+\nb @ w",
            &["r/a(x) --> m/b(x)"],
        );
        let s23 = skolem(
            "root m\nm -> b+\nb @ w",
            "root w\nw -> c*\nc @ u",
            &["m/b(x) --> w/c(x)"],
        );
        assert!(matches!(
            compose(&s12, &s23),
            Err(ComposeError::OutsideClass(_))
        ));
    }

    #[test]
    fn rejects_middle_mismatch() {
        let s12 = skolem("root r\nr -> a*\na @ v", "root m\nm -> b*\nb @ w", &[]);
        let s23 = skolem("root m2\nm2 -> b*\nb @ w", "root w\nw -> c*\nc @ u", &[]);
        assert!(matches!(
            compose(&s12, &s23),
            Err(ComposeError::MiddleMismatch)
        ));
    }
}
