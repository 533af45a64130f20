//! Data-exchange utilities on top of the chase: certain answers and
//! solution reduction.
//!
//! The paper's §9 lists "constructing target instances" and query
//! answering over exchanged data as the key follow-up problems; for the
//! chaseable fragment (fully-specified stds, nested-relational targets —
//! the same class as \[4\]'s tractable query answering) the classical
//! recipes apply:
//!
//! * **certain answers** of a downward pattern query = the null-free
//!   answers of the query on the canonical solution
//!   ([`EngineContext::certain_answers`](crate::EngineContext::certain_answers));
//! * the canonical solution can be **reduced** by deduplicating identical
//!   sibling subtrees in repeatable slots ([`reduce_solution`], and
//!   [`EngineContext::reduced_solution`](crate::EngineContext::reduced_solution)
//!   to chase and reduce in one step) — a cheap approximation of the core
//!   that often shrinks chase output dramatically.

use crate::chase::{canonical_solution_cached, ChaseCache, ChaseError};
use crate::stds::Mapping;
use std::collections::{hash_map::DefaultHasher, HashMap};
use std::hash::{Hash, Hasher};
use xmlmap_dtd::Mult;
use xmlmap_patterns::{eval, Pattern, Valuation};
use xmlmap_trees::{NodeId, Tree};

/// The core of [`EngineContext::certain_answers`](crate::EngineContext::certain_answers)
/// over the [`ChaseCache`] built from `m`.
pub(crate) fn certain_answers_cached(
    m: &Mapping,
    source: &Tree,
    query: &Pattern,
    chase: &ChaseCache,
) -> Result<Vec<Valuation>, CertainAnswersError> {
    let f = query.features();
    if f.next_sibling || f.following_sibling {
        return Err(CertainAnswersError::OrderedQuery);
    }
    let canonical =
        canonical_solution_cached(m, source, chase).map_err(CertainAnswersError::NoSolution)?;
    Ok(eval::all_matches(&canonical, query)
        .into_iter()
        .filter(|v| v.values().all(|x| x.is_constant()))
        .collect())
}

/// Why certain answers could not be computed.
#[derive(Clone, Debug)]
pub enum CertainAnswersError {
    /// The query uses a horizontal axis.
    OrderedQuery,
    /// The source has no solution (or the mapping is outside the
    /// chaseable fragment).
    NoSolution(ChaseError),
}

impl std::fmt::Display for CertainAnswersError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CertainAnswersError::OrderedQuery => {
                write!(f, "certain answers require a downward query")
            }
            CertainAnswersError::NoSolution(e) => write!(f, "no canonical solution: {e}"),
        }
    }
}

impl std::error::Error for CertainAnswersError {}

/// Deduplicates identical sibling subtrees sitting in repeatable slots,
/// bottom-up. The result is still a solution whenever the input was one
/// produced by the chase for a mapping without target `≠` conditions
/// (removing one of two identical subtrees cannot lose any pattern match —
/// the twin provides the same matches).
pub fn reduce_solution(m: &Mapping, solution: &Tree) -> Tree {
    let Some(nr) = m.target_dtd.nested_relational() else {
        return solution.clone();
    };
    // Rebuild the tree, skipping each repeatable-slot child whose subtree
    // equals an earlier sibling's: equal preorder shapes, null ids included,
    // compared only between siblings whose shape hashes match.
    fn rebuild(
        src: &Tree,
        node: NodeId,
        nr: &xmlmap_dtd::NestedRelationalView,
        out: &mut Tree,
        at: NodeId,
    ) {
        let shape = |n| {
            src.descendants_or_self(n)
                .map(|d| (src.label(d), src.attrs(d), src.children(d).len()))
        };
        let mut seen: HashMap<u64, Vec<NodeId>> = HashMap::new();
        for &child in src.children(node) {
            let label = src.label(child);
            if nr.mult(label).is_some_and(Mult::repeatable) {
                let mut h = DefaultHasher::new();
                shape(child).for_each(|node| node.hash(&mut h));
                let twins = seen.entry(h.finish()).or_default();
                if twins.iter().any(|&twin| shape(twin).eq(shape(child))) {
                    continue;
                }
                twins.push(child);
            }
            let new_child = out.add_child(at, label.clone(), src.attrs(child).iter().cloned());
            rebuild(src, child, nr, out, new_child);
        }
    }
    let mut out = Tree::with_root_attrs(
        solution.label(Tree::ROOT).clone(),
        solution.attrs(Tree::ROOT).iter().cloned(),
    );
    rebuild(solution, Tree::ROOT, &nr, &mut out, Tree::ROOT);
    debug_assert!(m.target_dtd.conforms(&out));
    out
}

/// The core of [`EngineContext::reduced_solution`](crate::EngineContext::reduced_solution)
/// over the [`ChaseCache`] built from `m`.
pub(crate) fn reduced_solution_cached(
    m: &Mapping,
    source: &Tree,
    chase: &ChaseCache,
) -> Result<Tree, ChaseError> {
    Ok(reduce_solution(
        m,
        &canonical_solution_cached(m, source, chase)?,
    ))
}

/// Clio-style nesting (partitioned normal form): merges *sibling* nodes in
/// repeatable slots that share label **and attribute values**, recursively
/// combining their children (repeatable slots concatenate, non-repeatable
/// slots merge further). Turns the chase's one-subtree-per-firing output
/// into the naturally nested document — e.g. one `work` per title holding
/// all its `credit`s.
///
/// Safe (the result is still a solution) when every target pattern is
/// downward: node merging preserves child/descendant matches and never
/// removes values. For mappings with horizontal target patterns the input
/// is returned unchanged.
pub fn nest_solution(m: &Mapping, solution: &Tree) -> Tree {
    let horizontal = m.stds.iter().any(|s| {
        let f = s.target.features();
        f.next_sibling || f.following_sibling
    });
    let Some(_nr) = m.target_dtd.nested_relational() else {
        return solution.clone();
    };
    if horizontal {
        return solution.clone();
    }

    /// A merged node under construction.
    struct Merged {
        label: xmlmap_trees::Name,
        attrs: Vec<(xmlmap_trees::Name, xmlmap_trees::Value)>,
        children: Vec<Merged>,
    }

    type Attrs = Vec<(xmlmap_trees::Name, xmlmap_trees::Value)>;

    fn merge_children(src: &Tree, nodes: &[NodeId]) -> Vec<Merged> {
        // Gather all children of all merged source nodes, in order, and
        // group them by (label, attribute values). If a non-repeatable
        // slot ends up with two value-distinct groups, the final
        // conformance check fails and the caller keeps the original.
        let mut out: Vec<Merged> = Vec::new();
        let mut groups: Vec<(xmlmap_trees::Name, Attrs, Vec<NodeId>)> = Vec::new();
        for &n in nodes {
            for &c in src.children(n) {
                let label = src.label(c).clone();
                let attrs: Vec<_> = src.attrs(c).to_vec();
                let slot = groups
                    .iter_mut()
                    .find(|(l, a, _)| *l == label && *a == attrs);
                match slot {
                    Some((_, _, members)) => members.push(c),
                    None => groups.push((label, attrs, vec![c])),
                }
            }
        }
        for (label, attrs, members) in groups {
            out.push(Merged {
                label,
                attrs,
                children: merge_children(src, &members),
            });
        }
        out
    }

    fn build(out: &mut Tree, at: NodeId, merged: &Merged) {
        let id = out.add_child(at, merged.label.clone(), merged.attrs.iter().cloned());
        for c in &merged.children {
            build(out, id, c);
        }
    }

    let top = merge_children(solution, &[Tree::ROOT]);
    let mut out = Tree::with_root_attrs(
        solution.label(Tree::ROOT).clone(),
        solution.attrs(Tree::ROOT).iter().cloned(),
    );
    for c in &top {
        build(&mut out, Tree::ROOT, c);
    }
    if m.target_dtd.conforms(&out) {
        out
    } else {
        // Merging collided on a non-repeatable slot: keep the original.
        solution.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chase::canonical_solution;
    use crate::stds::Std;
    use crate::EngineContext;
    use xmlmap_dtd::Dtd;
    use xmlmap_trees::{tree, Value};

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

    #[test]
    fn certain_answers_exclude_nulls() {
        let m = mapping(
            "root r\nr -> a*\na @ v",
            "root r\nr -> b*\nb @ x, y",
            &["r/a(x) --> r/b(x, z)"], // z is existential: a null per tuple
        );
        let src = tree!("r" [ "a"("v" = "1"), "a"("v" = "2") ]);
        // Asking for the first attribute: certain.
        let q1 = xmlmap_patterns::parse("r/b(x, y)").unwrap();
        let ans = EngineContext::new().certain_answers(&m, &src, &q1).unwrap();
        // Full tuples contain the null in y ⇒ nothing is certain.
        assert!(ans.is_empty());
        // Projection (empty tuple on b, value reached via wildcarding the
        // second attribute is not expressible — use a query on x alone via
        // a one-attribute pattern is an arity mismatch, so query b fully
        // but existentially): the pattern r/b(x, y) has no certain rows;
        // certain answers for "some b exists with x = 1" style queries:
        let q_exists = xmlmap_patterns::parse("r/b").unwrap();
        let ans = EngineContext::new()
            .certain_answers(&m, &src, &q_exists)
            .unwrap();
        assert_eq!(ans.len(), 1); // the empty valuation: certainly some b
    }

    #[test]
    fn certain_answers_on_copy_mapping() {
        let m = mapping(
            "root r\nr -> a*\na @ v",
            "root r\nr -> b*\nb @ w",
            &["r/a(x) --> r/b(x)"],
        );
        let src = tree!("r" [ "a"("v" = "1"), "a"("v" = "2") ]);
        let q = xmlmap_patterns::parse("r/b(x)").unwrap();
        let ans = EngineContext::new().certain_answers(&m, &src, &q).unwrap();
        let values: Vec<String> = ans
            .iter()
            .map(|v| v[&xmlmap_patterns::Var::new("x")].to_string())
            .collect();
        assert_eq!(values, ["1", "2"]);
    }

    #[test]
    fn ordered_queries_rejected() {
        let m = mapping(
            "root r\nr -> a*\na @ v",
            "root r\nr -> b*\nb @ w",
            &["r/a(x) --> r/b(x)"],
        );
        let q = xmlmap_patterns::parse("r[b(x) ->* b(y)]").unwrap();
        assert!(matches!(
            EngineContext::new().certain_answers(&m, &Tree::new("r"), &q),
            Err(CertainAnswersError::OrderedQuery)
        ));
    }

    #[test]
    fn reduction_shrinks_duplicates() {
        let m = mapping(
            "root r\nr -> a*\na @ v",
            "root r\nr -> b*\nb -> c\nb @ w\nc @ u",
            &["r[a(x), a(y)] --> r[b(x)/c(y), b(y)/c(x)]"],
        );
        // Two equal-valued a's: the chase creates many identical b-subtrees.
        let src = tree!("r" [ "a"("v" = "1"), "a"("v" = "1") ]);
        let solution = canonical_solution(&m, &src).unwrap();
        let reduced = reduce_solution(&m, &solution);
        assert!(reduced.size() < solution.size());
        assert!(m.is_solution(&src, &reduced));
        // Exactly one distinct subtree remains: b(1)/c(1).
        assert_eq!(reduced.children(Tree::ROOT).len(), 1);
    }

    #[test]
    fn reduction_preserves_distinct_subtrees() {
        let m = mapping(
            "root r\nr -> a*\na @ v",
            "root r\nr -> b*\nb @ w",
            &["r/a(x) --> r/b(x)"],
        );
        let src = tree!("r" [ "a"("v" = "1"), "a"("v" = "2") ]);
        let solution = canonical_solution(&m, &src).unwrap();
        let reduced = reduce_solution(&m, &solution);
        assert_eq!(reduced.children(Tree::ROOT).len(), 2);
        assert!(m.is_solution(&src, &reduced));
    }

    #[test]
    fn reduction_ignores_non_repeatable_slots() {
        // Two c's under r would not be deduplicated (but can't occur under
        // a One slot anyway); sanity: single child kept.
        let m = mapping(
            "root r\nr -> a?\na @ v",
            "root r\nr -> c\nc @ w",
            &["r/a(x) --> r/c(x)"],
        );
        let src = tree!("r"["a"("v" = "1")]);
        let solution = canonical_solution(&m, &src).unwrap();
        let reduced = reduce_solution(&m, &solution);
        assert_eq!(reduced, solution);
    }

    #[test]
    fn nesting_merges_equal_attribute_siblings() {
        // Two firings put the same work twice with different credits; the
        // nested form holds one work with both credits.
        let m = mapping(
            "root c\nc -> b*\nb -> a+\nb @ t\na @ n",
            "root db\ndb -> work*\nwork -> credit*\nwork @ title\ncredit @ who",
            &["c/b(t)[a(n)] --> db/work(t)/credit(n)"],
        );
        let src = tree! {
            "c" [ "b"("t" = "DE") [ "a"("n" = "Arenas"), "a"("n" = "Libkin") ] ]
        };
        let chased = canonical_solution(&m, &src).unwrap();
        assert_eq!(chased.children(Tree::ROOT).len(), 2); // one work per firing
        let nested = nest_solution(&m, &chased);
        assert!(m.is_solution(&src, &nested));
        assert_eq!(nested.children(Tree::ROOT).len(), 1);
        let work = nested.children(Tree::ROOT)[0];
        assert_eq!(nested.children(work).len(), 2); // both credits
    }

    #[test]
    fn nesting_preserves_distinct_groups() {
        let m = mapping(
            "root c\nc -> b*\nb @ t",
            "root db\ndb -> work*\nwork @ title",
            &["c/b(t) --> db/work(t)"],
        );
        let src = tree!("c" [ "b"("t" = "X"), "b"("t" = "Y") ]);
        let nested = nest_solution(&m, &canonical_solution(&m, &src).unwrap());
        assert_eq!(nested.children(Tree::ROOT).len(), 2);
        assert!(m.is_solution(&src, &nested));
    }

    #[test]
    fn nesting_skips_horizontal_targets() {
        let m = mapping(
            "root c\nc -> b*\nb @ t",
            "root db\ndb -> work*\nwork @ title",
            &["c/b(t) --> db[work(t) ->* work(t)]"],
        );
        let src = tree!("c");
        let sol = canonical_solution(&m, &src);
        // Horizontal targets are outside the chase fragment anyway; use a
        // hand-built solution to exercise the guard.
        let handmade = tree!("db" [ "work"("title" = "X"), "work"("title" = "X") ]);
        assert_eq!(nest_solution(&m, &handmade), handmade);
        let _ = sol;
    }

    #[test]
    fn reduced_solution_one_step() {
        let m = mapping(
            "root r\nr -> a*\na @ v",
            "root r\nr -> b*\nb @ w",
            &["r/a(x) --> r/b(x)"],
        );
        let src = tree!("r" [ "a"("v" = "1"), "a"("v" = "1") ]);
        let t = EngineContext::new().reduced_solution(&m, &src).unwrap();
        assert_eq!(t.children(Tree::ROOT).len(), 1);
        assert_eq!(
            t.attr(t.children(Tree::ROOT)[0], "w"),
            Some(&Value::str("1"))
        );
    }
}
