//! Bounded brute-force procedures.
//!
//! Several problems the paper proves undecidable (Thm 5.4, Thm 7.3(2)) or
//! of very high complexity (Thm 6.2) still need *executable* form here: as
//! semi-decision procedures with explicit bounds, and as reference oracles
//! that the fast fragment algorithms are property-tested against.
//!
//! The enumerators are exhaustive up to their bounds:
//!
//! * [`tree_shapes`] — every label shape conforming to a DTD with at most
//!   `max_nodes` nodes (attribute slots carry placeholder nulls);
//! * [`for_each_valued_tree`] — every assignment of values from a pool to a
//!   shape's attribute slots (a pool with as many values as slots covers all
//!   equality types, which is all that matters: patterns compare values
//!   only by `=`/`≠`);
//! * [`solution_exists`] — does a fixed source tree have *some* solution of
//!   bounded size? Complete for the bound because target values can be
//!   restricted to the source's active domain plus fresh values, one per
//!   target attribute slot.

use crate::stds::Mapping;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};
use xmlmap_codec::{CodecError, Decoder, Encoder};
use xmlmap_dtd::{DenseNfa, Dtd};
use xmlmap_trees::{Name, NodeId, Tree, Value};

/// Preorder tree serialization over the public [`Tree`] API (node label,
/// attribute list, child count, children).
pub(crate) fn encode_tree(t: &Tree, e: &mut Encoder) {
    fn node(t: &Tree, n: NodeId, e: &mut Encoder) {
        e.str(t.label(n).as_str());
        let attrs = t.attrs(n);
        e.usize(attrs.len());
        for (a, v) in attrs {
            e.str(a.as_str());
            match v {
                Value::Str(s) => {
                    e.u8(0);
                    e.str(s);
                }
                Value::Int(i) => {
                    e.u8(1);
                    e.u64(*i as u64);
                }
                Value::Null(k) => {
                    e.u8(2);
                    e.u64(*k);
                }
            }
        }
        let kids = t.children(n);
        e.usize(kids.len());
        for &k in kids {
            node(t, k, e);
        }
    }
    node(t, Tree::ROOT, e);
}

pub(crate) fn decode_tree(d: &mut Decoder<'_>) -> Result<Tree, CodecError> {
    fn attrs(d: &mut Decoder<'_>) -> Result<Vec<(Name, Value)>, CodecError> {
        let n = d.usize()?;
        if n > d.remaining() {
            return Err(CodecError::Truncated);
        }
        (0..n)
            .map(|_| {
                let name = Name::new(d.str()?);
                let v = match d.u8()? {
                    0 => Value::Str(d.str()?.into()),
                    1 => Value::Int(d.u64()? as i64),
                    2 => Value::Null(d.u64()?),
                    _ => return Err(CodecError::Malformed("Value tag")),
                };
                Ok((name, v))
            })
            .collect()
    }
    fn children(t: &mut Tree, at: NodeId, d: &mut Decoder<'_>) -> Result<(), CodecError> {
        let n = d.usize()?;
        if n > d.remaining() {
            return Err(CodecError::Truncated);
        }
        for _ in 0..n {
            let label = Name::new(d.str()?);
            let id = t.add_child(at, label, attrs(d)?);
            children(t, id, d)?;
        }
        Ok(())
    }
    let root_label = Name::new(d.str()?);
    let root_attrs = attrs(d)?;
    let mut t = Tree::with_root_attrs(root_label, root_attrs);
    children(&mut t, Tree::ROOT, d)?;
    Ok(t)
}

/// All words accepted by `nfa` (a content model of `dtd`) with length
/// ≤ `max_len`, breadth-first with symbols in label-id (= label) order.
fn accepted_words(dtd: &Dtd, nfa: &DenseNfa, max_len: usize) -> Vec<Vec<Name>> {
    let mut out = Vec::new();
    // BFS over (subset, word).
    let mut start = vec![0u64; nfa.words()];
    nfa.start(&mut start);
    let mut queue: VecDeque<(Vec<u64>, Vec<Name>)> = VecDeque::from([(start, Vec::new())]);
    while let Some((state, word)) = queue.pop_front() {
        if nfa.accepts(&state) {
            out.push(word.clone());
        }
        if word.len() == max_len {
            continue;
        }
        for &sym in nfa.syms() {
            let mut next = vec![0u64; nfa.words()];
            if nfa.step(&state, sym, &mut next) {
                let mut w2 = word.clone();
                w2.push(dtd.labels()[sym as usize].clone());
                queue.push_back((next, w2));
            }
        }
    }
    out
}

/// All shapes of trees rooted at `label` with at most `budget` nodes.
fn shapes_for(dtd: &Dtd, label: &Name, budget: usize, nulls: &mut u64) -> Vec<Tree> {
    if budget == 0 {
        return Vec::new();
    }
    let make_root = |nulls: &mut u64| {
        let attrs: Vec<(Name, Value)> = dtd
            .attrs(label)
            .iter()
            .map(|a| {
                let v = Value::null(*nulls);
                *nulls += 1;
                (a.clone(), v)
            })
            .collect();
        Tree::with_root_attrs(label.clone(), attrs)
    };
    let nfa = dtd.content_model(
        dtd.label_id(label)
            .expect("shape labels are in the alphabet"),
    );
    let mut out = Vec::new();
    for word in accepted_words(dtd, nfa, budget - 1) {
        // Distribute the remaining node budget over the children.
        fn assign(
            dtd: &Dtd,
            word: &[Name],
            k: usize,
            budget_left: usize,
            acc: &mut Vec<Tree>,
            out: &mut Vec<Vec<Tree>>,
            nulls: &mut u64,
        ) {
            if k == word.len() {
                out.push(acc.clone());
                return;
            }
            // Reserve one node for each remaining child.
            let reserve = word.len() - k - 1;
            for sub in shapes_for(dtd, &word[k], budget_left.saturating_sub(reserve), nulls) {
                let used = sub.size();
                acc.push(sub);
                assign(dtd, word, k + 1, budget_left - used, acc, out, nulls);
                acc.pop();
            }
        }
        let mut children_sets = Vec::new();
        assign(
            dtd,
            &word,
            0,
            budget - 1,
            &mut Vec::new(),
            &mut children_sets,
            nulls,
        );
        for children in children_sets {
            let mut t = make_root(nulls);
            for c in &children {
                t.graft(Tree::ROOT, c);
            }
            out.push(t);
        }
    }
    out
}

/// Every label shape conforming to `dtd` with at most `max_nodes` nodes.
/// Attribute slots hold pairwise-distinct placeholder nulls.
pub fn tree_shapes(dtd: &Dtd, max_nodes: usize) -> Vec<Tree> {
    let mut nulls = 0;
    shapes_for(dtd, dtd.root(), max_nodes, &mut nulls)
        .into_iter()
        .filter(|t| dtd.conforms(t))
        .collect()
}

/// Calls `f` with every assignment of values from `pool` to the attribute
/// slots of `shape` (slots are visited in document order). `f` returns
/// `false` to stop; returns `true` iff stopped early.
pub fn for_each_valued_tree(
    shape: &Tree,
    pool: &[Value],
    f: &mut dyn FnMut(&Tree) -> bool,
) -> bool {
    let slots: Vec<(NodeId, Name)> = shape
        .nodes()
        .flat_map(|n| {
            shape
                .attrs(n)
                .iter()
                .map(move |(a, _)| (n, a.clone()))
                .collect::<Vec<_>>()
        })
        .collect();
    fn go(
        tree: &mut Tree,
        slots: &[(NodeId, Name)],
        k: usize,
        pool: &[Value],
        f: &mut dyn FnMut(&Tree) -> bool,
    ) -> bool {
        if k == slots.len() {
            return !f(tree);
        }
        for v in pool {
            tree.set_attr(slots[k].0, slots[k].1.as_str(), v.clone());
            if go(tree, slots, k + 1, pool, f) {
                return true;
            }
        }
        false
    }
    let mut tree = shape.clone();
    go(&mut tree, &slots, 0, pool, f)
}

/// The number of attribute slots in a tree.
pub fn attr_slot_count(tree: &Tree) -> usize {
    tree.nodes().map(|n| tree.attrs(n).len()).sum()
}

/// A generic value pool `v1..vk` for exhaustive small-model search: since
/// patterns see values only through equality, `k` distinct values cover all
/// equality types of `k` slots.
pub fn generic_pool(k: usize) -> Vec<Value> {
    (0..k).map(|i| Value::str(format!("v{i}"))).collect()
}

/// Memoizes [`tree_shapes`] per node bound for one DTD. Shape enumeration
/// is exponential in the bound; the bounded procedures below call it for
/// every candidate source, so one cache per search pays it once per bound.
pub struct ShapeCache {
    dtd: Dtd,
    by_bound: Mutex<HashMap<usize, Arc<Vec<Tree>>>>,
}

impl ShapeCache {
    /// A fresh, empty cache for `dtd`.
    pub fn new(dtd: &Dtd) -> ShapeCache {
        ShapeCache {
            dtd: dtd.clone(),
            by_bound: Mutex::new(HashMap::new()),
        }
    }

    /// The DTD this cache enumerates shapes of.
    pub fn dtd(&self) -> &Dtd {
        &self.dtd
    }

    /// [`tree_shapes`]`(dtd, max_nodes)`, memoized.
    pub fn shapes(&self, max_nodes: usize) -> Arc<Vec<Tree>> {
        let mut map = self.by_bound.lock().unwrap();
        map.entry(max_nodes)
            .or_insert_with(|| Arc::new(tree_shapes(&self.dtd, max_nodes)))
            .clone()
    }

    /// Serializes the cache *including* its memoized shape lists — unlike
    /// the other artifact families, the expensive content of a `ShapeCache`
    /// accumulates at query time (shape enumeration is exponential in the
    /// bound), so persisting it is only worthwhile after use. The engine
    /// context therefore writes shape artifacts at flush time, not at
    /// compile time.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.str(&self.dtd.to_string());
        let map = self.by_bound.lock().unwrap();
        let mut bounds: Vec<usize> = map.keys().copied().collect();
        bounds.sort_unstable();
        e.usize(bounds.len());
        for b in bounds {
            e.usize(b);
            let shapes = &map[&b];
            e.usize(shapes.len());
            for t in shapes.iter() {
                encode_tree(t, &mut e);
            }
        }
        e.finish()
    }

    /// Inverse of [`ShapeCache::to_bytes`]: reparses the schema text and
    /// restores every memoized bound.
    pub fn from_bytes(bytes: &[u8]) -> Result<ShapeCache, CodecError> {
        let mut d = Decoder::new(bytes);
        let text = d.str()?;
        let dtd = xmlmap_dtd::parse(&text).map_err(|_| CodecError::Malformed("stored DTD text"))?;
        let n_bounds = d.usize()?;
        if n_bounds > d.remaining() {
            return Err(CodecError::Truncated);
        }
        let mut map = HashMap::new();
        for _ in 0..n_bounds {
            let bound = d.usize()?;
            let n_shapes = d.usize()?;
            if n_shapes > d.remaining() {
                return Err(CodecError::Truncated);
            }
            let shapes = (0..n_shapes)
                .map(|_| decode_tree(&mut d))
                .collect::<Result<Vec<_>, CodecError>>()?;
            map.insert(bound, Arc::new(shapes));
        }
        d.expect_end()?;
        Ok(ShapeCache {
            dtd,
            by_bound: Mutex::new(map),
        })
    }

    /// Approximate heap footprint in bytes: the schema plus every memoized
    /// shape list.
    pub fn approx_bytes(&self) -> u64 {
        let map = self.by_bound.lock().unwrap();
        self.dtd.to_string().len() as u64
            + map
                .values()
                .map(|shapes| shapes.iter().map(Tree::approx_bytes).sum::<u64>() + 64)
                .sum::<u64>()
    }

    /// Are any shape lists memoized yet? Empty caches are not worth
    /// persisting.
    pub fn has_content(&self) -> bool {
        !self.by_bound.lock().unwrap().is_empty()
    }
}

/// Does `source` have a solution under `m` with at most `max_target_nodes`
/// nodes? Values are drawn from the source's active domain plus enough
/// fresh values (one per target slot), which is exhaustive for that size.
///
/// Convenience wrapper over [`solution_exists_cached`] with a fresh cache.
pub fn solution_exists(m: &Mapping, source: &Tree, max_target_nodes: usize) -> Option<Tree> {
    solution_exists_cached(m, source, max_target_nodes, &ShapeCache::new(&m.target_dtd))
}

/// [`solution_exists`] against a caller-held target-shape cache
/// (`shapes` compiled from `m.target_dtd`).
pub fn solution_exists_cached(
    m: &Mapping,
    source: &Tree,
    max_target_nodes: usize,
    shapes: &ShapeCache,
) -> Option<Tree> {
    if !m.source_dtd.conforms(source) {
        return None;
    }
    let mut pool: Vec<Value> = source.data_values().cloned().collect();
    pool.sort();
    pool.dedup();
    for shape in shapes.shapes(max_target_nodes).iter() {
        let slots = attr_slot_count(shape);
        let mut full_pool = pool.clone();
        full_pool.extend((0..slots as u64).map(|i| Value::Null(1_000_000 + i)));
        let mut found: Option<Tree> = None;
        for_each_valued_tree(shape, &full_pool, &mut |t| {
            if m.is_solution(source, t) {
                found = Some(t.clone());
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

/// What the chase proves about `solution_exists(m, t, max_target_nodes)`.
///
/// The canonical solution is decisive in both directions when it applies:
/// a successful chase *is* a solution (so one within the node bound proves
/// existence), and a chase failure other than a fragment violation proves
/// no solution of **any** size exists. Only "canonical solution too large"
/// and "outside the chaseable fragment" fall back to the exhaustive search.
enum ChaseVerdict {
    /// A solution with ≤ the bound's nodes certainly exists.
    Exists,
    /// No solution of any size exists.
    None,
    /// The chase cannot decide; run the bounded search.
    Unknown,
}

fn chase_verdict(
    m: &Mapping,
    source: &Tree,
    max_target_nodes: usize,
    chase: &crate::chase::ChaseCache,
) -> ChaseVerdict {
    match crate::chase::canonical_solution_cached(m, source, chase) {
        Ok(sol) if sol.size() <= max_target_nodes => ChaseVerdict::Exists,
        Ok(_) => ChaseVerdict::Unknown,
        Err(crate::chase::ChaseError::OutsideFragment(_)) => ChaseVerdict::Unknown,
        Err(_) => ChaseVerdict::None,
    }
}

/// Outcome of a bounded search over source documents.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BoundedOutcome {
    /// A witness was found (consistency: a source with a solution;
    /// absolute consistency violation: a source *without* one).
    Witness(Tree),
    /// No witness up to the bounds; the property may still fail beyond them.
    ExhaustedBounds,
}

/// Bounded consistency: searches for `T ⊨ D_s` (≤ `max_source_nodes`) with a
/// solution of ≤ `max_target_nodes` nodes. Sound for "consistent"; the
/// `ExhaustedBounds` outcome is inconclusive (the problem is undecidable in
/// general, Thm 5.4).
pub fn consistent_bounded(
    m: &Mapping,
    max_source_nodes: usize,
    max_target_nodes: usize,
) -> BoundedOutcome {
    let target_shapes = ShapeCache::new(&m.target_dtd);
    let chase = crate::chase::ChaseCache::new(m);
    for shape in tree_shapes(&m.source_dtd, max_source_nodes) {
        let pool = generic_pool(attr_slot_count(&shape).max(1));
        let mut witness = None;
        for_each_valued_tree(&shape, &pool, &mut |t| {
            let exists = match chase_verdict(m, t, max_target_nodes, &chase) {
                ChaseVerdict::Exists => true,
                ChaseVerdict::None => false,
                ChaseVerdict::Unknown => {
                    solution_exists_cached(m, t, max_target_nodes, &target_shapes).is_some()
                }
            };
            if exists {
                witness = Some(t.clone());
                false
            } else {
                true
            }
        });
        if let Some(w) = witness {
            return BoundedOutcome::Witness(w);
        }
    }
    BoundedOutcome::ExhaustedBounds
}

/// Bounded absolute-consistency refutation: searches for a source document
/// (≤ `max_source_nodes`) with **no** solution of ≤ `max_target_nodes`
/// nodes. Sound for "not absolutely consistent" provided `max_target_nodes`
/// is large enough for genuine solutions; used as the reference oracle for
/// the PTIME fragment (Thm 6.3).
pub fn abscons_violation_bounded(
    m: &Mapping,
    max_source_nodes: usize,
    max_target_nodes: usize,
) -> BoundedOutcome {
    let target_shapes = ShapeCache::new(&m.target_dtd);
    let chase = crate::chase::ChaseCache::new(m);
    for shape in tree_shapes(&m.source_dtd, max_source_nodes) {
        let pool = generic_pool(attr_slot_count(&shape).max(1));
        let mut violation = None;
        for_each_valued_tree(&shape, &pool, &mut |t| {
            let exists = match chase_verdict(m, t, max_target_nodes, &chase) {
                ChaseVerdict::Exists => true,
                ChaseVerdict::None => false,
                ChaseVerdict::Unknown => {
                    solution_exists_cached(m, t, max_target_nodes, &target_shapes).is_some()
                }
            };
            if !exists {
                violation = Some(t.clone());
                false
            } else {
                true
            }
        });
        if let Some(w) = violation {
            return BoundedOutcome::Witness(w);
        }
    }
    BoundedOutcome::ExhaustedBounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stds::Std;

    fn dtd(s: &str) -> Dtd {
        xmlmap_dtd::parse(s).unwrap()
    }

    #[test]
    fn shape_enumeration_counts() {
        let d = dtd("root r\nr -> a*");
        let shapes = tree_shapes(&d, 4);
        // r, r[a], r[a,a], r[a,a,a]
        assert_eq!(shapes.len(), 4);
        for t in &shapes {
            assert!(d.conforms(t));
        }

        let d2 = dtd("root r\nr -> a?, b?");
        let sizes: Vec<usize> = tree_shapes(&d2, 3).iter().map(Tree::size).collect();
        assert_eq!(sizes.len(), 4); // ε, a, b, ab
    }

    #[test]
    fn nested_shapes() {
        let d = dtd("root r\nr -> a+\na -> b?");
        let shapes = tree_shapes(&d, 5);
        // a-counts with optional b's under each, total ≤ 5 nodes:
        // r[a] r[a[b]] r[a,a] r[a[b],a] r[a,a[b]] r[a[b],a[b]] r[a,a,a]
        // r[a[b],a,a] r[a,a[b],a] r[a,a,a[b]] r[a,a,a,a]
        assert_eq!(shapes.len(), 11);
        for t in &shapes {
            assert!(d.conforms(t), "{t:?}");
        }
    }

    #[test]
    fn valued_tree_enumeration() {
        let d = dtd("root r\nr -> a, a\na @ v");
        let shapes = tree_shapes(&d, 3);
        assert_eq!(shapes.len(), 1);
        let mut count = 0;
        for_each_valued_tree(&shapes[0], &generic_pool(2), &mut |_| {
            count += 1;
            true
        });
        assert_eq!(count, 4); // 2 slots × 2 values
    }

    #[test]
    fn solution_search_positive() {
        let m = Mapping::new(
            dtd("root r\nr -> a*\na @ v"),
            dtd("root r\nr -> b*\nb @ w"),
            vec![Std::parse("r/a(x) --> r/b(x)").unwrap()],
        );
        let src = {
            let mut t = Tree::new("r");
            t.add_child(Tree::ROOT, "a", [("v", Value::str("1"))]);
            t.add_child(Tree::ROOT, "a", [("v", Value::str("2"))]);
            t
        };
        let sol = solution_exists(&m, &src, 4).expect("solution exists");
        assert!(m.is_solution(&src, &sol));
    }

    #[test]
    fn solution_search_negative() {
        // Target allows only ONE b: two distinct source values unsolvable.
        let m = Mapping::new(
            dtd("root r\nr -> a*\na @ v"),
            dtd("root r\nr -> b\nb @ w"),
            vec![Std::parse("r/a(x) --> r/b(x)").unwrap()],
        );
        let src = {
            let mut t = Tree::new("r");
            t.add_child(Tree::ROOT, "a", [("v", Value::str("1"))]);
            t.add_child(Tree::ROOT, "a", [("v", Value::str("2"))]);
            t
        };
        assert!(solution_exists(&m, &src, 6).is_none());
        // One source value (or none) is fine.
        let src1 = {
            let mut t = Tree::new("r");
            t.add_child(Tree::ROOT, "a", [("v", Value::str("1"))]);
            t
        };
        assert!(solution_exists(&m, &src1, 6).is_some());
    }

    #[test]
    fn bounded_consistency_and_abscons() {
        // The paper's §6 example: source r → a*, target r → a, std
        // r/a(x) → r/a(x). Consistent (empty source works) but NOT
        // absolutely consistent (two distinct values).
        let m = Mapping::new(
            dtd("root r\nr -> a*\na @ v"),
            dtd("root r\nr -> a\na @ v"),
            vec![Std::parse("r/a(x) --> r/a(x)").unwrap()],
        );
        assert!(matches!(
            consistent_bounded(&m, 3, 3),
            BoundedOutcome::Witness(_)
        ));
        let BoundedOutcome::Witness(violation) = abscons_violation_bounded(&m, 3, 4) else {
            panic!("expected an absolute-consistency violation");
        };
        // The violating source has two a-children with distinct values.
        assert_eq!(violation.children(Tree::ROOT).len(), 2);
        assert!(solution_exists(&m, &violation, 4).is_none());
    }

    #[test]
    fn vacuous_mapping_is_absolutely_consistent_up_to_bounds() {
        let m = Mapping::new(
            dtd("root r\nr -> a*\na @ v"),
            dtd("root r\nr -> b*\nb @ w"),
            vec![Std::parse("r/a(x) --> r/b(x)").unwrap()],
        );
        assert_eq!(
            abscons_violation_bounded(&m, 3, 4),
            BoundedOutcome::ExhaustedBounds
        );
    }
}
