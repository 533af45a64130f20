//! The interpretive chase, kept as the differential-testing oracle.
//!
//! This is the original implementation of canonical-solution construction,
//! preserved verbatim (matching the `patterns::reference` / `sat::reference`
//! convention): a direct transcription of the three chase steps, with a
//! chain-following substitution for unification and repeated child scans
//! for completion. The production engine lives in [`super::compiled`];
//! `tests/chase_equiv.rs` checks the two agree — same success/failure
//! variant, isomorphic solutions up to null renaming — on generated
//! mappings and documents.

use super::ChaseError;
use crate::cond::CompOp;
use crate::stds::{Mapping, Std};
use std::collections::{BTreeMap, HashMap};
use xmlmap_dtd::Mult;
use xmlmap_patterns::{LabelTest, ListItem, Pattern, Valuation, Var};
use xmlmap_trees::{Name, NodeId, Tree, Value};

/// Union-find-ish substitution over labelled nulls.
#[derive(Default)]
struct Subst {
    map: HashMap<u64, Value>,
}

impl Subst {
    fn resolve(&self, v: &Value) -> Value {
        let mut cur = v.clone();
        let mut steps = 0;
        while let Value::Null(k) = cur {
            match self.map.get(&k) {
                Some(next) => {
                    cur = next.clone();
                    steps += 1;
                    debug_assert!(steps <= self.map.len() + 1, "substitution cycle");
                }
                None => break,
            }
        }
        cur
    }

    /// Unifies two values; returns false on constant/constant conflict.
    fn unify(&mut self, a: &Value, b: &Value) -> bool {
        let (ra, rb) = (self.resolve(a), self.resolve(b));
        if ra == rb {
            return true;
        }
        match (ra, rb) {
            (Value::Null(k), other) | (other, Value::Null(k)) => {
                self.map.insert(k, other);
                true
            }
            _ => false,
        }
    }
}

struct Chaser<'m> {
    mapping: &'m Mapping,
    tree: Tree,
    subst: Subst,
    next_null: u64,
    /// Deferred ≠ obligations (checked after all unifications).
    neq_obligations: Vec<(Value, Value, String)>,
}

impl<'m> Chaser<'m> {
    fn fresh(&mut self) -> Value {
        let v = Value::Null(self.next_null);
        self.next_null += 1;
        v
    }

    /// Resolves the values every target variable takes for one firing.
    fn firing_values(
        &mut self,
        std: &Std,
        firing: &Valuation,
        std_idx: usize,
    ) -> Result<BTreeMap<Var, Value>, ChaseError> {
        // Equivalence classes of target variables under α′₌.
        let vars = std.target.variables();
        let mut rep: BTreeMap<Var, Var> = vars.iter().map(|v| (v.clone(), v.clone())).collect();
        fn find(rep: &mut BTreeMap<Var, Var>, v: &Var) -> Var {
            let p = rep.get(v).cloned().unwrap_or_else(|| v.clone());
            if &p == v {
                return p;
            }
            let root = find(rep, &p);
            rep.insert(v.clone(), root.clone());
            root
        }
        for c in &std.target_cond {
            if c.op == CompOp::Eq {
                let (ra, rb) = (find(&mut rep, &c.left), find(&mut rep, &c.right));
                if ra != rb {
                    rep.insert(ra, rb);
                }
            }
        }
        // Value per class: the source binding if any member is shared.
        let mut class_value: BTreeMap<Var, Value> = BTreeMap::new();
        for v in &vars {
            let root = find(&mut rep, v);
            if let Some(bound) = firing.get(v) {
                match class_value.get(&root) {
                    Some(existing) if existing != bound => {
                        return Err(ChaseError::EqualityUnsatisfiable(format!(
                            "std #{std_idx}: α′₌ equates {existing} and {bound}"
                        )));
                    }
                    _ => {
                        class_value.insert(root, bound.clone());
                    }
                }
            }
        }
        let mut out = BTreeMap::new();
        for v in &vars {
            let root = find(&mut rep, v);
            let val = match class_value.get(&root) {
                Some(v) => v.clone(),
                None => {
                    let fresh = self.fresh();
                    class_value.insert(root, fresh.clone());
                    fresh
                }
            };
            out.insert(v.clone(), val);
        }
        // Record ≠ obligations for the final check.
        for c in &std.target_cond {
            if c.op == CompOp::Neq {
                let (a, b) = (out[&c.left].clone(), out[&c.right].clone());
                self.neq_obligations
                    .push((a, b, format!("std #{std_idx}: {c}")));
            }
        }
        Ok(out)
    }

    fn unify_attrs(
        &mut self,
        node: NodeId,
        pattern: &Pattern,
        values: &BTreeMap<Var, Value>,
    ) -> Result<(), ChaseError> {
        if pattern.vars.is_empty() {
            return Ok(()); // no attribute constraint
        }
        let existing: Vec<(Name, Value)> = self.tree.attrs(node).to_vec();
        if existing.len() != pattern.vars.len() {
            return Err(ChaseError::NotEmbeddable(format!(
                "pattern node {pattern} has {} variables but element {} has {} attributes",
                pattern.vars.len(),
                self.tree.label(node),
                existing.len()
            )));
        }
        for ((attr, old), var) in existing.iter().zip(&pattern.vars) {
            let new = values[var].clone();
            if !self.subst.unify(old, &new) {
                return Err(ChaseError::ValueConflict(format!(
                    "attribute {attr} of {}: {} vs {}",
                    self.tree.label(node),
                    self.subst.resolve(old),
                    self.subst.resolve(&new)
                )));
            }
        }
        Ok(())
    }

    /// Creates a node for `label` under `parent` with fresh-null attributes.
    fn create(&mut self, parent: NodeId, label: &Name) -> NodeId {
        let attrs: Vec<(Name, Value)> = self
            .mapping
            .target_dtd
            .attrs(label)
            .iter()
            .map(|a| {
                (a.clone(), {
                    let v = Value::Null(self.next_null);
                    self.next_null += 1;
                    v
                })
            })
            .collect();
        self.tree.add_child(parent, label.clone(), attrs)
    }

    fn instantiate(
        &mut self,
        node: NodeId,
        pattern: &Pattern,
        values: &BTreeMap<Var, Value>,
    ) -> Result<(), ChaseError> {
        self.unify_attrs(node, pattern, values)?;
        let parent_label = self.tree.label(node).clone();
        for item in &pattern.list {
            let ListItem::Seq { members, .. } = item else {
                return Err(ChaseError::OutsideFragment(
                    "descendant items are not fully specified".into(),
                ));
            };
            // Fully-specified patterns have single-member sequences.
            let child_pat = &members[0];
            let LabelTest::Label(label) = &child_pat.label else {
                return Err(ChaseError::OutsideFragment("wildcard label".into()));
            };
            // The slot must exist under the parent label.
            let nr = self
                .mapping
                .target_dtd
                .nested_relational()
                .expect("checked in canonical_solution");
            let Some((_, mult)) = nr
                .slots(&parent_label)
                .iter()
                .find(|(l, _)| l == label)
                .cloned()
            else {
                return Err(ChaseError::NotEmbeddable(format!(
                    "{label} is not a child slot of {parent_label}"
                )));
            };
            let child_node = if mult.repeatable() {
                self.create(node, label)
            } else {
                // The unique per-parent node: reuse if present.
                match self
                    .tree
                    .children(node)
                    .iter()
                    .find(|&&c| self.tree.label(c) == label)
                    .copied()
                {
                    Some(c) => c,
                    None => self.create(node, label),
                }
            };
            self.instantiate(child_node, child_pat, values)?;
        }
        Ok(())
    }

    /// Adds missing mandatory children, recursively, and orders children by
    /// the production's slot order.
    fn complete(&mut self, node: NodeId) -> Result<(), ChaseError> {
        let label = self.tree.label(node).clone();
        let nr = self
            .mapping
            .target_dtd
            .nested_relational()
            .expect("checked in canonical_solution");
        let slots: Vec<(Name, Mult)> = nr.slots(&label).to_vec();
        // Count children per label; verify every child has a slot.
        let mut by_label: BTreeMap<Name, Vec<NodeId>> = BTreeMap::new();
        for &c in self.tree.children(node) {
            by_label
                .entry(self.tree.label(c).clone())
                .or_default()
                .push(c);
        }
        let mut ordered: Vec<NodeId> = Vec::new();
        for (slot_label, mult) in &slots {
            let kids = by_label.remove(slot_label).unwrap_or_default();
            match (mult, kids.len()) {
                (Mult::One | Mult::Opt, n) if n > 1 => {
                    return Err(ChaseError::MultiplicityConflict(format!(
                        "{n} children labelled {slot_label} under {label}, slot allows one"
                    )));
                }
                (Mult::One | Mult::Plus, 0) => {
                    ordered.push(self.create(node, slot_label));
                }
                _ => {}
            }
            ordered.extend(kids);
        }
        if let Some((stray, _)) = by_label.into_iter().next() {
            return Err(ChaseError::NotEmbeddable(format!(
                "{stray} is not a child slot of {label}"
            )));
        }
        self.reorder_children(node, ordered);
        for c in self.tree.children(node).to_vec() {
            self.complete(c)?;
        }
        Ok(())
    }

    fn reorder_children(&mut self, node: NodeId, ordered: Vec<NodeId>) {
        // Rebuild the child list in slot order (same multiset of ids).
        debug_assert_eq!(ordered.len(), self.tree.children(node).len());
        self.tree.set_children(node, ordered);
    }
}

/// Builds the canonical solution of `source` under `m`, or proves none
/// exists. Fragment: fully-specified stds, nested-relational tree-shaped
/// target DTD, no *source-side* inequalities restrictions are needed —
/// source conditions only filter firings and are handled by [`Std::firings`].
pub fn canonical_solution(m: &Mapping, source: &Tree) -> Result<Tree, ChaseError> {
    if !m.source_dtd.conforms(source) {
        return Err(ChaseError::SourceNotConforming);
    }
    let Some(nr) = m.target_dtd.nested_relational() else {
        return Err(ChaseError::OutsideFragment(
            "target DTD is not nested-relational".into(),
        ));
    };
    if !nr.is_tree_shaped() {
        return Err(ChaseError::OutsideFragment(
            "target DTD is not tree-shaped".into(),
        ));
    }
    for s in &m.stds {
        if !s.target.is_fully_specified() {
            return Err(ChaseError::OutsideFragment(format!(
                "target pattern of `{s}` is not fully specified"
            )));
        }
    }

    // Root node with fresh-null attributes.
    let mut chaser = Chaser {
        mapping: m,
        tree: Tree::new(m.target_dtd.root().clone()),
        subst: Subst::default(),
        next_null: 0,
        neq_obligations: Vec::new(),
    };
    let root_attrs: Vec<(Name, Value)> = m
        .target_dtd
        .attrs(m.target_dtd.root())
        .iter()
        .map(|a| {
            (a.clone(), {
                let v = Value::Null(chaser.next_null);
                chaser.next_null += 1;
                v
            })
        })
        .collect();
    chaser.tree.set_attrs(Tree::ROOT, root_attrs);

    // Firing order is what makes the construction deterministic.
    for (si, s) in m.stds.iter().enumerate() {
        for firing in s.firings(source) {
            let values = chaser.firing_values(s, &firing, si)?;
            // The target pattern is rooted at the document root.
            let LabelTest::Label(root_label) = &s.target.label else {
                return Err(ChaseError::OutsideFragment("wildcard root".into()));
            };
            if root_label != m.target_dtd.root() {
                return Err(ChaseError::NotEmbeddable(format!(
                    "target pattern of std #{si} is rooted at {root_label}, \
                     the target DTD root is {}",
                    m.target_dtd.root()
                )));
            }
            chaser.instantiate(Tree::ROOT, &s.target, &values)?;
        }
    }
    chaser.complete(Tree::ROOT)?;

    // Deferred ≠ obligations under the final substitution.
    for (a, b, what) in &chaser.neq_obligations {
        if chaser.subst.resolve(a) == chaser.subst.resolve(b) {
            return Err(ChaseError::InequalityViolated(what.clone()));
        }
    }

    // Apply the substitution to the document.
    let mut tree = chaser.tree.clone();
    for node in tree.nodes().collect::<Vec<_>>() {
        let resolved: Vec<(Name, Value)> = tree
            .attrs(node)
            .iter()
            .map(|(a, v)| (a.clone(), chaser.subst.resolve(v)))
            .collect();
        tree.set_attrs(node, resolved);
    }
    debug_assert!(m.target_dtd.conforms(&tree), "chase output must conform");
    Ok(tree)
}
