//! The chase arena: the one retractable construction state shared by every
//! chase driver (DESIGN.md §8.2, §8.9).
//!
//! [`ChaseArena`] owns the four decisions that fix the bytes of a canonical
//! solution, null labels included:
//!
//! * **null numbering** — a fresh null is the next union-find element, so
//!   nulls are numbered in creation order;
//! * **representative choice** — union by rank, ties to the left operand's
//!   root, and *no* path compression. Compression only rewires parent
//!   pointers and never changes which root wins a merge, so skipping it
//!   leaves the output's null labels unchanged and keeps `find` read-only;
//! * **slot-cursor reuse** — the partial document is a flat arena keyed by
//!   `(parent, production slot)`; a non-repeatable slot reuses its unique
//!   child, a repeatable one grows a fresh child per firing;
//! * **read-time order** — completion is one ordered sweep appending the
//!   missing mandatory children, then the deferred `≠` obligations are
//!   checked in firing order, then the arena is materialized.
//!
//! Every mutation is recorded on an undo trail. Each applied firing is an
//! epoch delimited by a checkpoint, and [`ChaseArena::rewind_to`] restores
//! any earlier epoch exactly by LIFO undo. The tree and streaming chases
//! never rewind; the incremental delta-chase rewinds to the longest
//! unchanged firing prefix and replays the rest.

use super::compiled::{ChaseCache, LabelInfo, PlanOp};
use super::ChaseError;
use std::borrow::Borrow;
use std::collections::HashMap;
use xmlmap_dtd::Mult;
use xmlmap_trees::{Name, NodeId, Tree, Value};

/// A chase-time value: an interned constant or a union-find null element.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Val {
    Const(u32),
    Null(u32),
}

/// One undoable arena mutation. Popping them in reverse restores the state
/// before they were made.
enum TrailOp {
    /// A null was created: pop the union-find columns.
    NewNull,
    /// A constant was interned: pop the table and its index entry.
    NewConst,
    /// Root `lo` was merged under another root: re-root it.
    SetParent(u32),
    /// Root `hi`'s rank was bumped by a merge.
    BumpRank(u32),
    /// Root `node`'s bound constant was overwritten (it held `old`).
    SetBound { node: u32, old: Option<u32> },
    /// An arena node was created: pop it.
    NewNode,
    /// A child id was pushed into `kids[slot]` of arena node `node`.
    PushKid { node: u32, slot: u32 },
}

/// One node of the partial document: attribute values plus children
/// bucketed per production slot, so completion and ordering are a single
/// slot-order sweep.
struct Node {
    label: u32,
    attrs: Vec<Val>,
    kids: Vec<Vec<u32>>,
}

/// Interned constants, a union-find over labelled nulls (each class
/// optionally bound to a constant), and the slot-cursor document arena,
/// all behind one undo trail.
#[derive(Default)]
pub(crate) struct ChaseArena {
    consts: Vec<Value>,
    intern: HashMap<Value, u32>,
    parent: Vec<u32>,
    rank: Vec<u8>,
    bound: Vec<Option<u32>>,
    nodes: Vec<Node>,
    trail: Vec<TrailOp>,
    /// Deferred `≠` obligations: the two class values, the std index and
    /// the index of the obligation in that std's plan (which names it).
    obligations: Vec<(Val, Val, u32, u32)>,
    /// `(trail length, obligation count)` before each applied epoch.
    checkpoints: Vec<(usize, usize)>,
    /// Per-firing scratch: the value of each α′₌ class.
    class_vals: Vec<Option<Val>>,
    /// Per-firing scratch: the arena node bound to each plan node.
    node_map: Vec<u32>,
}

impl ChaseArena {
    /// An empty construction for `cache`'s mapping: the target root with
    /// fresh-null attributes and no epochs applied. (A cache outside the
    /// chase fragment has no label table and gets no root; it has no std
    /// plans to apply either.)
    pub(crate) fn new(cache: &ChaseCache) -> ChaseArena {
        let mut arena = ChaseArena::default();
        if !cache.labels.is_empty() {
            arena.create_node(&cache.labels, cache.root);
        }
        arena
    }

    fn intern(&mut self, v: &Value) -> u32 {
        match self.intern.get(v) {
            Some(&c) => c,
            None => {
                let c = self.consts.len() as u32;
                self.consts.push(v.clone());
                self.intern.insert(v.clone(), c);
                self.trail.push(TrailOp::NewConst);
                c
            }
        }
    }

    fn fresh_null(&mut self) -> Val {
        let n = self.parent.len() as u32;
        self.parent.push(n);
        self.rank.push(0);
        self.bound.push(None);
        self.trail.push(TrailOp::NewNull);
        Val::Null(n)
    }

    fn find(&self, mut n: u32) -> u32 {
        while self.parent[n as usize] != n {
            n = self.parent[n as usize];
        }
        n
    }

    /// Unifies two values; `false` on a constant/constant conflict.
    fn unify(&mut self, a: Val, b: Val) -> bool {
        match (a, b) {
            (Val::Const(x), Val::Const(y)) => x == y,
            (Val::Null(n), Val::Const(c)) | (Val::Const(c), Val::Null(n)) => {
                let r = self.find(n);
                match self.bound[r as usize] {
                    Some(c2) => c2 == c,
                    None => {
                        self.trail.push(TrailOp::SetBound { node: r, old: None });
                        self.bound[r as usize] = Some(c);
                        true
                    }
                }
            }
            (Val::Null(x), Val::Null(y)) => {
                let (rx, ry) = (self.find(x), self.find(y));
                if rx == ry {
                    return true;
                }
                match (self.bound[rx as usize], self.bound[ry as usize]) {
                    (Some(a), Some(b)) if a != b => false,
                    (bx, by) => {
                        let joint = bx.or(by);
                        let (hi, lo) = if self.rank[rx as usize] >= self.rank[ry as usize] {
                            (rx, ry)
                        } else {
                            (ry, rx)
                        };
                        self.trail.push(TrailOp::SetParent(lo));
                        self.parent[lo as usize] = hi;
                        if self.rank[hi as usize] == self.rank[lo as usize] {
                            self.trail.push(TrailOp::BumpRank(hi));
                            self.rank[hi as usize] += 1;
                        }
                        self.trail.push(TrailOp::SetBound {
                            node: hi,
                            old: self.bound[hi as usize],
                        });
                        self.bound[hi as usize] = joint;
                        true
                    }
                }
            }
        }
    }

    /// A value's class after substitution: its bound constant, or its root.
    fn canon(&self, v: Val) -> Val {
        match v {
            Val::Const(c) => Val::Const(c),
            Val::Null(n) => {
                let r = self.find(n);
                match self.bound[r as usize] {
                    Some(c) => Val::Const(c),
                    None => Val::Null(r),
                }
            }
        }
    }

    /// The output value: the bound constant, or a null labelled by the
    /// class representative (distinct classes ⇒ distinct labels).
    fn resolve(&self, v: Val) -> Value {
        match self.canon(v) {
            Val::Const(c) => self.consts[c as usize].clone(),
            Val::Null(r) => Value::Null(r as u64),
        }
    }

    fn create_node(&mut self, labels: &[LabelInfo], label: u32) -> u32 {
        let info = &labels[label as usize];
        let attrs = (0..info.attrs.len()).map(|_| self.fresh_null()).collect();
        self.nodes.push(Node {
            label,
            attrs,
            kids: vec![Vec::new(); info.slots.len()],
        });
        self.trail.push(TrailOp::NewNode);
        (self.nodes.len() - 1) as u32
    }

    fn push_kid(&mut self, node: u32, slot: u32, kid: u32) {
        self.nodes[node as usize].kids[slot as usize].push(kid);
        self.trail.push(TrailOp::PushKid { node, slot });
    }

    /// LIFO undo back to trail length `mark`.
    fn undo_to(&mut self, mark: usize) {
        while self.trail.len() > mark {
            match self.trail.pop().expect("trail length checked") {
                TrailOp::NewNull => {
                    self.parent.pop();
                    self.rank.pop();
                    self.bound.pop();
                }
                TrailOp::NewConst => {
                    let v = self.consts.pop().expect("interned constant on trail");
                    self.intern.remove(&v);
                }
                TrailOp::SetParent(lo) => self.parent[lo as usize] = lo,
                TrailOp::BumpRank(hi) => self.rank[hi as usize] -= 1,
                TrailOp::SetBound { node, old } => self.bound[node as usize] = old,
                TrailOp::NewNode => {
                    self.nodes.pop();
                }
                TrailOp::PushKid { node, slot } => {
                    self.nodes[node as usize].kids[slot as usize].pop();
                }
            }
        }
    }

    /// Number of applied epochs.
    pub(crate) fn epochs(&self) -> usize {
        self.checkpoints.len()
    }

    /// Rewinds to the state before epoch `epoch`, leaving exactly `epoch`
    /// epochs applied (a no-op if no more are applied).
    pub(crate) fn rewind_to(&mut self, epoch: usize) {
        if epoch >= self.checkpoints.len() {
            return;
        }
        let (trail_mark, obligations_mark) = self.checkpoints[epoch];
        self.undo_to(trail_mark);
        self.obligations.truncate(obligations_mark);
        self.checkpoints.truncate(epoch);
    }

    /// Applies one firing of std `si` as a new epoch. `tuple` is the
    /// firing's source values, indexed by the source pattern's interned
    /// variable ids. On failure the partial epoch is undone and the error
    /// returned, so the arena is left as it was.
    pub(crate) fn apply_firing<V: Borrow<Value>>(
        &mut self,
        cache: &ChaseCache,
        si: usize,
        tuple: &[V],
    ) -> Result<(), ChaseError> {
        let mark = (self.trail.len(), self.obligations.len());
        self.checkpoints.push(mark);
        let res = self.instantiate(cache, si, tuple);
        if res.is_err() {
            self.rewind_to(self.checkpoints.len() - 1);
        }
        res
    }

    /// The body of one firing: α′₌ class values, `≠` obligations, then the
    /// std's instantiation program.
    fn instantiate<V: Borrow<Value>>(
        &mut self,
        cache: &ChaseCache,
        si: usize,
        tuple: &[V],
    ) -> Result<(), ChaseError> {
        let plan = &cache.plans[si];
        // Shared variables pin their class to the firing's constant —
        // detecting unsatisfiable equalities — then the remaining classes
        // get fresh nulls.
        self.class_vals.clear();
        self.class_vals.resize(plan.class_count as usize, None);
        for &(class, src) in &plan.tvar_classes {
            if let Some(sid) = src {
                let v = tuple[sid as usize].borrow();
                match self.class_vals[class as usize] {
                    Some(Val::Const(c)) if self.consts[c as usize] != *v => {
                        return Err(ChaseError::EqualityUnsatisfiable(format!(
                            "std #{si}: α′₌ equates {} and {}",
                            self.consts[c as usize], v
                        )));
                    }
                    Some(_) => {}
                    None => {
                        let c = self.intern(v);
                        self.class_vals[class as usize] = Some(Val::Const(c));
                    }
                }
            }
        }
        for &(class, _) in &plan.tvar_classes {
            if self.class_vals[class as usize].is_none() {
                let n = self.fresh_null();
                self.class_vals[class as usize] = Some(n);
            }
        }
        for (k, &(l, r, _)) in plan.neqs.iter().enumerate() {
            for c in [l, r] {
                if self.class_vals[c as usize].is_none() {
                    let n = self.fresh_null();
                    self.class_vals[c as usize] = Some(n);
                }
            }
            self.obligations.push((
                self.class_vals[l as usize].expect("filled above"),
                self.class_vals[r as usize].expect("filled above"),
                si as u32,
                k as u32,
            ));
        }
        if let Some(e) = &plan.pre_fail {
            return Err(e.clone());
        }
        self.node_map.clear();
        self.node_map.resize(plan.plan_nodes as usize, 0);
        for op in &plan.ops {
            match op {
                PlanOp::Fail(e) => return Err(e.clone()),
                PlanOp::Child {
                    parent,
                    node,
                    label,
                    slot,
                    repeatable,
                } => {
                    let p = self.node_map[*parent as usize];
                    let id = match self.nodes[p as usize].kids[*slot as usize].first() {
                        Some(&id) if !repeatable => id,
                        _ => {
                            let id = self.create_node(&cache.labels, *label);
                            self.push_kid(p, *slot, id);
                            id
                        }
                    };
                    self.node_map[*node as usize] = id;
                }
                PlanOp::Unify { node, classes } => {
                    let a = self.node_map[*node as usize] as usize;
                    for (k, &cls) in classes.iter().enumerate() {
                        let nv = self.class_vals[cls as usize].expect("all classes filled");
                        let old = self.nodes[a].attrs[k];
                        if !self.unify(old, nv) {
                            let info = &cache.labels[self.nodes[a].label as usize];
                            return Err(ChaseError::ValueConflict(format!(
                                "attribute {} of {}: {} vs {}",
                                info.attrs[k],
                                info.name,
                                self.resolve(old),
                                self.resolve(nv)
                            )));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// The canonical solution of the applied epochs: completion, the `≠`
    /// check and materialization, run under a mark and undone before
    /// returning, so the applied state is left untouched.
    pub(crate) fn solution(&mut self, cache: &ChaseCache) -> Result<Tree, ChaseError> {
        let mark = self.trail.len();
        self.complete(&cache.labels);
        let out = match self
            .obligations
            .iter()
            .find(|&&(a, b, _, _)| self.canon(a) == self.canon(b))
        {
            Some(&(_, _, si, k)) => Err(ChaseError::InequalityViolated(
                cache.plans[si as usize].neqs[k as usize].2.clone(),
            )),
            None => Ok(self.materialize(cache)),
        };
        self.undo_to(mark);
        out
    }

    /// Appends the missing mandatory children. Newly created nodes are
    /// completed when the sweep reaches them. (Multiplicity and stray-child
    /// failures cannot arise: children only enter through a production
    /// slot, and non-repeatable slots reuse their unique child.)
    fn complete(&mut self, labels: &[LabelInfo]) {
        let mut i = 0;
        while i < self.nodes.len() {
            let info = &labels[self.nodes[i].label as usize];
            for (slot, &(clabel, mult)) in info.slots.iter().enumerate() {
                if self.nodes[i].kids[slot].is_empty() && matches!(mult, Mult::One | Mult::Plus) {
                    let id = self.create_node(labels, clabel);
                    self.push_kid(i as u32, slot as u32, id);
                }
            }
            i += 1;
        }
    }

    /// The arena as a document, children in slot order.
    fn materialize(&self, cache: &ChaseCache) -> Tree {
        let mut tree = Tree::new(cache.labels[cache.root as usize].name.clone());
        tree.set_attrs(Tree::ROOT, self.attrs_of(&cache.labels, 0));
        self.emit(&cache.labels, 0, &mut tree, Tree::ROOT);
        tree
    }

    fn attrs_of(&self, labels: &[LabelInfo], node: usize) -> Vec<(Name, Value)> {
        let info = &labels[self.nodes[node].label as usize];
        info.attrs
            .iter()
            .cloned()
            .zip(self.nodes[node].attrs.iter().map(|&v| self.resolve(v)))
            .collect()
    }

    fn emit(&self, labels: &[LabelInfo], node: usize, out: &mut Tree, at: NodeId) {
        for &kid in self.nodes[node].kids.iter().flatten() {
            let kid = kid as usize;
            let label = labels[self.nodes[kid].label as usize].name.clone();
            let id = out.add_child(at, label, self.attrs_of(labels, kid));
            self.emit(labels, kid, out, id);
        }
    }
}
