//! The compiled nested-relational kernel behind the PTIME cells of
//! Figure 1 (Fact 5.1 and Thm 6.3).
//!
//! A nested-relational DTD has no disjunction and no recursion, so
//! satisfiability of a downward pattern needs no type fixpoint: it is a
//! bottom-up pass over the pattern that computes, per pattern node, the
//! set of DTD labels the node can sit at (requirements of co-located
//! pattern nodes always merge). [`NrKernel`] holds everything that pass
//! reads, built once per DTD: the child and strict-descendant relations
//! as one bitset row per label id and each label's arity. It also holds
//! what the Thm 6.3 rigidity analysis reads of the DTD's
//! [`NestedRelationalView`]: its tree shape, the labels with a
//! repeatable slot, and the rigid labels (at most one occurrence in any
//! conforming document). The view itself is not kept: its per-label maps
//! cost more memory than these bitsets. [`crate::sat::SatCache`] builds a
//! kernel lazily on its first nested-relational query and shares it.

use crate::ast::{LabelTest, ListItem, Pattern};
use xmlmap_dtd::content::{get_bit, set_bit};
use xmlmap_dtd::{Dtd, NestedRelationalView};
use xmlmap_trees::Name;

/// A nested-relational DTD compiled for downward-pattern satisfiability
/// and the Thm 6.3 rigidity analysis. Label ids are the DTD's own
/// ([`Dtd::labels`]), so the label universe is [`Dtd::alphabet`].
pub struct NrKernel {
    /// [`NestedRelationalView::is_tree_shaped`].
    tree_shaped: bool,
    /// The DTD's interned alphabet, sorted: `labels[id]` has id `id`.
    labels: Box<[Name]>,
    root: usize,
    /// Words per bitset row.
    words: usize,
    /// Row `l`: the labels occurring in `l`'s production.
    children: Box<[u64]>,
    /// Row `l`: the labels reachable below `l` through productions.
    below: Box<[u64]>,
    /// `arity[l]`: the attribute count of label `l`.
    arity: Box<[usize]>,
    /// The rigid labels: one occurrence at most in any conforming document.
    rigid: Box<[u64]>,
    /// The labels whose slot under their unique parent is repeatable.
    repeatable: Box<[u64]>,
}

impl NrKernel {
    /// Compiles `dtd`, or `None` when it is not nested-relational.
    pub fn new(dtd: &Dtd) -> Option<NrKernel> {
        let view = dtd.nested_relational()?;
        let labels: Box<[Name]> = dtd.labels().into();
        let n = labels.len();
        let words = n.div_ceil(64).max(1);
        let id = |l: &Name| dtd.label_id(l).expect("a label of the DTD") as usize;
        let kids: Vec<Vec<usize>> = labels
            .iter()
            .map(|l| view.slots(l).iter().map(|(c, _)| id(c)).collect())
            .collect();
        let mut children = vec![0u64; n * words];
        for (l, ks) in kids.iter().enumerate() {
            for &c in ks {
                set_bit(&mut children[l * words..(l + 1) * words], c);
            }
        }
        // One bottom-up pass: a nested-relational DTD is not recursive, so
        // each row is complete once every child's row is.
        fn fill_below(
            l: usize,
            kids: &[Vec<usize>],
            words: usize,
            below: &mut [u64],
            done: &mut [bool],
        ) {
            if done[l] {
                return;
            }
            for &c in &kids[l] {
                fill_below(c, kids, words, below, done);
                set_bit(&mut below[l * words..(l + 1) * words], c);
                for w in 0..words {
                    below[l * words + w] |= below[c * words + w];
                }
            }
            done[l] = true;
        }
        let mut below = vec![0u64; n * words];
        let mut done = vec![false; n];
        for l in 0..n {
            fill_below(l, &kids, words, &mut below, &mut done);
        }
        let arity = labels.iter().map(|l| dtd.arity(l)).collect();
        // Rigid: the root, and any label under a unique parent chain whose
        // slots are all non-repeatable (NestedRelationalView::is_rigid, one
        // memoized pass instead of a path walk per label).
        fn rigid_of(
            l: usize,
            labels: &[Name],
            view: &NestedRelationalView,
            root: usize,
            memo: &mut [Option<bool>],
        ) -> bool {
            if let Some(r) = memo[l] {
                return r;
            }
            let r = l == root
                || match (view.parent(&labels[l]), view.mult(&labels[l])) {
                    (Some(p), Some(m)) if !m.repeatable() => {
                        let p = labels.binary_search(p).expect("a label of the DTD");
                        rigid_of(p, labels, view, root, memo)
                    }
                    _ => false,
                };
            memo[l] = Some(r);
            r
        }
        let root = id(dtd.root());
        let mut memo = vec![None; n];
        let mut rigid = vec![0u64; words];
        let mut repeatable = vec![0u64; words];
        for l in 0..n {
            if rigid_of(l, &labels, &view, root, &mut memo) {
                set_bit(&mut rigid, l);
            }
            if view.mult(&labels[l]).is_some_and(|m| m.repeatable()) {
                set_bit(&mut repeatable, l);
            }
        }
        debug_assert!(labels.windows(2).all(|w| w[0] < w[1]));
        Some(NrKernel {
            tree_shaped: view.is_tree_shaped(),
            labels,
            root,
            words,
            children: children.into(),
            below: below.into(),
            arity,
            rigid: rigid.into(),
            repeatable: repeatable.into(),
        })
    }

    /// [`NestedRelationalView::is_tree_shaped`].
    pub fn is_tree_shaped(&self) -> bool {
        self.tree_shaped
    }

    /// Is `label` rigid ([`NestedRelationalView::is_rigid`])?
    pub fn is_rigid(&self, label: &Name) -> bool {
        self.id(label).is_some_and(|l| get_bit(&self.rigid, l))
    }

    /// Is `label`'s slot under its unique parent repeatable
    /// ([`NestedRelationalView::mult`])?
    pub fn is_repeatable(&self, label: &Name) -> bool {
        self.id(label).is_some_and(|l| get_bit(&self.repeatable, l))
    }

    /// Satisfiability of a downward pattern (Lemma 4.1 restricted to the
    /// fragment): is there a conforming document the pattern matches at
    /// the root? `None` when the pattern uses a horizontal axis.
    pub fn satisfiable(&self, pattern: &Pattern) -> Option<bool> {
        Some(get_bit(&self.allowed(pattern)?, self.root))
    }

    fn id(&self, label: &Name) -> Option<usize> {
        self.labels.binary_search(label).ok()
    }

    fn row<'a>(&self, table: &'a [u64], l: usize) -> &'a [u64] {
        &table[l * self.words..(l + 1) * self.words]
    }

    /// The labels pattern node `p` can sit at, bottom-up over its items.
    fn allowed(&self, p: &Pattern) -> Option<Vec<u64>> {
        let mut items: Vec<(&[u64], Vec<u64>)> = Vec::with_capacity(p.list.len());
        for item in &p.list {
            items.push(match item {
                ListItem::Descendant(sub) => (&self.below, self.allowed(sub)?),
                // Downward fragment: single-member sequences only.
                ListItem::Seq { members, ops } if ops.is_empty() => {
                    (&self.children, self.allowed(&members[0])?)
                }
                ListItem::Seq { .. } => return None,
            });
        }
        let fits = |l: usize| {
            (p.vars.is_empty() || self.arity[l] == p.vars.len())
                && items.iter().all(|(table, set)| {
                    self.row(table, l)
                        .iter()
                        .zip(set)
                        .any(|(row, set)| row & set != 0)
                })
        };
        let mut out = vec![0u64; self.words];
        match &p.label {
            LabelTest::Label(name) => {
                if let Some(l) = self.id(name).filter(|&l| fits(l)) {
                    set_bit(&mut out, l);
                }
            }
            LabelTest::Wildcard => {
                for l in (0..self.labels.len()).filter(|&l| fits(l)) {
                    set_bit(&mut out, l);
                }
            }
        }
        Some(out)
    }

    /// Approximate heap footprint in bytes: the bitset tables, arities
    /// and label handles.
    pub fn approx_bytes(&self) -> u64 {
        let bitsets = self.children.len() + self.below.len() + 2 * self.words;
        bitsets as u64 * 8 + self.labels.len() as u64 * (8 + 16)
    }
}
