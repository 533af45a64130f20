//! The compiled pattern-evaluation kernel.
//!
//! [`crate::eval`]'s public functions delegate here. The kernel avoids the
//! two costs that dominated the naive evaluator (retained for differential
//! testing in [`crate::reference`]):
//!
//! * **Interned variables** — [`CompiledPattern`] assigns every pattern
//!   variable a dense `u32` id, so a valuation in flight is a
//!   `Vec<Option<Value>>` plus an undo **trail**, not a persistent
//!   `BTreeMap` cloned at every binding site. Backtracking pops the trail.
//! * **Bitset feasibility rows** — [`LiveRows`] keeps, per tree node, two
//!   `u64`-word rows with a bit for every pattern node: `ok` ("the
//!   pattern subtree matches here, values ignored") and `sub` ("…
//!   somewhere in this node's subtree"). [`Matcher::new`] builds them
//!   bottom-up; the delta session builds them once and repairs them edit
//!   by edit.
//!   The subtree closure is a word-parallel OR, so building costs
//!   `O(|T|·|π|·width)` word ops. The rows answer repeat-free Boolean
//!   matching outright (Prop 4.2's PTIME bound) and double as a sound
//!   pruning memo for the valued search: values only ever *restrict*
//!   matches, so a cleared bit proves no valued match can exist below —
//!   shared across every probe against the same tree.

use crate::ast::{LabelTest, ListItem, Pattern, SeqOp, Var};
use crate::eval::Valuation;
use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap};
use xmlmap_trees::{Name, NodeId, Tree, Value};

/// One pattern node, flattened: label test, interned variable tuple, and
/// the child list referencing other nodes by index.
pub(crate) struct CNode {
    pub(crate) label: LabelTest,
    /// Dense variable ids, in tuple order.
    pub(crate) vars: Vec<u32>,
    pub(crate) items: Vec<CItem>,
}

/// A flattened list item; members reference [`CompiledPattern::nodes`].
pub(crate) enum CItem {
    /// `π₁ op π₂ op … πₖ` — a sequence of siblings.
    Seq {
        members: Vec<usize>,
        ops: Vec<SeqOp>,
    },
    /// `//π` — some proper descendant.
    Descendant(usize),
}

/// A pattern lowered to a flat post-order node array with interned
/// variables. Compiling is a single traversal; the result borrows nothing
/// from the source [`Pattern`].
pub struct CompiledPattern {
    /// Post-order (children before parents); the root is last.
    pub(crate) nodes: Vec<CNode>,
    /// Dense id → variable name.
    vars: Vec<Var>,
    /// Does any variable occur more than once (implicit equality)?
    has_repeated: bool,
}

impl CompiledPattern {
    /// Compiles `pattern`, interning its variables in first-occurrence
    /// order.
    pub fn new(pattern: &Pattern) -> CompiledPattern {
        let mut c = CompiledPattern {
            nodes: Vec::new(),
            vars: Vec::new(),
            has_repeated: false,
        };
        c.lower(pattern);
        c
    }

    fn intern(&mut self, var: &Var) -> u32 {
        match self.vars.iter().position(|v| v == var) {
            Some(i) => {
                self.has_repeated = true;
                i as u32
            }
            None => {
                self.vars.push(var.clone());
                (self.vars.len() - 1) as u32
            }
        }
    }

    /// Lowers `p` and its subpatterns, post-order; returns `p`'s index.
    fn lower(&mut self, p: &Pattern) -> usize {
        // Bind the tuple before the subtree so ids follow the written
        // left-to-right order of first occurrence.
        let vars: Vec<u32> = p.vars.iter().map(|v| self.intern(v)).collect();
        let items: Vec<CItem> = p
            .list
            .iter()
            .map(|item| match item {
                ListItem::Seq { members, ops } => CItem::Seq {
                    members: members.iter().map(|m| self.lower(m)).collect(),
                    ops: ops.clone(),
                },
                ListItem::Descendant(d) => CItem::Descendant(self.lower(d)),
            })
            .collect();
        self.nodes.push(CNode {
            label: p.label.clone(),
            vars,
            items,
        });
        self.nodes.len() - 1
    }

    /// The root node's index (patterns are non-empty, so this is valid).
    pub(crate) fn root(&self) -> usize {
        self.nodes.len() - 1
    }

    /// Number of distinct variables.
    pub fn var_count(&self) -> usize {
        self.vars.len()
    }

    /// Dense id → variable name table, in first-occurrence order.
    pub fn vars(&self) -> &[Var] {
        &self.vars
    }

    /// The dense id of `var`, if the pattern uses it.
    pub fn var_id(&self, var: &Var) -> Option<u32> {
        self.vars.iter().position(|v| v == var).map(|i| i as u32)
    }

    /// Does any variable occur twice (implicit equality)?
    pub fn has_repeated_variable(&self) -> bool {
        self.has_repeated
    }

    /// The concrete labels the pattern tests, or `None` if a node is a
    /// wildcard. A match maps only to nodes with these labels, so an edit
    /// whose region misses them cannot change a downward pattern's
    /// matches — the basis of the delta-chase refire analysis.
    pub fn label_footprint(&self) -> Option<BTreeSet<Name>> {
        self.nodes
            .iter()
            .map(|n| match &n.label {
                LabelTest::Label(l) => Some(l.clone()),
                LabelTest::Wildcard => None,
            })
            .collect()
    }

    /// Is the pattern free of `→` and `→*` (every sequence item a single
    /// member)? Only such patterns enumerate through an edit region
    /// ([`Matcher::for_each_embedding_through`]): an edit changes sibling
    /// adjacency, which a horizontal pattern observes without mapping a
    /// node into the region.
    pub fn is_downward(&self) -> bool {
        self.nodes.iter().all(|n| {
            n.items.iter().all(|item| match item {
                CItem::Seq { members, .. } => members.len() == 1,
                CItem::Descendant(_) => true,
            })
        })
    }

    /// Approximate heap footprint in bytes of the flattened node array and
    /// variable table.
    pub fn approx_bytes(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| {
                48 + n.vars.capacity() as u64 * 4
                    + n.items
                        .iter()
                        .map(|it| match it {
                            CItem::Seq { members, ops } => {
                                32 + members.capacity() as u64 * 8 + ops.capacity() as u64
                            }
                            CItem::Descendant(_) => 16,
                        })
                        .sum::<u64>()
            })
            .sum::<u64>()
            + self.vars.len() as u64 * 32
    }
}

/// The in-flight valuation: dense environment plus undo trail. Bindings
/// are *borrowed* from the tree (or the seed) — backtracking never clones
/// a value; materialization into a [`Valuation`] clones once per reported
/// match.
struct EvalState<'e> {
    env: Vec<Option<&'e Value>>,
    trail: Vec<u32>,
}

impl<'e> EvalState<'e> {
    /// Rolls the environment back to a trail mark.
    fn undo(&mut self, mark: usize) {
        for id in self.trail.drain(mark..) {
            self.env[id as usize] = None;
        }
    }
}

/// Per-label candidate masks: the pattern nodes a tree label can head
/// (plus wildcards). A tree node then only tests those bits instead of
/// scanning every pattern node.
#[derive(Clone)]
struct Candidates {
    wild: Vec<u64>,
    labels: Vec<(Name, Vec<u64>)>,
    /// Label → `labels` index, built only for wide alphabets: patterns
    /// usually mention a handful of labels, and a linear scan (pointer or
    /// length pre-check + memcmp) is cheaper per tree node than hashing.
    index: Option<HashMap<Name, usize>>,
}

impl Candidates {
    fn new(pat: &CompiledPattern, words: usize) -> Candidates {
        let mut wild = vec![0u64; words];
        let mut labels: Vec<(Name, Vec<u64>)> = Vec::new();
        for (pi, p) in pat.nodes.iter().enumerate() {
            match &p.label {
                LabelTest::Wildcard => wild[pi / 64] |= 1 << (pi % 64),
                LabelTest::Label(name) => {
                    let at = match labels.iter().position(|(l, _)| l == name) {
                        Some(at) => at,
                        None => {
                            labels.push((name.clone(), vec![0u64; words]));
                            labels.len() - 1
                        }
                    };
                    labels[at].1[pi / 64] |= 1 << (pi % 64);
                }
            }
        }
        let index = (labels.len() > 8).then(|| {
            labels
                .iter()
                .enumerate()
                .map(|(i, (l, _))| (l.clone(), i))
                .collect()
        });
        Candidates {
            wild,
            labels,
            index,
        }
    }

    /// The entry of `label` in `labels`, if some pattern node tests it.
    #[inline]
    fn find(&self, label: &Name) -> Option<usize> {
        match &self.index {
            Some(index) => index.get(label).copied(),
            None => self.labels.iter().position(|(l, _)| l == label),
        }
    }

    /// Can some pattern node head a tree node whose label is `found`?
    fn heads(&self, found: Option<usize>) -> bool {
        found.is_some() || self.wild.iter().any(|&w| w != 0)
    }

    /// Word `w` of the candidate mask of a tree node whose label is
    /// `found`.
    #[inline]
    fn mask(&self, found: Option<usize>, w: usize) -> u64 {
        self.wild[w] | found.map_or(0, |i| self.labels[i].1[w])
    }
}

/// Reusable DP buffers for [`SeqScratch::places`]: a row derive calls it
/// once per (tree node, sequence item) pair, so per-call `Vec` allocations
/// would dominate the build.
#[derive(Clone, Default)]
struct SeqScratch {
    can: Vec<bool>,
    next: Vec<bool>,
    suffix: Vec<bool>,
}

impl SeqScratch {
    /// Can a sequence of `ops.len() + 1` members be placed along `width`
    /// children, given whether member `m` fits child `i`
    /// (`member_ok(m, i)`)? Right-to-left DP.
    fn places(
        &mut self,
        width: usize,
        ops: &[SeqOp],
        member_ok: impl Fn(usize, usize) -> bool,
    ) -> bool {
        if width == 0 {
            return false;
        }
        let can = &mut self.can;
        can.clear();
        can.extend((0..width).map(|i| member_ok(ops.len(), i)));
        for m in (0..ops.len()).rev() {
            let next = &mut self.next;
            next.clear();
            next.resize(width, false);
            match ops[m] {
                SeqOp::Next => {
                    for (i, slot) in next.iter_mut().enumerate().take(width - 1) {
                        *slot = member_ok(m, i) && can[i + 1];
                    }
                }
                SeqOp::Following => {
                    let suffix = &mut self.suffix;
                    suffix.clear();
                    suffix.resize(width + 1, false);
                    for i in (0..width).rev() {
                        suffix[i] = suffix[i + 1] || can[i];
                    }
                    for (i, slot) in next.iter_mut().enumerate().take(width - 1) {
                        *slot = member_ok(m, i) && suffix[i + 1];
                    }
                }
            }
            std::mem::swap(can, next);
        }
        can.iter().any(|&b| b)
    }
}

/// A zeroed row of `len` words: in `small` when it fits, else in `spill`.
fn zeroed<'a>(small: &'a mut [u64; 8], spill: &'a mut Vec<u64>, len: usize) -> &'a mut [u64] {
    if len <= small.len() {
        &mut small[..len]
    } else {
        spill.resize(len, 0);
        spill
    }
}

#[inline]
fn bit(row: &[u64], p: usize) -> bool {
    row[p / 64] >> (p % 64) & 1 != 0
}

/// Adds (or removes) the bits of one child's rows — `bits`, `ok` words
/// then `sub` words — to (from) a support `block`: `ok` counts, then `sub`
/// counts, `width` each.
fn tally(block: &mut [u32], width: usize, bits: &[u64], add: bool) {
    let (ok, sub) = bits.split_at(bits.len() / 2);
    for (half, base) in [(ok, 0), (sub, width)] {
        for (w, &word) in half.iter().enumerate() {
            let mut word = word;
            while word != 0 {
                let slot = &mut block[base + w * 64 + word.trailing_zeros() as usize];
                *slot = if add { *slot + 1 } else { *slot - 1 };
                word &= word - 1;
            }
        }
    }
}

/// The feasibility rows of one pattern over one tree, kept current across
/// edits of a mutable tree.
///
/// Every node (by [`NodeId::index`]) has its `ok` row and `sub` row side
/// by side. A node's rows follow from its label, its children list and
/// the OR of its children's rows: a `//` item and a one-member sequence
/// only ask whether *some* child sets a bit, and a longer sequence (`→`,
/// `→*`) runs a DP along the children's `ok` rows.
///
/// An edit repairs just the new nodes and the edit's ancestors, stopping
/// at the first ancestor whose rows stand. To take one child's bits out of
/// an ancestor's OR without rescanning its siblings, an ancestor keeps a
/// support block counting, per pattern node `p`, the children that set
/// `ok` bit `p` and those that set `sub` bit `p`. A block is counted from
/// the children the first time an edit reaches its node, so building the
/// rows counts nothing. Rows of detached nodes stay readable until the
/// tree is compacted.
#[derive(Clone)]
pub struct LiveRows {
    cands: Candidates,
    /// Words per row (`⌈|π| / 64⌉`, min 1).
    words: usize,
    /// Node `t`'s rows are `rows[t*2*words..]`: `ok` words, then `sub`
    /// words.
    rows: Vec<u64>,
    /// The support blocks counted so far: `ok` counts, then `sub` counts,
    /// `|π|` each.
    support: HashMap<NodeId, Vec<u32>>,
    scratch: SeqScratch,
}

impl LiveRows {
    /// Builds the rows over `tree`, children before parents.
    pub fn new(tree: &Tree, pat: &CompiledPattern) -> LiveRows {
        let words = pat.nodes.len().div_ceil(64).max(1);
        let mut live = LiveRows {
            cands: Candidates::new(pat, words),
            words,
            rows: Vec::new(),
            support: HashMap::new(),
            scratch: SeqScratch::default(),
        };
        live.fit(tree);
        let order: Vec<NodeId> = tree.nodes().collect();
        for &t in order.iter().rev() {
            live.fill(tree, pat, t);
        }
        live
    }

    /// A matcher over `tree` that reads these rows instead of building its
    /// own; `tree` must be the tree the rows were kept for.
    pub fn matcher<'t, 'p>(&'t self, tree: &'t Tree, pat: &'p CompiledPattern) -> Matcher<'t, 'p> {
        debug_assert!(self.rows.len() >= tree.size() * 2 * self.words);
        Matcher {
            tree,
            pat,
            rows: Cow::Borrowed(self),
        }
    }

    /// Repairs the rows after `tree.graft_at` put a new subtree at `root`:
    /// fills the new nodes bottom-up, then counts `root` into its parent
    /// and walks up the ancestors while their rows change.
    pub fn grafted(&mut self, tree: &Tree, pat: &CompiledPattern, root: NodeId) {
        self.fit(tree);
        let new: Vec<NodeId> = tree.descendants_or_self(root).collect();
        for &t in new.iter().rev() {
            self.fill(tree, pat, t);
        }
        let parent = tree.parent(root).expect("a grafted subtree has a parent");
        let before = self.rows_of(parent);
        let came = self.rows_of(root);
        self.count_change(tree, pat, parent, &[], &came);
        self.settle(tree, pat, parent, before);
    }

    /// Repairs the rows after `tree.detach(root)` took the subtree at
    /// `root` from `parent`: uncounts `root` from `parent` and walks up the
    /// ancestors while their rows change.
    pub fn detached(&mut self, tree: &Tree, pat: &CompiledPattern, parent: NodeId, root: NodeId) {
        let before = self.rows_of(parent);
        let gone = self.rows_of(root);
        self.count_change(tree, pat, parent, &gone, &[]);
        self.settle(tree, pat, parent, before);
    }

    /// Grows the rows to cover every node of `tree`.
    fn fit(&mut self, tree: &Tree) {
        self.rows.resize(tree.size() * 2 * self.words, 0);
    }

    /// `t`'s rows: `ok` words, then `sub` words.
    #[inline]
    fn rows_at(&self, t: NodeId) -> &[u64] {
        let at = t.index() * 2 * self.words;
        &self.rows[at..at + 2 * self.words]
    }

    #[inline]
    fn ok_bit(&self, t: NodeId, p: usize) -> bool {
        bit(self.rows_at(t), p)
    }

    #[inline]
    fn sub_bit(&self, t: NodeId, p: usize) -> bool {
        bit(&self.rows_at(t)[self.words..], p)
    }

    fn rows_of(&self, t: NodeId) -> Vec<u64> {
        self.rows_at(t).to_vec()
    }

    /// Moves one child of `t` from rows `old` to rows `new` (empty for a
    /// child that came or went) in `t`'s support block, after the tree
    /// edit. A block not counted yet is counted from `t`'s children as
    /// they now stand, which already include the change.
    fn count_change(
        &mut self,
        tree: &Tree,
        pat: &CompiledPattern,
        t: NodeId,
        old: &[u64],
        new: &[u64],
    ) {
        let (span, width) = (2 * self.words, pat.nodes.len());
        let Some(block) = self.support.get_mut(&t) else {
            let mut block = vec![0; 2 * width];
            for &c in tree.children(t) {
                tally(&mut block, width, self.rows_at(c), true);
            }
            self.support.insert(t, block);
            return;
        };
        let word = |row: &[u64], w: usize| row.get(w).copied().unwrap_or(0);
        let gone: Vec<u64> = (0..span).map(|w| word(old, w) & !word(new, w)).collect();
        let came: Vec<u64> = (0..span).map(|w| word(new, w) & !word(old, w)).collect();
        tally(block, width, &gone, false);
        tally(block, width, &came, true);
    }

    /// Derives a fresh node's rows from its children's, OR'ed. A node no
    /// pattern node can head keeps the zero `ok` row [`LiveRows::fit`] gave
    /// it and takes its children's `sub` bits, so such a leaf costs one
    /// label lookup.
    fn fill(&mut self, tree: &Tree, pat: &CompiledPattern, t: NodeId) {
        let children = tree.children(t);
        let label = self.cands.find(tree.label(t));
        let heads = self.cands.heads(label);
        if !heads && children.is_empty() {
            return;
        }
        let (words, span) = (self.words, 2 * self.words);
        if !heads {
            // Only the `sub` half: the OR of the children's `sub` rows.
            let at = t.index() * span + words;
            for &c in children {
                let from = c.index() * span + words;
                for w in 0..words {
                    self.rows[at + w] |= self.rows[from + w];
                }
            }
            return;
        }
        let (mut small, mut spill) = ([0u64; 8], Vec::new());
        let kids = zeroed(&mut small, &mut spill, span);
        for &c in children {
            for (k, &w) in kids.iter_mut().zip(self.rows_at(c)) {
                *k |= w;
            }
        }
        self.derive(tree, pat, t, label, kids);
    }

    /// Re-derives `t`'s rows after an edit, with its children's OR'ed rows
    /// read off its support block.
    fn rederive(&mut self, tree: &Tree, pat: &CompiledPattern, t: NodeId) {
        let (words, width) = (self.words, pat.nodes.len());
        let (mut small, mut spill) = ([0u64; 8], Vec::new());
        let kids = zeroed(&mut small, &mut spill, 2 * words);
        for (i, &n) in self.support[&t].iter().enumerate() {
            if n > 0 {
                let (half, p) = (i / width, i % width);
                kids[half * words + p / 64] |= 1 << (p % 64);
            }
        }
        let label = self.cands.find(tree.label(t));
        self.derive(tree, pat, t, label, kids);
    }

    /// Derives `t`'s rows from `kids` — its children's `ok` rows OR'ed,
    /// then their `sub` rows OR'ed — by the row rule: `ok` holds each
    /// pattern node whose label test (`label` is where `cands` found `t`'s
    /// label) and arity hold at `t` and all of whose items hold. A `//`
    /// item holds when some child sets its member's `sub` bit, a
    /// one-member sequence when some child sets its `ok` bit, and a longer
    /// sequence when the DP places it along the children's `ok` rows.
    /// `sub` is `ok` OR'ed with the children's `sub`.
    fn derive(
        &mut self,
        tree: &Tree,
        pat: &CompiledPattern,
        t: NodeId,
        label: Option<usize>,
        kids: &[u64],
    ) {
        let words = self.words;
        let (mut small, mut spill) = ([0u64; 8], Vec::new());
        let row = zeroed(&mut small, &mut spill, words);
        let (children, n_attrs) = (tree.children(t), tree.attrs(t).len());
        let (cands, rows, scratch) = (&self.cands, &self.rows, &mut self.scratch);
        let mut item_holds = |item: &CItem| match item {
            CItem::Descendant(d) => bit(&kids[words..], *d),
            CItem::Seq { members, .. } if members.len() == 1 => bit(kids, members[0]),
            CItem::Seq { members, ops } => scratch.places(children.len(), ops, |m, i| {
                bit(&rows[children[i].index() * 2 * words..], members[m])
            }),
        };
        for (w, slot) in row.iter_mut().enumerate() {
            let mut cand = cands.mask(label, w);
            while cand != 0 {
                let pi = w * 64 + cand.trailing_zeros() as usize;
                cand &= cand - 1;
                let p = &pat.nodes[pi];
                if !p.vars.is_empty() && n_attrs != p.vars.len() {
                    continue;
                }
                if p.items.iter().all(&mut item_holds) {
                    *slot |= 1 << (pi % 64);
                }
            }
        }
        let at = t.index() * 2 * words;
        for w in 0..words {
            self.rows[at + w] = row[w];
            self.rows[at + words + w] = row[w] | kids[words + w];
        }
    }

    /// Re-derives `t`, whose support block or children just changed from
    /// when its rows read `before`, and each ancestor in turn — moving
    /// every changed row into its parent's block — until an ancestor's
    /// rows stand.
    fn settle(&mut self, tree: &Tree, pat: &CompiledPattern, mut t: NodeId, mut before: Vec<u64>) {
        loop {
            self.rederive(tree, pat, t);
            let after = self.rows_of(t);
            if after == before {
                return;
            }
            let Some(parent) = tree.parent(t) else {
                return;
            };
            let parent_before = self.rows_of(parent);
            self.count_change(tree, pat, parent, &before, &after);
            (t, before) = (parent, parent_before);
        }
    }
}

/// A pattern prepared against one tree: the bitset feasibility rows,
/// shared by every probe ([`Matcher::matches_with`],
/// [`Matcher::for_each_match`], …) on that tree. The rows are built by
/// [`Matcher::new`] or borrowed from a caller's [`LiveRows`].
pub struct Matcher<'t, 'p> {
    tree: &'t Tree,
    pat: &'p CompiledPattern,
    rows: Cow<'t, LiveRows>,
}

impl<'t, 'p> Matcher<'t, 'p> {
    /// Builds the feasibility rows bottom-up over `tree`.
    pub fn new(tree: &'t Tree, pat: &'p CompiledPattern) -> Matcher<'t, 'p> {
        Matcher {
            tree,
            pat,
            rows: Cow::Owned(LiveRows::new(tree, pat)),
        }
    }

    #[inline]
    fn ok_bit(&self, t: NodeId, pi: usize) -> bool {
        self.rows.ok_bit(t, pi)
    }

    #[inline]
    fn sub_bit(&self, t: NodeId, pi: usize) -> bool {
        self.rows.sub_bit(t, pi)
    }

    /// Structural (value-free) feasibility of the whole pattern at `node`.
    ///
    /// For repeat-free patterns this *is* the Boolean answer (Prop 4.2);
    /// with repeated variables it is a sound over-approximation.
    pub fn feasible_at(&self, node: NodeId) -> bool {
        self.ok_bit(node, self.pat.root())
    }

    /// [`Matcher::feasible_at`] anchored at the root.
    pub fn feasible(&self) -> bool {
        self.feasible_at(Tree::ROOT)
    }

    fn fresh_state<'e>(&self, seed: &'e Valuation) -> EvalState<'e> {
        let mut env = vec![None; self.pat.var_count()];
        for (var, value) in seed {
            if let Some(id) = self.pat.var_id(var) {
                env[id as usize] = Some(value);
            }
        }
        EvalState {
            env,
            trail: Vec::new(),
        }
    }

    /// Rebuilds a public [`Valuation`] from the dense environment; `seed`
    /// entries for variables outside the pattern are carried through
    /// unchanged (the naive evaluator did the same).
    fn materialize(&self, seed: &Valuation, state: &EvalState<'_>) -> Valuation {
        let mut out = seed.clone();
        for (id, slot) in state.env.iter().enumerate() {
            if let Some(value) = slot {
                out.insert(self.pat.vars[id].clone(), (*value).clone());
            }
        }
        out
    }

    /// Calls `found` on every valuation extending `seed` that witnesses the
    /// pattern at `node`; `found` returns `false` to stop. Returns `true`
    /// iff the enumeration was stopped early.
    pub fn for_each_match_at(
        &self,
        node: NodeId,
        seed: &Valuation,
        found: &mut dyn FnMut(&Valuation) -> bool,
    ) -> bool {
        let mut state = self.fresh_state(seed);
        !self.visit_pattern(&mut state, node, self.pat.root(), &mut |matcher, st| {
            found(&matcher.materialize(seed, st))
        })
    }

    /// [`Matcher::for_each_match_at`] anchored at the root.
    pub fn for_each_match(
        &self,
        seed: &Valuation,
        found: &mut dyn FnMut(&Valuation) -> bool,
    ) -> bool {
        self.for_each_match_at(Tree::ROOT, seed, found)
    }

    /// Does some valuation extending `seed` witness the pattern at the
    /// root?
    pub fn matches_with(&self, seed: &Valuation) -> bool {
        self.for_each_match(seed, &mut |_| false)
    }

    /// [`Matcher::matches_with`] at an arbitrary anchor.
    pub fn matches_at(&self, node: NodeId, seed: &Valuation) -> bool {
        self.for_each_match_at(node, seed, &mut |_| false)
    }

    /// Dense-id probing: like [`Matcher::for_each_match_at`], but the seed
    /// and the valuations handed to `found` live in the interned id space
    /// (`env[id]`, ids from [`CompiledPattern::var_id`]) as *borrowed*
    /// values — no [`Valuation`] is ever materialized and no value is ever
    /// cloned. This is the hot-path entry point for callers issuing many
    /// probes, e.g. per-firing std checks: translate the shared variables
    /// to id pairs once, then reseed a dense buffer per probe.
    /// `seed_env.len()` must equal [`CompiledPattern::var_count`].
    pub fn for_each_match_dense<'e>(
        &'e self,
        node: NodeId,
        seed_env: &[Option<&'e Value>],
        found: &mut dyn FnMut(&[Option<&Value>]) -> bool,
    ) -> bool {
        debug_assert_eq!(seed_env.len(), self.pat.var_count());
        let mut state = EvalState {
            env: seed_env.to_vec(),
            trail: Vec::new(),
        };
        !self.visit_pattern(&mut state, node, self.pat.root(), &mut |_, st| {
            found(&st.env)
        })
    }

    /// All complete matches at the root as **dense tuples** of values
    /// borrowed from the tree: `tuple[id]` is the value of the variable
    /// with interned id `id` (see [`CompiledPattern::var_id`]).
    ///
    /// The rows are deduplicated and sorted in alphabetical variable order,
    /// exactly like [`Matcher::all_matches`] — the two differ only in that
    /// no [`Valuation`] is built and no value is cloned. This is the
    /// match-enumeration hook for bulk consumers such as the chase's firing
    /// enumeration: tuples borrow from the tree (not from the matcher), so
    /// they outlive the per-tree tables.
    pub fn all_match_tuples(&self) -> Vec<Vec<&'t Value>> {
        let nvars = self.pat.var_count();
        let mut perm: Vec<usize> = (0..nvars).collect();
        perm.sort_by(|&a, &b| self.pat.vars[a].cmp(&self.pat.vars[b]));
        let mut state = EvalState {
            env: vec![None; nvars],
            trail: Vec::new(),
        };
        // Collect matches as tuples of borrowed values (the refs point into
        // the tree, so they survive backtracking).
        let mut tuples: Vec<Vec<&'t Value>> = Vec::new();
        self.visit_pattern(&mut state, Tree::ROOT, self.pat.root(), &mut |_, st| {
            tuples.push(
                st.env
                    .iter()
                    .map(|v| v.expect("a complete match binds every variable"))
                    .collect(),
            );
            true
        });
        tuples.sort_unstable_by(|a, b| {
            perm.iter()
                .map(|&i| a[i].cmp(b[i]))
                .find(|c| *c != std::cmp::Ordering::Equal)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        tuples.dedup();
        tuples
    }

    /// All valuations witnessing the pattern at the root, deduplicated
    /// and sorted.
    ///
    /// Deduplication happens on dense value tuples; `Valuation`s are built
    /// only for the surviving rows. The sort key replays `BTreeMap`
    /// ordering (all rows share the same key set, so map order is value
    /// order in alphabetical variable order), keeping the result identical
    /// to the naive evaluator's sorted set.
    pub fn all_matches(&self) -> Vec<Valuation> {
        self.all_match_tuples()
            .into_iter()
            .map(|tuple| {
                self.pat
                    .vars
                    .iter()
                    .cloned()
                    .zip(tuple.into_iter().cloned())
                    .collect()
            })
            .collect()
    }

    /// Calls `found` once per **embedding** of the pattern at the root
    /// that maps at least one pattern node into the edit region, with the
    /// embedding's dense valuation (as [`Matcher::for_each_match_dense`]
    /// hands it out). `path` runs from the root down to the edit node; the
    /// region is the edit node's whole subtree when `whole`, else the edit
    /// node alone. Embeddings are counted, not deduplicated: two that bind
    /// the same values are both reported.
    ///
    /// Pattern nodes above the region can only sit on `path`, so the walk
    /// follows it: at each ancestor the embedding reaches the region
    /// through its *first* item that does — placed first, down the path —
    /// while earlier items avoid the region and later ones enumerate
    /// freely, which reports each embedding exactly once. Off-path
    /// siblings are only visited by items that do not reach the region,
    /// and those enumerate unrestricted, as every other probe does.
    /// Panics unless the pattern is downward.
    pub fn for_each_embedding_through(
        &self,
        path: &[NodeId],
        whole: bool,
        found: &mut dyn FnMut(&[Option<&Value>]),
    ) {
        assert!(
            self.pat.is_downward(),
            "enumerating through an edit needs a downward pattern"
        );
        debug_assert_eq!(path.first(), Some(&Tree::ROOT));
        let region = Region { path, whole };
        let mut state = EvalState {
            env: vec![None; self.pat.var_count()],
            trail: Vec::new(),
        };
        self.visit_cone(
            &mut state,
            &region,
            0,
            self.pat.root(),
            Need::Touch,
            &mut |_, st| {
                found(&st.env);
                true
            },
        );
    }

    /// Core visitor. `cont` is invoked (with the live state) once per way
    /// of witnessing pattern node `pnode` at `tnode`; it returns `true` to
    /// continue enumerating. The return value is "still alive" — `false`
    /// propagates an abort. The environment is always restored before
    /// returning.
    fn visit_pattern<'e>(
        &self,
        state: &mut EvalState<'e>,
        tnode: NodeId,
        pnode: usize,
        cont: &mut dyn FnMut(&Self, &mut EvalState<'e>) -> bool,
    ) -> bool
    where
        't: 'e,
    {
        let Some(mark) = self.bind(state, tnode, pnode) else {
            return true;
        };
        let alive = self.visit_items(state, tnode, pnode, 0, cont);
        state.undo(mark);
        alive
    }

    /// Places pattern node `pnode` at `tnode`: the structural test, then
    /// the variable tuple. Returns the trail mark to undo back to, or
    /// `None` (with the environment untouched) when the placement fails.
    fn bind<'e>(&self, state: &mut EvalState<'e>, tnode: NodeId, pnode: usize) -> Option<usize>
    where
        't: 'e,
    {
        // Structural pruning: label, arity, and every value-free placement
        // obligation below this pair — one bit test.
        if !self.ok_bit(tnode, pnode) {
            return None;
        }
        let p = &self.pat.nodes[pnode];
        let mark = state.trail.len();
        // Bind the variable tuple; repeated variables must agree. The
        // bound value is a borrow of the tree's attribute — no clone.
        if !p.vars.is_empty() {
            for (&id, value) in p.vars.iter().zip(self.tree.attr_values(tnode)) {
                match &state.env[id as usize] {
                    Some(bound) if *bound != value => {
                        state.undo(mark);
                        return None;
                    }
                    Some(_) => {}
                    None => {
                        state.env[id as usize] = Some(value);
                        state.trail.push(id);
                    }
                }
            }
        }
        Some(mark)
    }

    /// Satisfies `items[k..]` of pattern node `pnode` at `tnode`.
    fn visit_items<'e>(
        &self,
        state: &mut EvalState<'e>,
        tnode: NodeId,
        pnode: usize,
        k: usize,
        cont: &mut dyn FnMut(&Self, &mut EvalState<'e>) -> bool,
    ) -> bool
    where
        't: 'e,
    {
        let Some(item) = self.pat.nodes[pnode].items.get(k) else {
            return cont(self, state);
        };
        self.visit_item(state, tnode, item, &mut |matcher, st| {
            matcher.visit_items(st, tnode, pnode, k + 1, cont)
        })
    }

    /// Every way of satisfying one item of a pattern node placed at
    /// `tnode`.
    fn visit_item<'e>(
        &self,
        state: &mut EvalState<'e>,
        tnode: NodeId,
        item: &CItem,
        cont: &mut dyn FnMut(&Self, &mut EvalState<'e>) -> bool,
    ) -> bool
    where
        't: 'e,
    {
        match item {
            CItem::Descendant(d) => self.visit_descendants(state, tnode, *d, cont),
            CItem::Seq { members, ops } => {
                let children = self.tree.children(tnode);
                (0..children.len())
                    .all(|i| self.visit_seq(children, i, members, ops, 0, state, cont))
            }
        }
    }

    /// Places pattern node `d` at every proper descendant of `tnode`, in
    /// document order, skipping whole subtrees with no structural match
    /// for `d`.
    fn visit_descendants<'e>(
        &self,
        state: &mut EvalState<'e>,
        tnode: NodeId,
        d: usize,
        cont: &mut dyn FnMut(&Self, &mut EvalState<'e>) -> bool,
    ) -> bool
    where
        't: 'e,
    {
        let mut stack: Vec<NodeId> = self.tree.children(tnode).iter().rev().copied().collect();
        while let Some(x) = stack.pop() {
            if !self.sub_bit(x, d) {
                continue;
            }
            if self.ok_bit(x, d) && !self.visit_pattern(state, x, d, cont) {
                return false;
            }
            stack.extend(self.tree.children(x).iter().rev());
        }
        true
    }

    /// Matches `members[m..]` with `members[m]` at `children[i]`.
    #[allow(clippy::too_many_arguments)]
    fn visit_seq<'e>(
        &self,
        children: &[NodeId],
        i: usize,
        members: &[usize],
        ops: &[SeqOp],
        m: usize,
        state: &mut EvalState<'e>,
        cont: &mut dyn FnMut(&Self, &mut EvalState<'e>) -> bool,
    ) -> bool
    where
        't: 'e,
    {
        self.visit_pattern(state, children[i], members[m], &mut |matcher, st| {
            if m + 1 == members.len() {
                return cont(matcher, st);
            }
            match ops[m] {
                SeqOp::Next => {
                    if i + 1 < children.len() {
                        matcher.visit_seq(children, i + 1, members, ops, m + 1, st, cont)
                    } else {
                        true
                    }
                }
                SeqOp::Following => {
                    for j in i + 1..children.len() {
                        if !matcher.visit_seq(children, j, members, ops, m + 1, st, cont) {
                            return false;
                        }
                    }
                    true
                }
            }
        })
    }

    /// Places pattern node `pnode` at `region.path[i]` under requirement
    /// `need` (`Touch` or `Avoid`): the embedding of `pnode`'s subpattern
    /// must (must not) map some node into the region.
    fn visit_cone<'e>(
        &self,
        state: &mut EvalState<'e>,
        region: &Region<'_>,
        i: usize,
        pnode: usize,
        need: Need,
        cont: &mut dyn FnMut(&Self, &mut EvalState<'e>) -> bool,
    ) -> bool
    where
        't: 'e,
    {
        let tnode = region.path[i];
        if i + 1 == region.path.len() {
            // The edit node itself is in the region: every placement here
            // reaches it, none avoids it.
            return need == Need::Avoid || self.visit_pattern(state, tnode, pnode, cont);
        }
        let Some(mark) = self.bind(state, tnode, pnode) else {
            return true;
        };
        let alive = self.visit_cone_items(state, region, i, pnode, need, cont);
        state.undo(mark);
        alive
    }

    /// Satisfies the items of pattern node `pnode`, placed at the ancestor
    /// `region.path[i]`, under `need`. `Touch` splits on the first item
    /// that reaches the region and enumerates that item first, so an item
    /// that cannot reach it costs nothing; `Avoid` keeps every item out.
    fn visit_cone_items<'e>(
        &self,
        state: &mut EvalState<'e>,
        region: &Region<'_>,
        i: usize,
        pnode: usize,
        need: Need,
        cont: &mut dyn FnMut(&Self, &mut EvalState<'e>) -> bool,
    ) -> bool
    where
        't: 'e,
    {
        let items = &self.pat.nodes[pnode].items;
        match need {
            Need::Touch => (0..items.len()).all(|first| {
                self.visit_item_cone(
                    state,
                    region,
                    i,
                    &items[first],
                    Need::Touch,
                    &mut |m, st| m.visit_other_items(st, region, i, pnode, first, 0, cont),
                )
            }),
            Need::Avoid => self.visit_other_items(state, region, i, pnode, items.len(), 0, cont),
        }
    }

    /// Satisfies `items[k..]` of pattern node `pnode` at the ancestor
    /// `region.path[i]`, except item `first` (already placed in the
    /// region): items before it avoid the region, items after it are
    /// free.
    #[allow(clippy::too_many_arguments)]
    fn visit_other_items<'e>(
        &self,
        state: &mut EvalState<'e>,
        region: &Region<'_>,
        i: usize,
        pnode: usize,
        first: usize,
        k: usize,
        cont: &mut dyn FnMut(&Self, &mut EvalState<'e>) -> bool,
    ) -> bool
    where
        't: 'e,
    {
        let k = if k == first { k + 1 } else { k };
        let Some(item) = self.pat.nodes[pnode].items.get(k) else {
            return cont(self, state);
        };
        let rest = &mut |m: &Self, st: &mut EvalState<'e>| {
            m.visit_other_items(st, region, i, pnode, first, k + 1, cont)
        };
        if k < first {
            self.visit_item_cone(state, region, i, item, Need::Avoid, rest)
        } else {
            self.visit_item(state, region.path[i], item, rest)
        }
    }

    /// Every way of satisfying one item of a pattern node placed at the
    /// ancestor `region.path[i]` that reaches the region (`Touch`) or stays
    /// out of it (`Avoid`). Only the on-path child `region.path[i + 1]`
    /// leads into the region; every other child is free.
    fn visit_item_cone<'e>(
        &self,
        state: &mut EvalState<'e>,
        region: &Region<'_>,
        i: usize,
        item: &CItem,
        need: Need,
        cont: &mut dyn FnMut(&Self, &mut EvalState<'e>) -> bool,
    ) -> bool
    where
        't: 'e,
    {
        let path = region.path;
        let last = path.len() - 1;
        match (item, need) {
            (CItem::Seq { members, .. }, Need::Touch) => {
                self.visit_cone(state, region, i + 1, members[0], Need::Touch, cont)
            }
            (CItem::Seq { members, .. }, _) => self.tree.children(path[i]).iter().all(|&c| {
                if c == path[i + 1] {
                    self.visit_cone(state, region, i + 1, members[0], Need::Avoid, cont)
                } else {
                    self.visit_pattern(state, c, members[0], cont)
                }
            }),
            (CItem::Descendant(d), Need::Touch) => {
                // The ancestors below `path[i]` must reach the region; the
                // edit node and (for a whole subtree) everything under it
                // are in it.
                (i + 1..=last).all(|j| self.visit_cone(state, region, j, *d, Need::Touch, cont))
                    && (!region.whole || self.visit_descendants(state, path[last], *d, cont))
            }
            (CItem::Descendant(d), _) => {
                // Proper descendants outside the region, each tagged with
                // its index on the path (`OFF` for off-path nodes).
                const OFF: usize = usize::MAX;
                let d = *d;
                let tag = |c: NodeId, j: usize| {
                    if j < last && path[j + 1] == c {
                        j + 1
                    } else {
                        OFF
                    }
                };
                let mut stack: Vec<(NodeId, usize)> = self
                    .tree
                    .children(path[i])
                    .iter()
                    .rev()
                    .map(|&c| (c, tag(c, i)))
                    .collect();
                while let Some((x, j)) = stack.pop() {
                    if !self.sub_bit(x, d) {
                        continue;
                    }
                    let alive = if j == OFF {
                        self.visit_pattern(state, x, d, cont)
                    } else if j < last {
                        self.visit_cone(state, region, j, d, Need::Avoid, cont)
                    } else if region.whole {
                        continue;
                    } else {
                        true
                    };
                    if !alive {
                        return false;
                    }
                    stack.extend(self.tree.children(x).iter().rev().map(|&c| (c, tag(c, j))));
                }
                true
            }
        }
    }
}

/// The region an edit touched, for [`Matcher::for_each_embedding_through`].
struct Region<'a> {
    /// The root, the edit node's ancestors, then the edit node.
    path: &'a [NodeId],
    /// Is the whole subtree under the edit node in the region?
    whole: bool,
}

/// What a cone enumeration requires of the rest of an embedding.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Need {
    /// Some pattern node must land in the region.
    Touch,
    /// No pattern node may land in the region.
    Avoid,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;
    use xmlmap_trees::tree;

    #[test]
    fn interning_is_dense_and_detects_repeats() {
        let p = parse("r[a(x, y), b(x)]").unwrap();
        let c = CompiledPattern::new(&p);
        assert_eq!(c.var_count(), 2);
        assert_eq!(c.var_id(&Var::new("x")), Some(0));
        assert_eq!(c.var_id(&Var::new("y")), Some(1));
        assert_eq!(c.var_id(&Var::new("z")), None);
        assert!(c.has_repeated_variable());

        let q = parse("r[a(u)[b(v)], //c(w)]").unwrap();
        let cq = CompiledPattern::new(&q);
        assert_eq!(cq.var_count(), 3);
        assert!(!cq.has_repeated_variable());
    }

    #[test]
    fn trail_restores_environment_between_branches() {
        // Two a-children: after failing to extend the first binding the
        // trail must fully unwind, or the second binding is rejected.
        let t = tree!("r" [ "a"("v" = "1") [ "c"("w" = "x") ],
                            "a"("v" = "2") [ "c"("w" = "y") ] ]);
        let p = parse("r[a(u)[c(q)]]").unwrap();
        let c = CompiledPattern::new(&p);
        let m = Matcher::new(&t, &c);
        assert_eq!(m.all_matches().len(), 2);
    }

    #[test]
    fn bitset_tables_span_many_words() {
        // > 64 pattern nodes forces multi-word rows.
        let mut p = parse("r").unwrap();
        for i in 0..70 {
            p = p.child(parse(&format!("a(k{i})")).unwrap());
        }
        let c = CompiledPattern::new(&p);
        assert!(c.nodes.len() > 64);
        let mut t = Tree::new("r");
        for _ in 0..70 {
            t.add_child(Tree::ROOT, "a", [("v", Value::str("q"))]);
        }
        let m = Matcher::new(&t, &c);
        assert!(m.feasible());
        assert!(m.matches_with(&Valuation::new()));
        // One child short: structurally infeasible.
        let mut t2 = Tree::new("r");
        for _ in 0..1 {
            t2.add_child(Tree::ROOT, "a", [("v", Value::str("q"))]);
        }
        let c1 = CompiledPattern::new(&parse("r[a(x), a(y)]").unwrap());
        let m2 = Matcher::new(&t2, &c1);
        assert!(m2.feasible()); // both obligations can use the same child
    }

    #[test]
    fn pruning_is_sound_for_repeated_variables() {
        // Structurally feasible but value-inconsistent: bits are set, the
        // valued search must still fail.
        let t = tree!("r" [ "a"("v" = "1"), "b"("w" = "2") ]);
        let p = parse("r[a(x), b(x)]").unwrap();
        let c = CompiledPattern::new(&p);
        let m = Matcher::new(&t, &c);
        assert!(m.feasible());
        assert!(!m.matches_with(&Valuation::new()));
    }

    #[test]
    fn seeded_probe_reuses_tables() {
        let t = tree!("r" [ "a"("v" = "1"), "a"("v" = "2"), "a"("v" = "3") ]);
        let p = parse("r/a(x)").unwrap();
        let c = CompiledPattern::new(&p);
        let m = Matcher::new(&t, &c);
        for (val, expect) in [("1", true), ("2", true), ("9", false)] {
            let seed: Valuation = [(Var::new("x"), Value::str(val))].into_iter().collect();
            assert_eq!(m.matches_with(&seed), expect, "seed x={val}");
        }
        // Seeds outside the pattern's variables pass through untouched.
        let seed: Valuation = [(Var::new("zz"), Value::str("7"))].into_iter().collect();
        let mut seen = Vec::new();
        m.for_each_match(&seed, &mut |v| {
            seen.push(v.clone());
            true
        });
        assert_eq!(seen.len(), 3);
        assert!(seen.iter().all(|v| v[&Var::new("zz")] == Value::str("7")));
    }

    /// A small deterministic tree over labels `r a b c`, every node with
    /// one attribute whose value is drawn from three.
    fn random_tree(seed: &mut u64, size: usize) -> Tree {
        let mut next = || {
            *seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (*seed >> 33) as usize
        };
        let mut t = Tree::with_root_attrs("r", [("v", Value::str("0"))]);
        let mut nodes = vec![Tree::ROOT];
        for _ in 1..size {
            let parent = nodes[next() % nodes.len()];
            let label = ["a", "b", "c"][next() % 3];
            let v = Value::str((next() % 3).to_string());
            nodes.push(t.add_child(parent, label, [("v", v)]));
        }
        t
    }

    /// Every embedding at the root, as sorted dense tuples.
    fn embeddings(m: &Matcher<'_, '_>, vars: usize) -> Vec<Vec<Value>> {
        let mut out = Vec::new();
        m.for_each_match_dense(Tree::ROOT, &vec![None; vars], &mut |env| {
            out.push(env.iter().map(|v| v.unwrap().clone()).collect());
            true
        });
        out.sort();
        out
    }

    fn through(m: &Matcher<'_, '_>, path: &[NodeId], whole: bool) -> Vec<Vec<Value>> {
        let mut out = Vec::new();
        m.for_each_embedding_through(path, whole, &mut |env| {
            out.push(env.iter().map(|v| v.unwrap().clone()).collect());
        });
        out.sort();
        out
    }

    fn path_to(t: &Tree, mut n: NodeId) -> Vec<NodeId> {
        let mut path = vec![n];
        while let Some(p) = t.parent(n) {
            path.push(p);
            n = p;
        }
        path.reverse();
        path
    }

    /// Multiset difference of sorted vectors (`b` must be contained in `a`).
    fn minus(a: &[Vec<Value>], b: &[Vec<Value>]) -> Vec<Vec<Value>> {
        let mut out = a.to_vec();
        for x in b {
            let at = out.iter().position(|y| y == x).expect("sub-multiset");
            out.remove(at);
        }
        out
    }

    const DOWNWARD: &[&str] = &[
        "r/a(x)",
        "r[a(x)/b(y), c(z)]",
        "r//b(x)",
        "r[_(x)//c(y), a(x)]",
        "r[a(x)[b(x)], //c(y)]",
        "r[a(x), a(y)]",
        "r//_(x)//_(y)",
        "r(w)[//a(x), b(w)]",
    ];

    /// The restricted enumeration reports exactly the embeddings that
    /// reach the region: for a whole subtree, every embedding of the tree
    /// minus those of the tree without it; for one node, every embedding
    /// minus those that survive a rewrite of its value.
    #[test]
    fn embeddings_through_a_region_are_exactly_the_ones_it_removes() {
        let mut seed = 7u64;
        let mut reported = 0usize;
        for case in 0..60 {
            let t = random_tree(&mut seed, 4 + case % 14);
            for text in DOWNWARD {
                let c = CompiledPattern::new(&parse(text).unwrap());
                let m = Matcher::new(&t, &c);
                let all = embeddings(&m, c.var_count());
                for s in t.nodes() {
                    let path = path_to(&t, s);
                    let hit = through(&m, &path, false);
                    reported += hit.len();
                    let mut edited = t.clone();
                    edited.set_attr(s, "v", Value::str("9"));
                    let m2 = Matcher::new(&edited, &c);
                    assert_eq!(
                        minus(&all, &hit),
                        minus(&embeddings(&m2, c.var_count()), &through(&m2, &path, false)),
                        "{text} at node {s:?}"
                    );
                    if s == Tree::ROOT {
                        continue;
                    }
                    let mut cut = t.clone();
                    cut.detach(s);
                    let kept = embeddings(&Matcher::new(&cut, &c), c.var_count());
                    assert_eq!(
                        minus(&all, &through(&m, &path, true)),
                        kept,
                        "{text} under {s:?}"
                    );
                }
            }
        }
        assert!(
            reported > 1000,
            "the sweep reached real embeddings: {reported}"
        );
    }

    /// Live rows repaired through grafts and detaches equal a fresh build
    /// on every reachable node, for downward and horizontal patterns; for
    /// repeat-free patterns, the root bit also equals the reference
    /// evaluator's verdict at every node.
    #[test]
    fn live_rows_track_a_fresh_build() {
        const HORIZONTAL: &[&str] = &[
            "r[a(x) -> b(y)]",
            "r[c(x) ->* a(y)]",
            "r[a(x) -> _(y) ->* c(z)]",
            "r/a(x)[b(y) ->* c(z) -> _]",
            "r//_[a(x) ->* a(y)]",
            "r[b(x) -> b(y), //c(z)]",
        ];
        let mut seed = 11u64;
        for text in DOWNWARD.iter().chain(HORIZONTAL) {
            let pattern = parse(text).unwrap();
            let c = CompiledPattern::new(&pattern);
            let mut t = random_tree(&mut seed, 12);
            let mut live = LiveRows::new(&t, &c);
            for step in 0..40 {
                let reachable: Vec<NodeId> = t.nodes().collect();
                let n = reachable[(step * 7 + 3) % reachable.len()];
                if step % 2 == 0 && n != Tree::ROOT {
                    let parent = t.parent(n).unwrap();
                    t.detach(n);
                    live.detached(&t, &c, parent, n);
                } else {
                    let sub = random_tree(&mut seed, 1 + step % 4);
                    let pos = step % (t.children(n).len() + 1);
                    let root = t.graft_at(n, pos, &sub);
                    live.grafted(&t, &c, root);
                }
                let fresh = Matcher::new(&t, &c);
                let kept = live.matcher(&t, &c);
                for x in t.nodes() {
                    for p in 0..c.nodes.len() {
                        assert_eq!(
                            kept.ok_bit(x, p),
                            fresh.ok_bit(x, p),
                            "{text}: ok {x:?} {p}"
                        );
                        assert_eq!(
                            kept.sub_bit(x, p),
                            fresh.sub_bit(x, p),
                            "{text}: sub {x:?} {p}"
                        );
                    }
                    if !c.has_repeated_variable() {
                        assert_eq!(
                            kept.feasible_at(x),
                            crate::reference::matches_at(&t, x, &pattern, &Valuation::new()),
                            "{text}: verdict at {x:?}"
                        );
                    }
                }
            }
        }
    }
}
