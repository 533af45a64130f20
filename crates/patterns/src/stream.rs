//! Streaming pattern membership for the downward fragment (DESIGN.md §8.7).
//!
//! [`StreamPattern`] compiles a pattern into a *streaming plan* and
//! [`StreamMatcher`] evaluates it over the open/close events of a SAX pass
//! in O(depth · |π|) memory: each open element carries three per-depth
//! *obligation bitsets* over the pattern's flattened nodes (the same
//! post-order array and interned-variable tuples as the arena kernel in
//! [`crate::compiled`]) —
//!
//! * `local_ok` — the node's label test, arity, and within-tuple repeated
//!   variables hold here (computed at the open tag);
//! * `child_ok` — some already-closed child witnessed this pattern node;
//! * `sub_any` — … somewhere in a closed child's subtree.
//!
//! At a close tag, `matched = local_ok ∧ (child obligations ⊆ child_ok) ∧
//! (descendant obligations ⊆ sub_any)` is one bitwise sweep, then folds into
//! the parent's `child_ok`/`sub_any`. The verdict is the root pattern bit
//! when the document root closes — identical to [`crate::eval::matches`].
//!
//! **Fragment boundary.** This bottom-up evaluation is *exact* (not an
//! approximation) precisely when subtree obligations are independent:
//!
//! * the sibling-order operators `→`/`→*` are out — placing a sequence
//!   needs the arena's left-to-right backtracking ([`UnstreamablePattern::SiblingOrder`]);
//! * a variable shared across *distinct* pattern nodes is out — a
//!   cross-node value join can relate arbitrarily distant subtrees, which
//!   O(depth) state cannot carry ([`UnstreamablePattern::SharedVariable`]).
//!
//! Wildcard, child (`/`), descendant (`//`), and variables repeated
//! *within* one tuple (a local equality test) all stream. Everything else
//! falls back to the arena engines with a clear diagnostic.
//!
//! **Inert elements.** Per label of a DTD's alphabet, the plan gives the
//! bitmask of nodes whose label test accepts it
//! ([`StreamPattern::label_masks`]); a cursor fed that mask tests only
//! those nodes at an open tag and walks only set bits at the close. It
//! reads a start tag borrowed from the [`SaxReader`](xmlmap_trees::SaxReader)
//! through [`CanonicalAttrs`], so a value is built only where a node that
//! passed its local test binds it.
//!
//! [`StreamEnumerator`] extends the boolean acceptor to a *valuation
//! enumerator* (DESIGN.md §8.8): alongside the bitsets, each open element
//! carries the complete match tuples rooted in its already-closed
//! children, so every subtree's matches are emitted exactly when it
//! closes and state stays O(depth + live matches). The streamable
//! fragment makes this exact: variables partition across pattern nodes,
//! so a subtree match is a tuple over the subtree's own variables and
//! matches of independent obligations compose by Cartesian join.

use crate::ast::{LabelTest, ListItem, Pattern, Var};
use crate::compiled::{CItem, CompiledPattern};
use std::cmp::Ordering;
use std::fmt;
use xmlmap_dtd::content::{get_bit, set_bit};
use xmlmap_trees::{Name, StartTag, Value};

/// Why a pattern cannot be evaluated in the streaming fragment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnstreamablePattern {
    /// The pattern uses `→` or `→*` (sibling order).
    SiblingOrder,
    /// The named variable occurs in two distinct pattern nodes.
    SharedVariable(Var),
}

impl fmt::Display for UnstreamablePattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnstreamablePattern::SiblingOrder => write!(
                f,
                "pattern uses the sibling-order operators (-> / ->*); streaming \
                 evaluation covers only the downward fragment (/ and //) — \
                 use the arena evaluator"
            ),
            UnstreamablePattern::SharedVariable(v) => write!(
                f,
                "variable {v} is shared across pattern nodes; a cross-node \
                 value join cannot run in O(depth) memory — use the arena \
                 evaluator"
            ),
        }
    }
}

impl std::error::Error for UnstreamablePattern {}

/// One pattern node's streaming obligations, parallel to the compiled
/// kernel's post-order node array.
struct PlanNode {
    label: LabelTest,
    /// Required attribute count, or `None` when the tuple is empty (any
    /// arity matches — same rule as the arena kernel).
    arity: Option<usize>,
    /// Tuple positions that must carry equal values (within-node repeats).
    eq_pairs: Vec<(u32, u32)>,
    /// Pattern nodes that must match at some child.
    child_members: Vec<u32>,
    /// Pattern nodes that must match at some proper descendant.
    desc_members: Vec<u32>,
}

/// A pattern compiled for streaming evaluation: the arena kernel's
/// flattened nodes and interned variables, re-expressed as per-node
/// obligation lists. Compile once, run over any number of documents.
pub struct StreamPattern {
    pat: CompiledPattern,
    nodes: Vec<PlanNode>,
    /// Words per obligation bitset.
    words: usize,
    /// Per pattern node: the interned variable ids bound anywhere in its
    /// subtree (sorted, deduplicated). In the streamable fragment these
    /// sets partition the variables across sibling obligations, which is
    /// what lets [`StreamEnumerator`] compose subtree matches by copying
    /// exactly these tuple positions.
    sub_vars: Vec<Vec<u32>>,
}

impl StreamPattern {
    /// Decides whether `pattern` lies in the streaming fragment, with the
    /// same diagnostic [`StreamPattern::compile`] would give, without
    /// compiling it. A variable is reported at its first occurrence in a
    /// second node, nodes taken in post-order (children first, in list
    /// order), variables in tuple order.
    pub fn check(pattern: &Pattern) -> Result<(), UnstreamablePattern> {
        let f = pattern.features();
        if f.next_sibling || f.following_sibling {
            return Err(UnstreamablePattern::SiblingOrder);
        }
        // A repeated variable is fine within one tuple, fatal across nodes.
        fn walk<'p>(
            p: &'p Pattern,
            owner: &mut Vec<(&'p Var, usize)>,
            next: &mut usize,
        ) -> Result<(), UnstreamablePattern> {
            for item in &p.list {
                match item {
                    ListItem::Seq { members, .. } => {
                        for m in members {
                            walk(m, owner, next)?;
                        }
                    }
                    ListItem::Descendant(d) => walk(d, owner, next)?,
                }
            }
            let me = *next;
            *next += 1;
            for v in &p.vars {
                match owner.iter().find(|(w, _)| *w == v) {
                    None => owner.push((v, me)),
                    Some(&(_, node)) if node == me => {}
                    Some(_) => return Err(UnstreamablePattern::SharedVariable(v.clone())),
                }
            }
            Ok(())
        }
        walk(pattern, &mut Vec::new(), &mut 0)
    }

    /// Compiles `pattern`, rejecting anything outside the streaming
    /// fragment with a diagnostic naming the offending feature.
    pub fn compile(pattern: &Pattern) -> Result<StreamPattern, UnstreamablePattern> {
        Self::check(pattern)?;
        let pat = CompiledPattern::new(pattern);
        let nodes = pat
            .nodes
            .iter()
            .map(|node| {
                let mut eq_pairs = Vec::new();
                for i in 0..node.vars.len() {
                    for j in i + 1..node.vars.len() {
                        if node.vars[i] == node.vars[j] {
                            eq_pairs.push((i as u32, j as u32));
                        }
                    }
                }
                let mut child_members = Vec::new();
                let mut desc_members = Vec::new();
                for item in &node.items {
                    match item {
                        CItem::Seq { members, .. } => {
                            // With sibling ops rejected, every sequence is a
                            // single child obligation.
                            debug_assert_eq!(members.len(), 1);
                            child_members.push(members[0] as u32);
                        }
                        CItem::Descendant(d) => desc_members.push(*d as u32),
                    }
                }
                PlanNode {
                    label: node.label.clone(),
                    arity: (!node.vars.is_empty()).then_some(node.vars.len()),
                    eq_pairs,
                    child_members,
                    desc_members,
                }
            })
            .collect::<Vec<_>>();
        let words = nodes.len().div_ceil(64).max(1);
        // Subtree variable sets, bottom-up over the post-order node array
        // (children precede parents, so member sets are already final).
        let mut sub_vars: Vec<Vec<u32>> = Vec::with_capacity(pat.nodes.len());
        for node in &pat.nodes {
            let mut vs = node.vars.clone();
            for item in &node.items {
                match item {
                    CItem::Seq { members, .. } => vs.extend_from_slice(&sub_vars[members[0]]),
                    CItem::Descendant(d) => vs.extend_from_slice(&sub_vars[*d]),
                }
            }
            vs.sort_unstable();
            vs.dedup();
            sub_vars.push(vs);
        }
        Ok(StreamPattern {
            pat,
            nodes,
            words,
            sub_vars,
        })
    }

    /// The underlying compiled kernel (interned variables etc.).
    pub fn compiled(&self) -> &CompiledPattern {
        &self.pat
    }

    /// Per label of `labels` (a DTD's interned alphabet): the plan nodes
    /// whose label test accepts it, wildcards included. An element whose
    /// mask is empty is inert for this plan.
    pub fn label_masks(&self, labels: &[Name]) -> LabelMasks {
        let mut bits = vec![0; labels.len() * self.words];
        for (mask, label) in bits.chunks_mut(self.words).zip(labels) {
            for (pi, p) in self.nodes.iter().enumerate() {
                if p.label.accepts(label) {
                    set_bit(mask, pi);
                }
            }
        }
        LabelMasks {
            words: self.words,
            bits: bits.into(),
        }
    }

    /// Approximate heap footprint in bytes (for cache accounting).
    pub fn approx_bytes(&self) -> u64 {
        self.pat.approx_bytes()
            + self
                .nodes
                .iter()
                .map(|n| {
                    64 + n.eq_pairs.capacity() as u64 * 8
                        + n.child_members.capacity() as u64 * 4
                        + n.desc_members.capacity() as u64 * 4
                })
                .sum::<u64>()
            + self
                .sub_vars
                .iter()
                .map(|vs| 24 + vs.capacity() as u64 * 4)
                .sum::<u64>()
    }
}

/// Per label id of one alphabet, the bitset of plan nodes whose label
/// test accepts that label ([`StreamPattern::label_masks`]).
pub struct LabelMasks {
    words: usize,
    bits: Box<[u64]>,
}

impl LabelMasks {
    /// The mask of the label with id `lid`.
    #[inline]
    pub fn get(&self, lid: u32) -> &[u64] {
        &self.bits[lid as usize * self.words..][..self.words]
    }
}

/// A start tag's attributes in the order a plan pairs them with tuple
/// positions: position `k` is attribute `order[k]` of the tag. The
/// schema-aware drivers in `xmlmap-core` pass the validator's canonical
/// order, so the pairing is the arena evaluator's over a normalised tree.
/// Values stay bytes in the reader's window: a cursor compares them in
/// place and builds a [`Value`] only for a position that a node passing
/// its local test binds.
pub struct CanonicalAttrs<'a, 'r> {
    tag: &'a StartTag<'r>,
    order: &'a [u32],
}

impl<'a, 'r> CanonicalAttrs<'a, 'r> {
    /// The attributes of `tag` taken in `order` (indices into the tag's
    /// document order).
    pub fn new(tag: &'a StartTag<'r>, order: &'a [u32]) -> CanonicalAttrs<'a, 'r> {
        CanonicalAttrs { tag, order }
    }

    fn arity(&self) -> usize {
        self.order.len()
    }

    fn same_value(&self, i: usize, j: usize) -> bool {
        let value = |k: usize| self.tag.value_bytes(self.order[k] as usize);
        value(i) == value(j)
    }

    fn value(&self, i: usize) -> Value {
        self.tag.value(self.order[i] as usize)
    }
}

/// The set bits of a bitset, ascending.
fn bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                w * 64 + bit
            })
        })
    })
}

impl PlanNode {
    /// The node's local test past its label: arity and within-tuple
    /// equalities.
    fn holds_at(&self, attrs: &CanonicalAttrs<'_, '_>) -> bool {
        self.arity.map_or(true, |arity| attrs.arity() == arity)
            && self
                .eq_pairs
                .iter()
                .all(|&(i, j)| attrs.same_value(i as usize, j as usize))
    }

    /// Are the node's child and descendant obligations met?
    fn obligations_met(&self, child_ok: &[u64], sub_any: &[u64]) -> bool {
        self.child_members
            .iter()
            .all(|&m| get_bit(child_ok, m as usize))
            && self
                .desc_members
                .iter()
                .all(|&d| get_bit(sub_any, d as usize))
    }
}

/// Per-depth obligation bitsets for one open element.
struct MFrame {
    local_ok: Vec<u64>,
    child_ok: Vec<u64>,
    sub_any: Vec<u64>,
}

/// A push-based streaming membership cursor over one document.
///
/// Feed [`open`](StreamMatcher::open)/[`close`](StreamMatcher::close) in
/// document order, then read the verdict from
/// [`finish`](StreamMatcher::finish). Attribute values are paired with the
/// pattern tuple positionally, exactly like the arena evaluator, in the
/// order [`CanonicalAttrs`] gives.
pub struct StreamMatcher<'p> {
    plan: &'p StreamPattern,
    /// Frame storage; `stack[..depth]` live, the rest pooled.
    stack: Vec<MFrame>,
    depth: usize,
    scratch: Vec<u64>,
    verdict: bool,
    peak_depth: usize,
}

impl<'p> StreamMatcher<'p> {
    /// A fresh cursor over `plan`.
    pub fn new(plan: &'p StreamPattern) -> StreamMatcher<'p> {
        StreamMatcher {
            plan,
            stack: Vec::new(),
            depth: 0,
            scratch: vec![0; plan.words],
            verdict: false,
            peak_depth: 0,
        }
    }

    /// Deepest nesting seen so far.
    pub fn peak_depth(&self) -> usize {
        self.peak_depth
    }

    /// High-water mark of live matcher state in bytes (three obligation
    /// bitsets per open element).
    pub fn peak_state_bytes(&self) -> u64 {
        (self.peak_depth as u64 * 3 + 1) * self.plan.words as u64 * 8
    }

    /// Processes a start tag given its label mask (see
    /// [`StreamPattern::label_masks`]): evaluates the local test (arity,
    /// within-tuple equalities) of every masked pattern node against this
    /// element.
    pub fn open(&mut self, mask: &[u64], attrs: &CanonicalAttrs<'_, '_>) {
        let words = self.plan.words;
        if self.depth == self.stack.len() {
            self.stack.push(MFrame {
                local_ok: vec![0; words],
                child_ok: vec![0; words],
                sub_any: vec![0; words],
            });
        }
        let frame = &mut self.stack[self.depth];
        frame.local_ok.fill(0);
        frame.child_ok.fill(0);
        frame.sub_any.fill(0);
        for pi in bits(mask) {
            if self.plan.nodes[pi].holds_at(attrs) {
                set_bit(&mut frame.local_ok, pi);
            }
        }
        self.depth += 1;
        self.peak_depth = self.peak_depth.max(self.depth);
    }

    /// Processes an end tag: resolves this element's obligations and folds
    /// the result into its parent (or the verdict, at the document root).
    pub fn close(&mut self) {
        assert!(self.depth > 0, "close without matching open");
        let words = self.plan.words;
        // matched = local_ok ∧ child obligations ∧ descendant obligations.
        let frame = &self.stack[self.depth - 1];
        self.scratch.fill(0);
        for pi in bits(&frame.local_ok) {
            if self.plan.nodes[pi].obligations_met(&frame.child_ok, &frame.sub_any) {
                set_bit(&mut self.scratch, pi);
            }
        }
        self.depth -= 1;
        if self.depth == 0 {
            self.verdict = get_bit(&self.scratch, self.plan.pat.root());
            return;
        }
        let (parents, closed) = self.stack.split_at_mut(self.depth);
        let parent = &mut parents[self.depth - 1];
        let frame = &closed[0];
        for w in 0..words {
            parent.child_ok[w] |= self.scratch[w];
            parent.sub_any[w] |= self.scratch[w] | frame.sub_any[w];
        }
    }

    /// The membership verdict; valid once the document root has closed.
    pub fn finish(&self) -> bool {
        assert_eq!(self.depth, 0, "finish with unclosed elements");
        self.verdict
    }
}

/// Placeholder for tuple positions a subtree does not bind. Never visible
/// in a complete match: the pattern root's subtree covers every variable,
/// so every position of an emitted root tuple has been overwritten.
const FILLER: Value = Value::Null(u64::MAX);

/// Per-depth enumerator state for one open element: the boolean
/// obligation bitsets (exactly [`StreamMatcher`]'s) plus the match
/// tuples witnessed in the element's already-closed children.
struct EFrame {
    local_ok: Vec<u64>,
    child_ok: Vec<u64>,
    sub_any: Vec<u64>,
    /// Per pattern node: this element's local binding (tuple position
    /// `vars[k]` ← attribute `k`), when the local test passed and the
    /// node binds variables.
    local: Vec<Option<Box<[Value]>>>,
    /// Per pattern node `p`: complete matches of `p`'s subtree rooted at
    /// an already-closed child of this element.
    child: Vec<Vec<Box<[Value]>>>,
    /// … rooted strictly below a child.
    deeper: Vec<Vec<Box<[Value]>>>,
    /// Does any `child`/`deeper` set hold a tuple?
    holds: bool,
}

/// Complete matches of pattern node `pi`'s subtree rooted at the closing
/// element: the Cartesian join of the element's local binding with one
/// witness per variable-binding child/descendant obligation
/// (variable-free obligations are certified by the boolean gate, so they
/// contribute no factor — and no spurious multiplicity). Deduplicated,
/// because distinct children can witness identical valuations.
fn rooted_tuples(plan: &StreamPattern, frame: &EFrame, pi: usize) -> Vec<Box<[Value]>> {
    let width = plan.pat.var_count();
    let p = &plan.nodes[pi];
    let mut acc: Vec<Box<[Value]>> = vec![match &frame.local[pi] {
        Some(t) => t.clone(),
        None => vec![FILLER; width].into_boxed_slice(),
    }];
    let factors = p
        .child_members
        .iter()
        .map(|&m| (m as usize, false))
        .chain(p.desc_members.iter().map(|&d| (d as usize, true)));
    for (m, with_deeper) in factors {
        if plan.sub_vars[m].is_empty() {
            continue; // certified by the boolean gate
        }
        // A proper descendant is a child or strictly below one.
        let deeper: &[Box<[Value]>] = if with_deeper { &frame.deeper[m] } else { &[] };
        let mut out = Vec::with_capacity(acc.len() * (frame.child[m].len() + deeper.len()));
        for t in &acc {
            for u in frame.child[m].iter().chain(deeper) {
                let mut merged = t.clone();
                for &k in &plan.sub_vars[m] {
                    merged[k as usize] = u[k as usize].clone();
                }
                out.push(merged);
            }
        }
        acc = out;
    }
    acc.sort_unstable();
    acc.dedup();
    acc
}

/// A push-based streaming *valuation* enumerator over one document: like
/// [`StreamMatcher`], but each close emits the complete match tuples
/// rooted in the closing subtree instead of a bit.
///
/// Feed [`open`](StreamEnumerator::open)/[`close`](StreamEnumerator::close)
/// in document order, then collect the root matches from
/// [`finish`](StreamEnumerator::finish). Tuples are indexed by interned
/// variable id ([`CompiledPattern::var_id`]) and come out sorted in
/// alphabetical variable order and deduplicated — exactly the rows of
/// [`crate::Matcher::all_match_tuples`] on the same (normalised)
/// document. Attribute values pair with pattern tuples positionally, in
/// the order [`CanonicalAttrs`] gives (the schema-aware driver in
/// `xmlmap-core` passes the canonical one).
pub struct StreamEnumerator<'p> {
    plan: &'p StreamPattern,
    /// Frame storage; `stack[..depth]` live, the rest pooled.
    stack: Vec<EFrame>,
    depth: usize,
    scratch: Vec<u64>,
    /// Root matches, harvested when the document root closes.
    matches: Vec<Box<[Value]>>,
    done: bool,
    peak_depth: usize,
    /// Currently-live match tuples (local bindings + witnessed subtree
    /// matches), and its high-water mark.
    live: u64,
    peak_live: u64,
}

impl<'p> StreamEnumerator<'p> {
    /// A fresh enumerator over `plan`.
    pub fn new(plan: &'p StreamPattern) -> StreamEnumerator<'p> {
        StreamEnumerator {
            plan,
            stack: Vec::new(),
            depth: 0,
            scratch: vec![0; plan.words],
            matches: Vec::new(),
            done: false,
            peak_depth: 0,
            live: 0,
            peak_live: 0,
        }
    }

    /// Deepest nesting seen so far.
    pub fn peak_depth(&self) -> usize {
        self.peak_depth
    }

    /// High-water mark of live valuations (local bindings plus witnessed
    /// subtree matches held for open ancestors).
    pub fn peak_live_valuations(&self) -> u64 {
        self.peak_live
    }

    /// High-water mark of live enumerator state in bytes: the per-depth
    /// obligation bitsets plus the live valuation tuples.
    pub fn peak_state_bytes(&self) -> u64 {
        let tuple = 16 + self.plan.pat.var_count() as u64 * std::mem::size_of::<Value>() as u64;
        (self.peak_depth as u64 * 3 + 1) * self.plan.words as u64 * 8 + self.peak_live * tuple
    }

    /// Processes a start tag given its label mask (see
    /// [`StreamPattern::label_masks`]): evaluates the local test of every
    /// masked pattern node and records the local variable binding where
    /// it passes, building a value only for a tuple position such a node
    /// binds.
    pub fn open(&mut self, mask: &[u64], attrs: &CanonicalAttrs<'_, '_>) {
        let plan = self.plan;
        let words = plan.words;
        let n = plan.nodes.len();
        if self.depth == self.stack.len() {
            self.stack.push(EFrame {
                local_ok: vec![0; words],
                child_ok: vec![0; words],
                sub_any: vec![0; words],
                local: vec![None; n],
                child: vec![Vec::new(); n],
                deeper: vec![Vec::new(); n],
                holds: false,
            });
        }
        let width = plan.pat.var_count();
        let frame = &mut self.stack[self.depth];
        frame.local_ok.fill(0);
        frame.child_ok.fill(0);
        frame.sub_any.fill(0);
        // Pooled frames come back empty: `close` drains every tuple set.
        debug_assert!(frame.local.iter().all(Option::is_none));
        debug_assert!(frame.child.iter().chain(&frame.deeper).all(Vec::is_empty));
        debug_assert!(!frame.holds);
        for pi in bits(mask) {
            if !plan.nodes[pi].holds_at(attrs) {
                continue;
            }
            set_bit(&mut frame.local_ok, pi);
            let vars = &plan.pat.nodes[pi].vars;
            if !vars.is_empty() {
                let mut t = vec![FILLER; width].into_boxed_slice();
                for (k, &id) in vars.iter().enumerate() {
                    t[id as usize] = attrs.value(k);
                }
                frame.local[pi] = Some(t);
                self.live += 1;
            }
        }
        self.depth += 1;
        self.peak_depth = self.peak_depth.max(self.depth);
        self.peak_live = self.peak_live.max(self.live);
    }

    /// Processes an end tag: resolves the boolean gate exactly as
    /// [`StreamMatcher::close`], emits the rooted match tuples for every
    /// gated pattern node, and folds both into the parent frame. An
    /// element that passed no local test and holds no tuples folds only
    /// its descendant bits.
    pub fn close(&mut self) {
        assert!(self.depth > 0, "close without matching open");
        let plan = self.plan;
        let n = plan.nodes.len();
        let words = plan.words;
        {
            let frame = &self.stack[self.depth - 1];
            self.scratch.fill(0);
            for pi in bits(&frame.local_ok) {
                if plan.nodes[pi].obligations_met(&frame.child_ok, &frame.sub_any) {
                    set_bit(&mut self.scratch, pi);
                }
            }
        }
        self.depth -= 1;
        if self.depth == 0 {
            // The document root: only matches rooted *here* are pattern
            // matches (the arena kernel anchors at the tree root too).
            let matched = get_bit(&self.scratch, plan.pat.root());
            let frame = &mut self.stack[0];
            let rooted = if matched {
                rooted_tuples(plan, frame, plan.pat.root())
            } else {
                Vec::new()
            };
            self.live += rooted.len() as u64;
            self.peak_live = self.peak_live.max(self.live);
            for pi in 0..n {
                if frame.local[pi].take().is_some() {
                    self.live -= 1;
                }
                self.live -= (frame.child[pi].len() + frame.deeper[pi].len()) as u64;
                frame.child[pi].clear();
                frame.deeper[pi].clear();
            }
            frame.holds = false;
            self.matches = rooted;
            self.done = true;
            return;
        }
        let (parents, closed) = self.stack.split_at_mut(self.depth);
        let parent = &mut parents[self.depth - 1];
        let frame = &mut closed[0];
        // Emit every gated node's rooted tuples before draining anything:
        // a node's witnesses live in the sets of its members, which have
        // smaller post-order indices.
        for pi in bits(&self.scratch) {
            let rooted = rooted_tuples(plan, frame, pi);
            self.live += rooted.len() as u64;
            parent.holds |= !rooted.is_empty();
            parent.child[pi].extend(rooted);
        }
        // Local bindings die with the element.
        for pi in bits(&frame.local_ok) {
            if frame.local[pi].take().is_some() {
                self.live -= 1;
            }
        }
        if frame.holds {
            // Witnessed subtree matches move up: children of this element
            // are strictly below a child of the parent.
            for pi in 0..n {
                parent.deeper[pi].append(&mut frame.child[pi]);
                parent.deeper[pi].append(&mut frame.deeper[pi]);
            }
            frame.holds = false;
            parent.holds = true;
        }
        for w in 0..words {
            parent.child_ok[w] |= self.scratch[w];
            parent.sub_any[w] |= self.scratch[w] | frame.sub_any[w];
        }
        self.peak_live = self.peak_live.max(self.live);
    }

    /// The complete root matches; valid once the document root has
    /// closed. Non-empty iff the document matches — a variable-free
    /// pattern that matches yields exactly one empty tuple, like
    /// [`crate::Matcher::all_match_tuples`].
    pub fn finish(mut self) -> Vec<Box<[Value]>> {
        assert!(self.done, "finish before the document root closed");
        // Canonical row order: value order in alphabetical variable
        // order, replayed from the arena kernel so the two enumerations
        // are comparable (and consumable) verbatim.
        let vars = self.plan.pat.vars();
        let mut perm: Vec<usize> = (0..vars.len()).collect();
        perm.sort_by(|&a, &b| vars[a].cmp(&vars[b]));
        self.matches.sort_unstable_by(|a, b| {
            perm.iter()
                .map(|&i| a[i].cmp(&b[i]))
                .find(|c| *c != Ordering::Equal)
                .unwrap_or(Ordering::Equal)
        });
        self.matches.dedup();
        self.matches
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::matches;
    use crate::parse::parse;
    use xmlmap_trees::{BorrowedEvent, SaxReader};

    /// The two cursors, as [`stream`] feeds them.
    trait Cursor {
        fn open(&mut self, mask: &[u64], attrs: &CanonicalAttrs<'_, '_>);
        fn close(&mut self);
    }

    impl Cursor for StreamMatcher<'_> {
        fn open(&mut self, mask: &[u64], attrs: &CanonicalAttrs<'_, '_>) {
            StreamMatcher::open(self, mask, attrs)
        }
        fn close(&mut self) {
            StreamMatcher::close(self)
        }
    }

    impl Cursor for StreamEnumerator<'_> {
        fn open(&mut self, mask: &[u64], attrs: &CanonicalAttrs<'_, '_>) {
            StreamEnumerator::open(self, mask, attrs)
        }
        fn close(&mut self) {
            StreamEnumerator::close(self)
        }
    }

    /// Reads `doc` into `cursor`, pairing attributes in document order
    /// (no schema here to give a canonical one).
    fn stream(plan: &StreamPattern, doc: &str, cursor: &mut impl Cursor) {
        let mut reader = SaxReader::new(doc.as_bytes());
        while let Some(event) = reader.next_event().unwrap() {
            match event {
                BorrowedEvent::Open(tag) => {
                    let masks = plan.label_masks(std::slice::from_ref(tag.label().name()));
                    let order: Vec<u32> = (0..tag.len() as u32).collect();
                    cursor.open(masks.get(0), &CanonicalAttrs::new(&tag, &order));
                }
                BorrowedEvent::Close(_) => cursor.close(),
            }
        }
    }

    fn check_both(doc: &str, pattern: &str) -> bool {
        let p = parse(pattern).unwrap();
        let plan = StreamPattern::compile(&p).unwrap();
        let mut m = StreamMatcher::new(&plan);
        stream(&plan, doc, &mut m);
        let streamed = m.finish();
        let tree = xmlmap_trees::xml::parse(doc).unwrap();
        let arena = matches(&tree, &p);
        assert_eq!(streamed, arena, "verdicts diverge: {pattern} over {doc}");
        streamed
    }

    const DOC: &str = r#"<r>
      <prof name="Ada">
        <teach><year y="2008"><course cno="cs1"/><course cno="cs2"/></year></teach>
        <supervise><student sid="Sue"/></supervise>
      </prof>
    </r>"#;

    #[test]
    fn downward_patterns_agree_with_the_arena() {
        assert!(check_both(DOC, "r/prof(x)"));
        assert!(check_both(DOC, "r//course(c)"));
        assert!(check_both(
            DOC,
            "r[prof(x)[teach//course(c), supervise/student(s)]]"
        ));
        assert!(check_both(DOC, "r/_//_(y)"));
        assert!(!check_both(DOC, "r/student(s)"));
        assert!(!check_both(DOC, "r//prof(x)[supervise/course(c)]"));
        // Arity mismatches: prof has one attribute, pattern wants two.
        assert!(!check_both(DOC, "r/prof(x, y)"));
        // Empty tuple matches any arity.
        assert!(check_both(DOC, "r/prof"));
    }

    #[test]
    fn within_node_repeats_are_local_equalities() {
        let doc = r#"<r><a x="1" y="1"/><a x="2" y="3"/></r>"#;
        assert!(check_both(doc, "r/a(v, v)"));
        let doc2 = r#"<r><a x="2" y="3"/></r>"#;
        assert!(!check_both(doc2, "r/a(v, v)"));
    }

    #[test]
    fn fragment_boundary_is_diagnosed() {
        let sib = parse("r[a(x) -> b(y)]").unwrap();
        let sib_err = StreamPattern::compile(&sib).err().unwrap();
        assert_eq!(sib_err, UnstreamablePattern::SiblingOrder);
        let join = parse("r[a(x), b(x)]").unwrap();
        let join_err = StreamPattern::compile(&join).err().unwrap();
        assert_eq!(join_err, UnstreamablePattern::SharedVariable(Var::new("x")));
        // The diagnostics name the feature.
        assert!(sib_err.to_string().contains("sibling-order"));
        assert!(join_err.to_string().contains("shared across pattern nodes"));
    }

    fn both_tuple_sets(doc: &str, pattern: &str) -> (Vec<Vec<Value>>, Vec<Vec<Value>>) {
        let p = parse(pattern).unwrap();
        let plan = StreamPattern::compile(&p).unwrap();
        let mut en = StreamEnumerator::new(&plan);
        stream(&plan, doc, &mut en);
        let streamed: Vec<Vec<Value>> = en.finish().into_iter().map(|t| t.into_vec()).collect();
        let tree = xmlmap_trees::xml::parse(doc).unwrap();
        let arena: Vec<Vec<Value>> = crate::compiled::Matcher::new(&tree, plan.compiled())
            .all_match_tuples()
            .into_iter()
            .map(|t| t.into_iter().cloned().collect())
            .collect();
        (streamed, arena)
    }

    #[test]
    fn enumerated_valuations_equal_the_arena_kernel() {
        for pattern in [
            "r/prof(x)",
            "r//course(c)",
            "r[prof(x)[teach//course(c), supervise/student(s)]]",
            "r/_//_(y)",
            "r//prof(x)[supervise/course(c)]",
            "r/prof(x, y)",
            "r/prof",
            "r//year(y)[course(c1), course(c2)]",
            "r//_",
        ] {
            let (streamed, arena) = both_tuple_sets(DOC, pattern);
            assert_eq!(streamed, arena, "tuple sets diverge for {pattern}");
        }
    }

    #[test]
    fn enumeration_handles_repeats_and_multiplicity() {
        // Two identical witnesses must collapse to one row; a variable-free
        // matching pattern yields exactly one empty tuple.
        let doc = r#"<r><a x="1" y="1"/><a x="1" y="1"/><a x="2" y="3"/></r>"#;
        let (streamed, arena) = both_tuple_sets(doc, "r/a(v, v)");
        assert_eq!(streamed, arena);
        assert_eq!(streamed, vec![vec![Value::str("1")]]);
        let (streamed, arena) = both_tuple_sets(doc, "r/a");
        assert_eq!(streamed, arena);
        assert_eq!(streamed, vec![Vec::new()]);
        let (streamed, arena) = both_tuple_sets(doc, "r/b");
        assert_eq!(streamed, arena);
        assert!(streamed.is_empty());
    }

    #[test]
    fn enumeration_joins_descendant_and_child_obligations() {
        let (streamed, arena) =
            both_tuple_sets(DOC, "r[prof(x)[teach[year(y)[course(c1), course(c2)]]]]");
        assert_eq!(streamed, arena);
        // 2 course choices per slot (the kernel allows both orders and the
        // diagonal): the join must reproduce them all.
        assert_eq!(streamed.len(), 4);
        let deep = format!(
            "<r>{}<c v=\"hit\"/>{}<c v=\"top\"/></r>",
            "<a>".repeat(120),
            "</a>".repeat(120)
        );
        let (streamed, arena) = both_tuple_sets(&deep, "r//c(x)");
        assert_eq!(streamed, arena);
        assert_eq!(streamed.len(), 2);
    }

    #[test]
    fn enumerator_counters_track_depth_and_live_state() {
        let deep = format!(
            "<r>{}<c v=\"hit\"/>{}</r>",
            "<a>".repeat(50),
            "</a>".repeat(50)
        );
        let p = parse("r//c(x)").unwrap();
        let plan = StreamPattern::compile(&p).unwrap();
        let mut en = StreamEnumerator::new(&plan);
        stream(&plan, &deep, &mut en);
        assert_eq!(en.peak_depth(), 52);
        assert!(en.peak_live_valuations() >= 1);
        assert!(en.peak_state_bytes() > 0);
        assert_eq!(en.finish().len(), 1);
    }

    #[test]
    fn deep_and_wide_documents_stream() {
        let deep = format!(
            "<r>{}<c v=\"hit\"/>{}</r>",
            "<a>".repeat(200),
            "</a>".repeat(200)
        );
        assert!(check_both(&deep, "r//c(x)"));
        let wide = format!("<r>{}<c v=\"hit\"/></r>", "<b/>".repeat(500));
        assert!(check_both(&wide, "r/c(x)"));
        let p = parse("r//c(x)").unwrap();
        let plan = StreamPattern::compile(&p).unwrap();
        let mut m = StreamMatcher::new(&plan);
        stream(&plan, &deep, &mut m);
        assert!(m.finish());
        assert_eq!(m.peak_depth(), 202);
    }
}
