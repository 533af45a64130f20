//! The compiled type-fixpoint engine (DESIGN.md §8).
//!
//! Same semantics as [`crate::sat::reference`] — the least fixpoint of
//! achievable `(label, type)` pairs over a DTD — with the operational
//! structure rebuilt for speed:
//!
//! * **Interning.** Labels become dense `u32` ids ([`DtdIndex`]), type
//!   bitsets are hash-consed into `u32` type ids, and achievable pairs are
//!   keyed `(label_id, type_id)` — the reference engine's linear
//!   `PairInfo` scans and `BTreeSet` machine states become hash lookups
//!   over flat `[u64]` words.
//! * **Flat machine states.** A per-label exploration state is one
//!   contiguous word slice `[NFA subset | sequence positions | seen
//!   components]`. Stepping is bitwise: the NFA prefix steps through the
//!   DTD's own compiled content model (`DenseNfa::step`, the runner every
//!   conformance check shares), each sequence acceptor advances with one
//!   shift-and-mask per word (`(cur & gap) | ((cur & match) << 1)`), and
//!   `seen` is a word-wise OR with the symbol's type.
//! * **Worklist fixpoint.** Instead of re-sweeping the whole alphabet
//!   until nothing grows, each label keeps its exploration state
//!   persistently (`LabelExp`): when new pairs arrive, already-settled
//!   states catch up on just the new symbols and only freshly created
//!   states pay the full expansion. A label re-enters the worklist only
//!   when a new pair's label occurs in its production (`dependents`).
//! * **Gated parallel frontier.** Rounds with enough dirty labels fan the
//!   per-label expansions out over `xmlmap_par` worker threads (each label
//!   behind its own mutex, results merged deterministically in label
//!   order). Gated on alphabet size so small schemas never pay thread
//!   overhead — the same policy as the eval kernel's ≥256-node gate.
//!
//! [`SatCache`] is the repeated-probe entry point: it compiles the DTD
//! once, interns each pattern set's closure once, and memoizes complete
//! match-set results, so N probes against one schema pay compilation a
//! single time. `core::consistency`, `core::abscons`, `core::compose` and
//! `core::bounded` all hold one per call tree.

use crate::ast::{LabelTest, ListItem, Pattern, SeqOp};
use crate::sat::{BudgetExceeded, NrKernel};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use xmlmap_dtd::Dtd;

use xmlmap_trees::{Tree, Value};

/// Parallel rounds only when the alphabet is at least this large…
const PAR_LABEL_GATE: usize = 16;
/// …and at least this many labels are dirty in the round.
const PAR_DIRTY_GATE: usize = 4;

use xmlmap_dtd::content::{get_bit, set_bit};
use xmlmap_dtd::{DenseNfa, DtdIndex};

/// Flattened list item of a compiled pattern node.
enum CItem {
    /// `//π`: the seen-bit of the referenced node's `SubtreeMatch`.
    Desc(usize),
    /// A sequence item, indexing into [`CompiledPats::seqs`].
    Seq(usize),
}

struct PatNode {
    items: Vec<CItem>,
}

/// A compiled sequence acceptor. Positions `0..=n` live in a bitset of
/// `words` words at `offset` within the state's sequence area; position `n`
/// means "complete".
struct CSeq {
    members: Vec<usize>,
    n: usize,
    words: usize,
    offset: usize,
    /// Positions that survive a non-matching symbol: `0` (leading Σ*),
    /// `s` with `ops[s-1] == →*`, and `n` (trailing Σ*).
    gap_mask: Box<[u64]>,
}

/// The per-pattern-set compiled closure: flattened nodes, sequence
/// acceptors with precomputed gap masks, and per-label candidate lists
/// (label test + arity prechecked against the [`DtdIndex`]).
pub struct CompiledPats {
    nodes: Vec<PatNode>,
    /// Root pattern-node id of each input pattern.
    roots: Vec<usize>,
    /// `(pid, subtree-bit)` for every `//`-referenced node.
    desc_bits: Vec<(usize, usize)>,
    comp_words: usize,
    seqs: Vec<CSeq>,
    seq_area_words: usize,
    /// Per label id: pattern nodes whose label test and arity allow it.
    cand: Vec<Vec<u32>>,
}

impl CompiledPats {
    /// Flattens `patterns` against `idx`: closure nodes, sequence
    /// acceptors with gap masks, and per-label candidate lists.
    pub fn new(idx: &DtdIndex, patterns: &[&Pattern]) -> CompiledPats {
        struct RawSeq {
            members: Vec<usize>,
            ops: Vec<SeqOp>,
        }
        let mut tests: Vec<(LabelTest, usize)> = Vec::new(); // (label test, arity)
        let mut items: Vec<Vec<(bool, usize)>> = Vec::new(); // (is_desc, target)
        let mut raw_seqs: Vec<RawSeq> = Vec::new();
        let mut desc_pids: Vec<usize> = Vec::new();

        fn flatten(
            p: &Pattern,
            tests: &mut Vec<(LabelTest, usize)>,
            items: &mut Vec<Vec<(bool, usize)>>,
            raw_seqs: &mut Vec<RawSeq>,
            desc_pids: &mut Vec<usize>,
        ) -> usize {
            let pid = tests.len();
            tests.push((p.label.clone(), p.vars.len()));
            items.push(Vec::new());
            let mut my_items = Vec::new();
            for item in &p.list {
                match item {
                    ListItem::Descendant(sub) => {
                        let sub_pid = flatten(sub, tests, items, raw_seqs, desc_pids);
                        desc_pids.push(sub_pid);
                        my_items.push((true, sub_pid));
                    }
                    ListItem::Seq { members, ops } => {
                        let member_pids = members
                            .iter()
                            .map(|m| flatten(m, tests, items, raw_seqs, desc_pids))
                            .collect();
                        raw_seqs.push(RawSeq {
                            members: member_pids,
                            ops: ops.clone(),
                        });
                        my_items.push((false, raw_seqs.len() - 1));
                    }
                }
            }
            items[pid] = my_items;
            pid
        }

        let roots: Vec<usize> = patterns
            .iter()
            .map(|p| flatten(p, &mut tests, &mut items, &mut raw_seqs, &mut desc_pids))
            .collect();

        // Components: NodeMatch(pid) = bit pid, then one SubtreeMatch bit
        // per `//`-referenced pid (same layout as the reference engine).
        let n_nodes = tests.len();
        let mut subtree_bit: HashMap<usize, usize> = HashMap::new();
        for pid in desc_pids {
            let next = n_nodes + subtree_bit.len();
            subtree_bit.entry(pid).or_insert(next);
        }
        let n_comps = n_nodes + subtree_bit.len();
        let mut desc_bits: Vec<(usize, usize)> =
            subtree_bit.iter().map(|(&p, &b)| (p, b)).collect();
        desc_bits.sort_unstable();

        let mut seqs = Vec::with_capacity(raw_seqs.len());
        let mut offset = 0usize;
        for raw in raw_seqs {
            let n = raw.members.len();
            let words = (n + 1).div_ceil(64);
            let mut gap_mask = vec![0u64; words];
            set_bit(&mut gap_mask, 0);
            set_bit(&mut gap_mask, n);
            for (s, op) in raw.ops.iter().enumerate() {
                if *op == SeqOp::Following {
                    set_bit(&mut gap_mask, s + 1);
                }
            }
            seqs.push(CSeq {
                members: raw.members,
                n,
                words,
                offset,
                gap_mask: gap_mask.into_boxed_slice(),
            });
            offset += words;
        }

        let nodes: Vec<PatNode> = items
            .into_iter()
            .map(|its| PatNode {
                items: its
                    .into_iter()
                    .map(|(is_desc, t)| {
                        if is_desc {
                            CItem::Desc(subtree_bit[&t])
                        } else {
                            CItem::Seq(t)
                        }
                    })
                    .collect(),
            })
            .collect();

        let cand: Vec<Vec<u32>> = idx
            .labels()
            .iter()
            .map(|label| {
                tests
                    .iter()
                    .enumerate()
                    .filter(|(_, (test, arity))| {
                        // An empty variable tuple imposes no arity
                        // requirement (mirrors `eval`).
                        test.accepts(label) && (*arity == 0 || *arity == idx.dtd().arity(label))
                    })
                    .map(|(pid, _)| pid as u32)
                    .collect()
            })
            .collect();

        CompiledPats {
            nodes,
            roots,
            desc_bits,
            comp_words: n_comps.div_ceil(64),
            seqs,
            seq_area_words: offset,
            cand,
        }
    }

    /// Approximate heap footprint in bytes (pattern nodes, sequence
    /// acceptors, candidate lists).
    pub fn approx_bytes(&self) -> u64 {
        (self
            .nodes
            .iter()
            .map(|n| n.items.capacity() * std::mem::size_of::<CItem>())
            .sum::<usize>()
            + self.roots.capacity() * 8
            + self.desc_bits.capacity() * 16
            + self
                .seqs
                .iter()
                .map(|s| s.members.capacity() * 8 + s.gap_mask.len() * 8 + 32)
                .sum::<usize>()
            + self.cand.iter().map(|c| c.capacity() * 4).sum::<usize>()) as u64
    }
}

/// An interned achievable pair.
struct Pair {
    label: u32,
    type_id: u32,
    /// Children realisation: ids of (strictly older) achievable pairs.
    word: Vec<u32>,
    /// Per-sequence member-match masks for this pair's type: bit `s` of
    /// sequence `k` iff the type contains `NodeMatch(members[s])`.
    /// Lets [`EngineCore::step`] advance every acceptor bitwise.
    seq_masks: Box<[u64]>,
}

/// A pair discovered during a round, before sequential interning.
struct NewPair {
    label: u32,
    typ: Box<[u64]>,
    word: Vec<u32>,
}

fn compute_seq_masks(pats: &CompiledPats, typ: &[u64]) -> Box<[u64]> {
    let mut masks = vec![0u64; pats.seq_area_words];
    for seq in &pats.seqs {
        for (s, &pid) in seq.members.iter().enumerate() {
            if get_bit(typ, pid) {
                masks[seq.offset + s / 64] |= 1 << (s % 64);
            }
        }
    }
    masks.into_boxed_slice()
}

/// Shared read-only (within a round) engine state.
struct EngineCore {
    idx: Arc<DtdIndex>,
    pats: Arc<CompiledPats>,
    /// Hash-consed type bitsets.
    types: Vec<Box<[u64]>>,
    type_index: HashMap<Box<[u64]>, u32>,
    pairs: Vec<Pair>,
    pair_index: HashMap<(u32, u32), u32>,
    states_explored: AtomicUsize,
    budget: usize,
    context: String,
}

impl EngineCore {
    /// Counts one state settlement against the budget.
    fn bump(&self) -> Result<(), BudgetExceeded> {
        let n = self.states_explored.fetch_add(1, Ordering::Relaxed) + 1;
        if n > self.budget {
            Err(BudgetExceeded {
                budget: self.budget,
                states_explored: n,
                context: self.context.clone(),
            })
        } else {
            Ok(())
        }
    }

    /// One machine transition on `pair`, writing into `out`. Returns false
    /// when the production NFA subset empties (dead word prefix).
    fn step(&self, nfa: &DenseNfa, state: &[u64], pair: &Pair, out: &mut Vec<u64>) -> bool {
        out.clear();
        out.resize(state.len(), 0);
        let w = nfa.words();
        if !nfa.step(&state[..w], pair.label, &mut out[..w]) {
            return false;
        }
        let pats = &*self.pats;
        for seq in &pats.seqs {
            let o = nfa.words() + seq.offset;
            let mut carry = 0u64;
            for i in 0..seq.words {
                let cur = state[o + i];
                let matched = cur & pair.seq_masks[seq.offset + i];
                out[o + i] = (cur & seq.gap_mask[i]) | (matched << 1) | carry;
                carry = matched >> 63;
            }
        }
        let typ = &self.types[pair.type_id as usize];
        let seen = nfa.words() + pats.seq_area_words;
        for w in 0..pats.comp_words {
            out[seen + w] = state[seen + w] | typ[w];
        }
        true
    }

    /// The type induced at an `lid`-labelled node whose children produced
    /// machine state `state`.
    fn induced_type(&self, lid: u32, nfa_words: usize, state: &[u64]) -> Box<[u64]> {
        let pats = &*self.pats;
        let seen = nfa_words + pats.seq_area_words;
        let mut typ = vec![0u64; pats.comp_words];
        for &pid in &pats.cand[lid as usize] {
            let pid = pid as usize;
            let all_items = pats.nodes[pid].items.iter().all(|item| match item {
                CItem::Desc(bit) => get_bit(&state[seen..], *bit),
                CItem::Seq(k) => {
                    let seq = &pats.seqs[*k];
                    get_bit(&state[nfa_words + seq.offset..], seq.n)
                }
            });
            if all_items {
                set_bit(&mut typ, pid);
            }
        }
        // SubtreeMatch: here or in some child's subtree.
        for &(pid, bit) in &pats.desc_bits {
            if get_bit(&typ, pid) || get_bit(&state[seen..], bit) {
                set_bit(&mut typ, bit);
            }
        }
        typ.into_boxed_slice()
    }

    fn build_witness(&self, pair_id: usize) -> Tree {
        fn attach(core: &EngineCore, tree: &mut Tree, at: xmlmap_trees::NodeId, pid: usize) {
            for &child in &core.pairs[pid].word {
                let info = &core.pairs[child as usize];
                let label = &core.idx.labels()[info.label as usize];
                let node = tree.add_child(
                    at,
                    label.clone(),
                    core.idx
                        .dtd()
                        .attrs(label)
                        .iter()
                        .map(|a| (a.clone(), Value::str("d"))),
                );
                attach(core, tree, node, child as usize);
            }
        }
        let info = &self.pairs[pair_id];
        let label = &self.idx.labels()[info.label as usize];
        let mut tree = Tree::with_root_attrs(
            label.clone(),
            self.idx
                .dtd()
                .attrs(label)
                .iter()
                .map(|a| (a.clone(), Value::str("d"))),
        );
        attach(self, &mut tree, Tree::ROOT, pair_id);
        tree
    }
}

/// Persistent per-label exploration state for the worklist fixpoint.
struct LabelExp {
    lid: u32,
    stride: usize,
    /// Flat machine states, `stride` words each.
    states: Vec<u64>,
    index: HashMap<Box<[u64]>, u32>,
    /// `(previous state, pair id)`; `(MAX, MAX)` marks the initial state.
    parent: Vec<(u32, u32)>,
    /// States already expanded against `relevant[..]` as of `pairs_done`.
    settled: usize,
    /// Global pair count this label has caught up with.
    pairs_done: usize,
    /// Pairs whose label occurs in this label's production.
    relevant: Vec<u32>,
    /// Types already emitted from this label (across rounds).
    emitted: HashSet<Box<[u64]>>,
}

impl LabelExp {
    fn new(lid: u32, stride: usize) -> LabelExp {
        LabelExp {
            lid,
            stride,
            states: Vec::new(),
            index: HashMap::new(),
            parent: Vec::new(),
            settled: 0,
            pairs_done: 0,
            relevant: Vec::new(),
            emitted: HashSet::new(),
        }
    }

    fn insert_state(
        &mut self,
        core: &EngineCore,
        nfa: &DenseNfa,
        key: Box<[u64]>,
        parent: (u32, u32),
        out: &mut Vec<NewPair>,
    ) {
        let ni = self.parent.len() as u32;
        self.states.extend_from_slice(&key);
        self.parent.push(parent);
        // Emission is decided at creation: acceptance and the induced type
        // depend only on the state itself.
        if nfa.accepts(&key) {
            let typ = core.induced_type(self.lid, nfa.words(), &key);
            let known = core
                .type_index
                .get(&typ)
                .is_some_and(|tid| core.pair_index.contains_key(&(self.lid, *tid)));
            if !known && self.emitted.insert(typ.clone()) {
                let mut word = Vec::new();
                let mut cur = ni as usize;
                loop {
                    let (prev, pid) = self.parent[cur];
                    if pid == u32::MAX {
                        break;
                    }
                    word.push(pid);
                    cur = prev as usize;
                }
                word.reverse();
                out.push(NewPair {
                    label: self.lid,
                    typ,
                    word,
                });
            }
        }
        self.index.insert(key, ni);
    }

    fn try_step(
        &mut self,
        core: &EngineCore,
        nfa: &DenseNfa,
        si: usize,
        pid: u32,
        scratch: &mut Vec<u64>,
        out: &mut Vec<NewPair>,
    ) {
        let pair = &core.pairs[pid as usize];
        let alive = {
            let state = &self.states[si * self.stride..(si + 1) * self.stride];
            core.step(nfa, state, pair, scratch)
        };
        if alive && !self.index.contains_key(scratch.as_slice()) {
            self.insert_state(
                core,
                nfa,
                scratch.clone().into_boxed_slice(),
                (si as u32, pid),
                out,
            );
        }
    }
}

/// Expands one label: catch settled states up on pairs added since the
/// label's last round, then settle every fresh state against all relevant
/// pairs. Returns the pairs discovered (interned later, sequentially).
fn expand(core: &EngineCore, exp: &mut LabelExp) -> Result<Vec<NewPair>, BudgetExceeded> {
    let nfa = &core.idx.nfas()[exp.lid as usize];
    let mut out = Vec::new();

    if exp.parent.is_empty() {
        let mut init = vec![0u64; exp.stride];
        nfa.start(&mut init[..nfa.words()]);
        for seq in &core.pats.seqs {
            set_bit(&mut init[nfa.words()..], seq.offset * 64); // position 0
        }
        exp.insert_state(
            core,
            nfa,
            init.into_boxed_slice(),
            (u32::MAX, u32::MAX),
            &mut out,
        );
    }

    let first_new = exp.relevant.len();
    for pid in exp.pairs_done..core.pairs.len() {
        if nfa.has_sym(core.pairs[pid].label) {
            exp.relevant.push(pid as u32);
        }
    }
    exp.pairs_done = core.pairs.len();

    let mut scratch: Vec<u64> = Vec::new();

    // Phase 1: settled states see only the newly arrived pairs.
    if first_new < exp.relevant.len() {
        for si in 0..exp.settled {
            core.bump()?;
            for ri in first_new..exp.relevant.len() {
                let pid = exp.relevant[ri];
                exp.try_step(core, nfa, si, pid, &mut scratch, &mut out);
            }
        }
    }

    // Phase 2: settle fresh states (including ones created above) against
    // the full relevant list.
    while exp.settled < exp.parent.len() {
        let si = exp.settled;
        exp.settled += 1;
        core.bump()?;
        for ri in 0..exp.relevant.len() {
            let pid = exp.relevant[ri];
            exp.try_step(core, nfa, si, pid, &mut scratch, &mut out);
        }
    }
    Ok(out)
}

/// The compiled satisfiability engine. One-shot API mirror of the
/// reference [`crate::sat::reference::TypeEngine`]; for repeated probes against one
/// DTD use [`SatCache`].
pub struct SatEngine {
    core: EngineCore,
    exps: Vec<Mutex<LabelExp>>,
    done: bool,
}

impl SatEngine {
    /// Compiles `dtd` and `patterns` from scratch. `budget` bounds the
    /// total number of machine-state settlements.
    pub fn new(dtd: &Dtd, patterns: &[&Pattern], budget: usize) -> SatEngine {
        let idx = Arc::new(DtdIndex::new(dtd));
        let pats = Arc::new(CompiledPats::new(&idx, patterns));
        SatEngine::from_parts(idx, pats, budget)
    }

    /// Builds an engine over pre-compiled artifacts (the [`SatCache`] path).
    pub fn from_parts(idx: Arc<DtdIndex>, pats: Arc<CompiledPats>, budget: usize) -> SatEngine {
        let exps = (0..idx.labels().len())
            .map(|lid| {
                let stride = idx.nfas()[lid].words() + pats.seq_area_words + pats.comp_words;
                Mutex::new(LabelExp::new(lid as u32, stride))
            })
            .collect();
        SatEngine {
            core: EngineCore {
                idx,
                pats,
                types: Vec::new(),
                type_index: HashMap::new(),
                pairs: Vec::new(),
                pair_index: HashMap::new(),
                states_explored: AtomicUsize::new(0),
                budget,
                context: "type-fixpoint".to_string(),
            },
            exps,
            done: false,
        }
    }

    /// Labels budget overruns with an operation description.
    pub fn with_context(mut self, context: &str) -> SatEngine {
        self.core.context = context.to_string();
        self
    }

    /// Runs the worklist fixpoint to completion.
    pub fn run(&mut self) -> Result<(), BudgetExceeded> {
        if self.done {
            return Ok(());
        }
        let n_labels = self.core.idx.labels().len();
        let mut dirty: Vec<u32> = (0..n_labels as u32).collect();
        while !dirty.is_empty() {
            let core = &self.core;
            let exps = &self.exps;
            let round = |&lid: &u32| {
                let mut exp = exps[lid as usize].lock().unwrap();
                expand(core, &mut exp)
            };
            let use_par = n_labels >= PAR_LABEL_GATE
                && dirty.len() >= PAR_DIRTY_GATE
                && xmlmap_par::worker_count() > 1;
            let results = if use_par {
                xmlmap_par::par_map(&dirty, round)
            } else {
                dirty.iter().map(round).collect()
            };
            let mut fresh: Vec<NewPair> = Vec::new();
            for r in results {
                fresh.extend(r?);
            }
            // Sequential, label-ordered merge keeps pair ids deterministic
            // (par_map preserves input order).
            let changed = self.intern(fresh);
            let mut next: Vec<u32> = changed
                .iter()
                .flat_map(|&lid| self.core.idx.dependents(lid).iter().copied())
                .collect();
            next.sort_unstable();
            next.dedup();
            dirty = next;
        }
        self.done = true;
        Ok(())
    }

    /// Interns a round's discoveries; returns the labels that gained pairs.
    fn intern(&mut self, fresh: Vec<NewPair>) -> Vec<u32> {
        let core = &mut self.core;
        let mut changed = Vec::new();
        for np in fresh {
            let tid = match core.type_index.get(&np.typ) {
                Some(&t) => t,
                None => {
                    let t = core.types.len() as u32;
                    core.type_index.insert(np.typ.clone(), t);
                    core.types.push(np.typ.clone());
                    t
                }
            };
            if core.pair_index.contains_key(&(np.label, tid)) {
                continue;
            }
            let seq_masks = compute_seq_masks(&core.pats, &np.typ);
            let id = core.pairs.len() as u32;
            core.pair_index.insert((np.label, tid), id);
            core.pairs.push(Pair {
                label: np.label,
                type_id: tid,
                word: np.word,
                seq_masks,
            });
            changed.push(np.label);
        }
        changed.sort_unstable();
        changed.dedup();
        changed
    }

    /// All achievable root match sets with witnesses (see [`crate::sat`]).
    pub fn root_match_sets(&mut self) -> Result<Vec<(BTreeSet<usize>, Tree)>, BudgetExceeded> {
        self.run()?;
        let core = &self.core;
        let mut out: Vec<(BTreeSet<usize>, Tree)> = Vec::new();
        let mut seen: BTreeSet<BTreeSet<usize>> = BTreeSet::new();
        for (id, pair) in core.pairs.iter().enumerate() {
            if pair.label != core.idx.root() {
                continue;
            }
            let typ = &core.types[pair.type_id as usize];
            let set: BTreeSet<usize> = core
                .pats
                .roots
                .iter()
                .enumerate()
                .filter(|(_, &pid)| get_bit(typ, pid))
                .map(|(i, _)| i)
                .collect();
            if seen.insert(set.clone()) {
                out.push((set, core.build_witness(id)));
            }
        }
        Ok(out)
    }

    /// Is there a `T ⊨ D` matching **all** input patterns at the root?
    pub fn satisfiable_conj(&mut self) -> Result<Option<Tree>, BudgetExceeded> {
        let n = self.core.pats.roots.len();
        let sets = self.root_match_sets()?;
        Ok(sets
            .into_iter()
            .find(|(set, _)| set.len() == n)
            .map(|(_, tree)| tree))
    }

    /// Total machine states settled so far (diagnostics for benches).
    pub fn states_explored(&self) -> usize {
        self.core.states_explored.load(Ordering::Relaxed)
    }
}

type MatchSets = Vec<(BTreeSet<usize>, Tree)>;

/// Per-DTD satisfiability cache: the DTD is compiled once, each pattern
/// set's closure is interned once (keyed by the patterns' display strings,
/// which round-trip), and complete match-set results are memoized. Budget
/// overruns are *not* cached — a retry with a larger budget recomputes.
///
/// Shared by the `crates/core` consistency procedures so that the many
/// probes of one `CONS`/`ABSCONS°`/`CONSCOMP` run (and repeated runs over
/// one schema) pay compilation a single time. The nested-relational
/// fragment's [`NrKernel`] is built on the first query that asks for it
/// ([`SatCache::nr_kernel`]), never by [`SatCache::new`].
pub struct SatCache {
    idx: Arc<DtdIndex>,
    context: String,
    pats: Mutex<HashMap<Vec<String>, Arc<CompiledPats>>>,
    results: Mutex<HashMap<Vec<String>, Arc<MatchSets>>>,
    nr: OnceLock<Option<NrKernel>>,
}

impl SatCache {
    /// Compiles `dtd` into a fresh, empty cache.
    pub fn new(dtd: &Dtd) -> SatCache {
        SatCache {
            idx: Arc::new(DtdIndex::new(dtd)),
            context: "cached type-fixpoint probe".to_string(),
            pats: Mutex::new(HashMap::new()),
            results: Mutex::new(HashMap::new()),
            nr: OnceLock::new(),
        }
    }

    /// Labels budget overruns from this cache with an operation description.
    pub fn with_context(mut self, context: &str) -> SatCache {
        self.context = context.to_string();
        self
    }

    /// The DTD this cache answers probes against.
    pub fn dtd(&self) -> &Dtd {
        self.idx.dtd()
    }

    /// The DTD's [`NrKernel`], compiled on first request; `None` when the
    /// DTD is not nested-relational (also remembered).
    pub fn nr_kernel(&self) -> Option<&NrKernel> {
        self.nr.get_or_init(|| NrKernel::new(self.dtd())).as_ref()
    }

    /// All achievable root match sets for `patterns`, memoized.
    pub fn achievable_match_sets(
        &self,
        patterns: &[&Pattern],
        budget: usize,
    ) -> Result<Arc<MatchSets>, BudgetExceeded> {
        let key: Vec<String> = patterns.iter().map(|p| p.to_string()).collect();
        if let Some(hit) = self.results.lock().unwrap().get(&key) {
            return Ok(hit.clone());
        }
        let pats = {
            let mut map = self.pats.lock().unwrap();
            map.entry(key.clone())
                .or_insert_with(|| Arc::new(CompiledPats::new(&self.idx, patterns)))
                .clone()
        };
        let mut engine =
            SatEngine::from_parts(self.idx.clone(), pats, budget).with_context(&self.context);
        let sets = Arc::new(engine.root_match_sets()?);
        self.results.lock().unwrap().insert(key, sets.clone());
        Ok(sets)
    }

    /// Joint satisfiability of a pattern conjunction, memoized.
    pub fn satisfiable_all(
        &self,
        patterns: &[&Pattern],
        budget: usize,
    ) -> Result<Option<Tree>, BudgetExceeded> {
        let n = patterns.len();
        Ok(self
            .achievable_match_sets(patterns, budget)?
            .iter()
            .find(|(set, _)| set.len() == n)
            .map(|(_, tree)| tree.clone()))
    }

    /// Single-pattern satisfiability, memoized.
    pub fn satisfiable(
        &self,
        pattern: &Pattern,
        budget: usize,
    ) -> Result<Option<Tree>, BudgetExceeded> {
        self.satisfiable_all(&[pattern], budget)
    }

    /// Approximate heap footprint in bytes: the compiled index, the
    /// nested-relational kernel once built, and both runtime memo tables
    /// (whose match-set witnesses can dwarf the index on heavily probed
    /// schemas — which is exactly what eviction needs to see).
    pub fn approx_bytes(&self) -> u64 {
        let key_bytes =
            |key: &Vec<String>| key.iter().map(|s| s.len() as u64 + 24).sum::<u64>() + 24;
        let mut total = self.idx.approx_bytes() + self.context.len() as u64;
        if let Some(Some(kernel)) = self.nr.get() {
            total += kernel.approx_bytes();
        }
        for (key, pats) in self.pats.lock().unwrap().iter() {
            total += key_bytes(key) + pats.approx_bytes();
        }
        for (key, sets) in self.results.lock().unwrap().iter() {
            total += key_bytes(key);
            for (set, witness) in sets.iter() {
                total += set.len() as u64 * 16 + witness.approx_bytes() + 48;
            }
        }
        total
    }
}
