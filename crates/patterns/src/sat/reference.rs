//! The original (pre-compiled) type-fixpoint engine, kept as a
//! differential-testing oracle — the same role `crate::reference` plays for
//! the evaluation kernel.
//!
//! Semantics are identical to the compiled engine in
//! [`crate::sat_compiled`]: least fixpoint of achievable `(label, type)`
//! pairs, per-label word exploration as a BFS over machine states. The
//! difference is purely operational — this engine re-sweeps the whole
//! alphabet until nothing grows, scans pairs linearly, and keeps machine
//! states as `BTreeSet`s; the compiled engine interns everything and runs a
//! dependency-driven worklist. Differential proptests
//! (`tests/sat_equiv.rs`) pin the two together.

use super::BudgetExceeded;
use crate::ast::{ListItem, Pattern, SeqOp};
use std::collections::{BTreeSet, HashMap, VecDeque};
use xmlmap_dtd::Dtd;
use xmlmap_regex::Nfa;
use xmlmap_trees::{Name, Tree, Value};

/// A compact bitset used for component types.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
struct Bits(Vec<u64>);

impl Bits {
    fn new(len: usize) -> Bits {
        Bits(vec![0; len.div_ceil(64)])
    }
    fn set(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }
    fn get(&self, i: usize) -> bool {
        self.0[i / 64] & (1 << (i % 64)) != 0
    }
    fn or_assign(&mut self, other: &Bits) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a |= b;
        }
    }
}

/// Flattened pattern node.
struct NodeC {
    label: crate::ast::LabelTest,
    arity: usize,
    items: Vec<ItemC>,
}

/// Flattened list item.
enum ItemC {
    /// `//π` where π has the given pattern-node id.
    Desc(usize),
    /// A sequence item, indexing into the global sequence table.
    Seq(usize),
}

/// A sequence acceptor: members (pattern-node ids) and operators.
struct SeqC {
    members: Vec<usize>,
    ops: Vec<SeqOp>,
}

/// An achievable `(label, type)` pair plus the witness word that produced it.
struct PairInfo {
    label: Name,
    typ: Bits,
    /// Children realisation: ids of achievable pairs, in order.
    word: Vec<usize>,
}

/// The reference satisfiability engine for a DTD and a set of patterns.
pub struct TypeEngine<'a> {
    dtd: &'a Dtd,
    nodes: Vec<NodeC>,
    seqs: Vec<SeqC>,
    /// Root pattern-node id of each input pattern.
    roots: Vec<usize>,
    /// pid → SubtreeMatch component index (only for `//`-referenced nodes).
    subtree_bit: HashMap<usize, usize>,
    n_comps: usize,
    /// Achievable pairs, in discovery order (witness words only reference
    /// earlier sweeps, so recursion over them is well-founded).
    pairs: Vec<PairInfo>,
    pair_index: HashMap<(Name, Bits), usize>,
    states_explored: usize,
    budget: usize,
}

/// One machine state of the per-label word exploration.
#[derive(Clone, PartialEq, Eq, Hash)]
struct MachineState {
    /// Subset state of the production NFA.
    dtd: BTreeSet<usize>,
    /// Subset state of every sequence acceptor.
    seqs: Vec<BTreeSet<usize>>,
    /// `SubtreeMatch` components seen on some symbol so far.
    seen: Bits,
}

impl<'a> TypeEngine<'a> {
    /// Builds the engine for `dtd` and `patterns`. `budget` bounds the total
    /// number of machine states explored (across all sweeps).
    pub fn new(dtd: &'a Dtd, patterns: &[&Pattern], budget: usize) -> TypeEngine<'a> {
        let mut nodes: Vec<NodeC> = Vec::new();
        let mut seqs: Vec<SeqC> = Vec::new();
        let mut desc_pids: Vec<usize> = Vec::new();

        fn flatten(
            p: &Pattern,
            nodes: &mut Vec<NodeC>,
            seqs: &mut Vec<SeqC>,
            desc_pids: &mut Vec<usize>,
        ) -> usize {
            let pid = nodes.len();
            nodes.push(NodeC {
                label: p.label.clone(),
                arity: p.vars.len(),
                items: Vec::new(),
            });
            let mut items = Vec::new();
            for item in &p.list {
                match item {
                    ListItem::Descendant(sub) => {
                        let sub_pid = flatten(sub, nodes, seqs, desc_pids);
                        desc_pids.push(sub_pid);
                        items.push(ItemC::Desc(sub_pid));
                    }
                    ListItem::Seq { members, ops } => {
                        let member_pids = members
                            .iter()
                            .map(|m| flatten(m, nodes, seqs, desc_pids))
                            .collect();
                        seqs.push(SeqC {
                            members: member_pids,
                            ops: ops.clone(),
                        });
                        items.push(ItemC::Seq(seqs.len() - 1));
                    }
                }
            }
            nodes[pid].items = items;
            pid
        }

        let roots = patterns
            .iter()
            .map(|p| flatten(p, &mut nodes, &mut seqs, &mut desc_pids))
            .collect();

        // Components: NodeMatch(pid) = bit pid; SubtreeMatch for every
        // `//`-referenced pid, and (transitively) everything below them —
        // SubtreeMatch(q) needs NodeMatch(q) at descendants, which the
        // engine gets from types, so only the referenced pid needs a bit.
        let n_nodes = nodes.len();
        let mut subtree_bit = HashMap::new();
        for pid in desc_pids {
            let next = n_nodes + subtree_bit.len();
            subtree_bit.entry(pid).or_insert(next);
        }
        let n_comps = n_nodes + subtree_bit.len();

        TypeEngine {
            dtd,
            nodes,
            seqs,
            roots,
            subtree_bit,
            n_comps,
            pairs: Vec::new(),
            pair_index: HashMap::new(),
            states_explored: 0,
            budget,
        }
    }

    /// Runs the fixpoint to completion.
    pub fn run(&mut self) -> Result<(), BudgetExceeded> {
        loop {
            let frozen = self.pairs.len();
            let labels: Vec<Name> = self.dtd.alphabet().cloned().collect();
            let mut discovered: Vec<PairInfo> = Vec::new();
            for label in &labels {
                self.explore_label(label, frozen, &mut discovered)?;
            }
            let mut grew = false;
            for info in discovered {
                let key = (info.label.clone(), info.typ.clone());
                if !self.pair_index.contains_key(&key) {
                    self.pair_index.insert(key, self.pairs.len());
                    self.pairs.push(info);
                    grew = true;
                }
            }
            if !grew {
                return Ok(());
            }
        }
    }

    /// Explores all children words for `label` over the first `frozen`
    /// achievable pairs, collecting every realizable `(label, τ)`.
    fn explore_label(
        &mut self,
        label: &Name,
        frozen: usize,
        discovered: &mut Vec<PairInfo>,
    ) -> Result<(), BudgetExceeded> {
        let nfa = Nfa::from_regex(self.dtd.production(label));

        let initial = MachineState {
            dtd: BTreeSet::from([0usize]),
            seqs: vec![BTreeSet::from([0usize]); self.seqs.len()],
            seen: Bits::new(self.n_comps),
        };
        let mut index: HashMap<MachineState, usize> = HashMap::new();
        let mut states: Vec<MachineState> = Vec::new();
        let mut parent: Vec<Option<(usize, usize)>> = Vec::new(); // (state, pair id)
        let mut queue = VecDeque::new();
        index.insert(initial.clone(), 0);
        states.push(initial);
        parent.push(None);
        queue.push_back(0usize);
        let mut emitted: BTreeSet<Bits> = BTreeSet::new();

        while let Some(si) = queue.pop_front() {
            self.states_explored += 1;
            if self.states_explored > self.budget {
                return Err(BudgetExceeded {
                    budget: self.budget,
                    states_explored: self.states_explored,
                    context: "reference engine".to_string(),
                });
            }
            let state = states[si].clone();

            // Complete word? Emit the induced type.
            if state.dtd.iter().any(|&q| nfa.accepting[q]) {
                let typ = self.induced_type(label, &state);
                if emitted.insert(typ.clone())
                    && !self.pair_index.contains_key(&(label.clone(), typ.clone()))
                {
                    // Reconstruct the witness word.
                    let mut word = Vec::new();
                    let mut cur = si;
                    while let Some((prev, pid)) = parent[cur] {
                        word.push(pid);
                        cur = prev;
                    }
                    word.reverse();
                    // A later-discovered duplicate within `discovered` is
                    // filtered by the caller's index check.
                    discovered.push(PairInfo {
                        label: label.clone(),
                        typ,
                        word,
                    });
                }
            }

            // Transitions on every achievable pair.
            for pid in 0..frozen {
                let next = self.step(&state, &nfa, pid);
                if next.dtd.is_empty() {
                    continue; // the production can never complete from here
                }
                if !index.contains_key(&next) {
                    let ni = states.len();
                    index.insert(next.clone(), ni);
                    states.push(next);
                    parent.push(Some((si, pid)));
                    queue.push_back(ni);
                }
            }
        }
        Ok(())
    }

    /// One machine transition on the achievable pair `pid`.
    fn step(&self, state: &MachineState, nfa: &Nfa<Name>, pid: usize) -> MachineState {
        let pair = &self.pairs[pid];
        // DTD production part.
        let mut dtd = BTreeSet::new();
        for &q in &state.dtd {
            for (sym, q2) in &nfa.transitions[q] {
                if sym == &pair.label {
                    dtd.insert(*q2);
                }
            }
        }
        // Sequence acceptors.
        let mut seqs = Vec::with_capacity(self.seqs.len());
        for (k, seq) in self.seqs.iter().enumerate() {
            let n = seq.members.len();
            let mut next = BTreeSet::new();
            for &s in &state.seqs[k] {
                if s == n {
                    next.insert(n); // trailing Σ*
                    continue;
                }
                // Gap self-loop: leading Σ* at 0, or →* gaps.
                if s == 0 || seq.ops[s - 1] == SeqOp::Following {
                    next.insert(s);
                }
                // Advance when the symbol's type matches the member.
                if pair.typ.get(seq.members[s]) {
                    next.insert(s + 1);
                }
            }
            seqs.push(next);
        }
        // Seen SubtreeMatch components.
        let mut seen = state.seen.clone();
        seen.or_assign(&pair.typ);
        // Only the SubtreeMatch range matters for `seen`; NodeMatch bits of
        // children are harmless to keep (they are never read from `seen`).
        MachineState { dtd, seqs, seen }
    }

    /// The type induced at an ℓ-labelled node whose children produced
    /// machine state `state`.
    fn induced_type(&self, label: &Name, state: &MachineState) -> Bits {
        let mut typ = Bits::new(self.n_comps);
        let arity = self.dtd.arity(label);
        for (pid, node) in self.nodes.iter().enumerate() {
            // An empty variable tuple imposes no arity requirement
            // (mirrors `eval`; see the comment there).
            if !node.label.accepts(label) || (node.arity != 0 && node.arity != arity) {
                continue;
            }
            let all_items = node.items.iter().all(|item| match item {
                ItemC::Desc(sub) => state.seen.get(self.subtree_bit[sub]),
                ItemC::Seq(k) => {
                    let n = self.seqs[*k].members.len();
                    state.seqs[*k].contains(&n)
                }
            });
            if all_items {
                typ.set(pid);
            }
        }
        // SubtreeMatch: here or in some child's subtree.
        for (&pid, &bit) in &self.subtree_bit {
            if typ.get(pid) || state.seen.get(bit) {
                typ.set(bit);
            }
        }
        typ
    }

    /// All achievable root match sets `J` (indices into the input pattern
    /// list), each with a witness document conforming to the DTD. Every
    /// attribute of the witness carries the same constant, so implicit
    /// equalities in patterns are always satisfied.
    pub fn root_match_sets(&mut self) -> Result<Vec<(BTreeSet<usize>, Tree)>, BudgetExceeded> {
        self.run()?;
        let mut out: Vec<(BTreeSet<usize>, Tree)> = Vec::new();
        let mut seen: BTreeSet<BTreeSet<usize>> = BTreeSet::new();
        for (id, info) in self.pairs.iter().enumerate() {
            if &info.label != self.dtd.root() {
                continue;
            }
            let set: BTreeSet<usize> = self
                .roots
                .iter()
                .enumerate()
                .filter(|(_, &pid)| info.typ.get(pid))
                .map(|(i, _)| i)
                .collect();
            if seen.insert(set.clone()) {
                out.push((set, self.build_witness(id)));
            }
        }
        Ok(out)
    }

    /// Is there a `T ⊨ D` matching **all** input patterns at the root?
    /// Returns a witness. (Lemma 4.1 is the single-pattern case.)
    pub fn satisfiable_conj(&mut self) -> Result<Option<Tree>, BudgetExceeded> {
        let n = self.roots.len();
        let sets = self.root_match_sets()?;
        Ok(sets
            .into_iter()
            .find(|(set, _)| set.len() == n)
            .map(|(_, tree)| tree))
    }

    /// Total machine states explored so far (diagnostics for benches).
    pub fn states_explored(&self) -> usize {
        self.states_explored
    }

    fn build_witness(&self, pair_id: usize) -> Tree {
        fn attach(engine: &TypeEngine<'_>, tree: &mut Tree, at: xmlmap_trees::NodeId, pid: usize) {
            for &child in &engine.pairs[pid].word {
                let info = &engine.pairs[child];
                let node = tree.add_child(
                    at,
                    info.label.clone(),
                    engine
                        .dtd
                        .attrs(&info.label)
                        .iter()
                        .map(|a| (a.clone(), Value::str("d"))),
                );
                attach(engine, tree, node, child);
            }
        }
        let info = &self.pairs[pair_id];
        let mut tree = Tree::with_root_attrs(
            info.label.clone(),
            self.dtd
                .attrs(&info.label)
                .iter()
                .map(|a| (a.clone(), Value::str("d"))),
        );
        attach(self, &mut tree, Tree::ROOT, pair_id);
        tree
    }
}

/// Reference oracle for [`crate::sat::satisfiable`].
pub fn satisfiable(
    dtd: &Dtd,
    pattern: &Pattern,
    budget: usize,
) -> Result<Option<Tree>, BudgetExceeded> {
    TypeEngine::new(dtd, &[pattern], budget).satisfiable_conj()
}

/// Reference oracle for [`crate::sat::satisfiable_all`].
pub fn satisfiable_all(
    dtd: &Dtd,
    patterns: &[&Pattern],
    budget: usize,
) -> Result<Option<Tree>, BudgetExceeded> {
    TypeEngine::new(dtd, patterns, budget).satisfiable_conj()
}

/// Reference oracle for [`crate::sat::achievable_match_sets`].
pub fn achievable_match_sets(
    dtd: &Dtd,
    patterns: &[&Pattern],
    budget: usize,
) -> Result<Vec<(BTreeSet<usize>, Tree)>, BudgetExceeded> {
    TypeEngine::new(dtd, patterns, budget).root_match_sets()
}
