//! The compiled hedge-automata engine.
//!
//! Everything here operates on a [`CompiledAutomaton`]: labels interned to
//! dense ids, every rule's horizontal NFA pre-determinized into a flat
//! [`DenseDfa`] table (once per automaton), and all state sets represented
//! as `u64`-word bitsets — the same representation strategy as
//! `xmlmap_patterns::sat_compiled`. On top of that substrate:
//!
//! * **Membership** simulates each rule's DFA with a bitset subset of DFA
//!   states per node (positions of the child word range over child state
//!   *sets*, so determinism in the word alphabet still leaves a subset in
//!   the DFA), pruning dead DFA states as it goes.
//! * **Emptiness/witness** runs a dependency-driven worklist over rules:
//!   a rule is re-examined only when a vertical state its DFA actually
//!   reads becomes inhabited, and each examination is a BFS over the flat
//!   DFA table instead of an NFA re-simulation.
//! * **Product** never materializes the `n₁·n₂` pair space: a fixpoint
//!   discovers the *inhabited* pairs, per-(label, rule, rule) machines walk
//!   the product of the two pre-determinized DFAs over inhabited-pair
//!   symbols, and the output automaton's states are exactly the inhabited
//!   pairs (any state occurring in any run is realized by its subtree, so
//!   the restriction preserves the language).
//! * **Inclusion** `L(A) ⊆ L(B)` keeps the classic realizable-pairs least
//!   fixpoint but with machine states `(q_A, S_B)` where `q_A` is a single
//!   pre-determinized A-DFA state and `S_B` concatenates per-B-rule DFA
//!   subsets into one hash-consed bitset. Realizable pairs are pruned to an
//!   *antichain*: per A-state, only ⊆-minimal B-subsets are kept alive
//!   (stepping and emission are monotone in `S_B` and the counterexample
//!   condition is downward-closed, so minimal elements decide the verdict);
//!   subsumed pairs are retired in place so already-recorded witness words
//!   stay valid. Machines are re-expanded only via a dependency worklist
//!   (an A-rule wakes only for pairs whose A-state its DFA reads), carry
//!   persistent frontiers across rounds (settled states catch up on new
//!   pairs; fresh states settle against all pairs), and large frontiers fan
//!   out over `xmlmap_par` with a deterministic sequential merge.

use crate::hedge::{HedgeAutomaton, Rule};
use crate::inclusion::InclusionBudgetExceeded;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use xmlmap_codec::{CodecError, Decoder, Encoder};
use xmlmap_dtd::content::{get_bit, set_bit};
use xmlmap_regex::{DenseDfa, Determinizer, FastHashMap, FastHashSet, Nfa};
use xmlmap_trees::{Name, NodeId, Tree};

/// Flat-table serialization of a [`DenseDfa`]; all fields are public in
/// `xmlmap_regex`, so the codec lives here next to its only consumer.
fn encode_dense_dfa(dfa: &DenseDfa, e: &mut Encoder) {
    e.usize(dfa.num_symbols);
    e.usize(dfa.num_states);
    e.u32s(&dfa.delta);
    e.bools(&dfa.accepting);
    e.bools(&dfa.live);
    e.u32s(&dfa.used_symbols);
}

/// Inverse of [`encode_dense_dfa`] for a horizontal over `num_symbols`
/// vertical states. Rejects every table the engine could index out of
/// range with: no states (every search starts at state 0), another symbol
/// count (a step would read outside its row), or a size that overflows.
fn decode_dense_dfa(d: &mut Decoder<'_>, num_symbols: usize) -> Result<DenseDfa, CodecError> {
    if d.usize()? != num_symbols {
        return Err(CodecError::Malformed("DenseDfa symbol count"));
    }
    let num_states = d.usize()?;
    let delta = d.u32s()?;
    let accepting = d.bools()?;
    let live = d.bools()?;
    let used_symbols = d.u32s()?;
    if num_states == 0
        || num_symbols.checked_mul(num_states) != Some(delta.len())
        || accepting.len() != num_states
        || live.len() != num_states
        || delta.iter().any(|&t| t as usize >= num_states)
        || used_symbols.iter().any(|&s| s as usize >= num_symbols)
    {
        return Err(CodecError::Malformed("DenseDfa tables"));
    }
    Ok(DenseDfa {
        num_symbols,
        num_states,
        delta,
        accepting,
        live,
        used_symbols,
    })
}

/// Minimum machines in a round before the frontier fans out over threads.
const PAR_MACHINE_GATE: usize = 4;
/// Minimum total machines before parallelism is considered at all (tiny
/// instances never pay thread overhead).
const PAR_TOTAL_GATE: usize = 16;

/// Machine-state count up to which an [`IncMachine`] probes its interned
/// states by linear scan instead of allocating a hash index (see
/// `IncMachine::index`).
const LINEAR_SCAN_MAX: usize = 16;

/// Calls `f` with the index of every set bit.
#[inline]
fn for_each_bit(bits: &[u64], mut f: impl FnMut(usize)) {
    for (w, &word) in bits.iter().enumerate() {
        let mut x = word;
        while x != 0 {
            let b = x.trailing_zeros() as usize;
            f(w * 64 + b);
            x &= x - 1;
        }
    }
}

/// `x ⊆ y`, bitwise.
#[inline]
fn is_subset(x: &[u64], y: &[u64]) -> bool {
    x.iter().zip(y).all(|(&a, &b)| a & !b == 0)
}

#[inline]
fn is_disjoint(x: &[u64], y: &[u64]) -> bool {
    x.iter().zip(y).all(|(&a, &b)| a & b == 0)
}

/// Content hash of a bitset, for hash-bucketed interning against a flat
/// arena (avoids boxing a key per probe). Same fold as
/// [`xmlmap_regex::hash::FastHasher`].
#[inline]
fn hash64(bits: &[u64]) -> u64 {
    let mut h = 0u64;
    for &w in bits {
        h = (h.rotate_left(5) ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    h
}

/// One rule of a compiled automaton: the assigned vertical state and the
/// pre-determinized horizontal DFA over vertical-state symbols.
pub(crate) struct CompiledRule {
    pub(crate) state: u32,
    pub(crate) dfa: DenseDfa,
}

/// A [`HedgeAutomaton`] compiled for the engine: dense label ids, rules
/// grouped by label, horizontals determinized, accepting states as a mask.
pub(crate) struct CompiledAutomaton {
    pub(crate) num_states: usize,
    pub(crate) state_words: usize,
    pub(crate) labels: Vec<Name>,
    label_id: HashMap<Name, u32>,
    /// Rules grouped by dense label id.
    pub(crate) rules: Vec<Vec<CompiledRule>>,
    pub(crate) accepting: Vec<bool>,
    pub(crate) accepting_mask: Box<[u64]>,
}

impl CompiledAutomaton {
    /// Compiles `h` over the given label universe; rules on labels outside
    /// `alphabet` are dropped (reference semantics: such trees are outside
    /// the compared universe).
    pub(crate) fn new(h: &HedgeAutomaton, alphabet: &[Name]) -> CompiledAutomaton {
        let label_id: HashMap<&Name, usize> =
            alphabet.iter().enumerate().map(|(i, l)| (l, i)).collect();
        let mut rules: Vec<Vec<CompiledRule>> = alphabet.iter().map(|_| Vec::new()).collect();
        let mut det = Determinizer::new();
        for r in &h.rules {
            if let Some(&lid) = label_id.get(&r.label) {
                rules[lid].push(CompiledRule {
                    state: r.state as u32,
                    dfa: det.run(&r.horizontal, h.num_states),
                });
            }
        }
        CompiledAutomaton::with_tables(alphabet, rules, h.accepting.clone())
    }

    /// Assembles an automaton from its rule tables (grouped by the label
    /// ids of `alphabet`) and accepting states, deriving the lookup map and
    /// the accepting mask.
    fn with_tables(
        alphabet: &[Name],
        rules: Vec<Vec<CompiledRule>>,
        accepting: Vec<bool>,
    ) -> CompiledAutomaton {
        let num_states = accepting.len();
        let state_words = num_states.div_ceil(64).max(1);
        let mut accepting_mask = vec![0u64; state_words].into_boxed_slice();
        for (q, &acc) in accepting.iter().enumerate() {
            if acc {
                set_bit(&mut accepting_mask, q);
            }
        }
        CompiledAutomaton {
            num_states,
            state_words,
            labels: alphabet.to_vec(),
            label_id: alphabet
                .iter()
                .enumerate()
                .map(|(i, l)| (l.clone(), i as u32))
                .collect(),
            rules,
            accepting,
            accepting_mask,
        }
    }

    /// Compiles over the automaton's own rule labels (first-seen order).
    pub(crate) fn from_hedge(h: &HedgeAutomaton) -> CompiledAutomaton {
        let mut alphabet: Vec<Name> = Vec::new();
        let mut seen: HashSet<&Name> = HashSet::new();
        for r in &h.rules {
            if seen.insert(&r.label) {
                alphabet.push(r.label.clone());
            }
        }
        CompiledAutomaton::new(h, &alphabet)
    }

    /// Serializes the vertical state count, every rule's determinized
    /// DFA and the accepting states — the determinized DFAs are the
    /// expensive part of [`CompiledAutomaton::new`] and come back without
    /// re-running subset construction. The label universe is not written:
    /// the decoder is handed it.
    pub(crate) fn encode(&self, e: &mut Encoder) {
        e.usize(self.num_states);
        for rules in &self.rules {
            e.usize(rules.len());
            for r in rules {
                e.u32(r.state);
                encode_dense_dfa(&r.dfa, e);
            }
        }
        e.bools(&self.accepting);
    }

    /// Inverse of [`CompiledAutomaton::encode`] over the label universe
    /// the automaton was compiled with; the label-id map and the accepting
    /// mask are rebuilt.
    pub(crate) fn decode(
        d: &mut Decoder<'_>,
        alphabet: &[Name],
    ) -> Result<CompiledAutomaton, CodecError> {
        let num_states = d.usize()?;
        if num_states > d.remaining() {
            return Err(CodecError::Truncated);
        }
        let rules: Vec<Vec<CompiledRule>> = alphabet
            .iter()
            .map(|_| {
                let n = d.usize()?;
                if n > d.remaining() {
                    return Err(CodecError::Truncated);
                }
                (0..n)
                    .map(|_| {
                        let state = d.u32()?;
                        if state as usize >= num_states {
                            return Err(CodecError::Malformed("rule state out of range"));
                        }
                        Ok(CompiledRule {
                            state,
                            dfa: decode_dense_dfa(d, num_states)?,
                        })
                    })
                    .collect()
            })
            .collect::<Result<_, _>>()?;
        let accepting = d.bools()?;
        if accepting.len() != num_states {
            return Err(CodecError::Malformed("CompiledAutomaton acceptance"));
        }
        Ok(CompiledAutomaton::with_tables(alphabet, rules, accepting))
    }

    /// Approximate heap footprint in bytes (label tables plus every
    /// rule's determinized DFA).
    pub(crate) fn approx_bytes(&self) -> u64 {
        self.labels
            .iter()
            .map(|l| 2 * l.as_str().len() as u64 + 40)
            .sum::<u64>()
            + self
                .rules
                .iter()
                .flat_map(|rs| rs.iter())
                .map(|r| r.dfa.approx_bytes() + 8)
                .sum::<u64>()
            + self.accepting.len() as u64
            + self.accepting_mask.len() as u64 * 8
    }

    /// Does the automaton accept `tree`?
    pub(crate) fn accepts(&self, tree: &Tree) -> bool {
        let words = self.state_words;
        let mut sets: HashMap<NodeId, Box<[u64]>> = HashMap::new();
        let order: Vec<NodeId> = tree.nodes().collect();
        for &node in order.iter().rev() {
            let mut states = vec![0u64; words].into_boxed_slice();
            if let Some(&lid) = self.label_id.get(tree.label(node)) {
                let child_sets: Vec<&[u64]> = tree
                    .children(node)
                    .iter()
                    .map(|c| sets[c].as_ref())
                    .collect();
                for rule in &self.rules[lid as usize] {
                    if run_word(&rule.dfa, &child_sets) {
                        set_bit(&mut states, rule.state as usize);
                    }
                }
            }
            sets.insert(node, states);
        }
        !is_disjoint(&sets[&Tree::ROOT], &self.accepting_mask)
    }

    /// Emptiness with witness extraction over the compiled tables.
    pub(crate) fn witness(&self) -> Option<Tree> {
        let mut inhabited = vec![0u64; self.state_words];
        // builder[q] = (label id, rule index within label, child word).
        let mut builder: Vec<Option<(u32, usize, Vec<u32>)>> = vec![None; self.num_states];

        // Global rule list + dependency lists: a rule is re-examined only
        // when a symbol its DFA reads becomes inhabited.
        let all_rules: Vec<(u32, usize)> = self
            .rules
            .iter()
            .enumerate()
            .flat_map(|(lid, rs)| (0..rs.len()).map(move |ri| (lid as u32, ri)))
            .collect();
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); self.num_states];
        for (gi, &(lid, ri)) in all_rules.iter().enumerate() {
            for &s in &self.rules[lid as usize][ri].dfa.used_symbols {
                dependents[s as usize].push(gi);
            }
        }
        let mut in_queue = vec![true; all_rules.len()];
        let mut queue: std::collections::VecDeque<usize> = (0..all_rules.len()).collect();
        while let Some(gi) = queue.pop_front() {
            in_queue[gi] = false;
            let (lid, ri) = all_rules[gi];
            let rule = &self.rules[lid as usize][ri];
            if get_bit(&inhabited, rule.state as usize) {
                continue;
            }
            if let Some(word) = shortest_dfa_word(&rule.dfa, &inhabited) {
                set_bit(&mut inhabited, rule.state as usize);
                builder[rule.state as usize] = Some((lid, ri, word));
                for &dep in &dependents[rule.state as usize] {
                    if !in_queue[dep] {
                        in_queue[dep] = true;
                        queue.push_back(dep);
                    }
                }
            }
        }

        let root_state =
            (0..self.num_states).find(|&q| self.accepting[q] && get_bit(&inhabited, q))?;

        fn build(
            a: &CompiledAutomaton,
            builder: &[Option<(u32, usize, Vec<u32>)>],
            state: usize,
            tree: &mut Tree,
            at: Option<NodeId>,
        ) {
            let (lid, _, word) = builder[state]
                .as_ref()
                .expect("inhabited state has builder");
            let node = match at {
                None => Tree::ROOT, // the root label is set by the caller
                Some(p) => tree.add_elem(p, a.labels[*lid as usize].clone()),
            };
            for &child_state in word {
                build(a, builder, child_state as usize, tree, Some(node));
            }
        }

        let (lid, _, _) = builder[root_state].as_ref().unwrap();
        let mut tree = Tree::new(self.labels[*lid as usize].clone());
        build(self, &builder, root_state, &mut tree, None);
        Some(tree)
    }
}

/// DFA-subset simulation where word position `i` may be any symbol from
/// `child_sets[i]`; dead DFA states are pruned eagerly.
fn run_word(dfa: &DenseDfa, child_sets: &[&[u64]]) -> bool {
    if !dfa.live[0] {
        return false;
    }
    let dwords = dfa.num_states.div_ceil(64).max(1);
    let mut cur = vec![0u64; dwords];
    cur[0] = 1;
    let mut next = vec![0u64; dwords];
    for cs in child_sets {
        next.iter_mut().for_each(|w| *w = 0);
        let mut any = false;
        for_each_bit(&cur, |q| {
            for_each_bit(cs, |s| {
                let t = dfa.step(q as u32, s as u32) as usize;
                if dfa.live[t] {
                    set_bit(&mut next, t);
                    any = true;
                }
            });
        });
        if !any {
            return false;
        }
        std::mem::swap(&mut cur, &mut next);
    }
    let mut accepted = false;
    for_each_bit(&cur, |q| accepted |= dfa.accepting[q]);
    accepted
}

/// A shortest word of `dfa` using only symbols in the `allowed` bitset
/// (BFS over the flat table, with predecessor tracking).
fn shortest_dfa_word(dfa: &DenseDfa, allowed: &[u64]) -> Option<Vec<u32>> {
    if dfa.accepting[0] {
        return Some(Vec::new());
    }
    if !dfa.live[0] {
        return None;
    }
    let mut pred: Vec<(u32, u32)> = vec![(u32::MAX, u32::MAX); dfa.num_states];
    let mut seen = vec![false; dfa.num_states];
    seen[0] = true;
    let mut queue = std::collections::VecDeque::from([0u32]);
    while let Some(q) = queue.pop_front() {
        for &s in &dfa.used_symbols {
            if !get_bit(allowed, s as usize) {
                continue;
            }
            let t = dfa.step(q, s) as usize;
            if !seen[t] && dfa.live[t] {
                seen[t] = true;
                pred[t] = (q, s);
                if dfa.accepting[t] {
                    let mut word = Vec::new();
                    let mut cur = t;
                    while pred[cur].0 != u32::MAX {
                        let (p, sym) = pred[cur];
                        word.push(sym);
                        cur = p as usize;
                    }
                    word.reverse();
                    return Some(word);
                }
                queue.push_back(t as u32);
            }
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Product
// ---------------------------------------------------------------------------

/// One (label, a-rule, b-rule) machine: the reachable product of the two
/// pre-determinized DFAs over inhabited-pair symbols. Frontiers persist
/// across rounds: `settled` states have been stepped on pairs
/// `0..caught_up`; fresh states settle against everything.
struct ProdMachine {
    lid: u32,
    ra: usize,
    rb: usize,
    states: Vec<(u32, u32)>,
    index: FastHashMap<(u32, u32), u32>,
    settled: usize,
    caught_up: usize,
    emitted: bool,
    inert: bool,
}

struct ProdCore {
    a: CompiledAutomaton,
    b: CompiledAutomaton,
    /// Inhabited pairs of vertical states, in discovery order.
    pairs: Vec<(u32, u32)>,
}

fn prod_expand(core: &ProdCore, m: &mut ProdMachine) -> Option<(u32, u32)> {
    if m.inert {
        return None;
    }
    let da = &core.a.rules[m.lid as usize][m.ra].dfa;
    let db = &core.b.rules[m.lid as usize][m.rb].dfa;
    let total = core.pairs.len();

    let step = |m: &mut ProdMachine, si: usize, lo: usize, hi: usize| {
        for pid in lo..hi {
            let (s1, s2) = core.pairs[pid];
            let (qa, qb) = m.states[si];
            let ta = da.step(qa, s1);
            if !da.live[ta as usize] {
                continue;
            }
            let tb = db.step(qb, s2);
            if !db.live[tb as usize] {
                continue;
            }
            if !m.index.contains_key(&(ta, tb)) {
                let ni = m.states.len() as u32;
                m.index.insert((ta, tb), ni);
                m.states.push((ta, tb));
            }
        }
    };

    // Settled states catch up on pairs discovered since last round.
    if m.caught_up < total {
        for si in 0..m.settled {
            step(m, si, m.caught_up, total);
        }
    }
    m.caught_up = total;
    // Fresh states settle against all pairs.
    let mut emit = None;
    while m.settled < m.states.len() {
        let si = m.settled;
        m.settled += 1;
        let (qa, qb) = m.states[si];
        if !m.emitted && da.accepting[qa as usize] && db.accepting[qb as usize] {
            m.emitted = true;
            let sa = core.a.rules[m.lid as usize][m.ra].state;
            let sb = core.b.rules[m.lid as usize][m.rb].state;
            emit = Some((sa, sb));
        }
        step(m, si, 0, total);
    }
    emit
}

/// Product automaton over inhabited pairs only.
pub(crate) fn product(ha: &HedgeAutomaton, hb: &HedgeAutomaton) -> HedgeAutomaton {
    // Shared label universe: labels with rules on both sides (only those
    // can produce product rules or states).
    let hb_labels: HashSet<&Name> = hb.rules.iter().map(|r| &r.label).collect();
    let mut alphabet: Vec<Name> = Vec::new();
    let mut seen: HashSet<&Name> = HashSet::new();
    for r in &ha.rules {
        if hb_labels.contains(&r.label) && seen.insert(&r.label) {
            alphabet.push(r.label.clone());
        }
    }
    let core_a = CompiledAutomaton::new(ha, &alphabet);
    let core_b = CompiledAutomaton::new(hb, &alphabet);

    let mut machines: Vec<Mutex<ProdMachine>> = Vec::new();
    for lid in 0..alphabet.len() {
        for ra in 0..core_a.rules[lid].len() {
            for rb in 0..core_b.rules[lid].len() {
                let da = &core_a.rules[lid][ra].dfa;
                let db = &core_b.rules[lid][rb].dfa;
                let inert = !da.live[0] || !db.live[0];
                machines.push(Mutex::new(ProdMachine {
                    lid: lid as u32,
                    ra,
                    rb,
                    states: vec![(0, 0)],
                    index: FastHashMap::from_iter([((0, 0), 0)]),
                    settled: 0,
                    caught_up: 0,
                    emitted: false,
                    inert,
                }));
            }
        }
    }
    // Wake lists: machine `mi` cares about pair (s1, s2) iff its A-DFA
    // reads s1 and its B-DFA reads s2 (everything else steps to a dead
    // sink and is pruned anyway).
    type UsedMasks = (Box<[u64]>, Box<[u64]>);
    let used: Vec<UsedMasks> = machines
        .iter()
        .map(|m| {
            let m = m.lock().unwrap();
            let da = &core_a.rules[m.lid as usize][m.ra].dfa;
            let db = &core_b.rules[m.lid as usize][m.rb].dfa;
            let mut ua = vec![0u64; core_a.state_words].into_boxed_slice();
            for &s in &da.used_symbols {
                set_bit(&mut ua, s as usize);
            }
            let mut ub = vec![0u64; core_b.state_words].into_boxed_slice();
            for &s in &db.used_symbols {
                set_bit(&mut ub, s as usize);
            }
            (ua, ub)
        })
        .collect();

    let mut core = ProdCore {
        a: core_a,
        b: core_b,
        pairs: Vec::new(),
    };
    let mut pair_index: FastHashMap<(u32, u32), u32> = FastHashMap::default();
    let mut dirty: Vec<bool> = vec![true; machines.len()];
    loop {
        let dirty_idx: Vec<usize> = (0..machines.len()).filter(|&i| dirty[i]).collect();
        if dirty_idx.is_empty() {
            break;
        }
        for &i in &dirty_idx {
            dirty[i] = false;
        }
        let gate = machines.len() >= PAR_TOTAL_GATE && dirty_idx.len() >= PAR_MACHINE_GATE;
        let emissions: Vec<Option<(u32, u32)>> =
            xmlmap_par::par_map_gated(&dirty_idx, gate, |&mi| {
                prod_expand(&core, &mut machines[mi].lock().unwrap())
            });
        for pair in emissions.into_iter().flatten() {
            if pair_index.contains_key(&pair) {
                continue;
            }
            pair_index.insert(pair, core.pairs.len() as u32);
            core.pairs.push(pair);
            for (mi, (ua, ub)) in used.iter().enumerate() {
                if get_bit(ua, pair.0 as usize) && get_bit(ub, pair.1 as usize) {
                    dirty[mi] = true;
                }
            }
        }
    }

    // Materialize: states are the inhabited pairs; each emitting machine
    // becomes one rule whose horizontal is its explored DFA product.
    let num_states = core.pairs.len();
    let mut accepting = vec![false; num_states];
    for (pid, &(q1, q2)) in core.pairs.iter().enumerate() {
        accepting[pid] = core.a.accepting[q1 as usize] && core.b.accepting[q2 as usize];
    }
    let mut rules = Vec::new();
    for m in &machines {
        let m = m.lock().unwrap();
        if !m.emitted {
            continue;
        }
        let da = &core.a.rules[m.lid as usize][m.ra].dfa;
        let db = &core.b.rules[m.lid as usize][m.rb].dfa;
        let mut transitions: Vec<Vec<(usize, usize)>> = vec![Vec::new(); m.states.len()];
        let mut horizontal_accepting = vec![false; m.states.len()];
        for (si, &(qa, qb)) in m.states.iter().enumerate() {
            horizontal_accepting[si] = da.accepting[qa as usize] && db.accepting[qb as usize];
            for (pid, &(s1, s2)) in core.pairs.iter().enumerate() {
                let ta = da.step(qa, s1);
                if !da.live[ta as usize] {
                    continue;
                }
                let tb = db.step(qb, s2);
                if !db.live[tb as usize] {
                    continue;
                }
                // The fixpoint settled every state against every pair, so
                // the target is always interned.
                let target = m.index[&(ta, tb)];
                transitions[si].push((pid, target as usize));
            }
        }
        let sa = core.a.rules[m.lid as usize][m.ra].state;
        let sb = core.b.rules[m.lid as usize][m.rb].state;
        rules.push(Rule {
            label: core.a.labels[m.lid as usize].clone(),
            state: pair_index[&(sa, sb)] as usize,
            horizontal: Nfa {
                num_states: m.states.len(),
                accepting: horizontal_accepting,
                transitions,
            },
        });
    }
    HedgeAutomaton {
        num_states,
        rules,
        accepting,
    }
}

// ---------------------------------------------------------------------------
// Inclusion
// ---------------------------------------------------------------------------

/// A realizable pair: A-state `qa` reached on some tree whose deterministic
/// B-subset is `sb` (an id into the hash-consed set arena), with the child
/// realisation recorded for counterexample reconstruction. `retired` pairs
/// were subsumed by a ⊆-smaller `sb` for the same `qa`; they stay in the
/// arena (their words may back later witnesses) but are no longer stepped.
struct IncPair {
    lid: u32,
    qa: u32,
    sb: u32,
    word: Vec<u32>,
    retired: bool,
}

/// Bit layout of the concatenated per-B-rule DFA subsets for one label.
struct BLayout {
    /// Start bit of each B-rule's block.
    offsets: Vec<usize>,
    /// Words per machine-state B-part.
    words: usize,
    /// Block index owning each bit.
    bit_block: Vec<u32>,
    /// Accepting DFA states of all blocks (for emission), concatenated;
    /// block `blk` owns `acc_flat[acc_ranges[blk]..acc_ranges[blk + 1]]`.
    acc_flat: Vec<u32>,
    acc_ranges: Vec<u32>,
}

struct IncCore<'x> {
    a: &'x CompiledAutomaton,
    b: &'x CompiledAutomaton,
    layouts: Vec<BLayout>,
    /// Hash-consed `S_B` bitsets over B's vertical states.
    sb_sets: Vec<Box<[u64]>>,
    pairs: Vec<IncPair>,
}

/// One (label, a-rule) machine of the inclusion fixpoint.
struct IncMachine {
    lid: u32,
    ri: usize,
    /// A-DFA state per machine state.
    a_states: Vec<u32>,
    /// Flat B-parts, `layout.words` words per machine state.
    b_bits: Vec<u64>,
    /// Hash-bucketed interning of `(A-state, B-part)` machine states:
    /// candidates under `(a_state, hash64(b_part))` are confirmed by
    /// comparing against `b_bits` — no per-probe key allocation. Built
    /// lazily: while the machine has at most [`LINEAR_SCAN_MAX`] states
    /// (the common case on realistic schemas) it stays empty and probes
    /// scan the arena directly, so tiny machines never touch a hash table.
    index: FastHashMap<(u32, u64), Vec<u32>>,
    /// `(previous machine state, pair id)`; `u32::MAX` marks the root.
    parent: Vec<(u32, u32)>,
    settled: usize,
    caught_up: usize,
    /// B-subsets already emitted by this machine.
    emitted: FastHashSet<Box<[u64]>>,
    inert: bool,
}

/// A candidate realizable pair produced by one machine during a round.
struct IncCandidate {
    lid: u32,
    qa: u32,
    sb_bits: Box<[u64]>,
    word: Vec<u32>,
}

fn inc_expand(
    core: &IncCore,
    m: &mut IncMachine,
    budget: usize,
    explored: &AtomicUsize,
) -> Result<Vec<IncCandidate>, InclusionBudgetExceeded> {
    let mut out = Vec::new();
    if m.inert {
        return Ok(out);
    }
    let rule = &core.a.rules[m.lid as usize][m.ri];
    let layout = &core.layouts[m.lid as usize];
    let b_rules = &core.b.rules[m.lid as usize];
    let bw = layout.words;
    let total = core.pairs.len();

    // Scratch buffers reused across every step of this call: `src` snapshots
    // the source B-part (the arena may grow mid-step), `nb` accumulates the
    // successor B-part before it is (rarely) interned.
    let mut src = vec![0u64; bw];
    let mut nb = vec![0u64; bw];
    let mut step = |m: &mut IncMachine, si: usize, lo: usize, hi: usize| {
        // Loop-invariant across the pair sweep: the source state's A-part
        // and a snapshot of its B-part (the arena may grow mid-sweep).
        let qa_src = m.a_states[si];
        src.copy_from_slice(&m.b_bits[si * bw..(si + 1) * bw]);
        // `nb` depends only on `(si, p.sb)` — not on `p.qa` — so it is
        // recomputed only when the swept pair's S_B changes.
        let mut nb_sb = u32::MAX;
        for pid in lo..hi {
            let p = &core.pairs[pid];
            if p.retired {
                continue;
            }
            let ta = rule.dfa.step(qa_src, p.qa);
            if !rule.dfa.live[ta as usize] {
                continue;
            }
            if p.sb != nb_sb {
                nb_sb = p.sb;
                let sb = &core.sb_sets[p.sb as usize];
                nb.fill(0);
                for_each_bit(&src, |bit| {
                    let blk = layout.bit_block[bit] as usize;
                    let q = (bit - layout.offsets[blk]) as u32;
                    let dfa = &b_rules[blk].dfa;
                    for_each_bit(sb, |s| {
                        let t = dfa.step(q, s as u32) as usize;
                        // Dead B-DFA states never accept, so dropping them
                        // cannot change any emitted S_B.
                        if dfa.live[t] {
                            set_bit(&mut nb, layout.offsets[blk] + t);
                        }
                    });
                });
            }
            let known = if m.index.is_empty() {
                (0..m.a_states.len())
                    .any(|c| m.a_states[c] == ta && m.b_bits[c * bw..(c + 1) * bw] == nb[..])
            } else {
                m.index.get(&(ta, hash64(&nb))).is_some_and(|cands| {
                    cands.iter().any(|&c| {
                        let base = c as usize * bw;
                        m.b_bits[base..base + bw] == nb[..]
                    })
                })
            };
            if !known {
                let ni = m.a_states.len() as u32;
                m.a_states.push(ta);
                m.b_bits.extend_from_slice(&nb);
                m.parent.push((si as u32, pid as u32));
                if !m.index.is_empty() {
                    m.index.entry((ta, hash64(&nb))).or_default().push(ni);
                } else if m.a_states.len() > LINEAR_SCAN_MAX {
                    // Crossed the threshold: build the index for every
                    // state interned so far; maintained incrementally after.
                    for c in 0..m.a_states.len() {
                        let h = hash64(&m.b_bits[c * bw..(c + 1) * bw]);
                        m.index
                            .entry((m.a_states[c], h))
                            .or_default()
                            .push(c as u32);
                    }
                }
            }
        }
    };

    // Settled states catch up on pairs discovered since last round.
    if m.caught_up < total {
        for si in 0..m.settled {
            step(m, si, m.caught_up, total);
        }
    }
    m.caught_up = total;
    // Fresh states settle against all pairs (and may emit).
    while m.settled < m.a_states.len() {
        let si = m.settled;
        m.settled += 1;
        let n = explored.fetch_add(1, Ordering::Relaxed) + 1;
        if n > budget {
            return Err(InclusionBudgetExceeded {
                budget,
                states_explored: n,
                operation: "inclusion check".into(),
            });
        }
        if rule.dfa.accepting[m.a_states[si] as usize] {
            // Complete word: the deterministic B-subset is the set of
            // B-states whose rule accepts along it.
            let mut sb = vec![0u64; core.b.state_words].into_boxed_slice();
            for (blk, br) in b_rules.iter().enumerate() {
                let base = si * bw;
                let accs = &layout.acc_flat
                    [layout.acc_ranges[blk] as usize..layout.acc_ranges[blk + 1] as usize];
                if accs
                    .iter()
                    .any(|&q| get_bit(&m.b_bits[base..base + bw], layout.offsets[blk] + q as usize))
                {
                    set_bit(&mut sb, br.state as usize);
                }
            }
            if !m.emitted.contains(&sb) {
                m.emitted.insert(sb.clone());
                let mut word = Vec::new();
                let mut cur = si as u32;
                while m.parent[cur as usize].0 != u32::MAX {
                    let (prev, pid) = m.parent[cur as usize];
                    word.push(pid);
                    cur = prev;
                }
                word.reverse();
                out.push(IncCandidate {
                    lid: m.lid,
                    qa: rule.state,
                    sb_bits: sb,
                    word,
                });
            }
        }
        step(m, si, 0, total);
    }
    Ok(out)
}

/// Decides `L(a) ⊆ L(b)` over the compiled automata (which must share a
/// label universe — compile both with the same `alphabet`).
pub(crate) fn inclusion(
    a: &CompiledAutomaton,
    b: &CompiledAutomaton,
    budget: usize,
) -> Result<Option<Tree>, InclusionBudgetExceeded> {
    // Per-label layout of the concatenated B-subset bitsets.
    let layouts: Vec<BLayout> = b
        .rules
        .iter()
        .map(|b_rules| {
            let mut offsets = Vec::with_capacity(b_rules.len());
            let mut bit_block = Vec::new();
            let mut acc_flat = Vec::new();
            let mut acc_ranges = Vec::with_capacity(b_rules.len() + 1);
            acc_ranges.push(0);
            let mut bits = 0usize;
            for (blk, r) in b_rules.iter().enumerate() {
                offsets.push(bits);
                bits += r.dfa.num_states;
                bit_block.resize(bits, blk as u32);
                acc_flat
                    .extend((0..r.dfa.num_states as u32).filter(|&q| r.dfa.accepting[q as usize]));
                acc_ranges.push(acc_flat.len() as u32);
            }
            BLayout {
                offsets,
                words: bits.div_ceil(64).max(1),
                bit_block,
                acc_flat,
                acc_ranges,
            }
        })
        .collect();

    let mut machines: Vec<Mutex<IncMachine>> = Vec::new();
    for (lid, a_rules) in a.rules.iter().enumerate() {
        for (ri, rule) in a_rules.iter().enumerate() {
            let layout = &layouts[lid];
            let inert = !rule.dfa.live[0];
            // Initial B-part: every B-rule's DFA at its start state
            // (dead starts pruned — those rules can never accept).
            let mut b0 = vec![0u64; layout.words];
            for (blk, br) in b.rules[lid].iter().enumerate() {
                if br.dfa.live[0] {
                    set_bit(&mut b0, layout.offsets[blk]);
                }
            }
            machines.push(Mutex::new(IncMachine {
                lid: lid as u32,
                ri,
                a_states: vec![0],
                b_bits: b0,
                index: FastHashMap::default(),
                parent: vec![(u32::MAX, u32::MAX)],
                settled: 0,
                caught_up: 0,
                emitted: FastHashSet::default(),
                inert,
            }));
        }
    }
    // Wake lists: machine `mi` cares about a new pair iff its A-DFA reads
    // the pair's A-state (other symbols step A to a dead sink).
    let mut deps_a: Vec<Vec<usize>> = vec![Vec::new(); a.num_states];
    for (mi, m) in machines.iter().enumerate() {
        let m = m.lock().unwrap();
        for &s in &a.rules[m.lid as usize][m.ri].dfa.used_symbols {
            deps_a[s as usize].push(mi);
        }
    }

    let mut core = IncCore {
        a,
        b,
        layouts,
        sb_sets: Vec::new(),
        pairs: Vec::new(),
    };
    let mut sb_index: FastHashMap<Box<[u64]>, u32> = FastHashMap::default();
    let mut pair_index: FastHashMap<(u32, u32, u32), u32> = FastHashMap::default();
    // Alive (⊆-minimal) pair ids per A-state.
    let mut antichain: Vec<Vec<u32>> = vec![Vec::new(); a.num_states];
    let mut dirty: Vec<bool> = vec![true; machines.len()];
    let explored = AtomicUsize::new(0);

    loop {
        let dirty_idx: Vec<usize> = (0..machines.len()).filter(|&i| dirty[i]).collect();
        if dirty_idx.is_empty() {
            return Ok(None);
        }
        for &i in &dirty_idx {
            dirty[i] = false;
        }
        let gate = machines.len() >= PAR_TOTAL_GATE && dirty_idx.len() >= PAR_MACHINE_GATE;
        let results: Vec<Result<Vec<IncCandidate>, InclusionBudgetExceeded>> =
            xmlmap_par::par_map_gated(&dirty_idx, gate, |&mi| {
                inc_expand(&core, &mut machines[mi].lock().unwrap(), budget, &explored)
            });
        let mut candidates = Vec::new();
        let mut err: Option<InclusionBudgetExceeded> = None;
        for r in results {
            match r {
                Ok(cs) => candidates.extend(cs),
                Err(e) => match &err {
                    Some(p) if e.states_explored <= p.states_explored => {}
                    _ => err = Some(e),
                },
            }
        }
        if let Some(e) = err {
            return Err(e);
        }

        // Deterministic sequential merge, in machine order.
        for cand in candidates {
            let sb_id = match sb_index.get(&cand.sb_bits) {
                Some(&id) => id,
                None => {
                    let id = core.sb_sets.len() as u32;
                    sb_index.insert(cand.sb_bits.clone(), id);
                    core.sb_sets.push(cand.sb_bits.clone());
                    id
                }
            };
            let key = (cand.lid, cand.qa, sb_id);
            if pair_index.contains_key(&key) {
                continue;
            }
            // Antichain: a pair dominated by an alive ⊆-smaller S_B for
            // the same A-state adds nothing (stepping and emission are
            // monotone in S_B; the counterexample condition is
            // downward-closed, and the dominator was already checked).
            let chain = &mut antichain[cand.qa as usize];
            if chain.iter().any(|&pid| {
                is_subset(
                    &core.sb_sets[core.pairs[pid as usize].sb as usize],
                    &cand.sb_bits,
                )
            }) {
                continue;
            }
            // Retire alive pairs strictly subsumed by the new one.
            let retired: Vec<u32> = chain
                .iter()
                .copied()
                .filter(|&pid| {
                    is_subset(
                        &cand.sb_bits,
                        &core.sb_sets[core.pairs[pid as usize].sb as usize],
                    )
                })
                .collect();
            chain.retain(|pid| !retired.contains(pid));
            for pid in retired {
                core.pairs[pid as usize].retired = true;
            }

            let pid = core.pairs.len() as u32;
            pair_index.insert(key, pid);
            antichain[cand.qa as usize].push(pid);
            let counterexample =
                a.accepting[cand.qa as usize] && is_disjoint(&cand.sb_bits, &b.accepting_mask);
            core.pairs.push(IncPair {
                lid: cand.lid,
                qa: cand.qa,
                sb: sb_id,
                word: cand.word,
                retired: false,
            });
            if counterexample {
                return Ok(Some(build_tree(&core, pid as usize)));
            }
            for &mi in &deps_a[cand.qa as usize] {
                dirty[mi] = true;
            }
        }
    }
}

fn build_tree(core: &IncCore, root: usize) -> Tree {
    fn attach(core: &IncCore, tree: &mut Tree, at: NodeId, id: usize) {
        for &child in &core.pairs[id].word {
            let node = tree.add_elem(
                at,
                core.a.labels[core.pairs[child as usize].lid as usize].clone(),
            );
            attach(core, tree, node, child as usize);
        }
    }
    let mut tree = Tree::new(core.a.labels[core.pairs[root].lid as usize].clone());
    attach(core, &mut tree, Tree::ROOT, root);
    tree
}
