//! Deterministic finite automata over a dense symbol alphabet.
//!
//! The hedge-automata engine (`xmlmap-automata`) determinizes every rule's
//! horizontal language once, into a [`DenseDfa`]: a flat transition table
//! over interned vertical-state ids with a liveness flag per state. A
//! reusable [`Determinizer`] runs the subset construction.

use crate::nfa::Nfa;

/// A determinized, flat-table DFA over the dense symbol alphabet
/// `0..num_symbols` — the export format consumed by the compiled
/// hedge-automata engine (`xmlmap-automata`), where horizontal languages
/// range over interned vertical-state ids.
///
/// The alphabet is implicit (dense `usize` ids), the transition table is
/// a single row-major `Vec<u32>`, and each state carries a *liveness* flag
/// (`live[q]` iff an accepting state is reachable from `q`) so downstream
/// subset constructions can prune dead branches instead of dragging
/// complete-DFA sink states along.
#[derive(Clone, Debug)]
pub struct DenseDfa {
    /// Alphabet size; symbols are `0..num_symbols`.
    pub num_symbols: usize,
    /// Number of DFA states; `0` is the start state.
    pub num_states: usize,
    /// Row-major successor table: `delta[q * num_symbols + s]`.
    pub delta: Vec<u32>,
    /// `accepting[q]` iff `q` is final.
    pub accepting: Vec<bool>,
    /// `live[q]` iff some accepting state is reachable from `q`.
    pub live: Vec<bool>,
    /// Sorted symbols with at least one transition in the source NFA (all
    /// others lead straight to the dead sink from every state).
    pub used_symbols: Vec<u32>,
}

impl DenseDfa {
    /// The successor of state `q` on symbol `s`.
    #[inline]
    pub fn step(&self, q: u32, s: u32) -> u32 {
        self.delta[q as usize * self.num_symbols + s as usize]
    }

    /// Approximate heap footprint in bytes (transition table, flag
    /// vectors, used-symbol list). Feeds the engine caches' memory
    /// accounting; the row-major `delta` dominates. Measured on lengths,
    /// not capacities, so a table decoded from the artifact store counts
    /// the same as the one subset construction built.
    pub fn approx_bytes(&self) -> u64 {
        (self.delta.len() * 4
            + self.accepting.len()
            + self.live.len()
            + self.used_symbols.len() * 4) as u64
    }
}

/// Reusable subset-construction workspace that builds [`DenseDfa`]s.
///
/// Compiling a hedge automaton determinizes one horizontal NFA per rule;
/// with a fresh workspace each call, the fixed allocation cost (intern
/// tables, successor masks, traversal scratch) dominates for the small
/// NFAs typical of DTD productions. One `Determinizer` reused across rules
/// pays it once. NFAs of at most 64 states — the overwhelmingly common
/// case — additionally take a fast path where subset states are plain
/// `u64` keys instead of boxed word slices.
#[derive(Default)]
pub struct Determinizer {
    // Single-word fast path: subsets are bare u64s.
    index1: crate::hash::FastHashMap<u64, u32>,
    sets1: Vec<u64>,
    // General path: subsets are boxed word slices.
    index: crate::hash::FastHashMap<Box<[u64]>, u32>,
    sets: Vec<Box<[u64]>>,
    // Shared scratch.
    succ: Vec<u64>,
    slot_of: Vec<u32>,
    indeg: Vec<u32>,
    fill: Vec<u32>,
    preds: Vec<u32>,
    stack: Vec<u32>,
}

impl Determinizer {
    /// An empty workspace.
    pub fn new() -> Determinizer {
        Determinizer::default()
    }

    /// Determinizes `nfa` over the dense alphabet `0..num_symbols`.
    /// Transitions on symbols `>= num_symbols` are ignored.
    pub fn run(&mut self, nfa: &Nfa<usize>, num_symbols: usize) -> DenseDfa {
        let mut used_symbols: Vec<u32> = nfa
            .transitions
            .iter()
            .flat_map(|ts| ts.iter())
            .filter(|&&(s, _)| s < num_symbols)
            .map(|&(s, _)| s as u32)
            .collect();
        used_symbols.sort_unstable();
        used_symbols.dedup();
        // Symbol → slot in `used_symbols`. Stale entries from a previous
        // run are harmless: only this run's used symbols are ever read.
        self.slot_of.resize(num_symbols, u32::MAX);
        for (slot, &s) in used_symbols.iter().enumerate() {
            self.slot_of[s as usize] = slot as u32;
        }
        let (delta, accepting) = if nfa.num_states <= 64 {
            self.discover1(nfa, num_symbols, &used_symbols)
        } else {
            self.discover(nfa, num_symbols, &used_symbols)
        };
        let live = self.liveness(num_symbols, &used_symbols, &delta, &accepting);
        DenseDfa {
            num_symbols,
            num_states: accepting.len(),
            delta,
            accepting,
            live,
            used_symbols,
        }
    }

    /// Discovery fast path for NFAs of at most 64 states: subsets are
    /// single `u64` words — no allocation anywhere in the hot loop.
    fn discover1(
        &mut self,
        nfa: &Nfa<usize>,
        num_symbols: usize,
        used: &[u32],
    ) -> (Vec<u32>, Vec<bool>) {
        let n = nfa.num_states;
        // succ[slot * n + q] = bitset of q's successors on used[slot], so
        // each subset transition is an OR over the subset's bits.
        self.succ.clear();
        self.succ.resize(used.len() * n, 0);
        for (q, ts) in nfa.transitions.iter().enumerate() {
            for &(s, q2) in ts {
                if s < num_symbols {
                    self.succ[self.slot_of[s] as usize * n + q] |= 1 << q2;
                }
            }
        }
        let mut accept_mask = 0u64;
        for (q, &acc) in nfa.accepting.iter().enumerate() {
            if acc {
                accept_mask |= 1 << q;
            }
        }

        self.index1.clear();
        self.sets1.clear();
        self.sets1.push(1);
        self.index1.insert(1, 0);
        // The dead sink (empty subset) backs every unused symbol; interned
        // lazily so NFAs that never die don't carry it.
        let mut sink: Option<u32> = None;
        let mut delta: Vec<u32> = Vec::new();
        let mut si = 0usize;
        while si < self.sets1.len() {
            let row_base = delta.len();
            delta.resize(row_base + num_symbols, u32::MAX);
            let cur = self.sets1[si];
            for (slot, &s) in used.iter().enumerate() {
                let base = slot * n;
                let mut next = 0u64;
                let mut x = cur;
                while x != 0 {
                    next |= self.succ[base + x.trailing_zeros() as usize];
                    x &= x - 1;
                }
                let to = if next != 0 {
                    match self.index1.get(&next) {
                        Some(&id) => id,
                        None => {
                            let id = self.sets1.len() as u32;
                            self.sets1.push(next);
                            self.index1.insert(next, id);
                            id
                        }
                    }
                } else {
                    *sink.get_or_insert_with(|| {
                        let id = self.sets1.len() as u32;
                        self.sets1.push(0);
                        self.index1.insert(0, id);
                        id
                    })
                };
                delta[row_base + s as usize] = to;
            }
            si += 1;
        }
        // Unused symbols (and the sink's own row) all point at the sink;
        // materialize it only if something needs it.
        if sink.is_none() && delta.contains(&u32::MAX) {
            let id = self.sets1.len() as u32;
            self.sets1.push(0);
            sink = Some(id);
        }
        let num_states = self.sets1.len();
        delta.resize(num_states * num_symbols, u32::MAX);
        if let Some(sk) = sink {
            for slot in delta.iter_mut() {
                if *slot == u32::MAX {
                    *slot = sk;
                }
            }
        }
        let accepting = self.sets1.iter().map(|&s| s & accept_mask != 0).collect();
        (delta, accepting)
    }

    /// General discovery: subset states are `u64`-word slices, hash-consed
    /// so a key is allocated once per discovered state, not per transition.
    fn discover(
        &mut self,
        nfa: &Nfa<usize>,
        num_symbols: usize,
        used: &[u32],
    ) -> (Vec<u32>, Vec<bool>) {
        let n = nfa.num_states;
        let words = n.div_ceil(64);
        self.succ.clear();
        self.succ.resize(used.len() * n * words, 0);
        for (q, ts) in nfa.transitions.iter().enumerate() {
            for &(s, q2) in ts {
                if s < num_symbols {
                    let base = (self.slot_of[s] as usize * n + q) * words;
                    self.succ[base + q2 / 64] |= 1 << (q2 % 64);
                }
            }
        }
        let mut accept_mask = vec![0u64; words];
        for (q, &acc) in nfa.accepting.iter().enumerate() {
            if acc {
                accept_mask[q / 64] |= 1 << (q % 64);
            }
        }

        let mut start = vec![0u64; words].into_boxed_slice();
        start[0] |= 1;
        self.index.clear();
        self.sets.clear();
        self.sets.push(start.clone());
        self.index.insert(start, 0);
        let mut sink: Option<u32> = None;
        let mut delta: Vec<u32> = Vec::new();
        let mut cur = vec![0u64; words];
        let mut next_set = vec![0u64; words];
        let mut si = 0usize;
        while si < self.sets.len() {
            let row_base = delta.len();
            delta.resize(row_base + num_symbols, u32::MAX);
            cur.copy_from_slice(&self.sets[si]);
            for (slot, &s) in used.iter().enumerate() {
                next_set.iter_mut().for_each(|w| *w = 0);
                for (w, &word) in cur.iter().enumerate() {
                    let mut x = word;
                    while x != 0 {
                        let q = w * 64 + x.trailing_zeros() as usize;
                        x &= x - 1;
                        let base = (slot * n + q) * words;
                        for (dst, &src) in next_set.iter_mut().zip(&self.succ[base..base + words]) {
                            *dst |= src;
                        }
                    }
                }
                let to = if next_set.iter().any(|&w| w != 0) {
                    match self.index.get(next_set.as_slice()) {
                        Some(&id) => id,
                        None => {
                            let key: Box<[u64]> = next_set.clone().into_boxed_slice();
                            let id = self.sets.len() as u32;
                            self.sets.push(key.clone());
                            self.index.insert(key, id);
                            id
                        }
                    }
                } else {
                    *sink.get_or_insert_with(|| {
                        let empty: Box<[u64]> = vec![0u64; words].into_boxed_slice();
                        let id = self.sets.len() as u32;
                        self.sets.push(empty.clone());
                        self.index.insert(empty, id);
                        id
                    })
                };
                delta[row_base + s as usize] = to;
            }
            si += 1;
        }
        if sink.is_none() && delta.contains(&u32::MAX) {
            let empty: Box<[u64]> = vec![0u64; words].into_boxed_slice();
            let id = self.sets.len() as u32;
            self.sets.push(empty);
            sink = Some(id);
        }
        let num_states = self.sets.len();
        delta.resize(num_states * num_symbols, u32::MAX);
        if let Some(sk) = sink {
            for slot in delta.iter_mut() {
                if *slot == u32::MAX {
                    *slot = sk;
                }
            }
        }
        let accepting = self
            .sets
            .iter()
            .map(|set| set.iter().zip(&accept_mask).any(|(&a, &b)| a & b != 0))
            .collect();
        (delta, accepting)
    }

    /// Liveness (reverse reachability from accepting states) over a flat
    /// CSR predecessor array — two passes over delta, no per-state Vecs.
    fn liveness(
        &mut self,
        num_symbols: usize,
        used: &[u32],
        delta: &[u32],
        accepting: &[bool],
    ) -> Vec<bool> {
        let num_states = accepting.len();
        self.indeg.clear();
        self.indeg.resize(num_states + 1, 0);
        for q in 0..num_states {
            for &s in used {
                let to = delta[q * num_symbols + s as usize] as usize;
                self.indeg[to + 1] += 1;
            }
        }
        for i in 0..num_states {
            self.indeg[i + 1] += self.indeg[i];
        }
        self.preds.clear();
        self.preds.resize(self.indeg[num_states] as usize, 0);
        self.fill.clear();
        self.fill.extend_from_slice(&self.indeg);
        for q in 0..num_states {
            for &s in used {
                let to = delta[q * num_symbols + s as usize] as usize;
                self.preds[self.fill[to] as usize] = q as u32;
                self.fill[to] += 1;
            }
        }
        let mut live = accepting.to_vec();
        self.stack.clear();
        self.stack
            .extend((0..num_states as u32).filter(|&q| accepting[q as usize]));
        while let Some(q) = self.stack.pop() {
            let (lo, hi) = (
                self.indeg[q as usize] as usize,
                self.indeg[q as usize + 1] as usize,
            );
            for &p in &self.preds[lo..hi] {
                if !live[p as usize] {
                    live[p as usize] = true;
                    self.stack.push(p);
                }
            }
        }
        live
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse;

    /// Determinizes regex `s` over `alphabet`, symbols numbered by position.
    fn dfa(s: &str, alphabet: &[&str]) -> DenseDfa {
        let id = |l: &xmlmap_trees::Name| alphabet.iter().position(|a| *a == l.as_str()).unwrap();
        let nfa = Nfa::from_regex(&parse(s).unwrap()).map(id);
        Determinizer::new().run(&nfa, alphabet.len())
    }

    /// Runs the space-separated word `w`; labels outside `alphabet` reject.
    fn accepts(d: &DenseDfa, alphabet: &[&str], w: &str) -> bool {
        let mut q = 0;
        for l in w.split_whitespace() {
            match alphabet.iter().position(|a| *a == l) {
                Some(s) => q = d.step(q, s as u32),
                None => return false,
            }
        }
        d.accepting[q as usize]
    }

    #[test]
    fn determinize_preserves_language() {
        let abc = ["a", "b", "c"];
        let d = dfa("(a|b)*, c+", &abc);
        assert!(accepts(&d, &abc, "c"));
        assert!(accepts(&d, &abc, "a b a c c"));
        assert!(!accepts(&d, &abc, "a b"));
        assert!(!accepts(&d, &abc, "c a"));
        assert!(!accepts(&d, &abc, "d")); // outside alphabet
    }

    #[test]
    fn emptiness_and_universality() {
        // The start state is live iff the language is non-empty.
        let never = dfa("empty", &["a"]);
        assert!(!never.live[0]);
        // a* is universal: every state it reaches accepts.
        let all = dfa("a*", &["a"]);
        assert!(all.live[0] && all.accepting.iter().all(|&acc| acc));
        // a, a is neither: a dead sink absorbs the third a.
        let some = dfa("a, a", &["a"]);
        assert!(some.live[0] && !some.accepting[0]);
        assert!(some.live.iter().any(|&live| !live));
        assert!(!accepts(&some, &["a"], "a a a"));
    }

    #[test]
    fn subset_blowup_still_correct() {
        // (a|b)*, a, (a|b), (a|b): membership determined by 3rd-from-last.
        let ab = ["a", "b"];
        let d = dfa("(a|b)*, a, (a|b), (a|b)", &ab);
        assert!(accepts(&d, &ab, "a b b"));
        assert!(accepts(&d, &ab, "b b a a a"));
        assert!(!accepts(&d, &ab, "b a a"));
        assert!(d.num_states >= 8, "expected full subset blowup");
    }
}
