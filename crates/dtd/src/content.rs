//! Compiled content models and the one runner that steps them.
//!
//! Every production `P_D(ℓ)` is compiled once, by [`crate::DtdBuilder`],
//! into a [`DenseNfa`]: its Glushkov automaton with symbols interned to the
//! DTD's dense label ids and transitions grouped by symbol. A subset state
//! is a `words()`-long `[u64]` bitmask; Glushkov construction guarantees
//! state 0 is the start state and there are no ε-transitions, so `{0}` is
//! the initial subset and a step is one edge-list scatter.
//!
//! [`DenseNfa::start`], [`DenseNfa::step`] and [`DenseNfa::accepts`] are the
//! only routine that runs a content model: the tree check
//! ([`crate::Dtd::check`]), the streaming validator, the delta session's
//! per-node re-check, the type-fixpoint engine and the bounded shape
//! enumerator all step it. The Glushkov [`Nfa`] it is built from stays the
//! independent oracle of the reference engines and tests.

use std::collections::BTreeMap;
use xmlmap_regex::{FastHashMap, Nfa};
use xmlmap_trees::Name;

/// Reads bit `i` of a flat `[u64]` bitmask.
#[inline]
pub fn get_bit(words: &[u64], i: usize) -> bool {
    words[i / 64] >> (i % 64) & 1 == 1
}

/// Sets bit `i` of a flat `[u64]` bitmask.
#[inline]
pub fn set_bit(words: &mut [u64], i: usize) {
    words[i / 64] |= 1 << (i % 64);
}

/// A production NFA with transitions grouped by (interned) symbol.
pub struct DenseNfa {
    /// Words in the subset bitmask.
    words: usize,
    /// Accepting-state bitmask.
    accepting: Box<[u64]>,
    /// Sorted label ids having at least one transition, parallel to `edges`.
    syms: Vec<u32>,
    edges: Vec<Vec<(u32, u32)>>,
}

impl DenseNfa {
    /// Densifies a Glushkov automaton over the label table `label_id`.
    pub(crate) fn new(nfa: &Nfa<Name>, label_id: &FastHashMap<Name, u32>) -> DenseNfa {
        let words = nfa.num_states.div_ceil(64).max(1);
        let mut accepting = vec![0u64; words];
        for (q, &acc) in nfa.accepting.iter().enumerate() {
            if acc {
                set_bit(&mut accepting, q);
            }
        }
        let mut by: BTreeMap<u32, Vec<(u32, u32)>> = BTreeMap::new();
        for (q, trans) in nfa.transitions.iter().enumerate() {
            for (sym, q2) in trans {
                // Every production symbol is in the DTD alphabet.
                by.entry(label_id[sym])
                    .or_default()
                    .push((q as u32, *q2 as u32));
            }
        }
        let (syms, edges) = by.into_iter().unzip();
        DenseNfa {
            words,
            accepting: accepting.into_boxed_slice(),
            syms,
            edges,
        }
    }

    /// Words in a subset bitmask for this automaton.
    #[inline]
    pub fn words(&self) -> usize {
        self.words
    }

    /// Sorted label ids with at least one transition.
    pub fn syms(&self) -> &[u32] {
        &self.syms
    }

    /// Does any transition carry `sym`?
    #[inline]
    pub fn has_sym(&self, sym: u32) -> bool {
        self.syms.binary_search(&sym).is_ok()
    }

    /// Writes the initial subset `{0}` into `state` (`words()` long).
    #[inline]
    pub fn start(&self, state: &mut [u64]) {
        state.fill(0);
        state[0] = 1;
    }

    /// Steps subset `from` on label id `sym`, overwriting `to` (both
    /// `words()` long). Returns false when the result is empty: no word
    /// with this prefix is in the language.
    #[inline]
    pub fn step(&self, from: &[u64], sym: u32, to: &mut [u64]) -> bool {
        // Nearly every production has at most 64 states; clearing its one
        // word directly avoids a `memset` call per step.
        if let [word] = to {
            *word = 0;
        } else {
            to.fill(0);
        }
        let Ok(i) = self.syms.binary_search(&sym) else {
            return false;
        };
        let mut alive = false;
        for &(q, q2) in &self.edges[i] {
            if get_bit(from, q as usize) {
                set_bit(to, q2 as usize);
                alive = true;
            }
        }
        alive
    }

    /// Does subset `state` contain an accepting state?
    #[inline]
    pub fn accepts(&self, state: &[u64]) -> bool {
        state[..self.words]
            .iter()
            .zip(self.accepting.iter())
            .any(|(s, a)| s & a != 0)
    }

    /// Runs a whole word from the start subset. `None` stands for a label
    /// outside the alphabet, which no production accepts. Automata of up to
    /// 256 states run on the stack, without allocating.
    pub fn accepts_word(&self, word: impl IntoIterator<Item = Option<u32>>) -> bool {
        let mut small = [0u64; 8];
        let mut large = Vec::new();
        let buf = if 2 * self.words <= small.len() {
            &mut small[..2 * self.words]
        } else {
            large.resize(2 * self.words, 0);
            &mut large[..]
        };
        let (mut cur, mut next) = buf.split_at_mut(self.words);
        self.start(cur);
        for sym in word {
            match sym {
                Some(sym) if self.step(cur, sym, next) => std::mem::swap(&mut cur, &mut next),
                _ => return false,
            }
        }
        self.accepts(cur)
    }

    /// Approximate heap footprint in bytes.
    pub(crate) fn approx_bytes(&self) -> u64 {
        (self.accepting.len() * 8
            + self.syms.capacity() * 4
            + self.edges.iter().map(|e| e.capacity() * 8).sum::<usize>()) as u64
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use xmlmap_regex::Regex;

    /// A random production over {a, b, c}, built from the operators DTD
    /// content models use.
    fn arb_production() -> impl Strategy<Value = Regex> {
        let leaf = prop_oneof![
            Just(Regex::Epsilon),
            Just(Regex::symbol("a")),
            Just(Regex::symbol("b")),
            Just(Regex::symbol("c")),
        ];
        leaf.prop_recursive(4, 24, 3, |inner| {
            prop_oneof![
                (inner.clone(), inner.clone())
                    .prop_map(|(x, y)| Regex::Concat(Box::new(x), Box::new(y))),
                (inner.clone(), inner.clone())
                    .prop_map(|(x, y)| Regex::Alt(Box::new(x), Box::new(y))),
                inner.clone().prop_map(Regex::star),
                inner.clone().prop_map(Regex::plus),
                inner.prop_map(Regex::opt),
            ]
        })
    }

    /// Words over {a, b, c, d, z}: `d` is in the DTD alphabet but in no
    /// production, `z` is outside the alphabet altogether.
    fn arb_word() -> impl Strategy<Value = Vec<Name>> {
        proptest::collection::vec(
            prop_oneof![
                Just(Name::new("a")),
                Just(Name::new("b")),
                Just(Name::new("c")),
                Just(Name::new("d")),
                Just(Name::new("z")),
            ],
            0..10,
        )
    }

    proptest! {
        /// The dense runner agrees with the Glushkov subset simulation on
        /// every prefix of the word, through `step`/`accepts` and through
        /// `accepts_word`.
        #[test]
        fn dense_runner_agrees_with_glushkov(r in arb_production(), w in arb_word()) {
            let dtd = crate::Dtd::builder("r")
                .production("r", r.clone())
                .production("d", Regex::Epsilon)
                .build()
                .unwrap();
            let nfa = dtd.content_model(dtd.label_id(&Name::new("r")).unwrap());
            let glushkov = Nfa::from_regex(&r);
            let mut cur = vec![0u64; nfa.words()];
            let mut next = vec![0u64; nfa.words()];
            nfa.start(&mut cur);
            let mut alive = true;
            for k in 0..=w.len() {
                let prefix = &w[..k];
                let ids = prefix.iter().map(|l| dtd.label_id(l));
                prop_assert_eq!(nfa.accepts_word(ids), glushkov.accepts(prefix));
                prop_assert_eq!(alive && nfa.accepts(&cur), glushkov.accepts(prefix));
                if k < w.len() && alive {
                    alive = match dtd.label_id(&w[k]) {
                        Some(sym) => nfa.step(&cur, sym, &mut next),
                        None => false,
                    };
                    std::mem::swap(&mut cur, &mut next);
                }
            }
        }
    }
}
