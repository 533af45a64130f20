//! Compiled content models and the one runner that steps them.
//!
//! Every production `P_D(ℓ)` is compiled once, by [`crate::DtdBuilder`],
//! into a [`DenseNfa`]: its Glushkov automaton with symbols interned to the
//! DTD's dense label ids and transitions grouped by symbol. A subset state
//! is a `words()`-long `[u64]` bitmask; Glushkov construction guarantees
//! state 0 is the start state and there are no ε-transitions, so `{0}` is
//! the initial subset, and since every state is entered on one symbol, a
//! step is an OR of the set states' follow rows masked by the symbol's
//! positions.
//!
//! [`DenseNfa::start`], [`DenseNfa::step`] and [`DenseNfa::accepts`] are the
//! only routine that runs a content model: the tree check
//! ([`crate::Dtd::check`]), the streaming validator, the delta session's
//! per-node re-check and its per-parent [`ContentRun`]s, the type-fixpoint
//! engine and the bounded shape enumerator all step it. The hedge automata
//! of `xmlmap-automata` take their horizontal languages from the same
//! compiled models, through [`DenseNfa::to_nfa`], so no production is
//! compiled twice. The Glushkov [`Nfa`] a model is built from stays the
//! independent oracle of the reference engines and tests.

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

/// The indices of the set bits of a flat `[u64]` bitmask, ascending.
fn ones(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        std::iter::successors((word != 0).then_some(word), |&x| {
            let rest = x & (x - 1);
            (rest != 0).then_some(rest)
        })
        .map(move |x| w * 64 + x.trailing_zeros() as usize)
    })
}

/// A production's Glushkov automaton as follow masks.
///
/// Glushkov states are the positions of the production's symbols (plus the
/// start state 0), and every transition into a position carries that
/// position's symbol. So the successor of a subset `S` on symbol `a` is
/// `(⋃_{q ∈ S} follow(q)) ∩ positions(a)`: one row OR per state in `S`,
/// then one AND — a step costs the subset size, not the edge count.
pub struct DenseNfa {
    /// Words in the subset bitmask.
    words: usize,
    /// Accepting-state bitmask.
    accepting: Box<[u64]>,
    /// Sorted label ids having at least one transition, parallel to the
    /// rows of `positions`.
    syms: Vec<u32>,
    /// `positions[i*words..]`: the states entered on symbol `syms[i]`.
    positions: Box<[u64]>,
    /// `follow[q*words..]`: the states entered from state `q`, on any
    /// symbol.
    follow: Box<[u64]>,
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
        let mut follow = vec![0u64; nfa.num_states * words];
        // Every (symbol, entered state) pair, sorted by symbol.
        let mut entered: Vec<(u32, usize)> = Vec::new();
        for (q, trans) in nfa.transitions.iter().enumerate() {
            for (sym, q2) in trans {
                set_bit(&mut follow[q * words..(q + 1) * words], *q2);
                // Every production symbol is in the DTD alphabet.
                entered.push((label_id[sym], *q2));
            }
        }
        entered.sort_unstable();
        entered.dedup();
        debug_assert!(
            {
                let mut on = vec![None; nfa.num_states];
                entered
                    .iter()
                    .all(|&(sym, q2)| *on[q2].get_or_insert(sym) == sym)
            },
            "a Glushkov state is entered on one symbol"
        );
        let (mut syms, mut positions) = (Vec::new(), Vec::new());
        for (sym, q2) in entered {
            if syms.last() != Some(&sym) {
                syms.push(sym);
                positions.resize(positions.len() + words, 0);
            }
            let row = positions.len() - words;
            set_bit(&mut positions[row..], q2);
        }
        DenseNfa {
            words,
            accepting: accepting.into_boxed_slice(),
            syms,
            positions: positions.into_boxed_slice(),
            follow: follow.into_boxed_slice(),
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
        let Ok(i) = self.syms.binary_search(&sym) else {
            to.fill(0);
            return false;
        };
        let words = self.words;
        let positions = &self.positions[i * words..(i + 1) * words];
        // Nearly every production has at most 64 states: one word.
        if let ([from], [to]) = (from, &mut *to) {
            let mut next = 0;
            let mut set = *from;
            while set != 0 {
                next |= self.follow[set.trailing_zeros() as usize];
                set &= set - 1;
            }
            *to = next & positions[0];
            return *to != 0;
        }
        to.fill(0);
        for (w, &word) in from[..words].iter().enumerate() {
            let mut set = word;
            while set != 0 {
                let q = w * 64 + set.trailing_zeros() as usize;
                for (t, f) in to.iter_mut().zip(&self.follow[q * words..(q + 1) * words]) {
                    *t |= f;
                }
                set &= set - 1;
            }
        }
        let mut alive = false;
        for (t, p) in to.iter_mut().zip(positions) {
            *t &= p;
            alive |= *t != 0;
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

    /// The same automaton as a sparse [`Nfa`] over label ids: the
    /// horizontal language of the DTD's hedge-automaton rule. State `q`
    /// has one transition to each state in `follow(q)`, on the symbol that
    /// enters it, in ascending target order; the states and the accepting
    /// set are the Glushkov automaton's.
    pub fn to_nfa(&self) -> Nfa<usize> {
        let words = self.words;
        let num_states = self.follow.len() / words;
        // The symbol entering each state (the start state is never entered).
        let mut entered_on = vec![0usize; num_states];
        for (row, &sym) in self.positions.chunks(words).zip(&self.syms) {
            for q in ones(row) {
                entered_on[q] = sym as usize;
            }
        }
        Nfa {
            num_states,
            accepting: (0..num_states)
                .map(|q| get_bit(&self.accepting, q))
                .collect(),
            transitions: self
                .follow
                .chunks(words)
                .map(|row| ones(row).map(|q2| (entered_on[q2], q2)).collect())
                .collect(),
        }
    }

    /// Approximate heap footprint in bytes.
    pub(crate) fn approx_bytes(&self) -> u64 {
        (self.accepting.len() * 8
            + self.syms.capacity() * 4
            + (self.positions.len() + self.follow.len()) * 8) as u64
    }
}

/// One content model's run over a children word, kept so that an edit to
/// the word re-steps only what the edit changes.
///
/// The record holds the subset after each prefix of the word, `words()`
/// per prefix. It exists only for a live run — every label known and
/// every step non-empty — so the word's verdict is whether its last
/// subset accepts. After an insert or delete at child `i`, the run is
/// re-stepped from the subset before `i` and stops at the first later
/// child whose subset equals the recorded one: every subset after it was
/// stepped from that one over unchanged children, so the old run and its
/// verdict still hold.
#[derive(Debug, PartialEq, Eq)]
pub struct ContentRun {
    /// `states[i*words..]`: the subset after the first `i` children —
    /// the start subset first, the whole word's last.
    states: Vec<u64>,
}

impl ContentRun {
    /// Runs `word` from the start subset. `None` stands for a label
    /// outside the alphabet; a word with one, or whose run dies, gets no
    /// record.
    pub fn new(nfa: &DenseNfa, word: impl IntoIterator<Item = Option<u32>>) -> Option<ContentRun> {
        let w = nfa.words();
        let mut states = vec![0u64; w];
        nfa.start(&mut states);
        for (i, sym) in word.into_iter().enumerate() {
            states.resize((i + 2) * w, 0);
            let (before, after) = states.split_at_mut((i + 1) * w);
            if !nfa.step(&before[i * w..], sym?, after) {
                return None;
            }
        }
        Some(ContentRun { states })
    }

    /// Does the word the record runs over belong to the language?
    pub fn accepts(&self, nfa: &DenseNfa) -> bool {
        nfa.accepts(&self.states[self.states.len() - nfa.words()..])
    }

    /// Child `at` was inserted into the word; `sym(j)` is the label id of
    /// child `j` of the new word. Returns the number of steps taken, or
    /// `None` when the new word has no live run: the record is then stale
    /// and must be dropped.
    pub fn insert(
        &mut self,
        nfa: &DenseNfa,
        at: usize,
        sym: impl Fn(usize) -> Option<u32>,
    ) -> Option<usize> {
        let w = nfa.words();
        let slot = (at + 1) * w;
        self.states.splice(slot..slot, std::iter::repeat(0).take(w));
        // The new child's subset has no recorded value to compare against.
        self.restep(nfa, at, at + 1, sym)
    }

    /// Child `at` was removed from the word; `sym(j)` is the label id of
    /// child `j` of the new word. Returns as [`ContentRun::insert`] does.
    pub fn delete(
        &mut self,
        nfa: &DenseNfa,
        at: usize,
        sym: impl Fn(usize) -> Option<u32>,
    ) -> Option<usize> {
        let w = nfa.words();
        self.states.drain((at + 1) * w..(at + 2) * w);
        self.restep(nfa, at, at, sym)
    }

    /// Re-steps children `from..` until the subset after a child
    /// `>= compare_from` equals the recorded one.
    fn restep(
        &mut self,
        nfa: &DenseNfa,
        from: usize,
        compare_from: usize,
        sym: impl Fn(usize) -> Option<u32>,
    ) -> Option<usize> {
        let w = nfa.words();
        let mut next = vec![0u64; w];
        let mut steps = 0;
        for j in from..self.states.len() / w - 1 {
            steps += 1;
            let (before, after) = self.states.split_at_mut((j + 1) * w);
            if !nfa.step(&before[j * w..], sym(j)?, &mut next) {
                return None;
            }
            let recorded = &mut after[..w];
            if j >= compare_from && *recorded == *next {
                break;
            }
            recorded.copy_from_slice(&next);
        }
        Some(steps)
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
        /// every prefix of the word, through `step`/`accepts`, through
        /// `accepts_word` and through its sparse form `to_nfa`.
        #[test]
        fn dense_runner_agrees_with_glushkov(r in arb_production(), w in arb_word()) {
            let dtd = crate::Dtd::builder("r")
                .production("r", r.clone())
                .production("d", Regex::Epsilon)
                .build()
                .unwrap();
            let nfa = dtd.content_model(dtd.label_id(&Name::new("r")).unwrap());
            let glushkov = Nfa::from_regex(&r);
            // The sparse form over label ids keeps Glushkov's states.
            let sparse = nfa.to_nfa();
            prop_assert_eq!(sparse.num_states, glushkov.num_states);
            let mut cur = vec![0u64; nfa.words()];
            let mut next = vec![0u64; nfa.words()];
            nfa.start(&mut cur);
            let mut alive = true;
            for k in 0..=w.len() {
                let prefix = &w[..k];
                let ids = prefix.iter().map(|l| dtd.label_id(l));
                prop_assert_eq!(nfa.accepts_word(ids), glushkov.accepts(prefix));
                // A label outside the alphabet has no id, and no production
                // accepts it.
                let sparse_word: Option<Vec<usize>> = prefix
                    .iter()
                    .map(|l| dtd.label_id(l).map(|id| id as usize))
                    .collect();
                prop_assert_eq!(
                    sparse_word.is_some_and(|word| sparse.accepts(&word)),
                    glushkov.accepts(prefix)
                );
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

        /// A kept run tracks its word through inserts and deletes: after
        /// every edit the record exists iff the word's run is live, its
        /// verdict is `accepts_word`'s, and its subsets are the ones a
        /// fresh run computes. Edits land at child 0, in the middle, at
        /// the end and anywhere, in a one-word production and in one with
        /// more than 64 Glushkov positions.
        #[test]
        fn content_run_tracks_edits(
            r in arb_production(),
            w in arb_word(),
            edits in proptest::collection::vec((any::<bool>(), any::<u32>(), any::<u32>()), 0..24),
        ) {
            // `((a|b)*, c?)` 22 times, then `b`: 67 positions, so subsets
            // span two words; words must end in `b`.
            let block = Regex::Concat(
                Box::new(Regex::star(Regex::Alt(
                    Box::new(Regex::symbol("a")),
                    Box::new(Regex::symbol("b")),
                ))),
                Box::new(Regex::opt(Regex::symbol("c"))),
            );
            let wide = (0..22)
                .map(|_| block.clone())
                .chain([Regex::symbol("b")])
                .reduce(|x, y| Regex::Concat(Box::new(x), Box::new(y)))
                .expect("non-empty");
            for (production, multi_word) in [(r.clone(), false), (wide, true)] {
                let dtd = crate::Dtd::builder("r")
                    .production("r", production)
                    .production("d", Regex::Epsilon)
                    .build()
                    .unwrap();
                let nfa = dtd.content_model(dtd.label_id(&Name::new("r")).unwrap());
                prop_assert_eq!(nfa.words() > 1, multi_word);
                let labels = ["a", "b", "c", "d", "z"].map(Name::new);
                let mut word: Vec<Option<u32>> = w.iter().map(|l| dtd.label_id(l)).collect();
                let mut run = ContentRun::new(nfa, word.iter().copied());
                for &(insert, place, label) in &edits {
                    let len = word.len();
                    // Child 0, the middle, the end, or anywhere.
                    let span = if insert { len + 1 } else { len };
                    if span == 0 {
                        continue;
                    }
                    let at = match place % 4 {
                        0 => 0,
                        1 => span / 2,
                        2 => span - 1,
                        _ => (place / 4) as usize % span,
                    };
                    if insert {
                        word.insert(at, dtd.label_id(&labels[label as usize % labels.len()]));
                    } else {
                        word.remove(at);
                    }
                    let sym = |j: usize| word[j];
                    run = match run {
                        Some(mut kept) => {
                            let live = if insert {
                                kept.insert(nfa, at, sym)
                            } else {
                                kept.delete(nfa, at, sym)
                            };
                            live.map(|_| kept)
                        }
                        // A dead word gets no record; a fresh run over the
                        // edited word may be live again.
                        None => ContentRun::new(nfa, word.iter().copied()),
                    };
                    let fresh = ContentRun::new(nfa, word.iter().copied());
                    prop_assert_eq!(&run, &fresh);
                    if let Some(kept) = &run {
                        prop_assert_eq!(kept.accepts(nfa), nfa.accepts_word(word.iter().copied()));
                    } else {
                        prop_assert!(!nfa.accepts_word(word.iter().copied()));
                    }
                }
            }
        }
    }
}
