//! Nondeterministic finite automata over an arbitrary symbol type.
//!
//! The consistency procedures of the paper reason about *horizontal
//! languages*: words of children under a node. Sometimes the alphabet is the
//! set of element types, sometimes it is a lifted alphabet of
//! `(label, type)` pairs (see the type-fixpoint engine in `xmlmap-patterns`),
//! so the automaton is generic over the symbol type `A`.
//!
//! Construction from a [`Regex`] uses the Glushkov (position) automaton: one
//! state per symbol occurrence plus an initial state, no ε-transitions.

use crate::ast::Regex;
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use xmlmap_trees::Name;

/// An NFA with a single start state and no ε-transitions.
#[derive(Clone, Debug)]
pub struct Nfa<A> {
    /// Number of states; states are `0..num_states` and `0` is the start.
    pub num_states: usize,
    /// `accepting[q]` iff q is final.
    pub accepting: Vec<bool>,
    /// Outgoing transitions per state.
    pub transitions: Vec<Vec<(A, usize)>>,
}

impl<A: Clone + Eq + Hash> Nfa<A> {
    /// Does the automaton accept `word`? Runs the subset simulation over
    /// two reused state lists and one "seen" mark per state, so a call
    /// allocates three buffers however long the word is; `word` may be a
    /// slice or any iterator of symbol references.
    pub fn accepts<'a>(&self, word: impl IntoIterator<Item = &'a A>) -> bool
    where
        A: 'a,
    {
        let mut current: Vec<usize> = vec![0];
        let mut next: Vec<usize> = Vec::new();
        let mut seen = vec![false; self.num_states];
        for sym in word {
            for &q in &current {
                for (a, q2) in &self.transitions[q] {
                    if a == sym && !seen[*q2] {
                        seen[*q2] = true;
                        next.push(*q2);
                    }
                }
            }
            if next.is_empty() {
                return false;
            }
            for &q in &next {
                seen[q] = false;
            }
            std::mem::swap(&mut current, &mut next);
            next.clear();
        }
        current.iter().any(|&q| self.accepting[q])
    }

    /// A shortest accepted word, if any (BFS).
    pub fn shortest_word(&self) -> Option<Vec<A>> {
        if self.accepting[0] {
            return Some(Vec::new());
        }
        let mut pred: Vec<Option<(usize, A)>> = vec![None; self.num_states];
        let mut seen = vec![false; self.num_states];
        let mut queue = VecDeque::from([0usize]);
        seen[0] = true;
        while let Some(q) = queue.pop_front() {
            for (a, q2) in &self.transitions[q] {
                if !seen[*q2] {
                    seen[*q2] = true;
                    pred[*q2] = Some((q, a.clone()));
                    if self.accepting[*q2] {
                        // Reconstruct.
                        let mut word = Vec::new();
                        let mut cur = *q2;
                        while let Some((p, a)) = pred[cur].clone() {
                            word.push(a);
                            cur = p;
                        }
                        word.reverse();
                        return Some(word);
                    }
                    queue.push_back(*q2);
                }
            }
        }
        None
    }

    /// Product automaton for language intersection.
    pub fn intersect(&self, other: &Nfa<A>) -> Nfa<A> {
        // States are pairs reachable from (0,0), discovered on the fly.
        let mut index: HashMap<(usize, usize), usize> = HashMap::new();
        let mut order: Vec<(usize, usize)> = Vec::new();
        let mut queue = VecDeque::new();
        index.insert((0, 0), 0);
        order.push((0, 0));
        queue.push_back((0, 0));
        let mut transitions: Vec<Vec<(A, usize)>> = vec![Vec::new()];
        while let Some((p, q)) = queue.pop_front() {
            let from = index[&(p, q)];
            for (a, p2) in &self.transitions[p] {
                for (b, q2) in &other.transitions[q] {
                    if a == b {
                        let key = (*p2, *q2);
                        let to = *index.entry(key).or_insert_with(|| {
                            order.push(key);
                            transitions.push(Vec::new());
                            queue.push_back(key);
                            order.len() - 1
                        });
                        transitions[from].push((a.clone(), to));
                    }
                }
            }
        }
        let accepting = order
            .iter()
            .map(|&(p, q)| self.accepting[p] && other.accepting[q])
            .collect();
        Nfa {
            num_states: order.len(),
            accepting,
            transitions,
        }
    }

    /// Applies a symbol homomorphism to every transition.
    pub fn map<B: Clone + Eq + Hash>(&self, mut f: impl FnMut(&A) -> B) -> Nfa<B> {
        Nfa {
            num_states: self.num_states,
            accepting: self.accepting.clone(),
            transitions: self
                .transitions
                .iter()
                .map(|ts| ts.iter().map(|(a, q)| (f(a), *q)).collect())
                .collect(),
        }
    }

    /// Inverse homomorphism: replaces each transition on `a` by one
    /// transition for every symbol in `f(a)`.
    pub fn expand<B: Clone + Eq + Hash>(&self, mut f: impl FnMut(&A) -> Vec<B>) -> Nfa<B> {
        Nfa {
            num_states: self.num_states,
            accepting: self.accepting.clone(),
            transitions: self
                .transitions
                .iter()
                .map(|ts| {
                    ts.iter()
                        .flat_map(|(a, q)| f(a).into_iter().map(move |b| (b, *q)))
                        .collect()
                })
                .collect(),
        }
    }
}

impl Nfa<Name> {
    /// Glushkov (position) automaton of a regex: `n+1` states for `n` symbol
    /// occurrences, no ε-transitions, language-equivalent to the regex.
    pub fn from_regex(regex: &Regex) -> Nfa<Name> {
        // Linearise: assign positions 1..=n to symbol occurrences.
        let mut symbols_at = vec![Name::new("")]; // dummy for position 0
        let info = glushkov(regex, &mut symbols_at);

        let n = symbols_at.len(); // positions 0..n (0 = start)
        let mut transitions: Vec<Vec<(Name, usize)>> = vec![Vec::new(); n];
        for &p in &info.first {
            transitions[0].push((symbols_at[p].clone(), p));
        }
        for (p, nexts) in &info.follow {
            for &q in nexts {
                transitions[*p].push((symbols_at[q].clone(), q));
            }
        }
        let mut accepting = vec![false; n];
        accepting[0] = info.nullable;
        for &p in &info.last {
            accepting[p] = true;
        }
        Nfa {
            num_states: n,
            accepting,
            transitions,
        }
    }
}

struct GlushkovInfo {
    nullable: bool,
    first: Vec<usize>,
    last: Vec<usize>,
    follow: HashMap<usize, Vec<usize>>,
}

fn glushkov(regex: &Regex, symbols_at: &mut Vec<Name>) -> GlushkovInfo {
    match regex {
        Regex::Empty => GlushkovInfo {
            nullable: false,
            first: vec![],
            last: vec![],
            follow: HashMap::new(),
        },
        Regex::Epsilon => GlushkovInfo {
            nullable: true,
            first: vec![],
            last: vec![],
            follow: HashMap::new(),
        },
        Regex::Symbol(name) => {
            let p = symbols_at.len();
            symbols_at.push(name.clone());
            GlushkovInfo {
                nullable: false,
                first: vec![p],
                last: vec![p],
                follow: HashMap::new(),
            }
        }
        Regex::Concat(a, b) => {
            let ia = glushkov(a, symbols_at);
            let ib = glushkov(b, symbols_at);
            let mut follow = ia.follow;
            for (k, v) in ib.follow {
                follow.entry(k).or_default().extend(v);
            }
            for &l in &ia.last {
                follow
                    .entry(l)
                    .or_default()
                    .extend(ib.first.iter().copied());
            }
            let mut first = ia.first;
            if ia.nullable {
                first.extend(ib.first.iter().copied());
            }
            let mut last = ib.last;
            if ib.nullable {
                last.extend(ia.last.iter().copied());
            }
            GlushkovInfo {
                nullable: ia.nullable && ib.nullable,
                first,
                last,
                follow,
            }
        }
        Regex::Alt(a, b) => {
            let ia = glushkov(a, symbols_at);
            let ib = glushkov(b, symbols_at);
            let mut follow = ia.follow;
            for (k, v) in ib.follow {
                follow.entry(k).or_default().extend(v);
            }
            let mut first = ia.first;
            first.extend(ib.first);
            let mut last = ia.last;
            last.extend(ib.last);
            GlushkovInfo {
                nullable: ia.nullable || ib.nullable,
                first,
                last,
                follow,
            }
        }
        Regex::Star(a) | Regex::Plus(a) => {
            let ia = glushkov(a, symbols_at);
            let mut follow = ia.follow;
            for &l in &ia.last {
                follow
                    .entry(l)
                    .or_default()
                    .extend(ia.first.iter().copied());
            }
            GlushkovInfo {
                nullable: matches!(regex, Regex::Star(_)) || ia.nullable,
                first: ia.first,
                last: ia.last,
                follow,
            }
        }
        Regex::Opt(a) => {
            let ia = glushkov(a, symbols_at);
            GlushkovInfo {
                nullable: true,
                first: ia.first,
                last: ia.last,
                follow: ia.follow,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse;

    fn nfa(s: &str) -> Nfa<Name> {
        Nfa::from_regex(&parse(s).unwrap())
    }

    fn word(s: &str) -> Vec<Name> {
        s.split_whitespace().map(Name::new).collect()
    }

    #[test]
    fn glushkov_matches_simple_languages() {
        let a = nfa("a*");
        assert!(a.accepts(&word("")));
        assert!(a.accepts(&word("a a a")));
        assert!(!a.accepts(&word("a b")));

        let m = nfa("teach, supervise");
        assert!(m.accepts(&word("teach supervise")));
        assert!(!m.accepts(&word("supervise teach")));
        assert!(!m.accepts(&word("teach")));

        let opt = nfa("c1?, c2?, c3?");
        for w in ["", "c1", "c2", "c3", "c1 c2", "c1 c3", "c2 c3", "c1 c2 c3"] {
            assert!(opt.accepts(&word(w)), "{w}");
        }
        assert!(!opt.accepts(&word("c2 c1")));
        assert!(!opt.accepts(&word("c1 c1")));
    }

    #[test]
    fn glushkov_handles_nesting() {
        let r = nfa("(a|b)*, c+");
        assert!(r.accepts(&word("c")));
        assert!(r.accepts(&word("a b a c c")));
        assert!(!r.accepts(&word("a b")));
        assert!(!r.accepts(&word("c a")));
    }

    #[test]
    fn emptiness_and_shortest() {
        assert_eq!(nfa("empty").shortest_word(), None);
        assert_eq!(nfa("eps").shortest_word(), Some(vec![]));
        assert!(nfa("a, b").shortest_word() == Some(word("a b")));
    }

    #[test]
    fn intersection() {
        let x = nfa("a*, b");
        let y = nfa("a, b*");
        let both = x.intersect(&y);
        assert!(both.accepts(&word("a b")));
        assert!(!both.accepts(&word("b")));
        assert!(!both.accepts(&word("a a b")));
        assert!(both.shortest_word().is_some());

        let disjoint = nfa("a").intersect(&nfa("b"));
        assert!(disjoint.shortest_word().is_none());
    }

    #[test]
    fn map_and_expand() {
        let n = nfa("a, b");
        let upper = n.map(|x| Name::new(x.as_str().to_uppercase()));
        assert!(upper.accepts(&word("A B")));
        // Expand each symbol x to {x1, x2}.
        let exp = n.expand(|x| vec![Name::new(format!("{x}1")), Name::new(format!("{x}2"))]);
        assert!(exp.accepts(&word("a1 b2")));
        assert!(exp.accepts(&word("a2 b1")));
        assert!(!exp.accepts(&word("a b")));
    }
}
