#![warn(missing_docs)]

//! # xmlmap-regex
//!
//! Regular expressions over element-type alphabets, their Glushkov NFAs,
//! and the dense subset-construction DFAs of the hedge-automata engine.
//! This is the word-automaton substrate used by DTD conformance checking,
//! hedge automata and the consistency procedures of *XML Schema Mappings*
//! (PODS 2009).

pub mod ast;
pub mod dfa;
pub mod hash;
pub mod nfa;

pub use ast::{parse, Regex, RegexParseError};
pub use dfa::{DenseDfa, Determinizer};
pub use hash::{FastBuildHasher, FastHashMap, FastHashSet, FastHasher};
pub use nfa::Nfa;

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use xmlmap_trees::Name;

    /// A small random regex over the alphabet {a, b, c}.
    fn arb_regex() -> impl Strategy<Value = Regex> {
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

    fn arb_word() -> impl Strategy<Value = Vec<Name>> {
        arb_word_of(0..6)
    }

    /// Words over {a, b, c} with a length in `len`.
    fn arb_word_of(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Name>> {
        proptest::collection::vec(
            prop_oneof![
                Just(Name::new("a")),
                Just(Name::new("b")),
                Just(Name::new("c"))
            ],
            len,
        )
    }

    /// Reference matcher: naive recursive membership on the AST.
    fn matches_ref(r: &Regex, w: &[Name]) -> bool {
        match r {
            Regex::Empty => false,
            Regex::Epsilon => w.is_empty(),
            Regex::Symbol(a) => w.len() == 1 && &w[0] == a,
            Regex::Concat(x, y) => {
                (0..=w.len()).any(|i| matches_ref(x, &w[..i]) && matches_ref(y, &w[i..]))
            }
            Regex::Alt(x, y) => matches_ref(x, w) || matches_ref(y, w),
            Regex::Star(x) => {
                w.is_empty()
                    || (1..=w.len()).any(|i| matches_ref(x, &w[..i]) && matches_ref(r, &w[i..]))
            }
            Regex::Plus(x) => {
                let star = Regex::Star(x.clone());
                (1..=w.len()).any(|i| matches_ref(x, &w[..i]) && matches_ref(&star, &w[i..]))
                    || matches_ref(x, w)
            }
            Regex::Opt(x) => w.is_empty() || matches_ref(x, w),
        }
    }

    /// Determinizes `nfa` over {a, b, c} (symbols 0, 1, 2) and runs `w` on
    /// the flat table.
    fn dense_accepts(nfa: &Nfa<Name>, w: &[Name]) -> bool {
        let id = |l: &Name| {
            ["a", "b", "c"]
                .iter()
                .position(|a| *a == l.as_str())
                .unwrap()
        };
        let dfa = Determinizer::new().run(&nfa.map(id), 3);
        let q = w.iter().fold(0, |q, l| dfa.step(q, id(l) as u32));
        dfa.accepting[q as usize]
    }

    proptest! {
        /// Glushkov NFA membership agrees with the naive AST matcher.
        #[test]
        fn nfa_agrees_with_reference(r in arb_regex(), w in arb_word()) {
            let nfa = Nfa::from_regex(&r);
            prop_assert_eq!(nfa.accepts(&w), matches_ref(&r, &w));
        }

        /// Determinisation preserves the language.
        #[test]
        fn dfa_agrees_with_nfa(r in arb_regex(), w in arb_word()) {
            let nfa = Nfa::from_regex(&r);
            prop_assert_eq!(dense_accepts(&nfa, &w), nfa.accepts(&w));
        }

        /// The NFA's subset simulation, fed a symbol iterator, agrees with
        /// the subset-construction DFA on words up to length 12.
        #[test]
        fn nfa_run_agrees_with_determinized_dfa(r in arb_regex(), w in arb_word_of(0..13)) {
            let nfa = Nfa::from_regex(&r);
            prop_assert_eq!(nfa.accepts(w.iter()), dense_accepts(&nfa, &w));
        }

        /// Display → parse round-trips the AST's language (on sampled words).
        #[test]
        fn display_parse_round_trip(r in arb_regex(), w in arb_word()) {
            let reparsed = parse(&r.to_string()).unwrap();
            prop_assert_eq!(matches_ref(&reparsed, &w), matches_ref(&r, &w));
        }

        /// `nullable` agrees with ε-membership; `shortest_word` is accepted
        /// and is no longer than any sampled accepted word.
        #[test]
        fn nullable_and_shortest(r in arb_regex(), w in arb_word()) {
            prop_assert_eq!(r.nullable(), matches_ref(&r, &[]));
            let nfa = Nfa::from_regex(&r);
            match nfa.shortest_word() {
                None => {
                    prop_assert!(r.is_empty_language());
                    prop_assert!(!matches_ref(&r, &w));
                }
                Some(s) => {
                    prop_assert!(matches_ref(&r, &s));
                    if matches_ref(&r, &w) {
                        prop_assert!(s.len() <= w.len());
                    }
                }
            }
        }

        /// NFA intersection is language intersection.
        #[test]
        fn intersection_is_conjunction(r1 in arb_regex(), r2 in arb_regex(), w in arb_word()) {
            let n1 = Nfa::from_regex(&r1);
            let n2 = Nfa::from_regex(&r2);
            prop_assert_eq!(
                n1.intersect(&n2).accepts(&w),
                n1.accepts(&w) && n2.accepts(&w)
            );
        }
    }
}
