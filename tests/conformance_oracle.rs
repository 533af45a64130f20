//! Tree, streaming and delta conformance against an independent oracle.
//!
//! `Dtd::check`, the streaming validator and a delta session all step the
//! DTD's compiled content models through one runner, so comparing them
//! with one another would compare shared code. This test compares each
//! with an oracle written here over Glushkov automata built straight from
//! the productions (`Nfa::from_regex(..).accepts(..)`), on random
//! nested-relational DTDs and a catalogue of hand-written ones, with
//! generated documents mutated by dropping, duplicating, swapping or
//! relabelling a child and by dropping or reordering an attribute:
//!
//! * `Dtd::check` returns exactly the oracle's first violation (same
//!   sweep order, same `ConformanceError` value);
//! * `validate_stream` on the serialised document accepts iff the oracle
//!   does under attribute-set semantics (documents list attributes in any
//!   order);
//! * a delta session that applied the same edits as updates reports
//!   `source_conforms` iff the oracle does under attribute-set semantics
//!   (inserted fragments are canonicalised).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use xmlmap::core::{IncrementalChase, Mapping, Update};
use xmlmap::dtd::{validate_stream, ConformanceError, Dtd, DtdIndex};
use xmlmap::gen::{random_nr_dtd, random_tree, TreeGenConfig};
use xmlmap::regex::Nfa;
use xmlmap::trees::{xml, Name, NodeId, Tree};

const CATALOGUE: [&str; 5] = [
    "root r\nr -> prof*\nprof -> teach, supervise\nteach -> year\nyear -> course, course\n\
     supervise -> student*\nprof @ name\nstudent @ sid\nyear @ y\ncourse @ cno",
    "root r\nr -> (a | b)*, c?\na -> d+\nc -> d, d?\na @ x, y\nd @ z",
    "root r\nr -> a, (b, c)*, a?\nb @ p, q, s\nc -> e*\ne @ k\nr @ id",
    "root r\nr -> (a, b)+ | c\na -> b?\nc @ u, v\nb @ w",
    "root r\nr -> a*, b?, a*\nb -> (a | c)+\na @ x\nc -> a?",
];

/// The oracle: `T ⊨ D` by the paper's definition, first violation in the
/// order `Dtd::check` documents (root label, then any unknown label, then
/// per node in document order its attributes and its children word).
/// `ordered` compares attribute names as a list, otherwise as a set.
fn oracle(dtd: &Dtd, t: &Tree, ordered: bool) -> Result<(), ConformanceError> {
    if t.label(Tree::ROOT) != dtd.root() {
        return Err(ConformanceError::WrongRoot {
            found: t.label(Tree::ROOT).clone(),
            expected: dtd.root().clone(),
        });
    }
    for node in t.nodes() {
        let label = t.label(node);
        if !dtd.alphabet().any(|l| l == label) {
            return Err(ConformanceError::UnknownLabel {
                node,
                label: label.clone(),
            });
        }
    }
    for node in t.nodes() {
        let label = t.label(node);
        let found: Vec<Name> = t.attrs(node).iter().map(|(a, _)| a.clone()).collect();
        let expected = dtd.attrs(label).to_vec();
        let attrs_ok = if ordered {
            found == expected
        } else {
            let (mut f, mut e) = (found.clone(), expected.clone());
            f.sort();
            e.sort();
            f == e
        };
        if !attrs_ok {
            return Err(ConformanceError::WrongAttributes {
                node,
                label: label.clone(),
                found,
                expected,
            });
        }
        let word: Vec<Name> = t
            .children(node)
            .iter()
            .map(|&c| t.label(c).clone())
            .collect();
        if !Nfa::from_regex(dtd.production(label)).accepts(&word) {
            return Err(ConformanceError::BadChildren {
                node,
                label: label.clone(),
                found: word,
            });
        }
    }
    Ok(())
}

/// The child-index path of `n`.
fn path(t: &Tree, mut n: NodeId) -> Vec<usize> {
    let mut p = Vec::new();
    while let Some(parent) = t.parent(n) {
        p.push(t.sibling_index(n));
        n = parent;
    }
    p.reverse();
    p
}

/// A copy of `sub` with its root relabelled and its root attributes
/// replaced.
fn rebuilt(sub: &Tree, label: Name, attrs: Vec<(Name, xmlmap::trees::Value)>) -> Tree {
    let mut out = Tree::with_root_attrs(label, attrs);
    for &c in sub.children(Tree::ROOT) {
        out.graft(Tree::ROOT, &sub.subtree(c));
    }
    out
}

/// One random edit, applied to `t` and returned as the equivalent updates
/// (`None` when the tree offers no place for the chosen edit).
fn mutate(dtd: &Dtd, t: &mut Tree, rng: &mut StdRng) -> Option<Vec<Update>> {
    let nodes: Vec<NodeId> = t.nodes().collect();
    let parents: Vec<NodeId> = nodes
        .iter()
        .copied()
        .filter(|&n| !t.children(n).is_empty())
        .collect();
    let p = *parents.get(rng.gen_range(0..parents.len().max(1)))?;
    let kids = t.children(p).to_vec();
    let i = rng.gen_range(0..kids.len());
    let c = kids[i];
    let sub = t.subtree(c);
    // Remove child `i` and insert `with` at `pos`, on both sides.
    let replace = |t: &mut Tree, with: Tree, pos: usize| {
        let p_path = path(t, p);
        t.detach(c);
        t.graft_at(p, pos, &with);
        vec![
            Update::DeleteSubtree {
                path: [p_path.clone(), vec![i]].concat(),
            },
            Update::InsertSubtree {
                parent: p_path,
                pos,
                subtree: with,
            },
        ]
    };
    let updates = match rng.gen_range(0..6) {
        // Drop the child.
        0 => {
            let u = Update::DeleteSubtree { path: path(t, c) };
            t.detach(c);
            vec![u]
        }
        // Duplicate it.
        1 => {
            let u = Update::InsertSubtree {
                parent: path(t, p),
                pos: i + 1,
                subtree: sub.clone(),
            };
            t.graft_at(p, i + 1, &sub);
            vec![u]
        }
        // Swap it with its right sibling.
        2 if i + 1 < kids.len() => replace(t, sub, i + 1),
        // Relabel it (sometimes outside the alphabet).
        3 => {
            let labels: Vec<&Name> = dtd.alphabet().collect();
            let label = if rng.gen_bool(0.2) {
                Name::new("zz")
            } else {
                labels[rng.gen_range(0..labels.len())].clone()
            };
            let attrs = sub.attrs(Tree::ROOT).to_vec();
            replace(t, rebuilt(&sub, label, attrs), i)
        }
        // Drop one of its attributes.
        4 if !sub.attrs(Tree::ROOT).is_empty() => {
            let mut attrs = sub.attrs(Tree::ROOT).to_vec();
            attrs.remove(rng.gen_range(0..attrs.len()));
            let label = sub.label(Tree::ROOT).clone();
            replace(t, rebuilt(&sub, label, attrs), i)
        }
        // Reorder its attributes.
        5 if sub.attrs(Tree::ROOT).len() >= 2 => {
            let mut attrs = sub.attrs(Tree::ROOT).to_vec();
            attrs.rotate_left(1);
            let label = sub.label(Tree::ROOT).clone();
            replace(t, rebuilt(&sub, label, attrs), i)
        }
        _ => return None,
    };
    Some(updates)
}

/// Checks one document: the original must conform; then 1–3 random edits
/// are applied to a copy and to a delta session, and every checker is
/// compared with the oracle. Tallies edited documents and the oracle's
/// rejections among them into `tally`.
fn check_case(
    dtd: &Dtd,
    idx: &Arc<DtdIndex>,
    doc: &Tree,
    rng: &mut StdRng,
    tally: &mut (usize, usize),
) {
    assert_eq!(dtd.check(doc), Ok(()), "generated documents conform");
    assert_eq!(oracle(dtd, doc, true), Ok(()));
    let m = Mapping::new(dtd.clone(), dtd.clone(), Vec::new());
    let mut session = IncrementalChase::new(&m, doc.clone());
    assert!(session.source_conforms());
    let mut t = doc.clone();
    for _ in 0..rng.gen_range(1..=3) {
        let Some(updates) = mutate(dtd, &mut t, rng) else {
            continue;
        };
        for u in &updates {
            session
                .apply(u)
                .expect("the edit addresses an existing node");
        }
        let want = oracle(dtd, &t, true);
        tally.0 += 1;
        tally.1 += usize::from(want.is_err());
        assert_eq!(dtd.check(&t), want, "Dtd::check on\n{}", xml::to_string(&t));
        let want_set = oracle(dtd, &t, false).is_ok();
        let streamed = validate_stream(idx, xml::to_string(&t).as_bytes()).is_ok();
        assert_eq!(
            streamed,
            want_set,
            "validate_stream on\n{}",
            xml::to_string(&t)
        );
        assert_eq!(
            session.source_conforms(),
            want_set,
            "delta session on\n{}",
            xml::to_string(&t)
        );
        assert_eq!(dtd.check(session.doc()), oracle(dtd, session.doc(), true));
    }
}

/// At least 1,000 edited documents, with both verdicts well represented.
fn assert_coverage((edited, rejected): (usize, usize)) {
    assert!(edited >= 1000, "only {edited} edited documents");
    assert!(
        rejected >= edited / 5 && rejected <= edited * 4 / 5,
        "{rejected} of {edited} edited documents rejected"
    );
}

fn config() -> TreeGenConfig {
    TreeGenConfig {
        continue_probability: 0.5,
        value_pool: 3,
        max_nodes: 60,
    }
}

#[test]
fn nested_relational_dtds_agree_with_the_oracle() {
    let mut rng = StdRng::seed_from_u64(0x0c0f);
    let mut tally = (0, 0);
    for _ in 0..150 {
        let dtd = random_nr_dtd(3, 3, 0.6, &mut rng);
        let idx = Arc::new(DtdIndex::new(&dtd));
        for _ in 0..6 {
            let doc = random_tree(&dtd, &config(), &mut rng);
            check_case(&dtd, &idx, &doc, &mut rng, &mut tally);
        }
    }
    assert_coverage(tally);
}

#[test]
fn catalogue_dtds_agree_with_the_oracle() {
    let mut rng = StdRng::seed_from_u64(0xca7a);
    let mut tally = (0, 0);
    for text in CATALOGUE {
        let dtd = xmlmap::dtd::parse(text).unwrap();
        let idx = Arc::new(DtdIndex::new(&dtd));
        for _ in 0..250 {
            let doc = random_tree(&dtd, &config(), &mut rng);
            check_case(&dtd, &idx, &doc, &mut rng, &mut tally);
        }
    }
    assert_coverage(tally);
}
