//! Random document generation.
//!
//! Samples conforming documents for a DTD: children words are drawn by a
//! random walk on the production's Glushkov NFA (biased towards acceptance
//! so documents stay finite), attribute values come from a bounded pool so
//! that equality joins actually fire in benchmarks.

use rand::prelude::*;
use std::collections::HashMap;
use xmlmap_dtd::Dtd;
use xmlmap_regex::Nfa;
use xmlmap_trees::{Name, NodeId, Tree, Value};

/// Parameters for random document generation.
#[derive(Clone, Debug)]
pub struct TreeGenConfig {
    /// Probability of *continuing* a repeatable construct at each step
    /// (also the bias towards taking transitions over stopping early).
    pub continue_probability: f64,
    /// Number of distinct attribute values to draw from.
    pub value_pool: usize,
    /// Hard cap on the number of nodes (generation stops expanding).
    pub max_nodes: usize,
}

impl Default for TreeGenConfig {
    fn default() -> Self {
        TreeGenConfig {
            continue_probability: 0.5,
            value_pool: 8,
            max_nodes: 10_000,
        }
    }
}

/// Samples a document conforming to `dtd`.
///
/// The walk chooses, at each NFA state of the current production, either to
/// stop (if the state accepts) or to follow a uniformly random transition;
/// dead ends restart the word. Recursive DTDs stay finite because every
/// production walk is itself finite and the node cap bounds expansion (the
/// cap trims only repeatable constructs, so the result still conforms).
pub fn random_tree(dtd: &Dtd, config: &TreeGenConfig, rng: &mut impl Rng) -> Tree {
    let mut tree = Tree::with_root_attrs(
        dtd.root().clone(),
        random_attrs(dtd, dtd.root(), config, rng),
    );
    // Each production's Glushkov automaton (the walk follows its states)
    // with its distances to acceptance, built on first use.
    let mut walks: HashMap<Name, (Nfa<Name>, Vec<usize>)> = HashMap::new();
    let mut queue: Vec<NodeId> = vec![Tree::ROOT];
    while let Some(node) = queue.pop() {
        let label = tree.label(node).clone();
        let (nfa, dist) = walks.entry(label).or_insert_with_key(|l| {
            let nfa = Nfa::from_regex(dtd.production(l));
            let dist = distances_to_acceptance(&nfa);
            (nfa, dist)
        });
        // Over the cap, emit the shortest (mandatory-only) word so the
        // document still conforms.
        let word = if tree.size() >= config.max_nodes {
            nfa.shortest_word().unwrap_or_default()
        } else {
            random_word(nfa, dist, config, rng)
        };
        for child_label in word {
            let attrs = random_attrs(dtd, &child_label, config, rng);
            let child = tree.add_child(node, child_label, attrs);
            queue.push(child);
        }
    }
    tree
}

fn random_attrs(
    dtd: &Dtd,
    label: &Name,
    config: &TreeGenConfig,
    rng: &mut impl Rng,
) -> Vec<(Name, Value)> {
    dtd.attrs(label)
        .iter()
        .map(|a| {
            let v = rng.gen_range(0..config.value_pool.max(1));
            (a.clone(), Value::str(format!("v{v}")))
        })
        .collect()
}

/// Random accepted word of a production's automaton; `dist` is each
/// state's distance to acceptance, to steer dead ends home.
fn random_word(
    nfa: &Nfa<Name>,
    dist: &[usize],
    config: &TreeGenConfig,
    rng: &mut impl Rng,
) -> Vec<Name> {
    'retry: for _ in 0..64 {
        let mut word = Vec::new();
        let mut state = 0usize;
        loop {
            let can_stop = nfa.accepting[state];
            let transitions = &nfa.transitions[state];
            if transitions.is_empty() {
                if can_stop {
                    return word;
                }
                continue 'retry; // dead end (shouldn't happen with dist)
            }
            if can_stop && (word.len() >= 64 || !rng.gen_bool(config.continue_probability)) {
                return word;
            }
            // Prefer transitions that lead somewhere useful.
            let viable: Vec<&(Name, usize)> = transitions
                .iter()
                .filter(|(_, q)| dist[*q] < usize::MAX)
                .collect();
            if viable.is_empty() {
                continue 'retry;
            }
            // Past the soft cap, steer towards acceptance.
            let pick = if word.len() >= 64 {
                viable
                    .iter()
                    .min_by_key(|(_, q)| dist[*q])
                    .expect("viable nonempty")
            } else {
                viable[rng.gen_range(0..viable.len())]
            };
            word.push(pick.0.clone());
            state = pick.1;
        }
    }
    // Fall back to a shortest accepted word.
    nfa.shortest_word().unwrap_or_default()
}

fn distances_to_acceptance(nfa: &Nfa<Name>) -> Vec<usize> {
    let mut dist = vec![usize::MAX; nfa.num_states];
    // Reverse BFS from accepting states.
    let mut reverse: Vec<Vec<usize>> = vec![Vec::new(); nfa.num_states];
    for (q, ts) in nfa.transitions.iter().enumerate() {
        for (_, q2) in ts {
            reverse[*q2].push(q);
        }
    }
    let mut queue = std::collections::VecDeque::new();
    for (q, d) in dist.iter_mut().enumerate() {
        if nfa.accepting[q] {
            *d = 0;
            queue.push_back(q);
        }
    }
    while let Some(q) = queue.pop_front() {
        for &p in &reverse[q] {
            if dist[p] == usize::MAX {
                dist[p] = dist[q] + 1;
                queue.push_back(p);
            }
        }
    }
    dist
}

/// Deterministically builds a university document (the paper's intro
/// scenario) with `professors` professors, 2 courses each, and `students`
/// students per professor — the standard source workload for benches.
pub fn university_tree(professors: usize, students: usize) -> Tree {
    let mut t = Tree::new("r");
    for p in 0..professors {
        let prof = t.add_child(Tree::ROOT, "prof", [("name", Value::str(format!("p{p}")))]);
        let teach = t.add_elem(prof, "teach");
        let year = t.add_child(teach, "year", [("y", Value::str(format!("y{}", p % 4)))]);
        t.add_child(year, "course", [("cno", Value::str(format!("c{}", 2 * p)))]);
        t.add_child(
            year,
            "course",
            [("cno", Value::str(format!("c{}", 2 * p + 1)))],
        );
        let sup = t.add_elem(prof, "supervise");
        for s in 0..students {
            t.add_child(sup, "student", [("sid", Value::str(format!("s{p}_{s}")))]);
        }
    }
    t
}

/// The university source DTD `D₁` from the paper's introduction.
pub fn university_dtd() -> Dtd {
    xmlmap_dtd::parse(
        "root r
         r -> prof*
         prof -> teach, supervise
         teach -> year
         year -> course, course
         supervise -> student*
         prof @ name
         student @ sid
         year @ y
         course @ cno",
    )
    .expect("static DTD")
}

/// The university target DTD `D₂` from the paper's introduction.
pub fn university_target_dtd() -> Dtd {
    xmlmap_dtd::parse(
        "root r
         r -> course*, student*
         course -> taughtby
         student -> supervisor
         course @ cno, year
         student @ sid
         taughtby @ teacher
         supervisor @ name",
    )
    .expect("static DTD")
}

/// The exchange-corpus source DTD: the university DTD extended with a
/// tail of inert `pad` records (`r -> prof*, pad*`). Pads conform but
/// match no std source, so corpus **bytes** scale with the pad count
/// while chase **firings** stay proportional to the professor count —
/// the knob the flat-RSS streaming-chase benches and CI turn.
pub fn exchange_source_dtd() -> Dtd {
    xmlmap_dtd::parse(
        "root r
         r -> prof*, pad*
         prof -> teach, supervise
         teach -> year
         year -> course, course
         supervise -> student*
         prof @ name
         student @ sid
         year @ y
         course @ cno
         pad @ a, b",
    )
    .expect("static DTD")
}

/// The exchange mapping: the paper's two university stds over
/// [`exchange_source_dtd`] (pads are simply never matched) into the
/// university target DTD. `Display` round-trips through
/// `Mapping::parse`, so `gendoc --mapping` can write it to a file for
/// `xmlmap stream --chase`.
pub fn exchange_mapping() -> xmlmap_core::Mapping {
    let std1 = xmlmap_core::Std::parse(
        "r[prof(x)[teach[year(y)[course(cn1), course(cn2)]]]] \
         --> r[course(cn1, y)[taughtby(x)], course(cn2, y)[taughtby(x)]]",
    )
    .expect("static std");
    let std2 = xmlmap_core::Std::parse(
        "r[prof(x)[supervise[student(s)]]] --> r[student(s)[supervisor(x)]]",
    )
    .expect("static std");
    xmlmap_core::Mapping::new(
        exchange_source_dtd(),
        university_target_dtd(),
        vec![std1, std2],
    )
}

/// Deterministically builds an exchange document: the university body
/// for `professors`/`students` followed by `pads` inert pad records.
pub fn exchange_tree(professors: usize, students: usize, pads: usize) -> Tree {
    let mut t = university_tree(professors, students);
    for i in 0..pads {
        t.add_child(
            Tree::ROOT,
            "pad",
            [
                ("a", Value::str(format!("a{}", i % 10))),
                ("b", Value::str(format!("b{}", i % 10))),
            ],
        );
    }
    t
}

/// Streams the exchange document straight to `out` — byte-for-byte the
/// `xmlmap_trees::xml::to_string` serialisation of [`exchange_tree`] —
/// in O(depth) space, so the ~90MB CI corpus never materialises a tree.
pub fn write_exchange_xml<W: std::io::Write>(
    professors: usize,
    students: usize,
    pads: usize,
    out: &mut W,
) -> std::io::Result<()> {
    if professors == 0 && pads == 0 {
        return writeln!(out, "<r/>");
    }
    writeln!(out, "<r>")?;
    write_professors(professors, students, out)?;
    for i in 0..pads {
        writeln!(out, "  <pad a=\"a{0}\" b=\"b{0}\"/>", i % 10)?;
    }
    writeln!(out, "</r>")
}

/// Streams a deterministic update storm for the exchange document shaped
/// by [`write_exchange_xml`]: `count` operation lines in the `xmlmap
/// delta` updatefile grammar, drawn from a seeded generator. Every
/// operation (or delete/reinsert pair) preserves conformance *and* the
/// root's child count, so the emitted child indices stay valid no matter
/// where in the storm they execute. Most operations rewrite inert pad
/// records — the incremental chase skips every std on those — while a
/// seeded fraction deletes and reinserts a whole professor subtree,
/// exercising firing retraction and replay.
///
/// Panics if `count > 0` while `professors` or `pads` is zero: the storm
/// needs both kinds of record to aim at.
pub fn write_exchange_updates<W: std::io::Write>(
    professors: usize,
    students: usize,
    pads: usize,
    count: usize,
    seed: u64,
    out: &mut W,
) -> std::io::Result<()> {
    assert!(
        count == 0 || (professors > 0 && pads > 0),
        "the exchange update storm needs at least one professor and one pad"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    writeln!(
        out,
        "# {count} update(s) over the exchange corpus (seed {seed})"
    )?;
    let mut emitted = 0usize;
    while emitted < count {
        let pair_ok = count - emitted >= 2;
        match rng.gen_range(0..10u32) {
            // Pad delete/reinsert: a no-refire structural edit.
            7 if pair_ok => {
                let pos = professors + rng.gen_range(0..pads);
                writeln!(out, "delete {pos}")?;
                writeln!(
                    out,
                    "insert . {pos} <pad a=\"a{}\" b=\"b{}\"/>",
                    rng.gen_range(0..10u32),
                    rng.gen_range(0..10u32)
                )?;
                emitted += 2;
            }
            // Professor delete/reinsert: retracts this professor's
            // firings, then replays them.
            8 | 9 if pair_ok => {
                let p = rng.gen_range(0..professors);
                writeln!(out, "delete {p}")?;
                writeln!(out, "insert . {p} {}", professor_xml(p, students))?;
                emitted += 2;
            }
            // Pad attribute rewrite: the skip fast path.
            _ => {
                let pos = professors + rng.gen_range(0..pads);
                let (attr, prefix) = if rng.gen_bool(0.5) {
                    ("a", 'a')
                } else {
                    ("b", 'b')
                };
                writeln!(
                    out,
                    "settext {pos} {attr} {prefix}{}",
                    rng.gen_range(0..10u32)
                )?;
                emitted += 1;
            }
        }
    }
    Ok(())
}

/// One professor subtree as single-line XML — the exact content
/// [`write_professors`] gives professor `p`, so a delete/reinsert pair
/// restores the document byte-for-byte.
fn professor_xml(p: usize, students: usize) -> String {
    let mut s = format!(
        "<prof name=\"p{p}\"><teach><year y=\"y{}\"><course cno=\"c{}\"/>\
         <course cno=\"c{}\"/></year></teach>",
        p % 4,
        2 * p,
        2 * p + 1
    );
    if students == 0 {
        s.push_str("<supervise/>");
    } else {
        s.push_str("<supervise>");
        for st in 0..students {
            s.push_str(&format!("<student sid=\"s{p}_{st}\"/>"));
        }
        s.push_str("</supervise>");
    }
    s.push_str("</prof>");
    s
}

/// Streams the university document for `professors` professors straight
/// to `out` — byte-for-byte the `xmlmap_trees::xml::to_string`
/// serialisation of [`university_tree`] — without ever materialising the
/// tree, so corpora far larger than memory can be generated in O(depth)
/// space (the producer-side twin of `xmlmap stream`).
pub fn write_university_xml<W: std::io::Write>(
    professors: usize,
    students: usize,
    out: &mut W,
) -> std::io::Result<()> {
    if professors == 0 {
        return writeln!(out, "<r/>");
    }
    writeln!(out, "<r>")?;
    write_professors(professors, students, out)?;
    writeln!(out, "</r>")
}

fn write_professors<W: std::io::Write>(
    professors: usize,
    students: usize,
    out: &mut W,
) -> std::io::Result<()> {
    for p in 0..professors {
        writeln!(out, "  <prof name=\"p{p}\">")?;
        writeln!(out, "    <teach>")?;
        writeln!(out, "      <year y=\"y{}\">", p % 4)?;
        writeln!(out, "        <course cno=\"c{}\"/>", 2 * p)?;
        writeln!(out, "        <course cno=\"c{}\"/>", 2 * p + 1)?;
        writeln!(out, "      </year>")?;
        writeln!(out, "    </teach>")?;
        if students == 0 {
            writeln!(out, "    <supervise/>")?;
        } else {
            writeln!(out, "    <supervise>")?;
            for s in 0..students {
                writeln!(out, "      <student sid=\"s{p}_{s}\"/>")?;
            }
            writeln!(out, "    </supervise>")?;
        }
        writeln!(out, "  </prof>")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn streamed_university_matches_the_tree_serialisation() {
        for (p, s) in [(0, 0), (1, 0), (3, 2), (7, 3)] {
            let mut streamed = Vec::new();
            write_university_xml(p, s, &mut streamed).unwrap();
            assert_eq!(
                String::from_utf8(streamed).unwrap(),
                xmlmap_trees::xml::to_string(&university_tree(p, s)),
                "professors={p} students={s}"
            );
        }
    }

    #[test]
    fn streamed_exchange_matches_the_tree_serialisation() {
        for (p, s, pads) in [(0, 0, 0), (0, 0, 4), (1, 0, 0), (3, 2, 11), (7, 3, 25)] {
            let mut streamed = Vec::new();
            write_exchange_xml(p, s, pads, &mut streamed).unwrap();
            assert_eq!(
                String::from_utf8(streamed).unwrap(),
                xmlmap_trees::xml::to_string(&exchange_tree(p, s, pads)),
                "professors={p} students={s} pads={pads}"
            );
        }
    }

    #[test]
    fn exchange_trees_conform_and_pads_are_inert() {
        let d = exchange_source_dtd();
        let m = exchange_mapping();
        for (p, s, pads) in [(0, 0, 3), (2, 1, 0), (4, 2, 50)] {
            let t = exchange_tree(p, s, pads);
            assert!(d.conforms(&t), "professors={p} students={s} pads={pads}");
            assert_eq!(t.size(), 1 + p * (6 + s) + pads);
        }
        // Pads add bytes but no firings: the same chase solution (modulo
        // nulls) comes out regardless of the pad count.
        let lean = xmlmap_core::canonical_solution(&m, &exchange_tree(3, 2, 0)).expect("chases");
        let padded = xmlmap_core::canonical_solution(&m, &exchange_tree(3, 2, 40)).expect("chases");
        assert!(xmlmap_trees::isomorphic_mod_nulls(&lean, &padded));
    }

    #[test]
    fn update_storms_apply_cleanly_and_match_a_full_rechase() {
        let (p, s, pads) = (4, 2, 12);
        let mut script = Vec::new();
        write_exchange_updates(p, s, pads, 60, 0xD317A, &mut script).unwrap();
        let script = String::from_utf8(script).unwrap();
        // Same seed, same bytes: the storm is deterministic.
        let mut again = Vec::new();
        write_exchange_updates(p, s, pads, 60, 0xD317A, &mut again).unwrap();
        assert_eq!(String::from_utf8(again).unwrap(), script);

        let updates = xmlmap_core::parse_updates(&script).unwrap();
        assert_eq!(updates.len(), 60, "comments don't count as operations");
        let m = exchange_mapping();
        let mut session = xmlmap_core::IncrementalChase::new(&m, exchange_tree(p, s, pads));
        for u in &updates {
            session.apply(u).unwrap();
        }
        // Every operation preserved conformance and the child count.
        assert!(exchange_source_dtd().conforms(session.doc()));
        assert_eq!(session.doc().children(Tree::ROOT).len(), p + pads);
        let full = xmlmap_core::canonical_solution(&m, session.doc()).unwrap();
        let incremental = session.canonical_solution().unwrap();
        assert_eq!(*incremental, full);
    }

    #[test]
    fn random_trees_conform() {
        let mut rng = StdRng::seed_from_u64(42);
        let dtds = [
            university_dtd(),
            university_target_dtd(),
            xmlmap_dtd::parse("root r\nr -> (a|b)*, c?\na -> c*\nc @ v").unwrap(),
            xmlmap_dtd::parse("root r\nr -> a\na -> a?, b\nb @ x, y").unwrap(), // recursive
        ];
        for dtd in &dtds {
            for _ in 0..25 {
                let t = random_tree(dtd, &TreeGenConfig::default(), &mut rng);
                assert!(dtd.conforms(&t), "{dtd}\n{t:?}");
            }
        }
    }

    #[test]
    fn size_scales_with_continue_probability() {
        let dtd = xmlmap_dtd::parse("root r\nr -> a*").unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let small: usize = (0..50)
            .map(|_| {
                random_tree(
                    &dtd,
                    &TreeGenConfig {
                        continue_probability: 0.2,
                        ..Default::default()
                    },
                    &mut rng,
                )
                .size()
            })
            .sum();
        let large: usize = (0..50)
            .map(|_| {
                random_tree(
                    &dtd,
                    &TreeGenConfig {
                        continue_probability: 0.9,
                        ..Default::default()
                    },
                    &mut rng,
                )
                .size()
            })
            .sum();
        assert!(large > small, "{large} vs {small}");
    }

    #[test]
    fn node_cap_respected_on_recursive_dtds() {
        let dtd = xmlmap_dtd::parse("root r\nr -> a\na -> a*, b?\nb -> ").unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let config = TreeGenConfig {
            continue_probability: 0.95,
            max_nodes: 200,
            ..Default::default()
        };
        for _ in 0..10 {
            let t = random_tree(&dtd, &config, &mut rng);
            // Cap plus one production's worth of slack.
            assert!(t.size() <= 200 + 64, "{}", t.size());
            assert!(dtd.conforms(&t));
        }
    }

    #[test]
    fn university_tree_conforms_and_scales() {
        let d = university_dtd();
        for (p, s) in [(0, 0), (1, 1), (5, 3), (20, 10)] {
            let t = university_tree(p, s);
            assert!(d.conforms(&t));
            assert_eq!(t.size(), 1 + p * (6 + s));
        }
    }
}
