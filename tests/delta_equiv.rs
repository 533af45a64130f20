//! Differential tests for the incremental delta-chase
//! (`core::chase::delta`): after **every** update in a storm, the live
//! session's [`IncrementalChase::canonical_solution`] must equal a
//! from-scratch [`canonical_solution`] of the mutated document —
//! byte-identical trees (same null labels), identical `ChaseError`
//! verdicts — across random nested-relational mappings, random update
//! storms, adversarial retraction scenarios, and the batch driver's
//! `delta-apply` jobs under different worker counts.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use xmlmap::core::{
    canonical_solution, canonical_solution_cached, parse_updates, render_batch, run_batch,
    BatchJob, ChaseCache, ChaseError, EngineContext, IncrementalChase, JobKind, Mapping, Update,
};
use xmlmap::gen::{self, MappingGenConfig, TreeGenConfig};
use xmlmap::trees::{xml, NodeId, Tree, Value};

/// A from-scratch chase, shared like a session read so the two compare
/// as whole trees and error values.
fn rechase(m: &Mapping, doc: &Tree) -> Result<Arc<Tree>, ChaseError> {
    canonical_solution(m, doc).map(Arc::new)
}

/// [`rechase`] against a caller-held [`ChaseCache`].
fn rechase_cached(m: &Mapping, doc: &Tree, cache: &ChaseCache) -> Result<Arc<Tree>, ChaseError> {
    canonical_solution_cached(m, doc, cache).map(Arc::new)
}

/// Child-index path of `n` (the delta update addressing scheme).
fn path_of(t: &Tree, mut n: NodeId) -> Vec<usize> {
    let mut path = Vec::new();
    while let Some(p) = t.parent(n) {
        let i = t.children(p).iter().position(|&c| c == n).unwrap();
        path.push(i);
        n = p;
    }
    path.reverse();
    path
}

/// Deep copy of the subtree rooted at `n` as a standalone tree.
fn subtree_of(t: &Tree, n: NodeId) -> Tree {
    fn copy(t: &Tree, from: NodeId, sub: &mut Tree, to: NodeId) {
        for &c in t.children(from) {
            let nc = sub.add_child(to, t.label(c).clone(), t.attrs(c).iter().cloned());
            copy(t, c, sub, nc);
        }
    }
    let mut sub = Tree::with_root_attrs(t.label(n).clone(), t.attrs(n).iter().cloned());
    copy(t, n, &mut sub, Tree::ROOT);
    sub
}

/// One random structurally-valid update against the current document:
/// delete a non-root subtree, duplicate a subtree as a new sibling, or
/// rewrite an attribute. Duplications routinely break DTD conformance
/// (a `One`/`Opt` slot gains a second child) — deliberately, so storms
/// exercise the error-verdict path too.
fn random_update(doc: &Tree, rng: &mut StdRng) -> Option<Update> {
    let non_root: Vec<NodeId> = doc.nodes().filter(|&n| n != Tree::ROOT).collect();
    match rng.gen_range(0..4u32) {
        0 => {
            let n = *non_root.get(rng.gen_range(0..non_root.len().max(1)))?;
            Some(Update::DeleteSubtree {
                path: path_of(doc, n),
            })
        }
        1 => {
            let n = *non_root.get(rng.gen_range(0..non_root.len().max(1)))?;
            let parent = doc.parent(n).unwrap();
            let pos = rng.gen_range(0..=doc.children(parent).len());
            Some(Update::InsertSubtree {
                parent: path_of(doc, parent),
                pos,
                subtree: subtree_of(doc, n),
            })
        }
        _ => {
            let with_attrs: Vec<NodeId> =
                doc.nodes().filter(|&n| !doc.attrs(n).is_empty()).collect();
            let n = *with_attrs.get(rng.gen_range(0..with_attrs.len().max(1)))?;
            let attrs = doc.attrs(n);
            let (attr, _) = &attrs[rng.gen_range(0..attrs.len())];
            Some(Update::ReplaceText {
                path: path_of(doc, n),
                attr: attr.clone(),
                value: Value::str(format!("v{}", rng.gen_range(0..6u32))),
            })
        }
    }
}

/// The main differential sweep: ~400 random (mapping, document, storm)
/// cases, parity with a full re-chase asserted after **every** operation.
#[test]
fn random_update_storms_track_the_full_chase() {
    let mut storm_rng = StdRng::seed_from_u64(0xD317A);
    let mut cases = 0usize;
    let mut ops_applied = 0usize;
    let mut err_verdicts = 0usize;
    let mut seed = 0u64;
    while cases < 400 {
        seed += 1;
        let mut rng = StdRng::seed_from_u64(seed);
        let ds = gen::random_nr_dtd(3, 2, 0.6, &mut rng);
        let dt = gen::random_nr_dtd(3, 2, 0.6, &mut rng);
        let config = MappingGenConfig {
            stds: 3,
            depth: 3,
            branch_probability: 0.6,
        };
        let Some(m) = gen::random_nr_mapping(&ds, &dt, &config, &mut rng) else {
            continue;
        };
        let doc = gen::random_tree(
            &ds,
            &TreeGenConfig {
                continue_probability: 0.6,
                max_nodes: 80,
                ..Default::default()
            },
            &mut rng,
        );
        let cache = ChaseCache::new(&m);
        let mut session = IncrementalChase::new(&m, doc);
        for _ in 0..storm_rng.gen_range(1..=50usize) {
            let Some(u) = random_update(session.doc(), &mut storm_rng) else {
                break;
            };
            session
                .apply(&u)
                .expect("structurally valid updates are accepted");
            ops_applied += 1;
            let full = rechase_cached(&m, session.doc(), &cache);
            err_verdicts += usize::from(full.is_err());
            let incremental = session.canonical_solution();
            assert_eq!(
                incremental, full,
                "case {seed}: delta chase diverged from full re-chase"
            );
        }
        cases += 1;
    }
    assert!(ops_applied >= 2_000, "storms were real: {ops_applied} ops");
    assert!(
        err_verdicts > 0,
        "storms never hit an error verdict — coverage regressed"
    );
}

/// Deleting a subtree and reinserting the identical subtree restores the
/// original canonical solution byte-for-byte: no stale nulls leak out of
/// the retraction, and the replayed firings reproduce the exact labels a
/// from-scratch chase invents.
#[test]
fn delete_then_reinsert_restores_the_solution_without_null_leaks() {
    let m = gen::exchange_mapping();
    let original = gen::exchange_tree(5, 2, 8);
    let prof = subtree_of(&original, original.children(Tree::ROOT)[2]);
    let mut session = IncrementalChase::new(&m, original.clone());
    let before = session.canonical_solution().expect("exchange doc chases");

    session
        .apply(&Update::DeleteSubtree { path: vec![2] })
        .unwrap();
    assert_eq!(
        session.canonical_solution(),
        rechase(&m, session.doc()),
        "parity holds mid-flight, with the professor gone"
    );
    session
        .apply(&Update::InsertSubtree {
            parent: vec![],
            pos: 2,
            subtree: prof,
        })
        .unwrap();
    assert_eq!(
        xml::to_string(session.doc()),
        xml::to_string(&original),
        "the reinsert restored the document"
    );
    let after = session.canonical_solution().expect("chases again");
    assert_eq!(after, before, "solution restored byte-for-byte");
}

/// An update can retract a unification that merged two slot cursors: two
/// constants forced into one rigid slot is a `ValueConflict`, and deleting
/// one of the sources must heal the session back to a solution — the same
/// verdict trajectory a from-scratch chase reports at every step.
#[test]
fn retracting_a_merging_update_heals_a_value_conflict() {
    let m = Mapping::parse(
        "[source]\nroot r\nr -> a*\na @ v\n\
         [target]\nroot r\nr -> b\nb @ w\n\
         [stds]\nr/a(x) --> r/b(x)\n",
    )
    .unwrap();
    let mut session = IncrementalChase::new(&m, xml::parse(r#"<r><a v="1"/></r>"#).unwrap());
    assert!(session.canonical_solution().is_ok());

    session
        .apply(&Update::InsertSubtree {
            parent: vec![],
            pos: 1,
            subtree: xml::parse(r#"<a v="2"/>"#).unwrap(),
        })
        .unwrap();
    let conflict = session.canonical_solution();
    assert!(
        matches!(conflict, Err(ChaseError::ValueConflict(_))),
        "two constants in one rigid slot: {conflict:?}"
    );
    assert_eq!(conflict, rechase(&m, session.doc()));

    session
        .apply(&Update::DeleteSubtree { path: vec![1] })
        .unwrap();
    let healed = session.canonical_solution().expect("conflict retracted");
    assert_eq!(healed, rechase(&m, session.doc()).unwrap());
    assert_eq!(healed.attrs(healed.children(Tree::ROOT)[0])[0].1, {
        Value::str("1")
    });
}

/// Updates that break DTD conformance flip the verdict to
/// `SourceNotConforming` — identically on both engines — and conformance-
/// restoring updates flip it back.
#[test]
fn conformance_verdicts_agree_through_break_and_repair() {
    let m = Mapping::parse(
        "[source]\nroot r\nr -> a\na @ v\n\
         [target]\nroot r\nr -> b*\nb @ w\n\
         [stds]\nr/a(x) --> r/b(x)\n",
    )
    .unwrap();
    let mut session = IncrementalChase::new(&m, xml::parse(r#"<r><a v="7"/></r>"#).unwrap());
    assert!(session.source_conforms());

    session
        .apply(&Update::DeleteSubtree { path: vec![0] })
        .unwrap();
    assert!(!session.source_conforms());
    assert_eq!(
        session.canonical_solution(),
        Err(ChaseError::SourceNotConforming)
    );
    assert_eq!(
        canonical_solution(&m, session.doc()),
        Err(ChaseError::SourceNotConforming)
    );

    session
        .apply(&Update::InsertSubtree {
            parent: vec![],
            pos: 0,
            subtree: xml::parse(r#"<a v="8"/>"#).unwrap(),
        })
        .unwrap();
    assert!(session.source_conforms());
    let healed = session.canonical_solution().expect("conforms again");
    assert_eq!(healed, rechase(&m, session.doc()).unwrap());
}

/// `delta-apply` batch jobs render byte-identically on 1, 2, and 8
/// workers: each job owns its session, so scheduling order cannot bleed
/// into results.
#[test]
fn delta_apply_batches_are_deterministic_across_worker_counts() {
    let mapping = Arc::new(gen::exchange_mapping());
    let mut jobs = Vec::new();
    for seed in 0..12u64 {
        let mut script = Vec::new();
        gen::write_exchange_updates(4, 2, 10, 21, seed, &mut script).unwrap();
        let updates = parse_updates(std::str::from_utf8(&script).unwrap()).unwrap();
        jobs.push(BatchJob {
            label: format!("delta storm {seed}"),
            kind: JobKind::DeltaApply {
                mapping: mapping.clone(),
                source: gen::exchange_tree(4, 2, 10),
                updates: Arc::new(updates),
            },
        });
    }
    let render = |workers: usize| {
        let ctx = EngineContext::new();
        render_batch(&jobs, &run_batch(&ctx, &jobs, workers))
    };
    let one = render(1);
    assert!(one.contains("delta-chased"), "jobs ran: {one}");
    assert_eq!(one, render(2), "2 workers diverge from serial");
    assert_eq!(one, render(8), "8 workers diverge from serial");
}

// ---------------------------------------------------------------------------
// Read schedules: a session resyncs at its reads, so how often it is read
// must never change what a read returns.
// ---------------------------------------------------------------------------

/// Replays `ops` on a fresh session over `doc`, reading after op `i` iff
/// `read_after(i)`. Every read must equal a from-scratch chase of the
/// document at that point; the reads are returned by op index.
fn reads_under_schedule(
    m: &Mapping,
    doc: &Tree,
    ops: &[Update],
    cache: &ChaseCache,
    read_after: impl Fn(usize) -> bool,
) -> Vec<Option<Result<Arc<Tree>, ChaseError>>> {
    let mut session = IncrementalChase::new(m, doc.clone());
    ops.iter()
        .enumerate()
        .map(|(i, u)| {
            session.apply(u).expect("the storm applied once already");
            read_after(i).then(|| {
                let incremental = session.canonical_solution();
                let full = rechase_cached(m, session.doc(), cache);
                assert_eq!(incremental, full, "read after op {i} diverged");
                incremental
            })
        })
        .collect()
}

/// Draws a storm of up to `max_ops` random updates against `doc`, then
/// runs it three ways: a read after every op, a read after every `k`-th
/// op, and a single read at the end. Each read equals a from-scratch
/// chase, and the schedules agree wherever they both read. Returns the
/// storm's length and whether its final verdict was an error.
fn check_read_schedules(
    m: &Mapping,
    doc: Tree,
    storm_rng: &mut StdRng,
    max_ops: usize,
    k: usize,
) -> (usize, bool) {
    let cache = ChaseCache::new(m);
    // The end-only schedule doubles as the storm's generator: its
    // document evolves exactly as the other schedules' will.
    let mut end_only = IncrementalChase::new(m, doc.clone());
    let mut ops = Vec::new();
    for _ in 0..max_ops {
        let Some(u) = random_update(end_only.doc(), storm_rng) else {
            break;
        };
        end_only
            .apply(&u)
            .expect("structurally valid updates are accepted");
        ops.push(u);
    }
    if ops.is_empty() {
        return (0, false);
    }
    let last = end_only.canonical_solution();
    assert_eq!(
        last,
        rechase_cached(m, end_only.doc(), &cache),
        "a read only at the end diverged"
    );
    let every = reads_under_schedule(m, &doc, &ops, &cache, |_| true);
    let every_k = reads_under_schedule(m, &doc, &ops, &cache, |i| (i + 1) % k == 0);
    for (i, (a, b)) in every.iter().zip(&every_k).enumerate() {
        if let Some(b) = b {
            assert_eq!(
                a.as_ref(),
                Some(b),
                "every-op vs every-{k}th read at op {i}"
            );
        }
    }
    assert_eq!(
        every.last().and_then(Option::as_ref),
        Some(&last),
        "every-op vs end-only read"
    );
    (ops.len(), last.is_err())
}

/// The sweep of `random_update_storms_track_the_full_chase`, read on three
/// schedules: null labels and error verdicts must not depend on how many
/// edits a resync batches.
#[test]
fn read_schedules_agree_with_the_full_chase() {
    let mut storm_rng = StdRng::seed_from_u64(0x5C4ED);
    let mut cases = 0usize;
    let mut ops_applied = 0usize;
    let mut err_verdicts = 0usize;
    let mut seed = 0u64;
    while cases < 200 {
        seed += 1;
        let mut rng = StdRng::seed_from_u64(seed);
        let ds = gen::random_nr_dtd(3, 2, 0.6, &mut rng);
        let dt = gen::random_nr_dtd(3, 2, 0.6, &mut rng);
        let config = MappingGenConfig {
            stds: 3,
            depth: 3,
            branch_probability: 0.6,
        };
        let Some(m) = gen::random_nr_mapping(&ds, &dt, &config, &mut rng) else {
            continue;
        };
        let doc = gen::random_tree(
            &ds,
            &TreeGenConfig {
                continue_probability: 0.6,
                max_nodes: 80,
                ..Default::default()
            },
            &mut rng,
        );
        let max_ops = storm_rng.gen_range(1..=50usize);
        let k = storm_rng.gen_range(2..=7usize);
        let (ops, err) = check_read_schedules(&m, doc, &mut storm_rng, max_ops, k);
        ops_applied += ops;
        err_verdicts += usize::from(err);
        cases += 1;
    }
    assert!(ops_applied >= 1_000, "storms were real: {ops_applied} ops");
    assert!(
        err_verdicts > 0,
        "no storm ended on an error verdict — coverage regressed"
    );
}

/// Horizontal source patterns widen the frontier to the edit point's
/// siblings; batching several such edits into one resync must still
/// track the full chase, on random storms and on an adjacency broken and
/// restored between two reads.
#[test]
fn horizontal_mappings_agree_across_read_schedules() {
    let m = Mapping::parse(
        "[source]\nroot r\nr -> (a|c)*\na @ v\nc @ w\n\
         [target]\nroot r\nr -> b*\nb @ w\n\
         [stds]\nr[a(x) -> a(y)] --> r[b(x), b(y)]\nr[c(x) ->* a(y)] --> r/b(y)\n",
    )
    .unwrap();
    let mut storm_rng = StdRng::seed_from_u64(0x4051);
    for case in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(case);
        let doc = gen::random_tree(
            &m.source_dtd,
            &TreeGenConfig {
                continue_probability: 0.8,
                max_nodes: 30,
                ..Default::default()
            },
            &mut rng,
        );
        let k = storm_rng.gen_range(2..=7usize);
        check_read_schedules(&m, doc, &mut storm_rng, 30, k);
    }

    let mut session = IncrementalChase::new(
        &m,
        xml::parse(r#"<r><a v="1"/><a v="2"/><c w="3"/></r>"#).unwrap(),
    );
    let before = session.canonical_solution().expect("chases");
    // A c between the two a's breaks their adjacency; deleting it again
    // before the read restores it.
    session
        .apply(&Update::InsertSubtree {
            parent: vec![],
            pos: 1,
            subtree: xml::parse(r#"<c w="9"/>"#).unwrap(),
        })
        .unwrap();
    session
        .apply(&Update::DeleteSubtree { path: vec![1] })
        .unwrap();
    assert_eq!(session.canonical_solution(), Ok(before));
    // Left in place, the break shows at the next read.
    session
        .apply(&Update::InsertSubtree {
            parent: vec![],
            pos: 1,
            subtree: xml::parse(r#"<c w="9"/>"#).unwrap(),
        })
        .unwrap();
    assert_eq!(session.canonical_solution(), rechase(&m, session.doc()));
}

/// A `ValueConflict` introduced and healed between two reads never
/// surfaces, and costs no replay; one left in place surfaces at the next
/// read and heals at the one after.
#[test]
fn a_value_conflict_healed_between_reads_never_surfaces() {
    let m = Mapping::parse(
        "[source]\nroot r\nr -> a*\na @ v\n\
         [target]\nroot r\nr -> b\nb @ w\n\
         [stds]\nr/a(x) --> r/b(x)\n",
    )
    .unwrap();
    let conflicting = || Update::InsertSubtree {
        parent: vec![],
        pos: 1,
        subtree: xml::parse(r#"<a v="2"/>"#).unwrap(),
    };
    let mut session = IncrementalChase::new(&m, xml::parse(r#"<r><a v="1"/></r>"#).unwrap());
    let before = session.canonical_solution().expect("one value chases");
    let replays = session.stats().replays;

    session.apply(&conflicting()).unwrap();
    session
        .apply(&Update::DeleteSubtree { path: vec![1] })
        .unwrap();
    assert_eq!(session.canonical_solution(), Ok(before.clone()));
    assert_eq!(
        session.stats().replays,
        replays,
        "the conflicting firing was never applied"
    );

    session.apply(&conflicting()).unwrap();
    let conflict = session.canonical_solution();
    assert!(
        matches!(conflict, Err(ChaseError::ValueConflict(_))),
        "two constants in one rigid slot: {conflict:?}"
    );
    assert_eq!(conflict, rechase(&m, session.doc()));
    session
        .apply(&Update::DeleteSubtree { path: vec![1] })
        .unwrap();
    assert_eq!(session.canonical_solution(), Ok(before));
}

/// A conformance break repaired before the next read leaves no trace; a
/// break left in place reports `SourceNotConforming` like the full chase.
#[test]
fn a_conformance_break_repaired_between_reads_leaves_no_trace() {
    let m = Mapping::parse(
        "[source]\nroot r\nr -> a\na @ v\n\
         [target]\nroot r\nr -> b*\nb @ w\n\
         [stds]\nr/a(x) --> r/b(x)\n",
    )
    .unwrap();
    let mut session = IncrementalChase::new(&m, xml::parse(r#"<r><a v="7"/></r>"#).unwrap());
    assert!(session.canonical_solution().is_ok());

    session
        .apply(&Update::DeleteSubtree { path: vec![0] })
        .unwrap();
    session
        .apply(&Update::InsertSubtree {
            parent: vec![],
            pos: 0,
            subtree: xml::parse(r#"<a v="8"/>"#).unwrap(),
        })
        .unwrap();
    assert!(session.source_conforms());
    let repaired = session.canonical_solution().expect("conforms again");
    assert_eq!(repaired, rechase(&m, session.doc()).unwrap());

    session
        .apply(&Update::InsertSubtree {
            parent: vec![],
            pos: 1,
            subtree: xml::parse(r#"<a v="9"/>"#).unwrap(),
        })
        .unwrap();
    session
        .apply(&Update::DeleteSubtree { path: vec![0] })
        .unwrap();
    session
        .apply(&Update::InsertSubtree {
            parent: vec![],
            pos: 0,
            subtree: xml::parse(r#"<a v="4"/>"#).unwrap(),
        })
        .unwrap();
    assert_eq!(
        session.canonical_solution(),
        Err(ChaseError::SourceNotConforming)
    );
    assert_eq!(
        canonical_solution(&m, session.doc()),
        Err(ChaseError::SourceNotConforming)
    );
    session
        .apply(&Update::DeleteSubtree { path: vec![1] })
        .unwrap();
    let healed = session.canonical_solution().expect("conforms again");
    assert_eq!(healed, rechase(&m, session.doc()).unwrap());
}

/// A script that stops at a bad path keeps the ops before it; the next
/// read resyncs them and equals a from-scratch chase.
#[test]
fn a_script_failing_midway_is_read_exactly() {
    let m = Mapping::parse(
        "[source]\nroot r\nr -> a*\na @ v\n\
         [target]\nroot r\nr -> b*\nb @ w\n\
         [stds]\nr/a(x) --> r/b(x)\n",
    )
    .unwrap();
    let mut session = IncrementalChase::new(&m, xml::parse(r#"<r><a v="1"/></r>"#).unwrap());
    let script = parse_updates(
        "insert . 0 <a v=\"5\"/>\n\
         settext 0 v 6\n\
         delete 9\n\
         settext 0 v 7\n",
    )
    .unwrap();
    let err = session.apply_all(&script).unwrap_err();
    assert!(err.starts_with("update #3:"), "{err}");
    assert_eq!(
        xml::to_string(session.doc()),
        xml::to_string(&xml::parse(r#"<r><a v="6"/><a v="1"/></r>"#).unwrap()),
        "the two ops before the bad path were applied"
    );
    let read = session.canonical_solution().expect("chases");
    assert_eq!(read, rechase(&m, session.doc()).unwrap());
}

// ---------------------------------------------------------------------------
// Restricted re-match: a downward std's firings are counted per embedding
// and diffed at each edit through the edit's ancestor path, so the mapping
// shapes below — which the nested-relational generator never emits — pin
// that enumeration to the full chase.
// ---------------------------------------------------------------------------

/// A recursive source DTD: `a` nests, and `c` sits at several depths.
const FAMILY_SOURCE: &str = "root r\nr -> a*, b*\na -> a*, b*, c?\nb -> c*\na @ v\nb @ w\nc @ u\n";

fn family_mapping(stds: &[&str]) -> Mapping {
    Mapping::parse(&format!(
        "[source]\n{FAMILY_SOURCE}[target]\nroot r\nr -> o*\no @ p, q\n[stds]\n{}\n",
        stds.join("\n")
    ))
    .unwrap()
}

/// `random_update`, plus grafts of a copy of one subtree under another
/// node: unlike a duplicated sibling, such a graft can make a pattern
/// newly feasible several levels above the edit.
fn random_family_update(doc: &Tree, rng: &mut StdRng) -> Option<Update> {
    if rng.gen_range(0..3u32) > 0 {
        return random_update(doc, rng);
    }
    let nodes: Vec<NodeId> = doc.nodes().collect();
    let from = nodes[rng.gen_range(0..nodes.len())];
    let to = nodes[rng.gen_range(0..nodes.len())];
    Some(Update::InsertSubtree {
        parent: path_of(doc, to),
        pos: rng.gen_range(0..=doc.children(to).len()),
        subtree: subtree_of(doc, from),
    })
}

/// `check_read_schedules` over storms of `random_family_update`.
fn check_family_schedules(
    m: &Mapping,
    doc: Tree,
    storm_rng: &mut StdRng,
    max_ops: usize,
    k: usize,
) -> usize {
    let cache = ChaseCache::new(m);
    let mut end_only = IncrementalChase::new(m, doc.clone());
    let mut ops = Vec::new();
    for _ in 0..max_ops {
        let Some(u) = random_family_update(end_only.doc(), storm_rng) else {
            break;
        };
        end_only
            .apply(&u)
            .expect("structurally valid updates are accepted");
        ops.push(u);
    }
    let last = end_only.canonical_solution();
    assert_eq!(
        last,
        rechase_cached(m, end_only.doc(), &cache),
        "a read only at the end diverged"
    );
    let every = reads_under_schedule(m, &doc, &ops, &cache, |_| true);
    let every_k = reads_under_schedule(m, &doc, &ops, &cache, |i| (i + 1) % k == 0);
    for (i, (a, b)) in every.iter().zip(&every_k).enumerate() {
        if let Some(b) = b {
            assert_eq!(
                a.as_ref(),
                Some(b),
                "every-op vs every-{k}th read at op {i}"
            );
        }
    }
    if let Some(Some(read)) = every.last() {
        assert_eq!(read, &last, "every-op vs end-only read");
    }
    ops.len()
}

/// Hand-written mapping families over random documents, each storm read
/// on three schedules (every op, every k-th op, end only):
/// `//` and `_`; a repeated variable; a root with two items, an edit
/// reaching only one; few values, so many embeddings share one tuple;
/// patterns shallower than the edits; a node bound by two pattern nodes;
/// and `→`/`→*` stds (re-matched in full) beside downward ones.
#[test]
fn restricted_rematch_families_agree_across_read_schedules() {
    let families: &[&[&str]] = &[
        &["r//a(x)[_(y)] --> r/o(x, y)", "r[_//c(x)] --> r/o(x, x)"],
        &["r[a(x)/b(y), b(y)] --> r/o(x, y)"],
        &["r[a(x), b(y)] --> r/o(x, y)"],
        &["r/a(x) --> r/o(x, x)", "r//c(x) --> r/o(x, x)"],
        &["r/a(x)/a(y) --> r/o(x, y)", "r/b(x) --> r/o(x, x)"],
        &[
            "r[a(x)/b(y), //b(z)] --> r/o(y, z)",
            "r[a(x), _(y)] --> r/o(x, y)",
        ],
        &[
            "r[a(x) -> b(y)] --> r/o(x, y)",
            "r/a(x)/b(y) --> r/o(x, y)",
            "r[a(x) ->* a(y)] --> r/o(x, y)",
            "r//c(x) --> r/o(x, x)",
        ],
    ];
    let mut ops = 0usize;
    for (f, stds) in families.iter().enumerate() {
        let m = family_mapping(stds);
        for case in 0..25u64 {
            let mut rng = StdRng::seed_from_u64(1_000 * f as u64 + case);
            let doc = gen::random_tree(
                &m.source_dtd,
                &TreeGenConfig {
                    continue_probability: 0.7,
                    value_pool: 3,
                    max_nodes: 40,
                },
                &mut rng,
            );
            let k = rng.gen_range(2..=5usize);
            ops += check_family_schedules(&m, doc, &mut rng, 30, k);
        }
    }
    assert!(ops >= 2_000, "storms were real: {ops} ops");
}

/// Two embeddings derive one firing: deleting either keeps it, and only
/// deleting both retracts it.
#[test]
fn a_firing_survives_until_its_last_embedding_goes() {
    let m = family_mapping(&["r/a(x) --> r/o(x, x)"]);
    let doc = xml::parse(r#"<r><a v="1"/><a v="1"/><a v="2"/></r>"#).unwrap();
    let mut session = IncrementalChase::new(&m, doc);
    let both = session.canonical_solution().unwrap();
    assert_eq!(both.children(Tree::ROOT).len(), 2, "firings x=1, x=2");
    session
        .apply(&Update::DeleteSubtree { path: vec![0] })
        .unwrap();
    assert_eq!(session.canonical_solution(), Ok(both));
    session
        .apply(&Update::DeleteSubtree { path: vec![0] })
        .unwrap();
    let one = session.canonical_solution().unwrap();
    assert_eq!(one.children(Tree::ROOT).len(), 1, "only x=2 is left");
    assert_eq!(Ok(one), rechase(&m, session.doc()));
}

/// A `settext` on a node two pattern nodes bind — and edits below every
/// pattern node's depth — each read equal to the full chase.
#[test]
fn text_edits_on_doubly_bound_nodes_and_deep_edits_track_the_full_chase() {
    let m = family_mapping(&[
        "r[a(x)/b(y), //b(z)] --> r/o(y, z)",
        "r[a(x), _(y)] --> r/o(x, y)",
        "r/a(x) --> r/o(x, x)",
    ]);
    let doc = xml::parse(
        r#"<r><a v="1"><a v="2"><c u="3"/></a><b w="4"/></a><b w="5"><c u="6"/></b></r>"#,
    )
    .unwrap();
    let mut session = IncrementalChase::new(&m, doc);
    let script = parse_updates(
        "settext 0/1 w 9\n\
         settext 0 v 9\n\
         insert 0/0 0 <a v=\"7\"><b w=\"8\"/></a>\n\
         settext 0/0/0/0 w 1\n\
         delete 0/0/1\n\
         insert 1 0 <c u=\"2\"/>\n\
         delete 0/0/0\n",
    )
    .unwrap();
    for (i, u) in script.iter().enumerate() {
        session.apply(u).unwrap();
        assert_eq!(
            session.canonical_solution(),
            rechase(&m, session.doc()),
            "after op {i}"
        );
    }
}

// ---------------------------------------------------------------------------
// Per-parent content-model runs: an edit re-steps its parent's kept run
// from the edit point, and falls back to a whole-word check when the run
// dies. The verdicts must stay `Dtd::check`'s.
// ---------------------------------------------------------------------------

/// A read and the session's conformance verdict both equal their
/// from-scratch counterparts.
fn assert_parity(m: &Mapping, session: &mut IncrementalChase, at: &str) {
    assert_eq!(
        session.source_conforms(),
        m.source_dtd.check(session.doc()).is_ok(),
        "{at}: conformance verdict"
    );
    assert_eq!(
        session.canonical_solution(),
        rechase(m, session.doc()),
        "{at}: read"
    );
}

/// A `pad` among the professors breaks the root's `prof*, pad*` word, an
/// unknown label breaks it differently, and removing either heals it; the
/// root already has its run before each break.
#[test]
fn breaking_and_healing_the_root_word_tracks_the_full_check() {
    let m = gen::exchange_mapping();
    let doc = gen::exchange_tree(5, 2, 8);
    let prof = subtree_of(&doc, doc.children(Tree::ROOT)[1]);
    let mut session = IncrementalChase::new(&m, doc);
    // A professor commit: the first edit under the root builds its run.
    session
        .apply(&Update::DeleteSubtree { path: vec![1] })
        .unwrap();
    session
        .apply(&Update::InsertSubtree {
            parent: vec![],
            pos: 1,
            subtree: prof.clone(),
        })
        .unwrap();
    assert_parity(&m, &mut session, "after the professor commit");
    assert!(session.source_conforms());

    for (what, fragment) in [
        ("a pad among the professors", r#"<pad a="a0" b="b0"/>"#),
        ("an unknown label", "<zzz/>"),
    ] {
        session
            .apply(&Update::InsertSubtree {
                parent: vec![],
                pos: 3,
                subtree: xml::parse(fragment).unwrap(),
            })
            .unwrap();
        assert!(!session.source_conforms(), "{what} conforms");
        assert_parity(&m, &mut session, what);
        session
            .apply(&Update::DeleteSubtree { path: vec![3] })
            .unwrap();
        assert!(session.source_conforms(), "removing {what} did not heal");
        assert_parity(&m, &mut session, &format!("{what} removed"));
        // The healed root takes another professor commit and a pad at
        // the end of its word, both legal.
        session
            .apply(&Update::DeleteSubtree { path: vec![1] })
            .unwrap();
        assert_parity(&m, &mut session, &format!("{what}: professor gone"));
        session
            .apply(&Update::InsertSubtree {
                parent: vec![],
                pos: 1,
                subtree: prof.clone(),
            })
            .unwrap();
        let end = session.doc().children(Tree::ROOT).len();
        session
            .apply(&Update::InsertSubtree {
                parent: vec![],
                pos: end,
                subtree: xml::parse(r#"<pad a="a1" b="b1"/>"#).unwrap(),
            })
            .unwrap();
        assert_parity(&m, &mut session, &format!("{what}: healed and edited"));
    }
    // A professor after the pads breaks the word at its end.
    let end = session.doc().children(Tree::ROOT).len();
    session
        .apply(&Update::InsertSubtree {
            parent: vec![],
            pos: end,
            subtree: prof,
        })
        .unwrap();
    assert!(!session.source_conforms());
    assert_parity(&m, &mut session, "a professor after the pads");
}

/// Professor deletes under the root until the session compacts its
/// document, renumbering every node: the runs of the root and of the last
/// professor's `supervise` must follow their nodes, so the edits after the
/// compaction keep parity.
#[test]
fn a_compaction_between_two_edits_on_one_parent_keeps_parity() {
    let m = gen::exchange_mapping();
    let doc = gen::exchange_tree(6, 2, 4);
    let prof = subtree_of(&doc, doc.children(Tree::ROOT)[0]);
    let student = || xml::parse(r#"<student sid="s9"/>"#).unwrap();
    let pad = || xml::parse(r#"<pad a="a0" b="b0"/>"#).unwrap();
    let mut session = IncrementalChase::new(&m, doc);
    // The first edit under the last professor's `supervise` builds its run.
    session
        .apply(&Update::InsertSubtree {
            parent: vec![5, 1],
            pos: 0,
            subtree: student(),
        })
        .unwrap();
    assert_parity(&m, &mut session, "a student inserted");
    let mut deleted = 0;
    loop {
        let detached = session.doc().size() - session.doc().nodes().count();
        session
            .apply(&Update::DeleteSubtree { path: vec![0] })
            .unwrap();
        deleted += 1;
        assert_parity(&m, &mut session, "a professor deleted");
        if detached > 0 && session.doc().size() == session.doc().nodes().count() {
            break;
        }
        assert!(deleted < 5, "no compaction");
    }
    let supervise = vec![5 - deleted, 1];
    session
        .apply(&Update::DeleteSubtree {
            path: [supervise.clone(), vec![0]].concat(),
        })
        .unwrap();
    assert_parity(&m, &mut session, "a student deleted after the compaction");
    for (what, parent, pos, subtree) in [
        ("a pad under supervise", supervise.clone(), 1, pad()),
        ("a professor at the front", vec![], 0, prof),
        ("a pad among the professors", vec![], 1, pad()),
    ] {
        session
            .apply(&Update::InsertSubtree {
                parent,
                pos,
                subtree,
            })
            .unwrap();
        assert!(!session.source_conforms(), "{what} conforms");
        assert_parity(&m, &mut session, what);
    }
    for (what, path) in [
        ("the pad among the professors removed", vec![1]),
        // The professor inserted at the front shifted `supervise`'s parent.
        ("the pad under supervise removed", vec![6 - deleted, 1, 1]),
    ] {
        session.apply(&Update::DeleteSubtree { path }).unwrap();
        assert_parity(&m, &mut session, what);
    }
    assert!(session.source_conforms());
}
