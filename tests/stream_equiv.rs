//! Differential tests: the streaming O(depth) engines against the
//! tree-based engines, on generated documents that *do* fit the arena.
//!
//! Every case serialises a generated (and sometimes deliberately
//! corrupted) document to XML bytes, runs the one-pass streaming driver
//! ([`xmlmap::core::EngineContext::stream_document`]) over them, and re-parses the same
//! bytes into the arena pipeline (`normalize_attrs` + `Dtd::check`, then
//! `patterns::matches`). The verdicts must agree exactly:
//!
//! * conformance — including attribute-order shuffles (both sides are
//!   order-insensitive), unknown labels, dropped attributes, and dropped
//!   or relabelled subtrees;
//! * membership for streamable downward patterns — defined only on
//!   conforming documents (the streaming pass early-rejects otherwise,
//!   which is asserted too);
//! * firing enumeration — the valuation multisets that
//!   [`StreamEnumerator`] emits in one pass equal the arena evaluator's
//!   `Matcher::all_match_tuples`, tuple for tuple;
//! * the streaming chase — `EngineContext::chase_stream` over serialised
//!   bytes produces
//!   a solution `isomorphic_mod_nulls`-equal to `canonical_solution` on
//!   the parsed tree (same error verdict-for-verdict when the mapping
//!   falls outside the fragment), and withholds the verdict entirely when
//!   a corrupted document fails conformance mid-stream.
//!
//! Roughly 850 cases run in the default `cargo test`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use xmlmap::core::EngineContext;
use xmlmap::dtd::{Dtd, DtdIndex, StreamValidator};
use xmlmap::gen::{random_tree, university_dtd, TreeGenConfig};
use xmlmap::patterns::{
    self, CanonicalAttrs, CompiledPattern, Matcher, StreamEnumerator, StreamPattern,
};
use xmlmap::trees::sax::{BorrowedEvent, SaxReader};
use xmlmap::trees::{isomorphic_mod_nulls, xml, Name, NodeId, Tree, Value};

/// Keep generated documents comfortably arena-sized.
fn config() -> TreeGenConfig {
    TreeGenConfig {
        continue_probability: 0.4,
        value_pool: 4,
        max_nodes: 300,
    }
}

/// A copy of `t` with random, mostly harmless edits: attribute-order
/// shuffles (never a verdict change), and occasional real corruptions —
/// dropped subtrees, relabelled nodes, dropped attributes — that flip a
/// conforming document to non-conforming.
fn perturb(t: &Tree, rng: &mut StdRng) -> Tree {
    fn copy(t: &Tree, n: NodeId, out: &mut Tree, dst: NodeId, rng: &mut StdRng) {
        for &c in t.children(n) {
            if rng.gen_bool(0.02) {
                continue; // drop the whole subtree
            }
            let label: Name = if rng.gen_bool(0.03) {
                "zz".into()
            } else {
                t.label(c).clone()
            };
            let mut attrs: Vec<(Name, Value)> = t.attrs(c).to_vec();
            if attrs.len() >= 2 && rng.gen_bool(0.5) {
                attrs.swap(0, 1); // harmless: both engines are order-insensitive
            }
            if !attrs.is_empty() && rng.gen_bool(0.05) {
                attrs.pop();
            }
            let d = out.add_child(dst, label, attrs);
            copy(t, c, out, d, rng);
        }
    }
    let mut out = Tree::new(t.label(Tree::ROOT).clone());
    copy(t, Tree::ROOT, &mut out, Tree::ROOT, rng);
    out
}

/// The arena-side conformance verdict on raw (document-order) attributes:
/// normalise first, exactly as the CLI/batch pipelines do, then check.
fn tree_conforms(dtd: &Dtd, t: &Tree) -> bool {
    let mut t = t.clone();
    dtd.normalize_attrs(&mut t).is_ok() && dtd.check(&t).is_ok()
}

/// Streams the serialised bytes of `t` against `dtd` on `ctx` and returns
/// the outcome.
fn stream(
    ctx: &EngineContext,
    dtd: &Dtd,
    pattern: Option<&patterns::Pattern>,
    t: &Tree,
) -> xmlmap::core::StreamOutcome {
    let bytes = xml::to_string(t).into_bytes();
    ctx.stream_document(dtd, pattern, bytes.as_slice())
        .expect("serialised docs are well-formed")
}

#[test]
fn conformance_verdicts_match_the_tree_engine() {
    let dtds = [
        university_dtd(),
        xmlmap::gen::university_target_dtd(),
        xmlmap::dtd::parse("root r\nr -> (a|b)*, c?\na -> c*\nc @ v").unwrap(),
        xmlmap::dtd::parse("root r\nr -> a\na -> a?, b\nb @ x, y").unwrap(), // recursive
        xmlmap::dtd::parse("root r\nr -> a*, b*\na @ x, y\nb @ z").unwrap(),
    ];
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let (mut cases, mut invalid) = (0usize, 0usize);
    let ctx = EngineContext::new();
    for dtd in &dtds {
        for _ in 0..30 {
            let clean = random_tree(dtd, &config(), &mut rng);
            for doc in [&clean, &perturb(&clean, &mut rng)] {
                let expected = tree_conforms(dtd, doc);
                let out = stream(&ctx, dtd, None, doc);
                assert_eq!(
                    out.violation.is_none(),
                    expected,
                    "conformance disagreement on\n{}\nstream said {:?}",
                    xml::to_string(doc),
                    out.violation
                );
                cases += 1;
                if !expected {
                    invalid += 1;
                }
            }
        }
    }
    assert_eq!(cases, 300);
    assert!(
        invalid > 10,
        "perturbation produced only {invalid} invalid docs"
    );
}

#[test]
fn membership_verdicts_match_the_tree_engine() {
    let dtd = university_dtd();
    let ctx = EngineContext::new();
    let probes = [
        "r/prof(x)",
        "r//course(c)",
        "r//student(s)",
        "r/prof(x)[teach[year(y)]]",
        "r[prof(x)[supervise[student(s)]]]",
        "r//year(y)[course(c1), course(c2)]",
        "r//supervise[student(s1), student(s2)]",
        "r//_(v)",
        "r/prof(x)[teach[year(y)[course(c)]], supervise]",
        "r//zz",
    ];
    let pats: Vec<patterns::Pattern> = probes.iter().map(|p| patterns::parse(p).unwrap()).collect();
    let mut rng = StdRng::seed_from_u64(0xd1ff);
    let mut cases = 0usize;
    let mut matched = 0usize;
    for _ in 0..25 {
        let doc = random_tree(&dtd, &config(), &mut rng);
        let mut normalised = doc.clone();
        dtd.normalize_attrs(&mut normalised).unwrap();
        for pat in &pats {
            let expected = patterns::matches(&normalised, pat);
            let out = stream(&ctx, &dtd, Some(pat), &doc);
            assert_eq!(out.violation, None);
            assert_eq!(
                out.matched,
                Some(expected),
                "membership disagreement for `{pat}` on\n{}",
                xml::to_string(&doc)
            );
            cases += 1;
            if expected {
                matched += 1;
            }
        }
    }
    assert_eq!(cases, 250);
    assert!(
        matched > 0 && matched < cases,
        "degenerate mix: {matched}/{cases}"
    );
}

#[test]
fn membership_is_withheld_when_conformance_fails() {
    let dtd = university_dtd();
    let ctx = EngineContext::new();
    let pat = patterns::parse("r//student(s)").unwrap();
    let mut rng = StdRng::seed_from_u64(0xbad);
    let mut rejected = 0usize;
    while rejected < 20 {
        let doc = perturb(&random_tree(&dtd, &config(), &mut rng), &mut rng);
        if tree_conforms(&dtd, &doc) {
            continue;
        }
        let out = stream(&ctx, &dtd, Some(&pat), &doc);
        assert!(out.violation.is_some());
        assert_eq!(out.matched, None, "no verdict on a rejected document");
        rejected += 1;
    }
}

/// Serialises the tree and streams it into a [`StreamEnumerator`], with
/// the label masks and the canonical attribute order the one-pass driver
/// uses.
fn enumerate(idx: &Arc<DtdIndex>, plan: &StreamPattern, t: &Tree) -> Vec<Box<[Value]>> {
    let bytes = xml::to_string(t).into_bytes();
    let masks = plan.label_masks(idx.labels());
    let mut reader = SaxReader::new(bytes.as_slice());
    let mut validator = StreamValidator::new(Arc::clone(idx));
    let mut en = StreamEnumerator::new(plan);
    while let Some(event) = reader.next_event().unwrap() {
        match event {
            BorrowedEvent::Open(tag) => {
                let lid = validator.open_tag(&tag).expect("generated trees conform");
                let attrs = CanonicalAttrs::new(&tag, validator.canonical_order());
                en.open(masks.get(lid), &attrs);
            }
            BorrowedEvent::Close(_) => {
                validator.close().expect("generated trees conform");
                en.close();
            }
        }
    }
    en.finish()
}

#[test]
fn firing_enumeration_matches_the_arena_evaluator() {
    let dtd = university_dtd();
    let idx = Arc::new(DtdIndex::new(&dtd));
    let probes = [
        "r/prof(x)",
        "r//course(c)",
        "r//student(s)",
        "r/prof(x)[teach[year(y)]]",
        "r[prof(x)[supervise[student(s)]]]",
        "r//year(y)[course(c1), course(c2)]",
        "r//supervise[student(s1), student(s2)]",
        "r//_(v)",
        "r/prof(x)[teach[year(y)[course(c)]], supervise]",
        "r/prof(p)[teach[year(y)[course(c)]], supervise[student(s)]]",
    ];
    let plans: Vec<(&str, CompiledPattern, StreamPattern)> = probes
        .iter()
        .map(|p| {
            let pat = patterns::parse(p).unwrap();
            let plan = StreamPattern::compile(&pat).expect("downward probes stream");
            (*p, CompiledPattern::new(&pat), plan)
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(0xf1a5);
    let (mut cases, mut nonempty) = (0usize, 0usize);
    for _ in 0..15 {
        let mut doc = random_tree(&dtd, &config(), &mut rng);
        dtd.normalize_attrs(&mut doc).unwrap();
        for (probe, compiled, plan) in &plans {
            let expected = Matcher::new(&doc, compiled).all_match_tuples();
            let streamed = enumerate(&idx, plan, &doc);
            assert_eq!(
                streamed.len(),
                expected.len(),
                "tuple count disagreement for `{probe}` on\n{}",
                xml::to_string(&doc)
            );
            for (s, e) in streamed.iter().zip(&expected) {
                assert!(
                    s.iter().zip(e.iter()).all(|(a, &b)| a == b),
                    "tuple disagreement: streamed {s:?} vs arena {e:?}"
                );
            }
            cases += 1;
            if !expected.is_empty() {
                nonempty += 1;
            }
        }
    }
    assert_eq!(cases, 150);
    assert!(
        nonempty > 0 && nonempty < cases,
        "degenerate mix: {nonempty}/{cases}"
    );
}

#[test]
fn streaming_chase_matches_the_tree_chase_on_random_mappings() {
    let mut rng = StdRng::seed_from_u64(0xc4a5e);
    let gen_config = xmlmap::gen::MappingGenConfig {
        stds: 2,
        depth: 3,
        branch_probability: 0.7,
    };
    let (mut cases, mut solutions, mut fragment_errors, mut unstreamable) =
        (0usize, 0usize, 0usize, 0usize);
    while cases < 100 {
        let source_dtd = xmlmap::gen::random_nr_dtd(3, 2, 0.7, &mut rng);
        let target_dtd = xmlmap::gen::random_nr_dtd(3, 2, 0.7, &mut rng);
        let Some(m) =
            xmlmap::gen::random_nr_mapping(&source_dtd, &target_dtd, &gen_config, &mut rng)
        else {
            continue;
        };
        let ctx = EngineContext::new();
        if ctx.stream_chase_plan(&m).unstreamable().is_some() {
            // Generated source patterns are downward and condition-free,
            // but variable sharing across factors can be unstreamable.
            unstreamable += 1;
            continue;
        }
        for _ in 0..5 {
            let doc = random_tree(&m.source_dtd, &config(), &mut rng);
            let bytes = xml::to_string(&doc).into_bytes();
            let out = ctx.chase_stream(&m, bytes.as_slice()).unwrap();
            assert_eq!(out.violation, None, "generated docs conform");
            let expected = xmlmap::core::canonical_solution(&m, &doc);
            match (out.solution.expect("verdict on a conforming doc"), expected) {
                (Ok(streamed), Ok(tree)) => {
                    assert!(
                        isomorphic_mod_nulls(&streamed, &tree),
                        "solution disagreement on\n{}\nstream:\n{}\ntree:\n{}",
                        m,
                        xml::to_string(&streamed),
                        xml::to_string(&tree)
                    );
                    solutions += 1;
                }
                (Err(a), Err(b)) => {
                    assert_eq!(a, b, "error disagreement on\n{m}");
                    fragment_errors += 1;
                }
                (a, b) => panic!("verdict disagreement on\n{m}\nstream {a:?} vs tree {b:?}"),
            }
            cases += 1;
        }
    }
    assert!(solutions > 50, "only {solutions} solved cases");
    assert!(
        unstreamable < 60,
        "too many unstreamable mappings ({unstreamable}) — suspicious generator drift"
    );
    let _ = fragment_errors; // either mix is fine; parity is what matters
}

#[test]
fn streaming_chase_withholds_the_verdict_on_rejected_documents() {
    let m = xmlmap::gen::exchange_mapping();
    let ctx = EngineContext::new();
    let mut rng = StdRng::seed_from_u64(0xdead);
    let mut rejected = 0usize;
    while rejected < 50 {
        let doc = perturb(
            &xmlmap::gen::exchange_tree(rng.gen_range(1..6), rng.gen_range(0..4), 8),
            &mut rng,
        );
        if tree_conforms(&m.source_dtd, &doc) {
            continue;
        }
        let bytes = xml::to_string(&doc).into_bytes();
        let out = ctx.chase_stream(&m, bytes.as_slice()).unwrap();
        assert!(out.violation.is_some());
        assert_eq!(out.firings, 0, "no firings reported on a rejected doc");
        assert!(out.solution.is_none(), "no verdict on a rejected document");
        rejected += 1;
    }
    assert_eq!(ctx.stats().stream_chase.misses, 1, "plan compiled once");
}

#[test]
fn engine_context_streaming_agrees_with_the_direct_driver() {
    let ctx = EngineContext::new();
    let dtd = university_dtd();
    let pat = patterns::parse("r//year(y)[course(c1), course(c2)]").unwrap();
    let mut rng = StdRng::seed_from_u64(0xc7);
    for _ in 0..10 {
        let doc = random_tree(&dtd, &config(), &mut rng);
        let bytes = xml::to_string(&doc).into_bytes();
        let via_ctx = ctx
            .stream_document(&dtd, Some(&pat), bytes.as_slice())
            .unwrap();
        let direct = stream(&EngineContext::new(), &dtd, Some(&pat), &doc);
        assert_eq!(via_ctx.violation, direct.violation);
        assert_eq!(via_ctx.matched, direct.matched);
        assert_eq!(via_ctx.stats.elements, direct.stats.elements);
    }
    let stats = ctx.stats();
    assert_eq!(stats.stream_jobs, 10);
    assert_eq!(stats.stream_index.misses, 1, "schema compiled once");
    assert_eq!(stats.stream_plans.misses, 1, "plan compiled once");
}
