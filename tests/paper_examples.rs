//! Every concrete example in the paper, as an executable test.
//!
//! Section by section: the introduction's three mappings, the relational
//! encoding of §3, the inconsistency example of §5, the absolute-consistency
//! counterexample of §6, and the two composition counterexamples of §8
//! (Prop 8.1) that motivate the closed class of Thm 8.2.

use xmlmap::prelude::*;
use xmlmap::trees::tree;

fn dtd(s: &str) -> Dtd {
    xmlmap::dtd::parse(s).unwrap()
}

fn pat(s: &str) -> Pattern {
    xmlmap::patterns::parse(s).unwrap()
}

// ───────────────────────── §1: the three intro mappings ─────────────────

fn d1() -> Dtd {
    xmlmap::gen::university_dtd()
}

fn d2() -> Dtd {
    xmlmap::gen::university_target_dtd()
}

fn ada() -> Tree {
    tree! {
        "r" [ "prof"("name" = "Ada") [
            "teach" [ "year"("y" = "2008") [
                "course"("cno" = "cs1"),
                "course"("cno" = "cs2"),
            ] ],
            "supervise" [ "student"("sid" = "Sue") ],
        ] ]
    }
}

#[test]
fn intro_first_mapping_restructures() {
    let ctx = EngineContext::new();
    // π₁ → π₂ (first figure): plain restructuring.
    let m = Mapping::new(
        d1(),
        d2(),
        vec![Std::parse(
            "r[prof(x)[teach[year(y)[course(cn1), course(cn2)]], supervise[student(s)]]] \
             --> r[course(cn1, y)[taughtby(x)], course(cn2, y)[taughtby(x)], \
                   student(s)[supervisor(x)]]",
        )
        .unwrap()],
    );
    let solution = ctx.canonical_solution(&m, &ada()).unwrap();
    assert!(m.is_solution(&ada(), &solution));
    // Both courses appear with Ada as the teacher.
    let courses = pat("r/course(c, y)/taughtby(t)");
    let ms = xmlmap::patterns::all_matches(&solution, &courses);
    let teachers: Vec<_> = ms.iter().map(|v| v[&Name::new("t")].to_string()).collect();
    assert!(teachers.iter().all(|t| t == "Ada"));
    let cnos: std::collections::BTreeSet<String> =
        ms.iter().map(|v| v[&Name::new("c")].to_string()).collect();
    assert_eq!(cnos, ["cs1", "cs2"].iter().map(|s| s.to_string()).collect());
}

#[test]
fn intro_second_mapping_inequality() {
    // The ≠ guard stops replication of a twice-taught course.
    let m = Mapping::new(
        d1(),
        d2(),
        vec![Std::parse(
            "r[prof(x)[teach[year(y)[course(cn1), course(cn2)]], supervise[student(s)]]] \
             ; cn1 != cn2 \
             --> r[course(cn1, y)[taughtby(x)], course(cn2, y)[taughtby(x)], \
                   student(s)[supervisor(x)]]",
        )
        .unwrap()],
    );
    let twice = tree! {
        "r" [ "prof"("name" = "Ada") [
            "teach" [ "year"("y" = "2008") [
                "course"("cno" = "ml"), "course"("cno" = "ml") ] ],
            "supervise" [ "student"("sid" = "Sue") ],
        ] ]
    };
    // No firings ⇒ the empty-ish target is a solution.
    assert!(m.stds[0].firings(&twice).is_empty());
    assert!(m.is_solution(&twice, &Tree::new("r")));
    // With distinct courses it fires (both orders).
    assert_eq!(m.stds[0].firings(&ada()).len(), 2);
}

#[test]
fn intro_third_mapping_preserves_order() {
    let m = Mapping::new(
        d1(),
        d2(),
        vec![Std::parse(
            "r[prof(x)[teach[year(y)[course(cn1) -> course(cn2)]], supervise[student(s)]]] \
             ; cn1 != cn2 \
             --> r[course(cn1, y)[taughtby(x)] ->* course(cn2, y)[taughtby(x)], \
                   student(s)[supervisor(x)]]",
        )
        .unwrap()],
    );
    let ordered = tree! {
        "r" [
            "course"("cno" = "cs1", "year" = "2008") [ "taughtby"("teacher" = "Ada") ],
            "course"("cno" = "cs2", "year" = "2008") [ "taughtby"("teacher" = "Ada") ],
            "student"("sid" = "Sue") [ "supervisor"("name" = "Ada") ],
        ]
    };
    let reversed = tree! {
        "r" [
            "course"("cno" = "cs2", "year" = "2008") [ "taughtby"("teacher" = "Ada") ],
            "course"("cno" = "cs1", "year" = "2008") [ "taughtby"("teacher" = "Ada") ],
            "student"("sid" = "Sue") [ "supervisor"("name" = "Ada") ],
        ]
    };
    assert!(m.is_solution(&ada(), &ordered));
    assert!(!m.is_solution(&ada(), &reversed));
}

// ───────────────────────── §3: relational encoding ──────────────────────

#[test]
fn relational_schemas_embed() {
    let ctx = EngineContext::new();
    // S = {S1(A,B), S2(C,D)}: r → s1, s2; s1 → t1*; s2 → t2*.
    use xmlmap::dtd::{instance_to_tree, schema_to_dtd, Relation};
    let rels = vec![
        Relation::new("S1", ["A", "B"]),
        Relation::new("S2", ["C", "D"]),
    ];
    let d = schema_to_dtd(&rels).unwrap();
    assert!(d.is_strictly_nested_relational());

    // The join S1(x,y), S2(y,z) as a pattern with an equality.
    let m = Mapping::new(
        d.clone(),
        schema_to_dtd(&[Relation::new("T", ["A", "D"])]).unwrap(),
        vec![Std::parse(
            "r[s1[tuple_s1(x, y1)], s2[tuple_s2(y2, z)]] ; y1 = y2 --> r/t/tuple_t(x, z)",
        )
        .unwrap()],
    );
    let inst = vec![
        (
            rels[0].clone(),
            vec![
                vec![Value::str("a"), Value::str("j")],
                vec![Value::str("b"), Value::str("k")],
            ],
        ),
        (
            rels[1].clone(),
            vec![vec![Value::str("j"), Value::str("out")]],
        ),
    ];
    let source = instance_to_tree(&inst);
    assert!(d.conforms(&source));
    // The join fires exactly once: (a, j) ⋈ (j, out).
    assert_eq!(m.stds[0].firings(&source).len(), 1);
    let sol = ctx.canonical_solution(&m, &source).unwrap();
    assert!(m.is_solution(&source, &sol));
    assert!(xmlmap::patterns::matches_with(
        &sol,
        &pat("r/t/tuple_t(x, z)"),
        &[
            (Name::new("x"), Value::str("a")),
            (Name::new("z"), Value::str("out"))
        ]
        .into_iter()
        .collect(),
    ));
}

// ───────────────────────── §5: consistency example ──────────────────────

#[test]
fn sec5_changed_target_dtd_is_inconsistent() {
    let ctx = EngineContext::new();
    // "Suppose the DTD D2 changes to r → courses, students; …" — the first
    // intro mapping becomes inconsistent: course nodes must be
    // grandchildren. (prof+ forces the std to fire.)
    let changed_d2 = dtd("root r
         r -> courses, students
         courses -> course*
         students -> student*
         course @ cno, year
         student @ sid");
    let forced_d1 = dtd("root r
         r -> prof+
         prof -> teach, supervise
         teach -> year
         year -> course, course
         supervise -> student*
         prof @ name
         student @ sid
         year @ y
         course @ cno");
    let m = Mapping::new(
        forced_d1,
        changed_d2,
        vec![Std::parse(
            "r[prof(x)[teach[year(y)[course(cn1), course(cn2)]]]] \
             --> r[course(cn1, y), course(cn2, y)]",
        )
        .unwrap()],
    );
    let ans = ctx.consistent(&m, 1_000_000).unwrap();
    assert!(!ans.is_consistent());
}

// ───────────────────────── §6: absolute consistency ─────────────────────

#[test]
fn sec6_abscons_counterexample() {
    let ctx = EngineContext::new();
    // Source r → a*, target r → a, std r/a(x) → r/a(x): consistent but not
    // absolutely consistent; the stripped version IS absolutely consistent.
    let m = Mapping::new(
        dtd("root r\nr -> a*\na @ v"),
        dtd("root r\nr -> a\na @ v"),
        vec![Std::parse("r/a(x) --> r/a(x)").unwrap()],
    );
    assert!(ctx.consistent(&m, 1_000_000).unwrap().is_consistent());
    assert!(!xmlmap::core::abscons_nr_ptime(&m).unwrap().holds());

    // The paper's concrete counterexample: two distinct attribute values.
    let two = tree!("r" [ "a"("v" = "1"), "a"("v" = "2") ]);
    assert!(ctx.solution_exists(&m, &two, 4).is_none());
    assert!(matches!(
        ctx.canonical_solution(&m, &two),
        Err(xmlmap::core::ChaseError::ValueConflict(_))
    ));

    // Stripped: r/a → r/a.
    let stripped = Mapping::new(
        dtd("root r\nr -> a*"),
        dtd("root r\nr -> a"),
        vec![Std::parse("r/a --> r/a").unwrap()],
    );
    assert!(ctx
        .abscons_structural(&stripped, 1_000_000)
        .unwrap()
        .unwrap()
        .holds());
}

// ───────────────────────── §8: composition counterexamples ──────────────

#[test]
fn sec8_first_example_composition_needs_disjunction() {
    // D1 = {r → ε}, D2 = {r → b1|b2; b1,b2 → b3}, D3 = {r → c1?c2?c3?};
    // Σ12 = {r → r/_/b3}, Σ23 = {r/b1 → r/c1, r/b2 → r/c2}.
    // The composition contains (r, T) iff T matches r/c1 or r/c2.
    let m12 = Mapping::new(
        dtd("root r\nr -> "),
        dtd("root r\nr -> b1|b2\nb1 -> b3\nb2 -> b3"),
        vec![Std::parse("r --> r/_/b3").unwrap()],
    );
    let m23 = Mapping::new(
        dtd("root r\nr -> b1|b2\nb1 -> b3\nb2 -> b3"),
        dtd("root r\nr -> c1?, c2?, c3?"),
        vec![
            Std::parse("r/b1 --> r/c1").unwrap(),
            Std::parse("r/b2 --> r/c2").unwrap(),
        ],
    );
    let r = Tree::new("r");
    let c1 = tree!("r"["c1"]);
    let c2 = tree!("r"["c2"]);
    let c3 = tree!("r"["c3"]);
    let c12 = tree!("r" [ "c1", "c2" ]);

    // Exactly the c1-or-c2 disjunction (one shared context for all probes):
    let ctx = EngineContext::new();
    let member = |t3: &Tree| ctx.composition_member(&m12, &m23, &r, t3, 4);
    assert!(member(&c1).is_some());
    assert!(member(&c2).is_some());
    assert!(member(&c12).is_some());
    assert!(member(&c3).is_none());
    assert!(member(&r).is_none());

    // And the class of Thm 8.2 rightly rejects these mappings: the middle
    // DTD has a disjunction (not nested-relational).
    let s12 = SkolemMapping::from_mapping(&m12);
    assert!(
        s12.is_err()
            || xmlmap::core::compose(&s12.unwrap(), &SkolemMapping::from_mapping(&m23).unwrap())
                .is_err()
    );
}

#[test]
fn sec8_second_example_value_counting() {
    // D1 = {r → a*}, D2 = {r → b, b}, D3 = {r → ε}; Σ12 = {r/a(x) → r/b(x)},
    // Σ23 = {r → r}. Composition = pairs (T, r) with ≤ 2 distinct a-values.
    let m12 = Mapping::new(
        dtd("root r\nr -> a*\na @ v"),
        dtd("root r\nr -> b, b\nb @ w"),
        vec![Std::parse("r/a(x) --> r/b(x)").unwrap()],
    );
    let m23 = Mapping::new(
        dtd("root r\nr -> b, b\nb @ w"),
        dtd("root r\nr -> "),
        vec![Std::parse("r --> r").unwrap()],
    );
    let target = Tree::new("r");

    let one = tree!("r"["a"("v" = "1")]);
    let two = tree!("r" [ "a"("v" = "1"), "a"("v" = "2") ]);
    let three = tree!("r" [ "a"("v" = "1"), "a"("v" = "2"), "a"("v" = "3") ]);
    let two_dup = tree!("r" [ "a"("v" = "1"), "a"("v" = "2"), "a"("v" = "1") ]);

    let ctx = EngineContext::new();
    let member = |t1: &Tree| ctx.composition_member(&m12, &m23, t1, &target, 3);
    assert!(member(&one).is_some());
    assert!(member(&two).is_some());
    assert!(member(&two_dup).is_some());
    assert!(member(&three).is_none());
}

// ───────────────────────── §8: the employee Skolem example ──────────────

#[test]
fn sec8_employee_skolem_example() {
    // S(empl_name, project) → T(empl_id, empl_name, office) with
    // empl_id = f(empl_name): the same employee keeps one id. The
    // functional constraint is observable where f(x) is *required* in two
    // places — here a second std publishes the id in a directory element.
    use xmlmap::core::{SkolemStd, Term, TermPattern};
    let source_dtd = dtd("root r\nr -> s*\ns @ empl_name, project");
    let target_dtd = dtd("root r\nr -> t*, dir*\nt @ empl_id, empl_name\ndir @ empl_id");
    let f = || Term::App(Name::new("f"), vec![Term::Var(Name::new("x"))]);
    let m = SkolemMapping {
        source_dtd,
        target_dtd,
        stds: vec![
            SkolemStd {
                source: pat("r/s(x, y)"),
                source_cond: vec![],
                source_term_eqs: vec![],
                target: TermPattern::leaf("r", vec![])
                    .child(TermPattern::leaf("t", vec![f(), Term::Var(Name::new("x"))])),
                target_term_eqs: vec![],
            },
            SkolemStd {
                source: pat("r/s(x, y)"),
                source_cond: vec![],
                source_term_eqs: vec![],
                target: TermPattern::leaf("r", vec![]).child(TermPattern::leaf("dir", vec![f()])),
                target_term_eqs: vec![],
            },
        ],
    };
    let source = tree! {
        "r" [
            "s"("empl_name" = "ada", "project" = "p1"),
            "s"("empl_name" = "ada", "project" = "p2"),
        ]
    };
    // One id, consistently used in both places: a solution.
    let consistent_ids = tree! {
        "r" [
            "t"("empl_id" = "7", "empl_name" = "ada"),
            "dir"("empl_id" = "7"),
        ]
    };
    assert!(m.is_solution(&source, &consistent_ids));
    // The directory lists a different id than the t tuple: f(ada) cannot
    // be both 7 and 8.
    let inconsistent_ids = tree! {
        "r" [
            "t"("empl_id" = "7", "empl_name" = "ada"),
            "dir"("empl_id" = "8"),
        ]
    };
    assert!(!m.is_solution(&source, &inconsistent_ids));
    // Without Skolem functions (plain existentials), the same pair IS a
    // solution — this is why §8 adds Skolem functions.
    let plain = Mapping::new(
        m.source_dtd.clone(),
        m.target_dtd.clone(),
        vec![
            Std::parse("r/s(x, y) --> r/t(z, x)").unwrap(),
            Std::parse("r/s(x, y) --> r/dir(z)").unwrap(),
        ],
    );
    assert!(plain.is_solution(&source, &inconsistent_ids));
}
