//! The paper's full introduction scenario as a data-exchange pipeline.
//!
//! Restructures teaching data from `D₁` (professors → teaching/supervision)
//! to `D₂` (courses and students at a university), exercising all three
//! mappings from §1:
//!
//! 1. the plain restructuring mapping (child navigation only);
//! 2. the deduplicating variant guarded by `cn₁ ≠ cn₂`;
//! 3. the order-preserving variant (`→` on the source, `→*` on the target).
//!
//! Run with: `cargo run --example university_exchange`

use xmlmap::prelude::*;

fn main() {
    let d1 = xmlmap::gen::university_dtd();
    let d2 = xmlmap::gen::university_target_dtd();

    // ── Mapping 1: plain restructuring (first figure of §1) ────────────
    let m1 = Mapping::new(
        d1.clone(),
        d2.clone(),
        vec![Std::parse(
            "r[prof(x)[teach[year(y)[course(cn1), course(cn2)]], supervise[student(s)]]] \
             --> r[course(cn1, y)[taughtby(x)], course(cn2, y)[taughtby(x)], \
                   student(s)[supervisor(x)]]",
        )
        .unwrap()],
    );

    // ── Mapping 2: don't replicate a repeated course (second figure) ───
    let m2 = Mapping::new(
        d1.clone(),
        d2.clone(),
        vec![Std::parse(
            "r[prof(x)[teach[year(y)[course(cn1), course(cn2)]], supervise[student(s)]]] \
             ; cn1 != cn2 \
             --> r[course(cn1, y)[taughtby(x)], course(cn2, y)[taughtby(x)], \
                   student(s)[supervisor(x)]]",
        )
        .unwrap()],
    );

    // ── Mapping 3: order preservation (third figure) ───────────────────
    let m3 = Mapping::new(
        d1.clone(),
        d2.clone(),
        vec![Std::parse(
            "r[prof(x)[teach[year(y)[course(cn1) -> course(cn2)]], supervise[student(s)]]] \
             ; cn1 != cn2 \
             --> r[course(cn1, y)[taughtby(x)] ->* course(cn2, y)[taughtby(x)], \
                   student(s)[supervisor(x)]]",
        )
        .unwrap()],
    );

    for (name, m) in [
        ("plain", &m1),
        ("dedup (≠)", &m2),
        ("ordered (→, →*, ≠)", &m3),
    ] {
        println!("mapping {name}: class {}", m.signature());
    }

    // ── A professor teaching the same course twice ─────────────────────
    let dup_source = xmlmap::trees::tree! {
        "r" [ "prof"("name" = "Ada") [
            "teach" [ "year"("y" = "2008") [
                "course"("cno" = "ml"),
                "course"("cno" = "ml"),
            ] ],
            "supervise" [ "student"("sid" = "Sue") ],
        ] ]
    };
    assert!(d1.conforms(&dup_source));

    // Mapping 1 fires (cn1 = cn2 = "ml" is a legal match), mapping 2 does
    // not — exactly the distinction the paper introduces ≠ for.
    assert_eq!(m1.stds[0].firings(&dup_source).len(), 1);
    assert_eq!(m2.stds[0].firings(&dup_source).len(), 0);
    println!(
        "\nduplicate-course source: plain fires {} time(s), dedup fires {}",
        m1.stds[0].firings(&dup_source).len(),
        m2.stds[0].firings(&dup_source).len()
    );

    // ── Chase mapping 1 and inspect the exchanged document ─────────────
    let ctx = EngineContext::new();
    let source = xmlmap::gen::university_tree(3, 2);
    let solution = ctx
        .canonical_solution(&m1, &source)
        .expect("chaseable fragment");
    assert!(m1.is_solution(&source, &solution));
    println!(
        "\nchase: {}-node source → {}-node canonical solution (verified)",
        source.size(),
        solution.size()
    );

    // ── Order preservation under mapping 3 ─────────────────────────────
    // cs-first target vs. flipped target for one professor.
    let ordered_source = xmlmap::trees::tree! {
        "r" [ "prof"("name" = "Ada") [
            "teach" [ "year"("y" = "2008") [
                "course"("cno" = "algo"),
                "course"("cno" = "logic"),
            ] ],
            "supervise" [ "student"("sid" = "Sue") ],
        ] ]
    };
    let in_order = xmlmap::trees::tree! {
        "r" [
            "course"("cno" = "algo", "year" = "2008") [ "taughtby"("teacher" = "Ada") ],
            "course"("cno" = "logic", "year" = "2008") [ "taughtby"("teacher" = "Ada") ],
            "student"("sid" = "Sue") [ "supervisor"("name" = "Ada") ],
        ]
    };
    let flipped = xmlmap::trees::tree! {
        "r" [
            "course"("cno" = "logic", "year" = "2008") [ "taughtby"("teacher" = "Ada") ],
            "course"("cno" = "algo", "year" = "2008") [ "taughtby"("teacher" = "Ada") ],
            "student"("sid" = "Sue") [ "supervisor"("name" = "Ada") ],
        ]
    };
    println!("\norder-preserving mapping:");
    println!(
        "  courses in source order:  {}",
        m3.is_solution(&ordered_source, &in_order)
    );
    println!(
        "  courses flipped:          {}",
        m3.is_solution(&ordered_source, &flipped)
    );
    assert!(m3.is_solution(&ordered_source, &in_order));
    assert!(!m3.is_solution(&ordered_source, &flipped));
    // The order-insensitive mapping 2 accepts both.
    assert!(m2.is_solution(&ordered_source, &in_order));
    assert!(m2.is_solution(&ordered_source, &flipped));

    // ── Solution existence per document (the ABSCONS perspective) ──────
    // Mapping 1 is absolutely consistent on this pair of schemas: every
    // target slot it writes sits under a starred element. The chase is the
    // per-document decision procedure (it fails iff no solution exists),
    // and the bounded oracle agrees on a small document.
    let every = [
        xmlmap::gen::university_tree(0, 0),
        xmlmap::gen::university_tree(1, 0),
        xmlmap::gen::university_tree(4, 3),
        dup_source.clone(),
        ordered_source.clone(),
    ];
    for t in &every {
        let sol = ctx
            .canonical_solution(&m1, t)
            .expect("every source has a solution");
        assert!(m1.is_solution(t, &sol));
    }
    assert!(ctx
        .solution_exists(&m1, &xmlmap::gen::university_tree(1, 0), 8)
        .is_some());
    println!("\nall sampled sources have solutions under the plain mapping ✓");
}
