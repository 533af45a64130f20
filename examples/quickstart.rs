//! Quickstart: the paper's running example, end to end.
//!
//! Builds the university schemas `D₁`/`D₂` from the introduction of
//! *XML Schema Mappings* (PODS 2009), the order-preserving std with the
//! `cn₁ ≠ cn₂` condition, checks membership, and constructs a canonical
//! solution for a simpler (chaseable) variant of the mapping.
//!
//! Run with: `cargo run --example quickstart`

use xmlmap::prelude::*;

fn main() {
    // ── Schemas ────────────────────────────────────────────────────────
    let d1 = xmlmap::gen::university_dtd();
    let d2 = xmlmap::gen::university_target_dtd();
    println!("Source DTD D1:\n{d1}");
    println!("Target DTD D2:\n{d2}");

    // ── A source document (2 professors, 1 student each) ───────────────
    let source = xmlmap::gen::university_tree(2, 1);
    assert!(d1.conforms(&source));
    println!(
        "Source document ({} nodes):\n{}",
        source.size(),
        xmlmap::trees::xml::to_string(&source)
    );

    // ── The paper's third intro mapping: order + inequality ────────────
    let std = Std::parse(
        "r[prof(x)[teach[year(y)[course(cn1) -> course(cn2)]], \
                   supervise[student(s)]]] ; cn1 != cn2 \
         --> r[course(cn1, y)[taughtby(x)] ->* course(cn2, y)[taughtby(x)], \
               student(s)[supervisor(x)]]",
    )
    .expect("std parses");
    println!("Std: {std}\n");
    let mapping = Mapping::new(d1.clone(), d2.clone(), vec![std]);
    println!("Signature: {}", mapping.signature());

    // ── Membership: build a correct target by hand and check it ────────
    let mut target = Tree::new("r");
    for p in 0..2u32 {
        for c in 0..2u32 {
            let course = target.add_child(
                Tree::ROOT,
                "course",
                [
                    ("cno", Value::str(format!("c{}", 2 * p + c))),
                    ("year", Value::str(format!("y{}", p % 4))),
                ],
            );
            target.add_child(
                course,
                "taughtby",
                [("teacher", Value::str(format!("p{p}")))],
            );
        }
    }
    for p in 0..2u32 {
        let student = target.add_child(
            Tree::ROOT,
            "student",
            [("sid", Value::str(format!("s{p}_0")))],
        );
        target.add_child(
            student,
            "supervisor",
            [("name", Value::str(format!("p{p}")))],
        );
    }
    assert!(d2.conforms(&target));
    println!(
        "(source, target) ∈ ⟦M⟧?  {}",
        mapping.is_solution(&source, &target)
    );
    assert!(mapping.is_solution(&source, &target));

    // Reversing course order breaks the →* constraint.
    let mut reversed = Tree::new("r");
    for p in (0..2u32).rev() {
        for c in (0..2u32).rev() {
            let course = reversed.add_child(
                Tree::ROOT,
                "course",
                [
                    ("cno", Value::str(format!("c{}", 2 * p + c))),
                    ("year", Value::str(format!("y{}", p % 4))),
                ],
            );
            reversed.add_child(
                course,
                "taughtby",
                [("teacher", Value::str(format!("p{p}")))],
            );
        }
    }
    for p in 0..2u32 {
        let student = reversed.add_child(
            Tree::ROOT,
            "student",
            [("sid", Value::str(format!("s{p}_0")))],
        );
        reversed.add_child(
            student,
            "supervisor",
            [("name", Value::str(format!("p{p}")))],
        );
    }
    println!(
        "(source, reversed) ∈ ⟦M⟧?  {}",
        mapping.is_solution(&source, &reversed)
    );
    assert!(!mapping.is_solution(&source, &reversed));

    // ── Canonical solutions (the chase) for a fully-specified variant ──
    let chaseable = Mapping::new(
        d1,
        d2,
        vec![
            Std::parse(
                "r[prof(x)[teach[year(y)[course(cn1), course(cn2)]]]] \
                 --> r[course(cn1, y)[taughtby(x)], course(cn2, y)[taughtby(x)]]",
            )
            .unwrap(),
            Std::parse("r[prof(x)[supervise[student(s)]]] --> r[student(s)[supervisor(x)]]")
                .unwrap(),
        ],
    );
    let solution = EngineContext::new()
        .canonical_solution(&chaseable, &source)
        .expect("chase succeeds");
    println!(
        "Canonical solution ({} nodes):\n{}",
        solution.size(),
        xmlmap::trees::xml::to_string(&solution)
    );
    assert!(chaseable.is_solution(&source, &solution));
    println!("canonical solution verified: (source, chase(source)) ∈ ⟦M⟧");
}
