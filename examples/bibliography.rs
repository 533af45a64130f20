//! Bibliography exchange: a fuller data-exchange pipeline.
//!
//! A publisher's catalogue (books with authors and editions) is exchanged
//! into a citation database, exercising the query-side toolkit:
//!
//! * pattern **minimisation** against the source schema;
//! * the **chase** and **solution reduction**;
//! * **certain answers** over the exchanged data;
//! * a follow-up **composition** into an analytics schema.
//!
//! Run with: `cargo run --example bibliography`

use xmlmap::prelude::*;
use xmlmap::trees::tree;

fn main() {
    // ── Source: publisher catalogue ────────────────────────────────────
    let catalogue = xmlmap::dtd::parse(
        "root catalogue
         catalogue -> book*
         book -> author+, edition*
         book @ title
         author @ name
         edition @ year",
    )
    .unwrap();

    // ── Target: citation database ──────────────────────────────────────
    let citations = xmlmap::dtd::parse(
        "root db
         db -> work*
         work -> credit*
         work @ title
         credit @ who",
    )
    .unwrap();

    let exchange = Mapping::new(
        catalogue.clone(),
        citations.clone(),
        vec![Std::parse("catalogue/book(t)[author(a)] --> db/work(t)/credit(a)").unwrap()],
    );
    println!("exchange mapping class: {}", exchange.signature());

    // ── Pattern minimisation against the source schema ─────────────────
    // `book` always has an author (author+), so the extra //author probe
    // is redundant; minimisation strips it.
    let verbose = xmlmap::patterns::parse("catalogue[book(t)[author(a)], //author]").unwrap();
    let minimal =
        xmlmap::patterns::minimize(&catalogue, &verbose, xmlmap::patterns::DEFAULT_BUDGET).unwrap();
    println!("minimised query: {verbose}  ⇒  {minimal}");
    assert_eq!(minimal.to_string(), "catalogue[book(t)[author(a)]]");

    // ── A catalogue document ───────────────────────────────────────────
    let source = tree! {
        "catalogue" [
            "book"("title" = "Elements of Finite Model Theory") [
                "author"("name" = "Libkin"),
                "edition"("year" = "2004"),
            ],
            "book"("title" = "Data Exchange") [
                "author"("name" = "Arenas"),
                "author"("name" = "Libkin"),
            ],
        ]
    };
    assert!(catalogue.conforms(&source));

    // ── Chase + reduction + nesting ────────────────────────────────────
    let ctx = EngineContext::new();
    let solution = ctx
        .canonical_solution(&exchange, &source)
        .expect("chaseable");
    let reduced = xmlmap::core::reduce_solution(&exchange, &solution);
    let nested = xmlmap::core::nest_solution(&exchange, &reduced);
    println!(
        "chase: {} nodes, reduced: {} nodes, nested: {} nodes",
        solution.size(),
        reduced.size(),
        nested.size()
    );
    assert!(exchange.is_solution(&source, &nested));
    println!("{}", xmlmap::trees::xml::to_string(&nested));
    // Nesting groups both credits of "Data Exchange" under ONE work node.
    let works = nested.children(Tree::ROOT).len();
    assert_eq!(works, 2, "one work per distinct title");

    // ── Certain answers ────────────────────────────────────────────────
    let who_wrote = xmlmap::patterns::parse("db/work(t)/credit(a)").unwrap();
    let answers = ctx.certain_answers(&exchange, &source, &who_wrote).unwrap();
    println!("certain (title, author) pairs:");
    for a in &answers {
        println!("  {} — {}", a[&Name::new("t")], a[&Name::new("a")]);
    }
    assert_eq!(answers.len(), 3);

    // ── Composition into an analytics schema ───────────────────────────
    let analytics = xmlmap::dtd::parse(
        "root stats
         stats -> entry*
         entry @ who",
    )
    .unwrap();
    let roll_up = Mapping::new(
        citations,
        analytics,
        vec![Std::parse("db/work(t)/credit(a) --> stats/entry(a)").unwrap()],
    );
    let s13 = compose(
        &SkolemMapping::from_mapping(&exchange).unwrap(),
        &SkolemMapping::from_mapping(&roll_up).unwrap(),
    )
    .expect("closed class");
    println!("\ncomposed catalogue→stats mapping:");
    for s in &s13.stds {
        println!("  {s}");
    }
    // The composed mapping sends every author straight to stats.
    let stats_doc = tree! {
        "stats" [
            "entry"("who" = "Libkin"),
            "entry"("who" = "Arenas"),
        ]
    };
    assert!(s13.is_solution(&source, &stats_doc));
    let missing = tree!("stats"["entry"("who" = "Libkin")]);
    assert!(!s13.is_solution(&source, &missing));
    println!("composition verified on the sample documents ✓");
}
