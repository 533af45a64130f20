//! Where a streamed chase spends its time, stage by stage, in process.
//!
//! One exchange document (20 professors with 2 students each, then inert
//! pad records up to about 453 KB) is written to memory once; each stage
//! then reads it from the in-memory slice, so no row pays for I/O:
//!
//! * `tokenize` — a bare tokenizer pass (`SaxReader::next_event`),
//!   nothing kept;
//! * `parse` — the arena builder over the same reader (`xml::parse`);
//! * `validate` — streamed conformance (`stream_document`, no pattern);
//! * `chase` — the streamed chase of the exchange mapping (`chase_stream`).
//!
//! Each figure is the median over 21 rounds of the mean ms per pass over
//! 10 passes; every round runs each stage in turn. Each stage runs its
//! own tokenizer pass.
//!
//! ```text
//! cargo run --release -p xmlmap-bench --bin stream_stages
//! ```

use std::sync::Arc;
use std::time::Instant;
use xmlmap_core::EngineContext;
use xmlmap_dtd::DtdIndex;
use xmlmap_gen::{exchange_mapping, write_exchange_xml};
use xmlmap_trees::SaxReader;

const ROUNDS: usize = 21;
const PASSES: usize = 10;

type Stage<'a> = (&'static str, Box<dyn FnMut() + 'a>);

fn main() {
    let mut doc = Vec::new();
    write_exchange_xml(20, 2, 19_500, &mut doc).expect("write to memory");
    let text = std::str::from_utf8(&doc).expect("UTF-8");
    let m = exchange_mapping();
    let idx = Arc::new(DtdIndex::new(&m.source_dtd));
    let plan = EngineContext::new().stream_chase_plan(&m);

    let mut stages: Vec<Stage<'_>> = vec![
        (
            "tokenize",
            Box::new(|| {
                let mut reader = SaxReader::new(&doc[..]);
                while reader.next_event().expect("well-formed").is_some() {}
            }),
        ),
        (
            "parse",
            Box::new(|| {
                assert!(xmlmap_trees::xml::parse(text).expect("well-formed").size() > 1);
            }),
        ),
        (
            "validate",
            Box::new(|| {
                let out = xmlmap_core::stream_document(&idx, None, &doc[..]).expect("well-formed");
                assert_eq!(out.violation, None, "the document conforms");
            }),
        ),
        (
            "chase",
            Box::new(|| {
                let out = xmlmap_core::chase_stream(&idx, &plan, &doc[..]).expect("streamable");
                assert!(matches!(out.solution, Some(Ok(_))), "the chase succeeds");
            }),
        ),
    ];
    // Rounds visit every stage in turn, so a drift in host speed lands on
    // all of them alike.
    let mut ms: Vec<Vec<f64>> = vec![Vec::new(); stages.len()];
    for _ in 0..ROUNDS {
        for (k, (_, run)) in stages.iter_mut().enumerate() {
            let start = Instant::now();
            for _ in 0..PASSES {
                run();
            }
            ms[k].push(start.elapsed().as_secs_f64() * 1e3 / PASSES as f64);
        }
    }

    let mb = doc.len() as f64 / 1e6;
    println!("document: {} bytes", doc.len());
    println!("| stage | ms per pass | MB/s |");
    println!("|---|---:|---:|");
    for ((stage, _), mut rounds) in stages.iter().zip(ms) {
        rounds.sort_by(f64::total_cmp);
        let median = rounds[ROUNDS / 2];
        println!("| {stage} | {median:.2} | {:.0} |", mb / (median / 1e3));
    }
}
