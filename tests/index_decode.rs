//! Decoding a persisted `DtdIndex` never yields an index that a consumer
//! can index out of range with.
//!
//! The payload is the schema text alone; every table (label ids, content
//! models, dependents) is rebuilt from it. So whatever bytes
//! decode — a valid payload with one byte flipped, a truncated one, or a
//! hand-built payload in the older layout that also carried dense NFA
//! tables (with an edge target past the subset bitmask, or a zero-word
//! bitmask) — the streaming validator and a `SatCache` built on the result
//! run without panicking, and agree with a fresh compile of the decoded
//! schema.

use std::sync::Arc;
use xmlmap::codec::{Decoder, Encoder};
use xmlmap::dtd::{validate_stream, DtdIndex};
use xmlmap::patterns::{self, SatCache};

const SCHEMA: &str = "root r\nr -> a*, b?\nb -> a\nr @ x";

const DOCS: [&str; 7] = [
    r#"<r x="1"/>"#,
    r#"<r x="1"><a/><a/><b><a/></b></r>"#,
    r#"<r x="1"><b/></r>"#,
    r#"<r x="1"><b><a/></b><a/></r>"#,
    r#"<r><a/></r>"#,
    r#"<a/>"#,
    r#"<r x="1"><c/></r>"#,
];

const PROBES: [&str; 4] = ["r/a", "r/b[a]", "r[a -> b]", "r//c"];

fn encode(idx: &DtdIndex) -> Vec<u8> {
    let mut e = Encoder::new();
    idx.encode(&mut e);
    e.finish()
}

/// `r -> a*` in the older layout: schema text, labels, root id, arities,
/// one dense NFA per label (`words`, accepting words, symbols, edges) and
/// the dependents. `target` is the `a`-edge target out of state 1.
fn legacy_payload(target: u32, words: usize) -> Vec<u8> {
    let mut e = Encoder::new();
    e.str("root r\nr -> a*\n");
    e.usize(2);
    e.str("a");
    e.str("r");
    e.u32(1);
    e.usize(0);
    e.usize(0);
    // a: ε
    e.usize(1);
    e.u64s(&[1]);
    e.u32s(&[]);
    // r: a*
    e.usize(words);
    e.u64s(&vec![0b11; words]);
    e.u32s(&[0]);
    e.usize(2);
    e.u32(0);
    e.u32(1);
    e.u32(1);
    e.u32(target);
    // dependents
    e.u32s(&[1]);
    e.u32s(&[]);
    e.finish()
}

/// Runs every consumer of a decoded index and compares it with a fresh
/// compile of the same schema.
fn exercise(bytes: &[u8]) {
    if let Ok(idx) = DtdIndex::decode(&mut Decoder::new(bytes)) {
        let idx = Arc::new(idx);
        let fresh = Arc::new(DtdIndex::new(idx.dtd()));
        assert_eq!(idx.labels(), fresh.labels());
        assert_eq!(idx.root(), fresh.root());
        for doc in DOCS {
            assert_eq!(
                validate_stream(&idx, doc.as_bytes()),
                validate_stream(&fresh, doc.as_bytes()),
                "{doc}"
            );
        }
    }
    if let Ok(cache) = SatCache::from_bytes(bytes) {
        let fresh = SatCache::new(cache.dtd());
        for probe in PROBES {
            let p = patterns::parse(probe).unwrap();
            let sat = |c: &SatCache| c.satisfiable(&p, 100_000).expect("small schema").is_some();
            assert_eq!(sat(&cache), sat(&fresh), "{probe}");
        }
    }
}

#[test]
fn edited_and_truncated_payloads_decode_to_safe_indexes() {
    let good = encode(&DtdIndex::new(&xmlmap::dtd::parse(SCHEMA).unwrap()));
    exercise(&good);
    for i in 0..good.len() {
        for flip in [0x01u8, 0x20, 0x80, 0xff] {
            let mut bytes = good.clone();
            bytes[i] ^= flip;
            exercise(&bytes);
        }
    }
    for n in 0..good.len() {
        exercise(&good[..n]);
    }
}

#[test]
fn hand_built_legacy_tables_are_never_trusted() {
    // An edge target 1000 states past the one-word bitmask, a zero-word
    // bitmask, and a well-formed table: each decodes from its schema text.
    for (target, words) in [(1001, 1), (1, 0), (1, 1)] {
        let bytes = legacy_payload(target, words);
        let idx = DtdIndex::decode(&mut Decoder::new(&bytes)).expect("schema text parses");
        let idx = Arc::new(idx);
        assert!(validate_stream(&idx, "<r><a/><a/></r>".as_bytes()).is_ok());
        assert!(validate_stream(&idx, "<r><r/></r>".as_bytes()).is_err());
        // The trailing tables are not part of the payload.
        assert!(SatCache::from_bytes(&bytes).is_err());
        exercise(&bytes);
    }
}
