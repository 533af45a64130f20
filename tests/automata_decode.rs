//! Decoding a persisted `AutomataCache` never yields a cache that panics.
//!
//! The payload is the two schema texts, the compiled automaton pair and a
//! checksum over both. Whatever bytes it is handed — a real payload with
//! one byte flipped, a truncated one, the same edits with the checksum
//! recomputed, or hand-built tables with no states, a horizontal over the
//! wrong number of symbols, or a size that overflows — `from_bytes` either
//! returns an error or a cache that answers.

use xmlmap::automata::AutomataCache;
use xmlmap::codec::{checksum, CodecError, Encoder};
use xmlmap::dtd::Dtd;

const BUDGET: usize = 100_000;

fn dtd(text: &str) -> Dtd {
    xmlmap::dtd::parse(text).unwrap()
}

/// A pair that is not included: `r[a, a]` conforms to the first only.
fn pair() -> (Dtd, Dtd) {
    (
        dtd("root r\nr -> a*, b?\nb -> a\na @ v"),
        dtd("root r\nr -> a?, b?\nb -> a\na @ v"),
    )
}

/// Appends the checksum `to_bytes` ends a payload with.
fn seal(mut body: Vec<u8>) -> Vec<u8> {
    let sum = checksum(&body);
    body.extend_from_slice(&sum.to_le_bytes());
    body
}

/// A payload that still decodes answers exactly like a fresh compile of
/// the schemas it names.
fn exercise_sealed(bytes: &[u8]) {
    if let Ok(cache) = AutomataCache::from_bytes(bytes) {
        let fresh = AutomataCache::new(cache.d1(), cache.d2());
        assert_eq!(cache.inclusion(BUDGET), fresh.inclusion(BUDGET));
        assert_eq!(
            format!("{:?}", cache.subschema(BUDGET)),
            format!("{:?}", fresh.subschema(BUDGET))
        );
    }
}

#[test]
fn edited_and_truncated_payloads_are_rejected_or_faithful() {
    let (d1, d2) = pair();
    let good = AutomataCache::new(&d1, &d2).to_bytes();
    let restored = AutomataCache::from_bytes(&good).expect("round trip");
    assert!(restored.inclusion(BUDGET).unwrap().is_some());
    exercise_sealed(&good);
    for i in 0..good.len() {
        for flip in [0x01u8, 0x20, 0x80, 0xff] {
            let mut bytes = good.clone();
            bytes[i] ^= flip;
            exercise_sealed(&bytes);
        }
    }
    for n in 0..good.len() {
        exercise_sealed(&good[..n]);
    }
}

#[test]
fn resealed_edits_decode_to_tables_that_answer() {
    // With the checksum recomputed, an edit reaches the table checks. A
    // table that passes them may describe other automata than the schema
    // texts, so only the automaton-level answer is asked for: inclusion
    // must finish without indexing out of range.
    let (d1, d2) = pair();
    let good = AutomataCache::new(&d1, &d2).to_bytes();
    let body = &good[..good.len() - 8];
    let mut decoded = 0;
    for i in 0..body.len() {
        for flip in [0x01u8, 0x20, 0x80, 0xff] {
            let mut edited = body.to_vec();
            edited[i] ^= flip;
            if let Ok(cache) = AutomataCache::from_bytes(&seal(edited)) {
                decoded += 1;
                let _ = cache.inclusion(BUDGET);
            }
        }
    }
    assert!(decoded > 0, "some edits keep the tables well-formed");
    for n in 0..body.len() {
        assert!(AutomataCache::from_bytes(&seal(body[..n].to_vec())).is_err());
    }
}

/// One horizontal DFA as the payload writes it.
struct Table {
    num_symbols: usize,
    num_states: usize,
    delta: Vec<u32>,
    accepting: Vec<bool>,
    used: Vec<u32>,
}

/// `root r / r -> a*` against itself, by hand: the joint alphabet is
/// `[a, r]` (vertical states 0 and 1), `a` has the ε horizontal and `r`
/// the table `r_table`, in both automata.
fn payload(r_table: &Table) -> Vec<u8> {
    let text = "root r\nr -> a*\n";
    let epsilon = Table {
        num_symbols: 2,
        num_states: 2,
        delta: vec![1, 1, 1, 1],
        accepting: vec![true, false],
        used: vec![],
    };
    let mut e = Encoder::new();
    e.str(text);
    e.str(text);
    for _ in 0..2 {
        e.usize(2);
        for (state, table) in [(0u32, &epsilon), (1, r_table)] {
            e.usize(1);
            e.u32(state);
            e.usize(table.num_symbols);
            e.usize(table.num_states);
            e.u32s(&table.delta);
            e.bools(&table.accepting);
            // Live: every accepting state, and everything but a sink.
            let live: Vec<bool> = (0..table.accepting.len())
                .map(|q| table.accepting[q] || q + 1 < table.accepting.len())
                .collect();
            e.bools(&live);
            e.u32s(&table.used);
        }
        e.bools(&[false, true]);
    }
    seal(e.finish())
}

/// `a*` over the symbols `[a, r]`: states `{0}`, `{1}` and the sink.
fn a_star() -> Table {
    Table {
        num_symbols: 2,
        num_states: 3,
        delta: vec![1, 2, 1, 2, 2, 2],
        accepting: vec![true, true, false],
        used: vec![0],
    }
}

#[test]
fn hand_built_tables_are_checked() {
    // The well-formed table decodes and answers.
    let cache = AutomataCache::from_bytes(&payload(&a_star())).expect("well-formed");
    assert_eq!(cache.inclusion(BUDGET), Ok(None));
    assert!(cache.subschema(BUDGET).unwrap().is_none());

    let zero_states = Table {
        num_states: 0,
        delta: vec![],
        accepting: vec![],
        ..a_star()
    };
    let one_symbol = Table {
        num_symbols: 1,
        delta: vec![1, 1, 2],
        ..a_star()
    };
    let overflowing = Table {
        num_states: usize::MAX / 2 + 1,
        delta: vec![],
        ..a_star()
    };
    for bad in [zero_states, one_symbol, overflowing] {
        let err = AutomataCache::from_bytes(&payload(&bad)).err();
        assert!(matches!(err, Some(CodecError::Malformed(_))), "{err:?}");
    }
}
