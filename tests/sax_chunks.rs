//! Chunk-boundary differential tests for the SAX tokenizer.
//!
//! The reader scans runs of bytes inside its buffered window and refills
//! only when a run reaches the window's end, so a name, a whitespace run
//! or an attribute value may straddle any number of refills. Every input
//! here is read twice over: once from the whole slice, and once through
//! sources that hand out 1, 2, 3 or 7 bytes per `read`. Both must yield
//! the same event sequence, or the same `XmlError` (message, offset, line
//! and column). The tree parser drives the same reader, so on UTF-8 input
//! it must accept exactly what the SAX pass accepts, and fail with the
//! same error.
//!
//! Inputs are generated exchange documents and the reader's error-table
//! documents, each as is and after 1–4 seeded byte mutations (overwrite,
//! insert or delete) biased toward the bytes that delimit tokens.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::Read;
use xmlmap::gen::write_exchange_xml;
use xmlmap::trees::sax::{SaxEvent, SaxReader};
use xmlmap::trees::{xml, XmlError};

/// The documents of the reader's error table, plus a few that exercise
/// comments, processing instructions, references and line breaks.
const DOCS: &[&str] = &[
    "<a><b></a></a>",
    "<a>",
    "<a/><b/>",
    "<a/>junk",
    r#"<a x="1" x="2"/>"#,
    "",
    r#"<a v="&nope;"/>"#,
    r#"<a v="&#0;"/>"#,
    r#"<a v="&#xD800;"/>"#,
    r#"<a v="&#57343;"/>"#,
    r#"<a v="&#x110000;"/>"#,
    r#"<a v="&#99999999999999;"/>"#,
    r#"<a v="&#;"/>"#,
    r#"<a v="&#x;"/>"#,
    r#"<a v="&#x4G;"/>"#,
    r#"<a v="&#65"/>"#,
    "<a v=\"&#65",
    "<!DOCTYPE r><r/>",
    "<r><![CDATA[x]]></r>",
    r#"<r a="1"b="2"/>"#,
    "\u{FEFF}<r a='1'/>",
    "<?xml version=\"1.0\"?>\n<!-- c -->\n<r>\n  <a v=\"x &lt; y\" w='q&amp;r'/>\n  <b\n x = \"1\"\r\n/>\n</r >\n",
    r#"<r><a v="café" w="&#65;&#x42;&#x1F600;" x="&#xe9;t&#233;"/></r>"#,
    "<r>\n  <a>text</a>\n</r>",
];

/// Bytes that open, close or separate tokens.
const DELIMITERS: &[u8] = b"<>\"'&;#/=\n";

/// Every seed input: generated exchange documents, then [`DOCS`].
fn seeds() -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for (profs, students, pads) in [(0, 0, 0), (1, 1, 1), (2, 3, 4), (3, 0, 2), (0, 0, 5)] {
        let mut doc = Vec::new();
        write_exchange_xml(profs, students, pads, &mut doc).expect("write to a Vec");
        out.push(doc);
    }
    out.extend(DOCS.iter().map(|d| d.as_bytes().to_vec()));
    out
}

/// Applies 1–4 seeded byte mutations.
fn mutate(doc: &[u8], rng: &mut StdRng) -> Vec<u8> {
    let mut out = doc.to_vec();
    for _ in 0..rng.gen_range(1..5usize) {
        let byte = if rng.gen_bool(0.7) {
            DELIMITERS[rng.gen_range(0..DELIMITERS.len())]
        } else {
            rng.gen::<u8>()
        };
        let at = rng.gen_range(0..out.len() + 1);
        match rng.gen_range(0..3u32) {
            0 if at < out.len() => out[at] = byte,
            2 if at < out.len() => {
                out.remove(at);
            }
            _ => out.insert(at, byte),
        }
    }
    out
}

/// A source that returns at most `step` bytes per `read`.
struct Trickle<'a> {
    rest: &'a [u8],
    step: usize,
}

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let k = self.step.min(buf.len()).min(self.rest.len());
        buf[..k].copy_from_slice(&self.rest[..k]);
        self.rest = &self.rest[k..];
        Ok(k)
    }
}

/// Every event up to the end of the document, or up to the first error.
fn read_all<R: Read>(src: R) -> (Vec<SaxEvent>, Option<XmlError>) {
    let mut reader = SaxReader::new(src);
    let mut events = Vec::new();
    loop {
        match reader.next_event() {
            Ok(Some(ev)) => events.push(ev),
            Ok(None) => return (events, None),
            Err(e) => return (events, Some(e)),
        }
    }
}

fn check(doc: &[u8]) -> Result<(), TestCaseError> {
    let whole = read_all(doc);
    for step in [1, 2, 3, 7] {
        let chunked = read_all(Trickle { rest: doc, step });
        prop_assert_eq!(
            &chunked,
            &whole,
            "{step}-byte reads of {:?}",
            String::from_utf8_lossy(doc)
        );
    }
    if let Ok(text) = std::str::from_utf8(doc) {
        prop_assert_eq!(
            xml::parse(text).err(),
            whole.1,
            "tree parser vs SAX on {:?}",
            text
        );
    }
    Ok(())
}

#[test]
fn seed_inputs_read_identically_in_chunks() {
    for doc in seeds() {
        check(&doc).unwrap();
    }
}

#[test]
fn straddled_refills_of_a_long_document_read_identically() {
    // Several 64 KiB windows, so tokens cross real chunk boundaries too.
    let mut doc = Vec::new();
    write_exchange_xml(40, 3, 10_000, &mut doc).expect("write to a Vec");
    assert!(doc.len() > 3 * 64 * 1024);
    let whole = read_all(&doc[..]);
    assert_eq!(whole.1, None);
    assert_eq!(
        read_all(Trickle {
            rest: &doc,
            step: 7
        }),
        whole
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    #[test]
    fn mutated_inputs_read_identically_in_chunks(seed in any::<u64>()) {
        let seeds = seeds();
        let mut rng = StdRng::seed_from_u64(seed);
        let doc = mutate(&seeds[rng.gen_range(0..seeds.len())], &mut rng);
        check(&doc)?;
    }
}
