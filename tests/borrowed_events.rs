//! Differential tests for the borrowed start tags of the SAX reader.
//!
//! `SaxReader::next_event` hands out start tags whose names are slots in
//! the reader's name table and whose values are decoded bytes in the
//! reader's window. Three properties are checked here:
//!
//! * over generated exchange documents, the reader's error-table
//!   documents (names past the name table included) and their seeded
//!   mutations, reads through 1, 2, 3 and 7-byte sources agree with the
//!   whole read event for event, and error for error (message, offset,
//!   line and column), and the tree parser fails with the same error;
//!   equal name slots always hold equal names;
//! * the streamed chase, which reads values only where a std binds them,
//!   equals the tree chase when the bound attributes carry entity and
//!   character references and raw UTF-8 (in process and through
//!   `xmlmap stream --chase` against `xmlmap chase`);
//! * a value no std binds is still checked: invalid UTF-8 or a bad
//!   reference in a pad record fails the streamed chase at the same
//!   position as the tree parser, and so does a comment that is not
//!   UTF-8, through `xmlmap chase`, `xmlmap stream --chase` and a `batch`
//!   `member` job.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::io::Read;
use std::process::Command;
use xmlmap::core::{EngineContext, StreamChaseError};
use xmlmap::gen::{exchange_mapping, write_exchange_xml};
use xmlmap::trees::sax::{BorrowedEvent, SaxReader};
use xmlmap::trees::{xml, Value, XmlError};

/// The documents of `tests/sax_chunks.rs` (every error of the reader,
/// references, line breaks, comments and processing instructions), the
/// comment and instruction rejections, and documents with more distinct
/// names than the reader's name table holds.
fn docs() -> Vec<String> {
    let mut docs: Vec<String> = [
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
        "<r><!--></r>",
        "<r><!---></r>",
        "<r><!-- a -- b --></r>",
        "<r><?></r>",
        "<r><?pi x?><!-- - --><a v='&apos;&quot;&gt;'/></r>",
    ]
    .iter()
    .map(|d| d.to_string())
    .collect();
    // Past the 64-slot name table: spilled labels and attribute names,
    // a duplicate spilled attribute, and a spilled close-tag mismatch.
    let mut wide = String::from("<r>");
    for i in 0..80 {
        wide.push_str(&format!("<e{i} k{i}='v&amp;{i}' c='{i}'></e{i}>"));
    }
    docs.push(format!("{wide}</r>"));
    docs.push(format!("{wide}<e90 k90='1' k90='2'/></r>"));
    docs.push(format!("{wide}<e91></e92></r>"));
    docs
}

/// Bytes that open, close or separate tokens.
const DELIMITERS: &[u8] = b"<>\"'&;#/=\n-?";

/// Every seed input: generated exchange documents, then [`docs`].
fn seeds() -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for (profs, students, pads) in [(0, 0, 0), (1, 1, 1), (2, 3, 4), (3, 0, 2), (0, 0, 5)] {
        let mut doc = Vec::new();
        write_exchange_xml(profs, students, pads, &mut doc).expect("write to a Vec");
        out.push(doc);
    }
    out.extend(docs().into_iter().map(String::into_bytes));
    out
}

/// Applies 1–4 seeded byte mutations, biased toward delimiters.
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

/// An event with its names and values copied out.
#[derive(Debug, PartialEq)]
enum Ev {
    Open(String, Vec<(String, String)>),
    Close(String),
}

/// Every event, copied out, up to the end of the document or the first
/// error; also checks that a name slot always holds one name.
fn read_all<R: Read>(src: R) -> (Vec<Ev>, Option<XmlError>) {
    let mut reader = SaxReader::new(src);
    let mut events = Vec::new();
    let mut slots: HashMap<usize, String> = HashMap::new();
    let mut check = |slot: Option<usize>, name: &str| {
        if let Some(s) = slot {
            let held = slots.entry(s).or_insert_with(|| name.to_string());
            assert_eq!(held, name, "slot {s} holds two names");
        }
    };
    loop {
        match reader.next_event() {
            Ok(Some(BorrowedEvent::Open(tag))) => {
                check(tag.label().slot(), tag.label().as_str());
                let mut attrs = Vec::new();
                for i in 0..tag.len() {
                    let name = tag.attr_name(i);
                    check(name.slot(), name.as_str());
                    let value = std::str::from_utf8(tag.value_bytes(i)).expect("checked UTF-8");
                    assert_eq!(value, tag.value_str(i));
                    assert_eq!(Value::str(value), tag.value(i));
                    attrs.push((name.as_str().to_string(), value.to_string()));
                }
                events.push(Ev::Open(tag.label().as_str().to_string(), attrs));
            }
            Ok(Some(BorrowedEvent::Close(label))) => {
                check(label.slot(), label.as_str());
                events.push(Ev::Close(label.as_str().to_string()));
            }
            Ok(None) => return (events, None),
            Err(e) => return (events, Some(e)),
        }
    }
}

fn agree(doc: &[u8]) -> Result<(), TestCaseError> {
    let want = read_all(doc);
    for step in [1, 2, 3, 7] {
        prop_assert_eq!(
            &read_all(Trickle { rest: doc, step }),
            &want,
            "{}-byte reads of {:?}",
            step,
            String::from_utf8_lossy(doc)
        );
    }
    prop_assert_eq!(xml::parse_bytes(doc).err(), want.1);
    Ok(())
}

#[test]
fn chunked_reads_agree_on_the_seeds() {
    for doc in seeds() {
        agree(&doc).unwrap();
    }
}

#[test]
fn a_long_document_reads_identically_borrowed() {
    // Several 64 KiB windows, so start tags cross real refills.
    let mut doc = Vec::new();
    write_exchange_xml(40, 3, 10_000, &mut doc).expect("write to a Vec");
    let want = read_all(&doc[..]);
    assert_eq!(want.1, None);
    assert_eq!(
        read_all(Trickle {
            rest: &doc,
            step: 7
        }),
        want
    );
}

#[test]
fn a_start_tag_longer_than_the_window_is_kept_whole() {
    let long = "y".repeat(200_000);
    let doc = format!("<r><a v='{long}' w='&lt;{long}' x='z'/></r>");
    let want = read_all(doc.as_bytes());
    assert_eq!(want.1, None);
    let attr = |name: &str, value: &str| (name.to_string(), value.to_string());
    assert_eq!(
        want.0[1],
        Ev::Open(
            "a".to_string(),
            vec![
                attr("v", &long),
                attr("w", &format!("<{long}")),
                attr("x", "z")
            ]
        )
    );
    assert_eq!(
        read_all(Trickle {
            rest: doc.as_bytes(),
            step: 4093
        }),
        want
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn mutated_inputs_read_identically_borrowed(seed in any::<u64>()) {
        let seeds = seeds();
        let mut rng = StdRng::seed_from_u64(seed);
        let doc = mutate(&seeds[rng.gen_range(0..seeds.len())], &mut rng);
        agree(&doc)?;
    }
}

/// An exchange document whose professor names and student ids — the
/// values the two stds bind — carry references and raw UTF-8, as do some
/// pad values, which no std binds.
const REFERENCES_DOC: &str = r#"<r>
  <prof name="A&amp;B">
    <teach><year y="&#233;t&#xE9;"><course cno="&lt;c1&gt;"/><course cno="c&#x263A;"/></year></teach>
    <supervise><student sid="s&apos;1"/><student sid="Zoë"/></supervise>
  </prof>
  <prof name="café &#x263A;">
    <teach><year y="y&quot;2"><course cno="c3"/><course cno="c3"/></year></teach>
    <supervise/>
  </prof>
  <pad b="&amp;" a="&#65;é"/>
  <pad a="a1" b="b1"/>
</r>
"#;

#[test]
fn streamed_chase_over_references_equals_the_tree_chase() {
    let m = exchange_mapping();
    let ctx = EngineContext::new();
    let mut tree = xml::parse(REFERENCES_DOC).unwrap();
    m.source_dtd.normalize_attrs(&mut tree).unwrap();
    let want = ctx.canonical_solution(&m, &tree).unwrap();
    let out = ctx.chase_stream(&m, REFERENCES_DOC.as_bytes()).unwrap();
    assert_eq!(out.violation, None);
    let got = out.solution.expect("a verdict").expect("a solution");
    assert_eq!(xml::to_string(&got), xml::to_string(&want));
    // The decoded values made it into the solution.
    let printed = xml::to_string(&got);
    for v in ["A&amp;B", "café ☺", "&lt;c1&gt;", "c☺", "été", "Zoë", "s'1"] {
        assert!(printed.contains(v), "{v} missing from\n{printed}");
    }
}

#[test]
fn stream_chase_cli_prints_the_tree_chase_bytes_over_references() {
    let dir = std::env::temp_dir().join(format!("xmlmap-borrowed-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let map = dir.join("exchange.map");
    let doc = dir.join("refs.xml");
    std::fs::write(&map, exchange_mapping().to_string()).unwrap();
    std::fs::write(&doc, REFERENCES_DOC).unwrap();
    let run = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_xmlmap"))
            .args(args)
            .output()
            .expect("binary runs")
    };
    let (map, doc) = (map.to_str().unwrap(), doc.to_str().unwrap());
    let tree = run(&["chase", map, doc]);
    let streamed = run(&["stream", "--chase", map, doc]);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(tree.status.code(), Some(0));
    assert_eq!(streamed.status.code(), Some(0));
    assert!(!tree.stdout.is_empty());
    assert_eq!(
        String::from_utf8(streamed.stdout).unwrap(),
        String::from_utf8(tree.stdout).unwrap()
    );
}

#[test]
fn values_no_std_binds_are_still_checked() {
    let m = exchange_mapping();
    let ctx = EngineContext::new();
    let body = "<r>\n  <prof name=\"p\"><teach><year y=\"y\"><course cno=\"c\"/><course cno=\"d\"/></year></teach><supervise/></prof>\n";
    for (pad, message, at) in [
        (
            &b"  <pad a=\"a\xff\" b=\"b\"/>\n</r>\n"[..],
            "attribute value is not valid UTF-8 (byte 1 of the value)",
            (118, 3, 10),
        ),
        (
            &b"  <pad a=\"a\" b=\"&#233;\xc3\"/>\n</r>\n"[..],
            "attribute value is not valid UTF-8 (byte 2 of the value)",
            (124, 3, 16),
        ),
        (
            &b"  <pad a=\"a\" b=\"&bogus;\"/>\n</r>\n"[..],
            "unknown entity",
            (130, 3, 22),
        ),
        (
            &b"  <pad a=\"&#xD800;\" b=\"b\"/>\n</r>\n"[..],
            "character reference to disallowed code point U+D800",
            (126, 3, 18),
        ),
    ] {
        let doc = [body.as_bytes(), pad].concat();
        let want = XmlError {
            offset: at.0,
            line: at.1,
            col: at.2,
            message: message.to_string(),
        };
        // The reader and the tree parser report it where a reader that
        // builds every value would...
        assert_eq!(read_all(&doc[..]).1.as_ref(), Some(&want));
        assert_eq!(xml::parse_bytes(&doc).err().as_ref(), Some(&want));
        // ... and so do the streamed chase and streamed validation, which
        // never build the pad's values.
        match ctx.chase_stream(&m, &doc[..]) {
            Err(StreamChaseError::Parse(e)) => assert_eq!(e, want),
            Err(e) => panic!("expected a parse error, got {e}"),
            Ok(out) => panic!("expected a parse error, got {:?}", out.violation),
        }
        let validated = ctx.stream_document(&m.source_dtd, None, &doc[..]);
        assert_eq!(
            validated.err().map(|e| e.to_string()),
            Some(want.to_string())
        );
    }
}

#[test]
fn a_comment_that_is_not_utf8_fails_every_driver_at_one_position() {
    let dir = std::env::temp_dir().join(format!("xmlmap-comment-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("copy.map"),
        "[source]\nroot r\nr -> a*\na @ v\n[target]\nroot r\nr -> b*\nb @ w\n\
         [stds]\nr/a(x) --> r/b(x)\n",
    )
    .unwrap();
    std::fs::write(dir.join("c.xml"), b"<r>\n<!-- \xff --><a v=\"1\"/></r>").unwrap();
    std::fs::write(dir.join("t.xml"), "<r/>").unwrap();
    std::fs::write(dir.join("jobs.txt"), "member copy.map c.xml t.xml\n").unwrap();
    let run = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_xmlmap"))
            .current_dir(&dir)
            .args(args)
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        String::from_utf8(out.stderr).unwrap()
    };
    let chase = run(&["chase", "copy.map", "c.xml"]);
    let streamed = run(&["stream", "--chase", "copy.map", "c.xml"]);
    let batch = run(&["batch", "jobs.txt"]);
    let _ = std::fs::remove_dir_all(&dir);
    let error = "c.xml: XML parse error at byte 9 (line 2, column 6): comment is not valid UTF-8";
    assert_eq!(chase, format!("error: {error}\n"));
    assert_eq!(streamed, chase);
    assert!(batch.contains(&format!("line 1: {error}\n")), "{batch}");
}
