//! Attribute text beyond ASCII: UTF-8 values and character references
//! must read the same through the tree parser, the SAX reader and the CLI.

use std::process::Command;
use xmlmap::trees::sax::{SaxEvent, SaxReader};
use xmlmap::trees::{xml, Tree, Value};

const DOC: &str = r#"<r><a v="café"/><a v="&#65;"/><a v="&#x263A;"/></r>"#;
const EXPECTED: [&str; 3] = ["café", "A", "☺"];

fn tree_values(t: &Tree) -> Vec<Value> {
    t.children(Tree::ROOT)
        .iter()
        .map(|&c| t.attr(c, "v").expect("attribute v").clone())
        .collect()
}

#[test]
fn tree_parser_and_sax_reader_agree() {
    let expected: Vec<Value> = EXPECTED.iter().map(Value::str).collect();
    let tree = xml::parse(DOC).unwrap();
    assert_eq!(tree_values(&tree), expected);

    let mut reader = SaxReader::new(DOC.as_bytes());
    let mut sax = Vec::new();
    while let Some(ev) = reader.next_event().unwrap() {
        if let SaxEvent::Open { label, attrs } = ev {
            if label.as_str() == "a" {
                sax.push(attrs[0].1.clone());
            }
        }
    }
    assert_eq!(sax, expected);

    // Printing and re-reading keeps the text.
    let again = xml::parse(&xml::to_string(&tree)).unwrap();
    assert_eq!(tree_values(&again), expected);
}

#[test]
fn match_reports_non_ascii_values_unchanged() {
    let path = std::env::temp_dir().join(format!("xmlmap-xml-text-{}.xml", std::process::id()));
    std::fs::write(&path, DOC).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_xmlmap"))
        .args(["match", "r[a(x)]", path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    let _ = std::fs::remove_file(&path);
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    for v in EXPECTED {
        assert!(
            stdout.contains(&format!("x={v}")),
            "{v} missing from\n{stdout}"
        );
    }
    assert!(!stdout.contains("Ã"), "double-encoded output\n{stdout}");
}

#[test]
fn leading_byte_order_mark_is_skipped_by_tree_parser_and_sax_reader() {
    let doc = format!("\u{FEFF}{DOC}");
    let tree = xml::parse(&doc).unwrap();
    assert_eq!(tree, xml::parse(DOC).unwrap());

    let mut with_mark = SaxReader::new(doc.as_bytes());
    let mut without = SaxReader::new(DOC.as_bytes());
    loop {
        let (a, b) = (
            with_mark.next_event().unwrap(),
            without.next_event().unwrap(),
        );
        assert_eq!(a, b);
        if a.is_none() {
            break;
        }
    }
    // The mark's three bytes still count towards offsets and columns.
    let e = xml::parse("\u{FEFF}<r>x</r>").unwrap_err();
    assert!(e.message.contains("text content"), "{e}");
    assert_eq!((e.offset, e.line, e.col), (6, 1, 7));
}

#[test]
fn doctype_cdata_and_unspaced_attributes_are_positioned_errors() {
    for (doc, message, at) in [
        (
            "<!DOCTYPE r [<!ENTITY e 'x'>]><r/>",
            "DOCTYPE declarations are not supported",
            (0, 1, 1),
        ),
        (
            "<r><a/><![CDATA[<a/>]]></r>",
            "CDATA sections are not supported (the fragment has no text)",
            (7, 1, 8),
        ),
        (
            r#"<r><a v="1"w="2"/></r>"#,
            "attributes must be separated by whitespace",
            (11, 1, 12),
        ),
    ] {
        let e = xml::parse(doc).unwrap_err();
        assert_eq!(e.message, message, "{doc}");
        assert_eq!((e.offset, e.line, e.col), at, "{doc}: {e}");
    }
}
