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
