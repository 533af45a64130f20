//! Streaming conformance: `T ⊨ D` in O(depth) memory (DESIGN.md §8.7).
//!
//! [`StreamValidator`] consumes the open/close events of a SAX pass (e.g.
//! [`xmlmap_trees::SaxReader`]) and decides conformance without ever
//! materialising the document: each *open* element owns one subset state of
//! its label's compiled content model (the DTD's own [`crate::DenseNfa`],
//! stepped by the same runner as [`crate::Dtd::check`]; labels resolve
//! through the DTD's label table), kept on a depth-bounded frame stack whose
//! buffers are pooled across siblings. A
//! violation — wrong root, unknown label, wrong attribute set, or a child
//! word falling out of the production language — rejects immediately, at the
//! first offending byte of the document.
//!
//! Verdicts agree with the arena pipeline `normalize_attrs` +
//! [`crate::Dtd::check`]: attributes are compared as *sets* (documents list
//! them in any order; the DTD's order is canonical), everything else is
//! exact. Error details may differ — the arena checker sweeps the whole
//! document for unknown labels first, while the streaming checker reports
//! the first violation in strict document order.

use crate::index::DtdIndex;
use std::fmt;
use std::io::Read;
use std::sync::Arc;
use xmlmap_trees::{Name, SaxEvent, SaxReader, Value, XmlError};

/// Why a streamed document fails to conform (the positionless analogue of
/// [`crate::ConformanceError`], reported at the first violation in document
/// order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamViolation {
    /// The root label differs from the DTD's root element type.
    WrongRoot {
        /// Label found at the root.
        found: Name,
        /// The DTD's root element type.
        expected: Name,
    },
    /// An element's label is not in the DTD's alphabet.
    UnknownLabel {
        /// The offending label.
        label: Name,
    },
    /// An element's attribute name set differs from `A_D(ℓ)`.
    WrongAttributes {
        /// The element's label.
        label: Name,
        /// Attribute names found, in document order.
        found: Vec<Name>,
        /// Attribute names required by the DTD, in order.
        expected: Vec<Name>,
    },
    /// A child label (or the close of an incomplete child list) drives the
    /// parent's content-model automaton into the empty subset.
    BadChildren {
        /// The parent's label.
        label: Name,
        /// The child label that killed the subset, or `None` when the
        /// element closed with a non-accepting (incomplete) child word.
        child: Option<Name>,
    },
}

impl fmt::Display for StreamViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamViolation::WrongRoot { found, expected } => {
                write!(f, "root is labelled {found}, expected {expected}")
            }
            StreamViolation::UnknownLabel { label } => {
                write!(f, "label {label} is not in the DTD alphabet")
            }
            StreamViolation::WrongAttributes {
                label,
                found,
                expected,
            } => write!(
                f,
                "element {label} has attributes {found:?}, DTD requires {expected:?}"
            ),
            StreamViolation::BadChildren { label, child } => match child {
                Some(c) => write!(
                    f,
                    "child {c} of {label} falls outside the production language"
                ),
                None => write!(f, "{label} closed with an incomplete child list"),
            },
        }
    }
}

impl std::error::Error for StreamViolation {}

/// Everything that can stop a streaming validation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// The input is not well-formed XML (with byte/line/column position).
    Parse(XmlError),
    /// The document is well-formed but does not conform, with the byte
    /// offset and 1-based line/column at which the violation surfaced.
    Invalid {
        /// The violation.
        violation: StreamViolation,
        /// Byte offset where it was detected.
        offset: usize,
        /// 1-based line.
        line: u32,
        /// 1-based column.
        col: u32,
    },
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Parse(e) => write!(f, "{e}"),
            StreamError::Invalid {
                violation,
                offset,
                line,
                col,
            } => write!(
                f,
                "invalid at byte {offset} (line {line}, column {col}): {violation}"
            ),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<XmlError> for StreamError {
    fn from(e: XmlError) -> StreamError {
        StreamError::Parse(e)
    }
}

/// Counters from a completed (or rejected) streaming run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamStats {
    /// Elements opened.
    pub elements: u64,
    /// Deepest open-element nesting.
    pub peak_depth: usize,
    /// High-water mark of live validator state in bytes (frame stack +
    /// subset buffers) — the O(depth) figure the flat-RSS benches assert on.
    pub peak_state_bytes: u64,
}

/// One open element: its interned label and the subset state of its
/// content-model NFA after the children seen so far.
struct Frame {
    lid: u32,
    state: Vec<u64>,
}

/// A push-based streaming conformance checker.
///
/// Feed [`open`](StreamValidator::open)/[`close`](StreamValidator::close)
/// in document order (as yielded by a [`SaxReader`]), then call
/// [`finish`](StreamValidator::finish). The first violation is returned
/// immediately (early reject); the validator must not be fed further events
/// after an error. Memory is O(depth): frames are pooled, so the stack
/// grows to the document's peak depth and is reused across siblings.
pub struct StreamValidator {
    idx: Arc<DtdIndex>,
    /// Frame storage; `stack[..depth]` are live, the rest is the pool.
    stack: Vec<Frame>,
    depth: usize,
    scratch: Vec<u64>,
    stats: StreamStats,
    live_bytes: u64,
}

impl StreamValidator {
    /// Builds a validator over a compiled DTD index. The index is the
    /// compile-once artifact; validators are cheap per-document cursors.
    pub fn new(idx: Arc<DtdIndex>) -> StreamValidator {
        StreamValidator {
            idx,
            stack: Vec::new(),
            depth: 0,
            scratch: Vec::new(),
            stats: StreamStats::default(),
            live_bytes: 0,
        }
    }

    /// The compiled index this validator runs against.
    pub fn index(&self) -> &Arc<DtdIndex> {
        &self.idx
    }

    /// Counters so far (final after [`finish`](StreamValidator::finish)).
    pub fn stats(&self) -> StreamStats {
        self.stats
    }

    /// Processes a start tag. Attributes are compared as a name set
    /// against `A_D(label)` (the canonical-order normalisation the arena
    /// pipeline applies before checking).
    pub fn open(&mut self, label: &Name, attrs: &[(Name, Value)]) -> Result<(), StreamViolation> {
        let lid = match self.idx.dtd().label_id(label) {
            Some(lid) => lid,
            None => {
                if self.depth == 0 && label != self.idx.dtd().root() {
                    return Err(StreamViolation::WrongRoot {
                        found: label.clone(),
                        expected: self.idx.dtd().root().clone(),
                    });
                }
                return Err(StreamViolation::UnknownLabel {
                    label: label.clone(),
                });
            }
        };
        if self.depth == 0 {
            if lid != self.idx.root() {
                return Err(StreamViolation::WrongRoot {
                    found: label.clone(),
                    expected: self.idx.dtd().root().clone(),
                });
            }
        } else {
            // Step the parent's content-model subset on this child label;
            // an empty subset means no conforming continuation exists.
            let parent = &mut self.stack[self.depth - 1];
            let nfa = &self.idx.nfas()[parent.lid as usize];
            self.scratch.clear();
            self.scratch.resize(nfa.words(), 0);
            if !nfa.step(&parent.state, lid, &mut self.scratch) {
                return Err(StreamViolation::BadChildren {
                    label: self.idx.labels()[parent.lid as usize].clone(),
                    child: Some(label.clone()),
                });
            }
            parent.state.copy_from_slice(&self.scratch);
        }

        let expected = self.idx.dtd().attrs(label);
        let set_ok = attrs.len() == expected.len()
            && expected
                .iter()
                .all(|want| attrs.iter().any(|(a, _)| a == want));
        if !set_ok {
            return Err(StreamViolation::WrongAttributes {
                label: label.clone(),
                found: attrs.iter().map(|(a, _)| a.clone()).collect(),
                expected: expected.to_vec(),
            });
        }

        // Push a frame with the initial subset, reusing a pooled buffer
        // when one is available.
        let nfa = &self.idx.nfas()[lid as usize];
        let words = nfa.words();
        if self.depth == self.stack.len() {
            self.stack.push(Frame {
                lid,
                state: Vec::new(),
            });
        }
        let frame = &mut self.stack[self.depth];
        frame.lid = lid;
        frame.state.clear();
        frame.state.resize(words, 0);
        nfa.start(&mut frame.state);
        self.depth += 1;
        self.live_bytes += (words * 8 + std::mem::size_of::<Frame>()) as u64;
        self.stats.elements += 1;
        self.stats.peak_depth = self.stats.peak_depth.max(self.depth);
        self.stats.peak_state_bytes = self
            .stats
            .peak_state_bytes
            .max(self.live_bytes + self.scratch.capacity() as u64 * 8);
        Ok(())
    }

    /// Processes an end tag: the element's child word must leave its
    /// content-model subset in an accepting state.
    pub fn close(&mut self) -> Result<(), StreamViolation> {
        assert!(self.depth > 0, "close without matching open");
        let frame = &self.stack[self.depth - 1];
        let nfa = &self.idx.nfas()[frame.lid as usize];
        if !nfa.accepts(&frame.state) {
            return Err(StreamViolation::BadChildren {
                label: self.idx.labels()[frame.lid as usize].clone(),
                child: None,
            });
        }
        self.live_bytes -= (nfa.words() * 8 + std::mem::size_of::<Frame>()) as u64;
        self.depth -= 1;
        Ok(())
    }

    /// Declares the event stream complete and returns the final counters.
    pub fn finish(self) -> StreamStats {
        assert_eq!(self.depth, 0, "finish with unclosed elements");
        self.stats
    }
}

/// Validates a whole byte stream against `idx` in one SAX pass, rejecting
/// at the first parse error or conformance violation.
pub fn validate_stream<R: Read>(idx: &Arc<DtdIndex>, src: R) -> Result<StreamStats, StreamError> {
    let mut reader = SaxReader::new(src);
    let mut validator = StreamValidator::new(Arc::clone(idx));
    let invalid = |reader: &SaxReader<R>, violation: StreamViolation| {
        let (line, col) = reader.position();
        StreamError::Invalid {
            violation,
            offset: reader.offset(),
            line,
            col,
        }
    };
    while let Some(event) = reader.next_event()? {
        match event {
            SaxEvent::Open { label, attrs } => validator
                .open(&label, &attrs)
                .map_err(|v| invalid(&reader, v))?,
            SaxEvent::Close { .. } => validator.close().map_err(|v| invalid(&reader, v))?,
        }
    }
    Ok(validator.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Dtd;

    fn d1() -> Arc<DtdIndex> {
        Arc::new(DtdIndex::new(
            &crate::parse(
                "root r
                 r -> prof*
                 prof -> teach, supervise
                 teach -> year
                 year -> course, course
                 supervise -> student*
                 prof @ name
                 student @ sid
                 year @ y
                 course @ cno",
            )
            .unwrap(),
        ))
    }

    const GOOD: &str = r#"<r>
      <prof name="Ada">
        <teach><year y="2008"><course cno="cs1"/><course cno="cs2"/></year></teach>
        <supervise><student sid="Sue"/></supervise>
      </prof>
    </r>"#;

    #[test]
    fn accepts_the_paper_example() {
        let stats = validate_stream(&d1(), GOOD.as_bytes()).unwrap();
        assert_eq!(stats.elements, 8);
        assert_eq!(stats.peak_depth, 5);
        assert!(stats.peak_state_bytes > 0);
    }

    #[test]
    fn attribute_order_is_normalised() {
        let idx = Arc::new(DtdIndex::new(&crate::parse("r -> \nr @ x, y").unwrap()));
        assert!(validate_stream(&idx, r#"<r y="2" x="1"/>"#.as_bytes()).is_ok());
        assert!(validate_stream(&idx, r#"<r x="1" z="2"/>"#.as_bytes()).is_err());
    }

    #[test]
    fn early_reject_reports_first_violation() {
        // The bad course arity is rejected at </year>, before the parser
        // ever reaches the trailing garbage.
        let doc = r#"<r><prof name="A"><teach><year y="1"><course cno="c"/></year></teach><supervise/></prof></r> junk"#;
        match validate_stream(&d1(), doc.as_bytes()) {
            Err(StreamError::Invalid { violation, .. }) => {
                assert!(
                    matches!(violation, StreamViolation::BadChildren { ref label, child: None } if label.as_str() == "year"),
                    "{violation}"
                );
            }
            other => panic!("expected invalid, got {other:?}"),
        }
    }

    #[test]
    fn dead_subset_rejects_at_the_open_tag() {
        let doc = r#"<r><prof name="A"><supervise/><teach/></prof></r>"#;
        match validate_stream(&d1(), doc.as_bytes()) {
            Err(StreamError::Invalid { violation, .. }) => {
                assert!(
                    matches!(
                        violation,
                        StreamViolation::BadChildren { ref label, child: Some(ref c) }
                            if label.as_str() == "prof" && c.as_str() == "supervise"
                    ),
                    "{violation}"
                );
            }
            other => panic!("expected invalid, got {other:?}"),
        }
    }

    #[test]
    fn verdicts_match_the_arena_pipeline() {
        let idx = d1();
        let dtd: &Dtd = idx.dtd();
        for doc in [
            GOOD,
            "<r/>",
            "<x/>",
            r#"<r><prof name="A"><teach/><supervise/></prof></r>"#,
            r#"<r><dean/></r>"#,
            r#"<r><prof><teach><year y="1"><course cno="a"/><course cno="b"/></year></teach><supervise/></prof></r>"#,
        ] {
            let streamed = validate_stream(&idx, doc.as_bytes()).is_ok();
            let arena = {
                let mut t = xmlmap_trees::xml::parse(doc).unwrap();
                dtd.normalize_attrs(&mut t).is_ok() && dtd.check(&t).is_ok()
            };
            assert_eq!(streamed, arena, "verdicts diverge on {doc}");
        }
    }

    #[test]
    fn memory_is_depth_not_size() {
        // A wide document (many siblings) must not grow the state, while a
        // deep one grows it linearly in depth only.
        let idx = Arc::new(DtdIndex::new(&crate::parse("r -> a*\na -> a?").unwrap()));
        let wide = format!("<r>{}</r>", "<a/>".repeat(10_000));
        let deep = format!("{}{}", "<a>".repeat(99), "</a>".repeat(99));
        let wide_stats = validate_stream(&idx, wide.as_bytes()).unwrap();
        let deep_stats = validate_stream(&idx, format!("<r>{deep}</r>").as_bytes()).unwrap();
        assert_eq!(wide_stats.peak_depth, 2);
        assert_eq!(deep_stats.peak_depth, 100);
        assert!(wide_stats.peak_state_bytes < deep_stats.peak_state_bytes);
        assert!(wide_stats.peak_state_bytes < 4096, "{wide_stats:?}");
    }
}
