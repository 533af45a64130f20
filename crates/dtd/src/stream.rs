//! Streaming conformance: `T ⊨ D` in O(depth) memory (DESIGN.md §8.7).
//!
//! [`StreamValidator`] consumes the open/close events of a SAX pass (e.g.
//! [`xmlmap_trees::SaxReader`]) and decides conformance without ever
//! materialising the document: each *open* element owns one subset state of
//! its label's compiled content model (the DTD's own [`crate::DenseNfa`],
//! stepped by the same runner as [`crate::Dtd::check`]), kept on a
//! depth-bounded frame stack whose buffers are pooled across siblings.
//! The validator steps on label ids and checks attribute sets against the
//! per-label attribute ids of [`DtdIndex`]; fed the reader's borrowed
//! start tags ([`StreamValidator::open_tag`]), it resolves each reader
//! name slot to its id once, so a conforming pass hashes no names and
//! allocates nothing per element. A violation — wrong root, unknown
//! label, wrong attribute set, or a child word falling out of the
//! production language — rejects immediately, at the first offending byte
//! of the document.
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
use xmlmap_trees::sax::NAME_SLOTS;
use xmlmap_trees::{BorrowedEvent, Name, NameRef, SaxReader, StartTag, XmlError};

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

/// A reader name-table slot whose id is not looked up yet.
const UNSEEN: u32 = u32::MAX;
/// A reader name-table slot holding a name the DTD does not declare.
const ABSENT: u32 = u32::MAX - 1;

/// Reader name slots ([`NameRef::slot`]) resolved to label and attribute
/// ids of one index, each looked up on first sight.
struct SlotIds {
    labels: [u32; NAME_SLOTS],
    attrs: [u32; NAME_SLOTS],
}

impl SlotIds {
    fn new() -> SlotIds {
        SlotIds {
            labels: [UNSEEN; NAME_SLOTS],
            attrs: [UNSEEN; NAME_SLOTS],
        }
    }

    fn resolve(
        cache: &mut [u32; NAME_SLOTS],
        name: NameRef<'_>,
        look: impl Fn(&Name) -> Option<u32>,
    ) -> Option<u32> {
        let Some(slot) = name.slot() else {
            return look(name.name());
        };
        if cache[slot] == UNSEEN {
            cache[slot] = look(name.name()).unwrap_or(ABSENT);
        }
        Some(cache[slot]).filter(|&id| id != ABSENT)
    }

    fn label(&mut self, idx: &DtdIndex, name: NameRef<'_>) -> Option<u32> {
        Self::resolve(&mut self.labels, name, |n| idx.dtd().label_id(n))
    }

    fn attr(&mut self, idx: &DtdIndex, name: NameRef<'_>) -> Option<u32> {
        Self::resolve(&mut self.attrs, name, |n| idx.attr_id(n.as_str()))
    }
}

/// One open element: its interned label and the subset state of its
/// content-model NFA after the children seen so far.
struct Frame {
    lid: u32,
    state: Vec<u64>,
}

/// A push-based streaming conformance checker.
///
/// Feed [`open_tag`](StreamValidator::open_tag)/[`close`](StreamValidator::close)
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
    /// Attribute ids of the element being opened.
    ids: Vec<Option<u32>>,
    /// Ids of the feeding reader's name slots.
    slots: SlotIds,
    /// [`StreamValidator::canonical_order`] of the last opened element.
    canonical: Vec<u32>,
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
            ids: Vec::new(),
            slots: SlotIds::new(),
            canonical: Vec::new(),
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

    /// Processes a start tag borrowed from the [`SaxReader`] that feeds
    /// this validator, and returns its label id. Attributes are compared
    /// as a name set against `A_D(label)` (the canonical-order
    /// normalisation the arena pipeline applies before checking); on
    /// success, [`StreamValidator::canonical_order`] gives the element's
    /// attributes in the DTD's order. Names resolve to ids once per reader
    /// name slot; names past the reader's table are looked up each time.
    /// Nothing is allocated unless the tag is rejected.
    pub fn open_tag(&mut self, tag: &StartTag<'_>) -> Result<u32, StreamViolation> {
        let label = || tag.label().to_name();
        let lid = match self.slots.label(&self.idx, tag.label()) {
            Some(lid) => lid,
            // The root is in the alphabet, so an unknown label at depth 0
            // is a wrong root.
            None if self.depth == 0 => {
                return Err(StreamViolation::WrongRoot {
                    found: label(),
                    expected: self.idx.dtd().root().clone(),
                })
            }
            None => return Err(StreamViolation::UnknownLabel { label: label() }),
        };
        if self.depth == 0 {
            if lid != self.idx.root() {
                return Err(StreamViolation::WrongRoot {
                    found: label(),
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
                    child: Some(label()),
                });
            }
            parent.state.copy_from_slice(&self.scratch);
        }

        // The attribute set must equal A_D(label): same size, and every
        // declared attribute present — found at its canonical position.
        self.ids.clear();
        self.ids
            .extend((0..tag.len()).map(|i| self.slots.attr(&self.idx, tag.attr_name(i))));
        let expected = self.idx.label_attrs(lid);
        self.canonical.clear();
        let set_ok = self.ids.len() == expected.len()
            && expected.iter().all(
                |&want| match self.ids.iter().position(|&a| a == Some(want)) {
                    Some(i) => {
                        self.canonical.push(i as u32);
                        true
                    }
                    None => false,
                },
            );
        if !set_ok {
            return Err(StreamViolation::WrongAttributes {
                label: label(),
                found: (0..tag.len()).map(|i| tag.attr_name(i).to_name()).collect(),
                expected: expected
                    .iter()
                    .map(|&a| self.idx.attr_names()[a as usize].clone())
                    .collect(),
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
        Ok(lid)
    }

    /// For the element opened last (and accepted): the document index of
    /// each of its attributes, in the DTD's canonical order — the
    /// streaming analogue of the arena pipeline's `normalize_attrs`.
    pub fn canonical_order(&self) -> &[u32] {
        &self.canonical
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
        let step = match event {
            BorrowedEvent::Open(tag) => validator.open_tag(&tag).map(drop),
            BorrowedEvent::Close(_) => validator.close(),
        };
        step.map_err(|v| invalid(&reader, v))?;
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
