//! A pull-based (SAX-style) reader for the element+attribute XML fragment.
//!
//! [`SaxReader`] yields [`SaxEvent::Open`]/[`SaxEvent::Close`] events from
//! any [`std::io::Read`] source without ever materialising a [`crate::Tree`]:
//! the reader keeps a bounded rolling byte buffer plus one interned label per
//! *open* element, so memory is O(depth + chunk), not O(document). This is
//! the entry point for streaming DTD conformance (`xmlmap-dtd`) and streaming
//! pattern evaluation (`xmlmap-patterns`) over documents that don't fit the
//! arena.
//!
//! The dialect is exactly the one of [`crate::xml`] — in fact
//! [`crate::xml::parse`] is now a thin arena builder driven by this reader,
//! so entity handling, attribute parsing, and diagnostics are shared, not
//! duplicated. In particular: elements and attributes only (text content is
//! rejected — the fragment has no text events), the five predefined entities
//! and decimal/hex character references, UTF-8 attribute values,
//! comments and processing instructions skipped, duplicate attributes
//! rejected, and a single root element.

use crate::name::Name;
use crate::value::Value;
use crate::xml::XmlError;
use std::io::Read;

/// Size of one refill of the rolling input buffer.
const CHUNK: usize = 64 * 1024;

/// Longest fixed token the reader ever looks ahead for (`<!--`).
const MAX_LOOKAHEAD: usize = 4;

/// One parsing event.
///
/// A self-closing tag `<a/>` yields an `Open` immediately followed by a
/// `Close`, so consumers see a uniform open/close discipline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SaxEvent {
    /// A start tag: `<label a="1" b="2">` (or the front half of `<label/>`).
    Open {
        /// The element type.
        label: Name,
        /// Attributes in document order.
        attrs: Vec<(Name, Value)>,
    },
    /// An end tag: `</label>` (or the back half of `<label/>`).
    Close {
        /// The element type of the matching start tag.
        label: Name,
    },
}

/// A pull parser over any byte source.
///
/// Call [`SaxReader::next_event`] until it returns `Ok(None)` (clean end of
/// document) or an error. Events are well-nested by construction: the reader
/// itself rejects mismatched or missing close tags, text content, and
/// trailing content after the root element, with the same messages as
/// [`crate::xml::parse`].
pub struct SaxReader<R: Read> {
    src: R,
    buf: Vec<u8>,
    /// Index of the next unconsumed byte in `buf`.
    pos: usize,
    /// Bytes discarded before `buf[0]` (for absolute offsets).
    consumed: usize,
    eof: bool,
    line: u32,
    col: u32,
    /// Labels of currently open elements; `len()` is the depth.
    stack: Vec<Name>,
    /// A self-closing tag was opened; the next event closes `stack.last()`.
    pending_close: bool,
    /// The single root element has been closed.
    root_closed: bool,
    /// High-water mark of `stack.len()`.
    peak_depth: usize,
}

impl<R: Read> SaxReader<R> {
    /// Wraps a byte source. Reading starts at offset 0, line 1, column 1.
    pub fn new(src: R) -> Self {
        SaxReader {
            src,
            buf: Vec::new(),
            pos: 0,
            consumed: 0,
            eof: false,
            line: 1,
            col: 1,
            stack: Vec::new(),
            pending_close: false,
            root_closed: false,
            peak_depth: 0,
        }
    }

    /// Number of currently open elements.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Deepest nesting seen so far.
    pub fn peak_depth(&self) -> usize {
        self.peak_depth
    }

    /// Absolute byte offset of the next unconsumed byte.
    pub fn offset(&self) -> usize {
        self.consumed + self.pos
    }

    /// Current 1-based line and column.
    pub fn position(&self) -> (u32, u32) {
        (self.line, self.col)
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, XmlError> {
        Err(XmlError {
            offset: self.offset(),
            line: self.line,
            col: self.col,
            message: message.into(),
        })
    }

    /// Makes at least `n` bytes (n ≤ MAX_LOOKAHEAD) available at `pos`,
    /// unless the source is exhausted. Consumed bytes are compacted away, so
    /// the buffer never outgrows one chunk plus the lookahead window.
    fn ensure(&mut self, n: usize) -> Result<(), XmlError> {
        debug_assert!(n <= MAX_LOOKAHEAD);
        while !self.eof && self.buf.len() - self.pos < n {
            if self.pos > 0 {
                self.buf.drain(..self.pos);
                self.consumed += self.pos;
                self.pos = 0;
            }
            let old_len = self.buf.len();
            self.buf.resize(old_len + CHUNK, 0);
            match self.src.read(&mut self.buf[old_len..]) {
                Ok(0) => {
                    self.buf.truncate(old_len);
                    self.eof = true;
                }
                Ok(k) => self.buf.truncate(old_len + k),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {
                    self.buf.truncate(old_len);
                }
                Err(e) => {
                    self.buf.truncate(old_len);
                    return self.err(format!("I/O error: {e}"));
                }
            }
        }
        Ok(())
    }

    fn peek(&mut self) -> Result<Option<u8>, XmlError> {
        self.ensure(1)?;
        Ok(self.buf.get(self.pos).copied())
    }

    /// Does the unconsumed input start with `prefix`?
    fn starts_with(&mut self, prefix: &[u8]) -> Result<bool, XmlError> {
        self.ensure(prefix.len())?;
        Ok(self.buf[self.pos..].starts_with(prefix))
    }

    fn bump(&mut self) -> Result<Option<u8>, XmlError> {
        let b = self.peek()?;
        if let Some(b) = b {
            self.pos += 1;
            if b == b'\n' {
                self.line += 1;
                self.col = 1;
            } else {
                self.col += 1;
            }
        }
        Ok(b)
    }

    fn skip_ws(&mut self) -> Result<(), XmlError> {
        while matches!(self.peek()?, Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.bump()?;
        }
        Ok(())
    }

    fn eat(&mut self, b: u8) -> Result<(), XmlError> {
        if self.peek()? == Some(b) {
            self.bump()?;
            Ok(())
        } else {
            self.err(format!("expected {:?}", b as char))
        }
    }

    /// Skips whitespace, comments, and processing instructions.
    fn skip_misc(&mut self) -> Result<(), XmlError> {
        loop {
            self.skip_ws()?;
            if self.starts_with(b"<?")? {
                self.bump()?; // '<'; "?>" may overlap the '?' that follows
                loop {
                    if self.starts_with(b"?>")? {
                        self.bump()?;
                        self.bump()?;
                        break;
                    }
                    if self.bump()?.is_none() {
                        return self.err("unterminated processing instruction");
                    }
                }
            } else if self.starts_with(b"<!--")? {
                self.bump()?; // "<!"; "-->" may overlap the "--" that follows
                self.bump()?;
                loop {
                    if self.starts_with(b"-->")? {
                        for _ in 0..3 {
                            self.bump()?;
                        }
                        break;
                    }
                    if self.bump()?.is_none() {
                        return self.err("unterminated comment");
                    }
                }
            } else {
                return Ok(());
            }
        }
    }

    fn name(&mut self) -> Result<String, XmlError> {
        let mut out = String::new();
        while let Some(b) = self.peek()? {
            if b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b':') {
                out.push(b as char);
                self.bump()?;
            } else {
                break;
            }
        }
        if out.is_empty() {
            return self.err("expected a name");
        }
        Ok(out)
    }

    /// Reads a quoted attribute value. Raw bytes and expanded references
    /// are collected as bytes and decoded as UTF-8 once, at the closing
    /// quote; a value that is not valid UTF-8 is an error positioned at
    /// its opening quote.
    fn quoted_value(&mut self) -> Result<String, XmlError> {
        let start = (self.offset(), self.line, self.col);
        let quote = match self.bump()? {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return self.err("expected a quoted attribute value"),
        };
        let mut out = Vec::new();
        loop {
            match self.bump()? {
                None => return self.err("unterminated attribute value"),
                Some(q) if q == quote => break,
                Some(b'&') => {
                    let c = self.reference()?;
                    out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                }
                Some(b) => out.push(b),
            }
        }
        String::from_utf8(out).map_err(|e| XmlError {
            offset: start.0,
            line: start.1,
            col: start.2,
            message: format!(
                "attribute value is not valid UTF-8 (byte {} of the value)",
                e.utf8_error().valid_up_to()
            ),
        })
    }

    /// Reads the rest of a reference after its `&`: one of the five
    /// predefined entities, or a character reference `&#NN;` / `&#xHH;`.
    fn reference(&mut self) -> Result<char, XmlError> {
        if self.peek()? == Some(b'#') {
            self.bump()?;
            return self.char_ref();
        }
        let mut name = [0u8; 4];
        let mut len = 0;
        loop {
            match self.peek()? {
                None => return self.err("unterminated entity"),
                Some(b';') => {
                    self.bump()?;
                    return match &name[..len] {
                        b"lt" => Ok('<'),
                        b"gt" => Ok('>'),
                        b"amp" => Ok('&'),
                        b"quot" => Ok('"'),
                        b"apos" => Ok('\''),
                        _ => self.err("unknown entity"),
                    };
                }
                Some(b) => {
                    if len == name.len() {
                        return self.err("unknown entity");
                    }
                    name[len] = b;
                    len += 1;
                    self.bump()?;
                }
            }
        }
    }

    /// Reads a character reference after its `&#`. Code point 0,
    /// surrogates and values above U+10FFFF are rejected at the `;`.
    fn char_ref(&mut self) -> Result<char, XmlError> {
        let radix = if self.peek()? == Some(b'x') {
            self.bump()?;
            16
        } else {
            10
        };
        let mut code = 0u32;
        let mut digits = 0;
        loop {
            match self.peek()? {
                None => return self.err("unterminated character reference"),
                Some(b';') => break,
                Some(b) => match (b as char).to_digit(radix) {
                    Some(d) => {
                        code = code.saturating_mul(radix).saturating_add(d);
                        digits += 1;
                        self.bump()?;
                    }
                    None => return self.err("malformed character reference"),
                },
            }
        }
        if digits == 0 {
            return self.err("empty character reference");
        }
        match char::from_u32(code).filter(|&c| c != '\0') {
            Some(c) => {
                self.bump()?; // ';'
                Ok(c)
            }
            None if code > 0x10FFFF => self.err("character reference above U+10FFFF"),
            None => self.err(format!(
                "character reference to disallowed code point U+{code:04X}"
            )),
        }
    }

    /// Pulls the next event, or `Ok(None)` at the clean end of the document.
    pub fn next_event(&mut self) -> Result<Option<SaxEvent>, XmlError> {
        if self.pending_close {
            self.pending_close = false;
            let label = self.stack.pop().expect("pending close on empty stack");
            if self.stack.is_empty() {
                self.root_closed = true;
            }
            return Ok(Some(SaxEvent::Close { label }));
        }
        self.skip_misc()?;
        match self.peek()? {
            None => {
                if let Some(open) = self.stack.last() {
                    return self.err(format!("missing close tag </{open}>"));
                }
                if self.root_closed {
                    Ok(None)
                } else {
                    self.err("expected '<'")
                }
            }
            Some(b'<') => {
                if self.stack.is_empty() && self.root_closed {
                    return self.err("trailing content after the root element");
                }
                if !self.stack.is_empty() && self.starts_with(b"</")? {
                    self.bump()?;
                    self.bump()?;
                    let close = self.name()?;
                    let label = self.stack.last().expect("non-empty stack").clone();
                    if close != *label.as_str() {
                        return self.err(format!("mismatched close tag: expected </{label}>"));
                    }
                    self.skip_ws()?;
                    self.eat(b'>')?;
                    self.stack.pop();
                    if self.stack.is_empty() {
                        self.root_closed = true;
                    }
                    return Ok(Some(SaxEvent::Close { label }));
                }
                self.bump()?; // '<'
                let label = Name::new(self.name()?);
                let mut attrs: Vec<(Name, Value)> = Vec::new();
                loop {
                    self.skip_ws()?;
                    match self.peek()? {
                        Some(b'/') | Some(b'>') => break,
                        Some(_) => {
                            let attr = self.name()?;
                            self.skip_ws()?;
                            self.eat(b'=')?;
                            self.skip_ws()?;
                            let value = self.quoted_value()?;
                            if attrs.iter().any(|(a, _)| *a.as_str() == attr) {
                                return self.err(format!("duplicate attribute {attr:?}"));
                            }
                            attrs.push((Name::new(attr), Value::from(value)));
                        }
                        None => return self.err("unterminated start tag"),
                    }
                }
                self.stack.push(label.clone());
                self.peak_depth = self.peak_depth.max(self.stack.len());
                if self.peek()? == Some(b'/') {
                    self.bump()?;
                    self.eat(b'>')?;
                    self.pending_close = true;
                } else {
                    self.eat(b'>')?;
                }
                Ok(Some(SaxEvent::Open { label, attrs }))
            }
            Some(_) => {
                if !self.stack.is_empty() {
                    self.err("text content is not supported in this fragment")
                } else if self.root_closed {
                    self.err("trailing content after the root element")
                } else {
                    self.err("expected '<'")
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events(input: &str) -> Result<Vec<SaxEvent>, XmlError> {
        let mut r = SaxReader::new(input.as_bytes());
        let mut out = Vec::new();
        while let Some(ev) = r.next_event()? {
            out.push(ev);
        }
        Ok(out)
    }

    fn open(label: &str, attrs: &[(&str, &str)]) -> SaxEvent {
        SaxEvent::Open {
            label: Name::new(label),
            attrs: attrs
                .iter()
                .map(|(a, v)| (Name::new(*a), Value::str(*v)))
                .collect(),
        }
    }

    fn close(label: &str) -> SaxEvent {
        SaxEvent::Close {
            label: Name::new(label),
        }
    }

    #[test]
    fn event_sequence() {
        let evs = events(r#"<r><a x="1"/><b></b></r>"#).unwrap();
        assert_eq!(
            evs,
            vec![
                open("r", &[]),
                open("a", &[("x", "1")]),
                close("a"),
                open("b", &[]),
                close("b"),
                close("r"),
            ]
        );
    }

    #[test]
    fn depth_and_peak_are_tracked() {
        let mut r = SaxReader::new("<r><a><b/></a><c/></r>".as_bytes());
        let mut max_seen = 0;
        while let Some(_ev) = r.next_event().unwrap() {
            max_seen = max_seen.max(r.depth());
        }
        assert_eq!(max_seen, 3);
        assert_eq!(r.peak_depth(), 3);
        assert_eq!(r.depth(), 0);
    }

    #[test]
    fn line_and_column_in_errors() {
        let e = events("<r>\n  <a>text</a>\n</r>").unwrap_err();
        assert_eq!((e.line, e.col), (2, 6));
        assert!(e.message.contains("text content"));
        assert_eq!(e.offset, 9);
    }

    #[test]
    fn small_chunks_see_identical_events() {
        // A reader that returns one byte at a time exercises every
        // refill/compaction boundary.
        struct OneByte<'a>(&'a [u8]);
        impl Read for OneByte<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.0.is_empty() {
                    return Ok(0);
                }
                buf[0] = self.0[0];
                self.0 = &self.0[1..];
                Ok(1)
            }
        }
        let doc = r#"<?xml version="1.0"?><!-- c --><r><a v="x &lt; y"/></r>"#;
        let mut slow = SaxReader::new(OneByte(doc.as_bytes()));
        let mut fast = SaxReader::new(doc.as_bytes());
        loop {
            let (a, b) = (slow.next_event().unwrap(), fast.next_event().unwrap());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn utf8_values_and_character_references() {
        let evs = events(r#"<a v="café" w="&#65;&#x42;&#x1F600;" x="&#xe9;t&#233;"/>"#).unwrap();
        assert_eq!(
            evs[0],
            open("a", &[("v", "café"), ("w", "AB😀"), ("x", "été")])
        );
        // Invalid UTF-8 is reported at the value's opening quote.
        let mut r = SaxReader::new(&b"<r>\n<a v=\"ok\xff\"/></r>"[..]);
        r.next_event().unwrap();
        let e = r.next_event().unwrap_err();
        assert!(e.message.contains("not valid UTF-8"), "{e}");
        assert_eq!((e.offset, e.line, e.col), (9, 2, 6));
        // A bad code point is reported at the reference's `;`.
        let e = events(r#"<a v="&#0;"/>"#).unwrap_err();
        assert_eq!((e.offset, e.line, e.col), (9, 1, 10));
    }

    #[test]
    fn rejects_malformed_input() {
        for (doc, needle) in [
            ("<a><b></a></a>", "mismatched"),
            ("<a>", "missing close tag"),
            ("<a/><b/>", "trailing content"),
            ("<a/>junk", "trailing content"),
            (r#"<a x="1" x="2"/>"#, "duplicate attribute"),
            ("", "expected '<'"),
            (r#"<a v="&nope;"/>"#, "unknown entity"),
            (r#"<a v="&#0;"/>"#, "disallowed code point U+0000"),
            (r#"<a v="&#xD800;"/>"#, "disallowed code point U+D800"),
            (r#"<a v="&#57343;"/>"#, "disallowed code point U+DFFF"),
            (r#"<a v="&#x110000;"/>"#, "above U+10FFFF"),
            (r#"<a v="&#99999999999999;"/>"#, "above U+10FFFF"),
            (r#"<a v="&#;"/>"#, "empty character reference"),
            (r#"<a v="&#x;"/>"#, "empty character reference"),
            (r#"<a v="&#x4G;"/>"#, "malformed character reference"),
            (r#"<a v="&#65"/>"#, "malformed character reference"),
            ("<a v=\"&#65", "unterminated character reference"),
        ] {
            let e = events(doc).unwrap_err();
            assert!(e.message.contains(needle), "{doc}: {e}");
        }
    }
}
