//! A pull-based (SAX-style) reader for the element+attribute XML fragment.
//!
//! [`SaxReader`] yields [`SaxEvent::Open`]/[`SaxEvent::Close`] events from
//! any [`std::io::Read`] source without ever materialising a [`crate::Tree`]:
//! the reader keeps a rolling byte window plus one interned label per *open*
//! element, so memory is O(depth + chunk + longest token), not O(document)
//! (see `ensure` for the full bound). This is the entry point for streaming
//! DTD conformance (`xmlmap-dtd`) and streaming pattern evaluation
//! (`xmlmap-patterns`) over documents that don't fit the arena.
//!
//! The dialect is exactly the one of [`crate::xml`] — in fact
//! [`crate::xml::parse`] is now a thin arena builder driven by this reader,
//! so entity handling, attribute parsing, and diagnostics are shared, not
//! duplicated. In particular: elements and attributes only (text content is
//! rejected — the fragment has no text events), the five predefined entities
//! and decimal/hex character references, UTF-8 attribute values,
//! comments and processing instructions skipped, duplicate attributes
//! rejected, and a single root element.
//!
//! Four constructs outside that fragment are decided explicitly:
//!
//! * a UTF-8 byte-order mark at offset 0 is skipped (its three bytes still
//!   count towards offsets and byte columns);
//! * `<!DOCTYPE …>` is rejected at its `<` with "DOCTYPE declarations are
//!   not supported";
//! * `<![CDATA[…]]>` is rejected at its `<` with "CDATA sections are not
//!   supported (the fragment has no text)";
//! * an attribute that follows the previous value's closing quote with no
//!   whitespace in between (`<r a="1"b="2"/>`) is rejected at the
//!   attribute's name, as XML 1.0 requires.
//!
//! The hot paths scan runs of bytes in the buffered window rather than
//! one byte at a time, repeated names are shared out of a small table, and
//! an attribute value without references is decoded straight from the
//! window into its [`Value`] (DESIGN.md §8.7).

use crate::name::Name;
use crate::value::Value;
use crate::xml::XmlError;
use std::io::Read;

/// Size of the rolling input window; it doubles only for a token that
/// does not fit.
const CHUNK: usize = 64 * 1024;

/// Longest fixed token the reader ever looks ahead for (`<!DOCTYPE`,
/// `<![CDATA[`).
const MAX_LOOKAHEAD: usize = 9;

/// Most distinct names the reader shares; later names are allocated per
/// use.
const NAME_CAP: usize = 64;

/// The UTF-8 byte-order mark.
const BOM: &[u8] = b"\xEF\xBB\xBF";

/// Bytes that may appear in an element or attribute name.
const NAME_BYTE: [bool; 256] = {
    let mut t = [false; 256];
    let mut b = 0;
    while b < 256 {
        let c = b as u8;
        t[b] = c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b':');
        b += 1;
    }
    t
};

fn is_name_byte(b: u8) -> bool {
    NAME_BYTE[b as usize]
}

fn is_ws(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\r' | b'\n')
}

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
    /// The rolling window; `buf[pos..end]` is read but unconsumed input,
    /// `buf[end..]` is spare room for the next refill.
    buf: Vec<u8>,
    /// Index of the next unconsumed byte in `buf`.
    pos: usize,
    /// End of the valid bytes in `buf`.
    end: usize,
    /// Bytes discarded before `buf[0]` (for absolute offsets).
    consumed: usize,
    eof: bool,
    line: u32,
    col: u32,
    /// Labels of currently open elements; `len()` is the depth.
    stack: Vec<Name>,
    /// Names seen so far (at most [`NAME_CAP`]), handed out as clones.
    names: Vec<Name>,
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
            end: 0,
            consumed: 0,
            eof: false,
            line: 1,
            col: 1,
            stack: Vec::new(),
            names: Vec::new(),
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

    /// Reads one more chunk into the window, first compacting consumed
    /// bytes away. Offsets relative to `pos` stay valid across the call.
    /// Returns `false` once the source is exhausted.
    #[cold]
    fn refill(&mut self) -> Result<bool, XmlError> {
        if self.eof {
            return Ok(false);
        }
        if self.pos > 0 {
            self.buf.copy_within(self.pos..self.end, 0);
            self.consumed += self.pos;
            self.end -= self.pos;
            self.pos = 0;
        }
        if self.end == self.buf.len() {
            // Only a token longer than the window fills it after compaction.
            let grown = (2 * self.buf.len()).max(CHUNK);
            self.buf.resize(grown, 0);
        }
        loop {
            match self.src.read(&mut self.buf[self.end..]) {
                Ok(0) => {
                    self.eof = true;
                    return Ok(false);
                }
                Ok(k) => {
                    self.end += k;
                    return Ok(true);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return self.err(format!("I/O error: {e}")),
            }
        }
    }

    /// Makes at least `n` bytes (n ≤ MAX_LOOKAHEAD) available at `pos`,
    /// unless the source is exhausted.
    ///
    /// The window is one chunk, doubled only when a single token does not
    /// fit in it. Since a name, a whitespace run or an attribute value may
    /// straddle a refill and is kept whole, the reader's memory is
    /// O(depth + chunk + longest token + name cap).
    #[inline]
    fn ensure(&mut self, n: usize) -> Result<(), XmlError> {
        debug_assert!(n <= MAX_LOOKAHEAD);
        while self.end - self.pos < n && self.refill()? {}
        Ok(())
    }

    /// Length of the run at `pos` whose bytes all satisfy `pred`. Refills
    /// only when the run reaches the end of the window, so on return
    /// `buf[pos..pos + len]` is the whole run and the byte after it (if
    /// any) is in the window too.
    #[inline]
    fn scan(&mut self, pred: impl Fn(u8) -> bool) -> Result<usize, XmlError> {
        let mut n = 0;
        loop {
            let from = self.pos + n;
            match self.buf[from..self.end].iter().position(|&b| !pred(b)) {
                Some(k) => return Ok(n + k),
                None => {
                    n = self.end - self.pos;
                    if !self.refill()? {
                        return Ok(n);
                    }
                }
            }
        }
    }

    /// Consumes the `n` bytes at `pos`, updating line and column once for
    /// the whole run. Columns count bytes; both saturate at `u32::MAX`.
    #[inline]
    fn advance(&mut self, n: usize) {
        let clamp = |k: usize| u32::try_from(k).unwrap_or(u32::MAX);
        let run = &self.buf[self.pos..self.pos + n];
        match run.iter().rposition(|&b| b == b'\n') {
            Some(last) => {
                let newlines = 1 + run[..last].iter().filter(|&&b| b == b'\n').count();
                self.line = self.line.saturating_add(clamp(newlines));
                self.col = clamp(n - last);
            }
            None => self.col = self.col.saturating_add(clamp(n)),
        }
        self.pos += n;
    }

    #[inline]
    fn peek(&mut self) -> Result<Option<u8>, XmlError> {
        self.ensure(1)?;
        Ok(self.buf[..self.end].get(self.pos).copied())
    }

    /// Does the unconsumed input start with `prefix`?
    #[inline]
    fn starts_with(&mut self, prefix: &[u8]) -> Result<bool, XmlError> {
        self.ensure(prefix.len())?;
        Ok(self.buf[self.pos..self.end].starts_with(prefix))
    }

    fn bump(&mut self) -> Result<Option<u8>, XmlError> {
        let b = self.peek()?;
        if b.is_some() {
            self.advance(1);
        }
        Ok(b)
    }

    /// Skips a run of whitespace; reports whether there was any.
    fn skip_ws(&mut self) -> Result<bool, XmlError> {
        let n = self.scan(is_ws)?;
        self.advance(n);
        Ok(n > 0)
    }

    fn eat(&mut self, b: u8) -> Result<(), XmlError> {
        if self.peek()? == Some(b) {
            self.advance(1);
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

    /// Length of the name at `pos` (not consumed); a name is never empty.
    fn name_len(&mut self) -> Result<usize, XmlError> {
        match self.scan(is_name_byte)? {
            0 => self.err("expected a name"),
            n => Ok(n),
        }
    }

    /// Reads a label or attribute name. A name already in the table comes
    /// back as a clone of the stored one, so equal names share one `Arc`.
    fn name(&mut self) -> Result<Name, XmlError> {
        let n = self.name_len()?;
        let bytes = &self.buf[self.pos..self.pos + n];
        let name = match self.names.iter().find(|k| k.as_str().as_bytes() == bytes) {
            Some(known) => known.clone(),
            None => {
                let fresh = Name::new(std::str::from_utf8(bytes).expect("name bytes are ASCII"));
                if self.names.len() < NAME_CAP {
                    self.names.push(fresh.clone());
                }
                fresh
            }
        };
        self.advance(n);
        Ok(name)
    }

    /// Reads a quoted attribute value, one run between references at a
    /// time. A value without references is decoded straight from the
    /// window (one allocation); otherwise raw runs and expanded references
    /// are collected and decoded once, at the closing quote.
    /// A value that is not valid UTF-8 is an error positioned at its
    /// opening quote.
    fn quoted_value(&mut self) -> Result<Value, XmlError> {
        let start = (self.offset(), self.line, self.col);
        let quote = match self.bump()? {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return self.err("expected a quoted attribute value"),
        };
        let not_utf8 = |e: std::str::Utf8Error| XmlError {
            offset: start.0,
            line: start.1,
            col: start.2,
            message: format!(
                "attribute value is not valid UTF-8 (byte {} of the value)",
                e.valid_up_to()
            ),
        };
        let mut out = Vec::new();
        loop {
            let n = self.scan(|b| b != quote && b != b'&')?;
            let run = &self.buf[self.pos..self.pos + n];
            let closed = self.buf[..self.end].get(self.pos + n) == Some(&quote);
            if closed && out.is_empty() {
                // No reference so far (each one adds bytes to `out`).
                let value = Value::str(std::str::from_utf8(run).map_err(not_utf8)?);
                self.advance(n + 1);
                return Ok(value);
            }
            out.extend_from_slice(run);
            self.advance(n);
            match self.bump()? {
                None => return self.err("unterminated attribute value"),
                Some(b'&') => {
                    let c = self.reference()?;
                    out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                }
                Some(_) => break, // the closing quote
            }
        }
        String::from_utf8(out)
            .map(Value::from)
            .map_err(|e| not_utf8(e.utf8_error()))
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

    /// Reads the rest of a close tag after its `</`. The name is compared
    /// in place against the innermost open label, so nothing is allocated.
    fn close_tag(&mut self) -> Result<Name, XmlError> {
        let n = self.name_len()?;
        let open = self.stack.last().expect("non-empty stack");
        let matches = open.as_str().as_bytes() == &self.buf[self.pos..self.pos + n];
        self.advance(n);
        if !matches {
            let open = self.stack.last().expect("non-empty stack");
            return self.err(format!("mismatched close tag: expected </{open}>"));
        }
        self.skip_ws()?;
        self.eat(b'>')?;
        Ok(self.stack.pop().expect("non-empty stack"))
    }

    /// Reads the attributes of a start tag, up to (not including) its `/`
    /// or `>`.
    fn attributes(&mut self) -> Result<Vec<(Name, Value)>, XmlError> {
        let mut attrs: Vec<(Name, Value)> = Vec::new();
        loop {
            let spaced = self.skip_ws()?;
            match self.peek()? {
                Some(b'/') | Some(b'>') => return Ok(attrs),
                Some(b) => {
                    if !spaced && !attrs.is_empty() && is_name_byte(b) {
                        return self.err("attributes must be separated by whitespace");
                    }
                    let attr = self.name()?;
                    self.skip_ws()?;
                    self.eat(b'=')?;
                    self.skip_ws()?;
                    let value = self.quoted_value()?;
                    if attrs.iter().any(|(a, _)| *a == attr) {
                        return self.err(format!("duplicate attribute {attr:?}"));
                    }
                    attrs.push((attr, value));
                }
                None => return self.err("unterminated start tag"),
            }
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
        if self.offset() == 0 && self.starts_with(BOM)? {
            self.advance(BOM.len());
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
                    self.advance(2);
                    let label = self.close_tag()?;
                    if self.stack.is_empty() {
                        self.root_closed = true;
                    }
                    return Ok(Some(SaxEvent::Close { label }));
                }
                if self.starts_with(b"<!DOCTYPE")? {
                    return self.err("DOCTYPE declarations are not supported");
                }
                if self.starts_with(b"<![CDATA[")? {
                    return self.err("CDATA sections are not supported (the fragment has no text)");
                }
                self.advance(1); // '<'
                let label = self.name()?;
                let attrs = self.attributes()?;
                self.stack.push(label.clone());
                self.peak_depth = self.peak_depth.max(self.stack.len());
                if self.peek()? == Some(b'/') {
                    self.advance(1);
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
            ("<!DOCTYPE r><r/>", "DOCTYPE declarations are not supported"),
            ("<r><![CDATA[x]]></r>", "CDATA sections are not supported"),
            (r#"<r a="1"b="2"/>"#, "separated by whitespace"),
        ] {
            let e = events(doc).unwrap_err();
            assert!(e.message.contains(needle), "{doc}: {e}");
        }
    }

    #[test]
    fn leftover_constructs_are_decided_with_positions() {
        // A leading byte-order mark is skipped; its bytes still count.
        let evs = events("\u{FEFF}<r a='1'/>").unwrap();
        assert_eq!(evs, vec![open("r", &[("a", "1")]), close("r")]);
        let e = events("\u{FEFF}<r/>x").unwrap_err();
        assert_eq!((e.offset, e.line, e.col), (7, 1, 8));
        // Only at offset 0: a mark after the root is trailing content.
        let e = events("<r/>\u{FEFF}").unwrap_err();
        assert!(e.message.contains("trailing content"), "{e}");
        for (doc, message, at) in [
            (
                "<?xml version=\"1.0\"?>\n<!DOCTYPE r>\n<r/>",
                "DOCTYPE declarations are not supported",
                (22, 2, 1),
            ),
            (
                "<r>\n  <![CDATA[x]]>\n</r>",
                "CDATA sections are not supported (the fragment has no text)",
                (6, 2, 3),
            ),
            (
                "<r a=\"1\"b=\"2\"/>",
                "attributes must be separated by whitespace",
                (8, 1, 9),
            ),
            (
                "<r\n a='1'\n b='2'c='3'/>",
                "attributes must be separated by whitespace",
                (16, 3, 7),
            ),
        ] {
            let e = events(doc).unwrap_err();
            assert_eq!(e.message, message, "{doc}");
            assert_eq!((e.offset, e.line, e.col), at, "{doc}: {e}");
        }
        // Whitespace between attributes is still optional around `=`,
        // and a value may be followed directly by `/` or `>`.
        let evs = events("<r a = '1'\tb='2'><s c='3'/></r>").unwrap();
        assert_eq!(evs[0], open("r", &[("a", "1"), ("b", "2")]));
    }

    #[test]
    fn repeated_names_share_one_allocation() {
        let evs = events(r#"<r><a v="1"/><a v="2"/></r>"#).unwrap();
        let (first, second) = match (&evs[1], &evs[3]) {
            (SaxEvent::Open { label: a, attrs: x }, SaxEvent::Open { label: b, attrs: y }) => {
                ((a, &x[0].0), (b, &y[0].0))
            }
            other => panic!("unexpected events {other:?}"),
        };
        assert!(std::ptr::eq(first.0.as_str(), second.0.as_str()));
        assert!(std::ptr::eq(first.1.as_str(), second.1.as_str()));
    }

    #[test]
    fn names_past_the_table_cap_still_compare_equal() {
        let mut doc = String::from("<r>");
        for i in 0..2 * NAME_CAP {
            doc.push_str(&format!("<e{i} k{i}='v'></e{i}>"));
        }
        doc.push_str("</r>");
        let evs = events(&doc).unwrap();
        assert_eq!(evs.len(), 2 + 4 * NAME_CAP);
        let last = 2 * NAME_CAP - 1;
        assert_eq!(
            evs[evs.len() - 3],
            open(&format!("e{last}"), &[(&format!("k{last}"), "v")])
        );
        assert_eq!(evs[evs.len() - 2], close(&format!("e{last}")));
    }

    #[test]
    fn tokens_straddling_refills_read_whole() {
        // A value longer than one chunk forces the window to grow.
        let long = "x".repeat(3 * CHUNK + 17);
        let doc = format!("<r>\n<a v='{long}' w='&amp;{long}'/>\n</r>");
        let evs = events(&doc).unwrap();
        let amp_long = format!("&{long}");
        assert_eq!(evs[1], open("a", &[("v", &long), ("w", &amp_long)]));
        let e = events(&format!("{doc}!")).unwrap_err();
        assert_eq!((e.line, e.col), (3, 5));
        assert_eq!(e.offset, doc.len());
    }
}
