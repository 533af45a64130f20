//! A pull-based (SAX-style) reader for the element+attribute XML fragment.
//!
//! [`SaxReader`] yields events from any [`std::io::Read`] source without
//! ever materialising a [`crate::Tree`]: the reader keeps a rolling byte
//! window plus one label per *open* element, so memory is O(depth + chunk +
//! longest start tag), not O(document) (see `ensure` for the full bound).
//! This is the entry point for streaming DTD conformance (`xmlmap-dtd`) and
//! streaming pattern evaluation (`xmlmap-patterns`) over documents that
//! don't fit the arena.
//!
//! There is one tokenizer and one way to read its events:
//! [`SaxReader::next_event`] yields a [`BorrowedEvent`], valid until the
//! next call. A start tag ([`StartTag`]) carries the label's and each
//! attribute name's slot in the reader's name table, and each attribute
//! value as decoded bytes pointing into the window (or into a reader-owned
//! buffer when the value had references). Reading one allocates nothing;
//! consumers build a [`Name`] or a [`Value`] only for what they keep.
//!
//! The dialect is exactly the one of [`crate::xml`] — in fact
//! [`crate::xml::parse`] is an arena builder driven by this reader, so
//! entity handling, attribute parsing, and diagnostics are shared, not
//! duplicated. In particular: elements and attributes only (text content is
//! rejected — the fragment has no text events), the five predefined entities
//! and decimal/hex character references, UTF-8 attribute values,
//! comments and processing instructions skipped, duplicate attributes
//! rejected, and a single root element. Every byte is checked during the
//! scan: values (UTF-8, reference syntax, duplicates) whether or not a
//! consumer reads them, and the text of comments and processing
//! instructions (UTF-8), though no event carries it.
//!
//! These constructs at the edge of that fragment are decided explicitly:
//!
//! * a UTF-8 byte-order mark at offset 0 is skipped (its three bytes still
//!   count towards offsets and byte columns);
//! * `<!DOCTYPE …>` is rejected at its `<` with "DOCTYPE declarations are
//!   not supported";
//! * `<![CDATA[…]]>` is rejected at its `<` with "CDATA sections are not
//!   supported (the fragment has no text)";
//! * an attribute that follows the previous value's closing quote with no
//!   whitespace in between (`<r a="1"b="2"/>`) is rejected at the
//!   attribute's name, as XML 1.0 requires;
//! * a comment's closing `-->` may not overlap its opening `<!--`
//!   (`<!-->` and `<!--->` are unterminated comments, reported at the end
//!   of input), and `--` inside a comment is rejected at its first `-`
//!   with "'--' is not allowed inside a comment" (XML 1.0 §2.5);
//! * a processing instruction needs a target: `<?>` is rejected right
//!   after its `<?` with "processing instruction has no target"
//!   (XML 1.0 §2.6);
//! * a comment or processing instruction whose bytes are not UTF-8 is
//!   rejected at its first offending byte with "comment is not valid
//!   UTF-8" or "processing instruction is not valid UTF-8".
//!
//! The hot paths scan runs of bytes in the buffered window rather than
//! one byte at a time, and repeated names are shared out of a small table
//! (DESIGN.md §8.7).

use crate::name::Name;
use crate::value::Value;
use crate::xml::XmlError;
use std::io::Read;

/// Size of the rolling input window; it doubles only for a start tag (or
/// other token) that does not fit.
const CHUNK: usize = 64 * 1024;

/// Longest fixed token the reader ever looks ahead for (`<!DOCTYPE`,
/// `<![CDATA[`).
const MAX_LOOKAHEAD: usize = 9;

/// Most distinct names the reader shares out of its name table; a name
/// seen after the table is full has no slot ([`NameRef::slot`] is `None`)
/// and is allocated per use.
pub const NAME_SLOTS: usize = 64;

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

/// A name's table key: its length (clamped) and its first seven bytes, so
/// names shorter than eight bytes compare as one word.
fn name_key(bytes: &[u8]) -> u64 {
    let len = bytes.len().min(255) as u64;
    bytes
        .iter()
        .take(7)
        .enumerate()
        .fold(len << 56, |k, (i, &b)| k | (b as u64) << (8 * i))
}

fn is_ws(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\r' | b'\n')
}

/// One parsing event, borrowed from the reader until its next call.
///
/// A self-closing tag `<a/>` yields an `Open` immediately followed by a
/// `Close`, so consumers see a uniform open/close discipline.
pub enum BorrowedEvent<'r> {
    /// A start tag.
    Open(StartTag<'r>),
    /// An end tag, with the label of its start tag.
    Close(NameRef<'r>),
}

/// A label or attribute name as the reader holds it: its slot in the name
/// table (when it has one) and the shared [`Name`].
#[derive(Clone, Copy)]
pub struct NameRef<'r> {
    slot: Option<usize>,
    name: &'r Name,
}

impl<'r> NameRef<'r> {
    /// The name's slot in this reader's name table (`< NAME_SLOTS`);
    /// equal slots are equal names. `None` once the table is full.
    pub fn slot(&self) -> Option<usize> {
        self.slot
    }

    /// The name.
    pub fn name(&self) -> &'r Name {
        self.name
    }

    /// The name's text.
    pub fn as_str(&self) -> &'r str {
        self.name.as_str()
    }

    /// An owned copy (a reference-count bump).
    pub fn to_name(&self) -> Name {
        self.name.clone()
    }
}

/// A start tag borrowed from the reader: label, attribute names and
/// decoded attribute values, in document order. Nothing is allocated to
/// hand it out; values are bytes already checked to be UTF-8.
pub struct StartTag<'r> {
    label: NameRef<'r>,
    attrs: &'r [Attr],
    names: &'r [Name],
    /// The window from the tag's `<`.
    window: &'r [u8],
    /// Values that had references, decoded.
    decoded: &'r [u8],
}

impl<'r> StartTag<'r> {
    /// The element type.
    pub fn label(&self) -> NameRef<'r> {
        self.label
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// Does the tag carry no attributes?
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    /// The name of attribute `i` (document order).
    pub fn attr_name(&self, i: usize) -> NameRef<'r> {
        name_ref(self.names, &self.attrs[i].name)
    }

    /// The decoded bytes of attribute `i`'s value (valid UTF-8).
    pub fn value_bytes(&self, i: usize) -> &'r [u8] {
        let v = self.attrs[i].value;
        let from = if v.decoded { self.decoded } else { self.window };
        &from[v.start..v.end]
    }

    /// Attribute `i`'s value as text.
    pub fn value_str(&self, i: usize) -> &'r str {
        std::str::from_utf8(self.value_bytes(i)).expect("values are checked during the scan")
    }

    /// Attribute `i`'s value as an owned [`Value`] (one allocation).
    pub fn value(&self, i: usize) -> Value {
        Value::str(self.value_str(i))
    }

    /// Every attribute as an owned `(name, value)` pair, in document
    /// order.
    pub fn owned_attrs(&self) -> impl Iterator<Item = (Name, Value)> + '_ {
        (0..self.len()).map(|i| (self.attr_name(i).to_name(), self.value(i)))
    }
}

/// A label on the open-element stack or an attribute name of the current
/// start tag: a name-table slot, or the name itself once the table is
/// full.
enum Slot {
    Shared(usize),
    Spilled(Name),
}

impl Slot {
    fn same(&self, other: &Slot) -> bool {
        match (self, other) {
            (Slot::Shared(a), Slot::Shared(b)) => a == b,
            // A name in the table never spills, so these never meet.
            (Slot::Shared(_), Slot::Spilled(_)) | (Slot::Spilled(_), Slot::Shared(_)) => false,
            (Slot::Spilled(a), Slot::Spilled(b)) => a == b,
        }
    }
}

fn name_ref<'r>(names: &'r [Name], slot: &'r Slot) -> NameRef<'r> {
    match slot {
        Slot::Shared(i) => NameRef {
            slot: Some(*i),
            name: &names[*i],
        },
        Slot::Spilled(name) => NameRef { slot: None, name },
    }
}

/// Where one attribute value of the current start tag lives: bytes
/// `start..end` of the window from the tag's `<`, or of the decoded
/// buffer.
#[derive(Clone, Copy)]
struct Span {
    decoded: bool,
    start: usize,
    end: usize,
}

/// One attribute of the current start tag.
struct Attr {
    name: Slot,
    value: Span,
}

/// A pull parser over any byte source.
///
/// Call [`SaxReader::next_event`] until it returns `Ok(None)` (clean end
/// of document) or an error. Events are well-nested by construction: the
/// reader itself rejects mismatched or missing close tags, text content,
/// and trailing content after the root element, with the same messages
/// as [`crate::xml::parse`].
pub struct SaxReader<R: Read> {
    src: R,
    /// The rolling window; `buf[pos..end]` is read but unconsumed input,
    /// `buf[end..]` is spare room for the next refill.
    buf: Vec<u8>,
    /// Index of the next unconsumed byte in `buf`.
    pos: usize,
    /// End of the valid bytes in `buf`.
    end: usize,
    /// Index in `buf` of the `<` of the start tag being read or last
    /// handed out; compaction keeps the window from there.
    tag: Option<usize>,
    /// Bytes discarded before `buf[0]` (for absolute offsets).
    consumed: usize,
    eof: bool,
    line: u32,
    col: u32,
    /// Labels of currently open elements; `len()` is the depth.
    stack: Vec<Slot>,
    /// The label of the element closed last.
    closed: Option<Slot>,
    /// Names seen so far (at most [`NAME_SLOTS`]).
    names: Vec<Name>,
    /// `name_key` of each of `names`.
    keys: Vec<u64>,
    /// Attributes of the current start tag.
    attrs: Vec<Attr>,
    /// Decoded values of the current start tag that had references.
    decoded: Vec<u8>,
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
            tag: None,
            consumed: 0,
            eof: false,
            line: 1,
            col: 1,
            stack: Vec::new(),
            closed: None,
            names: Vec::new(),
            keys: Vec::new(),
            attrs: Vec::new(),
            decoded: Vec::new(),
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
    /// bytes away (all but the current start tag's). Offsets relative to
    /// `pos` and to `tag` stay valid across the call. Returns `false` once
    /// the source is exhausted.
    #[cold]
    fn refill(&mut self) -> Result<bool, XmlError> {
        if self.eof {
            return Ok(false);
        }
        let keep = self.tag.unwrap_or(self.pos);
        if keep > 0 {
            self.buf.copy_within(keep..self.end, 0);
            self.consumed += keep;
            self.end -= keep;
            self.pos -= keep;
            self.tag = self.tag.map(|t| t - keep);
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
    /// fit in it. Since a start tag is kept whole from its `<` until the
    /// next event is requested (its names and values are handed out as
    /// slices of the window), and a whitespace run straddling a refill is
    /// kept whole too, the reader's memory is O(depth + chunk + longest
    /// start tag + name table).
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

    /// Consumes the `n` bytes at `pos`, a run of the text of a comment or
    /// processing instruction (`what`) that ends at an ASCII delimiter or
    /// at the end of input, so the run holds whole characters: text that
    /// is not UTF-8 is an error at its first offending byte.
    fn skip_text(&mut self, n: usize, what: &str) -> Result<(), XmlError> {
        if let Err(e) = std::str::from_utf8(&self.buf[self.pos..self.pos + n]) {
            self.advance(e.valid_up_to());
            return self.err(format!("{what} is not valid UTF-8"));
        }
        self.advance(n);
        Ok(())
    }

    /// Skips whitespace, comments, and processing instructions.
    fn skip_misc(&mut self) -> Result<(), XmlError> {
        loop {
            self.skip_ws()?;
            self.ensure(2)?;
            if !matches!(self.buf[self.pos..self.end], [b'<', b'?' | b'!', ..]) {
                return Ok(());
            }
            if self.starts_with(b"<?")? {
                self.advance(2);
                match self.peek()? {
                    None => return self.err("unterminated processing instruction"),
                    Some(b) if !is_name_byte(b) => {
                        return self.err("processing instruction has no target")
                    }
                    Some(_) => {}
                }
                loop {
                    let n = self.scan(|b| b != b'?')?;
                    self.skip_text(n, "processing instruction")?;
                    if self.starts_with(b"?>")? {
                        self.advance(2);
                        break;
                    }
                    if self.bump()?.is_none() {
                        return self.err("unterminated processing instruction");
                    }
                }
            } else if self.starts_with(b"<!--")? {
                self.advance(4);
                loop {
                    let n = self.scan(|b| b != b'-')?;
                    self.skip_text(n, "comment")?;
                    if self.starts_with(b"-->")? {
                        self.advance(3);
                        break;
                    }
                    // `--` must open the terminator (XML 1.0 §2.5).
                    if self.starts_with(b"--")? && self.end - self.pos > 2 {
                        return self.err("'--' is not allowed inside a comment");
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

    /// Reads a label or attribute name: its slot in the name table, adding
    /// it while the table has room, or the name itself once it is full.
    fn name(&mut self) -> Result<Slot, XmlError> {
        let n = self.name_len()?;
        let bytes = &self.buf[self.pos..self.pos + n];
        let key = name_key(bytes);
        let known = self.keys.iter().enumerate().position(|(i, &k)| {
            k == key && (bytes.len() < 8 || self.names[i].as_str().as_bytes() == bytes)
        });
        let slot = match known {
            Some(i) => Slot::Shared(i),
            None => {
                let fresh = Name::new(std::str::from_utf8(bytes).expect("name bytes are ASCII"));
                if self.names.len() < NAME_SLOTS {
                    self.names.push(fresh);
                    self.keys.push(key);
                    Slot::Shared(self.names.len() - 1)
                } else {
                    Slot::Spilled(fresh)
                }
            }
        };
        self.advance(n);
        Ok(slot)
    }

    /// Reads a quoted attribute value of the current start tag, one run
    /// between references at a time, and checks it. A value without
    /// references is left in the window; otherwise raw runs and expanded
    /// references are collected into the decoded buffer and checked once,
    /// at the closing quote. A value that is not valid UTF-8 is an error
    /// positioned at its opening quote.
    fn quoted_value(&mut self) -> Result<Span, XmlError> {
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
        let from = self.decoded.len();
        let mut first = true;
        loop {
            let n = self.scan(|b| b != quote && b != b'&')?;
            let run = &self.buf[self.pos..self.pos + n];
            let closed = self.buf[..self.end].get(self.pos + n) == Some(&quote);
            if closed && first {
                // No reference: the value is this run of the window.
                std::str::from_utf8(run).map_err(not_utf8)?;
                let at = self.pos - self.tag.expect("inside a start tag");
                self.advance(n + 1);
                return Ok(Span {
                    decoded: false,
                    start: at,
                    end: at + n,
                });
            }
            first = false;
            self.decoded.extend_from_slice(run);
            self.advance(n);
            match self.bump()? {
                None => return self.err("unterminated attribute value"),
                Some(b'&') => {
                    let c = self.reference()?;
                    self.decoded
                        .extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                }
                Some(_) => break, // the closing quote
            }
        }
        std::str::from_utf8(&self.decoded[from..]).map_err(not_utf8)?;
        Ok(Span {
            decoded: true,
            start: from,
            end: self.decoded.len(),
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

    /// The text of a stacked label.
    fn label_str<'a>(&'a self, label: &'a Slot) -> &'a str {
        name_ref(&self.names, label).as_str()
    }

    /// Reads the rest of a close tag after its `</`. The name is compared
    /// in place against the innermost open label, so nothing is allocated.
    fn close_tag(&mut self) -> Result<(), XmlError> {
        let n = self.name_len()?;
        let open = self.stack.last().expect("non-empty stack");
        let matches = self.label_str(open).as_bytes() == &self.buf[self.pos..self.pos + n];
        self.advance(n);
        if !matches {
            let open = self.label_str(self.stack.last().expect("non-empty stack"));
            return self.err(format!("mismatched close tag: expected </{open}>"));
        }
        self.skip_ws()?;
        self.eat(b'>')?;
        self.pop();
        Ok(())
    }

    /// Pops the innermost open label into `closed`.
    fn pop(&mut self) {
        self.closed = self.stack.pop();
        if self.stack.is_empty() {
            self.root_closed = true;
        }
    }

    /// Reads the attributes of a start tag into `attrs`, up to (not
    /// including) its `/` or `>`.
    fn attributes(&mut self) -> Result<(), XmlError> {
        self.attrs.clear();
        self.decoded.clear();
        loop {
            let spaced = self.skip_ws()?;
            match self.peek()? {
                Some(b'/') | Some(b'>') => return Ok(()),
                Some(b) => {
                    if !spaced && !self.attrs.is_empty() && is_name_byte(b) {
                        return self.err("attributes must be separated by whitespace");
                    }
                    let name = self.name()?;
                    self.skip_ws()?;
                    self.eat(b'=')?;
                    self.skip_ws()?;
                    let value = self.quoted_value()?;
                    if self.attrs.iter().any(|a| a.name.same(&name)) {
                        let name = name_ref(&self.names, &name).name();
                        return self.err(format!("duplicate attribute {name:?}"));
                    }
                    self.attrs.push(Attr { name, value });
                }
                None => return self.err("unterminated start tag"),
            }
        }
    }

    /// Pulls the next event, borrowed from the reader until the next call,
    /// or `Ok(None)` at the clean end of the document.
    pub fn next_event(&mut self) -> Result<Option<BorrowedEvent<'_>>, XmlError> {
        self.tag = None;
        if self.pending_close {
            self.pending_close = false;
            self.pop();
            return Ok(Some(self.close_event()));
        }
        if self.offset() == 0 && self.starts_with(BOM)? {
            self.advance(BOM.len());
        }
        self.skip_misc()?;
        match self.peek()? {
            None => {
                if let Some(open) = self.stack.last() {
                    let open = self.label_str(open);
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
                self.ensure(2)?;
                // `<` and a name byte can only open a start tag.
                let start_tag = self.buf[..self.end]
                    .get(self.pos + 1)
                    .is_some_and(|&b| is_name_byte(b));
                if !start_tag {
                    if !self.stack.is_empty() && self.starts_with(b"</")? {
                        self.advance(2);
                        self.close_tag()?;
                        return Ok(Some(self.close_event()));
                    }
                    if self.starts_with(b"<!DOCTYPE")? {
                        return self.err("DOCTYPE declarations are not supported");
                    }
                    if self.starts_with(b"<![CDATA[")? {
                        return self
                            .err("CDATA sections are not supported (the fragment has no text)");
                    }
                }
                self.tag = Some(self.pos);
                self.advance(1); // '<'
                let label = self.name()?;
                self.attributes()?;
                self.stack.push(label);
                self.peak_depth = self.peak_depth.max(self.stack.len());
                if self.peek()? == Some(b'/') {
                    self.advance(1);
                    self.eat(b'>')?;
                    self.pending_close = true;
                } else {
                    self.eat(b'>')?;
                }
                let tag = self.tag.expect("inside a start tag");
                Ok(Some(BorrowedEvent::Open(StartTag {
                    label: name_ref(&self.names, self.stack.last().expect("just pushed")),
                    attrs: &self.attrs,
                    names: &self.names,
                    window: &self.buf[tag..self.end],
                    decoded: &self.decoded,
                })))
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

    fn close_event(&self) -> BorrowedEvent<'_> {
        BorrowedEvent::Close(name_ref(
            &self.names,
            self.closed.as_ref().expect("a label was just popped"),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An event with its names and values copied out, so events can be
    /// collected and compared.
    #[derive(Debug, PartialEq)]
    enum Ev {
        Open(Name, Vec<(Name, Value)>),
        Close(Name),
    }

    fn next<R: Read>(r: &mut SaxReader<R>) -> Result<Option<Ev>, XmlError> {
        Ok(r.next_event()?.map(|event| match event {
            BorrowedEvent::Open(tag) => {
                Ev::Open(tag.label().to_name(), tag.owned_attrs().collect())
            }
            BorrowedEvent::Close(label) => Ev::Close(label.to_name()),
        }))
    }

    fn events(input: impl AsRef<[u8]>) -> Result<Vec<Ev>, XmlError> {
        let mut r = SaxReader::new(input.as_ref());
        let mut out = Vec::new();
        while let Some(ev) = next(&mut r)? {
            out.push(ev);
        }
        Ok(out)
    }

    fn open(label: &str, attrs: &[(&str, &str)]) -> Ev {
        Ev::Open(
            Name::new(label),
            attrs
                .iter()
                .map(|(a, v)| (Name::new(*a), Value::str(*v)))
                .collect(),
        )
    }

    fn close(label: &str) -> Ev {
        Ev::Close(Name::new(label))
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
        while r.next_event().unwrap().is_some() {
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
            let (a, b) = (next(&mut slow).unwrap(), next(&mut fast).unwrap());
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
        next(&mut r).unwrap();
        let e = next(&mut r).unwrap_err();
        assert!(e.message.contains("not valid UTF-8"), "{e}");
        assert_eq!((e.offset, e.line, e.col), (9, 2, 6));
        // A bad code point is reported at the reference's `;`.
        let e = events(r#"<a v="&#0;"/>"#).unwrap_err();
        assert_eq!((e.offset, e.line, e.col), (9, 1, 10));
    }

    #[test]
    fn rejects_malformed_input() {
        let table: &[(&[u8], &str)] = &[
            (b"<a><b></a></a>", "mismatched"),
            (b"<a>", "missing close tag"),
            (b"<a/><b/>", "trailing content"),
            (b"<a/>junk", "trailing content"),
            (br#"<a x="1" x="2"/>"#, "duplicate attribute"),
            (b"", "expected '<'"),
            (br#"<a v="&nope;"/>"#, "unknown entity"),
            (br#"<a v="&#0;"/>"#, "disallowed code point U+0000"),
            (br#"<a v="&#xD800;"/>"#, "disallowed code point U+D800"),
            (br#"<a v="&#57343;"/>"#, "disallowed code point U+DFFF"),
            (br#"<a v="&#x110000;"/>"#, "above U+10FFFF"),
            (br#"<a v="&#99999999999999;"/>"#, "above U+10FFFF"),
            (br#"<a v="&#;"/>"#, "empty character reference"),
            (br#"<a v="&#x;"/>"#, "empty character reference"),
            (br#"<a v="&#x4G;"/>"#, "malformed character reference"),
            (br#"<a v="&#65"/>"#, "malformed character reference"),
            (b"<a v=\"&#65", "unterminated character reference"),
            (
                b"<!DOCTYPE r><r/>",
                "DOCTYPE declarations are not supported",
            ),
            (b"<r><![CDATA[x]]></r>", "CDATA sections are not supported"),
            (br#"<r a="1"b="2"/>"#, "separated by whitespace"),
            (b"<r><!--></r>", "unterminated comment"),
            (b"<r><!---></r>", "unterminated comment"),
            (
                b"<r><!-- a -- b --></r>",
                "'--' is not allowed inside a comment",
            ),
            (
                b"<r><!-- a ---></r>",
                "'--' is not allowed inside a comment",
            ),
            (b"<r><?></r>", "processing instruction has no target"),
            (b"<r><??></r>", "processing instruction has no target"),
            (b"<r><?", "unterminated processing instruction"),
            (b"<r><?pi", "unterminated processing instruction"),
            (b"<r><!-- a --", "unterminated comment"),
            (b"<r><!-- \xff --></r>", "comment is not valid UTF-8"),
            (b"<r><!-- \xe2\x98--></r>", "comment is not valid UTF-8"),
            (b"<r/><!-- \xed\xa0\x80 -->", "comment is not valid UTF-8"),
            (
                b"<?xml v='\xc3'?><r/>",
                "processing instruction is not valid UTF-8",
            ),
            (
                b"<r><?pi \x80?></r>",
                "processing instruction is not valid UTF-8",
            ),
        ];
        for &(doc, needle) in table {
            let e = events(doc).unwrap_err();
            assert!(
                e.message.contains(needle),
                "{}: {e}",
                String::from_utf8_lossy(doc)
            );
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
        // Document, message, and (offset, line, column).
        type Row<'a> = (&'a [u8], &'a str, (usize, u32, u32));
        let table: &[Row] = &[
            (
                b"<?xml version=\"1.0\"?>\n<!DOCTYPE r>\n<r/>",
                "DOCTYPE declarations are not supported",
                (22, 2, 1),
            ),
            (
                b"<r>\n  <![CDATA[x]]>\n</r>",
                "CDATA sections are not supported (the fragment has no text)",
                (6, 2, 3),
            ),
            (
                b"<r a=\"1\"b=\"2\"/>",
                "attributes must be separated by whitespace",
                (8, 1, 9),
            ),
            (
                b"<r\n a='1'\n b='2'c='3'/>",
                "attributes must be separated by whitespace",
                (16, 3, 7),
            ),
            // A comment's `-->` may not overlap its `<!--`: both run to the
            // end of input.
            (b"<r><!--></r>", "unterminated comment", (12, 1, 13)),
            (b"<r><!---></r>", "unterminated comment", (13, 1, 14)),
            (
                b"<r>\n<!-- a -- b --></r>",
                "'--' is not allowed inside a comment",
                (11, 2, 8),
            ),
            (
                b"<r><?></r>",
                "processing instruction has no target",
                (5, 1, 6),
            ),
            // Comment and instruction text is checked too, a character
            // cut short by a `-` included: the error is at the first byte
            // that is not UTF-8.
            (
                b"<r>\n<!-- ok \xc3\xa9 \xff --></r>",
                "comment is not valid UTF-8",
                (15, 2, 12),
            ),
            (
                b"<r><!-- \xe2\x98--></r>",
                "comment is not valid UTF-8",
                (8, 1, 9),
            ),
            (
                b"<?pi \xc3(?><r/>",
                "processing instruction is not valid UTF-8",
                (5, 1, 6),
            ),
        ];
        for &(doc, message, at) in table {
            let doc_text = String::from_utf8_lossy(doc);
            let e = events(doc).unwrap_err();
            assert_eq!(e.message, message, "{doc_text}");
            assert_eq!((e.offset, e.line, e.col), at, "{doc_text}: {e}");
        }
        // Whitespace between attributes is still optional around `=`,
        // and a value may be followed directly by `/` or `>`.
        let evs = events("<r a = '1'\tb='2'><s c='3'/></r>").unwrap();
        assert_eq!(evs[0], open("r", &[("a", "1"), ("b", "2")]));
        // Single dashes in comments and targeted instructions still pass.
        let evs = events("<?t x?><r><!-- a - b -> <- --><?pi ??></r>").unwrap();
        assert_eq!(evs, vec![open("r", &[]), close("r")]);
        // Multi-byte text in comments and instructions passes.
        let evs = events("<?t caf\u{e9}?><r><!-- \u{263A} - \u{1F600} --></r>").unwrap();
        assert_eq!(evs, vec![open("r", &[]), close("r")]);
    }

    #[test]
    fn borrowed_tags_carry_slots_and_decoded_values() {
        struct OneByte<'a>(&'a [u8]);
        impl Read for OneByte<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                match self.0.split_first() {
                    None => Ok(0),
                    Some((&b, rest)) => {
                        buf[0] = b;
                        self.0 = rest;
                        Ok(1)
                    }
                }
            }
        }
        let doc = "<r><a v='x &amp; y' w=\"caf\u{e9}\"/><a w='&#x263A;' v=''/></r>";
        // One byte per read: every value was refilled past while its tag
        // was read, so the window must have kept the tag from its `<`.
        let mut r = SaxReader::new(OneByte(doc.as_bytes()));
        let mut seen = Vec::new();
        while let Some(ev) = r.next_event().unwrap() {
            match ev {
                BorrowedEvent::Open(tag) => {
                    let attrs: Vec<(Option<usize>, String, String)> = (0..tag.len())
                        .map(|i| {
                            let name = tag.attr_name(i);
                            (
                                name.slot(),
                                name.as_str().to_string(),
                                tag.value_str(i).to_string(),
                            )
                        })
                        .collect();
                    seen.push((tag.label().slot(), tag.label().as_str().to_string(), attrs));
                }
                BorrowedEvent::Close(label) => assert!(label.slot().is_some()),
            }
        }
        let attr = |slot: usize, n: &str, v: &str| (Some(slot), n.to_string(), v.to_string());
        assert_eq!(
            seen,
            vec![
                (Some(0), "r".to_string(), vec![]),
                (
                    Some(1),
                    "a".to_string(),
                    vec![attr(2, "v", "x & y"), attr(3, "w", "café")]
                ),
                (
                    Some(1),
                    "a".to_string(),
                    vec![attr(3, "w", "☺"), attr(2, "v", "")]
                ),
            ]
        );
    }

    #[test]
    fn repeated_names_share_one_allocation() {
        let evs = events(r#"<r><a v="1"/><a v="2"/></r>"#).unwrap();
        let (first, second) = match (&evs[1], &evs[3]) {
            (Ev::Open(a, x), Ev::Open(b, y)) => ((a, &x[0].0), (b, &y[0].0)),
            other => panic!("unexpected events {other:?}"),
        };
        assert!(std::ptr::eq(first.0.as_str(), second.0.as_str()));
        assert!(std::ptr::eq(first.1.as_str(), second.1.as_str()));
    }

    #[test]
    fn names_past_the_table_cap_still_compare_equal() {
        let mut doc = String::from("<r>");
        for i in 0..2 * NAME_SLOTS {
            doc.push_str(&format!("<e{i} k{i}='v'></e{i}>"));
        }
        doc.push_str("</r>");
        let evs = events(&doc).unwrap();
        assert_eq!(evs.len(), 2 + 4 * NAME_SLOTS);
        let last = 2 * NAME_SLOTS - 1;
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
        let e = events(format!("{doc}!")).unwrap_err();
        assert_eq!((e.line, e.col), (3, 5));
        assert_eq!(e.offset, doc.len());
    }
}
