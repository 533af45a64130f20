//! A hand-rolled flat binary codec for compiled engine artifacts.
//!
//! The artifacts the store persists — determinized DFA transition tables
//! and shape trees — are already flat by design, so their on-disk form is
//! a direct dump: little-endian fixed-width integers, length-prefixed
//! sequences and strings, no schema language and no external
//! dependencies (the repo's zero-deps posture, see DESIGN.md §7).
//!
//! The codec is *versioned at the envelope*, not per field: the persistent
//! artifact store (`xmlmap_core::store`) wraps every payload in a magic +
//! format-version + checksum envelope and discards the whole entry on any
//! mismatch, so decoders here can assume a payload produced by the same
//! build and still must never panic on corrupt bytes — every read is
//! bounds-checked and returns [`CodecError`] instead.
//!
//! [`Encoder`] writes into a growable buffer; [`Decoder`] reads back with
//! explicit cursor checks. [`checksum`] is the same rotate-xor-multiply
//! fold as `xmlmap_regex::FastHasher` — not cryptographic, exactly enough
//! to catch truncation and bit rot.

/// Why a payload failed to decode. Callers treat any variant as "artifact
/// unusable, fall back to a fresh compile" — never an error surfaced to
/// the user.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the value it promised.
    Truncated,
    /// A tag, count, or cross-field invariant is out of range.
    Malformed(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "payload truncated"),
            CodecError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Rotate-xor-multiply fold over 8-byte little-endian lanes (the
/// `FastHasher` recipe). Deterministic across runs and platforms.
pub fn checksum(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut h = 0xA5A5_A5A5_5A5A_5A5Au64;
    for chunk in bytes.chunks(8) {
        let mut lane = [0u8; 8];
        lane[..chunk.len()].copy_from_slice(chunk);
        h = (h.rotate_left(5) ^ u64::from_le_bytes(lane)).wrapping_mul(K);
    }
    // Fold the length in so trailing-zero truncations cannot collide.
    (h.rotate_left(5) ^ bytes.len() as u64).wrapping_mul(K)
}

/// Append-only artifact writer.
#[derive(Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// An empty encoder.
    pub fn new() -> Encoder {
        Encoder::default()
    }

    /// The encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `usize` values travel as `u64` (platform-independent).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Fixed 4-byte magic marker (no length prefix).
    pub fn magic(&mut self, m: &[u8; 4]) {
        self.buf.extend_from_slice(m);
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Length-prefixed raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        self.usize(b.len());
        self.buf.extend_from_slice(b);
    }

    /// Length-prefixed `u32` sequence (dense transition tables).
    pub fn u32s(&mut self, vs: &[u32]) {
        self.usize(vs.len());
        for &v in vs {
            self.u32(v);
        }
    }

    /// Length-prefixed bool sequence (one byte per flag; acceptance and
    /// liveness vectors are small next to the transition tables).
    pub fn bools(&mut self, vs: &[bool]) {
        self.usize(vs.len());
        for &v in vs {
            self.u8(v as u8);
        }
    }
}

/// Bounds-checked artifact reader over a borrowed buffer.
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// A decoder positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Decoder<'a> {
        Decoder { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails unless every byte has been consumed — catches payloads that
    /// decode "successfully" into a prefix of themselves.
    pub fn expect_end(&self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError::Malformed("trailing bytes"))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A `u64` that must fit a `usize` *and* be a plausible element count:
    /// anything larger than the remaining byte count is corrupt (every
    /// element takes at least one byte), which stops hostile counts from
    /// provoking huge allocations before the read that would catch them.
    pub fn usize(&mut self) -> Result<usize, CodecError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| CodecError::Malformed("count overflows usize"))
    }

    fn count(&mut self, elem_size: usize) -> Result<usize, CodecError> {
        let n = self.usize()?;
        match n.checked_mul(elem_size) {
            Some(b) if b <= self.remaining() => Ok(n),
            _ => Err(CodecError::Truncated),
        }
    }

    /// Reads a fixed 4-byte magic marker; `None` on truncation.
    pub fn take_magic(&mut self) -> Option<[u8; 4]> {
        self.take(4).ok().map(|s| s.try_into().unwrap())
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, CodecError> {
        let n = self.count(1)?;
        std::str::from_utf8(self.take(n)?)
            .map(str::to_string)
            .map_err(|_| CodecError::Malformed("string is not UTF-8"))
    }

    /// Length-prefixed raw bytes.
    pub fn bytes(&mut self) -> Result<Vec<u8>, CodecError> {
        let n = self.count(1)?;
        Ok(self.take(n)?.to_vec())
    }

    /// Length-prefixed `u32` sequence.
    pub fn u32s(&mut self) -> Result<Vec<u32>, CodecError> {
        let n = self.count(4)?;
        (0..n).map(|_| self.u32()).collect()
    }

    /// Length-prefixed bool sequence.
    pub fn bools(&mut self) -> Result<Vec<bool>, CodecError> {
        let n = self.count(1)?;
        (0..n)
            .map(|_| match self.u8()? {
                0 => Ok(false),
                1 => Ok(true),
                _ => Err(CodecError::Malformed("bool tag")),
            })
            .collect()
    }
}

/// Length-delimited framing over byte streams — the wire format of
/// `xmlmap serve`.
///
/// A frame is a 4-byte little-endian payload length followed by the
/// payload bytes. The reader distinguishes three stream states a server
/// loop cares about: a complete [`frame::ReadFrame::Frame`], a clean
/// [`frame::ReadFrame::Eof`] at a frame boundary, and
/// [`frame::ReadFrame::Idle`] when a read timeout fired before *any* byte
/// of the next frame arrived (so a poll loop can check a shutdown flag
/// without desynchronizing the stream). Once the first byte of a frame
/// has been consumed the reader commits: it retries timeouts until the
/// frame completes, up to [`frame::STALL_RETRY_LIMIT`] consecutive
/// timeouts, after which the frame is
/// reported as corrupt (`InvalidData`) — a half-written frame must never
/// be silently resynchronized.
pub mod frame {
    use std::io::{self, Read, Write};

    /// Hard ceiling a reader enforces on the advertised payload length.
    /// Requests are job lines and responses are JSON rows, so anything
    /// near this is corruption, not traffic.
    pub const MAX_FRAME: u32 = 4 * 1024 * 1024;

    /// Consecutive mid-frame read timeouts tolerated before the frame is
    /// declared stalled. With the ~20ms poll timeouts the server uses,
    /// this bounds a dead mid-frame peer to a few seconds of patience.
    pub const STALL_RETRY_LIMIT: u32 = 100;

    /// What [`read`] found on the stream.
    #[derive(Debug)]
    pub enum ReadFrame {
        /// A complete frame payload.
        Frame(Vec<u8>),
        /// The peer closed the stream at a frame boundary.
        Eof,
        /// A read timeout fired with no byte of the next frame consumed;
        /// the stream is still synchronized — poll and retry.
        Idle,
    }

    /// Writes one length-delimited frame.
    pub fn write(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
        let len = u32::try_from(payload.len())
            .ok()
            .filter(|&n| n <= MAX_FRAME)
            .ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidInput, "frame payload too large")
            })?;
        w.write_all(&len.to_le_bytes())?;
        w.write_all(payload)?;
        w.flush()
    }

    /// Fills `buf`, retrying timeouts; `commit` is whether earlier bytes
    /// of the current frame were already consumed (controls Idle vs
    /// stall handling).
    fn read_exact_patient(
        r: &mut impl Read,
        buf: &mut [u8],
        mut committed: bool,
    ) -> io::Result<Option<bool>> {
        let mut filled = 0;
        let mut stalls = 0u32;
        while filled < buf.len() {
            match r.read(&mut buf[filled..]) {
                Ok(0) => {
                    return if committed {
                        Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "stream ended mid-frame",
                        ))
                    } else {
                        Ok(None) // clean EOF at a frame boundary
                    };
                }
                Ok(n) => {
                    filled += n;
                    committed = true;
                    stalls = 0;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    if !committed {
                        return Ok(Some(false)); // Idle: nothing consumed yet
                    }
                    stalls += 1;
                    if stalls >= STALL_RETRY_LIMIT {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            "frame stalled mid-transfer",
                        ));
                    }
                }
                Err(e) => return Err(e),
            }
        }
        Ok(Some(true))
    }

    /// Reads one frame. `Ok(Idle)` is only possible when the stream has a
    /// read timeout configured; blocking streams return `Frame` or `Eof`.
    pub fn read(r: &mut impl Read, max_len: u32) -> io::Result<ReadFrame> {
        let mut len_buf = [0u8; 4];
        match read_exact_patient(r, &mut len_buf, false)? {
            None => return Ok(ReadFrame::Eof),
            Some(false) => return Ok(ReadFrame::Idle),
            Some(true) => {}
        }
        let len = u32::from_le_bytes(len_buf);
        if len > max_len {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame length {len} exceeds the {max_len}-byte limit"),
            ));
        }
        let mut payload = vec![0u8; len as usize];
        match read_exact_patient(r, &mut payload, true)? {
            Some(_) => Ok(ReadFrame::Frame(payload)),
            None => unreachable!("committed reads never report clean EOF"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_primitive() {
        let mut e = Encoder::new();
        e.u8(7);
        e.u32(0xDEAD_BEEF);
        e.u64(u64::MAX - 1);
        e.usize(42);
        e.str("hédge");
        e.bytes(&[1, 2, 3]);
        e.u32s(&[5, 6, 7]);
        e.bools(&[true, false, true]);
        let buf = e.finish();

        let mut d = Decoder::new(&buf);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX - 1);
        assert_eq!(d.usize().unwrap(), 42);
        assert_eq!(d.str().unwrap(), "hédge");
        assert_eq!(d.bytes().unwrap(), vec![1, 2, 3]);
        assert_eq!(d.u32s().unwrap(), vec![5, 6, 7]);
        assert_eq!(d.bools().unwrap(), vec![true, false, true]);
        d.expect_end().unwrap();
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut e = Encoder::new();
        e.str("hello world");
        e.u32s(&[1, 2, 3]);
        let buf = e.finish();
        // Every proper prefix must fail cleanly.
        for cut in 0..buf.len() {
            let mut d = Decoder::new(&buf[..cut]);
            let r = d.str().and_then(|_| d.u32s());
            assert!(r.is_err(), "prefix of {cut} bytes decoded");
        }
    }

    #[test]
    fn hostile_counts_do_not_allocate() {
        let mut e = Encoder::new();
        e.u64(u64::MAX); // a length prefix promising 2^64 elements
        let buf = e.finish();
        assert_eq!(
            Decoder::new(&buf).u32s().unwrap_err(),
            CodecError::Truncated
        );
        assert_eq!(Decoder::new(&buf).str().unwrap_err(), CodecError::Truncated);
    }

    #[test]
    fn bad_bool_tag_is_malformed() {
        let buf = vec![1, 0, 0, 0, 0, 0, 0, 0, 2u8];
        assert!(matches!(
            Decoder::new(&buf).bools().unwrap_err(),
            CodecError::Malformed(_)
        ));
    }

    #[test]
    fn frames_round_trip_back_to_back() {
        let mut buf = Vec::new();
        frame::write(&mut buf, b"first").unwrap();
        frame::write(&mut buf, b"").unwrap();
        frame::write(&mut buf, b"third frame").unwrap();
        let mut r = std::io::Cursor::new(buf);
        for expect in [&b"first"[..], b"", b"third frame"] {
            match frame::read(&mut r, frame::MAX_FRAME).unwrap() {
                frame::ReadFrame::Frame(p) => assert_eq!(p, expect),
                other => panic!("expected a frame, got {other:?}"),
            }
        }
        assert!(matches!(
            frame::read(&mut r, frame::MAX_FRAME).unwrap(),
            frame::ReadFrame::Eof
        ));
    }

    #[test]
    fn truncated_frame_is_unexpected_eof() {
        let mut buf = Vec::new();
        frame::write(&mut buf, b"payload").unwrap();
        for cut in 1..buf.len() {
            let mut r = std::io::Cursor::new(&buf[..cut]);
            let err = frame::read(&mut r, frame::MAX_FRAME).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "cut {cut}");
        }
    }

    #[test]
    fn oversized_length_prefix_is_invalid_data() {
        let buf = u32::MAX.to_le_bytes().to_vec();
        let err = frame::read(&mut std::io::Cursor::new(buf), frame::MAX_FRAME).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let err =
            frame::write(&mut Vec::new(), &vec![0u8; frame::MAX_FRAME as usize + 1]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }

    #[test]
    fn checksum_detects_flips_and_truncation() {
        let data = b"compiled artifact payload".to_vec();
        let base = checksum(&data);
        assert_eq!(base, checksum(&data), "deterministic");
        for i in 0..data.len() {
            let mut flipped = data.clone();
            flipped[i] ^= 0x40;
            assert_ne!(checksum(&flipped), base, "flip at {i} undetected");
        }
        assert_ne!(checksum(&data[..data.len() - 1]), base);
        // Zero-padding to the same lane boundary must also be caught.
        let mut padded = data.clone();
        padded.push(0);
        assert_ne!(checksum(&padded), base);
    }
}
