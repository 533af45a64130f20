//! A multiply-xor hasher for dense integer keys.
//!
//! The compiled automata kernels intern millions of tiny keys — bitset
//! words, dense id pairs — through `HashMap`s, where `SipHash`'s per-call
//! overhead dominates the actual probe. [`FastHasher`] folds each 8-byte
//! lane with a rotate-xor-multiply round (the `FxHash` recipe), a few
//! instructions per word. It is *not* DoS-resistant: use it only for
//! interned internal state, never for keys an adversary controls.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Rotate-xor-multiply [`Hasher`] over 8-byte lanes. See the module doc.
#[derive(Clone, Copy, Default)]
pub struct FastHasher(u64);

/// Odd constant close to `2^64 / φ`, the usual Fibonacci-hashing
/// multiplier: consecutive ids spread across the high bits.
const K: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Little-endian 8-byte lanes, the last one zero-padded.
        let mut lanes = bytes.chunks_exact(8);
        for lane in &mut lanes {
            self.write_u64(u64::from_le_bytes(lane.try_into().expect("8-byte lane")));
        }
        let tail = lanes.remainder();
        if !tail.is_empty() {
            let lane = tail
                .iter()
                .rev()
                .fold(0u64, |acc, &b| (acc << 8) | u64::from(b));
            self.write_u64(lane);
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(K);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// `BuildHasher` for [`FastHasher`] (deterministic, zero-seeded).
pub type FastBuildHasher = BuildHasherDefault<FastHasher>;

/// `HashMap` with [`FastHasher`] — drop-in for interning tables.
pub type FastHashMap<K, V> = HashMap<K, V, FastBuildHasher>;

/// `HashSet` with [`FastHasher`].
pub type FastHashSet<T> = HashSet<T, FastBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_keys_roundtrip() {
        let mut m: FastHashMap<Box<[u64]>, usize> = FastHashMap::default();
        for i in 0..1000u64 {
            m.insert(vec![i, i * 17].into_boxed_slice(), i as usize);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000u64 {
            assert_eq!(m[&vec![i, i * 17].into_boxed_slice()], i as usize);
        }
    }

    #[test]
    fn bytes_hash_as_zero_padded_little_endian_lanes() {
        let bytes: Vec<u8> = (1..=20).collect();
        for len in 0..=bytes.len() {
            let mut h = FastHasher::default();
            h.write(&bytes[..len]);
            let mut want = FastHasher::default();
            for chunk in bytes[..len].chunks(8) {
                let mut lane = [0u8; 8];
                lane[..chunk.len()].copy_from_slice(chunk);
                want.write_u64(u64::from_le_bytes(lane));
            }
            assert_eq!(h.finish(), want.finish(), "{len} bytes");
        }
    }

    #[test]
    fn hash_is_deterministic() {
        use std::hash::BuildHasher;
        let build = FastBuildHasher::default();
        let key: (u32, Box<[u64]>) = (7, vec![1, 2, 3].into_boxed_slice());
        assert_eq!(build.hash_one(&key), build.hash_one(key.clone()));
    }
}
