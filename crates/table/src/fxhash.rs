//! A local Fx-style hasher.
//!
//! The discovery index and the matrix-traversal inner loops are dominated by
//! hash-map probes keyed on small values (integers, short strings, key
//! tuples). Following the perf-book guidance we use the Firefox/rustc "Fx"
//! multiply-rotate hash instead of SipHash; we implement the ~30 lines
//! locally rather than adding a dependency (only the pre-approved offline
//! crates are available to this workspace).
//!
//! HashDoS resistance is irrelevant here: all inputs are generated
//! benchmarks or operator-supplied tables, not adversarial network data.

use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = std::collections::HashSet<T, BuildHasherDefault<FxHasher>>;

pub(crate) const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The rustc/Firefox Fx hash: fast, low-quality, excellent for short keys.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf) ^ rem.len() as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write(b"hello world, this is a test");
        b.write(b"hello world, this is a test");
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn different_inputs_differ() {
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write(b"alpha");
        b.write(b"beta");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn tail_lengths_disambiguated() {
        // "ab" and "ab\0" must not collide via zero padding.
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write(b"ab");
        b.write(b"ab\0");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn usable_in_maps() {
        let mut m: FxHashMap<String, i32> = FxHashMap::default();
        for i in 0..1000 {
            m.insert(format!("key-{i}"), i);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m["key-437"], 437);
    }
}
