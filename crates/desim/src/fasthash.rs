//! A fast, non-cryptographic hasher for hot-path maps.
//!
//! The standard library's default `SipHash` is DoS-resistant but costs
//! tens of nanoseconds per lookup — measurable when the network engine
//! probes a map per packet. Simulation-internal maps are keyed by
//! trusted, simulator-generated integers (transfer ids, node/port pairs),
//! so a multiply-fold hasher in the spirit of `FxHash` is safe and
//! several times cheaper. Not for untrusted input.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-fold hasher (Fx-style): each word is xor-folded into the
/// state and diffused with an odd multiplicative constant.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

/// Knuth's 64-bit multiplicative-hash constant (golden-ratio derived).
const SEED: u64 = 0x9e37_79b9_7f4a_7c15;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.add(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }
    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(u64::from(v));
    }
    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }
    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with the fast hasher.
#[expect(
    clippy::disallowed_types,
    reason = "the fixed-seed alias the rest of the workspace uses instead of `RandomState`"
)]
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with the fast hasher.
#[expect(
    clippy::disallowed_types,
    reason = "the fixed-seed alias the rest of the workspace uses instead of `RandomState`"
)]
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<u64, &str> = FxHashMap::default();
        for i in 0..1000u64 {
            m.insert(i, "x");
        }
        assert_eq!(m.len(), 1000);
        assert!(m.contains_key(&999));
        assert!(!m.contains_key(&1000));
    }

    #[test]
    fn distinct_keys_hash_differently() {
        use std::hash::BuildHasher;
        let bh = FxBuildHasher::default();
        let hash = |v: u64| bh.hash_one(v);
        // Sequential ids (the common key shape) must not collide.
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(hash(i)), "collision at {i}");
        }
    }

    #[test]
    fn tuple_and_str_keys_work() {
        let mut m: FxHashMap<(u32, u16), u64> = FxHashMap::default();
        m.insert((7, 80), 1);
        assert_eq!(m.get(&(7, 80)), Some(&1));
        let mut s: FxHashMap<String, u64> = FxHashMap::default();
        s.insert("net.packets".into(), 2);
        assert_eq!(s.get("net.packets"), Some(&2));
    }
}
