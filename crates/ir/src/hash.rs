//! A fast, deterministic hasher for maps keyed by what the program
//! itself produced: ids, addresses, sites, pointers.
//!
//! std's default `RandomState` (SipHash-1-3 under a per-process random
//! key) resists hash flooding by an adversary who chooses the keys.
//! Ids, addresses and sites are produced by the analysed program and
//! this crate, not chosen by an attacker, so they do not need that
//! protection, and SipHash costs several times more per small key.
//! Maps keyed by bytes read from files or sockets keep std's hasher.
//!
//! The mixing is FxHash's (rustc's hasher) as revised by `rustc-hash`
//! 2: add each word and multiply by an odd constant, then rotate in
//! [`Hasher::finish`] so that the well-mixed high bits of the product
//! land in the low bits a hash table indexes by. It has no seed, so a
//! map's iteration order is the same in every run.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier: odd, with well-spread bits.
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// FxHash-style [`Hasher`]: one add and one multiply per word.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        let mut last = [0u8; 8];
        last[..rest.len()].copy_from_slice(rest);
        // The length goes in too, so "a" and "a\0" differ.
        self.add(u64::from_le_bytes(last) ^ ((rest.len() as u64) << 56));
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// Builds [`FxHasher`]s; every one starts from the same state.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` hashed by [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` hashed by [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash>(v: T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_and_key_sensitive() {
        assert_eq!(hash((3u32, 7u32)), hash((3u32, 7u32)));
        assert_ne!(hash((3u32, 7u32)), hash((7u32, 3u32)));
        assert_ne!(hash("a"), hash("a\0"));
        assert_ne!(hash(0u64), hash(1u64));
    }

    #[test]
    fn aligned_keys_spread_over_low_bits() {
        // Pointers and aligned addresses differ only in higher bits.
        // Without the rotate in `finish`, keys `k << 12` would all land
        // in one of 1024 buckets; with it they spread about as well as
        // random hashes do (which hit ~63%).
        for shift in [0, 3, 4, 12, 32] {
            let buckets: FxHashSet<u64> = (0..1024u64).map(|k| hash(k << shift) & 1023).collect();
            assert!(
                buckets.len() > 1024 / 3,
                "shift {shift}: {} buckets",
                buckets.len()
            );
        }
    }
}
