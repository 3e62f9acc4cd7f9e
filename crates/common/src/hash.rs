//! The engine's one hasher and its one shard rule.
//!
//! Every hot hash map on the commit path — a storage table's shards, the
//! rolling checkpoint image, the watermark scheme's active-transaction table
//! and a read fan-out's prefetch buffer — hashes integer keys the engine and
//! its workloads generate, never input crafted to collide, so it needs
//! neither SipHash's flooding resistance nor a random seed, and a fixed
//! hasher makes iteration order repeat from run to run. [`FastHasher`] is a fixed multiplicative hasher: each word is mixed
//! in by one multiply with the 64-bit golden ratio, and [`Hasher::finish`]
//! folds the high bits into the low bits (twice, around one full 128-bit
//! multiply), because the standard map picks its bucket from the low bits
//! and a product `key × odd` keeps every trailing zero bit of `key`
//! (TPC-C's `district × 10⁷` keys end in seven of them).
//!
//! [`shard_of`] is Fibonacci hashing: the top bits of the same product pick
//! one of a fixed number of shards, which spreads sequential keys evenly.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// ⌊2⁶⁴ / φ⌋, odd: the multiplier of both the hasher and the shard rule.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// The shard of `key` among `shards` (Fibonacci hashing: bits 48.. of
/// `key × 2⁶⁴/φ`).
#[inline]
pub fn shard_of(key: u64, shards: usize) -> usize {
    (key.wrapping_mul(GOLDEN) >> 48) as usize % shards
}

/// Fixed, seedless multiplicative hasher for engine-generated integer keys
/// (see the module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher(u64);

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.write_u64(x.into());
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(GOLDEN);
    }

    /// Fold the state's high half onto its low half, then one full 128-bit
    /// multiply whose high half is folded onto its low half again: every
    /// output bit then depends on every bit of the state.
    #[inline]
    fn finish(&self) -> u64 {
        let wide = u128::from(self.0 ^ (self.0 >> 32)) * u128::from(GOLDEN);
        (wide as u64) ^ ((wide >> 64) as u64)
    }
}

/// A `HashMap` hashed by [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::{BuildHasher, Hash};

    const BUCKETS: u64 = 1 << 10;

    fn hash(x: impl Hash) -> u64 {
        BuildHasherDefault::<FastHasher>::default().hash_one(x)
    }

    /// Distinct low-bit buckets (of [`BUCKETS`]) the keys land in.
    fn buckets(keys: impl Iterator<Item = u64>) -> usize {
        keys.map(|k| hash(k) % BUCKETS)
            .collect::<HashSet<_>>()
            .len()
    }

    /// Sequential keys and keys with up to 20 trailing zero bits spread over
    /// the buckets the map indexes by: a random function fills ≈ 63 % of
    /// them, and a plain `key × odd` fills 1 / 2^k at stride 2^k.
    #[test]
    fn low_bits_spread_sequential_and_strided_keys() {
        for k in 0..=20u32 {
            let filled = buckets((0..BUCKETS).map(|i| i << k));
            assert!(
                filled as u64 >= BUCKETS / 2,
                "stride 2^{k}: {filled} of {BUCKETS} buckets"
            );
        }
        let tpcc_like = buckets((1..=BUCKETS).map(|d| d * 10_000_000));
        assert!(tpcc_like as u64 >= BUCKETS / 2, "× 10⁷: {tpcc_like}");
    }

    #[test]
    fn composite_keys_differ_by_every_component() {
        assert_ne!(hash((1u32, 7u64)), hash((2u32, 7u64)));
        assert_ne!(hash((1u32, 7u64)), hash((1u32, 8u64)));
        assert_eq!(hash((3u32, 9u64)), hash((3u32, 9u64)));
    }

    #[test]
    fn shards_spread_sequential_keys_evenly() {
        let mut counts = [0usize; 64];
        for key in 0..64_000u64 {
            counts[shard_of(key, 64)] += 1;
        }
        assert!(
            counts.iter().all(|&c| (900..=1_100).contains(&c)),
            "{counts:?}"
        );
    }
}
