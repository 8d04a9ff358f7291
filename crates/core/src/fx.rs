//! A small FxHash-style hasher, plus the byte-keyed hashing primitives of
//! the interned hot paths.
//!
//! Mining code is dominated by integer-keyed hash maps (item ids, state ids,
//! interned labels). The default SipHash is needlessly slow for this workload;
//! the perf guidance for this workspace recommends an Fx-style multiply-xor
//! hash. `rustc-hash` is not on the allowed dependency list, so we carry the
//! ~40-line algorithm here (same recurrence as rustc's `FxHasher`).
//!
//! The *interned* hot paths — the BSP combine shuffle (PR 4) and the flat
//! candidate-counting sink ([`crate::fst::flat`], PR 5) — avoid `Hasher`
//! entirely: keys are pre-encoded byte strings hashed **once** with
//! [`hash_bytes`], and lookups run over an open-addressing [`ProbeTable`]
//! whose entries live in caller-side arenas.
//!
//! Not DoS-resistant — do not use for attacker-controlled keys.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Murmur-style finalizer: low bits end up depending on every input bit.
#[inline]
fn avalanche(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x
}

/// Fx-style multiply-xor hash over 8-byte words (plus a length mix so
/// zero-padded tails of different lengths differ), finalized with a
/// murmur-style avalanche. Hashed **once** per encoded key; the result is
/// reused for routing ([`bucket_of`]), [`ProbeTable`] probing and
/// reduce-side merging.
#[inline]
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = 0u64;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let word = u64::from_le_bytes(c.try_into().unwrap());
        h = (h.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut buf = [0u8; 8];
        buf[..rem.len()].copy_from_slice(rem);
        h = (h.rotate_left(5) ^ u64::from_le_bytes(buf)).wrapping_mul(SEED);
    }
    h = (h.rotate_left(5) ^ bytes.len() as u64).wrapping_mul(SEED);
    avalanche(h)
}

/// [`hash_bytes`]-quality hash over a `u32` slice (two items per mixing
/// word plus a length mix, finalized with the same avalanche). Used where
/// the key material is an item sequence that has not been byte-encoded
/// yet — e.g. the candidate count table probes on raw items and only
/// encodes on first insertion.
#[inline]
pub fn hash_items(items: &[u32]) -> u64 {
    let mut h = 0u64;
    let mut chunks = items.chunks_exact(2);
    for c in &mut chunks {
        let word = u64::from(c[0]) | u64::from(c[1]) << 32;
        h = (h.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
    if let [last] = chunks.remainder() {
        h = (h.rotate_left(5) ^ u64::from(*last)).wrapping_mul(SEED);
    }
    h = (h.rotate_left(5) ^ items.len() as u64).wrapping_mul(SEED);
    avalanche(h)
}

/// Mixes two [`hash_bytes`] hashes (e.g. a key hash and a payload hash)
/// into one composite table hash.
#[inline]
pub fn mix_hashes(a: u64, b: u64) -> u64 {
    avalanche(a ^ b.wrapping_mul(SEED))
}

/// Bucket of a pre-computed [`hash_bytes`] hash among `buckets` buckets:
/// multiply-shift ("fastrange") reduction — unbiased for any bucket count,
/// no division.
#[inline]
pub fn bucket_of(hash: u64, buckets: usize) -> usize {
    ((u128::from(hash) * buckets as u128) >> 64) as usize
}

/// Open-addressing index table mapping pre-computed 64-bit hashes to `u32`
/// entry indices; key equality is delegated to the caller (entries live in
/// caller-side arenas, so the table itself stores no keys and never
/// re-hashes bytes on probe). Linear probing over a power-of-two slot
/// array.
///
/// # Contract
///
/// Callers own the entry storage and must:
///
/// * pass monotonically growing `len` values to
///   [`grow_if_needed`](ProbeTable::grow_if_needed) **before** every
///   insertion (the table never tracks its own occupancy);
/// * resolve equality in [`find`](ProbeTable::find)'s `eq` callback —
///   typically "stored hash matches, then stored bytes match";
/// * only [`insert`](ProbeTable::insert) into a slot obtained from the
///   immediately preceding `find` (`Err(slot)` is invalidated by any
///   intervening mutation).
pub struct ProbeTable {
    slots: Vec<u32>,
}

const EMPTY_SLOT: u32 = u32::MAX;

impl Default for ProbeTable {
    fn default() -> ProbeTable {
        ProbeTable::new()
    }
}

impl ProbeTable {
    /// An empty table with a small initial capacity.
    pub fn new() -> ProbeTable {
        ProbeTable {
            slots: vec![EMPTY_SLOT; 16],
        }
    }

    /// Empties the table, shrinking it back to its initial slot count (so
    /// a per-sequence user pays for the slots it fills, not for the largest
    /// table it ever needed).
    pub fn clear(&mut self) {
        self.slots.truncate(16);
        self.slots.fill(EMPTY_SLOT);
    }

    /// Grows the table when `len` entries reach 7/8 occupancy (doubling,
    /// or 4× once past 4Ki slots — large tables amortize rehashing over
    /// fewer growth steps); `hash_of` recovers an entry's hash for
    /// rehashing.
    #[inline]
    pub fn grow_if_needed(&mut self, len: usize, hash_of: impl Fn(u32) -> u64) {
        if len * 8 < self.slots.len() * 7 {
            return;
        }
        let factor = if self.slots.len() >= 4096 { 4 } else { 2 };
        let doubled = self.slots.len() * factor;
        let old = std::mem::replace(&mut self.slots, vec![EMPTY_SLOT; doubled]);
        let mask = self.slots.len() - 1;
        for s in old {
            if s != EMPTY_SLOT {
                let mut pos = hash_of(s) as usize & mask;
                while self.slots[pos] != EMPTY_SLOT {
                    pos = (pos + 1) & mask;
                }
                self.slots[pos] = s;
            }
        }
    }

    /// Probes for `hash`; `eq(idx)` confirms a candidate entry. Returns
    /// `Ok(idx)` when found, `Err(slot)` with the insertion slot otherwise
    /// (valid until the next mutation).
    #[inline]
    pub fn find(
        &self,
        hash: u64,
        mut eq: impl FnMut(u32) -> bool,
    ) -> std::result::Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut pos = hash as usize & mask;
        loop {
            let s = self.slots[pos];
            if s == EMPTY_SLOT {
                return Err(pos);
            }
            if eq(s) {
                return Ok(s);
            }
            pos = (pos + 1) & mask;
        }
    }

    /// Fills the insertion slot returned by a failed
    /// [`find`](ProbeTable::find) with entry index `idx`.
    #[inline]
    pub fn insert(&mut self, slot: usize, idx: u32) {
        self.slots[slot] = idx;
    }
}

/// Multiply-xor hasher with the same recurrence as rustc's `FxHasher`.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
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
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_spreads() {
        let mut m: FxHashMap<u32, u32> = FxHashMap::default();
        for i in 0..1000 {
            m.insert(i, i * 2);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m[&123], 246);

        let mut h1 = FxHasher::default();
        h1.write_u64(42);
        let mut h2 = FxHasher::default();
        h2.write_u64(42);
        assert_eq!(h1.finish(), h2.finish());

        let mut h3 = FxHasher::default();
        h3.write_u64(43);
        assert_ne!(h1.finish(), h3.finish());
    }

    #[test]
    fn hash_bytes_distinguishes_zero_padded_tails() {
        assert_ne!(hash_bytes(b""), hash_bytes(b"\0"));
        assert_ne!(hash_bytes(b"\0"), hash_bytes(b"\0\0"));
        assert_ne!(hash_bytes(b"a"), hash_bytes(b"a\0"));
    }

    #[test]
    fn bucket_of_is_stable_and_in_range() {
        let h = hash_bytes(&42u32.to_le_bytes());
        assert_eq!(bucket_of(h, 8), bucket_of(h, 8));
        for buckets in [1usize, 3, 7, 8, 13] {
            for k in 0u32..100 {
                assert!(bucket_of(hash_bytes(&k.to_le_bytes()), buckets) < buckets);
            }
        }
    }

    #[test]
    fn probe_table_finds_inserted_entries_across_growth() {
        // Entries live caller-side: keys are the u64s themselves.
        let mut table = ProbeTable::new();
        let mut keys: Vec<u64> = Vec::new();
        let mut hashes: Vec<u64> = Vec::new();
        for k in 0u64..500 {
            let h = hash_bytes(&k.to_le_bytes());
            table.grow_if_needed(keys.len(), |i| hashes[i as usize]);
            match table.find(h, |i| keys[i as usize] == k) {
                Ok(_) => panic!("{k} not yet inserted"),
                Err(slot) => {
                    keys.push(k);
                    hashes.push(h);
                    table.insert(slot, keys.len() as u32 - 1);
                }
            }
        }
        for k in 0u64..500 {
            let h = hash_bytes(&k.to_le_bytes());
            let idx = table.find(h, |i| keys[i as usize] == k).expect("inserted");
            assert_eq!(keys[idx as usize], k);
        }
        assert!(table
            .find(hash_bytes(&12_345u64.to_le_bytes()), |i| keys[i as usize]
                == 12_345)
            .is_err());
    }

    #[test]
    fn byte_stream_matches_varied_lengths() {
        // Different byte strings must (very likely) hash differently.
        let mut seen = FxHashSet::default();
        for len in 0..32usize {
            let bytes: Vec<u8> = (1..=len as u8).collect();
            let mut h = FxHasher::default();
            h.write(&bytes);
            seen.insert(h.finish());
        }
        assert_eq!(seen.len(), 32);
    }
}
