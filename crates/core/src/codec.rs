//! Varint and item-sequence byte codecs — the wire format shared by the
//! shuffle layer (`desq-bsp`) and the flat counting path
//! ([`crate::fst::flat`]).
//!
//! The format is LEB128 varints for integers; item *sequences* (candidate
//! subsequences, rewritten inputs, projected suffixes) additionally get an
//! adaptive delta codec ([`encode_item_seq`] / [`decode_item_seq`]).
//! Frequency-ranked encoding makes frequent items small numbers, which is
//! precisely why the paper's preprocessing recodes items by frequency —
//! varints make that compactness pay off on the wire and in interned count
//! tables.

use crate::error::{Error, Result};

/// Encodes `v` as a LEB128 varint.
#[inline]
pub fn write_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Decodes a LEB128 varint, advancing `buf`.
#[inline]
pub fn read_varint(buf: &mut &[u8]) -> Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let (&byte, rest) = buf
            .split_first()
            .ok_or_else(|| Error::Decode("varint: unexpected end of input".into()))?;
        *buf = rest;
        if shift >= 64 {
            return Err(Error::Decode("varint: overflow".into()));
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Appends a length-prefixed byte string: `varint(len)` followed by the
/// raw bytes. The inverse is [`read_bytes`].
#[inline]
pub fn write_bytes(buf: &mut Vec<u8>, bytes: &[u8]) {
    write_varint(buf, bytes.len() as u64);
    buf.extend_from_slice(bytes);
}

/// Decodes one [`write_bytes`] record, advancing `buf` and returning the
/// byte string as a borrowed slice. Rejects lengths exceeding the
/// remaining input (hostile length prefixes never allocate).
#[inline]
pub fn read_bytes<'a>(buf: &mut &'a [u8]) -> Result<&'a [u8]> {
    let len = read_varint(buf)? as usize;
    if len > buf.len() {
        return Err(Error::Decode(format!(
            "byte string: length {len} exceeds remaining input ({})",
            buf.len()
        )));
    }
    let (bytes, rest) = buf.split_at(len);
    *buf = rest;
    Ok(bytes)
}

/// Appends a length-prefixed UTF-8 string ([`write_bytes`] of the bytes).
#[inline]
pub fn write_str(buf: &mut Vec<u8>, s: &str) {
    write_bytes(buf, s.as_bytes());
}

/// Decodes one [`write_str`] record; rejects invalid UTF-8.
#[inline]
pub fn read_str<'a>(buf: &mut &'a [u8]) -> Result<&'a str> {
    let bytes = read_bytes(buf)?;
    std::str::from_utf8(bytes).map_err(|e| Error::Decode(format!("string: invalid UTF-8: {e}")))
}

/// Zigzag-encodes a signed delta (small magnitudes → small varints).
#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Encoded varint byte length of `v` (`⌈significant bits / 7⌉`, min 1).
#[inline]
pub fn varint_len(v: u64) -> usize {
    let bits = 64 - (v | 1).leading_zeros() as usize;
    bits.div_ceil(7)
}

/// Appends the adaptive varint/delta encoding of an item sequence to
/// `buf`.
///
/// Wire format: `varint(len << 1 | mode)`, then the items — mode 0 encodes
/// every item as a plain varint, mode 1 encodes `varint(items[0])`
/// followed by `zigzag_varint(items[i] - items[i-1])` per remaining item.
/// The encoder counts both sizes and picks the smaller one: neighbors of
/// similar frequency rank compress under deltas, while uncorrelated
/// (e.g. Zipf-random) ids stay at their plain-varint size instead of
/// paying the zigzag sign bit. The empty sequence encodes as the single
/// byte `0`.
///
/// The encoding is *canonical*: equal item sequences always produce equal
/// bytes (the mode choice is a pure function of the items), so encoded
/// byte strings can stand in for the sequences themselves as hash-table
/// keys — the contract the interned counting and combine paths rely on.
pub fn encode_item_seq(items: &[u32], buf: &mut Vec<u8>) {
    let mut plain = 0usize;
    let mut delta = 0usize;
    let mut prev = 0i64;
    for (i, &w) in items.iter().enumerate() {
        plain += varint_len(u64::from(w));
        delta += if i == 0 {
            varint_len(u64::from(w))
        } else {
            varint_len(zigzag(i64::from(w) - prev))
        };
        prev = i64::from(w);
    }
    let mode = u64::from(delta < plain);
    write_varint(buf, (items.len() as u64) << 1 | mode);
    let mut prev = 0i64;
    for (i, &w) in items.iter().enumerate() {
        if mode == 0 || i == 0 {
            write_varint(buf, u64::from(w));
        } else {
            write_varint(buf, zigzag(i64::from(w) - prev));
        }
        prev = i64::from(w);
    }
}

/// Decodes one [`encode_item_seq`] record, *appending* the items to `out`
/// (arena-style — callers accumulate many sequences into one flat buffer).
/// Returns the number of items decoded. Rejects truncated input, hostile
/// lengths and deltas leaving the `u32` item range.
pub fn decode_item_seq(buf: &mut &[u8], out: &mut Vec<u32>) -> Result<usize> {
    let head = read_varint(buf)?;
    let len = (head >> 1) as usize;
    let delta_mode = head & 1 == 1;
    // Never pre-allocate more than the remaining input could encode
    // (1 byte per item minimum).
    if len > buf.len() {
        return Err(Error::Decode(format!(
            "item sequence: length {len} exceeds input"
        )));
    }
    out.reserve(len);
    let mut prev = 0i64;
    for i in 0..len {
        let raw = read_varint(buf)?;
        let v = if delta_mode && i > 0 {
            prev.checked_add(unzigzag(raw))
                .ok_or_else(|| Error::Decode("item sequence: delta overflow".into()))?
        } else {
            i64::try_from(raw).map_err(|_| Error::Decode("item sequence: item".into()))?
        };
        let item =
            u32::try_from(v).map_err(|_| Error::Decode(format!("item out of range: {v}")))?;
        out.push(item);
        prev = v;
    }
    Ok(len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_and_str_records_roundtrip() {
        let mut buf = Vec::new();
        write_bytes(&mut buf, b"abc");
        write_str(&mut buf, "σ=10");
        write_bytes(&mut buf, b"");
        let mut s = buf.as_slice();
        assert_eq!(read_bytes(&mut s).unwrap(), b"abc");
        assert_eq!(read_str(&mut s).unwrap(), "σ=10");
        assert_eq!(read_bytes(&mut s).unwrap(), b"");
        assert!(s.is_empty());
    }

    #[test]
    fn byte_records_reject_hostile_lengths_and_bad_utf8() {
        // Length prefix far beyond the remaining input.
        let mut hostile = Vec::new();
        write_varint(&mut hostile, u64::MAX / 2);
        let mut s = hostile.as_slice();
        assert!(read_bytes(&mut s).is_err());
        // Valid byte record that is not UTF-8.
        let mut buf = Vec::new();
        write_bytes(&mut buf, &[0xff, 0xfe]);
        let mut s = buf.as_slice();
        assert!(read_str(&mut s).is_err());
        let mut s = buf.as_slice();
        assert_eq!(read_bytes(&mut s).unwrap(), &[0xff, 0xfe]);
    }

    #[test]
    fn varint_boundaries() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut s = buf.as_slice();
            assert_eq!(read_varint(&mut s).unwrap(), v);
            assert!(s.is_empty());
            assert_eq!(buf.len(), varint_len(v));
        }
    }

    #[test]
    fn varint_is_compact_for_small_values() {
        let mut buf = Vec::new();
        write_varint(&mut buf, 5);
        assert_eq!(buf.len(), 1);
        buf.clear();
        write_varint(&mut buf, 300);
        assert_eq!(buf.len(), 2);
    }

    #[test]
    fn varint_overflow_rejected() {
        let buf = [0xffu8; 11];
        let mut s = &buf[..];
        assert!(read_varint(&mut s).is_err());
    }

    fn item_seq_roundtrip(items: &[u32]) {
        let mut buf = Vec::new();
        encode_item_seq(items, &mut buf);
        let mut s = buf.as_slice();
        let mut out = Vec::new();
        let n = decode_item_seq(&mut s, &mut out).unwrap();
        assert_eq!(n, items.len());
        assert_eq!(out, items);
        assert!(s.is_empty());
    }

    #[test]
    fn item_seq_roundtrips() {
        item_seq_roundtrip(&[]);
        item_seq_roundtrip(&[0]);
        item_seq_roundtrip(&[7, 7, 7]);
        item_seq_roundtrip(&[1, 1000, 3, u32::MAX, 0, u32::MAX]);
        item_seq_roundtrip(&(0..200).collect::<Vec<u32>>());
    }

    #[test]
    fn item_seq_decode_appends_arena_style() {
        let mut buf = Vec::new();
        encode_item_seq(&[5, 6], &mut buf);
        encode_item_seq(&[9], &mut buf);
        let mut s = buf.as_slice();
        let mut arena = vec![1u32];
        assert_eq!(decode_item_seq(&mut s, &mut arena).unwrap(), 2);
        assert_eq!(decode_item_seq(&mut s, &mut arena).unwrap(), 1);
        assert_eq!(arena, vec![1, 5, 6, 9]);
        assert!(s.is_empty());
    }

    #[test]
    fn item_seq_truncation_and_hostile_lengths_rejected() {
        let mut buf = Vec::new();
        encode_item_seq(&[3, 900, 12], &mut buf);
        for cut in 0..buf.len() {
            let mut s = &buf[..cut];
            let mut out = Vec::new();
            assert!(decode_item_seq(&mut s, &mut out).is_err(), "cut at {cut}");
        }
        let mut hostile = Vec::new();
        write_varint(&mut hostile, u64::MAX / 2);
        let mut s = hostile.as_slice();
        assert!(decode_item_seq(&mut s, &mut Vec::new()).is_err());
    }

    #[test]
    fn item_seq_out_of_range_delta_rejected() {
        // Delta mode, len 2, first item u32::MAX, delta +2 → leaves the
        // item range.
        let mut buf = Vec::new();
        write_varint(&mut buf, 2 << 1 | 1);
        write_varint(&mut buf, u64::from(u32::MAX));
        write_varint(&mut buf, super::zigzag(2));
        let mut s = buf.as_slice();
        assert!(decode_item_seq(&mut s, &mut Vec::new()).is_err());
    }

    #[test]
    fn item_seq_picks_the_smaller_mode() {
        // Clustered ranks → delta mode; uncorrelated large ids → plain.
        let clustered: Vec<u32> = (0..32u32).map(|i| 50_000 + i).collect();
        let mut buf = Vec::new();
        encode_item_seq(&clustered, &mut buf);
        assert_eq!(buf[0] & 1, 1, "clustered ids should use delta mode");
        let jumpy: Vec<u32> = (0..32u32)
            .map(|i| if i % 2 == 0 { 3 } else { 1_000_000 })
            .collect();
        let mut plain_buf = Vec::new();
        encode_item_seq(&jumpy, &mut plain_buf);
        assert_eq!(plain_buf[0] & 1, 0, "alternating ids should stay plain");
    }

    #[test]
    fn encoding_is_canonical_per_item_sequence() {
        // Equal sequences → equal bytes, distinct sequences → distinct
        // bytes (the interned-count-table key contract).
        let seqs: Vec<Vec<u32>> = vec![
            vec![],
            vec![1],
            vec![1, 2],
            vec![2, 1],
            vec![1, 2, 3],
            vec![300, 299, 301],
        ];
        let mut encodings = Vec::new();
        for s in &seqs {
            let mut a = Vec::new();
            encode_item_seq(s, &mut a);
            let mut b = Vec::new();
            encode_item_seq(s, &mut b);
            assert_eq!(a, b);
            encodings.push(a);
        }
        for i in 0..encodings.len() {
            for j in 0..i {
                assert_ne!(encodings[i], encodings[j], "{:?} vs {:?}", seqs[i], seqs[j]);
            }
        }
    }
}
