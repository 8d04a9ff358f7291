//! Byte-level serialization for shuffle data.
//!
//! Shuffle volume is a *measured quantity* in the paper's evaluation, so the
//! engine serializes every record for real. The format is LEB128 varints for
//! integers and length-prefixed payloads for containers — compact for the
//! small item ids that dominate mining workloads (frequency-ranked encoding
//! makes frequent items small numbers, which is precisely why the paper's
//! preprocessing recodes items by frequency).
//!
//! The varint and item-sequence primitives live in [`desq_core::codec`];
//! [`encode_item_seq`] / [`decode_item_seq`] are re-exported because every
//! payload that crosses this engine is built from them.

use desq_core::codec::{read_bytes, read_varint, write_bytes, write_varint};
use desq_core::{Error, Result};

pub use desq_core::codec::{decode_item_seq, encode_item_seq};

/// A type that can be serialized into / deserialized from a shuffle stream.
pub trait Codec: Sized {
    /// Appends the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);
    /// Decodes a value, advancing `buf` past it.
    fn decode(buf: &mut &[u8]) -> Result<Self>;
}

impl Codec for u32 {
    fn encode(&self, buf: &mut Vec<u8>) {
        write_varint(buf, u64::from(*self));
    }

    fn decode(buf: &mut &[u8]) -> Result<Self> {
        let v = read_varint(buf)?;
        u32::try_from(v).map_err(|_| Error::Decode(format!("u32 out of range: {v}")))
    }
}

impl Codec for u64 {
    fn encode(&self, buf: &mut Vec<u8>) {
        write_varint(buf, *self);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self> {
        read_varint(buf)
    }
}

impl Codec for Vec<u32> {
    fn encode(&self, buf: &mut Vec<u8>) {
        write_varint(buf, self.len() as u64);
        for &v in self {
            write_varint(buf, u64::from(v));
        }
    }

    fn decode(buf: &mut &[u8]) -> Result<Self> {
        let len = read_varint(buf)? as usize;
        // Guard against hostile lengths: never pre-allocate more than the
        // remaining input could possibly encode (1 byte per element minimum).
        if len > buf.len() {
            return Err(Error::Decode(format!(
                "Vec<u32>: length {len} exceeds input"
            )));
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(u32::decode(buf)?);
        }
        Ok(out)
    }
}

impl Codec for Vec<u8> {
    fn encode(&self, buf: &mut Vec<u8>) {
        write_bytes(buf, self);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self> {
        Ok(read_bytes(buf)?.to_vec())
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self> {
        Ok((A::decode(buf)?, B::decode(buf)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Codec + PartialEq + std::fmt::Debug>(v: T) {
        let mut buf = Vec::new();
        v.encode(&mut buf);
        let mut slice = buf.as_slice();
        let back = T::decode(&mut slice).unwrap();
        assert_eq!(back, v);
        assert!(slice.is_empty(), "decode must consume everything");
    }

    #[test]
    fn primitive_roundtrips() {
        roundtrip(0u32);
        roundtrip(u32::MAX);
        roundtrip(u64::MAX);
        roundtrip(vec![1u32, 2, 3, 1_000_000]);
        roundtrip(Vec::<u32>::new());
        roundtrip(vec![0u8, 255, 7]);
        roundtrip((42u32, vec![1u32, 2]));
        roundtrip((1u32, vec![3u8]));
    }

    #[test]
    fn truncated_input_rejected() {
        let mut buf = Vec::new();
        vec![1u32, 2, 3].encode(&mut buf);
        for cut in 0..buf.len() {
            let mut s = &buf[..cut];
            assert!(Vec::<u32>::decode(&mut s).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn hostile_length_rejected() {
        // Claimed length far beyond the buffer must not allocate/panic.
        let mut buf = Vec::new();
        write_varint(&mut buf, u64::MAX / 2);
        let mut s = buf.as_slice();
        assert!(Vec::<u32>::decode(&mut s).is_err());
        let mut s2 = buf.as_slice();
        assert!(Vec::<u8>::decode(&mut s2).is_err());
    }

    #[test]
    fn item_seq_reexports_roundtrip_through_bsp_paths() {
        let items = [1u32, 1000, 3, 7];
        let mut via_bsp = Vec::new();
        encode_item_seq(&items, &mut via_bsp);
        let mut via_core = Vec::new();
        desq_core::codec::encode_item_seq(&items, &mut via_core);
        assert_eq!(via_bsp, via_core);
        let mut out = Vec::new();
        let mut s = via_bsp.as_slice();
        assert_eq!(decode_item_seq(&mut s, &mut out).unwrap(), items.len());
        assert_eq!(out, items);
    }
}
