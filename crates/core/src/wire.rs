//! The workspace's one wire layer. The `desq-serve` query protocol and the
//! `desq_dist::bsp` shuffle protocol are message enums over this grammar:
//!
//! ```text
//! frame   := varint(payload_len) payload
//! payload := tag_byte message_body
//! error   := kind:u8 msg:str (pos:varint if kind = 0)
//! list    := varint(count) (varint(len) bytes)*
//! ```
//!
//! Integers are LEB128 varints and `str` is `varint(len)` + UTF-8, both
//! from [`crate::codec`]. A reader validates `payload_len` against the
//! caller's cap *before* allocating, a list count against
//! [`MAX_LIST_LEN`] and the remaining input before reserving, and a
//! payload decodes to exactly one message or to a typed
//! [`Error::Decode`] — never a panic, never a partial message.
//!
//! # Error kinds
//!
//! | kind | variant | kind | variant |
//! |------|---------|------|---------|
//! | `0` | [`Error::Parse`] (+ `pos`) | `6` | [`Error::DeadlineExceeded`] |
//! | `1` | [`Error::UnknownItem`] | `7` | [`Error::Cancelled`] |
//! | `2` | [`Error::CyclicHierarchy`] | `8` | [`Error::WorkerPanicked`] |
//! | `3` | [`Error::ResourceExhausted`] | `9` | [`Error::PeerUnreachable`] |
//! | `4` | [`Error::Decode`] | `10` | retired, decodes as unknown |
//! | `5` | [`Error::Invalid`] | | |

use std::io::{self, Read, Write};

use crate::codec::{read_bytes, read_str, read_varint, write_bytes, write_str, write_varint};
use crate::error::{Error, Result};

/// Most entries one byte list may declare. Lists carry one entry per
/// reduce bucket or per map task (thousands at the outside), while every
/// decoded entry costs a `Vec` header however few bytes it took on the
/// wire: without a cap a frame of zero bytes decodes to 24× its size.
pub const MAX_LIST_LEN: usize = 1 << 16;

fn invalid_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Writes one frame (length prefix + payload) and flushes. Fails with
/// `InvalidData`, before anything is written, when the payload exceeds
/// `max_len`.
pub fn write_frame(w: &mut impl Write, payload: &[u8], max_len: usize) -> io::Result<()> {
    if payload.len() > max_len {
        return Err(invalid_data(format!(
            "frame payload of {} bytes exceeds the cap of {max_len}",
            payload.len()
        )));
    }
    let mut prefix = Vec::with_capacity(10);
    write_varint(&mut prefix, payload.len() as u64);
    w.write_all(&prefix)?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame's payload bytes (the length prefix is consumed and
/// validated, not returned).
///
/// Fails with `UnexpectedEof` on a closed or truncated stream and with
/// `InvalidData` on an overlong length varint or a length above `max_len`
/// — checked *before* the payload buffer is allocated.
pub fn read_frame(r: &mut impl Read, max_len: usize) -> io::Result<Vec<u8>> {
    let mut len = 0u64;
    let mut shift = 0u32;
    loop {
        let mut byte = [0u8; 1];
        r.read_exact(&mut byte)?;
        if shift >= 64 {
            return Err(invalid_data("frame length varint overflows u64".into()));
        }
        len |= u64::from(byte[0] & 0x7f) << shift;
        if byte[0] & 0x80 == 0 {
            break;
        }
        shift += 7;
    }
    if len > max_len as u64 {
        return Err(invalid_data(format!(
            "frame length {len} exceeds the cap of {max_len}"
        )));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

/// Takes one byte off `buf`; `what` names the field in the error.
pub fn take_u8(buf: &mut &[u8], what: &str) -> Result<u8> {
    let (&byte, rest) = buf
        .split_first()
        .ok_or_else(|| Error::Decode(format!("{what}: unexpected end of input")))?;
    *buf = rest;
    Ok(byte)
}

/// Rejects bytes left over after a message: a frame carries exactly one.
pub fn expect_end(buf: &[u8], what: &str) -> Result<()> {
    if buf.is_empty() {
        Ok(())
    } else {
        Err(Error::Decode(format!(
            "{what}: {} trailing bytes after the message",
            buf.len()
        )))
    }
}

/// Appends a list of byte strings.
pub fn write_byte_list(buf: &mut Vec<u8>, list: &[Vec<u8>]) {
    write_varint(buf, list.len() as u64);
    for bytes in list {
        write_bytes(buf, bytes);
    }
}

/// Decodes one [`write_byte_list`] record into owned byte strings.
pub fn read_byte_list(buf: &mut &[u8]) -> Result<Vec<Vec<u8>>> {
    let n = read_varint(buf)?;
    // One byte per entry at the least; the cap bounds the `Vec` headers.
    if n > buf.len().min(MAX_LIST_LEN) as u64 {
        return Err(Error::Decode(format!(
            "byte list: count {n} exceeds the input ({} bytes) or the cap of {MAX_LIST_LEN}",
            buf.len()
        )));
    }
    let mut list = Vec::with_capacity(n as usize);
    for _ in 0..n {
        list.push(read_bytes(buf)?.to_vec());
    }
    Ok(list)
}

/// Appends `kind:u8 msg:str` (+ `pos:varint` for parse errors) — the table
/// in the [module docs](self).
pub fn encode_error(e: &Error, buf: &mut Vec<u8>) {
    let (kind, msg) = match e {
        Error::Parse { msg, .. } => (0u8, msg),
        Error::UnknownItem(msg) => (1, msg),
        Error::CyclicHierarchy(msg) => (2, msg),
        Error::ResourceExhausted(msg) => (3, msg),
        Error::Decode(msg) => (4, msg),
        Error::Invalid(msg) => (5, msg),
        Error::DeadlineExceeded(msg) => (6, msg),
        Error::Cancelled(msg) => (7, msg),
        Error::WorkerPanicked(msg) => (8, msg),
        Error::PeerUnreachable(msg) => (9, msg),
    };
    buf.push(kind);
    write_str(buf, msg);
    if let Error::Parse { pos, .. } = e {
        write_varint(buf, *pos as u64);
    }
}

/// Decodes one [`encode_error`] record.
pub fn decode_error(buf: &mut &[u8]) -> Result<Error> {
    let kind = take_u8(buf, "error kind")?;
    let msg = read_str(buf)?.to_string();
    Ok(match kind {
        0 => Error::Parse {
            msg,
            pos: read_varint(buf)? as usize,
        },
        1 => Error::UnknownItem(msg),
        2 => Error::CyclicHierarchy(msg),
        3 => Error::ResourceExhausted(msg),
        4 => Error::Decode(msg),
        5 => Error::Invalid(msg),
        6 => Error::DeadlineExceeded(msg),
        7 => Error::Cancelled(msg),
        8 => Error::WorkerPanicked(msg),
        9 => Error::PeerUnreachable(msg),
        other => return Err(Error::Decode(format!("unknown error kind {other}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip_and_respect_the_callers_cap() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello", 5).unwrap();
        write_frame(&mut wire, b"", 5).unwrap();
        let mut stream = wire.as_slice();
        assert_eq!(read_frame(&mut stream, 5).unwrap(), b"hello");
        assert_eq!(read_frame(&mut stream, 5).unwrap(), b"");
        assert!(stream.is_empty());
        // Write side: refuses before anything hits the wire.
        let mut sink = Vec::new();
        let err = write_frame(&mut sink, b"hello!", 5).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(sink.is_empty());
        // Read side: the same frame under a smaller cap, a full-u64 length
        // and an overlong varint are all refused before allocation.
        let err = read_frame(&mut wire.as_slice(), 4).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let mut hostile = Vec::new();
        write_varint(&mut hostile, u64::MAX);
        let err = read_frame(&mut hostile.as_slice(), 1 << 20).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let err = read_frame(&mut [0xffu8; 11].as_slice(), 1 << 20).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // A cut anywhere is a transport error, not short data.
        for cut in 0..6 {
            let err = read_frame(&mut &wire[..cut], 5).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut {cut}");
        }
    }

    #[test]
    fn every_error_kind_roundtrips_under_its_documented_tag() {
        let errors = [
            Error::Parse {
                msg: "unexpected ']'".into(),
                pos: 7,
            },
            Error::UnknownItem("VRB".into()),
            Error::CyclicHierarchy("a".into()),
            Error::ResourceExhausted("budget".into()),
            Error::Decode("bad".into()),
            Error::Invalid("σ = 0".into()),
            Error::DeadlineExceeded("100ms".into()),
            Error::Cancelled("drain".into()),
            Error::WorkerPanicked("task 7".into()),
            Error::PeerUnreachable("127.0.0.1:7777".into()),
        ];
        for (kind, e) in errors.iter().enumerate() {
            let mut buf = Vec::new();
            encode_error(e, &mut buf);
            assert_eq!(buf[0] as usize, kind, "{e}");
            let mut s = buf.as_slice();
            assert_eq!(&decode_error(&mut s).unwrap(), e);
            assert!(s.is_empty());
            for cut in 0..buf.len() {
                assert!(decode_error(&mut &buf[..cut]).is_err(), "{e} cut at {cut}");
            }
        }
        // Kind 10 (the retired `PeerTimedOut`) and 11 are unknown.
        assert!(decode_error(&mut [10u8, 0].as_slice()).is_err());
        assert!(decode_error(&mut [11u8, 0].as_slice()).is_err());
        assert!(decode_error(&mut [4u8, 2, 0xff, 0xfe].as_slice()).is_err());
    }

    #[test]
    fn byte_lists_roundtrip_and_bound_their_headers() {
        let list = vec![vec![], vec![1, 2, 3], vec![0xff; 70]];
        let mut buf = Vec::new();
        write_byte_list(&mut buf, &list);
        let mut s = buf.as_slice();
        assert_eq!(read_byte_list(&mut s).unwrap(), list);
        assert!(s.is_empty());
        // A count beyond the remaining input, or beyond the cap with the
        // zero bytes to back it, is refused before any reservation.
        let hostile = |count: usize, zeros: usize| {
            let mut buf = Vec::new();
            write_varint(&mut buf, count as u64);
            buf.resize(buf.len() + zeros, 0);
            buf
        };
        assert!(read_byte_list(&mut hostile(9, 8).as_slice()).is_err());
        let over = MAX_LIST_LEN + 1;
        assert!(read_byte_list(&mut hostile(over, over).as_slice()).is_err());
        // The largest all-zero list that does decode: every entry empty.
        let full = read_byte_list(&mut hostile(MAX_LIST_LEN, MAX_LIST_LEN).as_slice()).unwrap();
        assert_eq!(full.len(), MAX_LIST_LEN);
        assert!(full.iter().all(Vec::is_empty));
    }

    #[test]
    fn take_u8_and_expect_end_name_the_field() {
        let mut s: &[u8] = &[7];
        assert_eq!(take_u8(&mut s, "tag").unwrap(), 7);
        assert!(matches!(take_u8(&mut s, "tag"), Err(Error::Decode(m)) if m.contains("tag")));
        expect_end(s, "frame").unwrap();
        assert!(
            matches!(expect_end(&[0], "frame"), Err(Error::Decode(m)) if m.contains("trailing"))
        );
    }
}
