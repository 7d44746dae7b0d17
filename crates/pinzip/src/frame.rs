//! Framed, checksummed streaming compression.
//!
//! A *frame* is the unit of the chunked pinball container: a one-byte kind
//! tag, the varint-coded length of the compressed payload, a CRC-32 of the
//! compressed payload, and the payload itself ([`crate::lzss`]
//! compressed independently of every other frame). Because each frame is
//! self-contained, a reader can verify and decode frames one at a time,
//! skip over payloads it does not need, and — when a frame fails its CRC or
//! the buffer ends mid-frame — report exactly which frame is damaged while
//! everything before it remains usable.
//!
//! Wire layout of one frame:
//!
//! ```text
//! +------+----------------+------------+----------------------+
//! | kind | varint(c_len)  | crc32 (LE) | payload (c_len bytes) |
//! | 1 B  | 1..10 B        | 4 B        | LZSS-compressed       |
//! +------+----------------+------------+----------------------+
//! ```
//!
//! *Coded* frames (pinball containers v3 and v4) add one **codec byte** after
//! the kind, naming how the payload was serialized *before* compression —
//! so a reader can dispatch JSON vs [`crate::binser`] per frame:
//!
//! ```text
//! +------+-------+----------------+------------+----------------------+
//! | kind | codec | varint(c_len)  | crc32 (LE) | payload (c_len bytes) |
//! | 1 B  | 1 B   | 1..10 B        | 4 B        | LZSS-compressed       |
//! +------+-------+----------------+------------+----------------------+
//! ```
//!
//! Both layouts decode in two stages: [`peek_frame`] walks a frame
//! *header* without touching payload bytes (cheap — a reader can skip
//! frames it does not need), and [`decode_payload`] does the expensive
//! CRC verify + decompress for one frame in isolation.

use std::fmt;
use std::ops::Range;

use crate::crc32::crc32;
use crate::lzss;
use crate::varint;

/// Why a frame could not be read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The buffer ended inside the frame header or payload.
    Truncated,
    /// The stored CRC does not match the payload bytes.
    CrcMismatch {
        /// CRC recorded in the frame header.
        stored: u32,
        /// CRC computed over the payload actually present.
        computed: u32,
    },
    /// The payload failed to decompress.
    Payload(lzss::DecodeError),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated => f.write_str("frame truncated"),
            FrameError::CrcMismatch { stored, computed } => {
                write!(
                    f,
                    "frame crc mismatch (stored {stored:#010x}, computed {computed:#010x})"
                )
            }
            FrameError::Payload(e) => write!(f, "frame payload corrupt: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// A decoded frame: its kind tag and decompressed payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Application-defined kind tag.
    pub kind: u8,
    /// Decompressed payload bytes.
    pub payload: Vec<u8>,
}

/// A frame header scanned without decoding its payload: where the
/// compressed bytes sit and what CRC they must hash to. Produced by
/// [`peek_frame`]; consumed by [`decode_payload`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawFrame {
    /// Application-defined kind tag.
    pub kind: u8,
    /// Payload codec byte (`None` for codec-less frames).
    pub codec: Option<u8>,
    /// CRC-32 the header records for the compressed payload.
    pub crc: u32,
    /// Byte range of the compressed payload within the scanned buffer.
    pub payload: Range<usize>,
    /// Total encoded frame size (header + payload).
    pub encoded_len: usize,
}

/// Compresses `payload` and appends a complete frame to `out`, returning
/// the byte offset at which the frame starts.
pub fn write_frame(out: &mut Vec<u8>, kind: u8, payload: &[u8]) -> usize {
    let offset = out.len();
    let compressed = lzss::compress(payload);
    // Header is at most kind + codec + 10-byte varint + CRC; reserving
    // once keeps multi-frame writers from reallocating per frame.
    out.reserve(compressed.len() + 16);
    out.push(kind);
    varint::write_u64(out, compressed.len() as u64);
    out.extend_from_slice(&crc32(&compressed).to_le_bytes());
    out.extend_from_slice(&compressed);
    offset
}

/// Compresses `payload` and appends a complete coded frame (kind + codec
/// byte) to `out`, returning the byte offset at which the frame starts.
pub fn write_coded_frame(out: &mut Vec<u8>, kind: u8, codec: u8, payload: &[u8]) -> usize {
    write_coded_frame_with_dict(out, kind, codec, &[], payload)
}

/// Like [`write_coded_frame`], but compresses the payload against a shared
/// LZSS dictionary ([`lzss::compress_with_dict`]). The frame wire layout is
/// unchanged — which frames use which dictionary is a container-level
/// convention, recovered at read time via [`decode_payload_with_dict`]. An
/// empty dictionary degenerates to [`write_coded_frame`].
pub fn write_coded_frame_with_dict(
    out: &mut Vec<u8>,
    kind: u8,
    codec: u8,
    dict: &[u8],
    payload: &[u8],
) -> usize {
    let offset = out.len();
    let compressed = lzss::compress_with_dict(dict, payload);
    out.reserve(compressed.len() + 16);
    out.push(kind);
    out.push(codec);
    varint::write_u64(out, compressed.len() as u64);
    out.extend_from_slice(&crc32(&compressed).to_le_bytes());
    out.extend_from_slice(&compressed);
    offset
}

/// Scans one frame header starting at `offset` without verifying or
/// decompressing the payload. `has_codec` selects the coded layout (kind +
/// codec byte) over the plain one.
///
/// # Errors
///
/// Returns [`FrameError::Truncated`] when the buffer ends inside the
/// header or before the declared payload end.
pub fn peek_frame(buf: &[u8], offset: usize, has_codec: bool) -> Result<RawFrame, FrameError> {
    let mut pos = offset;
    let kind = *buf.get(pos).ok_or(FrameError::Truncated)?;
    pos += 1;
    let codec = if has_codec {
        let c = *buf.get(pos).ok_or(FrameError::Truncated)?;
        pos += 1;
        Some(c)
    } else {
        None
    };
    let clen = varint::read_u64(buf, &mut pos).ok_or(FrameError::Truncated)? as usize;
    let crc_bytes = buf
        .get(pos..)
        .and_then(<[u8]>::first_chunk::<4>)
        .ok_or(FrameError::Truncated)?;
    let crc = u32::from_le_bytes(*crc_bytes);
    pos += 4;
    // A hostile length can exceed the address space: that is a payload
    // past the end of the buffer, not an overflow.
    let end = pos.checked_add(clen).ok_or(FrameError::Truncated)?;
    if end > buf.len() {
        return Err(FrameError::Truncated);
    }
    let payload = pos..end;
    Ok(RawFrame {
        kind,
        codec,
        crc,
        payload: payload.clone(),
        encoded_len: payload.end - offset,
    })
}

/// Verifies a scanned frame's CRC against the buffer it was scanned from
/// and decompresses its payload.
///
/// The CRC is checked over the *compressed* bytes before decompression, so
/// any bit flip inside the frame is caught even when the flipped stream
/// still happens to decompress.
///
/// # Errors
///
/// Returns [`FrameError::CrcMismatch`] or a decompression failure.
pub fn decode_payload(buf: &[u8], raw: &RawFrame) -> Result<Vec<u8>, FrameError> {
    decode_payload_with_dict(buf, raw, &[])
}

/// Like [`decode_payload`], but decompresses against the shared LZSS
/// dictionary the frame was written with
/// ([`write_coded_frame_with_dict`]). The CRC covers the compressed bytes
/// and is dictionary-independent, so corruption detection is identical.
///
/// # Errors
///
/// Returns [`FrameError::CrcMismatch`] or a decompression failure.
pub fn decode_payload_with_dict(
    buf: &[u8],
    raw: &RawFrame,
    dict: &[u8],
) -> Result<Vec<u8>, FrameError> {
    let compressed = &buf[raw.payload.clone()];
    let computed = crc32(compressed);
    if computed != raw.crc {
        return Err(FrameError::CrcMismatch {
            stored: raw.crc,
            computed,
        });
    }
    lzss::decompress_with_dict(dict, compressed).map_err(FrameError::Payload)
}

/// Reads the frame starting at `*pos`, advancing `*pos` past it.
///
/// # Errors
///
/// Returns a [`FrameError`] on truncation, CRC mismatch, or a payload that
/// fails to decompress.
pub fn read_frame(buf: &[u8], pos: &mut usize) -> Result<Frame, FrameError> {
    let raw = peek_frame(buf, *pos, false)?;
    let payload = decode_payload(buf, &raw)?;
    *pos += raw.encoded_len;
    Ok(Frame {
        kind: raw.kind,
        payload,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_length_past_the_address_space_is_truncation() {
        for has_codec in [false, true] {
            let mut buf = vec![1u8, 0];
            buf.truncate(if has_codec { 2 } else { 1 });
            varint::write_u64(&mut buf, u64::MAX);
            buf.extend_from_slice(&[0; 4]);
            assert_eq!(peek_frame(&buf, 0, has_codec), Err(FrameError::Truncated));
        }
    }

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        let off0 = write_frame(&mut buf, 1, b"hello hello hello hello");
        let off1 = write_frame(&mut buf, 2, b"");
        assert_eq!(off0, 0);
        assert!(off1 > 0);
        let mut pos = 0;
        let f0 = read_frame(&buf, &mut pos).unwrap();
        assert_eq!(f0.kind, 1);
        assert_eq!(f0.payload, b"hello hello hello hello");
        assert_eq!(pos, off1);
        let f1 = read_frame(&buf, &mut pos).unwrap();
        assert_eq!(f1.kind, 2);
        assert!(f1.payload.is_empty());
        assert_eq!(pos, buf.len());
    }

    /// Peeks and decodes the coded frame at `*pos`, advancing past it:
    /// kind, codec byte and payload.
    fn read_coded(buf: &[u8], pos: &mut usize) -> Result<(u8, Option<u8>, Vec<u8>), FrameError> {
        let raw = peek_frame(buf, *pos, true)?;
        let payload = decode_payload(buf, &raw)?;
        *pos += raw.encoded_len;
        Ok((raw.kind, raw.codec, payload))
    }

    #[test]
    fn coded_frame_roundtrip() {
        let mut buf = Vec::new();
        let off0 = write_coded_frame(&mut buf, 1, 0, b"json-ish payload payload");
        let off1 = write_coded_frame(&mut buf, 2, 1, b"binary payload");
        assert_eq!(off0, 0);
        let mut pos = 0;
        let f0 = read_coded(&buf, &mut pos).unwrap();
        assert_eq!(f0, (1, Some(0), b"json-ish payload payload".to_vec()));
        assert_eq!(pos, off1);
        let f1 = read_coded(&buf, &mut pos).unwrap();
        assert_eq!(f1, (2, Some(1), b"binary payload".to_vec()));
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn peek_then_decode_equals_read() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 7, &vec![3u8; 900]);
        let raw = peek_frame(&buf, 0, false).unwrap();
        assert_eq!(raw.kind, 7);
        assert_eq!(raw.codec, None);
        assert_eq!(raw.encoded_len, buf.len());
        assert_eq!(decode_payload(&buf, &raw).unwrap(), vec![3u8; 900]);
    }

    #[test]
    fn random_access_via_offsets() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 1, &vec![7u8; 500]);
        let off = write_frame(&mut buf, 9, b"target");
        let raw = peek_frame(&buf, off, false).unwrap();
        assert_eq!(raw.kind, 9);
        assert_eq!(decode_payload(&buf, &raw).unwrap(), b"target");
        assert_eq!(off + raw.encoded_len, buf.len());
    }

    #[test]
    fn dict_frame_roundtrip_and_corruption_detected() {
        let dict: Vec<u8> = b"column column column ".repeat(40);
        let payload: Vec<u8> = b"column ".repeat(30);
        let mut buf = Vec::new();
        write_coded_frame_with_dict(&mut buf, 2, 2, &dict, &payload);
        let mut plain = Vec::new();
        write_coded_frame(&mut plain, 2, 2, &payload);
        assert!(buf.len() < plain.len(), "dict compresses similar payloads");
        let raw = peek_frame(&buf, 0, true).unwrap();
        assert_eq!(
            decode_payload_with_dict(&buf, &raw, &dict).unwrap(),
            payload
        );
        for i in 2..buf.len() {
            for bit in 0..8 {
                let mut bad = buf.clone();
                bad[i] ^= 1 << bit;
                let damaged = match peek_frame(&bad, 0, true) {
                    Err(_) => true,
                    Ok(r) => decode_payload_with_dict(&bad, &r, &dict).is_err(),
                };
                assert!(damaged, "flip at byte {i} bit {bit} went undetected");
            }
        }
    }

    #[test]
    fn every_bit_flip_is_detected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 3, b"some payload with enough bytes to matter");
        // Flips in the length/crc/payload must all surface as errors; flips
        // in the kind byte change `kind` but keep the frame valid, so skip
        // byte 0.
        for i in 1..buf.len() {
            for bit in 0..8 {
                let mut bad = buf.clone();
                bad[i] ^= 1 << bit;
                let mut pos = 0;
                match read_frame(&bad, &mut pos) {
                    Err(_) => {}
                    // A flipped length varint can shrink the payload; the
                    // CRC then fails. A flip that *grows* it truncates. The
                    // only acceptable Ok is a frame identical to the
                    // original (impossible here since bytes differ).
                    Ok(f) => panic!("flip at byte {i} bit {bit} went undetected: {f:?}"),
                }
            }
        }
    }

    #[test]
    fn every_coded_bit_flip_is_detected() {
        let mut buf = Vec::new();
        write_coded_frame(&mut buf, 3, 1, b"some payload with enough bytes to matter");
        // Skip kind (byte 0) and codec (byte 1): flips there change the
        // tags but keep the frame structurally valid.
        for i in 2..buf.len() {
            for bit in 0..8 {
                let mut bad = buf.clone();
                bad[i] ^= 1 << bit;
                let mut pos = 0;
                match read_coded(&bad, &mut pos) {
                    Err(_) => {}
                    Ok(f) => panic!("flip at byte {i} bit {bit} went undetected: {f:?}"),
                }
            }
        }
    }

    #[test]
    fn truncation_is_detected_at_every_length() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 1, &vec![42u8; 300]);
        for len in 0..buf.len() {
            let mut pos = 0;
            assert!(
                read_frame(&buf[..len], &mut pos).is_err(),
                "truncation to {len} bytes went undetected"
            );
        }
        let mut coded = Vec::new();
        write_coded_frame(&mut coded, 1, 1, &vec![42u8; 300]);
        for len in 0..coded.len() {
            let mut pos = 0;
            assert!(
                read_coded(&coded[..len], &mut pos).is_err(),
                "coded truncation to {len} bytes went undetected"
            );
        }
    }
}
