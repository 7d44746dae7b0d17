//! # pinzip — pinball compression
//!
//! The paper's PinPlay logger compresses pinballs with bzip2 ("logging (with
//! bzip2 pinball compression) time", §7) and reports pinball sizes in MB.
//! This crate is the from-scratch stand-in: an [LZSS] byte compressor plus a
//! [varint] integer coder, so that (a) logging time genuinely includes a
//! compression cost that grows with log volume, and (b) pinball sizes on disk
//! reflect the redundancy of the logged access patterns — the two properties
//! the evaluation's time/space numbers depend on.
//!
//! [LZSS]: lzss::compress
//! [varint]: varint::write_u64
//!
//! The [`frame`] module layers a chunked, checksummed container on top:
//! each frame is independently compressed and carries a [`crc32()`] of
//! its compressed payload, which is what the chunked pinball container uses to
//! detect and localize corruption without losing the intact prefix.
//!
//! The [`binser`] module is the compact binary record codec (container
//! format v3, the drserve wire protocol, and slice files): the same
//! `Serialize`/`Deserialize` types, varint-coded and length-prefixed with
//! an interned string table instead of JSON text.

#![warn(missing_docs)]
// Every decoder here reads bytes from disk or the wire: hostile input must
// come back as a typed error, never reach a panic.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod binser;
pub mod column;
pub mod crc32;
pub mod frame;
pub mod lzss;
pub mod varint;

pub use column::ColumnError;
pub use crc32::{crc32, crc32_bytewise};
pub use frame::{
    decode_payload, decode_payload_with_dict, peek_frame, read_frame, write_coded_frame,
    write_coded_frame_with_dict, write_frame, Frame, FrameError, RawFrame,
};
pub use lzss::{
    compress, compress_with_dict, decompress, decompress_with_dict, DecodeError, DICT_MAX,
};
