//! The chunked, checksummed, seekable pinball container.
//!
//! The v1 format compresses the whole pinball as one LZSS blob, so any
//! damage loses the entire recording and every seek restarts replay from
//! the region snapshot. The chunked container fixes both:
//!
//! * the replay log is split into **frames** (see [`pinzip::frame`]), each
//!   independently compressed and protected by a CRC-32 of its compressed
//!   payload — a flipped bit or truncated tail is detected *per chunk*, the
//!   loader names the damaged chunk in a typed [`PinballError::Chunk`], and
//!   [`PinballContainer::from_bytes_lossy`] still recovers the intact
//!   prefix;
//! * **checkpoints** — serialized replayer state captured every
//!   `checkpoint_interval` retired instructions — are embedded between
//!   event chunks, so [`Replayer::seek_to`] restores the nearest preceding
//!   checkpoint and replays only the tail chunk instead of the whole
//!   region: O(chunk) instead of O(region).
//!
//! # Wire layout
//!
//! ```text
//! +--------+          magic  b"DRPB4\n"                      (6 bytes)
//! | magic  |
//! +--------+
//! | frame  |  kind 1: header — meta, snapshot, syscalls,
//! |        |          exit, event count, checkpoint interval
//! +--------+
//! | frame  |  kind 5: the shared LZSS dictionary
//! +--------+
//! | frame  |  kind 3: checkpoint at chunk k's start (optional)
//! +--------+
//! | frame  |  kind 2: events chunk k (a subslice of the log)
//! +--------+
//! |  ...   |  ... checkpoint/events pairs repeat ...
//! +--------+
//! | frame  |  kind 4: index — offset/instr/ordinal of every frame
//! +--------+
//! | trailer|  u64 LE offset of the index frame + b"PBIX"    (12 bytes)
//! +--------+
//! ```
//!
//! A frame is `[kind u8][codec u8][varint clen][crc32 LE][LZSS payload]`.
//! The **codec byte** names how the payload was serialized before
//! compression (see [`PayloadCodec`]): the header, checkpoint and index
//! frames hold [`pinzip::binser`] records, and events frames hold
//! [`PayloadCodec::Columnar`] columns:
//!
//! * an events chunk packs its events as parallel field columns (see
//!   [`EventColumns`]) rather than a stream of per-record trees, so a
//!   load is a handful of bulk varint scans;
//! * frame 1 is a [`ChunkKind::Dict`] frame holding the **shared LZSS
//!   dictionary** (trained deterministically on the header strings plus a
//!   prefix of the first chunk's columnar payload, capped at
//!   [`pinzip::DICT_MAX`]); every `Columnar` frame is compressed against
//!   it, clawing back the redundancy per-chunk framing loses. Non-events
//!   frames (header, checkpoints, index, the dict itself) stay
//!   plain-compressed so each decodes without the dictionary;
//! * strings appear only in the header frame, interned once by the
//!   [`pinzip::binser`] string table — event columns are pure integers.
//!
//! [`EventColumns`]: crate::columns::EventColumns
//!
//! Chunk boundaries fall on *event* boundaries (a chunk closes once it has
//! retired `checkpoint_interval` instructions), computed deterministically
//! from the log alone — so load → save round-trips byte-identically, and a
//! plain [`Pinball::to_bytes`] (no checkpoints) emits the same chunking a
//! checkpointed container uses.
//!
//! # One pass each way
//!
//! [`PinballContainer::to_bytes`] is the only writer: it packs the
//! columns, trains the dictionary on the first chunk, and appends every
//! frame in order on the calling thread. One walk reads every container
//! back: it verifies, decompresses and decodes one frame at a time, front
//! to back, and stops at the first damaged frame — so the damage it
//! reports is always the earliest in the file.
//! [`PinballContainer::from_bytes`],
//! [`PinballContainer::from_bytes_lossy`] and [`inspect`] run it once
//! over the whole file, and [`StreamReader`](crate::StreamReader) runs it
//! over each slab it absorbs, so a batch load and a streamed one agree by
//! construction. A pinball holds only a region's start state and its
//! nondeterministic events, so containers are typically kilobytes, and on
//! those a chunk worker pool cost more than the serial pass it wrapped.
//! v4 events frames must carry the columnar codec; the v2 and v3 rules
//! are those their committed fixtures need.
//!
//! # Compatibility
//!
//! [`PinballContainer::from_bytes`] (and [`Pinball::from_bytes`])
//! auto-detect the format by the magic — see [`detect_version`] — and
//! still read every older generation: v3 (`DRPB3\n`: the same frames with
//! no dictionary and `binser` record-stream events), v2 (`DRPB2\n`: no
//! codec byte, JSON payloads) and the v1 single blob (no magic). Nothing
//! writes those formats any more; [`migrate`] rewrites any of them as v4,
//! preserving embedded checkpoints. The content digest
//! ([`PinballDigest`]) is a function of the recording alone, so the same
//! pinball digests identically whichever container version holds it.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use minivm::{ExecState, Program, Snapshot};
use pinzip::binser;
use pinzip::crc32::crc32;
use pinzip::frame::{
    decode_payload, decode_payload_with_dict, peek_frame, write_coded_frame,
    write_coded_frame_with_dict, FrameError, RawFrame,
};

use crate::columns::EventColumns;
use crate::pinball::{Pinball, PinballError, PinballMeta, RecordedExit, ReplayEvent};
use crate::replay::Replayer;

/// Magic bytes opening a v2 container.
pub const MAGIC: &[u8; 6] = b"DRPB2\n";
/// Magic bytes opening a v3 container.
pub const MAGIC_V3: &[u8; 6] = b"DRPB3\n";
/// Magic bytes opening a v4 container.
pub const MAGIC_V4: &[u8; 6] = b"DRPB4\n";
/// Magic bytes closing the 12-byte trailer.
pub const TRAILER_MAGIC: &[u8; 4] = b"PBIX";
/// Default checkpoint cadence, in retired instructions per chunk.
pub const DEFAULT_CHECKPOINT_INTERVAL: u64 = 4096;

const KIND_HEADER: u8 = 1;
const KIND_EVENTS: u8 = 2;
const KIND_CHECKPOINT: u8 = 3;
const KIND_INDEX: u8 = 4;
const KIND_DICT: u8 = 5;

/// Container format generations, as detected from leading bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ContainerVersion {
    /// Single LZSS blob over the JSON pinball (no magic).
    V1,
    /// Chunked frames with JSON payloads, magic `DRPB2\n`.
    V2,
    /// Chunked frames with a per-frame codec byte, magic `DRPB3\n`.
    V3,
    /// Columnar events and a shared LZSS dictionary, magic `DRPB4\n`.
    V4,
}

impl fmt::Display for ContainerVersion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ContainerVersion::V1 => "v1",
            ContainerVersion::V2 => "v2",
            ContainerVersion::V3 => "v3",
            ContainerVersion::V4 => "v4",
        })
    }
}

/// Detects the container generation from the magic bytes. Anything without
/// a container magic is assumed to be a v1 blob (the v1 format has no
/// magic of its own).
pub fn detect_version(bytes: &[u8]) -> ContainerVersion {
    if bytes.starts_with(MAGIC_V4) {
        ContainerVersion::V4
    } else if bytes.starts_with(MAGIC_V3) {
        ContainerVersion::V3
    } else if bytes.starts_with(MAGIC) {
        ContainerVersion::V2
    } else {
        ContainerVersion::V1
    }
}

/// True when `bytes` open with a chunked-container magic (v2, v3 or v4).
pub(crate) fn has_container_magic(bytes: &[u8]) -> bool {
    detect_version(bytes) != ContainerVersion::V1
}

/// How a frame's payload was serialized before LZSS compression — the
/// codec byte of v3 and v4 frames. v2 frames carry no codec byte and are
/// implicitly [`PayloadCodec::Json`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PayloadCodec {
    /// JSON text (codec byte 0).
    Json,
    /// [`pinzip::binser`] binary records (codec byte 1).
    Binary,
    /// Varint-packed parallel field columns (codec byte 2, v4 events
    /// frames) — see [`EventColumns`]. The
    /// only codec compressed against the container's shared dictionary.
    Columnar,
}

impl PayloadCodec {
    /// The wire byte naming this codec in a frame header.
    pub const fn byte(self) -> u8 {
        match self {
            PayloadCodec::Json => 0,
            PayloadCodec::Binary => 1,
            PayloadCodec::Columnar => 2,
        }
    }

    /// Parses a wire codec byte; `None` for unassigned values.
    pub fn from_byte(b: u8) -> Option<PayloadCodec> {
        match b {
            0 => Some(PayloadCodec::Json),
            1 => Some(PayloadCodec::Binary),
            2 => Some(PayloadCodec::Columnar),
            _ => None,
        }
    }
}

impl fmt::Display for PayloadCodec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PayloadCodec::Json => "json",
            PayloadCodec::Binary => "binary",
            PayloadCodec::Columnar => "columnar",
        })
    }
}

/// What a container frame holds — used by [`PinballError::Chunk`] to name
/// the damaged frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChunkKind {
    /// The header frame (metadata, snapshot, syscalls, exit).
    Header,
    /// An events chunk (a subslice of the replay log).
    Events,
    /// An embedded replay checkpoint.
    Checkpoint,
    /// The footer index frame.
    Index,
    /// The shared LZSS dictionary (v4, frame 1).
    Dict,
    /// The frame was too damaged to tell (kind byte unreadable or invalid).
    Unknown,
}

impl fmt::Display for ChunkKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ChunkKind::Header => "header",
            ChunkKind::Events => "events",
            ChunkKind::Checkpoint => "checkpoint",
            ChunkKind::Index => "index",
            ChunkKind::Dict => "dict",
            ChunkKind::Unknown => "unknown",
        })
    }
}

fn kind_of(byte: u8) -> ChunkKind {
    match byte {
        KIND_HEADER => ChunkKind::Header,
        KIND_EVENTS => ChunkKind::Events,
        KIND_CHECKPOINT => ChunkKind::Checkpoint,
        KIND_INDEX => ChunkKind::Index,
        KIND_DICT => ChunkKind::Dict,
        _ => ChunkKind::Unknown,
    }
}

/// Content address of a pinball: a fold of the CRC-32s of its canonical
/// chunk payloads.
///
/// The digest covers everything replay depends on — metadata, the entry
/// snapshot, the syscall queues, the exit, and every events chunk (split at
/// the canonical [`DEFAULT_CHECKPOINT_INTERVAL`] cadence regardless of the
/// container's own interval) — and deliberately excludes embedded
/// checkpoints. Two containers holding the same recording therefore share a
/// digest even when one carries checkpoints and the other does not, which
/// is what lets a content-addressed store (the `drserve` pinball store and
/// slice cache) dedupe repeated uploads of the same pinball. The digest is
/// also container-version independent: the canonical payloads are always
/// JSON, so a v2 and a v3 file of the same recording digest identically.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct PinballDigest(pub u64);

impl fmt::Display for PinballDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// FNV-1a over a byte stream — the digest's CRC combiner.
fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    let mut h = state;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Serialized replayer state at a known log position: restoring one and
/// replaying forward reproduces the execution exactly, because the VM is
/// deterministic given the log and the remaining syscall queues.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplayCheckpoint {
    /// Instructions retired when the checkpoint was taken.
    pub instr: u64,
    /// Replay log position (event index).
    pub pos: usize,
    /// Instructions already retired inside event `pos` (0 at an event
    /// boundary — where embedded checkpoints always sit).
    pub done_in_event: u64,
    /// Full executor state, including the region-relative counters that a
    /// plain [`Snapshot`] deliberately resets.
    pub exec: ExecState,
    /// Remaining unconsumed syscall results, per thread.
    pub env: Vec<Vec<i64>>,
}

/// The header frame's payload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct ContainerHeader {
    pub(crate) meta: PinballMeta,
    pub(crate) snapshot: Snapshot,
    pub(crate) syscalls: Vec<Vec<i64>>,
    pub(crate) exit: RecordedExit,
    pub(crate) num_events: u64,
    pub(crate) checkpoint_interval: u64,
}

/// One entry of the footer index: where a frame lives and what it covers.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IndexEntry {
    /// Frame ordinal in the file (0 = header).
    pub chunk: usize,
    /// What the frame holds.
    pub kind: ChunkKind,
    /// Byte offset of the frame in the file.
    pub offset: u64,
    /// First retired-instruction count the frame covers (events chunks and
    /// checkpoints; 0 for header and index).
    pub instr: u64,
}

/// A pinball plus its embedded checkpoints — the in-memory form of a
/// chunked container. Loading preserves the checkpoints, so a load → save
/// cycle is byte-identical without replaying anything.
#[derive(Debug, Clone, PartialEq)]
pub struct PinballContainer {
    /// The recorded region.
    pub pinball: Pinball,
    /// Embedded checkpoints, ascending by `instr`, each sitting at a chunk
    /// boundary of the serialized form.
    pub checkpoints: Vec<ReplayCheckpoint>,
    /// Chunk cadence in retired instructions.
    pub checkpoint_interval: u64,
}

/// The result of a best-effort load: the intact prefix plus what was lost.
#[derive(Debug, Clone)]
pub struct LossyLoad {
    /// Container holding the recovered prefix of the log (and every
    /// checkpoint that precedes the damage).
    pub container: PinballContainer,
    /// The damage that ended the scan, if any (`None` means the file was
    /// fully intact).
    pub damage: Option<PinballError>,
    /// Events recovered from intact chunks.
    pub events_recovered: usize,
    /// Events the header promised.
    pub events_expected: usize,
}

impl PinballContainer {
    /// Wraps a pinball with no checkpoints at the default cadence.
    pub fn new(pinball: Pinball) -> PinballContainer {
        PinballContainer {
            pinball,
            checkpoints: Vec::new(),
            checkpoint_interval: DEFAULT_CHECKPOINT_INTERVAL,
        }
    }

    /// Wraps a pinball and captures a checkpoint at every chunk boundary by
    /// replaying it once under `program`. `interval` is the chunk cadence
    /// in retired instructions (clamped to at least 1).
    ///
    /// # Panics
    ///
    /// Panics on replay divergence, like [`Replayer::run`] — a pinball that
    /// cannot replay cannot be checkpointed.
    pub fn with_checkpoints(
        pinball: Pinball,
        program: &Arc<Program>,
        interval: u64,
    ) -> PinballContainer {
        let interval = interval.max(1);
        let ranges = chunk_ranges(&pinball.events, interval);
        let mut replayer = Replayer::new(Arc::clone(program), &pinball);
        let mut checkpoints = Vec::new();
        for &(start_ev, _end_ev, _start_instr) in ranges.iter().skip(1) {
            replayer.run_to_event(start_ev);
            checkpoints.push(replayer.checkpoint());
        }
        PinballContainer {
            pinball,
            checkpoints,
            checkpoint_interval: interval,
        }
    }

    /// The container's content digest — see [`PinballDigest`]. Embedded
    /// checkpoints do not contribute: a checkpointed and a checkpoint-free
    /// container over the same recording digest identically.
    pub fn digest(&self) -> PinballDigest {
        digest_pinball(&self.pinball)
    }

    /// The checkpoint with the greatest `instr` not exceeding `target`, if
    /// any.
    pub fn nearest_checkpoint(&self, target: u64) -> Option<&ReplayCheckpoint> {
        self.checkpoints
            .iter()
            .take_while(|cp| cp.instr <= target)
            .last()
    }

    /// Serializes the container in the v4 format: columnar events
    /// compressed against the shared dictionary, every frame appended in
    /// order on the calling thread.
    ///
    /// # Errors
    ///
    /// Infallible in practice (the columnar and binary codecs cannot fail
    /// on these types); the `Result` keeps the signature every caller
    /// already handles.
    pub fn to_bytes(&self) -> Result<Vec<u8>, PinballError> {
        Ok(write_container_v4(&self.pinball, &self.checkpoints, self.checkpoint_interval).0)
    }

    /// Deserializes a container, auto-detecting the format: v4, v3 and v2
    /// bytes load strictly, in one pass of the frame walk a
    /// [`StreamReader`](crate::StreamReader) runs per absorbed slab (any
    /// damaged frame is an error naming the chunk); v1 blobs load as a
    /// container with no checkpoints.
    ///
    /// # Errors
    ///
    /// Returns a typed [`PinballError`]: [`PinballError::Chunk`] for a
    /// damaged frame, [`PinballError::Unsealed`] for a file that ends
    /// cleanly before its footer, [`PinballError::Format`] for structural
    /// problems, or the v1 errors for v1 blobs.
    pub fn from_bytes(bytes: &[u8]) -> Result<PinballContainer, PinballError> {
        if !has_container_magic(bytes) {
            return Ok(PinballContainer::new(Pinball::from_bytes_v1(bytes)?));
        }
        let mut walk = Walk::new(detect_version(bytes));
        walk.advance(bytes, true)?;
        walk.into_container()
    }

    /// Best-effort deserialization: the strict load's walk, returning the
    /// intact prefix together with the damage that ended the walk (if
    /// any). Replay of the recovered container reproduces the recording up
    /// to the damaged chunk.
    ///
    /// # Errors
    ///
    /// Returns an error only when nothing is recoverable: the magic or the
    /// header frame itself is damaged (or the bytes are a damaged v1 blob,
    /// which has no intact prefix to salvage).
    pub fn from_bytes_lossy(bytes: &[u8]) -> Result<LossyLoad, PinballError> {
        if !has_container_magic(bytes) {
            let pinball = Pinball::from_bytes_v1(bytes)?;
            let expected = pinball.events.len();
            return Ok(LossyLoad {
                container: PinballContainer::new(pinball),
                damage: None,
                events_recovered: expected,
                events_expected: expected,
            });
        }
        let mut walk = Walk::new(detect_version(bytes));
        let damage = walk.advance(bytes, true).err();
        let events_expected = walk.events_expected().unwrap_or(0) as usize;
        let container = match walk.into_container() {
            Ok(container) => container,
            // No intact header: nothing to replay from.
            Err(e) => return Err(damage.unwrap_or(e)),
        };
        Ok(LossyLoad {
            events_recovered: container.pinball.events.len(),
            container,
            damage,
            events_expected,
        })
    }

    /// Writes the container to a file.
    ///
    /// # Errors
    ///
    /// Returns [`PinballError::Io`] on filesystem errors and
    /// [`PinballError::Serialize`] on encoding errors.
    pub fn save(&self, path: &std::path::Path) -> Result<(), PinballError> {
        std::fs::write(path, self.to_bytes()?).map_err(|e| PinballError::Io(e.to_string()))
    }

    /// Reads a container from a file (v1–v4, auto-detected).
    ///
    /// # Errors
    ///
    /// As [`PinballContainer::from_bytes`], plus [`PinballError::Io`].
    pub fn load(path: &std::path::Path) -> Result<PinballContainer, PinballError> {
        let bytes = std::fs::read(path).map_err(|e| PinballError::Io(e.to_string()))?;
        PinballContainer::from_bytes(&bytes)
    }
}

/// Rewrites a v1, v2, or v3 pinball as a v4 container, preserving any
/// embedded checkpoints and the checkpoint interval. The recording's
/// [`PinballDigest`] is unchanged by migration.
///
/// # Errors
///
/// Returns the load errors of the source format, or
/// [`PinballError::Format`] when `bytes` is already a v4 container.
pub fn migrate(bytes: &[u8]) -> Result<Vec<u8>, PinballError> {
    if detect_version(bytes) == ContainerVersion::V4 {
        return Err(PinballError::Format(
            "already a v4 container; nothing to migrate".into(),
        ));
    }
    PinballContainer::from_bytes(bytes)?.to_bytes()
}

/// Computes a pinball's content digest: the CRC-32 of each canonical chunk
/// payload (header fields, then every events chunk at the
/// [`DEFAULT_CHECKPOINT_INTERVAL`] cadence), folded with FNV-1a.
///
/// Chunking is recomputed at the canonical interval rather than taken from
/// any particular container, so the digest is a function of the recording
/// alone. JSON serialization of these plain data types cannot fail, so
/// the digest is infallible.
pub(crate) fn digest_pinball(pinball: &Pinball) -> PinballDigest {
    // The one panic site the module's lint allows: serde_json only fails
    // on maps with non-string keys and on failing `Serialize` impls, and
    // the pinball's fields have neither.
    #[allow(clippy::expect_used)]
    let part = |value: &dyn erased_ser::ErasedSer| -> u32 {
        crc32(&value.to_json().expect("pinball fields JSON-serialize"))
    };
    let mut h = FNV_OFFSET;
    for crc in [
        part(&pinball.meta),
        part(&pinball.snapshot),
        part(&pinball.syscalls),
        part(&pinball.exit),
    ] {
        h = fnv1a(h, &crc.to_le_bytes());
    }
    for (start_ev, end_ev, _) in chunk_ranges(&pinball.events, DEFAULT_CHECKPOINT_INTERVAL) {
        let crc = part(&&pinball.events[start_ev..end_ev]);
        h = fnv1a(h, &crc.to_le_bytes());
    }
    PinballDigest(h)
}

/// Object-safe serialization shim so [`digest_pinball`] can CRC
/// heterogeneous fields through one closure.
mod erased_ser {
    use serde::Serialize;

    pub(crate) trait ErasedSer {
        fn to_json(&self) -> Result<Vec<u8>, serde_json::Error>;
    }

    impl<T: Serialize> ErasedSer for T {
        fn to_json(&self) -> Result<Vec<u8>, serde_json::Error> {
            serde_json::to_vec(self)
        }
    }
}

/// Splits the log into chunks of at least `interval` retired instructions,
/// closed at event boundaries: `(start_event, end_event, start_instr)` per
/// chunk. Deterministic in the log and interval alone, so serialization is
/// reproducible. An empty log yields no chunks.
fn chunk_ranges(events: &[ReplayEvent], interval: u64) -> Vec<(usize, usize, u64)> {
    let mut ranges = Vec::new();
    let mut start_ev = 0usize;
    let mut start_instr = 0u64;
    let mut instr = 0u64;
    for (i, ev) in events.iter().enumerate() {
        if let ReplayEvent::Run { steps, .. } = ev {
            instr += steps;
        }
        if instr - start_instr >= interval {
            ranges.push((start_ev, i + 1, start_instr));
            start_ev = i + 1;
            start_instr = instr;
        }
    }
    if start_ev < events.len() {
        ranges.push((start_ev, events.len(), start_instr));
    }
    ranges
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Builds the v4 shared dictionary, deterministically: the header strings
/// (the container's interned string table contents) followed by a prefix
/// of the first chunk's uncompressed columnar payload, capped at
/// [`pinzip::DICT_MAX`]. Every chunk payload opens with the same column
/// structure the first chunk does, so seeding the LZSS window with it lets
/// later chunks match their leading columns against the dictionary instead
/// of emitting literals.
fn build_dict(meta: &PinballMeta, first_chunk_payload: Option<&[u8]>) -> Vec<u8> {
    let mut dict = Vec::with_capacity(pinzip::DICT_MAX);
    dict.extend_from_slice(meta.program.as_bytes());
    dict.extend_from_slice(meta.region.as_bytes());
    dict.truncate(pinzip::DICT_MAX);
    if let Some(p) = first_chunk_payload {
        let room = pinzip::DICT_MAX - dict.len();
        dict.extend_from_slice(&p[..p.len().min(room)]);
    }
    dict
}

/// Serializes a pinball (plus optional checkpoints) into v4 container
/// bytes: columnar events frames compressed against a shared dictionary,
/// everything else plain binser frames, in file order. A checkpoint is
/// emitted immediately before the events chunk whose start position
/// equals its `pos`. Also returns the footer index it wrote: every
/// frame's kind and offset, in file order, ending with the index frame.
/// Infallible: neither codec can fail on these plain data types.
pub(crate) fn write_container_v4(
    pinball: &Pinball,
    checkpoints: &[ReplayCheckpoint],
    interval: u64,
) -> (Vec<u8>, Vec<IndexEntry>) {
    let interval = interval.max(1);
    let header = ContainerHeader {
        meta: pinball.meta.clone(),
        snapshot: pinball.snapshot.clone(),
        syscalls: pinball.syscalls.clone(),
        exit: pinball.exit,
        num_events: pinball.events.len() as u64,
        checkpoint_interval: interval,
    };
    let ranges = chunk_ranges(&pinball.events, interval);
    let payloads: Vec<Vec<u8>> = ranges
        .iter()
        .map(|&(start_ev, end_ev, _)| {
            EventColumns::from_events(&pinball.events[start_ev..end_ev]).encode_to_vec()
        })
        .collect();
    let dict = build_dict(&pinball.meta, payloads.first().map(Vec::as_slice));

    let binary = PayloadCodec::Binary.byte();
    let mut out =
        Vec::with_capacity(MAGIC_V4.len() + 64 + payloads.iter().map(Vec::len).sum::<usize>());
    out.extend_from_slice(MAGIC_V4);
    let mut index: Vec<IndexEntry> = Vec::with_capacity(2 * ranges.len() + 3);
    let mut entry = |kind, instr, offset: usize| {
        index.push(IndexEntry {
            chunk: index.len(),
            kind,
            offset: offset as u64,
            instr,
        });
    };
    let off = write_coded_frame(&mut out, KIND_HEADER, binary, &binser::to_vec(&header));
    entry(ChunkKind::Header, 0, off);
    let off = write_coded_frame(&mut out, KIND_DICT, binary, &dict);
    entry(ChunkKind::Dict, 0, off);
    for (&(start_ev, _, start_instr), payload) in ranges.iter().zip(&payloads) {
        if let Some(cp) = checkpoints.iter().find(|cp| cp.pos == start_ev) {
            let off = write_coded_frame(&mut out, KIND_CHECKPOINT, binary, &binser::to_vec(cp));
            entry(ChunkKind::Checkpoint, cp.instr, off);
        }
        let off = write_coded_frame_with_dict(
            &mut out,
            KIND_EVENTS,
            PayloadCodec::Columnar.byte(),
            &dict,
            payload,
        );
        entry(ChunkKind::Events, start_instr, off);
    }
    let index_off = out.len();
    entry(ChunkKind::Index, 0, index_off);
    write_coded_frame(&mut out, KIND_INDEX, binary, &binser::to_vec(&index));
    out.extend_from_slice(&(index_off as u64).to_le_bytes());
    out.extend_from_slice(TRAILER_MAGIC);
    (out, index)
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Length of the trailer after the index frame: its offset (u64 LE), then
/// `PBIX`.
const TRAILER_LEN: usize = 12;

fn chunk_err(chunk: usize, kind: ChunkKind, reason: impl fmt::Display) -> PinballError {
    PinballError::Chunk {
        chunk,
        kind,
        reason: reason.to_string(),
    }
}

/// Deserializes one frame payload according to its codec byte: absent
/// (v2 frame) or 0 means JSON, 1 means binser.
fn decode_by_codec<T: Deserialize>(payload: &[u8], codec: Option<u8>) -> Result<T, String> {
    match codec {
        None => serde_json::from_slice(payload).map_err(|e| e.to_string()),
        Some(b) => match PayloadCodec::from_byte(b) {
            Some(PayloadCodec::Json) => serde_json::from_slice(payload).map_err(|e| e.to_string()),
            Some(PayloadCodec::Binary) => binser::from_slice(payload).map_err(|e| e.to_string()),
            Some(PayloadCodec::Columnar) => Err(
                "columnar payloads are not record streams (only events frames may use codec 2)"
                    .into(),
            ),
            None => Err(format!("unknown payload codec {b}")),
        },
    }
}

/// The one walk over a chunked container's frames. Every reader runs it:
/// [`PinballContainer::from_bytes`] and
/// [`PinballContainer::from_bytes_lossy`] as one pass over the whole
/// file, [`inspect`] as the same pass recording each frame, and
/// [`StreamReader`](crate::StreamReader) once per absorbed slab — so a
/// batch load and a streamed one accept the same bytes, decode them by the
/// same rules and fail with the same error.
///
/// The walk borrows its buffer on each call, decodes every frame the
/// buffer completes exactly once, front to back, and stops at the first
/// damaged one, keeping everything decoded before it.
#[derive(Debug, Clone)]
pub(crate) struct Walk {
    /// Container generation (from the magic): v2 frames carry no codec
    /// byte, and v4 adds the dictionary frame and columnar events.
    version: ContainerVersion,
    /// Offset of the first byte not yet consumed; once sealed, the end of
    /// the trailer.
    parsed: usize,
    /// Frames consumed so far: the ordinal the next error names.
    frames: usize,
    /// The shared LZSS dictionary (v4; empty until frame 1).
    dict: Vec<u8>,
    header: Option<ContainerHeader>,
    events: Vec<ReplayEvent>,
    checkpoints: Vec<ReplayCheckpoint>,
    /// Whether the index frame, trailer and event count have checked out.
    sealed: bool,
    /// Per-frame facts, recorded only for [`inspect`].
    report: Option<Vec<FrameReport>>,
}

impl Walk {
    /// A walk positioned after the magic of a `version` container.
    pub(crate) fn new(version: ContainerVersion) -> Walk {
        Walk {
            version,
            parsed: MAGIC.len(),
            frames: 0,
            dict: Vec::new(),
            header: None,
            events: Vec::new(),
            checkpoints: Vec::new(),
            sealed: false,
            report: None,
        }
    }

    /// Decodes every frame `buf` completes beyond the last call (`buf`
    /// must extend the buffer of earlier calls). With `at_end` false an
    /// incomplete frame, or an index frame whose trailer has not fully
    /// arrived, waits for more bytes. With `at_end` true the input is
    /// over, and the walk gives its verdict: `Ok` once sealed,
    /// [`PinballError::Unsealed`] when it stops at a frame boundary after
    /// the header, and a chunk-naming truncation error mid-frame.
    ///
    /// # Errors
    ///
    /// The first damage: a [`PinballError::Chunk`] naming the frame, or
    /// [`PinballError::Format`] when a sealed container's event count
    /// disagrees with its header or bytes follow its trailer.
    pub(crate) fn advance(&mut self, buf: &[u8], at_end: bool) -> Result<(), PinballError> {
        let has_codec = self.version != ContainerVersion::V2;
        loop {
            if self.sealed {
                if buf.len() > self.parsed {
                    return Err(PinballError::Format(
                        "data appended after the sealed trailer".into(),
                    ));
                }
                return Ok(());
            }
            let off = self.parsed;
            if off >= buf.len() {
                if !at_end {
                    return Ok(());
                }
                return Err(match &self.header {
                    Some(h) => PinballError::Unsealed {
                        events_recovered: self.events.len(),
                        events_expected: h.num_events as usize,
                    },
                    None => chunk_err(0, ChunkKind::Unknown, FrameError::Truncated),
                });
            }
            let raw = match peek_frame(buf, off, has_codec) {
                Ok(raw) => raw,
                Err(FrameError::Truncated) if !at_end => return Ok(()),
                Err(e) => return Err(chunk_err(self.frames, peek_kind(buf, off), e)),
            };
            let end = off + raw.encoded_len;
            if raw.kind == KIND_INDEX && !at_end && buf.len() < end + TRAILER_LEN {
                return Ok(());
            }
            self.frame(buf, &raw, off)?;
            self.parsed = if self.sealed { end + TRAILER_LEN } else { end };
            self.frames += 1;
        }
    }

    /// Verifies, decodes and applies the complete frame at `off`: which
    /// kind may come where, and how each kind decodes, for this version.
    /// The index frame seals the walk once its trailer points back at it
    /// and the events decoded match the header's count.
    fn frame(&mut self, buf: &[u8], raw: &RawFrame, off: usize) -> Result<(), PinballError> {
        let n = self.frames;
        let v4 = self.version == ContainerVersion::V4;
        let err = |reason: &dyn fmt::Display| chunk_err(n, kind_of(raw.kind), reason);
        let payload_len = match raw.kind {
            KIND_HEADER if n == 0 => {
                let payload = decode_payload(buf, raw).map_err(|e| err(&e))?;
                let header = decode_by_codec(&payload, raw.codec)
                    .map_err(|e| err(&format!("bad header payload: {e}")))?;
                self.header = Some(header);
                payload.len()
            }
            _ if n == 0 => return Err(err(&"first frame is not the container header")),
            KIND_DICT if n == 1 && v4 => {
                if raw.codec != Some(PayloadCodec::Binary.byte()) {
                    return Err(err(&"dictionary frame carries a non-binary codec byte"));
                }
                self.dict = decode_payload(buf, raw).map_err(|e| err(&e))?;
                self.dict.len()
            }
            _ if n == 1 && v4 => return Err(err(&"second frame is not the shared dictionary")),
            KIND_EVENTS => {
                let bad_events = |e: String| err(&format!("bad events payload: {e}"));
                let (mut events, len) = if v4 {
                    if raw.codec != Some(PayloadCodec::Columnar.byte()) {
                        return Err(err(&"events frame does not carry the columnar codec"));
                    }
                    let payload =
                        decode_payload_with_dict(buf, raw, &self.dict).map_err(|e| err(&e))?;
                    let cols = EventColumns::decode(&payload).map_err(bad_events)?;
                    (cols.to_events(), payload.len())
                } else {
                    let payload = decode_payload(buf, raw).map_err(|e| err(&e))?;
                    let events: Vec<ReplayEvent> =
                        decode_by_codec(&payload, raw.codec).map_err(bad_events)?;
                    (events, payload.len())
                };
                self.events.append(&mut events);
                len
            }
            KIND_CHECKPOINT => {
                let payload = decode_payload(buf, raw).map_err(|e| err(&e))?;
                let cp = decode_by_codec(&payload, raw.codec)
                    .map_err(|e| err(&format!("bad checkpoint payload: {e}")))?;
                self.checkpoints.push(cp);
                payload.len()
            }
            KIND_INDEX => {
                // The index contents are advisory (offsets for random
                // access; no reader depends on them), but the frame must
                // verify and parse, and the trailer must point back at
                // it, for the container to count as sealed. Parsing per
                // codec also catches a damaged codec byte, which the CRC
                // (covering only the payload) cannot see.
                let len = decode_payload(buf, raw)
                    .map_err(|e| e.to_string())
                    .and_then(|payload| {
                        decode_by_codec::<Vec<IndexEntry>>(&payload, raw.codec)
                            .map(|_| payload.len())
                    })
                    .map_err(|e| err(&format!("bad index payload: {e}")))?;
                let trailer_at = off + raw.encoded_len;
                if !buf
                    .get(trailer_at..trailer_at + TRAILER_LEN)
                    .is_some_and(|trailer| trailer_points_at(trailer, off))
                {
                    return Err(err(&"bad trailer (index offset or magic mismatch)"));
                }
                // Frame 0 decoded as the header, or the walk stopped there.
                let promised = self.header.as_ref().map_or(0, |h| h.num_events);
                if self.events.len() as u64 != promised {
                    return Err(PinballError::Format(format!(
                        "event count mismatch: header promises {promised}, chunks hold {}",
                        self.events.len()
                    )));
                }
                self.sealed = true;
                len
            }
            other => return Err(err(&format!("unexpected frame kind {other}"))),
        };
        if let Some(report) = &mut self.report {
            report.push(FrameReport {
                chunk: n,
                kind: kind_of(raw.kind),
                // Every codec byte has been checked by the decode above;
                // v2 frames, which carry none, are JSON.
                codec: raw
                    .codec
                    .and_then(PayloadCodec::from_byte)
                    .unwrap_or(PayloadCodec::Json),
                compressed_len: raw.payload.len(),
                uncompressed_len: payload_len,
            });
        }
        Ok(())
    }

    /// Events the header promises, once the header frame is decoded.
    pub(crate) fn events_expected(&self) -> Option<u64> {
        self.header.as_ref().map(|h| h.num_events)
    }

    /// Events decoded so far.
    pub(crate) fn events(&self) -> &[ReplayEvent] {
        &self.events
    }

    /// The container's length through its trailer, once sealed.
    pub(crate) fn sealed_len(&self) -> Option<usize> {
        self.sealed.then_some(self.parsed)
    }

    /// The walked prefix as a container: every decoded event, and each
    /// embedded checkpoint that the prefix reaches.
    ///
    /// # Errors
    ///
    /// [`PinballError::Format`] until the header frame has been decoded.
    pub(crate) fn into_container(self) -> Result<PinballContainer, PinballError> {
        let header = self
            .header
            .ok_or_else(|| PinballError::Format("header frame not yet decoded".into()))?;
        let mut checkpoints = self.checkpoints;
        checkpoints.retain(|cp| cp.pos <= self.events.len());
        Ok(PinballContainer {
            pinball: Pinball {
                meta: header.meta,
                snapshot: header.snapshot,
                events: self.events,
                syscalls: header.syscalls,
                exit: header.exit,
            },
            checkpoints,
            checkpoint_interval: header.checkpoint_interval.max(1),
        })
    }
}

/// Whether `trailer` is exactly the 12-byte trailer — the index frame's
/// offset, then `PBIX` — for an index frame at `index_off`.
fn trailer_points_at(trailer: &[u8], index_off: usize) -> bool {
    trailer
        .split_first_chunk::<8>()
        .is_some_and(|(offset, magic)| {
            magic == TRAILER_MAGIC && u64::from_le_bytes(*offset) == index_off as u64
        })
}

/// Best-effort kind of the frame starting at `offset` (for error reports
/// when the frame itself cannot be read).
fn peek_kind(bytes: &[u8], offset: usize) -> ChunkKind {
    bytes
        .get(offset)
        .map_or(ChunkKind::Unknown, |&b| kind_of(b))
}

// ---------------------------------------------------------------------------
// Inspection
// ---------------------------------------------------------------------------

/// Size and codec facts about one frame of a container, from [`inspect`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrameReport {
    /// Frame ordinal in the file (0 = header).
    pub chunk: usize,
    /// What the frame holds.
    pub kind: ChunkKind,
    /// How the payload is serialized (v2 frames are implicitly JSON).
    pub codec: PayloadCodec,
    /// LZSS-compressed payload size on disk, in bytes.
    pub compressed_len: usize,
    /// Decompressed payload size, in bytes.
    pub uncompressed_len: usize,
}

/// A structural report over a pinball file: version, per-frame codec and
/// sizes, and totals. Produced by [`inspect`]; rendered by the `drdebug`
/// CLI's `info container`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ContainerReport {
    /// Detected container generation.
    pub version: ContainerVersion,
    /// Total file size in bytes.
    pub file_len: usize,
    /// Events the header promises (v1: the actual event count).
    pub num_events: u64,
    /// Embedded checkpoint frames.
    pub checkpoints: usize,
    /// Chunk cadence in retired instructions.
    pub checkpoint_interval: u64,
    /// Per-frame facts, in file order (v1: one pseudo-frame for the blob).
    pub frames: Vec<FrameReport>,
    /// Shared dictionary size in bytes (v4 only).
    pub dict_len: Option<usize>,
    /// Summed encoded column sizes across all events frames (v4 only).
    pub columns: Option<crate::columns::ColumnSizes>,
}

impl ContainerReport {
    /// Sum of compressed payload sizes across all frames.
    pub fn compressed_total(&self) -> usize {
        self.frames.iter().map(|f| f.compressed_len).sum()
    }

    /// Sum of decompressed payload sizes across all frames.
    pub fn uncompressed_total(&self) -> usize {
        self.frames.iter().map(|f| f.uncompressed_len).sum()
    }

    /// Compression ratio, uncompressed : compressed, in percent of space
    /// saved (0 when empty).
    pub fn ratio_percent(&self) -> u32 {
        let unc = self.uncompressed_total();
        if unc == 0 {
            return 0;
        }
        let saved = unc.saturating_sub(self.compressed_total());
        (saved * 100 / unc) as u32
    }
}

impl fmt::Display for ContainerReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "container {}: {} bytes, {} events, {} checkpoints, interval {}",
            self.version,
            self.file_len,
            self.num_events,
            self.checkpoints,
            self.checkpoint_interval
        )?;
        writeln!(
            f,
            "payloads: {} compressed / {} uncompressed ({}% saved)",
            self.compressed_total(),
            self.uncompressed_total(),
            self.ratio_percent()
        )?;
        writeln!(
            f,
            "{:>5}  {:<10}  {:<6}  {:>10}  {:>12}",
            "chunk", "kind", "codec", "compressed", "uncompressed"
        )?;
        for fr in &self.frames {
            writeln!(
                f,
                "{:>5}  {:<10}  {:<6}  {:>10}  {:>12}",
                fr.chunk,
                fr.kind.to_string(),
                fr.codec.to_string(),
                fr.compressed_len,
                fr.uncompressed_len
            )?;
        }
        if let Some(dict_len) = self.dict_len {
            writeln!(f, "shared dictionary: {dict_len} bytes")?;
        }
        if let Some(cols) = &self.columns {
            writeln!(
                f,
                "event columns (encoded): kinds {} tids {} args {} pair_ends {} \
                 pair_keys {} pair_vals {} (total {})",
                cols.kinds,
                cols.tids,
                cols.args,
                cols.pair_ends,
                cols.pair_keys,
                cols.pair_vals,
                cols.total()
            )?;
        }
        Ok(())
    }
}

/// Walks a pinball file and reports its version, per-frame codecs, and
/// compressed/uncompressed sizes. It is the load's own pass (see
/// [`PinballContainer::from_bytes`]) with each frame recorded, so it fails
/// exactly where the load does, with the same error (use
/// [`PinballContainer::from_bytes_lossy`] to salvage damaged files).
///
/// # Errors
///
/// Returns [`PinballError::Chunk`] for a damaged frame,
/// [`PinballError::Unsealed`] for a file that ends cleanly before its
/// footer, [`PinballError::Format`] for structural problems, and the v1
/// errors for v1 blobs.
pub fn inspect(bytes: &[u8]) -> Result<ContainerReport, PinballError> {
    let version = detect_version(bytes);
    if version == ContainerVersion::V1 {
        let pinball = Pinball::from_bytes_v1(bytes)?;
        let json =
            serde_json::to_vec(&pinball).map_err(|e| PinballError::Serialize(e.to_string()))?;
        return Ok(ContainerReport {
            version,
            file_len: bytes.len(),
            num_events: pinball.events.len() as u64,
            checkpoints: 0,
            checkpoint_interval: 0,
            frames: vec![FrameReport {
                chunk: 0,
                kind: ChunkKind::Unknown,
                codec: PayloadCodec::Json,
                compressed_len: bytes.len(),
                uncompressed_len: json.len(),
            }],
            dict_len: None,
            columns: None,
        });
    }

    let mut walk = Walk::new(version);
    walk.report = Some(Vec::new());
    walk.advance(bytes, true)?;
    let frames = walk.report.take().unwrap_or_default();
    let dict_len = (version == ContainerVersion::V4).then_some(walk.dict.len());
    let container = walk.into_container()?;
    // Column sizes do not depend on where the log is cut into frames, so
    // the whole log's sizes are the sum over its columnar frames.
    let columns = frames
        .iter()
        .any(|fr| fr.codec == PayloadCodec::Columnar)
        .then(|| EventColumns::from_events(&container.pinball.events).column_sizes());
    Ok(ContainerReport {
        version,
        file_len: bytes.len(),
        num_events: container.pinball.events.len() as u64,
        checkpoints: container.checkpoints.len(),
        checkpoint_interval: container.checkpoint_interval,
        frames,
        dict_len,
        columns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use minivm::{assemble, LiveEnv, NullTool, RoundRobin};

    use crate::logger::record_whole_program;
    use crate::replay::ReplayStatus;

    const PROG: &str = r"
        .data
        acc: .word 0
        .text
        .func main
            movi r1, 1
            spawn r2, worker, r1
            movi r1, 2
            spawn r3, worker, r1
            join r2
            join r3
            la r4, acc
            load r5, r4, 0
            rand r6
            print r5
            halt
        .endfunc
        .func worker
            movi r3, 200
        loop:
            la r1, acc
            xadd r2, r1, r0
            subi r3, r3, 1
            bgti r3, 0, loop
            halt
        .endfunc
        ";

    fn record() -> (Arc<Program>, Pinball) {
        let program = Arc::new(assemble(PROG).unwrap());
        let rec = record_whole_program(
            &program,
            &mut RoundRobin::new(7),
            &mut LiveEnv::new(42),
            1_000_000,
            "container-demo",
        )
        .unwrap();
        (program, rec.pinball)
    }

    /// v1–v4 saves of one recording, written before the v1–v3 writers
    /// were deleted (see `tests/fixtures/README.md`; `container_prop`
    /// checks them against a fresh recording).
    const V1: &[u8] = include_bytes!("../tests/fixtures/fuzz_v1.drpb");
    const V2: &[u8] = include_bytes!("../tests/fixtures/fuzz_v2.drpb");
    const V3: &[u8] = include_bytes!("../tests/fixtures/fuzz_v3.drpb");
    const V4: &[u8] = include_bytes!("../tests/fixtures/fuzz_v4.drpb");

    /// The fixtures' container, as the v4 save holds it.
    fn fixture() -> PinballContainer {
        PinballContainer::from_bytes(V4).unwrap()
    }

    #[test]
    fn chunk_ranges_cover_the_log_exactly() {
        let (_, pinball) = record();
        let ranges = chunk_ranges(&pinball.events, 64);
        assert!(ranges.len() > 2, "log should split into several chunks");
        assert_eq!(ranges[0].0, 0);
        assert_eq!(ranges.last().unwrap().1, pinball.events.len());
        for w in ranges.windows(2) {
            assert_eq!(w[0].1, w[1].0, "chunks are contiguous");
            assert!(
                w[1].2 - w[0].2 >= 64,
                "each closed chunk holds >= interval instrs"
            );
        }
    }

    #[test]
    fn v4_roundtrip_preserves_pinball_and_checkpoints() {
        let (program, pinball) = record();
        let c = PinballContainer::with_checkpoints(pinball, &program, 128);
        assert!(!c.checkpoints.is_empty());
        let bytes = c.to_bytes().unwrap();
        assert!(bytes.starts_with(MAGIC_V4));
        let d = PinballContainer::from_bytes(&bytes).unwrap();
        assert_eq!(c, d);
    }

    #[test]
    fn legacy_fixtures_load_as_the_v4_fixture() {
        let c = fixture();
        assert!(!c.checkpoints.is_empty());
        for (bytes, version) in [(V2, ContainerVersion::V2), (V3, ContainerVersion::V3)] {
            assert_eq!(detect_version(bytes), version);
            assert_eq!(PinballContainer::from_bytes(bytes).unwrap(), c, "{version}");
        }
        // v1 holds no checkpoints: it loads as the bare pinball.
        assert_eq!(detect_version(V1), ContainerVersion::V1);
        let v1 = PinballContainer::from_bytes(V1).unwrap();
        assert_eq!(v1.pinball, c.pinball);
        assert!(v1.checkpoints.is_empty());
        assert_eq!(Pinball::from_bytes(V1).unwrap(), c.pinball);
    }

    #[test]
    fn v4_is_not_larger_than_v3() {
        let v4 = fixture().to_bytes().unwrap();
        assert!(
            v4.len() <= V3.len(),
            "v4 ({}) should not exceed v3 ({})",
            v4.len(),
            V3.len()
        );
    }

    #[test]
    fn load_save_is_byte_identical() {
        let (program, pinball) = record();
        let container = PinballContainer::with_checkpoints(pinball, &program, 256);
        let v4 = container.to_bytes().unwrap();
        for bytes in [v4.as_slice(), V4] {
            assert_eq!(
                PinballContainer::from_bytes(bytes)
                    .unwrap()
                    .to_bytes()
                    .unwrap(),
                bytes
            );
        }
    }

    #[test]
    fn migrate_upgrades_older_formats_to_v4() {
        let c = fixture();
        let digest = c.digest();

        let from_v1 = migrate(V1).unwrap();
        assert_eq!(detect_version(&from_v1), ContainerVersion::V4);
        assert_eq!(
            from_v1,
            PinballContainer::new(c.pinball.clone()).to_bytes().unwrap(),
            "v1 -> v4 is a checkpoint-free save"
        );

        for (tag, bytes) in [("v2", V2), ("v3", V3)] {
            let upgraded = migrate(bytes).unwrap();
            assert_eq!(upgraded, V4, "{tag} -> v4 equals a direct save");
            let loaded = PinballContainer::from_bytes(&upgraded).unwrap();
            assert_eq!(loaded, c, "migration preserves checkpoints and interval");
            assert_eq!(loaded.digest(), digest);
        }

        assert!(matches!(migrate(V4), Err(PinballError::Format(_))));
    }

    #[test]
    fn corrupt_chunk_is_named() {
        let (program, pinball) = record();
        let v4 = PinballContainer::with_checkpoints(pinball, &program, 128)
            .to_bytes()
            .unwrap();
        for bytes in [v4.as_slice(), V2] {
            // Flip a bit well past the header frame.
            let mut bad = bytes.to_vec();
            let target = bytes.len() * 3 / 4;
            bad[target] ^= 0x10;
            let err = PinballContainer::from_bytes(&bad).unwrap_err();
            match err {
                PinballError::Chunk { chunk, .. } => assert!(chunk > 0),
                other => panic!("expected Chunk error, got {other:?}"),
            }
        }
    }

    #[test]
    fn lossy_load_recovers_intact_prefix() {
        let (program, pinball) = record();
        let total_events = pinball.events.len();
        let total_instrs = pinball.logged_instructions();
        let bytes = PinballContainer::with_checkpoints(pinball, &program, 128)
            .to_bytes()
            .unwrap();
        // Truncate mid-file: everything before the cut must replay.
        let cut = bytes.len() / 2;
        let loaded = PinballContainer::from_bytes_lossy(&bytes[..cut]).unwrap();
        assert!(loaded.damage.is_some());
        assert!(loaded.events_recovered < total_events);
        assert!(loaded.events_recovered > 0);
        assert_eq!(loaded.events_expected, total_events);
        let mut rep = Replayer::new(Arc::clone(&program), &loaded.container.pinball);
        assert_eq!(rep.run(&mut NullTool), ReplayStatus::Completed);
        assert!(rep.replayed_instructions() <= total_instrs);
    }

    #[test]
    fn digest_is_checkpoint_and_interval_independent() {
        let (program, pinball) = record();
        let plain = PinballContainer::new(pinball.clone());
        let ckpt_a = PinballContainer::with_checkpoints(pinball.clone(), &program, 64);
        let ckpt_b = PinballContainer::with_checkpoints(pinball.clone(), &program, 256);
        assert_eq!(plain.digest(), ckpt_a.digest());
        assert_eq!(ckpt_a.digest(), ckpt_b.digest());
        assert_eq!(plain.digest(), pinball.digest());
    }

    #[test]
    fn digest_is_container_version_independent() {
        let base = fixture().digest();
        for bytes in [V1, V2, V3, V4] {
            let loaded = PinballContainer::from_bytes(bytes).unwrap();
            assert_eq!(loaded.digest(), base, "{}", detect_version(bytes));
        }
    }

    #[test]
    fn digest_distinguishes_different_recordings() {
        let (_, pinball) = record();
        let base = pinball.digest();
        // Any content change — metadata, log, syscalls — moves the digest.
        let mut renamed = pinball.clone();
        renamed.meta.region = "elsewhere".into();
        assert_ne!(base, renamed.digest());
        let mut shorter = pinball.clone();
        shorter.events.pop();
        assert_ne!(base, shorter.digest());
        // And a round-trip through the container format preserves it.
        let bytes = PinballContainer::new(pinball).to_bytes().unwrap();
        let reloaded = PinballContainer::from_bytes(&bytes).unwrap();
        assert_eq!(base, reloaded.digest());
    }

    #[test]
    fn empty_log_roundtrips() {
        let (_, mut pinball) = record();
        pinball.events.clear();
        let c = PinballContainer::new(pinball);
        let bytes = c.to_bytes().unwrap();
        assert_eq!(PinballContainer::from_bytes(&bytes).unwrap(), c);
    }

    #[test]
    fn inspect_reports_frames_and_codecs() {
        let (program, pinball) = record();
        let c = PinballContainer::with_checkpoints(pinball, &program, 128);

        let v4 = c.to_bytes().unwrap();
        let report4 = inspect(&v4).unwrap();
        assert_eq!(report4.version, ContainerVersion::V4);
        assert_eq!(report4.file_len, v4.len());
        assert_eq!(report4.num_events, c.pinball.events.len() as u64);
        assert_eq!(report4.checkpoints, c.checkpoints.len());
        assert_eq!(report4.frames[0].kind, ChunkKind::Header);
        assert_eq!(report4.frames[1].kind, ChunkKind::Dict);
        assert!(report4
            .frames
            .iter()
            .filter(|fr| fr.kind == ChunkKind::Events)
            .all(|fr| fr.codec == PayloadCodec::Columnar));
        let dict_len = report4.dict_len.expect("v4 reports its dictionary");
        assert!(dict_len > 0 && dict_len <= pinzip::DICT_MAX);
        let cols = report4.columns.expect("v4 reports per-column sizes");
        assert!(cols.kinds > 0 && cols.total() > 0);
        let rendered4 = report4.to_string();
        assert!(rendered4.contains("container v4"));
        assert!(rendered4.contains("columnar"));
        assert!(rendered4.contains("shared dictionary"));
        assert!(rendered4.contains("event columns"));

        let f = fixture();
        let report = inspect(V3).unwrap();
        assert_eq!(report.version, ContainerVersion::V3);
        assert_eq!(report.file_len, V3.len());
        assert_eq!(report.num_events, f.pinball.events.len() as u64);
        assert_eq!(report.checkpoints, f.checkpoints.len());
        assert_eq!(report.checkpoint_interval, 32);
        assert!(report.frames.len() > 3);
        assert_eq!(report.frames[0].kind, ChunkKind::Header);
        assert_eq!(report.frames.last().unwrap().kind, ChunkKind::Index);
        assert!(report
            .frames
            .iter()
            .all(|fr| fr.codec == PayloadCodec::Binary));
        assert!(report.uncompressed_total() > report.compressed_total());
        assert_eq!(report.dict_len, None);
        assert_eq!(report.columns, None);
        let rendered = report.to_string();
        assert!(rendered.contains("container v3"));
        assert!(rendered.contains("binary"));

        let report2 = inspect(V2).unwrap();
        assert_eq!(report2.version, ContainerVersion::V2);
        assert!(report2
            .frames
            .iter()
            .all(|fr| fr.codec == PayloadCodec::Json));
        assert_eq!(report2.num_events, report.num_events);
        assert_eq!(report2.checkpoints, report.checkpoints);

        let report1 = inspect(V1).unwrap();
        assert_eq!(report1.version, ContainerVersion::V1);
        assert_eq!(report1.frames.len(), 1);
        assert_eq!(report1.file_len, V1.len());
        assert_eq!(report1.num_events, report.num_events);
    }

    #[test]
    fn inspect_rejects_damage() {
        let (_, pinball) = record();
        let mut bytes = PinballContainer::new(pinball).to_bytes().unwrap();
        let target = bytes.len() / 2;
        bytes[target] ^= 0x04;
        assert!(matches!(
            inspect(&bytes),
            Err(PinballError::Chunk { .. }) | Err(PinballError::Format(_))
        ));
    }

    #[test]
    fn detect_version_distinguishes_formats() {
        assert_eq!(detect_version(b"DRPB2\nrest"), ContainerVersion::V2);
        assert_eq!(detect_version(b"DRPB3\nrest"), ContainerVersion::V3);
        assert_eq!(detect_version(b"DRPB4\nrest"), ContainerVersion::V4);
        assert_eq!(detect_version(b"anything else"), ContainerVersion::V1);
        assert_eq!(detect_version(b""), ContainerVersion::V1);
    }

    #[test]
    fn trailer_must_be_exact() {
        let mut trailer = 77u64.to_le_bytes().to_vec();
        trailer.extend_from_slice(TRAILER_MAGIC);
        assert!(trailer_points_at(&trailer, 77));
        assert!(!trailer_points_at(&trailer, 78));
        assert!(!trailer_points_at(&trailer[..11], 77));
        trailer.push(0);
        assert!(!trailer_points_at(&trailer, 77));
        assert!(!trailer_points_at(&[], 0));
    }
}
