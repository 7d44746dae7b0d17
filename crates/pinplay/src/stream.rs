//! Streaming capture: chunked, resumable pinball transport over the v4
//! frame format.
//!
//! The batch pipeline serializes a whole [`PinballContainer`] with
//! [`PinballContainer::to_bytes`] and ships it as one message. That caps
//! pinball size at the transport's message limit and forces the consumer
//! to wait for the entire recording. The streaming pair in this module
//! removes both constraints while keeping the wire format *identical* to
//! the batch container:
//!
//! * [`StreamWriter`] plans a container as a sequence of self-delimiting
//!   **chunks** — each a contiguous byte slice covering whole v4 frames
//!   (the shared-dictionary frame travels with the header; checkpoint
//!   frames travel with the events frame they precede) — plus
//!   a **footer** (the index frame and `PBIX` trailer). Concatenating
//!   every chunk and the footer reproduces the batch
//!   [`PinballContainer::to_bytes`] output byte for byte, so the sealed
//!   stream has the same [`PinballDigest`] as a batch save. Chunks are
//!   pure slices of a precomputed buffer: re-sending one after a crash or
//!   reconnect is always safe, which is what makes uploads resumable.
//! * [`StreamReader`] absorbs bytes in arbitrary increments and runs the
//!   container's one frame walk — the pass
//!   [`PinballContainer::from_bytes`] makes over a whole file — over what
//!   has arrived, decoding each frame (checkpoints included) once, as soon
//!   as it is complete, without re-reading the prefix. It reads v4 streams
//!   only — nothing writes older stream formats. At any moment
//!   [`StreamReader::partial_container`] yields the intact prefix as a
//!   replayable [`PinballContainer`] — this is what lets a consumer slice
//!   or live-tail a recording that is still uploading. Absorbing the
//!   footer seals the stream after validating the index frame, the
//!   trailer, and the header's event count, and
//!   [`StreamReader::finish`] gives the end-of-input verdict: the sealed
//!   container, or the error `from_bytes` returns for the same bytes.
//!
//! A partial file on disk (valid prefix, no footer) is recognized by the
//! strict loader as [`PinballError::Unsealed`] — typed, never a panic —
//! while [`PinballContainer::from_bytes_lossy`] recovers the prefix.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::ops::Range;

use crate::container::{
    detect_version, write_container_v4, ChunkKind, ContainerVersion, PinballContainer,
    PinballDigest, Walk, MAGIC_V4,
};
use crate::pinball::{run_steps, PinballError};

/// Plans a container as resumable chunks plus a sealing footer.
///
/// The writer serializes once (as [`PinballContainer::to_bytes`] does) and
/// then *slices* the result at frame-group boundaries, so every chunk is a
/// deterministic, re-requestable view into the same buffer and the
/// concatenation of all chunks plus [`StreamWriter::footer`] is
/// byte-identical to [`PinballContainer::to_bytes`].
#[derive(Debug, Clone)]
pub struct StreamWriter {
    bytes: Vec<u8>,
    /// Byte ranges of the natural chunk groups. Group 0 starts at byte 0
    /// and carries the magic and header frame; each group ends after an
    /// events frame (any checkpoint frame travels with the events frame
    /// that follows it).
    groups: Vec<Range<usize>>,
    /// Offset where the footer (index frame + trailer) begins.
    footer_at: usize,
    digest: PinballDigest,
    instructions: u64,
}

impl StreamWriter {
    /// Plans `container` for streaming. The serialized form is the v4
    /// container, so sealing reproduces a batch save exactly.
    ///
    /// # Errors
    ///
    /// Infallible in practice (the v4 writer cannot fail); the `Result`
    /// keeps the signature every caller already handles.
    pub fn new(container: &PinballContainer) -> Result<StreamWriter, PinballError> {
        let (bytes, index) = write_container_v4(
            &container.pinball,
            &container.checkpoints,
            container.checkpoint_interval,
        );
        // The index lists every frame's offset in file order, ending with
        // the index frame itself, where the footer begins: a group ends
        // where the frame after an events frame starts.
        let footer_at = index.last().map_or(bytes.len(), |e| e.offset as usize);
        let mut groups: Vec<Range<usize>> = Vec::new();
        let mut group_start = 0usize;
        for pair in index.windows(2) {
            if pair[0].kind == ChunkKind::Events {
                let end = pair[1].offset as usize;
                groups.push(group_start..end);
                group_start = end;
            }
        }
        if groups.is_empty() {
            // Empty log: the lone group is the magic + header frame.
            groups.push(0..footer_at);
        }

        Ok(StreamWriter {
            bytes,
            groups,
            footer_at,
            digest: container.digest(),
            instructions: container.pinball.logged_instructions(),
        })
    }

    /// Number of natural chunk groups (at least one; group 0 carries the
    /// magic and header frame).
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// The bytes of group `seq`, or `None` past the end.
    pub fn group(&self, seq: usize) -> Option<&[u8]> {
        self.groups.get(seq).map(|r| &self.bytes[r.clone()])
    }

    /// Splits the body into at most `n` contiguous chunks of nearly equal
    /// group count, in order. Concatenating them yields every byte before
    /// the footer. `n` is clamped to at least 1; fewer groups than `n`
    /// yields one chunk per group.
    pub fn chunks(&self, n: usize) -> Vec<&[u8]> {
        let n = n.max(1).min(self.groups.len());
        let g = self.groups.len();
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let start = self.groups[i * g / n].start;
            let end = self.groups[(i + 1) * g / n - 1].end;
            out.push(&self.bytes[start..end]);
        }
        out
    }

    /// The sealing footer: index frame plus the 12-byte `PBIX` trailer.
    pub fn footer(&self) -> &[u8] {
        &self.bytes[self.footer_at..]
    }

    /// The complete sealed container — identical to
    /// [`PinballContainer::to_bytes`].
    pub fn sealed_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Content digest of the planned recording (identical to the digest of
    /// a batch save of the same pinball).
    pub fn digest(&self) -> PinballDigest {
        self.digest
    }

    /// Total instructions the recording retires.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }
}

/// Incrementally decodes a v4 container from appended byte slices.
///
/// Feed bytes in any increments with [`StreamReader::absorb`]; the reader
/// runs the container's one frame walk over its buffer, decoding each
/// frame exactly once, as soon as it is complete, and keeping only an
/// undecoded tail pending. [`StreamReader::partial_container`] exposes the
/// intact prefix as a replayable container at any point; absorbing the
/// footer validates and seals the stream.
#[derive(Debug, Clone)]
pub struct StreamReader {
    buf: Vec<u8>,
    walk: Walk,
    /// Instructions the decoded events retire.
    instructions: u64,
}

impl Default for StreamReader {
    fn default() -> StreamReader {
        StreamReader {
            buf: Vec::new(),
            walk: Walk::new(ContainerVersion::V4),
            instructions: 0,
        }
    }
}

impl StreamReader {
    /// An empty reader awaiting the stream prologue.
    pub fn new() -> StreamReader {
        StreamReader::default()
    }

    /// Appends `bytes` to the stream and decodes every newly completed
    /// frame. Incomplete tails are kept pending for the next call; real
    /// damage (a magic other than v4's, CRC mismatch, undecodable payload,
    /// data after the trailer) is a typed error — the one
    /// [`PinballContainer::from_bytes`] returns for the same bytes.
    pub fn absorb(&mut self, bytes: &[u8]) -> Result<(), PinballError> {
        self.buf.extend_from_slice(bytes);
        if self.buf.len() < MAGIC_V4.len() {
            return Ok(());
        }
        self.check_magic()?;
        let decoded = self.walk.events().len();
        let walked = self.walk.advance(&self.buf, false);
        self.instructions += run_steps(&self.walk.events()[decoded..]);
        walked
    }

    /// The end-of-input verdict over everything absorbed: the sealed
    /// container, or the error [`PinballContainer::from_bytes`] returns
    /// for the same bytes — [`PinballError::Unsealed`] when the stream
    /// stopped at a frame boundary, a chunk-naming error mid-frame.
    ///
    /// # Errors
    ///
    /// As above; a stream that does not open with the v4 magic is a
    /// [`PinballError::Format`] error.
    pub fn finish(&mut self) -> Result<PinballContainer, PinballError> {
        self.check_magic()?;
        self.walk.advance(&self.buf, true)?;
        self.partial_container()
    }

    /// Streams carry v4 only: any other magic is a typed refusal.
    fn check_magic(&self) -> Result<(), PinballError> {
        if self.buf.starts_with(MAGIC_V4) {
            return Ok(());
        }
        let found = match detect_version(&self.buf) {
            ContainerVersion::V1 => "no container magic".to_string(),
            v => format!("a {v} container"),
        };
        Err(PinballError::Format(format!(
            "a stream must open with the v4 magic `{}`, found {found}",
            MAGIC_V4.escape_ascii()
        )))
    }

    /// Whether the footer has been absorbed and validated.
    pub fn is_sealed(&self) -> bool {
        self.walk.sealed_len().is_some()
    }

    /// Whether the header frame has been decoded (a prefix container is
    /// only available after this).
    pub fn has_header(&self) -> bool {
        self.walk.events_expected().is_some()
    }

    /// Events decoded so far.
    pub fn events_absorbed(&self) -> usize {
        self.walk.events().len()
    }

    /// Events the header promises for the sealed container (once the
    /// header has arrived).
    pub fn events_expected(&self) -> Option<u64> {
        self.walk.events_expected()
    }

    /// Instructions retired by the events decoded so far.
    pub fn instructions_absorbed(&self) -> u64 {
        self.instructions
    }

    /// Total bytes appended so far (decoded or pending).
    pub fn bytes_absorbed(&self) -> usize {
        self.buf.len()
    }

    /// The raw sealed container bytes, once sealed.
    pub fn sealed_bytes(&self) -> Option<&[u8]> {
        self.walk.sealed_len().map(|len| &self.buf[..len])
    }

    /// The intact prefix as a replayable container. Before sealing this is
    /// the partial recording absorbed so far (the typed
    /// [`PinballError::Unsealed`] state on disk); after sealing it is the
    /// complete recording.
    ///
    /// # Errors
    ///
    /// [`PinballError::Format`] until the header frame has arrived.
    pub fn partial_container(&self) -> Result<PinballContainer, PinballError> {
        self.walk.clone().into_container()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use minivm::{assemble, LiveEnv, Program, RoundRobin};

    use crate::logger::record_whole_program;
    use crate::replay::{ReplayStatus, Replayer};
    use minivm::NullTool;

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
            print r5
            halt
        .endfunc
        .func worker
            movi r3, 150
        loop:
            la r1, acc
            xadd r2, r1, r0
            subi r3, r3, 1
            bgti r3, 0, loop
            halt
        .endfunc
        ";

    fn record() -> (Arc<Program>, PinballContainer) {
        let program = Arc::new(assemble(PROG).expect("assembles"));
        let rec = record_whole_program(
            &program,
            &mut RoundRobin::new(7),
            &mut LiveEnv::new(42),
            1_000_000,
            "stream-demo",
        )
        .expect("records");
        let container = PinballContainer::with_checkpoints(rec.pinball, &program, 64);
        (program, container)
    }

    #[test]
    fn chunks_plus_footer_equal_batch_bytes() {
        let (_, container) = record();
        let writer = StreamWriter::new(&container).expect("plans");
        assert!(writer.num_groups() > 4, "workload should span many groups");
        for n in [1, 2, 3, writer.num_groups(), writer.num_groups() + 5] {
            let mut assembled = Vec::new();
            for chunk in writer.chunks(n) {
                assembled.extend_from_slice(chunk);
            }
            assembled.extend_from_slice(writer.footer());
            assert_eq!(assembled, container.to_bytes().expect("batch"));
        }
    }

    #[test]
    fn reader_absorbs_any_split_and_seals() {
        let (_, container) = record();
        let writer = StreamWriter::new(&container).expect("plans");
        let sealed = writer.sealed_bytes();
        // Absorb in awkward fixed-size increments that straddle every
        // frame boundary.
        for step in [1usize, 7, 64, 1021, sealed.len()] {
            let mut reader = StreamReader::new();
            for piece in sealed.chunks(step) {
                reader.absorb(piece).expect("absorbs cleanly");
            }
            assert!(reader.is_sealed());
            assert_eq!(reader.events_absorbed(), container.pinball.events.len());
            assert_eq!(
                reader.instructions_absorbed(),
                container.pinball.logged_instructions()
            );
            let got = reader.partial_container().expect("container");
            assert_eq!(got, container);
            assert_eq!(got.digest(), writer.digest());
        }
    }

    #[test]
    fn partial_prefix_replays_to_completion() {
        let (program, container) = record();
        let writer = StreamWriter::new(&container).expect("plans");
        let chunks = writer.chunks(4);
        let mut reader = StreamReader::new();
        reader.absorb(chunks[0]).expect("absorbs");
        reader.absorb(chunks[1]).expect("absorbs");
        assert!(!reader.is_sealed());
        assert!(reader.events_absorbed() > 0);
        assert!(reader.events_absorbed() < container.pinball.events.len());
        let partial = reader.partial_container().expect("prefix container");
        let mut replayer = Replayer::new(program, &partial.pinball);
        let status = replayer.run(&mut NullTool);
        assert_eq!(status, ReplayStatus::Completed);
    }

    #[test]
    fn unsealed_file_is_a_typed_error_and_lossy_recoverable() {
        let (_, container) = record();
        let writer = StreamWriter::new(&container).expect("plans");
        let chunks = writer.chunks(4);
        let mut partial: Vec<u8> = Vec::new();
        partial.extend_from_slice(chunks[0]);
        partial.extend_from_slice(chunks[1]);
        let err = PinballContainer::from_bytes(&partial).expect_err("unsealed");
        match err {
            PinballError::Unsealed {
                events_recovered,
                events_expected,
            } => {
                assert!(events_recovered > 0);
                assert_eq!(events_expected, container.pinball.events.len());
                assert!(events_recovered < events_expected);
            }
            other => panic!("expected Unsealed, got {other:?}"),
        }
        let lossy = PinballContainer::from_bytes_lossy(&partial).expect("salvages");
        assert!(matches!(lossy.damage, Some(PinballError::Unsealed { .. })));
        assert!(lossy.events_recovered > 0);
    }

    #[test]
    fn resumed_upload_converges_to_the_same_digest() {
        let (_, container) = record();
        let writer = StreamWriter::new(&container).expect("plans");
        let chunks = writer.chunks(6);
        // Simulate a killed upload: a fresh reader re-receives the prefix
        // from the start (chunks are pure slices, so the resend is
        // byte-identical) and then the remainder.
        for kill_at in 0..chunks.len() {
            let mut reader = StreamReader::new();
            for chunk in chunks.iter().take(kill_at) {
                reader.absorb(chunk).expect("first attempt");
            }
            let mut resumed = StreamReader::new();
            for chunk in &chunks {
                resumed.absorb(chunk).expect("second attempt");
            }
            resumed.absorb(writer.footer()).expect("footer");
            assert!(resumed.is_sealed());
            let got = resumed.partial_container().expect("container");
            assert_eq!(got.digest(), writer.digest());
            assert_eq!(
                resumed.sealed_bytes().expect("sealed"),
                writer.sealed_bytes()
            );
        }
    }

    #[test]
    fn older_stream_formats_are_a_typed_format_error() {
        // The committed v3 save (see tests/fixtures/README.md): streams
        // carry v4 only, so its magic alone is enough to refuse it.
        let v3 = include_bytes!("../tests/fixtures/fuzz_v3.drpb");
        for bytes in [&v3[..], &v3[..6], b"DRPB2\n", b"not a pinball"] {
            let mut reader = StreamReader::new();
            match reader.absorb(bytes) {
                Err(PinballError::Format(msg)) => {
                    assert!(msg.contains("`DRPB4\\n`"), "{msg}");
                }
                other => panic!("expected a Format error, got {other:?}"),
            }
        }
        let mut reader = StreamReader::new();
        let err = reader.absorb(v3).unwrap_err().to_string();
        assert!(err.contains("found a v3 container"), "{err}");
    }

    #[test]
    fn sealed_v4_stream_is_the_batch_v4_container() {
        let (_, container) = record();
        let writer = StreamWriter::new(&container).expect("plans");
        let mut reader = StreamReader::new();
        reader.absorb(writer.sealed_bytes()).expect("absorbs");
        assert!(reader.is_sealed());
        let sealed = reader.sealed_bytes().expect("sealed");
        assert_eq!(&sealed[..6], crate::container::MAGIC_V4);
        assert_eq!(sealed, container.to_bytes().unwrap());
    }

    #[test]
    fn data_after_the_trailer_is_rejected() {
        let (_, container) = record();
        let writer = StreamWriter::new(&container).expect("plans");
        let mut reader = StreamReader::new();
        reader.absorb(writer.sealed_bytes()).expect("absorbs");
        assert!(reader.is_sealed());
        let err = reader.absorb(b"x").expect_err("rejects trailing data");
        assert!(matches!(err, PinballError::Format(_)));
    }

    #[test]
    fn empty_log_streams_as_a_single_group() {
        let (_, recorded) = record();
        let mut pinball = recorded.pinball;
        pinball.events.clear();
        let container = PinballContainer::new(pinball);
        let writer = StreamWriter::new(&container).expect("plans");
        assert_eq!(writer.num_groups(), 1);
        let mut reader = StreamReader::new();
        reader
            .absorb(writer.group(0).expect("group 0"))
            .expect("absorbs");
        assert!(!reader.is_sealed());
        reader.absorb(writer.footer()).expect("footer");
        assert!(reader.is_sealed());
        assert_eq!(reader.partial_container().expect("container"), container);
    }
}
