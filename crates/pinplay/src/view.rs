//! Zero-copy and paged views over v4 containers.
//!
//! [`ContainerView::from_bytes`] is the v4 fast load path: it decodes the
//! columnar events frames straight into [`EventColumns`] and *keeps* them —
//! no `Vec<ReplayEvent>` is ever materialized, and every replayer built
//! from the view borrows the one column set
//! ([`EventLog::Columns`](crate::replay::EventLog)). This is what makes a
//! v4 load near-memcpy: the work is CRC + LZSS + a handful of bulk varint
//! scans, with no per-record tree decode.
//!
//! [`MappedContainer`] is the paged variant for pinballs too large to hold
//! in memory: opening reads only the trailer, footer index, header, and
//! shared dictionary (all small); events chunks are paged in on demand by
//! [`MappedEvents`] as replay walks the log, and checkpoints are fetched
//! individually when a seek needs one. The implementation reads pages with
//! positional I/O (`pread` via [`std::os::unix::fs::FileExt`]), the
//! portable stand-in for an `mmap`-backed load: the file is the backing
//! store and resident memory stays bounded by the chunk size.

use std::fmt;
use std::fs::File;
use std::path::Path;
use std::sync::Arc;

use minivm::{Program, Snapshot};
use pinzip::frame::{decode_payload, decode_payload_with_dict, peek_frame};

use crate::columns::{EventColumns, EventRef};
use crate::container::{
    chunk_err, decode_by_codec, detect_version, kind_of, peek_kind, ChunkKind, ContainerHeader,
    ContainerVersion, IndexEntry, PayloadCodec, PinballContainer, PinballDigest, ReplayCheckpoint,
    KIND_CHECKPOINT, KIND_DICT, KIND_EVENTS, KIND_HEADER, KIND_INDEX, MAGIC_V4, TRAILER_MAGIC,
};
use crate::pinball::{Pinball, PinballError, PinballMeta, RecordedExit};
use crate::replay::{EventLog, Replayer};

/// A loaded v4 container that keeps its events in columnar form — the
/// zero-copy counterpart of [`PinballContainer`]. Replayers, trace builds,
/// and the relogger borrow the columns via [`EventRef`] instead of owning
/// event trees.
#[derive(Debug, Clone, PartialEq)]
pub struct ContainerView {
    /// Descriptive metadata.
    pub meta: PinballMeta,
    /// Architectural state at region entry.
    pub snapshot: Snapshot,
    /// Recorded syscall results, per thread id, in issue order.
    pub syscalls: Vec<Vec<i64>>,
    /// How the region ended.
    pub exit: RecordedExit,
    /// The replay log, in columnar form, shared by every replayer built
    /// from this view.
    pub events: Arc<EventColumns>,
    /// Embedded checkpoints, ascending by `instr`.
    pub checkpoints: Vec<ReplayCheckpoint>,
    /// Chunk cadence in retired instructions.
    pub checkpoint_interval: u64,
}

impl ContainerView {
    /// Loads a container keeping events columnar. v4 bytes take the fast
    /// path (columns decoded in place, never expanded to owned events);
    /// v1–v3 bytes load through [`PinballContainer::from_bytes`] and are
    /// then packed into columns, so callers can treat every generation
    /// uniformly.
    ///
    /// # Errors
    ///
    /// As [`PinballContainer::from_bytes`]: any damaged frame is a typed
    /// [`PinballError::Chunk`]; an unsealed prefix is
    /// [`PinballError::Unsealed`].
    pub fn from_bytes(bytes: &[u8]) -> Result<ContainerView, PinballError> {
        if detect_version(bytes) != ContainerVersion::V4 {
            let c = PinballContainer::from_bytes(bytes)?;
            let events = Arc::new(EventColumns::from_events(&c.pinball.events));
            return Ok(ContainerView {
                meta: c.pinball.meta,
                snapshot: c.pinball.snapshot,
                syscalls: c.pinball.syscalls,
                exit: c.pinball.exit,
                events,
                checkpoints: c.checkpoints,
                checkpoint_interval: c.checkpoint_interval,
            });
        }

        // Strict v4 walk: header, dict, body frames, index, trailer.
        let mut pos = MAGIC_V4.len();
        let raw =
            peek_frame(bytes, pos, true).map_err(|e| chunk_err(0, peek_kind(bytes, pos), e))?;
        if raw.kind != KIND_HEADER {
            return Err(chunk_err(
                0,
                kind_of(raw.kind),
                "first frame is not the container header",
            ));
        }
        let payload =
            decode_payload(bytes, &raw).map_err(|e| chunk_err(0, ChunkKind::Header, e))?;
        let header: ContainerHeader = decode_by_codec(&payload, raw.codec)
            .map_err(|e| chunk_err(0, ChunkKind::Header, format!("bad header payload: {e}")))?;
        pos += raw.encoded_len;

        let raw =
            peek_frame(bytes, pos, true).map_err(|e| chunk_err(1, peek_kind(bytes, pos), e))?;
        if raw.kind != KIND_DICT {
            return Err(chunk_err(
                1,
                kind_of(raw.kind),
                "second frame is not the shared dictionary",
            ));
        }
        if raw.codec != Some(PayloadCodec::Binary.byte()) {
            return Err(chunk_err(
                1,
                ChunkKind::Dict,
                "dictionary frame carries a non-binary codec byte",
            ));
        }
        let dict = decode_payload(bytes, &raw).map_err(|e| chunk_err(1, ChunkKind::Dict, e))?;
        pos += raw.encoded_len;

        let mut events = EventColumns::new();
        let mut checkpoints: Vec<ReplayCheckpoint> = Vec::new();
        let mut chunk = 2usize;
        let index_frame_off;
        loop {
            if pos >= bytes.len() {
                return Err(PinballError::Unsealed {
                    events_recovered: events.len(),
                    events_expected: header.num_events as usize,
                });
            }
            let frame_off = pos;
            let raw = peek_frame(bytes, pos, true)
                .map_err(|e| chunk_err(chunk, peek_kind(bytes, pos), e))?;
            pos += raw.encoded_len;
            match raw.kind {
                KIND_EVENTS => {
                    let payload = decode_payload_with_dict(bytes, &raw, &dict)
                        .map_err(|e| chunk_err(chunk, ChunkKind::Events, e))?;
                    let cols = EventColumns::decode(&payload).map_err(|e| {
                        chunk_err(chunk, ChunkKind::Events, format!("bad events payload: {e}"))
                    })?;
                    events.extend_from(&cols);
                }
                KIND_CHECKPOINT => {
                    let payload = decode_payload(bytes, &raw)
                        .map_err(|e| chunk_err(chunk, ChunkKind::Checkpoint, e))?;
                    let cp = decode_by_codec(&payload, raw.codec).map_err(|e| {
                        chunk_err(
                            chunk,
                            ChunkKind::Checkpoint,
                            format!("bad checkpoint payload: {e}"),
                        )
                    })?;
                    checkpoints.push(cp);
                }
                KIND_INDEX => {
                    let payload = decode_payload(bytes, &raw)
                        .map_err(|e| chunk_err(chunk, ChunkKind::Index, e))?;
                    let _: Vec<IndexEntry> = decode_by_codec(&payload, raw.codec).map_err(|e| {
                        chunk_err(chunk, ChunkKind::Index, format!("bad index payload: {e}"))
                    })?;
                    index_frame_off = frame_off;
                    break;
                }
                other => {
                    return Err(chunk_err(
                        chunk,
                        kind_of(other),
                        format!("unexpected frame kind {other}"),
                    ));
                }
            }
            chunk += 1;
        }
        let trailer = &bytes[pos..];
        let trailer_ok = trailer.len() == 12
            && &trailer[8..] == TRAILER_MAGIC
            && u64::from_le_bytes(trailer[..8].try_into().expect("8-byte slice"))
                == index_frame_off as u64;
        if !trailer_ok {
            return Err(chunk_err(
                chunk,
                ChunkKind::Index,
                "bad trailer (index offset or magic mismatch)",
            ));
        }
        if events.len() as u64 != header.num_events {
            return Err(PinballError::Format(format!(
                "event count mismatch: header promises {}, chunks hold {}",
                header.num_events,
                events.len()
            )));
        }
        Ok(ContainerView {
            meta: header.meta,
            snapshot: header.snapshot,
            syscalls: header.syscalls,
            exit: header.exit,
            events: Arc::new(events),
            checkpoints,
            checkpoint_interval: header.checkpoint_interval.max(1),
        })
    }

    /// Number of events in the log.
    pub fn num_events(&self) -> usize {
        self.events.len()
    }

    /// The checkpoint with the greatest `instr` not exceeding `target`.
    pub fn nearest_checkpoint(&self, target: u64) -> Option<&ReplayCheckpoint> {
        self.checkpoints
            .iter()
            .take_while(|cp| cp.instr <= target)
            .last()
    }

    /// Builds a replayer that borrows this view's columns — no event copy.
    pub fn replayer(&self, program: Arc<Program>) -> Replayer {
        Replayer::from_parts(
            program,
            &self.snapshot,
            &self.syscalls,
            self.exit,
            EventLog::Columns(Arc::clone(&self.events)),
        )
    }

    /// The recording's content digest (identical to the digest of the
    /// owned container — digests are version- and layout-independent).
    pub fn digest(&self) -> PinballDigest {
        self.to_container().digest()
    }

    /// Materializes the owned [`PinballContainer`] (copies the events out
    /// of the columns — the compatibility path, not the hot one).
    pub fn to_container(&self) -> PinballContainer {
        PinballContainer {
            pinball: Pinball {
                meta: self.meta.clone(),
                snapshot: self.snapshot.clone(),
                events: self.events.to_events(),
                syscalls: self.syscalls.clone(),
                exit: self.exit,
            },
            checkpoints: self.checkpoints.clone(),
            checkpoint_interval: self.checkpoint_interval,
        }
    }
}

/// Positional-read helper: `pread` the exact byte range `[off, off+len)`.
fn pread(file: &File, off: u64, len: usize) -> Result<Vec<u8>, PinballError> {
    use std::os::unix::fs::FileExt;
    let mut buf = vec![0u8; len];
    file.read_exact_at(&mut buf, off)
        .map_err(|e| PinballError::Io(format!("pread {len} bytes at {off}: {e}")))?;
    Ok(buf)
}

/// Immutable facts shared by every handle onto one mapped container.
struct MappedInner {
    file: File,
    header: ContainerHeader,
    dict: Vec<u8>,
    /// Footer index entries in file order (including header/dict/index).
    index: Vec<IndexEntry>,
    /// Ordinals (into `index`) of the events frames, in file order.
    event_frames: Vec<usize>,
    /// End offset of the last body frame (= the index frame's offset), so
    /// the final events frame's byte length is known.
    index_off: u64,
}

impl fmt::Debug for MappedInner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MappedInner")
            .field("num_events", &self.header.num_events)
            .field("frames", &self.index.len())
            .field("event_frames", &self.event_frames.len())
            .finish()
    }
}

/// Byte range of frame ordinal `i`: the next index entry's offset (or the
/// index frame itself, for the last body frame) bounds it.
fn frame_range_in(index: &[IndexEntry], index_off: u64, i: usize) -> (u64, usize) {
    let start = index[i].offset;
    let end = index.get(i + 1).map(|e| e.offset).unwrap_or(index_off);
    (start, (end - start) as usize)
}

impl MappedInner {
    /// Byte range of frame ordinal `i` (from the index; the next entry's
    /// offset bounds it).
    fn frame_range(&self, i: usize) -> (u64, usize) {
        frame_range_in(&self.index, self.index_off, i)
    }

    /// Reads and decodes the checkpoint frame with ordinal `i` in the index.
    fn load_checkpoint_frame(&self, i: usize) -> Result<ReplayCheckpoint, PinballError> {
        let (off, len) = self.frame_range(i);
        let buf = pread(&self.file, off, len)?;
        let chunk = self.index[i].chunk;
        let raw =
            peek_frame(&buf, 0, true).map_err(|e| chunk_err(chunk, ChunkKind::Checkpoint, e))?;
        if raw.kind != KIND_CHECKPOINT {
            return Err(chunk_err(
                chunk,
                kind_of(raw.kind),
                "index entry does not point at a checkpoint frame",
            ));
        }
        let payload =
            decode_payload(&buf, &raw).map_err(|e| chunk_err(chunk, ChunkKind::Checkpoint, e))?;
        decode_by_codec(&payload, raw.codec).map_err(|e| {
            chunk_err(
                chunk,
                ChunkKind::Checkpoint,
                format!("bad checkpoint payload: {e}"),
            )
        })
    }

    /// Reads and decodes the events frame with ordinal `i` in the index.
    fn load_events_frame(&self, i: usize) -> Result<EventColumns, PinballError> {
        let (off, len) = self.frame_range(i);
        let buf = pread(&self.file, off, len)?;
        let chunk = self.index[i].chunk;
        let raw = peek_frame(&buf, 0, true).map_err(|e| chunk_err(chunk, ChunkKind::Events, e))?;
        if raw.kind != KIND_EVENTS || raw.codec != Some(PayloadCodec::Columnar.byte()) {
            return Err(chunk_err(
                chunk,
                kind_of(raw.kind),
                "index entry does not point at a columnar events frame",
            ));
        }
        let payload = decode_payload_with_dict(&buf, &raw, &self.dict)
            .map_err(|e| chunk_err(chunk, ChunkKind::Events, e))?;
        EventColumns::decode(&payload)
            .map_err(|e| chunk_err(chunk, ChunkKind::Events, format!("bad events payload: {e}")))
    }
}

/// A v4 container opened in paged mode: metadata is resident, events chunks
/// are read on demand. See the module docs for the I/O model.
#[derive(Debug, Clone)]
pub struct MappedContainer {
    inner: Arc<MappedInner>,
}

impl MappedContainer {
    /// Opens `path` in paged mode. Reads and validates the trailer, footer
    /// index, header frame, and shared dictionary; events chunks and
    /// checkpoints stay on disk until requested.
    ///
    /// # Errors
    ///
    /// [`PinballError::Io`] on filesystem errors, [`PinballError::Format`]
    /// for non-v4 files or a bad trailer, [`PinballError::Chunk`] for a
    /// damaged index, header, or dictionary frame.
    pub fn open(path: &Path) -> Result<MappedContainer, PinballError> {
        let file = File::open(path).map_err(|e| PinballError::Io(e.to_string()))?;
        let file_len = file
            .metadata()
            .map_err(|e| PinballError::Io(e.to_string()))?
            .len();
        let magic = pread(&file, 0, MAGIC_V4.len().min(file_len as usize))?;
        if detect_version(&magic) != ContainerVersion::V4 {
            return Err(PinballError::Format(
                "mapped loads require a v4 container (migrate older files first)".into(),
            ));
        }
        if file_len < 18 {
            return Err(PinballError::Format(
                "file too short for a v4 trailer".into(),
            ));
        }
        let trailer = pread(&file, file_len - 12, 12)?;
        if &trailer[8..] != TRAILER_MAGIC {
            return Err(PinballError::Format("bad trailer magic".into()));
        }
        let index_off = u64::from_le_bytes(trailer[..8].try_into().expect("8-byte slice"));
        if index_off >= file_len - 12 {
            return Err(PinballError::Format(
                "trailer index offset out of range".into(),
            ));
        }
        let index_buf = pread(&file, index_off, (file_len - 12 - index_off) as usize)?;
        let index: Vec<IndexEntry> = {
            let raw =
                peek_frame(&index_buf, 0, true).map_err(|e| chunk_err(0, ChunkKind::Index, e))?;
            if raw.kind != KIND_INDEX {
                return Err(chunk_err(
                    raw.kind as usize,
                    kind_of(raw.kind),
                    "trailer does not point at the index frame",
                ));
            }
            let payload =
                decode_payload(&index_buf, &raw).map_err(|e| chunk_err(0, ChunkKind::Index, e))?;
            decode_by_codec(&payload, raw.codec)
                .map_err(|e| chunk_err(0, ChunkKind::Index, format!("bad index payload: {e}")))?
        };
        // Structural sanity: entries in file order, header first, offsets
        // inside the body region.
        let body_ok = index.last().is_some_and(|e| e.kind == ChunkKind::Index)
            && index.first().is_some_and(|e| e.kind == ChunkKind::Header)
            && index.windows(2).all(|w| w[0].offset < w[1].offset)
            && index
                .iter()
                .take(index.len().saturating_sub(1))
                .all(|e| e.offset < index_off);
        if !body_ok {
            return Err(chunk_err(0, ChunkKind::Index, "inconsistent index entries"));
        }
        // Drop the self-referencing index entry; keep body frames only.
        let mut index = index;
        index.pop();

        // Header frame (ordinal 0).
        let (off, len) = frame_range_in(&index, index_off, 0);
        let buf = pread(&file, off, len)?;
        let raw = peek_frame(&buf, 0, true).map_err(|e| chunk_err(0, ChunkKind::Header, e))?;
        if raw.kind != KIND_HEADER {
            return Err(chunk_err(
                0,
                kind_of(raw.kind),
                "first frame is not the container header",
            ));
        }
        let payload = decode_payload(&buf, &raw).map_err(|e| chunk_err(0, ChunkKind::Header, e))?;
        let header: ContainerHeader = decode_by_codec(&payload, raw.codec)
            .map_err(|e| chunk_err(0, ChunkKind::Header, format!("bad header payload: {e}")))?;

        // Dict frame (ordinal 1).
        if index.len() < 2 || index[1].kind != ChunkKind::Dict {
            return Err(chunk_err(
                1,
                ChunkKind::Dict,
                "second frame is not the shared dictionary",
            ));
        }
        let (off, len) = frame_range_in(&index, index_off, 1);
        let buf = pread(&file, off, len)?;
        let raw = peek_frame(&buf, 0, true).map_err(|e| chunk_err(1, ChunkKind::Dict, e))?;
        if raw.kind != KIND_DICT || raw.codec != Some(PayloadCodec::Binary.byte()) {
            return Err(chunk_err(
                1,
                ChunkKind::Dict,
                "second frame is not a binary-coded shared dictionary",
            ));
        }
        let dict = decode_payload(&buf, &raw).map_err(|e| chunk_err(1, ChunkKind::Dict, e))?;

        let event_frames: Vec<usize> = index
            .iter()
            .enumerate()
            .filter(|(_, e)| e.kind == ChunkKind::Events)
            .map(|(i, _)| i)
            .collect();
        Ok(MappedContainer {
            inner: Arc::new(MappedInner {
                file,
                header,
                dict,
                index,
                event_frames,
                index_off,
            }),
        })
    }

    /// Descriptive metadata.
    pub fn meta(&self) -> &PinballMeta {
        &self.inner.header.meta
    }

    /// Architectural state at region entry.
    pub fn snapshot(&self) -> &Snapshot {
        &self.inner.header.snapshot
    }

    /// Recorded syscall results, per thread.
    pub fn syscalls(&self) -> &[Vec<i64>] {
        &self.inner.header.syscalls
    }

    /// How the region ended.
    pub fn exit(&self) -> RecordedExit {
        self.inner.header.exit
    }

    /// Events the header promises.
    pub fn num_events(&self) -> usize {
        self.inner.header.num_events as usize
    }

    /// Chunk cadence in retired instructions.
    pub fn checkpoint_interval(&self) -> u64 {
        self.inner.header.checkpoint_interval.max(1)
    }

    /// The shared dictionary size in bytes.
    pub fn dict_len(&self) -> usize {
        self.inner.dict.len()
    }

    /// A paged handle onto the event log, positioned at event 0.
    pub fn events(&self) -> MappedEvents {
        MappedEvents {
            inner: Arc::clone(&self.inner),
            bases: vec![0],
            cur: 0,
            cols: Arc::new(EventColumns::new()),
            loaded: false,
        }
    }

    /// Builds a replayer whose log pages in from the file on demand.
    pub fn replayer(&self, program: Arc<Program>) -> Replayer {
        Replayer::from_parts(
            program,
            &self.inner.header.snapshot,
            &self.inner.header.syscalls,
            self.inner.header.exit,
            EventLog::Mapped(self.events()),
        )
    }

    /// Reads the embedded checkpoint with the greatest `instr` not
    /// exceeding `target`, if any — one frame read, found via the footer
    /// index without touching any events chunk.
    ///
    /// # Errors
    ///
    /// Returns [`PinballError::Chunk`] when the chosen checkpoint frame is
    /// damaged, [`PinballError::Io`] on read errors.
    pub fn nearest_checkpoint(
        &self,
        target: u64,
    ) -> Result<Option<ReplayCheckpoint>, PinballError> {
        let best = self
            .inner
            .index
            .iter()
            .enumerate()
            .rfind(|(_, e)| e.kind == ChunkKind::Checkpoint && e.instr <= target);
        let Some((ordinal, _)) = best else {
            return Ok(None);
        };
        Ok(Some(self.inner.load_checkpoint_frame(ordinal)?))
    }

    /// Materializes the full owned container (reads every frame — the
    /// differential-testing path, not the production one).
    ///
    /// # Errors
    ///
    /// Any frame damage surfaces as the typed [`PinballError::Chunk`].
    pub fn to_container(&self) -> Result<PinballContainer, PinballError> {
        let mut events = EventColumns::new();
        for &i in &self.inner.event_frames {
            events.extend_from(&self.inner.load_events_frame(i)?);
        }
        if events.len() != self.num_events() {
            return Err(PinballError::Format(format!(
                "event count mismatch: header promises {}, chunks hold {}",
                self.num_events(),
                events.len()
            )));
        }
        let mut checkpoints = Vec::new();
        for (i, e) in self.inner.index.iter().enumerate() {
            if e.kind == ChunkKind::Checkpoint {
                checkpoints.push(self.inner.load_checkpoint_frame(i)?);
            }
        }
        Ok(PinballContainer {
            pinball: Pinball {
                meta: self.inner.header.meta.clone(),
                snapshot: self.inner.header.snapshot.clone(),
                events: events.to_events(),
                syscalls: self.inner.header.syscalls.clone(),
                exit: self.inner.header.exit,
            },
            checkpoints,
            checkpoint_interval: self.checkpoint_interval(),
        })
    }

    /// The recording's content digest (reads every events frame once).
    ///
    /// # Errors
    ///
    /// As [`MappedContainer::to_container`].
    pub fn digest(&self) -> Result<PinballDigest, PinballError> {
        Ok(self.to_container()?.digest())
    }
}

/// A paged handle onto a mapped container's event log: one decoded chunk
/// resident at a time, with chunk base indices discovered as the cursor
/// walks forward. Sequential access (replay) pages each chunk exactly
/// once; backward jumps reuse the discovered bases to land directly on the
/// right chunk.
#[derive(Debug, Clone)]
pub struct MappedEvents {
    inner: Arc<MappedInner>,
    /// `bases[k]` = first event index of events-chunk `k`; extended as
    /// chunks are visited (`bases.len() - 1` chunks fully discovered).
    bases: Vec<usize>,
    /// Ordinal (into `inner.event_frames`) of the resident chunk.
    cur: usize,
    /// The resident chunk's columns.
    cols: Arc<EventColumns>,
    /// Whether `cols` actually holds chunk `cur` (false until first use).
    loaded: bool,
}

impl MappedEvents {
    /// Events the header promises.
    pub fn len(&self) -> usize {
        self.inner.header.num_events as usize
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn load(&mut self, chunk: usize) {
        let frame = self.inner.event_frames[chunk];
        let cols = self
            .inner
            .load_events_frame(frame)
            .unwrap_or_else(|e| panic!("mapped events chunk {chunk} unreadable: {e}"));
        if chunk + 1 == self.bases.len() {
            // Newly discovered chunk: record where the next one starts.
            self.bases.push(self.bases[chunk] + cols.len());
        }
        self.cur = chunk;
        self.cols = Arc::new(cols);
        self.loaded = true;
    }

    /// Borrows event `i`, paging its chunk in if needed.
    ///
    /// # Panics
    ///
    /// Panics when `i >= self.len()`, or when the backing file has been
    /// damaged since [`MappedContainer::open`] validated its skeleton (a
    /// damaged chunk is unrecoverable mid-replay; fail loudly rather than
    /// diverge silently).
    pub fn get(&mut self, i: usize) -> EventRef<'_> {
        assert!(i < self.len(), "event index {i} out of range");
        if !self.loaded {
            self.load(0);
        }
        if i < self.bases[self.cur] {
            // Backward jump: binary-search the discovered bases.
            let chunk = match self.bases.binary_search(&i) {
                Ok(k) => k.min(self.bases.len() - 2),
                Err(k) => k - 1,
            };
            self.load(chunk);
        }
        // Walk forward until the resident chunk covers `i`.
        while i >= self.bases[self.cur] + self.cols.len() {
            let next = self.cur + 1;
            assert!(
                next < self.inner.event_frames.len(),
                "event index {i} beyond the last chunk ({} events found, header promises {})",
                self.bases[self.cur] + self.cols.len(),
                self.len()
            );
            self.load(next);
        }
        self.cols.get(i - self.bases[self.cur])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minivm::{assemble, LiveEnv, NullTool, RoundRobin};
    use std::sync::Arc;

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
            movi r3, 120
        loop:
            la r1, acc
            xadd r2, r1, r0
            subi r3, r3, 1
            bgti r3, 0, loop
            halt
        .endfunc
        ";

    fn record() -> (Arc<Program>, crate::Pinball) {
        let program = Arc::new(assemble(PROG).unwrap());
        let rec = record_whole_program(
            &program,
            &mut RoundRobin::new(5),
            &mut LiveEnv::new(9),
            1_000_000,
            "view-demo",
        )
        .unwrap();
        (program, rec.pinball)
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("pinplay-view-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn view_load_equals_owned_load() {
        let (program, pinball) = record();
        let c = PinballContainer::with_checkpoints(pinball, &program, 128);
        let bytes = c.to_bytes().unwrap();
        let view = ContainerView::from_bytes(&bytes).unwrap();
        assert_eq!(view.num_events(), c.pinball.events.len());
        assert_eq!(view.to_container(), c);
        assert_eq!(view.digest(), c.digest());
    }

    #[test]
    fn view_loads_older_formats_via_fallback() {
        let (_, pinball) = record();
        let v3 = PinballContainer::new(pinball.clone())
            .to_bytes_v3()
            .unwrap();
        let view = ContainerView::from_bytes(&v3).unwrap();
        assert_eq!(view.to_container().pinball, pinball);
    }

    #[test]
    fn view_replayer_matches_owned_replayer() {
        let (program, pinball) = record();
        let bytes = PinballContainer::new(pinball.clone()).to_bytes().unwrap();
        let view = ContainerView::from_bytes(&bytes).unwrap();
        let mut a = view.replayer(Arc::clone(&program));
        let mut b = Replayer::new(Arc::clone(&program), &pinball);
        assert_eq!(a.run(&mut NullTool), ReplayStatus::Completed);
        assert_eq!(b.run(&mut NullTool), ReplayStatus::Completed);
        assert_eq!(a.exec().snapshot(), b.exec().snapshot());
        assert_eq!(a.state_digest(), b.state_digest());
    }

    #[test]
    fn view_rejects_damage_with_typed_errors() {
        let (program, pinball) = record();
        let bytes = PinballContainer::with_checkpoints(pinball, &program, 128)
            .to_bytes()
            .unwrap();
        let mut bad = bytes.clone();
        let target = bytes.len() * 3 / 4;
        bad[target] ^= 0x20;
        assert!(matches!(
            ContainerView::from_bytes(&bad),
            Err(PinballError::Chunk { .. }) | Err(PinballError::Format(_))
        ));
    }

    #[test]
    fn mapped_load_equals_bytes_load() {
        let (program, pinball) = record();
        let c = PinballContainer::with_checkpoints(pinball, &program, 128);
        let path = temp_path("mapped-eq.pb");
        c.save(&path).unwrap();
        let mapped = PinballContainer::open_mapped(&path).unwrap();
        assert_eq!(mapped.num_events(), c.pinball.events.len());
        assert_eq!(mapped.meta(), &c.pinball.meta);
        assert_eq!(mapped.to_container().unwrap(), c);
        assert_eq!(mapped.digest().unwrap(), c.digest());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mapped_replay_matches_in_memory_replay() {
        let (program, pinball) = record();
        let c = PinballContainer::new(pinball.clone());
        let path = temp_path("mapped-replay.pb");
        c.save(&path).unwrap();
        let mapped = PinballContainer::open_mapped(&path).unwrap();
        let mut a = mapped.replayer(Arc::clone(&program));
        let mut b = Replayer::new(Arc::clone(&program), &pinball);
        assert_eq!(a.run(&mut NullTool), ReplayStatus::Completed);
        assert_eq!(b.run(&mut NullTool), ReplayStatus::Completed);
        assert_eq!(a.exec().snapshot(), b.exec().snapshot());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mapped_events_random_access_agrees_with_columns() {
        let (program, pinball) = record();
        let c = PinballContainer::with_checkpoints(pinball.clone(), &program, 64);
        let path = temp_path("mapped-random.pb");
        c.save(&path).unwrap();
        let mapped = PinballContainer::open_mapped(&path).unwrap();
        let mut ev = mapped.events();
        let n = pinball.events.len();
        // Forward walk, then backward jumps, then scattered probes.
        for i in 0..n {
            assert_eq!(ev.get(i).to_owned(), pinball.events[i]);
        }
        for i in (0..n).rev().step_by(7) {
            assert_eq!(ev.get(i).to_owned(), pinball.events[i]);
        }
        for i in [0, n / 2, n - 1, 1, n / 3] {
            assert_eq!(ev.get(i).to_owned(), pinball.events[i]);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mapped_checkpoint_fetch_matches_embedded() {
        let (program, pinball) = record();
        let c = PinballContainer::with_checkpoints(pinball, &program, 128);
        assert!(!c.checkpoints.is_empty());
        let path = temp_path("mapped-ckpt.pb");
        c.save(&path).unwrap();
        let mapped = PinballContainer::open_mapped(&path).unwrap();
        let target = c.checkpoints.last().unwrap().instr;
        let got = mapped.nearest_checkpoint(target).unwrap().unwrap();
        assert_eq!(&got, c.nearest_checkpoint(target).unwrap());
        assert!(mapped.nearest_checkpoint(0).unwrap().is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mapped_open_rejects_non_v4() {
        let (_, pinball) = record();
        let path = temp_path("mapped-v3.pb");
        std::fs::write(&path, PinballContainer::new(pinball).to_bytes_v3().unwrap()).unwrap();
        assert!(matches!(
            PinballContainer::open_mapped(&path),
            Err(PinballError::Format(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mapped_open_rejects_truncated_or_damaged_skeleton() {
        let (_, pinball) = record();
        let bytes = PinballContainer::new(pinball).to_bytes().unwrap();
        // Truncated trailer.
        let path = temp_path("mapped-trunc.pb");
        std::fs::write(&path, &bytes[..bytes.len() - 4]).unwrap();
        assert!(PinballContainer::open_mapped(&path).is_err());
        // Damaged index frame (flip a byte inside the index payload).
        let mut bad = bytes.clone();
        let idx_off =
            u64::from_le_bytes(bytes[bytes.len() - 12..bytes.len() - 4].try_into().unwrap())
                as usize;
        bad[idx_off + 8] ^= 0xff;
        std::fs::write(&path, &bad).unwrap();
        assert!(PinballContainer::open_mapped(&path).is_err());
        std::fs::remove_file(&path).ok();
    }
}
