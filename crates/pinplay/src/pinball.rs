//! The pinball: the on-disk artifact of a recorded execution region.
//!
//! As in PinPlay (paper §1), a pinball bundles everything needed to replay a
//! program region deterministically: the initial architectural state and the
//! non-deterministic events — the thread schedule (which fixes the shared
//! memory access order, since the VM is sequentially consistent) and all
//! syscall results. Slice pinballs additionally contain [`ReplayEvent::Skip`]
//! entries that teleport a thread over an excluded code region while
//! injecting the region's side effects (paper §4, Fig. 6).
//!
//! Pinballs are "small enough to be portable" (paper §7); ours serialize to
//! JSON and are LZSS-compressed by [`pinzip`] — since v2 as a chunked,
//! CRC-checked container (see [`container`](crate::container)) whose frames
//! fail independently and can embed replay checkpoints for O(chunk) seeks.

use std::fmt;
use std::path::Path;

use serde::{Deserialize, Serialize};

use minivm::{Addr, Pc, Reg, Snapshot, Tid, VmError};

/// One entry of a pinball's replay log.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReplayEvent {
    /// Thread `tid` retires `steps` instructions.
    Run {
        /// Scheduled thread.
        tid: Tid,
        /// Number of instructions to retire.
        steps: u64,
    },
    /// Thread `tid` skips an excluded code region: its pc is forced to
    /// `to_pc` and the region's *register* side effects are injected
    /// (paper Fig. 6(b)). Registers are thread-private, so restoring them
    /// at the span boundary is always safe.
    Skip {
        /// Thread whose region is skipped.
        tid: Tid,
        /// First pc *after* the excluded region (the region's end marker).
        to_pc: Pc,
        /// Register side effects of the skipped code.
        regs: Vec<(Reg, i64)>,
    },
    /// Memory side effects of excluded code, injected *in place*: the
    /// relogger emits these at the excluded writes' original positions in
    /// the global order, so included reads of other threads observe
    /// exactly the values they observed during the region replay
    /// (write-after-read hazards stay correct).
    Inject {
        /// `(address, value)` writes, in recorded order.
        mems: Vec<(Addr, i64)>,
    },
}

/// How the recorded region ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RecordedExit {
    /// All threads halted inside the region.
    AllHalted,
    /// The region ended at a trap (e.g. the bug's crash/assertion).
    Trap(VmError),
    /// The region end trigger fired with threads still live.
    RegionEnd,
}

/// Descriptive metadata carried by a pinball.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PinballMeta {
    /// Name of the recorded program.
    pub program: String,
    /// Human-readable description of the recorded region.
    pub region: String,
    /// Whether this is a slice pinball produced by the relogger.
    pub is_slice: bool,
}

/// A recorded execution region, replayable deterministically.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Pinball {
    /// Descriptive metadata.
    pub meta: PinballMeta,
    /// Architectural state at region entry.
    pub snapshot: Snapshot,
    /// The replay log: schedule runs and (for slice pinballs) skips.
    pub events: Vec<ReplayEvent>,
    /// Recorded syscall results, per thread id, in issue order.
    pub syscalls: Vec<Vec<i64>>,
    /// How the region ended.
    pub exit: RecordedExit,
}

impl Pinball {
    /// The pinball's content digest — see
    /// [`PinballDigest`](crate::PinballDigest).
    pub fn digest(&self) -> crate::PinballDigest {
        crate::container::digest_pinball(self)
    }

    /// Total instructions the replay log retires.
    pub fn logged_instructions(&self) -> u64 {
        run_steps(&self.events)
    }

    /// Number of schedule switches (adjacent `Run` entries always have
    /// different tids).
    pub fn context_switches(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, ReplayEvent::Run { .. }))
            .count()
            .saturating_sub(1)
    }

    /// Serializes the pinball in the chunked v4 container format (the bytes
    /// written by [`Pinball::save`]) without embedded checkpoints — use
    /// [`PinballContainer::with_checkpoints`](crate::PinballContainer) to
    /// add those. Equal to
    /// [`PinballContainer::new`](crate::PinballContainer::new)`(pinball).to_bytes()`.
    ///
    /// # Errors
    ///
    /// Infallible in practice; the `Result` keeps the signature every
    /// caller already handles.
    pub fn to_bytes(&self) -> Result<Vec<u8>, PinballError> {
        Ok(crate::container::write_container_v4(
            self,
            &[],
            crate::container::DEFAULT_CHECKPOINT_INTERVAL,
        )
        .0)
    }

    /// Deserializes a pinball, auto-detecting the container magic (v4, v3
    /// or v2) and falling back to the v1 single-blob format. Embedded
    /// checkpoints are dropped — load a
    /// [`PinballContainer`](crate::PinballContainer) to keep them.
    ///
    /// # Errors
    ///
    /// Returns [`PinballError`] when decompression, a chunk checksum, or
    /// deserialization fails.
    pub fn from_bytes(bytes: &[u8]) -> Result<Pinball, PinballError> {
        if crate::container::has_container_magic(bytes) {
            return Ok(crate::container::PinballContainer::from_bytes(bytes)?.pinball);
        }
        Pinball::from_bytes_v1(bytes)
    }

    /// Deserializes a legacy v1 single-blob pinball.
    ///
    /// # Errors
    ///
    /// Returns [`PinballError`] when decompression or deserialization fails.
    pub fn from_bytes_v1(bytes: &[u8]) -> Result<Pinball, PinballError> {
        let json = pinzip::decompress(bytes).map_err(PinballError::Decompress)?;
        serde_json::from_slice(&json).map_err(|e| PinballError::Format(e.to_string()))
    }

    /// Compressed on-disk size in bytes (the paper's "Space (MB)" metric):
    /// the length of [`Pinball::to_bytes`].
    ///
    /// # Errors
    ///
    /// As [`Pinball::to_bytes`].
    pub fn size_bytes(&self) -> Result<usize, PinballError> {
        Ok(self.to_bytes()?.len())
    }

    /// Writes the pinball to a file.
    ///
    /// # Errors
    ///
    /// Returns [`PinballError::Io`] on filesystem errors and
    /// [`PinballError::Serialize`] on encoding errors.
    pub fn save(&self, path: &Path) -> Result<(), PinballError> {
        std::fs::write(path, self.to_bytes()?).map_err(|e| PinballError::Io(e.to_string()))
    }

    /// Reads a pinball from a file.
    ///
    /// # Errors
    ///
    /// Returns [`PinballError`] on filesystem, decompression, or format
    /// errors.
    pub fn load(path: &Path) -> Result<Pinball, PinballError> {
        let bytes = std::fs::read(path).map_err(|e| PinballError::Io(e.to_string()))?;
        Pinball::from_bytes(&bytes)
    }
}

/// Instructions a run of replay events retires: the sum of its `Run`
/// steps.
pub(crate) fn run_steps(events: &[ReplayEvent]) -> u64 {
    events
        .iter()
        .map(|e| match e {
            ReplayEvent::Run { steps, .. } => *steps,
            ReplayEvent::Skip { .. } | ReplayEvent::Inject { .. } => 0,
        })
        .sum()
}

/// Errors loading or saving pinballs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PinballError {
    /// Filesystem error (message from `std::io::Error`).
    Io(String),
    /// The pinball could not be serialized.
    Serialize(String),
    /// The compressed container is corrupt (v1 single-blob path).
    Decompress(pinzip::DecodeError),
    /// The decompressed payload is not a valid pinball.
    Format(String),
    /// A specific frame of a chunked container (v2–v4) is damaged. Chunks
    /// before it are intact and recoverable via
    /// [`PinballContainer::from_bytes_lossy`](crate::PinballContainer::from_bytes_lossy).
    Chunk {
        /// Frame ordinal in the file (0 = header frame).
        chunk: usize,
        /// What the damaged frame holds.
        kind: crate::container::ChunkKind,
        /// Why it could not be read.
        reason: String,
    },
    /// The container is a valid but *unsealed* prefix: every frame present
    /// verifies, yet the footer index frame and `PBIX` trailer are missing
    /// — a stream still being written, or an upload killed before
    /// [`StreamWriter::footer`](crate::StreamWriter::footer) was appended.
    /// Unlike [`PinballError::Chunk`] nothing is damaged; the prefix
    /// replays deterministically via
    /// [`PinballContainer::from_bytes_lossy`](crate::PinballContainer::from_bytes_lossy)
    /// or a [`StreamReader`](crate::StreamReader).
    Unsealed {
        /// Events recovered from the intact prefix.
        events_recovered: usize,
        /// Events the header promises for the sealed container.
        events_expected: usize,
    },
}

impl fmt::Display for PinballError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PinballError::Io(e) => write!(f, "pinball i/o error: {e}"),
            PinballError::Serialize(e) => write!(f, "pinball serialize error: {e}"),
            PinballError::Decompress(e) => write!(f, "pinball decompress error: {e}"),
            PinballError::Format(e) => write!(f, "pinball format error: {e}"),
            PinballError::Chunk {
                chunk,
                kind,
                reason,
            } => {
                write!(
                    f,
                    "pinball container chunk {chunk} ({kind}) damaged: {reason}"
                )
            }
            PinballError::Unsealed {
                events_recovered,
                events_expected,
            } => {
                write!(
                    f,
                    "pinball container is unsealed: missing footer index frame and PBIX \
                     trailer ({events_recovered}/{events_expected} events present)"
                )
            }
        }
    }
}

impl std::error::Error for PinballError {}

/// Run-length accumulator turning per-instruction scheduling decisions into
/// compact [`ReplayEvent::Run`] entries.
#[derive(Debug, Default)]
pub struct ScheduleBuilder {
    events: Vec<ReplayEvent>,
    // Address → slot in the currently-open `Inject` event (the log's last
    // event). Valid only while that event stays last; `inject` rebuilds it
    // whenever a new `Inject` run opens.
    inject_slots: std::collections::HashMap<Addr, usize>,
}

impl ScheduleBuilder {
    /// Creates an empty builder.
    pub fn new() -> ScheduleBuilder {
        ScheduleBuilder::default()
    }

    /// Records that `tid` retired one instruction.
    pub fn step(&mut self, tid: Tid) {
        if let Some(ReplayEvent::Run { tid: t, steps }) = self.events.last_mut() {
            if *t == tid {
                *steps += 1;
                return;
            }
        }
        self.events.push(ReplayEvent::Run { tid, steps: 1 });
    }

    /// Appends a skip event (relogger only).
    pub fn skip(&mut self, tid: Tid, to_pc: Pc, regs: Vec<(Reg, i64)>) {
        self.events.push(ReplayEvent::Skip { tid, to_pc, regs });
    }

    /// Appends a memory injection at the current position, merging into a
    /// preceding `Inject` when possible (relogger only).
    ///
    /// Consecutive injections with no intervening schedule entry are
    /// unobservable individually — no included instruction runs between
    /// them — so a repeated address overwrites its earlier slot instead of
    /// growing the event: each `Inject` carries at most one (final) value
    /// per address, keeping slice pinballs proportional to the *locations*
    /// excluded code touched, not the writes it performed.
    pub fn inject(&mut self, addr: Addr, value: i64) {
        if let Some(ReplayEvent::Inject { mems }) = self.events.last_mut() {
            if let Some(&slot) = self.inject_slots.get(&addr) {
                mems[slot] = (addr, value);
            } else {
                self.inject_slots.insert(addr, mems.len());
                mems.push((addr, value));
            }
            return;
        }
        self.inject_slots.clear();
        self.inject_slots.insert(addr, 0);
        self.events.push(ReplayEvent::Inject {
            mems: vec![(addr, value)],
        });
    }

    /// Finishes the log.
    pub fn finish(self) -> Vec<ReplayEvent> {
        self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minivm::{Memory, ThreadState};

    fn sample_pinball() -> Pinball {
        let mut mem = Memory::new();
        mem.write(0x1000, 42);
        Pinball {
            meta: PinballMeta {
                program: "demo".into(),
                region: "whole".into(),
                is_slice: false,
            },
            snapshot: Snapshot {
                threads: vec![ThreadState::new(0, 0)],
                memory: mem,
                output_len: 0,
            },
            events: vec![
                ReplayEvent::Run { tid: 0, steps: 10 },
                ReplayEvent::Run { tid: 1, steps: 3 },
            ],
            syscalls: vec![vec![7, 8], vec![]],
            exit: RecordedExit::AllHalted,
        }
    }

    #[test]
    fn bytes_roundtrip() {
        let p = sample_pinball();
        let bytes = p.to_bytes().unwrap();
        let q = Pinball::from_bytes(&bytes).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn v1_blob_autodetects_and_loads() {
        // The committed v1 and v4 saves of one recording (see
        // tests/fixtures/README.md) load as the same pinball.
        let v1 = Pinball::from_bytes(include_bytes!("../tests/fixtures/fuzz_v1.drpb")).unwrap();
        let v4 = Pinball::from_bytes(include_bytes!("../tests/fixtures/fuzz_v4.drpb")).unwrap();
        assert_eq!(v1, v4, "legacy blobs auto-detect and load");
    }

    #[test]
    fn file_roundtrip() {
        let p = sample_pinball();
        let dir = std::env::temp_dir().join("pinplay-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.pb");
        p.save(&path).unwrap();
        let q = Pinball::load(&path).unwrap();
        assert_eq!(p, q);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_bytes_reports_error() {
        assert!(matches!(
            Pinball::from_bytes(&[1, 2, 3]),
            Err(PinballError::Decompress(_)) | Err(PinballError::Format(_))
        ));
    }

    #[test]
    fn logged_instruction_count() {
        let p = sample_pinball();
        assert_eq!(p.logged_instructions(), 13);
        assert_eq!(p.context_switches(), 1);
    }

    #[test]
    fn schedule_builder_run_length_encodes() {
        let mut b = ScheduleBuilder::new();
        for tid in [0, 0, 0, 1, 1, 0] {
            b.step(tid);
        }
        b.inject(0x1000, 1);
        b.inject(0x1001, 2);
        b.skip(1, 9, vec![(Reg(2), 5)]);
        let events = b.finish();
        assert_eq!(events.len(), 5);
        assert_eq!(events[0], ReplayEvent::Run { tid: 0, steps: 3 });
        assert_eq!(events[1], ReplayEvent::Run { tid: 1, steps: 2 });
        assert_eq!(events[2], ReplayEvent::Run { tid: 0, steps: 1 });
        assert_eq!(
            events[3],
            ReplayEvent::Inject {
                mems: vec![(0x1000, 1), (0x1001, 2)]
            },
            "consecutive injections merge"
        );
        assert!(matches!(
            events[4],
            ReplayEvent::Skip {
                tid: 1,
                to_pc: 9,
                ..
            }
        ));
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = Pinball::load(Path::new("/nonexistent/definitely/missing.pb")).unwrap_err();
        assert!(matches!(err, PinballError::Io(_)));
    }
}
