//! Slice files (paper §4).
//!
//! "To enable generation of the slice pinball, we output a special slice
//! file which, in addition to the normal slice file, also identifies the
//! exclusion code regions." A [`SliceFile`] is that artifact: the slice's
//! statement instances and dependence edges (the *normal* part, which the
//! GUI browses) plus the per-thread exclusion regions (the *special* part,
//! which the relogger consumes). Saving a slice to disk is what makes it
//! reusable "across multiple debug sessions" without re-collecting.

use std::fmt;
use std::path::Path;

use serde::{Deserialize, Serialize};

use minivm::{Pc, Tid};
use pinplay::ExclusionRegion;

use crate::slice::{Criterion, DataEdge, Slice, SliceStats};
use crate::trace::RecordId;

/// Magic bytes opening a binser-encoded slice file. Legacy slice files
/// (compressed JSON) have no magic and are auto-detected by its absence.
pub const SLICE_MAGIC: &[u8; 6] = b"DRSF1\n";

/// A statement instance of the slice, self-describing (usable without the
/// original trace in memory).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SliceStatement {
    /// Record id in the region trace.
    pub id: RecordId,
    /// Executing thread.
    pub tid: Tid,
    /// Program point.
    pub pc: Pc,
    /// Region-relative instance count.
    pub instance: u64,
    /// Source line (0 when unknown).
    pub line: u32,
    /// Disassembled instruction text.
    pub text: String,
}

/// The on-disk slice artifact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SliceFile {
    /// Program name (matches the pinball metadata).
    pub program: String,
    /// The criterion the slice was computed for.
    pub criterion: Criterion,
    /// Statement instances, in execution (retire, ascending id) order.
    pub statements: Vec<SliceStatement>,
    /// Data-dependence edges.
    pub data_edges: Vec<DataEdge>,
    /// Control-dependence edges (dependent → branch).
    pub control_edges: Vec<(RecordId, RecordId)>,
    /// The exclusion code regions for the relogger (the "special" part).
    pub exclusions: Vec<ExclusionRegion>,
}

impl SliceFile {
    /// Builds the artifact from a computed slice and its trace context.
    pub fn build(
        program_name: &str,
        slice: &Slice,
        trace: &crate::global::GlobalTrace,
        exclusions: Vec<ExclusionRegion>,
    ) -> SliceFile {
        let mut statements: Vec<SliceStatement> = slice
            .records
            .iter()
            .filter_map(|&id| {
                let r = trace.record(id)?;
                Some(SliceStatement {
                    id,
                    tid: r.tid,
                    pc: r.pc,
                    instance: r.instance,
                    line: r.line,
                    text: r.instr.to_string(),
                })
            })
            .collect();
        statements.sort_unstable_by_key(|s| s.id);
        SliceFile {
            program: program_name.to_owned(),
            criterion: slice.criterion,
            statements,
            data_edges: slice.data_edges.clone(),
            control_edges: slice.control_edges.clone(),
            exclusions,
        }
    }

    /// Reconstructs an in-memory [`Slice`] (without traversal statistics)
    /// for browsing against the same trace.
    pub fn to_slice(&self) -> Slice {
        Slice {
            criterion: self.criterion,
            records: self.statements.iter().map(|s| s.id).collect(),
            data_edges: self.data_edges.clone(),
            control_edges: self.control_edges.clone(),
            stats: SliceStats::default(),
        }
    }

    /// Serializes the slice file: the [`SLICE_MAGIC`] prefix, then the
    /// LZSS-compressed [`pinzip::binser`] encoding — the same binary
    /// record codec the v3 pinball container and the drserve wire use.
    pub fn to_bytes(&self) -> Vec<u8> {
        let payload = pinzip::binser::to_vec(self);
        let compressed = pinzip::compress(&payload);
        let mut out = Vec::with_capacity(SLICE_MAGIC.len() + compressed.len());
        out.extend_from_slice(SLICE_MAGIC);
        out.extend_from_slice(&compressed);
        out
    }

    /// Deserializes a slice file, auto-detecting the format: bytes opening
    /// with [`SLICE_MAGIC`] decode as compressed binser; anything else
    /// takes the legacy path (compressed JSON, the pre-magic format).
    ///
    /// # Errors
    ///
    /// Returns [`SliceFileError`] on corrupt input.
    pub fn from_bytes(bytes: &[u8]) -> Result<SliceFile, SliceFileError> {
        if let Some(rest) = bytes.strip_prefix(SLICE_MAGIC) {
            let payload = pinzip::decompress(rest).map_err(|e| SliceFileError(e.to_string()))?;
            return pinzip::binser::from_slice(&payload).map_err(|e| SliceFileError(e.to_string()));
        }
        let json = pinzip::decompress(bytes).map_err(|e| SliceFileError(e.to_string()))?;
        serde_json::from_slice(&json).map_err(|e| SliceFileError(e.to_string()))
    }

    /// Writes the slice file to disk.
    ///
    /// # Errors
    ///
    /// Returns [`SliceFileError`] on i/o failure.
    pub fn save(&self, path: &Path) -> Result<(), SliceFileError> {
        std::fs::write(path, self.to_bytes()).map_err(|e| SliceFileError(e.to_string()))
    }

    /// Reads a slice file from disk.
    ///
    /// # Errors
    ///
    /// Returns [`SliceFileError`] on i/o failure or corrupt content.
    pub fn load(path: &Path) -> Result<SliceFile, SliceFileError> {
        let bytes = std::fs::read(path).map_err(|e| SliceFileError(e.to_string()))?;
        SliceFile::from_bytes(&bytes)
    }
}

/// Error loading or saving a slice file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SliceFileError(String);

impl fmt::Display for SliceFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "slice file error: {}", self.0)
    }
}

impl std::error::Error for SliceFileError {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use minivm::{assemble, LiveEnv, RoundRobin};
    use pinplay::record_whole_program;

    use crate::collect::{SliceSession, SlicerOptions};

    fn session_and_slice() -> (SliceSession, Slice) {
        let program = Arc::new(
            assemble(
                r"
                .text
                .func main
                    movi r1, 2
                    movi r9, 7
                    addi r2, r1, 3
                    halt
                .endfunc
                ",
            )
            .unwrap(),
        );
        let rec = record_whole_program(
            &program,
            &mut RoundRobin::new(8),
            &mut LiveEnv::new(0),
            10_000,
            "slicefile-test",
        )
        .unwrap();
        let session =
            SliceSession::collect(Arc::clone(&program), &rec.pinball, SlicerOptions::default());
        let crit = session.last_at_pc(2).unwrap().id;
        let slice = session.slice(Criterion::Record { id: crit });
        (session, slice)
    }

    #[test]
    fn build_and_roundtrip() {
        let (session, slice) = session_and_slice();
        let (exclusions, _) = session.exclusion_regions(&slice);
        let sf = SliceFile::build("demo", &slice, session.trace(), exclusions.clone());
        assert_eq!(sf.statements.len(), slice.len());
        assert_eq!(sf.exclusions, exclusions);

        let bytes = sf.to_bytes();
        let back = SliceFile::from_bytes(&bytes).unwrap();
        assert_eq!(back, sf);
    }

    #[test]
    fn statements_in_execution_order_with_text() {
        let (session, slice) = session_and_slice();
        let sf = SliceFile::build("demo", &slice, session.trace(), Vec::new());
        assert!(sf.statements.windows(2).all(|w| w[0].id < w[1].id));
        assert!(sf.statements.iter().any(|s| s.text.contains("movi r1, 2")));
    }

    #[test]
    fn to_slice_reconstructs_membership() {
        let (session, slice) = session_and_slice();
        let (exclusions, _) = session.exclusion_regions(&slice);
        let sf = SliceFile::build("demo", &slice, session.trace(), exclusions);
        let back = sf.to_slice();
        assert_eq!(back.records, slice.records);
        assert_eq!(back.data_edges, slice.data_edges);
    }

    #[test]
    fn file_roundtrip() {
        let (session, slice) = session_and_slice();
        let sf = SliceFile::build("demo", &slice, session.trace(), Vec::new());
        let dir = std::env::temp_dir().join("slicer-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("demo.slice");
        sf.save(&path).unwrap();
        let back = SliceFile::load(&path).unwrap();
        assert_eq!(back, sf);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_bytes_rejected() {
        assert!(SliceFile::from_bytes(&[9, 9, 9]).is_err());
        // A magic prefix followed by garbage must also fail typed.
        let mut bad = SLICE_MAGIC.to_vec();
        bad.extend_from_slice(&[9, 9, 9]);
        assert!(SliceFile::from_bytes(&bad).is_err());
    }

    #[test]
    fn legacy_json_slice_files_still_load() {
        let (session, slice) = session_and_slice();
        let (exclusions, _) = session.exclusion_regions(&slice);
        let sf = SliceFile::build("demo", &slice, session.trace(), exclusions);
        // The pre-magic format: LZSS over the JSON encoding.
        let legacy = pinzip::compress(&serde_json::to_vec(&sf).unwrap());
        assert!(!legacy.starts_with(SLICE_MAGIC));
        assert_eq!(SliceFile::from_bytes(&legacy).unwrap(), sf);
        // And the current format is both tagged and smaller.
        let current = sf.to_bytes();
        assert!(current.starts_with(SLICE_MAGIC));
        assert_eq!(SliceFile::from_bytes(&current).unwrap(), sf);
    }
}
