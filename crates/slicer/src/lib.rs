//! # slicer — replay-integrated dynamic slicing for multi-threaded programs
//!
//! The primary contribution of the DrDebug paper (CGO 2014), reproduced over
//! the mini-VM substrate:
//!
//! * [`collect`] — replays a region pinball and gathers per-thread def/use
//!   traces (paper §3 step i) in the replay's retire order, which is the
//!   fully ordered [`global::GlobalTrace`]: it honours program order,
//!   spawn order and shared-memory access order by construction (step
//!   ii), and a record's position is its id;
//! * [`slice`](mod@slice) — the slice types and the naive backward
//!   traversal of the global trace (step iii), the oracle the index is
//!   tested against;
//! * [`index`] — the dependence index: the full dynamic dependence graph
//!   the DrDebug GUI lets users navigate, built once per `(GlobalTrace,
//!   SliceOptions)` in one forward sweep, answering every slice criterion
//!   with a pure BFS (the cyclic-debugging hot path);
//! * [`control`] — dynamic control dependences via the Xin–Zhang online
//!   algorithm over a CFG refined with observed indirect-jump targets
//!   (§5.1's precision fix);
//! * [`pairs`] — save/restore pair detection and the §5.2 spurious-
//!   dependence bypass;
//! * [`regions`] — the slice → code-exclusion-region builder, and the
//!   emitter that writes the *slice pinball*, whose replay skips
//!   everything outside the slice (§4), straight from the collected trace:
//!   the same pinball PinPlay-style relogging ([`pinplay::relog()`])
//!   produces by replaying the region, without the replay.
//!
//! One traversal answers every slice: [`DepIndex`] +
//! [`compute_slice_indexed`], Zhang et al.'s full-preprocessing algorithm.
//! [`compute_slice_naive`], a full backward scan, is its oracle and
//! returns identical slices. The paper's Limited Preprocessing scan is
//! not reproduced: in retire order every one of its blocks holds every
//! thread's records, so it skipped no block and did the oracle's work.
//!
//! # Example: slice a failing assertion
//!
//! ```
//! use std::sync::Arc;
//! use minivm::{assemble, LiveEnv, RoundRobin};
//! use pinplay::record_whole_program;
//! use slicer::{Criterion, SliceSession, SlicerOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = Arc::new(assemble(
//!     r"
//!     .text
//!     .func main
//!         movi r1, 1      ; relevant
//!         movi r9, 7      ; irrelevant
//!         subi r1, r1, 1
//!         assert r1       ; fails: r1 == 0
//!     .endfunc
//!     ",
//! )?);
//! let rec = record_whole_program(
//!     &program,
//!     &mut RoundRobin::new(8),
//!     &mut LiveEnv::new(0),
//!     10_000,
//!     "doc",
//! )?;
//! let session = SliceSession::collect(Arc::clone(&program), &rec.pinball, SlicerOptions::default());
//! let failure = session.failure_record().expect("trace not empty").id;
//! let slice = session.slice(Criterion::Record { id: failure });
//! assert_eq!(slice.len(), 3); // movi r1 / subi / assert — not movi r9
//! # Ok(())
//! # }
//! ```

pub mod collect;
pub mod control;
pub mod global;
pub mod index;
pub mod metrics;
pub mod pairs;
pub mod regions;
pub mod slice;
pub mod slicefile;
pub mod trace;

pub use collect::{SliceSession, SlicerOptions};
pub use control::ControlTracker;
pub use global::GlobalTrace;
pub use index::{compute_slice_indexed, slice_members_indexed, DepIndex, IndexBuildStats};
pub use metrics::{SliceMetrics, StageMetrics};
pub use pairs::{PairCandidates, PairDetector};
pub use regions::{
    emit_slice_pinball, exclusion_regions, is_force_included, ExclusionStats, OPEN_END_PC,
};
pub use slice::{compute_slice_naive, Criterion, DataEdge, Slice, SliceOptions, SliceStats};
pub use slicefile::{SliceFile, SliceFileError, SliceStatement, SLICE_MAGIC};
pub use trace::{LocKey, RecordId, TraceRecord};
