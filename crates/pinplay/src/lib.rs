//! # pinplay — deterministic record/replay for the mini-VM
//!
//! A from-scratch reproduction of the PinPlay workflow the DrDebug paper
//! (CGO 2014) builds on:
//!
//! * the [`logger`] fast-forwards to an [execution region](region::RegionSpec)
//!   and captures a [`Pinball`]: the initial architectural snapshot plus all
//!   non-deterministic events (thread schedule and syscall results);
//! * the [`replay::Replayer`] re-executes a pinball exactly —
//!   same heap/stack contents, same syscall outcomes, same thread
//!   interleaving, run after run (the repeatability guarantee cyclic
//!   debugging relies on);
//! * the [relogger](relog::relog) replays a region pinball while *excluding*
//!   code regions, producing a smaller *slice pinball* whose replay skips
//!   the excluded code entirely and injects its side effects (paper §4).
//!   It is the reference for the slicer's emitter, which writes the same
//!   slice pinball from a collected trace without replaying.
//!
//! # Example: record, then replay twice, identically
//!
//! ```
//! use std::sync::Arc;
//! use minivm::{assemble, LiveEnv, NullTool, RoundRobin};
//! use pinplay::{record_whole_program, Replayer};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = Arc::new(assemble(
//!     r"
//!     .text
//!     .func main
//!         rand r1          ; non-deterministic!
//!         print r1
//!         halt
//!     .endfunc
//!     ",
//! )?);
//! let rec = record_whole_program(
//!     &program,
//!     &mut RoundRobin::new(8),
//!     &mut LiveEnv::new(7),
//!     10_000,
//!     "example",
//! )?;
//! let replay = |pb| {
//!     let mut r = Replayer::new(Arc::clone(&program), pb);
//!     r.run(&mut NullTool);
//!     r.exec().output().to_vec()
//! };
//! assert_eq!(replay(&rec.pinball), replay(&rec.pinball));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod columns;
pub mod container;
pub mod logger;
pub mod pinball;
pub mod region;
pub mod relog;
pub mod replay;
pub mod stream;

pub use columns::{ColumnSizes, EventColumns};
pub use container::{
    detect_version, inspect, migrate, ChunkKind, ContainerReport, ContainerVersion, FrameReport,
    LossyLoad, PayloadCodec, PinballContainer, PinballDigest, ReplayCheckpoint,
    DEFAULT_CHECKPOINT_INTERVAL, MAGIC, MAGIC_V3, MAGIC_V4,
};
pub use logger::{record_region, record_whole_program, LogError, Recording};
pub use pinball::{Pinball, PinballError, PinballMeta, RecordedExit, ReplayEvent, ScheduleBuilder};
pub use region::{EndTrigger, EndWatch, RegionSpec, StartTrigger, StartWatch};
pub use relog::{relog, ExclusionRegion, RelogStats};
pub use replay::{ReplayStatus, Replayer, SeekOutcome};
pub use stream::{StreamReader, StreamWriter};
