//! # drdebug — deterministic replay based cyclic debugging with dynamic slicing
//!
//! The top of the tool-chain the DrDebug paper (CGO 2014) describes: an
//! interactive debugger that runs entirely off [pinballs](pinplay::Pinball).
//!
//! * [`session::DebugSession`] — replay-based debugging:
//!   breakpoints, stepping, state inspection, and `restart` for cyclic
//!   debugging with a repeatability guarantee (paper Fig. 2);
//! * [`commands::CommandInterpreter`] — the gdb-style
//!   command surface with the paper's new slicing commands;
//! * [`browse::SliceBrowser`] — backward navigation over the
//!   dynamic dependence graph (the KDbg GUI of paper Fig. 9);
//! * [`stepper::SliceStepper`] — forward stepping through an
//!   *execution slice* replayed from a slice pinball, "stepping from the
//!   execution of one statement in the slice to the next while examining
//!   the values of variables" (paper §4) — the capability the paper notes
//!   no other slicing tool provides.
//!
//! # Example: the whole workflow on a failing run
//!
//! ```
//! use std::sync::Arc;
//! use minivm::{assemble, LiveEnv, RoundRobin};
//! use pinplay::record_whole_program;
//! use drdebug::{CommandInterpreter, DebugSession};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = Arc::new(assemble(
//!     r"
//!     .text
//!     .func main
//!         movi r1, 1
//!         subi r1, r1, 1
//!         assert r1        ; fails
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
//! let mut dbg = CommandInterpreter::new(DebugSession::new(program, rec.pinball));
//! let out = dbg.execute("continue");
//! assert!(out.contains("trap reproduced"));
//! let out = dbg.execute("slice-failure");
//! assert!(out.contains("slice computed"));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod browse;
pub mod commands;
pub mod live;
pub mod session;
pub mod stepper;

pub use browse::{DepEdge, SliceBrowser};
pub use commands::CommandInterpreter;
pub use live::{LiveSession, LiveStop};
pub use session::{
    Breakpoint, DebugSession, RelogReport, SeekMetrics, StopReason, StopSite, Watchpoint,
};
pub use stepper::{SliceStep, SliceStepper};
