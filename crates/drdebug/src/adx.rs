//! The PinADX-style debugger transport.
//!
//! In the paper the debugger is split across two processes: "The GDB
//! component communicates with the Pin-based component via PinADX, a
//! debugging extension of Pin" (§6, Fig. 10). This module reproduces that
//! architecture: the replay/slicing engine ([`DebugSession`]) runs on its
//! own thread behind a typed request/response protocol, and the front end
//! talks to it through an [`AdxClient`] — the same serialization boundary
//! PinADX places between gdb and the pintool, so a remote front end could
//! be substituted without touching the engine.

use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{bounded, Receiver, Sender};

use minivm::{Addr, Pc, Program, Reg, Tid};
use pinplay::{Pinball, PinballContainer};
use slicer::LocKey;

use crate::session::{DebugSession, RelogReport, StopReason};

/// Requests the front end sends to the engine.
#[derive(Debug, Clone)]
pub enum AdxRequest {
    /// Set a breakpoint; responds [`AdxResponse::Id`].
    AddBreakpoint {
        /// Program point.
        pc: Pc,
        /// Optional thread filter.
        tid: Option<Tid>,
    },
    /// Set a watchpoint; responds [`AdxResponse::Id`].
    AddWatchpoint {
        /// Watched address.
        addr: Addr,
    },
    /// Delete a breakpoint; responds [`AdxResponse::Ok`] or `Error`.
    DeleteBreakpoint {
        /// Id from `AddBreakpoint`.
        id: u32,
    },
    /// Continue the replay; responds [`AdxResponse::Stopped`].
    Continue,
    /// Step one instruction; responds [`AdxResponse::Stopped`].
    StepI,
    /// Step one instruction backwards; responds [`AdxResponse::Stopped`].
    ReverseStepI,
    /// Run backwards to the previous hit; responds [`AdxResponse::Stopped`].
    ReverseContinue,
    /// Restart the replay from the region entry; responds `Ok`.
    Restart,
    /// Read a register; responds [`AdxResponse::Value`].
    ReadReg {
        /// Thread.
        tid: Tid,
        /// Register.
        reg: Reg,
    },
    /// Read a memory word; responds [`AdxResponse::Value`].
    ReadMem {
        /// Address.
        addr: Addr,
    },
    /// List threads; responds [`AdxResponse::Threads`].
    Threads,
    /// Compute + save a slice at the failure point; responds
    /// [`AdxResponse::SliceSaved`].
    SliceFailure,
    /// Compute + save a slice for a location at the current stop; responds
    /// [`AdxResponse::SliceSaved`] or `Error`.
    SliceHere {
        /// The location to slice on.
        key: LocKey,
    },
    /// Build the slice pinball for a saved slice; responds
    /// [`AdxResponse::SlicePinball`].
    MakeSlicePinball {
        /// Saved-slice index.
        index: usize,
    },
    /// Relog a saved slice into a content-addressed v4 slice-pinball
    /// container with embedded checkpoints; responds
    /// [`AdxResponse::Relogged`] or `Error`.
    Relog {
        /// Saved-slice index.
        index: usize,
    },
    /// Shut the engine down; responds `Ok` and ends the thread.
    Shutdown,
}

/// Responses from the engine.
#[derive(Debug, Clone)]
pub enum AdxResponse {
    /// Generic success.
    Ok,
    /// An allocated id (breakpoint/watchpoint).
    Id(u32),
    /// The replay stopped.
    Stopped(StopReason),
    /// A register/memory value.
    Value(i64),
    /// Thread list: `(tid, pc, runnable)`.
    Threads(Vec<(Tid, Pc, bool)>),
    /// A slice was computed and saved: `(index, statement count)`.
    SliceSaved {
        /// Index for `MakeSlicePinball`.
        index: usize,
        /// Statement instances in the slice.
        len: usize,
    },
    /// The generated slice pinball.
    SlicePinball(Box<Pinball>),
    /// The relogged slice-pinball container and its summary (digest,
    /// instruction counts).
    Relogged {
        /// The v4 container: slice pinball plus embedded checkpoints.
        container: Box<PinballContainer>,
        /// Digest and kept/excluded accounting.
        report: RelogReport,
    },
    /// The request failed.
    Error(String),
}

/// The front-end handle: sends requests, receives responses.
#[derive(Debug)]
pub struct AdxClient {
    tx: Sender<AdxRequest>,
    rx: Receiver<AdxResponse>,
    engine: Option<JoinHandle<()>>,
}

impl AdxClient {
    /// Issues one request and waits for its response.
    ///
    /// # Panics
    ///
    /// Panics if the engine thread has died — a protocol violation, not a
    /// recoverable condition.
    pub fn request(&self, req: AdxRequest) -> AdxResponse {
        self.tx.send(req).expect("engine alive");
        self.rx.recv().expect("engine alive")
    }

    /// Convenience: `Continue` and unwrap the stop reason.
    pub fn cont(&self) -> StopReason {
        match self.request(AdxRequest::Continue) {
            AdxResponse::Stopped(s) => s,
            other => panic!("protocol violation: {other:?}"),
        }
    }

    /// Convenience: read a register value.
    pub fn read_reg(&self, tid: Tid, reg: Reg) -> i64 {
        match self.request(AdxRequest::ReadReg { tid, reg }) {
            AdxResponse::Value(v) => v,
            other => panic!("protocol violation: {other:?}"),
        }
    }

    /// Convenience: read a memory word.
    pub fn read_mem(&self, addr: Addr) -> i64 {
        match self.request(AdxRequest::ReadMem { addr }) {
            AdxResponse::Value(v) => v,
            other => panic!("protocol violation: {other:?}"),
        }
    }
}

impl Drop for AdxClient {
    fn drop(&mut self) {
        let _ = self.tx.send(AdxRequest::Shutdown);
        if let Some(h) = self.engine.take() {
            let _ = h.join();
        }
    }
}

/// Starts the engine thread over a bare pinball (no embedded checkpoints)
/// and returns the client. Prefer [`spawn_engine_container`] when the
/// pinball came from a container: its embedded checkpoints make reverse
/// execution and `seek` O(chunk) from the first command.
pub fn spawn_engine(program: Arc<Program>, pinball: Pinball) -> AdxClient {
    spawn_engine_container(program, PinballContainer::new(pinball))
}

/// Starts the engine thread over a chunked container and returns the
/// client. The engine session is seeded with the container's embedded
/// checkpoints, exactly like [`DebugSession::with_container`].
pub fn spawn_engine_container(program: Arc<Program>, container: PinballContainer) -> AdxClient {
    let (req_tx, req_rx) = bounded::<AdxRequest>(1);
    let (resp_tx, resp_rx) = bounded::<AdxResponse>(1);
    let engine = std::thread::spawn(move || {
        let mut session = DebugSession::with_container(program, container);
        while let Ok(req) = req_rx.recv() {
            let resp = handle(&mut session, &req);
            let shutdown = matches!(req, AdxRequest::Shutdown);
            if resp_tx.send(resp).is_err() {
                return;
            }
            if shutdown {
                return;
            }
        }
    });
    AdxClient {
        tx: req_tx,
        rx: resp_rx,
        engine: Some(engine),
    }
}

fn handle(session: &mut DebugSession, req: &AdxRequest) -> AdxResponse {
    match *req {
        AdxRequest::AddBreakpoint { pc, tid } => AdxResponse::Id(session.add_breakpoint(pc, tid)),
        AdxRequest::AddWatchpoint { addr } => AdxResponse::Id(session.add_watchpoint(addr)),
        AdxRequest::DeleteBreakpoint { id } => {
            if session.delete_breakpoint(id) {
                AdxResponse::Ok
            } else {
                AdxResponse::Error(format!("no breakpoint {id}"))
            }
        }
        AdxRequest::Continue => AdxResponse::Stopped(session.cont()),
        AdxRequest::StepI => AdxResponse::Stopped(session.stepi()),
        AdxRequest::ReverseStepI => AdxResponse::Stopped(session.reverse_stepi()),
        AdxRequest::ReverseContinue => AdxResponse::Stopped(session.reverse_continue()),
        AdxRequest::Restart => {
            session.restart();
            AdxResponse::Ok
        }
        AdxRequest::ReadReg { tid, reg } => AdxResponse::Value(session.read_reg(tid, reg)),
        AdxRequest::ReadMem { addr } => AdxResponse::Value(session.read_mem(addr)),
        AdxRequest::Threads => AdxResponse::Threads(session.threads()),
        AdxRequest::SliceFailure => match session.slice_failure() {
            Some(slice) => {
                let len = slice.len();
                let index = session.save_slice(slice);
                AdxResponse::SliceSaved { index, len }
            }
            None => AdxResponse::Error("empty trace".to_owned()),
        },
        AdxRequest::SliceHere { key } => match session.slice_here(key) {
            Some(slice) => {
                let len = slice.len();
                let index = session.save_slice(slice);
                AdxResponse::SliceSaved { index, len }
            }
            None => AdxResponse::Error("not stopped at a trace record".to_owned()),
        },
        AdxRequest::MakeSlicePinball { index } => {
            if index < session.saved_slices().len() {
                AdxResponse::SlicePinball(Box::new(session.make_slice_pinball(index)))
            } else {
                AdxResponse::Error(format!("no saved slice {index}"))
            }
        }
        AdxRequest::Relog { index } => {
            if index < session.saved_slices().len() {
                let (container, report) = session.relog_slice(index);
                AdxResponse::Relogged {
                    container: Box::new(container),
                    report,
                }
            } else {
                AdxResponse::Error(format!("no saved slice {index}"))
            }
        }
        AdxRequest::Shutdown => AdxResponse::Ok,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minivm::{assemble, LiveEnv, RoundRobin};
    use pinplay::record_whole_program;

    fn client() -> (Arc<minivm::Program>, AdxClient) {
        let program = Arc::new(
            assemble(
                r"
                .data
                x: .word 0
                .text
                .func main
                    movi r1, 5      ; 0
                    la r2, x        ; 1
                    store r1, r2, 0 ; 2
                    load r3, r2, 0  ; 3
                    addi r3, r3, 1  ; 4
                    halt            ; 5
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
            "adx-test",
        )
        .unwrap();
        let c = spawn_engine(Arc::clone(&program), rec.pinball);
        (program, c)
    }

    #[test]
    fn breakpoint_roundtrip_over_the_wire() {
        let (program, c) = client();
        let AdxResponse::Id(id) = c.request(AdxRequest::AddBreakpoint { pc: 2, tid: None }) else {
            panic!("expected id")
        };
        let stop = c.cont();
        assert_eq!(stop, StopReason::Breakpoint { id, tid: 0, pc: 2 });
        let x = program.symbol("x").unwrap();
        assert_eq!(c.read_mem(x), 5);
        assert_eq!(c.read_reg(0, Reg(1)), 5);
        assert_eq!(c.cont(), StopReason::ReplayEnd);
    }

    #[test]
    fn restart_and_reverse_over_the_wire() {
        let (_, c) = client();
        assert!(matches!(
            c.request(AdxRequest::StepI),
            AdxResponse::Stopped(_)
        ));
        assert!(matches!(
            c.request(AdxRequest::StepI),
            AdxResponse::Stopped(_)
        ));
        assert!(matches!(
            c.request(AdxRequest::ReverseStepI),
            AdxResponse::Stopped(StopReason::Stepped { pc: 0, .. })
        ));
        assert!(matches!(c.request(AdxRequest::Restart), AdxResponse::Ok));
        let AdxResponse::Threads(ts) = c.request(AdxRequest::Threads) else {
            panic!("expected thread list")
        };
        assert_eq!(ts.len(), 1);
    }

    #[test]
    fn slice_pipeline_over_the_wire() {
        let (_, c) = client();
        c.cont();
        let AdxResponse::SliceSaved { index, len } = c.request(AdxRequest::SliceFailure) else {
            panic!("expected slice")
        };
        assert!(len > 0);
        let AdxResponse::SlicePinball(pb) = c.request(AdxRequest::MakeSlicePinball { index })
        else {
            panic!("expected pinball")
        };
        assert!(pb.meta.is_slice);
        assert!(matches!(
            c.request(AdxRequest::MakeSlicePinball { index: 99 }),
            AdxResponse::Error(_)
        ));
    }

    #[test]
    fn relog_over_the_wire_is_content_addressed() {
        let (_, c) = client();
        c.cont();
        let AdxResponse::SliceSaved { index, .. } = c.request(AdxRequest::SliceFailure) else {
            panic!("expected slice")
        };
        let AdxResponse::Relogged { container, report } = c.request(AdxRequest::Relog { index })
        else {
            panic!("expected relogged container")
        };
        assert!(container.pinball.meta.is_slice);
        assert_eq!(container.digest(), report.digest);
        assert_eq!(report.instructions, report.kept);
        assert_eq!(
            report.kept + report.excluded,
            container.pinball.logged_instructions() + report.excluded,
        );
        assert!(matches!(
            c.request(AdxRequest::Relog { index: 99 }),
            AdxResponse::Error(_)
        ));
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        let (_, c) = client();
        assert!(matches!(
            c.request(AdxRequest::DeleteBreakpoint { id: 42 }),
            AdxResponse::Error(_)
        ));
    }
}
