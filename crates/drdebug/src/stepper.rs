//! Stepping through an execution slice (paper §4, Fig. 4(c)).
//!
//! "Finally, the user can replay the execution slice using the slice
//! pinball. During this execution, breakpoints are automatically introduced
//! allowing the user to step from the execution of one statement in the
//! slice to the next. At each of these points, the user can examine the
//! program state." The paper stresses that no prior slicing tool supports
//! this: slices elsewhere are postmortem artifacts.
//!
//! The subtlety is instance numbering: in the slice replay, excluded
//! executions never happen, so the k-th execution of a pc corresponds to
//! the k-th *kept* execution in the region — which may be the region's
//! n-th. The stepper precomputes that mapping from the region trace, so it
//! can tell slice statements apart from instructions that were kept only
//! because they are synchronization/lifecycle operations.

use std::collections::HashMap;
use std::sync::Arc;

use minivm::{Pc, Program, Tid, ToolControl, VmError};
use pinplay::{Pinball, ReplayStatus, Replayer};
use slicer::{is_force_included, RecordId, Slice, SliceSession};

/// Where a slice step landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SliceStep {
    /// Stopped at a slice statement; the region-trace record id identifies
    /// it for cross-referencing with the slice browser.
    AtStatement {
        /// Executing thread.
        tid: Tid,
        /// Program point.
        pc: Pc,
        /// Region-trace record id of this statement instance.
        record: RecordId,
    },
    /// The slice replay finished.
    Finished,
    /// The recorded trap reproduced (the failure the slice explains).
    Trapped(VmError),
}

/// Replays a slice pinball, stopping at each slice statement.
pub struct SliceStepper {
    replayer: Replayer,
    /// The slice pinball, kept so the stepper can [`restart`](Self::restart)
    /// for another cyclic pass over the slice.
    pinball: Pinball,
    /// (tid, pc) -> kept executions in region order: (region record id,
    /// is-in-slice).
    kept: HashMap<(Tid, Pc), Vec<(RecordId, bool)>>,
    /// (tid, pc) -> how many times the slice replay has executed it.
    counts: HashMap<(Tid, Pc), u64>,
    program: Arc<Program>,
}

impl std::fmt::Debug for SliceStepper {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SliceStepper")
            .field("finished", &self.replayer.finished())
            .finish()
    }
}

impl SliceStepper {
    /// Creates a stepper over `slice_pinball`, using the region trace in
    /// `session` and the saved `slice` to recognise slice statements.
    pub fn new(session: &SliceSession, slice: &Slice, slice_pinball: &Pinball) -> SliceStepper {
        let program = Arc::clone(session.program());
        let mut kept: HashMap<(Tid, Pc), Vec<(RecordId, bool)>> = HashMap::new();
        // Region records in execution order per thread: the trace is the
        // retire order.
        for r in session.trace().records() {
            let in_slice = slice.records.contains(&r.id);
            if in_slice || is_force_included(r) {
                kept.entry((r.tid, r.pc))
                    .or_default()
                    .push((r.id, in_slice));
            }
        }
        SliceStepper {
            replayer: Replayer::new(Arc::clone(&program), slice_pinball),
            pinball: slice_pinball.clone(),
            kept,
            counts: HashMap::new(),
            program,
        }
    }

    /// Restarts the slice replay from the region entry — the cyclic
    /// debugging loop at slice granularity. The next [`step`](Self::step)
    /// stops at the first slice statement again, observing identical state.
    pub fn restart(&mut self) {
        self.replayer = Replayer::new(Arc::clone(&self.program), &self.pinball);
        self.counts.clear();
    }

    /// The program being replayed.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// Read access to the replayed state, for examining variables at each
    /// slice statement.
    pub fn exec(&self) -> &minivm::Executor {
        self.replayer.exec()
    }

    /// Runs to the next slice statement (the auto-inserted breakpoint).
    pub fn step(&mut self) -> SliceStep {
        let kept = &self.kept;
        let counts = &mut self.counts;
        let mut stop_at: Option<(Tid, Pc, RecordId)> = None;
        let mut tool = |ev: &minivm::InsEvent| {
            let c = counts.entry((ev.tid, ev.pc)).or_insert(0);
            *c += 1;
            let k = *c as usize - 1;
            match kept.get(&(ev.tid, ev.pc)).and_then(|v| v.get(k)) {
                Some(&(record, true)) => {
                    stop_at = Some((ev.tid, ev.pc, record));
                    ToolControl::Stop
                }
                _ => ToolControl::Continue,
            }
        };
        match self.replayer.run(&mut tool) {
            ReplayStatus::Paused => {
                let (tid, pc, record) = stop_at.expect("paused implies a slice statement");
                SliceStep::AtStatement { tid, pc, record }
            }
            ReplayStatus::Trapped(e) => SliceStep::Trapped(e),
            ReplayStatus::Completed => SliceStep::Finished,
        }
    }

    /// Collects the full itinerary: every slice statement in order, then
    /// the terminal condition. Convenience for tests and examples.
    pub fn walk(mut self) -> (Vec<(Tid, Pc, RecordId)>, SliceStep) {
        let mut stops = Vec::new();
        loop {
            match self.step() {
                SliceStep::AtStatement { tid, pc, record } => stops.push((tid, pc, record)),
                terminal => return (stops, terminal),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minivm::{assemble, LiveEnv, Reg, RoundRobin};
    use pinplay::record_whole_program;
    use slicer::{Criterion, SlicerOptions};

    #[test]
    fn stepper_visits_exactly_the_slice_statements() {
        let program = Arc::new(
            assemble(
                r"
                .text
                .func main
                    movi r1, 2      ; 0  in slice
                    movi r9, 50     ; 1  excluded
                    addi r9, r9, 1  ; 2  excluded
                    addi r2, r1, 3  ; 3  in slice
                    muli r9, r9, 2  ; 4  excluded
                    add  r3, r2, r1 ; 5  in slice (criterion)
                    halt            ; 6  force-included, not a slice stop
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
            "step-test",
        )
        .unwrap();
        let session = slicer::SliceSession::collect(
            Arc::clone(&program),
            &rec.pinball,
            SlicerOptions::default(),
        );
        let crit = session.last_at_pc(5).unwrap().id;
        let slice = session.slice(Criterion::Record { id: crit });
        let (slice_pb, _, _) = session.make_slice_pinball(&rec.pinball, &slice);

        let stepper = SliceStepper::new(&session, &slice, &slice_pb);
        let (stops, terminal) = stepper.walk();
        let pcs: Vec<Pc> = stops.iter().map(|&(_, pc, _)| pc).collect();
        assert_eq!(pcs, vec![0, 3, 5], "stops exactly at slice statements");
        assert_eq!(terminal, SliceStep::Finished);
    }

    #[test]
    fn values_observable_at_each_stop() {
        let program = Arc::new(
            assemble(
                r"
                .text
                .func main
                    movi r1, 10    ; 0
                    movi r9, 1     ; 1 excluded
                    addi r1, r1, 5 ; 2
                    halt           ; 3
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
            "step-values",
        )
        .unwrap();
        let session = slicer::SliceSession::collect(
            Arc::clone(&program),
            &rec.pinball,
            SlicerOptions::default(),
        );
        let crit = session.last_at_pc(2).unwrap().id;
        let slice = session.slice(Criterion::Record { id: crit });
        let (slice_pb, _, _) = session.make_slice_pinball(&rec.pinball, &slice);

        let mut stepper = SliceStepper::new(&session, &slice, &slice_pb);
        // First stop: after movi r1, 10.
        let s1 = stepper.step();
        assert!(matches!(s1, SliceStep::AtStatement { pc: 0, .. }));
        assert_eq!(stepper.exec().read_reg(0, Reg(1)), 10);
        // Second stop: after addi.
        let s2 = stepper.step();
        assert!(matches!(s2, SliceStep::AtStatement { pc: 2, .. }));
        assert_eq!(stepper.exec().read_reg(0, Reg(1)), 15);
        assert_eq!(stepper.step(), SliceStep::Finished);
    }
}
