//! The failure point and the stop point without a collection.
//!
//! `DebugSession::failure_record_id` names the failure record from the
//! pinball alone: the last instruction its replay retires, whose id is
//! `logged_instructions() - 1`. It must equal the last record of the
//! collected trace (`SliceSession::failure_record`) on every kind of
//! pinball the debugger and the server open, and asking for it must not
//! collect the trace. The inputs: both committed corpus fixtures, the
//! Table 1 bug exposures (traps on tid 0 and tid 1), a PARSEC region
//! that starts from a mid-execution snapshot, and the slice pinball of
//! each one's failure slice.
//!
//! `DebugSession::record_at_stop` likewise names the record of a stop
//! from the stop's retire sequence number. At breakpoint stops on the
//! corpus fixtures and a PARSEC region it must equal the record a search
//! of the collected trace finds for the stop's `(tid, pc, instance)`,
//! and asking for it must not collect the trace.

use std::sync::Arc;

use bench::corpus::{corpus_dir, corpus_program};
use bench::exp::{record_bug_region, record_parsec_region};
use drdebug::{DebugSession, StopReason};
use minivm::Program;
use pinplay::{Pinball, PinballContainer};
use slicer::{Criterion, GlobalTrace, RecordId, SliceOptions, SliceSession, SlicerOptions};

/// Checks one pinball and then the slice pinball of its failure slice.
fn check(name: &str, program: &Arc<Program>, pinball: Pinball) {
    let mut session = DebugSession::new(Arc::clone(program), pinball);
    let id = session.failure_record_id();
    assert!(
        session.slicer_ref().is_none(),
        "{name}: the failure id needs no collection"
    );
    assert_eq!(
        id,
        session.slicer().failure_record().map(|r| r.id),
        "{name}: the last retired instruction is the trace's failure record"
    );
    let id = id.expect("a recorded region retires instructions");
    let (slice_pinball, _) =
        session.relog_criterion(Criterion::Record { id }, SliceOptions::default());
    let mut sliced = DebugSession::with_container(Arc::clone(program), slice_pinball);
    let id = sliced.failure_record_id();
    assert!(
        sliced.slicer_ref().is_none(),
        "{name} [slice]: no collection"
    );
    assert_eq!(
        id,
        sliced.slicer().failure_record().map(|r| r.id),
        "{name} [slice]"
    );
}

/// The program and pinball of a committed corpus fixture.
fn corpus_fixture(name: &str) -> (Arc<Program>, Pinball) {
    let dir = corpus_dir().join(name);
    let state = std::fs::read_to_string(dir.join("state.txt")).expect("state.txt");
    let case = state
        .lines()
        .find_map(|l| l.strip_prefix("case="))
        .expect("case line");
    let program = corpus_program(case).expect("known corpus case");
    let bytes = std::fs::read(dir.join("pinball.drpb")).expect("fixture container");
    let pinball = PinballContainer::from_bytes(&bytes)
        .expect("fixture parses")
        .pinball;
    (program, pinball)
}

/// The id of the record a search of `trace` finds for the session's stop.
fn searched_stop(trace: &GlobalTrace, session: &DebugSession) -> Option<RecordId> {
    let site = session.stopped_at()?;
    trace
        .rfind(|r| r.tid == site.tid && r.pc == site.pc && r.instance == site.instance)
        .map(|r| r.id)
}

/// Stops fresh sessions at breakpoints on the pcs of records a quarter,
/// half and three quarters into the region (each thread-filtered, hit up
/// to three times), and checks every stop's `record_at_stop`.
fn check_stops(name: &str, program: &Arc<Program>, pinball: Pinball) {
    let reference = SliceSession::collect(Arc::clone(program), &pinball, SlicerOptions::default());
    let records = reference.trace().records();
    let n = records.len();
    for at in [n / 4, n / 2, 3 * n / 4] {
        let (tid, pc) = (records[at].tid, records[at].pc);
        let mut session = DebugSession::new(Arc::clone(program), pinball.clone());
        session.add_breakpoint(pc, Some(tid));
        let mut stops = 0;
        while stops < 3 && matches!(session.cont(), StopReason::Breakpoint { .. }) {
            stops += 1;
            let id = session.record_at_stop();
            assert!(
                session.slicer_ref().is_none(),
                "{name} (pc {pc}, tid {tid}): the stop's record needs no collection"
            );
            assert!(id.is_some(), "{name} (pc {pc}, tid {tid}): stopped");
            assert_eq!(
                id,
                searched_stop(reference.trace(), &session),
                "{name} (pc {pc}, tid {tid}), stop {stops}"
            );
        }
        assert!(stops > 0, "{name}: breakpoint at pc {pc} on tid {tid} hits");
        let id = session.record_at_stop();
        session.slicer();
        let own = session.slicer_ref().expect("collected above").trace();
        let searched = searched_stop(own, &session);
        assert_eq!(
            id, searched,
            "{name} (pc {pc}, tid {tid}): the session's own trace agrees"
        );
    }
}

#[test]
fn record_at_stop_is_the_searched_record_without_a_collection() {
    for name in ["fig8", "pbzip2"] {
        let (program, pinball) = corpus_fixture(name);
        check_stops(&format!("corpus {name}"), &program, pinball);
    }
    let canneal = workloads::all_parsec()
        .into_iter()
        .find(|p| p.name == "canneal")
        .expect("canneal analog");
    let rr = record_parsec_region(&canneal, 1_000, 3_000);
    check_stops("canneal region", &rr.program, rr.recording.pinball);
}

#[test]
fn failure_record_id_is_the_collected_failure_record() {
    for name in ["fig8", "pbzip2"] {
        let (program, pinball) = corpus_fixture(name);
        check(&format!("corpus {name}"), &program, pinball);
    }

    for case in workloads::all_bugs() {
        let rec = record_bug_region(&case, case.buggy_region());
        check(
            &format!("{} buggy region", case.name),
            &case.program,
            rec.recording.pinball,
        );
    }

    let canneal = workloads::all_parsec()
        .into_iter()
        .find(|p| p.name == "canneal")
        .expect("canneal analog");
    let rr = record_parsec_region(&canneal, 1_000, 3_000);
    check("canneal region", &rr.program, rr.recording.pinball);
}
