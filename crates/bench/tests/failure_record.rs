//! The failure point without a collection.
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

use std::sync::Arc;

use bench::corpus::{corpus_dir, corpus_program};
use bench::exp::{record_bug_region, record_parsec_region};
use drdebug::DebugSession;
use minivm::Program;
use pinplay::{Pinball, PinballContainer};
use slicer::{Criterion, SliceOptions};

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

#[test]
fn failure_record_id_is_the_collected_failure_record() {
    for name in ["fig8", "pbzip2"] {
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
