//! The slice-pinball emitter against the replaying relogger, byte for byte.
//!
//! The debugger emits a slice pinball from the trace slicing already
//! collected ([`slicer::emit_slice_pinball`], behind
//! [`SliceSession::make_slice_pinball`]). The paper's relogger,
//! [`pinplay::relog`], replays the region pinball under the slice's
//! [`exclusion_regions`] instead, and it is the reference: for every case
//! below the emitted pinball must equal the relogged one by value, by v4
//! bytes and by digest, with equal `RelogStats` and `ExclusionStats`.
//!
//! The inputs cover what the emitter derives rather than replays:
//!
//! * both committed corpus fixtures — fig8 retires `read` syscalls,
//!   pbzip2 traps;
//! * the Table 1 bug exposures (Aget, pbzip2, mozilla), whose traps land
//!   on tid 0 or tid 1, over their buggy and whole-program regions;
//! * PARSEC skip/length regions, which start from a mid-execution
//!   snapshot, under several schedules;
//! * the 112k-record four-thread churn.
//!
//! Each input is sliced at its first, middle and last record and its
//! quartiles (and the churn at its criterion), and relogged under an
//! empty slice, where only
//! force-included records stay. The test counts its cases and requires
//! the two hard ones to occur: a trapping thread whose excluded run is
//! still open when the region ends, and a slice pinball whose kept and
//! excluded records both retire syscalls.

use std::sync::Arc;

use bench::corpus::{corpus_dir, corpus_program};
use bench::exp::{churn_parts, record_bug_region};
use minivm::{Instr, LiveEnv, Program, RandomSched, RoundRobin, Scheduler};
use pinplay::{record_region, Pinball, PinballContainer, RecordedExit, RegionSpec};
use slicer::{
    compute_slice_indexed, exclusion_regions, is_force_included, slice_members_indexed, Criterion,
    DepIndex, Slice, SliceOptions, SliceSession, SliceStats, SlicerOptions,
};

/// What the cases covered.
#[derive(Debug, Default)]
struct Tally {
    /// Slices checked.
    cases: usize,
    /// Cases whose trapping thread's excluded run is open at the end.
    open_trap_runs: usize,
    /// Cases where kept and excluded records both retire syscalls.
    mixed_syscalls: usize,
}

/// Checks one slice: the emitter against the relogger, and the tallies.
fn check(tally: &mut Tally, name: &str, session: &SliceSession, pinball: &Pinball, slice: &Slice) {
    let trace = session.trace();
    let (regions, excl_stats) = exclusion_regions(trace, slice);
    let (want, relog_stats) = pinplay::relog(Arc::clone(session.program()), pinball, &regions);
    let (got, got_relog, got_excl) = session.make_slice_pinball(pinball, slice);
    let what = format!("{name}, slice of {:?}", slice.criterion);
    assert!(
        got == want,
        "{what}: emitted pinball differs from the relog"
    );
    assert!(
        got.to_bytes().expect("encodes") == want.to_bytes().expect("encodes"),
        "{what}: v4 bytes differ"
    );
    assert_eq!(got.digest(), want.digest(), "{what}: digests differ");
    assert_eq!(got_relog, relog_stats, "{what}: RelogStats differ");
    assert_eq!(got_excl, excl_stats, "{what}: ExclusionStats differ");

    let in_slice = slice.members(trace.records().len());
    let kept = |r: &slicer::TraceRecord| in_slice[r.id as usize] || is_force_included(r);
    tally.cases += 1;
    if matches!(pinball.exit, RecordedExit::Trap(_)) {
        let last = trace
            .record(trace.records().len() as u64 - 1)
            .expect("a trapped trace is not empty");
        if !kept(last) {
            tally.open_trap_runs += 1;
        }
    }
    let sys = |keep: bool| {
        trace
            .records()
            .iter()
            .any(|r| matches!(r.instr, Instr::Sys { .. }) && kept(r) == keep)
    };
    if sys(true) && sys(false) {
        tally.mixed_syscalls += 1;
    }
}

/// Collects `pinball` and checks the slices at its first, last and
/// quartile records, at `extra`, and the empty slice. The index walk's bitmap must
/// hold exactly the materialized slice's records.
fn check_recording(
    tally: &mut Tally,
    name: &str,
    program: &Arc<Program>,
    pinball: &Pinball,
    options: SlicerOptions,
    extra: &[Criterion],
) {
    let session = SliceSession::collect(Arc::clone(program), pinball, options);
    let n = session.trace().records().len();
    assert!(n > 0, "{name}: empty trace");
    let index = DepIndex::build(session.trace(), session.pairs(), &SliceOptions::default());
    let spread = [0, n / 4, n / 2, 3 * n / 4, n - 1].map(|id| Criterion::Record { id: id as u64 });
    for &criterion in spread.iter().chain(extra) {
        let slice = compute_slice_indexed(&index, criterion);
        assert_eq!(
            slice_members_indexed(&index, criterion),
            slice.members(n),
            "{name}: walk bitmap vs materialized slice at {criterion:?}"
        );
        check(tally, name, &session, pinball, &slice);
    }
    let empty = Slice {
        criterion: Criterion::Record { id: 0 },
        records: Default::default(),
        data_edges: Vec::new(),
        control_edges: Vec::new(),
        stats: SliceStats::default(),
    };
    check(
        tally,
        &format!("{name} (empty slice)"),
        &session,
        pinball,
        &empty,
    );
}

#[test]
fn emitted_slice_pinballs_equal_the_replaying_relogger() {
    let mut tally = Tally::default();

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
        check_recording(
            &mut tally,
            &format!("corpus {name}"),
            &program,
            &pinball,
            SlicerOptions::default(),
            &[],
        );
    }

    for case in workloads::all_bugs() {
        for (region, label) in [
            (case.buggy_region(), "buggy region"),
            (case.whole_region(), "whole program"),
        ] {
            let rec = record_bug_region(&case, region);
            assert!(
                matches!(rec.recording.pinball.exit, RecordedExit::Trap(_)),
                "{} exposes its bug",
                case.name
            );
            let name = format!("{} {label}", case.name);
            let pinball = &rec.recording.pinball;
            check_recording(
                &mut tally,
                &name,
                &case.program,
                pinball,
                SlicerOptions::default(),
                &[],
            );
        }
    }

    for p in workloads::all_parsec()
        .into_iter()
        .filter(|p| ["blackscholes", "canneal", "streamcluster"].contains(&p.name))
    {
        let (skip, length) = (2_000, 6_000);
        let program = (p.build)(workloads::units_for_main_instructions(
            skip + length + length / 2 + 1_000,
        ));
        for schedule in 0..3 {
            let (label, mut sched): (&str, Box<dyn Scheduler>) = match schedule {
                0 => ("round-robin 17", Box::new(RoundRobin::new(17))),
                1 => ("round-robin 3", Box::new(RoundRobin::new(3))),
                _ => ("random", Box::new(RandomSched::new(11, 6))),
            };
            let rec = record_region(
                &program,
                sched.as_mut(),
                &mut LiveEnv::new(42),
                RegionSpec::skip_length(skip, length),
                (skip + length) * 12 + 1_000_000,
                p.name,
            )
            .expect("region records");
            let name = format!("{} under {label}", p.name);
            let pinball = &rec.pinball;
            check_recording(
                &mut tally,
                &name,
                &program,
                pinball,
                SlicerOptions::default(),
                &[],
            );
        }
    }

    let (pinball, session, criterion) = churn_parts(4_000, SlicerOptions::default());
    assert!(
        session.trace().records().len() >= 100_000,
        "churn is ~112k records"
    );
    let program = Arc::clone(session.program());
    drop(session);
    check_recording(
        &mut tally,
        "churn",
        &program,
        &pinball,
        SlicerOptions::default(),
        &[criterion],
    );

    println!("{tally:?}");
    assert!(tally.cases >= 100, "too few cases: {tally:?}");
    assert!(
        tally.open_trap_runs > 0,
        "no case leaves a trapping thread's excluded run open: {tally:?}"
    );
    assert!(
        tally.mixed_syscalls > 0,
        "no case retires syscalls in both kept and excluded records: {tally:?}"
    );
}
