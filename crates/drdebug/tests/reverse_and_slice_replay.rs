//! Differential and property tests for the pillar-4 loop: relogged slice
//! pinballs replay exactly the slice statements, and reverse execution is
//! the exact inverse of forward execution.

use std::collections::BTreeSet;
use std::sync::Arc;

use minivm::{assemble, LiveEnv, Pc, RoundRobin};
use pinplay::{record_whole_program, PinballContainer};
use proptest::prelude::*;

use drdebug::stepper::{SliceStep, SliceStepper};
use drdebug::{DebugSession, StopReason};
use slicer::{
    compute_slice_indexed, Criterion, DepIndex, LocKey, SliceOptions, SliceSession, SlicerOptions,
};

/// Two racing workers bump a shared accumulator and churn an unrelated
/// `junk` chain the slice must exclude.
const MT_PROG: &str = r"
    .data
    acc: .word 0
    junk: .word 0
    .text
    .func main
        movi r1, 1
        spawn r2, worker, r1
        movi r1, 2
        spawn r3, worker, r1
        join r2
        join r3
        la r1, acc
        load r4, r1, 0   ; pc 7: the slice criterion reads acc
        halt
    .endfunc
    .func worker
        movi r3, 12
    loop:
        la r1, acc
        xadd r2, r1, r3
        la r4, junk
        load r5, r4, 0
        addi r5, r5, 3
        store r5, r4, 0
        subi r3, r3, 1
        bgti r3, 0, loop
        halt
    .endfunc
    ";

fn record_mt(quantum: u64, seed: u64) -> (Arc<minivm::Program>, pinplay::Pinball) {
    let program = Arc::new(assemble(MT_PROG).unwrap());
    let rec = record_whole_program(
        &program,
        &mut RoundRobin::new(quantum),
        &mut LiveEnv::new(seed),
        1_000_000,
        "reverse-slice-test",
    )
    .unwrap();
    (program, rec.pinball)
}

/// Stepping the slice pinball visits exactly the statements
/// `compute_slice_indexed` put in the slice — same record-id set, same
/// pc set — on a multi-threaded region with excluded side-effect chains.
#[test]
fn slice_pinball_steps_exactly_the_indexed_slice_statements() {
    let (program, pinball) = record_mt(7, 42);
    let session = SliceSession::collect(Arc::clone(&program), &pinball, SlicerOptions::default());
    let criterion = Criterion::Record {
        id: session.last_at_pc(7).expect("acc read executed").id,
    };
    let opts = SliceOptions::default();
    let index = DepIndex::build(session.trace(), session.pairs(), &opts);
    let slice = compute_slice_indexed(&index, criterion);
    assert!(!slice.records.is_empty());

    let (slice_pb, relog_stats, excl_stats) = session.make_slice_pinball(&pinball, &slice);
    assert!(excl_stats.excluded > 0, "junk chain must be excluded");
    assert_eq!(relog_stats.included, slice_pb.logged_instructions());

    let stepper = SliceStepper::new(&session, &slice, &slice_pb);
    let (stops, terminal) = stepper.walk();
    assert_eq!(terminal, SliceStep::Finished);

    let visited_records: BTreeSet<_> = stops.iter().map(|&(_, _, id)| id).collect();
    let slice_records: BTreeSet<_> = slice.records.iter().copied().collect();
    assert_eq!(
        visited_records, slice_records,
        "slice replay stops at exactly the slice statement instances"
    );

    let visited_pcs: BTreeSet<Pc> = stops.iter().map(|&(_, pc, _)| pc).collect();
    let slice_pcs: BTreeSet<Pc> = slice.pcs(session.trace()).into_iter().collect();
    assert_eq!(visited_pcs, slice_pcs, "same pc set as the indexed slice");
}

/// The same equality must hold when the slice pinball comes out of the
/// debugger's relog path (v3 container with embedded checkpoints) and is
/// replayed as a fresh `DebugSession`.
#[test]
fn relogged_container_replays_only_kept_instructions() {
    let (program, pinball) = record_mt(7, 42);
    let container = PinballContainer::with_checkpoints(pinball, &program, 64);
    let mut s = DebugSession::with_container(Arc::clone(&program), container);
    s.cont();
    let slice = s.slice_failure().expect("trace nonempty");
    let idx = s.save_slice(slice);
    let (slice_container, report) = s.relog_slice(idx);
    assert_eq!(slice_container.digest(), report.digest);
    assert_eq!(report.kept, slice_container.pinball.logged_instructions());
    assert!(report.excluded > 0);

    // The relogged container opens as an ordinary session and replays to
    // completion in exactly `kept` instructions.
    let mut sliced = DebugSession::with_container(Arc::clone(&program), slice_container);
    assert_eq!(sliced.cont(), StopReason::ReplayEnd);
    assert_eq!(sliced.position(), report.kept);
}

/// `relog_criterion` takes the slice as a bitmap from the index walk and
/// builds no `Slice`; relogging the saved, materialized slice at the same
/// criterion must give an equal container and an equal report. Checked on
/// a cold session, whose relog builds and caches the index, and on a warm
/// one, at the failure point and at other record and value criteria.
#[test]
fn relog_criterion_matches_relog_of_the_saved_slice() {
    for (quantum, seed) in [(7, 42), (3, 5), (11, 1)] {
        let (program, pinball) = record_mt(quantum, seed);
        let probe = SliceSession::collect(Arc::clone(&program), &pinball, SlicerOptions::default());
        let n = probe.trace().records().len() as u64;
        let failure = probe.failure_record().expect("trace nonempty").id;
        let read = probe.last_at_pc(7).expect("acc read executed").id;
        let acc = program.symbol("acc").expect("acc symbol");
        let criteria = [
            Criterion::Record { id: failure },
            Criterion::Record { id: read },
            Criterion::Value {
                id: read,
                key: LocKey::Mem(acc),
            },
            Criterion::Record { id: n / 3 },
            Criterion::Record { id: 0 },
        ];
        let opts = SliceOptions::default();
        for criterion in criteria {
            let at = format!("quantum {quantum}, seed {seed}, {criterion:?}");

            // Cold: the relog is the session's first request.
            let mut cold = DebugSession::new(Arc::clone(&program), pinball.clone());
            let relogged = cold.relog_criterion(criterion, opts.clone());
            assert!(
                cold.dep_index().is_some(),
                "{at}: the relog cached its index"
            );
            let slice = cold.slice_criterion(criterion, opts.clone());
            assert_eq!(
                cold.last_slice_warm_index(),
                Some(true),
                "{at}: the slice reuses the relog's index"
            );
            let saved = cold.save_slice(slice);
            assert_eq!(relogged, cold.relog_slice(saved), "{at}: cold session");

            // Warm: slice first, then relog both ways.
            let mut warm = DebugSession::new(Arc::clone(&program), pinball.clone());
            let slice = warm.slice_criterion(criterion, opts.clone());
            let saved = warm.save_slice(slice);
            let from_slice = warm.relog_slice(saved);
            assert_eq!(
                warm.relog_criterion(criterion, opts.clone()),
                from_slice,
                "{at}: warm session"
            );
            assert_eq!(from_slice, relogged, "{at}: cold and warm sessions agree");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Forward/reverse inversion on randomized multi-threaded programs:
    /// `reverse_step` after `run_steps(n)` lands on the state hash of step
    /// `n - 1`, and walking all the way back reproduces every recorded
    /// hash.
    #[test]
    fn reverse_step_inverts_run_steps(
        quantum in 1u64..16,
        seed in 0u64..1024,
        prefix in 1u64..60,
    ) {
        let (program, pinball) = record_mt(quantum, seed);
        let total = pinball.logged_instructions();
        let container = PinballContainer::with_checkpoints(pinball, &program, 32);
        let mut s = DebugSession::with_container(program, container);
        s.set_checkpoint_interval(16);

        let n = prefix.min(total);
        let mut hashes = vec![s.state_hash()];
        for _ in 0..n {
            s.run_steps(1);
            hashes.push(s.state_hash());
        }
        prop_assert_eq!(s.position(), n);

        // One reverse step lands on the hash of step n - 1 ...
        s.reverse_step();
        prop_assert_eq!(s.state_hash(), hashes[n as usize - 1]);
        // ... and the whole walk back reproduces every forward state.
        for k in (0..n as usize - 1).rev() {
            s.reverse_step();
            prop_assert_eq!(s.state_hash(), hashes[k]);
        }
        prop_assert_eq!(s.position(), 0);
    }
}

/// `reverse_continue` with container-embedded checkpoints searches
/// checkpoint windows instead of rescanning from the region entry.
#[test]
fn reverse_continue_uses_checkpoint_windows() {
    let (program, pinball) = record_mt(7, 42);
    let container = PinballContainer::with_checkpoints(pinball, &program, 64);
    assert!(!container.checkpoints.is_empty());
    let mut s = DebugSession::with_container(Arc::clone(&program), container);

    // Break on the accumulator bump, run forward through two hits, then
    // reverse to the previous one.
    let bp = s.add_breakpoint(11, None); // worker xadd
    let first = s.cont();
    assert!(matches!(first, StopReason::Breakpoint { .. }), "{first:?}");
    let first_pos = s.position();
    s.cont();
    let second_pos = s.position();
    assert!(second_pos > first_pos);
    let back = s.reverse_continue();
    assert!(
        matches!(back, StopReason::Breakpoint { id, .. } if id == bp),
        "{back:?}"
    );
    assert_eq!(s.position(), first_pos, "lands on the previous hit");
    assert_eq!(
        s.seek_metrics().full_restarts,
        0,
        "windowed search restores checkpoints, never the region entry: {:?}",
        s.seek_metrics()
    );
}
