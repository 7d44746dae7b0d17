//! Experiment primitives: record, replay, slice, relog — with timings.

use std::sync::Arc;
use std::time::Duration;

use maple::ActiveScheduler;
use minivm::{assemble, LiveEnv, NullTool, Program, RoundRobin};
use pinplay::{record_region, record_whole_program, Pinball, Recording, RegionSpec, Replayer};
use slicer::{
    compute_slice_indexed, Criterion, DepIndex, Slice, SliceOptions, SliceSession, SlicerOptions,
};
use workloads::{BugCase, ParsecProgram};

use crate::timed;

/// Environment seed used throughout the experiments (fixed so reruns are
/// reproducible).
pub const ENV_SEED: u64 = 42;

/// A recorded region with capture-time measurements.
#[derive(Debug)]
pub struct RecordedRegion {
    /// The program the pinball belongs to.
    pub program: Arc<Program>,
    /// The capture result.
    pub recording: Recording,
    /// Wall-clock logging time, including pinball compression
    /// (the paper's "Logging Overhead Time").
    pub log_time: Duration,
    /// Compressed pinball size in bytes (the paper's "Space" column).
    pub space_bytes: usize,
}

/// Records a region of a PARSEC-analog program under round-robin
/// scheduling.
///
/// # Panics
///
/// Panics when the region cannot be captured (program too short for the
/// requested skip/length — callers size `units` with margin).
pub fn record_parsec_region(p: &ParsecProgram, skip: u64, length: u64) -> RecordedRegion {
    let units = workloads::units_for_main_instructions(skip + length + length / 2 + 1_000);
    let program = (p.build)(units);
    let region = RegionSpec::skip_length(skip, length);
    let max_steps = (skip + length) * 12 + 1_000_000;
    let ((recording, space_bytes), log_time) = timed(|| {
        let rec = record_region(
            &program,
            &mut RoundRobin::new(17),
            &mut LiveEnv::new(ENV_SEED),
            region,
            max_steps,
            p.name,
        )
        .expect("parsec region capture succeeds");
        // Logging time includes compression, as in the paper ("logging
        // (with bzip2 pinball compression) time").
        let bytes = rec.pinball.to_bytes().expect("pinball serializes").len();
        (rec, bytes)
    });
    RecordedRegion {
        program,
        recording,
        log_time,
        space_bytes,
    }
}

/// Records a region of a bug case under the Maple active scheduler that
/// exposes it.
///
/// # Panics
///
/// Panics when the bug cannot be exposed or the region not captured.
pub fn record_bug_region(case: &BugCase, region: RegionSpec) -> RecordedRegion {
    let iroot = case.exposing_iroot();
    let ((recording, space_bytes), log_time) = timed(|| {
        let rec = record_region(
            &case.program,
            &mut ActiveScheduler::new(iroot),
            &mut LiveEnv::new(0),
            region,
            10_000_000,
            case.name,
        )
        .expect("bug region capture succeeds");
        let bytes = rec.pinball.to_bytes().expect("pinball serializes").len();
        (rec, bytes)
    });
    RecordedRegion {
        program: Arc::clone(&case.program),
        recording,
        log_time,
        space_bytes,
    }
}

/// Replays a pinball to completion, returning the wall time.
pub fn replay_time(program: &Arc<Program>, pinball: &Pinball) -> Duration {
    let (_, t) = timed(|| {
        let mut rep = Replayer::new(Arc::clone(program), pinball);
        rep.run(&mut NullTool)
    });
    t
}

/// Collects the slicing session for a pinball, returning the collection
/// (dynamic-information tracing) time.
pub fn collect_session(
    program: &Arc<Program>,
    pinball: &Pinball,
    options: SlicerOptions,
) -> (SliceSession, Duration) {
    timed(|| SliceSession::collect(Arc::clone(program), pinball, options))
}

/// Criteria for "the last `n` read instructions (spread across threads)"
/// — the paper's slice-criterion recipe (§7).
pub fn last_read_criteria(session: &SliceSession, n: usize) -> Vec<Criterion> {
    let mut reads: Vec<_> = session
        .trace()
        .records()
        .iter()
        .filter(|r| {
            matches!(
                r.instr,
                minivm::Instr::Load { .. }
                    | minivm::Instr::Pop { .. }
                    | minivm::Instr::Cas { .. }
                    | minivm::Instr::AtomicAdd { .. }
            )
        })
        .map(|r| r.id)
        .collect();
    reads.sort_unstable();
    reads
        .into_iter()
        .rev()
        .take(n)
        .map(|id| Criterion::Record { id })
        .collect()
}

/// The last record that read the given memory address — for slicing a
/// specific shared variable (the GUI's "Variable" field).
pub fn last_read_of_addr(session: &SliceSession, addr: minivm::Addr) -> Option<Criterion> {
    session
        .trace()
        .records()
        .iter()
        .filter(|r| {
            r.use_keys(false)
                .any(|(k, _)| k == slicer::LocKey::Mem(addr))
        })
        .max_by_key(|r| r.id)
        .map(|r| Criterion::Record { id: r.id })
}

/// Computes a lone one-shot slice — an index build plus one walk — and
/// the time it took.
pub fn slice_timed(session: &SliceSession, criterion: Criterion) -> (Slice, Duration) {
    timed(|| session.slice(criterion))
}

/// Builds the dependence index of a session's trace under `options`, and
/// the time it took: the one build every slice of that trace then walks.
pub fn index_timed(session: &SliceSession, options: &SliceOptions) -> (DepIndex, Duration) {
    timed(|| DepIndex::build(session.trace(), session.pairs(), options))
}

/// Walks `index` from one criterion, returning the slice and the walk
/// time.
pub fn walk_timed(index: &DepIndex, criterion: Criterion) -> (Slice, Duration) {
    timed(|| compute_slice_indexed(index, criterion))
}

/// A four-thread "needle" workload: every thread spins `iters` iterations
/// of private arithmetic, while a six-record def chain threads a value
/// through the `needle` word to the final instruction. The backward slice
/// at the end touches a handful of records out of hundreds of thousands.
pub fn four_thread_needle(iters: u64) -> Arc<Program> {
    Arc::new(
        assemble(&format!(
            r"
            .data
            needle: .word 0
            .text
            .func main
                movi r1, 3          ; chain: constant
                muli r2, r1, 5      ; chain: derived value
                la r3, needle
                store r2, r3, 0     ; chain: publish
                movi r1, {iters}
                spawn r10, worker, r1
                spawn r11, worker, r1
                spawn r12, worker, r1
                mov r0, r1
                call spin
                join r10
                join r11
                join r12
                load r4, r3, 0      ; chain: read back
                addi r5, r4, 7      ; chain: criterion
                halt
            .endfunc
            .func worker
                call spin
                halt
            .endfunc
            .func spin
                movi r2, 0
            loop:
                muli r4, r2, 7
                addi r4, r4, 13
                andi r4, r4, 0xff
                add r2, r2, r4
                subi r0, r0, 1
                bgti r0, 0, loop
                ret
            .endfunc
            ",
        ))
        .expect("needle workload assembles"),
    )
}

/// Records a [`four_thread_needle`] run and returns the raw pinball,
/// for experiments that replay the region directly (seek benchmarks)
/// rather than slicing it.
///
/// # Panics
///
/// Panics when the recording exceeds its step budget (never for sane
/// `iters`).
pub fn record_needle(iters: u64) -> (Arc<Program>, Pinball) {
    let program = four_thread_needle(iters);
    let rec = record_whole_program(
        &program,
        &mut RoundRobin::new(13),
        &mut LiveEnv::new(ENV_SEED),
        iters * 50 + 100_000,
        "needle",
    )
    .expect("needle capture succeeds");
    (program, rec.pinball)
}

/// A four-thread "churn" workload: every thread loops `iters` calls to a
/// helper that saves r1, clobbers it, and restores it — a deep chain of
/// §5.2 save/restore pairs. The final instruction uses r1, whose real
/// definition precedes the loop, so resolving it must bypass all `iters`
/// pairs. The resulting slice is tiny, but an index-free traversal
/// re-walks the whole bypass chain on every query — the dependence
/// index's precomputed resolution collapses it to one lookup.
pub fn four_thread_churn(iters: u64) -> Arc<Program> {
    Arc::new(
        assemble(&format!(
            r"
            .text
            .func main
                movi r1, 3          ; the real definition the slice chases to
                movi r2, {iters}
                spawn r10, worker, r2
                spawn r11, worker, r2
                spawn r12, worker, r2
                mov r0, r2
                call churn_loop
                join r10
                join r11
                join r12
                addi r5, r1, 7      ; criterion: bypasses {iters} pairs
                halt
            .endfunc
            .func worker
                call churn_loop
                halt
            .endfunc
            .func churn_loop
            loop:
                call helper
                subi r0, r0, 1
                bgti r0, 0, loop
                ret
            .endfunc
            .func helper
                push r1
                movi r1, 9
                pop r1
                ret
            .endfunc
            ",
        ))
        .expect("churn workload assembles"),
    )
}

/// Records and collects a [`four_thread_churn`] trace, returning the
/// session and the criterion at main's final r1 use (the `addi` whose
/// resolution bypasses every save/restore pair).
///
/// # Panics
///
/// Panics when the recording exceeds its step budget (never for sane
/// `iters`).
pub fn churn_session(iters: u64, options: SlicerOptions) -> (SliceSession, Criterion) {
    let (_, session, criterion) = churn_parts(iters, options);
    (session, criterion)
}

/// Like [`churn_session`], but also returns the region pinball the
/// session was collected from — the full-replay baseline that relogging
/// (slice-pinball replay) is measured against.
///
/// # Panics
///
/// Panics when the recording exceeds its step budget (never for sane
/// `iters`).
pub fn churn_parts(iters: u64, options: SlicerOptions) -> (Pinball, SliceSession, Criterion) {
    let program = four_thread_churn(iters);
    let rec = record_whole_program(
        &program,
        &mut RoundRobin::new(13),
        &mut LiveEnv::new(ENV_SEED),
        iters * 50 + 100_000,
        "churn",
    )
    .expect("churn capture succeeds");
    let session = SliceSession::collect(Arc::clone(&program), &rec.pinball, options);
    let id = session
        .trace()
        .records()
        .iter()
        .rev()
        .find(|r| {
            r.tid == 0
                && r.use_keys(false)
                    .any(|(k, _)| k == slicer::LocKey::Reg(0, minivm::Reg(1)))
        })
        .expect("main uses r1 after the churn loop")
        .id;
    (rec.pinball, session, Criterion::Record { id })
}

/// Full execution-slice pipeline for one slice: exclusion regions →
/// relogging → slice pinball, returning the pinball and its replay time.
pub fn slice_pinball_replay(
    session: &SliceSession,
    region: &Pinball,
    slice: &Slice,
) -> (Pinball, Duration) {
    let (pb, _, _) = session.make_slice_pinball(region, slice);
    let t = replay_time(session.program(), &pb);
    (pb, t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parsec_region_capture_and_replay() {
        let p = &workloads::all_parsec()[0];
        let rr = record_parsec_region(p, 500, 2_000);
        assert!(rr.recording.region_instructions >= 2_000);
        assert!(rr.space_bytes > 0);
        let t = replay_time(&rr.program, &rr.recording.pinball);
        assert!(t.as_nanos() > 0);
    }

    #[test]
    fn bug_region_capture_reproduces_trap() {
        let case = workloads::pbzip2_like();
        let rr = record_bug_region(&case, case.buggy_region());
        assert!(matches!(
            rr.recording.pinball.exit,
            pinplay::RecordedExit::Trap(_)
        ));
        // Region starts at the root cause, so it is much shorter than the
        // whole execution.
        let whole = record_bug_region(&case, case.whole_region());
        assert!(rr.recording.region_instructions < whole.recording.region_instructions);
    }

    #[test]
    fn last_read_criteria_finds_loads() {
        let p = &workloads::all_parsec()[1];
        let rr = record_parsec_region(p, 100, 1_000);
        let (session, _) =
            collect_session(&rr.program, &rr.recording.pinball, SlicerOptions::default());
        let crits = last_read_criteria(&session, 10);
        assert_eq!(crits.len(), 10);
        let (slice, _) = slice_timed(&session, crits[0]);
        assert!(!slice.is_empty());
    }
}
