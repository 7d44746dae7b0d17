//! The slicing session: replay-integrated trace collection (Fig. 4(a)/10).
//!
//! "When the execution of a program is replayed using the region pinball,
//! our slicing pintool collects dynamic information that enables the
//! computation of dynamic slices." A [`SliceSession`] owns that dynamic
//! information — the global trace, the refined CFG, and the verified
//! save/restore pairs — and serves any number of slice requests against it
//! ("once collected, the dynamic information can be used for multiple
//! slicing sessions as PinPlay guarantees repeatability", §7).
//!
//! Collection is one serial replay whose tool builds every record in
//! retire order, preceded by a target-discovery replay only when the
//! program has an indirect jump. A sharded variant that streamed events
//! to per-thread collector threads was measured slower on a 2-vCPU host
//! and deleted: its producer alone (replay plus a channel send per event)
//! cost more than the whole serial pass, and restoring retire order took
//! another sort of the records.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use minivm::{Program, ToolControl};
use pinplay::{ExclusionRegion, Pinball, RelogStats, Replayer};
use repro_cfg::Cfg;

use crate::control::ControlTracker;
use crate::global::GlobalTrace;
use crate::index::{compute_slice_indexed, DepIndex};
use crate::metrics::{SliceMetrics, StageMetrics};
use crate::pairs::{PairCandidates, PairDetector};
use crate::regions::{emit_slice_pinball, exclusion_regions, ExclusionStats};
use crate::slice::{Criterion, Slice, SliceOptions};
use crate::trace::{RecordId, TraceRecord};

/// The `MaxSave` parameter of save/restore detection (§5.2): the value
/// the paper uses in Fig. 13.
const MAX_SAVE: usize = 10;

/// Configuration for trace collection. How a slice traverses the trace
/// is a per-query [`SliceOptions`].
#[derive(Debug, Clone, Copy)]
pub struct SlicerOptions {
    /// Refine the CFG with observed indirect-jump targets (§5.1). Turning
    /// this off reproduces the paper's imprecise baseline. When on, a
    /// target-discovery replay runs before the collection pass so
    /// post-dominators reflect every target the region exercises; it is
    /// skipped for programs without indirect jumps (`jmpi`/`calli`), where
    /// it could observe nothing.
    pub refine_indirect: bool,
}

impl Default for SlicerOptions {
    fn default() -> SlicerOptions {
        SlicerOptions {
            refine_indirect: true,
        }
    }
}

/// Collected dynamic information for one region pinball, ready to serve
/// slice requests.
#[derive(Debug)]
pub struct SliceSession {
    program: Arc<Program>,
    trace: GlobalTrace,
    pairs: HashMap<RecordId, RecordId>,
    cfg: Cfg,
    metrics: SliceMetrics,
}

impl SliceSession {
    /// Replays `pinball` and collects everything slicing needs: the def/use
    /// trace in retire order (the global trace), dynamic control
    /// dependences over the (refined) CFG, and verified save/restore pairs.
    pub fn collect(
        program: Arc<Program>,
        pinball: &Pinball,
        options: SlicerOptions,
    ) -> SliceSession {
        // The one copy of the events every replay pass reads: clones of
        // this replayer share it.
        let mut replayer = Replayer::new(Arc::clone(&program), pinball);
        let collect_start = Instant::now();
        let mut cfg = Cfg::build(&program);

        // Pass 1: discover indirect-jump targets so the refined CFG — and
        // therefore the post-dominators the control-dependence detection
        // uses — reflects the whole region. A program without indirect
        // jumps has no target to discover.
        let has_indirect = program.code.iter().any(minivm::Instr::is_indirect_jump);
        if options.refine_indirect && has_indirect {
            let mut observe = |ev: &minivm::InsEvent| {
                if ev.instr.is_indirect_jump() {
                    cfg.observe_indirect(ev.pc, ev.next_pc);
                }
                ToolControl::Continue
            };
            replayer.clone().run(&mut observe);
        }

        // Pass 2: full collection.
        let mut tracker = ControlTracker::new(cfg, options.refine_indirect);
        let mut detector = PairDetector::new(PairCandidates::find(&program, MAX_SAVE));
        let mut records: Vec<TraceRecord> = Vec::new();
        let mut collect = |ev: &minivm::InsEvent| {
            let id: RecordId = ev.seq;
            let cd_parent = tracker.on_event(ev, id);
            detector.on_event(ev, id);
            records.push(TraceRecord {
                id,
                tid: ev.tid,
                pc: ev.pc,
                instance: ev.instance,
                instr: ev.instr,
                next_pc: ev.next_pc,
                uses: ev.uses,
                defs: ev.defs,
                spawned: ev.spawned,
                cd_parent,
                line: program.line_of(ev.pc),
            });
            ToolControl::Continue
        };
        replayer.run(&mut collect);
        let (pairs, cfg) = (detector.finish(), tracker.into_cfg());
        let collect_wall = collect_start.elapsed();
        let n_records = records.len() as u64;

        let merge_start = Instant::now();
        let trace = GlobalTrace::build(records);
        let metrics = SliceMetrics {
            collect: StageMetrics::new(collect_wall, n_records),
            merge: StageMetrics::new(merge_start.elapsed(), n_records),
            ..SliceMetrics::default()
        };
        SliceSession {
            program,
            trace,
            pairs,
            cfg,
            metrics,
        }
    }

    /// The program under analysis.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// Pipeline metrics for this session's collect and build stages (the
    /// traverse stage is per-query; fold a query's
    /// [`SliceStats`](crate::SliceStats) in with
    /// [`SliceMetrics::with_traversal`]).
    pub fn metrics(&self) -> &SliceMetrics {
        &self.metrics
    }

    /// The collected global trace.
    pub fn trace(&self) -> &GlobalTrace {
        &self.trace
    }

    /// The refined CFG (after target discovery).
    pub fn cfg(&self) -> &Cfg {
        &self.cfg
    }

    /// Verified save/restore pairs (restore record → save record).
    pub fn pairs(&self) -> &HashMap<RecordId, RecordId> {
        &self.pairs
    }

    /// Computes a one-shot backward dynamic slice under the default
    /// [`SliceOptions`]: a [`DepIndex`] of the trace, built and walked
    /// once. Nothing is kept between calls; a caller that slices one trace
    /// again and again builds the index once and walks it per criterion,
    /// as the debugger does.
    pub fn slice(&self, criterion: Criterion) -> Slice {
        self.slice_with(criterion, SliceOptions::new())
    }

    /// As [`SliceSession::slice`], under explicit options.
    ///
    /// # Panics
    ///
    /// Panics if the criterion's record id is not present in the trace.
    pub fn slice_with(&self, criterion: Criterion, opts: SliceOptions) -> Slice {
        let index = DepIndex::build(&self.trace, &self.pairs, &opts);
        compute_slice_indexed(&index, criterion)
    }

    /// The last *retired* record of the trace — for buggy pinballs this is
    /// the trapping instruction, i.e. the failure point.
    pub fn failure_record(&self) -> Option<&TraceRecord> {
        self.trace.records().last()
    }

    /// The last execution of `pc` (any thread), the common interactive
    /// criterion "slice at this statement".
    pub fn last_at_pc(&self, pc: minivm::Pc) -> Option<&TraceRecord> {
        self.trace.rfind(|r| r.pc == pc)
    }

    /// Computes the exclusion regions for everything outside `slice`
    /// (paper Fig. 6(a)).
    pub fn exclusion_regions(&self, slice: &Slice) -> (Vec<ExclusionRegion>, ExclusionStats) {
        exclusion_regions(&self.trace, slice)
    }

    /// The Fig. 4(b) pipeline: the slice pinball of `slice`, emitted from
    /// the collected trace by [`emit_slice_pinball`] — byte for byte what
    /// relogging `region_pinball` under [`SliceSession::exclusion_regions`]
    /// produces, without replaying it. `region_pinball` must be the pinball
    /// the session was collected from.
    pub fn make_slice_pinball(
        &self,
        region_pinball: &Pinball,
        slice: &Slice,
    ) -> (Pinball, RelogStats, ExclusionStats) {
        let in_slice = slice.members(self.trace.records().len());
        emit_slice_pinball(&self.trace, region_pinball, &in_slice)
    }
}

#[cfg(test)]
mod collection_tests {
    use super::*;
    use minivm::{assemble, LiveEnv, RoundRobin};
    use pinplay::record_whole_program;

    const MT_PROG: &str = r"
        .data
        acc: .word 0
        .text
        .func main
            movi r1, 1
            spawn r2, worker, r1
            movi r1, 2
            spawn r3, worker, r1
            movi r1, 3
            spawn r4, worker, r1
            join r2
            join r3
            join r4
            la r5, acc
            load r6, r5, 0
            print r6
            halt
        .endfunc
        .func worker
            la r1, acc
            movi r3, 20
        spin:
            xadd r2, r1, r0
            subi r3, r3, 1
            bgti r3, 0, spin
            halt
        .endfunc
        ";

    fn record_mt() -> (Arc<Program>, Pinball) {
        let program = Arc::new(assemble(MT_PROG).unwrap());
        let rec = record_whole_program(
            &program,
            &mut RoundRobin::new(5),
            &mut LiveEnv::new(7),
            100_000,
            "mt-collect",
        )
        .unwrap();
        (program, rec.pinball)
    }

    /// Pipeline metrics cover every stage after collection.
    #[test]
    fn session_metrics_are_populated() {
        let (program, pinball) = record_mt();
        let session =
            SliceSession::collect(Arc::clone(&program), &pinball, SlicerOptions::default());
        let m = session.metrics();
        assert_eq!(m.collect.records, session.trace().records().len() as u64);
        assert_eq!(m.merge.records, m.collect.records);
        assert_eq!(
            m.summarize,
            StageMetrics::default(),
            "no stage summarizes the trace"
        );
        let fail = session.failure_record().unwrap().id;
        let slice = session.slice(Criterion::Record { id: fail });
        let folded = m.with_traversal(&slice.stats, std::time::Duration::from_micros(1));
        assert_eq!(folded.traverse.records, slice.stats.records_scanned);
    }
}

#[cfg(test)]
mod failure_record_tests {
    use super::*;
    use minivm::{assemble, LiveEnv, RoundRobin};
    use pinplay::record_whole_program;

    /// The failure record is the trapping instruction, while another
    /// thread is still running.
    #[test]
    fn failure_record_is_the_trapping_instruction() {
        let program = Arc::new(
            assemble(
                r"
                .text
                .func main
                    movi r1, 0
                    spawn r2, busy, r1
                    movi r3, 0
                    assert r3        ; traps while `busy` is still running
                .endfunc
                .func busy
                    movi r4, 50
                spin:
                    subi r4, r4, 1   ; independent of main
                    bgti r4, 0, spin
                    halt
                .endfunc
                ",
            )
            .unwrap(),
        );
        let rec = record_whole_program(
            &program,
            &mut RoundRobin::new(2),
            &mut LiveEnv::new(0),
            10_000,
            "failure-order",
        )
        .unwrap();
        let session =
            SliceSession::collect(Arc::clone(&program), &rec.pinball, SlicerOptions::default());
        let failure = session.failure_record().expect("trace non-empty");
        assert!(
            matches!(failure.instr, minivm::Instr::Assert { .. }),
            "failure record must be the assert, got {}",
            failure.describe()
        );
        assert!(
            !session
                .trace()
                .records()
                .iter()
                .any(|r| r.tid == 1 && matches!(r.instr, minivm::Instr::Halt)),
            "`busy` is still running at the trap"
        );
    }
}
