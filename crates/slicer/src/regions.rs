//! Code-exclusion regions and the slice pinball, from a slice (paper §4,
//! Fig. 6).
//!
//! "We identify all the exclusion code regions (shown as dashed boxes) for
//! each thread, and output such information to the special slice file. The
//! relogger leverages this file to generate the slice pinball."
//!
//! For each thread, the maximal runs of consecutive *non-slice* instruction
//! instances become half-open exclusion regions
//! `[startPc:sinstance:tid, endPc:einstance:tid)`. Synchronization and
//! thread-lifecycle instructions (`lock`, `unlock`, `cas`, `xadd`, `spawn`,
//! `join`, `halt`) are never excluded even when outside the slice: their
//! effect on the recorded schedule cannot be reproduced by injecting plain
//! register/memory side effects, and keeping them is what makes the region
//! pinball's schedule log remain a valid recipe for the slice pinball (our
//! substitute for PinPlay's syscall-style side-effect handling of such
//! events).
//!
//! One keep rule decides every record: it stays when the slice holds it,
//! or else when [`is_force_included`] holds. The slice arrives as a dense
//! bitmap over record ids, and both walks here visit the trace's records,
//! which are in retire order, with per-thread state in a `Vec` indexed by
//! tid — no hashing and no sort:
//!
//! * [`exclusion_regions`] writes the runs out as regions, for slice
//!   files (the debugger's `save-slice-file`);
//! * [`emit_slice_pinball`] writes the slice pinball itself. The paper's
//!   relogger ([`pinplay::relog()`]) replays the region pinball and flips
//!   per-thread exclusion flags at the regions' markers; the trace already
//!   holds every excluded write and its value, so the emitter makes the
//!   relogger's [`ScheduleBuilder`] calls, call for call, with no replay.
//!   The replaying relogger stays as the reference the emitter must match
//!   byte for byte.

use minivm::isa::NUM_REGS;
use minivm::{Instr, Loc, Pc, Reg, Tid};
use pinplay::{ExclusionRegion, Pinball, PinballMeta, RecordedExit, RelogStats, ScheduleBuilder};

use crate::global::GlobalTrace;
use crate::slice::Slice;
use crate::trace::TraceRecord;

/// End marker for a span that stays open to the end of the region; the
/// relogger flushes such spans with a final `Skip`.
pub const OPEN_END_PC: Pc = Pc::MAX;

/// Whether a record must stay in every slice pinball regardless of slice
/// membership: synchronization and thread-lifecycle effects cannot be
/// injected as plain register/memory side effects. Spin *retries* of
/// `lock`/`join` are excluded — they change no state, and only the
/// succeeding attempt matters for the schedule's validity.
pub fn is_force_included(r: &TraceRecord) -> bool {
    match r.instr {
        Instr::Unlock { .. }
        | Instr::Cas { .. }
        | Instr::AtomicAdd { .. }
        | Instr::Spawn { .. }
        | Instr::Halt => true,
        Instr::Lock { .. } | Instr::Join { .. } => !r.is_spin(),
        _ => false,
    }
}

/// Statistics about the exclusion computation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExclusionStats {
    /// Instances kept because they are in the slice.
    pub in_slice: u64,
    /// Instances kept only because they are force-included sync/lifecycle
    /// instructions.
    pub forced: u64,
    /// Instances covered by exclusion regions.
    pub excluded: u64,
}

impl ExclusionStats {
    /// The keep rule: whether record `r` stays in the slice pinball of the
    /// slice whose id bitmap is `in_slice` — it is in the slice, or else it
    /// is force-included. Counts the record under its verdict.
    pub(crate) fn keep(&mut self, in_slice: &[bool], r: &TraceRecord) -> bool {
        if in_slice.get(r.id as usize).copied().unwrap_or(false) {
            self.in_slice += 1;
        } else if is_force_included(r) {
            self.forced += 1;
        } else {
            self.excluded += 1;
            return false;
        }
        true
    }
}

/// `tid`'s entry in a table indexed by tid, grown on first sight.
fn slot<T: Default>(table: &mut Vec<T>, tid: Tid) -> &mut T {
    let t = tid as usize;
    if table.len() <= t {
        table.resize_with(t + 1, T::default);
    }
    &mut table[t]
}

/// Computes per-thread exclusion regions for everything outside `slice`.
///
/// Returns the regions (ready for [`pinplay::relog()`]) thread by thread in
/// ascending tid order, and statistics. The instance numbers are the
/// region-relative instance counts recorded in the trace, which is the
/// numbering the relogger's replay of the same region pinball reproduces.
pub fn exclusion_regions(
    trace: &GlobalTrace,
    slice: &Slice,
) -> (Vec<ExclusionRegion>, ExclusionStats) {
    let in_slice = slice.members(trace.records().len());
    let mut stats = ExclusionStats::default();
    // Per tid: where the open span started, and the spans closed so far.
    let mut threads: Vec<(Option<(Pc, u64)>, Vec<_>)> = Vec::new();
    for r in trace.records() {
        let (open, closed) = slot(&mut threads, r.tid);
        if !stats.keep(&in_slice, r) {
            open.get_or_insert((r.pc, r.instance));
        } else if let Some((start_pc, start_instance)) = open.take() {
            closed.push(ExclusionRegion {
                tid: r.tid,
                start_pc,
                start_instance,
                end_pc: r.pc,
                end_instance: r.instance,
            });
        }
    }
    let mut regions = Vec::new();
    for (tid, (open, closed)) in threads.into_iter().enumerate() {
        regions.extend(closed);
        if let Some((start_pc, start_instance)) = open {
            regions.push(ExclusionRegion {
                tid: tid as Tid,
                start_pc,
                start_instance,
                end_pc: OPEN_END_PC,
                end_instance: u64::MAX,
            });
        }
    }
    (regions, stats)
}

/// One thread's state while [`emit_slice_pinball`] walks the trace.
#[derive(Debug, Clone, Default)]
struct ThreadRun {
    /// Whether the thread is inside an excluded run.
    excluding: bool,
    /// The run's register writes, last value per register — the
    /// relogger's `BTreeMap`, as an array in register order.
    regs: [Option<i64>; NUM_REGS],
    /// Where the thread's steps so far left its pc.
    pc: Pc,
}

impl ThreadRun {
    /// The run's register writes in ascending register order, cleared.
    fn take_regs(&mut self) -> Vec<(Reg, i64)> {
        let regs = std::mem::take(&mut self.regs);
        (0u8..)
            .zip(regs)
            .filter_map(|(i, v)| Some((Reg(i), v?)))
            .collect()
    }
}

/// Emits the slice pinball of the slice whose id bitmap is `in_slice`
/// (paper Fig. 4(b)), from the trace alone: one pass over the records in
/// retire order, with no replay of the region.
///
/// `region_pinball` must be the pinball `trace` was collected from; its
/// metadata, snapshot and exit carry over. The result — pinball and both
/// statistics — equals [`pinplay::relog()`] of `region_pinball` under the
/// [`exclusion_regions`] of the same slice, byte for byte, because the
/// emitter makes the same [`ScheduleBuilder`] calls in the same order:
///
/// * a kept record steps its thread, first closing the thread's excluded
///   run with a skip to the record's pc; a kept `sys` appends its result
///   to the thread's syscall log;
/// * an excluded record injects each memory write in place and keeps its
///   register writes for the skip that closes the run;
/// * a run still open after the last record is closed with a skip to
///   where the replay leaves the thread's pc, in ascending tid order.
pub fn emit_slice_pinball(
    trace: &GlobalTrace,
    region_pinball: &Pinball,
    in_slice: &[bool],
) -> (Pinball, RelogStats, ExclusionStats) {
    let mut stats = ExclusionStats::default();
    let mut relog = RelogStats::default();
    let mut schedule = ScheduleBuilder::new();
    let mut syscalls: Vec<Vec<i64>> = Vec::new();
    let mut threads: Vec<ThreadRun> = region_pinball
        .snapshot
        .threads
        .iter()
        .map(|t| ThreadRun {
            pc: t.pc,
            ..ThreadRun::default()
        })
        .collect();
    // A trapping step leaves its thread's pc where it was: on the trapping
    // instruction, or, for a fetch trap (an instance-0 record: the pc
    // could not be fetched), where the thread's previous step left it.
    let trapped = match region_pinball.exit {
        RecordedExit::Trap(_) => trace.records().len().checked_sub(1),
        RecordedExit::AllHalted | RecordedExit::RegionEnd => None,
    };

    for r in trace.records() {
        let th = slot(&mut threads, r.tid);
        if trapped != Some(r.id as usize) {
            th.pc = r.next_pc;
        } else if r.instance > 0 {
            th.pc = r.pc;
        }
        if stats.keep(in_slice, r) {
            relog.included += 1;
            if std::mem::take(&mut th.excluding) {
                schedule.skip(r.tid, r.pc, th.take_regs());
            }
            schedule.step(r.tid);
            if let Instr::Sys { dst, .. } = r.instr {
                if let Some(v) = r.defs.value_of(Loc::Reg(dst)) {
                    slot(&mut syscalls, r.tid).push(v);
                }
            }
        } else {
            relog.excluded += 1;
            th.excluding = true;
            for (loc, v) in r.defs.iter() {
                match loc {
                    Loc::Reg(reg) => th.regs[reg.index()] = Some(v),
                    // In place, so included reads of other threads observe
                    // the recorded values.
                    Loc::Mem(a) => schedule.inject(a, v),
                }
            }
        }
    }
    for (tid, th) in threads.iter_mut().enumerate() {
        if th.excluding {
            schedule.skip(tid as Tid, th.pc, th.take_regs());
        }
    }

    let pinball = Pinball {
        meta: PinballMeta {
            program: region_pinball.meta.program.clone(),
            region: format!("{} [slice]", region_pinball.meta.region),
            is_slice: true,
        },
        snapshot: region_pinball.snapshot.clone(),
        events: schedule.finish(),
        syscalls,
        exit: region_pinball.exit,
    };
    (pinball, relog, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};
    use std::sync::Arc;

    use minivm::{assemble, Instr, LiveEnv, LocVals, Reg, RoundRobin};
    use proptest::collection::vec as prop_vec;
    use proptest::prelude::*;

    use crate::collect::{SliceSession, SlicerOptions};
    use crate::slice::{Criterion, Slice, SliceStats};

    fn rec(id: u64, tid: Tid, pc: Pc, instance: u64, instr: Instr) -> TraceRecord {
        TraceRecord {
            id,
            tid,
            pc,
            instance,
            instr,
            next_pc: pc + 1,
            uses: LocVals::new(),
            defs: LocVals::new(),
            spawned: None,
            cd_parent: None,
            line: 0,
        }
    }

    fn slice_of(ids: &[u64]) -> Slice {
        Slice {
            criterion: Criterion::Record { id: 0 },
            records: ids.iter().copied().collect::<HashSet<_>>(),
            data_edges: Vec::new(),
            control_edges: Vec::new(),
            stats: SliceStats::default(),
        }
    }

    /// The reference: each thread's records regrouped by tid and sorted
    /// by id, then scanned with two probes of the slice's id set per
    /// record — the one-pass walk must give the same regions, in the same
    /// order, and the same statistics.
    fn reference_exclusion_regions(
        trace: &GlobalTrace,
        slice: &Slice,
    ) -> (Vec<ExclusionRegion>, ExclusionStats) {
        let mut per_thread: HashMap<Tid, Vec<&TraceRecord>> = HashMap::new();
        for r in trace.records() {
            per_thread.entry(r.tid).or_default().push(r);
        }
        for v in per_thread.values_mut() {
            v.sort_unstable_by_key(|r| r.id);
        }

        let mut stats = ExclusionStats::default();
        let mut regions = Vec::new();
        let mut tids: Vec<Tid> = per_thread.keys().copied().collect();
        tids.sort_unstable();

        for tid in tids {
            let recs = &per_thread[&tid];
            let mut open: Option<(Pc, u64)> = None;
            for r in recs.iter() {
                let keep = slice.records.contains(&r.id) || is_force_included(r);
                if keep {
                    if slice.records.contains(&r.id) {
                        stats.in_slice += 1;
                    } else {
                        stats.forced += 1;
                    }
                    if let Some((start_pc, start_instance)) = open.take() {
                        regions.push(ExclusionRegion {
                            tid,
                            start_pc,
                            start_instance,
                            end_pc: r.pc,
                            end_instance: r.instance,
                        });
                    }
                } else {
                    stats.excluded += 1;
                    if open.is_none() {
                        open = Some((r.pc, r.instance));
                    }
                }
            }
            if let Some((start_pc, start_instance)) = open {
                regions.push(ExclusionRegion {
                    tid,
                    start_pc,
                    start_instance,
                    end_pc: OPEN_END_PC,
                    end_instance: u64::MAX,
                });
            }
        }
        (regions, stats)
    }

    #[test]
    fn gap_between_slice_records_becomes_region() {
        let recs = vec![
            rec(0, 0, 0, 1, Instr::Nop), // in slice
            rec(1, 0, 1, 1, Instr::Nop), // excluded
            rec(2, 0, 2, 1, Instr::Nop), // excluded
            rec(3, 0, 3, 1, Instr::Nop), // in slice
        ];
        let trace = crate::global::GlobalTrace::build(recs);
        let (regions, stats) = exclusion_regions(&trace, &slice_of(&[0, 3]));
        assert_eq!(
            regions,
            vec![ExclusionRegion {
                tid: 0,
                start_pc: 1,
                start_instance: 1,
                end_pc: 3,
                end_instance: 1,
            }]
        );
        assert_eq!(stats.in_slice, 2);
        assert_eq!(stats.excluded, 2);
    }

    #[test]
    fn trailing_gap_gets_open_end() {
        let recs = vec![
            rec(0, 0, 0, 1, Instr::Nop),
            rec(1, 0, 1, 1, Instr::Nop), // excluded to the end
            rec(2, 0, 2, 1, Instr::Nop),
        ];
        let trace = crate::global::GlobalTrace::build(recs);
        let (regions, _) = exclusion_regions(&trace, &slice_of(&[0]));
        assert_eq!(regions.len(), 1);
        assert_eq!(regions[0].end_pc, OPEN_END_PC);
        assert_eq!(regions[0].start_pc, 1);
    }

    #[test]
    fn sync_instructions_split_regions() {
        let recs = vec![
            rec(0, 0, 0, 1, Instr::Nop),                   // in slice
            rec(1, 0, 1, 1, Instr::Nop),                   // excluded
            rec(2, 0, 2, 1, Instr::Lock { addr: Reg(1) }), // forced keep
            rec(3, 0, 3, 1, Instr::Nop),                   // excluded
            rec(4, 0, 4, 1, Instr::Halt),                  // forced keep
        ];
        let trace = crate::global::GlobalTrace::build(recs);
        let (regions, stats) = exclusion_regions(&trace, &slice_of(&[0]));
        assert_eq!(regions.len(), 2, "lock splits the exclusion run");
        assert_eq!(regions[0].end_pc, 2);
        assert_eq!(regions[1].start_pc, 3);
        assert_eq!(regions[1].end_pc, 4);
        assert_eq!(stats.forced, 2);
    }

    #[test]
    fn per_thread_regions_are_independent() {
        let recs = vec![
            rec(0, 0, 0, 1, Instr::Nop), // t0 in slice
            rec(1, 1, 0, 1, Instr::Nop), // t1 excluded
            rec(2, 0, 1, 1, Instr::Nop), // t0 excluded
            rec(3, 1, 1, 1, Instr::Nop), // t1 in slice
        ];
        let trace = crate::global::GlobalTrace::build(recs);
        let (regions, _) = exclusion_regions(&trace, &slice_of(&[0, 3]));
        assert_eq!(regions.len(), 2);
        assert!(regions.iter().any(|r| r.tid == 0 && r.start_pc == 1));
        assert!(regions
            .iter()
            .any(|r| r.tid == 1 && r.start_pc == 0 && r.end_pc == 1));
    }

    #[test]
    fn force_included_classification() {
        assert!(is_force_included(&rec(0, 0, 4, 1, Instr::Halt)));
        assert!(is_force_included(&rec(
            0,
            0,
            4,
            1,
            Instr::Spawn {
                dst: Reg(0),
                entry: 0,
                arg: Reg(1)
            }
        )));
        assert!(!is_force_included(&rec(0, 0, 4, 1, Instr::Nop)));
        assert!(!is_force_included(&rec(0, 0, 4, 1, Instr::Ret)));
        // A lock that advanced (acquired) is kept; a spin retry is not.
        let acquired = rec(0, 0, 4, 1, Instr::Lock { addr: Reg(1) });
        assert!(is_force_included(&acquired));
        let mut spin = acquired;
        spin.next_pc = spin.pc;
        assert!(!is_force_included(&spin));
    }

    /// The instructions a synthetic record may carry: plain ones the slice
    /// decides, and the sync/lifecycle ones the keep rule forces.
    fn instr_strategy() -> impl Strategy<Value = (Instr, bool)> {
        let instr = prop_oneof![
            Just(Instr::Nop),
            Just(Instr::Ret),
            Just(Instr::Lock { addr: Reg(1) }),
            Just(Instr::Join { tid: Reg(2) }),
            Just(Instr::Unlock { addr: Reg(1) }),
            Just(Instr::Halt),
            Just(Instr::Spawn {
                dst: Reg(3),
                entry: 0,
                arg: Reg(1),
            }),
        ];
        // The flag makes a `lock`/`join` a spin retry.
        (instr, any::<bool>())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// On synthetic traces — 1–6 threads with sparse tids, random
        /// membership, force-included instructions and spin retries — the
        /// one-pass walk equals the regroup-and-sort reference.
        #[test]
        fn one_pass_regions_match_the_reference(
            tid_pool in prop_vec(0u32..40, 1..7),
            steps in prop_vec((any::<usize>(), 0u32..6, instr_strategy(), any::<bool>()), 0..120),
        ) {
            let mut instances: HashMap<(Tid, Pc), u64> = HashMap::new();
            let mut records = Vec::new();
            let mut members = Vec::new();
            for (id, &(pick, pc, (instr, spin), member)) in steps.iter().enumerate() {
                let tid = tid_pool[pick % tid_pool.len()];
                let instance = instances.entry((tid, pc)).or_insert(0);
                *instance += 1;
                let mut r = rec(id as u64, tid, pc, *instance, instr);
                if spin && matches!(instr, Instr::Lock { .. } | Instr::Join { .. }) {
                    r.next_pc = pc;
                }
                records.push(r);
                if member {
                    members.push(id as u64);
                }
            }
            let trace = GlobalTrace::build(records);
            let slice = slice_of(&members);
            prop_assert_eq!(
                exclusion_regions(&trace, &slice),
                reference_exclusion_regions(&trace, &slice)
            );
        }
    }

    /// Records `src` whole and returns the session and the region pinball.
    fn session_of(src: &str) -> (SliceSession, Pinball) {
        let program = Arc::new(assemble(src).expect("assembles"));
        let rec = pinplay::record_whole_program(
            &program,
            &mut RoundRobin::new(3),
            &mut LiveEnv::new(5),
            10_000,
            "emit",
        )
        .expect("records");
        let session = SliceSession::collect(program, &rec.pinball, SlicerOptions::default());
        (session, rec.pinball)
    }

    /// The emitter against the replaying relogger, on every single-record
    /// slice and the empty one.
    fn assert_emits_as_relog(session: &SliceSession, pinball: &Pinball) {
        let n = session.trace().records().len() as u64;
        for ids in (0..n).map(|id| vec![id]).chain([vec![]]) {
            let slice = slice_of(&ids);
            let (regions, estats) = exclusion_regions(session.trace(), &slice);
            let (want, rstats) = pinplay::relog(Arc::clone(session.program()), pinball, &regions);
            let got = emit_slice_pinball(session.trace(), pinball, &slice.members(n as usize));
            assert_eq!(got, (want, rstats, estats), "slice {ids:?}");
        }
    }

    /// A thread that runs off the end of the code traps on the fetch: its
    /// record is empty (instance 0), and the pc it is left at is where its
    /// previous step put it.
    #[test]
    fn fetch_trap_leaves_the_pc_past_the_code() {
        let (session, pinball) = session_of(
            r"
            .text
            .func main
                movi r1, 3
                rand r2
                addi r1, r1, 1
            .endfunc
            ",
        );
        assert!(matches!(pinball.exit, RecordedExit::Trap(_)));
        assert_eq!(
            session.trace().records().last().map(|r| r.instance),
            Some(0)
        );
        assert_emits_as_relog(&session, &pinball);
    }

    /// An instruction trap leaves the pc on the trapping instruction.
    #[test]
    fn assert_trap_leaves_the_pc_on_the_assert() {
        let (session, pinball) = session_of(
            r"
            .text
            .func main
                movi r1, 0
                spawn r2, other, r1
                rand r3
                movi r4, 1
                assert r1
            .endfunc
            .func other
                rand r5
                addi r5, r5, 2
                halt
            .endfunc
            ",
        );
        assert!(matches!(pinball.exit, RecordedExit::Trap(_)));
        assert_emits_as_relog(&session, &pinball);
    }
}
