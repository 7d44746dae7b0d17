//! The relogger: turn a region pinball + exclusion regions into a slice
//! pinball.
//!
//! Paper §4: "PinPlay's relogger can run off a pinball and then generate a
//! new pinball by excluding some code regions. ... Given an exclusion code
//! region `[startPc:sinstance:tid, endPc:einstance:tid)` for thread `tid`,
//! relogger sets the exclusion flag and turns on the side-effects detection
//! when the `sinstance`-th execution of `startPc` is encountered, and then
//! resets the flag when the `einstance`-th execution of `endPc` is reached."
//!
//! Implementation: the region pinball is replayed once; per-thread exclusion
//! flags are flipped at the markers; schedule entries inside excluded spans
//! are dropped from the new log and their register/memory side effects are
//! accumulated into a [`ReplayEvent::Skip`] emitted at the span's end. The
//! relogger also re-derives per-thread syscall logs containing only the
//! *included* syscalls, since excluded code never executes under the slice
//! pinball.
//!
//! This replaying relogger is the paper's mechanism and the reference
//! implementation. The debugger relogs without it: the slicer's trace
//! already holds every retired instruction's writes and values, so
//! `slicer::emit_slice_pinball` writes the same slice pinball from the
//! trace in one pass, with no replay, and differential tests hold the two
//! byte-identical.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use minivm::{InsEvent, Loc, Pc, Program, Reg, Tid, ToolControl};

use crate::pinball::{Pinball, PinballMeta, ReplayEvent, ScheduleBuilder};
use crate::replay::{ReplayStatus, Replayer};

/// A per-thread code exclusion region, half-open:
/// `[start_pc:start_instance, end_pc:end_instance)` with region-relative,
/// 1-based instance counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ExclusionRegion {
    /// Thread the region applies to.
    pub tid: Tid,
    /// First excluded program point.
    pub start_pc: Pc,
    /// 1-based region-relative instance of `start_pc` that opens the span.
    pub start_instance: u64,
    /// First program point *after* the span (not excluded).
    pub end_pc: Pc,
    /// 1-based region-relative instance of `end_pc` that closes the span.
    pub end_instance: u64,
}

#[derive(Debug, Default)]
struct ThreadExclusion {
    excluded: bool,
    regs: BTreeMap<Reg, i64>,
}

/// Statistics from a relogging pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RelogStats {
    /// Instructions of the region pinball kept in the slice pinball.
    pub included: u64,
    /// Instructions dropped (their side effects became injections).
    pub excluded: u64,
}

/// Replays `region_pinball` and produces the slice pinball that skips the
/// given exclusion regions (paper Fig. 4(b)).
///
/// The caller (the slicer's exclusion-region builder) must never exclude
/// synchronization or thread-lifecycle instructions (`lock`, `unlock`,
/// `spawn`, `join`, `halt`): their effects on scheduling cannot be injected
/// as plain register/memory side effects, and keeping them preserves the
/// recorded schedule's validity under the slice pinball.
pub fn relog(
    program: Arc<Program>,
    region_pinball: &Pinball,
    exclusions: &[ExclusionRegion],
) -> (Pinball, RelogStats) {
    let starts: HashSet<(Tid, Pc, u64)> = exclusions
        .iter()
        .map(|e| (e.tid, e.start_pc, e.start_instance))
        .collect();
    let ends: HashSet<(Tid, Pc, u64)> = exclusions
        .iter()
        .map(|e| (e.tid, e.end_pc, e.end_instance))
        .collect();

    let mut threads: HashMap<Tid, ThreadExclusion> = HashMap::new();
    let mut schedule = ScheduleBuilder::new();
    let mut syscalls: Vec<Vec<i64>> = Vec::new();
    let mut stats = RelogStats::default();

    {
        let mut on_event = |ev: &InsEvent| -> ToolControl {
            let st = threads.entry(ev.tid).or_default();
            if st.excluded && ends.contains(&(ev.tid, ev.pc, ev.instance)) {
                // Close the span: emit the Skip with the accumulated
                // register side effects; this event itself is included
                // again. (Memory side effects were already injected in
                // place, below.)
                schedule.skip(
                    ev.tid,
                    ev.pc,
                    st.regs.iter().map(|(r, v)| (*r, *v)).collect(),
                );
                st.excluded = false;
                st.regs.clear();
            } else if !st.excluded && starts.contains(&(ev.tid, ev.pc, ev.instance)) {
                st.excluded = true;
            }

            if st.excluded {
                stats.excluded += 1;
                for (loc, val) in ev.defs.iter() {
                    match loc {
                        Loc::Reg(r) => {
                            st.regs.insert(r, val);
                        }
                        Loc::Mem(a) => {
                            // Inject at the write's original position in
                            // the global order, so included reads of other
                            // threads observe the recorded values.
                            schedule.inject(a, val);
                        }
                    }
                }
            } else {
                stats.included += 1;
                schedule.step(ev.tid);
                if let Some(v) = ev.sys_result {
                    let t = ev.tid as usize;
                    if syscalls.len() <= t {
                        syscalls.resize_with(t + 1, Vec::new);
                    }
                    syscalls[t].push(v);
                }
            }
            ToolControl::Continue
        };

        let mut replayer = Replayer::new(Arc::clone(&program), region_pinball);
        match replayer.run(&mut on_event) {
            ReplayStatus::Completed | ReplayStatus::Trapped(_) => {}
            ReplayStatus::Paused => unreachable!("relog tool never pauses"),
        }

        // Threads whose exclusion span reaches the region end: flush a final
        // Skip so their side effects and final pc still materialise.
        let mut open: Vec<Tid> = threads
            .iter()
            .filter(|(_, st)| st.excluded)
            .map(|(tid, _)| *tid)
            .collect();
        open.sort_unstable();
        for tid in open {
            let st = threads.get_mut(&tid).expect("tid collected above");
            let final_pc = replayer.exec().thread(tid).pc;
            schedule.skip(
                tid,
                final_pc,
                st.regs.iter().map(|(r, v)| (*r, *v)).collect(),
            );
        }
    }

    let events: Vec<ReplayEvent> = schedule.finish();
    let pinball = Pinball {
        meta: PinballMeta {
            program: region_pinball.meta.program.clone(),
            region: format!("{} [slice]", region_pinball.meta.region),
            is_slice: true,
        },
        snapshot: region_pinball.snapshot.clone(),
        events,
        syscalls,
        exit: region_pinball.exit,
    };
    (pinball, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use minivm::{assemble, LiveEnv, NullTool, Reg, RoundRobin};

    use crate::logger::record_whole_program;

    /// Program where a middle block computes values the tail never uses.
    const PROG: &str = r"
        .data
        out: .word 0
        .text
        .func main
            movi r1, 10      ; pc 0 : included
            movi r2, 0       ; pc 1 : included
            ; --- irrelevant block (pcs 2..5) ---
            movi r3, 1       ; pc 2
            addi r3, r3, 2   ; pc 3
            muli r3, r3, 3   ; pc 4
            movi r4, 7       ; pc 5
            ; --- end irrelevant block ---
            add  r2, r2, r1  ; pc 6 : included
            la   r5, out     ; pc 7
            store r2, r5, 0  ; pc 8
            halt             ; pc 9
        .endfunc
        ";

    fn record() -> (Arc<minivm::Program>, Pinball) {
        let program = Arc::new(assemble(PROG).unwrap());
        let rec = record_whole_program(
            &program,
            &mut RoundRobin::new(8),
            &mut LiveEnv::new(0),
            10_000,
            "relog-demo",
        )
        .unwrap();
        (program, rec.pinball)
    }

    #[test]
    fn relog_skips_block_and_preserves_result() {
        let (program, region) = record();
        let exclusions = vec![ExclusionRegion {
            tid: 0,
            start_pc: 2,
            start_instance: 1,
            end_pc: 6,
            end_instance: 1,
        }];
        let (slice_pb, stats) = relog(Arc::clone(&program), &region, &exclusions);
        assert!(slice_pb.meta.is_slice);
        assert_eq!(stats.excluded, 4);
        assert_eq!(stats.included, region.logged_instructions() - 4);

        let mut rep = Replayer::new(Arc::clone(&program), &slice_pb);
        rep.run(&mut NullTool);
        let out = program.symbol("out").unwrap();
        assert_eq!(rep.exec().read_mem(out), 10, "included computation intact");
        assert_eq!(
            rep.replayed_instructions(),
            stats.included,
            "excluded instructions are never executed during slice replay"
        );
        // Side effects of the excluded block were injected.
        assert_eq!(rep.exec().read_reg(0, Reg(3)), 9);
        assert_eq!(rep.exec().read_reg(0, Reg(4)), 7);
    }

    #[test]
    fn relog_without_exclusions_is_identity_modulo_meta() {
        let (program, region) = record();
        let (slice_pb, stats) = relog(Arc::clone(&program), &region, &[]);
        assert_eq!(stats.excluded, 0);
        assert_eq!(slice_pb.events, region.events);
        assert_eq!(slice_pb.syscalls, region.syscalls);
    }

    #[test]
    fn span_open_at_region_end_flushes_final_skip() {
        let (program, region) = record();
        // Exclude from pc 7 to a marker that never occurs (pc 0 instance 2).
        let exclusions = vec![ExclusionRegion {
            tid: 0,
            start_pc: 7,
            start_instance: 1,
            end_pc: 0,
            end_instance: 2,
        }];
        let (slice_pb, _) = relog(Arc::clone(&program), &region, &exclusions);
        assert!(
            matches!(
                slice_pb.events.last(),
                Some(ReplayEvent::Skip { tid: 0, .. })
            ),
            "open span must end with a Skip, got {:?}",
            slice_pb.events.last()
        );
        // The store's memory side effect was injected in place.
        let out = program.symbol("out").unwrap();
        let injected = slice_pb.events.iter().any(|e| {
            matches!(e, ReplayEvent::Inject { mems } if mems.iter().any(|(a, v)| *a == out && *v == 10))
        });
        assert!(injected, "excluded store injected: {:?}", slice_pb.events);
    }
}

#[cfg(test)]
mod multi_span_tests {
    use super::*;
    use minivm::{assemble, LiveEnv, NullTool, RoundRobin};
    use std::sync::Arc;

    use crate::logger::record_whole_program;
    use crate::replay::Replayer;

    /// Two separate exclusion spans in one thread, with included code
    /// between them.
    #[test]
    fn multiple_spans_in_one_thread() {
        let program = Arc::new(
            assemble(
                r"
                .data
                out: .word 0
                .text
                .func main
                    movi r1, 1      ; 0 included
                    movi r8, 100    ; 1 EXCLUDED span A
                    addi r8, r8, 1  ; 2 EXCLUDED span A
                    addi r1, r1, 10 ; 3 included
                    mul  r8, r8, r8 ; 4 EXCLUDED span B
                    addi r1, r1, 100; 5 included
                    la r2, out      ; 6 included
                    store r1, r2, 0 ; 7 included
                    halt            ; 8
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
            "multi-span",
        )
        .unwrap();
        let exclusions = vec![
            ExclusionRegion {
                tid: 0,
                start_pc: 1,
                start_instance: 1,
                end_pc: 3,
                end_instance: 1,
            },
            ExclusionRegion {
                tid: 0,
                start_pc: 4,
                start_instance: 1,
                end_pc: 5,
                end_instance: 1,
            },
        ];
        let (slice_pb, stats) = relog(Arc::clone(&program), &rec.pinball, &exclusions);
        assert_eq!(stats.excluded, 3);
        let skips = slice_pb
            .events
            .iter()
            .filter(|e| matches!(e, ReplayEvent::Skip { .. }))
            .count();
        assert_eq!(skips, 2, "one Skip per span: {:?}", slice_pb.events);

        let mut rep = Replayer::new(Arc::clone(&program), &slice_pb);
        rep.run(&mut NullTool);
        let out = program.symbol("out").unwrap();
        assert_eq!(rep.exec().read_mem(out), 111, "included chain intact");
        assert_eq!(
            rep.exec().read_reg(0, minivm::Reg(8)),
            101 * 101,
            "both spans' register side effects injected"
        );
        assert_eq!(
            rep.replayed_instructions(),
            rec.pinball.logged_instructions() - 3
        );
    }

    /// An exclusion span whose start marker never fires leaves the log
    /// untouched.
    #[test]
    fn unmatched_start_marker_is_inert() {
        let program = Arc::new(
            assemble(
                r"
                .text
                .func main
                    movi r1, 1
                    halt
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
            "inert",
        )
        .unwrap();
        let exclusions = vec![ExclusionRegion {
            tid: 0,
            start_pc: 0,
            start_instance: 99, // never reached
            end_pc: 1,
            end_instance: 1,
        }];
        let (slice_pb, stats) = relog(Arc::clone(&program), &rec.pinball, &exclusions);
        assert_eq!(stats.excluded, 0);
        assert_eq!(slice_pb.events, rec.pinball.events);
    }
}
