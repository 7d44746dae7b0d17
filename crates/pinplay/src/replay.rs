//! The replayer: deterministic re-execution of a pinball.
//!
//! Replay reproduces the recorded execution exactly: the schedule log is
//! followed step for step (which reproduces the shared-memory access order,
//! since the VM is sequentially consistent), and syscall results are injected
//! from the log instead of the environment. PinPlay's "repeatability
//! guarantee" (paper §1) is this property; the property tests in the
//! `slicer` and root crates check it end to end.

use std::sync::Arc;

use minivm::{Executor, Program, ScriptedEnv, Tool, ToolControl, VmError};

use crate::container::{PinballContainer, ReplayCheckpoint};
use crate::pinball::{Pinball, RecordedExit, ReplayEvent};

/// Why a replay stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayStatus {
    /// The replay log was fully consumed.
    Completed,
    /// The replayed execution trapped (reproducing the recorded bug).
    Trapped(VmError),
    /// The tool asked to pause; call [`Replayer::run`] again to resume.
    Paused,
}

/// How a [`Replayer::seek_to`] reached its target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeekOutcome {
    /// The requested retired-instruction position.
    pub target: u64,
    /// `Some(instr)` when an embedded checkpoint at `instr` was restored.
    pub restored_from: Option<u64>,
    /// Whether the seek had to restart replay from the region snapshot
    /// (no usable checkpoint — the O(region) fallback).
    pub full_restart: bool,
    /// Instructions replayed to get from the chosen start to the target.
    pub replayed: u64,
}

/// Replays a pinball, optionally under instrumentation.
///
/// `Replayer` is `Clone`: a clone is a *checkpoint* — an independent
/// replay positioned at the same point, which is what the debugger's
/// reverse-execution support snapshots (the paper's §8 sketch: reverse
/// debugging via "PinPlay's user-level check-pointing feature").
#[derive(Debug, Clone)]
pub struct Replayer {
    exec: Executor,
    /// The recording being replayed. Clones of this replayer, and every
    /// replayer built by [`Replayer::shared`] from the same container,
    /// share this one copy of the event log.
    recording: Arc<PinballContainer>,
    pos: usize,
    done_in_event: u64,
    env: ScriptedEnv,
}

impl Replayer {
    /// Prepares a replay of `pinball` for `program`. The pinball is copied
    /// once; clones of the replayer share that copy.
    pub fn new(program: Arc<Program>, pinball: &Pinball) -> Replayer {
        Replayer::shared(program, Arc::new(PinballContainer::new(pinball.clone())))
    }

    /// Prepares a replay that reads the event log from a shared container
    /// — clones of the `Arc`, not of the log.
    pub fn shared(program: Arc<Program>, container: Arc<PinballContainer>) -> Replayer {
        let pinball = &container.pinball;
        let exec = Executor::from_snapshot(program, &pinball.snapshot);
        let mut env = ScriptedEnv::new();
        for (tid, results) in pinball.syscalls.iter().enumerate() {
            for &v in results {
                env.push(tid as u32, v);
            }
        }
        Replayer {
            exec,
            recording: container,
            pos: 0,
            done_in_event: 0,
            env,
        }
    }

    /// The executor being replayed (for state inspection — the debugger's
    /// `print`/`x` commands read through this).
    pub fn exec(&self) -> &Executor {
        &self.exec
    }

    /// Whether the whole replay log has been consumed.
    pub fn finished(&self) -> bool {
        self.pos >= self.recording.pinball.events.len()
    }

    /// Instructions retired so far in this replay.
    pub fn replayed_instructions(&self) -> u64 {
        self.exec.seq()
    }

    /// The exit recorded at log time, for divergence checking.
    pub fn expected_exit(&self) -> RecordedExit {
        self.recording.pinball.exit
    }

    /// Replays until the log is consumed, the recorded trap reproduces, or
    /// `tool` requests a pause. Resumable: calling `run` again continues
    /// from the pause point.
    ///
    /// # Panics
    ///
    /// Panics on replay divergence — a scheduled thread that is not
    /// runnable, or a trap that does not match the recorded exit. Divergence
    /// indicates a broken pinball (or a bug in the logger) and must not be
    /// silently ignored: determinism is the tool's core guarantee.
    pub fn run(&mut self, tool: &mut dyn Tool) -> ReplayStatus {
        self.replay_until(self.recording.pinball.events.len(), tool)
    }

    /// The replay loop [`Replayer::run`] and [`Replayer::run_to_event`]
    /// share: applies events until the log position reaches event `end`,
    /// handing every retired instruction to `tool`. Stops early when
    /// `tool` asks to pause or the recorded trap reproduces.
    fn replay_until<T: Tool + ?Sized>(&mut self, end: usize, tool: &mut T) -> ReplayStatus {
        let events = &self.recording.pinball.events;
        while self.pos < end {
            match &events[self.pos] {
                ReplayEvent::Skip { tid, to_pc, regs } => {
                    // Excluded code region: teleport past it and restore its
                    // register side effects (paper Fig. 6(b)).
                    for &(r, v) in regs {
                        self.exec.inject_reg(*tid, r, v);
                    }
                    self.exec.set_pc(*tid, *to_pc);
                    self.pos += 1;
                }
                ReplayEvent::Inject { mems } => {
                    // Memory side effects of excluded code, at their
                    // original position in the global order.
                    for &(a, v) in mems {
                        self.exec.inject_mem(a, v);
                    }
                    self.pos += 1;
                }
                ReplayEvent::Run { tid, steps } => {
                    if self.done_in_event >= *steps {
                        self.pos += 1;
                        self.done_in_event = 0;
                        continue;
                    }
                    self.done_in_event += 1;
                    match self.exec.step(*tid, &mut self.env) {
                        Ok((ev, _)) => {
                            if tool.on_event(&ev) == ToolControl::Stop {
                                return ReplayStatus::Paused;
                            }
                        }
                        Err((ev, e)) => {
                            let _ = tool.on_event(&ev);
                            assert_eq!(
                                self.recording.pinball.exit,
                                RecordedExit::Trap(e),
                                "replay divergence: unexpected trap {e}"
                            );
                            return ReplayStatus::Trapped(e);
                        }
                    }
                }
            }
        }
        if self.finished() {
            ReplayStatus::Completed
        } else {
            ReplayStatus::Paused
        }
    }

    /// Captures the replayer's full state as a serializable checkpoint.
    /// Restoring it (on a replayer of the *same pinball*) and replaying
    /// forward reproduces this replay exactly — including region-relative
    /// instance/sequence numbering, which a plain snapshot would reset.
    pub fn checkpoint(&self) -> ReplayCheckpoint {
        ReplayCheckpoint {
            instr: self.exec.seq(),
            pos: self.pos,
            done_in_event: self.done_in_event,
            exec: self.exec.save_state(),
            env: self.env.queues(),
        }
    }

    /// Rewinds (or fast-forwards) this replayer to `cp`, which must have
    /// been captured from a replay of the same pinball.
    pub fn restore_checkpoint(&mut self, cp: &ReplayCheckpoint) {
        self.exec = Executor::from_state(Arc::clone(self.exec.program()), &cp.exec);
        self.env = ScriptedEnv::from_queues(cp.env.clone());
        self.pos = cp.pos;
        self.done_in_event = cp.done_in_event;
    }

    /// A 64-bit digest (FNV-1a over the serialized [`ReplayCheckpoint`]) of
    /// the complete replay state at the current position: machine state,
    /// remaining syscall queues, and log cursor. Replay determinism makes
    /// the state a pure function of the pinball and the retired-instruction
    /// count, so two replayers of the same pinball that retired the same
    /// number of instructions digest identically — however they got there
    /// (straight-line replay, checkpoint restore, or a seek). The
    /// reverse-execution property tests use this to assert that a backward
    /// step lands on exactly the corresponding forward state.
    pub fn state_digest(&self) -> u64 {
        let bytes = serde_json::to_vec(&self.checkpoint()).expect("checkpoint serializes");
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in &bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Restores `cp` and replays forward to `target` retired instructions
    /// (uninstrumented). Returns the number of instructions replayed.
    pub fn run_from_checkpoint(&mut self, cp: &ReplayCheckpoint, target: u64) -> u64 {
        self.restore_checkpoint(cp);
        let todo = target.saturating_sub(cp.instr);
        if todo > 0 {
            self.run_steps(todo, &mut minivm::NullTool);
        }
        self.replayed_instructions() - cp.instr
    }

    /// Replays at most `n` further instructions. Returns
    /// [`ReplayStatus::Paused`] when the budget is exhausted with log left.
    pub fn run_steps(&mut self, n: u64, tool: &mut dyn Tool) -> ReplayStatus {
        struct Bounded<'a> {
            left: u64,
            inner: &'a mut dyn Tool,
        }
        impl Tool for Bounded<'_> {
            fn on_event(&mut self, ev: &minivm::InsEvent) -> ToolControl {
                let control = self.inner.on_event(ev);
                self.left -= 1;
                if self.left == 0 || control == ToolControl::Stop {
                    ToolControl::Stop
                } else {
                    ToolControl::Continue
                }
            }
        }
        if n == 0 {
            return if self.finished() {
                ReplayStatus::Completed
            } else {
                ReplayStatus::Paused
            };
        }
        self.run(&mut Bounded {
            left: n,
            inner: tool,
        })
    }

    /// Replays (uninstrumented) until the log position reaches event index
    /// `target`, leaving the replayer exactly at that event boundary —
    /// trailing zero-instruction events (`Skip`/`Inject`) before `target`
    /// are consumed too, so [`Replayer::checkpoint`] taken here has
    /// `pos == target` and `done_in_event == 0`. This is how the container
    /// captures its embedded chunk-boundary checkpoints.
    ///
    /// # Panics
    ///
    /// Panics on replay divergence, as [`Replayer::run`].
    pub fn run_to_event(&mut self, target: usize) -> ReplayStatus {
        let target = target.min(self.recording.pinball.events.len());
        self.replay_until(target, &mut minivm::NullTool)
    }

    /// Repositions the replay at exactly `target` retired instructions,
    /// using the cheapest available path: roll forward from the current
    /// position, restore the nearest preceding embedded checkpoint and
    /// replay the tail chunk, or — only when seeking backwards past every
    /// checkpoint — restart from the region snapshot. This is what turns
    /// cyclic-debugging re-runs from O(region) into O(chunk).
    ///
    /// `container` must hold the same pinball this replayer was built from.
    pub fn seek_to(&mut self, container: &PinballContainer, target: u64) -> SeekOutcome {
        let current = self.replayed_instructions();
        let best = container.nearest_checkpoint(target);
        let usable = best.filter(|cp| current > target || cp.instr > current);
        if let Some(cp) = usable {
            let replayed = self.run_from_checkpoint(cp, target);
            return SeekOutcome {
                target,
                restored_from: Some(cp.instr),
                full_restart: false,
                replayed,
            };
        }
        if current <= target {
            self.run_steps(target - current, &mut minivm::NullTool);
            return SeekOutcome {
                target,
                restored_from: None,
                full_restart: false,
                replayed: self.replayed_instructions() - current,
            };
        }
        // Seeking backwards with no checkpoint to land on: full restart —
        // reuse the shared recording rather than re-cloning the events.
        *self = Replayer::shared(Arc::clone(self.exec.program()), Arc::clone(&self.recording));
        self.run_steps(target, &mut minivm::NullTool);
        SeekOutcome {
            target,
            restored_from: None,
            full_restart: true,
            replayed: self.replayed_instructions(),
        }
    }

    /// Replays exactly one instruction (the debugger's `stepi`), skipping
    /// over any pending `Skip` events first.
    ///
    /// Returns `None` when the log is exhausted.
    pub fn step(&mut self, tool: &mut dyn Tool) -> Option<ReplayStatus> {
        struct StopAfterOne<'a> {
            inner: &'a mut dyn Tool,
        }
        impl Tool for StopAfterOne<'_> {
            fn on_event(&mut self, ev: &minivm::InsEvent) -> ToolControl {
                let _ = self.inner.on_event(ev);
                ToolControl::Stop
            }
        }
        if self.finished() {
            return None;
        }
        let mut one = StopAfterOne { inner: tool };
        Some(self.run(&mut one))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minivm::{assemble, LiveEnv, NullTool, Reg, RoundRobin};

    use crate::logger::record_whole_program;

    const PROG: &str = r"
        .data
        acc: .word 0
        .text
        .func main
            movi r1, 1
            spawn r2, worker, r1
            movi r1, 2
            spawn r3, worker, r1
            join r2
            join r3
            la r4, acc
            load r5, r4, 0
            rand r6
            print r5
            halt
        .endfunc
        .func worker
            la r1, acc
            xadd r2, r1, r0
            halt
        .endfunc
        ";

    fn record() -> (Arc<minivm::Program>, Pinball) {
        let program = Arc::new(assemble(PROG).unwrap());
        let rec = record_whole_program(
            &program,
            &mut RoundRobin::new(3),
            &mut LiveEnv::new(42),
            100_000,
            "demo",
        )
        .unwrap();
        (program, rec.pinball)
    }

    #[test]
    fn replay_reproduces_final_state() {
        let (program, pinball) = record();
        let mut rep = Replayer::new(Arc::clone(&program), &pinball);
        let status = rep.run(&mut NullTool);
        assert_eq!(status, ReplayStatus::Completed);
        assert!(rep.finished());
        let acc = program.symbol("acc").unwrap();
        assert_eq!(rep.exec().read_mem(acc), 3);
        assert_eq!(rep.exec().output(), &[3]);
    }

    #[test]
    fn two_replays_are_identical() {
        let (program, pinball) = record();
        let run_once = || {
            let mut rep = Replayer::new(Arc::clone(&program), &pinball);
            rep.run(&mut NullTool);
            (
                rep.exec().output().to_vec(),
                rep.exec().read_reg(0, Reg(6)),
                rep.exec().snapshot(),
            )
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1, "recorded rand() result injected identically");
        assert_eq!(a.2, b.2, "bit-identical final state");
    }

    #[test]
    fn replay_matches_live_instruction_count() {
        let (program, pinball) = record();
        let mut rep = Replayer::new(Arc::clone(&program), &pinball);
        rep.run(&mut NullTool);
        assert_eq!(rep.replayed_instructions(), pinball.logged_instructions());
    }

    #[test]
    fn paused_replay_resumes() {
        let (program, pinball) = record();
        let mut rep = Replayer::new(Arc::clone(&program), &pinball);
        let mut n = 0u32;
        let mut stop_after_3 = |_: &minivm::InsEvent| {
            n += 1;
            if n == 3 {
                ToolControl::Stop
            } else {
                ToolControl::Continue
            }
        };
        assert_eq!(rep.run(&mut stop_after_3), ReplayStatus::Paused);
        assert_eq!(rep.replayed_instructions(), 3);
        assert_eq!(rep.run(&mut NullTool), ReplayStatus::Completed);
        assert_eq!(rep.replayed_instructions(), pinball.logged_instructions());
    }

    #[test]
    fn single_stepping_walks_the_whole_log() {
        let (program, pinball) = record();
        let mut rep = Replayer::new(Arc::clone(&program), &pinball);
        let mut count = 0u64;
        while let Some(status) = rep.step(&mut NullTool) {
            match status {
                ReplayStatus::Paused => count += 1,
                ReplayStatus::Completed => break,
                ReplayStatus::Trapped(e) => panic!("unexpected trap {e}"),
            }
        }
        assert_eq!(count, pinball.logged_instructions());
    }

    #[test]
    fn checkpoint_restore_resumes_identically() {
        let (program, pinball) = record();
        // Reference: full replay.
        let mut reference = Replayer::new(Arc::clone(&program), &pinball);
        reference.run(&mut NullTool);

        // Checkpoint mid-replay, finish, rewind, finish again.
        let mut rep = Replayer::new(Arc::clone(&program), &pinball);
        let total = pinball.logged_instructions();
        rep.run_steps(total / 2, &mut NullTool);
        let cp = rep.checkpoint();
        assert_eq!(cp.instr, total / 2);
        assert_eq!(rep.run(&mut NullTool), ReplayStatus::Completed);
        let final_snapshot = rep.exec().snapshot();
        assert_eq!(final_snapshot, reference.exec().snapshot());

        rep.restore_checkpoint(&cp);
        assert_eq!(rep.replayed_instructions(), total / 2);
        assert_eq!(rep.run(&mut NullTool), ReplayStatus::Completed);
        assert_eq!(
            rep.exec().snapshot(),
            final_snapshot,
            "replay after rewind is bit-identical"
        );
        assert_eq!(rep.exec().seq(), reference.exec().seq());
    }

    #[test]
    fn run_to_event_lands_on_exact_boundaries() {
        let (program, pinball) = record();
        for target in [1, pinball.events.len() / 2, pinball.events.len()] {
            let mut rep = Replayer::new(Arc::clone(&program), &pinball);
            rep.run_to_event(target);
            let cp = rep.checkpoint();
            assert_eq!(cp.pos, target);
            assert_eq!(cp.done_in_event, 0);
            let expected: u64 = pinball.events[..target]
                .iter()
                .map(|e| match e {
                    ReplayEvent::Run { steps, .. } => *steps,
                    _ => 0,
                })
                .sum();
            assert_eq!(cp.instr, expected);
        }
    }

    #[test]
    fn seek_to_matches_full_replay_everywhere() {
        let (program, pinball) = record();
        let total = pinball.logged_instructions();
        let container =
            PinballContainer::with_checkpoints(pinball.clone(), &program, total.max(8) / 4);
        assert!(!container.checkpoints.is_empty());
        for target in [0, 1, total / 3, total / 2, total - 1, total] {
            // Reference state at `target` via plain bounded replay.
            let mut reference = Replayer::new(Arc::clone(&program), &pinball);
            reference.run_steps(target, &mut NullTool);

            // Forward seek from scratch.
            let mut rep = Replayer::new(Arc::clone(&program), &pinball);
            let out = rep.seek_to(&container, target);
            assert_eq!(rep.replayed_instructions(), target);
            assert_eq!(rep.exec().snapshot(), reference.exec().snapshot());
            assert!(out.replayed <= target);

            // Backward seek from the end exercises checkpoint restore.
            let mut rep = Replayer::new(Arc::clone(&program), &pinball);
            rep.run(&mut NullTool);
            let out = rep.seek_to(&container, target);
            assert_eq!(rep.replayed_instructions(), target);
            assert_eq!(rep.exec().snapshot(), reference.exec().snapshot());
            if let Some(from) = out.restored_from {
                assert!(from <= target);
                assert_eq!(out.replayed, target - from, "only the tail chunk replays");
            }
        }
    }

    #[test]
    fn seek_backwards_without_checkpoints_restarts() {
        let (program, pinball) = record();
        let total = pinball.logged_instructions();
        let container = PinballContainer::new(pinball.clone());
        let mut rep = Replayer::new(Arc::clone(&program), &pinball);
        rep.run(&mut NullTool);
        let out = rep.seek_to(&container, total / 2);
        assert!(out.full_restart);
        assert_eq!(out.replayed, total / 2);
        assert_eq!(rep.replayed_instructions(), total / 2);
    }

    #[test]
    fn skip_event_injects_and_teleports() {
        let program = Arc::new(
            assemble(
                r"
                .data
                x: .word 0
                .text
                .func main
                    movi r1, 11    ; pc 0 (will be 'excluded')
                    nop            ; pc 1
                    print r1       ; pc 2
                    halt
                .endfunc
                ",
            )
            .unwrap(),
        );
        let exec = Executor::new(Arc::clone(&program));
        let snapshot = exec.snapshot();
        let x = program.symbol("x").unwrap();
        let pinball = Pinball {
            meta: crate::pinball::PinballMeta {
                is_slice: true,
                ..Default::default()
            },
            snapshot,
            events: vec![
                ReplayEvent::Inject { mems: vec![(x, 5)] },
                ReplayEvent::Skip {
                    tid: 0,
                    to_pc: 2,
                    regs: vec![(Reg(1), 99)],
                },
                ReplayEvent::Run { tid: 0, steps: 2 },
            ],
            syscalls: vec![],
            exit: RecordedExit::AllHalted,
        };
        let mut rep = Replayer::new(Arc::clone(&program), &pinball);
        assert_eq!(rep.run(&mut NullTool), ReplayStatus::Completed);
        assert_eq!(rep.exec().output(), &[99], "injected register observed");
        assert_eq!(rep.exec().read_mem(x), 5, "injected memory observed");
        assert_eq!(rep.replayed_instructions(), 2, "excluded code skipped");
    }
}
