//! Property tests over randomly generated multi-threaded programs.
//!
//! The invariants checked here are the system's load-bearing guarantees:
//!
//! 1. **Replay determinism** — two replays of the same pinball produce
//!    bit-identical final state (PinPlay's repeatability guarantee);
//! 2. **Replay fidelity** — the replay retires exactly the logged number
//!    of instructions and reproduces the live run's output;
//! 3. **Global-trace validity** — the global trace is the replay's retire
//!    order (record `i` has id `i` and is the `i`-th instruction an
//!    independent replay retires), which honours program order, conflict
//!    order and spawn order by construction;
//! 4. **Indexed ≡ naive** — the dependence index answers every slice
//!    exactly as the naive backward scan does;
//! 5. **Slice faithfulness** — replaying only the slice reproduces the
//!    criterion's value.

use std::sync::Arc;

use proptest::prelude::*;

use minivm::builder::ProgramBuilder;
use minivm::{
    BinOp, Cond, InsEvent, Instr, LiveEnv, NullTool, Program, RandomSched, Reg, ToolControl,
};
use pinplay::{record_whole_program, Replayer};
use slicer::{
    compute_slice_indexed, compute_slice_naive, Criterion, DepIndex, SliceOptions, SliceSession,
    SlicerOptions,
};

/// One operation of a generated worker body.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// `r1 = r1 op k`
    Arith(BinOp, i8),
    /// `r1 += shared[i]`
    ReadShared(u8),
    /// `shared[i] = r1`
    WriteShared(u8),
    /// `xadd shared[i], r1`
    AtomicAdd(u8),
    /// lock-protected `shared[i] += 1`
    LockedIncr(u8),
    /// `print r1`
    Print,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (
            prop_oneof![Just(BinOp::Add), Just(BinOp::Sub), Just(BinOp::Xor)],
            -4i8..5
        )
            .prop_map(|(op, k)| Op::Arith(op, k)),
        (0u8..4).prop_map(Op::ReadShared),
        (0u8..4).prop_map(Op::WriteShared),
        (0u8..4).prop_map(Op::AtomicAdd),
        (0u8..4).prop_map(Op::LockedIncr),
        Just(Op::Print),
    ]
}

/// Builds a program: main spawns `bodies.len()` workers (each running its
/// op list over shared cells), joins them, then prints every shared cell.
fn build_program(bodies: &[Vec<Op>]) -> Arc<Program> {
    let mut b = ProgramBuilder::new();
    let shared = b.alloc_data("shared", 4);
    let mutex = b.alloc_data("mutex", 1);

    let worker_labels: Vec<_> = (0..bodies.len()).map(|_| b.label()).collect();

    b.begin_func("main");
    // Spawn workers with their index as argument.
    for (i, &wl) in worker_labels.iter().enumerate() {
        b.ins(Instr::MovI {
            dst: Reg(1),
            imm: i as i64 + 1,
        });
        b.ins_to(
            Instr::Spawn {
                dst: Reg(2),
                entry: 0,
                arg: Reg(1),
            },
            wl,
        );
        b.ins(Instr::Mov {
            dst: Reg(i as u8 + 3),
            src: Reg(2),
        });
    }
    for i in 0..bodies.len() {
        b.ins(Instr::Join {
            tid: Reg(i as u8 + 3),
        });
    }
    for i in 0..4 {
        b.ins(Instr::MovI {
            dst: Reg(1),
            imm: (shared + i) as i64,
        });
        b.ins(Instr::Load {
            dst: Reg(2),
            base: Reg(1),
            off: 0,
        });
        b.ins(Instr::Print { src: Reg(2) });
    }
    b.ins(Instr::Halt);
    b.end_func();

    for (body, &wl) in bodies.iter().zip(&worker_labels) {
        b.begin_func(&format!("worker{}", wl == worker_labels[0]));
        b.bind(wl);
        // r1 starts as the worker index (passed in r0).
        b.ins(Instr::Mov {
            dst: Reg(1),
            src: Reg(0),
        });
        for &op in body {
            match op {
                Op::Arith(binop, k) => {
                    b.ins(Instr::BinI {
                        op: binop,
                        dst: Reg(1),
                        a: Reg(1),
                        imm: i64::from(k),
                    });
                }
                Op::ReadShared(i) => {
                    b.ins(Instr::MovI {
                        dst: Reg(2),
                        imm: (shared + u64::from(i)) as i64,
                    });
                    b.ins(Instr::Load {
                        dst: Reg(3),
                        base: Reg(2),
                        off: 0,
                    });
                    b.ins(Instr::Bin {
                        op: BinOp::Add,
                        dst: Reg(1),
                        a: Reg(1),
                        b: Reg(3),
                    });
                }
                Op::WriteShared(i) => {
                    b.ins(Instr::MovI {
                        dst: Reg(2),
                        imm: (shared + u64::from(i)) as i64,
                    });
                    b.ins(Instr::Store {
                        src: Reg(1),
                        base: Reg(2),
                        off: 0,
                    });
                }
                Op::AtomicAdd(i) => {
                    b.ins(Instr::MovI {
                        dst: Reg(2),
                        imm: (shared + u64::from(i)) as i64,
                    });
                    b.ins(Instr::AtomicAdd {
                        dst: Reg(3),
                        addr: Reg(2),
                        val: Reg(1),
                    });
                }
                Op::LockedIncr(i) => {
                    b.ins(Instr::MovI {
                        dst: Reg(4),
                        imm: mutex as i64,
                    });
                    b.ins(Instr::Lock { addr: Reg(4) });
                    b.ins(Instr::MovI {
                        dst: Reg(2),
                        imm: (shared + u64::from(i)) as i64,
                    });
                    b.ins(Instr::Load {
                        dst: Reg(3),
                        base: Reg(2),
                        off: 0,
                    });
                    b.ins(Instr::BinI {
                        op: BinOp::Add,
                        dst: Reg(3),
                        a: Reg(3),
                        imm: 1,
                    });
                    b.ins(Instr::Store {
                        src: Reg(3),
                        base: Reg(2),
                        off: 0,
                    });
                    b.ins(Instr::Unlock { addr: Reg(4) });
                }
                Op::Print => {
                    b.ins(Instr::Print { src: Reg(1) });
                }
            }
        }
        b.ins(Instr::Halt);
        b.end_func();
    }
    Arc::new(b.finish().expect("generated program is valid"))
}

fn scenario() -> impl Strategy<Value = (Vec<Vec<Op>>, u64, u64)> {
    (
        proptest::collection::vec(proptest::collection::vec(op_strategy(), 3..20), 1..4),
        any::<u64>(), // scheduler seed
        any::<u64>(), // environment seed
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn replay_is_deterministic((bodies, sched_seed, env_seed) in scenario()) {
        let program = build_program(&bodies);
        let rec = record_whole_program(
            &program,
            &mut RandomSched::new(sched_seed, 4),
            &mut LiveEnv::new(env_seed),
            1_000_000,
            "prop",
        ).expect("records");

        let run_once = || {
            let mut rep = Replayer::new(Arc::clone(&program), &rec.pinball);
            rep.run(&mut NullTool);
            (rep.exec().output().to_vec(), rep.exec().snapshot(), rep.replayed_instructions())
        };
        let a = run_once();
        let b = run_once();
        prop_assert_eq!(&a.0, &b.0, "identical output");
        prop_assert_eq!(&a.1, &b.1, "bit-identical final state");
        prop_assert_eq!(a.2, rec.pinball.logged_instructions(), "exact instruction count");
    }

    #[test]
    fn global_trace_is_topologically_valid((bodies, sched_seed, env_seed) in scenario()) {
        let program = build_program(&bodies);
        let rec = record_whole_program(
            &program,
            &mut RandomSched::new(sched_seed, 3),
            &mut LiveEnv::new(env_seed),
            1_000_000,
            "prop",
        ).expect("records");
        let session = SliceSession::collect(
            Arc::clone(&program),
            &rec.pinball,
            SlicerOptions::default(),
        );
        // An independent replay's retire order: (tid, pc) of each retired
        // instruction.
        let mut retired = Vec::new();
        let mut rep = Replayer::new(Arc::clone(&program), &rec.pinball);
        rep.run(&mut |ev: &InsEvent| {
            retired.push((ev.tid, ev.pc));
            ToolControl::Continue
        });
        let records = session.trace().records();
        prop_assert_eq!(records.len(), retired.len());
        for (i, (r, &(tid, pc))) in records.iter().zip(&retired).enumerate() {
            prop_assert_eq!(r.id, i as u64, "record {} has id {}", i, r.id);
            prop_assert_eq!((r.tid, r.pc), (tid, pc), "record {} is the {}-th retired", i, i);
        }
    }

    #[test]
    fn indexed_equals_naive_slicing((bodies, sched_seed, env_seed) in scenario()) {
        let program = build_program(&bodies);
        let rec = record_whole_program(
            &program,
            &mut RandomSched::new(sched_seed, 5),
            &mut LiveEnv::new(env_seed),
            1_000_000,
            "prop",
        ).expect("records");
        let session = SliceSession::collect(
            Arc::clone(&program),
            &rec.pinball,
            SlicerOptions::default(),
        );
        // Slice at the last few records with both traversals; one index
        // serves all three.
        let index = DepIndex::build(session.trace(), session.pairs(), &SliceOptions::default());
        let ids: Vec<u64> = session
            .trace()
            .records()
            .iter()
            .map(|r| r.id)
            .collect();
        for &id in ids.iter().rev().take(3) {
            let criterion = Criterion::Record { id };
            let indexed = compute_slice_indexed(&index, criterion);
            let naive = compute_slice_naive(session.trace(), criterion, session.pairs(), SliceOptions::default());
            prop_assert_eq!(&indexed.records, &naive.records, "same slice membership");
            prop_assert_eq!(&indexed.data_edges, &naive.data_edges, "same data edges");
            prop_assert_eq!(&indexed.control_edges, &naive.control_edges, "same control edges");
        }
    }

    #[test]
    fn slice_replay_reproduces_included_prints((bodies, sched_seed, env_seed) in scenario()) {
        let program = build_program(&bodies);
        let rec = record_whole_program(
            &program,
            &mut RandomSched::new(sched_seed, 4),
            &mut LiveEnv::new(env_seed),
            1_000_000,
            "prop",
        ).expect("records");

        let session = SliceSession::collect(
            Arc::clone(&program),
            &rec.pinball,
            SlicerOptions::default(),
        );
        // Criterion: the print with the highest retire order (ids are the
        // region-relative retire sequence, so max id = last executed).
        let Some(crit) = session
            .trace()
            .records()
            .iter()
            .filter(|r| matches!(r.instr, Instr::Print { .. }))
            .max_by_key(|r| r.id)
            .map(|r| r.id)
        else { return Ok(()); };
        let slice = session.slice(Criterion::Record { id: crit });

        // Faithfulness: replaying only the slice must print exactly the
        // recorded values of the prints included in the slice, in their
        // recorded execution order.
        let mut expected: Vec<(u64, i64)> = slice
            .records
            .iter()
            .filter_map(|&id| {
                let r = session.trace().record(id)?;
                if !matches!(r.instr, Instr::Print { .. }) {
                    return None;
                }
                let (_, v) = r.use_keys(false).next()?;
                Some((r.id, v))
            })
            .collect();
        expected.sort_unstable();
        let expected: Vec<i64> = expected.into_iter().map(|(_, v)| v).collect();

        let (slice_pb, _, _) = session.make_slice_pinball(&rec.pinball, &slice);
        let mut rep = Replayer::new(Arc::clone(&program), &slice_pb);
        rep.run(&mut NullTool);
        prop_assert_eq!(
            rep.exec().output(),
            &expected[..],
            "slice-only replay prints exactly the recorded values of the \
             slice's print statements"
        );
    }

    #[test]
    fn pinball_serialization_roundtrip((bodies, sched_seed, env_seed) in scenario()) {
        let program = build_program(&bodies);
        let rec = record_whole_program(
            &program,
            &mut RandomSched::new(sched_seed, 4),
            &mut LiveEnv::new(env_seed),
            1_000_000,
            "prop",
        ).expect("records");
        let bytes = rec.pinball.to_bytes().expect("serializes");
        let back = pinplay::Pinball::from_bytes(&bytes).expect("roundtrips");
        prop_assert_eq!(back, rec.pinball);
    }
}

// Keep one deterministic smoke test outside proptest so failures are easy
// to bisect.
#[test]
fn generator_produces_runnable_programs() {
    let bodies = vec![
        vec![Op::Arith(BinOp::Add, 3), Op::LockedIncr(0), Op::Print],
        vec![Op::ReadShared(0), Op::AtomicAdd(1), Op::WriteShared(2)],
    ];
    let program = build_program(&bodies);
    let rec = record_whole_program(
        &program,
        &mut RandomSched::new(7, 4),
        &mut LiveEnv::new(7),
        1_000_000,
        "smoke",
    )
    .expect("records");
    assert!(rec.region_instructions > 10);
    // Unused import silencer: Cond is used by generated branch code in
    // future extensions.
    let _ = Cond::Eq;
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Programs whose only shared-memory accesses are atomic RMWs or
    /// lock-protected increments are race-free under any schedule; adding
    /// plain read/write ops may race. The detector must never flag the
    /// former.
    #[test]
    fn synchronised_programs_never_race(
        bodies in proptest::collection::vec(
            proptest::collection::vec(
                prop_oneof![
                    (prop_oneof![Just(BinOp::Add), Just(BinOp::Xor)], -4i8..5)
                        .prop_map(|(op, k)| Op::Arith(op, k)),
                    (0u8..4).prop_map(Op::AtomicAdd),
                    (0u8..4).prop_map(Op::LockedIncr),
                ],
                3..15,
            ),
            1..4,
        ),
        seed in any::<u64>(),
    ) {
        let program = build_program(&bodies);
        // NOTE: main's final prints read the shared cells, but only after
        // joining every worker — also race-free.
        let races = maple::find_races(&program, seed, seed, 1_000_000);
        prop_assert!(races.is_empty(), "false positive: {races:?}");
    }
}
