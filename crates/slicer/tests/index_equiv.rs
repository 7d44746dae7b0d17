//! Differential property test for the reusable dependence index.
//!
//! Random multi-threaded minivm programs — straight-line arithmetic,
//! shared-buffer loads/stores/atomics, forward branches (dynamic control
//! dependences), and push/pop helper calls (save/restore pairs, §5.2) —
//! are recorded under random schedules and sliced two ways:
//!
//! * [`compute_slice_indexed`] over a prebuilt [`DepIndex`],
//! * [`compute_slice_naive`] (the brute-force oracle).
//!
//! For every random criterion — record and value form — and every option
//! combination (defaults, §5.2 pruning off, prune-keys, both) the two
//! must agree exactly on records, data edges, and control edges. One
//! index instance serves all criteria and all records, which is the
//! reuse the tentpole optimization depends on.
//!
//! Programs also read `rand` syscalls, and some end in a trap: an
//! `assert` in main or in the workers on a value that is zero about half
//! the time. Every slice is then relogged both ways — emitted from the
//! trace by [`SliceSession::make_slice_pinball`], and by the replaying
//! [`relog`] under the slice's [`exclusion_regions`] — and the two slice
//! pinballs and their statistics must be equal.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;

use proptest::collection::vec as prop_vec;
use proptest::prelude::*;

use minivm::{assemble, LiveEnv, RandomSched, Reg};
use pinplay::{record_whole_program, relog};
use slicer::{
    compute_slice_indexed, compute_slice_naive, exclusion_regions, Criterion, DepIndex, LocKey,
    RecordId, Slice, SliceOptions, SliceSession, SlicerOptions,
};

/// One generated operation. Registers r1–r6 are data registers; r8 holds
/// the shared buffer base; r7 is helper scratch; r10.. hold thread ids.
#[derive(Debug, Clone)]
enum Op {
    MovI {
        dst: u8,
        imm: i8,
    },
    Bin {
        op: &'static str,
        dst: u8,
        a: u8,
        b: u8,
    },
    AddI {
        dst: u8,
        a: u8,
        imm: i8,
    },
    Load {
        dst: u8,
        off: u8,
    },
    Store {
        src: u8,
        off: u8,
    },
    XAdd {
        dst: u8,
        val: u8,
    },
    /// Forward branch over the next `len` ops: a dynamic control
    /// dependence for everything it guards.
    Guard {
        a: u8,
        imm: i8,
        len: u8,
    },
    /// Call the push/pop helper, producing save/restore pairs.
    CallHelper,
    /// Read a `rand` syscall.
    Rand {
        dst: u8,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let r = || 1u8..7;
    prop_oneof![
        (r(), any::<i8>()).prop_map(|(dst, imm)| Op::MovI { dst, imm }),
        (
            prop_oneof![Just("add"), Just("sub"), Just("mul"), Just("xor")],
            r(),
            r(),
            r()
        )
            .prop_map(|(op, dst, a, b)| Op::Bin { op, dst, a, b }),
        (r(), r(), any::<i8>()).prop_map(|(dst, a, imm)| Op::AddI { dst, a, imm }),
        (r(), 0u8..8).prop_map(|(dst, off)| Op::Load { dst, off }),
        (r(), 0u8..8).prop_map(|(src, off)| Op::Store { src, off }),
        (r(), r()).prop_map(|(dst, val)| Op::XAdd { dst, val }),
        (r(), -4i8..5, 1u8..6).prop_map(|(a, imm, len)| Op::Guard { a, imm, len }),
        Just(Op::CallHelper),
        r().prop_map(|dst| Op::Rand { dst }),
    ]
}

/// Emits one function body; forward-branch labels are scoped by `fname`.
fn emit_body(out: &mut String, fname: &str, ops: &[Op]) {
    let mut label = 0usize;
    // (ops remaining under the guard, label to place when it closes)
    let mut pending: Vec<(u8, usize)> = Vec::new();
    for op in ops {
        match op {
            Op::MovI { dst, imm } => writeln!(out, "    movi r{dst}, {imm}").unwrap(),
            Op::Bin { op, dst, a, b } => writeln!(out, "    {op} r{dst}, r{a}, r{b}").unwrap(),
            Op::AddI { dst, a, imm } => writeln!(out, "    addi r{dst}, r{a}, {imm}").unwrap(),
            Op::Load { dst, off } => writeln!(out, "    load r{dst}, r8, {off}").unwrap(),
            Op::Store { src, off } => writeln!(out, "    store r{src}, r8, {off}").unwrap(),
            Op::XAdd { dst, val } => writeln!(out, "    xadd r{dst}, r8, r{val}").unwrap(),
            Op::Guard { a, imm, len } => {
                writeln!(out, "    bgei r{a}, {imm}, skip_{fname}_{label}").unwrap();
                pending.push((*len, label));
                label += 1;
                continue; // the guard is not a unit of any enclosing guard
            }
            Op::CallHelper => writeln!(out, "    call helper").unwrap(),
            Op::Rand { dst } => writeln!(out, "    rand r{dst}").unwrap(),
        }
        for (left, _) in pending.iter_mut() {
            *left -= 1;
        }
        pending.retain(|&(left, l)| {
            if left == 0 {
                writeln!(out, "skip_{fname}_{l}:").unwrap();
            }
            left > 0
        });
    }
    for &(_, l) in pending.iter().rev() {
        writeln!(out, "skip_{fname}_{l}:").unwrap();
    }
}

/// Where a program may trap: after main's body or after each worker's,
/// on an `assert` of `r9 = r{reg} & 1`, which fails for an even value.
#[derive(Debug, Clone, Copy)]
enum Trap {
    None,
    Main { reg: u8 },
    Workers { reg: u8 },
}

fn trap_strategy() -> impl Strategy<Value = Trap> {
    prop_oneof![
        Just(Trap::None),
        (1u8..7).prop_map(|reg| Trap::Main { reg }),
        (1u8..7).prop_map(|reg| Trap::Workers { reg }),
    ]
}

fn emit_assert(out: &mut String, reg: u8) {
    writeln!(out, "    andi r9, r{reg}, 1\n    assert r9").unwrap();
}

/// Assembles a random program: `main` seeds r1–r6, spawns `workers`
/// threads over a shared 8-word buffer, runs its own body, joins, halts
/// — unless `trap` makes main or the workers assert first.
fn program_source(workers: usize, main_ops: &[Op], worker_ops: &[Op], trap: Trap) -> String {
    let mut src = String::new();
    src.push_str(".data\nbuf: .word 0, 0, 0, 0, 0, 0, 0, 0\n.text\n.func main\n");
    src.push_str("    la r8, buf\n");
    for r in 1..=6 {
        writeln!(src, "    movi r{r}, {r}").unwrap();
    }
    for w in 0..workers {
        writeln!(src, "    spawn r1{w}, worker, r1").unwrap();
    }
    emit_body(&mut src, "main", main_ops);
    if let Trap::Main { reg } = trap {
        emit_assert(&mut src, reg);
    }
    for w in 0..workers {
        writeln!(src, "    join r1{w}").unwrap();
    }
    src.push_str("    halt\n.endfunc\n.func worker\n    la r8, buf\n");
    for r in 1..=6 {
        writeln!(src, "    movi r{r}, {}", 7 - r).unwrap();
    }
    emit_body(&mut src, "worker", worker_ops);
    if let Trap::Workers { reg } = trap {
        emit_assert(&mut src, reg);
    }
    src.push_str("    halt\n.endfunc\n");
    // Save/restore idiom: the helper saves r1/r2, clobbers them, restores.
    src.push_str(
        ".func helper\n    push r1\n    push r2\n    movi r1, 40\n    movi r2, 2\n    \
         add r7, r1, r2\n    pop r2\n    pop r1\n    ret\n.endfunc\n",
    );
    src
}

/// A slice's content in canonical order: records, data-edge triples,
/// control-edge pairs.
type CanonSlice = (
    Vec<RecordId>,
    Vec<(RecordId, RecordId, LocKey)>,
    Vec<(RecordId, RecordId)>,
);

fn canon(slice: &Slice) -> CanonSlice {
    let mut records: Vec<RecordId> = slice.records.iter().copied().collect();
    records.sort_unstable();
    let mut data: Vec<(RecordId, RecordId, LocKey)> = slice
        .data_edges
        .iter()
        .map(|e| (e.user, e.def, e.key))
        .collect();
    data.sort_unstable();
    let mut control = slice.control_edges.clone();
    control.sort_unstable();
    (records, data, control)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn indexed_matches_naive(
        workers in 1usize..4,
        main_ops in prop_vec(op_strategy(), 4..24),
        worker_ops in prop_vec(op_strategy(), 4..24),
        sched_seed in any::<u64>(),
        switch_period in 1u32..8,
        refine_indirect in any::<bool>(),
        crit_picks in prop_vec(any::<usize>(), 3..4),
        prune_reg in 1u8..7,
        trap in trap_strategy(),
    ) {
        let src = program_source(workers, &main_ops, &worker_ops, trap);
        let program = Arc::new(assemble(&src).unwrap_or_else(|e| panic!("{e}\n{src}")));
        let rec = record_whole_program(
            &program,
            &mut RandomSched::new(sched_seed, switch_period),
            &mut LiveEnv::new(1),
            200_000,
            "index-equiv",
        )
        .expect("records");
        let session = SliceSession::collect(
            Arc::clone(&program),
            &rec.pinball,
            SlicerOptions { refine_indirect },
        );
        let trace = session.trace();
        let pairs: &HashMap<RecordId, RecordId> = session.pairs();
        let n = trace.records().len();
        prop_assert!(n > 0, "empty trace");

        // Record criteria at random positions plus the failure point, and
        // a value criterion on each picked record's first used location.
        let mut criteria: Vec<Criterion> = Vec::new();
        for pick in &crit_picks {
            let r = &trace.records()[pick % n];
            criteria.push(Criterion::Record { id: r.id });
            let key = r
                .use_keys(false)
                .map(|(k, _)| k)
                .next()
                .unwrap_or(LocKey::Reg(0, Reg(1)));
            criteria.push(Criterion::Value { id: r.id, key });
        }
        criteria.push(Criterion::Record { id: trace.records()[n - 1].id });

        let buf = program.symbol("buf").expect("buf symbol");
        let option_combos: Vec<SliceOptions> = vec![
            SliceOptions::new(),
            SliceOptions {
                prune_save_restore: false,
                ..SliceOptions::new()
            },
            SliceOptions::new()
                .prune_key(LocKey::Reg(0, Reg(prune_reg)))
                .prune_key(LocKey::Mem(buf)),
            SliceOptions {
                prune_save_restore: false,
                ..SliceOptions::new().prune_key(LocKey::Reg(1, Reg(prune_reg)))
            },
        ];

        for opts in &option_combos {
            // One index serves every criterion under these options.
            let index = DepIndex::build(trace, pairs, opts);
            for &criterion in &criteria {
                let indexed = compute_slice_indexed(&index, criterion);
                let naive = compute_slice_naive(trace, criterion, pairs, opts.clone());
                prop_assert_eq!(
                    canon(&indexed),
                    canon(&naive),
                    "indexed vs naive: criterion {:?}, options {:?}\n{}",
                    criterion,
                    opts,
                    src
                );
                // The emitted slice pinball is the replaying relogger's.
                let (regions, excl_stats) = exclusion_regions(trace, &indexed);
                let (relogged, relog_stats) = relog(Arc::clone(&program), &rec.pinball, &regions);
                prop_assert_eq!(
                    session.make_slice_pinball(&rec.pinball, &indexed),
                    (relogged, relog_stats, excl_stats),
                    "emitted vs relogged: criterion {:?}, options {:?}\n{}",
                    criterion,
                    opts,
                    src
                );
            }
        }
    }
}
