//! A value slice explains what the debugger shows at its stop.
//!
//! Slicing for the value of a memory word at a stop point
//! (`Criterion::Value`) must name, as the word's reaching definition, the
//! last write to it that retired before the stop: the write whose value
//! `read_mem` shows there. Two recordings check it: a two-thread program
//! whose threads interleave under round-robin, stopped at a breakpoint in
//! the thread that never touches the word, and a sweep of stop points and
//! words over a PARSEC analog's region.

use std::cmp::Reverse;
use std::collections::HashMap;
use std::sync::Arc;

use drdebug::{DebugSession, StopReason};
use minivm::{assemble, Addr, LiveEnv, Loc, RoundRobin};
use pinplay::{record_region, record_whole_program, RegionSpec};
use slicer::{Criterion, GlobalTrace, LocKey, RecordId, Slice, SliceOptions, TraceRecord};

/// A worker stores a counter to the shared word `x` in a loop while
/// `main` runs a private loop that never touches `x`.
const SHARED_COUNTER: &str = r"
    .data
    x: .word 0
    .text
    .func main
        movi r1, 0
        spawn r2, worker, r1
        movi r3, 100
    spin:
        subi r3, r3, 1
        bgti r3, 0, spin
        join r2
        halt
    .endfunc
    .func worker
        la r1, x
        movi r2, 0
        movi r3, 100
    again:
        addi r2, r2, 1
        store r2, r1, 0
        subi r3, r3, 1
        bgti r3, 0, again
        halt
    .endfunc
    ";

/// The last record that wrote `x` before record `id`, in retire order.
fn last_write_before(trace: &GlobalTrace, id: RecordId, x: Addr) -> Option<&TraceRecord> {
    trace
        .records()
        .iter()
        .filter(|r| r.id < id && r.defs.value_of(Loc::Mem(x)).is_some())
        .max_by_key(|r| r.id)
}

/// The definitions the slice names for the criterion record's own uses.
fn criterion_defs(slice: &Slice) -> Vec<RecordId> {
    let id = slice.criterion.record_id();
    slice
        .data_edges
        .iter()
        .filter(|e| e.user == id)
        .map(|e| e.def)
        .collect()
}

#[test]
fn a_value_slice_at_a_breakpoint_names_the_write_read_mem_shows() {
    let program = Arc::new(assemble(SHARED_COUNTER).expect("assembles"));
    let rec = record_whole_program(
        &program,
        &mut RoundRobin::new(3),
        &mut LiveEnv::new(0),
        100_000,
        "value-slices",
    )
    .expect("records");
    let x = program.symbol("x").expect("x is a data symbol");
    let spin = program.label("spin").expect("main's loop");
    let mut s = DebugSession::new(Arc::clone(&program), rec.pinball);
    s.add_breakpoint(spin, Some(0));
    for _ in 0..40 {
        assert!(matches!(s.cont(), StopReason::Breakpoint { tid: 0, .. }));
    }
    let shown = s.read_mem(x);
    assert!(
        (1..100).contains(&shown),
        "the worker is mid-loop at the stop: x = {shown}"
    );

    let id = s.record_at_stop().expect("stopped on a traced record");
    let slice = s.slice_here(LocKey::Mem(x)).expect("a value slice");
    let edges: Vec<_> = slice.data_edges.iter().filter(|e| e.user == id).collect();
    assert_eq!(edges.len(), 1, "one data edge out of the criterion");
    assert_eq!(edges[0].key, LocKey::Mem(x));
    let trace = s.slicer().trace();
    let write = last_write_before(trace, id, x).expect("the worker wrote x before the stop");
    assert_eq!(
        edges[0].def, write.id,
        "the reaching write is the last one before the stop"
    );
    assert_eq!(write.defs.value_of(Loc::Mem(x)), Some(shown));
}

#[test]
fn value_slices_over_a_parsec_region_name_writes_that_retired_before_the_stop() {
    let (skip, length) = (1_000, 3_000);
    let p = workloads::all_parsec()
        .into_iter()
        .find(|p| p.name == "swaptions")
        .expect("swaptions analog");
    let program = (p.build)(workloads::units_for_main_instructions(
        skip + length + length / 2 + 1_000,
    ));
    let rec = record_region(
        &program,
        &mut RoundRobin::new(17),
        &mut LiveEnv::new(42),
        RegionSpec::skip_length(skip, length),
        (skip + length) * 12 + 1_000_000,
        p.name,
    )
    .expect("region records");
    let mut s = DebugSession::new(Arc::clone(&program), rec.pinball);

    // The region's most-written words, most written first.
    let trace = s.slicer().trace();
    let n = trace.records().len();
    let mut writes: HashMap<Addr, usize> = HashMap::new();
    for r in trace.records() {
        for (loc, _) in r.defs.iter() {
            if let Loc::Mem(a) = loc {
                *writes.entry(a).or_default() += 1;
            }
        }
    }
    let mut words: Vec<(Addr, usize)> = writes.into_iter().collect();
    words.sort_unstable_by_key(|&(a, count)| (Reverse(count), a));
    let words: Vec<Addr> = words.into_iter().map(|(a, _)| a).collect();
    assert!(words.len() >= 4, "the region writes memory");

    let mut checked = 0;
    for k in 1..=8 {
        let id = (k * n / 9) as RecordId;
        s.seek_to(id + 1);
        let trace = s.slicer().trace();
        let stopped = trace.record(id).expect("stop record in the trace");
        let touches = |a: Addr| {
            stopped.uses.value_of(Loc::Mem(a)).is_some()
                || stopped.defs.value_of(Loc::Mem(a)).is_some()
        };
        let xs: Vec<Addr> = words
            .iter()
            .copied()
            .filter(|&a| !touches(a))
            .take(4)
            .collect();
        for x in xs {
            let slice = s.slice_criterion(
                Criterion::Value {
                    id,
                    key: LocKey::Mem(x),
                },
                SliceOptions::default(),
            );
            let defs = criterion_defs(&slice);
            let shown = s.read_mem(x);
            let trace = s.slicer_ref().expect("collected above").trace();
            match last_write_before(trace, id, x) {
                Some(w) => {
                    assert_eq!(
                        defs,
                        vec![w.id],
                        "stop after record {id}, word {x:#x}: the reaching write \
                         retired before the stop"
                    );
                    assert_eq!(
                        w.defs.value_of(Loc::Mem(x)),
                        Some(shown),
                        "stop after record {id}, word {x:#x}: the write's value is \
                         what read_mem shows"
                    );
                }
                None => assert!(
                    defs.is_empty(),
                    "stop after record {id}, word {x:#x}: no write before the stop, \
                     yet the slice names {defs:?}"
                ),
            }
            checked += 1;
        }
    }
    assert!(checked >= 24, "too few cases: {checked}");
}
