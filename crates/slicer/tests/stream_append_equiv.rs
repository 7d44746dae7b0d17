//! Differential property test for the incremental dependence index.
//!
//! Random multi-threaded minivm programs (same generator family as
//! `index_equiv`) are recorded under random schedules and collected. The
//! record list is then split at a random chunk schedule and indexed two
//! ways:
//!
//! * incrementally — one index, [`DepIndex::append`]ed per chunk over a
//!   [`GlobalTrace::build`] of the prefix so far, as a server appends over
//!   each fresh collection of a growing stream;
//! * batch — [`DepIndex::build`] over the full prefix, from scratch.
//!
//! After every chunk the two must agree exactly: [`DepIndex::same_graph`]
//! over every internal array, and the slice at the prefix's last record.

use std::sync::Arc;

use proptest::collection::vec as prop_vec;
use proptest::prelude::*;

use minivm::{assemble, LiveEnv, RandomSched};
use pinplay::record_whole_program;
use slicer::{
    compute_slice_indexed, Criterion, DepIndex, GlobalTrace, RecordId, Slice, SliceOptions,
    SliceSession, SlicerOptions,
};

/// A slice's content in canonical order.
type CanonSlice = (
    Vec<RecordId>,
    Vec<(RecordId, RecordId, slicer::LocKey)>,
    Vec<(RecordId, RecordId)>,
);

fn canon(slice: &Slice) -> CanonSlice {
    let mut records: Vec<RecordId> = slice.records.iter().copied().collect();
    records.sort_unstable();
    let mut data: Vec<_> = slice
        .data_edges
        .iter()
        .map(|e| (e.user, e.def, e.key))
        .collect();
    data.sort_unstable();
    let mut control = slice.control_edges.clone();
    control.sort_unstable();
    (records, data, control)
}

/// A small random program: arithmetic over r1..r6, shared-buffer traffic,
/// forward guards, and push/pop helper calls for save/restore pairs.
fn program_source(workers: usize, seed: u64) -> String {
    use std::fmt::Write as _;
    let mut src = String::new();
    src.push_str(".data\nbuf: .word 0, 0, 0, 0, 0, 0, 0, 0\n.text\n.func main\n");
    src.push_str("    la r8, buf\n");
    for r in 1..=6 {
        writeln!(src, "    movi r{r}, {r}").unwrap();
    }
    for w in 0..workers {
        writeln!(src, "    spawn r1{w}, worker, r1").unwrap();
    }
    for w in 0..workers {
        writeln!(src, "    join r1{w}").unwrap();
    }
    src.push_str("    halt\n.endfunc\n.func worker\n    la r8, buf\n");
    // A deterministic body parameterized by the seed: loads, stores,
    // atomics, a guard, and a helper call inside a short loop.
    let s = seed as u8;
    writeln!(src, "    movi r3, {}", 8 + (s % 8)).unwrap();
    src.push_str("spin:\n");
    writeln!(src, "    load r1, r8, {}", s % 8).unwrap();
    writeln!(src, "    addi r1, r1, {}", 1 + (s % 3)).unwrap();
    writeln!(src, "    store r1, r8, {}", (s / 2) % 8).unwrap();
    writeln!(src, "    xadd r2, r8, r1").unwrap();
    writeln!(src, "    bgei r1, {}, skip\n    call helper\nskip:", s % 5).unwrap();
    src.push_str("    subi r3, r3, 1\n    bgti r3, 0, spin\n    halt\n.endfunc\n");
    src.push_str(
        ".func helper\n    push r1\n    push r2\n    movi r1, 40\n    movi r2, 2\n    \
         add r7, r1, r2\n    pop r2\n    pop r1\n    ret\n.endfunc\n",
    );
    src
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn append_equals_batch_at_every_prefix(
        workers in 1usize..4,
        body_seed in any::<u64>(),
        sched_seed in any::<u64>(),
        switch_period in 1u32..8,
        cuts in prop_vec(any::<usize>(), 1..6),
        prune_save_restore in any::<bool>(),
    ) {
        let src = program_source(workers, body_seed);
        let program = Arc::new(assemble(&src).unwrap_or_else(|e| panic!("{e}\n{src}")));
        let rec = record_whole_program(
            &program,
            &mut RandomSched::new(sched_seed, switch_period),
            &mut LiveEnv::new(1),
            200_000,
            "stream-append-equiv",
        )
        .expect("records");
        let session = SliceSession::collect(
            Arc::clone(&program),
            &rec.pinball,
            SlicerOptions::default(),
        );
        let records = session.trace().records().to_vec();
        let pairs = session.pairs();
        let n = records.len();
        prop_assert!(n > 0, "empty trace");
        let opts = SliceOptions {
            prune_save_restore,
            ..SliceOptions::new()
        };

        // Random ascending chunk boundaries over the record list.
        let mut splits: Vec<usize> = cuts.iter().map(|c| c % (n + 1)).collect();
        splits.push(n);
        splits.sort_unstable();
        splits.dedup();

        let mut grown_index = DepIndex::build(&GlobalTrace::build(Vec::new()), pairs, &opts);
        for &split in &splits {
            let prefix = GlobalTrace::build(records[..split].to_vec());
            grown_index.append(&prefix, pairs, &opts);

            let batch_index = DepIndex::build(&prefix, pairs, &opts);
            prop_assert!(
                grown_index.same_graph(&batch_index),
                "append-grown index diverged from batch at prefix {} of {}\n{}",
                split,
                n,
                src
            );
            if split > 0 {
                let crit = Criterion::Record {
                    id: records[split - 1].id,
                };
                prop_assert_eq!(
                    canon(&compute_slice_indexed(&grown_index, crit)),
                    canon(&compute_slice_indexed(&batch_index, crit)),
                    "slice diverged at prefix {} of {}",
                    split,
                    n
                );
            }
        }
        prop_assert_eq!(grown_index.len(), n);
    }
}
