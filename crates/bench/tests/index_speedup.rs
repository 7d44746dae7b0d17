//! Acceptance: with a warm dependence index, second-and-later slice
//! queries on a 100k-record, four-thread trace answer at least 10× faster
//! than a cold full backward scan — and produce the identical slice.
//!
//! The workload is [`four_thread_churn`]: every thread runs thousands of
//! save/restore pairs, and the criterion's value resolves through the
//! entire chain. The index-free [`compute_slice_naive`] — the full
//! backward scan the paper's LP traversal amounted to in retire order,
//! where it skipped no block — re-walks that bypass chain on every
//! query; [`DepIndex::build`] collapses each def-slot's resolution once,
//! so [`compute_slice_indexed`] answers in time proportional to the
//! (tiny) slice. The identical-output assertion
//! lives in the same test as the timing gate: the speed must not come
//! from computing a different slice.
//!
//! [`four_thread_churn`]: bench::exp::four_thread_churn

use std::time::{Duration, Instant};

use bench::exp::churn_session;
use slicer::{
    compute_slice_indexed, compute_slice_naive, DepIndex, LocKey, RecordId, Slice, SliceOptions,
    SlicerOptions,
};

const ITERS: u64 = 4_000;
const REQUIRED_SPEEDUP: f64 = 10.0;

fn median_of(n: usize, mut f: impl FnMut()) -> Duration {
    let mut samples: Vec<Duration> = (0..n)
        .map(|_| {
            let started = Instant::now();
            f();
            started.elapsed()
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// The slice's content — criterion, records, and both edge sets in
/// canonical order — as bytes. Stats are advisory and excluded: the two
/// traversals report their own work, but must agree on the answer.
fn canonical_content(slice: &Slice) -> Vec<u8> {
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
    serde_json::to_vec(&(slice.criterion, records, data, control)).expect("slice serializes")
}

#[test]
fn warm_index_queries_are_at_least_10x_faster_than_a_cold_scan() {
    let (session, criterion) = churn_session(ITERS, SlicerOptions::default());
    let trace = session.trace();
    let pairs = session.pairs();
    let records = trace.records().len();
    let threads: std::collections::HashSet<_> = trace.records().iter().map(|r| r.tid).collect();
    assert!(records >= 100_000, "trace too small: {records} records");
    assert_eq!(threads.len(), 4, "churn is a four-thread workload");

    let opts = SliceOptions::default();

    // Cold: the index-free full backward scan. Every sample re-chases the
    // full bypass chain.
    let cold = median_of(3, || {
        let slice = compute_slice_naive(trace, criterion, pairs, opts.clone());
        assert!(slice.stats.bypasses >= ITERS, "chain actually chased");
    });

    // The one-time build the first query pays; everything after is warm.
    let index = DepIndex::build(trace, pairs, &opts);
    let expected = canonical_content(&compute_slice_naive(trace, criterion, pairs, opts.clone()));
    let first = compute_slice_indexed(&index, criterion);
    assert_eq!(
        canonical_content(&first),
        expected,
        "indexed slice must be identical to the naive one"
    );

    let warm = median_of(15, || {
        let slice = compute_slice_indexed(&index, criterion);
        assert!(!slice.records.is_empty());
    });

    let speedup = cold.as_secs_f64() / warm.as_secs_f64().max(1e-12);
    println!(
        "cold naive {cold:?} vs warm indexed {warm:?}: {speedup:.1}x \
         (required {REQUIRED_SPEEDUP}x; index built once in {:?})",
        index.stats().wall,
    );
    assert!(
        speedup >= REQUIRED_SPEEDUP,
        "warm index not fast enough: cold {cold:?} / warm {warm:?} = {speedup:.1}x, \
         need {REQUIRED_SPEEDUP}x"
    );

    // The identity holds for later queries and other criteria on the same
    // index — the reuse the cyclic-debugging loop depends on.
    let last = trace.records().last().expect("non-empty").id;
    for crit in [
        criterion,
        slicer::Criterion::Record { id: last },
        slicer::Criterion::Record { id: last / 2 },
    ] {
        let indexed = compute_slice_indexed(&index, crit);
        let naive = compute_slice_naive(trace, crit, pairs, opts.clone());
        assert_eq!(
            canonical_content(&indexed),
            canonical_content(&naive),
            "criterion {crit:?}"
        );
    }
}
