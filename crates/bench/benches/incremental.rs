//! Incremental slicing: how the one-time dependence index pays off as a
//! cyclic-debugging session asks more questions of the same pinball.
//!
//! For 1, 4, and 16 criteria against one recorded [`four_thread_churn`]
//! trace, measures three regimes:
//!
//! * **cold** — no index: every criterion runs the LP traversal,
//!   re-chasing the save/restore bypass chain each time;
//! * **first session** — [`DepIndex::build`] once, then answer every
//!   criterion from it (what the first `slice` command in a debug
//!   session pays);
//! * **warm** — the index is already resident (every later `slice`
//!   command, and every drserve request after the first on a digest).
//!
//! The build cost amortizes across criteria; warm queries are
//! output-sensitive. Medians land in `target/bench/incremental.json`
//! for the CI trend line.
//!
//! [`four_thread_churn`]: bench::exp::four_thread_churn

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use bench::exp::{churn_session, last_read_criteria};
use criterion::{criterion_group, criterion_main, Criterion as Bencher};
use slicer::{compute_slice_indexed, compute_slice_lp, DepIndex, SliceOptions, SlicerOptions};

const ITERS: u64 = 2_000;
const CRITERIA_COUNTS: [usize; 3] = [1, 4, 16];

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

fn bench_incremental(c: &mut Bencher) {
    let (session, deep) = churn_session(ITERS, SlicerOptions::default());
    let trace = session.trace();
    let pairs = session.pairs();
    let opts = SliceOptions::default();

    // The deep-chain criterion first, then the paper's "last reads"
    // recipe for the rest — distinct questions about one execution, as a
    // debugging session asks them.
    let mut criteria = vec![deep];
    criteria.extend(last_read_criteria(&session, CRITERIA_COUNTS[2] - 1));
    assert!(criteria.len() >= CRITERIA_COUNTS[2], "enough criteria");

    let index = DepIndex::build(trace, pairs, &opts);

    let mut group = c.benchmark_group("incremental");
    group.sample_size(10);
    group.bench_function("cold-lp-per-criterion", |b| {
        b.iter(|| {
            compute_slice_lp(trace, deep, pairs, opts.clone())
                .records
                .len()
        })
    });
    group.bench_function("warm-indexed-per-criterion", |b| {
        b.iter(|| compute_slice_indexed(&index, deep).records.len())
    });
    group.finish();

    // Medians for the JSON record, per criteria count.
    let build = median_of(3, || {
        let idx = DepIndex::build(trace, pairs, &opts);
        assert!(idx.stats().edges > 0);
    });
    let mut rows = String::new();
    for (i, &count) in CRITERIA_COUNTS.iter().enumerate() {
        let batch = &criteria[..count];
        let cold = median_of(3, || {
            for &crit in batch {
                compute_slice_lp(trace, crit, pairs, opts.clone());
            }
        });
        let warm = median_of(10, || {
            for &crit in batch {
                compute_slice_indexed(&index, crit);
            }
        });
        let first = build + warm;
        writeln!(
            rows,
            "    {{\"criteria\": {count}, \"cold_ns\": {}, \"first_session_ns\": {}, \
             \"warm_ns\": {}, \"warm_speedup\": {:.2}}}{}",
            cold.as_nanos(),
            first.as_nanos(),
            warm.as_nanos(),
            cold.as_secs_f64() / warm.as_secs_f64().max(1e-12),
            if i + 1 < CRITERIA_COUNTS.len() {
                ","
            } else {
                ""
            },
        )
        .expect("write to string");
    }
    let report = format!(
        "{{\n  \"bench\": \"incremental\",\n  \"workload\": \"four_thread_churn\",\n  \
         \"iters\": {ITERS},\n  \"records\": {},\n  \"index_build_ns\": {},\n  \
         \"index_edges\": {},\n  \"rows\": [\n{rows}  ]\n}}\n",
        trace.records().len(),
        build.as_nanos(),
        index.stats().edges,
    );
    match bench::report::write_report("incremental.json", &report) {
        Ok(path) => println!("incremental bench report written to {}", path.display()),
        Err(e) => eprintln!("incremental bench report not written: {e}"),
    }
}

criterion_group!(incremental, bench_incremental);
criterion_main!(incremental);
