//! Parallel-vs-serial trace collection: serial single-collector replay vs
//! sharded streaming collectors (one per thread, fed over channels) on a
//! four-thread trace with >= 100k records.
//!
//! Both variants produce identical traces (enforced by the collect module's
//! `parallel_collection_matches_serial` test); this bench only measures
//! wall time.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use slicer::SlicerOptions;

use bench::exp::needle_session;

const ITERS: u64 = 4_700; // 4 threads x ~6 records/iter => >= 100k records

fn serial_options() -> SlicerOptions {
    SlicerOptions {
        parallel: false,
        ..SlicerOptions::default()
    }
}

fn parallel_options() -> SlicerOptions {
    SlicerOptions {
        parallel: true,
        parallel_threshold: 0,
        ..SlicerOptions::default()
    }
}

fn bench_par_slicing(c: &mut Criterion) {
    let mut group = c.benchmark_group("par_slicing");
    group.sample_size(10);

    for (label, opts) in [
        ("serial", serial_options as fn() -> SlicerOptions),
        ("parallel", parallel_options as fn() -> SlicerOptions),
    ] {
        group.bench_function(BenchmarkId::new("collection", label), |b| {
            b.iter(|| needle_session(ITERS, opts()).0)
        });
    }
    group.finish();
}

criterion_group!(benches, bench_par_slicing);
criterion_main!(benches);
