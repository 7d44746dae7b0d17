//! Streaming capture: chunked absorb throughput and the incremental
//! index-maintenance advantage.
//!
//! One recorded [`four_thread_churn`] trace is split into 16
//! self-delimiting chunks the way `drserve`'s streaming upload ships it.
//! Measured:
//!
//! * **absorb** — feeding all chunks through a [`StreamReader`] and
//!   sealing, i.e. the server-side cost of reassembly and validation;
//! * **rebuild** — time to first slice after the final chunk when the
//!   trace and dependence index are rebuilt from scratch;
//! * **incremental** — the same first slice when the 15-chunk index
//!   already exists and the final chunk pays only `append` over the
//!   fresh collection's trace. Each sample rebuilds that prefix index
//!   untimed first, which the criterion closure cannot express, so this
//!   step is timed by hand.
//!
//! [`four_thread_churn`]: bench::exp::four_thread_churn

use std::sync::Arc;
use std::time::Instant;

use bench::exp::churn_parts;
use criterion::{criterion_group, criterion_main, Criterion as Bencher};
use pinplay::{PinballContainer, StreamReader, StreamWriter};
use slicer::{
    compute_slice_indexed, DepIndex, GlobalTrace, SliceOptions, SliceSession, SlicerOptions,
};

const ITERS: u64 = 1_000;
const CHUNKS: usize = 16;
const INCREMENTAL_SAMPLES: usize = 5;

fn bench_stream(c: &mut Bencher) {
    let (pinball, session, criterion) = churn_parts(ITERS, SlicerOptions::default());
    let program = Arc::clone(session.program());
    // A dense checkpoint interval guarantees enough chunk groups to
    // actually split 16 ways at this trace size.
    let container = PinballContainer::with_checkpoints(pinball, &program, 256);
    let writer = StreamWriter::new(&container).expect("container streams");
    let pieces = writer.chunks(CHUNKS);
    assert_eq!(
        pieces.len(),
        CHUNKS,
        "churn recording has >= 16 chunk groups"
    );
    let records = session.trace().records();
    let opts = SliceOptions::default();
    println!(
        "stream: {} records, {CHUNKS} chunks, {} container bytes",
        records.len(),
        writer.sealed_bytes().len(),
    );

    let mut group = c.benchmark_group("stream");
    group.sample_size(10);
    group.bench_function("absorb-chunks-and-seal", |b| {
        b.iter(|| {
            let mut reader = StreamReader::default();
            for piece in &pieces {
                reader.absorb(piece).expect("chunk absorbs");
            }
            reader.absorb(writer.footer()).expect("footer absorbs");
            assert!(reader.is_sealed());
            reader.bytes_absorbed()
        })
    });
    group.bench_function("rebuild-index-and-slice", |b| {
        b.iter(|| {
            let trace = GlobalTrace::build(records.to_vec());
            let index = DepIndex::build(&trace, session.pairs(), &opts);
            assert!(!compute_slice_indexed(&index, criterion).records.is_empty());
        })
    });
    group.finish();

    // The 15-chunk prefix state, collected the way the server collects it.
    let mut reader = StreamReader::default();
    for piece in &pieces[..CHUNKS - 1] {
        reader.absorb(piece).expect("prefix chunk absorbs");
    }
    let prefix = reader.partial_container().expect("prefix collects");
    let psession = SliceSession::collect(
        Arc::clone(&program),
        &prefix.pinball,
        SlicerOptions::default(),
    );

    // Fresh prefix index per sample (untimed); the timed region is what a
    // streaming server pays per arriving chunk after collecting it:
    // append over the fresh trace + slice.
    let mut samples = Vec::new();
    for _ in 0..INCREMENTAL_SAMPLES {
        let mut index = DepIndex::build(psession.trace(), psession.pairs(), &opts);
        let started = Instant::now();
        index.append(session.trace(), session.pairs(), &opts);
        assert!(!compute_slice_indexed(&index, criterion).records.is_empty());
        samples.push(started.elapsed());
    }
    samples.sort_unstable();
    println!(
        "{:<50} median {:>12?}  ({INCREMENTAL_SAMPLES} samples, prefix rebuilt untimed)",
        "stream/incremental-append-and-slice",
        samples[samples.len() / 2],
    );
}

criterion_group!(stream, bench_stream);
criterion_main!(stream);
