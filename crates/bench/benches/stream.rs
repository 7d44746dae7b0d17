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
//!   already exists and the final chunk pays only `extend` + `append`.
//!
//! Medians land in `target/bench/stream.json` for the CI trend line.
//!
//! [`four_thread_churn`]: bench::exp::four_thread_churn

use std::sync::Arc;
use std::time::{Duration, Instant};

use bench::exp::churn_parts;
use criterion::{criterion_group, criterion_main, Criterion as Bencher};
use pinplay::{PinballContainer, StreamReader, StreamWriter};
use slicer::{
    compute_slice_indexed, DepIndex, GlobalTrace, SliceOptions, SliceSession, SlicerOptions,
};

const ITERS: u64 = 1_000;
const CHUNKS: usize = 16;

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

fn bench_stream(c: &mut Bencher) {
    let collect = SlicerOptions {
        cluster: false,
        ..SlicerOptions::default()
    };
    let (pinball, session, criterion) = churn_parts(ITERS, collect);
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
    let container_bytes = writer.sealed_bytes().len();

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
    group.finish();

    let absorb = median_of(5, || {
        let mut reader = StreamReader::default();
        for piece in &pieces {
            reader.absorb(piece).expect("chunk absorbs");
        }
        reader.absorb(writer.footer()).expect("footer absorbs");
        assert!(reader.is_sealed());
    });

    // The 15-chunk prefix state, collected the way the server collects it.
    let mut reader = StreamReader::default();
    for piece in &pieces[..CHUNKS - 1] {
        reader.absorb(piece).expect("prefix chunk absorbs");
    }
    let prefix = reader.partial_container().expect("prefix collects");
    let psession = SliceSession::collect(Arc::clone(&program), &prefix.pinball, collect);
    let done = psession.trace().records().len();
    let records = session.trace().records();
    let block = session.trace().block_size();
    let opts = SliceOptions::default();

    let rebuild = median_of(5, || {
        let trace = GlobalTrace::build_with(records.to_vec(), block, false, false);
        let index = DepIndex::build(&trace, session.pairs(), &opts);
        assert!(!compute_slice_indexed(&index, criterion).records.is_empty());
    });

    // Fresh prefix state per sample (untimed); the timed region is what a
    // streaming server pays per arriving chunk: extend + append + slice.
    let mut samples = Vec::new();
    for _ in 0..5 {
        let mut trace =
            GlobalTrace::build_with(psession.trace().records().to_vec(), block, false, false);
        let mut index = DepIndex::build(&trace, psession.pairs(), &opts);
        let started = Instant::now();
        trace.extend(records[done..].to_vec());
        index.append(&trace, session.pairs(), &opts);
        assert!(!compute_slice_indexed(&index, criterion).records.is_empty());
        samples.push(started.elapsed());
    }
    samples.sort_unstable();
    let incremental = samples[samples.len() / 2];

    let report = format!(
        "{{\n  \"bench\": \"stream\",\n  \"workload\": \"four_thread_churn\",\n  \
         \"iters\": {ITERS},\n  \"records\": {},\n  \"chunks\": {CHUNKS},\n  \
         \"container_bytes\": {container_bytes},\n  \"absorb_ns\": {},\n  \
         \"absorb_mb_per_s\": {:.2},\n  \"rebuild_ns\": {},\n  \
         \"incremental_ns\": {},\n  \"incremental_speedup\": {:.2}\n}}\n",
        records.len(),
        absorb.as_nanos(),
        container_bytes as f64 / 1.0e6 / absorb.as_secs_f64().max(1e-12),
        rebuild.as_nanos(),
        incremental.as_nanos(),
        rebuild.as_secs_f64() / incremental.as_secs_f64().max(1e-12),
    );
    match bench::report::write_report("stream.json", &report) {
        Ok(path) => println!("stream bench report written to {}", path.display()),
        Err(e) => eprintln!("stream bench report not written: {e}"),
    }
}

criterion_group!(stream, bench_stream);
criterion_main!(stream);
