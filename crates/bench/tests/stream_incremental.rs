//! Acceptance gate for streaming capture: on a 112k-record churn trace
//! delivered in 16 chunks, the first slice after the final chunk lands
//! must answer at least 5× faster with an incrementally-maintained
//! [`DepIndex`] (`append` over the suffix) than a from-scratch rebuild —
//! and produce the byte-identical slice. A second test drives a
//! real server and proves a client can obtain a correct slice of the
//! first 25% of the trace while the remaining 75% has not been uploaded.
//!
//! Both paths share the same replay-and-collect cost (replay determinism
//! means a re-collection returns the prefix records unchanged), so the
//! gate times what follows collection: the server's `DepIndex::append`
//! over the fresh trace (suffix interning and edge fill) versus a full
//! rebuild.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bench::exp::churn_parts;
use drserve::{ServeConfig, Server, SliceAt, WireSlice};
use pinplay::{PinballContainer, StreamReader, StreamWriter, DEFAULT_CHECKPOINT_INTERVAL};
use slicer::{
    compute_slice_indexed, Criterion, DepIndex, GlobalTrace, LocKey, RecordId, Slice, SliceOptions,
    SliceSession, SlicerOptions,
};

const ITERS: u64 = 4_000;
const CHUNKS: usize = 16;
const REQUIRED_SPEEDUP: f64 = 5.0;

/// The slice's content — criterion, records, and both edge sets in
/// canonical order — as bytes. Stats are advisory and excluded.
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

/// Minimum of the samples — the noise-robust estimator for "how fast is
/// this work", since scheduling stalls and cold pages only ever add time.
fn best(samples: Vec<Duration>) -> Duration {
    samples.into_iter().min().expect("at least one sample")
}

#[test]
fn first_slice_after_the_final_chunk_is_5x_faster_incrementally() {
    let (pinball, session, criterion) = churn_parts(ITERS, SlicerOptions::default());
    let program = Arc::clone(session.program());
    let records = session.trace().records();
    let total = records.len();
    assert!(total >= 100_000, "churn trace too small: {total} records");

    // Chunk the recording exactly as a streaming upload would, and
    // re-collect the 15-chunk prefix the way the server does: absorb the
    // chunks, take the partial container, replay and collect it.
    let container =
        PinballContainer::with_checkpoints(pinball, &program, DEFAULT_CHECKPOINT_INTERVAL);
    let writer = StreamWriter::new(&container).expect("container streams");
    let pieces = writer.chunks(CHUNKS);
    assert_eq!(
        pieces.len(),
        CHUNKS,
        "churn recording has >= 16 chunk groups"
    );
    let mut reader = StreamReader::default();
    for piece in &pieces[..CHUNKS - 1] {
        reader.absorb(piece).expect("prefix chunk absorbs");
    }
    let prefix = reader.partial_container().expect("prefix is collectible");
    let psession = SliceSession::collect(
        Arc::clone(&program),
        &prefix.pinball,
        SlicerOptions::default(),
    );
    let done = psession.trace().records().len();
    assert!(
        done < total && done > total / 2,
        "final chunk leaves a real suffix: {done}/{total} records in the prefix"
    );
    // Replay determinism: the prefix collection is the full collection's
    // prefix, record for record — the invariant `append` builds on.
    assert_eq!(psession.trace().records(), &records[..done]);

    let opts = SliceOptions::default();

    // From-scratch: what a server without `DepIndex::append` pays after
    // the final chunk lands — rebuild the trace and index over all 16
    // chunks, then slice.
    let mut scratch_samples = Vec::new();
    let mut scratch_slice = None;
    let mut scratch_index = None;
    for _ in 0..4 {
        let started = Instant::now();
        let trace = GlobalTrace::build(records.to_vec());
        let index = DepIndex::build(&trace, session.pairs(), &opts);
        let slice = compute_slice_indexed(&index, criterion);
        scratch_samples.push(started.elapsed());
        scratch_slice = Some(slice);
        scratch_index = Some(index);
    }
    let scratch = best(scratch_samples);
    let scratch_slice = scratch_slice.expect("scratch slice computed");
    let scratch_index = scratch_index.expect("scratch index built");

    // Incremental: the index over chunks 0..15 already exists (it was
    // maintained as the chunks arrived); after collecting all 16 chunks
    // the server pays only append over the fresh trace + slice. The
    // prefix index is built untimed, fresh per sample.
    let mut incremental_samples = Vec::new();
    let mut incremental_slice = None;
    let mut incremental_index = None;
    for _ in 0..4 {
        let mut index = DepIndex::build(psession.trace(), psession.pairs(), &opts);
        let started = Instant::now();
        index.append(session.trace(), session.pairs(), &opts);
        let slice = compute_slice_indexed(&index, criterion);
        incremental_samples.push(started.elapsed());
        incremental_slice = Some(slice);
        incremental_index = Some(index);
    }
    let incremental = best(incremental_samples);
    let incremental_slice = incremental_slice.expect("incremental slice computed");
    let incremental_index = incremental_index.expect("incremental index built");

    // The speed must not come from computing a different answer: the
    // appended index is graph-identical to the rebuilt one, and the
    // slices are content-identical.
    assert!(
        incremental_index.same_graph(&scratch_index),
        "appended index must equal the from-scratch index"
    );
    assert_eq!(
        canonical_content(&incremental_slice),
        canonical_content(&scratch_slice),
        "incremental slice must be byte-identical to the rebuilt one"
    );

    let speedup = scratch.as_secs_f64() / incremental.as_secs_f64().max(1e-12);
    println!(
        "time to first slice after chunk {CHUNKS}: rebuild {scratch:?} vs \
         incremental {incremental:?} = {speedup:.1}x (required {REQUIRED_SPEEDUP}x; \
         {} suffix records appended onto {done})",
        total - done,
    );
    assert!(
        speedup >= REQUIRED_SPEEDUP,
        "incremental append not fast enough: rebuild {scratch:?} / \
         incremental {incremental:?} = {speedup:.1}x, need {REQUIRED_SPEEDUP}x"
    );
}

#[test]
fn quarter_prefix_slices_correctly_while_the_rest_is_still_uploading() {
    let (pinball, session, _) = churn_parts(ITERS, SlicerOptions::default());
    let program = Arc::clone(session.program());
    let total = session.trace().records().len();
    let container =
        PinballContainer::with_checkpoints(pinball, &program, DEFAULT_CHECKPOINT_INTERVAL);
    let writer = StreamWriter::new(&container).expect("container streams");
    let pieces = writer.chunks(CHUNKS);
    let quarter = CHUNKS / 4;

    let server = Server::new(ServeConfig::default());
    let mut uploader = server.loopback_client();
    let stream = 7;
    uploader
        .begin_stream(stream, &program, None)
        .expect("stream opens");
    for (seq, piece) in pieces[..quarter].iter().enumerate() {
        uploader
            .append_chunk(stream, seq as u32, piece.to_vec())
            .expect("quarter chunk lands");
    }

    // Mirror the absorbed quarter locally to know the expected answer.
    let mut mirror = StreamReader::default();
    for piece in &pieces[..quarter] {
        mirror.absorb(piece).expect("mirror absorbs");
    }
    let prefix = mirror.partial_container().expect("quarter is collectible");
    let qsession = SliceSession::collect(
        Arc::clone(&program),
        &prefix.pinball,
        SlicerOptions::default(),
    );
    let qrecords = qsession.trace().records().len();
    assert!(
        qrecords > total / 8 && qrecords < total / 2,
        "the quarter prefix is a real prefix: {qrecords}/{total} records"
    );
    let criterion = Criterion::Record {
        id: qsession.failure_record().expect("quarter has records").id,
    };
    let opts = SliceOptions::default();
    let qindex = DepIndex::build(qsession.trace(), qsession.pairs(), &opts);
    let expected = WireSlice::from_slice(&compute_slice_indexed(&qindex, criterion));

    // A second client slices the unsealed stream: 75% of the trace has
    // not been sent, yet the quarter-prefix answer is already correct.
    let mut slicer_client = server.loopback_client();
    let reply = slicer_client
        .slice_stream(stream, SliceAt::Criterion { criterion }, opts)
        .expect("mid-upload slice answers");
    assert_eq!(
        reply.slice.canonical_bytes(),
        expected.canonical_bytes(),
        "mid-upload slice must be byte-identical to a local slice of the prefix"
    );

    // The rest of the upload lands and seals to the batch digest.
    for (seq, piece) in pieces.iter().enumerate().skip(quarter) {
        uploader
            .append_chunk(stream, seq as u32, piece.to_vec())
            .expect("remaining chunk lands");
    }
    let up = uploader
        .seal_stream(stream, writer.footer().to_vec())
        .expect("stream seals");
    assert_eq!(up.digest, container.digest(), "streamed == batch digest");
}
