//! End-to-end tests of the streaming-capture subsystem: chunked resumable
//! uploads, digest-first dedupe, live-tail progress, and slicing an
//! unsealed stream — all over the in-process loopback transport.
//!
//! The acceptance bar: a client must obtain a byte-identical slice of an
//! uploaded *prefix* while the rest of the recording is still in flight,
//! and sealing must publish exactly the container a batch upload would
//! have stored (same digest, same slices).

use std::sync::Arc;

use drserve::{
    Client, ClientError, LoopbackStream, ServeConfig, ServeError, Server, SliceAt, WireSlice,
};
use minivm::{assemble, LiveEnv, Program, RoundRobin};
use pinplay::{
    record_whole_program, Pinball, PinballContainer, PinballDigest, StreamReader, StreamWriter,
};
use slicer::{
    compute_slice_indexed, Criterion, DepIndex, SliceOptions, SliceSession, SlicerOptions,
};

const PROG: &str = r"
    .data
    acc: .word 0
    .text
    .func main
        movi r1, 1
        spawn r2, worker, r1
        movi r1, 2
        spawn r3, worker, r1
        join r2
        join r3
        la r4, acc
        load r5, r4, 0
        print r5
        halt
    .endfunc
    .func worker
        movi r3, 150
    loop:
        la r1, acc
        xadd r2, r1, r0
        subi r3, r3, 1
        bgti r3, 0, loop
        halt
    .endfunc
    ";

fn recorded() -> (Arc<Program>, PinballContainer) {
    let program = Arc::new(assemble(PROG).expect("assembles"));
    let rec = record_whole_program(
        &program,
        &mut RoundRobin::new(7),
        &mut LiveEnv::new(42),
        1_000_000,
        "streaming-test",
    )
    .expect("records");
    // A small checkpoint interval gives the stream many chunkable groups.
    let container = PinballContainer::with_checkpoints(rec.pinball, &program, 64);
    (program, container)
}

/// The slice the server must produce for `criterion` over `pinball`,
/// computed locally with the same configuration the server uses for
/// streams (indexed traversal), in canonical bytes.
fn local_slice(program: &Arc<Program>, pinball: &Pinball, criterion: Criterion) -> Vec<u8> {
    let session = SliceSession::collect(Arc::clone(program), pinball, SlicerOptions::default());
    let options = SliceOptions::default();
    let index = DepIndex::build(session.trace(), session.pairs(), &options);
    WireSlice::from_slice(&compute_slice_indexed(&index, criterion)).canonical_bytes()
}

/// The last record (failure point) of the partial prefix held by `reader`.
fn prefix_failure(program: &Arc<Program>, reader: &StreamReader) -> (Pinball, Criterion) {
    let partial = reader.partial_container().expect("prefix container");
    let session = SliceSession::collect(
        Arc::clone(program),
        &partial.pinball,
        SlicerOptions::default(),
    );
    let id = session.failure_record().expect("non-empty prefix").id;
    (partial.pinball, Criterion::Record { id })
}

#[test]
fn streamed_upload_matches_batch_digest_and_dedupes() {
    let (program, container) = recorded();
    let server = Server::new(ServeConfig {
        shards: 2,
        ..ServeConfig::default()
    });
    let mut client = server.loopback_client();

    assert!(
        !client.probe(container.digest()).expect("probe"),
        "fresh server must not know the digest"
    );
    let up = client
        .upload_streamed(&program, &container, 7)
        .expect("streamed upload");
    assert_eq!(up.digest, container.digest(), "streamed digest == batch");
    assert_eq!(up.instructions, container.pinball.logged_instructions());
    assert!(!up.deduped, "first upload stores");
    assert!(client.probe(up.digest).expect("probe"), "now known");

    // A second client streaming the same recording never sends the body:
    // the digest probe in BeginStream short-circuits.
    let mut second = server.loopback_client();
    let before = second.wire_stats().bytes_sent;
    let again = second
        .upload_streamed(&program, &container, 7)
        .expect("dedup upload");
    assert!(again.deduped, "identical pinball dedupes");
    assert_eq!(again.digest, up.digest);
    let sent = second.wire_stats().bytes_sent - before;
    assert!(
        (sent as usize) < container.to_bytes().expect("bytes").len() / 2,
        "dedupe must skip the body ({sent} bytes sent)"
    );

    // The published container is the real recording: a session opened on
    // it slices byte-identically to a local computation.
    let session = client.open(up.digest).expect("open");
    let reply = client
        .compute_slice(session, SliceAt::Failure, SliceOptions::default())
        .expect("slice");
    assert!(!reply.slice.is_empty());
}

#[test]
fn slices_of_a_growing_stream_match_local_prefix_slices() {
    let (program, container) = recorded();
    let server = Server::new(ServeConfig {
        shards: 2,
        ..ServeConfig::default()
    });
    let mut client = server.loopback_client();

    let writer = StreamWriter::new(&container).expect("plans");
    let chunks = writer.chunks(16);
    assert!(chunks.len() >= 8, "workload should split into many chunks");
    let stream = 1u64;
    client
        .begin_stream(stream, &program, None)
        .expect("begin stream");

    // Mirror the server's absorption locally so every comparison is
    // against exactly the prefix the server holds.
    let mut mirror = StreamReader::new();
    let quarter = chunks.len() / 4;
    for (seq, chunk) in chunks.iter().enumerate().take(quarter) {
        let ack = client
            .append_chunk(stream, seq as u32, chunk.to_vec())
            .expect("append");
        assert_eq!(ack.next_seq as usize, seq + 1);
        mirror.absorb(chunk).expect("mirror absorbs");
    }

    // A quarter of the trace is up; the rest has not been sent. The
    // server must already answer a correct slice of that prefix.
    let (prefix_pinball, criterion) = prefix_failure(&program, &mirror);
    assert!(
        mirror.events_absorbed() < container.pinball.events.len(),
        "three quarters of the recording are still outstanding"
    );
    let reply = client
        .slice_stream(stream, SliceAt::Failure, SliceOptions::default())
        .expect("slice of unsealed prefix");
    assert_eq!(
        reply.slice.canonical_bytes(),
        local_slice(&program, &prefix_pinball, criterion),
        "prefix slice must be byte-identical to a local computation"
    );

    // A criterion past the absorbed prefix is a typed rejection, not a
    // panic or a wrong answer.
    let full_session = SliceSession::collect(
        Arc::clone(&program),
        &container.pinball,
        SlicerOptions::default(),
    );
    let last_id = full_session.failure_record().expect("records").id;
    let err = client
        .slice_stream(
            stream,
            SliceAt::Criterion {
                criterion: Criterion::Record { id: last_id },
            },
            SliceOptions::default(),
        )
        .expect_err("criterion not yet uploaded");
    assert!(
        matches!(err, ClientError::Server(ServeError::BadRequest { .. })),
        "{err:?}"
    );

    // Grow the stream and slice again: the server's incremental index
    // absorbs the new suffix and stays byte-identical to batch.
    for (seq, chunk) in chunks.iter().enumerate().skip(quarter) {
        client
            .append_chunk(stream, seq as u32, chunk.to_vec())
            .expect("append");
        mirror.absorb(chunk).expect("mirror absorbs");
        if seq == chunks.len() / 2 {
            let (prefix_pinball, criterion) = prefix_failure(&program, &mirror);
            let reply = client
                .slice_stream(stream, SliceAt::Failure, SliceOptions::default())
                .expect("mid-stream slice");
            assert_eq!(
                reply.slice.canonical_bytes(),
                local_slice(&program, &prefix_pinball, criterion),
                "mid-stream slice diverged from the local prefix slice"
            );
        }
    }

    // Seal: the published container is byte-for-byte the batch save.
    let up = client
        .seal_stream(stream, writer.footer().to_vec())
        .expect("seal");
    assert_eq!(up.digest, writer.digest());
    assert!(!up.deduped);
    let fetched = client.fetch(up.digest).expect("fetch");
    assert_eq!(fetched, writer.sealed_bytes(), "stored bytes == batch save");

    // Post-seal the stream still slices — now over the full trace.
    let reply = client
        .slice_stream(stream, SliceAt::Failure, SliceOptions::default())
        .expect("post-seal slice");
    assert_eq!(
        reply.slice.canonical_bytes(),
        local_slice(
            &program,
            &container.pinball,
            Criterion::Record { id: last_id }
        ),
    );
}

#[test]
fn sealed_stream_slices_answer_from_the_index_cache() {
    let (program, container) = recorded();
    let server = Server::new(ServeConfig {
        shards: 1,
        ..ServeConfig::default()
    });
    let mut client = server.loopback_client();
    let up = client
        .upload_streamed(&program, &container, 8)
        .expect("streamed upload");
    // `upload_streamed` names the stream by the digest's value.
    let stream = up.digest.0;

    let before = client.stats().expect("stats").index_cache;
    let slice = |client: &mut Client<LoopbackStream>| {
        client
            .slice_stream(stream, SliceAt::Failure, SliceOptions::default())
            .expect("sealed stream slices")
            .slice
            .canonical_bytes()
    };
    let first = slice(&mut client);
    let second = slice(&mut client);
    let after = client.stats().expect("stats").index_cache;
    assert_eq!(
        (after.misses, after.hits),
        (before.misses + 1, before.hits + 1),
        "the first sealed slice builds the digest's index, the second reuses it"
    );
    assert_eq!(first, second);

    // A session on the published digest answers from the same index, with
    // the same bytes.
    let session = client.open(up.digest).expect("open");
    let reply = client
        .compute_slice(session, SliceAt::Failure, SliceOptions::default())
        .expect("session slice");
    assert_eq!(reply.slice.canonical_bytes(), first);
    let last = client.stats().expect("stats").index_cache;
    assert_eq!((last.misses, last.hits), (after.misses, after.hits + 1));
}

#[test]
fn out_of_order_duplicate_and_resumed_chunks_converge() {
    let (program, container) = recorded();
    let server = Server::new(ServeConfig::default());
    let mut client = server.loopback_client();

    let writer = StreamWriter::new(&container).expect("plans");
    let chunks = writer.chunks(6);
    assert_eq!(chunks.len(), 6);
    let stream = 2u64;
    client.begin_stream(stream, &program, None).expect("begin");

    // Deliver 0, 3, 2 — 3 and 2 buffer behind the gap at 1.
    client
        .append_chunk(stream, 0, chunks[0].to_vec())
        .expect("chunk 0");
    let ack = client
        .append_chunk(stream, 3, chunks[3].to_vec())
        .expect("chunk 3");
    assert_eq!(ack.next_seq, 1);
    assert_eq!(ack.pending, vec![3]);
    let ack = client
        .append_chunk(stream, 2, chunks[2].to_vec())
        .expect("chunk 2");
    assert_eq!(ack.next_seq, 1);
    assert_eq!(ack.pending, vec![2, 3]);

    // Sealing across a gap is refused with a typed answer naming it.
    let err = client
        .seal_stream(stream, writer.footer().to_vec())
        .expect_err("cannot seal across a gap");
    assert!(
        matches!(&err, ClientError::Server(ServeError::BadRequest { reason })
            if reason.contains("waiting for chunk 1")),
        "{err:?}"
    );

    // Filling the gap drains everything buffered behind it.
    let ack = client
        .append_chunk(stream, 1, chunks[1].to_vec())
        .expect("chunk 1");
    assert_eq!(ack.next_seq, 4);
    assert!(ack.pending.is_empty());

    // A duplicate below the high-water mark is acknowledged idempotently.
    let ack = client
        .append_chunk(stream, 2, chunks[2].to_vec())
        .expect("duplicate chunk 2");
    assert_eq!(ack.next_seq, 4);

    // Simulated reconnect: a new connection re-begins the same stream and
    // reads the high-water mark instead of restarting from zero.
    let mut resumed = server.loopback_client();
    let ack = resumed
        .begin_stream(stream, &program, None)
        .expect("resume");
    assert_eq!(ack.next_seq, 4, "resume sees the high-water mark");
    let status = resumed.stream_status(stream).expect("status");
    assert_eq!(status.next_seq, 4);
    for (seq, chunk) in chunks.iter().enumerate().skip(ack.next_seq as usize) {
        resumed
            .append_chunk(stream, seq as u32, chunk.to_vec())
            .expect("remaining chunk");
    }
    let up = resumed
        .seal_stream(stream, writer.footer().to_vec())
        .expect("seal");
    assert_eq!(up.digest, writer.digest(), "resumed upload converges");

    // A duplicate seal (lost ack) answers idempotently with the digest.
    let again = resumed
        .seal_stream(stream, writer.footer().to_vec())
        .expect("idempotent seal");
    assert_eq!(again.digest, up.digest);
    assert!(again.deduped);
}

#[test]
fn tail_follows_a_live_upload_from_a_second_client() {
    let (program, container) = recorded();
    let server = Server::new(ServeConfig::default());
    let mut writer_client = server.loopback_client();
    let mut tailer = server.loopback_client();

    let writer = StreamWriter::new(&container).expect("plans");
    let chunks = writer.chunks(8);
    let stream = 3u64;
    writer_client
        .begin_stream(stream, &program, None)
        .expect("begin");

    let mut last = tailer.tail(stream).expect("tail before any chunk");
    assert_eq!(last.chunks, 0);
    assert!(!last.sealed);
    for (seq, chunk) in chunks.iter().enumerate() {
        writer_client
            .append_chunk(stream, seq as u32, chunk.to_vec())
            .expect("append");
        let now = tailer.tail(stream).expect("tail");
        assert_eq!(now.chunks as usize, seq + 1);
        assert!(now.events >= last.events, "events are monotone");
        assert!(
            now.instructions >= last.instructions,
            "instructions are monotone"
        );
        assert!(!now.sealed);
        assert_eq!(now.digest, None);
        assert_eq!(
            now.expected_events,
            container.pinball.events.len() as u64,
            "the header chunk announces the total"
        );
        last = now;
    }
    assert_eq!(last.events, container.pinball.events.len() as u64);
    assert_eq!(
        last.instructions,
        container.pinball.logged_instructions(),
        "fully absorbed stream retires the whole recording"
    );

    let up = writer_client
        .seal_stream(stream, writer.footer().to_vec())
        .expect("seal");
    let done = tailer.tail(stream).expect("tail after seal");
    assert!(done.sealed);
    assert_eq!(done.digest, Some(up.digest));

    // The tailer picks the published digest straight up and debugs it.
    let session = tailer.open(up.digest).expect("open published pinball");
    let reply = tailer
        .compute_slice(session, SliceAt::Failure, SliceOptions::default())
        .expect("slice published pinball");
    assert!(!reply.slice.is_empty());
}

#[test]
fn stream_misuse_is_typed_never_a_panic() {
    let (program, container) = recorded();
    let server = Server::new(ServeConfig::default());
    let mut client = server.loopback_client();

    // Ops on a stream that was never begun.
    for err in [
        client.stream_status(99).expect_err("no such stream"),
        client.tail(99).expect_err("no such stream"),
        client
            .append_chunk(99, 0, b"zzz".to_vec())
            .expect_err("no such stream"),
        client
            .slice_stream(99, SliceAt::Failure, SliceOptions::default())
            .expect_err("no such stream"),
        client
            .seal_stream(99, b"zzz".to_vec())
            .expect_err("no such stream"),
    ] {
        assert!(
            matches!(
                err,
                ClientError::Server(ServeError::UnknownStream { stream: 99 })
            ),
            "{err:?}"
        );
    }

    let stream = 4u64;
    client.begin_stream(stream, &program, None).expect("begin");

    // Slicing before any events exist is a typed rejection.
    let err = client
        .slice_stream(stream, SliceAt::Failure, SliceOptions::default())
        .expect_err("nothing to slice yet");
    assert!(matches!(
        err,
        ClientError::Server(ServeError::BadRequest { .. })
    ));

    // SliceAt::Here needs a stopped session; streams have none.
    let writer = StreamWriter::new(&container).expect("plans");
    client
        .append_chunk(stream, 0, writer.chunks(4)[0].to_vec())
        .expect("append");
    let err = client
        .slice_stream(stream, SliceAt::Here { key: None }, SliceOptions::default())
        .expect_err("Here is meaningless on a stream");
    assert!(matches!(
        err,
        ClientError::Server(ServeError::BadRequest { .. })
    ));

    // Damaged chunk bytes: typed pinball error, and the stream is dropped
    // so a retry starts clean. (Arbitrary garbage can be indistinguishable
    // from a pending frame prefix until sealing, so use a *complete* frame
    // of an invalid kind — damage the reader can prove immediately.)
    let bad_frame = vec![0x7f, 0, 0, 0, 0, 0, 0];
    let err = client
        .append_chunk(stream, 1, bad_frame)
        .expect_err("garbage chunk");
    assert!(
        matches!(err, ClientError::Server(ServeError::Pinball { .. })),
        "{err:?}"
    );
    let err = client.stream_status(stream).expect_err("stream dropped");
    assert!(matches!(
        err,
        ClientError::Server(ServeError::UnknownStream { .. })
    ));

    // An unknown digest probes as unknown.
    assert!(!client.probe(PinballDigest(0xdead_beef)).expect("probe"));
}
